//! The fused SAMO step (`compress_grad_fused` + `optimizer_step_fused`)
//! must be **bitwise identical** to the retained three-phase reference
//! (`compress_grad` + `grads_non_finite` + `optimizer_step` +
//! `dense_f32_params`): same θ32, θ16, ∇θ16, ∇θ32, optimizer state and
//! dense fp32 compute view, same overflow verdict — for Adam and
//! SGD-momentum, across multiple steps, at any sparsity including the
//! fully dense (p = 0) and fully pruned (p = 1) extremes, and with
//! non-finite gradients injected. The fused path also runs as `d` ZeRO
//! shards (d ∈ {1, 2, 3}) joined by the θ16 all-gather, which must land
//! on the same bits.

use nn::mixed::{OptState, Optimizer};
use nn::optim::{AdamConfig, SgdConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use samo::SamoLayerState;
use tensor::f16::F16;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 0.02,
        weight_decay: 0.01,
        ..Default::default()
    })
}

fn sgd() -> Optimizer {
    Optimizer::Sgd(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.001,
    })
}

fn bits16(v: &[F16]) -> Vec<u16> {
    v.iter().map(|h| h.0).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_os_eq(a: &OptState, b: &OptState) -> Result<(), TestCaseError> {
    match (a, b) {
        (OptState::Adam(x), OptState::Adam(y)) => {
            prop_assert_eq!(bits32(&x.m), bits32(&y.m));
            prop_assert_eq!(bits32(&x.v), bits32(&y.v));
            prop_assert_eq!(x.step, y.step);
        }
        (OptState::Sgd(x), OptState::Sgd(y)) => {
            prop_assert_eq!(bits32(&x.velocity), bits32(&y.velocity));
        }
        _ => prop_assert!(false, "optimizer state kind mismatch"),
    }
    Ok(())
}

/// Drives both paths from identical initial state and gradients and
/// asserts bit-equality of everything after every step. The fused path
/// runs as `shards` ZeRO ranks: each compresses the whole gradient and
/// steps its shard, and with more than one rank every rank's θ16 shard
/// is all-gathered and installed on every rank. Every third step
/// optionally injects a non-finite gradient to exercise the fused
/// overflow verdict and the skip path.
fn assert_fused_matches_reference(
    opt: Optimizer,
    numel: usize,
    sparsity: f64,
    steps: usize,
    seed: u64,
    inject_overflow: bool,
    shards: usize,
) -> Result<(), TestCaseError> {
    let mask = prune::random_prune(&[numel], sparsity, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF05E);
    let init: Vec<f32> = (0..numel).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

    let mut refr = SamoLayerState::from_params(&init, mask, &opt);
    let mut fused: Vec<SamoLayerState> =
        (0..shards).map(|r| refr.clone().shard(r, shards)).collect();
    // The fused kernel's dense output buffers: each starts as the shared
    // dense view (zero at pruned positions, per its precondition) and is
    // updated in place by scatter alone afterwards.
    let mut dense_fused = vec![refr.dense_f32_params(); shards];
    let inv_loss_scale = 1.0f32 / 8.0;

    for step in 0..steps {
        let mut grads: Vec<f32> = (0..numel).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
        if inject_overflow && step % 3 == 1 && numel > 0 {
            let at = rng.gen_range(0..numel);
            grads[at] = if step % 2 == 0 { f32::INFINITY } else { f32::NAN };
            // ... which only matters if `at` survives the mask; both
            // paths must agree either way.
        }

        refr.compress_grad(&grads);
        let ref_finite = !refr.grads_non_finite();
        for st in &mut fused {
            let finite = st.compress_grad_fused(&grads);
            prop_assert_eq!(finite, ref_finite, "overflow verdict diverged at step {}", step);
            prop_assert_eq!(bits16(&st.grad16), bits16(&refr.grad16));
        }

        if ref_finite {
            // Mirrors SamoTrainer::step: apply only when all finite.
            refr.optimizer_step(&opt, inv_loss_scale);
            for (st, dense) in fused.iter_mut().zip(&mut dense_fused) {
                st.optimizer_step_fused(&opt, inv_loss_scale, dense);
            }
            if shards > 1 {
                let gathered: Vec<F16> = fused.iter().flat_map(|st| st.shard_theta16()).collect();
                for (st, dense) in fused.iter_mut().zip(&mut dense_fused) {
                    st.install_gathered(&gathered, dense);
                }
            }
            let dense_ref = refr.dense_f32_params();
            for (st, dense) in fused.iter().zip(&dense_fused) {
                let range = st.shard_range();
                prop_assert_eq!(bits32(&st.theta32), bits32(&refr.theta32[range.clone()]));
                prop_assert_eq!(bits32(&st.grad32), bits32(&refr.grad32[range]));
                prop_assert_eq!(bits16(&st.theta16), bits16(&refr.theta16));
                prop_assert_eq!(bits32(dense), bits32(&dense_ref));
            }
            let whole = SamoLayerState::concat(&fused.iter().collect::<Vec<_>>());
            assert_os_eq(&whole.os, &refr.os)?;
        }
    }
    Ok(())
}

/// [`assert_fused_matches_reference`] unsharded and as 2 and 3 shards.
fn assert_fused_matches_reference_sharded(
    opt: Optimizer,
    numel: usize,
    sparsity: f64,
    steps: usize,
    seed: u64,
    inject_overflow: bool,
) -> Result<(), TestCaseError> {
    for shards in 1..=3 {
        assert_fused_matches_reference(
            opt.clone(),
            numel,
            sparsity,
            steps,
            seed,
            inject_overflow,
            shards,
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_step_equals_three_phase_adam(
        numel in 1usize..600,
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference_sharded(adam(), numel, sparsity, 6, seed, false)?;
    }

    #[test]
    fn fused_step_equals_three_phase_sgd(
        numel in 1usize..600,
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference_sharded(sgd(), numel, sparsity, 6, seed, false)?;
    }

    #[test]
    fn fused_step_equals_three_phase_with_overflows(
        numel in 1usize..400,
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        assert_fused_matches_reference_sharded(adam(), numel, sparsity, 9, seed, true)?;
        assert_fused_matches_reference_sharded(sgd(), numel, sparsity, 9, seed, true)?;
    }
}

/// The mask extremes deserve explicit coverage: p = 0 keeps every
/// parameter (compressed length == numel, 193 — divisible by neither 2
/// nor 3) and p = 1 keeps none (every kernel is a no-op over an empty
/// index set).
#[test]
fn fused_step_handles_dense_and_empty_masks() {
    for opt in [adam(), sgd()] {
        for sparsity in [0.0, 1.0] {
            assert_fused_matches_reference_sharded(opt.clone(), 193, sparsity, 5, 42, true)
                .expect("fused/reference divergence at mask extreme");
        }
    }
}
