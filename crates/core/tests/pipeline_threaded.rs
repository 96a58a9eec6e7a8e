//! The inter-layer pipeline runtime's correctness theorem: checkpoint
//! bytes are **bitwise identical** to a single-process
//! [`samo::trainer::SamoTrainer`] driven with the same microbatches,
//! for every pipeline depth — and therefore identical across depths —
//! no matter how the stage threads interleave. Also pins the recovery
//! path: kill a stage → bounded `Err` → heal + `restore` → bitwise
//! resync with the never-failed trainer.
//!
//! (CI's pipeline matrix job runs this under `SAMO_THREADS=1` and the
//! default pool: stage parallelism must come from the stage threads,
//! not the GEMM pool.)

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::trainer::SamoTrainer;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const WIDTH: usize = 8;
const ROWS: usize = 4;
const MBS: usize = 3;

/// Six uniform layers: splits evenly into 2 or 3 contiguous stages.
fn build_model(seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for i in 0..3 {
        m = m
            .push(Linear::new(WIDTH, WIDTH, true, seed + i))
            .push(nn::activations::Gelu::new());
    }
    m
}

fn masks_for(model: &Sequential, seed: u64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if p.value.shape().len() >= 2 {
                prune::random_prune(p.value.shape(), 0.8, seed + i as u64)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

fn batch_for(step: usize, mb: usize) -> (Tensor, Tensor) {
    let seed = 6_000 + (step * MBS + mb) as u64;
    (
        Tensor::randn(&[ROWS, WIDTH], 1.0, seed),
        Tensor::randn(&[ROWS, WIDTH], 1.0, seed + 10_000),
    )
}

fn build_pipeline(g_inter: usize, seed: u64, timeout: Duration) -> ThreadedPipelineSamo {
    let model = build_model(seed);
    let masks = masks_for(&model, seed + 100);
    let cfg = PipelineConfig {
        g_inter,
        g_data: 1,
        microbatches: MBS,
        mb_rows: ROWS,
        max_in_flight: g_inter,
        timeout,
        force_recompute: false,
    };
    ThreadedPipelineSamo::new(vec![model], masks, adam(), cfg)
}

fn pipeline_step(pp: &mut ThreadedPipelineSamo, step: usize) -> Result<bool, String> {
    pp.step(
        move |_d, mb| batch_for(step, mb).0,
        move |_d, mb, y, scale| {
            let (_, mut dy) = mse(y, &batch_for(step, mb).1);
            tensor::ops::scale(scale, dy.as_mut_slice());
            dy
        },
    )
}

/// One single-process training step over the same microbatches:
/// gradients accumulate across the M forward/backward passes, exactly
/// as each pipeline stage accumulates over its M backward microbatches.
fn trainer_step(model: &mut Sequential, tr: &mut SamoTrainer, step: usize) -> bool {
    for mb in 0..MBS {
        let (x, target) = batch_for(step, mb);
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
        model.backward(&dy);
    }
    tr.step(model)
}

#[test]
fn pipeline_checkpoints_bitwise_equal_to_single_process_at_every_depth() {
    let mut pp2 = build_pipeline(2, 47, comms::collectives::DEFAULT_TIMEOUT);
    let mut pp3 = build_pipeline(3, 47, comms::collectives::DEFAULT_TIMEOUT);
    let mut model = build_model(47);
    let masks = masks_for(&model, 147);
    let mut tr = SamoTrainer::new(&mut model, masks, adam());

    for step in 0..3 {
        let applied = pipeline_step(&mut pp2, step).expect("depth-2 step");
        assert_eq!(applied, pipeline_step(&mut pp3, step).expect("depth-3 step"));
        assert_eq!(applied, trainer_step(&mut model, &mut tr, step));
        let single = tr.save();
        assert_eq!(
            pp2.save().as_ref(),
            single.as_ref(),
            "depth 2 diverged from single-process at step {step}"
        );
        assert_eq!(
            pp3.save().as_ref(),
            single.as_ref(),
            "depth 3 diverged from single-process at step {step}"
        );
    }
    assert_eq!(pp2.steps_taken(), tr.steps_taken());
}

#[test]
fn killed_stage_errors_then_heal_restore_resyncs_bitwise() {
    let mut pp = build_pipeline(2, 53, Duration::from_millis(300));
    let mut model = build_model(53);
    let masks = masks_for(&model, 153);
    let mut tr = SamoTrainer::new(&mut model, masks, adam());

    pipeline_step(&mut pp, 0).expect("healthy step");
    trainer_step(&mut model, &mut tr, 0);
    let checkpoint = Arc::new(pp.save());
    assert_eq!(checkpoint.as_ref().as_ref(), tr.save().as_ref());

    // Kill stage 1 on the pipe mesh: the step fails within the
    // progress deadline instead of hanging.
    pp.pipe_faults()[0].kill_rank(1, 2);
    let err = pipeline_step(&mut pp, 1).expect_err("dead stage must fail the step");
    assert!(err.contains("timed out"), "unexpected error: {err}");

    // Heal + restore, then the replay is bitwise equal to the
    // never-failed single-process trainer.
    pp.pipe_faults()[0].heal_rank(1, 2);
    pp.restore(checkpoint.as_ref()).expect("restore after heal");
    for step in 1..3 {
        let applied = pipeline_step(&mut pp, step).expect("replay step");
        assert_eq!(applied, trainer_step(&mut model, &mut tr, step), "verdict at step {step}");
        assert_eq!(
            pp.save().as_ref(),
            tr.save().as_ref(),
            "replay diverged at step {step}"
        );
    }
}

/// Every rank checks the whole checkpoint's structure, not just its own
/// slice: a checkpoint of a larger model — here eight tensors whose
/// first six match the pipeline's shape for shape — is refused, and the
/// group keeps training.
#[test]
fn restore_rejects_a_checkpoint_of_a_larger_model() {
    let mut pp = build_pipeline(2, 31, Duration::from_secs(10));
    let mut larger = build_model(31).push(Linear::new(WIDTH, WIDTH, true, 99));
    let masks = masks_for(&larger, 131);
    let checkpoint = SamoTrainer::new(&mut larger, masks, adam()).save();
    let err = pp
        .restore(&checkpoint)
        .expect_err("an 8-tensor checkpoint must not restore into a 6-tensor pipeline");
    assert!(err.contains("checkpoint has 8 layers"), "{err}");
    pipeline_step(&mut pp, 0).expect("a refused restore leaves the group healthy");
}
