//! ZeRO-style sharding of SAMO's compressed state — an extension beyond
//! the paper.
//!
//! The paper compares against DeepSpeed's ZeRO optimizer (Rajbhandari et
//! al.), which shards optimizer state across data-parallel ranks, but
//! never composes the two ideas. They compose naturally: SAMO compresses
//! the model state to `24fφ + 2φ` bytes; ZeRO-1 then divides the
//! *compressed* optimizer-side tensors (`θ32`, `∇θ32`, `os`) across the
//! `d` data-parallel ranks. Each rank holds
//!
//! * the full dense `θ16` (needed for forward/backward): `2φ`,
//! * the full shared index and fp16 gradient: `(4 + 2)fφ`,
//! * its shard of `θ32 + ∇θ32 + os (+ downcast temp)`: `(4+4+8+2)fφ/d`,
//!
//! i.e. `M = 2φ + 6fφ + 18fφ/d`, recovering SAMO exactly at `d = 1` and
//! approaching `2φ + 6fφ` for large `d` — for GPT-3 2.7B at `p = 0.9`
//! and `d = 64` this is 6.9 GB vs SAMO's 11.7 GB vs dense 53 GB.
//!
//! The training step per rank: all ranks hold identical `∇θ16`
//! (compressed) after the gradient all-reduce; each rank runs the SAMO
//! optimizer phases on *its shard only*, then the updated compressed
//! fp16 parameters are all-gathered and expanded into the dense `θ16`.

use crate::compressed::{compress_f32, expand_f16_into};
use crate::state::SamoLayerState;
use nn::mixed::{OptState, Optimizer};
use prune::Mask;
use tensor::f16::F16;

/// Per-rank SAMO state with ZeRO-1-style sharded optimizer tensors.
#[derive(Clone, Debug)]
pub struct ShardedSamoLayerState {
    mask: Mask,
    shard_id: usize,
    num_shards: usize,
    /// This rank's contiguous range within the compressed value space.
    lo: usize,
    hi: usize,
    /// Dense fp16 parameters (full copy, every rank).
    pub theta16: Vec<F16>,
    /// Full compressed fp16 gradient (input to the all-reduce).
    pub grad16: Vec<F16>,
    /// Shard of the fp32 master parameters.
    pub theta32_shard: Vec<f32>,
    /// Shard of the fp32 gradients.
    pub grad32_shard: Vec<f32>,
    /// Shard of the optimizer state.
    pub os_shard: OptState,
}

/// Contiguous shard bounds of rank `r` of `d` over `n` elements.
fn shard_bounds(n: usize, r: usize, d: usize) -> (usize, usize) {
    let base = n / d;
    let extra = n % d;
    let lo = r * base + r.min(extra);
    let len = base + usize::from(r < extra);
    (lo, lo + len)
}

impl ShardedSamoLayerState {
    /// Builds rank `shard_id`'s state (of `num_shards`) from dense
    /// parameter values and the pruning mask.
    pub fn from_params(
        values: &[f32],
        mask: Mask,
        opt: &Optimizer,
        shard_id: usize,
        num_shards: usize,
    ) -> ShardedSamoLayerState {
        assert_eq!(values.len(), mask.numel());
        let theta32 = compress_f32(values, &mask);
        let grad16 = vec![F16::ZERO; theta32.len()];
        let os_shard = |lo: usize, hi: usize| OptState::new(opt, hi - lo);
        Self::assemble(mask, &theta32, grad16, shard_id, num_shards, os_shard)
    }

    /// Rebuilds rank `shard_id`'s state from a *full* (unsharded)
    /// compressed layer state, e.g. one loaded from a checkpoint — the
    /// recovery path when a rank is lost and must be reconstructed.
    /// Exactly inverts [`Self::to_full_layer`].
    pub fn from_full_layer(
        full: &SamoLayerState,
        opt: &Optimizer,
        shard_id: usize,
        num_shards: usize,
    ) -> ShardedSamoLayerState {
        let os_shard = |lo: usize, hi: usize| match (&full.os, opt) {
            (OptState::Adam(st), Optimizer::Adam(_)) => OptState::Adam(nn::optim::AdamState {
                m: st.m[lo..hi].to_vec(),
                v: st.v[lo..hi].to_vec(),
                step: st.step,
            }),
            (OptState::Sgd(st), Optimizer::Sgd(_)) => OptState::Sgd(nn::optim::SgdState {
                velocity: st.velocity[lo..hi].to_vec(),
            }),
            _ => panic!("optimizer state/config mismatch"),
        };
        let (mask, grad16) = (full.mask().clone(), full.grad16.clone());
        Self::assemble(mask, &full.theta32, grad16, shard_id, num_shards, os_shard)
    }

    /// Rank `shard_id`'s state over the full compressed `θ32`: its shard
    /// of `θ32`, the optimizer state `os_shard(lo, hi)` for that shard,
    /// and the dense θ16 every rank holds. θ16 is built the way
    /// [`Self::install_gathered`] produces it — narrow θ32, expand — so a
    /// rebuilt rank is bitwise identical to one that never failed.
    fn assemble(
        mask: Mask,
        theta32: &[f32],
        grad16: Vec<F16>,
        shard_id: usize,
        num_shards: usize,
        os_shard: impl FnOnce(usize, usize) -> OptState,
    ) -> ShardedSamoLayerState {
        assert!(num_shards >= 1 && shard_id < num_shards);
        assert_eq!(theta32.len(), mask.nnz());
        let (lo, hi) = shard_bounds(theta32.len(), shard_id, num_shards);
        let temp16: Vec<F16> = theta32.iter().map(|&v| F16::from_f32(v)).collect();
        let mut theta16 = vec![F16::ZERO; mask.numel()];
        expand_f16_into(&temp16, &mask, &mut theta16);
        ShardedSamoLayerState {
            theta32_shard: theta32[lo..hi].to_vec(),
            grad32_shard: vec![0.0; hi - lo],
            os_shard: os_shard(lo, hi),
            grad16,
            theta16,
            mask,
            shard_id,
            num_shards,
            lo,
            hi,
        }
    }

    /// Reassembles the full (unsharded) compressed layer state for one
    /// parameter from every rank's shard, for checkpointing: the shards
    /// are contiguous and partition the compressed space, so
    /// concatenation recovers exactly the state an unsharded
    /// [`SamoLayerState`] would hold.
    ///
    /// `ranks` must hold one state per rank, in rank order, all for the
    /// same parameter tensor.
    pub fn to_full_layer(ranks: &[&ShardedSamoLayerState], opt: &Optimizer) -> SamoLayerState {
        assert!(!ranks.is_empty(), "need at least one shard");
        let first = ranks[0];
        assert_eq!(ranks.len(), first.num_shards, "one state per rank");
        let nnz = first.mask.nnz();
        let mut theta32 = vec![0.0f32; nnz];
        let mut os = OptState::new(opt, nnz);
        for (r, st) in ranks.iter().enumerate() {
            assert_eq!(st.shard_id, r, "ranks must be in order");
            assert_eq!(st.mask, first.mask, "shards of different tensors");
            let (lo, hi) = st.shard_range();
            theta32[lo..hi].copy_from_slice(&st.theta32_shard);
            match (&mut os, &st.os_shard) {
                (OptState::Adam(full), OptState::Adam(shard)) => {
                    full.m[lo..hi].copy_from_slice(&shard.m);
                    full.v[lo..hi].copy_from_slice(&shard.v);
                    full.step = shard.step;
                }
                (OptState::Sgd(full), OptState::Sgd(shard)) => {
                    full.velocity[lo..hi].copy_from_slice(&shard.velocity);
                }
                _ => panic!("optimizer state/config mismatch"),
            }
        }
        SamoLayerState::from_parts(first.mask.clone(), theta32, first.grad16.clone(), os)
    }

    /// This rank's shard bounds within the compressed space.
    pub fn shard_range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Total parameters φ in this tensor.
    pub fn numel(&self) -> usize {
        self.mask.numel()
    }

    /// Unpruned parameters fφ in this tensor.
    pub fn nnz(&self) -> usize {
        self.mask.nnz()
    }

    /// The pruning mask (shared structure across all ranks).
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// Compresses a dense (loss-scaled) fp32 gradient into `∇θ16`.
    pub fn compress_grad(&mut self, dense_scaled_grad: &[f32]) {
        assert_eq!(dense_scaled_grad.len(), self.mask.numel());
        for (g16, &i) in self.grad16.iter_mut().zip(self.mask.indices().iter()) {
            *g16 = F16::from_f32(dense_scaled_grad[i as usize]);
        }
    }

    /// Runs the optimizer on this rank's shard and returns the updated
    /// *compressed fp16* shard — the payload of the parameter
    /// all-gather.
    pub fn optimizer_step_shard(&mut self, opt: &Optimizer, inv_loss_scale: f32) -> Vec<F16> {
        for (g32, g16) in self
            .grad32_shard
            .iter_mut()
            .zip(&self.grad16[self.lo..self.hi])
        {
            *g32 = g16.to_f32() * inv_loss_scale;
        }
        self.os_shard
            .step(opt, &mut self.theta32_shard, &self.grad32_shard);
        self.theta32_shard.iter().map(|&v| F16::from_f32(v)).collect()
    }

    /// Installs the all-gathered compressed fp16 parameters (every
    /// rank's shard, concatenated) and expands them into the dense θ16.
    pub fn install_gathered(&mut self, full_compressed16: &[F16]) {
        assert_eq!(full_compressed16.len(), self.mask.nnz());
        expand_f16_into(full_compressed16, &self.mask, &mut self.theta16);
    }

    /// Writes the dense fp32 parameter view into an existing buffer
    /// (table-based widen, no allocation).
    pub fn write_dense_f32_params_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.theta16.len());
        tensor::ops::widen_into(&self.theta16, out);
    }

    /// Measured model-state bytes held by this rank.
    pub fn measured_bytes(&self, include_temp: bool) -> u64 {
        let shard = self.hi - self.lo;
        let mut b = (self.theta16.len() * 2
            + self.mask.index_bytes()
            + self.grad16.len() * 2
            + self.theta32_shard.len() * 4
            + self.grad32_shard.len() * 4) as u64
            + self.os_shard.bytes() as u64;
        if include_temp {
            b += (shard * 2) as u64;
        }
        b
    }
}

/// Analytic per-rank memory of ZeRO-sharded SAMO (Adam):
/// `2φ + 6fφ + 18fφ/d` (peak, including the sharded downcast temp).
pub fn m_samo_zero_bytes(phi: u64, p: f64, d: u64) -> u64 {
    assert!((0.0..=1.0).contains(&p));
    assert!(d >= 1);
    let f = 1.0 - p;
    let full = 6.0 * f * phi as f64;
    let sharded = 18.0 * f * phi as f64 / d as f64;
    (2.0 * phi as f64 + full + sharded).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::m_samo_bytes;
    use crate::state::SamoLayerState;
    use nn::optim::AdamConfig;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.05,
            ..Default::default()
        })
    }

    #[test]
    fn shard_bounds_partition() {
        for &(n, d) in &[(10usize, 3usize), (7, 7), (100, 8), (5, 1), (3, 5)] {
            let mut covered = 0usize;
            let mut prev_hi = 0usize;
            for r in 0..d {
                let (lo, hi) = shard_bounds(n, r, d);
                assert_eq!(lo, prev_hi, "shards must be contiguous");
                assert!(hi >= lo);
                covered += hi - lo;
                prev_hi = hi;
            }
            assert_eq!(covered, n);
            assert_eq!(prev_hi, n);
        }
    }

    #[test]
    fn analytic_memory_recovers_samo_at_d1() {
        let phi = 1_000_000u64;
        for p in [0.5, 0.8, 0.9] {
            assert_eq!(m_samo_zero_bytes(phi, p, 1), m_samo_bytes(phi, p));
        }
    }

    #[test]
    fn analytic_memory_decreases_in_d_with_floor() {
        let phi = 1_000_000u64;
        let p = 0.9;
        let mut prev = u64::MAX;
        for d in [1u64, 2, 4, 8, 64, 1024] {
            let m = m_samo_zero_bytes(phi, p, d);
            assert!(m < prev);
            prev = m;
        }
        let floor = (2.0 * phi as f64 + 6.0 * 0.1 * phi as f64) as u64;
        assert!(prev >= floor);
        assert!(prev < floor + floor / 50, "should approach the floor");
    }

    #[test]
    fn measured_bytes_match_analytic() {
        let phi = 50_000usize;
        let p = 0.9;
        let d = 4;
        let mask = prune::random_prune(&[phi], p, 1);
        let nnz = mask.nnz() as u64;
        let mut total_sharded = 0u64;
        for r in 0..d {
            let st = ShardedSamoLayerState::from_params(
                &vec![0.1; phi],
                mask.clone(),
                &adam(),
                r,
                d,
            );
            // Per-rank: 2φ + (4+2)·nnz + (4+4+8+2)·shard.
            let (lo, hi) = st.shard_range();
            let expect = 2 * phi as u64 + 6 * nnz + 18 * (hi - lo) as u64;
            assert_eq!(st.measured_bytes(true), expect, "rank {r}");
            total_sharded += 18 * (hi - lo) as u64;
        }
        assert_eq!(total_sharded, 18 * nnz, "shards cover everything once");
    }

    /// The extension's correctness theorem: d ranks running sharded SAMO
    /// (identical all-reduced gradients, all-gathered parameters)
    /// produce exactly the unsharded SAMO trajectory.
    #[test]
    fn sharded_training_equals_unsharded() {
        let phi = 257usize; // deliberately not divisible by d
        let d = 3usize;
        let mask = prune::random_prune(&[phi], 0.7, 2);
        let values: Vec<f32> = (0..phi).map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.01).collect();

        let mut reference = SamoLayerState::from_params(&values, mask.clone(), &adam());
        let mut ranks: Vec<ShardedSamoLayerState> = (0..d)
            .map(|r| ShardedSamoLayerState::from_params(&values, mask.clone(), &adam(), r, d))
            .collect();

        for step in 0..5 {
            // The (already all-reduced) gradient every rank sees.
            let grads: Vec<f32> = (0..phi)
                .map(|i| ((i + step * 13) % 29) as f32 * 0.01 - 0.14)
                .collect();

            reference.compress_grad(&grads);
            reference.optimizer_step(&adam(), 1.0);

            // Each rank: compress, step its shard, contribute to the
            // all-gather.
            let nnz = mask.nnz();
            let mut gathered = vec![F16::ZERO; nnz];
            for rank in ranks.iter_mut() {
                rank.compress_grad(&grads);
                let shard16 = rank.optimizer_step_shard(&adam(), 1.0);
                let (lo, hi) = rank.shard_range();
                gathered[lo..hi].copy_from_slice(&shard16);
            }
            for rank in ranks.iter_mut() {
                rank.install_gathered(&gathered);
            }

            // Every rank's dense θ16 equals the reference's, bitwise.
            for (r, rank) in ranks.iter().enumerate() {
                assert_eq!(
                    rank.theta16, reference.theta16,
                    "rank {r} diverged at step {step}"
                );
            }
            // And shard θ32 values equal the reference's θ32 slices.
            for rank in &ranks {
                let (lo, hi) = rank.shard_range();
                assert_eq!(&rank.theta32_shard[..], &reference.theta32[lo..hi]);
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip_is_bitwise() {
        let phi = 131usize; // not divisible by d
        let d = 4usize;
        let mask = prune::random_prune(&[phi], 0.6, 5);
        let values: Vec<f32> = (0..phi).map(|i| (i as f32 * 0.3).sin() * 0.1).collect();
        let mut ranks: Vec<ShardedSamoLayerState> = (0..d)
            .map(|r| ShardedSamoLayerState::from_params(&values, mask.clone(), &adam(), r, d))
            .collect();

        // A couple of steps so shards carry non-trivial optimizer state.
        for step in 0..3 {
            let grads: Vec<f32> = (0..phi).map(|i| ((i + step * 7) % 11) as f32 * 0.02).collect();
            let nnz = mask.nnz();
            let mut gathered = vec![F16::ZERO; nnz];
            for rank in ranks.iter_mut() {
                rank.compress_grad(&grads);
                let shard16 = rank.optimizer_step_shard(&adam(), 1.0);
                let (lo, hi) = rank.shard_range();
                gathered[lo..hi].copy_from_slice(&shard16);
            }
            for rank in ranks.iter_mut() {
                rank.install_gathered(&gathered);
            }
        }

        let refs: Vec<&ShardedSamoLayerState> = ranks.iter().collect();
        let full = ShardedSamoLayerState::to_full_layer(&refs, &adam());
        for (r, orig) in ranks.iter().enumerate() {
            let rebuilt = ShardedSamoLayerState::from_full_layer(&full, &adam(), r, d);
            assert_eq!(rebuilt.shard_range(), orig.shard_range());
            assert_eq!(rebuilt.theta16, orig.theta16, "rank {r} θ16");
            assert_eq!(rebuilt.grad16, orig.grad16, "rank {r} ∇θ16");
            assert_eq!(rebuilt.theta32_shard, orig.theta32_shard, "rank {r} θ32");
            match (&rebuilt.os_shard, &orig.os_shard) {
                (OptState::Adam(a), OptState::Adam(b)) => {
                    assert_eq!(a.step, b.step);
                    assert_eq!(a.m, b.m);
                    assert_eq!(a.v, b.v);
                }
                _ => panic!("wrong optimizer state"),
            }
        }
    }

    #[test]
    fn headline_numbers_for_gpt27b() {
        // Doc-comment claim: 2.7B, p = 0.9, d = 64 → ~6.9 GB per rank.
        let phi = 2_652_000_000u64;
        let m = m_samo_zero_bytes(phi, 0.9, 64) as f64 / 1e9;
        assert!((m - 6.9).abs() < 0.3, "got {m} GB");
    }
}
