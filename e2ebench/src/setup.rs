//! What every workload shares: the optimizer, the pruning rule, the MLP
//! model and its seeded data, and the interface the run loop drives.

use crate::harness::{Episode, Layers};
use nn::activations::Gelu;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use std::time::Instant;
use tensor::Tensor;

/// Sparsity of every pruned weight matrix.
pub const SPARSITY: f64 = 0.9;

pub trait Workload {
    /// Global samples one step consumes.
    fn samples_per_step(&self) -> u64;
    /// Timed steps per episode.
    fn steps_per_episode(&self) -> usize;
    /// Builds the model and runtime, warms up, then runs the timed
    /// steps. Set-up time is measured from `origin`. With `layers`, the
    /// episode also times each layer and records it there.
    fn episode(&self, origin: Instant, layers: Option<&mut Layers>) -> Episode;
}

pub fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// Magnitude pruning at [`SPARSITY`] on every weight matrix with at least
/// 1024 entries; biases, norms and small matrices stay dense.
pub fn prune_masks(model: &impl Layer) -> Vec<Mask> {
    model
        .params()
        .iter()
        .map(|p| {
            let shape = p.value.shape();
            if shape.len() == 2 && p.numel() >= 1024 {
                prune::magnitude_prune(p.value.as_slice(), shape, SPARSITY)
            } else {
                Mask::dense(shape)
            }
        })
        .collect()
}

/// Total parameters φ and kept parameters fφ of a mask set.
pub fn phi_nnz(masks: &[Mask]) -> (u64, u64) {
    masks.iter().fold((0, 0), |(phi, nnz), m| {
        (phi + m.numel() as u64, nnz + m.nnz() as u64)
    })
}

/// `blocks` × [`Linear(width, width)` → `Gelu`], seeded.
pub fn mlp(width: usize, blocks: usize, seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for b in 0..blocks {
        m = m
            .push(Linear::new(width, width, true, seed.wrapping_add(b as u64)))
            .push(Gelu::new());
    }
    m
}

/// `count` seeded `(input, target)` pairs of `rows × width`.
pub fn regression_batches(
    count: usize,
    rows: usize,
    width: usize,
    seed: u64,
) -> Vec<(Tensor, Tensor)> {
    (0..count as u64)
        .map(|i| {
            let s = seed.wrapping_mul(1_000_003).wrapping_add(2 * i);
            (
                Tensor::randn(&[rows, width], 1.0, s),
                Tensor::randn(&[rows, width], 0.5, s + 1),
            )
        })
        .collect()
}
