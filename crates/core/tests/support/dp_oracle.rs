//! The data-parallel oracle the threaded runtime is checked against: one
//! model and one `SamoTrainer`, fed the exact mean of every rank's f16
//! gradient from `comms::reference::allreduce_mean_f16` — the function
//! the ring all-reduce computes bit for bit.

use nn::layer::Layer;
use samo::SamoTrainer;
use tensor::f16::F16;
use tensor::Tensor;

/// One data-parallel step of `world` replicas on the oracle. For each
/// rank, `seed(rank, model, loss_scale)` runs forward and returns the
/// scaled output gradient, exactly like the threaded step closure; the
/// rank's dense gradient after backward is narrowed to f16. The exact
/// mean over the ranks is widened into the model's gradient and the
/// trainer steps. Returns whether the step applied.
pub fn oracle_step<M: Layer>(
    trainer: &mut SamoTrainer,
    model: &mut M,
    world: usize,
    seed: impl Fn(usize, &mut M, f32) -> Tensor,
) -> bool {
    let scale = trainer.loss_scale();
    let mut grads: Vec<Vec<Vec<F16>>> = Vec::with_capacity(world);
    for rank in 0..world {
        model.zero_grad();
        let dy = seed(rank, model, scale);
        model.backward(&dy);
        grads.push(
            model
                .params()
                .iter()
                .map(|p| {
                    p.grad
                        .as_slice()
                        .iter()
                        .map(|&g| F16::from_f32(g))
                        .collect()
                })
                .collect(),
        );
    }
    for (i, p) in model.params_mut().into_iter().enumerate() {
        let mut bufs: Vec<&mut [F16]> = grads.iter_mut().map(|g| g[i].as_mut_slice()).collect();
        comms::reference::allreduce_mean_f16(&mut bufs).expect("ranks share one layout");
        for (g, mean) in p.grad.as_mut_slice().iter_mut().zip(&grads[0][i]) {
            *g = mean.to_f32();
        }
    }
    trainer.step(model)
}
