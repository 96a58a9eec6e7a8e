//! Cross-process data-parallel SAMO: a [`SamoTrainer`] whose gradient
//! mean moves through a [`Communicator`] — any [`Transport`], but built
//! for [`comms::TcpTransport`] endpoints living in *separate OS
//! processes* wired by [`comms::bootstrap_tcp`].
//!
//! [`DistDataParallel`] is the trainer plus the communicator: it
//! dereferences to its [`SamoTrainer`] for everything but the step, and
//! runs the trainer's one step with the communicator as the
//! `GradExchange`. The communicator adds exactly two collectives: the
//! ring mean of the dense f16 grow score on schedule update steps, and
//! the ring mean of the compressed `∇θ16` on every step.
//!
//! # Bitwise equivalence with the single-process trainer
//!
//! The ring computes the exact-f64-sum mean (see the `comms` crate
//! docs), so when every rank feeds identical per-rank batches —
//! replicated data parallelism — the mean of G bitwise-identical f16
//! gradients is that gradient again, bit for bit, and the whole
//! distributed trajectory (θ, optimizer moments, loss-scale schedule,
//! checkpoint bytes) is bitwise identical to [`SamoTrainer`] on one
//! process. That identity is the oracle the `samo-launch` drill checks
//! checkpoints against: the transport is the only variable, so any
//! divergence is a transport bug.
//!
//! # Failure and recovery
//!
//! A dead peer surfaces as `Err` from [`DistDataParallel::step`]
//! within the heartbeat window ([`comms::CommsError::PeerDead`]) or
//! the socket EOF ([`comms::CommsError::Closed`]) — never a hang. The
//! survivor then re-rendezvouses (a fresh transport + generation),
//! and [`DistDataParallel::resync`] installs the new communicator,
//! restores the agreed checkpoint, and barriers the new mesh together.

use crate::rank::install_ring_means;
use crate::state::SamoLayerState;
use crate::trainer::{GradExchange, SamoTrainer};
use comms::{CommsError, Communicator, Transport};
use nn::layer::Layer;
use nn::mixed::Optimizer;
use prune::Mask;
use std::ops::{Deref, DerefMut};
use tensor::f16::F16;

/// A data-parallel SAMO trainer over an arbitrary transport. One
/// instance per rank (usually one per process).
pub struct DistDataParallel<T: Transport> {
    trainer: SamoTrainer,
    comm: Communicator<T>,
}

impl<T: Transport> DistDataParallel<T> {
    /// Builds this rank's trainer exactly like [`SamoTrainer::new`]
    /// (prune in place, round to f16, write widened params back) and
    /// attaches the communicator. The caller has already
    /// [`Communicator::adopt_epoch`]'d the rendezvous-agreed epoch.
    ///
    /// A [`MaskSchedule`](prune::MaskSchedule) installed through the
    /// trainer must be the same on every rank of the mesh: at each
    /// update step the ranks reduce the dense f16 gradient, derive
    /// identical masks from the reduced bits, remap their compressed
    /// state in place, and bump the comms epoch together to renegotiate
    /// the gradient bucket layout.
    pub fn new(
        model: &mut impl Layer,
        masks: Vec<Mask>,
        opt: Optimizer,
        comm: Communicator<T>,
    ) -> DistDataParallel<T> {
        DistDataParallel {
            trainer: SamoTrainer::new(model, masks, opt),
            comm,
        }
    }

    /// This rank's index in the mesh.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Mesh size.
    pub fn world(&self) -> usize {
        self.comm.world()
    }

    /// The communicator — for broadcasts (e.g. shipping checkpoint
    /// bytes to rejoining ranks) and barriers around the step loop.
    pub fn comm_mut(&mut self) -> &mut Communicator<T> {
        &mut self.comm
    }

    /// Completes one training step after `model` ran forward/backward
    /// with the loss multiplied by the trainer's loss scale: the
    /// trainer's step with the compressed gradients ring-all-reduced to
    /// their mean between compress and verdict. The overflow verdict
    /// comes from the *reduced* bits, so every rank's loss scaler
    /// reaches the same decision without an extra collective. `Err`
    /// means a collective failed (dead peer, timeout, poisoned
    /// communicator) and the group needs [`Self::resync`].
    pub fn step(&mut self, model: &mut impl Layer) -> Result<bool, CommsError> {
        self.trainer.step_with(model, &mut self.comm)
    }

    /// The restore-and-resync recovery entry point: installs a freshly
    /// bootstrapped communicator (new generation, epoch already
    /// adopted by the caller), restores the agreed checkpoint, and
    /// barriers the new mesh so every rank resumes the step loop
    /// together. After a successful resync the trainer's bytes are the
    /// checkpoint's bytes — the drill re-diffs them post-kill.
    pub fn resync(
        &mut self,
        comm: Communicator<T>,
        checkpoint: &[u8],
        model: &mut impl Layer,
    ) -> Result<(), String> {
        self.comm = comm;
        self.trainer.restore(checkpoint, model)?;
        self.comm
            .barrier()
            .map_err(|e| format!("post-resync barrier failed: {e}"))?;
        if telemetry::enabled() {
            telemetry::global().counter("samo.dist.resyncs").inc();
        }
        Ok(())
    }
}

impl<T: Transport> Deref for DistDataParallel<T> {
    type Target = SamoTrainer;

    fn deref(&self) -> &SamoTrainer {
        &self.trainer
    }
}

impl<T: Transport> DerefMut for DistDataParallel<T> {
    fn deref_mut(&mut self) -> &mut SamoTrainer {
        &mut self.trainer
    }
}

impl<T: Transport> GradExchange for Communicator<T> {
    type Error = CommsError;

    fn grow_score(&mut self, grad: &[f32], score: &mut Vec<f32>) -> Result<(), CommsError> {
        let mut dense16: Vec<F16> = grad.iter().map(|&g| F16::from_f32(g)).collect();
        self.allreduce_mean_f16(&mut dense16)?;
        score.clear();
        score.extend(dense16.iter().map(|g| g.to_f32()));
        Ok(())
    }

    /// One ring per layer, started in layer order so ids line up across
    /// ranks. The local flag is irrelevant: the verdict comes from the
    /// reduced bits, which are identical on every rank.
    fn mean_grads(&mut self, layers: &mut [SamoLayerState], _: bool) -> Result<bool, CommsError> {
        let mut order: Vec<(u64, usize)> = Vec::with_capacity(layers.len());
        for (i, layer) in layers.iter().enumerate() {
            order.push((self.ring_start(layer.grad16.clone())?, i));
            self.ring_pump()?;
        }
        install_ring_means(self, &order, |i, mean| {
            layers[i].grad16.copy_from_slice(mean)
        })?;
        Ok(!layers.iter().any(SamoLayerState::grads_non_finite))
    }

    /// Every rank derives the same masks from the same reduced bits, so
    /// all bump the epoch in lockstep: the compressed bucket layout is
    /// renegotiated and stale-epoch buckets are dropped on receive.
    fn remapped(&mut self) {
        self.bump_epoch();
    }
}
