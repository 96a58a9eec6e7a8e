//! Thread-per-rank data-parallel SAMO training over the real
//! message-passing collectives runtime in the `comms` crate.
//!
//! Every rank is its own OS thread owning its replica, its ZeRO shard
//! of the compressed state, a loss-scaler copy, and a
//! [`comms::Communicator`] endpoint of an in-process mesh (or any other
//! [`Transport`]). Gradients move through the chunked **ring
//! all-reduce**, and the reduction is started per parameter bucket from
//! inside backward ([`Layer::backward_with_ready`]), so communication
//! overlaps the rest of the backward pass exactly as on a real cluster.
//! The rank core and thread host are shared with the pipeline runtime
//! (`crate::rank`): a rank here is stage 0 of a one-stage grid, and the
//! core ends its every step exactly as it ends a stage rank's.
//!
//! # Bitwise equivalence with the single-process trainer
//!
//! The ring computes the same exact-f64-sum mean as
//! [`comms::reference::allreduce_mean_f16`], so a group takes the
//! bitwise-identical optimizer steps a [`crate::SamoTrainer`] takes when
//! fed that exact mean of the ranks' f16 gradients, regardless of
//! thread timing (`tests/data_parallel_threaded.rs` asserts this on
//! checkpoint bytes). Loss-scale decisions need no extra collective:
//! every rank scans the *reduced* (identical) gradient bits, so every
//! scaler replica reaches the same verdict independently.
//!
//! # Failure handling
//!
//! Injected link faults ([`ThreadedDataParallelSamo::faults`]) surface
//! as a step `Err` within the communicator timeout — never a hang. A
//! failed group refuses further steps (poisoned) until
//! [`ThreadedDataParallelSamo::restore`] reloads a
//! checkpoint on every rank, bumps the comms epoch (discarding stale
//! in-flight traffic), and barriers the group back together.

use crate::rank::{assert_replicas_agree, RankCore, RankGroup, ShardedRank, StepNames};
use crate::state::SamoLayerState;
use crate::trainer::samo_ring_allreduce_bytes;
use comms::{Communicator, FaultController, InProcTransport, Transport};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

/// Per-rank transport statistics, via [`ThreadedDataParallelSamo::comm_stats`].
#[derive(Debug, Clone, Copy)]
pub struct CommStats {
    /// Bytes actually pushed into this rank's links (headers included).
    pub wire_bytes: u64,
    /// Modeled f16 ring volume (`2·(G−1)/G · fφ · 2B` per step).
    pub model_allreduce_bytes: u64,
    /// Messages lost to injected faults on this rank's outgoing links.
    pub msgs_dropped: u64,
}

const NAMES: StepNames = StepNames {
    prefix: "samo.dp_threaded",
    kind: "samo_dp_threaded",
    group: "data-parallel",
    backward_allreduce: "samo.dp_threaded.backward_allreduce",
    remap: "samo.dp_threaded.remap",
    shard_step: "samo.dp_threaded.shard_step",
};

/// Everything one rank thread owns.
struct Rank<M> {
    model: M,
    core: RankCore,
}

impl<M: Layer + Send + 'static> ShardedRank for Rank<M> {
    type Model = M;

    fn parts(&mut self) -> (&mut M, &mut RankCore) {
        (&mut self.model, &mut self.core)
    }
}

/// A data-parallel SAMO group where every rank is a real OS thread and
/// gradients move through the `comms` ring all-reduce — the
/// `G_inter = 1` case of [`crate::ThreadedPipelineSamo`], with dynamic
/// sparsity on top.
pub struct ThreadedDataParallelSamo<M: Layer + Send + 'static> {
    group: RankGroup<Rank<M>>,
    faults: Arc<FaultController>,
    allreduce_bytes: u64,
}

impl<M: Layer + Send + 'static> ThreadedDataParallelSamo<M> {
    /// Builds the group from identically initialized replicas and one
    /// mask per parameter tensor, and spawns one thread per rank.
    pub fn new(replicas: Vec<M>, masks: Vec<Mask>, opt: Optimizer) -> ThreadedDataParallelSamo<M> {
        Self::with_comm_timeout(replicas, masks, opt, comms::collectives::DEFAULT_TIMEOUT)
    }

    /// Like [`Self::new`] with an explicit collective deadline (tests
    /// with injected faults want a short one).
    pub fn with_comm_timeout(
        replicas: Vec<M>,
        masks: Vec<Mask>,
        opt: Optimizer,
        timeout: Duration,
    ) -> ThreadedDataParallelSamo<M> {
        let faults = Arc::new(FaultController::new());
        let mesh = InProcTransport::mesh_with_faults(replicas.len(), Arc::clone(&faults));
        Self::with_transports(replicas, masks, opt, timeout, mesh, faults)
    }

    /// Builds the group over caller-supplied transport endpoints — the
    /// same rank threads and collectives, but the wires can be anything
    /// implementing [`Transport`] (e.g. loopback
    /// [`comms::TcpTransport::local_mesh`] endpoints, proving the
    /// runtime is transport-agnostic bit for bit). `transports[r]` must
    /// report rank `r`; `faults` should be the controller those
    /// transports were built with so [`Self::faults`] still steers them.
    pub fn with_transports<T: Transport + 'static>(
        replicas: Vec<M>,
        masks: Vec<Mask>,
        opt: Optimizer,
        timeout: Duration,
        transports: Vec<T>,
        faults: Arc<FaultController>,
    ) -> ThreadedDataParallelSamo<M> {
        assert!(
            !replicas.is_empty(),
            "ThreadedDataParallelSamo needs at least one replica"
        );
        assert_eq!(
            transports.len(),
            replicas.len(),
            "one transport endpoint per replica"
        );
        assert_replicas_agree(&replicas);
        let ranks = replicas
            .into_iter()
            .zip(transports)
            .enumerate()
            .map(|(rank, (mut model, t))| {
                assert_eq!(
                    t.rank(),
                    rank,
                    "transport endpoints must arrive in rank order"
                );
                let comm =
                    Communicator::new(Box::new(t) as Box<dyn Transport>).with_timeout(timeout);
                let place = (0, masks.len());
                let core = RankCore::new(&mut model, &masks, &opt, place, &NAMES, comm, None);
                let rk = Rank { model, core };
                (format!("samo-dp-rank{rank}"), format!("rank {rank}"), rk)
            })
            .collect();
        ThreadedDataParallelSamo {
            group: RankGroup::spawn(ranks, 1),
            faults,
            allreduce_bytes: 0,
        }
    }

    /// Number of rank threads.
    pub fn world_size(&self) -> usize {
        self.group.len()
    }

    /// Fault injection handle for every link of the mesh.
    pub fn faults(&self) -> &Arc<FaultController> {
        &self.faults
    }

    /// Current loss scale (multiply the loss before backward — the
    /// step closure receives it as its third argument).
    pub fn loss_scale(&self) -> f32 {
        self.group.scaler.scale()
    }

    /// Applied steps.
    pub fn steps_taken(&self) -> u64 {
        self.group.counts.taken
    }

    /// Steps skipped on gradient overflow (every rank skips together).
    pub fn steps_skipped(&self) -> u64 {
        self.group.counts.skipped
    }

    /// Cumulative compressed-gradient bytes this group has moved through
    /// its all-reduce: the ring formula `2·(G−1)/G · fφ` fp16 values per
    /// step (skipped steps included, since the collective runs before
    /// the overflow check).
    pub fn allreduce_bytes(&self) -> u64 {
        self.allreduce_bytes
    }

    /// Total parameters φ (per replica).
    pub fn numel(&self) -> usize {
        self.group.numel
    }

    /// Unpruned parameters fφ (per replica).
    pub fn nnz(&self) -> usize {
        self.group.nnz
    }

    /// Replaces the loss scaler on every rank (and the mirror).
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.group.set_scaler(scaler);
    }

    /// Installs a dynamic-sparsity [`MaskSchedule`] on every rank. At
    /// each schedule update step the ranks recompute the masks from
    /// identical reduced bits (no broadcast needed), migrate the
    /// sharded compressed state, and renegotiate the compressed-
    /// gradient bucket layout on a fresh comms epoch — the trajectory
    /// stays bitwise identical to a [`crate::SamoTrainer`] driven by
    /// the same schedule on replicated data.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.group
            .run_all(move |r| r.core.schedule = Some(schedule.clone()));
    }

    /// Runs one concurrent training step: every rank thread executes
    /// `f(rank, model, loss_scale)` (forward + scaled backward seed),
    /// backward with overlapped ring all-reduce, shard-step, and
    /// all-gather. Returns `Ok(true)` if applied, `Ok(false)` if
    /// skipped on overflow, and `Err` if any rank's collective failed
    /// (the group then needs [`Self::restore`]).
    pub fn step(
        &mut self,
        f: impl Fn(usize, &mut M, f32) -> Tensor + Send + Sync + 'static,
    ) -> Result<bool, String> {
        let applied = self.group.step(move |r| {
            let t0_us = telemetry::enabled().then(comms::trace::now_us);
            let core = &mut r.core;
            let dy = f(core.comm.rank(), &mut r.model, core.scaler.scale());
            core.backward_last(&mut r.model, &dy)?;
            Ok(core.end_step(&mut r.model, t0_us)?.0)
        })?;
        self.allreduce_bytes +=
            samo_ring_allreduce_bytes(self.group.nnz as u64, self.group.len() as u64);
        Ok(applied)
    }

    /// Serializes the group as one rank-count-independent v2
    /// checkpoint, byte-identical to [`crate::SamoTrainer::save`] in the
    /// same state.
    pub fn save(&self) -> bytes::Bytes {
        self.group.save()
    }

    /// Restores a checkpoint on every rank and re-synchronizes the
    /// group (fresh comms epoch + barrier). This is the recovery path
    /// after a failed step: heal the faulted links first, then restore.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.group.restore(checkpoint)
    }

    /// Per-rank transport statistics (wire bytes, modeled ring bytes,
    /// fault-dropped messages), in rank order.
    pub fn comm_stats(&mut self) -> Vec<CommStats> {
        self.group.run_all(|r| {
            let comm = &r.core.comm;
            CommStats {
                wire_bytes: comm.transport().bytes_sent(),
                model_allreduce_bytes: comm.model_allreduce_bytes(),
                msgs_dropped: comm.transport().msgs_dropped(),
            }
        })
    }

    /// Runs `f` on rank `rank`'s thread with exclusive access to its
    /// replica and sharded states, and returns the result — the
    /// inspection hook tests use to compare bits across runtimes.
    pub fn with_rank<R, F>(&mut self, rank: usize, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut M, &[SamoLayerState]) -> R + Send + 'static,
    {
        self.group
            .with_rank(rank, move |r| f(&mut r.model, &r.core.states))
    }
}
