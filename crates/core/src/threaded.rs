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
//! (`crate::rank`).
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

use crate::rank::{
    assert_replicas_agree, MeshMetrics, RankCore, RankDuration, RankGroup, ShardedRank,
};
use crate::state::SamoLayerState;
use crate::trainer::{record_step_event, samo_ring_allreduce_bytes};
use comms::{CommsError, Communicator, FaultController, InProcTransport, Transport};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::sync::Arc;
use std::time::{Duration, Instant};
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

/// Everything one rank thread owns.
struct Rank<M> {
    model: M,
    core: RankCore,
    schedule: Option<MaskSchedule>,
    /// Rank 0 only: the `mesh_metrics` aggregation.
    metrics: MeshMetrics,
}

impl<M: Layer + Send + 'static> ShardedRank for Rank<M> {
    type Model = M;

    fn parts(&mut self) -> (&mut M, &mut RankCore) {
        (&mut self.model, &mut self.core)
    }

    fn rejoin(&mut self) -> Result<(), String> {
        let comm = &mut self.core.comm;
        comm.bump_epoch();
        comm.barrier()
            .map_err(|e| format!("post-restore barrier failed: {e}"))?;
        if telemetry::enabled() && comm.rank() == 0 {
            telemetry::global()
                .counter("samo.dp_threaded.recoveries")
                .inc();
        }
        Ok(())
    }
}

impl<M: Layer> Rank<M> {
    fn step(&mut self, f: &impl Fn(usize, &mut M, f32) -> Tensor) -> Result<bool, CommsError> {
        // Telemetry once per group, from rank 0's thread. The metrics
        // relay below runs on *every* rank when telemetry is on.
        let rank = self.core.comm.rank();
        let t_step0 = telemetry::enabled().then(Instant::now);
        let tel = telemetry::enabled() && rank == 0;
        let scale_used = self.core.scaler.scale();
        let dy = f(rank, &mut self.model, scale_used);

        let update = self
            .schedule
            .as_ref()
            .is_some_and(|s| s.is_update_step(self.core.counts.index()));
        let t_comm = if update {
            // Dynamic-sparsity update step: the compressed bucket layout
            // is about to be renegotiated, so skip the overlapped
            // compressed rings — run a plain backward, reduce the
            // *dense* f16 gradient, remap, and install the reduced
            // compressed gradient for the (possibly new) mask.
            let sp = tel.then(|| telemetry::span("samo.dp_threaded.remap"));
            let _ = self.model.backward(&dy);
            let sched = self
                .schedule
                .as_ref()
                .expect("an update step has a schedule");
            if self.core.remap_step(&mut self.model, sched)? && tel {
                telemetry::global()
                    .counter("samo.dp_threaded.remap_events")
                    .inc();
            }
            sp.map(telemetry::SpanGuard::finish)
        } else {
            let sp = tel.then(|| telemetry::span("samo.dp_threaded.backward_allreduce"));
            self.core.backward_overlapped(&mut self.model, &dy)?;
            self.core.finish_rings()?;
            sp.map(telemetry::SpanGuard::finish)
        };

        let finite = !self
            .core
            .states
            .iter()
            .any(SamoLayerState::grads_non_finite);
        let span = tel.then_some("samo.dp_threaded.shard_step");
        let (applied, t_shard) = self
            .core
            .conclude(&mut self.model, finite, scale_used, span)?;
        if tel {
            self.record_step(applied, scale_used, t_comm, t_shard);
        }
        if let Some(t0) = t_step0 {
            self.relay_step_metrics(t0);
        }
        Ok(applied)
    }

    /// Mesh-native metrics relay: every rank ships its step wall time
    /// over the transport to rank 0, which folds them into one
    /// `mesh_metrics` line. Delivery is best-effort — a lost snapshot
    /// degrades the report, never the step.
    fn relay_step_metrics(&mut self, t0: Instant) {
        let dur_us = t0.elapsed().as_secs_f64() * 1e6;
        let step = self.core.counts.index().saturating_sub(1) as u32;
        let comm = &mut self.core.comm;
        let rank = comm.rank();
        if rank != 0 {
            comm.send_telemetry(0, rank as u64, step, dur_us.to_le_bytes().to_vec());
            return;
        }
        let world = comm.world();
        let wait = comm.timeout();
        let mut durs: Vec<RankDuration> = vec![(0, vec![("rank", 0)], dur_us)];
        for r in 1..world {
            if let Some(b) = comm.recv_telemetry(r, r as u64, step, wait) {
                if let Ok(bytes) = <[u8; 8]>::try_from(&b[..]) {
                    durs.push((r, vec![("rank", r as u64)], f64::from_le_bytes(bytes)));
                }
            }
        }
        self.metrics.emit("data-parallel", world, step, &durs);
    }

    fn stats(&self) -> CommStats {
        let t = self.core.comm.transport();
        CommStats {
            wire_bytes: t.bytes_sent(),
            model_allreduce_bytes: self.core.comm.model_allreduce_bytes(),
            msgs_dropped: t.msgs_dropped(),
        }
    }

    /// Cold path: rank 0's metric/JSONL bookkeeping for one step.
    fn record_step(
        &self,
        applied: bool,
        scale_used: f32,
        t_comm: Option<f64>,
        t_shard: Option<f64>,
    ) {
        let core = &self.core;
        let nnz = core.nnz() as u64;
        let step_bytes = samo_ring_allreduce_bytes(nnz, core.comm.world() as u64);
        telemetry::global()
            .counter("samo.dp_threaded.allreduce_bytes")
            .add(step_bytes);
        let phases = [("backward_allreduce", t_comm), ("shard_step", t_shard)];
        record_step_event(
            "samo.dp_threaded",
            core.scaler.scale(),
            &telemetry::StepEvent {
                kind: "samo_dp_threaded",
                step: core.counts.index() - 1,
                applied,
                loss_scale: scale_used,
                steps_taken: core.counts.taken,
                steps_skipped: core.counts.skipped,
                numel: core.numel() as u64,
                nnz,
                model_state_bytes: core.states.iter().map(|s| s.measured_bytes(true)).sum(),
                formula_state_bytes: None,
                allreduce_bytes: step_bytes,
                phases: phases
                    .into_iter()
                    .filter_map(|(n, t)| Some((n, t?)))
                    .collect(),
            },
        );
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
                let core = RankCore::new(&mut model, &masks, &opt, comm, 0, masks.len());
                let rk = Rank {
                    model,
                    core,
                    schedule: None,
                    metrics: MeshMetrics::default(),
                };
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
            .run_all(move |r| r.schedule = Some(schedule.clone()));
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
        let applied = self.group.step(move |r| r.step(&f))?;
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
        self.group.run_all(|r| r.stats())
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
