//! What the two thread-per-rank runtimes ([`crate::threaded`] and
//! [`crate::pipeline`]) share: the sharded rank core every rank thread
//! steps with, the `mesh_metrics` aggregator, and the rank-thread host
//! that owns the threads and the parent-side mirror.
//!
//! A rank sits at `(stage, data)` of a `G_inter × G_data` grid. It holds
//! a compute model (one pipeline stage block, or a full replica: a
//! data-parallel rank is stage 0 of a one-stage grid) and a [`RankCore`]:
//! its ZeRO shard of the compressed state ([`SamoLayerState`]s with a
//! shard range), the data mesh it reduces gradients over, its stage mesh
//! if it has one, and the [`MaskSchedule`]. A runtime runs the forward
//! passes and every backward but the step's last; the core does the
//! rest, with the same fused kernels as [`crate::SamoTrainer`]:
//! [`RankCore::backward_last`] is the overlapped backward that
//! compresses each parameter bucket and starts its ring as soon as the
//! gradient is final (a plain backward on a schedule update step), and
//! [`RankCore::end_step`] completes the rings (or runs the remap), takes
//! the overflow verdict, runs the fused shard step + `all_gather_f16` +
//! expand, records the step and relays its duration to rank (0,0).

use crate::serialize::save_checkpoint;
use crate::state::{RemapScratch, SamoLayerState};
use crate::trainer::{
    build_layers, record_step_event, restore_layers, samo_ring_allreduce_bytes, Place, StepCounts,
};
use comms::{CommsError, Communicator, InProcTransport, Transport};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use telemetry::SpanGuard;
use tensor::f16::F16;
use tensor::Tensor;

/// Panics unless every replica holds bit-identical parameters: data
/// parallelism starts from one model.
pub(crate) fn assert_replicas_agree<M: Layer>(replicas: &[M]) {
    let first = replicas[0].params();
    for (r, m) in replicas.iter().enumerate().skip(1) {
        let params = m.params();
        assert_eq!(
            params.len(),
            first.len(),
            "replica {r} parameter count differs"
        );
        for (p, expect) in params.iter().zip(&first) {
            assert_eq!(
                p.value.as_slice(),
                expect.value.as_slice(),
                "replica {r} differs at init ({})",
                p.name
            );
        }
    }
}

/// Waits for every ring `started` this step (as `(ring id, layer)`)
/// and hands each mean to `install` with the layer it was started for.
pub(crate) fn install_ring_means<T: Transport>(
    comm: &mut Communicator<T>,
    started: &[(u64, usize)],
    mut install: impl FnMut(usize, &[F16]),
) -> Result<(), CommsError> {
    comm.ring_finish()?;
    for (id, mean) in comm.take_completed() {
        let (_, layer) = started
            .iter()
            .find(|(rid, _)| *rid == id)
            .expect("completed ring was started by this step");
        install(*layer, &mean);
    }
    Ok(())
}

/// Per-rank element counts of a `world`-way shard of `nnz` compressed
/// positions: the `counts` argument of the all-gathers.
fn shard_counts(nnz: usize, world: usize) -> Vec<usize> {
    let bounds = comms::segment_bounds(nnz, world);
    bounds.iter().map(|(lo, hi)| hi - lo).collect()
}

/// The names a runtime's step telemetry goes out under: the prefix of
/// its counters and gauges (`{prefix}.steps_taken`, …), the `kind` of its
/// JSONL step line, the group's name in straggler warnings, and its
/// phase spans (last backward through the rings or through the remap,
/// shard step).
pub(crate) struct StepNames {
    pub prefix: &'static str,
    pub kind: &'static str,
    pub group: &'static str,
    pub backward_allreduce: &'static str,
    pub remap: &'static str,
    pub shard_step: &'static str,
}

/// One rank's sharded SAMO state and the meshes its step talks on.
pub(crate) struct RankCore {
    pub states: Vec<SamoLayerState>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    pub counts: StepCounts,
    /// The data-parallel mesh; this rank's shard index is its rank.
    pub comm: Communicator<Box<dyn Transport>>,
    /// The pipeline mesh of this rank's data replica (rank = stage);
    /// `None` on a data-parallel rank.
    pub stage: Option<Communicator<InProcTransport>>,
    /// The dynamic-sparsity schedule, if any ([`Self::remap_step`]).
    pub schedule: Option<MaskSchedule>,
    names: &'static StepNames,
    /// Which of the model's tensors this rank holds, and its shard.
    place: Place,
    /// `(ring id, layer)` of every ring this step started.
    ring_order: Vec<(u64, usize)>,
    /// Whether this step is a schedule update step; set by
    /// [`Self::backward_last`], read by [`Self::end_step`].
    update: bool,
    /// Rank (0,0) with telemetry on: the span timing this step from
    /// its last backward through the gradient exchange.
    exchange_span: Option<SpanGuard>,
    /// Rank (0,0) only: the `mesh_metrics` aggregation.
    metrics: MeshMetrics,
    /// Set when a step fails; the rank refuses to step until restored.
    pub poisoned: bool,
}

impl RankCore {
    /// Prunes `model`'s parameters in place with `masks` (one per
    /// tensor), keeps this rank's shard of their compressed state, and
    /// writes the f16-rounded values back into `model`. The model's
    /// tensors are `off..` of a `total`-tensor model.
    pub fn new(
        model: &mut impl Layer,
        masks: &[Mask],
        opt: &Optimizer,
        (off, total): (usize, usize),
        names: &'static StepNames,
        comm: Communicator<Box<dyn Transport>>,
        stage: Option<Communicator<InProcTransport>>,
    ) -> RankCore {
        let (rank, world) = (comm.rank(), comm.world());
        let place = Place {
            off,
            total,
            rank,
            world,
        };
        RankCore {
            states: build_layers(model, masks.iter().cloned(), opt, place),
            opt: opt.clone(),
            scaler: LossScaler::default(),
            counts: StepCounts::default(),
            comm,
            stage,
            schedule: None,
            names,
            place,
            ring_order: Vec::new(),
            update: false,
            exchange_span: None,
            metrics: MeshMetrics::default(),
            poisoned: false,
        }
    }

    /// Parameters φ in this rank's tensors.
    pub fn numel(&self) -> usize {
        self.states.iter().map(SamoLayerState::numel).sum()
    }

    /// Unpruned parameters fφ in this rank's tensors.
    pub fn nnz(&self) -> usize {
        self.states.iter().map(SamoLayerState::nnz).sum()
    }

    /// Whether this is rank (0,0), which records the group's step
    /// telemetry and aggregates its `mesh_metrics`.
    fn is_origin(&self) -> bool {
        self.comm.rank() == 0 && self.stage.as_ref().is_none_or(|p| p.rank() == 0)
    }

    /// The step's last backward pass; returns the input gradient. On a
    /// schedule update step it is a plain backward, since the compressed
    /// bucket layout is about to be renegotiated and
    /// [`Self::remap_step`] reduces the dense gradient instead. On any
    /// other step the gradient all-reduce overlaps it: as each parameter
    /// group reports its gradient final (reverse execution order —
    /// identical on every rank, so ring ids line up), compress it and
    /// start its ring; pump in-flight rings between groups.
    pub fn backward_last(
        &mut self,
        model: &mut impl Layer,
        dy: &Tensor,
    ) -> Result<Tensor, CommsError> {
        let t = self.counts.index();
        let update = self.schedule.as_ref().is_some_and(|s| s.is_update_step(t));
        let name = if update {
            self.names.remap
        } else {
            self.names.backward_allreduce
        };
        self.update = update;
        self.exchange_span =
            (telemetry::enabled() && self.is_origin()).then(|| telemetry::span(name));
        if update {
            return Ok(model.backward(dy));
        }
        let RankCore {
            states,
            comm,
            ring_order,
            ..
        } = self;
        ring_order.clear();
        let mut err = None;
        let dx = model.backward_with_ready(dy, &mut |off, params| {
            if err.is_some() {
                return; // finish backward, but stop talking
            }
            for (i, p) in params.iter().enumerate() {
                let st = &mut states[off + i];
                // The verdict is taken on the reduced gradients.
                st.compress_grad_fused(p.grad.as_slice());
                match comm.ring_start(st.grad16.clone()) {
                    Ok(id) => ring_order.push((id, off + i)),
                    Err(e) => {
                        err = Some(e);
                        return;
                    }
                }
            }
            if let Err(e) = comm.ring_pump() {
                err = Some(e);
            }
        });
        err.map_or(Ok(dx), |e| {
            self.exchange_span = None; // a failed step ends its span here
            Err(e)
        })
    }

    /// Ends a step after [`Self::backward_last`]: installs each ring's
    /// mean into its layer's `∇θ16` (or runs [`Self::remap_step`]),
    /// takes the overflow verdict, and on a good step runs
    /// [`Self::shard_step`], otherwise drops `model`'s gradients.
    ///
    /// The verdict is this rank's reduced gradient bits, ANDed over the
    /// stage mesh by a one-element f16 flag all-gather when the rank has
    /// one: every stage of a replica sees the same flags, and replicas
    /// agree because their reduced gradients are bitwise identical, so
    /// every rank's scaler stays in lockstep with no further collective.
    ///
    /// With telemetry on, `t0_us` is the step's start on the trace clock:
    /// rank (0,0) records the step, and every rank relays its duration
    /// ([`Self::relay_step_metrics`]). Returns whether the step applied
    /// and, when timed, the step's duration in microseconds.
    pub fn end_step(
        &mut self,
        model: &mut impl Layer,
        t0_us: Option<f64>,
    ) -> Result<(bool, Option<f64>), CommsError> {
        let exchange = self.exchange_span.take();
        if !self.update {
            let states = &mut self.states;
            install_ring_means(&mut self.comm, &self.ring_order, |i, mean| {
                states[i].grad16.copy_from_slice(mean)
            })?;
        } else if self.remap_step(model)? && telemetry::enabled() && self.is_origin() {
            let name = format!("{}.remap_events", self.names.prefix);
            telemetry::global().counter(&name).inc();
        }
        let t_comm = exchange.map(SpanGuard::finish);
        let mut finite = !self.states.iter().any(SamoLayerState::grads_non_finite);
        if let Some(pipe) = &mut self.stage {
            let flag = F16::from_f32(if finite { 1.0 } else { 0.0 });
            let flags = pipe.all_gather_f16(&[flag], &vec![1; pipe.world()])?;
            finite = flags.iter().all(|f| f.to_f32() == 1.0);
        }
        let scale = self.scaler.scale();
        let record = t0_us.is_some() && self.is_origin();
        let applied = self.counts.verdict(&mut self.scaler, finite);
        let mut t_shard = None;
        if applied {
            let sp = record.then(|| telemetry::span(self.names.shard_step));
            self.shard_step(model, scale)?;
            t_shard = sp.map(SpanGuard::finish);
        } else {
            model.zero_grad();
        }
        if record {
            self.record_step(applied, scale, t_comm, t_shard);
        }
        let dur_us = t0_us.map(|t0| (comms::trace::now_us() - t0).max(0.0));
        if let Some(dur_us) = dur_us {
            self.relay_step_metrics(dur_us);
        }
        Ok((applied, dur_us))
    }

    /// Steps this rank's optimizer shard of every tensor with the fused
    /// kernel, all-gathers the updated f16 shards over the mesh, and
    /// expands them into `θ16` and `model`'s parameters, zeroing its
    /// gradients.
    pub fn shard_step(&mut self, model: &mut impl Layer, scale: f32) -> Result<(), CommsError> {
        let (world, inv) = (self.comm.world(), 1.0 / scale);
        for (st, p) in self.states.iter_mut().zip(model.params_mut()) {
            let dense = p.value.as_mut_slice();
            st.optimizer_step_fused(&self.opt, inv, dense);
            let counts = shard_counts(st.nnz(), world);
            let gathered = self.comm.all_gather_f16(&st.shard_theta16(), &counts)?;
            st.install_gathered(&gathered, dense);
            p.zero_grad();
        }
        Ok(())
    }

    /// The dynamic-sparsity update step, run in place of the overlapped
    /// compressed rings when the schedule fires; returns whether a mask
    /// moved.
    ///
    /// Every rank reduces the f16-narrowed *dense* gradient — bitwise
    /// the values a compressed ring would agree on, and, widened, the
    /// canonical grow score ([`crate::SamoTrainer`] ranks regrowth
    /// candidates from exactly the same bits) — then computes the new
    /// mask locally (inputs are identical on every rank, so no mask
    /// broadcast is needed). A layer whose mask changes is reassembled
    /// from every rank's shard (one [`Communicator::all_gather_f32`] per
    /// sharded array), remapped with
    /// [`SamoLayerState::remap_compressed_state`], and re-sharded: shard
    /// bounds depend on `nnz`, so surviving values migrate between ranks
    /// here. Finally the comms epoch is bumped in lockstep: the
    /// compressed-gradient bucket layout has been renegotiated and any
    /// stale in-flight bucket from the old layout is dropped by every
    /// future receive.
    pub fn remap_step(&mut self, model: &mut impl Layer) -> Result<bool, CommsError> {
        let t = self.counts.index();
        let RankCore {
            states,
            comm,
            opt,
            schedule,
            ..
        } = self;
        let sched = schedule.as_ref().expect("an update step has a schedule");
        let (rank, world) = (comm.rank(), comm.world());
        let mut moved = false;
        let params = model.params_mut();
        assert_eq!(params.len(), states.len());
        for (st, p) in states.iter_mut().zip(params) {
            let mut dense16: Vec<F16> = p
                .grad
                .as_slice()
                .iter()
                .map(|&g| F16::from_f32(g))
                .collect();
            comm.allreduce_mean_f16(&mut dense16)?;
            let score: Vec<f32> = dense16.iter().map(|g| g.to_f32()).collect();
            let new_mask = sched.next_mask(t, p.value.as_slice(), &score, st.mask());
            if &new_mask != st.mask() {
                let counts = shard_counts(st.nnz(), world);
                let arrays = st.sharded_arrays().into_iter();
                let full = arrays.map(|a| comm.all_gather_f32(a, &counts));
                let full = full.collect::<Result<_, _>>()?;
                let mut full = st.clone().with_arrays(0, full);
                let mut scratch = RemapScratch::for_layer(&mut full, opt);
                full.remap_compressed_state(new_mask, &mut scratch);
                *st = full.shard(rank, world);
                st.write_dense_f32_params_into(p.value.as_mut_slice());
                moved = true;
            }
            // The dense reduction above already carries the agreed
            // gradient: install its compressed view under the (possibly
            // new) mask directly, since the per-layer rings were skipped.
            let ind = st.mask().indices().clone();
            for (g, &ix) in st.grad16.iter_mut().zip(ind.iter()) {
                *g = dense16[ix as usize];
            }
        }
        if moved {
            comm.bump_epoch();
        }
        Ok(moved)
    }

    /// Cold path: rank (0,0)'s step counters, gauges and JSONL line.
    fn record_step(
        &self,
        applied: bool,
        scale_used: f32,
        t_comm: Option<f64>,
        t_shard: Option<f64>,
    ) {
        let nnz = self.nnz() as u64;
        let step_bytes = samo_ring_allreduce_bytes(nnz, self.comm.world() as u64);
        let prefix = self.names.prefix;
        telemetry::global()
            .counter(&format!("{prefix}.allreduce_bytes"))
            .add(step_bytes);
        let phases = [("backward_allreduce", t_comm), ("shard_step", t_shard)];
        record_step_event(
            prefix,
            self.scaler.scale(),
            &telemetry::StepEvent {
                kind: self.names.kind,
                step: self.counts.index() - 1,
                applied,
                loss_scale: scale_used,
                steps_taken: self.counts.taken,
                steps_skipped: self.counts.skipped,
                numel: self.numel() as u64,
                nnz,
                model_state_bytes: self.states.iter().map(|s| s.measured_bytes(true)).sum(),
                formula_state_bytes: None,
                allreduce_bytes: step_bytes,
                phases: phases
                    .into_iter()
                    .filter_map(|(n, t)| Some((n, t?)))
                    .collect(),
            },
        );
    }

    /// Mesh-native metrics relay: every rank ships its step duration
    /// over the transport to rank (0,0), which folds them into one
    /// `mesh_metrics` line. Each duration travels as a 16-byte record,
    /// `stage: u32le | data_idx: u32le | dur_us: f64le`, in two hops:
    /// stages > 0 send theirs to stage 0 over the stage mesh, and data
    /// ranks > 0 relay their stage batch to data rank 0 over the data
    /// mesh (a data-parallel rank has no stage hop). Delivery is best
    /// effort ([`Communicator::send_telemetry`] never poisons): a lost
    /// snapshot degrades the report, never the step.
    fn relay_step_metrics(&mut self, dur_us: f64) {
        let step = self.counts.index().saturating_sub(1) as u32;
        let data_idx = self.comm.rank();
        let (stage, g) = self
            .stage
            .as_ref()
            .map_or((0, 1), |p| (p.rank(), p.world()));
        let mut batch = [
            (stage as u32).to_le_bytes(),
            (data_idx as u32).to_le_bytes(),
        ]
        .concat();
        batch.extend_from_slice(&dur_us.to_le_bytes());
        if let Some(pipe) = &mut self.stage {
            if stage > 0 {
                pipe.send_telemetry(0, stage as u64, step, batch);
                return;
            }
            for s in 1..g {
                if let Some(b) = pipe.recv_telemetry(s, s as u64, step, pipe.timeout()) {
                    batch.extend_from_slice(&b);
                }
            }
        }
        let data = &mut self.comm;
        if data_idx > 0 {
            data.send_telemetry(0, data_idx as u64, step, batch);
            return;
        }
        for d in 1..data.world() {
            if let Some(b) = data.recv_telemetry(d, d as u64, step, data.timeout()) {
                batch.extend_from_slice(&b);
            }
        }
        let word = |c: &[u8], at: usize| {
            u32::from_le_bytes(c[at..at + 4].try_into().expect("a 4-byte field"))
        };
        let ranks: Vec<_> = batch
            .chunks_exact(16)
            .map(|c| {
                let dur = f64::from_le_bytes(c[8..].try_into().expect("an 8-byte field"));
                (word(c, 0) as usize, word(c, 4) as usize, dur)
            })
            .collect();
        let grid = (g, data.world());
        self.metrics.emit(self.names.group, grid, step, &ranks);
    }

    /// Re-joins the group after a restore: a fresh epoch on every mesh
    /// the rank talks on (discarding stale in-flight traffic), then a
    /// barrier on each. Every rank barriers stage-then-data, and the
    /// meshes are disjoint, so the order cannot deadlock.
    pub fn rejoin(&mut self) -> Result<(), String> {
        if let Some(pipe) = &mut self.stage {
            pipe.bump_epoch();
        }
        self.comm.bump_epoch();
        if let Some(pipe) = &mut self.stage {
            pipe.barrier()
                .map_err(|e| format!("post-restore pipeline barrier failed: {e}"))?;
        }
        self.comm
            .barrier()
            .map_err(|e| format!("post-restore data barrier failed: {e}"))?;
        if telemetry::enabled() && self.is_origin() {
            let name = format!("{}.recoveries", self.names.prefix);
            telemetry::global().counter(&name).inc();
        }
        Ok(())
    }
}

/// A rank whose step duration exceeds this multiple of the step median
/// is reported as a straggler by the `mesh_metrics` aggregation.
pub const STRAGGLER_FACTOR: f64 = 1.5;

/// The aggregating rank's fold of the step durations every rank ships
/// over the mesh: rolling per-rank means, straggler warnings (above
/// [`STRAGGLER_FACTOR`] × the step median), and one `mesh_metrics` line
/// per step in the metrics jsonl stream.
#[derive(Default)]
pub(crate) struct MeshMetrics {
    /// `(sum_us, samples)` per rank index.
    sums: Vec<(f64, u64)>,
}

impl MeshMetrics {
    /// Folds one step's `(stage, data_idx, dur_us)` durations of a
    /// `stages × datas` grid — one per snapshot that arrived, since
    /// delivery is best-effort — and emits the aggregated line. Entries
    /// outside the grid are malformed and dropped. `group` names the
    /// runtime in straggler warnings.
    pub fn emit(
        &mut self,
        group: &str,
        (stages, datas): (usize, usize),
        step: u32,
        ranks: &[(usize, usize, f64)],
    ) {
        use telemetry::json::Json;
        if self.sums.len() != stages * datas {
            self.sums = vec![(0.0, 0); stages * datas];
        }
        let ranks: Vec<_> = ranks
            .iter()
            .filter(|r| r.0 < stages && r.1 < datas)
            .collect();
        let mut sorted: Vec<f64> = ranks.iter().map(|r| r.2).collect();
        if sorted.is_empty() {
            return;
        }
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut per_rank = Vec::with_capacity(ranks.len());
        let mut stragglers = Vec::new();
        for &&(s, d, dur) in &ranks {
            let ids =
                || [("stage", s), ("data", d)].map(|(k, v)| (k.to_string(), Json::UInt(v as u64)));
            let cell = &mut self.sums[d * stages + s];
            cell.0 += dur;
            cell.1 += 1;
            let mean = cell.0 / cell.1 as f64;
            per_rank.push(Json::Obj(
                ids()
                    .into_iter()
                    .chain([
                        ("dur_us".into(), Json::Num(dur)),
                        ("mean_us".into(), Json::Num(mean)),
                    ])
                    .collect(),
            ));
            if ranks.len() > 1 && dur > STRAGGLER_FACTOR * median {
                telemetry::log_warn!(
                    "{group} straggler: stage {s} data {d} step {step} took {dur:.0}us ({:.2}x step median)",
                    dur / median
                );
                stragglers.push(Json::Obj(
                    ids()
                        .into_iter()
                        .chain([("ratio".into(), Json::Num(dur / median))])
                        .collect(),
                ));
            }
        }
        telemetry::jsonl::emit_line(&Json::Obj(vec![
            ("kind".into(), Json::from("mesh_metrics")),
            ("step".into(), Json::UInt(u64::from(step))),
            ("ranks".into(), Json::UInt(ranks.len() as u64)),
            ("median_us".into(), Json::Num(median)),
            ("max_us".into(), Json::Num(sorted[sorted.len() - 1])),
            ("per_rank".into(), Json::Arr(per_rank)),
            ("stragglers".into(), Json::Arr(stragglers)),
        ]));
    }
}

/// A rank thread's state, as the [`RankGroup`] host drives it.
pub(crate) trait ShardedRank: Send + 'static {
    /// The rank's compute model: a full replica or one stage block.
    type Model: Layer;

    fn parts(&mut self) -> (&mut Self::Model, &mut RankCore);
}

type Job<R> = Box<dyn FnOnce(&mut R) + Send>;

/// The rank-thread host: one OS thread per rank, each owning its rank
/// and running the jobs the parent sends, in order; plus the parent's
/// mirror of the rank scalers and counters, fed the same verdicts so
/// the parent answers `loss_scale()` and friends without a round trip.
///
/// Ranks are numbered `data_idx · stages + stage`: a data-parallel
/// group is the `stages = 1` case.
pub(crate) struct RankGroup<R> {
    labels: Vec<String>,
    jobs: Vec<Sender<Job<R>>>,
    handles: Vec<JoinHandle<()>>,
    stages: usize,
    pub scaler: LossScaler,
    pub counts: StepCounts,
    /// Parameters φ and unpruned fφ of one whole replica.
    pub numel: usize,
    pub nnz: usize,
}

impl<R: ShardedRank> RankGroup<R> {
    /// Spawns one thread per `(thread name, label, rank)`, in rank
    /// order. Labels prefix the errors a rank reports.
    pub fn spawn(mut ranks: Vec<(String, String, R)>, stages: usize) -> RankGroup<R> {
        let (mut numel, mut nnz) = (0, 0);
        for r in &mut ranks[..stages] {
            let core = r.2.parts().1;
            numel += core.numel();
            nnz += core.nnz();
        }
        let mut labels = Vec::with_capacity(ranks.len());
        let mut jobs = Vec::with_capacity(ranks.len());
        let mut handles = Vec::with_capacity(ranks.len());
        for (name, label, mut rank) in ranks {
            let (tx, rx) = channel::<Job<R>>();
            let thread = std::thread::Builder::new().name(name).spawn(move || {
                for job in rx {
                    job(&mut rank);
                }
            });
            handles.push(thread.expect("spawn rank thread"));
            labels.push(label);
            jobs.push(tx);
        }
        RankGroup {
            labels,
            jobs,
            handles,
            stages,
            scaler: LossScaler::default(),
            counts: StepCounts::default(),
            numel,
            nnz,
        }
    }

    /// Number of rank threads.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    fn send<T: Send + 'static>(
        &self,
        i: usize,
        f: impl FnOnce(&mut R) -> T + Send + 'static,
    ) -> Receiver<T> {
        let (tx, rx) = channel();
        // A dead rank thread drops the job, and the reply sender with
        // it, so the receiver reports the death instead of blocking.
        let _ = self.jobs[i].send(Box::new(move |r: &mut R| {
            let _ = tx.send(f(r));
        }));
        rx
    }

    /// Runs `f` on every rank thread concurrently: every rank's result
    /// in rank order, or every failure (a job's `Err` or a dead thread)
    /// joined and labelled with its rank.
    fn run<T: Send + 'static, E: std::fmt::Display + Send + 'static>(
        &self,
        f: impl Fn(&mut R) -> Result<T, E> + Send + Sync + 'static,
    ) -> Result<Vec<T>, String> {
        let f = Arc::new(f);
        let replies: Vec<Receiver<Result<T, E>>> = (0..self.len())
            .map(|i| {
                let f = Arc::clone(&f);
                self.send(i, move |r| f(r))
            })
            .collect();
        let mut oks = Vec::with_capacity(replies.len());
        let mut errors = Vec::new();
        for (rx, label) in replies.into_iter().zip(&self.labels) {
            match rx.recv() {
                Ok(Ok(v)) => oks.push(v),
                Ok(Err(e)) => errors.push(format!("{label}: {e}")),
                Err(_) => errors.push(format!("{label}: thread died")),
            }
        }
        if errors.is_empty() {
            Ok(oks)
        } else {
            Err(errors.join("; "))
        }
    }

    /// [`Self::run`] for a job that cannot fail while its thread lives.
    pub fn run_all<T: Send + 'static>(
        &self,
        f: impl Fn(&mut R) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        self.run(move |r| Ok::<T, std::convert::Infallible>(f(r)))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `f` on rank `i`'s thread with exclusive access to its state.
    pub fn with_rank<T: Send + 'static>(
        &self,
        i: usize,
        f: impl FnOnce(&mut R) -> T + Send + 'static,
    ) -> T {
        self.send(i, f)
            .recv()
            .unwrap_or_else(|_| panic!("{}: thread died", self.labels[i]))
    }

    /// Replaces the loss scaler on every rank and the mirror.
    pub fn set_scaler(&mut self, scaler: LossScaler) {
        self.scaler = scaler.clone();
        self.run_all(move |r| r.parts().1.scaler = scaler.clone());
    }

    /// Runs one step on every rank thread; `f` is a rank's step and
    /// returns whether it applied. A poisoned rank refuses to step, and
    /// a failing one stays poisoned until [`Self::restore`]. `Err` joins
    /// every rank's failure.
    pub fn step(
        &mut self,
        f: impl Fn(&mut R) -> Result<bool, CommsError> + Send + Sync + 'static,
    ) -> Result<bool, String> {
        let outcomes = self.run(move |r| {
            if r.parts().1.poisoned {
                return Err(CommsError::Poisoned);
            }
            let res = f(r);
            let core = r.parts().1;
            core.poisoned |= res.is_err();
            res.map(|applied| (applied, core.nnz()))
        })?;
        let applied = outcomes[0].0;
        debug_assert!(
            (0..outcomes.len())
                .all(|i| outcomes[i].0 == applied && outcomes[i].1 == outcomes[i % self.stages].1),
            "ranks must agree on the step verdict and masks"
        );
        // A step applies exactly when its reduced gradients are finite,
        // so the mirror replays the ranks' verdict.
        self.counts.verdict(&mut self.scaler, applied);
        // A dynamic-sparsity remap may have changed the masks.
        self.nnz = outcomes[..self.stages].iter().map(|o| o.1).sum();
        Ok(applied)
    }

    /// Serializes the group as one topology-independent v2 checkpoint:
    /// shards are gathered across data ranks and stage slices
    /// concatenated in model order, so the bytes equal what a
    /// single-process [`crate::SamoTrainer`] in the same state saves.
    pub fn save(&self) -> bytes::Bytes {
        let snaps = self.run_all(|r| r.parts().1.states.clone());
        let g = self.stages;
        let layers: Vec<_> = (0..g)
            .flat_map(|s| (0..snaps[s].len()).map(move |li| (s, li)))
            .map(|(s, li)| {
                let shards: Vec<&SamoLayerState> =
                    snaps.iter().skip(s).step_by(g).map(|st| &st[li]).collect();
                SamoLayerState::concat(&shards)
            })
            .collect();
        save_checkpoint(&layers, &self.counts.meta(&self.scaler))
    }

    /// Restores a checkpoint on every rank and re-synchronizes the
    /// group (fresh epochs + barriers). The recovery path after a failed
    /// step: heal the faulted links first.
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        let ck = Arc::new(checkpoint.to_vec());
        let restored = self.run(move |r| {
            let (model, core) = r.parts();
            let (opt, place) = (&core.opt, core.place);
            let states = &mut core.states;
            let (counts, scaler) = (&mut core.counts, &mut core.scaler);
            let meta = restore_layers(&ck, opt, place, states, model, counts, scaler)?;
            // Every rank restores together, so epochs advance in
            // lockstep; a failed barrier leaves the rank poisoned.
            let res = core.rejoin();
            core.poisoned = res.is_err();
            res.map(|()| (meta, core.nnz()))
        })?;
        self.counts.restore(&mut self.scaler, restored[0].0);
        self.nnz = restored[..self.stages].iter().map(|r| r.1).sum();
        Ok(())
    }
}

impl<R> Drop for RankGroup<R> {
    fn drop(&mut self) {
        // Closing the job channels ends every rank loop.
        self.jobs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
