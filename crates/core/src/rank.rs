//! What the two thread-per-rank runtimes ([`crate::threaded`] and
//! [`crate::pipeline`]) share: the sharded rank core every rank thread
//! steps with, the `mesh_metrics` aggregator, and the rank-thread host
//! that owns the threads and the parent-side mirror.
//!
//! A rank holds a compute model (a full replica or one pipeline stage
//! block) and a [`RankCore`]: its ZeRO shard of the compressed state
//! ([`SamoLayerState`]s with a shard range) plus the data-parallel mesh
//! it reduces gradients over. It steps with the same fused kernels as
//! [`crate::SamoTrainer`]: overlapped backward that compresses each
//! parameter bucket and starts its ring as soon as the gradient is final
//! ([`RankCore::backward_overlapped`]), ring completion
//! ([`RankCore::finish_rings`]), then the scaler verdict and fused shard
//! step + `all_gather_f16` + expand ([`RankCore::conclude`]).

use crate::serialize::{save_checkpoint, TrainerMeta};
use crate::state::{RemapScratch, SamoLayerState};
use crate::trainer::StepCounts;
use comms::{CommsError, Communicator, Transport};
use nn::layer::Layer;
use nn::mixed::{LossScaler, Optimizer};
use prune::{Mask, MaskSchedule};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
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

/// One rank's sharded SAMO state and the data-parallel mesh its shards
/// are reduced and gathered over.
pub(crate) struct RankCore {
    pub states: Vec<SamoLayerState>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    pub counts: StepCounts,
    /// The data-parallel mesh; this rank's shard index is its rank.
    pub comm: Communicator<Box<dyn Transport>>,
    /// Where this rank's tensors sit in the whole model: its first
    /// tensor's index, and the model's tensor count.
    param_off: usize,
    total_params: usize,
    /// `(ring id, layer)` of every ring this step started.
    ring_order: Vec<(u64, usize)>,
    /// Set when a step fails; the rank refuses to step until restored.
    pub poisoned: bool,
}

impl RankCore {
    /// Prunes `model`'s parameters in place with `masks` (one per
    /// tensor), keeps this rank's shard of their compressed state, and
    /// writes the f16-rounded values back into `model`. The model's
    /// tensors are `param_off..` of a `total_params`-tensor model.
    pub fn new(
        model: &mut impl Layer,
        masks: &[Mask],
        opt: &Optimizer,
        comm: Communicator<Box<dyn Transport>>,
        param_off: usize,
        total_params: usize,
    ) -> RankCore {
        let (rank, world) = (comm.rank(), comm.world());
        let params = model.params_mut();
        assert_eq!(params.len(), masks.len(), "one mask per parameter");
        let states = params
            .into_iter()
            .zip(masks)
            .map(|(p, mask)| {
                assert_eq!(
                    p.numel(),
                    mask.numel(),
                    "mask shape mismatch for {}",
                    p.name
                );
                let st = SamoLayerState::from_params(p.value.as_slice(), mask.clone(), opt)
                    .shard(rank, world);
                st.write_dense_f32_params_into(p.value.as_mut_slice());
                st
            })
            .collect();
        RankCore {
            states,
            opt: opt.clone(),
            scaler: LossScaler::default(),
            counts: StepCounts::default(),
            comm,
            param_off,
            total_params,
            ring_order: Vec::new(),
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

    /// Backward with the gradient all-reduce overlapped: as each
    /// parameter group reports its gradient final (reverse execution
    /// order — identical on every rank, so ring ids line up), compress
    /// it and start its ring; pump in-flight rings between groups.
    /// Returns the input gradient.
    pub fn backward_overlapped(
        &mut self,
        model: &mut impl Layer,
        dy: &Tensor,
    ) -> Result<Tensor, CommsError> {
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
        err.map_or(Ok(dx), Err)
    }

    /// Waits for the rings [`Self::backward_overlapped`] started and
    /// installs each mean into its layer's `∇θ16`.
    pub fn finish_rings(&mut self) -> Result<(), CommsError> {
        let states = &mut self.states;
        install_ring_means(&mut self.comm, &self.ring_order, |i, mean| {
            states[i].grad16.copy_from_slice(mean)
        })
    }

    /// Ends a step on the reduced gradients: feeds the overflow verdict
    /// to the scaler and counters, then on a good step runs
    /// [`Self::shard_step`] (timed under `span`, if given) and otherwise
    /// drops `model`'s gradients. Returns whether the step applied and
    /// the shard step's seconds.
    pub fn conclude(
        &mut self,
        model: &mut impl Layer,
        finite: bool,
        scale: f32,
        span: Option<&'static str>,
    ) -> Result<(bool, Option<f64>), CommsError> {
        if !self.counts.verdict(&mut self.scaler, finite) {
            model.zero_grad();
            return Ok((false, None));
        }
        let sp = span.map(telemetry::span);
        self.shard_step(model, scale)?;
        Ok((true, sp.map(telemetry::SpanGuard::finish)))
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
    /// compressed rings when `sched` fires; returns whether a mask moved.
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
    pub fn remap_step(
        &mut self,
        model: &mut impl Layer,
        sched: &MaskSchedule,
    ) -> Result<bool, CommsError> {
        let t = self.counts.index();
        let RankCore {
            states, comm, opt, ..
        } = self;
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

    /// Reloads this rank's shard of a full checkpoint into its states
    /// and `model`, and the scaler and counters from its meta, which it
    /// returns. Purely local: rejoining the mesh is the caller's part.
    pub fn restore(
        &mut self,
        model: &mut impl Layer,
        checkpoint: &[u8],
    ) -> Result<Option<TrainerMeta>, String> {
        let masks = self.states.iter().map(SamoLayerState::mask);
        let r = crate::serialize::load_into(
            checkpoint,
            &self.opt,
            self.total_params,
            self.param_off,
            masks,
            model,
        )?;
        let (rank, world) = (self.comm.rank(), self.comm.world());
        for ((st, layer), p) in self.states.iter_mut().zip(r.layers).zip(r.params) {
            *st = layer.shard(rank, world);
            st.write_dense_f32_params_into(p.value.as_mut_slice());
            p.zero_grad();
        }
        self.counts.restore(&mut self.scaler, r.meta);
        Ok(r.meta)
    }
}

/// A rank whose step duration exceeds this multiple of the step median
/// is reported as a straggler by the `mesh_metrics` aggregation.
pub const STRAGGLER_FACTOR: f64 = 1.5;

/// One rank's step duration as it reaches the aggregating rank: its
/// flat index, its labelled coordinates in the group, and microseconds.
pub(crate) type RankDuration = (usize, Vec<(&'static str, u64)>, f64);

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
    /// Folds one step's durations — one per snapshot that arrived, since
    /// delivery is best-effort — and emits the aggregated line. Entries
    /// indexed outside `world` are malformed and dropped. `runtime`
    /// names the group in straggler warnings.
    pub fn emit(&mut self, runtime: &str, world: usize, step: u32, ranks: &[RankDuration]) {
        use telemetry::json::Json;
        if self.sums.len() != world {
            self.sums = vec![(0.0, 0); world];
        }
        let ranks: Vec<&RankDuration> = ranks.iter().filter(|r| r.0 < world).collect();
        let mut sorted: Vec<f64> = ranks.iter().map(|r| r.2).collect();
        if sorted.is_empty() {
            return;
        }
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let mut per_rank = Vec::with_capacity(ranks.len());
        let mut stragglers = Vec::new();
        for &&(idx, ref coords, dur) in &ranks {
            let ids = || coords.iter().map(|&(k, v)| (k.to_string(), Json::UInt(v)));
            let cell = &mut self.sums[idx];
            cell.0 += dur;
            cell.1 += 1;
            let mean = cell.0 / cell.1 as f64;
            per_rank.push(Json::Obj(
                ids()
                    .chain([
                        ("dur_us".into(), Json::Num(dur)),
                        ("mean_us".into(), Json::Num(mean)),
                    ])
                    .collect(),
            ));
            if ranks.len() > 1 && dur > STRAGGLER_FACTOR * median {
                let who: Vec<String> = coords.iter().map(|(k, v)| format!("{k} {v}")).collect();
                telemetry::log_warn!(
                    "{runtime} straggler: {} step {step} took {dur:.0}us ({:.2}x step median)",
                    who.join(" "),
                    dur / median
                );
                stragglers.push(Json::Obj(
                    ids()
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

    /// Re-joins the group after a restore: a fresh epoch on every mesh
    /// the rank talks on (discarding stale in-flight traffic), then a
    /// barrier on each.
    fn rejoin(&mut self) -> Result<(), String>;
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
            let meta = core.restore(model, &ck)?;
            let nnz = core.nnz();
            // Every rank restores together, so epochs advance in
            // lockstep; a failed barrier leaves the rank poisoned.
            let res = r.rejoin();
            r.parts().1.poisoned = res.is_err();
            res.map(|()| (meta, nnz))
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
