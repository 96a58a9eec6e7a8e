//! End-to-end training integration: SAMO-compressed training and the
//! dense masked baseline it must be numerically equivalent to, plus the
//! byte model of the compressed data-parallel gradient all-reduce (paper
//! Sec. IV-A).
//!
//! [`SamoTrainer`] holds the one unsharded SAMO step: remap → compress →
//! verdict → scaler → optimizer. A data-parallel runtime reuses it and
//! supplies only a `GradExchange`, the way its replicas agree on
//! gradients (see `crate::dist`).

use crate::serialize::TrainerMeta;
use crate::state::{RemapScratch, SamoLayerState};
use nn::layer::Layer;
use nn::mixed::{DenseMixedState, LossScaler, LossScalerState, Optimizer};
use prune::{Mask, MaskSchedule};
use tensor::f16::F16;

/// Step counters driven by the loss scaler's overflow verdicts. Together
/// with the scaler they are the trainer-level state a v2 checkpoint
/// carries ([`TrainerMeta`]); every trainer, rank and parent-side mirror
/// keeps them in this one type.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StepCounts {
    pub taken: u64,
    pub skipped: u64,
}

impl StepCounts {
    /// Feeds one overflow verdict to `scaler` and counts the step.
    /// Returns whether the step applies.
    pub fn verdict(&mut self, scaler: &mut LossScaler, finite: bool) -> bool {
        let proceed = scaler.check_and_update(finite);
        if proceed {
            self.taken += 1;
        } else {
            self.skipped += 1;
        }
        proceed
    }

    /// Steps seen so far, applied or skipped.
    pub fn index(&self) -> u64 {
        self.taken + self.skipped
    }

    /// The checkpoint form of these counters and `scaler`.
    pub fn meta(&self, scaler: &LossScaler) -> TrainerMeta {
        let snap = scaler.snapshot();
        TrainerMeta {
            loss_scale: snap.scale,
            good_steps: snap.good_steps,
            steps_taken: self.taken,
            steps_skipped: self.skipped,
        }
    }

    /// Resumes the counters and `scaler` from a checkpoint's meta; a
    /// legacy v1 checkpoint carries none and leaves both untouched.
    pub fn restore(&mut self, scaler: &mut LossScaler, meta: Option<TrainerMeta>) {
        if let Some(meta) = meta {
            scaler.restore_state(LossScalerState {
                scale: meta.loss_scale,
                good_steps: meta.good_steps,
            });
            self.taken = meta.steps_taken;
            self.skipped = meta.steps_skipped;
        }
    }
}

/// Where a holder of compressed layers sits: tensors `off..` of a
/// `total`-tensor model, each kept as ZeRO shard `rank` of `world`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Place {
    pub off: usize,
    pub total: usize,
    pub rank: usize,
    pub world: usize,
}

impl Place {
    /// Every tensor of an `n`-tensor model, unsharded.
    pub fn whole(n: usize) -> Place {
        Place {
            off: 0,
            total: n,
            rank: 0,
            world: 1,
        }
    }

    /// This place's shard of an unsharded layer (the layer itself at
    /// `world = 1`).
    fn keep(self, layer: SamoLayerState) -> SamoLayerState {
        if self.world == 1 {
            layer
        } else {
            layer.shard(self.rank, self.world)
        }
    }
}

/// Prunes `model`'s parameters in place with `masks`, one per tensor in
/// `params()` order: builds each tensor's compressed state, keeps
/// `place`'s shard of it, and writes the pruned, f16-rounded values back
/// into `model` — forward and backward run on widened θ16.
pub(crate) fn build_layers(
    model: &mut impl Layer,
    masks: impl ExactSizeIterator<Item = Mask>,
    opt: &Optimizer,
    place: Place,
) -> Vec<SamoLayerState> {
    let params = model.params_mut();
    assert_eq!(
        params.len(),
        masks.len(),
        "need exactly one mask per parameter tensor"
    );
    let layers = params.into_iter().zip(masks).map(|(p, mask)| {
        assert_eq!(
            p.numel(),
            mask.numel(),
            "mask shape mismatch for {}",
            p.name
        );
        let st = place.keep(SamoLayerState::from_params(p.value.as_slice(), mask, opt));
        st.write_dense_f32_params_into(p.value.as_mut_slice());
        st
    });
    layers.collect()
}

/// Reloads `layers` (held at `place`) and `model`'s parameters from
/// `checkpoint`, zeroing the model's gradients, then `counts` and
/// `scaler` from its meta, which it returns. A structural mismatch is an
/// `Err` that leaves everything untouched (see
/// `crate::serialize::load_into`).
pub(crate) fn restore_layers(
    checkpoint: &[u8],
    opt: &Optimizer,
    place: Place,
    layers: &mut Vec<SamoLayerState>,
    model: &mut impl Layer,
    counts: &mut StepCounts,
    scaler: &mut LossScaler,
) -> Result<Option<TrainerMeta>, String> {
    let masks = layers.iter().map(SamoLayerState::mask);
    let r = crate::serialize::load_into(checkpoint, opt, place.total, place.off, masks, model)?;
    let restored = r.layers.into_iter().zip(r.params).map(|(layer, p)| {
        let st = place.keep(layer);
        st.write_dense_f32_params_into(p.value.as_mut_slice());
        p.zero_grad();
        st
    });
    *layers = restored.collect();
    counts.restore(scaler, r.meta);
    Ok(r.meta)
}

/// How the replicas of a data-parallel group agree on gradients — the
/// one thing a runtime adds to [`SamoTrainer`]'s step.
pub(crate) trait GradExchange {
    type Error;

    /// Writes the grow score of a dense gradient into `score`: narrowed
    /// to f16, averaged over the replicas, widened back to f32.
    fn grow_score(&mut self, grad: &[f32], score: &mut Vec<f32>) -> Result<(), Self::Error>;

    /// Averages every layer's compressed `∇θ16` over the replicas and
    /// returns the overflow verdict. `local_finite` is the fused compress
    /// kernel's flag for this replica's own gradients.
    fn mean_grads(
        &mut self,
        layers: &mut [SamoLayerState],
        local_finite: bool,
    ) -> Result<bool, Self::Error>;

    /// A mask moved this step, so the compressed gradient layout changed.
    fn remapped(&mut self);
}

/// One process, one replica: nothing to exchange.
struct Local;

impl GradExchange for Local {
    type Error = std::convert::Infallible;

    fn grow_score(&mut self, grad: &[f32], score: &mut Vec<f32>) -> Result<(), Self::Error> {
        score.clear();
        score.extend(grad.iter().map(|&g| F16::from_f32(g).to_f32()));
        Ok(())
    }

    fn mean_grads(
        &mut self,
        _: &mut [SamoLayerState],
        local_finite: bool,
    ) -> Result<bool, Self::Error> {
        Ok(local_finite)
    }

    fn remapped(&mut self) {}
}

/// SAMO training state for a whole model: one compressed layer state per
/// parameter tensor, plus the shared loss scaler and (optionally) a
/// dynamic-sparsity [`MaskSchedule`] with its per-layer remap scratch.
pub struct SamoTrainer {
    pub layers: Vec<SamoLayerState>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    counts: StepCounts,
    schedule: Option<MaskSchedule>,
    remap_scratch: Vec<RemapScratch>,
    remap_events: u64,
}

impl SamoTrainer {
    /// Builds the trainer from a model's current parameters and one mask
    /// per parameter tensor (in `model.params()` order). The model's
    /// parameters are immediately pruned in place.
    pub fn new(model: &mut impl Layer, masks: Vec<Mask>, opt: Optimizer) -> SamoTrainer {
        let place = Place::whole(masks.len());
        SamoTrainer {
            layers: build_layers(model, masks.into_iter(), &opt, place),
            opt,
            scaler: LossScaler::default(),
            counts: StepCounts::default(),
            schedule: None,
            remap_scratch: Vec::new(),
            remap_events: 0,
        }
    }

    /// Installs a dynamic-sparsity schedule: on every schedule update
    /// step, [`Self::step`] recomputes each layer's mask and remaps the
    /// compressed state in place before compressing the new gradient.
    /// Pre-sizes one [`RemapScratch`] per layer so remap events never
    /// allocate once warm.
    pub fn set_mask_schedule(&mut self, schedule: MaskSchedule) {
        self.schedule = Some(schedule);
        self.prime_remap_scratch();
    }

    fn prime_remap_scratch(&mut self) {
        let opt = &self.opt;
        self.remap_scratch = self
            .layers
            .iter_mut()
            .map(|l| RemapScratch::for_layer(l, opt))
            .collect();
    }

    /// The installed dynamic-sparsity schedule, if any.
    pub fn mask_schedule(&self) -> Option<&MaskSchedule> {
        self.schedule.as_ref()
    }

    /// Number of steps at which at least one layer's mask actually moved.
    pub fn remap_events(&self) -> u64 {
        self.remap_events
    }

    /// The deterministic step index `t` the schedule is evaluated at:
    /// applied plus skipped steps, so every rank of a data-parallel
    /// group (which agrees on the skip verdict bitwise) agrees on the
    /// remap timeline too.
    pub fn step_index(&self) -> u64 {
        self.counts.index()
    }

    /// Total parameters φ across all layers.
    pub fn numel(&self) -> usize {
        self.layers.iter().map(|l| l.numel()).sum()
    }

    /// Unpruned parameters fφ.
    pub fn nnz(&self) -> usize {
        self.layers.iter().map(|l| l.nnz()).sum()
    }

    /// Measured model-state bytes (peak includes downcast temp).
    pub fn model_state_bytes(&self, peak: bool) -> u64 {
        self.layers.iter().map(|l| l.measured_bytes(peak)).sum()
    }

    /// Steps applied (not skipped by the loss scaler).
    pub fn steps_taken(&self) -> u64 {
        self.counts.taken
    }

    /// Steps skipped due to gradient overflow.
    pub fn steps_skipped(&self) -> u64 {
        self.counts.skipped
    }

    /// Current loss scale to multiply the loss by before backward.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Serializes the compressed training state (see `crate::serialize`
    /// for the v2 format) including the loss-scaler state and step
    /// counters, so a resumed run continues the exact scaling schedule.
    /// The compute model is *not* included — θ16 is reconstructible from
    /// the checkpoint via [`Self::restore`].
    pub fn save(&self) -> bytes::Bytes {
        crate::serialize::save_checkpoint(&self.layers, &self.counts.meta(&self.scaler))
    }

    /// Restores a checkpoint produced by [`Self::save`] into this
    /// trainer and writes the reconstructed parameters into `model`.
    /// The model/mask structure must match what was saved; a mismatch
    /// is an `Err` and leaves the trainer and `model` untouched. For a
    /// v2 checkpoint the loss-scaler state and step counters are
    /// restored too; a legacy v1 buffer leaves them untouched.
    pub fn restore(&mut self, checkpoint: &[u8], model: &mut impl Layer) -> Result<(), String> {
        let place = Place::whole(self.layers.len());
        restore_layers(
            checkpoint,
            &self.opt,
            place,
            &mut self.layers,
            model,
            &mut self.counts,
            &mut self.scaler,
        )?;
        if self.schedule.is_some() {
            // The restored layers are fresh allocations without remap
            // headroom; rebuild the scratch (and re-reserve) so future
            // remap events stay allocation-free.
            self.prime_remap_scratch();
        }
        if telemetry::enabled() {
            telemetry::global().counter("samo.ckpt.recoveries").inc();
        }
        Ok(())
    }

    /// Recovery path: restores the last good checkpoint *and* backs the
    /// loss scale off once, so the replayed steps retry with a gentler
    /// scale than the one that just diverged. Used by the divergence
    /// sentinel (`crate::sentinel`).
    pub fn rollback(&mut self, checkpoint: &[u8], model: &mut impl Layer) -> Result<(), String> {
        self.restore(checkpoint, model)?;
        self.scaler.force_backoff();
        telemetry::log_info!(
            "rollback: restored step {} (skipped {}), loss scale backed off to {}",
            self.counts.taken,
            self.counts.skipped,
            self.scaler.scale()
        );
        if telemetry::enabled() {
            telemetry::global().counter("samo.ckpt.rollbacks").inc();
        }
        Ok(())
    }

    /// Completes a training step after `model` has run forward/backward
    /// with the loss multiplied by [`Self::loss_scale`], using the two
    /// fused single-pass kernels: gather + f16-round + overflow-detect
    /// ([`SamoLayerState::compress_grad_fused`]), then upscale +
    /// optimizer + downcast + scatter writing the model's dense f32
    /// parameters in place ([`SamoLayerState::optimizer_step_fused`]).
    /// Returns `false` if the step was skipped.
    ///
    /// The steady-state path performs no heap allocation: both kernels
    /// work in place, and the skipped-step path only zeroes gradients
    /// (asserted by `tests/zero_alloc.rs`).
    ///
    /// With telemetry enabled, each fused kernel is timed
    /// (`samo.step.compress`, `samo.step.optimizer`) and one
    /// [`telemetry::StepEvent`] line is appended to `metrics.jsonl`;
    /// disabled, the only overhead is one atomic load.
    pub fn step(&mut self, model: &mut impl Layer) -> bool {
        match self.step_with(model, &mut Local) {
            Ok(applied) => applied,
            Err(never) => match never {},
        }
    }

    /// [`Self::step`] with the replicas' gradients agreed through `x`
    /// between compress and verdict. The local exchange keeps the fused
    /// compress flag as the verdict, so the single-process step makes no
    /// extra pass over the gradients.
    pub(crate) fn step_with<X: GradExchange>(
        &mut self,
        model: &mut impl Layer,
        x: &mut X,
    ) -> Result<bool, X::Error> {
        let tel = telemetry::enabled();
        if self.schedule.is_some() {
            self.maybe_remap(model, x)?;
        }
        // Backward pass hook: compress gradients layer by layer, folding
        // the overflow scan into the same pass. The allocation-free
        // `for_each_param_mut` traversal (not `params_mut`, which builds
        // a Vec) keeps the whole step off the heap.
        let sp = tel.then(|| telemetry::span("samo.step.compress"));
        let mut finite = true;
        {
            let layers = &mut self.layers;
            let mut i = 0;
            model.for_each_param_mut(&mut |p| {
                finite &= layers[i].compress_grad_fused(p.grad.as_slice());
                i += 1;
            });
            assert_eq!(i, layers.len());
        }
        let t_compress = sp.map(telemetry::SpanGuard::finish);
        let finite = x.mean_grads(&mut self.layers, finite)?;
        let scale = self.scaler.scale();
        let proceed = self.counts.verdict(&mut self.scaler, finite);
        let mut t_optimizer = None;
        if proceed {
            let sp = tel.then(|| telemetry::span("samo.step.optimizer"));
            let opt = &self.opt;
            let layers = &mut self.layers;
            let inv_scale = 1.0 / scale;
            let mut i = 0;
            model.for_each_param_mut(&mut |p| {
                layers[i].optimizer_step_fused(opt, inv_scale, p.value.as_mut_slice());
                p.zero_grad();
                i += 1;
            });
            t_optimizer = sp.map(telemetry::SpanGuard::finish);
        } else {
            model.for_each_param_mut(&mut |p| p.zero_grad());
        }
        if tel {
            self.record_step(proceed, scale, t_compress, t_optimizer);
        }
        Ok(proceed)
    }

    /// Dynamic-sparsity hook run at the top of [`Self::step`]: if the
    /// schedule fires at the current step index, recompute each layer's
    /// mask from the dense weights and the grow score (the dense
    /// gradient narrowed to f16 and averaged over the replicas — exactly
    /// the values a data-parallel gradient ring reduces, so every
    /// runtime ranks regrowth candidates identically) and remap the
    /// compressed state in place. Runs before the compress/verdict phase
    /// so the new mask's gradient slots are filled by the normal fused
    /// compress whether or not the scaler skips the step — the remap
    /// timeline is therefore a pure function of the step index.
    fn maybe_remap<X: GradExchange>(
        &mut self,
        model: &mut impl Layer,
        x: &mut X,
    ) -> Result<(), X::Error> {
        let t = self.step_index();
        let Some(sched) = &self.schedule else { return Ok(()) };
        if !sched.is_update_step(t) {
            return Ok(());
        }
        let sched = sched.clone();
        let tel = telemetry::enabled();
        let sp = tel.then(|| telemetry::span("samo.step.remap"));
        let layers = &mut self.layers;
        let scratch = &mut self.remap_scratch;
        let mut i = 0;
        let mut moved = false;
        let mut err = None;
        model.for_each_param_mut(&mut |p| {
            if err.is_some() {
                return;
            }
            let layer = &mut layers[i];
            let sc = &mut scratch[i];
            i += 1;
            if let Err(e) = x.grow_score(p.grad.as_slice(), &mut sc.score) {
                err = Some(e);
                return;
            }
            let new_mask = sched.next_mask(t, p.value.as_slice(), &sc.score, layer.mask());
            if &new_mask != layer.mask() {
                layer.remap_compressed_state(new_mask, sc);
                layer.write_dense_f32_params_into(p.value.as_mut_slice());
                moved = true;
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        assert_eq!(i, layers.len());
        if moved {
            self.remap_events += 1;
            x.remapped();
            if tel {
                telemetry::global().counter("samo.remap_events").inc();
            }
        }
        drop(sp);
        Ok(())
    }

    /// Cold path: metric/JSONL bookkeeping for one completed `step()`.
    fn record_step(
        &self,
        applied: bool,
        scale_used: f32,
        t_compress: Option<f64>,
        t_optimizer: Option<f64>,
    ) {
        let numel = self.numel() as u64;
        let nnz = self.nnz() as u64;
        let phases = [("compress", t_compress), ("optimizer", t_optimizer)];
        record_step_event(
            "samo",
            self.scaler.scale(),
            &telemetry::StepEvent {
                kind: "samo",
                step: self.counts.index() - 1,
                applied,
                loss_scale: scale_used,
                steps_taken: self.counts.taken,
                steps_skipped: self.counts.skipped,
                numel,
                nnz,
                model_state_bytes: self.model_state_bytes(true),
                formula_state_bytes: Some(formula_state_bytes(&self.opt, numel, nnz)),
                allreduce_bytes: samo_allreduce_bytes(nnz),
                phases: phases
                    .into_iter()
                    .filter_map(|(n, t)| Some((n, t?)))
                    .collect(),
            },
        );
    }
}

/// Cold path shared by the trainers' step telemetry: counts the step as
/// `{prefix}.steps_taken` or `{prefix}.steps_skipped`, sets the
/// `{prefix}.loss_scale` gauge to the scale after the verdict and the
/// `{prefix}.model_state_bytes` high-water mark, and appends `ev` to
/// `metrics.jsonl`.
pub(crate) fn record_step_event(prefix: &str, scale_now: f32, ev: &telemetry::StepEvent) {
    let reg = telemetry::global();
    let outcome = if ev.applied {
        "steps_taken"
    } else {
        "steps_skipped"
    };
    reg.counter(&format!("{prefix}.{outcome}")).inc();
    reg.gauge(&format!("{prefix}.loss_scale"))
        .set(f64::from(scale_now));
    reg.gauge(&format!("{prefix}.model_state_bytes"))
        .set_max(ev.model_state_bytes as f64);
    telemetry::jsonl::emit_step(ev);
}

/// Closed-form peak SAMO model-state bytes for `phi` parameters with
/// `nnz` kept: the paper's `2φ + 24·nnz` for Adam (Eq. 2's `24fφ + 2φ`
/// at exact integer granularity) and `2φ + 20·nnz` for SGD with
/// momentum. Matches [`SamoTrainer::model_state_bytes`] exactly.
pub fn formula_state_bytes(opt: &Optimizer, phi: u64, nnz: u64) -> u64 {
    match opt {
        Optimizer::Adam(_) => 2 * phi + 24 * nnz,
        Optimizer::Sgd(_) => 2 * phi + 20 * nnz,
    }
}

/// Closed-form dense mixed-precision model-state bytes: `20φ` (Adam) or
/// `16φ` (SGD). Matches [`DenseMaskedTrainer::model_state_bytes`].
pub fn dense_formula_state_bytes(opt: &Optimizer, phi: u64) -> u64 {
    match opt {
        Optimizer::Adam(_) => 20 * phi,
        Optimizer::Sgd(_) => 16 * phi,
    }
}

/// Dense mixed-precision baseline with gradient masking: trains exactly
/// the same subnetwork as SAMO but stores everything dense (`M_default`).
/// SAMO must reproduce this trainer's trajectory bit-for-bit on θ32 —
/// that equivalence is the reproduction's core correctness theorem.
pub struct DenseMaskedTrainer {
    pub layers: Vec<(DenseMixedState, Mask)>,
    pub opt: Optimizer,
    pub scaler: LossScaler,
    counts: StepCounts,
}

impl DenseMaskedTrainer {
    /// Mirrors [`SamoTrainer::new`] with dense storage.
    pub fn new(model: &mut impl Layer, masks: Vec<Mask>, opt: Optimizer) -> DenseMaskedTrainer {
        let params = model.params_mut();
        assert_eq!(params.len(), masks.len());
        let mut layers = Vec::with_capacity(params.len());
        for (p, mask) in params.into_iter().zip(masks) {
            let mut masked = p.value.as_slice().to_vec();
            mask.apply(&mut masked);
            let st = DenseMixedState::from_params(&masked, &opt);
            // Load fp16-rounded pruned params into the compute model.
            let dense: Vec<f32> = st.theta16.iter().map(|v| v.to_f32()).collect();
            p.value.as_mut_slice().copy_from_slice(&dense);
            layers.push((st, mask));
        }
        DenseMaskedTrainer {
            layers,
            opt,
            scaler: LossScaler::default(),
            counts: StepCounts::default(),
        }
    }

    /// Current loss scale.
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Measured model-state bytes (20φ for Adam).
    pub fn model_state_bytes(&self) -> u64 {
        self.layers.iter().map(|(st, _)| st.bytes() as u64).sum()
    }

    /// Total parameters φ across all layers.
    pub fn numel(&self) -> usize {
        self.layers.iter().map(|(_, m)| m.numel()).sum()
    }

    /// Unpruned parameters fφ.
    pub fn nnz(&self) -> usize {
        self.layers.iter().map(|(_, m)| m.nnz()).sum()
    }

    /// Steps applied (not skipped by the loss scaler).
    pub fn steps_taken(&self) -> u64 {
        self.counts.taken
    }

    /// Steps skipped due to gradient overflow.
    pub fn steps_skipped(&self) -> u64 {
        self.counts.skipped
    }

    /// Dense counterpart of [`SamoTrainer::step`]: masks gradients (the
    /// subnetwork constraint), runs the dense optimizer, re-masks
    /// parameters, writes back.
    pub fn step(&mut self, model: &mut impl Layer) -> bool {
        let tel = telemetry::enabled();
        let params = model.params_mut();
        assert_eq!(params.len(), self.layers.len());
        let sp = tel.then(|| telemetry::span("dense.step.mask_grad"));
        for (p, (st, mask)) in params.iter().zip(&mut self.layers) {
            let mut g = p.grad.as_slice().to_vec();
            mask.apply(&mut g);
            st.set_grad_from_f32(&g);
        }
        let t_mask_grad = sp.map(telemetry::SpanGuard::finish);
        let finite = !self
            .layers
            .iter()
            .any(|(st, _)| st.grad16.iter().any(|g| !g.is_finite()));
        let scale = self.scaler.scale();
        let proceed = self.counts.verdict(&mut self.scaler, finite);
        let mut t_optimizer = None;
        if proceed {
            let sp = tel.then(|| telemetry::span("dense.step.optimizer"));
            for (p, (st, mask)) in params.into_iter().zip(&mut self.layers) {
                st.optimizer_step(&self.opt, 1.0 / scale);
                // Keep pruned positions exactly zero (masked subnetwork
                // training; weight decay would otherwise leave them 0
                // anyway since they start at 0 with 0 grad, but we pin
                // them for exactness).
                let mut t32 = st.theta32.clone();
                mask.apply(&mut t32);
                st.theta32.copy_from_slice(&t32);
                tensor::ops::narrow_into(&st.theta32, &mut st.theta16);
                let dense: Vec<f32> = st.theta16.iter().map(|v| v.to_f32()).collect();
                p.value.as_mut_slice().copy_from_slice(&dense);
                p.zero_grad();
            }
            t_optimizer = sp.map(telemetry::SpanGuard::finish);
        } else {
            for p in params {
                p.zero_grad();
            }
        }
        if tel {
            self.record_step(proceed, scale, t_mask_grad, t_optimizer);
        }
        proceed
    }

    /// Cold path: metric/JSONL bookkeeping for one completed `step()`.
    fn record_step(
        &self,
        applied: bool,
        scale_used: f32,
        t_mask_grad: Option<f64>,
        t_optimizer: Option<f64>,
    ) {
        let numel = self.numel() as u64;
        let phases = [("mask_grad", t_mask_grad), ("optimizer", t_optimizer)];
        record_step_event(
            "dense",
            self.scaler.scale(),
            &telemetry::StepEvent {
                kind: "dense_masked",
                step: self.counts.index() - 1,
                applied,
                loss_scale: scale_used,
                steps_taken: self.counts.taken,
                steps_skipped: self.counts.skipped,
                numel,
                nnz: self.nnz() as u64,
                model_state_bytes: self.model_state_bytes(),
                formula_state_bytes: Some(dense_formula_state_bytes(&self.opt, numel)),
                allreduce_bytes: dense_allreduce_bytes(numel),
                phases: phases
                    .into_iter()
                    .filter_map(|(n, t)| Some((n, t?)))
                    .collect(),
            },
        );
    }
}

/// Global L2 norm of the model's current (scaled) gradients — the signal
/// the divergence sentinel (`crate::sentinel`) watches alongside the
/// loss. fp64 accumulation so large models don't overflow the sum.
pub fn grad_l2_norm(model: &impl Layer) -> f64 {
    let mut sum = 0.0f64;
    for p in model.params() {
        for &g in p.grad.as_slice() {
            sum += f64::from(g) * f64::from(g);
        }
    }
    sum.sqrt()
}

/// Message bytes of a dense fp16 gradient all-reduce for `phi` params
/// (flat payload model, Eq. 9: every parameter crosses the wire once).
pub fn dense_allreduce_bytes(phi: u64) -> u64 {
    2 * phi
}

/// Message bytes of SAMO's compressed all-reduce: only `fφ` values move.
pub fn samo_allreduce_bytes(nnz: u64) -> u64 {
    2 * nnz
}

/// Per-rank wire bytes of a dense fp16 *ring* all-reduce across `world`
/// ranks: `2·(G−1)/G · φ` values of 2 bytes (reduce-scatter plus
/// all-gather, each moving `(G−1)/G` of the buffer).
pub fn dense_ring_allreduce_bytes(phi: u64, world: u64) -> u64 {
    comms::ring_allreduce_model_bytes(phi, world, 2)
}

/// Per-rank wire bytes of SAMO's compressed fp16 ring all-reduce: the
/// same ring factor over the `fφ` surviving coordinates, so the
/// compressed/dense ratio stays `f` at every world size.
pub fn samo_ring_allreduce_bytes(nnz: u64, world: u64) -> u64 {
    comms::ring_allreduce_model_bytes(nnz, world, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::linear::Linear;
    use nn::loss::mse;
    use nn::optim::AdamConfig;
    use tensor::Tensor;

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.05,
            ..Default::default()
        })
    }

    #[test]
    fn trainer_prunes_model_at_init() {
        let mut model = Linear::new(8, 8, false, 1);
        let mask = prune::random_prune(&[8, 8], 0.75, 2);
        let trainer = SamoTrainer::new(&mut model, vec![mask.clone()], adam());
        assert_eq!(trainer.nnz(), 16);
        let w = model.params()[0].value.as_slice();
        let zeros = w.iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zeros, 48);
    }

    #[test]
    fn training_reduces_loss_on_regression() {
        // y = x * 0.5 target; a pruned linear layer must still fit it on
        // its unpruned coordinates.
        let mut model = Linear::new(4, 4, true, 3);
        let masks = vec![
            prune::random_prune(&[4, 4], 0.5, 4),
            Mask::dense(&[4]), // keep bias dense
        ];
        let mut trainer = SamoTrainer::new(&mut model, masks, adam());
        let x = Tensor::randn(&[16, 4], 1.0, 5);
        let target = Tensor::from_vec(&[16, 4], x.as_slice().iter().map(|v| v * 0.5).collect());

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..150 {
            let y = model.forward(&x);
            let (loss, mut dy) = mse(&y, &target);
            tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            trainer.step(&mut model);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.3,
            "loss {} -> {last_loss}",
            first_loss.unwrap()
        );
        assert!(trainer.steps_taken() > 100);
    }

    #[test]
    fn pruned_positions_never_move() {
        let mut model = Linear::new(6, 6, false, 7);
        let mask = prune::random_prune(&[6, 6], 0.8, 8);
        let pruned_positions: Vec<usize> = {
            let keep = mask.to_bools();
            (0..36).filter(|&i| !keep[i]).collect()
        };
        let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
        let x = Tensor::randn(&[8, 6], 1.0, 9);
        let target = Tensor::randn(&[8, 6], 1.0, 10);
        for _ in 0..20 {
            let y = model.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            trainer.step(&mut model);
        }
        let w = model.params()[0].value.as_slice();
        for &i in &pruned_positions {
            assert_eq!(w[i], 0.0, "pruned weight {i} moved");
        }
    }

    #[test]
    fn overflow_skips_step_and_backs_off_scale() {
        let mut model = Linear::new(2, 2, false, 11);
        let mut trainer = SamoTrainer::new(&mut model, vec![Mask::dense(&[2, 2])], adam());
        let before = model.params()[0].value.as_slice().to_vec();
        let scale_before = trainer.loss_scale();
        // Poison the gradient.
        model.params_mut()[0]
            .grad
            .as_mut_slice()
            .copy_from_slice(&[f32::INFINITY, 0.0, 0.0, 0.0]);
        let applied = trainer.step(&mut model);
        assert!(!applied);
        assert_eq!(model.params()[0].value.as_slice(), &before[..]);
        assert!(trainer.loss_scale() < scale_before);
        assert_eq!(trainer.steps_skipped(), 1);
    }

    #[test]
    fn memory_vs_dense_baseline() {
        let phi = 50_000usize;
        let p = 0.9;
        let mask = prune::random_prune(&[phi], p, 12);

        let mut m1 = Linear::from_weights(Tensor::zeros(&[phi / 100, 100]), None);
        let samo = SamoTrainer::new(&mut m1, vec![mask.clone()], adam());
        let mut m2 = Linear::from_weights(Tensor::zeros(&[phi / 100, 100]), None);
        let dense = DenseMaskedTrainer::new(&mut m2, vec![mask], adam());

        assert_eq!(dense.model_state_bytes(), 20 * phi as u64);
        assert_eq!(
            samo.model_state_bytes(true),
            crate::memory::m_samo_bytes(phi as u64, p)
        );
        let saving = 1.0 - samo.model_state_bytes(true) as f64 / dense.model_state_bytes() as f64;
        assert!((saving - 0.78).abs() < 0.01, "saving {saving}");
    }

    #[test]
    fn microbatch_accumulation_equals_full_batch() {
        // AxoNN processes a batch as pipelined microbatches whose
        // gradients accumulate before the optimizer step (Sec. II-E);
        // SAMO compresses only at step time, so accumulating two
        // half-batches must equal one full-batch step exactly.
        let make = || {
            let mut m = Linear::new(6, 6, false, 41);
            let masks = vec![prune::random_prune(&[6, 6], 0.5, 42)];
            let t = SamoTrainer::new(&mut m, masks, adam());
            (m, t)
        };
        let x1 = Tensor::randn(&[3, 6], 1.0, 43);
        let x2 = Tensor::randn(&[3, 6], 1.0, 44);
        let t1 = Tensor::randn(&[3, 6], 1.0, 45);
        let t2 = Tensor::randn(&[3, 6], 1.0, 46);

        // Microbatched: two forward/backward passes, one step. Use sum
        // (not mean) losses so accumulation is the exact full-batch
        // gradient.
        let (mut m_micro, mut tr_micro) = make();
        for (x, t) in [(&x1, &t1), (&x2, &t2)] {
            let y = m_micro.forward(x);
            let (_, mut dy) = mse(&y, t);
            // Undo mse's 1/N and apply the loss scale: dy · N · scale.
            tensor::ops::scale(tr_micro.loss_scale() * y.numel() as f32, dy.as_mut_slice());
            m_micro.backward(&dy);
        }
        tr_micro.step(&mut m_micro);

        // Full batch: concatenated inputs, one forward/backward.
        let (mut m_full, mut tr_full) = make();
        let xall = Tensor::from_vec(
            &[6, 6],
            x1.as_slice().iter().chain(x2.as_slice()).copied().collect(),
        );
        let tall = Tensor::from_vec(
            &[6, 6],
            t1.as_slice().iter().chain(t2.as_slice()).copied().collect(),
        );
        let y = m_full.forward(&xall);
        let (_, mut dy) = mse(&y, &tall);
        tensor::ops::scale(tr_full.loss_scale() * y.numel() as f32, dy.as_mut_slice());
        m_full.backward(&dy);
        tr_full.step(&mut m_full);

        for (a, b) in tr_micro.layers.iter().zip(&tr_full.layers) {
            for (x, y) in a.theta32.iter().zip(&b.theta32) {
                assert!(
                    (x - y).abs() < 2e-2 * (1.0 + x.abs()),
                    "accumulated {x} vs full-batch {y}"
                );
            }
        }
    }

    #[test]
    fn mask_schedule_remaps_and_memory_tracks_the_trajectory() {
        use prune::MomentumPruneRegrow;
        let mut model = Linear::new(12, 12, false, 71);
        let phi = 144u64;
        // Trajectory sparsifies 0.5 -> 0.9 then densifies back to 0.25.
        let traj = MomentumPruneRegrow::new(vec![(0, 0.5), (6, 0.9), (12, 0.25)], 3, 0.1);
        let start = prune::magnitude_prune(
            model.params()[0].value.as_slice(),
            &[12, 12],
            traj.sparsity_at(0),
        );
        let mut tr = SamoTrainer::new(&mut model, vec![start], adam());
        tr.set_mask_schedule(MaskSchedule::MomentumPruneRegrow(traj.clone()));

        let x = Tensor::randn(&[8, 12], 1.0, 72);
        let target = Tensor::randn(&[8, 12], 1.0, 73);
        let mut seen_nnz = std::collections::BTreeSet::new();
        for _ in 0..14 {
            let t = tr.step_index();
            let y = model.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
            model.backward(&dy);
            tr.step(&mut model);
            if traj.is_update_step(t) {
                let want = ((1.0 - traj.sparsity_at(t)) * phi as f64).round() as usize;
                assert_eq!(tr.nnz(), want, "nnz off trajectory at t = {t}");
            }
            seen_nnz.insert(tr.nnz());
            // Memory follows 24(1 − p(t))φ + 2φ as p evolves.
            assert_eq!(
                tr.model_state_bytes(true),
                formula_state_bytes(&tr.opt, phi, tr.nnz() as u64)
            );
            // Dense view invariant: pruned positions are exactly zero.
            let keep = tr.layers[0].mask().to_bools();
            for (i, &w) in model.params()[0].value.as_slice().iter().enumerate() {
                if !keep[i] {
                    assert_eq!(w, 0.0, "pruned weight {i} nonzero after remap");
                }
            }
        }
        assert!(
            tr.remap_events() >= 3,
            "expected >= 3 mask changes, saw {}",
            tr.remap_events()
        );
        assert!(seen_nnz.len() >= 3, "mask never moved: {seen_nnz:?}");
        // Final phase densified: more survivors than the start.
        assert_eq!(tr.nnz(), ((1.0 - 0.25) * phi as f64).round() as usize);
    }

    #[test]
    fn trainer_save_restore_resumes_identically() {
        let make = || {
            let mut model = Linear::new(8, 8, true, 21);
            let masks = vec![
                prune::random_prune(&[8, 8], 0.75, 22),
                Mask::dense(&[8]),
            ];
            let tr = SamoTrainer::new(&mut model, masks, adam());
            (model, tr)
        };
        let (mut model, mut tr) = make();
        let x = Tensor::randn(&[4, 8], 1.0, 23);
        let target = Tensor::randn(&[4, 8], 1.0, 24);
        let train_step = |m: &mut Linear, t: &mut SamoTrainer| {
            let y = m.forward(&x);
            let (_, mut dy) = mse(&y, &target);
            tensor::ops::scale(t.loss_scale(), dy.as_mut_slice());
            m.backward(&dy);
            t.step(m);
        };
        for _ in 0..4 {
            train_step(&mut model, &mut tr);
        }
        let checkpoint = tr.save();

        // Continue live.
        for _ in 0..3 {
            train_step(&mut model, &mut tr);
        }

        // Restore into a fresh trainer/model and replay.
        let (mut model2, mut tr2) = make();
        tr2.restore(&checkpoint, &mut model2).unwrap();
        assert_eq!(model.params().len(), model2.params().len());
        for _ in 0..3 {
            train_step(&mut model2, &mut tr2);
        }
        for (a, b) in model.params().iter().zip(model2.params()) {
            assert_eq!(a.value.as_slice(), b.value.as_slice(), "{}", a.name);
        }
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let mut m1 = Linear::new(4, 4, false, 31);
        let tr1 = SamoTrainer::new(&mut m1, vec![Mask::dense(&[4, 4])], adam());
        let ckpt = tr1.save();

        let mut m2 = Linear::new(6, 6, false, 32);
        let mut tr2 = SamoTrainer::new(&mut m2, vec![Mask::dense(&[6, 6])], adam());
        assert!(tr2.restore(&ckpt, &mut m2).is_err());
    }

    #[test]
    fn restore_rejects_a_model_with_other_tensors() {
        let masks = || vec![Mask::dense(&[4, 4]), Mask::dense(&[4])];
        let mut m1 = Linear::new(4, 4, true, 33);
        let ckpt = SamoTrainer::new(&mut m1, masks(), adam()).save();
        let mut tr2 = SamoTrainer::new(&mut Linear::new(4, 4, true, 34), masks(), adam());
        // The trainer matches the checkpoint; its compute model lacks the bias.
        let mut no_bias = Linear::new(4, 4, false, 35);
        let before = no_bias.params()[0].value.as_slice().to_vec();
        let err = tr2.restore(&ckpt, &mut no_bias).unwrap_err();
        assert!(err.contains("model has 1 parameter tensors"), "{err}");
        assert_eq!(
            no_bias.params()[0].value.as_slice(),
            &before[..],
            "refused restore wrote"
        );
    }

    #[test]
    fn allreduce_on_compressed_equals_compress_of_allreduce() {
        use crate::compressed::{compress_f16, expand_f16};
        use comms::reference::allreduce_mean_f16;
        let mask = prune::random_prune(&[64], 0.8, 13);
        let d1: Vec<F16> = (0..64).map(|i| F16::from_f32(i as f32 * 0.5)).collect();
        let d2: Vec<F16> = (0..64).map(|i| F16::from_f32(32.0 - i as f32)).collect();

        // Path A: compress then all-reduce.
        let mut c1 = compress_f16(&d1, &mask);
        let mut c2 = compress_f16(&d2, &mask);
        {
            let mut bufs: Vec<&mut [F16]> = vec![&mut c1, &mut c2];
            allreduce_mean_f16(&mut bufs).unwrap();
        }

        // Path B: all-reduce dense then compress.
        let mut e1 = expand_f16(&compress_f16(&d1, &mask), &mask);
        let mut e2 = expand_f16(&compress_f16(&d2, &mask), &mask);
        {
            let mut bufs: Vec<&mut [F16]> = vec![&mut e1, &mut e2];
            allreduce_mean_f16(&mut bufs).unwrap();
        }
        let cref = compress_f16(&e1, &mask);
        assert_eq!(c1, cref);
    }

    #[test]
    fn save_restores_scaler_state_and_counters() {
        let mut model = Linear::new(4, 4, false, 61);
        let mut tr = SamoTrainer::new(&mut model, vec![Mask::dense(&[4, 4])], adam());
        // Force one skip (backoff) and a couple of good steps.
        model.params_mut()[0].grad.as_mut_slice()[0] = f32::INFINITY;
        tr.step(&mut model);
        for _ in 0..2 {
            model.params_mut()[0].grad.as_mut_slice().fill(0.01);
            tr.step(&mut model);
        }
        assert_eq!(tr.steps_taken(), 2);
        assert_eq!(tr.steps_skipped(), 1);
        let scale = tr.loss_scale();
        let ckpt = tr.save();

        let mut model2 = Linear::new(4, 4, false, 62);
        let mut tr2 = SamoTrainer::new(&mut model2, vec![Mask::dense(&[4, 4])], adam());
        tr2.restore(&ckpt, &mut model2).unwrap();
        assert_eq!(tr2.steps_taken(), 2);
        assert_eq!(tr2.steps_skipped(), 1);
        assert_eq!(tr2.loss_scale(), scale);
        assert_eq!(tr2.scaler.snapshot(), tr.scaler.snapshot());
    }

    #[test]
    fn rollback_restores_state_and_backs_off_scale() {
        let mut model = Linear::new(4, 4, false, 63);
        let mut tr = SamoTrainer::new(&mut model, vec![Mask::dense(&[4, 4])], adam());
        for _ in 0..3 {
            model.params_mut()[0].grad.as_mut_slice().fill(0.02);
            tr.step(&mut model);
        }
        let good = tr.save();
        let scale = tr.loss_scale();
        let theta: Vec<f32> = model.params()[0].value.as_slice().to_vec();

        // "Diverge": take more steps, then roll back.
        for _ in 0..2 {
            model.params_mut()[0].grad.as_mut_slice().fill(5.0);
            tr.step(&mut model);
        }
        tr.rollback(&good, &mut model).unwrap();
        assert_eq!(model.params()[0].value.as_slice(), &theta[..]);
        assert_eq!(tr.steps_taken(), 3);
        assert_eq!(tr.loss_scale(), scale * 0.5, "rollback must back off the scale");
    }

    #[test]
    fn grad_norm_reflects_gradients() {
        let mut model = Linear::new(2, 2, false, 64);
        model.params_mut()[0]
            .grad
            .as_mut_slice()
            .copy_from_slice(&[3.0, 4.0, 0.0, 0.0]);
        assert!((grad_l2_norm(&model) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_message_sizes() {
        assert_eq!(dense_allreduce_bytes(1000), 2000);
        assert_eq!(samo_allreduce_bytes(100), 200);
        // 10x reduction at 90% sparsity.
        assert_eq!(dense_allreduce_bytes(1000) / samo_allreduce_bytes(100), 10);
    }

    #[test]
    fn ring_allreduce_message_sizes() {
        // Ring factor 2·(G−1)/G of the fp16 payload, degenerate at G≤1.
        assert_eq!(dense_ring_allreduce_bytes(1000, 1), 0);
        assert_eq!(dense_ring_allreduce_bytes(1000, 2), 2000); // = flat model at G=2
        assert_eq!(dense_ring_allreduce_bytes(1000, 4), 3000);
        assert_eq!(samo_ring_allreduce_bytes(100, 4), 300);

        // Compressed/dense ratio ≈ 1/f = nnz/φ at every world size: the
        // ring factor cancels (satellite check for Eq. 9 at density
        // f = 0.1 → a 10× wire-volume reduction).
        for world in [2u64, 3, 4, 8] {
            let dense = dense_ring_allreduce_bytes(1000, world) as f64;
            let samo = samo_ring_allreduce_bytes(100, world) as f64;
            let ratio = samo / dense;
            // Within 1%: integer byte counts truncate when G ∤ 2·n·(G−1).
            assert!(
                (ratio - 0.1).abs() < 1e-3,
                "world {world}: compressed/dense = {ratio}, want 1/f = 0.1"
            );
        }
    }
}
