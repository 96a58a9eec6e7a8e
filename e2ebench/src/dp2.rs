//! `mlp-dp2-regrow`: `ThreadedDataParallelSamo` with two rank threads on
//! the in-process mesh, under a momentum prune-and-regrow schedule.

use crate::alloc;
use crate::harness::{ms_since, span, Episode, Layers, Step};
use crate::setup::{adam, mlp, phi_nnz, prune_masks, regression_batches, Workload, SPARSITY};
use nn::layer::{Layer, Sequential};
use nn::loss::mse;
use prune::{MaskSchedule, MomentumPruneRegrow};
use samo::threaded::CommStats;
use samo::{m_samo_zero_bytes, ThreadedDataParallelSamo};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensor::Tensor;

pub const WIDTH: usize = 1024;
pub const BLOCKS: usize = 4;
pub const ROWS_PER_RANK: usize = 8;
pub const WORLD: usize = 2;
/// Steps between schedule updates.
pub const UPDATE_EVERY: u64 = 5;
pub const CHURN: f64 = 0.1;
const WARMUP: usize = 1;
const STEPS: usize = 20;

pub struct Dp2 {
    seed: u64,
    batches: Arc<Vec<(Tensor, Tensor)>>,
}

impl Dp2 {
    pub fn new(seed: u64) -> Dp2 {
        let batches = regression_batches(
            2 * WORLD * UPDATE_EVERY as usize,
            ROWS_PER_RANK,
            WIDTH,
            seed,
        );
        Dp2 {
            seed,
            batches: Arc::new(batches),
        }
    }
}

pub fn schedule() -> MaskSchedule {
    // A flat trajectory: every update prunes and regrows CHURN of the
    // kept budget while the keep count stays at (1 − SPARSITY)·numel.
    MaskSchedule::MomentumPruneRegrow(MomentumPruneRegrow::new(
        vec![(0, SPARSITY), (1 << 40, SPARSITY)],
        UPDATE_EVERY,
        CHURN,
    ))
}

/// What rank closures report back for one step.
#[derive(Default)]
struct Probe {
    loss: [f32; WORLD],
    fwd_ms: [f64; WORLD],
    fwd_alloc: [alloc::Tally; WORLD],
}

/// Digest of every mask on every rank; ranks must agree.
fn masks_digest(dp: &mut ThreadedDataParallelSamo<Sequential>) -> (u64, bool) {
    let digests: Vec<u64> = (0..WORLD)
        .map(|r| {
            dp.with_rank(r, |_, states| {
                let mut h = DefaultHasher::new();
                states.iter().for_each(|s| s.mask().indices().hash(&mut h));
                h.finish()
            })
        })
        .collect();
    (digests[0], digests.iter().all(|&d| d == digests[0]))
}

/// Largest per-rank growth of a cumulative transport counter.
fn max_delta(now: &[CommStats], before: &[CommStats], f: fn(&CommStats) -> u64) -> u64 {
    now.iter()
        .zip(before)
        .map(|(a, b)| f(a) - f(b))
        .max()
        .unwrap_or(0)
}

/// One step: forward + loss inside the rank closure, the rest inside
/// the runtime. Returns the step result, its wall time and its start.
fn run_step(
    dp: &mut ThreadedDataParallelSamo<Sequential>,
    batches: &Arc<Vec<(Tensor, Tensor)>>,
    probe: &Arc<Mutex<Probe>>,
    t: usize,
) -> (Result<bool, String>, f64, Instant) {
    let (b, p) = (Arc::clone(batches), Arc::clone(probe));
    let start = Instant::now();
    let res = dp.step(move |rank, model: &mut Sequential, scale| {
        let t0 = Instant::now();
        let a0 = alloc::thread();
        let (x, y) = &b[(t * WORLD + rank) % b.len()];
        let out = model.forward(x);
        let (loss, mut dy) = mse(&out, y);
        tensor::ops::scale(scale, dy.as_mut_slice());
        let mut pr = p.lock().expect("probe poisoned");
        pr.loss[rank] = loss;
        pr.fwd_ms[rank] = ms_since(t0);
        pr.fwd_alloc[rank] = alloc::thread().since(a0);
        span("nn.forward", 1 + rank as u64, t0, Instant::now());
        dy
    });
    (res, ms_since(start), start)
}

impl Workload for Dp2 {
    fn samples_per_step(&self) -> u64 {
        (WORLD * ROWS_PER_RANK) as u64
    }

    fn steps_per_episode(&self) -> usize {
        STEPS
    }

    fn episode(&self, origin: Instant, layers: Option<&mut Layers>) -> Episode {
        let replicas: Vec<Sequential> = (0..WORLD).map(|_| mlp(WIDTH, BLOCKS, self.seed)).collect();
        let masks = prune_masks(&replicas[0]);
        let (phi, _) = phi_nnz(&masks);
        let numels: Vec<usize> = masks.iter().map(|m| m.numel()).collect();
        let mut dp = ThreadedDataParallelSamo::new(replicas, masks, adam());
        let sched = schedule();
        dp.set_mask_schedule(sched.clone());
        let probe = Arc::new(Mutex::new(Probe::default()));

        // The schedule covers every parameter tensor, biases included, so
        // from the first update on each keeps round((1 − p(t))·numel).
        let keep = |t: usize| -> u64 {
            let s = sched.sparsity_at(t as u64);
            numels
                .iter()
                .map(|&n| (((1.0 - s) * n as f64).round() as usize).min(n) as u64)
                .sum()
        };
        let mut updates = 0u64;
        let mut remaps = 0u64;
        let mut failures = Vec::new();
        // Runs step `t`, checking the schedule's mask invariants.
        let mut checked_step = |dp: &mut ThreadedDataParallelSamo<Sequential>, t: usize| {
            let update = sched.is_update_step(t as u64);
            let before = update.then(|| masks_digest(dp).0);
            let (res, wall, start) = run_step(dp, &self.batches, &probe, t);
            if update {
                updates += 1;
                let (after, agree) = masks_digest(dp);
                remaps += u64::from(Some(after) != before);
                if !agree {
                    failures.push(format!(
                        "step {t}: ranks disagree on the mask after a remap"
                    ));
                }
            }
            if updates > 0 && dp.nnz() as u64 != keep(t) {
                failures.push(format!(
                    "step {t}: nnz {} != trajectory keep count {}",
                    dp.nnz(),
                    keep(t)
                ));
            }
            (res, wall, start, update)
        };

        let mut warm_ok = true;
        for t in 0..WARMUP {
            let (res, ..) = checked_step(&mut dp, t);
            warm_ok &= res.is_ok();
        }
        let mut ep = Episode::new(origin.elapsed().as_secs_f64());
        ep.check(warm_ok, || "a warm-up step failed".into());
        for r in 0..WORLD {
            let (bytes, rphi, rnnz) = dp.with_rank(r, |_, states| {
                states.iter().fold((0u64, 0u64, 0u64), |acc, s| {
                    (
                        acc.0 + s.measured_bytes(true),
                        acc.1 + s.numel() as u64,
                        acc.2 + s.nnz() as u64,
                    )
                })
            });
            let want = m_samo_zero_bytes(rphi, 1.0 - rnnz as f64 / rphi as f64, WORLD as u64);
            ep.check(bytes == want && rphi == phi, || {
                format!("rank {r}: model_state_bytes {bytes} != m_samo_zero_bytes {want}")
            });
            ep.model_state_bytes = ep.model_state_bytes.max(bytes);
        }

        let mut layers = layers;
        let window0 = dp.comm_stats();
        let mut prev = window0.clone();
        for t in WARMUP..WARMUP + STEPS {
            let a0 = alloc::process();
            let (res, wall, start, update) = checked_step(&mut dp, t);
            let step_alloc = alloc::process().since(a0);
            span(
                if update { "step (remap)" } else { "step" },
                0,
                start,
                Instant::now(),
            );
            let pr = probe.lock().expect("probe poisoned");
            let loss = pr.loss.iter().sum::<f32>() / WORLD as f32;
            ep.steps.push(Step {
                ms: wall,
                samples: self.samples_per_step(),
                applied: matches!(res, Ok(true)),
                ok: res.is_ok() && loss.is_finite(),
            });
            if let Err(e) = &res {
                ep.failures.push(format!("step {t}: {e}"));
            }
            ep.loss_final = loss;
            if let Some(l) = layers.as_deref_mut() {
                let fwd = pr.fwd_ms.iter().copied().fold(0.0, f64::max);
                let fwd_alloc: u64 = pr.fwd_alloc.iter().map(|a| a.bytes).sum();
                let fwd_calls: u64 = pr.fwd_alloc.iter().map(|a| a.calls).sum();
                drop(pr);
                let stats = dp.comm_stats();
                let wire = max_delta(&stats, &prev, |s| s.wire_bytes);
                let model = max_delta(&stats, &prev, |s| s.model_allreduce_bytes);
                prev = stats;
                if update {
                    l.push("core.remap_step_ms", wall);
                    l.push("remap_wire_bytes", wire as f64);
                } else {
                    l.push("nn.forward_ms", fwd);
                    l.push("core.step_ms", wall);
                    l.push("core.step_rest_ms", wall - fwd);
                    l.push("step_ms", wall);
                    l.push("comms.wire_bytes_per_step", wire as f64);
                    l.push("comms.model_bytes_per_step", model as f64);
                    l.push("alloc.forward_bytes", fwd_alloc as f64);
                    l.push(
                        "alloc.step_bytes",
                        step_alloc.bytes.saturating_sub(fwd_alloc) as f64,
                    );
                    l.push(
                        "alloc.step_calls",
                        step_alloc.calls.saturating_sub(fwd_calls) as f64,
                    );
                }
            }
        }
        let wire = max_delta(&dp.comm_stats(), &window0, |s| s.wire_bytes);
        ep.wire_bytes_per_step = wire as f64 / STEPS as f64;
        ep.failures.append(&mut failures);
        ep.check(remaps == updates && updates > 0, || {
            format!("remap events {remaps} != schedule update steps {updates}")
        });
        ep
    }
}
