//! `mlp-pipe2`: `ThreadedPipelineSamo` with two pipeline stages and one
//! data replica, driven by the 1F1B scheduler over p2p activations.

use crate::alloc;
use crate::harness::{ms_since, span, Episode, Layers, Step};
use crate::setup::{adam, mlp, phi_nnz, prune_masks, regression_batches, Workload};
use nn::loss::mse;
use samo::{m_samo_zero_bytes, PipelineConfig, StageStats, ThreadedPipelineSamo};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tensor::Tensor;

pub const WIDTH: usize = 512;
pub const BLOCKS: usize = 4;
pub const G_INTER: usize = 2;
pub const MICROBATCHES: usize = 8;
pub const MB_ROWS: usize = 16;
const WARMUP: usize = 1;
const STEPS: usize = 30;

pub struct Pipe2 {
    seed: u64,
    batches: Arc<Vec<(Tensor, Tensor)>>,
}

impl Pipe2 {
    pub fn new(seed: u64) -> Pipe2 {
        Pipe2 {
            seed,
            batches: Arc::new(regression_batches(4 * MICROBATCHES, MB_ROWS, WIDTH, seed)),
        }
    }
}

fn run_step(
    pp: &mut ThreadedPipelineSamo,
    batches: &Arc<Vec<(Tensor, Tensor)>>,
    losses: &Arc<Mutex<Vec<f32>>>,
    t: usize,
) -> (Result<bool, String>, f32) {
    let (xs, ys, ls) = (Arc::clone(batches), Arc::clone(batches), Arc::clone(losses));
    let n = batches.len();
    let res = pp.step(
        move |_, mb| xs[(t * MICROBATCHES + mb) % n].0.clone(),
        move |_, mb, y, scale| {
            let (loss, mut dy) = mse(y, &ys[(t * MICROBATCHES + mb) % n].1);
            tensor::ops::scale(scale, dy.as_mut_slice());
            ls.lock().expect("loss slot poisoned")[mb] = loss;
            dy
        },
    );
    let loss = losses
        .lock()
        .expect("loss slot poisoned")
        .iter()
        .sum::<f32>()
        / MICROBATCHES as f32;
    (res, loss)
}

/// Per-stage deltas of the cumulative scheduler statistics.
fn deltas(a: &[StageStats], b: &[StageStats]) -> Vec<StageStats> {
    a.iter()
        .zip(b)
        .map(|(a, b)| StageStats {
            fwd_s: a.fwd_s - b.fwd_s,
            bwd_s: a.bwd_s - b.bwd_s,
            sched_wall_s: a.sched_wall_s - b.sched_wall_s,
            recomputes: a.recomputes - b.recomputes,
            pipe_wire_bytes: a.pipe_wire_bytes - b.pipe_wire_bytes,
            data_wire_bytes: a.data_wire_bytes - b.data_wire_bytes,
            ..StageStats::default()
        })
        .collect()
}

impl Workload for Pipe2 {
    fn samples_per_step(&self) -> u64 {
        (MICROBATCHES * MB_ROWS) as u64
    }

    fn steps_per_episode(&self) -> usize {
        STEPS
    }

    fn episode(&self, origin: Instant, layers: Option<&mut Layers>) -> Episode {
        let model = mlp(WIDTH, BLOCKS, self.seed);
        let masks = prune_masks(&model);
        let (phi, _) = phi_nnz(&masks);
        let cfg = PipelineConfig::new(G_INTER, MICROBATCHES, MB_ROWS);
        let mut pp = ThreadedPipelineSamo::new(vec![model], masks, adam(), cfg);
        let losses = Arc::new(Mutex::new(vec![f32::NAN; MICROBATCHES]));
        let mut warm_ok = true;
        for t in 0..WARMUP {
            warm_ok &= run_step(&mut pp, &self.batches, &losses, t).0.is_ok();
        }
        let mut ep = Episode::new(origin.elapsed().as_secs_f64());
        ep.check(warm_ok, || "a warm-up step failed".into());
        let mut total_phi = 0;
        for s in 0..G_INTER {
            let (bytes, sphi, snnz) = pp.with_rank(s, 0, |_, states| {
                states.iter().fold((0u64, 0u64, 0u64), |acc, st| {
                    (
                        acc.0 + st.measured_bytes(true),
                        acc.1 + st.numel() as u64,
                        acc.2 + st.nnz() as u64,
                    )
                })
            });
            total_phi += sphi;
            let want = m_samo_zero_bytes(sphi, 1.0 - snnz as f64 / sphi as f64, pp.g_data() as u64);
            ep.check(bytes == want, || {
                format!("stage {s}: model_state_bytes {bytes} != m_samo_zero_bytes {want}")
            });
            ep.model_state_bytes = ep.model_state_bytes.max(bytes);
        }
        ep.check(total_phi == phi, || {
            format!("stages hold {total_phi} parameters, model has {phi}")
        });

        let stats0 = pp.stage_stats();
        let a0 = alloc::process();
        for t in WARMUP..WARMUP + STEPS {
            let start = Instant::now();
            let (res, loss) = run_step(&mut pp, &self.batches, &losses, t);
            let wall = ms_since(start);
            span("step", 0, start, Instant::now());
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
        }
        let steps_alloc = alloc::process().since(a0);
        let n = STEPS as f64;
        let d = deltas(&pp.stage_stats(), &stats0);
        let max = |f: &dyn Fn(&StageStats) -> f64| d.iter().map(f).fold(0.0, f64::max);
        ep.wire_bytes_per_step = max(&|s| (s.pipe_wire_bytes + s.data_wire_bytes) as f64) / n;
        if let Some(l) = layers {
            let mean_wall = ep.steps.iter().map(|s| s.ms).sum::<f64>() / n;
            let compute = max(&|s| s.fwd_s + s.bwd_s) * 1e3 / n;
            l.push("nn.forward_ms", max(&|s| s.fwd_s) * 1e3 / n);
            l.push("nn.backward_ms", max(&|s| s.bwd_s) * 1e3 / n);
            l.push("core.step_ms", mean_wall);
            l.push("core.step_rest_ms", mean_wall - compute);
            l.push("sched_wall_ms", max(&|s| s.sched_wall_s) * 1e3 / n);
            l.push("step_ms", mean_wall);
            for (i, s) in d.iter().enumerate() {
                let bubble = 1.0 - (s.fwd_s + s.bwd_s) / s.sched_wall_s;
                l.push(
                    if i == 0 {
                        "pipeline.bubble_frac.stage0"
                    } else {
                        "pipeline.bubble_frac.stage1"
                    },
                    bubble,
                );
            }
            l.push(
                "pipeline.recomputes_per_step",
                d.iter().map(|s| s.recomputes as f64).sum::<f64>() / n,
            );
            l.push(
                "comms.pipe_wire_bytes_per_step",
                max(&|s| s.pipe_wire_bytes as f64) / n,
            );
            l.push(
                "comms.wire_bytes_per_step",
                max(&|s| (s.pipe_wire_bytes + s.data_wire_bytes) as f64) / n,
            );
            l.push("alloc.step_bytes", steps_alloc.bytes as f64 / n);
            l.push("alloc.step_calls", steps_alloc.calls as f64 / n);
        }
        ep
    }
}
