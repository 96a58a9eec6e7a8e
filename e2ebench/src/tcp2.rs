//! `mlp-tcp2`: two `DistDataParallel` ranks (the `samo-launch` trainer)
//! over loopback `TcpTransport` endpoints, one thread per rank.

use crate::alloc;
use crate::dp2::{BLOCKS, ROWS_PER_RANK, WIDTH, WORLD};
use crate::harness::{ms_since, span, Episode, Layers, Step};
use crate::setup::{adam, mlp, phi_nnz, prune_masks, regression_batches, Workload};
use comms::{Communicator, TcpTransport, Transport};
use nn::layer::{Layer, Sequential};
use nn::loss::mse;
use samo::DistDataParallel;
use std::sync::Barrier;
use std::time::Instant;
use tensor::Tensor;

const WARMUP: usize = 1;
const STEPS: usize = 30;

pub struct Tcp2 {
    seed: u64,
    batches: Vec<(Tensor, Tensor)>,
}

impl Tcp2 {
    pub fn new(seed: u64) -> Tcp2 {
        Tcp2 {
            seed,
            batches: regression_batches(8 * WORLD, ROWS_PER_RANK, WIDTH, seed),
        }
    }
}

/// One timed step as one rank saw it.
struct RankStep {
    wall_ms: f64,
    loss: f32,
    res: Result<bool, String>,
    /// Forward + loss, backward, `DistDataParallel::step`.
    ms: [f64; 3],
    alloc: [alloc::Tally; 3],
    wire_bytes: u64,
    model_bytes: u64,
}

/// What one rank thread reports.
struct RankRun {
    steps: Vec<RankStep>,
    setup_done: Option<Instant>,
    model_state_bytes: u64,
    failures: Vec<String>,
}

/// One rank's step: forward + loss, backward, then `DistDataParallel::step`
/// with its compressed ring. Returns `(loss, result, fwd, bwd, core)`
/// times and this thread's allocations per phase.
fn rank_step(
    model: &mut Sequential,
    ddp: &mut DistDataParallel<TcpTransport>,
    batch: &(Tensor, Tensor),
    lane: u64,
) -> (f32, Result<bool, String>, [f64; 3], [alloc::Tally; 3]) {
    let t0 = Instant::now();
    let a0 = alloc::thread();
    let out = model.forward(&batch.0);
    let (loss, mut dy) = mse(&out, &batch.1);
    tensor::ops::scale(ddp.loss_scale(), dy.as_mut_slice());
    let t1 = Instant::now();
    let a1 = alloc::thread();
    model.backward(&dy);
    let t2 = Instant::now();
    let a2 = alloc::thread();
    let res = ddp.step(model).map_err(|e| e.to_string());
    let t3 = Instant::now();
    let a3 = alloc::thread();
    span("nn.forward", lane, t0, t1);
    span("nn.backward", lane, t1, t2);
    span("core.DistDataParallel::step", lane, t2, t3);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (
        loss,
        res,
        [ms(t0, t1), ms(t1, t2), ms(t2, t3)],
        [a1.since(a0), a2.since(a1), a3.since(a2)],
    )
}

impl Tcp2 {
    fn rank_main(&self, t: TcpTransport, barrier: &Barrier) -> RankRun {
        let rank = t.rank();
        let lane = 1 + rank as u64;
        let mut model = mlp(WIDTH, BLOCKS, self.seed);
        let masks = prune_masks(&model);
        let (phi, nnz) = phi_nnz(&masks);
        let mut ddp = DistDataParallel::new(&mut model, masks, adam(), Communicator::new(t));
        let mut run = RankRun {
            steps: Vec::with_capacity(STEPS),
            setup_done: None,
            model_state_bytes: 0,
            failures: Vec::new(),
        };
        let batch = |t: usize| &self.batches[(t * WORLD + rank) % self.batches.len()];
        for t in 0..WARMUP {
            if let (_, Err(e), ..) = rank_step(&mut model, &mut ddp, batch(t), lane) {
                run.failures.push(format!("rank {rank} warm-up: {e}"));
            }
        }
        let bytes: u64 = ddp.layers.iter().map(|l| l.measured_bytes(true)).sum();
        run.model_state_bytes = bytes;
        if bytes != 2 * phi + 24 * nnz {
            run.failures.push(format!(
                "rank {rank}: model_state_bytes {bytes} != 24·fφ + 2φ = {}",
                2 * phi + 24 * nnz
            ));
        }
        barrier.wait();
        run.setup_done = Some(Instant::now());
        for t in WARMUP..WARMUP + STEPS {
            let wire0 = ddp.comm_mut().transport().bytes_sent();
            let model0 = ddp.comm_mut().model_allreduce_bytes();
            let start = Instant::now();
            let (loss, res, ms, al) = rank_step(&mut model, &mut ddp, batch(t), lane);
            let wall = ms_since(start);
            span("step", lane, start, Instant::now());
            let failed = res.is_err();
            let c = ddp.comm_mut();
            run.steps.push(RankStep {
                wall_ms: wall,
                loss,
                res,
                ms,
                alloc: al,
                wire_bytes: c.transport().bytes_sent() - wire0,
                model_bytes: c.model_allreduce_bytes() - model0,
            });
            if failed {
                // The peer sees the broken ring too; stop rather than wait
                // out a timeout per remaining step.
                break;
            }
        }
        run
    }
}

impl Workload for Tcp2 {
    fn samples_per_step(&self) -> u64 {
        (WORLD * ROWS_PER_RANK) as u64
    }

    fn steps_per_episode(&self) -> usize {
        STEPS
    }

    fn episode(&self, origin: Instant, layers: Option<&mut Layers>) -> Episode {
        let mesh = match TcpTransport::local_mesh(WORLD) {
            Ok(m) => m,
            Err(e) => {
                let mut ep = Episode::new(origin.elapsed().as_secs_f64());
                ep.failures.push(format!("loopback mesh: {e}"));
                return ep;
            }
        };
        let barrier = Barrier::new(WORLD);
        let runs: Vec<RankRun> = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .map(|t| {
                    let barrier = &barrier;
                    std::thread::Builder::new()
                        .name(format!("e2ebench-tcp-rank{}", t.rank()))
                        .spawn_scoped(s, move || self.rank_main(t, barrier))
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        let setup_done = runs[0].setup_done.unwrap_or_else(Instant::now);
        let mut ep = Episode::new((setup_done - origin).as_secs_f64());
        let n = runs.iter().map(|r| r.steps.len()).min().unwrap_or(0);
        let mut layers = layers;
        for k in 0..n {
            let at = |r: usize| &runs[r].steps[k];
            let ok = (0..WORLD).all(|r| at(r).res.is_ok() && at(r).loss.is_finite());
            let loss = (0..WORLD).map(|r| at(r).loss).sum::<f32>() / WORLD as f32;
            let s0 = at(0);
            ep.steps.push(Step {
                ms: s0.wall_ms,
                samples: self.samples_per_step(),
                applied: matches!(s0.res, Ok(true)),
                ok,
            });
            ep.loss_final = loss;
            if let Some(l) = layers.as_deref_mut() {
                // Times as rank 0 saw them, allocations of both ranks,
                // wire bytes of the busier rank.
                let sum = |i: usize, f: fn(&alloc::Tally) -> u64| {
                    (0..WORLD).map(|r| f(&at(r).alloc[i])).sum::<u64>() as f64
                };
                l.push("nn.forward_ms", s0.ms[0]);
                l.push("nn.backward_ms", s0.ms[1]);
                l.push("core.step_ms", s0.ms[2]);
                l.push("core.step_rest_ms", s0.wall_ms - s0.ms[0] - s0.ms[1]);
                l.push("step_ms", s0.wall_ms);
                l.push("alloc.forward_bytes", sum(0, |a| a.bytes));
                l.push("alloc.backward_bytes", sum(1, |a| a.bytes));
                l.push("alloc.step_bytes", sum(2, |a| a.bytes));
                l.push("alloc.step_calls", sum(2, |a| a.calls));
                let max = |f: fn(&RankStep) -> u64| {
                    (0..WORLD).map(|r| f(at(r))).max().unwrap_or(0) as f64
                };
                l.push("comms.wire_bytes_per_step", max(|s| s.wire_bytes));
                l.push("comms.model_bytes_per_step", max(|s| s.model_bytes));
            }
        }
        let wire: u64 = (0..n)
            .map(|k| {
                runs.iter()
                    .map(|r| r.steps[k].wire_bytes)
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        ep.wire_bytes_per_step = wire as f64 / n.max(1) as f64;
        ep.check(n == STEPS, || {
            format!("only {n} of {STEPS} steps completed on every rank")
        });
        for (r, run) in runs.into_iter().enumerate() {
            for (k, s) in run.steps.iter().enumerate() {
                if let Err(e) = &s.res {
                    ep.failures
                        .push(format!("rank {r} step {}: {e}", WARMUP + k));
                }
            }
            ep.failures.extend(run.failures);
            ep.model_state_bytes = ep.model_state_bytes.max(run.model_state_bytes);
        }
        ep
    }
}
