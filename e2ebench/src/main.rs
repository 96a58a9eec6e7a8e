//! End-to-end SAMO training benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in this process for about `--seconds`: repeated
//! episodes of set-up (model build, pruning, runtime construction, rank
//! spawn, connect, one warm-up step) followed by a fixed number of timed
//! training steps. Every episode replays the same seeded trajectory, so
//! the final losses of all episodes must agree bit for bit. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced episodes, times each layer from this
//! crate's own code, and writes a Chrome trace under `e2ebench/results/`.
//! The last stdout line is one JSON object; the exit code is non-zero
//! when any correctness check fails. See `README.md` for the workloads,
//! metrics and checks.

mod alloc;
mod dp2;
mod gpt;
mod harness;
mod micro;
mod pipe2;
mod setup;
mod tcp2;

use harness::{median, metric, percentile, Episode, Layers, Metric};
use setup::Workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use telemetry::json::Json;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `(name, SAMO_THREADS)`. Zero means the default pool, capped at two
/// threads so no workload runs more than two compute threads.
const WORKLOADS: [(&str, usize); 4] = [
    ("gpt-1rank", 0),
    ("mlp-dp2-regrow", 1),
    ("mlp-pipe2", 1),
    ("mlp-tcp2", 1),
];

/// The p90 step time needs at least ten samples beyond it.
const MIN_STEP_SAMPLES: usize = 100;
/// Episodes per run at least, so set-up time is a median of several.
const MIN_EPISODES: usize = 3;
/// Largest allowed |residual| of the phase sums against the step.
const STEP_TOL: f64 = 0.1;
/// Largest allowed |residual| of the stand-alone sub-layer sums against
/// the in-model pass. Looser: the parts leave out the embeddings, head,
/// residual adds and activation copies, and run alone with warm caches.
const SUBLAYER_TOL: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "gpt-1rank" => Box::new(gpt::Gpt::new(seed)),
        "mlp-dp2-regrow" => Box::new(dp2::Dp2::new(seed)),
        "mlp-pipe2" => Box::new(pipe2::Pipe2::new(seed)),
        "mlp-tcp2" => Box::new(tcp2::Tcp2::new(seed)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Provenance stamped on every result.
fn provenance(args: &Args, threads: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::from(args.workload.as_str())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("commit".into(), Json::from(harness::commit())),
        ("nproc".into(), Json::from(nproc)),
        (
            "simd_detected".into(),
            Json::from(if tensor::simd::detected_avx2() {
                "avx2"
            } else {
                "scalar"
            }),
        ),
        (
            "simd_active".into(),
            Json::from(tensor::simd::active().name()),
        ),
        (
            "SAMO_SIMD".into(),
            Json::from(std::env::var("SAMO_SIMD").unwrap_or_else(|_| "unset".into())),
        ),
        ("SAMO_THREADS".into(), Json::from(threads)),
    ])
}

/// Runs episodes until the next one would overrun the time budget. A plain
/// run keeps at least [`MIN_EPISODES`] episodes and [`MIN_STEP_SAMPLES`]
/// timed steps; a traced run alternates plain and traced episodes and
/// keeps at least one of each.
fn run_episodes(
    w: &dyn Workload,
    args: &Args,
    origin: Instant,
    layers: &mut Layers,
) -> (Vec<Episode>, Vec<Episode>) {
    let budget = Duration::from_secs_f64(args.seconds);
    let min_plain = if args.trace {
        1
    } else {
        MIN_EPISODES.max(MIN_STEP_SAMPLES.div_ceil(w.steps_per_episode()))
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut longest = Duration::ZERO;
    loop {
        let start = Instant::now();
        // The first episode's set-up counts from process start.
        let from = if plain.is_empty() { origin } else { start };
        if args.trace && plain.len() > traced.len() {
            harness::set_tracing(true);
            alloc::set_counting(true);
            traced.push(w.episode(from, Some(layers)));
            alloc::set_counting(false);
            let t = Instant::now();
            micro::sublayers(layers);
            harness::span("micro.sublayers", 0, t, Instant::now());
            harness::set_tracing(false);
        } else {
            plain.push(w.episode(from, None));
        }
        longest = longest.max(start.elapsed());
        let enough = plain.len() >= min_plain && (!args.trace || !traced.is_empty());
        if enough && origin.elapsed() + longest > budget {
            break;
        }
    }
    (plain, traced)
}

/// Global samples per second of the episode's timed steps.
fn rate(e: &Episode) -> f64 {
    let (samples, ms) = e
        .steps
        .iter()
        .fold((0u64, 0.0), |(n, t), s| (n + s.samples, t + s.ms));
    samples as f64 / (ms / 1e3)
}

/// Median step time of the episode.
fn p50(e: &Episode) -> f64 {
    median(&e.steps.iter().map(|s| s.ms).collect::<Vec<_>>())
}

fn per_episode(eps: &[Episode], f: fn(&Episode) -> f64) -> f64 {
    median(&eps.iter().map(f).collect::<Vec<_>>())
}

/// Correctness checks over all episodes; returns failure messages.
fn checks(all: &[&Episode]) -> Vec<String> {
    let mut out: Vec<String> = all
        .iter()
        .flat_map(|e| e.failures.iter().cloned())
        .collect();
    let first = all[0];
    for (i, e) in all.iter().enumerate() {
        if e.loss_final.to_bits() != first.loss_final.to_bits() {
            out.push(format!(
                "episode {i}: loss_final {:e} differs from episode 0's {:e} at the same seed",
                e.loss_final, first.loss_final
            ));
        }
        if e.model_state_bytes != first.model_state_bytes {
            out.push(format!(
                "episode {i}: model_state_bytes differ between episodes"
            ));
        }
    }
    out
}

/// Throughput and step time are medians over episodes of each episode's
/// own figure, so a burst of interference that slows a minority of
/// episodes does not move them; the p90 pools every timed step.
fn end_to_end(eps: &[Episode]) -> Vec<Metric> {
    let ms: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.steps.iter().map(|s| s.ms))
        .collect();
    vec![
        metric("samples_per_s", per_episode(eps, rate), "samples/s"),
        metric("step_ms_p50", per_episode(eps, p50), "ms"),
        metric("step_ms_p90", percentile(&ms, 0.9), "ms"),
        metric("setup_s", per_episode(eps, |e| e.setup_s), "s"),
        metric("peak_rss_mib", harness::peak_rss_mib(), "MiB"),
        metric("model_state_bytes", eps[0].model_state_bytes as f64, "B"),
        metric("loss_final", f64::from(eps[0].loss_final), "loss"),
    ]
}

/// Per-layer metrics from the traced episodes, plus the
/// self-consistency residuals. Rows a workload does not exercise are 0.
fn per_layer(workload: &str, l: &Layers, plain: &[Episode], traced: &[Episode]) -> Vec<Metric> {
    let m = |name: &str| l.median(name).unwrap_or(0.0);
    let steps: Vec<_> = traced.iter().flat_map(|e| &e.steps).collect();
    let applied = steps.iter().filter(|s| s.applied).count() as f64 / steps.len().max(1) as f64;
    let wire = m("comms.wire_bytes_per_step");
    let model = m("comms.model_bytes_per_step");
    let remap_wire = l.median("remap_wire_bytes").map_or(0.0, |r| r - wire);
    let bubbles = [
        m("pipeline.bubble_frac.stage0"),
        m("pipeline.bubble_frac.stage1"),
    ];
    let (fwd, bwd, core, step) = (
        m("nn.forward_ms"),
        m("nn.backward_ms"),
        m("core.step_ms"),
        m("step_ms"),
    );
    let residual = |parts: f64, whole: f64| {
        if whole > 0.0 {
            (parts - whole) / whole
        } else {
            0.0
        }
    };
    let (fwd_res, bwd_res) = if workload == "gpt-1rank" {
        let fwd_parts = micro::PER_BLOCK
            * (m("nn.linear_fwd_ms") + m("nn.gelu_fwd_ms") + m("nn.attention_fwd_ms"))
            + micro::LAYERNORMS * m("nn.layernorm_fwd_ms")
            + m("nn.loss_ms");
        let bwd_parts = micro::PER_BLOCK
            * (m("nn.linear_bwd_ms") + m("nn.gelu_bwd_ms") + m("nn.attention_bwd_ms"))
            + micro::LAYERNORMS * m("nn.layernorm_bwd_ms");
        (residual(fwd_parts, fwd), residual(bwd_parts, bwd))
    } else {
        (0.0, 0.0)
    };
    let step_res = match workload {
        // The step closure holds forward only; the runtime holds the rest.
        "mlp-dp2-regrow" => residual(fwd + m("core.step_rest_ms"), step),
        // The scheduler loop covers all but the collective epilogue.
        "mlp-pipe2" => residual(m("sched_wall_ms"), step),
        _ => residual(fwd + bwd + core, step),
    };
    let (tp, tt) = (per_episode(plain, rate), per_episode(traced, rate));
    vec![
        metric("nn.forward_ms", fwd, "ms"),
        metric("nn.backward_ms", bwd, "ms"),
        metric("nn.linear_fwd_ms", m("nn.linear_fwd_ms"), "ms"),
        metric("nn.linear_bwd_ms", m("nn.linear_bwd_ms"), "ms"),
        metric("nn.gelu_fwd_ms", m("nn.gelu_fwd_ms"), "ms"),
        metric("nn.gelu_bwd_ms", m("nn.gelu_bwd_ms"), "ms"),
        metric("nn.layernorm_fwd_ms", m("nn.layernorm_fwd_ms"), "ms"),
        metric("nn.layernorm_bwd_ms", m("nn.layernorm_bwd_ms"), "ms"),
        metric("nn.attention_fwd_ms", m("nn.attention_fwd_ms"), "ms"),
        metric("nn.attention_bwd_ms", m("nn.attention_bwd_ms"), "ms"),
        metric("nn.loss_ms", m("nn.loss_ms"), "ms"),
        metric("nn.linear_gflops", m("nn.linear_gflops"), "GF/s"),
        metric("nn.attention_gflops", m("nn.attention_gflops"), "GF/s"),
        metric("tensor.sgemm_gflops", m("tensor.sgemm_gflops"), "GF/s"),
        metric("core.step_ms", core, "ms"),
        metric("core.step_rest_ms", m("core.step_rest_ms"), "ms"),
        metric("core.remap_step_ms", m("core.remap_step_ms"), "ms"),
        metric("core.applied_ratio", applied, "ratio"),
        metric("prune.next_mask_ms", m("prune.next_mask_ms"), "ms"),
        metric("comms.wire_bytes_per_step", wire, "B"),
        metric("comms.model_bytes_per_step", model, "B"),
        metric(
            "comms.wire_over_model",
            if model > 0.0 { wire / model } else { 0.0 },
            "ratio",
        ),
        metric(
            "comms.pipe_wire_bytes_per_step",
            m("comms.pipe_wire_bytes_per_step"),
            "B",
        ),
        metric("comms.remap_wire_bytes", remap_wire, "B"),
        metric("pipeline.bubble_frac", bubbles[0].max(bubbles[1]), "ratio"),
        metric("pipeline.bubble_frac.stage0", bubbles[0], "ratio"),
        metric("pipeline.bubble_frac.stage1", bubbles[1], "ratio"),
        metric(
            "pipeline.recomputes_per_step",
            m("pipeline.recomputes_per_step"),
            "count",
        ),
        metric("alloc.forward_bytes", m("alloc.forward_bytes"), "B"),
        metric("alloc.backward_bytes", m("alloc.backward_bytes"), "B"),
        metric("alloc.step_bytes", m("alloc.step_bytes"), "B"),
        metric("alloc.step_calls", m("alloc.step_calls"), "count"),
        metric(
            "trace.overhead_frac",
            if tp > 0.0 { 1.0 - tt / tp } else { 0.0 },
            "ratio",
        ),
        metric("check.sublayer_fwd_residual", fwd_res, "ratio"),
        metric("check.sublayer_bwd_residual", bwd_res, "ratio"),
        metric("check.step_residual", step_res, "ratio"),
    ]
}

/// Where traces and run reports go, relative to the checkout root.
const RESULTS: &str = "e2ebench/results";

fn write_trace(args: &Args) -> Result<PathBuf, String> {
    let path = PathBuf::from(format!(
        "{RESULTS}/trace-{}-seed{}.json",
        args.workload, args.seed
    ));
    let spans = harness::take_spans();
    telemetry::trace::write_chrome_trace(&path, &spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Writes the run report: provenance, every metric, per-episode figures
/// and the checks that failed.
fn write_report(args: &Args, report: Json) -> Result<PathBuf, String> {
    let path = PathBuf::from(format!(
        "{RESULTS}/run-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(RESULTS)
        .and_then(|()| std::fs::write(&path, report.render()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let configured = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or(1, |w| w.1);
    let threads = if configured == 0 {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    } else {
        configured
    };
    // Before anything starts the kernel pool, which reads it once.
    std::env::set_var("SAMO_THREADS", threads.to_string());

    let prov = provenance(&args, threads);
    println!("provenance {}", prov.render());
    let w = make(&args.workload, args.seed);
    let mut layers = Layers::default();
    let (plain, traced) = run_episodes(w.as_ref(), &args, origin, &mut layers);
    let all: Vec<&Episode> = plain.iter().chain(&traced).collect();
    let mut failures = checks(&all);
    let attempted: usize = all.iter().map(|e| e.steps.len()).sum();
    let failed = all.iter().flat_map(|e| &e.steps).filter(|s| !s.ok).count();
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} steps failed"));
    }
    if attempted == 0 {
        failures.push("no step completed".into());
    }

    let timed = plain.iter().map(|e| e.steps.len()).sum::<usize>();
    let e2e = end_to_end(&plain);
    harness::print_metrics(
        &format!(
            "{} end to end ({} episodes, {} timed steps, p90 has {} beyond it)",
            args.workload,
            plain.len(),
            timed,
            timed - (0.9 * timed as f64).ceil() as usize
        ),
        &e2e,
    );
    // Shown here but not gated: both are 0 on some workloads. Failed steps
    // reach the result line as `failed`; wire bytes are a per-layer row.
    let wire = per_episode(&plain, |e| e.wire_bytes_per_step);
    println!("  {:<34} {:>16.1} B", "wire_bytes_per_step", wire);
    println!("  {:<34} {:>16} count", "failed_steps", failed);

    let per_layer_rows = if args.trace {
        micro::kernels(&mut layers);
        let pl = per_layer(&args.workload, &layers, &plain, &traced);
        harness::print_metrics(
            &format!(
                "{} per layer ({} traced episodes)",
                args.workload,
                traced.len()
            ),
            &pl,
        );
        for m in pl.iter().filter(|m| m.name.starts_with("check.")) {
            let tol = if m.name == "check.step_residual" {
                STEP_TOL
            } else {
                SUBLAYER_TOL
            };
            println!("  {} = {:+.4} (tolerance ±{tol})", m.name, m.value);
            if m.value.abs() > tol {
                failures.push(format!("{} {:+.4} exceeds ±{tol}", m.name, m.value));
            }
        }
        match write_trace(&args) {
            Ok(p) => println!("chrome trace written to {}", p.display()),
            Err(e) => failures.push(e),
        }
        pl
    } else {
        Vec::new()
    };
    let extra = [
        metric("wire_bytes_per_step", wire, "B"),
        metric("failed_steps", failed as f64, "count"),
        metric("step_samples", timed as f64, "count"),
    ];
    let episodes = plain.iter().map(|e| {
        Json::Obj(vec![
            ("setup_s".into(), Json::Num(e.setup_s)),
            ("step_ms_p50".into(), Json::Num(p50(e))),
            ("samples_per_s".into(), Json::Num(rate(e))),
        ])
    });
    let report = Json::Obj(vec![
        ("provenance".into(), prov),
        ("end_to_end".into(), harness::metrics_json(&e2e)),
        ("end_to_end_ungated".into(), harness::metrics_json(&extra)),
        ("per_layer".into(), harness::metrics_json(&per_layer_rows)),
        ("episodes".into(), Json::Arr(episodes.collect())),
        (
            "failed_checks".into(),
            Json::Arr(failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ]);
    match write_report(&args, report) {
        Ok(p) => println!("run report written to {}", p.display()),
        Err(e) => failures.push(e),
    }
    for f in failures.iter().take(20) {
        eprintln!("e2ebench: CHECK FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!(
            "e2ebench: ... and {} more failed checks",
            failures.len() - 20
        );
    }
    let correct = failures.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        (
            "metrics".into(),
            harness::metrics_json(if args.trace { &per_layer_rows } else { &e2e }),
        ),
    ]);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}
