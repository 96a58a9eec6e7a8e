//! End-to-end telemetry: training steps must produce counters, span
//! timings, and `metrics.jsonl` lines whose byte accounting matches the
//! paper's closed-form model-state size; the thread-per-rank runtimes
//! must write one step line and one mesh-aggregated `mesh_metrics` line
//! per step.

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::pipeline::{PipelineConfig, ThreadedPipelineSamo};
use samo::threaded::ThreadedDataParallelSamo;
use samo::trainer::{dense_formula_state_bytes, formula_state_bytes, SamoTrainer};
use std::path::PathBuf;
use std::sync::OnceLock;
use telemetry::json::Json;
use tensor::Tensor;

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig {
        lr: 0.05,
        ..Default::default()
    })
}

/// The `metrics.jsonl` every test in this binary writes to: the sink
/// opens once per process, on the first emit after this routes it to a
/// scratch directory.
fn metrics_jsonl() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("telemetry-integration-{}", std::process::id()));
        std::env::set_var("SAMO_RESULTS_DIR", &dir);
        dir.join("metrics.jsonl")
    })
}

/// Every `metrics.jsonl` record of `kind` so far. The file is shared by
/// every test in the binary, so tests select their records by kind.
/// Flushes first, so telemetry must still be enabled.
fn records(kind: &str) -> Vec<Json> {
    telemetry::jsonl::flush();
    let data = std::fs::read_to_string(metrics_jsonl()).unwrap_or_default();
    data.lines()
        .map(|l| Json::parse(l).expect("valid jsonl line"))
        .filter(|r| r.get("kind") == Some(&Json::from(kind)))
        .collect()
}

#[test]
fn samo_steps_record_counters_spans_and_jsonl() {
    metrics_jsonl();
    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    telemetry::take_spans();

    let mut model = Linear::new(8, 8, false, 1);
    let mask = prune::random_prune(&[8, 8], 0.75, 2);
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
    let x = Tensor::randn(&[4, 8], 1.0, 3);
    let target = Tensor::randn(&[4, 8], 1.0, 4);
    let steps = 3;
    for _ in 0..steps {
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
        model.backward(&dy);
        trainer.step(&mut model);
    }
    let lines = records("samo");
    telemetry::set_enabled(false);

    // Counters: every applied/skipped step is accounted for.
    let reg = telemetry::global();
    let taken = reg.counter("samo.steps_taken").get();
    let skipped = reg.counter("samo.steps_skipped").get();
    assert_eq!(taken + skipped, steps);
    assert_eq!(taken, trainer.steps_taken());

    // Gauges: loss scale mirrors the scaler; state bytes high-water mark
    // equals the (constant) measured size.
    assert_eq!(
        reg.gauge("samo.loss_scale").get(),
        f64::from(trainer.loss_scale())
    );
    assert_eq!(
        reg.gauge("samo.model_state_bytes").get(),
        trainer.model_state_bytes(true) as f64
    );

    // Spans: the fused compress kernel ran every step; the fused
    // optimizer+expand kernel only on applied steps.
    let spans = telemetry::take_spans();
    let count_of = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
    assert_eq!(count_of("samo.step.compress"), steps);
    assert_eq!(count_of("samo.step.optimizer"), taken);
    // And they feed the histogram of the same name.
    assert_eq!(reg.histogram("samo.step.compress").count(), steps);

    // JSONL: one line per step with the formula matching the measured
    // bytes (Adam: 2φ + 24·nnz).
    assert_eq!(lines.len(), steps as usize);
    let phi = trainer.numel() as u64;
    let nnz = trainer.nnz() as u64;
    let formula = formula_state_bytes(&trainer.opt, phi, nnz);
    assert_eq!(formula, 2 * phi + 24 * nnz);
    assert_eq!(formula, trainer.model_state_bytes(true));
    for line in &lines {
        assert_eq!(line.get("model_state_bytes"), Some(&Json::UInt(formula)));
        assert_eq!(line.get("formula_state_bytes"), Some(&Json::UInt(formula)));
    }
}

#[test]
fn formula_helpers_cover_both_optimizers() {
    use nn::optim::SgdConfig;
    let adam = adam();
    let sgd = Optimizer::Sgd(SgdConfig::default());
    assert_eq!(formula_state_bytes(&adam, 100, 10), 200 + 240);
    assert_eq!(formula_state_bytes(&sgd, 100, 10), 200 + 200);
    assert_eq!(dense_formula_state_bytes(&adam, 100), 2000);
    assert_eq!(dense_formula_state_bytes(&sgd, 100), 1600);
}

#[test]
fn disabled_telemetry_adds_no_metrics() {
    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(false);

    let mut model = Linear::new(6, 6, false, 9);
    let mask = prune::random_prune(&[6, 6], 0.5, 10);
    let mut trainer = SamoTrainer::new(&mut model, vec![mask], adam());
    let before = telemetry::global().counter("samo.steps_taken").get();
    let x = Tensor::randn(&[2, 6], 1.0, 11);
    let target = Tensor::randn(&[2, 6], 1.0, 12);
    let y = model.forward(&x);
    let (_, mut dy) = mse(&y, &target);
    tensor::ops::scale(trainer.loss_scale(), dy.as_mut_slice());
    model.backward(&dy);
    trainer.step(&mut model);

    assert_eq!(
        telemetry::global().counter("samo.steps_taken").get(),
        before
    );
    assert_eq!(telemetry::span::collected_span_count(), 0);
}

fn build_model(layers: u64, seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for i in 0..layers {
        m = m
            .push(Linear::new(6, 6, true, seed + i))
            .push(nn::activations::Gelu::new());
    }
    m
}

fn masks_for(model: &Sequential) -> Vec<Mask> {
    let shapes = model.params().into_iter().map(|p| p.value.shape().to_vec());
    let masks = shapes.enumerate().map(|(i, shape)| match shape.len() {
        1 => Mask::dense(&shape),
        _ => prune::random_prune(&shape, 0.5, 40 + i as u64),
    });
    masks.collect()
}

/// The loss-scaled mse gradient of `y` against a seeded target.
fn loss_grad(y: &Tensor, seed: u64, scale: f32) -> Tensor {
    let target = Tensor::randn(y.shape(), 1.0, seed);
    let (_, mut dy) = mse(y, &target);
    tensor::ops::scale(scale, dy.as_mut_slice());
    dy
}

/// The `(stage, data)` of every `per_rank` entry of one `mesh_metrics`
/// line; panics if an entry lacks either coordinate.
fn mesh_coords(line: &Json) -> Vec<(u64, u64)> {
    let Some(Json::Arr(per_rank)) = line.get("per_rank") else {
        panic!("mesh_metrics line without per_rank: {line:?}");
    };
    let coord = |e: &Json, k: &str| match e.get(k) {
        Some(Json::UInt(v)) => *v,
        other => panic!("per_rank entry {e:?} has {k} = {other:?}"),
    };
    per_rank
        .iter()
        .map(|e| (coord(e, "stage"), coord(e, "data")))
        .collect()
}

#[test]
fn data_parallel_steps_write_a_step_line_and_a_mesh_line_each() {
    metrics_jsonl();
    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    let (steps0, mesh0) = (
        records("samo_dp_threaded").len(),
        records("mesh_metrics").len(),
    );

    let replicas: Vec<Sequential> = (0..2).map(|_| build_model(2, 50)).collect();
    let masks = masks_for(&replicas[0]);
    let mut dp = ThreadedDataParallelSamo::new(replicas, masks, adam());
    let steps = 3;
    for step in 0..steps {
        dp.step(move |rank, model, scale| {
            let x = Tensor::randn(&[4, 6], 1.0, 60 + 10 * step + rank as u64);
            let y = model.forward(&x);
            loss_grad(&y, 160 + 10 * step + rank as u64, scale)
        })
        .expect("healthy step");
    }
    let lines = records("samo_dp_threaded").split_off(steps0);
    let mesh = records("mesh_metrics").split_off(mesh0);
    telemetry::set_enabled(false);

    let step_of = |l: &Json| l.get("step").cloned();
    let want: Vec<_> = (0..steps).map(|s| Some(Json::UInt(s))).collect();
    assert_eq!(lines.iter().map(step_of).collect::<Vec<_>>(), want);
    assert_eq!(mesh.iter().map(step_of).collect::<Vec<_>>(), want);
    // A data-parallel rank is stage 0 of a one-stage grid.
    for line in &mesh {
        assert_eq!(mesh_coords(line), [(0, 0), (0, 1)], "{line:?}");
    }
    // Join the rank threads, then drain the spans rank (0,0) recorded so
    // the shared collector is empty for the next test to take the lock.
    drop(dp);
    telemetry::take_spans();
}

#[test]
fn pipeline_steps_write_a_step_line_and_a_mesh_line_each() {
    metrics_jsonl();
    let _guard = telemetry::registry::test_lock();
    telemetry::set_enabled(true);
    let (steps0, mesh0) = (
        records("samo_pipeline").len(),
        records("mesh_metrics").len(),
    );

    let model = build_model(2, 70);
    let masks = masks_for(&model);
    let cfg = PipelineConfig::new(2, 3, 4);
    let mut pipe = ThreadedPipelineSamo::new(vec![model], masks, adam(), cfg);
    let steps = 3;
    for step in 0..steps {
        pipe.step(
            move |_, mb| Tensor::randn(&[4, 6], 1.0, 80 + 10 * step + mb as u64),
            move |_, mb, y, scale| loss_grad(y, 180 + 10 * step + mb as u64, scale),
        )
        .expect("healthy step");
    }
    let lines = records("samo_pipeline").split_off(steps0);
    let mesh = records("mesh_metrics").split_off(mesh0);
    telemetry::set_enabled(false);

    let step_of = |l: &Json| l.get("step").cloned();
    let want: Vec<_> = (0..steps).map(|s| Some(Json::UInt(s))).collect();
    assert_eq!(lines.iter().map(step_of).collect::<Vec<_>>(), want);
    assert_eq!(mesh.iter().map(step_of).collect::<Vec<_>>(), want);
    for line in &mesh {
        assert_eq!(mesh_coords(line), [(0, 0), (1, 0)], "{line:?}");
    }
    // Rank (0,0) records its own stage's measured state bytes.
    let bytes: u64 = pipe.with_rank(0, 0, |_, states| {
        states.iter().map(|s| s.measured_bytes(true)).sum()
    });
    let gauge = telemetry::global().gauge("samo.pipeline.model_state_bytes");
    assert_eq!(gauge.get(), bytes as f64);
    for line in &lines {
        assert_eq!(line.get("model_state_bytes"), Some(&Json::UInt(bytes)));
    }
    drop(pipe);
    telemetry::take_spans();
}
