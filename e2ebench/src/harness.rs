//! Run loop, statistics, spans and reporting shared by every workload.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use telemetry::json::Json;
use telemetry::trace::TraceEvent;

/// One timed training step.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    pub ms: f64,
    /// Global samples (tokens for the GPT, input rows otherwise).
    pub samples: u64,
    /// The loss scaler applied the update (it skips on overflow).
    pub applied: bool,
    /// `false` when the step returned `Err`, panicked or produced a
    /// non-finite loss.
    pub ok: bool,
}

/// One set-up plus a fixed number of timed steps. Every episode of a run
/// replays the same trajectory, so their final losses must agree bitwise.
pub struct Episode {
    pub setup_s: f64,
    pub steps: Vec<Step>,
    pub loss_final: f32,
    /// Model-state bytes of the largest rank, as measured.
    pub model_state_bytes: u64,
    /// Bytes pushed into links per rank per timed step, max over ranks.
    pub wire_bytes_per_step: f64,
    /// Failed correctness checks, one message each.
    pub failures: Vec<String>,
}

impl Episode {
    pub fn new(setup_s: f64) -> Episode {
        Episode {
            setup_s,
            steps: Vec::new(),
            loss_final: f32::NAN,
            model_state_bytes: 0,
            wire_bytes_per_step: 0.0,
            failures: Vec::new(),
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(msg());
        }
    }
}

/// Per-layer sample series from the traced episodes, by metric name.
#[derive(Default)]
pub struct Layers {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.series
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` in (0, 1].
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

// ---- Spans -----------------------------------------------------------

static TRACING: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn set_tracing(on: bool) {
    epoch();
    TRACING.store(on, Ordering::Relaxed);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Records one complete span on trace lane `lane` (0 is the driving
/// thread, `1 + r` is rank or stage `r`) while tracing is on.
pub fn span(name: &str, lane: u64, start: Instant, end: Instant) {
    if !tracing() {
        return;
    }
    let ts_us = start.saturating_duration_since(epoch()).as_secs_f64() * 1e6;
    let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
    SPANS
        .lock()
        .expect("span recorder poisoned")
        .push(TraceEvent {
            name: name.to_string(),
            cat: "e2ebench".into(),
            pid: 1,
            tid: lane,
            ts_us,
            dur_us,
            args: Vec::new(),
        });
}

pub fn take_spans() -> Vec<TraceEvent> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

// ---- Process facts ---------------------------------------------------

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git, or
/// `unknown` when the tree is not a git repository.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(h) = read(&format!(".git/{r}")) {
        return h;
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

// ---- Reporting -------------------------------------------------------

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
