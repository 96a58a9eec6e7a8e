//! `gpt-1rank`: a pruned `TinyGpt` trained on one `SamoTrainer` with the
//! default kernel thread pool — the single-worker, compute-bound baseline.

use crate::alloc;
use crate::harness::{ms_since, span, Episode, Layers, Step};
use crate::setup::{adam, phi_nnz, prune_masks, Workload};
use models::tiny::{TinyGpt, TinyGptConfig};
use nn::data::Corpus;
use nn::layer::Layer;
use nn::loss::cross_entropy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use samo::SamoTrainer;
use std::time::Instant;

pub const DIM: usize = 256;
pub const LAYERS: usize = 4;
pub const HEADS: usize = 4;
pub const SEQ: usize = 64;
pub const BATCH: usize = 4;
const WARMUP: usize = 1;
const STEPS: usize = 10;

pub struct Gpt {
    seed: u64,
    batches: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Gpt {
    pub fn new(seed: u64) -> Gpt {
        let corpus = Corpus::generate(1 << 16, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let batches = (0..WARMUP + STEPS)
            .map(|_| corpus.sample_batch(BATCH, SEQ, &mut rng))
            .collect();
        Gpt { seed, batches }
    }

    pub fn config() -> TinyGptConfig {
        TinyGptConfig {
            vocab: nn::data::VOCAB,
            seq: SEQ,
            dim: DIM,
            heads: HEADS,
            layers: LAYERS,
        }
    }
}

/// Per-phase times and allocations of one step.
struct Phases {
    fwd_ms: f64,
    bwd_ms: f64,
    core_ms: f64,
    fwd_alloc: alloc::Tally,
    bwd_alloc: alloc::Tally,
    core_alloc: alloc::Tally,
}

fn train_step(
    model: &mut TinyGpt,
    tr: &mut SamoTrainer,
    batch: &(Vec<usize>, Vec<usize>),
) -> (f32, bool, Phases) {
    let t0 = Instant::now();
    let a0 = alloc::process();
    let logits = model.forward_ids(&batch.0, BATCH, SEQ);
    let (loss, mut dy) = cross_entropy(&logits, &batch.1);
    tensor::ops::scale(tr.loss_scale(), dy.as_mut_slice());
    let t1 = Instant::now();
    let a1 = alloc::process();
    model.backward(&dy);
    let t2 = Instant::now();
    let a2 = alloc::process();
    let applied = tr.step(model);
    let t3 = Instant::now();
    let a3 = alloc::process();
    span("nn.forward", 0, t0, t1);
    span("nn.backward", 0, t1, t2);
    span("core.SamoTrainer::step", 0, t2, t3);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let phases = Phases {
        fwd_ms: ms(t0, t1),
        bwd_ms: ms(t1, t2),
        core_ms: ms(t2, t3),
        fwd_alloc: a1.since(a0),
        bwd_alloc: a2.since(a1),
        core_alloc: a3.since(a2),
    };
    (loss, applied, phases)
}

impl Workload for Gpt {
    fn samples_per_step(&self) -> u64 {
        (BATCH * SEQ) as u64
    }

    fn steps_per_episode(&self) -> usize {
        STEPS
    }

    fn episode(&self, origin: Instant, layers: Option<&mut Layers>) -> Episode {
        let mut model = TinyGpt::new(Self::config(), self.seed);
        let masks = prune_masks(&model);
        let (phi, nnz) = phi_nnz(&masks);
        let mut tr = SamoTrainer::new(&mut model, masks, adam());
        let mut warm_ok = true;
        for b in &self.batches[..WARMUP] {
            let (loss, _, _) = train_step(&mut model, &mut tr, b);
            warm_ok &= loss.is_finite();
        }
        let mut ep = Episode::new(origin.elapsed().as_secs_f64());
        ep.check(warm_ok, || "non-finite loss during warm-up".into());
        let bytes = tr.model_state_bytes(true);
        ep.model_state_bytes = bytes;
        ep.check(bytes == 2 * phi + 24 * nnz, || {
            format!(
                "SamoTrainer model_state_bytes {bytes} != 24·fφ + 2φ = {}",
                2 * phi + 24 * nnz
            )
        });

        let mut layers = layers;
        for b in &self.batches[WARMUP..] {
            let t = Instant::now();
            let (loss, applied, ph) = train_step(&mut model, &mut tr, b);
            let wall = ms_since(t);
            span("step", 0, t, Instant::now());
            ep.steps.push(Step {
                ms: wall,
                samples: self.samples_per_step(),
                applied,
                ok: loss.is_finite(),
            });
            ep.loss_final = loss;
            if let Some(l) = layers.as_deref_mut() {
                l.push("nn.forward_ms", ph.fwd_ms);
                l.push("nn.backward_ms", ph.bwd_ms);
                l.push("core.step_ms", ph.core_ms);
                l.push("core.step_rest_ms", wall - ph.fwd_ms - ph.bwd_ms);
                l.push("step_ms", wall);
                l.push("alloc.forward_bytes", ph.fwd_alloc.bytes as f64);
                l.push("alloc.backward_bytes", ph.bwd_alloc.bytes as f64);
                l.push("alloc.step_bytes", ph.core_alloc.bytes as f64);
                l.push("alloc.step_calls", ph.core_alloc.calls as f64);
            }
        }
        ep.check(tr.nnz() as u64 == nnz, || {
            format!("static mask moved: nnz {} != {nnz}", tr.nnz())
        });
        ep
    }
}
