//! The thread-per-rank data-parallel runtime is **bitwise
//! interchangeable** with a single-process [`samo::SamoTrainer`] fed the
//! exact mean of the ranks' gradients (`support/dp_oracle.rs`): driven
//! with the same per-rank microbatches, both save byte-identical
//! checkpoints after every step, no matter how the rank threads
//! interleave — and a killed rank surfaces as a bounded `Err`, after
//! which heal + `restore` resynchronizes the group bitwise.
//!
//! (CI's comms matrix job runs this under `SAMO_THREADS=1` and the
//! default pool: rank parallelism must come from the comms threads,
//! not the GEMM pool.)

use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::mse;
use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use prune::Mask;
use samo::threaded::ThreadedDataParallelSamo;
use samo::SamoTrainer;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

mod support {
    pub mod dp_oracle;
}

const WORLD: usize = 2;
const IN: usize = 6;
const OUT: usize = 4;
const BATCH: usize = 5;

fn build_model(seed: u64) -> Sequential {
    Sequential::new()
        .push(Linear::new(IN, 8, true, seed))
        .push(nn::activations::Gelu::new())
        .push(Linear::new(8, OUT, true, seed + 1))
}

fn masks_for(model: &Sequential, seed: u64) -> Vec<Mask> {
    model
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if p.value.shape().len() >= 2 {
                prune::random_prune(p.value.shape(), 0.8, seed + i as u64)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// Deterministic per-rank microbatch for one step.
fn batch_for(rank: usize, step: usize) -> (Tensor, Tensor) {
    let seed = 5_000 + (step * WORLD + rank) as u64;
    (
        Tensor::randn(&[BATCH, IN], 1.0, seed),
        Tensor::randn(&[BATCH, OUT], 1.0, seed + 10_000),
    )
}

/// Forward + scaled loss-grad of `rank`'s microbatch at `step`: the
/// per-rank work of both the threaded group and the oracle.
fn seed(step: usize) -> impl Fn(usize, &mut Sequential, f32) -> Tensor + Send + Sync + 'static {
    move |rank, model, scale| {
        let (x, target) = batch_for(rank, step);
        let y = model.forward(&x);
        let (_, mut dy) = mse(&y, &target);
        tensor::ops::scale(scale, dy.as_mut_slice());
        dy
    }
}

fn threaded_step(group: &mut ThreadedDataParallelSamo<Sequential>, step: usize) -> Result<bool, String> {
    // The closure does forward + scaled loss-grad only; the rank thread
    // itself runs `backward_with_ready` to overlap the ring.
    group.step(seed(step))
}

/// The oracle: one replica and its trainer.
struct Reference {
    model: Sequential,
    trainer: SamoTrainer,
}

impl Reference {
    fn new(model_seed: u64, masks: Vec<Mask>) -> Reference {
        let mut model = build_model(model_seed);
        let trainer = SamoTrainer::new(&mut model, masks, adam());
        Reference { model, trainer }
    }

    fn save(&self) -> bytes::Bytes {
        self.trainer.save()
    }

    fn restore(&mut self, checkpoint: &[u8]) -> Result<(), String> {
        self.trainer.restore(checkpoint, &mut self.model)
    }

    fn steps_taken(&self) -> u64 {
        self.trainer.steps_taken()
    }
}

fn reference_step(group: &mut Reference, step: usize) -> bool {
    support::dp_oracle::oracle_step(&mut group.trainer, &mut group.model, WORLD, seed(step))
}

#[test]
fn threaded_group_checkpoints_bitwise_equal_to_in_process_group() {
    let replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(41)).collect();
    let masks = masks_for(&replicas[0], 141);
    let mut threaded = ThreadedDataParallelSamo::new(replicas, masks.clone(), adam());
    let mut reference = Reference::new(41, masks);

    for step in 0..4 {
        let applied = threaded_step(&mut threaded, step).expect("healthy step");
        // Overflow verdicts must agree too: both groups see the same
        // reduced gradient bits, so they skip the same steps.
        assert_eq!(applied, reference_step(&mut reference, step), "verdict at step {step}");
        assert_eq!(
            threaded.save().as_ref(),
            reference.save().as_ref(),
            "checkpoints diverged at step {step}"
        );
    }
    assert_eq!(threaded.steps_taken(), reference.steps_taken());
}

#[test]
fn killed_rank_errors_then_heal_restore_resyncs_bitwise() {
    let replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(43)).collect();
    let masks = masks_for(&replicas[0], 143);
    let mut threaded = ThreadedDataParallelSamo::with_comm_timeout(
        replicas,
        masks.clone(),
        adam(),
        Duration::from_millis(200),
    );
    let mut reference = Reference::new(43, masks);

    threaded_step(&mut threaded, 0).unwrap();
    reference_step(&mut reference, 0);
    let checkpoint = Arc::new(threaded.save());
    assert_eq!(checkpoint.as_ref().as_ref(), reference.save().as_ref());

    // Kill rank 1: the next step must surface as a bounded Err, not a
    // hang, and must not wedge the group.
    threaded.faults().kill_rank(1, WORLD);
    let err = threaded_step(&mut threaded, 1).expect_err("dead rank must fail the step");
    assert!(err.contains("timed out"), "unexpected error: {err}");

    // Recovery: heal the links, restore the pre-failure checkpoint on
    // both runtimes, and the replay is bitwise equal to a never-failed
    // group.
    threaded.faults().heal_rank(1, WORLD);
    threaded.restore(checkpoint.as_ref()).expect("restore after heal");
    reference.restore(checkpoint.as_ref()).expect("reference restore");
    for step in 1..3 {
        let applied = threaded_step(&mut threaded, step).expect("replay step");
        assert_eq!(applied, reference_step(&mut reference, step), "verdict at step {step}");
        assert_eq!(
            threaded.save().as_ref(),
            reference.save().as_ref(),
            "replay diverged at step {step}"
        );
    }
}

/// A gradient overflow on one rank poisons the reduced gradient on
/// every rank, so the whole group skips the step together — exactly as
/// the oracle does — and nobody's parameters move.
#[test]
fn overflow_on_one_rank_skips_the_step_on_every_rank() {
    let replicas: Vec<Sequential> = (0..WORLD).map(|_| build_model(45)).collect();
    let masks = masks_for(&replicas[0], 145);
    let mut threaded = ThreadedDataParallelSamo::new(replicas, masks.clone(), adam());
    let mut reference = Reference::new(45, masks);

    // Rank 1 seeds backward with an overflowing gradient.
    let poisoned = |rank: usize, model: &mut Sequential, scale: f32| {
        let mut dy = seed(0)(rank, model, scale);
        if rank == 1 {
            dy.as_mut_slice().fill(f32::INFINITY);
        }
        dy
    };
    assert!(!threaded.step(poisoned).expect("healthy mesh"));
    let oracle = support::dp_oracle::oracle_step;
    assert!(!oracle(&mut reference.trainer, &mut reference.model, WORLD, poisoned));
    assert_eq!((threaded.steps_taken(), threaded.steps_skipped()), (0, 1));
    assert_eq!(threaded.loss_scale(), reference.trainer.loss_scale());
    for rank in 0..WORLD {
        let params = threaded.with_rank(rank, |_, states| {
            states.iter().map(|s| s.theta16.clone()).collect::<Vec<_>>()
        });
        let want: Vec<_> = reference.trainer.layers.iter().map(|l| l.theta16.clone()).collect();
        assert_eq!(params, want, "rank {rank} moved on a skipped step");
    }
    assert_eq!(threaded.save().as_ref(), reference.save().as_ref());

    // The group recovers on the next healthy step.
    assert_eq!(threaded_step(&mut threaded, 1), Ok(true));
    assert!(reference_step(&mut reference, 1));
    assert_eq!(threaded.save().as_ref(), reference.save().as_ref());
}

/// Checkpoints are rank-count independent: a 3-rank group's checkpoint
/// restores into a 2-rank group, which then saves the same bytes and
/// keeps training in step with the oracle.
#[test]
fn checkpoint_restores_across_world_sizes() {
    let masks = masks_for(&build_model(47), 147);
    let mut three = ThreadedDataParallelSamo::new(
        (0..3).map(|_| build_model(47)).collect(),
        masks.clone(),
        adam(),
    );
    for step in 0..2 {
        three.step(seed(step)).expect("healthy step");
    }
    let checkpoint = three.save();

    let mut two = ThreadedDataParallelSamo::new(
        (0..WORLD).map(|_| build_model(47)).collect(),
        masks.clone(),
        adam(),
    );
    two.restore(&checkpoint).expect("restore across world sizes");
    assert_eq!(two.save().as_ref(), checkpoint.as_ref());
    assert_eq!(two.steps_taken(), three.steps_taken());

    let mut reference = Reference::new(47, masks);
    reference.restore(&checkpoint).expect("oracle restore");
    for step in 2..4 {
        threaded_step(&mut two, step).expect("healthy step");
        reference_step(&mut reference, step);
        assert_eq!(two.save().as_ref(), reference.save().as_ref(), "step {step}");
    }
}
