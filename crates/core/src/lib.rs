//! SAMO — Sparsity-Aware Memory Optimization.
//!
//! The core contribution of "Exploiting Sparsity in Pruned Neural
//! Networks to Optimize Large Model Training" (Singh & Bhatele, IPDPS
//! 2023): given a network pruned to sparsity `p`, keep the fp16 compute
//! parameters dense (fast dense kernels) and store every other
//! model-state tensor compressed against one shared linearized index
//! tensor, cutting model-state memory from `20φ` to `24(1−p)φ + 2φ`
//! bytes — then spend the savings on communication (smaller all-reduce
//! messages; fewer pipeline stages).
//!
//! * [`compressed`] — compress / "expand" primitives,
//! * [`memory`] — the Sec. III-D analytical model (Fig. 2) and byte-exact
//!   accounting,
//! * [`state`] — [`state::SamoLayerState`], the per-layer compressed
//!   mixed-precision model state (whole, or a ZeRO rank's shard of its
//!   optimizer-side tensors), its fused step kernels and the three-phase
//!   reference step,
//! * [`trainer`] — whole-model SAMO training (the one unsharded step:
//!   remap → compress → verdict → optimizer), the dense masked baseline
//!   it is numerically equivalent to, and the compressed all-reduce,
//! * [`dist`] — [`DistDataParallel`], the trainer plus a cross-process
//!   communicator (the `samo-launch` runtime),
//! * [`threaded`] / [`pipeline`] — thread-per-rank data-parallel and
//!   hybrid pipeline runtimes, sharing one sharded rank core and one
//!   rank-thread host,
//! * [`serialize`] / [`checkpoint`] — the CRC-validated v2 checkpoint
//!   format and durable on-disk checkpointing (atomic writes, cadence +
//!   retention),
//! * [`sentinel`] — divergence detection driving checkpoint rollback.

//! ```
//! use nn::layer::Layer;
//! // Prune a layer to 90% and train it with compressed model state.
//! let mut model = nn::Linear::new(32, 32, true, 7);
//! let masks = vec![
//!     prune::magnitude_prune(
//!         model.params()[0].value.as_slice(), &[32, 32], 0.9),
//!     prune::Mask::dense(&[32]), // bias stays dense
//! ];
//! let opt = nn::mixed::Optimizer::Adam(nn::optim::AdamConfig::default());
//! let trainer = samo::SamoTrainer::new(&mut model, masks, opt);
//! // Model state: 2φ dense θ16 + 24 bytes per unpruned parameter,
//! // versus 20φ for dense mixed precision.
//! assert!(trainer.model_state_bytes(true) < 20 * trainer.numel() as u64 / 2);
//! ```

pub mod checkpoint;
pub mod compressed;
pub mod dist;
pub mod memory;
pub mod pipeline;
mod rank;
pub mod sentinel;
pub mod serialize;
pub mod state;
pub mod threaded;
pub mod trainer;

pub use checkpoint::{
    load_checkpoint_file, publish_marker_path, CheckpointConfig, CheckpointManager,
    CheckpointSubscriber,
};
pub use compressed::{compress_f16, compress_f32, expand_f16, expand_f32};
pub use memory::{
    m_default_bytes, m_samo_bytes, m_samo_zero_bytes, samo_savings_fraction, SamoBreakdown,
};
pub use dist::DistDataParallel;
pub use pipeline::{PipelineConfig, StageStats, ThreadedPipelineSamo};
pub use sentinel::{DivergenceSentinel, SentinelConfig, Verdict};
pub use serialize::TrainerMeta;
pub use state::SamoLayerState;
pub use threaded::ThreadedDataParallelSamo;
pub use trainer::{DenseMaskedTrainer, SamoTrainer};
