//! Stand-alone timings of single public layers, taken by the traced run:
//! the `gpt-1rank` sub-layers at that workload's activation shapes, the
//! sgemm roofline they are judged against, and one `MaskSchedule::next_mask`.

use crate::dp2;
use crate::gpt::{BATCH, DIM, HEADS, SEQ};
use crate::harness::{median, Layers};
use nn::activations::Gelu;
use nn::attention::CausalSelfAttention;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::loss::cross_entropy;
use nn::norm::LayerNorm;
use std::hint::black_box;
use std::time::Instant;
use tensor::Tensor;

const REPS: usize = 5;

/// Calls of each sub-layer in one `TinyGpt` forward (and backward).
pub const PER_BLOCK: f64 = crate::gpt::LAYERS as f64;
/// Two LayerNorms per block plus the final one.
pub const LAYERNORMS: f64 = 2.0 * PER_BLOCK + 1.0;

/// Median milliseconds of `REPS` calls of `f`, after one warm-up call.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// Forward and backward medians of `layer` on input `x`, seeded with
/// upstream gradient `dy`. Forward is re-run before each backward so the
/// layer's activation cache matches, and that forward is not timed.
fn fwd_bwd(layer: &mut impl Layer, x: &Tensor, dy: &Tensor) -> (f64, f64) {
    let fwd = time_ms(|| {
        black_box(layer.forward(black_box(x)));
    });
    layer.forward(x);
    layer.backward(dy);
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            layer.forward(x);
            let t = Instant::now();
            black_box(layer.backward(black_box(dy)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layer.zero_grad();
    (fwd, median(&v))
}

/// The `gpt-1rank` sub-layers; the traced run calls this after every
/// traced episode, so the medians spread over the run like the in-model
/// timings they are compared with.
pub fn sublayers(l: &mut Layers) {
    let rows = BATCH * SEQ;
    let x_rows = Tensor::randn(&[rows, DIM], 1.0, 11);
    let x_btc = Tensor::randn(&[BATCH, SEQ, DIM], 1.0, 12);
    let dy_btc = Tensor::randn(&[BATCH, SEQ, DIM], 0.01, 13);

    // The MLP pair of one block: Linear(256→1024), then Linear(1024→256).
    let mut up = Linear::new(DIM, 4 * DIM, true, 14);
    let mut down = Linear::new(4 * DIM, DIM, true, 15);
    let h = up.forward(&x_rows);
    let (up_f, up_b) = fwd_bwd(&mut up, &x_rows, &Tensor::randn(&[rows, 4 * DIM], 0.01, 16));
    let (down_f, down_b) = fwd_bwd(&mut down, &h, &Tensor::randn(&[rows, DIM], 0.01, 17));
    l.push("nn.linear_fwd_ms", up_f + down_f);
    l.push("nn.linear_bwd_ms", up_b + down_b);
    let linear_flops = 3.0 * 2.0 * 2.0 * (rows * DIM * 4 * DIM) as f64;
    l.push(
        "nn.linear_gflops",
        linear_flops / ((up_f + up_b + down_f + down_b) * 1e6),
    );

    let (f, b) = fwd_bwd(
        &mut Gelu::new(),
        &h,
        &Tensor::randn(&[rows, 4 * DIM], 0.01, 18),
    );
    l.push("nn.gelu_fwd_ms", f);
    l.push("nn.gelu_bwd_ms", b);

    let (f, b) = fwd_bwd(&mut LayerNorm::new(DIM), &x_btc, &dy_btc);
    l.push("nn.layernorm_fwd_ms", f);
    l.push("nn.layernorm_bwd_ms", b);

    let (f, b) = fwd_bwd(
        &mut CausalSelfAttention::new(DIM, HEADS, 19),
        &x_btc,
        &dy_btc,
    );
    l.push("nn.attention_fwd_ms", f);
    l.push("nn.attention_bwd_ms", b);
    // QKV and output projections plus QKᵀ and AV; backward is twice forward.
    let proj = 2.0 * (rows * DIM * 4 * DIM) as f64;
    let scores = 2.0 * 2.0 * (BATCH * SEQ * SEQ * DIM) as f64;
    l.push(
        "nn.attention_gflops",
        3.0 * (proj + scores) / ((f + b) * 1e6),
    );

    let logits = Tensor::randn(&[rows, nn::data::VOCAB], 1.0, 20);
    let targets: Vec<usize> = (0..rows).map(|i| (i * 7) % nn::data::VOCAB).collect();
    l.push(
        "nn.loss_ms",
        time_ms(|| {
            black_box(cross_entropy(black_box(&logits), &targets));
        }),
    );
}

/// The sgemm roofline and one `next_mask`, once per traced run.
pub fn kernels(l: &mut Layers) {
    let rows = BATCH * SEQ;
    // Roofline: the up-projection GEMM shape through the raw kernel.
    let (m, n, k) = (rows, 4 * DIM, DIM);
    let a = Tensor::randn(&[m, k], 1.0, 21);
    let bm = Tensor::randn(&[k, n], 1.0, 22);
    let mut c = vec![0.0f32; m * n];
    let ms = time_ms(|| {
        tensor::gemm::matmul(m, n, k, a.as_slice(), bm.as_slice(), &mut c);
        black_box(&c);
    });
    l.push("tensor.sgemm_gflops", 2.0 * (m * n * k) as f64 / (ms * 1e6));

    // One prune-and-regrow decision on one 1024² layer of mlp-dp2-regrow.
    let model: Sequential = crate::setup::mlp(dp2::WIDTH, 1, 23);
    let w = model.params()[0].value.clone();
    let prev = prune::magnitude_prune(w.as_slice(), w.shape(), crate::setup::SPARSITY);
    let mut weights = w.into_vec();
    prev.apply(&mut weights);
    let score = Tensor::randn(&[dp2::WIDTH * dp2::WIDTH], 1.0, 24);
    let sched = dp2::schedule();
    let ms = time_ms(|| {
        black_box(sched.next_mask(5, &weights, score.as_slice(), &prev));
    });
    l.push("prune.next_mask_ms", ms);
}
