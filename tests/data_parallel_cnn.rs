//! Integration: ZeRO-sharded data-parallel SAMO on a real CNN — the
//! whole reproduction stack in one test (conv/batchnorm/pool substrate,
//! BN-scale pruning, compressed ring all-reduce across rank threads,
//! sharded optimizer).

use models::tiny_cnn::{ShapeDataset, TinyCnn, CNN_CLASSES};
use nn::layer::Layer;
use nn::loss::cross_entropy;
use nn::mixed::{LossScaler, Optimizer};
use nn::optim::SgdConfig;
use prune::Mask;
use samo::ThreadedDataParallelSamo;

fn masks_for(cnn: &TinyCnn) -> Vec<Mask> {
    cnn.params()
        .iter()
        .map(|p| {
            if p.value.shape().len() >= 2 && p.numel() >= 256 {
                prune::magnitude_prune(p.value.as_slice(), p.value.shape(), 0.6)
            } else {
                Mask::dense(p.value.shape())
            }
        })
        .collect()
}

#[test]
fn two_rank_samo_cnn_learns_shapes() {
    let opt = Optimizer::Sgd(SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 0.0,
    });
    let masks = masks_for(&TinyCnn::new(2));
    let mut dp = ThreadedDataParallelSamo::new(vec![TinyCnn::new(2), TinyCnn::new(2)], masks, opt);
    dp.set_scaler(LossScaler::new(128.0));

    let mut datasets = [ShapeDataset::new(10), ShapeDataset::new(11)];
    for _ in 0..80 {
        let batches: Vec<_> = datasets.iter_mut().map(|ds| ds.sample(8)).collect();
        dp.step(move |r, m, scale| {
            let (x, labels) = &batches[r];
            let logits = m.forward(x);
            let (_, mut d) = cross_entropy(&logits, labels);
            tensor::ops::scale(scale, d.as_mut_slice());
            d
        })
        .expect("healthy mesh");
    }
    assert!(dp.steps_taken() >= 70, "most steps applied: {}", dp.steps_taken());

    // BN running stats saw different shards, so compare parameters: the
    // *parameters* must be identical across ranks.
    let params = |m: &mut TinyCnn, _: &[_]| -> Vec<Vec<f32>> {
        m.params().iter().map(|p| p.value.as_slice().to_vec()).collect()
    };
    assert_eq!(dp.with_rank(0, params), dp.with_rank(1, params), "rank parameters diverged");

    // And rank 0 classifies well above chance.
    let mut eval_ds = ShapeDataset::new(99);
    let (x, labels) = eval_ds.sample(64);
    let logits0 = dp.with_rank(0, move |m, _| {
        m.set_training(false);
        m.forward(&x)
    });
    let a0 = tensor::ops::argmax_rows(logits0.as_slice(), 64, CNN_CLASSES)
        .iter()
        .zip(&labels)
        .filter(|(p, l)| p == l)
        .count();
    assert!(a0 > 30, "accuracy {a0}/64 too low");
}
