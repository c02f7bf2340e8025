//! Golden-value pin for the compute-kernel overhaul.
//!
//! The bit patterns below were captured from the *pre-overhaul* scalar
//! kernels (naive `matmul` triple loop, 7-deep `Conv2d` loop nest) on a
//! deterministic training run. The blocked/batched kernels that replaced
//! them must reproduce these outputs bit-for-bit: the accumulation order
//! per output element (ascending inner-dimension index) is part of the
//! kernel contract, not an accident.

use autonomizer::core::{Engine, Mode, ModelConfig};
use autonomizer::nn::{Activation, Network, Tensor};

/// Deterministic dataset: 32 samples, 3 features → 2 outputs.
fn dataset() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            vec![
                (i as f64) / 32.0,
                ((i * 7) % 13) as f64 / 13.0,
                ((i * 3) % 5) as f64 / 5.0,
            ]
        })
        .collect();
    let ys: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| vec![x[0] * 2.0 - x[1], x[2] + 0.5 * x[1]])
        .collect();
    (xs, ys)
}

fn deployed_engine() -> Engine {
    au_nn::set_init_seed(20260806);
    let mut e = Engine::new(Mode::Train);
    e.au_config("G", ModelConfig::dnn(&[16, 8]).with_learning_rate(0.01))
        .expect("config");
    let (xs, ys) = dataset();
    e.train_supervised("G", &xs, &ys, 40).expect("train");
    e.set_mode(Mode::Test);
    e
}

fn probe_inputs() -> Vec<Vec<f64>> {
    vec![
        vec![0.0, 0.0, 0.0],
        vec![0.5, 0.25, 0.75],
        vec![1.0, 1.0, 1.0],
        vec![0.125, 0.875, 0.375],
    ]
}

/// A deterministic conv→pool→dense pixel network (the paper's Raw model
/// shape) and a fixed frame input.
fn conv_net_and_input() -> (Network, Tensor) {
    au_nn::set_init_seed(777);
    let net = Network::builder(2 * 8 * 8)
        .conv2d(2, 8, 8, 4, 3, 1)
        .activation(Activation::Relu)
        .max_pool2d(4, 6, 6, 2)
        .flatten()
        .dense(10)
        .activation(Activation::Tanh)
        .dense(3)
        .build();
    let data: Vec<f32> = (0..2 * 128)
        .map(|i| ((i * 37 + 11) % 97) as f32 / 97.0 - 0.5)
        .collect();
    (net, Tensor::from_vec(&[2, 128], data))
}

/// Expected `predict` outputs for [`probe_inputs`], captured from the
/// pre-overhaul kernels as f64 bit patterns.
const GOLDEN_PREDICT: [[u64; 2]; 4] = [
    [0x3f98ad1100000000, 0x3f935da500000000],
    [0x3fe97bd800000000, 0x3febf34fe0000000],
    [0x3ff0f40c60000000, 0x3ff8088e40000000],
    [0xbfe102b960000000, 0x3fe9808e20000000],
];

/// Expected conv-net `infer` output (shape `[2, 3]`), captured from the
/// pre-overhaul 7-deep loop nest as f32 bit patterns.
const GOLDEN_CONV: [u32; 6] = [
    0x3f8a31a9, 0x3ed41d67, 0xbe0c9819, 0x3ec465d5, 0x3e9b084a, 0x3dd87a80,
];

/// Training + scalar prediction reproduce the pre-overhaul outputs exactly.
///
/// This covers the whole numeric pipeline: weight init, every forward and
/// backward matmul during the 40-epoch training run, the Adam updates, and
/// the final inference pass. Any change to accumulation order anywhere in
/// that chain shows up here.
#[test]
fn predict_bits_match_pre_overhaul_kernels() {
    let mut e = deployed_engine();
    for (x, want) in probe_inputs().iter().zip(GOLDEN_PREDICT) {
        let y = e.predict("G", x).unwrap();
        let want: Vec<f64> = want.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(y, want, "predict({x:?}) drifted from the golden kernels");
    }
}

/// `predict_batch` returns the same bits as scalar `predict`, row for row,
/// and matches the pre-overhaul golden values.
#[test]
fn predict_batch_bits_match_pre_overhaul_kernels() {
    let mut e = deployed_engine();
    let batch = e.predict_batch("G", &probe_inputs()).unwrap();
    assert_eq!(batch.len(), GOLDEN_PREDICT.len());
    for (row, want) in batch.iter().zip(GOLDEN_PREDICT) {
        let want: Vec<f64> = want.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(row, &want, "batch row drifted from the golden kernels");
    }
}

/// The im2col conv forward reproduces the 7-deep loop nest bit-for-bit.
#[test]
fn conv_forward_bits_match_pre_overhaul_kernels() {
    let (net, x) = conv_net_and_input();
    let y = net.infer(&x);
    assert_eq!(y.shape(), &[2, 3]);
    let want: Vec<f32> = GOLDEN_CONV.iter().map(|&b| f32::from_bits(b)).collect();
    assert_eq!(
        y.data(),
        &want[..],
        "conv forward drifted from the golden kernels"
    );
}

#[test]
#[ignore = "capture helper: prints golden bits from the current kernels"]
fn capture_golden_bits() {
    let mut e = deployed_engine();
    for x in &probe_inputs() {
        let y = e.predict("G", x).unwrap();
        let bits: Vec<String> = y.iter().map(|v| format!("{:#018x}", v.to_bits())).collect();
        println!("predict {:?} -> [{}]", x, bits.join(", "));
    }
    let batch = e.predict_batch("G", &probe_inputs()).unwrap();
    for row in &batch {
        let bits: Vec<String> = row
            .iter()
            .map(|v| format!("{:#018x}", v.to_bits()))
            .collect();
        println!("batch -> [{}]", bits.join(", "));
    }
    let (net, x) = conv_net_and_input();
    let y = net.infer(&x);
    let bits: Vec<String> = y
        .data()
        .iter()
        .map(|v| format!("{:#010x}", v.to_bits()))
        .collect();
    println!("conv -> [{}]", bits.join(", "));
}
