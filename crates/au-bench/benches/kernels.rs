//! Compute-kernel benches: the blocked/batched kernels against faithful
//! copies of the pre-overhaul scalar kernels.
//!
//! The `naive_*` routines here are byte-for-byte ports of the loops that
//! `Tensor::matmul` and `Conv2d::forward` shipped with before the kernel
//! overhaul — they are the baseline the speedup claims in
//! `BENCH_kernels.json` are measured against. Run with
//! `AU_BENCH_JSON=$PWD/BENCH_kernels.json cargo bench --bench kernels`
//! from the repo root to rewrite this bench's keys in that file (cargo
//! runs bench binaries with the package directory as cwd, so pass an
//! absolute path); other benches' keys, such as `aulang_exec`, are kept.

use au_core::{Engine, EngineHandle, Mode, ModelConfig};
use au_nn::{Network, Tensor};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random buffer (no RNG state, reproducible).
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
            ((h % 2000) as f32) / 100.0 - 10.0
        })
        .collect()
}

/// The pre-overhaul `Tensor::matmul` inner loops: row-major triple loop
/// with the `a == 0.0` skip, no register or cache blocking.
fn naive_matmul(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let s = a[i * k + p];
            if s == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += s * bv;
            }
        }
    }
}

/// Conv bench shape: 8 input channels of 16×16, 16 output channels, 3×3
/// kernel, stride 1, batch 8 — big enough that the kernel dominates, small
/// enough that the naive nest finishes in bench time.
const CONV: (usize, usize, usize, usize, usize, usize, usize) = (8, 8, 16, 16, 16, 3, 1);

/// The pre-overhaul `Conv2d::forward` loop nest: seven nested loops, one
/// multiply-accumulate at the innermost level, no im2col.
#[allow(clippy::too_many_arguments)]
fn naive_conv_forward(
    input: &[f32],
    w: &[f32],
    bias: &[f32],
    batch: usize,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
) -> Vec<f32> {
    let out_h = (in_h - k) / stride + 1;
    let out_w = (in_w - k) / stride + 1;
    let in_len = in_c * in_h * in_w;
    let out_len = out_c * out_h * out_w;
    let mut out = vec![0.0f32; batch * out_len];
    for row in 0..batch {
        let x = &input[row * in_len..(row + 1) * in_len];
        let o = &mut out[row * out_len..(row + 1) * out_len];
        for oc in 0..out_c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * stride + ky;
                                let ix = ox * stride + kx;
                                acc += x[ic * in_h * in_w + iy * in_w + ix]
                                    * w[oc * in_c * k * k + ic * k * k + ky * k + kx];
                            }
                        }
                    }
                    o[oc * out_h * out_w + oy * out_w + ox] = acc;
                }
            }
        }
    }
    out
}

fn conv_net() -> Network {
    let (_, in_c, in_h, in_w, out_c, k, stride) = CONV;
    au_nn::set_init_seed(4242);
    Network::builder(in_c * in_h * in_w)
        .conv2d(in_c, in_h, in_w, out_c, k, stride)
        .build()
}

fn bench_matmul_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for size in [64usize, 128, 256, 512] {
        let a = pseudo(size * size, 1);
        let b = pseudo(size * size, 2);
        group.bench_function(format!("naive/{size}"), |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; size * size];
                naive_matmul(&mut out, black_box(&a), black_box(&b), size, size, size);
                out
            });
        });
        let ta = Tensor::from_vec(&[size, size], a.clone());
        let tb = Tensor::from_vec(&[size, size], b.clone());
        group.bench_function(format!("blocked/{size}"), |bch| {
            bch.iter(|| black_box(&ta).matmul(black_box(&tb)));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let (batch, in_c, in_h, in_w, out_c, k, stride) = CONV;
    let mut group = c.benchmark_group("conv2d_forward");
    let input = pseudo(batch * in_c * in_h * in_w, 3);
    let w = pseudo(out_c * in_c * k * k, 4);
    let bias = pseudo(out_c, 5);
    group.bench_function("naive/8x8x16x16", |bch| {
        bch.iter(|| {
            naive_conv_forward(
                black_box(&input),
                &w,
                &bias,
                batch,
                in_c,
                in_h,
                in_w,
                out_c,
                k,
                stride,
            )
        });
    });
    let net = conv_net();
    let batch_t = Tensor::from_vec(&[batch, in_c * in_h * in_w], input.clone());
    group.bench_function("im2col/8x8x16x16", |bch| {
        bch.iter(|| net.infer(black_box(&batch_t)));
    });
    group.finish();
}

/// The reference 64→256→256→4 serving model, trained one epoch and frozen
/// in deployment mode as model `"M"`.
fn serving_handle() -> EngineHandle {
    au_nn::set_init_seed(11);
    let mut e = Engine::new(Mode::Train);
    e.au_config("M", ModelConfig::dnn(&[256, 256])).unwrap();
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|i| (0..64).map(|j| ((i + j) % 16) as f64 / 16.0).collect())
        .collect();
    let ys: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0; 4]).collect();
    e.train_supervised("M", &xs, &ys, 1).unwrap();
    e.set_mode(Mode::Test);
    e.into_handle()
}

criterion_group!(benches, bench_matmul_sweep, bench_conv_forward);

// ---------------------------------------------------------------------
// BENCH_kernels.json keys (AU_BENCH_JSON=<path>)
// ---------------------------------------------------------------------

/// Median seconds/iteration over `samples` timed samples, with the
/// iteration count auto-scaled so each sample runs at least ~20 ms.
fn measure<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_millis() >= 20 || iters >= 1 << 22 {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut per: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per.sort_by(|a, b| a.total_cmp(b));
    per[per.len() / 2]
}

fn write_json(path: &str) {
    use std::fmt::Write as _;
    let samples = 7;
    let mut matmul = String::new();
    for size in [64usize, 128, 256, 512] {
        let a = pseudo(size * size, 1);
        let b = pseudo(size * size, 2);
        let naive = measure(
            || {
                let mut out = vec![0.0f32; size * size];
                naive_matmul(&mut out, &a, &b, size, size, size);
                black_box(&out);
            },
            samples,
        );
        let ta = Tensor::from_vec(&[size, size], a.clone());
        let tb = Tensor::from_vec(&[size, size], b.clone());
        let blocked = measure(
            || {
                black_box(ta.matmul(&tb));
            },
            samples,
        );
        if !matmul.is_empty() {
            matmul.push_str(",\n");
        }
        write!(
            matmul,
            "    \"{size}\": {{ \"naive_ns\": {:.0}, \"blocked_ns\": {:.0}, \"speedup\": {:.2} }}",
            naive * 1e9,
            blocked * 1e9,
            naive / blocked,
        )
        .expect("format");
    }

    let (batch, in_c, in_h, in_w, out_c, k, stride) = CONV;
    let input = pseudo(batch * in_c * in_h * in_w, 3);
    let w = pseudo(out_c * in_c * k * k, 4);
    let bias = pseudo(out_c, 5);
    let conv_naive = measure(
        || {
            black_box(naive_conv_forward(
                &input, &w, &bias, batch, in_c, in_h, in_w, out_c, k, stride,
            ));
        },
        samples,
    );
    let net = conv_net();
    let batch_t = Tensor::from_vec(&[batch, in_c * in_h * in_w], input.clone());
    let conv_im2col = measure(
        || {
            black_box(net.infer(&batch_t));
        },
        samples,
    );

    // Scalar serving on the reference model: the f64 boundary path vs the
    // native-f32 allocation-free path.
    let h = serving_handle();
    let x: Vec<f64> = (0..64).map(|j| (j % 64) as f64 / 64.0).collect();
    let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
    let serve_f64 = measure(
        || {
            black_box(h.predict("M", &x).unwrap());
        },
        samples,
    );
    let mut out = Vec::with_capacity(4);
    let serve_f32 = measure(
        || {
            out.clear();
            h.predict_f32_into("M", &x32, &mut out).unwrap();
            black_box(&out);
        },
        samples,
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let keys = [
        ("bench", "\"kernels\"".to_owned()),
        ("available_parallelism", cores.to_string()),
        ("matmul", format!("{{\n{matmul}\n  }}")),
        (
            "conv2d_forward",
            format!(
                "{{\n    \"shape\": \"batch{batch} {in_c}x{in_h}x{in_w} -> {out_c}c k{k} s{stride}\",\n    \"naive_ns\": {:.0},\n    \"im2col_ns\": {:.0},\n    \"speedup\": {:.2}\n  }}",
                conv_naive * 1e9,
                conv_im2col * 1e9,
                conv_naive / conv_im2col,
            ),
        ),
        (
            "serving_dnn_64_256_256_4",
            format!(
                "{{\n    \"predict_f64_ns\": {:.0},\n    \"predict_f32_ns\": {:.0},\n    \"speedup\": {:.2}\n  }}",
                serve_f64 * 1e9,
                serve_f32 * 1e9,
                serve_f64 / serve_f32,
            ),
        ),
        (
            "note",
            "\"naive_* are the pre-overhaul kernels; the kernels are serial, so matmul and conv2d_forward are single-thread figures. serving_dnn_64_256_256_4 compares the f64 boundary path against native-f32 scalar serving on the same net.\"".to_owned(),
        ),
    ];
    let mut doc = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_owned());
    for (key, value) in &keys {
        doc = au_bench::splice_json_key(&doc, key, value);
    }
    std::fs::write(path, doc).expect("write bench json");
    println!("wrote the kernels keys of {path}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("AU_BENCH_JSON") {
        write_json(&path);
    }
}
