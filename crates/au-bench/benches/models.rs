//! Criterion benches comparing the `All` (dense-on-state) and `Raw`
//! (conv-on-pixels) model costs — the mechanism behind Table 2's model-size
//! ratios and Table 3's training-time ratios. Also includes the ablation
//! benches for the DQN design choices (replay buffer, target network).

use au_nn::rl::{DqnAgent, DqnConfig, Transition};
use au_nn::{Activation, Adam, Loss, Network, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward");
    au_nn::set_init_seed(1);
    let mut dense = Network::builder(10)
        .dense(64)
        .activation(Activation::Relu)
        .dense(32)
        .activation(Activation::Relu)
        .dense(5)
        .build();
    let state = Tensor::row(&[0.3; 10]);
    group.bench_function("dense_10_features", |b| {
        b.iter(|| black_box(dense.forward(black_box(&state))));
    });

    let mut conv = Network::builder(144)
        .conv2d(1, 12, 12, 4, 3, 1)
        .activation(Activation::Relu)
        .max_pool2d(4, 10, 10, 2)
        .conv2d(4, 5, 5, 8, 3, 1)
        .activation(Activation::Relu)
        .flatten()
        .dense(64)
        .activation(Activation::Relu)
        .dense(5)
        .build();
    let frame = Tensor::row(&[0.3; 144]);
    group.bench_function("conv_12x12_frame", |b| {
        b.iter(|| black_box(conv.forward(black_box(&frame))));
    });
    group.finish();
}

fn bench_train_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_batch32");
    group.sample_size(20);
    au_nn::set_init_seed(2);
    let mut dense = Network::builder(10)
        .dense(64)
        .activation(Activation::Relu)
        .dense(5)
        .build();
    let xs = Tensor::zeros(&[32, 10]);
    let ys = Tensor::zeros(&[32, 5]);
    let mut opt = Adam::new(1e-3);
    group.bench_function("dense", |b| {
        b.iter(|| black_box(dense.train_batch(&xs, &ys, Loss::Mse, &mut opt)));
    });

    let mut conv = Network::builder(144)
        .conv2d(1, 12, 12, 4, 3, 1)
        .activation(Activation::Relu)
        .flatten()
        .dense(5)
        .build();
    let fx = Tensor::zeros(&[32, 144]);
    let fy = Tensor::zeros(&[32, 5]);
    let mut fopt = Adam::new(1e-3);
    group.bench_function("conv", |b| {
        b.iter(|| black_box(conv.train_batch(&fx, &fy, Loss::Mse, &mut fopt)));
    });
    group.finish();
}

/// Ablation: DQN learning step with and without a target network, and with
/// a tiny vs a large replay buffer (the design choices DESIGN.md calls
/// out).
fn bench_dqn_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("dqn_ablation");
    group.sample_size(20);
    let configs = [
        ("replay+target", 10_000usize, 100usize),
        ("replay_no_target", 10_000, 0),
        ("no_replay", 64, 100),
    ];
    for (name, capacity, sync) in configs {
        group.bench_function(name, |b| {
            au_nn::set_init_seed(3);
            let mut agent = DqnAgent::new(
                8,
                4,
                DqnConfig {
                    hidden: vec![32, 16],
                    batch_size: 32,
                    replay_capacity: capacity,
                    target_sync_every: sync,
                    seed: 1,
                    ..DqnConfig::default()
                },
            );
            // Warm the buffer past the batch size.
            for i in 0..64 {
                agent.observe(Transition {
                    state: &[i as f32 / 64.0; 8],
                    action: i % 4,
                    reward: 0.1,
                    next_state: &[(i + 1) as f32 / 64.0; 8],
                    terminal: false,
                });
            }
            let mut i = 0u32;
            b.iter(|| {
                i += 1;
                black_box(agent.observe(Transition {
                    state: &[(i % 100) as f32 / 100.0; 8],
                    action: (i % 4) as usize,
                    reward: 0.1,
                    next_state: &[((i + 1) % 100) as f32 / 100.0; 8],
                    terminal: i.is_multiple_of(50),
                }))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_train_batch,
    bench_dqn_ablations
);
criterion_main!(benches);
