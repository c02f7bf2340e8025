//! Measures the cost of the telemetry layer on the engine's hot paths.
//!
//! Two configurations matter:
//!
//! 1. recorder disabled — the shipped default: each site pays one relaxed
//!    atomic load and branch;
//! 2. recorder enabled — full span/counter/histogram capture.
//!
//! This bench reports (1) vs (2) for `au_extract` and `au_nn`, plus a
//! third leg: (2) with the au-scope observability server running but
//! *unscraped* — the plane's accept loop parks in the kernel, so its
//! off-path cost over (2) must stay < 2%. A fourth leg, `profiler_attached`,
//! primes the plane's au-prof profiler with one `/profile.json` scrape and
//! then measures with nobody scraping: the profiler only folds spans at
//! request time, so its attached-but-idle cost over (2) must stay < 3%
//! (the budget quoted in docs/profiling.md). docs/telemetry.md records
//! why there is no build without the instrumentation.

use au_core::{Engine, Mode, ModelConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::{Read, Write};

/// One GET against the scope server: primes the plane's profiler so the
/// `profiler_attached` leg measures an attached (not merely constructed)
/// profiler.
fn prime_profiler(addr: std::net::SocketAddr) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scope");
    write!(stream, "GET /profile.json HTTP/1.1\r\nHost: bench\r\n\r\n").expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
}

fn trained_engine() -> Engine {
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config("BenchNN", ModelConfig::dnn(&[16, 8]))
        .expect("config");
    for i in 0..16u64 {
        let x = i as f64 / 16.0;
        engine.au_extract("SUMMARY", &[x, 1.0 - x, x * x, 0.5]);
        engine.au_extract("OUT", &[2.0 * x]);
        engine
            .au_nn("BenchNN", "SUMMARY", &["OUT"])
            .expect("train step");
    }
    engine.set_mode(Mode::Test);
    engine
}

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead/au_extract");
    let row = [0.25f64, 0.5, 0.75, 1.0];

    au_telemetry::disable();
    let mut engine = Engine::new(Mode::Train);
    group.bench_function("recorder_off", |b| {
        b.iter(|| engine.au_extract("X", black_box(&row)))
    });

    au_telemetry::enable();
    let mut engine = Engine::new(Mode::Train);
    group.bench_function("recorder_on", |b| {
        b.iter(|| engine.au_extract("X", black_box(&row)))
    });

    let scope = au_scope::ScopeServer::builder()
        .bind("127.0.0.1:0")
        .start()
        .expect("scope server");
    let mut engine = Engine::new(Mode::Train);
    group.bench_function("scope_unscraped", |b| {
        b.iter(|| engine.au_extract("X", black_box(&row)))
    });

    prime_profiler(scope.local_addr());
    let mut engine = Engine::new(Mode::Train);
    group.bench_function("profiler_attached", |b| {
        b.iter(|| engine.au_extract("X", black_box(&row)))
    });
    scope.shutdown();
    au_telemetry::disable();
    group.finish();
}

fn bench_au_nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead/au_nn");
    let row = [0.25f64, 0.5, 0.75, 1.0];

    au_telemetry::disable();
    let mut engine = trained_engine();
    group.bench_function("recorder_off", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });

    au_telemetry::enable();
    let mut engine = trained_engine();
    group.bench_function("recorder_on", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });

    let scope = au_scope::ScopeServer::builder()
        .bind("127.0.0.1:0")
        .start()
        .expect("scope server");
    let mut engine = trained_engine();
    group.bench_function("scope_unscraped", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });

    prime_profiler(scope.local_addr());
    let mut engine = trained_engine();
    group.bench_function("profiler_attached", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });
    scope.shutdown();
    au_telemetry::disable();
    group.finish();
}

/// The native-f32 serving path (`predict_f32_into`): its telemetry sites
/// (`predict_f32` span + time series) must stay as cheap as the f64
/// path's, and the batch path rides the same recorder toggles.
fn bench_predict_f32(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead/predict_f32");
    let row32 = [0.25f32, 0.5, 0.75, 1.0];
    let mut out = Vec::with_capacity(8);

    au_telemetry::disable();
    let engine = trained_engine();
    let handle = engine.handle();
    group.bench_function("recorder_off", |b| {
        b.iter(|| {
            out.clear();
            handle
                .predict_f32_into("BenchNN", black_box(&row32), &mut out)
                .expect("serve");
            black_box(&out);
        })
    });

    au_telemetry::enable();
    let engine = trained_engine();
    let handle = engine.handle();
    group.bench_function("recorder_on", |b| {
        b.iter(|| {
            out.clear();
            handle
                .predict_f32_into("BenchNN", black_box(&row32), &mut out)
                .expect("serve");
            black_box(&out);
        })
    });
    au_telemetry::disable();
    group.finish();
}

criterion_group!(benches, bench_extract, bench_au_nn, bench_predict_f32);
criterion_main!(benches);
