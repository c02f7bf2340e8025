//! Concurrent-serving smoke tests for the layered runtime.
//!
//! The paper's deployment mode (TS) serves a frozen model; the layered
//! engine lets many threads do so through cloned [`EngineHandle`]s. These
//! tests pin down the two properties that make that safe: the handle is
//! `Send + Sync + Clone`, and concurrent serving returns bit-identical
//! results to a single-threaded run (inference takes no training step, so
//! there is nothing order-dependent to race on).

use autonomizer::core::{Engine, EngineHandle, Mode, ModelConfig};
use std::sync::Mutex;
use std::thread;

const THREADS: usize = 8;
const PREDICTIONS_PER_THREAD: usize = 1_000;

/// Serializes tests that mutate the process-wide au-par thread override,
/// global state shared across cargo's parallel test threads.
static PAR_OVERRIDE: Mutex<()> = Mutex::new(());

fn par_guard() -> std::sync::MutexGuard<'static, ()> {
    PAR_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Compile-time proof that the handle can cross and be shared between
/// threads, and that the facade inherits both properties.
#[test]
fn handle_and_engine_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_clone<T: Clone>() {}
    assert_send_sync::<EngineHandle>();
    assert_send_sync::<Engine>();
    assert_clone::<EngineHandle>();
}

/// Trains y = 2x as the supervised model `serve`, plus a one-feature
/// Q-learning model `serve_q` through `au_nn_rl`, and returns the engine
/// frozen in deployment mode.
fn deployed_engine() -> Engine {
    au_nn::set_init_seed(97);
    let mut e = Engine::new(Mode::Train);
    e.au_config("serve", ModelConfig::dnn(&[32]).with_learning_rate(0.02))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
    e.train_supervised("serve", &xs, &ys, 60).expect("train");
    let dqn = au_nn::rl::DqnConfig {
        hidden: vec![32],
        batch_size: 8,
        ..au_nn::rl::DqnConfig::default()
    };
    e.au_config("serve_q", ModelConfig::q_dnn(&[32]).with_dqn(dqn))
        .expect("config");
    for (i, x) in xs.iter().enumerate() {
        e.au_extract("state", x);
        e.au_nn_rl("serve_q", "state", x[0], i % 16 == 15, "action", 3)
            .expect("rl step");
    }
    e.set_mode(Mode::Test);
    e
}

/// The supervised and the Q-learning model `deployed_engine` serves.
const SERVED_MODELS: [&str; 2] = ["serve", "serve_q"];

/// 8 threads × 1k predictions on clones of one handle must agree exactly
/// with a single-threaded pass over the same inputs.
#[test]
fn threaded_serving_matches_single_threaded() {
    let engine = deployed_engine();
    let handle = engine.handle();

    let inputs: Vec<Vec<f64>> = (0..PREDICTIONS_PER_THREAD)
        .map(|i| vec![(i % 128) as f64 / 128.0])
        .collect();
    let reference: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| handle.predict("serve", x).expect("single-threaded predict"))
        .collect();

    let results: Vec<Vec<Vec<f64>>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let h = handle.clone();
                let inputs = &inputs;
                scope.spawn(move || {
                    inputs
                        .iter()
                        .map(|x| h.predict("serve", x).expect("threaded predict"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("join"))
            .collect()
    });

    for (t, outputs) in results.iter().enumerate() {
        assert_eq!(
            outputs, &reference,
            "thread {t} diverged from the single-threaded reference"
        );
    }
}

/// Concurrent extraction through cloned handles loses nothing: π ends up
/// with every appended value and the lifetime counter matches.
#[test]
fn concurrent_extraction_is_lossless() {
    let engine = Engine::new(Mode::Train);
    let handle = engine.handle();
    let per_thread = 500usize;

    thread::scope(|scope| {
        for t in 0..THREADS {
            let h = handle.clone();
            scope.spawn(move || {
                for i in 0..per_thread {
                    h.au_extract(&format!("T{t}"), &[i as f64]);
                }
            });
        }
    });

    assert_eq!(engine.total_extracted(), (THREADS * per_thread) as u64);
    for t in 0..THREADS {
        let db = engine.db();
        let list = db.get(&format!("T{t}"));
        assert_eq!(list.len(), per_thread, "thread {t} lost appends");
        // Appends from one thread land in program order.
        let mut sorted = list.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(list, &sorted[..], "thread {t} appends out of order");
    }
}

/// Batched prediction agrees with the scalar path under concurrency — the
/// serving fast path used by the `serve_concurrent` benchmark.
#[test]
fn threaded_batch_serving_matches_scalar_path() {
    let engine = deployed_engine();
    let handle = engine.handle();
    let inputs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
    let reference: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| handle.predict("serve", x).expect("predict"))
        .collect();

    thread::scope(|scope| {
        for _ in 0..THREADS {
            let h = handle.clone();
            let inputs = &inputs;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..8 {
                    let batch = h.predict_batch("serve", inputs).expect("batch");
                    assert_eq!(&batch, reference);
                }
            });
        }
    });
}

/// `predict_batch` fans rows out across au-par workers; every kernel
/// preserves per-element accumulation order, so the served values must be
/// bit-identical for every worker count, for both model kinds.
#[test]
fn predict_batch_is_invariant_to_thread_count() {
    let _g = par_guard();
    let engine = deployed_engine();
    let handle = engine.handle();
    let inputs: Vec<Vec<f64>> = (0..96).map(|i| vec![(i % 64) as f64 / 64.0]).collect();

    for model in SERVED_MODELS {
        au_par::set_thread_override(Some(1));
        let reference = handle.predict_batch(model, &inputs).expect("batch");
        for threads in [2usize, 4, 8] {
            au_par::set_thread_override(Some(threads));
            let got = handle.predict_batch(model, &inputs).expect("batch");
            assert_eq!(
                got, reference,
                "{model}: threads={threads} changed served bits"
            );
        }
    }
    au_par::set_thread_override(None);
}

/// A panic inside a pool job propagates to the submitter — and the pool
/// survives it: the very next region runs normally on the same workers.
#[test]
fn pool_panic_propagates_and_pool_stays_usable() {
    let _g = par_guard();
    au_par::set_thread_override(Some(4));
    let boom = std::panic::catch_unwind(|| {
        au_par::pool_map(64, 1, |i| {
            if i == 37 {
                panic!("job 37 exploded");
            }
            i * 2
        })
    });
    assert!(boom.is_err(), "pool swallowed a job panic");

    let after = au_par::pool_map(64, 1, |i| i * 2);
    assert_eq!(after, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    au_par::set_thread_override(None);
}

/// `shutdown_pool` joins every worker; the next pooled region lazily
/// respawns the pool and still returns order-preserving results.
#[test]
fn pool_shutdown_joins_workers_and_restarts_lazily() {
    let _g = par_guard();
    au_par::set_thread_override(Some(4));
    // Force the pool up, then tear it down.
    let warm = au_par::pool_map(16, 1, |i| i + 1);
    assert_eq!(warm.len(), 16);
    au_par::shutdown_pool();
    assert_eq!(au_par::pool_worker_count(), 0, "shutdown left workers");

    // Lazy restart: the next region brings the pool back transparently.
    let reborn = au_par::pool_map(32, 1, |i| i * i);
    assert_eq!(reborn, (0..32).map(|i| i * i).collect::<Vec<_>>());
    assert!(au_par::pool_worker_count() > 0, "pool did not respawn");
    au_par::set_thread_override(None);
}

/// The f32 batch path fans out over the same persistent pool; like its f64
/// twin it must serve bit-identical values at every worker count, for
/// both model kinds.
#[test]
fn predict_batch_f32_is_invariant_to_thread_count() {
    let _g = par_guard();
    let engine = deployed_engine();
    let handle = engine.handle();
    let flat: Vec<f32> = (0..96).map(|i| (i % 64) as f32 / 64.0).collect();

    for model in SERVED_MODELS {
        au_par::set_thread_override(Some(1));
        let reference = handle.predict_batch_f32(model, &flat).expect("batch");
        for threads in [2usize, 4, 8] {
            au_par::set_thread_override(Some(threads));
            let got = handle.predict_batch_f32(model, &flat).expect("batch");
            assert_eq!(
                got, reference,
                "{model}: threads={threads} changed served f32 bits"
            );
        }
    }
    au_par::set_thread_override(None);
}
