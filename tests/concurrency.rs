//! Concurrent-serving smoke tests for the layered runtime.
//!
//! The paper's deployment mode (TS) serves a frozen model; the layered
//! engine lets many threads do so through cloned [`EngineHandle`]s. These
//! tests pin down the two properties that make that safe: the handle is
//! `Send + Sync + Clone`, and concurrent serving returns bit-identical
//! results to a single-threaded run (inference takes no training step, so
//! there is nothing order-dependent to race on).

use autonomizer::core::{Engine, EngineHandle, Mode, ModelConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

const THREADS: usize = 8;
const PREDICTIONS_PER_THREAD: usize = 1_000;
/// Epochs of the 256-row training run a restore must not wait for: about
/// a second in a debug build.
const TRAIN_EPOCHS: usize = 20;

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

/// Trains y = 2x as the supervised model `serve` and returns the engine
/// frozen in deployment mode.
fn deployed_engine() -> Engine {
    au_nn::set_init_seed(97);
    let mut e = Engine::new(Mode::Train);
    e.au_config("serve", ModelConfig::dnn(&[32]).with_learning_rate(0.02))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64 / 64.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
    e.train_supervised("serve", &xs, &ys, 60).expect("train");
    e.set_mode(Mode::Test);
    e
}

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

/// Fig. 8's RESTORE rolls back σ and π and leaves θ alone, so a restore
/// returns while another clone of the handle is still inside a long
/// `train_supervised` on the model store.
#[test]
fn restore_does_not_wait_for_training_on_another_clone() {
    let handle = EngineHandle::new(Mode::Train);
    handle
        .au_config("slow", ModelConfig::dnn(&[64]))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64 / 256.0; 16]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0]]).collect();
    handle.au_extract("STATE", &[1.0]);
    let ckpt = handle.checkpoint_with(&7u32);
    handle.au_extract("STATE", &[2.0]);
    let (started, finished) = (AtomicBool::new(false), AtomicBool::new(false));

    thread::scope(|scope| {
        let trainer = handle.clone();
        let (started, finished, xs, ys) = (&started, &finished, &xs, &ys);
        scope.spawn(move || {
            started.store(true, Ordering::SeqCst);
            trainer
                .train_supervised("slow", xs, ys, TRAIN_EPOCHS)
                .expect("train");
            finished.store(true, Ordering::SeqCst);
        });
        while !started.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        // Let the trainer take the model's write lock.
        thread::sleep(Duration::from_millis(10));
        assert!(
            !finished.load(Ordering::SeqCst),
            "training ended before the restore began; lengthen it"
        );
        let program = handle.restore_with(&ckpt);
        assert!(
            !finished.load(Ordering::SeqCst),
            "restore_with waited for train_supervised on another clone"
        );
        assert_eq!(program, 7);
        assert_eq!(handle.db().get("STATE"), &[1.0]);
    });
}
