//! Appends one structured perf run to the bench history.
//!
//! A deliberately small, fast smoke suite — not the criterion benches —
//! covering the runtime's hot layers: the gemm kernel, feature
//! extraction, end-to-end serving, the AuLang front end, and the au-par
//! fork/join (back to back, and after its workers have parked). Each
//! bench is timed as the median over many samples so one preempted
//! sample cannot fake a regression, and the run lands as one JSON line
//! in `BENCH_history.jsonl` (see `au_bench::history`).
//!
//! ```text
//! bench-history [--quick] [--out BENCH_history.jsonl] [--print]
//! ```
//!
//! `--quick` cuts samples ~4x for CI smoke legs; `--print` writes the
//! line to stdout instead of appending anywhere.

use au_bench::history::{append, HistoryRun};
use au_core::{Engine, Mode, ModelConfig};
use au_nn::Tensor;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times `f` as median-of-samples nanoseconds per call: each sample runs
/// `per_sample` calls and the per-call time of the middle sample wins.
fn median_ns(samples: usize, per_sample: usize, mut f: impl FnMut()) -> f64 {
    // Warmup: one full sample, unmeasured.
    for _ in 0..per_sample {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / per_sample as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times one call of `f` per sample, each after an untimed `idle` sleep,
/// as median nanoseconds: what a call costs when the threads it wakes
/// have been parked.
fn median_after_idle_ns(samples: usize, idle: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            std::thread::sleep(idle);
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Deterministic pseudo-random buffer (no RNG state, reproducible).
fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed);
            ((h % 2000) as f32) / 100.0 - 10.0
        })
        .collect()
}

fn trained_engine() -> Engine {
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config("HistNN", ModelConfig::dnn(&[16, 8]))
        .expect("config");
    for i in 0..16u64 {
        let x = i as f64 / 16.0;
        engine.au_extract("SUMMARY", &[x, 1.0 - x, x * x, 0.5]);
        engine.au_extract("OUT", &[2.0 * x]);
        engine
            .au_nn("HistNN", "SUMMARY", &["OUT"])
            .expect("train step");
    }
    engine.set_mode(Mode::Test);
    engine
}

fn main() {
    let mut out = PathBuf::from("BENCH_history.jsonl");
    let mut quick = false;
    let mut print_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--print" => print_only = true,
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => die("--out needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("usage: bench-history [--quick] [--out BENCH_history.jsonl] [--print]");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    // Benches measure the bare paths; the recorder stays disabled so the
    // history tracks compute, not telemetry volume.
    au_telemetry::disable();
    let samples = if quick { 9 } else { 33 };

    let mut benches = BTreeMap::new();

    for n in [64usize, 128] {
        let a = Tensor::from_vec(&[n, n], pseudo(n * n, 1));
        let b = Tensor::from_vec(&[n, n], pseudo(n * n, 2));
        benches.insert(
            format!("gemm_{n}"),
            median_ns(samples, 4, || {
                black_box(black_box(&a).matmul(black_box(&b)));
            }),
        );
    }

    {
        let mut engine = Engine::new(Mode::Train);
        let row = [0.25f64, 0.5, 0.75, 1.0];
        benches.insert(
            "au_extract".to_owned(),
            median_ns(samples, 512, || {
                engine.au_extract("X", black_box(&row));
            }),
        );
    }

    {
        let engine = trained_engine();
        let handle = engine.handle();
        let x = [0.25f64, 0.75, 0.125, 0.5];
        benches.insert(
            "predict".to_owned(),
            median_ns(samples, 128, || {
                black_box(handle.predict("HistNN", black_box(&x)).expect("predict"));
            }),
        );
        let x32 = [0.25f32, 0.75, 0.125, 0.5];
        let mut out32 = Vec::with_capacity(8);
        benches.insert(
            "predict_f32".to_owned(),
            median_ns(samples, 128, || {
                out32.clear();
                handle
                    .predict_f32_into("HistNN", black_box(&x32), &mut out32)
                    .expect("predict_f32");
                black_box(&out32);
            }),
        );
    }

    {
        // AuLang execution tiers on the canny corpus program: traced
        // interpreter (status quo), untraced bytecode VM, and selectively
        // traced bytecode VM. Whole-program medians, like the aulang_exec
        // Criterion bench but sized for the history gate.
        use au_lang::{compile_program, corpus, parse, Interpreter, TraceMode, Vm};
        let p = corpus::all()[0];
        let program = parse(p.src).expect("corpus parses");
        let vm_off = compile_program(&program, TraceMode::Off);
        let vm_sel = compile_program(&program, TraceMode::Selective);
        benches.insert(
            "aulang_interp".to_owned(),
            median_ns(samples, 1, || {
                au_nn::set_init_seed(p.nn_seed);
                let mut interp = Interpreter::with_program(program.clone());
                interp.set_seed(7);
                let _ = black_box(interp.run());
            }),
        );
        benches.insert(
            "aulang_vm".to_owned(),
            median_ns(samples, 1, || {
                au_nn::set_init_seed(p.nn_seed);
                let mut vm = Vm::from_compiled(vm_off.clone());
                vm.set_seed(7);
                let _ = black_box(vm.run());
            }),
        );
        benches.insert(
            "aulang_vm_traced".to_owned(),
            median_ns(samples, 1, || {
                au_nn::set_init_seed(p.nn_seed);
                let mut vm = Vm::from_compiled(vm_sel.clone());
                vm.set_seed(7);
                let _ = black_box(vm.run());
            }),
        );
    }

    {
        // The abstract interpreter behind the AU011-AU015 lints: one
        // sample analyzes all nine parsed corpus programs.
        use au_lang::{absint, corpus, parse};
        let programs: Vec<_> = corpus::all()
            .iter()
            .map(|p| parse(p.src).expect("corpus parses"))
            .collect();
        benches.insert(
            "absint_corpus".to_owned(),
            median_ns(samples, 1, || {
                for program in &programs {
                    black_box(absint::analyze(black_box(program)));
                }
            }),
        );
    }

    {
        // bench-e2e's corpus_cycle set-up without its pool warm-up: one
        // sample parses the nine corpus programs, compiles each for TR
        // (Selective) and TS (Off), and builds the static graph and filter
        // behind the extraction pre-pass, so the front end is tracked
        // between bench-e2e runs.
        use au_lang::{compile_program, corpus, parse, static_analysis, TraceMode};
        use au_trace::StaticFilter;
        let sources: Vec<&str> = corpus::all().iter().map(|p| p.src).collect();
        benches.insert(
            "frontend_corpus".to_owned(),
            median_ns(samples, 1, || {
                for src in &sources {
                    let program = parse(black_box(src)).expect("corpus parses");
                    black_box(compile_program(&program, TraceMode::Selective));
                    black_box(compile_program(&program, TraceMode::Off));
                    black_box(StaticFilter::new(&static_analysis::analyze(&program)));
                }
            }),
        );
    }

    {
        // One DqnAgent::observe on the `models` Criterion bench's
        // 8-feature chain: a replay push, plus a learning step every
        // second call (the warm-up sample fills the buffer past a batch).
        use au_nn::rl::{DqnAgent, DqnConfig, Transition};
        au_nn::set_init_seed(3);
        let mut agent = DqnAgent::new(
            8,
            4,
            DqnConfig {
                hidden: vec![32, 16],
                batch_size: 32,
                target_sync_every: 100,
                seed: 1,
                learn_every: 2,
                ..DqnConfig::default()
            },
        );
        let mut i = 0u32;
        benches.insert(
            "dqn_observe".to_owned(),
            median_ns(samples, 64, || {
                i += 1;
                black_box(agent.observe(Transition {
                    state: &[(i % 100) as f32 / 100.0; 8],
                    action: (i % 4) as usize,
                    reward: 0.1,
                    next_state: &[((i + 1) % 100) as f32 / 100.0; 8],
                    terminal: i.is_multiple_of(50),
                }));
            }),
        );
    }

    benches.insert(
        "pool_map_1k".to_owned(),
        median_ns(samples, 8, || {
            black_box(au_par::pool_map(1024, 64, |i| {
                let x = i as f64 * 0.001;
                x.sin().mul_add(x, x.sqrt())
            }));
        }),
    );

    // A two-range region after the pool's workers have parked, as
    // between the set-ups of a real program; the back-to-back regions of
    // `pool_map_1k` never let them park. The thread budget is pinned for
    // the leg, as bench-e2e pins it.
    au_par::set_thread_override(Some(au_par::max_threads()));
    benches.insert(
        "pool_region_parked".to_owned(),
        median_after_idle_ns(samples, Duration::from_millis(2), || {
            black_box(au_par::pool_map(2, 1, |i| i));
        }),
    );
    au_par::set_thread_override(None);

    let run = HistoryRun::now(benches);
    for (name, ns) in &run.benches {
        eprintln!("{name:>12}  {ns:>14.1} ns/iter");
    }
    if print_only {
        println!("{}", run.to_json());
        return;
    }
    if let Err(e) = append(&out, &run) {
        die(&format!("cannot append to {}: {e}", out.display()));
    }
    eprintln!(
        "appended run (commit {}, {} benches) to {}",
        run.commit,
        run.benches.len(),
        out.display()
    );
}

fn die(msg: &str) -> ! {
    eprintln!("bench-history: {msg}");
    std::process::exit(2);
}
