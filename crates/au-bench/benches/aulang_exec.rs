//! AuLang execution-tier benches: tree-walking interpreter vs. bytecode
//! VM vs. selectively traced bytecode VM across the nine paper programs
//! (`au_lang::corpus`).
//!
//! The interpreter leg runs with tracing on — that is the status quo the
//! bytecode tier replaces (the paper's always-on Valgrind-style
//! instrumentation). The `vm` leg compiles tracing out entirely (the
//! serving tier), the `vm_traced` leg compiles in only the trace
//! opcodes the static dependence graph cannot prune (the TR tier), and
//! the `vm_opt` leg runs the abstract-interpretation optimizer (constant
//! folding, branch pruning, dead-store elimination, superinstruction
//! fusion) on top of the untraced tier.
//!
//! Run with `AU_BENCH_JSON=$PWD/BENCH_kernels.json cargo bench --bench
//! aulang_exec` from the repo root to splice an `"aulang_exec"` section
//! (median ns per program and engine, plus the headline speedup) into
//! that file — cargo runs bench binaries with the package directory as
//! cwd, so pass an absolute path.

use au_lang::{corpus, parse, CompiledProgram, Interpreter, Program, TraceMode, Vm};
use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// One full interpreter run (tracing on, the status quo tier).
fn run_interp(p: &corpus::CorpusProgram, program: &Program) -> u64 {
    au_nn::set_init_seed(p.nn_seed);
    let mut interp = Interpreter::with_program(program.clone());
    interp.set_seed(7);
    if let Some(limit) = p.step_limit {
        interp.set_step_limit(limit);
    }
    let _ = black_box(interp.run());
    interp.stats().steps
}

/// One full VM run of an already-compiled program.
fn run_vm(p: &corpus::CorpusProgram, compiled: &CompiledProgram) -> u64 {
    au_nn::set_init_seed(p.nn_seed);
    let mut vm = Vm::from_compiled(compiled.clone());
    vm.set_seed(7);
    if let Some(limit) = p.step_limit {
        vm.set_step_limit(limit);
    }
    let _ = black_box(vm.run());
    vm.stats().steps
}

fn bench_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("aulang_exec");
    // Whole-program runs are tens of milliseconds; a handful of samples
    // keeps the 27-leg sweep inside bench-smoke time.
    group.sample_size(5);
    for p in corpus::all() {
        let program = parse(p.src).expect("corpus parses");
        let vm_off = au_lang::compile_program(&program, TraceMode::Off);
        let vm_sel = au_lang::compile_program(&program, TraceMode::Selective);
        let vm_opt = au_lang::compile_program_opt(&program, TraceMode::Off);
        group.bench_function(format!("{}/interp", p.name), |b| {
            b.iter(|| run_interp(&p, &program))
        });
        group.bench_function(format!("{}/vm", p.name), |b| b.iter(|| run_vm(&p, &vm_off)));
        group.bench_function(format!("{}/vm_traced", p.name), |b| {
            b.iter(|| run_vm(&p, &vm_sel))
        });
        group.bench_function(format!("{}/vm_opt", p.name), |b| {
            b.iter(|| run_vm(&p, &vm_opt))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_corpus);

// ---------------------------------------------------------------------
// BENCH_kernels.json splice (AU_BENCH_JSON=<path>)
// ---------------------------------------------------------------------

/// Median seconds per run over `samples` timed runs (a corpus program is
/// far past the timer-resolution floor, so one run per sample is enough).
fn measure<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    f(); // warmup
    let mut per: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    per.sort_by(|a, b| a.total_cmp(b));
    per[per.len() / 2]
}

/// Renders the `"aulang_exec"` object (without trailing newline), indented
/// as the value of a top-level key of `BENCH_kernels.json`.
fn render_section(samples: usize) -> String {
    use std::fmt::Write as _;
    let mut rows = String::new();
    let mut speedups = Vec::new();
    let mut opt_speedups = Vec::new();
    for p in corpus::all() {
        let program = parse(p.src).expect("corpus parses");
        let vm_off = au_lang::compile_program(&program, TraceMode::Off);
        let vm_sel = au_lang::compile_program(&program, TraceMode::Selective);
        let vm_optc = au_lang::compile_program_opt(&program, TraceMode::Off);
        let interp_s = measure(
            || {
                black_box(run_interp(&p, &program));
            },
            samples,
        );
        let vm_s = measure(
            || {
                black_box(run_vm(&p, &vm_off));
            },
            samples,
        );
        let traced_s = measure(
            || {
                black_box(run_vm(&p, &vm_sel));
            },
            samples,
        );
        let opt_s = measure(
            || {
                black_box(run_vm(&p, &vm_optc));
            },
            samples,
        );
        speedups.push(interp_s / vm_s);
        opt_speedups.push(vm_s / opt_s);
        writeln!(
            rows,
            "    \"{}\": {{ \"interp_ns\": {:.0}, \"vm_ns\": {:.0}, \"vm_traced_ns\": {:.0}, \"vm_opt_ns\": {:.0}, \"vm_speedup\": {:.2}, \"traced_speedup\": {:.2}, \"opt_speedup\": {:.2} }},",
            p.name,
            interp_s * 1e9,
            vm_s * 1e9,
            traced_s * 1e9,
            opt_s * 1e9,
            interp_s / vm_s,
            interp_s / traced_s,
            vm_s / opt_s,
        )
        .expect("format");
        eprintln!(
            "{:>10}: interp {:.1} ms, vm {:.1} ms ({:.2}x), vm_traced {:.1} ms ({:.2}x), vm_opt {:.1} ms ({:.2}x over vm)",
            p.name,
            interp_s * 1e3,
            vm_s * 1e3,
            interp_s / vm_s,
            traced_s * 1e3,
            interp_s / traced_s,
            opt_s * 1e3,
            vm_s / opt_s,
        );
    }
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let opt_geomean =
        (opt_speedups.iter().map(|s| s.ln()).sum::<f64>() / opt_speedups.len() as f64).exp();
    format!(
        "{{\n{rows}    \"vm_speedup_geomean\": {geomean:.2},\n    \"vm_opt_speedup_geomean\": {opt_geomean:.2},\n    \"note\": \"Median seconds per full run of the nine paper programs; interp is the traced tree-walking interpreter (the status quo), vm the untraced bytecode tier, vm_traced the selectively traced tier, vm_opt the abstract-interpretation-optimized untraced tier (opt_speedup is vm/vm_opt). Single-core container.\"\n  }}"
    )
}

/// Splices the section into `path` as its `"aulang_exec"` key, leaving
/// every other key as it was.
fn write_json(path: &str) {
    let section = render_section(5);
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_owned());
    let merged = au_bench::splice_json_key(&text, "aulang_exec", &section);
    std::fs::write(path, merged).expect("write bench json");
    println!("spliced aulang_exec into {path}");
}

fn main() {
    au_telemetry::disable();
    benches();
    if let Ok(path) = std::env::var("AU_BENCH_JSON") {
        write_json(&path);
    }
}
