//! Differential testing: the bytecode VM against the tree-walking
//! interpreter (the reference oracle) across the nine paper programs and
//! the lint corpus. The VM runs the compiler's only output, fused
//! superinstructions included, in every trace mode.
//!
//! For every program and engine pair we assert identical results (value or
//! error message), identical `print` output, identical step/depth
//! statistics, and identical π/θ effects (model training steps). Under
//! Full tracing the VM's analysis database must be *bit-identical*
//! (`to_dot` equality) to the interpreter's; under Selective tracing the
//! database may be smaller, but pruned feature extraction (Algorithms 1–2
//! behind the static filter) must select exactly the same features.

use autonomizer::lang::{corpus, parse, static_analysis, Interpreter, TraceMode, Value, Vm};
use autonomizer::trace::{extract_rl_pruned, extract_sl_pruned, RlParams, StaticFilter};
use std::collections::BTreeMap;

/// Result + observable effects of one run, engine-agnostic.
struct RunOutcome {
    result: Result<Value, String>,
    output: Vec<String>,
    steps: u64,
    max_depth: usize,
    assignments: u64,
    dot: String,
    /// Training steps per model touched by the program.
    train_steps: BTreeMap<String, u64>,
}

fn model_names(src: &str) -> Vec<String> {
    // Every corpus model is introduced by au_config("Name", ...).
    src.split("au_config(\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

fn run_interp(p: &corpus::CorpusProgram, tracing: bool) -> RunOutcome {
    autonomizer::nn::set_init_seed(p.nn_seed);
    let mut interp = Interpreter::compile(p.src).expect("corpus parses");
    interp.set_tracing(tracing);
    interp.set_seed(7);
    if let Some(limit) = p.step_limit {
        interp.set_step_limit(limit);
    }
    let result = interp.run().map_err(|e| e.to_string());
    let stats = interp.stats();
    let train_steps = model_names(p.src)
        .into_iter()
        .filter_map(|m| {
            interp
                .engine_mut()
                .model_stats(&m)
                .map(|s| (m, s.train_steps))
        })
        .collect();
    RunOutcome {
        result,
        output: interp.output().to_vec(),
        steps: stats.steps,
        max_depth: stats.max_depth,
        assignments: stats.assignments,
        dot: interp.analysis().to_dot(),
        train_steps,
    }
}

fn run_vm(p: &corpus::CorpusProgram, mode: TraceMode) -> (RunOutcome, Vm) {
    autonomizer::nn::set_init_seed(p.nn_seed);
    let mut vm = Vm::compile(p.src, mode).expect("corpus parses");
    vm.set_seed(7);
    if let Some(limit) = p.step_limit {
        vm.set_step_limit(limit);
    }
    let result = vm.run().map_err(|e| e.to_string());
    let stats = vm.stats();
    let train_steps = model_names(p.src)
        .into_iter()
        .filter_map(|m| vm.engine_mut().model_stats(&m).map(|s| (m, s.train_steps)))
        .collect();
    let outcome = RunOutcome {
        result,
        output: vm.output().to_vec(),
        steps: stats.steps,
        max_depth: stats.max_depth,
        assignments: stats.assignments,
        dot: vm.analysis().to_dot(),
        train_steps,
    };
    (outcome, vm)
}

fn assert_same_observables(name: &str, a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.result, b.result, "[{name}] result mismatch");
    assert_eq!(a.output, b.output, "[{name}] output mismatch");
    assert_eq!(a.steps, b.steps, "[{name}] step-count mismatch");
    assert_eq!(a.max_depth, b.max_depth, "[{name}] call-depth mismatch");
    assert_eq!(
        a.train_steps, b.train_steps,
        "[{name}] model training diverged"
    );
}

/// Untraced VM vs. untraced interpreter: identical values and effects.
#[test]
fn corpus_untraced_vm_matches_interp() {
    for p in &corpus::all() {
        let interp = run_interp(p, false);
        let (vm, _) = run_vm(p, TraceMode::Off);
        assert_same_observables(p.name, &interp, &vm);
        assert_eq!(vm.assignments, 0, "[{}] untraced VM traced", p.name);
    }
}

/// Fully-traced VM vs. traced interpreter: the analysis database must be
/// bit-identical — same variables in the same interning order, same
/// edges, same marks.
#[test]
fn corpus_full_trace_db_is_bit_identical() {
    for p in &corpus::all() {
        let interp = run_interp(p, true);
        let (vm, _) = run_vm(p, TraceMode::Full);
        assert_same_observables(p.name, &interp, &vm);
        assert_eq!(
            interp.assignments, vm.assignments,
            "[{}] assignment-count mismatch",
            p.name
        );
        assert_eq!(interp.dot, vm.dot, "[{}] analysis db mismatch", p.name);
    }
}

/// Selectively-traced VM vs. traced interpreter: pruned extraction over
/// the selective database selects exactly the features the interpreter's
/// full database yields — Algorithm 1 (SL) and Algorithm 2 (RL), by name.
#[test]
fn corpus_selective_trace_preserves_extraction_selections() {
    for p in &corpus::all() {
        let interp = run_interp(p, true);
        let (vm_out, vm) = run_vm(p, TraceMode::Selective);
        assert_same_observables(p.name, &interp, &vm_out);
        assert_eq!(
            vm.effective_trace_mode(),
            TraceMode::Selective,
            "[{}] corpus programs must be statically analyzable",
            p.name
        );

        // Rebuild the interpreter run to get its database by value.
        autonomizer::nn::set_init_seed(p.nn_seed);
        let mut oracle = Interpreter::compile(p.src).unwrap();
        oracle.set_seed(7);
        if let Some(limit) = p.step_limit {
            oracle.set_step_limit(limit);
        }
        let _ = oracle.run();

        let static_db = static_analysis::analyze(&parse(p.src).unwrap());
        let filter = StaticFilter::new(&static_db);

        // Algorithm 1 (supervised features), by name.
        let (full_sl, _) = extract_sl_pruned(oracle.analysis(), &filter);
        let (sel_sl, _) = extract_sl_pruned(vm.analysis(), &filter);
        let by_name =
            |db: &autonomizer::trace::AnalysisDb,
             map: &BTreeMap<_, Vec<autonomizer::trace::RankedFeature>>| {
                map.iter()
                    .map(|(&t, feats)| {
                        (
                            db.name(t).to_owned(),
                            feats
                                .iter()
                                .map(|f| (db.name(f.var).to_owned(), f.distance))
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<BTreeMap<_, _>>()
            };
        assert_eq!(
            by_name(oracle.analysis(), &full_sl),
            by_name(vm.analysis(), &sel_sl),
            "[{}] Algorithm 1 selections diverged",
            p.name
        );

        // Algorithm 2 (RL feature sets), by name.
        let (full_rl, _) = extract_rl_pruned(oracle.analysis(), &filter, RlParams::default());
        let (sel_rl, _) = extract_rl_pruned(vm.analysis(), &filter, RlParams::default());
        let rl_by_name =
            |db: &autonomizer::trace::AnalysisDb,
             map: &BTreeMap<_, autonomizer::trace::RlExtraction>| {
                map.iter()
                    .map(|(&t, ex)| {
                        (
                            db.name(t).to_owned(),
                            ex.selected
                                .iter()
                                .map(|&v| db.name(v).to_owned())
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect::<BTreeMap<_, _>>()
            };
        assert_eq!(
            rl_by_name(oracle.analysis(), &full_rl),
            rl_by_name(vm.analysis(), &sel_rl),
            "[{}] Algorithm 2 selections diverged",
            p.name
        );
    }
}

/// The lint corpus holds deliberately broken programs; whatever each does
/// at runtime (error or not), both engines must do the same thing.
#[test]
fn lint_corpus_programs_behave_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    let mut checked = 0;
    for path in lint_corpus_files(&dir) {
        let src = std::fs::read_to_string(&path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        for mode in [TraceMode::Off, TraceMode::Full, TraceMode::Selective] {
            autonomizer::nn::set_init_seed(11);
            let mut interp = Interpreter::compile(&src).expect("lint corpus parses");
            interp.set_tracing(mode != TraceMode::Off);
            interp.set_seed(3);
            interp.set_step_limit(50_000);
            let a = interp.run().map_err(|e| e.to_string());

            autonomizer::nn::set_init_seed(11);
            let mut vm = Vm::compile(&src, mode).expect("lint corpus parses");
            vm.set_seed(3);
            vm.set_step_limit(50_000);
            let b = vm.run().map_err(|e| e.to_string());

            assert_eq!(a, b, "[{name} {mode:?}] result mismatch");
            assert_eq!(
                interp.output(),
                vm.output(),
                "[{name} {mode:?}] output mismatch"
            );
            assert_eq!(
                interp.stats().steps,
                vm.stats().steps,
                "[{name} {mode:?}] step mismatch"
            );
            if mode == TraceMode::Full {
                assert_eq!(
                    interp.analysis().to_dot(),
                    vm.analysis().to_dot(),
                    "[{name} {mode:?}] analysis db mismatch"
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 20, "all lint-corpus fixtures covered");
}

/// All `.au` fixtures in the lint corpus, including the `clean/`
/// subdirectory, in a stable order.
fn lint_corpus_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).expect("lint corpus exists") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("au") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Every corpus program passes the static verifier with zero findings —
/// the same bar CI holds `examples/aulang/*.au` to.
#[test]
fn corpus_programs_are_lint_clean() {
    for p in &corpus::all() {
        let diags = autonomizer::lint::lint_source(p.src).expect("corpus parses");
        assert!(
            diags.is_empty(),
            "[{}] corpus program has lint findings: {diags:#?}",
            p.name
        );
    }
}
