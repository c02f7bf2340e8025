//! `corpus_cycle`: the nine `au_lang::corpus` programs, TR → Algorithm 1/2
//! → TS, on the bytecode VM.
//!
//! Each round takes every program, in Table 1 order, through TR: a
//! Selective-traced VM run on a fresh `Mode::Train` engine, then the
//! statically pre-pruned Algorithms 1 and 2 over its analysis database.
//! Then TS runs the absint-optimized untraced VM on each program's trained
//! engine, switched to `Mode::Test`. Every TS run needs an engine fresh
//! from TR: a run cut off at its step limit can leave a partly extracted
//! feature vector in π that the next run on the engine would trip over. A
//! unit of TS work is one TS round: every program's TS run once. (The
//! programs' TS times lie far apart, so the median over single runs would
//! sit on whichever program ranks fifth, and jump.) Every run is checked
//! against the tree-walking interpreter, computed once before measuring.

use crate::{Measured, Probe};
use au_core::{Engine, Mode};
use au_lang::corpus::{self, CorpusProgram};
use au_lang::{
    compile_program, compile_program_opt, parse, static_analysis, CompiledProgram, Interpreter,
    TraceMode, Value, Vm,
};
use au_trace::{extract_rl_pruned, extract_sl_pruned, AnalysisDb, RlParams, StaticFilter};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One program after the front end: what set-up produces.
pub struct Program {
    entry: CorpusProgram,
    tr: CompiledProgram,
    ts: CompiledProgram,
    filter: StaticFilter,
}

/// The front end for all nine programs: parse, compile for TR
/// (Selective tracing) and for TS (optimized, untraced), and the static
/// analysis behind the extraction pre-pass.
pub fn setup() -> Vec<Program> {
    corpus::all()
        .into_iter()
        .map(|entry| {
            let program = {
                let _s = au_telemetry::span!("au_lang.parse_ms");
                parse(entry.src).expect("corpus programs parse")
            };
            let tr = {
                let _s = au_telemetry::span!("au_lang.compile_ms");
                compile_program(&program, TraceMode::Selective)
            };
            let ts = {
                let _s = au_telemetry::span!("au_lang.compile_opt_ms");
                compile_program_opt(&program, TraceMode::Off)
            };
            let filter = {
                let _s = au_telemetry::span!("au_lang.static_analysis_ms");
                StaticFilter::new(&static_analysis::analyze(&program))
            };
            Program {
                entry,
                tr,
                ts,
                filter,
            }
        })
        .collect()
}

/// What a run leaves behind that the oracle pins down.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    result: Result<Value, String>,
    output: Vec<String>,
    /// Training steps per configured model.
    train_steps: BTreeMap<String, u64>,
    /// Scalars extracted into π during the run.
    extracted: u64,
}

/// What a run left behind; `extracted_before` is the engine's extraction
/// count when the run started.
fn observe(
    result: Result<Value, au_lang::LangError>,
    output: Vec<String>,
    engine: &mut Engine,
    extracted_before: u64,
) -> Observed {
    let train_steps = engine
        .model_names()
        .into_iter()
        .filter_map(|m| engine.model_stats(&m).map(|s| (m, s.train_steps)))
        .collect();
    Observed {
        result: result.map_err(|e| e.to_string()),
        output,
        train_steps,
        extracted: engine.total_extracted() - extracted_before,
    }
}

/// Algorithm 1 and 2 selections, by variable name.
#[derive(Debug, Clone, PartialEq)]
struct Selections {
    sl: BTreeMap<String, Vec<(String, usize)>>,
    rl: BTreeMap<String, Vec<String>>,
}

/// Runs Algorithms 1 and 2 through the static pre-pass; returns the
/// selections and the (considered, pruned) candidate-pair counts.
fn select(db: &AnalysisDb, filter: &StaticFilter) -> (Selections, usize, usize) {
    let (sl, sl_stats) = {
        let _s = au_telemetry::span!("au_trace.alg1_ms");
        extract_sl_pruned(db, filter)
    };
    let (rl, rl_stats) = {
        let _s = au_telemetry::span!("au_trace.alg2_ms");
        extract_rl_pruned(db, filter, RlParams::default())
    };
    let sl = sl
        .iter()
        .map(|(&t, feats)| {
            let names = feats
                .iter()
                .map(|f| (db.name(f.var).to_owned(), f.distance))
                .collect();
            (db.name(t).to_owned(), names)
        })
        .collect();
    let rl = rl
        .iter()
        .map(|(&t, ex)| {
            let names = ex.selected.iter().map(|&v| db.name(v).to_owned()).collect();
            (db.name(t).to_owned(), names)
        })
        .collect();
    (
        Selections { sl, rl },
        sl_stats.considered + rl_stats.considered,
        sl_stats.pruned + rl_stats.pruned,
    )
}

/// The interpreter's verdict for one program: the TR run, the selections
/// over its full analysis database, and the TS run on the trained engine.
struct Oracle {
    tr: Observed,
    selections: Selections,
    ts: Observed,
}

fn nn_seed(entry: &CorpusProgram, seed: u64) -> u64 {
    entry.nn_seed ^ seed
}

fn oracle(p: &Program, seed: u64) -> Oracle {
    let entry = &p.entry;
    au_nn::set_init_seed(nn_seed(entry, seed));
    let mut tr = Interpreter::compile(entry.src).expect("corpus programs parse");
    tr.set_tracing(true);
    tr.set_seed(seed);
    if let Some(limit) = entry.step_limit {
        tr.set_step_limit(limit);
    }
    let result = tr.run();
    let tr_obs = observe(result, tr.output().to_vec(), tr.engine_mut(), 0);
    let (selections, _, _) = select(tr.analysis(), &p.filter);

    let mut engine = std::mem::replace(tr.engine_mut(), Engine::new(Mode::Train));
    engine.set_mode(Mode::Test);
    let before = engine.total_extracted();
    let mut ts = Interpreter::compile(entry.src).expect("corpus programs parse");
    ts.set_tracing(false);
    ts.set_engine(engine);
    ts.set_seed(seed);
    if let Some(limit) = entry.step_limit {
        ts.set_step_limit(limit);
    }
    let result = ts.run();
    let ts_obs = observe(result, ts.output().to_vec(), ts.engine_mut(), before);
    Oracle {
        tr: tr_obs,
        selections,
        ts: ts_obs,
    }
}

/// The corpus workload's state between set-up and measurement.
pub struct Corpus {
    programs: Vec<Program>,
    oracles: Vec<Oracle>,
    seed: u64,
}

impl Corpus {
    /// Computes the interpreter oracle for every program (benchmark work:
    /// not timed, not part of set-up).
    pub fn new(programs: Vec<Program>, seed: u64) -> Self {
        let oracles = programs.iter().map(|p| oracle(p, seed)).collect();
        Corpus {
            programs,
            oracles,
            seed,
        }
    }
}

/// A run ends in an error only by design: the endless checkpoint/restore
/// loops stop at their step budget.
fn designed_stop(entry: &CorpusProgram, obs: &Observed) -> bool {
    match &obs.result {
        Ok(_) => true,
        Err(e) => entry.step_limit.is_some() && e.contains("step limit"),
    }
}

/// TS rounds per throughput window.
const WINDOW_ROUNDS: u64 = 5;

/// Runs rounds until `window` has elapsed, one round at least. A round is
/// TR for every program on fresh engines, then TS on the engines it
/// trained.
pub fn measure(c: &Corpus, window: Duration, probe: &mut Probe) -> Measured {
    let mut m = Measured::new(WINDOW_ROUNDS);
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < window {
        let first = rounds == 0;
        let mut tr = Duration::ZERO;
        let engines: Vec<Engine> = c
            .programs
            .iter()
            .zip(&c.oracles)
            .map(|(p, o)| train(c.seed, p, o, first, &mut tr, &mut m, probe))
            .collect();
        m.autonomize_s.push(tr.as_secs_f64());

        m.ts_start();
        let mut ts = Duration::ZERO;
        {
            let _unit = au_telemetry::span!("bench.corpus_ts");
            for ((p, o), engine) in c.programs.iter().zip(&c.oracles).zip(engines) {
                deploy(c.seed, p, o, engine, first, &mut ts, &mut m);
            }
        }
        m.deploy(ts);
        m.ts_stop();
        probe.between_units();
        rounds += 1;
    }
    m
}

/// TR for one program: the trace-collecting run, then Algorithms 1/2 over
/// its database. Adds the time both took to `tr`; returns the trained
/// engine in `Mode::Test`. Counts are taken on the `first` pass.
fn train(
    seed: u64,
    p: &Program,
    o: &Oracle,
    first: bool,
    tr: &mut Duration,
    m: &mut Measured,
    probe: &mut Probe,
) -> Engine {
    let entry = &p.entry;
    let name = entry.name;
    au_nn::set_init_seed(nn_seed(entry, seed));
    let mut vm = Vm::from_compiled(p.tr.clone());
    vm.set_seed(seed);
    if let Some(limit) = entry.step_limit {
        vm.set_step_limit(limit);
    }
    let before = probe.tr_counters();
    let t0 = Instant::now();
    let (result, selections, considered, pruned) = {
        let _unit = au_telemetry::span!("bench.corpus_tr");
        let result = {
            let _s = au_telemetry::span!("au_lang.vm_tr_run_ms");
            vm.run()
        };
        let (selections, considered, pruned) = select(vm.analysis(), &p.filter);
        (result, selections, considered, pruned)
    };
    *tr += t0.elapsed();
    let obs = observe(result, vm.output().to_vec(), vm.engine_mut(), 0);
    m.attempted += 1;
    if obs != o.tr || !designed_stop(entry, &obs) {
        m.fail(format!(
            "[{name}] TR run diverged from the interpreter: {obs:?} vs {:?}",
            o.tr
        ));
    } else if selections != o.selections {
        m.fail(format!(
            "[{name}] Algorithm 1/2 selections diverged from the full database"
        ));
    }
    if first {
        probe.add_tr_counters(before, m);
        let db = vm.analysis();
        m.add_count("au_lang.vm_tr_steps", vm.stats().steps as f64);
        m.add_count("au_trace.db_vars", db.var_count() as f64);
        let values: usize = db.all_vars().map(|v| db.trace(v).len()).sum();
        m.add_count("au_trace.trace_values", values as f64);
        m.add_count("bench.prune_considered", considered as f64);
        m.add_count("bench.prune_pruned", pruned as f64);
        m.add_count("au_core.trace_values", obs.extracted as f64);
        m.add_count(
            "au_core.rows_trained",
            obs.train_steps.values().sum::<u64>() as f64,
        );
    }
    probe.between_units();
    let mut engine = std::mem::replace(vm.engine_mut(), Engine::new(Mode::Train));
    engine.set_mode(Mode::Test);
    engine
}

/// TS for one program: the optimized untraced VM on its trained engine.
/// Adds the run's time to `ts`; counts steps on the `first` round.
fn deploy(
    seed: u64,
    p: &Program,
    o: &Oracle,
    engine: Engine,
    first: bool,
    ts: &mut Duration,
    m: &mut Measured,
) {
    let entry = &p.entry;
    let before = engine.total_extracted();
    let mut vm = Vm::from_compiled(p.ts.clone());
    vm.set_engine(engine);
    vm.set_seed(seed);
    if let Some(limit) = entry.step_limit {
        vm.set_step_limit(limit);
    }
    let t0 = Instant::now();
    let result = {
        let _s = au_telemetry::span!("au_lang.vm_ts_run_ms");
        vm.run()
    };
    *ts += t0.elapsed();
    let obs = observe(result, vm.output().to_vec(), vm.engine_mut(), before);
    m.attempted += 1;
    if obs != o.ts || !designed_stop(entry, &obs) {
        m.fail(format!(
            "[{}] TS run diverged from the interpreter: {obs:?} vs {:?}",
            entry.name, o.ts
        ));
    }
    if first {
        m.add_count("au_lang.vm_ts_steps", vm.stats().steps as f64);
    }
}
