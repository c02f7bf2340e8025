//! The AuLang command-line runner.
//!
//! ```text
//! aulang run <file.au> [--engine interp|vm|vm-traced] [--preflight] [--input name=value]... [--seed N] [--no-trace]
//! aulang check <file.au> [--deny warnings] [--format json]
//! aulang dot <file.au>          # dynamic dependence graph (Graphviz)
//! aulang static <file.au>       # static dependence graph (Graphviz)
//! aulang fmt <file.au>          # canonical pretty-printed source
//! aulang features <file.au>     # run + Algorithm 1/2 feature extraction
//! ```
//!
//! Exit codes distinguish *what failed*: `0` success, `1` the program was
//! understood but failed (lint findings denied by `check`, preflight
//! refusals, runtime errors), `2` the invocation or source could not be
//! processed at all (usage errors, unreadable files, lex/parse errors).
//! CI can therefore tell "the program is bad" from "the command is bad".
//!
//! `run` defaults to the **bytecode VM** with tracing compiled out — the
//! fast serving tier. `--engine vm-traced` compiles in selective tracing
//! (only variables the static dependence graph says can reach an
//! extraction pair are recorded); `--engine interp` uses the tree-walking
//! interpreter, which stays the semantic oracle. `dot` and `features`
//! need the dependence graph, so they default to the interpreter and use
//! full tracing when pointed at the VM.
//!
//! `check` runs the `au-lint` static verifier and renders rustc-style
//! diagnostics (or a JSON array with `--format json`); it exits non-zero on
//! any error-severity finding, or on any finding at all under `--deny
//! warnings`. `run --preflight` gates execution behind the same verifier:
//! errors refuse to run, warnings are reported and execution proceeds.
//!
//! The runner executes the program with the full Autonomizer runtime: the
//! `au_*` primitives train/serve models in-process, and (unless
//! `--no-trace`) every assignment is recorded into the dynamic dependence
//! graph used by `dot` and `features`.
//!
//! Diagnostics go through leveled events on the `au-telemetry` recorder
//! (so they appear in exported traces as well): `-q`/`--quiet` shows
//! errors only, the default also shows run statistics, and
//! `-v`/`--verbose` adds debug detail.

use au_lang::{parse, pretty, static_analysis, Interpreter, RunStats, TraceMode, Value, Vm};
use au_telemetry::Level;
use au_trace::{extract_rl, extract_sl, AnalysisDb, RlParams};
use std::process::ExitCode;

/// Splits the verbosity flags out of the raw argument list so they can
/// appear anywhere (before or after the subcommand) without disturbing
/// the positional `<command> <file>` parse.
fn take_verbosity(args: &mut Vec<String>) -> Level {
    let quiet = args.iter().any(|a| a == "-q" || a == "--quiet");
    let verbose = args.iter().any(|a| a == "-v" || a == "--verbose");
    args.retain(|a| a != "-q" && a != "--quiet" && a != "-v" && a != "--verbose");
    if quiet {
        Level::Error
    } else if verbose {
        Level::Debug
    } else {
        Level::Info
    }
}

/// Emits one leveled diagnostic line through the au-telemetry recorder,
/// which echoes it to stderr at or above the verbosity set in `main`.
fn diag(level: Level, message: &str) {
    au_telemetry::event(level, "aulang", message);
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    au_telemetry::set_verbosity(take_verbosity(&mut args));
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Failure(message)) => {
            diag(Level::Error, &message);
            ExitCode::FAILURE
        }
        Err(CliError::Usage(message)) => {
            diag(Level::Error, &message);
            ExitCode::from(2)
        }
    }
}

/// What went wrong, split by exit code.
enum CliError {
    /// The program was understood but failed: denied lint findings,
    /// preflight refusals, runtime errors. Exit 1.
    Failure(String),
    /// The invocation or source could not be processed: usage errors,
    /// unreadable files, lex/parse errors. Exit 2.
    Usage(String),
}

fn usage() -> String {
    "usage: aulang <run|check|dot|static|fmt|features> <file.au> [--engine interp|vm|vm-traced] [--preflight] [--deny warnings] [--format json] [--input name=value]... [--seed N] [--no-trace] [-q|--quiet] [-v|--verbose]"
        .to_owned()
}

/// The two execution tiers behind one surface: the tree-walking
/// interpreter (semantic oracle) and the bytecode VM (serving tier).
enum Exec {
    Interp(Box<Interpreter>),
    Vm(Box<Vm>),
}

impl Exec {
    fn set_input(&mut self, name: &str, value: Value) {
        match self {
            Exec::Interp(i) => i.set_input(name, value),
            Exec::Vm(v) => v.set_input(name, value),
        }
    }

    fn set_seed(&mut self, seed: u64) {
        match self {
            Exec::Interp(i) => i.set_seed(seed),
            Exec::Vm(v) => v.set_seed(seed),
        }
    }

    fn run(&mut self) -> Result<Value, String> {
        match self {
            Exec::Interp(i) => i.run().map_err(|e| e.to_string()),
            Exec::Vm(v) => v.run().map_err(|e| e.to_string()),
        }
    }

    fn output(&self) -> &[String] {
        match self {
            Exec::Interp(i) => i.output(),
            Exec::Vm(v) => v.output(),
        }
    }

    fn stats(&self) -> RunStats {
        match self {
            Exec::Interp(i) => i.stats(),
            Exec::Vm(v) => v.stats(),
        }
    }

    fn analysis(&self) -> &AnalysisDb {
        match self {
            Exec::Interp(i) => i.analysis(),
            Exec::Vm(v) => v.analysis(),
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (command, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) => (c.as_str(), f.as_str()),
        _ => return Err(CliError::Usage(usage())),
    };
    let source = std::fs::read_to_string(file)
        .map_err(|e| CliError::Usage(format!("cannot read {file}: {e}")))?;
    let bad_source = |e: au_lang::LangError| CliError::Usage(e.to_string());

    match command {
        "fmt" => {
            let program = parse(&source).map_err(bad_source)?;
            print!("{}", pretty::print_program(&program));
            Ok(())
        }
        "static" => {
            let program = parse(&source).map_err(bad_source)?;
            let db = static_analysis::analyze(&program);
            print!("{}", db.to_dot());
            Ok(())
        }
        "check" => {
            let deny_warnings = args
                .windows(2)
                .any(|w| w[0] == "--deny" && w[1] == "warnings");
            let json = args
                .windows(2)
                .any(|w| w[0] == "--format" && w[1] == "json");
            let diags = au_lint::lint_source(&source).map_err(bad_source)?;
            if json {
                println!("{}", au_lint::diagnostics_to_json(&diags));
            } else if diags.is_empty() {
                diag(Level::Info, &format!("{file}: no diagnostics"));
            } else {
                print!("{}", au_lint::render_all(&diags, file));
            }
            let errors = diags
                .iter()
                .filter(|d| d.severity == au_lint::Severity::Error)
                .count();
            if errors > 0 {
                Err(CliError::Failure(format!(
                    "{file}: {errors} protocol error(s)"
                )))
            } else if deny_warnings && !diags.is_empty() {
                Err(CliError::Failure(format!(
                    "{file}: {} warning(s) denied by --deny warnings",
                    diags.len()
                )))
            } else {
                Ok(())
            }
        }
        "run" | "dot" | "features" => {
            if args.iter().any(|a| a == "--preflight") {
                let diags = au_lint::lint_source(&source).map_err(bad_source)?;
                if !diags.is_empty() {
                    eprint!("{}", au_lint::render_all(&diags, file));
                }
                if diags.iter().any(|d| d.severity == au_lint::Severity::Error) {
                    return Err(CliError::Failure(format!(
                        "{file}: refusing to run (preflight errors)"
                    )));
                }
            }
            let engine = args
                .windows(2)
                .find(|w| w[0] == "--engine")
                .map(|w| w[1].as_str())
                // `run` serves from the VM by default; `dot`/`features`
                // need the dependence graph, so they default to the
                // (always fully traced) interpreter.
                .unwrap_or(if command == "run" { "vm" } else { "interp" });
            let no_trace = args.iter().any(|a| a == "--no-trace");
            let mut exec = match engine {
                "interp" => {
                    let mut interp = Interpreter::compile(&source).map_err(bad_source)?;
                    interp.set_tracing(!no_trace);
                    Exec::Interp(Box::new(interp))
                }
                "vm" | "vm-traced" => {
                    // Tracing is a compile-time decision in the VM: `dot`
                    // wants the full graph, `features` and `vm-traced`
                    // runs use the statically pruned selective tier, and
                    // a plain `run` compiles tracing out entirely.
                    let mode = if no_trace {
                        TraceMode::Off
                    } else if command == "dot" {
                        TraceMode::Full
                    } else if command == "features" || engine == "vm-traced" {
                        TraceMode::Selective
                    } else {
                        TraceMode::Off
                    };
                    let vm = Vm::compile(&source, mode).map_err(bad_source)?;
                    diag(
                        Level::Debug,
                        &format!(
                            "bytecode: {} ops, {} trace ops, requested {:?}, effective {:?}",
                            vm.compiled().op_count(),
                            vm.compiled().trace_op_count(),
                            vm.trace_mode(),
                            vm.effective_trace_mode()
                        ),
                    );
                    Exec::Vm(Box::new(vm))
                }
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown engine `{other}` (expected interp, vm, or vm-traced)"
                    )))
                }
            };
            for window in args[2..].windows(2) {
                match (window[0].as_str(), window[1].as_str()) {
                    ("--input", pair) => {
                        let (name, value) = pair.split_once('=').ok_or_else(|| {
                            CliError::Usage(format!("--input needs name=value, got `{pair}`"))
                        })?;
                        let value: f64 = value.parse().map_err(|e| {
                            CliError::Usage(format!("input {name} is not numeric: {e}"))
                        })?;
                        exec.set_input(name, Value::Num(value));
                    }
                    ("--seed", n) => {
                        let seed: u64 = n
                            .parse()
                            .map_err(|e| CliError::Usage(format!("bad --seed value: {e}")))?;
                        exec.set_seed(seed);
                    }
                    _ => {}
                }
            }
            diag(Level::Debug, &format!("running {file} ({command})"));
            let result = exec.run().map_err(CliError::Failure)?;
            for line in exec.output() {
                println!("{line}");
            }
            match command {
                "run" => {
                    println!("=> {result}");
                    let stats = exec.stats();
                    diag(
                        Level::Info,
                        &format!(
                            "{} statements, {} traced assignments, call depth {}",
                            stats.steps, stats.assignments, stats.max_depth
                        ),
                    );
                }
                "dot" => print!("{}", exec.analysis().to_dot()),
                "features" => {
                    let db = exec.analysis();
                    if db.targets().is_empty() {
                        diag(
                            Level::Info,
                            "no target variables (assign from au_write_back or call mark_target)",
                        );
                    }
                    let sl = extract_sl(db);
                    for (&target, ranked) in &sl {
                        println!(
                            "Algorithm 1: {} <- {:?}",
                            db.name(target),
                            ranked
                                .iter()
                                .map(|f| format!("{}@{}", db.name(f.var), f.distance))
                                .collect::<Vec<_>>()
                        );
                    }
                    let rl = extract_rl(db, RlParams::default());
                    for (&target, selected) in &rl {
                        println!(
                            "Algorithm 2: {} <- {:?}",
                            db.name(target),
                            selected.iter().map(|&v| db.name(v)).collect::<Vec<_>>()
                        );
                    }
                }
                _ => unreachable!("matched above"),
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    }
}
