//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Algorithm 1 distance ranking** — does picking the *closest*
//!    features (Min) actually matter, or would any correlated candidate
//!    do? Compares Min/Med/Raw against a "NoRank" model fed the entire
//!    candidate set (Canny benchmark).
//! 2. **Algorithm 2 thresholds** — sweeps ε₁/ε₂ on TORCS and reports the
//!    surviving feature counts (the paper fixes ε₁=0, ε₂=0.01).
//! 3. **Static vs dynamic dependence analysis** — measures the
//!    false-positive gap that made the paper choose dynamic analysis
//!    (Section 4), on an AuLang program with data-dependent branches; then
//!    measures the flip side — how much of Algorithm 1's candidate set a
//!    static disjointness pre-pass (`extract_sl_pruned`) removes, and the
//!    resulting extraction speedup, with results asserted identical.
//!
//! Run with `cargo run --release -p au-bench --bin ablation [--quick]`.

use au_bench::sl::{compare, Band, CannySl, SlConfig, SlProgram};
use au_core::{Engine, Mode, ModelConfig};
use au_games::{Game, Torcs};
use au_lang::{parse, static_analysis, Interpreter, Value};
use au_trace::{
    extract_rl_detailed, extract_sl, extract_sl_pruned, AnalysisDb, RlParams, StaticFilter,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = au_bench::telemetry::init_from_args(&args);
    let quick = args.iter().any(|a| a == "--quick");
    ranking_ablation(quick);
    println!();
    threshold_sweep();
    println!();
    static_vs_dynamic();
    if let Some(sink) = telemetry {
        au_bench::telemetry::finish_or_exit(sink);
    }
}

/// Part 1: the Min/Med/Raw comparison plus an unranked all-candidates
/// model.
fn ranking_ablation(quick: bool) {
    println!("-- Ablation 1: Algorithm 1 distance ranking (Canny) --");
    let cfg = SlConfig {
        train_inputs: if quick { 12 } else { 120 },
        test_inputs: 10,
        epochs: if quick { 6 } else { 40 },
        ..SlConfig::default()
    };
    let cmp = compare(&CannySl, cfg);
    for band in Band::ALL {
        println!(
            "{:>6}: score {:.3} ({:+.0}% vs baseline), {} features extracted",
            band.name(),
            cmp.band(band).score,
            cmp.improvement_pct(band),
            cmp.band(band).trace_values / cfg.train_inputs as u64,
        );
    }

    // NoRank: concatenate every band (the full candidate set, unranked).
    let program = CannySl;
    let train = program.dataset(cfg.train_inputs, cfg.seed);
    let test = program.dataset(cfg.test_inputs, cfg.seed.wrapping_add(0x9e37));
    let all_features = |scene: &au_image::scene::Scene| -> Vec<f64> {
        let mut f = program.features(scene, Band::Min);
        f.extend(program.features(scene, Band::Med));
        f.extend(program.features(scene, Band::Raw));
        f
    };
    au_nn::set_init_seed(cfg.seed ^ 0xFF);
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config(
            "NoRank",
            ModelConfig::dnn(&[cfg.hidden[0], cfg.hidden[1]]).with_learning_rate(cfg.learning_rate),
        )
        .expect("fresh engine");
    let xs: Vec<Vec<f64>> = train.iter().map(&all_features).collect();
    let ys: Vec<Vec<f64>> = train.iter().map(|s| program.ideal(s)).collect();
    engine
        .train_supervised("NoRank", &xs, &ys, cfg.epochs)
        .expect("training succeeds");
    let mut total = 0.0;
    for scene in &test {
        let p = engine
            .predict("NoRank", &all_features(scene))
            .expect("model built");
        total += program.score_with(scene, &p);
    }
    let norank = total / test.len() as f64;
    let baseline = cmp.baseline_score;
    println!(
        "NoRank: score {:.3} ({:+.0}% vs baseline) — all candidates, no ranking",
        norank,
        (norank - baseline) / baseline.abs() * 100.0
    );
    println!("expected: Min >= NoRank (ranking focuses the model) and Min > Raw");
}

/// Part 2: ε₁/ε₂ sweep on TORCS feature survival.
fn threshold_sweep() {
    println!("-- Ablation 2: Algorithm 2 threshold sweep (TORCS) --");
    let mut game = Torcs::new(9);
    let mut db = AnalysisDb::new();
    game.record_dependences(&mut db);
    for _ in 0..150 {
        game.record_frame(&mut db);
        let a = game.oracle_action();
        if game.step(a).terminal {
            break;
        }
    }
    let steer = db.id("steer").expect("target");
    println!(
        "{:>8} {:>8} {:>10} {:>8} {:>8}",
        "eps1", "eps2", "candidates", "pruned", "kept"
    );
    for &eps1 in &[0.0, 0.5, 2.0] {
        for &eps2 in &[0.0, 0.01, 0.05] {
            let detailed = extract_rl_detailed(
                &db,
                RlParams {
                    epsilon1: eps1,
                    epsilon2: eps2,
                },
            );
            let e = &detailed[&steer];
            println!(
                "{:>8} {:>8} {:>10} {:>8} {:>8}",
                eps1,
                eps2,
                e.candidates.len(),
                e.pruned_redundant.len() + e.pruned_unchanging.len(),
                e.selected.len()
            );
        }
    }
    println!("paper setting (eps1=0, eps2=0.01) keeps the informative features and");
    println!("prunes the duplicate/constant ones; larger eps1 starts deleting signal.");
}

/// Part 3: static over-approximation vs dynamic observation.
fn static_vs_dynamic() {
    println!("-- Ablation 3: static vs dynamic dependence analysis --");
    // A program where most branches are cold for any given input: static
    // analysis must include them all, the dynamic trace sees one path.
    let src = r#"
        fn classify(x) {
            if (x < 10) { return x * 2; }
            if (x < 20) { return x * 3; }
            if (x < 30) { return x * 5; }
            return x * 7;
        }
        fn main() {
            let x = input("x", 5);
            let a = 0; let b = 0; let c = 0; let d = 0;
            if (x < 10) { a = classify(x); }
            else if (x < 20) { b = classify(x); }
            else if (x < 30) { c = classify(x); }
            else { d = classify(x); }
            au_extract("OUT", a + b + c + d);
            let t = 0;
            t = au_write_back("OUT");
            return t;
        }
    "#;
    let program = parse(src).expect("valid program");
    let static_db = static_analysis::analyze(&program);
    let mut interp = Interpreter::compile(src).expect("valid program");
    interp.set_input("x", Value::Num(5.0));
    interp.run().expect("runs");
    let dynamic_db = interp.analysis();

    let count_edges =
        |db: &AnalysisDb| -> usize { db.all_vars().map(|v| db.direct_dependents(v).count()).sum() };
    let sx = static_db.id("x").expect("x");
    let dx = dynamic_db.id("x").expect("x");
    println!(
        "static : {} edges, dep(x) = {} variables",
        count_edges(&static_db),
        static_db.dependents(sx).len()
    );
    println!(
        "dynamic: {} edges, dep(x) = {} variables",
        count_edges(dynamic_db),
        dynamic_db.dependents(dx).len()
    );
    println!("the gap is the paper's false-positive argument for dynamic analysis;");
    println!("every static-only edge would become a spurious feature candidate.");

    // The flip side: disjointness the static graph *can* prove holds
    // dynamically too, so a static pre-pass shrinks Algorithm 1's candidate
    // set without changing its output. Measure the shrinkage and the
    // extraction speedup on the same program, with a cold-path `dead` chain
    // that static analysis proves unrelated to the target.
    let src2 = r#"
        fn main() {
            let x = input("x", 5);
            let dead0 = input("noise", 1);
            let dead1 = dead0 * 2; let dead2 = dead1 + 1; let dead3 = dead2 * dead2;
            let dead4 = dead3 - 1; let dead5 = dead4 * 3; let dead6 = dead5 + dead3;
            let a = x * 2; let b = a + 1; let c = b * b; let d = c + a;
            au_extract("OUT", d);
            let t = 0;
            t = au_write_back("OUT");
            let final = d + t;
            return final + dead6;
        }
    "#;
    let program2 = parse(src2).expect("valid program");
    let static_db2 = static_analysis::analyze(&program2);
    let filter = StaticFilter::new(&static_db2);
    let mut interp2 = Interpreter::compile(src2).expect("valid program");
    interp2.set_input("x", Value::Num(5.0));
    interp2.set_input("noise", Value::Num(1.0));
    interp2.run().expect("runs");
    let dyn2 = interp2.analysis();

    const REPS: u32 = 2000;
    let t0 = std::time::Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(extract_sl(dyn2));
    }
    let plain = t0.elapsed();
    let t0 = std::time::Instant::now();
    let mut stats = au_trace::PrepruneStats::default();
    for _ in 0..REPS {
        let (map, s) = extract_sl_pruned(dyn2, &filter);
        std::hint::black_box(map);
        stats = s;
    }
    let pruned = t0.elapsed();
    assert_eq!(
        extract_sl_pruned(dyn2, &filter).0,
        extract_sl(dyn2),
        "pre-pruning must not change the extraction"
    );
    println!();
    println!("static pre-pruning (Algorithm 1, {REPS} extractions):");
    println!(
        "  candidate pairs: {} -> {} ({:.0}% pruned before the dynamic BFS)",
        stats.considered,
        stats.considered - stats.pruned,
        stats.reduction() * 100.0
    );
    println!(
        "  extraction time: {:.1?} -> {:.1?} ({:.2}x)",
        plain,
        pruned,
        plain.as_secs_f64() / pruned.as_secs_f64().max(1e-12)
    );
    println!("  results identical — the pre-pass only skips provably-doomed candidates.");
}
