//! Regenerates **Table 3**: effectiveness — baseline vs `Raw`/`Med`/`Min`
//! scores with training/execution times for the SL programs, and players vs
//! `Raw`/`All` for the RL programs (with the 20%-of-players stopping rule
//! and its "t/o" analogue).
//!
//! Pass `--quick` to smoke-test the pipeline: tiny budgets, about a second
//! on a 2-core x86-64 VM. It reproduces no Table 3 ordering: at the
//! committed seeds Min scores below the baseline on Canny and Rothwell,
//! and All times out on four of the five games.

use au_bench::rl::{RlConfig, Variant};
use au_bench::sl::{compare, Band, CannySl, PhylipSl, RothwellSl, SlConfig, SphinxSl};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // ----------------------------------------------------------------
    // Supervised learning
    // ----------------------------------------------------------------
    let sl_cfg = if quick {
        SlConfig {
            train_inputs: 10,
            test_inputs: 5,
            epochs: 8,
            ..SlConfig::default()
        }
    } else {
        SlConfig::default()
    };

    println!("Table 3: Benchmark experimental results");
    println!();
    println!("-- Supervised learning (score: built-in quality metric; arrows as in the paper) --");
    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "Program",
        "Baseline",
        "Raw",
        "Med",
        "Min",
        "Min+%",
        "RawTr(s)",
        "MinTr(s)",
        "Tr ratio",
        "Exec(s)"
    );
    let mut improvements = Vec::new();
    let programs: Vec<(&str, au_bench::sl::SlComparison)> = vec![
        ("Canny ^", compare(&CannySl, sl_cfg)),
        ("Rothwell ^", compare(&RothwellSl, sl_cfg)),
        ("Phylip v", compare(&PhylipSl::default(), sl_cfg)),
        ("Sphinx ^", compare(&SphinxSl::default(), sl_cfg)),
    ];
    for (label, cmp) in &programs {
        let raw = cmp.band(Band::Raw);
        let med = cmp.band(Band::Med);
        let min = cmp.band(Band::Min);
        improvements.push(cmp.improvement_pct(Band::Min));
        println!(
            "{:<14} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>7.0}% {:>10.2} {:>10.2} {:>10.2} {:>8.4}",
            label,
            cmp.baseline_score,
            raw.score,
            med.score,
            min.score,
            cmp.improvement_pct(Band::Min),
            raw.train_secs,
            min.train_secs,
            raw.train_secs / min.train_secs.max(1e-9),
            min.exec_secs,
        );
    }
    let avg: f64 = improvements.iter().sum::<f64>() / improvements.len() as f64;
    println!("Average Min improvement over baseline: {avg:.0}% (paper: 161%)");

    // ----------------------------------------------------------------
    // Reinforcement learning
    // ----------------------------------------------------------------
    println!();
    println!("-- Reinforcement learning (progress/success; 'timeout' = budget exhausted before reaching 80% of players) --");
    let rl_cfg = if quick {
        RlConfig {
            max_episodes: 20,
            max_episodes_raw: 10,
            max_steps: 150,
            eval_episodes: 4,
            eval_every: 10,
            ..RlConfig::default()
        }
    } else {
        RlConfig {
            max_steps: 450,
            ..RlConfig::default()
        }
    };
    println!(
        "{:<12} {:>14} {:>16} {:>10} {:>16} {:>10} {:>11} {:>11}",
        "Program",
        "Players",
        "Raw score",
        "Raw eps",
        "All score",
        "All eps",
        "AllTr(s)",
        "Exec(ms)"
    );
    for factory in au_bench::rl::all_games(rl_cfg.seed) {
        let cmp = factory.compare(rl_cfg, &[Variant::Raw, Variant::All]);
        let raw = cmp.variant(Variant::Raw);
        let all = cmp.variant(Variant::All);
        let fmt_variant = |v: &au_bench::rl::VariantOutcome| {
            let bar = if v.reached_bar { "" } else { " t/o" };
            format!(
                "{:.0}%/{:.0}%{}",
                v.progress * 100.0,
                v.success * 100.0,
                bar
            )
        };
        println!(
            "{:<12} {:>14} {:>16} {:>10} {:>16} {:>10} {:>11.1} {:>11.3}",
            cmp.game,
            format!(
                "{:.0}%/{:.0}%",
                cmp.oracle_progress * 100.0,
                cmp.oracle_success * 100.0
            ),
            fmt_variant(raw),
            raw.episodes,
            fmt_variant(all),
            all.episodes,
            all.train_secs,
            all.exec_secs_per_step * 1e3,
        );
    }
    println!();
    println!("Expected shape (paper): All reaches players-competitive scores within the");
    println!("budget while Raw mostly times out (except Breakout); Raw trace/model sizes");
    println!("and training times dominate All's.");
}
