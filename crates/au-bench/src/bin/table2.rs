//! Regenerates **Table 2**: model statistics — trace sizes and model sizes
//! for `Raw`/`Med`/`Min` (SL) and `Raw`/`All` (RL), their ratios, and
//! checkpoint/restore times.
//!
//! Pass `--quick` for a fast smoke run.

use au_bench::rl::{RlConfig, Variant};
use au_bench::sl::{compare, Band, CannySl, PhylipSl, RothwellSl, SlConfig, SphinxSl};
use au_bench::stats::measure_checkpoint;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = au_bench::telemetry::init_from_args(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let sl_cfg = if quick {
        SlConfig {
            train_inputs: 8,
            test_inputs: 4,
            epochs: 4,
            ..SlConfig::default()
        }
    } else {
        SlConfig::default()
    };

    println!("Table 2: Model statistics");
    println!();
    println!("-- Supervised learning (trace bytes collected during a training pass; model bytes = 4 x params) --");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "Program",
        "Raw trace",
        "Raw model",
        "Med trace",
        "Med model",
        "Min trace",
        "Min model",
        "T ratio",
        "M ratio"
    );
    let comparisons = vec![
        compare(&CannySl, sl_cfg),
        compare(&RothwellSl, sl_cfg),
        compare(&PhylipSl::default(), sl_cfg),
        compare(&SphinxSl::default(), sl_cfg),
    ];
    for cmp in &comparisons {
        let get = |band: Band| {
            let b = cmp.band(band);
            (b.trace_values * 8, b.model_params * 4)
        };
        let (raw_t, raw_m) = get(Band::Raw);
        let (med_t, med_m) = get(Band::Med);
        let (min_t, min_m) = get(Band::Min);
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9.2} {:>9.2}",
            cmp.program,
            raw_t,
            raw_m,
            med_t,
            med_m,
            min_t,
            min_m,
            raw_t as f64 / min_t.max(1) as f64,
            raw_m as f64 / min_m.max(1) as f64,
        );
    }

    println!();
    println!("-- Reinforcement learning (fixed training window; Raw = pixel frames, All = extracted state) --");
    let rl_cfg = RlConfig {
        max_episodes: if quick { 3 } else { 12 },
        max_steps: if quick { 60 } else { 300 },
        eval_episodes: 2,
        early_stop: false,
        eval_every: if quick { 3 } else { 12 },
        ..RlConfig::default()
    };
    println!(
        "{:<12} {:>14} {:>12} {:>14} {:>12} {:>9} {:>9}",
        "Program", "Raw trace", "Raw model", "All trace", "All model", "T ratio", "M ratio"
    );
    for factory in au_bench::rl::all_games(5) {
        let cmp = factory.compare(rl_cfg, &[Variant::Raw, Variant::All]);
        let raw = cmp.variant(Variant::Raw);
        let all = cmp.variant(Variant::All);
        println!(
            "{:<12} {:>14} {:>12} {:>14} {:>12} {:>9.2} {:>9.2}",
            cmp.game,
            raw.trace_values * 8,
            raw.model_params * 4,
            all.trace_values * 8,
            all.model_params * 4,
            (raw.trace_values * 8) as f64 / (all.trace_values * 8).max(1) as f64,
            (raw.model_params * 4) as f64 / (all.model_params * 4).max(1) as f64,
        );
    }

    println!();
    println!("-- Checkpoint/restore (in-memory snapshots replacing the paper's KVM; paper: ~26 s / ~7 s) --");
    let timing = measure_checkpoint(if quick { 20 } else { 200 });
    println!(
        "checkpoint: {:.3} us   restore: {:.3} us",
        timing.checkpoint_secs * 1e6,
        timing.restore_secs * 1e6
    );

    if let Some(sink) = telemetry {
        au_bench::telemetry::finish_or_exit(sink);
    }
}
