//! SL experiment probe: runs the baseline/Raw/Med/Min comparison for a
//! single named program and prints the scores — the SL counterpart of
//! `tune_rl`, used to tune the defaults in `au_bench::sl`.
//!
//! Usage: `cargo run --release -p au-bench --bin sl_probe [program] [train_inputs] [epochs] [test_inputs]`

use au_bench::sl::{compare, Band, CannySl, PhylipSl, RothwellSl, SlConfig, SphinxSl};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let program = args.get(1).map(String::as_str).unwrap_or("phylip");
    let mut cfg = SlConfig::default();
    if let Some(n) = args.get(2).and_then(|s| s.parse().ok()) {
        cfg.train_inputs = n;
    }
    if let Some(n) = args.get(3).and_then(|s| s.parse().ok()) {
        cfg.epochs = n;
    }
    if let Some(n) = args.get(4).and_then(|s| s.parse().ok()) {
        cfg.test_inputs = n;
    }
    let cmp = match program {
        "canny" => compare(&CannySl, cfg),
        "rothwell" => compare(&RothwellSl, cfg),
        "phylip" => compare(&PhylipSl::default(), cfg),
        "phylip300" => compare(&PhylipSl { taxa: 8, len: 300 }, cfg),
        "sphinx" => compare(&SphinxSl::default(), cfg),
        other => panic!("unknown program {other}"),
    };
    println!("{}: baseline {:.3}", cmp.program, cmp.baseline_score);
    for band in Band::ALL {
        let b = cmp.band(band);
        println!(
            "{:>4}: score {:.3} ({:+.0}%)  train {:.2}s",
            band.name(),
            b.score,
            cmp.improvement_pct(band),
            b.train_secs
        );
    }
}
