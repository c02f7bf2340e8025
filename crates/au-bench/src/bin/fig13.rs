//! Regenerates **Fig. 13**: Canny prediction-score variation with training
//! epochs for Raw/Med/Min.

use au_bench::sl::{compare, Band, CannySl, SlConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = SlConfig {
        train_inputs: if quick { 10 } else { 150 },
        test_inputs: 10,
        epochs: if quick { 10 } else { 30 },
        curve_every: 2,
        ..SlConfig::default()
    };
    let cmp = compare(&CannySl, cfg);
    println!("Fig. 13: Canny prediction score vs training epochs (test-set SSIM)");
    println!(
        "{:<7} {:>9} {:>9} {:>9} {:>9}",
        "Epoch", "Baseline", "Raw", "Med", "Min"
    );
    let raw = &cmp.band(Band::Raw).curve;
    let med = &cmp.band(Band::Med).curve;
    let min = &cmp.band(Band::Min).curve;
    for i in 0..raw.len() {
        println!(
            "{:<7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            (i + 1) * cfg.curve_every,
            cmp.baseline_score,
            raw[i],
            med[i],
            min[i]
        );
    }
    println!();
    let wins = min
        .iter()
        .zip(raw.iter().zip(med))
        .filter(|&(m, (r, d))| m >= r && m >= d)
        .count();
    println!(
        "Min has the top score at {wins}/{} checkpoints (paper: Min consistently highest)",
        min.len()
    );
}
