//! Regenerates **Fig. 12**: Canny prediction scores on the 10 held-out test
//! images for baseline/Raw/Med/Min.

use au_bench::sl::{compare, CannySl, SlConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = SlConfig {
        train_inputs: if quick { 10 } else { 150 },
        test_inputs: 10,
        epochs: if quick { 8 } else { 30 },
        ..SlConfig::default()
    };
    let cmp = compare(&CannySl, cfg);
    println!("Fig. 12: Canny predictions of 10 datasets (SSIM score per test image)");
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>9}",
        "Dataset", "Baseline", "Raw", "Med", "Min"
    );
    for (i, scores) in cmp.per_input.iter().enumerate() {
        println!(
            "{:<9} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            i + 1,
            scores[0],
            scores[1],
            scores[2],
            scores[3]
        );
    }
    let mean =
        |idx: usize| cmp.per_input.iter().map(|s| s[idx]).sum::<f64>() / cmp.per_input.len() as f64;
    println!(
        "{:<9} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        "mean",
        mean(0),
        mean(1),
        mean(2),
        mean(3)
    );
    println!();
    println!(
        "Improvements over baseline: Raw {:+.0}%  Med {:+.0}%  Min {:+.0}%  (paper: ~20%/53%/70%)",
        cmp.improvement_pct(au_bench::sl::Band::Raw),
        cmp.improvement_pct(au_bench::sl::Band::Med),
        cmp.improvement_pct(au_bench::sl::Band::Min)
    );
}
