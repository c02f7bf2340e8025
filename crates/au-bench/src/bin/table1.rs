//! Regenerates **Table 1**: program-analysis statistics — LOC, lines added
//! for autonomization, target variables, candidate feature variables, and
//! selected feature variables for all nine benchmarks.

use au_bench::stats::table1_rows;

fn main() {
    println!("Table 1: Program analysis statistics");
    println!(
        "{:<18} {:>7} {:>10} {:>9} {:>15} {:>14}",
        "Program", "LOC", "Added LOC", "Trg Vars", "Candidate Vars", "Feature Vars"
    );
    for row in table1_rows() {
        println!(
            "{:<18} {:>7} {:>10} {:>9} {:>15} {:>14}",
            row.program,
            row.loc,
            row.added_loc,
            row.target_vars,
            row.candidate_vars,
            row.feature_vars_display()
        );
    }
    println!();
    println!("Notes: LOC counts the reimplemented benchmark sources; Added LOC counts");
    println!("primitive call sites and reward wiring in the corresponding example or");
    println!("harness; candidate/feature counts come from running Algorithms 1-2 on the");
    println!("recorded dynamic dependence facts (SL: Algorithm 1; RL: Algorithm 2 with");
    println!("the paper's TORCS thresholds eps1=0, eps2=0.01).");
}
