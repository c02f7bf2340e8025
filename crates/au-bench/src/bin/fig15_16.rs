//! Regenerates **Figs. 15–16**: the TORCS feature-pruning evidence —
//! near-identical traces (`posX` vs `roll`, pruned by ε₁) and a
//! near-constant trace (`accX`, pruned by ε₂) — plus the resulting
//! Algorithm 2 selection.

use au_games::{Game, Torcs};
use au_trace::{
    euclidean_distance, extract_rl_detailed, min_max_scale, variance, AnalysisDb, RlParams,
};

fn main() {
    let mut game = Torcs::new(9);
    let mut db = AnalysisDb::new();
    game.record_dependences(&mut db);
    for _ in 0..150 {
        game.record_frame(&mut db);
        let action = game.oracle_action();
        if game.step(action).terminal {
            break;
        }
    }

    let series = |name: &str| -> Vec<f64> {
        let id = db.id(name).expect("variable traced");
        min_max_scale(db.trace(id))
    };
    let pos = series("posX");
    let roll = series("roll");
    let acc = series("accX");

    println!("Fig. 15: scaled traces of posX and roll (first 20 frames)");
    println!("{:<7} {:>8} {:>8}", "Frame", "posX", "roll");
    for i in 0..20.min(pos.len()) {
        println!("{:<7} {:>8.4} {:>8.4}", i, pos[i], roll[i]);
    }
    let dist = euclidean_distance(&pos, &roll);
    println!("EucDist(posX, roll) = {dist:.6}  (paper: ~0 -> roll pruned by eps1)");

    println!();
    println!("Fig. 16: scaled accX trace (first 20 frames)");
    for (i, v) in acc.iter().take(20).enumerate() {
        println!("{i:<7} {v:>8.4}");
    }
    let var = variance(&acc);
    println!("Variance(accX) = {var:.5}  (paper: ~0.007 <= eps2=0.01 -> accX pruned)");

    println!();
    let params = RlParams::default();
    let detailed = extract_rl_detailed(&db, params);
    let steer = db.id("steer").expect("target annotated");
    let extraction = &detailed[&steer];
    let names =
        |ids: &[au_trace::VarId]| -> Vec<&str> { ids.iter().map(|&v| db.name(v)).collect() };
    println!(
        "Algorithm 2 on steer (eps1={}, eps2={}):",
        params.epsilon1, params.epsilon2
    );
    println!("  candidates:        {:?}", names(&extraction.candidates));
    println!(
        "  pruned (eps1 dup): {:?}",
        names(&extraction.pruned_redundant)
    );
    println!(
        "  pruned (eps2 var): {:?}",
        names(&extraction.pruned_unchanging)
    );
    println!("  selected features: {:?}", names(&extraction.selected));
}
