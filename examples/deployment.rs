//! The TR → TS (train → deploy) lifecycle across *separate processes* —
//! the paper's two executables: "In practice, we produce two versions for
//! the modes."
//!
//! This example simulates both: a training process that collects traces
//! into the database store, trains, and persists the model; and a fresh
//! deployment process whose `au_config` call (rule CONFIG-TEST) loads the
//! trained model back and serves predictions with no learning. A third
//! process deploys behind the graceful-degradation fallback: when its sensors drift off the training
//! distribution, `au_nn` refuses with `AuError::ModelDegraded` and the
//! caller routes back to the original (pre-autonomization) code path.
//!
//! Run with: `cargo run --release --example deployment`

use autonomizer::core::{Engine, Mode, ModelConfig};
use autonomizer::phylo::{self, DistParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("autonomizer_deployment_example");
    std::fs::create_dir_all(&dir)?;

    // ---------------------------------------------------------------
    // Process 1: the training executable (TR mode).
    // ---------------------------------------------------------------
    {
        println!("[TR] training process starting");
        let mut engine = Engine::new(Mode::Train);
        // Monitoring during training persists the per-feature input
        // distribution and baseline MAE into the model's sidecar, powering
        // drift detection in the deployment processes below.
        engine.set_monitor_config(autonomizer::core::monitor::MonitorConfig::default());
        engine.set_model_dir(&dir);
        engine.au_config(
            "PhylipNN",
            ModelConfig::dnn(&[32, 16]).with_learning_rate(3e-3),
        )?;

        // Piggyback on normal operation: each processed input contributes a
        // trace record (features + the ideal decision).
        for seed in 0..60u64 {
            let data = phylo::generate_dataset(8, 150, seed);
            engine.au_extract("SUMMARY", &phylo::distance_summary(&data.sequences));
            let (ideal, _) = phylo::ideal_params(&data);
            engine.au_extract("PARAMS", &[ideal.alpha.ln(), ideal.cutoff, ideal.pseudo]);
            engine.au_nn("PhylipNN", "SUMMARY", &["PARAMS"])?;
        }
        // The collected traces can outlive the process too.
        engine.save_db(dir.join("traces.json"))?;
        // Offline refinement over the persisted dataset, as the paper does
        // for SL ("model training is conducted offline after execution").
        let xs: Vec<Vec<f64>> = (0..60u64)
            .map(|seed| {
                let data = phylo::generate_dataset(8, 150, seed);
                phylo::distance_summary(&data.sequences)
            })
            .collect();
        let ys: Vec<Vec<f64>> = (0..60u64)
            .map(|seed| {
                let data = phylo::generate_dataset(8, 150, seed);
                let (ideal, _) = phylo::ideal_params(&data);
                vec![ideal.alpha.ln(), ideal.cutoff, ideal.pseudo]
            })
            .collect();
        let final_loss = engine.train_supervised("PhylipNN", &xs, &ys, 80)?;
        engine.save_model("PhylipNN")?;
        println!("[TR] trained (final epoch loss {final_loss:.4}); model + traces persisted");
    }

    // ---------------------------------------------------------------
    // Process 2: the deployment executable (TS mode) — a fresh engine.
    // ---------------------------------------------------------------
    {
        println!("[TS] deployment process starting");
        let mut engine = Engine::new(Mode::Test);
        engine.set_model_dir(&dir);
        // Rule CONFIG-TEST: loadModel(mdName).
        engine.au_config(
            "PhylipNN",
            ModelConfig::dnn(&[32, 16]).with_learning_rate(3e-3),
        )?;

        let mut improved = 0usize;
        let trials = 10u64;
        for seed in 500..500 + trials {
            let data = phylo::generate_dataset(8, 150, seed);
            engine.au_extract("SUMMARY", &phylo::distance_summary(&data.sequences));
            engine.au_nn("PhylipNN", "SUMMARY", &["PARAMS"])?;
            let mut params = [0.0; 3];
            engine.au_write_back("PARAMS", &mut params)?;
            let predicted = DistParams {
                alpha: params[0].exp().clamp(0.1, 100.0),
                cutoff: params[1].clamp(0.5, 10.0),
                pseudo: params[2].clamp(0.0, 5.0),
            };
            let auto_tree = phylo::infer_tree(&data.sequences, predicted);
            let default_tree = phylo::infer_tree(&data.sequences, DistParams::default());
            let auto_rf = phylo::robinson_foulds(&auto_tree, &data.true_tree);
            let default_rf = phylo::robinson_foulds(&default_tree, &data.true_tree);
            if auto_rf <= default_rf {
                improved += 1;
            }
        }
        println!(
            "[TS] predicted parameters matched or beat the defaults on {improved}/{trials} unseen inputs"
        );
        assert_eq!(
            engine.model_stats("PhylipNN").map(|s| s.train_steps),
            Some(0),
            "deployment never trains"
        );
    }

    // ---------------------------------------------------------------
    // Process 3: deployment behind the monitoring fallback (TS mode).
    // ---------------------------------------------------------------
    {
        use autonomizer::core::monitor::MonitorConfig;
        use autonomizer::core::AuError;

        println!("[TS+monitor] fallback deployment starting");
        let mut engine = Engine::new(Mode::Test);
        engine.set_monitor_config(
            MonitorConfig::default()
                .with_fallback(true)
                .with_min_samples(4),
        );
        engine.set_model_dir(&dir);
        engine.au_config(
            "PhylipNN",
            ModelConfig::dnn(&[32, 16]).with_learning_rate(3e-3),
        )?;

        let mut model_served = 0usize;
        let mut original_path = 0usize;
        for seed in 900..912u64 {
            let data = phylo::generate_dataset(8, 150, seed);
            // A miscalibrated preprocessor: every summary statistic is
            // scaled 25x off the distribution the model trained on.
            let drifted: Vec<f64> = phylo::distance_summary(&data.sequences)
                .iter()
                .map(|v| v * 25.0)
                .collect();
            engine.au_extract("SUMMARY", &drifted);
            match engine.au_nn("PhylipNN", "SUMMARY", &["PARAMS"]) {
                Ok(_) => {
                    let mut params = [0.0; 3];
                    engine.au_write_back("PARAMS", &mut params)?;
                    model_served += 1;
                }
                Err(AuError::ModelDegraded(_)) => {
                    // The paper's hybrid mode: the original heuristic code
                    // path keeps the program functional.
                    let _tree = phylo::infer_tree(&data.sequences, DistParams::default());
                    original_path += 1;
                }
                Err(other) => return Err(other.into()),
            }
        }
        println!(
            "[TS+monitor] model served {model_served}, original code path served {original_path}"
        );
        print!("{}", engine.monitor_report());
        assert!(original_path > 0, "sustained drift must trip the fallback");
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
