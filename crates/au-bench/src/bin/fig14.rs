//! Regenerates **Fig. 14**: qualitative Canny edge maps — origin, ground
//! truth, and the Min/Med/Raw/baseline detections for sample scenes,
//! written as PGM images under `out/fig14/`.

use au_bench::sl::{Band, CannySl, SlConfig, SlProgram};
use au_core::{Engine, Mode, ModelConfig};
use au_image::scene::SceneGenerator;
use au_vision::canny::{self, CannyParams};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = SlConfig {
        train_inputs: if quick { 10 } else { 150 },
        epochs: if quick { 8 } else { 30 },
        ..SlConfig::default()
    };
    let program = CannySl;
    let train_set = program.dataset(cfg.train_inputs, cfg.seed);
    let labels: Vec<Vec<f64>> = train_set.iter().map(|s| program.ideal(s)).collect();

    // Train one model per band.
    let mut engine = Engine::new(Mode::Train);
    for band in Band::ALL {
        au_nn::set_init_seed(cfg.seed ^ band.name().len() as u64);
        let model = format!("Canny-{}", band.name());
        engine
            .au_config(
                &model,
                ModelConfig::dnn(&[cfg.hidden[0], cfg.hidden[1]])
                    .with_learning_rate(cfg.learning_rate),
            )
            .expect("fresh engine");
        let xs: Vec<Vec<f64>> = train_set
            .iter()
            .map(|s| program.features(s, band))
            .collect();
        engine
            .train_supervised(&model, &xs, &labels, cfg.epochs)
            .expect("training succeeds");
    }

    let out_dir = std::path::Path::new("out/fig14");
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let mut gen = SceneGenerator::new(cfg.seed.wrapping_add(0x9e37));
    for idx in 0..3usize {
        let scene = gen.generate(au_bench::sl::IMG, au_bench::sl::IMG);
        scene
            .image
            .write_pgm(out_dir.join(format!("{idx}_origin.pgm")))
            .expect("write origin");
        scene
            .truth
            .write_pgm(out_dir.join(format!("{idx}_truth.pgm")))
            .expect("write truth");
        // Baseline.
        let base = canny::canny(&scene.image, CannyParams::default());
        base.edges
            .write_pgm(out_dir.join(format!("{idx}_baseline.pgm")))
            .expect("write baseline");
        // Model-predicted parameter versions.
        for band in Band::ALL {
            let model = format!("Canny-{}", band.name());
            let prediction = engine
                .predict(&model, &program.features(&scene, band))
                .expect("model built");
            let sigma = prediction[0].clamp(0.3, 3.0) as f32;
            let hi = prediction[2].clamp(0.05, 0.95) as f32;
            let lo = prediction[1].clamp(0.01, f64::from(hi)) as f32;
            let result = canny::canny(&scene.image, CannyParams { sigma, lo, hi });
            result
                .edges
                .write_pgm(out_dir.join(format!("{idx}_{}.pgm", band.name().to_lowercase())))
                .expect("write band image");
            let score = canny::score(&result.edges, &scene.truth);
            println!(
                "scene {idx}: {:>4} -> sigma={sigma:.2} lo={lo:.2} hi={hi:.2}  ssim={score:.3}",
                band.name()
            );
        }
        println!(
            "scene {idx}: baseline ssim={:.3}",
            canny::score(&base.edges, &scene.truth)
        );
    }
    println!();
    println!("Fig. 14 images written to {}", out_dir.display());
}
