//! Property-based tests over the core data structures and invariants.

use autonomizer::core::{Engine, Mode};
use autonomizer::image::GrayImage;
use autonomizer::nn::Tensor;
use autonomizer::trace::{euclidean_distance, min_max_scale, variance, AnalysisDb};
use proptest::prelude::*;

proptest! {
    /// π is append-only under extract: contents equal the concatenation of
    /// everything extracted, in order.
    #[test]
    fn db_store_preserves_extraction_order(chunks in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 0..5), 0..10)) {
        let mut engine = Engine::new(Mode::Train);
        let mut expected = Vec::new();
        for chunk in &chunks {
            engine.au_extract("K", chunk);
            expected.extend_from_slice(chunk);
        }
        let db = engine.db();
        prop_assert_eq!(db.get("K"), &expected[..]);
        prop_assert_eq!(engine.total_extracted(), expected.len() as u64);
    }

    /// Checkpoint/restore round-trips arbitrary program state exactly.
    #[test]
    fn checkpoint_roundtrip_is_exact(state in prop::collection::vec(-1e9f64..1e9, 0..20),
                                     extra in prop::collection::vec(-1e9f64..1e9, 0..20)) {
        let mut engine = Engine::new(Mode::Train);
        engine.au_extract("D", &state);
        let ckpt = engine.checkpoint_with(&state);
        engine.au_extract("D", &extra);
        let restored = engine.restore_with(&ckpt);
        prop_assert_eq!(restored, state.clone());
        let db = engine.db();
        prop_assert_eq!(db.get("D"), &state[..]);
    }

    /// Serialize equals manual concatenation, regardless of list contents.
    #[test]
    fn serialize_equals_concat(a in prop::collection::vec(-1e6f64..1e6, 0..8),
                               b in prop::collection::vec(-1e6f64..1e6, 0..8)) {
        let mut engine = Engine::new(Mode::Train);
        engine.au_extract("A", &a);
        engine.au_extract("B", &b);
        let name = engine.au_serialize(&["A", "B"]);
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        let db = engine.db();
        prop_assert_eq!(db.get(&name), &expected[..]);
    }

    /// Matmul with the identity is the identity.
    #[test]
    fn matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 / 100.0 - 5.0)
            .collect();
        let m = Tensor::from_vec(&[rows, cols], data);
        let mut id = Tensor::zeros(&[cols, cols]);
        for i in 0..cols {
            id.data_mut()[i * cols + i] = 1.0;
        }
        prop_assert_eq!(m.matmul(&id), m);
    }

    /// Transpose is an involution and swaps dimensions.
    #[test]
    fn transpose_involution(rows in 1usize..8, cols in 1usize..8) {
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let m = Tensor::from_vec(&[rows, cols], data);
        let t = m.transpose();
        prop_assert_eq!(t.shape(), &[cols, rows]);
        prop_assert_eq!(t.transpose(), m);
    }

    /// Min–max scaling maps into [0, 1] and preserves order.
    #[test]
    fn scaling_bounds_and_monotonicity(trace in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let scaled = min_max_scale(&trace);
        prop_assert_eq!(scaled.len(), trace.len());
        for &v in &scaled {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        for i in 0..trace.len() {
            for j in 0..trace.len() {
                if trace[i] < trace[j] {
                    prop_assert!(scaled[i] <= scaled[j]);
                }
            }
        }
    }

    /// Euclidean trace distance is symmetric, non-negative, and zero on
    /// identical traces.
    #[test]
    fn trace_distance_is_a_premetric(a in prop::collection::vec(-1e3f64..1e3, 0..20),
                                     b in prop::collection::vec(-1e3f64..1e3, 0..20)) {
        let d_ab = euclidean_distance(&a, &b);
        let d_ba = euclidean_distance(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(d_ab >= 0.0);
        prop_assert_eq!(euclidean_distance(&a, &a), 0.0);
    }

    /// Variance is non-negative and zero for constants.
    #[test]
    fn variance_properties(value in -1e3f64..1e3, len in 1usize..30) {
        let constant = vec![value; len];
        prop_assert!(variance(&constant).abs() < 1e-18);
        let mut varied = constant.clone();
        varied[0] += 1.0;
        if len > 1 {
            prop_assert!(variance(&varied) > 0.0);
        }
    }

    /// dep() is monotone under edge addition: adding an edge never removes
    /// existing dependents.
    #[test]
    fn dependents_monotone_under_edges(edges in prop::collection::vec((0usize..8, 0usize..8), 1..20)) {
        let mut db = AnalysisDb::new();
        let name = |i: usize| format!("v{i}");
        for (src, dst) in &edges {
            db.record_assign(&name(*dst), &[&name(*src)], None, "f");
        }
        let v0 = db.var("v0");
        let before = db.dependents(v0);
        db.record_assign("extra", &["v0"], None, "f");
        let after = db.dependents(v0);
        prop_assert!(before.is_subset(&after));
    }

    /// SSIM is 1 on identical images and bounded by 1 in general.
    #[test]
    fn ssim_bounds(pixels in prop::collection::vec(0.0f32..1.0, 16..=16),
                   other in prop::collection::vec(0.0f32..1.0, 16..=16)) {
        let a = GrayImage::from_pixels(4, 4, pixels);
        let b = GrayImage::from_pixels(4, 4, other);
        let same = autonomizer::image::ssim(&a, &a);
        prop_assert!((same - 1.0).abs() < 1e-6);
        let cross = autonomizer::image::ssim(&a, &b);
        prop_assert!(cross <= 1.0 + 1e-9);
    }

    /// Robinson–Foulds: zero on identical trees, symmetric, bounded by
    /// 2(n−3).
    #[test]
    fn robinson_foulds_properties(seed_a in 0u64..500, seed_b in 0u64..500, taxa in 4usize..10) {
        let a = autonomizer::phylo::generate_dataset(taxa, 20, seed_a).true_tree;
        let b = autonomizer::phylo::generate_dataset(taxa, 20, seed_b).true_tree;
        prop_assert_eq!(autonomizer::phylo::robinson_foulds(&a, &a), 0.0);
        let d_ab = autonomizer::phylo::robinson_foulds(&a, &b);
        let d_ba = autonomizer::phylo::robinson_foulds(&b, &a);
        prop_assert_eq!(d_ab, d_ba);
        prop_assert!(d_ab <= 2.0 * (taxa as f64 - 3.0));
    }

    /// Game determinism: the same seed and action sequence produce the same
    /// trajectory (required for checkpoint/restore fidelity).
    #[test]
    fn games_are_deterministic(seed in 0u64..100, actions in prop::collection::vec(0usize..2, 1..60)) {
        use autonomizer::games::{Flappybird, Game};
        let mut a = Flappybird::new(seed);
        let mut b = Flappybird::new(seed);
        for &action in &actions {
            prop_assert_eq!(a.step(action), b.step(action));
        }
        prop_assert_eq!(a.features(), b.features());
    }

    /// Model JSON round-trips preserve predictions bit-for-bit.
    #[test]
    fn network_json_roundtrip(inputs in prop::collection::vec(-10.0f32..10.0, 3..=3)) {
        use autonomizer::nn::{Activation, Network};
        autonomizer::nn::set_init_seed(7);
        let net = Network::builder(3).dense(5).activation(Activation::Tanh).dense(2).build();
        let x = Tensor::row(&inputs);
        let y = net.infer(&x);
        let restored = Network::from_json(&net.to_json()).unwrap();
        prop_assert_eq!(restored.infer(&x), y);
    }
}
