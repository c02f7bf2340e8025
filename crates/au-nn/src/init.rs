//! Weight initialization.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

thread_local! {
    /// The calling thread's initialization stream: the seed the next layer
    /// built on this thread draws from.
    static INIT_SEED: Cell<u64> = const { Cell::new(0x5eed_0001) };
}

/// Reseeds the calling thread's weight-initialization stream.
///
/// The Autonomizer experiments need reproducible training runs; every layer
/// this thread creates after this call draws its weights from a generator
/// seeded from `seed` (each draw advances the stream so distinct layers
/// differ). The stream belongs to the thread, not the process: threads that
/// each set a seed build the same networks however they interleave, and a
/// thread that never calls this draws from its own default stream.
pub fn set_init_seed(seed: u64) {
    INIT_SEED.with(|s| s.set(seed));
}

fn next_rng() -> StdRng {
    // Advancing the stream gives every layer its own deterministic seed.
    let s = INIT_SEED.with(|s| s.replace(s.get().wrapping_add(0x9e37_79b9_7f4a_7c15)));
    StdRng::seed_from_u64(s)
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` matrix.
pub fn xavier(fan_in: usize, fan_out: usize, shape: &[usize]) -> Tensor {
    let mut rng = next_rng();
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let len: usize = shape.iter().product();
    let data = (0..len).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_limit() {
        let t = xavier(100, 100, &[100, 100]);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn seeded_init_is_reproducible() {
        set_init_seed(42);
        let a = xavier(4, 4, &[4, 4]);
        set_init_seed(42);
        let b = xavier(4, 4, &[4, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_layers_get_distinct_weights() {
        set_init_seed(7);
        let a = xavier(4, 4, &[4, 4]);
        let b = xavier(4, 4, &[4, 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn another_threads_seed_leaves_this_stream_alone() {
        set_init_seed(42);
        let first = xavier(4, 4, &[4, 4]);
        std::thread::spawn(|| {
            set_init_seed(7);
            xavier(4, 4, &[4, 4])
        })
        .join()
        .unwrap();
        let second = xavier(4, 4, &[4, 4]);
        set_init_seed(42);
        assert_eq!(xavier(4, 4, &[4, 4]), first);
        assert_eq!(xavier(4, 4, &[4, 4]), second);
    }
}
