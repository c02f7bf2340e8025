//! The experience replay store behind [`DqnAgent`](super::DqnAgent).
//!
//! States live in one flat `f32` ring of rows, `dim` floats each, and a
//! stored transition is a fixed-size `Copy` slot naming its state and
//! next-state rows. In a game loop one step's next state is the following
//! step's state, so a pushed transition whose state is bitwise equal to
//! the previous slot's next state reuses that row: an unbroken N-step
//! chain costs N+1 rows instead of 2N separately allocated vectors. The
//! comparison is on `to_bits`, so `-0.0`/`+0.0` and distinct NaN payloads
//! never share a row.
//!
//! Rows are written in push order and slots are evicted in push order, so
//! the live rows are always one contiguous run of the ring ending at the
//! newest row. A push writes one row (shared state) or two. If the oldest
//! live slot shares its state row, that row was written by the evicted
//! slot before it and the oldest slot itself wrote one row, so the run
//! spans at most `1 + 1 + 2 × (len − 1)` rows; otherwise at most
//! `2 × len`. A ring of `2 × capacity` rows therefore never overwrites a
//! live row. It grows lazily, by doubling, up to that size.

use super::Transition;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// One stored transition: ring rows plus the scalar fields.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: u32,
    next_state: u32,
    action: u32,
    reward: f32,
    terminal: bool,
}

/// Fixed-capacity FIFO experience store with uniform sampling.
#[derive(Debug)]
pub struct ReplayBuffer {
    capacity: usize,
    dim: usize,
    slots: VecDeque<Slot>,
    /// Row-major ring of `dim`-float rows, at most `ring_rows` of them.
    rows: Vec<f32>,
    /// Ring size in rows: two per transition the buffer can hold.
    ring_rows: usize,
    /// The ring row the next written row goes to.
    cursor: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions of
    /// `dim`-feature states.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `dim` is zero, or if `2 × capacity` rows of
    /// `dim` floats cannot be indexed.
    pub fn new(capacity: usize, dim: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        assert!(dim > 0, "state dimension must be positive");
        let ring_rows = capacity
            .checked_mul(2)
            .filter(|&rows| u32::try_from(rows).is_ok() && rows.checked_mul(dim).is_some())
            .expect("replay capacity too large for the row ring");
        ReplayBuffer {
            capacity,
            dim,
            slots: VecDeque::with_capacity(capacity),
            rows: Vec::new(),
            ring_rows,
            cursor: 0,
        }
    }

    /// Appends a transition, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if a state's length is not the buffer's `dim`, or if the
    /// action does not fit in a `u32`.
    pub fn push(&mut self, t: Transition<'_>) {
        assert_eq!(t.state.len(), self.dim, "state size mismatch");
        assert_eq!(t.next_state.len(), self.dim, "next state size mismatch");
        let action = u32::try_from(t.action).expect("action index fits in u32");
        // Decided before eviction: with capacity 1 the previous slot is
        // the one evicted, and its next-state row is still intact.
        let shared = self
            .slots
            .back()
            .map(|last| last.next_state)
            .filter(|&row| same_bits(self.row(row), t.state));
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
        }
        let state = match shared {
            Some(row) => row,
            None => self.write_row(t.state),
        };
        let next_state = self.write_row(t.next_state);
        self.slots.push_back(Slot {
            state,
            next_state,
            action,
            reward: t.reward,
            terminal: t.terminal,
        });
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Samples `n` transitions uniformly with replacement, drawing each
    /// index as `rng.gen_range(0..len)`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<Transition<'_>> {
        assert!(!self.slots.is_empty(), "cannot sample from an empty buffer");
        (0..n)
            .map(|_| self.get(rng.gen_range(0..self.slots.len())))
            .collect()
    }

    /// The `i`-th stored transition, oldest first.
    fn get(&self, i: usize) -> Transition<'_> {
        let slot = self.slots[i];
        Transition {
            state: self.row(slot.state),
            action: slot.action as usize,
            reward: slot.reward,
            next_state: self.row(slot.next_state),
            terminal: slot.terminal,
        }
    }

    fn row(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.rows[start..start + self.dim]
    }

    /// Copies `values` into the ring's next row and returns its id.
    fn write_row(&mut self, values: &[f32]) -> u32 {
        let id = self.cursor;
        let start = id * self.dim;
        if start == self.rows.len() {
            // The ring has not wrapped yet: grow it by one row, doubling
            // the allocation up to the ring's full size.
            if self.rows.len() == self.rows.capacity() {
                let full = self.ring_rows * self.dim;
                let want = self.rows.len().saturating_mul(2).clamp(self.dim, full);
                self.rows.reserve_exact(want - self.rows.len());
            }
            self.rows.extend_from_slice(values);
        } else {
            self.rows[start..start + self.dim].copy_from_slice(values);
        }
        self.cursor = if id + 1 == self.ring_rows { 0 } else { id + 1 };
        // `new` checked that every ring row id fits in a u32.
        id as u32
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn step<'a>(state: &'a [f32], next_state: &'a [f32]) -> Transition<'a> {
        Transition {
            state,
            action: 0,
            reward: 0.0,
            next_state,
            terminal: false,
        }
    }

    /// Distinct ring rows the stored slots reference.
    fn live_rows(buf: &ReplayBuffer) -> usize {
        let ids: BTreeSet<u32> = buf
            .slots
            .iter()
            .flat_map(|s| [s.state, s.next_state])
            .collect();
        ids.len()
    }

    /// Rows the ring holds (written, not merely reserved).
    fn held_rows(buf: &ReplayBuffer) -> usize {
        buf.rows.len() / buf.dim
    }

    #[test]
    fn replay_buffer_evicts_oldest() {
        let mut buf = ReplayBuffer::new(2, 1);
        for i in 0..3 {
            buf.push(step(&[i as f32], &[0.0]));
        }
        assert_eq!(buf.len(), 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(
            buf.sample(10, &mut rng).iter().all(|t| t.state[0] >= 1.0),
            "oldest evicted"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_buffer_panics() {
        let buf = ReplayBuffer::new(4, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = buf.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn ring_size_overflow_is_rejected() {
        let _ = ReplayBuffer::new(usize::MAX / 2, 3);
    }

    #[test]
    fn slot_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 20);
    }

    #[test]
    fn unbroken_chain_of_n_steps_stores_n_plus_one_rows() {
        let mut buf = ReplayBuffer::new(64, 2);
        let chain = |buf: &mut ReplayBuffer, steps: std::ops::Range<usize>| {
            for i in steps {
                buf.push(step(&[i as f32, 1.0], &[(i + 1) as f32, 1.0]));
            }
        };
        chain(&mut buf, 0..50);
        assert_eq!(buf.len(), 50);
        assert_eq!(live_rows(&buf), 51);
        assert_eq!(held_rows(&buf), 51);
        assert!(buf.rows.capacity() <= buf.ring_rows * buf.dim);
        // Past capacity the ring wraps and the chain stays one row per step.
        chain(&mut buf, 50..500);
        assert_eq!(buf.len(), 64);
        assert_eq!(live_rows(&buf), 65);
        assert_eq!(buf.rows.capacity(), buf.ring_rows * buf.dim);
    }

    #[test]
    fn broken_chain_stores_two_rows_per_step() {
        let mut buf = ReplayBuffer::new(8, 1);
        for i in 0..4 {
            buf.push(step(&[10.0 + i as f32], &[i as f32]));
        }
        assert_eq!(live_rows(&buf), 8);
    }

    #[test]
    fn signed_zero_and_nan_payloads_are_not_shared() {
        let mut buf = ReplayBuffer::new(8, 1);
        buf.push(step(&[1.0], &[0.0]));
        buf.push(step(&[-0.0], &[0.0]));
        assert_eq!(live_rows(&buf), 4, "-0.0 after +0.0 gets its own row");
        let (nan_a, nan_b) = (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002));
        buf.push(step(&[0.0], &[nan_a]));
        assert_eq!(live_rows(&buf), 5, "+0.0 after +0.0 shares");
        buf.push(step(&[nan_b], &[nan_a]));
        buf.push(step(&[nan_a], &[1.0]));
        assert_eq!(live_rows(&buf), 8, "only the identical NaN payload shares");
        assert_eq!(buf.get(1).state[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(buf.get(3).state[0].to_bits(), nan_b.to_bits());
    }

    #[test]
    fn capacity_one_buffer_keeps_the_newest_transition() {
        let mut buf = ReplayBuffer::new(1, 2);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..10 {
            // Chained on even steps, broken on odd ones.
            let s = if i % 2 == 0 { i as f32 } else { -1.0 };
            let (state, next) = ([s, 0.5], [(i + 1) as f32, 0.5]);
            let prev_next = buf.slots.back().map(|slot| slot.next_state);
            buf.push(Transition {
                action: i,
                ..step(&state, &next)
            });
            if i % 2 == 0 && i > 0 {
                // Sharing does not depend on capacity: the evicted slot's
                // next-state row becomes the new slot's state row.
                assert_eq!(Some(buf.slots[0].state), prev_next);
            }
            assert_eq!(buf.len(), 1);
            assert!(held_rows(&buf) <= 2);
            assert!(buf
                .sample(3, &mut rng)
                .iter()
                .all(|t| t.action == i && t.state == &state[..] && t.next_state == &next[..]));
        }
    }

    /// The store it replaces: a deque of owned transitions.
    struct Naive {
        capacity: usize,
        /// Owned state, owned next state, and the scalar fields.
        items: VecDeque<(Vec<f32>, Vec<f32>, Transition<'static>)>,
    }

    impl Naive {
        fn push(&mut self, t: Transition<'_>) {
            if self.items.len() == self.capacity {
                self.items.pop_front();
            }
            let scalars = Transition {
                state: &[],
                next_state: &[],
                ..t
            };
            self.items
                .push_back((t.state.to_vec(), t.next_state.to_vec(), scalars));
        }

        fn sample(&self, n: usize, rng: &mut StdRng) -> Vec<Transition<'_>> {
            (0..n)
                .map(|_| {
                    let (s, s2, t) = &self.items[rng.gen_range(0..self.items.len())];
                    Transition {
                        state: s,
                        next_state: s2,
                        ..*t
                    }
                })
                .collect()
        }
    }

    /// A transition as bits, so `-0.0` and NaN payloads compare exactly.
    fn bits(t: &Transition<'_>) -> (Vec<u32>, usize, u32, Vec<u32>, bool) {
        let b = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
        (
            b(t.state),
            t.action,
            t.reward.to_bits(),
            b(t.next_state),
            t.terminal,
        )
    }

    /// Random sequences of chains, broken chains, terminals, signed zeros
    /// and NaN payloads, pushed far past the ring size into the flat store
    /// and into the naive deque: equal lengths, bit-equal samples, and
    /// never more than two held rows per stored transition.
    #[test]
    fn flat_store_matches_naive_deque() {
        let palette = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f32::from_bits(0x7fc0_0000),
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0000),
        ];
        for seed in 0..200u64 {
            let mut gen = StdRng::seed_from_u64(seed);
            let capacity = 1 + (seed as usize % 5);
            let dim = 1 + gen.gen_range(0..3);
            let mut flat = ReplayBuffer::new(capacity, dim);
            let mut naive = Naive {
                capacity,
                items: VecDeque::new(),
            };
            let mut prev_next: Vec<f32> = vec![0.0; dim];
            let fresh = |gen: &mut StdRng| -> Vec<f32> {
                (0..dim)
                    .map(|_| palette[gen.gen_range(0..palette.len())])
                    .collect()
            };
            for push in 0..12 * capacity + 8 {
                let state = match gen.gen_range(0..4) {
                    0 => fresh(&mut gen),
                    1 => {
                        // A near miss: one element's bits flipped (the
                        // sign of a zero, else the lowest mantissa bit).
                        let mut s = prev_next.clone();
                        let x = &mut s[push % dim];
                        *x = f32::from_bits(x.to_bits() ^ if *x == 0.0 { 0x8000_0000 } else { 1 });
                        s
                    }
                    _ => prev_next.clone(),
                };
                let next = fresh(&mut gen);
                let t = Transition {
                    state: &state,
                    action: gen.gen_range(0..4),
                    reward: palette[gen.gen_range(0..palette.len())],
                    next_state: &next,
                    terminal: gen.gen_range(0..5) == 0,
                };
                flat.push(t);
                naive.push(t);
                prev_next = next;

                assert_eq!(flat.len(), naive.items.len(), "seed {seed} push {push}");
                assert!(
                    held_rows(&flat) <= 2 * flat.len(),
                    "seed {seed} push {push}"
                );
                assert!(
                    live_rows(&flat) <= 2 * flat.len(),
                    "seed {seed} push {push}"
                );
                let n = 1 + push % 7;
                let mut ra = StdRng::seed_from_u64(seed ^ push as u64);
                let mut rb = ra.clone();
                let got: Vec<_> = flat.sample(n, &mut ra).iter().map(bits).collect();
                let want: Vec<_> = naive.sample(n, &mut rb).iter().map(bits).collect();
                assert_eq!(got, want, "seed {seed} push {push}");
                assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "same number of draws");
            }
            // More than `ring_rows` rows were written, so the ring wrapped.
            assert_eq!(held_rows(&flat), flat.ring_rows, "seed {seed}");
        }
    }
}
