//! Cache-blocked, autovectorizer-friendly `f32` matrix kernels.
//!
//! Every kernel here preserves the **accumulation-order contract** the rest
//! of the crate depends on: each output element is the sum of its products
//! taken in ascending inner-dimension order, one add per product, starting
//! from whatever the caller pre-filled (zero or a bias). Blocking changes
//! *which* elements are in flight, never the per-element order, so the
//! blocked kernels are bit-identical to the scalar triple loop they replace
//! (the old kernel's `a == 0.0` skip is dropped; skipping only ever avoided
//! adding `±0.0`, which cannot change a finite sum).
//!
//! Layout: the classic GEBP shape. For each `KC × NR` panel of B, the
//! panel is packed into a contiguous stack buffer once and then reused by
//! every `MR`-row block of A; the micro-kernel holds an `MR × NR`
//! accumulator tile in registers across the whole k-block, so each output
//! element costs one load and one store per k-block instead of one per
//! k-step. The inner loop is a fixed-width `acc[r][c] += s * bv[c]` sweep —
//! exactly the shape LLVM's autovectorizer turns into full-width packed
//! multiply/add code (no FMA contraction: Rust keeps IEEE semantics, which
//! is what makes the bit-identity contract hold).
//!
//! **Unsafe audit (none needed).** The hot loops use fixed-size array tiles
//! and slice iteration the bounds-check eliminator sees through; no
//! `get_unchecked`, raw pointers, or intrinsics — the crate-level
//! `forbid(unsafe_code)` makes that a compile-time guarantee rather than a
//! review convention.

/// Rows of A processed per micro-kernel invocation (register blocking).
const MR: usize = 4;
/// k-dimension tile: B panel rows packed per block.
const KC: usize = 128;
/// j-dimension tile: columns per packed panel (`KC × NR × 4` B = 16 KiB,
/// half of a typical L1D).
const NR: usize = 32;

/// `out[m,n] += a[m,k] · b[k,n]`, all row-major.
///
/// The caller pre-initializes `out` (zeros for a plain product, a broadcast
/// bias for a fused affine layer); the kernel only accumulates.
///
/// # Panics
///
/// Panics (via slice indexing) if any buffer is shorter than its
/// `m·k / k·n / m·n` extent.
pub(crate) fn gemm_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n, "out extent");
    debug_assert!(a.len() >= m * k, "a extent");
    debug_assert!(b.len() >= k * n, "b extent");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Packed B panel for one (KC, NR) tile: 16 KiB on the stack.
    let mut panel = [0.0f32; KC * NR];
    for kb in (0..k).step_by(KC) {
        let ke = (kb + KC).min(k);
        let kl = ke - kb;
        let mut j = 0;
        while j + NR <= n {
            // Pack B[kb..ke, j..j+NR] contiguously so the micro-kernel
            // streams it linearly from L1 for every row block.
            for (pp, p) in (kb..ke).enumerate() {
                panel[pp * NR..(pp + 1) * NR].copy_from_slice(&b[p * n + j..p * n + j + NR]);
            }
            let mut i = 0;
            while i + MR <= m {
                // MR × NR accumulator tile, held in registers across the
                // whole k-block. Loading from `out` and storing back per
                // block performs exactly the same per-element addition
                // sequence as the scalar loop — ascending p, one rounding
                // per product — so blocking never changes a single bit.
                let mut acc = [[0.0f32; NR]; MR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    accr.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + NR]);
                }
                for pp in 0..kl {
                    let bv: &[f32; NR] = panel[pp * NR..(pp + 1) * NR]
                        .try_into()
                        .expect("panel stride");
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let s = a[(i + r) * k + kb + pp];
                        for (d, &bvc) in accr.iter_mut().zip(bv) {
                            *d += s * bvc;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
                }
                i += MR;
            }
            // Remainder rows against the packed panel: single-row register
            // tile, same accumulation order.
            while i < m {
                let mut acc = [0.0f32; NR];
                acc.copy_from_slice(&out[i * n + j..i * n + j + NR]);
                for pp in 0..kl {
                    let s = a[i * k + kb + pp];
                    let bv = &panel[pp * NR..(pp + 1) * NR];
                    for (d, &bvc) in acc.iter_mut().zip(bv) {
                        *d += s * bvc;
                    }
                }
                out[i * n + j..i * n + j + NR].copy_from_slice(&acc);
                i += 1;
            }
            j += NR;
        }
        // Column remainder (n % NR): plain axpy sweep straight from B,
        // still ascending p within the k-block.
        if j < n {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for p in kb..ke {
                    let s = arow[p];
                    let brow = &b[p * n + j..(p + 1) * n];
                    let dst = &mut out[i * n + j..(i + 1) * n];
                    for (d, &bv) in dst.iter_mut().zip(brow) {
                        *d += s * bv;
                    }
                }
            }
        }
    }
}

/// `out[k,n] += aᵀ · g` for `a [m,k]`, `g [m,n]` — the weight-gradient
/// product `dW = xᵀ·dy` without materializing the transpose.
///
/// Per output element the sum runs over ascending sample index `i`, the
/// same order as transposing `a` and calling the old kernel. The `s == 0.0`
/// skip is kept: activation inputs are often sparse after ReLU, and
/// skipping a whole axpy row is the one place the sparsity test pays.
pub(crate) fn gemm_tn_acc(out: &mut [f32], a: &[f32], g: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), k * n, "out extent");
    debug_assert!(a.len() >= m * k, "a extent");
    debug_assert!(g.len() >= m * n, "g extent");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let grow = &g[i * n..(i + 1) * n];
        for (p, &s) in arow.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let dst = &mut out[p * n..(p + 1) * n];
            for (d, &gv) in dst.iter_mut().zip(grow) {
                *d += s * gv;
            }
        }
    }
}

/// Reference kernel: the scalar triple loop the blocked kernels replaced.
/// Kept only as a test oracle.
#[cfg(test)]
pub(crate) fn gemm_naive(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let s = a[i * k + p];
            if s == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d += s * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 2000) as f32) / 100.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_on_tile_straddling_shapes() {
        // Shapes straddling MR/KC/NC boundaries, plus degenerate ones.
        let shapes = [
            (1, 1, 1),
            (1, 300, 5),
            (3, 7, 2),
            (4, 128, 256),
            (5, 129, 257),
            (8, 200, 300),
            (17, 131, 63),
        ];
        for (m, k, n) in shapes {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            gemm_acc(&mut got, &a, &b, m, k, n);
            gemm_naive(&mut want, &a, &b, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-6 * w.abs().max(1.0), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_naive() {
        // The accumulation-order contract is stronger than a tolerance:
        // identical bits, not just close values.
        let (m, k, n) = (9, 37, 21);
        let a = pseudo(m * k, 7);
        let b = pseudo(k * n, 8);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_acc(&mut got, &a, &b, m, k, n);
        gemm_naive(&mut want, &a, &b, m, k, n);
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
    }

    #[test]
    fn accumulates_on_top_of_prefilled_output() {
        // A pre-filled output (e.g. a broadcast bias) is accumulated into,
        // not overwritten — the fused-bias contract the layers rely on.
        let mut out = vec![10.0f32; 1];
        gemm_acc(&mut out, &[1.0, 2.0], &[3.0, 4.0], 1, 2, 1);
        assert_eq!(out[0], 10.0 + 1.0 * 3.0 + 2.0 * 4.0);
    }

    #[test]
    fn transposed_accumulate_matches_explicit_transpose() {
        let (m, k, n) = (6, 5, 4);
        let a = pseudo(m * k, 3);
        let g = pseudo(m * n, 4);
        let mut got = vec![0.0f32; k * n];
        gemm_tn_acc(&mut got, &a, &g, m, k, n);
        // Oracle: transpose a explicitly, then naive GEMM.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut want = vec![0.0f32; k * n];
        gemm_naive(&mut want, &at, &g, k, m, n);
        assert_eq!(got, want);
    }

    proptest! {
        /// Blocked GEMM matches the naive oracle on random shapes,
        /// including non-multiples of every tile dimension and m = 1.
        #[test]
        fn blocked_matches_naive_randomized(m in 1usize..10, k in 1usize..40,
                                            n in 1usize..30, seed in 0u64..500) {
            let a = pseudo(m * k, seed);
            let b = pseudo(k * n, seed.wrapping_add(1));
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            gemm_acc(&mut got, &a, &b, m, k, n);
            gemm_naive(&mut want, &a, &b, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-6 * w.abs().max(1.0));
            }
        }
    }
}
