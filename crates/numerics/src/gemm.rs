//! GEMM kernels: the computational core of "GEMMification" (paper Sec. V.B.5).
//!
//! Three implementation tiers mirror the optimization story of the paper:
//!
//! * [`gemm_naive`] — reference triple loop (correctness oracle).
//! * [`gemm_blocked`] — cache-blocked packed-panel kernel (MC×KC×MR×NR
//!   tiling, the CPU "blocking/tiling" tier, Sec. V.B.3). Panels of `A` and
//!   `B` are packed into contiguous tile-major buffers so the innermost
//!   MR×NR micro-kernel runs over unit-stride data the autovectorizer can
//!   chew on.
//! * [`gemm_parallel`] — the packed kernel fanned out over fixed-width
//!   column strips with rayon (the "hierarchical parallel regions" tier
//!   mapped to the GPU in Sec. V.B.4).
//!
//! The mixed-precision split-BF16 modes of Sec. VI.C run on the complex
//! kernels, in [`crate::cgemm::cgemm_c32_split`].
//!
//! All kernels compute `C = alpha·op(A)·op(B) + beta·C` for column-major
//! matrices; op(A) is expressed through [`MatRef`] strided views (a
//! transpose is a stride swap, a conjugate transpose additionally sets the
//! conj flag applied at pack time), so [`crate::cgemm`] dispatches every
//! op combination here without materializing transposed copies.
//!
//! # Oracle discipline
//!
//! Every tier folds each output element the same way: start from the
//! beta-scaled previous value, then add terms `a[(i,p)] · (alpha·b[(p,j)])`
//! in ascending-`p` order. Because f64 addition and multiplication are
//! bitwise-commutative in their rounding (and Rust never contracts to FMA),
//! this makes naive, blocked (at *any* block-size choice), strided, and
//! parallel (at *any* pool width) produce **bit-identical** results — the
//! invariant the `kernel_oracle` differential harness pins with
//! proptest-generated shapes, strides, and transpose flags. The micro-kernel
//! preserves the fold across KC chunks by loading the C tile into registers,
//! accumulating the chunk's terms, and storing back (never by summing a
//! zero-initialized partial into C, which would regroup the additions).
//!
//! FLOP accounting is *analytic*: each public entry point records
//! `MAC_FLOPS · m·n·k` on the calling thread's tally
//! ([`crate::flops::record_gemm`]) once per call, so naive and blocked
//! report identical counts for the same shape by construction.

use crate::flops;
use crate::matrix::{Matrix, Scalar};
use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// FLOP count of a (real or complex) GEMM of shape m×k · k×n.
#[inline]
pub fn gemm_flops<T: Scalar>(m: usize, n: usize, k: usize) -> u64 {
    T::MAC_FLOPS * m as u64 * n as u64 * k as u64
}

/// Hard ceiling on the micro-tile dimensions: the micro-kernel accumulates
/// into a stack buffer of `MR_MAX · NR_MAX` registers.
pub const MR_MAX: usize = 8;
/// See [`MR_MAX`].
pub const NR_MAX: usize = 8;

/// Number of C columns per parallel task in [`gemm_parallel`]. Fixed (not
/// derived from the pool width) so the work decomposition — and therefore
/// the bit pattern of the result — is invariant across pool widths.
const PAR_STRIP_COLS: usize = 8;

/// Cache-blocking parameters for the packed kernel.
///
/// `mc`×`kc` is the packed A block kept cache-resident; `mr`×`nr` is the
/// micro-tile accumulated in registers (clamped to [`MR_MAX`]×[`NR_MAX`]).
/// Any choice produces bit-identical results (see module docs); the
/// defaults are tuned for ~L2-sized panels of f64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    pub mc: usize,
    pub kc: usize,
    pub mr: usize,
    pub nr: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        Self {
            mc: 128,
            kc: 256,
            mr: 8,
            nr: 8,
        }
    }
}

impl BlockSizes {
    fn sane(self) -> Self {
        Self {
            mc: self.mc.max(1),
            kc: self.kc.max(1),
            mr: self.mr.clamp(1, MR_MAX),
            nr: self.nr.clamp(1, NR_MAX),
        }
    }
}

/// Borrowed strided view of a column-major matrix, with an optional
/// element-wise conjugation applied on read.
///
/// `op(A)` in BLAS terms is a view transformation: a transpose swaps the
/// row/column strides, a conjugate transpose additionally sets `conj`.
/// The packed kernel reads operands exclusively through [`MatRef::at`], so
/// transposed operands cost nothing extra beyond the (already paid) pack.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
    conj: bool,
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// View with explicit strides. `data[i·rs + j·cs]` must be in bounds
    /// for all `i < rows`, `j < cols`.
    pub fn new(data: &'a [T], rows: usize, cols: usize, rs: usize, cs: usize, conj: bool) -> Self {
        if rows > 0 && cols > 0 {
            let max = (rows - 1) * rs + (cols - 1) * cs;
            assert!(max < data.len(), "MatRef strides exceed buffer");
        }
        Self {
            data,
            rows,
            cols,
            rs,
            cs,
            conj,
        }
    }

    /// Plain (untransposed, unconjugated) view of a column-major matrix.
    pub fn from_matrix(m: &'a Matrix<T>) -> Self {
        Self::new(m.as_slice(), m.rows(), m.cols(), 1, m.rows(), false)
    }

    /// Transposed view: `at(i,j) = m[(j,i)]`, no copy.
    pub fn transposed(m: &'a Matrix<T>) -> Self {
        Self::new(m.as_slice(), m.cols(), m.rows(), m.rows(), 1, false)
    }

    /// Conjugate-transposed view: `at(i,j) = conj(m[(j,i)])`, no copy.
    pub fn conj_transposed(m: &'a Matrix<T>) -> Self {
        Self::new(m.as_slice(), m.cols(), m.rows(), m.rows(), 1, true)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sub-view of `width` columns starting at column `j0`.
    pub fn col_range(&self, j0: usize, width: usize) -> Self {
        assert!(j0 + width <= self.cols, "column range out of bounds");
        Self {
            data: &self.data[j0 * self.cs..],
            rows: self.rows,
            cols: width,
            rs: self.rs,
            cs: self.cs,
            conj: self.conj,
        }
    }

    /// Element read with the view's strides and conjugation applied.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> T {
        let v = self.data[i * self.rs + j * self.cs];
        if self.conj {
            v.conj()
        } else {
            v
        }
    }
}

/// Reference GEMM: `C = alpha·A·B + beta·C`. Triple loop, no blocking.
/// This is the Table III "baseline" tier for dense algebra and the
/// correctness oracle for every other kernel in this module.
///
/// The per-element fold is the canonical one shared by all tiers (see
/// module docs), so the blocked and parallel kernels match it
/// **bit-for-bit**, not merely within tolerance.
pub fn gemm_naive<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    let (m, k, n) = check_shapes(a, b, c);
    flops::record_gemm(gemm_flops::<T>(m, n, k));
    let one = T::one();
    for j in 0..n {
        for i in 0..m {
            let mut acc = if beta == one {
                c[(i, j)]
            } else {
                beta * c[(i, j)]
            };
            for p in 0..k {
                acc += a[(i, p)] * (alpha * b[(p, j)]);
            }
            c[(i, j)] = acc;
        }
    }
}

/// Cache-blocked packed-panel GEMM with the default [`BlockSizes`].
/// Bit-identical to [`gemm_naive`] for every shape.
pub fn gemm_blocked<T: Scalar>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    gemm_blocked_with(BlockSizes::default(), alpha, a, b, beta, c);
}

/// [`gemm_blocked`] with explicit blocking parameters. Results are
/// bit-identical for every `BlockSizes` choice — the property the
/// `kernel_oracle` harness sweeps.
pub fn gemm_blocked_with<T: Scalar>(
    bs: BlockSizes,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k, n) = check_shapes(a, b, c);
    flops::record_gemm(gemm_flops::<T>(m, n, k));
    let ldc = m;
    gemm_packed(
        bs,
        alpha,
        MatRef::from_matrix(a),
        MatRef::from_matrix(b),
        beta,
        c.as_mut_slice(),
        ldc,
    );
}

/// GEMM over strided (possibly transposed/conjugated) operand views:
/// `C = alpha·view(A)·view(B) + beta·C`. This is the entry point
/// [`crate::cgemm::cgemm`] uses for every op combination other than its
/// two tuned fast paths — the pack stage absorbs arbitrary strides, so no
/// transposed operand is ever materialized.
pub fn gemm_strided<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert_eq!(k, b.rows(), "GEMM inner dimensions differ");
    assert_eq!(c.rows(), m, "GEMM C row mismatch");
    assert_eq!(c.cols(), n, "GEMM C col mismatch");
    flops::record_gemm(gemm_flops::<T>(m, n, k));
    gemm_packed(
        BlockSizes::default(),
        alpha,
        a,
        b,
        beta,
        c.as_mut_slice(),
        m,
    );
}

/// Parallel GEMM: the packed kernel fanned out over fixed-width column
/// strips with rayon — the data-parallel "SIMT" tier of Sec. V.B.4.
///
/// Each strip of `PAR_STRIP_COLS` C columns runs the full serial packed
/// kernel against a column sub-view of B, so the per-element fold — and
/// therefore the bit pattern — is identical to the serial kernels and
/// invariant across pool widths.
pub fn gemm_parallel<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k, n) = check_shapes(a, b, c);
    flops::record_gemm(gemm_flops::<T>(m, n, k));
    let bs = BlockSizes::default();
    let a_ref = MatRef::from_matrix(a);
    let b_ref = MatRef::from_matrix(b);
    if m * n * k < PAR_THRESHOLD {
        // Parallel dispatch overhead dominates below this size.
        return gemm_packed(bs, alpha, a_ref, b_ref, beta, c.as_mut_slice(), m);
    }
    c.as_mut_slice()
        .par_chunks_mut(m * PAR_STRIP_COLS)
        .enumerate()
        .for_each(|(t, c_strip)| {
            let j0 = t * PAR_STRIP_COLS;
            // m > 0 here: an empty product falls below PAR_THRESHOLD and
            // takes the serial early return above.
            let width = (c_strip.len() / m).min(n - j0);
            gemm_packed(
                bs,
                alpha,
                a_ref,
                b_ref.col_range(j0, width),
                beta,
                c_strip,
                m,
            );
        });
}

/// The packed kernel shared by every non-naive tier.
///
/// Loop structure (outermost to innermost): KC chunks of the inner
/// dimension, ascending, with B packed strip-major (alpha folded in at
/// pack time, one multiply per B element); MC blocks of rows with A packed
/// tile-major (view strides and conjugation applied at pack time); NR
/// column strips × MR row tiles handled by a register-resident micro-kernel
/// that loads the C tile, accumulates the chunk's terms in ascending-`p`
/// order with the operand order `a · (alpha·b)`, and stores back.
fn gemm_packed<T: Scalar>(
    bs: BlockSizes,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let bs = bs.sane();
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    debug_assert_eq!(b.rows(), k);
    if n > 0 {
        assert!(c.len() >= (n - 1) * ldc + m, "C buffer too small");
    }
    if beta != T::one() {
        for col in c.chunks_mut(ldc.max(1)).take(n) {
            for x in &mut col[..m] {
                *x = beta * *x;
            }
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kc_eff = bs.kc.min(k);
    let mc_eff = bs.mc.min(m);
    let mut bpack = vec![T::zero(); kc_eff * n];
    let mut apack = vec![T::zero(); mc_eff * kc_eff];
    let mut acc = [T::zero(); MR_MAX * NR_MAX];

    for pc in (0..k).step_by(bs.kc) {
        let kb = bs.kc.min(k - pc);
        // Pack B panel strip-major: strip at j0 occupies
        // bpack[j0*kb .. (j0+nrw)*kb], element (p, jl) at [p*nrw + jl].
        for j0 in (0..n).step_by(bs.nr) {
            let nrw = bs.nr.min(n - j0);
            let base = j0 * kb;
            for p in 0..kb {
                let dst = &mut bpack[base + p * nrw..base + (p + 1) * nrw];
                for (jl, slot) in dst.iter_mut().enumerate() {
                    *slot = alpha * b.at(pc + p, j0 + jl);
                }
            }
        }
        for i0 in (0..m).step_by(bs.mc) {
            let ib = bs.mc.min(m - i0);
            // Pack A block tile-major: tile at r0 occupies
            // apack[r0*kb .. (r0+mrw)*kb], element (p, r) at [p*mrw + r].
            for r0 in (0..ib).step_by(bs.mr) {
                let mrw = bs.mr.min(ib - r0);
                let base = r0 * kb;
                for p in 0..kb {
                    let dst = &mut apack[base + p * mrw..base + (p + 1) * mrw];
                    for (r, slot) in dst.iter_mut().enumerate() {
                        *slot = a.at(i0 + r0 + r, pc + p);
                    }
                }
            }
            for j0 in (0..n).step_by(bs.nr) {
                let nrw = bs.nr.min(n - j0);
                let b_strip = &bpack[j0 * kb..(j0 + nrw) * kb];
                for r0 in (0..ib).step_by(bs.mr) {
                    let mrw = bs.mr.min(ib - r0);
                    let a_tile = &apack[r0 * kb..(r0 + mrw) * kb];
                    // Load the C micro-tile so the KC chunk's terms extend
                    // the existing per-element fold (see module docs).
                    for jl in 0..nrw {
                        let col = &c[(j0 + jl) * ldc + i0 + r0..][..mrw];
                        acc[jl * mrw..(jl + 1) * mrw].copy_from_slice(col);
                    }
                    for (arow, brow) in a_tile.chunks_exact(mrw).zip(b_strip.chunks_exact(nrw)) {
                        for (jl, &bv) in brow.iter().enumerate() {
                            let accj = &mut acc[jl * mrw..(jl + 1) * mrw];
                            for (cv, &av) in accj.iter_mut().zip(arow) {
                                *cv += av * bv;
                            }
                        }
                    }
                    for jl in 0..nrw {
                        let col = &mut c[(j0 + jl) * ldc + i0 + r0..][..mrw];
                        col.copy_from_slice(&acc[jl * mrw..(jl + 1) * mrw]);
                    }
                }
            }
        }
    }
}

fn check_shapes<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, c: &Matrix<T>) -> (usize, usize, usize) {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimensions differ");
    assert_eq!(a.rows(), c.rows(), "GEMM C row mismatch");
    assert_eq!(b.cols(), c.cols(), "GEMM C col mismatch");
    (a.rows(), a.cols(), b.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::rng::{Rng64, SplitMix64};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut rng = SplitMix64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_f64() - 0.5)
    }

    fn random_cmatrix(rows: usize, cols: usize, seed: u64) -> Matrix<c64> {
        let mut rng = SplitMix64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)
        })
    }

    fn assert_bits_eq(a: &Matrix<f64>, b: &Matrix<f64>, ctx: &str) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn naive_matches_hand_computed() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Matrix::from_vec(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 7.0, 6.0, 8.0]);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm_naive(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 43.0, 22.0, 50.0]);
    }

    #[test]
    fn blocked_is_bit_identical_to_naive_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 31, 13),
            (130, 64, 70),
            (257, 129, 3),
        ] {
            let a = random_matrix(m, k, 1);
            let b = random_matrix(k, n, 2);
            let mut c0 = random_matrix(m, n, 3);
            let mut c1 = c0.clone();
            gemm_naive(1.3, &a, &b, 0.4, &mut c0);
            gemm_blocked(1.3, &a, &b, 0.4, &mut c1);
            assert_bits_eq(&c0, &c1, &format!("shape ({m},{k},{n})"));
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_naive() {
        let (m, k, n) = (96, 87, 64);
        let a = random_matrix(m, k, 4);
        let b = random_matrix(k, n, 5);
        let mut c0 = random_matrix(m, n, 6);
        let mut c1 = c0.clone();
        gemm_naive(0.7, &a, &b, -0.2, &mut c0);
        gemm_parallel(0.7, &a, &b, -0.2, &mut c1);
        assert_bits_eq(&c0, &c1, "parallel vs naive");
    }

    #[test]
    fn complex_blocked_is_bit_identical_to_naive() {
        let (m, k, n) = (24, 40, 18);
        let a = random_cmatrix(m, k, 7);
        let b = random_cmatrix(k, n, 8);
        let mut c0 = Matrix::<c64>::zeros(m, n);
        let mut c1 = c0.clone();
        gemm_naive(c64::new(0.5, 0.5), &a, &b, c64::zero(), &mut c0);
        gemm_blocked(c64::new(0.5, 0.5), &a, &b, c64::zero(), &mut c1);
        for (x, y) in c0.as_slice().iter().zip(c1.as_slice()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn block_sizes_do_not_change_bits() {
        let (m, k, n) = (37, 41, 23);
        let a = random_matrix(m, k, 11);
        let b = random_matrix(k, n, 12);
        let c0 = random_matrix(m, n, 13);
        let mut reference = c0.clone();
        gemm_blocked(0.9, &a, &b, 1.7, &mut reference);
        for bs in [
            BlockSizes {
                mc: 1,
                kc: 1,
                mr: 1,
                nr: 1,
            },
            BlockSizes {
                mc: 7,
                kc: 5,
                mr: 3,
                nr: 2,
            },
            BlockSizes {
                mc: 64,
                kc: 16,
                mr: 4,
                nr: 8,
            },
            BlockSizes {
                mc: 4096,
                kc: 4096,
                mr: 8,
                nr: 8,
            },
        ] {
            let mut c = c0.clone();
            gemm_blocked_with(bs, 0.9, &a, &b, 1.7, &mut c);
            assert_bits_eq(&reference, &c, &format!("{bs:?}"));
        }
    }

    #[test]
    fn strided_transposed_view_matches_materialized() {
        let a = random_matrix(9, 14, 21);
        let b = random_matrix(9, 6, 22);
        // C = A^T · B via the strided view vs. a materialized transpose.
        let mut c_view = Matrix::<f64>::zeros(14, 6);
        gemm_strided(
            1.1,
            MatRef::transposed(&a),
            MatRef::from_matrix(&b),
            0.0,
            &mut c_view,
        );
        let at = a.transpose();
        let mut c_mat = Matrix::<f64>::zeros(14, 6);
        gemm_naive(1.1, &at, &b, 0.0, &mut c_mat);
        assert_bits_eq(&c_view, &c_mat, "transposed view");
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        // beta = 0 must ignore pre-existing NaN-free garbage in C.
        let a = Matrix::<f64>::eye(3);
        let b = random_matrix(3, 3, 9);
        let mut c = Matrix::from_fn(3, 3, |_, _| 1e300);
        gemm_blocked(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let b = random_matrix(8, 5, 10);
        let mut c = Matrix::<f64>::zeros(8, 5);
        gemm_parallel(1.0, &Matrix::eye(8), &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&b) < 1e-14);
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(gemm_flops::<f64>(10, 20, 30), 2 * 10 * 20 * 30);
        assert_eq!(gemm_flops::<c64>(10, 20, 30), 8 * 10 * 20 * 30);
    }

    #[test]
    fn naive_and_blocked_record_identical_flop_counts() {
        // Regression for the flops.rs satellite: the tally is analytic, so
        // loop structure (naive vs blocked vs parallel) cannot skew it.
        let (m, k, n) = (13, 29, 7);
        let a = random_matrix(m, k, 31);
        let b = random_matrix(k, n, 32);
        let mut c = Matrix::<f64>::zeros(m, n);
        flops::reset_gemm_tally();
        gemm_naive(1.0, &a, &b, 0.0, &mut c);
        let naive_count = flops::reset_gemm_tally();
        gemm_blocked(1.0, &a, &b, 0.0, &mut c);
        let blocked_count = flops::reset_gemm_tally();
        gemm_parallel(1.0, &a, &b, 0.0, &mut c);
        let parallel_count = flops::reset_gemm_tally();
        assert_eq!(naive_count, gemm_flops::<f64>(m, n, k));
        assert_eq!(naive_count, blocked_count);
        assert_eq!(naive_count, parallel_count);
    }
}
