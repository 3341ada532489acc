//! Orthonormalization of orbital panels.
//!
//! Modified Gram–Schmidt keeps the KS orbital panels orthonormal: after
//! every descent sweep of the SCF and ground-state solves, and on the
//! seeded random panels they start from.

use crate::cgemm::overlap;
use crate::complex::c64;
use crate::matrix::Matrix;

/// In-place modified Gram–Schmidt over the columns of `psi`.
/// Returns the diagonal norms prior to normalization (useful to detect
/// near-linear-dependence).
pub fn gram_schmidt(psi: &mut Matrix<c64>) -> Vec<f64> {
    let (m, n) = (psi.rows(), psi.cols());
    let mut norms = Vec::with_capacity(n);
    for j in 0..n {
        // Orthogonalize against previous columns (modified GS: re-read the
        // updated column each time for numerical stability).
        for p in 0..j {
            let mut dot = c64::zero();
            {
                let (cp, cj) = columns_pair(psi, p, j, m);
                for (a, b) in cp.iter().zip(cj.iter()) {
                    dot = dot.mul_acc(a.conj(), *b);
                }
            }
            let (cp, cj) = columns_pair_mut(psi, p, j, m);
            for (a, b) in cp.iter().zip(cj.iter_mut()) {
                *b -= *a * dot;
            }
        }
        let norm: f64 = psi.col(j).iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        norms.push(norm);
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        for z in psi.col_mut(j) {
            *z = z.scale(inv);
        }
    }
    norms
}

fn columns_pair(psi: &Matrix<c64>, p: usize, j: usize, m: usize) -> (&[c64], &[c64]) {
    debug_assert!(p < j);
    let s = psi.as_slice();
    (&s[p * m..(p + 1) * m], &s[j * m..(j + 1) * m])
}

fn columns_pair_mut(psi: &mut Matrix<c64>, p: usize, j: usize, m: usize) -> (&[c64], &mut [c64]) {
    debug_assert!(p < j);
    let s = psi.as_mut_slice();
    let (head, tail) = s.split_at_mut(j * m);
    (&head[p * m..(p + 1) * m], &mut tail[..m])
}

/// Max deviation of `Ψ†Ψ` from identity; testing/diagnostic helper.
pub fn orthonormality_error(psi: &Matrix<c64>) -> f64 {
    let n = psi.cols();
    let mut s = Matrix::<c64>::zeros(n, n);
    overlap(c64::one(), psi, psi, c64::zero(), &mut s);
    let mut worst = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            let expect = if i == j { c64::one() } else { c64::zero() };
            worst = worst.max((s[(i, j)] - expect).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, SplitMix64};

    fn random_panel(m: usize, n: usize, seed: u64) -> Matrix<c64> {
        let mut rng = SplitMix64::new(seed);
        Matrix::from_fn(m, n, |_, _| {
            c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)
        })
    }

    #[test]
    fn gram_schmidt_orthonormalizes() {
        let mut psi = random_panel(50, 8, 1);
        gram_schmidt(&mut psi);
        assert!(orthonormality_error(&psi) < 1e-12);
    }

    #[test]
    fn gram_schmidt_preserves_first_direction() {
        let mut psi = random_panel(30, 4, 2);
        let first: Vec<c64> = psi.col(0).to_vec();
        gram_schmidt(&mut psi);
        // Column 0 only gets normalized, so it stays parallel.
        let norm: f64 = first.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        for (a, b) in psi.col(0).iter().zip(&first) {
            assert!((*a - b.scale(1.0 / norm)).abs() < 1e-12);
        }
    }

    #[test]
    fn near_dependent_columns_detected() {
        let mut psi = random_panel(20, 3, 5);
        // Make column 2 almost a copy of column 0.
        let c0: Vec<c64> = psi.col(0).to_vec();
        for (dst, src) in psi.col_mut(2).iter_mut().zip(&c0) {
            *dst = *src + dst.scale(1e-10);
        }
        let norms = gram_schmidt(&mut psi);
        assert!(norms[2] < 1e-8, "dependence must show as a tiny norm");
    }
}
