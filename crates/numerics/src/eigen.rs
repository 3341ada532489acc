//! Jacobi eigensolvers for real symmetric and complex Hermitian matrices.
//!
//! The stack needs small dense diagonalizations: the KS-orbital subspace
//! (Norb ≤ ~1k per domain) in the Rayleigh–Ritz rotations of the SCF and
//! ground-state solves, and the open-chain spectra behind the Floquet
//! sweep's edge-state score. Cyclic Jacobi is simple, unconditionally
//! stable, and embarrassingly accurate for these sizes.

use crate::complex::c64;
use crate::matrix::Matrix;

/// Eigendecomposition result: `a = V · diag(λ) · V†`, eigenvalues ascending.
#[derive(Clone, Debug)]
pub struct Eigen<T> {
    pub values: Vec<f64>,
    /// Columns are eigenvectors.
    pub vectors: Matrix<T>,
}

/// Eigendecomposition of a real symmetric matrix by cyclic Jacobi.
pub fn eigh_real(a: &Matrix<f64>) -> Eigen<f64> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "matrix must be square");
    let mut m = a.clone();
    let mut v = Matrix::<f64>::eye(n);
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + m.frobenius_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let (app, aqq) = (m[(p, p)], m[(q, q)]);
                // Jacobi angle zeroing a_pq: tan(2φ) = 2a_pq / (a_qq − a_pp)
                // for the A ← Gᵀ A G convention used by `rotate_real`.
                let phi = 0.5 * (2.0 * apq).atan2(aqq - app);
                let (c, s) = (phi.cos(), phi.sin());
                rotate_real(&mut m, p, q, c, s);
                rotate_cols_real(&mut v, p, q, c, s);
            }
        }
    }
    sort_eigen_real(m, v)
}

fn rotate_real(m: &mut Matrix<f64>, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    // A ← Jᵀ A J with J the Givens rotation in the (p,q) plane.
    for i in 0..n {
        let (aip, aiq) = (m[(i, p)], m[(i, q)]);
        m[(i, p)] = c * aip - s * aiq;
        m[(i, q)] = s * aip + c * aiq;
    }
    for j in 0..n {
        let (apj, aqj) = (m[(p, j)], m[(q, j)]);
        m[(p, j)] = c * apj - s * aqj;
        m[(q, j)] = s * apj + c * aqj;
    }
}

fn rotate_cols_real(v: &mut Matrix<f64>, p: usize, q: usize, c: f64, s: f64) {
    let n = v.rows();
    for i in 0..n {
        let (vip, viq) = (v[(i, p)], v[(i, q)]);
        v[(i, p)] = c * vip - s * viq;
        v[(i, q)] = s * vip + c * viq;
    }
}

fn sort_eigen_real(m: Matrix<f64>, v: Matrix<f64>) -> Eigen<f64> {
    let n = m.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
    let values = order.iter().map(|&i| vals[i]).collect();
    let vectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    Eigen { values, vectors }
}

/// Eigendecomposition of a complex Hermitian matrix by embedding into a
/// real symmetric problem of twice the size:
/// `H = A + iB  →  [[A, −B], [B, A]]` whose eigenpairs come in duplicated
/// pairs `(λ, [x; y])` with complex eigenvector `x + iy`.
pub fn eigh_hermitian(h: &Matrix<c64>) -> Eigen<c64> {
    let n = h.rows();
    assert_eq!(n, h.cols(), "matrix must be square");
    let mut big = Matrix::<f64>::zeros(2 * n, 2 * n);
    for j in 0..n {
        for i in 0..n {
            let z = h[(i, j)];
            big[(i, j)] = z.re;
            big[(i + n, j + n)] = z.re;
            big[(i + n, j)] = z.im;
            big[(i, j + n)] = -z.im;
        }
    }
    let e = eigh_real(&big);
    // Eigenvalues are doubled; take every other one and build complex
    // vectors, re-orthonormalizing degenerate duplicates away by selecting
    // vectors with maximal residual norm against already-chosen ones.
    let mut values = Vec::with_capacity(n);
    let mut chosen: Vec<Vec<c64>> = Vec::with_capacity(n);
    for idx in 0..2 * n {
        if values.len() == n {
            break;
        }
        let lam = e.values[idx];
        let mut vec: Vec<c64> = (0..n)
            .map(|i| c64::new(e.vectors[(i, idx)], e.vectors[(i + n, idx)]))
            .collect();
        // Project out already-accepted eigenvectors (handles the pair
        // degeneracy: [x; y] and [−y; x] map to x+iy and i(x+iy)).
        for c in &chosen {
            let dot: c64 = c
                .iter()
                .zip(&vec)
                .map(|(&a, &b)| a.conj() * b)
                .fold(c64::zero(), |s, t| s + t);
            for (vi, ci) in vec.iter_mut().zip(c) {
                *vi -= *ci * dot;
            }
        }
        let norm: f64 = vec.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-8 {
            let inv = 1.0 / norm;
            for vi in &mut vec {
                *vi = vi.scale(inv);
            }
            values.push(lam);
            chosen.push(vec);
        }
    }
    assert_eq!(values.len(), n, "failed to extract all complex eigenpairs");
    let vectors = Matrix::from_fn(n, n, |i, j| chosen[j][i]);
    Eigen { values, vectors }
}

/// Largest |A·v − λ·v| residual over all eigenpairs; testing helper.
pub fn residual_hermitian(h: &Matrix<c64>, e: &Eigen<c64>) -> f64 {
    let n = h.rows();
    let mut worst = 0.0f64;
    for j in 0..n {
        for i in 0..n {
            let mut hv = c64::zero();
            for k in 0..n {
                hv += h[(i, k)] * e.vectors[(k, j)];
            }
            let r = hv - e.vectors[(i, j)].scale(e.values[j]);
            worst = worst.max(r.abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng64, SplitMix64};

    fn random_symmetric(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.next_f64() - 0.5);
        Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]))
    }

    fn random_hermitian(n: usize, seed: u64) -> Matrix<c64> {
        let mut rng = SplitMix64::new(seed);
        let a = Matrix::from_fn(n, n, |_, _| {
            c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)
        });
        Matrix::from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)].conj()).scale(0.5))
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let mut d = Matrix::<f64>::zeros(3, 3);
        d[(0, 0)] = 3.0;
        d[(1, 1)] = -1.0;
        d[(2, 2)] = 2.0;
        let e = eigh_real(&d);
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = eigh_real(&m);
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn real_reconstruction() {
        for n in [2usize, 5, 12] {
            let a = random_symmetric(n, n as u64);
            let e = eigh_real(&a);
            // A ≈ V Λ Vᵀ
            let mut rec = Matrix::<f64>::zeros(n, n);
            for j in 0..n {
                for i in 0..n {
                    let mut s = 0.0;
                    for k in 0..n {
                        s += e.vectors[(i, k)] * e.values[k] * e.vectors[(j, k)];
                    }
                    rec[(i, j)] = s;
                }
            }
            assert!(a.max_abs_diff(&rec) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn real_eigenvectors_orthonormal() {
        let a = random_symmetric(8, 3);
        let e = eigh_real(&a);
        for i in 0..8 {
            for j in 0..8 {
                let dot: f64 = (0..8).map(|k| e.vectors[(k, i)] * e.vectors[(k, j)]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn hermitian_eigenpairs() {
        for n in [2usize, 3, 6, 10] {
            let h = random_hermitian(n, 100 + n as u64);
            let e = eigh_hermitian(&h);
            assert!(residual_hermitian(&h, &e) < 1e-9, "n={n}");
            // eigenvalues real and ascending
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn hermitian_orthonormal_vectors() {
        let h = random_hermitian(7, 42);
        let e = eigh_hermitian(&h);
        for i in 0..7 {
            for j in 0..7 {
                let dot: c64 = (0..7)
                    .map(|k| e.vectors[(k, i)].conj() * e.vectors[(k, j)])
                    .fold(c64::zero(), |s, t| s + t);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - c64::real(expect)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hermitian_trace_preserved() {
        let h = random_hermitian(9, 8);
        let e = eigh_hermitian(&h);
        let tr: f64 = (0..9).map(|i| h[(i, i)].re).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-9);
    }
}
