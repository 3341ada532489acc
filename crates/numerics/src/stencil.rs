//! Finite-difference stencil operators on [`Grid3`] fields.
//!
//! Second-order 7-point and fourth-order 13-point Laplacians with periodic
//! boundaries, plus central-difference gradients. These are the "sparse
//! stencil operations with strided data access" of paper Sec. V.B.2 and the
//! building blocks of the multigrid Hartree solver; the ~3%-of-peak
//! arithmetic intensity the paper quotes for 7-point stencils (ref \[59\]) is
//! what the Table V kin_prop/CGEMM contrast illustrates.

use crate::grid::Grid3;

/// Stencil order selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// 7-point, O(h²).
    Second,
    /// 13-point, O(h⁴).
    Fourth,
}

/// `out = ∇² f` with periodic boundaries.
pub fn laplacian(grid: &Grid3, f: &[f64], out: &mut [f64], order: Order) {
    assert_eq!(f.len(), grid.len());
    assert_eq!(out.len(), grid.len());
    match order {
        Order::Second => laplacian2(grid, f, out),
        Order::Fourth => laplacian4(grid, f, out),
    }
}

fn laplacian2(grid: &Grid3, f: &[f64], out: &mut [f64]) {
    let inv_h2 = 1.0 / (grid.h * grid.h);
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    for k in 0..nz {
        let kp = (k + 1) % nz;
        let km = (k + nz - 1) % nz;
        for j in 0..ny {
            let jp = (j + 1) % ny;
            let jm = (j + ny - 1) % ny;
            for i in 0..nx {
                let ip = (i + 1) % nx;
                let im = (i + nx - 1) % nx;
                let c = f[grid.idx(i, j, k)];
                let sum = f[grid.idx(ip, j, k)]
                    + f[grid.idx(im, j, k)]
                    + f[grid.idx(i, jp, k)]
                    + f[grid.idx(i, jm, k)]
                    + f[grid.idx(i, j, kp)]
                    + f[grid.idx(i, j, km)];
                out[grid.idx(i, j, k)] = (sum - 6.0 * c) * inv_h2;
            }
        }
    }
}

fn laplacian4(grid: &Grid3, f: &[f64], out: &mut [f64]) {
    // 1-D 4th-order coefficients: (-1/12, 16/12, -30/12, 16/12, -1/12)/h².
    let inv_h2 = 1.0 / (grid.h * grid.h);
    let (c0, c1, c2) = (-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0);
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    let at = |i: isize, j: isize, k: isize| -> f64 {
        f[grid.idx(grid.wrap(i, nx), grid.wrap(j, ny), grid.wrap(k, nz))]
    };
    for k in 0..nz as isize {
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                let c = at(i, j, k);
                let axis = |d: usize| -> f64 {
                    let (di, dj, dk) = match d {
                        0 => (1isize, 0isize, 0isize),
                        1 => (0, 1, 0),
                        _ => (0, 0, 1),
                    };
                    c0 * c
                        + c1 * (at(i + di, j + dj, k + dk) + at(i - di, j - dj, k - dk))
                        + c2 * (at(i + 2 * di, j + 2 * dj, k + 2 * dk)
                            + at(i - 2 * di, j - 2 * dj, k - 2 * dk))
                };
                out[grid.idx(i as usize, j as usize, k as usize)] =
                    (axis(0) + axis(1) + axis(2)) * inv_h2;
            }
        }
    }
}

/// Central-difference gradient: `(∂f/∂x, ∂f/∂y, ∂f/∂z)` at every point.
pub fn gradient(grid: &Grid3, f: &[f64], gx: &mut [f64], gy: &mut [f64], gz: &mut [f64]) {
    let inv_2h = 0.5 / grid.h;
    let (nx, ny, nz) = (grid.nx, grid.ny, grid.nz);
    for k in 0..nz {
        let kp = (k + 1) % nz;
        let km = (k + nz - 1) % nz;
        for j in 0..ny {
            let jp = (j + 1) % ny;
            let jm = (j + ny - 1) % ny;
            for i in 0..nx {
                let ip = (i + 1) % nx;
                let im = (i + nx - 1) % nx;
                let idx = grid.idx(i, j, k);
                gx[idx] = (f[grid.idx(ip, j, k)] - f[grid.idx(im, j, k)]) * inv_2h;
                gy[idx] = (f[grid.idx(i, jp, k)] - f[grid.idx(i, jm, k)]) * inv_2h;
                gz[idx] = (f[grid.idx(i, j, kp)] - f[grid.idx(i, j, km)]) * inv_2h;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FLOPs of one Laplacian application.
    fn laplacian_flops(grid: &Grid3, order: Order) -> u64 {
        let per_point = match order {
            Order::Second => 8,  // 6 adds + 1 mul-sub + 1 scale
            Order::Fourth => 21, // 3 axes × (2 adds + 4 mul) + combine
        };
        per_point * grid.len() as u64
    }

    /// Periodic plane wave: ∇² e^{i·0}→ use cos product; eigval −(kx²+ky²+kz²).
    fn cos_field(grid: &Grid3, mx: usize, my: usize, mz: usize) -> (Vec<f64>, f64) {
        let (lx, ly, lz) = grid.lengths();
        let kx = 2.0 * std::f64::consts::PI * mx as f64 / lx;
        let ky = 2.0 * std::f64::consts::PI * my as f64 / ly;
        let kz = 2.0 * std::f64::consts::PI * mz as f64 / lz;
        let mut f = vec![0.0; grid.len()];
        for k in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, y, z) = grid.position(i, j, k);
                    f[grid.idx(i, j, k)] = (kx * x).cos() * (ky * y).cos() * (kz * z).cos();
                }
            }
        }
        (f, -(kx * kx + ky * ky + kz * kz))
    }

    #[test]
    fn laplacian2_eigenfunction() {
        let grid = Grid3::cubic(32, 0.25);
        let (f, lam) = cos_field(&grid, 1, 1, 0);
        let mut out = vec![0.0; grid.len()];
        laplacian(&grid, &f, &mut out, Order::Second);
        // Compare at points where |f| is large to avoid 0/0.
        let mut checked = 0;
        for idx in 0..grid.len() {
            if f[idx].abs() > 0.5 {
                let ratio = out[idx] / f[idx];
                assert!(
                    (ratio - lam).abs() / lam.abs() < 0.02,
                    "ratio {ratio} lam {lam}"
                );
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn fourth_order_more_accurate_than_second() {
        let grid = Grid3::cubic(16, 0.5);
        let (f, lam) = cos_field(&grid, 2, 0, 0);
        let mut o2 = vec![0.0; grid.len()];
        let mut o4 = vec![0.0; grid.len()];
        laplacian(&grid, &f, &mut o2, Order::Second);
        laplacian(&grid, &f, &mut o4, Order::Fourth);
        let err = |o: &[f64]| -> f64 {
            f.iter()
                .zip(o)
                .filter(|(fi, _)| fi.abs() > 0.5)
                .map(|(fi, oi)| (oi / fi - lam).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&o4) < err(&o2), "4th order must beat 2nd order");
    }

    #[test]
    fn laplacian_of_constant_is_zero() {
        let grid = Grid3::new(6, 5, 4, 0.3);
        let f = vec![2.5; grid.len()];
        let mut out = vec![1.0; grid.len()];
        laplacian(&grid, &f, &mut out, Order::Second);
        assert!(out.iter().all(|&v| v.abs() < 1e-11));
        laplacian(&grid, &f, &mut out, Order::Fourth);
        assert!(out.iter().all(|&v| v.abs() < 1e-11));
    }

    #[test]
    fn gradient_of_linear_in_periodic_mode() {
        // For a sine wave, gradient is analytic.
        let grid = Grid3::cubic(64, 0.125);
        let (lx, _, _) = grid.lengths();
        let kx = 2.0 * std::f64::consts::PI / lx;
        let mut f = vec![0.0; grid.len()];
        for k in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, _, _) = grid.position(i, j, k);
                    f[grid.idx(i, j, k)] = (kx * x).sin();
                }
            }
        }
        let mut gx = vec![0.0; grid.len()];
        let mut gy = vec![0.0; grid.len()];
        let mut gz = vec![0.0; grid.len()];
        gradient(&grid, &f, &mut gx, &mut gy, &mut gz);
        for k in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, _, _) = grid.position(i, j, k);
                    let expect = kx * (kx * x).cos();
                    assert!((gx[grid.idx(i, j, k)] - expect).abs() < 2e-3);
                    assert!(gy[grid.idx(i, j, k)].abs() < 1e-12);
                    assert!(gz[grid.idx(i, j, k)].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn flop_accounting_positive() {
        let grid = Grid3::cubic(8, 1.0);
        assert!(laplacian_flops(&grid, Order::Second) > 0);
        assert!(laplacian_flops(&grid, Order::Fourth) > laplacian_flops(&grid, Order::Second));
    }
}
