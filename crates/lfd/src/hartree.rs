//! Hartree (Poisson) solvers: `∇²V_H = −4πρ` with periodic boundaries.
//!
//! Two solvers mirror the paper's "globally scalable and locally fast"
//! stack (Sec. V.A.2):
//!
//! * [`solve_fft`] — spectral solver (the "locally fast" FFT tier; the
//!   self-consistent Ehrenfest loop refreshes its Hartree term with it);
//! * [`Multigrid`] — geometric V-cycle with red–black Gauss–Seidel
//!   smoothing (the "O(N) tree-based multigrid", globally sparse tier the
//!   DC-SCF uses for the global KS potential).
//!
//! Periodic Poisson problems are only solvable for neutral sources, so both
//! solvers subtract the mean of `ρ` (the uniform compensating background
//! of a periodic solid) and return a zero-mean potential. The tests hold
//! both to the Ewald closed form for a periodic Gaussian charge.

use mlmd_numerics::complex::c64;
use mlmd_numerics::fft::Fft3d;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::stencil::{laplacian, Order};

const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

fn subtract_mean(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

/// Residual `r = ∇²V + 4πρ'` (ρ' mean-subtracted); returns its RMS.
pub fn residual_rms(grid: &Grid3, v: &[f64], rho: &[f64]) -> f64 {
    let mut rho_p = rho.to_vec();
    subtract_mean(&mut rho_p);
    let mut lap = vec![0.0; grid.len()];
    laplacian(grid, v, &mut lap, Order::Second);
    let ss: f64 = lap
        .iter()
        .zip(&rho_p)
        .map(|(l, r)| {
            let res = l + FOUR_PI * r;
            res * res
        })
        .sum();
    (ss / grid.len() as f64).sqrt()
}

/// Spectral solution: `V(G) = 4π ρ(G) / |G|²`, `V(0) = 0`.
pub fn solve_fft(grid: &Grid3, rho: &[f64]) -> Vec<f64> {
    assert_eq!(rho.len(), grid.len());
    let fft = Fft3d::new(grid.nx, grid.ny, grid.nz);
    let mut hat: Vec<c64> = rho.iter().map(|&r| c64::real(r)).collect();
    fft.forward(&mut hat);
    for c in 0..grid.nz {
        for b in 0..grid.ny {
            for a in 0..grid.nx {
                let idx = grid.idx(a, b, c);
                let g2 = grid.g_squared(a, b, c);
                hat[idx] = if g2 > 0.0 {
                    hat[idx].scale(FOUR_PI / g2)
                } else {
                    c64::zero()
                };
            }
        }
    }
    fft.inverse(&mut hat);
    hat.into_iter().map(|z| z.re).collect()
}

// Note: the spectral Laplacian (exact for the continuum operator) and the
// 7-point FD Laplacian differ at O(h²); `residual_rms` measures against
// the FD operator, so the FFT solution has a small but nonzero FD
// residual. Multigrid solves the FD operator exactly.

/// Geometric multigrid V-cycle solver for the 7-point FD Poisson problem.
pub struct Multigrid {
    levels: Vec<Grid3>,
}

/// Gauss–Seidel sweeps before and after each coarse-grid correction.
const SMOOTH_SWEEPS: usize = 3;
/// Gauss–Seidel sweeps that stand in for the coarsest-level solve.
const COARSE_SWEEPS: usize = 60;

impl Multigrid {
    /// Build a hierarchy by halving while all dims stay even and ≥ 4.
    pub fn new(grid: Grid3) -> Self {
        let mut levels = vec![grid];
        loop {
            let g = *levels.last().unwrap();
            if g.nx % 2 == 0
                && g.ny % 2 == 0
                && g.nz % 2 == 0
                && g.nx >= 8
                && g.ny >= 8
                && g.nz >= 8
            {
                levels.push(g.coarsen());
            } else {
                break;
            }
        }
        Self { levels }
    }

    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Solve `∇²V = −4πρ` to relative tolerance `tol` (at most `max_cycles`
    /// V-cycles). Returns (V, cycles used).
    pub fn solve(&self, rho: &[f64], tol: f64, max_cycles: usize) -> (Vec<f64>, usize) {
        let grid = self.levels[0];
        assert_eq!(rho.len(), grid.len());
        let mut f: Vec<f64> = rho.iter().map(|&r| FOUR_PI * r).collect();
        subtract_mean(&mut f);
        // Solve ∇²V = −f.
        let mut v = vec![0.0; grid.len()];
        let f_norm = f.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-300);
        let mut cycles = 0;
        for _ in 0..max_cycles {
            self.v_cycle(0, &mut v, &f);
            subtract_mean(&mut v);
            cycles += 1;
            let r = self.residual(0, &v, &f);
            let r_norm = r.iter().map(|x| x * x).sum::<f64>().sqrt();
            if r_norm / f_norm < tol {
                break;
            }
        }
        (v, cycles)
    }

    /// residual r = −f − ∇²v  (so solving ∇²v = −f drives r → 0).
    fn residual(&self, level: usize, v: &[f64], f: &[f64]) -> Vec<f64> {
        let g = self.levels[level];
        let mut lap = vec![0.0; g.len()];
        laplacian(&g, v, &mut lap, Order::Second);
        lap.iter().zip(f).map(|(l, ff)| -ff - l).collect()
    }

    fn v_cycle(&self, level: usize, v: &mut [f64], f: &[f64]) {
        let g = self.levels[level];
        if level + 1 == self.levels.len() {
            for _ in 0..COARSE_SWEEPS {
                self.gauss_seidel(level, v, f);
            }
            return;
        }
        for _ in 0..SMOOTH_SWEEPS {
            self.gauss_seidel(level, v, f);
        }
        let r = self.residual(level, v, f);
        let coarse = self.levels[level + 1];
        let rc = restrict(&g, &coarse, &r);
        // Defect equation: ∇²e = r. The smoother solves ∇²e = −f_c, so the
        // coarse right-hand side is f_c = −r_c.
        let mut ec = vec![0.0; coarse.len()];
        let mut fc: Vec<f64> = rc.into_iter().map(|x| -x).collect();
        subtract_mean(&mut fc);
        self.v_cycle(level + 1, &mut ec, &fc);
        prolong_add(&coarse, &g, &ec, v);
        for _ in 0..SMOOTH_SWEEPS {
            self.gauss_seidel(level, v, f);
        }
    }

    /// Red–black Gauss–Seidel sweep on `∇²v = −f` (7-point stencil).
    fn gauss_seidel(&self, level: usize, v: &mut [f64], f: &[f64]) {
        let g = self.levels[level];
        let h2 = g.h * g.h;
        for color in 0..2 {
            for k in 0..g.nz {
                for j in 0..g.ny {
                    for i in 0..g.nx {
                        if (i + j + k) % 2 != color {
                            continue;
                        }
                        let nb = v[g.idx((i + 1) % g.nx, j, k)]
                            + v[g.idx((i + g.nx - 1) % g.nx, j, k)]
                            + v[g.idx(i, (j + 1) % g.ny, k)]
                            + v[g.idx(i, (j + g.ny - 1) % g.ny, k)]
                            + v[g.idx(i, j, (k + 1) % g.nz)]
                            + v[g.idx(i, j, (k + g.nz - 1) % g.nz)];
                        v[g.idx(i, j, k)] = (nb + h2 * f[g.idx(i, j, k)]) / 6.0;
                    }
                }
            }
        }
    }
}

/// Full-weighting restriction: average the 2×2×2 children of each coarse
/// cell.
fn restrict(fine: &Grid3, coarse: &Grid3, r: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; coarse.len()];
    for k in 0..coarse.nz {
        for j in 0..coarse.ny {
            for i in 0..coarse.nx {
                let mut acc = 0.0;
                for dk in 0..2 {
                    for dj in 0..2 {
                        for di in 0..2 {
                            acc += r[fine.idx(
                                (2 * i + di) % fine.nx,
                                (2 * j + dj) % fine.ny,
                                (2 * k + dk) % fine.nz,
                            )];
                        }
                    }
                }
                out[coarse.idx(i, j, k)] = acc / 8.0;
            }
        }
    }
    out
}

/// Piecewise-constant prolongation: add each coarse value to its 8 children.
fn prolong_add(coarse: &Grid3, fine: &Grid3, e: &[f64], v: &mut [f64]) {
    for k in 0..fine.nz {
        for j in 0..fine.ny {
            for i in 0..fine.nx {
                let c = e[coarse.idx(
                    (i / 2).min(coarse.nx - 1),
                    (j / 2).min(coarse.ny - 1),
                    (k / 2).min(coarse.nz - 1),
                )];
                v[fine.idx(i, j, k)] += c;
            }
        }
    }
}

/// Hartree energy `E_H = ½ ∫ ρ V_H dV`.
pub fn hartree_energy(grid: &Grid3, rho: &[f64], v: &[f64]) -> f64 {
    0.5 * rho.iter().zip(v).map(|(r, p)| r * p).sum::<f64>() * grid.dv()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A neutral cosine source with analytic solution:
    /// ρ = cos(k·x) → V = 4π cos(k·x)/k².
    fn cosine_source(grid: &Grid3) -> (Vec<f64>, Vec<f64>) {
        let (lx, _, _) = grid.lengths();
        let kx = 2.0 * std::f64::consts::PI / lx;
        let mut rho = vec![0.0; grid.len()];
        let mut v_exact = vec![0.0; grid.len()];
        for k in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, _, _) = grid.position(i, j, k);
                    rho[grid.idx(i, j, k)] = (kx * x).cos();
                    v_exact[grid.idx(i, j, k)] = FOUR_PI * (kx * x).cos() / (kx * kx);
                }
            }
        }
        (rho, v_exact)
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fft_solver_analytic() {
        let grid = Grid3::cubic(16, 0.5);
        let (rho, v_exact) = cosine_source(&grid);
        let v = solve_fft(&grid, &rho);
        let scale = v_exact.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(
            max_err(&v, &v_exact) / scale < 1e-10,
            "spectral must be exact for a single mode"
        );
    }

    #[test]
    fn multigrid_reduces_residual() {
        let grid = Grid3::cubic(16, 0.5);
        let (rho, _) = cosine_source(&grid);
        let mg = Multigrid::new(grid);
        assert!(mg.depth() >= 2);
        let (v, cycles) = mg.solve(&rho, 1e-8, 40);
        assert!(
            cycles < 40,
            "multigrid should converge well before 40 cycles"
        );
        assert!(residual_rms(&grid, &v, &rho) < 1e-6);
    }

    #[test]
    fn multigrid_matches_fd_solution_of_analytic_problem() {
        let grid = Grid3::cubic(16, 0.4);
        let (rho, v_exact) = cosine_source(&grid);
        let mg = Multigrid::new(grid);
        let (v, _) = mg.solve(&rho, 1e-10, 60);
        // FD discretization error is O(h²) ≈ (k h)²/12 relative.
        let scale = v_exact.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max_err(&v, &v_exact) / scale < 0.05);
    }

    #[test]
    fn solvers_handle_non_neutral_sources() {
        // A constant offset in rho must be neutralized, not blow up.
        let grid = Grid3::cubic(8, 0.5);
        let (mut rho, _) = cosine_source(&grid);
        for r in rho.iter_mut() {
            *r += 3.0;
        }
        let v = solve_fft(&grid, &rho);
        assert!(v.iter().all(|x| x.is_finite()));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 1e-10, "potential must be zero-mean");
    }

    #[test]
    fn hartree_energy_positive_for_localized_charge() {
        let grid = Grid3::cubic(16, 0.5);
        // Gaussian blob (plus neutralizing background, handled internally).
        let mut rho = vec![0.0; grid.len()];
        let (lx, ly, lz) = grid.lengths();
        for k in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, y, z) = grid.position(i, j, k);
                    let d2 =
                        (x - lx / 2.0).powi(2) + (y - ly / 2.0).powi(2) + (z - lz / 2.0).powi(2);
                    rho[grid.idx(i, j, k)] = (-d2 / 0.8).exp();
                }
            }
        }
        let v = solve_fft(&grid, &rho);
        let mut rho_p = rho.clone();
        subtract_mean(&mut rho_p);
        let e = hartree_energy(&grid, &rho_p, &v);
        assert!(
            e > 0.0,
            "self-energy of a localized charge is positive, got {e}"
        );
    }

    /// A periodic Gaussian charge `q·(2πσ²)^{-3/2}·e^{−r²/2σ²}` centred in
    /// a cubic box of side `L = n·h`, sampled with its nearest images so
    /// the grid carries the periodic density.
    fn periodic_gaussian(n: usize, h: f64, q: f64, sigma: f64) -> (Grid3, Vec<f64>) {
        let grid = Grid3::cubic(n, h);
        let l = n as f64 * h;
        let norm = q / (2.0 * std::f64::consts::PI * sigma * sigma).powf(1.5);
        // Offset from the centre to image column m ∈ {0, 1, 2} of the 3³ block.
        let shift = |m: usize| (m as f64 - 1.0) * l;
        let mut rho = vec![0.0; grid.len()];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let (x, y, z) = grid.position(i, j, k);
                    let mut acc = 0.0;
                    for image in 0..27 {
                        let dx = x - 0.5 * l - shift(image % 3);
                        let dy = y - 0.5 * l - shift(image / 3 % 3);
                        let dz = z - 0.5 * l - shift(image / 9);
                        acc += (-(dx * dx + dy * dy + dz * dz) / (2.0 * sigma * sigma)).exp();
                    }
                    rho[grid.idx(i, j, k)] = norm * acc;
                }
            }
        }
        (grid, rho)
    }

    /// The Ewald closed form for that charge and its neutralising
    /// background: `E_H = q²/(2σ√π) − α q²/(2L) + 2π q² σ²/L³`, the
    /// isolated self-energy, the Madelung energy of a point charge in
    /// jellium (α = 2.837 297 479 480 6, simple cubic) and the finite-width
    /// term — the Ewald sum with splitting parameter η = 1/(2σ), whose
    /// real-space remainder is of order erfc(L/2σ).
    fn gaussian_hartree_energy(l: f64, q: f64, sigma: f64) -> f64 {
        const MADELUNG_SC: f64 = 2.837_297_479_480_6;
        let pi = std::f64::consts::PI;
        q * q / (2.0 * sigma * pi.sqrt()) - MADELUNG_SC * q * q / (2.0 * l)
            + 2.0 * pi * q * q * sigma * sigma / (l * l * l)
    }

    #[test]
    fn fft_hartree_energy_of_a_gaussian_matches_the_ewald_closed_form() {
        // L/2σ = 5: erfc(5) ≈ 1.5e-12, and the sampled Gaussian is
        // band-limited to e^{−σ²(π/h)²/2} ≈ 3e-6 at the Nyquist edge.
        let (n, h, q, sigma) = (16, 0.5, 1.0, 0.8);
        let (grid, rho) = periodic_gaussian(n, h, q, sigma);
        let charge = rho.iter().sum::<f64>() * grid.dv();
        assert!((charge - q).abs() < 1e-12, "sampled charge {charge}");
        let e = hartree_energy(&grid, &rho, &solve_fft(&grid, &rho));
        let want = gaussian_hartree_energy(n as f64 * h, q, sigma);
        assert!(
            ((e - want) / want).abs() < 1e-11,
            "E_H = {e}, closed form {want}"
        );
    }

    /// The multigrid solves the 7-point operator, whose symbol
    /// `Σ (2 − 2cos k_i h)/h²` is `|k|²(1 − O(k²h²))`: its Hartree energy
    /// approaches the same closed form with error ∝ h². Fitted order over
    /// h = L/16, L/24, L/32 on the same charge.
    #[test]
    fn multigrid_hartree_energy_converges_at_second_order() {
        let (l, q, sigma) = (8.0, 1.0, 0.8);
        let want = gaussian_hartree_energy(l, q, sigma);
        let (mut hs, mut errs) = (Vec::new(), Vec::new());
        for n in [16, 24, 32] {
            let h = l / n as f64;
            let (grid, rho) = periodic_gaussian(n, h, q, sigma);
            let (v, cycles) = Multigrid::new(grid).solve(&rho, 1e-11, 80);
            assert!(cycles < 80, "multigrid must converge on {n}³");
            let e = hartree_energy(&grid, &rho, &v);
            hs.push(h);
            errs.push(((e - want) / want).abs());
        }
        let (order, _, r2) = mlmd_numerics::stats::power_law_fit(&hs, &errs);
        assert!(
            (order - 2.0).abs() < 0.2 && r2 > 0.999,
            "fitted order {order} (r² {r2}), relative errors {errs:?}"
        );
        assert!(errs[2] < 1e-2, "finest-grid error {}", errs[2]);
    }

    #[test]
    fn fft_and_multigrid_agree() {
        let grid = Grid3::cubic(16, 0.5);
        let (rho, _) = cosine_source(&grid);
        let v_fft = solve_fft(&grid, &rho);
        let mg = Multigrid::new(grid);
        let (v_mg, _) = mg.solve(&rho, 1e-10, 60);
        // They solve slightly different operators (spectral vs 7-point FD):
        // agreement to O(h²) relative.
        let scale = v_fft.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(max_err(&v_fft, &v_mg) / scale < 0.05);
    }
}
