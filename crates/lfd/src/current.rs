//! Macroscopic electric current from the orbital panel (TDCDFT, ref \[52\]).
//!
//! The current density couples the electron dynamics back into Maxwell's
//! equations (paper Sec. V.B.5: "GEMMification is applied to nonlocal
//! correction in energy and electric current, with the latter used in
//! Maxwell's equations"). For the multiscale coupling only the cell-average
//! matters:
//!
//! ```text
//! J = (1/V) Σ_s f_s ∫ [ Im(ψ_s* ∇ψ_s) + A |ψ_s|² ] dV
//!   = paramagnetic + diamagnetic
//! ```

use crate::kin_prop::SplitBlock;
use crate::occupation::Occupations;
use crate::wavefunction::WaveFunctions;
use mlmd_numerics::complex::c64;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;

/// Macroscopic current: paramagnetic and diamagnetic parts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Current {
    pub paramagnetic: Vec3,
    pub diamagnetic: Vec3,
}

impl Current {
    pub fn total(&self) -> Vec3 {
        self.paramagnetic + self.diamagnetic
    }
}

/// One orbital's raw (occupation-unweighted) contribution to the
/// macroscopic current: the grid sum of `Im(ψ* ∇ψ)` and of `|ψ|²`.
///
/// Orbitals are independent, so the DC-MESH band tier shards this kernel
/// over ranks and [`fold_current_terms`] recombines the gathered terms in
/// orbital order — every value is computed exactly as in the serial path,
/// so sharding is bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OrbitalCurrentTerm {
    /// Σ_r Im(ψ* ∇ψ) (raw grid sum, no `f` weight, no dV).
    pub paramagnetic: Vec3,
    /// Σ_r |ψ|² (raw grid sum).
    pub norm_sqr: f64,
}

/// Every orbital's [`OrbitalCurrentTerm`] on `grid` (periodic central
/// differences for the gradient), straight from a resident [`SplitBlock`]
/// into `out` (one per block orbital). Each orbital's sums run over the
/// grid in index order whatever the block width, so a term does not depend
/// on which block its orbital sits in.
pub fn block_current_terms(grid: &Grid3, block: &SplitBlock, out: &mut [OrbitalCurrentTerm]) {
    let bw = block.width();
    assert_eq!(out.len(), bw);
    assert_eq!(block.re.len(), grid.len() * bw);
    out.fill(OrbitalCurrentTerm::default());
    let inv_2h = 0.5 / grid.h;
    let run = |g: usize| (&block.re[g * bw..][..bw], &block.im[g * bw..][..bw]);
    for k in 0..grid.nz {
        let kp = (k + 1) % grid.nz;
        let km = (k + grid.nz - 1) % grid.nz;
        for j in 0..grid.ny {
            let jp = (j + 1) % grid.ny;
            let jm = (j + grid.ny - 1) % grid.ny;
            for i in 0..grid.nx {
                let ip = (i + 1) % grid.nx;
                let im = (i + grid.nx - 1) % grid.nx;
                let (zr, zi) = run(grid.idx(i, j, k));
                let (xpr, xpi) = run(grid.idx(ip, j, k));
                let (xmr, xmi) = run(grid.idx(im, j, k));
                let (ypr, ypi) = run(grid.idx(i, jp, k));
                let (ymr, ymi) = run(grid.idx(i, jm, k));
                let (zpr, zpi) = run(grid.idx(i, j, kp));
                let (zmr, zmi) = run(grid.idx(i, j, km));
                for (s, t) in out.iter_mut().enumerate() {
                    let z = c64::new(zr[s], zi[s]);
                    let gx = c64::new((xpr[s] - xmr[s]) * inv_2h, (xpi[s] - xmi[s]) * inv_2h);
                    let gy = c64::new((ypr[s] - ymr[s]) * inv_2h, (ypi[s] - ymi[s]) * inv_2h);
                    let gz = c64::new((zpr[s] - zmr[s]) * inv_2h, (zpi[s] - zmi[s]) * inv_2h);
                    t.paramagnetic +=
                        Vec3::new(im_conj_mul(z, gx), im_conj_mul(z, gy), im_conj_mul(z, gz));
                    t.norm_sqr += z.norm_sqr();
                }
            }
        }
    }
}

/// Recombine per-orbital terms (indexed by orbital, in band order) into
/// the macroscopic [`Current`] for vector potential `a`. Orbitals with
/// `f = 0` are skipped exactly as in the monolithic path, so their terms
/// may be left at `Default`.
pub fn fold_current_terms(
    terms: &[OrbitalCurrentTerm],
    occ: &Occupations,
    a: Vec3,
    grid: &Grid3,
) -> Current {
    assert_eq!(terms.len(), occ.len());
    let (lx, ly, lz) = grid.lengths();
    let volume = lx * ly * lz;
    let mut para = Vec3::ZERO;
    let mut n_electrons = 0.0;
    for (s, t) in terms.iter().enumerate() {
        let f = occ.f(s);
        if f == 0.0 {
            continue;
        }
        para += t.paramagnetic * (f * grid.dv());
        n_electrons += f * t.norm_sqr * grid.dv();
    }
    Current {
        paramagnetic: para / volume,
        diamagnetic: a * (n_electrons / volume),
    }
}

/// Compute the cell-averaged current for vector potential `a`: the fold
/// of every orbital's [`block_current_terms`] — the exact kernel pair the
/// distributed MESH driver shards over ranks.
pub fn macroscopic_current(wf: &WaveFunctions, occ: &Occupations, a: Vec3) -> Current {
    assert_eq!(occ.len(), wf.norb);
    let mut block = SplitBlock::default();
    block.gather(wf.psi.as_slice(), wf.ngrid());
    let mut terms = vec![OrbitalCurrentTerm::default(); wf.norb];
    block_current_terms(&wf.grid, &block, &mut terms);
    fold_current_terms(&terms, occ, a, &wf.grid)
}

/// Im(z* w).
#[inline]
fn im_conj_mul(z: c64, w: c64) -> f64 {
    z.re * w.im - z.im * w.re
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_state_carries_no_current() {
        let grid = Grid3::new(10, 10, 10, 0.5);
        let wf = WaveFunctions::plane_waves(grid, 1); // k = 0
        let occ = Occupations::uniform(1, 2.0);
        let j = macroscopic_current(&wf, &occ, Vec3::ZERO);
        assert!(j.total().norm() < 1e-12);
    }

    #[test]
    fn plane_wave_carries_its_group_velocity() {
        let grid = Grid3::new(16, 16, 16, 0.5);
        let wf = WaveFunctions::plane_waves(grid, 2);
        let occ = Occupations::new(vec![0.0, 1.0]); // occupy the k≠0 mode only
        let j = macroscopic_current(&wf, &occ, Vec3::ZERO);
        // Mode 1 is (−1,0,0): k = −2π/L x̂; central-difference gradient gives
        // sin(k h)/h instead of k (FD dispersion).
        let (lx, _, _) = grid.lengths();
        let kx = -2.0 * std::f64::consts::PI / lx;
        let v_fd = (kx * grid.h).sin() / grid.h;
        let expect = v_fd / (lx * lx * lx) * (lx * lx * lx); // ρ=1/V, J = v/V·∫|ψ|²dV = v/V
        let _ = expect;
        assert!(
            (j.paramagnetic.x - v_fd / (lx * lx * lx) * 1.0).abs() < 1e-10,
            "J_x = {} vs v_fd/V = {}",
            j.paramagnetic.x,
            v_fd / (lx * lx * lx)
        );
        assert!(j.paramagnetic.y.abs() < 1e-12);
    }

    #[test]
    fn diamagnetic_term_proportional_to_a_and_density() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let wf = WaveFunctions::plane_waves(grid, 1);
        let occ = Occupations::uniform(1, 2.0);
        let a = Vec3::new(0.3, 0.0, -0.1);
        let j = macroscopic_current(&wf, &occ, a);
        let (lx, ly, lz) = grid.lengths();
        let v = lx * ly * lz;
        let expect = a * (2.0 / v);
        assert!((j.diamagnetic - expect).norm() < 1e-10);
    }

    #[test]
    fn sharded_terms_fold_to_the_monolithic_current() {
        // The DC-MESH band tier computes orbital terms on different ranks
        // and folds the gathered vector: any column partition must
        // reproduce the monolithic current bit-for-bit.
        let grid = Grid3::new(8, 8, 8, 0.5);
        let wf = WaveFunctions::random(grid, 5, 9);
        let occ = Occupations::new(vec![2.0, 1.5, 0.0, 0.5, 1.0]);
        let a = Vec3::new(0.1, -0.2, 0.05);
        let want = macroscopic_current(&wf, &occ, a);
        // "Rank 0" owns orbitals 0..2, "rank 1" owns 2..5.
        let mut terms = vec![OrbitalCurrentTerm::default(); 5];
        let mut block = SplitBlock::default();
        for cols in [0..2usize, 2..5] {
            block.gather(
                &wf.psi.as_slice()[cols.start * grid.len()..cols.end * grid.len()],
                grid.len(),
            );
            block_current_terms(&grid, &block, &mut terms[cols]);
        }
        let got = fold_current_terms(&terms, &occ, a, &grid);
        assert_eq!(got.paramagnetic.x.to_bits(), want.paramagnetic.x.to_bits());
        assert_eq!(got.paramagnetic.y.to_bits(), want.paramagnetic.y.to_bits());
        assert_eq!(got.paramagnetic.z.to_bits(), want.paramagnetic.z.to_bits());
        assert_eq!(got.diamagnetic.x.to_bits(), want.diamagnetic.x.to_bits());
    }

    #[test]
    fn occupation_weighting_is_linear() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let wf = WaveFunctions::plane_waves(grid, 2);
        let j1 = macroscopic_current(&wf, &Occupations::new(vec![0.0, 1.0]), Vec3::ZERO);
        let j2 = macroscopic_current(&wf, &Occupations::new(vec![0.0, 2.0]), Vec3::ZERO);
        assert!((j2.paramagnetic - j1.paramagnetic * 2.0).norm() < 1e-12);
    }
}
