//! Electron density from occupied KS orbitals.
//!
//! `ρ(r) = Σ_s f_s |ψ_s(r)|²` with occupations `f_s ∈ \[0, 2\]`
//! (spin-degenerate). The density is the only wave-function-derived field
//! the Hartree and xc potentials need, and its integral is the electron
//! count (a conserved diagnostic asserted throughout the test suite).

use crate::kin_prop::SplitBlock;
use crate::occupation::Occupations;
use crate::wavefunction::WaveFunctions;

/// Accumulate `ρ(r)` on the wave-function grid.
pub fn density(wf: &WaveFunctions, occ: &Occupations) -> Vec<f64> {
    let mut block = SplitBlock::default();
    block.gather(wf.psi.as_slice(), wf.ngrid());
    let mut rho = vec![0.0; wf.ngrid()];
    block_density(&block, occ, &mut rho);
    rho
}

/// [`density`] of a resident [`SplitBlock`] holding the whole panel
/// (block orbital `s` is band `s`), into `rho`: each point sums
/// `f_s |ψ_s|²` over the occupied bands in band order.
pub fn block_density(block: &SplitBlock, occ: &Occupations, rho: &mut [f64]) {
    let bw = block.width();
    assert_eq!(occ.len(), bw, "occupations/orbitals mismatch");
    assert_eq!(block.re.len(), rho.len() * bw);
    rho.fill(0.0);
    if bw == 0 {
        return;
    }
    for ((r, re), im) in rho
        .iter_mut()
        .zip(block.re.chunks_exact(bw))
        .zip(block.im.chunks_exact(bw))
    {
        for s in 0..bw {
            let f = occ.f(s);
            if f != 0.0 {
                *r += f * (re[s] * re[s] + im[s] * im[s]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::grid::Grid3;

    /// ∫ρ dV — the total electron count.
    fn electron_count(wf: &WaveFunctions, occ: &Occupations) -> f64 {
        density(wf, occ).iter().sum::<f64>() * wf.grid.dv()
    }

    #[test]
    fn integrates_to_electron_count() {
        let grid = Grid3::new(8, 8, 6, 0.4);
        let wf = WaveFunctions::random(grid, 4, 11);
        let occ = Occupations::aufbau(4, 3.0); // 1.5 pairs → f = [2,1,0,0]
        let n = electron_count(&wf, &occ);
        assert!((n - 3.0).abs() < 1e-10, "got {n}");
    }

    #[test]
    fn density_nonnegative() {
        let grid = Grid3::new(6, 6, 6, 0.5);
        let wf = WaveFunctions::random(grid, 3, 2);
        let occ = Occupations::uniform(3, 1.0);
        assert!(density(&wf, &occ).iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn zero_occupation_contributes_nothing() {
        let grid = Grid3::new(6, 6, 6, 0.5);
        let wf = WaveFunctions::random(grid, 2, 3);
        let occ = Occupations::new(vec![2.0, 0.0]);
        let occ_single = Occupations::new(vec![2.0]);
        let wf_single = {
            let mut w = WaveFunctions::zeros(grid, 1);
            w.psi.col_mut(0).copy_from_slice(wf.psi.col(0));
            w
        };
        let a = density(&wf, &occ);
        let b = density(&wf_single, &occ_single);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-15);
        }
    }
}
