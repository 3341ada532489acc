//! The assembled QD step: split-operator propagation of paper Eq. (2).
//!
//! One QD step of `dt` is the symmetric product
//!
//! ```text
//! exp(−i dt v_loc/2) · exp(−i dt T̂(A)) · exp(−i dt v_loc/2) · [nonlocal]
//! ```
//!
//! where the kinetic factor is the block-diagonal `kin_prop` (with the
//! Peierls vector-potential coupling), the local-potential factors are
//! pointwise phases, and the optional nonlocal factor is either the exact
//! Kleinman–Bylander unitary or the paper's Eq. (5) perturbative CGEMM
//! correction. The self-consistent time-reversible scheme of ref \[43\]
//! enters at the DC-MESH level (`mlmd-dcmesh::ehrenfest`), where the
//! potential is updated between steps; within a step the propagator is
//! exactly unitary (up to the perturbative Eq. (5) term).

use crate::kin_prop::{KinProp, SplitBlock};
use crate::nlp_prop::{NlpPrecision, NlpProp};
use crate::occupation::Occupations;
use crate::wavefunction::WaveFunctions;
use mlmd_numerics::complex::c64;
use mlmd_numerics::flops::FlopCounter;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::stencil::{laplacian, Order};
use mlmd_numerics::vec3::Vec3;
use mlmd_numerics::PAR_THRESHOLD;
use rayon::prelude::*;

/// FLOPs per grid point per orbital of one local-phase application
/// (one complex multiply plus the phase table lookup).
pub const FLOPS_PER_VLOC_POINT: u64 = 6;

/// A planned QD stepper for one domain.
pub struct QdStep {
    pub kin: KinProp,
    /// Optional Eq. (5) nonlocal correction.
    pub nlp: Option<NlpProp>,
    /// Precision of the nonlocal CGEMMs.
    pub nlp_precision: NlpPrecision,
    pub flops: FlopCounter,
}

impl QdStep {
    pub fn new(grid: Grid3) -> Self {
        Self {
            kin: KinProp::new(grid),
            nlp: None,
            nlp_precision: NlpPrecision::F64,
            flops: FlopCounter::new(),
        }
    }

    /// Install the Eq. (5) correction with reference panel `psi0`.
    pub fn with_nlp(mut self, psi0: &WaveFunctions, delta: c64, prec: NlpPrecision) -> Self {
        self.nlp = Some(NlpProp::new(psi0, delta));
        self.nlp_precision = prec;
        self
    }

    /// Pointwise local-potential phase `ψ ← e^{−i dt v(r)} ψ`, over
    /// orbitals (each orbital is a contiguous column) on the pool once the
    /// panel reaches [`PAR_THRESHOLD`] points.
    pub fn apply_vloc(&self, wf: &mut WaveFunctions, vloc: &[f64], dt: f64) {
        assert_eq!(vloc.len(), wf.ngrid());
        let norb = wf.norb as u64;
        self.flops
            .add(FLOPS_PER_VLOC_POINT * wf.ngrid() as u64 * norb);
        let ngrid = wf.ngrid();
        // Precompute the phase table once, reuse for all orbitals
        // (the same coefficient-reuse idea as Sec. V.B.2).
        let phases: Vec<c64> = vloc.iter().map(|&v| c64::cis(-dt * v)).collect();
        let apply = |col: &mut [c64]| {
            for (z, p) in col.iter_mut().zip(&phases) {
                *z *= *p;
            }
        };
        let panel = wf.psi.as_mut_slice();
        if panel.len() >= PAR_THRESHOLD {
            panel.par_chunks_mut(ngrid).for_each(apply);
        } else {
            panel.chunks_mut(ngrid).for_each(apply);
        }
    }

    /// The half-step local phase table `cis(−(½dt)·v)` of a QD step of
    /// `dt`, written into `out` (its storage is reused).
    pub fn half_step_phases(vloc: &[f64], dt: f64, out: &mut Vec<c64>) {
        let half = 0.5 * dt;
        out.clear();
        out.extend(vloc.iter().map(|&v| c64::cis(-half * v)));
    }

    /// One symmetric QD step of `dt` on a resident [`SplitBlock`]: local
    /// phase, kinetic sweeps, local phase, with `phase` the
    /// [`Self::half_step_phases`] table. No nonlocal term; no allocation.
    pub fn step_block(&self, block: &mut SplitBlock, phase: &[c64], a: Vec3, dt: f64) {
        let (ngrid, bw) = (phase.len() as u64, block.width());
        self.flops.add(2 * FLOPS_PER_VLOC_POINT * ngrid * bw as u64);
        self.flops.add(self.kin.flops_per_steps(bw, 1));
        block.apply_phase(phase);
        self.kin.step_split(block, dt, a);
        block.apply_phase(phase);
    }

    /// One symmetric QD step under frozen `vloc` and uniform vector
    /// potential `a`: the panel is gathered into one block, stepped, and
    /// scattered back, then the nonlocal term (if installed) is applied.
    pub fn step(&self, wf: &mut WaveFunctions, vloc: &[f64], a: Vec3, dt: f64) {
        assert_eq!(vloc.len(), wf.ngrid());
        let mut phase = Vec::with_capacity(vloc.len());
        Self::half_step_phases(vloc, dt, &mut phase);
        let mut block = SplitBlock::default();
        block.gather(wf.psi.as_slice(), wf.ngrid());
        self.step_block(&mut block, &phase, a, dt);
        block.scatter(wf.psi.as_mut_slice());
        if let Some(nlp) = &self.nlp {
            nlp.apply(wf, self.nlp_precision, &self.flops);
        }
    }

    /// Total energy `Σ_s f_s [⟨ψ_s|T̂|ψ_s⟩ + ⟨ψ_s|v_loc|ψ_s⟩]` with the FD
    /// kinetic operator (matches the propagator's discretization).
    pub fn energy(&self, wf: &WaveFunctions, vloc: &[f64], occ: &Occupations) -> f64 {
        let grid = wf.grid;
        let dv = grid.dv();
        let ngrid = wf.ngrid();
        let mut e = 0.0;
        let mut re = vec![0.0; ngrid];
        let mut im = vec![0.0; ngrid];
        let mut lap_re = vec![0.0; ngrid];
        let mut lap_im = vec![0.0; ngrid];
        for s in 0..wf.norb {
            let f = occ.f(s);
            if f == 0.0 {
                continue;
            }
            let col = wf.psi.col(s);
            for (idx, z) in col.iter().enumerate() {
                re[idx] = z.re;
                im[idx] = z.im;
            }
            laplacian(&grid, &re, &mut lap_re, Order::Second);
            laplacian(&grid, &im, &mut lap_im, Order::Second);
            let mut kin = 0.0;
            let mut pot = 0.0;
            for idx in 0..ngrid {
                // ⟨ψ|−½∇²|ψ⟩ = −½ (re·∇²re + im·∇²im)
                kin -= 0.5 * (re[idx] * lap_re[idx] + im[idx] * lap_im[idx]);
                pot += vloc[idx] * (re[idx] * re[idx] + im[idx] * im[idx]);
            }
            e += f * (kin + pot) * dv;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harmonic_vloc(grid: &Grid3, k: f64) -> Vec<f64> {
        // Periodicized harmonic well centred in the box.
        let (lx, ly, lz) = grid.lengths();
        let c = Vec3::new(lx / 2.0, ly / 2.0, lz / 2.0);
        let mut v = vec![0.0; grid.len()];
        for kk in 0..grid.nz {
            for j in 0..grid.ny {
                for i in 0..grid.nx {
                    let (x, y, z) = grid.position(i, j, kk);
                    let d = (Vec3::new(x, y, z) - c).min_image(Vec3::new(lx, ly, lz));
                    v[grid.idx(i, j, kk)] = 0.5 * k * d.norm_sqr();
                }
            }
        }
        v
    }

    #[test]
    fn full_step_is_unitary() {
        let grid = Grid3::new(10, 10, 10, 0.5);
        let qd = QdStep::new(grid);
        let vloc = harmonic_vloc(&grid, 0.5);
        let mut wf = WaveFunctions::random(grid, 4, 17);
        for _ in 0..40 {
            qd.step(&mut wf, &vloc, Vec3::new(0.1, 0.0, 0.0), 0.02);
        }
        assert!(wf.norm_error() < 1e-10, "norm error {}", wf.norm_error());
    }

    #[test]
    fn empty_panel_step_is_a_no_op() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let qd = QdStep::new(grid);
        let mut wf = WaveFunctions::zeros(grid, 0);
        qd.step(
            &mut wf,
            &harmonic_vloc(&grid, 0.5),
            Vec3::new(0.1, 0.0, 0.0),
            0.02,
        );
        assert_eq!(wf.psi.as_slice().len(), 0);
        assert_eq!(qd.flops.total(), 0);
    }

    #[test]
    fn time_reversibility() {
        // Symmetric split-operator: stepping +dt then −dt restores the state.
        let grid = Grid3::new(8, 8, 8, 0.5);
        let qd = QdStep::new(grid);
        let vloc = harmonic_vloc(&grid, 1.0);
        let mut wf = WaveFunctions::random(grid, 3, 5);
        let original = wf.clone();
        for _ in 0..5 {
            qd.step(&mut wf, &vloc, Vec3::ZERO, 0.04);
        }
        for _ in 0..5 {
            qd.step(&mut wf, &vloc, Vec3::ZERO, -0.04);
        }
        assert!(
            wf.psi.max_abs_diff(&original.psi) < 1e-11,
            "time reversal must restore the state"
        );
    }

    #[test]
    fn energy_conserved_in_static_potential() {
        let grid = Grid3::new(10, 10, 10, 0.5);
        let qd = QdStep::new(grid);
        let vloc = harmonic_vloc(&grid, 0.8);
        let occ = Occupations::uniform(3, 2.0);
        let mut wf = WaveFunctions::random(grid, 3, 23);
        let e0 = qd.energy(&wf, &vloc, &occ);
        for _ in 0..100 {
            qd.step(&mut wf, &vloc, Vec3::ZERO, 0.01);
        }
        let e1 = qd.energy(&wf, &vloc, &occ);
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 1e-3, "energy drift {drift} (E {e0} → {e1})");
    }

    #[test]
    fn vloc_phase_only_changes_phase() {
        let grid = Grid3::new(8, 8, 8, 0.4);
        let qd = QdStep::new(grid);
        let vloc = harmonic_vloc(&grid, 0.3);
        let mut wf = WaveFunctions::random(grid, 2, 3);
        let dens_before: Vec<f64> = wf.psi.col(0).iter().map(|z| z.norm_sqr()).collect();
        qd.apply_vloc(&mut wf, &vloc, 0.1);
        let dens_after: Vec<f64> = wf.psi.col(0).iter().map(|z| z.norm_sqr()).collect();
        for (a, b) in dens_before.iter().zip(&dens_after) {
            assert!((a - b).abs() < 1e-14, "local phase must preserve density");
        }
    }

    #[test]
    fn nlp_integration_in_step() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let wf0 = WaveFunctions::random(grid, 3, 1);
        let qd = QdStep::new(grid).with_nlp(&wf0, c64::new(0.0, -0.01), NlpPrecision::F32);
        let vloc = harmonic_vloc(&grid, 0.5);
        let mut wf = wf0.clone();
        for _ in 0..10 {
            qd.step(&mut wf, &vloc, Vec3::ZERO, 0.02);
        }
        // Perturbative correction: norms stay near 1 (not exactly).
        assert!(wf.norm_error() < 1e-2);
        assert!(qd.flops.total() > 0);
    }

    #[test]
    fn flop_counter_accumulates_all_kernels() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let qd = QdStep::new(grid);
        let vloc = vec![0.0; grid.len()];
        let mut wf = WaveFunctions::random(grid, 2, 2);
        qd.step(&mut wf, &vloc, Vec3::ZERO, 0.01);
        let expected_min =
            qd.kin.flops_per_steps(2, 1) + 2 * FLOPS_PER_VLOC_POINT * grid.len() as u64 * 2;
        assert!(qd.flops.total() >= expected_min);
    }
}
