//! The Ehrenfest inner loop — `N_QD` quantum-dynamics steps per MD step
//! (paper Eq. (2), Sec. V.A.4).
//!
//! Between shadow-handshake points the local potential from QXMD is
//! frozen; within the loop the *electronic* part of the potential (Hartree
//! of the evolving density) can be updated self-consistently with the
//! time-reversible predictor–corrector of ref \[43\]: propagate with `v(t)`
//! to predict `ψ̃`, rebuild the Hartree term from `ρ̃`, then re-propagate
//! from `ψ(t)` with the averaged potential — one corrector pass keeps the
//! scheme second-order and time-reversible.

use mlmd_lfd::density;
use mlmd_lfd::hartree::solve_fft;
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::propagator::QdStep;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_maxwell::source::Drive;
use mlmd_numerics::vec3::Vec3;

/// Settings for the inner loop.
#[derive(Clone, Copy, Debug)]
pub struct EhrenfestConfig {
    /// QD time step Δt_QD (a.u., ~1 attosecond ≈ 0.04 a.u.).
    pub dt_qd: f64,
    /// Steps per MD step (paper: ~100–1,000).
    pub n_qd: usize,
    /// Update the Hartree term self-consistently every step.
    pub self_consistent: bool,
}

impl Default for EhrenfestConfig {
    fn default() -> Self {
        Self {
            dt_qd: 0.05,
            n_qd: 100,
            self_consistent: false,
        }
    }
}

/// Result of one inner loop.
#[derive(Clone, Debug)]
pub struct EhrenfestResult {
    /// Current J(t) sampled at every QD step (x-component).
    pub current_trace: Vec<f64>,
    /// Absorbed energy estimate `−∫J·E dt` (a.u.).
    pub absorbed_energy: f64,
    /// Final vector potential.
    pub a_final: Vec3,
}

impl EhrenfestResult {
    /// Mean of the current trace over the loop (0 for an empty loop) — the
    /// boundary J an MD step reports.
    pub(crate) fn mean_current(&self) -> f64 {
        if self.current_trace.is_empty() {
            0.0
        } else {
            self.current_trace.iter().sum::<f64>() / self.current_trace.len() as f64
        }
    }
}

/// Run `n_qd` QD steps under a time-dependent uniform field.
///
/// `frozen_v` is the QXMD-provided local potential (ions + xc + Hartree at
/// the MD step boundary); `field(t)` returns the laser E(t) at the domain
/// (the vector potential is accumulated internally, velocity gauge).
#[allow(clippy::too_many_arguments)] // physics driver: each argument is a distinct field of the problem
pub fn run_inner_loop(
    qd: &QdStep,
    wf: &mut WaveFunctions,
    occ: &Occupations,
    frozen_v: &[f64],
    mut a: Vec3,
    field: impl Fn(f64) -> Vec3,
    t0: f64,
    cfg: EhrenfestConfig,
) -> EhrenfestResult {
    let grid = wf.grid;
    let mut current_trace = Vec::with_capacity(cfg.n_qd);
    let mut absorbed = 0.0;
    let mut v_eff = frozen_v.to_vec();
    for step in 0..cfg.n_qd {
        let t = t0 + step as f64 * cfg.dt_qd;
        let e_field = field(t);
        // Velocity gauge: A(t+dt) = A(t) − E(t)·dt.
        a -= e_field * cfg.dt_qd;
        if cfg.self_consistent {
            // Predictor: propagate a copy with the current potential.
            let mut predictor = wf.clone();
            qd.step(&mut predictor, &v_eff, a, cfg.dt_qd);
            // Corrector potential: average Hartree of ρ(t) and ρ̃(t+dt).
            let rho_now = density::density(wf, occ);
            let rho_pred = density::density(&predictor, occ);
            let avg: Vec<f64> = rho_now
                .iter()
                .zip(&rho_pred)
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            let vh = solve_fft(&grid, &avg);
            for (v, (f, h)) in v_eff.iter_mut().zip(frozen_v.iter().zip(&vh)) {
                *v = f + h;
            }
        }
        qd.step(wf, &v_eff, a, cfg.dt_qd);
        let j = mlmd_lfd::current::macroscopic_current(wf, occ, a);
        let jt = j.total();
        current_trace.push(jt.x);
        // Joule heating: dE/dt = −J·E × volume.
        let (lx, ly, lz) = grid.lengths();
        absorbed -= jt.dot(e_field) * cfg.dt_qd * (lx * ly * lz);
    }
    EhrenfestResult {
        current_trace,
        absorbed_energy: absorbed,
        a_final: a,
    }
}

/// Convenience: a linearly-polarized drive (any [`Drive`] shape — a
/// bare Gaussian converts in place) as the field closure.
pub fn pulse_field(drive: impl Into<Drive>, polarization: Vec3) -> impl Fn(f64) -> Vec3 {
    let drive = drive.into();
    move |t| polarization * drive.field(t)
}

/// Band-sharded half of the inner loop: propagate only the orbital
/// sub-panel `sub` (the columns `col0..col0 + sub.norb` of the full panel)
/// through all `n_qd` QD steps, recording each owned orbital's raw
/// current term at every step.
///
/// With a frozen potential the split-operator step is exactly
/// column-local, so propagating a sub-panel produces the same orbitals
/// bit-for-bit as propagating them inside the full panel — this is what
/// lets `ShadowDomain::run_md_step_sharded` split the loop over a band
/// group and recombine with allgathers. The self-consistent Hartree
/// update couples the orbitals every QD step and is therefore not
/// shardable this way (the MESH step propagates the full panel
/// redundantly for it).
///
/// The returned terms are laid out owned-column-major
/// (`[local_col * n_qd + step]`), so concatenating the blocks of
/// consecutive ranks yields the orbital-major layout
/// [`fold_inner_loop`] consumes.
#[allow(clippy::too_many_arguments)] // physics driver: mirrors run_inner_loop's signature + the column range
pub(crate) fn propagate_columns(
    qd: &QdStep,
    sub: &mut WaveFunctions,
    occ: &Occupations,
    col0: usize,
    frozen_v: &[f64],
    mut a: Vec3,
    field: impl Fn(f64) -> Vec3,
    t0: f64,
    cfg: EhrenfestConfig,
) -> Vec<mlmd_lfd::current::OrbitalCurrentTerm> {
    assert!(
        !cfg.self_consistent,
        "column sharding requires a frozen Hartree term"
    );
    let ncols = sub.norb;
    let mut terms = vec![mlmd_lfd::current::OrbitalCurrentTerm::default(); ncols * cfg.n_qd];
    for step in 0..cfg.n_qd {
        let t = t0 + step as f64 * cfg.dt_qd;
        let e_field = field(t);
        a -= e_field * cfg.dt_qd;
        if ncols > 0 {
            qd.step(sub, frozen_v, a, cfg.dt_qd);
        }
        for lc in 0..ncols {
            if occ.f(col0 + lc) == 0.0 {
                continue;
            }
            terms[lc * cfg.n_qd + step] =
                mlmd_lfd::current::orbital_current_term(&sub.grid, sub.psi.col(lc));
        }
    }
    terms
}

/// Recombining half of the sharded inner loop: replay the (purely
/// field-driven, wave-function-independent) vector-potential schedule and
/// fold the gathered per-orbital current terms into the serial
/// [`EhrenfestResult`] — trace, absorbed energy, and final `A`.
///
/// `terms` must be orbital-major (`[orbital * n_qd + step]`, all `norb`
/// orbitals). Every float operation matches [`run_inner_loop`]'s
/// non-self-consistent path exactly, so the fold is bit-identical to the
/// monolithic loop.
#[allow(clippy::too_many_arguments)] // physics driver: mirrors run_inner_loop's signature + the term table
pub(crate) fn fold_inner_loop(
    terms: &[mlmd_lfd::current::OrbitalCurrentTerm],
    norb: usize,
    occ: &Occupations,
    grid: &mlmd_numerics::grid::Grid3,
    mut a: Vec3,
    field: impl Fn(f64) -> Vec3,
    t0: f64,
    cfg: EhrenfestConfig,
) -> EhrenfestResult {
    assert_eq!(terms.len(), norb * cfg.n_qd, "need every orbital's trace");
    let mut current_trace = Vec::with_capacity(cfg.n_qd);
    let mut absorbed = 0.0;
    let mut step_terms = vec![mlmd_lfd::current::OrbitalCurrentTerm::default(); norb];
    for step in 0..cfg.n_qd {
        let t = t0 + step as f64 * cfg.dt_qd;
        let e_field = field(t);
        a -= e_field * cfg.dt_qd;
        for (s, slot) in step_terms.iter_mut().enumerate() {
            *slot = terms[s * cfg.n_qd + step];
        }
        let j = mlmd_lfd::current::fold_current_terms(&step_terms, occ, a, grid);
        let jt = j.total();
        current_trace.push(jt.x);
        let (lx, ly, lz) = grid.lengths();
        absorbed -= jt.dot(e_field) * cfg.dt_qd * (lx * ly * lz);
    }
    EhrenfestResult {
        current_trace,
        absorbed_energy: absorbed,
        a_final: a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_maxwell::source::GaussianPulse;
    use mlmd_numerics::grid::Grid3;

    /// Seven plane-wave modes = Γ plus all six ±1 modes: a k-symmetric
    /// occupation set, so linear-in-A terms cancel and the net equilibrium
    /// current vanishes.
    fn setup() -> (QdStep, WaveFunctions, Occupations, Vec<f64>) {
        let grid = Grid3::new(10, 10, 10, 0.5);
        let qd = QdStep::new(grid);
        let wf = WaveFunctions::plane_waves(grid, 7);
        let occ = Occupations::uniform(7, 1.0);
        let vloc = vec![0.0; grid.len()];
        (qd, wf, occ, vloc)
    }

    #[test]
    fn no_field_no_current_no_absorption() {
        let (qd, mut wf, occ, vloc) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 20,
            self_consistent: false,
        };
        let res = run_inner_loop(
            &qd,
            &mut wf,
            &occ,
            &vloc,
            Vec3::ZERO,
            |_| Vec3::ZERO,
            0.0,
            cfg,
        );
        assert!(res.absorbed_energy.abs() < 1e-12);
        assert!(res.a_final.norm() < 1e-15);
        // k-symmetric occupation: zero net current, up to Trotter noise.
        let worst = res
            .current_trace
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(worst < 1e-8, "field-free current must vanish, got {worst}");
    }

    #[test]
    fn field_drives_current_and_absorbs_energy() {
        let (qd, mut wf, occ, vloc) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 120,
            self_consistent: false,
        };
        let pulse = GaussianPulse::new(0.05, 0.4, 2.0, 1.0);
        let res = run_inner_loop(
            &qd,
            &mut wf,
            &occ,
            &vloc,
            Vec3::ZERO,
            pulse_field(pulse, Vec3::EX),
            0.0,
            cfg,
        );
        let peak_j = res
            .current_trace
            .iter()
            .fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(peak_j > 1e-6, "pulse must drive a current, peak {peak_j}");
        assert!(res.a_final.x.abs() > 1e-6, "A must accumulate");
        // Free carriers in a band: the pulse does net positive work.
        assert!(
            res.absorbed_energy > 0.0,
            "absorbed energy {:.3e}",
            res.absorbed_energy
        );
    }

    #[test]
    fn absorption_scales_with_intensity() {
        let (qd, wf, occ, vloc) = setup();
        let run = |e0: f64| -> f64 {
            let mut w = wf.clone();
            // Long enough for the pulse (t0=2, σ=1) to fully pass.
            let cfg = EhrenfestConfig {
                dt_qd: 0.05,
                n_qd: 200,
                self_consistent: false,
            };
            let pulse = GaussianPulse::new(e0, 0.4, 2.0, 1.0);
            run_inner_loop(
                &qd,
                &mut w,
                &occ,
                &vloc,
                Vec3::ZERO,
                pulse_field(pulse, Vec3::EX),
                0.0,
                cfg,
            )
            .absorbed_energy
        };
        let a1 = run(0.02);
        let a2 = run(0.04);
        // Linear response with a k-symmetric occupation: absorption ∝ E².
        let ratio = a2 / a1;
        assert!(
            (ratio - 4.0).abs() < 0.5,
            "expected ~4x absorption at 2x field, got {ratio}"
        );
    }

    #[test]
    fn unitarity_through_inner_loop() {
        let (qd, mut wf, occ, vloc) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 100,
            self_consistent: false,
        };
        let pulse = GaussianPulse::new(0.05, 0.3, 2.0, 1.0);
        run_inner_loop(
            &qd,
            &mut wf,
            &occ,
            &vloc,
            Vec3::ZERO,
            pulse_field(pulse, Vec3::EX),
            0.0,
            cfg,
        );
        assert!(wf.norm_error() < 1e-9, "norm error {}", wf.norm_error());
    }

    #[test]
    fn column_sharded_loop_matches_monolithic_bitwise() {
        // propagate_columns + fold_inner_loop over any column partition
        // must reproduce run_inner_loop exactly: trace, absorbed energy,
        // final vector potential, and the propagated panel itself.
        let (qd, wf, occ, vloc) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 40,
            self_consistent: false,
        };
        let pulse = GaussianPulse::new(0.04, 0.4, 1.0, 0.6);
        let field = pulse_field(pulse, Vec3::EX);
        let mut mono = wf.clone();
        let want = run_inner_loop(&qd, &mut mono, &occ, &vloc, Vec3::ZERO, &field, 0.0, cfg);
        // "Ranks" own columns 0..3 and 3..7.
        let ngrid = wf.ngrid();
        let mut all_terms = Vec::new();
        let mut panel = Vec::new();
        for cols in [0usize..3, 3..7] {
            let mut sub = WaveFunctions::zeros(wf.grid, cols.len());
            sub.psi
                .as_mut_slice()
                .copy_from_slice(&wf.psi.as_slice()[cols.start * ngrid..cols.end * ngrid]);
            let terms = propagate_columns(
                &qd,
                &mut sub,
                &occ,
                cols.start,
                &vloc,
                Vec3::ZERO,
                &field,
                0.0,
                cfg,
            );
            all_terms.extend(terms);
            panel.extend_from_slice(sub.psi.as_slice());
        }
        let got = fold_inner_loop(&all_terms, 7, &occ, &wf.grid, Vec3::ZERO, &field, 0.0, cfg);
        assert_eq!(want.current_trace.len(), got.current_trace.len());
        for (a, b) in want.current_trace.iter().zip(&got.current_trace) {
            assert_eq!(a.to_bits(), b.to_bits(), "current trace must be exact");
        }
        assert_eq!(
            want.absorbed_energy.to_bits(),
            got.absorbed_energy.to_bits()
        );
        assert_eq!(want.a_final.x.to_bits(), got.a_final.x.to_bits());
        for (a, b) in mono.psi.as_slice().iter().zip(&panel) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "panel must be exact");
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn empty_column_range_contributes_nothing() {
        // Surplus ranks (more ranks than orbitals) own empty band ranges;
        // their propagate_columns call must be a no-op with no terms.
        let (qd, wf, occ, vloc) = setup();
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 5,
            self_consistent: false,
        };
        let mut sub = WaveFunctions::zeros(wf.grid, 0);
        let terms = propagate_columns(
            &qd,
            &mut sub,
            &occ,
            7,
            &vloc,
            Vec3::ZERO,
            |_| Vec3::ZERO,
            0.0,
            cfg,
        );
        assert!(terms.is_empty());
    }

    #[test]
    fn self_consistent_variant_runs_and_stays_unitary() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let qd = QdStep::new(grid);
        let mut wf = WaveFunctions::random(grid, 2, 3);
        let occ = Occupations::uniform(2, 2.0);
        let vloc = vec![0.0; grid.len()];
        let cfg = EhrenfestConfig {
            dt_qd: 0.04,
            n_qd: 25,
            self_consistent: true,
        };
        let res = run_inner_loop(
            &qd,
            &mut wf,
            &occ,
            &vloc,
            Vec3::ZERO,
            |_| Vec3::new(0.01, 0.0, 0.0),
            0.0,
            cfg,
        );
        assert!(wf.norm_error() < 1e-9);
        assert_eq!(res.current_trace.len(), 25);
    }
}
