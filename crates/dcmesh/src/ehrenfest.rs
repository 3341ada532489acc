//! The Ehrenfest inner loop — `N_QD` quantum-dynamics steps per MD step
//! (paper Eq. (2), Sec. V.A.4) — written once, over a domain communicator.
//!
//! Between shadow-handshake points the local potential from QXMD is
//! frozen, and the split-operator step under a frozen potential is exactly
//! column-local. So the loop is written in column-block form: compute the
//! field-driven `A(t)`/`E(t)` schedule, propagate this rank's
//! `partition(norb, size, rank)` block of orbitals through every QD step
//! recording each orbital's raw current term, gather panel and terms once,
//! and fold in band order. Every per-orbital value is computed exactly as
//! on one rank and no float sum is reordered, so the result is
//! bit-identical at any rank count; [`run_inner_loop`] is the loop with no
//! communicator — one block, the whole panel, no collective.
//!
//! The loop is block-major (paper Secs. V.B.2–V.B.4 carried across kernel
//! boundaries): the `cis(−(½dt)·v)` phase table is built once, and each
//! block of at most `KinProp::block` orbitals is gathered once into a
//! split re/im [`SplitBlock`], runs phase, kinetic sweeps, phase and its
//! current terms for every QD step in place, and is scattered once. The
//! blocks go to the pool only when `N_grid·N_orb` reaches
//! [`PAR_THRESHOLD`]; below it they run serially. Nothing allocates or
//! dispatches per QD step.
//!
//! Within the loop the *electronic* part of the potential (Hartree of the
//! evolving density) can be updated self-consistently with the
//! time-reversible predictor–corrector of ref \[43\]: propagate with `v(t)`
//! to predict `ψ̃`, rebuild the Hartree term from `ρ̃`, then re-propagate
//! from `ψ(t)` with the averaged potential — one corrector pass keeps the
//! scheme second-order and time-reversible. That update couples the
//! orbitals every QD step, so under `self_consistent` the whole panel is
//! one block on every rank, run step-major: predictor and densities come
//! from the block and the phase table is rebuilt per step. An installed
//! nonlocal term (`QdStep::nlp`, applied to the whole panel) takes the same
//! path.

use mlmd_lfd::current::{block_current_terms, fold_current_terms, OrbitalCurrentTerm};
use mlmd_lfd::density::block_density;
use mlmd_lfd::hartree::solve_fft;
use mlmd_lfd::kin_prop::SplitBlock;
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::propagator::QdStep;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_maxwell::source::GaussianPulse;
use mlmd_numerics::complex::c64;
use mlmd_numerics::vec3::Vec3;
use mlmd_numerics::PAR_THRESHOLD;
use mlmd_parallel::comm::Comm;
use mlmd_parallel::hier::partition;
use rayon::prelude::*;

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

/// Run `n_qd` QD steps under a time-dependent uniform field, on this rank
/// alone.
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
    a: Vec3,
    field: impl Fn(f64) -> Vec3,
    t0: f64,
    cfg: EhrenfestConfig,
) -> EhrenfestResult {
    inner_loop_in(None, qd, wf, occ, frozen_v, a, field, t0, cfg)
}

/// [`run_inner_loop`] over the ranks of `domain`, each holding a replica
/// of `wf`: every rank returns the same result and ends with the same
/// propagated panel, bit-identical to the no-communicator call.
#[allow(clippy::too_many_arguments)] // run_inner_loop's signature + the communicator
pub(crate) fn inner_loop_in(
    domain: Option<&Comm>,
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
    let (norb, ngrid, n_qd) = (wf.norb, wf.ngrid(), cfg.n_qd);
    // (E, A) at every QD step. Velocity gauge: A(t+dt) = A(t) − E(t)·dt.
    let schedule: Vec<(Vec3, Vec3)> = (0..n_qd)
        .map(|step| {
            let e_field = field(t0 + step as f64 * cfg.dt_qd);
            a -= e_field * cfg.dt_qd;
            (e_field, a)
        })
        .collect();
    // The self-consistent update and the nonlocal term couple the orbitals
    // every QD step: the whole panel is one block, on every rank.
    let step_major = cfg.self_consistent || qd.nlp.is_some();
    let domain = domain.filter(|d| d.size() > 1 && !step_major);
    let cols = domain.map_or(0..norb, |d| partition(norb, d.size(), d.rank()));
    // Owned-column-major (`[local_col * n_qd + step]`), so the blocks of
    // consecutive ranks concatenate into the orbital-major table.
    let mut terms = vec![OrbitalCurrentTerm::default(); cols.len() * n_qd];
    if step_major {
        step_major_loop(qd, wf, occ, frozen_v, &schedule, cfg, &mut terms);
    } else if n_qd > 0 {
        let mut phase = Vec::with_capacity(ngrid);
        QdStep::half_step_phases(frozen_v, cfg.dt_qd, &mut phase);
        // One block: gathered once, through every QD step, scattered once.
        let run = |(cols, terms): (&mut [c64], &mut [OrbitalCurrentTerm])| {
            let mut block = SplitBlock::default();
            block.gather(cols, ngrid);
            let mut step_terms = vec![OrbitalCurrentTerm::default(); block.width()];
            for (step, &(_, a)) in schedule.iter().enumerate() {
                qd.step_block(&mut block, &phase, a, cfg.dt_qd);
                block_current_terms(&grid, &block, &mut step_terms);
                for (s, &t) in step_terms.iter().enumerate() {
                    terms[s * n_qd + step] = t;
                }
            }
            block.scatter(cols);
        };
        // A surplus rank (more ranks than orbitals) owns no block.
        let bs = qd.kin.block.max(1);
        let blocks = wf.psi.as_mut_slice()[cols.start * ngrid..cols.end * ngrid]
            .chunks_mut(bs * ngrid)
            .zip(terms.chunks_mut(bs * n_qd));
        if cols.len() * ngrid >= PAR_THRESHOLD {
            blocks.into_par_iter().for_each(run);
        } else {
            blocks.for_each(run);
        }
    }
    if let Some(d) = domain {
        // Contiguous column blocks in domain-rank order: the concatenation
        // *is* the column-major panel.
        let owned = wf.psi.as_slice()[cols.start * ngrid..cols.end * ngrid].to_vec();
        let panel = d.allgather_vec(owned);
        wf.psi.as_mut_slice().copy_from_slice(&panel);
        terms = d.allgather_vec(terms);
    }
    let (lx, ly, lz) = grid.lengths();
    let mut current_trace = Vec::with_capacity(n_qd);
    let mut absorbed = 0.0;
    let mut step_terms = vec![OrbitalCurrentTerm::default(); norb];
    for (step, &(e_field, a)) in schedule.iter().enumerate() {
        for (s, slot) in step_terms.iter_mut().enumerate() {
            *slot = terms[s * n_qd + step];
        }
        let jt = fold_current_terms(&step_terms, occ, a, &grid).total();
        current_trace.push(jt.x);
        // Joule heating: dE/dt = −J·E × volume.
        absorbed -= jt.dot(e_field) * cfg.dt_qd * (lx * ly * lz);
    }
    EhrenfestResult {
        current_trace,
        absorbed_energy: absorbed,
        a_final: a,
    }
}

/// The loop with the whole panel as one resident block, step-major: under
/// `self_consistent` each step first propagates a predictor copy of the
/// block, rebuilds the Hartree term from the average of the block's and
/// the predictor's densities, and rebuilds the phase table; an installed
/// nonlocal term is applied after every block step through `wf`.
fn step_major_loop(
    qd: &QdStep,
    wf: &mut WaveFunctions,
    occ: &Occupations,
    frozen_v: &[f64],
    schedule: &[(Vec3, Vec3)],
    cfg: EhrenfestConfig,
    terms: &mut [OrbitalCurrentTerm],
) {
    let grid = wf.grid;
    let (ngrid, n_qd) = (wf.ngrid(), cfg.n_qd);
    let mut block = SplitBlock::default();
    block.gather(wf.psi.as_slice(), ngrid);
    let mut predictor = SplitBlock::default();
    let mut v_eff = frozen_v.to_vec();
    let mut phase = Vec::with_capacity(ngrid);
    QdStep::half_step_phases(&v_eff, cfg.dt_qd, &mut phase);
    let (mut rho_now, mut rho_pred) = (vec![0.0; ngrid], vec![0.0; ngrid]);
    let mut step_terms = vec![OrbitalCurrentTerm::default(); block.width()];
    let mut full_step = |block: &mut SplitBlock, phase: &[c64], a: Vec3| {
        qd.step_block(block, phase, a, cfg.dt_qd);
        if let Some(nlp) = &qd.nlp {
            block.scatter(wf.psi.as_mut_slice());
            nlp.apply(wf, qd.nlp_precision, &qd.flops);
            block.gather(wf.psi.as_slice(), ngrid);
        }
    };
    for (step, &(_, a)) in schedule.iter().enumerate() {
        if cfg.self_consistent {
            // Predictor: propagate a copy with the current potential.
            predictor.clone_from(&block);
            full_step(&mut predictor, &phase, a);
            // Corrector potential: average Hartree of ρ(t) and ρ̃(t+dt).
            block_density(&block, occ, &mut rho_now);
            block_density(&predictor, occ, &mut rho_pred);
            let avg: Vec<f64> = rho_now
                .iter()
                .zip(&rho_pred)
                .map(|(a, b)| 0.5 * (a + b))
                .collect();
            let vh = solve_fft(&grid, &avg);
            for (v, (f, h)) in v_eff.iter_mut().zip(frozen_v.iter().zip(&vh)) {
                *v = f + h;
            }
            QdStep::half_step_phases(&v_eff, cfg.dt_qd, &mut phase);
        }
        full_step(&mut block, &phase, a);
        block_current_terms(&grid, &block, &mut step_terms);
        for (s, &t) in step_terms.iter().enumerate() {
            terms[s * n_qd + step] = t;
        }
    }
    block.scatter(wf.psi.as_mut_slice());
}

/// Convenience: a linearly-polarized Gaussian pulse as the field closure.
pub fn pulse_field(pulse: GaussianPulse, polarization: Vec3) -> impl Fn(f64) -> Vec3 {
    move |t| polarization * pulse.field(t)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Every `f64` of a result by bit pattern.
    fn result_digest(res: &EhrenfestResult) -> u64 {
        let mut d = mlmd_numerics::codec::Fnv64::new();
        for j in &res.current_trace {
            d.write_f64(*j);
        }
        d.write_f64(res.absorbed_energy);
        for c in [res.a_final.x, res.a_final.y, res.a_final.z] {
            d.write_f64(c);
        }
        d.finish()
    }

    fn probe_pulse() -> impl Fn(f64) -> Vec3 {
        pulse_field(GaussianPulse::new(0.04, 0.4, 1.0, 0.6), Vec3::EX)
    }

    #[test]
    fn golden_digests_pin_the_loop_to_its_predecessors() {
        // Captured from the per-step monolithic loop (`macroscopic_current`
        // inside the QD loop) before the column-block form replaced it.
        for (self_consistent, n_qd, want_result, want_panel) in [
            (false, 40, 0xc77a9bcfb44a24c4u64, 0x81f201809a654784u64),
            (true, 12, 0x2c0fa51d59c66a7a, 0xd7a5766d7beadbc5),
        ] {
            let (qd, mut wf, occ, vloc) = setup();
            let cfg = EhrenfestConfig {
                dt_qd: 0.05,
                n_qd,
                self_consistent,
            };
            let res = run_inner_loop(
                &qd,
                &mut wf,
                &occ,
                &vloc,
                Vec3::ZERO,
                probe_pulse(),
                0.0,
                cfg,
            );
            assert_eq!(result_digest(&res), want_result, "sc={self_consistent}");
            assert_eq!(wf.panel_digest(), want_panel, "sc={self_consistent}");
        }
    }

    /// The loop inside a World of 1–4 ranks must reproduce the
    /// no-communicator call exactly on every rank: trace, absorbed
    /// energy, final vector potential, and the propagated panel.
    fn assert_partition_invariant(norb: usize) {
        use mlmd_parallel::comm::World;
        let grid = Grid3::new(10, 10, 10, 0.5);
        let vloc = vec![0.0; grid.len()];
        let cfg = EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 12,
            self_consistent: false,
        };
        let wf = WaveFunctions::plane_waves(grid, norb);
        let occ = Occupations::uniform(norb, 1.0);
        let run = |domain: Option<&Comm>| {
            let mut w = wf.clone();
            let qd = QdStep::new(grid);
            let res = inner_loop_in(
                domain,
                &qd,
                &mut w,
                &occ,
                &vloc,
                Vec3::ZERO,
                probe_pulse(),
                0.0,
                cfg,
            );
            (result_digest(&res), w.panel_digest())
        };
        let want = run(None);
        for ranks in 1..=4 {
            for got in World::run(ranks, |domain| run(Some(&domain))) {
                assert_eq!(got, want, "{norb} orbitals over {ranks} ranks");
            }
        }
    }

    #[test]
    fn loop_is_invariant_under_the_column_partition() {
        // Seven orbitals: 4/3 at two ranks, 3/2/2 at three, 2/2/2/1 at four.
        assert_partition_invariant(7);
    }

    #[test]
    fn empty_column_range_contributes_nothing() {
        // Two orbitals leave the surplus ranks of a 3- or 4-rank domain an
        // empty block: no propagation, no terms, same result.
        assert_partition_invariant(2);
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
