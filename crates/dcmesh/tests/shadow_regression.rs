//! Deterministic-seed regression tests for the shadow-dynamics invariants
//! of Sec. V.A.3: unitarity of the device-resident propagation, the
//! zero-field energy-drift bound of the shadow Hamiltonian, and the
//! O(occupations) handshake payload.

use mlmd_dcmesh::ehrenfest::EhrenfestConfig;
use mlmd_dcmesh::shadow::ShadowDomain;
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;
use mlmd_parallel::device::TransferLedger;
use std::sync::Arc;

const SEED: u64 = 0x5eed_2025;

fn domain(ledger: Arc<TransferLedger>) -> ShadowDomain {
    let grid = Grid3::new(8, 8, 8, 0.5);
    let norb = 6;
    let wf = WaveFunctions::random(grid, norb, SEED);
    let occ = Occupations::aufbau(norb, 3.0);
    let vloc: Vec<f64> = (0..grid.len()).map(|i| 0.05 * ((i % 9) as f64)).collect();
    ShadowDomain::new(wf, occ, &vloc, ledger)
}

fn cfg() -> EhrenfestConfig {
    EhrenfestConfig {
        dt_qd: 0.05,
        n_qd: 20,
        self_consistent: false,
    }
}

#[test]
fn dark_shadow_dynamics_has_bounded_energy_drift() {
    let ledger = Arc::new(TransferLedger::new());
    let mut dom = domain(ledger);
    let mut total_absorbed = 0.0;
    for step in 0..5 {
        let (report, result) = dom.run_md_step(None, |_t| Vec3::ZERO, step as f64, cfg());
        total_absorbed += result.absorbed_energy;
        assert!(
            report.n_exc.abs() < 1e-9,
            "dark run must not excite, step {step}: {}",
            report.n_exc
        );
    }
    // Shadow-Hamiltonian drift bound: with E(t) = 0 the absorbed energy
    // -int J.E dt is identically zero up to round-off.
    assert!(
        total_absorbed.abs() < 1e-9,
        "zero-field energy drift: {total_absorbed}"
    );
    // The device-resident wave functions stay unitary through 100 QD steps.
    let wf = dom.wavefunctions();
    assert!(wf.norm_error() < 1e-9, "norm error {}", wf.norm_error());
}

#[test]
fn driven_shadow_dynamics_is_seed_deterministic() {
    let run = || {
        let ledger = Arc::new(TransferLedger::new());
        let mut dom = domain(ledger);
        let field = |t: f64| Vec3::new(0.02 * (0.8 * t).cos(), 0.0, 0.0);
        let mut absorbed = 0.0;
        for step in 0..3 {
            let (_, result) = dom.run_md_step(None, field, step as f64, cfg());
            absorbed += result.absorbed_energy;
        }
        (absorbed, dom.wavefunctions().norm_error())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "absorbed energy must be bit-reproducible");
    assert!(a.1 < 1e-9, "driven run must stay unitary: {}", a.1);
    assert!(a.0.is_finite());
}

#[test]
fn md_step_report_payload_is_occupations_sized() {
    let ledger = Arc::new(TransferLedger::new());
    let mut dom = domain(Arc::clone(&ledger));
    let norb = dom.occupations.len();
    let before = ledger.d2h_bytes();
    let (report, _) = dom.run_md_step(None, |_t| Vec3::ZERO, 0.0, cfg());
    let per_step = ledger.d2h_bytes() - before;
    // The D2H payload is Delta-f (norb doubles) + n_exc + J (4 doubles) —
    // the O(occupations) transfer claim of the paper, byte-exact.
    assert_eq!(per_step, ((norb + 4) * std::mem::size_of::<f64>()) as u64);
    assert_eq!(report.delta_f.len(), norb);
    // And far below one wave-function panel.
    assert!(per_step * 100 < dom.psi_bytes());
}
