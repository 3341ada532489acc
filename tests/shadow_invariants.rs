//! Integration: the shadow-dynamics transfer claims (paper Sec. V.A.3)
//! hold through a full MESH loop, measured on the byte ledger.

use mlmd::dcmesh::ehrenfest::EhrenfestConfig;
use mlmd::dcmesh::mesh::{MeshConfig, MeshDriver, MeshDriverBuilder};
use mlmd::lfd::occupation::Occupations;
use mlmd::lfd::potential::AtomSite;
use mlmd::lfd::wavefunction::WaveFunctions;
use mlmd::maxwell::source::GaussianPulse;
use mlmd::numerics::grid::Grid3;
use mlmd::numerics::vec3::Vec3;
use mlmd::parallel::device::TransferLedger;
use mlmd::qxmd::ferro::{FerroModel, FerroParams};
use mlmd::qxmd::perovskite::PerovskiteLattice;
use std::sync::Arc;

fn driver(ledger: Arc<TransferLedger>) -> MeshDriver {
    let grid = Grid3::new(8, 8, 8, 0.5);
    let wf = WaveFunctions::plane_waves(grid, 8);
    let occ = Occupations::aufbau(8, 4.0);
    let p = FerroParams::pbtio3();
    let u_star = ((3.0 * p.j_nn - p.a2) / (2.0 * p.a4)).sqrt();
    let lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, u_star));
    let ferro = FerroModel::new(&lat, p);
    let pulse = GaussianPulse::new(0.05, 0.8, 4.0, 2.0);
    let site = AtomSite {
        pos: Vec3::new(2.0, 2.0, 2.0),
        z_eff: 1.0,
        sigma: 0.8,
    };
    let cfg = MeshConfig {
        ehrenfest: EhrenfestConfig {
            dt_qd: 0.05,
            n_qd: 40,
            self_consistent: false,
        },
        ..Default::default()
    };
    MeshDriverBuilder::new(wf, occ, lat.system.clone(), ferro)
        .config(cfg)
        .pulse(pulse)
        .track_site(0, site)
        .ledger(ledger)
        .build()
}

#[test]
fn wavefunctions_cross_the_link_exactly_once() {
    let ledger = Arc::new(TransferLedger::new());
    let mut d = driver(Arc::clone(&ledger));
    let psi_bytes = d.shadow.psi_bytes();
    // Initial upload: ψ + v.
    let init_h2d = ledger.h2d_bytes();
    assert!(init_h2d >= psi_bytes);
    d.run(4);
    // After 4 MD steps (160 QD steps), the additional H2D traffic must be
    // per-step Δv/Δf only — far below even one ψ re-upload per MD step.
    let loop_h2d = ledger.h2d_bytes() - init_h2d;
    assert!(
        loop_h2d < 4 * psi_bytes,
        "loop H2D {loop_h2d} must stay below 4x ψ bytes {psi_bytes}"
    );
    // And the naive alternative (ψ down+up per QD step) would be
    // 2 × 160 × ψ — assert we are at least 100× below it.
    let naive = 2 * 160 * psi_bytes;
    assert!(ledger.total_bytes() * 100 < naive);
}

#[test]
fn report_payload_is_occupation_sized() {
    let ledger = Arc::new(TransferLedger::new());
    let mut d = driver(Arc::clone(&ledger));
    ledger.reset();
    let records = d.run(1);
    assert_eq!(records.len(), 1);
    // The D2H payload per step: Δf (norb) + n_exc + J — tens of bytes.
    let d2h = ledger.d2h_bytes();
    assert!(d2h < 1024, "D2H per MD step must be O(Norb): {d2h} bytes");
}
