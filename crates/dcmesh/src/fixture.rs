//! The canonical laptop-scale DC fixture: a 12×12×12 global grid split
//! into two domains along x, with one Gaussian ion well per domain core.
//!
//! Every surface that compares the distributed SCF against the serial
//! oracle — the `scf`/`dist` unit tests, the root `dc_dist` integration
//! suite, the `dc_scaling` bench group, and the `distributed_scf`
//! example — builds exactly this problem, so a fixture change cannot
//! silently change what the oracle comparisons mean.

use crate::domain::{DomainDecomposition, DomainSpec};
use mlmd_lfd::potential::AtomSite;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;

/// Orbitals per domain.
pub const SMALL_NORB: usize = 2;
/// Electrons per domain.
pub const SMALL_ELECTRONS: f64 = 2.0;
/// RNG seed for the initial orbital panels.
pub const SMALL_SEED: u64 = 42;

/// Build the two-domain decomposition and its atoms.
pub fn small_two_domain() -> (DomainDecomposition, Vec<AtomSite>) {
    let global = Grid3::new(12, 12, 12, 0.6);
    let dd = DomainDecomposition::new(DomainSpec {
        global,
        n_dom: (2, 1, 1),
        buffer: 3,
    });
    let atoms = vec![
        AtomSite {
            pos: Vec3::new(1.8, 3.6, 3.6),
            z_eff: 4.0,
            sigma: 0.9,
        },
        AtomSite {
            pos: Vec3::new(5.4, 3.6, 3.6),
            z_eff: 4.0,
            sigma: 0.9,
        },
    ];
    (dd, atoms)
}

/// The serial oracle on the canonical fixture.
pub fn small_serial_scf() -> crate::scf::DcScf {
    let (dd, atoms) = small_two_domain();
    crate::scf::DcScf::new(dd, SMALL_NORB, SMALL_ELECTRONS, atoms, SMALL_SEED)
}

/// The canonical laptop-scale MESH fixture: an 8³ grid with an 8-state
/// panel (2 occupied + 6 virtual excitation targets), a 3×3×3 PbTiO3
/// patch started at the *coupled* ferroelectric minimum (so the dark run
/// is force-free), one tracked site, and a resonant pulse of amplitude
/// `e0`.
///
/// Every surface that compares the distributed MESH driver against the
/// serial oracle — the `mesh`/`dist_mesh` unit tests, the root
/// `mesh_dist` integration suite and the `distributed_mesh` example —
/// builds exactly this driver, mirroring what [`small_two_domain`] does
/// for the SCF comparisons.
pub fn small_mesh_driver(e0: f64) -> crate::mesh::MeshDriver {
    small_mesh_builder(e0).build()
}

/// The canonical MESH fixture as a *builder*, so callers can pick the
/// ground-state source before building: the distributed driver hands the
/// builder to every rank and lets the domain root resolve the descent
/// once ([`crate::dist_mesh::DistributedMeshDriver::new`]), and the
/// warm-start suites attach caches or checkpoint files to it. Note the
/// pulse amplitude `e0` does not enter the ground-state config hash, so
/// every amplitude built from this fixture shares one cached descent.
pub fn small_mesh_builder(e0: f64) -> crate::mesh::MeshDriverBuilder {
    use crate::ehrenfest::EhrenfestConfig;
    use crate::mesh::{MeshConfig, MeshDriverBuilder};
    use mlmd_lfd::occupation::Occupations;
    use mlmd_lfd::wavefunction::WaveFunctions;
    use mlmd_maxwell::source::GaussianPulse;
    use mlmd_qxmd::ferro::{FerroModel, FerroParams};
    use mlmd_qxmd::perovskite::PerovskiteLattice;

    let grid = Grid3::new(8, 8, 8, 0.5);
    let wf = WaveFunctions::plane_waves(grid, 8);
    let occ = Occupations::aufbau(8, 4.0);
    let p = FerroParams::pbtio3();
    let u_star = ((3.0 * p.j_nn - p.a2) / (2.0 * p.a4)).sqrt();
    let lat = PerovskiteLattice::uniform(3, 3, 3, Vec3::new(0.0, 0.0, u_star));
    let ferro = FerroModel::new(&lat, p);
    MeshDriverBuilder::new(wf, occ, lat.system.clone(), ferro)
        .config(MeshConfig {
            ehrenfest: EhrenfestConfig {
                dt_qd: 0.05,
                n_qd: 30,
                self_consistent: false,
            },
            exc_per_cell_scale: 30.0,
            ..Default::default()
        })
        .pulse(GaussianPulse::new(e0, 0.8, 4.0, 2.0))
        .track_site(
            0,
            AtomSite {
                pos: Vec3::new(2.0, 2.0, 2.0),
                z_eff: 1.0,
                sigma: 0.8,
            },
        )
}
