//! The MESH driver: Maxwell ↔ Ehrenfest ↔ Surface-Hopping ↔ QXMD,
//! integrated across time scales (paper Fig. 1, Eq. (2)).
//!
//! One MD step (Δt_MD ~ 100 as) of the driver:
//!
//! 1. **LFD (GPU)** — N_QD Ehrenfest steps under the laser field, on the
//!    shadow domain's device-resident wave functions;
//! 2. **excitation measurement** — promotion out of the initial adiabatic
//!    manifold, `n_exc = Σ_s f_s (1 − |⟨ψ_s(0)|ψ_s(t)⟩|²)`;
//! 3. **surface hopping (CPU)** — NACs from the wave-function change
//!    across the MD step update the occupations `f_s` (master-equation
//!    FSSH, `Û_SH` of Eq. (2));
//! 4. **QXMD (CPU)** — the excitation fraction reshapes the ferroelectric
//!    energy landscape (XS forces) and velocity Verlet advances the atoms;
//! 5. **shadow handshake** — the ionic-motion-induced Δv_loc goes back to
//!    the device (O(Ngrid)), closing the loop.

use crate::checkpoint::{self, DescentMeta, GroundState, WarmStart};
use crate::ehrenfest::{EhrenfestConfig, EhrenfestResult};
use crate::scf::band_energy_columns;
use crate::shadow::ShadowDomain;
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::potential::{ionic_potential, AtomSite};
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_maxwell::source::GaussianPulse;
use mlmd_maxwell::units;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::vec3::Vec3;
use mlmd_parallel::comm::Comm;
use mlmd_parallel::device::TransferLedger;
use mlmd_parallel::hier::partition;
use mlmd_qxmd::atoms::AtomsSystem;
use mlmd_qxmd::ferro::FerroModel;
use mlmd_qxmd::hopping::SurfaceHopping;
use mlmd_qxmd::integrator::{ForceField, VelocityVerlet};
use mlmd_qxmd::nac::NacMatrix;
use mlmd_topo::polarization::PolarizationField;
use mlmd_topo::switching::TextureReport;
use std::sync::Arc;

/// Driver settings: the time step, the inner loop and the excitation
/// scale. The surface-hopping bath (300 K, rate scale 10) and the
/// ground-state pre-descent (η = 0.1, 60 sweeps) are fixed physics of
/// the driver, not settings.
#[derive(Clone, Copy, Debug)]
pub struct MeshConfig {
    /// MD time step (fs).
    pub dt_md_fs: f64,
    /// Inner Ehrenfest loop.
    pub ehrenfest: EhrenfestConfig,
    /// Scaling from `n_exc` to the per-cell excitation fraction fed to
    /// the ferroelectric model.
    pub exc_per_cell_scale: f64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self {
            dt_md_fs: 0.1,
            ehrenfest: EhrenfestConfig {
                dt_qd: 0.05,
                n_qd: 50,
                self_consistent: false,
            },
            exc_per_cell_scale: 1.0,
        }
    }
}

/// Per-MD-step record.
#[derive(Clone, Debug)]
pub struct MeshStepRecord {
    pub time_fs: f64,
    pub n_exc: f64,
    pub absorbed_energy: f64,
    pub mean_polarization: Vec3,
    pub occupations: Vec<f64>,
    pub atom_potential_energy: f64,
    /// Mean topological charge per z-layer of the QM patch's polar
    /// texture after the step (the Û_SH → QXMD → topology accumulation of
    /// the MESH loop).
    pub topological_charge: f64,
}

/// Builder for [`MeshDriver`]: names the construction inputs and
/// defaults the ones that rarely change (config, drive, tracked sites,
/// transfer ledger, warm-start source). This is the construction seam the
/// `mlmd-core` engine layer exposes — pipeline code and tests assemble
/// probe drivers through it instead of a hidden escape hatch.
///
/// # Example
///
/// Assemble a dark (no-pulse) driver from the four mandatory physical
/// inputs and advance it one MESH MD step:
///
/// ```
/// use mlmd_dcmesh::mesh::MeshDriverBuilder;
/// use mlmd_lfd::occupation::Occupations;
/// use mlmd_lfd::wavefunction::WaveFunctions;
/// use mlmd_numerics::grid::Grid3;
/// use mlmd_numerics::vec3::Vec3;
/// use mlmd_qxmd::ferro::{FerroModel, FerroParams};
/// use mlmd_qxmd::perovskite::PerovskiteLattice;
///
/// let grid = Grid3::new(8, 8, 8, 0.5);
/// let lat = PerovskiteLattice::uniform(2, 2, 2, Vec3::new(0.0, 0.0, 0.3));
/// let ferro = FerroModel::new(&lat, FerroParams::pbtio3());
/// let mut driver = MeshDriverBuilder::new(
///     WaveFunctions::plane_waves(grid, 2),
///     Occupations::aufbau(2, 2.0),
///     lat.system.clone(),
///     ferro,
/// )
/// .build();
/// let record = driver.step();
/// assert!(record.n_exc.is_finite());
/// assert!(driver.time_fs() > 0.0);
/// ```
pub struct MeshDriverBuilder {
    config: MeshConfig,
    wf: WaveFunctions,
    occupations: Occupations,
    atoms: AtomsSystem,
    ferro: FerroModel,
    pulse: GaussianPulse,
    tracked_sites: Vec<(usize, AtomSite)>,
    ledger: Arc<TransferLedger>,
    warm_start: WarmStart,
}

impl MeshDriverBuilder {
    /// Start from the four mandatory physical inputs: the orbital panel,
    /// its occupations, the QM-region atoms, and their force model. The
    /// pulse defaults to darkness (`E₀ = 0`).
    pub fn new(
        wf: WaveFunctions,
        occupations: Occupations,
        atoms: AtomsSystem,
        ferro: FerroModel,
    ) -> Self {
        Self {
            config: MeshConfig::default(),
            wf,
            occupations,
            atoms,
            ferro,
            pulse: GaussianPulse::new(0.0, 1.0, 4.0, 2.0),
            tracked_sites: Vec::new(),
            ledger: Arc::new(TransferLedger::new()),
            warm_start: WarmStart::Fresh,
        }
    }

    pub fn config(mut self, config: MeshConfig) -> Self {
        self.config = config;
        self
    }

    /// The laser pulse on the domain. It is an execution input, not a
    /// ground-state input — it is deliberately excluded from
    /// [`Self::config_key`], so every amplitude reuses the same
    /// warm-start checkpoint.
    pub fn pulse(mut self, pulse: GaussianPulse) -> Self {
        self.pulse = pulse;
        self
    }

    /// Track QXMD cell `cell` with the LFD site `site` (the shadow
    /// handshake: the cell's Ti off-centering moves the site).
    pub fn track_site(mut self, cell: usize, site: AtomSite) -> Self {
        self.tracked_sites.push((cell, site));
        self
    }

    /// Account host↔device traffic on a shared ledger.
    pub fn ledger(mut self, ledger: Arc<TransferLedger>) -> Self {
        self.ledger = ledger;
        self
    }

    /// Where to get the converged ground state from: `Fresh` (always
    /// descend — the default, and the serial oracle's behavior), an
    /// in-memory [`crate::checkpoint::GroundStateCache`], or a checkpoint
    /// file. Warm sources are bit-identical to the cold path: the cached
    /// panel was produced by exactly the descent `build` would run, and
    /// [`Self::config_key`] pins every input that enters it.
    pub fn warm_start(mut self, warm_start: WarmStart) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// The FNV config hash of this builder's ground-state problem: grid,
    /// orbital count, descent parameters, occupations, initial panel, and
    /// the initial potential samples (which capture the ferro-patch
    /// geometry and tracked sites). Cheap relative to the descent — no
    /// orbital refinement runs.
    pub fn config_key(&self) -> u64 {
        let grid = self.wf.grid;
        let vloc0 = assemble_vloc(&grid, &self.tracked_sites, &self.ferro, &self.atoms);
        checkpoint::ground_state_key(
            &grid,
            self.wf.panel_digest(),
            self.occupations.as_slice(),
            &vloc0,
            DESCENT_ETA,
            DESCENT_STEPS,
        )
    }

    /// Run the ground-state descent fresh from this builder's inputs (the
    /// cold path), regardless of the warm-start source.
    pub fn ground_state(&self) -> GroundState {
        compute_ground_state(
            self.wf.clone(),
            &self.occupations,
            &self.tracked_sites,
            &self.ferro,
            &self.atoms,
        )
    }

    /// Resolve the converged ground state through the warm-start source:
    /// fresh descent, cache lookup (computing and caching on a miss), or
    /// checkpoint file (hard error on a missing file, foreign key, wrong
    /// version, or corrupt payload — never a silent fresh descent).
    pub fn resolve_ground_state(&self) -> GroundState {
        match &self.warm_start {
            WarmStart::Fresh => self.ground_state(),
            WarmStart::InMemory(cache) => {
                cache.get_or_compute(self.config_key(), || self.ground_state())
            }
            WarmStart::File(path) => checkpoint::load_for_key(path, self.config_key())
                .unwrap_or_else(|e| {
                    panic!("warm start from checkpoint {} failed: {e}", path.display())
                }),
        }
    }

    /// Build the driver from an already-converged ground state — the one
    /// place a [`MeshDriver`] is assembled, so warm- and cold-started
    /// drivers are the same program. The state's config hash must match
    /// this builder's ([`Self::config_key`]) — seeding a driver with a
    /// foreign ground state would silently break the bit-identity
    /// discipline.
    pub fn build_with(self, gs: GroundState) -> MeshDriver {
        let expected = self.config_key();
        assert_eq!(
            gs.key, expected,
            "ground state key {:#018x} does not match this builder's config \
             hash {expected:#018x}: grid/orbital-count/descent/geometry differ",
            gs.key
        );
        let GroundState { panel, vloc0, .. } = gs;
        let psi0 = panel.clone();
        let occupied0 = self
            .occupations
            .as_slice()
            .iter()
            .map(|&f| f > 0.0)
            .collect();
        MeshDriver {
            config: self.config,
            shadow: ShadowDomain::new(panel, self.occupations, &vloc0, self.ledger),
            atoms: self.atoms,
            ferro: self.ferro,
            pulse: self.pulse,
            psi0,
            occupied0,
            tracked_sites: self.tracked_sites,
            last_vloc: vloc0,
            time_fs: 0.0,
            hopping: SurfaceHopping::new(SH_TEMPERATURE, SH_RATE),
            last_eps: Vec::new(),
        }
    }

    pub fn build(self) -> MeshDriver {
        let gs = self.resolve_ground_state();
        self.build_with(gs)
    }
}

/// Surface-hopping bath temperature (K) and rate scale.
const SH_TEMPERATURE: f64 = 300.0;
const SH_RATE: f64 = 10.0;

/// The integrated MESH driver for one DC domain coupled to a QXMD
/// supercell. `crate::dist_mesh::DistributedMeshDriver` holds one replica
/// per rank and advances it through the same `MeshDriver::step_in`.
pub struct MeshDriver {
    pub config: MeshConfig,
    pub shadow: ShadowDomain,
    pub atoms: AtomsSystem,
    pub ferro: FerroModel,
    pub pulse: GaussianPulse,
    /// Reference orbital panel (t = 0) for excitation projection.
    psi0: WaveFunctions,
    /// Which reference states were occupied at t = 0 (the projection
    /// target: promotion *out of this subset* is excitation, even into
    /// the panel's own virtual states).
    occupied0: Vec<bool>,
    /// The LFD atom sites tracking selected QXMD degrees of freedom:
    /// (cell index, base site). The Ti displacement of that cell moves the
    /// site, producing the Δv_loc of the shadow handshake.
    tracked_sites: Vec<(usize, AtomSite)>,
    last_vloc: Vec<f64>,
    time_fs: f64,
    hopping: SurfaceHopping,
    /// Band energies ε_s of the last step's post-propagation panel (the
    /// surface-hopping inputs; empty before the first step).
    last_eps: Vec<f64>,
}

impl MeshDriver {
    pub fn time_fs(&self) -> f64 {
        self.time_fs
    }

    /// Band energies of the last step's post-propagation panel — the
    /// surface-hopping inputs (empty before the first step). The
    /// distributed-oracle suite pins these bit-for-bit across rank counts.
    pub fn band_energies(&self) -> &[f64] {
        &self.last_eps
    }

    /// Topological charge of the QM patch's current polar texture (mean
    /// over z-layers).
    pub fn topological_charge(&self) -> f64 {
        patch_topological_charge(&self.ferro, &self.atoms)
    }

    /// Advance one full MESH MD step on this rank alone.
    pub fn step(&mut self) -> MeshStepRecord {
        self.step_in(None).0
    }

    /// The MESH MD step, written once for any rank count: `domain` is the
    /// communicator of the ranks replicating this driver (paper
    /// Sec. V.A.1: one communicator per domain, band-space decomposition
    /// inside it). Also returns the inner-loop result, which the
    /// distributed wrapper publishes in its world-level E/J exchange.
    ///
    /// `None` or a one-rank communicator is the whole panel on this rank:
    /// band range `0..norb`, no collective. With more ranks the kernels
    /// that read and write a single orbital column run on this rank's
    /// `partition(norb, size, rank)` block and are allgathered in rank
    /// order, which *is* band order:
    ///
    /// * **Ehrenfest propagation** — [`ShadowDomain::run_md_step`], the one
    ///   inner loop of [`crate::ehrenfest`]: two allgathers (sub-panels,
    ///   per-orbital current terms), folded identically on every rank;
    /// * **excitation terms**, **band energies** — one allgather each.
    ///
    /// The kernels that couple orbitals or atoms — NACs, the hopping
    /// master equation, QXMD, the shadow handshake, the record — run
    /// redundantly on the replicated state (as does the inner loop itself
    /// under `EhrenfestConfig::self_consistent`, decided inside it). Every
    /// per-orbital value is computed exactly as on one rank and folded in
    /// band order, so no float sum is reordered and the trajectory is
    /// bit-identical at any rank count (`tests/mesh_dist.rs`).
    ///
    /// The panel lives in the shadow domain for the whole step: the stages
    /// borrow its device-side view, and the only copy is the pre-loop
    /// snapshot the NACs difference against.
    pub(crate) fn step_in(&mut self, domain: Option<&Comm>) -> (MeshStepRecord, EhrenfestResult) {
        let cfg = self.config;
        let domain = domain.filter(|d| d.size() > 1);
        let gather = |mine: Vec<f64>| match domain {
            Some(d) => d.allgather_vec(mine),
            None => mine,
        };
        // --- 1. LFD inner loop under the laser (device side) ---
        let t0_au = units::fs_to_au(self.time_fs);
        let pulse = self.pulse;
        let field = move |t: f64| Vec3::EZ * pulse.field(t);
        let psi_before = self.shadow.wavefunctions().clone();
        let (_, inner) = self.shadow.run_md_step(domain, field, t0_au, cfg.ehrenfest);
        let psi_after = self.shadow.wavefunctions();
        let grid = psi_after.grid;
        let norb = psi_after.norb;
        let cols = domain.map_or(0..norb, |d| partition(norb, d.size(), d.rank()));
        // --- 2. excitation measurement (fold of the per-state kernel) ---
        let exc_terms = gather(
            cols.clone()
                .map(|s| {
                    excitation_state_term(
                        &self.psi0,
                        &self.occupied0,
                        &self.shadow.occupations,
                        psi_after,
                        s,
                    )
                })
                .collect(),
        );
        let n_exc = fold_excitation(&exc_terms, &self.occupied0, &self.shadow.occupations);
        // --- 3. surface hopping on the occupations (Û_SH of Eq. (2)): one
        //        explicit-Euler master-equation step ---
        let dt_md_au = units::fs_to_au(cfg.dt_md_fs);
        let nac = NacMatrix::from_overlaps(&psi_before.psi, &psi_after.psi, grid.dv(), dt_md_au);
        let eps = gather(band_energy_columns(&grid, &self.last_vloc, psi_after, cols));
        let mut f = self.shadow.occupations.as_slice().to_vec();
        self.hopping.step(&mut f, &eps, &nac, dt_md_au);
        self.shadow.set_occupations(&f);
        self.last_eps = eps;
        // --- 4. QXMD with excitation-reshaped forces ---
        let pe = advance_atoms(&cfg, &mut self.ferro, &mut self.atoms, n_exc);
        // --- 5. shadow handshake: Δv_loc from the moved atoms ---
        self.last_vloc = shadow_handshake(
            &mut self.shadow,
            &grid,
            &self.tracked_sites,
            &self.ferro,
            &self.atoms,
            &self.last_vloc,
        );
        self.time_fs += cfg.dt_md_fs;
        let record = make_record(
            self.time_fs,
            n_exc,
            inner.absorbed_energy,
            &self.ferro,
            &self.atoms,
            f,
            pe,
        );
        (record, inner)
    }

    /// Run `n` MD steps, returning the trajectory of records.
    pub fn run(&mut self, n: usize) -> Vec<MeshStepRecord> {
        (0..n).map(|_| self.step()).collect()
    }
}

// ----------------------------------------------------------------------
// The stages `MeshDriver::step_in` sequences. Each either reads/writes a
// single orbital column (shardable by band range, bit-identically) or
// runs redundantly on replicated inputs.
// ----------------------------------------------------------------------

/// Steepest-descent damping η and sweep count of the ground-state
/// pre-descent. Both enter the checkpoint config hash
/// ([`checkpoint::ground_state_key`]) and the header's [`DescentMeta`].
const DESCENT_ETA: f64 = 0.1;
const DESCENT_STEPS: usize = 60;

/// Run the ground-state pre-descent: relax the initial orbitals into
/// adiabatic eigenstates of the initial potential, so the excitation
/// projection measures genuine light-induced promotion rather than basis
/// mismatch. The returned [`GroundState`] is keyed by the FNV config
/// hash over the *inputs* (initial panel, not the converged one), which
/// is what lets a cache or checkpoint answer "is this the descent I
/// would run?" without running it.
fn compute_ground_state(
    mut wf: WaveFunctions,
    occupations: &Occupations,
    tracked_sites: &[(usize, AtomSite)],
    ferro: &FerroModel,
    atoms: &AtomsSystem,
) -> GroundState {
    let grid = wf.grid;
    let vloc0 = assemble_vloc(&grid, tracked_sites, ferro, atoms);
    let key = checkpoint::ground_state_key(
        &grid,
        wf.panel_digest(),
        occupations.as_slice(),
        &vloc0,
        DESCENT_ETA,
        DESCENT_STEPS,
    );
    crate::scf::refine_orbitals(&grid, &vloc0, &mut wf, DESCENT_ETA, DESCENT_STEPS);
    crate::scf::subspace_rotate(&grid, &vloc0, &mut wf);
    GroundState {
        key,
        panel: wf,
        occupations: occupations.as_slice().to_vec(),
        vloc0,
        meta: DescentMeta {
            eta: DESCENT_ETA,
            steps: DESCENT_STEPS as u64,
        },
    }
}

/// Ionic potential of the tracked sites displaced by their cells'
/// current Ti off-centering (Å → bohr).
fn assemble_vloc(
    grid: &Grid3,
    tracked: &[(usize, AtomSite)],
    ferro: &FerroModel,
    atoms: &AtomsSystem,
) -> Vec<f64> {
    let u = ferro.displacement_field(atoms);
    let sites: Vec<AtomSite> = tracked
        .iter()
        .map(|(cell, base)| {
            let d = u[*cell] * (1.0 / units::BOHR_ANGSTROM);
            AtomSite {
                pos: base.pos + d,
                ..*base
            }
        })
        .collect();
    ionic_potential(grid, &sites)
}

/// One state's contribution to the excitation count:
/// `f_s (1 − Σ_{s' occupied} |⟨ψ_{s'}(0)|ψ_s(t)⟩|²)` for an initially
/// occupied state `s`, `0` otherwise. Reads only column `s` of the
/// current panel, so the band tier shards this kernel over ranks.
fn excitation_state_term(
    psi0: &WaveFunctions,
    occupied0: &[bool],
    occ: &Occupations,
    wf: &WaveFunctions,
    s: usize,
) -> f64 {
    if !occupied0[s] {
        return 0.0;
    }
    let f = occ.f(s);
    if f == 0.0 {
        return 0.0;
    }
    let mut in_span = 0.0;
    for (sp, &occ0) in occupied0.iter().enumerate().take(psi0.norb) {
        if occ0 {
            in_span += psi0.overlap(sp, wf, s).norm_sqr();
        }
    }
    f * (1.0 - in_span.min(1.0))
}

/// Fold the gathered per-state excitation terms in band order, skipping
/// exactly the states the monolithic projection skips. Projecting onto
/// the occupied *span* (inside [`excitation_state_term`]) makes the
/// measure invariant under mixing within the occupied manifold;
/// promotion into the panel's virtual states and leakage beyond the
/// panel both count.
fn fold_excitation(terms: &[f64], occupied0: &[bool], occ: &Occupations) -> f64 {
    let mut n = 0.0;
    for (s, &term) in terms.iter().enumerate() {
        if !occupied0[s] || occ.f(s) == 0.0 {
            continue;
        }
        n += term;
    }
    n
}

/// QXMD stage: the excitation fraction reshapes the ferroelectric energy
/// landscape (XS forces) and velocity Verlet advances the atoms. Returns
/// the potential energy. Runs redundantly on every rank of a band group.
/// The stage has no network term: NN forces belong to the XS-NNQMD
/// respond stage (paper Sec. V.A.8).
fn advance_atoms(
    cfg: &MeshConfig,
    ferro: &mut FerroModel,
    atoms: &mut AtomsSystem,
    n_exc: f64,
) -> f64 {
    let n_cells = ferro.cell_count();
    let x = (n_exc * cfg.exc_per_cell_scale / n_cells as f64).clamp(0.0, 1.0);
    ferro.set_uniform_excitation(x);
    let vv = VelocityVerlet::new(cfg.dt_md_fs);
    ferro.compute(atoms);
    vv.step(atoms, ferro)
}

/// Shadow handshake: ship the ionic-motion-induced Δv_loc back to the
/// device and return the new v_loc. Runs redundantly on every rank of a
/// band group (each device replica receives the same increment).
fn shadow_handshake(
    shadow: &mut ShadowDomain,
    grid: &Grid3,
    tracked: &[(usize, AtomSite)],
    ferro: &FerroModel,
    atoms: &AtomsSystem,
    last_vloc: &[f64],
) -> Vec<f64> {
    let v_new = assemble_vloc(grid, tracked, ferro, atoms);
    let delta_v: Vec<f64> = v_new.iter().zip(last_vloc).map(|(a, b)| a - b).collect();
    shadow.push_delta_v(&delta_v);
    v_new
}

/// Topological charge of a displacement field on the ferro model's
/// supercell (mean over z-layers) — the one definition both the per-step
/// record and [`MeshDriver::topological_charge`] go through.
fn charge_of_displacements(ferro: &FerroModel, u: Vec<Vec3>) -> f64 {
    let (nx, ny, nz) = ferro.n_cells();
    let field = PolarizationField::new(nx, ny, nz, u);
    TextureReport::analyze(&field).mean_charge
}

/// Topological charge of the QM patch (mean over z-layers of the polar
/// texture the ferro model binds to).
fn patch_topological_charge(ferro: &FerroModel, atoms: &AtomsSystem) -> f64 {
    charge_of_displacements(ferro, ferro.displacement_field(atoms))
}

/// Assemble the per-step record from the post-step state.
fn make_record(
    time_fs: f64,
    n_exc: f64,
    absorbed_energy: f64,
    ferro: &FerroModel,
    atoms: &AtomsSystem,
    occupations: Vec<f64>,
    atom_potential_energy: f64,
) -> MeshStepRecord {
    let u = ferro.displacement_field(atoms);
    let mean_p = u.iter().copied().sum::<Vec3>() / u.len().max(1) as f64;
    let topological_charge = charge_of_displacements(ferro, u);
    MeshStepRecord {
        time_fs,
        n_exc,
        absorbed_energy,
        mean_polarization: mean_p,
        occupations,
        atom_potential_energy,
        topological_charge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical MESH fixture (8³ grid, 8-state panel, 3×3×3 patch at
    /// the coupled minimum, resonant pulse) — shared with the `mesh_dist`
    /// integration suite and the `distributed_mesh` example.
    fn build_driver(e0: f64) -> MeshDriver {
        crate::fixture::small_mesh_driver(e0)
    }

    #[test]
    fn driver_advances_time_and_stays_finite() {
        let mut d = build_driver(0.02);
        let records = d.run(4);
        assert_eq!(records.len(), 4);
        assert!((d.time_fs() - 0.4).abs() < 1e-12);
        for r in &records {
            assert!(r.n_exc.is_finite() && r.n_exc >= 0.0);
            assert!(r.mean_polarization.norm().is_finite());
            assert!(r.occupations.iter().all(|f| (0.0..=2.0).contains(f)));
        }
    }

    #[test]
    fn stronger_pulse_excites_more() {
        // Dark vs lit: the pulse must dominate the residual
        // eigenstate-imperfection noise by a clear factor.
        let mut dark = build_driver(0.0);
        let mut lit = build_driver(0.1);
        let rd = dark.run(5);
        let rl = lit.run(5);
        let nd = rd.last().unwrap().n_exc;
        let nl = rl.last().unwrap().n_exc;
        assert!(
            nl > nd + 0.02,
            "pulse must excite well above the dark baseline: {nl} vs {nd}"
        );
    }

    #[test]
    fn excitation_suppresses_polarization_dynamics() {
        // With heavy excitation the double well flattens: polarization
        // decays toward zero faster than in the unexcited run.
        let mut dark = build_driver(0.0);
        let mut lit = build_driver(0.08);
        let rd = dark.run(8);
        let rl = lit.run(8);
        let pd = rd.last().unwrap().mean_polarization.z;
        let pl = rl.last().unwrap().mean_polarization.z;
        assert!(
            pl <= pd + 1e-9,
            "excited lattice must depolarize at least as fast: {pl} vs {pd}"
        );
    }

    #[test]
    fn shadow_invariant_holds_through_full_mesh_loop() {
        let mut d = build_driver(0.03);
        let ledger = d.shadow.ledger.clone();
        ledger.reset();
        let psi_bytes = d.shadow.psi_bytes();
        d.run(3);
        // No wave-function-sized transfer may occur inside the loop.
        let per_step = ledger.total_bytes() / 3;
        assert!(
            per_step < psi_bytes,
            "per-step link traffic {per_step} must stay below ψ bytes {psi_bytes}"
        );
    }

    #[test]
    fn occupations_respond_to_dynamics() {
        let mut d = build_driver(0.08);
        let before: f64 = d.shadow.occupations.as_slice().iter().sum();
        let records = d.run(6);
        let after: f64 = records.last().unwrap().occupations.iter().sum();
        // Total occupation conserved by the hopping master equation.
        assert!((before - after).abs() < 1e-9);
    }
}
