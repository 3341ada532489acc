//! Global–local self-consistent field (paper Secs. V.A.1–V.A.2).
//!
//! "Local electronic Kohn–Sham wave functions within the domains and the
//! global KS potential are determined by global-local SCF iterations"
//! (ref \[37\], Yang's divide-and-conquer DFT). One iteration:
//!
//! 1. **recombine**: per-domain densities (cores only) → global ρ;
//! 2. **global solve**: V_H\[ρ\] by multigrid on the global grid (the
//!    sparse, scalable tier of GSLF), plus v_ion and LDA xc;
//! 3. **restrict**: the global potential, with buffers, back to domains;
//! 4. **local solve**: per domain, preconditioned steepest-descent
//!    refinement of the orbitals + Gram–Schmidt + subspace Rayleigh–Ritz
//!    (the dense, fast tier);
//! 5. density mixing, repeat until the band energy stops moving.
//!
//! Every domain starts from its seeded random panel: the oracle suites pin
//! whole SCF histories, so there is no warm start here (the MESH
//! ground-state cache is in [`crate::checkpoint`]).

use crate::domain::{Domain, DomainDecomposition};
use mlmd_lfd::density;
use mlmd_lfd::hartree::Multigrid;
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::potential::{ionic_potential, AtomSite};
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_lfd::xc;
use mlmd_numerics::complex::c64;
use mlmd_numerics::eigen::eigh_hermitian;
use mlmd_numerics::grid::Grid3;
use mlmd_numerics::matrix::Matrix;
use mlmd_numerics::ortho;
use mlmd_numerics::stencil::{laplacian, Order};
use mlmd_parallel::comm::Comm;
use mlmd_parallel::hier::partition;
use std::ops::Range;

/// Damping of the preconditioned steepest-descent orbital refinement.
pub const DESCENT_ETA: f64 = 0.1;
/// Descent sweeps per SCF iteration.
pub const DESCENT_STEPS: usize = 3;
/// Multigrid Hartree-solve tolerance.
pub const MG_TOL: f64 = 1e-6;
/// Multigrid V-cycle budget per SCF iteration.
pub const MG_CYCLES: usize = 20;

/// Apply the local KS Hamiltonian `Ĥ = −½∇² + v` to one orbital.
pub fn apply_h(grid: &Grid3, vloc: &[f64], psi: &[c64]) -> Vec<c64> {
    let n = grid.len();
    assert_eq!(psi.len(), n);
    assert_eq!(vloc.len(), n);
    let mut re = vec![0.0; n];
    let mut im = vec![0.0; n];
    for (idx, z) in psi.iter().enumerate() {
        re[idx] = z.re;
        im[idx] = z.im;
    }
    let mut lre = vec![0.0; n];
    let mut lim = vec![0.0; n];
    laplacian(grid, &re, &mut lre, Order::Second);
    laplacian(grid, &im, &mut lim, Order::Second);
    (0..n)
        .map(|i| {
            c64::new(
                -0.5 * lre[i] + vloc[i] * re[i],
                -0.5 * lim[i] + vloc[i] * im[i],
            )
        })
        .collect()
}

/// Band energies `ε_s = ⟨ψ_s|Ĥ|ψ_s⟩` for `s ∈ cols` only. Each energy
/// reads one column, so the band tier shards this call over ranks and
/// concatenates the results in rank order — every entry is computed
/// exactly as in the serial path, so sharding is bit-identical.
pub fn band_energy_columns(
    grid: &Grid3,
    vloc: &[f64],
    wf: &WaveFunctions,
    cols: Range<usize>,
) -> Vec<f64> {
    let dv = grid.dv();
    cols.map(|s| {
        let col = wf.psi.col(s);
        let hpsi = apply_h(grid, vloc, col);
        col.iter()
            .zip(&hpsi)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum::<f64>()
            * dv
    })
    .collect()
}

/// Band energies `ε_s = ⟨ψ_s|Ĥ|ψ_s⟩` of a panel.
pub fn band_energies(grid: &Grid3, vloc: &[f64], wf: &WaveFunctions) -> Vec<f64> {
    band_energy_columns(grid, vloc, wf, 0..wf.norb)
}

/// Worst eigen-residual `|Hψ_s − ε_s ψ_s|` over one domain's panel.
pub(crate) fn domain_residual(grid: &Grid3, vloc: &[f64], wf: &WaveFunctions) -> f64 {
    let eps = band_energies(grid, vloc, wf);
    let mut worst = 0.0f64;
    for (s, &eps_s) in eps.iter().enumerate().take(wf.norb) {
        let col = wf.psi.col(s);
        let hpsi = apply_h(grid, vloc, col);
        let mut r2 = 0.0;
        for (h, c) in hpsi.iter().zip(col) {
            r2 += (*h - c.scale(eps_s)).norm_sqr();
        }
        worst = worst.max((r2 * grid.dv()).sqrt());
    }
    worst
}

/// Subspace-Hamiltonian columns `H_ab = ⟨ψ_a|H|ψ_b⟩` for `b ∈ cols`,
/// flattened column-major (`norb` entries per column, columns in `cols`
/// order). Columns are independent, so [`local_solve`] shards this call
/// over ranks and concatenates the results; every entry is computed
/// exactly as in the serial path, so sharding is bit-identical.
fn subspace_h_columns(
    grid: &Grid3,
    vloc: &[f64],
    wf: &WaveFunctions,
    cols: Range<usize>,
) -> Vec<c64> {
    let n = wf.norb;
    let dv = grid.dv();
    let mut out = Vec::with_capacity(n * cols.len());
    for b in cols {
        let hpsi = apply_h(grid, vloc, wf.psi.col(b));
        for a in 0..n {
            let mut acc = c64::zero();
            for (x, y) in wf.psi.col(a).iter().zip(&hpsi) {
                acc = acc.mul_acc(x.conj(), *y);
            }
            out.push(acc.scale(dv));
        }
    }
    out
}

/// Complete a Rayleigh–Ritz step from an assembled subspace Hamiltonian
/// (flat column-major `norb × norb`): hermitize, diagonalize, and rotate
/// the panel into the eigenbasis. Returns the subspace eigenvalues.
fn finish_subspace_rotate(wf: &mut WaveFunctions, h_flat: Vec<c64>) -> Vec<f64> {
    let n = wf.norb;
    assert_eq!(h_flat.len(), n * n, "subspace Hamiltonian must be norb²");
    let h = Matrix::from_vec(n, n, h_flat);
    // Hermitize against FD asymmetry noise.
    let h = Matrix::from_fn(n, n, |a, b| (h[(a, b)] + h[(b, a)].conj()).scale(0.5));
    let e = eigh_hermitian(&h);
    // ψ ← ψ · V
    let old = wf.psi.clone();
    mlmd_numerics::gemm::gemm_blocked(c64::one(), &old, &e.vectors, c64::zero(), &mut wf.psi);
    e.values
}

/// Rayleigh–Ritz within the orbital span: diagonalize the subspace
/// Hamiltonian and rotate the panel into the eigenbasis.
pub fn subspace_rotate(grid: &Grid3, vloc: &[f64], wf: &mut WaveFunctions) -> Vec<f64> {
    let h = subspace_h_columns(grid, vloc, wf, 0..wf.norb);
    finish_subspace_rotate(wf, h)
}

/// One damped steepest-descent sweep `ψ_s ← ψ_s − η (Ĥ − ε_s) ψ_s` over
/// the columns in `cols` only, with no re-orthonormalization. Each column
/// update reads and writes only that column, so the band tier shards this
/// call over ranks bit-identically; callers must follow up with a panel
/// sync plus [`orthonormalize_panel`].
fn descend_columns(
    grid: &Grid3,
    vloc: &[f64],
    wf: &mut WaveFunctions,
    eta: f64,
    cols: Range<usize>,
) {
    let dv = grid.dv();
    for s in cols {
        let col = wf.psi.col(s).to_vec();
        let hpsi = apply_h(grid, vloc, &col);
        let eps: f64 = col
            .iter()
            .zip(&hpsi)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum::<f64>()
            * dv;
        let out = wf.psi.col_mut(s);
        for (o, (c, h)) in out.iter_mut().zip(col.iter().zip(&hpsi)) {
            *o = *c - (*h - c.scale(eps)).scale(eta);
        }
    }
}

/// Gram–Schmidt the panel and rescale to grid-measure normalization
/// (`∫|ψ|² dV = 1`) — the sequential, orbital-coupling tail of a descent
/// sweep. Runs redundantly on every rank of a domain group.
fn orthonormalize_panel(grid: &Grid3, wf: &mut WaveFunctions) {
    ortho::gram_schmidt(&mut wf.psi);
    let scale = 1.0 / grid.dv().sqrt();
    for z in wf.psi.as_mut_slice() {
        *z = z.scale(scale);
    }
}

/// A few steps of damped steepest descent on the band energies:
/// `ψ ← ortho(ψ − η (Ĥ − ε_s) ψ)`.
pub fn refine_orbitals(grid: &Grid3, vloc: &[f64], wf: &mut WaveFunctions, eta: f64, steps: usize) {
    for _ in 0..steps {
        descend_columns(grid, vloc, wf, eta, 0..wf.norb);
        orthonormalize_panel(grid, wf);
    }
}

/// The local solve of one global–local SCF iteration — [`DESCENT_STEPS`]
/// descent sweeps, then Rayleigh–Ritz — over the ranks of `domain`, each
/// holding a replica of `wf`. Returns the subspace eigenvalues.
///
/// Each rank descends, and assembles the subspace-Hamiltonian columns of,
/// its `partition(norb, size, rank)` block; the panel is allgathered
/// before every Gram–Schmidt and the Hamiltonian before the rotation,
/// both of which run redundantly. `None` (or one rank) is the whole panel
/// with no collective — exactly [`refine_orbitals`] + [`subspace_rotate`].
pub fn local_solve(
    grid: &Grid3,
    v_local: &[f64],
    wf: &mut WaveFunctions,
    domain: Option<&Comm>,
) -> Vec<f64> {
    let domain = domain.filter(|d| d.size() > 1);
    let cols = domain.map_or(0..wf.norb, |d| partition(wf.norb, d.size(), d.rank()));
    let ngrid = wf.ngrid();
    for _ in 0..DESCENT_STEPS {
        descend_columns(grid, v_local, wf, DESCENT_ETA, cols.clone());
        if let Some(d) = domain {
            // Contiguous column blocks in domain-rank order: the
            // concatenation *is* the column-major panel.
            let mine = wf.psi.as_slice()[cols.start * ngrid..cols.end * ngrid].to_vec();
            wf.psi
                .as_mut_slice()
                .copy_from_slice(&d.allgather_vec(mine));
        }
        orthonormalize_panel(grid, wf);
    }
    let h_cols = subspace_h_columns(grid, v_local, wf, cols);
    let h_flat = match domain {
        Some(d) => d.allgather_vec(h_cols),
        None => h_cols,
    };
    finish_subspace_rotate(wf, h_flat)
}

/// The DC-SCF driver state.
pub struct DcScf {
    pub decomposition: DomainDecomposition,
    /// Orbitals per domain (on the buffered local grids).
    pub orbitals: Vec<WaveFunctions>,
    pub occupations: Vec<Occupations>,
    /// Atoms contributing the ionic potential (global frame).
    pub atoms: Vec<AtomSite>,
    /// Density mixing parameter.
    pub mixing: f64,
    /// Last assembled global potential.
    pub v_global: Vec<f64>,
    /// Last global density.
    pub rho_global: Vec<f64>,
}

/// Convergence record per SCF iteration.
///
/// `delta` is always finite: from the second iteration on it is the
/// absolute band-energy change; the first iteration has no predecessor, so
/// its `delta` is `|band_energy|` itself (a finite sentinel that keeps
/// averaging/serializing consumers well-defined and can never satisfy the
/// convergence test spuriously, because iteration 0 is exempt from it).
#[derive(Clone, Copy, Debug)]
pub struct ScfIteration {
    pub iter: usize,
    pub band_energy: f64,
    pub delta: f64,
}

/// This domain's contribution to the global density: the local density of
/// its orbital panel, rescaled so the *core* region deposits exactly the
/// domain's electron count — the divide-and-conquer partition
/// normalization of Yang's DC-DFT (ref \[37\]). Buffer values are retained
/// (callers discard them via [`Domain::accumulate_core`]).
pub fn domain_core_density(dom: &Domain, wf: &WaveFunctions, occ: &Occupations) -> Vec<f64> {
    let mut local = density::density(wf, occ);
    let mut core_sum = 0.0;
    for lk in 0..dom.grid.nz {
        for lj in 0..dom.grid.ny {
            for li in 0..dom.grid.nx {
                if dom.is_core(li, lj, lk) {
                    core_sum += local[dom.grid.idx(li, lj, lk)];
                }
            }
        }
    }
    let core_electrons = core_sum * dom.grid.dv();
    if core_electrons > 1e-12 {
        let scale = occ.total() / core_electrons;
        for v in &mut local {
            *v *= scale;
        }
    }
    local
}

/// Linear density mixing `ρ ← (1−α)ρ + αρ_new`; a first call against an
/// all-zero history simply adopts `ρ_new`.
pub fn mix_density(rho: &mut Vec<f64>, rho_new: Vec<f64>, mixing: f64) {
    assert_eq!(rho.len(), rho_new.len(), "mix_density length mismatch");
    if rho.iter().all(|&x| x == 0.0) {
        *rho = rho_new;
    } else {
        for (r, n) in rho.iter_mut().zip(&rho_new) {
            *r = (1.0 - mixing) * *r + mixing * n;
        }
    }
}

/// The global KS potential `v = v_ion + V_H\[ρ\] + v_xc\[ρ\]`: multigrid
/// Hartree solve plus ionic and LDA exchange pieces — the sparse, scalable
/// tier of GSLF. In the distributed driver this runs redundantly on each
/// domain root.
pub fn assemble_global_potential(g: &Grid3, rho: &[f64], atoms: &[AtomSite]) -> Vec<f64> {
    let mg = Multigrid::new(*g);
    let (v_h, _) = mg.solve(rho, MG_TOL, MG_CYCLES);
    let v_ion = ionic_potential(g, atoms);
    let mut v_xc = vec![0.0; g.len()];
    xc::vx_lda(rho, &mut v_xc);
    (0..g.len())
        .map(|idx| v_ion[idx] + v_h[idx] + v_xc[idx])
        .collect()
}

/// The shared global–local SCF outer loop: call `step` until the band
/// energy moves by less than `tol` between consecutive iterations (the
/// first iteration, having no predecessor, never terminates the loop; see
/// [`ScfIteration`] for its `delta` convention). Both the serial
/// [`DcScf::converge`] and the distributed driver run exactly this loop,
/// which is what lets the integration suite pin their histories to each
/// other bit-for-bit.
pub fn run_scf_loop(mut step: impl FnMut() -> f64, tol: f64, max_iter: usize) -> Vec<ScfIteration> {
    let mut history = Vec::new();
    let mut last: Option<f64> = None;
    for iter in 0..max_iter {
        let e = step();
        let delta = match last {
            Some(prev) => (e - prev).abs(),
            None => e.abs(),
        };
        history.push(ScfIteration {
            iter,
            band_energy: e,
            delta,
        });
        if last.is_some() && delta < tol {
            break;
        }
        last = Some(e);
    }
    history
}

impl DcScf {
    /// Initialize with random orbitals (domain `d` seeded with `seed + d`)
    /// and aufbau occupations (`electrons_per_domain` each).
    pub fn new(
        decomposition: DomainDecomposition,
        norb: usize,
        electrons_per_domain: f64,
        atoms: Vec<AtomSite>,
        seed: u64,
    ) -> Self {
        let global_len = decomposition.spec.global.len();
        let orbitals: Vec<WaveFunctions> = decomposition
            .domains
            .iter()
            .enumerate()
            .map(|(d, dom)| WaveFunctions::random(dom.grid, norb, seed + d as u64))
            .collect();
        let occupations = vec![Occupations::aufbau(norb, electrons_per_domain); orbitals.len()];
        Self {
            decomposition,
            orbitals,
            occupations,
            atoms,
            mixing: 0.4,
            v_global: vec![0.0; global_len],
            rho_global: vec![0.0; global_len],
        }
    }

    /// Assemble the global density from domain cores (DCR recombine).
    ///
    /// Domain orbitals are normalized over their *buffered* local grids,
    /// but only core values enter the global density; the per-domain
    /// partition weight rescales each contribution so the domain deposits
    /// exactly its electron count — the divide-and-conquer partition
    /// normalization of Yang's DC-DFT (ref \[37\]).
    pub fn global_density(&self) -> Vec<f64> {
        let g = self.decomposition.spec.global;
        let mut rho = vec![0.0; g.len()];
        for (dom, (wf, occ)) in self
            .decomposition
            .domains
            .iter()
            .zip(self.orbitals.iter().zip(&self.occupations))
        {
            let local = domain_core_density(dom, wf, occ);
            dom.accumulate_core(&g, &local, &mut rho);
        }
        rho
    }

    /// One global–local SCF iteration; returns the total band energy.
    pub fn iterate(&mut self) -> f64 {
        let g = self.decomposition.spec.global;
        // 1–2. Global density and potential.
        let rho_new = self.global_density();
        mix_density(&mut self.rho_global, rho_new, self.mixing);
        self.v_global = assemble_global_potential(&g, &self.rho_global, &self.atoms);
        // 3–4. Restrict and refine per domain.
        let mut total_band = 0.0;
        for (dom, (wf, occ)) in self
            .decomposition
            .domains
            .iter()
            .zip(self.orbitals.iter_mut().zip(&self.occupations))
        {
            let v_local = dom.restrict(&g, &self.v_global);
            let eps = local_solve(&dom.grid, &v_local, wf, None);
            total_band += eps
                .iter()
                .enumerate()
                .map(|(s, e)| occ.f(s) * e)
                .sum::<f64>();
        }
        total_band
    }

    /// Run to convergence: stop when the band energy changes by less than
    /// `tol` (absolute) between consecutive iterations (the first
    /// iteration, having no predecessor, cannot terminate the loop; its
    /// recorded `delta` is `|band_energy|` — see [`ScfIteration`]).
    pub fn converge(&mut self, tol: f64, max_iter: usize) -> Vec<ScfIteration> {
        run_scf_loop(|| self.iterate(), tol, max_iter)
    }

    /// Worst eigen-residual `|Hψ − εψ|` over all domains (convergence
    /// diagnostic).
    pub fn max_residual(&self) -> f64 {
        let g = self.decomposition.spec.global;
        let domains = self.decomposition.domains.iter().zip(&self.orbitals);
        domains.fold(0.0, |worst, (dom, wf)| {
            let v_local = dom.restrict(&g, &self.v_global);
            worst.max(domain_residual(&dom.grid, &v_local, wf))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlmd_numerics::vec3::Vec3;

    fn small_problem() -> DcScf {
        crate::fixture::small_serial_scf()
    }

    #[test]
    fn scf_band_energy_decreases_and_converges() {
        let mut scf = small_problem();
        let history = scf.converge(1e-4, 25);
        assert!(history.len() >= 3, "needs several iterations");
        let first = history[0].band_energy;
        let last = history.last().unwrap().band_energy;
        assert!(last < first, "band energy must decrease: {first} → {last}");
        assert!(
            history.last().unwrap().delta < 1e-3,
            "must converge, final delta {}",
            history.last().unwrap().delta
        );
    }

    #[test]
    fn converged_orbitals_have_small_residual() {
        let mut scf = small_problem();
        scf.converge(1e-6, 40);
        let res = scf.max_residual();
        assert!(res < 0.5, "eigen-residual too large: {res}");
    }

    #[test]
    fn density_integrates_to_total_electrons() {
        let mut scf = small_problem();
        scf.converge(1e-4, 10);
        let g = scf.decomposition.spec.global;
        let n: f64 = scf.global_density().iter().sum::<f64>() * g.dv();
        // 2 domains × 2 electrons.
        assert!((n - 4.0).abs() < 1e-6, "N = {n}");
    }

    #[test]
    fn orbitals_localize_at_attractive_wells() {
        let mut scf = small_problem();
        scf.converge(1e-5, 30);
        // Density at an atom site must exceed the cell-average density.
        let g = scf.decomposition.spec.global;
        let rho = scf.global_density();
        let at_atom = rho[g.idx(3, 6, 6)]; // atom at (1.8,3.6,3.6)/0.6
        let avg: f64 = rho.iter().sum::<f64>() / rho.len() as f64;
        assert!(
            at_atom > avg,
            "density must pile up at the well: {at_atom} vs avg {avg}"
        );
    }

    #[test]
    fn first_iteration_delta_is_finite_energy_magnitude() {
        // Regression: iteration 0 used to record `delta: f64::INFINITY`,
        // poisoning any history consumer that averages or serializes
        // deltas. It now reports the first band energy's magnitude.
        let mut scf = small_problem();
        let history = scf.converge(1e-4, 5);
        let first = history[0];
        assert!(first.delta.is_finite(), "delta must be finite");
        assert_eq!(first.delta, first.band_energy.abs());
        let mean_delta = history.iter().map(|h| h.delta).sum::<f64>() / history.len() as f64;
        assert!(mean_delta.is_finite(), "averaged deltas must stay finite");
    }

    #[test]
    fn scf_loop_never_converges_on_the_first_iteration() {
        // Even a first band energy smaller than `tol` must not stop the
        // loop — there is no predecessor to have converged against.
        let history = run_scf_loop(|| 1e-9, 1e-4, 5);
        assert_eq!(history.len(), 2, "must take a second iteration");
        assert_eq!(history[1].delta, 0.0);
    }

    #[test]
    fn refactored_kernel_steps_match_monolithic_refine() {
        // `refine_orbitals` is descend + sync-free orthonormalize; the
        // split must be bit-identical to performing the steps inline, and
        // `local_solve` on one rank to `refine_orbitals` + `subspace_rotate`
        // (the pair `compute_ground_state` calls).
        let grid = Grid3::new(8, 8, 8, 0.5);
        let atoms = [AtomSite {
            pos: Vec3::new(2.0, 2.0, 2.0),
            z_eff: 3.0,
            sigma: 0.8,
        }];
        let vloc = ionic_potential(&grid, &atoms);
        let mut a = WaveFunctions::random(grid, 3, 11);
        let mut b = a.clone();
        let mut c = a.clone();
        let mut d = a.clone();
        refine_orbitals(&grid, &vloc, &mut c, DESCENT_ETA, DESCENT_STEPS);
        let rc = subspace_rotate(&grid, &vloc, &mut c);
        assert_eq!(rc, local_solve(&grid, &vloc, &mut d, None));
        assert_eq!(c.psi.max_abs_diff(&d.psi), 0.0, "local_solve must be exact");
        refine_orbitals(&grid, &vloc, &mut a, 0.1, 2);
        for _ in 0..2 {
            descend_columns(&grid, &vloc, &mut b, 0.1, 0..1);
            descend_columns(&grid, &vloc, &mut b, 0.1, 1..3);
            orthonormalize_panel(&grid, &mut b);
        }
        assert_eq!(a.psi.max_abs_diff(&b.psi), 0.0, "split must be exact");
        let ra = subspace_rotate(&grid, &vloc, &mut a);
        let h0 = subspace_h_columns(&grid, &vloc, &b, 0..2);
        let h1 = subspace_h_columns(&grid, &vloc, &b, 2..3);
        let rb = finish_subspace_rotate(&mut b, h0.into_iter().chain(h1).collect());
        assert_eq!(ra, rb, "sharded Rayleigh–Ritz must be exact");
        assert_eq!(a.psi.max_abs_diff(&b.psi), 0.0);
    }

    #[test]
    fn global_potential_has_all_parts() {
        let g = Grid3::new(12, 12, 12, 0.5);
        let atoms = [AtomSite {
            pos: Vec3::new(3.0, 3.0, 3.0),
            z_eff: 2.0,
            sigma: 0.7,
        }];
        // A blob of density on the atom.
        let rho: Vec<f64> = (0..g.len())
            .map(|idx| {
                let (i, j, k) = g.coords(idx);
                let (x, y, z) = g.position(i, j, k);
                2.0 * (-(Vec3::new(x, y, z) - atoms[0].pos).norm_sqr()).exp()
            })
            .collect();
        let v = assemble_global_potential(&g, &rho, &atoms);
        let v_ion = ionic_potential(&g, &atoms);
        let (v_h, _) = Multigrid::new(g).solve(&rho, MG_TOL, MG_CYCLES);
        let mut v_xc = vec![0.0; g.len()];
        xc::vx_lda(&rho, &mut v_xc);
        assert!(v_ion.iter().all(|&x| x <= 0.0));
        assert!(v_xc.iter().all(|&x| x <= 0.0));
        // Hartree of a localized positive blob is positive at its center.
        assert!(v_h[g.idx(6, 6, 6)] > 0.0);
        for idx in 0..g.len() {
            assert_eq!(v[idx], v_ion[idx] + v_h[idx] + v_xc[idx]);
        }
    }

    #[test]
    fn subspace_rotation_sorts_energies() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        let vloc = vec![0.0; grid.len()];
        let mut wf = WaveFunctions::random(grid, 3, 7);
        let eps = subspace_rotate(&grid, &vloc, &mut wf);
        for w in eps.windows(2) {
            assert!(w[0] <= w[1] + 1e-10, "energies must be ascending");
        }
        // Panel stays orthonormal after rotation.
        assert!(wf.norm_error() < 1e-8);
    }

    #[test]
    fn refine_lowers_rayleigh_quotient() {
        let grid = Grid3::new(8, 8, 8, 0.5);
        // A well at the center.
        let atoms = [AtomSite {
            pos: Vec3::new(2.0, 2.0, 2.0),
            z_eff: 3.0,
            sigma: 0.8,
        }];
        let vloc = ionic_potential(&grid, &atoms);
        let mut wf = WaveFunctions::random(grid, 2, 5);
        let e0: f64 = band_energies(&grid, &vloc, &wf).iter().sum();
        refine_orbitals(&grid, &vloc, &mut wf, 0.1, 10);
        let e1: f64 = band_energies(&grid, &vloc, &wf).iter().sum();
        assert!(e1 < e0, "descent must lower energy: {e0} → {e1}");
    }
}
