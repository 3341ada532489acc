//! Rank-parallel global–local SCF — the two-tier DC-MESH hierarchy of
//! paper Sec. V.A.1, run for real on simulated-MPI ranks.
//!
//! The paper's headline scale (15.36M electrons) comes from running every
//! DC domain on its own MPI rank-group with hybrid band-space
//! decomposition. [`DistributedDcScf`] is that driver: it runs inside
//! [`World::run`], uses [`Hierarchy::build`] to give each domain its own
//! communicator, keeps each domain's orbital panel resident on its
//! rank-group, and replaces the serial recombine/restrict of
//! [`crate::scf::DcScf`] with real collectives:
//!
//! * **recombine** — per-domain core densities are accumulated into the
//!   global ρ with [`Comm::allreduce_sum_vec`] over the world
//!   communicator (each domain root contributes its core block, everyone
//!   else zeros);
//! * **global solve** — the multigrid Hartree solve (plus v_ion and LDA
//!   xc) runs redundantly on each domain root, which then restricts the
//!   global potential to its domain's buffered grid and broadcasts it
//!   through the domain communicator;
//! * **local solve** — [`scf::local_solve`] over the domain communicator,
//!   the same function the serial driver calls with none: each rank
//!   descends its [`partition`](mlmd_parallel::hier::partition) block of
//!   orbitals and assembles its columns of the subspace Hamiltonian; the
//!   coupling steps (Gram–Schmidt, Rayleigh–Ritz diagonalize + rotate)
//!   are synchronized by [`Comm::allgather_vec`] and run redundantly.
//!
//! What this driver owns is therefore only what needs the world: the
//! hierarchy, the density allreduce, the root-resolves-then-broadcast of
//! `v_local` (`root_resolves`), and the band-energy allreduce. The initial
//! panel needs no collective: every rank draws the serial oracle's seeded
//! random panel itself.
//!
//! # Bit-identity to the serial oracle
//!
//! The serial [`crate::scf::DcScf`] — every domain on one rank — stays as
//! the oracle, and the integration suite (`tests/dc_dist.rs`) pins this
//! driver's band-energy trajectory to it **bit-for-bit** at 1, 2, and 4
//! ranks per domain. No tolerance is needed because no float sum is ever
//! reordered:
//!
//! * the steepest-descent update and each subspace-Hamiltonian entry read
//!   and write only their own column, so sharding columns over ranks
//!   computes exactly the serial values;
//! * the orbital-coupling steps (Gram–Schmidt, hermitize + eigh + rotate,
//!   density mixing, multigrid solve) run redundantly on identical
//!   replicated inputs;
//! * domain cores are mutually exclusive, so each global grid point
//!   receives exactly one non-zero contribution in the density allreduce,
//!   and `x + 0.0 == x` bit-exactly for the non-negative densities
//!   involved; likewise the band-energy allreduce left-folds one non-zero
//!   term per domain in world-rank order — the same order as the serial
//!   domain loop.

use crate::domain::{Domain, DomainDecomposition};
use crate::scf::{self, ScfIteration};
use mlmd_lfd::occupation::Occupations;
use mlmd_lfd::potential::AtomSite;
use mlmd_lfd::wavefunction::WaveFunctions;
use mlmd_parallel::comm::{Comm, World};
use mlmd_parallel::hier::Hierarchy;

/// A value the domain root resolves once and every rank of `domain` ends
/// up with: the root calls `resolve` and broadcasts, so a multigrid solve
/// or a MESH ground-state resolve (descent, cache lookup or checkpoint
/// read) happens once per domain. One rank is just `resolve()` — no
/// collective.
pub(crate) fn root_resolves<T: Send + Clone + 'static>(
    domain: &Comm,
    resolve: impl FnOnce() -> T,
) -> T {
    if domain.size() == 1 {
        return resolve();
    }
    domain.bcast(0, (domain.rank() == 0).then(resolve))
}

/// The rank-local state of the distributed global–local SCF driver.
///
/// Constructed on every rank of a [`World::run`] region; world size must
/// be a multiple of the domain count (the [`Hierarchy::build`]
/// contract). Each rank holds its domain's full orbital panel (replicated
/// within the domain group, never leaving it) plus the replicated global
/// density used for mixing.
pub struct DistributedDcScf {
    hier: Hierarchy,
    decomposition: DomainDecomposition,
    /// This rank's domain (a clone of `decomposition.domains[domain_index]`).
    dom: Domain,
    /// This domain's orbital panel, replicated across the domain group.
    wf: WaveFunctions,
    occ: Occupations,
    atoms: Vec<AtomSite>,
    /// Density mixing parameter (must match the serial driver's).
    pub mixing: f64,
    /// Replicated mixed global density.
    rho_global: Vec<f64>,
    /// Last restricted potential on this domain's buffered grid.
    v_local: Vec<f64>,
}

impl DistributedDcScf {
    /// Initialize on one rank of an SPMD region, mirroring
    /// [`crate::scf::DcScf::new`]: domain `d` gets the random orthonormal
    /// panel seeded with `seed + d` and aufbau occupations, so a world of
    /// any compatible size starts from exactly the serial initial state.
    pub fn new(
        world: Comm,
        decomposition: DomainDecomposition,
        norb: usize,
        electrons_per_domain: f64,
        atoms: Vec<AtomSite>,
        seed: u64,
    ) -> Self {
        let hier = Hierarchy::build(world, decomposition.len());
        let dom = decomposition.domains[hier.domain_index].clone();
        let wf = WaveFunctions::random(dom.grid, norb, seed + hier.domain_index as u64);
        let occ = Occupations::aufbau(norb, electrons_per_domain);
        let global_len = decomposition.spec.global.len();
        let v_local = vec![0.0; dom.grid.len()];
        Self {
            hier,
            decomposition,
            dom,
            wf,
            occ,
            atoms,
            mixing: 0.4,
            rho_global: vec![0.0; global_len],
            v_local,
        }
    }

    /// The communicator hierarchy this rank participates in.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// This rank's domain.
    pub fn domain(&self) -> &Domain {
        &self.dom
    }

    /// Recombine: assemble the global density from all domain cores.
    /// Collective over world; every rank returns the full global ρ.
    pub fn global_density(&self) -> Vec<f64> {
        let g = self.decomposition.spec.global;
        let mut contrib = vec![0.0; g.len()];
        if self.hier.domain.rank() == 0 {
            let local = scf::domain_core_density(&self.dom, &self.wf, &self.occ);
            self.dom.accumulate_core(&g, &local, &mut contrib);
        }
        // Cores are mutually exclusive, so each grid point gets exactly one
        // non-zero term: the left-fold over world ranks is bit-identical to
        // the serial per-domain accumulation.
        self.hier.world.allreduce_sum_vec(contrib)
    }

    /// One distributed global–local SCF iteration; returns the total band
    /// energy (identical on every rank). Collective over world.
    pub fn iterate(&mut self) -> f64 {
        let g = self.decomposition.spec.global;
        // 1. Recombine and mix (mixing state is replicated, so every rank
        //    performs the identical update).
        let rho_new = self.global_density();
        scf::mix_density(&mut self.rho_global, rho_new, self.mixing);
        // 2–3. Global solve redundantly on each domain root; restrict to
        //    the domain's buffered grid and broadcast through the domain
        //    communicator.
        let v_local = root_resolves(&self.hier.domain, || {
            let v_global = scf::assemble_global_potential(&g, &self.rho_global, &self.atoms);
            self.dom.restrict(&g, &v_global)
        });
        // 4. Local solve, band tier.
        let eps = scf::local_solve(
            &self.dom.grid,
            &v_local,
            &mut self.wf,
            Some(&self.hier.domain),
        );
        let e_dom: f64 = eps.iter().enumerate().map(|(s, e)| self.occ.f(s) * e).sum();
        self.v_local = v_local;
        // 5. Total band energy: one non-zero term per domain, left-folded
        //    in world-rank order — the serial domain-loop order.
        self.hier
            .world
            .allreduce_sum(if self.hier.domain.rank() == 0 {
                e_dom
            } else {
                0.0
            })
    }

    /// Run to convergence with the same outer loop (and iteration-0 delta
    /// convention) as [`crate::scf::DcScf::converge`]; the returned history is
    /// identical on every rank, so all ranks stop together.
    pub fn converge(&mut self, tol: f64, max_iter: usize) -> Vec<ScfIteration> {
        scf::run_scf_loop(|| self.iterate(), tol, max_iter)
    }

    /// Worst eigen-residual `|Hψ − εψ|` over all domains, against the last
    /// restricted potential. Collective over world.
    pub fn max_residual(&self) -> f64 {
        let mine = if self.hier.domain.rank() == 0 {
            scf::domain_residual(&self.dom.grid, &self.v_local, &self.wf)
        } else {
            0.0
        };
        self.hier.world.allreduce(mine, f64::max)
    }
}

/// Convenience oracle harness: run the distributed driver on
/// `ranks_per_domain × n_domains` ranks and return rank 0's history —
/// the exact shape the integration suite and examples compare against a
/// serial [`crate::scf::DcScf::converge`] run.
#[allow(clippy::too_many_arguments)] // mirrors DcScf::new + converge in one call
pub fn run_distributed(
    decomposition: &DomainDecomposition,
    norb: usize,
    electrons_per_domain: f64,
    atoms: &[AtomSite],
    seed: u64,
    ranks_per_domain: usize,
    tol: f64,
    max_iter: usize,
) -> Vec<ScfIteration> {
    let n_ranks = decomposition.len() * ranks_per_domain;
    let mut histories = World::run(n_ranks, |world| {
        let mut drv = DistributedDcScf::new(
            world,
            decomposition.clone(),
            norb,
            electrons_per_domain,
            atoms.to_vec(),
            seed,
        );
        drv.converge(tol, max_iter)
    });
    histories.swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{small_two_domain, SMALL_ELECTRONS, SMALL_NORB, SMALL_SEED};
    use crate::scf::DcScf;

    // The full oracle comparison (1/2/4 ranks per domain, per-rank history
    // agreement, electron conservation) lives in `tests/dc_dist.rs`; these
    // crate-local tests keep a fast standalone bit-identity check and the
    // residual diagnostic.

    #[test]
    fn two_ranks_per_domain_match_serial_bitwise() {
        let (dd, atoms) = small_two_domain();
        let mut serial = DcScf::new(
            dd.clone(),
            SMALL_NORB,
            SMALL_ELECTRONS,
            atoms.clone(),
            SMALL_SEED,
        );
        let want = serial.converge(1e-5, 4);
        let got = run_distributed(
            &dd,
            SMALL_NORB,
            SMALL_ELECTRONS,
            &atoms,
            SMALL_SEED,
            2,
            1e-5,
            4,
        );
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.band_energy.to_bits(), g.band_energy.to_bits());
            assert_eq!(w.delta.to_bits(), g.delta.to_bits());
        }
    }

    #[test]
    fn residual_agrees_across_ranks() {
        let (dd, atoms) = small_two_domain();
        let res = World::run(4, |world| {
            let mut drv = DistributedDcScf::new(
                world,
                dd.clone(),
                SMALL_NORB,
                SMALL_ELECTRONS,
                atoms.clone(),
                SMALL_SEED,
            );
            drv.converge(1e-4, 6);
            drv.max_residual()
        });
        for r in &res {
            assert_eq!(r.to_bits(), res[0].to_bits(), "residual must replicate");
        }
        assert!(res[0] < 1.0, "residual after six iterations: {}", res[0]);
    }
}
