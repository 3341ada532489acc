//! The MESH step driver on simulated-MPI ranks: one communicator per
//! domain, one [`MeshDriver`] replica per rank.
//!
//! The MD step itself is not here — `MeshDriver::step_in` is the one step
//! body, parameterised by the domain communicator (band-sharded above one
//! rank, the serial program at one). [`DistributedMeshDriver`] owns only
//! what needs the world:
//!
//! * **construction** — [`Hierarchy::build`] gives each MESH domain (one
//!   laser-driven QM patch, e.g. the lit and dark runs of a pump–probe
//!   pair) its communicator; the domain root resolves the ground state
//!   and broadcasts it, so the pre-descent runs once per domain;
//! * **boundary E/J exchange** — after each step the domain roots publish
//!   their boundary macroscopic current `J` and Joule absorption with one
//!   [`Comm::allreduce_sum_vec`] over the world communicator (the
//!   quantities a macroscopic Maxwell grid update consumes, paper
//!   Sec. V.B.5), exposed as [`MeshExchange`]. One non-zero slot per
//!   domain: the sum adds zeros elsewhere, so no per-domain value is
//!   re-summed and the per-domain trajectory is untouched;
//! * [`run_distributed_mesh`] — the harness `tests/mesh_dist.rs` uses to
//!   pin 1, 2 and 4 ranks per domain bit-for-bit to [`MeshDriver::run`].

use crate::dist::root_resolves;
use crate::mesh::{MeshDriver, MeshDriverBuilder, MeshStepRecord};
use mlmd_parallel::comm::{Comm, World};
use mlmd_parallel::hier::Hierarchy;

/// The per-step inter-domain field bookkeeping: every domain's boundary
/// current and Joule absorption, visible on every rank after the
/// world-level E/J exchange.
#[derive(Clone, Debug)]
pub struct MeshExchange {
    /// Mean boundary current J_x of each domain over the last MD step.
    pub domain_current: Vec<f64>,
    /// Joule absorption `−∫J·E dt` of each domain over the last MD step.
    pub domain_absorbed: Vec<f64>,
}

impl MeshExchange {
    /// Total absorbed energy across all domains (the global quantity the
    /// Sec. V.A.8 end-of-step gather reports).
    pub fn total_absorbed(&self) -> f64 {
        self.domain_absorbed.iter().sum()
    }
}

/// The rank-local state of the distributed MESH step driver.
///
/// Constructed on every rank of a [`World::run`] region; world size must
/// be a multiple of the domain count (the [`Hierarchy::build`] contract).
/// Each rank holds its domain's full [`MeshDriver`] replica (wave-function
/// panel, occupations, atoms, hopping state — replicated within the
/// domain group, never leaving it).
pub struct DistributedMeshDriver {
    hier: Hierarchy,
    inner: MeshDriver,
    last_exchange: Option<MeshExchange>,
}

impl DistributedMeshDriver {
    /// Initialize on one rank of an SPMD region. `make_domain` assembles
    /// the *builder* of the serial driver for a given domain index (called
    /// once per rank, with this rank's domain index).
    ///
    /// The 60-sweep ground-state pre-descent is **not** replicated per
    /// rank: the domain root resolves the ground state through the
    /// builder's warm-start source and broadcasts it (`root_resolves`);
    /// every rank assembles its replica from that one panel via
    /// [`MeshDriverBuilder::build_with`], which re-checks the config hash
    /// rank-locally — a divergent replica input is a hard error, never a
    /// silent mismatch.
    pub fn new(
        world: Comm,
        n_domains: usize,
        make_domain: impl FnOnce(usize) -> MeshDriverBuilder,
    ) -> Self {
        let hier = Hierarchy::build(world, n_domains);
        let builder = make_domain(hier.domain_index);
        let gs = root_resolves(&hier.domain, || builder.resolve_ground_state());
        let inner = builder.build_with(gs);
        Self {
            hier,
            inner,
            last_exchange: None,
        }
    }

    /// The communicator hierarchy this rank participates in.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// This rank's domain replica of the serial driver.
    pub fn driver(&self) -> &MeshDriver {
        &self.inner
    }

    /// Band energies of the last step's post-propagation panel (identical
    /// on every rank of the domain group; empty before the first step).
    pub fn band_energies(&self) -> &[f64] {
        self.inner.band_energies()
    }

    /// Topological charge of this domain's QM patch.
    pub fn topological_charge(&self) -> f64 {
        self.inner.topological_charge()
    }

    /// The last step's inter-domain E/J exchange (`None` before the first
    /// step). Identical on every rank of the world.
    pub fn last_exchange(&self) -> Option<&MeshExchange> {
        self.last_exchange.as_ref()
    }

    pub fn time_fs(&self) -> f64 {
        self.inner.time_fs()
    }

    /// Advance one full MESH MD step, collectively over the world: the
    /// one step body on this rank's domain communicator, then the
    /// world-level boundary E/J exchange.
    pub fn step(&mut self) -> MeshStepRecord {
        let (record, inner) = self.inner.step_in(Some(&self.hier.domain));
        let mut contrib = vec![0.0; 2 * self.hier.n_domains];
        if self.hier.domain.rank() == 0 {
            contrib[2 * self.hier.domain_index] = inner.mean_current();
            contrib[2 * self.hier.domain_index + 1] = inner.absorbed_energy;
        }
        let table = self.hier.world.allreduce_sum_vec(contrib);
        self.last_exchange = Some(MeshExchange {
            domain_current: table.iter().step_by(2).copied().collect(),
            domain_absorbed: table.iter().skip(1).step_by(2).copied().collect(),
        });
        record
    }

    /// Run `n` MD steps, returning the trajectory of records (identical on
    /// every rank of a domain group).
    pub fn run(&mut self, n: usize) -> Vec<MeshStepRecord> {
        (0..n).map(|_| self.step()).collect()
    }
}

/// Convenience oracle harness: run the distributed driver on
/// `ranks_per_domain × n_domains` ranks for `n_steps` MD steps and return
/// each domain root's trajectory, in domain order — the exact shape the
/// integration suite and examples compare against serial
/// [`MeshDriver::run`] calls.
pub fn run_distributed_mesh<F>(
    n_domains: usize,
    ranks_per_domain: usize,
    n_steps: usize,
    make_domain: F,
) -> Vec<Vec<MeshStepRecord>>
where
    F: Fn(usize) -> MeshDriverBuilder + Sync,
{
    let results = World::run(n_domains * ranks_per_domain, |world| {
        let mut drv = DistributedMeshDriver::new(world, n_domains, &make_domain);
        drv.run(n_steps)
    });
    results.into_iter().step_by(ranks_per_domain).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{small_mesh_builder, small_mesh_driver};

    // The full oracle comparison (1/2/4 ranks per domain, lit/dark
    // two-domain worlds, band-energy and topological-charge pins, fabric
    // reclamation) lives in `tests/mesh_dist.rs`; these crate-local tests
    // keep a fast standalone bit-identity check and the exchange shape.

    fn records_equal(a: &[MeshStepRecord], b: &[MeshStepRecord]) {
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.time_fs.to_bits(), rb.time_fs.to_bits());
            assert_eq!(ra.n_exc.to_bits(), rb.n_exc.to_bits());
            assert_eq!(
                ra.absorbed_energy.to_bits(),
                rb.absorbed_energy.to_bits(),
                "absorbed energy must be exact"
            );
            assert_eq!(
                ra.atom_potential_energy.to_bits(),
                rb.atom_potential_energy.to_bits()
            );
            assert_eq!(
                ra.topological_charge.to_bits(),
                rb.topological_charge.to_bits()
            );
            for (fa, fb) in ra.occupations.iter().zip(&rb.occupations) {
                assert_eq!(fa.to_bits(), fb.to_bits());
            }
        }
    }

    #[test]
    fn two_ranks_per_domain_match_serial_bitwise() {
        let want = small_mesh_driver(0.05).run(2);
        let got = run_distributed_mesh(1, 2, 2, |_| small_mesh_builder(0.05));
        records_equal(&want, &got[0]);
    }

    #[test]
    fn exchange_reports_one_slot_per_domain() {
        let out = World::run(2, |world| {
            let mut drv = DistributedMeshDriver::new(world, 2, |d| {
                small_mesh_builder(if d == 0 { 0.05 } else { 0.0 })
            });
            drv.step();
            let ex = drv.last_exchange().expect("exchange after a step").clone();
            (drv.hierarchy().domain_index, ex)
        });
        // Every rank sees the same global table.
        for (_, ex) in &out {
            assert_eq!(ex.domain_current.len(), 2);
            assert_eq!(ex.domain_absorbed.len(), 2);
            assert_eq!(ex.domain_absorbed[0], out[0].1.domain_absorbed[0]);
        }
        // The lit domain absorbs; the exchange total matches the slots.
        let ex = &out[0].1;
        assert!(ex.domain_absorbed[0] != 0.0, "lit domain must absorb");
        assert_eq!(
            ex.total_absorbed(),
            ex.domain_absorbed[0] + ex.domain_absorbed[1]
        );
    }
}
