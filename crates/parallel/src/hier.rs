//! Hierarchical rank decomposition for DC-MESH (paper Sec. V.A.1).
//!
//! "DC-MESH adopts hierarchical MPI parallelization by assigning one MPI
//! communicator per domain, each handled by multiple MPI ranks through
//! hybrid band-space decomposition, which subdivides KS orbitals (bands) or
//! space among ranks, depending on a specific computational task."
//!
//! [`Hierarchy::build`] splits a world communicator into per-domain
//! communicators; [`Hierarchy::band_range`] (a [`partition`] over the
//! domain's ranks) describes which orbitals a rank owns under the band
//! decomposition.

use crate::comm::Comm;

/// The communicator hierarchy owned by one rank.
pub struct Hierarchy {
    /// The world communicator this hierarchy was built from.
    pub world: Comm,
    /// Communicator of the ranks sharing this rank's spatial DC domain.
    pub domain: Comm,
    /// Index of this rank's domain, in `0..n_domains`.
    pub domain_index: usize,
    /// Number of spatial DC domains.
    pub n_domains: usize,
}

impl Hierarchy {
    /// Split `world` into `n_domains` contiguous blocks of ranks.
    /// World size must be a multiple of `n_domains` (as on Aurora: 12 ranks
    /// per node, one domain per rank-group).
    pub fn build(world: Comm, n_domains: usize) -> Self {
        assert!(n_domains > 0, "need at least one domain");
        assert_eq!(
            world.size() % n_domains,
            0,
            "world size {} not divisible by domain count {}",
            world.size(),
            n_domains
        );
        let per = world.size() / n_domains;
        let domain_index = world.rank() / per;
        let domain = world.split(domain_index as u64, world.rank() as u64);
        Self {
            world,
            domain,
            domain_index,
            n_domains,
        }
    }

    /// Ranks per domain.
    pub fn ranks_per_domain(&self) -> usize {
        self.domain.size()
    }

    /// Band decomposition for a task over `n_orbitals`: the contiguous
    /// orbital range this rank owns within its domain.
    pub fn band_range(&self, n_orbitals: usize) -> std::ops::Range<usize> {
        partition(n_orbitals, self.domain.size(), self.domain.rank())
    }
}

/// Balanced contiguous partition of `n` items over `parts` owners.
pub fn partition(n: usize, parts: usize, index: usize) -> std::ops::Range<usize> {
    assert!(index < parts);
    let base = n / parts;
    let extra = n % parts;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    #[test]
    fn partition_covers_everything_exactly_once() {
        for n in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = vec![false; n];
                for p in 0..parts {
                    for i in partition(n, parts, p) {
                        assert!(!covered[i], "double coverage at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.into_iter().all(|c| c), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        for p in 0..7 {
            let r = partition(100, 7, p);
            let len = r.end - r.start;
            assert!((14..=15).contains(&len));
        }
    }

    #[test]
    fn hierarchy_domain_structure() {
        let out = World::run(8, |world| {
            let h = Hierarchy::build(world, 4);
            (h.domain_index, h.domain.size(), h.domain.rank())
        });
        assert_eq!(out[0], (0, 2, 0));
        assert_eq!(out[1], (0, 2, 1));
        assert_eq!(out[6], (3, 2, 0));
        assert_eq!(out[7], (3, 2, 1));
    }
}
