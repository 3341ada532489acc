//! Property tests: simulated-MPI collectives agree with their serial
//! definitions for arbitrary rank counts and payloads.

use mlmd_parallel::comm::World;
use mlmd_parallel::hier::{partition, Hierarchy};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_sum_matches_serial(n in 1usize..9, values in prop::collection::vec(-100.0f64..100.0, 9)) {
        let expect: f64 = values[..n].iter().sum();
        let vals = values.clone();
        let out = World::run(n, move |c| c.allreduce_sum(vals[c.rank()]));
        for v in out {
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn allgather_ordering_preserved(n in 1usize..8, base in 0u32..1000) {
        let out = World::run(n, move |c| c.allgather(base + c.rank() as u32));
        let expect: Vec<u32> = (0..n as u32).map(|r| base + r).collect();
        for v in out {
            prop_assert_eq!(&v, &expect);
        }
    }

    #[test]
    fn split_partitions_preserve_membership(n in 2usize..9, colors in prop::collection::vec(0u64..3, 9)) {
        let cols = colors.clone();
        let out = World::run(n, move |c| {
            let color = cols[c.rank()];
            let sub = c.split(color, c.rank() as u64);
            (color, sub.size(), sub.allreduce_sum(1.0) as usize)
        });
        // Each subcommunicator's size equals the number of ranks with
        // that color, and its own allreduce confirms it.
        for (color, size, counted) in &out {
            let expect = colors[..n].iter().filter(|&&c| c == *color).count();
            prop_assert_eq!(*size, expect);
            prop_assert_eq!(*counted, expect);
        }
    }

    #[test]
    fn partition_is_exact_and_balanced(n in 0usize..200, parts in 1usize..17) {
        let mut total = 0;
        let mut sizes = Vec::new();
        for p in 0..parts {
            let r = partition(n, parts, p);
            total += r.len();
            sizes.push(r.len());
        }
        prop_assert_eq!(total, n);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalance: {:?}", sizes);
    }

    #[test]
    fn reduce_with_max_matches_serial(n in 1usize..8, values in prop::collection::vec(0u64..10_000, 8)) {
        let expect = *values[..n].iter().max().unwrap();
        let vals = values.clone();
        let out = World::run(n, move |c| c.allreduce(vals[c.rank()], u64::max));
        for v in out {
            prop_assert_eq!(v, expect);
        }
    }

    #[test]
    fn band_ranges_tile_each_domain_under_split(
        domains in 1usize..4,
        per in 1usize..4,
        norb in 0usize..37,
    ) {
        // `Hierarchy::build` composes `Comm::split` with `partition`; for
        // any orbital count — divisible or not — the band ranges of a
        // domain's ranks must tile 0..norb contiguously, in domain-rank
        // order, with no overlap.
        let n = domains * per;
        let out = World::run(n, move |world| {
            let h = Hierarchy::build(world, domains);
            (h.domain_index, h.domain.rank(), h.band_range(norb))
        });
        for d in 0..domains {
            let mut ranks: Vec<_> = out.iter().filter(|(di, ..)| *di == d).collect();
            ranks.sort_by_key(|(_, r, _)| *r);
            prop_assert_eq!(ranks.len(), per);
            let mut cursor = 0;
            for (_, _, band) in &ranks {
                prop_assert_eq!(band.start, cursor, "gap or overlap in domain {}", d);
                cursor = band.end;
            }
            prop_assert_eq!(cursor, norb, "domain {} must cover all orbitals", d);
        }
    }

    #[test]
    fn allgather_vec_reassembles_partitioned_panels(n in 1usize..7, len in 0usize..50) {
        // Sharding a panel by `partition` and allgather_vec-ing it back is
        // the identity — the panel-sync step of the distributed SCF.
        let data: Vec<u64> = (0..len as u64).map(|i| i * 31 + 7).collect();
        let expect = data.clone();
        let out = World::run(n, move |c| {
            let mine = partition(data.len(), c.size(), c.rank());
            c.allgather_vec(data[mine].to_vec())
        });
        for v in out {
            prop_assert_eq!(&v, &expect);
        }
    }
}
