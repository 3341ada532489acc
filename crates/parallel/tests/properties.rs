//! Property tests: simulated-MPI collectives agree with their serial
//! definitions for arbitrary rank counts and payloads, and point-to-point
//! delivery is FIFO per (source, tag).

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

    #[test]
    fn tag_matching_is_fifo_per_source_and_tag(
        n in 2usize..6,
        tags in prop::collection::vec(0u64..4, 1..12),
    ) {
        // Every rank sends the same tag sequence to every peer (the value
        // is the send index), a collective runs over the still-unconsumed
        // envelopes, and each receiver then drains tag by tag in
        // descending order — the reverse of how most of them arrived.
        // Per (source, tag), values must still come out in send order.
        let seq = tags.clone();
        let out = World::run(n, move |c| {
            for dst in (0..c.size()).filter(|&d| d != c.rank()) {
                for (i, &tag) in seq.iter().enumerate() {
                    c.send(dst, tag, i);
                }
            }
            let total = c.allreduce_sum(1.0);
            let mut drained = Vec::new();
            for tag in (0..4u64).rev() {
                for src in (0..c.size()).filter(|&s| s != c.rank()) {
                    let got: Vec<usize> = seq
                        .iter()
                        .filter(|&&t| t == tag)
                        .map(|_| c.recv(src, tag))
                        .collect();
                    drained.push((src, tag, got));
                }
            }
            (total, drained)
        });
        for (total, drained) in out {
            prop_assert_eq!(total, n as f64);
            for (src, tag, got) in drained {
                let expect: Vec<usize> = (0..tags.len()).filter(|&i| tags[i] == tag).collect();
                prop_assert_eq!(got, expect, "source {} tag {}", src, tag);
            }
        }
    }
}

#[test]
fn queued_messages_outlive_the_senders_handle() {
    // Sub-rank 0 of a 3-rank communicator queues three messages for each
    // peer and drops its handle before the peers start receiving: the
    // envelopes belong to the communicator, not to the sender's handle,
    // so they must all still be delivered.
    let out = World::run(3, |world| {
        let sub = world.split(0, world.rank() as u64);
        if sub.rank() == 0 {
            for dst in 1..3 {
                for i in 0..3u64 {
                    sub.send(dst, 0, i * 10u64.pow(dst as u32 - 1));
                }
            }
            drop(sub);
            world.barrier();
            None
        } else {
            world.barrier();
            Some((0..3).map(|_| sub.recv::<u64>(0, 0)).sum::<u64>())
        }
    });
    assert_eq!(out, vec![None, Some(3), Some(30)]);
}
