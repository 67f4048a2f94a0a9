//! Property-based tests for the Minimum Disjoint Subset computation —
//! the §4.2 algorithm all data-plane compression rests on.

use proptest::prelude::*;
use sdx_core::fec::minimum_disjoint_subsets;
use sdx_net::{Ipv4Addr, Prefix};

fn arb_prefix_pool() -> impl Strategy<Value = Vec<Prefix>> {
    proptest::collection::btree_set(0u32..64, 1..32).prop_map(|idxs| {
        idxs.into_iter()
            .map(|i| Prefix::new(Ipv4Addr(i << 8), 24))
            .collect()
    })
}

fn arb_sets() -> impl Strategy<Value = Vec<Vec<Prefix>>> {
    (
        arb_prefix_pool(),
        proptest::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(|(pool, masks)| {
            masks
                .into_iter()
                .map(|mask| {
                    pool.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << (i % 64)) != 0)
                        .map(|(_, p)| *p)
                        .collect()
                })
                .collect()
        })
}

proptest! {
    /// MDS output is a partition of the union of the inputs.
    #[test]
    fn mds_is_a_partition(sets in arb_sets()) {
        let mds = minimum_disjoint_subsets(&sets);
        // Pairwise disjoint.
        for (i, a) in mds.iter().enumerate() {
            for b in mds.iter().skip(i + 1) {
                for p in a {
                    prop_assert!(!b.contains(p));
                }
            }
        }
        // Union preserved, nothing invented.
        let mut union: Vec<Prefix> = sets.concat();
        union.sort();
        union.dedup();
        let mut covered: Vec<Prefix> = mds.concat();
        covered.sort();
        prop_assert_eq!(covered, union);
    }

    /// Every input set is exactly a union of output parts (no part
    /// straddles a set boundary).
    #[test]
    fn mds_respects_input_sets(sets in arb_sets()) {
        let mds = minimum_disjoint_subsets(&sets);
        for set in &sets {
            for part in &mds {
                let inside = part.iter().filter(|p| set.contains(p)).count();
                prop_assert!(inside == 0 || inside == part.len());
            }
        }
    }

    /// Minimality: two prefixes with identical membership are never split.
    #[test]
    fn mds_is_coarsest(sets in arb_sets()) {
        let mds = minimum_disjoint_subsets(&sets);
        let membership = |p: &Prefix| -> Vec<usize> {
            sets.iter()
                .enumerate()
                .filter(|(_, s)| s.contains(p))
                .map(|(i, _)| i)
                .collect()
        };
        let mut union: Vec<Prefix> = sets.concat();
        union.sort();
        union.dedup();
        for a in &union {
            for b in &union {
                if membership(a) == membership(b) {
                    let pa = mds.iter().position(|g| g.contains(a));
                    let pb = mds.iter().position(|g| g.contains(b));
                    prop_assert_eq!(pa, pb, "{} and {} must share a group", a, b);
                }
            }
        }
    }

    /// MDS is insensitive to input-set order and duplication.
    #[test]
    fn mds_is_order_insensitive(sets in arb_sets()) {
        let forward = minimum_disjoint_subsets(&sets);
        let mut reversed = sets.clone();
        reversed.reverse();
        let backward = minimum_disjoint_subsets(&reversed);
        // Same partition as a set of sets.
        let canon = |mut v: Vec<Vec<Prefix>>| {
            for g in &mut v {
                g.sort();
            }
            v.sort();
            v
        };
        prop_assert_eq!(canon(forward.clone()), canon(backward));
        // Duplicating a set never changes the partition.
        let mut doubled = sets.clone();
        doubled.extend(sets.iter().cloned());
        prop_assert_eq!(canon(forward), canon(minimum_disjoint_subsets(&doubled)));
    }
}
