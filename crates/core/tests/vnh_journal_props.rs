//! The VNH allocator's journal against the copy it replaced.
//!
//! A transaction used to begin by cloning the allocator and roll back by
//! assigning the clone. The allocator now keeps, while a journal is open,
//! the record that reverses each write instead. This suite holds it to the
//! old model: random sequences of every allocator write — un-keyed draws,
//! keyed assignments (repeated keys across batches, duplicate keys within
//! one) and releases of live ids — over a pool small enough to run dry,
//! from a random starting state, then `rollback_journal`, must leave the
//! allocator's image exactly as it was before `open_journal`. And the
//! journal must only record: the same writes made with it open and then
//! closed, or never opened, hand out the same triples, fail the same way
//! and end in the same image.

use proptest::prelude::*;
use sdx_core::fec::{FecId, FecKey};
use sdx_core::VnhAllocator;
use sdx_net::{Ipv4Addr, ParticipantId, Prefix};

/// A /29: seven usable ids, so exhaustion fires often.
fn allocator() -> VnhAllocator {
    VnhAllocator::new(Prefix::new(Ipv4Addr::new(172, 16, 128, 0), 29))
}

/// One of eight keys: few enough that batches repeat them.
fn key(i: u8) -> FecKey {
    FecKey {
        viewer: ParticipantId(u32::from(i % 2)),
        prefixes: vec![Prefix::new(Ipv4Addr(u32::from(10 + i / 2) << 24), 8)],
        default_next_hop: Some(ParticipantId(u32::from(i % 3))),
    }
}

#[derive(Clone, Debug)]
enum Op {
    Allocate,
    /// Key indices, duplicates included.
    Keyed(Vec<u8>),
    /// Picks one of the live ids, if any.
    Release(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Allocate),
        proptest::collection::vec(0u8..8, 0..6).prop_map(Op::Keyed),
        proptest::collection::vec(0u8..8, 0..6).prop_map(Op::Keyed),
        any::<usize>().prop_map(Op::Release),
    ]
}

/// Runs `ops`, releasing only ids handed out and not yet released (`live`
/// carries over between calls); returns what each op reported.
fn run(alloc: &mut VnhAllocator, live: &mut Vec<FecId>, ops: &[Op]) -> Vec<String> {
    ops.iter()
        .map(|op| match op {
            Op::Allocate => {
                let drawn = alloc.try_allocate();
                if let Ok((id, _, _)) = drawn {
                    live.push(id);
                }
                format!("{drawn:?}")
            }
            Op::Keyed(picks) => {
                let keys: Vec<FecKey> = picks.iter().map(|&i| key(i)).collect();
                let assigned = alloc.assign_keyed(&keys);
                if let Ok(a) = &assigned {
                    for &(id, _, _) in &a.triples {
                        if !live.contains(&id) {
                            live.push(id);
                        }
                    }
                }
                format!("{assigned:?}")
            }
            Op::Release(pick) => {
                if live.is_empty() {
                    return "nothing live".to_string();
                }
                let id = live.swap_remove(pick % live.len());
                alloc.release(id);
                format!("released {id:?}")
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rollback_restores_the_image_before_open(
        setup in proptest::collection::vec(arb_op(), 0..12),
        ops in proptest::collection::vec(arb_op(), 0..24),
    ) {
        let mut alloc = allocator();
        let mut live = Vec::new();
        run(&mut alloc, &mut live, &setup);
        let before = format!("{alloc:?}");
        alloc.open_journal();
        run(&mut alloc, &mut live, &ops);
        alloc.rollback_journal();
        prop_assert_eq!(format!("{alloc:?}"), before);
    }

    #[test]
    fn a_journal_changes_nothing_it_records(
        setup in proptest::collection::vec(arb_op(), 0..12),
        ops in proptest::collection::vec(arb_op(), 0..24),
    ) {
        let (mut journaled, mut plain) = (allocator(), allocator());
        let (mut live_j, mut live_p) = (Vec::new(), Vec::new());
        run(&mut journaled, &mut live_j, &setup);
        run(&mut plain, &mut live_p, &setup);
        journaled.open_journal();
        let reported = run(&mut journaled, &mut live_j, &ops);
        journaled.close_journal();
        prop_assert_eq!(reported, run(&mut plain, &mut live_p, &ops));
        prop_assert_eq!(format!("{journaled:?}"), format!("{plain:?}"));
    }
}
