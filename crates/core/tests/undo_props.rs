//! The undo log against the deep copy it replaced.
//!
//! A transaction used to begin by cloning the fabric and every
//! Adj-RIB-Out, and roll back by assigning the clones. [`UndoLog`] keeps
//! the previous value of each write instead; this suite holds it to the
//! old model: random interleavings of every kind of write the controller
//! makes through the log — bases, per-viewer slots and subscriptions of
//! the fabric's Adj-RIB-Outs, which its routers forward by (including
//! the first write to an empty table), advertisements sharing one copy of a route's
//! attributes across many slots and prefixes, ARP bindings, overlay
//! retirement, the drained dirty set — then `rollback`, must
//! leave exactly the clones taken before: table entries in their band
//! order, epoch, cookie counts, unstreamed batch log,
//! trie structure, subscriber sets. Flow-mod batches (accepted and
//! rejected) are written to the table directly, before the recorded
//! writes: the log never records one (a transaction's waves are undone
//! by the schedule driver), but they give overlay retirement entries to
//! take.

use std::sync::Arc;

use proptest::prelude::*;
use sdx_bgp::attrs::{AsPath, PathAttributes};
use sdx_bgp::rib::Advert;
use sdx_bgp::route_server::{ExportPolicy, RouteServer};
use sdx_core::txn::UndoLog;
use sdx_core::ParticipantConfig;
use sdx_net::{
    FieldMatch, HeaderMatch, Ipv4Addr, MacAddr, Mod, Packet, ParticipantId, PortId, Prefix, Slot,
    Write,
};
use sdx_openflow::{BorderRouter, Fabric, FlowEntry, FlowMod, FlowModBatch};

/// Overlays live at or above this priority, base entries below.
const OVERLAY: u32 = 100;

/// Where the world's four routers (of three participants) attach.
const PORTS: [PortId; 4] = [
    PortId::Phys(ParticipantId(1), 1),
    PortId::Phys(ParticipantId(2), 1),
    PortId::Phys(ParticipantId(2), 2),
    PortId::Phys(ParticipantId(3), 1),
];

/// A small universe with nesting, so writes collide and tries share paths.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..4, prop_oneof![Just(8u8), Just(9), Just(16), Just(24)])
        .prop_map(|(a, len)| Prefix::new(Ipv4Addr((10 + a) << 24), len))
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    (0u32..6).prop_map(|i| Ipv4Addr(0xac10_8000 + i))
}

fn arb_pattern() -> impl Strategy<Value = HeaderMatch> {
    prop_oneof![
        (0u32..6).prop_map(|v| HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(v)))),
        (0u16..4).prop_map(|p| HeaderMatch::of(FieldMatch::TpDst(p))),
        Just(HeaderMatch::any()),
    ]
}

fn arb_buckets() -> impl Strategy<Value = Vec<Vec<Mod>>> {
    prop_oneof![
        Just(vec![]),
        (1u32..4).prop_map(|p| vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(p), 1))]]),
        (0u32..6, 1u32..4).prop_map(|(v, p)| vec![vec![
            Mod::SetDlDst(MacAddr::vmac(v)),
            Mod::SetLoc(PortId::Virt(ParticipantId(p))),
        ]]),
    ]
}

/// One mod of a batch; `sel` picks a live entry when the batch is applied,
/// so most modifies and deletes hit, and a repeated delete is a genuine
/// rejection (the whole batch undone by its own journal).
#[derive(Clone, Debug)]
enum BatchOp {
    Add(u32, HeaderMatch, Vec<Vec<Mod>>, u64),
    Modify(usize, Vec<Vec<Mod>>, u64),
    Delete(usize),
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0u32..2 * OVERLAY, arb_pattern(), arb_buckets(), 0u64..4)
            .prop_map(|(p, m, b, c)| BatchOp::Add(p, m, b, c)),
        (0u32..2 * OVERLAY, arb_pattern(), arb_buckets(), 0u64..4)
            .prop_map(|(p, m, b, c)| BatchOp::Add(p, m, b, c)),
        (any::<usize>(), arb_buckets(), 0u64..4).prop_map(|(s, b, c)| BatchOp::Modify(s, b, c)),
        any::<usize>().prop_map(BatchOp::Delete),
    ]
}

/// One write: through the recording seam, or (a batch) to the table.
#[derive(Clone, Debug)]
enum Op {
    /// To the fabric's Adj-RIB-Outs.
    Advert(Write<ParticipantId, Advert>),
    /// One advertisement — one shared copy of a route — shown at each of
    /// `prefixes` to each of `viewers` in one run write per viewer, or
    /// made the base there if `viewers` is empty.
    Shared {
        viewers: Vec<ParticipantId>,
        prefixes: Vec<Prefix>,
        advert: Option<Advert>,
    },
    Arp(Ipv4Addr, u32),
    RetireOverlays,
    /// Applied to the table directly, never through the log.
    Batch(Vec<BatchOp>),
    DrainDirty,
}

/// A table write over a small universe of viewers and values: mostly
/// slots, so they collide with each other and with the bases under them.
fn arb_write<K, V>(
    viewer: fn() -> BoxedStrategy<K>,
    value: fn() -> BoxedStrategy<V>,
) -> impl Strategy<Value = Write<K, V>>
where
    K: Clone + std::fmt::Debug + 'static,
    V: Clone + std::fmt::Debug + 'static,
{
    let slot = move || {
        prop_oneof![
            Just(Slot::Inherit),
            Just(Slot::Withheld),
            value().prop_map(Slot::Own),
            value().prop_map(Slot::Own),
        ]
    };
    prop_oneof![
        (
            arb_prefix(),
            prop_oneof![Just(None), value().prop_map(Some)]
        )
            .prop_map(|(prefix, value)| Write::Base { prefix, value }),
        (viewer(), arb_prefix(), slot()).prop_map(|(viewer, prefix, slot)| Write::Slot {
            viewer,
            prefix,
            slot
        }),
        (viewer(), arb_prefix(), slot()).prop_map(|(viewer, prefix, slot)| Write::Slot {
            viewer,
            prefix,
            slot
        }),
        (viewer(), any::<bool>())
            .prop_map(|(viewer, subscribed)| Write::Subscription { viewer, subscribed }),
    ]
}

/// A write through the recording seam.
fn arb_logged_op() -> impl Strategy<Value = Op> {
    let advert =
        || arb_write(|| (1u32..5).prop_map(ParticipantId).boxed(), arb_advert).prop_map(Op::Advert);
    let shared = (
        proptest::collection::vec((1u32..5).prop_map(ParticipantId), 0..4),
        proptest::collection::vec(arb_prefix(), 1..6),
        proptest::option::of(arb_advert()),
    )
        .prop_map(|(mut viewers, prefixes, advert)| {
            viewers.sort_unstable();
            viewers.dedup();
            Op::Shared {
                viewers,
                prefixes,
                advert,
            }
        });
    prop_oneof![
        advert(),
        advert(),
        advert(),
        shared,
        (arb_addr(), 0u32..6).prop_map(|(a, v)| Op::Arp(a, v)),
        Just(Op::RetireOverlays),
        Just(Op::DrainDirty),
    ]
}

/// A recorded write, or (one time in four) a flow-mod batch.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => arb_logged_op(),
        1 => proptest::collection::vec(arb_batch_op(), 1..5).prop_map(Op::Batch),
    ]
}

/// Everything the log writes to.
struct World {
    fabric: Fabric,
    rs: RouteServer,
    epoch: u64,
}

fn route(variant: u32) -> PathAttributes {
    PathAttributes::new(
        AsPath::sequence((0..=variant).map(|h| 65001 + h)),
        Ipv4Addr(0xac10_0001),
    )
}

/// Advertisements of three routes, each route one copy shared by every
/// advertisement this strategy draws: values equal by pointer within a
/// strategy and equal by value across strategies.
fn arb_advert() -> BoxedStrategy<Advert> {
    let routes: Vec<Arc<PathAttributes>> = (0..3).map(|v| Arc::new(route(v))).collect();
    (0usize..3, arb_addr())
        .prop_map(move |(variant, next_hop)| Advert {
            route: Arc::clone(&routes[variant]),
            next_hop,
        })
        .boxed()
}

impl World {
    /// Routers on four ports of three participants, a batch log that is
    /// on, and a route server with two peers and dirty prefixes.
    fn new() -> Self {
        let mut fabric = Fabric::new();
        for (i, port) in (0u32..).zip(PORTS) {
            fabric.attach(BorderRouter::new(port, MacAddr::physical(10 + i)));
        }
        fabric.enable_batch_log();
        let mut rs = RouteServer::new();
        for i in 1..=2u32 {
            let cfg = ParticipantConfig::new(i, 65000 + i, 1);
            rs.add_peer(cfg.route_source(), ExportPolicy::allow_all());
            let p = Prefix::new(Ipv4Addr((10 + i) << 24), 8);
            rs.process_update(cfg.id, &cfg.announce([p], &[65000 + i]));
        }
        World {
            fabric,
            rs,
            epoch: 0,
        }
    }

    fn apply(&mut self, op: &Op, log: &mut UndoLog) {
        match op {
            Op::Advert(write) => log.write_advert(&mut self.fabric, write.clone()),
            Op::Shared {
                viewers,
                prefixes,
                advert,
            } => {
                let same = |have: &Advert, want: &&Advert| have == *want;
                let build = |want: &&Advert| Advert::clone(want);
                let adverts = self.fabric.adj_rib_outs_mut();
                if viewers.is_empty() {
                    for &prefix in prefixes {
                        let undo = log.advert_undo(adverts, 1);
                        adverts.write_base(prefix, advert.as_ref(), same, |w| build(&w), undo);
                    }
                }
                for &viewer in viewers {
                    let run = prefixes.iter().map(|&prefix| (prefix, advert.as_ref()));
                    let undo = log.advert_undo(adverts, prefixes.len());
                    adverts.write_run(viewer, run, same, build, undo);
                }
            }
            Op::Arp(addr, v) => log.bind_arp(&mut self.fabric, *addr, MacAddr::vmac(*v)),
            Op::RetireOverlays => log.retire_overlays(&mut self.fabric, OVERLAY),
            Op::Batch(ops) => {
                self.epoch += 1;
                let mut batch = FlowModBatch::new(self.epoch);
                let live = self.fabric.switch.table().entries();
                let pick = |sel: usize| {
                    live.get(sel % live.len().max(1))
                        .map(|e| (e.priority, e.pattern))
                };
                for op in ops {
                    batch.push(match op.clone() {
                        BatchOp::Add(p, m, b, c) => {
                            FlowMod::Add(FlowEntry::new(p, m, b).with_cookie(c))
                        }
                        BatchOp::Modify(sel, buckets, cookie) => {
                            let (priority, pattern) = pick(sel).unwrap_or((7, HeaderMatch::any()));
                            FlowMod::Modify {
                                priority,
                                pattern,
                                buckets,
                                cookie,
                            }
                        }
                        BatchOp::Delete(sel) => {
                            let (priority, pattern) = pick(sel).unwrap_or((7, HeaderMatch::any()));
                            FlowMod::Delete { priority, pattern }
                        }
                    });
                }
                // A rejected batch is part of the interleaving too.
                let _ = self.fabric.apply_flowmods(&batch);
            }
            Op::DrainDirty => {
                let dirty = self.rs.take_dirty_prefixes();
                log.drained(dirty);
            }
        }
    }

    /// Traffic from every port. Forwarding writes nothing the fabric
    /// holds, so the rollback's image comparison holds with it in between.
    fn send_traffic(&mut self) {
        for port in self.fabric.ports().collect::<Vec<_>>() {
            for dst in [0x0a00_0001u32, 0x0b01_0001, 0x0c00_0101] {
                self.fabric.send(
                    port,
                    Packet::tcp(Ipv4Addr(1), Ipv4Addr(dst), 5, 2).with_len(64),
                );
            }
        }
    }

    /// Comparable copies of everything, derived state included.
    fn image(&self) -> impl PartialEq + std::fmt::Debug {
        let table = self.fabric.switch.table();
        (
            self.fabric.clone(),
            table.epoch(),
            (0..4)
                .map(|c| table.entries_with_cookie(c).count())
                .collect::<Vec<_>>(),
            self.fabric.clone().drain_batches(),
            self.rs.clone().take_dirty_prefixes(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rollback_restores_the_clone(
        committed in proptest::collection::vec(arb_op(), 0..24),
        undone in proptest::collection::vec(arb_logged_op(), 1..32),
    ) {
        let mut w = World::new();
        // A committed prefix of writes randomizes the pre-image; dropping
        // its log is the commit.
        let mut log = UndoLog::default();
        for op in &committed {
            w.apply(op, &mut log);
        }
        drop(log);
        w.send_traffic();
        let before = w.image();

        let mut log = UndoLog::default();
        for op in &undone {
            w.apply(op, &mut log);
        }
        log.rollback(&mut w.fabric, &mut w.rs);
        prop_assert_eq!(w.image(), before);
        // The matcher came back too.
        let table = w.fabric.switch.table();
        for dst in 0..6u32 {
            let lp = sdx_net::LocatedPacket::at(
                PortId::Phys(ParticipantId(1), 1),
                Packet::tcp(Ipv4Addr(1), Ipv4Addr(2), 5, (dst % 4) as u16)
                    .with_macs(MacAddr::physical(1), MacAddr::vmac(dst)),
            );
            prop_assert_eq!(
                table.classify(&lp).map(|(i, _)| i),
                table.classify_linear(&lp).map(|(i, _)| i)
            );
        }
    }
}
