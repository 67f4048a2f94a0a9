//! Property tests pinning the compiled matcher to the linear walk.
//!
//! The `CompiledMatcher` is only allowed to exist because it is provably
//! indistinguishable from `classify_linear`: same entry index, same entry,
//! on every packet, for every reachable table state. These properties fuzz
//! that claim over random tables, random packets, and random mutation
//! sequences, including atomic flow-mod batches — which are also held to a
//! clone-then-apply reference model, both when accepted and when rolled
//! back, and must rewind to exactly the table they were applied to.

use proptest::prelude::*;
use sdx_net::{
    EtherType, FieldMatch, HeaderMatch, IpProto, Ipv4Addr, LocatedPacket, MacAddr, Mod, Packet,
    ParticipantId, PortId, Prefix,
};
use sdx_openflow::{BatchStats, FlowEntry, FlowMod, FlowModBatch, FlowModError, FlowTable};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ipv4Addr(a), l))
}

fn arb_port() -> impl Strategy<Value = PortId> {
    prop_oneof![
        (0u32..6, 0u8..2).prop_map(|(p, i)| PortId::Phys(ParticipantId(p), i)),
        (0u32..6).prop_map(|p| PortId::Virt(ParticipantId(p))),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_addr(),
        arb_addr(),
        any::<u16>(),
        0u16..32,
        prop_oneof![Just(IpProto::Tcp), Just(IpProto::Udp)],
        0u32..8,
    )
        .prop_map(|(s, d, ts, td, proto, md)| {
            let mut p = Packet::tcp(s, d, ts, td);
            p.nw_proto = proto;
            p.dl_dst = MacAddr::vmac(md);
            p
        })
}

fn arb_located() -> impl Strategy<Value = LocatedPacket> {
    (arb_port(), arb_packet()).prop_map(|(l, p)| LocatedPacket::at(l, p))
}

/// Biased (by arm repetition — the vendored `prop_oneof!` has no weight
/// syntax) toward the fields the indexes key on, so the exact paths get
/// real coverage instead of everything landing in the residual list, and
/// toward `nw_dst`, the field a general table keys on most, which the
/// residual list holds beside the wide patterns.
fn arb_field() -> impl Strategy<Value = FieldMatch> {
    prop_oneof![
        (0u32..8).prop_map(|i| FieldMatch::DlDst(MacAddr::vmac(i))),
        (0u32..8).prop_map(|i| FieldMatch::DlDst(MacAddr::vmac(i))),
        arb_port().prop_map(FieldMatch::InPort),
        arb_port().prop_map(FieldMatch::InPort),
        arb_prefix().prop_map(FieldMatch::NwDst),
        arb_prefix().prop_map(FieldMatch::NwDst),
        arb_prefix().prop_map(FieldMatch::NwSrc),
        (0u16..32).prop_map(FieldMatch::TpDst),
        (0u16..64).prop_map(FieldMatch::TpSrc),
        prop_oneof![Just(IpProto::Tcp), Just(IpProto::Udp)].prop_map(FieldMatch::NwProto),
        Just(FieldMatch::EthType(EtherType::Ipv4)),
    ]
}

fn arb_match() -> impl Strategy<Value = HeaderMatch> {
    proptest::collection::vec(arb_field(), 0..3).prop_map(|fs| {
        let mut m = HeaderMatch::any();
        for f in fs {
            m.set(f);
        }
        m
    })
}

/// Narrow priority range on purpose: dense bands stress the equal-priority
/// tie-break (table order), the hardest part of matcher equivalence.
fn arb_entry() -> impl Strategy<Value = (u32, HeaderMatch)> {
    (0u32..8, arb_match())
}

/// One step of the mutation surface the matcher must stay coherent under.
#[derive(Clone, Debug)]
enum Op {
    Install(u32, HeaderMatch),
    Delete(u32, HeaderMatch),
    RemoveAtOrAbove(u32),
    Modify(u32, HeaderMatch),
    Batch(Vec<(u32, HeaderMatch)>),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Installs repeated so tables actually grow between destructive ops.
    prop_oneof![
        arb_entry().prop_map(|(p, m)| Op::Install(p, m)),
        arb_entry().prop_map(|(p, m)| Op::Install(p, m)),
        arb_entry().prop_map(|(p, m)| Op::Install(p, m)),
        arb_entry().prop_map(|(p, m)| Op::Install(p, m)),
        arb_entry().prop_map(|(p, m)| Op::Delete(p, m)),
        (0u32..8).prop_map(Op::RemoveAtOrAbove),
        arb_entry().prop_map(|(p, m)| Op::Modify(p, m)),
        proptest::collection::vec(arb_entry(), 1..4).prop_map(Op::Batch),
        Just(Op::Clear),
    ]
}

fn assert_equivalent(t: &FlowTable, probes: &[LocatedPacket]) {
    for lp in probes {
        let fast = t.classify(lp).map(|(i, e)| (i, e.priority, e.pattern));
        let linear = t
            .classify_linear(lp)
            .map(|(i, e)| (i, e.priority, e.pattern));
        assert_eq!(
            fast,
            linear,
            "diverged on {:?} over {} entries",
            lp,
            t.len()
        );
    }
}

/// Action buckets for the batch properties: drops, plain outputs, and
/// buckets that tag a VMAC and re-enter the fabric (the references the
/// dangling-target check tracks).
fn arb_buckets() -> impl Strategy<Value = Vec<Vec<Mod>>> {
    prop_oneof![
        Just(vec![]),
        (0u32..6).prop_map(|p| vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(p), 0))]]),
        (0u32..6).prop_map(|p| vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(p), 0))]]),
        (0u32..8, 0u32..6).prop_map(|(v, p)| vec![vec![
            Mod::SetDlDst(MacAddr::vmac(v)),
            Mod::SetLoc(PortId::Virt(ParticipantId(p))),
        ]]),
    ]
}

/// One mod of a random batch, before it is resolved against the table:
/// `sel` picks a live entry of the *initial* table, so most modifies and
/// deletes are valid and a repeated one is a genuine `MissingTarget`.
#[derive(Clone, Debug)]
enum BatchOp {
    Add(u32, HeaderMatch, Vec<Vec<Mod>>, u64),
    ModifyLive(usize, Vec<Vec<Mod>>, u64),
    DeleteLive(usize),
    /// Deletes the first live entry handling VMAC tag `v`, if there is one.
    DeleteHandler(u32),
    ModifyAt(u32, HeaderMatch),
    DeleteAt(u32, HeaderMatch),
    /// Adds into a slot a live entry occupies.
    AddLive(usize),
    /// Deletes every live entry at or above a priority, in table order —
    /// the shape of an overlay retirement.
    RetireFrom(u32),
    /// Deletes a live entry, then adds a new one into the same slot.
    Readd(usize, Vec<Vec<Mod>>, u64),
    /// Deletes a live entry, then modifies the same slot: the modify has
    /// no target.
    DeleteThenModify(usize),
}

fn arb_batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        // Mostly outside the table's 0..8 priorities, so most adds find a
        // free slot; the rest interleave with (and collide in) its bands.
        (0u32..48, arb_match(), arb_buckets(), 0u64..4)
            .prop_map(|(p, m, b, c)| BatchOp::Add(p, m, b, c)),
        (0u32..48, arb_match(), arb_buckets(), 0u64..4)
            .prop_map(|(p, m, b, c)| BatchOp::Add(p, m, b, c)),
        (0u32..48, arb_match(), arb_buckets(), 0u64..4)
            .prop_map(|(p, m, b, c)| BatchOp::Add(p, m, b, c)),
        (any::<usize>(), arb_buckets(), 0u64..4).prop_map(|(s, b, c)| BatchOp::ModifyLive(s, b, c)),
        (any::<usize>(), arb_buckets(), 0u64..4).prop_map(|(s, b, c)| BatchOp::ModifyLive(s, b, c)),
        any::<usize>().prop_map(BatchOp::DeleteLive),
        (0u32..8).prop_map(BatchOp::DeleteHandler),
        (0u32..10).prop_map(BatchOp::RetireFrom),
        (any::<usize>(), arb_buckets(), 0u64..4).prop_map(|(s, b, c)| BatchOp::Readd(s, b, c)),
    ]
}

/// A mod that is (almost always) invalid wherever it lands in a batch.
fn arb_poison() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        arb_entry().prop_map(|(p, m)| BatchOp::ModifyAt(p, m)),
        arb_entry().prop_map(|(p, m)| BatchOp::DeleteAt(p, m)),
        any::<usize>().prop_map(BatchOp::AddLive),
        any::<usize>().prop_map(BatchOp::DeleteThenModify),
    ]
}

/// The mods `op` stands for, resolved against the initial table.
fn resolve(op: BatchOp, initial: &FlowTable) -> Vec<FlowMod> {
    let live = |sel: usize| {
        let es = initial.entries();
        (!es.is_empty()).then(|| (es[sel % es.len()].priority, es[sel % es.len()].pattern))
    };
    let live_or_none = |sel: usize| live(sel).unwrap_or((99, HeaderMatch::any()));
    let m = match op {
        BatchOp::Add(p, m, b, c) => FlowMod::Add(FlowEntry::new(p, m, b).with_cookie(c)),
        BatchOp::ModifyLive(sel, buckets, cookie) => {
            let (priority, pattern) = live_or_none(sel);
            FlowMod::Modify {
                priority,
                pattern,
                buckets,
                cookie,
            }
        }
        BatchOp::DeleteLive(sel) => {
            let (priority, pattern) = live_or_none(sel);
            FlowMod::Delete { priority, pattern }
        }
        BatchOp::DeleteHandler(v) => {
            let handler = initial
                .entries()
                .iter()
                .find(|e| e.pattern.dl_dst == Some(MacAddr::vmac(v)));
            let (priority, pattern) = handler
                .map(|e| (e.priority, e.pattern))
                .or(live(v as usize))
                .unwrap_or((99, HeaderMatch::any()));
            FlowMod::Delete { priority, pattern }
        }
        BatchOp::AddLive(sel) => {
            let (priority, pattern) = live_or_none(sel);
            FlowMod::Add(FlowEntry::new(priority, pattern, vec![]))
        }
        BatchOp::ModifyAt(priority, pattern) => FlowMod::Modify {
            priority,
            pattern,
            buckets: vec![],
            cookie: 1,
        },
        BatchOp::DeleteAt(priority, pattern) => FlowMod::Delete { priority, pattern },
        BatchOp::RetireFrom(min) => {
            return initial
                .entries()
                .iter()
                .take_while(|e| e.priority >= min)
                .map(|e| FlowMod::Delete {
                    priority: e.priority,
                    pattern: e.pattern,
                })
                .collect()
        }
        BatchOp::Readd(sel, buckets, cookie) => {
            let (priority, pattern) = live_or_none(sel);
            return vec![
                FlowMod::Delete { priority, pattern },
                FlowMod::Add(FlowEntry::new(priority, pattern, buckets).with_cookie(cookie)),
            ];
        }
        BatchOp::DeleteThenModify(sel) => {
            let (priority, pattern) = live_or_none(sel);
            return vec![
                FlowMod::Delete { priority, pattern },
                FlowMod::Modify {
                    priority,
                    pattern,
                    buckets: vec![],
                    cookie: 1,
                },
            ];
        }
    };
    vec![m]
}

/// The VMAC tags `buckets` write on packets that re-enter the fabric.
fn referenced_tags(buckets: &[Vec<Mod>]) -> Vec<u32> {
    let mut out = Vec::new();
    for bucket in buckets {
        let mut tag = None;
        let mut physical_exit = false;
        for m in bucket {
            match m {
                Mod::SetDlDst(mac) => tag = mac.fec_id(),
                Mod::SetLoc(p) => physical_exit = p.is_physical(),
                _ => {}
            }
        }
        if let (Some(v), false) = (tag, physical_exit) {
            out.push(v);
        }
    }
    out
}

/// The reference model of `apply_batch`: stage every mod on a copy of the
/// entry list, in table order, by plain vector edits; run the
/// dangling-target check on the copy, and build a table from it only if
/// everything validated.
fn reference_apply(
    table: &FlowTable,
    batch: &FlowModBatch,
) -> Result<(FlowTable, BatchStats), FlowModError> {
    let mut staged = table.entries().to_vec();
    let find = |staged: &[FlowEntry], priority: u32, pattern: &HeaderMatch| {
        (staged.iter()).position(|e| e.priority == priority && &e.pattern == pattern)
    };
    let mut stats = BatchStats::default();
    let mut removed_handlers = Vec::new();
    let mut batch_refs = Vec::new();
    for m in &batch.mods {
        match m {
            FlowMod::Add(e) => {
                if find(&staged, e.priority, &e.pattern).is_some() {
                    return Err(FlowModError::DuplicateAdd {
                        priority: e.priority,
                        pattern: e.pattern,
                    });
                }
                // After its band: equal priorities keep arrival order.
                let at = staged.partition_point(|x| x.priority >= e.priority);
                staged.insert(at, e.clone());
                batch_refs.extend(referenced_tags(&e.buckets));
                stats.adds += 1;
            }
            FlowMod::Modify {
                priority,
                pattern,
                buckets,
                cookie,
            } => {
                let Some(at) = find(&staged, *priority, pattern) else {
                    return Err(FlowModError::MissingTarget {
                        op: "modify",
                        priority: *priority,
                        pattern: *pattern,
                    });
                };
                staged[at].buckets = buckets.clone();
                staged[at].cookie = *cookie;
                batch_refs.extend(referenced_tags(buckets));
                stats.modifies += 1;
            }
            FlowMod::Delete { priority, pattern } => {
                let Some(at) = find(&staged, *priority, pattern) else {
                    return Err(FlowModError::MissingTarget {
                        op: "delete",
                        priority: *priority,
                        pattern: *pattern,
                    });
                };
                staged.remove(at);
                if let Some(v) = pattern.dl_dst.and_then(|m| m.fec_id()) {
                    if !removed_handlers.contains(&v) {
                        removed_handlers.push(v);
                    }
                }
                stats.deletes += 1;
            }
        }
    }
    for v in removed_handlers {
        let vmac = MacAddr::vmac(v);
        let handled = staged.iter().any(|e| e.pattern.dl_dst == Some(vmac));
        let still_referenced = (staged.iter()).any(|e| referenced_tags(&e.buckets).contains(&v));
        if batch_refs.contains(&v) && !handled && still_referenced {
            return Err(FlowModError::DanglingTarget { vmac });
        }
    }
    // Installed in table order, each entry lands at the end of its band.
    let mut model = FlowTable::new();
    for e in staged {
        model.install(e);
    }
    Ok((model, stats))
}

/// `m` applied as a batch of its own; whether it was accepted.
fn apply_one(t: &mut FlowTable, m: FlowMod) -> bool {
    t.apply_batch(&FlowModBatch {
        epoch: 0,
        mods: vec![m],
    })
    .is_ok()
}

/// Live entries per cookie `0..8`, counted from the entries.
fn cookie_counts(t: &FlowTable) -> Vec<usize> {
    (0..8)
        .map(|c| t.entries().iter().filter(|e| e.cookie == c).count())
        .collect()
}

fn classification(t: &FlowTable, probes: &[LocatedPacket]) -> Vec<Option<usize>> {
    probes
        .iter()
        .map(|lp| t.classify(lp).map(|(i, _)| i))
        .collect()
}

/// The matcher's contents, index by index.
fn matcher_shape(t: &FlowTable) -> [usize; 3] {
    let s = t.matcher_stats();
    [s.exact_keys, s.exact_entries, s.residual_entries]
}

/// Asserts `after` is exactly `before`: entries (in order), cookie
/// counts, epoch, matcher stamp and contents, and every probe's
/// classification.
fn assert_untouched(after: &FlowTable, before: &FlowTable, probes: &[LocatedPacket]) {
    assert_eq!(after.entries(), before.entries());
    assert_eq!(cookie_counts(after), cookie_counts(before));
    assert_eq!(after.epoch(), before.epoch());
    assert_eq!(after.matcher_stats().epoch, before.epoch());
    assert_eq!(matcher_shape(after), matcher_shape(before));
    assert_equivalent(after, probes);
    assert_eq!(
        classification(after, probes),
        classification(before, probes)
    );
}

proptest! {
    /// Random table, random packets: `classify` ≡ `classify_linear`.
    #[test]
    fn compiled_matcher_equals_linear_walk(
        entries in proptest::collection::vec(arb_entry(), 0..48),
        probes in proptest::collection::vec(arb_located(), 1..24),
    ) {
        let mut t = FlowTable::new();
        for (p, m) in entries {
            t.install(FlowEntry::new(p, m, vec![vec![Mod::SetLoc(PortId::Virt(ParticipantId(0)))]]));
        }
        assert_equivalent(&t, &probes);
    }

    /// Equivalence survives arbitrary mutation sequences — the incremental
    /// maintenance, bulk rebuilds, and flow-mod batches all preserve
    /// the invariant at every intermediate state.
    #[test]
    fn compiled_matcher_coherent_under_mutation(
        ops in proptest::collection::vec(arb_op(), 1..24),
        probes in proptest::collection::vec(arb_located(), 1..12),
    ) {
        let mut t = FlowTable::new();
        for op in ops {
            match op {
                Op::Install(p, m) => t.install(FlowEntry::new(p, m, vec![])),
                Op::Delete(priority, pattern) => {
                    apply_one(&mut t, FlowMod::Delete { priority, pattern });
                }
                Op::RemoveAtOrAbove(p) => {
                    t.remove_at_or_above(p);
                }
                Op::Modify(priority, pattern) => {
                    apply_one(&mut t, FlowMod::Modify {
                        priority,
                        pattern,
                        buckets: vec![vec![Mod::SetTpDst(9)]],
                        cookie: 3,
                    });
                }
                Op::Batch(adds) => {
                    let mut batch = FlowModBatch::new(0);
                    for (p, m) in adds {
                        // The delta protocol rejects duplicate adds and the
                        // whole batch atomically — both outcomes must leave
                        // a coherent matcher.
                        batch.push(FlowMod::Add(FlowEntry::new(p, m, vec![])));
                    }
                    let _ = t.apply_batch(&batch);
                }
                Op::Clear => t.clear(),
            }
            assert_equivalent(&t, &probes);
        }
    }
    /// Random tables × random mixed batches, valid and invalid at a random
    /// position, against the clone-then-apply reference model: an accepted
    /// batch leaves exactly the model's table, and undoing it leaves the
    /// table exactly as it was; a rejected one leaves the table exactly as
    /// it was — same error either way.
    #[test]
    fn in_place_batches_match_the_clone_then_apply_model(
        entries in proptest::collection::vec((arb_entry(), arb_buckets(), 0u64..4), 0..32),
        ops in proptest::collection::vec(arb_batch_op(), 0..12),
        poison in (0u8..3, any::<usize>(), arb_poison()),
        probes in proptest::collection::vec(arb_located(), 1..12),
    ) {
        let mut table = FlowTable::new();
        for ((p, m), b, c) in entries {
            table.install(FlowEntry::new(p, m, b).with_cookie(c));
        }
        let mut batch = FlowModBatch::new(1);
        for op in ops {
            batch.mods.extend(resolve(op, &table));
        }
        if let (0, at, op) = poison {
            let at = at % (batch.len() + 1);
            batch.mods.splice(at..at, resolve(op, &table));
        }
        let before = table.clone();
        let model = reference_apply(&before, &batch);
        match (table.apply_batch_undoable(&batch), model) {
            (Ok((stats, undo)), Ok((model, model_stats))) => {
                prop_assert_eq!(stats, model_stats);
                prop_assert_eq!(table.entries(), model.entries());
                prop_assert_eq!(cookie_counts(&table), cookie_counts(&model));
                prop_assert_eq!(matcher_shape(&table), matcher_shape(&model));
                prop_assert_eq!(table.epoch(), before.epoch() + batch.len() as u64);
                prop_assert_eq!(table.matcher_stats().epoch, table.epoch());
                assert_equivalent(&table, &probes);
                table.undo_batch(undo);
                assert_untouched(&table, &before, &probes);
            }
            (Err(e), Err(model_err)) => {
                prop_assert_eq!(e, model_err);
                assert_untouched(&table, &before, &probes);
            }
            (got, want) => prop_assert!(
                false,
                "in-place {:?} but model {:?}", got.map(|(s, _)| s), want.map(|(_, s)| s)
            ),
        }
    }
}

proptest! {
    /// An overlay retirement and its rollback patch the matcher entry by
    /// entry: over a random table with a random overlay band above it,
    /// `take_at_or_above` then `restore_at_or_above` leave entries
    /// and epoch as they were, `classify` agrees with the linear
    /// walk after each, and the matcher is never rebuilt whole.
    #[test]
    fn taking_and_restoring_overlays_never_rebuilds_the_matcher(
        entries in proptest::collection::vec((arb_entry(), arb_buckets(), 0u64..4), 0..32),
        overlays in proptest::collection::vec((arb_entry(), arb_buckets()), 0..24),
        probes in proptest::collection::vec(arb_located(), 1..12),
    ) {
        const OVERLAY_BASE: u32 = 100;
        let mut table = FlowTable::new();
        for ((p, m), b, c) in entries {
            table.install(FlowEntry::new(p, m, b).with_cookie(c));
        }
        for ((p, m), b) in overlays {
            table.install(FlowEntry::new(OVERLAY_BASE + p, m, b).with_cookie(7));
        }
        let before = table.clone();
        let builds = table.matcher_stats().builds;
        let taken = table.take_at_or_above(OVERLAY_BASE);
        let k = taken.len();
        prop_assert_eq!(taken.as_slice(), &before.entries()[..k]);
        prop_assert_eq!(table.entries(), &before.entries()[k..]);
        prop_assert_eq!(table.epoch(), before.epoch() + u64::from(k > 0));
        prop_assert_eq!(cookie_counts(&table)[7], 0);
        assert_equivalent(&table, &probes);
        table.restore_at_or_above(taken);
        assert_untouched(&table, &before, &probes);
        prop_assert_eq!(table.matcher_stats().builds, builds);
    }
}

/// A `DanglingTarget` is only detectable once every mod has landed, so
/// its rollback has to undo merged adds, a modify and deletes together.
#[test]
fn dangling_target_rolls_back_adds_modifies_and_deletes() {
    let out = |p: u32| vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(p), 0))]];
    let emit7 = vec![vec![
        Mod::SetDlDst(MacAddr::vmac(7)),
        Mod::SetLoc(PortId::Virt(ParticipantId(3))),
    ]];
    let vmac = |v: u32| HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(v)));
    let tp = |p: u16| HeaderMatch::of(FieldMatch::TpDst(p));
    let mut t = FlowTable::new();
    t.install(FlowEntry::new(10, vmac(7), out(2)).with_cookie(8));
    t.install(FlowEntry::new(10, vmac(6), out(1)).with_cookie(7));
    t.install(FlowEntry::new(5, tp(80), out(4)).with_cookie(1));
    t.install(FlowEntry::new(5, tp(443), out(5)).with_cookie(1));
    t.install(FlowEntry::new(1, HeaderMatch::any(), vec![]));
    let probes: Vec<LocatedPacket> = (0..8u32)
        .map(|i| {
            let mut p = Packet::tcp(
                Ipv4Addr(1),
                Ipv4Addr(2),
                9,
                if i % 2 == 0 { 80 } else { 443 },
            );
            p.dl_dst = MacAddr::vmac(5 + i % 4);
            LocatedPacket::at(PortId::Phys(ParticipantId(1), 0), p)
        })
        .collect();
    let before = t.clone();
    let batch = FlowModBatch {
        epoch: 3,
        mods: vec![
            FlowMod::Add(FlowEntry::new(20, tp(22), emit7.clone()).with_cookie(2)),
            FlowMod::Add(FlowEntry::new(7, tp(25), out(3)).with_cookie(2)),
            FlowMod::Delete {
                priority: 5,
                pattern: tp(443),
            },
            FlowMod::Modify {
                priority: 5,
                pattern: tp(80),
                buckets: emit7,
                cookie: 3,
            },
            // An out-of-order add: the pending run lands before it.
            FlowMod::Add(FlowEntry::new(30, tp(23), out(3))),
            FlowMod::Delete {
                priority: 10,
                pattern: vmac(6),
            },
            FlowMod::Delete {
                priority: 10,
                pattern: vmac(7),
            },
        ],
    };
    let err = t
        .apply_batch(&batch)
        .expect_err("handler deleted, references survive");
    assert_eq!(
        err,
        FlowModError::DanglingTarget {
            vmac: MacAddr::vmac(7)
        }
    );
    assert_eq!(reference_apply(&before, &batch).map(|(_, s)| s), Err(err));
    assert_untouched(&t, &before, &probes);
    // Traffic lands on the re-inserted entries again.
    let deleted = |e: &FlowEntry| {
        (batch.mods.iter()).any(|m| {
            matches!(m, FlowMod::Delete { priority, pattern }
                if *priority == e.priority && *pattern == e.pattern)
        })
    };
    let hit_deleted = |lp: &LocatedPacket| t.classify(lp).is_some_and(|(_, e)| deleted(e));
    assert!(probes.iter().any(hit_deleted));
}

/// The retirement of a fast path's overlays at scale: 1 200 overlays with
/// traffic on them, above a 235-entry base, deleted in one batch in table
/// order and rewound. The base never moves, and the rewind puts back
/// every overlay, band order and index contents included.
#[test]
fn retiring_and_rewinding_1200_overlays_restores_the_table_exactly() {
    const OVERLAY_BASE: u32 = 100_000;
    let out = |p: u32| vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(p), 0))]];
    let tag = |v: u32| {
        vec![vec![
            Mod::SetDlDst(MacAddr::vmac(v)),
            Mod::SetLoc(PortId::Virt(ParticipantId(v % 6))),
        ]]
    };
    let prefix = |i: u32| Prefix::new(Ipv4Addr(0x0a00_0000 | (i << 8)), 24);
    let mut t = FlowTable::new();
    let mut base = FlowModBatch::new(1);
    for i in 0..235u32 {
        let pattern = match i % 3 {
            0 => HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(i))),
            1 => HeaderMatch::of(FieldMatch::InPort(PortId::Virt(ParticipantId(i % 6))))
                .and(FieldMatch::TpDst(i as u16)),
            _ => HeaderMatch::of(FieldMatch::NwDst(prefix(i))),
        };
        base.push(FlowMod::Add(
            FlowEntry::new(1_000 - i, pattern, out(i % 6)).with_cookie(u64::from(i % 5)),
        ));
    }
    t.apply_batch(&base).expect("base table");
    // Overlays arrive in the fast path's order: each burst above the last.
    for burst in 0..12u32 {
        let mut overlays = FlowModBatch::new(2 + u64::from(burst));
        for i in (0..100u32).rev() {
            let n = burst * 100 + i;
            overlays.push(FlowMod::Add(
                FlowEntry::new(
                    OVERLAY_BASE + n,
                    HeaderMatch::of(FieldMatch::InPort(PortId::Phys(ParticipantId(n % 6), 0)))
                        .and(FieldMatch::NwDst(prefix(n % 235))),
                    tag(n % 235),
                )
                .with_cookie(7),
            ));
        }
        t.apply_batch(&overlays).expect("overlay burst");
    }
    assert_eq!(t.len(), 1_435);
    let probes: Vec<LocatedPacket> = (0..2_000u32)
        .map(|i| {
            let mut p = Packet::tcp(
                Ipv4Addr(1),
                Ipv4Addr(0x0a00_0000 | (i % 240) << 8 | 9),
                9,
                (i % 240) as u16,
            );
            p.dl_dst = MacAddr::vmac(i % 240);
            // Port 1 is no overlay's: those packets reach the base.
            LocatedPacket::at(PortId::Phys(ParticipantId(i % 6), (i % 2) as u8), p)
        })
        .collect();
    let hits: Vec<usize> = (probes.iter())
        .filter_map(|lp| t.classify(lp).map(|(i, _)| i))
        .collect();
    assert!(
        hits.iter().any(|&i| i < 1_200) && hits.iter().any(|&i| i >= 1_200),
        "traffic on overlays and base"
    );
    let before = t.clone();
    let retire = FlowModBatch {
        epoch: 20,
        mods: t
            .entries()
            .iter()
            .take_while(|e| e.priority >= OVERLAY_BASE)
            .map(|e| FlowMod::Delete {
                priority: e.priority,
                pattern: e.pattern,
            })
            .collect(),
    };
    assert_eq!(retire.len(), 1_200);
    let (stats, undo) = t.apply_batch_undoable(&retire).expect("retire");
    assert_eq!(stats.deletes, 1_200);
    assert_eq!(t.entries(), &before.entries()[1_200..]);
    assert_eq!(cookie_counts(&t)[7], 0);
    assert_equivalent(&t, &probes);
    t.undo_batch(undo);
    assert_untouched(&t, &before, &probes);
    assert_eq!(
        format!("{:?}", t.entries()),
        format!("{:?}", before.entries())
    );
}
