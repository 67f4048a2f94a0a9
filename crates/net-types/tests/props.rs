//! Property-based tests for the foundational types.
//!
//! These pin down the algebraic laws the rest of the workspace relies on:
//! the trie agrees with a linear scan and a `BTreeMap`, prefix
//! set-operations behave like set operations, header-match intersection is
//! a true set intersection, the shared view table shows each viewer what a
//! table of its own would, and its one-walk writes are the writes its
//! planners plan.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_net::flowspace::{FieldMatch, HeaderMatch, Mod};
use sdx_net::ipv4::{Ipv4Addr, Prefix};
use sdx_net::mac::MacAddr;
use sdx_net::packet::{EtherType, IpProto, LocatedPacket, Packet};
use sdx_net::trie::PrefixTrie;
use sdx_net::{ParticipantId, PortId, Slot, ViewTable, Write};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ipv4Addr(a), l))
}

/// An address in one of four blocks (10.0/16, 10.1/16, 10.128/16,
/// 192.168/16), its last two octets mostly from a few values, so that
/// prefixes drawn from it nest, and otherwise anything, so that one trie
/// node fills bitmap words past its first.
fn arb_block_addr() -> impl Strategy<Value = Ipv4Addr> {
    const BLOCKS: [u32; 4] = [0x0A00_0000, 0x0A01_0000, 0x0A80_0000, 0xC0A8_0000];
    const OCTETS: [u32; 5] = [0, 1, 127, 128, 255];
    let octet = || prop_oneof![(0usize..5).prop_map(|i| OCTETS[i]), 0u32..256];
    (0usize..4, octet(), octet()).prop_map(|(b, c, d)| Ipv4Addr(BLOCKS[b] | c << 8 | d))
}

/// A prefix of [`arb_block_addr`], its length on either side of an octet
/// boundary: nested prefixes cross every level of the trie.
fn arb_nested_prefix() -> impl Strategy<Value = Prefix> {
    const LENS: [u8; 13] = [0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32];
    (arb_block_addr(), 0usize..LENS.len()).prop_map(|(a, i)| Prefix::new(a, LENS[i]))
}

/// Longest-prefix match by linear scan: the reference for every lookup.
fn linear_lpm<V>(table: &BTreeMap<Prefix, V>, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
    table
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, v))
}

fn arb_port() -> impl Strategy<Value = PortId> {
    prop_oneof![
        (0u32..8, 0u8..3).prop_map(|(p, i)| PortId::Phys(ParticipantId(p), i)),
        (0u32..8).prop_map(|p| PortId::Virt(ParticipantId(p))),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_addr(),
        arb_addr(),
        any::<u16>(),
        any::<u16>(),
        prop_oneof![Just(IpProto::Tcp), Just(IpProto::Udp), Just(IpProto::Icmp)],
        0u32..64,
        0u32..64,
    )
        .prop_map(|(s, d, ts, td, proto, ms, md)| {
            let mut p = Packet::tcp(s, d, ts, td);
            p.nw_proto = proto;
            p.dl_src = MacAddr::physical(ms);
            p.dl_dst = MacAddr::vmac(md);
            p
        })
}

fn arb_located() -> impl Strategy<Value = LocatedPacket> {
    (arb_port(), arb_packet()).prop_map(|(l, p)| LocatedPacket::at(l, p))
}

fn arb_field() -> impl Strategy<Value = FieldMatch> {
    prop_oneof![
        arb_port().prop_map(FieldMatch::InPort),
        arb_prefix().prop_map(FieldMatch::NwSrc),
        arb_prefix().prop_map(FieldMatch::NwDst),
        (0u16..2048).prop_map(FieldMatch::TpSrc),
        (0u16..2048).prop_map(FieldMatch::TpDst),
        prop_oneof![Just(IpProto::Tcp), Just(IpProto::Udp)].prop_map(FieldMatch::NwProto),
        prop_oneof![Just(EtherType::Ipv4), Just(EtherType::Arp)].prop_map(FieldMatch::EthType),
        (0u32..16).prop_map(|i| FieldMatch::DlDst(MacAddr::vmac(i))),
    ]
}

fn arb_match() -> impl Strategy<Value = HeaderMatch> {
    proptest::collection::vec(arb_field(), 0..4).prop_map(|fs| {
        let mut m = HeaderMatch::any();
        for f in fs {
            m.set(f);
        }
        m
    })
}

fn arb_mods() -> impl Strategy<Value = Vec<Mod>> {
    proptest::collection::vec(
        prop_oneof![
            arb_port().prop_map(Mod::SetLoc),
            arb_addr().prop_map(Mod::SetNwSrc),
            arb_addr().prop_map(Mod::SetNwDst),
            (0u16..2048).prop_map(Mod::SetTpDst),
            (0u32..16).prop_map(|i| Mod::SetDlDst(MacAddr::vmac(i))),
        ],
        0..4,
    )
}

/// Writes over few viewers and nested prefixes, so they collide.
fn arb_write() -> impl Strategy<Value = Write<u8, u16>> {
    let slot = prop_oneof![
        Just(Slot::Inherit),
        Just(Slot::Withheld),
        (0u16..4).prop_map(Slot::Own),
        (0u16..4).prop_map(Slot::Own),
    ];
    prop_oneof![
        (arb_nested_prefix(), proptest::option::of(0u16..4))
            .prop_map(|(prefix, value)| Write::Base { prefix, value }),
        (0u8..4, arb_nested_prefix(), slot).prop_map(|(viewer, prefix, slot)| Write::Slot {
            viewer,
            prefix,
            slot
        }),
        (0u8..4, any::<bool>())
            .prop_map(|(viewer, subscribed)| Write::Subscription { viewer, subscribed }),
    ]
}

/// One table per viewer, kept by replaying every write to every viewer it
/// concerns: what [`ViewTable`] stands in for. Ordered maps, so the
/// reference shares no code with the trie under the table.
#[derive(Default)]
struct Materialised {
    subscribed: [bool; 4],
    base: BTreeMap<Prefix, u16>,
    /// Per viewer: its own slots (`None`: withheld).
    own: [BTreeMap<Prefix, Option<u16>>; 4],
}

impl Materialised {
    fn apply(&mut self, write: &Write<u8, u16>) {
        match *write {
            Write::Base { prefix, value } => match value {
                Some(v) => drop(self.base.insert(prefix, v)),
                None => drop(self.base.remove(&prefix)),
            },
            Write::Slot {
                viewer,
                prefix,
                slot,
            } => {
                let own = &mut self.own[viewer as usize];
                match slot {
                    Slot::Inherit => drop(own.remove(&prefix)),
                    Slot::Withheld => drop(own.insert(prefix, None)),
                    Slot::Own(v) => drop(own.insert(prefix, Some(v))),
                }
            }
            Write::Subscription { viewer, subscribed } => {
                self.subscribed[viewer as usize] = subscribed;
            }
        }
    }

    /// Who is subscribed: per viewer, then as an ascending list.
    fn subscriptions(&self) -> ([bool; 4], Vec<u8>) {
        let listed = (0..4u8).filter(|&v| self.subscribed[v as usize]).collect();
        (self.subscribed, listed)
    }

    /// The table `viewer` would hold on its own.
    fn table_of(&self, viewer: u8) -> BTreeMap<Prefix, u16> {
        let mut table = BTreeMap::new();
        if self.subscribed[viewer as usize] {
            table = self.base.clone();
        }
        for (prefix, own) in &self.own[viewer as usize] {
            match own {
                Some(v) => drop(table.insert(*prefix, *v)),
                None => drop(table.remove(prefix)),
            }
        }
        table
    }
}

/// What `table` says of its subscriptions, in the model's terms: each
/// viewer's [`ViewTable::is_subscribed`], then its `subscribers()`.
fn subscriptions(table: &ViewTable<u8, u16>) -> ([bool; 4], Vec<u8>) {
    let each = std::array::from_fn(|v| table.is_subscribed(v as u8));
    (each, table.subscribers().collect())
}

proptest! {
    /// Every viewer of a [`ViewTable`] sees — at a prefix, by longest
    /// match, in iteration — what a table of its own would hold after
    /// the same writes; the stored count is bases plus slots; the
    /// subscriptions, tested one by one and listed in ascending order,
    /// are the model's after every write and after its inverse; and each
    /// write's inverse puts the table back, structure included.
    #[test]
    fn view_table_shows_each_viewer_its_own_table(
        writes in proptest::collection::vec(arb_write(), 0..48),
        probes in proptest::collection::vec(arb_block_addr(), 1..8),
    ) {
        let mut table: ViewTable<u8, u16> = ViewTable::new();
        let mut model = Materialised::default();
        for write in &writes {
            let before = table.clone();
            let was = model.subscriptions();
            let inverse = table.apply(write.clone());
            model.apply(write);
            prop_assert_eq!(subscriptions(&table), model.subscriptions(), "after {:?}", write);
            let mut undone = table.clone();
            undone.apply(inverse);
            prop_assert_eq!(subscriptions(&undone), was, "after undoing {:?}", write);
            prop_assert_eq!(undone, before, "inverse of {:?}", write);
        }
        let slots: usize = model.own.iter().map(BTreeMap::len).sum();
        prop_assert_eq!(table.stored(), model.base.len() + slots);
        for viewer in 0..4u8 {
            let own = model.table_of(viewer);
            let seen: Vec<(Prefix, u16)> = table.view(viewer).iter().map(|(p, v)| (p, *v)).collect();
            let expect: Vec<(Prefix, u16)> = own.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(seen, expect, "viewer {}", viewer);
            for &addr in &probes {
                prop_assert_eq!(table.lookup(viewer, addr), linear_lpm(&own, addr));
            }
            for (prefix, v) in &own {
                prop_assert_eq!(table.get(viewer, *prefix), Some(v));
            }
        }
    }

    /// [`ViewTable::write_base`] (no viewers: the base) and a one-prefix
    /// [`ViewTable::write_run`] per listed viewer, in the listed order,
    /// make exactly the writes that `reconcile_base` / `reconcile_slot`
    /// plan and `apply` then performs one at a time: an equal table, trie
    /// structure included, and the same inverses in the same order — so
    /// several viewers written at one prefix stay checked. Every
    /// subscribed viewer written for then sees `want`, and replaying the
    /// inverses backwards gives back the pre-image.
    #[test]
    fn one_walk_writes_equal_the_planned_writes(
        writes in proptest::collection::vec(arb_write(), 0..48),
        viewers in proptest::collection::vec(0u8..4, 0..5),
        prefix in arb_nested_prefix(),
        want in proptest::option::of(0u16..4),
    ) {
        let mut table: ViewTable<u8, u16> = ViewTable::new();
        for write in writes {
            table.apply(write);
        }
        let before = (table.clone(), format!("{table:?}"));
        let mut planned = table.clone();
        let mut planned_inverses = Vec::new();
        let plans: Vec<Option<u8>> = match viewers.is_empty() {
            true => vec![None],
            false => viewers.iter().copied().map(Some).collect(),
        };
        for viewer in plans {
            let plan = match viewer {
                None => planned.reconcile_base(prefix, want, u16::eq, |v| v),
                Some(viewer) => planned.reconcile_slot(viewer, prefix, want, u16::eq, |v| v),
            };
            if let Some(write) = plan {
                planned_inverses.push(planned.apply(write));
            }
        }
        let mut inverses = Vec::new();
        let written = match viewers.is_empty() {
            true => {
                let wrote = table.write_base(prefix, want, u16::eq, |v| v, |w| inverses.push(w));
                usize::from(wrote)
            }
            false => viewers
                .iter()
                .map(|&viewer| {
                    let undo = |w| inverses.push(w);
                    table.write_run(viewer, [(prefix, want)], u16::eq, |v| *v, undo)
                })
                .sum(),
        };
        prop_assert_eq!(&table, &planned);
        prop_assert_eq!(table.stored(), planned.stored());
        prop_assert_eq!(&inverses, &planned_inverses);
        prop_assert_eq!(written, inverses.len());
        if viewers.is_empty() {
            prop_assert_eq!(table.base(prefix), want.as_ref());
        }
        for &viewer in viewers.iter().filter(|&&v| table.is_subscribed(v)) {
            prop_assert_eq!(table.get(viewer, prefix), want.as_ref(), "viewer {}", viewer);
        }
        for inverse in inverses.into_iter().rev() {
            table.apply(inverse);
        }
        prop_assert_eq!(format!("{table:?}"), before.1);
        prop_assert_eq!(table, before.0);
    }

    /// Trie LPM agrees with a brute-force linear scan.
    #[test]
    fn trie_lpm_matches_linear_scan(
        entries in proptest::collection::vec(arb_nested_prefix(), 0..64),
        probes in proptest::collection::vec(arb_block_addr(), 0..32),
    ) {
        let trie: PrefixTrie<usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        // Later inserts win, in the trie as in the map.
        let model: BTreeMap<Prefix, usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        prop_assert_eq!(trie.len(), model.len());
        for a in probes {
            prop_assert_eq!(trie.lookup(a), linear_lpm(&model, a), "probe {:?}", a);
        }
    }

    /// Trie exact get/remove agree with a map, and removals interleaved
    /// with reads leave `covered_by`, iteration and the count agreeing
    /// too, down to the empty trie, node for node.
    #[test]
    fn trie_get_remove(
        entries in proptest::collection::vec(arb_nested_prefix(), 0..48),
        coverings in proptest::collection::vec(arb_nested_prefix(), 1..4),
        order in any::<u64>(),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model = BTreeMap::new();
        for (i, p) in entries.iter().enumerate() {
            prop_assert_eq!(trie.insert(*p, i), model.insert(*p, i));
        }
        for p in &entries {
            prop_assert_eq!(trie.get(*p), model.get(p));
        }
        let mut doomed = entries.clone();
        doomed.shuffle(&mut StdRng::seed_from_u64(order));
        for p in &doomed {
            prop_assert_eq!(trie.remove(*p), model.remove(p));
            prop_assert!(trie.get(*p).is_none());
            prop_assert_eq!(trie.len(), model.len());
            let seen: Vec<(Prefix, usize)> = trie.iter().map(|(p, v)| (p, *v)).collect();
            let expect: Vec<(Prefix, usize)> = model.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(seen, expect, "after removing {:?}", p);
            for &covering in &coverings {
                let seen: Vec<(Prefix, usize)> =
                    trie.covered_by(covering).into_iter().map(|(p, v)| (p, *v)).collect();
                let expect: Vec<(Prefix, usize)> = model
                    .iter()
                    .filter(|(p, _)| covering.covers(**p))
                    .map(|(p, v)| (*p, *v))
                    .collect();
                prop_assert_eq!(seen, expect, "covered by {:?}", covering);
            }
        }
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie, PrefixTrie::new());
    }

    /// `edit` inserts, replaces or removes in one walk, as `keep` decides
    /// of what it leaves, and the trie is then node for node the one built
    /// from scratch with the same contents.
    #[test]
    fn trie_edit_agrees_with_a_map(
        edits in proptest::collection::vec((arb_nested_prefix(), 0usize..4), 0..64),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model = BTreeMap::new();
        for (p, v) in edits {
            // 0 holds nothing: it removes the value, or creates none.
            let had = trie.edit(p, || 0, |held| std::mem::replace(held, v), |held| *held != 0);
            let was = if v == 0 { model.remove(&p) } else { model.insert(p, v) };
            prop_assert_eq!(had, was.unwrap_or(0));
            prop_assert_eq!(trie.len(), model.len());
            let rebuilt: PrefixTrie<usize> = model.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(&trie, &rebuilt, "after editing {:?} to {}", p, v);
        }
    }

    /// Trie iteration is sorted and covers exactly the inserted set.
    #[test]
    fn trie_iteration_sorted(entries in proptest::collection::vec(arb_nested_prefix(), 0..64)) {
        let trie: PrefixTrie<()> = entries.iter().map(|p| (*p, ())).collect();
        let keys: Vec<_> = trie.keys().collect();
        let mut expect: Vec<_> = entries.clone();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(keys, expect);
    }

    /// Prefix containment is equivalent to first/last interval containment.
    #[test]
    fn prefix_covers_iff_interval(a in arb_prefix(), b in arb_prefix()) {
        let interval = a.first() <= b.first() && b.last() <= a.last();
        prop_assert_eq!(a.covers(b), interval);
    }

    /// Prefix intersect is the exact set intersection (checked on samples).
    #[test]
    fn prefix_intersect_sound(a in arb_prefix(), b in arb_prefix(), probe in arb_addr()) {
        match a.intersect(b) {
            Some(i) => {
                prop_assert_eq!(i.contains(probe), a.contains(probe) && b.contains(probe));
            }
            None => {
                prop_assert!(!(a.contains(probe) && b.contains(probe)));
            }
        }
    }

    /// HeaderMatch intersection is the exact set intersection.
    #[test]
    fn match_intersection_sound(a in arb_match(), b in arb_match(), lp in arb_located()) {
        match a.intersect(&b) {
            Some(i) => prop_assert_eq!(i.matches(&lp), a.matches(&lp) && b.matches(&lp)),
            None => prop_assert!(!(a.matches(&lp) && b.matches(&lp))),
        }
    }

    /// Intersection is commutative as a set (membership-wise).
    #[test]
    fn match_intersection_commutes(a in arb_match(), b in arb_match(), lp in arb_located()) {
        let ab = a.intersect(&b).map(|m| m.matches(&lp)).unwrap_or(false);
        let ba = b.intersect(&a).map(|m| m.matches(&lp)).unwrap_or(false);
        prop_assert_eq!(ab, ba);
    }

    /// Subsumption implies membership implication.
    #[test]
    fn match_subsumption_sound(a in arb_match(), b in arb_match(), lp in arb_located()) {
        if a.subsumes(&b) && b.matches(&lp) {
            prop_assert!(a.matches(&lp));
        }
    }

    /// The intersection is subsumed by both operands — together with
    /// [`match_intersection_sound`] this is the candidate-merge law the
    /// compiled data-plane matcher leans on: a bucket keyed by a refined
    /// pattern only ever holds rules whose full pattern still covers it.
    #[test]
    fn match_intersect_subsumed_by_operands(a in arb_match(), b in arb_match()) {
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.subsumes(&i));
            prop_assert!(b.subsumes(&i));
        }
    }

    /// Subsumption is reflexive and transitive (a partial order on
    /// patterns), so priority-sorted candidate buckets can prune against
    /// the best-so-far without re-checking dominated patterns.
    #[test]
    fn match_subsumption_is_a_preorder(a in arb_match(), b in arb_match(), c in arb_match()) {
        prop_assert!(a.subsumes(&a));
        if a.subsumes(&b) && b.subsumes(&c) {
            prop_assert!(a.subsumes(&c));
        }
    }

    /// When `a` subsumes `b`, intersecting changes nothing: `a ∩ b`
    /// exists and matches exactly the packets `b` does.
    #[test]
    fn match_subsumed_intersection_is_identity(
        a in arb_match(),
        b in arb_match(),
        lp in arb_located(),
    ) {
        if a.subsumes(&b) {
            let i = a.intersect(&b);
            prop_assert!(i.is_some(), "a ⊇ b but a ∩ b = ∅");
            prop_assert_eq!(i.unwrap().matches(&lp), b.matches(&lp));
        }
    }

    /// `for_each_match` visits exactly the stored prefixes containing the
    /// address, least-specific first — the covering-set walk the compiled
    /// matcher's nw_dst index uses.
    #[test]
    fn trie_for_each_match_is_covering_set(
        entries in proptest::collection::vec(arb_nested_prefix(), 0..64),
        probe in arb_block_addr(),
    ) {
        let trie: PrefixTrie<usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let model: BTreeMap<Prefix, usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut got = Vec::new();
        trie.for_each_match(probe, |v| got.push(*v));
        let mut expect: Vec<(Prefix, usize)> = model
            .into_iter()
            .filter(|(p, _)| p.contains(probe))
            .collect();
        expect.sort_by_key(|(p, _)| p.len());
        prop_assert_eq!(got, expect.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
    }

    /// seq_compose is exactly "match m1, apply mods, match m2".
    #[test]
    fn seq_compose_sound(
        m1 in arb_match(),
        mods in arb_mods(),
        m2 in arb_match(),
        lp in arb_located(),
    ) {
        let mut after = lp;
        for m in &mods {
            m.apply(&mut after);
        }
        let direct = m1.matches(&lp) && m2.matches(&after);
        let composed = m1
            .seq_compose(&mods, &m2)
            .map(|m| m.matches(&lp))
            .unwrap_or(false);
        prop_assert_eq!(composed, direct);
    }

    /// Prefix text roundtrip.
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        prop_assert_eq!(s.parse::<Prefix>().unwrap(), p);
    }

    /// MAC text roundtrip.
    #[test]
    fn mac_display_parse_roundtrip(bytes in any::<[u8; 6]>()) {
        let m = MacAddr(bytes);
        prop_assert_eq!(m.to_string().parse::<MacAddr>().unwrap(), m);
    }
}

/// Longest-prefix match by brute force over the lengths: the map's entry
/// at each of the address's 33 prefixes, longest first.
fn every_length_lpm<V>(table: &BTreeMap<Prefix, V>, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
    (0..=32).rev().find_map(|len| {
        let p = Prefix::new(addr, len);
        table.get(&p).map(|v| (p, v))
    })
}

/// A hundred thousand seeded prefixes of every length, most of them /24
/// as in a full table, packed into 128 /16s so that nodes fill: every
/// probe's lookup equals the brute-force match before and after half of
/// them are removed, and removing the rest leaves the empty trie.
#[test]
fn a_hundred_thousand_mixed_prefixes_match_brute_force() {
    let mut rng = StdRng::seed_from_u64(29);
    let addr = |rng: &mut StdRng| {
        let block = 10 + 64 * rng.gen_range(0..4u32);
        Ipv4Addr(block << 24 | rng.gen_range(0..32u32) << 16 | rng.gen_range(0..1u32 << 16))
    };
    let mut trie = PrefixTrie::new();
    let mut model = BTreeMap::new();
    while model.len() < 100_000 {
        let len = if rng.gen_bool(0.6) {
            24
        } else {
            rng.gen_range(0..=32u8)
        };
        let (p, v) = (Prefix::new(addr(&mut rng), len), rng.gen::<u32>());
        assert_eq!(trie.insert(p, v), model.insert(p, v));
    }
    assert_eq!(trie.len(), model.len());
    assert!(trie.iter().eq(model.iter().map(|(p, v)| (*p, v))));
    let probes: Vec<Ipv4Addr> = (0..20_000).map(|_| addr(&mut rng)).collect();
    let check = |trie: &PrefixTrie<u32>, model: &BTreeMap<Prefix, u32>| {
        for &a in &probes {
            assert_eq!(trie.lookup(a), every_length_lpm(model, a), "probe {a}");
        }
    };
    check(&trie, &model);
    let mut doomed: Vec<Prefix> = model.keys().copied().collect();
    doomed.shuffle(&mut rng);
    let (first, rest) = doomed.split_at(doomed.len() / 2);
    for p in first {
        assert_eq!(trie.remove(*p), model.remove(p));
    }
    check(&trie, &model);
    for p in rest {
        assert_eq!(trie.remove(*p), model.remove(p));
    }
    assert_eq!(trie, PrefixTrie::new());
}
