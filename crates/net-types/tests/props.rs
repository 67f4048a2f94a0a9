//! Property-based tests for the foundational types.
//!
//! These pin down the algebraic laws the rest of the workspace relies on:
//! the trie agrees with a linear scan, prefix set-operations behave like set
//! operations, header-match intersection is a true set intersection, and
//! the shared view table shows each viewer what a table of its own would.

use proptest::prelude::*;
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
    let prefix = || {
        (0u32..3, prop_oneof![Just(8u8), Just(9), Just(16)])
            .prop_map(|(a, len)| Prefix::new(Ipv4Addr((10 + a) << 24), len))
    };
    let slot = prop_oneof![
        Just(Slot::Inherit),
        Just(Slot::Withheld),
        (0u16..4).prop_map(Slot::Own),
        (0u16..4).prop_map(Slot::Own),
    ];
    prop_oneof![
        (prefix(), proptest::option::of(0u16..4))
            .prop_map(|(prefix, value)| Write::Base { prefix, value }),
        (0u8..4, prefix(), slot).prop_map(|(viewer, prefix, slot)| Write::Slot {
            viewer,
            prefix,
            slot
        }),
        (0u8..4, any::<bool>())
            .prop_map(|(viewer, subscribed)| Write::Subscription { viewer, subscribed }),
    ]
}

/// One trie per viewer, kept by replaying every write to every viewer it
/// concerns: what [`ViewTable`] stands in for.
#[derive(Default)]
struct Materialised {
    subscribed: [bool; 4],
    base: PrefixTrie<u16>,
    /// Per viewer: its own slots (`None`: withheld).
    own: [PrefixTrie<Option<u16>>; 4],
}

impl Materialised {
    fn apply(&mut self, write: &Write<u8, u16>) {
        match *write {
            Write::Base { prefix, value } => match value {
                Some(v) => drop(self.base.insert(prefix, v)),
                None => drop(self.base.remove(prefix)),
            },
            Write::Slot {
                viewer,
                prefix,
                slot,
            } => {
                let own = &mut self.own[viewer as usize];
                match slot {
                    Slot::Inherit => drop(own.remove(prefix)),
                    Slot::Withheld => drop(own.insert(prefix, None)),
                    Slot::Own(v) => drop(own.insert(prefix, Some(v))),
                }
            }
            Write::Subscription { viewer, subscribed } => {
                self.subscribed[viewer as usize] = subscribed;
            }
        }
    }

    /// The table `viewer` would hold on its own.
    fn table_of(&self, viewer: u8) -> PrefixTrie<u16> {
        let mut table = PrefixTrie::new();
        if self.subscribed[viewer as usize] {
            table = self.base.clone();
        }
        for (prefix, own) in self.own[viewer as usize].iter() {
            match own {
                Some(v) => drop(table.insert(prefix, *v)),
                None => drop(table.remove(prefix)),
            }
        }
        table
    }
}

proptest! {
    /// Every viewer of a [`ViewTable`] sees — at a prefix, by longest
    /// match, in iteration — what a table of its own would hold after
    /// the same writes; the stored count is bases plus slots; and each
    /// write's inverse puts the table back, structure included.
    #[test]
    fn view_table_shows_each_viewer_its_own_table(
        writes in proptest::collection::vec(arb_write(), 0..48),
        probes in proptest::collection::vec((10u32..13, any::<u32>()), 1..8),
    ) {
        let mut table: ViewTable<u8, u16> = ViewTable::new();
        let mut model = Materialised::default();
        for write in &writes {
            let before = table.clone();
            let inverse = table.apply(write.clone());
            model.apply(write);
            let mut undone = table.clone();
            undone.apply(inverse);
            prop_assert_eq!(undone, before, "inverse of {:?}", write);
        }
        let slots: usize = model.own.iter().map(PrefixTrie::len).sum();
        prop_assert_eq!(table.stored(), model.base.len() + slots);
        for viewer in 0..4u8 {
            let own = model.table_of(viewer);
            let seen: Vec<(Prefix, u16)> = table.view(viewer).iter().map(|(p, v)| (p, *v)).collect();
            let expect: Vec<(Prefix, u16)> = own.iter().map(|(p, v)| (p, *v)).collect();
            prop_assert_eq!(seen, expect, "viewer {}", viewer);
            for &(block, rest) in &probes {
                let addr = Ipv4Addr(block << 24 | rest >> 8);
                prop_assert_eq!(table.lookup(viewer, addr), own.lookup(addr));
            }
            for (prefix, v) in own.iter() {
                prop_assert_eq!(table.get(viewer, prefix), Some(v));
            }
        }
    }

    /// Trie LPM agrees with a brute-force linear scan.
    #[test]
    fn trie_lpm_matches_linear_scan(
        entries in proptest::collection::vec(arb_prefix(), 0..64),
        probes in proptest::collection::vec(arb_addr(), 0..32),
    ) {
        let trie: PrefixTrie<usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        // Deduplicate like the trie does (later insert wins).
        let mut dedup: Vec<(Prefix, usize)> = Vec::new();
        for (i, p) in entries.iter().enumerate() {
            if let Some(e) = dedup.iter_mut().find(|(q, _)| q == p) {
                e.1 = i;
            } else {
                dedup.push((*p, i));
            }
        }
        prop_assert_eq!(trie.len(), dedup.len());
        for a in probes {
            let expect = dedup
                .iter()
                .filter(|(p, _)| p.contains(a))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, v));
            let got = trie.lookup(a);
            prop_assert_eq!(got.map(|(p, v)| (p, *v)), expect.map(|(p, v)| (p, *v)));
        }
    }

    /// Trie exact get/remove agree with membership.
    #[test]
    fn trie_get_remove(entries in proptest::collection::vec(arb_prefix(), 0..40)) {
        let mut trie = PrefixTrie::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i);
        }
        for p in &entries {
            prop_assert!(trie.get(*p).is_some());
        }
        for p in &entries {
            trie.remove(*p);
            prop_assert!(trie.get(*p).is_none());
        }
        prop_assert!(trie.is_empty());
    }

    /// Trie iteration is sorted and covers exactly the inserted set.
    #[test]
    fn trie_iteration_sorted(entries in proptest::collection::vec(arb_prefix(), 0..40)) {
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
        entries in proptest::collection::vec(arb_prefix(), 0..48),
        probe in arb_addr(),
    ) {
        let trie: PrefixTrie<usize> =
            entries.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut got = Vec::new();
        trie.for_each_match(probe, |v| got.push(*v));
        let mut expect: Vec<(Prefix, usize)> = trie
            .iter()
            .filter(|(p, _)| p.contains(probe))
            .map(|(p, v)| (p, *v))
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

    /// Ethernet/IPv4 frame roundtrip for TCP and UDP packets.
    #[test]
    fn frame_roundtrip(pkt in arb_packet(), len in 0u32..512, udp in any::<bool>()) {
        let mut p = pkt;
        p.payload_len = len;
        p.nw_proto = if udp { IpProto::Udp } else { IpProto::Tcp };
        p.eth_type = EtherType::Ipv4;
        let frame = sdx_net::wire::encode_frame(&p);
        prop_assert_eq!(sdx_net::wire::decode_frame(&frame).unwrap(), p);
    }

    /// The frame decoder never panics on arbitrary bytes.
    #[test]
    fn frame_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = sdx_net::wire::decode_frame(&bytes);
        let _ = sdx_net::wire::decode_arp(&bytes);
    }

    /// Any single-byte corruption of the IPv4 header is caught by the
    /// checksum (or changes the packet in a detectable way).
    #[test]
    fn header_corruption_detected(pkt in arb_packet(), byte in 14usize..34, flip in 1u8..=255) {
        let mut p = pkt;
        p.eth_type = EtherType::Ipv4;
        p.payload_len = 0;
        let mut frame = sdx_net::wire::encode_frame(&p);
        frame[byte] ^= flip;
        match sdx_net::wire::decode_frame(&frame) {
            Err(_) => {} // rejected: good
            Ok(decoded) => prop_assert_ne!(decoded, p, "silent corruption"),
        }
    }
}
