//! Property-based testing of whole exchanges: random participant
//! populations, announcements, export policies, and participant policies
//! — and on every generated exchange, the SDX's core guarantees:
//!
//! 1. **BGP consistency** — a participant only ever receives traffic for
//!    prefixes it exported to the sender (§4.1 invariant 1);
//! 2. **unicast delivery** — outbound policies are unicast and the fabric
//!    never duplicates;
//! 3. **no hairpins, no virtual leaks** — deliveries land on physical
//!    ports of *other* participants;
//! 4. **policy-or-default** — traffic either matches the sender's policy
//!    toward an exporting target or follows the sender's best BGP route;
//! 5. **tags stay inside** — delivered frames never carry VMACs.

use proptest::prelude::*;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId, Prefix};
use sdx::policy::Policy as P;

#[derive(Clone, Debug)]
struct ExchangeSpec {
    /// Per participant: announced /8 octets (disjointness by first octet).
    announcements: Vec<Vec<u8>>,
    /// (announcer idx, denied-peer idx, octet) export denials.
    denials: Vec<(usize, usize, u8)>,
    /// (sender idx, dst-port classifier, target idx) outbound clauses.
    outbound: Vec<(usize, u16, usize)>,
}

fn arb_spec() -> impl Strategy<Value = ExchangeSpec> {
    let n = 4usize;
    (
        proptest::collection::vec(proptest::collection::vec(10u8..40, 1..4), n..=n),
        proptest::collection::vec((0usize..n, 0usize..n, 10u8..40), 0..4),
        proptest::collection::vec(
            (
                0usize..n,
                prop_oneof![Just(80u16), Just(443), Just(53)],
                0usize..n,
            ),
            0..5,
        ),
    )
        .prop_map(|(announcements, denials, outbound)| ExchangeSpec {
            announcements,
            denials,
            outbound,
        })
}

/// The clauses that actually get installed: the first clause per
/// `(sender, port)` pair wins (later duplicates are dropped to keep each
/// policy unicast). The oracle below uses the same view.
fn effective_clauses(spec: &ExchangeSpec) -> Vec<(usize, u16, usize)> {
    let mut seen: std::collections::BTreeSet<(usize, u16)> = Default::default();
    spec.outbound
        .iter()
        .copied()
        .filter(|&(sender, port, target)| sender != target && seen.insert((sender, port)))
        .collect()
}

fn build(spec: &ExchangeSpec) -> Option<(SdxController, sdx::openflow::fabric::Fabric)> {
    let n = spec.announcements.len();
    let mut ctl = SdxController::new();
    let cfgs: Vec<ParticipantConfig> = (1..=n as u32)
        .map(|i| ParticipantConfig::new(i, 65000 + i, 1))
        .collect();
    for (i, cfg) in cfgs.iter().enumerate() {
        let mut export = ExportPolicy::allow_all();
        for &(announcer, denied, octet) in &spec.denials {
            if announcer == i && denied != i {
                export.deny(
                    ParticipantId(denied as u32 + 1),
                    Prefix::new(Ipv4Addr::new(octet, 0, 0, 0), 8),
                );
            }
        }
        ctl.add_participant(cfg.clone(), export);
    }
    for (i, octets) in spec.announcements.iter().enumerate() {
        let prefixes: Vec<Prefix> = octets
            .iter()
            .map(|&o| Prefix::new(Ipv4Addr::new(o, 0, 0, 0), 8))
            .collect();
        let path: Vec<u32> = vec![65001 + i as u32, 900 + i as u32];
        ctl.rs.process_update(
            ParticipantId(i as u32 + 1),
            &cfgs[i].announce(prefixes, &path),
        );
    }
    // Distinct dst ports per sender keep each policy unicast.
    for (sender, port, target) in effective_clauses(spec) {
        let clause = P::match_(FieldMatch::TpDst(port))
            >> P::fwd(PortId::Virt(ParticipantId(target as u32 + 1)));
        let slot = &mut ctl
            .compiler
            .participants()
            .get(&ParticipantId(sender as u32 + 1))
            .cloned();
        let merged = match slot.as_ref().and_then(|c| c.outbound.clone()) {
            Some(p) => p + clause,
            None => clause,
        };
        ctl.set_outbound(ParticipantId(sender as u32 + 1), Some(merged));
    }
    let fabric = ctl.deploy().ok()?;
    Some((ctl, fabric))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_invariants(spec in arb_spec(), probe_port in prop_oneof![Just(80u16), Just(443), Just(53), Just(22)]) {
        let Some((ctl, fabric)) = build(&spec) else {
            // Some random specs are rejected at install time (fine).
            return Ok(());
        };
        let n = spec.announcements.len();
        // Probe every sender × every announced /8.
        let mut dsts: Vec<u8> = spec.announcements.concat();
        dsts.sort();
        dsts.dedup();
        for sender in 1..=n as u32 {
            for &octet in &dsts {
                let dst = Ipv4Addr::new(octet, 1, 2, 3);
                let p = Prefix::new(Ipv4Addr::new(octet, 0, 0, 0), 8);
                let out = fabric.send(
                    PortId::Phys(ParticipantId(sender), 1),
                    Packet::tcp(Ipv4Addr::new(200, sender as u8, 0, 1), dst, 40000, probe_port),
                );
                // (2) unicast.
                prop_assert!(out.len() <= 1, "duplicate delivery: {out:?}");
                if let Some(d) = out.first() {
                    let receiver = d.loc.participant();
                    // (3) physical, non-hairpin.
                    prop_assert!(d.loc.is_physical());
                    prop_assert_ne!(receiver, ParticipantId(sender));
                    // (5) no VMAC leaks.
                    prop_assert!(!d.pkt.dl_dst.is_vmac());
                    // (1) BGP consistency: the receiver exported p to sender.
                    let reach: Vec<_> = ctl.rs.reachable_via(ParticipantId(sender), p).collect();
                    prop_assert!(
                        reach.contains(&receiver),
                        "{receiver} never exported {p} to P{sender}"
                    );
                    // (4) policy-or-default.
                    let best = ctl
                        .rs
                        .best_for(ParticipantId(sender), p)
                        .map(|r| r.source.participant);
                    let policy_target = effective_clauses(&spec).into_iter().find_map(|(s, port, t)| {
                        (s + 1 == sender as usize
                            && port == probe_port
                            && reach.contains(&ParticipantId(t as u32 + 1)))
                        .then_some(ParticipantId(t as u32 + 1))
                    });
                    match policy_target {
                        Some(t) => prop_assert_eq!(receiver, t, "policy must win"),
                        None => prop_assert_eq!(Some(receiver), best, "default must be best route"),
                    }
                }
                let stuck = fabric.telemetry().counter("fabric.stuck_at_virtual.count");
                prop_assert_eq!(stuck.get(), 0);
            }
        }
    }
}
