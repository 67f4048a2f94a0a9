//! Integration tests for the virtual-switch isolation guarantees (§3.1):
//! "AS A cannot influence how ASes B and C forward packets on their own
//! virtual switches", plus the two BGP invariants of §4.1 that prevent
//! forwarding loops between edge routers, and port steering (`fwd(E1)`),
//! which bypasses the target's virtual switch, so middlebox hops written
//! as plain policies are traversed in order and terminate.

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::transform::TransformError;
use sdx::ixp::testkit;
use sdx::net::{ip, prefix, FieldMatch, Packet, ParticipantId, PortId};
use sdx::openflow::Fabric;
use sdx::policy::{Policy as P, Pred};
use sdx::SdxError;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// The shared A/B/C exchange (11/8, 22/8, 33/8 — one port each, exports
/// open); each test installs its own adversarial policies on top.
fn base_exchange() -> SdxController {
    testkit::three_party_exchange()
}

#[test]
fn outbound_policy_cannot_touch_other_senders_traffic() {
    // A installs an aggressive catch-all policy; B's traffic must still
    // follow B's own defaults, untouched.
    let mut ctl = base_exchange();
    ctl.set_outbound(
        pid(1),
        Some(P::filter(Pred::Any) >> P::fwd(PortId::Virt(pid(3)))),
    );
    let fabric = ctl.deploy().expect("deploy");
    // B sends to A's prefix: must reach A (B's default), NOT C.
    let out = fabric.send(
        PortId::Phys(pid(2), 1),
        Packet::tcp(ip("22.0.0.1"), ip("11.0.0.1"), 40_000, 80),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].loc.participant(), pid(1));
}

#[test]
fn matching_on_foreign_ports_is_rejected_at_install() {
    let mut ctl = base_exchange();
    // A tries to write a policy that matches traffic at B's physical port.
    ctl.set_outbound(
        pid(1),
        Some(
            P::match_(FieldMatch::InPort(PortId::Phys(pid(2), 1))) >> P::fwd(PortId::Virt(pid(3))),
        ),
    );
    let err = ctl.deploy().expect_err("isolation violation");
    assert!(
        matches!(err, SdxError::Transform(TransformError::MatchOutsideSwitch(p, _)) if p == pid(1))
    );
}

#[test]
fn inbound_policy_cannot_hijack_to_peer_switch() {
    let mut ctl = base_exchange();
    // B tries to bounce its inbound traffic to C's virtual switch.
    ctl.set_inbound(pid(2), Some(P::fwd(PortId::Virt(pid(3)))));
    let err = ctl.deploy().expect_err("isolation violation");
    assert!(
        matches!(err, SdxError::Transform(TransformError::InboundEscapesSwitch(p, _)) if p == pid(2))
    );
}

#[test]
fn never_forward_to_a_nonexporting_neighbor() {
    // §4.1 invariant 1: "a participant router can only receive traffic
    // destined to an IP prefix for which it has announced a corresponding
    // BGP route."
    let mut ctl = base_exchange();
    // A's policy explicitly tries to shove 33/8 traffic at B — but B never
    // announced 33/8, so the consistency filter erases the clause.
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::NwDst(prefix("33.0.0.0/8"))) >> P::fwd(PortId::Virt(pid(2)))),
    );
    let fabric = ctl.deploy().expect("deploy");
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("11.0.0.1"), ip("33.0.0.1"), 40_000, 80),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].loc.participant(),
        pid(3),
        "traffic must go to the real announcer, not B"
    );
}

#[test]
fn announcers_own_traffic_never_returns_to_fabric() {
    // §4.1 invariant 2: a router announcing p never forwards p's traffic
    // back into the fabric — the route server never reflects a
    // participant's own route back to it, so its FIB has no SDX entry.
    let mut ctl = base_exchange();
    let fabric = ctl.deploy().expect("deploy");
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip("11.0.0.5"), 40_000, 80),
    );
    assert!(
        out.is_empty(),
        "A's own prefix has no route at A's router: {out:?}"
    );
    let no_route = fabric.telemetry().counter("fabric.no_route.count");
    assert_eq!(no_route.get(), 1);
}

#[test]
fn policy_bearing_exchange_stays_loop_free() {
    // Every policy combination in a small exchange: probe the full
    // (src, dst, port) product and assert single delivery at a physical
    // port, never back to the sender.
    let mut ctl = base_exchange();
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    ctl.set_outbound(
        pid(2),
        Some(P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(3)))),
    );
    ctl.set_inbound(
        pid(3),
        Some(P::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1"))) >> P::fwd(PortId::Phys(pid(3), 1))),
    );
    let fabric = ctl.deploy().expect("deploy");
    for (sender, dst) in [
        (1u32, "22.0.0.1"),
        (1, "33.0.0.1"),
        (2, "11.0.0.1"),
        (2, "33.0.0.1"),
        (3, "11.0.0.1"),
        (3, "22.0.0.1"),
    ] {
        for port in [80u16, 443, 22] {
            let out = fabric.send(
                PortId::Phys(pid(sender), 1),
                Packet::tcp(ip("9.9.9.9"), ip(dst), 40_000, port),
            );
            assert!(out.len() <= 1, "unicast only");
            for d in &out {
                assert!(d.loc.is_physical());
                assert_ne!(d.loc.participant(), pid(sender), "loop to sender");
            }
        }
    }
    let stuck = fabric.telemetry().counter("fabric.stuck_at_virtual.count");
    assert_eq!(stuck.get(), 0);
}

/// The video class the middlebox chain below steers.
fn video() -> Pred {
    Pred::Test(FieldMatch::NwSrc(prefix("208.65.152.0/22")))
}

/// The A/B/C exchange plus middlebox hosts E and F, with a two-hop chain
/// written as plain policies: A's inbound policy diverts the video class
/// to E1, E steers what re-enters at E1 to F1, and F steers what
/// re-enters at F1 straight to A1, past A's divert.
fn chained_exchange() -> Fabric {
    let mut ctl = base_exchange();
    let (e1, f1) = (PortId::Phys(pid(5), 1), PortId::Phys(pid(6), 1));
    for id in [5, 6] {
        ctl.add_participant(
            ParticipantConfig::new(id, 65000 + id, 1),
            ExportPolicy::allow_all(),
        );
    }
    ctl.set_inbound(pid(1), Some(P::filter(video()) >> P::fwd(e1)));
    for (hop, next) in [(e1, f1), (f1, PortId::Phys(pid(1), 1))] {
        ctl.set_outbound(
            hop.participant(),
            Some(P::filter(Pred::Test(FieldMatch::InPort(hop)) & video()) >> P::fwd(next)),
        );
    }
    ctl.deploy().expect("deploy")
}

/// Sends `pkt` from `from` and follows it: a delivery at one of the
/// `boxes` ports is re-sent from that port, as a pass-through middlebox
/// would. Returns the port of each delivery in order, and stops after
/// more hops than there are boxes, so a loop shows as a repeated port.
/// Every frame must carry the MAC of the port it leaves on, or the box
/// there would not take it.
fn follow(fabric: &Fabric, from: PortId, pkt: Packet, boxes: &[PortId]) -> Vec<PortId> {
    let mut path = Vec::new();
    let mut out = fabric.send(from, pkt);
    while let [d] = out[..] {
        let mac = fabric.router(d.loc).map(|r| r.mac);
        assert_eq!(Some(d.pkt.dl_dst), mac, "frame for another MAC");
        path.push(d.loc);
        if !boxes.contains(&d.loc) || path.len() > boxes.len() {
            break;
        }
        out = fabric.send(d.loc, d.pkt);
    }
    path
}

#[test]
fn two_hop_chain_traverses_in_order() {
    let fabric = chained_exchange();
    let boxes = [PortId::Phys(pid(5), 1), PortId::Phys(pid(6), 1)];
    let path = follow(
        &fabric,
        PortId::Phys(pid(2), 1),
        Packet::udp(ip("208.65.153.9"), ip("11.0.0.1"), 1935, 40_000),
        &boxes,
    );
    assert_eq!(path, [boxes[0], boxes[1], PortId::Phys(pid(1), 1)]);
}

#[test]
fn non_matching_traffic_skips_the_chain() {
    let fabric = chained_exchange();
    let boxes = [PortId::Phys(pid(5), 1), PortId::Phys(pid(6), 1)];
    let path = follow(
        &fabric,
        PortId::Phys(pid(2), 1),
        Packet::udp(ip("151.101.1.1"), ip("11.0.0.1"), 443, 40_000),
        &boxes,
    );
    assert_eq!(path, [PortId::Phys(pid(1), 1)]);
}
