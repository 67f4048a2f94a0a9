//! Integration test: the multi-stage FIB of §4.2 / Figure 2.
//!
//! Stage 1 (prefix → tag) lives in the participant's own border router,
//! realized purely through standard BGP mechanics: the route server
//! re-advertises routes with a virtual next hop, the router ARPs for it,
//! and the SDX ARP responder answers with the VMAC. Stage 2 (tag →
//! action) is the fabric flow table. These tests pin the division of
//! labour and the table-size claims.

use sdx::core::controller::SdxController;
use sdx::ixp::testkit;
use sdx::net::{ip, Packet, ParticipantId, PortId};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// A viewer with a port-80 policy toward B; B and C announce 64 prefixes
/// each with identical behaviour (see [`testkit::multistage_exchange`]).
fn setup() -> (
    SdxController,
    sdx::openflow::fabric::Fabric,
    Vec<sdx::net::Prefix>,
) {
    let (mut ctl, prefixes) = testkit::multistage_exchange();
    let fabric = ctl.deploy().expect("deploy");
    (ctl, fabric, prefixes)
}

#[test]
fn stage1_lives_in_the_border_router() {
    let (ctl, fabric, prefixes) = setup();
    let router = fabric.router(PortId::Phys(pid(1), 1)).expect("A's router");
    // The router holds one FIB entry per prefix — state it needs anyway —
    // and every entry points at a VNH in the controller's pool.
    assert_eq!(router.fib_len(), prefixes.len());
    for p in &prefixes {
        let (_, next_hop) = router.route_for(p.addr()).expect("route");
        assert!(
            ctl.vnh.contains(next_hop),
            "{p} must resolve through a virtual next hop"
        );
    }
}

#[test]
fn equivalence_classes_compress_the_switch_table() {
    let (ctl, fabric, prefixes) = setup();
    // All 64 prefixes share one forwarding behaviour → one FEC for A.
    let report = ctl.report.as_ref().expect("compiled");
    assert_eq!(report.groups[&pid(1)].len(), 1);
    // The switch table is far smaller than the prefix count (the whole
    // point of Figure 2's split): a handful of VMAC + MAC + policy rules.
    let table = fabric.switch.table();
    assert!(
        table.len() < prefixes.len() / 2,
        "{} rules for {} prefixes",
        table.len(),
        prefixes.len()
    );
}

#[test]
fn tag_is_applied_by_bgp_plus_arp_only() {
    let (_ctl, fabric, _) = setup();
    // Forward a packet: the router's output already carries the FEC tag in
    // dl_dst, before the switch ever sees it.
    let tagged = fabric
        .router(PortId::Phys(pid(1), 1))
        .expect("router")
        .forward(
            Packet::tcp(ip("9.9.9.9"), ip("10.3.0.1"), 40_000, 80),
            &fabric.arp,
        )
        .expect("has route + ARP");
    assert!(
        tagged.pkt.dl_dst.is_vmac(),
        "stage-1 output carries the tag"
    );
}

#[test]
fn per_viewer_tags_imply_the_sender() {
    let (ctl, _fabric, prefixes) = setup();
    let report = ctl.report.as_ref().expect("compiled");
    // Every VMAC rule in the final classifier omits the in-port match —
    // §4.2's offloading means the tag itself implies the sender.
    let mut vmac_rules = 0;
    for r in report.classifier.rules() {
        if r.matches.dl_dst.is_some_and(|m| m.is_vmac()) {
            assert_eq!(r.matches.in_port, None, "VMAC rule must not re-isolate");
            vmac_rules += 1;
        }
    }
    assert!(vmac_rules >= 2, "policy + default rules for the FEC");
    let _ = prefixes;
}

#[test]
fn withdrawing_one_prefix_splits_the_group() {
    let (mut ctl, mut fabric, prefixes) = setup();
    // C withdraws one member prefix: its best route flips to B, so it can
    // no longer share a group with the rest. The fast path gives it a
    // fresh tag without touching the other 63 prefixes' FIB entries.
    let victim = prefixes[5];
    let before: Vec<_> = prefixes
        .iter()
        .filter(|p| **p != victim)
        .map(|p| {
            fabric
                .router(PortId::Phys(pid(1), 1))
                .expect("router")
                .route_for(p.addr())
                .expect("route")
                .1
        })
        .collect();
    ctl.process_update(
        pid(3),
        &sdx::bgp::msg::UpdateMessage::withdraw([victim]),
        &mut fabric,
    )
    .expect("fast path");
    let router = fabric.router(PortId::Phys(pid(1), 1)).expect("router");
    let after: Vec<_> = prefixes
        .iter()
        .filter(|p| **p != victim)
        .map(|p| router.route_for(p.addr()).expect("route").1)
        .collect();
    assert_eq!(before, after, "unaffected prefixes keep their VNH");
    // And traffic to the victim still flows (now via B).
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), victim.addr().saturating_add(1), 40_000, 80),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].loc.participant(), pid(2));
}
