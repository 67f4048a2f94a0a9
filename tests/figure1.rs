//! Integration test: the paper's Figure 1 scenario, driven through the
//! public API only (controller + DSL + fabric), cross-checking every claim
//! §3 and §4.1 make about it.

use sdx::core::controller::SdxController;
use sdx::ixp::testkit;
use sdx::net::{ip, prefix, MacAddr, Packet, ParticipantId, PortId};
use sdx::openflow::BorderRouter;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// The Figure 1 exchange (A's policy, B's two ports + inbound TE + hidden
/// p4, the Figure 1b RIB), deployed. The exchange itself lives in
/// [`testkit::figure1_controller`], shared with the isolation, FIB, and
/// oracle suites.
fn figure1() -> (SdxController, sdx::openflow::fabric::Fabric) {
    let mut ctl = testkit::figure1_controller();
    let fabric = ctl.deploy().expect("deploy");
    (ctl, fabric)
}

fn send_from_a(
    fabric: &mut sdx::openflow::fabric::Fabric,
    src: &str,
    dst: &str,
    dport: u16,
) -> sdx::openflow::Deliveries {
    fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip(src), ip(dst), 40_000, dport),
    )
}

#[test]
fn application_specific_peering_applies() {
    let (_ctl, mut fabric) = figure1();
    // Web traffic to p1 goes via B even though C is A's best BGP route.
    let out = send_from_a(&mut fabric, "9.0.0.1", "10.0.0.1", 80);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].loc.participant(), pid(2));
    // HTTPS to p1 goes via C.
    let out = send_from_a(&mut fabric, "9.0.0.1", "10.0.0.1", 443);
    assert_eq!(out[0].loc.participant(), pid(3));
}

#[test]
fn inbound_te_picks_the_port() {
    let (_ctl, mut fabric) = figure1();
    let low = send_from_a(&mut fabric, "9.0.0.1", "10.0.0.1", 80);
    assert_eq!(low[0].loc, PortId::Phys(pid(2), 1), "low-half source → B1");
    let high = send_from_a(&mut fabric, "200.0.0.1", "10.0.0.1", 80);
    assert_eq!(
        high[0].loc,
        PortId::Phys(pid(2), 2),
        "high-half source → B2"
    );
}

#[test]
fn default_traffic_follows_best_bgp_route() {
    let (ctl, mut fabric) = figure1();
    // A's best route for p1 is via C (shorter AS path).
    assert_eq!(
        ctl.rs
            .best_for(pid(1), prefix("10.0.0.0/8"))
            .expect("has route")
            .source
            .participant,
        pid(3)
    );
    let out = send_from_a(&mut fabric, "9.0.0.1", "10.0.0.1", 22);
    assert_eq!(out[0].loc.participant(), pid(3));
    // p3 is only reachable via B.
    let out = send_from_a(&mut fabric, "9.0.0.1", "30.0.0.1", 22);
    assert_eq!(out[0].loc.participant(), pid(2));
}

#[test]
fn bgp_consistency_blocks_unexported_prefixes() {
    let (_ctl, mut fabric) = figure1();
    // B does not export p4 to A: A's web policy must NOT send p4 via B;
    // the traffic follows the only exported route (via C).
    let out = send_from_a(&mut fabric, "9.0.0.1", "40.0.0.1", 80);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].loc.participant(), pid(3));
}

#[test]
fn untouched_prefixes_use_plain_route_server_path() {
    let (ctl, mut fabric) = figure1();
    // p5 has no VNH for any viewer: the SDX behaves as a plain route
    // server for it (§4.2's "we do not need to consider BGP prefixes that
    // retain their default behavior").
    let report = ctl.report.as_ref().expect("compiled");
    assert!(!report.vnh_of.keys().any(|(_, p)| p == prefix("50.0.0.0/8")));
    let out = send_from_a(&mut fabric, "9.0.0.1", "50.0.0.1", 80);
    assert_eq!(out[0].loc, PortId::Phys(pid(4), 1));
}

#[test]
fn paper_grouping_p1_p2_share_a_fec() {
    let (ctl, _fabric) = figure1();
    let report = ctl.report.as_ref().expect("compiled");
    let ga = &report.groups[&pid(1)];
    let group_of = |pfx: &str| {
        ga.iter()
            .position(|g| g.prefixes.contains(&prefix(pfx)))
            .unwrap_or_else(|| panic!("{pfx} has no group"))
    };
    // §4.2's worked example: C' = {{p1,p2},{p3},{p4}}.
    assert_eq!(group_of("10.0.0.0/8"), group_of("20.0.0.0/8"));
    assert_ne!(group_of("10.0.0.0/8"), group_of("30.0.0.0/8"));
    assert_ne!(group_of("10.0.0.0/8"), group_of("40.0.0.0/8"));
    assert_ne!(group_of("30.0.0.0/8"), group_of("40.0.0.0/8"));
}

#[test]
fn no_forwarding_loops_or_virtual_leaks() {
    let (_ctl, mut fabric) = figure1();
    // A battery of probes: every delivery is at a physical port, nothing
    // gets stuck mid-fabric, and nothing hairpins to the sender.
    for dst in ["10.0.0.1", "20.0.0.1", "30.0.0.1", "40.0.0.1", "50.0.0.1"] {
        for dport in [80u16, 443, 22] {
            for src in ["9.0.0.1", "200.0.0.1"] {
                let out = send_from_a(&mut fabric, src, dst, dport);
                for d in &out {
                    assert!(d.loc.is_physical());
                    assert_ne!(d.loc.participant(), pid(1), "hairpin to sender");
                }
            }
        }
    }
    assert_eq!(fabric.stuck_at_virtual, 0);
}

#[test]
fn vmac_tags_stay_inside_the_fabric() {
    let (_ctl, mut fabric) = figure1();
    // Delivered frames must carry the *receiver's physical MAC*, never a
    // VMAC — otherwise the receiving router would drop them (§4.1's
    // destination-MAC rewrite).
    for dst in ["10.0.0.1", "30.0.0.1", "40.0.0.1", "50.0.0.1"] {
        let out = send_from_a(&mut fabric, "9.0.0.1", dst, 80);
        for d in &out {
            assert!(!d.pkt.dl_dst.is_vmac(), "VMAC leaked to {}", d.loc);
        }
    }
}

/// A controller that deployed once deploys a second fabric that forwards
/// like the first: its routers are told the same routes, and its ARP
/// responder resolves the virtual next hops among them.
#[test]
fn a_second_deploy_forwards_like_the_first() {
    let mut ctl = testkit::figure1_controller();
    let mut first = ctl.deploy().expect("first deploy");
    let mut second = ctl.deploy().expect("second deploy");
    for (dst, dport) in [("10.0.0.1", 80), ("10.0.0.1", 443), ("20.0.0.1", 80)] {
        let route = |f: &sdx::openflow::fabric::Fabric| {
            let a = f.router(PortId::Phys(pid(1), 1)).expect("A's router");
            a.route_for(ip(dst))
        };
        assert!(route(&first).is_some(), "fixture: A has a route to {dst}");
        assert_eq!(route(&second), route(&first), "A's route to {dst}");
        let delivered = send_from_a(&mut first, "9.0.0.1", dst, dport);
        assert_eq!(delivered.len(), 1, "fixture: {dst}:{dport} is delivered");
        let again = send_from_a(&mut second, "9.0.0.1", dst, dport);
        assert_eq!(again, delivered, "{dst}:{dport} on the second fabric");
    }
}

/// Every router of a participant forwards by what the participant was
/// told: a second router of A, attached after the deploy, holds A's
/// virtual next hops, not the route server's best routes.
#[test]
fn every_router_of_a_participant_sees_its_view() {
    let (mut ctl, mut fabric) = figure1();
    let (a1, a2) = (PortId::Phys(pid(1), 1), PortId::Phys(pid(1), 2));
    fabric.attach(BorderRouter::new(a2, MacAddr::physical(12)));
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    for dst in ["10.0.0.1", "20.0.0.1", "30.0.0.1", "40.0.0.1", "50.0.0.1"] {
        let route = |at| fabric.router(at).expect("attached").route_for(ip(dst));
        assert_eq!(route(a2), route(a1), "A's routers disagree on {dst}");
    }
    // The policy prefix: A's web traffic to p1 is steered, so A is told a
    // virtual next hop there.
    let (_, next_hop) = (fabric.router(a2).expect("A2"))
        .route_for(ip("10.0.0.1"))
        .expect("a route to p1");
    assert!(ctl.vnh.contains(next_hop), "{next_hop} is not a VNH");
}
