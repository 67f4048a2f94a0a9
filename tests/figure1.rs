//! Integration test: the paper's Figure 1 scenario, driven through the
//! public API only (controller + DSL + fabric), cross-checking every claim
//! §3 and §4.1 make about it.

use sdx::core::controller::SdxController;
use sdx::ixp::testkit;
use sdx::net::{ip, prefix, Packet, ParticipantId, PortId};

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
