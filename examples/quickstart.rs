//! Quickstart: the paper's Figure 1 scenario, end to end.
//!
//! Three participants at the exchange:
//! * **AS A** writes the application-specific peering policy of §3.1 —
//!   web traffic via B, HTTPS via C — in the paper's own text syntax;
//! * **AS B** (two ports) runs inbound traffic engineering, splitting
//!   arriving traffic across its routers by source address;
//! * **AS C** has no policies and relies on plain BGP.
//!
//! Run: `cargo run --example quickstart`

use std::collections::BTreeMap;

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::vswitch;
use sdx::net::{ip, prefix, Packet, ParticipantId, PortId};
use sdx::policy::parse_policy;

fn main() {
    let pid = ParticipantId;

    // --- Participants -----------------------------------------------------
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);

    // Each participant writes policies against its own virtual switch; the
    // name tables give the paper's names (A1, B, B1, B2, C …).
    let port_book: BTreeMap<ParticipantId, Vec<u8>> =
        [(pid(1), vec![1]), (pid(2), vec![1, 2]), (pid(3), vec![1])].into();

    // AS A's outbound policy, exactly as printed in §3.1 of the paper.
    let a_policy = parse_policy(
        "(match(dstport = 80) >> fwd(B)) + (match(dstport = 443) >> fwd(C))",
        &vswitch::resolver_for(pid(1), &port_book),
    )
    .expect("A's policy parses");

    // AS B's inbound traffic engineering, also from §3.1.
    let b_policy = parse_policy(
        "(match(srcip = {0.0.0.0/1}) >> fwd(B1)) + (match(srcip = {128.0.0.0/1}) >> fwd(B2))",
        &vswitch::resolver_for(pid(2), &port_book),
    )
    .expect("B's policy parses");

    // --- Controller + BGP -------------------------------------------------
    let mut ctl = SdxController::new();
    ctl.add_participant(a.clone().with_outbound(a_policy), ExportPolicy::allow_all());
    ctl.add_participant(b.clone().with_inbound(b_policy), ExportPolicy::allow_all());
    ctl.add_participant(c.clone(), ExportPolicy::allow_all());

    // B and C both announce p1 = 10.0.0.0/8; C's AS path is shorter, so
    // plain BGP would send everything via C.
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("10.0.0.0/8")], &[65002, 100, 200]),
    );
    ctl.rs
        .process_update(pid(3), &c.announce([prefix("10.0.0.0/8")], &[65003, 200]));

    // Compile the policies, build the fabric, sync FIBs and ARP.
    let fabric = ctl.deploy().expect("deploy");
    let report = ctl.report.as_ref().expect("compiled");
    println!(
        "compiled {} flow rules over {} prefix groups in {:?}",
        report.stats.forwarding_rules, report.stats.group_count, report.stats.total
    );

    // --- Send traffic -----------------------------------------------------
    // Each probe with the one port it must be delivered at.
    let from_a = PortId::Phys(pid(1), 1);
    let probes = [
        (
            // A's policy via B; B's inbound TE picks B1.
            "web from low-half source",
            Packet::tcp(ip("9.9.9.9"), ip("10.0.0.1"), 5000, 80),
            PortId::Phys(pid(2), 1),
        ),
        (
            // B's inbound TE picks B2.
            "web from high-half source",
            Packet::tcp(ip("200.1.1.1"), ip("10.0.0.1"), 5000, 80),
            PortId::Phys(pid(2), 2),
        ),
        (
            // A's policy via C.
            "https",
            Packet::tcp(ip("9.9.9.9"), ip("10.0.0.1"), 5000, 443),
            PortId::Phys(pid(3), 1),
        ),
        (
            // Default: C has the best BGP route.
            "ssh (no policy: default BGP)",
            Packet::tcp(ip("9.9.9.9"), ip("10.0.0.1"), 5000, 22),
            PortId::Phys(pid(3), 1),
        ),
    ];
    for (label, pkt, expected) in probes {
        let out = fabric.send(from_a, pkt);
        match out.as_slice() {
            [d] => println!("{label:32} -> delivered at {}", d.loc),
            [] => println!("{label:32} -> dropped"),
            many => println!("{label:32} -> multicast to {} ports", many.len()),
        }
        let at: Vec<PortId> = out.iter().map(|d| d.loc).collect();
        assert_eq!(at, [expected], "{label}");
    }
}
