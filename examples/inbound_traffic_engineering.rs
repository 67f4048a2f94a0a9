//! Inbound traffic engineering (§2, §3.1): an AS with two fabric ports
//! directly controls which of its routers receives which traffic — no AS
//! prepending, no community gymnastics, no selective announcements.
//!
//! Run: `cargo run --release --example inbound_traffic_engineering`

use std::collections::BTreeMap;

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::vswitch;
use sdx::net::{ip, prefix, Packet, ParticipantId, PortId};
use sdx::policy::parse_policy;

fn main() {
    let pid = ParticipantId;
    // B is the eyeball ISP with two fabric ports; A and C send it traffic.
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);

    let book: BTreeMap<ParticipantId, Vec<u8>> =
        [(pid(1), vec![1]), (pid(2), vec![1, 2]), (pid(3), vec![1])].into();

    // The §3.1 inbound policy, in the paper's own words: split arriving
    // traffic across B1 and B2 by source address halves.
    let te = parse_policy(
        "(match(srcip = {0.0.0.0/1}) >> fwd(B1)) + (match(srcip = {128.0.0.0/1}) >> fwd(B2))",
        &vswitch::resolver_for(pid(2), &book),
    )
    .expect("parses");

    let mut ctl = SdxController::new();
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone().with_inbound(te), ExportPolicy::allow_all());
    ctl.add_participant(c, ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    let fabric = ctl.deploy().expect("deploy");

    println!("traffic toward B's prefix 20.0.0.0/8, split by B's inbound TE policy:\n");
    for (sender, src, router) in [
        (1u32, "9.0.0.1", 1u8), // low half → B1
        (1, "200.0.0.1", 2),    // high half → B2
        (3, "64.10.0.1", 1),    // low half → B1, regardless of sender
        (3, "190.3.2.1", 2),    // high half → B2
    ] {
        let out = fabric.send(
            PortId::Phys(pid(sender), 1),
            Packet::tcp(ip(src), ip("20.1.2.3"), 40_000, 80),
        );
        println!(
            "  from AS {sender} src {src:12} -> {}",
            out.first()
                .map(|d| d.loc.to_string())
                .unwrap_or_else(|| "dropped".into())
        );
        let at: Vec<PortId> = out.iter().map(|d| d.loc).collect();
        assert_eq!(
            at,
            [PortId::Phys(pid(2), router)],
            "from AS {sender} src {src}"
        );
    }

    // The paper's contrast: this took one declarative policy; the BGP
    // equivalent is prepending/communities/selective ads with no guarantee.
    let b1 = fabric
        .router(PortId::Phys(pid(2), 1))
        .map(|_| "attached")
        .unwrap_or("missing");
    println!("\nB1 router {b1}; policy enforced in the fabric, invisible to senders.");
}
