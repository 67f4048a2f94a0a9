//! Wide-area server load balancing: the Figure 4b/5b deployment.
//!
//! A *remote* participant (an AWS tenant with no physical routers at the
//! exchange) announces an anycast service prefix and asks the SDX to
//! rewrite request destinations per client block — replacing DNS-based
//! load balancing with direct data-plane control (§2, §3.1 of the paper).
//!
//! Run: `cargo run --release --example wide_area_load_balancer`

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{ip, prefix, Packet, ParticipantId, PortId};

fn main() {
    let pid = ParticipantId;
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1); // client-hosting ISP
    let b = ParticipantConfig::new(2, 65002, 1); // transit toward AWS
    let d = ParticipantConfig::new(4, 65004, 1); // the AWS tenant (remote)
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(d.clone(), ExportPolicy::allow_all());

    // The instances live behind transit B; the tenant originates the
    // anycast prefix at the SDX route server.
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("54.198.0.0/24")], &[65002, 14618]),
    );
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("54.230.0.0/24")], &[65002, 14618]),
    );
    ctl.rs
        .process_update(pid(4), &d.announce([prefix("74.125.1.0/24")], &[65004]));
    let mut fabric = ctl.deploy().expect("deploy");

    let send = |fabric: &mut sdx::openflow::fabric::Fabric, src: &str| {
        let out = fabric.send(
            PortId::Phys(pid(1), 1),
            Packet::udp(ip(src), ip("74.125.1.1"), 40_000, 80),
        );
        match out.as_slice() {
            [d] => format!("exits {} toward {}", d.loc, d.pkt.nw_dst),
            [] => "dropped".to_string(),
            _ => "multicast?!".to_string(),
        }
    };

    println!("before the LB policy (anycast traffic defaults to the tenant's announcement):");
    println!("  204.57.0.67 -> {}", send(&mut fabric, "204.57.0.67"));
    println!("  99.0.0.10   -> {}", send(&mut fabric, "99.0.0.10"));

    // The tenant installs the load-balancing policy remotely. The SDX
    // checks prefix ownership before accepting it.
    ctl.install_wide_area_lb(
        pid(4),
        prefix("74.125.1.0/24"),
        &[
            (prefix("204.57.0.0/16"), ip("54.230.0.10")), // instance #2
            (prefix("0.0.0.0/1"), ip("54.198.0.10")),     // instance #1
            (prefix("128.0.0.0/1"), ip("54.198.0.10")),   // instance #1
        ],
        &mut fabric,
    )
    .expect("tenant owns the prefix");

    println!("\nafter the LB policy (destination rewritten per client block):");
    let (to_second, to_first) = (
        send(&mut fabric, "204.57.0.67"),
        send(&mut fabric, "99.0.0.10"),
    );
    println!("  204.57.0.67 -> {to_second}");
    println!("  99.0.0.10   -> {to_first}");
    assert_eq!(to_second, "exits P2.1 toward 54.230.0.10", "instance #2");
    assert_eq!(to_first, "exits P2.1 toward 54.198.0.10", "instance #1");

    // An impostor cannot steer the tenant's traffic.
    let hijack = ctl.install_wide_area_lb(
        pid(2),
        prefix("74.125.1.0/24"),
        &[(prefix("0.0.0.0/0"), ip("54.198.0.99"))],
        &mut fabric,
    );
    println!(
        "\nownership check: B's attempt to steer D's prefix -> {}",
        hijack
            .as_ref()
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| "ACCEPTED (BUG)".into())
    );
    assert!(hijack.is_err(), "only the prefix's origin may steer it");
}
