//! Application-specific peering, live: the Figure 4a/5a deployment.
//!
//! An ISP (AS C) hosts a client whose flows reach an AWS prefix via two
//! upstreams. Watch the traffic move as (1) C installs a port-80 policy at
//! t=565 s and (2) upstream B withdraws its route at t=1253 s — the SDX
//! keeps forwarding consistent with BGP, so the withdrawn path stops
//! carrying traffic within one control-plane event.
//!
//! Run: `cargo run --release --example application_specific_peering`

use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::ixp::traffic::{udp_flow, Event, SeriesKey, TrafficSim};
use sdx::net::{ip, prefix, FieldMatch, ParticipantId, PortId};
use sdx::policy::Policy as P;

fn main() {
    let pid = ParticipantId;
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(c, ExportPolicy::allow_all());
    ctl.rs.process_update(
        pid(1),
        &a.announce([prefix("54.198.0.0/16")], &[65001, 14618]),
    );
    ctl.rs.process_update(
        pid(2),
        &b.announce([prefix("54.198.0.0/16")], &[65002, 7018, 14618]),
    );
    let fabric = ctl.deploy().expect("deploy");

    let client = PortId::Phys(pid(3), 1);
    let sim = TrafficSim {
        controller: ctl,
        fabric,
        flows: vec![
            udp_flow(
                "web",
                client,
                ip("99.0.0.10"),
                ip("54.198.0.50"),
                80,
                1.0,
                (0.0, 1800.0),
            ),
            udp_flow(
                "https",
                client,
                ip("99.0.0.11"),
                ip("54.198.0.50"),
                443,
                1.0,
                (0.0, 1800.0),
            ),
            udp_flow(
                "dns",
                client,
                ip("99.0.0.12"),
                ip("54.198.0.50"),
                53,
                1.0,
                (0.0, 1800.0),
            ),
        ],
        events: vec![
            Event::SetOutbound {
                at: 565.0,
                participant: pid(3),
                policy: Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
            },
            Event::Bgp {
                at: 1253.0,
                from: pid(2),
                update: UpdateMessage::withdraw([prefix("54.198.0.0/16")]),
            },
        ],
        series_key: SeriesKey::EgressParticipant,
    };
    let series = sim.run(1800.0);

    println!("time   via-AS-A  via-AS-B   (1 Mbps per flow, 3 flows)");
    for (t, rates) in series
        .points
        .iter()
        .filter(|(t, _)| (*t as u64).is_multiple_of(120))
    {
        let get = |key: &str| {
            series
                .keys
                .iter()
                .position(|k| k == key)
                .map(|i| rates[i])
                .unwrap_or(0.0)
        };
        let bar = |v: f64| "#".repeat(v.round() as usize);
        let (via_a, via_b) = (get("via-P1"), get("via-P2"));
        println!(
            "{t:5.0}s  {via_a:8.1}  {via_b:8.1}   A:{:3} B:{}",
            bar(via_a),
            bar(via_b),
        );
        // Only while the policy stands and B still has the route does the
        // web flow leave via B.
        let expected = if (565.0..1253.0).contains(t) {
            (2.0, 1.0)
        } else {
            (3.0, 0.0)
        };
        assert_eq!((via_a, via_b), expected, "at t={t}s");
    }
    println!("\nevents: t=565s application-specific peering policy (port 80 via B)");
    println!("        t=1253s AS B withdraws its route (traffic must return to A)");
}
