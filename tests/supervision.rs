//! End-to-end session supervision: a supervised peer that flaps repeatedly
//! is damped — the controller recompiles O(1) times, not once per flap —
//! and its routes are reinstated automatically once the penalty decays.

use sdx::bgp::msg::{BgpMessage, NotificationCode, OpenMessage};
use sdx::bgp::route_server::ExportPolicy;
use sdx::bgp::session::SessionState;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{ip, prefix, Asn, Packet, ParticipantId, PortId, RouterId};
use sdx::openflow::fabric::Fabric;
use sdx::{Supervisor, SupervisorConfig, SupervisorOutput};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

fn open(asn: u32, hold: u16) -> OpenMessage {
    OpenMessage {
        version: 4,
        asn: Asn(asn),
        hold_time: hold,
        router_id: RouterId(asn),
    }
}

/// Applies a supervision step to the fabric; returns 1 if it cost a
/// recompilation (the fast path ran), 0 if it was absorbed.
fn apply(ctl: &mut SdxController, fabric: &mut Fabric, out: &SupervisorOutput) -> u32 {
    if out.changed_prefixes.is_empty() {
        return 0;
    }
    ctl.apply_changed_prefixes(&out.changed_prefixes, fabric)
        .expect("replay");
    1
}

fn probe(fabric: &mut Fabric, dst: &str) -> sdx::openflow::Deliveries {
    fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip(dst), 40_000, 80),
    )
}

/// Walks B's supervised session to Established by playing B's half.
fn establish_b(sup: &mut Supervisor, ctl: &mut SdxController, now: u64) {
    let mut t = sup.tick(now, &mut ctl.rs);
    while !t.send.iter().any(|(_, m)| matches!(m, BgpMessage::Open(_))) {
        t = sup.tick(now, &mut ctl.rs);
    }
    sup.handle_message(now, pid(2), BgpMessage::Open(open(65002, 90)), &mut ctl.rs);
    sup.handle_message(now, pid(2), BgpMessage::Keepalive, &mut ctl.rs);
    assert_eq!(
        sup.session(pid(2)).unwrap().state(),
        SessionState::Established
    );
}

#[test]
fn flapping_peer_costs_constant_recompilations_and_routes_return() {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    let mut fabric = ctl.deploy().expect("deploy");

    let cfg = SupervisorConfig {
        reconnect_base_ms: 10,
        reconnect_max_ms: 200,
        flap_penalty: 1_000.0,
        suppress_threshold: 1_500.0,
        reuse_threshold: 750.0,
        half_life_ms: 10_000,
    };
    let mut sup = Supervisor::new(cfg, 42);
    sup.add_peer(pid(2), open(64999, 90), 0);
    establish_b(&mut sup, &mut ctl, 0);

    // B announces 20/8 through its supervised session; the change flows
    // through the fast path and traffic starts forwarding.
    let announce = BgpMessage::Update(b.announce([prefix("20.0.0.0/8")], &[65002]));
    let out = sup.handle_message(5, pid(2), announce.clone(), &mut ctl.rs);
    assert_eq!(apply(&mut ctl, &mut fabric, &out), 1);
    assert_eq!(probe(&mut fabric, "20.0.0.1")[0].loc.participant(), pid(2));

    // Now B flaps 8 times well inside the penalty half-life: notification,
    // backoff, reconnect, re-announce — a recompilation storm if undamped.
    let mut recompiles = 0;
    let mut now = 10;
    for _ in 0..8 {
        let out = sup.handle_message(
            now,
            pid(2),
            BgpMessage::Notification {
                code: NotificationCode::Cease,
                subcode: 0,
            },
            &mut ctl.rs,
        );
        recompiles += apply(&mut ctl, &mut fabric, &out);
        now += 300; // past the (capped, jittered) backoff
        let mut t = sup.tick(now, &mut ctl.rs);
        recompiles += apply(&mut ctl, &mut fabric, &t);
        while !t.send.iter().any(|(_, m)| matches!(m, BgpMessage::Open(_))) {
            now += 300;
            t = sup.tick(now, &mut ctl.rs);
            recompiles += apply(&mut ctl, &mut fabric, &t);
        }
        sup.handle_message(now, pid(2), BgpMessage::Open(open(65002, 90)), &mut ctl.rs);
        sup.handle_message(now, pid(2), BgpMessage::Keepalive, &mut ctl.rs);
        let out = sup.handle_message(now, pid(2), announce.clone(), &mut ctl.rs);
        recompiles += apply(&mut ctl, &mut fabric, &out);
        now += 10;
    }

    assert!(sup.is_suppressed(pid(2)), "rapid flapping must suppress B");
    assert!(
        recompiles <= 3,
        "8 flaps must cost O(1) recompilations, got {recompiles}"
    );
    // While suppressed the fabric holds B's routes out: withdrawn.
    assert!(
        probe(&mut fabric, "20.0.0.1").is_empty(),
        "suppressed peer's routes must not be installed"
    );

    // Long after the last flap the penalty has halved below the reuse
    // threshold: one batched recompilation reinstates the route.
    now += 60_000;
    let out = sup.tick(now, &mut ctl.rs);
    assert!(!sup.is_suppressed(pid(2)));
    assert_eq!(out.changed_prefixes, vec![prefix("20.0.0.0/8")]);
    assert_eq!(apply(&mut ctl, &mut fabric, &out), 1);
    assert_eq!(
        probe(&mut fabric, "20.0.0.1")[0].loc.participant(),
        pid(2),
        "damped route must be reinstated after the penalty decays"
    );
}
