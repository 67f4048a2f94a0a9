//! Integration test: fast-path (§4.3.2) vs. full recompilation.
//!
//! The two-stage scheme is only sound if the fast path's overlay produces
//! the *same forwarding behaviour* the background re-optimization later
//! installs. This test replays randomized BGP churn against a policy-
//! bearing exchange and differentially probes the data plane after every
//! event: overlay state vs. freshly re-optimized state must agree packet
//! for packet.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{prefix, FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId, Prefix};
use sdx::policy::Policy as P;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

struct Rig {
    ctl: SdxController,
    fabric: sdx::openflow::fabric::Fabric,
    prefixes: Vec<Prefix>,
    configs: Vec<ParticipantConfig>,
}

fn build_rig(seed: u64) -> Rig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ctl = SdxController::new();
    let n = 6u32;
    let mut configs = Vec::new();
    for i in 1..=n {
        let cfg = ParticipantConfig::new(i, 65000 + i, 1);
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
        configs.push(cfg);
    }
    // Everyone announces a few prefixes; some prefixes multi-announced.
    let mut prefixes = Vec::new();
    for i in 0..18u32 {
        let p = prefix(&format!("{}.0.0.0/8", 10 + i));
        prefixes.push(p);
        let origin = (i % n) + 1;
        ctl.rs.process_update(
            pid(origin),
            &configs[origin as usize - 1].announce([p], &[65000 + origin, 900 + i]),
        );
        if rng.gen_bool(0.5) {
            let second = (origin % n) + 1;
            ctl.rs.process_update(
                pid(second),
                &configs[second as usize - 1].announce([p], &[65000 + second, 777, 900 + i]),
            );
        }
    }
    // A couple of policies.
    ctl.set_outbound(
        pid(1),
        Some(
            (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))))
                + (P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(3)))),
        ),
    );
    ctl.set_outbound(
        pid(4),
        Some(P::match_(FieldMatch::TpDst(53)) >> P::fwd(PortId::Virt(pid(5)))),
    );
    ctl.set_inbound(
        pid(2),
        Some(P::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1"))) >> P::fwd(PortId::Phys(pid(2), 1))),
    );
    let fabric = ctl.deploy().expect("deploy");
    Rig {
        ctl,
        fabric,
        prefixes,
        configs,
    }
}

/// Probes every (sender, dst prefix, port) combination; returns a
/// canonical behaviour fingerprint.
fn fingerprint(rig: &mut Rig) -> Vec<String> {
    let mut out = Vec::new();
    for sender in 1..=6u32 {
        for p in rig.prefixes.clone() {
            for port in [80u16, 443, 53, 22] {
                let delivered = rig.fabric.send(
                    PortId::Phys(pid(sender), 1),
                    Packet::tcp(
                        Ipv4Addr::new(200, sender as u8, 0, 1),
                        p.addr().saturating_add(7),
                        40_000,
                        port,
                    ),
                );
                let mut locs: Vec<String> =
                    delivered.iter().map(|d| format!("{}", d.loc)).collect();
                locs.sort();
                out.push(format!("{sender}|{p}|{port}=>{}", locs.join(",")));
            }
        }
    }
    out
}

#[test]
fn fast_path_agrees_with_full_recompilation() {
    let mut rig = build_rig(1);
    let mut rng = StdRng::seed_from_u64(2);

    for round in 0..12 {
        // A random churn event: withdraw or (re-)announce a random prefix.
        let p = *rig.prefixes.choose(&mut rng).expect("prefixes");
        let who = rng.gen_range(1..=6u32);
        let update = if rng.gen_bool(0.4) {
            UpdateMessage::withdraw([p])
        } else {
            rig.configs[who as usize - 1].announce([p], &[65000 + who, rng.gen_range(1000..2000)])
        };
        rig.ctl
            .process_update(pid(who), &update, &mut rig.fabric)
            .expect("fast path");
        let overlay_view = fingerprint(&mut rig);

        // Background re-optimization must not change behaviour.
        rig.ctl.reoptimize(&mut rig.fabric).expect("reoptimize");
        let optimized_view = fingerprint(&mut rig);
        assert_eq!(
            overlay_view, optimized_view,
            "fast path diverged from recompilation at round {round}"
        );
        let stuck = rig
            .fabric
            .telemetry()
            .counter("fabric.stuck_at_virtual.count");
        assert_eq!(stuck.get(), 0);
    }
}

#[test]
fn overlays_accumulate_then_retire() {
    let mut rig = build_rig(3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut had_delta = false;
    for _ in 0..6 {
        let p = *rig.prefixes.choose(&mut rng).expect("prefixes");
        let who = rng.gen_range(1..=6u32);
        let delta = rig
            .ctl
            .process_update(
                pid(who),
                &rig.configs[who as usize - 1].announce([p], &[65000 + who, 1234]),
                &mut rig.fabric,
            )
            .expect("fast path");
        had_delta |= !delta.rules.is_empty();
    }
    assert!(had_delta, "some event must produce delta rules");
    assert!(rig.ctl.delta_layers() > 0);
    rig.ctl.reoptimize(&mut rig.fabric).expect("reoptimize");
    assert_eq!(rig.ctl.delta_layers(), 0, "overlays retired");
}

#[test]
fn churn_replay_journals_update_delta_reoptimize_retire() {
    let mut rig = build_rig(3);
    let mut rng = StdRng::seed_from_u64(4);
    rig.ctl.telemetry.journal().clear();
    for _ in 0..6 {
        let p = *rig.prefixes.choose(&mut rng).expect("prefixes");
        let who = rng.gen_range(1..=6u32);
        rig.ctl
            .process_update(
                pid(who),
                &rig.configs[who as usize - 1].announce([p], &[65000 + who, 1234]),
                &mut rig.fabric,
            )
            .expect("fast path");
    }
    assert!(rig.ctl.delta_layers() > 0, "churn must stack overlays");
    rig.ctl.reoptimize(&mut rig.fabric).expect("reoptimize");

    // The journal must tell the §4.3.2 story in order: updates arrive,
    // deltas overlay the fabric, re-optimization retires the overlays and
    // completes.
    let kinds = rig.ctl.telemetry.journal().kinds();
    let mut expect = vec![
        "update_received",
        "delta_applied",
        "overlays_retired",
        "reoptimize_completed",
    ]
    .into_iter();
    let mut next = expect.next();
    for k in &kinds {
        if Some(*k) == next {
            next = expect.next();
        }
    }
    assert!(
        next.is_none(),
        "journal {kinds:?} missing expected subsequence (stopped at {next:?})"
    );
    // The retire event precedes completion and the layer gauge is back
    // to zero.
    assert_eq!(
        rig.ctl.telemetry.snapshot().gauges["controller.delta_layers"],
        0
    );
}

#[test]
fn session_reset_churn_recovers() {
    let mut rig = build_rig(5);
    // Reset participant 2's session: all its routes vanish; the fabric
    // must converge (no stuck traffic) and recover on re-announcement.
    let events = rig.ctl.rs.reset_session(pid(2));
    assert!(!events.is_empty());
    rig.ctl.reoptimize(&mut rig.fabric).expect("recompile");
    let view_without = fingerprint(&mut rig);
    assert!(
        view_without.iter().all(|s| !s.contains("=>P2")),
        "no traffic may reach the reset participant"
    );
    // Re-announce and verify traffic can return.
    for (i, p) in rig.prefixes.clone().iter().enumerate() {
        if i % 6 == 1 {
            let cfg = rig.configs[1].clone();
            rig.ctl
                .process_update(pid(2), &cfg.announce([*p], &[65002, 900]), &mut rig.fabric)
                .expect("fast path");
        }
    }
    let view_after = fingerprint(&mut rig);
    assert!(
        view_after.iter().any(|s| s.contains("=>P2")),
        "traffic flows to participant 2 again"
    );
}
