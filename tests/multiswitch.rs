//! Integration test: the §4.1 topology abstraction — the controller's
//! compiled classifier distributed over multiple physical switches must
//! behave exactly like the single-big-switch it abstracts.

use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::{Change, SdxController};
use sdx::core::participant::ParticipantConfig;
use sdx::core::schedule::Waves;
use sdx::core::SdxError;
use sdx::net::{ip, prefix, FieldMatch, Packet, ParticipantId, PortId};
use sdx::openflow::border_router::BorderRouter;
use sdx::openflow::fabric::Fabric;
use sdx::openflow::flowmod::{FlowMod, FlowModBatch};
use sdx::openflow::multiswitch::{MultiFabric, SwitchId};
use sdx::policy::Policy as P;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// Builds the controller, deploys a single-switch fabric (the reference),
/// and mirrors the same compiled state onto a two-switch MultiFabric.
fn dual_deployment() -> (SdxController, sdx::openflow::fabric::Fabric, MultiFabric) {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1)
        .with_outbound(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))));
    let b_inbound = (P::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1")))
        >> P::fwd(PortId::Phys(pid(2), 1)))
        + (P::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1"))) >> P::fwd(PortId::Phys(pid(2), 2)));
    let b = b.with_inbound(b_inbound);
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(c, ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(1), &a.announce([prefix("54.0.0.0/8")], &[65001, 7]));
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("54.0.0.0/8")], &[65002, 9, 7]));

    let single = ctl.deploy().expect("single-switch deploy");

    // Mirror onto two physical switches: C alone on switch 1, A and B on
    // switch 0 — so policy traffic crosses the trunk.
    let mut multi = MultiFabric::new();
    multi.add_switch(SwitchId(0));
    multi.add_switch(SwitchId(1));
    for (sw, port_owner) in [(0u32, 1u32), (0, 2), (1, 3)] {
        let cfg = ctl
            .compiler
            .participant(pid(port_owner))
            .expect("known")
            .clone();
        for p in &cfg.ports {
            let mut r = BorderRouter::new(PortId::Phys(cfg.id, p.index), p.mac);
            // Copy the reference router with the FIB the controller's
            // advertisements left it (detached from the single fabric's
            // shared table into a trie of its own).
            if let Some(reference) = single.router(PortId::Phys(cfg.id, p.index)) {
                r = reference.detached();
            }
            multi.attach(SwitchId(sw), r);
        }
    }
    multi.arp = single.arp.clone();
    let report = ctl.report.as_ref().expect("compiled");
    multi.load_classifier(&report.classifier);
    (ctl, single, multi)
}

#[test]
fn multiswitch_agrees_with_single_switch() {
    let (_ctl, mut single, mut multi) = dual_deployment();
    for (sender, src, dport) in [
        (3u32, "9.0.0.1", 80u16), // policy: via B, inbound TE → B1
        (3, "200.0.0.1", 80),     // policy: via B, inbound TE → B2
        (3, "9.0.0.1", 443),      // default: best route via A
        (2, "9.0.0.1", 80),       // B's own traffic toward A's route
    ] {
        let pkt = Packet::tcp(ip(src), ip("54.1.2.3"), 40_000, dport);
        let from = PortId::Phys(pid(sender), 1);
        let s = single.send(from, pkt);
        let m = multi.send(from, pkt);
        assert_eq!(
            s.as_slice(),
            m.as_slice(),
            "sender {sender} src {src} dport {dport}"
        );
    }
    assert_eq!(multi.stuck_at_virtual, 0);
}

#[test]
fn trunk_carries_only_cross_switch_traffic() {
    let (_ctl, _single, mut multi) = dual_deployment();
    // C (switch 1) → B (switch 0): one trunk frame.
    multi.send(
        PortId::Phys(pid(3), 1),
        Packet::tcp(ip("9.0.0.1"), ip("54.1.2.3"), 40_000, 80),
    );
    assert_eq!(multi.trunk_frames, 1);
    // B (switch 0) → A (switch 0): local, no trunk.
    multi.send(
        PortId::Phys(pid(2), 1),
        Packet::tcp(ip("9.0.0.1"), ip("54.1.2.3"), 40_000, 443),
    );
    assert_eq!(multi.trunk_frames, 1);
}

#[test]
fn rule_state_replicates_per_switch() {
    let (ctl, single, multi) = dual_deployment();
    let logical = ctl
        .report
        .as_ref()
        .expect("compiled")
        .classifier
        .rules()
        .len();
    assert_eq!(single.switch.table().len(), logical);
    assert_eq!(multi.total_rules(), 2 * logical);
}

/// A re-optimization with two or more waves: C's policy now sends its
/// web traffic to A, and B's inbound split is retracted.
fn restructure(ctl: &mut SdxController) {
    ctl.set_outbound(
        pid(3),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(1)))),
    );
    ctl.set_inbound(pid(2), None);
}

/// Two switches, each holding the driving fabric's table entry for entry.
fn mirrored(single: &Fabric) -> MultiFabric {
    let mut multi = MultiFabric::new();
    multi.add_switch(SwitchId(0));
    multi.add_switch(SwitchId(1));
    let mut image = FlowModBatch::new(0);
    for e in single.switch.table().entries() {
        image.push(FlowMod::Add(e.clone()));
    }
    multi.apply_flowmods(&image).expect("the image applies");
    multi
}

#[test]
fn a_commit_hook_lands_every_wave_on_every_switch() {
    let (mut ctl, mut single, _) = dual_deployment();
    let mut multi = mirrored(&single);
    restructure(&mut ctl);
    let prepared = ctl
        .prepare(&mut single, Change::Recompile(Waves::Ordered))
        .expect("prepare");
    assert!(prepared.plan.wave_count() >= 2, "fixture: several waves");
    // The hook's return is the per-wave barrier: every switch holds wave
    // n before any is sent wave n + 1.
    let mut fan_out = |_: &SdxController, driving: &Fabric, _: usize, wave: &FlowModBatch| {
        multi
            .apply_flowmods(wave)
            .map_err(|e| SdxError::InvalidCommit(e.to_string()))?;
        for id in multi.switch_ids() {
            assert_eq!(multi.table_of(id), Some(driving.switch.table()));
        }
        Ok(())
    };
    let report = ctl
        .commit(&mut single, prepared, Some(&mut fan_out))
        .expect("every wave lands everywhere");
    assert_eq!(report.applied.len(), report.total_waves);
    let logical = single.switch.table().len();
    assert_eq!(multi.total_rules(), 2 * logical);
}

#[test]
fn a_hook_failing_at_wave_one_leaves_the_driving_fabric_as_it_was() {
    let (mut ctl, mut single, _) = dual_deployment();
    let mut multi = mirrored(&single);
    restructure(&mut ctl);
    let before = single.clone();
    let prepared = ctl
        .prepare(&mut single, Change::Recompile(Waves::Ordered))
        .expect("prepare");
    assert!(prepared.plan.wave_count() >= 2, "fixture: several waves");
    let mut fan_out = |_: &SdxController, _: &Fabric, wave: usize, batch: &FlowModBatch| {
        if wave == 1 {
            return Err(SdxError::InvalidCommit("switch 1 unreachable".into()));
        }
        multi
            .apply_flowmods(batch)
            .map(|_| ())
            .map_err(|e| SdxError::InvalidCommit(e.to_string()))
    };
    let err = ctl
        .commit(&mut single, prepared, Some(&mut fan_out))
        .expect_err("wave 1 cannot fan out");
    assert_eq!(err, SdxError::InvalidCommit("switch 1 unreachable".into()));
    assert_eq!(
        single, before,
        "the driving fabric is back on its pre-drive state"
    );
    assert_eq!(
        single.switch.table().len(),
        ctl.report
            .as_ref()
            .expect("compiled")
            .classifier
            .rules()
            .len(),
        "and the controller on its pre-drive report"
    );
}
