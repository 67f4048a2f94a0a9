//! The default compile is incremental — shown by count, not by clock.
//!
//! `SdxController::new()` with no option touched, on the 50-participant
//! exchange: an idle re-optimization rebuilds no viewer's phase-A
//! signature map and re-partitions none, a one-participant policy push
//! rebuilds that viewer's map only, and a one-prefix announcement rebuilds
//! none — it patches the held maps at that prefix — and each incremental
//! result equals a cold compile of the same world ([`cold_compile`]) after
//! canonical relabeling.

use std::collections::BTreeSet;

use sdx::core::controller::SdxController;
use sdx::core::{canonicalize_report, CompileReport, VnhAllocator};
use sdx::net::{FieldMatch, ParticipantId, PortId};
use sdx::openflow::fabric::Fabric;
use sdx::policy::{Policy as P, PolicyDelta};
use sdx_oracle::cold_compile;

fn deployed_ixp50() -> (SdxController, Fabric) {
    let (compiler, rs) = sdx::ixp::testkit::ixp50();
    let mut ctl = SdxController::new();
    ctl.compiler = compiler;
    ctl.rs = rs;
    let fabric = ctl.deploy().expect("deploy ixp50");
    (ctl, fabric)
}

/// What phase A did since the previous reading, in viewers: (maps
/// re-partitioned, partitions served as they stood, maps rebuilt for a
/// policy reason, maps built whole).
struct PhaseA {
    last: [u64; 4],
}

impl PhaseA {
    fn read(ctl: &SdxController) -> [u64; 4] {
        let reg = ctl.compiler.telemetry();
        [
            reg.counter("compile.shard.recompiled.count").get(),
            reg.counter("compile.shard.skipped.count").get(),
            reg.counter("policy.dirty_units.count").get(),
            reg.histogram("compile.phase_a.whole").count(),
        ]
    }

    fn since_last(&mut self, ctl: &SdxController) -> [u64; 4] {
        let now = Self::read(ctl);
        let delta = std::array::from_fn(|i| now[i] - self.last[i]);
        self.last = now;
        delta
    }
}

fn assert_equals_cold_compile(ctl: &SdxController, what: &str) {
    let pool = VnhAllocator::default_pool();
    let canon = |r: &CompileReport| canonicalize_report(r, pool);
    let warm = canon(ctl.report.as_ref().expect("report"));
    let cold = canon(&cold_compile(&ctl.compiler, &ctl.rs));
    assert_eq!(warm.classifier, cold.classifier, "{what}: classifier");
    assert_eq!(warm.groups, cold.groups, "{what}: groups");
    assert_eq!(warm.arp_bindings, cold.arp_bindings, "{what}: ARP");
    assert_eq!(warm.vnh_of, cold.vnh_of, "{what}: VNH map");
}

#[test]
fn the_default_controller_recompiles_only_what_changed() {
    let (mut ctl, mut fabric) = deployed_ixp50();
    let viewers = ctl
        .compiler
        .participants()
        .values()
        .filter(|c| c.outbound.is_some())
        .count() as u64;
    let mut phase_a = PhaseA {
        last: PhaseA::read(&ctl),
    };
    assert_eq!(
        phase_a.last,
        [viewers, 0, 0, viewers],
        "the deploy is the cold compile: every viewer's map built whole once"
    );

    // Idle: every viewer is served its partition, nothing is rebuilt.
    ctl.reoptimize(&mut fabric).expect("idle reoptimize");
    assert_eq!(phase_a.since_last(&ctl), [0, viewers, 0, 0], "idle");

    // One participant's policy push: that viewer's map is rebuilt whole
    // and re-partitioned, every other viewer's served.
    let editor = ctl
        .compiler
        .participants()
        .values()
        .find(|c| c.outbound.is_some())
        .expect("ixp50 has outbound policies")
        .id;
    let target = ctl
        .rs
        .participants()
        .find(|&p| p != editor && ctl.rs.loc_rib().announced_count(p) > 20)
        .expect("an announcer");
    let steer = P::match_(FieldMatch::TpDst(8080)) >> P::fwd(PortId::Virt(target));
    ctl.apply_policy_delta(
        &PolicyDelta::new().replace_outbound(editor, steer),
        &mut fabric,
    )
    .expect("policy push");
    assert_eq!(
        phase_a.since_last(&ctl),
        [1, viewers - 1, 1, 1],
        "policy push"
    );
    assert_equals_cold_compile(&ctl, "policy push");

    // A viewer's best route for a policy-affected prefix re-announced
    // with a much longer path, so another candidate wins: no map is
    // rebuilt; the viewers whose signature for it moved, that one among
    // them, are re-partitioned.
    let (viewer, moved) = (ctl.report.as_ref().expect("report").vnh_of.keys())
        .find(|&(v, p)| ctl.rs.reachable_via(v, p).nth(1).is_some())
        .expect("ixp50 has a policy-affected prefix with two routes");
    let best = ctl.rs.best_for(viewer, moved).expect("a best route");
    let announcer = best.source.participant;
    let cfg = ctl.compiler.participant(announcer).expect("enrolled");
    let longer: Vec<u32> = std::iter::once(cfg.asn.0).chain(64_990..64_999).collect();
    let msg = cfg.announce([moved], &longer);
    ctl.process_update(announcer, &msg, &mut fabric)
        .expect("fast path");
    let units = ctl
        .reoptimize(&mut fabric)
        .expect("reoptimize")
        .stats
        .pieces
        .units;
    assert_eq!((units.recomputed, units.reused), (0, viewers as usize));
    let [repartitioned, served, policy_dirty, whole] = phase_a.since_last(&ctl);
    assert_eq!((policy_dirty, whole), (0, 0), "one prefix: nothing whole");
    assert!(
        (1..=viewers).contains(&repartitioned) && repartitioned + served == viewers,
        "one prefix: {repartitioned} of {viewers} viewers re-partitioned"
    );
    assert_equals_cold_compile(&ctl, "one prefix");
}

/// The receivers `viewer`'s tagged traffic can arrive at, as far as the
/// report shows them: its groups' default next hops.
fn default_receivers(report: &CompileReport, viewer: ParticipantId) -> BTreeSet<ParticipantId> {
    (report.groups.get(&viewer).into_iter().flatten())
        .filter_map(|g| g.default_next_hop)
        .collect()
}

#[test]
fn a_policy_push_recomputes_only_the_pieces_it_edits() {
    let (mut ctl, mut fabric) = deployed_ixp50();
    let book = ctl.compiler.participants();
    let participants = book.len();
    let viewers: Vec<ParticipantId> = (book.values().filter(|c| c.outbound.is_some()))
        .map(|c| c.id)
        .collect();
    let deployed = ctl.report.as_ref().expect("deployed").stats.pieces;
    assert_eq!(
        (
            deployed.viewers.reused,
            deployed.receivers.reused,
            deployed.segments.reused
        ),
        (0, 0, 0),
        "the deploy is the cold compile: every piece is stale"
    );
    assert_eq!(deployed.viewers.recomputed, viewers.len());
    assert_eq!(deployed.receivers.recomputed, participants);
    assert_eq!(
        deployed.segments.recomputed,
        2 * viewers.len() + participants
    );

    // A policy-free participant no outbound policy forwards to: the only
    // stage-1 rules reaching it are group defaults and its own
    // MAC-learning defaults.
    let targeted: BTreeSet<ParticipantId> = (book.values())
        .filter_map(|c| c.outbound.as_ref())
        .flat_map(sdx::policy::analysis::fwd_targets)
        .map(|port| port.participant())
        .collect();
    let editor = (book.values())
        .filter(|c| c.outbound.is_none() && c.inbound.is_none() && !targeted.contains(&c.id))
        .max_by_key(|c| ctl.rs.loc_rib().announced_count(c.id))
        .expect("a policy-free participant nobody steers to")
        .clone();
    let defaulting = |report: &CompileReport| {
        let to_editor = |v: &&ParticipantId| default_receivers(report, **v).contains(&editor.id);
        viewers.iter().filter(to_editor).count()
    };

    // An inbound steer edits one receiver's block and nobody's groups.
    let steer = P::match_(FieldMatch::NwSrc(sdx::net::prefix("77.0.0.0/8")))
        >> P::fwd(PortId::Phys(editor.id, editor.ports[0].index));
    for delta in [
        PolicyDelta::new().install_inbound(editor.id, steer),
        PolicyDelta::new().retract_inbound(editor.id),
    ] {
        let report = ctl.apply_policy_delta(&delta, &mut fabric).expect("push");
        let pieces = report.stats.pieces;
        assert_eq!(pieces.units.recomputed, 0, "inbound: phase A");
        assert_eq!(
            (pieces.viewers.recomputed, pieces.viewers.reused),
            (0, viewers.len()),
            "inbound: viewer pieces"
        );
        assert_eq!(
            (pieces.receivers.recomputed, pieces.receivers.reused),
            (1, participants - 1),
            "inbound: receiver blocks"
        );
        // The segments forwarding to the editor: its MAC-learning
        // defaults, and the defaults of each viewer a group of which
        // follows BGP to it.
        assert!(
            defaulting(report) > 0,
            "the editor is somebody's best route"
        );
        assert_eq!(
            pieces.segments.recomputed,
            1 + defaulting(report),
            "inbound: segments"
        );
        assert_equals_cold_compile(&ctl, "inbound push");
    }

    // An outbound policy for the editor: its piece, the blocks of the
    // receivers its tags can now arrive at, and nobody else's groups.
    let target = (ctl.rs.participants())
        .find(|&p| p != editor.id && ctl.rs.loc_rib().announced_count(p) > 20)
        .expect("an announcer");
    let peering = P::match_(FieldMatch::TpDst(9_443)) >> P::fwd(PortId::Virt(target));
    let report = ctl
        .apply_policy_delta(
            &PolicyDelta::new().install_outbound(editor.id, peering),
            &mut fabric,
        )
        .expect("outbound push");
    let pieces = report.stats.pieces;
    assert_eq!(
        (pieces.viewers.recomputed, pieces.viewers.reused),
        (1, viewers.len()),
        "outbound install: viewer pieces"
    );
    let mut reached = default_receivers(report, editor.id);
    reached.insert(target);
    assert_eq!(
        (pieces.receivers.recomputed, pieces.receivers.reused),
        (reached.len(), participants - reached.len()),
        "outbound install: receiver blocks"
    );
    assert_equals_cold_compile(&ctl, "outbound install");

    let report = ctl
        .apply_policy_delta(&PolicyDelta::new().retract_outbound(editor.id), &mut fabric)
        .expect("outbound retract");
    let pieces = report.stats.pieces;
    assert_eq!(
        (pieces.viewers.recomputed, pieces.viewers.reused),
        (0, viewers.len()),
        "outbound retract: the editor's piece is dropped, nobody's rebuilt"
    );
    assert_eq!(
        pieces.receivers.recomputed,
        reached.len(),
        "outbound retract"
    );
    assert_equals_cold_compile(&ctl, "outbound retract");

    // Nothing moved since: nothing is recomputed.
    let idle = ctl.reoptimize(&mut fabric).expect("idle").stats.pieces;
    assert_eq!(
        [
            idle.units.recomputed,
            idle.viewers.recomputed,
            idle.receivers.recomputed,
            idle.segments.recomputed
        ],
        [0; 4],
        "idle"
    );
}
