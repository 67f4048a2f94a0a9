//! Integration tests for the `sdx-telemetry` subsystem as wired through
//! the controller stack: stage timers on the hot paths, lifecycle events
//! in the journal, traffic counters in the fabric, and machine-readable
//! snapshots.

use sdx::bgp::msg::{BgpMessage, NotificationCode, OpenMessage};
use sdx::bgp::rib::RouteSource;
use sdx::bgp::route_server::{ExportPolicy, RouteServer};
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::net::{ip, prefix, Asn, FieldMatch, ParticipantId, PortId, RouterId};
use sdx::policy::Policy as P;
use sdx::telemetry::Json;
use sdx::{FaultPlan, InjectionPoint, Supervisor, SupervisorConfig};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// A three-participant exchange: A and B announce the same prefix, C
/// hosts the client and carries an outbound policy.
fn small_exchange() -> (SdxController, sdx::openflow::fabric::Fabric) {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1)
        .with_outbound(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))));
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.add_participant(c, ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(1), &a.announce([prefix("54.0.0.0/8")], &[65001, 7]));
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("54.0.0.0/8")], &[65002, 9, 7]));
    let fabric = ctl.deploy().expect("deploy");
    (ctl, fabric)
}

/// Asserts `want` appears as an in-order subsequence of `got`.
fn assert_subsequence(got: &[&'static str], want: &[&str]) {
    let mut it = got.iter();
    for w in want {
        assert!(
            it.any(|g| g == w),
            "journal {got:?} is missing \"{w}\" (in order {want:?})"
        );
    }
}

#[test]
fn deploy_and_fast_path_record_stage_timings() {
    let (mut ctl, mut fabric) = small_exchange();
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.process_update(
        pid(2),
        &b.announce([prefix("74.125.0.0/16")], &[65002, 15169]),
        &mut fabric,
    )
    .expect("fast path");
    ctl.reoptimize(&mut fabric).expect("reoptimize");

    let snap = ctl.telemetry.snapshot();
    // Every hot stage observed at least once, in nanosecond histograms.
    for key in [
        "compile.total",
        "compile.fec",
        "compile.compose",
        "compile.classifiers",
        "fastpath.total",
        "fastpath.apply",
        "fastpath.update",
        "reoptimize.total",
        "txn.validate",
    ] {
        let h = snap
            .histograms
            .get(key)
            .unwrap_or_else(|| panic!("missing stage histogram {key}"));
        assert!(h.count > 0, "{key} never observed");
        assert!(h.p50 <= h.p99, "{key} quantiles out of order");
    }
    assert!(snap.counters["controller.update.count"] >= 1);
    assert!(snap.counters["compile.count"] >= 2, "deploy + reoptimize");
    assert!(snap.counters["vnh.alloc.count"] >= 1);
    // After reoptimize all overlays are retired.
    assert_eq!(snap.gauges["controller.delta_layers"], 0);
    assert!(snap.gauges["fabric.rules"] > 0);
}

#[test]
fn flow_table_applies_are_timed_where_the_controller_applies_them() {
    let (mut ctl, mut fabric) = small_exchange();
    let applies = |ctl: &SdxController| ctl.telemetry.histogram("flowtable.apply").count();
    let deployed = applies(&ctl);
    assert!(deployed > 0, "the deploy's waves are timed");
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.process_update(
        pid(2),
        &b.announce([prefix("74.125.0.0/16")], &[65002, 15169]),
        &mut fabric,
    )
    .expect("fast path");
    let updated = applies(&ctl);
    assert_eq!(updated, deployed + 1, "the fast path's overlay batch");
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    assert!(applies(&ctl) > updated, "the re-optimisation's waves");
}

#[test]
fn controller_journal_orders_lifecycle_events() {
    let (mut ctl, mut fabric) = small_exchange();
    ctl.telemetry.journal().clear();
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.process_update(
        pid(2),
        &b.announce([prefix("74.125.0.0/16")], &[65002, 15169]),
        &mut fabric,
    )
    .expect("fast path");
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    assert_subsequence(
        &ctl.telemetry.journal().kinds(),
        &[
            "update_received",
            "delta_applied",
            "overlays_retired",
            "reoptimize_completed",
        ],
    );
}

#[test]
fn injected_fault_journals_rollback() {
    let (mut ctl, mut fabric) = small_exchange();
    ctl.telemetry.journal().clear();
    ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FabricCommit, 1);
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    let err = ctl.reoptimize(&mut fabric);
    assert!(err.is_err(), "armed fault must fail the commit");
    let snap = ctl.telemetry.snapshot();
    assert_subsequence(
        &ctl.telemetry.journal().kinds(),
        &["fault_injected", "txn_rolled_back"],
    );
    assert!(snap.counters["txn.rollback.count"] >= 1);
    assert!(snap.histograms["txn.rollback"].count >= 1);
}

#[test]
fn fabric_counts_traffic() {
    let (_ctl, fabric) = small_exchange();
    let before = fabric.telemetry().snapshot();
    let out = fabric.send(
        PortId::Phys(pid(3), 1),
        sdx::net::Packet::tcp(ip("99.0.0.1"), ip("54.1.2.3"), 5000, 80),
    );
    assert!(!out.is_empty());
    let after = fabric.telemetry().snapshot();
    assert_eq!(
        after.counters["fabric.tx.count"],
        before.counters.get("fabric.tx.count").copied().unwrap_or(0) + 1
    );
    assert!(after.counters["fabric.delivered.count"] >= 1);
}

#[test]
fn route_server_times_decision_and_export() {
    let (ctl, _fabric) = small_exchange();
    let snap = ctl.rs.telemetry().snapshot();
    assert!(snap.counters["rs.update.count"] >= 2);
    assert!(snap.histograms["rs.decision"].count >= 2);
}

#[test]
fn supervisor_journals_session_lifecycle() {
    let reg = sdx::SharedRegistry::new();
    let mut rs = RouteServer::default();
    rs.add_peer(
        RouteSource {
            participant: pid(1),
            asn: Asn(65001),
            router_id: RouterId(1),
            peer_addr: ip("172.16.0.1"),
        },
        ExportPolicy::allow_all(),
    );
    let mut sup = Supervisor::new(SupervisorConfig::default(), 7).with_telemetry(reg.clone());
    let local = OpenMessage {
        version: 4,
        asn: Asn(65000),
        hold_time: 90,
        router_id: RouterId(99),
    };
    sup.add_peer(pid(1), local, 0);
    sup.connection_up(0, pid(1), &mut rs);
    sup.handle_message(
        0,
        pid(1),
        BgpMessage::Open(OpenMessage {
            version: 4,
            asn: Asn(65001),
            hold_time: 90,
            router_id: RouterId(1),
        }),
        &mut rs,
    );
    sup.handle_message(0, pid(1), BgpMessage::Keepalive, &mut rs);
    sup.handle_message(
        10,
        pid(1),
        BgpMessage::Notification {
            code: NotificationCode::Cease,
            subcode: 0,
        },
        &mut rs,
    );
    assert_subsequence(
        &reg.journal().kinds(),
        &["session_established", "session_reset"],
    );
    let snap = reg.snapshot();
    assert_eq!(snap.counters["session.established.count"], 1);
    assert_eq!(snap.counters["session.reset.count"], 1);
}

#[test]
fn snapshot_serializes_to_parseable_json() {
    let (mut ctl, mut fabric) = small_exchange();
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    let text = ctl.telemetry.snapshot().to_json_string();
    let doc = Json::parse(&text).expect("snapshot JSON parses");
    for section in ["counters", "gauges", "histograms", "events"] {
        assert!(doc.get(section).is_some(), "missing {section}");
    }
    let reparsed = sdx::MetricsSnapshot::default();
    // Sanity: the default snapshot also serializes and parses.
    Json::parse(&reparsed.to_json_string()).expect("default snapshot parses");
}

#[test]
fn compile_report_metrics_snapshot_agrees_with_stats() {
    let (mut ctl, _fabric) = small_exchange();
    let mut vnh = sdx::core::vnh::VnhAllocator::default();
    let report = ctl
        .compiler
        .compile_all(&ctl.rs, &mut vnh)
        .expect("compile");
    let snap = report.metrics_snapshot();
    assert_eq!(
        snap.counters["compile.rules.count"],
        report.stats.rule_count as u64
    );
    assert_eq!(
        snap.counters["compile.forwarding_rules.count"],
        report.stats.forwarding_rules as u64
    );
    assert_eq!(
        snap.counters["compile.groups.count"],
        report.stats.group_count as u64
    );
    assert_eq!(
        snap.histograms["compile.total"].max,
        u64::try_from(report.stats.total.as_nanos()).expect("fits")
    );
}
