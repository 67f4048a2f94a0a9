//! Failure injection across the stack: malformed wire input, session
//! resets mid-stream, ARP failures, VNH exhaustion, and conflicting
//! policies. A credible IXP controller must degrade loudly and locally,
//! never silently corrupt forwarding state.

use sdx::bgp::msg::{BgpMessage, NotificationCode, OpenMessage, UpdateMessage};
use sdx::bgp::route_server::ExportPolicy;
use sdx::bgp::session::{establish_pair, Session, SessionEvent, SessionState};
use sdx::bgp::wire;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::vnh::VnhAllocator;
use sdx::core::{FecId, FecKey};
use sdx::ixp::testkit;
use sdx::net::{ip, prefix, Asn, FieldMatch, Packet, ParticipantId, PortId, RouterId};
use sdx::openflow::fabric::Fabric;
use sdx::policy::Policy as P;
use sdx::{FaultPlan, InjectionPoint, SdxError};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// Two participants, B announcing 20/8, A steering web traffic through an
/// outbound policy (so fast-path updates exercise VNH allocation),
/// compiled and deployed.
fn two_party_deployment() -> (SdxController, Fabric) {
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    let fabric = ctl.deploy().expect("deploy");
    (ctl, fabric)
}

fn announce_30_8() -> UpdateMessage {
    ParticipantConfig::new(2, 65002, 1).announce([prefix("30.0.0.0/8")], &[65002, 5])
}

fn probe(fabric: &mut Fabric, dst: &str) -> sdx::openflow::Deliveries {
    fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip(dst), 40_000, 80),
    )
}

#[test]
fn corrupted_frames_never_parse_as_something_else() {
    // Flip every single byte of a valid UPDATE frame; the decoder must
    // either reject the frame or produce *a* message — never panic, and
    // never mistake an UPDATE body for a different message type.
    let cfg = ParticipantConfig::new(1, 65001, 1);
    let update = cfg.announce([prefix("10.0.0.0/8"), prefix("20.0.0.0/16")], &[65001, 7]);
    let frame = wire::encode(&BgpMessage::Update(update));
    for i in 0..frame.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut corrupted = frame.to_vec();
            corrupted[i] ^= flip;
            let mut buf = bytes::Bytes::from(corrupted);
            match wire::decode(&mut buf) {
                Ok(BgpMessage::Update(_)) | Err(_) => {}
                Ok(other) => {
                    // Only the type byte can legitimately change the
                    // message kind, and then the body must still parse.
                    assert_eq!(i, 18, "byte {i} turned an UPDATE into {other:?}");
                }
            }
        }
    }
}

#[test]
fn session_reset_mid_stream_discards_peer_state() {
    let mut rs = sdx::bgp::route_server::RouteServer::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    rs.add_peer(a.route_source(), ExportPolicy::allow_all());
    rs.add_peer(b.route_source(), ExportPolicy::allow_all());
    rs.process_update(pid(1), &a.announce([prefix("10.0.0.0/8")], &[65001]));

    // Drive a real FSM pair; kill it with a hold-timer expiry.
    let mut left = Session::new(OpenMessage {
        version: 4,
        asn: Asn(65001),
        hold_time: 90,
        router_id: RouterId(1),
    });
    let mut right = Session::new(OpenMessage {
        version: 4,
        asn: Asn(65099),
        hold_time: 90,
        router_id: RouterId(99),
    });
    establish_pair(&mut left, &mut right).expect("up");
    let out = left.handle(SessionEvent::HoldTimerExpired);
    assert!(out.reset);
    assert_eq!(left.state(), SessionState::Idle);
    // The route server reacts to the reset by flushing the peer.
    let events = rs.reset_session(pid(1));
    assert!(!events.is_empty());
    assert!(rs.best_for(pid(2), prefix("10.0.0.0/8")).is_none());
}

#[test]
fn update_after_notification_is_not_processed() {
    let mut s = Session::new(OpenMessage {
        version: 4,
        asn: Asn(65001),
        hold_time: 90,
        router_id: RouterId(1),
    });
    let mut peer = Session::new(OpenMessage {
        version: 4,
        asn: Asn(65002),
        hold_time: 90,
        router_id: RouterId(2),
    });
    establish_pair(&mut s, &mut peer).expect("up");
    s.handle(SessionEvent::Received(BgpMessage::Notification {
        code: NotificationCode::Cease,
        subcode: 0,
    }));
    // A straggler update after the reset must not be delivered.
    let out = s.handle(SessionEvent::Received(BgpMessage::Update(
        UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
    )));
    assert!(out.updates.is_empty());
}

#[test]
fn unresolvable_vnh_drops_locally_and_counts() {
    // A router whose FIB points at a VNH nobody answers for: traffic is
    // dropped at the first stage, counted, and nothing reaches the fabric.
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.add_participant(a.clone(), ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    let mut fabric = ctl.deploy().expect("deploy");
    // Sabotage: unbind B's peering address from the ARP responder.
    fabric.arp.unbind(b.primary_port().addr);
    // Also flush A's ARP cache so the miss is observed.
    fabric
        .router_mut(PortId::Phys(pid(1), 1))
        .expect("router")
        .flush_arp();
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 40_000, 80),
    );
    assert!(out.is_empty());
    assert_eq!(
        fabric
            .router(PortId::Phys(pid(1), 1))
            .expect("router")
            .no_arp_drops,
        1
    );
    assert_eq!(fabric.arp.unanswered, 1);
}

#[test]
fn conflicting_policies_resolve_by_isolation_not_interference() {
    // A and B both claim port-80 traffic toward the same prefix — A
    // outbound (its own traffic only) and B outbound (its own traffic
    // only). Conflicts cannot arise across participants by construction.
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b, ExportPolicy::allow_all());
    ctl.add_participant(c.clone(), ExportPolicy::allow_all());
    ctl.add_participant(d.clone(), ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(3), &c.announce([prefix("30.0.0.0/8")], &[65003, 9]));
    ctl.rs
        .process_update(pid(4), &d.announce([prefix("30.0.0.0/8")], &[65004, 9, 9]));
    // A sends web traffic for 30/8 via C; B sends it via D.
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(3)))),
    );
    ctl.set_outbound(
        pid(2),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(4)))),
    );
    let mut fabric = ctl.deploy().expect("deploy");
    let from_a = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip("30.0.0.1"), 40_000, 80),
    );
    assert_eq!(from_a[0].loc.participant(), pid(3));
    let from_b = fabric.send(
        PortId::Phys(pid(2), 1),
        Packet::tcp(ip("9.9.9.9"), ip("30.0.0.1"), 40_000, 80),
    );
    assert_eq!(from_b[0].loc.participant(), pid(4));
}

#[test]
fn injected_compile_fault_rolls_back_reoptimize() {
    let (mut ctl, mut fabric) = two_party_deployment();
    let snap = fabric.clone();
    ctl.faults = FaultPlan::seeded(7).fail_nth(InjectionPoint::Compile, 1);
    let err = ctl.reoptimize(&mut fabric).unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::Compile));
    assert_eq!(fabric, snap, "failed compile must not touch the fabric");
    // The one-shot fault has fired; the very next reoptimize succeeds and
    // the fabric still forwards.
    ctl.reoptimize(&mut fabric).expect("recovers");
    assert_eq!(probe(&mut fabric, "20.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn injected_vnh_fault_leaves_fast_path_atomic() {
    let (mut ctl, mut fabric) = two_party_deployment();
    let snap = fabric.clone();
    ctl.faults = FaultPlan::seeded(7).fail_nth(InjectionPoint::VnhAlloc, 1);
    let err = ctl
        .process_update(pid(2), &announce_30_8(), &mut fabric)
        .unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::VnhAlloc));
    // Flow tables, ARP responder, and every border-router FIB are exactly
    // the pre-failure image.
    assert_eq!(fabric.switch, snap.switch);
    assert_eq!(fabric.arp, snap.arp);
    assert_eq!(fabric, snap);
    // The RIB kept the route (BGP state is not fabric state); a background
    // reoptimize reconverges the data plane.
    ctl.reoptimize(&mut fabric).expect("reconverge");
    assert_eq!(probe(&mut fabric, "30.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn injected_vnh_fault_mid_compile_never_consumes_pool_ids() {
    // The full pipeline reserves its whole VNH batch up front and commits
    // only after every per-group fault check passes. An abort between
    // `reserve` and `commit` — here on the *second* group, so the first
    // reserved triple was already handed to a FEC group — must leave the
    // allocator byte-identical: no consumed ids, no leaked free-list
    // entries.
    let (mut compiler, rs) = testkit::figure1_compiler();
    let mut vnh = VnhAllocator::default();
    let before = vnh.remaining();
    let mut faults = FaultPlan::seeded(7).fail_nth(InjectionPoint::VnhAlloc, 2);
    let err = compiler
        .compile_all_with_faults(&rs, &mut vnh, &mut faults)
        .unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::VnhAlloc));
    assert_eq!(
        vnh.remaining(),
        before,
        "aborted compile must not consume VNH ids"
    );
    // The spent one-shot fault lets the retry through — and because the
    // abort consumed nothing, the retry allocates exactly what a clean
    // compile from a fresh allocator would.
    let report = compiler
        .compile_all_with_faults(&rs, &mut vnh, &mut faults)
        .expect("retry succeeds once the fault is spent");
    let (mut clean_compiler, clean_rs) = testkit::figure1_compiler();
    let clean = clean_compiler
        .compile_all(&clean_rs, &mut VnhAllocator::default())
        .expect("clean compile");
    assert_eq!(
        report.vnh_of, clean.vnh_of,
        "retry must reuse exactly the ids the abort returned"
    );
    assert_eq!(report.arp_bindings, clean.arp_bindings);
}

#[test]
fn injected_commit_fault_rolls_back_torn_fast_path() {
    let (mut ctl, mut fabric) = two_party_deployment();
    let snap = fabric.clone();
    // FabricCommit fires *mid-commit*: delta rules are already staged in
    // the flow table when the fault hits, so this exercises rollback of a
    // genuinely torn fabric.
    ctl.faults = FaultPlan::seeded(3).fail_nth(InjectionPoint::FabricCommit, 1);
    let err = ctl
        .process_update(pid(2), &announce_30_8(), &mut fabric)
        .unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::FabricCommit));
    assert_eq!(fabric, snap, "torn commit must be rolled back whole");
    // Replay the already-ingested prefix through the fast path (the same
    // hook supervised session resets use) once the fault is spent.
    ctl.apply_changed_prefixes(&[prefix("30.0.0.0/8")], &mut fabric)
        .expect("replay");
    assert_eq!(probe(&mut fabric, "30.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn injected_commit_fault_rolls_back_torn_reoptimize() {
    let (mut ctl, mut fabric) = two_party_deployment();
    ctl.process_update(pid(2), &announce_30_8(), &mut fabric)
        .expect("fast path");
    let snap = fabric.clone();
    // Mid-reoptimize the base table has already been swapped when the
    // fault fires (ARP/FIB sync still pending): the worst possible tear.
    ctl.faults = FaultPlan::seeded(3).fail_nth(InjectionPoint::FabricCommit, 1);
    let err = ctl.reoptimize(&mut fabric).unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::FabricCommit));
    assert_eq!(fabric, snap, "reoptimize tear must be invisible");
    ctl.reoptimize(&mut fabric).expect("recovers");
    assert_eq!(probe(&mut fabric, "20.0.0.1")[0].loc.participant(), pid(2));
    assert_eq!(probe(&mut fabric, "30.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn recompile_after_rollbacks_equals_a_cold_compile_on_the_restored_allocator() {
    // A rolled-back transaction restores the allocator by value while the
    // compiler keeps what it compiled — under ids the allocator may hand
    // out differently next time. A steers web traffic to B; then B
    // announces 30/8 and 40/8, C a better 40/8: the next compile has two
    // groups to draw fresh ids for, {20/8, 30/8} via B and {40/8} via C.
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    let c = ParticipantConfig::new(3, 65003, 1);
    for cfg in [&a, &b, &c] {
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
    }
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    let mut fabric = ctl.deploy().expect("deploy");
    let fresh = [prefix("30.0.0.0/8"), prefix("40.0.0.0/8")];
    ctl.rs
        .process_update(pid(2), &b.announce(fresh, &[65002, 7, 7]));
    ctl.rs
        .process_update(pid(3), &c.announce([fresh[1]], &[65003]));

    // The compile draws the two ids in group order and keeps its pieces
    // under them; the commit is torn and rolled back, ids included.
    let snap = fabric.clone();
    ctl.faults = FaultPlan::seeded(3).fail_nth(InjectionPoint::FabricCommit, 1);
    let err = ctl.reoptimize(&mut fabric).unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::FabricCommit));
    assert_eq!(fabric, snap);
    // The fast path takes the same two ids; re-optimisation releases them
    // in that order, so the free list now hands them out the other way
    // round. A fault between reserving and committing them changes
    // nothing.
    let delta = ctl
        .apply_changed_prefixes(&fresh, &mut fabric)
        .expect("fast path");
    assert_eq!(delta.arp_bindings.len(), 2);
    let snap = fabric.clone();
    ctl.faults = FaultPlan::seeded(3).fail_nth(InjectionPoint::VnhAlloc, 1);
    let err = ctl.reoptimize(&mut fabric).unwrap_err();
    assert_eq!(err, SdxError::Injected(InjectionPoint::VnhAlloc));
    assert_eq!(fabric, snap);

    // What a compiler that never compiled anything makes of this world on
    // this allocator (the fast-path ids released, as staging does first).
    let mut restored = ctl.vnh.clone();
    for (_, vmac) in &delta.arp_bindings {
        restored.release(FecId(vmac.fec_id().expect("a VMAC")));
    }
    let cold = sdx_oracle::cold_book(&ctl.compiler)
        .compile_all(&ctl.rs.clone(), &mut restored)
        .expect("cold compile");

    ctl.faults = FaultPlan::disabled();
    ctl.reoptimize(&mut fabric).expect("recovers");
    let report = ctl.report.as_ref().expect("report");
    assert_eq!(report.classifier, cold.classifier);
    assert_eq!(report.groups, cold.groups);
    assert_eq!(report.vnh_of, cold.vnh_of);
    assert_eq!(report.arp_bindings, cold.arp_bindings);
    let ids: Vec<FecId> = report.groups[&pid(1)].iter().map(|g| g.id).collect();
    assert_eq!(ids, [FecId(3), FecId(2)], "drawn the other way round");
    for g in report.groups.values().flatten() {
        assert_eq!(ctl.vnh.id_of_key(&FecKey::of_group(g)), Some(g.id));
    }
    assert_eq!(probe(&mut fabric, "30.0.0.1")[0].loc.participant(), pid(2));
    assert_eq!(probe(&mut fabric, "40.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn vnh_exhaustion_is_typed_contained_and_recoverable() {
    // A deliberately tiny pool: /29 leaves 7 allocatable VNHs (offset 0 is
    // reserved). Announce/withdraw churn burns one delta VNH per
    // re-announce — retired ids are only recycled by reoptimize.
    let mut ctl = SdxController::new();
    ctl.vnh = VnhAllocator::new(prefix("172.16.128.0/29"));
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    // A's policy makes every announced prefix policy-affected, so each
    // fast-path re-announce burns a fresh delta VNH.
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    let mut fabric = ctl.deploy().expect("deploy");

    let mut exhausted = None;
    for _ in 0..20 {
        ctl.process_update(
            pid(2),
            &UpdateMessage::withdraw([prefix("30.0.0.0/8")]),
            &mut fabric,
        )
        .expect("withdraw never allocates");
        let snap = fabric.clone();
        match ctl.process_update(pid(2), &announce_30_8(), &mut fabric) {
            Ok(_) => {}
            Err(e) => {
                assert!(
                    matches!(e, SdxError::VnhExhausted { .. }),
                    "expected typed exhaustion, got {e}"
                );
                assert_eq!(fabric, snap, "exhaustion must keep last-good fabric");
                exhausted = Some(e);
                break;
            }
        }
    }
    assert!(
        exhausted.is_some(),
        "churn must eventually exhaust a /29 pool"
    );
    // 20/8 still forwards on the last-known-good tables.
    assert_eq!(probe(&mut fabric, "20.0.0.1")[0].loc.participant(), pid(2));

    // Reoptimize releases every retired delta id *before* compiling, so
    // the drained pool recovers...
    ctl.reoptimize(&mut fabric).expect("recycles delta ids");
    // ...and both routes forward again, with fresh fast-path allocations
    // working too.
    assert_eq!(probe(&mut fabric, "30.0.0.1")[0].loc.participant(), pid(2));
    ctl.process_update(
        pid(2),
        &ParticipantConfig::new(2, 65002, 1).announce([prefix("40.0.0.0/8")], &[65002]),
        &mut fabric,
    )
    .expect("post-recycle allocation");
    assert_eq!(probe(&mut fabric, "40.0.0.1")[0].loc.participant(), pid(2));
}

#[test]
fn vnh_pool_exhaustion_panics_loudly() {
    // Deliberately tiny pool: allocation must fail fast with a clear
    // message, not wrap around into colliding tags.
    let result = std::panic::catch_unwind(|| {
        let mut alloc = sdx::core::vnh::VnhAllocator::new(prefix("10.0.0.0/30")); // 4 addrs
        for _ in 0..10 {
            alloc.allocate();
        }
    });
    assert!(result.is_err());
}

#[test]
fn withdrawn_only_route_blackholes_cleanly() {
    // All routes for a prefix disappear while a policy still references
    // it: traffic is dropped at the sender's FIB (withdrawn), the fabric
    // sees nothing, and no rule forwards to the vanished participant.
    let mut ctl = SdxController::new();
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 1);
    ctl.add_participant(a, ExportPolicy::allow_all());
    ctl.add_participant(b.clone(), ExportPolicy::allow_all());
    ctl.rs
        .process_update(pid(2), &b.announce([prefix("20.0.0.0/8")], &[65002]));
    ctl.set_outbound(
        pid(1),
        Some(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
    );
    let mut fabric = ctl.deploy().expect("deploy");
    ctl.process_update(
        pid(2),
        &UpdateMessage::withdraw([prefix("20.0.0.0/8")]),
        &mut fabric,
    )
    .expect("fast path");
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 40_000, 80),
    );
    assert!(
        out.is_empty(),
        "withdrawn destination must not be reachable"
    );
    assert_eq!(
        fabric
            .router(PortId::Phys(pid(1), 1))
            .expect("router")
            .no_route_drops,
        1,
        "dropped at the sender's own FIB"
    );
}
