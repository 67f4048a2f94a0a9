//! End-to-end daemon tests: the full SDX over real loopback sockets.
//!
//! The centerpiece replays the paper's Figure 1 exchange through `sdxd`
//! the way a deployment would see it — BGP announcements over TCP
//! sessions, flow-mods streamed to a switch agent over the OpenFlow
//! channel — and then oracle-verifies that the table the *agent* holds
//! is packet-for-packet identical to what the all-in-process path
//! deploys. The rest cover the runtime behaviors that only exist at
//! this layer: burst coalescing under channel backpressure, hold-timer
//! expiry, a peer's NOTIFICATION and flap damping on TCP resets
//! (deterministic via `MockClock`), agent resynchronization after a
//! rejected wave, and graceful shutdown after a failed re-optimization.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdx_bgp::{BgpMessage, ExportPolicy, MockClock, NotificationCode};
use sdx_core::reconcile::DELTA_BASE;
use sdx_core::{FaultPlan, InjectionPoint, ParticipantConfig, SdxController};
use sdx_ixp::testkit::{figure1_controller, figure1_inbound_b, figure1_outbound_a};
use sdx_net::{prefix, Ipv4Addr, Packet, ParticipantId, PortId};
use sdx_openflow::table::FlowTable;
use sdx_oracle::synth::probe_grid;
use sdx_oracle::{Differential, FabricEvaluator, Outcome};
use sdx_policy::PolicyScope;
use sdx_runtime::{codec, daemon, spawn_agent, DaemonConfig, TestPeer};
use sdx_telemetry::{Json, SharedRegistry};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// The Figure 1 exchange with an *empty* RIB: routes must arrive over
/// the wire. Topology, policies, and exports match
/// `sdx_ixp::testkit::figure1_controller` exactly.
fn figure1_empty_rib() -> SdxController {
    let a = ParticipantConfig::new(1, 65001, 1);
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);
    let mut ctl = SdxController::new();
    ctl.add_participant(
        a.with_outbound(figure1_outbound_a()),
        ExportPolicy::allow_all(),
    );
    let mut b_export = ExportPolicy::allow_all();
    b_export.deny(pid(1), prefix("40.0.0.0/8"));
    ctl.add_participant(b.with_inbound(figure1_inbound_b()), b_export);
    ctl.add_participant(c, ExportPolicy::allow_all());
    ctl.add_participant(d, ExportPolicy::allow_all());
    ctl
}

fn counter(reg: &SharedRegistry, key: &str) -> u64 {
    reg.snapshot().counters.get(key).copied().unwrap_or(0)
}

fn wait_counter(reg: &SharedRegistry, key: &str, min: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while counter(reg, key) < min {
        assert!(
            Instant::now() < deadline,
            "timeout waiting for {key} >= {min} (at {})",
            counter(reg, key)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn announce(cfg: &ParticipantConfig, pfx: &str, path: &[u32]) -> BgpMessage {
    BgpMessage::Update(cfg.announce([prefix(pfx)], path))
}

/// Runs `f` on its own thread and returns its result, failing the test if
/// that takes more than 10 s — for waits a regression would make endless.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} took more than 10 s"))
}

/// Reads `peer` until the daemon closes the connection; returns the
/// messages read before EOF.
fn read_to_eof(what: &str, mut peer: TestPeer) -> Vec<BgpMessage> {
    let outcome = within(what, move || {
        let mut msgs = Vec::new();
        loop {
            match peer.recv() {
                Ok(m) => msgs.push(m),
                Err(e) => return (msgs, e.kind()),
            }
        }
    });
    assert_eq!(outcome.1, ErrorKind::UnexpectedEof, "{what}");
    outcome.0
}

#[test]
fn figure1_over_sockets_is_oracle_identical_to_in_process() {
    let handle = daemon::start(figure1_empty_rib(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();

    // A switch agent joins before any routes exist; it will live
    // through the whole run.
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // B, C, and D bring up real BGP sessions and announce the
    // Figure 1b RIB over the wire.
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);
    let mut peer_b = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer B");
    let mut peer_c = TestPeer::establish(handle.bgp_addr, 65003, 30).expect("peer C");
    let mut peer_d = TestPeer::establish(handle.bgp_addr, 65004, 30).expect("peer D");
    wait_counter(&reg, "session.established.count", 3);

    for (pfx, path) in [
        ("10.0.0.0/8", vec![65002, 100, 200]),
        ("20.0.0.0/8", vec![65002, 100, 200]),
        ("30.0.0.0/8", vec![65002, 300]),
        ("40.0.0.0/8", vec![65002, 400]),
    ] {
        peer_b.send(&announce(&b, pfx, &path)).expect("send");
    }
    for (pfx, path) in [
        ("10.0.0.0/8", vec![65003, 200]),
        ("20.0.0.0/8", vec![65003, 200]),
        ("40.0.0.0/8", vec![65003, 400]),
    ] {
        peer_c.send(&announce(&c, pfx, &path)).expect("send");
    }
    peer_d
        .send(&announce(&d, "50.0.0.0/8", &[65004, 500]))
        .expect("send");
    wait_counter(&reg, "daemon.updates.count", 8);

    // The telemetry endpoint serves a parseable registry + journal dump.
    let mut telem = TcpStream::connect(handle.telemetry_addr).expect("telemetry");
    let mut body = String::new();
    telem.read_to_string(&mut body).expect("read");
    let snap = Json::parse(body.trim()).expect("valid JSON");
    assert!(
        snap.get("counters").is_some(),
        "telemetry dump has counters"
    );
    assert!(snap.get("events").is_some(), "telemetry dump has journal");
    // Data-plane health rides along: the deployed table's compiled-matcher
    // shape is published as gauges wherever the table image changes.
    let gauges = snap.get("gauges").expect("telemetry dump has gauges");
    for key in [
        "dataplane.table.entries",
        "dataplane.matcher.epoch",
        "dataplane.matcher.exact.entries",
        "dataplane.matcher.residual.entries",
    ] {
        assert!(gauges.get(key).is_some(), "missing matcher gauge {key}");
    }
    let entries = match gauges.get("dataplane.table.entries") {
        Some(Json::Int(n)) => *n,
        other => panic!("dataplane.table.entries not numeric: {other:?}"),
    };
    assert!(entries > 0, "deployed table should have entries");

    // Fold the fast-path deltas into a scheduled re-optimization, waves
    // streamed to the agent; then stop. mpsc ordering guarantees the
    // reoptimize completes before the stop is processed.
    handle.reoptimize();
    let report = handle.stop();
    let agent_fabric = agent.join();

    assert_eq!(report.updates, 8);
    assert!(report.compiles >= 1);
    assert!(report.batches_streamed >= 1, "flow-mods crossed the wire");
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 0);

    // Byte-level: the agent's table is exactly the daemon's table.
    assert_eq!(
        agent_fabric.switch.table(),
        report.fabric.switch.table(),
        "agent table diverged from the driving fabric"
    );

    // Oracle: the deployed-over-sockets table is packet-equivalent to
    // the spec interpreter over the daemon's final configuration...
    let ctl = report.ctl;
    let cr = ctl.report.as_ref().expect("compiled");
    let probes = probe_grid(&ctl.compiler, &ctl.rs);
    let diff = Differential::over_table(&ctl.compiler, &ctl.rs, cr, agent_fabric.switch.table());
    let delivered = diff.check_all(&probes).expect("no mismatch");
    assert!(delivered > 0, "probe grid vacuous");

    // ...and verdict-identical to the all-in-process deployment of the
    // same exchange (same topology, policies, and RIB, compiled without
    // ever touching a socket).
    let mut inproc = figure1_controller();
    let inproc_fabric = inproc.deploy().expect("in-process deploy");
    let inproc_cr = inproc.report.as_ref().expect("compiled");
    let socket_eval =
        FabricEvaluator::over_table(&ctl.compiler, &ctl.rs, cr, agent_fabric.switch.table());
    let inproc_eval = FabricEvaluator::over_table(
        &inproc.compiler,
        &inproc.rs,
        inproc_cr,
        inproc_fabric.switch.table(),
    );
    for (from, pkt) in &probes {
        let (socket_out, _) = socket_eval.verdict(*from, pkt);
        let (inproc_out, _) = inproc_eval.verdict(*from, pkt);
        assert_eq!(
            socket_out, inproc_out,
            "socket path and in-process path disagree at {from:?} dst {}",
            pkt.nw_dst
        );
    }
}

/// Sends one newline-framed line and reads back the ack line.
fn policy_roundtrip(
    w: &mut BufWriter<TcpStream>,
    r: &mut BufReader<TcpStream>,
    line: &str,
) -> (u64, Result<(), String>) {
    w.write_all(line.as_bytes()).expect("write frame");
    w.write_all(b"\n").expect("write newline");
    w.flush().expect("flush");
    let mut ack = String::new();
    r.read_line(&mut ack).expect("read ack");
    codec::decode_ack(ack.trim()).expect("parseable ack")
}

#[test]
fn policy_frames_stage_deltas_and_nack_garbage_over_the_wire() {
    // The full lifecycle over sockets: a participant pushes a DSL policy
    // frame to the daemon's policy endpoint, gets an ack, and the change
    // flows through the incremental compile into the connected agent's
    // table — oracle-verified. Garbage (unknown writer, non-JSON) gets a
    // typed nack and stages nothing.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);

    // A rewrites its outbound policy: HTTPS now steers via B (it used to
    // go via C). Written in the DSL, exactly as a portal would send it.
    let frame = codec::encode_policy_frame(
        7,
        &[codec::PolicyOpFrame::replace(
            pid(1),
            PolicyScope::Outbound,
            "match(dstport=443) >> fwd(B)",
        )],
    );
    let (seq, result) = policy_roundtrip(&mut w, &mut r, &frame);
    assert_eq!(seq, 7);
    assert_eq!(result, Ok(()), "valid frame must ack clean");
    wait_counter(&reg, "policy.applied.count", 1);
    wait_counter(&reg, "daemon.compiles.count", 1);

    // An unknown participant is rejected by delta validation, with the
    // writer named in the nack; staging is atomic, so nothing applied.
    let frame = codec::encode_policy_frame(
        8,
        &[codec::PolicyOpFrame::install(
            pid(42),
            PolicyScope::Outbound,
            "fwd(B)",
        )],
    );
    let (seq, result) = policy_roundtrip(&mut w, &mut r, &frame);
    assert_eq!(seq, 8);
    let err = result.expect_err("unknown participant must nack");
    assert!(err.contains("42"), "nack should name the writer: {err}");

    // Non-JSON garbage nacks with seq 0 (no frame to attribute it to)
    // and the connection survives for the next frame.
    let (seq, result) = policy_roundtrip(&mut w, &mut r, "not a frame");
    assert_eq!(seq, 0);
    assert!(result.is_err(), "garbage must nack");

    let report = handle.stop();
    let agent_fabric = agent.join();

    assert_eq!(report.policy_frames, 3);
    assert_eq!(counter(&reg, "daemon.policy_frames.count"), 3);
    assert_eq!(counter(&reg, "daemon.policy_rejected.count"), 2);
    assert_eq!(counter(&reg, "policy.applied.count"), 1);
    assert!(counter(&reg, "policy.dirty_units.count") >= 1);

    // The agent's table reflects the staged policy: HTTPS from A's port
    // delivers at B now, and the whole table stays oracle-equivalent to
    // the spec interpreter over the versioned policy store.
    let ctl = report.ctl;
    let cr = ctl.report.as_ref().expect("compiled");
    let diff = Differential::over_table(&ctl.compiler, &ctl.rs, cr, agent_fabric.switch.table());
    let probes = probe_grid(&ctl.compiler, &ctl.rs);
    diff.check_all(&probes).expect("no oracle mismatch");
    let https = Packet::tcp(
        Ipv4Addr::new(9, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 9),
        4321,
        443,
    );
    let out = diff
        .check(PortId::Phys(pid(1), 1), &https)
        .expect("agreed verdict");
    match out {
        Outcome::Deliver {
            port: PortId::Phys(owner, _),
            ..
        } => assert_eq!(owner, pid(2), "pushed policy not in effect: {out:?}"),
        other => panic!("HTTPS should deliver at B, got {other:?}"),
    }
}

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_policy_the_compiler_would_reject_is_nacked_and_routes_keep_flowing() {
    // C's frame parses and names only real ports, but multicasts: the
    // compiler would refuse it, so staging does, before the frame is
    // acked. The exchange keeps going: a later route burst reaches the
    // agent.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);
    let frame = codec::encode_policy_frame(
        5,
        &[codec::PolicyOpFrame::replace(
            pid(3),
            PolicyScope::Outbound,
            "fwd(A) + fwd(B)",
        )],
    );
    let (seq, result) = policy_roundtrip(&mut w, &mut r, &frame);
    assert_eq!(seq, 5);
    let err = result.expect_err("a multicast outbound policy must nack");
    assert!(err.contains("multicast"), "the nack says why: {err}");

    // B announces a prefix nobody had before.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer_b = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer B");
    wait_counter(&reg, "session.established.count", 1);
    peer_b
        .send(&announce(&b, "60.0.0.0/8", &[65002, 600]))
        .expect("send");
    wait_until("the update's flow-mods acked", || {
        reg.histogram("daemon.update_to_flowmod_us").count() == 1
    });

    let report = handle.stop();
    let agent_fabric = agent.join();
    assert_eq!(counter(&reg, "daemon.policy_rejected.count"), 1);
    assert_eq!(counter(&reg, "policy.applied.count"), 0);
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 0);
    assert_eq!(
        agent_fabric.switch.table(),
        report.fabric.switch.table(),
        "agent table diverged from the driving fabric"
    );
    // A's web traffic to the new prefix is delivered at B, its only
    // announcer (B's inbound TE picks B1 for the low source half).
    let fabric = report.fabric;
    let out = fabric.send(
        PortId::Phys(pid(1), 1),
        Packet::tcp(
            Ipv4Addr::new(9, 0, 0, 1),
            Ipv4Addr::new(60, 0, 0, 9),
            4321,
            80,
        ),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
}

#[test]
fn policy_push_after_a_route_burst_retires_the_overlays_on_the_agent() {
    // Overlay retirement is the one table mutation made outside the
    // flow-mod protocol, so every pass that retires overlays locally has
    // to say so to the agents — the policy pass as much as an operator
    // re-optimization. Route burst, then a policy frame, and no
    // `handle.reoptimize()` anywhere.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    let c = ParticipantConfig::new(3, 65003, 1);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65003, 30).expect("peer C");
    wait_counter(&reg, "session.established.count", 1);
    // One UPDATE, so one pass whatever the timing; a path C never used,
    // so both routes change and the fast path has rules to lay over.
    let update = c.announce([prefix("10.0.0.0/8"), prefix("30.0.0.0/8")], &[65003, 999]);
    peer.send(&BgpMessage::Update(update)).expect("send");
    // Flushed to the agent, barrier taken, overlays standing.
    wait_until("the update's flow-mods acked", || {
        reg.histogram("daemon.update_to_flowmod_us").count() == 1
    });
    assert!(
        reg.gauge("controller.delta_layers").get() > 0,
        "fixture: the burst must leave fast-path overlays installed"
    );

    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);
    let frame = codec::encode_policy_frame(
        1,
        &[codec::PolicyOpFrame::replace(
            pid(1),
            PolicyScope::Outbound,
            "match(dstport=443) >> fwd(B)",
        )],
    );
    assert_eq!(policy_roundtrip(&mut w, &mut r, &frame), (1, Ok(())));

    // The ack is written mid-pass; the stop queues behind the pass.
    let report = handle.stop();
    let agent_fabric = agent.join();
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 0);

    assert_eq!(
        agent_fabric.switch.table(),
        report.fabric.switch.table(),
        "agent table diverged from the driving fabric"
    );
    let stale: Vec<_> = agent_fabric
        .switch
        .table()
        .entries()
        .iter()
        .filter(|e| e.priority >= DELTA_BASE)
        .collect();
    assert!(stale.is_empty(), "retired overlays live on: {stale:?}");
    let ctl = report.ctl;
    let cr = ctl.report.as_ref().expect("compiled");
    let probes = probe_grid(&ctl.compiler, &ctl.rs);
    Differential::over_table(&ctl.compiler, &ctl.rs, cr, agent_fabric.switch.table())
        .check_all(&probes)
        .expect("no oracle mismatch on the agent's table");
}

/// A hand-rolled switch agent: decodes each frame and acks it with
/// whatever `on_frame` returns — after `on_frame` has slept, blocked or
/// recorded as it pleases — until the daemon hangs up. Returns `state`.
fn scripted_agent<T: Send + 'static>(
    addr: SocketAddr,
    mut state: T,
    mut on_frame: impl FnMut(&mut T, codec::ChannelFrame) -> Result<(), &'static str> + Send + 'static,
) -> JoinHandle<T> {
    std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let read = stream.try_clone().expect("clone");
        let mut w = BufWriter::new(stream);
        for line in BufReader::new(read).lines() {
            let Ok(line) = line else { break };
            let frame = codec::decode_frame(&line).expect("frame");
            let ack = codec::encode_ack(frame.seq(), on_frame(&mut state, frame));
            if w.write_all(ack.as_bytes()).is_err()
                || w.write_all(b"\n").is_err()
                || w.flush().is_err()
            {
                break;
            }
        }
        state
    })
}

/// A switch agent that applies nothing and acks everything, keeping the
/// (is-sync, batch epoch) of each frame it was sent.
fn epoch_recording_agent(addr: SocketAddr) -> JoinHandle<Vec<(bool, u64)>> {
    scripted_agent(addr, Vec::new(), |seen, frame| {
        seen.push(match frame {
            codec::ChannelFrame::Sync { batch, .. } => (true, batch.epoch),
            codec::ChannelFrame::Apply { batch, .. } => (false, batch.epoch),
        });
        Ok(())
    })
}

#[test]
fn a_switch_connecting_after_a_reoptimization_is_synced_under_its_epoch() {
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let first = epoch_recording_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // A policy-affected prefix from B: the fast path lands overlays and
    // the re-optimization that folds them in has waves to stream.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    peer.send(&announce(&b, "60.0.0.0/8", &[65002, 300]))
        .expect("send");
    wait_counter(&reg, "daemon.updates.count", 1);

    // The connect is queued behind the re-optimization: one input queue.
    handle.reoptimize();
    let second = epoch_recording_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 2);
    handle.stop();

    let first = first.join().expect("first agent");
    let second = second.join().expect("second agent");
    let &(_, last_streamed) = first.last().expect("the first agent was sent frames");
    assert!(
        first
            .iter()
            .any(|&(sync, epoch)| !sync && epoch == last_streamed),
        "fixture: the re-optimization must have streamed a wave, saw {first:?}"
    );
    assert_eq!(
        second.first(),
        Some(&(true, last_streamed)),
        "the late switch's table image must carry the last streamed epoch"
    );
}

#[test]
fn unbounded_nesting_and_huge_strings_on_the_policy_socket_are_nacked() {
    // Every byte on the policy listener is hostile until parsed. Two lines
    // that used to take the daemon down: 20 KB of `[` (unbounded parser
    // recursion overflowed the event-loop thread's stack and aborted the
    // process) and a 300 KB string (the quadratic scanner held the event
    // loop for seconds). Both must cost a nack and nothing else.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);

    let (seq, result) = policy_roundtrip(&mut w, &mut r, &"[".repeat(20_000));
    assert_eq!(seq, 0, "undecodable: nothing to attribute the nack to");
    let err = result.expect_err("nesting bomb must nack");
    assert!(err.contains("nesting"), "nack should say why: {err}");

    let nested = format!(
        r#"{{"seq":4,"policy":{}{}}}"#,
        "[".repeat(5_000),
        "]".repeat(5_000)
    );
    assert!(policy_roundtrip(&mut w, &mut r, &nested).1.is_err());

    // A well-formed frame around a 300 KB body with escapes in it decodes
    // in linear time and fails where it should: in the DSL parser, with
    // the frame's own seq on the nack.
    let body = "match(dstport=80) \\\"quoted\\\" >> ".repeat(300_000 / 34);
    let big = format!(
        r#"{{"seq":5,"policy":[{{"participant":1,"scope":"out","op":"install","dsl":"{body}"}}]}}"#
    );
    let t0 = Instant::now();
    let (seq, result) = policy_roundtrip(&mut w, &mut r, &big);
    assert_eq!(seq, 5);
    assert!(result.is_err(), "the body is not a policy");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "a 300 KB frame held the event loop for {:?}",
        t0.elapsed()
    );

    // Same connection, next frame: served.
    let frame = codec::encode_policy_frame(
        6,
        &[codec::PolicyOpFrame::replace(
            pid(1),
            PolicyScope::Outbound,
            "match(dstport=443) >> fwd(B)",
        )],
    );
    assert_eq!(policy_roundtrip(&mut w, &mut r, &frame), (6, Ok(())));
    wait_counter(&reg, "policy.applied.count", 1);

    let report = handle.stop();
    assert_eq!(report.policy_frames, 4);
    assert_eq!(counter(&reg, "daemon.policy_rejected.count"), 3);
}

#[test]
fn a_policy_line_that_never_ends_is_cut_off_not_buffered() {
    // The line length is the writer's choice alone. Past the daemon's cap
    // (1 MiB; the 300 KB frame above stays under it) the reader gives up
    // on the connection — a seq-0 nack, then close — instead of growing
    // a buffer for as long as the writer cares to send.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = stream;
    // The daemon hangs up part-way through: the tail of the write may fail.
    let _ = w.write_all(&vec![b'x'; 4 << 20]);
    // A reset can overtake the nack, so the nack is optional — the hang-up
    // is not: a read that merely times out means the daemon is still
    // listening to this writer.
    let mut reply = String::new();
    let mut hung_up = false;
    while !hung_up {
        reply.clear();
        match r.read_line(&mut reply) {
            Ok(0) => hung_up = true,
            Ok(_) => {
                let (seq, result) = codec::decode_ack(reply.trim()).expect("parseable nack");
                assert_eq!(seq, 0);
                let err = result.expect_err("over-long line must nack");
                assert!(err.contains("too long"), "nack should say why: {err}");
            }
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "the daemon kept the connection open"
                );
                hung_up = true;
            }
        }
    }
    assert_eq!(
        counter(&reg, "daemon.policy_read.count"),
        0,
        "nothing of the line may reach the event loop"
    );

    // The listener is unharmed: the next connection is served.
    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);
    let frame = codec::encode_policy_frame(
        2,
        &[codec::PolicyOpFrame::replace(
            pid(1),
            PolicyScope::Outbound,
            "match(dstport=443) >> fwd(B)",
        )],
    );
    assert_eq!(policy_roundtrip(&mut w, &mut r, &frame), (2, Ok(())));
    let report = handle.stop();
    assert_eq!(report.policy_frames, 1);
}

#[test]
fn a_stopped_daemon_hangs_up_on_its_policy_clients() {
    // After `stop()` returns nothing is left to answer a client, so every
    // connection must be closed and every endpoint gone: a policy client
    // reads EOF after the ack of every frame the daemon read, a BGP peer
    // and a switch agent read EOF, and each of the four addresses refuses
    // a connection. The timeouts only keep a regression from hanging the
    // suite; the assertions are on EOF and on refusal.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);
    let peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    wait_counter(&reg, "session.established.count", 1);
    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);
    let frame = codec::encode_policy_frame(
        3,
        &[codec::PolicyOpFrame::replace(
            pid(1),
            PolicyScope::Outbound,
            "match(dstport=443) >> fwd(B)",
        )],
    );
    assert_eq!(policy_roundtrip(&mut w, &mut r, &frame), (3, Ok(())));

    let endpoints = [
        handle.bgp_addr,
        handle.openflow_addr,
        handle.telemetry_addr,
        handle.policy_addr,
    ];
    let report = handle.stop();
    assert_eq!(report.policy_frames, 1);
    let mut rest = String::new();
    match r.read_line(&mut rest) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected line after the last ack: {rest:?}"),
        Err(e) => panic!("the stopped daemon kept the policy connection open: {e}"),
    }
    read_to_eof("the BGP peer reading EOF", peer);
    within("the switch agent reading EOF", move || agent.join());
    for addr in endpoints {
        assert!(
            TcpStream::connect(addr).is_err(),
            "{addr} still accepts connections after stop()"
        );
    }
}

#[test]
fn policy_frame_coalesces_with_a_route_burst() {
    // A policy frame arriving while the event loop is pinned at an agent's
    // ack barrier must fold into the same compile as the queued route
    // updates — one pass, journalled as a policy+burst coalesce. Nothing
    // here is timed: the agent holds the barrier until the test has seen,
    // on the daemon's reader-side counters, that everything is queued.
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let (agent, held, release) = gated_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // B is a target of A's outbound policy, so what it announces lands
    // delta rules on the switch: the first update below does stream a
    // batch, and its barrier is what the agent sits on.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    wait_counter(&reg, "session.established.count", 1);

    // Establish the policy connection up front and prove its reader is
    // live (a garbage line earns an instant nack).
    let stream = TcpStream::connect(handle.policy_addr).expect("policy endpoint");
    let mut r = BufReader::new(stream.try_clone().expect("clone"));
    let mut w = BufWriter::new(stream);
    let (warm_seq, warm) = policy_roundtrip(&mut w, &mut r, "warmup garbage");
    assert_eq!(warm_seq, 0);
    assert!(warm.is_err());

    peer.send(&announce(&b, "60.0.0.0/8", &[65002, 300]))
        .expect("send");
    held.recv_timeout(Duration::from_secs(20))
        .expect("the first update's batch reaches the agent");

    // The event loop is in that batch's barrier and stays there. Behind
    // it: a policy frame and ten route updates. The readers count a
    // message just before queueing it, so each socket carries one more
    // message than the pass needs — once *that* one is counted, the ones
    // before it are in the queue.
    let (read_bgp, read_policy) = (
        counter(&reg, "daemon.bgp_read.count"),
        counter(&reg, "daemon.policy_read.count"),
    );
    let frame = codec::encode_policy_frame(
        1,
        &[codec::PolicyOpFrame::install(
            pid(4),
            PolicyScope::Outbound,
            "match(dstport=80) >> fwd(B)",
        )],
    );
    w.write_all(format!("{frame}\ntrailing garbage\n").as_bytes())
        .expect("write frames");
    w.flush().expect("flush");
    for i in 0..10u32 {
        let pfx = format!("{}.0.0.0/8", 70 + i);
        peer.send(&announce(&b, &pfx, &[65002, 300])).expect("send");
    }
    peer.send(&BgpMessage::Keepalive).expect("send");
    wait_counter(&reg, "daemon.bgp_read.count", read_bgp + 11);
    wait_counter(&reg, "daemon.policy_read.count", read_policy + 2);
    assert_eq!(counter(&reg, "daemon.compiles.count"), 1, "loop not pinned");
    release.send(()).expect("agent alive");

    let read_ack = |r: &mut BufReader<TcpStream>| {
        let mut ack = String::new();
        r.read_line(&mut ack).expect("ack");
        codec::decode_ack(ack.trim()).expect("parseable ack")
    };
    assert_eq!(read_ack(&mut r), (1, Ok(())));
    assert!(read_ack(&mut r).1.is_err(), "trailing garbage is nacked");
    wait_counter(&reg, "daemon.updates.count", 11);

    let report = handle.stop();
    agent.join().expect("agent thread");
    assert_eq!(report.updates, 11);
    assert_eq!(report.policy_frames, 3);
    assert_eq!(
        report.compiles, 2,
        "one pass for the first update, one for everything queued behind it"
    );
    let events = reg.snapshot().events;
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            sdx_telemetry::Event::Custom { name, .. } if name == "policy_coalesced_with_burst"
        )),
        "policy+route coalesce missing from journal: {:?}",
        events.iter().map(|e| e.event.kind()).collect::<Vec<_>>()
    );
}

/// A switch agent that acks its sync frame at once and then sits on its
/// first apply frame: it says on the first channel that it holds the
/// frame, and acks it only when the second channel yields. Every later
/// frame is acked at once. Returns the frames it saw.
fn gated_agent(addr: SocketAddr) -> (JoinHandle<usize>, Receiver<()>, Sender<()>) {
    let (held_tx, held) = channel::<()>();
    let (release, gate) = channel::<()>();
    let join = scripted_agent(addr, 0usize, move |frames, _| {
        if *frames == 1 {
            held_tx.send(()).expect("test alive");
            gate.recv().expect("test releases the gate");
        }
        *frames += 1;
        Ok(())
    });
    (join, held, release)
}

#[test]
fn bursts_coalesce_into_one_compile_under_backpressure() {
    // Updates arriving while the event loop is pinned at an agent's ack
    // barrier fold into one compile. Nothing here is timed: the agent
    // holds the barrier until the daemon's reader-side counter says the
    // whole burst is queued (see `policy_frame_coalesces_with_a_route_burst`).
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let (agent, held, release) = gated_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // B is a target of A's outbound policy, so its announcement lands
    // delta rules: the first update streams a batch, and that batch's
    // barrier is what the agent sits on.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    wait_counter(&reg, "session.established.count", 1);
    peer.send(&announce(&b, "60.0.0.0/8", &[65002, 300]))
        .expect("send");
    held.recv_timeout(Duration::from_secs(20))
        .expect("the first update's batch reaches the agent");

    // ...while a burst of distinct-prefix updates queues up behind it,
    // closed by a sentinel: the reader counts a message just before
    // queueing it, so once the KEEPALIVE is counted the burst is queued.
    let read_bgp = counter(&reg, "daemon.bgp_read.count");
    for i in 0..30u32 {
        let pfx = format!("{}.0.0.0/8", 70 + i);
        peer.send(&announce(&b, &pfx, &[65002, 300])).expect("send");
    }
    peer.send(&BgpMessage::Keepalive).expect("send");
    wait_counter(&reg, "daemon.bgp_read.count", read_bgp + 31);
    assert_eq!(counter(&reg, "daemon.compiles.count"), 1, "loop not pinned");
    release.send(()).expect("agent alive");
    wait_counter(&reg, "daemon.updates.count", 31);

    let report = handle.stop();
    agent.join().expect("agent thread");
    assert_eq!(report.updates, 31);
    assert_eq!(
        report.compiles, 2,
        "one pass for the first update, one for the burst queued behind it"
    );
    assert_eq!(report.coalesced_bursts, 1);
    let events = reg.snapshot().events;
    assert!(
        events.iter().any(|e| e.event.kind() == "burst_coalesced"),
        "burst_coalesced missing from journal"
    );
    assert!(
        events.iter().any(|e| e.event.kind() == "daemon_stopped"),
        "daemon_stopped missing from journal"
    );
}

#[test]
fn patched_daemon_is_oracle_identical_and_publishes_phase_a_telemetry() {
    // The same wire-driven exchange on the daemon's defaults, compiled
    // incrementally on the coalesced-burst path: the deployed table must
    // stay probe-identical to an in-process cold deployment, and phase A's
    // per-viewer telemetry must flow out the endpoint.
    let handle = daemon::start(figure1_empty_rib(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let d = ParticipantConfig::new(4, 65004, 1);
    let mut peer_b = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer B");
    let mut peer_c = TestPeer::establish(handle.bgp_addr, 65003, 30).expect("peer C");
    let mut peer_d = TestPeer::establish(handle.bgp_addr, 65004, 30).expect("peer D");
    wait_counter(&reg, "session.established.count", 3);

    for (pfx, path) in [
        ("10.0.0.0/8", vec![65002, 100, 200]),
        ("20.0.0.0/8", vec![65002, 100, 200]),
        ("30.0.0.0/8", vec![65002, 300]),
        ("40.0.0.0/8", vec![65002, 400]),
    ] {
        peer_b.send(&announce(&b, pfx, &path)).expect("send");
    }
    for (pfx, path) in [
        ("10.0.0.0/8", vec![65003, 200]),
        ("20.0.0.0/8", vec![65003, 200]),
        ("40.0.0.0/8", vec![65003, 400]),
    ] {
        peer_c.send(&announce(&c, pfx, &path)).expect("send");
    }
    peer_d
        .send(&announce(&d, "50.0.0.0/8", &[65004, 500]))
        .expect("send");
    wait_counter(&reg, "daemon.updates.count", 8);

    handle.reoptimize();
    let report = handle.stop();
    let agent_fabric = agent.join();
    assert_eq!(report.updates, 8);
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 0);

    // Phase A's telemetry made it into the registry the endpoint serves:
    // A, the one viewer, had its map built whole by the deploy and
    // patched by every compile since, and was re-partitioned or served
    // once per compile.
    let snap = reg.snapshot();
    let counter = |key: &str| snap.counters.get(key).copied().unwrap_or(0);
    let compiles = snap.histograms["compile.total"].count;
    assert!(compiles >= 2, "the deploy and the re-optimisation compiled");
    assert_eq!(snap.histograms["compile.phase_a.whole"].count, 1);
    assert_eq!(
        counter("compile.shard.recompiled.count") + counter("compile.shard.skipped.count"),
        compiles,
        "one viewer, re-partitioned or served once per compile"
    );

    // Oracle: incremental-over-sockets is verdict-identical to the
    // in-process cold deployment of the same exchange.
    let ctl = report.ctl;
    let cr = ctl.report.as_ref().expect("compiled");
    let probes = probe_grid(&ctl.compiler, &ctl.rs);
    let mut inproc = figure1_controller();
    let inproc_fabric = inproc.deploy().expect("in-process deploy");
    let inproc_cr = inproc.report.as_ref().expect("compiled");
    let daemon_eval =
        FabricEvaluator::over_table(&ctl.compiler, &ctl.rs, cr, agent_fabric.switch.table());
    let inproc_eval = FabricEvaluator::over_table(
        &inproc.compiler,
        &inproc.rs,
        inproc_cr,
        inproc_fabric.switch.table(),
    );
    for (from, pkt) in &probes {
        let (daemon_out, _) = daemon_eval.verdict(*from, pkt);
        let (inproc_out, _) = inproc_eval.verdict(*from, pkt);
        assert_eq!(
            daemon_out, inproc_out,
            "daemon and cold in-process disagree at {from:?} dst {}",
            pkt.nw_dst
        );
    }
}

#[test]
fn hold_timer_expiry_and_tcp_reset_flaps_are_supervised() {
    let clock = MockClock::new();
    let cfg = DaemonConfig::default();
    let handle =
        daemon::start_with_clock(figure1_empty_rib(), cfg, Arc::new(clock.clone())).expect("start");
    let reg = handle.telemetry().clone();

    // Hold-timer expiry: establish, then go silent while the (mock)
    // clock runs past the negotiated hold time.
    let peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    wait_counter(&reg, "session.established.count", 1);
    clock.advance(31_000);
    wait_counter(&reg, "session.reset.count", 1);
    // The daemon notified us before tearing the session down, and then
    // closed the connection (RFC 4271).
    let msgs = read_to_eof("the NOTIFIED peer reading EOF", peer);
    assert!(
        matches!(msgs.as_slice(), [BgpMessage::Notification { .. }]),
        "expected one NOTIFICATION before EOF, got {msgs:?}"
    );

    // TCP reset: reconnect, then vanish without a NOTIFICATION. The
    // supervisor flap-accounts the drop just the same.
    clock.advance(120_000); // decay the flap penalty
    let peer2 = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("reconnect");
    wait_counter(&reg, "session.established.count", 2);
    peer2.drop_connection();
    wait_counter(&reg, "session.reset.count", 2);

    // And the peer can come back again after the reset.
    clock.advance(120_000);
    let peer3 = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("re-reconnect");
    wait_counter(&reg, "session.established.count", 3);

    // A reconnect while the session is up replaces its transport: one
    // reset, and the daemon hangs up on the old connection.
    let _peer4 = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("replacement");
    wait_counter(&reg, "session.established.count", 4);
    read_to_eof("the replaced connection reading EOF", peer3);

    let report = handle.stop();
    assert_eq!(report.updates, 0);
    // Closing a connection after its NOTIFICATION, or after replacing it,
    // is no second flap.
    assert_eq!(counter(&reg, "session.reset.count"), 3);
}

#[test]
fn a_peers_notification_closes_its_connection_and_nothing_reconnects() {
    let clock = MockClock::new();
    let cfg = DaemonConfig::default();
    let handle =
        daemon::start_with_clock(figure1_empty_rib(), cfg, Arc::new(clock.clone())).expect("start");
    let reg = handle.telemetry().clone();
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer B");
    // C stays up: its keepalive shows that a tick ran after the clock moved.
    let _peer_c = TestPeer::establish(handle.bgp_addr, 65003, 30).expect("peer C");
    wait_counter(&reg, "session.established.count", 2);

    let cease = BgpMessage::Notification {
        code: NotificationCode::Cease,
        subcode: 0,
    };
    peer.send(&cease).expect("send");
    wait_counter(&reg, "session.reset.count", 1);
    // RFC 4271: a NOTIFICATION closes the connection, whoever sent it.
    let msgs = read_to_eof("the peer that sent Cease reading EOF", peer);
    assert!(msgs.is_empty(), "nothing follows a Cease: {msgs:?}");

    // Past any reconnect schedule (keepalives are due every 10 s of C's
    // 30 s hold time): the daemon dials no one and resets nothing more.
    clock.advance(10_000);
    wait_counter(&reg, "session.keepalive.count", 1);
    assert_eq!(counter(&reg, "session.reset.count"), 1);
    let report = handle.stop();
    assert_eq!(report.updates, 0);
    assert_eq!(counter(&reg, "session.reset.count"), 1);
    assert_eq!(counter(&reg, "session.established.count"), 2);
}

/// An agent that rejects the first wave of a scheduled update (the
/// first apply frame after the pre-wave overlay-retirement sync),
/// then behaves — exercising the daemon's resynchronization path.
/// Returns its table (with the syncs it saw and whether it fired).
fn wave_rejecting_agent(addr: SocketAddr) -> JoinHandle<(FlowTable, u32, bool)> {
    scripted_agent(
        addr,
        (FlowTable::new(), 0u32, false),
        |(table, syncs, fired), frame| {
            match frame {
                codec::ChannelFrame::Sync { batch, .. } => {
                    *syncs += 1;
                    table.clear();
                    table.apply_batch(&batch).expect("sync applies");
                }
                // syncs == 1: steady state (connect image); syncs >= 2:
                // a scheduled update retired the overlays — the next
                // apply is wave 0.
                codec::ChannelFrame::Apply { .. } if *syncs >= 2 && !*fired => {
                    *fired = true;
                    return Err("injected agent failure");
                }
                codec::ChannelFrame::Apply { batch, .. } => {
                    table.apply_batch(&batch).expect("apply");
                }
            }
            Ok(())
        },
    )
}

/// A switch agent that applies nothing and acks every frame until it is
/// sent its second sync frame — after the connect image, the overlay
/// retirement of a recompile — and hangs up on that one instead.
fn hangs_up_on_the_retirement_sync(addr: SocketAddr) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let read = stream.try_clone().expect("clone");
        let mut w = BufWriter::new(stream);
        let mut syncs = 0;
        for line in BufReader::new(read).lines() {
            let Ok(line) = line else { break };
            let frame = codec::decode_frame(&line).expect("frame");
            if let codec::ChannelFrame::Sync { .. } = frame {
                syncs += 1;
                if syncs == 2 {
                    return;
                }
            }
            let ack = codec::encode_ack(frame.seq(), Ok(()));
            if writeln!(w, "{ack}").is_err() || w.flush().is_err() {
                break;
            }
        }
    })
}

#[test]
fn a_channel_lost_on_the_retirement_sync_is_dropped_and_the_pass_completes() {
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = hangs_up_on_the_retirement_sync(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // A policy-affected prefix from B lays overlays for the
    // re-optimization to retire, and a fast-path VNH for it to unbind.
    let b = ParticipantConfig::new(2, 65002, 2);
    let update = b.announce([prefix("60.0.0.0/8")], &[65002, 300]);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    peer.send(&BgpMessage::Update(update.clone()))
        .expect("send");
    wait_until("the update's flow-mods acked", || {
        reg.histogram("daemon.update_to_flowmod_us").count() == 1
    });
    assert!(
        reg.gauge("controller.delta_layers").get() > 0,
        "fixture: the update must leave overlays to retire"
    );
    handle.reoptimize();
    let report = handle.stop();
    agent.join().expect("agent thread");

    assert_eq!(counter(&reg, "daemon.channel_lost.count"), 1);
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 0);
    let kinds = reg.journal().kinds();
    let completed = kinds.iter().filter(|&&k| k == "reoptimize_completed");
    assert_eq!(
        completed.count(),
        2,
        "the deploy's and the pass's: {kinds:?}"
    );

    // The pass retired what an in-process twin given the same inputs
    // retires: the fast-path VNH is unbound.
    let mut twin = figure1_controller();
    let mut twin_fabric = twin.deploy().expect("deploy");
    twin.process_update(pid(2), &update, &mut twin_fabric)
        .expect("fast path");
    twin.reoptimize(&mut twin_fabric).expect("reoptimize");
    assert_eq!(report.fabric.arp, twin_fabric.arp);
    assert_eq!(report.fabric.switch.table(), twin_fabric.switch.table());
    assert_eq!(report.ctl.delta_layers(), 0);
}

#[test]
fn rejected_wave_resyncs_the_agent_and_the_next_update_succeeds() {
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = wave_rejecting_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // A fast-path delta gives the scheduled update something to retire
    // and replan. The prefix must be policy-affected to land delta rules
    // in the switch table, so B (a target of A's outbound policy)
    // announces it.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    peer.send(&announce(&b, "60.0.0.0/8", &[65002, 300]))
        .expect("send");
    wait_counter(&reg, "daemon.compiles.count", 1);

    // First scheduled update: the agent rejects wave 0, the fleet
    // barrier fails, the daemon restores its fabric and resyncs the
    // agent. Second scheduled update: clean.
    handle.reoptimize();
    handle.reoptimize();
    let report = handle.stop();
    let (agent_table, ..) = agent.join().expect("agent thread");

    assert!(counter(&reg, "daemon.reoptimize_failed.count") >= 1);
    assert!(counter(&reg, "daemon.resync.count") >= 1);
    assert!(counter(&reg, "schedule.refused.count") >= 1);
    assert_eq!(
        &agent_table,
        report.fabric.switch.table(),
        "agent not reconverged after resync"
    );
}

#[test]
fn a_rolled_back_fast_path_pass_is_never_streamed() {
    // The second `FabricCommit` crossing (the first is the deploy's) is
    // inside the first fast-path pass, after its overlay batch landed on
    // the driving fabric and in the batch log: the rollback has to
    // retract it from both, or the next pass streams it to the agents.
    let mut ctl = figure1_controller();
    ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FabricCommit, 2);
    let handle = daemon::start(ctl, DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // Both prefixes are policy-affected (A forwards web traffic to B and
    // https to C), toward different participants: the two passes' overlay
    // batches differ, and the rolled-back allocator hands the second the
    // first one's VMAC, so an agent that got both would reject the second.
    let b = ParticipantConfig::new(2, 65002, 2);
    let c = ParticipantConfig::new(3, 65003, 1);
    let rolled_back = b.announce([prefix("60.0.0.0/8")], &[65002, 300]);
    let lands = c.announce([prefix("61.0.0.0/8")], &[65003, 300]);
    let mut peer_b = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer B");
    let mut peer_c = TestPeer::establish(handle.bgp_addr, 65003, 30).expect("peer C");
    wait_counter(&reg, "session.established.count", 2);
    peer_b
        .send(&BgpMessage::Update(rolled_back.clone()))
        .expect("send");
    wait_counter(&reg, "daemon.fastpath_failed.count", 1);
    peer_c
        .send(&BgpMessage::Update(lands.clone()))
        .expect("send");
    wait_until("the second update's flow-mods acked", || {
        reg.histogram("daemon.update_to_flowmod_us").count() == 1
    });
    let report = handle.stop();
    let agent_fabric = agent.join();

    assert_eq!(counter(&reg, "daemon.batches_streamed.count"), 1);
    assert_eq!(counter(&reg, "daemon.channel_lost.count"), 0);
    assert_eq!(
        agent_fabric.switch.table(),
        report.fabric.switch.table(),
        "agent table diverged from the driving fabric"
    );
    // No overlay for the rolled-back prefix: the agent holds what an
    // exchange holds whose fast path only ever ran for the second one.
    let mut twin = figure1_controller();
    let mut twin_fabric = twin.deploy().expect("deploy");
    twin.rs.process_update(pid(2), &rolled_back);
    twin.process_update(pid(3), &lands, &mut twin_fabric)
        .expect("fast path");
    assert!(
        twin_fabric.switch.table().entries()[0].priority >= DELTA_BASE,
        "fixture: the second update must lay an overlay"
    );
    assert_eq!(agent_fabric.switch.table(), twin_fabric.switch.table());
}

/// A switch agent that applies every frame, except that it rejects the
/// first apply frame after its connect sync, once. Returns its table and
/// whether it rejected.
fn first_apply_rejecting_agent(addr: SocketAddr) -> JoinHandle<(FlowTable, bool)> {
    scripted_agent(addr, (FlowTable::new(), false), |(table, fired), frame| {
        match frame {
            codec::ChannelFrame::Sync { batch, .. } => {
                table.clear();
                table.apply_batch(&batch).expect("sync applies");
            }
            codec::ChannelFrame::Apply { .. } if !*fired => {
                *fired = true;
                return Err("injected agent failure");
            }
            codec::ChannelFrame::Apply { batch, .. } => {
                table.apply_batch(&batch).expect("apply");
            }
        }
        Ok(())
    })
}

#[test]
fn a_fast_path_batch_an_agent_rejects_is_rolled_back_and_resynced() {
    let handle = daemon::start(figure1_controller(), DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = first_apply_rejecting_agent(handle.openflow_addr);
    wait_counter(&reg, "daemon.switch_connected.count", 1);
    // A second agent takes every batch, the rejected one included: only
    // the resync takes that overlay back off it.
    let other = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 2);

    // Policy-affected prefixes from B (A forwards web traffic to B): each
    // update's fast-path pass streams an overlay batch. The first agent
    // rejects the first; the second lands.
    let b = ParticipantConfig::new(2, 65002, 2);
    let rejected = b.announce([prefix("60.0.0.0/8")], &[65002, 300]);
    let lands = b.announce([prefix("61.0.0.0/8")], &[65002, 300]);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    peer.send(&BgpMessage::Update(rejected.clone()))
        .expect("send");
    wait_counter(&reg, "daemon.fastpath_failed.count", 1);
    peer.send(&BgpMessage::Update(lands.clone())).expect("send");
    wait_until("the second update's flow-mods acked", || {
        reg.histogram("daemon.update_to_flowmod_us").count() == 1
    });
    let report = handle.stop();
    let (agent_table, fired) = agent.join().expect("agent thread");
    let other_fabric = other.join();

    // Rolled back and resynced like a rejected recompile wave: the
    // channel stays up and both agents see the second batch.
    assert!(fired, "fixture: the agent must have rejected a batch");
    assert_eq!(counter(&reg, "daemon.channel_lost.count"), 0);
    assert_eq!(counter(&reg, "daemon.fastpath_failed.count"), 1);
    assert!(counter(&reg, "daemon.resync.count") >= 1);
    for (who, table) in [
        ("the rejecting agent", &agent_table),
        ("the other agent", other_fabric.switch.table()),
    ] {
        assert_eq!(
            table,
            report.fabric.switch.table(),
            "{who}'s table diverged from the driving fabric"
        );
    }
    // No overlay for the rejected prefix: the agent holds what an
    // exchange holds whose fast path only ever ran for the second one.
    let mut twin = figure1_controller();
    let mut twin_fabric = twin.deploy().expect("deploy");
    twin.rs.process_update(pid(2), &rejected);
    twin.process_update(pid(2), &lands, &mut twin_fabric)
        .expect("fast path");
    assert!(
        twin_fabric.switch.table().entries()[0].priority >= DELTA_BASE,
        "fixture: the second update must lay an overlay"
    );
    assert_eq!(&agent_table, twin_fabric.switch.table());
}

#[test]
fn graceful_shutdown_drains_through_injected_faults() {
    let mut ctl = figure1_controller();
    // The deploy inside `daemon::start` crosses the first wave's point
    // first and the burst's overlay wave second, so the re-optimization's
    // is the third crossing: that wave fails, and nothing retries it.
    ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FlowModApply { wave: 0 }, 3);
    let handle = daemon::start(ctl, DaemonConfig::default()).expect("start");
    let reg = handle.telemetry().clone();
    let agent = spawn_agent(handle.openflow_addr).expect("agent");
    wait_counter(&reg, "daemon.switch_connected.count", 1);

    // Announce from B so the prefix is policy-affected (A's outbound
    // policy forwards to B): the delta lands switch rules, and the
    // scheduled update has real waves for the fault plan to bite on.
    let b = ParticipantConfig::new(2, 65002, 2);
    let mut peer = TestPeer::establish(handle.bgp_addr, 65002, 30).expect("peer");
    peer.send(&announce(&b, "60.0.0.0/8", &[65002, 300]))
        .expect("send");
    wait_counter(&reg, "daemon.updates.count", 1);

    handle.reoptimize();
    let report = handle.stop();
    let agent_fabric = agent.join();

    // Rolled back, and the agent (which took the overlay retirement's
    // sync before the wave failed) resynced to the driving table.
    assert_eq!(counter(&reg, "daemon.reoptimize_failed.count"), 1);
    assert!(counter(&reg, "daemon.resync.count") >= 1);
    assert_eq!(
        agent_fabric.switch.table(),
        report.fabric.switch.table(),
        "agent table diverged across the failed re-optimization and shutdown"
    );
    assert!(
        report.fabric.switch.table().entries()[0].priority >= DELTA_BASE,
        "the rolled-back re-optimization leaves the burst's overlay"
    );
    let events = reg.snapshot().events;
    let kind_pos = |k: &str| events.iter().position(|e| e.event.kind() == k);
    let started = kind_pos("daemon_started").expect("daemon_started");
    let established = kind_pos("session_established").expect("session_established");
    let burst = kind_pos("delta_applied").expect("delta_applied");
    let injected = kind_pos("fault_injected").expect("fault_injected");
    let rolled_back = kind_pos("txn_rolled_back").expect("txn_rolled_back");
    // The deploy's own wave precedes `daemon_started`: take the last one.
    let wave = (events.iter())
        .rposition(|e| e.event.kind() == "update_wave_applied")
        .expect("update_wave_applied");
    let stopped = kind_pos("daemon_stopped").expect("daemon_stopped");
    assert!(
        started < established && established < wave && wave < burst && burst < injected,
        "journal order"
    );
    assert!(
        injected < rolled_back && rolled_back < stopped,
        "journal order"
    );
}
