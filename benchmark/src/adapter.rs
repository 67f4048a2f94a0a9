//! The one module that calls into the `sdx-*` crates.
//!
//! Every other file of the benchmark reaches the system under test through
//! the functions and types here, so a change to the crates' entry points
//! (ROADMAP item 3) needs a follow-up in this file only. The wire
//! workloads use [`RunningDaemon`] (`daemon::start` / `reoptimize` /
//! `stop`), the four sockets and the `codec` wrappers; the in-process
//! workload and the traced replica use the controller, fabric and layer
//! functions further down.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdx_bgp::wire::{self, StreamDecoder};
use sdx_bgp::{
    BgpMessage, OpenMessage, PathAttributes, RouteServer, Supervisor, SupervisorConfig,
    UpdateMessage,
};
use sdx_core::reconcile::DELTA_BASE;
use sdx_core::{FecId, ParticipantConfig, ScheduleOpts, SdxController};
use sdx_ixp::policy_workload::{assign_policies, PolicyWorkloadParams};
use sdx_ixp::topology::{build, SyntheticIxp, TopologyParams};
use sdx_net::{Asn, RouterId};
use sdx_openflow::table::FlowTable;
use sdx_oracle::{synth, Differential};
use sdx_policy::{PolicyDelta, PolicyScope};
use sdx_runtime::codec::{self, ChannelFrame, PolicyOpFrame};
use sdx_runtime::{daemon, DaemonConfig, DaemonHandle};
use sdx_telemetry::{Gauge, Histogram, SharedRegistry};

use crate::trace::Tracer;

pub use sdx_net::{LocatedPacket, Packet, ParticipantId, PortId, Prefix};
pub use sdx_openflow::{Fabric, FlowModBatch};

// ---------------------------------------------------------------------
// The exchange under test
// ---------------------------------------------------------------------

/// A named exchange size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub participants: usize,
    pub prefixes: usize,
    pub policy_prefixes: usize,
}

/// 50 participants / 3 000 prefixes / 800 policy prefixes.
pub const IXP50: Scale = Scale {
    participants: 50,
    prefixes: 3_000,
    policy_prefixes: 800,
};

/// The population every run uses. The exchange is a fixture, not an
/// input: `--seed` draws the traffic offered to it.
const TOPOLOGY_SEED: u64 = 1;

/// A synthetic exchange with the §6.1 policy mix and a converged route
/// server, from which fresh controllers are stamped.
pub struct Exchange {
    ixp: SyntheticIxp,
    rs: RouteServer,
}

/// One participant as the load generator needs to know it.
#[derive(Clone, Debug)]
pub struct Member {
    pub id: ParticipantId,
    pub asn: u32,
    pub ports: Vec<u8>,
    pub has_policy: bool,
    pub announced: Vec<Prefix>,
}

impl Exchange {
    pub fn build(scale: Scale) -> Exchange {
        let mut ixp = build(&TopologyParams {
            participants: scale.participants,
            prefixes: scale.prefixes,
            seed: TOPOLOGY_SEED,
            ..Default::default()
        });
        assign_policies(
            &mut ixp,
            &PolicyWorkloadParams {
                policy_prefixes: scale.policy_prefixes,
                seed: TOPOLOGY_SEED.wrapping_mul(31).wrapping_add(7),
                ..Default::default()
            },
        );
        let rs = ixp.route_server();
        Exchange { ixp, rs }
    }

    /// A fresh, undeployed controller holding this exchange's participants,
    /// policies and converged routes.
    pub fn controller(&self) -> SdxController {
        let mut ctl = SdxController::new();
        for cfg in &self.ixp.participants {
            ctl.compiler.upsert_participant(cfg.clone());
        }
        ctl.rs = self.rs.clone();
        ctl.rs.set_telemetry(ctl.telemetry.clone());
        ctl
    }

    /// Participants, largest announcer first.
    pub fn members(&self) -> Vec<Member> {
        let mut v: Vec<Member> = self
            .ixp
            .participants
            .iter()
            .zip(&self.ixp.announcements)
            .map(|(cfg, ann)| Member {
                id: cfg.id,
                asn: cfg.asn.0,
                ports: cfg.ports.iter().map(|p| p.index).collect(),
                has_policy: cfg.has_policy(),
                announced: ann.clone(),
            })
            .collect();
        v.sort_by(|a, b| {
            b.announced
                .len()
                .cmp(&a.announced.len())
                .then(a.id.cmp(&b.id))
        });
        v
    }

    fn config(&self, id: ParticipantId) -> &ParticipantConfig {
        self.ixp
            .participants
            .iter()
            .find(|c| c.id == id)
            .expect("participant of this exchange")
    }

    /// An UPDATE from `from` announcing `prefixes` over `as_path`, next hop
    /// the participant's own peering address.
    pub fn announce(&self, from: ParticipantId, prefixes: &[Prefix], as_path: &[u32]) -> Update {
        Update(
            self.config(from)
                .announce(prefixes.iter().copied(), as_path),
        )
    }

    /// The UPDATE that puts `prefix` back to what `from` announced when the
    /// exchange converged.
    pub fn original_announcement(&self, from: ParticipantId, prefix: Prefix) -> Update {
        let attrs: PathAttributes = self
            .rs
            .adj_rib_in(from)
            .and_then(|rib| rib.get(prefix))
            .expect("prefix originally announced by this participant")
            .clone();
        Update(UpdateMessage::announce([prefix], attrs))
    }

    /// For each of `candidates`, how many rules the fast path emits when
    /// its route changes (0: no participant's policy covers the prefix, and
    /// a burst over it would leave the switch table alone).
    pub fn fast_path_rules(&self, candidates: &[Prefix]) -> Vec<(Prefix, usize)> {
        let mut ctl = self.controller();
        candidates
            .iter()
            .map(|&p| {
                let delta = ctl
                    .compiler
                    .fast_update(&ctl.rs, &mut ctl.vnh, p)
                    .expect("fast path on the converged exchange");
                for (_, vmac) in &delta.arp_bindings {
                    if let Some(id) = vmac.fec_id() {
                        ctl.vnh.release(FecId(id));
                    }
                }
                (p, delta.additional_rules())
            })
            .collect()
    }

    /// The DSL name of `id`'s physical port `index` (`C2`, `P312`).
    pub fn port_name(id: ParticipantId, index: u8) -> String {
        format!("{}{index}", sdx_core::vswitch::participant_name(id))
    }

    /// The DSL name of the virtual port leading to `id` (`B`, `P31`).
    pub fn peer_name(id: ParticipantId) -> String {
        sdx_core::vswitch::participant_name(id)
    }
}

/// A BGP UPDATE, opaque outside this module.
#[derive(Clone, Debug, PartialEq)]
pub struct Update(UpdateMessage);

impl Update {
    /// The RFC 4271 wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        wire::encode(&BgpMessage::Update(self.0.clone())).to_vec()
    }
}

// ---------------------------------------------------------------------
// BGP and policy wire helpers (the participant's side of the sockets)
// ---------------------------------------------------------------------

pub fn open_bytes(asn: u32, hold_time: u16) -> Vec<u8> {
    wire::encode(&BgpMessage::Open(OpenMessage {
        version: 4,
        asn: Asn(asn),
        hold_time,
        router_id: RouterId(asn),
    }))
    .to_vec()
}

pub fn keepalive_bytes() -> Vec<u8> {
    wire::encode(&BgpMessage::Keepalive).to_vec()
}

/// What kind of message came off a BGP session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BgpKind {
    Open,
    Keepalive,
    Update,
    Notification,
}

/// Reassembles BGP messages from a byte stream.
#[derive(Default)]
pub struct BgpStream(StreamDecoder);

impl BgpStream {
    pub fn push(&mut self, bytes: &[u8]) {
        self.0.push(bytes);
    }

    /// The next complete message, `Ok(None)` when more bytes are needed.
    pub fn next_kind(&mut self) -> Result<Option<BgpKind>, String> {
        Ok(self.next_message()?.map(|m| match m {
            BgpMessage::Open(_) => BgpKind::Open,
            BgpMessage::Keepalive => BgpKind::Keepalive,
            BgpMessage::Update(_) => BgpKind::Update,
            BgpMessage::Notification { .. } => BgpKind::Notification,
        }))
    }

    fn next_message(&mut self) -> Result<Option<BgpMessage>, String> {
        self.0.next().map_err(|e| format!("bgp wire error: {e:?}"))
    }
}

/// Which way a policy applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    Inbound,
    Outbound,
}

impl Direction {
    fn scope(self) -> PolicyScope {
        match self {
            Direction::Inbound => PolicyScope::Inbound,
            Direction::Outbound => PolicyScope::Outbound,
        }
    }
}

/// One policy lifecycle operation in wire form: DSL text, or `None` to
/// retract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyOp {
    pub participant: ParticipantId,
    pub direction: Direction,
    pub verb: PolicyVerb,
    pub dsl: Option<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyVerb {
    Install,
    Replace,
    Retract,
}

impl PolicyOp {
    fn frame(&self) -> PolicyOpFrame {
        let scope = self.direction.scope();
        match (self.verb, &self.dsl) {
            (PolicyVerb::Install, Some(dsl)) => {
                PolicyOpFrame::install(self.participant, scope, dsl.as_str())
            }
            (PolicyVerb::Replace, Some(dsl)) => {
                PolicyOpFrame::replace(self.participant, scope, dsl.as_str())
            }
            (PolicyVerb::Retract, _) => PolicyOpFrame::retract(self.participant, scope),
            (_, None) => panic!("install/replace without a policy body"),
        }
    }

    /// The policy frame line as the policy socket carries it (newline
    /// included).
    pub fn encode_frame(&self, seq: u64) -> String {
        let mut line = codec::encode_policy_frame(seq, &[self.frame()]);
        line.push('\n');
        line
    }
}

/// Decodes an ack line (OpenFlow channel or policy socket) into
/// `(seq, accepted)`.
pub fn decode_ack(line: &str) -> Result<(u64, bool), String> {
    codec::decode_ack(line)
        .map(|(seq, r)| (seq, r.is_ok()))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The daemon (system under test of the wire workloads)
// ---------------------------------------------------------------------

/// `sdx_runtime::daemon` on loopback plus the two completion signals the
/// driver reads from its public registry.
pub struct RunningDaemon {
    handle: DaemonHandle,
    /// One observation per UPDATE, recorded after the pass that carried it
    /// streamed its flow-mods and took the ack barrier.
    updates_flushed: Arc<Histogram>,
    /// The deployed table's mutation generation, published as the last
    /// step of every pass (burst flush, policy compile, re-optimisation).
    table_epoch: Arc<Gauge>,
}

/// What the daemon hands back when stopped.
pub struct StoppedDaemon {
    pub ctl: SdxController,
    pub fabric: Fabric,
    pub updates: u64,
    pub compiles: u64,
}

impl RunningDaemon {
    /// `daemon::start(ctl, cfg)` with `DaemonConfig::default()` except
    /// `hold_time` (the benchmark's peers never answer keepalives).
    pub fn start(ctl: SdxController, hold_time: u16) -> std::io::Result<RunningDaemon> {
        let cfg = DaemonConfig {
            hold_time,
            ..DaemonConfig::default()
        };
        let handle = daemon::start(ctl, cfg)?;
        let reg = handle.telemetry().clone();
        Ok(RunningDaemon {
            updates_flushed: reg.histogram("daemon.update_to_flowmod_us"),
            table_epoch: reg.gauge("dataplane.matcher.epoch"),
            handle,
        })
    }

    pub fn bgp_addr(&self) -> SocketAddr {
        self.handle.bgp_addr
    }

    pub fn openflow_addr(&self) -> SocketAddr {
        self.handle.openflow_addr
    }

    pub fn policy_addr(&self) -> SocketAddr {
        self.handle.policy_addr
    }

    pub fn reoptimize(&self) {
        self.handle.reoptimize();
    }

    pub fn updates_flushed(&self) -> u64 {
        self.updates_flushed.count()
    }

    pub fn table_epoch(&self) -> i64 {
        self.table_epoch.get()
    }

    /// A counter of the daemon's registry.
    pub fn counter(&self, key: &str) -> u64 {
        counter(self.handle.telemetry(), key)
    }

    /// Time the daemon's controller has spent in `reoptimize` so far, ms.
    /// Read before any operation, it is the deploy inside `daemon::start`.
    pub fn reoptimize_total_ms(&self) -> f64 {
        self.handle.telemetry().histogram("reoptimize.total").sum() as f64 / 1e6
    }

    pub fn stop(self) -> StoppedDaemon {
        let report = self.handle.stop();
        StoppedDaemon {
            ctl: report.ctl,
            fabric: report.fabric,
            updates: report.updates,
            compiles: report.compiles,
        }
    }
}

/// A counter of a daemon or controller registry, 0 when never touched.
pub fn counter(reg: &SharedRegistry, key: &str) -> u64 {
    reg.counter(key).get()
}

// ---------------------------------------------------------------------
// The switch agent's table (the benchmark is the switch)
// ---------------------------------------------------------------------

/// What applying one OpenFlow-channel frame did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Applied {
    pub seq: u64,
    pub sync: bool,
    pub mods: usize,
    pub accepted: bool,
    /// Time inside `Fabric::apply_flowmods`.
    pub apply_ns: u64,
}

/// The agent's mirror of the daemon's switch table.
#[derive(Default)]
pub struct Mirror {
    pub fabric: Fabric,
}

impl Mirror {
    /// Decodes one frame line with `codec::decode_frame` and applies it;
    /// `Err` for a frame that does not decode (unanswerable: no seq).
    pub fn apply_line(&mut self, line: &str) -> Result<Applied, String> {
        let frame = codec::decode_frame(line).map_err(|e| e.to_string())?;
        let seq = frame.seq();
        let (sync, batch) = match frame {
            ChannelFrame::Apply { batch, .. } => (false, batch),
            ChannelFrame::Sync { batch, .. } => (true, batch),
        };
        if sync {
            self.fabric.switch.table_mut().clear();
        }
        let t = Instant::now();
        let accepted = self.fabric.apply_flowmods(&batch).is_ok();
        Ok(Applied {
            seq,
            sync,
            mods: batch.len(),
            accepted,
            apply_ns: t.elapsed().as_nanos() as u64,
        })
    }

    pub fn rules(&self) -> usize {
        self.fabric.switch.table().len()
    }

    /// Rules at priority ≥ `DELTA_BASE`: fast-path overlays (Fig. 9).
    pub fn overlay_rules(&self) -> usize {
        overlay_rules(&self.fabric)
    }
}

pub fn overlay_rules(fabric: &Fabric) -> usize {
    fabric
        .switch
        .table()
        .entries()
        .iter()
        .take_while(|e| e.priority >= DELTA_BASE)
        .count()
}

pub fn base_rules(fabric: &Fabric) -> usize {
    fabric.switch.table().len() - overlay_rules(fabric)
}

/// The ack line for `applied` (no newline).
pub fn encode_ack(applied: &Applied) -> String {
    let result = if applied.accepted {
        Ok(())
    } else {
        Err("flow-mod batch rejected")
    };
    codec::encode_ack(applied.seq, result)
}

// ---------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------

/// Seeded probes over whatever the controller currently routes.
pub fn sample_probes(ctl: &SdxController, seed: u64, n: usize) -> Vec<(PortId, Packet)> {
    synth::sample_probes(&ctl.compiler, &ctl.rs, seed, n)
}

/// Same rules in the same order: priority, pattern, buckets and cookie of
/// every entry. Hit counters are left out (the live table of the forward
/// workload carries traffic, its mirror does not).
pub fn tables_equal(a: &Fabric, b: &Fabric) -> bool {
    let (a, b) = (a.switch.table().entries(), b.switch.table().entries());
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.priority, &x.pattern, &x.buckets, x.cookie)
                == (y.priority, &y.pattern, &y.buckets, y.cookie)
        })
}

/// `Differential::over_table(..).check_all`: the deployed table against
/// the specification interpreter. Returns how many probes delivered.
pub fn differential_check(
    ctl: &SdxController,
    fabric: &Fabric,
    probes: &[(PortId, Packet)],
) -> Result<usize, String> {
    let report = ctl
        .report
        .as_ref()
        .ok_or_else(|| "controller has no compile report".to_string())?;
    Differential::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table())
        .check_all(probes)
        .map_err(|m| format!("oracle mismatch: {m}"))
}

fn deliveries(fabric: &mut Fabric, from: PortId, pkt: Packet) -> Vec<(PortId, Packet)> {
    fabric
        .send(from, pkt)
        .into_iter()
        .map(|d| (d.loc, d.pkt))
        .collect()
}

/// A from-scratch controller over the same participants and RIB as `ctl`
/// must forward every probe exactly as `fabric` does.
pub fn from_scratch_check(
    ctl: &SdxController,
    fabric: &mut Fabric,
    probes: &[(PortId, Packet)],
) -> Result<(), String> {
    let mut cold = SdxController::new();
    for cfg in ctl.compiler.participants().values() {
        cold.compiler.upsert_participant(cfg.clone());
    }
    cold.rs = ctl.rs.clone();
    let mut cold_fabric = cold.deploy().map_err(|e| format!("cold deploy: {e}"))?;
    for &(from, pkt) in probes {
        let warm = deliveries(fabric, from, pkt);
        let scratch = deliveries(&mut cold_fabric, from, pkt);
        if warm != scratch {
            return Err(format!(
                "deployed table diverged from a from-scratch deploy for {pkt:?} in at {from}: \
                 {warm:?} vs {scratch:?}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// In-process deployment (forward workload, traced replica)
// ---------------------------------------------------------------------

/// A controller and the fabric it deployed, in this process.
pub struct Deployed {
    pub ctl: SdxController,
    pub fabric: Fabric,
}

impl Deployed {
    /// `ctl.deploy()`, with the batch log on so that every flow-mod batch
    /// the controller applies can be drained and replayed elsewhere.
    pub fn deploy(mut ctl: SdxController) -> Result<Deployed, String> {
        let mut fabric = ctl.deploy().map_err(|e| e.to_string())?;
        fabric.enable_batch_log();
        Ok(Deployed { ctl, fabric })
    }

    /// Feeds `updates` to the route server and runs the fast path over the
    /// changed prefixes (one `apply_changed_prefixes` call). Returns the
    /// flow-mod batches the controller applied to its fabric.
    pub fn apply_burst(
        &mut self,
        updates: &[(ParticipantId, Update)],
    ) -> Result<Vec<FlowModBatch>, String> {
        let changed = self.ingest(updates, &mut Tracer::new(false));
        self.ctl
            .apply_changed_prefixes(&changed, &mut self.fabric)
            .map_err(|e| e.to_string())?;
        Ok(self.fabric.drain_batches())
    }

    /// `RouteServer::process_update` per UPDATE, one span each; returns
    /// the changed prefixes, sorted and unique.
    fn ingest(&mut self, updates: &[(ParticipantId, Update)], tr: &mut Tracer) -> Vec<Prefix> {
        let mut changed: Vec<Prefix> = Vec::new();
        for (from, update) in updates {
            let s = tr.enter("bgp", span::PROCESS_UPDATE);
            let events = self.ctl.rs.process_update(*from, &update.0);
            tr.exit(s);
            for ev in events {
                if let sdx_bgp::RouteServerEvent::PrefixChanged(p) = ev {
                    changed.push(p);
                }
            }
        }
        changed.sort();
        changed.dedup();
        changed
    }

    /// `ctl.reoptimize`; returns the batches that take another table from
    /// the state before the call to the state after it: the retirement of
    /// the fast-path overlays (which the controller does outside the
    /// flow-mod protocol) as one batch of deletes, then the patch.
    pub fn reoptimize(&mut self) -> Result<Vec<FlowModBatch>, String> {
        let retire = codec::retire_batch(self.fabric.switch.table(), DELTA_BASE, 0);
        self.ctl
            .reoptimize(&mut self.fabric)
            .map_err(|e| e.to_string())?;
        let mut batches = Vec::new();
        if !retire.is_empty() {
            batches.push(retire);
        }
        batches.extend(self.fabric.drain_batches());
        Ok(batches)
    }

    /// One round of probes through `Fabric::send`; returns deliveries.
    pub fn send_round(&mut self, probes: &[(PortId, Packet)]) -> usize {
        let mut delivered = 0usize;
        for &(from, pkt) in probes {
            delivered += std::hint::black_box(self.fabric.send(from, pkt)).len();
        }
        delivered
    }

    /// The probes as the switch sees them: forwarded by the ingress border
    /// router (FIB + ARP tag), dropped when unroutable. Works on a copy of
    /// the routers so their counters and ARP caches stay untouched.
    pub fn locate(&self, probes: &[(PortId, Packet)]) -> Vec<LocatedPacket> {
        let mut scratch = self.fabric.clone();
        let mut arp = scratch.arp.clone();
        probes
            .iter()
            .filter_map(|&(from, pkt)| scratch.router_mut(from)?.forward(pkt, &mut arp))
            .collect()
    }
}

/// Index of the winning entry as the compiled matcher and as the linear
/// walk see it; the two must agree on every packet.
pub fn classify_agrees(fabric: &Fabric, lp: &LocatedPacket) -> bool {
    let table = fabric.switch.table();
    table.classify(lp).map(|(i, _)| i) == table.classify_linear(lp).map(|(i, _)| i)
}

/// Applies one batch through `Fabric::apply_flowmods`, returning the time
/// spent in the call.
pub fn apply_batch_timed(fabric: &mut Fabric, batch: &FlowModBatch) -> Result<Duration, String> {
    let t = Instant::now();
    fabric.apply_flowmods(batch).map_err(|e| e.to_string())?;
    Ok(t.elapsed())
}

/// A fabric holding only a switch table equal to `of`'s.
pub fn table_mirror(of: &Fabric) -> Fabric {
    let mut f = Fabric::new();
    f.apply_flowmods(&codec::sync_batch(of.switch.table(), 0))
        .expect("a table image applies to an empty table");
    f
}

// ---------------------------------------------------------------------
// The traced replica: the pipeline assembled from public calls
// ---------------------------------------------------------------------
//
// From outside, the daemon is a black box, so the traced run replays a
// workload's inputs through two in-process twins of the exchange. The
// *reference* twin performs each operation as one real controller call
// (`apply_changed_prefixes`, `reoptimize`, `apply_policy_delta`); the
// *parts* twin performs the same operation as the sequence of public
// calls it is made of, one span around each. What the controller does
// privately in between (Adj-RIB-Out / FIB synchronisation, ARP cache
// invalidation) has no public entry point: it shows as the share of the
// reference call the parts do not cover.

/// Span names, shared with the per-layer report.
pub mod span {
    pub const WIRE_ENCODE: &str = "bgp.wire.encode";
    pub const WIRE_DECODE: &str = "bgp.wire.decode";
    pub const HANDLE_MESSAGE: &str = "bgp.supervisor.handle_message";
    pub const PROCESS_UPDATE: &str = "bgp.route_server.process_update";
    pub const DSL_PARSE: &str = "policy.dsl.parse_policy";
    pub const POLICY_COMPILE: &str = "policy.compile.compile";
    pub const STAGE_DELTA: &str = "core.controller.stage_policy_delta";
    pub const DELTA_SNAPSHOT: &str = "core.txn.delta_snapshot";
    pub const FAST_UPDATE: &str = "core.incremental.fast_update_burst";
    pub const VALIDATE_DELTA: &str = "core.txn.validate_delta";
    pub const APPLY_DELTA: &str = "core.controller.apply_delta";
    pub const FABRIC_SNAPSHOT: &str = "core.txn.fabric_snapshot";
    pub const COMPILE_ROUTE_DIRTY: &str = "core.compiler.compile_all.route_dirty";
    pub const COMPILE_POLICY_DIRTY: &str = "core.compiler.compile_all.policy_dirty";
    pub const VALIDATE_REPORT: &str = "core.txn.validate_report";
    pub const RETIRE_OVERLAYS: &str = "openflow.table.remove_at_or_above";
    pub const DIFF: &str = "core.reconcile.diff_base_table";
    pub const PLAN: &str = "core.schedule.plan";
    pub const DRIVE: &str = "core.schedule.drive";
    pub const ARP_BIND: &str = "openflow.arp.bind";
    pub const ENCODE_APPLY: &str = "runtime.codec.encode_apply";
    pub const DECODE_FRAME: &str = "runtime.codec.decode_frame";
    pub const SEND_BATCH: &str = "runtime.channel.send_batch";
    pub const BARRIER: &str = "runtime.channel.barrier";
    pub const DECODE_POLICY_FRAME: &str = "runtime.codec.decode_policy_frame";
    pub const REF_APPLY_CHANGED: &str = "core.controller.apply_changed_prefixes";
    pub const REF_REOPTIMIZE: &str = "core.controller.reoptimize";
    pub const REF_APPLY_POLICY: &str = "core.controller.apply_policy_delta";

    /// The parts of a fast-path update that run inside
    /// `apply_changed_prefixes`.
    pub const FAST_PATH_PARTS: [&str; 4] =
        [DELTA_SNAPSHOT, FAST_UPDATE, VALIDATE_DELTA, APPLY_DELTA];
    /// The parts of a re-optimisation that run inside `reoptimize` (and,
    /// after staging, inside `apply_policy_delta`).
    pub const REOPT_PARTS: [&str; 9] = [
        FABRIC_SNAPSHOT,
        COMPILE_ROUTE_DIRTY,
        COMPILE_POLICY_DIRTY,
        VALIDATE_REPORT,
        RETIRE_OVERLAYS,
        DIFF,
        PLAN,
        DRIVE,
        ARP_BIND,
    ];
}

/// Encodes every UPDATE of `updates` under one span.
pub fn encode_updates_traced(updates: &[(ParticipantId, Update)], tr: &mut Tracer) {
    let s = tr.enter("bgp", span::WIRE_ENCODE);
    for (_, u) in updates {
        std::hint::black_box(u.encode());
    }
    tr.exit(s);
}

/// What the fast path did for one burst.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastPathFacts {
    pub changed_prefixes: usize,
    pub rules: usize,
}

/// What one re-optimisation did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReoptFacts {
    pub flowmods: usize,
    pub unchanged: usize,
    pub waves: usize,
    pub groups: usize,
    pub memo_hits: usize,
    /// Policies in the book, each looked up once in the compiler's memo.
    pub policies: usize,
    pub rules: usize,
}

/// The supervised BGP sessions of the parts twin: `Supervisor` driven to
/// `Established` for each session the workload opens.
pub struct Sessions {
    sup: Supervisor,
}

impl Sessions {
    pub fn establish(ids_and_asns: &[(ParticipantId, u32)], twin: &mut Deployed) -> Sessions {
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        for &(id, asn) in ids_and_asns {
            let local = OpenMessage {
                version: 4,
                asn: Asn(64512),
                hold_time: 3_600,
                router_id: RouterId(64512),
            };
            sup.add_peer(id, local, 0);
            sup.connection_up(0, id, &mut twin.ctl.rs);
            let theirs = OpenMessage {
                version: 4,
                asn: Asn(asn),
                hold_time: 3_600,
                router_id: RouterId(asn),
            };
            sup.handle_message(0, id, BgpMessage::Open(theirs), &mut twin.ctl.rs);
            sup.handle_message(0, id, BgpMessage::Keepalive, &mut twin.ctl.rs);
        }
        Sessions { sup }
    }
}

/// The parts twin.
pub struct Parts {
    pub d: Deployed,
    /// Ids the fast path allocated since the last re-optimisation (the
    /// controller keeps the same list privately and releases it first).
    delta_ids: Vec<FecId>,
    epoch: u64,
}

impl Parts {
    pub fn new(d: Deployed) -> Parts {
        Parts {
            d,
            delta_ids: Vec::new(),
            epoch: 1 << 20,
        }
    }

    /// Wire bytes → `StreamDecoder` → `Supervisor::handle_message`, one
    /// span per call. Returns the changed prefixes, sorted and unique.
    pub fn ingest(
        &mut self,
        sessions: &mut Sessions,
        per_session: &[(ParticipantId, &[u8])],
        tr: &mut Tracer,
    ) -> Result<Vec<Prefix>, String> {
        let mut changed = Vec::new();
        for &(from, bytes) in per_session {
            if bytes.is_empty() {
                continue;
            }
            let s = tr.enter("bgp", span::WIRE_DECODE);
            let mut stream = BgpStream::default();
            stream.push(bytes);
            let mut msgs = Vec::new();
            while let Some(m) = stream.next_message()? {
                msgs.push(m);
            }
            tr.exit(s);
            for m in msgs {
                let s = tr.enter("bgp", span::HANDLE_MESSAGE);
                let out = sessions.sup.handle_message(0, from, m, &mut self.d.ctl.rs);
                tr.exit(s);
                changed.extend(out.changed_prefixes);
            }
        }
        changed.sort();
        changed.dedup();
        Ok(changed)
    }

    /// The fast path as its public parts: `DeltaTxn::begin` →
    /// `fast_update_burst` → `validate_delta` → `apply_delta`. Returns the
    /// facts and the batches the fabric logged.
    pub fn fast_path(
        &mut self,
        changed: &[Prefix],
        tr: &mut Tracer,
    ) -> Result<(FastPathFacts, Vec<FlowModBatch>), String> {
        let Deployed { ctl, fabric } = &mut self.d;
        let s = tr.enter("core", span::DELTA_SNAPSHOT);
        let txn = sdx_core::DeltaTxn::begin(ctl);
        tr.exit(s);
        drop(txn);
        let s = tr.enter("core", span::FAST_UPDATE);
        let delta = ctl
            .compiler
            .fast_update_burst(&ctl.rs, &mut ctl.vnh, changed)
            .map_err(|e| e.to_string());
        tr.exit(s);
        let delta = delta?;
        let s = tr.enter("core", span::VALIDATE_DELTA);
        let ok = sdx_core::txn::validate_delta(&delta).map_err(|e| e.to_string());
        tr.exit(s);
        ok?;
        let s = tr.enter("core", span::APPLY_DELTA);
        let ok = ctl.apply_delta(&delta, fabric).map_err(|e| e.to_string());
        tr.exit(s);
        ok?;
        self.delta_ids.extend(
            delta
                .arp_bindings
                .iter()
                .filter_map(|(_, vmac)| vmac.fec_id())
                .map(FecId),
        );
        Ok((
            FastPathFacts {
                changed_prefixes: changed.len(),
                rules: delta.rules.len(),
            },
            fabric.drain_batches(),
        ))
    }

    /// A re-optimisation as its public parts. `compile_span` names the
    /// `compile_all` span (route-dirty or policy-dirty).
    pub fn reoptimize(
        &mut self,
        compile_span: &'static str,
        tr: &mut Tracer,
    ) -> Result<(ReoptFacts, Vec<FlowModBatch>), String> {
        let Deployed { ctl, fabric } = &mut self.d;
        let s = tr.enter("core", span::FABRIC_SNAPSHOT);
        let txn = sdx_core::FabricTxn::begin(ctl, fabric);
        tr.exit(s);
        drop(txn);
        // The controller's private bookkeeping, in the controller's order,
        // so that the allocator hands this twin the ids the reference gets.
        for id in self.delta_ids.drain(..) {
            ctl.vnh.release(id);
        }
        let old = ctl.report.take();
        let s = tr.enter("core", compile_span);
        let report = ctl
            .compiler
            .compile_all(&ctl.rs, &mut ctl.vnh)
            .map_err(|e| e.to_string());
        tr.exit(s);
        let report = report?;
        let s = tr.enter("core", span::VALIDATE_REPORT);
        let ok = sdx_core::txn::validate_report(&report).map_err(|e| e.to_string());
        tr.exit(s);
        ok?;
        let s = tr.enter("openflow", span::RETIRE_OVERLAYS);
        fabric.switch.table_mut().remove_at_or_above(DELTA_BASE);
        tr.exit(s);
        self.epoch += 1;
        let s = tr.enter("core", span::DIFF);
        let diff = sdx_core::diff_base_table(fabric.switch.table(), &report.classifier, self.epoch);
        tr.exit(s);
        let s = tr.enter("core", span::PLAN);
        let plan = sdx_core::schedule::plan(fabric.switch.table(), &diff.batch);
        tr.exit(s);
        let s = tr.enter("core", span::DRIVE);
        let reg = ctl.telemetry.clone();
        let driven = sdx_core::schedule::drive(
            &plan,
            fabric,
            &mut ctl.faults,
            &reg,
            &ScheduleOpts::default(),
            None,
        )
        .map_err(|e| e.to_string());
        tr.exit(s);
        driven?;
        let s = tr.enter("openflow", span::ARP_BIND);
        for cfg in ctl.compiler.participants().values() {
            for port in &cfg.ports {
                fabric.arp.bind(port.addr, port.mac);
            }
        }
        for &(vnh, vmac) in &report.arp_bindings {
            fabric.arp.bind(vnh, vmac);
        }
        tr.exit(s);
        let live: std::collections::BTreeSet<u32> = report
            .groups
            .values()
            .flat_map(|gs| gs.iter().map(|g| g.id.0))
            .collect();
        if let Some(old) = &old {
            for g in old.groups.values().flatten() {
                if !live.contains(&g.id.0) {
                    ctl.vnh.release(g.id);
                }
            }
        }
        let facts = ReoptFacts {
            flowmods: diff.batch.len(),
            unchanged: diff.unchanged,
            waves: plan.wave_count(),
            groups: report.stats.group_count,
            memo_hits: report.stats.memo_hits,
            policies: ctl
                .compiler
                .participants()
                .values()
                .map(|c| usize::from(c.outbound.is_some()) + usize::from(c.inbound.is_some()))
                .sum(),
            rules: report.stats.rule_count,
        };
        ctl.report = Some(report);
        Ok((facts, fabric.drain_batches()))
    }

    /// A policy frame as its public parts up to staging:
    /// `decode_policy_frame` → `parse_policy` → (`policy::compile`, timed
    /// beside the pipeline: `compile_all` repeats it behind its memo) →
    /// `stage_policy_delta`.
    pub fn stage_policy(&mut self, line: &str, tr: &mut Tracer) -> Result<(), String> {
        let s = tr.enter("runtime", span::DECODE_POLICY_FRAME);
        let decoded = codec::decode_policy_frame(line.trim()).map_err(|e| e.to_string());
        tr.exit(s);
        let (_, ops) = decoded?;
        let delta = policy_delta(&self.d.ctl, &ops, tr)?;
        let s = tr.enter("core", span::STAGE_DELTA);
        let ok = self
            .d
            .ctl
            .stage_policy_delta(&delta)
            .map_err(|e| e.to_string());
        tr.exit(s);
        ok
    }
}

/// Parses the ops of a policy frame against the controller's participant
/// book (what the daemon's event loop does on receipt).
fn policy_delta(
    ctl: &SdxController,
    ops: &[PolicyOpFrame],
    tr: &mut Tracer,
) -> Result<PolicyDelta, String> {
    let book: BTreeMap<ParticipantId, Vec<u8>> = ctl
        .compiler
        .participants()
        .iter()
        .map(|(&p, c)| (p, c.ports.iter().map(|pt| pt.index).collect()))
        .collect();
    let mut delta = PolicyDelta::new();
    for op in ops {
        let policy = match &op.policy {
            Some(dsl) => {
                let resolver = sdx_core::vswitch::resolver_for(op.participant, &book);
                let s = tr.enter("policy", span::DSL_PARSE);
                let parsed = sdx_policy::parse_policy(dsl, &resolver).map_err(|e| e.to_string());
                tr.exit(s);
                let parsed = parsed?;
                let s = tr.enter("policy", span::POLICY_COMPILE);
                std::hint::black_box(sdx_policy::compile(&parsed));
                tr.exit(s);
                Some(parsed)
            }
            None => None,
        };
        delta = match (op.op.as_str(), op.scope, policy) {
            ("retract", PolicyScope::Outbound, _) => delta.retract_outbound(op.participant),
            ("retract", PolicyScope::Inbound, _) => delta.retract_inbound(op.participant),
            ("install", PolicyScope::Outbound, Some(p)) => {
                delta.install_outbound(op.participant, p)
            }
            ("replace", PolicyScope::Outbound, Some(p)) => {
                delta.replace_outbound(op.participant, p)
            }
            ("install", PolicyScope::Inbound, Some(p)) => delta.install_inbound(op.participant, p),
            ("replace", PolicyScope::Inbound, Some(p)) => delta.replace_inbound(op.participant, p),
            (verb, _, _) => return Err(format!("malformed policy op `{verb}`")),
        };
    }
    Ok(delta)
}

/// The reference twin: each operation as one real controller call.
impl Deployed {
    /// `RouteServer::process_update` per UPDATE (one span each), then
    /// `apply_changed_prefixes` as the reference span.
    pub fn reference_burst(
        &mut self,
        updates: &[(ParticipantId, Update)],
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let changed = self.ingest(updates, tr);
        let s = tr.enter("core", span::REF_APPLY_CHANGED);
        let ok = self
            .ctl
            .apply_changed_prefixes(&changed, &mut self.fabric)
            .map_err(|e| e.to_string());
        tr.exit(s);
        let _ = self.fabric.drain_batches();
        ok.map(|_| ())
    }

    pub fn reference_reoptimize(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let s = tr.enter("core", span::REF_REOPTIMIZE);
        let ok = self
            .ctl
            .reoptimize(&mut self.fabric)
            .map(|_| ())
            .map_err(|e| e.to_string());
        tr.exit(s);
        let _ = self.fabric.drain_batches();
        ok
    }

    pub fn reference_policy(&mut self, line: &str, tr: &mut Tracer) -> Result<(), String> {
        let (_, ops) = codec::decode_policy_frame(line.trim()).map_err(|e| e.to_string())?;
        let delta = policy_delta(&self.ctl, &ops, &mut Tracer::new(false))?;
        let s = tr.enter("core", span::REF_APPLY_POLICY);
        let ok = self
            .ctl
            .apply_policy_delta(&delta, &mut self.fabric)
            .map(|_| ())
            .map_err(|e| e.to_string());
        tr.exit(s);
        let _ = self.fabric.drain_batches();
        ok
    }
}

/// `FlowChannel` on a loopback connection to the repository's own
/// simulated switch agent (`spawn_agent`).
pub struct AgentLink {
    channel: sdx_runtime::FlowChannel,
    agent: sdx_runtime::AgentHandle,
}

impl AgentLink {
    pub fn connect() -> std::io::Result<AgentLink> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let agent = sdx_runtime::spawn_agent(listener.local_addr()?)?;
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let channel = sdx_runtime::FlowChannel::new(0, stream, 32, SharedRegistry::new())?;
        Ok(AgentLink { channel, agent })
    }

    /// Brings the agent's empty table up to `table` (what the daemon does
    /// when a switch connects).
    pub fn sync(&mut self, fabric: &Fabric) -> Result<(), String> {
        self.channel
            .send_sync(&codec::sync_batch(fabric.switch.table(), 0))?;
        self.channel.barrier()
    }

    /// `send_batch` for every batch, then `barrier`, each under a span;
    /// `encode_apply` and `decode_frame` are timed beside them on the same
    /// batches (the channel and the agent call them behind the socket).
    /// Returns the encoded bytes.
    pub fn stream(&mut self, batches: &[FlowModBatch], tr: &mut Tracer) -> Result<usize, String> {
        let mut bytes = 0usize;
        for (i, b) in batches.iter().enumerate() {
            let s = tr.enter("runtime", span::ENCODE_APPLY);
            let line = codec::encode_apply(i as u64, b);
            tr.exit(s);
            bytes += line.len();
            let s = tr.enter("runtime", span::DECODE_FRAME);
            let decoded = codec::decode_frame(&line).map_err(|e| e.to_string());
            tr.exit(s);
            decoded?;
        }
        for b in batches {
            let s = tr.enter("runtime", span::SEND_BATCH);
            let sent = self.channel.send_batch(b);
            tr.exit(s);
            sent?;
        }
        let s = tr.enter("runtime", span::BARRIER);
        let ok = self.channel.barrier();
        tr.exit(s);
        ok?;
        Ok(bytes)
    }

    /// Closes the channel and returns the agent's final fabric.
    pub fn close(self) -> Fabric {
        self.channel.close();
        self.agent.join()
    }
}

// ---------------------------------------------------------------------
// Single-layer measurements of the traced run
// ---------------------------------------------------------------------

/// `compile_all` on a fresh compiler and allocator over the converged
/// exchange: the Fig. 8 cold compile, without deployment, in seconds.
pub fn cold_compile_s(ex: &Exchange) -> Result<f64, String> {
    let mut ctl = ex.controller();
    let t = Instant::now();
    ctl.compiler
        .compile_all(&ctl.rs, &mut ctl.vnh)
        .map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64())
}

/// Milliseconds for `FlowTable::install_classifier` of the deployed
/// classifier into an empty table, and microseconds for a full
/// `rebuild_matcher` of the deployed table.
pub fn table_build_costs(d: &Deployed) -> (f64, f64) {
    let report = d.ctl.report.as_ref().expect("deployed");
    let mut table = FlowTable::new();
    let t = Instant::now();
    table.install_classifier(&report.classifier, 1);
    let install_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut copy = d.fabric.switch.table().clone();
    let t = Instant::now();
    copy.rebuild_matcher();
    (install_ms, t.elapsed().as_secs_f64() * 1e6)
}

/// Per-packet costs of the data-plane layers over `probes`, nanoseconds,
/// and where the compiled matcher found its hits.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataplaneCosts {
    pub classify_ns: f64,
    pub classify_linear_ns: f64,
    pub router_forward_ns: f64,
    pub switch_process_ns: f64,
    pub hit_share_exact: f64,
    pub hit_share_trie: f64,
    pub hit_share_residual: f64,
    pub matcher_bytes: f64,
}

pub fn dataplane_costs(d: &Deployed, probes: &[(PortId, Packet)]) -> DataplaneCosts {
    // Passes over the probes for the indexed paths; the linear walk, an
    // order slower, gets one.
    let rounds = 4;
    let located = d.locate(probes);
    let mut scratch = d.fabric.clone();
    let per = |t: Instant, n: usize| t.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let before = scratch.switch.table().matcher_stats();
    let t = Instant::now();
    for _ in 0..rounds {
        for lp in &located {
            std::hint::black_box(scratch.switch.table().classify(lp).map(|(i, _)| i));
        }
    }
    let classify_ns = per(t, rounds * located.len());
    let after = scratch.switch.table().matcher_stats();
    let t = Instant::now();
    for lp in &located {
        std::hint::black_box(scratch.switch.table().classify_linear(lp).map(|(i, _)| i));
    }
    let classify_linear_ns = per(t, located.len());
    let mut arp = scratch.arp.clone();
    let t = Instant::now();
    for _ in 0..rounds {
        for &(from, pkt) in probes {
            if let Some(r) = scratch.router_mut(from) {
                std::hint::black_box(r.forward(pkt, &mut arp));
            }
        }
    }
    let router_forward_ns = per(t, rounds * probes.len());
    let t = Instant::now();
    for _ in 0..rounds {
        for lp in &located {
            std::hint::black_box(scratch.switch.process(*lp));
        }
    }
    let switch_process_ns = per(t, rounds * located.len());
    let hits = |a: u64, b: u64| (a - b) as f64;
    let (exact, trie, residual) = (
        hits(after.exact_hits, before.exact_hits),
        hits(after.trie_hits, before.trie_hits),
        hits(after.residual_hits, before.residual_hits),
    );
    let total = (exact + trie + residual).max(1.0);
    DataplaneCosts {
        classify_ns,
        classify_linear_ns,
        router_forward_ns,
        switch_process_ns,
        hit_share_exact: exact / total,
        hit_share_trie: trie / total,
        hit_share_residual: residual / total,
        matcher_bytes: after.approx_bytes as f64,
    }
}

/// Milliseconds to image the deployed table as a sync frame
/// (`sync_batch` + `encode_sync`), the frame a connecting switch and every
/// overlay retirement pay for.
pub fn sync_frame_ms(fabric: &Fabric) -> f64 {
    let t = Instant::now();
    let image = codec::sync_batch(fabric.switch.table(), 0);
    std::hint::black_box(codec::encode_sync(0, &image));
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds for one policy frame through `encode_policy_frame` and
/// `decode_policy_frame`.
pub fn policy_frame_roundtrip_us(ops: &[PolicyOp]) -> f64 {
    if ops.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let line = codec::encode_policy_frame(i as u64, &[op.frame()]);
        std::hint::black_box(codec::decode_policy_frame(&line).expect("own frame decodes"));
    }
    t.elapsed().as_secs_f64() * 1e6 / ops.len() as f64
}

/// `(observe_ns, snapshot_us)` of the telemetry registry: one histogram
/// observation by key, and one full snapshot of a registry as populated
/// as `reg`.
pub fn telemetry_costs(reg: &SharedRegistry) -> (f64, f64) {
    const N: u32 = 200_000;
    let scratch = SharedRegistry::new();
    let t = Instant::now();
    for i in 0..N {
        scratch.observe("bench.observe", u64::from(i));
    }
    let observe_ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    let t = Instant::now();
    for _ in 0..20 {
        std::hint::black_box(reg.snapshot());
    }
    (observe_ns, t.elapsed().as_secs_f64() * 1e6 / 20.0)
}

/// Counters of a controller's registry the per-layer report reads.
pub fn controller_counter(d: &Deployed, key: &str) -> u64 {
    counter(&d.ctl.telemetry, key)
}
