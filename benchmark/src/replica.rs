//! The traced run: a workload's inputs replayed through the in-process
//! replica of the pipeline (see the adapter), a span around each call,
//! and the per-layer metrics derived from the spans, the agent log and
//! the registries.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    self, span, AgentLink, Deployed, Exchange, Fabric, FlowModBatch, Packet, ParticipantId, Parts,
    PortId, ReoptFacts, Sessions, IXP50,
};
use crate::loadgen::{self, Burst, PolicyFrame, Session};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    self, Reps, RunResult, BURSTS, DUMPS, DUMP_SIZE, FORWARD_REOPT_EVERY, POLICY_PARTICIPANTS,
    PROBES, REOPT_EVERY, WARMUP,
};

/// Every per-layer metric, in report order: `(name, unit)`. Every traced
/// run measures all of them: the workload's own operations go through the
/// replica in full, the other kind of operation in brief, so that each
/// layer has a reading whatever the workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bgp.wire.encode_ns_per_msg", "ns"),
    ("bgp.wire.decode_ns_per_msg", "ns"),
    ("bgp.supervisor.handle_message_us", "us"),
    ("bgp.route_server.process_update_us", "us"),
    ("bgp.route_server.changed_prefixes_per_update", "count"),
    ("policy.dsl.parse_us", "us"),
    ("policy.compile.classifier_us", "us"),
    ("policy.delta.stage_us", "us"),
    ("core.incremental.fast_update_us_per_prefix", "us"),
    ("core.incremental.rules_per_prefix", "count"),
    ("core.txn.validate_delta_us", "us"),
    ("core.controller.apply_delta_us", "us"),
    ("core.controller.apply_changed_prefixes_ms", "ms"),
    ("core.compiler.cold_compile_ms", "ms"),
    ("core.controller.deploy_ms", "ms"),
    ("core.fec.groups", "count"),
    ("core.compiler.route_dirty_compile_ms", "ms"),
    ("core.compiler.policy_dirty_compile_ms", "ms"),
    ("core.shard.units_recompiled", "count"),
    ("core.shard.cache_hit_share", "share"),
    ("core.compiler.memo_hit_share", "share"),
    ("core.vnh.reused_share", "share"),
    ("core.controller.reoptimize_ms", "ms"),
    ("core.controller.apply_policy_delta_ms", "ms"),
    ("core.txn.fabric_snapshot_ms", "ms"),
    ("core.reconcile.diff_ms", "ms"),
    ("core.reconcile.flowmods_per_reopt", "count"),
    ("core.reconcile.unchanged_share", "share"),
    ("core.schedule.plan_ms", "ms"),
    ("core.schedule.waves_per_update", "count"),
    ("core.schedule.drive_ms", "ms"),
    ("openflow.fabric.apply_flowmods_us_per_batch", "us"),
    ("openflow.fabric.apply_flowmods_ns_per_mod", "ns"),
    ("openflow.table.install_classifier_ms", "ms"),
    ("openflow.matcher.rebuild_us", "us"),
    ("openflow.matcher.classify_ns", "ns"),
    ("openflow.matcher.classify_linear_ns", "ns"),
    ("openflow.matcher.hit_share_exact", "share"),
    ("openflow.matcher.hit_share_trie", "share"),
    ("openflow.matcher.hit_share_residual", "share"),
    ("openflow.matcher.approx_bytes", "bytes"),
    ("openflow.border_router.forward_ns", "ns"),
    ("openflow.switch.process_ns", "ns"),
    ("runtime.codec.encode_apply_us_per_batch", "us"),
    ("runtime.codec.decode_frame_us_per_batch", "us"),
    ("runtime.codec.bytes_per_mod", "bytes"),
    ("runtime.codec.sync_batch_ms", "ms"),
    ("runtime.codec.policy_frame_roundtrip_us", "us"),
    ("runtime.channel.send_barrier_rtt_us", "us"),
    ("process.peak_rss_mb", "MiB"),
    ("telemetry.registry.observe_ns", "ns"),
    ("telemetry.registry.snapshot_us", "us"),
    ("trace.coverage_share", "share"),
    ("trace.coverage_share_reopt", "share"),
    ("trace.overhead_share", "share"),
];

/// The per-layer values of one traced run.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(BTreeMap::new())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a per-layer metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// `(name, value, unit)` for every per-layer metric, in report order.
    pub fn all(&self) -> Vec<(String, f64, String)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| {
                (
                    n.to_string(),
                    self.0.get(n).copied().unwrap_or(0.0),
                    u.to_string(),
                )
            })
            .collect()
    }
}

pub struct TraceResult {
    pub layers: Layers,
    /// The one-repetition wire run the traced run started with: its counts
    /// (agent log, daemon registry) are printed beside the per-layer
    /// metrics.
    pub wire: RunResult,
    /// Wire `op_ms_p50` minus the reference twin's `apply_changed_prefixes`
    /// p50 on the identical bursts (route workloads over the wire only).
    pub wire_overhead_ms: Option<f64>,
    pub spans: usize,
    pub trace_file: String,
}

/// What the replica passes of one traced run added up to.
#[derive(Default)]
struct Acc {
    /// Time the parts twin spent on the operations, ns.
    parts_ns: u64,
    msgs: u64,
    changed_prefixes: u64,
    delta_rules: u64,
    reopts: Vec<ReoptFacts>,
    batches: u64,
    mods: u64,
    encoded_bytes: u64,
    ops_with_batches: u64,
    mirror_apply_ns: u64,
    vnh_reused: u64,
    vnh_fresh: u64,
    shard_recompiled: u64,
    shard_skipped: u64,
}

impl Acc {
    /// Applies `batches` to the bench's own mirror, timing `apply_flowmods`.
    fn mirror_apply(
        &mut self,
        mirror: &mut Fabric,
        batches: &[FlowModBatch],
    ) -> Result<(), String> {
        for b in batches {
            self.mirror_apply_ns += adapter::apply_batch_timed(mirror, b)?.as_nanos() as u64;
            self.batches += 1;
            self.mods += b.len() as u64;
        }
        if !batches.is_empty() {
            self.ops_with_batches += 1;
        }
        Ok(())
    }

    /// Closes one pass: reads the parts twin's registry and holds the
    /// replica to the table the real controller calls produced.
    fn close_pass(&mut self, parts: &Deployed, reference: &Deployed) -> Result<(), String> {
        let counter = |key: &str| adapter::controller_counter(parts, key);
        self.vnh_reused += counter("vnh.reused.count");
        self.vnh_fresh += counter("vnh.fresh.count");
        self.shard_recompiled += counter("compile.shard.recompiled.count");
        self.shard_skipped += counter("compile.shard.skipped.count");
        if adapter::tables_equal(&parts.fabric, &reference.fabric) {
            Ok(())
        } else {
            Err("the replica's final table differs from the real controller calls'".into())
        }
    }
}

/// The two twins of one replica pass, the parts twin's channel to the
/// repository's simulated agent, and the bench's own mirror table.
struct Twins {
    reference: Deployed,
    parts: Parts,
    link: AgentLink,
    mirror: Fabric,
}

impl Twins {
    fn deploy(ex: &Exchange) -> Result<Twins, String> {
        let reference = Deployed::deploy(ex.controller())?;
        let parts = Parts::new(Deployed::deploy(ex.controller())?);
        let mut link = AgentLink::connect().map_err(|e| format!("agent link: {e}"))?;
        link.sync(&parts.d.fabric)?;
        let mirror = adapter::table_mirror(&parts.d.fabric);
        Ok(Twins {
            reference,
            parts,
            link,
            mirror,
        })
    }

    /// Streams the parts twin's batches to the agent (spans) and applies
    /// them, timed, to the mirror.
    fn stream(
        &mut self,
        batches: &[FlowModBatch],
        acc: &mut Acc,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        acc.encoded_bytes += self.link.stream(batches, tr)? as u64;
        acc.mirror_apply(&mut self.mirror, batches)
    }

    /// Overlay retirement is not a flow-mod batch: like the daemon, bring
    /// the agent (and the mirror) to the post-retirement image.
    fn resync(&mut self) -> Result<(), String> {
        self.link.sync(&self.parts.d.fabric)?;
        self.mirror = adapter::table_mirror(&self.parts.d.fabric);
        Ok(())
    }

    fn finish(self, acc: &mut Acc) -> Result<(), String> {
        drop(self.link.close());
        acc.close_pass(&self.parts.d, &self.reference)
    }
}

/// Route churn through both twins: every burst, a re-optimisation after
/// every `reopt_every`-th, and one at the end.
fn route_pass(
    ex: &Exchange,
    route: &RouteInput,
    acc: &mut Acc,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut tw = Twins::deploy(ex)?;
    let ids: Vec<(ParticipantId, u32)> = route
        .sessions
        .iter()
        .map(|s| (s.participant, s.asn))
        .collect();
    let mut sess = Sessions::establish(&ids, &mut tw.parts.d);
    for (i, burst) in route.bursts.iter().enumerate() {
        tr.next_op();
        adapter::encode_updates_traced(&burst.updates, tr);
        let per_session: Vec<(ParticipantId, &[u8])> = route
            .sessions
            .iter()
            .zip(&burst.bytes)
            .map(|(s, b)| (s.participant, b.as_slice()))
            .collect();
        let t = Instant::now();
        let changed = tw.parts.ingest(&mut sess, &per_session, tr)?;
        let (facts, batches) = tw.parts.fast_path(&changed, tr)?;
        tw.stream(&batches, acc, tr)?;
        acc.parts_ns += t.elapsed().as_nanos() as u64;
        acc.msgs += burst.messages() as u64;
        acc.changed_prefixes += facts.changed_prefixes as u64;
        acc.delta_rules += facts.rules as u64;
        tw.reference.reference_burst(&burst.updates, tr)?;
        if (i + 1) % route.reopt_every == 0 || i + 1 == route.bursts.len() {
            tr.next_op();
            let (facts, _) = tw.parts.reoptimize(span::COMPILE_ROUTE_DIRTY, tr)?;
            acc.reopts.push(facts);
            tw.reference.reference_reoptimize(tr)?;
            tw.resync()?;
        }
    }
    tw.finish(acc)
}

/// The policy lifecycle through both twins.
fn policy_pass(
    ex: &Exchange,
    frames: &[PolicyFrame],
    acc: &mut Acc,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut tw = Twins::deploy(ex)?;
    for frame in frames {
        tr.next_op();
        let t = Instant::now();
        tw.parts.stage_policy(&frame.line, tr)?;
        let (facts, batches) = tw.parts.reoptimize(span::COMPILE_POLICY_DIRTY, tr)?;
        tw.stream(&batches, acc, tr)?;
        acc.parts_ns += t.elapsed().as_nanos() as u64;
        acc.reopts.push(facts);
        tw.reference.reference_policy(&frame.line, tr)?;
    }
    tw.finish(acc)
}

fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (ns, n) = trace::total_ns(spans, name);
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

fn mean_ms(spans: &[Span], name: &str) -> f64 {
    mean_us(spans, name) / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics that come out of the spans and facts of the replica
/// passes.
fn layers_from_passes(l: &mut Layers, s: &[Span], traced: &Acc) {
    let msgs = traced.msgs as f64;
    let changed = traced.changed_prefixes as f64;
    l.set(
        "bgp.wire.encode_ns_per_msg",
        ratio(trace::total_ns(s, span::WIRE_ENCODE).0 as f64, msgs),
    );
    l.set(
        "bgp.wire.decode_ns_per_msg",
        ratio(trace::total_ns(s, span::WIRE_DECODE).0 as f64, msgs),
    );
    l.set(
        "bgp.supervisor.handle_message_us",
        mean_us(s, span::HANDLE_MESSAGE),
    );
    l.set(
        "bgp.route_server.process_update_us",
        mean_us(s, span::PROCESS_UPDATE),
    );
    l.set(
        "bgp.route_server.changed_prefixes_per_update",
        ratio(changed, msgs),
    );
    l.set("policy.dsl.parse_us", mean_us(s, span::DSL_PARSE));
    l.set(
        "policy.compile.classifier_us",
        mean_us(s, span::POLICY_COMPILE),
    );
    l.set("policy.delta.stage_us", mean_us(s, span::STAGE_DELTA));
    l.set(
        "core.incremental.fast_update_us_per_prefix",
        ratio(
            trace::total_ns(s, span::FAST_UPDATE).0 as f64 / 1e3,
            changed,
        ),
    );
    l.set(
        "core.incremental.rules_per_prefix",
        ratio(traced.delta_rules as f64, changed),
    );
    l.set(
        "core.txn.validate_delta_us",
        mean_us(s, span::VALIDATE_DELTA),
    );
    l.set(
        "core.controller.apply_delta_us",
        mean_us(s, span::APPLY_DELTA),
    );
    let reference_burst: Vec<f64> = trace::durations_ns(s, span::REF_APPLY_CHANGED)
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    if !reference_burst.is_empty() {
        l.set(
            "core.controller.apply_changed_prefixes_ms",
            median(&reference_burst),
        );
    }
    l.set(
        "core.compiler.route_dirty_compile_ms",
        mean_ms(s, span::COMPILE_ROUTE_DIRTY),
    );
    l.set(
        "core.compiler.policy_dirty_compile_ms",
        mean_ms(s, span::COMPILE_POLICY_DIRTY),
    );
    l.set(
        "core.controller.reoptimize_ms",
        mean_ms(s, span::REF_REOPTIMIZE),
    );
    l.set(
        "core.controller.apply_policy_delta_ms",
        mean_ms(s, span::REF_APPLY_POLICY),
    );
    l.set(
        "core.txn.fabric_snapshot_ms",
        mean_ms(s, span::FABRIC_SNAPSHOT),
    );
    l.set("core.reconcile.diff_ms", mean_ms(s, span::DIFF));
    l.set("core.schedule.plan_ms", mean_ms(s, span::PLAN));
    l.set("core.schedule.drive_ms", mean_ms(s, span::DRIVE));
    let n = traced.reopts.len() as f64;
    let sum = |f: fn(&ReoptFacts) -> usize| traced.reopts.iter().map(|r| f(r) as f64).sum::<f64>();
    l.set(
        "core.reconcile.flowmods_per_reopt",
        ratio(sum(|r| r.flowmods), n),
    );
    l.set(
        "core.reconcile.unchanged_share",
        ratio(sum(|r| r.unchanged), sum(|r| r.rules)),
    );
    l.set("core.schedule.waves_per_update", ratio(sum(|r| r.waves), n));
    l.set(
        "core.compiler.memo_hit_share",
        ratio(sum(|r| r.memo_hits), sum(|r| r.policies)),
    );
    if let Some(last) = traced.reopts.last() {
        l.set("core.fec.groups", last.groups as f64);
    }
    let (reused, fresh) = (traced.vnh_reused as f64, traced.vnh_fresh as f64);
    l.set("core.vnh.reused_share", ratio(reused, reused + fresh));
    let (recompiled, skipped) = (traced.shard_recompiled as f64, traced.shard_skipped as f64);
    l.set("core.shard.units_recompiled", recompiled);
    l.set(
        "core.shard.cache_hit_share",
        ratio(skipped, recompiled + skipped),
    );
    let batches = traced.batches as f64;
    l.set(
        "openflow.fabric.apply_flowmods_us_per_batch",
        ratio(traced.mirror_apply_ns as f64 / 1e3, batches),
    );
    l.set(
        "openflow.fabric.apply_flowmods_ns_per_mod",
        ratio(traced.mirror_apply_ns as f64, traced.mods as f64),
    );
    l.set(
        "runtime.codec.encode_apply_us_per_batch",
        mean_us(s, span::ENCODE_APPLY),
    );
    l.set(
        "runtime.codec.decode_frame_us_per_batch",
        mean_us(s, span::DECODE_FRAME),
    );
    l.set(
        "runtime.codec.bytes_per_mod",
        ratio(traced.encoded_bytes as f64, traced.mods as f64),
    );
    l.set(
        "runtime.channel.send_barrier_rtt_us",
        ratio(
            (trace::total_ns(s, span::SEND_BATCH).0 + trace::total_ns(s, span::BARRIER).0) as f64
                / 1e3,
            traced.ops_with_batches as f64,
        ),
    );
    // Spans recorded × the calibrated cost of one span, over the time the
    // parts twin spent: a traced-minus-untraced difference of two replica
    // passes is ±20 % host noise on this box, two orders above the answer.
    l.set(
        "trace.overhead_share",
        ratio(
            s.len() as f64 * trace::span_cost_ns(),
            traced.parts_ns as f64,
        ),
    );
}

/// Single-layer measurements every traced run takes on the deployed
/// exchange.
fn layers_from_deployment(
    l: &mut Layers,
    ex: &Exchange,
    probes: &[(PortId, Packet)],
) -> Result<(), String> {
    l.set(
        "core.compiler.cold_compile_ms",
        adapter::cold_compile_s(ex)? * 1e3,
    );
    let t = Instant::now();
    let d = Deployed::deploy(ex.controller())?;
    l.set("core.controller.deploy_ms", t.elapsed().as_secs_f64() * 1e3);
    let (install_ms, rebuild_us) = adapter::table_build_costs(&d);
    l.set("openflow.table.install_classifier_ms", install_ms);
    l.set("openflow.matcher.rebuild_us", rebuild_us);
    let dp = adapter::dataplane_costs(&d, probes);
    l.set("openflow.matcher.classify_ns", dp.classify_ns);
    l.set("openflow.matcher.classify_linear_ns", dp.classify_linear_ns);
    l.set("openflow.matcher.hit_share_exact", dp.hit_share_exact);
    l.set("openflow.matcher.hit_share_trie", dp.hit_share_trie);
    l.set("openflow.matcher.hit_share_residual", dp.hit_share_residual);
    l.set("openflow.matcher.approx_bytes", dp.matcher_bytes);
    l.set("openflow.border_router.forward_ns", dp.router_forward_ns);
    l.set("openflow.switch.process_ns", dp.switch_process_ns);
    l.set(
        "runtime.codec.sync_batch_ms",
        adapter::sync_frame_ms(&d.fabric),
    );
    let (observe_ns, snapshot_us) = adapter::telemetry_costs(&d.ctl.telemetry);
    l.set("telemetry.registry.observe_ns", observe_ns);
    l.set("telemetry.registry.snapshot_us", snapshot_us);
    Ok(())
}

fn write_trace(workload: &str, seed: u64, spans: &[Span]) -> Result<String, String> {
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, seed, spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The route operations a traced run sends through the replica.
struct RouteInput {
    sessions: Vec<Session>,
    bursts: Vec<Burst>,
    reopt_every: usize,
}

pub fn run(workload: &str, seed: u64) -> Result<TraceResult, String> {
    // One repetition of the untraced wire run first: its correctness gates
    // hold for the traced run too, and its counts are printed beside the
    // per-layer metrics.
    let wire = workloads::run(workload, seed, Reps::Single)?;
    let ex = Exchange::build(IXP50);
    let route_plan = |warmup: usize, n: usize, reopt_every: usize| {
        let plan = loadgen::route_bursts(&ex, seed, warmup, n);
        RouteInput {
            sessions: plan.sessions,
            bursts: plan.bursts.into_iter().chain(plan.restore).collect(),
            reopt_every,
        }
    };
    let cycle = loadgen::policy_cycle(&ex, seed, POLICY_PARTICIPANTS).frames;
    // The workload's own operations in full; the other kind in brief (a few
    // bursts and a re-optimisation, one participant's policy cycle), so that
    // every layer has a reading in every traced run.
    let brief_route = || route_plan(0, REOPT_EVERY / 2, usize::MAX);
    let brief_cycle = cycle[..5].to_vec();
    let (route, frames, primary): (RouteInput, Vec<PolicyFrame>, (Vec<&str>, &str)) = match workload
    {
        "bursts_ixp50" => (
            route_plan(WARMUP, BURSTS, REOPT_EVERY),
            brief_cycle,
            (span::FAST_PATH_PARTS.to_vec(), span::REF_APPLY_CHANGED),
        ),
        "forward_ixp50" => (
            route_plan(WARMUP, BURSTS, FORWARD_REOPT_EVERY),
            brief_cycle,
            (span::FAST_PATH_PARTS.to_vec(), span::REF_APPLY_CHANGED),
        ),
        "dump_ixp50" => {
            let plan = loadgen::table_dumps(&ex, seed, DUMP_SIZE, DUMPS);
            (
                RouteInput {
                    sessions: vec![plan.session],
                    bursts: plan.dumps,
                    reopt_every: 1,
                },
                brief_cycle,
                (span::FAST_PATH_PARTS.to_vec(), span::REF_APPLY_CHANGED),
            )
        }
        "policy_ixp50" => {
            let mut parts = vec![span::STAGE_DELTA];
            parts.extend(span::REOPT_PARTS);
            (brief_route(), cycle, (parts, span::REF_APPLY_POLICY))
        }
        other => return Err(format!("unknown workload `{other}`")),
    };

    let mut tr = Tracer::new(true);
    let mut acc = Acc::default();
    route_pass(&ex, &route, &mut acc, &mut tr)?;
    policy_pass(&ex, &frames, &mut acc, &mut tr)?;
    let spans = tr.into_spans();

    let mut l = Layers::new();
    layers_from_passes(&mut l, &spans, &acc);
    layers_from_deployment(
        &mut l,
        &ex,
        &adapter::sample_probes(&ex.controller(), seed, PROBES),
    )?;
    let ops: Vec<adapter::PolicyOp> = frames.iter().map(|f| f.op.clone()).collect();
    l.set(
        "runtime.codec.policy_frame_roundtrip_us",
        adapter::policy_frame_roundtrip_us(&ops),
    );
    l.set("process.peak_rss_mb", crate::sysinfo::peak_rss_mb());
    // Coverage is reported, not gated: what the parts do not cover is the
    // controller's private work (FIB / Adj-RIB-Out synchronisation, ARP
    // cache invalidation), which has no public entry point to time.
    l.set(
        "trace.coverage_share",
        trace::coverage_share(&spans, &primary.0, primary.1),
    );
    l.set(
        "trace.coverage_share_reopt",
        trace::coverage_share(&spans, &span::REOPT_PARTS, span::REF_REOPTIMIZE),
    );
    let wire_overhead_ms = matches!(workload, "bursts_ixp50" | "dump_ixp50")
        .then(|| wire.metric("op_ms_p50") - l.0["core.controller.apply_changed_prefixes_ms"]);
    let trace_file = write_trace(workload, seed, &spans)?;
    Ok(TraceResult {
        layers: l,
        wire,
        wire_overhead_ms,
        spans: spans.len(),
        trace_file,
    })
}
