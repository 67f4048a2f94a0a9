//! The four workloads. Each run is back-to-back repetitions of one fixed
//! schedule of operations on identical inputs (fresh system under test
//! each), as many as fit in `--seconds`. Operation i has one latency per
//! repetition; what it costs is the fastest of them (`stats::fastest`),
//! and the percentiles are taken over these costs. `setup_s` is the median
//! of the per-repetition set-up times.

use std::time::Instant;

use crate::adapter::{
    self, Deployed, Exchange, Packet, PortId, RunningDaemon, StoppedDaemon, IXP50,
};
use crate::loadgen::{self, Burst, PolicyFrame, Session};
use crate::stats::{across_reps, fastest, median, quantile_of, AcrossReps};
use crate::sysinfo;
use crate::wire::{
    close_operation, Ack, Agent, AgentResult, Failure, Outcome, PolicyClient, WirePeer,
};

/// Offered in our OPEN and the daemon's: the benchmark's peers never
/// answer keepalives, so the default 90 s would expire them mid-run on a
/// slow host. No other `DaemonConfig` field is touched.
const HOLD_TIME: u16 = 3_600;

/// How a run repeats its schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reps {
    /// As many repetitions as fit in `seconds` from the start of the run
    /// (input generation and one discarded warm-up set-up included), at
    /// least [`MIN_REPS`].
    Measured { seconds: f64 },
    /// One repetition: the traced run only needs the wire run's counts.
    Single,
}

/// Fewest repetitions of a measured run, however slow the host: enough for
/// `setup_s` to be a median of several set-ups.
pub const MIN_REPS: usize = 3;

impl Reps {
    fn warms_up(self) -> bool {
        matches!(self, Reps::Measured { .. })
    }
}

const ORACLE_PROBES: usize = 800;

pub const WORKLOADS: [&str; 4] = [
    "bursts_ixp50",
    "policy_ixp50",
    "dump_ixp50",
    "forward_ixp50",
];

/// Sampled route bursts per repetition (`bursts_ixp50`; rounds of
/// `forward_ixp50`), in the stratified §4.3.2 sizes.
pub const BURSTS: usize = 100;
/// Small bursts before them whose samples are discarded as warm-up.
pub const WARMUP: usize = 20;
/// `reoptimize()` after every this many bursts.
pub const REOPT_EVERY: usize = 40;
/// Participants cycled through the policy lifecycle per repetition.
pub const POLICY_PARTICIPANTS: usize = 4;
/// UPDATEs per table dump.
pub const DUMP_SIZE: usize = 1_024;
/// Dumps per repetition (even: change, then restore).
pub const DUMPS: usize = 4;
/// Probes per forwarding round.
pub const PROBES: usize = 8_192;
/// In `forward_ixp50`, every this many rounds the write between rounds is
/// a re-optimisation patch instead of a fast-path delta.
pub const FORWARD_REOPT_EVERY: usize = 25;

/// One end-to-end metric of a run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: AcrossReps,
    /// Samples behind the value in one repetition (0 for counts).
    pub samples_per_rep: usize,
}

/// Counts and side figures a run collects for the per-layer report.
#[derive(Clone, Debug, Default)]
pub struct Side {
    /// Printed, not bounded: only `bursts_ixp50` and `forward_ixp50` have
    /// the samples for a percentile above the median.
    pub op_ms_p95: f64,
    pub reopt_to_ack_ms_p50: f64,
    pub reopt_samples: usize,
    pub overlay_rules_peak: f64,
    pub frames_per_op: f64,
    pub mods_per_frame: f64,
    pub updates_per_compile: f64,
    pub passes_per_dump: f64,
    pub daemon_deploy_ms: f64,
    /// `VmHWM` when the run ended.
    pub peak_rss_mb: f64,
}

pub struct RunResult {
    pub workload: &'static str,
    pub what: &'static str,
    pub input_digest: u64,
    pub loadgen_build_s: f64,
    pub reps: usize,
    /// Operations of all kinds, warm-up and re-optimisations included. A
    /// failed operation fails the run, so none of them failed.
    pub attempted: u64,
    pub metrics: Vec<Metric>,
    pub side: Side,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value.value)
    }
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    setup_s: f64,
    op_ms: Vec<f64>,
    work_units: u64,
    reopt_ms: Vec<f64>,
    /// `Fabric::apply_flowmods` on the switch side, sync frames left out.
    apply_ns: u64,
    applied_mods: usize,
    applied_batches: usize,
    frames: usize,
    mods: usize,
    table_rules: usize,
    table_rules_peak: usize,
    overlay_rules_peak: usize,
    attempted: u64,
    updates: u64,
    compiles: u64,
    passes_per_dump: Vec<f64>,
    deploy_ms: f64,
}

impl Rep {
    fn record(&mut self, outcome: Outcome, work: u64, sampled: bool) -> Result<(), String> {
        self.attempted += 1;
        match outcome {
            Outcome::Completed {
                latency,
                frames,
                mods,
            } => {
                if sampled {
                    self.op_ms.push(latency.as_secs_f64() * 1e3);
                    self.work_units += work;
                    self.frames += frames;
                    self.mods += mods;
                }
                Ok(())
            }
            Outcome::Failed(why) => Err(format!("operation {} failed: {why:?}", self.attempted)),
        }
    }

    fn record_reopt(&mut self, outcome: Outcome) -> Result<(), String> {
        self.attempted += 1;
        match outcome {
            Outcome::Completed { latency, .. } => {
                self.reopt_ms.push(latency.as_secs_f64() * 1e3);
                Ok(())
            }
            Outcome::Failed(why) => Err(format!(
                "re-optimisation {} failed: {why:?}",
                self.attempted
            )),
        }
    }
}

// ---------------------------------------------------------------------
// The wire rig: one daemon, the agent, and the driver's sockets
// ---------------------------------------------------------------------

struct Rig {
    daemon: RunningDaemon,
    agent: Agent,
    setup_s: f64,
    deploy_ms: f64,
    acks: Vec<Ack>,
}

struct Finished {
    stopped: StoppedDaemon,
    agent: AgentResult,
    acks: Vec<Ack>,
}

impl Rig {
    /// `setup_s` runs from the `daemon::start` call to the agent's ack of
    /// the initial sync frame.
    fn start(ex: &Exchange) -> Result<Rig, String> {
        let ctl = ex.controller();
        let t0 = Instant::now();
        let daemon =
            RunningDaemon::start(ctl, HOLD_TIME).map_err(|e| format!("daemon start: {e}"))?;
        let agent =
            Agent::connect(daemon.openflow_addr()).map_err(|e| format!("agent connect: {e}"))?;
        let first = agent
            .first_ack()
            .ok_or("no ack of the initial sync frame")?;
        if !first.applied.sync || !first.applied.accepted {
            return Err("initial frame was not an accepted sync".into());
        }
        Ok(Rig {
            deploy_ms: daemon.reoptimize_total_ms(),
            daemon,
            agent,
            setup_s: first.at.saturating_duration_since(t0).as_secs_f64(),
            acks: vec![first],
        })
    }

    fn peers(&self, sessions: &[Session]) -> Result<Vec<WirePeer>, String> {
        sessions
            .iter()
            .map(|s| {
                WirePeer::establish(self.daemon.bgp_addr(), s.asn, HOLD_TIME)
                    .map_err(|e| format!("bgp session for AS{}: {e}", s.asn))
            })
            .collect()
    }

    fn close(&mut self, t0: Instant, done: impl Fn(&RunningDaemon) -> bool) -> Outcome {
        let from = self.acks.len();
        let daemon = &self.daemon;
        let signalled = self.agent.await_completion(&mut self.acks, || done(daemon));
        close_operation(t0, &self.acks[from..], signalled)
    }

    /// Writes one burst (all sessions, one operation outstanding) and waits
    /// until the daemon has flushed every UPDATE of it to the switch.
    fn bgp_op(&mut self, peers: &mut [WirePeer], burst: &Burst) -> Outcome {
        let target = self.daemon.updates_flushed() + burst.messages() as u64;
        let t0 = Instant::now();
        for (peer, bytes) in peers.iter_mut().zip(&burst.bytes) {
            if !bytes.is_empty() && peer.write(bytes).is_err() {
                return Outcome::Failed(Failure::NoAck);
            }
        }
        self.close(t0, |d| d.updates_flushed() >= target)
    }

    fn policy_op(&mut self, client: &mut PolicyClient, frame: &PolicyFrame) -> Outcome {
        let epoch = self.daemon.table_epoch();
        let t0 = Instant::now();
        if client.write(&frame.line).is_err() {
            return Outcome::Failed(Failure::NoAck);
        }
        match client.read_ack() {
            Ok((_, true)) => {}
            Ok((_, false)) => return Outcome::Failed(Failure::Rejected),
            Err(_) => return Outcome::Failed(Failure::NoAck),
        }
        self.close(t0, |d| d.table_epoch() != epoch)
    }

    fn reopt_op(&mut self) -> Outcome {
        let epoch = self.daemon.table_epoch();
        let t0 = Instant::now();
        self.daemon.reoptimize();
        self.close(t0, |d| d.table_epoch() != epoch)
    }

    fn compiles(&self) -> u64 {
        self.daemon.counter("daemon.compiles.count")
    }

    /// Stops the daemon first and only then lets the sessions go: a
    /// dropped session would be flap-accounted and its routes flushed.
    fn finish<P>(self, sessions: P) -> Finished {
        let stopped = self.daemon.stop();
        drop(sessions);
        let agent = self.agent.join();
        Finished {
            stopped,
            agent,
            acks: self.acks,
        }
    }
}

/// Fills the repetition's table figures from the agent's log and checks
/// the agent's table against the daemon's.
fn settle(rep: &mut Rep, (setup_s, deploy_ms): (f64, f64), fin: &Finished) -> Result<(), String> {
    if let Some(e) = &fin.agent.undecodable {
        return Err(format!("the agent could not decode a frame: {e}"));
    }
    if !adapter::tables_equal(&fin.agent.mirror.fabric, &fin.stopped.fabric) {
        return Err("agent mirror table differs from the daemon's table".into());
    }
    rep.setup_s = setup_s;
    rep.deploy_ms = deploy_ms;
    for a in fin.acks.iter().filter(|a| !a.applied.sync) {
        rep.apply_ns += a.applied.apply_ns;
        rep.applied_mods += a.applied.mods;
        rep.applied_batches += 1;
    }
    rep.table_rules = adapter::base_rules(&fin.stopped.fabric);
    if adapter::overlay_rules(&fin.stopped.fabric) != 0 {
        return Err("overlays survived the final re-optimisation".into());
    }
    rep.table_rules_peak = fin.agent.peak_rules;
    rep.overlay_rules_peak = fin.agent.peak_overlay_rules;
    rep.updates = fin.stopped.updates;
    rep.compiles = fin.stopped.compiles;
    Ok(())
}

/// The gate of every wire run, on the final state of its last repetition:
/// the deployed table against the specification interpreter, and against
/// a from-scratch controller over the same participants and RIB.
fn oracle_gate(seed: u64, fin: &mut Finished) -> Result<(), String> {
    let probes = adapter::sample_probes(&fin.stopped.ctl, seed, ORACLE_PROBES);
    let delivered = adapter::differential_check(&fin.stopped.ctl, &fin.stopped.fabric, &probes)?;
    if delivered == 0 {
        return Err("oracle probe sample delivered nothing".into());
    }
    adapter::from_scratch_check(&fin.stopped.ctl, &mut fin.stopped.fabric, &probes)
}

// ---------------------------------------------------------------------
// Repetition loop and metric assembly
// ---------------------------------------------------------------------

/// Runs repetitions until the next one would no longer fit in the run's
/// `--seconds`, counted from `started`; the closure is told when it runs
/// the last one, whose final state is oracle-checked.
fn repeat(
    reps: Reps,
    started: Instant,
    mut rep: impl FnMut(bool) -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let Reps::Measured { seconds } = reps else {
        return Ok(vec![rep(true)?]);
    };
    let first = Instant::now();
    let mut out = Vec::new();
    loop {
        // The last repetition is the one after which another of the mean
        // length so far would overrun.
        let per_rep = first.elapsed().as_secs_f64() / out.len().max(1) as f64;
        let last =
            out.len() + 1 >= MIN_REPS && started.elapsed().as_secs_f64() + 2.0 * per_rep > seconds;
        out.push(rep(last)?);
        if last {
            return Ok(out);
        }
    }
}

/// One discarded set-up (daemon, agent, initial sync) before measured
/// repetitions: the first start in a process pays for page faults and lazy
/// initialisation that no later one does.
fn warm_up(ex: &Exchange, reps: Reps) -> Result<(), String> {
    if reps.warms_up() {
        Rig::start(ex)?.finish(());
    }
    Ok(())
}

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> AcrossReps {
    across_reps(&reps.iter().map(f).collect::<Vec<f64>>())
}

fn assemble(
    workload: &'static str,
    what: &'static str,
    input_digest: u64,
    loadgen_build_s: f64,
    reps: Vec<Rep>,
) -> RunResult {
    let n = reps[0].op_ms.len();
    let metric = |name, unit, value, samples_per_rep| Metric {
        name,
        unit,
        value,
        samples_per_rep,
    };
    // Every repetition offers the same operations in the same order, so
    // operation i has one latency per repetition: the fastest of them is
    // what the operation costs with the host's interference left out.
    // Percentiles are taken over these per-operation costs; the
    // per-repetition figures are printed beside them as min and max.
    let consensus: Vec<f64> = (0..n)
        .map(|i| fastest(&reps.iter().map(|r| r.op_ms[i]).collect::<Vec<f64>>()))
        .collect();
    let voted = |value: f64, spread: AcrossReps| AcrossReps { value, ..spread };
    let work_per_s = |work: u64, op_ms: &[f64]| work as f64 / (op_ms.iter().sum::<f64>() / 1e3);
    let metrics = vec![
        metric("setup_s", "s", per_rep(&reps, |r| r.setup_s), 1),
        metric(
            "op_ms_p50",
            "ms",
            voted(
                quantile_of(&consensus, 0.50),
                per_rep(&reps, |r| quantile_of(&r.op_ms, 0.50)),
            ),
            n,
        ),
        metric(
            "work_per_s",
            "1/s",
            voted(
                work_per_s(reps[0].work_units, &consensus),
                per_rep(&reps, |r| work_per_s(r.work_units, &r.op_ms)),
            ),
            n,
        ),
        metric(
            "flowmod_apply_ns_per_mod",
            "ns",
            {
                let spread = per_rep(&reps, |r| r.apply_ns as f64 / r.applied_mods.max(1) as f64);
                voted(spread.min, spread)
            },
            reps[0].applied_batches,
        ),
        metric(
            "table_rules",
            "count",
            per_rep(&reps, |r| r.table_rules as f64),
            0,
        ),
        metric(
            "table_rules_peak",
            "count",
            per_rep(&reps, |r| r.table_rules_peak as f64),
            0,
        ),
    ];
    let mid = |f: &dyn Fn(&Rep) -> f64| per_rep(&reps, f).value;
    let side = Side {
        op_ms_p95: quantile_of(&consensus, 0.95),
        reopt_to_ack_ms_p50: mid(&|r| {
            if r.reopt_ms.is_empty() {
                0.0
            } else {
                median(&r.reopt_ms)
            }
        }),
        reopt_samples: reps[0].reopt_ms.len(),
        overlay_rules_peak: mid(&|r| r.overlay_rules_peak as f64),
        frames_per_op: mid(&|r| r.frames as f64 / r.op_ms.len() as f64),
        mods_per_frame: mid(&|r| {
            if r.frames == 0 {
                0.0
            } else {
                r.mods as f64 / r.frames as f64
            }
        }),
        updates_per_compile: mid(&|r| {
            if r.compiles == 0 {
                0.0
            } else {
                r.updates as f64 / r.compiles as f64
            }
        }),
        passes_per_dump: mid(&|r| {
            if r.passes_per_dump.is_empty() {
                0.0
            } else {
                median(&r.passes_per_dump)
            }
        }),
        daemon_deploy_ms: mid(&|r| r.deploy_ms),
        peak_rss_mb: sysinfo::peak_rss_mb(),
    };
    RunResult {
        workload,
        what,
        input_digest,
        loadgen_build_s,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        metrics,
        side,
    }
}

// ---------------------------------------------------------------------
// bursts_ixp50
// ---------------------------------------------------------------------

pub fn bursts(seed: u64, reps: Reps) -> Result<RunResult, String> {
    let t = Instant::now();
    let ex = Exchange::build(IXP50);
    let plan = loadgen::route_bursts(&ex, seed, WARMUP, BURSTS);
    let build_s = t.elapsed().as_secs_f64();
    warm_up(&ex, reps)?;
    let reps = repeat(reps, t, |last| {
        let mut rig = Rig::start(&ex)?;
        let mut peers = rig.peers(&plan.sessions)?;
        let mut rep = Rep::default();
        for (i, burst) in plan.bursts.iter().enumerate() {
            let outcome = rig.bgp_op(&mut peers, burst);
            rep.record(outcome, burst.messages() as u64, i >= WARMUP)?;
            if (i + 1) % REOPT_EVERY == 0 {
                let outcome = rig.reopt_op();
                rep.record_reopt(outcome)?;
            }
        }
        for burst in &plan.restore {
            let outcome = rig.bgp_op(&mut peers, burst);
            rep.record(outcome, 0, false)?;
        }
        let outcome = rig.reopt_op();
        rep.record_reopt(outcome)?;
        let setup = (rig.setup_s, rig.deploy_ms);
        let mut fin = rig.finish(peers);
        settle(&mut rep, setup, &fin)?;
        if last {
            oracle_gate(seed, &mut fin)?;
        }
        Ok(rep)
    })?;
    Ok(assemble(
        "bursts_ixp50",
        "operation = one route burst (§4.3.2 sizes), first byte written -> last flow-mod ack; work = UPDATE messages",
        plan.digest,
        build_s,
        reps,
    ))
}

// ---------------------------------------------------------------------
// policy_ixp50
// ---------------------------------------------------------------------

pub fn policy(seed: u64, reps: Reps) -> Result<RunResult, String> {
    let t = Instant::now();
    let ex = Exchange::build(IXP50);
    let plan = loadgen::policy_cycle(&ex, seed, POLICY_PARTICIPANTS);
    let build_s = t.elapsed().as_secs_f64();
    warm_up(&ex, reps)?;
    let reps = repeat(reps, t, |last| {
        let mut rig = Rig::start(&ex)?;
        let mut client = PolicyClient::connect(rig.daemon.policy_addr())
            .map_err(|e| format!("policy socket: {e}"))?;
        let mut rep = Rep::default();
        for frame in &plan.frames {
            let outcome = rig.policy_op(&mut client, frame);
            rep.record(outcome, 1, true)
                .map_err(|e| format!("{e} ({:?})", frame.op))?;
        }
        let setup = (rig.setup_s, rig.deploy_ms);
        let mut fin = rig.finish(client);
        settle(&mut rep, setup, &fin)?;
        if last {
            oracle_gate(seed, &mut fin)?;
        }
        Ok(rep)
    })?;
    Ok(assemble(
        "policy_ixp50",
        "operation = one policy frame (install/replace/retract), frame written -> last flow-mod ack; work = policy frames",
        plan.digest,
        build_s,
        reps,
    ))
}

// ---------------------------------------------------------------------
// dump_ixp50
// ---------------------------------------------------------------------

pub fn dump(seed: u64, reps: Reps) -> Result<RunResult, String> {
    let t = Instant::now();
    let ex = Exchange::build(IXP50);
    let plan = loadgen::table_dumps(&ex, seed, DUMP_SIZE, DUMPS);
    let build_s = t.elapsed().as_secs_f64();
    let sessions = [plan.session.clone()];
    warm_up(&ex, reps)?;
    let reps = repeat(reps, t, |last| {
        let mut rig = Rig::start(&ex)?;
        let mut peers = rig.peers(&sessions)?;
        let mut rep = Rep::default();
        for d in &plan.dumps {
            let passes = rig.compiles();
            let outcome = rig.bgp_op(&mut peers, d);
            rep.record(outcome, d.messages() as u64, true)?;
            rep.passes_per_dump.push((rig.compiles() - passes) as f64);
            let outcome = rig.reopt_op();
            rep.record_reopt(outcome)?;
        }
        let setup = (rig.setup_s, rig.deploy_ms);
        let mut fin = rig.finish(peers);
        settle(&mut rep, setup, &fin)?;
        if last {
            oracle_gate(seed, &mut fin)?;
        }
        Ok(rep)
    })?;
    Ok(assemble(
        "dump_ixp50",
        "operation = one table dump (one UPDATE per prefix, as fast as TCP carries them), first byte -> last ack; work = UPDATE messages",
        plan.digest,
        build_s,
        reps,
    ))
}

// ---------------------------------------------------------------------
// forward_ixp50 (in-process data plane)
// ---------------------------------------------------------------------

const CLASSIFY_SAMPLE: usize = 64;

fn classify_gate(
    d: &Deployed,
    located: &[adapter::LocatedPacket],
    what: &str,
) -> Result<(), String> {
    match located
        .iter()
        .find(|lp| !adapter::classify_agrees(&d.fabric, lp))
    {
        None => Ok(()),
        Some(lp) => Err(format!("classify != classify_linear {what} for {lp:?}")),
    }
}

pub fn forward(seed: u64, reps: Reps) -> Result<RunResult, String> {
    let t = Instant::now();
    let ex = Exchange::build(IXP50);
    let plan = loadgen::route_bursts(&ex, seed, WARMUP, BURSTS);
    // Probes are drawn over the converged exchange; they are inputs, so
    // they are made here and not from the deployed controller.
    let probes: Vec<(PortId, Packet)> = adapter::sample_probes(&ex.controller(), seed, PROBES);
    let mut digest = loadgen::Digest::default();
    digest.update(&plan.digest.to_le_bytes());
    for (from, pkt) in &probes {
        digest.update(format!("{from}{pkt:?}").as_bytes());
    }
    let build_s = t.elapsed().as_secs_f64();

    if reps.warms_up() {
        drop(Deployed::deploy(ex.controller())?);
    }
    let reps = repeat(reps, t, |last| {
        let mut rep = Rep::default();
        // `setup_s`: `ctl.deploy()` -> table ready.
        let t0 = Instant::now();
        let mut d = Deployed::deploy(ex.controller())?;
        rep.setup_s = t0.elapsed().as_secs_f64();
        let _ = d.fabric.drain_batches();
        let mut mirror = adapter::table_mirror(&d.fabric);
        let located = d.locate(&probes);
        classify_gate(&d, &located, "before timing")?;
        let sample = &located[..located.len().min(CLASSIFY_SAMPLE)];
        rep.table_rules_peak = d.fabric.switch.table().len();

        let mut delivered = 0usize;
        let mut write = |d: &mut Deployed,
                         rep: &mut Rep,
                         batches: Vec<adapter::FlowModBatch>|
         -> Result<(), String> {
            for b in &batches {
                rep.apply_ns += adapter::apply_batch_timed(&mut mirror, b)?.as_nanos() as u64;
                rep.applied_mods += b.len();
                rep.applied_batches += 1;
            }
            rep.table_rules_peak = rep.table_rules_peak.max(d.fabric.switch.table().len());
            rep.overlay_rules_peak = rep
                .overlay_rules_peak
                .max(adapter::overlay_rules(&d.fabric));
            classify_gate(d, sample, "after a write")
        };
        for (i, burst) in plan.bursts.iter().enumerate() {
            let t = Instant::now();
            delivered += d.send_round(&probes);
            let took = t.elapsed();
            rep.attempted += 1;
            if i >= WARMUP {
                rep.op_ms.push(took.as_secs_f64() * 1e3);
                rep.work_units += probes.len() as u64;
            }
            // The write between rounds: control-plane time is excluded,
            // the recorded batch is re-applied (timed) to the mirror.
            let batches = d.apply_burst(&burst.updates)?;
            write(&mut d, &mut rep, batches)?;
            if (i + 1) % FORWARD_REOPT_EVERY == 0 {
                let batches = d.reoptimize()?;
                write(&mut d, &mut rep, batches)?;
            }
        }
        for burst in &plan.restore {
            let batches = d.apply_burst(&burst.updates)?;
            write(&mut d, &mut rep, batches)?;
        }
        let batches = d.reoptimize()?;
        write(&mut d, &mut rep, batches)?;
        if delivered == 0 {
            return Err("no probe was delivered".into());
        }
        if !adapter::tables_equal(&mirror, &d.fabric) {
            return Err("mirror table differs from the live table".into());
        }
        rep.table_rules = adapter::base_rules(&d.fabric);
        if last {
            let oracle = adapter::sample_probes(&d.ctl, seed, ORACLE_PROBES);
            adapter::differential_check(&d.ctl, &d.fabric, &oracle)?;
            adapter::from_scratch_check(&d.ctl, &mut d.fabric, &oracle)?;
        }
        Ok(rep)
    })?;
    Ok(assemble(
        "forward_ixp50",
        "operation = one round of probes through Fabric::send, with one flow-mod batch written between rounds; work = packets",
        digest.value(),
        build_s,
        reps,
    ))
}

pub fn run(workload: &str, seed: u64, reps: Reps) -> Result<RunResult, String> {
    match workload {
        "bursts_ixp50" => bursts(seed, reps),
        "policy_ixp50" => policy(seed, reps),
        "dump_ixp50" => dump(seed, reps),
        "forward_ixp50" => forward(seed, reps),
        other => Err(format!("unknown workload `{other}` (known: {WORKLOADS:?})")),
    }
}
