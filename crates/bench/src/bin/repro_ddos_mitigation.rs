//! DDoS time-to-mitigation — the policy-lifecycle experiment (ROADMAP
//! item 5, the paper's §2 "remote drop / upstream blocking" application).
//!
//! Scenario: an ixp50-scale exchange is mid-churn (a `sdx_ixp::updates`
//! trace replaying through the incremental sharded compiler) when one
//! participant — the victim — comes under attack and pushes its
//! mitigation as a [`PolicyDelta`]: an inbound clause steering the
//! attack's source half into its scrubbing port, plus an export-policy
//! deny that upstream-blocks the worst attacker peers at the BGP level
//! (no exported route ⇒ the attackers' traffic toward the victim is
//! dropped at the fabric edge, before it ever crosses the exchange).
//!
//! Both mutations flow through the *same* incremental machinery as route
//! churn: per-(participant, shard) invalidation keeps every other
//! viewer's units cache-served, keyed VNH identity keeps untouched FECs
//! on their labels, and the reconcile diff rides dependency-ordered
//! waves. The numbers reported:
//!
//! * **time-to-mitigation** — wall clock from the victim's decision to
//!   the last wave barrier of the committed update;
//! * **flow-mods vs naive full swap** — mods the waves carried vs the
//!   delete-all + install-all a non-incremental controller would push;
//! * **units recompiled** — `policy.dirty_units` / shard recompile and
//!   cache-serve counters around the push.
//!
//! Verification gates (all asserted before any number is printed): the
//! attack probe delivers before and drops after, scrubbed traffic exits
//! the scrub port, the patched table is differentially checked against
//! the spec interpreter over the versioned policy store (zero
//! mismatches), and a from-scratch controller with the same final state
//! forwards sampled probes identically.
//!
//! Run: `cargo run --release -p sdx-bench --bin repro_ddos_mitigation
//! [--quick] [--json out.json]`

use std::time::{Duration, Instant};

use sdx_bench::{fmt_duration, print_table, row, Workbench};
use sdx_bgp::route_server::ExportPolicy;
use sdx_core::controller::SdxController;
use sdx_core::schedule::ScheduleOpts;
use sdx_ixp::updates::{self, TraceParams};
use sdx_net::{FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId, Prefix};
use sdx_oracle::{synth, Differential, Outcome};
use sdx_policy::{Policy as P, PolicyDelta};
use sdx_telemetry::SharedRegistry;

/// Picks the victim: the *smallest* announcer with a second (scrub)
/// port — small so the narrow-invalidation claim is visible (its export
/// deny should touch only a handful of shards), multi-port so the scrub
/// appliance has somewhere to live.
fn pick_victim(ixp: &sdx_ixp::topology::SyntheticIxp) -> (ParticipantId, u8) {
    ixp.participants
        .iter()
        .zip(&ixp.announcements)
        .filter(|(cfg, _)| cfg.ports.len() >= 2)
        .min_by_key(|(_, ann)| ann.len())
        .map(|(cfg, _)| (cfg.id, cfg.ports[1].index))
        .expect("workload has no multi-port participant to host a scrub port")
}

/// The first physical port of a participant.
fn entry_port(ctl: &SdxController, id: ParticipantId) -> PortId {
    let cfg = ctl.compiler.participant(id).expect("registered");
    PortId::Phys(id, cfg.ports[0].index)
}

/// Agreed (spec == fabric-model) verdict for one probe against the
/// deployed table — any disagreement is a hard failure.
fn verdict(
    ctl: &SdxController,
    table: &sdx_openflow::table::FlowTable,
    from: PortId,
    pkt: &Packet,
) -> Outcome {
    let report = ctl.report.as_ref().expect("compiled");
    Differential::over_table(&ctl.compiler, &ctl.rs, report, table)
        .check(from, pkt)
        .unwrap_or_else(|m| panic!("oracle mismatch on targeted probe: {m}"))
}

fn counter(reg: &SharedRegistry, key: &str) -> u64 {
    reg.snapshot().counters.get(key).copied().unwrap_or(0)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // ixp50: the acceptance-scale exchange. Quick keeps the same 50
    // participants (victim/attacker structure must survive) but shrinks
    // the table and the trace so CI smoke finishes in seconds.
    let (prefixes, policy_prefixes, duration_secs, probe_n) = if quick {
        (800usize, 200usize, 60u64, 300usize)
    } else {
        (3000, 800, 300, 800)
    };
    let participants = 50usize;
    let seed = 17u64;

    let wb = Workbench::new(participants, prefixes, policy_prefixes, seed);
    let trace = updates::generate(
        &wb.ixp,
        &TraceParams {
            duration_secs,
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
    );

    let reg = SharedRegistry::new();
    let mut ctl = SdxController::new();
    ctl.compiler = wb.compiler();
    ctl.rs = wb.rs.clone();
    ctl.telemetry = reg.clone();

    // The victim and its attacked service block. The synthetic universe
    // is deliberately multi-homed (every 100.x prefix picks up transit
    // re-announcers), so the victim announces the attacked /16 itself,
    // outside the universe: sole announcer by construction, which is
    // what makes the export deny a true upstream *block* — no alternate
    // route, so the attackers' traffic drops at the fabric edge.
    let (victim, scrub_port) = pick_victim(&wb.ixp);
    let victim_prefix = Prefix::new(Ipv4Addr::new(66, 66, 0, 0), 16);
    let vcfg = ctl
        .compiler
        .participant(victim)
        .expect("victim registered")
        .clone();
    ctl.rs.process_update(
        victim,
        &vcfg.announce([victim_prefix], &[65_000 + victim.0, 777]),
    );

    let t = Instant::now();
    let mut fabric = ctl.deploy().expect("ixp50 deploys");
    let deploy_ms = t.elapsed();

    let attackers: Vec<ParticipantId> = ctl
        .compiler
        .participants()
        .keys()
        .copied()
        .filter(|&p| p != victim)
        .take(3)
        .collect();
    let bystander = ctl
        .compiler
        .participants()
        .keys()
        .copied()
        .find(|p| *p != victim && !attackers.contains(p))
        .expect("a peer that is neither victim nor attacker");

    // The attack flow: high-source-half traffic from an attacker port
    // toward the victim's solo prefix. dport 9999 keeps the probe clear
    // of the workload's port-keyed outbound policies, so the pre-attack
    // path is the plain BGP best route — straight to the victim.
    let attack_dst = Ipv4Addr(victim_prefix.addr().0 + 9);
    let attack_pkt = Packet::tcp(Ipv4Addr::new(200, 66, 6, 6), attack_dst, 4321, 9999);
    let attack_from = entry_port(&ctl, attackers[0]);
    let bystander_from = entry_port(&ctl, bystander);

    // ---- Churn, act one: the exchange is busy when the attack starts.
    let split = trace.bursts.len() / 2;
    let mut churn_before = Duration::ZERO;
    for burst in &trace.bursts[..split] {
        for (from, msg) in &burst.updates {
            ctl.rs.process_update(*from, msg);
        }
        let t = Instant::now();
        ctl.reoptimize(&mut fabric).expect("burst reoptimize");
        churn_before += t.elapsed();
    }
    let _ = fabric.drain_batches();

    // Baseline gate: before mitigation the attack traffic *delivers* at
    // the victim (that is what makes it an attack).
    let pre = verdict(&ctl, fabric.switch.table(), attack_from, &attack_pkt);
    let attack_delivered_before = match pre {
        Outcome::Deliver { port, .. } => {
            assert_eq!(
                port.participant(),
                victim,
                "attack flow should reach the victim"
            );
            true
        }
        other => panic!("pre-attack probe must deliver at the victim, got {other:?}"),
    };

    // ---- The mitigation push: one PolicyDelta + one export deny,
    // staged together, compiled once, committed through scheduled waves.
    let table_before = fabric.switch.table().len();
    let dirty0 = counter(&reg, "policy.dirty_units.count");
    let recompiled0 = counter(&reg, "compile.shard.recompiled.count");
    let skipped0 = counter(&reg, "compile.shard.skipped.count");
    let pruned0 = counter(&reg, "compile.shard.unit_pruned.count");

    let scrub = P::match_(FieldMatch::NwSrc(Prefix::new(
        Ipv4Addr::new(128, 0, 0, 0),
        1,
    ))) >> P::fwd(PortId::Phys(victim, scrub_port));
    let delta = PolicyDelta::new().replace_inbound(victim, scrub);
    let mut export = ExportPolicy::allow_all();
    for &a in &attackers {
        for p in ctl.rs.loc_rib().announced_by(victim).collect::<Vec<_>>() {
            export.deny(a, p);
        }
    }

    let t0 = Instant::now();
    ctl.rs.set_export_policy(victim, export);
    ctl.stage_policy_delta(&delta).expect("mitigation stages");
    let prepared = ctl
        .prepare_scheduled(&mut fabric)
        .expect("mitigation compiles");
    let waves = prepared.plan.wave_count();
    let sched = ctl
        .commit_scheduled(&mut fabric, prepared, &ScheduleOpts::default(), None)
        .expect("mitigation waves commit");
    let time_to_mitigation = t0.elapsed();
    let _ = fabric.drain_batches();

    let flow_mods: usize = sched.applied.iter().map(|w| w.mods).sum();
    let table_after = fabric.switch.table().len();
    // A naive controller swaps the whole table: delete every old rule,
    // install every new one.
    let naive_swap_mods = table_before + table_after;
    let flow_mod_fraction = flow_mods as f64 / naive_swap_mods as f64;
    let units_dirtied = counter(&reg, "policy.dirty_units.count") - dirty0;
    let shards_recompiled = counter(&reg, "compile.shard.recompiled.count") - recompiled0;
    let shards_skipped = counter(&reg, "compile.shard.skipped.count") - skipped0;
    let units_pruned = counter(&reg, "compile.shard.unit_pruned.count") - pruned0;

    // Narrowness gate: the push dirties only the victim's units — the
    // inbound clause compiles in stage 2 (no phase-A units at all), and
    // the export deny reaches just the shards holding the victim's own
    // announcements, with unit pruning serving every other viewer's
    // units from cache inside those shards.
    let total_units = participants as u64 * 8;
    assert!(
        units_dirtied <= 8,
        "a one-participant delta dirtied {units_dirtied} units (> one viewer's worth)"
    );
    assert!(
        units_dirtied + units_pruned < total_units,
        "the push recompiled the world: {units_dirtied} dirty + {units_pruned} pruned"
    );
    assert!(
        flow_mod_fraction < 0.25,
        "mitigation flow-mods not a small fraction of a full swap: \
         {flow_mods}/{naive_swap_mods} = {flow_mod_fraction:.3}"
    );

    // Effect gates: attacker traffic now drops at the edge (upstream
    // blocking), scrubbed traffic exits the victim's scrub port, and a
    // clean bystander flow still delivers.
    let post = verdict(&ctl, fabric.switch.table(), attack_from, &attack_pkt);
    assert_eq!(
        post,
        Outcome::Drop,
        "attack flow must be dropped after the deny"
    );
    let scrubbed = verdict(&ctl, fabric.switch.table(), bystander_from, &attack_pkt);
    match scrubbed {
        Outcome::Deliver { port, .. } => assert_eq!(
            port,
            PortId::Phys(victim, scrub_port),
            "high-source-half traffic should exit the scrub port"
        ),
        other => panic!("scrub probe should deliver, got {other:?}"),
    }
    let clean_pkt = Packet::tcp(Ipv4Addr::new(9, 0, 0, 1), attack_dst, 4321, 9999);
    let clean = verdict(&ctl, fabric.switch.table(), bystander_from, &clean_pkt);
    assert!(
        matches!(clean, Outcome::Deliver { .. }),
        "low-half bystander traffic must keep flowing, got {clean:?}"
    );

    // Oracle gate: the patched table, differentially checked against the
    // spec interpreter over the versioned policy store.
    let probes = synth::sample_probes(&ctl.compiler, &ctl.rs, seed, probe_n);
    let report = ctl.report.as_ref().expect("compiled");
    let delivered = Differential::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table())
        .check_all(&probes)
        .unwrap_or_else(|m| panic!("post-mitigation oracle mismatch: {m}"));
    assert!(delivered > 0, "probe sample vacuous");

    // From-scratch gate: a cold controller handed the same final state
    // (participants with the staged policies, the same RIB and export
    // table) must forward every sampled probe identically — and its
    // full compile is the cost the incremental path avoided.
    let mut cold = SdxController::new();
    for cfg in ctl.compiler.participants().values() {
        cold.compiler.upsert_participant(cfg.clone());
    }
    cold.rs = ctl.rs.clone();
    let t = Instant::now();
    let mut cold_fabric = cold.deploy().expect("cold deploy");
    let cold_compile_ms = t.elapsed();
    for (from, pkt) in &probes {
        let warm: Vec<_> = fabric.send(*from, *pkt);
        let scratch: Vec<_> = cold_fabric.send(*from, *pkt);
        assert_eq!(
            warm.iter().map(|d| (d.loc, d.pkt)).collect::<Vec<_>>(),
            scratch.iter().map(|d| (d.loc, d.pkt)).collect::<Vec<_>>(),
            "patched table diverged from scratch for {pkt:?} in at {from}"
        );
    }

    // ---- Churn, act two: the mitigation must survive continued churn.
    let mut churn_after = Duration::ZERO;
    for burst in &trace.bursts[split..] {
        for (from, msg) in &burst.updates {
            ctl.rs.process_update(*from, msg);
        }
        let t = Instant::now();
        ctl.reoptimize(&mut fabric).expect("post-mitigation burst");
        churn_after += t.elapsed();
    }
    let _ = fabric.drain_batches();
    let still = verdict(&ctl, fabric.switch.table(), attack_from, &attack_pkt);
    assert_eq!(
        still,
        Outcome::Drop,
        "mitigation must survive continued churn"
    );

    let rows = vec![vec![
        victim.0.to_string(),
        attackers.len().to_string(),
        fmt_duration(time_to_mitigation),
        waves.to_string(),
        format!("{flow_mods}/{naive_swap_mods}"),
        format!("{:.1}%", flow_mod_fraction * 100.0),
        units_dirtied.to_string(),
        format!("{shards_recompiled}/{}", shards_recompiled + shards_skipped),
        fmt_duration(cold_compile_ms),
    ]];
    print_table(
        &format!(
            "DDoS time-to-mitigation: {participants} participants, {prefixes} prefixes, \
             {policy_prefixes} policy prefixes, attack at burst {split}/{}",
            trace.bursts.len()
        ),
        &[
            "victim",
            "attackers",
            "mitigation",
            "waves",
            "mods/naive",
            "fraction",
            "units",
            "shards",
            "cold swap",
        ],
        &rows,
    );
    println!(
        "\n  the victim's push (inbound scrub steer + upstream-block export deny)\n  \
         compiled incrementally mid-churn and committed through {waves} dependency\n  \
         wave(s) in {} — vs {} for the full-swap recompile a non-incremental\n  \
         controller would pay. attack traffic verified dropped at the fabric edge,\n  \
         scrubbed traffic verified onto port {scrub_port}, {delivered} sampled deliveries\n  \
         differentially matched, and the patched table equals a from-scratch deploy.",
        fmt_duration(time_to_mitigation),
        fmt_duration(cold_compile_ms),
    );

    let json = vec![row([
        ("quick", quick.into()),
        ("participants", participants.into()),
        ("prefixes", prefixes.into()),
        ("policy_prefixes", policy_prefixes.into()),
        ("shards", 8usize.into()),
        ("bursts_before", split.into()),
        ("bursts_after", (trace.bursts.len() - split).into()),
        ("deploy_ms", (deploy_ms.as_secs_f64() * 1e3).into()),
        ("churn_before_ms", (churn_before.as_secs_f64() * 1e3).into()),
        ("churn_after_ms", (churn_after.as_secs_f64() * 1e3).into()),
        ("victim", (victim.0 as usize).into()),
        ("attackers", attackers.len().into()),
        (
            "time_to_mitigation_ms",
            (time_to_mitigation.as_secs_f64() * 1e3).into(),
        ),
        ("waves", waves.into()),
        ("flow_mods", flow_mods.into()),
        ("naive_swap_mods", naive_swap_mods.into()),
        ("flow_mod_fraction", flow_mod_fraction.into()),
        ("units_dirtied", (units_dirtied as usize).into()),
        ("units_pruned", (units_pruned as usize).into()),
        ("shards_recompiled", (shards_recompiled as usize).into()),
        ("shards_skipped", (shards_skipped as usize).into()),
        (
            "cold_compile_ms",
            (cold_compile_ms.as_secs_f64() * 1e3).into(),
        ),
        ("oracle_probes", probes.len().into()),
        ("oracle_delivered", delivered.into()),
        ("oracle_mismatches", 0usize.into()),
        ("mitigation_applied", true.into()),
        ("attack_delivered_before", attack_delivered_before.into()),
        ("attack_dropped_after", true.into()),
        ("scrub_steered", true.into()),
        ("survives_churn", true.into()),
        ("equivalent_to_scratch", true.into()),
    ])];
    sdx_bench::report("ddos_mitigation", &json, &reg.snapshot());
}
