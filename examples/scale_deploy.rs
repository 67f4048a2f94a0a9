//! The scale curve, regenerated rather than remembered: deploy an exchange
//! of ixp50's shape at any size, absorb one 1 024-prefix table dump and
//! re-optimise, then push four policy frames (an inbound steer installed
//! and retracted, an outbound peering installed and retracted, by a
//! policy-free participant), and report what that cost — seconds, peak
//! memory, how many advertisements the route server stored and examined
//! against the `viewers × prefixes` a table per viewer would hold, and how
//! many compiled pieces each push rebuilt and how many it kept. Last, it
//! sends the benchmark's round of 8 192 sampled probes through
//! `Fabric::send` and prints the cost per packet and how many copies were
//! delivered.
//!
//! Exits non-zero if the deployment examined more advertisements than it
//! ended up storing (one base per prefix plus the per-viewer exceptions),
//! if the re-optimisation after the dump rebuilt any viewer's phase-A
//! signature map whole instead of patching it at the dumped prefixes (no
//! policy stamp moved) or rebuilt the switch's compiled matcher whole
//! (`matcher_builds_reopt`; retiring the overlays and patching the table
//! move it entry by entry), or if an inbound push rebuilt any viewer's
//! piece or more than one receiver's block: the counts that must not grow
//! with the exchange. After the deploy, the dump and the re-optimisation it
//! prints where the matcher files the table (`matcher_exact_entries`,
//! `matcher_residual_entries`) and exits non-zero unless the residual list
//! holds the catch-all alone: every other rule the exchange compiles keys
//! on `dl_dst` or `in_port`. It also exits non-zero if no probe was
//! delivered, or if the compiled matcher and the linear walk pick
//! different entries for any of the first 256 probes that reach the
//! switch, if any push re-advertised
//! more (viewer, prefix) pairs than it examined, if an outbound push
//! examined a pair it did not send (its pairs are those whose VNH moved),
//! or if an inbound push examined any pair at all (it moves no viewer's
//! FEC groups), or if, after the deploy, the dump's passes, the
//! re-optimisation, the route step below or any push, the signatures
//! phase A holds interned (summed over viewers) are not exactly the FEC
//! groups the last compile reports. Before the pushes, a route step moves
//! a policy viewer's best next hop at every member of one of its FEC
//! groups and re-optimises; it exits non-zero unless that re-partitioned
//! a patched map. Nothing here is gated on the clock.
//!
//! For the dump's passes, summed, it prints the microseconds under each
//! stage timer (the fast path's delta, validation, stage with the FIB
//! sync beside it as its breakdown, flow-table apply and commit, and the
//! route server's decision), their sum and its share of the dump's wall
//! time. For the dump's passes (summed) and for each push it prints the
//! re-advertisement's cost: microseconds under the `fibsync` timer, pairs
//! examined and sent, nanoseconds per pair examined, and the undo entries
//! its transactions recorded (`txn.undo.entries`). For each push it prints
//! the microseconds under each stage timer (`compile.fec` — phase A, the
//! dropped maps and the VNH assignment —
//! stage 1, stage 2, compose, validation, the reconcile diff, the FIB
//! sync, the flow-table apply, the commit that drops the transaction's
//! undo log and replaced report, the retirement), their sum and its share of
//! `reoptimize.total`, the whole push, and beside them, outside the sum,
//! phase A's two timers (whole build and partition) as `compile.fec`'s
//! breakdown.
//!
//! It also prints what opening each update's transaction cost
//! (`txn.begin`, p50 and max) over the dump's fast passes and over the
//! pushes, beside what the whole update cost. Then, after everything
//! above is measured, it fails one more 64-prefix fast pass and one more
//! outbound push at their mid-stage fault point, and exits non-zero
//! unless each left the VNH allocator, the overlay count and the switch
//! table exactly as they were: the rollback, at the exchange's size.
//!
//! Run: `cargo run --release --example scale_deploy -- 300 15000 4000`
//! (participants, prefixes, policy prefixes; default 50 3000 800 = ixp50).

use std::time::Instant;

use sdx::bgp::route_server::RouteServerEvent;
use sdx::core::controller::SdxController;
use sdx::core::{FaultPlan, InjectionPoint};
use sdx::ixp::policy_workload::{assign_policies, PolicyWorkloadParams};
use sdx::ixp::topology::{build, TopologyParams};
use sdx::net::{FieldMatch, LocatedPacket, ParticipantId, PortId, Prefix};
use sdx::openflow::Fabric;
use sdx::policy::{Policy, PolicyDelta};
use sdx_oracle::synth::sample_probes;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// The nearest-rank median and the maximum of `ns`, in microseconds.
fn p50_max_us(mut ns: Vec<u64>) -> (f64, f64) {
    ns.sort_unstable();
    let us = |v: Option<&u64>| v.copied().unwrap_or(0) as f64 / 1e3;
    (us(ns.get(ns.len().saturating_sub(1) / 2)), us(ns.last()))
}

/// `key=µs` for each stage timer, from the nanoseconds summed under it.
fn stage_rows(keys: &[&str], ns: &[u64]) -> String {
    let rows = (keys.iter().zip(ns)).map(|(key, &ns)| format!("{key}={:.1}", ns as f64 / 1e3));
    rows.collect::<Vec<_>>().join(" ")
}

/// Runs `update` with the mid-stage fault point armed for its first
/// crossing, and exits non-zero unless it failed and left the VNH
/// allocator, the overlay count and the switch table as they were.
fn fail_and_roll_back(
    ctl: &mut SdxController,
    fabric: &mut Fabric,
    what: &str,
    update: impl FnOnce(&mut SdxController, &mut Fabric) -> bool,
) {
    let image = |ctl: &SdxController, fabric: &Fabric| {
        let table = fabric.switch.table().clone();
        (format!("{:?}", ctl.vnh), ctl.delta_layers(), table)
    };
    let before = image(ctl, fabric);
    ctl.faults = FaultPlan::disabled().fail_nth(InjectionPoint::FabricCommit, 1);
    let failed = update(ctl, fabric);
    ctl.faults = FaultPlan::disabled();
    if !failed || image(ctl, fabric) != before {
        eprintln!("a {what} failed at its fault point did not roll back to its pre-image");
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| {
        a.parse::<usize>().unwrap_or_else(|_| {
            panic!("usage: scale_deploy [participants prefixes policy_prefixes], got {a:?}")
        })
    });
    let participants = args.next().unwrap_or(50);
    let prefixes = args.next().unwrap_or(3_000);
    let policy_prefixes = args.next().unwrap_or(800);

    // The benchmark's exchange (`benchmark/src/adapter.rs`: topology seed
    // 1, policy seed 38), so the default is its ixp50.
    let mut ixp = build(&TopologyParams {
        participants,
        prefixes,
        seed: 1,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes,
            seed: 38,
            ..Default::default()
        },
    );
    let mut ctl = SdxController::new();
    for cfg in &ixp.participants {
        ctl.compiler.upsert_participant(cfg.clone());
    }
    ctl.rs = ixp.route_server();
    ctl.rs.set_telemetry(ctl.telemetry.clone());
    let examined = |ctl: &SdxController| ctl.telemetry.counter("fibsync.examined.count").get();
    // Nanoseconds a stage timer has summed so far; one update adds one
    // observation to each of its timers.
    let timed = |ctl: &SdxController, key: &str| ctl.telemetry.histogram(key).sum();
    // The re-advertisement so far: nanoseconds under its timer, (viewer,
    // prefix) pairs examined, pairs sent, and the undo entries the
    // transactions recorded.
    let fibsync = |ctl: &SdxController| -> [u64; 4] {
        let sent = ctl.telemetry.counter("fibsync.sent.count").get();
        let undo = ctl.telemetry.histogram("txn.undo.entries").sum();
        [timed(ctl, "fibsync"), examined(ctl), sent, undo]
    };
    let fibsync_since = |ctl: &SdxController, before: [u64; 4]| -> [u64; 4] {
        let now = fibsync(ctl);
        std::array::from_fn(|i| now[i] - before[i])
    };

    // Phase A's interned signatures, summed over viewers, beside the FEC
    // groups the last compile reported: every table is compacted to the
    // signatures in use, so the two must be equal after every update.
    let mut miscounted: Vec<String> = Vec::new();
    let mut count_interned = |ctl: &SdxController, after: &str| {
        let interned = ctl.telemetry.gauge("compile.phase_a.interned").get();
        let groups = ctl.report.as_ref().expect("compiled").stats.group_count;
        if interned != groups as i64 {
            miscounted.push(format!("{after}: {interned} interned, {groups} groups"));
        }
    };
    // Where the switch's compiled matcher files the table: entries under
    // its `dl_dst` and `in_port` indexes, and entries in the residual list
    // every packet scans.
    let census = |fabric: &Fabric| {
        let s = fabric.switch.table().matcher_stats();
        [s.exact_entries, s.residual_entries]
    };

    let t = Instant::now();
    let mut fabric = ctl.deploy().expect("deploy");
    let deploy_s = t.elapsed().as_secs_f64();
    count_interned(&ctl, "deploy");
    let deploy_census = census(&fabric);
    let deploy_rss = peak_rss_mib();
    let deploy_examined = examined(&ctl);
    let rules = ctl.report.as_ref().expect("deployed").stats.rule_count;
    let adverts = fabric.adj_rib_outs().stored();
    let pairs = ctl.rs.participants().count() * ctl.rs.prefix_count();
    let ratio = deploy_examined as f64 / adverts as f64;

    // One table dump by the largest announcer, in the daemon's passes of
    // 64 prefixes, then the re-optimisation that retires the overlays.
    let announcer = ctl
        .rs
        .participants()
        .max_by_key(|&p| ctl.rs.loc_rib().announced_count(p))
        .expect("participants");
    let cfg = ctl.compiler.participant(announcer).expect("known").clone();
    let dumped: Vec<Prefix> = ctl
        .rs
        .loc_rib()
        .announced_by(announcer)
        .take(1024)
        .collect();
    let announce = |ctl: &mut SdxController, pass: &[Prefix], path: &[u32]| {
        let mut changed = Vec::new();
        for &p in pass {
            let update = cfg.announce([p], path);
            for event in ctl.rs.process_update(announcer, &update) {
                if let RouteServerEvent::PrefixChanged(p) = event {
                    changed.push(p);
                }
            }
        }
        changed
    };
    // The stages a dump pass's time goes to, summed over the passes: the
    // route server's decision, then the fast path's; the first is the FIB
    // sync, a breakdown of `fastpath.apply`, and stays outside the sum.
    const DUMP_STAGES: [&str; 7] = [
        "fibsync",
        "fastpath.delta",
        "txn.validate",
        "fastpath.apply",
        "flowtable.apply",
        "txn.commit",
        "rs.decision",
    ];
    let dump_stages = |ctl: &SdxController| DUMP_STAGES.map(|key| timed(ctl, key));
    let (mut pass_begin_ns, mut pass_total_ns) = (Vec::new(), Vec::new());
    let dump_fibsync = fibsync(&ctl);
    let dump_staged = dump_stages(&ctl);
    let t = Instant::now();
    for pass in dumped.chunks(64) {
        let changed = announce(&mut ctl, pass, &[cfg.asn.0, 64_999, 64_998, 64_997]);
        let (begin, total) = (timed(&ctl, "txn.begin"), timed(&ctl, "fastpath.total"));
        ctl.apply_changed_prefixes(&changed, &mut fabric)
            .expect("fast path");
        pass_begin_ns.push(timed(&ctl, "txn.begin") - begin);
        pass_total_ns.push(timed(&ctl, "fastpath.total") - total);
        count_interned(&ctl, "a dump pass");
    }
    let dump_ms = t.elapsed().as_secs_f64() * 1e3;
    let dump_census = census(&fabric);
    let dump_fibsync = fibsync_since(&ctl, dump_fibsync);
    let now = dump_stages(&ctl);
    let dump_staged: [u64; 7] = std::array::from_fn(|i| now[i] - dump_staged[i]);
    let before = examined(&ctl);
    let repartitioned = |ctl: &SdxController| {
        (ctl.telemetry)
            .counter("compile.shard.recompiled.count")
            .get()
    };
    let repartitioned_before = repartitioned(&ctl);
    let builds = |fabric: &Fabric| fabric.switch.table().matcher_stats().builds;
    let builds_before = builds(&fabric);
    let t = Instant::now();
    let maps = ctl
        .reoptimize(&mut fabric)
        .expect("reoptimize")
        .stats
        .pieces
        .units;
    let reoptimize_ms = t.elapsed().as_secs_f64() * 1e3;
    let reoptimize_examined = examined(&ctl) - before;
    let reoptimize_repartitioned = repartitioned(&ctl) - repartitioned_before;
    let matcher_builds_reopt = builds(&fabric) - builds_before;
    let reoptimize_census = census(&fabric);
    count_interned(&ctl, "the re-optimisation");

    // Policy pushes by a policy-free participant, the benchmark's frames:
    // an inbound steer installed and retracted, then an outbound
    // application-specific peering installed and retracted. A push costs
    // what it edits: the counts say which compiled pieces were rebuilt.
    let editor = ctl
        .compiler
        .participants()
        .values()
        .filter(|c| c.outbound.is_none() && c.inbound.is_none())
        .max_by_key(|c| (c.ports.len(), std::cmp::Reverse(c.id)))
        .expect("a policy-free participant")
        .clone();
    let peer = *ctl
        .compiler
        .participants()
        .keys()
        .find(|&&p| p != editor.id)
        .expect("another participant");
    // A route step that moves a policy viewer's best next hop at prefixes
    // its clauses reach: a participant that is neither the viewer, nor
    // its best next hop there, nor a party to the pushes below announces
    // every member of one of the viewer's FEC groups with a higher
    // LOCAL_PREF. Every member's signature moves, so the viewer's held map
    // is patched and re-partitioned, and the group's old signature is held
    // by no prefix: only a compacted table keeps phase A's interned count
    // at the groups'.
    let (mover_viewer, moved_group) = (ctl.report.as_ref().expect("compiled").groups.iter())
        .find_map(|(&viewer, piece)| {
            let g = piece.iter().find(|g| g.default_next_hop.is_some())?;
            Some((viewer, g.clone()))
        })
        .expect("a policy viewer with a routed FEC group");
    let mover = ctl
        .compiler
        .participants()
        .values()
        .find(|c| {
            ![mover_viewer, editor.id, peer].contains(&c.id)
                && Some(c.id) != moved_group.default_next_hop
        })
        .expect("a participant to move the next hop to")
        .clone();
    let mut update = mover.announce(moved_group.prefixes.iter().copied(), &[mover.asn.0]);
    if let Some(attrs) = update.attrs.as_mut() {
        attrs.local_pref = Some(1_000);
    }
    ctl.rs.process_update(mover.id, &update);
    let repartitioned_before = repartitioned(&ctl);
    ctl.reoptimize(&mut fabric)
        .expect("reoptimize after the route step");
    let route_step_repartitioned = repartitioned(&ctl) - repartitioned_before;
    let route_step_interned = ctl.telemetry.gauge("compile.phase_a.interned").get();
    let route_step_groups = ctl.report.as_ref().expect("compiled").stats.group_count;
    count_interned(&ctl, "the route step");
    let last_port = editor.ports.last().expect("at least one port").index;
    let steer = Policy::match_(FieldMatch::NwSrc(Prefix::new(
        sdx::net::Ipv4Addr::new(77, 0, 0, 0),
        8,
    ))) >> Policy::fwd(PortId::Phys(editor.id, last_port));
    let peering = Policy::match_(FieldMatch::TpDst(9_443)) >> Policy::fwd(PortId::Virt(peer));
    let pieces = |ctl: &SdxController| -> [u64; 6] {
        let count = |kind: &str, what: &str| {
            let key = format!("compile.piece.{kind}.{what}.count");
            ctl.telemetry.counter(&key).get()
        };
        [
            count("viewer", "recomputed"),
            count("viewer", "reused"),
            count("receiver", "recomputed"),
            count("receiver", "reused"),
            count("segment", "recomputed"),
            count("segment", "reused"),
        ]
    };
    // The stages a push's time goes to, as nanoseconds summed so far under
    // each one's timer; the first two are phase A's, a breakdown of the
    // third, and stay outside the sum.
    const STAGES: [&str; 12] = [
        "compile.phase_a.whole",
        "compile.phase_a.partition",
        "compile.fec",
        "compile.compose",
        "compile.stage1",
        "compile.stage2",
        "txn.validate",
        "reconcile.diff",
        "fibsync",
        "flowtable.apply",
        "txn.commit",
        "retire",
    ];
    let stages = |ctl: &SdxController| STAGES.map(|key| timed(ctl, key));
    let (mut push_begin_ns, mut push_total_ns) = (Vec::new(), Vec::new());
    let mut push = |ctl: &mut SdxController, delta: PolicyDelta| {
        let before = pieces(ctl);
        let synced = fibsync(ctl);
        let staged = stages(ctl);
        let (begin, total) = (timed(ctl, "txn.begin"), timed(ctl, "reoptimize.total"));
        let t = Instant::now();
        ctl.apply_policy_delta(&delta, &mut fabric).expect("push");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        push_begin_ns.push(timed(ctl, "txn.begin") - begin);
        let total = timed(ctl, "reoptimize.total") - total;
        push_total_ns.push(total);
        let after = pieces(ctl);
        let pieces: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
        let now = stages(ctl);
        let staged: [u64; 12] = std::array::from_fn(|i| now[i] - staged[i]);
        count_interned(ctl, &format!("a push ({delta:?})"));
        (ms, pieces, fibsync_since(ctl, synced), (staged, total))
    };
    let id: ParticipantId = editor.id;
    let (in_install_ms, in_install, in_install_sync, in_install_stages) =
        push(&mut ctl, PolicyDelta::new().install_inbound(id, steer));
    let (in_retract_ms, in_retract, in_retract_sync, in_retract_stages) =
        push(&mut ctl, PolicyDelta::new().retract_inbound(id));
    let (out_install_ms, out_install, out_install_sync, out_install_stages) = push(
        &mut ctl,
        PolicyDelta::new().install_outbound(id, peering.clone()),
    );
    let (out_retract_ms, out_retract, out_retract_sync, out_retract_stages) =
        push(&mut ctl, PolicyDelta::new().retract_outbound(id));
    let push_inbound_ms = (in_install_ms + in_retract_ms) / 2.0;
    let push_outbound_ms = (out_install_ms + out_retract_ms) / 2.0;

    // Per packet: the benchmark's round of probes through `Fabric::send`,
    // once to warm the caches, then timed. The first 256 probes that
    // reach the switch are classified both ways.
    let probes = sample_probes(&ctl.compiler, &ctl.rs, 1, 8_192);
    let located: Vec<LocatedPacket> = probes
        .iter()
        .filter_map(|&(from, pkt)| fabric.router(from)?.forward(pkt, &fabric.arp))
        .take(256)
        .collect();
    let table = fabric.switch.table();
    let winner = |lp: &LocatedPacket| table.classify(lp).map(|(i, _)| i);
    let linear = |lp: &LocatedPacket| table.classify_linear(lp).map(|(i, _)| i);
    let misclassified = located.iter().filter(|lp| winner(lp) != linear(lp)).count();
    let round = || -> usize {
        let sent = probes
            .iter()
            .map(|&(from, pkt)| fabric.send(from, pkt).len());
        sent.sum()
    };
    round();
    const ROUNDS: usize = 10;
    let t = Instant::now();
    let delivered = (0..ROUNDS).map(|_| round()).sum::<usize>() / ROUNDS;
    let forward_ns = t.elapsed().as_nanos() as f64 / (ROUNDS * probes.len()) as f64;

    println!(
        "participants={participants} prefixes={} policy_prefixes={policy_prefixes} rules={rules}",
        ctl.rs.prefix_count()
    );
    println!("deploy_s={deploy_s:.3} peak_rss_mib={deploy_rss:.1}");
    println!(
        "stored_adverts={adverts} pairs={pairs} stored_share={:.4}",
        adverts as f64 / pairs as f64
    );
    println!("deploy_examined={deploy_examined} examined_per_stored={ratio:.3}");
    println!(
        "dump_prefixes={} dump_ms={dump_ms:.1} reoptimize_ms={reoptimize_ms:.1} \
         reoptimize_examined={reoptimize_examined} peak_rss_after_mib={:.1}",
        dumped.len(),
        peak_rss_mib()
    );
    println!(
        "reoptimize_phase_a: maps_built_whole={} maps_patched={} viewers_repartitioned={}",
        maps.recomputed, maps.reused, reoptimize_repartitioned
    );
    println!("matcher_builds_reopt={matcher_builds_reopt}");
    let censuses = [
        ("deploy", deploy_census),
        ("dump", dump_census),
        ("reoptimize", reoptimize_census),
    ];
    for (after, [exact, residual]) in censuses {
        println!(
            "matcher_after_{after}: matcher_exact_entries={exact} \
             matcher_residual_entries={residual}"
        );
    }
    println!(
        "route_step: viewer={mover_viewer} prefixes={} best_next_hop={} viewers_repartitioned={route_step_repartitioned} \
         phase_a_interned={route_step_interned} fec_groups={route_step_groups}",
        moved_group.prefixes.len(),
        mover.id
    );

    println!(
        "phase_a_interned={} fec_groups={} (after the last push)",
        ctl.telemetry.gauge("compile.phase_a.interned").get(),
        ctl.report.as_ref().expect("compiled").stats.group_count
    );
    println!("push_inbound_ms={push_inbound_ms:.2} push_outbound_ms={push_outbound_ms:.2}");
    for (what, p) in [
        ("inbound_install", in_install),
        ("inbound_retract", in_retract),
        ("outbound_install", out_install),
        ("outbound_retract", out_retract),
    ] {
        println!(
            "push_{what}: viewer_pieces={}/{} receiver_blocks={}/{} segments={}/{} \
             (recomputed/reused)",
            p[0], p[1], p[2], p[3], p[4], p[5]
        );
    }
    let pushes_synced = [
        ("inbound_install", in_install_sync),
        ("inbound_retract", in_retract_sync),
        ("outbound_install", out_install_sync),
        ("outbound_retract", out_retract_sync),
    ];
    for (what, [ns, examined, sent, undo]) in [("dump_passes", dump_fibsync)]
        .into_iter()
        .chain(pushes_synced)
    {
        // Per pair examined; a push that examined none has no such cost.
        let per_pair = match examined {
            0 => "-".to_string(),
            n => format!("{:.1}", ns as f64 / n as f64),
        };
        println!(
            "fibsync_{what}: fibsync_us={:.1} examined={examined} sent={sent} \
             fibsync_ns_per_pair={per_pair} undo_entries={undo}",
            ns as f64 / 1e3,
        );
    }
    let sum = dump_staged[1..].iter().sum::<u64>();
    println!(
        "stages_us_dump: {} sum={:.1} dump_us={:.1} sum_share={:.3} ({})",
        stage_rows(&DUMP_STAGES[1..], &dump_staged[1..]),
        sum as f64 / 1e3,
        dump_ms * 1e3,
        sum as f64 / (dump_ms * 1e6),
        stage_rows(&DUMP_STAGES[..1], &dump_staged[..1])
    );
    for (what, (staged, total)) in [
        ("inbound_install", in_install_stages),
        ("inbound_retract", in_retract_stages),
        ("outbound_install", out_install_stages),
        ("outbound_retract", out_retract_stages),
    ] {
        let sum = staged[2..].iter().sum::<u64>();
        println!(
            "stages_us_{what}: {} sum={:.1} reoptimize.total={:.1} sum_share={:.3} ({})",
            stage_rows(&STAGES[2..], &staged[2..]),
            sum as f64 / 1e3,
            total as f64 / 1e3,
            sum as f64 / total as f64,
            stage_rows(&STAGES[..2], &staged[..2])
        );
    }
    println!(
        "probes={} forward_ns_per_pkt={forward_ns:.1} delivered={delivered} \
         classified_both_ways={}",
        probes.len(),
        located.len()
    );
    let (pass_begin, pass_total) = (p50_max_us(pass_begin_ns), p50_max_us(pass_total_ns));
    let (push_begin, push_total) = (p50_max_us(push_begin_ns), p50_max_us(push_total_ns));
    println!(
        "txn_begin_us: dump_passes p50={:.1} max={:.1} (fastpath.total p50={:.1} max={:.1}) \
         pushes p50={:.1} max={:.1} (reoptimize.total p50={:.1} max={:.1})",
        pass_begin.0,
        pass_begin.1,
        pass_total.0,
        pass_total.1,
        push_begin.0,
        push_begin.1,
        push_total.0,
        push_total.1
    );
    if !miscounted.is_empty() {
        eprintln!(
            "phase A's interned signatures are not its FEC groups: {}",
            miscounted.join("; ")
        );
        std::process::exit(1);
    }
    if delivered == 0 || misclassified > 0 {
        eprintln!(
            "{delivered} of {} probes delivered, {misclassified} of {} located probes \
             classified differently by the matcher and the linear walk",
            probes.len(),
            located.len()
        );
        std::process::exit(1);
    }
    for p in [in_install, in_retract] {
        if p[0] > 0 || p[2] > 1 {
            eprintln!(
                "an inbound push recomputed {} viewer piece(s) and {} receiver block(s): \
                 it edits one receiver's block and nobody's groups",
                p[0], p[2]
            );
            std::process::exit(1);
        }
    }
    for (what, [_, examined, sent, _]) in pushes_synced {
        if sent > examined {
            eprintln!("the {what} push sent {sent} advertisements but examined {examined}");
            std::process::exit(1);
        }
    }
    for (what, [_, examined, sent, _]) in &pushes_synced[2..] {
        if sent != examined {
            eprintln!(
                "the {what} push examined {examined} (viewer, prefix) pairs but sent {sent}: \
                 its pairs are the ones whose VNH moved, so each must be sent"
            );
            std::process::exit(1);
        }
    }
    if route_step_repartitioned == 0 || route_step_interned != route_step_groups as i64 {
        eprintln!(
            "the route step re-partitioned {route_step_repartitioned} viewer(s) and left \
             {route_step_interned} signatures interned for {route_step_groups} FEC groups: \
             it moves a policy viewer's signature, whose patched map must be \
             re-partitioned and its table compacted"
        );
        std::process::exit(1);
    }
    for (what, [_, examined, ..]) in &pushes_synced[..2] {
        if *examined > 0 {
            eprintln!(
                "the {what} push examined {examined} (viewer, prefix) pairs: an inbound \
                 push moves no viewer's FEC groups, so it re-advertises nothing"
            );
            std::process::exit(1);
        }
    }
    if maps.recomputed > 0 {
        eprintln!(
            "the re-optimisation after the dump rebuilt {} viewer map(s) whole: \
             no policy stamp moved, so every map should have been patched",
            maps.recomputed
        );
        std::process::exit(1);
    }
    for (after, [_, residual]) in censuses {
        if residual != 1 {
            eprintln!(
                "after the {after} the matcher's residual list holds {residual} entries: \
                 every rule but the catch-all keys on dl_dst or in_port, and any other \
                 lengthens every packet's residual scan"
            );
            std::process::exit(1);
        }
    }
    if matcher_builds_reopt > 0 {
        eprintln!(
            "the re-optimisation after the dump rebuilt the switch's matcher whole \
             {matcher_builds_reopt} time(s): retiring the overlays and patching the \
             table should move it entry by entry"
        );
        std::process::exit(1);
    }
    if ratio > 1.0 {
        eprintln!(
            "the deploy examined {deploy_examined} advertisements to store {adverts}: \
             it is visiting pairs, not prefixes and exceptions"
        );
        std::process::exit(1);
    }

    // Rollback at scale. The fast pass fails after its ids are drawn and
    // its ARP bindings staged; the push, after it released the fast-path
    // ids, assigned its groups' ids by key and retired the overlays.
    let changed = announce(
        &mut ctl,
        &dumped[..dumped.len().min(64)],
        &[cfg.asn.0, 64_999],
    );
    fail_and_roll_back(&mut ctl, &mut fabric, "fast pass", |ctl, fabric| {
        ctl.apply_changed_prefixes(&changed, fabric).is_err()
    });
    // The same pass lands, so the push below has fast-path ids to release.
    ctl.apply_changed_prefixes(&changed, &mut fabric)
        .expect("fast path");
    fail_and_roll_back(&mut ctl, &mut fabric, "outbound push", |ctl, fabric| {
        let delta = PolicyDelta::new().install_outbound(id, peering.clone());
        ctl.apply_policy_delta(&delta, fabric).is_err()
    });
    println!(
        "rollback_restored: fast_pass_prefixes={} outbound_push_overlays={}",
        changed.len(),
        ctl.delta_layers()
    );
}
