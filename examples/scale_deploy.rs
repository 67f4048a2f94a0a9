//! The scale curve, regenerated rather than remembered: deploy an exchange
//! of ixp50's shape at any size, absorb one 1 024-prefix table dump and
//! re-optimise, and report what that cost — seconds, peak memory, and how
//! many advertisements the route server stored and examined against the
//! `viewers × prefixes` a table per viewer would hold.
//!
//! Exits non-zero if the deployment examined more advertisements than it
//! ended up storing (one base per prefix plus the per-viewer exceptions):
//! the count that must not grow with the number of viewers. Nothing here
//! is gated on the clock.
//!
//! Run: `cargo run --release --example scale_deploy -- 300 15000 4000`
//! (participants, prefixes, policy prefixes; default 50 3000 800 = ixp50).

use std::time::Instant;

use sdx::bgp::route_server::RouteServerEvent;
use sdx::core::controller::SdxController;
use sdx::ixp::policy_workload::{assign_policies, PolicyWorkloadParams};
use sdx::ixp::topology::{build, TopologyParams};
use sdx::net::Prefix;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
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

    let t = Instant::now();
    let mut fabric = ctl.deploy().expect("deploy");
    let deploy_s = t.elapsed().as_secs_f64();
    let deploy_rss = peak_rss_mib();
    let deploy_examined = examined(&ctl);
    let rules = ctl.report.as_ref().expect("deployed").stats.rule_count;
    let (adverts, routes) = (ctl.adj_rib_outs().stored(), fabric.fib().stored());
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
    let t = Instant::now();
    for pass in dumped.chunks(64) {
        let mut changed = Vec::new();
        for &p in pass {
            let update = cfg.announce([p], &[cfg.asn.0, 64_999, 64_998, 64_997]);
            for event in ctl.rs.process_update(announcer, &update) {
                if let RouteServerEvent::PrefixChanged(p) = event {
                    changed.push(p);
                }
            }
        }
        ctl.apply_changed_prefixes(&changed, &mut fabric)
            .expect("fast path");
    }
    let dump_ms = t.elapsed().as_secs_f64() * 1e3;
    let before = examined(&ctl);
    let t = Instant::now();
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    let reoptimize_ms = t.elapsed().as_secs_f64() * 1e3;
    let reoptimize_examined = examined(&ctl) - before;

    println!(
        "participants={participants} prefixes={} policy_prefixes={policy_prefixes} rules={rules}",
        ctl.rs.prefix_count()
    );
    println!("deploy_s={deploy_s:.3} peak_rss_mib={deploy_rss:.1}");
    println!(
        "stored_adverts={adverts} stored_routes={routes} pairs={pairs} stored_share={:.4}",
        adverts as f64 / pairs as f64
    );
    println!("deploy_examined={deploy_examined} examined_per_stored={ratio:.3}");
    println!(
        "dump_prefixes={} dump_ms={dump_ms:.1} reoptimize_ms={reoptimize_ms:.1} \
         reoptimize_examined={reoptimize_examined} peak_rss_after_mib={:.1}",
        dumped.len(),
        peak_rss_mib()
    );
    if ratio > 1.0 {
        eprintln!(
            "the deploy examined {deploy_examined} advertisements to store {adverts}: \
             it is visiting pairs, not prefixes and exceptions"
        );
        std::process::exit(1);
    }
}
