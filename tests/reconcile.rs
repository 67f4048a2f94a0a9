//! Integration tests for delta-first reconciliation: the §4.3.2 update
//! path rebuilt as a typed flow-mod protocol with churn-stable VNH
//! identity.
//!
//! What these tests pin down:
//!
//! * re-optimization **patches** the deployed table (flow-mod churn
//!   proportional to the BGP change, not to table size — the 50-party
//!   fixture must stay under 5% on a single-prefix best-route change, and
//!   seeded incumbent withdrawals under 1/15 of it in the median);
//! * unchanged FEC groups keep their **exact** VNH and VMAC across
//!   recompilations (content-addressed identity);
//! * ARP invalidation is **selective**: an unaffected router's cache
//!   survives a reoptimize, while retired bindings are flushed;
//! * a patched table is **packet-equivalent** to a from-scratch compile
//!   of the same final RIB (checked through the semantic oracle);
//! * `remove_participant` with live fast-path overlays deletes the delta
//!   rules outright and recycles every retired VNH;
//! * an idle reoptimize is a **no-op**: empty batch, no FIB
//!   re-advertisements, identical VNH map.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::reconcile::DELTA_BASE;
use sdx::core::VnhAllocator;
use sdx::net::{prefix, FieldMatch, Ipv4Addr, MacAddr, Packet, ParticipantId, PortId, Prefix};
use sdx::policy::Policy as P;
use sdx::Event;
use sdx_oracle::diff::Differential;
use sdx_oracle::fabric::FabricEvaluator;
use sdx_oracle::Outcome;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

struct Rig {
    ctl: SdxController,
    fabric: sdx::openflow::fabric::Fabric,
    configs: Vec<ParticipantConfig>,
    prefixes: Vec<Prefix>,
}

/// Six participants, two /8s each, deterministic routes (origin i
/// announces with a 2-hop path) and a two-clause outbound policy — small
/// enough to reason about exactly which FEC groups a churn event touches.
fn rig() -> Rig {
    let mut ctl = SdxController::new();
    let mut configs = Vec::new();
    for i in 1..=6u32 {
        let cfg = ParticipantConfig::new(i, 65000 + i, 1);
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
        configs.push(cfg);
    }
    let mut prefixes = Vec::new();
    for i in 0..12u32 {
        let p = prefix(&format!("{}.0.0.0/8", 10 + i));
        prefixes.push(p);
        let origin = (i % 6) + 1;
        ctl.rs.process_update(
            pid(origin),
            &configs[(origin - 1) as usize].announce([p], &[65000 + origin, 900 + i]),
        );
    }
    ctl.set_outbound(
        pid(1),
        Some(
            (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2))))
                + (P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(3)))),
        ),
    );
    let fabric = ctl.deploy().expect("deploy");
    Rig {
        ctl,
        fabric,
        configs,
        prefixes,
    }
}

/// Sum of flow mods in every `FlowModBatchApplied` journal entry.
fn journaled_flowmods(ctl: &SdxController) -> usize {
    ctl.telemetry
        .journal()
        .entries()
        .iter()
        .filter_map(|e| match e.event {
            Event::FlowModBatchApplied {
                adds,
                modifies,
                deletes,
                ..
            } => Some(adds + modifies + deletes),
            _ => None,
        })
        .sum()
}

#[test]
fn idle_reoptimize_is_a_noop_patch() {
    let mut r = rig();
    let old_vnhs: Vec<(ParticipantId, Ipv4Addr, MacAddr)> = r
        .ctl
        .report
        .as_ref()
        .expect("deployed report")
        .groups
        .values()
        .flatten()
        .map(|g| (g.viewer, g.vnh, g.vmac))
        .collect();
    let sent_before = r.ctl.telemetry.counter("fibsync.sent.count").get();
    r.ctl.telemetry.journal().clear();

    r.ctl.reoptimize(&mut r.fabric).expect("idle reoptimize");

    assert_eq!(
        journaled_flowmods(&r.ctl),
        0,
        "recompiling identical state must emit an empty flow-mod batch"
    );
    assert_eq!(
        r.ctl.telemetry.counter("fibsync.sent.count").get(),
        sent_before,
        "no route changed, so no FIB re-advertisement may be sent"
    );
    let new_vnhs: Vec<(ParticipantId, Ipv4Addr, MacAddr)> = r
        .ctl
        .report
        .as_ref()
        .expect("report")
        .groups
        .values()
        .flatten()
        .map(|g| (g.viewer, g.vnh, g.vmac))
        .collect();
    assert_eq!(
        old_vnhs, new_vnhs,
        "keyed identity must hold every VNH still"
    );
}

#[test]
fn arp_cache_of_unaffected_router_survives_reoptimize() {
    let mut r = rig();
    // Viewer 1 carries an outbound policy, so its routes are rewritten to
    // virtual next hops — the ARP entries whose selective invalidation
    // this test pins down.
    let viewer_port = PortId::Phys(pid(1), 1);

    // Warm router 1's ARP cache with two entries: one for a prefix whose
    // route is about to churn (11.0.0.0/8, origin 2) and one stable
    // (12.0.0.0/8, origin 3).
    let churn_dst = Ipv4Addr::new(11, 0, 0, 7);
    let stable_dst = Ipv4Addr::new(12, 0, 0, 7);
    for dst in [churn_dst, stable_dst] {
        r.fabric.send(
            viewer_port,
            Packet::tcp(Ipv4Addr::new(200, 1, 0, 1), dst, 40_000, 22),
        );
    }
    let router = r.fabric.router(viewer_port).expect("router 1");
    let churn_vnh = router.route_for(churn_dst).expect("route").1;
    let stable_vnh = router.route_for(stable_dst).expect("route").1;
    let stable_vmac = router
        .cached_arp(stable_vnh)
        .expect("stable entry cached by the probe");
    assert!(router.cached_arp(churn_vnh).is_some());
    assert_ne!(churn_vnh, stable_vnh, "fixture: distinct FEC groups");
    assert!(
        r.ctl
            .report
            .as_ref()
            .expect("report")
            .vnh_of
            .contains_key(&(pid(1), r.prefixes[1])),
        "fixture: viewer 1's churn route must be VNH-rewritten"
    );

    // Best route for 11.0.0.0/8 moves from participant 2 to participant 5
    // (a one-hop path beats the two-hop original), then reoptimize.
    let update = r.configs[4].announce([r.prefixes[1]], &[65005]);
    r.ctl
        .process_update(pid(5), &update, &mut r.fabric)
        .expect("fast path");
    r.ctl.reoptimize(&mut r.fabric).expect("reoptimize");

    let router = r.fabric.router(viewer_port).expect("router 1");
    assert_eq!(
        router.cached_arp(stable_vnh),
        Some(stable_vmac),
        "reoptimize must not flush ARP entries of unaffected FEC groups"
    );
    assert_eq!(
        router.cached_arp(churn_vnh),
        None,
        "the churned group's retired binding must be invalidated"
    );
    // And the stable group still routes through the very same VNH.
    assert_eq!(
        router.route_for(stable_dst).expect("route").1,
        stable_vnh,
        "stable prefix must keep its virtual next hop"
    );
}

#[test]
fn remove_participant_with_live_overlays_deletes_deltas_and_recycles_vnhs() {
    let mut r = rig();

    // Stack a fast-path overlay: participant 4 steals 11.0.0.0/8 (origin
    // 2's prefix) with a shorter path.
    let update = r.configs[3].announce([r.prefixes[1]], &[65004]);
    r.ctl
        .process_update(pid(4), &update, &mut r.fabric)
        .expect("fast path");
    assert!(r.ctl.delta_layers() > 0, "fixture: an overlay must be live");
    let overlay_rules = r
        .fabric
        .switch
        .table()
        .entries()
        .iter()
        .filter(|e| e.priority >= DELTA_BASE)
        .count();
    assert!(overlay_rules > 0, "fixture: overlay rules installed");

    assert_eq!(r.ctl.remove_participant(pid(2), &mut r.fabric), Ok(true));

    let table = r.fabric.switch.table();
    assert_eq!(
        table
            .entries()
            .iter()
            .filter(|e| e.priority >= DELTA_BASE)
            .count(),
        0,
        "retired delta rules must be deleted, not shadowed"
    );
    // Every retired id — the overlay's and the removed participant's —
    // must be back in the pool: live keyed mappings and pool accounting
    // both reduce to exactly the surviving groups.
    let live_groups: usize = r
        .ctl
        .report
        .as_ref()
        .expect("report")
        .groups
        .values()
        .map(|g| g.len())
        .sum();
    let capacity = VnhAllocator::new(VnhAllocator::default_pool()).remaining();
    assert_eq!(r.ctl.vnh.keyed_len(), live_groups);
    assert_eq!(
        r.ctl.vnh.remaining(),
        capacity - live_groups as u64,
        "retired VNHs must be recycled"
    );
}

#[test]
fn churn_trace_patched_table_matches_scratch_compile() {
    let mut r = rig();
    let mut rng = StdRng::seed_from_u64(7);

    // A churn trace: random re-announcements and withdrawals through the
    // fast path, then one background reoptimize patches the base table.
    for _ in 0..15 {
        let p = *r.prefixes.choose(&mut rng).expect("prefixes");
        let who = rng.gen_range(1..=6u32);
        let update = if rng.gen_bool(0.3) {
            UpdateMessage::withdraw([p])
        } else {
            r.configs[(who - 1) as usize].announce([p], &[65000 + who, rng.gen_range(1000..2000)])
        };
        r.ctl
            .process_update(pid(who), &update, &mut r.fabric)
            .expect("fast path");
    }
    r.ctl.reoptimize(&mut r.fabric).expect("reoptimize");

    // From-scratch compilation of the same final RIB state, with a fresh
    // allocator — the all-new-VNHs world the patched fabric must be
    // packet-equivalent to.
    let mut scratch_vnh = VnhAllocator::new(VnhAllocator::default_pool());
    let scratch = r
        .ctl
        .compiler
        .compile_all(&r.ctl.rs, &mut scratch_vnh)
        .expect("scratch compile");

    let report = r.ctl.report.as_ref().expect("committed report");
    let patched =
        Differential::over_table(&r.ctl.compiler, &r.ctl.rs, report, r.fabric.switch.table());
    let scratch_eval = FabricEvaluator::new(&r.ctl.compiler, &r.ctl.rs, &scratch);

    let mut delivered = 0usize;
    for sender in 1..=6u32 {
        let from = PortId::Phys(pid(sender), 1);
        for &p in &r.prefixes {
            for port in [80u16, 443, 22] {
                let pkt = Packet::tcp(
                    Ipv4Addr::new(200, sender as u8, 0, 1),
                    p.addr().saturating_add(7),
                    40_000,
                    port,
                );
                // Spec ≡ deployed (patched) table…
                let agreed = patched
                    .check(from, &pkt)
                    .unwrap_or_else(|m| panic!("patched table diverged from spec:\n{m}"));
                // …and deployed table ≡ from-scratch compile.
                let (scratch_out, _) = scratch_eval.verdict(from, &pkt);
                assert_eq!(
                    agreed, scratch_out,
                    "patched table disagrees with scratch compile at {from}, dst {p}, port {port}"
                );
                if matches!(agreed, Outcome::Deliver { .. }) {
                    delivered += 1;
                }
            }
        }
    }
    assert!(delivered > 0, "probe sweep must not be vacuously all-drops");
}

#[test]
fn single_prefix_churn_on_ixp50_patches_under_five_percent() {
    let (compiler, rs) = sdx::ixp::testkit::ixp50();
    let mut ctl = SdxController::new();
    ctl.compiler = compiler;
    ctl.rs = rs;
    let mut fabric = ctl.deploy().expect("deploy ixp50");
    let before = ctl.report.as_ref().expect("deployed report");
    let total_rules = before.stats.rule_count;
    let old_groups: std::collections::BTreeMap<_, _> = before
        .groups
        .values()
        .flatten()
        .map(|g| {
            (
                (g.viewer, g.prefixes.clone(), g.default_next_hop),
                (g.vnh, g.vmac),
            )
        })
        .collect();

    // One best-route change that matters to the *classifier*: a
    // VNH-rewritten (viewer, prefix) pair whose best route moves to a
    // *different announcer* when that announcer offers the shortest
    // possible AS path. Merely improving the incumbent's attributes
    // would leave every FEC key — and hence the whole table — unchanged
    // (an empty patch would be correct); the best *participant* has to
    // flip for the classifier to depend on the update. Scan rewritten
    // pairs until a 1-hop announce from a non-incumbent wins.
    let rewritten: Vec<_> = before.vnh_of.keys().collect();
    let cfgs: Vec<_> = ctl.compiler.participants().values().cloned().collect();
    let mut changed = false;
    'scan: for (viewer, p) in rewritten {
        let incumbent = ctl.rs.best_for(viewer, p).map(|r| r.source.participant);
        for cfg in &cfgs {
            if Some(cfg.id) == incumbent || cfg.id == viewer {
                continue;
            }
            let update = cfg.announce([p], &[cfg.asn.0]);
            let delta = ctl
                .process_update(cfg.id, &update, &mut fabric)
                .expect("fast path");
            let now = ctl.rs.best_for(viewer, p).map(|r| r.source.participant);
            if now != incumbent && !delta.rules.is_empty() {
                changed = true;
                break 'scan;
            }
        }
    }
    assert!(
        changed,
        "fixture: some 1-hop announce must flip a policy-relevant best route"
    );

    ctl.telemetry.journal().clear();
    ctl.reoptimize(&mut fabric).expect("reoptimize");

    let touched = journaled_flowmods(&ctl);
    assert!(touched > 0, "a best-route change must patch something");
    assert!(
        touched * 20 < total_rules,
        "single-prefix churn cost {touched} flow mods — not under 5% of {total_rules} rules"
    );

    // Unchanged FEC groups keep their exact VNH and VMAC, and they are
    // the overwhelming majority.
    let after = ctl.report.as_ref().expect("report");
    let total_after: usize = after.groups.values().map(|g| g.len()).sum();
    let mut survivors = 0usize;
    for g in after.groups.values().flatten() {
        if let Some(&(vnh, vmac)) =
            old_groups.get(&(g.viewer, g.prefixes.clone(), g.default_next_hop))
        {
            assert_eq!(
                (g.vnh, g.vmac),
                (vnh, vmac),
                "an unchanged FEC group moved its VNH/VMAC"
            );
            survivors += 1;
        }
    }
    assert!(
        survivors * 10 >= total_after * 9,
        "single-prefix churn should leave ≥90% of groups identical ({survivors}/{total_after})"
    );
}

#[test]
fn incumbent_withdrawals_on_ixp50_patch_a_small_share_of_the_table() {
    // Harsher than the single-pair flip above: each episode withdraws the
    // incumbent best route of a VNH-rewritten (viewer, prefix) pair, which
    // moves the best route for every viewer that preferred it, and then
    // re-optimises. Seed 42, 20 episodes read a median of 10 and a minimum
    // of 8 flow-mods against ≈ 250 rules. No per-episode ceiling: one
    // withdrawal can rekey many viewers' groups (episode 19 costs 26), so
    // the bounds are on the median and the cheapest episode.
    let (compiler, rs) = sdx::ixp::testkit::ixp50();
    let mut ctl = SdxController::new();
    ctl.compiler = compiler;
    ctl.rs = rs;
    let mut fabric = ctl.deploy().expect("deploy ixp50");
    let total_rules = ctl
        .report
        .as_ref()
        .expect("deployed report")
        .stats
        .rule_count;

    let mut rng = StdRng::seed_from_u64(42);
    let mut costs = Vec::new();
    for episode in 0..20 {
        let mut pairs: Vec<_> = ctl.report.as_ref().expect("report").vnh_of.keys().collect();
        pairs.shuffle(&mut rng);
        let mut churned = false;
        for (viewer, p) in pairs {
            let Some(incumbent) = ctl.rs.best_for(viewer, p).map(|r| r.source.participant) else {
                continue;
            };
            let delta = ctl
                .process_update(incumbent, &UpdateMessage::withdraw([p]), &mut fabric)
                .expect("fast path");
            if !delta.rules.is_empty() {
                churned = true;
                break;
            }
        }
        assert!(
            churned,
            "episode {episode}: no withdrawal reached the classifier"
        );

        ctl.telemetry.journal().clear();
        ctl.reoptimize(&mut fabric).expect("reoptimize");
        let flowmods = journaled_flowmods(&ctl);
        assert!(
            flowmods > 0,
            "episode {episode}: a best-route move must patch something"
        );
        costs.push(flowmods);
    }
    costs.sort_unstable();
    let median = costs[costs.len() / 2];
    assert!(
        median * 15 < total_rules,
        "median episode cost {median} flow-mods — not under 1/15 of {total_rules} rules: {costs:?}"
    );
    assert!(
        costs[0] * 20 < total_rules,
        "the cheapest episode cost {} flow-mods — not under 1/20 of {total_rules} rules",
        costs[0]
    );
}
