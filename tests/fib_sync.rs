//! FIB synchronization costs what changed — shown by count, not by clock.
//!
//! A re-optimization used to walk every (viewer, prefix) pair of the
//! exchange to find the advertisements that moved, and the first one to
//! write every pair. The advertisements now live in one table — per
//! prefix the top-ranked route, plus an exception for each viewer that is
//! advertised something else — and under keyed VNH identity the
//! candidates for a change are known up front: the route server's dirty
//! prefixes with the exceptions on them, and the member prefixes of the
//! FEC groups that are in only one of the two compilations. These tests
//! hold the deployment to *prefixes + exceptions*, the incremental sync
//! to *dirty + their exceptions + moved* on the 50-participant exchange,
//! and both to the result of the full reconcile they replaced.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx::core::controller::SdxController;
use sdx::core::{CompileReport, FecGroup, FecId};
use sdx::net::{FieldMatch, ParticipantId, PortId, Prefix};
use sdx::openflow::fabric::Fabric;
use sdx::policy::{Policy as P, PolicyDelta};

fn deployed_ixp50() -> (SdxController, Fabric) {
    let (compiler, rs) = sdx::ixp::testkit::ixp50();
    let mut ctl = SdxController::new();
    ctl.compiler = compiler;
    ctl.rs = rs;
    let fabric = ctl.deploy().expect("deploy ixp50");
    (ctl, fabric)
}

fn counter(ctl: &SdxController, key: &str) -> u64 {
    ctl.telemetry.counter(key).get()
}

fn gauge(ctl: &SdxController, key: &str) -> usize {
    ctl.telemetry.snapshot().gauges[key] as usize
}

/// What the shared table has to store beyond one base per prefix,
/// derived here from the route server and the report's VNH map alone:
/// the (viewer, prefix) pairs among `prefixes` that are advertised
/// anything but the prefix's top-ranked route under its own next hop —
/// the viewer announced that route, is not exported it, or holds a
/// virtual next hop.
fn exceptions(ctl: &SdxController, prefixes: &[Prefix]) -> usize {
    let vnh_of = &ctl.report.as_ref().expect("compiled").vnh_of;
    let mut adverts = 0;
    for &p in prefixes {
        let top = ctl
            .rs
            .top_route(p)
            .map(|r| (r.source.participant, r.attrs.next_hop));
        for viewer in ctl.rs.participants() {
            let best = ctl.rs.best_for(viewer, p);
            let vnh = vnh_of.get(&(viewer, p)).copied();
            let seen = best.map(|r| (r.source.participant, vnh.unwrap_or(r.attrs.next_hop)));
            adverts += usize::from(seen != top);
        }
    }
    adverts
}

fn groups_by_id(r: &CompileReport) -> BTreeMap<FecId, &FecGroup> {
    r.groups.values().flatten().map(|g| (g.id, g)).collect()
}

/// (viewer, prefix) members of the groups only one report has.
fn stale_and_fresh_members(
    old: &CompileReport,
    new: &CompileReport,
) -> BTreeSet<(ParticipantId, Prefix)> {
    let (old, new) = (groups_by_id(old), groups_by_id(new));
    let only = |a: &BTreeMap<FecId, &FecGroup>, b: &BTreeMap<FecId, &FecGroup>| {
        a.iter()
            .filter(|(id, _)| !b.contains_key(id))
            .flat_map(|(_, g)| g.prefixes.iter().map(|&p| (g.viewer, p)))
            .collect::<Vec<_>>()
    };
    let mut members: BTreeSet<_> = only(&old, &new).into_iter().collect();
    members.extend(only(&new, &old));
    members
}

/// Traffic to `port` steered to `to`.
fn steer(to: ParticipantId, port: u16) -> P {
    P::match_(FieldMatch::TpDst(port)) >> P::fwd(PortId::Virt(to))
}

#[test]
fn the_deploy_examines_and_stores_prefixes_plus_exceptions() {
    let (ctl, fabric) = deployed_ixp50();
    let prefixes = ctl.rs.all_prefixes();
    let pairs = ctl.rs.participants().count() * prefixes.len();
    let adverts = exceptions(&ctl, &prefixes);
    assert!(
        adverts * 20 < pairs,
        "fixture: {adverts} of {pairs} pairs are exceptions"
    );
    // One decision per prefix and one look at each exception — not one
    // per (viewer, prefix) pair.
    let examined = counter(&ctl, "fibsync.examined.count") as usize;
    assert!(
        examined <= prefixes.len() + adverts,
        "examined {examined}, the exchange has {} prefixes + {adverts} exceptions",
        prefixes.len()
    );
    // And that is all the one table — advertisements and FIBs — holds.
    assert_eq!(fabric.adj_rib_outs().stored(), prefixes.len() + adverts);
    assert_eq!(
        gauge(&ctl, "ribout.stored.entries"),
        prefixes.len() + adverts
    );
}

#[test]
fn a_dump_re_examines_its_prefixes_and_their_exceptions() {
    // The largest announcer re-announces up to 1 024 prefixes over a
    // longer path, in the daemon's passes of 64; then one re-optimisation.
    let (mut ctl, mut fabric) = deployed_ixp50();
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
    assert!(dumped.len() >= 256, "fixture: {} prefixes", dumped.len());
    let stored = fabric.adj_rib_outs().stored();
    for pass in dumped.chunks(64) {
        let mut changed = Vec::new();
        for &p in pass {
            let update = cfg.announce([p], &[cfg.asn.0, 64_999, 64_998, 64_997]);
            changed.extend(
                ctl.rs
                    .process_update(announcer, &update)
                    .into_iter()
                    .filter_map(|e| match e {
                        sdx::bgp::route_server::RouteServerEvent::PrefixChanged(p) => Some(p),
                        _ => None,
                    }),
            );
        }
        ctl.apply_changed_prefixes(&changed, &mut fabric)
            .expect("fast path");
    }
    assert_eq!(ctl.rs.dirty_len(), dumped.len());
    let old = ctl.report.clone().expect("deployed");
    let examined = counter(&ctl, "fibsync.examined.count");
    ctl.reoptimize(&mut fabric).expect("reoptimize");
    let examined = (counter(&ctl, "fibsync.examined.count") - examined) as usize;
    let new = ctl.report.as_ref().expect("report");
    // Besides the dump itself only the groups that moved may be looked
    // at: never `dirty × viewers`.
    let moved = stale_and_fresh_members(&old, new)
        .into_iter()
        .filter(|(_, p)| !dumped.contains(p))
        .count();
    let adverts = exceptions(&ctl, &dumped);
    assert!(
        examined <= dumped.len() + adverts + moved,
        "examined {examined} for {} dumped prefixes with {adverts} exceptions, {moved} moved",
        dumped.len()
    );
    // A re-announcement moves exceptions around; it does not add any.
    let all = ctl.rs.all_prefixes();
    let adverts = exceptions(&ctl, &all);
    assert_eq!(fabric.adj_rib_outs().stored(), all.len() + adverts);
    assert!(
        fabric.adj_rib_outs().stored() <= stored,
        "stored {} entries after the dump, {stored} before",
        fabric.adj_rib_outs().stored()
    );
}

#[test]
fn a_policy_install_examines_only_the_groups_it_moved() {
    let (mut ctl, mut fabric) = deployed_ixp50();
    let viewers = ctl.rs.participants().count();
    let pairs = viewers * ctl.rs.prefix_count();
    // A participant without an outbound policy, steering toward one that
    // announces something.
    let editor = ctl
        .compiler
        .participants()
        .values()
        .find(|c| c.outbound.is_none())
        .expect("ixp50 leaves some participants without policy")
        .id;
    let target = ctl
        .rs
        .participants()
        .find(|&p| p != editor && ctl.rs.loc_rib().announced_count(p) > 20)
        .expect("an announcer");
    let old = ctl.report.clone().expect("deployed");
    let before = fabric.clone();
    let dirty: Vec<Prefix> = ctl.rs.clone().take_dirty_prefixes().into_iter().collect();
    let examined = counter(&ctl, "fibsync.examined.count");
    let sent = counter(&ctl, "fibsync.sent.count");
    // The deploy is the one transaction so far: a line for the table it
    // first wrote to plus its ARP bindings, not one per pair.
    let undo = ctl.telemetry.histogram("txn.undo.entries");
    assert_eq!(undo.count(), 1);
    let deploy_entries = undo.sum();
    assert!(
        deploy_entries < (pairs / 20) as u64,
        "the deploy logged {deploy_entries} undo entries"
    );

    ctl.apply_policy_delta(
        &PolicyDelta::new().install_outbound(editor, steer(target, 80)),
        &mut fabric,
    )
    .expect("push");

    let new = ctl.report.as_ref().expect("report");
    let moved = stale_and_fresh_members(&old, new);
    assert!(!moved.is_empty(), "fixture: the install must move a group");
    let examined = counter(&ctl, "fibsync.examined.count") - examined;
    let on_dirty = exceptions(&ctl, &dirty);
    let bound = (dirty.len() + on_dirty + moved.len()) as u64;
    assert!(
        examined <= bound,
        "examined {examined} advertisements, the change allows {bound}"
    );
    assert!(
        examined * 20 < pairs as u64,
        "examined {examined} of the exchange's {pairs} pairs"
    );
    let sent = counter(&ctl, "fibsync.sent.count") - sent;
    assert!(sent > 0, "nothing moved");
    // The push's transaction holds what it displaced and nothing else:
    // per moved advertisement one write to the Adj-RIB-Outs, which every
    // router of the editor reads, plus the new groups' ARP bindings.
    let entries = undo.sum() - deploy_entries;
    let bindings = new.arp_bindings.len() as u64;
    assert!(
        (1..=sent + bindings).contains(&entries),
        "the push logged {entries} undo entries for {sent} moved advertisements"
    );
    // Only the editor's groups moved, so only its routers may differ.
    let mut touched = 0;
    for port in fabric.ports() {
        if port.participant() == editor {
            touched += usize::from(fabric.router(port) != before.router(port));
        } else {
            assert_eq!(
                fabric.router(port),
                before.router(port),
                "{port:?} belongs to a participant that changed nothing"
            );
        }
    }
    assert!(touched > 0, "the editor's FIB must follow its new groups");
}

#[test]
fn incremental_sync_equals_the_full_reconcile_after_random_pushes() {
    // Two exchanges fed the same pushes: one synchronizes incrementally,
    // the other additionally runs the full reconcile after every push.
    // If the incremental sync ever missed a pair, the full one sends it.
    let (mut ctl, mut fabric) = deployed_ixp50();
    let (mut full, mut full_fabric) = deployed_ixp50();
    let ids: Vec<ParticipantId> = ctl.rs.participants().collect();
    let cfgs: Vec<_> = ctl.compiler.participants().values().cloned().collect();
    let prefixes = ctl.rs.all_prefixes();
    let mut rng = StdRng::seed_from_u64(0xf1b5);
    let pick = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
    for push in 0..16 {
        let editor = pick(&mut rng);
        let delta = match rng.gen_range(0..4u32) {
            0 => PolicyDelta::new().retract_outbound(editor),
            1 => PolicyDelta::new().replace_outbound(
                editor,
                steer(pick(&mut rng), 80) + steer(pick(&mut rng), 443),
            ),
            _ => PolicyDelta::new().replace_outbound(editor, steer(pick(&mut rng), 80)),
        };
        // Every third push rides on route churn the fast path never saw,
        // so the sync has dirty prefixes to fold in.
        let churn = (push % 3 == 0).then(|| {
            let cfg = &cfgs[rng.gen_range(0..cfgs.len())];
            let p = prefixes[rng.gen_range(0..prefixes.len())];
            if rng.gen_bool(0.5) {
                (cfg.id, cfg.announce([p], &[cfg.asn.0]))
            } else {
                (cfg.id, sdx::bgp::msg::UpdateMessage::withdraw([p]))
            }
        });
        for (c, f) in [(&mut ctl, &mut fabric), (&mut full, &mut full_fabric)] {
            if let Some((from, update)) = &churn {
                c.rs.process_update(*from, update);
            }
            c.apply_policy_delta(&delta, f)
                .unwrap_or_else(|e| panic!("push {push}: {e}"));
        }
        let resent = full.sync_fibs(&mut full_fabric, None);
        assert_eq!(
            resent.sent, 0,
            "push {push}: the incremental sync missed pairs"
        );
        assert_eq!(fabric, full_fabric, "push {push}: FIBs diverged");
        for &viewer in &ids {
            assert_eq!(
                fabric.adj_rib_out(viewer),
                full_fabric.adj_rib_out(viewer),
                "push {push}: Adj-RIB-Out of {viewer} diverged"
            );
        }
    }
    assert!(
        counter(&ctl, "fibsync.examined.count") * 10 < counter(&full, "fibsync.examined.count"),
        "the incremental exchange examined as much as the full one"
    );
}
