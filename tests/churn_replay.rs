//! Churn-replay equivalence through the incremental delta path.
//!
//! A controller on its defaults, with three participants holding outbound
//! policies (port-keyed clauses, a clause whose destination match covers
//! several announced prefixes, and one that covers a prefix only partly),
//! receives a randomized event stream — announces, withdrawals, export
//! flips — burst by burst: the fast path takes each update, and each
//! reoptimize patches the viewers' signature maps at the prefixes the
//! burst dirtied. After every burst its *patched* table must be
//!
//! 1. canonically report-identical to a cold compile of the same world
//!    ([`cold_compile`]: fresh compiler, nothing cached, fresh allocator),
//!    and
//! 2. oracle-equivalent to the spec interpreter over its deployed flow
//!    table (patch history and all).
//!
//! A final idle reoptimize must rebuild no viewer's map and re-partition
//! none: every viewer is served its partition
//! (`compile.shard.skipped.count` advances by the number of viewers,
//! `compile.shard.recompiled.count` by none).

use sdx::bgp::msg::UpdateMessage;
use sdx::bgp::route_server::ExportPolicy;
use sdx::core::controller::SdxController;
use sdx::core::participant::ParticipantConfig;
use sdx::core::{canonicalize_report, VnhAllocator};
use sdx::net::{prefix, FieldMatch, Ipv4Addr, ParticipantId, PortId, Prefix};
use sdx::openflow::fabric::Fabric;
use sdx::policy::Policy as P;
use sdx_oracle::synth::{probe_grid, Rng};
use sdx_oracle::{cold_compile, Differential};

const PARTICIPANTS: u32 = 6;
const BURSTS: usize = 8;

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

fn p8(octet: u8) -> Prefix {
    Prefix::new(Ipv4Addr::new(octet, 0, 0, 0), 8)
}

/// The viewers' outbound policies: who holds one, and what it is.
fn policies() -> [(u32, P); 3] {
    let fwd = |to: u32| P::fwd(PortId::Virt(pid(to)));
    let port = |tp: u16| P::match_(FieldMatch::TpDst(tp));
    let dst = |p: &str| P::match_(FieldMatch::NwDst(prefix(p)));
    [
        (1, (port(80) >> fwd(2)) + (port(443) >> fwd(3))),
        (
            2,
            (dst("14.1.0.0/16") >> fwd(4)) + (dst("16.0.0.0/6") >> port(80) >> fwd(5)),
        ),
        (4, port(22) >> fwd(6)),
    ]
}

fn build() -> (SdxController, Fabric, Vec<ParticipantConfig>) {
    let mut ctl = SdxController::new();
    let mut cfgs: Vec<ParticipantConfig> = (1..=PARTICIPANTS)
        .map(|i| ParticipantConfig::new(i, 65000 + i, 1))
        .collect();
    for (id, policy) in policies() {
        cfgs[id as usize - 1].outbound = Some(policy);
    }
    for cfg in &cfgs {
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
    }
    // Seed RIB: each participant announces two /8s, overlapping so best
    // routes are contested from the start.
    for (i, cfg) in cfgs.iter().enumerate() {
        let o = 10 + (i as u8 % 8) * 2;
        let msg = cfg.announce([p8(o), p8(o + 1)], &[65001 + i as u32, 900 + i as u32, 77]);
        ctl.rs.process_update(pid(i as u32 + 1), &msg);
    }
    let fabric = ctl.deploy().expect("deploy");
    (ctl, fabric, cfgs)
}

/// One churn event.
enum Ev {
    Announce(u32, u8, Vec<u32>),
    Withdraw(u32, u8),
    ExportFlip(u32, u32, u8),
}

fn counter(ctl: &SdxController, key: &str) -> u64 {
    ctl.telemetry
        .snapshot()
        .counters
        .get(key)
        .copied()
        .unwrap_or(0)
}

#[test]
fn the_patched_delta_path_stays_equivalent_under_churn() {
    let (mut ctl, mut fabric, cfgs) = build();
    let mut rng = Rng::new(0xC4A8_0001);
    // Per-announcer export denials, so flips are reproducible toggles.
    let mut denials: std::collections::BTreeSet<(u32, u32, u8)> = Default::default();

    for burst in 0..BURSTS {
        let events: Vec<Ev> = (0..1 + rng.below(5))
            .map(|_| {
                let actor = 1 + rng.below(PARTICIPANTS as u64) as u32;
                let octet = 10 + rng.below(20) as u8;
                match rng.below(4) {
                    0 | 1 => {
                        let path: Vec<u32> = (0..1 + rng.below(3))
                            .map(|_| 100 + rng.below(900) as u32)
                            .collect();
                        Ev::Announce(actor, octet, path)
                    }
                    2 => Ev::Withdraw(actor, octet),
                    _ => {
                        let peer = 1 + rng.below(PARTICIPANTS as u64) as u32;
                        Ev::ExportFlip(actor, peer, octet)
                    }
                }
            })
            .collect();
        for ev in &events {
            match ev {
                Ev::Announce(actor, octet, path) => {
                    let mut full = vec![65000 + actor];
                    full.extend_from_slice(path);
                    let msg = cfgs[*actor as usize - 1].announce([p8(*octet)], &full);
                    ctl.process_update(pid(*actor), &msg, &mut fabric)
                        .expect("fast path");
                }
                Ev::Withdraw(actor, octet) => {
                    let msg = UpdateMessage::withdraw([p8(*octet)]);
                    ctl.process_update(pid(*actor), &msg, &mut fabric)
                        .expect("fast path");
                }
                Ev::ExportFlip(actor, peer, octet) => {
                    if actor == peer {
                        continue;
                    }
                    let key = (*actor, *peer, *octet);
                    if !denials.remove(&key) {
                        denials.insert(key);
                    }
                    let mut export = ExportPolicy::allow_all();
                    for &(a, peer, octet) in denials.iter().filter(|d| d.0 == *actor) {
                        let _ = a;
                        export.deny(pid(peer), p8(octet));
                    }
                    ctl.rs.set_export_policy(pid(*actor), export);
                }
            }
        }
        ctl.reoptimize(&mut fabric).expect("reoptimize");

        // (1) The incremental compile equals the cold compile of the same
        // world, modulo VNH renumbering.
        let pool = VnhAllocator::default_pool();
        let a = canonicalize_report(ctl.report.as_ref().expect("report"), pool);
        let b = canonicalize_report(&cold_compile(&ctl.compiler, &ctl.rs), pool);
        assert_eq!(
            a.classifier, b.classifier,
            "burst {burst}: classifier diverged"
        );
        assert_eq!(a.groups, b.groups, "burst {burst}: groups diverged");
        assert_eq!(
            a.arp_bindings, b.arp_bindings,
            "burst {burst}: ARP diverged"
        );
        assert_eq!(a.vnh_of, b.vnh_of, "burst {burst}: VNH map diverged");

        // (2) The *deployed table* (every patch applied) matches the spec.
        let cr = ctl.report.as_ref().expect("report");
        let diff = Differential::over_table(&ctl.compiler, &ctl.rs, cr, fabric.switch.table());
        let probes = probe_grid(&ctl.compiler, &ctl.rs);
        diff.check_all(&probes)
            .unwrap_or_else(|m| panic!("burst {burst}: patched table mismatch:\n{m}"));
    }

    // Idle reoptimize: nothing dirty, every viewer served its partition.
    let viewers = policies().len() as u64;
    let skipped0 = counter(&ctl, "compile.shard.skipped.count");
    let recompiled0 = counter(&ctl, "compile.shard.recompiled.count");
    let units = ctl
        .reoptimize(&mut fabric)
        .expect("idle reoptimize")
        .stats
        .pieces
        .units;
    assert_eq!(
        (units.recomputed, units.reused),
        (0, viewers as usize),
        "idle reoptimize must rebuild no viewer's map"
    );
    assert_eq!(
        counter(&ctl, "compile.shard.skipped.count") - skipped0,
        viewers,
        "idle reoptimize must serve every viewer"
    );
    assert_eq!(
        counter(&ctl, "compile.shard.recompiled.count") - recompiled0,
        0,
        "idle reoptimize must re-partition nothing"
    );
}
