//! Oracle coverage for the policy lifecycle: a table patched by
//! [`PolicyDelta`]s must be packet-equivalent to a from-scratch deploy of
//! the same final policy state, and the spec interpreter — which reads
//! the *versioned* policy store — must agree with the patched fabric at
//! every step. This is the differential closing the loop on incremental
//! policy compilation: no residue from the pre-delta policies may survive
//! in the deployed table.

use sdx_bgp::route_server::ExportPolicy;
use sdx_core::controller::{Change, SdxController};
use sdx_core::participant::ParticipantConfig;
use sdx_core::schedule::Waves;
use sdx_ixp::policy_workload::{assign_policies, PolicyWorkloadParams};
use sdx_ixp::topology::{build, TopologyParams};
use sdx_ixp::updates::{self, TraceParams, UpdateBurst};
use sdx_net::{prefix, FieldMatch, Ipv4Addr, Packet, ParticipantId, PortId, Prefix};
use sdx_openflow::Fabric;
use sdx_oracle::{synth, Differential, FabricEvaluator, Outcome};
use sdx_policy::{Policy as P, PolicyDelta};

fn pid(n: u32) -> ParticipantId {
    ParticipantId(n)
}

/// Four participants, two prefixes, C steering web traffic via B.
fn participants() -> Vec<ParticipantConfig> {
    vec![
        ParticipantConfig::new(1, 65001, 1),
        ParticipantConfig::new(2, 65002, 2),
        ParticipantConfig::new(3, 65003, 1)
            .with_outbound(P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(2)))),
        ParticipantConfig::new(4, 65004, 1),
    ]
}

fn seeded_controller() -> SdxController {
    let mut ctl = SdxController::new();
    let cfgs = participants();
    for cfg in &cfgs {
        ctl.add_participant(cfg.clone(), ExportPolicy::allow_all());
    }
    ctl.rs.process_update(
        pid(1),
        &cfgs[0].announce([prefix("54.0.0.0/8")], &[65001, 7]),
    );
    ctl.rs.process_update(
        pid(2),
        &cfgs[1].announce([prefix("54.0.0.0/8")], &[65002, 9, 7]),
    );
    ctl.rs.process_update(
        pid(2),
        &cfgs[1].announce([prefix("91.0.0.0/8")], &[65002, 11]),
    );
    ctl.rs.process_update(
        pid(4),
        &cfgs[3].announce([prefix("91.0.0.0/8")], &[65004, 5, 11]),
    );
    ctl
}

#[test]
fn policy_deltas_patch_to_the_from_scratch_table() {
    let mut ctl = seeded_controller();
    let mut fabric = ctl.deploy().expect("deploy");

    // A sequence of lifecycle events: replace, install (a participant
    // that never had a policy), inbound install, retract.
    let steps: Vec<PolicyDelta> = vec![
        PolicyDelta::new().replace_outbound(
            pid(3),
            (P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(pid(1))))
                + (P::match_(FieldMatch::TpDst(443)) >> P::fwd(PortId::Virt(pid(2)))),
        ),
        PolicyDelta::new().install_outbound(
            pid(1),
            P::match_(FieldMatch::NwDst(prefix("91.0.0.0/8"))) >> P::fwd(PortId::Virt(pid(4))),
        ),
        PolicyDelta::new().install_inbound(
            pid(2),
            (P::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1"))) >> P::fwd(PortId::Phys(pid(2), 1)))
                + (P::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1")))
                    >> P::fwd(PortId::Phys(pid(2), 2))),
        ),
        PolicyDelta::new()
            .retract_outbound(pid(3))
            .retract_inbound(pid(2)),
    ];

    for (i, delta) in steps.iter().enumerate() {
        ctl.apply_policy_delta(delta, &mut fabric)
            .unwrap_or_else(|e| panic!("step {i}: {e}"));

        // 1. Spec interpreter (versioned policy store) vs the compiled
        //    fabric model: packet-level agreement after the delta.
        let report = ctl.report.as_ref().expect("report");
        let diff = Differential::new(&ctl.compiler, &ctl.rs, report);
        let probes = synth::probe_grid(&ctl.compiler, &ctl.rs);
        diff.check_all(&probes)
            .unwrap_or_else(|m| panic!("step {i}: {m}"));

        // 2. The *deployed* (reconcile-patched) table vs a pristine
        //    install of the same classifier: no patching residue.
        let deployed =
            FabricEvaluator::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table());
        let pristine = FabricEvaluator::new(&ctl.compiler, &ctl.rs, report);
        for (from, pkt) in &probes {
            let (got, trace) = deployed.verdict(*from, pkt);
            let (want, _) = pristine.verdict(*from, pkt);
            assert_eq!(
                got,
                want,
                "step {i}: patched table diverges\n{}",
                trace.render()
            );
        }

        // 3. A from-scratch controller with the same final policy state:
        //    the patched fabric and the cold deploy forward identically.
        let mut cold = seeded_controller();
        for (p, cfg) in ctl.compiler.participants() {
            cold.set_outbound(*p, cfg.outbound.clone());
            cold.set_inbound(*p, cfg.inbound.clone());
        }
        let cold_fabric = cold.deploy().expect("cold deploy");
        for (from, pkt) in &probes {
            let warm = fabric.send(*from, *pkt);
            let scratch = cold_fabric.send(*from, *pkt);
            assert_eq!(
                warm.len(),
                scratch.len(),
                "step {i}: fan-out differs for {pkt:?} in at {from}"
            );
            for (w, s) in warm.iter().zip(scratch.iter()) {
                assert_eq!((w.loc, w.pkt), (s.loc, s.pkt), "step {i}: {pkt:?}");
            }
        }
    }
}

/// The agreed (spec == fabric model) verdict of one probe against the
/// deployed table.
fn agreed(ctl: &SdxController, fabric: &Fabric, from: PortId, pkt: &Packet) -> Outcome {
    let report = ctl.report.as_ref().expect("compiled");
    Differential::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table())
        .check(from, pkt)
        .unwrap_or_else(|m| panic!("oracle mismatch on a targeted probe: {m}"))
}

#[test]
fn ddos_mitigation_mid_churn_is_a_small_patch_with_every_effect_in_place() {
    // §2's remote drop / upstream blocking on a 50-participant exchange in
    // the middle of an update trace: the victim pushes one PolicyDelta (an
    // inbound clause steering the attack's source half to its scrub port)
    // and an export deny hiding its prefix from three attackers, staged
    // together and committed through scheduled waves.
    let mut ixp = build(&TopologyParams {
        participants: 50,
        prefixes: 800,
        seed: 17,
        ..Default::default()
    });
    assign_policies(
        &mut ixp,
        &PolicyWorkloadParams {
            policy_prefixes: 200,
            seed: 17 * 31 + 7,
            ..Default::default()
        },
    );
    let trace = updates::generate(
        &ixp,
        &TraceParams {
            duration_secs: 60,
            seed: 18,
            ..Default::default()
        },
    );
    let mut ctl = SdxController::new();
    for p in &ixp.participants {
        ctl.compiler.upsert_participant(p.clone());
    }
    ctl.rs = ixp.route_server();

    // The victim: the smallest announcer with a second (scrub) port. It
    // announces the attacked /16 itself, outside the synthetic universe,
    // so it is the sole announcer and the export deny is a true block.
    let (victim, scrub_port) = (ixp.participants.iter().zip(&ixp.announcements))
        .filter(|(cfg, _)| cfg.ports.len() >= 2)
        .min_by_key(|(_, ann)| ann.len())
        .map(|(cfg, _)| (cfg.id, cfg.ports[1].index))
        .expect("a multi-port participant");
    let victim_prefix = Prefix::new(Ipv4Addr::new(66, 66, 0, 0), 16);
    let vcfg = ctl.compiler.participant(victim).expect("victim").clone();
    ctl.rs.process_update(
        victim,
        &vcfg.announce([victim_prefix], &[65_000 + victim.0, 777]),
    );
    let mut fabric = ctl.deploy().expect("deploys");

    let others: Vec<ParticipantId> = (ctl.compiler.participants().keys().copied())
        .filter(|&p| p != victim)
        .collect();
    let (attackers, bystander) = (&others[..3], others[3]);
    let entry = |id: ParticipantId| {
        PortId::Phys(
            id,
            ctl.compiler.participant(id).expect("registered").ports[0].index,
        )
    };
    let (attack_from, bystander_from) = (entry(attackers[0]), entry(bystander));
    // dport 9999 stays clear of the workload's port-keyed policies, so
    // before the push the attack follows the plain best route.
    let attack_dst = Ipv4Addr(victim_prefix.addr().0 + 9);
    let attack = Packet::tcp(Ipv4Addr::new(200, 66, 6, 6), attack_dst, 4321, 9999);

    let split = trace.bursts.len() / 2;
    let replay = |ctl: &mut SdxController, fabric: &mut Fabric, bursts: &[UpdateBurst]| {
        for burst in bursts {
            for (from, msg) in &burst.updates {
                ctl.rs.process_update(*from, msg);
            }
            ctl.reoptimize(fabric).expect("burst reoptimize");
        }
    };
    replay(&mut ctl, &mut fabric, &trace.bursts[..split]);
    match agreed(&ctl, &fabric, attack_from, &attack) {
        Outcome::Deliver { port, .. } => assert_eq!(port.participant(), victim),
        other => panic!("before the push the attack must reach the victim, got {other:?}"),
    }

    let counter = |ctl: &SdxController, key: &str| ctl.telemetry.counter(key).get();
    let table_before = fabric.switch.table().len();
    let dirty_before = counter(&ctl, "policy.dirty_units.count");
    let scrub = P::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1")))
        >> P::fwd(PortId::Phys(victim, scrub_port));
    let mut export = ExportPolicy::allow_all();
    for p in ctl.rs.loc_rib().announced_by(victim).collect::<Vec<_>>() {
        for &a in attackers {
            export.deny(a, p);
        }
    }
    ctl.rs.set_export_policy(victim, export);
    ctl.stage_policy_delta(&PolicyDelta::new().replace_inbound(victim, scrub))
        .expect("mitigation stages");
    let prepared = ctl
        .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
        .expect("mitigation compiles");
    let sched = ctl
        .commit(&mut fabric, prepared, None)
        .expect("mitigation waves commit");

    // A one-participant inbound push rebuilds no viewer's signature map
    // and writes a handful of flow-mods, not a table swap (delete every
    // old rule, install every new one).
    let flow_mods: usize = sched.applied.iter().map(|w| w.mods).sum();
    let naive_swap = table_before + fabric.switch.table().len();
    assert!(
        flow_mods * 4 < naive_swap,
        "mitigation cost {flow_mods} flow-mods against a {naive_swap}-mod swap"
    );
    let dirtied = counter(&ctl, "policy.dirty_units.count") - dirty_before;
    assert_eq!(dirtied, 0, "an inbound push rebuilt {dirtied} maps");
    assert!(
        counter(&ctl, "policy.applied.count") >= 1,
        "mitigation never counted as applied"
    );

    assert_eq!(
        agreed(&ctl, &fabric, attack_from, &attack),
        Outcome::Drop,
        "attack not dropped"
    );
    match agreed(&ctl, &fabric, bystander_from, &attack) {
        Outcome::Deliver { port, .. } => assert_eq!(
            port,
            PortId::Phys(victim, scrub_port),
            "scrubbed traffic must leave by the scrub port"
        ),
        other => panic!("scrubbed traffic must be delivered, got {other:?}"),
    }
    let clean = Packet::tcp(Ipv4Addr::new(9, 0, 0, 1), attack_dst, 4321, 9999);
    assert!(
        matches!(
            agreed(&ctl, &fabric, bystander_from, &clean),
            Outcome::Deliver { .. }
        ),
        "a bystander's low-half traffic must keep flowing"
    );

    // The patched table agrees with the spec interpreter on sampled
    // probes, and forwards them like a cold controller with the same book.
    let probes = synth::sample_probes(&ctl.compiler, &ctl.rs, 17, 300);
    assert!(probes.len() >= 100);
    let report = ctl.report.as_ref().expect("compiled");
    let delivered = Differential::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table())
        .check_all(&probes)
        .unwrap_or_else(|m| panic!("post-mitigation oracle mismatch: {m}"));
    assert!(delivered > 0, "probe sample vacuous");
    let mut cold = SdxController::new();
    for cfg in ctl.compiler.participants().values() {
        cold.compiler.upsert_participant(cfg.clone());
    }
    cold.rs = ctl.rs.clone();
    let cold_fabric = cold.deploy().expect("cold deploy");
    for (from, pkt) in &probes {
        let warm: Vec<_> = fabric
            .send(*from, *pkt)
            .iter()
            .map(|d| (d.loc, d.pkt))
            .collect();
        let scratch: Vec<_> = cold_fabric
            .send(*from, *pkt)
            .iter()
            .map(|d| (d.loc, d.pkt))
            .collect();
        assert_eq!(
            warm, scratch,
            "patched table diverged from scratch for {pkt:?} in at {from}"
        );
    }

    replay(&mut ctl, &mut fabric, &trace.bursts[split..]);
    assert_eq!(
        agreed(&ctl, &fabric, attack_from, &attack),
        Outcome::Drop,
        "the mitigation must survive continued churn"
    );
}
