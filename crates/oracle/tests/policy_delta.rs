//! Oracle coverage for the policy lifecycle: a table patched by
//! [`PolicyDelta`]s must be packet-equivalent to a from-scratch deploy of
//! the same final policy state, and the spec interpreter — which reads
//! the *versioned* policy store — must agree with the patched fabric at
//! every step. This is the differential closing the loop on incremental
//! policy compilation: no residue from the pre-delta policies may survive
//! in the deployed table.

use sdx_bgp::route_server::ExportPolicy;
use sdx_core::controller::SdxController;
use sdx_core::participant::ParticipantConfig;
use sdx_net::{prefix, FieldMatch, ParticipantId, PortId};
use sdx_oracle::{synth, Differential, FabricEvaluator};
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
        let mut cold_fabric = cold.deploy().expect("cold deploy");
        for (from, pkt) in &probes {
            let warm: Vec<_> = fabric.send(*from, *pkt);
            let scratch: Vec<_> = cold_fabric.send(*from, *pkt);
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
