//! Scheduled-update safety: the waves `sdx_core::schedule` plans keep
//! every intermediate table per-packet consistent, and the same flow-mods
//! applied unordered do not.
//!
//! Per episode (a synthetic exchange whose policies are restructured, so
//! the re-optimisation has real dependency structure):
//!
//! * an [`UpdateVerifier`] over the probe grid judges the table after
//!   every wave the real driver lands — 0 violations;
//! * the same mods, applied one at a time in reverse dependency order to
//!   a copy of the pre-update table, must expose a violation somewhere
//!   across the episodes;
//! * the result forwards like a cold compile.
//!
//! Then the one failure rule: whatever fails a commit at whichever wave —
//! an injected `FlowModApply` fault, a verifier veto, a hook error — the
//! controller and the fabric are left exactly as they were before
//! `prepare`, and every probe forwards as it did. Nothing is retried.

use sdx_core::controller::{Change, SdxController};
use sdx_core::faults::{FaultPlan, InjectionPoint};
use sdx_core::schedule::{UpdatePlan, Waves};
use sdx_core::SdxError;
use sdx_net::{FieldMatch, ParticipantId, PortId};
use sdx_openflow::fabric::Fabric;
use sdx_openflow::flowmod::FlowModBatch;
use sdx_openflow::table::FlowTable;
use sdx_oracle::diff::cold_compile;
use sdx_oracle::{synth, FabricEvaluator, Outcome, UpdateVerifier};
use sdx_policy::Policy as P;

/// A deployed synthetic exchange whose policies are then restructured:
/// one participant's outbound program is dropped and, on odd seeds,
/// another gets a fresh two-clause program, so the diff mixes handler
/// retirements with new emitter/handler chains.
fn perturbed(seed: u64) -> (SdxController, Fabric) {
    let ex = synth::exchange(seed);
    let mut ctl = SdxController::new();
    ctl.compiler = ex.compiler;
    ctl.rs = ex.rs;
    let fabric = ctl.deploy().expect("synthetic exchange deploys");
    let ids: Vec<ParticipantId> = ctl.compiler.participants().keys().copied().collect();
    ctl.set_outbound(ids[0], None);
    if seed % 2 == 1 && ids.len() > 1 {
        let to = P::fwd(PortId::Virt(ids[0]));
        let policy = (P::match_(FieldMatch::TpDst(80)) >> to.clone())
            + (P::match_(FieldMatch::TpDst(443)) >> to);
        ctl.set_outbound(ids[1], Some(policy));
    }
    (ctl, fabric)
}

/// The deployed table forwards every grid probe the way a cold compile
/// of the same book and RIB does.
fn assert_forwards_like_a_cold_compile(ctl: &SdxController, fabric: &Fabric, what: &str) {
    let report = ctl.report.as_ref().expect("report");
    let deployed =
        FabricEvaluator::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table());
    let cold = cold_compile(&ctl.compiler, &ctl.rs);
    let cold = FabricEvaluator::new(&ctl.compiler, &ctl.rs, &cold);
    for (from, pkt) in synth::probe_grid(&ctl.compiler, &ctl.rs) {
        assert_eq!(
            deployed.verdict(from, &pkt).0,
            cold.verdict(from, &pkt).0,
            "{what}: deployed table diverged from a cold compile for a probe from {from} to {}",
            pkt.nw_dst
        );
    }
}

#[test]
fn scheduled_waves_are_safe_where_unordered_mods_are_not() {
    let mut episodes = 0;
    let mut unordered_violations = 0;
    for seed in 1..=10u64 {
        let (mut ctl, mut fabric) = perturbed(seed);
        let prepared = ctl
            .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
            .expect("prepare");
        if prepared.plan.is_empty() {
            ctl.commit(&mut fabric, prepared, None)
                .expect("empty commit");
            continue;
        }
        episodes += 1;
        let report = ctl.report.as_ref().expect("new report");
        let verifier = UpdateVerifier::new(
            &ctl.compiler,
            &ctl.rs,
            report,
            fabric.switch.table(),
            &prepared.plan,
            synth::probe_grid(&ctl.compiler, &ctl.rs),
        )
        .expect("planned waves apply to the pre-update table");

        // Unordered: the same mods one at a time in reverse dependency
        // order, as a scheduler-less agent could apply them. A mod whose
        // single-mod batch no longer applies is skipped, as a switch
        // would reject it.
        let mut chaos = fabric.switch.table().clone();
        let mut peak = 0;
        for m in prepared.plan.waves.iter().flat_map(|w| &w.mods).rev() {
            let single = FlowModBatch {
                epoch: prepared.plan.epoch,
                mods: vec![m.clone()],
            };
            if chaos.apply_batch(&single).is_ok() {
                peak = peak.max(verifier.count_violations(&ctl.compiler, &ctl.rs, report, &chaos));
            }
        }
        unordered_violations += peak;

        // Scheduled: the real commit, the verifier counting violations at
        // every wave barrier.
        let waves = prepared.plan.wave_count();
        let mut violations = 0;
        let mut count = |ctl: &SdxController, f: &Fabric, _: usize, _: &FlowModBatch| {
            let report = ctl.report.as_ref().expect("new report");
            violations +=
                verifier.count_violations(&ctl.compiler, &ctl.rs, report, f.switch.table());
            Ok(())
        };
        let sched = ctl
            .commit(&mut fabric, prepared, Some(&mut count))
            .expect("the scheduled commit lands");
        assert_eq!(
            violations, 0,
            "seed {seed}: a scheduled wave exposed a transient violation"
        );
        assert_eq!(sched.applied.len(), waves, "seed {seed}");
        assert_forwards_like_a_cold_compile(&ctl, &fabric, &format!("seed {seed}"));
    }
    assert!(episodes > 0, "every seed planned an empty update");
    assert!(
        unordered_violations >= 1,
        "the unordered mods never exposed a transient violation"
    );
}

/// Everything a failed commit must leave as it found it: the report, the
/// allocator, the delta counter, and the fabric — table, ARP responder,
/// Adj-RIB-Outs and routers — with its unstreamed batches.
fn image(ctl: &SdxController, fabric: &Fabric) -> impl PartialEq + std::fmt::Debug {
    (
        format!("{:?}", ctl.report),
        format!("{:?}", ctl.vnh),
        ctl.delta_layers(),
        fabric.clone(),
        fabric.clone().drain_batches(),
    )
}

/// What every grid probe does on the deployed table.
fn verdicts(ctl: &SdxController, fabric: &Fabric) -> Vec<Outcome> {
    let report = ctl.report.as_ref().expect("report");
    let eval = FabricEvaluator::over_table(&ctl.compiler, &ctl.rs, report, fabric.switch.table());
    (synth::probe_grid(&ctl.compiler, &ctl.rs).iter())
        .map(|(from, pkt)| eval.verdict(*from, pkt).0)
        .collect()
}

/// The three ways a commit fails at a wave.
#[derive(Clone, Copy, Debug)]
enum Failure {
    /// The wave's `FlowModApply` point fires: nothing of it lands.
    Injected,
    /// The per-wave hook's verifier refuses the wave's table.
    Veto,
    /// The per-wave hook fails on its own (a switch agent lost).
    Hook,
}

#[test]
fn a_failed_commit_at_any_wave_leaves_the_deployment_untouched() {
    let mut failed_waves = 0;
    let mut after_a_landed_wave = 0;
    for seed in 1..=40u64 {
        let (mut ctl, mut fabric) = perturbed(seed);
        let prepared = ctl
            .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
            .expect("prepare");
        let total = prepared.plan.wave_count();
        ctl.commit(&mut fabric, prepared, None)
            .expect("the undisturbed commit lands");
        for k in 0..total {
            for failure in [Failure::Injected, Failure::Veto, Failure::Hook] {
                let (mut ctl, mut fabric) = perturbed(seed);
                fabric.enable_batch_log();
                let before = image(&ctl, &fabric);
                let forwarded = verdicts(&ctl, &fabric);
                let prepared = ctl
                    .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
                    .expect("prepare");
                assert_eq!(prepared.plan.wave_count(), total, "seed {seed}");
                // Refuses every table that delivers a probe: it was built
                // for an exchange with no rules at all.
                let strict = UpdateVerifier::new(
                    &ctl.compiler,
                    &ctl.rs,
                    ctl.report.as_ref().expect("new report"),
                    &FlowTable::new(),
                    &UpdatePlan {
                        epoch: 0,
                        waves: Vec::new(),
                        dependencies: 0,
                        collapsed: false,
                    },
                    synth::probe_grid(&ctl.compiler, &ctl.rs),
                )
                .expect("an empty plan applies");
                let mut hook = |ctl: &SdxController, f: &Fabric, wave: usize, _: &FlowModBatch| {
                    if wave < k {
                        return Ok(());
                    }
                    match failure {
                        Failure::Injected => Ok(()),
                        Failure::Veto => {
                            let report = ctl.report.as_ref().expect("new report");
                            let table = f.switch.table();
                            let verdict =
                                strict.check_table(&ctl.compiler, &ctl.rs, report, table, wave);
                            verdict.map_err(|counterexample| SdxError::UnsafeSchedule {
                                wave,
                                counterexample,
                            })
                        }
                        Failure::Hook => Err(SdxError::InvalidCommit(format!(
                            "wave {wave}: switch agent lost"
                        ))),
                    }
                };
                let point = InjectionPoint::FlowModApply {
                    wave: u32::try_from(k).expect("few waves"),
                };
                if let Failure::Injected = failure {
                    ctl.faults = FaultPlan::disabled().fail_nth(point, 1);
                }
                let err = ctl
                    .commit(&mut fabric, prepared, Some(&mut hook))
                    .expect_err("the commit fails at wave k");
                let what = format!("seed {seed}, wave {k}, {failure:?}");
                match (failure, &err) {
                    (Failure::Injected, SdxError::Injected(fired)) => {
                        assert_eq!(*fired, point, "{what}");
                    }
                    (Failure::Veto, SdxError::UnsafeSchedule { wave, .. }) => {
                        assert_eq!(*wave, k, "{what}");
                    }
                    (Failure::Hook, SdxError::InvalidCommit(why)) => {
                        assert_eq!(why, &format!("wave {k}: switch agent lost"), "{what}");
                    }
                    _ => panic!("{what}: unexpected error {err}"),
                }
                assert_eq!(image(&ctl, &fabric), before, "{what}");
                assert_eq!(verdicts(&ctl, &fabric), forwarded, "{what}");
            }
            failed_waves += 1;
            after_a_landed_wave += usize::from(k > 0);
        }
    }
    assert!(failed_waves > 0, "no seed planned a wave");
    assert!(
        after_a_landed_wave > 0,
        "no failure came after a landed wave"
    );
}

#[test]
fn an_aborted_update_rolls_back_and_the_next_pass_recovers() {
    let seed = (1..=32u64)
        .find(|&s| {
            let (mut ctl, mut fabric) = perturbed(s);
            let prepared = ctl
                .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
                .expect("prepare");
            let waves = prepared.plan.wave_count();
            ctl.commit(&mut fabric, prepared, None).expect("commit");
            waves >= 2
        })
        .expect("some seed plans at least two waves");
    let (mut ctl, mut fabric) = perturbed(seed);
    let before = image(&ctl, &fabric);
    let prepared = ctl
        .prepare(&mut fabric, Change::Recompile(Waves::Ordered))
        .expect("prepare");
    let wave1 = InjectionPoint::FlowModApply { wave: 1 };
    ctl.faults = FaultPlan::disabled().fail_nth(wave1, 1);
    let err = ctl
        .commit(&mut fabric, prepared, None)
        .expect_err("a failing wave fails the update");
    assert_eq!(err, SdxError::Injected(wave1), "seed {seed}");
    assert_eq!(
        image(&ctl, &fabric),
        before,
        "wave 0 rolled back with the rest"
    );
    ctl.reoptimize(&mut fabric).expect("recovery reoptimize");
    assert_forwards_like_a_cold_compile(&ctl, &fabric, &format!("abort recovery (seed {seed})"));
}
