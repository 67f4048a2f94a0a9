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
//! * every wave's first apply attempt fails (a seeded `FlowModApply`
//!   fault) and is retried, and the result forwards like a cold compile.
//!
//! Then the abort drill: a wave that fails every attempt parks the fabric
//! after wave 1, and a plain `reoptimize` recovers to a cold compile.

use sdx_core::controller::SdxController;
use sdx_core::faults::{FaultPlan, InjectionPoint, ANY_WAVE};
use sdx_core::schedule::{drive, ScheduleOpts};
use sdx_core::SdxError;
use sdx_net::{FieldMatch, ParticipantId, PortId};
use sdx_openflow::fabric::Fabric;
use sdx_openflow::flowmod::FlowModBatch;
use sdx_oracle::diff::cold_compile;
use sdx_oracle::{synth, FabricEvaluator, UpdateVerifier};
use sdx_policy::Policy as P;

const OPTS: ScheduleOpts = ScheduleOpts {
    max_attempts: 4,
    backoff_base_ms: 8,
};

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
        let prepared = ctl.prepare_scheduled(&mut fabric).expect("prepare");
        if prepared.plan.is_empty() {
            ctl.commit_scheduled(&mut fabric, prepared, &OPTS, None)
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

        // Scheduled: the real driver, every wave's first attempt failing,
        // the verifier counting violations at every wave barrier.
        let mut faults =
            FaultPlan::seeded(seed).fail_nth(InjectionPoint::FlowModApply { wave: ANY_WAVE }, 1);
        let mut violations = 0;
        let mut count = |f: &Fabric, _wave: usize| {
            violations +=
                verifier.count_violations(&ctl.compiler, &ctl.rs, report, f.switch.table());
            Ok(())
        };
        let sched = drive(
            &prepared.plan,
            &mut fabric,
            &mut faults,
            &ctl.telemetry,
            &OPTS,
            Some(&mut count),
        )
        .expect("a single fault per wave is retried, not aborted");
        assert_eq!(
            violations, 0,
            "seed {seed}: a scheduled wave exposed a transient violation"
        );
        assert_eq!(
            sched.applied.len(),
            prepared.plan.wave_count(),
            "seed {seed}"
        );
        assert!(
            sched.retries >= 1,
            "seed {seed}: the seeded fault never fired"
        );
        assert!(
            sched.backoff_ms >= OPTS.backoff_base_ms,
            "seed {seed}: backoff not accounted"
        );
        ctl.finish_scheduled(&mut fabric, prepared, std::time::Duration::ZERO);
        assert_forwards_like_a_cold_compile(&ctl, &fabric, &format!("seed {seed}"));
    }
    assert!(episodes > 0, "every seed planned an empty update");
    assert!(
        unordered_violations >= 1,
        "the unordered mods never exposed a transient violation"
    );
}

#[test]
fn an_aborted_update_parks_after_wave_one_and_reoptimize_recovers() {
    let seed = (1..=32u64)
        .find(|&s| {
            let (mut ctl, mut fabric) = perturbed(s);
            ctl.prepare_scheduled(&mut fabric)
                .expect("prepare")
                .plan
                .wave_count()
                >= 2
        })
        .expect("some seed plans at least two waves");
    let (mut ctl, mut fabric) = perturbed(seed);
    let prepared = ctl.prepare_scheduled(&mut fabric).expect("prepare");
    let total = prepared.plan.wave_count();
    ctl.faults = FaultPlan::seeded(seed)
        .fail_with_probability(InjectionPoint::FlowModApply { wave: 1 }, 1.0);
    let err = ctl
        .commit_scheduled(&mut fabric, prepared, &OPTS, None)
        .expect_err("a wave failing every attempt aborts");
    assert_eq!(
        err,
        SdxError::UpdateAborted {
            wave: 1,
            applied: 1,
            total,
            attempts: OPTS.max_attempts,
        },
        "seed {seed}"
    );
    ctl.faults = FaultPlan::disabled();
    ctl.reoptimize(&mut fabric).expect("recovery reoptimize");
    assert_forwards_like_a_cold_compile(&ctl, &fabric, &format!("abort recovery (seed {seed})"));
}
