//! Deterministic fault injection for the controller runtime.
//!
//! Only what cannot fail for real in process is injected. A compile fails
//! for real on a policy the §4.1 transformations reject, and a VNH draw on
//! a pool with too few free ids; tests make those inputs. What nothing in
//! the process can make fail is the controller's interface to the
//! switches, and there a [`FaultPlan`] arms two [`InjectionPoint`]s: a
//! commit torn between its table and its control-plane writes
//! ([`FabricCommit`](InjectionPoint::FabricCommit)), and a flow-mod wave
//! a switch refuses ([`FlowModApply`](InjectionPoint::FlowModApply)). A
//! plan is a list of `(point, n)` pairs: the `n`-th crossing of `point`
//! fails, so a rollback runs at an exactly reproducible moment. Nothing
//! retries a failure; the change it belongs to fails whole. The compiler
//! crosses no point.
//!
//! A disarmed plan (the default) never fires and costs one branch per
//! crossing, so production paths carry no measurable overhead.

use std::collections::BTreeMap;

use crate::error::SdxError;

/// Named points in the controller pipeline where a fault can fire.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum InjectionPoint {
    /// Mid-way through staging a change on the fabric — for a burst after
    /// its ARP bindings and before its re-advertisements, for a recompile
    /// after the overlay retirement and before ARP/FIB synchronization —
    /// so a firing here exercises rollback of a half-mutated fabric.
    FabricCommit,
    /// Application of one scheduled flow-mod wave to the fabric (see
    /// [`crate::schedule`]). Each wave index is its own point, so
    /// `fail_nth(FlowModApply { wave: 2 }, 1)` fails the first wave 2 that
    /// any update drives and nothing else.
    FlowModApply {
        /// Zero-based wave index.
        wave: u32,
    },
}

impl core::fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectionPoint::FabricCommit => write!(f, "fabric-commit"),
            InjectionPoint::FlowModApply { wave } => write!(f, "flowmod-apply[{wave}]"),
        }
    }
}

/// A deterministic schedule of faults: each armed `(point, n)` fails the
/// `n`-th crossing (1-based) of `point`, once.
///
/// Two plans armed alike make identical decisions at every crossing,
/// independent of wall clock or global state — reruns of a failing test
/// replay the exact fault.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    armed: Vec<(InjectionPoint, u64)>,
    crossings: BTreeMap<InjectionPoint, u64>,
}

impl FaultPlan {
    /// A plan with nothing armed: every [`check`](Self::check) passes.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// Arms `point` to fail on its `n`-th crossing (1-based), once.
    pub fn fail_nth(mut self, point: InjectionPoint, n: u64) -> Self {
        self.armed.push((point, n.max(1)));
        self
    }

    /// Records a crossing of `point` and decides whether it fails.
    ///
    /// The pipeline calls this at each named point; a disarmed plan
    /// returns `Ok(())` without bookkeeping.
    pub fn check(&mut self, point: InjectionPoint) -> Result<(), SdxError> {
        if self.armed.is_empty() {
            return Ok(());
        }
        let count = self.crossings.entry(point).or_insert(0);
        *count += 1;
        if self.armed.contains(&(point, *count)) {
            Err(SdxError::Injected(point))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let mut plan = FaultPlan::disabled();
        for _ in 0..1000 {
            assert!(plan.check(InjectionPoint::FabricCommit).is_ok());
        }
    }

    #[test]
    fn nth_crossing_fires_exactly_once() {
        let mut plan = FaultPlan::disabled().fail_nth(InjectionPoint::FabricCommit, 3);
        assert!(plan.check(InjectionPoint::FabricCommit).is_ok());
        assert!(plan.check(InjectionPoint::FabricCommit).is_ok());
        assert_eq!(
            plan.check(InjectionPoint::FabricCommit),
            Err(SdxError::Injected(InjectionPoint::FabricCommit))
        );
        for _ in 0..8 {
            assert!(plan.check(InjectionPoint::FabricCommit).is_ok());
        }
    }

    #[test]
    fn points_are_counted_independently() {
        let mut plan = FaultPlan::disabled().fail_nth(InjectionPoint::FabricCommit, 1);
        assert!(plan.check(InjectionPoint::FlowModApply { wave: 0 }).is_ok());
        assert!(plan.check(InjectionPoint::FabricCommit).is_err());
    }

    #[test]
    fn flowmod_apply_waves_are_distinct_points() {
        let w = |wave| InjectionPoint::FlowModApply { wave };
        let mut plan = FaultPlan::disabled().fail_nth(w(1), 2);
        assert!(plan.check(w(0)).is_ok(), "wave 0 is a different point");
        assert!(plan.check(w(0)).is_ok(), "and its crossings are its own");
        assert!(plan.check(w(1)).is_ok(), "wave 1's first crossing");
        assert!(plan.check(w(1)).is_err(), "wave 1 fires on its second");
        assert!(plan.check(w(1)).is_ok(), "nth fires once");
    }
}
