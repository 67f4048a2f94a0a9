//! Deterministic fault injection for the controller runtime.
//!
//! Only what cannot fail for real in process is injected. A compile fails
//! for real on a policy the §4.1 transformations reject, and a VNH draw on
//! a pool with too few free ids; tests make those inputs. What nothing in
//! the process can make fail is the controller's interface to the
//! switches, and there a [`FaultPlan`] arms two [`InjectionPoint`]s: a
//! commit torn between its table and its control-plane writes
//! ([`FabricCommit`](InjectionPoint::FabricCommit)), and a flow-mod wave
//! a switch refuses ([`FlowModApply`](InjectionPoint::FlowModApply)). The
//! plan decides, deterministically from a seed, whether each crossing of
//! a point fails, so rollback and retry run at exactly reproducible
//! moments. The compiler crosses no point.
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
    /// [`crate::schedule`]). The payload selects which wave fails:
    /// crossings are counted per wave index, so `fail_nth(FlowModApply {
    /// wave: 2 }, 1)` fails the first attempt of wave 2 and nothing
    /// else. Arm with [`ANY_WAVE`] to target every wave.
    FlowModApply {
        /// Zero-based wave index, or [`ANY_WAVE`] when arming to match
        /// all waves.
        wave: u32,
    },
}

/// Wildcard wave index for arming [`InjectionPoint::FlowModApply`]: an
/// armed trigger carrying this value matches a crossing of any wave.
/// Crossing counts stay per concrete wave, so `Nth` triggers armed with
/// `ANY_WAVE` fire on the n-th *attempt of each wave*, which is what
/// retry tests want.
pub const ANY_WAVE: u32 = u32::MAX;

impl core::fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectionPoint::FabricCommit => write!(f, "fabric-commit"),
            InjectionPoint::FlowModApply { wave: ANY_WAVE } => write!(f, "flowmod-apply[*]"),
            InjectionPoint::FlowModApply { wave } => write!(f, "flowmod-apply[{wave}]"),
        }
    }
}

impl InjectionPoint {
    /// Whether an armed point (`self`) matches a crossed point. Exact
    /// equality, except that a [`FlowModApply`](Self::FlowModApply)
    /// armed with [`ANY_WAVE`] matches a crossing of any wave.
    fn matches(self, crossed: InjectionPoint) -> bool {
        match (self, crossed) {
            (
                InjectionPoint::FlowModApply { wave: ANY_WAVE },
                InjectionPoint::FlowModApply { .. },
            ) => true,
            (a, b) => a == b,
        }
    }
}

/// When an armed point fires.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    /// Fire on exactly the n-th crossing (1-based) of the point.
    Nth(u64),
    /// Fire on each crossing with this probability, drawn from the plan's
    /// seeded generator.
    Probability(f64),
}

/// A seeded, deterministic schedule of faults.
///
/// Two plans built with the same seed and the same arming calls make
/// identical decisions at every crossing, independent of wall clock or
/// global state — reruns of a failing test replay the exact fault.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Xorshift64 state; zero means "no probabilistic faults possible"
    /// (the disarmed default).
    rng: u64,
    armed: Vec<(InjectionPoint, Trigger)>,
    crossings: BTreeMap<InjectionPoint, u64>,
}

impl FaultPlan {
    /// A plan with nothing armed: every [`check`](Self::check) passes.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// An empty plan whose probabilistic decisions derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            // Xorshift needs a nonzero state; fold seed 0 onto a constant.
            rng: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
            ..FaultPlan::default()
        }
    }

    /// Arms `point` to fail on its `n`-th crossing (1-based), once.
    pub fn fail_nth(mut self, point: InjectionPoint, n: u64) -> Self {
        self.armed.push((point, Trigger::Nth(n.max(1))));
        self
    }

    /// Arms `point` to fail each crossing with probability `p` (clamped to
    /// `[0, 1]`), decided by the seeded generator.
    pub fn fail_with_probability(mut self, point: InjectionPoint, p: f64) -> Self {
        self.armed
            .push((point, Trigger::Probability(p.clamp(0.0, 1.0))));
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
        let count = *count;
        let mut fire = false;
        for (p, trigger) in &self.armed {
            if !p.matches(point) {
                continue;
            }
            match trigger {
                Trigger::Nth(n) => fire |= count == *n,
                Trigger::Probability(prob) => {
                    let draw = (Self::next(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
                    fire |= draw < *prob;
                }
            }
        }
        if fire {
            Err(SdxError::Injected(point))
        } else {
            Ok(())
        }
    }

    fn next(state: &mut u64) -> u64 {
        // Xorshift64: deterministic, dependency-free, good enough to
        // decorrelate successive probability draws.
        let mut x = if *state == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            *state
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
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
        let mut plan = FaultPlan::seeded(1).fail_nth(InjectionPoint::FabricCommit, 3);
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
        let mut plan = FaultPlan::seeded(1).fail_nth(InjectionPoint::FabricCommit, 1);
        assert!(plan.check(InjectionPoint::FlowModApply { wave: 0 }).is_ok());
        assert!(plan.check(InjectionPoint::FabricCommit).is_err());
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut plan =
                FaultPlan::seeded(seed).fail_with_probability(InjectionPoint::FabricCommit, 0.5);
            (0..64)
                .map(|_| plan.check(InjectionPoint::FabricCommit).is_err())
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seeds diverge");
        let fired = run(42).iter().filter(|&&b| b).count();
        assert!(
            fired > 10 && fired < 54,
            "p=0.5 fires roughly half: {fired}"
        );
    }

    #[test]
    fn flowmod_apply_waves_are_distinct_points() {
        let w = |wave| InjectionPoint::FlowModApply { wave };
        let mut plan = FaultPlan::seeded(3).fail_nth(w(1), 2);
        assert!(plan.check(w(0)).is_ok(), "wave 0 is a different point");
        assert!(plan.check(w(0)).is_ok(), "and its crossings are its own");
        assert!(plan.check(w(1)).is_ok(), "wave 1's first crossing");
        assert!(plan.check(w(1)).is_err(), "wave 1 fires on its second");
        assert!(plan.check(w(1)).is_ok(), "nth fires once");
    }

    #[test]
    fn any_wave_matches_every_wave_with_per_wave_counts() {
        let w = |wave| InjectionPoint::FlowModApply { wave };
        let mut plan = FaultPlan::seeded(3).fail_nth(w(ANY_WAVE), 2);
        // First attempt of each wave passes; the second (the retry) fails,
        // because crossings are counted per concrete wave.
        for wave in 0..3 {
            assert!(plan.check(w(wave)).is_ok());
            assert_eq!(
                plan.check(w(wave)),
                Err(SdxError::Injected(w(wave))),
                "retry of wave {wave} fails"
            );
        }
    }

    #[test]
    fn flowmod_apply_probability_is_seed_deterministic() {
        let w = |wave| InjectionPoint::FlowModApply { wave };
        let run = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::seeded(seed).fail_with_probability(w(ANY_WAVE), 0.4);
            (0..48).map(|i| plan.check(w(i % 4)).is_err()).collect()
        };
        assert_eq!(run(9), run(9), "same seed, same wave-fault schedule");
        assert_ne!(run(9), run(10), "different seeds diverge");
    }

    #[test]
    fn probability_extremes() {
        let mut never =
            FaultPlan::seeded(7).fail_with_probability(InjectionPoint::FabricCommit, 0.0);
        let mut always =
            FaultPlan::seeded(7).fail_with_probability(InjectionPoint::FabricCommit, 1.0);
        for _ in 0..32 {
            assert!(never.check(InjectionPoint::FabricCommit).is_ok());
            assert!(always.check(InjectionPoint::FabricCommit).is_err());
        }
    }
}
