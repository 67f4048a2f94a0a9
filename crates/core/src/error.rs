//! The workspace-wide error taxonomy.
//!
//! Every fallible step of the controller runtime — policy transformation,
//! VNH allocation, fabric commit validation, and injected test faults —
//! funnels into [`SdxError`], so callers of
//! [`process_update`](crate::controller::SdxController::process_update) and
//! [`reoptimize`](crate::controller::SdxController::reoptimize) see one
//! typed error channel instead of a mixture of panics and ad-hoc enums.

use sdx_net::Prefix;

use crate::faults::InjectionPoint;
use crate::transform::TransformError;

/// Any error the controller runtime can report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SdxError {
    /// A participant policy failed one of the §4.1 transformations
    /// (isolation, unicast restriction, unknown ports).
    Transform(TransformError),
    /// The VNH pool has no free addresses left. The transaction that hit
    /// this is rolled back; a subsequent
    /// [`reoptimize`](crate::controller::SdxController::reoptimize)
    /// recycles retired delta ids and usually clears the condition.
    VnhExhausted {
        /// The pool that ran dry.
        pool: Prefix,
    },
    /// Pre-commit validation rejected a compiled result; the installed
    /// fabric was left untouched.
    InvalidCommit(String),
    /// A deterministic fault-injection point fired (test harnesses only;
    /// see [`crate::faults::FaultPlan`]).
    Injected(InjectionPoint),
    /// A fabric update was abandoned mid-flight: some wave kept failing
    /// past its retry budget, the remaining waves were skipped, and every
    /// wave that had landed was rolled back with the rest of the
    /// recompile. A later
    /// [`reoptimize`](crate::controller::SdxController::reoptimize) starts
    /// again from the untouched deployment.
    UpdateAborted {
        /// Zero-based index of the wave that exhausted its retries.
        wave: usize,
        /// Waves that had landed before the abort, all rolled back.
        applied: usize,
        /// Total waves the schedule had.
        total: usize,
        /// Attempts spent on the failing wave, including the first.
        attempts: u32,
    },
    /// A [`PolicyDelta`](sdx_policy::PolicyDelta) failed structural
    /// validation against the participant book (unknown participant,
    /// unresolvable port); nothing was staged. Carries the typed DSL
    /// error so callers can distinguish the offender.
    PolicyRejected(sdx_policy::dsl::DslError),
    /// Per-wave verification found an intermediate table that loops or
    /// routes a packet somewhere neither the old nor the new table would —
    /// the schedule itself is unsafe, so every wave it had landed, the
    /// offending one included, was rolled back.
    UnsafeSchedule {
        /// Zero-based index of the wave whose post-state failed.
        wave: usize,
        /// Human-readable counterexample from the verifier (packet, port,
        /// and the outcome disagreement or loop trace).
        counterexample: String,
    },
}

impl core::fmt::Display for SdxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SdxError::Transform(e) => write!(f, "policy transformation failed: {e}"),
            SdxError::VnhExhausted { pool } => write!(f, "VNH pool {pool} exhausted"),
            SdxError::InvalidCommit(why) => {
                write!(f, "fabric commit rejected: {why}")
            }
            SdxError::Injected(point) => {
                write!(f, "injected fault at {point}")
            }
            SdxError::PolicyRejected(e) => {
                write!(f, "policy delta rejected: {e}")
            }
            SdxError::UpdateAborted {
                wave,
                applied,
                total,
                attempts,
            } => write!(
                f,
                "fabric update aborted: wave {wave} failed after {attempts} \
                 attempts; the {applied}/{total} waves that had landed were \
                 rolled back"
            ),
            SdxError::UnsafeSchedule {
                wave,
                counterexample,
            } => write!(
                f,
                "unsafe update schedule: wave {wave} produced an invalid \
                 intermediate table: {counterexample}"
            ),
        }
    }
}

impl std::error::Error for SdxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdxError::Transform(e) => Some(e),
            SdxError::PolicyRejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for SdxError {
    fn from(e: TransformError) -> Self {
        SdxError::Transform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{prefix, ParticipantId};

    #[test]
    fn display_is_informative() {
        let e = SdxError::from(TransformError::MulticastOutbound(ParticipantId(7)));
        assert!(e.to_string().contains("multicast"));
        let e = SdxError::VnhExhausted {
            pool: prefix("10.0.0.0/30"),
        };
        assert!(e.to_string().contains("exhausted"));
        let e = SdxError::Injected(InjectionPoint::FabricCommit);
        assert!(e.to_string().contains("fabric-commit"));
        let e = SdxError::UpdateAborted {
            wave: 2,
            applied: 2,
            total: 5,
            attempts: 4,
        };
        let s = e.to_string();
        assert!(s.contains("wave 2") && s.contains("2/5") && s.contains("rolled back"));
        let e = SdxError::UnsafeSchedule {
            wave: 1,
            counterexample: "packet loops via port 3".into(),
        };
        assert!(e.to_string().contains("loops via port 3"));
    }

    #[test]
    fn transform_source_is_chained() {
        use std::error::Error;
        let e = SdxError::from(TransformError::NoSuchPort(ParticipantId(1), 9));
        assert!(e.source().is_some());
        assert!(SdxError::VnhExhausted {
            pool: prefix("10.0.0.0/30"),
        }
        .source()
        .is_none());
    }
}
