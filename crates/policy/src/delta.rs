//! Policy lifecycle as a first-class input (§2's runtime applications).
//!
//! The paper's marquee use cases — application-specific peering, inbound
//! TE, upstream DDoS blocking — all assume participants *change* their
//! policies while the exchange runs. This module makes a policy mutation
//! a structured event rather than a book rewrite:
//!
//! * [`PolicyDelta`] — an ordered batch of install/replace/retract
//!   operations, per participant and per direction, the exact policy-side
//!   analogue of a BGP update burst.
//! * [`PolicyVersions`] — per-participant, per-direction version counters
//!   (plus a coarse *book* epoch for structural changes), replacing the
//!   single global epoch that used to invalidate every cached compile
//!   artifact on any edit.
//!
//! Validation is structural and pure: the delta is checked against
//! caller-supplied views of the participant book (this crate knows policy
//! syntax, not exchange membership), and rejections are typed
//! [`DslError`]s — a malformed delta is a *user input* error, the same
//! category as a parse failure, never a panic.

use std::collections::BTreeMap;
use std::fmt;

use sdx_net::{FieldMatch, Mod, ParticipantId, PortId};

use crate::dsl::DslError;
use crate::policy::Policy;
use crate::pred::Pred;

/// Which direction of a participant's policy an operation targets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum PolicyScope {
    /// The participant's inbound (receiver-side, stage-2) policy.
    Inbound,
    /// The participant's outbound (sender-side, stage-1) policy.
    Outbound,
}

impl fmt::Display for PolicyScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyScope::Inbound => write!(f, "inbound"),
            PolicyScope::Outbound => write!(f, "outbound"),
        }
    }
}

/// One mutation of one participant's policy in one direction.
///
/// `Install` and `Replace` both leave `policy` in force; they differ only
/// in declared intent (an `Install` over an existing policy is accepted
/// and behaves as a replace — the delta is the unit of atomicity, not a
/// compare-and-swap).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PolicyOp {
    /// Install a policy where the participant had none.
    Install(Policy),
    /// Replace the participant's existing policy.
    Replace(Policy),
    /// Remove the participant's policy entirely.
    Retract,
}

impl PolicyOp {
    /// The policy this operation leaves in force, if any.
    pub fn policy(&self) -> Option<&Policy> {
        match self {
            PolicyOp::Install(p) | PolicyOp::Replace(p) => Some(p),
            PolicyOp::Retract => None,
        }
    }
}

/// One participant-scoped entry of a [`PolicyDelta`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyDeltaOp {
    /// Whose policy changes.
    pub participant: ParticipantId,
    /// Which direction.
    pub scope: PolicyScope,
    /// What happens to it.
    pub op: PolicyOp,
}

/// An ordered batch of policy mutations, applied atomically by the
/// controller: either every operation validates and the whole delta is
/// staged, or none is.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PolicyDelta {
    /// The operations, in application order (later ops to the same
    /// `(participant, scope)` win).
    pub ops: Vec<PolicyDeltaOp>,
}

impl PolicyDelta {
    /// An empty delta.
    pub fn new() -> Self {
        PolicyDelta::default()
    }

    /// Appends an outbound install (builder style).
    pub fn install_outbound(mut self, p: ParticipantId, policy: Policy) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Outbound,
            op: PolicyOp::Install(policy),
        });
        self
    }

    /// Appends an outbound replace.
    pub fn replace_outbound(mut self, p: ParticipantId, policy: Policy) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Outbound,
            op: PolicyOp::Replace(policy),
        });
        self
    }

    /// Appends an outbound retract.
    pub fn retract_outbound(mut self, p: ParticipantId) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Outbound,
            op: PolicyOp::Retract,
        });
        self
    }

    /// Appends an inbound install.
    pub fn install_inbound(mut self, p: ParticipantId, policy: Policy) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Inbound,
            op: PolicyOp::Install(policy),
        });
        self
    }

    /// Appends an inbound replace.
    pub fn replace_inbound(mut self, p: ParticipantId, policy: Policy) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Inbound,
            op: PolicyOp::Replace(policy),
        });
        self
    }

    /// Appends an inbound retract.
    pub fn retract_inbound(mut self, p: ParticipantId) -> Self {
        self.ops.push(PolicyDeltaOp {
            participant: p,
            scope: PolicyScope::Inbound,
            op: PolicyOp::Retract,
        });
        self
    }

    /// True when the delta carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Structural validation against the exchange's participant book.
    ///
    /// `has_participant` answers whether an id is enrolled;
    /// `has_port(owner, idx)` whether a physical port exists. Every
    /// operation's subject must be enrolled, and every port a new policy
    /// references — `fwd(...)` targets and `inport` tests alike — must
    /// resolve. The first offender is reported as a typed [`DslError`];
    /// nothing is applied on error (validation is read-only).
    pub fn validate(
        &self,
        has_participant: impl Fn(ParticipantId) -> bool,
        has_port: impl Fn(ParticipantId, u8) -> bool,
    ) -> Result<(), DslError> {
        let check_port = |port: PortId| -> Result<(), DslError> {
            match port {
                PortId::Virt(p) if !has_participant(p) => Err(DslError::UnknownParticipant(p)),
                PortId::Phys(owner, idx) if !has_port(owner, idx) => {
                    Err(DslError::UnresolvablePort(owner, idx))
                }
                _ => Ok(()),
            }
        };
        for op in &self.ops {
            if !has_participant(op.participant) {
                return Err(DslError::UnknownParticipant(op.participant));
            }
            if let Some(policy) = op.op.policy() {
                for port in referenced_ports(policy) {
                    check_port(port)?;
                }
            }
        }
        Ok(())
    }
}

/// Every port a policy references: `fwd` targets and `inport` tests.
pub fn referenced_ports(policy: &Policy) -> Vec<PortId> {
    let mut out = Vec::new();
    collect_policy_ports(policy, &mut out);
    out
}

fn collect_policy_ports(policy: &Policy, out: &mut Vec<PortId>) {
    match policy {
        Policy::Filter(pred) => collect_pred_ports(pred, out),
        Policy::Mod(Mod::SetLoc(p)) => out.push(*p),
        Policy::Mod(_) => {}
        Policy::Parallel(v) | Policy::Sequential(v) => {
            for c in v {
                collect_policy_ports(c, out);
            }
        }
        Policy::IfElse(pred, t, e) => {
            collect_pred_ports(pred, out);
            collect_policy_ports(t, out);
            collect_policy_ports(e, out);
        }
    }
}

fn collect_pred_ports(pred: &Pred, out: &mut Vec<PortId>) {
    match pred {
        Pred::Test(FieldMatch::InPort(p)) => out.push(*p),
        Pred::Test(_) | Pred::Any | Pred::None => {}
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_pred_ports(a, out);
            collect_pred_ports(b, out);
        }
        Pred::Not(a) => collect_pred_ports(a, out),
    }
}

/// Per-participant, per-direction policy version counters.
///
/// The *book* epoch covers structural mutations whose blast radius is the
/// whole exchange (enroll/remove a participant, global policy fragments);
/// the per-participant counters cover the common case — one participant
/// edits one policy — so caches keyed on these versions invalidate only
/// that participant's artifacts. A version never decreases; `0` means
/// "never touched".
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PolicyVersions {
    book: u64,
    outbound: BTreeMap<ParticipantId, u64>,
    inbound: BTreeMap<ParticipantId, u64>,
}

impl PolicyVersions {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        PolicyVersions::default()
    }

    /// The structural (whole-book) epoch.
    pub fn book(&self) -> u64 {
        self.book
    }

    /// A participant's outbound policy version.
    pub fn outbound_of(&self, p: ParticipantId) -> u64 {
        self.outbound.get(&p).copied().unwrap_or(0)
    }

    /// A participant's inbound policy version.
    pub fn inbound_of(&self, p: ParticipantId) -> u64 {
        self.inbound.get(&p).copied().unwrap_or(0)
    }

    /// Records a structural mutation (enroll/remove/global fragment).
    pub fn bump_book(&mut self) {
        self.book += 1;
    }

    /// Records an outbound policy change for `p`.
    pub fn bump_outbound(&mut self, p: ParticipantId) {
        *self.outbound.entry(p).or_insert(0) += 1;
    }

    /// Records an inbound policy change for `p`.
    pub fn bump_inbound(&mut self, p: ParticipantId) {
        *self.inbound.entry(p).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy as P;
    use sdx_net::{PortId, Prefix};

    fn pid(n: u32) -> ParticipantId {
        ParticipantId(n)
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().expect("test prefix")
    }

    #[test]
    fn versions_bump_independently() {
        let mut v = PolicyVersions::new();
        assert_eq!(
            (v.book(), v.outbound_of(pid(1)), v.inbound_of(pid(1))),
            (0, 0, 0)
        );
        v.bump_outbound(pid(1));
        v.bump_outbound(pid(1));
        v.bump_inbound(pid(2));
        v.bump_book();
        assert_eq!(v.outbound_of(pid(1)), 2);
        assert_eq!(v.inbound_of(pid(1)), 0);
        assert_eq!(v.inbound_of(pid(2)), 1);
        assert_eq!(v.outbound_of(pid(2)), 0);
        assert_eq!(v.book(), 1);
    }

    #[test]
    fn validate_rejects_unknown_participant() {
        let delta = PolicyDelta::new().retract_outbound(pid(9));
        let err = delta
            .validate(|p| p == pid(1), |_, _| true)
            .expect_err("unknown participant must be rejected");
        assert_eq!(err, DslError::UnknownParticipant(pid(9)));
        // Also via a policy that forwards to a stranger.
        let delta = PolicyDelta::new().install_outbound(pid(1), P::fwd(PortId::Virt(pid(7))));
        let err = delta
            .validate(|p| p == pid(1), |_, _| true)
            .expect_err("fwd target must be enrolled");
        assert_eq!(err, DslError::UnknownParticipant(pid(7)));
    }

    #[test]
    fn validate_rejects_unresolvable_port() {
        let delta = PolicyDelta::new().install_inbound(pid(1), P::fwd(PortId::Phys(pid(1), 5)));
        let err = delta
            .validate(|p| p == pid(1), |p, idx| p == pid(1) && idx < 2)
            .expect_err("physical port must exist");
        assert_eq!(err, DslError::UnresolvablePort(pid(1), 5));
    }

    #[test]
    fn validate_accepts_wellformed_delta() {
        let delta = PolicyDelta::new()
            .install_outbound(
                pid(1),
                P::match_(FieldMatch::NwDst(pfx("10.0.0.0/8"))) >> P::fwd(PortId::Virt(pid(2))),
            )
            .replace_inbound(pid(2), P::fwd(PortId::Phys(pid(2), 1)))
            .retract_outbound(pid(2));
        delta
            .validate(|p| p.0 <= 2, |_, idx| idx <= 1)
            .expect("well-formed delta validates");
    }
}
