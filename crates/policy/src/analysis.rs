//! Static analysis over compiled policies.
//!
//! The SDX controller asks three questions about a participant's policy
//! before accepting it: *where can it forward?* (targets feed the
//! composition pruning of §4.3.1), *what does it match?* (the match union
//! feeds the `if_` default-splicing of §4.1), and *is it unicast?* (the
//! restriction §4.3.1 assumes). All three are answered on the compiled
//! classifier, so they hold for whatever surface syntax produced it.

use std::collections::BTreeSet;

use sdx_net::{HeaderMatch, Mod, PortId};

use crate::classifier::Classifier;
use crate::compile;
use crate::policy::Policy;

/// The set of ports a policy can forward packets to.
pub fn fwd_targets(policy: &Policy) -> BTreeSet<PortId> {
    targets_of(&compile::compile(policy))
}

/// The forwarding targets of an already-compiled classifier.
pub fn targets_of(classifier: &Classifier) -> BTreeSet<PortId> {
    let mut out = BTreeSet::new();
    for rule in classifier.rules() {
        for action in rule.actions.iter() {
            if let Some(p) = action.mods.iter().rev().find_map(|m| match m {
                Mod::SetLoc(p) => Some(*p),
                _ => None,
            }) {
                out.insert(p);
            }
        }
    }
    out
}

/// The match union: every header-space cube on which the policy takes a
/// non-drop action. This is the predicate the SDX combines with `if_` to
/// decide "policy applies here, default BGP everywhere else" (§4.1).
pub fn match_union(policy: &Policy) -> Vec<HeaderMatch> {
    compile::compile(policy)
        .rules()
        .iter()
        .filter(|r| !r.is_drop())
        .map(|r| r.matches)
        .collect()
}

/// True when no rule of the compiled policy multicasts — the §4.3.1
/// assumption for outbound policies.
pub fn is_unicast(policy: &Policy) -> bool {
    compile::compile(policy)
        .rules()
        .iter()
        .all(|r| r.actions.len() <= 1)
}

/// Rules of `b` that can never fire when `a` is installed above it —
/// conflict diagnostics for participants layering policy fragments.
pub fn shadowed_by(a: &Policy, b: &Policy) -> Vec<HeaderMatch> {
    let ca = compile::compile(a);
    let cb = compile::compile(b);
    let mut out = Vec::new();
    for rb in cb.rules().iter().filter(|r| !r.is_drop()) {
        let covered = ca
            .rules()
            .iter()
            .filter(|ra| !ra.is_drop())
            .any(|ra| ra.matches.subsumes(&rb.matches));
        if covered {
            out.push(rb.matches);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{prefix, FieldMatch, ParticipantId};

    fn port(n: u32) -> PortId {
        PortId::Virt(ParticipantId(n))
    }

    #[test]
    fn targets_collects_all_fwds() {
        let p = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(3)));
        let t = fwd_targets(&p);
        assert_eq!(t, BTreeSet::from([port(2), port(3)]));
        assert!(fwd_targets(&Policy::drop()).is_empty());
    }

    #[test]
    fn match_union_covers_exactly_the_action_space() {
        let p = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(3)));
        let u = match_union(&p);
        assert_eq!(u.len(), 2);
        assert!(u.iter().any(|m| m.tp_dst == Some(80)));
        assert!(u.iter().any(|m| m.tp_dst == Some(443)));
        assert!(match_union(&Policy::drop()).is_empty());
    }

    #[test]
    fn unicast_detection() {
        let uni = Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2));
        assert!(is_unicast(&uni));
        let multi = Policy::fwd(port(2)) + Policy::fwd(port(3));
        assert!(!is_unicast(&multi));
    }

    #[test]
    fn shadow_diagnostics() {
        // a: all web traffic → 2. b: web traffic from 10/8 → 3 (shadowed).
        let a = Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2));
        let b = Policy::filter(
            crate::pred::Pred::Test(FieldMatch::TpDst(80))
                & crate::pred::Pred::Test(FieldMatch::NwSrc(prefix("10.0.0.0/8"))),
        ) >> Policy::fwd(port(3));
        let shadowed = shadowed_by(&a, &b);
        assert_eq!(shadowed.len(), 1);
        // The reverse is not shadowed (b is narrower than a).
        assert!(shadowed_by(&b, &a).is_empty());
    }
}
