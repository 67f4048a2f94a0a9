//! Static analysis over compiled policies: *where can a policy forward?*
//! The answer is read off the compiled classifier, so it holds for
//! whatever surface syntax produced it.

use std::collections::BTreeSet;

use sdx_net::{Mod, PortId};

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

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, ParticipantId};

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
}
