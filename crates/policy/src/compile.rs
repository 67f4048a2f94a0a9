//! The policy compiler: AST → classifier.
//!
//! Follows the Pyretic compilation scheme:
//!
//! * predicates compile to *boolean classifiers* (rule → true/false), so
//!   negation is a rule-action flip instead of a DNF explosion;
//! * `+` and `>>` compile their children and compose the classifiers
//!   (see [`crate::classifier`]);
//! * `if_(p, a, b)` compiles as `(p >> a) + (!p >> b)` — the exact
//!   construction the SDX uses to hang default BGP forwarding beneath a
//!   participant's overrides (§4.1 of the paper).
//!
//! The compiler is deterministic and purely functional; the memoization
//! that §4.3.1 calls for happens one level up, in `sdx-core`, where the
//! same participant sub-policy is reused across many compositions.

use sdx_net::HeaderMatch;

use crate::classifier::{Action, Classifier, Rule};
use crate::policy::Policy;
use crate::pred::Pred;

/// A classifier whose "actions" are pass/block decisions.
#[derive(Clone, Debug)]
struct BoolClassifier {
    /// (match, passes) in priority order; total by construction.
    rules: Vec<(HeaderMatch, bool)>,
}

impl BoolClassifier {
    fn always(b: bool) -> Self {
        BoolClassifier {
            rules: vec![(HeaderMatch::any(), b)],
        }
    }

    fn negate(mut self) -> Self {
        for (_, b) in &mut self.rules {
            *b = !*b;
        }
        self
    }

    /// Cross-product combine with a boolean op (AND for `&`, OR for `|`).
    fn combine(&self, other: &Self, op: impl Fn(bool, bool) -> bool) -> Self {
        let mut rules = Vec::new();
        for (m1, b1) in &self.rules {
            for (m2, b2) in &other.rules {
                if let Some(m) = m1.intersect(m2) {
                    rules.push((m, op(*b1, *b2)));
                }
            }
        }
        // Shadow elimination keeps the cross product from snowballing.
        let mut kept: Vec<(HeaderMatch, bool)> = Vec::with_capacity(rules.len());
        for (m, b) in rules {
            if !kept.iter().any(|(k, _)| k.subsumes(&m)) {
                kept.push((m, b));
            }
        }
        BoolClassifier { rules: kept }
    }
}

fn compile_pred(pred: &Pred) -> BoolClassifier {
    match pred {
        Pred::Any => BoolClassifier::always(true),
        Pred::None => BoolClassifier::always(false),
        Pred::Test(f) => BoolClassifier {
            rules: vec![(HeaderMatch::of(*f), true), (HeaderMatch::any(), false)],
        },
        Pred::And(a, b) => compile_pred(a).combine(&compile_pred(b), |x, y| x && y),
        Pred::Or(a, b) => compile_pred(a).combine(&compile_pred(b), |x, y| x || y),
        Pred::Not(a) => compile_pred(a).negate(),
    }
}

fn filter_classifier(pred: &Pred) -> Classifier {
    let bc = compile_pred(pred);
    Classifier::from_rules(
        bc.rules
            .into_iter()
            .map(|(m, pass)| {
                if pass {
                    Rule::unicast(m, Action::id())
                } else {
                    Rule::drop(m)
                }
            })
            .collect(),
    )
}

/// If every branch classifier consists of forwarding rules followed only
/// by the catch-all drop, and no two forwarding rules from *different*
/// branches overlap, returns their concatenation; `None` otherwise.
///
/// Sound because for any packet at most one branch forwards it (cross-
/// branch disjointness), within-branch order is preserved, and a branch
/// with interior drop rules (which could shadow another branch's
/// forwarding region) disqualifies the whole shortcut.
fn concat_if_disjoint(branches: &[Classifier]) -> Option<Classifier> {
    let mut fwd: Vec<(usize, &Rule)> = Vec::new();
    for (i, c) in branches.iter().enumerate() {
        let rules = c.rules();
        let (last, body) = rules.split_last().expect("classifiers are total");
        if !(last.is_drop() && last.matches.is_wildcard()) {
            return None;
        }
        for r in body {
            if r.is_drop() {
                return None; // interior drop could shadow another branch
            }
            fwd.push((i, r));
        }
    }
    // Pairwise cross-branch disjointness.
    for (a, (ia, ra)) in fwd.iter().enumerate() {
        for (ib, rb) in fwd.iter().skip(a + 1) {
            if ia != ib && !ra.matches.disjoint(&rb.matches) {
                return None;
            }
        }
    }
    Some(Classifier::from_rules(
        fwd.into_iter().map(|(_, r)| r.clone()).collect(),
    ))
}

/// Compiles a policy to a total classifier.
pub fn compile(policy: &Policy) -> Classifier {
    match policy {
        Policy::Filter(pred) => {
            let mut c = filter_classifier(pred);
            c.shadow_eliminate();
            c
        }
        Policy::Mod(m) => {
            Classifier::from_rules(vec![Rule::unicast(HeaderMatch::any(), Action::of(*m))])
        }
        Policy::Parallel(ps) => {
            let branches: Vec<Classifier> = ps.iter().map(compile).collect();
            // §4.3.1: "most SDX policies are disjoint… the SDX controller
            // can simply apply the policies independently, as no packet
            // ever matches both." When every branch is a plain rule list
            // (no interior drops) and branches' forwarding rules are
            // pairwise disjoint, parallel composition is concatenation —
            // linear instead of a quadratic cross product per fold step.
            match concat_if_disjoint(&branches) {
                Some(c) => c,
                None => branches
                    .into_iter()
                    .reduce(|a, b| a.parallel(&b))
                    .unwrap_or_else(Classifier::drop_all),
            }
        }
        Policy::Sequential(ps) => ps
            .iter()
            .map(compile)
            .reduce(|a, b| a.sequential(&b))
            .unwrap_or_else(Classifier::id),
        Policy::IfElse(pred, then, otherwise) => {
            let p_then = Policy::filter(pred.clone()) >> (**then).clone();
            let p_else = Policy::filter(!pred.clone()) >> (**otherwise).clone();
            compile(&p_then).parallel(&compile(&p_else))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use sdx_net::{ip, prefix, FieldMatch, LocatedPacket, Mod, Packet, ParticipantId, PortId};

    fn port(n: u32) -> PortId {
        PortId::Virt(ParticipantId(n))
    }

    fn pkt(src: &str, dst: &str, tp_dst: u16) -> LocatedPacket {
        LocatedPacket::at(
            PortId::Phys(ParticipantId(1), 1),
            Packet::tcp(ip(src), ip(dst), 999, tp_dst),
        )
    }

    /// Differential check: compiled classifier ≡ interpreter on the samples.
    fn check(policy: &Policy, samples: &[LocatedPacket]) {
        let c = compile(policy);
        for s in samples {
            let direct = eval(policy, s);
            let compiled = c.evaluate(s);
            let mut d = direct.clone();
            let mut co = compiled.clone();
            d.sort_by_key(|p| format!("{p}"));
            co.sort_by_key(|p| format!("{p}"));
            assert_eq!(co, d, "mismatch on {s} for {policy:?}");
        }
    }

    fn samples() -> Vec<LocatedPacket> {
        vec![
            pkt("10.0.0.1", "20.0.0.1", 80),
            pkt("10.0.0.1", "20.0.0.1", 443),
            pkt("128.0.0.1", "30.0.0.1", 80),
            pkt("128.0.0.1", "40.0.0.1", 22),
            pkt("96.25.160.7", "74.125.1.1", 80),
        ]
    }

    #[test]
    fn compile_filters() {
        check(&Policy::id(), &samples());
        check(&Policy::drop(), &samples());
        check(&Policy::match_(FieldMatch::TpDst(80)), &samples());
    }

    #[test]
    fn compile_negation() {
        let p = Policy::filter(!Pred::Test(FieldMatch::TpDst(80)));
        check(&p, &samples());
    }

    #[test]
    fn compile_boolean_structure() {
        let pred = (Pred::Test(FieldMatch::TpDst(80)) | Pred::Test(FieldMatch::TpDst(443)))
            & !Pred::Test(FieldMatch::NwSrc(prefix("128.0.0.0/1")));
        check(&Policy::filter(pred), &samples());
    }

    #[test]
    fn compile_paper_outbound_policy() {
        // AS A, Figure 1a.
        let p = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(3)));
        check(&p, &samples());
    }

    #[test]
    fn compile_paper_inbound_policy() {
        // AS B, Figure 1a: split by source half of the address space.
        let b1 = PortId::Phys(ParticipantId(2), 1);
        let b2 = PortId::Phys(ParticipantId(2), 2);
        let p = (Policy::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1"))) >> Policy::fwd(b1))
            + (Policy::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1"))) >> Policy::fwd(b2));
        check(&p, &samples());
    }

    #[test]
    fn compile_load_balancer() {
        // §3.1 wide-area server load balancing policy.
        let p = Policy::match_(FieldMatch::NwDst(prefix("74.125.1.1/32")))
            >> ((Policy::match_(FieldMatch::NwSrc(prefix("96.25.160.0/24")))
                >> Policy::modify(Mod::SetNwDst(ip("74.125.224.161"))))
                + (Policy::match_(FieldMatch::NwSrc(prefix("128.125.163.0/24")))
                    >> Policy::modify(Mod::SetNwDst(ip("74.125.137.139")))));
        check(&p, &samples());
    }

    #[test]
    fn compile_if_else() {
        let p = Policy::if_(
            Pred::Test(FieldMatch::TpDst(80)),
            Policy::fwd(port(2)),
            Policy::fwd(port(3)),
        );
        check(&p, &samples());
        // if_ must be total: every sample produces exactly one output.
        let c = compile(&p);
        for s in samples() {
            assert_eq!(c.evaluate(&s).len(), 1);
        }
    }

    #[test]
    fn compile_multicast() {
        let p = Policy::fwd(port(2)) + Policy::fwd(port(3));
        check(&p, &samples());
    }

    #[test]
    fn compile_sequential_modify_then_match() {
        // Rewrite then match on the rewritten value (exercises seq_compose).
        let p = Policy::modify(Mod::SetNwDst(ip("50.0.0.1")))
            >> Policy::match_(FieldMatch::NwDst(prefix("50.0.0.0/8")))
            >> Policy::fwd(port(7));
        check(&p, &samples());
        let c = compile(&p);
        assert_eq!(c.evaluate(&pkt("1.1.1.1", "2.2.2.2", 9))[0].loc, port(7));
    }

    #[test]
    fn empty_parallel_is_drop_empty_sequential_is_id() {
        assert!(Classifier::drop_all()
            .evaluate(&pkt("1.1.1.1", "2.2.2.2", 9))
            .is_empty());
        check(&Policy::Parallel(vec![]), &samples());
        check(&Policy::Sequential(vec![]), &samples());
    }

    #[test]
    fn rule_counts_are_modest_for_disjoint_policies() {
        // Two disjoint port-based branches compile to 2 forwarding rules.
        let p = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(port(3)));
        let c = compile(&p);
        assert_eq!(c.forwarding_rule_count(), 2);
    }
}
