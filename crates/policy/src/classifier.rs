//! Prioritized match-action classifiers and their composition.
//!
//! A [`Classifier`] is an ordered rule list with first-match semantics —
//! exactly an OpenFlow table with priorities, and exactly what the Pyretic
//! compiler produces. The two composition algorithms here are the engine of
//! the whole SDX compilation pipeline (§4 of the paper):
//!
//! * **parallel** (`p1 + p2`): the cross product of the two rule lists,
//!   intersecting matches and unioning action sets, ordered
//!   lexicographically by source rule indices — which preserves first-match
//!   semantics on both sides;
//! * **sequential** (`p1 >> p2`): for each rule of `p1` and each of its
//!   action branches, push the branch's modifications through `p2`'s rules
//!   via [`HeaderMatch::seq_compose`]; multicast branches are recombined by
//!   intersection.
//!
//! Both are quadratic in rule count — the cost that §4.3.1's optimizations
//! (skip disjoint pairs, memoize shared sub-policies) exist to avoid. Those
//! optimizations live in `sdx-core`; this module provides the honest
//! baseline they are measured against.
//!
//! Invariant: every classifier is *total* — its last rule matches every
//! packet (a wildcard drop is appended when needed). Totality is what makes
//! sequential composition complete, and it mirrors OpenFlow's table-miss
//! entry.

use core::fmt;
use std::sync::Arc;

use sdx_net::{HeaderMatch, LocatedPacket, Mod};

/// One output branch of a rule: apply `mods` in order, emit the packet.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Action {
    /// Modifications applied in order (may include `SetLoc` = output port).
    pub mods: Vec<Mod>,
}

impl Action {
    /// The identity action: emit the packet unmodified.
    pub fn id() -> Action {
        Action::default()
    }

    /// An action applying a single modification.
    pub fn of(m: Mod) -> Action {
        Action { mods: vec![m] }
    }

    /// Applies the action to produce the output packet.
    pub fn apply(&self, lp: &LocatedPacket) -> LocatedPacket {
        let mut out = *lp;
        for m in &self.mods {
            m.apply(&mut out);
        }
        out
    }

    /// This action followed by `then` (sequential fusion).
    pub fn then(&self, then: &Action) -> Action {
        let mut mods = self.mods.clone();
        mods.extend(then.mods.iter().copied());
        Action { mods }
    }
}

/// A prioritized rule: if the packet matches, apply every action (empty
/// action set = drop). The actions are shared, so a copy of a rule
/// allocates nothing: a compile copies the rules it did not have to derive
/// again from the pieces it keeps into the table it hands out.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The match pattern.
    pub matches: HeaderMatch,
    /// Output branches; empty = drop.
    pub actions: Arc<[Action]>,
}

impl Rule {
    /// A rule that drops matching packets.
    pub fn drop(matches: HeaderMatch) -> Rule {
        Rule {
            matches,
            actions: Arc::default(),
        }
    }

    /// A unicast rule with a single action.
    pub fn unicast(matches: HeaderMatch, action: Action) -> Rule {
        Rule {
            matches,
            actions: Arc::from([action]),
        }
    }

    /// True if the rule drops.
    pub fn is_drop(&self) -> bool {
        self.actions.is_empty()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_drop() {
            write!(f, "{:?} -> drop", self.matches)
        } else {
            write!(f, "{:?} -> {:?}", self.matches, self.actions)
        }
    }
}

/// An ordered, total rule list with first-match semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Classifier {
    rules: Vec<Rule>,
}

fn union_actions(a: &[Action], b: &[Action]) -> Arc<[Action]> {
    let mut out: Vec<Action> = a.to_vec();
    for act in b {
        if !out.contains(act) {
            out.push(act.clone());
        }
    }
    out.into()
}

impl Classifier {
    /// Builds a classifier, appending a wildcard drop if `rules` is not
    /// already total.
    pub fn from_rules(mut rules: Vec<Rule>) -> Classifier {
        let total = rules.last().is_some_and(|r| r.matches.is_wildcard());
        if !total {
            rules.push(Rule::drop(HeaderMatch::any()));
        }
        Classifier { rules }
    }

    /// The classifier that drops everything.
    pub fn drop_all() -> Classifier {
        Classifier::from_rules(Vec::new())
    }

    /// The identity classifier (one wildcard rule, identity action).
    pub fn id() -> Classifier {
        Classifier::from_rules(vec![Rule::unicast(HeaderMatch::any(), Action::id())])
    }

    /// The rules, in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Total number of rules, including the final catch-all.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// A classifier always has at least the catch-all rule.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of non-drop rules — the "forwarding rules" metric of
    /// Figures 7 and 9 (a switch's table-miss and drop entries are not
    /// forwarding state).
    pub fn forwarding_rule_count(&self) -> usize {
        self.rules.iter().filter(|r| !r.is_drop()).count()
    }

    /// First-match evaluation: the packets this classifier outputs for `lp`.
    pub fn evaluate(&self, lp: &LocatedPacket) -> Vec<LocatedPacket> {
        for r in &self.rules {
            if r.matches.matches(lp) {
                let mut out: Vec<LocatedPacket> = Vec::with_capacity(r.actions.len());
                for a in r.actions.iter() {
                    let o = a.apply(lp);
                    if !out.contains(&o) {
                        out.push(o);
                    }
                }
                return out;
            }
        }
        unreachable!("classifier invariant: total rule list");
    }

    /// Parallel composition: implements `p1 + p2` on compiled form.
    pub fn parallel(&self, other: &Classifier) -> Classifier {
        let mut rules = Vec::new();
        for r1 in &self.rules {
            for r2 in &other.rules {
                if let Some(m) = r1.matches.intersect(&r2.matches) {
                    rules.push(Rule {
                        matches: m,
                        actions: union_actions(&r1.actions, &r2.actions),
                    });
                }
            }
        }
        let mut c = Classifier::from_rules(rules);
        c.shadow_eliminate();
        c
    }

    /// Sequential composition: implements `p1 >> p2` on compiled form.
    pub fn sequential(&self, other: &Classifier) -> Classifier {
        let mut rules = Vec::new();
        for r1 in &self.rules {
            if r1.is_drop() {
                rules.push(r1.clone());
                continue;
            }
            // One sub-classifier per action branch, each total over r1.m.
            let branches: Vec<Vec<Rule>> = r1
                .actions
                .iter()
                .map(|a| {
                    let mut branch = Vec::new();
                    for r2 in &other.rules {
                        if let Some(m) = r1.matches.seq_compose(&a.mods, &r2.matches) {
                            branch.push(Rule {
                                matches: m,
                                actions: r2.actions.iter().map(|a2| a.then(a2)).collect(),
                            });
                        }
                    }
                    branch
                })
                .collect();
            // Recombine multicast branches by intersection (parallel-style).
            let combined = branches
                .into_iter()
                .reduce(|acc, branch| {
                    let mut out = Vec::new();
                    for ra in &acc {
                        for rb in &branch {
                            if let Some(m) = ra.matches.intersect(&rb.matches) {
                                out.push(Rule {
                                    matches: m,
                                    actions: union_actions(&ra.actions, &rb.actions),
                                });
                            }
                        }
                    }
                    out
                })
                .unwrap_or_default();
            rules.extend(combined);
        }
        let mut c = Classifier::from_rules(rules);
        c.shadow_eliminate();
        c
    }

    /// Removes rules that can never fire because an earlier rule's match
    /// subsumes theirs. Safe under first-match semantics; totality is
    /// restored afterwards if the catch-all itself was shadowed away.
    pub fn shadow_eliminate(&mut self) {
        let rules = std::mem::take(&mut self.rules);
        self.rules = unshadowed(rules.len(), rules, |r| &r.matches, |r| r);
    }

    /// The classifier that concatenating `segments` and
    /// [`shadow_eliminate`](Self::shadow_eliminate)-ing the result gives,
    /// copying only the rules that survive.
    pub fn concat_unshadowed<'r>(
        segments: impl IntoIterator<Item = &'r [Rule], IntoIter: Clone>,
    ) -> Classifier {
        let segments = segments.into_iter();
        let total = segments.clone().map(<[Rule]>::len).sum();
        let rules = segments.flatten();
        Classifier {
            rules: unshadowed(total, rules, |r| &r.matches, Rule::clone),
        }
    }
}

/// `rules` (`expected` of them) without those an earlier one shadows, each
/// kept one taken with `own`; a trailing run of drops is folded into the catch-all drop that
/// totality adds anyway (which keeps the drop fragments produced by
/// predicate compilation from snowballing through repeated composition).
///
/// A naive quadratic scan dominates compile time at SDX scale (tens of
/// thousands of rules), so kept rules are chained by their exact `dl_dst`
/// constraint — the VMAC tag that keys almost every SDX rule. A rule
/// constrained to `dl_dst = x` can only be shadowed by an earlier rule
/// with `dl_dst = x` or with `dl_dst` unconstrained, so only those two
/// chains are walked. (A shadowed rule need not be chained: whatever
/// shadows it shadows everything it would have.)
fn unshadowed<R>(
    expected: usize,
    rules: impl IntoIterator<Item = R>,
    matches: impl Fn(&R) -> &HeaderMatch,
    own: impl Fn(R) -> Rule,
) -> Vec<Rule> {
    use std::collections::hash_map::{Entry, HashMap};
    const END: u32 = u32::MAX;
    let mut kept: Vec<Rule> = Vec::with_capacity(expected);
    // Kept rule `i` is followed in its chain by kept rule `next[i]`.
    let mut next: Vec<u32> = Vec::with_capacity(expected);
    let mut untagged: u32 = END;
    let mut tagged: HashMap<sdx_net::MacAddr, u32> = HashMap::with_capacity(expected);
    let shadows = |kept: &[Rule], next: &[u32], mut at: u32, m: &HeaderMatch| {
        while at != END {
            if kept[at as usize].matches.subsumes(m) {
                return true;
            }
            at = next[at as usize];
        }
        false
    };
    for r in rules {
        let m = matches(&r);
        if shadows(&kept, &next, untagged, m) {
            continue;
        }
        let head = match m.dl_dst {
            None => &mut untagged,
            Some(tag) => match tagged.entry(tag) {
                Entry::Occupied(chain) => chain.into_mut(),
                Entry::Vacant(chain) => chain.insert(END),
            },
        };
        if m.dl_dst.is_some() && shadows(&kept, &next, *head, m) {
            continue;
        }
        next.push(*head);
        *head = kept.len() as u32;
        kept.push(own(r));
    }
    while kept.last().is_some_and(Rule::is_drop) {
        kept.pop();
    }
    if !kept.last().is_some_and(|r| r.matches.is_wildcard()) {
        kept.push(Rule::drop(HeaderMatch::any()));
    }
    kept
}

impl fmt::Display for Classifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "{i:4}: {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, prefix, FieldMatch, Packet, ParticipantId, PortId};

    fn port(n: u32) -> PortId {
        PortId::Virt(ParticipantId(n))
    }

    fn web_pkt() -> LocatedPacket {
        LocatedPacket::at(
            PortId::Phys(ParticipantId(1), 1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 999, 80),
        )
    }

    fn m(f: FieldMatch) -> HeaderMatch {
        HeaderMatch::of(f)
    }

    #[test]
    fn from_rules_appends_catchall() {
        let c = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::TpDst(80)),
            Action::of(Mod::SetLoc(port(2))),
        )]);
        assert_eq!(c.len(), 2);
        assert!(c.rules().last().unwrap().matches.is_wildcard());
        assert!(c.rules().last().unwrap().is_drop());
        assert_eq!(c.forwarding_rule_count(), 1);
    }

    #[test]
    fn evaluate_first_match_wins() {
        let c = Classifier::from_rules(vec![
            Rule::unicast(m(FieldMatch::TpDst(80)), Action::of(Mod::SetLoc(port(2)))),
            Rule::unicast(HeaderMatch::any(), Action::of(Mod::SetLoc(port(3)))),
        ]);
        assert_eq!(c.evaluate(&web_pkt())[0].loc, port(2));
        let mut ssh = web_pkt();
        ssh.pkt.tp_dst = 22;
        assert_eq!(c.evaluate(&ssh)[0].loc, port(3));
    }

    #[test]
    fn drop_all_drops() {
        assert!(Classifier::drop_all().evaluate(&web_pkt()).is_empty());
        assert_eq!(Classifier::id().evaluate(&web_pkt()), vec![web_pkt()]);
    }

    #[test]
    fn parallel_unions_actions() {
        let c1 = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::TpDst(80)),
            Action::of(Mod::SetLoc(port(2))),
        )]);
        let c2 = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::NwSrc(prefix("10.0.0.0/8"))),
            Action::of(Mod::SetLoc(port(3))),
        )]);
        let c = c1.parallel(&c2);
        // Web packet from 10/8 matches both: multicast to 2 and 3.
        let out = c.evaluate(&web_pkt());
        let locs: Vec<_> = out.iter().map(|o| o.loc).collect();
        assert_eq!(locs, vec![port(2), port(3)]);
        // Non-web from 10/8 → only port 3.
        let mut ssh = web_pkt();
        ssh.pkt.tp_dst = 22;
        assert_eq!(c.evaluate(&ssh)[0].loc, port(3));
        // Web from elsewhere → only port 2.
        let mut other = web_pkt();
        other.pkt.nw_src = ip("99.0.0.1");
        assert_eq!(c.evaluate(&other)[0].loc, port(2));
    }

    #[test]
    fn sequential_threads_mods() {
        // Stage 1: web → port 2. Stage 2: at port 2 → rewrite dst, port 4.
        let c1 = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::TpDst(80)),
            Action::of(Mod::SetLoc(port(2))),
        )]);
        let c2 = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::InPort(port(2))),
            Action {
                mods: vec![Mod::SetNwDst(ip("9.9.9.9")), Mod::SetLoc(port(4))],
            },
        )]);
        let c = c1.sequential(&c2);
        let out = c.evaluate(&web_pkt());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(4));
        assert_eq!(out[0].pkt.nw_dst, ip("9.9.9.9"));
        // Non-web is dropped in stage 1.
        let mut ssh = web_pkt();
        ssh.pkt.tp_dst = 22;
        assert!(c.evaluate(&ssh).is_empty());
    }

    #[test]
    fn sequential_multicast_branches() {
        // Multicast to ports 2 and 3; stage 2 forwards only port-2 arrivals.
        let c1 = Classifier::from_rules(vec![Rule {
            matches: HeaderMatch::any(),
            actions: Arc::from([
                Action::of(Mod::SetLoc(port(2))),
                Action::of(Mod::SetLoc(port(3))),
            ]),
        }]);
        let c2 = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::InPort(port(2))),
            Action::of(Mod::SetLoc(port(9))),
        )]);
        let c = c1.sequential(&c2);
        let out = c.evaluate(&web_pkt());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(9));
    }

    #[test]
    fn shadow_elimination_removes_dead_rules() {
        let mut c = Classifier::from_rules(vec![
            Rule::unicast(m(FieldMatch::TpDst(80)), Action::of(Mod::SetLoc(port(2)))),
            // Shadowed: strictly narrower than the rule above.
            Rule::unicast(
                m(FieldMatch::TpDst(80)).and(FieldMatch::TpSrc(9)),
                Action::of(Mod::SetLoc(port(3))),
            ),
        ]);
        c.shadow_eliminate();
        assert_eq!(c.forwarding_rule_count(), 1);
    }

    #[test]
    fn shadow_elimination_keeps_live_rules() {
        let mut c = Classifier::from_rules(vec![
            Rule::unicast(
                m(FieldMatch::TpDst(80)).and(FieldMatch::TpSrc(9)),
                Action::of(Mod::SetLoc(port(3))),
            ),
            Rule::unicast(m(FieldMatch::TpDst(80)), Action::of(Mod::SetLoc(port(2)))),
        ]);
        let before = c.len();
        c.shadow_eliminate();
        assert_eq!(c.len(), before, "narrow-then-wide must both survive");
    }

    #[test]
    fn action_then_fuses_mod_lists() {
        let a = Action::of(Mod::SetNwDst(ip("1.1.1.1")));
        let b = Action::of(Mod::SetLoc(port(5)));
        let ab = a.then(&b);
        let out = ab.apply(&web_pkt());
        assert_eq!(out.pkt.nw_dst, ip("1.1.1.1"));
        assert_eq!(out.loc, port(5));
    }

    #[test]
    fn parallel_identity_laws() {
        let c = Classifier::from_rules(vec![Rule::unicast(
            m(FieldMatch::TpDst(80)),
            Action::of(Mod::SetLoc(port(2))),
        )]);
        let with_drop = c.parallel(&Classifier::drop_all());
        // Same observable behaviour as c alone.
        let p = web_pkt();
        assert_eq!(with_drop.evaluate(&p), c.evaluate(&p));
    }
}
