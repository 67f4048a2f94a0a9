//! The §4.1 policy transformations, applied at the classifier level.
//!
//! The paper's pipeline transforms each participant's abstract policy in
//! four steps: (1) isolation to its virtual switch, (2) restriction to
//! BGP-consistent forwarding, (3) defaulting to the best BGP route, and
//! (4) composition across the virtual topology. We implement the steps on
//! *compiled classifiers* rather than policy trees: a compiled rule exposes
//! exactly the destination constraint and forwarding target the BGP-
//! consistency and FEC machinery needs, with no normal-form assumptions
//! about how the participant wrote the policy.
//!
//! Key encoding fact used throughout (see [`crate::fec`]): VMACs are
//! globally unique per (viewer, group), and only the viewer's own border
//! router ever tags packets with its groups' VMACs — so rules matching a
//! VMAC need **no in-port isolation**. Only rules that cannot be expressed
//! through the VMAC tag (physical-port steering to middleboxes) are
//! isolated by explicit in-port matches, duplicated per physical port.

use std::collections::BTreeMap;

use sdx_net::{FieldMatch, HeaderMatch, MacAddr, Mod, ParticipantId, PortId, Prefix};
use sdx_policy::classifier::{Action, Classifier, Rule};

use crate::fec::FecGroup;
use crate::participant::ParticipantConfig;

/// Errors raised while transforming participant policies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TransformError {
    /// An outbound rule multicasts; the SDX optimizes for unicast outbound
    /// policies (§4.3.1) and rejects multicast ones at installation time.
    MulticastOutbound(ParticipantId),
    /// An inbound rule forwards to a port the participant does not own —
    /// an isolation violation.
    InboundEscapesSwitch(ParticipantId, PortId),
    /// An outbound rule matches on a port outside the writer's switch.
    MatchOutsideSwitch(ParticipantId, PortId),
    /// An inbound rule forwards to a nonexistent local port index.
    NoSuchPort(ParticipantId, u8),
}

impl core::fmt::Display for TransformError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransformError::MulticastOutbound(p) => {
                write!(f, "{p}: multicast outbound policies are not supported")
            }
            TransformError::InboundEscapesSwitch(p, port) => {
                write!(
                    f,
                    "{p}: inbound policy forwards outside its switch ({port})"
                )
            }
            TransformError::MatchOutsideSwitch(p, port) => {
                write!(f, "{p}: policy matches traffic outside its switch ({port})")
            }
            TransformError::NoSuchPort(p, idx) => {
                write!(f, "{p}: no physical port with index {idx}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

/// One outbound forwarding clause extracted from a compiled policy:
/// `matches → forward to target` (unicast).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FwdRule {
    /// The match constraint as the participant wrote it (pre-BGP).
    pub matches: HeaderMatch,
    /// Modifications the rule applies before forwarding (e.g. a dst-IP
    /// rewrite for the load-balancing application).
    pub mods: Vec<Mod>,
    /// Where the traffic goes: a peer's virtual switch, a specific
    /// physical port (middlebox steering), or `None` — "follow BGP for the
    /// (possibly rewritten) destination", the paper's load-balancer idiom
    /// `match(...) >> mod(dstip=...)` with no explicit `fwd`.
    pub target: Option<PortId>,
}

impl FwdRule {
    /// The destination-address rewrite this rule applies, if any (the
    /// last `SetNwDst` in its modification list).
    pub fn rewritten_dst(&self) -> Option<sdx_net::Ipv4Addr> {
        self.mods.iter().rev().find_map(|m| match m {
            Mod::SetNwDst(a) => Some(*a),
            _ => None,
        })
    }
}

/// Extracts the forwarding clauses of a compiled outbound policy, in
/// priority order, validating isolation and the unicast restriction.
/// Drop rules are skipped: under the paper's `if_` construction, traffic a
/// policy does not forward falls through to default BGP forwarding.
pub fn outbound_fwd_rules(
    writer: ParticipantId,
    compiled: &Classifier,
) -> Result<Vec<FwdRule>, TransformError> {
    let mut out = Vec::new();
    for rule in compiled.rules() {
        if rule.is_drop() {
            continue;
        }
        if rule.actions.len() > 1 {
            return Err(TransformError::MulticastOutbound(writer));
        }
        if let Some(port) = rule.matches.in_port {
            if !crate::vswitch::may_reference(writer, port, true) {
                return Err(TransformError::MatchOutsideSwitch(writer, port));
            }
        }
        let action = &rule.actions[0];
        let target = action.mods.iter().rev().find_map(|m| match m {
            Mod::SetLoc(p) => Some(*p),
            _ => None,
        });
        let mods: Vec<Mod> = action
            .mods
            .iter()
            .copied()
            .filter(|m| !matches!(m, Mod::SetLoc(_)))
            .collect();
        out.push(FwdRule {
            matches: rule.matches,
            mods,
            target,
        });
    }
    Ok(out)
}

/// Does `rule` apply to (traffic destined into) `prefix`?
/// `Full` when the rule's destination constraint covers the whole prefix
/// (the constraint can then be replaced by the VMAC tag), `Partial` when it
/// overlaps a sub-range (the constraint must be kept alongside the tag).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Coverage {
    /// The rule does not touch the prefix.
    None,
    /// The rule covers part of the prefix.
    Partial,
    /// The rule covers the entire prefix.
    Full,
}

/// Classifies how a rule's `nw_dst` constraint covers an announced prefix.
pub fn dst_coverage(matches: &HeaderMatch, prefix: Prefix) -> Coverage {
    match matches.nw_dst {
        None => Coverage::Full,
        Some(m) if m.covers(prefix) => Coverage::Full,
        Some(m) if prefix.covers(m) => Coverage::Partial,
        Some(_) => Coverage::None,
    }
}

/// Expands one outbound forwarding rule over the viewer's FEC groups:
/// for every group wholly inside the rule's affected set, emit a rule
/// matching the group's VMAC (destination-prefix constraint dropped when
/// the rule covers the whole group, kept when partial).
///
/// `affected(at)` says whether `groups[at]` lies inside this rule's
/// BGP-filtered destination set; `partial(at)` whether any member prefix
/// is only partially covered.
pub fn expand_fwd_rule(
    rule: &FwdRule,
    target: PortId,
    groups: &[FecGroup],
    affected: impl Fn(usize) -> bool,
    partial: impl Fn(usize) -> bool,
) -> Vec<Rule> {
    let mut out = Vec::new();
    for (at, g) in groups.iter().enumerate() {
        if !affected(at) {
            continue;
        }
        let mut m = rule.matches;
        if !partial(at) {
            m.nw_dst = None; // the VMAC tag subsumes the destination match
        }
        m.set(FieldMatch::DlDst(g.vmac));
        // The VMAC implies the sender, so no isolation in-port is *added*;
        // a port the participant matched on itself (steering keyed on the
        // port a middlebox re-sends from) is preserved.
        if rule.matches.in_port.is_none() {
            m.in_port = None;
        }
        let mut mods = rule.mods.clone();
        mods.push(Mod::SetLoc(target));
        out.push(Rule::unicast(m, Action { mods }));
    }
    out
}

/// Builds the viewer's stage-1 default rules: one per FEC group, matching
/// the group's VMAC and forwarding to the group's default next hop (drop
/// if no route remains). These sit *below* the policy rules, realizing the
/// paper's `if_(policy matches, policy, default)`.
pub fn default_stage1_rules(groups: &[FecGroup]) -> Vec<Rule> {
    groups
        .iter()
        .map(|g| {
            let m = HeaderMatch::of(FieldMatch::DlDst(g.vmac));
            match g.default_next_hop {
                Some(nh) => Rule::unicast(m, Action::of(Mod::SetLoc(PortId::Virt(nh)))),
                None => Rule::drop(m),
            }
        })
        .collect()
}

/// One participant's share of the global MAC-"learning" default rules
/// (§4.1): traffic whose destination MAC is one of its ports' physical
/// MACs goes to its virtual switch. These carry the default forwarding of
/// every prefix the SDX left untouched (the route server re-advertised it
/// with the real next hop). Sender-independent, hence un-isolated.
pub fn mac_default_rules(cfg: &ParticipantConfig) -> Vec<Rule> {
    (cfg.ports.iter())
        .map(|port| {
            Rule::unicast(
                HeaderMatch::of(FieldMatch::DlDst(port.mac)),
                Action::of(Mod::SetLoc(PortId::Virt(cfg.id))),
            )
        })
        .collect()
}

/// A participant's stage-2 block with its rules indexed by the `dl_dst`
/// they match, so composing a stage-1 rule with it reads only the rules
/// the stage-1 rule's tag can reach — a block holds one delivery rule per
/// VMAC deliverable to the participant, and a tagged stage-1 rule meets
/// exactly one of them. Derefs to the block's [`Classifier`].
#[derive(Clone, Debug)]
pub struct Block {
    classifier: Classifier,
    /// Positions of the rules that match any `dl_dst`, ascending.
    untagged: Vec<u32>,
    /// `(dl_dst, position)` of the rules that match one, sorted.
    tagged: Vec<(MacAddr, u32)>,
}

impl Block {
    /// Indexes `classifier`.
    pub fn new(classifier: Classifier) -> Block {
        let mut untagged = Vec::new();
        let mut tagged = Vec::new();
        for (at, rule) in classifier.rules().iter().enumerate() {
            match rule.matches.dl_dst {
                None => untagged.push(at as u32),
                Some(tag) => tagged.push((tag, at as u32)),
            }
        }
        tagged.sort_unstable();
        Block {
            classifier,
            untagged,
            tagged,
        }
    }

    /// The rules a packet whose `dl_dst` is known to be `tag` can match
    /// (all of them for `None`: nothing is known), in block order.
    fn reachable(&self, tag: Option<MacAddr>) -> impl Iterator<Item = &Rule> + '_ {
        let rules = self.classifier.rules();
        // With a tag: the positions matching any `dl_dst` merged with the
        // tag's own, both ascending. Without: every position.
        let (mut open, mut same, mut all): (&[u32], &[(MacAddr, u32)], _) = match tag {
            Some(tag) => {
                let from = self.tagged.partition_point(|&(t, _)| t < tag);
                let upto = self.tagged.partition_point(|&(t, _)| t <= tag);
                (&self.untagged, &self.tagged[from..upto], 0..0)
            }
            None => (&[], &[], 0..rules.len()),
        };
        std::iter::from_fn(move || {
            let at = match (open.first(), same.first()) {
                (Some(&o), Some(&(_, s))) if o < s => {
                    open = &open[1..];
                    o as usize
                }
                (_, Some(&(_, s))) => {
                    same = &same[1..];
                    s as usize
                }
                (Some(&o), None) => {
                    open = &open[1..];
                    o as usize
                }
                (None, None) => all.next()?,
            };
            Some(&rules[at])
        })
    }
}

impl std::ops::Deref for Block {
    type Target = Classifier;
    fn deref(&self) -> &Classifier {
        &self.classifier
    }
}

/// Builds participant `cfg`'s stage-2 block: its (isolated, MAC-rewriting)
/// inbound policy rules above the delivery defaults.
///
/// * `inbound` — the compiled raw inbound policy, or `None`;
/// * `deliverable_vmacs` — the VMAC tags whose traffic can arrive at this
///   participant (its own groups' defaults plus peers' policy targets);
///   each needs a delivery rule rewriting the tag to a physical MAC;
/// * `foreign_mac` — resolves `(participant, port index)` to that port's
///   MAC for *middlebox steering*: an inbound policy may divert arriving
///   traffic to another participant's physical port (the paper's
///   `fwd(E1)` redirection, §3.2), though never to a peer's virtual
///   switch.
pub fn stage2_block(
    cfg: &ParticipantConfig,
    inbound: Option<&Classifier>,
    deliverable_vmacs: &[MacAddr],
    foreign_mac: &dyn Fn(ParticipantId, u8) -> Option<MacAddr>,
) -> Result<Block, TransformError> {
    let me = cfg.id;
    let ingress = FieldMatch::InPort(PortId::Virt(me));
    let mut rules = Vec::new();

    // Inbound policy rules: isolate to the participant's virtual ingress,
    // rewrite the destination MAC to the chosen physical port's.
    if let Some(c) = inbound {
        for r in c.rules() {
            if r.is_drop() {
                continue; // unfiltered traffic falls through to delivery
            }
            if let Some(port) = r.matches.in_port {
                if !crate::vswitch::may_reference(me, port, true) {
                    return Err(TransformError::MatchOutsideSwitch(me, port));
                }
            }
            let mut actions = Vec::with_capacity(r.actions.len());
            for a in r.actions.iter() {
                let target = a.mods.iter().rev().find_map(|m| match m {
                    Mod::SetLoc(p) => Some(*p),
                    _ => None,
                });
                let Some(PortId::Phys(owner, idx)) = target else {
                    let bad = target.unwrap_or(PortId::Virt(me));
                    return Err(TransformError::InboundEscapesSwitch(me, bad));
                };
                // Own port: normal delivery. Foreign physical port:
                // middlebox steering (allowed; matching there is not).
                let mac = if owner == me {
                    cfg.port_mac(idx)
                        .ok_or(TransformError::NoSuchPort(me, idx))?
                } else {
                    foreign_mac(owner, idx).ok_or(TransformError::NoSuchPort(owner, idx))?
                };
                let mut mods: Vec<Mod> = a
                    .mods
                    .iter()
                    .copied()
                    .filter(|m| !matches!(m, Mod::SetLoc(_)))
                    .collect();
                mods.push(Mod::SetDlDst(mac));
                mods.push(Mod::SetLoc(PortId::Phys(owner, idx)));
                actions.push(Action { mods });
            }
            rules.push(Rule {
                matches: r.matches.and(ingress),
                actions: actions.into(),
            });
        }
    }

    // Delivery defaults: physical-MAC traffic out the matching port…
    for port in &cfg.ports {
        rules.push(Rule::unicast(
            HeaderMatch::of(ingress).and(FieldMatch::DlDst(port.mac)),
            Action::of(Mod::SetLoc(PortId::Phys(me, port.index))),
        ));
    }
    // …and VMAC-tagged traffic rewritten to the primary port's MAC.
    let primary = cfg.primary_port();
    for &vmac in deliverable_vmacs {
        rules.push(Rule::unicast(
            HeaderMatch::of(ingress).and(FieldMatch::DlDst(vmac)),
            Action {
                mods: vec![
                    Mod::SetDlDst(primary.mac),
                    Mod::SetLoc(PortId::Phys(me, primary.index)),
                ],
            },
        ));
    }

    Ok(Block::new(Classifier::from_rules(rules)))
}

/// Optimized virtual-topology composition (§4.3.1): each stage-1 rule is
/// sequentially composed *only* with the stage-2 block of the participant
/// it forwards to, instead of with the sum of every participant's policy.
/// Rule order — and therefore first-match semantics — is preserved by
/// emitting composition results in stage-1 rule order.
pub fn compose_optimized(stage1: &[Rule], blocks: &BTreeMap<ParticipantId, Block>) -> Classifier {
    let rules = stage1
        .iter()
        .flat_map(|r1| compose_rule(r1, compose_receiver(r1).and_then(|r| blocks.get(&r))))
        .collect();
    let mut c = Classifier::from_rules(rules);
    c.shadow_eliminate();
    c
}

/// The stage-2 receiver a stage-1 rule forwards to, if any.
///
/// Unicast stage-1 rules by construction (multicast outbound is rejected
/// earlier; defaults and MAC rules are unicast).
pub fn compose_receiver(r1: &Rule) -> Option<ParticipantId> {
    if r1.is_drop() {
        return None;
    }
    r1.actions[0].mods.iter().rev().find_map(|m| match m {
        Mod::SetLoc(PortId::Virt(p)) => Some(*p),
        _ => None,
    })
}

/// Composes one stage-1 rule with `block`, the stage-2 block of the
/// participant [`compose_receiver`] says it forwards to (`None`: that
/// participant has none). The compositions of consecutive stage-1 rules,
/// concatenated, are the composition of the run — which is what lets a
/// compile keep those whose rule and block did not move.
pub fn compose_rule(r1: &Rule, block: Option<&Block>) -> Vec<Rule> {
    if compose_receiver(r1).is_none() {
        // Drop rule, or already at a physical location (port steering):
        // emit unchanged.
        return vec![r1.clone()];
    }
    let Some(block) = block else {
        // Forwarding to a participant with no stage-2 block: drop.
        return vec![Rule::drop(r1.matches)];
    };
    let a = &r1.actions[0];
    // What the packet's `dl_dst` is when it reaches the block, if known.
    let rewritten = a.mods.iter().rev().find_map(|m| match m {
        Mod::SetDlDst(mac) => Some(*mac),
        _ => None,
    });
    let mut rules = Vec::new();
    for r2 in block.reachable(rewritten.or(r1.matches.dl_dst)) {
        if let Some(m) = r1.matches.seq_compose(&a.mods, &r2.matches) {
            rules.push(Rule {
                matches: m,
                actions: r2.actions.iter().map(|a2| a.then(a2)).collect(),
            });
        }
    }
    rules
}

/// The composition §4.3.1 optimizes away, kept as the reference the
/// optimized one is tested against: the full sequential cross product of
/// the summed stages, as if every pair of participants exchanged traffic.
#[cfg(test)]
pub(crate) fn compose_naive(
    stage1: Vec<Rule>,
    blocks: &BTreeMap<ParticipantId, Block>,
) -> Classifier {
    let stage2_all = Classifier::from_rules(
        blocks
            .values()
            .flat_map(|b| b.rules().iter().cloned())
            .filter(|r| !r.matches.is_wildcard() || !r.is_drop())
            .collect(),
    );
    Classifier::from_rules(stage1).sequential(&stage2_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fec::{FecGroup, FecId};
    use sdx_net::{ip, prefix, Ipv4Addr};
    use sdx_policy::{compile, Policy};

    fn pid(n: u32) -> ParticipantId {
        ParticipantId(n)
    }

    fn group(id: u32, viewer: u32, prefixes: &[&str], nh: Option<u32>) -> FecGroup {
        FecGroup {
            id: FecId(id),
            viewer: pid(viewer),
            prefixes: prefixes.iter().map(|s| prefix(s)).collect(),
            vnh: Ipv4Addr::new(172, 16, 128, id as u8),
            vmac: MacAddr::vmac(id),
            default_next_hop: nh.map(pid),
        }
    }

    #[test]
    fn outbound_extraction_orders_and_filters() {
        let pol = (Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(PortId::Virt(pid(2))))
            + (Policy::match_(FieldMatch::TpDst(443)) >> Policy::fwd(PortId::Virt(pid(3))));
        let rules = outbound_fwd_rules(pid(1), &compile(&pol)).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].target, Some(PortId::Virt(pid(2))));
        assert_eq!(rules[0].matches.tp_dst, Some(80));
        assert_eq!(rules[1].target, Some(PortId::Virt(pid(3))));
        assert!(rules[0].mods.is_empty());
    }

    #[test]
    fn outbound_extraction_keeps_rewrites() {
        let pol = Policy::match_(FieldMatch::NwDst(prefix("74.125.1.1/32")))
            >> Policy::modify(Mod::SetNwDst(ip("74.125.224.161")))
            >> Policy::fwd(PortId::Virt(pid(2)));
        let rules = outbound_fwd_rules(pid(1), &compile(&pol)).unwrap();
        assert_eq!(rules[0].mods, vec![Mod::SetNwDst(ip("74.125.224.161"))]);
    }

    #[test]
    fn outbound_multicast_rejected() {
        let pol = Policy::fwd(PortId::Virt(pid(2))) + Policy::fwd(PortId::Virt(pid(3)));
        assert_eq!(
            outbound_fwd_rules(pid(1), &compile(&pol)),
            Err(TransformError::MulticastOutbound(pid(1)))
        );
    }

    #[test]
    fn outbound_match_on_foreign_port_rejected() {
        let pol = Policy::match_(FieldMatch::InPort(PortId::Phys(pid(2), 1)))
            >> Policy::fwd(PortId::Virt(pid(3)));
        assert!(matches!(
            outbound_fwd_rules(pid(1), &compile(&pol)),
            Err(TransformError::MatchOutsideSwitch(..))
        ));
    }

    #[test]
    fn coverage_classification() {
        let full = HeaderMatch::of(FieldMatch::NwDst(prefix("10.0.0.0/8")));
        assert_eq!(dst_coverage(&full, prefix("10.1.0.0/16")), Coverage::Full);
        assert_eq!(dst_coverage(&full, prefix("10.0.0.0/8")), Coverage::Full);
        assert_eq!(dst_coverage(&full, prefix("0.0.0.0/4")), Coverage::Partial);
        assert_eq!(dst_coverage(&full, prefix("11.0.0.0/8")), Coverage::None);
        assert_eq!(
            dst_coverage(&HeaderMatch::any(), prefix("11.0.0.0/8")),
            Coverage::Full
        );
    }

    #[test]
    fn expansion_replaces_dst_with_vmac() {
        let rule = FwdRule {
            matches: HeaderMatch::of(FieldMatch::TpDst(80))
                .and(FieldMatch::NwDst(prefix("0.0.0.0/0"))),
            mods: vec![],
            target: Some(PortId::Virt(pid(2))),
        };
        let groups = vec![
            group(1, 1, &["10.0.0.0/8"], Some(3)),
            group(2, 1, &["20.0.0.0/8"], Some(3)),
        ];
        let expanded = expand_fwd_rule(&rule, PortId::Virt(pid(2)), &groups, |_| true, |_| false);
        assert_eq!(expanded.len(), 2);
        for (r, g) in expanded.iter().zip(&groups) {
            assert_eq!(r.matches.dl_dst, Some(g.vmac));
            assert_eq!(r.matches.nw_dst, None, "dst subsumed by the tag");
            assert_eq!(r.matches.tp_dst, Some(80));
            assert_eq!(r.matches.in_port, None, "no isolation needed");
        }
    }

    #[test]
    fn expansion_keeps_partial_dst() {
        let rule = FwdRule {
            matches: HeaderMatch::of(FieldMatch::NwDst(prefix("10.0.0.0/9"))),
            mods: vec![],
            target: Some(PortId::Virt(pid(2))),
        };
        let groups = vec![group(1, 1, &["10.0.0.0/8"], Some(3))];
        let expanded = expand_fwd_rule(&rule, PortId::Virt(pid(2)), &groups, |_| true, |_| true);
        assert_eq!(expanded[0].matches.nw_dst, Some(prefix("10.0.0.0/9")));
        assert_eq!(expanded[0].matches.dl_dst, Some(MacAddr::vmac(1)));
    }

    #[test]
    fn default_rules_follow_group_next_hop() {
        let groups = vec![
            group(1, 1, &["10.0.0.0/8"], Some(3)),
            group(2, 1, &["20.0.0.0/8"], None),
        ];
        let rules = default_stage1_rules(&groups);
        assert_eq!(rules.len(), 2);
        assert_eq!(
            rules[0].actions[0].mods,
            vec![Mod::SetLoc(PortId::Virt(pid(3)))]
        );
        assert!(rules[1].is_drop(), "routeless group drops");
    }

    #[test]
    fn mac_defaults_cover_every_port() {
        let mut parts = BTreeMap::new();
        parts.insert(pid(1), ParticipantConfig::new(1, 65001, 2));
        parts.insert(pid(2), ParticipantConfig::new(2, 65002, 1));
        let rules: Vec<Rule> = parts.values().flat_map(mac_default_rules).collect();
        assert_eq!(rules.len(), 3);
        for r in &rules {
            assert!(r.matches.dl_dst.is_some());
            assert_eq!(r.actions.len(), 1);
        }
    }

    #[test]
    fn stage2_block_delivers_and_rewrites() {
        let cfg = ParticipantConfig::new(2, 65002, 2);
        let block = stage2_block(&cfg, None, &[MacAddr::vmac(7)], &|_, _| None).unwrap();
        // 2 physical-MAC deliveries + 1 VMAC delivery + catch-all.
        assert_eq!(block.len(), 4);
        let vmac_rule = &block.rules()[2];
        assert_eq!(vmac_rule.matches.dl_dst, Some(MacAddr::vmac(7)));
        assert_eq!(
            vmac_rule.actions[0].mods,
            vec![
                Mod::SetDlDst(cfg.primary_port().mac),
                Mod::SetLoc(PortId::Phys(pid(2), 1))
            ]
        );
    }

    #[test]
    fn stage2_inbound_policy_rewrites_macs() {
        let cfg = ParticipantConfig::new(2, 65002, 2);
        // Figure 1a: inbound TE splitting by source half.
        let pol = (Policy::match_(FieldMatch::NwSrc(prefix("0.0.0.0/1")))
            >> Policy::fwd(PortId::Phys(pid(2), 1)))
            + (Policy::match_(FieldMatch::NwSrc(prefix("128.0.0.0/1")))
                >> Policy::fwd(PortId::Phys(pid(2), 2)));
        let block = stage2_block(&cfg, Some(&compile(&pol)), &[], &|_, _| None).unwrap();
        let r0 = &block.rules()[0];
        assert_eq!(r0.matches.in_port, Some(PortId::Virt(pid(2))));
        assert_eq!(
            r0.actions[0].mods,
            vec![
                Mod::SetDlDst(cfg.port_mac(1).unwrap()),
                Mod::SetLoc(PortId::Phys(pid(2), 1))
            ]
        );
    }

    #[test]
    fn stage2_inbound_escape_rejected() {
        let cfg = ParticipantConfig::new(2, 65002, 1);
        // Forwarding to another participant's *virtual switch* from an
        // inbound policy is an isolation violation…
        let pol2 = Policy::fwd(PortId::Virt(pid(3)));
        assert!(matches!(
            stage2_block(&cfg, Some(&compile(&pol2)), &[], &|_, _| None),
            Err(TransformError::InboundEscapesSwitch(..))
        ));
        // …and forwarding to an unknown port index fails loudly.
        let pol3 = Policy::fwd(PortId::Phys(pid(2), 9));
        assert!(matches!(
            stage2_block(&cfg, Some(&compile(&pol3)), &[], &|_, _| None),
            Err(TransformError::NoSuchPort(_, 9))
        ));
        // A *known* foreign physical port is middlebox steering: allowed.
        let mbox_mac = MacAddr::physical(0x31);
        let pol = Policy::fwd(PortId::Phys(pid(3), 1));
        let block = stage2_block(&cfg, Some(&compile(&pol)), &[], &|owner, idx| {
            (owner == pid(3) && idx == 1).then_some(mbox_mac)
        })
        .expect("steering allowed");
        let steering = &block.rules()[0];
        assert_eq!(
            steering.actions[0].mods,
            vec![
                Mod::SetDlDst(mbox_mac),
                Mod::SetLoc(PortId::Phys(pid(3), 1))
            ]
        );
        // An unknown foreign port is rejected.
        assert!(matches!(
            stage2_block(&cfg, Some(&compile(&pol)), &[], &|_, _| None),
            Err(TransformError::NoSuchPort(..))
        ));
    }

    #[test]
    fn compose_optimized_end_to_end() {
        use sdx_net::{LocatedPacket, Packet};
        // Stage 1: VMAC 7 → B's switch. Stage 2 (B): deliver VMAC 7.
        let cfg_b = ParticipantConfig::new(2, 65002, 1);
        let stage1 = vec![Rule::unicast(
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7))),
            Action::of(Mod::SetLoc(PortId::Virt(pid(2)))),
        )];
        let mut blocks = BTreeMap::new();
        blocks.insert(
            pid(2),
            stage2_block(&cfg_b, None, &[MacAddr::vmac(7)], &|_, _| None).unwrap(),
        );
        let c = compose_optimized(&stage1, &blocks);
        let pkt = LocatedPacket::at(
            PortId::Phys(pid(1), 1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 5, 80)
                .with_macs(MacAddr::physical(99), MacAddr::vmac(7)),
        );
        let out = c.evaluate(&pkt);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, PortId::Phys(pid(2), 1));
        assert_eq!(out[0].pkt.dl_dst, cfg_b.primary_port().mac);
        // Untagged traffic drops.
        let stray = LocatedPacket::at(
            PortId::Phys(pid(1), 1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 5, 80),
        );
        assert!(c.evaluate(&stray).is_empty());
    }

    #[test]
    fn compose_optimized_missing_block_drops() {
        let stage1 = vec![Rule::unicast(
            HeaderMatch::any(),
            Action::of(Mod::SetLoc(PortId::Virt(pid(9)))),
        )];
        let c = compose_optimized(&stage1, &BTreeMap::new());
        use sdx_net::{LocatedPacket, Packet};
        let pkt = LocatedPacket::at(
            PortId::Phys(pid(1), 1),
            Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80),
        );
        assert!(c.evaluate(&pkt).is_empty());
    }
}
