//! Incremental updates: the §4.3.2 two-stage compilation.
//!
//! When a BGP update changes the best path for a prefix `p`, waiting for a
//! full pipeline run (minutes at scale — Figure 8) is unacceptable. The
//! fast path instead:
//!
//! 1. **assumes a new VNH is needed** — allocating a *fresh* `(VNH, VMAC)`
//!    for `p` alone skips the whole minimum-disjoint-subset computation
//!    *and* sidesteps ARP-cache staleness (the border router learns a
//!    brand-new next-hop address, so no binding has to change under it);
//! 2. recompiles **only the parts of the policy related to `p`**: the
//!    affected viewers' forwarding rules restricted to the new tag, plus a
//!    default rule and the receivers' delivery rules for the new tag;
//! 3. installs the result at a **higher priority** than the optimized
//!    table, where it shadows the stale rules until background
//!    re-optimization (a full [`SdxCompiler::compile_all`]) replaces
//!    everything and retires the deltas.
//!
//! The cost is extra rules (Figure 9 measures them); the benefit is
//! sub-second reaction (Figure 10 measures it).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use sdx_bgp::route_server::RouteServer;
use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, PortId, Prefix};
use sdx_policy::classifier::{Classifier, Rule};

use crate::compiler::SdxCompiler;
use crate::error::SdxError;
use crate::fec::FecGroup;
use crate::phase_a::Signature;
use crate::transform::{self, dst_coverage, expand_fwd_rule, FwdRule};
use crate::vnh::VnhAllocator;

/// The product of one fast-path recompilation.
#[derive(Clone, Debug, Default)]
pub struct DeltaResult {
    /// Rules to overlay at high priority (already composed through the
    /// delivery stage; ready for the switch).
    pub rules: Vec<Rule>,
    /// New ARP bindings (fresh VNH → fresh VMAC).
    pub arp_bindings: Vec<(Ipv4Addr, MacAddr)>,
    /// The changed prefixes this delta is for, as given. Each is
    /// re-advertised to every viewer: the best route as the route server
    /// now decides it, under its own next hop unless `vnh_updates` says
    /// otherwise — a virtual next hop a viewer held for one of them
    /// before does not outlive the change.
    pub prefixes: Vec<Prefix>,
    /// NEXT_HOP rewrites for the viewers whose policy can move traffic:
    /// (viewer, prefix, new VNH), or `None` where the prefix no longer
    /// needs SDX processing for that viewer. Viewers without such a policy
    /// are not listed.
    pub vnh_updates: Vec<(ParticipantId, Prefix, Option<Ipv4Addr>)>,
    /// Wall-clock of the fast path (the Figure 10 metric).
    pub elapsed: Duration,
}

impl DeltaResult {
    /// Additional forwarding rules this delta installs (Figure 9 metric).
    pub fn additional_rules(&self) -> usize {
        self.rules.iter().filter(|r| !r.is_drop()).count()
    }
}

/// What the fast path and phase A need of one viewer's outbound policy. It
/// depends on the policy book, not on the prefix, so a burst or a compile
/// derives it once.
pub(crate) struct ViewerRules<'a> {
    pub(crate) viewer: ParticipantId,
    /// The viewer's compiled forwarding clauses, in priority order.
    pub(crate) rules: &'a [FwdRule],
    /// The clauses prefix churn can move — no destination rewrite (those
    /// join BGP on the rewritten address, in phase C), a peer's virtual
    /// switch as target — as (index into `rules`, that peer).
    pub(crate) movable: Vec<(usize, ParticipantId)>,
}

impl<'a> ViewerRules<'a> {
    pub(crate) fn of(viewer: ParticipantId, rules: &'a [FwdRule]) -> Self {
        let movable = rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| rule.rewritten_dst().is_none())
            .filter_map(|(k, rule)| match rule.target {
                Some(PortId::Virt(nh)) => Some((k, nh)),
                _ => None,
            })
            .collect();
        ViewerRules {
            viewer,
            rules,
            movable,
        }
    }

    /// The signature of `prefix` for this viewer — the movable clauses
    /// whose target the viewer may reach it through, which of those cover
    /// it only partly, and the viewer's best next hop — or `None` when no
    /// clause reaches it. The one definition of a `(viewer, prefix)`
    /// signature: the fast path runs it per changed prefix, and phase A
    /// patches a held map with it.
    pub(crate) fn signature(&self, rs: &RouteServer, prefix: Prefix) -> Option<Signature> {
        let reachable = rs.reachable_via(self.viewer, prefix);
        let mut sig = Signature::default();
        for &(k, nh) in &self.movable {
            if reachable.contains(&nh) {
                sig.cover(k, dst_coverage(&self.rules[k].matches, prefix));
            }
        }
        if sig.member.is_empty() {
            return None;
        }
        sig.best_nh = rs
            .best_for(self.viewer, prefix)
            .map(|r| r.source.participant);
        Some(sig)
    }
}

impl SdxCompiler {
    /// The §4.3.2 fast path for one changed prefix. Must be called after
    /// the route server has already applied the triggering update.
    pub fn fast_update(
        &mut self,
        rs: &RouteServer,
        vnh: &mut VnhAllocator,
        prefix: Prefix,
    ) -> Result<DeltaResult, SdxError> {
        self.fast_update_burst(rs, vnh, &[prefix])
    }

    /// Run the fast path for a burst of changed prefixes, returning one
    /// merged delta (the Figure 9 experiment's unit).
    ///
    /// The delta is prefix-major, viewer-minor — rules, ARP bindings, VNH
    /// updates and VNH ids all in that order. Everything that depends only
    /// on the policy book (each viewer's forwarding clauses, each
    /// receiver's compiled inbound policy) is borrowed from the compiled
    /// policies kept beside the book, so a burst of n prefixes is n times
    /// the per-prefix work and no per-policy work at all unless a policy
    /// changed since the last compile.
    pub fn fast_update_burst(
        &mut self,
        rs: &RouteServer,
        vnh: &mut VnhAllocator,
        prefixes: &[Prefix],
    ) -> Result<DeltaResult, SdxError> {
        let t0 = Instant::now();
        self.refresh_policies()?;
        let this = &*self;
        let mut out = DeltaResult {
            prefixes: prefixes.to_vec(),
            ..DeltaResult::default()
        };
        // A viewer no clause of which can move is not visited: it gets the
        // plain re-advertisement `out.prefixes` stands for.
        let viewers: Vec<ViewerRules> = this
            .outbound_rules()
            .map(|(viewer, rules)| ViewerRules::of(viewer, rules))
            .filter(|v| !v.movable.is_empty())
            .collect();

        for &prefix in prefixes {
            let t_prefix = Instant::now();
            for v in &viewers {
                let (viewer, rules) = (v.viewer, v.rules);
                // Which of the viewer's rules touch this prefix now?
                let Some(sig) = v.signature(rs, prefix) else {
                    // The prefix is not (or no longer) policy-affected for
                    // this viewer: plain route-server behaviour (real next
                    // hop).
                    out.vnh_updates.push((viewer, prefix, None));
                    continue;
                };

                // Fresh singleton group — no MDS, no ARP invalidation.
                let (id, addr, vmac) = vnh.try_allocate()?;
                this.telemetry().inc("vnh.alloc.count");
                let groups = [FecGroup {
                    id,
                    viewer,
                    prefixes: vec![prefix],
                    vnh: addr,
                    vmac,
                    default_next_hop: sig.best_nh,
                }];
                out.arp_bindings.push((addr, vmac));
                out.vnh_updates.push((viewer, prefix, Some(addr)));

                // Stage-1 delta: the member policy rules + the default
                // rule, all restricted to the fresh tag.
                let mut stage1 = Vec::new();
                let mut receivers = BTreeSet::new();
                for &k in &sig.member {
                    let Some(target) = rules[k].target else {
                        continue;
                    };
                    receivers.insert(target.participant());
                    stage1.extend(expand_fwd_rule(
                        &rules[k],
                        target,
                        &groups,
                        |_| true,
                        |_| sig.partial.contains(&k),
                    ));
                }
                stage1.extend(transform::default_stage1_rules(&groups));
                receivers.extend(groups[0].default_next_hop);

                // Compose with fresh mini-blocks for exactly the receivers
                // the delta can reach.
                let mut blocks = BTreeMap::new();
                for r in receivers {
                    let Some(cfg) = this.participant(r) else {
                        continue; // not a registered participant
                    };
                    let foreign_mac = |owner: ParticipantId, idx: u8| {
                        this.participant(owner).and_then(|c| c.port_mac(idx))
                    };
                    blocks.insert(
                        r,
                        transform::stage2_block(
                            cfg,
                            this.inbound_classifier(r),
                            &[vmac],
                            &foreign_mac,
                        )?,
                    );
                }
                let composed = transform::compose_optimized(&stage1, &blocks);
                // Skip the synthetic catch-alls: deltas overlay, they must
                // not shadow the base table for unrelated traffic.
                out.rules.extend(
                    composed
                        .rules()
                        .iter()
                        .filter(|r| !(r.matches.is_wildcard() && r.is_drop()))
                        .cloned(),
                );
            }
            this.telemetry()
                .observe_duration("fastpath.update", t_prefix.elapsed());
        }

        out.elapsed = t0.elapsed();
        Ok(out)
    }
}

/// Builds a classifier from delta rules for overlay installation (no
/// catch-all semantics of its own — the base table provides totality).
pub fn delta_classifier(rules: Vec<Rule>) -> Classifier {
    Classifier::from_rules(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::ParticipantConfig;
    use sdx_bgp::msg::{simple_announce, UpdateMessage};
    use sdx_bgp::route_server::ExportPolicy;
    use sdx_net::{ip, prefix, FieldMatch};
    use sdx_policy::Policy as P;

    fn setup() -> (SdxCompiler, RouteServer, VnhAllocator) {
        let mut compiler = SdxCompiler::new();
        let a = ParticipantConfig::new(1, 65001, 1).with_outbound(
            P::match_(FieldMatch::TpDst(80)) >> P::fwd(PortId::Virt(ParticipantId(2))),
        );
        let b = ParticipantConfig::new(2, 65002, 1);
        let c = ParticipantConfig::new(3, 65003, 1);
        let mut rs = RouteServer::new();
        rs.add_peer(a.route_source(), ExportPolicy::allow_all());
        rs.add_peer(b.route_source(), ExportPolicy::allow_all());
        rs.add_peer(c.route_source(), ExportPolicy::allow_all());
        compiler.upsert_participant(a);
        compiler.upsert_participant(b);
        compiler.upsert_participant(c);
        rs.process_update(
            ParticipantId(2),
            &simple_announce(prefix("10.0.0.0/8"), &[65002, 9], ip("172.16.0.10")),
        );
        rs.process_update(
            ParticipantId(3),
            &simple_announce(prefix("10.0.0.0/8"), &[65003], ip("172.16.0.14")),
        );
        (compiler, rs, VnhAllocator::default())
    }

    #[test]
    fn fast_update_produces_fresh_tag_rules() {
        let (mut compiler, mut rs, mut vnh) = setup();
        // C withdraws its route: A's best for the prefix flips to B.
        rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        let delta = compiler
            .fast_update(&rs, &mut vnh, prefix("10.0.0.0/8"))
            .unwrap();
        // Viewer A is affected (policy matches p via B) and is the only
        // viewer listed; B and C, which have no policy, re-learn the
        // prefix's plain route because it is among the delta's prefixes.
        assert_eq!(delta.arp_bindings.len(), 1);
        assert_eq!(delta.prefixes, vec![prefix("10.0.0.0/8")]);
        assert_eq!(delta.vnh_updates.len(), 1);
        let (viewer, p, nh) = delta.vnh_updates[0];
        assert_eq!(viewer, ParticipantId(1));
        assert_eq!(p, prefix("10.0.0.0/8"));
        assert!(nh.is_some(), "the affected viewer gets a fresh VNH");
        assert!(delta.additional_rules() >= 2, "policy rule + default rule");
        // No wildcard catch-all leaks into the overlay.
        assert!(delta
            .rules
            .iter()
            .all(|r| !(r.matches.is_wildcard() && r.is_drop())));
    }

    #[test]
    fn fast_update_unaffected_prefix_reverts_to_plain_rs() {
        let (mut compiler, mut rs, mut vnh) = setup();
        // A prefix B stops exporting entirely: A's policy can't touch it.
        rs.process_update(
            ParticipantId(2),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        let delta = compiler
            .fast_update(&rs, &mut vnh, prefix("10.0.0.0/8"))
            .unwrap();
        assert!(delta.rules.is_empty());
        assert_eq!(delta.prefixes, vec![prefix("10.0.0.0/8")]);
        assert_eq!(
            delta.vnh_updates,
            vec![(ParticipantId(1), prefix("10.0.0.0/8"), None)],
            "the one viewer with a policy loses its VNH; nobody else is listed"
        );
    }

    #[test]
    fn delta_rules_route_through_delivery() {
        let (mut compiler, rs, mut vnh) = setup();
        let delta = compiler
            .fast_update(&rs, &mut vnh, prefix("10.0.0.0/8"))
            .unwrap();
        // Every forwarding delta rule ends at a physical port with a
        // rewritten (non-virtual) destination MAC.
        for r in delta.rules.iter().filter(|r| !r.is_drop()) {
            for a in r.actions.iter() {
                let loc = a.mods.iter().rev().find_map(|m| match m {
                    sdx_net::Mod::SetLoc(p) => Some(*p),
                    _ => None,
                });
                assert!(matches!(loc, Some(PortId::Phys(..))), "rule {r}");
            }
        }
    }

    #[test]
    fn burst_merges_deltas() {
        let (mut compiler, mut rs, mut vnh) = setup();
        rs.process_update(
            ParticipantId(2),
            &simple_announce(prefix("20.0.0.0/8"), &[65002], ip("172.16.0.10")),
        );
        let delta = compiler
            .fast_update_burst(&rs, &mut vnh, &[prefix("10.0.0.0/8"), prefix("20.0.0.0/8")])
            .unwrap();
        assert_eq!(delta.arp_bindings.len(), 2);
        assert!(delta.additional_rules() >= 4);
    }

    #[test]
    fn fast_path_is_fast() {
        let (mut compiler, rs, mut vnh) = setup();
        let delta = compiler
            .fast_update(&rs, &mut vnh, prefix("10.0.0.0/8"))
            .unwrap();
        // The paper's bar is < 1 s; at this scale it must be far below.
        assert!(delta.elapsed < Duration::from_millis(100));
    }
}
