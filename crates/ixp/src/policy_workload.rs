//! The §6.1 policy-assignment model.
//!
//! The paper constructs "an exchange point with a realistic set of
//! participants and policies":
//!
//! * participants are classed eyeball / transit / content and sorted by
//!   announced prefix count;
//! * the **top 15% of eyeballs**, **top 5% of transits**, and a **random
//!   5% of content** providers install custom policies;
//! * **content providers**: outbound (application-specific peering)
//!   policies toward three random top eyeballs, plus one inbound policy
//!   matching one header field;
//! * **eyeballs**: inbound policies for half the policy-bearing content
//!   providers, matching one randomly selected header field; no outbound;
//! * **transit providers**: outbound policies for one prefix group toward
//!   half the top eyeballs (destination prefixes plus one extra header
//!   field), and inbound policies proportional to the top content
//!   providers.
//!
//! The knob that drives Figures 6–8 is `policy_prefixes`: how many
//! prefixes (drawn at random from the routing table) the destination-
//! based policies touch.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_net::{FieldMatch, ParticipantId, PortId, Prefix};
use sdx_policy::{Policy, Pred};

use crate::topology::{ParticipantClass, SyntheticIxp};

/// Workload knobs.
#[derive(Clone, Copy, Debug)]
pub struct PolicyWorkloadParams {
    /// How many prefixes destination-based (transit) policies reference.
    pub policy_prefixes: usize,
    /// Fraction of eyeballs (by announcement rank) that install policies.
    pub eyeball_policy_fraction: f64,
    /// Fraction of transits that install policies.
    pub transit_policy_fraction: f64,
    /// Fraction of content providers that install policies.
    pub content_policy_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PolicyWorkloadParams {
    fn default() -> Self {
        PolicyWorkloadParams {
            policy_prefixes: 1000,
            eyeball_policy_fraction: 0.15,
            transit_policy_fraction: 0.05,
            content_policy_fraction: 0.05,
            seed: 7,
        }
    }
}

/// One random single-field match, as §6.1's "match on one randomly
/// selected header field".
fn random_field(rng: &mut StdRng) -> Pred {
    match rng.gen_range(0..4u8) {
        0 => Pred::Test(FieldMatch::TpDst(
            *[80u16, 443, 8080, 1935].choose(rng).expect("set"),
        )),
        1 => Pred::Test(FieldMatch::TpSrc(rng.gen_range(1024..65000))),
        2 => {
            // A random /8 source block.
            let octet = rng.gen_range(1u8..224);
            Pred::Test(FieldMatch::NwSrc(Prefix::new(
                sdx_net::Ipv4Addr::new(octet, 0, 0, 0),
                8,
            )))
        }
        _ => Pred::Test(FieldMatch::NwProto(if rng.gen_bool(0.5) {
            sdx_net::packet::IpProto::Udp
        } else {
            sdx_net::packet::IpProto::Tcp
        })),
    }
}

/// An inbound policy splitting matched traffic to the participant's ports.
fn inbound_policy(rng: &mut StdRng, owner: ParticipantId, nports: u8, clauses: usize) -> Policy {
    let mut pol = Policy::drop();
    for _ in 0..clauses.max(1) {
        let port_idx = rng.gen_range(1..=nports);
        let clause =
            Policy::filter(random_field(rng)) >> Policy::fwd(PortId::Phys(owner, port_idx));
        pol = pol + clause;
    }
    pol
}

/// Installs the §6.1 policy mix onto `ixp`'s participants (in place).
/// Returns the number of participants that received policies.
pub fn assign_policies(ixp: &mut SyntheticIxp, params: &PolicyWorkloadParams) -> usize {
    let mut rng = StdRng::seed_from_u64(params.seed);

    let eyeballs = ixp.by_class(ParticipantClass::Eyeball);
    let transits = ixp.by_class(ParticipantClass::Transit);
    let contents = ixp.by_class(ParticipantClass::Content);

    let top = |v: &[ParticipantId], frac: f64| -> Vec<ParticipantId> {
        let n = ((v.len() as f64 * frac).ceil() as usize)
            .min(v.len())
            .max(1);
        v[..n].to_vec()
    };
    let policy_eyeballs = top(&eyeballs, params.eyeball_policy_fraction);
    let policy_transits = top(&transits, params.transit_policy_fraction);
    // Content: a *random* 5%, per the paper.
    let mut shuffled = contents.clone();
    shuffled.shuffle(&mut rng);
    let n_content = ((contents.len() as f64 * params.content_policy_fraction).ceil() as usize)
        .min(contents.len())
        .max(1);
    let policy_contents: Vec<ParticipantId> = shuffled[..n_content].to_vec();

    // Destination blocks for prefix-group policies. §6.1: transit policies
    // "match on destination prefix group plus one additional header
    // field". A prefix group is an *aligned block* of consecutive /24s
    // within one origin's announcement range, expressible as a single
    // covering prefix (16 consecutive aligned /24s = one /20) — which is
    // exactly how operators write such policies and what keeps rule
    // counts linear in the number of groups (Figure 7). The
    // `policy_prefixes` knob sets how many /24s these blocks cover in
    // total, i.e. it sweeps the number of prefix groups.
    const BLOCK: usize = 16;
    let n_blocks = params.policy_prefixes / BLOCK;
    let mut blocks: Vec<Prefix> = Vec::with_capacity(n_blocks);
    {
        // Aligned block start indices available per origin range.
        let mut candidates: Vec<usize> = Vec::new();
        let mut start = 0usize;
        for anns in &ixp.announcements {
            let count = anns.len();
            let mut s = start.div_ceil(BLOCK) * BLOCK;
            while s + BLOCK <= start + count {
                candidates.push(s);
                s += BLOCK;
            }
            start += count;
        }
        candidates.shuffle(&mut rng);
        for s in candidates.into_iter().take(n_blocks) {
            // 16 consecutive /24s aligned on a /20 boundary.
            blocks.push(Prefix::new(crate::topology::universe_prefix(s).addr(), 20));
        }
    }

    let top_eyeballs: Vec<ParticipantId> = eyeballs
        .iter()
        .copied()
        .take(10.max(eyeballs.len() / 10))
        .collect();
    let mut touched = 0usize;

    // Content providers: app-specific peering to 3 random top eyeballs +
    // one single-field inbound policy.
    let top_transits: Vec<ParticipantId> = transits
        .iter()
        .copied()
        .take(10.max(transits.len() / 5))
        .collect();
    for &cp in &policy_contents {
        let mut outbound = Policy::drop();
        let mut targets = top_eyeballs.clone();
        targets.retain(|t| *t != cp);
        targets.shuffle(&mut rng);
        // Distinct ports per clause keep the policy unicast (clauses
        // disjoint), as the paper's application-specific peering policies
        // are. Besides direct eyeball peering, content providers also
        // steer some application classes through transit providers
        // ("policies that are intended to balance transit costs", §6.1);
        // transit export sets overlap, which is what produces the rich
        // forwarding-equivalence-class structure of Figure 6.
        for (&t, &port) in targets.iter().take(3).zip(&[80u16, 443, 1935]) {
            outbound = outbound
                + (Policy::match_(FieldMatch::TpDst(port)) >> Policy::fwd(PortId::Virt(t)));
        }
        let mut via_transit = top_transits.clone();
        via_transit.retain(|t| *t != cp);
        via_transit.shuffle(&mut rng);
        for (&t, &port) in via_transit.iter().take(2).zip(&[8080u16, 8443]) {
            outbound = outbound
                + (Policy::match_(FieldMatch::TpDst(port)) >> Policy::fwd(PortId::Virt(t)));
        }
        let idx = ixp
            .participants
            .iter()
            .position(|p| p.id == cp)
            .expect("known id");
        let nports = ixp.participants[idx].ports.len() as u8;
        ixp.participants[idx].outbound = Some(outbound);
        ixp.participants[idx].inbound = Some(inbound_policy(&mut rng, cp, nports, 1));
        touched += 1;
    }

    // Eyeballs: inbound policies for half the content providers.
    for &eb in &policy_eyeballs {
        let idx = ixp
            .participants
            .iter()
            .position(|p| p.id == eb)
            .expect("known id");
        let nports = ixp.participants[idx].ports.len() as u8;
        let clauses = (policy_contents.len() / 2).clamp(1, 5);
        ixp.participants[idx].inbound = Some(inbound_policy(&mut rng, eb, nports, clauses));
        touched += 1;
    }

    // Transit providers: outbound per prefix group for half the top
    // eyeballs (dst prefixes + one extra header field), plus inbound
    // proportional to content providers.
    // Transit providers: destination-block policies balancing where each
    // block's traffic exits ("balance load by tuning the entry point"),
    // split round-robin across the policy-bearing transits. Each clause
    // forwards a block toward one of the block's *announcers* — the BGP
    // consistency transformation would erase a clause pointing anywhere
    // else.
    let announcer_of = |block: Prefix, not: ParticipantId| -> Option<ParticipantId> {
        // Prefer a transit re-announcer (the "alternate entry point"), fall
        // back to the origin.
        for (tid, ps) in &ixp.transit_routes {
            if *tid != not && ps.iter().any(|p| block.covers(*p)) {
                return Some(*tid);
            }
        }
        ixp.participants
            .iter()
            .zip(&ixp.announcements)
            .find(|(cfg, anns)| cfg.id != not && anns.iter().any(|p| block.covers(*p)))
            .map(|(cfg, _)| cfg.id)
    };
    let mut block_clauses: Vec<(usize, Policy)> = Vec::new();
    for (bi, &block) in blocks.iter().enumerate() {
        if policy_transits.is_empty() {
            break;
        }
        let tr = policy_transits[bi % policy_transits.len()];
        let Some(target) = announcer_of(block, tr) else {
            continue;
        };
        let clause = Policy::filter(Pred::Test(FieldMatch::NwDst(block)) & random_field(&mut rng))
            >> Policy::fwd(PortId::Virt(target));
        let idx = ixp
            .participants
            .iter()
            .position(|p| p.id == tr)
            .expect("known id");
        block_clauses.push((idx, clause));
    }
    for (idx, clause) in block_clauses {
        let slot = &mut ixp.participants[idx].outbound;
        *slot = Some(match slot.take() {
            Some(p) => p + clause,
            None => clause,
        });
    }
    for &tr in &policy_transits {
        let idx = ixp
            .participants
            .iter()
            .position(|p| p.id == tr)
            .expect("known id");
        let nports = ixp.participants[idx].ports.len() as u8;
        let clauses = policy_contents.len().clamp(1, 5);
        ixp.participants[idx].inbound = Some(inbound_policy(&mut rng, tr, nports, clauses));
        touched += 1;
    }

    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build, TopologyParams};

    fn small_ixp() -> SyntheticIxp {
        build(&TopologyParams {
            participants: 60,
            prefixes: 1200,
            ..Default::default()
        })
    }

    #[test]
    fn assignment_is_deterministic() {
        let params = PolicyWorkloadParams::default();
        let mut a = small_ixp();
        let mut b = small_ixp();
        assign_policies(&mut a, &params);
        assign_policies(&mut b, &params);
        for (x, y) in a.participants.iter().zip(&b.participants) {
            assert_eq!(x.outbound, y.outbound);
            assert_eq!(x.inbound, y.inbound);
        }
    }

    #[test]
    fn policy_bearing_fractions() {
        let mut ixp = small_ixp();
        let n = assign_policies(&mut ixp, &PolicyWorkloadParams::default());
        assert!(n >= 3, "at least one per class");
        let with_policy = ixp.participants.iter().filter(|p| p.has_policy()).count();
        assert_eq!(with_policy, n);
        // Only a small minority of participants carry policies (§4.3.1's
        // "most policies concern a subset of the participants").
        assert!(with_policy * 4 < ixp.participants.len());
    }

    #[test]
    fn eyeballs_have_no_outbound() {
        let mut ixp = small_ixp();
        assign_policies(&mut ixp, &PolicyWorkloadParams::default());
        for (p, class) in ixp.participants.iter().zip(&ixp.classes) {
            if *class == ParticipantClass::Eyeball {
                assert!(p.outbound.is_none(), "{} has outbound", p.id);
            }
        }
    }

    #[test]
    fn inbound_policies_stay_on_own_switch() {
        let mut ixp = small_ixp();
        assign_policies(&mut ixp, &PolicyWorkloadParams::default());
        for p in &ixp.participants {
            if let Some(inb) = &p.inbound {
                let compiled = sdx_policy::compile(inb);
                for r in compiled.rules() {
                    for a in r.actions.iter() {
                        for m in &a.mods {
                            if let sdx_net::Mod::SetLoc(PortId::Phys(owner, _)) = m {
                                assert_eq!(*owner, p.id);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transit_policies_reference_pool_prefixes() {
        let mut ixp = small_ixp();
        let params = PolicyWorkloadParams {
            policy_prefixes: 50,
            ..Default::default()
        };
        assign_policies(&mut ixp, &params);
        // At least one transit outbound policy exists and matches on dstip.
        let any_dst = ixp
            .participants
            .iter()
            .filter_map(|p| p.outbound.as_ref())
            .any(|pol| format!("{pol:?}").contains("NwDst"));
        assert!(any_dst);
    }

    #[test]
    fn workload_compiles_through_the_sdx_pipeline() {
        let mut ixp = small_ixp();
        assign_policies(
            &mut ixp,
            &PolicyWorkloadParams {
                policy_prefixes: 100,
                ..Default::default()
            },
        );
        let rs = ixp.route_server();
        let mut compiler = sdx_core::compiler::SdxCompiler::new();
        for p in &ixp.participants {
            compiler.upsert_participant(p.clone());
        }
        let mut vnh = sdx_core::vnh::VnhAllocator::default();
        let report = compiler.compile_all(&rs, &mut vnh).expect("compiles");
        assert!(report.stats.group_count > 0);
        assert!(report.stats.forwarding_rules > 0);
    }
}
