//! Forwarding Equivalence Classes and the Minimum Disjoint Subset
//! computation (§4.2 of the paper).
//!
//! The data-plane state reduction hinges on grouping prefixes that the
//! fabric treats identically. Given the collection `C` of prefix sets that
//! matter — one set per (policy rule × its BGP filter), plus the grouping
//! by default next hop — the *Minimum Disjoint Subset* `C'` is the coarsest
//! partition of `⋃C` such that every element of `C` is a union of parts.
//!
//! Two prefixes belong to the same part **iff they are members of exactly
//! the same sets of `C`** — so the polynomial-time algorithm the paper
//! alludes to is partition by membership signature, implemented here with
//! one hash pass (`O(Σ|Cᵢ|)`).
//!
//! Worked example (the paper's §4.2, Figure 1): with
//! `C = {{p1,p2,p3}, {p1,p2,p3,p4}, {p1,p2,p4}, {p3}}` the signatures are
//! `p1,p2 → {0,1,2}`, `p3 → {0,1,3}`, `p4 → {1,2}` giving
//! `C' = {{p1,p2}, {p3}, {p4}}` — the paper's answer.

use std::collections::{BTreeMap, HashMap};

use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, Prefix};
use sdx_policy::classifier::{Classifier, Rule};

use crate::compiler::CompileReport;
use crate::piece::{ViewerPiece, VnhMap};

/// Identifier of a forwarding equivalence class; encoded in the VMAC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FecId(pub u32);

/// One computed equivalence class, with its data-plane identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FecGroup {
    /// Globally unique id.
    pub id: FecId,
    /// The viewer (sending participant) whose forwarding behaviour this
    /// group captures. VMACs are globally unique, so the tag implicitly
    /// names the sender — which is why VMAC rules need no in-port match.
    pub viewer: ParticipantId,
    /// The member prefixes, sorted.
    pub prefixes: Vec<Prefix>,
    /// The virtual next-hop address advertised to the viewer.
    pub vnh: Ipv4Addr,
    /// The virtual MAC tag (ARP answer for `vnh`).
    pub vmac: MacAddr,
    /// The viewer's default (best-route) next hop for every member prefix —
    /// uniform within a group because the default next hop is part of the
    /// grouping signature. `None` when no route remains.
    pub default_next_hop: Option<ParticipantId>,
}

/// The content-addressed identity of a FEC group: the viewer it belongs
/// to, its exact (sorted) member prefix set, and the viewer's best-route
/// next hop for those members.
///
/// Two compilations that produce a group with the same key mean the same
/// forwarding equivalence class — so the VNH allocator can hand back the
/// *same* `(FecId, VNH, VMAC)` across recompilations
/// ([`crate::vnh::VnhAllocator::assign_keyed`]), and a BGP event only
/// churns the identities whose keys actually changed. The exact structure
/// is used as the map key (not a hash), so identity can never alias.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FecKey {
    /// The viewer whose forwarding behaviour the group captures.
    pub viewer: ParticipantId,
    /// The member prefixes, sorted (the partition order is canonical).
    pub prefixes: Vec<Prefix>,
    /// The viewer's best-route next hop for every member prefix.
    pub default_next_hop: Option<ParticipantId>,
}

impl FecKey {
    /// The key describing an already-built group.
    pub fn of_group(g: &FecGroup) -> FecKey {
        FecKey {
            viewer: g.viewer,
            prefixes: g.prefixes.clone(),
            default_next_hop: g.default_next_hop,
        }
    }
}

/// Computes the Minimum Disjoint Subset of a collection of prefix sets:
/// the coarsest partition of the union such that every input set is a
/// union of output parts. Output parts are sorted internally and ordered
/// by their smallest member, so the result is deterministic.
///
/// ```
/// use sdx_core::fec::minimum_disjoint_subsets;
/// use sdx_net::prefix;
///
/// // The paper's §4.2 worked example.
/// let (p1, p2, p3, p4) = (
///     prefix("10.0.0.0/8"),
///     prefix("20.0.0.0/8"),
///     prefix("30.0.0.0/8"),
///     prefix("40.0.0.0/8"),
/// );
/// let c = vec![vec![p1, p2, p3], vec![p1, p2, p3, p4], vec![p1, p2, p4], vec![p3]];
/// assert_eq!(
///     minimum_disjoint_subsets(&c),
///     vec![vec![p1, p2], vec![p3], vec![p4]],
/// );
/// ```
pub fn minimum_disjoint_subsets(sets: &[Vec<Prefix>]) -> Vec<Vec<Prefix>> {
    // signature := sorted list of set indices containing the prefix.
    let mut membership: BTreeMap<Prefix, Vec<u32>> = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        for &p in set {
            let sig = membership.entry(p).or_default();
            // Sets may contain duplicates; record each index once.
            if sig.last() != Some(&(i as u32)) {
                sig.push(i as u32);
            }
        }
    }
    let mut groups: BTreeMap<Vec<u32>, Vec<Prefix>> = BTreeMap::new();
    for (p, sig) in membership {
        groups.entry(sig).or_default().push(p);
    }
    let mut out: Vec<Vec<Prefix>> = groups.into_values().collect();
    // Each group is sorted (BTreeMap iteration); order groups by first member.
    out.sort_by_key(|g| g[0]);
    out
}

/// Partition prefixes by an arbitrary signature in one pass: the
/// generalization used by the compiler, whose signatures combine policy-set
/// membership with the default next hop.
pub fn partition_by_signature<S: Ord>(
    items: impl IntoIterator<Item = (Prefix, S)>,
) -> Vec<Vec<Prefix>> {
    let mut groups: BTreeMap<S, Vec<Prefix>> = BTreeMap::new();
    for (p, sig) in items {
        groups.entry(sig).or_default().push(p);
    }
    let mut out: Vec<Vec<Prefix>> = groups.into_values().collect();
    for g in &mut out {
        g.sort();
        g.dedup();
    }
    out.sort_by_key(|g| g[0]);
    out
}

/// Relabels a report's `(FecId, VNH, VMAC)` identities into canonical
/// enumeration order — groups numbered from 1 in `(viewer, position)`
/// order — leaving everything else untouched. Cold compiles draw ids from
/// one pool in that order already; a *warm* compile keeps surviving groups
/// on the ids they hold (keyed reuse), which a cold compile of the same
/// world would number differently. Two reports that induce the same
/// forwarding function canonicalize to **equal** reports, so equivalence
/// tests get to use plain `assert_eq!` instead of a bespoke bisimulation.
/// Stats are copied verbatim (they carry wall-clock and are excluded from
/// comparisons anyway).
///
/// The relabeling is injective (old id → canonical id is a bijection on
/// the ids the report uses), so rule structure — shadowing, composition,
/// priority order — is preserved isomorphically; only MAC bytes and VNH
/// addresses in the artifacts change.
pub fn canonicalize_report(report: &CompileReport, pool: Prefix) -> CompileReport {
    let mut vnh_map: HashMap<Ipv4Addr, Ipv4Addr> = HashMap::new();
    let mut vmac_map: HashMap<MacAddr, MacAddr> = HashMap::new();
    let mut id_map: HashMap<FecId, FecId> = HashMap::new();
    let mut next: u32 = 1;
    for vgroups in report.groups.values() {
        for g in vgroups {
            id_map.insert(g.id, FecId(next));
            vnh_map.insert(g.vnh, pool.addr().saturating_add(next));
            vmac_map.insert(g.vmac, MacAddr::vmac(next));
            next += 1;
        }
    }
    let relabel_group = |g: &FecGroup| FecGroup {
        id: id_map[&g.id],
        viewer: g.viewer,
        prefixes: g.prefixes.clone(),
        vnh: vnh_map[&g.vnh],
        vmac: vmac_map[&g.vmac],
        default_next_hop: g.default_next_hop,
    };
    let groups: BTreeMap<ParticipantId, ViewerPiece> = report
        .groups
        .iter()
        .map(|(&v, gs)| {
            let relabelled = gs.iter().map(relabel_group).collect();
            (v, ViewerPiece::from_groups(relabelled))
        })
        .collect();
    let arp_bindings = report
        .arp_bindings
        .iter()
        .map(|&(a, m)| (vnh_map[&a], vmac_map[&m]))
        .collect();
    let rules: Vec<Rule> = report
        .classifier
        .rules()
        .iter()
        .map(|r| relabel_rule(r, &vmac_map))
        .collect();
    CompileReport {
        // Composed classifiers are total (they end in a wildcard rule), so
        // `from_rules` preserves the rule list byte-for-byte.
        classifier: Classifier::from_rules(rules),
        vnh_of: VnhMap::of(&groups),
        groups,
        arp_bindings,
        stats: report.stats,
    }
}

fn relabel_rule(r: &Rule, vmac_map: &HashMap<MacAddr, MacAddr>) -> Rule {
    let mut out = r.clone();
    if let Some(m) = out.matches.dl_dst {
        if let Some(&canon) = vmac_map.get(&m) {
            out.matches.dl_dst = Some(canon);
        }
    }
    if let Some(m) = out.matches.dl_src {
        if let Some(&canon) = vmac_map.get(&m) {
            out.matches.dl_src = Some(canon);
        }
    }
    let mut actions = out.actions.to_vec();
    for action in &mut actions {
        for m in &mut action.mods {
            match m {
                sdx_net::Mod::SetDlDst(mac) | sdx_net::Mod::SetDlSrc(mac) => {
                    if let Some(&canon) = vmac_map.get(mac) {
                        *mac = canon;
                    }
                }
                _ => {}
            }
        }
    }
    out.actions = actions.into();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::prefix;

    fn p(s: &str) -> Prefix {
        prefix(s)
    }

    #[test]
    fn paper_example_exact() {
        let (p1, p2, p3, p4) = (
            p("10.0.0.0/8"),
            p("20.0.0.0/8"),
            p("30.0.0.0/8"),
            p("40.0.0.0/8"),
        );
        let c = vec![
            vec![p1, p2, p3],
            vec![p1, p2, p3, p4],
            vec![p1, p2, p4],
            vec![p3],
        ];
        let mds = minimum_disjoint_subsets(&c);
        assert_eq!(mds, vec![vec![p1, p2], vec![p3], vec![p4]]);
    }

    #[test]
    fn empty_input() {
        assert!(minimum_disjoint_subsets(&[]).is_empty());
        assert!(minimum_disjoint_subsets(&[vec![]]).is_empty());
    }

    #[test]
    fn single_set_is_one_group() {
        let c = vec![vec![p("1.0.0.0/8"), p("2.0.0.0/8")]];
        assert_eq!(minimum_disjoint_subsets(&c).len(), 1);
    }

    #[test]
    fn disjoint_sets_stay_apart() {
        let c = vec![vec![p("1.0.0.0/8")], vec![p("2.0.0.0/8")]];
        let mds = minimum_disjoint_subsets(&c);
        assert_eq!(mds.len(), 2);
    }

    #[test]
    fn duplicates_within_a_set_are_harmless() {
        let c = vec![vec![p("1.0.0.0/8"), p("1.0.0.0/8"), p("2.0.0.0/8")]];
        let mds = minimum_disjoint_subsets(&c);
        assert_eq!(mds, vec![vec![p("1.0.0.0/8"), p("2.0.0.0/8")]]);
    }

    #[test]
    fn partition_property_every_input_is_union_of_parts() {
        // Randomish structured input; verify the defining property.
        let prefixes: Vec<Prefix> = (1..=16u8)
            .map(|i| Prefix::new(sdx_net::Ipv4Addr::new(i, 0, 0, 0), 8))
            .collect();
        let c: Vec<Vec<Prefix>> = vec![
            prefixes[0..8].to_vec(),
            prefixes[4..12].to_vec(),
            prefixes[10..16].to_vec(),
            vec![prefixes[3], prefixes[7], prefixes[11]],
        ];
        let mds = minimum_disjoint_subsets(&c);
        // Parts are pairwise disjoint.
        for (i, a) in mds.iter().enumerate() {
            for b in mds.iter().skip(i + 1) {
                assert!(a.iter().all(|p| !b.contains(p)));
            }
        }
        // Every input set is exactly a union of parts.
        for set in &c {
            for part in &mds {
                let inside = part.iter().filter(|p| set.contains(p)).count();
                assert!(
                    inside == 0 || inside == part.len(),
                    "part straddles an input set"
                );
            }
        }
        // Union preserved.
        let total: usize = mds.iter().map(Vec::len).sum();
        let mut union: Vec<Prefix> = c.concat();
        union.sort();
        union.dedup();
        assert_eq!(total, union.len());
    }

    #[test]
    fn partition_by_signature_groups_equal_signatures() {
        let items = vec![
            (p("1.0.0.0/8"), (1, Some(ParticipantId(2)))),
            (p("2.0.0.0/8"), (1, Some(ParticipantId(2)))),
            (p("3.0.0.0/8"), (1, Some(ParticipantId(3)))),
            (p("4.0.0.0/8"), (2, Some(ParticipantId(2)))),
        ];
        let parts = partition_by_signature(items);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], vec![p("1.0.0.0/8"), p("2.0.0.0/8")]);
    }
}
