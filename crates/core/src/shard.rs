//! Phase A's unit of work: contiguous prefix-range shards.
//!
//! [`compile_all`](crate::compiler::SdxCompiler::compile_all) partitions
//! the prefix space into contiguous ranges — a [`ShardPlan`] — and runs the
//! expensive per-viewer phase (BGP joins, affected sets, decision
//! resolution) **per (shard, viewer) unit** over only its slice of the
//! Loc-RIB. There is no whole-exchange variant: a cold compile is the case
//! where every unit is dirty.
//!
//! ## Shard-count invariance by construction
//!
//! The FEC signature of a prefix (`(rule membership, partial marks, best
//! next hop)`) is computed **per prefix** — it never looks at any other
//! prefix. So restricting a compile unit to a contiguous prefix range and
//! then unioning the per-shard signature maps reproduces the
//! whole-exchange signature map *exactly*, and the global
//! [`partition_by_signature`](crate::fec::partition_by_signature) over the
//! merged map yields the same FEC partition, group for group, at every
//! shard count. The merge step — plus the global partition and the
//! per-viewer best-route defaults it carries — is the whole cross-shard
//! coordination; wide-match policies that straddle ranges need no special
//! casing because every shard joins the same rules against its own slice.
//!
//! Group ids are drawn from the one VNH pool in group enumeration order,
//! so cold compiles number their groups identically whatever the count;
//! a *warm* compile keeps surviving groups on the ids they already hold
//! (keyed reuse), which a cold compile of the same world would number
//! differently. [`canonicalize_report`] quotients that away — it relabels
//! any report's ids into canonical enumeration order so equivalence suites
//! can assert *byte equality* between a warm and a cold compile (see
//! `tests/shard_props.rs`), and the differential oracle checks the
//! uncanonicalized artifacts end-to-end (`tests/shard_oracle.rs`).
//!
//! ## Incremental recompilation
//!
//! The compiler caches each `(shard, viewer)` unit's signature slice with
//! the stamp of the compiled outbound policy it was built from, and
//! recomputes a unit only when that stamp is no longer the viewer's or
//! when its shard contains a dirty prefix (tracked by the route server's
//! compile-dirty set) that can reach it. A BGP burst that touches one /8
//! recompiles one shard's units; a policy push recompiles the editor's
//! units; an idle reoptimize recomputes **zero**
//! (`compile.shard.skipped.count` equals the shard count). The phase-A
//! join dominates compile time and churn is spatially local, which is why
//! the count matters at all.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use sdx_net::{Ipv4Addr, MacAddr, ParticipantId, Prefix};
use sdx_policy::classifier::{Classifier, Rule};

use crate::compiler::CompileReport;
use crate::fec::{FecGroup, FecId, FecKey};
use crate::piece::{Pieces, ViewerPiece, VnhMap};

/// Upper bound on the shard count — far above any useful fan-out, but
/// keeps a typo'd `1 << 30` from allocating absurd plans.
pub const MAX_SHARDS: usize = 4096;

/// The shard count production compiles at. Eight ranges keep an idle or
/// one-prefix recompile at an eighth of the table per touched viewer while
/// the per-unit bookkeeping (8 × viewers cache entries) stays negligible;
/// it is also what every committed benchmark number was measured at.
pub const DEFAULT_SHARDS: usize = 8;

/// A requested shard count as the plan will use it: rounded up to a power
/// of two, clamped to `[1, MAX_SHARDS]`.
pub(crate) fn clamp_shards(n: usize) -> usize {
    n.clamp(1, MAX_SHARDS).next_power_of_two()
}

/// A partition of the IPv4 prefix space into contiguous address ranges.
///
/// Shard `i` covers network addresses in `[starts[i], starts[i+1])` (the
/// last shard runs to the top of the address space). A prefix belongs to
/// the shard containing its **network address** — prefixes are never
/// split, so every compile unit sees whole Loc-RIB entries and the union
/// over shards is exactly the full table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// First covered address per shard; `starts[0] == 0`, strictly
    /// increasing.
    starts: Vec<u32>,
}

impl ShardPlan {
    /// `n` equal-width address ranges (`n` clamped to a power of two).
    /// Address-uniform, not load-uniform — prefer [`balanced`](Self::balanced)
    /// when the announced table is known.
    pub fn uniform(n: usize) -> ShardPlan {
        let n = clamp_shards(n);
        let starts = (0..n)
            .map(|i| ((i as u64) << 32 >> n.trailing_zeros()) as u32)
            .collect();
        ShardPlan { starts }
    }

    /// `n` ranges with boundaries at the quantiles of the *announced*
    /// prefix distribution, so each shard holds a comparable slice of the
    /// actual table (real tables cluster: a plan uniform in address space
    /// would leave most shards empty). Boundaries the table cannot supply
    /// (fewer distinct addresses than shards) are filled by bisecting the
    /// widest remaining range. Degenerates to [`uniform`](Self::uniform)
    /// on an empty table.
    pub fn balanced(n: usize, prefixes: impl IntoIterator<Item = Prefix>) -> ShardPlan {
        let n = clamp_shards(n);
        let mut addrs: Vec<u32> = prefixes.into_iter().map(|p| p.addr().0).collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.is_empty() {
            return ShardPlan::uniform(n);
        }
        let mut starts: BTreeSet<u32> = [0].into();
        for i in 1..n {
            starts.insert(addrs[i * addrs.len() / n]);
        }
        // Quantiles can collide (heavy clustering); top the plan back up
        // to n ranges by bisecting the widest range until no range can be
        // split further.
        while starts.len() < n {
            let v: Vec<u32> = starts.iter().copied().collect();
            let (mut at, mut width) = (0u32, 0u64);
            for (i, &s) in v.iter().enumerate() {
                let end = v.get(i + 1).map_or(1u64 << 32, |&e| u64::from(e));
                let w = end - u64::from(s);
                if w > width {
                    width = w;
                    at = s;
                }
            }
            if width < 2 || !starts.insert(at + (width / 2) as u32) {
                break;
            }
        }
        ShardPlan {
            starts: starts.into_iter().collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Always false — a plan has at least one shard.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard whose range contains address `a`.
    pub fn shard_of_addr(&self, a: Ipv4Addr) -> usize {
        self.starts.partition_point(|&s| s <= a.0) - 1
    }

    /// The shard owning prefix `p` (by its network address).
    pub fn shard_of(&self, p: Prefix) -> usize {
        self.shard_of_addr(p.addr())
    }

    /// Shard `i`'s range as `[lo, hi)`; `hi == None` means "to the top of
    /// the address space". Compile units pass these straight to the route
    /// server's bounded join.
    pub fn range(&self, i: usize) -> (Ipv4Addr, Option<Ipv4Addr>) {
        (
            Ipv4Addr(self.starts[i]),
            self.starts.get(i + 1).map(|&s| Ipv4Addr(s)),
        )
    }

    /// The boundary addresses between consecutive shards (`starts[1..]`) —
    /// the places where cross-shard coordination could plausibly go wrong,
    /// and exactly where the oracle fuzz suite aims its probes.
    pub fn boundaries(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.starts[1..].iter().map(|&s| Ipv4Addr(s))
    }
}

/// One cached `(shard, viewer)` compile unit: the signature slice and
/// batched decisions for the viewer restricted to the shard's range.
/// Merging the per-shard `sig`/`best_nh` maps (disjoint key ranges)
/// gives the viewer's whole-exchange phase-A output exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct ShardUnit {
    /// prefix → (rule memberships, partial-coverage marks), restricted to
    /// the shard's range. Rule indices are positions in the viewer's
    /// compiled rule list as of [`ViewerUnits::stamp`].
    pub(crate) sig: BTreeMap<Prefix, (BTreeSet<usize>, BTreeSet<usize>)>,
    /// prefix → viewer's best-route next hop, same restriction.
    pub(crate) best_nh: BTreeMap<Prefix, Option<ParticipantId>>,
}

/// One viewer's phase-A output, and the one record of what it was built
/// from.
#[derive(Debug)]
pub(crate) struct ViewerUnits {
    /// The `(book epoch, version)` stamp of the compiled outbound policy
    /// the units were built from: they are reused only while it is still
    /// the viewer's.
    pub(crate) stamp: (u64, u64),
    /// One unit per shard, in shard order.
    pub(crate) shards: Vec<ShardUnit>,
    /// The units merged and partitioned, rebuilt only when a recomputed
    /// unit came back changed (churn that cancels, or dirt in prefixes
    /// the viewer never sees, keeps it). Shared, not copied, into the
    /// compile and into the viewer's piece, which is current only while
    /// it was built from this very output.
    pub(crate) merged: Arc<MergedFecs>,
}

/// The compiler's incremental shard cache: the stable plan plus every
/// viewer's units from the previous compile, fingerprinted by what every
/// unit reads beyond its viewer's policy — the plan size, the
/// *structural* policy-book epoch, the route-server identity. Any
/// fingerprint mismatch throws the whole cache away. Within a valid
/// cache, a viewer's units survive only under its current outbound
/// stamp, and are then recomputed one by one where a route-dirty prefix
/// can reach them (see `SdxCompiler::compile_fecs`).
#[derive(Debug)]
pub(crate) struct ShardCache {
    pub(crate) plan: ShardPlan,
    /// The book epoch the cache was built under.
    pub(crate) book: u64,
    /// Identity of the route server instance the units were built from
    /// (fresh per instance and per clone — see `RouteServer::compile_id`).
    pub(crate) rs_id: u64,
    /// Every viewer's units, as the previous compile left them.
    pub(crate) viewers: HashMap<ParticipantId, ViewerUnits>,
    /// Moves whenever a compile finds the route server's compile-dirty set
    /// non-empty: what a piece that reads routes beyond phase A (a viewer
    /// holding a rewrite rule) is stamped with.
    pub(crate) route_generation: u64,
    /// Phases B–E's cached pieces (see [`crate::piece`]): inside this
    /// cache because everything that invalidates it invalidates them.
    pub(crate) pieces: Pieces,
}

/// A viewer's merged phase-A result — what `compile_fecs` hands phase B
/// and what the cache keeps — in partition order.
#[derive(Debug)]
pub(crate) struct MergedFecs {
    /// Per group: its content-addressed identity (the viewer, the member
    /// prefixes, the default next hop).
    pub(crate) keys: Vec<FecKey>,
    /// Per group: the rules whose affected set contains it, and those
    /// among them covering it only partially.
    pub(crate) memberships: Vec<(BTreeSet<usize>, BTreeSet<usize>)>,
}

/// Relabels a report's `(FecId, VNH, VMAC)` identities into canonical
/// enumeration order — groups numbered from 1 in `(viewer, position)`
/// order — leaving everything else untouched. Two reports that induce the
/// same forwarding function but drew ids differently (keyed reuse from an
/// older allocator against a cold compile) canonicalize to **equal**
/// reports, so equivalence tests get to use plain `assert_eq!` instead of
/// a bespoke bisimulation. Stats are copied verbatim (they carry
/// wall-clock and are excluded from comparisons anyway).
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
    use sdx_net::{ip, prefix};

    #[test]
    fn shard_counts_round_and_clamp() {
        assert_eq!(clamp_shards(3), 4);
        assert_eq!(clamp_shards(8), 8);
        assert_eq!(clamp_shards(0), 1);
        assert_eq!(clamp_shards(usize::MAX), MAX_SHARDS);
        assert_eq!(clamp_shards(DEFAULT_SHARDS), DEFAULT_SHARDS);
    }

    #[test]
    fn uniform_plan_covers_the_space() {
        let plan = ShardPlan::uniform(4);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.shard_of_addr(ip("0.0.0.1")), 0);
        assert_eq!(plan.shard_of_addr(ip("63.255.255.255")), 0);
        assert_eq!(plan.shard_of_addr(ip("64.0.0.0")), 1);
        assert_eq!(plan.shard_of_addr(ip("128.0.0.0")), 2);
        assert_eq!(plan.shard_of_addr(ip("255.255.255.255")), 3);
        assert_eq!(plan.range(0), (Ipv4Addr(0), Some(ip("64.0.0.0"))));
        assert_eq!(plan.range(3), (ip("192.0.0.0"), None));
        assert_eq!(plan.boundaries().count(), 3);
        // Prefixes route by network address, never split.
        assert_eq!(plan.shard_of(prefix("63.0.0.0/8")), 0);
    }

    #[test]
    fn balanced_plan_tracks_the_table() {
        // A table clustered entirely in 100/8 (the ixp synthetic universe):
        // a uniform plan would put everything in one shard; balanced splits
        // the cluster.
        let table: Vec<Prefix> = (0..64)
            .map(|i| Prefix::new(Ipv4Addr::new(100, i, 0, 0), 24))
            .collect();
        let plan = ShardPlan::balanced(4, table.iter().copied());
        assert_eq!(plan.len(), 4);
        let mut per_shard = vec![0usize; 4];
        for &p in &table {
            per_shard[plan.shard_of(p)] += 1;
        }
        assert!(
            per_shard.iter().all(|&c| c >= 8),
            "no shard is starved: {per_shard:?}"
        );
        // Degenerate inputs still produce full plans.
        assert_eq!(ShardPlan::balanced(4, []), ShardPlan::uniform(4));
        let tiny = ShardPlan::balanced(8, [prefix("10.0.0.0/8")]);
        assert_eq!(tiny.len(), 8, "bisection tops up missing boundaries");
    }

    #[test]
    fn every_address_has_exactly_one_shard() {
        for plan in [
            ShardPlan::uniform(1),
            ShardPlan::uniform(8),
            ShardPlan::balanced(
                4,
                (0..10).map(|i| Prefix::new(Ipv4Addr::new(10 * i, 0, 0, 0), 8)),
            ),
        ] {
            let mut prev_end = Some(Ipv4Addr(0));
            for i in 0..plan.len() {
                let (lo, hi) = plan.range(i);
                assert_eq!(Some(lo), prev_end, "ranges tile with no gap");
                assert_eq!(plan.shard_of_addr(lo), i);
                prev_end = hi;
            }
            assert_eq!(prev_end, None, "last range is open-ended");
        }
    }
}
