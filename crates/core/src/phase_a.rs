//! Phase A: one interned signature map per viewer.
//!
//! The FEC signature of a prefix for a viewer (which of the viewer's
//! movable forwarding clauses reach it through a route the viewer is
//! exported, which of those cover it only partly, and the viewer's best
//! next hop for it) never reads another prefix. So phase A keeps, per
//! viewer, the map prefix → signature id over exactly the prefixes some
//! clause reaches, and a table interning each distinct signature once, as
//! one sorted run of integers ([`best_nh`], [`clauses`]). The map is
//! computed one of two ways:
//!
//! * **whole**, when no map is held under the viewer's current outbound
//!   stamp (a cold compile, a moved stamp, a new viewer): the join by next
//!   hop — each movable clause against every prefix its target exports to
//!   the viewer, read with the viewer's best announcer in one pass per
//!   target ([`RouteServer::routes_via`]) that looks up only the prefixes
//!   some clause's destination covers — sorted once and folded per prefix
//!   into one reused buffer, which is interned;
//! * **patched**, otherwise: each of the route server's dirty prefixes
//!   gets its signature written into the same buffer by
//!   [`ViewerRules::signature`], the function the §4.3.2 fast path runs,
//!   interned, and its entry inserted, replaced or removed when the id
//!   moved.
//!
//! Every mutation site of the route server — updates, session resets,
//! export-policy swaps, a new peer's loop protection — marks the prefixes
//! it can have moved dirty, so a prefix outside the dirty set keeps the
//! signature it had. Phase A only reads that set: the controller's FIB
//! sync drains it after the compile, and a compiler run on its own
//! re-patches every prefix changed since the last drain, which is
//! idempotent. A map is partitioned into FEC groups ([`FecPartition`])
//! only when an entry changed, by one pass in prefix order that numbers
//! the ids by first appearance — so groups come out ordered by their first
//! member — and leaves the table holding exactly the signatures in use. A
//! viewer whose map came through unchanged is handed the very `Arc` of
//! the last compile, which is what phase C checks.
//!
//! The whole build and the patch are two different joins — by next hop
//! and by prefix — and the warm ≡ cold suites hold one to the other: a warm
//! compile must equal a cold compile of the same world
//! (`tests/warm_equals_cold.rs`, `tests/churn_replay.rs`).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sdx_bgp::route_server::RouteServer;
use sdx_net::{ParticipantId, Prefix};
use sdx_telemetry::SharedRegistry;

use crate::fec::FecKey;
use crate::incremental::ViewerRules;
use crate::piece::{Pieces, Tally};
use crate::transform::{dst_coverage, Coverage, FwdRule};

/// The word an interned signature holds for clause `k` reaching a prefix
/// with `coverage` — `k << 1`, its low bit set when the cover is partial —
/// or `None` when the clause does not reach it. Rule indices are positions
/// in the viewer's compiled clause list.
pub(crate) fn clause_word(k: usize, coverage: Coverage) -> Option<u32> {
    let k = u32::try_from(k).expect("clause index fits a word") << 1;
    match coverage {
        Coverage::None => None,
        Coverage::Full => Some(k),
        Coverage::Partial => Some(k | 1),
    }
}

/// The viewer's best next hop for the prefixes of signature `sig`: its
/// first word. Every stored signature has one, since a clause reaches the
/// prefix only through a route the viewer is exported.
pub(crate) fn best_nh(sig: &[u32]) -> ParticipantId {
    ParticipantId(sig[0])
}

/// The clauses that reach the prefixes of signature `sig`, in clause
/// order, each with whether it covers them only partly.
pub(crate) fn clauses(sig: &[u32]) -> impl Iterator<Item = (usize, bool)> + '_ {
    sig[1..].iter().map(|&w| ((w >> 1) as usize, w & 1 == 1))
}

/// Whether clause `k` reaches the prefixes of signature `sig`: `None` if
/// not, else whether it covers them only partly.
pub(crate) fn reach(sig: &[u32], k: usize) -> Option<bool> {
    clauses(sig).find_map(|(j, partial)| (j == k).then_some(partial))
}

/// A signature's position in its viewer's table of interned ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SigId(u32);

/// A viewer's phase-A result as phase B reads it, in partition order.
#[derive(Debug, Default)]
pub(crate) struct FecPartition {
    /// Per group: its content-addressed identity (the viewer, the member
    /// prefixes, the default next hop).
    pub(crate) keys: Vec<FecKey>,
    /// Per group: its members' interned signature, shared with the table
    /// — which rules reach it ([`reach`]) and its default next hop.
    pub(crate) memberships: Vec<Arc<[u32]>>,
}

/// One viewer's phase-A state, and the one record of what it was built
/// from.
#[derive(Debug, Default)]
struct ViewerSignatures {
    /// The `(book epoch, version)` stamp of the compiled outbound policy
    /// the map was built under: it is reused only while that is still the
    /// viewer's.
    stamp: (u64, u64),
    /// prefix → signature id, over exactly the prefixes a movable clause
    /// reaches.
    signatures: BTreeMap<Prefix, SigId>,
    /// The table: the signature each id names, and back. After every
    /// partition it holds exactly those in use. Ordered, not hashed: a
    /// viewer holds few, and comparing two short runs of words is cheaper
    /// than hashing one.
    sigs: Vec<Arc<[u32]>>,
    ids: BTreeMap<Arc<[u32]>, SigId>,
    /// The map partitioned. Shared, not copied, into the compile and into
    /// the viewer's piece, which is current only while it was built from
    /// this very partition.
    partition: Arc<FecPartition>,
}

impl ViewerSignatures {
    /// The id of `sig`, which is copied in only the first time it is seen.
    fn intern(&mut self, sig: &[u32]) -> SigId {
        if let Some(&id) = self.ids.get(sig) {
            return id;
        }
        let (id, sig) = (SigId(self.sigs.len() as u32), Arc::<[u32]>::from(sig));
        self.ids.insert(sig.clone(), id);
        self.sigs.push(sig);
        id
    }

    /// Brings the entries of the route server's dirty prefixes up to date;
    /// returns whether any of them changed.
    fn patch(&mut self, rs: &RouteServer, v: &ViewerRules) -> bool {
        let mut sig = Vec::new();
        let mut moved = false;
        for &p in rs.dirty_prefixes() {
            let now = v.signature(rs, p, &mut sig).then(|| self.intern(&sig));
            if self.signatures.get(&p).copied() == now {
                continue;
            }
            moved = true;
            match now {
                Some(id) => self.signatures.insert(p, id),
                None => self.signatures.remove(&p),
            };
        }
        moved
    }

    /// Partitions the map into FEC groups: prefixes with equal ids share a
    /// group. One pass in prefix order numbers the ids by first
    /// appearance, so groups come out ordered by their first member, and
    /// the map and table are renumbered to match, which drops every
    /// signature no prefix holds any more.
    fn repartition(&mut self, viewer: ParticipantId, reg: &SharedRegistry) {
        let _partition = reg.start_timer("compile.phase_a.partition");
        let mut renumbered = vec![None; self.sigs.len()];
        let (mut keys, mut memberships) = (Vec::<FecKey>::new(), Vec::new());
        for (&p, id) in &mut self.signatures {
            let at = *renumbered[id.0 as usize].get_or_insert_with(|| {
                let sig = self.sigs[id.0 as usize].clone();
                keys.push(FecKey {
                    viewer,
                    prefixes: Vec::new(),
                    default_next_hop: Some(best_nh(&sig)),
                });
                memberships.push(sig);
                keys.len() - 1
            });
            *id = SigId(at as u32);
            keys[at].prefixes.push(p);
        }
        self.ids = memberships.iter().cloned().zip((0..).map(SigId)).collect();
        self.sigs = memberships.clone();
        self.partition = Arc::new(FecPartition { keys, memberships });
    }
}

/// Everything a compile keeps for the next one, under one fingerprint: the
/// *structural* policy-book epoch and the identity of the route server it
/// was built against (fresh per instance and per clone — see
/// `RouteServer::compile_id`). Any mismatch throws all of it away.
#[derive(Debug)]
pub(crate) struct CompileCache {
    /// The book epoch the cache was built under.
    book: u64,
    /// The route server instance it was built from.
    rs_id: u64,
    /// Every viewer's phase-A state, as the previous compile left it.
    viewers: HashMap<ParticipantId, ViewerSignatures>,
    /// Moves whenever a compile finds the route server's dirty set
    /// non-empty: what a piece that reads routes beyond phase A (a viewer
    /// holding a rewrite rule) is stamped with.
    pub(crate) route_generation: u64,
    /// Phases B–E's cached pieces (see [`crate::piece`]): inside this
    /// cache because everything that invalidates it invalidates them.
    pub(crate) pieces: Pieces,
}

/// Phase A over `viewers` — each `(id, compiled outbound stamp, clauses)`,
/// in `ParticipantId` order — against the previous compile's `cache`,
/// which it replaces: every viewer's partition, in `viewers` order, and how
/// many prefixes the route server had marked dirty. `maps` counts the
/// viewers whose map was built whole (recomputed) and those whose held map
/// was patched (reused).
pub(crate) fn run(
    cache: &mut Option<CompileCache>,
    book: u64,
    rs: &RouteServer,
    viewers: &[(ParticipantId, (u64, u64), &[FwdRule])],
    reg: &SharedRegistry,
    maps: &mut Tally,
) -> (Vec<Arc<FecPartition>>, usize) {
    let valid = cache
        .take()
        .filter(|c| c.book == book && c.rs_id == rs.compile_id());
    let dirty = rs.dirty_prefixes();
    reg.add("compile.shard.dirty_prefixes.count", dirty.len() as u64);
    let fresh = valid.is_none();
    let mut next = valid.unwrap_or_else(|| CompileCache {
        book,
        rs_id: rs.compile_id(),
        viewers: HashMap::new(),
        route_generation: 0,
        pieces: Pieces::default(),
    });
    if !dirty.is_empty() {
        next.route_generation += 1;
    }
    let mut held = std::mem::take(&mut next.viewers);
    let (mut repartitioned, mut policy_dirty) = (0, 0);
    let mut partitions = Vec::with_capacity(viewers.len());
    for &(viewer, stamp, rules) in viewers {
        let v = ViewerRules::of(viewer, rules);
        let entry = match held.remove(&viewer).filter(|held| held.stamp == stamp) {
            Some(mut kept) => {
                maps.reused += 1;
                if kept.patch(rs, &v) {
                    kept.repartition(viewer, reg);
                    repartitioned += 1;
                }
                kept
            }
            None => {
                maps.recomputed += 1;
                policy_dirty += usize::from(!fresh);
                let mut built = {
                    let _whole = reg.start_timer("compile.phase_a.whole");
                    build_whole(rs, &v, stamp)
                };
                built.repartition(viewer, reg);
                repartitioned += 1;
                built
            }
        };
        partitions.push(entry.partition.clone());
        next.viewers.insert(viewer, entry);
    }
    // Viewers re-partitioned and served. The names predate the per-viewer
    // maps; the benchmark's replica reads them.
    reg.add("compile.shard.recompiled.count", repartitioned as u64);
    reg.add(
        "compile.shard.skipped.count",
        (viewers.len() - repartitioned) as u64,
    );
    // Whatever is still held belonged to a viewer whose outbound policy is
    // gone.
    reg.add(
        "policy.dirty_units.count",
        (policy_dirty + held.len()) as u64,
    );
    // One interned signature per FEC group: partitioning compacts a table.
    let interned: usize = next.viewers.values().map(|v| v.sigs.len()).sum();
    reg.set_gauge("compile.phase_a.interned", interned as i64);
    *cache = Some(next);
    (partitions, dirty.len())
}

/// A viewer's map built whole: the join by next hop (one
/// [`RouteServer::routes_via`] per distinct target, shared by the
/// clauses forwarding to it, asked only for the prefixes one of them
/// covers, which also names the viewer's best announcer) collected as
/// `(prefix, clause word, best next hop)`, sorted once and folded per
/// prefix into one reused buffer, which is interned; the map is built in
/// bulk from that sorted run. Not yet partitioned.
fn build_whole(rs: &RouteServer, v: &ViewerRules, stamp: (u64, u64)) -> ViewerSignatures {
    let mut by_target = v.movable.clone();
    by_target.sort_unstable_by_key(|&(k, nh)| (nh, k));
    let mut reached = Vec::new();
    for forwarding in by_target.chunk_by(|a, b| a.1 == b.1) {
        let words = |p| {
            (forwarding.iter())
                .filter_map(move |&(k, _)| clause_word(k, dst_coverage(&v.rules[k].matches, p)))
        };
        let covered = |p| words(p).next().is_some();
        for (p, best) in rs.routes_via(v.viewer, forwarding[0].1, covered) {
            reached.extend(words(p).map(|word| (p, word, best)));
        }
    }
    reached.sort_unstable_by_key(|&(p, word, _)| (p, word));
    let mut built = ViewerSignatures {
        stamp,
        ..ViewerSignatures::default()
    };
    let mut sig = Vec::new();
    built.signatures = (reached.chunk_by(|a, b| a.0 == b.0))
        .map(|run| {
            sig.clear();
            sig.push(run[0].2 .0);
            sig.extend(run.iter().map(|&(_, word, _)| word));
            (run[0].0, built.intern(&sig))
        })
        .collect();
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdx_net::Ipv4Addr;

    /// A few signatures in interned form, some sharing a best next hop or
    /// a clause, so that equal and unequal ones both occur.
    const POOL: [&[u32]; 6] = [&[2, 0], &[2, 1], &[3, 0], &[2, 0, 5], &[3, 1, 4], &[7, 2]];

    fn pfx(i: u32) -> Prefix {
        Prefix::new(Ipv4Addr(i << 8), 24)
    }

    /// The partition by definition: prefixes grouped by signature
    /// equality, groups ordered by their first member.
    fn grouped(map: &BTreeMap<u32, usize>) -> Vec<(Vec<Prefix>, &'static [u32])> {
        let mut by_sig: BTreeMap<usize, Vec<Prefix>> = BTreeMap::new();
        for (&i, &s) in map {
            by_sig.entry(s).or_default().push(pfx(i));
        }
        let mut groups: Vec<_> = (by_sig.into_iter())
            .map(|(s, prefixes)| (prefixes, POOL[s]))
            .collect();
        groups.sort_by_key(|(prefixes, _)| prefixes[0]);
        groups
    }

    /// The held partition against [`grouped`], and the table holding
    /// exactly the signatures in use.
    fn assert_partitioned(held: &ViewerSignatures, map: &BTreeMap<u32, usize>) {
        let FecPartition { keys, memberships } = &*held.partition;
        let got: Vec<(Vec<Prefix>, &[u32])> = (keys.iter().zip(memberships))
            .map(|(key, sig)| (key.prefixes.clone(), &sig[..]))
            .collect();
        assert_eq!(got, grouped(map));
        for (key, sig) in keys.iter().zip(memberships) {
            assert_eq!(key.default_next_hop, Some(best_nh(sig)));
        }
        assert_eq!(held.sigs, *memberships);
        assert_eq!(held.ids.len(), memberships.len());
    }

    proptest! {
        /// The counting-sort partition equals grouping by signature
        /// equality ordered by first member, on a map built in bulk and
        /// again after random patches (inserts, replacements, removals)
        /// of the same interned table.
        #[test]
        fn partition_groups_by_signature_in_first_member_order(
            built in proptest::collection::btree_map(0u32..48, 0..POOL.len(), 0..48),
            patches in proptest::collection::vec(
                proptest::collection::vec((0u32..48, proptest::option::of(0..POOL.len())), 0..12),
                1..4,
            ),
        ) {
            let mut map = built;
            let mut held = ViewerSignatures::default();
            for (&i, &s) in &map {
                let id = held.intern(POOL[s]);
                held.signatures.insert(pfx(i), id);
            }
            let reg = SharedRegistry::default();
            held.repartition(ParticipantId(1), &reg);
            assert_partitioned(&held, &map);
            for round in patches {
                for (i, now) in round {
                    match now {
                        Some(s) => {
                            map.insert(i, s);
                            let id = held.intern(POOL[s]);
                            held.signatures.insert(pfx(i), id);
                        }
                        None => {
                            map.remove(&i);
                            held.signatures.remove(&pfx(i));
                        }
                    }
                }
                held.repartition(ParticipantId(1), &reg);
                assert_partitioned(&held, &map);
            }
        }
    }

    #[test]
    fn reach_reads_clause_words() {
        let sig = [
            4,
            clause_word(1, Coverage::Full).unwrap(),
            clause_word(3, Coverage::Partial).unwrap(),
        ];
        assert_eq!(clause_word(2, Coverage::None), None);
        assert_eq!(best_nh(&sig), ParticipantId(4));
        assert_eq!(
            clauses(&sig).collect::<Vec<_>>(),
            vec![(1, false), (3, true)]
        );
        assert_eq!(
            (0..5).map(|k| reach(&sig, k)).collect::<Vec<_>>(),
            vec![None, Some(false), None, Some(true), None]
        );
    }
}
