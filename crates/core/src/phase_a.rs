//! Phase A: one signature map per viewer.
//!
//! The FEC signature of a prefix for a viewer ([`Signature`]: which of the
//! viewer's movable forwarding clauses reach it through a route the viewer
//! is exported, which of those cover it only partly, and the viewer's best
//! next hop for it) never reads another prefix. So phase A keeps, per
//! viewer, the map prefix → signature over exactly the prefixes some
//! clause reaches, and computes it one of two ways:
//!
//! * **whole**, when no map is held under the viewer's current outbound
//!   stamp (a cold compile, a moved stamp, a new viewer): the join by next
//!   hop — each movable clause against every prefix its target exports to
//!   the viewer ([`RouteServer::prefixes_via`]) — then one best-route
//!   decision per prefix reached;
//! * **patched**, otherwise: each of the route server's dirty prefixes
//!   gets its signature recomputed by [`ViewerRules::signature`],
//!   the function the §4.3.2 fast path runs, and its entry inserted,
//!   replaced or removed.
//!
//! Every mutation site of the route server — updates, session resets,
//! export-policy swaps, a new peer's loop protection — marks the prefixes
//! it can have moved dirty, so a prefix outside the dirty set keeps the
//! signature it had. Phase A only reads that set: the controller's FIB
//! sync drains it after the compile, and a compiler run on its own
//! re-patches every prefix changed since the last drain, which is
//! idempotent. A map is partitioned into FEC groups
//! ([`FecPartition`]) only when an entry changed; a viewer whose map came
//! through unchanged is handed the very `Arc` of the last compile, which is
//! what phase C checks.
//!
//! The whole build and the patch are two different joins — by next hop
//! and by prefix — and the warm ≡ cold suites hold one to the other: a warm
//! compile must equal a cold compile of the same world
//! (`tests/warm_equals_cold.rs`, `tests/churn_replay.rs`).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use sdx_bgp::route_server::RouteServer;
use sdx_net::{ParticipantId, Prefix};
use sdx_telemetry::SharedRegistry;

use crate::fec::{partition_by_signature, FecKey};
use crate::incremental::ViewerRules;
use crate::piece::{Pieces, Tally};
use crate::transform::{dst_coverage, Coverage, FwdRule};

/// Rule indices whose affected set contains a prefix or group, and the
/// subset that covers it only partly.
pub(crate) type GroupMembership = (BTreeSet<usize>, BTreeSet<usize>);

/// What phase A knows of one prefix for one viewer. Rule indices are
/// positions in the viewer's compiled clause list.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Signature {
    /// The movable clauses that reach the prefix.
    pub(crate) member: BTreeSet<usize>,
    /// Those among them whose destination match covers it only partly.
    pub(crate) partial: BTreeSet<usize>,
    /// The viewer's best-route next hop for the prefix.
    pub(crate) best_nh: Option<ParticipantId>,
}

impl Signature {
    /// Records that clause `k` reaches the prefix with `coverage`.
    pub(crate) fn cover(&mut self, k: usize, coverage: Coverage) {
        match coverage {
            Coverage::None => {}
            Coverage::Full => {
                self.member.insert(k);
            }
            Coverage::Partial => {
                self.member.insert(k);
                self.partial.insert(k);
            }
        }
    }
}

/// A viewer's phase-A result as phase B reads it, in partition order.
#[derive(Debug)]
pub(crate) struct FecPartition {
    /// Per group: its content-addressed identity (the viewer, the member
    /// prefixes, the default next hop).
    pub(crate) keys: Vec<FecKey>,
    /// Per group: the rules whose affected set contains it, and those
    /// among them covering it only partially.
    pub(crate) memberships: Vec<GroupMembership>,
}

/// One viewer's phase-A state, and the one record of what it was built
/// from.
#[derive(Debug)]
struct ViewerSignatures {
    /// The `(book epoch, version)` stamp of the compiled outbound policy
    /// the map was built under: it is reused only while that is still the
    /// viewer's.
    stamp: (u64, u64),
    /// prefix → signature, over exactly the prefixes a movable clause
    /// reaches.
    signatures: BTreeMap<Prefix, Signature>,
    /// The map partitioned. Shared, not copied, into the compile and into
    /// the viewer's piece, which is current only while it was built from
    /// this very partition.
    partition: Arc<FecPartition>,
}

impl ViewerSignatures {
    /// Brings the entries of the `dirty` prefixes up to date; returns
    /// whether any of them changed.
    fn patch(&mut self, rs: &RouteServer, v: &ViewerRules, dirty: &BTreeSet<Prefix>) -> bool {
        let mut moved = false;
        for &p in dirty {
            let now = v.signature(rs, p);
            if self.signatures.get(&p) == now.as_ref() {
                continue;
            }
            moved = true;
            match now {
                Some(sig) => self.signatures.insert(p, sig),
                None => self.signatures.remove(&p),
            };
        }
        moved
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
                if kept.patch(rs, &v, dirty) {
                    kept.partition = partition(viewer, &kept.signatures, reg);
                    repartitioned += 1;
                }
                kept
            }
            None => {
                maps.recomputed += 1;
                policy_dirty += usize::from(!fresh);
                let signatures = {
                    let _whole = reg.start_timer("compile.phase_a.whole");
                    build_whole(rs, &v)
                };
                repartitioned += 1;
                ViewerSignatures {
                    stamp,
                    partition: partition(viewer, &signatures, reg),
                    signatures,
                }
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
    *cache = Some(next);
    (partitions, dirty.len())
}

/// A viewer's map built whole: the join by next hop (one
/// [`RouteServer::prefixes_via`] per distinct target, shared by the
/// clauses forwarding to it), then one best-route decision per prefix the
/// join reached.
fn build_whole(rs: &RouteServer, v: &ViewerRules) -> BTreeMap<Prefix, Signature> {
    let mut signatures: BTreeMap<Prefix, Signature> = BTreeMap::new();
    let mut via: HashMap<ParticipantId, Vec<Prefix>> = HashMap::new();
    for &(k, nh) in &v.movable {
        let reached = via
            .entry(nh)
            .or_insert_with(|| rs.prefixes_via(v.viewer, nh));
        for &p in reached.iter() {
            let coverage = dst_coverage(&v.rules[k].matches, p);
            if coverage != Coverage::None {
                signatures.entry(p).or_default().cover(k, coverage);
            }
        }
    }
    for (&p, sig) in &mut signatures {
        sig.best_nh = rs.best_for(v.viewer, p).map(|r| r.source.participant);
    }
    signatures
}

/// A viewer's map partitioned into FEC groups: prefixes with equal
/// signatures share a group, groups ordered by their first member.
fn partition(
    viewer: ParticipantId,
    signatures: &BTreeMap<Prefix, Signature>,
    reg: &SharedRegistry,
) -> Arc<FecPartition> {
    let _partition = reg.start_timer("compile.phase_a.partition");
    // Signatures are borrowed: grouping needs only Ord/Eq, and a reference
    // compares by contents.
    let parts = partition_by_signature(signatures.iter().map(|(&p, sig)| (p, sig)));
    let (keys, memberships) = parts
        .into_iter()
        .map(|prefixes| {
            let sig = &signatures[&prefixes[0]];
            let key = FecKey {
                viewer,
                default_next_hop: sig.best_nh,
                prefixes,
            };
            (key, (sig.member.clone(), sig.partial.clone()))
        })
        .unzip();
    Arc::new(FecPartition { keys, memberships })
}
