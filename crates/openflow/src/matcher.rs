//! Compiled data-plane matcher: hash/trie fast path over the flow table.
//!
//! [`FlowTable::classify`](crate::table::FlowTable::classify) semantics are
//! a priority-ordered linear first-match walk. That is the *specification*;
//! this module is the *implementation* that makes it run at packet rate.
//! The tables the SDX deploys have a very particular shape (DESIGN.md §7.10):
//! VMAC tag stages are single-field exact matches on `dl_dst`, inbound
//! stages key on `in_port`, and FIB stages key on an `nw_dst` prefix. A
//! [`CompiledMatcher`] exploits that shape with three indexes:
//!
//! * **exact** — hash maps over `dl_dst` and `in_port`, the dominant
//!   discriminators. A pattern constraining `dl_dst` goes in the `dl_dst`
//!   map (keyed by the exact MAC); otherwise a pattern constraining
//!   `in_port` goes in the `in_port` map.
//! * **trie** — patterns constraining `nw_dst` (and neither exact field)
//!   live in a [`PrefixTrie`] bucket at their prefix; lookup walks the
//!   covering set via [`PrefixTrie::for_each_match`].
//! * **residual** — everything else (wide/multi-field patterns) stays in a
//!   priority-ordered list and is always scanned.
//!
//! Every entry lives in **exactly one** index, and the index it lives in is
//! probed for every packet the pattern could match (a pattern constraining
//! `dl_dst = M` can only match packets with `dl_dst = M`, which probe
//! bucket `M`; likewise for `in_port` and covering prefixes). So the
//! candidate set seen for a packet always contains every matching entry,
//! and the maximum priority among *verified* candidates (each candidate's
//! full pattern is re-checked with [`HeaderMatch::matches`]) is exactly the
//! priority the linear walk would return. The table then resolves the
//! winner *within that one priority band* in table order, reproducing
//! first-match tie-breaking bit-for-bit — which is what lets the
//! differential oracle assert `(index, entry)` identity against the linear
//! walk on every probe.
//!
//! Buckets are kept sorted by descending priority so a scan can stop at the
//! first verified match and prune against the best candidate found so far.
//! Coherence with the mutable table is by epoch tagging: every table
//! mutation bumps the table epoch and either updates the matcher entry by
//! entry (installs, flow-mod runs, overlay retirement and its rollback),
//! rebuilds it (classifier installs), or just restamps it (bucket/cookie
//! changes that cannot affect classification). `classify` debug-asserts
//! the epochs agree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use sdx_net::{HeaderMatch, LocatedPacket, MacAddr, PortId, PrefixTrie, WordMap};

use crate::table::FlowEntry;

/// An index entry: enough to rank (priority) and verify (full pattern).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    priority: u32,
    pattern: HeaderMatch,
}

/// Which index satisfied a lookup — for the hit-distribution telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum IndexKind {
    Exact,
    Trie,
    Residual,
}

/// Where a pattern is filed. Mirrors the module-level routing rule.
enum Route {
    DlDst(MacAddr),
    InPort(PortId),
    NwDst(sdx_net::Prefix),
    Residual,
}

fn route(pattern: &HeaderMatch) -> Route {
    if let Some(mac) = pattern.dl_dst {
        Route::DlDst(mac)
    } else if let Some(port) = pattern.in_port {
        Route::InPort(port)
    } else if let Some(p) = pattern.nw_dst {
        Route::NwDst(p)
    } else {
        Route::Residual
    }
}

/// Lookup-side hit counters. Atomics because `classify` takes `&self`
/// (the diagnostic walk must not need a mutable table) and the table must
/// stay `Sync` for the scoped-thread wave fanout.
#[derive(Debug, Default)]
struct Hits {
    exact: AtomicU64,
    trie: AtomicU64,
    residual: AtomicU64,
    miss: AtomicU64,
}

impl Clone for Hits {
    fn clone(&self) -> Self {
        Hits {
            exact: AtomicU64::new(self.exact.load(Ordering::Relaxed)),
            trie: AtomicU64::new(self.trie.load(Ordering::Relaxed)),
            residual: AtomicU64::new(self.residual.load(Ordering::Relaxed)),
            miss: AtomicU64::new(self.miss.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time snapshot of matcher shape and traffic distribution —
/// the payload behind the `dataplane.matcher.*` telemetry gauges and the
/// Mpps bench's memory/hit-rate columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatcherStats {
    /// Table epoch this matcher was built/updated for.
    pub epoch: u64,
    /// Distinct `dl_dst` + `in_port` hash keys.
    pub exact_keys: usize,
    /// Entries filed under the exact-match hash indexes.
    pub exact_entries: usize,
    /// Distinct prefixes in the `nw_dst` trie.
    pub trie_prefixes: usize,
    /// Entries filed under the trie.
    pub trie_entries: usize,
    /// Entries in the residual linear list.
    pub residual_entries: usize,
    /// Full rebuilds since table creation.
    pub builds: u64,
    /// Wall-clock nanoseconds of the most recent full rebuild.
    pub last_build_nanos: u64,
    /// Estimated index heap footprint in bytes (candidates + bucket
    /// headers + the trie's nodes by their `size_of`; an accounting
    /// estimate, not an allocator measurement).
    pub approx_bytes: usize,
    /// Lookups answered by the exact-match hash indexes.
    pub exact_hits: u64,
    /// Lookups answered by the prefix trie.
    pub trie_hits: u64,
    /// Lookups answered by the residual list.
    pub residual_hits: u64,
    /// Lookups that matched nothing (table miss).
    pub miss_count: u64,
}

/// The compiled fast path for one [`FlowTable`](crate::table::FlowTable).
///
/// Built and maintained by the table itself; external callers only observe
/// it through [`MatcherStats`]. See the module docs for the candidate-set
/// completeness argument that makes `best_priority` exact.
#[derive(Clone, Default)]
pub struct CompiledMatcher {
    by_dl_dst: WordMap<MacAddr, Vec<Candidate>>,
    by_in_port: WordMap<PortId, Vec<Candidate>>,
    by_nw_dst: PrefixTrie<Vec<Candidate>>,
    residual: Vec<Candidate>,
    epoch: u64,
    builds: u64,
    last_build_nanos: u64,
    hits: Hits,
}

/// Insert keeping the bucket sorted by descending priority (after any
/// equal-priority run; bucket-internal order among equals is irrelevant —
/// the table resolves the band).
fn insert_sorted(bucket: &mut Vec<Candidate>, c: Candidate) {
    let at = bucket.partition_point(|x| x.priority >= c.priority);
    bucket.insert(at, c);
}

fn remove_from(bucket: &mut Vec<Candidate>, priority: u32, pattern: &HeaderMatch) -> bool {
    match bucket
        .iter()
        .position(|c| c.priority == priority && &c.pattern == pattern)
    {
        Some(i) => {
            bucket.remove(i);
            true
        }
        None => false,
    }
}

impl CompiledMatcher {
    /// The table epoch this matcher reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restamp without structural change (bucket/cookie edits cannot move
    /// a classification decision).
    pub(crate) fn touch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Files one new entry. O(bucket) — the incremental path under
    /// `install` / flow-mod `Add`.
    pub(crate) fn insert(&mut self, priority: u32, pattern: &HeaderMatch, epoch: u64) {
        let c = Candidate {
            priority,
            pattern: *pattern,
        };
        match route(pattern) {
            Route::DlDst(mac) => insert_sorted(self.by_dl_dst.entry(mac).or_default(), c),
            Route::InPort(port) => insert_sorted(self.by_in_port.entry(port).or_default(), c),
            Route::NwDst(p) => insert_sorted(self.by_nw_dst.get_or_insert_with(p, Vec::new), c),
            Route::Residual => insert_sorted(&mut self.residual, c),
        }
        self.epoch = epoch;
    }

    /// Unfiles the entry at exactly (priority, pattern). The incremental
    /// path under flow-mod `Delete` and overlay retirement; empty buckets are
    /// pruned so memory tracks the live table.
    pub(crate) fn remove(&mut self, priority: u32, pattern: &HeaderMatch, epoch: u64) {
        match route(pattern) {
            Route::DlDst(mac) => {
                if let Some(b) = self.by_dl_dst.get_mut(&mac) {
                    remove_from(b, priority, pattern);
                    if b.is_empty() {
                        self.by_dl_dst.remove(&mac);
                    }
                }
            }
            Route::InPort(port) => {
                if let Some(b) = self.by_in_port.get_mut(&port) {
                    remove_from(b, priority, pattern);
                    if b.is_empty() {
                        self.by_in_port.remove(&port);
                    }
                }
            }
            Route::NwDst(p) => {
                if let Some(b) = self.by_nw_dst.get_mut(p) {
                    remove_from(b, priority, pattern);
                    if b.is_empty() {
                        self.by_nw_dst.remove(p);
                    }
                }
            }
            Route::Residual => {
                remove_from(&mut self.residual, priority, pattern);
            }
        }
        self.epoch = epoch;
    }

    /// Drops all indexed entries (table `clear`). Hit counters survive —
    /// they are lifetime telemetry, not table state.
    pub(crate) fn clear(&mut self, epoch: u64) {
        self.by_dl_dst.clear();
        self.by_in_port.clear();
        self.by_nw_dst.clear();
        self.residual.clear();
        self.epoch = epoch;
    }

    /// Full recompile from the live entry list — the bulk path under
    /// `install_classifier` and explicit
    /// [`rebuild_matcher`](crate::table::FlowTable::rebuild_matcher).
    pub(crate) fn rebuild(&mut self, entries: &[FlowEntry], epoch: u64) {
        let t0 = Instant::now();
        self.by_dl_dst.clear();
        self.by_in_port.clear();
        self.by_nw_dst.clear();
        self.residual.clear();
        for e in entries {
            self.insert(e.priority, &e.pattern, epoch);
        }
        self.epoch = epoch;
        self.builds += 1;
        self.last_build_nanos = t0.elapsed().as_nanos() as u64;
    }

    /// The priority the linear first-match walk would return for `lp`, or
    /// `None` on table miss. Exact — see the module docs. Also attributes
    /// the hit to the index that produced the winning candidate (when two
    /// indexes tie on priority the earlier-probed one is credited; the
    /// distribution is telemetry, the priority is not).
    pub fn best_priority(&self, lp: &LocatedPacket) -> Option<u32> {
        fn scan(
            bucket: &[Candidate],
            lp: &LocatedPacket,
            best: &mut Option<(u32, IndexKind)>,
            kind: IndexKind,
        ) {
            for c in bucket {
                if let Some((b, _)) = best {
                    if c.priority <= *b {
                        return; // sorted desc: nothing below can win
                    }
                }
                if c.pattern.matches(lp) {
                    *best = Some((c.priority, kind));
                    return; // first match in a sorted bucket is its best
                }
            }
        }

        let mut best: Option<(u32, IndexKind)> = None;
        if let Some(bucket) = self.by_dl_dst.get(&lp.pkt.dl_dst) {
            scan(bucket, lp, &mut best, IndexKind::Exact);
        }
        if let Some(bucket) = self.by_in_port.get(&lp.loc) {
            scan(bucket, lp, &mut best, IndexKind::Exact);
        }
        if !self.by_nw_dst.is_empty() {
            self.by_nw_dst.for_each_match(lp.pkt.nw_dst, |bucket| {
                scan(bucket, lp, &mut best, IndexKind::Trie)
            });
        }
        scan(&self.residual, lp, &mut best, IndexKind::Residual);

        match best {
            Some((priority, kind)) => {
                let counter = match kind {
                    IndexKind::Exact => &self.hits.exact,
                    IndexKind::Trie => &self.hits.trie,
                    IndexKind::Residual => &self.hits.residual,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Some(priority)
            }
            None => {
                self.hits.miss.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Shape + hit-distribution snapshot.
    pub fn stats(&self) -> MatcherStats {
        let exact_entries: usize = self
            .by_dl_dst
            .values()
            .chain(self.by_in_port.values())
            .map(Vec::len)
            .sum();
        let trie_entries: usize = self.by_nw_dst.iter().map(|(_, b)| b.len()).sum();
        let exact_keys = self.by_dl_dst.len() + self.by_in_port.len();
        let cand = std::mem::size_of::<Candidate>();
        let bucket_overhead = std::mem::size_of::<Vec<Candidate>>() + 8; // vec header + key share
        MatcherStats {
            epoch: self.epoch,
            exact_keys,
            exact_entries,
            trie_prefixes: self.by_nw_dst.len(),
            trie_entries,
            residual_entries: self.residual.len(),
            builds: self.builds,
            last_build_nanos: self.last_build_nanos,
            approx_bytes: (exact_entries + trie_entries + self.residual.len()) * cand
                + exact_keys * bucket_overhead
                + self.by_nw_dst.approx_bytes(), // nodes + bucket headers
            exact_hits: self.hits.exact.load(Ordering::Relaxed),
            trie_hits: self.hits.trie.load(Ordering::Relaxed),
            residual_hits: self.hits.residual.load(Ordering::Relaxed),
            miss_count: self.hits.miss.load(Ordering::Relaxed),
        }
    }
}

/// Summarized — the full index would drown every `assert_eq!` diff on
/// `FlowTable` (whose derived `Debug` embeds this).
impl std::fmt::Debug for CompiledMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMatcher")
            .field("epoch", &self.epoch)
            .field(
                "exact_keys",
                &(self.by_dl_dst.len() + self.by_in_port.len()),
            )
            .field("trie_prefixes", &self.by_nw_dst.len())
            .field("residual", &self.residual.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, prefix, FieldMatch, Packet, ParticipantId};

    fn port(n: u32) -> PortId {
        PortId::Phys(ParticipantId(n), 1)
    }

    fn pkt(loc: PortId, dst: &str, vmac: u32) -> LocatedPacket {
        let mut p = Packet::tcp(ip("10.0.0.1"), ip(dst), 5, 80);
        p.dl_dst = MacAddr::vmac(vmac);
        LocatedPacket::at(loc, p)
    }

    #[test]
    fn routes_to_the_expected_index() {
        let mut m = CompiledMatcher::default();
        m.insert(9, &HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(3))), 1);
        m.insert(8, &HeaderMatch::of(FieldMatch::InPort(port(1))), 2);
        m.insert(
            7,
            &HeaderMatch::of(FieldMatch::NwDst(prefix("20.0.0.0/8"))),
            3,
        );
        m.insert(1, &HeaderMatch::any(), 4);
        let s = m.stats();
        assert_eq!(s.exact_keys, 2);
        assert_eq!(s.exact_entries, 2);
        assert_eq!(s.trie_prefixes, 1);
        assert_eq!(s.trie_entries, 1);
        assert_eq!(s.residual_entries, 1);
        assert_eq!(s.epoch, 4);
        // dl_dst beats in_port in routing when both are constrained.
        let both =
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(3))).and(FieldMatch::InPort(port(1)));
        m.insert(10, &both, 5);
        assert_eq!(m.stats().exact_entries, 3);
        m.remove(10, &both, 6);
        assert_eq!(m.stats().exact_entries, 2);
    }

    #[test]
    fn best_priority_merges_across_indexes() {
        let mut m = CompiledMatcher::default();
        m.insert(5, &HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(3))), 1);
        m.insert(
            7,
            &HeaderMatch::of(FieldMatch::NwDst(prefix("20.0.0.0/8"))),
            2,
        );
        m.insert(1, &HeaderMatch::any(), 3);
        // All three indexes hold a matching candidate; trie has the max.
        assert_eq!(m.best_priority(&pkt(port(1), "20.0.0.1", 3)), Some(7));
        // Off-prefix packet: dl_dst bucket wins over residual.
        assert_eq!(m.best_priority(&pkt(port(1), "30.0.0.1", 3)), Some(5));
        // Nothing but the wildcard.
        assert_eq!(m.best_priority(&pkt(port(1), "30.0.0.1", 9)), Some(1));
        let s = m.stats();
        assert_eq!(s.trie_hits, 1);
        assert_eq!(s.exact_hits, 1);
        assert_eq!(s.residual_hits, 1);
        assert_eq!(s.miss_count, 0);
    }

    #[test]
    fn miss_counts_and_bucket_pruning() {
        let mut m = CompiledMatcher::default();
        let pat = HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(3)));
        m.insert(5, &pat, 1);
        assert_eq!(m.best_priority(&pkt(port(1), "20.0.0.1", 4)), None);
        assert_eq!(m.stats().miss_count, 1);
        m.remove(5, &pat, 2);
        assert_eq!(m.stats().exact_keys, 0, "empty buckets are pruned");
    }

    #[test]
    fn candidate_verification_rechecks_full_pattern() {
        // Filed under dl_dst, but carries an extra tp_dst constraint the
        // bucket key knows nothing about.
        let mut m = CompiledMatcher::default();
        let pat = HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(3))).and(FieldMatch::TpDst(443));
        m.insert(9, &pat, 1);
        m.insert(1, &HeaderMatch::any(), 2);
        // Right MAC, wrong port: the high candidate must be rejected.
        assert_eq!(m.best_priority(&pkt(port(1), "20.0.0.1", 3)), Some(1));
    }
}
