//! Routing Information Bases: Adj-RIB-In, Loc-RIB.
//!
//! The route server keeps one [`AdjRibIn`] per participant session (exactly
//! what that participant announced) and one [`LocRib`] holding, per prefix,
//! the full candidate set across participants. The SDX needs the *full* set
//! — not just the best route — because a participant may forward to any
//! next-hop AS that exported a route for the prefix, even a non-best one
//! (§3.2 "Forwarding only along BGP-advertised paths").

use std::collections::{BTreeMap, BTreeSet};

use sdx_net::{Asn, Ipv4Addr, ParticipantId, Prefix, PrefixTrie, RouterId};

use crate::attrs::PathAttributes;
use crate::decision;
use crate::msg::UpdateMessage;

/// Identity of the session a route was learned over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RouteSource {
    /// The SDX participant that announced the route.
    pub participant: ParticipantId,
    /// That participant's AS number.
    pub asn: Asn,
    /// Its BGP router id (decision-process tiebreak).
    pub router_id: RouterId,
    /// Its peering address on the IXP subnet (final tiebreak).
    pub peer_addr: Ipv4Addr,
}

/// A route: attributes plus where it came from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    /// Session identity.
    pub source: RouteSource,
    /// Path attributes as received.
    pub attrs: PathAttributes,
}

/// Adj-RIB-In: the routes one participant currently announces to the route
/// server, keyed by prefix.
#[derive(Clone, Debug)]
pub struct AdjRibIn {
    /// The announcing session.
    pub source: RouteSource,
    routes: PrefixTrie<PathAttributes>,
}

impl AdjRibIn {
    /// An empty RIB for the given session.
    pub fn new(source: RouteSource) -> Self {
        AdjRibIn {
            source,
            routes: PrefixTrie::new(),
        }
    }

    /// Applies an UPDATE; returns the prefixes whose state changed
    /// (announced, replaced, or withdrawn).
    pub fn apply(&mut self, update: &UpdateMessage) -> Vec<Prefix> {
        let mut changed = Vec::new();
        for p in &update.withdrawn {
            if self.routes.remove(*p).is_some() {
                changed.push(*p);
            }
        }
        if let Some(attrs) = &update.attrs {
            for p in &update.nlri {
                let prev = self.routes.insert(*p, attrs.clone());
                if prev.as_ref() != Some(attrs) {
                    changed.push(*p);
                }
            }
        }
        changed
    }

    /// The attributes this participant announces for `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&PathAttributes> {
        self.routes.get(prefix)
    }

    /// The route (attributes + source) for `prefix`, if announced.
    pub fn route(&self, prefix: Prefix) -> Option<Route> {
        self.routes.get(prefix).map(|attrs| Route {
            source: self.source,
            attrs: attrs.clone(),
        })
    }

    /// Iterates all `(prefix, attrs)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &PathAttributes)> {
        self.routes.iter()
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when nothing is announced.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Drops every route (session reset). Returns the withdrawn prefixes.
    pub fn clear(&mut self) -> Vec<Prefix> {
        let ps: Vec<Prefix> = self.routes.keys().collect();
        self.routes.clear();
        ps
    }
}

/// Loc-RIB: per prefix, every candidate route across all participants.
///
/// Alongside the per-prefix candidate table it maintains an **inverted
/// announcer index** — per participant, the set of prefixes it currently
/// has a candidate route for. Queries of the form "every prefix reachable
/// via participant X" (`RouteServer::prefixes_via`, the §4.1 BGP filter)
/// walk that participant's announced set instead of scanning the whole
/// Loc-RIB.
#[derive(Clone, Debug, Default)]
pub struct LocRib {
    candidates: PrefixTrie<Vec<Route>>,
    by_announcer: BTreeMap<ParticipantId, BTreeSet<Prefix>>,
}

impl LocRib {
    /// An empty Loc-RIB.
    pub fn new() -> Self {
        LocRib::default()
    }

    /// Replaces (or inserts) the route from `route.source.participant` for
    /// `prefix`.
    pub fn upsert(&mut self, prefix: Prefix, route: Route) {
        let announcer = route.source.participant;
        let v = self.candidates.get_or_insert_with(prefix, Vec::new);
        match v.iter_mut().find(|r| r.source.participant == announcer) {
            Some(slot) => *slot = route,
            None => v.push(route),
        }
        self.by_announcer
            .entry(announcer)
            .or_default()
            .insert(prefix);
    }

    /// Removes the candidate from `participant` for `prefix`.
    pub fn remove(&mut self, prefix: Prefix, participant: ParticipantId) {
        if let Some(v) = self.candidates.get_mut(prefix) {
            v.retain(|r| r.source.participant != participant);
            if v.is_empty() {
                self.candidates.remove(prefix);
            }
        }
        if let Some(set) = self.by_announcer.get_mut(&participant) {
            set.remove(&prefix);
            if set.is_empty() {
                self.by_announcer.remove(&participant);
            }
        }
    }

    /// All candidates for `prefix` (empty slice if none).
    pub fn candidates(&self, prefix: Prefix) -> &[Route] {
        self.candidates.get(prefix).map_or(&[], |v| v.as_slice())
    }

    /// The best route for `prefix` from the point of view of `viewer`:
    /// the decision process over all candidates *not announced by the viewer
    /// itself*. A route server never reflects a participant's route back.
    pub fn best_for(&self, prefix: Prefix, viewer: ParticipantId) -> Option<&Route> {
        decision::best_route(
            self.candidates(prefix)
                .iter()
                .filter(|r| r.source.participant != viewer),
        )
    }

    /// The participants that announced a route for `prefix` — the set a
    /// viewer may legitimately forward to, before export filtering.
    pub fn announcers(&self, prefix: Prefix) -> Vec<ParticipantId> {
        self.candidates(prefix)
            .iter()
            .map(|r| r.source.participant)
            .collect()
    }

    /// The prefixes `announcer` currently has a candidate route for, in
    /// prefix order (the inverted index; O(1) to locate, O(k) to walk).
    pub fn announced_by(&self, announcer: ParticipantId) -> impl Iterator<Item = Prefix> + '_ {
        self.by_announcer
            .get(&announcer)
            .into_iter()
            .flatten()
            .copied()
    }

    /// [`announced_by`](Self::announced_by), restricted to prefixes whose
    /// network address lies in `[lo, hi)` (`hi: None` is open-ended).
    /// O(log + slice) via the index's ordered set — `Prefix` orders
    /// addr-major, so the address band is one contiguous range. Range
    /// bounds are exclusive neighbors ((addr−1, /32) is the largest
    /// prefix below `addr`'s band) because constructing `(addr, /0)`
    /// directly would canonicalize the address away.
    pub fn announced_by_in(
        &self,
        announcer: ParticipantId,
        lo: Ipv4Addr,
        hi: Option<Ipv4Addr>,
    ) -> impl Iterator<Item = Prefix> + '_ {
        use core::ops::Bound;
        let lower = if lo.0 == 0 {
            Bound::Unbounded
        } else {
            Bound::Excluded(Prefix::new(Ipv4Addr(lo.0 - 1), 32))
        };
        let upper = match hi {
            Some(h) if h.0 > 0 => Bound::Included(Prefix::new(Ipv4Addr(h.0 - 1), 32)),
            Some(_) => Bound::Excluded(Prefix::new(Ipv4Addr(0), 0)),
            None => Bound::Unbounded,
        };
        self.by_announcer
            .get(&announcer)
            .into_iter()
            .flat_map(move |set| set.range((lower, upper)))
            .copied()
    }

    /// Whether `announcer` currently announces exactly `p` — an O(log)
    /// membership probe on the announcer index. The sharded compiler's
    /// unit pruning asks this per dirty prefix to prove a `(shard,
    /// viewer)` unit cannot have changed.
    pub fn announces(&self, announcer: ParticipantId, p: Prefix) -> bool {
        self.by_announcer
            .get(&announcer)
            .is_some_and(|set| set.contains(&p))
    }

    /// Number of prefixes `announcer` currently announces.
    pub fn announced_count(&self, announcer: ParticipantId) -> usize {
        self.by_announcer.get(&announcer).map_or(0, BTreeSet::len)
    }

    /// Longest-prefix-match lookup: the most specific prefix covering
    /// `addr` that has candidates, with those candidates.
    pub fn lookup_candidates(&self, addr: Ipv4Addr) -> Option<(Prefix, &[Route])> {
        self.candidates.lookup(addr).map(|(p, v)| (p, v.as_slice()))
    }

    /// Iterates all prefixes with at least one candidate.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.candidates.keys()
    }

    /// Number of prefixes with at least one candidate.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when no prefix has a candidate.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Adj-RIB-Out: what the route server last advertised to one peer.
///
/// The route server is stateful toward each peer: BGP only sends *changes*.
/// This structure remembers the last advertisement per prefix and turns a
/// desired state into the minimal UPDATE stream — used by the controller's
/// FIB synchronization so border routers see real incremental BGP instead
/// of full-table dumps.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AdjRibOut {
    advertised: PrefixTrie<PathAttributes>,
}

/// The advertisement a write to an [`AdjRibOut`] displaced (`None`: the
/// prefix was not advertised) — moved out of the table, not copied, and
/// what [`AdjRibOut::restore`] takes to undo the write.
pub type Displaced = Option<PathAttributes>;

impl AdjRibOut {
    /// An empty Adj-RIB-Out.
    pub fn new() -> Self {
        AdjRibOut::default()
    }

    /// The attributes last advertised for `prefix`, if any.
    pub fn advertised(&self, prefix: Prefix) -> Option<&PathAttributes> {
        self.advertised.get(prefix)
    }

    /// Number of currently advertised prefixes.
    pub fn len(&self) -> usize {
        self.advertised.len()
    }

    /// True when nothing has been advertised.
    pub fn is_empty(&self) -> bool {
        self.advertised.is_empty()
    }

    /// The currently advertised prefixes, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.advertised.keys()
    }

    /// Records the desired state for one prefix and returns the UPDATE to
    /// send, if anything changed. `None` attrs means "withdraw".
    pub fn reconcile(
        &mut self,
        prefix: Prefix,
        desired: Option<PathAttributes>,
    ) -> Option<UpdateMessage> {
        match desired {
            Some(attrs) => {
                if self.advertised.get(prefix) == Some(&attrs) {
                    return None; // already advertised exactly this
                }
                self.advertised.insert(prefix, attrs.clone());
                Some(UpdateMessage::announce([prefix], attrs))
            }
            None => {
                self.advertised.remove(prefix)?;
                Some(UpdateMessage::withdraw([prefix]))
            }
        }
    }

    /// [`reconcile`](Self::reconcile) for a route re-advertised with its
    /// NEXT_HOP rewritten (the route server's VNH hook), for callers that
    /// act on the change themselves instead of sending the UPDATE: records
    /// the desired state and returns `None` if the advertisement did not
    /// change, otherwise what it displaced. `route` is borrowed from the
    /// Loc-RIB and cloned once, into this table, only if it did — a burst
    /// pays for what it changed.
    pub fn reconcile_rewritten(
        &mut self,
        prefix: Prefix,
        desired: Option<(&PathAttributes, Ipv4Addr)>,
    ) -> Option<Displaced> {
        let Some((route, next_hop)) = desired else {
            return self.advertised.remove(prefix).map(Some);
        };
        if self
            .advertised
            .get(prefix)
            .is_some_and(|a| a.is_rewrite_of(route, next_hop))
        {
            return None;
        }
        Some(
            self.advertised
                .insert(prefix, route.clone().with_next_hop(next_hop)),
        )
    }

    /// Undoes a write to `prefix` given what it displaced: the table is
    /// as it was before the write, structure included.
    pub fn restore(&mut self, prefix: Prefix, displaced: Displaced) {
        match displaced {
            Some(attrs) => self.advertised.insert(prefix, attrs),
            None => self.advertised.remove(prefix),
        };
    }

    /// Reconciles a whole desired table at once, returning the minimal
    /// update stream (withdrawals for prefixes no longer desired, plus
    /// announcements for new/changed ones).
    pub fn reconcile_full(
        &mut self,
        desired: impl IntoIterator<Item = (Prefix, PathAttributes)>,
    ) -> Vec<UpdateMessage> {
        let desired: std::collections::BTreeMap<Prefix, PathAttributes> =
            desired.into_iter().collect();
        let mut out = Vec::new();
        let stale: Vec<Prefix> = self
            .advertised
            .keys()
            .filter(|p| !desired.contains_key(p))
            .collect();
        for p in stale {
            if let Some(u) = self.reconcile(p, None) {
                out.push(u);
            }
        }
        for (p, attrs) in desired {
            if let Some(u) = self.reconcile(p, Some(attrs)) {
                out.push(u);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::msg::simple_announce;
    use sdx_net::{ip, prefix};

    fn src(p: u32) -> RouteSource {
        RouteSource {
            participant: ParticipantId(p),
            asn: Asn(65000 + p),
            router_id: RouterId(p),
            peer_addr: Ipv4Addr(0xac000000 + p),
        }
    }

    fn rt(p: u32, path: &[u32]) -> Route {
        Route {
            source: src(p),
            attrs: PathAttributes::new(
                AsPath::sequence(path.iter().copied()),
                Ipv4Addr(0xac000000 + p),
            ),
        }
    }

    #[test]
    fn adj_rib_apply_announce_withdraw() {
        let mut rib = AdjRibIn::new(src(1));
        let up = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("172.0.0.1"));
        assert_eq!(rib.apply(&up), vec![prefix("10.0.0.0/8")]);
        assert_eq!(rib.len(), 1);
        // Re-announcing identical attributes is not a change.
        assert!(rib.apply(&up).is_empty());
        // Different attributes is a change.
        let up2 = simple_announce(prefix("10.0.0.0/8"), &[65001, 9], ip("172.0.0.1"));
        assert_eq!(rib.apply(&up2), vec![prefix("10.0.0.0/8")]);
        // Withdrawal.
        let wd = UpdateMessage::withdraw([prefix("10.0.0.0/8")]);
        assert_eq!(rib.apply(&wd), vec![prefix("10.0.0.0/8")]);
        assert!(rib.is_empty());
        // Withdrawing an absent prefix is not a change.
        assert!(rib.apply(&wd).is_empty());
    }

    #[test]
    fn adj_rib_clear_reports_prefixes() {
        let mut rib = AdjRibIn::new(src(1));
        rib.apply(&simple_announce(prefix("10.0.0.0/8"), &[1], ip("1.1.1.1")));
        rib.apply(&simple_announce(prefix("20.0.0.0/8"), &[1], ip("1.1.1.1")));
        let mut cleared = rib.clear();
        cleared.sort();
        assert_eq!(cleared, vec![prefix("10.0.0.0/8"), prefix("20.0.0.0/8")]);
        assert!(rib.is_empty());
    }

    #[test]
    fn loc_rib_upsert_replaces_per_participant() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        rib.upsert(p, rt(1, &[65001]));
        rib.upsert(p, rt(2, &[65002, 9]));
        assert_eq!(rib.candidates(p).len(), 2);
        // Same participant re-announces: replaced, not duplicated.
        rib.upsert(p, rt(1, &[65001, 7]));
        assert_eq!(rib.candidates(p).len(), 2);
    }

    #[test]
    fn loc_rib_best_excludes_viewer() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        rib.upsert(p, rt(1, &[65001])); // shortest path
        rib.upsert(p, rt(2, &[65002, 9]));
        // Viewer 3 sees participant 1's (shorter) route as best.
        assert_eq!(
            rib.best_for(p, ParticipantId(3))
                .unwrap()
                .source
                .participant,
            ParticipantId(1)
        );
        // Viewer 1 must not have its own route reflected back.
        assert_eq!(
            rib.best_for(p, ParticipantId(1))
                .unwrap()
                .source
                .participant,
            ParticipantId(2)
        );
        // A viewer who is the only announcer gets nothing.
        rib.remove(p, ParticipantId(2));
        assert!(rib.best_for(p, ParticipantId(1)).is_none());
    }

    #[test]
    fn loc_rib_remove_cleans_empty_entries() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        rib.upsert(p, rt(1, &[65001]));
        rib.remove(p, ParticipantId(1));
        assert!(rib.is_empty());
        assert!(rib.candidates(p).is_empty());
    }

    #[test]
    fn announcer_index_tracks_upserts_and_removals() {
        let mut rib = LocRib::new();
        let p1 = prefix("10.0.0.0/8");
        let p2 = prefix("20.0.0.0/8");
        rib.upsert(p1, rt(1, &[65001]));
        rib.upsert(p2, rt(1, &[65001]));
        rib.upsert(p1, rt(2, &[65002]));
        assert_eq!(
            rib.announced_by(ParticipantId(1)).collect::<Vec<_>>(),
            vec![p1, p2]
        );
        assert_eq!(rib.announced_count(ParticipantId(2)), 1);
        // Re-upserting the same (announcer, prefix) does not duplicate.
        rib.upsert(p1, rt(1, &[65001, 7]));
        assert_eq!(rib.announced_count(ParticipantId(1)), 2);
        // Removal shrinks the announced set; the last prefix removes the key.
        rib.remove(p1, ParticipantId(1));
        assert_eq!(
            rib.announced_by(ParticipantId(1)).collect::<Vec<_>>(),
            vec![p2]
        );
        rib.remove(p2, ParticipantId(1));
        assert_eq!(rib.announced_count(ParticipantId(1)), 0);
        // Removing a never-announced pair is a no-op.
        rib.remove(p2, ParticipantId(9));
        assert_eq!(rib.announced_by(ParticipantId(2)).count(), 1);
    }

    #[test]
    fn announcers_lists_all_feasible_next_hops() {
        let mut rib = LocRib::new();
        let p = prefix("10.0.0.0/8");
        rib.upsert(p, rt(1, &[65001]));
        rib.upsert(p, rt(2, &[65002]));
        let mut a = rib.announcers(p);
        a.sort();
        assert_eq!(a, vec![ParticipantId(1), ParticipantId(2)]);
    }

    #[test]
    fn adj_rib_out_sends_only_changes() {
        let mut out = AdjRibOut::new();
        let attrs = PathAttributes::new(AsPath::sequence([65001]), ip("172.16.0.1"));
        // First announcement goes out.
        let u = out
            .reconcile(prefix("10.0.0.0/8"), Some(attrs.clone()))
            .unwrap();
        assert_eq!(u.nlri, vec![prefix("10.0.0.0/8")]);
        // Re-announcing the same state is silent.
        assert!(out
            .reconcile(prefix("10.0.0.0/8"), Some(attrs.clone()))
            .is_none());
        // A changed next hop re-announces.
        let changed = attrs.clone().with_next_hop(ip("172.16.255.9"));
        assert!(out.reconcile(prefix("10.0.0.0/8"), Some(changed)).is_some());
        // Withdrawal, once.
        let w = out.reconcile(prefix("10.0.0.0/8"), None).unwrap();
        assert_eq!(w.withdrawn, vec![prefix("10.0.0.0/8")]);
        assert!(out.reconcile(prefix("10.0.0.0/8"), None).is_none());
        assert!(out.is_empty());
    }

    #[test]
    fn reconcile_rewritten_equals_reconcile_of_the_rewritten_copy() {
        let route = PathAttributes::new(AsPath::sequence([65001, 7]), ip("172.16.0.1"))
            .with_med(5)
            .with_community(crate::attrs::Community(65001, 80));
        let other = PathAttributes::new(AsPath::sequence([65002]), ip("172.16.0.2"));
        let vnh = ip("172.16.255.9");
        let p = prefix("10.0.0.0/8");
        // The same sequence of desired states through both entry points.
        let steps = [
            Some((&route, route.next_hop)),
            Some((&route, route.next_hop)),
            Some((&route, vnh)),
            Some((&other, vnh)),
            Some((&other, vnh)),
            None,
            None,
            Some((&route, vnh)),
        ];
        let (mut borrowed, mut owned) = (AdjRibOut::new(), AdjRibOut::new());
        for (i, step) in steps.into_iter().enumerate() {
            let before = borrowed.clone();
            let displaced = borrowed.reconcile_rewritten(p, step);
            let update = owned.reconcile(p, step.map(|(r, nh)| r.clone().with_next_hop(nh)));
            assert_eq!(displaced.is_some(), update.is_some(), "step {i}");
            assert_eq!(borrowed.advertised(p), owned.advertised(p), "step {i}");
            // What a change displaced puts the table back.
            if let Some(displaced) = displaced {
                let mut undone = borrowed.clone();
                undone.restore(p, displaced);
                assert_eq!(undone, before, "step {i}");
            }
        }
    }

    #[test]
    fn adj_rib_out_full_reconcile_is_minimal() {
        let mut out = AdjRibOut::new();
        let a = PathAttributes::new(AsPath::sequence([65001]), ip("172.16.0.1"));
        let b = PathAttributes::new(AsPath::sequence([65002]), ip("172.16.0.2"));
        out.reconcile(prefix("10.0.0.0/8"), Some(a.clone()));
        out.reconcile(prefix("20.0.0.0/8"), Some(a.clone()));
        // Desired: keep 10/8 unchanged, change 20/8, add 30/8, drop nothing.
        let updates = out.reconcile_full([
            (prefix("10.0.0.0/8"), a.clone()),
            (prefix("20.0.0.0/8"), b.clone()),
            (prefix("30.0.0.0/8"), b.clone()),
        ]);
        assert_eq!(updates.len(), 2, "one change + one addition: {updates:?}");
        // Desired: only 30/8 → two withdrawals.
        let updates = out.reconcile_full([(prefix("30.0.0.0/8"), b)]);
        assert_eq!(updates.len(), 2);
        assert!(updates.iter().all(|u| !u.withdrawn.is_empty()));
        assert_eq!(out.len(), 1);
    }
}
