//! Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Outs.
//!
//! The route server keeps one [`AdjRibIn`] per participant session (exactly
//! what that participant announced) and one [`LocRib`] holding, per prefix,
//! the full candidate set across participants. The SDX needs the *full* set
//! — not just the best route — because a participant may forward to any
//! next-hop AS that exported a route for the prefix, even a non-best one
//! (§3.2 "Forwarding only along BGP-advertised paths").

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sdx_net::{Asn, Ipv4Addr, ParticipantId, Prefix, PrefixTrie, RouterId, View, ViewTable};

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
    /// Path attributes as received: one copy per UPDATE, shared by its
    /// NLRI, the Adj-RIB-In, the Loc-RIB and the Adj-RIB-Outs.
    pub attrs: Arc<PathAttributes>,
}

/// Adj-RIB-In: the routes one participant currently announces to the route
/// server, keyed by prefix.
#[derive(Clone, Debug)]
pub struct AdjRibIn {
    /// The announcing session.
    pub source: RouteSource,
    routes: PrefixTrie<Arc<PathAttributes>>,
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
    /// (announced, replaced, or withdrawn). The prefixes it announces
    /// anew share one copy of its attributes; one that re-announces what
    /// it held keeps the copy it had.
    pub fn apply(&mut self, update: &UpdateMessage) -> Vec<Prefix> {
        let mut changed = Vec::new();
        for p in &update.withdrawn {
            if self.routes.remove(*p).is_some() {
                changed.push(*p);
            }
        }
        if let Some(attrs) = &update.attrs {
            let mut shared: Option<Arc<PathAttributes>> = None;
            let mut share = || Arc::clone(shared.get_or_insert_with(|| Arc::new(attrs.clone())));
            for &p in &update.nlri {
                match self.routes.get_mut(p) {
                    Some(held) if **held == *attrs => continue,
                    Some(held) => *held = share(),
                    None => drop(self.routes.insert(p, share())),
                }
                changed.push(p);
            }
        }
        changed
    }

    /// The attributes this participant announces for `prefix`, if any.
    pub fn get(&self, prefix: Prefix) -> Option<&PathAttributes> {
        self.routes.get(prefix).map(|attrs| &**attrs)
    }

    /// The route (attributes + source) for `prefix`, if announced.
    pub fn route(&self, prefix: Prefix) -> Option<Route> {
        self.routes.get(prefix).map(|attrs| Route {
            source: self.source,
            attrs: Arc::clone(attrs),
        })
    }

    /// Iterates all `(prefix, attrs)` pairs in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &PathAttributes)> {
        self.routes.iter().map(|(p, attrs)| (p, &**attrs))
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

/// Loc-RIB: per prefix, every candidate route across all participants,
/// ranked: each prefix's candidates are kept in [`decision::compare`]
/// order, best first, so the decision process runs once per route that
/// changes, on insert, and a query reads the ranking instead of re-running
/// it. One candidate per announcer, and the announcer is the last
/// tiebreak, so the order is strict and the same whatever order the
/// routes arrived in.
///
/// Alongside the per-prefix candidate table it maintains an **inverted
/// announcer index** — per participant, the set of prefixes it currently
/// has a candidate route for. Queries of the form "every prefix reachable
/// via participant X" (`RouteServer::routes_via`, the §4.1 BGP filter)
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
    /// `prefix`, at its rank among the prefix's candidates.
    pub fn upsert(&mut self, prefix: Prefix, route: Route) {
        let announcer = route.source.participant;
        let v = self.candidates.get_or_insert_with(prefix, Vec::new);
        v.retain(|r| r.source.participant != announcer);
        let at = v.partition_point(|r| decision::compare(r, &route).is_gt());
        v.insert(at, route);
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

    /// All candidates for `prefix`, best first (empty slice if none).
    pub fn candidates(&self, prefix: Prefix) -> &[Route] {
        self.candidates.get(prefix).map_or(&[], |v| v.as_slice())
    }

    /// The participants that announced a route for `prefix`, best route
    /// first — the set a viewer may legitimately forward to, before export
    /// filtering.
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

    /// Number of prefixes `announcer` currently announces.
    pub fn announced_count(&self, announcer: ParticipantId) -> usize {
        self.by_announcer.get(&announcer).map_or(0, BTreeSet::len)
    }

    /// Longest-prefix-match lookup: the most specific prefix covering
    /// `addr` that has candidates, with those candidates, best first.
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

/// One advertisement in the Adj-RIB-Outs: a route's attributes, shared
/// with the RIBs that hold the route, under the NEXT_HOP the route server
/// advertises them with (the route's own, or a virtual next hop, §4.2).
/// Storing one is a reference count; so is the record that undoes it.
///
/// Two adverts are equal when they put the same attributes on the wire:
/// the same next hop, and the same attributes apart from the route's own
/// NEXT_HOP — found by pointer when they share a copy.
#[derive(Clone, Debug)]
pub struct Advert {
    /// The advertised route's attributes, as received.
    pub route: Arc<PathAttributes>,
    /// The NEXT_HOP it is advertised under.
    pub next_hop: Ipv4Addr,
}

impl Advert {
    /// Whether this advertises `route` under `next_hop`.
    pub fn is(&self, route: &Arc<PathAttributes>, next_hop: Ipv4Addr) -> bool {
        self.next_hop == next_hop
            && (Arc::ptr_eq(&self.route, route) || same_but_next_hop(&self.route, route))
    }

    /// The attributes as they go on the wire: the route's, under this
    /// advertisement's NEXT_HOP.
    pub fn attributes(&self) -> PathAttributes {
        PathAttributes::clone(&self.route).with_next_hop(self.next_hop)
    }
}

impl PartialEq for Advert {
    fn eq(&self, other: &Self) -> bool {
        other.is(&self.route, self.next_hop)
    }
}

impl Eq for Advert {}

/// Whether `a` and `b` differ at most in NEXT_HOP.
fn same_but_next_hop(a: &PathAttributes, b: &PathAttributes) -> bool {
    // Destructured so a new attribute cannot be left out of the
    // comparison silently.
    let PathAttributes {
        origin,
        as_path,
        next_hop: _,
        med,
        local_pref,
        communities,
    } = a;
    *origin == b.origin
        && *med == b.med
        && *local_pref == b.local_pref
        && *as_path == b.as_path
        && *communities == b.communities
}

/// The Adj-RIB-Outs: what the route server last advertised, to every
/// peer, as one table. It advertises almost every prefix identically to
/// almost every peer, so the table holds per prefix one **base** — the
/// top-ranked route, as advertised to a peer with nothing special about it
/// — and a slot for each peer that is advertised something else: the
/// route's announcer and whoever else it is not exported to (another
/// route, or nothing), and peers whose NEXT_HOP the SDX rewrote to a
/// virtual next hop (§4.2).
pub type AdjRibOuts = ViewTable<ParticipantId, Advert>;

/// One peer's Adj-RIB-Out: its view of the [`AdjRibOuts`].
pub type AdjRibOut<'a> = View<'a, ParticipantId, Advert>;

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
            attrs: Arc::new(PathAttributes::new(
                AsPath::sequence(path.iter().copied()),
                Ipv4Addr(0xac000000 + p),
            )),
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
}
