//! The SDX route server (§3.2, §5.1 of the paper).
//!
//! Like a conventional IXP route server it collects announcements from every
//! participant, runs the decision process *on behalf of each participant*,
//! and re-advertises one best route per prefix per participant. It differs
//! from a conventional route server in exactly the ways the paper calls out:
//!
//! * it exposes the **full candidate set** per prefix — a participant may
//!   forward to *any* AS that exported a route for the prefix, not only the
//!   best one ("forwarding only along BGP-advertised paths");
//! * re-advertisements carry a rewritten next hop (the **virtual next hop**,
//!   §4.2), supplied by the SDX controller through a callback, so that
//!   participants' border routers tag packets with the right VMAC.
//!
//! Export control: each announcing participant has an [`ExportPolicy`]
//! stating which peers may receive which of its prefixes (Figure 1b: AS B
//! does not export `p4` to AS A). Loop protection is enforced on export: a
//! route is never sent to a peer whose ASN already appears in its AS path,
//! and never reflected back to its announcer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use sdx_net::{Asn, Ipv4Addr, ParticipantId, Prefix};
use sdx_telemetry::SharedRegistry;

use crate::attrs::AsPathSegment;
use crate::msg::UpdateMessage;
use crate::rib::{AdjRibIn, LocRib, Route, RouteSource};

/// Which peers an announcer's routes are exported to. Default: everyone.
#[derive(Clone, Debug, Default)]
pub struct ExportPolicy {
    deny_all: BTreeSet<ParticipantId>,
    /// Prefix-major, so the peers one prefix is denied to are one range.
    deny: BTreeSet<(Prefix, ParticipantId)>,
}

/// Action communities understood by the route server, following the
/// convention real IXP route servers document (e.g. the `0:PEER-AS` /
/// `IXP-AS:PEER-AS` scheme at DE-CIX and AMS-IX): announcers control
/// export per-announcement by tagging routes, with no out-of-band
/// configuration.
pub mod communities {
    use crate::attrs::Community;
    use sdx_net::ParticipantId;

    /// `0:peer` — do not export this route to `peer`.
    pub fn no_export_to(peer: ParticipantId) -> Community {
        Community(0, peer.0 as u16)
    }

    /// `1:peer` — export this route *only* to `peer` (repeatable; the
    /// allow-set is the union of all `1:…` tags on the route).
    pub fn export_only_to(peer: ParticipantId) -> Community {
        Community(1, peer.0 as u16)
    }

    /// `0:65535` — do not export this route to anyone (NO_EXPORT at the
    /// route-server level).
    pub const NO_EXPORT_ALL: Community = Community(0, 65_535);

    /// Evaluates the community-based export decision for one route toward
    /// one peer: allow-list communities (if any) must include the peer,
    /// and no deny community may name it.
    pub fn allows(comms: &[Community], peer: ParticipantId) -> bool {
        if comms.contains(&NO_EXPORT_ALL) {
            return false;
        }
        if comms.contains(&no_export_to(peer)) {
            return false;
        }
        let allow: Vec<u16> = comms.iter().filter(|c| c.0 == 1).map(|c| c.1).collect();
        allow.is_empty() || allow.contains(&(peer.0 as u16))
    }
}

impl ExportPolicy {
    /// Export everything to everyone (the common IXP default).
    pub fn allow_all() -> Self {
        ExportPolicy::default()
    }

    /// Never export anything to `peer`.
    pub fn deny_peer(&mut self, peer: ParticipantId) -> &mut Self {
        self.deny_all.insert(peer);
        self
    }

    /// Do not export `prefix` to `peer` (e.g. selective announcements).
    pub fn deny(&mut self, peer: ParticipantId, prefix: Prefix) -> &mut Self {
        self.deny.insert((prefix, peer));
        self
    }

    /// Would this policy export `prefix` to `peer`?
    pub fn exports_to(&self, peer: ParticipantId, prefix: Prefix) -> bool {
        !self.deny_all.contains(&peer) && !self.deny.contains(&(prefix, peer))
    }

    /// The peers this policy does not export `prefix` to.
    fn denied(&self, prefix: Prefix) -> impl Iterator<Item = ParticipantId> + '_ {
        let of_prefix = (prefix, ParticipantId(u32::MIN))..=(prefix, ParticipantId(u32::MAX));
        self.deny_all
            .iter()
            .copied()
            .chain(self.deny.range(of_prefix).map(|&(_, peer)| peer))
    }
}

/// One viewer's side of the route server's export check
/// ([`RouteServer::exports_to`]): the viewer's ASN, for loop protection,
/// is looked up once, and each check reads only the route and its
/// announcer's policy.
#[derive(Clone, Copy, Debug)]
pub struct ViewerExports<'a> {
    rs: &'a RouteServer,
    viewer: ParticipantId,
    asn: Option<Asn>,
}

impl<'a> ViewerExports<'a> {
    /// Whether `route`, a candidate for `prefix`, is exported to the
    /// viewer: loop protection (never back to the announcer; never to a
    /// peer whose ASN is already in the path), the announcer's static
    /// per-peer export policy, and the route's action communities (see
    /// [`communities`]).
    pub fn allows(&self, route: &Route, prefix: Prefix) -> bool {
        let (announcer, viewer) = (route.source.participant, self.viewer);
        announcer != viewer
            && self
                .asn
                .is_none_or(|asn| !route.attrs.as_path.contains(asn))
            && communities::allows(&route.attrs.communities, viewer)
            && (self.rs.export.get(&announcer)).is_none_or(|e| e.exports_to(viewer, prefix))
    }

    /// The viewer's best route for `prefix`, as
    /// [`RouteServer::best_for`] decides it.
    pub fn best_for(&self, prefix: Prefix) -> Option<&'a Route> {
        let candidates = self.rs.loc_rib.candidates(prefix);
        candidates.iter().find(|r| self.allows(r, prefix))
    }
}

/// Events emitted while processing an update, consumed by the SDX
/// controller's incremental compilation path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RouteServerEvent {
    /// The candidate set for a prefix changed (announce/replace/withdraw).
    PrefixChanged(Prefix),
    /// A participant's session was reset; all its routes were dropped.
    SessionReset(ParticipantId),
}

/// A route server's compile-cache identity: fresh per instance **and per
/// clone**. A clone is a different object whose future mutations the
/// original never sees, so a compiler cache keyed on one server's id is
/// never replayed against another.
#[derive(Debug)]
struct InstanceId(u64);

impl Default for InstanceId {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        InstanceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for InstanceId {
    fn clone(&self) -> Self {
        InstanceId::default()
    }
}

/// The multi-participant route server.
#[derive(Clone, Debug, Default)]
pub struct RouteServer {
    peers: BTreeMap<ParticipantId, AdjRibIn>,
    export: BTreeMap<ParticipantId, ExportPolicy>,
    asns: BTreeMap<ParticipantId, Asn>,
    /// `asns` inverted: the peers loop protection withholds a route from
    /// are found from the route's AS path, not by asking every peer.
    by_asn: BTreeMap<Asn, BTreeSet<ParticipantId>>,
    loc_rib: LocRib,
    /// Prefixes whose candidate set changed since the last drain
    /// ([`take_dirty_prefixes`](Self::take_dirty_prefixes)). Marked at the
    /// same spots that emit [`RouteServerEvent::PrefixChanged`], so callers
    /// that mutate the route server directly (session supervision,
    /// harnesses) are tracked too. A compile reads it; the controller's
    /// FIB sync, which runs after the compile in the same recompile,
    /// drains it.
    dirty: BTreeSet<Prefix>,
    /// This instance's compile-cache identity.
    compile_id: InstanceId,
    /// Decision/export stage timers land here.
    telemetry: SharedRegistry,
}

impl RouteServer {
    /// An empty route server.
    pub fn new() -> Self {
        RouteServer::default()
    }

    /// Points this route server's stage timers at `reg`.
    pub fn set_telemetry(&mut self, reg: SharedRegistry) {
        self.telemetry = reg;
    }

    /// The registry this route server emits into.
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry
    }

    /// Registers a participant session. Must be called before updates from
    /// that participant are processed.
    pub fn add_peer(&mut self, source: RouteSource, export: ExportPolicy) {
        if let Some(old) = self.asns.insert(source.participant, source.asn) {
            self.forget_asn(source.participant, old);
        }
        self.by_asn
            .entry(source.asn)
            .or_default()
            .insert(source.participant);
        self.peers.insert(source.participant, AdjRibIn::new(source));
        self.export.insert(source.participant, export);
        // A new ASN changes loop-protection outcomes for existing routes,
        // so every known prefix must be re-examined at the next sync.
        self.dirty.extend(self.loc_rib.prefixes());
    }

    fn forget_asn(&mut self, p: ParticipantId, asn: Asn) {
        if let Some(peers) = self.by_asn.get_mut(&asn) {
            peers.remove(&p);
            if peers.is_empty() {
                self.by_asn.remove(&asn);
            }
        }
    }

    /// Deregisters a participant: its routes are dropped as by
    /// [`reset_session`](Self::reset_session) (so the prefixes it
    /// announced are dirty), and its Adj-RIB-In, export
    /// policy and ASN are forgotten — it is no longer a viewer. Returns
    /// the reset's events; empty if `p` was never registered.
    pub fn remove_peer(&mut self, p: ParticipantId) -> Vec<RouteServerEvent> {
        let events = self.reset_session(p);
        self.peers.remove(&p);
        self.export.remove(&p);
        if let Some(asn) = self.asns.remove(&p) {
            self.forget_asn(p, asn);
        }
        events
    }

    /// The registered participants, in id order.
    pub fn participants(&self) -> impl Iterator<Item = ParticipantId> + '_ {
        self.peers.keys().copied()
    }

    /// Replaces a participant's export policy (policy changes at runtime).
    ///
    /// Export filtering only reshapes the candidate sets built from routes
    /// `p` itself announced, so what is marked dirty is scoped to
    /// `loc_rib.announced_by(p)` — prefixes announced only by other
    /// participants keep their advertisements and their compiled
    /// signatures.
    pub fn set_export_policy(&mut self, p: ParticipantId, export: ExportPolicy) {
        self.export.insert(p, export);
        self.dirty.extend(self.loc_rib.announced_by(p));
    }

    /// Processes one UPDATE from `from`, returning the prefixes whose
    /// candidate set changed.
    ///
    /// # Panics
    /// Panics if `from` was never registered with [`add_peer`](Self::add_peer)
    /// — an update from an unknown session is a programming error in the
    /// harness, not a runtime condition.
    pub fn process_update(
        &mut self,
        from: ParticipantId,
        update: &UpdateMessage,
    ) -> Vec<RouteServerEvent> {
        let reg = self.telemetry.clone();
        reg.inc("rs.update.count");
        reg.time("rs.decision", || {
            let rib = self
                .peers
                .get_mut(&from)
                .unwrap_or_else(|| panic!("update from unregistered participant {from}"));
            let changed = rib.apply(update);
            let mut events = Vec::with_capacity(changed.len());
            for p in changed {
                match self.peers[&from].route(p) {
                    Some(route) => self.loc_rib.upsert(p, route),
                    None => self.loc_rib.remove(p, from),
                }
                self.dirty.insert(p);
                events.push(RouteServerEvent::PrefixChanged(p));
            }
            events
        })
    }

    /// This instance's compile-cache identity: unique per route server
    /// object (clones get fresh ids), so a compiler that cached per-prefix
    /// state against one instance can detect it is now being run against
    /// a different one and rebuild instead of trusting stale entries.
    pub fn compile_id(&self) -> u64 {
        self.compile_id.0
    }

    /// The prefixes whose candidate set changed since the last drain: what
    /// a compile re-examines. Reading it changes nothing, so any number of
    /// compiles over this route server see the same set.
    pub fn dirty_prefixes(&self) -> &BTreeSet<Prefix> {
        &self.dirty
    }

    /// Drains the set of prefixes whose candidate set changed since the
    /// last drain. The controller's re-optimization sync uses this, after
    /// the compile has read the set, to re-examine only (viewer, prefix)
    /// pairs that could have moved — everything else provably advertises
    /// the same VNH as before under churn-stable FEC identity.
    pub fn take_dirty_prefixes(&mut self) -> BTreeSet<Prefix> {
        std::mem::take(&mut self.dirty)
    }

    /// Puts drained prefixes back — for a caller whose sync was rolled
    /// back, so the next compile and sync still re-examine them.
    pub fn restore_dirty_prefixes(&mut self, drained: BTreeSet<Prefix>) {
        self.dirty.extend(drained);
    }

    /// The number of un-drained changed prefixes (diagnostics).
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Handles a session reset: drops every route from `from` (Table 1's
    /// methodology discards the update churn a reset causes — the caller
    /// decides how to account it).
    pub fn reset_session(&mut self, from: ParticipantId) -> Vec<RouteServerEvent> {
        let Some(rib) = self.peers.get_mut(&from) else {
            return Vec::new();
        };
        let cleared = rib.clear();
        let mut events = vec![RouteServerEvent::SessionReset(from)];
        for p in cleared {
            self.loc_rib.remove(p, from);
            self.dirty.insert(p);
            events.push(RouteServerEvent::PrefixChanged(p));
        }
        events
    }

    /// Whether `announcer` exports `prefix` to `viewer`: see
    /// [`ViewerExports::allows`].
    fn exported(&self, announcer: &Route, viewer: ParticipantId, prefix: Prefix) -> bool {
        self.exports_to(viewer).allows(announcer, prefix)
    }

    /// `viewer`'s side of the export check, with what depends on the
    /// viewer alone looked up once: a walk over many prefixes for one
    /// viewer pays for it once, not once per candidate.
    pub fn exports_to(&self, viewer: ParticipantId) -> ViewerExports<'_> {
        ViewerExports {
            rs: self,
            viewer,
            asn: self.asns.get(&viewer).copied(),
        }
    }

    /// The candidate routes `viewer` may use for `prefix` — the feasible
    /// next-hop set the SDX consistency filters are derived from — best
    /// first.
    fn candidates_for(
        &self,
        viewer: ParticipantId,
        prefix: Prefix,
    ) -> impl Iterator<Item = &Route> + '_ {
        let exports = self.exports_to(viewer);
        self.loc_rib
            .candidates(prefix)
            .iter()
            .filter(move |r| exports.allows(r, prefix))
    }

    /// The participants `viewer` may forward `prefix`-destined traffic to,
    /// in decision order: the first is the announcer of its
    /// [`best_for`](Self::best_for).
    pub fn reachable_via(
        &self,
        viewer: ParticipantId,
        prefix: Prefix,
    ) -> impl Iterator<Item = ParticipantId> + '_ {
        self.candidates_for(viewer, prefix)
            .map(|r| r.source.participant)
    }

    /// The best route for `prefix` from `viewer`'s point of view, or `None`
    /// if nothing is exported to it: the first of the Loc-RIB's ranked
    /// candidates that `viewer` is exported.
    pub fn best_for(&self, viewer: ParticipantId, prefix: Prefix) -> Option<&Route> {
        self.exports_to(viewer).best_for(prefix)
    }

    /// The top-ranked candidate for `prefix`, whoever is looking: the
    /// route each viewer it is exported to has as its
    /// [`best_for`](Self::best_for). Only the viewers it is
    /// [`withheld_from`](Self::withheld_from) decide among the rest.
    pub fn top_route(&self, prefix: Prefix) -> Option<&Route> {
        self.loc_rib.candidates(prefix).first()
    }

    /// The registered participants `route` (a candidate for `prefix`) is
    /// not exported to, in id order: its announcer, the peers whose ASN is
    /// on its path, and those its announcer's export policy or its action
    /// communities exclude. Found from the route — the cost follows the
    /// exclusions, not the number of peers — unless it carries
    /// communities, which can name everyone.
    pub fn withheld_from(&self, route: &Route, prefix: Prefix) -> Vec<ParticipantId> {
        if !route.attrs.communities.is_empty() {
            return self
                .participants()
                .filter(|&viewer| !self.exported(route, viewer, prefix))
                .collect();
        }
        let announcer = route.source.participant;
        let mut withheld = vec![announcer];
        for segment in &route.attrs.as_path.segments {
            let (AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns)) = segment;
            for asn in asns {
                withheld.extend(self.by_asn.get(asn).into_iter().flatten());
            }
        }
        if let Some(export) = self.export.get(&announcer) {
            withheld.extend(export.denied(prefix));
        }
        withheld.retain(|p| self.peers.contains_key(p));
        withheld.sort_unstable();
        withheld.dedup();
        withheld
    }

    /// Longest-prefix-match variants, used when a policy rewrites the
    /// destination address (wide-area load balancing, §3.1): the SDX must
    /// route the *rewritten* address along BGP-advertised paths.
    ///
    /// The most specific announced prefix covering `addr`, from `viewer`'s
    /// point of view, with the participants that exported it.
    pub fn reachable_via_addr(&self, viewer: ParticipantId, addr: Ipv4Addr) -> Vec<ParticipantId> {
        let Some((p, routes)) = self.loc_rib.lookup_candidates(addr) else {
            return Vec::new();
        };
        let exports = self.exports_to(viewer);
        routes
            .iter()
            .filter(|r| exports.allows(r, p))
            .map(|r| r.source.participant)
            .collect()
    }

    /// The best route for the most specific prefix covering `addr`, from
    /// `viewer`'s point of view: the first of its candidates `viewer` is
    /// exported.
    pub fn best_for_addr(&self, viewer: ParticipantId, addr: Ipv4Addr) -> Option<&Route> {
        let (p, routes) = self.loc_rib.lookup_candidates(addr)?;
        let exports = self.exports_to(viewer);
        routes.iter().find(|r| exports.allows(r, p))
    }

    /// Every prefix `wanted` keeps for which `viewer` can reach `next_hop`
    /// — the BGP filter in front of `fwd(next_hop)` (§4.1), and phase A's
    /// join — with the announcer of the viewer's [`best_for`](Self::best_for)
    /// route. Walks `next_hop`'s announcer index, asks `wanted` before any
    /// lookup, and reads both answers off one lookup of the prefix's ranked
    /// candidates: `next_hop`'s must be exported, and the best is the first
    /// exported one ranked above it, or itself. In prefix order.
    pub fn routes_via<'a>(
        &'a self,
        viewer: ParticipantId,
        next_hop: ParticipantId,
        wanted: impl Fn(Prefix) -> bool + 'a,
    ) -> impl Iterator<Item = (Prefix, ParticipantId)> + 'a {
        let (announced, exports) = (self.loc_rib.announced_by(next_hop), self.exports_to(viewer));
        announced.filter(move |&p| wanted(p)).filter_map(move |p| {
            let candidates = self.loc_rib.candidates(p);
            let at = (candidates.iter()).position(|r| r.source.participant == next_hop)?;
            if !exports.allows(&candidates[at], p) {
                return None;
            }
            let best = (candidates[..at].iter()).find(|r| exports.allows(r, p));
            Some((p, best.map_or(next_hop, |r| r.source.participant)))
        })
    }

    /// Every prefix with at least one candidate.
    pub fn all_prefixes(&self) -> Vec<Prefix> {
        self.loc_rib.prefixes().collect()
    }

    /// Number of prefixes in the Loc-RIB.
    pub fn prefix_count(&self) -> usize {
        self.loc_rib.len()
    }

    /// Direct access to the Loc-RIB (read-only).
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// A participant's Adj-RIB-In (what it announced), if registered.
    pub fn adj_rib_in(&self, p: ParticipantId) -> Option<&AdjRibIn> {
        self.peers.get(&p)
    }

    /// Filters the Loc-RIB by an AS-path regular expression: the prefixes
    /// whose *best route for `viewer`* matches. This implements the paper's
    /// `RIB.filter('as_path', ...)` used for "grouping traffic based on BGP
    /// attributes" (§3.2).
    pub fn filter_as_path(
        &self,
        viewer: ParticipantId,
        regex: &crate::aspath_re::AsPathRegex,
    ) -> Vec<Prefix> {
        self.loc_rib
            .prefixes()
            .filter(|p| {
                self.best_for(viewer, *p)
                    .is_some_and(|r| regex.is_match(&r.attrs.as_path))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};
    use crate::decision::tests::best_route;
    use crate::msg::simple_announce;
    use sdx_net::{ip, prefix, RouterId};

    /// Independent from-first-principles implementations of the indexed
    /// queries, kept as the property-test oracles: neither touches the
    /// announcer index.
    impl RouteServer {
        /// The prefixes of [`routes_via`](Self::routes_via) as an
        /// O(|Loc-RIB|) scan over every prefix, in trie-key order (sort
        /// before comparing).
        fn prefixes_via_scan(&self, viewer: ParticipantId, next_hop: ParticipantId) -> Vec<Prefix> {
            self.loc_rib
                .prefixes()
                .filter(|p| {
                    self.loc_rib
                        .candidates(*p)
                        .iter()
                        .any(|r| r.source.participant == next_hop && self.exported(r, viewer, *p))
                })
                .collect()
        }

        /// [`reachable_via`](Self::reachable_via) through the scan:
        /// participant `q` is reachable for `prefix` iff `prefix` appears
        /// in `prefixes_via_scan(viewer, q)`.
        fn reachable_via_scan(&self, viewer: ParticipantId, prefix: Prefix) -> Vec<ParticipantId> {
            self.peers
                .keys()
                .copied()
                .filter(|&nh| self.prefixes_via_scan(viewer, nh).contains(&prefix))
                .collect()
        }

        /// [`best_for`](Self::best_for) from first principles: the
        /// decision process run over every peer's Adj-RIB-In route for
        /// `prefix` that `viewer` is exported, or over all of them when
        /// `viewer` is `None` ([`top_route`](Self::top_route)). Neither
        /// the Loc-RIB nor its ranking is read.
        fn best_for_scan(
            &self,
            viewer: Option<ParticipantId>,
            prefix: Prefix,
        ) -> Option<ParticipantId> {
            let routes: Vec<Route> = (self.peers.values())
                .filter_map(|rib| rib.route(prefix))
                .filter(|r| viewer.is_none_or(|v| self.exported(r, v, prefix)))
                .collect();
            best_route(&routes).map(|r| r.source.participant)
        }
    }

    /// The ranked reads against the decision process run afresh:
    /// every viewer's `best_for` and `best_for_addr`, and `top_route`.
    fn assert_ranked_reads_agree_with_scan(rs: &RouteServer, p: Prefix, what: &str) {
        let participant = |r: Option<&Route>| r.map(|r| r.source.participant);
        assert_eq!(
            participant(rs.top_route(p)),
            rs.best_for_scan(None, p),
            "{what}: top_route({p})"
        );
        for viewer in rs.participants() {
            let scanned = rs.best_for_scan(Some(viewer), p);
            assert_eq!(
                participant(rs.best_for(viewer, p)),
                scanned,
                "{what}: best_for({viewer}, {p})"
            );
            // Every prefix of the churn tests is a /8 of its own, so the
            // longest match for its first address is the prefix itself
            // while it has candidates, and nothing once it has none.
            let by_addr = rs.best_for_addr(viewer, p.addr());
            assert_eq!(
                participant(by_addr),
                scanned,
                "{what}: best_for_addr({viewer}, {})",
                p.addr()
            );
        }
    }

    /// The once-per-prefix decision against the per-viewer one: the
    /// viewers `top_route` is withheld from are exactly those the export
    /// check refuses, and every other viewer's best route is `top_route`.
    fn assert_top_route_and_exclusions_agree_with_scan(rs: &RouteServer, p: Prefix, what: &str) {
        let top = rs.top_route(p);
        let withheld = top.map_or(Vec::new(), |r| rs.withheld_from(r, p));
        let refused: Vec<ParticipantId> = rs
            .participants()
            .filter(|&v| top.is_some_and(|r| !rs.exported(r, v, p)))
            .collect();
        assert_eq!(withheld, refused, "{what}: withheld_from(top_route({p}))");
        for viewer in rs.participants() {
            if !withheld.contains(&viewer) {
                assert_eq!(
                    rs.best_for(viewer, p).map(|r| r.source.participant),
                    top.map(|r| r.source.participant),
                    "{what}: {viewer} is exported the top route for {p}"
                );
            }
        }
    }

    /// Seeded xorshift64: reproducible sequences without a
    /// property-testing dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The join phase A builds a viewer's map from, against the scan
    /// oracles: the same prefixes, in prefix order, each with the best
    /// announcer the decision process run afresh picks for the viewer.
    fn assert_join_agrees_with_scan(
        rs: &RouteServer,
        viewer: ParticipantId,
        nh: ParticipantId,
        what: &str,
    ) {
        let mut scanned = rs.prefixes_via_scan(viewer, nh);
        scanned.sort();
        let scanned: Vec<(Prefix, ParticipantId)> = (scanned.into_iter())
            .map(|p| (p, rs.best_for_scan(Some(viewer), p).expect("exported")))
            .collect();
        let joined: Vec<_> = rs.routes_via(viewer, nh, |_| true).collect();
        assert_eq!(joined, scanned, "{what}: routes_via");
    }

    fn src(p: u32) -> RouteSource {
        RouteSource {
            participant: ParticipantId(p),
            asn: Asn(65000 + p),
            router_id: RouterId(p),
            peer_addr: Ipv4Addr(0xac100000 + p),
        }
    }

    /// The Figure 1b scenario: B announces p1..p3 (not exporting p4 to A is
    /// modelled via export policy), C announces p1..p5 variants.
    fn figure1_server() -> RouteServer {
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all()); // A
        let mut b_export = ExportPolicy::allow_all();
        b_export.deny(ParticipantId(1), prefix("40.0.0.0/8")); // B hides p4 from A
        rs.add_peer(src(2), b_export); // B
        rs.add_peer(src(3), ExportPolicy::allow_all()); // C

        // B announces p1,p2,p3,p4 ; C announces p1,p2,p4 with shorter path
        // for p1,p2 and p3 only from B.
        for (pfx, path) in [
            ("10.0.0.0/8", vec![65002, 100, 200]),
            ("20.0.0.0/8", vec![65002, 100, 200]),
            ("30.0.0.0/8", vec![65002, 300]),
            ("40.0.0.0/8", vec![65002, 400]),
        ] {
            rs.process_update(
                ParticipantId(2),
                &simple_announce(prefix(pfx), &path, ip("172.16.0.2")),
            );
        }
        for (pfx, path) in [
            ("10.0.0.0/8", vec![65003, 200]),
            ("20.0.0.0/8", vec![65003, 200]),
            ("40.0.0.0/8", vec![65003, 400]),
        ] {
            rs.process_update(
                ParticipantId(3),
                &simple_announce(prefix(pfx), &path, ip("172.16.0.3")),
            );
        }
        rs
    }

    #[test]
    fn best_route_prefers_shorter_path() {
        let rs = figure1_server();
        // For viewer A, p1's best is via C (2 hops < 3 hops).
        let best = rs.best_for(ParticipantId(1), prefix("10.0.0.0/8")).unwrap();
        assert_eq!(best.source.participant, ParticipantId(3));
        // p3 only announced by B.
        let best3 = rs.best_for(ParticipantId(1), prefix("30.0.0.0/8")).unwrap();
        assert_eq!(best3.source.participant, ParticipantId(2));
    }

    #[test]
    fn reachability_includes_non_best_routes() {
        let rs = figure1_server();
        // A can still send p1 traffic via B even though C is best (§3.2).
        // In decision order: C's shorter path first.
        let reach: Vec<_> = rs
            .reachable_via(ParticipantId(1), prefix("10.0.0.0/8"))
            .collect();
        assert_eq!(reach, vec![ParticipantId(3), ParticipantId(2)]);
    }

    #[test]
    fn export_policy_hides_prefix() {
        let rs = figure1_server();
        // B does not export p4 to A → A can only reach p4 via C.
        assert_eq!(
            rs.reachable_via(ParticipantId(1), prefix("40.0.0.0/8"))
                .collect::<Vec<_>>(),
            vec![ParticipantId(3)]
        );
        // …but B exports p4 to C.
        let reach_c: Vec<_> = rs
            .reachable_via(ParticipantId(3), prefix("40.0.0.0/8"))
            .collect();
        assert_eq!(reach_c, vec![ParticipantId(2)]);
    }

    #[test]
    fn best_for_excludes_the_viewers_own_route() {
        let mut rs = RouteServer::new();
        for p in 1..=3 {
            rs.add_peer(src(p), ExportPolicy::allow_all());
        }
        let p = prefix("10.0.0.0/8");
        let announce = |path: &[u32]| simple_announce(p, path, ip("172.16.0.9"));
        rs.process_update(ParticipantId(1), &announce(&[65001])); // shortest path
        rs.process_update(ParticipantId(2), &announce(&[65002, 9]));
        let best = |rs: &RouteServer, viewer| {
            rs.best_for(ParticipantId(viewer), p)
                .map(|r| r.source.participant)
        };
        // Viewer 3 sees participant 1's (shorter) route as best.
        assert_eq!(best(&rs, 3), Some(ParticipantId(1)));
        // Viewer 1 must not have its own route reflected back.
        assert_eq!(best(&rs, 1), Some(ParticipantId(2)));
        // A viewer who is the only announcer gets nothing.
        rs.process_update(ParticipantId(2), &UpdateMessage::withdraw([p]));
        assert_eq!(best(&rs, 1), None);
    }

    #[test]
    fn routes_never_reflected_to_announcer() {
        let rs = figure1_server();
        // B announced p3; B must not see its own route.
        assert!(rs
            .best_for(ParticipantId(2), prefix("30.0.0.0/8"))
            .is_none());
    }

    #[test]
    fn loop_protection_on_export() {
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all());
        rs.add_peer(src(2), ExportPolicy::allow_all());
        // P2 announces a route whose path already contains P1's ASN (65001).
        rs.process_update(
            ParticipantId(2),
            &simple_announce(prefix("50.0.0.0/8"), &[65002, 65001, 9], ip("172.16.0.2")),
        );
        assert!(rs
            .best_for(ParticipantId(1), prefix("50.0.0.0/8"))
            .is_none());
        assert!(rs
            .reachable_via(ParticipantId(1), prefix("50.0.0.0/8"))
            .next()
            .is_none());
    }

    #[test]
    fn routes_via_builds_bgp_filter() {
        let rs = figure1_server();
        let (b, c) = (ParticipantId(2), ParticipantId(3));
        // Figure 1: A may forward to B for p1, p2, p3 — not p4 (not
        // exported) — and its best route for p1 and p2 is C's, shorter.
        let via = |nh| -> Vec<_> { rs.routes_via(ParticipantId(1), nh, |_| true).collect() };
        let via_b = via(b);
        assert_eq!(
            via_b,
            vec![
                (prefix("10.0.0.0/8"), c),
                (prefix("20.0.0.0/8"), c),
                (prefix("30.0.0.0/8"), b)
            ]
        );
        let via_c = via(c);
        assert_eq!(
            via_c,
            vec![
                (prefix("10.0.0.0/8"), c),
                (prefix("20.0.0.0/8"), c),
                (prefix("40.0.0.0/8"), c)
            ]
        );
    }

    #[test]
    fn best_for_follows_updates_resets_and_policy_changes() {
        let mut rs = figure1_server();
        // A's view of p1: best = C, shorter path.
        let before = rs.best_for(ParticipantId(1), prefix("10.0.0.0/8")).unwrap();
        assert_eq!(before.source.participant, ParticipantId(3));
        // C withdraws p1: B is what is left.
        rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        let after = rs.best_for(ParticipantId(1), prefix("10.0.0.0/8")).unwrap();
        assert_eq!(after.source.participant, ParticipantId(2));
        // An export-policy change: p4 reaches A via C only (B already
        // hides it), so denying C→A leaves A nothing.
        assert!(rs
            .best_for(ParticipantId(1), prefix("40.0.0.0/8"))
            .is_some());
        let mut c_export = ExportPolicy::allow_all();
        c_export.deny_peer(ParticipantId(1));
        rs.set_export_policy(ParticipantId(3), c_export);
        assert!(rs
            .best_for(ParticipantId(1), prefix("40.0.0.0/8"))
            .is_none());
        // A session reset takes every prefix the peer announced.
        assert!(
            rs.best_for(ParticipantId(1), prefix("30.0.0.0/8"))
                .is_some(),
            "p3 via B before the reset"
        );
        rs.reset_session(ParticipantId(2));
        assert!(rs
            .best_for(ParticipantId(1), prefix("30.0.0.0/8"))
            .is_none());
        // A cloned server decides the same.
        let cloned = rs.clone();
        assert_eq!(
            cloned
                .best_for(ParticipantId(3), prefix("10.0.0.0/8"))
                .map(|r| r.source.participant),
            rs.best_for(ParticipantId(3), prefix("10.0.0.0/8"))
                .map(|r| r.source.participant)
        );
    }

    #[test]
    fn add_peer_applies_loop_protection_to_routes_already_held() {
        // Registering a peer introduces a new ASN, which changes
        // loop-protection outcomes for routes already in the Loc-RIB:
        // before participant 3 is registered, a route whose AS path
        // contains 65003 is exported to viewer 3 (no ASN on file → no
        // loop check); once `add_peer` has run, exporting it would
        // forward into a loop.
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all());
        rs.add_peer(src(2), ExportPolicy::allow_all());
        rs.process_update(
            ParticipantId(2),
            &simple_announce(prefix("70.0.0.0/8"), &[65002, 65003, 9], ip("172.16.0.2")),
        );
        assert_eq!(
            rs.best_for(ParticipantId(3), prefix("70.0.0.0/8"))
                .map(|r| r.source.participant),
            Some(ParticipantId(2))
        );
        rs.take_dirty_prefixes();
        rs.add_peer(src(3), ExportPolicy::allow_all());
        assert!(rs
            .best_for(ParticipantId(3), prefix("70.0.0.0/8"))
            .is_none());
        assert_eq!(rs.dirty_len(), 1, "and the prefix is re-examined");
    }

    #[test]
    fn indexed_queries_agree_with_scan_oracles_on_figure1() {
        let rs = figure1_server();
        for viewer in [ParticipantId(1), ParticipantId(2), ParticipantId(3)] {
            for nh in [ParticipantId(1), ParticipantId(2), ParticipantId(3)] {
                assert_join_agrees_with_scan(&rs, viewer, nh, &format!("({viewer}, {nh})"));
            }
            for p in rs.all_prefixes() {
                assert_top_route_and_exclusions_agree_with_scan(&rs, p, "figure 1");
                assert_ranked_reads_agree_with_scan(&rs, p, "figure 1");
                let mut indexed: Vec<_> = rs.reachable_via(viewer, p).collect();
                let mut scanned = rs.reachable_via_scan(viewer, p);
                indexed.sort();
                scanned.sort();
                assert_eq!(indexed, scanned, "reachable_via({viewer}, {p})");
            }
        }
    }

    /// Randomized churn: the indexed query paths (inverted announcer
    /// index, once-per-prefix decision) must agree with the full-scan oracles
    /// after every kind of mutation — announce, withdraw, export-policy
    /// flip, session reset — in any interleaving.
    #[test]
    fn indexed_queries_agree_with_scan_oracles_under_random_churn() {
        const PARTICIPANTS: u64 = 6;
        const PREFIXES: u64 = 24;
        const STEPS: u64 = 300;
        let pfx = |i: u64| Prefix::new(Ipv4Addr::new(10 + i as u8, 0, 0, 0), 8);
        // Hop pool mixes participant ASNs (exercising loop protection) with
        // foreign ASNs (exercising path-length tiebreaks).
        let hop_pool = [65001, 65003, 65005, 100, 200, 300, 400];

        for seed in [3u64, 0x5dee_ce66, 0xfeed_f00d] {
            let mut rng = Rng(seed);
            let mut rs = RouteServer::new();
            for p in 1..=PARTICIPANTS {
                rs.add_peer(src(p as u32), ExportPolicy::allow_all());
            }
            for step in 0..STEPS {
                let actor = ParticipantId(1 + rng.below(PARTICIPANTS) as u32);
                let p = pfx(rng.below(PREFIXES));
                match rng.below(10) {
                    0..=5 => {
                        let mut path = vec![65000 + actor.0];
                        for _ in 0..rng.below(4) {
                            path.push(hop_pool[rng.below(hop_pool.len() as u64) as usize]);
                        }
                        let mut update = simple_announce(p, &path, Ipv4Addr(0xac10_0000 + actor.0));
                        // Every fourth announcement carries an action
                        // community naming a random peer.
                        if rng.below(4) == 0 {
                            let peer = ParticipantId(1 + rng.below(PARTICIPANTS) as u32);
                            let tag = match rng.below(3) {
                                0 => communities::no_export_to(peer),
                                1 => communities::export_only_to(peer),
                                _ => communities::NO_EXPORT_ALL,
                            };
                            let attrs = update.attrs.take().expect("an announcement");
                            update.attrs = Some(attrs.with_community(tag));
                        }
                        rs.process_update(actor, &update);
                    }
                    6 | 7 => {
                        rs.process_update(actor, &UpdateMessage::withdraw([p]));
                    }
                    8 => {
                        let mut export = ExportPolicy::allow_all();
                        if rng.below(2) == 0 {
                            let peer = ParticipantId(1 + rng.below(PARTICIPANTS) as u32);
                            export.deny(peer, p);
                        }
                        rs.set_export_policy(actor, export);
                    }
                    _ => {
                        rs.reset_session(actor);
                    }
                }
                for i in 0..PREFIXES {
                    let what = format!("seed {seed} step {step}");
                    assert_ranked_reads_agree_with_scan(&rs, pfx(i), &what);
                    if step % 7 == 0 || step == STEPS - 1 {
                        assert_top_route_and_exclusions_agree_with_scan(&rs, pfx(i), &what);
                    }
                }
                for v in 1..=PARTICIPANTS {
                    for n in 1..=PARTICIPANTS {
                        let (viewer, nh) = (ParticipantId(v as u32), ParticipantId(n as u32));
                        let what = format!("seed {seed} step {step}: ({viewer}, {nh})");
                        assert_join_agrees_with_scan(&rs, viewer, nh, &what);
                    }
                }
                // Full agreement sweep every few steps (it is O(V·(N+P))
                // with the oracle a Loc-RIB scan per pair).
                if step % 7 != 0 && step != STEPS - 1 {
                    continue;
                }
                for v in 1..=PARTICIPANTS {
                    let viewer = ParticipantId(v as u32);
                    for i in 0..PREFIXES {
                        let p = pfx(i);
                        let mut indexed: Vec<_> = rs.reachable_via(viewer, p).collect();
                        let mut scanned = rs.reachable_via_scan(viewer, p);
                        indexed.sort();
                        scanned.sort();
                        assert_eq!(
                            indexed, scanned,
                            "seed {seed} step {step}: reachable_via({viewer}, {p})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_mutation_site_marks_the_one_dirty_set() {
        let mut rs = figure1_server();
        // Building figure1 dirtied every announced prefix.
        assert_eq!(rs.dirty_len(), 4);
        // Reading the set (what a compile does) leaves it as it was.
        assert_eq!(rs.dirty_prefixes().len(), 4);
        assert_eq!(rs.dirty_len(), 4);
        let drained = rs.take_dirty_prefixes();
        assert_eq!(drained.len(), 4);
        assert_eq!(rs.dirty_len(), 0);
        // A rolled-back sync puts what it drained back.
        rs.restore_dirty_prefixes(drained);
        assert_eq!(rs.take_dirty_prefixes().len(), 4);
        // process_update marks per changed prefix.
        rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        assert_eq!(rs.take_dirty_prefixes().len(), 1);
        // reset_session marks every cleared prefix.
        rs.reset_session(ParticipantId(2));
        assert_eq!(rs.take_dirty_prefixes().len(), 4);
        // set_export_policy marks only the announcer's own prefixes:
        // after B's session reset, C still announces 20/8 and 40/8
        // (10/8 was withdrawn above), so exactly those two are dirtied.
        rs.set_export_policy(ParticipantId(3), ExportPolicy::allow_all());
        let drained = rs.take_dirty_prefixes();
        assert_eq!(drained.len(), 2, "scoped to announced_by(C): {drained:?}");
        assert!(drained.contains(&prefix("20.0.0.0/8")));
        assert!(drained.contains(&prefix("40.0.0.0/8")));
    }

    #[test]
    fn compile_id_is_fresh_per_clone_but_dirt_is_carried() {
        let mut rs = figure1_server();
        rs.take_dirty_prefixes();
        rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        let mut snap = rs.clone();
        assert_ne!(
            snap.compile_id(),
            rs.compile_id(),
            "a clone is a different compile-cache identity"
        );
        // …but the pending dirt travels with the snapshot, so a compiler
        // that first sees the clone still learns what changed.
        assert_eq!(snap.dirty_prefixes(), rs.dirty_prefixes());
        assert_eq!(snap.take_dirty_prefixes().len(), 1);
        assert_eq!(rs.dirty_len(), 1, "draining the clone leaves the original");
    }

    #[test]
    fn withdrawal_updates_loc_rib() {
        let mut rs = figure1_server();
        let ev = rs.process_update(
            ParticipantId(3),
            &UpdateMessage::withdraw([prefix("10.0.0.0/8")]),
        );
        assert_eq!(
            ev,
            vec![RouteServerEvent::PrefixChanged(prefix("10.0.0.0/8"))]
        );
        // Best for A falls back to B.
        let best = rs.best_for(ParticipantId(1), prefix("10.0.0.0/8")).unwrap();
        assert_eq!(best.source.participant, ParticipantId(2));
    }

    #[test]
    fn session_reset_drops_all_routes() {
        let mut rs = figure1_server();
        let before = rs.prefix_count();
        assert_eq!(before, 4);
        let ev = rs.reset_session(ParticipantId(2));
        assert!(matches!(ev[0], RouteServerEvent::SessionReset(p) if p == ParticipantId(2)));
        // B announced 4 prefixes → 4 PrefixChanged events follow.
        assert_eq!(ev.len(), 5);
        // p3 (only from B) is now unreachable.
        assert!(rs
            .best_for(ParticipantId(1), prefix("30.0.0.0/8"))
            .is_none());
        // p1 still reachable via C.
        assert!(rs
            .best_for(ParticipantId(1), prefix("10.0.0.0/8"))
            .is_some());
    }

    #[test]
    fn remove_peer_forgets_the_viewer_and_dirties_its_prefixes() {
        let mut rs = figure1_server();
        rs.take_dirty_prefixes();
        // A route through B's ASN is withheld from B while it is a peer.
        rs.process_update(
            ParticipantId(3),
            &simple_announce(prefix("50.0.0.0/8"), &[65003, 65002], ip("172.16.0.3")),
        );
        let looped = rs.top_route(prefix("50.0.0.0/8")).unwrap().clone();
        assert_eq!(
            rs.withheld_from(&looped, prefix("50.0.0.0/8")),
            vec![ParticipantId(2), ParticipantId(3)]
        );
        rs.take_dirty_prefixes();

        let events = rs.remove_peer(ParticipantId(2));
        assert_eq!(events[0], RouteServerEvent::SessionReset(ParticipantId(2)));
        assert_eq!(events.len(), 5, "B announced four prefixes");
        assert_eq!(
            rs.participants().collect::<Vec<_>>(),
            vec![ParticipantId(1), ParticipantId(3)]
        );
        assert!(rs.adj_rib_in(ParticipantId(2)).is_none());
        assert!(!rs.asns.contains_key(&ParticipantId(2)));
        assert_eq!(rs.take_dirty_prefixes().len(), 4);
        // p3 was B's alone; p1 falls back to C for A.
        assert!(rs.top_route(prefix("30.0.0.0/8")).is_none());
        assert_eq!(
            rs.best_for(ParticipantId(1), prefix("10.0.0.0/8"))
                .map(|r| r.source.participant),
            Some(ParticipantId(3))
        );
        assert_eq!(
            rs.withheld_from(&looped, prefix("50.0.0.0/8")),
            vec![ParticipantId(3)],
            "B's ASN no longer names a peer"
        );
        // Idempotent, and an update from it is now from a stranger.
        assert!(rs.remove_peer(ParticipantId(2)).is_empty());
    }

    #[test]
    fn filter_as_path_selects_origin() {
        let rs = figure1_server();
        let re = crate::aspath_re::AsPathRegex::compile(".*200$").unwrap();
        let mut hits = rs.filter_as_path(ParticipantId(1), &re);
        hits.sort();
        assert_eq!(hits, vec![prefix("10.0.0.0/8"), prefix("20.0.0.0/8")]);
    }

    #[test]
    fn update_from_known_peer_with_new_attrs_changes_prefix() {
        let mut rs = figure1_server();
        // C improves its path for p4; event fires, best flips to C for A.
        let ev = rs.process_update(
            ParticipantId(3),
            &UpdateMessage::announce(
                [prefix("40.0.0.0/8")],
                PathAttributes::new(AsPath::sequence([65003]), ip("172.16.0.3"))
                    .with_local_pref(200),
            ),
        );
        assert_eq!(ev.len(), 1);
        let best = rs.best_for(ParticipantId(1), prefix("40.0.0.0/8")).unwrap();
        assert_eq!(best.source.participant, ParticipantId(3));
    }

    #[test]
    #[should_panic(expected = "unregistered participant")]
    fn update_from_unknown_peer_panics() {
        let mut rs = RouteServer::new();
        rs.process_update(
            ParticipantId(9),
            &simple_announce(prefix("10.0.0.0/8"), &[1], ip("1.1.1.1")),
        );
    }

    #[test]
    fn community_no_export_to_hides_route() {
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all());
        rs.add_peer(src(2), ExportPolicy::allow_all());
        rs.add_peer(src(3), ExportPolicy::allow_all());
        let attrs = PathAttributes::new(AsPath::sequence([65002, 9]), ip("172.16.0.2"))
            .with_community(communities::no_export_to(ParticipantId(1)));
        rs.process_update(
            ParticipantId(2),
            &UpdateMessage::announce([prefix("60.0.0.0/8")], attrs),
        );
        assert!(rs
            .best_for(ParticipantId(1), prefix("60.0.0.0/8"))
            .is_none());
        assert!(rs
            .best_for(ParticipantId(3), prefix("60.0.0.0/8"))
            .is_some());
    }

    #[test]
    fn community_export_only_to_is_an_allow_list() {
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all());
        rs.add_peer(src(2), ExportPolicy::allow_all());
        rs.add_peer(src(3), ExportPolicy::allow_all());
        let attrs = PathAttributes::new(AsPath::sequence([65002, 9]), ip("172.16.0.2"))
            .with_community(communities::export_only_to(ParticipantId(3)));
        rs.process_update(
            ParticipantId(2),
            &UpdateMessage::announce([prefix("61.0.0.0/8")], attrs),
        );
        assert!(rs
            .best_for(ParticipantId(1), prefix("61.0.0.0/8"))
            .is_none());
        assert!(rs
            .best_for(ParticipantId(3), prefix("61.0.0.0/8"))
            .is_some());
    }

    #[test]
    fn community_no_export_all_blackholes() {
        let mut rs = RouteServer::new();
        rs.add_peer(src(1), ExportPolicy::allow_all());
        rs.add_peer(src(2), ExportPolicy::allow_all());
        let attrs = PathAttributes::new(AsPath::sequence([65002, 9]), ip("172.16.0.2"))
            .with_community(communities::NO_EXPORT_ALL);
        rs.process_update(
            ParticipantId(2),
            &UpdateMessage::announce([prefix("62.0.0.0/8")], attrs),
        );
        assert!(rs
            .best_for(ParticipantId(1), prefix("62.0.0.0/8"))
            .is_none());
    }

    #[test]
    fn community_deny_beats_allow() {
        use crate::attrs::Community;
        let comms = vec![
            communities::export_only_to(ParticipantId(1)),
            communities::no_export_to(ParticipantId(1)),
            Community(9, 9), // unrelated community is ignored
        ];
        assert!(!communities::allows(&comms, ParticipantId(1)));
        assert!(
            !communities::allows(&comms, ParticipantId(2)),
            "not on allow list"
        );
        assert!(communities::allows(&[Community(9, 9)], ParticipantId(2)));
    }
}
