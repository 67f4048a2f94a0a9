//! The participant border-router model: the free first FIB stage.
//!
//! §4.2 of the paper (Figure 2): the SDX needs a two-stage FIB — stage 1
//! maps destination prefix → FEC tag, stage 2 maps tag → forwarding action.
//! Stage 1 would be enormous (500k+ prefixes), so the SDX offloads it to
//! the participant's *own border router*, transparently:
//!
//! 1. the route server re-advertises each best route with a **virtual next
//!    hop** (VNH) IP as its NEXT_HOP;
//! 2. the border router installs a FIB entry for the prefix pointing at the
//!    VNH, as any BGP router would;
//! 3. when forwarding, it ARPs for the VNH; the SDX ARP responder answers
//!    with the **virtual MAC** encoding the FEC;
//! 4. every packet the router sends into the fabric therefore carries its
//!    FEC in the destination MAC field — the tag stage 2 matches on.
//!
//! This model implements exactly that: it consumes the route server's
//! UPDATE messages, maintains a prefix-trie FIB, resolves next hops through
//! an [`ArpResponder`], and emits tagged packets. It is *unmodified-BGP*
//! faithful — nothing here knows about FECs; the tag appears purely through
//! next-hop+ARP mechanics, which is the paper's point.
//!
//! # Attached routers share one FIB table
//!
//! A [`BorderRouter`] on its own holds its FIB in its own trie. Routers
//! attached to a [`Fabric`](crate::fabric::Fabric) do not: a route server
//! tells almost every peer almost the same thing, so the fabric keeps all
//! their FIBs in one [`SharedFib`] — per prefix the next hop most routers
//! hold, plus a slot for each router that holds another or none — and
//! [`RouterRef`] / [`RouterMut`] are a router together with its side of
//! that table. This is an economy of the simulation, not a change to the
//! model: no router can see another's routes, and each one's lookups,
//! `fib_len` and forwarding are exactly what its own trie would give after
//! the same UPDATE stream.

use std::fmt;
use std::ops::{Deref, DerefMut};

use sdx_net::{
    Ipv4Addr, LocatedPacket, MacAddr, Packet, PortId, Prefix, PrefixTrie, Slot, View, ViewTable,
    Write,
};

use sdx_bgp::msg::UpdateMessage;

use crate::arp::{ArpRequest, ArpResponder};

/// A FIB entry: where the router sends matching packets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FibEntry {
    /// The BGP next-hop address (a VNH at the SDX).
    pub next_hop: Ipv4Addr,
}

/// The FIBs of every router attached to one fabric, keyed by the port the
/// router is attached at (see the module documentation).
pub type SharedFib = ViewTable<PortId, FibEntry>;

/// A participant's border router.
#[derive(Clone, PartialEq, Debug)]
pub struct BorderRouter {
    /// The fabric port this router is attached to.
    pub port: PortId,
    /// The router's interface MAC.
    pub mac: MacAddr,
    fib: PrefixTrie<FibEntry>,
    /// Local ARP cache, filled by querying the SDX responder.
    arp_cache: std::collections::BTreeMap<Ipv4Addr, MacAddr>,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Packets dropped because ARP resolution failed.
    pub no_arp_drops: u64,
}

impl BorderRouter {
    /// A router attached at `port` with interface `mac` and an empty FIB.
    pub fn new(port: PortId, mac: MacAddr) -> Self {
        BorderRouter {
            port,
            mac,
            fib: PrefixTrie::new(),
            arp_cache: std::collections::BTreeMap::new(),
            no_route_drops: 0,
            no_arp_drops: 0,
        }
    }

    /// Applies an UPDATE from the route server: withdrawals remove FIB
    /// entries, announcements install `prefix → next_hop`.
    pub fn apply_update(&mut self, update: &UpdateMessage) {
        for p in &update.withdrawn {
            self.set_route(*p, None);
        }
        if let Some(attrs) = &update.attrs {
            for p in &update.nlri {
                self.set_route(*p, Some(attrs.next_hop));
            }
        }
    }

    /// What an UPDATE does to the FIB for one prefix: an announcement
    /// installs `prefix → next_hop` (the only attribute a FIB keeps), a
    /// withdrawal (`None`) removes the entry. Returns the entry this
    /// displaced; setting the route to that entry's next hop undoes the
    /// write.
    pub fn set_route(&mut self, prefix: Prefix, next_hop: Option<Ipv4Addr>) -> Option<FibEntry> {
        match next_hop {
            Some(next_hop) => self.fib.insert(prefix, FibEntry { next_hop }),
            None => self.fib.remove(prefix),
        }
    }

    /// Empties the FIB, returning what it held (a router being attached
    /// to a fabric hands its routes to the fabric's shared table).
    pub(crate) fn take_fib(&mut self) -> PrefixTrie<FibEntry> {
        std::mem::take(&mut self.fib)
    }

    /// The FIB entry that would forward `dst`, if any (longest-prefix).
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(Prefix, FibEntry)> {
        self.fib.lookup(dst).map(|(p, e)| (p, *e))
    }

    /// Number of FIB entries (the paper's "no additional table space"
    /// claim is that this count is what the router holds *anyway*).
    pub fn fib_len(&self) -> usize {
        self.fib.len()
    }

    /// Flushes the ARP cache — required when the SDX re-binds a VNH to a
    /// new VMAC (the real system shortens ARP TTLs / sends gratuitous ARP).
    pub fn flush_arp(&mut self) {
        self.arp_cache.clear();
    }

    /// Invalidates one cached VNH→VMAC mapping (the per-address gratuitous
    /// ARP a delta-first reoptimize sends: only retired bindings are
    /// flushed, the rest of the cache survives). Returns whether an entry
    /// was present.
    pub fn invalidate_arp(&mut self, addr: Ipv4Addr) -> bool {
        self.arp_cache.remove(&addr).is_some()
    }

    /// The cached VMAC for `addr`, if resolved earlier — lets tests assert
    /// which cache entries survived a selective flush.
    pub fn cached_arp(&self, addr: Ipv4Addr) -> Option<MacAddr> {
        self.arp_cache.get(&addr).copied()
    }

    /// Forwards an IP packet originated behind this router into the
    /// fabric: FIB lookup, ARP for the next hop (through the SDX
    /// responder), MAC rewrite, and emission on the fabric port.
    ///
    /// Returns `None` when the packet has no route or ARP fails — both
    /// counted for the failure-injection tests.
    pub fn forward(&mut self, pkt: Packet, arp: &mut ArpResponder) -> Option<LocatedPacket> {
        let route = self.route_for(pkt.nw_dst).map(|(_, entry)| entry);
        self.tag(route, pkt, arp)
    }

    /// [`forward`](Self::forward) after the FIB lookup, whichever table
    /// answered it.
    pub(crate) fn tag(
        &mut self,
        route: Option<FibEntry>,
        pkt: Packet,
        arp: &mut ArpResponder,
    ) -> Option<LocatedPacket> {
        let Some(entry) = route else {
            self.no_route_drops += 1;
            return None;
        };
        let mac = match self.arp_cache.get(&entry.next_hop) {
            Some(m) => *m,
            None => {
                let Some(reply) = arp.handle(ArpRequest {
                    target: entry.next_hop,
                }) else {
                    self.no_arp_drops += 1;
                    return None;
                };
                self.arp_cache.insert(entry.next_hop, reply.mac);
                reply.mac
            }
        };
        let tagged = pkt.with_macs(self.mac, mac);
        Some(LocatedPacket::at(self.port, tagged))
    }
}

/// A router attached to a fabric, with its side of the fabric's
/// [`SharedFib`]. Dereferences to the [`BorderRouter`] for everything but
/// the FIB (port, MAC, ARP cache, drop counters).
#[derive(Clone, Copy)]
pub struct RouterRef<'a> {
    router: &'a BorderRouter,
    fib: &'a SharedFib,
}

impl<'a> RouterRef<'a> {
    pub(crate) fn new(router: &'a BorderRouter, fib: &'a SharedFib) -> Self {
        RouterRef { router, fib }
    }

    /// The router's FIB: what it sees of the shared table.
    pub fn fib(&self) -> View<'a, PortId, FibEntry> {
        self.fib.view(self.router.port)
    }

    /// The FIB entry that would forward `dst`, if any (longest-prefix).
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(Prefix, FibEntry)> {
        self.fib().lookup(dst).map(|(p, e)| (p, *e))
    }

    /// Number of FIB entries (a walk of the shared table).
    pub fn fib_len(&self) -> usize {
        self.fib().len()
    }

    /// A copy of the router that stands on its own: its FIB materialised
    /// into its own trie, ARP cache and counters as they are.
    pub fn detached(&self) -> BorderRouter {
        let mut router = self.router.clone();
        router.fib = self.fib().iter().map(|(p, e)| (p, *e)).collect();
        router
    }
}

impl Deref for RouterRef<'_> {
    type Target = BorderRouter;

    fn deref(&self) -> &BorderRouter {
        self.router
    }
}

impl PartialEq for RouterRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.router == other.router && self.fib() == other.fib()
    }
}

impl fmt::Debug for RouterRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterRef")
            .field("router", self.router)
            .field("fib", &self.fib())
            .finish()
    }
}

/// [`RouterRef`] with write access: route-server UPDATEs applied through
/// it land in the router's slots of the shared table.
pub struct RouterMut<'a> {
    router: &'a mut BorderRouter,
    fib: &'a mut SharedFib,
}

impl<'a> RouterMut<'a> {
    pub(crate) fn new(router: &'a mut BorderRouter, fib: &'a mut SharedFib) -> Self {
        RouterMut { router, fib }
    }

    /// [`BorderRouter::apply_update`] on the shared table.
    pub fn apply_update(&mut self, update: &UpdateMessage) {
        for p in &update.withdrawn {
            self.set_route(*p, None);
        }
        if let Some(attrs) = &update.attrs {
            for p in &update.nlri {
                self.set_route(*p, Some(attrs.next_hop));
            }
        }
    }

    /// [`BorderRouter::set_route`] on the shared table: returns the entry
    /// the router held for `prefix` before.
    pub fn set_route(&mut self, prefix: Prefix, next_hop: Option<Ipv4Addr>) -> Option<FibEntry> {
        let port = self.router.port;
        let previous = self.fib.get(port, prefix).copied();
        let slot = match next_hop {
            Some(next_hop) => Slot::Own(FibEntry { next_hop }),
            // Only a router that would otherwise see the base has to be
            // told that it has no route.
            None if self.fib.is_subscribed(port) && self.fib.base(prefix).is_some() => {
                Slot::Withheld
            }
            None => Slot::Inherit,
        };
        self.fib.apply(Write::Slot {
            viewer: port,
            prefix,
            slot,
        });
        previous
    }

    /// The FIB entry that would forward `dst`, if any (longest-prefix).
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(Prefix, FibEntry)> {
        RouterRef::new(self.router, self.fib).route_for(dst)
    }

    /// Number of FIB entries (a walk of the shared table).
    pub fn fib_len(&self) -> usize {
        RouterRef::new(self.router, self.fib).fib_len()
    }

    /// [`BorderRouter::forward`] through the shared table. Takes the
    /// handle: fetch it again (or use
    /// [`Fabric::send`](crate::fabric::Fabric::send)) for the next packet.
    pub fn forward(self, pkt: Packet, arp: &mut ArpResponder) -> Option<LocatedPacket> {
        let route = self.fib.lookup(self.router.port, pkt.nw_dst);
        let route = route.map(|(_, entry)| *entry);
        self.router.tag(route, pkt, arp)
    }
}

impl Deref for RouterMut<'_> {
    type Target = BorderRouter;

    fn deref(&self) -> &BorderRouter {
        self.router
    }
}

impl DerefMut for RouterMut<'_> {
    fn deref_mut(&mut self) -> &mut BorderRouter {
        self.router
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_net::{ip, prefix, ParticipantId};

    fn router() -> BorderRouter {
        BorderRouter::new(PortId::Phys(ParticipantId(1), 1), MacAddr::physical(1))
    }

    fn announce(pfx: &str, nh: Ipv4Addr) -> UpdateMessage {
        UpdateMessage::announce(
            [prefix(pfx)],
            PathAttributes::new(AsPath::sequence([65002]), nh),
        )
    }

    #[test]
    fn fib_follows_updates() {
        let mut r = router();
        r.apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        assert_eq!(r.fib_len(), 1);
        let (p, e) = r.route_for(ip("74.125.1.1")).unwrap();
        assert_eq!(p, prefix("74.125.0.0/16"));
        assert_eq!(e.next_hop, ip("172.16.255.1"));
        r.apply_update(&UpdateMessage::withdraw([prefix("74.125.0.0/16")]));
        assert!(r.route_for(ip("74.125.1.1")).is_none());
    }

    #[test]
    fn forward_tags_with_vmac() {
        let mut r = router();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(42));
        r.apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        let lp = r
            .forward(
                Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
                &mut arp,
            )
            .unwrap();
        // The packet enters the fabric on the router's port with the FEC
        // encoded in the destination MAC — the paper's data-plane tag.
        assert_eq!(lp.loc, PortId::Phys(ParticipantId(1), 1));
        assert_eq!(lp.pkt.dl_dst.fec_id(), Some(42));
        assert_eq!(lp.pkt.dl_src, MacAddr::physical(1));
    }

    #[test]
    fn arp_is_cached_until_flushed() {
        let mut r = router();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        r.apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        let p = Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80);
        assert_eq!(r.forward(p, &mut arp).unwrap().pkt.dl_dst, MacAddr::vmac(1));
        // Rebind without flushing: stale cache still serves the old VMAC.
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(2));
        assert_eq!(r.forward(p, &mut arp).unwrap().pkt.dl_dst, MacAddr::vmac(1));
        // Flush → new VMAC picked up.
        r.flush_arp();
        assert_eq!(r.forward(p, &mut arp).unwrap().pkt.dl_dst, MacAddr::vmac(2));
    }

    #[test]
    fn drops_are_counted() {
        let mut r = router();
        let mut arp = ArpResponder::new();
        // No route at all.
        assert!(r
            .forward(Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80), &mut arp)
            .is_none());
        assert_eq!(r.no_route_drops, 1);
        // Route exists but the VNH is unresolvable.
        r.apply_update(&announce("2.0.0.0/8", ip("172.16.255.9")));
        assert!(r
            .forward(Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80), &mut arp)
            .is_none());
        assert_eq!(r.no_arp_drops, 1);
        assert_eq!(arp.unanswered, 1);
    }

    #[test]
    fn more_specific_route_wins() {
        let mut r = router();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        arp.bind(ip("172.16.255.2"), MacAddr::vmac(2));
        r.apply_update(&announce("74.0.0.0/8", ip("172.16.255.1")));
        r.apply_update(&announce("74.125.0.0/16", ip("172.16.255.2")));
        let lp = r
            .forward(
                Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
                &mut arp,
            )
            .unwrap();
        assert_eq!(lp.pkt.dl_dst.fec_id(), Some(2));
    }
}
