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
//! UPDATE messages into a FIB, resolves next hops through an
//! [`ArpResponder`], and emits tagged packets. It is *unmodified-BGP*
//! faithful — nothing here knows about FECs; the tag appears purely through
//! next-hop+ARP mechanics, which is the paper's point.
//!
//! # The FIB is what the participant was told
//!
//! A [`Fabric`](crate::fabric::Fabric) keeps the route server's
//! Adj-RIB-Outs ([`AdjRibOuts`]): per prefix the advertisement most
//! participants were sent, plus a slot for each participant sent another
//! or none. A router's FIB is its participant's view of that table — all
//! a FIB keeps of an advertisement is its next hop — so every router of
//! one participant forwards by what that participant was told, and no
//! router can hold a route the route server did not advertise. A
//! [`BorderRouter`] is its port, MAC, ARP cache and drop counters; its
//! FIB is read through [`RouterRef`] and written through [`RouterMut`].

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use sdx_net::{Ipv4Addr, LocatedPacket, MacAddr, Packet, PortId, Prefix, Slot, WordMap, Write};

use sdx_bgp::msg::UpdateMessage;
use sdx_bgp::rib::{AdjRibOut, AdjRibOuts, Advert};

use crate::arp::{ArpRequest, ArpResponder};

/// A participant's border router, without its FIB (see the module
/// documentation).
#[derive(Clone, PartialEq, Debug)]
pub struct BorderRouter {
    /// The fabric port this router is attached to.
    pub port: PortId,
    /// The router's interface MAC.
    pub mac: MacAddr,
    /// Local ARP cache, filled by querying the SDX responder; hashed,
    /// since every forwarded packet reads it.
    arp_cache: WordMap<Ipv4Addr, MacAddr>,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Packets dropped because ARP resolution failed.
    pub no_arp_drops: u64,
}

impl BorderRouter {
    /// A router at `port` with interface `mac` and an empty ARP cache.
    pub fn new(port: PortId, mac: MacAddr) -> Self {
        BorderRouter {
            port,
            mac,
            arp_cache: WordMap::default(),
            no_route_drops: 0,
            no_arp_drops: 0,
        }
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

    /// The step after the FIB lookup: ARP for the route's `next_hop`
    /// (through the SDX responder), MAC rewrite, and emission on the
    /// fabric port.
    ///
    /// Returns `None` when there is no route or ARP fails — both counted
    /// for the failure-injection tests.
    pub(crate) fn tag(
        &mut self,
        next_hop: Option<Ipv4Addr>,
        pkt: Packet,
        arp: &mut ArpResponder,
    ) -> Option<LocatedPacket> {
        let Some(next_hop) = next_hop else {
            self.no_route_drops += 1;
            return None;
        };
        let mac = match self.arp_cache.get(&next_hop) {
            Some(m) => *m,
            None => {
                let Some(reply) = arp.handle(ArpRequest { target: next_hop }) else {
                    self.no_arp_drops += 1;
                    return None;
                };
                self.arp_cache.insert(next_hop, reply.mac);
                reply.mac
            }
        };
        let tagged = pkt.with_macs(self.mac, mac);
        Some(LocatedPacket::at(self.port, tagged))
    }
}

/// A router attached to a fabric, with its participant's view of the
/// fabric's [`AdjRibOuts`] as its FIB. Dereferences to the
/// [`BorderRouter`] for everything but the FIB (port, MAC, ARP cache,
/// drop counters).
#[derive(Clone, Copy)]
pub struct RouterRef<'a> {
    router: &'a BorderRouter,
    adverts: &'a AdjRibOuts,
}

impl<'a> RouterRef<'a> {
    pub(crate) fn new(router: &'a BorderRouter, adverts: &'a AdjRibOuts) -> Self {
        RouterRef { router, adverts }
    }

    /// The router's FIB: what its participant was advertised.
    pub fn fib(&self) -> AdjRibOut<'a> {
        self.adverts.view(self.router.port.participant())
    }

    /// The prefix and next hop that would forward `dst`, if any
    /// (longest-prefix).
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(Prefix, Ipv4Addr)> {
        self.fib().lookup(dst).map(|(p, a)| (p, a.next_hop))
    }

    /// Number of FIB entries, a walk of the table (the paper's "no
    /// additional table space" claim is that this count is what the
    /// router holds *anyway*).
    pub fn fib_len(&self) -> usize {
        self.fib().len()
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
/// it land in its participant's slots of the table, so every router of
/// that participant sees them.
pub struct RouterMut<'a> {
    router: &'a mut BorderRouter,
    adverts: &'a mut AdjRibOuts,
}

impl<'a> RouterMut<'a> {
    pub(crate) fn new(router: &'a mut BorderRouter, adverts: &'a mut AdjRibOuts) -> Self {
        RouterMut { router, adverts }
    }

    /// Applies an UPDATE from the route server: withdrawals remove FIB
    /// entries, announcements install `prefix → next_hop`.
    pub fn apply_update(&mut self, update: &UpdateMessage) {
        for p in &update.withdrawn {
            self.set_route(*p, None);
        }
        if let Some(attrs) = &update.attrs {
            let route = Arc::new(attrs.clone());
            for p in &update.nlri {
                let next_hop = attrs.next_hop;
                let route = Arc::clone(&route);
                self.set_route(*p, Some(Advert { route, next_hop }));
            }
        }
    }

    /// What an UPDATE does to the FIB for one prefix: an announcement
    /// installs `advert`, a withdrawal (`None`) removes the entry. Returns
    /// the advertisement the router's participant held for `prefix`
    /// before.
    pub fn set_route(&mut self, prefix: Prefix, advert: Option<Advert>) -> Option<Advert> {
        let viewer = self.router.port.participant();
        let previous = self.adverts.get(viewer, prefix).cloned();
        let slot = match advert {
            Some(advert) => Slot::Own(advert),
            // Only a viewer that would otherwise see the base has to be
            // told that it has no route.
            None if self.adverts.is_subscribed(viewer) && self.adverts.base(prefix).is_some() => {
                Slot::Withheld
            }
            None => Slot::Inherit,
        };
        self.adverts.apply(Write::Slot {
            viewer,
            prefix,
            slot,
        });
        previous
    }

    /// The prefix and next hop that would forward `dst`, if any
    /// (longest-prefix).
    pub fn route_for(&self, dst: Ipv4Addr) -> Option<(Prefix, Ipv4Addr)> {
        RouterRef::new(self.router, self.adverts).route_for(dst)
    }

    /// Number of FIB entries (a walk of the table).
    pub fn fib_len(&self) -> usize {
        RouterRef::new(self.router, self.adverts).fib_len()
    }

    /// Forwards an IP packet originated behind this router into the
    /// fabric: FIB lookup, ARP for the next hop (through the SDX
    /// responder), MAC rewrite, and emission on the fabric port. Returns
    /// `None` when the packet has no route or ARP fails, counting which.
    /// Takes the handle: fetch it again (or use
    /// [`Fabric::send`](crate::fabric::Fabric::send)) for the next packet.
    pub fn forward(self, pkt: Packet, arp: &mut ArpResponder) -> Option<LocatedPacket> {
        let viewer = self.router.port.participant();
        let route = self.adverts.lookup(viewer, pkt.nw_dst);
        self.router.tag(route.map(|(_, a)| a.next_hop), pkt, arp)
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
    use crate::fabric::Fabric;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_net::{ip, prefix, ParticipantId};

    const AT: PortId = PortId::Phys(ParticipantId(1), 1);

    /// A fabric with one router attached at [`AT`], its FIB empty.
    fn attached() -> Fabric {
        let mut f = Fabric::new();
        f.attach(BorderRouter::new(AT, MacAddr::physical(1)));
        f
    }

    fn router(f: &mut Fabric) -> RouterMut<'_> {
        f.router_mut(AT).expect("attached")
    }

    fn announce(pfx: &str, nh: Ipv4Addr) -> UpdateMessage {
        UpdateMessage::announce(
            [prefix(pfx)],
            PathAttributes::new(AsPath::sequence([65002]), nh),
        )
    }

    #[test]
    fn fib_follows_updates() {
        let mut f = attached();
        router(&mut f).apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        assert_eq!(router(&mut f).fib_len(), 1);
        let (p, next_hop) = router(&mut f).route_for(ip("74.125.1.1")).unwrap();
        assert_eq!(p, prefix("74.125.0.0/16"));
        assert_eq!(next_hop, ip("172.16.255.1"));
        router(&mut f).apply_update(&UpdateMessage::withdraw([prefix("74.125.0.0/16")]));
        assert!(router(&mut f).route_for(ip("74.125.1.1")).is_none());
    }

    #[test]
    fn forward_tags_with_vmac() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(42));
        router(&mut f).apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        let lp = router(&mut f)
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
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        router(&mut f).apply_update(&announce("74.125.0.0/16", ip("172.16.255.1")));
        let p = Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80);
        let forward =
            |f: &mut Fabric, arp: &mut ArpResponder| router(f).forward(p, arp).unwrap().pkt.dl_dst;
        assert_eq!(forward(&mut f, &mut arp), MacAddr::vmac(1));
        // Rebind without flushing: stale cache still serves the old VMAC.
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(2));
        assert_eq!(forward(&mut f, &mut arp), MacAddr::vmac(1));
        // Flush → new VMAC picked up.
        router(&mut f).flush_arp();
        assert_eq!(forward(&mut f, &mut arp), MacAddr::vmac(2));
    }

    #[test]
    fn drops_are_counted() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        // No route at all.
        assert!(router(&mut f)
            .forward(Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80), &mut arp)
            .is_none());
        assert_eq!(f.router(AT).unwrap().no_route_drops, 1);
        // Route exists but the VNH is unresolvable.
        router(&mut f).apply_update(&announce("2.0.0.0/8", ip("172.16.255.9")));
        assert!(router(&mut f)
            .forward(Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80), &mut arp)
            .is_none());
        assert_eq!(f.router(AT).unwrap().no_arp_drops, 1);
        assert_eq!(arp.unanswered, 1);
    }

    #[test]
    fn more_specific_route_wins() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        arp.bind(ip("172.16.255.2"), MacAddr::vmac(2));
        router(&mut f).apply_update(&announce("74.0.0.0/8", ip("172.16.255.1")));
        router(&mut f).apply_update(&announce("74.125.0.0/16", ip("172.16.255.2")));
        let lp = router(&mut f)
            .forward(
                Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
                &mut arp,
            )
            .unwrap();
        assert_eq!(lp.pkt.dl_dst.fec_id(), Some(2));
    }
}
