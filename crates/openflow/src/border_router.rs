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
//! This model implements steps 3 and 4: it looks a packet's destination
//! up in what the route server advertised (steps 1 and 2, see below),
//! resolves the next hop through the [`ArpResponder`], and emits the
//! tagged packet. It is *unmodified-BGP* faithful — nothing here knows
//! about FECs; the tag appears purely through next-hop+ARP mechanics,
//! which is the paper's point.
//!
//! # The FIB is what the participant was told
//!
//! A [`Fabric`](crate::fabric::Fabric) keeps the route server's
//! Adj-RIB-Outs ([`AdjRibOuts`]): per prefix the advertisement most
//! participants were sent, plus a slot for each participant sent another
//! or none. A router's FIB is its participant's view of that table — all
//! a FIB keeps of an advertisement is its next hop — so every router of
//! one participant forwards by what that participant was told, and no
//! router can hold a route the route server did not advertise. The
//! controller writes that table (through its transaction's undo log, see
//! `sdx_core::txn`); a router only reads it.
//!
//! A router keeps no ARP cache: the responder's answer for a VNH is fixed
//! by its FEC id, so a cache could only repeat the responder's table, and
//! every packet resolves through that table instead. Forwarding therefore
//! writes nothing: a [`BorderRouter`] is its port and MAC, its FIB is
//! read through [`RouterRef`], and [`RouterRef::forward`] tags a packet.

use std::fmt;
use std::ops::Deref;

use sdx_net::{Ipv4Addr, LocatedPacket, MacAddr, Packet, PortId, Prefix};

use sdx_bgp::rib::{AdjRibOut, AdjRibOuts};

use crate::arp::ArpResponder;

/// A participant's border router, without its FIB (see the module
/// documentation).
#[derive(Clone, PartialEq, Debug)]
pub struct BorderRouter {
    /// The fabric port this router is attached to.
    pub port: PortId,
    /// The router's interface MAC.
    pub mac: MacAddr,
}

impl BorderRouter {
    /// A router at `port` with interface `mac`.
    pub fn new(port: PortId, mac: MacAddr) -> Self {
        BorderRouter { port, mac }
    }

    /// The step after the FIB lookup: ARP for the route's `next_hop`
    /// (through the SDX responder), MAC rewrite, and emission on the
    /// fabric port. `None` when the next hop does not resolve.
    pub(crate) fn tag(
        &self,
        next_hop: Ipv4Addr,
        pkt: Packet,
        arp: &ArpResponder,
    ) -> Option<LocatedPacket> {
        let mac = arp.resolve(next_hop)?;
        Some(LocatedPacket::at(self.port, pkt.with_macs(self.mac, mac)))
    }
}

/// A router attached to a fabric, with its participant's view of the
/// fabric's [`AdjRibOuts`] as its FIB. Dereferences to the
/// [`BorderRouter`] for its port and MAC.
#[derive(Clone, Copy)]
pub struct RouterRef<'a> {
    router: &'a BorderRouter,
    adverts: &'a AdjRibOuts,
}

/// The handle [`Fabric::router_mut`](crate::fabric::Fabric::router_mut)
/// returns: forwarding writes nothing, so it is a [`RouterRef`]. The name
/// is kept because the benchmark's data-plane probes call
/// `router_mut(port)?.forward(pkt, &mut arp)`.
pub type RouterMut<'a> = RouterRef<'a>;

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

    /// Forwards an IP packet originated behind this router into the
    /// fabric: FIB lookup, ARP for the next hop through `arp`, MAC
    /// rewrite, and emission on the fabric port. Returns `None` when the
    /// packet has no route or its next hop does not resolve
    /// ([`Fabric::send`](crate::fabric::Fabric::send) counts which).
    pub fn forward(self, pkt: Packet, arp: &ArpResponder) -> Option<LocatedPacket> {
        let viewer = self.router.port.participant();
        let (_, advert) = self.adverts.lookup(viewer, pkt.nw_dst)?;
        self.router.tag(advert.next_hop, pkt, arp)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_bgp::rib::Advert;
    use sdx_net::{ip, prefix, ParticipantId, Slot, Write};
    use std::sync::Arc;

    const AT: PortId = PortId::Phys(ParticipantId(1), 1);

    /// A fabric with one router attached at [`AT`], its FIB empty.
    fn attached() -> Fabric {
        let mut f = Fabric::new();
        f.attach(BorderRouter::new(AT, MacAddr::physical(1)));
        f
    }

    fn router(f: &Fabric) -> RouterRef<'_> {
        f.router(AT).expect("attached")
    }

    /// Writes AT's participant's own slot at `pfx`: advertised under
    /// `nh`, or (`None`) nothing of its own.
    fn tell(f: &mut Fabric, pfx: &str, nh: Option<Ipv4Addr>) {
        let slot = nh.map_or(Slot::Inherit, |next_hop| {
            let route = Arc::new(PathAttributes::new(AsPath::sequence([65002]), next_hop));
            Slot::Own(Advert { route, next_hop })
        });
        f.adj_rib_outs_mut().apply(Write::Slot {
            viewer: AT.participant(),
            prefix: prefix(pfx),
            slot,
        });
    }

    #[test]
    fn fib_is_the_participants_view() {
        let mut f = attached();
        tell(&mut f, "74.125.0.0/16", Some(ip("172.16.255.1")));
        let r = f.router(AT).unwrap();
        assert_eq!(r.fib_len(), 1);
        let (p, next_hop) = r.route_for(ip("74.125.1.1")).unwrap();
        assert_eq!(p, prefix("74.125.0.0/16"));
        assert_eq!(next_hop, ip("172.16.255.1"));
        tell(&mut f, "74.125.0.0/16", None);
        assert!(f.router(AT).unwrap().route_for(ip("74.125.1.1")).is_none());
    }

    #[test]
    fn forward_tags_with_vmac() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(42));
        tell(&mut f, "74.125.0.0/16", Some(ip("172.16.255.1")));
        let lp = router(&f)
            .forward(Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80), &arp)
            .unwrap();
        // The packet enters the fabric on the router's port with the FEC
        // encoded in the destination MAC — the paper's data-plane tag.
        assert_eq!(lp.loc, PortId::Phys(ParticipantId(1), 1));
        assert_eq!(lp.pkt.dl_dst.fec_id(), Some(42));
        assert_eq!(lp.pkt.dl_src, MacAddr::physical(1));
    }

    #[test]
    fn every_packet_resolves_through_the_responder() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        tell(&mut f, "74.125.0.0/16", Some(ip("172.16.255.1")));
        let p = Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80);
        let forward = |arp: &ArpResponder| router(&f).forward(p, arp).map(|lp| lp.pkt.dl_dst);
        assert_eq!(forward(&arp), Some(MacAddr::vmac(1)));
        // No cache to go stale: a rebinding shows on the next packet, and
        // an unbound next hop stops resolving at once.
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(2));
        assert_eq!(forward(&arp), Some(MacAddr::vmac(2)));
        arp.unbind(ip("172.16.255.1"));
        assert_eq!(forward(&arp), None);
    }

    #[test]
    fn unroutable_and_unresolvable_packets_are_dropped() {
        let mut f = attached();
        let arp = ArpResponder::new();
        let p = Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80);
        // No route at all.
        assert!(router(&f).forward(p, &arp).is_none());
        // A route whose VNH the responder cannot resolve.
        tell(&mut f, "2.0.0.0/8", Some(ip("172.16.255.9")));
        assert!(router(&f).route_for(p.nw_dst).is_some());
        assert!(router(&f).forward(p, &arp).is_none());
    }

    #[test]
    fn more_specific_route_wins() {
        let mut f = attached();
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(1));
        arp.bind(ip("172.16.255.2"), MacAddr::vmac(2));
        tell(&mut f, "74.0.0.0/8", Some(ip("172.16.255.1")));
        tell(&mut f, "74.125.0.0/16", Some(ip("172.16.255.2")));
        let lp = router(&f)
            .forward(Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80), &arp)
            .unwrap();
        assert_eq!(lp.pkt.dl_dst.fec_id(), Some(2));
    }
}
