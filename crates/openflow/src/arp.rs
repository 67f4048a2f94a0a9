//! The SDX ARP responder (§4.2, §5.1).
//!
//! Virtual next hops are IP addresses that exist nowhere; when a border
//! router tries to resolve one, the SDX controller answers the ARP query
//! itself with the *virtual MAC* that tags the corresponding forwarding
//! equivalence class. Physical participant addresses are answered from the
//! same table, pre-populated from the static IXP configuration.
//!
//! The answer for a VNH is fixed by its FEC id (`sdx_core::vnh`), so a
//! router-side ARP cache could only ever repeat this table: every router
//! resolves through it ([`ArpResponder::resolve`]), and a retired VNH
//! stops resolving everywhere the moment it is unbound.

use sdx_net::{Ipv4Addr, MacAddr, WordMap};

/// The controller-side ARP table/responder.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ArpResponder {
    /// Hashed: every forwarded packet reads it.
    table: WordMap<Ipv4Addr, MacAddr>,
}

impl ArpResponder {
    /// An empty responder.
    pub fn new() -> Self {
        ArpResponder::default()
    }

    /// Binds `addr` → `mac`, returning the previous binding if any.
    /// Called by the VNH allocator whenever a new virtual next hop is
    /// assigned, and at startup for participants' physical addresses.
    pub fn bind(&mut self, addr: Ipv4Addr, mac: MacAddr) -> Option<MacAddr> {
        self.table.insert(addr, mac)
    }

    /// Removes a binding (e.g. when a VNH is retired).
    pub fn unbind(&mut self, addr: Ipv4Addr) -> Option<MacAddr> {
        self.table.remove(&addr)
    }

    /// The MAC `addr` is bound to, if any: the answer to a router's
    /// "who has `addr`?".
    pub fn resolve(&self, addr: Ipv4Addr) -> Option<MacAddr> {
        self.table.get(&addr).copied()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::ip;

    #[test]
    fn bind_and_resolve() {
        let mut arp = ArpResponder::new();
        assert!(arp.is_empty());
        assert_eq!(arp.bind(ip("172.16.255.1"), MacAddr::vmac(7)), None);
        assert_eq!(arp.resolve(ip("172.16.255.1")), Some(MacAddr::vmac(7)));
        assert_eq!(arp.len(), 1);
        // Rebinding reports the old MAC (FEC re-assignment).
        assert_eq!(
            arp.bind(ip("172.16.255.1"), MacAddr::vmac(9)),
            Some(MacAddr::vmac(7))
        );
    }

    #[test]
    fn unbind_retires_vnh() {
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        assert_eq!(arp.unbind(ip("172.16.255.1")), Some(MacAddr::vmac(7)));
        assert_eq!(arp.resolve(ip("172.16.255.1")), None);
        assert_eq!(arp.unbind(ip("172.16.255.1")), None);
    }
}
