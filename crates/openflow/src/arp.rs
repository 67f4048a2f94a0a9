//! The SDX ARP responder (§4.2, §5.1).
//!
//! Virtual next hops are IP addresses that exist nowhere; when a border
//! router tries to resolve one, the SDX controller answers the ARP query
//! itself with the *virtual MAC* that tags the corresponding forwarding
//! equivalence class. Physical participant addresses are answered from the
//! same table, pre-populated from the static IXP configuration.

use sdx_net::{Ipv4Addr, MacAddr, WordMap};

/// An ARP request: "who has `target`?"
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpRequest {
    /// Address being resolved.
    pub target: Ipv4Addr,
}

/// An ARP reply: "`target` is at `mac`."
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpReply {
    /// The resolved address.
    pub target: Ipv4Addr,
    /// Its MAC — a VMAC for virtual next hops.
    pub mac: MacAddr,
}

/// The controller-side ARP table/responder.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ArpResponder {
    /// Hashed: a router's ARP-cache miss reads it mid-packet.
    table: WordMap<Ipv4Addr, MacAddr>,
    /// Requests that could not be answered (diagnostics/failure injection).
    pub unanswered: u64,
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

    /// Looks up without counting a miss.
    pub fn resolve(&self, addr: Ipv4Addr) -> Option<MacAddr> {
        self.table.get(&addr).copied()
    }

    /// Handles a request, counting unanswered ones.
    pub fn handle(&mut self, req: ArpRequest) -> Option<ArpReply> {
        match self.table.get(&req.target) {
            Some(mac) => Some(ArpReply {
                target: req.target,
                mac: *mac,
            }),
            None => {
                self.unanswered += 1;
                None
            }
        }
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
    fn handle_replies_and_counts_misses() {
        let mut arp = ArpResponder::new();
        arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        let reply = arp
            .handle(ArpRequest {
                target: ip("172.16.255.1"),
            })
            .unwrap();
        assert_eq!(reply.mac, MacAddr::vmac(7));
        assert_eq!(reply.target, ip("172.16.255.1"));
        assert!(arp
            .handle(ArpRequest {
                target: ip("172.16.255.99"),
            })
            .is_none());
        assert_eq!(arp.unanswered, 1);
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
