//! The packet-header model that SDX policies are written against.
//!
//! Pyretic's central object is the *located packet*: a packet together with
//! its current location in the (virtual or physical) topology. A policy maps
//! one located packet to a set of located packets — the set being empty for
//! a drop, a singleton for unicast, larger for multicast.
//!
//! We model exactly the headers the paper's policies touch: Ethernet
//! source/destination, EtherType, IPv4 source/destination, IP protocol, and
//! the transport ports. Payloads are irrelevant to every experiment and are
//! represented only by an opaque length (used by the traffic simulator to
//! account bytes).

use core::fmt;

use crate::asn::PortId;
use crate::ipv4::Ipv4Addr;
use crate::mac::MacAddr;

/// EtherType values the SDX cares about.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EtherType {
    /// IPv4 payload (0x0800).
    Ipv4,
    /// ARP (0x0806) — used by the SDX ARP responder for VNH resolution.
    Arp,
    /// Anything else, by raw value.
    Other(u16),
}

impl EtherType {
    /// The on-wire 16-bit value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Classifies a raw EtherType value.
    pub fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// IP protocol numbers used by the experiments.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IpProto {
    /// TCP (6).
    Tcp,
    /// UDP (17) — the deployment experiments use 1 Mbps UDP flows.
    Udp,
    /// ICMP (1).
    Icmp,
    /// Anything else, by raw value.
    Other(u8),
}

impl IpProto {
    /// The on-wire protocol number.
    pub fn value(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Classifies a raw protocol number.
    pub fn from_value(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// A packet's header fields (concrete values, no wildcards).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Packet {
    /// Ethernet source address.
    pub dl_src: MacAddr,
    /// Ethernet destination address. At the SDX this usually carries the
    /// VMAC tag installed by the sender's border router.
    pub dl_dst: MacAddr,
    /// EtherType of the payload.
    pub eth_type: EtherType,
    /// IPv4 source address.
    pub nw_src: Ipv4Addr,
    /// IPv4 destination address.
    pub nw_dst: Ipv4Addr,
    /// IP protocol.
    pub nw_proto: IpProto,
    /// Transport-layer source port.
    pub tp_src: u16,
    /// Transport-layer destination port.
    pub tp_dst: u16,
    /// Opaque payload length in bytes (for traffic accounting only).
    pub payload_len: u32,
}

impl Packet {
    /// A zeroed template; builders below fill in the interesting fields.
    pub fn empty() -> Self {
        Packet {
            dl_src: MacAddr::ZERO,
            dl_dst: MacAddr::ZERO,
            eth_type: EtherType::Ipv4,
            nw_src: Ipv4Addr::UNSPECIFIED,
            nw_dst: Ipv4Addr::UNSPECIFIED,
            nw_proto: IpProto::Tcp,
            tp_src: 0,
            tp_dst: 0,
            payload_len: 0,
        }
    }

    /// A TCP packet between the given endpoints.
    pub fn tcp(nw_src: Ipv4Addr, nw_dst: Ipv4Addr, tp_src: u16, tp_dst: u16) -> Self {
        Packet {
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
            nw_proto: IpProto::Tcp,
            ..Packet::empty()
        }
    }

    /// A UDP packet between the given endpoints.
    pub fn udp(nw_src: Ipv4Addr, nw_dst: Ipv4Addr, tp_src: u16, tp_dst: u16) -> Self {
        Packet {
            nw_proto: IpProto::Udp,
            ..Packet::tcp(nw_src, nw_dst, tp_src, tp_dst)
        }
    }

    /// Builder-style setter for the Ethernet addresses.
    pub fn with_macs(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.dl_src = src;
        self.dl_dst = dst;
        self
    }

    /// Builder-style setter for the payload length.
    pub fn with_len(mut self, len: u32) -> Self {
        self.payload_len = len;
        self
    }
}

/// Where a packet currently is.
pub type Location = PortId;

/// A packet plus its location — the object policies transform.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LocatedPacket {
    /// The port the packet most recently arrived on / was forwarded to.
    pub loc: Location,
    /// The packet headers.
    pub pkt: Packet,
}

impl LocatedPacket {
    /// Pairs a packet with a location.
    pub fn at(loc: Location, pkt: Packet) -> Self {
        LocatedPacket { loc, pkt }
    }
}

impl fmt::Display for LocatedPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {} proto={:?} tp={}→{} dlDst={}",
            self.loc,
            self.pkt.nw_src,
            self.pkt.nw_dst,
            self.pkt.nw_proto,
            self.pkt.tp_src,
            self.pkt.tp_dst,
            self.pkt.dl_dst
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::ip;

    #[test]
    fn ethertype_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x86dd, 0x1234] {
            assert_eq!(EtherType::from_value(v).value(), v);
        }
        assert_eq!(EtherType::from_value(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_value(0x0806), EtherType::Arp);
    }

    #[test]
    fn ipproto_roundtrip() {
        for v in [1u8, 6, 17, 89] {
            assert_eq!(IpProto::from_value(v).value(), v);
        }
        assert_eq!(IpProto::from_value(6), IpProto::Tcp);
        assert_eq!(IpProto::from_value(17), IpProto::Udp);
        assert_eq!(IpProto::from_value(1), IpProto::Icmp);
    }

    #[test]
    fn builders_fill_fields() {
        let p = Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 1234, 80)
            .with_macs(MacAddr::physical(1), MacAddr::vmac(9))
            .with_len(1400);
        assert_eq!(p.nw_proto, IpProto::Tcp);
        assert_eq!(p.tp_dst, 80);
        assert_eq!(p.dl_dst.fec_id(), Some(9));
        assert_eq!(p.payload_len, 1400);
        let u = Packet::udp(ip("1.1.1.1"), ip("2.2.2.2"), 1234, 80);
        assert_eq!(u.nw_proto, IpProto::Udp);
    }
}
