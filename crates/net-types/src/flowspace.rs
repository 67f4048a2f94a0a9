//! Header-space reasoning: symbolic matches over packet headers.
//!
//! A [`HeaderMatch`] describes a *set* of located packets by constraining
//! each header field independently (a "cube" in header space). Scalar fields
//! (ports, MACs, protocol) are constrained to an exact value or left wild;
//! the IPv4 address fields are constrained by a CIDR prefix, which is what
//! both BGP filters and OpenFlow 1.0 masks can express.
//!
//! Three operations drive the whole compilation pipeline:
//!
//! * [`HeaderMatch::matches`] — membership test (ground truth semantics).
//! * [`HeaderMatch::intersect`] — exact intersection (empty ⇒ `None`). Used
//!   by parallel classifier composition and by the disjointness check behind
//!   the §4.3.1 "most SDX policies are disjoint" optimization.
//! * [`HeaderMatch::seq_compose`] — given packets matching `self`, after a
//!   list of modifications [`Mod`], which additional constraints must have
//!   held for the *modified* packet to match a second pattern? Used by
//!   sequential classifier composition, the heart of the Pyretic compiler.

use core::fmt;

use crate::asn::PortId;
use crate::ipv4::{Ipv4Addr, Prefix};
use crate::mac::MacAddr;
use crate::packet::{EtherType, IpProto, LocatedPacket};

/// A single-field constraint, used to build [`HeaderMatch`]es.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldMatch {
    /// Packet is located at this port.
    InPort(PortId),
    /// Ethernet source equals.
    DlSrc(MacAddr),
    /// Ethernet destination equals.
    DlDst(MacAddr),
    /// EtherType equals.
    EthType(EtherType),
    /// IPv4 source within prefix.
    NwSrc(Prefix),
    /// IPv4 destination within prefix.
    NwDst(Prefix),
    /// IP protocol equals.
    NwProto(IpProto),
    /// Transport source port equals.
    TpSrc(u16),
    /// Transport destination port equals.
    TpDst(u16),
}

/// A packet/location modification — the write half of an OpenFlow action
/// list. `SetLoc` is the effect of `fwd(...)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Mod {
    /// Move the packet to a port (the `fwd` action).
    SetLoc(PortId),
    /// Rewrite the Ethernet source.
    SetDlSrc(MacAddr),
    /// Rewrite the Ethernet destination (used for VMAC → physical rewrite).
    SetDlDst(MacAddr),
    /// Rewrite the IPv4 source.
    SetNwSrc(Ipv4Addr),
    /// Rewrite the IPv4 destination (wide-area load balancing).
    SetNwDst(Ipv4Addr),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
}

impl Mod {
    /// Applies this modification to a located packet.
    pub fn apply(self, lp: &mut LocatedPacket) {
        match self {
            Mod::SetLoc(p) => lp.loc = p,
            Mod::SetDlSrc(m) => lp.pkt.dl_src = m,
            Mod::SetDlDst(m) => lp.pkt.dl_dst = m,
            Mod::SetNwSrc(a) => lp.pkt.nw_src = a,
            Mod::SetNwDst(a) => lp.pkt.nw_dst = a,
            Mod::SetTpSrc(p) => lp.pkt.tp_src = p,
            Mod::SetTpDst(p) => lp.pkt.tp_dst = p,
        }
    }
}

/// A conjunction of per-field constraints; `None` means wildcard.
///
/// The empty set is *not* representable — constructors return `Option` and
/// use `None` to signal emptiness, so a `HeaderMatch` value always matches
/// at least one packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HeaderMatch {
    /// Constraint on the packet's location.
    pub in_port: Option<PortId>,
    /// Constraint on the Ethernet source.
    pub dl_src: Option<MacAddr>,
    /// Constraint on the Ethernet destination.
    pub dl_dst: Option<MacAddr>,
    /// Constraint on the EtherType.
    pub eth_type: Option<EtherType>,
    /// Constraint on the IPv4 source (CIDR).
    pub nw_src: Option<Prefix>,
    /// Constraint on the IPv4 destination (CIDR).
    pub nw_dst: Option<Prefix>,
    /// Constraint on the IP protocol.
    pub nw_proto: Option<IpProto>,
    /// Constraint on the transport source port.
    pub tp_src: Option<u16>,
    /// Constraint on the transport destination port.
    pub tp_dst: Option<u16>,
}

impl HeaderMatch {
    /// The match-everything pattern.
    pub fn any() -> Self {
        HeaderMatch::default()
    }

    /// A pattern with a single field constrained.
    pub fn of(f: FieldMatch) -> Self {
        let mut m = HeaderMatch::any();
        m.set(f);
        m
    }

    /// Adds/overwrites one field constraint in place.
    pub fn set(&mut self, f: FieldMatch) -> &mut Self {
        match f {
            FieldMatch::InPort(v) => self.in_port = Some(v),
            FieldMatch::DlSrc(v) => self.dl_src = Some(v),
            FieldMatch::DlDst(v) => self.dl_dst = Some(v),
            FieldMatch::EthType(v) => self.eth_type = Some(v),
            FieldMatch::NwSrc(v) => self.nw_src = Some(v),
            FieldMatch::NwDst(v) => self.nw_dst = Some(v),
            FieldMatch::NwProto(v) => self.nw_proto = Some(v),
            FieldMatch::TpSrc(v) => self.tp_src = Some(v),
            FieldMatch::TpDst(v) => self.tp_dst = Some(v),
        }
        self
    }

    /// Builder-style [`set`](Self::set).
    pub fn and(mut self, f: FieldMatch) -> Self {
        self.set(f);
        self
    }

    /// True if no field is constrained.
    pub fn is_wildcard(&self) -> bool {
        *self == HeaderMatch::any()
    }

    /// Membership: does `lp` satisfy every constraint?
    pub fn matches(&self, lp: &LocatedPacket) -> bool {
        fn eq_ok<V: PartialEq>(c: Option<V>, v: V) -> bool {
            c.is_none_or(|x| x == v)
        }
        eq_ok(self.in_port, lp.loc)
            && eq_ok(self.dl_src, lp.pkt.dl_src)
            && eq_ok(self.dl_dst, lp.pkt.dl_dst)
            && eq_ok(self.eth_type, lp.pkt.eth_type)
            && self.nw_src.is_none_or(|p| p.contains(lp.pkt.nw_src))
            && self.nw_dst.is_none_or(|p| p.contains(lp.pkt.nw_dst))
            && eq_ok(self.nw_proto, lp.pkt.nw_proto)
            && eq_ok(self.tp_src, lp.pkt.tp_src)
            && eq_ok(self.tp_dst, lp.pkt.tp_dst)
    }

    /// Exact intersection of two patterns; `None` iff they are disjoint.
    pub fn intersect(&self, other: &HeaderMatch) -> Option<HeaderMatch> {
        fn scalar<V: PartialEq + Copy>(a: Option<V>, b: Option<V>) -> Result<Option<V>, ()> {
            match (a, b) {
                (Some(x), Some(y)) if x != y => Err(()),
                (Some(x), _) => Ok(Some(x)),
                (None, y) => Ok(y),
            }
        }
        fn pfx(a: Option<Prefix>, b: Option<Prefix>) -> Result<Option<Prefix>, ()> {
            match (a, b) {
                (Some(x), Some(y)) => x.intersect(y).map(Some).ok_or(()),
                (Some(x), None) => Ok(Some(x)),
                (None, y) => Ok(y),
            }
        }
        let m = HeaderMatch {
            in_port: scalar(self.in_port, other.in_port).ok()?,
            dl_src: scalar(self.dl_src, other.dl_src).ok()?,
            dl_dst: scalar(self.dl_dst, other.dl_dst).ok()?,
            eth_type: scalar(self.eth_type, other.eth_type).ok()?,
            nw_src: pfx(self.nw_src, other.nw_src).ok()?,
            nw_dst: pfx(self.nw_dst, other.nw_dst).ok()?,
            nw_proto: scalar(self.nw_proto, other.nw_proto).ok()?,
            tp_src: scalar(self.tp_src, other.tp_src).ok()?,
            tp_dst: scalar(self.tp_dst, other.tp_dst).ok()?,
        };
        Some(m)
    }

    /// True when the two patterns share no packet.
    pub fn disjoint(&self, other: &HeaderMatch) -> bool {
        self.intersect(other).is_none()
    }

    /// Does `self` match every packet `other` matches?
    pub fn subsumes(&self, other: &HeaderMatch) -> bool {
        fn scalar<V: PartialEq + Copy>(a: Option<V>, b: Option<V>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(x), Some(y)) => x == y,
                (Some(_), None) => false,
            }
        }
        fn pfx(a: Option<Prefix>, b: Option<Prefix>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(x), Some(y)) => x.covers(y),
                (Some(_), None) => false,
            }
        }
        scalar(self.in_port, other.in_port)
            && scalar(self.dl_src, other.dl_src)
            && scalar(self.dl_dst, other.dl_dst)
            && scalar(self.eth_type, other.eth_type)
            && pfx(self.nw_src, other.nw_src)
            && pfx(self.nw_dst, other.nw_dst)
            && scalar(self.nw_proto, other.nw_proto)
            && scalar(self.tp_src, other.tp_src)
            && scalar(self.tp_dst, other.tp_dst)
    }

    /// Sequential composition: the constraint describing packets that match
    /// `self` **and**, after applying `mods` in order, match `then`.
    ///
    /// Returns `None` if no such packet exists. This is the key step in
    /// compiling `p1 >> p2`: each rule of `p1` (match `self`, action `mods`)
    /// is combined with each rule of `p2` (match `then`).
    pub fn seq_compose(&self, mods: &[Mod], then: &HeaderMatch) -> Option<HeaderMatch> {
        // For each field of `then`: if `mods` writes the field, the written
        // value must satisfy `then`'s constraint (no new constraint on the
        // original packet); otherwise the constraint applies to the original
        // packet and is intersected into the result. Later mods win, so scan
        // `mods` from the back.
        fn last_loc(mods: &[Mod]) -> Option<PortId> {
            mods.iter().rev().find_map(|m| match m {
                Mod::SetLoc(p) => Some(*p),
                _ => None,
            })
        }
        macro_rules! last_set {
            ($pat:pat => $out:expr) => {
                mods.iter().rev().find_map(|m| match m {
                    $pat => Some($out),
                    _ => None,
                })
            };
        }

        let mut need = HeaderMatch::any();

        // in_port / location
        if let Some(want) = then.in_port {
            match last_loc(mods) {
                Some(got) => {
                    if got != want {
                        return None;
                    }
                }
                None => need.in_port = Some(want),
            }
        }
        // dl_src
        if let Some(want) = then.dl_src {
            match last_set!(Mod::SetDlSrc(v) => *v) {
                Some(got) => {
                    if got != want {
                        return None;
                    }
                }
                None => need.dl_src = Some(want),
            }
        }
        // dl_dst
        if let Some(want) = then.dl_dst {
            match last_set!(Mod::SetDlDst(v) => *v) {
                Some(got) => {
                    if got != want {
                        return None;
                    }
                }
                None => need.dl_dst = Some(want),
            }
        }
        // eth_type: not modifiable
        if let Some(want) = then.eth_type {
            need.eth_type = Some(want);
        }
        // nw_src
        if let Some(want) = then.nw_src {
            match last_set!(Mod::SetNwSrc(v) => *v) {
                Some(got) => {
                    if !want.contains(got) {
                        return None;
                    }
                }
                None => need.nw_src = Some(want),
            }
        }
        // nw_dst
        if let Some(want) = then.nw_dst {
            match last_set!(Mod::SetNwDst(v) => *v) {
                Some(got) => {
                    if !want.contains(got) {
                        return None;
                    }
                }
                None => need.nw_dst = Some(want),
            }
        }
        // nw_proto: not modifiable
        if let Some(want) = then.nw_proto {
            need.nw_proto = Some(want);
        }
        // tp_src
        if let Some(want) = then.tp_src {
            match last_set!(Mod::SetTpSrc(v) => *v) {
                Some(got) => {
                    if got != want {
                        return None;
                    }
                }
                None => need.tp_src = Some(want),
            }
        }
        // tp_dst
        if let Some(want) = then.tp_dst {
            match last_set!(Mod::SetTpDst(v) => *v) {
                Some(got) => {
                    if got != want {
                        return None;
                    }
                }
                None => need.tp_dst = Some(want),
            }
        }

        self.intersect(&need)
    }
}

impl fmt::Debug for HeaderMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            return write!(f, "*");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(v) = self.in_port {
            parts.push(format!("port={v}"));
        }
        if let Some(v) = self.dl_src {
            parts.push(format!("dlSrc={v}"));
        }
        if let Some(v) = self.dl_dst {
            parts.push(format!("dlDst={v}"));
        }
        if let Some(v) = self.eth_type {
            parts.push(format!("ethType={v:?}"));
        }
        if let Some(v) = self.nw_src {
            parts.push(format!("srcip={v}"));
        }
        if let Some(v) = self.nw_dst {
            parts.push(format!("dstip={v}"));
        }
        if let Some(v) = self.nw_proto {
            parts.push(format!("proto={v:?}"));
        }
        if let Some(v) = self.tp_src {
            parts.push(format!("srcport={v}"));
        }
        if let Some(v) = self.tp_dst {
            parts.push(format!("dstport={v}"));
        }
        write!(f, "{}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::ParticipantId;
    use crate::ipv4::{ip, prefix};
    use crate::packet::Packet;

    fn port(n: u32) -> PortId {
        PortId::Phys(ParticipantId(n), 1)
    }

    fn pkt_at(loc: PortId) -> LocatedPacket {
        LocatedPacket::at(loc, Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 1000, 80))
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(HeaderMatch::any().matches(&pkt_at(port(1))));
        assert!(HeaderMatch::any().is_wildcard());
    }

    #[test]
    fn field_matching() {
        let m = HeaderMatch::of(FieldMatch::TpDst(80)).and(FieldMatch::NwSrc(prefix("10.0.0.0/8")));
        assert!(m.matches(&pkt_at(port(1))));
        let mut other = pkt_at(port(1));
        other.pkt.tp_dst = 443;
        assert!(!m.matches(&other));
        other.pkt.tp_dst = 80;
        other.pkt.nw_src = ip("11.0.0.1");
        assert!(!m.matches(&other));
    }

    #[test]
    fn port_matching() {
        let m = HeaderMatch::of(FieldMatch::InPort(port(1)));
        assert!(m.matches(&pkt_at(port(1))));
        assert!(!m.matches(&pkt_at(port(2))));
    }

    #[test]
    fn intersect_scalar_conflict_is_empty() {
        let a = HeaderMatch::of(FieldMatch::TpDst(80));
        let b = HeaderMatch::of(FieldMatch::TpDst(443));
        assert!(a.disjoint(&b));
        assert!(!a.disjoint(&a));
    }

    #[test]
    fn intersect_prefixes_takes_more_specific() {
        let a = HeaderMatch::of(FieldMatch::NwDst(prefix("10.0.0.0/8")));
        let b = HeaderMatch::of(FieldMatch::NwDst(prefix("10.1.0.0/16")));
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.nw_dst, Some(prefix("10.1.0.0/16")));
        let c = HeaderMatch::of(FieldMatch::NwDst(prefix("11.0.0.0/8")));
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn intersect_merges_different_fields() {
        let a = HeaderMatch::of(FieldMatch::TpDst(80));
        let b = HeaderMatch::of(FieldMatch::NwSrc(prefix("0.0.0.0/1")));
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.tp_dst, Some(80));
        assert_eq!(i.nw_src, Some(prefix("0.0.0.0/1")));
        assert_eq!(i, a.and(FieldMatch::NwSrc(prefix("0.0.0.0/1"))));
    }

    #[test]
    fn subsumption() {
        let wide = HeaderMatch::of(FieldMatch::NwDst(prefix("10.0.0.0/8")));
        let narrow = wide.and(FieldMatch::TpDst(80));
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(HeaderMatch::any().subsumes(&wide));
        assert!(wide.subsumes(&wide));
    }

    #[test]
    fn mods_apply() {
        let mut lp = pkt_at(port(1));
        Mod::SetNwDst(ip("9.9.9.9")).apply(&mut lp);
        Mod::SetLoc(port(2)).apply(&mut lp);
        Mod::SetDlDst(MacAddr::vmac(3)).apply(&mut lp);
        assert_eq!(lp.pkt.nw_dst, ip("9.9.9.9"));
        assert_eq!(lp.loc, port(2));
        assert_eq!(lp.pkt.dl_dst, MacAddr::vmac(3));
    }

    #[test]
    fn seq_compose_passthrough_constraints() {
        // No mods: composition is plain intersection.
        let m1 = HeaderMatch::of(FieldMatch::TpDst(80));
        let m2 = HeaderMatch::of(FieldMatch::NwSrc(prefix("0.0.0.0/1")));
        let c = m1.seq_compose(&[], &m2).unwrap();
        assert_eq!(c.tp_dst, Some(80));
        assert_eq!(c.nw_src, Some(prefix("0.0.0.0/1")));
    }

    #[test]
    fn seq_compose_mod_satisfies_then() {
        // fwd to port 2, then match in_port=2: satisfied by the mod, so the
        // composed match does NOT constrain the original in_port.
        let m1 = HeaderMatch::any();
        let m2 = HeaderMatch::of(FieldMatch::InPort(port(2)));
        let c = m1.seq_compose(&[Mod::SetLoc(port(2))], &m2).unwrap();
        assert_eq!(c.in_port, None);
    }

    #[test]
    fn seq_compose_mod_violates_then() {
        let m1 = HeaderMatch::any();
        let m2 = HeaderMatch::of(FieldMatch::InPort(port(3)));
        assert!(m1.seq_compose(&[Mod::SetLoc(port(2))], &m2).is_none());
    }

    #[test]
    fn seq_compose_last_mod_wins() {
        let m2 = HeaderMatch::of(FieldMatch::InPort(port(3)));
        let mods = [Mod::SetLoc(port(2)), Mod::SetLoc(port(3))];
        assert!(HeaderMatch::any().seq_compose(&mods, &m2).is_some());
    }

    #[test]
    fn seq_compose_nwdst_rewrite() {
        // Load-balancer pattern: rewrite dstip, then match a prefix that
        // contains (or not) the rewritten address.
        let hit = HeaderMatch::of(FieldMatch::NwDst(prefix("74.125.0.0/16")));
        let miss = HeaderMatch::of(FieldMatch::NwDst(prefix("10.0.0.0/8")));
        let mods = [Mod::SetNwDst(ip("74.125.224.161"))];
        assert!(HeaderMatch::any().seq_compose(&mods, &hit).is_some());
        assert!(HeaderMatch::any().seq_compose(&mods, &miss).is_none());
    }

    #[test]
    fn seq_compose_intersects_with_self_match() {
        // Original match dstport=80 composed with downstream srcport=9 keeps both.
        let m1 = HeaderMatch::of(FieldMatch::TpDst(80));
        let m2 = HeaderMatch::of(FieldMatch::TpSrc(9));
        let c = m1.seq_compose(&[Mod::SetLoc(port(5))], &m2).unwrap();
        assert_eq!(c.tp_dst, Some(80));
        assert_eq!(c.tp_src, Some(9));
        // And a conflicting downstream constraint on an unmodified field is empty.
        let m3 = HeaderMatch::of(FieldMatch::TpDst(443));
        assert!(m1.seq_compose(&[Mod::SetLoc(port(5))], &m3).is_none());
    }

    #[test]
    fn debug_format_is_compact() {
        let m = HeaderMatch::of(FieldMatch::TpDst(80)).and(FieldMatch::NwDst(prefix("10.0.0.0/8")));
        let s = format!("{m:?}");
        assert!(s.contains("dstport=80"));
        assert!(s.contains("dstip=10.0.0.0/8"));
        assert_eq!(format!("{:?}", HeaderMatch::any()), "*");
    }
}
