//! BGP path attributes (RFC 4271 §5).
//!
//! Only the attributes the SDX actually consumes are modelled — ORIGIN,
//! AS_PATH, NEXT_HOP, MED, LOCAL_PREF and communities — but each is modelled
//! faithfully (AS_PATH is a list of set/sequence segments, not a flat
//! vector) because the decision process and the AS-path regex engine depend
//! on the real structure.

use core::fmt;

use sdx_net::{Asn, Ipv4Addr};

/// The ORIGIN attribute: how the route entered BGP.
///
/// Ordered so that a *lower* value is preferred, matching the decision
/// process (IGP < EGP < INCOMPLETE).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Origin {
    /// Learned from an interior protocol (value 0).
    Igp,
    /// Learned via EGP (value 1).
    Egp,
    /// Anything else, e.g. redistribution (value 2).
    Incomplete,
}

impl Origin {
    /// On-wire value.
    pub fn value(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parses an on-wire value.
    pub fn from_value(v: u8) -> Option<Self> {
        match v {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// One AS_PATH segment (RFC 4271 §4.3): an ordered sequence or an
/// unordered set (produced by aggregation).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum AsPathSegment {
    /// Ordered list of ASes the route traversed, nearest first.
    Sequence(Vec<Asn>),
    /// Unordered set of ASes (route aggregation).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    fn len_for_selection(&self) -> usize {
        // RFC 4271 9.1.2.2(a): an AS_SET counts as 1 regardless of size.
        match self {
            AsPathSegment::Sequence(v) => v.len(),
            AsPathSegment::Set(_) => 1,
        }
    }
}

/// The AS_PATH attribute: the ASes a route has traversed.
#[derive(Clone, PartialEq, Eq, Hash, Default, Debug)]
pub struct AsPath {
    /// Segments in order; the first segment's first AS is the neighbour the
    /// route was learned from, the last is (usually) the originator.
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// The empty path (a route originated locally).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A path consisting of one plain sequence.
    pub fn sequence(asns: impl IntoIterator<Item = u32>) -> Self {
        AsPath {
            segments: vec![AsPathSegment::Sequence(asns.into_iter().map(Asn).collect())],
        }
    }

    /// Path length as used by the decision process (AS_SET counts as 1).
    pub fn selection_len(&self) -> usize {
        self.segments.iter().map(|s| s.len_for_selection()).sum()
    }

    /// All ASNs in traversal order, flattening sets in listed order.
    /// This is the token stream the AS-path regex engine matches against.
    pub fn flatten(&self) -> Vec<Asn> {
        let mut out = Vec::new();
        for seg in &self.segments {
            match seg {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => out.extend(v.iter().copied()),
            }
        }
        out
    }

    /// The originating AS — the last AS in the path, if any.
    pub fn origin_as(&self) -> Option<Asn> {
        self.flatten().last().copied()
    }

    /// The neighbour the route was learned from — the first AS, if any.
    pub fn first_as(&self) -> Option<Asn> {
        self.flatten().first().copied()
    }

    /// Returns a new path with `asn` prepended `n` times (the standard
    /// export/prepending operation).
    pub fn prepend(&self, asn: Asn, n: usize) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(AsPathSegment::Sequence(v)) => {
                for _ in 0..n {
                    v.insert(0, asn);
                }
            }
            _ => {
                segments.insert(0, AsPathSegment::Sequence(vec![asn; n]));
            }
        }
        AsPath { segments }
    }

    /// True if `asn` appears anywhere in the path (loop detection).
    /// Allocation-free: this runs once per (candidate, viewer) pair in the
    /// route server's export check, millions of times per compilation.
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|seg| match seg {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.contains(&asn),
        })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// A BGP community value, conventionally written `asn:value`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Community(pub u16, pub u16);

impl Community {
    /// The 32-bit on-wire encoding.
    pub fn value(self) -> u32 {
        ((self.0 as u32) << 16) | self.1 as u32
    }

    /// Decodes the 32-bit on-wire encoding.
    pub fn from_value(v: u32) -> Self {
        Community((v >> 16) as u16, v as u16)
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

/// The attribute set attached to an UPDATE's NLRI.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH (well-known mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP (well-known mandatory). At the SDX this is the address the
    /// route server rewrites to a *virtual next hop* (§4.2).
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC (optional non-transitive).
    pub med: Option<u32>,
    /// LOCAL_PREF (well-known discretionary; used on IBGP / route-server
    /// sessions).
    pub local_pref: Option<u32>,
    /// COMMUNITIES (optional transitive).
    pub communities: Vec<Community>,
}

impl PathAttributes {
    /// Minimal attribute set: origin IGP, given path and next hop.
    pub fn new(as_path: AsPath, next_hop: Ipv4Addr) -> Self {
        PathAttributes {
            origin: Origin::Igp,
            as_path,
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
        }
    }

    /// Builder-style MED setter.
    pub fn with_med(mut self, med: u32) -> Self {
        self.med = Some(med);
        self
    }

    /// Builder-style LOCAL_PREF setter.
    pub fn with_local_pref(mut self, lp: u32) -> Self {
        self.local_pref = Some(lp);
        self
    }

    /// Builder-style community append.
    pub fn with_community(mut self, c: Community) -> Self {
        self.communities.push(c);
        self
    }

    /// Returns a copy with the next hop replaced — the route server's VNH
    /// rewriting hook.
    pub fn with_next_hop(mut self, nh: Ipv4Addr) -> Self {
        self.next_hop = nh;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::ip;

    #[test]
    fn origin_roundtrip_and_order() {
        for v in 0..3u8 {
            assert_eq!(Origin::from_value(v).unwrap().value(), v);
        }
        assert!(Origin::from_value(3).is_none());
        assert!(Origin::Igp < Origin::Egp && Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn aspath_selection_len_counts_set_as_one() {
        let p = AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
                AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)]),
            ],
        };
        assert_eq!(p.selection_len(), 3);
        assert_eq!(p.flatten().len(), 5);
    }

    #[test]
    fn aspath_origin_and_first() {
        let p = AsPath::sequence([10, 20, 30]);
        assert_eq!(p.first_as(), Some(Asn(10)));
        assert_eq!(p.origin_as(), Some(Asn(30)));
        assert!(p.contains(Asn(20)));
        assert!(!p.contains(Asn(40)));
        assert_eq!(AsPath::empty().origin_as(), None);
    }

    #[test]
    fn prepend_extends_front_sequence() {
        let p = AsPath::sequence([20, 30]).prepend(Asn(10), 2);
        assert_eq!(p.flatten(), vec![Asn(10), Asn(10), Asn(20), Asn(30)]);
        // Prepending to an empty path creates a sequence segment.
        let q = AsPath::empty().prepend(Asn(7), 1);
        assert_eq!(q.flatten(), vec![Asn(7)]);
        // Prepending in front of a set creates a new leading sequence.
        let r = AsPath {
            segments: vec![AsPathSegment::Set(vec![Asn(1)])],
        }
        .prepend(Asn(9), 1);
        assert_eq!(r.flatten(), vec![Asn(9), Asn(1)]);
        assert_eq!(r.selection_len(), 2);
    }

    #[test]
    fn aspath_display() {
        let p = AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![Asn(10), Asn(20)]),
                AsPathSegment::Set(vec![Asn(30), Asn(40)]),
            ],
        };
        assert_eq!(p.to_string(), "10 20 {30,40}");
    }

    #[test]
    fn community_roundtrip() {
        let c = Community(65000, 42);
        assert_eq!(Community::from_value(c.value()), c);
        assert_eq!(c.to_string(), "65000:42");
    }

    #[test]
    fn attribute_builders() {
        let a = PathAttributes::new(AsPath::sequence([1]), ip("10.0.0.1"))
            .with_med(5)
            .with_local_pref(200)
            .with_community(Community(1, 2));
        assert_eq!(a.med, Some(5));
        assert_eq!(a.local_pref, Some(200));
        assert_eq!(a.communities, vec![Community(1, 2)]);
        let b = a.clone().with_next_hop(ip("10.0.0.2"));
        assert_eq!(b.next_hop, ip("10.0.0.2"));
        assert_eq!(a.next_hop, ip("10.0.0.1"));
    }
}
