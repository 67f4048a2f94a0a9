//! IPv4 addresses and CIDR prefixes.
//!
//! [`Prefix`] is the unit the whole SDX pipeline is keyed on: BGP announces
//! prefixes, policies filter on prefixes, and forwarding-equivalence classes
//! are sets of prefixes. The operations here (containment, overlap,
//! canonicalization) must therefore be exact and cheap.

use core::fmt;
use core::str::FromStr;

/// An IPv4 address, stored as a host-order `u32`.
///
/// A thin newtype rather than `std::net::Ipv4Addr` so that arithmetic used
/// by the trie and workload generators (`+ offset`, bit tests) stays explicit
/// and allocation-free.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// The all-zero address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Returns bit `i` of the address, counting from the most significant
    /// bit (bit 0 is the top bit of the first octet).
    ///
    /// # Panics
    /// Panics if `i >= 32`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < 32, "bit index out of range: {i}");
        self.0 & (1 << (31 - i)) != 0
    }

    /// Saturating addition on the underlying integer; handy for workload
    /// generators that stamp out consecutive address blocks.
    pub fn saturating_add(self, n: u32) -> Ipv4Addr {
        Ipv4Addr(self.0.saturating_add(n))
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(o: [u8; 4]) -> Self {
        Ipv4Addr::new(o[0], o[1], o[2], o[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

/// Error produced when parsing an address or prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// An octet was missing, not a number, or out of range.
    BadAddress,
    /// The `/len` part was missing, not a number, or greater than 32.
    BadLength,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::BadAddress => write!(f, "malformed IPv4 address"),
            PrefixParseError::BadLength => write!(f, "malformed prefix length"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Addr {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for o in octets.iter_mut() {
            let p = parts.next().ok_or(PrefixParseError::BadAddress)?;
            *o = p.parse().map_err(|_| PrefixParseError::BadAddress)?;
        }
        if parts.next().is_some() {
            return Err(PrefixParseError::BadAddress);
        }
        Ok(Ipv4Addr::from(octets))
    }
}

/// An IPv4 CIDR prefix, always stored in canonical form (host bits zeroed).
///
/// The canonical representation makes `Eq`/`Hash` meaningful: two prefixes
/// are equal iff they denote the same address set.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`, which contains every address.
    pub const DEFAULT_ROUTE: Prefix = Prefix {
        addr: Ipv4Addr(0),
        len: 0,
    };

    /// Creates a prefix, masking off any host bits in `addr`.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range: {len}");
        Prefix {
            addr: Ipv4Addr(addr.0 & Self::mask_bits(len)),
            len,
        }
    }

    /// A /32 prefix covering exactly one address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Prefix { addr, len: 32 }
    }

    /// The network address (host bits are always zero).
    pub const fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length in bits. Not a container length: a /0 covers
    /// everything, so there is deliberately no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// True only for the default route `0.0.0.0/0`.
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The netmask as a `u32` with the top `len` bits set.
    fn mask_bits(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The netmask of this prefix as an address (e.g. `255.255.0.0`).
    pub fn netmask(self) -> Ipv4Addr {
        Ipv4Addr(Self::mask_bits(self.len))
    }

    /// Number of addresses covered: 2³² for /0, which is why it is a `u64`.
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// Does this prefix contain the given address?
    pub fn contains(self, a: Ipv4Addr) -> bool {
        a.0 & Self::mask_bits(self.len) == self.addr.0
    }

    /// Is `other` a (non-strict) subset of `self`?
    pub fn covers(self, other: Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Do the two prefixes share any address? (One must cover the other.)
    pub fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The intersection of two prefixes: the more specific one if they
    /// overlap, `None` otherwise. (Prefix sets are laminar, so the
    /// intersection is always itself a prefix or empty.)
    pub fn intersect(self, other: Prefix) -> Option<Prefix> {
        if self.covers(other) {
            Some(other)
        } else if other.covers(self) {
            Some(self)
        } else {
            None
        }
    }

    /// Splits the prefix into its two children (`len + 1`), or `None` for a
    /// host route.
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            return None;
        }
        let left = Prefix {
            addr: self.addr,
            len: self.len + 1,
        };
        let right = Prefix {
            addr: Ipv4Addr(self.addr.0 | (1 << (31 - self.len))),
            len: self.len + 1,
        };
        Some((left, right))
    }

    /// The immediate parent prefix (`len - 1`), or `None` for the default
    /// route.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.addr, self.len - 1))
        }
    }

    /// The first address in the prefix (== network address).
    pub fn first(self) -> Ipv4Addr {
        self.addr
    }

    /// The last address in the prefix (broadcast address for subnets).
    pub fn last(self) -> Ipv4Addr {
        Ipv4Addr(self.addr.0 | !Self::mask_bits(self.len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = match s.split_once('/') {
            Some((a, l)) => (
                a.parse::<Ipv4Addr>()?,
                l.parse::<u8>().map_err(|_| PrefixParseError::BadLength)?,
            ),
            None => (s.parse::<Ipv4Addr>()?, 32),
        };
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        Ok(Prefix::new(addr, len))
    }
}

/// Orders prefixes by (address, length): the order a routing table prints in.
impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prefix {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.addr, self.len).cmp(&(other.addr, other.len))
    }
}

/// Convenience macro-free constructor used pervasively in tests:
/// `prefix("10.0.0.0/8")`.
///
/// # Panics
/// Panics on malformed input; intended for literals only.
pub fn prefix(s: &str) -> Prefix {
    s.parse()
        .unwrap_or_else(|e| panic!("bad prefix {s:?}: {e}"))
}

/// Literal-only address constructor, mirroring [`prefix`].
///
/// # Panics
/// Panics on malformed input; intended for literals only.
pub fn ip(s: &str) -> Ipv4Addr {
    s.parse()
        .unwrap_or_else(|e| panic!("bad address {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_roundtrip() {
        let a = ip("192.168.1.42");
        assert_eq!(a.octets(), [192, 168, 1, 42]);
        assert_eq!(a.to_string(), "192.168.1.42");
    }

    #[test]
    fn address_bit_indexing() {
        let a = ip("128.0.0.1");
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(31));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.256".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let p = Prefix::new(ip("10.1.2.3"), 8);
        assert_eq!(p.addr(), ip("10.0.0.0"));
        assert_eq!(p, prefix("10.0.0.0/8"));
    }

    #[test]
    fn prefix_without_slash_is_host_route() {
        assert_eq!(prefix("1.2.3.4"), Prefix::host(ip("1.2.3.4")));
    }

    #[test]
    fn containment_and_covers() {
        let p = prefix("10.0.0.0/8");
        assert!(p.contains(ip("10.255.0.1")));
        assert!(!p.contains(ip("11.0.0.0")));
        assert!(p.covers(prefix("10.2.0.0/16")));
        assert!(!prefix("10.2.0.0/16").covers(p));
        assert!(p.covers(p));
    }

    #[test]
    fn overlap_is_symmetric_and_laminar() {
        let a = prefix("10.0.0.0/8");
        let b = prefix("10.64.0.0/10");
        let c = prefix("11.0.0.0/8");
        assert!(a.overlaps(b) && b.overlaps(a));
        assert!(!a.overlaps(c));
        assert_eq!(a.intersect(b), Some(b));
        assert_eq!(b.intersect(a), Some(b));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn children_partition_parent() {
        let p = prefix("10.0.0.0/8");
        let (l, r) = p.children().unwrap();
        assert_eq!(l, prefix("10.0.0.0/9"));
        assert_eq!(r, prefix("10.128.0.0/9"));
        assert_eq!(l.parent(), Some(p));
        assert_eq!(r.parent(), Some(p));
        assert_eq!(l.size() + r.size(), p.size());
    }

    #[test]
    fn default_route_contains_everything() {
        let d = Prefix::DEFAULT_ROUTE;
        assert!(d.contains(ip("0.0.0.0")));
        assert!(d.contains(ip("255.255.255.255")));
        assert!(d.parent().is_none());
        assert!(d.is_default());
        assert_eq!(d.size(), 1 << 32);
    }

    #[test]
    fn host_route_has_no_children() {
        assert!(Prefix::host(ip("1.1.1.1")).children().is_none());
        assert_eq!(Prefix::host(ip("1.1.1.1")).size(), 1);
    }

    #[test]
    fn first_last_and_netmask() {
        let p = prefix("192.168.4.0/22");
        assert_eq!(p.first(), ip("192.168.4.0"));
        assert_eq!(p.last(), ip("192.168.7.255"));
        assert_eq!(p.netmask(), ip("255.255.252.0"));
    }

    #[test]
    fn ordering_is_routing_table_order() {
        let mut v = vec![
            prefix("10.0.0.0/8"),
            prefix("0.0.0.0/0"),
            prefix("10.0.0.0/16"),
            prefix("9.0.0.0/8"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                prefix("0.0.0.0/0"),
                prefix("9.0.0.0/8"),
                prefix("10.0.0.0/8"),
                prefix("10.0.0.0/16"),
            ]
        );
    }
}
