//! Ethernet MAC addresses, including the SDX virtual-MAC (VMAC) tag scheme.
//!
//! §4.2 of the paper: the SDX encodes the forwarding-equivalence class of a
//! packet in its *destination MAC address*. The participant's border router
//! writes that MAC for free (it is the ARP resolution of the BGP next hop),
//! and the fabric then matches on the VMAC instead of on destination IP
//! prefixes. We reserve a locally-administered OUI for VMACs so they can
//! never collide with participants' physical router MACs.

use core::fmt;
use core::str::FromStr;

/// A 48-bit Ethernet address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as "unset".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Prefix byte for SDX virtual MACs: locally administered
    /// (bit 1 of the first octet set), unicast.
    pub const VMAC_OUI: u8 = 0x0a;

    /// Builds a physical (router-facing) MAC from a small integer id.
    /// Used by test fixtures and the IXP emulator to stamp out router MACs.
    pub const fn physical(id: u32) -> MacAddr {
        MacAddr([
            0x02,
            0x00,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// Builds the VMAC that tags forwarding-equivalence class `fec`.
    ///
    /// Layout: `0a:00:` followed by the 32-bit FEC identifier. The paper's
    /// prototype similarly devotes the low bits of the VMAC to the FEC id.
    pub const fn vmac(fec: u32) -> MacAddr {
        MacAddr([
            Self::VMAC_OUI,
            0x00,
            (fec >> 24) as u8,
            (fec >> 16) as u8,
            (fec >> 8) as u8,
            fec as u8,
        ])
    }

    /// If this address is an SDX VMAC, returns the FEC id it encodes.
    pub fn fec_id(self) -> Option<u32> {
        if self.0[0] == Self::VMAC_OUI && self.0[1] == 0x00 {
            Some(u32::from_be_bytes([
                self.0[2], self.0[3], self.0[4], self.0[5],
            ]))
        } else {
            None
        }
    }

    /// True if this is an SDX virtual MAC (FEC tag).
    pub fn is_vmac(self) -> bool {
        self.fec_id().is_some()
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when a MAC address fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacParseError;

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed MAC address")
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for b in out.iter_mut() {
            let p = parts.next().ok_or(MacParseError)?;
            if p.len() != 2 {
                return Err(MacParseError);
            }
            *b = u8::from_str_radix(p, 16).map_err(|_| MacParseError)?;
        }
        if parts.next().is_some() {
            return Err(MacParseError);
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let m: MacAddr = "02:00:00:00:00:2a".parse().unwrap();
        assert_eq!(m, MacAddr::physical(42));
        assert_eq!(m.to_string(), "02:00:00:00:00:2a");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("02:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:2a:ff".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:zz".parse::<MacAddr>().is_err());
        assert!("0200:00:00:00:2a".parse::<MacAddr>().is_err());
    }

    #[test]
    fn vmac_encodes_fec_id() {
        for fec in [0u32, 1, 255, 65_536, u32::MAX] {
            let v = MacAddr::vmac(fec);
            assert!(v.is_vmac());
            assert_eq!(v.fec_id(), Some(fec));
        }
    }

    #[test]
    fn physical_macs_are_not_vmacs() {
        assert!(!MacAddr::physical(7).is_vmac());
        assert_eq!(MacAddr::physical(7).fec_id(), None);
        assert!(!MacAddr::BROADCAST.is_vmac());
    }

    #[test]
    fn vmac_space_is_disjoint_from_physical_space() {
        // Sampled check: no small physical id collides with any small FEC id.
        for i in 0..1000u32 {
            assert_ne!(MacAddr::physical(i), MacAddr::vmac(i));
        }
    }
}
