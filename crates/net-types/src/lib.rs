//! # sdx-net — foundational network types for the SDX reproduction
//!
//! This crate provides the ground-level vocabulary shared by every other
//! crate in the workspace:
//!
//! * [`Ipv4Addr`] and [`Prefix`] — IPv4 addresses and CIDR prefixes with the
//!   set operations (containment, overlap, enumeration) that the SDX
//!   forwarding-equivalence-class machinery needs.
//! * [`MacAddr`] — Ethernet addresses, including the *virtual MAC* (VMAC)
//!   encoding the SDX uses as its data-plane tag (§4.2 of the paper).
//! * [`PrefixTrie`] — a multibit trie keyed by prefix, one level per
//!   octet, supporting exact match, longest-prefix match in at most four
//!   node reads, and ordered iteration. This is the backing store for every
//!   RIB and FIB in the workspace.
//! * [`ViewTable`] — one prefix-major table read by many viewers: a base
//!   value per prefix plus per-viewer exceptions, which is how the route
//!   server's advertisements and the border routers' FIBs are stored.
//! * [`Packet`] / [`LocatedPacket`] — the concrete packet-header model that
//!   policies are evaluated against, mirroring Pyretic's "located packet".
//! * [`flowspace`] — header-space style reasoning: which sets of packets a
//!   match covers, whether two matches overlap, intersection of matches.
//!   This underpins both classifier composition and the "most SDX policies
//!   are disjoint" compile-time optimization (§4.3.1).
//! * [`hash`] — [`WordHasher`], the deterministic word-at-a-time hasher
//!   behind every hashed index on the per-packet path.
//!
//! The types are deliberately plain data: no I/O, no interior mutability,
//! fully deterministic — in the spirit of event-driven network stacks such
//! as smoltcp, everything here is testable without a network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod flowspace;
pub mod hash;
pub mod ipv4;
pub mod mac;
pub mod packet;
pub mod trie;
pub mod view_table;

pub use asn::{Asn, ParticipantId, PortId, RouterId};
pub use flowspace::{FieldMatch, HeaderMatch, Mod};
pub use hash::{WordHasher, WordMap, WordSet};
pub use ipv4::{ip, prefix, Ipv4Addr, Prefix, PrefixParseError};
pub use mac::MacAddr;
pub use packet::{EtherType, IpProto, LocatedPacket, Location, Packet};
pub use trie::PrefixTrie;
pub use view_table::{Slot, View, ViewTable, Write};
