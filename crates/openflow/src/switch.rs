//! The SDN switch: ports + flow table + packet pipeline.
//!
//! `process` runs one packet through the table and returns the located
//! packets emitted on output ports. A packet "output" to the port it
//! arrived on is suppressed (OpenFlow requires `IN_PORT` explicitly; the
//! SDX never hairpins).
//!
//! Almost every packet leaves on at most one port, so the outputs come
//! back as [`Deliveries`], which holds a single packet inline and
//! allocates only for real multicast.

use std::fmt;
use std::ops::Deref;

use sdx_net::LocatedPacket;

use crate::table::{FlowEntry, FlowTable};

/// The packets one input produced, in bucket order: none, one held
/// inline, or a `Vec` once a second one is pushed. Reads as a
/// `[LocatedPacket]` and iterates by value; two values are equal when
/// they hold the same packets in the same order.
#[derive(Clone, Default)]
pub struct Deliveries(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    None,
    One(LocatedPacket),
    Many(Vec<LocatedPacket>),
}

impl Deliveries {
    /// No deliveries.
    pub fn new() -> Self {
        Deliveries::default()
    }

    /// Appends `lp`; the first push stays inline, the second moves both
    /// into a `Vec`.
    pub fn push(&mut self, lp: LocatedPacket) {
        match &mut self.0 {
            Repr::None => self.0 = Repr::One(lp),
            Repr::One(first) => self.0 = Repr::Many(vec![*first, lp]),
            Repr::Many(all) => all.push(lp),
        }
    }

    /// Keeps only the packets `keep` accepts, in order, in place.
    pub fn retain(&mut self, mut keep: impl FnMut(&LocatedPacket) -> bool) {
        match &mut self.0 {
            Repr::None => {}
            Repr::One(lp) => {
                if !keep(lp) {
                    self.0 = Repr::None;
                }
            }
            Repr::Many(all) => all.retain(|lp| keep(lp)),
        }
    }

    /// The packets, in order.
    pub fn as_slice(&self) -> &[LocatedPacket] {
        match &self.0 {
            Repr::None => &[],
            Repr::One(lp) => std::slice::from_ref(lp),
            Repr::Many(all) => all,
        }
    }
}

impl Deref for Deliveries {
    type Target = [LocatedPacket];

    fn deref(&self) -> &[LocatedPacket] {
        self.as_slice()
    }
}

impl PartialEq for Deliveries {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Deliveries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Deliveries {
    type Item = LocatedPacket;
    type IntoIter =
        std::iter::Chain<std::option::IntoIter<LocatedPacket>, std::vec::IntoIter<LocatedPacket>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::None => (None, Vec::new()),
            Repr::One(lp) => (Some(lp), Vec::new()),
            Repr::Many(all) => (None, all),
        };
        one.into_iter().chain(many)
    }
}

impl<'a> IntoIterator for &'a Deliveries {
    type Item = &'a LocatedPacket;
    type IntoIter = std::slice::Iter<'a, LocatedPacket>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Deliveries> for Vec<LocatedPacket> {
    fn from(d: Deliveries) -> Self {
        match d.0 {
            Repr::None => Vec::new(),
            Repr::One(lp) => vec![lp],
            Repr::Many(all) => all,
        }
    }
}

/// A software OpenFlow-style switch.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Switch {
    table: FlowTable,
    /// Packets that missed the table (dropped).
    pub miss_count: u64,
}

impl Switch {
    /// A switch with an empty table.
    pub fn new() -> Self {
        Switch::default()
    }

    /// The flow table (mutable for installation).
    pub fn table_mut(&mut self) -> &mut FlowTable {
        &mut self.table
    }

    /// The flow table (read-only).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Installs a single entry.
    pub fn install(&mut self, entry: FlowEntry) {
        self.table.install(entry);
    }

    /// Processes one packet; returns `(output port, packet)` deliveries.
    /// The winning entry's buckets are read in place.
    pub fn process(&mut self, lp: LocatedPacket) -> Deliveries {
        let in_port = lp.loc;
        let mut out = Deliveries::new();
        let Some(entry) = self.table.lookup(&lp) else {
            self.miss_count += 1;
            return out;
        };
        for bucket in &entry.buckets {
            let mut copy = lp;
            for m in bucket {
                m.apply(&mut copy);
            }
            // Suppress hairpin and "outputs" that never set a port.
            if copy.loc != in_port && !out.contains(&copy) {
                out.push(copy);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, FieldMatch, HeaderMatch, Mod, Packet, ParticipantId, PortId};
    use sdx_policy::{compile, Policy};

    fn port(n: u32) -> PortId {
        PortId::Phys(ParticipantId(n), 1)
    }

    fn pkt(dport: u16) -> LocatedPacket {
        LocatedPacket::at(
            port(1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 5, dport),
        )
    }

    #[test]
    fn forwards_by_table() {
        let mut sw = Switch::new();
        sw.table_mut().install_classifier(
            &compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))),
            0,
        );
        let out = sw.process(pkt(80));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(2));
        assert!(sw.process(pkt(443)).is_empty());
        assert_eq!(sw.miss_count, 0, "classifier is total; drops hit rules");
    }

    #[test]
    fn miss_counter_without_catchall() {
        let mut sw = Switch::new();
        sw.install(FlowEntry::new(
            5,
            HeaderMatch::of(FieldMatch::TpDst(443)),
            vec![vec![Mod::SetLoc(port(2))]],
        ));
        assert!(sw.process(pkt(80)).is_empty());
        assert_eq!(sw.miss_count, 1);
    }

    #[test]
    fn hairpin_suppressed() {
        let mut sw = Switch::new();
        sw.install(FlowEntry::new(
            5,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(1))]],
        ));
        assert!(sw.process(pkt(80)).is_empty(), "output to in-port dropped");
    }

    #[test]
    fn multicast_buckets_are_independent() {
        let mut sw = Switch::new();
        sw.install(FlowEntry::new(
            5,
            HeaderMatch::any(),
            vec![
                vec![Mod::SetNwDst(ip("9.9.9.9")), Mod::SetLoc(port(2))],
                vec![Mod::SetLoc(port(3))],
            ],
        ));
        let out = sw.process(pkt(80));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pkt.nw_dst, ip("9.9.9.9"));
        // Second bucket must see the ORIGINAL packet (group semantics).
        assert_eq!(out[1].pkt.nw_dst, ip("20.0.0.1"));
    }

    #[test]
    fn deliveries_read_the_same_inline_or_spilled() {
        let (a, b) = (pkt(80), pkt(443));
        let mut d = Deliveries::new();
        assert!(d.is_empty());
        d.push(a);
        assert_eq!(d.as_slice(), [a]);
        d.push(b);
        assert_eq!(d.as_slice(), [a, b]);
        assert_eq!(d.clone().into_iter().collect::<Vec<_>>(), [a, b]);
        // Spilled down to one packet equals the inline one.
        d.retain(|lp| lp.pkt.tp_dst == 80);
        let mut one = Deliveries::new();
        one.push(a);
        assert_eq!(d, one);
        one.retain(|_| false);
        assert_eq!(one, Deliveries::new());
        assert_eq!(Vec::from(d), [a]);
    }

    #[test]
    fn overlay_shadows_base() {
        let mut sw = Switch::new();
        sw.table_mut().install_classifier(
            &compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(2)))),
            0,
        );
        sw.table_mut().install_classifier(
            &compile(&(Policy::match_(FieldMatch::TpDst(80)) >> Policy::fwd(port(7)))),
            100_000,
        );
        assert_eq!(sw.process(pkt(80))[0].loc, port(7));
        // Retiring the overlay restores base behaviour.
        sw.table_mut().remove_at_or_above(100_000);
        assert_eq!(sw.process(pkt(80))[0].loc, port(2));
    }
}
