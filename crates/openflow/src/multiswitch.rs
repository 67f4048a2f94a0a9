//! Multi-switch SDX fabrics (§4.1's topology abstraction).
//!
//! *"More generally, the SDX may consist of multiple physical switches,
//! each connected to a subset of the participants. Fortunately, we can
//! rely on Pyretic's existing support for topology abstraction to combine
//! a policy written for a single SDX switch with another policy for
//! routing across multiple physical switches."*
//!
//! This module is that combination step: the controller still compiles
//! ONE logical classifier (the single-big-switch illusion); the
//! [`MultiFabric`] distributes it. The scheme mirrors what production
//! fabrics do:
//!
//! * every physical switch carries the full logical classifier — the
//!   classification decision is made once, at the ingress switch;
//! * the chosen output port is encoded on inter-switch (trunk) frames, so
//!   transit switches forward without re-classifying (re-classification
//!   after header rewrites would be wrong, not just slow);
//! * each switch knows which ports are local; non-local outputs leave via
//!   the trunk toward the owning switch (single-trunk full-mesh model —
//!   IXP fabrics are small diameter).

use std::collections::BTreeMap;

use sdx_net::{LocatedPacket, Packet, PortId};
use sdx_policy::Classifier;

use crate::arp::ArpResponder;
use crate::border_router::BorderRouter;
use crate::flowmod::{BatchStats, FlowModBatch, FlowModError};
use crate::switch::Switch;
use crate::table::FlowTable;

/// Identifier of one physical switch in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u32);

/// A frame crossing the trunk: the packet plus the already-decided output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrunkFrame {
    /// The (possibly rewritten) packet.
    pub pkt: Packet,
    /// The final output port, decided at the ingress switch.
    pub out: PortId,
}

/// A physically distributed SDX fabric presenting the same API surface as
/// the single-switch [`crate::fabric::Fabric`].
#[derive(Clone, Debug, Default)]
pub struct MultiFabric {
    switches: BTreeMap<SwitchId, Switch>,
    /// Which switch owns each participant port.
    attachment: BTreeMap<PortId, SwitchId>,
    routers: BTreeMap<PortId, BorderRouter>,
    /// The controller-operated ARP responder (fabric-wide).
    pub arp: ArpResponder,
    /// Frames that crossed the trunk (diagnostics: how much traffic the
    /// physical distribution costs).
    pub trunk_frames: u64,
    /// Outputs at virtual locations — a compilation bug if non-zero.
    pub stuck_at_virtual: u64,
}

impl MultiFabric {
    /// An empty fabric.
    pub fn new() -> Self {
        MultiFabric::default()
    }

    /// Adds a physical switch.
    pub fn add_switch(&mut self, id: SwitchId) {
        self.switches.entry(id).or_default();
    }

    /// Attaches a border router's port to a switch.
    ///
    /// # Panics
    /// Panics if the switch was never added — wiring errors are
    /// configuration bugs, not runtime conditions.
    pub fn attach(&mut self, switch: SwitchId, router: BorderRouter) {
        assert!(
            self.switches.contains_key(&switch),
            "attach to unknown switch {switch:?}"
        );
        self.attachment.insert(router.port, switch);
        self.routers.insert(router.port, router);
    }

    /// The router at `port`, if attached.
    pub fn router(&self, port: PortId) -> Option<&BorderRouter> {
        self.routers.get(&port)
    }

    /// Mutable router access (route-server updates).
    pub fn router_mut(&mut self, port: PortId) -> Option<&mut BorderRouter> {
        self.routers.get_mut(&port)
    }

    /// All attached ports of a participant.
    pub fn ports_of(&self, p: sdx_net::ParticipantId) -> Vec<PortId> {
        self.routers
            .keys()
            .copied()
            .filter(|port| port.participant() == p)
            .collect()
    }

    /// Installs the logical classifier on **every** switch — the topology
    /// abstraction's distribution step.
    pub fn load_classifier(&mut self, c: &Classifier) {
        for sw in self.switches.values_mut() {
            sw.load_classifier(c);
        }
    }

    /// Total installed rules across switches (the physical-distribution
    /// cost Figure 7 would multiply by).
    pub fn total_rules(&self) -> usize {
        self.switches.values().map(|s| s.table().len()).sum()
    }

    /// Number of physical switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The switch ids, ascending.
    pub fn switch_ids(&self) -> Vec<SwitchId> {
        self.switches.keys().copied().collect()
    }

    /// The flow table of one switch, if it exists.
    pub fn table_of(&self, id: SwitchId) -> Option<&FlowTable> {
        self.switches.get(&id).map(|s| s.table())
    }

    /// Applies one atomic flow-mod batch to **every** switch — the
    /// distribution step of the topology abstraction, mirroring
    /// [`load_classifier`](MultiFabric::load_classifier) for the
    /// delta-first path. All switches carry the same logical table by
    /// construction, so a batch either applies everywhere or fails on the
    /// first switch before any other is touched.
    pub fn apply_flowmods(&mut self, batch: &FlowModBatch) -> Result<BatchStats, FlowModError> {
        let mut stats = BatchStats::default();
        for sw in self.switches.values_mut() {
            stats = sw.table_mut().apply_batch(batch)?;
        }
        Ok(stats)
    }

    /// A participant-originated packet: border-router forwarding (FIB +
    /// ARP tag), ingress-switch classification, local delivery or trunk
    /// transit.
    pub fn send(&mut self, from: PortId, pkt: Packet) -> Vec<LocatedPacket> {
        let Some(router) = self.routers.get_mut(&from) else {
            return Vec::new();
        };
        let Some(tagged) = router.forward(pkt, &mut self.arp) else {
            return Vec::new();
        };
        let Some(&ingress) = self.attachment.get(&from) else {
            return Vec::new();
        };
        let decided = {
            let sw = self.switches.get_mut(&ingress).expect("attached switch");
            sw.process(tagged)
        };
        let mut out = Vec::new();
        for d in decided {
            if !d.loc.is_physical() {
                self.stuck_at_virtual += 1;
                continue;
            }
            match self.attachment.get(&d.loc) {
                Some(&owner) if owner == ingress => out.push(d),
                Some(_) => {
                    // Trunk transit: the decision travels with the frame;
                    // the egress switch delivers without re-classifying.
                    self.trunk_frames += 1;
                    let frame = TrunkFrame {
                        pkt: d.pkt,
                        out: d.loc,
                    };
                    out.push(LocatedPacket::at(frame.out, frame.pkt));
                }
                None => {
                    // Output to a port nothing is attached to: dropped.
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_bgp::msg::UpdateMessage;
    use sdx_net::{ip, prefix, FieldMatch, HeaderMatch, MacAddr, Mod, ParticipantId};
    use sdx_policy::classifier::{Action, Rule};

    fn port(p: u32, i: u8) -> PortId {
        PortId::Phys(ParticipantId(p), i)
    }

    fn router_with_route(p: u32, mac_id: u32) -> BorderRouter {
        let mut r = BorderRouter::new(port(p, 1), MacAddr::physical(mac_id));
        r.apply_update(&UpdateMessage::announce(
            [prefix("20.0.0.0/8")],
            PathAttributes::new(AsPath::sequence([65002]), ip("172.16.255.1")),
        ));
        r
    }

    fn classifier() -> Classifier {
        Classifier::from_rules(vec![Rule::unicast(
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7))),
            Action {
                mods: vec![
                    Mod::SetDlDst(MacAddr::physical(21)),
                    Mod::SetLoc(port(2, 1)),
                ],
            },
        )])
    }

    /// Two switches: sender on switch 0, receiver on switch 1.
    fn split_fabric() -> MultiFabric {
        let mut f = MultiFabric::new();
        f.add_switch(SwitchId(0));
        f.add_switch(SwitchId(1));
        f.attach(SwitchId(0), router_with_route(1, 11));
        f.attach(
            SwitchId(1),
            BorderRouter::new(port(2, 1), MacAddr::physical(21)),
        );
        f.arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        f.load_classifier(&classifier());
        f
    }

    #[test]
    fn cross_switch_delivery_uses_the_trunk() {
        let mut f = split_fabric();
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 5, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(2, 1));
        assert_eq!(out[0].pkt.dl_dst, MacAddr::physical(21));
        assert_eq!(f.trunk_frames, 1);
        assert_eq!(f.stuck_at_virtual, 0);
    }

    #[test]
    fn same_switch_delivery_stays_local() {
        let mut f = MultiFabric::new();
        f.add_switch(SwitchId(0));
        f.attach(SwitchId(0), router_with_route(1, 11));
        f.attach(
            SwitchId(0),
            BorderRouter::new(port(2, 1), MacAddr::physical(21)),
        );
        f.arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        f.load_classifier(&classifier());
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 5, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(f.trunk_frames, 0, "no trunk for local delivery");
    }

    #[test]
    fn behaviour_matches_single_switch_fabric() {
        // Differential check: the same classifier on a single-switch
        // Fabric and on a split MultiFabric delivers identically.
        let mut single = Fabric::new();
        single.attach(router_with_route(1, 11));
        single.attach(BorderRouter::new(port(2, 1), MacAddr::physical(21)));
        single.arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        single.switch.load_classifier(&classifier());
        let mut multi = split_fabric();

        for dport in [80u16, 443, 22] {
            let pkt = Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 5, dport);
            let a = single.send(port(1, 1), pkt);
            let b = multi.send(port(1, 1), pkt);
            assert_eq!(a.as_slice(), b.as_slice(), "dport {dport}");
        }
    }

    #[test]
    fn rules_replicate_per_switch() {
        let f = split_fabric();
        assert_eq!(f.switch_count(), 2);
        // The logical table is installed on every switch.
        assert_eq!(f.total_rules(), 2 * classifier().rules().len());
    }

    #[test]
    fn apply_flowmods_reaches_every_switch() {
        use crate::flowmod::{FlowMod, FlowModBatch};
        use crate::table::FlowEntry;
        let mut f = split_fabric();
        let before = f.total_rules();
        let mut batch = FlowModBatch::new(1);
        batch.push(FlowMod::Add(FlowEntry::new(
            5,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(2, 1))]],
        )));
        let stats = f.apply_flowmods(&batch).unwrap();
        assert_eq!(stats.adds, 1);
        assert_eq!(f.total_rules(), before + f.switch_count());
        for id in f.switch_ids() {
            assert!(f
                .table_of(id)
                .unwrap()
                .entries()
                .iter()
                .any(|e| e.priority == 5));
        }
    }

    #[test]
    #[should_panic(expected = "unknown switch")]
    fn attaching_to_missing_switch_panics() {
        let mut f = MultiFabric::new();
        f.attach(
            SwitchId(9),
            BorderRouter::new(port(1, 1), MacAddr::physical(1)),
        );
    }
}
