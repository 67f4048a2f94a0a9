//! The exchange-point fabric: border routers + SDX switch + ARP responder.
//!
//! This is the layer-two island the paper's Figure 1 draws: every
//! participant border router hangs off a port of the (logical) SDX switch.
//! The fabric wires the pieces together so tests and examples can say
//! "participant A sends this IP packet" and observe which participant
//! router(s) receive it, after the full pipeline: FIB → VNH/ARP tagging →
//! flow-table classification → delivery.
//!
//! Per packet, [`Fabric::send`] finds the router in one hashed probe,
//! does the paper's two lookups (the router's FIB walk, then one
//! switch-table match) with a hashed read of the ARP responder between,
//! bumps pre-resolved counters, and applies the winning entry's buckets:
//! no ordered map, no counter by name, no allocation for one output port.
//!
//! Forwarding writes nothing the fabric holds: `send`, `inject` and
//! [`Switch::process`] take `&self`, and every count a packet moves lives
//! in the registry (or, for the matcher's hits and misses, in
//! [`MatcherStats`](crate::matcher::MatcherStats)). So what a `Fabric`
//! holds is only its installed state — table entries, ARP bindings,
//! Adj-RIB-Outs, the routers' ports and MACs — all of it written through
//! the controller's undo log or a wave's undo, and one rollback restores
//! the whole image.

use std::sync::Arc;

use sdx_bgp::rib::{AdjRibOut, AdjRibOuts};
use sdx_net::{LocatedPacket, Packet, ParticipantId, PortId, WordMap};
use sdx_telemetry::{Counter, SharedRegistry};

use crate::arp::ArpResponder;
use crate::border_router::{BorderRouter, RouterMut, RouterRef};
use crate::flowmod::{BatchStats, BatchUndo, FlowModBatch, FlowModError};
use crate::switch::{Deliveries, Switch};

/// A delivery out of the fabric: the physical port it left on.
pub type Delivery = LocatedPacket;

/// The assembled IXP data plane.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Fabric {
    /// The SDX switch.
    pub switch: Switch,
    /// The controller-operated ARP responder.
    pub arp: ArpResponder,
    /// The attached routers, in port order.
    routers: Vec<BorderRouter>,
    /// Each attached port's index into `routers`.
    by_port: WordMap<PortId, usize>,
    /// The route server's Adj-RIB-Outs: what each participant was last
    /// advertised, as one base-and-exceptions table. Each router's FIB is
    /// its participant's view of it (see [`crate::border_router`]);
    /// written by whoever speaks BGP to the routers.
    adverts: AdjRibOuts,
    /// Traffic counters land here. Compares equal to any other, so
    /// equality of the *installed state* is unaffected by where the
    /// fabric reports metrics.
    telemetry: Telemetry,
    /// Opt-in recorder of every batch [`apply_flowmods`](Fabric::apply_flowmods)
    /// accepted, in order (see [`enable_batch_log`](Fabric::enable_batch_log)).
    batch_log: BatchLog,
}

/// The fabric's registry and the counters a packet can move, resolved
/// from that registry once rather than probed for by name per packet.
/// Always built from one registry, so the handles count where
/// [`Fabric::telemetry`] reads.
#[derive(Clone, Debug)]
struct Telemetry {
    registry: SharedRegistry,
    tx: Arc<Counter>,
    delivered: Arc<Counter>,
    no_route: Arc<Counter>,
    no_arp: Arc<Counter>,
    stuck_at_virtual: Arc<Counter>,
}

impl Telemetry {
    fn new(registry: SharedRegistry) -> Self {
        Telemetry {
            tx: registry.counter("fabric.tx.count"),
            delivered: registry.counter("fabric.delivered.count"),
            no_route: registry.counter("fabric.no_route.count"),
            no_arp: registry.counter("fabric.no_arp.count"),
            stuck_at_virtual: registry.counter("fabric.stuck_at_virtual.count"),
            registry,
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(SharedRegistry::new())
    }
}

impl PartialEq for Telemetry {
    /// Always equal, like [`SharedRegistry`]: telemetry is not state.
    fn eq(&self, _: &Telemetry) -> bool {
        true
    }
}

/// The applied-batch recorder behind [`Fabric::enable_batch_log`].
///
/// Compares equal to any other log, like the telemetry handle: what the
/// fabric *has installed* is unaffected by what it has not yet streamed,
/// so image equality checks must not see this field. Undoing a batch
/// ([`Fabric::rewind_wave`]) retracts it from here too, so a batch that
/// was applied and then rolled back is never streamed to external switch
/// agents.
#[derive(Clone, Debug, Default)]
pub struct BatchLog {
    enabled: bool,
    batches: Vec<FlowModBatch>,
}

impl PartialEq for BatchLog {
    fn eq(&self, _: &BatchLog) -> bool {
        true
    }
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Points this fabric's traffic counters at `reg` (the controller's
    /// `deploy` shares its registry in).
    pub fn set_telemetry(&mut self, reg: SharedRegistry) {
        self.telemetry = Telemetry::new(reg);
    }

    /// The registry this fabric emits into.
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry.registry
    }

    /// Attaches a border router at its port, replacing any router
    /// already there. Its FIB is what its participant was advertised.
    pub fn attach(&mut self, router: BorderRouter) {
        match self.routers.binary_search_by_key(&router.port, |r| r.port) {
            Ok(at) => self.routers[at] = router,
            Err(at) => {
                self.routers.insert(at, router);
                for (i, moved) in self.routers.iter().enumerate().skip(at) {
                    self.by_port.insert(moved.port, i);
                }
            }
        }
    }

    /// The router attached at `port`, if any, with its participant's view
    /// of the Adj-RIB-Outs as its FIB.
    pub fn router(&self, port: PortId) -> Option<RouterRef<'_>> {
        let &at = self.by_port.get(&port)?;
        Some(RouterRef::new(&self.routers[at], &self.adverts))
    }

    /// [`router`](Fabric::router) under the name the benchmark's
    /// data-plane probes call (see [`RouterMut`]).
    pub fn router_mut(&mut self, port: PortId) -> Option<RouterMut<'_>> {
        self.router(port)
    }

    /// What the route server last advertised to `viewer` — its view of
    /// the Adj-RIB-Outs — if it ever synchronized it.
    pub fn adj_rib_out(&self, viewer: ParticipantId) -> Option<AdjRibOut<'_>> {
        (self.adverts)
            .is_subscribed(viewer)
            .then(|| self.adverts.view(viewer))
    }

    /// The Adj-RIB-Outs as stored: one base per prefix plus the viewers'
    /// exceptions.
    pub fn adj_rib_outs(&self) -> &AdjRibOuts {
        &self.adverts
    }

    /// Write access to the Adj-RIB-Outs, for the route server that keeps
    /// them (the controller, through its undo log).
    pub fn adj_rib_outs_mut(&mut self) -> &mut AdjRibOuts {
        &mut self.adverts
    }

    /// All attached router ports, in port order.
    pub fn ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.routers.iter().map(|r| r.port)
    }

    /// A participant-originated IP packet: the border router at
    /// `from` forwards it (FIB + ARP tag), then the switch classifies and
    /// delivers. Returns the deliveries at physical ports.
    ///
    /// A packet the router drops is counted as `fabric.no_route.count`
    /// when its FIB has no route and as `fabric.no_arp.count` when the
    /// route's next hop does not resolve.
    pub fn send(&self, from: PortId, pkt: Packet) -> Deliveries {
        self.telemetry.tx.inc();
        let Some(&at) = self.by_port.get(&from) else {
            return Deliveries::new();
        };
        let Some((_, advert)) = self.adverts.lookup(from.participant(), pkt.nw_dst) else {
            self.telemetry.no_route.inc();
            return Deliveries::new();
        };
        let Some(tagged) = self.routers[at].tag(advert.next_hop, pkt, &self.arp) else {
            self.telemetry.no_arp.inc();
            return Deliveries::new();
        };
        self.inject(tagged)
    }

    /// Injects an already-located packet straight into the switch (used by
    /// tests that need precise control over the tag). Outputs at virtual
    /// locations — which a compiled policy must never produce — are
    /// dropped from the switch's own output and counted as
    /// `fabric.stuck_at_virtual.count`.
    pub fn inject(&self, lp: LocatedPacket) -> Deliveries {
        let mut out = self.switch.process(lp);
        let mut stuck = 0;
        out.retain(|d| {
            let physical = d.loc.is_physical();
            stuck += u64::from(!physical);
            physical
        });
        if stuck > 0 {
            self.telemetry.stuck_at_virtual.add(stuck);
        }
        self.telemetry.delivered.add(out.len() as u64);
        out
    }

    /// Applies one atomic flow-mod batch to the SDX switch table,
    /// accounting it: per-op counters (`fabric.flowmod.{add,modify,
    /// delete}.count`), the batch counter, and the per-batch size
    /// histogram. A rejected batch leaves the table untouched and counts
    /// against `fabric.flowmod.rejected.count`.
    pub fn apply_flowmods(&mut self, batch: &FlowModBatch) -> Result<BatchStats, FlowModError> {
        self.apply_flowmods_undoable(batch).map(|(stats, _)| stats)
    }

    /// [`apply_flowmods`](Fabric::apply_flowmods), also returning what
    /// [`rewind_wave`](Fabric::rewind_wave) needs to take the batch back
    /// out — the previous values its mods displaced and where the batch
    /// log stood, never a copy of the table.
    pub fn apply_flowmods_undoable(
        &mut self,
        batch: &FlowModBatch,
    ) -> Result<(BatchStats, WaveUndo), FlowModError> {
        match self.switch.table_mut().apply_batch_undoable(batch) {
            Ok((stats, table)) => {
                let logged = self.batch_log.batches.len();
                if self.batch_log.enabled {
                    self.batch_log.batches.push(batch.clone());
                }
                let reg = &self.telemetry.registry;
                reg.inc("fabric.flowmod.batch.count");
                reg.add("fabric.flowmod.add.count", stats.adds as u64);
                reg.add("fabric.flowmod.modify.count", stats.modifies as u64);
                reg.add("fabric.flowmod.delete.count", stats.deletes as u64);
                reg.observe("fabric.flowmod.batch_size", stats.total() as u64);
                Ok((stats, WaveUndo { table, logged }))
            }
            Err(e) => {
                self.telemetry.registry.inc("fabric.flowmod.rejected.count");
                Err(e)
            }
        }
    }

    /// Starts recording every accepted flow-mod batch: a tap for a caller
    /// that mirrors this table elsewhere. The controller applies batches
    /// to the local fabric through all its usual paths (delta overlay,
    /// scheduled waves, reoptimize), and the caller drains the log to
    /// replay the *exact same* batches on its copy. Rejected batches are
    /// never recorded; rolled-back ones are retracted by
    /// [`rewind_wave`](Fabric::rewind_wave).
    pub fn enable_batch_log(&mut self) {
        self.batch_log.enabled = true;
    }

    /// Takes the recorded batches accumulated since the last drain,
    /// oldest first. Empty (and free) unless
    /// [`enable_batch_log`](Fabric::enable_batch_log) was called.
    pub fn drain_batches(&mut self) -> Vec<FlowModBatch> {
        std::mem::take(&mut self.batch_log.batches)
    }

    /// Undoes the batch `undo` came from — a wave that was applied and
    /// then refused (by a safety check, a switch further down the fan-out,
    /// or a later step of the caller's transaction): the table is as it
    /// was before the batch, band order included, and the batch is
    /// retracted from the log, so it is never streamed. Batches applied
    /// after it must have been rewound first.
    pub fn rewind_wave(&mut self, undo: WaveUndo) {
        self.switch.table_mut().undo_batch(undo.table);
        self.batch_log.batches.truncate(undo.logged);
    }
}

/// What [`Fabric::rewind_wave`] needs to undo one applied batch (see
/// [`Fabric::apply_flowmods_undoable`]).
#[derive(Debug)]
pub struct WaveUndo {
    table: BatchUndo,
    logged: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::FlowEntry;
    use proptest::prelude::*;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_bgp::rib::Advert;
    use sdx_net::{
        ip, prefix, FieldMatch, HeaderMatch, Ipv4Addr, MacAddr, Mod, Prefix, Slot, Write,
    };

    fn port(p: u32, i: u8) -> PortId {
        PortId::Phys(ParticipantId(p), i)
    }

    /// A two-participant fabric: A (port A1) sends, B (port B1) receives.
    /// The switch matches the VMAC tag and rewrites it to B's physical MAC
    /// — the paper's stage-2 behaviour.
    fn two_party_fabric() -> Fabric {
        let mut f = Fabric::new();
        f.attach(BorderRouter::new(port(1, 1), MacAddr::physical(11)));
        tell_74_125(&mut f, ParticipantId(1));
        f.attach(BorderRouter::new(port(2, 1), MacAddr::physical(21)));
        f.arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        // Stage-2 rule: FEC tag 7 → rewrite to B1's MAC, output B1.
        f.switch.install(FlowEntry::new(
            10,
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7))),
            vec![vec![
                Mod::SetDlDst(MacAddr::physical(21)),
                Mod::SetLoc(port(2, 1)),
            ]],
        ));
        f
    }

    #[test]
    fn end_to_end_delivery() {
        let f = two_party_fabric();
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(2, 1));
        // The VMAC tag was rewritten to the receiver's physical MAC, so B's
        // router will accept the frame (the paper's dstmac rewrite).
        assert_eq!(out[0].pkt.dl_dst, MacAddr::physical(21));
        assert_eq!(count(f.telemetry(), "fabric.stuck_at_virtual.count"), 0);
    }

    /// Writes `viewer`'s own slot at `prefix`: advertised under
    /// `next_hop`, or (`None`) withheld.
    fn tell(f: &mut Fabric, viewer: ParticipantId, prefix: Prefix, next_hop: Option<Ipv4Addr>) {
        let slot = next_hop.map_or(Slot::Withheld, |next_hop| {
            let route = Arc::new(PathAttributes::new(AsPath::sequence([65002]), next_hop));
            Slot::Own(Advert { route, next_hop })
        });
        f.adverts.apply(Write::Slot {
            viewer,
            prefix,
            slot,
        });
    }

    /// The route server tells `viewer` 74.125/16 via VNH 172.16.255.1.
    fn tell_74_125(f: &mut Fabric, viewer: ParticipantId) {
        tell(f, viewer, prefix("74.125.0.0/16"), Some(ip("172.16.255.1")));
    }

    proptest! {
        /// Each attached router's FIB is what a table of its participant's
        /// own would hold after the same writes: a model keyed by
        /// (participant, prefix), started from the bases at the subscribed
        /// participants and written by every slot withheld or advertised.
        /// Lookups, size and contents agree at every port after every
        /// batch of writes, so what one router's participant is told every
        /// router of that participant sees — ports (1,1) and (1,2) share
        /// one view — and no other participant's router does.
        #[test]
        fn every_routers_fib_is_its_participants_view(
            subscribed in proptest::collection::vec(any::<bool>(), 3),
            bases in proptest::collection::vec((0usize..8, 0u8..4), 0..6),
            updates in proptest::collection::vec(
                (
                    0usize..4,
                    proptest::collection::vec(0usize..8, 0..3),
                    proptest::option::of((
                        0u8..4,
                        proptest::collection::vec(0usize..8, 1..3),
                    )),
                ),
                0..24,
            ),
        ) {
            use std::collections::BTreeMap;

            let ports = [port(1, 1), port(1, 2), port(2, 1), port(3, 1)];
            let viewers = [1, 2, 3].map(ParticipantId);
            let pool = [
                "0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24",
                "10.1.2.3/32", "20.0.0.0/8", "74.125.0.0/16", "99.0.0.0/8",
            ]
            .map(prefix);
            let hop = |i: u8| ip("172.16.0.1").saturating_add(i.into());
            let probes: Vec<Ipv4Addr> = pool
                .iter()
                .map(|p| p.first())
                .chain(["10.1.2.4", "10.2.0.1", "1.2.3.4"].map(ip))
                .collect();

            let mut f = Fabric::new();
            for at in ports {
                f.attach(BorderRouter::new(at, MacAddr::physical(1)));
            }
            for (&viewer, &on) in viewers.iter().zip(&subscribed) {
                f.adverts.apply(Write::Subscription { viewer, subscribed: on });
            }
            let route = Arc::new(PathAttributes::new(AsPath::sequence([65002]), hop(0)));
            let mut model: BTreeMap<(ParticipantId, Prefix), Ipv4Addr> = BTreeMap::new();
            for &(p, h) in &bases {
                let advert = Advert { route: Arc::clone(&route), next_hop: hop(h) };
                f.adverts.apply(Write::Base { prefix: pool[p], value: Some(advert) });
                for (&viewer, _) in viewers.iter().zip(&subscribed).filter(|(_, &on)| on) {
                    model.insert((viewer, pool[p]), hop(h));
                }
            }
            let check = |f: &Fabric, model: &BTreeMap<(ParticipantId, Prefix), Ipv4Addr>| {
                for at in ports {
                    let router = f.router(at).unwrap();
                    let mine = model.iter().filter(|((holder, _), _)| *holder == at.participant());
                    let mut want: Vec<(Prefix, Ipv4Addr)> =
                        mine.map(|(&(_, p), &h)| (p, h)).collect();
                    for &dst in &probes {
                        let covering = want.iter().filter(|(p, _)| p.contains(dst));
                        let longest = covering.max_by_key(|(p, _)| p.len()).copied();
                        prop_assert_eq!(router.route_for(dst), longest, "{:?} to {}", at, dst);
                    }
                    prop_assert_eq!(router.fib_len(), want.len());
                    let mut held: Vec<(Prefix, Ipv4Addr)> =
                        router.fib().iter().map(|(p, a)| (p, a.next_hop)).collect();
                    held.sort_by_key(|(p, _)| *p);
                    want.sort_by_key(|(p, _)| *p);
                    prop_assert_eq!(held, want, "{:?}", at);
                }
                Ok(())
            };
            check(&f, &model)?;
            for (at, withdrawn, announced) in updates {
                let viewer = ports[at].participant();
                for p in withdrawn.into_iter().map(|p| pool[p]) {
                    tell(&mut f, viewer, p, None);
                    model.remove(&(viewer, p));
                }
                if let Some((h, nlri)) = announced {
                    for p in nlri.into_iter().map(|p| pool[p]) {
                        tell(&mut f, viewer, p, Some(hop(h)));
                        model.insert((viewer, p), hop(h));
                    }
                }
                check(&f, &model)?;
            }
        }
    }

    #[test]
    fn unrouted_traffic_goes_nowhere() {
        let f = two_party_fabric();
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("9.9.9.9"), 5, 80),
        );
        assert!(out.is_empty());
        assert_eq!(count(f.telemetry(), "fabric.no_route.count"), 1);
    }

    fn count(reg: &SharedRegistry, key: &str) -> u64 {
        reg.counter(key).get()
    }

    fn routed() -> Packet {
        Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80)
    }

    #[test]
    fn an_unresolved_next_hop_counts_as_no_arp_not_no_route() {
        let mut f = two_party_fabric();
        // A route whose VNH the responder has no binding for.
        let vnh = Some(ip("172.16.255.9"));
        tell(&mut f, ParticipantId(1), prefix("20.0.0.0/8"), vnh);
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("20.0.0.1"), 5, 80),
        );
        assert!(out.is_empty());
        assert_eq!(count(f.telemetry(), "fabric.no_arp.count"), 1);
        assert_eq!(count(f.telemetry(), "fabric.no_route.count"), 0);
        // A packet with no route at all still counts as one.
        f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("9.9.9.9"), 5, 80),
        );
        assert_eq!(count(f.telemetry(), "fabric.no_arp.count"), 1);
        assert_eq!(count(f.telemetry(), "fabric.no_route.count"), 1);
    }

    #[test]
    fn traffic_counters_land_in_the_fabrics_own_registry() {
        let traffic = |reg: &SharedRegistry| {
            (
                count(reg, "fabric.tx.count"),
                count(reg, "fabric.delivered.count"),
            )
        };
        // Never given a registry: counts in the one it reports.
        let mut f = two_party_fabric();
        assert_eq!(f.send(port(1, 1), routed()).len(), 1);
        assert_eq!(traffic(f.telemetry()), (1, 1));

        // Re-pointed: counts in the new registry, no longer in the old.
        let old = f.telemetry().clone();
        let reg = SharedRegistry::new();
        f.set_telemetry(reg.clone());
        f.send(port(1, 1), routed());
        assert_eq!(traffic(&reg), (1, 1));
        assert_eq!(traffic(&old), (1, 1));

        // A clone counts in the same sink.
        let g = f.clone();
        g.send(port(1, 1), routed());
        assert!(g.telemetry().same_sink(&reg));
        assert_eq!(traffic(&reg), (2, 2));
    }

    #[test]
    fn deliveries_keep_bucket_order_after_suppression_dedup_and_stuck_outputs() {
        let mut f = two_party_fabric();
        f.attach(BorderRouter::new(port(3, 1), MacAddr::physical(31)));
        f.switch.install(FlowEntry::new(
            100,
            HeaderMatch::of(FieldMatch::InPort(port(1, 1))),
            // A hairpin (suppressed), a copy to B, a virtual output
            // (stuck), the same copy to B again (deduplicated), and a
            // rewritten copy to C.
            vec![
                vec![Mod::SetLoc(port(1, 1))],
                vec![Mod::SetLoc(port(2, 1))],
                vec![Mod::SetLoc(PortId::Virt(ParticipantId(2)))],
                vec![Mod::SetLoc(port(2, 1))],
                vec![
                    Mod::SetDlDst(MacAddr::physical(31)),
                    Mod::SetLoc(port(3, 1)),
                ],
            ],
        ));
        let pkt = Packet {
            payload_len: 1500,
            ..routed()
        };
        let out = f.send(port(1, 1), pkt);
        let locs: Vec<PortId> = out.iter().map(|d| d.loc).collect();
        assert_eq!(locs, [port(2, 1), port(3, 1)]);
        assert_eq!(out[1].pkt.dl_dst, MacAddr::physical(31));
        assert_eq!(count(f.telemetry(), "fabric.delivered.count"), 2);
        assert_eq!(count(f.telemetry(), "fabric.stuck_at_virtual.count"), 1);

        // A packet no entry matches bumps the matcher's miss count, goes
        // nowhere.
        let stray = LocatedPacket::at(port(2, 1), routed());
        assert!(f.inject(stray).is_empty());
        assert_eq!(f.switch.table().matcher_stats().miss_count, 1);
        assert_eq!(count(f.telemetry(), "fabric.delivered.count"), 2);
    }

    #[test]
    fn send_from_unknown_port_is_noop() {
        let f = two_party_fabric();
        assert!(f
            .send(port(9, 1), Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80))
            .is_empty());
    }

    #[test]
    fn virtual_outputs_are_flagged() {
        let mut f = two_party_fabric();
        f.switch.install(FlowEntry::new(
            100,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(PortId::Virt(ParticipantId(2)))]],
        ));
        let out = f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
        );
        assert!(out.is_empty());
        assert_eq!(count(f.telemetry(), "fabric.stuck_at_virtual.count"), 1);
    }

    #[test]
    fn rewinding_a_wave_restores_the_table_and_retracts_its_log_entries() {
        use crate::flowmod::FlowMod;
        let mut f = two_party_fabric();
        f.enable_batch_log();
        let any_to = |priority, p| {
            FlowMod::Add(FlowEntry::new(
                priority,
                HeaderMatch::any(),
                vec![vec![Mod::SetLoc(p)]],
            ))
        };
        let mut kept = FlowModBatch::new(1);
        kept.push(any_to(50, port(2, 1)));
        f.apply_flowmods(&kept).expect("applies");
        // Traffic first: forwarding writes nothing, so it cannot move the
        // pre-image.
        f.send(
            port(1, 1),
            Packet::tcp(ip("10.0.0.1"), ip("74.125.1.1"), 5, 80),
        );
        let before = f.clone();
        // One wave that adds above, rewrites and deletes live entries.
        let mut undone = FlowModBatch::new(2);
        undone.push(any_to(51, port(1, 1)));
        undone.push(FlowMod::Modify {
            priority: 50,
            pattern: HeaderMatch::any(),
            buckets: vec![],
            cookie: 9,
        });
        undone.push(FlowMod::Delete {
            priority: 10,
            pattern: HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(7))),
        });
        let (_, undo) = f.apply_flowmods_undoable(&undone).expect("applies");
        assert_ne!(f, before);
        f.rewind_wave(undo);
        assert_eq!(f, before, "installed state is the pre-wave state");
        assert_eq!(f.switch.table().epoch(), before.switch.table().epoch());
        assert_eq!(f.drain_batches(), vec![kept], "only the kept batch streams");
        assert!(f.drain_batches().is_empty(), "drain empties the log");
    }

    #[test]
    fn batch_log_skips_rejected_batches_and_is_off_by_default() {
        use crate::flowmod::FlowMod;
        let mut f = two_party_fabric();
        // Off by default: nothing is recorded.
        let mut ok = FlowModBatch::new(1);
        ok.push(FlowMod::Add(FlowEntry::new(
            50,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(2, 1))]],
        )));
        f.apply_flowmods(&ok).unwrap();
        assert!(f.drain_batches().is_empty());

        f.enable_batch_log();
        // A rejected batch (delete of a non-existent rule) leaves no trace.
        let mut bad = FlowModBatch::new(2);
        bad.push(FlowMod::Delete {
            priority: 9999,
            pattern: HeaderMatch::any(),
        });
        assert!(f.apply_flowmods(&bad).is_err());
        assert!(f.drain_batches().is_empty());
        // Accepted batches are recorded once logging is on.
        let mut ok2 = FlowModBatch::new(3);
        ok2.push(FlowMod::Add(FlowEntry::new(
            51,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(1, 1))]],
        )));
        f.apply_flowmods(&ok2).unwrap();
        assert_eq!(f.drain_batches().len(), 1);
    }

    /// A fabric that delivers every routed packet at one port, with the
    /// routers attached in the order given, each participant then told
    /// [`tell_74_125`], whose VNH the fabric resolves.
    fn attached(routers: impl IntoIterator<Item = BorderRouter>) -> Fabric {
        let mut f = Fabric::new();
        f.arp.bind(ip("172.16.255.1"), MacAddr::vmac(7));
        f.switch.install(FlowEntry::new(
            1,
            HeaderMatch::any(),
            vec![vec![Mod::SetLoc(port(9, 9))]],
        ));
        for router in routers {
            let at = router.port;
            f.attach(router);
            tell_74_125(&mut f, at.participant());
        }
        f
    }

    proptest! {
        /// The port index finds what a map keyed by port would, whatever
        /// the attach order, a re-attach replacing the router at its port.
        #[test]
        fn the_port_index_agrees_with_an_ordered_map(
            attaches in proptest::collection::vec((1u32..6, 0u8..3, 0u32..1000), 0..16),
            order in any::<u64>(),
        ) {
            use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
            use std::collections::BTreeMap;

            let routers = attaches
                .iter()
                .map(|&(p, i, mac)| BorderRouter::new(port(p, i), MacAddr::physical(mac)));
            let mut f = attached(routers.clone());
            let model: BTreeMap<PortId, BorderRouter> =
                routers.map(|r| (r.port, r)).collect();
            let mut reordered: Vec<BorderRouter> = model.values().cloned().collect();
            reordered.shuffle(&mut StdRng::seed_from_u64(order));
            prop_assert_eq!(&attached(reordered), &f);
            prop_assert_eq!(f.ports().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
            for p in 0..7 {
                for i in 0..4 {
                    let (at, want) = (port(p, i), model.get(&port(p, i)));
                    prop_assert_eq!(f.router(at).map(|r| BorderRouter::clone(&r)), want.cloned());
                    let route = f.router(at).and_then(|r| r.route_for(ip("74.125.1.1")));
                    let want_route = want.map(|_| prefix("74.125.0.0/16"));
                    prop_assert_eq!(route.map(|(p, _)| p), want_route);
                    prop_assert_eq!(f.router_mut(at).map(|r| r.mac), want.map(|r| r.mac));
                    prop_assert_eq!(f.send(at, routed()).len(), usize::from(want.is_some()));
                }
            }
        }
    }
}
