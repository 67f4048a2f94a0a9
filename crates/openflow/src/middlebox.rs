//! A middlebox attached to an SDX port.
//!
//! §2 of the paper motivates redirection through middleboxes; §8 envisions
//! *service chaining* — steering traffic through a **sequence** of
//! middleboxes. A middlebox here is a bump on a fabric port: it receives
//! frames delivered to its port, applies its function (counted; the
//! simulator models processing as an optional header transform), and
//! re-injects the traffic toward its original destination through the
//! port's border router — whereupon the next hop of the chain (or plain
//! BGP) takes over.

use sdx_net::{LocatedPacket, Packet, PortId};

use crate::fabric::{Delivery, Fabric};
use crate::switch::Deliveries;

/// The packet transform a middlebox applies; identity for monitors and
/// scrubbers, a header rewrite for NATs etc.
pub type MiddleboxFn = fn(Packet) -> Packet;

/// A middlebox behind one fabric port.
#[derive(Clone, Debug)]
pub struct Middlebox {
    /// The port this middlebox hangs off.
    pub port: PortId,
    /// Human-readable label for logs/series.
    pub label: String,
    /// Packets processed so far.
    pub processed: u64,
    transform: MiddleboxFn,
}

impl Middlebox {
    /// A pass-through middlebox (scrubber/monitor/transcoder model).
    pub fn passthrough(port: PortId, label: impl Into<String>) -> Self {
        Middlebox {
            port,
            label: label.into(),
            processed: 0,
            transform: |p| p,
        }
    }

    /// A middlebox applying a custom header transform.
    pub fn with_transform(port: PortId, label: impl Into<String>, f: MiddleboxFn) -> Self {
        Middlebox {
            port,
            label: label.into(),
            processed: 0,
            transform: f,
        }
    }

    /// Processes one delivered frame and re-injects it into the fabric via
    /// the port's border router (FIB + ARP, like any originated traffic).
    pub fn process(&mut self, fabric: &mut Fabric, delivered: LocatedPacket) -> Deliveries {
        debug_assert_eq!(delivered.loc, self.port, "frame delivered elsewhere");
        self.processed += 1;
        let out = (self.transform)(delivered.pkt);
        fabric.send(self.port, out)
    }
}

/// Drives a packet through the fabric *and* a set of middleboxes until it
/// reaches a port without one (the real recipient) or the hop budget runs
/// out (a chain misconfiguration — reported as `None`).
pub fn run_through_chain(
    fabric: &mut Fabric,
    middleboxes: &mut [Middlebox],
    from: PortId,
    pkt: Packet,
    max_hops: usize,
) -> Option<Vec<Delivery>> {
    let mut in_flight = Vec::from(fabric.send(from, pkt));
    for _ in 0..max_hops {
        let mut next = Vec::new();
        let mut done = Vec::new();
        for d in in_flight {
            match middleboxes.iter_mut().find(|m| m.port == d.loc) {
                Some(mbox) => next.extend(mbox.process(fabric, d)),
                None => done.push(d),
            }
        }
        if next.is_empty() {
            return Some(done);
        }
        // Any frames that already reached real recipients stay delivered.
        next.extend(done);
        in_flight = next;
    }
    None // hop budget exhausted: the chain loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::border_router::BorderRouter;
    use crate::table::FlowEntry;
    use sdx_bgp::attrs::{AsPath, PathAttributes};
    use sdx_bgp::msg::UpdateMessage;
    use sdx_net::{ip, prefix, FieldMatch, HeaderMatch, MacAddr, Mod, ParticipantId};

    fn port(p: u32, i: u8) -> PortId {
        PortId::Phys(ParticipantId(p), i)
    }

    /// A fabric where A sends, E hosts a middlebox, B receives: traffic is
    /// steered A→E (in-port rule), then E's re-injection forwards to B.
    fn chain_fabric() -> (Fabric, Middlebox) {
        let mut f = Fabric::new();
        f.attach(BorderRouter::new(port(1, 1), MacAddr::physical(11)));
        f.attach(BorderRouter::new(port(5, 1), MacAddr::physical(51)));
        f.attach(BorderRouter::new(port(2, 1), MacAddr::physical(21)));
        for at in [port(1, 1), port(5, 1)] {
            f.router_mut(at)
                .unwrap()
                .apply_update(&UpdateMessage::announce(
                    [prefix("20.0.0.0/8")],
                    PathAttributes::new(AsPath::sequence([65002]), ip("172.16.0.9")),
                ));
        }
        f.arp.bind(ip("172.16.0.9"), MacAddr::physical(21));
        // Steering: traffic entering at A1 diverts to E1 (MAC-rewritten);
        // traffic entering at E1 goes to B (delivery rule by B's MAC).
        f.switch.install(FlowEntry::new(
            100,
            HeaderMatch::of(FieldMatch::InPort(port(1, 1))),
            vec![vec![
                Mod::SetDlDst(MacAddr::physical(51)),
                Mod::SetLoc(port(5, 1)),
            ]],
        ));
        f.switch.install(FlowEntry::new(
            50,
            HeaderMatch::of(FieldMatch::DlDst(MacAddr::physical(21))),
            vec![vec![Mod::SetLoc(port(2, 1))]],
        ));
        (f, Middlebox::passthrough(port(5, 1), "scrubber"))
    }

    #[test]
    fn middlebox_processes_and_reinjects() {
        let (mut f, mut mbox) = chain_fabric();
        let out = run_through_chain(
            &mut f,
            std::slice::from_mut(&mut mbox),
            port(1, 1),
            Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 40_000, 80),
            4,
        )
        .expect("chain terminates");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].loc, port(2, 1));
        assert_eq!(mbox.processed, 1);
    }

    #[test]
    fn transform_applies() {
        let (mut f, _) = chain_fabric();
        let mut nat = Middlebox::with_transform(port(5, 1), "nat", |mut p| {
            p.nw_src = sdx_net::Ipv4Addr::new(100, 64, 0, 1);
            p
        });
        let out = run_through_chain(
            &mut f,
            std::slice::from_mut(&mut nat),
            port(1, 1),
            Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 40_000, 80),
            4,
        )
        .expect("terminates");
        assert_eq!(out[0].pkt.nw_src, sdx_net::Ipv4Addr::new(100, 64, 0, 1));
    }

    #[test]
    fn looping_chain_hits_the_hop_budget() {
        let (mut f, mbox) = chain_fabric();
        // Sabotage: two middleboxes steered at each other ping-pong
        // forever. (A1 gets a middlebox too, and the steering rules send
        // E1's traffic to A1 and A1's traffic to E1.)
        f.switch.install(FlowEntry::new(
            200,
            HeaderMatch::of(FieldMatch::InPort(port(5, 1))),
            vec![vec![
                Mod::SetDlDst(MacAddr::physical(11)),
                Mod::SetLoc(port(1, 1)),
            ]],
        ));
        f.switch.install(FlowEntry::new(
            199,
            HeaderMatch::of(FieldMatch::InPort(port(1, 1))),
            vec![vec![
                Mod::SetDlDst(MacAddr::physical(51)),
                Mod::SetLoc(port(5, 1)),
            ]],
        ));
        let mut chain = vec![mbox, Middlebox::passthrough(port(1, 1), "bouncer")];
        let out = run_through_chain(
            &mut f,
            &mut chain,
            port(1, 1),
            Packet::tcp(ip("9.9.9.9"), ip("20.0.0.1"), 40_000, 80),
            8,
        );
        assert!(out.is_none(), "loop must be detected, not spin forever");
    }
}
