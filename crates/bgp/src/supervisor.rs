//! Peer-session supervision: liveness and flap damping.
//!
//! The paper's prototype delegates session handling to ExaBGP; a deployed
//! exchange additionally needs the *operational* layer around each session
//! — noticing silent peers and preventing a flapping peer from driving the
//! policy compiler into a recompilation storm. [`Supervisor`] is that
//! layer. It owns one [`Session`] FSM per peer and is driven by four calls:
//!
//! * [`connection_up`](Supervisor::connection_up) — a peer's transport
//!   came up; start the handshake on it. The route server (§5) answers the
//!   sessions participants open and never dials out, so this is the only
//!   way a session leaves Idle.
//! * [`handle_message`](Supervisor::handle_message) — a message arrived
//!   from a peer; step its FSM, feed delivered UPDATEs to the
//!   [`RouteServer`], and translate any session reset into an immediate
//!   RIB flush.
//! * [`peer_disconnected`](Supervisor::peer_disconnected) — the transport
//!   dropped; reset the session as a NOTIFICATION would.
//! * [`tick`](Supervisor::tick) — time passed; expire hold timers, send
//!   keepalives, decay flap penalties, and release suppressed peers.
//!
//! Time is a caller-supplied `u64` of milliseconds, so the supervisor is
//! fully deterministic and directly unit-testable — the same philosophy as
//! the session FSM itself.
//!
//! # Route-flap damping
//!
//! The damping constants are RFC 2439's commonly deployed values. Each
//! session reset adds a penalty of 1000 to the peer's, which decays
//! exponentially with a half-life of 15 s. When the penalty reaches 2000
//! the peer is *suppressed*:
//!
//! * the reset that crossed the threshold still flushes the fabric — its
//!   withdrawal prefixes are emitted immediately, so a dying peer's routes
//!   never linger in the data plane;
//! * every subsequent prefix change from the peer (re-announcements once
//!   it connects again, further flap flushes) accumulates in a pending
//!   set and produces **no** recompilation;
//! * once the penalty decays below 750, the pending set is drained in one
//!   batch — a single recompilation reinstates the peer's routes.
//!
//! A peer that flaps N times inside a half-life therefore costs O(1)
//! recompilations, not O(N). While a peer is suppressed the route server's
//! RIB may be ahead of the installed fabric for the pending prefixes; the
//! batch release (or any full reoptimize) reconverges them.

use std::collections::{BTreeMap, BTreeSet};

use sdx_net::{ParticipantId, Prefix};
use sdx_telemetry::{Event, SharedRegistry};

use crate::msg::{BgpMessage, OpenMessage};
use crate::route_server::{RouteServer, RouteServerEvent};
use crate::session::{Session, SessionEvent, SessionState};

/// Penalty added to a peer for each session reset.
const FLAP_PENALTY: f64 = 1_000.0;
/// Penalty at or above which the peer is suppressed.
const SUPPRESS_THRESHOLD: f64 = 2_000.0;
/// Penalty below which a suppressed peer is released.
const REUSE_THRESHOLD: f64 = 750.0;
/// Exponential-decay half-life of the penalty, milliseconds.
const HALF_LIFE_MS: u64 = 15_000;

/// [`Supervisor::new`]'s options. It has none: flap damping runs at RFC
/// 2439's defaults (see the module docs). The type is kept, field-less,
/// because the benchmark's parts twin calls
/// `Supervisor::new(SupervisorConfig::default(), 7)`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SupervisorConfig {}

/// What a supervision step produced.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SupervisorOutput {
    /// Messages to transmit, in order, per peer.
    pub send: Vec<(ParticipantId, BgpMessage)>,
    /// Prefixes whose best route changed and should be pushed through the
    /// controller's fast path now (already de-duplicated, sorted).
    pub changed_prefixes: Vec<Prefix>,
    /// Peers whose session dropped during this step.
    pub resets: Vec<ParticipantId>,
}

impl SupervisorOutput {
    fn push_changed(&mut self, prefixes: impl IntoIterator<Item = Prefix>) {
        self.changed_prefixes.extend(prefixes);
        self.changed_prefixes.sort();
        self.changed_prefixes.dedup();
    }
}

/// Per-peer supervision state.
#[derive(Clone, Debug)]
struct PeerState {
    session: Session,
    /// Flap penalty as of `penalty_at_ms` (decays exponentially).
    penalty: f64,
    penalty_at_ms: u64,
    suppressed: bool,
    /// Last time we heard anything from the peer.
    last_heard_ms: u64,
    /// Last time we sent a keepalive.
    last_keepalive_ms: u64,
    /// Prefix changes withheld while suppressed.
    pending: BTreeSet<Prefix>,
}

/// Supervises every peer session of the exchange (see module docs).
#[derive(Clone, Debug)]
pub struct Supervisor {
    peers: BTreeMap<ParticipantId, PeerState>,
    telemetry: SharedRegistry,
}

impl Supervisor {
    /// A supervisor with no peers. Neither argument is read: there is
    /// nothing to configure and nothing is random. Both are kept because
    /// the benchmark's parts twin calls
    /// `Supervisor::new(SupervisorConfig::default(), 7)`.
    pub fn new(_cfg: SupervisorConfig, _seed: u64) -> Self {
        Supervisor {
            peers: BTreeMap::new(),
            telemetry: SharedRegistry::default(),
        }
    }

    /// Points session-lifecycle events and counters at `reg`.
    pub fn with_telemetry(mut self, reg: SharedRegistry) -> Self {
        self.telemetry = reg;
        self
    }

    /// The registry this supervisor emits into.
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.telemetry
    }

    /// Registers a peer, Idle until [`connection_up`](Self::connection_up)
    /// reports its transport. The peer must already be registered
    /// with the route server that is later passed to
    /// [`handle_message`](Supervisor::handle_message).
    pub fn add_peer(&mut self, id: ParticipantId, local: OpenMessage, now_ms: u64) {
        self.peers.insert(
            id,
            PeerState {
                session: Session::new(local),
                penalty: 0.0,
                penalty_at_ms: now_ms,
                suppressed: false,
                last_heard_ms: now_ms,
                last_keepalive_ms: now_ms,
                pending: BTreeSet::new(),
            },
        );
    }

    /// The supervised session of `id`, if registered.
    pub fn session(&self, id: ParticipantId) -> Option<&Session> {
        self.peers.get(&id).map(|p| &p.session)
    }

    /// The peer's flap penalty decayed to `now_ms`.
    pub fn penalty(&self, id: ParticipantId, now_ms: u64) -> f64 {
        self.peers
            .get(&id)
            .map(|p| decay(p.penalty, now_ms.saturating_sub(p.penalty_at_ms)))
            .unwrap_or(0.0)
    }

    /// Whether the peer's prefix changes are currently being withheld.
    pub fn is_suppressed(&self, id: ParticipantId) -> bool {
        self.peers.get(&id).is_some_and(|p| p.suppressed)
    }

    /// Prefix changes withheld from the fabric while `id` is suppressed.
    pub fn pending(&self, id: ParticipantId) -> Vec<Prefix> {
        self.peers
            .get(&id)
            .map(|p| p.pending.iter().copied().collect())
            .unwrap_or_default()
    }

    /// A message arrived from peer `id` at `now_ms`: steps the FSM,
    /// forwards delivered UPDATEs to `rs`, and handles any reset
    /// (penalize, flush). The session stays Idle until the peer connects
    /// again.
    pub fn handle_message(
        &mut self,
        now_ms: u64,
        id: ParticipantId,
        msg: BgpMessage,
        rs: &mut RouteServer,
    ) -> SupervisorOutput {
        let mut out = SupervisorOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        peer.last_heard_ms = now_ms;
        let step = peer.session.handle(SessionEvent::Received(msg));
        out.send.extend(step.send.into_iter().map(|m| (id, m)));
        if step.established {
            peer.last_keepalive_ms = now_ms;
            self.telemetry.inc("session.established.count");
            self.telemetry
                .record_event(Event::SessionEstablished { peer: id.0 });
        }
        let suppressed = peer.suppressed;
        let mut changed: Vec<Prefix> = Vec::new();
        for update in &step.updates {
            changed.extend(prefixes_of(rs.process_update(id, update)));
        }
        if suppressed {
            let peer = self.peers.get_mut(&id).expect("peer present");
            peer.pending.extend(changed);
        } else {
            out.push_changed(changed);
        }
        if step.reset {
            self.on_reset(now_ms, id, rs, &mut out);
        }
        out
    }

    /// A transport connection to peer `id` came up at `now_ms`: (re)starts
    /// the FSM over the new connection, emitting our OPEN. If a session was
    /// already up or mid-handshake on a previous connection, the stale
    /// session is torn down first with full reset accounting — the old
    /// transport is gone, whether or not we noticed it die. Nothing else
    /// starts a session.
    pub fn connection_up(
        &mut self,
        now_ms: u64,
        id: ParticipantId,
        rs: &mut RouteServer,
    ) -> SupervisorOutput {
        let mut out = SupervisorOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        peer.last_heard_ms = now_ms;
        peer.last_keepalive_ms = now_ms;
        match peer.session.state() {
            SessionState::Idle | SessionState::Connect => {}
            SessionState::OpenSent => {
                // Our OPEN went out on a connection that has since been
                // replaced; re-offer it on this one without re-stepping
                // the FSM.
                out.send
                    .push((id, BgpMessage::Open(peer.session.local().clone())));
                return out;
            }
            SessionState::OpenConfirm | SessionState::Established => {
                // The previous transport died without us noticing. Tear
                // the stale session down (flap-accounted) before starting
                // fresh on the new connection; the Cease the FSM queues
                // has no transport left to carry it.
                let step = peer.session.handle(SessionEvent::ManualStop);
                debug_assert!(step.reset);
                self.on_reset(now_ms, id, rs, &mut out);
            }
        }
        let peer = self.peers.get_mut(&id).expect("peer present");
        if peer.session.state() == SessionState::Idle {
            peer.session.handle(SessionEvent::ManualStart);
        }
        let step = peer.session.handle(SessionEvent::Connected);
        out.send.extend(step.send.into_iter().map(|m| (id, m)));
        out
    }

    /// The transport to peer `id` dropped (TCP reset / EOF) at `now_ms`:
    /// tears down any in-progress or established session with the same
    /// handling as a NOTIFICATION-driven reset — flap penalty, possible
    /// suppression, RIB flush. Idle peers are untouched, so spurious
    /// connect/close cycles before `ManualStart` cost nothing.
    pub fn peer_disconnected(
        &mut self,
        now_ms: u64,
        id: ParticipantId,
        rs: &mut RouteServer,
    ) -> SupervisorOutput {
        let mut out = SupervisorOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        if peer.session.state() == SessionState::Idle {
            return out;
        }
        // ManualStop queues a Cease, but there is no transport left to
        // carry it; drop the session silently and run reset handling.
        let step = peer.session.handle(SessionEvent::ManualStop);
        debug_assert!(step.reset);
        self.on_reset(now_ms, id, rs, &mut out);
        out
    }

    /// Advances time to `now_ms`: expires hold timers, emits keepalives,
    /// decays flap penalties, and releases peers whose penalty decayed
    /// below the reuse threshold (draining their pending prefix set).
    pub fn tick(&mut self, now_ms: u64, rs: &mut RouteServer) -> SupervisorOutput {
        let mut out = SupervisorOutput::default();
        let ids: Vec<ParticipantId> = self.peers.keys().copied().collect();
        for id in ids {
            self.tick_peer(now_ms, id, rs, &mut out);
        }
        out
    }

    fn tick_peer(
        &mut self,
        now_ms: u64,
        id: ParticipantId,
        rs: &mut RouteServer,
        out: &mut SupervisorOutput,
    ) {
        let peer = self.peers.get_mut(&id).expect("peer present");

        // Hold-timer bookkeeping: a negotiated hold time of 0 disables it.
        if matches!(
            peer.session.state(),
            SessionState::Established | SessionState::OpenConfirm
        ) {
            if let Some(hold) = peer.session.negotiated_hold_time() {
                let hold_ms = u64::from(hold) * 1_000;
                if hold > 0 && now_ms.saturating_sub(peer.last_heard_ms) >= hold_ms {
                    let step = peer.session.handle(SessionEvent::HoldTimerExpired);
                    out.send.extend(step.send.into_iter().map(|m| (id, m)));
                    if step.reset {
                        self.on_reset(now_ms, id, rs, out);
                    }
                    return;
                }
                // RFC 4271 §4.4: keepalives at a third of the hold time.
                let peer = self.peers.get_mut(&id).expect("peer present");
                if peer.session.state() == SessionState::Established
                    && hold > 0
                    && now_ms.saturating_sub(peer.last_keepalive_ms) >= hold_ms / 3
                {
                    peer.last_keepalive_ms = now_ms;
                    out.send.push((id, BgpMessage::Keepalive));
                    self.telemetry.inc("session.keepalive.count");
                }
            }
        }

        // Penalty decay and release from suppression.
        let peer = self.peers.get_mut(&id).expect("peer present");
        peer.penalty = decay(peer.penalty, now_ms.saturating_sub(peer.penalty_at_ms));
        peer.penalty_at_ms = now_ms;
        if peer.suppressed && peer.penalty < REUSE_THRESHOLD {
            peer.suppressed = false;
            let pending = std::mem::take(&mut peer.pending);
            self.telemetry.record_event(Event::SessionReleased {
                peer: id.0,
                pending: pending.len(),
            });
            out.push_changed(pending);
        }
    }

    /// Common reset handling: penalize, maybe suppress, and flush the
    /// route server.
    fn on_reset(
        &mut self,
        now_ms: u64,
        id: ParticipantId,
        rs: &mut RouteServer,
        out: &mut SupervisorOutput,
    ) {
        let peer = self.peers.get_mut(&id).expect("peer present");
        let was_suppressed = peer.suppressed;
        peer.penalty =
            decay(peer.penalty, now_ms.saturating_sub(peer.penalty_at_ms)) + FLAP_PENALTY;
        peer.penalty_at_ms = now_ms;
        if peer.penalty >= SUPPRESS_THRESHOLD && !peer.suppressed {
            peer.suppressed = true;
            self.telemetry
                .record_event(Event::SessionSuppressed { peer: id.0 });
        }
        let flushed = prefixes_of(rs.reset_session(id));
        if was_suppressed {
            // The fabric holds nothing from this peer (it was flushed
            // when suppression began), so the flush needs no
            // recompilation now; replay it at release instead.
            peer.pending.extend(flushed);
        } else {
            out.push_changed(flushed);
        }
        self.telemetry.inc("session.reset.count");
        self.telemetry
            .record_event(Event::SessionReset { peer: id.0 });
        out.resets.push(id);
    }
}

/// Exponential decay of `penalty` after `elapsed_ms`.
fn decay(penalty: f64, elapsed_ms: u64) -> f64 {
    penalty * 0.5f64.powf(elapsed_ms as f64 / HALF_LIFE_MS as f64)
}

/// The prefixes touched by a batch of route-server events.
fn prefixes_of(events: Vec<RouteServerEvent>) -> Vec<Prefix> {
    events
        .into_iter()
        .filter_map(|e| match e {
            RouteServerEvent::PrefixChanged(p) => Some(p),
            RouteServerEvent::SessionReset(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, MockClock};
    use crate::msg::{simple_announce, NotificationCode};
    use crate::route_server::ExportPolicy;
    use sdx_net::{ip, prefix, Asn, RouterId};

    fn open(asn: u32, hold: u16) -> OpenMessage {
        OpenMessage {
            version: 4,
            asn: Asn(asn),
            hold_time: hold,
            router_id: RouterId(asn),
        }
    }

    fn rs_with(peers: &[u32]) -> RouteServer {
        let mut rs = RouteServer::default();
        for &p in peers {
            rs.add_peer(
                crate::rib::RouteSource {
                    participant: ParticipantId(p),
                    asn: Asn(65000 + p),
                    router_id: RouterId(p),
                    peer_addr: sdx_net::Ipv4Addr(0xac10_0000 + p),
                },
                ExportPolicy::allow_all(),
            );
        }
        rs
    }

    /// Drives the supervised side to Established by playing the peer's
    /// half of the handshake.
    fn establish(sup: &mut Supervisor, rs: &mut RouteServer, id: ParticipantId, now: u64) {
        assert!(
            sup.tick(now, rs).send.is_empty(),
            "an Idle session waits for its peer to connect"
        );
        let out = sup.connection_up(now, id, rs);
        assert!(
            out.send
                .iter()
                .any(|(p, m)| *p == id && matches!(m, BgpMessage::Open(_))),
            "the peer's connection gets our OPEN"
        );
        sup.handle_message(now, id, BgpMessage::Open(open(60000 + id.0, 90)), rs);
        let out = sup.handle_message(now, id, BgpMessage::Keepalive, rs);
        assert!(out.changed_prefixes.is_empty());
        assert_eq!(sup.session(id).unwrap().state(), SessionState::Established);
    }

    #[test]
    fn supervisor_establishes_and_routes_updates() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        sup.add_peer(ParticipantId(1), open(65001, 90), 0);
        establish(&mut sup, &mut rs, ParticipantId(1), 0);
        let u = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("1.1.1.1"));
        let out = sup.handle_message(10, ParticipantId(1), BgpMessage::Update(u), &mut rs);
        assert_eq!(out.changed_prefixes, vec![prefix("10.0.0.0/8")]);
        assert!(out.resets.is_empty());
    }

    #[test]
    fn reset_flushes_immediately_when_not_suppressed() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        sup.add_peer(ParticipantId(1), open(65001, 90), 0);
        establish(&mut sup, &mut rs, ParticipantId(1), 0);
        let u = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("1.1.1.1"));
        sup.handle_message(10, ParticipantId(1), BgpMessage::Update(u), &mut rs);
        let out = sup.handle_message(
            20,
            ParticipantId(1),
            BgpMessage::Notification {
                code: NotificationCode::Cease,
                subcode: 0,
            },
            &mut rs,
        );
        assert_eq!(out.resets, vec![ParticipantId(1)]);
        assert_eq!(out.changed_prefixes, vec![prefix("10.0.0.0/8")]);
        assert!(sup.penalty(ParticipantId(1), 20) > 0.0);
        // Nothing reconnects on a timer: the session waits for the peer.
        let out = sup.tick(600_000, &mut rs);
        assert!(out.send.is_empty());
        let state = sup.session(ParticipantId(1)).unwrap().state();
        assert_eq!(state, SessionState::Idle);
    }

    #[test]
    fn flapping_peer_is_suppressed_then_released() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        let clock = MockClock::new();
        sup.add_peer(id, open(65001, 90), clock.now_ms());
        establish(&mut sup, &mut rs, id, clock.now_ms());

        let mut recompiles = 0u32;
        clock.advance(10);
        for _ in 0..6 {
            // Flap: notification drops the session.
            let out = sup.handle_message(
                clock.now_ms(),
                id,
                BgpMessage::Notification {
                    code: NotificationCode::Cease,
                    subcode: 0,
                },
                &mut rs,
            );
            recompiles += u32::from(!out.changed_prefixes.is_empty());
            // The peer connects again and re-announces.
            clock.advance(200);
            let now = clock.now_ms();
            sup.connection_up(now, id, &mut rs);
            sup.handle_message(now, id, BgpMessage::Open(open(60001, 90)), &mut rs);
            sup.handle_message(now, id, BgpMessage::Keepalive, &mut rs);
            let u = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("1.1.1.1"));
            let out = sup.handle_message(now, id, BgpMessage::Update(u), &mut rs);
            recompiles += u32::from(!out.changed_prefixes.is_empty());
            clock.advance(10);
        }
        assert!(sup.is_suppressed(id), "six rapid flaps must suppress");
        // Two flaps 210 ms apart leave the penalty just under 2000, so the
        // third crosses it. The first flap has nothing to flush and costs
        // its re-announcement, the second a flush and a re-announcement,
        // the third its flush, the rest nothing.
        assert_eq!(
            recompiles, 4,
            "suppression must bound recompilations, got {recompiles}"
        );
        assert_eq!(sup.pending(id), vec![prefix("10.0.0.0/8")]);

        // Four half-lives on, even six flaps' penalty has decayed below
        // reuse: the pending announcement is released in one batch.
        clock.advance(4 * HALF_LIFE_MS);
        let out = sup.tick(clock.now_ms(), &mut rs);
        assert!(!sup.is_suppressed(id));
        assert_eq!(out.changed_prefixes, vec![prefix("10.0.0.0/8")]);
        assert!(sup.pending(id).is_empty());
    }

    #[test]
    fn hold_timer_expiry_is_driven_by_tick() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 9), 0);
        establish(&mut sup, &mut rs, id, 0);
        // Negotiated hold is min(9, 90) = 9 s. Nothing heard for 10 s.
        let out = sup.tick(10_000, &mut rs);
        assert_eq!(out.resets, vec![id]);
        assert!(out.send.iter().any(|(_, m)| matches!(
            m,
            BgpMessage::Notification {
                code: NotificationCode::HoldTimerExpired,
                ..
            }
        )));
        assert_eq!(sup.session(id).unwrap().state(), SessionState::Idle);
    }

    #[test]
    fn keepalives_flow_while_established() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 9), 0);
        establish(&mut sup, &mut rs, id, 0);
        // A third of the 9 s hold time has passed: keepalive goes out.
        let out = sup.tick(3_000, &mut rs);
        assert!(out.send.contains(&(id, BgpMessage::Keepalive)));
        // But not again immediately.
        let out = sup.tick(3_100, &mut rs);
        assert!(!out.send.contains(&(id, BgpMessage::Keepalive)));
    }

    #[test]
    fn connection_up_starts_handshake_without_waiting_for_tick() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 90), 0);
        // A peer dialed in: the supervisor must offer its OPEN at once.
        let out = sup.connection_up(5, id, &mut rs);
        assert!(
            out.send
                .iter()
                .any(|(p, m)| *p == id && matches!(m, BgpMessage::Open(_))),
            "accept must emit our OPEN"
        );
        sup.handle_message(5, id, BgpMessage::Open(open(60001, 90)), &mut rs);
        sup.handle_message(5, id, BgpMessage::Keepalive, &mut rs);
        assert_eq!(sup.session(id).unwrap().state(), SessionState::Established);
    }

    #[test]
    fn connection_up_reoffers_open_when_mid_handshake() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 90), 0);
        sup.connection_up(0, id, &mut rs);
        assert_eq!(sup.session(id).unwrap().state(), SessionState::OpenSent);
        // The peer reconnected before answering: re-offer the OPEN on the
        // new connection, keeping the FSM where it was.
        let out = sup.connection_up(10, id, &mut rs);
        assert!(out
            .send
            .iter()
            .any(|(_, m)| matches!(m, BgpMessage::Open(o) if o.asn == Asn(65001))));
        assert_eq!(sup.session(id).unwrap().state(), SessionState::OpenSent);
        assert!(out.resets.is_empty());
    }

    #[test]
    fn connection_up_resets_stale_established_session() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 90), 0);
        establish(&mut sup, &mut rs, id, 0);
        let u = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("1.1.1.1"));
        sup.handle_message(1, id, BgpMessage::Update(u), &mut rs);
        // The peer shows up on a brand-new connection: the old session is
        // stale. It must be flap-accounted, its routes flushed, and a
        // fresh handshake started.
        let out = sup.connection_up(10, id, &mut rs);
        assert_eq!(out.resets, vec![id]);
        assert_eq!(out.changed_prefixes, vec![prefix("10.0.0.0/8")]);
        assert!(sup.penalty(id, 10) > 0.0);
        assert!(out
            .send
            .iter()
            .any(|(_, m)| matches!(m, BgpMessage::Open(_))));
        assert_eq!(sup.session(id).unwrap().state(), SessionState::OpenSent);
    }

    #[test]
    fn tcp_reset_is_flap_accounted_like_a_notification() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        sup.add_peer(id, open(65001, 90), 0);
        establish(&mut sup, &mut rs, id, 0);
        let u = simple_announce(prefix("10.0.0.0/8"), &[65001], ip("1.1.1.1"));
        sup.handle_message(1, id, BgpMessage::Update(u), &mut rs);
        let out = sup.peer_disconnected(20, id, &mut rs);
        assert_eq!(out.resets, vec![id]);
        assert_eq!(out.changed_prefixes, vec![prefix("10.0.0.0/8")]);
        assert!(
            out.send.is_empty(),
            "nothing can be sent on a dead connection"
        );
        assert!(sup.penalty(id, 20) > 0.0);
        assert_eq!(sup.session(id).unwrap().state(), SessionState::Idle);
        // A second disconnect while idle is a no-op.
        let out = sup.peer_disconnected(21, id, &mut rs);
        assert!(out.resets.is_empty());
        assert_eq!(sup.penalty(id, 21), sup.penalty(id, 21));
    }

    #[test]
    fn repeated_tcp_resets_suppress_the_peer() {
        let mut rs = rs_with(&[1]);
        let mut sup = Supervisor::new(SupervisorConfig::default(), 7);
        let id = ParticipantId(1);
        let clock = MockClock::new();
        sup.add_peer(id, open(65001, 90), clock.now_ms());
        establish(&mut sup, &mut rs, id, clock.now_ms());
        for reset in 1..=3 {
            clock.advance(10);
            sup.peer_disconnected(clock.now_ms(), id, &mut rs);
            // Two resets 20 ms apart stay just under the threshold; the
            // third crosses it.
            assert_eq!(
                sup.is_suppressed(id),
                reset == 3,
                "three rapid TCP resets within a half-life suppress, two do not: reset {reset}"
            );
            clock.advance(10);
            let now = clock.now_ms();
            sup.connection_up(now, id, &mut rs);
            sup.handle_message(now, id, BgpMessage::Open(open(60001, 90)), &mut rs);
            sup.handle_message(now, id, BgpMessage::Keepalive, &mut rs);
        }
    }
}
