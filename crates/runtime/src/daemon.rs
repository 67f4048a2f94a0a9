//! `sdxd`: the event-driven SDX daemon.
//!
//! This module turns the in-process controller stack into a long-running
//! process speaking four plain-TCP endpoints on loopback:
//!
//! * **BGP** — participants' border routers connect and run real BGP
//!   sessions: wire-framed OPEN/KEEPALIVE/UPDATE/NOTIFICATION over
//!   partial reads ([`sdx_bgp::wire::StreamDecoder`]), supervised for
//!   hold-timer expiry, keepalive cadence, and flap damping
//!   ([`Supervisor`]). A session starts when its peer connects; a
//!   NOTIFICATION either way closes the connection, and the daemon never
//!   dials out.
//! * **OpenFlow** — switch agents connect and receive the controller's
//!   [`FlowModBatch`] stream over per-switch channels with a bound on
//!   unacked frames ([`crate::channel`]). Every update — a route burst's
//!   overlay, a policy push, an operator re-optimization — is one pass:
//!   it fans out wave by wave through the controller's per-wave commit
//!   hook, its barrier held across the whole fleet; a pass that fails,
//!   whether a switch rejected a wave or not, is rolled back, and every
//!   agent is resynced to the driving table.
//! * **Telemetry** — any connection receives one JSON dump of the
//!   metrics registry + journal and is closed: `nc host port | jq`.
//! * **Policy** — participants push JSON-line policy frames (DSL
//!   bodies, [`codec::decode_policy_frame`]) and read one ack line back
//!   per frame.
//!
//! ## Threading model
//!
//! One thread per socket, blocked on it — no reactor, no polling timer,
//! no dependencies. An acceptor per listener blocks in `accept`, a reader
//! per BGP peer and per policy client blocks in `read`, and they funnel
//! typed `Input`s into one `mpsc` queue. A single event-loop thread
//! owns *all* mutable state (controller, fabric, supervisor, switch
//! channels) and does every write, switch frames included, so the
//! control plane needs no locks at all.
//!
//! ## Burst coalescing
//!
//! The event loop drains every queued BGP update and policy frame before
//! compiling — the whole backlog, stopping only at an empty queue or at
//! an input of another kind: N near-simultaneous updates fold into
//! **one** delta compile over the union of their changed prefixes
//! (journalled as `burst_coalesced`). There is no cap: a pass is whatever
//! arrived while the last pass ran, so under overload the queue grows,
//! passes get bigger, and the coalescing ratio — not the latency tail —
//! absorbs the load. A table dump of 1 024 UPDATEs takes two passes.
//!
//! ## Shutdown
//!
//! [`DaemonHandle::stop`] enqueues a final input. The loop drains a
//! bounded number of already-queued updates and policy frames (each
//! frame acked) and shuts down any connection queued behind it, and
//! compiles them through one last pass, which takes its OpenFlow barriers
//! like every pass (a wave in flight always reaches its barrier — never
//! mid-wave); it then journals
//! `daemon_stopped`, closes the switch channels and exits. `stop` then
//! wakes each acceptor with one connection; the acceptor shuts down every
//! socket it accepted, which ends that socket's reader, and joins the
//! readers. When `stop` returns every thread the daemon spawned has been
//! joined: each client reads EOF (a policy client after its last ack) and
//! the endpoints refuse connections.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdx_bgp::msg::BgpMessage;
use sdx_bgp::wire::{self, StreamDecoder};
use sdx_bgp::{Clock, OpenMessage, Supervisor, SupervisorConfig, SupervisorOutput, SystemClock};
use sdx_core::{Change, SdxController, SdxError, Waves};
use sdx_net::{Asn, ParticipantId, Prefix, RouterId};
use sdx_openflow::{Fabric, FlowModBatch};
use sdx_telemetry::{Counter, Event, SharedRegistry};

use crate::channel::FlowChannel;
use crate::codec;

/// What a daemon instance is told: `sdxd --hold` sets it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DaemonConfig {
    /// Hold time we offer in our OPEN, seconds.
    pub hold_time: u16,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig { hold_time: 90 }
    }
}

/// Supervisor tick cadence (keepalives, hold timers, flap-penalty decay).
const TICK: Duration = Duration::from_millis(50);

/// Per-switch bound on unacked frames (a send past it reads acks first).
const CHANNEL_QUEUE: usize = 32;

/// Bound on queued messages processed during shutdown drain.
const DRAIN_MAX: usize = 256;

/// What the daemon did, returned by [`DaemonHandle::stop`]. Carries the
/// controller and fabric back out so tests can oracle-verify the final
/// deployed state against an in-process reference.
pub struct DaemonReport {
    /// BGP UPDATE messages processed.
    pub updates: u64,
    /// Delta compiles run (updates / compiles = coalescing ratio).
    pub compiles: u64,
    /// Compile passes that folded more than one update.
    pub coalesced_bursts: u64,
    /// Flow-mod batches streamed to switch channels.
    pub batches_streamed: u64,
    /// Policy frames received (wire + in-process).
    pub policy_frames: u64,
    /// The controller, in its final state.
    pub ctl: SdxController,
    /// The daemon's driving fabric, in its final state.
    pub fabric: Fabric,
}

/// A running daemon: the four bound endpoints plus control methods.
pub struct DaemonHandle {
    /// Where BGP peers connect.
    pub bgp_addr: SocketAddr,
    /// Where OpenFlow switch agents connect.
    pub openflow_addr: SocketAddr,
    /// Where telemetry snapshots are served.
    pub telemetry_addr: SocketAddr,
    /// Where participants push policy frames (JSON lines, acked).
    pub policy_addr: SocketAddr,
    reg: SharedRegistry,
    tx: Sender<Input>,
    /// Up once the event loop has exited: the acceptors' next connection
    /// is their last.
    stop: Arc<AtomicBool>,
    event_loop: JoinHandle<DaemonReport>,
    acceptors: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's metrics registry (shared; live while it runs).
    pub fn telemetry(&self) -> &SharedRegistry {
        &self.reg
    }

    /// Asks the event loop to run a re-optimization in dependency-ordered
    /// waves: each wave is streamed to every connected switch behind a
    /// fleet barrier, and a pass that fails is rolled back and every
    /// switch resynced to the driving table.
    pub fn reoptimize(&self) {
        let _ = self.tx.send(Input::Reoptimize);
    }

    /// Stops the daemon: bounded drain of queued updates, one final pass,
    /// all channel barriers taken, `daemon_stopped` journalled; then every
    /// accepted socket is shut down and every thread the daemon spawned
    /// joined. Returns the event loop's report.
    pub fn stop(self) -> DaemonReport {
        let _ = self.tx.send(Input::Stop);
        let report = self.event_loop.join().expect("daemon event loop panicked");
        self.stop.store(true, Ordering::SeqCst);
        for addr in [
            self.bgp_addr,
            self.openflow_addr,
            self.telemetry_addr,
            self.policy_addr,
        ] {
            // The wake-up: an acceptor that has already ended refuses it.
            let _ = TcpStream::connect(addr);
        }
        for acceptor in self.acceptors {
            acceptor.join().expect("daemon acceptor panicked");
        }
        report
    }
}

/// Starts a daemon around `ctl` with the system clock. Deploys the
/// controller, binds the four loopback endpoints, and spawns the
/// service threads; returns once all four listeners are live.
pub fn start(ctl: SdxController, cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
    start_with_clock(ctl, cfg, Arc::new(SystemClock::new()))
}

/// [`start`], but with an injected [`Clock`] — tests drive hold timers
/// and flap damping deterministically with a `MockClock`.
pub fn start_with_clock(
    mut ctl: SdxController,
    cfg: DaemonConfig,
    clock: Arc<dyn Clock>,
) -> std::io::Result<DaemonHandle> {
    let reg = ctl.telemetry.clone();
    let fabric = ctl
        .deploy()
        .map_err(|e| std::io::Error::other(format!("deploy failed: {e}")))?;

    let mut sup = Supervisor::new(SupervisorConfig::default(), 0).with_telemetry(reg.clone());
    let now = clock.now_ms();
    let peers: Vec<(ParticipantId, Asn)> = ctl
        .compiler
        .participants()
        .values()
        .map(|c| (c.id, c.asn))
        .collect();
    for &(id, _) in &peers {
        let local = OpenMessage {
            version: 4,
            asn: Asn(64512), // the route server's private ASN
            hold_time: cfg.hold_time,
            router_id: RouterId(64512),
        };
        sup.add_peer(id, local, now);
    }

    let bgp = TcpListener::bind("127.0.0.1:0")?;
    let openflow = TcpListener::bind("127.0.0.1:0")?;
    let telemetry = TcpListener::bind("127.0.0.1:0")?;
    let policy = TcpListener::bind("127.0.0.1:0")?;
    let bgp_addr = bgp.local_addr()?;
    let openflow_addr = openflow.local_addr()?;
    let telemetry_addr = telemetry.local_addr()?;
    let policy_addr = policy.local_addr()?;

    let (tx, rx) = std::sync::mpsc::channel::<Input>();
    let stop = Arc::new(AtomicBool::new(false));

    // Reader-side counts — bumped before the input is queued, so against
    // `daemon.updates.count` / `daemon.policy_frames.count` they say how
    // much is waiting for the event loop.
    let bgp_read = reg.counter("daemon.bgp_read.count");
    let policy_read = reg.counter("daemon.policy_read.count");
    let acceptors = vec![
        spawn_bgp_acceptor(bgp, tx.clone(), stop.clone(), bgp_read),
        spawn_openflow_acceptor(openflow, tx.clone(), stop.clone()),
        spawn_telemetry_server(telemetry, reg.clone(), stop.clone()),
        spawn_policy_acceptor(policy, tx.clone(), stop.clone(), policy_read),
    ];

    reg.record_event(Event::DaemonStarted {
        peers: peers.len(),
        switches: 0,
    });

    let asn_to_pid: BTreeMap<u32, ParticipantId> =
        peers.iter().map(|&(id, asn)| (asn.0, id)).collect();
    let core = EventLoop {
        clock,
        reg: reg.clone(),
        ctl,
        fabric,
        sup,
        rx,
        asn_to_pid,
        unresolved: BTreeMap::new(),
        conn_pid: BTreeMap::new(),
        pid_conn: BTreeMap::new(),
        writers: BTreeMap::new(),
        channels: Vec::new(),
        next_channel: 0,
        last_epoch: 0,
        updates: 0,
        compiles: 0,
        coalesced_bursts: 0,
        batches_streamed: 0,
        policy_frames: 0,
    };
    let event_loop = std::thread::spawn(move || core.run());
    Ok(DaemonHandle {
        bgp_addr,
        openflow_addr,
        telemetry_addr,
        policy_addr,
        reg,
        tx,
        stop,
        event_loop,
        acceptors,
    })
}

type ConnId = u64;

enum Input {
    PeerConnected {
        conn: ConnId,
        writer: TcpStream,
    },
    PeerMsg {
        conn: ConnId,
        msg: BgpMessage,
        at: Instant,
    },
    PeerClosed {
        conn: ConnId,
    },
    SwitchConnected {
        stream: TcpStream,
    },
    /// One policy frame line from the policy endpoint, with where to
    /// write its ack. Decoded, DSL-parsed, and validated by the event
    /// loop — the only thread holding the participant book.
    PolicyFrame {
        line: String,
        writer: TcpStream,
    },
    Reoptimize,
    Stop,
}

/// The accept loop all four listeners share. It blocks in `accept` and
/// hands each connection to `serve`, keeping a clone of every socket whose
/// reader thread `serve` started. The first connection after the stop
/// flag is up ends it ([`DaemonHandle::stop`] makes that connection); it
/// then shuts each kept socket down, which ends its reader, and joins the
/// readers.
fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    mut serve: impl FnMut(TcpStream) -> Option<JoinHandle<()>> + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut readers: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let _ = stream.set_nodelay(true);
            // A reader whose peer hung up has ended: keep only live ones.
            for (_, ended) in readers.extract_if(.., |(_, r)| r.is_finished()) {
                ended.join().expect("daemon reader panicked");
            }
            let Ok(socket) = stream.try_clone() else {
                continue;
            };
            if let Some(reader) = serve(stream) {
                readers.push((socket, reader));
            }
        }
        for (socket, reader) in readers {
            let _ = socket.shutdown(Shutdown::Both);
            reader.join().expect("daemon reader panicked");
        }
    })
}

fn spawn_bgp_acceptor(
    listener: TcpListener,
    tx: Sender<Input>,
    stop: Arc<AtomicBool>,
    read: Arc<Counter>,
) -> JoinHandle<()> {
    let mut next_conn: ConnId = 0;
    spawn_acceptor(listener, stop, move |stream| {
        let conn = next_conn;
        next_conn += 1;
        let writer = stream.try_clone().ok()?;
        tx.send(Input::PeerConnected { conn, writer }).ok()?;
        Some(spawn_bgp_reader(conn, stream, tx.clone(), read.clone()))
    })
}

/// Per-peer reader: reassembles wire frames across arbitrary TCP
/// segmentation and forwards decoded messages, stamped with their
/// arrival instant (the update→flow-mod latency clock starts here).
/// It ends with its socket: the peer hangs up, or the event loop or the
/// acceptor shuts the socket down.
fn spawn_bgp_reader(
    conn: ConnId,
    mut stream: TcpStream,
    tx: Sender<Input>,
    read: Arc<Counter>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut dec = StreamDecoder::new();
        let mut buf = [0u8; 4096];
        'read: while let Ok(n @ 1..) = stream.read(&mut buf) {
            dec.push(&buf[..n]);
            loop {
                match dec.next() {
                    Ok(Some(msg)) => {
                        let at = Instant::now();
                        read.inc();
                        if tx.send(Input::PeerMsg { conn, msg, at }).is_err() {
                            return;
                        }
                    }
                    Ok(None) => break,
                    // Framing is poisoned (bad marker/length): the
                    // transport is garbage, drop it. The event loop
                    // sees a TCP reset and flap-accounts it.
                    Err(_) => {
                        let _ = stream.shutdown(Shutdown::Both);
                        break 'read;
                    }
                }
            }
        }
        let _ = tx.send(Input::PeerClosed { conn });
    })
}

/// A switch's socket goes to the event loop, which owns its channel and
/// closes it.
fn spawn_openflow_acceptor(
    listener: TcpListener,
    tx: Sender<Input>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    spawn_acceptor(listener, stop, move |stream| {
        let _ = tx.send(Input::SwitchConnected { stream });
        None
    })
}

/// Policy endpoint: participants push JSON-line policy frames and read
/// one ack line back per frame. Policy updates deliberately do NOT ride
/// the binary BGP socket — they are a control-plane input of their own,
/// with their own framing, validation, and acks.
fn spawn_policy_acceptor(
    listener: TcpListener,
    tx: Sender<Input>,
    stop: Arc<AtomicBool>,
    read: Arc<Counter>,
) -> JoinHandle<()> {
    spawn_acceptor(listener, stop, move |stream| {
        Some(spawn_policy_reader(stream, tx.clone(), read.clone()))
    })
}

/// Longest policy frame line the daemon buffers, newline excluded. The
/// line is the one length on this socket that the peer alone decides.
const MAX_POLICY_LINE: usize = 1 << 20;

/// Per-connection policy reader: forwards each line with a writer clone
/// so the event loop can ack after staging (or nack with the typed
/// rejection). A line longer than [`MAX_POLICY_LINE`] is never buffered
/// whole: it earns a seq-0 nack and the connection is closed. Like the
/// BGP reader it ends with its socket; EOF forwards what is left of a
/// last, unterminated line.
fn spawn_policy_reader(stream: TcpStream, tx: Sender<Input>, read: Arc<Counter>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(&stream);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            let mut bounded = (&mut lines).take(MAX_POLICY_LINE as u64 + 1);
            if !matches!(bounded.read_until(b'\n', &mut buf), Ok(1..)) {
                return;
            }
            if buf.len() > MAX_POLICY_LINE && !buf.ends_with(b"\n") {
                write_policy_ack(&stream, 0, Err("policy frame line too long"));
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            // Not UTF-8 is one more way of not being a frame: the decoder
            // nacks it like any other garbage.
            let line = String::from_utf8_lossy(&buf).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            read.inc();
            if tx.send(Input::PolicyFrame { line, writer }).is_err() {
                return;
            }
        }
    })
}

/// One ack line for a policy frame. A writer that has gone away is its
/// own problem: the frame's fate does not depend on the ack arriving.
fn write_policy_ack(mut w: &TcpStream, seq: u64, result: Result<(), &str>) {
    let _ = w.write_all(format!("{}\n", codec::encode_ack(seq, result)).as_bytes());
}

/// One telemetry snapshot (registry + journal, as JSON) per connection,
/// then close — the simplest possible pull protocol.
fn spawn_telemetry_server(
    listener: TcpListener,
    reg: SharedRegistry,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    spawn_acceptor(listener, stop, move |mut stream| {
        let body = reg.snapshot().to_json_string();
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.write_all(b"\n");
        let _ = stream.shutdown(Shutdown::Both);
        None
    })
}

struct EventLoop {
    clock: Arc<dyn Clock>,
    reg: SharedRegistry,
    ctl: SdxController,
    fabric: Fabric,
    sup: Supervisor,
    rx: Receiver<Input>,
    asn_to_pid: BTreeMap<u32, ParticipantId>,
    /// Accepted BGP connections that have not yet sent their OPEN.
    unresolved: BTreeMap<ConnId, TcpStream>,
    conn_pid: BTreeMap<ConnId, ParticipantId>,
    pid_conn: BTreeMap<ParticipantId, ConnId>,
    writers: BTreeMap<ParticipantId, TcpStream>,
    channels: Vec<FlowChannel>,
    next_channel: usize,
    last_epoch: u64,
    updates: u64,
    compiles: u64,
    coalesced_bursts: u64,
    batches_streamed: u64,
    policy_frames: u64,
}

impl EventLoop {
    /// Publishes the deployed table's compiled-matcher stats as gauges, so
    /// the telemetry endpoint reports data-plane health (table shape,
    /// index sizes, hit distribution) alongside the control-plane
    /// counters. Called at startup and as the last step of every pass.
    fn publish_matcher_stats(&self) {
        let table = self.fabric.switch.table();
        let s = table.matcher_stats();
        self.reg
            .set_gauge("dataplane.table.entries", table.len() as i64);
        self.reg
            .set_gauge("dataplane.matcher.epoch", s.epoch as i64);
        self.reg
            .set_gauge("dataplane.matcher.exact.keys", s.exact_keys as i64);
        self.reg
            .set_gauge("dataplane.matcher.exact.entries", s.exact_entries as i64);
        self.reg.set_gauge(
            "dataplane.matcher.residual.entries",
            s.residual_entries as i64,
        );
        self.reg
            .set_gauge("dataplane.matcher.builds", s.builds as i64);
        self.reg
            .set_gauge("dataplane.matcher.approx_bytes", s.approx_bytes as i64);
        self.reg
            .set_gauge("dataplane.matcher.exact.hit.count", s.exact_hits as i64);
        self.reg.set_gauge(
            "dataplane.matcher.residual.hit.count",
            s.residual_hits as i64,
        );
    }

    fn run(mut self) -> DaemonReport {
        self.publish_matcher_stats();
        // The input that ended the last drain, served before the queue.
        let mut next: Option<Input> = None;
        let mut last_tick = Instant::now();
        loop {
            let input = if let Some(i) = next.take() {
                i
            } else {
                match self.rx.recv_timeout(TICK) {
                    Ok(i) => i,
                    Err(RecvTimeoutError::Timeout) => {
                        self.tick();
                        last_tick = Instant::now();
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            match input {
                Input::PeerConnected { conn, writer } => {
                    self.unresolved.insert(conn, writer);
                }
                Input::PeerMsg { conn, msg, at } => {
                    // Coalesce: fold every already-queued message —
                    // route updates AND policy frames — into this pass
                    // before compiling once.
                    let mut msgs = vec![(conn, msg, at)];
                    let mut frames = Vec::new();
                    next = self.drain(usize::MAX, &mut msgs, &mut frames);
                    self.handle_burst(msgs, frames);
                }
                Input::PolicyFrame { line, writer } => {
                    let mut msgs = Vec::new();
                    let mut frames = vec![(line, writer)];
                    next = self.drain(usize::MAX, &mut msgs, &mut frames);
                    self.handle_burst(msgs, frames);
                }
                Input::PeerClosed { conn } => self.handle_peer_closed(conn),
                Input::SwitchConnected { stream } => self.handle_switch_connected(stream),
                Input::Reoptimize => self.pass(Change::Recompile(Waves::Ordered), Vec::new()),
                Input::Stop => {
                    self.shutdown_drain();
                    break;
                }
            }
            // Starvation guard: a continuous message stream must not
            // stop keepalives or hold-timer checks.
            if last_tick.elapsed() >= TICK {
                self.tick();
                last_tick = Instant::now();
            }
        }
        self.reg.record_event(Event::DaemonStopped {
            updates: self.updates,
            compiles: self.compiles,
        });
        // The acceptors shut down the BGP and policy sockets (see `stop`).
        for ch in std::mem::take(&mut self.channels) {
            ch.close();
        }
        DaemonReport {
            updates: self.updates,
            compiles: self.compiles,
            coalesced_bursts: self.coalesced_bursts,
            batches_streamed: self.batches_streamed,
            policy_frames: self.policy_frames,
            ctl: self.ctl,
            fabric: self.fabric,
        }
    }

    fn tick(&mut self) {
        let now = self.clock.now_ms();
        let out = self.sup.tick(now, &mut self.ctl.rs);
        self.dispatch(out);
    }

    /// Sends a supervisor output's messages and compiles its changed
    /// prefixes through one fast-path pass.
    fn dispatch(&mut self, out: SupervisorOutput) {
        self.send_msgs(out.send);
        let changed: BTreeSet<Prefix> = out.changed_prefixes.into_iter().collect();
        self.compile(changed, 0, 0, Vec::new());
    }

    /// Folds queued route updates and policy frames into one pass until
    /// the queue is empty, another kind of input is next — which it
    /// returns — or `max` are taken (a bound only the shutdown drain sets;
    /// a live pass takes the whole backlog).
    fn drain(
        &mut self,
        max: usize,
        msgs: &mut Vec<(ConnId, BgpMessage, Instant)>,
        frames: &mut Vec<(String, TcpStream)>,
    ) -> Option<Input> {
        while msgs.len() + frames.len() < max {
            match self.rx.try_recv() {
                Ok(Input::PeerMsg { conn, msg, at }) => msgs.push((conn, msg, at)),
                Ok(Input::PolicyFrame { line, writer }) => frames.push((line, writer)),
                Ok(other) => return Some(other),
                Err(_) => break,
            }
        }
        None
    }

    /// One coalesced pass: ingest the BGP messages, stage the policy
    /// frames, then compile once.
    fn handle_burst(
        &mut self,
        msgs: Vec<(ConnId, BgpMessage, Instant)>,
        frames: Vec<(String, TcpStream)>,
    ) {
        let (changed, n_updates, arrivals) = self.ingest_peer_msgs(msgs);
        let staged = self.stage_policy_frames(frames);
        self.compile(changed, n_updates, staged, arrivals);
    }

    /// Compiles what a burst changed — `staged` policy deltas, `changed`
    /// prefixes — through one [`pass`](Self::pass). Staged policy takes
    /// the recompile (the editors' signature maps rebuilt, every other
    /// viewer's patched at the burst's dirty prefixes), which subsumes any
    /// route dirt from the same burst; a route-only burst takes the fast
    /// path over the union of its changed prefixes.
    fn compile(
        &mut self,
        changed: BTreeSet<Prefix>,
        n_updates: usize,
        staged: u64,
        arrivals: Vec<Instant>,
    ) {
        if staged == 0 && changed.is_empty() {
            return;
        }
        self.compiles += 1;
        self.reg.inc("daemon.compiles.count");
        if staged > 0 {
            if n_updates > 0 {
                self.coalesced_bursts += 1;
                self.reg.record_event(Event::Custom {
                    name: "policy_coalesced_with_burst".to_string(),
                    detail: format!(
                        "{staged} policy delta(s) compiled with {n_updates} route update(s), \
                         {} changed prefix(es)",
                        changed.len()
                    ),
                });
            }
            return self.pass(Change::Recompile(Waves::Atomic), arrivals);
        }
        let prefixes: Vec<Prefix> = changed.into_iter().collect();
        if n_updates > 1 {
            self.coalesced_bursts += 1;
            self.reg.record_event(Event::BurstCoalesced {
                updates: n_updates,
                prefixes: prefixes.len(),
            });
        }
        self.reg
            .observe("daemon.coalesce.updates", n_updates.max(1) as u64);
        self.pass(Change::Burst(&prefixes), arrivals);
    }

    /// Stages every policy frame of a burst into the controller's book
    /// (validated, journaled, acked per frame). Returns how many staged.
    fn stage_policy_frames(&mut self, frames: Vec<(String, TcpStream)>) -> u64 {
        if frames.is_empty() {
            return 0;
        }
        let book: BTreeMap<ParticipantId, Vec<u8>> = self
            .ctl
            .compiler
            .participants()
            .iter()
            .map(|(&p, c)| (p, c.ports.iter().map(|pt| pt.index).collect()))
            .collect();
        let mut staged = 0u64;
        for (line, writer) in frames {
            self.policy_frames += 1;
            self.reg.inc("daemon.policy_frames.count");
            let outcome = self.stage_one_policy_line(&line, &book);
            let (seq, result) = match &outcome {
                Ok(seq) => (*seq, Ok(())),
                Err((seq, e)) => (*seq, Err(e.as_str())),
            };
            if let Err((_, e)) = &outcome {
                self.reg.inc("daemon.policy_rejected.count");
                self.reg.record_event(Event::Custom {
                    name: "policy_frame_rejected".to_string(),
                    detail: e.clone(),
                });
            } else {
                staged += 1;
            }
            write_policy_ack(&writer, seq, result);
        }
        staged
    }

    /// Decodes, DSL-parses, and stages one policy frame line. The typed
    /// failure carries the frame's seq (0 if undecodable) for the nack.
    fn stage_one_policy_line(
        &mut self,
        line: &str,
        book: &BTreeMap<ParticipantId, Vec<u8>>,
    ) -> Result<u64, (u64, String)> {
        use sdx_policy::{parse_policy, PolicyDelta, PolicyDeltaOp, PolicyOp};
        let (seq, ops) = codec::decode_policy_frame(line).map_err(|e| (0, e.to_string()))?;
        let mut delta = PolicyDelta::new();
        for op in ops {
            let policy = match &op.policy {
                Some(dsl) => {
                    let resolver = sdx_core::vswitch::resolver_for(op.participant, book);
                    Some(parse_policy(dsl, &resolver).map_err(|e| (seq, e.to_string()))?)
                }
                None => None,
            };
            delta.ops.push(PolicyDeltaOp {
                participant: op.participant,
                scope: op.scope,
                op: match (op.op.as_str(), policy) {
                    ("retract", _) => PolicyOp::Retract,
                    ("install", Some(p)) => PolicyOp::Install(p),
                    ("replace", Some(p)) => PolicyOp::Replace(p),
                    // decode_policy_frame guarantees op kind and body shape.
                    _ => unreachable!("codec admitted a malformed policy op"),
                },
            });
        }
        self.ctl
            .stage_policy_delta(&delta)
            .map_err(|e| (seq, e.to_string()))?;
        Ok(seq)
    }

    /// BGP ingestion only: answers protocol messages and returns the
    /// changed prefixes for the caller to compile.
    fn ingest_peer_msgs(
        &mut self,
        msgs: Vec<(ConnId, BgpMessage, Instant)>,
    ) -> (BTreeSet<Prefix>, usize, Vec<Instant>) {
        let now = self.clock.now_ms();
        let mut changed: BTreeSet<Prefix> = BTreeSet::new();
        let mut sends: Vec<(ParticipantId, BgpMessage)> = Vec::new();
        let mut n_updates = 0usize;
        let mut arrivals: Vec<Instant> = Vec::new();
        let updates = self.reg.counter("daemon.updates.count");
        for (conn, msg, at) in msgs {
            let out = if let Some(&pid) = self.conn_pid.get(&conn) {
                if matches!(msg, BgpMessage::Update(_)) {
                    n_updates += 1;
                    arrivals.push(at);
                    self.updates += 1;
                    updates.inc();
                }
                self.sup.handle_message(now, pid, msg, &mut self.ctl.rs)
            } else if let BgpMessage::Open(open) = msg {
                self.resolve_peer(conn, open, now)
            } else {
                // Protocol violation: traffic before OPEN on an
                // unresolved connection. Drop the transport.
                if let Some(stream) = self.unresolved.remove(&conn) {
                    self.reg.inc("daemon.preopen_garbage.count");
                    let _ = stream.shutdown(Shutdown::Both);
                }
                continue;
            };
            sends.extend(out.send);
            changed.extend(out.changed_prefixes);
            if !out.resets.is_empty() {
                // RFC 4271: a NOTIFICATION, received or sent, closes the
                // connection. Write this step's answers, then hang up the
                // connection the message came on, not the peer: a later
                // transport of the peer is not this session's.
                self.send_msgs(std::mem::take(&mut sends));
                if let Some(&pid) = self.conn_pid.get(&conn) {
                    self.hang_up(pid);
                }
            }
        }
        self.send_msgs(sends);
        (changed, n_updates, arrivals)
    }

    /// First OPEN on a new connection: map it to a participant by ASN
    /// and splice the transport into the supervised session. The output's
    /// `resets` are the OPEN's own: a session reset by `connection_up` was
    /// of the transport hung up here.
    fn resolve_peer(&mut self, conn: ConnId, open: OpenMessage, now: u64) -> SupervisorOutput {
        let Some(stream) = self.unresolved.remove(&conn) else {
            return SupervisorOutput::default();
        };
        let Some(&pid) = self.asn_to_pid.get(&open.asn.0) else {
            self.reg.inc("daemon.unknown_peer.count");
            let _ = stream.shutdown(Shutdown::Both);
            return SupervisorOutput::default();
        };
        // A reconnect replaces any previous transport for this peer; the
        // supervisor's `connection_up` accounts for the old session.
        self.hang_up(pid);
        self.pid_conn.insert(pid, conn);
        self.conn_pid.insert(conn, pid);
        self.writers.insert(pid, stream);
        let mut up = self.sup.connection_up(now, pid, &mut self.ctl.rs);
        let stepped = self
            .sup
            .handle_message(now, pid, BgpMessage::Open(open), &mut self.ctl.rs);
        up.send.extend(stepped.send);
        up.changed_prefixes.extend(stepped.changed_prefixes);
        up.resets = stepped.resets;
        up
    }

    fn handle_peer_closed(&mut self, conn: ConnId) {
        if self.unresolved.remove(&conn).is_some() {
            return;
        }
        // A connection the daemon hung up on (replaced, or closed after a
        // NOTIFICATION either way) is no peer's transport any more: its
        // session was accounted for when it was let go.
        let Some(&pid) = self.conn_pid.get(&conn) else {
            return;
        };
        self.hang_up(pid);
        let now = self.clock.now_ms();
        let out = self.sup.peer_disconnected(now, pid, &mut self.ctl.rs);
        self.dispatch(out);
    }

    /// Shuts the peer's transport down and forgets it, so its reader ends.
    fn hang_up(&mut self, pid: ParticipantId) {
        if let Some(conn) = self.pid_conn.remove(&pid) {
            self.conn_pid.remove(&conn);
        }
        if let Some(w) = self.writers.remove(&pid) {
            let _ = w.shutdown(Shutdown::Both);
        }
    }

    fn send_msgs(&mut self, msgs: Vec<(ParticipantId, BgpMessage)>) {
        for (pid, msg) in msgs {
            let Some(mut w) = self.writers.get(&pid) else {
                continue; // no live transport; the FSM will re-offer
            };
            // A failed write needs nothing here: the reader thread sees
            // the dead transport and reports PeerClosed.
            let _ = w.write_all(&wire::encode(&msg));
            if matches!(msg, BgpMessage::Notification { .. }) {
                // RFC 4271: the connection closes right after a
                // NOTIFICATION. The session is already down.
                self.hang_up(pid);
            }
        }
    }

    /// The pass that carried these UPDATEs has its flow-mods acked.
    fn observe_flushed(&self, arrivals: Vec<Instant>) {
        if arrivals.is_empty() {
            return;
        }
        let flushed = self.reg.histogram("daemon.update_to_flowmod_us");
        for at in arrivals {
            flushed.record(at.elapsed().as_micros() as u64);
        }
    }

    /// A switch agent connected: bring its empty table up to the current
    /// image with one sync frame, then admit it to the fleet.
    fn handle_switch_connected(&mut self, stream: TcpStream) {
        let id = self.next_channel;
        self.next_channel += 1;
        let Ok(mut ch) = FlowChannel::new(id, stream, CHANNEL_QUEUE, self.reg.clone()) else {
            return;
        };
        let image = codec::sync_batch(self.fabric.switch.table(), self.last_epoch);
        if ch.send_sync(&image).is_err() || ch.barrier().is_err() {
            self.reg.inc("daemon.channel_lost.count");
            ch.close();
            return;
        }
        self.reg.inc("daemon.switch_connected.count");
        self.channels.push(ch);
    }

    /// Puts every agent on exactly the driving fabric's table with one
    /// sync frame each, barrier taken. A channel that fails either is
    /// dropped.
    fn sync_agents(&mut self) {
        let image = codec::sync_batch(self.fabric.switch.table(), self.last_epoch);
        let mut dead: Vec<usize> = (0..self.channels.len())
            .filter(|&i| self.channels[i].send_sync(&image).is_err())
            .collect();
        for (i, ch) in self.channels.iter_mut().enumerate() {
            if !dead.contains(&i) && ch.barrier().is_err() {
                dead.push(i);
            }
        }
        dead.sort_unstable();
        for i in dead.into_iter().rev() {
            let ch = self.channels.remove(i);
            self.reg.inc("daemon.channel_lost.count");
            ch.close();
        }
    }

    /// The one update pass, for a route burst, a coalesced burst that
    /// staged policy and an operator re-optimization alike: prepare the
    /// change through the controller, retire the overlays on the agents if
    /// it retired them locally, and commit, the commit hook fanning each
    /// wave out to the channel fleet behind a barrier. A channel lost on
    /// the retirement sync is dropped and the pass goes on; the pass fails
    /// only when the commit does, and then the driving fabric is rolled
    /// back and every agent put back on its table.
    fn pass(&mut self, change: Change<'_>, arrivals: Vec<Instant>) {
        let failed = match change {
            Change::Burst(_) => "daemon.fastpath_failed.count",
            Change::Recompile(_) => "daemon.reoptimize_failed.count",
        };
        let had_overlays = self.ctl.delta_layers() > 0;
        let Ok(prepared) = self.ctl.prepare(&mut self.fabric, change) else {
            // Rolled back to the pre-call state; agents untouched. The RIB
            // and any staged policy keep the change, and the next
            // successful recompile converges.
            self.reg.inc(failed);
            return;
        };
        // From here on the agents are brought to this update's table.
        self.last_epoch = prepared.plan.epoch;
        // A recompile's staging retired every fast-path overlay from the
        // local table, outside the flow-mod protocol (so in no wave the
        // hook carries). Agents take the same step as a sync frame of the
        // post-retirement table — identical end state, and O(base) instead
        // of one delete per retired overlay rule, which matters after a
        // long burst run.
        if had_overlays && self.ctl.delta_layers() == 0 {
            self.sync_agents();
        }
        let (channels, reg, streamed) = (&mut self.channels, &self.reg, &mut self.batches_streamed);
        let mut hook = |_: &SdxController, _: &Fabric, wave: usize, batch: &FlowModBatch| {
            *streamed += 1;
            reg.inc("daemon.batches_streamed.count");
            fan_out(channels, reg, wave, batch)
        };
        let outcome = self.ctl.commit(&mut self.fabric, prepared, Some(&mut hook));
        if outcome.is_err() {
            self.reg.inc(failed);
            self.reg.inc("daemon.resync.count");
            self.sync_agents();
        }
        // Published before the UPDATEs are observed: whoever waits for the
        // observations reads this pass's table epoch, not the last one's.
        self.publish_matcher_stats();
        if outcome.is_ok() {
            self.observe_flushed(arrivals);
        }
    }

    /// Bounded shutdown drain: compile what is already queued — route
    /// updates and policy frames, each frame acked — through one last
    /// pass (never abandoning an in-flight wave short of its barrier),
    /// then let `run` journal `daemon_stopped`.
    fn shutdown_drain(&mut self) {
        let mut msgs = Vec::new();
        let mut frames = Vec::new();
        while let Some(moot) = self.drain(DRAIN_MAX, &mut msgs, &mut frames) {
            // Nothing will serve a connection queued behind `Stop`;
            // closes and re-optimizations are moot.
            if let Input::PeerConnected { writer: socket, .. }
            | Input::SwitchConnected { stream: socket } = moot
            {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        // Every pass takes its barriers, so none is left outstanding.
        self.handle_burst(msgs, frames);
    }
}

/// Sends wave `wave` to every switch channel, then takes every barrier:
/// the switches apply it concurrently, and none is sent the next wave
/// before all have acked this one. The barriers are drained even after a
/// failure, so the fleet stays accounted for; the first failure is
/// returned.
fn fan_out(
    channels: &mut [FlowChannel],
    reg: &SharedRegistry,
    wave: usize,
    batch: &FlowModBatch,
) -> Result<(), SdxError> {
    let failed = |e: String| SdxError::InvalidCommit(format!("wave {wave} failed to fan out: {e}"));
    for ch in channels.iter_mut() {
        ch.send_batch(batch).map_err(failed)?;
    }
    let mut first_err = None;
    for ch in channels.iter_mut() {
        if let Err(e) = ch.barrier() {
            first_err.get_or_insert(e);
        }
    }
    reg.inc("daemon.waves_streamed.count");
    first_err.map_or(Ok(()), |e| Err(failed(e)))
}

/// A wire-level loopback BGP peer for tests and load generators: runs
/// the participant's side of the handshake on a real socket and then
/// replays UPDATE messages.
pub struct TestPeer {
    stream: TcpStream,
    dec: StreamDecoder,
    buf: Vec<u8>,
}

impl TestPeer {
    /// Connects to `addr` and completes the BGP handshake as `asn`:
    /// sends OPEN, waits for the daemon's OPEN and KEEPALIVE, answers
    /// with KEEPALIVE (driving the daemon's session to Established).
    pub fn establish(addr: SocketAddr, asn: u32, hold_time: u16) -> std::io::Result<TestPeer> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut peer = TestPeer {
            stream,
            dec: StreamDecoder::new(),
            buf: vec![0u8; 4096],
        };
        peer.send(&BgpMessage::Open(OpenMessage {
            version: 4,
            asn: Asn(asn),
            hold_time,
            router_id: RouterId(asn),
        }))?;
        // Expect our peer's OPEN then its KEEPALIVE (order guaranteed:
        // one TCP stream).
        let m1 = peer.recv()?;
        let m2 = peer.recv()?;
        if !matches!(m1, BgpMessage::Open(_)) || !matches!(m2, BgpMessage::Keepalive) {
            return Err(std::io::Error::other(format!(
                "unexpected handshake: {m1:?} then {m2:?}"
            )));
        }
        peer.send(&BgpMessage::Keepalive)?;
        Ok(peer)
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &BgpMessage) -> std::io::Result<()> {
        self.stream.write_all(&wire::encode(msg))
    }

    /// Blocks until one full message arrives.
    pub fn recv(&mut self) -> std::io::Result<BgpMessage> {
        loop {
            match self.dec.next() {
                Ok(Some(m)) => return Ok(m),
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::other(format!("wire error: {e:?}"))),
            }
            let n = std::io::Read::read(&mut self.stream, &mut self.buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                ));
            }
            self.dec.push(&self.buf[..n]);
        }
    }

    /// Closes the transport abruptly (models a TCP reset: the daemon's
    /// supervisor flap-accounts it).
    pub fn drop_connection(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{spawn_agent, AgentHandle};
    use sdx_net::{FieldMatch, HeaderMatch};
    use sdx_openflow::flowmod::FlowMod;
    use sdx_openflow::table::FlowEntry;

    #[test]
    fn fan_out_sends_a_wave_to_every_agent() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let agents: Vec<AgentHandle> = (0..3)
            .map(|_| spawn_agent(addr).expect("connect"))
            .collect();
        let reg = SharedRegistry::new();
        let mut channels: Vec<FlowChannel> = (0..3)
            .map(|i| {
                let (stream, _) = listener.accept().expect("accept");
                FlowChannel::new(i, stream, 4, reg.clone()).expect("channel")
            })
            .collect();
        let mut b = FlowModBatch::new(1);
        b.push(FlowMod::Add(FlowEntry::new(
            10,
            HeaderMatch::of(FieldMatch::TpDst(80)),
            vec![vec![]],
        )));
        fan_out(&mut channels, &reg, 0, &b).expect("wave applies everywhere");
        for ch in channels {
            ch.close();
        }
        for agent in agents {
            assert_eq!(agent.join().switch.table().len(), 1);
        }
        assert_eq!(reg.counter("daemon.waves_streamed.count").get(), 1);
    }
}
