//! The benchmark's side of the daemon's sockets: it is the participant
//! (BGP sessions, policy connection) *and* the switch (one OpenFlow
//! connection served by an agent thread), over the host's loopback
//! interface.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::adapter::{self, Applied, BgpKind, BgpStream, Mirror};

/// An operation with no ack for this long has failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the driver re-reads the daemon's completion signal: rarely
/// while the daemon is still computing (no ack yet), often once acks flow.
/// Not part of any sample: a sample ends at the agent's own timestamp of
/// the last ack.
const IDLE_POLL: Duration = Duration::from_millis(2);
const BUSY_POLL: Duration = Duration::from_micros(100);

/// One frame the agent applied and acknowledged.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// Taken when the frame is applied and its ack is about to be written.
    /// The record is queued for the driver *before* the ack goes out, so
    /// that once the daemon has seen an ack the driver has its record.
    pub at: Instant,
    pub applied: Applied,
}

/// What the agent thread hands back when the daemon closes the channel.
pub struct AgentResult {
    pub mirror: Mirror,
    /// Most rules the table ever held (base + overlays).
    pub peak_rules: usize,
    /// Most rules at priority ≥ `DELTA_BASE` ever seen (Fig. 9).
    pub peak_overlay_rules: usize,
    /// A frame that did not decode; the agent dropped the connection.
    pub undecodable: Option<String>,
}

/// The bench-owned switch agent: decodes frames with `codec::decode_frame`,
/// applies them to a mirror fabric, writes `codec::encode_ack`.
pub struct Agent {
    acks: Receiver<Ack>,
    join: JoinHandle<AgentResult>,
}

impl Agent {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Agent> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let (tx, acks) = channel::<Ack>();
        let join = std::thread::spawn(move || {
            let mut out = BufWriter::new(stream);
            let mut result = AgentResult {
                mirror: Mirror::default(),
                peak_rules: 0,
                peak_overlay_rules: 0,
                undecodable: None,
            };
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let applied = match result.mirror.apply_line(&line) {
                    Ok(a) => a,
                    Err(e) => {
                        // Unanswerable (no seq): drop the connection so the
                        // daemon's barrier fails loudly.
                        result.undecodable = Some(e);
                        break;
                    }
                };
                let ack = adapter::encode_ack(&applied);
                if tx
                    .send(Ack {
                        at: Instant::now(),
                        applied,
                    })
                    .is_err()
                {
                    break;
                }
                if out.write_all(ack.as_bytes()).is_err()
                    || out.write_all(b"\n").is_err()
                    || out.flush().is_err()
                {
                    break;
                }
                result.peak_rules = result.peak_rules.max(result.mirror.rules());
                result.peak_overlay_rules =
                    result.peak_overlay_rules.max(result.mirror.overlay_rules());
            }
            result
        });
        Ok(Agent { acks, join })
    }

    /// Waits until `done()` (the daemon's own completion signal) holds,
    /// collecting acks into `into`. Returns false when no ack arrived for
    /// [`OP_TIMEOUT`] or the agent is gone.
    pub fn await_completion(&self, into: &mut Vec<Ack>, done: impl Fn() -> bool) -> bool {
        let mut last_progress = Instant::now();
        let mut poll = IDLE_POLL;
        loop {
            match self.acks.recv_timeout(poll) {
                Ok(ack) => {
                    into.push(ack);
                    last_progress = Instant::now();
                    poll = BUSY_POLL;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return false,
            }
            if done() {
                into.extend(self.acks.try_iter());
                return true;
            }
            if last_progress.elapsed() > OP_TIMEOUT {
                return false;
            }
        }
    }

    /// Blocks for the first ack (the initial sync frame).
    pub fn first_ack(&self) -> Option<Ack> {
        self.acks.recv_timeout(Duration::from_secs(120)).ok()
    }

    /// Joins the agent thread; call after the daemon has stopped (it
    /// closes the channel, which ends the agent's read loop).
    pub fn join(self) -> AgentResult {
        self.join.join().expect("agent thread panicked")
    }
}

/// Why an operation counts as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The daemon never signalled completion, or completed without a
    /// single flow-mod frame reaching the switch.
    NoAck,
    /// The agent's table rejected a frame.
    Nack,
    /// The daemon refused the input itself (a nacked policy frame).
    Rejected,
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Latency is first byte written → the last ack the agent wrote.
    Completed {
        latency: Duration,
        frames: usize,
        mods: usize,
    },
    Failed(Failure),
}

/// The operation-completion rule, over the acks the agent recorded for
/// one operation that started at `t0`. `signalled` is whether the daemon
/// reported the pass finished before the timeout.
pub fn close_operation(t0: Instant, acks: &[Ack], signalled: bool) -> Outcome {
    if acks.iter().any(|a| !a.applied.accepted) {
        return Outcome::Failed(Failure::Nack);
    }
    let Some(last) = acks.last() else {
        return Outcome::Failed(Failure::NoAck);
    };
    if !signalled {
        return Outcome::Failed(Failure::NoAck);
    }
    Outcome::Completed {
        latency: last.at.saturating_duration_since(t0),
        frames: acks.len(),
        mods: acks.iter().map(|a| a.applied.mods).sum(),
    }
}

/// The participant's side of one BGP session: handshake, then raw
/// pre-encoded bytes. Never answers keepalives (the daemon's hold time is
/// raised instead), and stays open until dropped.
pub struct WirePeer {
    stream: TcpStream,
}

impl WirePeer {
    pub fn establish(addr: SocketAddr, asn: u32, hold_time: u16) -> std::io::Result<WirePeer> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.write_all(&adapter::open_bytes(asn, hold_time))?;
        // The daemon answers with its OPEN, then a KEEPALIVE.
        let mut decoder = BgpStream::default();
        let mut buf = [0u8; 4096];
        let mut seen = Vec::new();
        while seen.len() < 2 {
            match decoder.next_kind().map_err(std::io::Error::other)? {
                Some(kind) => seen.push(kind),
                None => {
                    let n = stream.read(&mut buf)?;
                    if n == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    decoder.push(&buf[..n]);
                }
            }
        }
        if seen != [BgpKind::Open, BgpKind::Keepalive] {
            return Err(std::io::Error::other(format!(
                "unexpected handshake: {seen:?}"
            )));
        }
        stream.write_all(&adapter::keepalive_bytes())?;
        Ok(WirePeer { stream })
    }

    pub fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }
}

/// The participant's policy connection: JSON-line frames, one ack line
/// back per frame.
pub struct PolicyClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl PolicyClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<PolicyClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(PolicyClient { stream, reader })
    }

    pub fn write(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// The daemon's ack for the last frame: `(seq, accepted)`.
    pub fn read_ack(&mut self) -> std::io::Result<(u64, bool)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        adapter::decode_ack(line.trim()).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(t0: Instant, after_us: u64, seq: u64, mods: usize, accepted: bool) -> Ack {
        Ack {
            at: t0 + Duration::from_micros(after_us),
            applied: Applied {
                seq,
                sync: false,
                mods,
                accepted,
                apply_ns: 1_000,
            },
        }
    }

    #[test]
    fn a_multi_frame_operation_ends_at_its_last_ack() {
        let t0 = Instant::now();
        let acks = [
            ack(t0, 300, 1, 4, true),
            ack(t0, 900, 2, 2, true),
            ack(t0, 2_500, 3, 1, true),
        ];
        assert_eq!(
            close_operation(t0, &acks, true),
            Outcome::Completed {
                latency: Duration::from_micros(2_500),
                frames: 3,
                mods: 7
            }
        );
    }

    #[test]
    fn a_silent_operation_fails() {
        let t0 = Instant::now();
        // The daemon finished the pass but nothing reached the switch.
        assert_eq!(
            close_operation(t0, &[], true),
            Outcome::Failed(Failure::NoAck)
        );
        // Nothing at all within the timeout.
        assert_eq!(
            close_operation(t0, &[], false),
            Outcome::Failed(Failure::NoAck)
        );
        // Acks trickled in but the daemon never finished the pass.
        let acks = [ack(t0, 100, 1, 1, true)];
        assert_eq!(
            close_operation(t0, &acks, false),
            Outcome::Failed(Failure::NoAck)
        );
    }

    #[test]
    fn a_nacked_frame_fails_the_operation() {
        let t0 = Instant::now();
        let acks = [ack(t0, 100, 1, 3, true), ack(t0, 200, 2, 3, false)];
        assert_eq!(
            close_operation(t0, &acks, true),
            Outcome::Failed(Failure::Nack)
        );
    }
}
