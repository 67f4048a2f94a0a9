//! Per-switch OpenFlow channels: a bound on unacked frames, explicit
//! backpressure, and ack barriers.
//!
//! Each connected switch agent gets one [`FlowChannel`], which owns the
//! socket and starts no thread: a send writes its frame on the caller's
//! thread, and [`FlowChannel::barrier`] reads the agent's one-line acks
//! itself until every frame sent has been acknowledged, surfacing the
//! first agent rejection. At most `queue` frames are unacked at a time —
//! a send past the bound reads acks first — so a slow switch holds up
//! its sender instead of growing a buffer: backpressure is explicit,
//! never a silent drop. The socket's read and write timeouts are
//! `ACK_TIMEOUT` (10 s), so a dead or stalled agent fails the channel
//! in bounded time.
//!
//! The daemon fans a recompile's waves out over its fleet of channels: a
//! wave is sent to *every* channel before any barrier is taken, so the
//! *switches apply concurrently* while the per-wave barrier (all acks in)
//! is still enforced before the next wave.
//!
//! The in-repo simulated agent ([`spawn_agent`]) is the other end:
//! it wraps [`Fabric::apply_flowmods`] behind the same wire format a
//! hardware agent would speak, and hands its final fabric back on
//! disconnect so tests can assert byte-level table equality.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use sdx_openflow::flowmod::FlowModBatch;
use sdx_openflow::Fabric;
use sdx_telemetry::SharedRegistry;

use crate::codec;

/// How long one read of an ack, or one write of a frame, may block
/// before the agent is declared dead. Generous: an agent that is alive
/// acks in microseconds.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest ack line the daemon buffers, newline excluded. An ack is a
/// sequence number and at most one rejection message; the line's length
/// is the one thing on this socket that the agent alone decides.
const MAX_ACK_LINE: usize = 1 << 16;

/// One daemon-side OpenFlow channel to a connected switch agent.
pub struct FlowChannel {
    id: usize,
    /// The agent's socket: frames are written to it directly, acks are
    /// read through the buffer.
    socket: BufReader<TcpStream>,
    queue: u64,
    next_seq: u64,
    acked: u64,
    /// The first agent rejection read since the last barrier.
    rejected: Option<String>,
    reg: SharedRegistry,
}

impl FlowChannel {
    /// Wraps an accepted agent connection. `queue` bounds the frames
    /// sent but not yet acked: a send past the bound reads acks first
    /// (the daemon's explicit backpressure).
    pub fn new(
        id: usize,
        stream: TcpStream,
        queue: usize,
        reg: SharedRegistry,
    ) -> std::io::Result<FlowChannel> {
        stream.set_read_timeout(Some(ACK_TIMEOUT))?;
        stream.set_write_timeout(Some(ACK_TIMEOUT))?;
        Ok(FlowChannel {
            id,
            socket: BufReader::new(stream),
            queue: queue.max(1) as u64,
            next_seq: 0,
            acked: 0,
            rejected: None,
            reg,
        })
    }

    /// The channel's index (assigned in connection order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Frames sent but not yet acknowledged.
    pub fn outstanding(&self) -> u64 {
        self.next_seq - self.acked
    }

    fn record_depth(&self) {
        self.reg
            .set_gauge("daemon.channel.queue_depth", self.outstanding() as i64);
        self.reg
            .observe("daemon.channel.depth_samples", self.outstanding());
    }

    fn send_line(&mut self, mut line: String) -> Result<u64, String> {
        // Past the bound, wait for the agent: backpressure propagates to
        // the event loop, which keeps coalescing instead of piling up.
        while self.outstanding() >= self.queue {
            self.read_ack()?;
        }
        line.push('\n');
        if let Err(e) = self.socket.get_ref().write_all(line.as_bytes()) {
            return Err(self.fail(&format!("write failed: {e}")));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.record_depth();
        Ok(seq)
    }

    /// Reads one ack. A rejection is kept for the next barrier; a
    /// hang-up, a timeout, a line that is no ack or one longer than
    /// [`MAX_ACK_LINE`] fails the transport.
    fn read_ack(&mut self) -> Result<(), String> {
        let mut line = String::new();
        loop {
            line.clear();
            let mut bounded = (&mut self.socket).take(MAX_ACK_LINE as u64 + 1);
            let failure = match bounded.read_line(&mut line) {
                Ok(0) => "disconnected",
                Ok(n) if n > MAX_ACK_LINE && !line.ends_with('\n') => "sent an ack line too long",
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => match codec::decode_ack(line.trim()) {
                    Ok((seq, result)) => {
                        self.acked += 1;
                        if let Err(e) = result {
                            self.rejected.get_or_insert(format!(
                                "switch {} rejected frame {seq}: {e}",
                                self.id
                            ));
                        }
                        return Ok(());
                    }
                    Err(_) => "sent a line that is no ack",
                },
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    "ack timeout"
                }
                Err(_) => "disconnected",
            };
            return Err(self.fail(failure));
        }
    }

    /// A transport failure: shuts the socket down, so the agent reads
    /// EOF and every later send or barrier fails at once.
    fn fail(&self, what: &str) -> String {
        let _ = self.socket.get_ref().shutdown(Shutdown::Both);
        format!("switch {} {what}", self.id)
    }

    /// Writes a batch frame; returns its sequence number.
    pub fn send_batch(&mut self, batch: &FlowModBatch) -> Result<u64, String> {
        let line = codec::encode_apply(self.next_seq, batch);
        self.send_line(line)
    }

    /// Writes a full-table sync frame; returns its sequence number.
    pub fn send_sync(&mut self, batch: &FlowModBatch) -> Result<u64, String> {
        let line = codec::encode_sync(self.next_seq, batch);
        self.send_line(line)
    }

    /// Waits until every frame sent has been acknowledged. Returns the
    /// first agent rejection or transport failure; on `Ok` the agent's
    /// table has applied everything sent so far.
    pub fn barrier(&mut self) -> Result<(), String> {
        let mut result = Ok(());
        while self.acked < self.next_seq {
            if let Err(e) = self.read_ack() {
                result = Err(e);
                break;
            }
        }
        self.record_depth();
        // A rejection was read before any transport failure.
        self.rejected.take().map_or(result, Err)
    }

    /// Closes the channel: shuts the socket down, so the agent reads EOF.
    /// Every frame was written when its send returned.
    pub fn close(self) {
        let _ = self.socket.get_ref().shutdown(Shutdown::Both);
    }
}

/// A running in-repo switch agent (see [`spawn_agent`]).
pub struct AgentHandle {
    join: JoinHandle<Fabric>,
}

impl AgentHandle {
    /// Waits for the daemon to drop the connection and returns the
    /// agent's final fabric.
    pub fn join(self) -> Fabric {
        self.join.join().expect("agent thread panicked")
    }
}

/// Connects a simulated switch agent to the daemon's OpenFlow endpoint
/// and services it on a background thread until the daemon disconnects.
///
/// The agent is deliberately dumb: decode a frame, apply it through
/// [`Fabric::apply_flowmods`] (or clear-then-apply for a sync frame),
/// ack with the result. All sequencing, retry, and safety logic lives
/// daemon-side — the agent models a switch, not a controller.
pub fn spawn_agent(addr: SocketAddr) -> std::io::Result<AgentHandle> {
    let stream = TcpStream::connect(addr)?;
    // Acks are one short line each, written back to back when frames
    // arrive back to back: with Nagle on, the third waits out the
    // daemon's delayed ACK (~40 ms) while the daemon sits in its barrier.
    stream.set_nodelay(true)?;
    let read_stream = stream.try_clone()?;
    let join = std::thread::spawn(move || run_agent(stream, read_stream));
    Ok(AgentHandle { join })
}

fn run_agent(stream: TcpStream, read_stream: TcpStream) -> Fabric {
    let mut fabric = Fabric::new();
    let mut w = BufWriter::new(stream);
    let r = BufReader::new(read_stream);
    for line in r.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let ack = match codec::decode_frame(&line) {
            Ok(frame) => {
                let seq = frame.seq();
                let result = match frame {
                    codec::ChannelFrame::Apply { batch, .. } => {
                        fabric.apply_flowmods(&batch).map(|_| ())
                    }
                    codec::ChannelFrame::Sync { batch, .. } => {
                        fabric.switch.table_mut().clear();
                        fabric.apply_flowmods(&batch).map(|_| ())
                    }
                };
                match result {
                    Ok(()) => codec::encode_ack(seq, Ok(())),
                    Err(e) => codec::encode_ack(seq, Err(&e.to_string())),
                }
            }
            // An undecodable frame is unanswerable (no seq): drop the
            // connection so the daemon's barrier fails loudly.
            Err(_) => break,
        };
        if w.write_all(ack.as_bytes()).is_err() || w.write_all(b"\n").is_err() || w.flush().is_err()
        {
            break;
        }
    }
    fabric
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{FieldMatch, HeaderMatch};
    use sdx_openflow::flowmod::FlowMod;
    use sdx_openflow::table::FlowEntry;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Instant;

    fn reg() -> SharedRegistry {
        SharedRegistry::new()
    }

    fn add(priority: u32, port: u16) -> FlowMod {
        FlowMod::Add(FlowEntry::new(
            priority,
            HeaderMatch::of(FieldMatch::TpDst(port)),
            vec![vec![]],
        ))
    }

    fn pair(queue: usize) -> (FlowChannel, AgentHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let agent = spawn_agent(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let ch = FlowChannel::new(0, stream, queue, reg()).expect("channel");
        (ch, agent)
    }

    #[test]
    fn batches_reach_the_agent_and_barrier_waits_for_acks() {
        let (mut ch, agent) = pair(8);
        let mut b1 = FlowModBatch::new(1);
        b1.push(add(10, 80));
        let mut b2 = FlowModBatch::new(2);
        b2.push(add(20, 443));
        ch.send_batch(&b1).expect("send");
        ch.send_batch(&b2).expect("send");
        ch.barrier().expect("both acked");
        assert_eq!(ch.outstanding(), 0);
        ch.close();
        let fabric = agent.join();
        assert_eq!(fabric.switch.table().len(), 2);
    }

    #[test]
    fn back_to_back_acks_do_not_wait_out_delayed_ack() {
        // Eight frames then a barrier, twenty times: the agent writes
        // eight small acks back to back. Without TCP_NODELAY on its
        // socket every round stalls ~40 ms on Nagle against delayed ACK —
        // 800 ms in all; with it a round is well under a millisecond.
        let (mut ch, agent) = pair(16);
        let t0 = std::time::Instant::now();
        for round in 0..20u32 {
            for i in 0..8u32 {
                let mut b = FlowModBatch::new(u64::from(round));
                b.push(add(round * 8 + i, 80));
                ch.send_batch(&b).expect("send");
            }
            ch.barrier().expect("acked");
        }
        let elapsed = t0.elapsed();
        ch.close();
        assert_eq!(agent.join().switch.table().len(), 160);
        assert!(
            elapsed < Duration::from_millis(400),
            "20 rounds of 8 frames + barrier took {elapsed:?}"
        );
    }

    /// A switch agent that acks each frame only when the test hands it a
    /// token, so the test decides when every ack exists. Returns the
    /// frames it acked.
    fn token_agent(addr: SocketAddr) -> (mpsc::Sender<()>, JoinHandle<usize>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let (tokens, gate) = mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            let mut w = &stream;
            let mut acked = 0;
            for line in BufReader::new(&stream).lines() {
                let Ok(line) = line else { break };
                let seq = codec::decode_frame(&line).expect("frame").seq();
                if gate.recv().is_err() {
                    break;
                }
                let ack = format!("{}\n", codec::encode_ack(seq, Ok(())));
                if w.write_all(ack.as_bytes()).is_err() {
                    break;
                }
                acked += 1;
            }
            acked
        });
        (tokens, join)
    }

    fn batch(port: u16) -> FlowModBatch {
        let mut b = FlowModBatch::new(u64::from(port));
        b.push(add(10, port));
        b
    }

    #[test]
    fn a_send_past_the_bound_waits_for_an_ack() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (tokens, agent) = token_agent(listener.local_addr().expect("addr"));
        let (stream, _) = listener.accept().expect("accept");
        let mut ch = FlowChannel::new(0, stream, 2, reg()).expect("channel");
        ch.send_batch(&batch(80)).expect("under the bound");
        ch.send_batch(&batch(81)).expect("under the bound");
        assert_eq!(ch.outstanding(), 2);

        // The third frame is past the bound and the agent has acked
        // nothing: its send cannot return until the test lets one ack out.
        let (returned, sent) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            let seq = ch.send_batch(&batch(82));
            let outstanding = ch.outstanding();
            returned.send(()).expect("test alive");
            (ch, seq, outstanding)
        });
        assert!(
            sent.try_recv().is_err(),
            "the send past the bound returned before any ack existed"
        );
        tokens.send(()).expect("agent alive");
        let (mut ch, seq, outstanding) = sender.join().expect("sender thread");
        assert_eq!(seq, Ok(2));
        assert_eq!(outstanding, 2, "three frames sent, one ack read");

        // With acks flowing, the count of unacked frames stays in bound.
        for _ in 0..12 {
            tokens.send(()).expect("agent alive");
        }
        for port in 83..93 {
            ch.send_batch(&batch(port)).expect("send");
            assert!(ch.outstanding() <= 2, "{} unacked", ch.outstanding());
        }
        ch.barrier().expect("all acked");
        assert_eq!(ch.outstanding(), 0);
        ch.close();
        assert_eq!(agent.join().expect("agent thread"), 13);
    }

    #[test]
    fn an_agent_that_hangs_up_fails_the_next_barrier_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let agent = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let mut ch = FlowChannel::new(0, stream, 8, reg()).expect("channel");
        ch.send_batch(&batch(80))
            .expect("written before the hang-up");
        drop(agent);
        let t0 = Instant::now();
        let err = ch.barrier().expect_err("no agent left to ack");
        assert!(err.contains("disconnected"), "err: {err}");
        assert!(
            t0.elapsed() < ACK_TIMEOUT / 2,
            "the barrier waited {:?} on a closed socket",
            t0.elapsed()
        );
    }

    #[test]
    fn agent_rejections_surface_at_the_barrier() {
        let (mut ch, agent) = pair(8);
        let mut b = FlowModBatch::new(1);
        b.push(add(10, 80));
        ch.send_batch(&b).expect("send");
        // The same (priority, pattern) again: a duplicate install the
        // agent's table must reject.
        ch.send_batch(&b).expect("send");
        let err = ch.barrier().expect_err("second batch rejected");
        assert!(err.contains("rejected frame 1"), "err: {err}");
        ch.close();
        let fabric = agent.join();
        // The rejection was atomic: the first batch landed, the second
        // left no trace.
        assert_eq!(fabric.switch.table().len(), 1);
    }

    #[test]
    fn an_endless_ack_line_fails_the_barrier_and_shuts_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (daemon_side, _) = listener.accept().expect("accept");
        // A hostile agent: 2 MiB without a newline, then it waits for
        // the daemon to hang up. The timeouts only keep a broken daemon
        // from hanging the test.
        stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let agent = std::thread::spawn(move || {
            let _ = (&stream).write_all(&vec![b'x'; 2 << 20]);
            let mut rest = Vec::new();
            (&stream).read_to_end(&mut rest)
        });
        let mut ch = FlowChannel::new(0, daemon_side, 8, reg()).expect("channel");
        ch.send_batch(&batch(80)).expect("send");
        let err = ch.barrier().expect_err("no ack, only bytes");
        assert!(err.contains("too long"), "err: {err}");
        assert!(
            agent.join().expect("agent thread").is_ok(),
            "the agent reads EOF: the daemon shut the socket"
        );
        assert!(
            ch.send_batch(&batch(81)).is_err(),
            "the channel stays failed"
        );
    }

    #[test]
    fn sync_frame_resets_the_agent_table() {
        let (mut ch, agent) = pair(8);
        let mut b = FlowModBatch::new(1);
        b.push(add(10, 80));
        b.push(add(11, 81));
        ch.send_batch(&b).expect("send");
        let mut image = FlowModBatch::new(2);
        image.push(add(50, 8080));
        ch.send_sync(&image).expect("send");
        ch.barrier().expect("acked");
        ch.close();
        let fabric = agent.join();
        let table = fabric.switch.table();
        assert_eq!(table.len(), 1);
        assert_eq!(table.entries()[0].priority, 50);
    }
}
