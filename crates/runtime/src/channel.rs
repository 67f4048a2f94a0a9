//! Per-switch OpenFlow channels: bounded send queues, explicit
//! backpressure, and ack barriers.
//!
//! Each connected switch agent gets one [`FlowChannel`]: a bounded
//! in-memory queue drained by a dedicated writer thread, plus an ack
//! reader that consumes the agent's one-line replies. Sending blocks
//! when the queue is full — backpressure is explicit, never silent
//! drop — and [`FlowChannel::barrier`] waits until every outstanding
//! frame has been acknowledged, surfacing the first agent rejection.
//!
//! [`ChannelSink`] adapts a fleet of channels to the scheduler's
//! [`WaveSink`]: a wave is sent to *every* channel before any barrier
//! is taken, so the *switches apply concurrently* while the per-wave
//! barrier (all acks in) is still enforced before the next wave —
//! exactly the PR 6 safety argument, now across sockets.
//!
//! The in-repo simulated agent ([`spawn_agent`]) is the other end:
//! it wraps [`Fabric::apply_flowmods`] behind the same wire format a
//! hardware agent would speak, and hands its final fabric back on
//! disconnect so tests can assert byte-level table equality.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use sdx_core::WaveSink;
use sdx_openflow::flowmod::FlowModBatch;
use sdx_openflow::Fabric;
use sdx_telemetry::SharedRegistry;

use crate::codec;

/// How long a barrier waits for a single ack before declaring the agent
/// dead. Generous: an agent that is alive acks in microseconds.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

type AckEvent = (u64, Result<(), String>);

/// One daemon-side OpenFlow channel to a connected switch agent.
pub struct FlowChannel {
    id: usize,
    tx: Option<SyncSender<String>>,
    acks: Receiver<AckEvent>,
    stream: TcpStream,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    next_seq: u64,
    acked: u64,
    reg: SharedRegistry,
}

impl FlowChannel {
    /// Wraps an accepted agent connection. `queue` bounds the send
    /// queue: once `queue` frames are in flight to the writer thread,
    /// further sends block (the daemon's explicit backpressure).
    pub fn new(
        id: usize,
        stream: TcpStream,
        queue: usize,
        reg: SharedRegistry,
    ) -> std::io::Result<FlowChannel> {
        let (tx, rx) = sync_channel::<String>(queue.max(1));
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<AckEvent>();
        let write_stream = stream.try_clone()?;
        let read_stream = stream.try_clone()?;
        let writer = std::thread::spawn(move || {
            let mut w = BufWriter::new(write_stream);
            for line in rx {
                if w.write_all(line.as_bytes()).is_err()
                    || w.write_all(b"\n").is_err()
                    || w.flush().is_err()
                {
                    break;
                }
            }
        });
        let reader = std::thread::spawn(move || {
            let r = BufReader::new(read_stream);
            for line in r.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(ack) = codec::decode_ack(&line) else {
                    break;
                };
                if ack_tx.send(ack).is_err() {
                    break;
                }
            }
            // Dropping ack_tx disconnects the receiver: barriers fail
            // fast instead of waiting out the timeout.
        });
        Ok(FlowChannel {
            id,
            tx: Some(tx),
            acks: ack_rx,
            stream,
            writer: Some(writer),
            reader: Some(reader),
            next_seq: 0,
            acked: 0,
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

    fn send_line(&mut self, line: String) -> Result<u64, String> {
        let seq = self.next_seq;
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| format!("switch channel {} already closed", self.id))?;
        // Blocks while the queue is full: backpressure propagates to
        // the event loop, which keeps coalescing instead of piling up.
        tx.send(line)
            .map_err(|_| format!("switch channel {} writer gone", self.id))?;
        self.next_seq += 1;
        self.record_depth();
        Ok(seq)
    }

    /// Queues a batch frame; returns its sequence number.
    pub fn send_batch(&mut self, batch: &FlowModBatch) -> Result<u64, String> {
        let line = codec::encode_apply(self.next_seq, batch);
        self.send_line(line)
    }

    /// Queues a full-table sync frame; returns its sequence number.
    pub fn send_sync(&mut self, batch: &FlowModBatch) -> Result<u64, String> {
        let line = codec::encode_sync(self.next_seq, batch);
        self.send_line(line)
    }

    /// Waits until every queued frame has been acknowledged. Returns the
    /// first agent rejection or transport failure; on `Ok` the agent's
    /// table has applied everything sent so far.
    pub fn barrier(&mut self) -> Result<(), String> {
        let mut first_err: Option<String> = None;
        while self.acked < self.next_seq {
            match self.acks.recv_timeout(ACK_TIMEOUT) {
                Ok((seq, Ok(()))) => {
                    self.acked += 1;
                    debug_assert!(seq < self.next_seq);
                }
                Ok((seq, Err(e))) => {
                    self.acked += 1;
                    first_err
                        .get_or_insert(format!("switch {} rejected frame {}: {}", self.id, seq, e));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    first_err.get_or_insert(format!("switch {} disconnected", self.id));
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    first_err.get_or_insert(format!("switch {} ack timeout", self.id));
                    break;
                }
            }
        }
        self.record_depth();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Closes the channel: flushes the writer, shuts the socket down,
    /// and joins both service threads.
    pub fn close(mut self) {
        self.tx = None; // writer drains its queue, then exits
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Adapts the channel fleet to the scheduler's per-wave contract: send
/// to every switch, then barrier every switch. See the module docs.
pub struct ChannelSink<'a> {
    channels: &'a mut Vec<FlowChannel>,
    reg: SharedRegistry,
}

impl<'a> ChannelSink<'a> {
    /// A sink over `channels`, instrumenting into `reg`.
    pub fn new(channels: &'a mut Vec<FlowChannel>, reg: SharedRegistry) -> Self {
        ChannelSink { channels, reg }
    }
}

impl WaveSink for ChannelSink<'_> {
    fn apply_wave(
        &mut self,
        wave: usize,
        total: usize,
        batch: &FlowModBatch,
    ) -> Result<(), String> {
        // Send everywhere first: all switches work on the wave
        // concurrently...
        for ch in self.channels.iter_mut() {
            ch.send_batch(batch)
                .map_err(|e| format!("wave {wave}/{total}: {e}"))?;
        }
        // ...then take every barrier, draining acks even after a
        // failure so the fleet state stays accounted for.
        let mut first_err: Option<String> = None;
        for ch in self.channels.iter_mut() {
            if let Err(e) = ch.barrier() {
                first_err.get_or_insert(format!("wave {wave}/{total}: {e}"));
            }
        }
        self.reg.inc("daemon.waves_streamed.count");
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
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

    #[test]
    fn channel_sink_fans_a_wave_to_every_agent() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let agents: Vec<AgentHandle> = (0..3)
            .map(|_| spawn_agent(addr).expect("connect"))
            .collect();
        let mut channels: Vec<FlowChannel> = (0..3)
            .map(|i| {
                let (stream, _) = listener.accept().expect("accept");
                FlowChannel::new(i, stream, 4, reg()).expect("channel")
            })
            .collect();
        let mut b = FlowModBatch::new(1);
        b.push(add(10, 80));
        let r = reg();
        let mut sink = ChannelSink::new(&mut channels, r.clone());
        sink.apply_wave(0, 1, &b).expect("wave applies everywhere");
        for ch in channels {
            ch.close();
        }
        for agent in agents {
            assert_eq!(agent.join().switch.table().len(), 1);
        }
        assert_eq!(
            r.snapshot().counters.get("daemon.waves_streamed.count"),
            Some(&1)
        );
    }
}
