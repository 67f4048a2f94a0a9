//! # sdx-runtime — the `sdxd` daemon
//!
//! Everything below the controller in this workspace is a library; this
//! crate makes it a *process*. A std-only, dependency-free runtime (one
//! thread per socket, each blocked on it, feeding one event loop) exposes
//! the SDX over four plain-TCP loopback endpoints (BGP, OpenFlow, policy,
//! telemetry):
//!
//! * [`daemon`] — the event loop: real BGP sessions framed by
//!   `sdx_bgp::wire` over arbitrary TCP segmentation, socket-liveness
//!   session supervision (keepalives, hold timers, flap damping on TCP
//!   resets), burst coalescing of pending compiles, acked policy
//!   frames, every update's waves fanned out over switch channels,
//!   graceful drain on shutdown, and a telemetry endpoint serving the
//!   registry + journal as JSON.
//! * [`channel`] — per-switch OpenFlow channels: a bound on unacked
//!   frames as explicit backpressure, ack barriers, and the in-repo
//!   simulated switch agent.
//! * [`codec`] — the JSON-lines wire format for the typed flow-mod
//!   protocol, shared verbatim by daemon and agent.
//!
//! The `sdxd` binary wraps [`daemon::start`] around the paper's
//! Figure 1 exchange; the repository's `benchmark/` package drives a
//! daemon over loopback and reports update→last-ack latency and
//! throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod daemon;

pub use channel::{spawn_agent, AgentHandle, FlowChannel};
pub use codec::{ChannelFrame, CodecError};
pub use daemon::{start, start_with_clock, DaemonConfig, DaemonHandle, DaemonReport, TestPeer};
