//! # sdx-bgp — the BGP substrate for the SDX reproduction
//!
//! The paper's SDX controller embeds a *route server* (their prototype
//! extends ExaBGP). This crate is that substrate built from scratch:
//!
//! * [`attrs`] — BGP path attributes: ORIGIN, AS_PATH (sets & sequences),
//!   NEXT_HOP, MED, LOCAL_PREF, communities.
//! * [`msg`] — the four RFC 4271 message types, as plain data.
//! * [`wire`] — binary encode/decode of those messages (RFC 4271 framing),
//!   used to exercise real message handling and failure injection.
//! * [`rib`] — Adj-RIB-In / Loc-RIB / Adj-RIB-Out structures over the
//!   prefix trie.
//! * [`decision`] — the BGP best-path decision process as a total order.
//! * [`route_server`] — a multi-participant IXP route server computing one
//!   best route per (participant, prefix), honouring per-participant export
//!   policies, and exposing the *reachability sets* the SDX consistency
//!   filters are built from (§3.2, §4.1 of the paper).
//! * [`aspath_re`] — an AS-path regular-expression engine backing the
//!   paper's `RIB.filter('as_path', '.*43515$')` idiom.
//! * [`session`] — a simplified BGP finite-state machine over an in-memory
//!   transport, used for session-reset failure injection (Table 1 discards
//!   updates caused by session resets).
//! * [`clock`] — a monotonic millisecond [`Clock`] trait with
//!   real ([`SystemClock`]) and virtual
//!   ([`MockClock`]) implementations, so the supervisor
//!   and the `sdx-runtime` daemon share one testable notion of time.
//! * [`supervisor`] — the operational layer over the session FSMs:
//!   sessions started by their peers' connections, hold-timer
//!   bookkeeping, and route-flap damping so a flapping peer costs O(1)
//!   recompilations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aspath_re;
pub mod attrs;
pub mod clock;
pub mod decision;
pub mod msg;
pub mod rib;
pub mod route_server;
pub mod session;
pub mod supervisor;
pub mod wire;

pub use attrs::{AsPath, Origin, PathAttributes};
pub use clock::{Clock, MockClock, SystemClock};
pub use msg::{BgpMessage, NotificationCode, OpenMessage, UpdateMessage};
pub use rib::{AdjRibIn, AdjRibOut, AdjRibOuts, Advert, LocRib, Route, RouteSource};
pub use route_server::{ExportPolicy, RouteServer, RouteServerEvent};
pub use session::{Session, SessionEvent, SessionState};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorOutput};
