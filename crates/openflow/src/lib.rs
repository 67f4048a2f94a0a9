//! # sdx-openflow — the SDN data plane the SDX controls
//!
//! The paper's prototype drives an Open vSwitch instance over OpenFlow.
//! This crate is the equivalent substrate as a deterministic simulator:
//!
//! * [`table`] — a priority flow table with match patterns, action buckets
//!   and cookies. Rule counts read from here are the metric of Figures 7
//!   and 9.
//! * [`matcher`] — the compiled fast path: hash indexes over the exact-match
//!   discriminators (`dl_dst`, `in_port`), an `nw_dst` prefix trie, and a
//!   residual list, kept epoch-coherent with the table and guaranteed
//!   index-for-index identical to the linear walk.
//! * [`flowmod`] — the typed `Add`/`Modify`/`Delete` delta protocol the
//!   controller patches tables with: atomic per batch, epoch-tagged,
//!   cookie-stamped (§4.3.2's incremental updates made explicit).
//! * [`switch`] — the packet-processing pipeline: classify against the
//!   table, execute buckets, emit `(port, packet)` outputs as
//!   [`Deliveries`] (one output inline, no allocation).
//! * [`arp`] — the SDX ARP responder that answers queries for virtual next
//!   hops with the corresponding virtual MAC (§4.2).
//! * [`border_router`] — the participant border-router model: a port and a
//!   MAC over its participant's view of the fabric's Adj-RIB-Outs as its
//!   FIB, resolving next hops through the fabric's one ARP responder, whose
//!   next-hop-MAC rewriting implements the *first stage* of the SDX's
//!   multi-stage FIB without any switch table space (Figure 2).
//! * [`fabric`] — glues border routers and the SDX switch into an exchange
//!   point you can inject packets into and observe deliveries from.
//!
//! Multicast rules use group-bucket semantics (each bucket processes its
//! own copy of the packet), i.e. OpenFlow 1.1+ ALL-groups rather than the
//! OF 1.0 accumulate-and-output quirk; this matches what the compiled
//! classifiers mean and what modern switches do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod border_router;
pub mod fabric;
pub mod flowmod;
pub mod matcher;
pub mod switch;
pub mod table;

pub use arp::ArpResponder;
pub use border_router::{BorderRouter, RouterMut, RouterRef};
pub use fabric::{Fabric, WaveUndo};
pub use flowmod::{BatchStats, FlowMod, FlowModBatch, FlowModError};
pub use matcher::{CompiledMatcher, MatcherStats};
pub use switch::{Deliveries, Switch};
pub use table::{FlowEntry, FlowTable};
