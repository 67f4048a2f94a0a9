//! # sdx-core — the SDX controller (the paper's primary contribution)
//!
//! This crate assembles the substrates (`sdx-bgp`, `sdx-policy`,
//! `sdx-openflow`) into the system of *SDX: A Software Defined Internet
//! Exchange* (SIGCOMM 2014):
//!
//! * [`participant`] — participant configuration: ports, MACs, peering
//!   addresses, and the per-participant inbound/outbound policy slots.
//! * [`vswitch`] — the virtual-switch abstraction (§3.1): port naming and
//!   the DSL name tables each participant writes policies against.
//! * [`fec`] — forwarding equivalence classes: the Minimum Disjoint Subset
//!   computation (§4.2) that groups prefixes with identical forwarding
//!   behaviour.
//! * [`vnh`] — virtual next-hop / virtual MAC allocation, and the route
//!   server + ARP plumbing that turns the participant's own border router
//!   into the first FIB stage.
//! * [`transform`] — the syntactic policy transformations of §4.1:
//!   isolation, BGP-consistency + VMAC rewriting, default forwarding, and
//!   delivery.
//! * [`compiler`] — the full compilation pipeline with the §4.3.1
//!   optimizations (per-pair composition pruning, disjointness by
//!   construction, policies compiled once per change).
//! * [`incremental`] — the §4.3.2 two-stage update path: a fast per-prefix
//!   recompile that installs higher-priority delta rules immediately, and
//!   background re-optimization between bursts.
//! * [`controller`] — the event-driven runtime tying the route server,
//!   compiler, ARP responder and switch together.
//! * [`error`] — the workspace-wide error taxonomy ([`SdxError`]).
//! * [`txn`] — transactional fabric commits: validate, write through an
//!   undo log, roll back to last-known-good on failure.
//! * [`faults`] — deterministic fault injection at the
//!   controller's interface to the switches (a torn commit, a refused
//!   wave), for exercising the recovery paths; the compiler's failures
//!   are real inputs, not injected.
//! * [`schedule`] — provably safe update scheduling: the reconciliation
//!   diff partitioned into dependency-ordered flow-mod waves, driven all
//!   or nothing with a per-wave check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod controller;
pub mod error;
pub mod faults;
pub mod fec;
pub mod incremental;
pub mod participant;
mod phase_a;
pub mod piece;
pub mod reconcile;
pub mod schedule;
pub mod transform;
pub mod txn;
pub mod vnh;
pub mod vswitch;

pub use compiler::{CompileReport, SdxCompiler};
pub use controller::{Change, PreparedUpdate, SdxController, WaveHook};
pub use error::SdxError;
pub use faults::{FaultPlan, InjectionPoint};
pub use fec::{canonicalize_report, minimum_disjoint_subsets, FecGroup, FecId, FecKey};
pub use participant::{ParticipantConfig, PhysicalPort};
pub use piece::{PieceCounts, Tally, ViewerPiece, VnhMap};
pub use reconcile::{diff_base_table, TableDiff};
pub use schedule::{ScheduleOpts, ScheduleReport, UpdatePlan, WaveReport, Waves};
pub use txn::{DeltaTxn, FabricTxn};
pub use vnh::VnhAllocator;
