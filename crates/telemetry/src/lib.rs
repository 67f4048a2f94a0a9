//! # sdx-telemetry — the measurement substrate
//!
//! The paper's scalability story (§5, Figures 5–10) is entirely about
//! *measured* compile time, rule counts, and update latency; a production
//! exchange additionally lives or dies on observing its own pipeline.
//! This crate is the workspace-wide substrate every other crate emits
//! into:
//!
//! * [`metrics`] — cheap, dependency-light primitives: monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s
//!   with quantile readout (p50/p90/p99). All lock-free atomics; a
//!   counter increment is one relaxed atomic add.
//! * [`registry`] — a keyed [`Registry`] of those primitives plus
//!   span-style stage timers (`registry.time("compile.fec", || ...)`).
//!   Used behind a `&Registry` handle: the controller threads a
//!   [`SharedRegistry`] through the whole stack.
//! * [`journal`] — a bounded structured [`Journal`] (ring buffer) of
//!   controller lifecycle [`Event`]s — update received, fast-path delta
//!   applied, reoptimize completed, transaction rolled back, fault
//!   injected, session flap/suppress/release — so churn replays and
//!   failure-injection tests can assert on *sequences*, not just end
//!   states.
//! * [`snapshot`] — [`MetricsSnapshot`], a JSON-serializable point-in-
//!   time image of a registry (metrics + journal), the payload the
//!   daemon's telemetry endpoint serves.
//! * [`json`] — a dependency-free JSON document model ([`Json`]) with an
//!   emitter and strict parser, so this crate (which sits below every
//!   other workspace crate, fabric included) stays free of external
//!   dependencies while snapshots remain machine-readable.
//!
//! ## Metric key naming convention
//!
//! Keys are dotted lowercase paths, `<subsystem>.<object>[.<stat>]`:
//! `compile.total`, `compile.fec`, `compile.compose`, `fastpath.total`,
//! `txn.validate`, `txn.rollback`, `rs.decision`, `fabric.tx.count`.
//! Timer histograms record **nanoseconds**; counters end in `.count`.
//! The full key inventory lives in DESIGN.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;

pub use journal::{Event, Journal, JournalEntry};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{Registry, SharedRegistry, Timer};
pub use snapshot::MetricsSnapshot;
