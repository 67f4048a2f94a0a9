//! The keyed metrics registry and span-style stage timers.
//!
//! A [`Registry`] owns named [`Counter`]s, [`Gauge`]s, [`Histogram`]s and
//! one [`Journal`]. Lookup is a read-locked map probe; the primitives
//! themselves are lock-free, so recording through a registry is cheap
//! enough for the controller's hot stages. Call sites that record in a
//! tight loop should hoist the `Arc` handle out
//! (`let c = reg.counter("x"); loop { c.inc() }`). The data plane's
//! `Fabric` is the example: it resolves `fabric.tx.count` and
//! `fabric.delivered.count` once, when it is built and whenever it is
//! pointed at another registry, so a packet costs two atomic adds rather
//! than two map probes.
//!
//! [`SharedRegistry`] is the clonable handle the controller threads
//! through the stack (compiler, route server, supervisor, fabric). It
//! compares equal to every other handle on purpose: telemetry is
//! *observability*, not data-plane state, so two fabrics with identical
//! installed state stay `==` regardless of where they report metrics
//! (the transactional snapshot/rollback machinery relies on this).

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::journal::{Event, Journal};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::MetricsSnapshot;

/// A keyed registry of metrics plus a bounded event journal.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    journal: Journal,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, key: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("registry lock").get(key) {
        return v.clone();
    }
    map.write()
        .expect("registry lock")
        .entry(key.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// An empty registry with the default journal capacity.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The named counter (created at zero on first use).
    pub fn counter(&self, key: &str) -> Arc<Counter> {
        get_or_create(&self.counters, key)
    }

    /// Adds one to the named counter.
    pub fn inc(&self, key: &str) {
        self.counter(key).inc();
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, key: &str, n: u64) {
        self.counter(key).add(n);
    }

    /// The named gauge (created at zero on first use).
    pub fn gauge(&self, key: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, key)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&self, key: &str, v: i64) {
        self.gauge(key).set(v);
    }

    /// The named histogram (created empty on first use).
    pub fn histogram(&self, key: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, key)
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, key: &str, v: u64) {
        self.histogram(key).record(v);
    }

    /// Records a duration (as nanoseconds) into the named histogram.
    pub fn observe_duration(&self, key: &str, d: Duration) {
        self.observe(key, d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Runs `f` and records its wall-clock (nanoseconds) into the named
    /// histogram — the span-style stage timer.
    pub fn time<T>(&self, key: &str, f: impl FnOnce() -> T) -> T {
        self.timed(key, f).0
    }

    /// Like [`time`](Self::time) but also hands the elapsed duration back
    /// to the caller (for call sites that account it twice, e.g.
    /// `CompileStats`).
    pub fn timed<T>(&self, key: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let elapsed = t0.elapsed();
        self.observe_duration(key, elapsed);
        (out, elapsed)
    }

    /// A guard-style timer: records into the named histogram when dropped.
    pub fn start_timer(&self, key: &str) -> Timer<'_> {
        Timer {
            registry: self,
            key: key.to_string(),
            start: Instant::now(),
        }
    }

    /// Appends an event to the journal.
    pub fn record_event(&self, event: Event) {
        self.journal.record(event);
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// A serializable point-in-time image of every metric and the
    /// retained journal.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            events: self.journal.entries(),
            dropped_events: self.journal.dropped(),
        }
    }
}

/// Records the elapsed time into its histogram on drop (see
/// [`Registry::start_timer`]).
#[derive(Debug)]
pub struct Timer<'a> {
    registry: &'a Registry,
    key: String,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.registry
            .observe_duration(&self.key, self.start.elapsed());
    }
}

/// A clonable, shareable handle to a [`Registry`].
///
/// `Default` creates a *fresh* registry; clone an existing handle to
/// share one sink across subsystems (the controller does this for its
/// compiler, route server, and deployed fabric). Handles always compare
/// equal — see the module docs for why.
#[derive(Clone, Debug, Default)]
pub struct SharedRegistry(Arc<Registry>);

impl SharedRegistry {
    /// A handle to a fresh registry.
    pub fn new() -> Self {
        SharedRegistry::default()
    }

    /// Whether two handles point at the same underlying registry.
    pub fn same_sink(&self, other: &SharedRegistry) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for SharedRegistry {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0
    }
}

impl PartialEq for SharedRegistry {
    /// Always equal: telemetry sinks are observability, not state.
    fn eq(&self, _other: &SharedRegistry) -> bool {
        true
    }
}

impl Eq for SharedRegistry {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_by_key() {
        let r = Registry::new();
        r.inc("a.count");
        r.add("a.count", 2);
        r.set_gauge("b.level", -4);
        r.observe("c.size", 10);
        r.observe("c.size", 20);
        assert_eq!(r.counter("a.count").get(), 3);
        assert_eq!(r.gauge("b.level").get(), -4);
        assert_eq!(r.histogram("c.size").count(), 2);
        // Same key returns the same underlying metric.
        assert_eq!(r.counter("a.count").get(), 3);
    }

    #[test]
    fn time_records_and_returns() {
        let r = Registry::new();
        let out = r.time("stage.x", || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(r.histogram("stage.x").count(), 1);
        let (out, elapsed) = r.timed("stage.x", || "y");
        assert_eq!(out, "y");
        assert_eq!(r.histogram("stage.x").count(), 2);
        assert!(elapsed.as_nanos() > 0 || elapsed.is_zero());
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let r = Registry::new();
        {
            let _t = r.start_timer("stage.guard");
        }
        assert_eq!(r.histogram("stage.guard").count(), 1);
    }

    #[test]
    fn snapshot_captures_everything() {
        let r = Registry::new();
        r.inc("x.count");
        r.set_gauge("y", 9);
        r.observe("z", 5);
        r.record_event(Event::OverlaysRetired { layers: 3 });
        let s = r.snapshot();
        assert_eq!(s.counters["x.count"], 1);
        assert_eq!(s.gauges["y"], 9);
        assert_eq!(s.histograms["z"].count, 1);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.dropped_events, 0);
    }

    #[test]
    fn shared_handles_compare_equal_but_track_identity() {
        let a = SharedRegistry::new();
        let b = SharedRegistry::new();
        let a2 = a.clone();
        assert_eq!(a, b, "telemetry is not state");
        assert!(a.same_sink(&a2));
        assert!(!a.same_sink(&b));
        a2.inc("shared.count");
        assert_eq!(a.counter("shared.count").get(), 1);
    }
}
