//! Serializable point-in-time images of a registry.
//!
//! [`MetricsSnapshot`] is the machine-readable contract between the
//! runtime and everything downstream of it: the daemon's telemetry
//! endpoint serves one, and `CompileReport::metrics_snapshot()` derives
//! one from a single pipeline run. It is plain data — `BTreeMap`s and the
//! journal's retained entries — so it serializes deterministically
//! (sorted keys) through [`to_json`](MetricsSnapshot::to_json).

use std::collections::BTreeMap;

use crate::journal::JournalEntry;
use crate::json::Json;
use crate::metrics::HistogramSnapshot;

/// Everything a [`Registry`](crate::Registry) held at snapshot time.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram images by key (timer histograms are in nanoseconds).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// The journal's retained entries, oldest first.
    pub events: Vec<JournalEntry>,
    /// Journal entries evicted before this snapshot was taken.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    /// Merges `other` into `self`: counters add, gauges take `other`'s
    /// value, histogram images are kept from whichever side has more
    /// samples (bucket-accurate merging would need the raw buckets), and
    /// events concatenate. Used by bench binaries that aggregate several
    /// registries into one report.
    pub fn absorb(&mut self, other: MetricsSnapshot) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            self.gauges.insert(k, v);
        }
        for (k, v) in other.histograms {
            match self.histograms.get(&k) {
                Some(mine) if mine.count >= v.count => {}
                _ => {
                    self.histograms.insert(k, v);
                }
            }
        }
        self.events.extend(other.events);
        self.dropped_events += other.dropped_events;
    }

    /// The snapshot as a JSON object with `counters`, `gauges`,
    /// `histograms`, `events`, and `dropped_events` members, keys sorted.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters".to_string(),
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
            (
                "gauges".to_string(),
                Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
            (
                "histograms".to_string(),
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json())),
                ),
            ),
            (
                "events".to_string(),
                Json::Arr(self.events.iter().map(JournalEntry::to_json).collect()),
            ),
            (
                "dropped_events".to_string(),
                Json::from(self.dropped_events),
            ),
        ])
    }

    /// Compact single-line JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;
    use crate::registry::Registry;

    #[test]
    fn snapshot_serializes_and_reparses() {
        let r = Registry::new();
        r.inc("compile.count");
        r.observe_duration("compile.total", std::time::Duration::from_micros(1500));
        r.set_gauge("fabric.rules", 321);
        r.record_event(Event::ReoptimizeCompleted {
            rules: 321,
            groups: 12,
            latency_ns: 1_500_000,
        });
        let snap = r.snapshot();
        let parsed = Json::parse(&snap.to_json_string()).expect("well-formed");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("compile.count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("compile.total"))
            .expect("histogram present");
        assert_eq!(HistogramSnapshot::from_json(hist).count, 1);
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("fabric.rules"))
                .and_then(Json::as_i64),
            Some(321)
        );
        let events = parsed.get("events").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("reoptimize_completed")
        );
    }

    #[test]
    fn absorb_merges_counters_and_keeps_fuller_histograms() {
        let a = Registry::new();
        a.add("x.count", 2);
        a.observe("h", 1);
        let b = Registry::new();
        b.add("x.count", 3);
        b.observe("h", 1);
        b.observe("h", 2);
        b.record_event(Event::OverlaysRetired { layers: 1 });
        let mut snap = a.snapshot();
        snap.absorb(b.snapshot());
        assert_eq!(snap.counters["x.count"], 5);
        assert_eq!(snap.histograms["h"].count, 2, "fuller side wins");
        assert_eq!(snap.events.len(), 1);
    }
}
