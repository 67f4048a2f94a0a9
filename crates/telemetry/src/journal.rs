//! A bounded structured event journal (ring buffer).
//!
//! The controller's lifecycle is a *sequence* — update received, fast-path
//! delta applied, background reoptimize completed, overlays retired — and
//! failure-injection tests need to assert on that sequence, not just on
//! end states. The [`Journal`] records typed [`Event`]s with monotonic
//! sequence numbers into a fixed-capacity ring: old entries are evicted
//! (and counted in [`dropped`](Journal::dropped)) rather than growing
//! without bound, so a long-lived controller under sustained churn keeps a
//! constant memory footprint.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::Json;

/// A controller lifecycle event.
///
/// Participants are recorded as their raw `u32` ids and prefixes as
/// display strings, keeping this crate free of workspace dependencies (it
/// sits below every other crate).
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// A BGP update was processed by the route server; `prefixes` best
    /// paths changed.
    UpdateReceived {
        /// Sending participant.
        from: u32,
        /// Number of prefixes whose best route changed.
        prefixes: usize,
    },
    /// The fast path overlaid a delta on the fabric.
    DeltaApplied {
        /// Non-drop rules installed by the overlay.
        rules: usize,
        /// End-to-end fast-path latency, nanoseconds.
        latency_ns: u64,
    },
    /// Background re-optimization retired the accumulated overlays.
    OverlaysRetired {
        /// Overlay layers removed.
        layers: u32,
    },
    /// An atomic flow-mod batch landed on the fabric: the rule-level diff
    /// a delta-first reconciliation emitted instead of a table swap.
    FlowModBatchApplied {
        /// The controller commit epoch stamped on the batch.
        epoch: u64,
        /// Entries installed.
        adds: usize,
        /// Entries whose buckets were replaced in place.
        modifies: usize,
        /// Entries removed.
        deletes: usize,
    },
    /// One wave of a scheduled fabric update landed and passed its
    /// post-wave safety verification.
    UpdateWaveApplied {
        /// The controller commit epoch of the update.
        epoch: u64,
        /// Zero-based wave index.
        wave: usize,
        /// Total waves in the schedule.
        total: usize,
        /// Flow-mods in this wave.
        mods: usize,
        /// Attempts spent on the wave (1 = no retries).
        attempts: u32,
    },
    /// A fabric update was abandoned mid-flight: a wave exhausted its
    /// retry budget, the remaining waves were skipped, and the waves that
    /// had landed were rolled back.
    UpdateAborted {
        /// The controller commit epoch of the update.
        epoch: u64,
        /// Zero-based index of the wave that kept failing.
        wave: usize,
        /// Waves that had landed before the abort, all rolled back.
        applied: usize,
        /// Total waves the schedule had.
        total: usize,
    },
    /// A full pipeline run completed and was committed to the fabric.
    ReoptimizeCompleted {
        /// Switch rules installed.
        rules: usize,
        /// FEC groups across all viewers.
        groups: usize,
        /// End-to-end reoptimize latency, nanoseconds.
        latency_ns: u64,
    },
    /// Why a pipeline run did the work it did: what had moved since the
    /// previous run, and how much of each cached kind it therefore
    /// recomputed and how much it served as it stood. Every pair is
    /// `(recomputed, reused)`.
    CompileExplained {
        /// Prefixes the route server had marked dirty since the last run.
        dirty_prefixes: usize,
        /// Participants one of whose policies moved since the last run.
        policy_dirty: usize,
        /// Phase-A signature maps, one per viewer: built whole, and held
        /// and patched per dirty prefix.
        units: (usize, usize),
        /// Per-viewer pieces: FEC groups, VNH map, stage-1 rules.
        viewer_pieces: (usize, usize),
        /// Per-receiver stage-2 blocks.
        receiver_blocks: (usize, usize),
        /// Stage-1 segment compositions.
        segments: (usize, usize),
    },
    /// A transactional commit failed and was rolled back.
    TxnRolledBack {
        /// Which pipeline the transaction wrapped (`fastpath`/`reoptimize`).
        stage: String,
        /// Display form of the typed error.
        error: String,
    },
    /// A deterministic fault-injection point fired.
    FaultInjected {
        /// Display form of the injection point.
        point: String,
    },
    /// A supervised BGP session reached Established.
    SessionEstablished {
        /// The peer.
        peer: u32,
    },
    /// A supervised BGP session dropped.
    SessionReset {
        /// The peer.
        peer: u32,
    },
    /// Flap damping crossed the suppress threshold for a peer.
    SessionSuppressed {
        /// The peer.
        peer: u32,
    },
    /// A suppressed peer's penalty decayed below reuse; its pending
    /// prefix changes were released in one batch.
    SessionReleased {
        /// The peer.
        peer: u32,
        /// Prefixes drained from the pending set.
        pending: usize,
    },
    /// A participant policy (or global fragment) changed.
    PolicyChanged {
        /// The participant whose policy changed.
        participant: u32,
        /// `outbound`, `inbound`, or `global`.
        scope: String,
    },
    /// The socket daemon came up and is accepting connections.
    DaemonStarted {
        /// BGP peers configured.
        peers: usize,
        /// Switch channels configured.
        switches: usize,
    },
    /// The socket daemon drained its in-flight work and stopped cleanly.
    DaemonStopped {
        /// Updates processed over the daemon's lifetime.
        updates: u64,
        /// Delta compilations performed over the daemon's lifetime.
        compiles: u64,
    },
    /// A burst of queued updates was coalesced into one delta compile.
    BurstCoalesced {
        /// Updates folded into the batch.
        updates: usize,
        /// Distinct changed prefixes the batch produced.
        prefixes: usize,
    },
    /// An application-defined event.
    Custom {
        /// Event name.
        name: String,
        /// Free-form detail.
        detail: String,
    },
}

impl Event {
    /// The snake_case discriminant, for compact sequence assertions.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::UpdateReceived { .. } => "update_received",
            Event::DeltaApplied { .. } => "delta_applied",
            Event::OverlaysRetired { .. } => "overlays_retired",
            Event::FlowModBatchApplied { .. } => "flowmod_batch_applied",
            Event::UpdateWaveApplied { .. } => "update_wave_applied",
            Event::UpdateAborted { .. } => "update_aborted",
            Event::ReoptimizeCompleted { .. } => "reoptimize_completed",
            Event::CompileExplained { .. } => "compile_explained",
            Event::TxnRolledBack { .. } => "txn_rolled_back",
            Event::FaultInjected { .. } => "fault_injected",
            Event::SessionEstablished { .. } => "session_established",
            Event::SessionReset { .. } => "session_reset",
            Event::SessionSuppressed { .. } => "session_suppressed",
            Event::SessionReleased { .. } => "session_released",
            Event::PolicyChanged { .. } => "policy_changed",
            Event::DaemonStarted { .. } => "daemon_started",
            Event::DaemonStopped { .. } => "daemon_stopped",
            Event::BurstCoalesced { .. } => "burst_coalesced",
            Event::Custom { .. } => "custom",
        }
    }

    /// The event as a JSON object tagged with its `kind`.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("kind".to_string(), Json::from(self.kind()))];
        match self {
            Event::UpdateReceived { from, prefixes } => {
                pairs.push(("from".to_string(), Json::from(*from)));
                pairs.push(("prefixes".to_string(), Json::from(*prefixes)));
            }
            Event::DeltaApplied { rules, latency_ns } => {
                pairs.push(("rules".to_string(), Json::from(*rules)));
                pairs.push(("latency_ns".to_string(), Json::from(*latency_ns)));
            }
            Event::OverlaysRetired { layers } => {
                pairs.push(("layers".to_string(), Json::from(*layers)));
            }
            Event::FlowModBatchApplied {
                epoch,
                adds,
                modifies,
                deletes,
            } => {
                pairs.push(("epoch".to_string(), Json::from(*epoch)));
                pairs.push(("adds".to_string(), Json::from(*adds)));
                pairs.push(("modifies".to_string(), Json::from(*modifies)));
                pairs.push(("deletes".to_string(), Json::from(*deletes)));
            }
            Event::UpdateWaveApplied {
                epoch,
                wave,
                total,
                mods,
                attempts,
            } => {
                pairs.push(("epoch".to_string(), Json::from(*epoch)));
                pairs.push(("wave".to_string(), Json::from(*wave)));
                pairs.push(("total".to_string(), Json::from(*total)));
                pairs.push(("mods".to_string(), Json::from(*mods)));
                pairs.push(("attempts".to_string(), Json::from(u64::from(*attempts))));
            }
            Event::UpdateAborted {
                epoch,
                wave,
                applied,
                total,
            } => {
                pairs.push(("epoch".to_string(), Json::from(*epoch)));
                pairs.push(("wave".to_string(), Json::from(*wave)));
                pairs.push(("applied".to_string(), Json::from(*applied)));
                pairs.push(("total".to_string(), Json::from(*total)));
            }
            Event::ReoptimizeCompleted {
                rules,
                groups,
                latency_ns,
            } => {
                pairs.push(("rules".to_string(), Json::from(*rules)));
                pairs.push(("groups".to_string(), Json::from(*groups)));
                pairs.push(("latency_ns".to_string(), Json::from(*latency_ns)));
            }
            Event::CompileExplained {
                dirty_prefixes,
                policy_dirty,
                units,
                viewer_pieces,
                receiver_blocks,
                segments,
            } => {
                pairs.push(("dirty_prefixes".to_string(), Json::from(*dirty_prefixes)));
                pairs.push(("policy_dirty".to_string(), Json::from(*policy_dirty)));
                for (kind, (recomputed, reused)) in [
                    ("units", units),
                    ("viewer_pieces", viewer_pieces),
                    ("receiver_blocks", receiver_blocks),
                    ("segments", segments),
                ] {
                    pairs.push((format!("{kind}_recomputed"), Json::from(*recomputed)));
                    pairs.push((format!("{kind}_reused"), Json::from(*reused)));
                }
            }
            Event::TxnRolledBack { stage, error } => {
                pairs.push(("stage".to_string(), Json::from(stage.as_str())));
                pairs.push(("error".to_string(), Json::from(error.as_str())));
            }
            Event::FaultInjected { point } => {
                pairs.push(("point".to_string(), Json::from(point.as_str())));
            }
            Event::SessionEstablished { peer }
            | Event::SessionReset { peer }
            | Event::SessionSuppressed { peer } => {
                pairs.push(("peer".to_string(), Json::from(*peer)));
            }
            Event::SessionReleased { peer, pending } => {
                pairs.push(("peer".to_string(), Json::from(*peer)));
                pairs.push(("pending".to_string(), Json::from(*pending)));
            }
            Event::PolicyChanged { participant, scope } => {
                pairs.push(("participant".to_string(), Json::from(*participant)));
                pairs.push(("scope".to_string(), Json::from(scope.as_str())));
            }
            Event::DaemonStarted { peers, switches } => {
                pairs.push(("peers".to_string(), Json::from(*peers)));
                pairs.push(("switches".to_string(), Json::from(*switches)));
            }
            Event::DaemonStopped { updates, compiles } => {
                pairs.push(("updates".to_string(), Json::from(*updates)));
                pairs.push(("compiles".to_string(), Json::from(*compiles)));
            }
            Event::BurstCoalesced { updates, prefixes } => {
                pairs.push(("updates".to_string(), Json::from(*updates)));
                pairs.push(("prefixes".to_string(), Json::from(*prefixes)));
            }
            Event::Custom { name, detail } => {
                pairs.push(("name".to_string(), Json::from(name.as_str())));
                pairs.push(("detail".to_string(), Json::from(detail.as_str())));
            }
        }
        Json::Obj(pairs)
    }
}

/// A journaled event with its monotonic sequence number.
#[derive(Clone, PartialEq, Debug)]
pub struct JournalEntry {
    /// Position in the journal's lifetime stream (starts at 0, never
    /// reused; evicted entries leave a gap at the front, not in the
    /// numbering).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

impl JournalEntry {
    /// The entry as a JSON object (`seq` + the event's tagged members).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("seq".to_string(), Json::from(self.seq))];
        if let Json::Obj(event_pairs) = self.event.to_json() {
            pairs.extend(event_pairs);
        }
        Json::Obj(pairs)
    }
}

#[derive(Debug, Default)]
struct JournalInner {
    entries: VecDeque<JournalEntry>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, thread-safe ring buffer of [`JournalEntry`]s.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<JournalInner>,
}

/// Default ring capacity (events, not bytes).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

impl Default for Journal {
    fn default() -> Self {
        Journal::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// An empty journal holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity: capacity.max(1),
            inner: Mutex::new(JournalInner::default()),
        }
    }

    /// Appends an event, evicting the oldest entry when full.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock().expect("journal lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(JournalEntry { seq, event });
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.inner
            .lock()
            .expect("journal lock")
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events' kinds, oldest first (sequence-assertion
    /// helper for tests).
    pub fn kinds(&self) -> Vec<&'static str> {
        self.inner
            .lock()
            .expect("journal lock")
            .entries
            .iter()
            .map(|e| e.event.kind())
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal lock").entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far to make room.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("journal lock").dropped
    }

    /// Discards every retained entry (sequence numbers keep advancing).
    pub fn clear(&self) {
        self.inner.lock().expect("journal lock").entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> Event {
        Event::SessionReset { peer: n }
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let j = Journal::new(8);
        for i in 0..5 {
            j.record(ev(i));
        }
        let entries = j.entries();
        assert_eq!(entries.len(), 5);
        assert_eq!(j.dropped(), 0);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.event, ev(i as u32));
        }
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_keeps_seq() {
        let j = Journal::new(4);
        for i in 0..10 {
            j.record(ev(i));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.capacity(), 4);
        assert_eq!(j.dropped(), 6);
        let entries = j.entries();
        // The survivors are exactly the last four, seq 6..=9, in order.
        assert_eq!(
            entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(entries[0].event, ev(6));
        assert_eq!(entries[3].event, ev(9));
        // Sequence numbering continues across eviction.
        j.record(ev(10));
        assert_eq!(j.entries().last().unwrap().seq, 10);
        assert_eq!(j.dropped(), 7);
    }

    #[test]
    fn zero_capacity_folds_to_one() {
        let j = Journal::new(0);
        j.record(ev(1));
        j.record(ev(2));
        assert_eq!(j.len(), 1);
        assert_eq!(j.entries()[0].event, ev(2));
    }

    #[test]
    fn kinds_compresses_the_sequence() {
        let j = Journal::default();
        j.record(Event::UpdateReceived {
            from: 1,
            prefixes: 2,
        });
        j.record(Event::DeltaApplied {
            rules: 3,
            latency_ns: 500,
        });
        assert_eq!(j.kinds(), vec!["update_received", "delta_applied"]);
    }

    #[test]
    fn events_serialize_with_kind_tags() {
        let e = Event::TxnRolledBack {
            stage: "fastpath".into(),
            error: "VNH pool 10.0.0.0/30 exhausted".into(),
        };
        let json = e.to_json().to_string();
        assert!(json.starts_with("{\"kind\":\"txn_rolled_back\""), "{json}");
        let parsed = Json::parse(&json).expect("well-formed");
        assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("fastpath"));
        let entry = JournalEntry { seq: 7, event: e };
        let entry_json = Json::parse(&entry.to_json().to_string()).expect("well-formed");
        assert_eq!(entry_json.get("seq").and_then(Json::as_u64), Some(7));
        assert_eq!(
            entry_json.get("kind").and_then(Json::as_str),
            Some("txn_rolled_back")
        );
    }
}
