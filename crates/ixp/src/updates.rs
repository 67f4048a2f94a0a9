//! Bursty BGP update traces, calibrated to §4.3.2 and Table 1.
//!
//! The paper's incremental-compilation design rests on three measured
//! characteristics of IXP BGP churn, all of which the generator is
//! calibrated to reproduce (and the tests verify):
//!
//! 1. **stability** — only 10–14% of prefixes see any update all week;
//! 2. **small bursts** — updates arrive in bursts; 75% of bursts touch at
//!    most three prefixes, with a heavy tail (one 1000+-prefix burst per
//!    week);
//! 3. **quiet gaps** — inter-burst time is ≥ 10 s in 75% of cases and
//!    over a minute half the time.
//!
//! Session resets are injected separately: a reset dumps the peer's whole
//! table as withdraw+re-announce churn, which Table 1's methodology (and
//! ours) detects and discards from the update counts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_bgp::msg::UpdateMessage;
use sdx_net::{ParticipantId, Prefix};

use crate::topology::SyntheticIxp;

/// Trace generation knobs.
#[derive(Clone, Copy, Debug)]
pub struct TraceParams {
    /// Trace duration in seconds (the paper uses a six-day window).
    pub duration_secs: u64,
    /// Fraction of prefixes eligible to churn (0.10–0.14 per Table 1).
    pub churny_fraction: f64,
    /// Mean session resets over the whole trace (small integer).
    pub session_resets: usize,
    /// Burst-rate multiplier: scales burst arrival frequency (gaps are
    /// divided by it). 1.0 reproduces the §4.3.2 quantiles; Table 1
    /// calibration raises it for the churnier IXPs.
    pub burst_rate_multiplier: f64,
    /// Path-exploration amplification: how many collector-observed update
    /// messages one routing event produces on average. A RIS collector
    /// hears every event once per peer session, times BGP path
    /// exploration, so Table 1's message counts are two orders of
    /// magnitude above the event counts. Only the *statistics* are
    /// amplified — one representative message is materialized per event.
    pub exploration_mean: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            duration_secs: 6 * 24 * 3600,
            churny_fraction: 0.12,
            session_resets: 2,
            burst_rate_multiplier: 1.0,
            exploration_mean: 1.0,
            seed: 99,
        }
    }
}

/// One burst of updates, all arriving at the same instant.
#[derive(Clone, Debug)]
pub struct UpdateBurst {
    /// Arrival time within the trace, seconds.
    pub at: f64,
    /// The updates, attributed to their announcing participant.
    pub updates: Vec<(ParticipantId, UpdateMessage)>,
    /// True when this burst is session-reset churn (to be discarded from
    /// update statistics, per the Table 1 methodology).
    pub is_session_reset: bool,
}

impl UpdateBurst {
    /// Number of distinct prefixes the burst touches.
    pub fn prefix_count(&self) -> usize {
        let mut ps: Vec<Prefix> = self
            .updates
            .iter()
            .flat_map(|(_, u)| u.nlri.iter().chain(u.withdrawn.iter()).copied())
            .collect();
        ps.sort();
        ps.dedup();
        ps.len()
    }
}

/// Aggregate statistics over a generated trace — the Table 1 columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Materialized update messages excluding session-reset churn.
    pub updates: u64,
    /// Collector-observed messages (events × path-exploration factor) —
    /// the Table 1 "BGP updates" column.
    pub observed_updates: u64,
    /// Updates attributed to session resets (discarded).
    pub reset_updates: u64,
    /// Percent of table prefixes that saw ≥1 (non-reset) update.
    pub pct_prefixes_with_updates: f64,
    /// Number of bursts (excluding resets).
    pub bursts: usize,
}

/// Samples an inter-burst gap matching the paper's quantiles:
/// P(gap ≥ 10 s) = 0.75 and P(gap ≥ 60 s) = 0.5.
fn sample_gap(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    if u < 0.25 {
        // Short gaps inside churny periods: 0.5–10 s.
        0.5 + rng.gen::<f64>() * 9.5
    } else if u < 0.5 {
        // 10–60 s.
        10.0 + rng.gen::<f64>() * 50.0
    } else {
        // Upper half: ≥ 60 s, exponential tail (mean 30 s extra keeps the
        // weekly burst count near the measured traces').
        60.0 - 30.0 * rng.gen::<f64>().max(1e-12).ln()
    }
}

/// Samples a burst size (prefixes) matching "75% of bursts affect ≤ 3
/// prefixes" with a heavy tail reaching 1000+.
fn sample_burst_size(rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    if u < 0.75 {
        rng.gen_range(1..=3)
    } else if u < 0.999 {
        // Pareto-ish mid tail: most of the touched-prefix mass lives here.
        let x: f64 = rng.gen::<f64>().max(1e-12);
        (4.0 + 2.0 / x.powf(0.9)).min(800.0) as usize
    } else {
        // Rare table-scale event (the paper saw one >1000-prefix burst in
        // a week).
        rng.gen_range(1000..=1500)
    }
}

/// A generated trace plus its (already computed) statistics.
#[derive(Clone, Debug)]
pub struct UpdateTrace {
    /// Bursts in arrival order (session resets interleaved).
    pub bursts: Vec<UpdateBurst>,
    /// Aggregate statistics (resets discarded, as in Table 1).
    pub stats: TraceStats,
}

/// Generates a trace against the given IXP's routing table.
pub fn generate(ixp: &SyntheticIxp, params: &TraceParams) -> UpdateTrace {
    let mut rng = StdRng::seed_from_u64(params.seed);

    // The churny subset: the same ~12% of prefixes see all the updates.
    // (Per-announcer so withdraw/re-announce attribution stays honest.)
    let mut churny: Vec<(ParticipantId, Prefix)> = Vec::new();
    for (cfg, prefixes) in ixp.participants.iter().zip(&ixp.announcements) {
        for &p in prefixes {
            churny.push((cfg.id, p));
        }
    }
    churny.shuffle(&mut rng);
    let total_prefixes = churny.len();
    churny.truncate(((total_prefixes as f64) * params.churny_fraction).round() as usize);

    let mut bursts = Vec::new();
    let mut touched: std::collections::BTreeSet<Prefix> = Default::default();
    let mut updates: u64 = 0;
    let mut observed: u64 = 0;
    let mut t = 0.0f64;
    while t < params.duration_secs as f64 && !churny.is_empty() {
        t += sample_gap(&mut rng) / params.burst_rate_multiplier.max(1e-9);
        if t >= params.duration_secs as f64 {
            break;
        }
        let size = sample_burst_size(&mut rng).min(churny.len());
        let mut msgs = Vec::with_capacity(size);
        for _ in 0..size {
            let &(owner, prefix) = churny.choose(&mut rng).expect("non-empty");
            touched.insert(prefix);
            let cfg = ixp
                .participants
                .iter()
                .find(|c| c.id == owner)
                .expect("known owner");
            // Alternate between a path change (re-announce with a longer
            // path) and a flap (withdraw); both change the best route.
            let msg = if rng.gen_bool(0.8) {
                let prepends = rng.gen_range(1..4usize);
                let mut path = vec![cfg.asn.0; prepends];
                path.push(400_000 + owner.0 * 8 + rng.gen_range(0..4));
                cfg.announce([prefix], &path)
            } else {
                UpdateMessage::withdraw([prefix])
            };
            msgs.push((owner, msg));
            // Path-exploration amplification for the observed count.
            let k = (params.exploration_mean * (0.5 + rng.gen::<f64>())).max(1.0);
            observed += k.round() as u64;
        }
        updates += msgs.len() as u64;
        bursts.push(UpdateBurst {
            at: t,
            updates: msgs,
            is_session_reset: false,
        });
    }

    // Inject session resets at random times: each dumps the peer's full
    // table (withdraw burst followed by re-announcement burst).
    let mut reset_updates = 0u64;
    for _ in 0..params.session_resets {
        let idx = rng.gen_range(0..ixp.participants.len());
        let cfg = &ixp.participants[idx];
        let prefixes = &ixp.announcements[idx];
        if prefixes.is_empty() {
            continue;
        }
        let at = rng.gen::<f64>() * params.duration_secs as f64;
        let withdraw = UpdateMessage::withdraw(prefixes.iter().copied());
        let reannounce = cfg.announce(prefixes.iter().copied(), &[cfg.asn.0]);
        reset_updates += 2 * prefixes.len() as u64;
        bursts.push(UpdateBurst {
            at,
            updates: vec![(cfg.id, withdraw), (cfg.id, reannounce)],
            is_session_reset: true,
        });
    }
    bursts.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));

    let n_bursts = bursts.iter().filter(|b| !b.is_session_reset).count();
    let stats = TraceStats {
        updates,
        observed_updates: observed,
        reset_updates,
        pct_prefixes_with_updates: 100.0 * touched.len() as f64 / total_prefixes as f64,
        bursts: n_bursts,
    };
    UpdateTrace { bursts, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build, TopologyParams};

    fn ixp() -> SyntheticIxp {
        build(&TopologyParams {
            participants: 50,
            prefixes: 5000,
            ..Default::default()
        })
    }

    fn day_trace() -> UpdateTrace {
        generate(
            &ixp(),
            &TraceParams {
                duration_secs: 24 * 3600,
                ..Default::default()
            },
        )
    }

    #[test]
    fn deterministic_given_seed() {
        let a = day_trace();
        let b = day_trace();
        assert_eq!(a.bursts.len(), b.bursts.len());
        assert_eq!(a.stats.updates, b.stats.updates);
    }

    #[test]
    fn burst_size_quantile_matches_paper() {
        let trace = day_trace();
        let sizes: Vec<usize> = trace
            .bursts
            .iter()
            .filter(|b| !b.is_session_reset)
            .map(|b| b.prefix_count())
            .collect();
        assert!(sizes.len() > 200, "enough bursts to measure");
        let small = sizes.iter().filter(|&&s| s <= 3).count();
        let frac = small as f64 / sizes.len() as f64;
        // §4.3.2: "in 75% of the cases, update bursts affected no more
        // than three prefixes". Generator tolerance ±7pp.
        assert!(
            (0.68..=0.82).contains(&frac),
            "P(burst ≤ 3 prefixes) = {frac:.2}"
        );
    }

    #[test]
    fn gap_quantiles_match_paper() {
        let trace = day_trace();
        let times: Vec<f64> = trace
            .bursts
            .iter()
            .filter(|b| !b.is_session_reset)
            .map(|b| b.at)
            .collect();
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.len() > 100);
        let ge10 = gaps.iter().filter(|&&g| g >= 10.0).count() as f64 / gaps.len() as f64;
        let ge60 = gaps.iter().filter(|&&g| g >= 60.0).count() as f64 / gaps.len() as f64;
        // §4.3.2: inter-arrival ≥ 10 s 75% of the time; ≥ 1 min half the
        // time. Loose tolerances — the shape is what matters.
        assert!((0.65..=0.85).contains(&ge10), "P(gap≥10s) = {ge10:.2}");
        assert!((0.40..=0.60).contains(&ge60), "P(gap≥60s) = {ge60:.2}");
    }

    #[test]
    fn churny_fraction_bounds_touched_prefixes() {
        // A week-long trace touches at most the churny subset: 10–14%.
        let trace = generate(&ixp(), &TraceParams::default());
        assert!(
            trace.stats.pct_prefixes_with_updates <= 14.0,
            "{}",
            trace.stats.pct_prefixes_with_updates
        );
        assert!(
            trace.stats.pct_prefixes_with_updates >= 8.0,
            "{}",
            trace.stats.pct_prefixes_with_updates
        );
    }

    #[test]
    fn session_resets_are_flagged_and_separated() {
        let trace = generate(
            &ixp(),
            &TraceParams {
                session_resets: 3,
                ..Default::default()
            },
        );
        let resets: Vec<&UpdateBurst> =
            trace.bursts.iter().filter(|b| b.is_session_reset).collect();
        assert!(!resets.is_empty());
        assert!(trace.stats.reset_updates > 0);
        // Reset churn is not in the update count.
        let replayed: u64 = trace
            .bursts
            .iter()
            .filter(|b| !b.is_session_reset)
            .map(|b| b.updates.len() as u64)
            .sum();
        assert_eq!(replayed, trace.stats.updates);
    }

    #[test]
    fn updates_replay_through_route_server() {
        let ixp = ixp();
        let mut rs = ixp.route_server();
        let trace = generate(
            &ixp,
            &TraceParams {
                duration_secs: 3600,
                ..Default::default()
            },
        );
        let mut changed = 0usize;
        for b in &trace.bursts {
            for (from, u) in &b.updates {
                changed += rs.process_update(*from, u).len();
            }
        }
        assert!(changed > 0, "trace must actually change routes");
    }

    #[test]
    fn bursts_are_time_ordered() {
        let trace = day_trace();
        assert!(trace.bursts.windows(2).all(|w| w[0].at <= w[1].at));
    }
}
