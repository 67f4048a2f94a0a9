//! Percentiles, and the across-repetitions arithmetic every reported
//! value goes through.

/// Nearest-rank quantile of an ascending-sorted sample (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values), q)
}

/// The median as `statistics.median` computes it: the middle value, or
/// the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of one timing per repetition. A shared host only ever adds
/// time to a sample, in phases that can outlast several repetitions, so
/// the slow side of the repetitions says what the neighbours did and the
/// fastest one what the program costs.
pub fn fastest(per_rep: &[f64]) -> f64 {
    assert!(!per_rep.is_empty(), "fastest of an empty sample");
    per_rep.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One metric over the repetitions of a run: the reported value, with the
/// smallest and the largest per-repetition value printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcrossReps {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub reps: usize,
}

/// Median / min / max of one value per repetition.
pub fn across_reps(per_rep: &[f64]) -> AcrossReps {
    let v = sorted(per_rep);
    AcrossReps {
        value: median(&v),
        min: v[0],
        max: v[v.len() - 1],
        reps: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        // 20 samples: p95 is the 19th, one sample short of the maximum.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&w, 0.95), 19.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_is_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn reported_value_is_the_median_of_the_repetitions() {
        // Per-repetition medians 4.0, 9.0, 5.0: one slow repetition does
        // not move the reported value, but shows in `max`.
        let r = across_reps(&[4.0, 9.0, 5.0]);
        assert_eq!(r.value, 5.0);
        assert_eq!((r.min, r.max, r.reps), (4.0, 9.0, 3));
        let even = across_reps(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(even.value, 2.5);
    }

    #[test]
    fn the_fastest_repetition_is_what_an_operation_costs() {
        // Five repetitions, four of them slowed by the host.
        assert_eq!(fastest(&[31.0, 12.0, 25.0, 10.5, 40.0]), 10.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }
}
