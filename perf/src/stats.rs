//! Order statistics and the noise rule.
//!
//! Wall-clock on a shared box swings by 2× for seconds at a time while
//! counts repeat exactly, so a timed phase is cut into equal rounds of a
//! fixed request count and a timing metric is the **median of its
//! per-round values**, reported with its spread (IQR / median) across
//! rounds.

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 99.9 / 99 / 95 / 90 that leaves at least ten samples
/// beyond it, capped at `cap`; 50 when even p90 is unsupported.
pub fn supported_tail(samples: usize, cap: f64) -> f64 {
    // (percentile, samples beyond it per thousand): integer arithmetic, so
    // that exactly ten beyond counts as ten.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .filter(|&(p, _)| p <= cap)
        .find(|&(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's definition of spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value: per round for a timing (the value is the
    /// median of `rounds` such numbers), in total for a count.
    pub n: u64,
    /// Rounds the value is a median of (1 for a count or a single timing).
    pub rounds: usize,
    /// IQR / median across rounds; 0 when there is one round.
    pub spread: f64,
    /// The per-round values behind a timing (empty for a count).
    pub per_round: Vec<f64>,
}

impl Metric {
    /// A count, ratio or single measurement.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64, n: u64) -> Self {
        Metric { name: name.into(), unit, value, n, rounds: 1, spread: 0.0, per_round: Vec::new() }
    }

    /// A timing under the noise rule: median of per-round values.
    pub fn of_rounds(
        name: impl Into<String>,
        unit: &'static str,
        per_round: &[f64],
        n: u64,
    ) -> Self {
        Metric {
            name: name.into(),
            unit,
            value: median(per_round),
            n,
            rounds: per_round.len(),
            spread: spread(per_round),
            per_round: per_round.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(200_000, 99.9), 99.9);
        assert_eq!(supported_tail(10_000, 99.9), 99.9);
        assert_eq!(supported_tail(9_999, 99.9), 99.0);
        assert_eq!(supported_tail(200_000, 99.0), 99.0);
        assert_eq!(supported_tail(390, 99.9), 95.0);
        assert_eq!(supported_tail(100, 99.9), 90.0);
        assert_eq!(supported_tail(99, 99.9), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn round_metric_is_the_median_with_spread() {
        let m = Metric::of_rounds("x", "us", &[10.0, 30.0, 11.0, 12.0, 9.0], 100);
        assert_eq!(m.value, 11.0);
        assert_eq!(m.rounds, 5);
        assert!(m.spread > 0.0);
    }
}
