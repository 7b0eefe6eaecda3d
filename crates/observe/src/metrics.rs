//! A small unified metrics registry: named monotonic counters plus
//! log-bucketed histograms (16 linear sub-buckets per power of two, ~4 %
//! relative width — the same HdrHistogram-style scheme the workload
//! drivers use for latencies, so block counts and nanoseconds share one
//! implementation). Cloning a [`Metrics`] shares the underlying registry,
//! so one instance can be handed to several layers and read once, and the
//! whole registry renders to Prometheus text exposition format via
//! [`Metrics::render_prometheus`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::json::Json;

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

fn bucket_of(value: u64) -> usize {
    // Values below SUB (including 0) get their own exact bucket; in
    // particular 0 lives in bucket 0 rather than sharing a bucket with 1,
    // so quantiles of zero-heavy distributions stay exact.
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    let sub = (value >> shift) - SUB; // 0..SUB within this octave
    ((msb - SUB_BITS as u64 + 1) * SUB + sub) as usize
}

fn bucket_upper_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let octave = (idx / SUB) - 1;
    let sub = idx % SUB;
    // The top octave's bound exceeds u64::MAX; saturate instead of wrapping.
    let bound = u128::from(SUB + sub + 1) << octave;
    bound.min(u128::from(u64::MAX)) as u64
}

/// Smallest value that lands in bucket `idx` (the previous bucket's upper
/// bound, exclusive there, inclusive here — except bucket 0, which holds
/// exactly the value 0).
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        bucket_upper_bound(idx - 1)
    }
}

/// A log-bucketed histogram of `u64` samples: 16 linear sub-buckets per
/// power of two, so quantiles are accurate to ~4 % of the true value
/// (values below 16 are exact; the true min and max are tracked exactly).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: Vec::new() }
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; bucket_of(u64::MAX) + 1];
        }
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, saturating at `u64::MAX`.
    pub fn sum(&self) -> u64 {
        self.sum.min(u128::from(u64::MAX)) as u64
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (exact), or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`, accurate to the bucket's ~4 %
    /// relative width; the true max is returned for `q ≥ 1 − 1/count`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Value at quantile `q ∈ [0, 1]` with linear interpolation *inside*
    /// the landing bucket, so the result moves continuously with `q`
    /// instead of jumping between bucket bounds. Buckets below 16 hold a
    /// single exact value, so small samples resolve exactly; the result is
    /// clamped to the true `[min, max]` of the recorded samples.
    ///
    /// [`Histogram::quantile`] (the bucket upper bound) remains the
    /// conservative estimate; `percentile` is the better point estimate
    /// for reporting rolling p50/p99/p99.9.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if idx < SUB as usize {
                    // Exact single-value bucket: nothing to interpolate.
                    return idx as f64;
                }
                let lo = bucket_lower_bound(idx) as f64;
                let hi = bucket_upper_bound(idx) as f64;
                // Position of the requested rank within this bucket's n
                // samples, spread evenly over the bucket's width.
                let within = (rank - seen) as f64 / n as f64;
                let value = lo + (hi - lo) * within;
                return value.clamp(self.min() as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Median (the 0.5 quantile).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 0.99 quantile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The 0.999 quantile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; bucket_of(u64::MAX) + 1];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(upper_bound, count)` pairs, in increasing
    /// bound order — the raw material for Prometheus `_bucket` lines.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_upper_bound(idx), n))
            .collect()
    }

    /// The summary the windowed reports carry: count, interpolated
    /// p50/p99/p999, exact max.
    pub fn tail_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("p50", Json::from(self.percentile(0.50))),
            ("p99", Json::from(self.percentile(0.99))),
            ("p999", Json::from(self.percentile(0.999))),
            ("max", Json::from(self.max())),
        ])
    }

    /// Render as a JSON object of summary statistics.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("sum", Json::from(self.sum())),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.quantile(0.50))),
            ("p90", Json::from(self.quantile(0.90))),
            ("p99", Json::from(self.quantile(0.99))),
            ("p999", Json::from(self.quantile(0.999))),
        ])
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Build a registry key carrying Prometheus-style labels:
/// `labeled("merge.writes", &[("level", "2")])` → `merge.writes{level="2"}`.
///
/// [`Metrics::render_prometheus`] splits such keys back into base name and
/// label set; plain keys render unlabeled.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Sanitize a dotted metric name into a Prometheus metric name.
fn prom_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len() + 4);
    out.push_str("lsm_");
    for (i, c) in base.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        let ok = ok && !(i == 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Split a registry key into `(base, labels)` where `labels` keeps its
/// surrounding braces (or is empty).
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(at) => (&key[..at], &key[at..]),
        None => (key, ""),
    }
}

/// Merge global labels into a key's own label block, returning the full
/// `{...}` suffix (or an empty string when there are no labels at all).
fn merged_labels(own: &str, global: &[(String, String)]) -> String {
    let own_inner = own.trim_start_matches('{').trim_end_matches('}');
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in global {
        parts.push(format!("{k}=\"{v}\""));
    }
    if !own_inner.is_empty() {
        parts.push(own_inner.to_string());
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Like [`merged_labels`] but appends one extra label (used for `le`).
fn merged_labels_plus(own: &str, global: &[(String, String)], extra: &str) -> String {
    let base = merged_labels(own, global);
    if base.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &base[..base.len() - 1])
    }
}

/// Shared registry of named counters and histograms.
///
/// `Metrics` is cheap to clone (an `Arc` around the registry); all clones
/// observe the same values. Names are conventionally dotted paths like
/// `"device.reads"` or `"merge.writes"`, optionally carrying labels built
/// with [`labeled`].
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Metrics")
            .field("counters", &reg.counters.len())
            .field("gauges", &reg.gauges.len())
            .field("histograms", &reg.histograms.len())
            .finish()
    }
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut reg)
    }

    /// Increment the counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment the counter `name` by `delta`.
    pub fn add(&self, name: &str, delta: u64) {
        self.with_registry(|reg| {
            *reg.counters.entry(name.to_string()).or_insert(0) += delta;
        });
    }

    /// Increment the labeled counter `name{labels}` by `delta`.
    pub fn add_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.add(&labeled(name, labels), delta);
    }

    /// Set the gauge `name` to `value` (last write wins). Gauges carry
    /// instantaneous readings — rolling-window statistics, queue depths,
    /// drop counts — where a monotonic counter would be a lie. Non-finite
    /// values are ignored so the Prometheus rendering stays parseable.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.with_registry(|reg| {
            reg.gauges.insert(name.to_string(), value);
        });
    }

    /// Set the labeled gauge `name{labels}` to `value`.
    pub fn set_gauge_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.set_gauge(&labeled(name, labels), value);
    }

    /// Current value of the gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with_registry(|reg| reg.gauges.get(name).copied())
    }

    /// Copy of all gauges.
    pub fn gauges(&self) -> BTreeMap<String, f64> {
        self.with_registry(|reg| reg.gauges.clone())
    }

    /// Record `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_registry(|reg| {
            reg.histograms.entry(name.to_string()).or_default().record(value);
        });
    }

    /// Current value of the counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_registry(|reg| reg.counters.get(name).copied().unwrap_or(0))
    }

    /// Snapshot of the histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with_registry(|reg| reg.histograms.get(name).cloned())
    }

    /// Copy of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.with_registry(|reg| reg.counters.clone())
    }

    /// Render the whole registry as one JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, sum, ...}}}`.
    pub fn to_json(&self) -> Json {
        self.with_registry(|reg| {
            let counters =
                Json::Obj(reg.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect());
            let gauges =
                Json::Obj(reg.gauges.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect());
            let histograms =
                Json::Obj(reg.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect());
            if reg.gauges.is_empty() {
                Json::obj([("counters", counters), ("histograms", histograms)])
            } else {
                Json::obj([("counters", counters), ("gauges", gauges), ("histograms", histograms)])
            }
        })
    }

    /// Render every counter and histogram in Prometheus text exposition
    /// format. Dotted names become `lsm_`-prefixed underscore names;
    /// label blocks built with [`labeled`] are preserved, and
    /// `global_labels` (e.g. `policy="choose_best"`) are stamped onto
    /// every sample. Histograms render as cumulative `_bucket`/`_sum`/
    /// `_count` families over their occupied buckets.
    pub fn render_prometheus(&self, global_labels: &[(&str, &str)]) -> String {
        let global: Vec<(String, String)> =
            global_labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        self.with_registry(|reg| {
            let mut out = String::new();
            let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
            for (key, value) in &reg.counters {
                let (base, own) = split_key(key);
                let name = prom_name(base);
                if typed.insert(name.clone()) {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                }
                out.push_str(&format!("{name}{} {value}\n", merged_labels(own, &global)));
            }
            for (key, value) in &reg.gauges {
                let (base, own) = split_key(key);
                let name = prom_name(base);
                if typed.insert(name.clone()) {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                }
                out.push_str(&format!("{name}{} {value}\n", merged_labels(own, &global)));
            }
            for (key, hist) in &reg.histograms {
                let (base, own) = split_key(key);
                let name = prom_name(base);
                if typed.insert(name.clone()) {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                }
                let mut cumulative = 0u64;
                for (bound, count) in hist.nonzero_buckets() {
                    cumulative += count;
                    let labels = merged_labels_plus(own, &global, &format!("le=\"{bound}\""));
                    out.push_str(&format!("{name}_bucket{labels} {cumulative}\n"));
                }
                let labels = merged_labels_plus(own, &global, "le=\"+Inf\"");
                out.push_str(&format!("{name}_bucket{labels} {}\n", hist.count()));
                let plain = merged_labels(own, &global);
                out.push_str(&format!("{name}_sum{plain} {}\n", hist.sum()));
                out.push_str(&format!("{name}_count{plain} {}\n", hist.count()));
            }
            out
        })
    }
}

/// Check that `text` is well-formed Prometheus text exposition format.
///
/// Returns the number of sample lines on success, or a description of the
/// first malformed line. Used by the trace-smoke CI step; intentionally
/// strict about the subset this crate emits (comments, `name{labels} value`).
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ") || rest.is_empty()) {
                return Err(format!("line {lineno}: unknown comment form: {line}"));
            }
            continue;
        }
        let (name_part, value_part) = match line.rfind(' ') {
            Some(at) => (&line[..at], &line[at + 1..]),
            None => return Err(format!("line {lineno}: no value: {line}")),
        };
        if value_part.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: bad value {value_part:?}"));
        }
        let (name, labels) = split_key(name_part);
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if !labels.is_empty() {
            let inner = labels
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .ok_or_else(|| format!("line {lineno}: unbalanced label braces: {line}"))?;
            for pair in inner.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: label without '=': {pair:?}"))?;
                if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return Err(format!("line {lineno}: bad label name {k:?}"));
                }
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("line {lineno}: unquoted label value {v:?}"));
                }
            }
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.incr("a");
        m2.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        // p50 of [0,1,2,3,100]: the sub-bucketed scheme is exact below 16,
        // so the third sample resolves to exactly 2.
        assert_eq!(h.quantile(0.5), 2);
        // p99 falls in the last occupied bucket, capped at the true max.
        assert_eq!(h.quantile(0.99), 100);
    }

    #[test]
    fn quantiles_are_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000f64), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - expect).abs() / expect < 0.08, "q={q}: got {got}, expected ≈{expect}");
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p999(), h.quantile(0.999));
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn histograms_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 10_099);
        assert!(a.quantile(0.25) < 100);
        assert!(a.quantile(0.75) >= 9_000);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 200);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.9), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn empty_histogram_edge_quantiles_are_zero() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q} on empty");
        }
        assert_eq!((h.p50(), h.p99(), h.p999()), (0, 0, 0));
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        for value in [0u64, 1, 7, 15, 16, 1_000_000, u64::MAX] {
            let mut h = Histogram::new();
            h.record(value);
            for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
                assert_eq!(h.quantile(q), value, "q={q} of single sample {value}");
            }
            assert_eq!((h.p50(), h.p99(), h.p999()), (value, value, value));
            assert_eq!((h.min(), h.max()), (value, value));
        }
    }

    #[test]
    fn zero_samples_are_exact_and_distinct_from_one() {
        // Regression: 0 used to share value 1's bucket, inflating p50 of
        // zero-heavy distributions (e.g. per-decision regret of ChooseBest).
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.record(0);
        }
        h.record(1);
        assert_eq!(h.p50(), 0, "majority-zero distribution has a zero median");
        assert_eq!(h.quantile(1.0), 1);
        assert_eq!(h.nonzero_buckets(), vec![(0, 3), (1, 1)]);
    }

    #[test]
    fn max_bucket_distribution_saturates_to_true_max() {
        let mut h = Histogram::new();
        h.record(1);
        for _ in 0..99 {
            h.record(u64::MAX);
        }
        assert_eq!(h.p50(), u64::MAX, "p50 deep in the saturated top bucket");
        assert_eq!(h.p99(), u64::MAX);
        assert_eq!(h.p999(), u64::MAX);
        assert_eq!(h.quantile(0.0), 1, "rank 1 still resolves to the smallest sample");
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Interpolation tightens the estimate: strictly closer to the true
        // quantile than the bucket upper bound that `quantile` reports.
        for (q, expect) in [(0.5, 5_000f64), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let coarse = h.quantile(q) as f64;
            let fine = h.percentile(q);
            assert!(
                (fine - expect).abs() <= (coarse - expect).abs() + 1e-9,
                "q={q}: percentile {fine} further from {expect} than quantile {coarse}"
            );
            assert!((fine - expect).abs() / expect < 0.05, "q={q}: {fine} vs {expect}");
        }
        // Monotone in q and clamped to the true extremes.
        let mut prev = -1.0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.percentile(q);
            assert!(v >= prev, "percentile not monotone at q={q}");
            prev = v;
        }
        assert!(h.percentile(0.0) >= 1.0);
        assert!(h.percentile(1.0) <= 10_000.0);
    }

    #[test]
    fn percentile_is_exact_below_sixteen_and_on_empty() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0.0);
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0.0);
        assert_eq!(h.percentile(0.5), 3.0, "exact buckets interpolate to themselves");
        assert_eq!(h.percentile(1.0), 15.0);
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.percentile(0.5), 1_000_000.0, "single sample clamps to itself");
    }

    #[test]
    fn gauges_set_read_and_render() {
        let m = Metrics::new();
        m.set_gauge("health.window.write_amp", 2.75);
        m.set_gauge("health.window.write_amp", 3.25); // last write wins
        m.set_gauge_with("health.window.hit_rate", &[("shard", "0")], 0.5);
        m.set_gauge("bad", f64::NAN); // ignored: would break the exposition
        assert_eq!(m.gauge("health.window.write_amp"), Some(3.25));
        assert_eq!(m.gauge("health.window.hit_rate{shard=\"0\"}"), Some(0.5));
        assert_eq!(m.gauge("bad"), None);
        assert_eq!(m.gauges().len(), 2);

        let text = m.render_prometheus(&[("bench", "t")]);
        assert!(text.contains("# TYPE lsm_health_window_write_amp gauge"), "{text}");
        assert!(text.contains("lsm_health_window_write_amp{bench=\"t\"} 3.25"), "{text}");
        assert!(text.contains("lsm_health_window_hit_rate{bench=\"t\",shard=\"0\"} 0.5"), "{text}");
        validate_prometheus(&text).expect("gauge rendering validates");

        let doc = m.to_json().render();
        assert!(doc.contains(r#""gauges""#), "{doc}");
    }

    #[test]
    fn metrics_render_to_json() {
        let m = Metrics::new();
        m.add("device.reads", 7);
        m.observe("merge.writes", 8);
        let doc = m.to_json().render();
        assert!(doc.contains(r#""device.reads":7"#), "{doc}");
        assert!(doc.contains(r#""merge.writes":{"count":1"#), "{doc}");
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev);
            assert!(v <= bucket_upper_bound(b));
            prev = b;
        }
    }

    #[test]
    fn labeled_keys_render_with_labels() {
        assert_eq!(labeled("merge.writes", &[("level", "2")]), "merge.writes{level=\"2\"}");
        assert_eq!(labeled("a", &[]), "a");
        assert_eq!(labeled("a", &[("k", "x\"y")]), "a{k=\"x\\\"y\"}");
    }

    #[test]
    fn prometheus_rendering_is_valid_and_labeled() {
        let m = Metrics::new();
        m.add("device.writes", 42);
        m.add_with("merge.level_writes", &[("level", "2")], 7);
        m.add_with("merge.level_writes", &[("level", "3")], 9);
        m.observe("merge.writes", 5);
        m.observe("merge.writes", 500);
        let text = m.render_prometheus(&[("policy", "choose_best")]);

        assert!(text.contains("# TYPE lsm_device_writes counter"), "{text}");
        assert!(text.contains("lsm_device_writes{policy=\"choose_best\"} 42"), "{text}");
        assert!(
            text.contains("lsm_merge_level_writes{policy=\"choose_best\",level=\"2\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE lsm_merge_writes histogram"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lsm_merge_writes_sum{policy=\"choose_best\"} 505"), "{text}");

        let samples = validate_prometheus(&text).expect("rendering validates");
        assert!(samples >= 8, "{samples} samples in:\n{text}");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        for v in [1u64, 1, 2, 100] {
            m.observe("h", v);
        }
        let text = m.render_prometheus(&[]);
        assert!(text.contains("lsm_h_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("lsm_h_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("lsm_h_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lsm_h_count 4"), "{text}");
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("lsm_ok 1\n").is_ok());
        assert!(validate_prometheus("bad name 1\n").is_err());
        assert!(validate_prometheus("lsm_x{le=3} 1\n").is_err(), "unquoted label value");
        assert!(validate_prometheus("lsm_x{} nope\n").is_err(), "non-numeric value");
        assert!(validate_prometheus("9leading 1\n").is_err());
    }
}
