//! Rolling-window statistics: the signal plane behind the windowed engine.
//!
//! Everything else in this crate is cumulative-since-startup, which is the
//! wrong shape for detecting a 30-second write stall or a cache hit-rate
//! collapse mid-run — by the time a cumulative average moves, the incident
//! is over. This module keeps a ring of K *epoch* sub-aggregates and
//! rotates it on an externally supplied tick (the windowed engine,
//! [`HealthSink`](crate::HealthSink), rotates on device-op count, so
//! rotation is deterministic under [`TickClock`](crate::TickClock) and
//! identical across same-seed runs):
//!
//! - [`WindowedHistogram`] — a ring of [`Histogram`]s. Samples land in the
//!   current epoch; reads merge the whole ring into one rolling histogram
//!   covering the last K epochs. Rotation drops the oldest epoch.
//! - [`RateWindow`] — a ring of plain counters with the same rotation,
//!   plus an all-time cumulative total (the health engine reconciles its
//!   cumulative view exactly against the metrics registry).
//!
//! Both are single-writer values; the engine wraps them in its own mutex
//! alongside the rest of its state.

use crate::json::Json;
use crate::metrics::Histogram;

/// A ring of K epoch histograms merged on read: rolling latency quantiles
/// over the last K rotation epochs.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    epochs: Vec<Histogram>,
    head: usize,
    cumulative: Histogram,
}

impl WindowedHistogram {
    /// A window of `epochs` empty sub-histograms (at least 1).
    pub fn new(epochs: usize) -> Self {
        let epochs = epochs.max(1);
        WindowedHistogram {
            epochs: vec![Histogram::new(); epochs],
            head: 0,
            cumulative: Histogram::new(),
        }
    }

    /// Record one sample into the current epoch (and the all-time view).
    pub fn record(&mut self, value: u64) {
        self.epochs[self.head].record(value);
        self.cumulative.record(value);
    }

    /// Advance to the next epoch, dropping the oldest one.
    pub fn rotate(&mut self) {
        self.head = (self.head + 1) % self.epochs.len();
        self.epochs[self.head] = Histogram::new();
    }

    /// Merge of every live epoch: the rolling histogram over the last K
    /// epochs.
    pub fn rolling(&self) -> Histogram {
        let mut merged = Histogram::new();
        for epoch in &self.epochs {
            merged.merge(epoch);
        }
        merged
    }

    /// The all-time histogram (never rotated) — the long-run baseline
    /// drift detectors compare against.
    pub fn cumulative(&self) -> &Histogram {
        &self.cumulative
    }

    /// Summary of the rolling view as JSON ([`Histogram::tail_json`]).
    pub fn to_json(&self) -> Json {
        self.rolling().tail_json()
    }
}

/// A ring of K epoch counters with an all-time total: rolling event rates
/// (ops per window, backpressure stalls per window, …).
#[derive(Debug, Clone)]
pub struct RateWindow {
    epochs: Vec<u64>,
    head: usize,
    total: u64,
}

impl RateWindow {
    /// A window of `epochs` zeroed counters (at least 1).
    pub fn new(epochs: usize) -> Self {
        RateWindow { epochs: vec![0; epochs.max(1)], head: 0, total: 0 }
    }

    /// Add `n` to the current epoch (and the all-time total).
    pub fn add(&mut self, n: u64) {
        self.epochs[self.head] += n;
        self.total += n;
    }

    /// Add 1 to the current epoch.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Advance to the next epoch, dropping the oldest one.
    pub fn rotate(&mut self) {
        self.head = (self.head + 1) % self.epochs.len();
        self.epochs[self.head] = 0;
    }

    /// Sum over every live epoch: the rolling count.
    pub fn rolling(&self) -> u64 {
        self.epochs.iter().sum()
    }

    /// The current (still-filling) epoch's count.
    pub fn current(&self) -> u64 {
        self.epochs[self.head]
    }

    /// All-time total across every epoch ever, including rotated-out ones.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_rolls_off_old_epochs() {
        let mut w = WindowedHistogram::new(3);
        w.record(100);
        w.rotate();
        w.record(200);
        w.rotate();
        w.record(300);
        assert_eq!(w.rolling().count(), 3, "all three epochs live");
        assert_eq!(w.rolling().min(), 100);
        w.rotate(); // epoch holding 100 is dropped
        assert_eq!(w.rolling().count(), 2);
        assert_eq!(w.rolling().min(), 200);
        w.rotate();
        w.rotate();
        assert_eq!(w.rolling().count(), 0, "every sample aged out");
        assert_eq!(w.cumulative().count(), 3, "cumulative view never rotates");
    }

    #[test]
    fn windowed_histogram_rolling_merges_the_ring() {
        let mut w = WindowedHistogram::new(4);
        w.record(10);
        w.rotate();
        w.record(20);
        assert_eq!((w.rolling().min(), w.rolling().max()), (10, 20));
        assert_eq!(w.rolling().count(), 2);
        let doc = w.to_json().render();
        assert!(doc.contains("\"count\":2"), "{doc}");
    }

    #[test]
    fn rate_window_rolls_and_totals() {
        let mut r = RateWindow::new(2);
        r.add(5);
        r.rotate();
        r.incr();
        assert_eq!(r.current(), 1);
        assert_eq!(r.rolling(), 6);
        r.rotate(); // the 5-epoch is dropped
        assert_eq!(r.rolling(), 1);
        assert_eq!(r.current(), 0);
        r.rotate();
        assert_eq!(r.rolling(), 0);
        assert_eq!(r.total(), 6, "total survives every rotation");
    }

    #[test]
    fn single_epoch_windows_degenerate_sanely() {
        let mut w = WindowedHistogram::new(0); // clamped to 1
        w.record(7);
        assert_eq!(w.rolling().count(), 1);
        w.rotate();
        assert_eq!(w.rolling().count(), 0);
        let mut r = RateWindow::new(1);
        r.add(3);
        assert_eq!(r.rolling(), r.current(), "one epoch: the ring is the current epoch");
        r.rotate();
        assert_eq!(r.rolling(), 0);
    }
}
