//! The amplification series: one row of cumulative device, cache and tree
//! counters per closed window of the health engine.
//!
//! The health engine ([`HealthSink`](crate::HealthSink)) already counts
//! device writes, records flushed out of L0 and cache hits and misses for
//! its detectors; a row takes those totals as they stand when a window
//! closes, plus what only the series tracks — device reads and trims,
//! per-block wear, tree height, merges and the blocks written into each
//! level. Rows therefore land every
//! [`HealthConfig::window_ops`](crate::HealthConfig::window_ops) device
//! operations, on the same clock as every other windowed statistic.
//!
//! The engine counts records, not blocks: write amplification is stated
//! when the series is rendered, as `device_writes × block_capacity /
//! flushed_records` — device blocks written per block of user data
//! reaching the tree, the quantity the paper's §III cost model bounds.
//! The rows are kept only by an engine built
//! [`with_series`](crate::HealthSink::with_series).

use std::collections::{BTreeMap, HashMap};

use crate::json::Json;
use crate::Event;

/// One row of the amplification series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRow {
    /// Device-op count (reads + writes + trims + syncs) when the row was taken.
    pub op: u64,
    /// Cumulative device blocks written.
    pub device_writes: u64,
    /// Cumulative device blocks read.
    pub device_reads: u64,
    /// Cumulative device blocks trimmed.
    pub device_trims: u64,
    /// Cumulative records extracted from memtables.
    pub flushed_records: u64,
    /// Cumulative cache hit rate (1 before any lookup).
    pub cache_hit_rate: f64,
    /// Highest per-block write count seen so far (wear proxy).
    pub max_wear: u64,
    /// On-device tree height (levels added so far).
    pub height: u64,
    /// Merges completed so far.
    pub merges: u64,
    /// Cumulative blocks written into each paper-numbered level by merges,
    /// compactions, and pairwise fixes.
    pub level_writes: BTreeMap<usize, u64>,
}

/// The counters a row shares with the health engine, as it holds them.
pub(crate) struct Totals {
    pub(crate) device_ops: u64,
    pub(crate) device_writes: u64,
    pub(crate) flushed_records: u64,
    pub(crate) cache_hit_rate: f64,
}

/// What only the series counts, and the rows taken so far.
#[derive(Debug, Default)]
pub(crate) struct Series {
    device_reads: u64,
    device_trims: u64,
    /// Writes per block, by shard: every shard's device numbers its
    /// blocks from 0.
    wear: HashMap<(Option<usize>, u64), u64>,
    max_wear: u64,
    height: u64,
    merges: u64,
    level_writes: BTreeMap<usize, u64>,
    rows: Vec<SeriesRow>,
}

impl Series {
    /// Fold one plain event, stamped with `shard`, into the series' own
    /// counters.
    pub(crate) fn fold(&mut self, event: &Event, shard: Option<usize>) {
        match *event {
            Event::DeviceWrite { block } => {
                let wear = self.wear.entry((shard, block)).or_insert(0);
                *wear += 1;
                self.max_wear = self.max_wear.max(*wear);
            }
            Event::DeviceRead { .. } => self.device_reads += 1,
            Event::DeviceTrim { .. } => self.device_trims += 1,
            Event::LevelAdded { new_height } => self.height = self.height.max(new_height as u64),
            Event::MergeFinish { target_level, writes, .. } => {
                self.merges += 1;
                *self.level_writes.entry(target_level).or_insert(0) += writes;
            }
            Event::Compaction { level, writes } | Event::PairwiseFix { level, writes, .. } => {
                *self.level_writes.entry(level).or_insert(0) += writes;
            }
            _ => {}
        }
    }

    /// The row the counters make now.
    pub(crate) fn row(&self, totals: &Totals) -> SeriesRow {
        SeriesRow {
            op: totals.device_ops,
            device_writes: totals.device_writes,
            device_reads: self.device_reads,
            device_trims: self.device_trims,
            flushed_records: totals.flushed_records,
            cache_hit_rate: totals.cache_hit_rate,
            max_wear: self.max_wear,
            height: self.height,
            merges: self.merges,
            level_writes: self.level_writes.clone(),
        }
    }

    /// Keep the row the counters make now (a window just closed).
    pub(crate) fn push(&mut self, totals: &Totals) {
        let row = self.row(totals);
        self.rows.push(row);
    }

    /// The rows kept so far.
    pub(crate) fn rows(&self) -> &[SeriesRow] {
        &self.rows
    }
}

impl SeriesRow {
    /// Cumulative write amplification: device blocks written per block of
    /// `block_capacity` records flushed, or 0 until the first flush.
    pub fn write_amp(&self, block_capacity: u64) -> f64 {
        if self.flushed_records == 0 {
            0.0
        } else {
            (self.device_writes * block_capacity.max(1)) as f64 / self.flushed_records as f64
        }
    }
}

/// The series as a JSON array of row objects (per-level writes included);
/// `block_capacity` records fill a block (the unit of `write_amp`).
pub fn series_json(rows: &[SeriesRow], block_capacity: u64) -> Json {
    Json::arr(rows.iter().map(|s| {
        Json::obj([
            ("op", Json::from(s.op)),
            ("device_writes", Json::from(s.device_writes)),
            ("device_reads", Json::from(s.device_reads)),
            ("device_trims", Json::from(s.device_trims)),
            ("flushed_records", Json::from(s.flushed_records)),
            ("write_amp", Json::from(s.write_amp(block_capacity))),
            ("cache_hit_rate", Json::from(s.cache_hit_rate)),
            ("max_wear", Json::from(s.max_wear)),
            ("height", Json::from(s.height)),
            ("merges", Json::from(s.merges)),
            (
                "level_writes",
                Json::Obj(
                    s.level_writes.iter().map(|(l, w)| (format!("L{l}"), Json::from(*w))).collect(),
                ),
            ),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{HealthConfig, HealthSink, SinkHandle};

    fn engine(window_ops: u64) -> (Arc<HealthSink>, SinkHandle) {
        let config = HealthConfig { window_ops, ..HealthConfig::default() };
        let sink = Arc::new(HealthSink::new(config).with_series());
        (sink.clone(), SinkHandle::new(sink))
    }

    #[test]
    fn a_row_is_taken_as_each_window_closes() {
        let (engine, handle) = engine(2);
        for block in 0..5 {
            handle.emit(Event::DeviceWrite { block });
        }
        handle.emit(Event::MemtableFlush { records: 8, full: true });
        handle.emit(Event::CacheHit);
        handle.emit(Event::CacheMiss);

        let rows = engine.series().expect("the engine keeps the series");
        // 5 device ops at window_ops = 2: rows at op 2 and 4, plus the
        // counters as they stand.
        assert_eq!(rows.iter().map(|r| r.op).collect::<Vec<_>>(), [2, 4, 5]);
        assert_eq!(engine.windows_completed(), 2);
        let last = rows.last().unwrap();
        assert_eq!((last.device_writes, last.flushed_records), (5, 8));
        // 5 writes for 8 / 4 = 2 blocks of records: amplification 2.5.
        assert!((last.write_amp(4) - 2.5).abs() < 1e-9);
        assert!((last.cache_hit_rate - 0.5).abs() < 1e-9);
        assert_eq!(last.max_wear, 1);
        // The health report states the same amplification per record.
        let cumulative = engine.report().get("cumulative").get("write_amp").as_f64();
        assert_eq!(cumulative, Some(last.write_amp(1)));

        let json = series_json(&rows, 4);
        assert_eq!(json.items().len(), 3);
        assert_eq!(json.items()[2].get("write_amp").as_f64(), Some(2.5));
    }

    #[test]
    fn wear_tracks_the_hottest_block() {
        let (engine, handle) = engine(100);
        for _ in 0..3 {
            handle.emit(Event::DeviceWrite { block: 9 });
        }
        handle.emit(Event::DeviceWrite { block: 1 });
        assert_eq!(engine.series().unwrap().last().unwrap().max_wear, 3);
    }

    /// Every shard's device numbers its blocks from 0: block 5 of shard 0
    /// and block 5 of shard 1 are two blocks, each written once.
    #[test]
    fn wear_is_counted_per_shard() {
        let (engine, handle) = engine(100);
        for shard in [0, 1] {
            handle.with_shard(shard).emit(Event::DeviceWrite { block: 5 });
        }
        assert_eq!(engine.series().unwrap().last().unwrap().max_wear, 1);
    }
}
