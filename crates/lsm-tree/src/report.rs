//! The report: one `lsm-report/v1` JSON document that says what a tree
//! was doing — at the end of an `lsm_doctor` run, or when a torture cycle
//! failed (or was asked to dump).
//!
//! A [`Report`] is `schema` and `reason`, then any of `seed`, `repro` and
//! `error`, then the sections its producer has, in this order: `tree` (one
//! entry per shard, one row per level: topology, capacity, the
//! [`LevelStats`](crate::LevelStats) counters, and the waste bookkeeping
//! `m_i` and `w_i` of §II-B), `device` and `cache` (one entry per shard),
//! `wear` (one entry per in-memory device), `ledger`, `health`, `tail` and
//! `series` (the windowed engine's reports), `scheduler`, `flight` (a bounded
//! [`VecSink`]) and `metrics`. Reports are deterministic — no wall-clock
//! time, process ids or absolute paths — so two same-seed torture runs
//! write byte-identical files. [`validate_report`] is the one check of the
//! schema and `lsm_bench::report::render_report` the one text form.

use std::io::Write as _;
use std::path::Path;

use observe::Shape::{Arr, Int, Num, Obj, OneOf, Str};
use observe::{series_json, HealthSink, Json, Metrics, Shape, VecSink};
use sim_ssd::WearSnapshot;

use crate::policy::ledger::DecisionLedger;
use crate::sharded::ShardedLsmTree;
use crate::tree::LsmTree;

/// Schema tag of the reports this module writes.
pub const SCHEMA: &str = "lsm-report/v1";

/// Builder for one report (see module docs). Each section lands at its
/// place in the schema's order, whenever it is added; adding one again
/// replaces it.
#[derive(Debug, Clone)]
pub struct Report {
    sections: Vec<(&'static str, Json)>,
}

/// The schema tag alone: sections are added to it, and a reason before it
/// is written.
impl Default for Report {
    fn default() -> Self {
        Report { sections: vec![("schema", Json::from(SCHEMA))] }
    }
}

/// Shard `shard`'s entries of the `tree`, `device` and `cache` sections.
fn shard_entries(shard: usize, tree: &LsmTree) -> [Json; 3] {
    let stats = tree.stats();
    let b = tree.config().block_capacity();
    let levels = Json::arr(tree.levels().iter().enumerate().map(|(i, level)| {
        let paper = i + 1;
        let l = stats.level(paper);
        Json::obj([
            ("level", Json::from(paper)),
            ("blocks", Json::from(level.num_blocks())),
            ("capacity_blocks", Json::from(tree.config().level_capacity_blocks(paper))),
            ("records", Json::from(level.records())),
            ("waste", Json::from(level.waste_factor(b))),
            ("min_key", level.min_key().map(Json::from).unwrap_or(Json::Null)),
            ("max_key", level.max_key().map(Json::from).unwrap_or(Json::Null)),
            ("m_i", Json::from(level.merges_since_compaction)),
            ("w_i", Json::from(level.waste_delta)),
            ("merges_in", Json::from(l.merges_in)),
            ("blocks_written", Json::from(l.blocks_written)),
            ("blocks_read", Json::from(l.blocks_read)),
            ("blocks_preserved", Json::from(l.blocks_preserved)),
            ("records_in", Json::from(l.records_in)),
            ("compactions", Json::from(l.compactions)),
            ("compaction_writes", Json::from(l.compaction_writes)),
            ("pairwise_fixes", Json::from(l.pairwise_fixes)),
        ])
    }));
    let degraded = tree
        .degraded_ranges()
        .into_iter()
        .map(|(lo, hi)| Json::arr([Json::from(lo), Json::from(hi)]));
    let (io, cache) = (tree.store().io_snapshot(), tree.store().cache_stats());
    [
        Json::obj([
            ("shard", Json::from(shard)),
            ("policy", Json::from(tree.policy_name())),
            ("height", Json::from(tree.height())),
            ("memtable_records", Json::from(tree.memtable().len())),
            ("record_count", Json::from(tree.record_count())),
            ("puts", Json::from(stats.puts)),
            ("deletes", Json::from(stats.deletes)),
            ("lookups", Json::from(stats.lookups())),
            ("lookup_block_reads", Json::from(stats.lookup_block_reads())),
            ("bloom_skips", Json::from(stats.bloom_skips())),
            ("levels", levels),
            ("degraded_ranges", Json::arr(degraded)),
        ]),
        Json::obj([
            ("shard", Json::from(shard)),
            ("reads", Json::from(io.reads)),
            ("writes", Json::from(io.writes)),
            ("trims", Json::from(io.trims)),
            ("syncs", Json::from(io.syncs)),
        ]),
        Json::obj([
            ("shard", Json::from(shard)),
            ("hits", Json::from(cache.hits)),
            ("misses", Json::from(cache.misses)),
            ("evictions", Json::from(cache.evictions)),
            ("resident_bytes", Json::from(cache.resident)),
            ("capacity_bytes", Json::from(cache.capacity)),
        ]),
    ]
}

impl Report {
    /// Start a report; `reason` says why it exists ("lsm_doctor run",
    /// "torture failure: read", …).
    pub fn new(reason: &str) -> Self {
        Report::default().reason(reason)
    }

    fn push(mut self, key: &'static str, value: Json) -> Self {
        self.sections.retain(|(k, _)| *k != key);
        // The schema's order: the head, then the sections as validated.
        let keys = ["schema", "reason"].into_iter().chain(SECTIONS.iter().map(|(k, _)| *k));
        let rank = |key: &str| keys.clone().position(|k| k == key);
        let at = self.sections.partition_point(|(k, _)| rank(k) < rank(key));
        self.sections.insert(at, (key, value));
        self
    }

    /// Why the report exists.
    pub fn reason(self, reason: &str) -> Self {
        self.push("reason", Json::from(reason))
    }

    /// The seed whose run produced this report.
    pub fn seed(self, seed: u64) -> Self {
        self.push("seed", Json::from(seed))
    }

    /// The exact command that replays the run.
    pub fn repro(self, command: &str) -> Self {
        self.push("repro", Json::from(command))
    }

    /// The error message that triggered the dump.
    pub fn error(self, message: &str) -> Self {
        self.push("error", Json::from(message))
    }

    /// The `tree`, `device` and `cache` sections of a one-shard tree.
    pub fn tree(self, tree: &LsmTree) -> Self {
        self.shards([shard_entries(0, tree)])
    }

    /// The `tree`, `device` and `cache` sections: one entry per shard of
    /// `tree`, each taken under its shard's read lock.
    pub fn sharded(self, tree: &ShardedLsmTree) -> Self {
        let shard = |i| tree.with_shard_read(i, |t| shard_entries(i, t));
        self.shards((0..tree.shard_count()).map(shard))
    }

    fn shards(self, shards: impl IntoIterator<Item = [Json; 3]>) -> Self {
        let shards: Vec<[Json; 3]> = shards.into_iter().collect();
        let column = |i: usize| Json::arr(shards.iter().map(|entries| entries[i].clone()));
        self.push("tree", column(0)).push("device", column(1)).push("cache", column(2))
    }

    /// Per-block wear of each shard's in-memory device, as a histogram
    /// plus a downsampled heatmap of `cells` cells.
    pub fn wear(self, devices: &[WearSnapshot], cells: usize) -> Self {
        let entries = devices.iter().enumerate().map(|(shard, wear)| match wear.to_json(cells) {
            Json::Obj(pairs) => Json::Obj(
                [("shard".to_string(), Json::from(shard))].into_iter().chain(pairs).collect(),
            ),
            other => other,
        });
        self.push("wear", Json::arr(entries))
    }

    /// The decision ledger's rows, totals, and cumulative regret.
    pub fn ledger(self, ledger: &DecisionLedger) -> Self {
        self.push("ledger", ledger.to_json())
    }

    /// The windowed engine's reports: `lsm-health/v1` as the `health`
    /// section and, from an engine that keeps the tail, `lsm-tail/v2` as
    /// the `tail` section — what the write path was waiting on.
    pub fn health(self, engine: &HealthSink) -> Self {
        let report = self.push("health", engine.report());
        match engine.tail_report() {
            Some(tail) => report.push("tail", tail),
            None => report,
        }
    }

    /// The windowed engine's amplification series as the `series` section,
    /// one row per window, from an engine that keeps it; `block_capacity`
    /// records fill a block, the unit of each row's `write_amp`.
    pub fn series(self, engine: &HealthSink, block_capacity: u64) -> Self {
        match engine.series() {
            Some(rows) => self.push("series", series_json(&rows, block_capacity)),
            None => self,
        }
    }

    /// The scheduler's section ([`ShardedLsmTree::scheduler_section_json`]).
    pub fn scheduler(self, section: Json) -> Self {
        self.push("scheduler", section)
    }

    /// A recorder's retained entries, drop count, and open spans.
    pub fn flight(self, recorder: &VecSink) -> Self {
        self.push("flight", recorder.to_json())
    }

    /// A metrics registry's counters and histograms.
    pub fn metrics(self, metrics: &Metrics) -> Self {
        self.push("metrics", metrics.to_json())
    }

    /// The report as one JSON object, sections in the schema's order.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.sections.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    /// Write the report (pretty-printed, trailing newline) to `path`,
    /// creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().render_pretty().as_bytes())?;
        f.sync_all()
    }
}

const LEVEL: Shape = Obj(&[
    ("level", Int),
    ("blocks", Int),
    ("capacity_blocks", Int),
    ("records", Int),
    ("m_i", Int),
    ("w_i", Num),
    ("merges_in", Int),
    ("blocks_written", Int),
    ("blocks_read", Int),
    ("blocks_preserved", Int),
    ("records_in", Int),
    ("compactions", Int),
    ("compaction_writes", Int),
    ("pairwise_fixes", Int),
]);
const SHARD: Shape =
    Obj(&[("shard", Int), ("policy", Str), ("height", Int), ("levels", Arr(&LEVEL))]);
const DEVICE: Shape = Obj(&[("shard", Int), ("reads", Int), ("writes", Int), ("syncs", Int)]);
const CACHE: Shape = Obj(&[
    ("shard", Int),
    ("hits", Int),
    ("misses", Int),
    ("resident_bytes", Int),
    ("capacity_bytes", Int),
]);
const WEAR: Shape =
    Obj(&[("shard", Int), ("blocks", Int), ("max_wear", Int), ("total_programs", Int)]);
const RENDEZVOUS: Shape = Obj(&[("shard", Int), ("write_holds", Int), ("write_yields", Int)]);
const SERIES_ROW: Shape = Obj(&[("op", Int), ("device_writes", Int), ("write_amp", Num)]);
const FLIGHT: Shape = Obj(&[
    ("capacity", Int),
    ("total", Int),
    ("dropped", Int),
    ("open_spans", Arr(&Obj(&[("id", Int), ("op", Str)]))),
    ("entries", Arr(&Obj(&[("seq", Int), ("at_us", Int)]))),
]);

/// What each section must hold when it is present (the head — `schema`
/// and `reason` — always is).
const SECTIONS: &[(&str, Shape)] = &[
    ("seed", Int),
    ("repro", Str),
    ("error", Str),
    ("tree", Arr(&SHARD)),
    ("device", Arr(&DEVICE)),
    ("cache", Arr(&CACHE)),
    ("wear", Arr(&WEAR)),
    ("ledger", Obj(&[("keep", Int), ("totals", Obj(&[]))])),
    ("health", Obj(&[])),
    ("tail", Obj(&[])),
    ("series", Arr(&SERIES_ROW)),
    ("scheduler", Obj(&[("rendezvous", Arr(&RENDEZVOUS))])),
    ("flight", FLIGHT),
    ("metrics", Obj(&[("counters", Obj(&[])), ("histograms", Obj(&[]))])),
];

/// A background scheduler's section also exposes its queue (an inline
/// tree's carries only `backend` and `rendezvous`).
const QUEUE: Shape = Obj(&[
    ("queued", Arr(&Int)),
    ("running", Arr(&Int)),
    ("backlogs", Arr(&Int)),
    ("max_imm_memtables", Int),
]);

/// Check a parsed document against `lsm-report/v1`: the head, the shape
/// of every section present (at least one past `error`), embedded health
/// and tail reports as reports of their own, a series of at least one row
/// whose device-op count never goes backwards, and each buffer cache
/// within its capacity. Returns the list of problems (empty means valid).
pub fn validate_report(doc: &Json) -> Vec<String> {
    const HEAD: Shape = Obj(&[("schema", OneOf(&[SCHEMA])), ("reason", Str)]);
    let mut problems = Vec::new();
    doc.check(&HEAD, "report", &mut problems);
    for (key, shape) in SECTIONS.iter().filter(|(key, _)| doc.get(key) != &Json::Null) {
        doc.get(key).check(shape, &format!("report.{key}"), &mut problems);
    }
    if SECTIONS[3..].iter().all(|(key, _)| doc.get(key) == &Json::Null) {
        problems.push("no section past the head".into());
    }
    let scheduler = doc.get("scheduler");
    if scheduler != &Json::Null && scheduler.get("backend").as_str() != Some("inline") {
        scheduler.check(&QUEUE, "report.scheduler", &mut problems);
    }
    let validate_health = observe::validate_health as fn(&Json) -> Vec<String>;
    for (name, validate) in [("health", validate_health), ("tail", observe::validate_tail)] {
        if doc.get(name) != &Json::Null {
            problems.extend(
                validate(doc.get(name)).into_iter().map(|p| format!("{name} section: {p}")),
            );
        }
    }
    if let Json::Arr(rows) = doc.get("series") {
        if rows.is_empty() {
            problems.push("report.series has no rows".into());
        }
        let op = |i: usize| rows[i].get("op").as_u64().unwrap_or(0);
        for i in (1..rows.len()).filter(|&i| op(i) < op(i - 1)) {
            problems.push(format!("report.series[{i}] op went backwards"));
        }
    }
    for (i, cache) in doc.get("cache").items().iter().enumerate() {
        let bytes = |key| cache.get(key).as_u64().unwrap_or(0);
        let (resident, capacity) = (bytes("resident_bytes"), bytes("capacity_bytes"));
        if resident > capacity {
            problems.push(format!(
                "report.cache[{i}] holds {resident} bytes, over its capacity of {capacity}"
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::LsmConfig;
    use crate::policy::PolicySpec;
    use crate::tree::TreeOptions;
    use observe::{Event, SinkHandle};

    fn small_tree() -> LsmTree {
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        let ledger = Arc::new(DecisionLedger::new(64));
        let mut t = LsmTree::with_mem_device(
            cfg,
            TreeOptions::builder().policy(PolicySpec::ChooseBest).ledger(ledger).build(),
            1 << 16,
        )
        .unwrap();
        for k in 0..600u64 {
            t.put(k * 7, vec![(k % 251) as u8; 4]).unwrap();
        }
        t
    }

    fn parsed(report: &Report) -> Json {
        Json::parse(&report.to_json().render()).expect("report parses")
    }

    #[test]
    fn report_renders_and_validates() {
        let tree = small_tree();
        let recorder = Arc::new(VecSink::bounded(8));
        SinkHandle::new(recorder.clone()).emit(Event::CacheHit);
        // Added in any order, each section lands at its place in the schema.
        let report = Report::new("first reason")
            .flight(&recorder)
            .error("synthetic")
            .ledger(tree.ledger().expect("ledger attached"))
            .tree(&tree)
            .repro("cargo test -p lsm-tree report")
            .seed(7)
            .reason("unit test");
        let doc = parsed(&report);
        assert!(validate_report(&doc).is_empty(), "{:?}", validate_report(&doc));
        assert_eq!(doc.get("reason").as_str(), Some("unit test"), "a second reason replaces");
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let expected = [
            "schema", "reason", "seed", "repro", "error", "tree", "device", "cache", "ledger",
            "flight",
        ];
        assert_eq!(keys, expected, "sections in the schema's order");
    }

    #[test]
    fn health_and_tail_sections_are_validated_when_present() {
        let health = Arc::new(observe::HealthSink::with_defaults().with_tail());
        let handle = SinkHandle::new(health.clone());
        drop(handle.span(observe::SpanOp::put().with_shard(0)));
        handle.emit(Event::DeviceSync);
        let report = Report::new("health test").health(&health);
        let doc = parsed(&report);
        assert!(validate_report(&doc).is_empty(), "{:?}", validate_report(&doc));
        assert_eq!(doc.get("health").get("cumulative").get("puts").as_u64(), Some(1));

        // A malformed embedded report is reported with its section prefix.
        let schemas = [(observe::health::HEALTH_SCHEMA, "health"), (observe::TAIL_SCHEMA, "tail")];
        for (schema, section) in schemas {
            let tampered = report.to_json().render().replace(schema, "lsm-unknown/v0");
            let doc = Json::parse(&tampered).unwrap();
            let prefix = format!("{section} section:");
            assert!(validate_report(&doc).iter().any(|p| p.starts_with(&prefix)), "{section}");
        }
        // An engine without the tail adds the health section alone.
        let doc = parsed(&Report::new("health only").health(&observe::HealthSink::with_defaults()));
        assert!(doc.get("health").get("schema").as_str().is_some());
        assert_eq!(doc.get("tail"), &Json::Null);
    }

    #[test]
    fn series_section_needs_rows_whose_op_never_goes_backwards() {
        let config = observe::HealthConfig { window_ops: 2, ..observe::HealthConfig::default() };
        let engine = Arc::new(observe::HealthSink::new(config).with_series());
        let handle = SinkHandle::new(engine.clone());
        (0..5).for_each(|block| handle.emit(Event::DeviceWrite { block }));
        let doc = parsed(&Report::new("series").series(&engine, 4));
        assert_eq!(validate_report(&doc), Vec::<String>::new());
        let ops: Vec<_> = doc.get("series").items().iter().map(|r| r.get("op").as_u64()).collect();
        assert_eq!(ops, [Some(2), Some(4), Some(5)], "a row a window, and the last counters");

        let with_rows = |rows: Vec<Json>| {
            let mut doc = doc.clone();
            let Json::Obj(pairs) = &mut doc else { panic!() };
            pairs.iter_mut().find(|(k, _)| k == "series").expect("series section").1 =
                Json::Arr(rows);
            validate_report(&doc)
        };
        assert_eq!(with_rows(Vec::new()), ["report.series has no rows"]);
        let mut rows = doc.get("series").items().to_vec();
        rows.swap(1, 2);
        assert_eq!(with_rows(rows), ["report.series[2] op went backwards"]);
        // An engine that keeps no series adds no section.
        let doc =
            parsed(&Report::new("no series").series(&observe::HealthSink::with_defaults(), 4));
        assert_eq!(doc.get("series"), &Json::Null);
    }

    #[test]
    fn validate_rejects_wrong_or_missing_schema_and_empty_reports() {
        let bad = Json::obj([("reason", Json::from("x")), ("seed", Json::from(1u64))]);
        assert!(validate_report(&bad).iter().any(|p| p.contains("missing schema")));
        let wrong = Json::obj([
            ("schema", Json::from("something/v9")),
            ("reason", Json::from("x")),
            ("flight", VecSink::bounded(1).to_json()),
        ]);
        assert!(validate_report(&wrong).iter().any(|p| p.contains("expected")));
        assert!(!validate_report(&Json::from(3u64)).is_empty());
        let head_only = parsed(&Report::new("nothing").seed(3));
        assert_eq!(validate_report(&head_only), vec!["no section past the head".to_string()]);
    }

    #[test]
    fn write_to_creates_parent_dirs_and_round_trips() {
        let dir = std::env::temp_dir()
            .join(format!("lsm-report-test-{}", std::process::id()))
            .join("nested");
        let path = dir.join("report.json");
        let tree = small_tree();
        Report::new("roundtrip").tree(&tree).write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(validate_report(&Json::parse(&text).expect("parses")).is_empty());
        assert!(text.ends_with('\n'), "pretty rendering ends with a newline");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn tree_section_reflects_topology_and_counters() {
        let tree = small_tree();
        let doc = parsed(&Report::new("topology").tree(&tree));
        let shard = &doc.get("tree").items()[0];
        assert_eq!(shard.get("policy").as_str(), Some("ChooseBest"));
        assert_eq!(shard.get("height").as_u64(), Some(tree.height() as u64));
        let levels = shard.get("levels").items();
        assert_eq!(levels.len(), tree.levels().len());
        for (i, row) in levels.iter().enumerate() {
            let stats = tree.stats().level(i + 1);
            assert_eq!(row.get("blocks_written").as_u64(), Some(stats.blocks_written));
            assert_eq!(row.get("m_i").as_u64(), Some(tree.levels()[i].merges_since_compaction));
        }
        let io = tree.store().io_snapshot();
        assert_eq!(doc.get("device").items()[0].get("writes").as_u64(), Some(io.writes));
    }
}
