//! Post-mortem bundles: one JSON file that says what the tree was doing
//! when something went wrong.
//!
//! A [`PostMortem`] collects the forensic state the other observability
//! pieces already maintain — the flight recorder's last-N events and open
//! span stack, [`TreeStats`] and level topology, the device's I/O counters
//! and per-block wear histogram/heatmap, and the decision ledger's
//! predicted-vs-actual table — and renders them as a single
//! `lsm-postmortem/v1` document via [`observe::Json`].
//!
//! Bundles are **deterministic**: nothing in them depends on wall-clock
//! time, process ids, or absolute paths, so two same-seed torture runs
//! produce byte-identical files (a property the test suite enforces).
//! Producers are the torture harness (automatic, on any failed cycle and
//! optionally on success), `lsm_crash` (which names the bundle next to the
//! failing seed), and anyone calling [`PostMortem::write_to`] by hand; the
//! consumer is the `lsm_postmortem` binary in `lsm-bench`.
//!
//! Sections are appended in call order, each under its own top-level key;
//! every bundle starts with `schema` and `reason`.

use std::io::Write as _;
use std::path::Path;

use observe::{FlightRecorderSink, Json, Shape};
use sim_ssd::{IoSnapshot, WearSnapshot};

use crate::policy::ledger::DecisionLedger;
use crate::stats::TreeStats;
use crate::tree::LsmTree;

/// Schema tag of the bundles this module writes.
pub const SCHEMA: &str = "lsm-postmortem/v1";

/// Builder for one post-mortem bundle (see module docs).
#[derive(Debug, Clone)]
pub struct PostMortem {
    sections: Vec<(String, Json)>,
}

impl PostMortem {
    /// Start a bundle; `reason` says why it exists ("torture failure",
    /// "explicit dump", …).
    pub fn new(reason: &str) -> Self {
        PostMortem {
            sections: vec![
                ("schema".into(), Json::from(SCHEMA)),
                ("reason".into(), Json::from(reason)),
            ],
        }
    }

    fn push(mut self, key: &str, value: Json) -> Self {
        self.sections.push((key.to_string(), value));
        self
    }

    /// The seed whose run produced this bundle.
    pub fn seed(self, seed: u64) -> Self {
        self.push("seed", Json::from(seed))
    }

    /// The exact command that replays the failure.
    pub fn repro(self, command: &str) -> Self {
        self.push("repro", Json::from(command))
    }

    /// The error message that triggered the dump.
    pub fn error(self, message: &str) -> Self {
        self.push("error", Json::from(message))
    }

    /// Attach an arbitrary extra section.
    pub fn section(self, key: &str, value: Json) -> Self {
        self.push(key, value)
    }

    /// The flight recorder's retained events, drop count, and open spans.
    pub fn flight(self, recorder: &FlightRecorderSink) -> Self {
        let json = recorder.to_json();
        self.push("flight", json)
    }

    /// The decision ledger's rows, totals, and cumulative regret.
    pub fn ledger(self, ledger: &DecisionLedger) -> Self {
        let json = ledger.to_json();
        self.push("ledger", json)
    }

    /// The windowed health engine's `lsm-health/v1` report (rolling
    /// stats, detector states, transitions, SLO burn).
    pub fn health(self, health: &observe::HealthSink) -> Self {
        self.push("health", health.report())
    }

    /// The tail-anatomy engine's `lsm-tail/v1` report (slowest-put
    /// exemplars, per-phase blame table, queue-delay histogram) — what
    /// the write path was actually waiting on when the bundle was cut.
    pub fn tail(self, exemplars: &observe::ExemplarSink) -> Self {
        self.push("tail", exemplars.report())
    }

    /// Device-level I/O counters.
    pub fn device_io(self, io: IoSnapshot) -> Self {
        self.push(
            "device_io",
            Json::obj([
                ("reads", Json::from(io.reads)),
                ("writes", Json::from(io.writes)),
                ("trims", Json::from(io.trims)),
                ("syncs", Json::from(io.syncs)),
            ]),
        )
    }

    /// Per-block wear from the simulated SSD, as a histogram plus a
    /// downsampled heatmap of `cells` cells.
    pub fn wear(self, snapshot: &WearSnapshot, cells: usize) -> Self {
        let json = snapshot.to_json(cells);
        self.push("wear", json)
    }

    /// Everything the live tree can report: policy, stats, level topology,
    /// degraded ranges, cache and device counters.
    pub fn tree(self, tree: &LsmTree) -> Self {
        let json = Self::tree_json(tree);
        self.push("tree", json)
    }

    /// The `tree` section alone — callers that lose the tree before the
    /// dump (the torture harness leaks it to simulate a host crash) can
    /// snapshot this early and attach it later via [`PostMortem::section`].
    pub fn tree_json(tree: &LsmTree) -> Json {
        let stats = tree.stats();
        let cache = tree.store().cache_stats();
        let io = tree.store().io_snapshot();
        let topology = Json::arr(tree.levels().iter().enumerate().map(|(i, level)| {
            Json::obj([
                ("paper_level", Json::from(i + 1)),
                ("blocks", Json::from(level.num_blocks())),
                ("records", Json::from(level.records())),
                ("min_key", level.min_key().map(Json::from).unwrap_or(Json::Null)),
                ("max_key", level.max_key().map(Json::from).unwrap_or(Json::Null)),
                ("waste_delta", Json::from(level.waste_delta)),
            ])
        }));
        let degraded = Json::arr(
            tree.degraded_ranges()
                .into_iter()
                .map(|(lo, hi)| Json::arr([Json::from(lo), Json::from(hi)])),
        );
        Json::obj([
            ("policy", Json::from(tree.policy_name())),
            ("height", Json::from(tree.height())),
            ("memtable_records", Json::from(tree.memtable().len())),
            ("record_count", Json::from(tree.record_count())),
            ("stats", Self::stats_json(stats)),
            ("levels", topology),
            ("degraded_ranges", degraded),
            (
                "cache",
                Json::obj([
                    ("hits", Json::from(cache.hits)),
                    ("misses", Json::from(cache.misses)),
                    ("evictions", Json::from(cache.evictions)),
                ]),
            ),
            (
                "device_io",
                Json::obj([
                    ("reads", Json::from(io.reads)),
                    ("writes", Json::from(io.writes)),
                    ("trims", Json::from(io.trims)),
                    ("syncs", Json::from(io.syncs)),
                ]),
            ),
        ])
    }

    /// Render [`TreeStats`] (totals plus the per-level breakdown).
    pub fn stats_json(stats: &TreeStats) -> Json {
        let levels = Json::arr(stats.levels.iter().enumerate().map(|(i, l)| {
            Json::obj([
                ("paper_level", Json::from(i + 1)),
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
        Json::obj([
            ("puts", Json::from(stats.puts)),
            ("deletes", Json::from(stats.deletes)),
            ("lookups", Json::from(stats.lookups())),
            ("lookup_block_reads", Json::from(stats.lookup_block_reads())),
            ("bloom_skips", Json::from(stats.bloom_skips())),
            ("total_blocks_written", Json::from(stats.total_blocks_written())),
            ("total_blocks_read", Json::from(stats.total_blocks_read())),
            ("total_blocks_preserved", Json::from(stats.total_blocks_preserved())),
            ("levels", levels),
        ])
    }

    /// Render the bundle as one JSON object, sections in insertion order.
    pub fn to_json(&self) -> Json {
        Json::obj(self.sections.iter().map(|(k, v)| (k.clone(), v.clone())))
    }

    /// Write the bundle (pretty-printed, trailing newline) to `path`,
    /// creating parent directories as needed.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().render_pretty().as_bytes())?;
        f.sync_all()
    }
}

/// Check that a parsed document looks like a v1 post-mortem bundle:
/// correct schema tag, a reason, and at least one forensic section.
/// Returns the list of problems (empty means valid).
pub fn validate_bundle(doc: &Json) -> Vec<String> {
    const HEAD: Shape = Shape::Obj(&[("schema", Shape::OneOf(&[SCHEMA])), ("reason", Shape::Str)]);
    let mut problems = Vec::new();
    doc.check(&HEAD, "bundle", &mut problems);
    let forensic = ["flight", "ledger", "tree", "wear", "device_io", "health", "tail"];
    if forensic.iter().all(|k| doc.get(k) == &Json::Null) {
        problems.push(format!("no forensic section (expected one of {forensic:?})"));
    }
    // A section that is present must be an object with these members.
    let mut section = |name: &str, members: &[&str]| match doc.get(name) {
        Json::Null => {}
        section @ Json::Obj(_) => {
            for key in members.iter().filter(|key| section.get(key) == &Json::Null) {
                problems.push(format!("{name} section missing {key}"));
            }
        }
        _ => problems.push(format!("{name} section is not an object")),
    };
    section("flight", &["capacity", "total", "dropped", "open_spans", "events"]);
    // Inline (no background backend) dumps carry only the backend tag; a
    // real backend snapshot must expose its queue state.
    if doc.get("scheduler").get("backend").as_str() == Some("inline") {
        section("scheduler", &["rendezvous"]);
    } else {
        let queue =
            ["rendezvous", "queued", "running", "backlogs", "max_imm_memtables", "shutdown"];
        section("scheduler", &queue);
    }
    // Embedded health and tail sections must themselves be valid reports
    // (absent is fine — not every producer runs the engines).
    section("health", &[]);
    section("tail", &[]);
    for name in ["health", "tail"] {
        if let report @ Json::Obj(_) = doc.get(name) {
            let found = match name {
                "health" => observe::validate_health(report),
                _ => observe::validate_tail(report),
            };
            problems.extend(found.into_iter().map(|p| format!("{name} section: {p}")));
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

    #[test]
    fn bundle_renders_and_validates() {
        let tree = small_tree();
        let recorder = Arc::new(FlightRecorderSink::new(8));
        SinkHandle::new(recorder.clone()).emit(Event::CacheHit);
        let pm = PostMortem::new("unit test")
            .seed(7)
            .repro("cargo test -p lsm-tree postmortem")
            .error("synthetic")
            .flight(&recorder)
            .ledger(tree.ledger().expect("ledger attached"))
            .tree(&tree);
        let doc = Json::parse(&pm.to_json().render()).expect("bundle parses");
        assert!(validate_bundle(&doc).is_empty(), "{:?}", validate_bundle(&doc));
        let Json::Obj(pairs) = doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec!["schema", "reason", "seed", "repro", "error", "flight", "ledger", "tree"],
            "sections in insertion order"
        );
    }

    #[test]
    fn health_section_is_validated_when_present() {
        let health = Arc::new(observe::HealthSink::with_defaults());
        let handle = SinkHandle::new(health.clone());
        drop(handle.span(observe::SpanOp::put().with_shard(0)));
        handle.emit(Event::DeviceSync);
        let recorder = FlightRecorderSink::new(8);
        let pm = PostMortem::new("health test").flight(&recorder).health(&health);
        let doc = Json::parse(&pm.to_json().render()).expect("bundle parses");
        assert!(validate_bundle(&doc).is_empty(), "{:?}", validate_bundle(&doc));

        // A malformed embedded report is reported with its section prefix.
        let tampered = pm.to_json().render().replace("lsm-health/v1", "lsm-health/v0");
        let doc = Json::parse(&tampered).unwrap();
        assert!(validate_bundle(&doc).iter().any(|p| p.starts_with("health section:")));
    }

    #[test]
    fn tail_section_is_validated_when_present() {
        let exemplars = Arc::new(observe::ExemplarSink::new(observe::ExemplarConfig::default()));
        drop(SinkHandle::new(exemplars.clone()).span(observe::SpanOp::put()));
        let recorder = FlightRecorderSink::new(8);
        let pm = PostMortem::new("tail test").flight(&recorder).tail(&exemplars);
        let doc = Json::parse(&pm.to_json().render()).expect("bundle parses");
        assert!(validate_bundle(&doc).is_empty(), "{:?}", validate_bundle(&doc));

        let tampered = pm.to_json().render().replace("lsm-tail/v1", "lsm-tail/v0");
        let doc = Json::parse(&tampered).unwrap();
        assert!(validate_bundle(&doc).iter().any(|p| p.starts_with("tail section:")));
    }

    #[test]
    fn validate_rejects_wrong_or_missing_schema() {
        let bad = Json::obj([("reason", Json::from("x"))]);
        assert!(validate_bundle(&bad).iter().any(|p| p.contains("missing schema")));
        let wrong = Json::obj([
            ("schema", Json::from("something/v9")),
            ("reason", Json::from("x")),
            ("flight", Json::obj([] as [(&str, Json); 0])),
        ]);
        assert!(validate_bundle(&wrong).iter().any(|p| p.contains("expected")));
        assert!(!validate_bundle(&Json::from(3u64)).is_empty());
    }

    #[test]
    fn write_to_creates_parent_dirs_and_round_trips() {
        let dir = std::env::temp_dir()
            .join(format!("lsm-postmortem-test-{}", std::process::id()))
            .join("nested");
        let path = dir.join("bundle.json");
        let tree = small_tree();
        let pm = PostMortem::new("roundtrip").tree(&tree).device_io(tree.store().io_snapshot());
        pm.write_to(&path).expect("write bundle");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = Json::parse(&text).expect("parses");
        assert!(validate_bundle(&doc).is_empty());
        assert!(text.ends_with('\n'), "pretty rendering ends with a newline");
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }

    #[test]
    fn tree_section_reflects_topology() {
        let tree = small_tree();
        let doc = PostMortem::tree_json(&tree);
        assert_eq!(doc.get("policy").as_str(), Some("ChooseBest"));
        assert_eq!(doc.get("levels").items().len(), tree.levels().len());
        assert_eq!(doc.get("height").as_u64(), Some(tree.height() as u64));
    }
}
