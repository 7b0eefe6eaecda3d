//! Aligned-table, CSV, and merged-JSON reporting for the figure binaries.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use lsm_tree::observe::{Json, Metrics};
use lsm_tree::LsmTree;

/// An aligned text table printed to stdout.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append one row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A CSV file accumulated row by row and written under `results/`.
#[derive(Debug)]
pub struct Csv {
    path: PathBuf,
    lines: Vec<String>,
}

impl Csv {
    /// CSV named `results/<name>.csv` (directory created on write) with
    /// the given header.
    pub fn new<S: AsRef<str>>(name: &str, header: &[S]) -> Self {
        let mut lines = Vec::new();
        lines.push(header.iter().map(AsRef::as_ref).collect::<Vec<_>>().join(","));
        Csv { path: Path::new("results").join(format!("{name}.csv")), lines }
    }

    /// Append a data row.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        self.lines.push(cells.iter().map(AsRef::as_ref).collect::<Vec<_>>().join(","));
    }

    /// Write the file; returns the path.
    pub fn write(&self) -> std::io::Result<&Path> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(&self.path)?;
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(&self.path)
    }
}

/// Format a float with `digits` decimals.
pub fn fmt_f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// What a report printer shows for `v`: its value if it is a number of
/// any JSON variant, 0 otherwise.
pub fn number(v: &Json) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// The one text form of an `lsm-health/v1` report: window header, detector
/// states, SLO burn, the rolling series globally and per shard, and the
/// detector transitions.
pub fn render_health(report: &Json) -> String {
    let config = report.get("config");
    let mut out = format!(
        "\n=== windowed health (rolling {} windows × {} device ops, {} completed, {} device ops) ===\n",
        number(config.get("windows")),
        number(config.get("window_ops")),
        number(report.get("windows_completed")),
        number(report.get("device_ops")),
    );
    let states: Vec<String> = report
        .get("detectors")
        .items()
        .iter()
        .map(|d| {
            format!(
                "{}={}({})",
                d.get("detector").as_str().unwrap_or("?"),
                d.get("state").as_str().unwrap_or("?"),
                number(d.get("trips"))
            )
        })
        .collect();
    let _ = writeln!(out, "detectors: {}", states.join("  "));
    let slo = report.get("slo");
    let _ = writeln!(
        out,
        "slo: good {} bad {} | burn short {:.2} long {:.2} | alerting {}",
        number(slo.get("good")),
        number(slo.get("bad")),
        number(slo.get("short_burn")),
        number(slo.get("long_burn")),
        slo.get("alerting") == &Json::Bool(true),
    );
    let rolling = report.get("rolling");
    let mut table =
        Table::new(["series", "puts", "put p50", "put p99", "put p99.9", "wamp", "hit %", "bp"]);
    let shards = report.get("shards").items().iter();
    let rows = shards.map(|set| (format!("shard {}", number(set.get("shard"))), set));
    for (label, set) in std::iter::once(("all".to_string(), rolling)).chain(rows) {
        let put = set.get("put_latency");
        table.row([
            label,
            fmt_f(number(put.get("count")), 0),
            fmt_f(number(put.get("p50")), 0),
            fmt_f(number(put.get("p99")), 0),
            fmt_f(number(put.get("p999")), 0),
            fmt_f(number(set.get("write_amp")), 3),
            fmt_f(100.0 * number(set.get("cache_hit_rate")), 1),
            fmt_f(number(set.get("backpressure")), 0),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "rolling: ops {} | get p99 {:.0} | fsync p99 {:.0}",
        number(rolling.get("ops")),
        number(rolling.get("get_latency").get("p99")),
        number(rolling.get("fsync_latency").get("p99")),
    );
    let transitions = report.get("transitions").items();
    let _ = writeln!(out, "{} detector transition(s)", transitions.len());
    for t in transitions {
        let _ = writeln!(
            out,
            "  window {}: {} {} -> {}",
            number(t.get("window")),
            t.get("detector").as_str().unwrap_or("?"),
            t.get("from").as_str().unwrap_or("?"),
            t.get("to").as_str().unwrap_or("?"),
        );
    }
    out
}

/// The one text form of an `lsm-tail/v1` report: the critical-path blame
/// table, the dominant phase, and the per-shard verdicts.
pub fn render_tail(report: &Json) -> String {
    let completed = report.get("completed");
    let mut out = format!(
        "\n=== tail anatomy ({:.0} puts, {:.0} lookups, {:.0} windows completed) ===\n",
        number(completed.get("put")),
        number(completed.get("lookup")),
        number(report.get("windows_completed")),
    );
    let mut t = Table::new(["phase", "total us", "count", "share%", "p99 share%", "p99.9 share%"]);
    for row in report.get("blame").items() {
        t.row([
            row.get("phase").as_str().unwrap_or("?").to_string(),
            fmt_f(number(row.get("total_us")), 0),
            fmt_f(number(row.get("count")), 0),
            fmt_f(100.0 * number(row.get("share")), 1),
            fmt_f(100.0 * number(row.get("share_p99")), 1),
            fmt_f(100.0 * number(row.get("share_p999")), 1),
        ]);
    }
    out.push_str(&t.render());
    let dominant =
        |scope: &Json| scope.get("dominant_phase").as_str().unwrap_or("none").to_string();
    let _ = writeln!(out, "dominant phase: {}", dominant(report));
    let verdicts: Vec<String> = report
        .get("shards")
        .items()
        .iter()
        .map(|sec| {
            format!(
                "shard {:.0}: {} ({} exemplars)",
                number(sec.get("shard")),
                dominant(sec),
                sec.get("exemplars").items().len()
            )
        })
        .collect();
    if !verdicts.is_empty() {
        let _ = writeln!(out, "per shard: {}", verdicts.join(" | "));
    }
    out
}

/// The one text form of a decision ledger's JSON
/// ([`DecisionLedger::to_json`](lsm_tree::DecisionLedger::to_json)):
/// totals, then predicted against actual writes per level.
pub fn render_ledger(ledger: &Json) -> String {
    let totals = ledger.get("totals");
    let mut out = format!(
        "\n=== decision ledger ===\n\
         {} decisions ({} full merges), {} reconciled | ring keeps {}, {} rows evicted\n\
         predicted {} blocks, actual {} blocks | cumulative regret {} blocks, model error {} blocks\n",
        number(totals.get("decisions")),
        number(totals.get("full_merges")),
        number(totals.get("closed")),
        number(ledger.get("keep")),
        number(ledger.get("dropped_rows")),
        number(totals.get("predicted")),
        number(totals.get("actual")),
        number(totals.get("regret")),
        number(totals.get("model_error")),
    );
    if let Json::Obj(levels) = ledger.get("per_level") {
        let columns = ["decisions", "full_merges", "predicted", "actual", "regret", "model_error"];
        let mut t = Table::new([
            "level",
            "decisions",
            "full",
            "predicted",
            "actual",
            "regret",
            "model err",
        ]);
        for (level, tot) in levels {
            let cells = columns.iter().map(|key| number(tot.get(key)).to_string());
            t.row(std::iter::once(format!("L{level}")).chain(cells));
        }
        out.push_str(&t.render());
    }
    out
}

/// One merged JSON document describing an experiment's end state: device
/// I/O counters ⊕ buffer-cache statistics ⊕ per-level tree counters, plus
/// an optional wear summary and an optional [`Metrics`] registry (as fed
/// by an [`lsm_tree::observe::MetricsSink`]).
pub fn merged_json(
    experiment: &str,
    tree: &LsmTree,
    wear: Option<&sim_ssd::mem::WearSummary>,
    metrics: Option<&Metrics>,
) -> Json {
    let io = tree.store().io_snapshot();
    let mut device = vec![
        ("reads".to_string(), Json::from(io.reads)),
        ("writes".to_string(), Json::from(io.writes)),
        ("trims".to_string(), Json::from(io.trims)),
        ("syncs".to_string(), Json::from(io.syncs)),
    ];
    if let Some(w) = wear {
        device.push((
            "wear".to_string(),
            Json::obj([
                ("max_wear", Json::from(u64::from(w.max_wear))),
                ("total_programs", Json::from(w.total_programs)),
                ("blocks_touched", Json::from(w.blocks_touched)),
            ]),
        ));
    }

    let cache = tree.store().cache_stats();
    let stats = tree.stats();
    let levels: Vec<Json> = (1..=tree.levels().len())
        .map(|paper| {
            let l = stats.level(paper);
            Json::obj([
                ("level", Json::from(paper)),
                ("merges_in", Json::from(l.merges_in)),
                ("blocks_written", Json::from(l.blocks_written)),
                ("blocks_read", Json::from(l.blocks_read)),
                ("blocks_preserved", Json::from(l.blocks_preserved)),
                ("records_in", Json::from(l.records_in)),
                ("compactions", Json::from(l.compactions)),
                ("pairwise_fixes", Json::from(l.pairwise_fixes)),
            ])
        })
        .collect();

    let mut doc = vec![
        ("experiment".to_string(), Json::from(experiment)),
        ("device".to_string(), Json::Obj(device)),
        (
            "cache".to_string(),
            Json::obj([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("hit_rate", Json::from(cache.hit_rate())),
                ("resident_bytes", Json::from(cache.resident)),
                ("capacity_bytes", Json::from(cache.capacity)),
            ]),
        ),
        (
            "tree".to_string(),
            Json::obj([
                ("height", Json::from(tree.height())),
                ("records", Json::from(tree.record_count())),
                ("puts", Json::from(stats.puts)),
                ("deletes", Json::from(stats.deletes)),
                ("lookups", Json::from(stats.lookups())),
                ("lookup_block_reads", Json::from(stats.lookup_block_reads())),
                ("bloom_skips", Json::from(stats.bloom_skips())),
                ("total_blocks_written", Json::from(stats.total_blocks_written())),
                ("total_blocks_read", Json::from(stats.total_blocks_read())),
                ("total_blocks_preserved", Json::from(stats.total_blocks_preserved())),
                ("levels", Json::Arr(levels)),
            ]),
        ),
    ];
    if let Some(m) = metrics {
        doc.push(("metrics".to_string(), m.to_json()));
    }
    Json::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_accumulates() {
        let mut c = Csv::new("test-tmp", &["x", "y"]);
        c.row(&["1", "2"]);
        assert_eq!(c.lines, vec!["x,y".to_string(), "1,2".to_string()]);
    }

    #[test]
    fn reports_with_nothing_in_them_still_render() {
        use lsm_tree::observe::HealthSink;
        // A fresh engine: no shards, no exemplars, no transitions.
        let engine = HealthSink::with_defaults().with_tail();
        let health = render_health(&engine.report());
        assert!(health.contains("0 completed, 0 device ops"), "{health}");
        assert!(health.contains("write_stall=healthy(0)"), "{health}");
        assert!(health.contains("0 detector transition(s)"), "{health}");
        assert_eq!(health.matches("shard ").count(), 0, "{health}");
        let tail = render_tail(&engine.tail_report().unwrap());
        assert!(tail.contains("(0 puts, 0 lookups, 0 windows completed)"), "{tail}");
        assert!(tail.ends_with("dominant phase: none\n"), "{tail}");
        // Not a report at all: every lookup defaults, nothing panics.
        assert!(render_health(&Json::Null).contains("0 detector transition(s)"));
        assert!(render_tail(&Json::from(3u64)).contains("dominant phase: none"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }
}
