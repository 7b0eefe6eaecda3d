//! The experiment binaries' results — one set of rows, printed as an
//! aligned table or a grid and written as a CSV — and the one text form of
//! each JSON report the binaries write.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use lsm_tree::observe::Json;

/// Rows of cells under one header. Each cell is formatted once: the same
/// strings make the aligned text table ([`Table::render`], or
/// [`Table::grid`] for one column across another) and the CSV
/// ([`Table::csv`], [`Table::write`]).
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

    /// The `value` column laid out across the `across` column: one row per
    /// distinct tuple of the `keys` columns, one column per distinct
    /// `across` value, both in the order they first appear; `-` where no
    /// row has the pair.
    pub fn grid(&self, keys: &[&str], across: &str, value: &str) -> Table {
        let col = |name: &str| {
            self.header.iter().position(|h| h == name).unwrap_or_else(|| panic!("no column {name}"))
        };
        let (keys, across, value): (Vec<usize>, _, _) =
            (keys.iter().map(|k| col(k)).collect(), col(across), col(value));
        let mut names: Vec<&String> = Vec::new();
        let mut lines: Vec<(Vec<&String>, Vec<&Vec<String>>)> = Vec::new();
        for row in &self.rows {
            if !names.contains(&&row[across]) {
                names.push(&row[across]);
            }
            let key: Vec<&String> = keys.iter().map(|&k| &row[k]).collect();
            match lines.iter_mut().find(|(k, _)| *k == key) {
                Some((_, rows)) => rows.push(row),
                None => lines.push((key, vec![row])),
            }
        }
        let mut grid = Table::new(keys.iter().map(|&k| &self.header[k]).chain(names.clone()));
        for (key, rows) in lines {
            let cell =
                |name: &&String| rows.iter().find(|r| &r[across] == *name).map(|r| &r[value]);
            grid.row(
                key.into_iter()
                    .cloned()
                    .chain(names.iter().map(|n| cell(n).map_or("-".into(), String::clone))),
            );
        }
        grid
    }

    /// The rows as CSV text, header first, cells as given.
    pub fn csv(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|cells| cells.join(",") + "\n").collect()
    }

    /// Write [`Table::csv`] to `results/<name>.csv` (directory created);
    /// returns the path.
    pub fn write(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = Path::new("results").join(format!("{name}.csv"));
        fs::create_dir_all("results")?;
        fs::write(&path, self.csv())?;
        Ok(path)
    }

    /// [`Table::write`], then say where; an experiment that cannot keep its
    /// result panics.
    pub fn save(&self, name: &str) {
        let path = self.write(name).expect("write csv");
        println!("\nwrote {}", path.display());
    }
}

/// Format a float with `digits` decimals.
pub fn fmt_f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// What a report printer shows for `v`: its value if it is a number of
/// any JSON variant, 0 otherwise.
fn number(v: &Json) -> f64 {
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

/// The one text form of an `lsm-tail/v2` report: the critical-path blame
/// table, the dominant phase, and the per-shard verdicts, headed by the
/// request counts of the `health` report beside it.
pub fn render_tail(report: &Json, health: &Json) -> String {
    let cumulative = health.get("cumulative");
    let mut out = format!(
        "\n=== tail anatomy ({:.0} puts, {:.0} lookups) ===\n",
        number(cumulative.get("puts")),
        number(cumulative.get("gets")),
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
        let row = |(level, totals): &(String, Json)| {
            let level = ("level".to_string(), Json::from(format!("L{level}")));
            let Json::Obj(totals) = totals else { return Json::Null };
            Json::Obj(std::iter::once(level).chain(totals.iter().cloned()).collect())
        };
        out.push_str(&json_table(&levels.iter().map(row).collect::<Vec<_>>(), &[]));
    }
    out
}

/// What a report table shows for a member: strings bare, fractions to
/// three places, `-` for null or absent, anything else as its JSON.
fn cell(v: &Json) -> String {
    match v {
        Json::Null => "-".into(),
        Json::Str(s) => s.clone(),
        Json::F64(f) => fmt_f(*f, 3),
        v => v.render(),
    }
}

/// A table of JSON objects: one row per item, one column per `(header,
/// member)` — or, with no columns given, per scalar member of the first
/// item, under its own name.
fn json_table(items: &[Json], columns: &[(&str, &str)]) -> String {
    let first = match items.first() {
        None => return String::new(),
        Some(Json::Obj(pairs)) if columns.is_empty() => pairs.as_slice(),
        Some(_) => &[],
    };
    let scalars = first.iter().filter(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let columns: Vec<(&str, &str)> =
        columns.iter().copied().chain(scalars.map(|(k, _)| (k.as_str(), k.as_str()))).collect();
    let mut t = Table::new(columns.iter().map(|c| c.0));
    for item in items {
        t.row(columns.iter().map(|(_, key)| cell(item.get(key))));
    }
    t.render()
}

/// The columns of a level row: topology, capacity, waste, `m_i` / `w_i`,
/// and the level's merge counters.
const LEVEL_COLUMNS: &[(&str, &str)] = &[
    ("level", "level"),
    ("blocks", "blocks"),
    ("capacity", "capacity_blocks"),
    ("records", "records"),
    ("waste", "waste"),
    ("m_i", "m_i"),
    ("w_i", "w_i"),
    ("merges_in", "merges_in"),
    ("writes", "blocks_written"),
    ("reads", "blocks_read"),
    ("preserved", "blocks_preserved"),
    ("compactions", "compactions"),
    ("fixes", "pairwise_fixes"),
];

/// Entries of a report's `flight` section that [`render_report`] prints.
const FLIGHT_SHOWN: usize = 12;

/// The columns of a `series` row.
const SERIES_COLUMNS: &[(&str, &str)] = &[
    ("device ops", "op"),
    ("writes", "device_writes"),
    ("write amp", "write_amp"),
    ("cache hit", "cache_hit_rate"),
    ("max wear", "max_wear"),
    ("height", "height"),
    ("merges", "merges"),
];

/// Rows of a report's `series` section that [`render_report`] prints at
/// most (about): an evenly spaced subset, and always the last row.
const SERIES_SHOWN: usize = 12;

/// The one text form of an `lsm-report/v1` document
/// ([`lsm_tree::Report`]) — what `lsm_doctor` prints after its run and
/// `lsm_doctor show <file>` prints for a file: the head, then every
/// section present, in the report's order; the ledger, health and tail
/// sections through [`render_ledger`], [`render_health`] and
/// [`render_tail`], and a spaced subset of the series' rows.
pub fn render_report(report: &Json) -> String {
    let mut out = format!("=== report: {} ===\n", cell(report.get("reason")));
    for key in ["seed", "repro", "error"].into_iter().filter(|k| report.get(k) != &Json::Null) {
        let _ = writeln!(out, "{key}: {}", cell(report.get(key)));
    }
    for shard in report.get("tree").items() {
        let _ = write!(
            out,
            "\n=== tree, shard {} ===\n{}{}",
            cell(shard.get("shard")),
            json_table(std::slice::from_ref(shard), &[]),
            json_table(shard.get("levels").items(), LEVEL_COLUMNS)
        );
        if let ranges @ [_, ..] = shard.get("degraded_ranges").items() {
            let _ = writeln!(out, "degraded ranges: {}", Json::arr(ranges.to_vec()).render());
        }
    }
    let present = |key: &str| Some(report.get(key)).filter(|section| *section != &Json::Null);
    for key in ["device", "cache", "wear"] {
        if let Some(section) = present(key) {
            let _ = write!(out, "\n=== {key} ===\n{}", json_table(section.items(), &[]));
        }
    }
    for wear in report.get("wear").items() {
        let wear_of = |cell: &Json| cell.get("max").as_u64().unwrap_or(0);
        let cells = wear.get("heatmap").items();
        let peak = cells.iter().map(wear_of).max().unwrap_or(0).max(1);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let row: String = cells.iter().map(|c| glyphs[(wear_of(c) * 8 / peak) as usize]).collect();
        let _ = writeln!(out, "shard {} wear heatmap, hottest @: [{row}]", cell(wear.get("shard")));
    }
    if let Some(ledger) = present("ledger") {
        out.push_str(&render_ledger(ledger));
    }
    if let Some(health) = present("health") {
        out.push_str(&render_health(health));
    }
    if let Some(tail) = present("tail") {
        out.push_str(&render_tail(tail, report.get("health")));
    }
    if let Some(series) = present("series") {
        let rows = series.items();
        let stride = (rows.len() / SERIES_SHOWN).max(1);
        let shown: Vec<Json> = (0..rows.len())
            .filter(|i| i % stride == 0 || i + 1 == rows.len())
            .map(|i| rows[i].clone())
            .collect();
        let _ = write!(
            out,
            "\n=== amplification over time ({} of {} rows) ===\n{}",
            shown.len(),
            rows.len(),
            json_table(&shown, SERIES_COLUMNS)
        );
    }
    if let Some(Json::Obj(pairs)) = present("scheduler") {
        out.push_str("\n=== scheduler ===\n");
        for (key, value) in pairs.iter().filter(|(key, _)| key != "rendezvous") {
            let _ = writeln!(out, "{key}: {}", cell(value));
        }
        out.push_str(&json_table(report.get("scheduler").get("rendezvous").items(), &[]));
    }
    if let Some(flight) = present("flight") {
        let (entries, open) = (flight.get("entries").items(), flight.get("open_spans").items());
        let shown = &entries[entries.len().saturating_sub(FLIGHT_SHOWN)..];
        let _ = writeln!(
            out,
            "\n=== flight recorder ===\n{}{} span(s) open at dump time\n{}last {} of {} retained \
             entries:",
            json_table(std::slice::from_ref(flight), &[]),
            open.len(),
            json_table(open, &[]),
            shown.len(),
            entries.len()
        );
        let mut t = Table::new(["seq", "tick", "span", "entry"]);
        for entry in shown {
            let what = match (entry.get("begin"), entry.get("end")) {
                (Json::Null, Json::Null) => entry.get("event").render(),
                (Json::Null, id) => format!("end span {}: {}", cell(id), cell(entry.get("op"))),
                (id, _) => format!("begin span {}: {}", cell(id), cell(entry.get("op"))),
            };
            t.row([
                cell(entry.get("seq")),
                cell(entry.get("at_us")),
                cell(entry.get("span")),
                what,
            ]);
        }
        out.push_str(&t.render());
    }
    if let Json::Obj(counters) = report.get("metrics").get("counters") {
        let _ = writeln!(out, "\n=== metrics ({} counters) ===", counters.len());
        let mut t = Table::new(["counter", "value"]);
        for (name, value) in counters {
            t.row([name.clone(), cell(value)]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_print_aligned_and_write_as_given() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].starts_with("long-name"));
        assert_eq!(t.csv(), "name,value\na,1\nlong-name,123456\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn the_grid_and_the_csv_come_from_one_set_of_rows() {
        let mut t = Table::new(["size_mb", "policy", "writes_per_mb", "height"]);
        let policies = ["Full", "RR", "Mixed"];
        for size in ["200", "40", "800"] {
            for (i, policy) in policies.iter().enumerate() {
                t.row([size.to_string(), policy.to_string(), format!("{size}.{i}5"), "3".into()]);
            }
        }
        let rows: Vec<Vec<String>> =
            t.csv().lines().skip(1).map(|l| l.split(',').map(str::to_string).collect()).collect();
        // Rows come out in the order they were pushed.
        let order: Vec<(&str, &str)> = rows.iter().map(|r| (&*r[0], &*r[1])).collect();
        assert_eq!(order[..4], [("200", "Full"), ("200", "RR"), ("200", "Mixed"), ("40", "Full")]);
        let grid = t.grid(&["size_mb"], "policy", "writes_per_mb");
        let text = grid.render();
        let lines: Vec<Vec<&str>> = text.lines().map(|l| l.split_whitespace().collect()).collect();
        assert_eq!(lines[0], ["size_mb", "Full", "RR", "Mixed"]);
        assert_eq!(lines.len(), 2 + 3, "{text}");
        // Every grid cell is the CSV cell of the row with its size and policy.
        for line in &lines[2..] {
            for (policy, cell) in policies.iter().zip(&line[1..]) {
                let row = rows.iter().find(|r| r[0] == line[0] && r[1] == *policy).unwrap();
                assert_eq!(*cell, row[2]);
            }
        }
        let sizes: Vec<&str> = lines[2..].iter().map(|l| l[0]).collect();
        assert_eq!(sizes, ["200", "40", "800"]);
        // A pair no row has shows as `-`.
        let mut ragged = Table::new(["workload", "policy", "w"]);
        ragged.row(["Uniform", "RR", "1"]);
        ragged.row(["Normal", "Full", "2"]);
        let text = ragged.grid(&["workload"], "policy", "w").render();
        assert_eq!(
            text.lines().nth(3).unwrap().split_whitespace().collect::<Vec<_>>(),
            ["Normal", "-", "2"]
        );
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
        let tail = render_tail(&engine.tail_report().unwrap(), &engine.report());
        assert!(tail.contains("(0 puts, 0 lookups)"), "{tail}");
        assert!(tail.ends_with("dominant phase: none\n"), "{tail}");
        // Not a report at all: every lookup defaults, nothing panics.
        assert!(render_health(&Json::Null).contains("0 detector transition(s)"));
        assert!(render_tail(&Json::from(3u64), &Json::Null).contains("dominant phase: none"));
    }

    /// A member of an object, for editing a parsed report.
    fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(pairs) = json else { panic!("not an object: {key}") };
        &mut pairs.iter_mut().find(|(k, _)| k == key).expect("member present").1
    }

    #[test]
    fn one_report_with_every_section_renders_and_validates() {
        use std::sync::Arc;

        use lsm_tree::observe::{
            HealthConfig, HealthSink, MetricsSink, SinkHandle, SpanOp, TickClock, VecSink,
        };
        use lsm_tree::report::validate_report;
        use lsm_tree::{
            DecisionLedger, LsmConfig, PolicySpec, Report, ShardedLsmTree, TreeOptions,
        };
        use sim_ssd::{BlockDevice, MemDevice};

        let recorder = Arc::new(VecSink::bounded(16));
        let config = HealthConfig { window_ops: 4, ..HealthConfig::default() };
        let health = Arc::new(HealthSink::new(config).with_tail().with_series());
        let metrics = Arc::new(MetricsSink::new());
        let handle = SinkHandle::with_clock(Arc::new(TickClock::new()))
            .and(Arc::clone(&recorder) as _)
            .and(Arc::clone(&health) as _)
            .and(Arc::clone(&metrics) as _);
        let ledger = Arc::new(DecisionLedger::new(64));
        let cfg = LsmConfig {
            block_size: 256,
            payload_size: 4,
            k0_blocks: 4,
            gamma: 4,
            cache_blocks: 64,
            merge_rate: 0.25,
            ..LsmConfig::default()
        };
        let mems: Vec<Arc<MemDevice>> =
            (0..2).map(|_| Arc::new(MemDevice::with_block_size(1 << 14, 256))).collect();
        let opts = TreeOptions::builder()
            .policy(PolicySpec::ChooseBest)
            .sink(handle.clone())
            .ledger(Arc::clone(&ledger))
            .build();
        let devices = mems.iter().map(|m| Arc::clone(m) as Arc<dyn BlockDevice>).collect();
        let block_capacity = cfg.block_capacity() as u64;
        let tree = ShardedLsmTree::with_devices(cfg, opts, devices).unwrap();
        for k in 0..2_000u64 {
            tree.put(k * 7, vec![(k % 251) as u8; 4]).unwrap();
        }
        let _open = handle.span(SpanOp::cascade());
        let report = Report::new("every section")
            .seed(7)
            .repro("cargo test -p lsm-bench")
            .error("none")
            .sharded(&tree)
            .wear(&mems.iter().map(|m| m.wear_snapshot()).collect::<Vec<_>>(), 8)
            .ledger(&ledger)
            .health(&health)
            .series(&health, block_capacity)
            .scheduler(tree.scheduler_section_json())
            .flight(&recorder)
            .metrics(&metrics.metrics());
        let doc = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(validate_report(&doc), Vec::<String>::new());
        assert!(recorder.dropped() > 0, "the ring wrapped");

        let text = render_report(&doc);
        let titles = [
            "=== report: every section ===",
            "seed: 7",
            "=== tree, shard 0 ===",
            "=== tree, shard 1 ===",
            "=== device ===",
            "=== cache ===",
            "=== wear ===",
            "=== decision ledger ===",
            "=== windowed health",
            "=== tail anatomy",
            "=== amplification over time (",
            "=== scheduler ===",
            "=== flight recorder ===",
            "1 span(s) open at dump time",
            "begin span ",
            "=== metrics (",
        ];
        for title in titles {
            assert!(text.contains(title), "missing {title:?} in\n{text}");
        }
        // Every level row of every shard, in its shard's table.
        for (i, shard) in doc.get("tree").items().iter().enumerate() {
            let levels = shard.get("levels").items().len();
            assert!(levels > 0, "shard {i} has levels");
            let table = text.split(&format!("=== tree, shard {i} ")).nth(1).unwrap();
            let rows: Vec<&str> = table.lines().skip(6).take_while(|l| !l.is_empty()).collect();
            let numbers: Vec<String> =
                rows.iter().map(|r| r.split_whitespace().next().unwrap().to_string()).collect();
            let expected: Vec<String> = (1..=levels).map(|l| l.to_string()).collect();
            assert_eq!(numbers, expected, "{table}");
        }
        // The series' rows, spaced, from the first to the last.
        let ops: Vec<String> =
            doc.get("series").items().iter().map(|row| cell(row.get("op"))).collect();
        assert!(ops.len() > 1, "windows closed: {ops:?}");
        let table = text.split("=== amplification over time (").nth(1).unwrap();
        let printed: Vec<&str> = table.lines().skip(3).take_while(|l| !l.is_empty()).collect();
        let printed: Vec<&str> =
            printed.iter().map(|r| r.split_whitespace().next().unwrap()).collect();
        assert!(table.starts_with(&format!("{} of {} rows", printed.len(), ops.len())), "{table}");
        assert_eq!(
            (printed[0], printed.last().copied()),
            (ops[0].as_str(), ops.last().map(|o| o.as_str()))
        );
        assert!(printed.iter().all(|op| ops.iter().any(|o| o == op)), "{table}");

        // Three broken variants, each rejected for what it breaks.
        let rejects = |doc: &Json, needle: &str| {
            let problems = validate_report(doc);
            assert!(problems.iter().any(|p| p.contains(needle)), "{needle}: {problems:?}");
        };
        let mut no_schema = doc.clone();
        let Json::Obj(pairs) = &mut no_schema else { panic!() };
        pairs.retain(|(k, _)| k != "schema");
        rejects(&no_schema, "missing schema");
        let no_writes = doc.render().replacen("\"blocks_written\":", "\"blocks_rewritten\":", 1);
        rejects(&Json::parse(&no_writes).unwrap(), "levels[0]: missing blocks_written");
        let mut overfull = doc.clone();
        let Json::Arr(caches) = member(&mut overfull, "cache") else { panic!() };
        *member(&mut caches[1], "resident_bytes") = Json::from(u64::MAX);
        rejects(&overfull, "report.cache[1] holds");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }
}
