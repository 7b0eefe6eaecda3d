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
    fn float_formatting() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }
}
