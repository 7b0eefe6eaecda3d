//! From measurements to named metrics, and the metrics to text and JSON.
//!
//! End-to-end names are the ones `BENCHMARK.json` gates; every workload
//! reports all of them. Per-layer names are reported by the traced pass and
//! carry no bound.

use std::fmt::Write as _;
use std::path::Path;

use sim_ssd::CostModel;

use crate::env::{BLOCK_SIZE, RECORD_BYTES};
use crate::stats::{percentile, supported_tail, Metric};
use crate::workload::{Kind, Measured, Round};

/// The gated metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_kops",
    "lat_p50_us",
    "lat_tail_us",
    "write_amp",
    "space_amp",
    "read_blocks_per_get",
];

/// Share of the parent's median by which a metric may worsen before a
/// change counts as a regression (the `bound` column of `BENCHMARK.json`).
pub fn bound_of(name: &str) -> f64 {
    match name {
        "write_amp" | "space_amp" | "read_blocks_per_get" => 0.03,
        _ => 0.25,
    }
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(|r| f(r)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The percentile `lat_tail_us` reports for this run's rounds.
pub fn tail_percentile(m: &Measured) -> f64 {
    let samples = m.rounds.iter().map(|r| r.lat.len()).min().unwrap_or(0);
    supported_tail(samples, m.kind.tail_cap())
}

/// How the three round timings are reported: as the clock read them, or
/// at the reference machine speed (see `calib`).
#[derive(Clone, Copy, PartialEq)]
pub enum Clock {
    Raw,
    Reference,
}

/// `ops_kops`, `lat_p50_us` and `lat_tail_us` of the given rounds under
/// `names`. At the reference speed a latency is multiplied by the round's
/// machine speed and a closed loop's rate divided by it; the open loop's
/// rate is set by its schedule, not by the machine, and stays as counted.
fn round_timings(m: &Measured, rounds: &[&Round], clock: Clock, names: [&str; 3]) -> Vec<Metric> {
    let ops = rounds.first().map_or(0, |r| r.ops);
    let samples = rounds.first().map_or(0, |r| r.lat.len() as u64);
    let tail = tail_percentile(m);
    let speed = |r: &Round| if clock == Clock::Reference { r.speed } else { 1.0 };
    let rate_speed = |r: &Round| if m.kind == Kind::Mixed { 1.0 } else { speed(r) };
    let latency = |r: &Round, p: f64| percentile(&r.lat, p) as f64 / 1e3 * speed(r);
    vec![
        Metric::of_rounds(
            names[0],
            "kops/s",
            &per_round(rounds, |r| r.kops() / rate_speed(r)),
            ops,
        ),
        Metric::of_rounds(names[1], "us", &per_round(rounds, |r| latency(r, 50.0)), samples),
        Metric::of_rounds(names[2], "us", &per_round(rounds, |r| latency(r, tail)), samples),
    ]
}

/// End-to-end metrics. Timings come from the untraced rounds only, at the
/// reference machine speed.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let untraced: Vec<&Round> = m.rounds.iter().filter(|r| !r.traced).collect();
    let life_requests = m.life.requests();
    let mut metrics = vec![Metric::of_rounds("setup_s", "s", &m.setup_s, 1)];
    metrics.extend(round_timings(
        m,
        &untraced,
        Clock::Reference,
        ["ops_kops", "lat_p50_us", "lat_tail_us"],
    ));
    metrics.extend([
        Metric::single(
            "write_amp",
            "ratio",
            ratio(m.life.io.writes * BLOCK_SIZE as u64, life_requests * RECORD_BYTES),
            life_requests,
        ),
        Metric::single(
            "space_amp",
            "ratio",
            ratio(
                m.space.iter().map(|s| s.live_blocks).sum::<u64>() * BLOCK_SIZE as u64,
                m.space.iter().map(|s| s.device_records).sum::<u64>() * RECORD_BYTES,
            ),
            m.space.len() as u64,
        ),
        Metric::single(
            "read_blocks_per_get",
            "ratio",
            ratio(m.readback.block_reads, m.readback.gets),
            m.readback.gets,
        ),
    ]);
    assert!(metrics.iter().map(|m| m.name.as_str()).eq(END_TO_END), "the gated list is fixed");
    metrics
}

/// The machine's speed over the given rounds, and their timings as the
/// clock read them: what the gated timings were derived from.
pub fn as_measured(m: &Measured, rounds: &[&Round]) -> Vec<Metric> {
    let mut out = vec![Metric::of_rounds(
        "machine.speed",
        "ratio",
        &per_round(rounds, |r| r.speed),
        rounds.len() as u64 + 1,
    )];
    out.extend(round_timings(
        m,
        rounds,
        Clock::Raw,
        ["raw.ops_kops", "raw.lat_p50_us", "raw.lat_tail_us"],
    ));
    out
}

/// Per-layer metrics that come from counters and the harness's own clocks
/// (the layer replay and the reconciliation add theirs).
pub fn per_layer_counters(m: &Measured) -> Vec<Metric> {
    let t = &m.timed;
    let requests = m.rounds.iter().map(|r| r.ops).sum::<u64>();
    let mut out = Vec::new();
    let mut count = |name: &str, unit: &'static str, value: f64, n: u64| {
        out.push(Metric::single(name, unit, value, n));
    };

    // sim-ssd: device and cache, over the primary rounds.
    count("device.reads", "count", t.io.reads as f64, requests);
    count("device.writes", "count", t.io.writes as f64, requests);
    count("device.syncs", "count", t.io.syncs as f64, requests);
    count("device.preads", "count", t.syscalls.preads as f64, requests);
    count("device.pwrites", "count", t.syscalls.pwrites as f64, requests);
    count(
        "device.blocks_per_pread",
        "ratio",
        ratio(t.io.reads, t.syscalls.preads),
        t.syscalls.preads,
    );
    count(
        "device.blocks_per_pwrite",
        "ratio",
        ratio(t.io.writes, t.syscalls.pwrites),
        t.syscalls.pwrites,
    );
    count(
        "device.model_s",
        "s",
        CostModel::default().estimate(&t.io).time_us / 1e6,
        t.io.reads + t.io.writes,
    );
    count(
        "cache.hit_rate",
        "ratio",
        ratio(t.cache_hits, t.cache_hits + t.cache_misses),
        t.cache_hits + t.cache_misses,
    );
    count("cache.evictions", "count", t.cache_evictions as f64, requests);

    // bloom and level search, over the primary rounds and the read-back gets.
    let probes = t.bloom_skips + t.lookup_block_reads;
    count("bloom.skip_rate", "ratio", ratio(t.bloom_skips, probes), probes);
    let rb = &m.readback_counters;
    count(
        "bloom.readback_skip_rate",
        "ratio",
        ratio(rb.bloom_skips, rb.bloom_skips + rb.lookup_block_reads),
        rb.lookups,
    );
    count("store.block_reads_per_get", "ratio", ratio(t.lookup_block_reads, t.lookups), t.lookups);

    // merge, per level, over the primary rounds.
    for level in 1..=4 {
        let writes = t.levels.get(level - 1).map_or(0, |l| l.blocks_written);
        count(&format!("merge.L{level}.writes"), "count", writes as f64, requests);
    }
    let preserved: u64 = t.levels.iter().map(|l| l.blocks_preserved).sum();
    count(
        "merge.preserved_frac",
        "ratio",
        ratio(preserved, preserved + t.merge_writes()),
        preserved + t.merge_writes(),
    );
    count(
        "merge.compaction_writes",
        "count",
        t.levels.iter().map(|l| l.compaction_writes).sum::<u64>() as f64,
        requests,
    );
    count(
        "merge.pairwise_fixes",
        "count",
        t.levels.iter().map(|l| l.pairwise_fixes).sum::<u64>() as f64,
        requests,
    );
    count(
        "merge.records_per_request",
        "ratio",
        ratio(t.merged_records(), t.requests()),
        t.requests(),
    );
    count(
        "merge.write_amp_timed",
        "ratio",
        ratio(t.io.writes * BLOCK_SIZE as u64, t.requests() * RECORD_BYTES),
        t.requests(),
    );
    count("tree.height", "count", m.life.height as f64, 1);

    // wal, over the primary rounds.
    count("wal.bytes_per_put", "B", ratio(t.wal_bytes, t.puts), t.puts);
    count("wal.fsyncs_per_kput", "ratio", ratio(t.wal_fsyncs * 1000, t.puts), t.puts);
    match &m.durability {
        Some(d) => out.push(Metric::of_rounds("wal.recover_s", "s", &d.recover_s, d.replayed_puts)),
        None => out.push(Metric::single("wal.recover_s", "s", 0.0, 0)),
    }

    // The open loop's own lateness, and service time next to from-due time.
    let zero = [0.0];
    let ol = m.open_loop.as_ref();
    let rounds_of =
        |f: fn(&crate::workload::OpenLoop) -> &Vec<f64>| ol.map_or(&zero[..], |o| &f(o)[..]);
    let n = m.rounds.first().map_or(0, |r| r.ops / 2);
    out.push(Metric::of_rounds(
        "gen.completed_kops",
        "kops/s",
        rounds_of(|o| &o.completed_kops),
        n * 2,
    ));
    out.push(Metric::of_rounds("gen.on_time_frac", "ratio", rounds_of(|o| &o.on_time_frac), n * 2));
    out.push(Metric::of_rounds("gen.late_frac", "ratio", rounds_of(|o| &o.late_frac), n * 2));
    out.push(Metric::of_rounds("gen.slow_frac", "ratio", rounds_of(|o| &o.slow_frac), n * 2));
    out.push(Metric::single("gen.max_late_us", "us", ol.map_or(0.0, |o| o.max_late_us), n * 2));
    out.push(Metric::of_rounds("lat.due_p90_us", "us", rounds_of(|o| &o.due_p90_us), n * 2));
    out.push(Metric::of_rounds("lat.due_p95_us", "us", rounds_of(|o| &o.due_p95_us), n * 2));
    out.push(Metric::of_rounds("lat.due_p99_us", "us", rounds_of(|o| &o.due_p99_us), n * 2));
    out.push(Metric::of_rounds("lat.put_due_tail_us", "us", rounds_of(|o| &o.put_due_tail_us), n));
    out.push(Metric::of_rounds("lat.get_due_p50_us", "us", rounds_of(|o| &o.get_due_p50_us), n));
    out.push(Metric::of_rounds("lat.get_due_tail_us", "us", rounds_of(|o| &o.get_due_tail_us), n));
    out.push(Metric::of_rounds(
        "sharded.put_service_p50_us",
        "us",
        rounds_of(|o| &o.put_service_p50_us),
        n,
    ));
    out.push(Metric::of_rounds(
        "sharded.put_service_p99_us",
        "us",
        rounds_of(|o| &o.put_service_p99_us),
        n,
    ));
    out.push(Metric::of_rounds(
        "sharded.get_service_p99_us",
        "us",
        rounds_of(|o| &o.get_service_p99_us),
        n,
    ));

    // The highest percentile each round supports, whatever the gate uses.
    let samples = m.rounds.iter().map(|r| r.lat.len()).min().unwrap_or(0);
    let top = supported_tail(samples, 99.9);
    let all: Vec<&Round> = m.rounds.iter().collect();
    out.extend(as_measured(m, &all));
    out.push(Metric::single("lat.top_pct", "%", top, samples as u64));
    out.push(Metric::of_rounds(
        "lat.top_us",
        "us",
        &per_round(&all, |r| percentile(&r.lat, top) as f64 / 1e3),
        samples as u64,
    ));
    out.push(Metric::of_rounds(
        "lat.max_us",
        "us",
        &per_round(&all, |r| *r.lat.last().unwrap_or(&0) as f64 / 1e3),
        samples as u64,
    ));

    // Read-back pass.
    out.push(Metric::of_rounds(
        "readback.get_kops",
        "kops/s",
        &m.readback.get_kops,
        m.readback.gets,
    ));
    out.push(Metric::of_rounds(
        "readback.get_p50_us",
        "us",
        &m.readback.get_p50_us,
        m.readback.gets,
    ));
    out.push(Metric::of_rounds(
        "iter.scan_krecs",
        "krec/s",
        &m.readback.scan_krecs,
        m.readback.records_per_round,
    ));
    out.push(Metric::of_rounds(
        "iter.scan_ns_per_rec",
        "ns",
        &m.readback.scan_ns_per_rec,
        m.readback.records_per_round,
    ));
    out.push(Metric::of_rounds(
        "proc.cpu_us_per_op",
        "us",
        &per_round(&all, |r| r.cpu_s * 1e6 / r.ops.max(1) as f64),
        m.rounds.first().map_or(0, |r| r.ops),
    ));

    // Tracing overhead: mean service time of traced against untraced rounds.
    let mean_service = |traced: bool| {
        let v: Vec<f64> = m
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.service_ns as f64 / r.ops.max(1) as f64)
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    };
    let overhead = match (mean_service(false), mean_service(true)) {
        (Some(off), Some(on)) if off > 0.0 => (on - off) / off * 100.0,
        _ => 0.0,
    };
    out.push(Metric::single(
        "trace.overhead_pct",
        "%",
        overhead,
        m.rounds.iter().filter(|r| r.traced).count() as u64,
    ));
    out
}

/// Process-level numbers, read when the run is over.
pub fn process_metrics(cpu_s: f64, spans: usize) -> Vec<Metric> {
    vec![
        Metric::single("proc.peak_rss_mb", "MB", crate::env::peak_rss_mb(), 1),
        Metric::single("proc.cpu_s", "s", cpu_s, 1),
        Metric::single("trace.spans", "count", spans as f64, 1),
    ]
}

pub fn print_table(title: &str, label: &str, metrics: &[Metric]) {
    println!("{label}{title}");
    for m in metrics {
        println!(
            "{label}  {:<30} {:>14.4} {:<7} n={:<9} rounds={} spread={:.3}",
            m.name, m.value, m.unit, m.n, m.rounds, m.spread
        );
        if !m.per_round.is_empty() {
            let values: Vec<String> = m.per_round.iter().map(|v| format!("{v:.4}")).collect();
            println!("{label}    per round: {}", values.join(" "));
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One workload's reported numbers.
pub struct Section {
    pub kind: Kind,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Filesystem the device and WAL files were on.
    pub data_fs: String,
}

/// A full report (every workload of a suite run) as JSON text.
pub fn suite_json(seed: u64, size: &str, sections: &[Section]) -> String {
    let mut s = String::new();
    let data_fs = sections.first().map_or("unknown", |s| s.data_fs.as_str());
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"lsm-perf/v1\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"size\": \"{size}\",");
    let _ = writeln!(s, "  \"data_fs\": \"{data_fs}\",");
    let _ = writeln!(
        s,
        "  \"nproc\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(s, "  \"workloads\": {{");
    for (i, section) in sections.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", section.kind.name());
        let _ = writeln!(
            s,
            "      \"attempted\": {}, \"failed\": {},",
            section.attempted, section.failed
        );
        for (label, metrics, last) in
            [("end_to_end", &section.end_to_end, false), ("per_layer", &section.per_layer, true)]
        {
            let _ = writeln!(s, "      \"{label}\": {{");
            for (j, m) in metrics.iter().enumerate() {
                let sep = if j + 1 == metrics.len() { "" } else { "," };
                let _ = writeln!(
                    s,
                    "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"rounds\": {}, \"spread\": {}}}{sep}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.n,
                    m.rounds,
                    json_number(m.spread)
                );
            }
            let _ = writeln!(s, "      }}{}", if last { "" } else { "," });
        }
        let _ = writeln!(s, "    }}{}", if i + 1 == sections.len() { "" } else { "," });
    }
    let _ = writeln!(s, "  }}");
    let _ = writeln!(s, "}}");
    s
}

/// Write `text` to `path` atomically: temp file in the same directory,
/// flushed and synced, then renamed over the target.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics =
            vec![Metric::single("setup_s", "s", 0.8127, 1), Metric::single("x", "us", 1.5, 3)];
        let line = result_line(true, 10, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.8127, \"unit\": \"s\"}, \"x\": {\"value\": 1.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn atomic_write_replaces_the_target() {
        let dir = crate::env::default_data_root();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("atomic-{}.json", std::process::id()));
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        std::fs::remove_file(&path).unwrap();
    }
}
