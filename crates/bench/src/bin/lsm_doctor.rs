//! `lsm_doctor` — introspection: build (or restore) an index, print its
//! level shapes, waste accounting, wear distribution, and cache behaviour.
//!
//! Useful for eyeballing what a policy does to the physical layout:
//!
//! ```text
//! cargo run --release --bin lsm_doctor -- [--policy=choosebest|full|rr|testmixed|aligned] \
//!     [--size-mb=20] [--workload=uniform|normal|tpc] [--out=results/lsm_doctor.json] \
//!     [--trace-out=t.json] [--prom-out=m.prom] [--series-out=s.csv] \
//!     [--series-every=1000] [--tick-clock] [--ledger] [--health] \
//!     [--tail] [--tail-out=tail.json] [--tail-stall]
//! cargo run --release --bin lsm_doctor -- check <file>...
//! ```
//!
//! An unknown `--policy` or `--workload` value, or a flag nothing reads,
//! exits 2 naming what is accepted.
//!
//! `check <file>...` skips the doctor workload and is the one reader of
//! everything the binaries export: each file is dispatched on what it is —
//! a JSON object on its `schema` string (`lsm-health/v1` →
//! [`observe::validate_health`], `lsm-tail/v1` → [`observe::validate_tail`],
//! including the per-exemplar invariant that phases sum to within 1% of
//! the measured put duration, `lsm-postmortem/v1` →
//! [`lsm_tree::postmortem::validate_bundle`]), a top-level JSON array as a
//! Chrome `trace_event` trace (objects carrying a `ph` phase, at least one
//! complete `"X"` span with `name`/`pid`/`tid`/`ts`/`dur`), `*.prom` as a
//! Prometheus text exposition (strict line validator, at least one
//! sample), `*.csv` as an amplification time series (header row, constant
//! width, monotone device-op counts), and a JSON object with an
//! `experiment` string and no `schema` as the doctor's own merged report
//! (the buffer cache's resident bytes within its capacity). Every problem
//! of every file is printed; any problem exits non-zero.
//!
//! `--out=PATH` is where the merged JSON report goes (default
//! `results/lsm_doctor.json`, a committed full-size run — smoke runs pass
//! a scratch path).
//!
//! `--tail` and `--health` attach the tail-anatomy and windowed health
//! engines beside the doctor's registry, print each report's text form
//! after the workload, embed the `lsm-tail/v1` / `lsm-health/v1` report in
//! the merged JSON report, and cross-check each engine's request counts
//! against the tree's own put/delete/lookup counters *exactly* — every
//! front-end request opens exactly one root span, so any disagreement is
//! a bug and exits non-zero. The health engine's cumulative counters are
//! also reconciled exactly against the metrics registry (the same event
//! stream through independent paths), and a health report that judged no
//! window or counted no put exits non-zero too: lower
//! `--health-window-ops` until the run rotates one.
//!
//! `--tail-stall` runs a seeded, deterministic backpressure-stall scenario
//! instead of the doctor workload (a `SimExecutor`-backed sharded tree
//! with a tick clock, one immutable-memtable slot, and enough puts to
//! stall repeatedly), prints its blame table, and exits non-zero unless
//! the report validates and names `backpressure_wait` as the dominant
//! phase on a stalled shard.
//!
//! `--ledger` attaches a [`DecisionLedger`] to the tree: every merge
//! decision is recorded with its full candidate set and reconciled against
//! the actual writes of the matching `MergeFinish`, and the doctor prints
//! the per-level predicted-vs-actual table with the policy's cumulative
//! regret against the best candidate in hindsight.

use std::sync::Arc;

use lsm_bench::report::{fmt_f, merged_json, render_health, render_ledger, render_tail};
use lsm_bench::{Args, ObsPipeline, Table, WorkloadKind};
use lsm_tree::observe::metrics::validate_prometheus;
use lsm_tree::observe::{
    validate_health, validate_tail, ExemplarConfig, ExemplarSink, Json, MetricsSink, SinkHandle,
    TickClock,
};
use lsm_tree::postmortem::validate_bundle;
use lsm_tree::{
    DecisionLedger, LsmConfig, LsmTree, PolicySpec, SchedulerBackend, ShardedLsmTree, SimExecutor,
    TreeOptions,
};
use sim_ssd::{BlockDevice, CostModel, MemDevice};
use workloads::{fill_to_bytes, reach_steady_state, InsertRatio};

/// Problems of a Chrome `trace_event` document (a top-level array).
fn check_trace(events: &[Json]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut complete = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get("ph").as_str() else {
            problems.push(format!("event {i} has no \"ph\" phase"));
            continue;
        };
        if ph == "X" {
            complete += 1;
            for key in ["name", "pid", "tid", "ts", "dur"] {
                if ev.get(key) == &Json::Null {
                    problems.push(format!("complete event {i} lacks \"{key}\""));
                }
            }
        }
    }
    if complete == 0 {
        problems.push("no complete (\"X\") span events".into());
    }
    problems
}

/// Problems of an amplification time-series CSV.
fn check_series(text: &str) -> Vec<String> {
    let mut lines = text.lines();
    let Some(header) = lines.next().filter(|h| h.starts_with("op,")) else {
        return vec!["header row does not start with \"op,\"".into()];
    };
    let width = header.split(',').count();
    let mut problems = Vec::new();
    let mut last_op = 0u64;
    let mut rows = 0u64;
    for (i, line) in lines.enumerate() {
        rows += 1;
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != width {
            problems.push(format!("row {i} has {} cells, header has {width}", cells.len()));
        }
        match cells[0].parse::<u64>() {
            Ok(op) if op >= last_op => last_op = op,
            Ok(_) => problems.push(format!("row {i} device-op count went backwards")),
            Err(_) => problems.push(format!("row {i} op is not a number: {}", cells[0])),
        }
    }
    if rows == 0 {
        problems.push("no data rows".into());
    }
    problems
}

/// Problems of a merged report ([`merged_json`]): the buffer cache states
/// its budget and is within it.
fn check_report(doc: &Json) -> Vec<String> {
    let cache = |key| doc.get("cache").get(key).as_f64();
    match (cache("resident_bytes"), cache("capacity_bytes")) {
        (Some(resident), Some(capacity)) if resident <= capacity => Vec::new(),
        (Some(resident), Some(capacity)) => {
            vec![format!("cache holds {resident} bytes, over its capacity of {capacity}")]
        }
        _ => vec!["cache section lacks resident_bytes / capacity_bytes".into()],
    }
}

/// What `path` holds and everything wrong with it, dispatching on the
/// extension, then on the JSON document's shape and `schema` string.
fn check_file(path: &str) -> (String, Vec<String>) {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => return ("unreadable file".into(), vec![e.to_string()]),
    };
    if path.ends_with(".prom") {
        let problems = match validate_prometheus(&raw) {
            Ok(0) => vec!["no samples".into()],
            Ok(_) => Vec::new(),
            Err(e) => vec![e],
        };
        return ("Prometheus exposition".into(), problems);
    }
    if path.ends_with(".csv") {
        return ("amplification time series".into(), check_series(&raw));
    }
    let doc = match Json::parse(&raw) {
        Ok(doc) => doc,
        Err(e) => return ("JSON document".into(), vec![format!("invalid JSON: {e}")]),
    };
    if let Json::Arr(events) = &doc {
        return ("Chrome trace".into(), check_trace(events));
    }
    let schema = match (doc.get("schema"), doc.get("experiment")) {
        (Json::Str(s), _) => s.as_str(),
        (Json::Null, Json::Str(_)) => return ("merged report".into(), check_report(&doc)),
        _ => return ("JSON document".into(), vec!["no \"schema\" string to dispatch on".into()]),
    };
    let problems = match schema {
        "lsm-health/v1" => validate_health(&doc),
        "lsm-tail/v1" => validate_tail(&doc),
        "lsm-postmortem/v1" => validate_bundle(&doc),
        _ => vec!["no validator for this schema".into()],
    };
    (format!("{schema} report"), problems)
}

/// The `check <file>...` subcommand: never returns.
fn run_check(paths: &[String]) -> ! {
    if paths.is_empty() {
        eprintln!("usage: lsm_doctor check <file>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in paths {
        let (what, problems) = check_file(path);
        if problems.is_empty() {
            println!("{path}: valid {what}.");
        }
        for p in &problems {
            failed = true;
            eprintln!("{path}: {what}: {p}");
        }
    }
    std::process::exit(i32::from(failed));
}

/// One seeded stall run for `--tail-stall`: a two-shard tree over a
/// `max_imm = 1` simulated executor, traced through a tick clock into a
/// fresh [`ExemplarSink`]. Every stalled seal parks the writer inside a
/// `backpressure_wait` span while the executor runs the flush/merge
/// backlog inline, so the stalled puts' critical path is dominated by the
/// stall — deterministically, since every timestamp is a tick count.
fn tail_stall_scenario(seed: u64) -> Arc<ExemplarSink> {
    let exemplars = Arc::new(ExemplarSink::new(ExemplarConfig {
        per_shard: 4,
        windows: 4,
        window_puts: 64,
        percentile: 0.95,
        min_samples: 16,
    }));
    let handle =
        SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&exemplars) as _);
    let sim = Arc::new(SimExecutor::new(1, seed, handle.clone()));
    let cfg = LsmConfig {
        block_size: 256,
        payload_size: 4,
        k0_blocks: 4,
        gamma: 4,
        cache_blocks: 16,
        merge_rate: 0.25,
        ..LsmConfig::default()
    };
    let opts = TreeOptions::builder().policy(PolicySpec::ChooseBest).sink(handle.clone()).build();
    let devices = (0..2).map(|_| Arc::new(MemDevice::with_block_size(1 << 14, 256)) as _).collect();
    let tree = ShardedLsmTree::with_backend(
        cfg,
        opts,
        devices,
        None,
        Some(Arc::clone(&sim) as Arc<dyn SchedulerBackend>),
    )
    .expect("create sharded tree");
    for k in 0..600u64 {
        tree.put(k, vec![(k % 251) as u8; 4]).expect("put");
    }
    drop(tree);
    sim.drain().expect("drain");
    exemplars
}

/// The `--tail-stall` mode: never returns. Runs the seeded scenario
/// twice to prove the report is byte-identical across replays, validates
/// it, prints the blame table, and demands that `backpressure_wait` is
/// the dominant phase globally and on at least one shard.
fn run_tail_stall(args: &Args) -> ! {
    let seed: u64 = args.get_or("seed", 42);
    args.done();
    let report = tail_stall_scenario(seed).report();
    let replay = tail_stall_scenario(seed).report();
    let mut failures = Vec::new();
    if report.render() != replay.render() {
        failures.push("replay with the same seed produced a different report".to_string());
    }
    for p in validate_tail(&report) {
        failures.push(format!("invalid report: {p}"));
    }
    print!("{}", render_tail(&report));
    let puts = report.get("completed").get("put").as_u64();
    if puts != Some(600) {
        failures.push(format!("expected 600 completed put spans, engine saw {puts:?}"));
    }
    let blames_stall =
        |scope: &Json| scope.get("dominant_phase").as_str() == Some("backpressure_wait");
    if !blames_stall(&report) {
        failures.push(format!(
            "dominant phase should be backpressure_wait for the induced stall, got {:?}",
            report.get("dominant_phase")
        ));
    }
    if !report.get("shards").items().iter().any(blames_stall) {
        failures.push("no shard blames backpressure_wait for the induced stall".to_string());
    }
    if failures.is_empty() {
        println!(
            "TAIL STALL: report valid, byte-identical across replays, \
             blame names backpressure_wait (seed {seed})."
        );
        std::process::exit(0);
    }
    for f in &failures {
        eprintln!("TAIL STALL: {f}");
    }
    std::process::exit(1);
}

/// The `--policy` and `--workload` of a doctor run. An unknown name is an
/// error naming the accepted ones: the typed strings label every
/// Prometheus sample, so a silent default would mislabel the run.
fn policy_and_workload(args: &Args) -> Result<(PolicySpec, WorkloadKind), String> {
    let policies = [
        ("choosebest", PolicySpec::ChooseBest),
        ("full", PolicySpec::Full),
        ("rr", PolicySpec::RoundRobin),
        ("testmixed", PolicySpec::TestMixed),
        ("aligned", PolicySpec::ChooseBestAligned),
    ];
    let workloads = [
        ("uniform", WorkloadKind::Uniform),
        ("normal", WorkloadKind::normal_default()),
        ("tpc", WorkloadKind::Tpc),
    ];
    Ok((
        args.one_of("policy", "choosebest", &policies)?,
        args.one_of("workload", "uniform", &workloads)?,
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "check") {
        run_check(&argv[1..]);
    }
    let args = Args::parse_from(argv);
    if args.flag("tail-stall") {
        run_tail_stall(&args);
    }
    let size_mb: u64 = args.get_or("size-mb", 20);
    let seed: u64 = args.get_or("seed", 1);
    let (policy, kind) = policy_and_workload(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let policy_label = args.get("policy").unwrap_or("choosebest");
    let out = std::path::PathBuf::from(args.get("out").unwrap_or("results/lsm_doctor.json"));
    let ledger = args.flag("ledger").then(|| Arc::new(DecisionLedger::new(1024)));

    let scale = lsm_bench::ExperimentScale::small();
    let cfg = scale.config(100);

    let device_blocks = (size_mb * 1024 * 1024 / cfg.block_size as u64) * 6;
    let device = Arc::new(MemDevice::with_block_size(device_blocks.max(8192), cfg.block_size));
    let metrics_sink = Arc::new(MetricsSink::new());
    let metrics = metrics_sink.metrics();
    let obs = ObsPipeline::from_args(
        &args,
        cfg.block_capacity() as u64,
        &[("policy", policy_label), ("workload", kind.name())],
    )
    .expect("open observability exporters");
    args.done();
    // The doctor's own registry (merged into the JSON report) always runs,
    // on the same handle as whatever exporters were requested.
    let sink = obs.sink().and(metrics_sink);
    let mut opts_builder = TreeOptions::builder().policy(policy).preserve_blocks(true).sink(sink);
    if let Some(l) = &ledger {
        opts_builder = opts_builder.ledger(Arc::clone(l));
    }
    let mut tree = LsmTree::new(
        cfg.clone(),
        opts_builder.build(),
        Arc::clone(&device) as Arc<dyn BlockDevice>,
    )
    .unwrap();
    let mut wl = kind.build(seed, cfg.payload_size, InsertRatio::INSERT_ONLY);
    eprintln!(
        "building {size_mb} MB steady state under {} / {} ...",
        tree.policy_name(),
        kind.name()
    );
    fill_to_bytes(&mut tree, &mut *wl, size_mb * 1024 * 1024).unwrap();
    reach_steady_state(&mut tree, &mut *wl, 100_000_000).unwrap();

    println!("\n=== index anatomy ({} policy, {} workload) ===", tree.policy_name(), kind.name());
    println!(
        "height h = {} (L0 + {} on-SSD levels) | ~{} records, ~{} MB logical",
        tree.height(),
        tree.levels().len(),
        tree.record_count(),
        tree.approx_bytes() / (1024 * 1024),
    );

    let b = cfg.block_capacity();
    let mut table = Table::new([
        "level",
        "blocks",
        "capacity",
        "fill%",
        "records",
        "waste%",
        "m_i",
        "w_i",
        "merges_in",
        "writes",
        "preserved",
        "compactions",
    ]);
    for (i, lvl) in tree.levels().iter().enumerate() {
        let paper = i + 1;
        let cap = cfg.level_capacity_blocks(paper);
        let stats = tree.stats().level(paper);
        table.row([
            format!("L{paper}"),
            lvl.num_blocks().to_string(),
            cap.to_string(),
            fmt_f(100.0 * lvl.num_blocks() as f64 / cap as f64, 1),
            lvl.records().to_string(),
            fmt_f(100.0 * lvl.waste_factor(b), 2),
            lvl.merges_since_compaction.to_string(),
            lvl.waste_delta.to_string(),
            stats.merges_in.to_string(),
            stats.blocks_written.to_string(),
            stats.blocks_preserved.to_string(),
            stats.compactions.to_string(),
        ]);
    }
    table.print();

    if let Some(ledger) = &ledger {
        let totals = ledger.totals();
        print!("{}", render_ledger(&ledger.to_json()));
        // The ledger and the metrics registry hear about outcomes through
        // independent paths (the ledger's own mutex vs `LedgerOutcome`
        // events through the sink); the doctor cross-checks them exactly.
        let outcomes = metrics.counter("policy.ledger_outcomes");
        let regret = metrics.counter("policy.regret_blocks");
        if outcomes != totals.closed || regret != totals.regret {
            println!(
                "LEDGER MISMATCH: registry saw {outcomes} outcomes / {regret} regret blocks, \
                 ledger closed {} / {}",
                totals.closed, totals.regret
            );
            std::process::exit(1);
        }
        println!(
            "registry agrees: {outcomes} ledger outcomes, {regret} regret blocks (exact match)."
        );
    }

    let io = device.io_snapshot();
    let wear = device.wear_summary();
    let est = CostModel::default().estimate(&io);
    println!(
        "\ndevice: {} writes, {} reads, {} trims | wear: max {} programs on one block, {} blocks touched",
        io.writes, io.reads, io.trims, wear.max_wear, wear.blocks_touched
    );
    println!(
        "estimated device time {:.1} ms, energy {:.1} mJ | cache hit rate {:.1}%",
        est.time_us / 1000.0,
        est.energy_uj / 1000.0,
        tree.store().cache_stats().hit_rate() * 100.0
    );
    // One merged document: device I/O ⊕ cache ⊕ tree counters ⊕ the event
    // metrics the sink accumulated, written next to the CSVs. Built before
    // the deep check, which reads every block back and would otherwise
    // pollute the device/cache numbers with verification traffic.
    let mut doc = merged_json("lsm_doctor", &tree, Some(&wear), Some(&metrics));
    if let (Some(l), Json::Obj(pairs)) = (&ledger, &mut doc) {
        pairs.push(("ledger".into(), l.to_json()));
    }

    // Amplification over time: how write amplification, cache behaviour,
    // and wear accumulated as the device absorbed operations. Printed (a
    // spaced subset) whenever --series-out sampled the run.
    if let Some(series) = obs.series() {
        let samples = series.samples();
        println!("\n=== amplification over time ({} samples) ===", samples.len());
        let mut t = Table::new([
            "device ops",
            "writes",
            "write amp",
            "cache hit%",
            "max wear",
            "height",
            "merges",
        ]);
        let stride = (samples.len() / 12).max(1);
        for (i, s) in samples.iter().enumerate() {
            if i % stride != 0 && i + 1 != samples.len() {
                continue;
            }
            t.row([
                s.op.to_string(),
                s.device_writes.to_string(),
                fmt_f(s.write_amp, 2),
                fmt_f(100.0 * s.cache_hit_rate, 1),
                s.max_wear.to_string(),
                s.height.to_string(),
                s.merges.to_string(),
            ]);
        }
        t.print();
    }
    // Both engines fold the same span stream the tree's own counters
    // describe: every front-end put/delete opens exactly one root `Put`
    // span and every get one `Lookup` span, so each engine's request
    // counts must equal the tree's to the unit.
    let stats = tree.stats();
    let requests = [("put", stats.puts + stats.deletes), ("lookup", stats.lookups())];
    let reconcile = |engine: &str, counted: [u64; 2]| {
        for ((what, expected), counted) in requests.into_iter().zip(counted) {
            if counted != expected {
                println!(
                    "{} MISMATCH: engine completed {counted} {what} spans, \
                     tree counted {expected} requests",
                    engine.to_uppercase()
                );
                std::process::exit(1);
            }
        }
        println!(
            "tree agrees with the {engine} engine: {} put spans, {} lookup spans (exact match).",
            requests[0].1, requests[1].1
        );
    };
    // Windowed health: the rolling view of the run's tail, plus a second
    // reconciliation — the health engine and the metrics registry consumed
    // the same event stream through independent paths, so their cumulative
    // counters must agree to the unit.
    if let Some(health) = obs.health() {
        let report = health.report();
        print!("{}", render_health(&report));
        let cumulative = report.get("cumulative");
        let count = |key: &str| cumulative.get(key).as_u64().unwrap_or(u64::MAX);
        reconcile("health", [count("puts"), count("gets")]);
        let checks = [
            ("device.writes", "device_writes"),
            ("cache.hits", "cache_hits"),
            ("cache.misses", "cache_misses"),
            ("wal.appends", "wal_appends"),
            ("scheduler.backpressure_stalls", "backpressure_stalls"),
        ];
        let mut mismatch = false;
        for (counter, key) in checks {
            let (registry, engine) = (metrics.counter(counter), count(key));
            if engine != registry {
                println!(
                    "HEALTH MISMATCH: engine counted {engine} {key}, registry {counter} = {registry}"
                );
                mismatch = true;
            }
        }
        if mismatch {
            std::process::exit(1);
        }
        println!(
            "registry agrees: {} device writes, {} cache hits, {} stalls (exact match).",
            metrics.counter("device.writes"),
            metrics.counter("cache.hits"),
            metrics.counter("scheduler.backpressure_stalls"),
        );
        // A report that judged no window, or saw no put, says "healthy"
        // about a run it did not look at.
        if health.windows_completed() == 0 || count("puts") == 0 {
            println!(
                "HEALTH BLIND: {} windows completed, {} puts counted — \
                 lower --health-window-ops for a run this size",
                health.windows_completed(),
                count("puts")
            );
            std::process::exit(1);
        }
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("health".into(), report));
        }
    }
    // Tail anatomy: the critical-path blame table over the slowest
    // captured puts.
    if let Some(tail) = obs.tail() {
        let report = tail.report();
        print!("{}", render_tail(&report));
        reconcile("tail", [tail.completed_puts(), tail.completed_lookups()]);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("tail".into(), report));
        }
    }

    // Exporters close before the deep check so verification traffic stays
    // out of the trace and the time series.
    for path in obs.finish().expect("write observability outputs") {
        println!("wrote {}", path.display());
    }

    if let Err(e) = lsm_tree::verify::check_tree(&tree, true) {
        println!("INVARIANT VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("all §II-B invariants verified (deep check).");

    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out, doc.render_pretty()).expect("write json report");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_policy_or_workload_is_an_error_not_the_default() {
        let parse = |flags: &[&str]| {
            policy_and_workload(&Args::parse_from(flags.iter().map(|f| f.to_string())))
        };
        assert_eq!(parse(&[]), Ok((PolicySpec::ChooseBest, WorkloadKind::Uniform)));
        assert_eq!(
            parse(&["--policy=full", "--workload=tpc"]),
            Ok((PolicySpec::Full, WorkloadKind::Tpc))
        );
        let err = parse(&["--policy=choose_best"]).unwrap_err();
        assert!(err.contains("choose_best") && err.contains("choosebest|full|rr"), "{err}");
        assert!(parse(&["--workload=unifrom"]).unwrap_err().contains("uniform|normal|tpc"));
    }
}
