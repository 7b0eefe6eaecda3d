//! `lsm_doctor` — introspection: build an index, then print and write its
//! `lsm-report/v1` report ([`lsm_tree::Report`]) — level shapes, waste
//! accounting (`m_i`, `w_i`), per-level merge counters, device I/O, wear,
//! cache behaviour and the metrics registry. Useful for eyeballing what a
//! policy does to the physical layout:
//!
//! ```text
//! cargo run --release --bin lsm_doctor -- [--policy=choosebest|full|rr|testmixed|aligned] \
//!     [--size-mb=20] [--workload=uniform|normal|tpc] [--out=results/lsm_doctor.json] \
//!     [--trace-out=t.json] [--prom-out=m.prom] [--series-out=s.csv] \
//!     [--tick-clock] [--ledger] [--health] [--health-out=health.json] \
//!     [--health-window-ops=2000] [--tail] [--tail-out=tail.json] [--tail-stall]
//! cargo run --release --bin lsm_doctor -- check <file>...
//! cargo run --release --bin lsm_doctor -- show <report.json>
//! ```
//!
//! An unknown `--policy` or `--workload` value, or a flag nothing reads,
//! exits 2 naming what is accepted. `--out=PATH` is where the report goes
//! (default `results/lsm_doctor.json`, a committed full-size run — smoke
//! runs pass a scratch path).
//!
//! `check <file>...` is the one reader of everything the binaries export,
//! each file dispatched on what it is: a JSON object on its `schema`
//! (`lsm-health/v1` → [`observe::validate_health`], `lsm-tail/v1` →
//! [`observe::validate_tail`], `lsm-report/v1` — the doctor's report, a
//! torture bundle, an `lsm_top --json` frame — →
//! [`lsm_tree::report::validate_report`]), a top-level array as a Chrome
//! `trace_event` trace (a `ph` phase on every event, at least one complete
//! `"X"` span with `name`/`pid`/`tid`/`ts`/`dur`), `*.prom` as a Prometheus
//! exposition with at least one sample, and `*.csv` as an amplification
//! series (header row, constant width, monotone device-op counts). Every
//! problem of every file is printed; any problem exits non-zero. `show
//! <report.json>` prints a report through the one renderer
//! ([`lsm_bench::report::render_report`]) the doctor prints its own with.
//!
//! `--tail` and `--health` attach the windowed engine beside the doctor's
//! registry, put its reports in the doctor's, and cross-check its request
//! counts against the tree's put/delete/lookup counters *exactly* — every
//! front-end request opens exactly one root span. With `--health` its
//! cumulative counters are also reconciled exactly against the metrics
//! registry, and a health report that judged no window or counted no put
//! exits non-zero: lower `--health-window-ops` until the run rotates one.
//! `--series-out` prints a spaced subset of the amplification rows.
//!
//! `--tail-stall` runs a seeded, deterministic backpressure-stall scenario
//! instead of the doctor workload (a sharded tree over a stepped scheduler
//! with a tick clock, one immutable-memtable slot, and enough puts to
//! stall repeatedly), prints its blame table, and exits non-zero unless
//! the report validates and names `backpressure_wait` as the dominant
//! phase on a stalled shard.
//!
//! `--ledger` attaches a [`DecisionLedger`] to the tree: every merge
//! decision is recorded with its full candidate set and reconciled against
//! the actual writes of the matching `MergeFinish`; the report's `ledger`
//! section is the per-level predicted-vs-actual table with the policy's
//! cumulative regret, and the ledger's registry counters are reconciled
//! against it exactly.

use std::sync::Arc;

use lsm_bench::report::{fmt_f, render_report, render_tail};
use lsm_bench::{Args, ObsPipeline, Table, WorkloadKind};
use lsm_tree::observe::metrics::validate_prometheus;
use lsm_tree::observe::{
    validate_health, validate_tail, HealthConfig, HealthSink, Json, MetricsSink, SinkHandle,
    TickClock,
};
use lsm_tree::report::validate_report;
use lsm_tree::{
    DecisionLedger, LsmConfig, LsmTree, MergeScheduler, PolicySpec, Report, ShardedLsmTree,
    TreeOptions,
};
use sim_ssd::{BlockDevice, MemDevice};
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
    let Some(schema) = doc.get("schema").as_str() else {
        return ("JSON document".into(), vec!["no \"schema\" string to dispatch on".into()]);
    };
    let problems = match schema {
        "lsm-health/v1" => validate_health(&doc),
        "lsm-tail/v1" => validate_tail(&doc),
        "lsm-report/v1" => validate_report(&doc),
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

/// The `show <report.json>` subcommand: never returns.
fn run_show(paths: &[String]) -> ! {
    let [path] = paths else {
        eprintln!("usage: lsm_doctor show <report.json>");
        std::process::exit(2);
    };
    match std::fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|raw| Json::parse(&raw))
    {
        Ok(doc) => print!("{}", render_report(&doc)),
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// One seeded stall run for `--tail-stall`: a two-shard tree over a
/// `max_imm = 1` stepped scheduler, traced through a tick clock into a
/// fresh windowed engine. Every stalled seal parks the writer inside a
/// `backpressure_wait` span while the scheduler runs the flush/merge
/// backlog inline, so the stalled puts' critical path is dominated by the
/// stall — deterministically, since every timestamp is a tick count.
/// Returns the engine's tail report.
fn tail_stall_scenario(seed: u64) -> Json {
    let engine = Arc::new(
        HealthSink::new(HealthConfig { window_ops: 64, windows: 4, ..HealthConfig::default() })
            .with_tail(),
    );
    let handle = SinkHandle::with_clock(Arc::new(TickClock::new())).and(Arc::clone(&engine) as _);
    let sim = Arc::new(MergeScheduler::simulated(1, seed, handle.clone()));
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
    let tree = ShardedLsmTree::with_backend(cfg, opts, devices, None, Some(Arc::clone(&sim)))
        .expect("create sharded tree");
    for k in 0..600u64 {
        tree.put(k, vec![(k % 251) as u8; 4]).expect("put");
    }
    drop(tree);
    sim.drain().expect("drain");
    engine.tail_report().expect("the engine keeps the tail")
}

/// The `--tail-stall` mode: never returns. Runs the seeded scenario
/// twice to prove the report is byte-identical across replays, validates
/// it, prints the blame table, and demands that `backpressure_wait` is
/// the dominant phase globally and on at least one shard.
fn run_tail_stall(args: &Args) -> ! {
    let seed: u64 = args.get_or("seed", 42);
    args.done();
    let report = tail_stall_scenario(seed);
    let replay = tail_stall_scenario(seed);
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
    match argv.first().map(String::as_str) {
        Some("check") => run_check(&argv[1..]),
        Some("show") => run_show(&argv[1..]),
        _ => {}
    }
    let repro = std::iter::once("cargo run --release -p lsm-bench --bin lsm_doctor --")
        .chain(argv.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(" ");
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

    // The report, built before the deep check, which reads every block back
    // and would otherwise pollute the device and cache numbers with
    // verification traffic.
    let mut report = Report::new("lsm_doctor run")
        .seed(seed)
        .repro(&repro)
        .tree(&tree)
        .wear(&[device.wear_snapshot()], 32);
    if let Some(l) = &ledger {
        report = report.ledger(l);
    }
    if let Some(engine) = obs.health().or(obs.tail()) {
        report = report.health(engine);
    }
    let report = report.metrics(&metrics);
    let doc = report.to_json();
    print!("{}", render_report(&doc));

    if let Some(ledger) = &ledger {
        // The ledger and the metrics registry hear about outcomes through
        // independent paths (the ledger's own mutex vs `LedgerOutcome`
        // events through the sink); the doctor cross-checks them exactly.
        let totals = ledger.totals();
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
            "\nregistry agrees: {outcomes} ledger outcomes, {regret} regret blocks (exact match)."
        );
    }

    // Amplification over time: how write amplification, cache behaviour,
    // and wear accumulated as the device absorbed operations. Printed (a
    // spaced subset) whenever --series-out sampled the run.
    if let Some((samples, capacity)) = obs.series() {
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
                fmt_f(s.write_amp(capacity), 2),
                fmt_f(100.0 * s.cache_hit_rate, 1),
                s.max_wear.to_string(),
                s.height.to_string(),
                s.merges.to_string(),
            ]);
        }
        t.print();
    }
    // The windowed engine folds the same span stream the tree's own
    // counters describe: every front-end put/delete opens exactly one root
    // `Put` span and every get one `Lookup` span, so its request counts
    // must equal the tree's to the unit.
    if obs.health().or(obs.tail()).is_some() {
        let stats = tree.stats();
        let requests = [("put", stats.puts + stats.deletes), ("lookup", stats.lookups())];
        for ((what, expected), key) in requests.into_iter().zip(["puts", "gets"]) {
            let counted = doc.get("health").get("cumulative").get(key).as_u64().unwrap_or(u64::MAX);
            if counted != expected {
                println!(
                    "ENGINE MISMATCH: engine completed {counted} {what} spans, \
                     tree counted {expected} requests"
                );
                std::process::exit(1);
            }
        }
        println!(
            "tree agrees with the windowed engine: {} put spans, {} lookup spans (exact match).",
            requests[0].1, requests[1].1
        );
    }
    // The engine and the metrics registry consumed the same event stream
    // through independent paths, so their cumulative counters must agree
    // to the unit.
    if let Some(health) = obs.health() {
        let cumulative = doc.get("health").get("cumulative");
        let count = |key: &str| cumulative.get(key).as_u64().unwrap_or(u64::MAX);
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

    report.write_to(&out).expect("write json report");
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
