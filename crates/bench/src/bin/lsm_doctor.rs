//! `lsm_doctor` — introspection: build an index, then print and write its
//! `lsm-report/v1` report ([`lsm_tree::Report`]) — level shapes, waste
//! accounting (`m_i`, `w_i`), per-level merge counters, device I/O, wear,
//! cache behaviour and the metrics registry. Useful for eyeballing what a
//! policy does to the physical layout:
//!
//! ```text
//! cargo run --release --bin lsm_doctor -- [--policy=choosebest|full|rr|testmixed|aligned] \
//!     [--size-mb=20] [--workload=uniform|normal|tpc] [--out=results/lsm_doctor.json] \
//!     [--trace-out=t.json] [--tick-clock] [--ledger] \
//!     [--health] [--tail] [--health-window-ops=2000]
//! cargo run --release --bin lsm_doctor -- check <file>...
//! cargo run --release --bin lsm_doctor -- show <report.json>
//! ```
//!
//! An unknown `--policy` or `--workload` value, or a flag nothing reads,
//! exits 2 naming what is accepted. `--out=PATH` is where the report goes
//! (default `results/lsm_doctor.json`, a committed full-size run that
//! `scripts/check.sh` reproduces byte for byte — smoke runs pass a scratch
//! path). The report is the one file a run writes besides the Chrome
//! `trace_event` trace (for Perfetto) that `--trace-out` asks for;
//! `--tick-clock` stamps every consumer with ticks instead of wall-clock
//! microseconds.
//!
//! `check <file>...` is the one reader of everything the doctor exports,
//! each file dispatched on what it is: a JSON object whose `schema` is
//! `lsm-report/v1` — the doctor's report, a torture bundle, an `lsm_top
//! --json` frame — through [`lsm_tree::report::validate_report`], a
//! top-level array as a Chrome trace (a `ph` phase on every event, at least
//! one complete `"X"` span with `name`/`pid`/`tid`/`ts`/`dur`). Anything
//! else has no validator. Every problem of every file is printed; any
//! problem exits non-zero. `show <report.json>` prints a report through
//! the one renderer ([`lsm_bench::report::render_report`]) the doctor
//! prints its own with.
//!
//! `--health` and `--tail` attach the windowed engine beside the doctor's
//! registry and put its reports in the doctor's: the `health` section, the
//! amplification `series` (one row per `--health-window-ops` device ops)
//! and, under `--tail`, the `tail` section. The doctor cross-checks the
//! engine's request counts against the tree's put/delete/lookup counters
//! *exactly* — every front-end request opens exactly one root span — and
//! its cumulative counters exactly against the metrics registry; a health
//! report that judged no window or counted no put exits non-zero: lower
//! `--health-window-ops` until the run rotates one.
//!
//! `--ledger` attaches a [`DecisionLedger`] to the tree: every merge
//! decision is recorded with its full candidate set and reconciled against
//! the actual writes of the matching `MergeFinish`; the report's `ledger`
//! section is the per-level predicted-vs-actual table with the policy's
//! cumulative regret, and the ledger's registry counters are reconciled
//! against it exactly.

use std::path::PathBuf;
use std::sync::Arc;

use lsm_bench::report::render_report;
use lsm_bench::setup::workload_names;
use lsm_bench::{device_blocks, steady_state, Args, ExperimentScale, WorkloadKind};
use lsm_tree::observe::{
    ChromeTraceSink, Clock, EventSink, HealthConfig, HealthSink, Json, MetricsSink, SinkHandle,
    TickClock, WallClock,
};
use lsm_tree::report::{validate_report, SCHEMA};
use lsm_tree::{DecisionLedger, LsmTree, PolicySpec, Report, TreeOptions};
use sim_ssd::{BlockDevice, MemDevice};

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

/// What `path` holds and everything wrong with it, dispatching on the JSON
/// document's shape and `schema` string.
fn check_file(path: &str) -> (String, Vec<String>) {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => return ("unreadable file".into(), vec![e.to_string()]),
    };
    let doc = match Json::parse(&raw) {
        Ok(doc) => doc,
        Err(e) => return ("file".into(), vec![format!("no validator: not JSON ({e})")]),
    };
    if let Json::Arr(events) = &doc {
        return ("Chrome trace".into(), check_trace(events));
    }
    match doc.get("schema").as_str() {
        Some(SCHEMA) => (format!("{SCHEMA} report"), validate_report(&doc)),
        Some(schema) => (format!("{schema} document"), vec!["no validator for this schema".into()]),
        None => ("JSON document".into(), vec!["no \"schema\" string to dispatch on".into()]),
    }
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

/// What the exporter flags attach beside the doctor's own registry, on
/// one handle stamping from one clock: `--trace-out`'s Chrome trace and,
/// under `--health` or `--tail`, the windowed engine — keeping the series,
/// and under `--tail` the tail.
struct Exporters {
    handle: SinkHandle,
    chrome: Option<(Arc<ChromeTraceSink>, PathBuf)>,
    engine: Option<Arc<HealthSink>>,
}

impl Exporters {
    fn from_args(args: &Args) -> std::io::Result<Exporters> {
        let tail = args.flag("tail");
        let config = HealthConfig {
            window_ops: args.get_or("health-window-ops", HealthConfig::default().window_ops),
            ..HealthConfig::default()
        };
        let engine = (args.flag("health") || tail).then(|| {
            let engine = HealthSink::new(config).with_series();
            Arc::new(if tail { engine.with_tail() } else { engine })
        });
        let chrome = match args.get("trace-out").map(PathBuf::from) {
            Some(path) => Some((Arc::new(ChromeTraceSink::to_file(&path)?), path)),
            None => None,
        };
        let clock: Arc<dyn Clock> = if args.flag("tick-clock") {
            Arc::new(TickClock::new())
        } else {
            Arc::new(WallClock::new())
        };
        let consumers: [Option<Arc<dyn EventSink>>; 2] = [
            chrome.as_ref().map(|(c, _)| Arc::clone(c) as _),
            engine.as_ref().map(|e| Arc::clone(e) as _),
        ];
        let handle =
            consumers.into_iter().flatten().fold(SinkHandle::with_clock(clock), |h, c| h.and(c));
        Ok(Exporters { handle, chrome, engine })
    }

    /// Close the trace; returns the file it wrote, if any.
    fn finish(&self) -> Option<PathBuf> {
        let (chrome, path) = self.chrome.as_ref()?;
        chrome.finish();
        Some(path.clone())
    }
}

/// The `--policy` and `--workload` of a doctor run. An unknown name is an
/// error naming the accepted ones: a silent default would report a run
/// that is not the one asked for.
fn policy_and_workload(args: &Args) -> Result<(PolicySpec, WorkloadKind), String> {
    let policies = [
        ("choosebest", PolicySpec::ChooseBest),
        ("full", PolicySpec::Full),
        ("rr", PolicySpec::RoundRobin),
        ("testmixed", PolicySpec::TestMixed),
        ("aligned", PolicySpec::ChooseBestAligned),
    ];
    Ok((
        args.one_of("policy", "choosebest", &policies)?,
        args.one_of("workload", "uniform", &workload_names())?,
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
    let size_mb: u64 = args.get_or("size-mb", 20);
    let seed: u64 = args.get_or("seed", 1);
    let (policy, kind) = Args::or_exit(policy_and_workload(&args));
    let out = std::path::PathBuf::from(args.get("out").unwrap_or("results/lsm_doctor.json"));
    let ledger = args.flag("ledger").then(|| Arc::new(DecisionLedger::new(1024)));

    let cfg = ExperimentScale::small().config(100);
    let bytes = size_mb * 1024 * 1024;
    let device = Arc::new(MemDevice::with_block_size(device_blocks(&cfg, bytes), cfg.block_size));
    let metrics_sink = Arc::new(MetricsSink::new());
    let metrics = metrics_sink.metrics();
    let exporters = Exporters::from_args(&args).expect("open observability exporters");
    args.done();
    // The doctor's own registry (the report's `metrics` section) always
    // runs, on the same handle as whatever exporters were requested.
    let sink = exporters.handle.and(metrics_sink);
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
    eprintln!(
        "building {size_mb} MB steady state under {} / {} ...",
        tree.policy_name(),
        kind.name()
    );
    steady_state(&mut tree, kind, seed, bytes);

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
    if let Some(engine) = &exporters.engine {
        report = report.health(engine).series(engine, cfg.block_capacity() as u64);
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

    // The windowed engine folds the same stream the tree's counters and the
    // metrics registry describe, through independent paths: every
    // front-end put/delete opens exactly one root `Put` span and every get
    // one `Lookup` span, so its counts must equal theirs to the unit.
    if let Some(engine) = &exporters.engine {
        let stats = tree.stats();
        let registry = |counter: &'static str| (counter, metrics.counter(counter));
        let checks = [
            ("puts", ("tree puts + deletes", stats.puts + stats.deletes)),
            ("gets", ("tree lookups", stats.lookups())),
            ("device_writes", registry("device.writes")),
            ("cache_hits", registry("cache.hits")),
            ("cache_misses", registry("cache.misses")),
            ("wal_appends", registry("wal.appends")),
            ("backpressure_stalls", registry("scheduler.backpressure_stalls")),
        ];
        let cumulative = doc.get("health").get("cumulative");
        let count = |key: &str| cumulative.get(key).as_u64().unwrap_or(u64::MAX);
        let mismatches: Vec<String> = checks
            .iter()
            .filter(|(key, (_, expected))| count(key) != *expected)
            .map(|(key, (source, expected))| {
                format!("engine counted {} {key}, {source} = {expected}", count(key))
            })
            .collect();
        for m in &mismatches {
            println!("ENGINE MISMATCH: {m}");
        }
        if !mismatches.is_empty() {
            std::process::exit(1);
        }
        println!(
            "tree and registry agree with the windowed engine: {} puts, {} gets, {} device \
             writes, {} cache hits, {} stalls (exact match).",
            count("puts"),
            count("gets"),
            count("device_writes"),
            count("cache_hits"),
            count("backpressure_stalls"),
        );
        // A report that judged no window, or saw no put, says "healthy"
        // about a run it did not look at.
        if engine.windows_completed() == 0 || count("puts") == 0 {
            println!(
                "HEALTH BLIND: {} windows completed, {} puts counted — \
                 lower --health-window-ops for a run this size",
                engine.windows_completed(),
                count("puts")
            );
            std::process::exit(1);
        }
    }

    // The trace closes before the deep check so verification traffic stays
    // out of it.
    if let Some(path) = exporters.finish() {
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
    use lsm_tree::observe::{Event, SpanOp};

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

    fn exporters(flags: &[String]) -> Exporters {
        Exporters::from_args(&Args::parse_from(flags.iter().cloned())).unwrap()
    }

    #[test]
    fn a_run_with_no_flags_attaches_nothing() {
        let none = exporters(&[]);
        assert!(none.chrome.is_none() && none.engine.is_none());
        assert_eq!(none.finish(), None);
        // `--health` keeps the series beside the health report, not the tail.
        let engine = exporters(&["--health".into()]).engine.expect("the engine is attached");
        assert!(engine.series().is_some() && engine.tail_report().is_none());
    }

    #[test]
    fn the_trace_parses_and_the_engine_keeps_the_tail() {
        let dir = std::env::temp_dir().join(format!("lsm_doctor_exporters_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let stack = exporters(&[
            format!("--trace-out={}", trace.display()),
            "--tail".into(),
            "--health-window-ops=4".into(),
            "--tick-clock".into(),
        ]);
        let engine = Arc::clone(stack.engine.as_ref().expect("the engine is attached"));
        for i in 0..10u64 {
            let _put = stack.handle.span(SpanOp::put().with_shard(0));
            let _stall = stack.handle.span(SpanOp::backpressure_wait().with_shard(0));
            (0..i).for_each(|block| stack.handle.emit(Event::DeviceWrite { block }));
        }
        assert!(engine.windows_completed() >= 2, "windows rotate every 4 device ops");
        let tail = engine.tail_report().expect("--tail keeps the tail");
        assert_eq!(tail.get("dominant_phase").as_str(), Some("backpressure_wait"));

        assert_eq!(stack.finish().as_ref(), Some(&trace));
        let events = Json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
        assert_eq!(check_trace(events.items()), Vec::<String>::new());
        assert_eq!(check_file(trace.to_str().unwrap()).1, Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_refuses_what_it_cannot_validate() {
        let dir = std::env::temp_dir().join(format!("lsm_doctor_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, body, problem) in [
            (
                "metrics.prom",
                "# TYPE lsm_device_writes counter\nlsm_device_writes 42\n",
                "not JSON",
            ),
            ("other.json", r#"{"schema": "lsm-unknown/v1"}"#, "no validator for this schema"),
            ("bare.json", r#"{"device": []}"#, "no \"schema\" string"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let (_, problems) = check_file(path.to_str().unwrap());
            assert!(problems.iter().any(|p| p.contains(problem)), "{name}: {problems:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
