//! `lsm_top` — live per-shard health dashboard over an in-process workload.
//!
//! Spins up a sharded in-memory tree, drives it with writer and reader
//! threads, and redraws a plain-text dashboard from the attached
//! [`HealthSink`]'s rolling windows: put/get/fsync latency percentiles,
//! write amplification, cache hit rate, backpressure, detector states, and
//! SLO burn — globally and per shard. No terminal library: each frame is an
//! ANSI clear plus the tables the other bench binaries already print.
//!
//! ```text
//! cargo run --release --bin lsm_top -- [--shards=2] [--writers=2]
//!     [--readers=1] [--duration-s=10] [--refresh-ms=500] [--seed=1]
//!     [--window-ops=500] [--windows=8] [--once] [--json]
//! ```
//!
//! `--once` replaces the thread pool and refresh loop with a synchronous
//! burst that runs until every window in the ring has rotated, renders a
//! single frame (no screen clear), and exits 0 — the CI smoke mode.
//! `--json` renders that frame as machine-readable JSON instead of
//! tables: one object with the `lsm-health/v1` and `lsm-tail/v1` reports
//! embedded whole, for scripts that want the dashboard's numbers.
//!
//! The dashboard observes through one [`SinkHandle`] with two consumers:
//! the [`HealthSink`] (rolling windows, detectors, SLO burn) and an
//! [`ExemplarSink`] (tail anatomy — each shard row carries a `blame`
//! column naming the wait-state phase that dominates its slowest captured
//! puts). Put latencies are fed with [`HealthSink::record_put`] (tagged
//! with the owning shard), while puts, gets, and WAL appends also arrive
//! as `Put` / `Lookup` / `WalAppend` span trees through the handle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_bench::report::fmt_f;
use lsm_bench::{Args, Table};
use lsm_tree::observe::{ExemplarConfig, ExemplarSink, HealthConfig, HealthSink, Json, SinkHandle};
use lsm_tree::{LsmConfig, ShardedLsmTree, TreeOptions};

/// Keys cycle through a bounded space so a duration-bounded run reaches a
/// steady state of updates instead of filling the device.
const KEYSPACE: u64 = 1 << 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn num(doc: Option<&Json>) -> f64 {
    match doc {
        Some(Json::U64(n)) => *n as f64,
        Some(Json::I64(n)) => *n as f64,
        Some(Json::F64(x)) => *x,
        _ => 0.0,
    }
}

/// The `dominant_phase` of a report section, or `-` when nothing has been
/// captured there yet.
fn dominant(doc: &Json) -> String {
    match field(doc, "dominant_phase") {
        Some(Json::Str(s)) => s.clone(),
        _ => "-".into(),
    }
}

/// Render one dashboard frame from the sinks' current reports.
fn render(health: &HealthSink, tail: &ExemplarSink, elapsed: Duration, clear: bool) {
    let report = health.report();
    let tail_report = tail.report();
    if clear {
        // Clear screen, cursor home: the whole TUI.
        print!("\x1b[2J\x1b[H");
    }
    let windows = num(field(&report, "windows_completed"));
    let window_ops = num(field(&report, "config").and_then(|c| field(c, "window_ops")));
    let device_ops = num(field(&report, "device_ops"));
    println!(
        "lsm_top | elapsed {:.1}s | device ops {} | windows completed {} ({} ops each)",
        elapsed.as_secs_f64(),
        device_ops as u64,
        windows as u64,
        window_ops as u64,
    );

    if let Some(Json::Arr(detectors)) = field(&report, "detectors") {
        let states: Vec<String> = detectors
            .iter()
            .map(|d| {
                let name = match field(d, "detector") {
                    Some(Json::Str(s)) => s.as_str(),
                    _ => "?",
                };
                let state = match field(d, "state") {
                    Some(Json::Str(s)) => s.as_str(),
                    _ => "?",
                };
                let trips = num(field(d, "trips")) as u64;
                format!("{name}={state}({trips})")
            })
            .collect();
        println!("detectors: {}", states.join("  "));
    }
    if let Some(slo) = field(&report, "slo") {
        println!(
            "slo: good {} bad {} | burn short {} long {} | alerting {}",
            num(field(slo, "good")) as u64,
            num(field(slo, "bad")) as u64,
            fmt_f(num(field(slo, "short_burn")), 2),
            fmt_f(num(field(slo, "long_burn")), 2),
            matches!(field(slo, "alerting"), Some(Json::Bool(true))),
        );
    }
    println!();

    // The blame column: which wait-state phase dominates each scope's
    // slowest captured puts, straight from the tail-anatomy report.
    let mut shard_blame = std::collections::BTreeMap::new();
    if let Some(Json::Arr(shards)) = field(&tail_report, "shards") {
        for sec in shards {
            shard_blame.insert(num(field(sec, "shard")) as u64, dominant(sec));
        }
    }
    let mut table = Table::new([
        "series",
        "puts",
        "put p50",
        "put p99",
        "put p99.9",
        "wamp",
        "hit %",
        "bp",
        "wal",
        "blame",
    ]);
    let series_row = |label: String, set: &Json, blame: String| -> [String; 10] {
        let put = field(set, "put_latency");
        [
            label,
            fmt_f(num(put.and_then(|p| field(p, "count"))), 0),
            fmt_f(num(put.and_then(|p| field(p, "p50"))), 0),
            fmt_f(num(put.and_then(|p| field(p, "p99"))), 0),
            fmt_f(num(put.and_then(|p| field(p, "p999"))), 0),
            fmt_f(num(field(set, "write_amp")), 2),
            fmt_f(num(field(set, "cache_hit_rate")) * 100.0, 1),
            fmt_f(num(field(set, "backpressure")), 0),
            fmt_f(num(field(set, "wal_appends")), 0),
            blame,
        ]
    };
    if let Some(rolling) = field(&report, "rolling") {
        table.row(series_row("all".to_string(), rolling, dominant(&tail_report)));
    }
    if let Some(Json::Arr(shards)) = field(&report, "shards") {
        for set in shards {
            let idx = num(field(set, "shard")) as u64;
            let blame = shard_blame.get(&idx).cloned().unwrap_or_else(|| "-".into());
            table.row(series_row(format!("shard {idx}"), set, blame));
        }
    }
    table.print();

    if let Some(rolling) = field(&report, "rolling") {
        println!(
            "\nrolling: ops {} | get p99 {} | fsync p99 {}",
            num(field(rolling, "ops")) as u64,
            fmt_f(num(field(rolling, "get_latency").and_then(|h| field(h, "p99"))), 0),
            fmt_f(num(field(rolling, "fsync_latency").and_then(|h| field(h, "p99"))), 0),
        );
    }
}

fn main() {
    let args = Args::from_env();
    let shards: usize = args.get_or("shards", 2);
    let writers: usize = args.get_or("writers", 2);
    let readers: usize = args.get_or("readers", 1);
    let duration_s: u64 = args.get_or("duration-s", 10);
    let refresh_ms: u64 = args.get_or("refresh-ms", 500);
    let seed: u64 = args.get_or("seed", 1);
    let once = args.flag("once");

    let defaults = HealthConfig::default();
    let health = Arc::new(HealthSink::new(HealthConfig {
        window_ops: args.get_or("window-ops", 500),
        windows: args.get_or("windows", defaults.windows as u64) as usize,
        ..defaults
    }));
    let tail_defaults = ExemplarConfig::default();
    let exemplar = Arc::new(ExemplarSink::new(ExemplarConfig {
        window_puts: args.get_or("window-ops", 500),
        ..tail_defaults
    }));
    // Both analytics sinks consume the same stamped stream independently.
    let sink = SinkHandle::new(Arc::clone(&health) as _).and(Arc::clone(&exemplar) as _);

    let cfg = LsmConfig {
        block_size: 1024,
        payload_size: 64,
        k0_blocks: 16,
        gamma: 4,
        cache_blocks: 128,
        ..LsmConfig::default()
    };
    let opts = TreeOptions::builder().sink(sink).build();
    let tree = Arc::new(
        ShardedLsmTree::with_mem_devices(cfg.clone(), opts, shards, 1 << 15)
            .expect("valid dashboard configuration"),
    );
    let payload = Bytes::from(vec![b'x'; cfg.payload_size]);
    let start = Instant::now();

    if once {
        // CI smoke: a synchronous burst until the whole window ring has
        // rotated at least once, then a single frame.
        let windows_target = args.get_or("windows", HealthConfig::default().windows as u64);
        let mut rng = seed;
        let mut i = 0u64;
        while health.windows_completed() < windows_target && i < 2_000_000 {
            let key = splitmix(&mut rng) % KEYSPACE;
            if i % 4 == 3 {
                tree.get(key).expect("get failed");
            } else {
                let t = Instant::now();
                tree.put(key, payload.clone()).expect("put failed");
                health.record_put(Some(tree.shard_of(key)), t.elapsed().as_nanos() as u64);
            }
            i += 1;
        }
        if args.flag("json") {
            let doc = Json::Obj(vec![
                ("experiment".into(), Json::from("lsm_top")),
                ("elapsed_s".into(), Json::from(start.elapsed().as_secs_f64())),
                ("health".into(), health.report()),
                ("tail".into(), exemplar.report()),
            ]);
            println!("{}", doc.render_pretty());
            return;
        }
        render(&health, &exemplar, start.elapsed(), false);
        return;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..writers {
        let tree = Arc::clone(&tree);
        let health = Arc::clone(&health);
        let stop = Arc::clone(&stop);
        let payload = payload.clone();
        let mut rng = seed ^ (w as u64).wrapping_mul(0x9e37_79b9);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let key = splitmix(&mut rng) % KEYSPACE;
                let t = Instant::now();
                if let Err(e) = tree.put(key, payload.clone()) {
                    eprintln!("writer {w}: put failed: {e}");
                    break;
                }
                health.record_put(Some(tree.shard_of(key)), t.elapsed().as_nanos() as u64);
            }
        }));
    }
    for r in 0..readers {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        let mut rng = seed ^ 0xdead_beef ^ (r as u64).wrapping_mul(0x517c_c1b7);
        handles.push(std::thread::spawn(move || {
            // Gets need no explicit recording: each is timed by its
            // `Lookup` span through the sink.
            while !stop.load(Ordering::Relaxed) {
                let key = splitmix(&mut rng) % KEYSPACE;
                if tree.get(key).is_err() {
                    break;
                }
            }
        }));
    }

    let deadline = start + Duration::from_secs(duration_s);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(refresh_ms));
        render(&health, &exemplar, start.elapsed(), true);
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    render(&health, &exemplar, start.elapsed(), true);
    println!(
        "\ndone: {} windows in {:.1}s",
        health.windows_completed(),
        start.elapsed().as_secs_f64()
    );
}
