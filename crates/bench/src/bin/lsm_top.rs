//! `lsm_top` — live per-shard health dashboard over an in-process workload.
//!
//! Spins up a sharded in-memory tree, drives it with writer and reader
//! threads, and redraws a plain-text dashboard from the attached
//! [`HealthSink`]'s rolling windows: put/get/fsync latency percentiles,
//! write amplification, cache hit rate, backpressure, detector states, and
//! SLO burn — globally and per shard. No terminal library: each frame is an
//! ANSI clear plus the two reports' one text form
//! ([`render_health`], [`render_tail`]), which `lsm_doctor` and
//! `lsm_postmortem` print too.
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
//! [`ExemplarSink`] (tail anatomy — the blame table names the wait-state
//! phase that dominates the slowest captured puts, globally and per
//! shard). Nothing is fed by hand: puts, gets, and WAL appends arrive as
//! `Put` / `Lookup` / `WalAppend` span trees through the handle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lsm_bench::report::{render_health, render_tail};
use lsm_bench::Args;
use lsm_tree::observe::{ExemplarConfig, ExemplarSink, HealthConfig, HealthSink, Json, SinkHandle};
use lsm_tree::{LsmConfig, ShardedLsmTree, TreeOptions};
use sim_ssd::SplitMix64;

/// Keys cycle through a bounded space so a duration-bounded run reaches a
/// steady state of updates instead of filling the device.
const KEYSPACE: u64 = 1 << 16;

/// One dashboard frame: a header over the two reports' text forms.
fn render(health: &HealthSink, tail: &ExemplarSink, elapsed: Duration, clear: bool) {
    if clear {
        // Clear screen, cursor home: the whole TUI.
        print!("\x1b[2J\x1b[H");
    }
    println!("lsm_top | elapsed {:.1}s", elapsed.as_secs_f64());
    print!("{}{}", render_health(&health.report()), render_tail(&tail.report()));
}

fn main() {
    let args = Args::from_env();
    let shards: usize = args.get_or("shards", 2);
    let writers: usize = args.get_or("writers", 2);
    let readers: usize = args.get_or("readers", 1);
    let duration_s: u64 = args.get_or("duration-s", 10);
    let refresh_ms: u64 = args.get_or("refresh-ms", 500);
    let seed: u64 = args.get_or("seed", 1);
    let (once, json) = (args.flag("once"), args.flag("json"));

    let defaults = HealthConfig::default();
    let windows = args.get_or("windows", defaults.windows);
    let health = Arc::new(HealthSink::new(HealthConfig {
        window_ops: args.get_or("window-ops", 500),
        windows,
        ..defaults
    }));
    args.done();
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
        let mut rng = SplitMix64::new(seed);
        let mut i = 0u64;
        while health.windows_completed() < windows as u64 && i < 2_000_000 {
            let key = rng.gen_range(KEYSPACE);
            if i % 4 == 3 {
                tree.get(key).expect("get failed");
            } else {
                tree.put(key, payload.clone()).expect("put failed");
            }
            i += 1;
        }
        if json {
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
        let stop = Arc::clone(&stop);
        let payload = payload.clone();
        let mut rng = SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let key = rng.gen_range(KEYSPACE);
                if let Err(e) = tree.put(key, payload.clone()) {
                    eprintln!("writer {w}: put failed: {e}");
                    break;
                }
            }
        }));
    }
    for r in 0..readers {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        let mut rng = SplitMix64::new(seed ^ 0xdead_beef ^ (r as u64).wrapping_mul(0x517c_c1b7));
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let key = rng.gen_range(KEYSPACE);
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
