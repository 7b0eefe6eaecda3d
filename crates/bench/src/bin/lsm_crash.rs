//! `lsm_crash` — crash-torture driver: hundreds of seeded power-cut
//! cycles (seeded writers interleaved with maintenance, syncs and
//! checkpoints → power cut at a random device op → host crash with WAL
//! tail loss → recovery from the manifests and the devices' durable images
//! → durability check → continued operation under deep verification).
//! Exits non-zero on the first seed that violates the durability
//! invariant, printing the seed so the cycle can be replayed under a
//! debugger.
//!
//! One cycle, [`lsm_tree::run_crash_cycle`], of the concurrent shape: M
//! seeded writers over N shards interleaved with a stepped scheduler
//! ([`lsm_tree::MergeScheduler::simulated`]). The whole interleaving
//! derives from the seed, so a failing cycle replays byte-for-byte, and
//! recovery is judged by the one durability history checker
//! ([`lsm_tree::HistoryChecker`]) per shard. One writer merging inline is
//! the model oracle's crash op, a test of `lsm-tree` (DESIGN.md §6).
//!
//! With `--bundle-dir` every failing cycle also drops a post-mortem
//! bundle (`lsm_crash_seed_<seed>.postmortem.json`, an `lsm-report/v1`
//! report) capturing the flight recorder, decision ledger, the scheduler
//! state (job queue, backlogs, open group-commit rendezvous) and every
//! shard's tree, device counters and wear, with the shard whose power was
//! cut named in its reason; `--always-dump` bundles surviving cycles too
//! (smoke tests use it to exercise the dump path without needing a real
//! failure). Inspect a bundle with `lsm_doctor show <bundle.json>`.
//!
//! ```text
//! cargo run --release --bin lsm_crash -- [--seeds=200] [--seed-base=0] \
//!     [--ops=N] [--verbose] [--bundle-dir=DIR] [--always-dump] \
//!     [--backend=mem|file] [--writers=N] [--shards=N]
//! ```
//!
//! `--backend=file` runs every cycle over fault-wrapped
//! [`sim_ssd::FileDevice`]s in the temp dir instead of memory frames: the
//! power cut discards the fault overlay's unsynced writes and recovery
//! reads the real file image back.

use std::path::PathBuf;

use lsm_bench::report::fmt_f;
use lsm_bench::{Args, Table};
use lsm_tree::{run_crash_cycle, TortureBackend, TortureConfig, TortureReport};

const BACKENDS: [(&str, TortureBackend); 2] =
    [("mem", TortureBackend::Mem), ("file", TortureBackend::File)];

fn main() {
    let args = Args::from_env();
    let seeds: u64 = args.get_or("seeds", 200);
    let seed_base: u64 = args.get_or("seed-base", 0);
    let verbose = args.flag("verbose");
    let bundle_dir = args.get("bundle-dir").map(PathBuf::from);
    let always_dump = args.flag("always-dump");
    if always_dump && bundle_dir.is_none() {
        eprintln!("--always-dump needs --bundle-dir=DIR to say where bundles go");
        std::process::exit(2);
    }
    let backend = Args::or_exit(args.one_of("backend", "mem", &BACKENDS));
    let defaults = TortureConfig::concurrent(0);
    let ops: u64 = args.get_or("ops", defaults.ops);
    let writers: usize = args.get_or("writers", defaults.writers);
    let shards: usize = args.get_or("shards", defaults.shards);
    args.done();
    eprintln!(
        "crash torture: {seeds} seeds from {seed_base}, {writers} writer(s) over {shards} \
         shard(s), simulated background merges, {} backend, up to {ops} requests each ...",
        if backend == TortureBackend::File { "file" } else { "mem" },
    );

    let mut reports: Vec<TortureReport> = Vec::with_capacity(seeds as usize);
    let mut failures: Vec<String> = Vec::new();
    for seed in seed_base..seed_base + seeds {
        let cfg = TortureConfig {
            ops,
            writers,
            shards,
            backend,
            bundle_dir: bundle_dir.clone(),
            always_dump,
            ..TortureConfig::concurrent(seed)
        };
        match run_crash_cycle(&cfg) {
            Ok(report) => {
                if verbose {
                    eprintln!("{report:?}");
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("FAIL (seed {seed}): {e}");
                if let Some(bundle) = &e.bundle {
                    eprintln!(
                        "  post-mortem bundle: {} (inspect with: cargo run --release \
                         -p lsm-bench --bin lsm_doctor -- show {})",
                        bundle.display(),
                        bundle.display()
                    );
                }
                eprintln!("  reproduce: {}", cfg.repro());
                failures.push(format!("seed {seed}: {e}"));
            }
        }
    }

    let survived = reports.len() as u64;
    let sum = |f: fn(&TortureReport) -> u64| reports.iter().map(f).sum::<u64>();
    let count = |f: fn(&TortureReport) -> bool| reports.iter().filter(|r| f(r)).count() as u64;
    let avg = |total: u64| if survived > 0 { total as f64 / survived as f64 } else { 0.0 };
    let mut table = Table::new(["metric", "value"]);
    table.row(["cycles run".into(), seeds.to_string()]);
    table.row(["cycles survived".into(), survived.to_string()]);
    table.row(["cuts mid-workload".into(), count(|r| r.cut_mid_workload).to_string()]);
    for (what, total) in [
        ("avg requests issued", sum(|r| r.issued)),
        ("avg requests acked", sum(|r| r.acked)),
        ("avg batches submitted", sum(|r| r.batches)),
        ("avg batches acked by their own commit", sum(|r| r.batches_acked)),
        ("avg matched prefix", sum(|r| r.matched_prefix)),
        ("avg WAL requests replayed", sum(|r| r.replayed)),
        ("avg checked reads", sum(|r| r.reads)),
        ("avg scheduler half-steps", sum(|r| r.sim_steps)),
        ("avg requests between a compute and its install", sum(|r| r.ops_between_halves)),
        ("avg group fsyncs", sum(|r| r.group_syncs)),
        ("avg recovered keys", sum(|r| r.recovered_keys)),
    ] {
        table.row([what.into(), fmt_f(avg(total), 1)]);
    }
    for (what, cycles) in [
        ("cycles that took a checkpoint", count(|r| r.checkpoints > 0)),
        ("... one between a compute and its install", count(|r| r.checkpoints_between_halves > 0)),
        ("... one between a sync's two halves", count(|r| r.checkpoints_between_sync_halves > 0)),
    ] {
        table.row([what.into(), cycles.to_string()]);
    }
    table.print();

    if !failures.is_empty() {
        eprintln!("{} of {seeds} cycles violated durability:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all {seeds} crash cycles recovered with the durability history intact.");
}
