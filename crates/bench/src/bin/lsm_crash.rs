//! `lsm_crash` — crash-torture driver: hundreds of seeded power-cut
//! cycles (randomized workload → power cut at a random device op → host
//! crash with WAL tail loss → recovery → durability check → continued
//! operation under deep verification). Exits non-zero on the first seed
//! that violates the durability invariant, printing the seed so the cycle
//! can be replayed under a debugger.
//!
//! `--scheduler=background` switches to the **concurrent** torture: M
//! seeded writers over N shards interleaved with a simulated scheduler
//! ([`lsm_tree::SimExecutor`]) and seeded group-commit fsyncs — the whole
//! interleaving derives from the seed, so a failing cycle replays
//! byte-for-byte. Either way recovery is judged by the one durability
//! history checker ([`lsm_tree::HistoryChecker`]), per shard here.
//!
//! With `--bundle-dir` every failing cycle also drops a post-mortem
//! bundle (`lsm_crash_seed_<seed>.postmortem.json`) capturing the flight
//! recorder, decision ledger, and — in concurrent mode — the scheduler
//! state (job queue, backlogs, open group-commit rendezvous);
//! `--always-dump` bundles surviving cycles too (smoke tests use it to
//! exercise the dump path without needing a real failure). Inspect a
//! bundle with `lsm_postmortem <bundle.json>`.
//!
//! ```text
//! cargo run --release --bin lsm_crash -- [--seeds=200] [--seed-base=0] \
//!     [--ops=400] [--verbose] [--bundle-dir=DIR] [--always-dump] \
//!     [--backend=mem|file] \
//!     [--scheduler=background] [--writers=3] [--shards=2]
//! ```
//!
//! `--backend=file` (inline scheduler only) runs every cycle over a
//! fault-wrapped [`sim_ssd::FileDevice`] in the temp dir instead of memory
//! frames: the power cut discards the fault overlay's unsynced writes and
//! recovery reads the real file image back.

use std::path::PathBuf;

use lsm_bench::report::fmt_f;
use lsm_bench::{Args, Table};
use lsm_tree::{
    run_concurrent_crash_cycle, run_crash_cycle, ConcurrentTortureConfig, ConcurrentTortureReport,
    TortureBackend, TortureConfig, TortureReport,
};

fn main() {
    let args = Args::from_env();
    let seeds: u64 = args.get_or("seeds", 200);
    let seed_base: u64 = args.get_or("seed-base", 0);
    let verbose = args.get("verbose").is_some();
    let bundle_dir = args.get("bundle-dir").map(PathBuf::from);
    let always_dump = args.flag("always-dump");
    if always_dump && bundle_dir.is_none() {
        eprintln!("--always-dump needs --bundle-dir=DIR to say where bundles go");
        std::process::exit(2);
    }
    match args.get("scheduler").unwrap_or("inline") {
        "background" => concurrent(&args, seeds, seed_base, verbose, bundle_dir, always_dump),
        "inline" => single(&args, seeds, seed_base, verbose, bundle_dir, always_dump),
        other => {
            eprintln!("unknown --scheduler={other} (expected inline or background)");
            std::process::exit(2);
        }
    }
}

fn print_failure(e: &lsm_tree::TortureFailure, repro: &str) {
    eprintln!("FAIL (seed {}): {e}", e.seed);
    if let Some(bundle) = &e.bundle {
        eprintln!(
            "  post-mortem bundle: {} (inspect with: cargo run --release \
             -p lsm-bench --bin lsm_postmortem -- {})",
            bundle.display(),
            bundle.display()
        );
    }
    eprintln!("  reproduce: {repro}");
}

fn single(
    args: &Args,
    seeds: u64,
    seed_base: u64,
    verbose: bool,
    bundle_dir: Option<PathBuf>,
    always_dump: bool,
) {
    let ops: u64 = args.get_or("ops", 400);
    let backend = match args.get_or::<String>("backend", "mem".into()).as_str() {
        "mem" => TortureBackend::Mem,
        "file" => TortureBackend::File,
        other => {
            eprintln!("unknown --backend={other} (expected mem|file)");
            std::process::exit(2);
        }
    };
    args.done();
    eprintln!(
        "crash torture: {seeds} seeds from {seed_base}, up to {ops} requests each \
         ({} backend) ...",
        if backend == TortureBackend::File { "file" } else { "mem" }
    );
    let mut reports: Vec<TortureReport> = Vec::with_capacity(seeds as usize);
    let mut failures: Vec<String> = Vec::new();
    for seed in seed_base..seed_base + seeds {
        let mut cfg = TortureConfig::for_seed(seed);
        cfg.ops = ops;
        cfg.backend = backend;
        cfg.bundle_dir = bundle_dir.clone();
        cfg.always_dump = always_dump;
        match run_crash_cycle(&cfg) {
            Ok(report) => {
                if verbose {
                    eprintln!("{report:?}");
                }
                if always_dump && verbose {
                    if let Some(dir) = &bundle_dir {
                        eprintln!(
                            "  bundle: {}",
                            lsm_tree::torture::bundle_path(dir, seed).display()
                        );
                    }
                }
                reports.push(report);
            }
            Err(e) => {
                let backend_arg = match backend {
                    TortureBackend::File => " --backend=file",
                    TortureBackend::Mem => "",
                };
                print_failure(
                    &e,
                    &format!(
                        "cargo run --release -p lsm-bench --bin lsm_crash -- \
                         --seeds=1 --seed-base={seed}{backend_arg}"
                    ),
                );
                failures.push(format!("seed {seed}: {e}"));
            }
        }
    }

    let survived = reports.len() as u64;
    let mid_cuts = reports.iter().filter(|r| r.cut_mid_workload).count() as u64;
    let total_issued: u64 = reports.iter().map(|r| r.issued).sum();
    let total_replayed: u64 = reports.iter().map(|r| r.replayed).sum();
    let avg = |sum: u64| if survived > 0 { sum as f64 / survived as f64 } else { 0.0 };

    let mut table = Table::new(["metric", "value"]);
    table.row(["cycles run".into(), seeds.to_string()]);
    table.row(["cycles survived".into(), survived.to_string()]);
    table.row(["cuts mid-workload".into(), mid_cuts.to_string()]);
    table.row(["avg requests issued".into(), fmt_f(avg(total_issued), 1)]);
    table.row(["avg WAL requests replayed".into(), fmt_f(avg(total_replayed), 1)]);
    table.row([
        "avg durable floor".into(),
        fmt_f(avg(reports.iter().map(|r| r.durable_floor).sum()), 1),
    ]);
    table.row([
        "avg matched prefix".into(),
        fmt_f(avg(reports.iter().map(|r| r.matched_prefix).sum()), 1),
    ]);
    table.print();

    if !failures.is_empty() {
        eprintln!("{} of {seeds} cycles violated durability:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all {seeds} crash cycles recovered with the durability invariant intact.");
}

fn concurrent(
    args: &Args,
    seeds: u64,
    seed_base: u64,
    verbose: bool,
    bundle_dir: Option<PathBuf>,
    always_dump: bool,
) {
    let defaults = ConcurrentTortureConfig::for_seed(0);
    let ops: u64 = args.get_or("ops", defaults.ops);
    let writers: usize = args.get_or("writers", defaults.writers);
    let shards: usize = args.get_or("shards", defaults.shards);
    args.done();
    eprintln!(
        "concurrent crash torture: {seeds} seeds from {seed_base}, {writers} writers \
         over {shards} shards, up to {ops} requests each ..."
    );
    let mut reports: Vec<ConcurrentTortureReport> = Vec::with_capacity(seeds as usize);
    let mut failures: Vec<String> = Vec::new();
    for seed in seed_base..seed_base + seeds {
        let mut cfg = ConcurrentTortureConfig::for_seed(seed);
        cfg.ops = ops;
        cfg.writers = writers;
        cfg.shards = shards;
        cfg.bundle_dir = bundle_dir.clone();
        cfg.always_dump = always_dump;
        match run_concurrent_crash_cycle(&cfg) {
            Ok(report) => {
                if verbose {
                    eprintln!("{report:?}");
                }
                reports.push(report);
            }
            Err(e) => {
                print_failure(
                    &e,
                    &format!(
                        "cargo run --release -p lsm-bench --bin lsm_crash -- \
                         --scheduler=background --writers={writers} --shards={shards} \
                         --ops={ops} --seeds=1 --seed-base={seed}"
                    ),
                );
                failures.push(format!("seed {seed}: {e}"));
            }
        }
    }

    let survived = reports.len() as u64;
    let mid_cuts = reports.iter().filter(|r| r.cut_mid_workload).count() as u64;
    let avg = |sum: u64| if survived > 0 { sum as f64 / survived as f64 } else { 0.0 };

    let mut table = Table::new(["metric", "value"]);
    table.row(["cycles run".into(), seeds.to_string()]);
    table.row(["cycles survived".into(), survived.to_string()]);
    table.row(["cuts mid-workload".into(), mid_cuts.to_string()]);
    table
        .row(["avg requests issued".into(), fmt_f(avg(reports.iter().map(|r| r.issued).sum()), 1)]);
    table.row(["avg requests acked".into(), fmt_f(avg(reports.iter().map(|r| r.acked).sum()), 1)]);
    table.row([
        "avg scheduler steps".into(),
        fmt_f(avg(reports.iter().map(|r| r.sim_steps).sum()), 1),
    ]);
    table.row(["avg checked reads".into(), fmt_f(avg(reports.iter().map(|r| r.reads).sum()), 1)]);
    table.row([
        "avg requests between a compute and its install".into(),
        fmt_f(avg(reports.iter().map(|r| r.ops_between_halves).sum()), 1),
    ]);
    table.row([
        "avg group fsyncs".into(),
        fmt_f(avg(reports.iter().map(|r| r.group_syncs).sum()), 1),
    ]);
    table.row([
        "avg recovered keys".into(),
        fmt_f(avg(reports.iter().map(|r| r.recovered_keys).sum()), 1),
    ]);
    table.print();

    if !failures.is_empty() {
        eprintln!("{} of {seeds} concurrent cycles violated durability:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all {seeds} concurrent crash cycles recovered with the durability history intact.");
}
