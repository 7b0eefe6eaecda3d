//! Extension experiment (paper §V remark / technical report): query costs
//! under the relaxed storage layout.
//!
//! The paper states its techniques "introduce little overhead in terms of
//! query performance even when compared with Full-P, which has the most
//! compact storage possible". This binary measures, per policy, in a
//! steady state:
//!
//! * point-lookup block reads per present and per absent key (also with
//!   per-block Bloom filters enabled);
//! * range-scan device reads (cache misses) and blocks opened (cache hits
//!   and misses) per 1000 records returned;
//! * the space overhead of the relaxed layout (blocks vs minimal).
//!
//! ```text
//! cargo run --release --bin ext_query_costs -- [--size-mb=40] [--probes=20000]
//! ```

use lsm_bench::report::fmt_f;
use lsm_bench::{policy_matrix, Args, Csv, ExperimentScale, Table, WorkloadKind};
use lsm_tree::{LsmConfig, LsmTree, TreeOptions};
use workloads::{fill_to_bytes, reach_steady_state, InsertRatio};

fn build(cfg: &LsmConfig, case: &lsm_bench::PolicyCase, size_mb: u64, seed: u64) -> LsmTree {
    let mut tree = LsmTree::with_mem_device(
        cfg.clone(),
        TreeOptions::builder().policy(case.spec.clone()).preserve_blocks(case.preserve).build(),
        (size_mb * 1024 * 1024 / cfg.block_size as u64) * 6,
    )
    .unwrap();
    let mut wl = WorkloadKind::Uniform.build(seed, cfg.payload_size, InsertRatio::INSERT_ONLY);
    fill_to_bytes(&mut tree, &mut *wl, size_mb * 1024 * 1024).unwrap();
    reach_steady_state(&mut tree, &mut *wl, 100_000_000).unwrap();
    tree
}

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let probes: u64 = args.get_or("probes", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    let bloom_bits: usize = args.get_or("bloom-bits", 10);

    let scale = ExperimentScale::laptop_large();
    let mut csv = Csv::new(
        "ext_query_costs",
        &[
            "policy",
            "bloom",
            "reads_per_present",
            "reads_per_absent",
            "scan_reads_per_1k",
            "space_overhead",
            "scan_blocks_per_1k",
        ],
    );
    println!("\n== Extension: query costs across policies (Uniform, {size_mb} MB steady state) ==");
    let mut table = Table::new([
        "policy",
        "bloom",
        "reads/present",
        "reads/absent",
        "scan device reads/1k recs",
        "space overhead",
        "scan blocks/1k recs",
    ]);

    for bloom in [false, true] {
        for case in policy_matrix() {
            let mut cfg = scale.config(100);
            cfg.bloom_bits_per_key = if bloom { bloom_bits } else { 0 };
            let tree = build(&cfg, &case, size_mb, seed);

            // Point lookups: alternate present-ish and absent keys drawn
            // deterministically from the key domain.
            let domain = lsm_bench::setup::KEY_DOMAIN;
            let before = tree.stats().clone();
            let mut present = 0u64;
            let mut x = 0x12345u64;
            for _ in 0..probes {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if tree.get((x >> 16) % domain).unwrap().is_some() {
                    present += 1;
                }
            }
            let after = tree.stats().clone();
            let reads = (after.lookup_block_reads() - before.lookup_block_reads()) as f64;
            let absent = (probes - present).max(1) as f64;
            // Present keys nearly always cost exactly one read; attribute
            // the remainder to absent probes.
            let reads_per_present = if present > 0 { 1.0 } else { 0.0 };
            let reads_per_absent = (reads - present as f64).max(0.0) / absent;

            // Range scans: 50 scans of ~1000 records each. Every block a
            // scan opens goes through the cache: the device reads are its
            // misses, the blocks opened its hits and misses together.
            let opened = |tree: &LsmTree| {
                let cache = tree.store().cache_stats();
                cache.hits + cache.misses
            };
            let (io_before, opened_before) = (tree.store().io_snapshot(), opened(&tree));
            let mut returned = 0u64;
            for s in 0..50u64 {
                let lo = (s * 1_000_000_007) % domain;
                let width = domain / 2_000; // ≈ live_keys/2000 records
                for kv in tree.scan(lo, lo.saturating_add(width)) {
                    kv.unwrap();
                    returned += 1;
                }
            }
            let per_1k = |count: u64| count as f64 * 1000.0 / returned.max(1) as f64;
            let scan_reads_per_1k = per_1k(tree.store().io_snapshot().reads - io_before.reads);
            let scan_blocks_per_1k = per_1k(opened(&tree) - opened_before);

            let b = cfg.block_capacity();
            let blocks: usize = tree.levels().iter().map(|l| l.num_blocks()).sum();
            let records: u64 = tree.levels().iter().map(|l| l.records()).sum();
            let overhead = blocks as f64 / ((records as usize).div_ceil(b).max(1)) as f64;

            table.row([
                case.name.to_string(),
                bloom.to_string(),
                fmt_f(reads_per_present, 2),
                fmt_f(reads_per_absent, 3),
                fmt_f(scan_reads_per_1k, 1),
                fmt_f(overhead, 3),
                fmt_f(scan_blocks_per_1k, 1),
            ]);
            csv.row(&[
                case.name.to_string(),
                bloom.to_string(),
                format!("{reads_per_present:.3}"),
                format!("{reads_per_absent:.4}"),
                format!("{scan_reads_per_1k:.2}"),
                format!("{overhead:.4}"),
                format!("{scan_blocks_per_1k:.2}"),
            ]);
            eprintln!(
                "  [{} bloom={bloom}] absent lookup reads {reads_per_absent:.3}, scan {scan_reads_per_1k:.1} device reads and {scan_blocks_per_1k:.1} blocks /1k, space {overhead:.3}x",
                case.name
            );
        }
    }
    table.print();
    let path = csv.write().expect("write csv");
    println!("\nwrote {}", path.display());
}
