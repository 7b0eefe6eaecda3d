//! Extension experiment (paper §V remark / technical report): query costs
//! under the relaxed storage layout.
//!
//! The paper states its techniques "introduce little overhead in terms of
//! query performance even when compared with Full-P, which has the most
//! compact storage possible". This binary measures, per policy, in a
//! steady state:
//!
//! * point-lookup block reads per present and per absent key (also with
//!   per-block Bloom filters enabled): the blocks each lookup asks for,
//!   cache hits included, split by its answer;
//! * range-scan device reads (cache misses) and blocks opened (cache hits
//!   and misses) per 1000 records returned;
//! * the space overhead of the relaxed layout (blocks vs minimal).
//!
//! ```text
//! cargo run --release --bin ext_query_costs -- [--size-mb=40] [--probes=20000]
//! ```

use lsm_bench::setup::KEY_DOMAIN;
use lsm_bench::{
    make_tree, policy_matrix, space_overhead, steady_state, Args, ExperimentScale, Table,
    WorkloadKind,
};
use lsm_tree::{Key, LsmTree};

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 40);
    let probes: u64 = args.get_or("probes", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    let bloom_bits: usize = args.get_or("bloom-bits", 10);
    args.done();

    let scale = ExperimentScale::laptop_large();
    let bytes = size_mb * 1024 * 1024;
    println!("\n== Extension: query costs across policies (Uniform, {size_mb} MB steady state) ==");
    let mut table = Table::new([
        "policy",
        "bloom",
        "reads_per_present",
        "reads_per_absent",
        "scan_reads_per_1k",
        "space_overhead",
        "scan_blocks_per_1k",
    ]);
    for bloom in [false, true] {
        for case in policy_matrix() {
            let mut cfg = scale.config(100);
            cfg.bloom_bits_per_key = if bloom { bloom_bits } else { 0 };
            let mut tree = make_tree(&cfg, case.options(), bytes);
            steady_state(&mut tree, WorkloadKind::Uniform, seed, bytes);

            // Point lookups, each charged the blocks it asked for (cached or
            // not) by its answer: probes spread over the key domain, nearly
            // all absent, and — after the scans, which they would otherwise
            // warm — as many keys the tree holds.
            let mut cost = [(0u64, 0u64); 2]; // [absent, present]: (reads, probes)
            let mut probe = |key: Key| {
                let reads0 = tree.stats().lookup_block_reads();
                let answer = &mut cost[usize::from(tree.get(key).unwrap().is_some())];
                *answer = (answer.0 + tree.stats().lookup_block_reads() - reads0, answer.1 + 1);
            };
            let mut x = 0x12345u64;
            for _ in 0..probes {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                probe((x >> 16) % KEY_DOMAIN);
            }

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
                let lo = (s * 1_000_000_007) % KEY_DOMAIN;
                let width = KEY_DOMAIN / 2_000; // ≈ live_keys/2000 records
                for kv in tree.scan(lo, lo.saturating_add(width)) {
                    kv.unwrap();
                    returned += 1;
                }
            }
            let per_1k = |count: u64| count as f64 * 1000.0 / returned.max(1) as f64;
            let scan_reads_per_1k = per_1k(tree.store().io_snapshot().reads - io_before.reads);
            let scan_blocks_per_1k = per_1k(opened(&tree) - opened_before);
            let overhead = space_overhead(&tree);

            let held: Vec<Key> = tree.scan(0, KEY_DOMAIN).map(|kv| kv.unwrap().0).collect();
            let stride = (held.len() / probes.max(1) as usize).max(1);
            held.iter().step_by(stride).take(probes as usize).for_each(|&key| probe(key));
            let [reads_per_absent, reads_per_present] =
                cost.map(|(reads, n)| reads as f64 / n.max(1) as f64);

            table.row([
                case.name.to_string(),
                bloom.to_string(),
                format!("{reads_per_present:.3}"),
                format!("{reads_per_absent:.4}"),
                format!("{scan_reads_per_1k:.2}"),
                format!("{overhead:.4}"),
                format!("{scan_blocks_per_1k:.2}"),
            ]);
            eprintln!(
                "  [{} bloom={bloom}] lookup reads {reads_per_present:.3} present, {reads_per_absent:.3} absent; scan {scan_reads_per_1k:.1} device reads and {scan_blocks_per_1k:.1} blocks /1k, space {overhead:.3}x",
                case.name
            );
        }
    }
    table.print();
    table.save("ext_query_costs");
}
