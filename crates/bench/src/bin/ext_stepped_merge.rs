//! Extension experiment — Stepped-Merge vs leveled LSM (§VI).
//!
//! The paper declines Stepped-Merge (Cassandra/HBase's default shape)
//! because it "sacrifices lookups" to cut merge cost. This run puts
//! numbers on both sides of that trade, on identical substrates: write
//! cost per MB of requests, lookup block-reads per query, and the number
//! of sorted runs a lookup may probe.
//!
//! ```text
//! cargo run --release --bin ext_stepped_merge -- [--size-mb=20] \
//!     [--fan-in=4] [--measure-mb=60] [--probes=20000]
//! ```

use lsm_bench::setup::KEY_DOMAIN;
use lsm_bench::{make_tree, Args, ExperimentScale, Table, WorkloadKind};
use lsm_tree::{LsmTree, PolicySpec, TreeOptions};
use workloads::{volume_requests, InsertRatio};

/// Fill `tree` with `fill` inserts, measure blocks written per MB over
/// `measure` requests of the 50/50 mix, then the block reads of `probes`
/// point lookups: `(writes_per_mb, reads_per_query)`.
fn fill_measure_probe(
    tree: &mut LsmTree,
    [fill, measure, probes]: [u64; 3],
    measure_mb: f64,
    wl: &mut dyn workloads::Workload,
) -> (f64, f64) {
    for _ in 0..fill {
        tree.apply(wl.next_request()).unwrap();
    }
    wl.set_ratio(InsertRatio::HALF);
    let writes0 = tree.stats().total_blocks_written();
    for _ in 0..measure {
        tree.apply(wl.next_request()).unwrap();
    }
    let writes_per_mb = (tree.stats().total_blocks_written() - writes0) as f64 / measure_mb;
    let reads0 = tree.stats().lookup_block_reads();
    let mut x = 0x5555u64;
    for _ in 0..probes {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        tree.get((x >> 16) % KEY_DOMAIN).unwrap();
    }
    (writes_per_mb, (tree.stats().lookup_block_reads() - reads0) as f64 / probes as f64)
}

fn main() {
    let args = Args::from_env();
    let size_mb: u64 = args.get_or("size-mb", 20);
    let fan_in: usize = args.get_or("fan-in", 4);
    let measure_mb: f64 = args.get_or("measure-mb", 60.0);
    let probes: u64 = args.get_or("probes", 20_000);
    let seed: u64 = args.get_or("seed", 1);
    args.done();

    let scale = ExperimentScale::small();
    let cfg = scale.config(100);
    let bytes = size_mb * 1024 * 1024;
    let counts = [
        volume_requests(size_mb as f64, cfg.record_size()),
        volume_requests(measure_mb, cfg.record_size()),
        probes,
    ];

    println!(
        "\n== Extension: Stepped-Merge (fan-in {fan_in}) vs leveled LSM, Uniform {size_mb} MB =="
    );
    let mut table =
        Table::new(["design", "writes_per_mb", "lookup_reads_per_query", "lookup_fanout"]);
    for (design, policy) in [
        (format!("stepped_k{fan_in}"), PolicySpec::SteppedMerge { fan_in }),
        ("LSM/ChooseBest".to_string(), PolicySpec::ChooseBest),
        ("LSM/Full".to_string(), PolicySpec::Full),
    ] {
        let mut tree = make_tree(&cfg, TreeOptions::builder().policy(policy).build(), bytes);
        let mut wl = WorkloadKind::Uniform.build(seed, cfg.payload_size, InsertRatio::INSERT_ONLY);
        let (writes_per_mb, reads_per_q) =
            fill_measure_probe(&mut tree, counts, measure_mb, &mut *wl);
        // The runs a lookup may probe: one a level under a leveled policy.
        table.row([
            design,
            format!("{writes_per_mb:.2}"),
            format!("{reads_per_q:.4}"),
            tree.levels().len().to_string(),
        ]);
    }
    table.print();
    println!("\n(§VI: Stepped-Merge cuts writes but multiplies the runs a lookup probes;");
    println!(" partial merges cut writes without that penalty — the paper's philosophy.)");
    table.save("ext_stepped_merge");
}
