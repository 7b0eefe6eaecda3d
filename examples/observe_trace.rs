//! JSON-lines event tracing with a `VecSink` (the README snippet,
//! runnable): every flush, merge, device I/O, and cache event a small
//! workload produces is recorded, then written to `results/trace.jsonl`,
//! one JSON object per line, when the run ends.
//!
//! ```sh
//! cargo run --release --example observe_trace
//! ```

use std::io::Write as _;
use std::sync::Arc;

use lsm_ssd_repro::lsm_tree::observe::{SinkHandle, VecSink};
use lsm_ssd_repro::lsm_tree::{LsmConfig, LsmTree, PolicySpec, TreeOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = Arc::new(VecSink::new());
    let opts = TreeOptions::builder()
        .policy(PolicySpec::ChooseBest)
        .sink(SinkHandle::new(trace.clone()))
        .build();

    let cfg = LsmConfig { block_size: 4096, payload_size: 64, ..LsmConfig::default() };
    let mut tree = LsmTree::with_mem_device(cfg, opts, 64 << 20)?;

    for k in 0..20_000u64 {
        tree.put(k * 7 % 50_021, vec![0xAB; 64])?;
    }

    std::fs::create_dir_all("results")?;
    let mut out = std::io::BufWriter::new(std::fs::File::create("results/trace.jsonl")?);
    for event in trace.events() {
        writeln!(out, "{}", event.to_json().render())?;
    }
    out.flush()?;
    println!(
        "height={} records={} blocks_written={} — trace in results/trace.jsonl",
        tree.height(),
        tree.record_count(),
        tree.stats().total_blocks_written()
    );
    Ok(())
}
