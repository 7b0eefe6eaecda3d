//! Reconciliation: does the layer list account for a request?
//!
//! For one workload, the per-request count of each layer operation (from
//! the counters around the primary rounds) times that layer's replay cost,
//! summed, against the measured service time per request. The remainder is
//! `recon.unattributed_frac`: lock blocking, thread hand-offs, allocator
//! and cache effects the isolated replay does not see. Reported, never
//! gated — it is the check that each workload's "these layers do the work"
//! claim holds.

use crate::stats::Metric;
use crate::workload::{Kind, Measured};

pub const LAYERS: [&str; 10] =
    ["memtable", "merge", "policy", "device", "cache", "block", "bloom", "level", "wal", "sharded"];

#[derive(Debug)]
pub struct Recon {
    kind: Kind,
    requests: u64,
    measured_ns: f64,
    /// `(layer, what was counted, count per request, ns per request)`.
    rows: Vec<(&'static str, String, f64, f64)>,
}

pub fn reconcile(m: &Measured, replay: &[Metric]) -> Recon {
    let cost = |name: &str| replay.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let requests: u64 = m.rounds.iter().map(|r| r.ops).sum();
    let service: u64 = m.rounds.iter().map(|r| r.service_ns).sum();
    let wall: u64 = m.rounds.iter().map(|r| r.wall_ns).sum();
    let c = &m.timed;
    let per = |count: u64| count as f64 / requests.max(1) as f64;
    let file_backed = m.kind == Kind::Read;
    let (dev_read, dev_write) = if file_backed {
        (cost("device.file.read_ns"), cost("device.file.write_ns"))
    } else {
        (cost("device.mem.read_ns"), cost("device.mem.write_ns"))
    };
    let l1_merges = c.levels.first().map_or(0, |l| l.merges_in);
    let deeper_merges = c.merges() - l1_merges;
    let probes = c.lookup_block_reads + c.bloom_skips;
    let wal_appends = if c.wal_bytes > 0 { c.puts } else { 0 };

    let mut rows: Vec<(&'static str, String, f64, f64)> = Vec::new();
    let mut row = |layer: &'static str, what: &str, count: f64, unit_ns: f64| {
        rows.push((layer, what.to_string(), count, count * unit_ns));
    };
    row("memtable", "inserts", per(c.requests()), cost("memtable.insert_ns"));
    row("memtable", "probes", per(c.lookups), cost("memtable.get_ns"));
    // The merge replay runs on a memory device, so its cost already holds
    // encode, bloom build, cache insert and a memory-device write per
    // block; the device row below adds what a file write costs beyond that.
    row(
        "merge",
        "blocks written by merges",
        per(c.merge_writes()),
        cost("merge.us_per_block_written") * 1e3,
    );
    row("policy", "window choices out of L0", per(l1_merges), cost("policy.choose_l0_us") * 1e3);
    row("policy", "window choices deeper", per(deeper_merges), cost("policy.choose_l1_us") * 1e3);
    row(
        "device",
        "block writes beyond memory",
        per(c.io.writes),
        (dev_write - cost("device.mem.write_ns")).max(0.0),
    );
    row("device", "block reads", per(c.io.reads), dev_read);
    row("cache", "hits", per(c.cache_hits), cost("cache.hit_ns"));
    row("cache", "misses + inserts", per(c.cache_misses), cost("cache.miss_insert_ns"));
    row("block", "decodes on a miss", per(c.io.reads), cost("block.decode_ns"));
    row("block", "finds", per(c.lookup_block_reads), cost("block.find_ns"));
    row("bloom", "probes", per(probes), cost("bloom.probe_ns"));
    row("level", "fence searches", per(probes), cost("level.find_block_ns"));
    row("wal", "appends", per(wal_appends), cost("wal.append_ns"));
    row("wal", "fsyncs", per(c.wal_fsyncs), cost("wal.sync_ns"));
    row("sharded", "routed writes", per(c.requests()), cost("sharded.put_overhead_ns").max(0.0));
    // On the logged path the front-end costs what a WAL-backed put takes
    // beyond the bare tree's put and the append itself.
    let logged = (cost("sharded.wal_put_overhead_ns") - cost("wal.append_ns")).max(0.0);
    row("sharded", "logged writes", per(wal_appends), logged);
    row("sharded", "routed reads", per(c.lookups), cost("sharded.get_overhead_ns").max(0.0));
    // Clients that share a shard take turns under its lock: what their
    // summed service time exceeds the wall time by is time spent waiting
    // for each other (`durable`: for the other writer's appends and its
    // fsync — the rendezvous). Zero with one client.
    let waited = service.saturating_sub(wall) as f64 / requests.max(1) as f64;
    row("sharded", "waiting for other clients", 1.0, waited);

    Recon { kind: m.kind, requests, measured_ns: service as f64 / requests.max(1) as f64, rows }
}

impl Recon {
    fn attributed_ns(&self) -> f64 {
        self.rows.iter().map(|r| r.3).sum()
    }

    fn layer_ns(&self, layer: &str) -> f64 {
        self.rows.iter().filter(|r| r.0 == layer).map(|r| r.3).sum()
    }

    pub fn unattributed_frac(&self) -> f64 {
        if self.measured_ns <= 0.0 {
            return 0.0;
        }
        (self.measured_ns - self.attributed_ns()) / self.measured_ns
    }

    pub fn print(&self, label: &str) {
        println!(
            "{label}{} reconciliation: {:.1} ns measured per request over {} requests",
            self.kind.name(),
            self.measured_ns,
            self.requests
        );
        for (layer, what, count, ns) in &self.rows {
            if *count > 0.0 {
                println!(
                    "{label}  {:<9} {:<28} {:>10.4} /req {:>10.1} ns {:>6.1} %",
                    layer,
                    what,
                    count,
                    ns,
                    ns / self.measured_ns.max(1e-9) * 100.0
                );
            }
        }
        println!(
            "{label}  {:<38} {:>15} {:>10.1} ns {:>6.1} %",
            "unattributed",
            "",
            self.measured_ns - self.attributed_ns(),
            self.unattributed_frac() * 100.0
        );
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::single("recon.measured_ns_per_req", "ns", self.measured_ns, self.requests),
            Metric::single(
                "recon.unattributed_frac",
                "ratio",
                self.unattributed_frac(),
                self.requests,
            ),
        ];
        for layer in LAYERS {
            let frac = self.layer_ns(layer) / self.measured_ns.max(1e-9);
            out.push(Metric::single(format!("recon.{layer}_frac"), "ratio", frac, self.requests));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_remainder_sum_to_one() {
        let r = Recon {
            kind: Kind::Ingest,
            requests: 10,
            measured_ns: 1000.0,
            rows: vec![
                ("memtable", "inserts".into(), 1.0, 300.0),
                ("merge", "blocks written by merges".into(), 2.0, 500.0),
            ],
        };
        assert!((r.unattributed_frac() - 0.2).abs() < 1e-12);
        let m = r.metrics();
        let shares: f64 = m.iter().filter(|x| x.name.ends_with("_frac")).map(|x| x.value).sum();
        assert!((shares - 1.0).abs() < 1e-12, "layers + unattributed = whole, got {shares}");
        assert_eq!(m.len(), 2 + LAYERS.len());
    }
}
