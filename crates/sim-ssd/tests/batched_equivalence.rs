//! `read_many` / `write_many` must be observably identical to the
//! single-op loop on every device: same per-block results and bytes, same
//! I/O counters, same event stream. Only the syscall count may differ.
//!
//! The check runs the same seeded op pattern against two mirror instances
//! of each device — one driven through the batched entry points, one
//! through a plain loop — and compares everything observable.

use std::path::PathBuf;
use std::sync::Arc;

use bytes::Bytes;
use observe::{Event, SinkHandle, VecSink};
use sim_ssd::{
    BlockDevice, BlockId, FaultDevice, FaultPlan, FileDevice, FileDeviceOptions, MemDevice,
    SplitMix64,
};

const CAPACITY: u64 = 64;

/// One seeded step: either a batch of reads or a batch of writes, with a
/// mix of adjacent runs, gaps, duplicates, unwritten holes and
/// out-of-range ids.
enum Step {
    Read(Vec<BlockId>),
    Write(Vec<(BlockId, Bytes)>),
}

fn gen_steps(seed: u64, steps: usize, block_size: usize) -> Vec<Step> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let n = 1 + rng.gen_range(12) as usize;
        let mut ids = Vec::with_capacity(n);
        let mut cur = rng.gen_range(CAPACITY + 4); // sometimes out of range
        for _ in 0..n {
            ids.push(BlockId(cur));
            // Mostly adjacent, sometimes jump, rarely repeat.
            cur = match rng.gen_range(10) {
                0..=5 => cur + 1,
                6 => cur, // duplicate
                _ => rng.gen_range(CAPACITY + 4),
            };
        }
        if rng.chance(0.5) {
            out.push(Step::Read(ids));
        } else {
            let batch = ids
                .into_iter()
                .map(|id| {
                    let fill = rng.next_u64() as u8;
                    // Rarely a bad frame size, to exercise that error path.
                    let len = if rng.chance(0.05) { block_size / 2 } else { block_size };
                    (id, Bytes::from(vec![fill; len]))
                })
                .collect();
            out.push(Step::Write(batch));
        }
    }
    out
}

/// Drive `steps` through `dev`, batched or looped, and return a digest of
/// every per-block outcome (success bytes or error string).
fn drive(dev: &dyn BlockDevice, steps: &[Step], batched: bool) -> Vec<String> {
    let bs = dev.block_size();
    let mut digest = Vec::new();
    for step in steps {
        match step {
            Step::Read(ids) => {
                let results: Vec<_> = if batched {
                    dev.read_many(ids)
                } else {
                    ids.iter().map(|&id| dev.read(id)).collect()
                };
                for r in results {
                    digest.push(match r {
                        Ok(b) => format!("ok:{:02x}{:02x}len{}", b[0], b[bs - 1], b.len()),
                        Err(e) => format!("err:{e}"),
                    });
                }
            }
            Step::Write(batch) => {
                let results: Vec<_> = if batched {
                    dev.write_many(batch)
                } else {
                    batch.iter().map(|(id, frame)| dev.write(*id, frame)).collect()
                };
                for r in results {
                    digest.push(match r {
                        Ok(()) => "ok".to_string(),
                        Err(e) => format!("err:{e}"),
                    });
                }
            }
        }
    }
    digest
}

fn assert_equivalent(make: impl Fn() -> Arc<dyn BlockDevice>, seed: u64, label: &str) {
    let looped_dev = make();
    let steps = gen_steps(seed, 40, looped_dev.block_size());

    let looped_sink = Arc::new(VecSink::new());
    looped_dev.set_sink(SinkHandle::new(looped_sink.clone()));
    let looped = drive(looped_dev.as_ref(), &steps, false);

    let batched_dev = make();
    let batched_sink = Arc::new(VecSink::new());
    batched_dev.set_sink(SinkHandle::new(batched_sink.clone()));
    let batched = drive(batched_dev.as_ref(), &steps, true);

    assert_eq!(looped, batched, "[{label} seed {seed}] per-block outcomes diverged");
    assert_eq!(
        looped_dev.io_snapshot(),
        batched_dev.io_snapshot(),
        "[{label} seed {seed}] I/O counters diverged"
    );
    let filter = |evs: Vec<Event>| -> Vec<String> {
        evs.into_iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::DeviceRead { .. }
                        | Event::DeviceWrite { .. }
                        | Event::DeviceTrim { .. }
                        | Event::DeviceSync
                )
            })
            .map(|e| format!("{e:?}"))
            .collect()
    };
    assert_eq!(
        filter(looped_sink.drain()),
        filter(batched_sink.drain()),
        "[{label} seed {seed}] device event streams diverged"
    );
}

/// A fresh temp path per device instance; the file is removed on drop of
/// the test via the collected list.
struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn new() -> Self {
        TempFiles(Vec::new())
    }
    fn next(&mut self, name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("batched-eq-{}-{name}-{}", std::process::id(), self.0.len()));
        self.0.push(p.clone());
        p
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

#[test]
fn mem_device_batched_ops_match_loop() {
    for seed in 0..8u64 {
        assert_equivalent(|| Arc::new(MemDevice::with_block_size(CAPACITY, 256)), seed, "mem");
    }
}

#[test]
fn file_device_batched_ops_match_loop() {
    let files = std::cell::RefCell::new(TempFiles::new());
    for seed in 0..8u64 {
        assert_equivalent(
            || {
                let p = files.borrow_mut().next("plain");
                Arc::new(FileDevice::create_with_block_size(&p, CAPACITY, 256).unwrap())
            },
            seed,
            "file",
        );
    }
}

#[test]
fn fault_device_over_file_batched_ops_match_loop() {
    // FaultDevice keeps the default loop implementation, so its per-op
    // RNG decisions (and therefore injected errors) line up exactly.
    let files = std::cell::RefCell::new(TempFiles::new());
    for seed in 0..8u64 {
        assert_equivalent(
            || {
                let p = files.borrow_mut().next("faulted");
                let inner: Arc<dyn BlockDevice> =
                    Arc::new(FileDevice::create_with_block_size(&p, CAPACITY, 256).unwrap());
                let plan = FaultPlan::none().read_error_rate(0.05).write_error_rate(0.05);
                Arc::new(FaultDevice::with_plan(inner, seed ^ 0xF00D, plan))
            },
            seed,
            "fault(file)",
        );
    }
}

#[test]
fn direct_file_device_batched_ops_match_loop() {
    if !sim_ssd::probe_direct(&std::env::temp_dir()) {
        eprintln!("skipping O_DIRECT equivalence: filesystem does not support it");
        return;
    }
    let files = std::cell::RefCell::new(TempFiles::new());
    for seed in 0..4u64 {
        assert_equivalent(
            || {
                let p = files.borrow_mut().next("direct");
                let opts = FileDeviceOptions { block_size: 4096, direct: true };
                Arc::new(FileDevice::create_with(&p, CAPACITY, opts).unwrap())
            },
            seed,
            "file(direct)",
        );
    }
}
