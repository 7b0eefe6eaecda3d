//! The four workloads: set-up, the primary timed rounds, and the read-back
//! pass every workload ends with.
//!
//! | name | loop | stresses |
//! |---|---|---|
//! | `ingest` | closed, 1 client, inline merges, memory device | memtable, merge, block encode, store writes |
//! | `read` | closed, 1 client, no writes, cache ≪ data | level search, bloom, cache, block decode, device reads, iter |
//! | `mixed` | open at a fixed rate, 1 generator + 1 background worker, 2 shards, memory device | shard lock, scheduler, maintenance steps |
//! | `durable` | closed, 2 writers, group commits of a few thousand puts, crash + recovery per epoch | wal, group-commit rendezvous, shard lock, memtable, replay |
//!
//! The engine is called only through its public API; the frozen list of
//! functions is in `perf/README.md`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use lsm_tree::{BackgroundPolicy, CommitMode, Request, Scheduler, ShardedLsmTree, WriteBatch};
use sim_ssd::{BlockDevice, FileDevice, MemDevice};

use crate::calib::{self, Calibration};
use crate::env::{
    self, Counters, Scratch, Sizing, Space, DURABLE_WRITERS, MIXED_RATE_OPS, ON_TIME_NS,
};
use crate::gen::{self, GetOp, Oracle, SplitMix64, Zipf};
use crate::stats::{percentile, supported_tail};
use crate::trace::{SpanId, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Read,
    Mixed,
    Durable,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Ingest, Kind::Read, Kind::Mixed, Kind::Durable];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Read => "read",
            Kind::Mixed => "mixed",
            Kind::Durable => "durable",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Highest percentile `lat_tail_us` may use on this workload (the
    /// per-round sample count can lower it further). Demotions decided by
    /// the A/A runs are recorded in `perf/README.md`.
    pub fn tail_cap(self) -> f64 {
        match self {
            Kind::Ingest => 99.9,
            Kind::Durable => 99.0,
            Kind::Read => 95.0,
            Kind::Mixed => 90.0,
        }
    }

    /// What one primary request is, for the reader of `ops_kops`.
    pub fn request_name(self) -> &'static str {
        match self {
            Kind::Ingest => "put/delete",
            Kind::Read => "get",
            Kind::Mixed => "put+get",
            Kind::Durable => "commit",
        }
    }
}

/// Requests attempted and failed (errors plus wrong answers).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failures.len() < 5 {
            self.first_failures.push(what());
        }
    }
}

/// One round of a primary phase.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Operations completed (`durable`: puts, a commit's worth per request).
    pub ops: u64,
    /// Of those, the ones that count towards `ops_kops`: all of them in a
    /// closed loop; in the open loop the ones that finished on time.
    pub on_time: u64,
    pub wall_ns: u64,
    pub cpu_s: f64,
    /// Ascending call-to-return latencies of the round's requests
    /// (`mixed`: of its gets; `durable`: of its commits).
    pub lat: Vec<u64>,
    /// Sum of call-to-return times, of every request.
    pub service_ns: u64,
    /// Whether the harness recorded a span per request in this round.
    pub traced: bool,
    /// The machine's speed while the round ran (1 = the reference), from the
    /// calibration samples taken before and after it.
    pub speed: f64,
}

impl Round {
    pub fn kops(&self) -> f64 {
        self.on_time as f64 / (self.wall_ns as f64 / 1e9) / 1e3
    }
}

/// Give every round the machine's speed while it ran: `samples` holds one
/// calibration sample from before the first round and one from after each.
fn set_speeds(rounds: &mut [Round], samples: &[f64]) {
    for (round, speed) in rounds.iter_mut().zip(calib::between(samples)) {
        round.speed = speed;
    }
}

/// What only `mixed` measures: the generator's own lateness, and the
/// from-due latency next to the call-to-return time, per request type.
///
/// The from-due tail is what blocking behind maintenance steps looks like
/// to a caller, and on this two-core sandbox it is bistable: the same
/// binary gives a p99 of 6 ms for a quarter of an hour and 21 ms for the
/// next, following how the host schedules the generator against the worker
/// that re-takes the shard lock step after step (one long stall or many
/// short ones). What repeats in both regimes is the *share* of requests
/// that met a blocked front-end — 0.26–0.30 started late in either — so the
/// gate takes that, as the rate of requests finished within
/// [`ON_TIME_NS`] of their due time (`ops_kops`), and the percentiles are
/// per-layer.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Requests completed per second, on time or not: the offered rate
    /// unless the engine falls behind.
    pub completed_kops: Vec<f64>,
    pub on_time_frac: Vec<f64>,
    pub late_frac: Vec<f64>,
    pub slow_frac: Vec<f64>,
    pub max_late_us: f64,
    pub due_p90_us: Vec<f64>,
    pub due_p95_us: Vec<f64>,
    pub due_p99_us: Vec<f64>,
    pub put_due_tail_us: Vec<f64>,
    pub get_due_p50_us: Vec<f64>,
    pub get_due_tail_us: Vec<f64>,
    pub put_service_p50_us: Vec<f64>,
    pub put_service_p99_us: Vec<f64>,
    pub get_service_p99_us: Vec<f64>,
}

/// What only `durable` measures.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    pub recover_s: Vec<f64>,
    pub replayed_puts: u64,
}

/// Read-back pass: the same point reads and range scans after every
/// workload, over whatever state it left behind.
#[derive(Debug, Clone, Default)]
pub struct Readback {
    pub get_kops: Vec<f64>,
    pub get_p50_us: Vec<f64>,
    pub gets: u64,
    pub block_reads: u64,
    pub scan_krecs: Vec<f64>,
    pub scan_ns_per_rec: Vec<f64>,
    pub records_per_round: u64,
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct Measured {
    pub kind: Kind,
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub open_loop: Option<OpenLoop>,
    pub durability: Option<Durability>,
    pub readback: Readback,
    /// Counter deltas over the primary rounds.
    pub timed: Counters,
    /// Counters from an empty tree to the end of the primary rounds.
    pub life: Counters,
    /// Counter deltas over the read-back gets.
    pub readback_counters: Counters,
    /// Device space against the live records it holds: sampled after every
    /// round where the index churns (`ingest`) or starts over (`durable`),
    /// once after the primary rounds elsewhere.
    pub space: Vec<Space>,
    pub tally: Tally,
    pub data_fs: String,
}

struct State {
    tree: ShardedLsmTree,
    file: Option<Arc<FileDevice>>,
    oracle: Oracle,
}

pub struct Run<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub sizing: Sizing,
    pub data_root: &'a Path,
    /// Alternate traced and untraced rounds, recording spans here.
    pub tracer: Option<&'a mut Tracer>,
    /// Sampled between rounds, outside every timed section.
    pub calib: Calibration,
}

type Res<T> = Result<T, String>;

fn engine<T>(what: &str, r: lsm_tree::Result<T>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Device blocks for `keys` records: four times the packed size, so
/// waste, in-flight merges and the delete backlog always fit.
fn device_blocks(keys: u64) -> u64 {
    (keys / env::RECORDS_PER_BLOCK + 1) * 4 + 4096
}

impl Run<'_> {
    pub fn execute(mut self) -> Res<Measured> {
        let scratch = Scratch::new(self.data_root, self.kind.name())
            .map_err(|e| format!("data dir {}: {e}", self.data_root.display()))?;
        let data_fs = env::filesystem_of(scratch.path());
        let mut tally = Tally::default();

        // Set-up, repeated: `setup_s` is the median, the last state is kept.
        let mut setup_s = Vec::new();
        let mut state = None;
        for _ in 0..self.sizing.setup_reps[self.kind as usize] {
            drop(state.take());
            let t = Instant::now();
            state = Some(self.setup(&scratch, &mut tally)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut state = state.expect("at least one set-up");

        let phase = self.open_phase("primary");
        let before = Counters::read(&state.tree, state.file.as_ref());
        let mut open_loop = None;
        let mut durability = None;
        let mut space = Vec::new();
        let (rounds, timed, life) = match self.kind {
            Kind::Ingest => {
                let r = self.ingest_rounds(&mut state, phase, &mut space, &mut tally);
                self.close_primary(&state, &before, r)?
            }
            Kind::Read => {
                let r = self.read_rounds(&state, phase, &mut tally);
                self.close_primary(&state, &before, r)?
            }
            Kind::Mixed => {
                let (r, ol) = self.mixed_rounds(&mut state, phase, &mut tally);
                open_loop = Some(ol);
                self.close_primary(&state, &before, r)?
            }
            Kind::Durable => {
                let (r, timed, d) =
                    self.durable_epochs(&mut state, &scratch, phase, &mut space, &mut tally)?;
                durability = Some(d);
                // Every epoch starts from an empty tree, so the writers'
                // counters are whole lives; the surviving state (read back
                // below) is the last epoch's recovered tree.
                let life = timed.clone();
                (r, timed, life)
            }
        };
        self.close_phase(phase);
        if space.is_empty() {
            space.push(Space::read(&state.tree, state.oracle.live()));
        }

        let phase = self.open_phase("readback");
        let (readback, readback_counters) = self.readback(&state, phase, &mut tally);
        self.close_phase(phase);

        tally.attempt(1);
        if let Err(e) = state.tree.deep_verify(true) {
            tally.fail(|| format!("deep_verify: {e}"));
        }
        drop(state);
        Ok(Measured {
            kind: self.kind,
            setup_s,
            rounds,
            open_loop,
            durability,
            readback,
            timed,
            life,
            readback_counters,
            space,
            tally,
            data_fs,
        })
    }

    fn open_phase(&mut self, name: &'static str) -> Option<SpanId> {
        self.tracer.as_deref_mut().map(|t| t.open(name, 0))
    }

    fn close_phase(&mut self, phase: Option<SpanId>) {
        if let (Some(t), Some(id)) = (self.tracer.as_deref_mut(), phase) {
            t.close(id);
        }
    }

    /// Quiesce background work, then close the primary phase's counters.
    fn close_primary(
        &self,
        state: &State,
        before: &Counters,
        rounds: Vec<Round>,
    ) -> Res<(Vec<Round>, Counters, Counters)> {
        engine("flush after the timed rounds", state.tree.flush())?;
        let life = Counters::read(&state.tree, state.file.as_ref());
        Ok((rounds, life.since(before), life))
    }

    fn setup(&self, scratch: &Scratch, tally: &mut Tally) -> Res<State> {
        match self.kind {
            Kind::Ingest => self.setup_loaded_tree(None, 256),
            Kind::Read => {
                let state = self.setup_loaded_tree(Some(scratch), self.sizing.read_cache_blocks)?;
                // Warm the cache with the distribution the rounds will use.
                let mut rng = SplitMix64::new(self.seed ^ 0x7761_726d);
                let zipf = Zipf::new(state.oracle.live(), 0.99);
                let warm = self.sizing.read_cache_blocks * 8;
                for g in gen::tape_gets(&state.oracle, &mut rng, warm, 10, |r, _| zipf.sample(r)) {
                    engine("warm-up get", state.tree.get(g.key))?;
                }
                Ok(state)
            }
            Kind::Mixed => self.setup_mixed(),
            Kind::Durable => {
                // Nothing is preloaded; set-up is one untimed warm-up epoch
                // (file allocation, allocator, page cache).
                let dir = scratch.subdir("warmup").map_err(|e| e.to_string())?;
                let epoch =
                    Self::durable_epoch(self.seed, &self.sizing, &dir, u64::MAX, None, tally)?;
                Ok(State { tree: epoch.recovered, file: None, oracle: epoch.oracle })
            }
        }
    }

    /// `ingest` and `read`: one shard, inline merges, `tree_keys` keys
    /// loaded — over a buffered file device in `scratch` when given, over a
    /// memory device otherwise.
    ///
    /// `ingest` writes 2.6 GB in a run. On a file inside the checkout that
    /// is page-cache dirtying and kernel write-back competing for the same
    /// two cores (measured: 108–154 kops/s from run to run on the file,
    /// 116–137 in memory), so its device is memory; the file write path is
    /// timed by `read`'s set-up, which loads the same tree onto a file, and
    /// by the layer replay.
    fn setup_loaded_tree(&self, scratch: Option<&Scratch>, cache_blocks: usize) -> Res<State> {
        let s = &self.sizing;
        let blocks = device_blocks(s.tree_keys * 2);
        let file = match scratch {
            Some(scratch) => {
                let path = scratch.path().join("device.img");
                let dev = FileDevice::create(&path, blocks)
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
                Some(Arc::new(dev))
            }
            None => None,
        };
        let device: Arc<dyn BlockDevice> = match &file {
            Some(f) => f.clone(),
            None => Arc::new(MemDevice::with_block_size(blocks, env::BLOCK_SIZE)),
        };
        let tree = engine(
            "build tree",
            ShardedLsmTree::with_devices(
                env::config(s.k0_blocks, cache_blocks),
                env::options(Scheduler::Inline, CommitMode::Buffered),
                vec![device],
            ),
        )?;
        let mut oracle = Oracle::new(self.seed);
        for _ in 0..s.tree_keys {
            let (key, payload) = oracle.insert_new();
            engine("load put", tree.put(key, payload))?;
        }
        Ok(State { tree, file, oracle })
    }

    fn setup_mixed(&self) -> Res<State> {
        let s = &self.sizing;
        let tree = engine(
            "build tree",
            ShardedLsmTree::with_mem_devices(
                env::config(s.k0_blocks, s.mixed_cache_blocks),
                env::options(
                    Scheduler::Background(BackgroundPolicy { workers: 1, max_imm_memtables: 4 }),
                    CommitMode::Buffered,
                ),
                2,
                device_blocks(s.mixed_keys),
            ),
        )?;
        // Quiesce the worker before any shard can seal a second memtable:
        // otherwise the order of flushes and level merges — and with it the
        // loaded tree and every count taken from it — depends on how the
        // threads happened to be scheduled.
        let quiesce_every = (s.k0_blocks as u64 * env::RECORDS_PER_BLOCK).max(1);
        let mut oracle = Oracle::new(self.seed);
        for i in 0..s.mixed_keys {
            let (key, payload) = oracle.insert_new();
            engine("load put", tree.put(key, payload))?;
            if (i + 1) % quiesce_every == 0 {
                engine("flush during load", tree.flush())?;
            }
        }
        engine("flush after load", tree.flush())?;
        for i in (0..s.mixed_keys).step_by(4) {
            engine("warm-up get", tree.get(oracle.perm.key(i)))?;
        }
        Ok(State { tree, file: None, oracle })
    }

    /// Whether round `i` records spans: every second round of a traced run.
    fn traced_round(&self, i: usize) -> bool {
        self.tracer.is_some() && i % 2 == 1
    }

    // ------------------------------------------------------------------
    // ingest
    // ------------------------------------------------------------------

    /// 50 % insert-new / 50 % delete-oldest, strictly alternating, so the
    /// index size stays constant (the paper's §V Uniform steady state).
    fn ingest_rounds(
        &mut self,
        state: &mut State,
        phase: Option<SpanId>,
        space: &mut Vec<Space>,
        tally: &mut Tally,
    ) -> Vec<Round> {
        let mut rounds = Vec::new();
        let mut req_id = 0u64;
        let mut speeds = vec![self.calib.sample()];
        for i in 0..self.sizing.ingest.rounds {
            let tape: Vec<Request> = (0..self.sizing.ingest.ops)
                .map(|j| {
                    if j % 2 == 0 {
                        let (key, payload) = state.oracle.insert_new();
                        Request::Put(key, payload)
                    } else {
                        Request::Delete(state.oracle.delete_oldest())
                    }
                })
                .collect();
            let traced = self.traced_round(i);
            let span = RoundSpan::open(self.tracer.as_deref_mut(), traced, phase, tape.len());
            let cpu0 = env::cpu_seconds();
            let (lat, wall, errors) = write_round(&state.tree, tape, span, &mut req_id);
            let cpu_s = env::cpu_seconds() - cpu0;
            tally.attempt(lat.len() as u64);
            for _ in 0..errors {
                tally.fail(|| "ingest: a put or delete returned an error".into());
            }
            rounds.push(finish_round(lat, wall, wall, cpu_s, traced));
            space.push(Space::read(&state.tree, state.oracle.live()));
            speeds.push(self.calib.sample());
        }
        set_speeds(&mut rounds, &speeds);
        rounds
    }

    // ------------------------------------------------------------------
    // read
    // ------------------------------------------------------------------

    /// 90 % present keys by Zipf(0.99) rank, 10 % absent; no writes.
    fn read_rounds(
        &mut self,
        state: &State,
        phase: Option<SpanId>,
        tally: &mut Tally,
    ) -> Vec<Round> {
        let mut rng = SplitMix64::new(self.seed ^ 0x7265_6164);
        let zipf = Zipf::new(state.oracle.live(), 0.99);
        let mut rounds = Vec::new();
        let mut req_id = 0u64;
        let mut speeds = vec![self.calib.sample()];
        for i in 0..self.sizing.read.rounds {
            let n = self.sizing.read.ops;
            let tape = gen::tape_gets(&state.oracle, &mut rng, n, 10, |r, _| zipf.sample(r));
            let traced = self.traced_round(i);
            let span = RoundSpan::open(self.tracer.as_deref_mut(), traced, phase, tape.len());
            let cpu0 = env::cpu_seconds();
            let (lat, wall, results) = get_round(&state.tree, &tape, span, &mut req_id);
            let cpu_s = env::cpu_seconds() - cpu0;
            check_gets(&tape, &results, tally);
            rounds.push(finish_round(lat, wall, wall, cpu_s, traced));
            speeds.push(self.calib.sample());
        }
        set_speeds(&mut rounds, &speeds);
        rounds
    }

    // ------------------------------------------------------------------
    // mixed
    // ------------------------------------------------------------------

    /// Open loop at a fixed rate: update-put and uniform get alternate over
    /// the live keys; each request is timed from its call and from when it
    /// was due.
    fn mixed_rounds(
        &mut self,
        state: &mut State,
        phase: Option<SpanId>,
        tally: &mut Tally,
    ) -> (Vec<Round>, OpenLoop) {
        enum Op {
            Put(Request),
            Get(GetOp),
        }
        let interval_ns = 1_000_000_000 / MIXED_RATE_OPS;
        let mut rng = SplitMix64::new(self.seed ^ 0x6d69_7865);
        let mut rounds = Vec::new();
        let mut ol = OpenLoop::default();
        let mut req_id = 0u64;
        let mut speeds = vec![self.calib.sample()];
        for i in 0..self.sizing.mixed.rounds {
            let (lo, hi) = state.oracle.window();
            let tape: Vec<Op> = (0..self.sizing.mixed.ops)
                .map(|j| {
                    let index = lo + rng.below(hi - lo);
                    if j % 2 == 0 {
                        let (key, payload) = state.oracle.update(index);
                        Op::Put(Request::Put(key, payload))
                    } else {
                        let key = state.oracle.perm.key(index);
                        Op::Get(GetOp { key, expect: state.oracle.version_of(index) })
                    }
                })
                .collect();
            let n = tape.len();
            let traced = self.traced_round(i);
            let mut span = RoundSpan::open(self.tracer.as_deref_mut(), traced, phase, n);
            let mut gets: Vec<(GetOp, lsm_tree::Result<Option<Bytes>>)> = Vec::with_capacity(n / 2);
            let (mut put_due, mut get_due) = (Vec::with_capacity(n / 2), Vec::with_capacity(n / 2));
            let (mut put_svc, mut get_svc) = (Vec::with_capacity(n / 2), Vec::with_capacity(n / 2));
            let (mut late, mut slow, mut max_late, mut errors) = (0u64, 0u64, 0u64, 0u64);
            let mut on_time = 0u64;
            let cpu0 = env::cpu_seconds();
            let t0 = Instant::now();
            let mut now = 0u64;
            for (j, op) in tape.into_iter().enumerate() {
                let due = j as u64 * interval_ns;
                // Pace by spinning on the clock: a sleep would measure the
                // kernel's timer slack, not the engine.
                while now < due {
                    std::hint::spin_loop();
                    now = t0.elapsed().as_nanos() as u64;
                }
                let start = now;
                let failed = match op {
                    Op::Put(req) => {
                        let res = state.tree.apply(req);
                        now = t0.elapsed().as_nanos() as u64;
                        put_due.push(now - due);
                        put_svc.push(now - start);
                        span.request("put", start, now, req_id);
                        res.is_err()
                    }
                    Op::Get(g) => {
                        let res = state.tree.get(g.key);
                        now = t0.elapsed().as_nanos() as u64;
                        get_due.push(now - due);
                        get_svc.push(now - start);
                        span.request("get", start, now, req_id);
                        let failed = res.is_err();
                        gets.push((g, res));
                        failed
                    }
                };
                let lateness = start - due;
                late += u64::from(lateness > 10_000);
                max_late = max_late.max(lateness);
                // A failed request counts as missing the latency limit.
                slow += u64::from(failed || now - due > 1_000_000);
                on_time += u64::from(!failed && now - due <= ON_TIME_NS);
                errors += u64::from(failed);
                req_id += 1;
            }
            let wall = now;
            let cpu_s = env::cpu_seconds() - cpu0;
            span.close();
            tally.attempt(n as u64);
            for _ in 0..errors {
                tally.fail(|| "mixed: a request returned an error".into());
            }
            for (g, res) in &gets {
                if let Ok(got) = res {
                    if !Oracle::matches(g.key, g.expect, got.as_deref()) {
                        tally.fail(|| format!("mixed: get {:#x} != version {:?}", g.key, g.expect));
                    }
                }
            }
            let service: u64 = put_svc.iter().chain(&get_svc).sum();
            for v in [&mut put_due, &mut get_due, &mut put_svc, &mut get_svc] {
                v.sort_unstable();
            }
            let tail = supported_tail(put_due.len(), 99.0);
            ol.completed_kops.push(n as f64 / (wall as f64 / 1e9) / 1e3);
            ol.on_time_frac.push(on_time as f64 / n as f64);
            ol.late_frac.push(late as f64 / n as f64);
            ol.slow_frac.push(slow as f64 / n as f64);
            ol.max_late_us = ol.max_late_us.max(max_late as f64 / 1e3);
            ol.put_due_tail_us.push(percentile(&put_due, tail) as f64 / 1e3);
            ol.get_due_p50_us.push(percentile(&get_due, 50.0) as f64 / 1e3);
            ol.get_due_tail_us.push(percentile(&get_due, tail) as f64 / 1e3);
            ol.put_service_p50_us.push(percentile(&put_svc, 50.0) as f64 / 1e3);
            ol.put_service_p99_us.push(percentile(&put_svc, 99.0) as f64 / 1e3);
            ol.get_service_p99_us.push(percentile(&get_svc, 99.0) as f64 / 1e3);
            let mut due = put_due;
            due.extend(get_due);
            due.sort_unstable();
            for (p, out) in
                [(90.0, &mut ol.due_p90_us), (95.0, &mut ol.due_p95_us), (99.0, &mut ol.due_p99_us)]
            {
                out.push(percentile(&due, p) as f64 / 1e3);
            }
            // The gated rate counts the requests that finished on time. The
            // gated latencies are the gets', call to return: a put returns
            // in 0.3 us and a get in 2 us, so a percentile of the two
            // together sits in the gap between them (the median) or on the
            // edge of the blocked few (p99) and jumps from run to run. The
            // from-due percentiles are bistable on a shared box (see
            // `OpenLoop`); they and the puts' are reported per layer.
            let mut round = finish_round(get_svc, wall, service, cpu_s, traced);
            (round.ops, round.on_time) = (n as u64, on_time);
            rounds.push(round);
            speeds.push(self.calib.sample());
        }
        set_speeds(&mut rounds, &speeds);
        (rounds, ol)
    }

    // ------------------------------------------------------------------
    // durable
    // ------------------------------------------------------------------

    /// Each round is an epoch: an empty WAL-backed tree under
    /// `CommitMode::Group`, two writers on disjoint keys, each committing
    /// `durable_commit_puts` puts at a time through `write_batch` (logged
    /// one by one under the shard lock, then one group-commit rendezvous:
    /// lead an fsync or ride on the other writer's). Then a crash (handle
    /// dropped, log cut to its synced length), recovery, and a check of
    /// every acked put.
    ///
    /// The benchmark may write only inside its checkout, where an fsync is
    /// 0.25–3 ms of a shared virtual disk. A commit is sized so that its
    /// software path takes several times that; with one put per commit
    /// every gated number was the disk's. The one-put rendezvous is
    /// reported per layer as `wal.disk.*`, ungated.
    fn durable_epochs(
        &mut self,
        state: &mut State,
        scratch: &Scratch,
        phase: Option<SpanId>,
        space: &mut Vec<Space>,
        tally: &mut Tally,
    ) -> Res<(Vec<Round>, Counters, Durability)> {
        let mut rounds = Vec::new();
        let mut timed = Counters::default();
        let mut d = Durability::default();
        let mut speeds = vec![self.calib.sample()];
        for i in 0..self.sizing.durable.rounds {
            let dir = scratch.subdir("epoch").map_err(|e| e.to_string())?;
            let traced = self.traced_round(i);
            let trace = match (self.tracer.as_deref_mut(), traced) {
                (Some(t), true) => Some((t, phase.unwrap_or(0))),
                _ => None,
            };
            let epoch = Self::durable_epoch(self.seed, &self.sizing, &dir, i as u64, trace, tally)?;
            timed.absorb(&epoch.counters);
            space.push(epoch.space);
            d.recover_s.push(epoch.recover_s);
            d.replayed_puts = epoch.oracle.live();
            rounds.push(epoch.round);
            *state = State { tree: epoch.recovered, file: None, oracle: epoch.oracle };
            speeds.push(self.calib.sample());
        }
        set_speeds(&mut rounds, &speeds);
        Ok((rounds, timed, d))
    }

    fn durable_epoch(
        seed: u64,
        s: &Sizing,
        dir: &Path,
        epoch: u64,
        trace: Option<(&mut Tracer, SpanId)>,
        tally: &mut Tally,
    ) -> Res<Epoch> {
        let puts = s.durable.ops as u64;
        let (writers, commit_puts) = (DURABLE_WRITERS, s.durable_commit_puts);
        // Every epoch writes its own index range (the warm-up epoch, numbered
        // u64::MAX, wraps to the range below epoch 0's).
        let base = (1u64 << 32).wrapping_add(epoch.wrapping_mul(puts)) & (gen::KEY_DOMAIN / 2 - 1);
        let oracle = Oracle::with_window(seed, base, base + puts);
        let cfg = env::config(s.durable_k0_blocks, 16_384);
        let opts = || env::options(Scheduler::Inline, CommitMode::Group);
        let blocks = device_blocks(puts);
        let tree = engine(
            "build tree",
            ShardedLsmTree::with_wal_dir(cfg.clone(), opts(), 1, blocks, dir),
        )?;
        // Writer `w` takes every `writers`-th index from `base + w`.
        let tapes: Vec<Vec<WriteBatch>> = (0..writers)
            .map(|w| {
                let indices: Vec<u64> = (base + w as u64..base + puts).step_by(writers).collect();
                indices
                    .chunks(commit_puts)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .map(|&i| {
                                let key = oracle.perm.key(i);
                                Request::Put(key, gen::payload(key, 0))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let traced = trace.is_some();
        let (tracer, phase) = match trace {
            Some((t, parent)) => (Some(t), Some(parent)),
            None => (None, None),
        };
        let mut span = RoundSpan::open(tracer, traced, phase, puts as usize / commit_puts);
        let cpu0 = env::cpu_seconds();
        let t0 = Instant::now();
        // Per writer, per commit: start, end, and whether it was acked.
        let commits: Vec<Vec<(u64, u64, bool)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = tapes
                .into_iter()
                .map(|tape| {
                    let tree = &tree;
                    scope.spawn(move || {
                        let mut out = Vec::with_capacity(tape.len());
                        for batch in tape {
                            let start = t0.elapsed().as_nanos() as u64;
                            let acked = tree.write_batch(batch).is_ok();
                            out.push((start, t0.elapsed().as_nanos() as u64, acked));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("durable writer panicked")).collect()
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let cpu_s = env::cpu_seconds() - cpu0;
        let mut lat = Vec::with_capacity(puts as usize / commit_puts);
        let mut acked = 0u64;
        let first_commit = epoch.wrapping_mul(puts) / commit_puts as u64;
        for &(start, end, ok) in commits.iter().flatten() {
            span.request("commit", start, end, first_commit.wrapping_add(lat.len() as u64));
            lat.push(end - start);
            if ok {
                acked += commit_puts as u64;
            } else {
                tally.fail(|| "durable: a commit returned an error".into());
            }
        }
        span.close();
        tally.attempt(puts);
        let service = lat.iter().sum();
        let mut round = finish_round(lat, wall, service, cpu_s, traced);
        (round.ops, round.on_time) = (puts, puts);

        // Crash: drop the handle, keep only the bytes known synced.
        let counters = Counters::read(&tree, None);
        let space = Space::read(&tree, puts);
        let synced = tree.wal_synced_lens();
        drop(tree);
        for (shard, len) in synced.iter().enumerate() {
            let path = dir.join(format!("shard-{shard}.wal"));
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            file.set_len(*len).map_err(|e| format!("truncate {}: {e}", path.display()))?;
        }
        let t = Instant::now();
        let recovered =
            engine("recover", ShardedLsmTree::recover_with_wal(cfg, opts(), 1, blocks, dir))?;
        let recover_s = t.elapsed().as_secs_f64();

        // Acked ⇒ recovered, for every put of every acked commit.
        tally.attempt(acked);
        for (w, commits) in commits.iter().enumerate() {
            for (c, _) in commits.iter().enumerate().filter(|(_, &(_, _, ok))| ok) {
                for j in c * commit_puts..(c + 1) * commit_puts {
                    let key = oracle.perm.key(base + (w + j * writers) as u64);
                    match recovered.get(key) {
                        Ok(got) if Oracle::matches(key, Some(0), got.as_deref()) => {}
                        other => {
                            tally.fail(|| format!("durable: acked put {key:#x} lost: {other:?}"))
                        }
                    }
                }
            }
        }
        Ok(Epoch { round, counters, space, recover_s, recovered, oracle })
    }

    // ------------------------------------------------------------------
    // read-back
    // ------------------------------------------------------------------

    /// Uniform point reads (10 % absent) and ~100-record range scans over
    /// the final state, closed loop, one client. Gives every workload its
    /// read cost and scan rate, and checks what it wrote.
    fn readback(
        &mut self,
        state: &State,
        phase: Option<SpanId>,
        tally: &mut Tally,
    ) -> (Readback, Counters) {
        let s = self.sizing;
        let mut rng = SplitMix64::new(self.seed ^ 0x6261_636b);
        let mut rb = Readback::default();
        let before = Counters::read(&state.tree, state.file.as_ref());
        let mut req_id = 0u64;
        for i in 0..s.readback_gets.rounds {
            let tape =
                gen::tape_gets(&state.oracle, &mut rng, s.readback_gets.ops, 10, |r, n| r.below(n));
            let traced = self.traced_round(i);
            let span = RoundSpan::open(self.tracer.as_deref_mut(), traced, phase, tape.len());
            let (lat, wall, results) = get_round(&state.tree, &tape, span, &mut req_id);
            check_gets(&tape, &results, tally);
            let mut lat = lat;
            lat.sort_unstable();
            rb.get_kops.push(tape.len() as f64 / (wall as f64 / 1e9) / 1e3);
            rb.get_p50_us.push(percentile(&lat, 50.0) as f64 / 1e3);
            rb.gets += tape.len() as u64;
        }
        let counters = Counters::read(&state.tree, state.file.as_ref()).since(&before);
        rb.block_reads = counters.lookup_block_reads;

        let model = state.oracle.sorted_live_keys();
        for i in 0..s.readback_scans.rounds {
            let tape = gen::tape_scans(&state.oracle, &mut rng, s.readback_scans.ops, 100);
            let traced = self.traced_round(i);
            let mut span = RoundSpan::open(self.tracer.as_deref_mut(), traced, phase, tape.len());
            let mut results = Vec::with_capacity(tape.len());
            let t0 = Instant::now();
            let mut prev = 0u64;
            for &(lo, hi) in &tape {
                let res = state.tree.scan_collect(lo, hi);
                let now = t0.elapsed().as_nanos() as u64;
                span.request("scan", prev, now, req_id);
                results.push(res);
                prev = now;
                req_id += 1;
            }
            span.close();
            let records = check_scans(&tape, &results, &model, &state.oracle, tally);
            rb.scan_krecs.push(records as f64 / (prev as f64 / 1e9) / 1e3);
            rb.scan_ns_per_rec.push(prev as f64 / records.max(1) as f64);
            rb.records_per_round = records;
        }
        (rb, counters)
    }
}

struct Epoch {
    round: Round,
    /// The writers' tree just before the crash.
    counters: Counters,
    space: Space,
    recover_s: f64,
    recovered: ShardedLsmTree,
    oracle: Oracle,
}

/// Span bookkeeping of one round: a `round` span under the phase, and one
/// child per request when the round is traced. All no-ops otherwise, so
/// traced and untraced rounds run the same loop.
struct RoundSpan<'a> {
    tracer: Option<&'a mut Tracer>,
    round: SpanId,
    base_ns: u64,
}

impl<'a> RoundSpan<'a> {
    fn open(
        tracer: Option<&'a mut Tracer>,
        traced: bool,
        phase: Option<SpanId>,
        requests: usize,
    ) -> Self {
        match tracer {
            Some(t) if traced => {
                t.reserve(requests + 1);
                let round = t.open("round", phase.unwrap_or(0));
                let base_ns = t.now_ns();
                RoundSpan { tracer: Some(t), round, base_ns }
            }
            _ => RoundSpan { tracer: None, round: 0, base_ns: 0 },
        }
    }

    /// `start`/`end` are nanoseconds since the round's clock started.
    #[inline]
    fn request(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(name, self.base_ns + start, self.base_ns + end, self.round, req);
        }
    }

    fn close(self) {
        if let Some(t) = self.tracer {
            t.close(self.round);
        }
    }
}

fn finish_round(
    mut lat: Vec<u64>,
    wall_ns: u64,
    service_ns: u64,
    cpu_s: f64,
    traced: bool,
) -> Round {
    lat.sort_unstable();
    let ops = lat.len() as u64;
    Round { ops, on_time: ops, wall_ns, cpu_s, lat, service_ns, traced, speed: 1.0 }
}

/// One closed-loop round of writes; returns the per-request latencies, the
/// round's wall time and how many requests returned an error.
fn write_round(
    tree: &ShardedLsmTree,
    tape: Vec<Request>,
    mut span: RoundSpan<'_>,
    req_id: &mut u64,
) -> (Vec<u64>, u64, u64) {
    let mut lat = Vec::with_capacity(tape.len());
    let mut errors = 0u64;
    let t0 = Instant::now();
    let mut prev = 0u64;
    for req in tape {
        let name = if matches!(req, Request::Put(..)) { "put" } else { "delete" };
        let res = tree.apply(req);
        let now = t0.elapsed().as_nanos() as u64;
        lat.push(now - prev);
        span.request(name, prev, now, *req_id);
        errors += u64::from(res.is_err());
        prev = now;
        *req_id += 1;
    }
    span.close();
    (lat, prev, errors)
}

type GetResult = lsm_tree::Result<Option<Bytes>>;

/// One closed-loop round of point reads; answers are kept and checked
/// after the clock stops.
fn get_round(
    tree: &ShardedLsmTree,
    tape: &[GetOp],
    mut span: RoundSpan<'_>,
    req_id: &mut u64,
) -> (Vec<u64>, u64, Vec<GetResult>) {
    let mut lat = Vec::with_capacity(tape.len());
    let mut results = Vec::with_capacity(tape.len());
    let t0 = Instant::now();
    let mut prev = 0u64;
    for g in tape {
        let res = tree.get(g.key);
        let now = t0.elapsed().as_nanos() as u64;
        lat.push(now - prev);
        span.request("get", prev, now, *req_id);
        results.push(res);
        prev = now;
        *req_id += 1;
    }
    span.close();
    (lat, prev, results)
}

fn check_gets(tape: &[GetOp], results: &[GetResult], tally: &mut Tally) {
    tally.attempt(tape.len() as u64);
    for (g, res) in tape.iter().zip(results) {
        match res {
            Ok(got) if Oracle::matches(g.key, g.expect, got.as_deref()) => {}
            Ok(got) => tally.fail(|| {
                format!(
                    "get {:#x}: expected version {:?}, got {} bytes",
                    g.key,
                    g.expect,
                    got.as_ref().map_or(0, |b| b.len())
                )
            }),
            Err(e) => tally.fail(|| format!("get {:#x}: {e}", g.key)),
        }
    }
}

/// Every scan is checked for order, bounds, payload integrity and — against
/// the sorted model of live keys — completeness. Returns records scanned.
fn check_scans(
    tape: &[(u64, u64)],
    results: &[lsm_tree::Result<Vec<(u64, Bytes)>>],
    model: &[u64],
    oracle: &Oracle,
    tally: &mut Tally,
) -> u64 {
    tally.attempt(tape.len() as u64);
    let mut records = 0u64;
    for (&(lo, hi), res) in tape.iter().zip(results) {
        let rows = match res {
            Ok(rows) => rows,
            Err(e) => {
                tally.fail(|| format!("scan [{lo:#x}, {hi:#x}]: {e}"));
                continue;
            }
        };
        records += rows.len() as u64;
        let want = &model[model.partition_point(|&k| k < lo)..model.partition_point(|&k| k <= hi)];
        let keys_match = rows.len() == want.len() && rows.iter().zip(want).all(|(r, w)| r.0 == *w);
        let payloads_match =
            rows.iter().all(|(k, p)| Oracle::matches(*k, oracle.expect(*k), Some(&p[..])));
        if !keys_match || !payloads_match {
            tally.fail(|| {
                format!(
                    "scan [{lo:#x}, {hi:#x}]: {} rows, model has {}, payloads ok: {payloads_match}",
                    rows.len(),
                    want.len()
                )
            });
        }
    }
    records
}
