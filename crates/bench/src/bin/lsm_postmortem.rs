//! `lsm_postmortem` — read a crash post-mortem bundle written by the
//! torture harness (`lsm_crash --bundle-dir=...` or a failing cycle):
//! pretty-print every forensic section — flight recorder tail, open
//! spans, decision ledger, tree topology, wear heatmap, windowed health,
//! and device I/O. Validation against the `lsm-postmortem/v1` schema is
//! `lsm_doctor check <bundle.json>`.
//!
//! ```text
//! cargo run --release --bin lsm_postmortem -- <bundle.json> [--events=12]
//! ```
//!
//! Exits 1 when the bundle cannot be read or parsed.

use lsm_bench::report::fmt_f;
use lsm_bench::{Args, Table};
use lsm_tree::observe::Json;

/// Field lookup on a JSON object (`None` on anything else).
fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(j: &Json) -> u64 {
    match j {
        Json::U64(v) => *v,
        Json::I64(v) => (*v).max(0) as u64,
        Json::F64(v) => *v as u64,
        _ => 0,
    }
}

fn num(doc: &Json, key: &str) -> u64 {
    field(doc, key).map(as_u64).unwrap_or(0)
}

fn text<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match field(doc, key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match field(doc, key) {
        Some(Json::Arr(v)) => v.as_slice(),
        _ => &[],
    }
}

fn print_flight(flight: &Json, tail: usize) {
    println!("\n=== flight recorder ===");
    println!(
        "capacity {} | {} events recorded, {} dropped, {} retained",
        num(flight, "capacity"),
        num(flight, "total"),
        num(flight, "dropped"),
        items(flight, "events").len(),
    );
    let open = items(flight, "open_spans");
    if open.is_empty() {
        println!("no spans were open at dump time");
    } else {
        println!("{} span(s) still open at dump time (innermost last):", open.len());
        for span in open {
            let shard = match field(span, "shard") {
                Some(Json::Null) | None => String::new(),
                Some(s) => format!(" [shard {}]", as_u64(s)),
            };
            println!(
                "  span {} <- parent {}: {}{shard}",
                num(span, "id"),
                field(span, "parent")
                    .map(|p| if matches!(p, Json::Null) {
                        "-".into()
                    } else {
                        as_u64(p).to_string()
                    })
                    .unwrap_or_else(|| "-".into()),
                text(span, "op").unwrap_or("?"),
            );
        }
    }
    let events = items(flight, "events");
    let shown = events.len().min(tail);
    println!("last {shown} of {} retained events:", events.len());
    let mut t = Table::new(["seq", "tick", "span", "event"]);
    for entry in &events[events.len() - shown..] {
        let detail = field(entry, "event").cloned().unwrap_or(Json::Null);
        t.row([
            num(entry, "seq").to_string(),
            num(entry, "at_us").to_string(),
            field(entry, "span")
                .map(|v| if matches!(v, Json::Null) { "-".into() } else { as_u64(v).to_string() })
                .unwrap_or_else(|| "-".into()),
            detail.render(),
        ]);
    }
    t.print();
}

fn print_ledger(ledger: &Json) {
    println!("\n=== decision ledger ===");
    let totals = field(ledger, "totals").cloned().unwrap_or(Json::Null);
    println!(
        "{} decisions ({} full merges), {} reconciled | ring keeps {}, {} rows evicted",
        num(&totals, "decisions"),
        num(&totals, "full_merges"),
        num(&totals, "closed"),
        num(ledger, "keep"),
        num(ledger, "dropped_rows"),
    );
    println!(
        "predicted {} blocks, actual {} blocks | cumulative regret {} blocks, model error {} blocks",
        num(&totals, "predicted"),
        num(&totals, "actual"),
        num(&totals, "regret"),
        num(&totals, "model_error"),
    );
    if let Some(Json::Obj(levels)) = field(ledger, "per_level") {
        let mut t = Table::new([
            "level",
            "decisions",
            "full",
            "predicted",
            "actual",
            "regret",
            "model err",
        ]);
        for (level, tot) in levels {
            t.row([
                format!("L{level}"),
                num(tot, "decisions").to_string(),
                num(tot, "full_merges").to_string(),
                num(tot, "predicted").to_string(),
                num(tot, "actual").to_string(),
                num(tot, "regret").to_string(),
                num(tot, "model_error").to_string(),
            ]);
        }
        t.print();
    }
}

fn print_tree(tree: &Json) {
    println!("\n=== tree ===");
    println!(
        "policy {} | height {} | ~{} records ({} still in the memtable)",
        text(tree, "policy").unwrap_or("?"),
        num(tree, "height"),
        num(tree, "record_count"),
        num(tree, "memtable_records"),
    );
    let levels = items(tree, "levels");
    if !levels.is_empty() {
        let mut t = Table::new(["level", "blocks", "records", "min key", "max key", "w_i"]);
        for lvl in levels {
            t.row([
                format!("L{}", num(lvl, "paper_level")),
                num(lvl, "blocks").to_string(),
                num(lvl, "records").to_string(),
                field(lvl, "min_key")
                    .map(
                        |v| {
                            if matches!(v, Json::Null) {
                                "-".into()
                            } else {
                                as_u64(v).to_string()
                            }
                        },
                    )
                    .unwrap_or_else(|| "-".into()),
                field(lvl, "max_key")
                    .map(
                        |v| {
                            if matches!(v, Json::Null) {
                                "-".into()
                            } else {
                                as_u64(v).to_string()
                            }
                        },
                    )
                    .unwrap_or_else(|| "-".into()),
                field(lvl, "waste_delta").map(|v| v.render()).unwrap_or_else(|| "-".into()),
            ]);
        }
        t.print();
    }
    let degraded = items(tree, "degraded_ranges");
    if !degraded.is_empty() {
        println!("{} degraded range(s): {}", degraded.len(), Json::arr(degraded.to_vec()).render());
    }
    if let Some(cache) = field(tree, "cache") {
        let (h, m) = (num(cache, "hits"), num(cache, "misses"));
        let rate = if h + m > 0 { 100.0 * h as f64 / (h + m) as f64 } else { 0.0 };
        println!(
            "cache: {h} hits / {m} misses ({}% hit rate), {} evictions",
            fmt_f(rate, 1),
            num(cache, "evictions"),
        );
    }
}

fn print_scheduler(sched: &Json) {
    println!("\n=== scheduler ===");
    if let Some(backend) = text(sched, "backend") {
        println!("backend: {backend}");
    } else {
        let joined = |key: &str| {
            let shards = items(sched, key);
            if shards.is_empty() {
                "-".to_string()
            } else {
                shards.iter().map(|s| as_u64(s).to_string()).collect::<Vec<_>>().join(", ")
            }
        };
        println!(
            "queued shards: [{}] | running: [{}] | requeue: [{}]",
            joined("queued"),
            joined("running"),
            joined("requeue"),
        );
        println!(
            "backlogs: [{}] (bound {}) | workers {} | shutdown {}",
            joined("backlogs"),
            num(sched, "max_imm_memtables"),
            num(sched, "workers"),
            matches!(field(sched, "shutdown"), Some(Json::Bool(true))),
        );
        if let Some(Json::Str(err)) = field(sched, "pending_err") {
            println!("pending background error: {err}");
        }
        if let Some(steps) = field(sched, "sim_steps") {
            if !matches!(steps, Json::Null) {
                println!("simulated executor: {} maintenance steps taken", as_u64(steps));
            }
        }
    }
    let rendezvous = items(sched, "rendezvous");
    if !rendezvous.is_empty() {
        let mut t = Table::new([
            "shard",
            "synced seq",
            "leader running",
            "poisoned",
            "wal appended",
            "wal synced",
        ]);
        for r in rendezvous {
            t.row([
                num(r, "shard").to_string(),
                num(r, "synced_seq").to_string(),
                matches!(field(r, "leader_running"), Some(Json::Bool(true))).to_string(),
                matches!(field(r, "poisoned"), Some(Json::Bool(true))).to_string(),
                num(r, "wal_appended").to_string(),
                num(r, "wal_synced").to_string(),
            ]);
        }
        t.print();
    }
}

fn print_health(health: &Json) {
    println!("\n=== windowed health ===");
    let cfg = field(health, "config").cloned().unwrap_or(Json::Null);
    println!(
        "schema {} | {} windows of {} device ops completed ({} device ops total)",
        text(health, "schema").unwrap_or("?"),
        num(health, "windows_completed"),
        num(&cfg, "window_ops"),
        num(health, "device_ops"),
    );
    let detectors = items(health, "detectors");
    if !detectors.is_empty() {
        let states: Vec<String> = detectors
            .iter()
            .map(|d| {
                format!(
                    "{}={} ({} trips)",
                    text(d, "detector").unwrap_or("?"),
                    text(d, "state").unwrap_or("?"),
                    num(d, "trips"),
                )
            })
            .collect();
        println!("detectors: {}", states.join(", "));
    }
    if let Some(slo) = field(health, "slo") {
        println!(
            "slo: {} good / {} bad puts, alerting {}",
            num(slo, "good"),
            num(slo, "bad"),
            matches!(field(slo, "alerting"), Some(Json::Bool(true))),
        );
    }
    let transitions = items(health, "transitions");
    if transitions.is_empty() {
        println!("no detector transitions recorded");
    } else {
        println!("{} detector transition(s):", transitions.len());
        let mut t = Table::new(["window", "detector", "from", "to"]);
        for tr in transitions {
            t.row([
                num(tr, "window").to_string(),
                text(tr, "detector").unwrap_or("?").to_string(),
                text(tr, "from").unwrap_or("?").to_string(),
                text(tr, "to").unwrap_or("?").to_string(),
            ]);
        }
        t.print();
    }
}

fn print_wear(wear: &Json) {
    println!("\n=== device wear ===");
    println!(
        "{} blocks, {} touched | {} programs total, max {} on one block",
        num(wear, "blocks"),
        num(wear, "blocks_touched"),
        num(wear, "total_programs"),
        num(wear, "max_wear"),
    );
    let cells = items(wear, "heatmap");
    if !cells.is_empty() {
        let peak = cells.iter().map(|c| num(c, "max")).max().unwrap_or(0).max(1);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let row: String = cells
            .iter()
            .map(|c| glyphs[(num(c, "max") * (glyphs.len() as u64 - 1) / peak) as usize])
            .collect();
        println!("heatmap (max wear per {}-block cell): [{row}]", num(&cells[0], "blocks"));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let path = argv
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .or_else(|| argv.iter().find_map(|a| a.strip_prefix("--bundle=").map(str::to_string)));
    let Some(path) = path else {
        eprintln!("usage: lsm_postmortem <bundle.json> [--events=12]");
        std::process::exit(1);
    };
    let args = Args::parse_from(argv.iter().filter(|a| a.starts_with("--")).cloned());
    let tail: usize = args.get_or("events", 12);

    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match Json::parse(&raw) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };

    println!("=== post-mortem bundle: {path} ===");
    println!("schema {}", text(&doc, "schema").unwrap_or("?"));
    println!("reason: {}", text(&doc, "reason").unwrap_or("?"));
    if let Some(seed) = field(&doc, "seed") {
        println!("seed: {}", as_u64(seed));
    }
    if let Some(error) = text(&doc, "error") {
        println!("error: {error}");
    }
    if let Some(repro) = text(&doc, "repro") {
        println!("reproduce: {repro}");
    }

    if let Some(flight) = field(&doc, "flight") {
        print_flight(flight, tail);
    }
    if let Some(ledger) = field(&doc, "ledger") {
        print_ledger(ledger);
    }
    if let Some(tree) = field(&doc, "tree") {
        print_tree(tree);
    }
    if let Some(sched) = field(&doc, "scheduler") {
        print_scheduler(sched);
    }
    if let Some(wear) = field(&doc, "wear") {
        print_wear(wear);
    }
    if let Some(health) = field(&doc, "health") {
        print_health(health);
    }
    if let Some(io) = field(&doc, "device_io") {
        println!(
            "\ndevice I/O at dump: {} writes, {} reads, {} trims, {} syncs",
            num(io, "writes"),
            num(io, "reads"),
            num(io, "trims"),
            num(io, "syncs"),
        );
    }
}
