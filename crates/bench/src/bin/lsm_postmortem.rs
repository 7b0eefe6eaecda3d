//! `lsm_postmortem` — read a crash post-mortem bundle written by the
//! torture harness (`lsm_crash --bundle-dir=...` or a failing cycle):
//! pretty-print every forensic section — flight recorder tail, open
//! spans, decision ledger, tree topology, wear heatmap, windowed health,
//! tail anatomy, and device I/O. Validation against the `lsm-postmortem/v1` schema is
//! `lsm_doctor check <bundle.json>`.
//!
//! ```text
//! cargo run --release --bin lsm_postmortem -- <bundle.json> [--events=12]
//! ```
//!
//! Exits 1 when the bundle cannot be read or parsed.

use lsm_bench::report::{fmt_f, number, render_health, render_ledger, render_tail};
use lsm_bench::{Args, Table};
use lsm_tree::observe::Json;

/// An id-like member: its value, or `-` when it is null or absent.
fn id_or_dash(v: &Json) -> String {
    v.as_u64().map_or("-".into(), |id| id.to_string())
}

fn print_flight(flight: &Json, tail: usize) {
    println!("\n=== flight recorder ===");
    println!(
        "capacity {} | {} events recorded, {} dropped, {} retained",
        number(flight.get("capacity")),
        number(flight.get("total")),
        number(flight.get("dropped")),
        flight.get("events").items().len(),
    );
    let open = flight.get("open_spans").items();
    if open.is_empty() {
        println!("no spans were open at dump time");
    } else {
        println!("{} span(s) still open at dump time (innermost last):", open.len());
        for span in open {
            let shard = match span.get("shard").as_u64() {
                Some(s) => format!(" [shard {s}]"),
                None => String::new(),
            };
            println!(
                "  span {} <- parent {}: {}{shard}",
                number(span.get("id")),
                id_or_dash(span.get("parent")),
                span.get("op").as_str().unwrap_or("?"),
            );
        }
    }
    let events = flight.get("events").items();
    let shown = events.len().min(tail);
    println!("last {shown} of {} retained events:", events.len());
    let mut t = Table::new(["seq", "tick", "span", "event"]);
    for entry in &events[events.len() - shown..] {
        t.row([
            number(entry.get("seq")).to_string(),
            number(entry.get("at_us")).to_string(),
            id_or_dash(entry.get("span")),
            entry.get("event").render(),
        ]);
    }
    t.print();
}

fn print_tree(tree: &Json) {
    println!("\n=== tree ===");
    println!(
        "policy {} | height {} | ~{} records ({} still in the memtable)",
        tree.get("policy").as_str().unwrap_or("?"),
        number(tree.get("height")),
        number(tree.get("record_count")),
        number(tree.get("memtable_records")),
    );
    let levels = tree.get("levels").items();
    if !levels.is_empty() {
        let mut t = Table::new(["level", "blocks", "records", "min key", "max key", "w_i"]);
        for lvl in levels {
            t.row([
                format!("L{}", number(lvl.get("paper_level"))),
                number(lvl.get("blocks")).to_string(),
                number(lvl.get("records")).to_string(),
                id_or_dash(lvl.get("min_key")),
                id_or_dash(lvl.get("max_key")),
                lvl.get("waste_delta").render(),
            ]);
        }
        t.print();
    }
    let degraded = tree.get("degraded_ranges").items();
    if !degraded.is_empty() {
        println!("{} degraded range(s): {}", degraded.len(), Json::arr(degraded.to_vec()).render());
    }
    if let cache @ Json::Obj(_) = tree.get("cache") {
        let (h, m) = (number(cache.get("hits")), number(cache.get("misses")));
        let rate = if h + m > 0.0 { 100.0 * h / (h + m) } else { 0.0 };
        println!(
            "cache: {h} hits / {m} misses ({}% hit rate), {} evictions",
            fmt_f(rate, 1),
            number(cache.get("evictions")),
        );
    }
}

fn print_scheduler(sched: &Json) {
    println!("\n=== scheduler ===");
    if let Some(backend) = sched.get("backend").as_str() {
        println!("backend: {backend}");
    } else {
        let joined = |key: &str| {
            let shards = sched.get(key).items();
            if shards.is_empty() {
                "-".to_string()
            } else {
                shards.iter().map(|s| number(s).to_string()).collect::<Vec<_>>().join(", ")
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
            number(sched.get("max_imm_memtables")),
            number(sched.get("workers")),
            sched.get("shutdown") == &Json::Bool(true),
        );
        if let Some(err) = sched.get("pending_err").as_str() {
            println!("pending background error: {err}");
        }
        if let Some(steps) = sched.get("sim_steps").as_u64() {
            println!("simulated executor: {steps} maintenance steps taken");
        }
    }
    let rendezvous = sched.get("rendezvous").items();
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
                number(r.get("shard")).to_string(),
                number(r.get("synced_seq")).to_string(),
                (r.get("leader_running") == &Json::Bool(true)).to_string(),
                (r.get("poisoned") == &Json::Bool(true)).to_string(),
                number(r.get("wal_appended")).to_string(),
                number(r.get("wal_synced")).to_string(),
            ]);
        }
        t.print();
    }
}

fn print_wear(wear: &Json) {
    println!("\n=== device wear ===");
    println!(
        "{} blocks, {} touched | {} programs total, max {} on one block",
        number(wear.get("blocks")),
        number(wear.get("blocks_touched")),
        number(wear.get("total_programs")),
        number(wear.get("max_wear")),
    );
    let cells = wear.get("heatmap").items();
    if !cells.is_empty() {
        let wear_of = |cell: &Json| cell.get("max").as_u64().unwrap_or(0);
        let peak = cells.iter().map(wear_of).max().unwrap_or(0).max(1);
        let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        let row: String = cells
            .iter()
            .map(|c| glyphs[(wear_of(c) * (glyphs.len() as u64 - 1) / peak) as usize])
            .collect();
        println!("heatmap (max wear per {}-block cell): [{row}]", number(cells[0].get("blocks")));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse_from(argv.iter().filter(|a| a.starts_with("--")).cloned());
    let positional = argv.iter().find(|a| !a.starts_with("--")).map(String::as_str);
    let Some(path) = positional.or(args.get("bundle")) else {
        eprintln!("usage: lsm_postmortem <bundle.json> [--events=12]");
        std::process::exit(1);
    };
    let tail: usize = args.get_or("events", 12);
    args.done();

    let raw = match std::fs::read_to_string(path) {
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
    println!("schema {}", doc.get("schema").as_str().unwrap_or("?"));
    println!("reason: {}", doc.get("reason").as_str().unwrap_or("?"));
    if let Some(seed) = doc.get("seed").as_u64() {
        println!("seed: {seed}");
    }
    if let Some(error) = doc.get("error").as_str() {
        println!("error: {error}");
    }
    if let Some(repro) = doc.get("repro").as_str() {
        println!("reproduce: {repro}");
    }

    let present = |key: &str| Some(doc.get(key)).filter(|section| *section != &Json::Null);
    if let Some(flight) = present("flight") {
        print_flight(flight, tail);
    }
    if let Some(ledger) = present("ledger") {
        print!("{}", render_ledger(ledger));
    }
    if let Some(tree) = present("tree") {
        print_tree(tree);
    }
    if let Some(sched) = present("scheduler") {
        print_scheduler(sched);
    }
    if let Some(wear) = present("wear") {
        print_wear(wear);
    }
    if let Some(health) = present("health") {
        print!("{}", render_health(health));
    }
    if let Some(tail_report) = present("tail") {
        print!("{}", render_tail(tail_report));
    }
    if let Some(io) = present("device_io") {
        println!(
            "\ndevice I/O at dump: {} writes, {} reads, {} trims, {} syncs",
            number(io.get("writes")),
            number(io.get("reads")),
            number(io.get("trims")),
            number(io.get("syncs")),
        );
    }
}
