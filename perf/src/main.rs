//! `lsm_perf` — the repository's benchmark.
//!
//! ```text
//! lsm_perf --workload <ingest|read|mixed|durable> --seed N --seconds S --trace 0|1
//! lsm_perf --all   [--seed N] [--seconds S] [--out PATH] [--trace-out PATH]
//! lsm_perf --aa    [--seed N] [--seconds S]
//! lsm_perf --layers
//! lsm_perf --smoke
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, untraced
//! (end-to-end metrics) or traced (per-layer metrics), with the result as
//! one JSON object on the last line of standard output. `--all` runs the
//! four workloads untraced, then the layer replay and a traced pass.
//! See `perf/README.md`.

mod calib;
mod env;
mod gen;
mod layers;
mod recon;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use env::{Size, Sizing};
use report::Section;
use stats::Metric;
use trace::Tracer;
use workload::{Kind, Measured, Run};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    aa: bool,
    smoke: bool,
    layers: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    data_dir: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { seed: 1, seconds: 10, ..Args::default() };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            inline.clone().or_else(|| argv.next()).ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| -> Result<u64, String> {
            v.parse::<u64>().map_err(|_| format!("{name}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => args.trace = number("--trace", value("--trace")?)? != 0,
            "--out" => args.out = Some(value("--out")?.into()),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?.into()),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?.into()),
            "--all" => args.all = true,
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--layers" => args.layers = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    if args.smoke && args.out.is_some() {
        return Err("--smoke refuses --out: a smoke run may not overwrite results".into());
    }
    Ok(args)
}

struct Session {
    seed: u64,
    sizing: Sizing,
    data_root: PathBuf,
    /// Prefix of every printed line (`smoke ` in smoke mode).
    label: &'static str,
}

impl Session {
    fn new(args: &Args) -> Self {
        let size = if args.smoke { Size::Smoke } else { Size::Gate };
        Session {
            seed: args.seed,
            sizing: Sizing::new(size, args.seconds),
            data_root: args.data_dir.clone().unwrap_or_else(env::default_data_root),
            label: if size == Size::Smoke { "smoke " } else { "" },
        }
    }

    fn measure(
        &self,
        kind: Kind,
        sizing: Sizing,
        tracer: Option<&mut Tracer>,
    ) -> Result<Measured, String> {
        Run {
            kind,
            seed: self.seed,
            sizing,
            data_root: &self.data_root,
            tracer,
            calib: calib::Calibration::new(),
        }
        .execute()
        .map_err(|e| format!("{}: {e}", kind.name()))
    }

    fn report_failures(&self, m: &Measured) {
        for f in &m.tally.first_failures {
            eprintln!("{}FAILED {}: {f}", self.label, m.kind.name());
        }
    }

    /// Untraced run: the end-to-end metrics.
    fn untraced(&self, kind: Kind) -> Result<Section, String> {
        let m = self.measure(kind, self.sizing, None)?;
        self.report_failures(&m);
        let end_to_end = report::end_to_end(&m);
        let title = format!(
            "{} end to end (request = {}, lat_tail = p{}, data on {})",
            kind.name(),
            kind.request_name(),
            report::tail_percentile(&m),
            m.data_fs
        );
        report::print_table(&title, self.label, &end_to_end);
        let rounds: Vec<_> = m.rounds.iter().collect();
        report::print_table(
            &format!(
                "{} as the clock read it (the timings above are at machine.speed = 1)",
                kind.name()
            ),
            self.label,
            &report::as_measured(&m, &rounds),
        );
        Ok(Section {
            kind,
            end_to_end,
            per_layer: Vec::new(),
            attempted: m.tally.attempted,
            failed: m.tally.failed,
            data_fs: m.data_fs,
        })
    }

    /// Traced run: counters, the layer replay, the reconciliation.
    fn traced(
        &self,
        kind: Kind,
        replay: &[Metric],
        trace_out: Option<&PathBuf>,
    ) -> Result<Section, String> {
        let cpu0 = env::cpu_seconds();
        let mut tracer = Tracer::new();
        // The traced pass sets up once: `setup_s` is an untraced metric.
        let sizing = Sizing { setup_reps: [1; 4], ..self.sizing };
        let m = self.measure(kind, sizing, Some(&mut tracer))?;
        self.report_failures(&m);
        let mut per_layer = report::per_layer_counters(&m);
        per_layer.extend(replay.iter().cloned());
        let recon = recon::reconcile(&m, replay);
        recon.print(self.label);
        per_layer.extend(recon.metrics());
        per_layer.extend(report::process_metrics(env::cpu_seconds() - cpu0, tracer.len()));
        report::print_table(&format!("{} per layer", kind.name()), self.label, &per_layer);
        println!("{}{} span self times", self.label, kind.name());
        for (name, spans, total, own) in tracer.self_times() {
            println!(
                "{}  {:<10} spans={:<9} total={:>10.3} ms self={:>10.3} ms",
                self.label,
                name,
                spans,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        if let Some(path) = trace_out {
            let path = path.with_extension(format!("{}.json", kind.name()));
            tracer.write_chrome_trace(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("{}wrote {} spans to {}", self.label, tracer.len(), path.display());
        }
        Ok(Section {
            kind,
            end_to_end: Vec::new(),
            per_layer,
            attempted: m.tally.attempted,
            failed: m.tally.failed,
            data_fs: m.data_fs,
        })
    }

    fn replay(&self) -> Result<Vec<Metric>, String> {
        let scratch = env::Scratch::new(&self.data_root, "layers").map_err(|e| e.to_string())?;
        layers::replay(&self.sizing, self.seed, scratch.path())
    }

    /// The whole suite: untraced workloads, layer replay, traced pass.
    fn suite(&self, trace_out: Option<&PathBuf>) -> Result<Vec<Section>, String> {
        let mut sections = Vec::new();
        for kind in Kind::ALL {
            sections.push(self.untraced(kind)?);
        }
        let replay = self.replay()?;
        report::print_table("layer replay", self.label, &replay);
        for (kind, section) in Kind::ALL.into_iter().zip(sections.iter_mut()) {
            let traced = self.traced(kind, &replay, trace_out)?;
            section.per_layer = traced.per_layer;
            section.attempted += traced.attempted;
            section.failed += traced.failed;
        }
        Ok(sections)
    }
}

fn failed_total(sections: &[Section]) -> u64 {
    sections.iter().map(|s| s.failed).sum()
}

/// `--aa`: the suite's untraced workloads twice in alternation; every
/// gated metric's relative difference against its bound.
fn aa(session: &Session) -> Result<u64, String> {
    let mut runs: [Vec<Section>; 2] = [Vec::new(), Vec::new()];
    for kind in Kind::ALL {
        for side in &mut runs {
            side.push(session.untraced(kind)?);
        }
    }
    println!("{}A/A: same code twice, relative difference against the bound", session.label);
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = report::bound_of(&ma.name);
            let diff =
                if ma.value == 0.0 { 0.0 } else { (mb.value - ma.value).abs() / ma.value.abs() };
            let verdict = if ma.spread.max(mb.spread) > bound {
                "unresolved"
            } else if diff > bound {
                "EXCEEDS"
            } else {
                "ok"
            };
            println!(
                "{}  {:<8} {:<20} a={:>12.4} b={:>12.4} diff={:>6.2}% spread={:>5.2}%/{:>5.2}% bound={:>4.1}% {}",
                session.label,
                a.kind.name(),
                ma.name,
                ma.value,
                mb.value,
                diff * 100.0,
                ma.spread * 100.0,
                mb.spread * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    Ok(failed_total(&runs[0]) + failed_total(&runs[1]))
}

fn run(args: Args) -> Result<ExitCode, String> {
    let session = Session::new(&args);
    println!(
        "{}lsm_perf seed={} size={:?} seconds={} nproc={} data-root={}",
        session.label,
        args.seed,
        session.sizing.size,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        session.data_root.display()
    );

    if let Some(name) = &args.workload {
        let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        let section = if args.trace {
            let replay = session.replay()?;
            session.traced(kind, &replay, args.trace_out.as_ref())?
        } else {
            session.untraced(kind)?
        };
        let metrics = if args.trace { &section.per_layer } else { &section.end_to_end };
        let correct = section.failed == 0;
        println!("{}", report::result_line(correct, section.attempted, section.failed, metrics));
        return Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) });
    }

    let failed = if args.aa {
        aa(&session)?
    } else if args.layers {
        let replay = session.replay()?;
        report::print_table("layer replay", session.label, &replay);
        0
    } else if args.all || args.smoke {
        let sections = session.suite(args.trace_out.as_ref())?;
        if let Some(path) = &args.out {
            let size = format!("{:?}", session.sizing.size);
            let text = report::suite_json(args.seed, &size, &sections);
            report::write_atomic(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
        }
        let attempted: u64 = sections.iter().map(|s| s.attempted).sum();
        let failed = failed_total(&sections);
        println!(
            "{}fail_frac = {} / {} = {}",
            session.label,
            failed,
            attempted,
            failed as f64 / attempted.max(1) as f64
        );
        failed
    } else {
        return Err("nothing to do: pass --workload, --all, --aa, --layers or --smoke".into());
    };
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lsm_perf: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lsm_perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_arguments_parse_in_both_spellings() {
        let a = parse("--workload read --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("read"), 7, 12, true)
        );
        let b = parse("--all --seed=9 --out=x.json").unwrap();
        assert!(b.all && b.seed == 9 && b.out == Some("x.json".into()));
    }

    #[test]
    fn smoke_refuses_out_and_bad_input_is_rejected() {
        assert!(parse("--smoke --out=results.json").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--bogus").is_err());
    }

    /// The `"name"` values of one flat array of objects in `BENCHMARK.json`.
    fn names_in(doc: &str, key: &str) -> Vec<String> {
        let start = doc
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    /// The smoke run: every workload, every check, the layer replay and the
    /// traced pass, at sizes that only prove the paths work — and every
    /// workload reports exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_suite_runs_clean() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repository root");
        let (listed_e2e, listed_layers) =
            (names_in(&doc, "end_to_end"), names_in(&doc, "per_layer"));
        assert_eq!(names_in(&doc, "workloads"), Kind::ALL.map(|k| k.name().to_string()));

        let args = parse("--smoke --seed 3").unwrap();
        let mut session = Session::new(&args);
        session.data_root = env::default_data_root().join("test-smoke");
        let sections = session.suite(None).unwrap();
        assert_eq!(sections.len(), 4);
        for s in &sections {
            assert_eq!(s.failed, 0, "{} failed checks", s.kind.name());
            assert!(s.attempted > 0);
            let names: Vec<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, report::END_TO_END);
            assert_eq!(names, listed_e2e);
            let layers: Vec<&str> = s.per_layer.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(layers, listed_layers, "{} per-layer names", s.kind.name());
            for m in &s.end_to_end {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {} = {}",
                    s.kind.name(),
                    m.name,
                    m.value
                );
            }
            assert!(s.per_layer.len() >= 60, "{} per-layer metrics", s.per_layer.len());
        }
        std::fs::remove_dir_all(&session.data_root).ok();
    }
}
