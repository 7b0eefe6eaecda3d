//! Shared observability pipeline for the bench binaries.
//!
//! Every binary that exports traces or metrics parses the same flags:
//!
//! - `--trace-out=PATH` — Chrome `trace_event` JSON (load in Perfetto or
//!   `chrome://tracing`); spans carry their attributed device I/O.
//! - `--prom-out=PATH` — Prometheus text exposition of the metrics
//!   registry, including `span.*_us` duration histograms.
//! - `--tick-clock` — deterministic tick timestamps (each clock reading is
//!   the next integer) instead of wall-clock microseconds, for
//!   byte-reproducible traces.
//!
//! Three reports come from one windowed engine ([`HealthSink`]) attached
//! to the same stream, which is attached when any of them is asked for and
//! keeps the tail reservoir and the series only when they are:
//!
//! - `--health-out=PATH` — the windowed health report (`lsm-health/v1`
//!   JSON), validated before it is written. `--health` attaches the engine
//!   without writing a file (for binaries that render the report
//!   themselves).
//! - `--tail-out=PATH` — the tail-anatomy blame report (`lsm-tail/v1`
//!   JSON), validated before it is written; `--tail` as `--health`.
//! - `--series-out=PATH` — the amplification series, one row per window;
//!   `.json` extension selects JSON, anything else CSV.
//! - `--health-window-ops=N` / `--health-windows=K` — device ops per
//!   window and rolling ring depth (defaults 2000 / 8), for all three;
//!   `--tail-per-shard=K` — exemplars kept per shard (default 4).
//!
//! [`ObsPipeline::from_args`] attaches every requested consumer to one
//! [`SinkHandle`] stamping from one clock, and [`ObsPipeline::finish`]
//! writes every exporter to disk.

use std::path::PathBuf;
use std::sync::Arc;

use observe::{
    series_csv, series_json, validate_health, validate_tail, ChromeTraceSink, Clock, EventSink,
    HealthConfig, HealthSink, Json, Metrics, MetricsSink, SeriesRow, SinkHandle, TickClock,
    WallClock,
};

use crate::Args;

/// One of the windowed engine's reports: not asked for (`None`), shown by
/// the binary (`Some(None)`), or written to a file.
type Report = Option<Option<PathBuf>>;

/// The assembled exporter stack. Inactive (all no-ops) when none of the
/// observability flags were given.
pub struct ObsPipeline {
    handle: SinkHandle,
    chrome: Option<(Arc<ChromeTraceSink>, PathBuf)>,
    /// The Prometheus registry and the file its text form goes to, with
    /// `global_labels` stamped onto every sample.
    prom: Option<(Metrics, PathBuf)>,
    global_labels: Vec<(String, String)>,
    /// The windowed engine, when any of its reports was asked for.
    engine: Option<Arc<HealthSink>>,
    health: Report,
    tail: Report,
    series: Option<PathBuf>,
    /// Records per block: the unit of the series' write amplification.
    block_capacity: u64,
}

impl ObsPipeline {
    /// Build the pipeline the flags ask for. `block_capacity` is records
    /// per block (the series states write amplification in blocks);
    /// `global_labels` are stamped onto every Prometheus sample (e.g.
    /// `[("policy", "choosebest")]`).
    pub fn from_args(
        args: &Args,
        block_capacity: u64,
        global_labels: &[(&str, &str)],
    ) -> std::io::Result<ObsPipeline> {
        // Every flag is read whether or not its exporter is on, so that
        // `Args::done` complains about typos only.
        let path = |key: &str| args.get(key).map(PathBuf::from);
        let report = |key: &str| {
            let (shown, out) = (args.flag(key), path(&format!("{key}-out")));
            (shown || out.is_some()).then_some(out)
        };
        let defaults = HealthConfig::default();
        let config = HealthConfig {
            window_ops: args.get_or("health-window-ops", defaults.window_ops),
            windows: args.get_or("health-windows", defaults.windows),
            exemplars_per_shard: args.get_or("tail-per-shard", defaults.exemplars_per_shard),
            ..defaults
        };
        let (health, tail, series) = (report("health"), report("tail"), path("series-out"));
        let engine = (health.is_some() || tail.is_some() || series.is_some()).then(|| {
            let mut engine = HealthSink::new(config);
            if tail.is_some() {
                engine = engine.with_tail();
            }
            if series.is_some() {
                engine = engine.with_series();
            }
            Arc::new(engine)
        });

        let global_labels =
            global_labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let prom = path("prom-out").map(|p| (Metrics::new(), p));
        let chrome = match path("trace-out") {
            Some(p) => Some((Arc::new(ChromeTraceSink::to_file(&p)?), p)),
            None => None,
        };

        // One handle, one clock: every consumer sees the same stamped
        // stream — spans included — whichever subset was asked for.
        let consumers: Vec<Arc<dyn EventSink>> = [
            chrome.as_ref().map(|(c, _)| Arc::clone(c) as _),
            engine.as_ref().map(|e| Arc::clone(e) as _),
            prom.as_ref().map(|(m, _)| Arc::new(MetricsSink::into_registry(m.clone())) as _),
        ]
        .into_iter()
        .flatten()
        .collect();
        let clock: Arc<dyn Clock> = if args.flag("tick-clock") {
            Arc::new(TickClock::new())
        } else {
            Arc::new(WallClock::new())
        };
        let handle = if consumers.is_empty() {
            SinkHandle::none()
        } else {
            let handle = consumers.into_iter().fold(SinkHandle::with_clock(clock), |h, c| h.and(c));
            // Span durations land in the Prometheus registry too.
            match &prom {
                Some((metrics, _)) => handle.time_spans_into(metrics.clone()),
                None => handle,
            }
        };
        Ok(ObsPipeline {
            handle,
            chrome,
            prom,
            global_labels,
            engine,
            health,
            tail,
            series,
            block_capacity,
        })
    }

    /// The sink to install into the tree (via
    /// [`TreeOptions`](lsm_tree::TreeOptions) or `set_sink`); disabled when
    /// no exporter was requested.
    pub fn sink(&self) -> SinkHandle {
        self.handle.clone()
    }

    /// The amplification series (`--series-out`), when it was asked for,
    /// and the records per block its write amplification is stated in.
    pub fn series(&self) -> Option<(Vec<SeriesRow>, u64)> {
        Some((self.engine.as_ref()?.series()?, self.block_capacity))
    }

    /// The windowed engine, when its health report (`--health-out` or
    /// `--health`) was asked for. It feeds itself entirely from the span
    /// stream.
    pub fn health(&self) -> Option<&Arc<HealthSink>> {
        self.engine.as_ref().filter(|_| self.health.is_some())
    }

    /// The windowed engine, when its tail report (`--tail-out` or
    /// `--tail`) was asked for.
    pub fn tail(&self) -> Option<&Arc<HealthSink>> {
        self.engine.as_ref().filter(|_| self.tail.is_some())
    }

    /// Flush every exporter to disk and return the files written.
    pub fn finish(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if let Some(engine) = &self.engine {
            // The engine's gauges go into the registry before the
            // Prometheus text is rendered, so every windowed series appears
            // in the exposition.
            if let Some((metrics, _)) = &self.prom {
                engine.export_gauges(metrics);
            }
            // Each report to a file: its name, where it goes, how it is
            // rendered and how it is validated.
            type Written<'a> =
                (&'a str, &'a Report, fn(&HealthSink) -> Option<Json>, fn(&Json) -> Vec<String>);
            let reports: [Written; 2] = [
                ("health", &self.health, |engine| Some(engine.report()), validate_health),
                ("tail", &self.tail, HealthSink::tail_report, validate_tail),
            ];
            for (name, report, render, validate) in reports {
                let Some(Some(path)) = report else { continue };
                let Some(doc) = render(engine) else { continue };
                let problems = validate(&doc);
                if !problems.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{name} report failed validation: {}", problems.join("; ")),
                    ));
                }
                std::fs::write(path, doc.render() + "\n")?;
                written.push(path.clone());
            }
            if let (Some(path), Some(rows)) = (&self.series, engine.series()) {
                let (json, capacity) =
                    (path.extension().is_some_and(|e| e == "json"), self.block_capacity);
                let text = if json {
                    series_json(&rows, capacity).render_pretty()
                } else {
                    series_csv(&rows, capacity)
                };
                std::fs::write(path, text)?;
                written.push(path.clone());
            }
        }
        if let Some((chrome, path)) = &self.chrome {
            chrome.finish();
            written.push(path.clone());
        }
        if let Some((metrics, path)) = &self.prom {
            let labels: Vec<(&str, &str)> =
                self.global_labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            std::fs::write(path, metrics.render_prometheus(&labels))?;
            written.push(path.clone());
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_without_flags() {
        let args = Args::parse_from(Vec::new());
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        assert!(!p.sink().is_enabled());
        assert!(p.finish().unwrap().is_empty());
    }

    #[test]
    fn full_stack_exports_all_three_files() {
        let dir = std::env::temp_dir().join("lsm_bench_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace.json");
        let prom = dir.join("m.prom");
        let series = dir.join("s.csv");
        let args = Args::parse_from(vec![
            format!("--trace-out={}", trace.display()),
            format!("--prom-out={}", prom.display()),
            format!("--series-out={}", series.display()),
            "--health-window-ops=1".into(),
            "--tick-clock".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[("policy", "test")]).unwrap();
        assert!(p.sink().is_enabled());
        {
            let sink = p.sink();
            let _span = sink.span(observe::SpanOp::merge(1, true));
            sink.emit(observe::Event::DeviceWrite { block: 0 });
        }
        let written = p.finish().unwrap();
        assert_eq!(written.len(), 3);
        let trace_doc = std::fs::read_to_string(&trace).unwrap();
        observe::Json::parse(&trace_doc).expect("trace is valid JSON");
        let prom_doc = std::fs::read_to_string(&prom).unwrap();
        observe::metrics::validate_prometheus(&prom_doc).expect("prometheus text is valid");
        assert!(prom_doc.contains("policy=\"test\""));
        let series_doc = std::fs::read_to_string(&series).unwrap();
        assert!(series_doc.starts_with("op,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_out_writes_a_validated_report_and_gauges() {
        let dir = std::env::temp_dir().join("lsm_bench_obs_health_test");
        std::fs::create_dir_all(&dir).unwrap();
        let health_path = dir.join("h.json");
        let prom = dir.join("m.prom");
        let args = Args::parse_from(vec![
            format!("--health-out={}", health_path.display()),
            format!("--prom-out={}", prom.display()),
            "--health-window-ops=4".into(),
            "--health-windows=2".into(),
            "--tick-clock".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        let health = Arc::clone(p.health().expect("health sink attached"));
        let sink = p.sink();
        for block in 0..20u64 {
            let _put = sink.span(observe::SpanOp::put());
            sink.emit(observe::Event::DeviceWrite { block });
        }
        assert!(health.windows_completed() >= 4, "windows must rotate at the configured pace");
        let written = p.finish().unwrap();
        assert!(written.contains(&health_path));
        let doc = observe::Json::parse(&std::fs::read_to_string(&health_path).unwrap())
            .expect("health report parses");
        assert!(observe::validate_health(&doc).is_empty());
        let prom_doc = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_doc.contains("lsm_health_windows_completed"), "health gauges exported");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_out_writes_a_validated_report_and_gauges() {
        let dir = std::env::temp_dir().join("lsm_bench_obs_tail_test");
        std::fs::create_dir_all(&dir).unwrap();
        let tail_path = dir.join("tail.json");
        let prom = dir.join("m.prom");
        let args = Args::parse_from(vec![
            format!("--tail-out={}", tail_path.display()),
            format!("--prom-out={}", prom.display()),
            "--tail-per-shard=2".into(),
            "--health-window-ops=4".into(),
            "--tick-clock".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        let engine = Arc::clone(p.tail().expect("tail engine attached"));
        assert!(p.health().is_none() && p.series().is_none(), "only the tail was asked for");
        assert!(engine.series().is_none(), "an engine not asked for the series keeps none");
        let sink = p.sink();
        for i in 0..10u64 {
            let put = sink.span(observe::SpanOp::put().with_shard(0));
            let stall = sink.span(observe::SpanOp::backpressure_wait().with_shard(0));
            for block in 0..i {
                sink.emit(observe::Event::DeviceWrite { block });
            }
            drop(stall);
            drop(put);
        }
        let report = engine.tail_report().expect("the tail was asked for");
        assert_eq!(report.get("completed").get("put").as_u64(), Some(10));
        assert!(engine.windows_completed() >= 2, "windows rotate every 4 device ops");
        assert_eq!(report.get("dominant_phase").as_str(), Some("backpressure_wait"));
        let written = p.finish().unwrap();
        assert!(written.contains(&tail_path));
        let doc = observe::Json::parse(&std::fs::read_to_string(&tail_path).unwrap())
            .expect("tail report parses");
        assert!(observe::validate_tail(&doc).is_empty());
        let prom_doc = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_doc.contains("lsm_tail_exemplars"), "tail gauges exported");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_engine_serves_all_three_reports() {
        let dir = std::env::temp_dir().join("lsm_bench_obs_engine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let series = dir.join("s.json");
        let args = Args::parse_from(vec![
            "--health".into(),
            "--tail".into(),
            format!("--series-out={}", series.display()),
            "--health-window-ops=2".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        let engine = Arc::clone(p.health().expect("health asked for"));
        assert!(Arc::ptr_eq(&engine, p.tail().unwrap()));
        for block in 0..5u64 {
            p.sink().emit(observe::Event::DeviceWrite { block });
        }
        p.sink().emit(observe::Event::MemtableFlush { records: 64, full: true });
        let (rows, capacity) = p.series().expect("the series was asked for");
        assert_eq!((rows.len(), capacity), (3, 32));
        // 5 blocks written for 64 records, two blocks of 32.
        assert_eq!(rows[2].write_amp(capacity), 2.5);
        assert!(engine.tail_report().is_some());
        assert_eq!(p.finish().unwrap(), vec![series.clone()], "only the series goes to a file");
        let rows = observe::Json::parse(&std::fs::read_to_string(&series).unwrap()).unwrap();
        assert_eq!(rows.items().len(), 3, "a row at each of two windows, and the last counters");
        std::fs::remove_dir_all(&dir).ok();
    }
}
