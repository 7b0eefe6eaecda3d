//! Shared observability pipeline for the bench binaries.
//!
//! Every binary that exports traces or metrics parses the same flags:
//!
//! - `--trace-out=PATH` — Chrome `trace_event` JSON (load in Perfetto or
//!   `chrome://tracing`); spans carry their attributed device I/O.
//! - `--prom-out=PATH` — Prometheus text exposition of the metrics
//!   registry, including `span.*_us` duration histograms.
//! - `--series-out=PATH` — amplification time series; `.json` extension
//!   selects JSON, anything else CSV.
//! - `--series-every=N` — device ops between samples (default 1000).
//! - `--tick-clock` — deterministic tick timestamps (each clock reading is
//!   the next integer) instead of wall-clock microseconds, for
//!   byte-reproducible traces.
//! - `--health-out=PATH` — windowed health report (`lsm-health/v1` JSON)
//!   from a [`HealthSink`] attached to the same stream; validated before
//!   it is written. `--health` attaches the sink without writing a file
//!   (for binaries that render the report themselves).
//! - `--health-window-ops=N` / `--health-windows=K` — device ops per
//!   health window and rolling ring depth (defaults 2000 / 8).
//! - `--tail-out=PATH` — tail-anatomy blame report (`lsm-tail/v1` JSON)
//!   from an [`ExemplarSink`] watching the same span stream; validated
//!   before it is written. `--tail` attaches the sink without writing a
//!   file (for binaries that render the blame table themselves).
//! - `--tail-per-shard=K` / `--tail-window-puts=N` / `--tail-windows=W` —
//!   exemplars kept per shard, puts per capture window, and rolling ring
//!   depth (defaults 4 / 512 / 8).
//!
//! [`ObsPipeline::from_args`] attaches every requested consumer to one
//! [`SinkHandle`] stamping from one clock, and [`ObsPipeline::finish`]
//! writes every exporter to disk.

use std::path::PathBuf;
use std::sync::Arc;

use observe::{
    ChromeTraceSink, Clock, EventSink, ExemplarConfig, ExemplarSink, HealthConfig, HealthSink,
    Metrics, SinkHandle, TextExpositionSink, TickClock, TimeseriesSink, WallClock,
};

use crate::Args;

/// The assembled exporter stack. Inactive (all no-ops) when none of the
/// observability flags were given.
pub struct ObsPipeline {
    handle: SinkHandle,
    chrome: Option<Arc<ChromeTraceSink>>,
    text: Option<Arc<TextExpositionSink>>,
    series: Option<Arc<TimeseriesSink>>,
    health: Option<Arc<HealthSink>>,
    tail: Option<Arc<ExemplarSink>>,
    trace_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
    series_path: Option<PathBuf>,
    health_path: Option<PathBuf>,
    tail_path: Option<PathBuf>,
}

impl ObsPipeline {
    /// Build the pipeline the flags ask for. `block_capacity` is records
    /// per block (the time series expresses write amplification in
    /// blocks); `global_labels` are stamped onto every Prometheus sample
    /// (e.g. `[("policy", "choose_best")]`).
    pub fn from_args(
        args: &Args,
        block_capacity: u64,
        global_labels: &[(&str, &str)],
    ) -> std::io::Result<ObsPipeline> {
        let trace_path = args.get("trace-out").map(PathBuf::from);
        let prom_path = args.get("prom-out").map(PathBuf::from);
        let series_path = args.get("series-out").map(PathBuf::from);
        let series_every: u64 = args.get_or("series-every", 1_000);
        let health_path = args.get("health-out").map(PathBuf::from);

        let health = (health_path.is_some() || args.flag("health")).then(|| {
            let defaults = HealthConfig::default();
            Arc::new(HealthSink::new(HealthConfig {
                window_ops: args.get_or("health-window-ops", defaults.window_ops),
                windows: args.get_or("health-windows", defaults.windows as u64) as usize,
                ..defaults
            }))
        });

        let tail_path = args.get("tail-out").map(PathBuf::from);
        let tail = (tail_path.is_some() || args.flag("tail")).then(|| {
            let defaults = ExemplarConfig::default();
            Arc::new(ExemplarSink::new(ExemplarConfig {
                per_shard: args.get_or("tail-per-shard", defaults.per_shard as u64) as usize,
                window_puts: args.get_or("tail-window-puts", defaults.window_puts),
                windows: args.get_or("tail-windows", defaults.windows as u64) as usize,
                ..defaults
            }))
        });

        let text =
            prom_path.as_ref().map(|p| Arc::new(TextExpositionSink::new(p.clone(), global_labels)));
        let series = series_path
            .as_ref()
            .map(|_| Arc::new(TimeseriesSink::new(series_every, block_capacity)));
        let chrome = match &trace_path {
            Some(p) => Some(Arc::new(ChromeTraceSink::to_file(p)?)),
            None => None,
        };

        // One handle, one clock: every consumer sees the same stamped
        // stream — spans included — whichever subset was asked for.
        let consumers: Vec<Arc<dyn EventSink>> = [
            chrome.clone().map(|c| c as _),
            health.clone().map(|h| h as _),
            tail.clone().map(|x| x as _),
            text.clone().map(|t| t as _),
            series.clone().map(|s| s as _),
        ]
        .into_iter()
        .flatten()
        .collect();
        let handle = if consumers.is_empty() {
            SinkHandle::none()
        } else {
            let clock: Arc<dyn Clock> = if args.flag("tick-clock") {
                Arc::new(TickClock::new())
            } else {
                Arc::new(WallClock::new())
            };
            let handle = consumers.into_iter().fold(SinkHandle::with_clock(clock), |h, c| h.and(c));
            // Span durations land in the Prometheus registry too.
            match &text {
                Some(t) => handle.time_spans_into(t.metrics()),
                None => handle,
            }
        };

        Ok(ObsPipeline {
            handle,
            chrome,
            text,
            series,
            health,
            tail,
            trace_path,
            prom_path,
            series_path,
            health_path,
            tail_path,
        })
    }

    /// Whether any exporter was requested.
    pub fn active(&self) -> bool {
        self.handle.is_enabled()
    }

    /// The sink to install into the tree (via
    /// [`TreeOptions`](lsm_tree::TreeOptions) or `set_sink`).
    pub fn sink(&self) -> SinkHandle {
        self.handle.clone()
    }

    /// The Prometheus registry, when `--prom-out` was given.
    pub fn metrics(&self) -> Option<Metrics> {
        self.text.as_ref().map(|t| t.metrics())
    }

    /// The amplification time series, when `--series-out` was given.
    pub fn series(&self) -> Option<&TimeseriesSink> {
        self.series.as_deref()
    }

    /// The windowed health engine, when `--health-out` or `--health` was
    /// given. Drivers feed put latencies into it directly
    /// ([`HealthSink::record_put`]) — the one request-level observation
    /// the event stream does not carry (gets arrive as `Lookup` span
    /// durations through the sink itself).
    pub fn health(&self) -> Option<&Arc<HealthSink>> {
        self.health.as_ref()
    }

    /// The tail-anatomy engine, when `--tail-out` or `--tail` was given.
    /// It feeds itself entirely from the span stream — `Put` spans opened
    /// by the tree front-ends carry everything it needs.
    pub fn tail(&self) -> Option<&Arc<ExemplarSink>> {
        self.tail.as_ref()
    }

    /// Flush every exporter to disk and return the files written.
    pub fn finish(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        // Health gauges go into the registry before the Prometheus text
        // is rendered, so every windowed series appears in the exposition.
        if let (Some(health), Some(text)) = (&self.health, &self.text) {
            health.export_gauges(&text.metrics());
        }
        if let (Some(health), Some(path)) = (&self.health, &self.health_path) {
            let doc = health.report();
            let problems = observe::validate_health(&doc);
            if !problems.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("health report failed validation: {}", problems.join("; ")),
                ));
            }
            std::fs::write(path, doc.render() + "\n")?;
            written.push(path.clone());
        }
        if let (Some(tail), Some(text)) = (&self.tail, &self.text) {
            tail.export_gauges(&text.metrics());
        }
        if let (Some(tail), Some(path)) = (&self.tail, &self.tail_path) {
            let doc = tail.report();
            let problems = observe::validate_tail(&doc);
            if !problems.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("tail report failed validation: {}", problems.join("; ")),
                ));
            }
            std::fs::write(path, doc.render() + "\n")?;
            written.push(path.clone());
        }
        if let (Some(chrome), Some(path)) = (&self.chrome, &self.trace_path) {
            chrome.finish();
            written.push(path.clone());
        }
        if let (Some(text), Some(path)) = (&self.text, &self.prom_path) {
            text.write()?;
            written.push(path.clone());
        }
        if let (Some(series), Some(path)) = (&self.series, &self.series_path) {
            if path.extension().is_some_and(|e| e == "json") {
                series.write_json(path)?;
            } else {
                series.write_csv(path)?;
            }
            written.push(path.clone());
        }
        Ok(written)
    }
}

impl std::fmt::Debug for ObsPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsPipeline")
            .field("trace", &self.trace_path)
            .field("prom", &self.prom_path)
            .field("series", &self.series_path)
            .field("health", &self.health_path)
            .field("tail", &self.tail_path)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_without_flags() {
        let args = Args::parse_from(Vec::new());
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        assert!(!p.active());
        assert!(p.metrics().is_none());
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
            "--series-every=1".into(),
            "--tick-clock".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[("policy", "test")]).unwrap();
        assert!(p.active());
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
            sink.emit(observe::Event::DeviceWrite { block });
            health.record_put(None, 100);
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
            "--tail-window-puts=4".into(),
            "--tick-clock".into(),
        ]);
        let p = ObsPipeline::from_args(&args, 32, &[]).unwrap();
        let tail = Arc::clone(p.tail().expect("tail sink attached"));
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
        assert_eq!(tail.completed_puts(), 10);
        assert!(tail.windows_completed() >= 2, "windows rotate every 4 puts");
        assert_eq!(tail.dominant_phase(), Some("backpressure_wait"));
        let written = p.finish().unwrap();
        assert!(written.contains(&tail_path));
        let doc = observe::Json::parse(&std::fs::read_to_string(&tail_path).unwrap())
            .expect("tail report parses");
        assert!(observe::validate_tail(&doc).is_empty());
        let prom_doc = std::fs::read_to_string(&prom).unwrap();
        assert!(prom_doc.contains("lsm_tail_windows_completed"), "tail gauges exported");
        std::fs::remove_dir_all(&dir).ok();
    }
}
