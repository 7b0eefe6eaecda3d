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
    validate_health, validate_tail, ChromeTraceSink, Clock, EventSink, ExemplarConfig,
    ExemplarSink, HealthConfig, HealthSink, Metrics, MetricsSink, SinkHandle, TickClock,
    TimeseriesSink, WallClock,
};

use crate::Args;

/// The assembled exporter stack. Inactive (all no-ops) when none of the
/// observability flags were given.
pub struct ObsPipeline {
    handle: SinkHandle,
    chrome: Option<(Arc<ChromeTraceSink>, PathBuf)>,
    /// The Prometheus registry and the file its text form goes to, with
    /// `global_labels` stamped onto every sample.
    prom: Option<(Metrics, PathBuf)>,
    global_labels: Vec<(String, String)>,
    series: Option<(Arc<TimeseriesSink>, PathBuf)>,
    health: Option<(Arc<HealthSink>, Option<PathBuf>)>,
    tail: Option<(Arc<ExemplarSink>, Option<PathBuf>)>,
}

impl ObsPipeline {
    /// Build the pipeline the flags ask for. `block_capacity` is records
    /// per block (the time series expresses write amplification in
    /// blocks); `global_labels` are stamped onto every Prometheus sample
    /// (e.g. `[("policy", "choosebest")]`).
    pub fn from_args(
        args: &Args,
        block_capacity: u64,
        global_labels: &[(&str, &str)],
    ) -> std::io::Result<ObsPipeline> {
        // Every flag is read whether or not its exporter is on, so that
        // `Args::done` complains about typos only.
        let path = |key: &str| args.get(key).map(PathBuf::from);
        let defaults = HealthConfig::default();
        let health_config = HealthConfig {
            window_ops: args.get_or("health-window-ops", defaults.window_ops),
            windows: args.get_or("health-windows", defaults.windows),
            ..defaults
        };
        let health_path = path("health-out");
        let health = (args.flag("health") || health_path.is_some())
            .then(|| (Arc::new(HealthSink::new(health_config)), health_path));

        let defaults = ExemplarConfig::default();
        let tail_config = ExemplarConfig {
            per_shard: args.get_or("tail-per-shard", defaults.per_shard),
            window_puts: args.get_or("tail-window-puts", defaults.window_puts),
            windows: args.get_or("tail-windows", defaults.windows),
            ..defaults
        };
        let tail_path = path("tail-out");
        let tail = (args.flag("tail") || tail_path.is_some())
            .then(|| (Arc::new(ExemplarSink::new(tail_config)), tail_path));

        let global_labels =
            global_labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let prom = path("prom-out").map(|p| (Metrics::new(), p));
        let series_every: u64 = args.get_or("series-every", 1_000);
        let series = path("series-out")
            .map(|p| (Arc::new(TimeseriesSink::new(series_every, block_capacity)), p));
        let chrome = match path("trace-out") {
            Some(p) => Some((Arc::new(ChromeTraceSink::to_file(&p)?), p)),
            None => None,
        };

        // One handle, one clock: every consumer sees the same stamped
        // stream — spans included — whichever subset was asked for.
        let consumers: Vec<Arc<dyn EventSink>> = [
            chrome.as_ref().map(|(c, _)| Arc::clone(c) as _),
            health.as_ref().map(|(h, _)| Arc::clone(h) as _),
            tail.as_ref().map(|(t, _)| Arc::clone(t) as _),
            prom.as_ref().map(|(m, _)| Arc::new(MetricsSink::into_registry(m.clone())) as _),
            series.as_ref().map(|(s, _)| Arc::clone(s) as _),
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
        Ok(ObsPipeline { handle, chrome, prom, global_labels, series, health, tail })
    }

    /// The sink to install into the tree (via
    /// [`TreeOptions`](lsm_tree::TreeOptions) or `set_sink`); disabled when
    /// no exporter was requested.
    pub fn sink(&self) -> SinkHandle {
        self.handle.clone()
    }

    /// The amplification time series, when `--series-out` was given.
    pub fn series(&self) -> Option<&TimeseriesSink> {
        self.series.as_ref().map(|(series, _)| &**series)
    }

    /// The windowed health engine, when `--health-out` or `--health` was
    /// given. Like the tail engine it feeds itself entirely from the span
    /// stream.
    pub fn health(&self) -> Option<&Arc<HealthSink>> {
        self.health.as_ref().map(|(health, _)| health)
    }

    /// The tail-anatomy engine, when `--tail-out` or `--tail` was given.
    pub fn tail(&self) -> Option<&Arc<ExemplarSink>> {
        self.tail.as_ref().map(|(tail, _)| tail)
    }

    /// Flush every exporter to disk and return the files written.
    pub fn finish(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        // Health gauges go into the registry before the Prometheus text
        // is rendered, so every windowed series appears in the exposition.
        if let Some((metrics, _)) = &self.prom {
            if let Some(health) = self.health() {
                health.export_gauges(metrics);
            }
            if let Some(tail) = self.tail() {
                tail.export_gauges(metrics);
            }
        }
        let health = self.health.as_ref().map(|(h, path)| ("health", h.report(), path));
        let tail = self.tail.as_ref().map(|(t, path)| ("tail", t.report(), path));
        for (name, doc, path) in [health, tail].into_iter().flatten() {
            let Some(path) = path else { continue };
            let problems =
                if name == "health" { validate_health(&doc) } else { validate_tail(&doc) };
            if !problems.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{name} report failed validation: {}", problems.join("; ")),
                ));
            }
            std::fs::write(path, doc.render() + "\n")?;
            written.push(path.clone());
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
        if let Some((series, path)) = &self.series {
            let json = path.extension().is_some_and(|e| e == "json");
            let text = if json { series.to_json().render_pretty() } else { series.to_csv() };
            std::fs::write(path, text)?;
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
            "--series-every=1".into(),
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
