//! Runtime telemetry for the suite runner: host phase spans, a shared
//! metrics hub, a streaming JSONL progress sink, and the
//! `bioarch-metrics/v1` document.
//!
//! The paper's methodology samples hardware counters *while workloads
//! run*; this module is the reproduction's equivalent substrate. A
//! [`TelemetryHub`] is attached to a `Study` (see
//! `Study::set_telemetry`); the supervisor then
//!
//! * times host-side phases per job ([`PhaseNanos`]: decode, execute,
//!   oracle check, checkpoint, merge),
//! * turns on the guest sampling profiler
//!   ([`power5_sim::telemetry::GuestProfiler`]) and merges every job's
//!   symbolized hot-region report,
//! * folds deterministic guest metrics and wall-clock host metrics into
//!   two separate [`MetricsRegistry`]s (the guest registry is merged
//!   with commutative operations only, so the parallel and serial suite
//!   paths produce *identical* guest metrics),
//! * streams job-lifecycle events (`started`, `retired`, `retried`,
//!   `resumed`, `quarantined`) plus heartbeats as JSONL while the suite
//!   runs — `examples/suite_top.rs` tails the stream live and
//!   [`check_progress_stream`] validates it in CI.
//!
//! Everything is optional: a study without a hub takes the exact same
//! code paths as before this module existed, and the hub itself costs
//! one `Option` test per job on the host side plus one pointer test per
//! retired basic block on the guest side (the zero-cost-off contract
//! the perf-smoke gate enforces).

use crate::json::Json;
use crate::report::{Direction, Report};
use crate::schema::check_schema;
use power5_sim::telemetry::{Histogram, MetricsRegistry, ProfilerReport};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Schema identifier embedded in every metrics document.
pub const METRICS_SCHEMA: &str = "bioarch-metrics/v1";

/// Host-side wall time of one job's phases, in nanoseconds.
///
/// `decode` covers kernel compilation, assembly, and machine
/// construction; `execute` the timed simulation; `oracle` output
/// readback and golden-model validation; `checkpoint` checkpoint capture
/// and restore; `merge` folding the finished run into the study caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Compile + assemble + load wall time.
    pub decode: u64,
    /// Timed-simulation wall time.
    pub execute: u64,
    /// Readback + golden-model validation wall time.
    pub oracle: u64,
    /// Checkpoint capture/restore wall time.
    pub checkpoint: u64,
    /// Cache-merge wall time (stamped by the suite runner).
    pub merge: u64,
}

impl PhaseNanos {
    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        self.decode + self.execute + self.oracle + self.checkpoint + self.merge
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &PhaseNanos) {
        self.decode += other.decode;
        self.execute += other.execute;
        self.oracle += other.oracle;
        self.checkpoint += other.checkpoint;
        self.merge += other.merge;
    }
}

/// Configuration for a [`TelemetryHub`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Guest sampling-profiler period in retired instructions
    /// (`0` disables guest sampling).
    pub profiler_period: u64,
    /// Progress-sink heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { profiler_period: 4096, heartbeat_ms: 100 }
    }
}

/// One finished job's host-side rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// Job label, e.g. `blast/baseline/Stock`.
    pub job: String,
    /// End-to-end wall time under the supervisor, milliseconds.
    pub wall_ms: f64,
    /// Simulated instructions retired by the final successful attempt.
    pub instructions: u64,
    /// Attempts the supervisor made (1 = first try succeeded).
    pub attempts: u32,
    /// Host phase breakdown.
    pub phases: PhaseNanos,
}

impl JobSpan {
    /// Host simulation rate for this job: simulated MIPS over the job's
    /// supervised wall time.
    pub fn mips(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / (self.wall_ms * 1e3)
        }
    }
}

/// Internal mutable hub state, behind the mutex.
#[derive(Default)]
struct HubState {
    /// Deterministic guest-side metrics (commutative merges only).
    guest: MetricsRegistry,
    /// Wall-clock host-side metrics.
    host: MetricsRegistry,
    /// Merged symbolized guest profile across all jobs.
    profile: ProfilerReport,
    /// Per-job rollups, in retirement order.
    spans: Vec<JobSpan>,
    /// Progress sink (`None` = no streaming).
    sink: Option<Box<dyn Write + Send>>,
    seq: u64,
    jobs_started: u64,
    jobs_retired: u64,
    jobs_quarantined: u64,
    retries: u64,
    resumes: u64,
}

struct HubInner {
    config: TelemetryConfig,
    started: Instant,
    stop: AtomicBool,
    state: Mutex<HubState>,
}

fn lock(state: &Mutex<HubState>) -> MutexGuard<'_, HubState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Emit one JSONL progress event: stamps `event`, a contiguous `seq`,
/// and monotone `elapsed_ms` onto `fields`, writes one compact line, and
/// flushes so a live reader sees it immediately. No-op without a sink.
fn emit(st: &mut HubState, t0: Instant, event: &str, fields: Json) {
    let Some(sink) = st.sink.as_mut() else { return };
    let mut doc = Json::obj()
        .set("event", Json::Str(event.to_string()))
        .set("seq", Json::Num(st.seq as f64))
        .set("elapsed_ms", Json::Num(t0.elapsed().as_secs_f64() * 1e3));
    if let Json::Obj(pairs) = fields {
        for (k, v) in pairs {
            doc = doc.set(&k, v);
        }
    }
    let _ = writeln!(sink, "{}", doc.render_compact());
    let _ = sink.flush();
    st.seq += 1;
}

/// The shared telemetry hub: thread-safe (the parallel suite workers all
/// record through one hub), cheap when idle, and drained into a
/// [`TelemetrySnapshot`] by [`TelemetryHub::finish`].
pub struct TelemetryHub {
    inner: Arc<HubInner>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryHub {
    /// A hub with no progress sink (metrics and spans only).
    pub fn new(config: TelemetryConfig) -> Self {
        TelemetryHub {
            inner: Arc::new(HubInner {
                config,
                started: Instant::now(),
                stop: AtomicBool::new(false),
                state: Mutex::new(HubState::default()),
            }),
            heartbeat: None,
        }
    }

    /// A hub that additionally streams JSONL progress events to `sink`:
    /// emits `suite_started` immediately and spawns a background
    /// heartbeat thread at the configured interval. The thread is joined
    /// by [`TelemetryHub::finish`] (or on drop).
    pub fn with_progress(config: TelemetryConfig, sink: Box<dyn Write + Send>) -> Self {
        let hub_inner = Arc::new(HubInner {
            config,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            state: Mutex::new(HubState::default()),
        });
        {
            let mut st = lock(&hub_inner.state);
            st.sink = Some(sink);
            emit(
                &mut st,
                hub_inner.started,
                "suite_started",
                Json::obj()
                    .set("heartbeat_ms", Json::Num(config.heartbeat_ms as f64))
                    .set("profiler_period", Json::Num(config.profiler_period as f64)),
            );
        }
        let inner = Arc::clone(&hub_inner);
        let heartbeat = std::thread::spawn(move || {
            let interval = Duration::from_millis(inner.config.heartbeat_ms.max(1));
            loop {
                std::thread::sleep(interval);
                if inner.stop.load(Ordering::Relaxed) {
                    break;
                }
                let mut st = lock(&inner.state);
                let fields = Json::obj()
                    .set("started", Json::Num(st.jobs_started as f64))
                    .set("done", Json::Num((st.jobs_retired + st.jobs_quarantined) as f64));
                emit(&mut st, inner.started, "heartbeat", fields);
            }
        });
        TelemetryHub { inner: hub_inner, heartbeat: Some(heartbeat) }
    }

    /// The guest sampling-profiler period to install per run
    /// (`None` when guest sampling is disabled).
    pub fn profiler_period(&self) -> Option<u64> {
        match self.inner.config.profiler_period {
            0 => None,
            p => Some(p),
        }
    }

    /// Record (and stream) a job entering the supervisor.
    pub fn job_started(&self, job: &str) {
        let mut st = lock(&self.inner.state);
        st.jobs_started += 1;
        emit(
            &mut st,
            self.inner.started,
            "job_started",
            Json::obj().set("job", Json::Str(job.to_string())),
        );
    }

    /// Record (and stream) a successful job: per-job span, host
    /// wall/phase metrics, and — when the run carried a guest profile —
    /// the deterministic guest-side metrics and merged hot regions.
    pub fn job_retired(&self, span: JobSpan, profile: Option<&ProfilerReport>) {
        let mut st = lock(&self.inner.state);
        st.jobs_retired += 1;
        st.guest.inc("guest.instructions", span.instructions);
        st.guest.inc("guest.jobs", 1);
        if let Some(p) = profile {
            st.guest.inc("guest.blocks", p.blocks);
            st.guest.inc("guest.samples", p.total_samples);
            st.guest.merge_histogram("guest.block_len", &p.block_len);
            st.guest.merge_histogram("guest.retire_latency", &p.retire_latency);
            st.profile.merge(p);
        }
        st.host.observe("job.wall_ms", span.wall_ms.max(0.0) as u64);
        st.host.inc("host.attempts", u64::from(span.attempts));
        st.host.inc("host.phase.decode_ns", span.phases.decode);
        st.host.inc("host.phase.execute_ns", span.phases.execute);
        st.host.inc("host.phase.oracle_ns", span.phases.oracle);
        st.host.inc("host.phase.checkpoint_ns", span.phases.checkpoint);
        let fields = Json::obj()
            .set("job", Json::Str(span.job.clone()))
            .set("instructions", Json::Num(span.instructions as f64))
            .set("wall_ms", Json::Num(span.wall_ms))
            .set("attempts", Json::Num(f64::from(span.attempts)));
        emit(&mut st, self.inner.started, "job_retired", fields);
        st.spans.push(span);
    }

    /// Record (and stream) a failed attempt the supervisor will retry.
    pub fn job_retried(&self, job: &str, attempt: u32, class: &str) {
        let mut st = lock(&self.inner.state);
        st.retries += 1;
        st.host.inc("host.retries", 1);
        let fields = Json::obj()
            .set("job", Json::Str(job.to_string()))
            .set("attempt", Json::Num(f64::from(attempt)))
            .set("class", Json::Str(class.to_string()));
        emit(&mut st, self.inner.started, "job_retried", fields);
    }

    /// Record (and stream) an attempt resuming from a timeout checkpoint.
    pub fn job_resumed(&self, job: &str, attempt: u32) {
        let mut st = lock(&self.inner.state);
        st.resumes += 1;
        st.host.inc("host.resumes", 1);
        let fields = Json::obj()
            .set("job", Json::Str(job.to_string()))
            .set("attempt", Json::Num(f64::from(attempt)));
        emit(&mut st, self.inner.started, "job_resumed", fields);
    }

    /// Record (and stream) a job the supervisor gave up on.
    pub fn job_quarantined(&self, job: &str, class: &str) {
        let mut st = lock(&self.inner.state);
        st.jobs_quarantined += 1;
        st.host.inc("host.quarantined", 1);
        let fields = Json::obj()
            .set("job", Json::Str(job.to_string()))
            .set("class", Json::Str(class.to_string()));
        emit(&mut st, self.inner.started, "job_quarantined", fields);
    }

    /// Bump an arbitrary host-side counter — the campaign service
    /// records cache hits and journal/lease/cache activity this way.
    pub fn count_host(&self, name: &str, by: u64) {
        let mut st = lock(&self.inner.state);
        st.host.inc(name, by);
    }

    /// Charge wall time to a named host phase counter
    /// (`host.phase.<phase>_ns`), for phases outside the per-job
    /// [`PhaseNanos`] set — journal appends, lease grants, cache
    /// writes.
    pub fn phase_host(&self, phase: &str, nanos: u64) {
        self.count_host(&format!("host.phase.{phase}_ns"), nanos);
    }

    /// Charge cache-merge wall time to the job's span (and the suite
    /// merge-phase counter).
    pub fn phase_merge(&self, job: &str, nanos: u64) {
        let mut st = lock(&self.inner.state);
        st.host.inc("host.phase.merge_ns", nanos);
        if let Some(span) = st.spans.iter_mut().rev().find(|s| s.job == job) {
            span.phases.merge += nanos;
        }
    }

    /// Stop the heartbeat thread, emit `suite_finished`, and drain the
    /// hub into a [`TelemetrySnapshot`].
    pub fn finish(mut self) -> TelemetrySnapshot {
        self.shutdown();
        let mut st = lock(&self.inner.state);
        let mut spans = std::mem::take(&mut st.spans);
        spans.sort_by(|a, b| a.job.cmp(&b.job));
        TelemetrySnapshot {
            guest: std::mem::take(&mut st.guest),
            host: std::mem::take(&mut st.host),
            profile: std::mem::take(&mut st.profile),
            spans,
            wall_seconds: self.inner.started.elapsed().as_secs_f64(),
            jobs_started: st.jobs_started,
            jobs_retired: st.jobs_retired,
            jobs_quarantined: st.jobs_quarantined,
            retries: st.retries,
            resumes: st.resumes,
            heartbeat_ms: self.inner.config.heartbeat_ms,
            profiler_period: self.inner.config.profiler_period,
            context: Vec::new(),
        }
    }

    /// Join the heartbeat thread and emit the terminal event.
    fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        let mut st = lock(&self.inner.state);
        if st.sink.is_some() {
            // Stream the final host counters (fusion rates, cache hits,
            // phase totals, …) ahead of the terminal event so `suite_top
            // --check` can surface every recorded name — the stream used
            // to carry only lifecycle events and any counter not in the
            // snapshot file was invisible to the checker.
            if !st.host.counters().is_empty() {
                let mut counters = Json::obj();
                for (k, v) in st.host.counters() {
                    counters = counters.set(k, Json::Num(*v as f64));
                }
                emit(&mut st, self.inner.started, "metrics", Json::obj().set("counters", counters));
            }
            let fields = Json::obj()
                .set("started", Json::Num(st.jobs_started as f64))
                .set("retired", Json::Num(st.jobs_retired as f64))
                .set("quarantined", Json::Num(st.jobs_quarantined as f64))
                .set("retries", Json::Num(st.retries as f64))
                .set("resumes", Json::Num(st.resumes as f64));
            emit(&mut st, self.inner.started, "suite_finished", fields);
            st.sink = None;
        }
    }
}

impl Drop for TelemetryHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything a [`TelemetryHub`] accumulated, ready to serialize as a
/// `bioarch-metrics/v1` document.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Deterministic guest metrics (identical for serial and parallel
    /// suite runs of the same study).
    pub guest: MetricsRegistry,
    /// Wall-clock host metrics (job wall histogram, phase counters).
    pub host: MetricsRegistry,
    /// Merged symbolized guest profile across all retired jobs.
    pub profile: ProfilerReport,
    /// Per-job rollups, sorted by job label.
    pub spans: Vec<JobSpan>,
    /// Hub lifetime in seconds.
    pub wall_seconds: f64,
    /// Jobs that entered the supervisor.
    pub jobs_started: u64,
    /// Jobs that retired successfully.
    pub jobs_retired: u64,
    /// Jobs the supervisor gave up on.
    pub jobs_quarantined: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Attempts that resumed from a timeout checkpoint.
    pub resumes: u64,
    /// Configured heartbeat interval (ms).
    pub heartbeat_ms: u64,
    /// Configured guest profiler period (0 = disabled).
    pub profiler_period: u64,
    /// Free-form context (`scale`, `seed`, `threads`, …), serialized
    /// verbatim like a report's.
    pub context: Vec<(String, String)>,
}

/// Serialize one histogram with summary scalars, key percentiles, and
/// sparse buckets.
fn histogram_json(h: &Histogram) -> Json {
    Json::obj()
        .set("count", Json::Num(h.count() as f64))
        .set("sum", Json::Num(h.sum() as f64))
        .set("min", Json::Num(h.min() as f64))
        .set("max", Json::Num(h.max() as f64))
        .set("mean", Json::Num(h.mean()))
        .set("p50", Json::Num(h.percentile(0.50) as f64))
        .set("p90", Json::Num(h.percentile(0.90) as f64))
        .set("p99", Json::Num(h.percentile(0.99) as f64))
        .set(
            "buckets",
            Json::Arr(
                h.sparse_buckets()
                    .into_iter()
                    .map(|(b, n)| Json::Arr(vec![Json::Num(b as f64), Json::Num(n as f64)]))
                    .collect(),
            ),
        )
}

fn registry_json(doc: Json, reg: &MetricsRegistry) -> Json {
    let mut counters = Json::obj();
    for (k, v) in reg.counters() {
        counters = counters.set(k, Json::Num(*v as f64));
    }
    let mut gauges = Json::obj();
    for (k, v) in reg.gauges() {
        gauges = gauges.set(k, Json::Num(*v));
    }
    let mut histograms = Json::obj();
    for (k, h) in reg.histograms() {
        histograms = histograms.set(k, histogram_json(h));
    }
    doc.set("counters", counters).set("gauges", gauges).set("histograms", histograms)
}

impl TelemetrySnapshot {
    /// Serialize as a `bioarch-metrics/v1` JSON document: suite rollup,
    /// merged counters/gauges/histograms (guest and host), the
    /// symbolized profiler section with hot regions and folded stacks,
    /// and the per-job spans.
    pub fn to_json(&self) -> Json {
        let context = Json::Obj(
            self.context.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
        );
        let suite = Json::obj()
            .set("jobs_started", Json::Num(self.jobs_started as f64))
            .set("jobs_retired", Json::Num(self.jobs_retired as f64))
            .set("jobs_quarantined", Json::Num(self.jobs_quarantined as f64))
            .set("retries", Json::Num(self.retries as f64))
            .set("resumes", Json::Num(self.resumes as f64))
            .set("wall_seconds", Json::Num(self.wall_seconds))
            .set("heartbeat_ms", Json::Num(self.heartbeat_ms as f64))
            .set("profiler_period", Json::Num(self.profiler_period as f64));
        let mut doc = Json::obj()
            .set("schema", Json::Str(METRICS_SCHEMA.into()))
            .set("context", context)
            .set("suite", suite);
        let mut merged = self.guest.clone();
        merged.merge(&self.host);
        doc = registry_json(doc, &merged);
        let profiler = Json::obj()
            .set("period", Json::Num(self.profile.period as f64))
            .set("blocks", Json::Num(self.profile.blocks as f64))
            .set("insns", Json::Num(self.profile.insns as f64))
            .set("total_samples", Json::Num(self.profile.total_samples as f64))
            .set(
                "hot_regions",
                Json::Arr(
                    self.profile
                        .hot_regions
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .set("name", Json::Str(r.name.clone()))
                                .set("samples", Json::Num(r.samples as f64))
                        })
                        .collect(),
                ),
            )
            .set(
                "folded",
                Json::Arr(self.profile.folded_stacks().into_iter().map(Json::Str).collect()),
            );
        doc = doc.set("profiler", profiler);
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("job", Json::Str(s.job.clone()))
                        .set("wall_ms", Json::Num(s.wall_ms))
                        .set("instructions", Json::Num(s.instructions as f64))
                        .set("mips", Json::Num(s.mips()))
                        .set("attempts", Json::Num(f64::from(s.attempts)))
                        .set(
                            "phases",
                            Json::obj()
                                .set("decode_ns", Json::Num(s.phases.decode as f64))
                                .set("execute_ns", Json::Num(s.phases.execute as f64))
                                .set("oracle_ns", Json::Num(s.phases.oracle as f64))
                                .set("checkpoint_ns", Json::Num(s.phases.checkpoint as f64))
                                .set("merge_ns", Json::Num(s.phases.merge as f64)),
                        )
                })
                .collect(),
        );
        doc.set("spans", spans)
    }

    /// Pretty-rendered `bioarch-metrics/v1` document.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

/// Flatten a parsed `bioarch-metrics/v1` document into a
/// [`Report`]-shaped metric list so `compare_runs` can diff and
/// `--require`-gate it: suite rollup fields, every counter and gauge,
/// and `count`/`mean`/`p50`/`p90`/`p99` per histogram (all
/// [`Direction::Neutral`] — metrics documents are informational).
///
/// # Errors
///
/// Returns a message when the schema marker is missing or wrong, or the
/// document is structurally invalid.
pub fn metrics_json_to_report(doc: &Json) -> Result<Report, String> {
    check_schema(doc, METRICS_SCHEMA).map_err(|e| e.to_string())?;
    let mut report = Report::new("telemetry");
    if let Some(Json::Obj(pairs)) = doc.get("context") {
        for (k, v) in pairs {
            report.context.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
        }
    }
    if let Some(Json::Obj(pairs)) = doc.get("suite") {
        for (k, v) in pairs {
            if let Some(x) = v.as_f64() {
                report.push(format!("suite.{k}"), x, Direction::Neutral);
            }
        }
    }
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(pairs)) = doc.get(section) {
            for (k, v) in pairs {
                if let Some(x) = v.as_f64() {
                    report.push(k.clone(), x, Direction::Neutral);
                }
            }
        }
    }
    if let Some(Json::Obj(pairs)) = doc.get("histograms") {
        for (k, h) in pairs {
            for field in ["count", "mean", "p50", "p90", "p99"] {
                let x = h
                    .get(field)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("histogram {k} missing {field}"))?;
                report.push(format!("{k}.{field}"), x, Direction::Neutral);
            }
        }
    }
    if let Some(p) = doc.get("profiler") {
        for field in ["blocks", "insns", "total_samples"] {
            if let Some(x) = p.get(field).and_then(Json::as_f64) {
                report.push(format!("profiler.{field}"), x, Direction::Neutral);
            }
        }
    }
    Ok(report)
}

/// Parse a serialized `bioarch-metrics/v1` document into the flattened
/// [`Report`] form (see [`metrics_json_to_report`]).
///
/// # Errors
///
/// Returns a message on malformed JSON or a wrong schema marker.
pub fn parse_metrics_report(text: &str) -> Result<Report, String> {
    metrics_json_to_report(&Json::parse(text)?)
}

/// A cloneable in-memory [`Write`] sink for progress streams — tests and
/// examples attach one to a [`TelemetryHub`] and read the emitted JSONL
/// back with [`SharedBuffer::contents`].
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// Everything written so far, as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        let buf = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Summary statistics of a validated progress stream
/// (see [`check_progress_stream`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressStats {
    /// Total events in the stream.
    pub events: u64,
    /// Heartbeat events.
    pub heartbeats: u64,
    /// `job_started` events.
    pub jobs_started: u64,
    /// `job_retired` events.
    pub jobs_retired: u64,
    /// `job_quarantined` events.
    pub jobs_quarantined: u64,
    /// `job_retried` events.
    pub retries: u64,
    /// `job_resumed` events.
    pub resumes: u64,
    /// Whether the stream ends with `suite_finished`.
    pub finished: bool,
    /// Declared heartbeat interval (ms) from `suite_started`.
    pub heartbeat_ms: f64,
    /// Largest gap (ms) between consecutive heartbeat-bearing events
    /// (heartbeats, job events, and the terminal event all reset the
    /// gap — the liveness guarantee is "some event at least this often").
    pub max_gap_ms: f64,
    /// Whether the final line was unparseable — a torn write from a
    /// crashed writer. The torn line is dropped; the stats cover the
    /// complete-line prefix.
    pub truncated_tail: bool,
    /// Whether some inter-event gap exceeded
    /// [`DEFAULT_STALL_FACTOR`] × the declared heartbeat interval — the
    /// writer went silent far longer than its own liveness promise.
    /// Distinct from [`ProgressStats::truncated_tail`]: a torn tail is
    /// a crashed writer, a stall is a wedged one. Recomputable at a
    /// custom threshold via [`ProgressStats::stalled_with`].
    pub stalled: bool,
    /// Host counters carried by `metrics` events, name-sorted. Every
    /// name in the stream is kept verbatim — the checker surfaces
    /// counters it has never heard of (fusion rates, cache hits, …)
    /// instead of dropping unknown names.
    pub host_counters: Vec<(String, f64)>,
}

/// Validate a JSONL progress stream: every line parses, `seq` is
/// contiguous from 0, `elapsed_ms` is monotone, the stream opens with
/// `suite_started`, and every `job_started` has a matching terminal
/// event (`job_retired` or `job_quarantined`). Used by
/// `examples/suite_top.rs --check` and the CI telemetry-smoke gate.
///
/// An unparseable *final* line is not an error: it is the torn write of
/// a writer killed mid-`write`, reported via
/// [`ProgressStats::truncated_tail`] (the "never terminated" check is
/// waived too — the terminal events may sit in the torn tail). An
/// unparseable line anywhere else is still corruption.
///
/// # Errors
///
/// Returns a message naming the first malformed line or sequence
/// violation.
pub fn check_progress_stream(text: &str) -> Result<ProgressStats, String> {
    let mut stats = ProgressStats::default();
    let mut open_jobs: Vec<String> = Vec::new();
    let mut last_elapsed = 0.0f64;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(_) if i + 1 == lines.len() && i > 0 => {
                stats.truncated_tail = true;
                break;
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        };
        let event = doc
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing event", i + 1))?
            .to_string();
        let seq = doc
            .get("seq")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing seq", i + 1))?;
        if seq as usize != i {
            return Err(format!("line {}: seq {seq} out of order (want {i})", i + 1));
        }
        let elapsed = doc
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing elapsed_ms", i + 1))?;
        if elapsed < last_elapsed {
            return Err(format!(
                "line {}: elapsed_ms went backwards ({elapsed} < {last_elapsed})",
                i + 1
            ));
        }
        stats.max_gap_ms = stats.max_gap_ms.max(elapsed - last_elapsed);
        last_elapsed = elapsed;
        if i == 0 && event != "suite_started" {
            return Err(format!("stream must open with suite_started, got {event}"));
        }
        if stats.finished {
            return Err(format!("line {}: event after suite_finished", i + 1));
        }
        stats.events += 1;
        let job = || {
            doc.get("job")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: {event} missing job", i + 1))
        };
        match event.as_str() {
            "suite_started" => {
                if i != 0 {
                    return Err(format!("line {}: duplicate suite_started", i + 1));
                }
                stats.heartbeat_ms = doc.get("heartbeat_ms").and_then(Json::as_f64).unwrap_or(0.0);
            }
            "heartbeat" => stats.heartbeats += 1,
            "job_started" => {
                stats.jobs_started += 1;
                open_jobs.push(job()?);
            }
            "job_retired" | "job_quarantined" => {
                let j = job()?;
                let Some(pos) = open_jobs.iter().position(|o| *o == j) else {
                    return Err(format!("line {}: {event} for unstarted job {j}", i + 1));
                };
                open_jobs.remove(pos);
                if event == "job_retired" {
                    stats.jobs_retired += 1;
                } else {
                    stats.jobs_quarantined += 1;
                }
            }
            "job_retried" => {
                let j = job()?;
                if !open_jobs.contains(&j) {
                    return Err(format!("line {}: job_retried for unstarted job {j}", i + 1));
                }
                stats.retries += 1;
            }
            "job_resumed" => {
                let j = job()?;
                if !open_jobs.contains(&j) {
                    return Err(format!("line {}: job_resumed for unstarted job {j}", i + 1));
                }
                stats.resumes += 1;
            }
            "metrics" => {
                let Some(Json::Obj(pairs)) = doc.get("counters") else {
                    return Err(format!("line {}: metrics missing counters", i + 1));
                };
                for (k, v) in pairs {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| format!("line {}: counter {k} not numeric", i + 1))?;
                    stats.host_counters.push((k.clone(), x));
                }
                stats.host_counters.sort_by(|a, b| a.0.cmp(&b.0));
            }
            "suite_finished" => stats.finished = true,
            other => return Err(format!("line {}: unknown event {other}", i + 1)),
        }
    }
    if stats.events == 0 {
        return Err("empty progress stream".to_string());
    }
    if !open_jobs.is_empty() && !stats.truncated_tail {
        return Err(format!("jobs started but never terminated: {open_jobs:?}"));
    }
    stats.stalled = stats.stalled_with(DEFAULT_STALL_FACTOR);
    Ok(stats)
}

/// Default heartbeat-gap multiple beyond which a stream counts as
/// stalled. Generous on purpose: at the conventional 100 ms heartbeat
/// this is a 5-second silence, far past scheduler jitter on a loaded CI
/// box but still a fraction of any real hang.
pub const DEFAULT_STALL_FACTOR: f64 = 50.0;

impl ProgressStats {
    /// Whether the stream's largest inter-event gap exceeds `factor` ×
    /// the declared heartbeat interval. Zero/unknown heartbeat
    /// intervals never stall (nothing was promised).
    pub fn stalled_with(&self, factor: f64) -> bool {
        self.heartbeat_ms > 0.0 && self.max_gap_ms > factor * self.heartbeat_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate() {
        let mut a = PhaseNanos { decode: 1, execute: 2, oracle: 3, checkpoint: 4, merge: 5 };
        let b = PhaseNanos { decode: 10, execute: 20, oracle: 30, checkpoint: 40, merge: 50 };
        a.add(&b);
        assert_eq!(a.total(), 165);
    }

    #[test]
    fn job_span_mips() {
        let span = JobSpan {
            job: "x".into(),
            wall_ms: 1000.0,
            instructions: 5_000_000,
            attempts: 1,
            phases: PhaseNanos::default(),
        };
        assert!((span.mips() - 5.0).abs() < 1e-9);
        let zero = JobSpan { wall_ms: 0.0, ..span };
        assert_eq!(zero.mips(), 0.0);
    }

    #[test]
    fn hub_lifecycle_produces_wellformed_stream() {
        let buf = SharedBuffer::new();
        let config = TelemetryConfig { profiler_period: 64, heartbeat_ms: 10 };
        let hub = TelemetryHub::with_progress(config, Box::new(buf.clone()));
        assert_eq!(hub.profiler_period(), Some(64));
        hub.job_started("a/baseline/Stock");
        hub.job_retired(
            JobSpan {
                job: "a/baseline/Stock".into(),
                wall_ms: 12.5,
                instructions: 1000,
                attempts: 1,
                phases: PhaseNanos { decode: 10, execute: 20, oracle: 5, checkpoint: 0, merge: 0 },
            },
            None,
        );
        hub.job_started("b/baseline/Stock");
        hub.job_retried("b/baseline/Stock", 1, "timeout");
        hub.job_resumed("b/baseline/Stock", 2);
        hub.job_quarantined("b/baseline/Stock", "timeout");
        hub.phase_merge("a/baseline/Stock", 7);
        // Let at least two heartbeats land.
        std::thread::sleep(Duration::from_millis(35));
        let snap = hub.finish();
        assert_eq!(snap.jobs_started, 2);
        assert_eq!(snap.jobs_retired, 1);
        assert_eq!(snap.jobs_quarantined, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.resumes, 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].phases.merge, 7);
        assert_eq!(snap.host.counter("host.phase.merge_ns"), 7);

        let text = buf.contents();
        let stats = check_progress_stream(&text).expect("stream is well-formed");
        assert_eq!(stats.jobs_started, 2);
        assert_eq!(stats.jobs_retired, 1);
        assert_eq!(stats.jobs_quarantined, 1);
        assert!(stats.finished);
        assert!(stats.heartbeats >= 2, "heartbeats: {}", stats.heartbeats);
        assert_eq!(stats.heartbeat_ms, 10.0);
    }

    #[test]
    fn snapshot_serializes_and_flattens() {
        let hub = TelemetryHub::new(TelemetryConfig::default());
        hub.job_started("fasta/baseline/Stock");
        let mut profile = ProfilerReport {
            period: 4096,
            blocks: 10,
            insns: 50,
            total_samples: 3,
            hot_regions: vec![power5_sim::telemetry::HotRegion {
                name: "dropgsw".into(),
                samples: 3,
            }],
            ..ProfilerReport::default()
        };
        profile.block_len.record(5);
        profile.retire_latency.record(12);
        hub.job_retired(
            JobSpan {
                job: "fasta/baseline/Stock".into(),
                wall_ms: 42.0,
                instructions: 50,
                attempts: 1,
                phases: PhaseNanos::default(),
            },
            Some(&profile),
        );
        let mut snap = hub.finish();
        snap.context.push(("scale".into(), "Test".into()));
        let text = snap.render_json();
        assert!(text.contains(METRICS_SCHEMA));
        assert!(text.contains("dropgsw"));
        assert!(text.contains("guest;dropgsw 3"));

        let report = parse_metrics_report(&text).expect("flattens");
        assert_eq!(report.experiment, "telemetry");
        assert!(report.get("job.wall_ms.p50").is_some());
        assert!(report.get("job.wall_ms.p99").is_some());
        assert!(report.get("guest.instructions").is_some());
        assert_eq!(report.get("suite.jobs_retired").unwrap().value, 1.0);
        assert_eq!(report.get("profiler.total_samples").unwrap().value, 3.0);
        // Wrong schema rejected.
        assert!(parse_metrics_report(&text.replace("/v1", "/v9")).is_err());
    }

    #[test]
    fn checker_rejects_malformed_streams() {
        assert!(check_progress_stream("").is_err());
        // Must open with suite_started.
        let bad = r#"{"event":"heartbeat","seq":0,"elapsed_ms":1}"#;
        assert!(check_progress_stream(bad).unwrap_err().contains("suite_started"));
        // Contiguous seq required.
        let gap = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"heartbeat","seq":2,"elapsed_ms":1}"#
        );
        assert!(check_progress_stream(gap).unwrap_err().contains("out of order"));
        // Monotone elapsed required.
        let back = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":5}"#,
            "\n",
            r#"{"event":"heartbeat","seq":1,"elapsed_ms":1}"#
        );
        assert!(check_progress_stream(back).unwrap_err().contains("backwards"));
        // Unterminated job rejected.
        let open = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"job_started","seq":1,"elapsed_ms":1,"job":"x"}"#
        );
        assert!(check_progress_stream(open).unwrap_err().contains("never terminated"));
        // Terminal event for a job that never started.
        let orphan = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"job_retired","seq":1,"elapsed_ms":1,"job":"x"}"#
        );
        assert!(check_progress_stream(orphan).unwrap_err().contains("unstarted"));
    }

    #[test]
    fn checker_tolerates_truncated_tail() {
        // A torn final line — the writer was killed mid-write — is
        // reported, not rejected, and waives the open-job check (the
        // terminal event may sit in the torn bytes).
        let torn = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"job_started","seq":1,"elapsed_ms":1,"job":"x"}"#,
            "\n",
            r#"{"event":"job_retired","seq":2,"elapsed_"#
        );
        let stats = check_progress_stream(torn).unwrap();
        assert!(stats.truncated_tail);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.jobs_started, 1);
        // A complete stream with an open job must still be rejected.
        let open = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"job_started","seq":1,"elapsed_ms":1,"job":"x"}"#
        );
        assert!(check_progress_stream(open).unwrap_err().contains("never terminated"));
        // A torn line anywhere but the tail is still corruption.
        let corrupt = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"hea"#,
            "\n",
            r#"{"event":"suite_finished","seq":2,"elapsed_ms":2}"#
        );
        assert!(check_progress_stream(corrupt).is_err());
    }

    #[test]
    fn checker_flags_stalled_streams() {
        // A 10 ms heartbeat promise followed by a 600 ms silence is a
        // stall at the default 50× factor — distinct from a torn tail.
        let stalled = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0,"heartbeat_ms":10}"#,
            "\n",
            r#"{"event":"heartbeat","seq":1,"elapsed_ms":5}"#,
            "\n",
            r#"{"event":"heartbeat","seq":2,"elapsed_ms":605}"#,
            "\n",
            r#"{"event":"suite_finished","seq":3,"elapsed_ms":606}"#
        );
        let stats = check_progress_stream(stalled).unwrap();
        assert!(stats.stalled);
        assert!(!stats.truncated_tail);
        assert!(stats.stalled_with(10.0));
        assert!(!stats.stalled_with(100.0), "custom factor can waive the default verdict");
        // Keeping the liveness promise never stalls.
        let healthy = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0,"heartbeat_ms":10}"#,
            "\n",
            r#"{"event":"heartbeat","seq":1,"elapsed_ms":12}"#,
            "\n",
            r#"{"event":"suite_finished","seq":2,"elapsed_ms":20}"#
        );
        assert!(!check_progress_stream(healthy).unwrap().stalled);
        // No declared interval = no promise = never stalled.
        let silent = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0}"#,
            "\n",
            r#"{"event":"suite_finished","seq":1,"elapsed_ms":900000}"#
        );
        assert!(!check_progress_stream(silent).unwrap().stalled);
    }

    #[test]
    fn retire_bursts_do_not_excuse_quiet_gaps() {
        // The hub's heartbeat thread ticks whatever the jobs are doing,
        // so a long silence is a stall even when it ends in a burst of
        // retires.
        let burst = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0,"heartbeat_ms":10}"#,
            "\n",
            r#"{"event":"job_started","seq":1,"elapsed_ms":1,"job":"a"}"#,
            "\n",
            r#"{"event":"job_started","seq":2,"elapsed_ms":2,"job":"b"}"#,
            "\n",
            r#"{"event":"job_retired","seq":3,"elapsed_ms":2000,"job":"a"}"#,
            "\n",
            r#"{"event":"job_retired","seq":4,"elapsed_ms":2005,"job":"b"}"#,
            "\n",
            r#"{"event":"suite_finished","seq":5,"elapsed_ms":2006}"#
        );
        let stats = check_progress_stream(burst).unwrap();
        assert!(stats.stalled, "a burst of retires must not hide a 2 s silence");
        assert!(stats.max_gap_ms >= 1998.0);
        // A lone retire after the same silence is a stall too.
        let lone = concat!(
            r#"{"event":"suite_started","seq":0,"elapsed_ms":0,"heartbeat_ms":10}"#,
            "\n",
            r#"{"event":"job_started","seq":1,"elapsed_ms":1,"job":"a"}"#,
            "\n",
            r#"{"event":"job_retired","seq":2,"elapsed_ms":2000,"job":"a"}"#,
            "\n",
            r#"{"event":"suite_finished","seq":3,"elapsed_ms":2001}"#
        );
        let stats = check_progress_stream(lone).unwrap();
        assert!(stats.stalled);
    }

    #[test]
    fn guest_registry_merge_is_order_independent() {
        // Simulates the parallel vs serial suite paths folding the same
        // two jobs in different orders.
        let span = |name: &str, insns: u64| JobSpan {
            job: name.into(),
            wall_ms: 1.0,
            instructions: insns,
            attempts: 1,
            phases: PhaseNanos::default(),
        };
        let mut p1 = ProfilerReport { blocks: 4, total_samples: 2, ..ProfilerReport::default() };
        p1.block_len.record(3);
        let mut p2 = ProfilerReport { blocks: 6, total_samples: 5, ..ProfilerReport::default() };
        p2.block_len.record(7);

        let ab = TelemetryHub::new(TelemetryConfig::default());
        ab.job_retired(span("a", 100), Some(&p1));
        ab.job_retired(span("b", 200), Some(&p2));
        let ba = TelemetryHub::new(TelemetryConfig::default());
        ba.job_retired(span("b", 200), Some(&p2));
        ba.job_retired(span("a", 100), Some(&p1));
        let sab = ab.finish();
        let sba = ba.finish();
        assert_eq!(sab.guest, sba.guest);
        assert_eq!(sab.guest.counter("guest.instructions"), 300);
        assert_eq!(sab.spans, sba.spans); // sorted by job label
    }
}
