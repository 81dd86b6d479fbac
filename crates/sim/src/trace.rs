//! Virtual-time structured tracing and a namespaced metrics
//! registry.
//!
//! Every layer of the simulation (storage, page cache, eBPF runtime,
//! VMM, restore pipeline, fleet scheduler) reports *spans* and
//! *instant events* stamped with **virtual** time — never the wall
//! clock — through a shared [`Tracer`] handle, and bumps the counters
//! and histograms of declared [`Metric`]s in a [`MetricsRegistry`]. Recorded events
//! serialize to Chrome trace-event JSON ([`chrome_trace_json`]) that
//! loads directly in Perfetto or `chrome://tracing`.
//!
//! The handle is cheap to clone (the simulation is single-threaded,
//! so it is an `Rc` internally) and free when disabled: a
//! [`Tracer::disabled`] handle holds no allocation and every call on
//! it is a single `Option` check.
//!
//! Track (`tid`) conventions: [`TID_CONTROL`] carries scheduler
//! decisions, [`TID_DISK`] block-device request spans, [`TID_KERNEL`]
//! host-kernel/eBPF events, and each sandbox gets its own track via
//! [`sandbox_tid`].
//!
//! # Examples
//!
//! ```
//! use snapbpf_sim::{chrome_trace_json, Metric, SimTime, Tracer, TID_DISK};
//!
//! let tracer = Tracer::recording();
//! tracer.span(
//!     "storage",
//!     "disk-read",
//!     TID_DISK,
//!     SimTime::ZERO,
//!     SimTime::from_nanos(5_000),
//!     vec![("blocks", 8u64.into())],
//! );
//! tracer.incr(Metric::StorageReadRequests);
//! let events = tracer.take_events();
//! assert_eq!(events.len(), 1);
//! let json = chrome_trace_json(&events, Some(&tracer.metrics_snapshot()));
//! assert!(json.pretty().contains("traceEvents"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use snapbpf_json::Json;

use crate::metric::{Metric, MetricKind, CATALOG};
use crate::series::SeriesRegistry;
use crate::stats::{Histogram, Quantile};
use crate::time::{SimDuration, SimTime};

/// Trace track (Chrome `tid`) carrying control-plane / fleet
/// scheduler events.
pub const TID_CONTROL: u64 = 0;

/// Trace track carrying block-device request spans.
pub const TID_DISK: u64 = 1;

/// Trace track carrying host-kernel and eBPF runtime events (page
/// cache, prefetch programs, map loads).
pub const TID_KERNEL: u64 = 2;

/// The trace track of one sandbox (vCPU), keyed by its owner id.
/// Sandbox tracks start above the reserved infrastructure tracks.
pub const fn sandbox_tid(owner: u32) -> u64 {
    16 + owner as u64
}

/// One argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl TraceValue {
    fn to_json(&self) -> Json {
        match self {
            TraceValue::U64(v) => Json::Number(*v as f64),
            TraceValue::F64(v) => Json::Number(*v),
            TraceValue::Str(s) => Json::String(s.clone()),
            TraceValue::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> TraceValue {
        TraceValue::U64(v)
    }
}

impl From<u32> for TraceValue {
    fn from(v: u32) -> TraceValue {
        TraceValue::U64(v as u64)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> TraceValue {
        TraceValue::U64(v as u64)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> TraceValue {
        TraceValue::F64(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> TraceValue {
        TraceValue::Str(v.to_owned())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> TraceValue {
        TraceValue::Str(v)
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> TraceValue {
        TraceValue::Bool(v)
    }
}

/// Chrome trace-event phase of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete event (`"X"`): a span with a start and a duration.
    Complete,
    /// An instant event (`"i"`), thread-scoped.
    Instant,
    /// A metadata event (`"M"`), naming processes and threads.
    Metadata,
}

impl TracePhase {
    /// The single-character Chrome phase code.
    pub const fn code(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Instant => "i",
            TracePhase::Metadata => "M",
        }
    }
}

/// One structured trace event, stamped in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Process id — by convention one simulated host (or one fleet
    /// run) per pid.
    pub pid: u32,
    /// Thread id — the track this event renders on (see [`TID_DISK`]
    /// and friends, plus [`sandbox_tid`]).
    pub tid: u64,
    /// Virtual start time.
    pub ts: SimTime,
    /// Span duration; `None` for instant and metadata events.
    pub dur: Option<SimDuration>,
    /// Event phase.
    pub phase: TracePhase,
    /// Category (e.g. `"storage"`, `"restore"`, `"fleet"`).
    pub cat: &'static str,
    /// Event name (stage label, request kind, decision).
    pub name: String,
    /// Event arguments, in emission order.
    pub args: Vec<(&'static str, TraceValue)>,
}

impl TraceEvent {
    /// Serializes this event to one Chrome trace-event JSON object.
    ///
    /// Timestamps and durations convert to *microseconds* (Chrome's
    /// unit); key order is fixed so output is deterministic.
    pub fn to_chrome_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("cat".into(), Json::from(self.cat)),
            ("ph".into(), Json::from(self.phase.code())),
            ("ts".into(), Json::Number(self.ts.as_nanos() as f64 / 1e3)),
        ];
        if let Some(dur) = self.dur {
            fields.push(("dur".into(), Json::Number(dur.as_nanos() as f64 / 1e3)));
        }
        fields.push(("pid".into(), Json::from(self.pid)));
        fields.push(("tid".into(), Json::Number(self.tid as f64)));
        if self.phase == TracePhase::Instant {
            fields.push(("s".into(), Json::from("t")));
        }
        if !self.args.is_empty() {
            let args: Vec<(String, Json)> = self
                .args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.to_json()))
                .collect();
            fields.push(("args".into(), Json::Object(args)));
        }
        Json::Object(fields)
    }
}

/// Destination for emitted trace events.
pub trait TraceSink: fmt::Debug {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether this sink retains events — `false` lets the [`Tracer`]
    /// skip event construction entirely.
    fn retains(&self) -> bool {
        true
    }

    /// Removes and returns everything recorded so far (empty for
    /// sinks that do not retain events).
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Discards every event; metrics still accumulate.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn retains(&self) -> bool {
        false
    }
}

/// Buffers events in memory, in emission order.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Everything recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The run's counters and histograms, in dense slots indexed by
/// [`Metric`] id.
///
/// Writes name a declared [`Metric`], so a bump is one index and no
/// string work. Each counter slot carries a touched flag: a counter
/// exists once anything, even a zero, was added to it, and only
/// touched counters (and observed histograms) are read back. Reads
/// go by name through the catalog, and iterate in id order, which is
/// name order, so snapshots serialize deterministically.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::{Metric, MetricsRegistry};
///
/// let mut m = MetricsRegistry::new();
/// m.add(Metric::MemCacheHits, 3);
/// m.incr(Metric::MemCacheHits);
/// m.observe(Metric::StorageReadLatencyNs, 125_000);
/// assert_eq!(m.counter("mem.cache.hits"), 4);
/// assert_eq!(m.histogram("storage.read.latency_ns").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<Option<u64>>,
    histograms: Vec<Option<Histogram>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: vec![None; CATALOG.len()],
            histograms: vec![None; CATALOG.len()],
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter, touching it even when `n` is zero.
    pub fn add(&mut self, metric: Metric, n: u64) {
        debug_assert!(
            metric.info().kind.is_counter(),
            "{metric:?} is not a counter"
        );
        let slot = &mut self.counters[metric.index()];
        *slot = Some(slot.map_or(n, |v| v + n));
    }

    /// Adds one to the counter.
    pub fn incr(&mut self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Records `v` into the histogram.
    pub fn observe(&mut self, metric: Metric, v: u64) {
        debug_assert_eq!(metric.info().kind, MetricKind::Histogram, "{metric:?}");
        self.histograms[metric.index()]
            .get_or_insert_with(Histogram::new)
            .record(v);
    }

    /// Records a duration (as nanoseconds) into the histogram.
    pub fn observe_duration(&mut self, metric: Metric, d: SimDuration) {
        self.observe(metric, d.as_nanos());
    }

    /// Current value of the named counter (zero if never touched or
    /// not declared).
    pub fn counter(&self, name: &str) -> u64 {
        Metric::from_name(name)
            .and_then(|m| self.counters[m.index()])
            .unwrap_or(0)
    }

    /// The named histogram, if anything was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        Metric::from_name(name).and_then(|m| self.histograms[m.index()].as_ref())
    }

    /// Iterates touched counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        CATALOG
            .iter()
            .zip(&self.counters)
            .filter_map(|(m, v)| v.map(|v| (m.name, v)))
    }

    /// Iterates gauges in name order. No metric is a gauge, so this
    /// is always empty; it keeps the serialized shape.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        std::iter::empty()
    }

    /// Iterates observed histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        CATALOG
            .iter()
            .zip(&self.histograms)
            .filter_map(|(m, h)| h.as_ref().map(|h| (m.name, h)))
    }

    /// `true` when nothing has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters().next().is_none() && self.histograms().next().is_none()
    }

    /// Folds another registry into this one slot by slot: counters
    /// add, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            if let Some(n) = theirs {
                *mine = Some(mine.map_or(*n, |v| v + n));
            }
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            match (mine, theirs) {
                (Some(mine), Some(h)) => mine.merge(h),
                (mine @ None, Some(h)) => *mine = Some(h.clone()),
                (_, None) => {}
            }
        }
    }

    /// Serializes the registry to a JSON object: counters as plain
    /// numbers, an empty gauges object, and histograms as `{count,
    /// mean, min, max, p50, p90, p99, p99.9}` summaries.
    pub fn to_json(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .counters()
            .map(|(k, v)| (k.to_owned(), Json::from(v)))
            .collect();
        let histograms: Vec<(String, Json)> = self
            .histograms()
            .map(|(k, h)| {
                let mut fields: Vec<(String, Json)> = vec![
                    ("count".into(), Json::from(h.count())),
                    ("mean".into(), Json::Number(h.mean())),
                    ("min".into(), Json::from(h.min().unwrap_or(0))),
                    ("max".into(), Json::from(h.max().unwrap_or(0))),
                ];
                for q in Quantile::ALL {
                    fields.push((q.label().into(), Json::from(h.quantile(q).unwrap_or(0))));
                }
                (k.to_owned(), Json::Object(fields))
            })
            .collect();
        Json::Object(vec![
            ("counters".into(), Json::Object(counters)),
            ("gauges".into(), Json::Object(Vec::new())),
            ("histograms".into(), Json::Object(histograms)),
        ])
    }
}

/// The capability class of a [`Tracer`] handle: what it collects,
/// independent of which concrete sink backs it.
///
/// A parallel cluster run cannot share one `Tracer` (the handle is
/// deliberately single-threaded); instead each host runs under a
/// fresh tracer **of the same class** ([`Tracer::of_class`]) and the
/// driver merges the buffered events back into the caller's tracer
/// in host order ([`Tracer::record_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerClass {
    /// Collects nothing ([`Tracer::disabled`]).
    Disabled,
    /// Collects metrics, discards events ([`Tracer::noop`]).
    Metrics,
    /// Collects metrics and retains events ([`Tracer::recording`]).
    Recording,
}

#[derive(Debug)]
struct TracerInner {
    sink: Box<dyn TraceSink>,
    events: bool,
    metrics: MetricsRegistry,
    series: SeriesRegistry,
    pid: u32,
    now: SimTime,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
}

/// A cheaply cloneable handle every layer emits trace events and
/// metrics through.
///
/// Clones share state: the host kernel, disk, page cache, eBPF
/// runtime, and fleet scheduler all hold clones of one `Tracer`, so
/// a single drain at the end of a run sees everything in emission
/// order. The default (and [`Tracer::disabled`]) handle carries no
/// allocation; every operation on it returns immediately.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TracerInner>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(inner) => {
                let inner = inner.borrow();
                write!(f, "Tracer(pid={}, events={})", inner.pid, inner.events)
            }
        }
    }
}

impl Tracer {
    /// A handle that drops everything — the zero-cost default.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A handle that collects metrics but discards events (the
    /// [`NoopSink`]).
    pub fn noop() -> Tracer {
        Tracer::with_sink(Box::new(NoopSink))
    }

    /// A handle that collects metrics and buffers every event in
    /// memory (the [`RecordingSink`]); drain with
    /// [`Tracer::take_events`].
    pub fn recording() -> Tracer {
        Tracer::with_sink(Box::new(RecordingSink::new()))
    }

    /// A handle over a caller-supplied sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Tracer {
        let events = sink.retains();
        Tracer {
            inner: Some(Rc::new(RefCell::new(TracerInner {
                sink,
                events,
                metrics: MetricsRegistry::new(),
                series: SeriesRegistry::new(),
                pid: 1,
                now: SimTime::ZERO,
                process_names: BTreeMap::new(),
                thread_names: BTreeMap::new(),
            }))),
        }
    }

    /// The capability class of this handle (see [`TracerClass`]).
    /// Custom sinks classify by whether they retain events.
    pub fn class(&self) -> TracerClass {
        match &self.inner {
            None => TracerClass::Disabled,
            Some(inner) if inner.borrow().events => TracerClass::Recording,
            Some(_) => TracerClass::Metrics,
        }
    }

    /// A fresh, independent tracer of the given capability class —
    /// the per-host tracer a cluster run forks for each host world.
    pub fn of_class(class: TracerClass) -> Tracer {
        match class {
            TracerClass::Disabled => Tracer::disabled(),
            TracerClass::Metrics => Tracer::noop(),
            TracerClass::Recording => Tracer::recording(),
        }
    }

    /// `true` when this handle collects anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when emitted events are actually retained — callers
    /// with expensive argument construction guard on this.
    pub fn events_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.borrow().events)
    }

    /// Sets the Chrome `pid` stamped on subsequent events (one host /
    /// fleet run per pid; defaults to 1).
    pub fn set_pid(&self, pid: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().pid = pid;
        }
    }

    /// Names the current process (Perfetto shows it as the process
    /// row label).
    pub fn name_process(&self, name: &str) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let pid = inner.pid;
            inner.process_names.insert(pid, name.to_owned());
        }
    }

    /// Names a track (thread row) under the current process.
    pub fn name_thread(&self, tid: u64, name: &str) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let pid = inner.pid;
            inner.thread_names.insert((pid, tid), name.to_owned());
        }
    }

    /// Advances the tracer's notion of "current virtual time" — used
    /// to stamp events from layers that observe state changes without
    /// carrying an explicit timestamp (e.g. the page cache).
    pub fn advance_clock(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now = now;
        }
    }

    /// The most recently advanced virtual time ([`SimTime::ZERO`]
    /// when disabled).
    pub fn now(&self) -> SimTime {
        self.inner
            .as_ref()
            .map_or(SimTime::ZERO, |i| i.borrow().now)
    }

    /// Emits a complete span from `begin` to `end` on track `tid`.
    /// Dropped (without constructing the event) unless events are
    /// retained.
    pub fn span(
        &self,
        cat: &'static str,
        name: &str,
        tid: u64,
        begin: SimTime,
        end: SimTime,
        args: Vec<(&'static str, TraceValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            if !inner.events {
                return;
            }
            let pid = inner.pid;
            inner.sink.record(TraceEvent {
                pid,
                tid,
                ts: begin,
                dur: Some(end.saturating_since(begin)),
                phase: TracePhase::Complete,
                cat,
                name: name.to_owned(),
                args,
            });
        }
    }

    /// Emits an instant event at `at` on track `tid`.
    pub fn instant(
        &self,
        cat: &'static str,
        name: &str,
        tid: u64,
        at: SimTime,
        args: Vec<(&'static str, TraceValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            if !inner.events {
                return;
            }
            let pid = inner.pid;
            inner.sink.record(TraceEvent {
                pid,
                tid,
                ts: at,
                dur: None,
                phase: TracePhase::Instant,
                cat,
                name: name.to_owned(),
                args,
            });
        }
    }

    /// Emits an instant event at the tracer's current clock (see
    /// [`Tracer::advance_clock`]).
    pub fn instant_now(
        &self,
        cat: &'static str,
        name: &str,
        tid: u64,
        args: Vec<(&'static str, TraceValue)>,
    ) {
        let at = self.now();
        self.instant(cat, name, tid, at, args);
    }

    /// Adds `n` to the metrics counter.
    pub fn add(&self, metric: Metric, n: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().metrics.add(metric, n);
        }
    }

    /// Adds one to the metrics counter.
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Records `v` into the histogram.
    pub fn observe(&self, metric: Metric, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().metrics.observe(metric, v);
        }
    }

    /// Records a duration into the histogram.
    pub fn observe_duration(&self, metric: Metric, d: SimDuration) {
        self.observe(metric, d.as_nanos());
    }

    /// Current value of the named counter (0 when disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().metrics.counter(name))
    }

    /// A snapshot of the metrics registry (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.inner
            .as_ref()
            .map_or_else(MetricsRegistry::new, |i| i.borrow().metrics.clone())
    }

    /// Records one windowed time-series sample at virtual time `at`
    /// (see [`SeriesRegistry::record`]). Dropped when disabled;
    /// collected for metrics-only handles too, like counters.
    pub fn series_record(&self, metric: Metric, function: &str, at: SimTime, value: f64) {
        debug_assert!(metric.info().kind.is_series(), "{metric:?} is not a series");
        if let Some(inner) = &self.inner {
            inner
                .borrow_mut()
                .series
                .record(metric.name(), function, at, value);
        }
    }

    /// A snapshot of the windowed time series (empty when disabled).
    pub fn series_snapshot(&self) -> SeriesRegistry {
        self.inner
            .as_ref()
            .map_or_else(SeriesRegistry::new, |i| i.borrow().series.clone())
    }

    /// Folds a series registry into this tracer's (see
    /// [`SeriesRegistry::merge`]) — the cluster driver calls this in
    /// ascending host-index order at the end of a run so merged
    /// series are byte-identical at any worker-thread count.
    pub fn merge_series(&self, other: &SeriesRegistry) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().series.merge(other);
        }
    }

    /// Records pre-stamped events through the sink verbatim (pids,
    /// tids, and timestamps untouched) — how a cluster driver feeds
    /// per-host buffers back into the caller's tracer in canonical
    /// host order. Dropped unless events are retained.
    pub fn record_all(&self, events: Vec<TraceEvent>) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            if !inner.events {
                return;
            }
            for event in events {
                inner.sink.record(event);
            }
        }
    }

    /// Drains the sink's buffered events only — no metadata rows,
    /// unlike [`Tracer::take_events`]. Empty for disabled and no-op
    /// handles.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow_mut().sink.drain())
    }

    /// Removes and returns the process / thread name maps.
    #[allow(clippy::type_complexity)]
    pub fn take_names(&self) -> (BTreeMap<u32, String>, BTreeMap<(u32, u64), String>) {
        match &self.inner {
            None => (BTreeMap::new(), BTreeMap::new()),
            Some(inner) => {
                let mut inner = inner.borrow_mut();
                (
                    std::mem::take(&mut inner.process_names),
                    std::mem::take(&mut inner.thread_names),
                )
            }
        }
    }

    /// Folds explicit process / thread name maps into this tracer's
    /// (later inserts win on key collisions, which cannot happen when
    /// each source used a distinct pid).
    pub fn merge_names(
        &self,
        processes: BTreeMap<u32, String>,
        threads: BTreeMap<(u32, u64), String>,
    ) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            inner.process_names.extend(processes);
            inner.thread_names.extend(threads);
        }
    }

    /// Folds a metrics registry into this tracer's: counters add,
    /// histograms merge (see [`MetricsRegistry::merge`]).
    pub fn merge_metrics(&self, other: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().metrics.merge(other);
        }
    }

    /// Drains recorded events: metadata (process / thread names)
    /// first, then every buffered event in emission order. Empty for
    /// disabled and no-op handles.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut inner = inner.borrow_mut();
        let mut out = Vec::new();
        for (&pid, name) in &inner.process_names {
            out.push(TraceEvent {
                pid,
                tid: 0,
                ts: SimTime::ZERO,
                dur: None,
                phase: TracePhase::Metadata,
                cat: "__metadata",
                name: "process_name".to_owned(),
                args: vec![("name", TraceValue::Str(name.clone()))],
            });
        }
        for (&(pid, tid), name) in &inner.thread_names {
            out.push(TraceEvent {
                pid,
                tid,
                ts: SimTime::ZERO,
                dur: None,
                phase: TracePhase::Metadata,
                cat: "__metadata",
                name: "thread_name".to_owned(),
                args: vec![("name", TraceValue::Str(name.clone()))],
            });
        }
        out.extend(inner.sink.drain());
        out
    }
}

/// Assembles events (and an optional metrics snapshot) into a Chrome
/// trace-event JSON document: `{"traceEvents": [...],
/// "displayTimeUnit": "ms", "metrics": {...}}`. The extra `metrics`
/// key is ignored by Perfetto and `chrome://tracing`.
pub fn chrome_trace_json(events: &[TraceEvent], metrics: Option<&MetricsRegistry>) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        (
            "traceEvents".into(),
            Json::Array(events.iter().map(TraceEvent::to_chrome_json).collect()),
        ),
        ("displayTimeUnit".into(), Json::from("ms")),
    ];
    if let Some(m) = metrics {
        fields.push(("metrics".into(), m.to_json()));
    }
    Json::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.is_enabled());
        assert!(!tr.events_enabled());
        tr.incr(Metric::FleetArrivals);
        tr.span("c", "n", 0, t(0), t(10), Vec::new());
        tr.instant("c", "n", 0, t(5), Vec::new());
        tr.advance_clock(t(99));
        assert_eq!(tr.now(), SimTime::ZERO);
        assert_eq!(tr.counter("fleet.arrivals"), 0);
        assert!(tr.take_events().is_empty());
        assert!(tr.metrics_snapshot().is_empty());
    }

    #[test]
    fn noop_sink_keeps_metrics_drops_events() {
        let tr = Tracer::noop();
        assert!(tr.is_enabled());
        assert!(!tr.events_enabled());
        tr.incr(Metric::MemCacheHits);
        tr.add(Metric::MemCacheHits, 2);
        tr.observe(Metric::StorageQueueDepth, 10);
        tr.span("c", "n", 0, t(0), t(10), Vec::new());
        assert_eq!(tr.counter("mem.cache.hits"), 3);
        let m = tr.metrics_snapshot();
        assert_eq!(m.histogram("storage.queue.depth").unwrap().count(), 1);
        assert!(tr.take_events().is_empty());
    }

    #[test]
    fn recording_sink_buffers_in_order() {
        let tr = Tracer::recording();
        tr.span(
            "storage",
            "read",
            TID_DISK,
            t(100),
            t(400),
            vec![("blocks", 8u64.into())],
        );
        tr.instant("fleet", "shed", TID_CONTROL, t(200), Vec::new());
        let events = tr.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "read");
        assert_eq!(events[0].dur, Some(SimDuration::from_nanos(300)));
        assert_eq!(events[1].phase, TracePhase::Instant);
        // Drained: a second take is empty.
        assert!(tr.take_events().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let tr = Tracer::recording();
        let other = tr.clone();
        other.incr(Metric::FleetShed);
        other.instant("c", "e", 0, t(1), Vec::new());
        assert_eq!(tr.counter("fleet.shed"), 1);
        assert_eq!(tr.take_events().len(), 1);
    }

    #[test]
    fn clock_advances_and_stamps_instants() {
        let tr = Tracer::recording();
        tr.advance_clock(t(777));
        assert_eq!(tr.now(), t(777));
        tr.instant_now("c", "e", 3, Vec::new());
        let events = tr.take_events();
        assert_eq!(events[0].ts, t(777));
        assert_eq!(events[0].tid, 3);
    }

    #[test]
    fn metadata_events_precede_payload() {
        let tr = Tracer::recording();
        tr.set_pid(4);
        tr.name_process("SnapBPF");
        tr.name_thread(sandbox_tid(0), "sandbox-0");
        tr.instant("c", "e", sandbox_tid(0), t(5), Vec::new());
        let events = tr.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].phase, TracePhase::Metadata);
        assert_eq!(events[0].name, "process_name");
        assert_eq!(events[1].name, "thread_name");
        assert_eq!(events[2].pid, 4);
    }

    #[test]
    fn chrome_json_shape_parses_back() {
        let tr = Tracer::recording();
        tr.span(
            "restore",
            "metadata-load",
            sandbox_tid(1),
            t(1_000),
            t(26_000),
            Vec::new(),
        );
        tr.incr(Metric::FleetColdStarts);
        let json = chrome_trace_json(&tr.take_events(), Some(&tr.metrics_snapshot()));
        let text = json.pretty();
        let back = Json::parse(&text).expect("round-trips");
        let events = match &back["traceEvents"] {
            Json::Array(a) => a,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[0]["ts"].as_f64(), Some(1.0));
        assert_eq!(events[0]["dur"].as_f64(), Some(25.0));
        assert_eq!(events[0]["tid"].as_f64(), Some(17.0));
        assert_eq!(
            back["metrics"]["counters"]["fleet.cold_starts"].as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn class_round_trips_through_of_class() {
        for class in [
            TracerClass::Disabled,
            TracerClass::Metrics,
            TracerClass::Recording,
        ] {
            assert_eq!(Tracer::of_class(class).class(), class);
        }
        // A custom retaining sink classifies as recording.
        let tr = Tracer::with_sink(Box::new(RecordingSink::new()));
        assert_eq!(tr.class(), TracerClass::Recording);
    }

    #[test]
    fn record_all_feeds_pre_stamped_events_through_the_sink() {
        let host = Tracer::recording();
        host.set_pid(7);
        host.instant("c", "e", 3, t(10), Vec::new());
        let caller = Tracer::recording();
        caller.record_all(host.drain_events());
        let merged = caller.take_events();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].pid, 7, "pids pass through verbatim");
        assert_eq!(merged[0].ts, t(10));
        // A non-retaining caller drops them.
        let noop = Tracer::noop();
        host.instant("c", "e", 3, t(11), Vec::new());
        noop.record_all(host.drain_events());
        assert!(noop.take_events().is_empty());
    }

    #[test]
    fn names_and_metrics_merge_across_tracers() {
        let host = Tracer::recording();
        host.set_pid(2);
        host.name_process("host 1");
        host.name_thread(5, "track");
        host.incr(Metric::MemCacheMisses);
        host.observe(Metric::StorageQueueDepth, 7);
        let caller = Tracer::recording();
        let (procs, threads) = host.take_names();
        caller.merge_names(procs, threads);
        caller.merge_metrics(&host.metrics_snapshot());
        caller.incr(Metric::MemCacheMisses);
        assert_eq!(caller.counter("mem.cache.misses"), 2);
        let m = caller.metrics_snapshot();
        assert_eq!(m.histogram("storage.queue.depth").unwrap().count(), 1);
        let events = caller.take_events();
        assert_eq!(events.len(), 2, "both name rows surface as metadata");
        assert!(events.iter().all(|e| e.phase == TracePhase::Metadata));
        assert_eq!(events[0].pid, 2);
        // Source maps were drained.
        let (procs, threads) = host.take_names();
        assert!(procs.is_empty() && threads.is_empty());
    }

    #[test]
    fn series_flow_through_tracers_like_metrics() {
        // Disabled handles drop series samples silently.
        let off = Tracer::disabled();
        off.series_record(Metric::FleetColdStartNs, "image", t(1), 5.0);
        assert!(off.series_snapshot().is_empty());

        // Metrics-only handles collect them, and a caller merges
        // per-host snapshots exactly like metrics registries.
        let host = Tracer::noop();
        host.series_record(Metric::FleetColdStartNs, "image", t(1), 5.0);
        host.series_record(Metric::FleetColdStartNs, "image", t(2), 7.0);
        let caller = Tracer::recording();
        caller.series_record(Metric::FleetColdStartNs, "json", t(3), 11.0);
        caller.merge_series(&host.series_snapshot());
        let merged = caller.series_snapshot();
        assert_eq!(merged.len(), 2);
        let bins = |f| merged.get("fleet.cold_start_ns", f).unwrap();
        assert_eq!(bins("image")[&0].count(), 2);
        assert_eq!(bins("json")[&0].sum(), 11.0);
    }

    #[test]
    fn registry_merge_and_json() {
        let mut a = MetricsRegistry::new();
        a.add(Metric::FleetArrivals, 1);
        a.observe(Metric::StorageQueueDepth, 4);
        let mut b = MetricsRegistry::new();
        b.add(Metric::FleetArrivals, 2);
        b.add(Metric::FleetShed, 0);
        b.observe(Metric::StorageQueueDepth, 8);
        b.observe(Metric::VmmUffdWaitNs, 9);
        a.merge(&b);
        assert_eq!(a.counter("fleet.arrivals"), 3);
        assert_eq!(a.histogram("storage.queue.depth").unwrap().count(), 2);
        assert_eq!(a.histogram("vmm.uffd.wait_ns").unwrap().count(), 1);
        let names: Vec<&str> = a.counters().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            ["fleet.arrivals", "fleet.shed"],
            "a zero-valued add still creates the counter"
        );
        assert_eq!(a.gauges().count(), 0);
        let text = a.to_json().pretty();
        assert!(text.contains("\"p99.9\""));
        assert!(text.contains("\"gauges\": {}"), "{text}");
    }

    #[test]
    fn reads_by_unknown_or_untouched_names_are_empty() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.incr(Metric::MemCacheHits);
        assert_eq!(m.counter("mem.cache.misses"), 0);
        assert_eq!(m.counter("no.such.metric"), 0);
        assert!(m.histogram("no.such.metric").is_none());
        assert!(!m.is_empty());
    }
}
