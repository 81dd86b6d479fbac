//! Fleet measurement: per-function and aggregate latency
//! distributions, start-type counters, and host-level resource
//! high-water marks.

use snapbpf::{RestoreStage, StageTimings};
use snapbpf_sim::{Histogram, MetricsRegistry, SeriesRegistry, SimDuration};

use crate::config::TenancyConfig;

/// Latency and volume statistics for one function (or the
/// fleet-wide aggregate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncStats {
    /// Function name ("all" for the aggregate).
    pub name: String,
    /// Requests that arrived (admitted or shed).
    pub arrivals: u64,
    /// Invocations that ran to completion.
    pub completions: u64,
    /// Completions that went through a cold start (restore).
    pub cold_starts: u64,
    /// Completions served by a kept-alive warm sandbox.
    pub warm_starts: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Invocations lost to a host crash (in-flight or queued) and
    /// never completed.
    pub failed: u64,
    /// Invocations a crash converted into a retry arrival (each
    /// retried arrival is re-placed exactly once; its outcome is
    /// counted against the new arrival).
    pub retried: u64,
    /// End-to-end latency (arrival to completion), ns.
    pub e2e: Histogram,
    /// Admission-queue wait (arrival to dispatch), ns.
    pub queue_wait: Histogram,
    /// Restore latency (dispatch to guest-execution start; zero for
    /// warm starts), ns.
    pub restore: Histogram,
    /// Guest execution (start to completion), ns.
    pub exec: Histogram,
    /// Per-restore-stage durations of cold starts, indexed by
    /// [`RestoreStage::index`], ns.
    pub stage_breakdown: [Histogram; 4],
}

impl FuncStats {
    /// A fresh, empty record for `name`.
    pub fn new(name: &str) -> FuncStats {
        FuncStats {
            name: name.to_owned(),
            ..FuncStats::default()
        }
    }

    /// Records one completed invocation. `stages` is the restore's
    /// per-stage breakdown — present exactly for cold starts.
    pub fn record(
        &mut self,
        cold: bool,
        e2e: SimDuration,
        queue_wait: SimDuration,
        restore: SimDuration,
        exec: SimDuration,
        stages: Option<&StageTimings>,
    ) {
        self.completions += 1;
        if cold {
            self.cold_starts += 1;
        } else {
            self.warm_starts += 1;
        }
        self.e2e.record_duration(e2e);
        self.queue_wait.record_duration(queue_wait);
        self.restore.record_duration(restore);
        self.exec.record_duration(exec);
        if let Some(stages) = stages {
            for stage in RestoreStage::ALL {
                self.stage_breakdown[stage.index()].record_duration(stages.get(stage));
            }
        }
    }

    /// Fraction of completions that started cold (1.0 when nothing
    /// completed, the conservative reading).
    pub fn cold_start_ratio(&self) -> f64 {
        if self.completions == 0 {
            return 1.0;
        }
        self.cold_starts as f64 / self.completions as f64
    }

    /// The `p`-th end-to-end latency percentile in seconds (0 when
    /// nothing completed).
    pub fn e2e_percentile_secs(&self, p: f64) -> f64 {
        self.e2e.percentile_secs(p)
    }

    /// Mean admission-queue wait in seconds.
    pub fn queue_wait_mean_secs(&self) -> f64 {
        self.queue_wait.mean_secs()
    }

    /// The `p`-th cold-start latency percentile in seconds (dispatch
    /// to guest-execution start; 0 when nothing completed).
    pub fn restore_percentile_secs(&self, p: f64) -> f64 {
        self.restore.percentile_secs(p)
    }

    /// Mean restore latency in seconds.
    pub fn restore_mean_secs(&self) -> f64 {
        self.restore.mean_secs()
    }

    /// Mean guest-execution time in seconds.
    pub fn exec_mean_secs(&self) -> f64 {
        self.exec.mean_secs()
    }

    /// Mean duration of one restore stage across cold starts, in
    /// seconds (0 when no cold start completed).
    pub fn restore_stage_mean_secs(&self, stage: RestoreStage) -> f64 {
        self.stage_breakdown[stage.index()].mean_secs()
    }

    /// Folds another record into this one (per-function into
    /// aggregate).
    pub fn merge(&mut self, other: &FuncStats) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.cold_starts += other.cold_starts;
        self.warm_starts += other.warm_starts;
        self.shed += other.shed;
        self.failed += other.failed;
        self.retried += other.retried;
        self.e2e.merge(&other.e2e);
        self.queue_wait.merge(&other.queue_wait);
        self.restore.merge(&other.restore);
        self.exec.merge(&other.exec);
        for (mine, theirs) in self.stage_breakdown.iter_mut().zip(&other.stage_breakdown) {
            mine.merge(theirs);
        }
    }
}

/// Merges per-function statistics into per-tenant aggregates under
/// `tenants`, one record per tenant in tenant-id order (named after
/// the tenant's label). Functions with no tenant assignment are
/// skipped — the interference figures compare assigned groups only.
pub fn tenant_aggregates(per_function: &[FuncStats], tenants: &TenancyConfig) -> Vec<FuncStats> {
    let mut out: Vec<FuncStats> = tenants.labels.iter().map(|l| FuncStats::new(l)).collect();
    for (func, stats) in per_function.iter().enumerate() {
        if let Some(t) = tenants.tenant_of(func) {
            out[t].merge(stats);
        }
    }
    out
}

/// Everything a fleet run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Per-function statistics, in workload order.
    pub per_function: Vec<FuncStats>,
    /// Fleet-wide aggregate.
    pub aggregate: FuncStats,
    /// Host memory high-water mark in bytes (sampled at dispatch and
    /// completion instants).
    pub mem_hwm_bytes: u64,
    /// Bytes read from storage during the invocation phase.
    pub read_bytes: u64,
    /// Virtual time from the first arrival to the last completion.
    pub span: SimDuration,
    /// Pool LRU evictions (capacity pressure).
    pub pool_evictions: u64,
    /// Pool TTL expirations.
    pub pool_expirations: u64,
    /// Snapshot of the run's metrics registry: every layer's counters
    /// (page-cache hits, dedup savings, eBPF invocations, scheduler
    /// decisions, …) and histograms.
    pub metrics: MetricsRegistry,
    /// Windowed per-function time series (virtual-time-binned): the
    /// scheduler's hit-ratio and cold-start-latency samples plus the
    /// in-kernel telemetry the eBPF prefetch programs report through
    /// their ring/stats maps.
    pub series: SeriesRegistry,
}

impl FleetResult {
    /// Mean storage read throughput over the measured span, MiB/s —
    /// the disk-utilization proxy the fleet figures report.
    pub fn read_mibps(&self) -> f64 {
        let secs = self.span.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.read_bytes as f64 / (1u64 << 20) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn record_and_ratio() {
        let mut s = FuncStats::new("json");
        assert_eq!(s.cold_start_ratio(), 1.0, "no data reads as all-cold");
        let mut stages = StageTimings::default();
        stages.set(RestoreStage::MetadataLoad, ms(2));
        stages.set(RestoreStage::Resume, ms(8));
        s.record(true, ms(30), ms(5), ms(10), ms(15), Some(&stages));
        s.record(false, ms(16), ms(1), ms(0), ms(15), None);
        s.record(false, ms(15), ms(0), ms(0), ms(15), None);
        assert_eq!(s.completions, 3);
        assert!((s.cold_start_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(s.e2e_percentile_secs(99.0) >= 0.015);
        assert!(s.queue_wait_mean_secs() > 0.0);
        assert!(s.restore_mean_secs() > 0.0);
        assert!(s.exec_mean_secs() > 0.0);
        // Stage breakdown covers cold starts only.
        assert_eq!(s.stage_breakdown[0].count(), 1);
        assert!((s.restore_stage_mean_secs(RestoreStage::Resume) - 0.008).abs() < 1e-9);
        assert_eq!(s.restore_stage_mean_secs(RestoreStage::PrefetchIssue), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FuncStats::new("a");
        a.arrivals = 2;
        a.record(
            true,
            ms(10),
            ms(0),
            ms(4),
            ms(6),
            Some(&StageTimings::default()),
        );
        let mut b = FuncStats::new("b");
        b.arrivals = 3;
        b.shed = 1;
        b.failed = 2;
        b.retried = 1;
        b.record(false, ms(6), ms(0), ms(0), ms(6), None);
        let mut all = FuncStats::new("all");
        all.merge(&a);
        all.merge(&b);
        assert_eq!(all.arrivals, 5);
        assert_eq!(all.completions, 2);
        assert_eq!(all.cold_starts, 1);
        assert_eq!(all.warm_starts, 1);
        assert_eq!(all.shed, 1);
        assert_eq!(all.failed, 2);
        assert_eq!(all.retried, 1);
        assert_eq!(all.e2e.count(), 2);
        assert_eq!(all.stage_breakdown[0].count(), 1);
    }

    #[test]
    fn tenant_aggregates_merge_by_assignment() {
        let tenants = TenancyConfig::round_robin(&["victim", "aggressor"], 3);
        let mut per_function = vec![
            FuncStats::new("a"),
            FuncStats::new("b"),
            FuncStats::new("c"),
        ];
        per_function[0].arrivals = 2;
        per_function[1].arrivals = 5;
        per_function[2].arrivals = 1;
        per_function[2].failed = 1;
        let by_tenant = tenant_aggregates(&per_function, &tenants);
        assert_eq!(by_tenant.len(), 2);
        assert_eq!(by_tenant[0].name, "victim");
        assert_eq!(by_tenant[0].arrivals, 3, "functions 0 and 2");
        assert_eq!(by_tenant[0].failed, 1);
        assert_eq!(by_tenant[1].name, "aggressor");
        assert_eq!(by_tenant[1].arrivals, 5, "function 1");
    }

    #[test]
    fn read_mibps_guards_zero_span() {
        let r = FleetResult {
            strategy: "x",
            per_function: Vec::new(),
            aggregate: FuncStats::new("all"),
            mem_hwm_bytes: 0,
            read_bytes: 1 << 20,
            span: SimDuration::ZERO,
            pool_evictions: 0,
            pool_expirations: 0,
            metrics: MetricsRegistry::default(),
            series: SeriesRegistry::new(),
        };
        assert_eq!(r.read_mibps(), 0.0);
        let r2 = FleetResult {
            span: SimDuration::from_secs(2),
            ..r
        };
        assert!((r2.read_mibps() - 0.5).abs() < 1e-9);
    }
}
