//! The unified entry point for fleet and cluster simulations.
//!
//! [`Runner`] is one builder for every run shape: configuration that
//! historically was encoded in *which free function you called* —
//! tracing or not, single host or cluster — is plain state on the
//! builder, and the execution backend (inline or the segment engine's
//! thread pool, DESIGN.md §11) is a [`Runner::threads`] knob instead
//! of a different API.
//!
//! ```
//! use snapbpf::StrategyKind;
//! use snapbpf_fleet::{FleetConfig, PlacementKind, Runner};
//! use snapbpf_sim::SimDuration;
//! use snapbpf_workloads::Workload;
//!
//! let workloads: Vec<Workload> = Workload::suite().into_iter().take(3).collect();
//! let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), 30.0)
//!     .sharded(3, PlacementKind::Locality);
//! cfg.scale = 0.02;
//! cfg.duration = SimDuration::from_millis(300);
//!
//! let result = Runner::new(&cfg)
//!     .workloads(&workloads)
//!     .threads(2)
//!     .run()
//!     .unwrap()
//!     .into_cluster()
//!     .unwrap();
//! assert_eq!(result.hosts.len(), 3);
//! assert_eq!(result.placed(), result.aggregate.arrivals);
//! ```

use snapbpf::StrategyError;
use snapbpf_sim::Tracer;
use snapbpf_workloads::Workload;

use crate::cluster::{cluster_impl, validate, ClusterResult};
use crate::config::FleetConfig;
use crate::metrics::FleetResult;
use crate::placement::PlacementPolicy;

/// What a [`Runner`] run produced: a [`FleetResult`] for a
/// single-host configuration, a [`ClusterResult`] otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutput {
    /// `cfg.hosts == 1`: the single-host fleet path ran.
    Fleet(FleetResult),
    /// `cfg.hosts > 1`: the cluster path ran.
    Cluster(ClusterResult),
}

impl RunOutput {
    /// The fleet result, if this was a single-host run.
    pub fn into_fleet(self) -> Option<FleetResult> {
        match self {
            RunOutput::Fleet(r) => Some(r),
            RunOutput::Cluster(_) => None,
        }
    }

    /// The cluster result, if this was a multi-host run.
    pub fn into_cluster(self) -> Option<ClusterResult> {
        match self {
            RunOutput::Fleet(_) => None,
            RunOutput::Cluster(r) => Some(r),
        }
    }

    /// The run-wide aggregate statistics, whichever shape ran.
    pub fn aggregate(&self) -> &crate::FuncStats {
        match self {
            RunOutput::Fleet(r) => &r.aggregate,
            RunOutput::Cluster(r) => &r.aggregate,
        }
    }

    /// The run's merged metrics registry, whichever shape ran.
    pub fn metrics(&self) -> &snapbpf_sim::MetricsRegistry {
        match self {
            RunOutput::Fleet(r) => &r.metrics,
            RunOutput::Cluster(r) => &r.metrics,
        }
    }

    /// The run's windowed per-function time series (scheduler samples
    /// plus in-kernel eBPF telemetry), whichever shape ran. Cluster
    /// runs merge per-host series in host index order, so the
    /// snapshot is byte-identical at any thread count.
    pub fn series(&self) -> &snapbpf_sim::SeriesRegistry {
        match self {
            RunOutput::Fleet(r) => &r.series,
            RunOutput::Cluster(r) => &r.series,
        }
    }
}

/// Builder-style entry point for fleet and cluster simulations (see
/// the module docs).
///
/// Defaults: no workloads (a [`StrategyError::Config`] at
/// [`Runner::run`] unless set), a metrics-only tracer, one thread,
/// and the placement policy named by `cfg.placement`.
pub struct Runner<'a> {
    cfg: &'a FleetConfig,
    workloads: &'a [Workload],
    tracer: Option<&'a Tracer>,
    threads: usize,
    placement: Option<Box<dyn PlacementPolicy>>,
}

impl<'a> Runner<'a> {
    /// Starts a run of `cfg`.
    pub fn new(cfg: &'a FleetConfig) -> Runner<'a> {
        Runner {
            cfg,
            workloads: &[],
            tracer: None,
            threads: 1,
            placement: None,
        }
    }

    /// The workload list the run simulates; `cfg.mix` must cover
    /// exactly this many functions.
    pub fn workloads(mut self, workloads: &'a [Workload]) -> Runner<'a> {
        self.workloads = workloads;
        self
    }

    /// Collects events and metrics through `tracer` (pass
    /// [`Tracer::recording`] to retain Chrome trace events). Tracing
    /// never perturbs the simulation.
    pub fn tracer(mut self, tracer: &'a Tracer) -> Runner<'a> {
        self.tracer = Some(tracer);
        self
    }

    /// Worker threads for the cluster's segment engine
    /// (DESIGN.md §11). `0` means "all available cores"; the count
    /// is clamped to the host count. Any value produces the same
    /// results and byte-identical traces — threads only change
    /// wall-clock time. Single-host runs ignore this. Default: 1.
    pub fn threads(mut self, threads: usize) -> Runner<'a> {
        self.threads = threads;
        self
    }

    /// Substitutes a caller-supplied placement policy for the one
    /// named by `cfg.placement` — the hook custom policies and the
    /// out-of-range regression tests use. Cluster runs only
    /// (single-host runs never consult placement).
    pub fn placement(mut self, policy: Box<dyn PlacementPolicy>) -> Runner<'a> {
        self.placement = Some(policy);
        self
    }

    /// Executes the run: the single-host fleet path when
    /// `cfg.hosts == 1`, the cluster path otherwise.
    ///
    /// # Errors
    ///
    /// [`StrategyError::Config`] for an invalid configuration (zero
    /// hosts, an empty or mismatched function mix, zero
    /// `max_concurrency`, a scale outside `(0, 1]`, an invalid arrival
    /// process, a placement decision outside the host range); strategy
    /// and kernel errors propagate.
    pub fn run(self) -> Result<RunOutput, StrategyError> {
        let fallback = Tracer::noop();
        let tracer = self.tracer.unwrap_or(&fallback);
        validate(self.cfg, self.workloads)?;
        if self.cfg.hosts == 1 {
            return crate::fleet_impl(self.cfg, self.workloads, tracer).map(RunOutput::Fleet);
        }
        let mut policy = self.placement.unwrap_or_else(|| self.cfg.placement.build());
        cluster_impl(
            self.cfg,
            self.workloads,
            tracer,
            self.threads,
            policy.as_mut(),
        )
        .map(RunOutput::Cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf::StrategyKind;
    use snapbpf_sim::SimDuration;
    use snapbpf_testkit::small_suite;

    fn small_cfg(rate_rps: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 3, rate_rps);
        cfg.scale = 0.02;
        cfg.duration = SimDuration::from_millis(300);
        cfg
    }

    #[test]
    fn single_host_runs_produce_fleet_results() {
        let w = small_suite();
        let out = Runner::new(&small_cfg(40.0)).workloads(&w).run().unwrap();
        let fleet = out.into_fleet().expect("hosts == 1 is a fleet run");
        assert!(fleet.aggregate.arrivals > 0);
    }

    #[test]
    fn multi_host_runs_produce_cluster_results() {
        let w = small_suite();
        let cfg = small_cfg(40.0).sharded(2, crate::PlacementKind::Hash);
        let out = Runner::new(&cfg).workloads(&w).run().unwrap();
        assert!(matches!(out, RunOutput::Cluster(_)));
        assert!(out.aggregate().arrivals > 0);
        let cluster = out.into_cluster().unwrap();
        assert_eq!(cluster.hosts.len(), 2);
    }

    #[test]
    fn missing_workloads_is_a_config_error() {
        let cfg = small_cfg(40.0);
        let err = Runner::new(&cfg).run().unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
    }

    #[test]
    fn series_surface_through_run_output_for_both_shapes() {
        let w = small_suite();
        let fleet = Runner::new(&small_cfg(40.0)).workloads(&w).run().unwrap();
        assert!(
            !fleet.series().is_empty(),
            "a single-host run records windowed series"
        );

        let cfg = small_cfg(40.0).sharded(3, crate::PlacementKind::Locality);
        let cluster = Runner::new(&cfg).workloads(&w).run().unwrap();
        assert!(
            !cluster.series().is_empty(),
            "a cluster run merges per-host series"
        );
    }
}
