//! # snapbpf-fleet — trace-driven serverless fleet simulation
//!
//! The paper evaluates each restore strategy on isolated invocation
//! batches; this crate closes the loop to what a FaaS deployment
//! actually experiences: an open-loop stream of invocation requests
//! over many functions, contending for disks, page caches, and a
//! bounded sandbox budget — on one host or sharded across a cluster
//! of hosts, both behind the builder-style [`Runner`].
//!
//! A fleet run wires together:
//!
//! * an **arrival process** ([`snapbpf_sim::ArrivalProcess`]) and a
//!   **function popularity mix**
//!   ([`snapbpf_workloads::FunctionMix`]) deciding when requests
//!   arrive and which function they invoke;
//! * a **per-host control plane**: a bounded admission queue with a
//!   configurable shed policy, a keep-alive [`SandboxPool`] with TTL
//!   expiry and LRU eviction, and a restore scheduler that drives
//!   cold starts through any [`snapbpf::Strategy`] onto the shared
//!   [`snapbpf_kernel::HostKernel`];
//! * **fleet metrics** ([`FleetResult`]): per-function and aggregate
//!   p50/p95/p99, cold-start ratio, queueing/restore/compute latency
//!   breakdown, host-memory high-water mark, and disk throughput.
//!
//! A **cluster run** (DESIGN.md §8) owns N such host
//! worlds — each with its own kernel, disk, page cache, and sandbox
//! pool — and routes every arrival through a [`PlacementPolicy`]
//! (consistent-hash, least-loaded, or snapshot-locality-aware),
//! optionally charging a [`SnapshotDistribution`] transfer cost the
//! first time a function cold-starts on a host that does not yet
//! hold its snapshot. Results come back per host and aggregated
//! ([`ClusterResult`]).
//!
//! Determinism: every run is a pure function of ([`FleetConfig`],
//! workload list). Events execute in virtual-time order (the
//! globally earliest of next-arrival, pending restore stage, and
//! in-flight vCPU clock, across all hosts), so disk submissions stay
//! monotone exactly as in the paper-figure engine (DESIGN.md §5).
//! Under [`RestoreMode::Pipelined`] (the default) cold-start
//! restores are themselves staged [`snapbpf::RestoreCursor`]s whose
//! metadata loads, prefetch chunks, and vCPU resume interleave with
//! everything else on the host; [`RestoreMode::Serialized`] recovers
//! the pre-staging behaviour for comparison — each restore runs to
//! full drain inside its dispatch event and the guest only resumes
//! after the last stage completes.
//!
//! Every run goes through one entry point, the builder-style
//! [`Runner`]; the [`RunOutput`] is a [`FleetResult`] for
//! single-host configurations and a [`ClusterResult`] otherwise.
//! Cluster runs execute on the segment engine (DESIGN.md §11):
//! [`Runner::threads`] picks the worker count, and any count
//! produces byte-identical traces and field-identical results.
//!
//! ## Examples
//!
//! ```
//! use snapbpf::StrategyKind;
//! use snapbpf_fleet::{FleetConfig, Runner};
//! use snapbpf_sim::SimDuration;
//! use snapbpf_workloads::Workload;
//!
//! let workloads: Vec<Workload> = Workload::suite().into_iter().take(3).collect();
//! let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), 30.0);
//! cfg.scale = 0.02;
//! cfg.duration = SimDuration::from_millis(300);
//! let result = Runner::new(&cfg).workloads(&workloads).run().unwrap()
//!     .into_fleet().unwrap();
//! assert_eq!(result.aggregate.completions,
//!            result.per_function.iter().map(|f| f.completions).sum::<u64>());
//! ```
//!
//! Sharding the same run over three hosts under locality-aware
//! placement, with two worker threads:
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
//! let result = Runner::new(&cfg).workloads(&workloads).threads(2).run().unwrap()
//!     .into_cluster().unwrap();
//! assert_eq!(result.hosts.len(), 3);
//! assert_eq!(result.placed(), result.aggregate.arrivals);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use snapbpf::StrategyError;
use snapbpf_sim::{Tracer, TID_CONTROL, TID_DISK, TID_KERNEL};
use snapbpf_workloads::Workload;

mod cluster;
mod config;
pub mod figures;
mod host;
mod metrics;
mod placement;
mod pool;
mod runner;
pub mod scenario;

pub use cluster::{ClusterResult, HostResult};
pub use config::{
    FaultEvent, FaultKind, FaultSchedule, FleetConfig, RestoreMode, RetryPolicy,
    SnapshotDistribution, TenancyConfig,
};
pub use metrics::{tenant_aggregates, FleetResult, FuncStats};
pub use placement::{
    HashPlacement, HostView, LeastLoadedPlacement, LocalityPlacement, PlacementKind,
    PlacementPolicy,
};
pub use pool::SandboxPool;
pub use runner::{RunOutput, Runner};
pub use scenario::{conserves_invocations, Scenario, ScenarioParams};

use host::{build_world, draw_arrivals, Host};

/// Rejects a replayed trace whose points name a function index the
/// workload list does not cover (a recorded schedule only makes
/// sense against at least as many functions as it was captured
/// with).
pub(crate) fn validate_trace_funcs(
    cfg: &FleetConfig,
    workloads: &[Workload],
) -> Result<(), StrategyError> {
    if let Some(max) = cfg.arrival.trace().and_then(|t| t.max_func()) {
        if max as usize >= workloads.len() {
            return Err(StrategyError::Config(format!(
                "trace names function index {max} but only {} workloads are configured",
                workloads.len()
            )));
        }
    }
    Ok(())
}

/// The single-host execution path behind [`Runner`]. Assumes a
/// validated configuration.
///
/// The tracer is installed on the host kernel for the invocation
/// phase only (setup — snapshot creation and strategy recording —
/// stays untraced, matching the cache-cold measurement boundary).
/// Tracing never perturbs the simulation: a run with a recording
/// tracer produces a [`FleetResult`] equal to one with
/// [`Tracer::noop`] (virtual time never consults the tracer).
pub(crate) fn fleet_impl(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
) -> Result<FleetResult, StrategyError> {
    let world = build_world(cfg, workloads)?;
    let t0 = world.t0;
    let mut fleet = Host::from_world(world, cfg, tracer);
    if tracer.events_enabled() {
        tracer.name_thread(TID_CONTROL, "scheduler");
        tracer.name_thread(TID_DISK, "disk");
        tracer.name_thread(TID_KERNEL, "kernel");
    }

    // Main loop: drain every in-flight sandbox event up to each
    // arrival (events scheduled exactly at the arrival instant
    // execute first), admit the arrival, and finally run the tail to
    // quiescence — what each cluster host does with its own arrivals
    // within a segment.
    let arrivals = draw_arrivals(cfg, t0);
    let first_arrival = arrivals.first().map(|r| r.at).unwrap_or(t0);
    for req in arrivals {
        fleet.advance_until(Some(req.at))?;
        fleet.handle_arrival(req)?;
    }
    fleet.advance_until(None)?;

    // End of run: tear every parked sandbox down and verify the
    // host's memory accounting closed.
    fleet.teardown()?;

    let mut aggregate = FuncStats::new("all");
    for f in &fleet.per_func {
        aggregate.merge(f);
    }
    let metrics = tracer.metrics_snapshot();
    Ok(FleetResult {
        strategy: cfg.strategy.label(),
        per_function: fleet.per_func,
        aggregate,
        mem_hwm_bytes: fleet.mem_hwm_bytes,
        read_bytes: fleet.kernel.disk().read_bytes(),
        span: fleet.last_completion.saturating_since(first_arrival),
        pool_evictions: fleet.pool.evictions(),
        pool_expirations: fleet.pool.expirations(),
        metrics,
        series: tracer.series_snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf::StrategyKind;
    use snapbpf_sim::SimDuration;
    // `snapbpf_testkit` supplies the workload fixtures; its config
    // helpers return the *externally built* `snapbpf_fleet` types
    // (cargo's dev-dependency cycle builds this crate twice), so the
    // config helper stays local to unit tests. Integration tests
    // (`tests/`) link the same build as testkit and use its helpers.
    use snapbpf_testkit::small_suite;

    fn small_cfg(kind: StrategyKind, rate_rps: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(kind, 3, rate_rps);
        cfg.scale = 0.02;
        cfg.duration = SimDuration::from_millis(500);
        cfg
    }

    fn run_fleet(cfg: &FleetConfig, w: &[Workload]) -> Result<FleetResult, StrategyError> {
        Runner::new(cfg)
            .workloads(w)
            .run()
            .map(|out| out.into_fleet().expect("hosts == 1"))
    }

    fn run_fleet_with(
        cfg: &FleetConfig,
        w: &[Workload],
        tracer: &Tracer,
    ) -> Result<FleetResult, StrategyError> {
        Runner::new(cfg)
            .workloads(w)
            .tracer(tracer)
            .run()
            .map(|out| out.into_fleet().expect("hosts == 1"))
    }

    #[test]
    fn fleet_completes_everything_it_admits() {
        let w = small_suite();
        let r = run_fleet(&small_cfg(StrategyKind::SnapBpf, 40.0), &w).unwrap();
        assert!(r.aggregate.arrivals > 0);
        assert_eq!(
            r.aggregate.completions + r.aggregate.shed,
            r.aggregate.arrivals
        );
        assert_eq!(
            r.aggregate.cold_starts + r.aggregate.warm_starts,
            r.aggregate.completions
        );
        assert!(r.span > SimDuration::ZERO);
        assert!(r.mem_hwm_bytes > 0);
        assert_eq!(r.per_function.len(), 3);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let w = small_suite();
        let cfg = small_cfg(StrategyKind::Reap, 30.0);
        let a = run_fleet(&cfg, &w).unwrap();
        let b = run_fleet(&cfg, &w).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn keepalive_pool_produces_warm_starts() {
        let w = small_suite();
        let cfg = small_cfg(StrategyKind::SnapBpf, 60.0);
        let pooled = run_fleet(&cfg, &w).unwrap();
        assert!(
            pooled.aggregate.warm_starts > 0,
            "a keep-alive pool must serve warm starts at 60 rps"
        );
        let cold = run_fleet(&cfg.clone().cold_only(), &w).unwrap();
        assert_eq!(cold.aggregate.warm_starts, 0);
        assert_eq!(cold.aggregate.cold_start_ratio(), 1.0);
        assert!(
            pooled.aggregate.cold_start_ratio() < cold.aggregate.cold_start_ratio(),
            "pooling must reduce the cold-start ratio"
        );
        // Warm starts skip the restore path entirely.
        assert!(
            pooled.aggregate.e2e_percentile_secs(50.0) <= cold.aggregate.e2e_percentile_secs(50.0)
        );
    }

    #[test]
    fn overload_sheds_and_queues() {
        let w = small_suite();
        let mut cfg = small_cfg(StrategyKind::Reap, 400.0);
        cfg.max_concurrency = 2;
        cfg.queue_depth = 4;
        cfg.pool_capacity = 0;
        let r = run_fleet(&cfg, &w).unwrap();
        assert!(r.aggregate.shed > 0, "400 rps into 2 slots must shed");
        assert!(
            r.aggregate.queue_wait_mean_secs() > 0.0,
            "overload must produce queueing delay"
        );
    }

    #[test]
    fn runner_reports_mismatched_mix_as_a_config_error() {
        let cfg = FleetConfig::new(StrategyKind::SnapBpf, 2, 10.0);
        let err = Runner::new(&cfg)
            .workloads(&small_suite())
            .run()
            .unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("covers 2 functions"), "{err}");
    }

    #[test]
    fn tracing_does_not_perturb_results_and_reconciles() {
        use snapbpf::RestoreStage;
        let w = small_suite();
        let cfg = small_cfg(StrategyKind::SnapBpf, 40.0);
        let noop = run_fleet_with(&cfg, &w, &Tracer::noop()).unwrap();
        let tracer = Tracer::recording();
        let rec = run_fleet_with(&cfg, &w, &tracer).unwrap();
        assert_eq!(
            noop, rec,
            "retaining trace events must not change virtual-time results"
        );

        // The scheduler's counters account for exactly the decisions
        // the latency metrics saw.
        assert_eq!(
            rec.metrics.counter("fleet.arrivals"),
            rec.aggregate.arrivals
        );
        assert_eq!(
            rec.metrics.counter("fleet.cold_starts"),
            rec.aggregate.cold_starts
        );
        assert_eq!(
            rec.metrics.counter("fleet.warm_hits"),
            rec.aggregate.warm_starts
        );
        assert_eq!(rec.metrics.counter("fleet.shed"), rec.aggregate.shed);
        assert_eq!(
            rec.metrics.counter("fleet.pool_evictions"),
            rec.pool_evictions
        );
        assert_eq!(
            rec.metrics.counter("fleet.pool_expirations"),
            rec.pool_expirations
        );

        // Restore-stage spans in the trace reconcile with the
        // aggregate stage-breakdown histograms: same total time per
        // stage (stages that never execute record zero and emit no
        // span).
        let events = tracer.take_events();
        assert!(!events.is_empty(), "a recording tracer retains events");
        for stage in RestoreStage::ALL {
            let hist = &rec.aggregate.stage_breakdown[stage.index()];
            let span_sum: u64 = events
                .iter()
                .filter(|e| e.cat == "restore" && e.name == stage.label())
                .map(|e| e.dur.expect("restore spans are complete events").as_nanos())
                .sum();
            let hist_sum = hist.mean() * hist.count() as f64;
            assert!(
                (span_sum as f64 - hist_sum).abs() <= 1e-6 * hist_sum.max(1.0),
                "stage {} trace sum {span_sum} ns vs histogram sum {hist_sum} ns",
                stage.label()
            );
        }
    }
}
