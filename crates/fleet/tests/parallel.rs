//! Determinism tests for the cluster segment engine (DESIGN.md §11):
//! any worker-thread count must reproduce the single-threaded run
//! exactly — field-identical [`ClusterResult`]s and byte-identical
//! Chrome traces — because threads only change which OS core advances
//! a host, never the virtual-time order the merged outputs are
//! assembled in. Routing ahead must be invisible too: a statically
//! routed run matches the same policy placed arrival by arrival.

use snapbpf::{StrategyError, StrategyKind};
use snapbpf_fleet::{
    ClusterResult, FaultSchedule, FleetConfig, HashPlacement, HostView, PlacementKind,
    PlacementPolicy, Runner, SnapshotDistribution,
};
use snapbpf_sim::{
    chrome_trace_json, ArrivalProcess, ComposedArrivals, SimDuration, TraceArrival, TracePoint,
    Tracer,
};
use snapbpf_testkit::{small_cluster_cfg, small_suite};
use snapbpf_workloads::Workload;

/// One traced cluster run at the given worker-thread count, returning
/// the full result and the serialized Chrome trace.
fn traced_run(
    cfg: &FleetConfig,
    workloads: &[Workload],
    threads: usize,
) -> (ClusterResult, String) {
    traced_run_with(Runner::new(cfg), workloads, threads)
}

/// [`traced_run`] on a prepared runner (e.g. with a substituted
/// placement policy).
fn traced_run_with(
    runner: Runner<'_>,
    workloads: &[Workload],
    threads: usize,
) -> (ClusterResult, String) {
    let tracer = Tracer::recording();
    let r = runner
        .workloads(workloads)
        .tracer(&tracer)
        .threads(threads)
        .run()
        .unwrap()
        .into_cluster()
        .unwrap();
    let json = chrome_trace_json(&tracer.take_events(), Some(&r.metrics));
    (r, json.pretty())
}

/// The acceptance property: for every placement policy and both
/// snapshot-distribution modes, threads = 2, 3, and 0 ("all cores")
/// reproduce the threads = 1 run field for field and the trace byte
/// for byte.
#[test]
fn any_thread_count_matches_the_serial_run_exactly() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        for distribution in [
            SnapshotDistribution::Local,
            SnapshotDistribution::remote_10g(),
        ] {
            let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 160.0);
            cfg.placement = placement;
            cfg.distribution = distribution;
            let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
            for threads in [2usize, 3, 0] {
                let (parallel, parallel_trace) = traced_run(&cfg, &workloads, threads);
                assert_eq!(
                    serial,
                    parallel,
                    "{} + {:?}: threads={threads} must reproduce the serial result",
                    placement.label(),
                    cfg.distribution
                );
                assert_eq!(
                    serial_trace,
                    parallel_trace,
                    "{} + {:?}: threads={threads} must serialize a byte-identical trace",
                    placement.label(),
                    cfg.distribution
                );
            }
        }
    }
}

/// At least two hosts each got a fifth of the arrivals: the load
/// kept more than one host busy, so least-loaded placement really
/// spread it (an idle cluster ties every decision to host 0).
fn assert_spread(r: &ClusterResult, what: &str) {
    let total: u64 = r.hosts.iter().map(|h| h.aggregate.arrivals).sum();
    let split: Vec<u64> = r.hosts.iter().map(|h| h.aggregate.arrivals).collect();
    let busy = split.iter().filter(|&&n| 5 * n >= total).count();
    assert!(
        busy >= 2,
        "{what}: arrivals per host {split:?} did not spread"
    );
}

/// Trace-merge stress: odd host and thread counts (so hosts wrap
/// unevenly onto workers) across several arrival seeds. If the driver
/// appended host buffers in worker or completion order instead of
/// host order, some seed here would order two hosts' events
/// differently and break byte equality. The load keeps several hosts
/// busy, so every host's buffer holds events.
#[test]
fn epoch_merge_is_seed_stable_under_odd_sharding() {
    let workloads = small_suite();
    for seed in [3u64, 11, 1234] {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 5, 1000.0)
            .at_scale(0.1)
            .with_seed(seed);
        cfg.placement = PlacementKind::LeastLoaded;
        cfg.distribution = SnapshotDistribution::remote_10g();
        let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
        assert_spread(&serial, &format!("seed {seed}"));
        let (parallel, parallel_trace) = traced_run(&cfg, &workloads, 3);
        assert_eq!(serial, parallel, "seed {seed}: results diverged");
        assert_eq!(serial_trace, parallel_trace, "seed {seed}: traces diverged");
    }
}

/// The telemetry acceptance property: the windowed per-function
/// series — scheduler samples plus the in-kernel eBPF telemetry
/// drained from ring/stats maps — serialize to byte-identical JSON
/// at any thread count, across placement policies and seeds. The
/// series carry f64 sums, so this only holds because per-host
/// registries merge in ascending host order at the end of the run,
/// never in thread-completion order.
#[test]
fn windowed_series_json_is_byte_identical_at_any_thread_count() {
    let workloads = small_suite();
    for placement in [PlacementKind::Hash, PlacementKind::Locality] {
        for seed in [7u64, 42] {
            let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 160.0).with_seed(seed);
            cfg.placement = placement;
            let (serial, _) = traced_run(&cfg, &workloads, 1);
            let serial_json = serial.series.to_json().compact();
            assert!(
                !serial.series.is_empty(),
                "{} seed {seed}: a SnapBPF cluster run records series",
                placement.label()
            );
            for threads in [2usize, 3, 0] {
                let (parallel, _) = traced_run(&cfg, &workloads, threads);
                assert_eq!(
                    serial_json,
                    parallel.series.to_json().compact(),
                    "{} seed {seed}: threads={threads} series JSON diverged",
                    placement.label()
                );
            }
        }
    }
}

/// The scenario battery's determinism pin: a crash (host 0 dies
/// mid-run with retry on, host 2 drains later) still yields
/// byte-identical traces and field-identical results at any
/// worker-thread count. Each fault ends a segment; if any worker
/// raced past it, the abort/evict/re-place cascade would run against
/// different host state and some placement here would diverge. The
/// crash lands while host 0 holds work under every placement, so the
/// cascade really runs.
#[test]
fn crash_epochs_match_the_serial_run_exactly() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 4, 1000.0)
            .at_scale(0.1)
            .with_faults(
                FaultSchedule::none()
                    .crash(0, SimDuration::from_millis(40))
                    .drain(2, SimDuration::from_millis(300))
                    .retrying(SimDuration::from_millis(2)),
            );
        cfg.placement = placement;
        cfg.distribution = SnapshotDistribution::remote_10g();
        let (serial, serial_trace) = traced_run(&cfg, &workloads, 1);
        assert!(
            serial.aggregate.retried > 0,
            "{}: the crash must kill work on host 0",
            placement.label()
        );
        assert_eq!(
            serial.aggregate.arrivals,
            serial.aggregate.completions
                + serial.aggregate.shed
                + serial.aggregate.failed
                + serial.aggregate.retried,
            "{}: faulted run must conserve invocations",
            placement.label()
        );
        for threads in [2usize, 3, 0] {
            let (parallel, parallel_trace) = traced_run(&cfg, &workloads, threads);
            assert_eq!(
                serial,
                parallel,
                "{}: threads={threads} must reproduce the serial crash run",
                placement.label()
            );
            assert_eq!(
                serial_trace,
                parallel_trace,
                "{}: threads={threads} must serialize a byte-identical crash trace",
                placement.label()
            );
        }
    }
}

/// A custom policy that always places one past the end of the host
/// range.
struct RoguePlacement;

impl PlacementPolicy for RoguePlacement {
    fn label(&self) -> &'static str {
        "rogue"
    }

    fn place(&mut self, _func_name: &str, hosts: &[HostView]) -> usize {
        hosts.len()
    }
}

/// Regression: an out-of-range placement decision from a
/// caller-supplied policy is a clean [`StrategyError::Config`], not a
/// panic (the driver used to `assert!` here).
#[test]
fn out_of_range_placement_is_a_config_error_not_a_panic() {
    let workloads = small_suite();
    let cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 120.0);
    for threads in [1usize, 2] {
        let err = Runner::new(&cfg)
            .workloads(&workloads)
            .placement(Box::new(RoguePlacement))
            .threads(threads)
            .run()
            .unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("host"), "{err}");
    }
}

/// Hash placement without its static route: the cluster engine must
/// end a segment at every arrival to place it from every host's
/// view. Same label, so traces compare byte for byte.
struct PerArrivalHash;

impl PlacementPolicy for PerArrivalHash {
    fn label(&self) -> &'static str {
        "hash"
    }

    fn place(&mut self, func_name: &str, hosts: &[HostView]) -> usize {
        HashPlacement.place(func_name, hosts)
    }
}

/// Routing ahead is invisible: under hash placement, with no faults,
/// a crash with retries, a drain, a flash crowd, or barriers tied on
/// one instant, the statically
/// routed run (one segment per fault, each host running its own
/// arrival stream) matches the per-arrival reference field for field,
/// its Chrome trace byte for byte and its series JSON byte for byte,
/// at one and two worker threads.
#[test]
fn static_routing_matches_per_arrival_placement_exactly() {
    let workloads = small_suite();
    let base = small_cluster_cfg(StrategyKind::SnapBpf, 4, 160.0)
        .with_distribution(SnapshotDistribution::remote_10g());
    // The host hash placement routes the first function to, so the
    // crash and the drain hit a host with work on it.
    let busy = HashPlacement
        .static_route(workloads[0].name(), &[0, 1, 2, 3])
        .unwrap();
    let ms = SimDuration::from_millis;
    let flash_crowd = ComposedArrivals::over(ArrivalProcess::Poisson { rate_rps: 160.0 })
        .with_flash_crowd(ms(150), ms(100), 1200.0);
    let cases = [
        ("hash", base.clone()),
        (
            // Cold starts only and mid-surge, so the crash kills work;
            // a zero back-off puts the retries at the crash instant,
            // tied with the fault and with any base arrival there.
            "crash",
            base.clone()
                .cold_only()
                .with_arrivals(flash_crowd.clone())
                .with_faults(
                    FaultSchedule::none()
                        .crash(busy, ms(200))
                        .retrying(SimDuration::ZERO),
                ),
        ),
        (
            "drain",
            base.clone()
                .with_faults(FaultSchedule::none().drain(busy, ms(200))),
        ),
        ("flash-crowd", base.clone().with_arrivals(flash_crowd)),
        (
            // Four arrivals at each 1 ms tick, a crash and a drain on
            // ticks: barriers tie with each other, with the faults and
            // with the zero-back-off retries.
            "ties",
            base.clone()
                .cold_only()
                .replaying(TraceArrival::new(
                    (0..200u32)
                        .map(|k| TracePoint {
                            offset: ms(u64::from(k / 4)),
                            func: k % 3,
                        })
                        .collect(),
                    ms(50),
                ))
                .with_faults(
                    FaultSchedule::none()
                        .crash(busy, ms(20))
                        .drain((busy + 1) % 4, ms(30))
                        .retrying(SimDuration::ZERO),
                ),
        ),
    ];
    for (name, cfg) in cases {
        for seed in [1u64, 7, 42] {
            let cfg = cfg.clone().with_seed(seed);
            let (reference, reference_trace) = traced_run_with(
                Runner::new(&cfg).placement(Box::new(PerArrivalHash)),
                &workloads,
                1,
            );
            match name {
                "crash" | "ties" => assert!(
                    reference.aggregate.retried > 0,
                    "seed {seed}: the crash must kill work"
                ),
                "drain" => assert!(
                    reference
                        .hosts
                        .iter()
                        .filter(|h| h.per_function[0].arrivals > 0)
                        .count()
                        > 1,
                    "seed {seed}: the drain must re-route the first function"
                ),
                _ => {}
            }
            let reference_series = reference.series.to_json().compact();
            for threads in [1usize, 2] {
                let (routed, routed_trace) = traced_run(&cfg, &workloads, threads);
                assert_eq!(
                    reference, routed,
                    "{name} seed {seed} threads={threads}: results diverged"
                );
                assert_eq!(
                    reference_trace, routed_trace,
                    "{name} seed {seed} threads={threads}: traces diverged"
                );
                assert_eq!(
                    reference_series,
                    routed.series.to_json().compact(),
                    "{name} seed {seed} threads={threads}: series JSON diverged"
                );
            }
        }
    }
}
