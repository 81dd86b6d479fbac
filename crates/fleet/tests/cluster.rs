//! Integration tests for the multi-host cluster layer: single-host
//! equivalence with the fleet runner, whole-run determinism
//! (byte-identical traces) under every placement policy, and the
//! invocation-conservation bookkeeping the figures rely on.

use snapbpf::{StrategyError, StrategyKind};
use snapbpf_fleet::{
    ClusterResult, FaultSchedule, FleetConfig, PlacementKind, Runner, SnapshotDistribution,
};
use snapbpf_sim::{chrome_trace_json, SimDuration, TraceEvent, TracePhase, Tracer};
use snapbpf_testkit::{small_cluster_cfg, small_fleet_cfg, small_suite};
use snapbpf_workloads::Workload;

fn run_cluster(cfg: &FleetConfig, workloads: &[Workload]) -> Result<ClusterResult, StrategyError> {
    Runner::new(cfg)
        .workloads(workloads)
        .run()
        .map(|out| out.into_cluster().expect("cluster configs are multi-host"))
}

/// A placement policy that routes every arrival to host 0 — the
/// degenerate cluster whose serving host runs exactly the fleet
/// path's schedule.
struct PinToZero;

impl snapbpf_fleet::PlacementPolicy for PinToZero {
    fn label(&self) -> &'static str {
        "pin0"
    }
    fn place(&mut self, _func_name: &str, _hosts: &[snapbpf_fleet::HostView]) -> usize {
        0
    }
}

/// A cluster host that serves every arrival under local snapshot
/// distribution runs the exact same per-host scheduling code as the
/// single-host fleet path, so every measured quantity must agree
/// field for field — not approximately, exactly. [`Runner`] routes
/// `hosts == 1` to the fleet path directly, so the test drives the
/// real cluster engine over two hosts with a pin-to-host-0 policy:
/// host 1 exists, builds its world, and serves nothing.
#[test]
fn pinned_cluster_host_reproduces_the_fleet_exactly() {
    let workloads = small_suite();
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        let cfg1 = small_cluster_cfg(kind, 1, 80.0);
        let fleet = Runner::new(&cfg1)
            .workloads(&workloads)
            .run()
            .unwrap()
            .into_fleet()
            .expect("hosts == 1 is a fleet run");
        let cfg2 = small_cluster_cfg(kind, 2, 80.0);
        let cluster = Runner::new(&cfg2)
            .workloads(&workloads)
            .placement(Box::new(PinToZero))
            .run()
            .unwrap()
            .into_cluster()
            .expect("hosts == 2 is a cluster run");

        assert_eq!(cluster.hosts.len(), 2);
        let host = &cluster.hosts[0];
        assert_eq!(cluster.strategy, fleet.strategy);
        assert_eq!(cluster.per_function, fleet.per_function);
        assert_eq!(cluster.aggregate, fleet.aggregate);
        assert_eq!(host.per_function, fleet.per_function);
        assert_eq!(host.mem_hwm_bytes, fleet.mem_hwm_bytes);
        assert_eq!(host.read_bytes, fleet.read_bytes);
        assert_eq!(host.pool_evictions, fleet.pool_evictions);
        assert_eq!(host.pool_expirations, fleet.pool_expirations);
        assert_eq!(host.placed, fleet.aggregate.arrivals);
        assert_eq!(host.snapshot_fetches, 0, "local distribution is free");
        assert_eq!(cluster.hosts[1].aggregate.completions, 0);
        assert_eq!(cluster.span, fleet.span);
        assert_eq!(
            cluster.metrics,
            fleet.metrics,
            "{}: pinned cluster metrics must equal the fleet's",
            kind.label()
        );
        assert_eq!(
            cluster.series,
            fleet.series,
            "{}: pinned cluster series must equal the fleet's",
            kind.label()
        );
    }
}

/// Same seed, same config: the whole `ClusterResult` and the
/// serialized Chrome trace must be byte-identical across repeat runs,
/// for every placement policy.
#[test]
fn same_seed_cluster_runs_are_byte_identical_for_every_policy() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 120.0);
        cfg.placement = placement;
        cfg.distribution = SnapshotDistribution::remote_10g();

        let run = || {
            let tracer = Tracer::recording();
            let r = Runner::new(&cfg)
                .workloads(&workloads)
                .tracer(&tracer)
                .run()
                .unwrap()
                .into_cluster()
                .unwrap();
            let json = chrome_trace_json(&tracer.take_events(), Some(&r.metrics));
            (r, json.pretty())
        };
        let (a, trace_a) = run();
        let (b, trace_b) = run();
        assert_eq!(
            a,
            b,
            "{}: results must be equal across same-seed runs",
            placement.label()
        );
        assert_eq!(
            trace_a,
            trace_b,
            "{}: traces must serialize byte-identically",
            placement.label()
        );
        assert!(!trace_a.is_empty());
    }
}

/// Each host of a traced cluster run appears as its own Chrome
/// process row (`pid = host + 1`), and placement decisions land on
/// the serving host's scheduler track as `cluster` instants.
#[test]
fn traced_cluster_run_has_one_process_row_per_host() {
    let workloads = small_suite();
    let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 120.0);
    cfg.placement = PlacementKind::Locality;
    let tracer = Tracer::recording();
    let r = Runner::new(&cfg)
        .workloads(&workloads)
        .tracer(&tracer)
        .run()
        .unwrap()
        .into_cluster()
        .unwrap();
    let json = chrome_trace_json(&tracer.take_events(), Some(&r.metrics));
    let parsed = snapbpf_sim::Json::parse(&json.pretty()).expect("trace reparses");
    let events = parsed
        .get("traceEvents")
        .and_then(|j| j.as_array())
        .expect("traceEvents array");
    let pids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("pid").and_then(|j| j.as_u64()))
        .collect();
    assert_eq!(pids, [1u64, 2, 3].into_iter().collect());
    let places = events
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|j| j.as_str()) == Some("cluster")
                && e.get("name").and_then(|j| j.as_str()) == Some("place")
        })
        .count() as u64;
    assert_eq!(
        places,
        r.placed(),
        "every routed arrival must leave a placement instant"
    );
}

/// The trace merge rule: each host's events form one block, blocks
/// in host order, and every `cluster:place` instant sits right before
/// the `fleet:arrival` it placed on the same host — under a load-aware
/// policy and a crash whose killed requests retry elsewhere.
#[test]
fn traced_cluster_events_merge_in_host_order() {
    let workloads = small_suite();
    let ms = SimDuration::from_millis;
    // Enough load that least-loaded placement spreads it: an idle
    // cluster ties every decision to host 0.
    let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 1000.0)
        .at_scale(0.1)
        .with_faults(FaultSchedule::none().crash(0, ms(40)).retrying(ms(2)));
    cfg.placement = PlacementKind::LeastLoaded;
    let tracer = Tracer::recording();
    let r = Runner::new(&cfg)
        .workloads(&workloads)
        .tracer(&tracer)
        .run()
        .unwrap()
        .into_cluster()
        .unwrap();
    assert!(r.aggregate.retried > 0, "the crash must retry killed work");
    let split: Vec<u64> = r.hosts.iter().map(|h| h.aggregate.arrivals).collect();
    let total: u64 = split.iter().sum();
    assert!(
        split.iter().filter(|&&n| 5 * n >= total).count() >= 2,
        "arrivals per host {split:?}: at least two hosts must each get a fifth"
    );
    let events: Vec<TraceEvent> = tracer
        .take_events()
        .into_iter()
        .filter(|e| e.phase != TracePhase::Metadata)
        .collect();
    assert!(
        events.windows(2).all(|w| w[0].pid <= w[1].pid),
        "events must merge in host order"
    );
    let is = |e: &TraceEvent, cat: &str, name: &str| e.cat == cat && e.name == name;
    let func = |e: &TraceEvent| {
        e.args
            .iter()
            .find(|(k, _)| *k == "func")
            .map(|(_, v)| v.clone())
    };
    let mut places = 0;
    for (i, place) in events.iter().enumerate() {
        if !is(place, "cluster", "place") {
            continue;
        }
        places += 1;
        let arrival = events.get(i + 1).expect("a placement precedes its arrival");
        assert!(
            is(arrival, "fleet", "arrival"),
            "place {i} not followed by its arrival"
        );
        assert_eq!(
            (arrival.pid, arrival.ts, func(arrival)),
            (place.pid, place.ts, func(place)),
            "place {i} and its arrival disagree"
        );
    }
    assert_eq!(places, r.placed(), "every routed arrival is placed once");
}

/// Conservation: every admitted invocation is served by exactly one
/// host — per-host placements sum to the cluster's arrivals, and the
/// merged per-function records account for every per-host record.
#[test]
fn cluster_accounting_is_conserved_across_hosts() {
    let workloads = small_suite();
    for placement in PlacementKind::ALL {
        let mut cfg = small_cluster_cfg(StrategyKind::SnapBpf, 3, 150.0);
        cfg.placement = placement;
        let r = run_cluster(&cfg, &workloads).unwrap();
        assert_eq!(r.placed(), r.aggregate.arrivals, "{}", placement.label());
        for (i, merged) in r.per_function.iter().enumerate() {
            let host_sum: u64 = r.hosts.iter().map(|h| h.per_function[i].arrivals).sum();
            assert_eq!(merged.arrivals, host_sum, "function {i} leaked arrivals");
        }
        let completions: u64 = r.hosts.iter().map(|h| h.aggregate.completions).sum();
        assert_eq!(r.aggregate.completions, completions);
    }
}

/// A cluster over a degenerate configuration reports a clean
/// [`StrategyError::Config`]; it must never panic.
#[test]
fn degenerate_cluster_configs_error_cleanly() {
    let workloads = small_suite();
    let mut zero_hosts = small_cluster_cfg(StrategyKind::SnapBpf, 0, 40.0);
    zero_hosts.distribution = SnapshotDistribution::remote_10g();
    let err = Runner::new(&zero_hosts)
        .workloads(&workloads)
        .run()
        .unwrap_err();
    assert!(matches!(err, StrategyError::Config(_)), "got {err}");
    assert!(err.to_string().contains("at least one host"), "{err}");

    let empty = small_fleet_cfg(StrategyKind::SnapBpf, 40.0);
    let err = Runner::new(&empty).run().unwrap_err();
    assert!(matches!(err, StrategyError::Config(_)), "got {err}");
}
