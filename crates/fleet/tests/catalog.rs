//! The metric catalog holds only metrics a run emits: every declared
//! entry must show up in the counters, histograms or series of a
//! small battery. Fleet runs cover each strategy family, a cluster
//! with remote snapshots and a crash with retry, pool expiry, an
//! overloaded admission queue and a page-cache budget; host-kernel
//! runs provoke the failures the alarm counters count.

use std::collections::BTreeSet;

use snapbpf::StrategyKind;
use snapbpf_ebpf::{telemetry_stats_def, MapDef, MapSet, ProgramBuilder, Reg};
use snapbpf_fleet::{FaultSchedule, FleetConfig, Runner, SnapshotDistribution};
use snapbpf_kernel::{
    HostKernel, KernelConfig, TelemetryDrain, KFUNC_SNAPBPF_PREFETCH, PAGE_CACHE_ADD_HOOK,
};
use snapbpf_sim::{
    Metric, MetricKind, MetricsRegistry, SeriesRegistry, SimDuration, SimTime, Tracer, CATALOG,
};
use snapbpf_storage::{Disk, SsdModel};
use snapbpf_testkit::{small_cluster_cfg, small_fleet_cfg, small_suite};

/// Counters that count a failure no run can provoke through the
/// public API, with the reason each stays declared.
const UNREACHABLE_ALARMS: [(&str, &str); 1] = [(
    "ebpf.opt.reverify_rejections",
    "the optimizer's images always re-verify (opt_equivalence suites); \
     the counter guards the fallback, and fleet figure meta reports it",
)];

fn fleet_battery() -> Vec<FleetConfig> {
    let ms = SimDuration::from_millis;
    let mut configs: Vec<FleetConfig> = [
        StrategyKind::SnapBpf,
        StrategyKind::Reap,
        StrategyKind::Faasnap,
        StrategyKind::LinuxNoRa,
    ]
    .into_iter()
    .map(|kind| small_fleet_cfg(kind, 160.0))
    .collect();
    configs.push(
        small_cluster_cfg(StrategyKind::SnapBpf, 4, 200.0)
            .with_distribution(SnapshotDistribution::remote_10g())
            .with_faults(FaultSchedule::none().crash(0, ms(40)).retrying(ms(2))),
    );
    configs.push(small_fleet_cfg(StrategyKind::SnapBpf, 40.0).with_pool(4, ms(20)));
    let mut overload = small_fleet_cfg(StrategyKind::SnapBpf, 800.0).cold_only();
    overload.max_concurrency = 1;
    overload.queue_depth = 2;
    configs.push(overload);
    configs.push(small_fleet_cfg(StrategyKind::SnapBpf, 160.0).with_cache_budget(64));
    configs
}

/// Host-kernel runs that provoke the alarm counters: a program the
/// verifier rejects, a program whose kfunc call fails at run time,
/// and a telemetry ring holding a record that does not decode.
fn alarm_runs() -> MetricsRegistry {
    let tracer = Tracer::noop();
    let mut k = HostKernel::new(
        Disk::new(Box::new(SsdModel::micron_5300())),
        KernelConfig::default(),
    );
    k.install_tracer(&tracer);
    let f = k.disk_mut().create_file("snap", 64).unwrap();

    let mut unset_r0 = ProgramBuilder::new("unset_r0");
    unset_r0.exit();
    assert!(k
        .load_and_attach(PAGE_CACHE_ADD_HOOK, &unset_r0.build().unwrap())
        .is_err());

    let mut bad_fd = ProgramBuilder::new("bad_fd");
    bad_fd
        .mov(Reg::R1, 9999)
        .mov(Reg::R2, 0)
        .mov(Reg::R3, 8)
        .call_kfunc(KFUNC_SNAPBPF_PREFETCH)
        .mov(Reg::R0, 0)
        .exit();
    k.load_and_attach(PAGE_CACHE_ADD_HOOK, &bad_fd.build().unwrap())
        .unwrap();
    k.read_file_page(SimTime::ZERO, f, 0).unwrap();

    let mut maps = MapSet::new();
    let ring = maps.create(MapDef::ringbuf(64)).unwrap();
    let stats = maps.create(telemetry_stats_def()).unwrap();
    maps.ring_push(ring, &[7u8; 40]).unwrap();
    TelemetryDrain::new(ring, stats, "json")
        .drain(&mut maps, &tracer)
        .unwrap();
    tracer.metrics_snapshot()
}

#[test]
fn every_catalog_entry_is_emitted_by_the_battery() {
    let workloads = small_suite();
    let mut metrics = alarm_runs();
    let mut series = SeriesRegistry::new();
    for cfg in fleet_battery() {
        let out = Runner::new(&cfg).workloads(&workloads).run().unwrap();
        metrics.merge(out.metrics());
        series.merge(out.series());
    }
    let counters: BTreeSet<&str> = metrics.counters().map(|(k, _)| k).collect();
    let histograms: BTreeSet<&str> = metrics.histograms().map(|(k, _)| k).collect();
    let series: BTreeSet<&str> = series.iter().map(|(k, _, _)| k).collect();
    let missing: Vec<&str> = CATALOG
        .iter()
        .filter(|m| {
            (m.kind.is_counter() && !counters.contains(m.name))
                || (m.kind == MetricKind::Histogram && !histograms.contains(m.name))
                || (m.kind.is_series() && !series.contains(m.name))
        })
        .map(|m| m.name)
        .filter(|name| UNREACHABLE_ALARMS.iter().all(|(alarm, _)| alarm != name))
        .collect();
    assert!(
        missing.is_empty(),
        "declared but never emitted: {missing:?}"
    );
    for (alarm, _) in UNREACHABLE_ALARMS {
        assert!(
            Metric::from_name(alarm).is_some(),
            "{alarm} is not declared"
        );
        assert!(
            !counters.contains(alarm),
            "{alarm} fired: drop its exemption"
        );
    }
}
