//! End-to-end check of the in-kernel telemetry pipeline: one SnapBPF
//! fleet run whose prefetch programs report through their ring and
//! per-CPU stats maps, drained by the kernel into counters and
//! windowed per-function series.

use snapbpf::StrategyKind;
use snapbpf_fleet::{FleetConfig, Runner};
use snapbpf_sim::SimDuration;
use snapbpf_workloads::Workload;

#[test]
fn snapbpf_fleet_reports_in_kernel_telemetry_without_drops() {
    let workloads: Vec<Workload> = Workload::suite().into_iter().take(4).collect();
    let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), 60.0);
    cfg.scale = 0.05;
    cfg.duration = SimDuration::from_secs(3);
    let result = Runner::new(&cfg)
        .workloads(&workloads)
        .run()
        .unwrap()
        .into_fleet()
        .expect("hosts == 1");
    assert!(result.aggregate.completions > 0);

    // The kernel→user channel carried data.
    for counter in [
        "ebpf.telemetry.issued",
        "ebpf.telemetry.pages",
        "ebpf.telemetry.completions",
    ] {
        assert!(result.metrics.counter(counter) > 0, "{counter} is zero");
    }
    assert!(
        result
            .series
            .iter()
            .any(|(metric, _, _)| metric.starts_with("ebpf.")),
        "no ebpf.* windowed series"
    );

    // The default ring sizing absorbs every record, and every record
    // decodes.
    for counter in ["ebpf.ring.drops", "ebpf.telemetry.decode_errors"] {
        assert_eq!(result.metrics.counter(counter), 0, "{counter}");
    }

    // Scheduler-level series reconcile with the latency metrics: one
    // warm-hit sample per completion, one cold sample per cold start.
    let samples = |name: &str| -> u64 {
        result
            .series
            .iter()
            .filter(|(metric, _, _)| *metric == name)
            .flat_map(|(_, _, bins)| bins.values())
            .map(|b| b.count())
            .sum()
    };
    assert_eq!(samples("fleet.warm_hit"), result.aggregate.completions);
    assert_eq!(samples("fleet.cold_start_ns"), result.aggregate.cold_starts);
}
