//! The F1x fleet experiments: figures beyond the paper's
//! single-batch evaluation, showing how the restore strategies behave
//! under an open-loop request stream (see `EXPERIMENTS.md`).

use snapbpf::{DeviceKind, FigureData, RestoreStage, StrategyError, StrategyKind};
use snapbpf_sim::{
    chrome_trace_json, Histogram, Json, Metric, MetricKind, MetricsRegistry, SimDuration, Tracer,
};
use snapbpf_workloads::Workload;

use crate::scenario::{conserves_invocations, Scenario, ScenarioParams};
use crate::{
    tenant_aggregates, FleetConfig, FleetResult, PlacementKind, RestoreMode, Runner,
    SnapshotDistribution,
};

/// One single-host [`Runner`] point (every figure host count is 1
/// unless it goes through [`fleet_shard`]).
fn fleet_run(cfg: &FleetConfig, workloads: &[Workload]) -> Result<FleetResult, StrategyError> {
    Ok(Runner::new(cfg)
        .workloads(workloads)
        .run()?
        .into_fleet()
        .expect("figure configs are single-host"))
}

/// Like [`fleet_run`], with a caller-owned tracer.
fn fleet_run_with(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
) -> Result<FleetResult, StrategyError> {
    Ok(Runner::new(cfg)
        .workloads(workloads)
        .tracer(tracer)
        .run()?
        .into_fleet()
        .expect("figure configs are single-host"))
}

/// Configuration shared by the fleet figure generators.
#[derive(Debug, Clone)]
pub struct FleetFigureConfig {
    /// Workload size scale in `(0, 1]`.
    pub scale: f64,
    /// The functions in the fleet (paper suite: all 14).
    pub workloads: Vec<Workload>,
    /// Arrival horizon per run.
    pub duration: SimDuration,
    /// Arrival rates swept by [`fleet_sweep`], in requests/s.
    pub rates_rps: Vec<f64>,
    /// Keep-alive TTLs swept by [`fleet_keepalive`].
    pub ttls: Vec<SimDuration>,
    /// Storage device of the host.
    pub device: DeviceKind,
    /// Sizing of the [`fleet_pipeline`] comparison.
    pub pipeline: PipelineFigureConfig,
    /// Sizing of the [`fleet_shard`] comparison.
    pub shard: ShardFigureConfig,
    /// Sizing of the F5 [`fleet_scenario`] battery.
    pub scenarios: ScenarioParams,
}

/// Sizing of the [`fleet_pipeline`] figure. The serialized-vs-
/// pipelined contrast needs working sets large enough for restore
/// I/O to matter and a rate that saturates the slow device, so it
/// carries its own scale and load instead of inheriting the sweep's.
#[derive(Debug, Clone)]
pub struct PipelineFigureConfig {
    /// Devices compared (one serialized + one pipelined run each).
    pub devices: Vec<DeviceKind>,
    /// Arrival rate, in requests/s (pick one past the SATA knee).
    pub rate_rps: f64,
    /// Workload size scale in `(0, 1]`.
    pub scale: f64,
    /// Fleet size: the first `functions` suite workloads.
    pub functions: usize,
    /// Arrival horizon per run.
    pub duration: SimDuration,
    /// Arrival-process seeds; reported p99s are means over them.
    pub seeds: Vec<u64>,
}

/// Sizing of the [`fleet_shard`] figure (F2). A placement-policy
/// contrast needs more functions than hosts (so hashing can collide
/// popular functions on one host), a rate past the device knee (so a
/// collision actually hurts), and a remote snapshot distribution (so
/// scattering a function across hosts has a visible cost); it
/// carries its own sizing like the pipeline figure does.
#[derive(Debug, Clone)]
pub struct ShardFigureConfig {
    /// Devices compared (one cluster run per strategy × policy each).
    pub devices: Vec<DeviceKind>,
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Arrival rate, in requests/s.
    pub rate_rps: f64,
    /// Per-host concurrent-restore slots. Kept tight so a placement
    /// collision saturates the host (queueing, not just disk time, is
    /// what separates the policies).
    pub max_concurrency: usize,
    /// Workload size scale in `(0, 1]`.
    pub scale: f64,
    /// Fleet size: the first `functions` suite workloads.
    pub functions: usize,
    /// Arrival horizon per run.
    pub duration: SimDuration,
    /// Arrival-process seeds; reported p99s are means over them.
    pub seeds: Vec<u64>,
    /// Cross-host snapshot-distribution cost model.
    pub distribution: SnapshotDistribution,
    /// Worker threads for the cluster's segment engine
    /// (`0` = all cores). Any value yields identical figures;
    /// threads only change wall-clock time.
    pub threads: usize,
}

impl FleetFigureConfig {
    /// Full-suite configuration sized for offline figure generation.
    pub fn paper(scale: f64) -> FleetFigureConfig {
        FleetFigureConfig {
            scale,
            workloads: Workload::suite(),
            duration: SimDuration::from_secs(2),
            rates_rps: vec![10.0, 20.0, 40.0, 80.0, 160.0, 320.0],
            ttls: vec![
                SimDuration::from_millis(0),
                SimDuration::from_millis(250),
                SimDuration::from_millis(1000),
                SimDuration::from_millis(4000),
            ],
            device: DeviceKind::Sata5300,
            pipeline: PipelineFigureConfig {
                devices: DeviceKind::ALL.to_vec(),
                rate_rps: 300.0,
                scale: 0.05,
                functions: 8,
                duration: SimDuration::from_millis(1500),
                seeds: vec![1, 7, 42],
            },
            shard: ShardFigureConfig {
                devices: vec![DeviceKind::Sata5300, DeviceKind::Nvme],
                hosts: 3,
                rate_rps: 900.0,
                max_concurrency: 2,
                scale: 0.05,
                functions: 8,
                duration: SimDuration::from_millis(1500),
                seeds: vec![1, 7, 42],
                distribution: SnapshotDistribution::remote_10g(),
                threads: 1,
            },
            scenarios: ScenarioParams::paper(),
        }
    }

    /// A reduced configuration for quick runs and tests.
    pub fn quick(scale: f64) -> FleetFigureConfig {
        FleetFigureConfig {
            scale,
            workloads: Workload::suite().into_iter().take(4).collect(),
            duration: SimDuration::from_millis(400),
            rates_rps: vec![20.0, 60.0, 180.0],
            ttls: vec![SimDuration::from_millis(0), SimDuration::from_millis(500)],
            device: DeviceKind::Sata5300,
            pipeline: PipelineFigureConfig {
                devices: vec![DeviceKind::Sata5300],
                rate_rps: 300.0,
                scale: 0.05,
                functions: 8,
                duration: SimDuration::from_millis(1000),
                seeds: vec![1, 7],
            },
            shard: ShardFigureConfig {
                devices: vec![DeviceKind::Sata5300, DeviceKind::Nvme],
                hosts: 3,
                rate_rps: 900.0,
                max_concurrency: 2,
                scale: 0.05,
                functions: 8,
                duration: SimDuration::from_millis(800),
                seeds: vec![1],
                distribution: SnapshotDistribution::remote_10g(),
                threads: 1,
            },
            scenarios: ScenarioParams::quick(),
        }
    }

    fn base(&self, kind: StrategyKind, rate_rps: f64) -> FleetConfig {
        let mut cfg = FleetConfig::new(kind, self.workloads.len(), rate_rps);
        cfg.scale = self.scale;
        cfg.duration = self.duration;
        cfg.device = self.device;
        cfg
    }
}

/// Fraction of page-cache lookups served from cache during the run
/// (0 when nothing was looked up).
fn cache_hit_ratio(m: &MetricsRegistry) -> f64 {
    let hits = m.counter("mem.cache.hits") as f64;
    let lookups = hits + m.counter("mem.cache.misses") as f64;
    if lookups <= 0.0 {
        return 0.0;
    }
    hits / lookups
}

/// Bytes of cross-sandbox duplicate inserts the page cache absorbed,
/// in MiB.
fn dedup_savings_mib(m: &MetricsRegistry) -> f64 {
    m.counter("mem.cache.dedup_bytes") as f64 / (1u64 << 20) as f64
}

/// The highest swept rate whose p99 stays within `knee` times the
/// lowest-rate p99 — the "sustained rate" before the latency knee.
fn sustained_rps(rates: &[f64], p99s: &[f64], knee: f64) -> f64 {
    let base = p99s.first().copied().unwrap_or(0.0).max(1e-12);
    rates
        .iter()
        .zip(p99s)
        .take_while(|(_, p99)| **p99 <= knee * base)
        .map(|(r, _)| *r)
        .last()
        .unwrap_or(0.0)
}

/// F1a `fleet-sweep`: p99 end-to-end latency vs arrival rate in the
/// pure cold-start regime, REAP vs SnapBPF. REAP's per-start
/// working-set reads are uncacheable, so the shared disk saturates
/// and its p99 knees at a much lower offered load; SnapBPF's
/// cold starts share the page cache and sustain more. The meta keys
/// `sustained-rps-<label>` record the knee rates.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fleet_sweep(cfg: &FleetFigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "fleet-sweep",
        "Fleet p99 E2E latency vs arrival rate (cold starts only)",
        "s",
        cfg.rates_rps.iter().map(|r| format!("{r}rps")).collect(),
    );
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        let mut p99s = Vec::with_capacity(cfg.rates_rps.len());
        let mut cold_ratios = Vec::with_capacity(cfg.rates_rps.len());
        let mut queue_waits = Vec::with_capacity(cfg.rates_rps.len());
        for &rate in &cfg.rates_rps {
            let r = fleet_run(&cfg.base(kind, rate).cold_only(), &cfg.workloads)?;
            p99s.push(r.aggregate.e2e_percentile_secs(99.0));
            cold_ratios.push(r.aggregate.cold_start_ratio());
            queue_waits.push(r.aggregate.queue_wait_mean_secs());
        }
        fig.set_meta(
            &format!("sustained-rps-{}", kind.label()),
            sustained_rps(&cfg.rates_rps, &p99s, 3.0),
        );
        fig.push_series(kind.label(), p99s);
        fig.push_series(&format!("{}-cold-ratio", kind.label()), cold_ratios);
        fig.push_series(&format!("{}-queue-wait-s", kind.label()), queue_waits);
    }
    Ok(fig)
}

/// F1b `fleet-breakdown`: per-function cold-start ratio and latency
/// breakdown (queue wait / restore / execute means) for one SnapBPF
/// fleet run with the default keep-alive pool under the Azure-like
/// popularity mix. Popular functions stay warm; tail functions pay
/// the cold path.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fleet_breakdown(cfg: &FleetFigureConfig) -> Result<FigureData, StrategyError> {
    let rate = cfg.rates_rps.last().copied().unwrap_or(80.0);
    let r = fleet_run(&cfg.base(StrategyKind::SnapBpf, rate), &cfg.workloads)?;
    let mut fig = FigureData::new(
        "fleet-breakdown",
        "Per-function cold-start ratio and latency breakdown (SnapBPF)",
        "s",
        cfg.workloads.iter().map(|w| w.name().to_owned()).collect(),
    );
    fig.push_series(
        "cold-start-ratio",
        r.per_function
            .iter()
            .map(|f| f.cold_start_ratio())
            .collect(),
    );
    fig.push_series(
        "queue-wait-mean-s",
        r.per_function
            .iter()
            .map(|f| f.queue_wait_mean_secs())
            .collect(),
    );
    fig.push_series(
        "restore-mean-s",
        r.per_function
            .iter()
            .map(|f| f.restore_mean_secs())
            .collect(),
    );
    fig.push_series(
        "exec-mean-s",
        r.per_function.iter().map(|f| f.exec_mean_secs()).collect(),
    );
    for stage in RestoreStage::ALL {
        fig.push_series(
            &format!("restore-{}-mean-s", stage.label()),
            r.per_function
                .iter()
                .map(|f| f.restore_stage_mean_secs(stage))
                .collect(),
        );
    }
    fig.set_meta("arrival-rps", rate);
    fig.set_meta("mem-hwm-mib", r.mem_hwm_bytes as f64 / (1u64 << 20) as f64);
    fig.set_meta("disk-read-mibps", r.read_mibps());
    fig.set_meta("page-cache-hit-ratio", cache_hit_ratio(&r.metrics));
    fig.set_meta("dedup-savings-mib", dedup_savings_mib(&r.metrics));
    set_ebpf_meta(&mut fig, &r.metrics);
    Ok(fig)
}

/// Records the eBPF verifier/runtime cost of a run as figure meta:
/// programs verified, verification work done, runtime invocations,
/// mean interpreted instructions per invocation (the looped prefetch
/// program trades many short invocations for one long one), and the
/// load-time optimizer's work. Each key is the metric name with `.`
/// and `_` spelled `-`; the one histogram records its mean under a
/// `-mean` suffix.
fn set_ebpf_meta(fig: &mut FigureData, m: &MetricsRegistry) {
    // In meta order; a histogram contributes its mean.
    const METRICS: [Metric; 10] = [
        Metric::EbpfVerifierPrograms,
        Metric::EbpfVerifierInsnsProcessed,
        Metric::EbpfVerifierStatesPruned,
        Metric::EbpfProgInvocations,
        Metric::EbpfProgInsnsPerInvocation,
        Metric::EbpfOptPrograms,
        Metric::EbpfOptInsnsBefore,
        Metric::EbpfOptInsnsAfter,
        Metric::EbpfOptCacheHits,
        Metric::EbpfOptReverifyRejections,
    ];
    for metric in METRICS {
        let name = metric.name();
        let key = name.replace(['.', '_'], "-");
        if metric.info().kind == MetricKind::Histogram {
            let mean = m.histogram(name).map_or(0.0, Histogram::mean);
            fig.set_meta(&format!("{key}-mean"), mean);
        } else {
            fig.set_meta(&key, m.counter(name) as f64);
        }
    }
}

/// F1d `fleet-pipeline`: aggregate cold-start p99 (dispatch to
/// guest-execution start) per strategy under serialized vs pipelined
/// restore scheduling, per device, at a rate that saturates the SATA
/// model in the pure cold-start regime.
///
/// A serialized restore runs to full drain inside its dispatch
/// event: the guest resumes only after the working-set prefetch
/// completes, and the whole I/O burst hits the shared disk before
/// any other host event runs (a convoy). Pipelining stages restores
/// as first-class virtual-time events, so the vCPU resumes after the
/// short critical path while prefetch work overlaps execution and
/// other sandboxes' restores. Strategies whose user-space prefetch
/// dominates the serialized path gain the most (REAP's uncacheable
/// per-start working-set reads, then Faast's filtered variant, then
/// page-cache-friendly FaaSnap); SnapBPF's restore is already
/// near-minimal — a tiny offsets-file read and an in-kernel,
/// inherently asynchronous prefetch — so it has almost nothing left
/// to pipeline. The meta keys `gain-<label>-<device>` record the
/// serialized/pipelined p99 ratios, averaged over the configured
/// seeds.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fleet_pipeline(cfg: &FleetFigureConfig) -> Result<FigureData, StrategyError> {
    let pl = &cfg.pipeline;
    let workloads: Vec<Workload> = Workload::suite().into_iter().take(pl.functions).collect();
    let kinds = [
        StrategyKind::Reap,
        StrategyKind::Faast,
        StrategyKind::Faasnap,
        StrategyKind::SnapBpf,
    ];
    let mut fig = FigureData::new(
        "fleet-pipeline",
        "Cold-start p99: serialized vs pipelined restore scheduling",
        "s",
        kinds.iter().map(|k| k.label().to_owned()).collect(),
    );
    fig.set_meta("arrival-rps", pl.rate_rps);
    fig.set_meta("seeds", pl.seeds.len() as f64);
    for &device in &pl.devices {
        let mut serialized = Vec::with_capacity(kinds.len());
        let mut pipelined = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let mut s99 = 0.0;
            let mut p99 = 0.0;
            for &seed in &pl.seeds {
                let mut base = FleetConfig::new(kind, workloads.len(), pl.rate_rps)
                    .cold_only()
                    .on(device)
                    .with_seed(seed);
                base.scale = pl.scale;
                base.duration = pl.duration;
                let s = fleet_run(
                    &base.clone().restore_mode(RestoreMode::Serialized),
                    &workloads,
                )?;
                let p = fleet_run(&base.restore_mode(RestoreMode::Pipelined), &workloads)?;
                s99 += s.aggregate.restore_percentile_secs(99.0);
                p99 += p.aggregate.restore_percentile_secs(99.0);
            }
            s99 /= pl.seeds.len() as f64;
            p99 /= pl.seeds.len() as f64;
            fig.set_meta(
                &format!("gain-{}-{}", kind.label(), device.label()),
                s99 / p99.max(1e-12),
            );
            serialized.push(s99);
            pipelined.push(p99);
        }
        fig.push_series(
            &format!("serialized-cold-p99-{}", device.label()),
            serialized,
        );
        fig.push_series(&format!("pipelined-cold-p99-{}", device.label()), pipelined);
    }
    Ok(fig)
}

/// F1e `fleet-trace`: one pipelined fleet point per strategy on the
/// SATA device at the [`PipelineFigureConfig`] rate, run under a
/// recording [`Tracer`]. Returns the summary figure (cold-start p99,
/// page-cache hit ratio, dedup savings, and retained event count per
/// strategy) plus the merged Chrome trace-event JSON — one Chrome
/// `pid` (process row) per strategy, one `tid` (thread row) per
/// sandbox — loadable directly in Perfetto (`ui.perfetto.dev`).
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fleet_trace(cfg: &FleetFigureConfig) -> Result<(FigureData, Json), StrategyError> {
    let pl = &cfg.pipeline;
    let workloads: Vec<Workload> = Workload::suite().into_iter().take(pl.functions).collect();
    let kinds = [
        StrategyKind::Reap,
        StrategyKind::Faast,
        StrategyKind::Faasnap,
        StrategyKind::SnapBpf,
    ];
    let mut fig = FigureData::new(
        "fleet-trace",
        "Traced pipelined fleet point per strategy (SATA)",
        "s",
        kinds.iter().map(|k| k.label().to_owned()).collect(),
    );
    fig.set_meta("arrival-rps", pl.rate_rps);
    let mut events = Vec::new();
    let mut merged = MetricsRegistry::new();
    let mut cold_p99s = Vec::with_capacity(kinds.len());
    let mut hit_ratios = Vec::with_capacity(kinds.len());
    let mut dedup_mibs = Vec::with_capacity(kinds.len());
    let mut event_counts = Vec::with_capacity(kinds.len());
    let mut prog_invocations = Vec::with_capacity(kinds.len());
    let mut insns_per_invocation = Vec::with_capacity(kinds.len());
    for (i, kind) in kinds.iter().enumerate() {
        let mut run_cfg = FleetConfig::new(*kind, workloads.len(), pl.rate_rps)
            .cold_only()
            .on(DeviceKind::Sata5300)
            .restore_mode(RestoreMode::Pipelined);
        run_cfg.scale = pl.scale;
        run_cfg.duration = pl.duration;
        let tracer = Tracer::recording();
        tracer.set_pid(i as u32 + 1);
        tracer.name_process(kind.label());
        let r = fleet_run_with(&run_cfg, &workloads, &tracer)?;
        let evs = tracer.take_events();
        event_counts.push(evs.len() as f64);
        events.extend(evs);
        cold_p99s.push(r.aggregate.restore_percentile_secs(99.0));
        hit_ratios.push(cache_hit_ratio(&r.metrics));
        dedup_mibs.push(dedup_savings_mib(&r.metrics));
        prog_invocations.push(r.metrics.counter("ebpf.prog.invocations") as f64);
        insns_per_invocation.push(
            r.metrics
                .histogram("ebpf.prog.insns_per_invocation")
                .map_or(0.0, Histogram::mean),
        );
        merged.merge(&r.metrics);
    }
    fig.push_series("cold-p99-s", cold_p99s);
    fig.push_series("page-cache-hit-ratio", hit_ratios);
    fig.push_series("dedup-savings-mib", dedup_mibs);
    fig.push_series("trace-events", event_counts);
    fig.push_series("ebpf-prog-invocations", prog_invocations);
    fig.push_series("ebpf-insns-per-invocation-mean", insns_per_invocation);
    set_ebpf_meta(&mut fig, &merged);
    Ok((fig, chrome_trace_json(&events, Some(&merged))))
}

/// F2 `fleet-shard`: cluster cold-start p99 (end-to-end, arrival to
/// completion — queueing included) per placement policy per strategy
/// per device — the multi-host experiment (DESIGN.md §8).
///
/// Each point is a [`Runner`] cluster run over
/// [`ShardFigureConfig::hosts`]
/// hosts in the pure cold-start regime under a remote snapshot
/// distribution and tight per-host concurrency, averaged over the
/// configured seeds. Consistent hashing gives perfect snapshot
/// affinity but collides popular functions on one host, which
/// saturates its restore slots and convoys its queue; least-loaded
/// balances load but scatters every function across all hosts, so
/// restores keep missing the page cache (and every host pays the
/// snapshot transfer); locality-aware placement spreads first touches
/// by load, sticks each function to the host already holding its
/// snapshot pages, and escapes to the least-loaded host before a
/// sticky host convoys. The stickiness only pays off for strategies
/// whose restores actually populate the page cache: SnapBPF's
/// in-kernel prefetch caches the full working set, so locality
/// placement compounds with it, while REAP's uncacheable per-start
/// reads leave locality nothing to see (it degenerates to
/// least-loaded). The meta keys record, per device, the
/// hash→locality p99 gain per strategy (`gain-<label>-<device>`) and
/// SnapBPF's lead over REAP under the two load-balancing policies
/// (`lead-least-loaded-<device>`, `lead-locality-<device>`; locality
/// widens it).
///
/// # Errors
///
/// Strategy and configuration errors propagate.
pub fn fleet_shard(cfg: &FleetFigureConfig) -> Result<FigureData, StrategyError> {
    let sh = &cfg.shard;
    let workloads: Vec<Workload> = Workload::suite().into_iter().take(sh.functions).collect();
    let kinds = [
        StrategyKind::Reap,
        StrategyKind::Faasnap,
        StrategyKind::SnapBpf,
    ];
    let mut fig = FigureData::new(
        "fleet-shard",
        "Cluster cold-start p99 by placement policy",
        "s",
        PlacementKind::ALL
            .iter()
            .map(|p| p.label().to_owned())
            .collect(),
    );
    fig.set_meta("hosts", sh.hosts as f64);
    fig.set_meta("arrival-rps", sh.rate_rps);
    fig.set_meta("seeds", sh.seeds.len() as f64);
    for &device in &sh.devices {
        let mut by_kind: Vec<Vec<f64>> = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let mut p99s = Vec::with_capacity(PlacementKind::ALL.len());
            for placement in PlacementKind::ALL {
                let mut acc = 0.0;
                for &seed in &sh.seeds {
                    let mut base = FleetConfig::new(kind, workloads.len(), sh.rate_rps)
                        .cold_only()
                        .on(device)
                        .with_seed(seed)
                        .sharded(sh.hosts, placement)
                        .with_distribution(sh.distribution);
                    base.scale = sh.scale;
                    base.duration = sh.duration;
                    base.max_concurrency = sh.max_concurrency;
                    let r = Runner::new(&base)
                        .workloads(&workloads)
                        .threads(sh.threads)
                        .run()?
                        .into_cluster()
                        .expect("shard figure configs are multi-host");
                    acc += r.aggregate.e2e_percentile_secs(99.0);
                }
                p99s.push(acc / sh.seeds.len() as f64);
            }
            fig.set_meta(
                &format!("gain-{}-{}", kind.label(), device.label()),
                p99s[0] / p99s[2].max(1e-12),
            );
            fig.push_series(
                &format!("{}-cold-p99-{}", kind.label(), device.label()),
                p99s.clone(),
            );
            by_kind.push(p99s);
        }
        // SnapBPF's lead over REAP under least-loaded vs locality
        // placement (PlacementKind::ALL order: hash, least-loaded,
        // locality). Hash is excluded from the lead comparison: it
        // convoys REAP so badly that it inflates the lead for the
        // wrong reason.
        let reap = &by_kind[0];
        let snapbpf = &by_kind[kinds.len() - 1];
        fig.set_meta(
            &format!("lead-least-loaded-{}", device.label()),
            reap[1] / snapbpf[1].max(1e-12),
        );
        fig.set_meta(
            &format!("lead-locality-{}", device.label()),
            reap[2] / snapbpf[2].max(1e-12),
        );
    }
    Ok(fig)
}

/// F1c `fleet-keepalive`: cold-start ratio and p95 latency across
/// keep-alive TTLs for small and large pool capacities (SnapBPF).
/// Longer TTLs and bigger pools trade host memory (reported as meta
/// high-water marks) for fewer cold starts.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fleet_keepalive(cfg: &FleetFigureConfig) -> Result<FigureData, StrategyError> {
    let rate = cfg.rates_rps.last().copied().unwrap_or(80.0);
    let mut fig = FigureData::new(
        "fleet-keepalive",
        "Cold-start ratio vs keep-alive TTL (SnapBPF)",
        "ratio",
        cfg.ttls
            .iter()
            .map(|t| format!("{}ms", t.as_secs_f64() * 1e3))
            .collect(),
    );
    fig.set_meta("arrival-rps", rate);
    for capacity in [2usize, 8] {
        let mut ratios = Vec::with_capacity(cfg.ttls.len());
        let mut p95s = Vec::with_capacity(cfg.ttls.len());
        let mut hwm = 0u64;
        for &ttl in &cfg.ttls {
            let r: FleetResult = fleet_run(
                &cfg.base(StrategyKind::SnapBpf, rate)
                    .with_pool(capacity, ttl),
                &cfg.workloads,
            )?;
            ratios.push(r.aggregate.cold_start_ratio());
            p95s.push(r.aggregate.e2e_percentile_secs(95.0));
            hwm = hwm.max(r.mem_hwm_bytes);
        }
        fig.push_series(&format!("pool{capacity}-cold-ratio"), ratios);
        fig.push_series(&format!("pool{capacity}-p95-s"), p95s);
        fig.set_meta(
            &format!("mem-hwm-mib-pool{capacity}"),
            hwm as f64 / (1u64 << 20) as f64,
        );
    }
    Ok(fig)
}

/// The strategies every F5 scenario cell is run under, in series
/// order (`survivor-strategy` meta indexes into this).
pub const SCENARIO_STRATEGIES: [StrategyKind; 2] = [StrategyKind::Reap, StrategyKind::SnapBpf];

/// F5 `fleet-scenario-*`: one scenario of the million-user battery
/// (DESIGN.md §13), run for every strategy × placement cell.
/// Categories follow [`PlacementKind::ALL`]; each strategy
/// contributes completed-ratio, end-to-end p99, failed, retried, and
/// shed series (plus per-tenant restore p99s for the noisy-neighbor
/// scenario). Meta pins which cell survives the shape best:
/// `survivor-strategy` indexes [`SCENARIO_STRATEGIES`] and
/// `survivor-placement` indexes [`PlacementKind::ALL`], picked by
/// highest completed ratio with end-to-end p99 as the tie-break.
/// Every run is checked against the invocation-conservation identity
/// ([`conserves_invocations`]); `conserved` is 1 when all cells pass.
///
/// # Errors
///
/// Strategy errors propagate.
///
/// # Panics
///
/// Panics if any cell violates invocation conservation — a scenario
/// figure must never be emitted from a run that lost arrivals.
pub fn fleet_scenario(
    scenario: Scenario,
    cfg: &FleetFigureConfig,
) -> Result<FigureData, StrategyError> {
    let p = &cfg.scenarios;
    let workloads: Vec<Workload> = Workload::suite().into_iter().take(p.functions).collect();
    let mut fig = FigureData::new(
        scenario.figure_id(),
        scenario.title(),
        "mixed",
        PlacementKind::ALL
            .iter()
            .map(|pl| pl.label().to_owned())
            .collect(),
    );
    fig.set_meta("hosts", p.hosts as f64);
    fig.set_meta("arrival-rps", p.rate_rps);
    // (completed ratio, e2e p99, strategy index, placement index).
    let mut survivor: Option<(f64, f64, usize, usize)> = None;
    for (ki, &kind) in SCENARIO_STRATEGIES.iter().enumerate() {
        let n = PlacementKind::ALL.len();
        let mut ratios = Vec::with_capacity(n);
        let mut p99s = Vec::with_capacity(n);
        let mut failed = Vec::with_capacity(n);
        let mut retried = Vec::with_capacity(n);
        let mut shed = Vec::with_capacity(n);
        let mut victim_p99s = Vec::with_capacity(n);
        let mut aggressor_p99s = Vec::with_capacity(n);
        for (pi, &placement) in PlacementKind::ALL.iter().enumerate() {
            let run_cfg = scenario.config(kind, placement, p);
            let r = Runner::new(&run_cfg)
                .workloads(&workloads)
                .run()?
                .into_cluster()
                .expect("scenario configs are multi-host");
            let a = &r.aggregate;
            assert!(
                conserves_invocations(a),
                "{}/{}/{}: completed {} + shed {} + failed {} + retried {} != arrivals {}",
                scenario.label(),
                kind.label(),
                placement.label(),
                a.completions,
                a.shed,
                a.failed,
                a.retried,
                a.arrivals
            );
            let ratio = a.completions as f64 / a.arrivals.max(1) as f64;
            let p99 = a.e2e_percentile_secs(99.0);
            ratios.push(ratio);
            p99s.push(p99);
            failed.push(a.failed as f64);
            retried.push(a.retried as f64);
            shed.push(a.shed as f64);
            if let Some(tenants) = run_cfg.tenants.as_ref() {
                let by_tenant = tenant_aggregates(&r.per_function, tenants);
                victim_p99s.push(by_tenant[0].restore_percentile_secs(99.0));
                aggressor_p99s.push(by_tenant[1].restore_percentile_secs(99.0));
            }
            let better = match survivor {
                None => true,
                Some((best_ratio, best_p99, ..)) => {
                    ratio > best_ratio + 1e-9
                        || ((ratio - best_ratio).abs() <= 1e-9 && p99 < best_p99)
                }
            };
            if better {
                survivor = Some((ratio, p99, ki, pi));
            }
        }
        let label = kind.label();
        fig.push_series(&format!("{label}-completed-ratio"), ratios);
        fig.push_series(&format!("{label}-e2e-p99-s"), p99s);
        fig.push_series(&format!("{label}-failed"), failed);
        fig.push_series(&format!("{label}-retried"), retried);
        fig.push_series(&format!("{label}-shed"), shed);
        if !victim_p99s.is_empty() {
            fig.push_series(&format!("{label}-victim-restore-p99-s"), victim_p99s);
            fig.push_series(&format!("{label}-aggressor-restore-p99-s"), aggressor_p99s);
        }
    }
    let (ratio, p99, ki, pi) = survivor.expect("at least one cell ran");
    fig.set_meta("survivor-strategy", ki as f64);
    fig.set_meta("survivor-placement", pi as f64);
    fig.set_meta("survivor-completed-ratio", ratio);
    fig.set_meta("survivor-e2e-p99-s", p99);
    fig.set_meta("conserved", 1.0);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_shows_reap_knee() {
        let cfg = FleetFigureConfig::quick(0.02);
        let a = fleet_sweep(&cfg).unwrap();
        let b = fleet_sweep(&cfg).unwrap();
        assert_eq!(
            a.to_json().unwrap(),
            b.to_json().unwrap(),
            "fleet-sweep must be bit-identical across runs"
        );
        let reap = a.meta_value("sustained-rps-REAP").unwrap();
        let snapbpf = a.meta_value("sustained-rps-SnapBPF").unwrap();
        assert!(
            snapbpf >= reap,
            "SnapBPF must sustain at least REAP's rate (snapbpf {snapbpf} vs reap {reap})"
        );
    }

    #[test]
    fn breakdown_covers_every_function() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_breakdown(&cfg).unwrap();
        let ratios = fig.series_values("cold-start-ratio").unwrap();
        assert_eq!(ratios.len(), cfg.workloads.len());
        assert!(ratios.iter().all(|r| (0.0..=1.0).contains(r)));
        assert!(fig.series_values("queue-wait-mean-s").is_some());
        assert!(fig.meta_value("mem-hwm-mib").unwrap() > 0.0);
        let hit = fig.meta_value("page-cache-hit-ratio").unwrap();
        assert!(
            (0.0..=1.0).contains(&hit) && hit > 0.0,
            "a fleet run must hit the page cache (ratio {hit})"
        );
        assert!(fig.meta_value("dedup-savings-mib").unwrap() >= 0.0);
        // Every restore stage has a per-function series, and the
        // resume stage (the fixed VMM overhead) is non-zero wherever
        // a cold start happened.
        for stage in RestoreStage::ALL {
            let vals = fig
                .series_values(&format!("restore-{}-mean-s", stage.label()))
                .unwrap();
            assert_eq!(vals.len(), cfg.workloads.len());
        }
        let resume = fig.series_values("restore-resume-mean-s").unwrap();
        assert!(
            ratios
                .iter()
                .zip(resume)
                .all(|(r, s)| *r == 0.0 || *s > 0.0),
            "cold-started functions must report a resume-stage cost"
        );
    }

    #[test]
    fn pipeline_gains_order_matches_prefetch_volume() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_pipeline(&cfg).unwrap();
        let dev = DeviceKind::Sata5300.label();
        let gain = |label: &str| fig.meta_value(&format!("gain-{label}-{dev}")).unwrap();
        // Pipelining must genuinely cut cold-start p99 for the
        // strategies whose user-space prefetch blocks the serialized
        // resume (measured quick-config gains: REAP ~14x, Faast
        // ~2.5x, FaaSnap ~1.7x; margins kept loose)...
        assert!(
            gain("REAP") > 2.0,
            "pipelining must cut REAP's serialized cold-start p99 (gain {})",
            gain("REAP")
        );
        assert!(
            gain("FaaSnap") > 1.1,
            "pipelining must cut FaaSnap's serialized cold-start p99 (gain {})",
            gain("FaaSnap")
        );
        // ...while SnapBPF, whose restore is a tiny offsets read plus
        // an already-asynchronous in-kernel prefetch, benefits least.
        assert!(
            gain("SnapBPF") < 1.2,
            "SnapBPF has almost nothing to pipeline (gain {})",
            gain("SnapBPF")
        );
        assert!(
            gain("REAP") > gain("SnapBPF") && gain("FaaSnap") > gain("SnapBPF"),
            "SnapBPF must benefit least (REAP {}, FaaSnap {}, SnapBPF {})",
            gain("REAP"),
            gain("FaaSnap"),
            gain("SnapBPF")
        );
    }

    #[test]
    fn trace_figure_is_deterministic_and_parseable() {
        let cfg = FleetFigureConfig::quick(0.02);
        let (fig, trace) = fleet_trace(&cfg).unwrap();
        let (_, again) = fleet_trace(&cfg).unwrap();
        assert_eq!(
            trace.pretty(),
            again.pretty(),
            "identical-seed runs must serialize byte-identical traces"
        );
        let parsed = Json::parse(&trace.pretty()).expect("trace reparses");
        let events = parsed
            .get("traceEvents")
            .and_then(|j| j.as_array())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        for e in events {
            assert!(e.get("name").and_then(|j| j.as_str()).is_some());
            assert!(e.get("pid").and_then(|j| j.as_u64()).is_some());
            assert!(e.get("tid").and_then(|j| j.as_u64()).is_some());
            match e.get("ph").and_then(|j| j.as_str()).expect("ph") {
                "X" => assert!(e.get("ts").is_some() && e.get("dur").is_some()),
                "i" => assert!(e.get("ts").is_some()),
                "M" => {}
                other => panic!("unknown phase `{other}`"),
            }
        }
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(|j| j.as_str()) != Some("M")),
            "trace has metadata only"
        );
        assert!(parsed.get("metrics").is_some());
        // One Chrome process row per strategy.
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(|j| j.as_u64()))
            .collect();
        assert_eq!(pids.len(), 4);
        let ratios = fig.series_values("page-cache-hit-ratio").unwrap();
        assert!(ratios.iter().all(|r| (0.0..=1.0).contains(r)));
        let counts = fig.series_values("trace-events").unwrap();
        assert!(counts.iter().all(|c| *c > 0.0));
    }

    #[test]
    fn shard_locality_beats_hash_for_snapbpf_on_both_devices() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_shard(&cfg).unwrap();
        // The F2 acceptance ordering, on SATA *and* NVMe: for
        // SnapBPF, locality-aware placement must beat consistent
        // hashing on cluster cold-start p99 (series order follows
        // PlacementKind::ALL: hash, least-loaded, locality).
        for device in [DeviceKind::Sata5300, DeviceKind::Nvme] {
            let p99 = fig
                .series_values(&format!("SnapBPF-cold-p99-{}", device.label()))
                .unwrap();
            assert_eq!(p99.len(), 3);
            assert!(
                p99[2] < p99[0],
                "locality ({}) must beat hash ({}) for SnapBPF on {}",
                p99[2],
                p99[0],
                device.label()
            );
            // ...beat plain least-loaded too (the cache-affinity
            // payoff, not just load balancing)...
            assert!(
                p99[2] < p99[1],
                "locality ({}) must beat least-loaded ({}) for SnapBPF on {}",
                p99[2],
                p99[1],
                device.label()
            );
            // ...and widen SnapBPF's lead over REAP relative to
            // locality-blind load balancing.
            let lead_ll = fig
                .meta_value(&format!("lead-least-loaded-{}", device.label()))
                .unwrap();
            let lead_locality = fig
                .meta_value(&format!("lead-locality-{}", device.label()))
                .unwrap();
            assert!(
                lead_locality > lead_ll,
                "locality must widen SnapBPF's lead over REAP on {} \
                 (least-loaded {lead_ll}, locality {lead_locality})",
                device.label()
            );
        }
    }

    #[test]
    fn scenario_crash_figure_pins_survivor_and_conservation() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_scenario(Scenario::HostCrash, &cfg).unwrap();
        assert_eq!(fig.id, "fleet-scenario-crash");
        assert_eq!(fig.meta_value("conserved"), Some(1.0));
        let ks = fig.meta_value("survivor-strategy").unwrap();
        let ps = fig.meta_value("survivor-placement").unwrap();
        assert!((0.0..SCENARIO_STRATEGIES.len() as f64).contains(&ks));
        assert!((0.0..PlacementKind::ALL.len() as f64).contains(&ps));
        for kind in SCENARIO_STRATEGIES {
            let label = kind.label();
            let ratios = fig
                .series_values(&format!("{label}-completed-ratio"))
                .unwrap();
            assert_eq!(ratios.len(), PlacementKind::ALL.len());
            assert!(ratios.iter().all(|r| (0.0..=1.0).contains(r)));
            // With retry enabled the crash converts kills into
            // retries under every placement.
            let retried = fig.series_values(&format!("{label}-retried")).unwrap();
            assert!(
                retried.iter().all(|r| *r > 0.0),
                "the crash must retry something under every placement ({label}: {retried:?})"
            );
        }
        // Determinism: the same config reproduces the figure exactly.
        let again = fleet_scenario(Scenario::HostCrash, &cfg).unwrap();
        assert_eq!(fig.to_json().unwrap(), again.to_json().unwrap());
    }

    #[test]
    fn scenario_noisy_neighbor_reports_tenant_interference() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_scenario(Scenario::NoisyNeighbor, &cfg).unwrap();
        assert_eq!(fig.meta_value("conserved"), Some(1.0));
        for kind in SCENARIO_STRATEGIES {
            let label = kind.label();
            let victim = fig
                .series_values(&format!("{label}-victim-restore-p99-s"))
                .unwrap();
            let aggressor = fig
                .series_values(&format!("{label}-aggressor-restore-p99-s"))
                .unwrap();
            assert_eq!(victim.len(), PlacementKind::ALL.len());
            assert!(
                victim.iter().chain(aggressor).all(|v| *v > 0.0),
                "both tenants must cold-start under cache pressure \
                 ({label}: victim {victim:?}, aggressor {aggressor:?})"
            );
        }
    }

    #[test]
    fn keepalive_longer_ttl_not_colder() {
        let cfg = FleetFigureConfig::quick(0.02);
        let fig = fleet_keepalive(&cfg).unwrap();
        for capacity in [2, 8] {
            let ratios = fig
                .series_values(&format!("pool{capacity}-cold-ratio"))
                .unwrap();
            let first = ratios.first().copied().unwrap();
            let last = ratios.last().copied().unwrap();
            assert!(
                last <= first + 1e-12,
                "longer TTL must not raise the cold ratio (pool {capacity}: {first} -> {last})"
            );
        }
    }
}
