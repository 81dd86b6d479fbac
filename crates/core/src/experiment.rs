//! The experiment runner.
//!
//! Reproduces the paper's methodology (§4): create the function
//! snapshot, run the strategy's record phase, drop the page cache
//! (so the invocation phase starts cache-cold), restore `n`
//! sandboxes, and replay one invocation per sandbox concurrently.
//! Latency, memory, and I/O are measured exactly where the paper
//! measures them.

use snapbpf_kernel::{HostKernel, KernelConfig, VmMemStats};
use snapbpf_mem::{MemorySnapshot, OwnerId};
use snapbpf_sim::{SimDuration, SimTime, Tracer};
use snapbpf_storage::{BlockDevice, Disk, HddModel, SsdModel};
use snapbpf_vmm::{run_concurrent, InvocationResult, MicroVm, Snapshot, UffdResolver};
use snapbpf_workloads::{InvocationTrace, Workload};

use crate::restore::StageTimings;
use crate::strategy::{FunctionCtx, RestoredVm, Strategy, StrategyError, StrategyKind};

/// The storage device an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceKind {
    /// The paper's testbed: Micron 5300 SATA SSD.
    #[default]
    Sata5300,
    /// A modern NVMe drive (sensitivity analysis).
    Nvme,
    /// A 7200 RPM spindle disk (ablation A2: where the "SSDs relax
    /// sequential-I/O needs" insight stops holding).
    Hdd7200,
}

impl DeviceKind {
    /// Builds the device model.
    pub fn build(&self) -> Box<dyn BlockDevice> {
        match self {
            DeviceKind::Sata5300 => Box::new(SsdModel::micron_5300()),
            DeviceKind::Nvme => Box::new(SsdModel::nvme()),
            DeviceKind::Hdd7200 => Box::new(HddModel::sata_7200rpm()),
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Sata5300 => "sata-ssd",
            DeviceKind::Nvme => "nvme",
            DeviceKind::Hdd7200 => "hdd",
        }
    }

    /// Every modeled device, in sweep order.
    pub const ALL: [DeviceKind; 3] = [DeviceKind::Sata5300, DeviceKind::Nvme, DeviceKind::Hdd7200];

    /// Parses a [`DeviceKind::label`] string (CLI `--device` values).
    pub fn parse(s: &str) -> Option<DeviceKind> {
        DeviceKind::ALL.into_iter().find(|d| d.label() == s)
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Storage device.
    pub device: DeviceKind,
    /// Workload size scale in `(0, 1]` (1.0 = paper-sized functions;
    /// tests use small scales).
    pub scale: f64,
    /// Number of concurrent sandboxes.
    pub instances: usize,
    /// When `true`, each sandbox is invoked with a *different input*
    /// (trace variant = sandbox index) while recording still used
    /// the canonical input — the paper's deferred future-work
    /// question on how input variation affects deduplication.
    pub vary_inputs: bool,
    /// Optional host-memory cap in pages (`None` = the default
    /// 32 GiB). Used by the memory-pressure extension.
    pub memory_pages: Option<u64>,
}

impl RunConfig {
    /// A single-instance run (Figure 3a / Figure 4 shape).
    pub fn single(scale: f64) -> Self {
        RunConfig {
            device: DeviceKind::Sata5300,
            scale,
            instances: 1,
            vary_inputs: false,
            memory_pages: None,
        }
    }

    /// A concurrent run (Figures 3b / 3c use 10 instances).
    pub fn concurrent(scale: f64, instances: usize) -> Self {
        RunConfig {
            instances,
            ..RunConfig::single(scale)
        }
    }

    /// Same configuration on a different device.
    #[must_use]
    pub fn on(mut self, device: DeviceKind) -> Self {
        self.device = device;
        self
    }

    /// Same configuration with per-sandbox input variants.
    #[must_use]
    pub fn with_varying_inputs(mut self) -> Self {
        self.vary_inputs = true;
        self
    }

    /// Same configuration with a host-memory cap, in pages.
    #[must_use]
    pub fn with_memory_pages(mut self, pages: u64) -> Self {
        self.memory_pages = Some(pages);
        self
    }
}

/// The default host-kernel configuration with `memory_pages` of host
/// memory (`None` keeps the default 32 GiB).
///
/// # Errors
///
/// [`StrategyError::Config`] when `memory_pages` is below
/// [`KernelConfig::MIN_MEMORY_PAGES`], which [`HostKernel::new`]
/// rejects.
pub fn kernel_config_for(memory_pages: Option<u64>) -> Result<KernelConfig, StrategyError> {
    let mut config = KernelConfig::default();
    if let Some(pages) = memory_pages {
        let min = KernelConfig::MIN_MEMORY_PAGES;
        if pages < min {
            return Err(StrategyError::Config(format!(
                "memory_pages = {pages} is below the {min} pages a host kernel needs"
            )));
        }
        config.total_memory_pages = pages;
    }
    Ok(config)
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Function name.
    pub function: &'static str,
    /// Strategy label.
    pub strategy: &'static str,
    /// Number of concurrent sandboxes.
    pub instances: usize,
    /// Per-sandbox end-to-end invocation latency.
    pub e2e: Vec<SimDuration>,
    /// System-wide memory at the end of the invocations (before
    /// teardown) — what Figure 3c reports.
    pub memory: MemorySnapshot,
    /// Bytes read from storage during the invocation phase.
    pub invoke_read_bytes: u64,
    /// Offsets-map load cost (SnapBPF only; §4 overheads).
    pub offset_load_cost: SimDuration,
    /// Per-stage restore durations, element-wise maxima over the
    /// restored instances (the §4 cold-start breakdown's tail
    /// profile).
    pub restore_stages: StageTimings,
    /// Fault statistics summed over all sandboxes.
    pub stats: VmMemStats,
    /// Pages of on-disk artifacts the record phase produced (working
    /// set files and metadata).
    pub artifact_pages: u64,
    /// Duration of the record/prepare phase (recording invocation
    /// plus any snapshot scanning and artifact serialization) — what
    /// Table 1's "no preemptive scanning" column costs in time.
    pub record_duration: SimDuration,
    /// CPU time spent in kprobe dispatch + eBPF program execution
    /// across the whole run (record + invoke) — part of the paper's
    /// deferred "comprehensive overhead analysis".
    pub ebpf_cpu: SimDuration,
    /// Page-cache-insertion hook firings across the whole run.
    pub hook_fires: u64,
}

impl RunResult {
    /// Mean end-to-end latency across sandboxes.
    pub fn e2e_mean(&self) -> SimDuration {
        if self.e2e.is_empty() {
            return SimDuration::ZERO;
        }
        self.e2e.iter().copied().sum::<SimDuration>() / self.e2e.len() as u64
    }
}

fn sum_stats(results: &[InvocationResult]) -> VmMemStats {
    let mut total = VmMemStats::default();
    for r in results {
        total.hits += r.stats.hits;
        total.minor_faults += r.stats.minor_faults;
        total.major_faults += r.stats.major_faults;
        total.pv_anon_faults += r.stats.pv_anon_faults;
        total.cow_breaks += r.stats.cow_breaks;
        total.uffd_faults += r.stats.uffd_faults;
        total.filtered_anon_faults += r.stats.filtered_anon_faults;
    }
    total
}

/// Runs one experiment: `kind` on `workload` under `cfg`.
///
/// # Errors
///
/// [`StrategyError::Config`] when `cfg` asks for zero instances or
/// less host memory than a kernel needs; strategy and kernel errors
/// propagate.
pub fn run_one(
    kind: StrategyKind,
    workload: &Workload,
    cfg: &RunConfig,
) -> Result<RunResult, StrategyError> {
    run_one_with(kind.build().as_mut(), kind.label(), workload, cfg)
}

/// Like [`run_one`] but with a caller-configured strategy instance
/// (used by the ablations, e.g. FaaSnap with a custom coalescing gap
/// or SnapBPF with grouping/sorting disabled).
///
/// # Errors
///
/// As [`run_one`].
pub fn run_one_with(
    strategy: &mut dyn Strategy,
    label: &'static str,
    workload: &Workload,
    cfg: &RunConfig,
) -> Result<RunResult, StrategyError> {
    run_one_inner(strategy, label, workload, cfg, &Tracer::disabled())
}

/// [`run_one_with`], with `tracer` installed on the host for the
/// invocation phase (after the cache drop, at the same point the
/// disk's read counters reset), so traces and metrics cover exactly
/// what the run measures.
fn run_one_inner(
    strategy: &mut dyn Strategy,
    label: &'static str,
    workload: &Workload,
    cfg: &RunConfig,
    tracer: &Tracer,
) -> Result<RunResult, StrategyError> {
    if cfg.instances == 0 {
        return Err(StrategyError::Config(
            "instances must be at least 1".to_owned(),
        ));
    }
    let kernel_config = kernel_config_for(cfg.memory_pages)?;
    let mut host = HostKernel::new(Disk::new(cfg.device.build()), kernel_config);
    let workload = workload.scaled(cfg.scale);

    // Phase 0: snapshot creation (shared by all approaches).
    let (snapshot, t_snap) = Snapshot::create(
        SimTime::ZERO,
        workload.name(),
        workload.snapshot_pages(),
        &mut host,
    )?;
    let func = FunctionCtx { workload, snapshot };

    // Phase 1: record.
    let t_rec = strategy.record(t_snap, &mut host, &func)?;
    let record_duration = t_rec.saturating_since(t_snap);

    // Cache-cold invocation phase, with the disk's read counters
    // reset so the measurements cover only the invocation.
    host.drop_all_caches()?;
    let artifact_pages = artifact_pages_of(&host, func.workload.name());
    host.disk_mut().reset_read_counts();
    host.install_tracer(tracer);

    // Phase 2: restore `instances` sandboxes at the same instant.
    let restored: Vec<RestoredVm> = (0..cfg.instances)
        .map(|i| strategy.restore(t_rec, &mut host, &func, OwnerId::new(i as u32)))
        .collect::<Result<_, _>>()?;
    let offset_load_cost = restored
        .iter()
        .map(|r| r.offset_load_cost)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mut restore_stages = StageTimings::default();
    for r in &restored {
        restore_stages.merge_max(&r.stages);
    }

    // Phase 3: concurrent invocations — identical inputs by
    // default (the paper's methodology), or one input variant per
    // sandbox when configured.
    let owned_traces: Vec<InvocationTrace> = if cfg.vary_inputs {
        (0..cfg.instances)
            .map(|i| func.workload.trace_variant(i as u32))
            .collect()
    } else {
        vec![func.workload.trace()]
    };
    let traces: Vec<&InvocationTrace> = (0..cfg.instances)
        .map(|i| &owned_traces[if cfg.vary_inputs { i } else { 0 }])
        .collect();
    let (results, memory, invoke_read_bytes) = invoke(&mut host, restored, &traces)?;
    let stats = sum_stats(&results);

    Ok(RunResult {
        function: func.workload.name(),
        strategy: label,
        instances: cfg.instances,
        e2e: results.iter().map(|r| r.e2e_latency).collect(),
        memory,
        invoke_read_bytes,
        offset_load_cost,
        restore_stages,
        stats,
        artifact_pages,
        record_duration,
        ebpf_cpu: host.ebpf_cpu(),
        hook_fires: host.hook_fires(),
    })
}

/// Result of a co-located run: one sandbox per function on a shared
/// host.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocatedResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Per-function latency from the *common* restore-request
    /// instant to invocation completion (so queueing behind other
    /// tenants' restores is visible), in input order.
    pub e2e: Vec<(&'static str, SimDuration)>,
    /// System-wide memory at the end of the invocations.
    pub memory: MemorySnapshot,
    /// Bytes read from storage during the invocation phase.
    pub invoke_read_bytes: u64,
}

/// Runs one sandbox of *each* workload concurrently on a shared host
/// — the multi-tenant co-location scenario a FaaS node actually
/// sees. Each function gets its own snapshot and its own strategy
/// instance (record + restore); all sandboxes start at the same
/// instant and contend for the one disk and page cache.
///
/// # Errors
///
/// Strategy and kernel errors propagate.
pub fn run_colocated(
    kind: StrategyKind,
    workloads: &[Workload],
    cfg: &RunConfig,
) -> Result<ColocatedResult, StrategyError> {
    let kernel_config = kernel_config_for(cfg.memory_pages)?;
    let mut host = HostKernel::new(Disk::new(cfg.device.build()), kernel_config);

    // Snapshots + record phases, sequentially in virtual time.
    let mut t = SimTime::ZERO;
    let mut funcs = Vec::with_capacity(workloads.len());
    let mut strategies = Vec::with_capacity(workloads.len());
    for w in workloads {
        let w = w.scaled(cfg.scale);
        let (snapshot, t_snap) = Snapshot::create(t, w.name(), w.snapshot_pages(), &mut host)?;
        let func = FunctionCtx {
            workload: w,
            snapshot,
        };
        let mut strategy = kind.build();
        t = strategy.record(t_snap, &mut host, &func)?;
        funcs.push(func);
        strategies.push(strategy);
    }

    host.drop_all_caches()?;
    host.disk_mut().reset_read_counts();

    // Restore one sandbox per function at the same instant.
    let restored: Vec<RestoredVm> = funcs
        .iter()
        .zip(&mut strategies)
        .enumerate()
        .map(|(i, (func, strategy))| strategy.restore(t, &mut host, func, OwnerId::new(i as u32)))
        .collect::<Result<_, _>>()?;

    let owned_traces: Vec<InvocationTrace> = funcs.iter().map(|f| f.workload.trace()).collect();
    let traces: Vec<&InvocationTrace> = owned_traces.iter().collect();
    let (results, memory, invoke_read_bytes) = invoke(&mut host, restored, &traces)?;

    Ok(ColocatedResult {
        strategy: kind.label(),
        e2e: funcs
            .iter()
            .zip(&results)
            .map(|(f, r)| (f.workload.name(), r.end_time.saturating_since(t)))
            .collect(),
        memory,
        invoke_read_bytes,
    })
}

/// The invocation phase: runs each restored sandbox's trace
/// concurrently, each from its restore's ready time, measures memory
/// and the phase's storage reads, then tears the sandboxes down.
fn invoke(
    host: &mut HostKernel,
    mut restored: Vec<RestoredVm>,
    traces: &[&InvocationTrace],
) -> Result<(Vec<InvocationResult>, MemorySnapshot, u64), StrategyError> {
    let starts: Vec<SimTime> = restored.iter().map(|r| r.ready_at).collect();
    let (mut vms, mut resolvers): (Vec<&mut MicroVm>, Vec<&mut dyn UffdResolver>) = restored
        .iter_mut()
        .map(|r| (&mut r.vm, r.resolver.as_mut() as &mut dyn UffdResolver))
        .unzip();
    let results = run_concurrent(&starts, &mut vms, traces, host, &mut resolvers)?;

    let memory = host.memory_snapshot();
    let invoke_read_bytes = host.disk().read_bytes();
    for r in &mut restored {
        r.vm.kvm_mut().teardown(host)?;
    }
    debug_assert_eq!(host.accounting_discrepancy(), 0);
    Ok((results, memory, invoke_read_bytes))
}

/// Total pages of `<function>.*` artifact files (everything but the
/// snapshot itself).
fn artifact_pages_of(host: &HostKernel, function: &str) -> u64 {
    let suffixes = [
        ".reap.ws",
        ".reap.meta",
        ".faast.ws",
        ".faasnap.ws",
        ".snapbpf.offsets",
    ];
    suffixes
        .iter()
        .filter_map(|s| host.disk().file_by_name(&format!("{function}{s}")))
        .map(|f| host.disk().file_pages(f).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.05;

    #[test]
    fn single_instance_shapes_fig3a() {
        // Figure 3a's qualitative claims. On an allocation-heavy
        // function, REAP wastes I/O fetching + installing dead
        // ephemeral pages, so SnapBPF clearly outperforms it ("in
        // some cases outperforms", §4); it also stays at least
        // comparable to FaaSnap.
        let w = Workload::by_name("image").unwrap();
        let cfg = RunConfig::single(SCALE);
        let reap = run_one(StrategyKind::Reap, &w, &cfg).unwrap();
        let faasnap = run_one(StrategyKind::Faasnap, &w, &cfg).unwrap();
        let snapbpf = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        assert!(
            snapbpf.e2e_mean().mul_f64(1.2) < reap.e2e_mean(),
            "SnapBPF {} vs REAP {}",
            snapbpf.e2e_mean(),
            reap.e2e_mean()
        );
        assert!(
            snapbpf.e2e_mean() < faasnap.e2e_mean().mul_f64(1.3),
            "SnapBPF {} should be comparable to FaaSnap {}",
            snapbpf.e2e_mean(),
            faasnap.e2e_mean()
        );
        // And SnapBPF wrote no working-set pages to disk.
        assert!(snapbpf.artifact_pages < reap.artifact_pages / 10);

        // On a read-mostly model-serving function both approaches
        // are storage-bound and converge ("comparable latency to
        // state-of-the-art", §1): SnapBPF within ~15% of REAP.
        let big = Workload::by_name("bert").unwrap();
        let reap_b = run_one(StrategyKind::Reap, &big, &cfg).unwrap();
        let snap_b = run_one(StrategyKind::SnapBpf, &big, &cfg).unwrap();
        assert!(
            snap_b.e2e_mean() < reap_b.e2e_mean().mul_f64(1.15),
            "SnapBPF {} should stay comparable to REAP {} on bert",
            snap_b.e2e_mean(),
            reap_b.e2e_mean()
        );
    }

    #[test]
    fn concurrent_dedup_shapes_fig3c() {
        // Figure 3c's claim on a large-WS function: SnapBPF's memory
        // is far below REAP's at 10x concurrency (scaled here: 4x).
        let w = Workload::by_name("bfs").unwrap();
        let cfg = RunConfig::concurrent(SCALE, 4);
        let reap = run_one(StrategyKind::Reap, &w, &cfg).unwrap();
        let snapbpf = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        let ratio = reap.memory.total_bytes() as f64 / snapbpf.memory.total_bytes() as f64;
        assert!(
            ratio > 2.0,
            "REAP {} vs SnapBPF {} (ratio {ratio:.2})",
            reap.memory,
            snapbpf.memory
        );
        // SnapBPF's memory is mostly shared page cache.
        assert!(snapbpf.memory.shared_fraction() > 0.5);
        // REAP's is all anonymous.
        assert_eq!(reap.memory.page_cache_pages, 0);
    }

    #[test]
    fn concurrent_latency_shapes_fig3b() {
        let w = Workload::by_name("bert").unwrap();
        let cfg = RunConfig::concurrent(SCALE, 4);
        let reap = run_one(StrategyKind::Reap, &w, &cfg).unwrap();
        let snapbpf = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        let nora = run_one(StrategyKind::LinuxNoRa, &w, &cfg).unwrap();
        assert!(snapbpf.e2e_mean() < reap.e2e_mean());
        assert!(snapbpf.e2e_mean() < nora.e2e_mean());
        // Reads scale with instance count for REAP but not SnapBPF.
        assert!(reap.invoke_read_bytes > 2 * snapbpf.invoke_read_bytes);
    }

    #[test]
    fn pv_pte_breakdown_shapes_fig4() {
        // image (allocation-heavy) gains a lot from PV PTEs alone;
        // rnn (model-heavy) gains mostly from prefetching.
        let cfg = RunConfig::single(SCALE);
        let image_ra = run_one(
            StrategyKind::LinuxRa,
            &Workload::by_name("image").unwrap(),
            &cfg,
        )
        .unwrap();
        let image_pv = run_one(
            StrategyKind::SnapBpfPvOnly,
            &Workload::by_name("image").unwrap(),
            &cfg,
        )
        .unwrap();
        let image_full = run_one(
            StrategyKind::SnapBpf,
            &Workload::by_name("image").unwrap(),
            &cfg,
        )
        .unwrap();
        assert!(
            (image_pv.e2e_mean().as_nanos() as f64) < 0.8 * image_ra.e2e_mean().as_nanos() as f64,
            "PV alone should speed up image noticeably: {} vs {}",
            image_pv.e2e_mean(),
            image_ra.e2e_mean()
        );
        assert!(image_full.e2e_mean() <= image_pv.e2e_mean());

        let rnn_ra = run_one(
            StrategyKind::LinuxRa,
            &Workload::by_name("rnn").unwrap(),
            &cfg,
        )
        .unwrap();
        let rnn_pv = run_one(
            StrategyKind::SnapBpfPvOnly,
            &Workload::by_name("rnn").unwrap(),
            &cfg,
        )
        .unwrap();
        let rnn_ratio = rnn_pv.e2e_mean().ratio(rnn_ra.e2e_mean());
        assert!(
            rnn_ratio > 0.85,
            "PV alone should barely help rnn (got {rnn_ratio:.2})"
        );
    }

    #[test]
    fn traced_runs_match_untraced_and_reconcile_stages() {
        let w = Workload::by_name("json").unwrap();
        let cfg = RunConfig::single(SCALE);
        let plain = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();

        // A metrics-only (noop-sink) tracer must not perturb results.
        let traced_run = |tracer: &Tracer| {
            let kind = StrategyKind::SnapBpf;
            run_one_inner(kind.build().as_mut(), kind.label(), &w, &cfg, tracer).unwrap()
        };
        let noop = Tracer::noop();
        let with_noop = traced_run(&noop);
        assert_eq!(plain, with_noop);
        assert!(noop.counter("mem.cache.misses") > 0);

        // Neither must a full recording tracer.
        let rec = Tracer::recording();
        let traced = traced_run(&rec);
        assert_eq!(plain, traced);

        // Restore-stage spans reconcile exactly with the reported
        // per-stage breakdown (single instance: merge_max is the
        // identity).
        let events = rec.take_events();
        assert!(!events.is_empty());
        for stage in crate::restore::RestoreStage::ALL {
            let total: u64 = events
                .iter()
                .filter(|e| e.cat == "restore" && e.name == stage.label())
                .filter_map(|e| e.dur)
                .map(|d| d.as_nanos())
                .sum();
            assert_eq!(
                total,
                traced.restore_stages.get(stage).as_nanos(),
                "stage {stage} span total disagrees with stage_breakdown"
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Workload::by_name("pyaes").unwrap();
        let cfg = RunConfig::single(SCALE);
        let a = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        let b = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_strategies_run_every_small_workload() {
        let cfg = RunConfig::single(0.02);
        for kind in [
            StrategyKind::LinuxNoRa,
            StrategyKind::LinuxRa,
            StrategyKind::Reap,
            StrategyKind::Faast,
            StrategyKind::Faasnap,
            StrategyKind::SnapBpf,
            StrategyKind::SnapBpfPvOnly,
            StrategyKind::SnapBpfEbpfOnly,
            StrategyKind::SnapBpfBuggyCow,
        ] {
            let w = Workload::by_name("html").unwrap();
            let r = run_one(kind, &w, &cfg).unwrap();
            assert!(!r.e2e.is_empty(), "{kind}");
            assert!(r.e2e_mean() > SimDuration::ZERO, "{kind}");
        }
    }

    #[test]
    fn buggy_cow_destroys_dedup() {
        let w = Workload::by_name("html").unwrap();
        let cfg = RunConfig::concurrent(0.05, 4);
        let patched = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap();
        let buggy = run_one(StrategyKind::SnapBpfBuggyCow, &w, &cfg).unwrap();
        assert!(
            buggy.memory.anon_pages > 2 * patched.memory.anon_pages,
            "buggy {} vs patched {}",
            buggy.memory,
            patched.memory
        );
    }

    #[test]
    fn memory_below_the_host_minimum_is_a_config_error() {
        let w = Workload::by_name("json").unwrap();
        let min = KernelConfig::MIN_MEMORY_PAGES;
        for pages in [0, 16, min - 1] {
            let cfg = RunConfig::single(0.02).with_memory_pages(pages);
            let one = run_one(StrategyKind::SnapBpf, &w, &cfg).unwrap_err();
            let colocated =
                run_colocated(StrategyKind::SnapBpf, std::slice::from_ref(&w), &cfg).unwrap_err();
            for err in [one, colocated] {
                assert!(matches!(err, StrategyError::Config(_)), "got {err}");
                assert!(
                    err.to_string().contains(&format!("{pages} is below")),
                    "{err}"
                );
            }
        }
        let cfg = RunConfig::single(0.02).with_memory_pages(min);
        assert!(run_one(StrategyKind::SnapBpf, &w, &cfg).is_ok());
    }

    #[test]
    fn zero_instances_is_a_config_error() {
        let w = Workload::by_name("json").unwrap();
        let cfg = RunConfig::concurrent(0.02, 0);
        let kind = StrategyKind::SnapBpf;
        for err in [
            run_one(kind, &w, &cfg).unwrap_err(),
            run_one_with(kind.build().as_mut(), kind.label(), &w, &cfg).unwrap_err(),
        ] {
            assert!(matches!(err, StrategyError::Config(_)), "got {err}");
            assert!(
                err.to_string().contains("instances must be at least 1"),
                "{err}"
            );
        }
    }
}
