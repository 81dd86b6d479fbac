//! Regeneration of every table and figure in the paper's evaluation,
//! plus the ablations DESIGN.md calls out.
//!
//! Each function returns a [`FigureData`] with the same series the
//! paper plots; the `snapbpf-bench` crate prints them and
//! `EXPERIMENTS.md` records paper-vs-measured shapes.

use snapbpf_workloads::Workload;

use crate::experiment::{run_colocated, run_one, run_one_with, DeviceKind, RunConfig, RunResult};
use crate::report::FigureData;
use crate::strategies::{Faasnap, SnapBpf};
use crate::strategy::{StrategyError, StrategyKind};

/// Configuration shared by the figure generators.
#[derive(Debug, Clone)]
pub struct FigureConfig {
    /// Workload size scale in `(0, 1]`.
    pub scale: f64,
    /// Concurrent sandboxes for Figures 3b/3c (paper: 10).
    pub instances: usize,
    /// The functions to evaluate (paper: the full 14-function suite).
    pub workloads: Vec<Workload>,
    /// Storage device every run uses (paper testbed: SATA SSD;
    /// sweepable to NVMe/HDD from the `figures` CLI).
    pub device: DeviceKind,
}

impl FigureConfig {
    /// Paper-sized configuration: full suite, scale 1.0, 10
    /// instances.
    pub fn paper() -> Self {
        FigureConfig {
            scale: 1.0,
            instances: 10,
            workloads: Workload::suite(),
            device: DeviceKind::Sata5300,
        }
    }

    /// A reduced configuration for quick runs and tests.
    pub fn quick(scale: f64) -> Self {
        FigureConfig {
            scale,
            instances: 4,
            workloads: ["json", "image", "rnn", "bert"]
                .iter()
                .map(|n| Workload::by_name(n).expect("suite function"))
                .collect(),
            device: DeviceKind::Sata5300,
        }
    }

    fn names(&self) -> Vec<String> {
        self.workloads.iter().map(|w| w.name().to_owned()).collect()
    }

    /// A single-instance run configuration on this figure set's
    /// device.
    fn single(&self) -> RunConfig {
        RunConfig::single(self.scale).on(self.device)
    }

    /// A `instances`-way concurrent run configuration on this figure
    /// set's device.
    fn concurrent(&self) -> RunConfig {
        RunConfig::concurrent(self.scale, self.instances).on(self.device)
    }
}

fn collect_series(
    cfg: &FigureConfig,
    kinds: &[StrategyKind],
    run_cfg: &RunConfig,
    metric: impl Fn(&RunResult) -> f64,
    figure: &mut FigureData,
) -> Result<(), StrategyError> {
    for &kind in kinds {
        let mut values = Vec::with_capacity(cfg.workloads.len());
        for w in &cfg.workloads {
            let r = run_one(kind, w, run_cfg)?;
            values.push(metric(&r));
        }
        figure.push_series(kind.label(), values);
    }
    Ok(())
}

/// Figure 3a: end-to-end latency, single instance — REAP vs FaaSnap
/// vs SnapBPF. Values in seconds (normalize with
/// [`FigureData::normalized_to`] for the paper's presentation).
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fig3a(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "fig3a",
        "E2E function latency, 1 instance",
        "s",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    collect_series(
        cfg,
        &[
            StrategyKind::Reap,
            StrategyKind::Faasnap,
            StrategyKind::SnapBpf,
        ],
        &run_cfg,
        |r| r.e2e_mean().as_secs_f64(),
        &mut fig,
    )?;
    Ok(fig)
}

/// Figure 3b: end-to-end latency, `instances` concurrent sandboxes —
/// Linux-NoRA, Linux-RA, REAP, SnapBPF. Values in seconds.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fig3b(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "fig3b",
        &format!(
            "E2E function latency, {} concurrent instances",
            cfg.instances
        ),
        "s",
        cfg.names(),
    );
    let run_cfg = cfg.concurrent();
    collect_series(
        cfg,
        &[
            StrategyKind::LinuxNoRa,
            StrategyKind::LinuxRa,
            StrategyKind::Reap,
            StrategyKind::SnapBpf,
        ],
        &run_cfg,
        |r| r.e2e_mean().as_secs_f64(),
        &mut fig,
    )?;
    Ok(fig)
}

/// Figure 3c: system-wide memory, `instances` concurrent sandboxes —
/// Linux-NoRA, Linux-RA, REAP, SnapBPF. Values in GiB.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fig3c(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "fig3c",
        &format!("Memory consumption, {} concurrent instances", cfg.instances),
        "GiB",
        cfg.names(),
    );
    let run_cfg = cfg.concurrent();
    collect_series(
        cfg,
        &[
            StrategyKind::LinuxNoRa,
            StrategyKind::LinuxRa,
            StrategyKind::Reap,
            StrategyKind::SnapBpf,
        ],
        &run_cfg,
        |r| r.memory.total_gib(),
        &mut fig,
    )?;
    Ok(fig)
}

/// Figure 4: mechanism breakdown, single instance — Linux-RA,
/// PV PTEs only, and full SnapBPF, normalized to Linux-RA.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn fig4(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "fig4",
        "Breakdown: PV PTE marking vs eBPF prefetching",
        "s",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    collect_series(
        cfg,
        &[
            StrategyKind::LinuxRa,
            StrategyKind::SnapBpfPvOnly,
            StrategyKind::SnapBpf,
        ],
        &run_cfg,
        |r| r.e2e_mean().as_secs_f64(),
        &mut fig,
    )?;
    Ok(fig.normalized_to("Linux-RA"))
}

/// Table 1: the mechanism-comparison matrix, rendered as text.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("# Table 1 — Comparison of snapshot prefetching techniques\n");
    out.push_str(&format!(
        "{:<22}  {:<28}  {:^10}  {:^10}  {:^10}\n",
        "Approach", "Mechanism", "On-disk WS", "WS dedup", "Stateless filter"
    ));
    for kind in [
        StrategyKind::Reap,
        StrategyKind::Faast,
        StrategyKind::Faasnap,
        StrategyKind::SnapBpf,
    ] {
        let caps = kind.build().capabilities();
        let mark = |b: bool| if b { "yes" } else { "no" };
        out.push_str(&format!(
            "{:<22}  {:<28}  {:^10}  {:^10}  {:^10}\n",
            kind.label(),
            caps.mechanism,
            mark(caps.on_disk_ws_serialization),
            mark(caps.in_memory_ws_dedup),
            mark(caps.stateless_vm_allocation_filtering),
        ));
    }
    out
}

/// §4 "SnapBPF Overheads": per function, the offsets-map load cost
/// in milliseconds and its fraction of E2E latency (paper: ~1–2 ms,
/// <1% on average).
///
/// # Errors
///
/// Strategy errors propagate.
pub fn overheads(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "overheads",
        "SnapBPF offsets-load overhead",
        "ms / fraction",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    let mut load_ms = Vec::new();
    let mut frac = Vec::new();
    for w in &cfg.workloads {
        let r = run_one(StrategyKind::SnapBpf, w, &run_cfg)?;
        load_ms.push(r.offset_load_cost.as_millis_f64());
        frac.push(r.offset_load_cost.ratio(r.e2e_mean()));
    }
    fig.push_series("offset-load-ms", load_ms);
    fig.push_series("fraction-of-e2e", frac);
    Ok(fig)
}

/// Ablation A1 — FaaSnap's region coalescing: working-set file size
/// and invoke-phase read bytes as the gap threshold grows (the I/O
/// amplification the paper verified with eBPF, §2.1). Uses the
/// `gaps` thresholds as the x-axis instead of functions.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ablation_coalesce(
    workload: &Workload,
    scale: f64,
    gaps: &[u64],
) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ablation-coalesce",
        &format!("FaaSnap coalescing gap sweep ({})", workload.name()),
        "MiB",
        gaps.iter().map(|g| format!("gap={g}")).collect(),
    );
    let run_cfg = RunConfig::single(scale);
    let mut ws_mib = Vec::new();
    let mut read_mib = Vec::new();
    for &gap in gaps {
        let mut strat = Faasnap::with_gap(gap);
        let r = run_one_with(&mut strat, "FaaSnap", workload, &run_cfg)?;
        ws_mib.push(r.artifact_pages as f64 * 4096.0 / (1 << 20) as f64);
        read_mib.push(r.invoke_read_bytes as f64 / (1 << 20) as f64);
    }
    fig.push_series("ws-file-MiB", ws_mib);
    fig.push_series("invoke-read-MiB", read_mib);
    Ok(fig)
}

/// Ablation A2 — device sensitivity: REAP (sequential WS file, no
/// sharing) vs SnapBPF (scattered ranges from the snapshot) on the
/// SATA SSD, an NVMe drive, and a spindle disk. X-axis is the
/// device.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ablation_device(workload: &Workload, scale: f64) -> Result<FigureData, StrategyError> {
    let devices = DeviceKind::ALL;
    let mut fig = FigureData::new(
        "ablation-device",
        &format!("Device sensitivity ({})", workload.name()),
        "s",
        devices.iter().map(|d| d.label().to_owned()).collect(),
    );
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        let mut values = Vec::new();
        for d in devices {
            let r = run_one(kind, workload, &RunConfig::single(scale).on(d))?;
            values.push(r.e2e_mean().as_secs_f64());
        }
        fig.push_series(kind.label(), values);
    }
    Ok(fig)
}

/// Ablation A3 — the KVM CoW patch: memory at concurrency with the
/// patched (opportunistic) vs unpatched (forced-write) KVM.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ablation_cow(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ablation-cow",
        &format!("KVM CoW patch effect, {} instances", cfg.instances),
        "GiB",
        cfg.names(),
    );
    let run_cfg = cfg.concurrent();
    collect_series(
        cfg,
        &[StrategyKind::SnapBpf, StrategyKind::SnapBpfBuggyCow],
        &run_cfg,
        |r| r.memory.total_gib(),
        &mut fig,
    )?;
    Ok(fig)
}

/// Ablation A4 — offset grouping and access-order sorting: E2E
/// latency of SnapBPF with both, only grouping, only sorting, and
/// neither.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ablation_grouping(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ablation-grouping",
        "SnapBPF grouping/sorting design",
        "s",
        cfg.names(),
    );
    let variants: [(&'static str, bool, bool); 4] = [
        ("group+sort", true, true),
        ("group-only", true, false),
        ("sort-only", false, true),
        ("neither", false, false),
    ];
    let run_cfg = cfg.single();
    for (label, group, sort) in variants {
        let mut values = Vec::new();
        for w in &cfg.workloads {
            let mut strat = SnapBpf::full().with_layout(group, sort);
            let r = run_one_with(&mut strat, label, w, &run_cfg)?;
            values.push(r.e2e_mean().as_secs_f64());
        }
        fig.push_series(label, values);
    }
    Ok(fig)
}

/// Extension E1 — the paper's deferred future work, §4: "We
/// consider evaluating the effect of varying function inputs on
/// SnapBPF's memory deduplication for future work." Each sandbox is
/// invoked with a different input variant (75% of the working set is
/// input-independent in the workload models); the figure reports
/// memory under identical vs varying inputs for REAP and SnapBPF.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_input_variants(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-variants",
        &format!("Memory under input variation, {} instances", cfg.instances),
        "GiB",
        cfg.names(),
    );
    let base = cfg.concurrent();
    let varying = base.with_varying_inputs();
    for (label, run_cfg, kind) in [
        ("REAP-identical", base, StrategyKind::Reap),
        ("REAP-varying", varying, StrategyKind::Reap),
        ("SnapBPF-identical", base, StrategyKind::SnapBpf),
        ("SnapBPF-varying", varying, StrategyKind::SnapBpf),
    ] {
        let mut values = Vec::new();
        for w in &cfg.workloads {
            values.push(run_one(kind, w, &run_cfg)?.memory.total_gib());
        }
        fig.push_series(label, values);
    }
    Ok(fig)
}

/// Extension E2 — the paper's deferred "comprehensive analysis of
/// the computational and memory costs of SnapBPF": per function, the
/// CPU spent in kprobe dispatch + eBPF program execution, the hook
/// fire count, and the record-phase capture overhead versus a
/// vanilla invocation.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_cost_analysis(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-costs",
        "SnapBPF computational costs",
        "ms / count / ratio",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    let mut ebpf_ms = Vec::new();
    let mut fires = Vec::new();
    let mut ebpf_frac = Vec::new();
    for w in &cfg.workloads {
        let r = run_one(StrategyKind::SnapBpf, w, &run_cfg)?;
        ebpf_ms.push(r.ebpf_cpu.as_millis_f64());
        fires.push(r.hook_fires as f64);
        ebpf_frac.push(r.ebpf_cpu.ratio(r.e2e_mean()));
    }
    fig.push_series("ebpf-cpu-ms", ebpf_ms);
    fig.push_series("hook-fires", fires);
    fig.push_series("ebpf-cpu-vs-e2e", ebpf_frac);
    Ok(fig)
}

/// Extension E3 — memory pressure: cap host memory and report
/// whether each approach completes `instances` concurrent sandboxes
/// (1.0 = completed, 0.0 = out of memory) plus the memory it used.
/// REAP's per-sandbox anonymous copies exhaust a cap that SnapBPF's
/// shared page cache fits comfortably.
///
/// # Errors
///
/// Only non-OOM kernel errors propagate.
pub fn ext_memory_pressure(
    workload: &Workload,
    scale: f64,
    instances: usize,
    cap_pages: u64,
) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-memory-pressure",
        &format!(
            "{} x{} under a {} MiB host-memory cap",
            workload.name(),
            instances,
            cap_pages * 4096 / (1 << 20)
        ),
        "completed / GiB",
        vec!["REAP".into(), "SnapBPF".into()],
    );
    let cfg = RunConfig::concurrent(scale, instances).with_memory_pages(cap_pages);
    let mut completed = Vec::new();
    let mut memory = Vec::new();
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        match run_one(kind, workload, &cfg) {
            Ok(r) => {
                completed.push(1.0);
                memory.push(r.memory.total_gib());
            }
            Err(StrategyError::Kernel(snapbpf_kernel::KernelError::OutOfMemory)) => {
                completed.push(0.0);
                memory.push(cap_pages as f64 * 4096.0 / (1u64 << 30) as f64);
            }
            Err(e) => return Err(e),
        }
    }
    fig.push_series("completed", completed);
    fig.push_series("memory-GiB", memory);
    Ok(fig)
}

/// Extension E7 — concurrency scaling: the paper evaluates 1 and 10
/// instances; this sweep fills in the curve. X-axis is the instance
/// count; series are REAP and SnapBPF latency (seconds) and memory
/// (GiB).
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_concurrency_sweep(
    workload: &Workload,
    scale: f64,
    instance_counts: &[usize],
) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-concurrency",
        &format!("Concurrency sweep ({})", workload.name()),
        "s / GiB",
        instance_counts.iter().map(|n| format!("n={n}")).collect(),
    );
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        let mut lat = Vec::new();
        let mut mem = Vec::new();
        for &n in instance_counts {
            let r = run_one(kind, workload, &RunConfig::concurrent(scale, n))?;
            lat.push(r.e2e_mean().as_secs_f64());
            mem.push(r.memory.total_gib());
        }
        fig.push_series(&format!("{}-latency", kind.label()), lat);
        fig.push_series(&format!("{}-memory-GiB", kind.label()), mem);
    }
    Ok(fig)
}

/// Extension E5 — the cost of preparation: record-phase duration per
/// strategy. REAP and SnapBPF run one recording invocation; Faast
/// adds an allocator-metadata scan; FaaSnap adds a *full snapshot*
/// zero-page scan plus an inflated working-set serialization — the
/// "preemptive snapshot scanning and pre-processing" SnapBPF's
/// Table 1 column abolishes, priced in seconds.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_record_cost(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-record-cost",
        "Record/prepare phase duration",
        "s",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    collect_series(
        cfg,
        &[
            StrategyKind::Reap,
            StrategyKind::Faast,
            StrategyKind::Faasnap,
            StrategyKind::SnapBpf,
        ],
        &run_cfg,
        |r| r.record_duration.as_secs_f64(),
        &mut fig,
    )?;
    Ok(fig)
}

/// Extension E6 — warm starts: the second invocation on an
/// already-started sandbox. All approaches converge to near
/// compute-only latency; the figure reports cold vs warm for
/// SnapBPF, bounding the model's steady state.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_warm_start(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    use crate::strategy::FunctionCtx;
    use snapbpf_kernel::{HostKernel, KernelConfig};
    use snapbpf_storage::Disk;
    use snapbpf_vmm::{run_invocation, Snapshot};

    let mut fig = FigureData::new(
        "ext-warm-start",
        "SnapBPF cold vs warm invocation",
        "s",
        cfg.names(),
    );
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut compute = Vec::new();
    for w in &cfg.workloads {
        let mut host = HostKernel::new(
            Disk::new(DeviceKind::Sata5300.build()),
            KernelConfig::default(),
        );
        let scaled = w.scaled(cfg.scale);
        let (snapshot, t_snap) = Snapshot::create(
            snapbpf_sim::SimTime::ZERO,
            scaled.name(),
            scaled.snapshot_pages(),
            &mut host,
        )?;
        let func = FunctionCtx {
            workload: scaled,
            snapshot,
        };
        let mut strat = crate::strategies::SnapBpf::full();
        let t_rec = crate::strategy::Strategy::record(&mut strat, t_snap, &mut host, &func)?;
        host.drop_all_caches()
            .map_err(crate::strategy::StrategyError::Kernel)?;
        let mut restored = crate::strategy::Strategy::restore(
            &mut strat,
            t_rec,
            &mut host,
            &func,
            snapbpf_mem::OwnerId::new(0),
        )?;
        let trace = func.workload.trace();
        let first = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .map_err(crate::strategy::StrategyError::Kernel)?;
        let second = run_invocation(
            first.end_time,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .map_err(crate::strategy::StrategyError::Kernel)?;
        cold.push(first.e2e_latency.as_secs_f64());
        warm.push(second.e2e_latency.as_secs_f64());
        compute.push(trace.total_compute().as_secs_f64());
    }
    fig.push_series("cold", cold);
    fig.push_series("warm", warm);
    fig.push_series("pure-compute", compute);
    Ok(fig)
}

/// Extension E4 — multi-tenant co-location: one sandbox of *every*
/// configured function on a shared host, all starting at once. The
/// figure reports per-function latency for REAP vs SnapBPF plus a
/// total-memory row appended as its own series.
///
/// # Errors
///
/// Strategy errors propagate.
pub fn ext_colocation(cfg: &FigureConfig) -> Result<FigureData, StrategyError> {
    let mut fig = FigureData::new(
        "ext-colocation",
        &format!(
            "{} co-located functions, one sandbox each",
            cfg.workloads.len()
        ),
        "s",
        cfg.names(),
    );
    let run_cfg = cfg.single();
    for kind in [StrategyKind::Reap, StrategyKind::SnapBpf] {
        let r = run_colocated(kind, &cfg.workloads, &run_cfg)?;
        fig.push_series(
            kind.label(),
            r.e2e.iter().map(|(_, d)| d.as_secs_f64()).collect(),
        );
        log_total(&mut fig, kind.label(), r.memory.total_gib());
    }
    Ok(fig)
}

fn log_total(fig: &mut FigureData, label: &str, gib: f64) {
    // Memory totals ride along as constant series (one value per
    // function keeps the FigureData shape rectangular).
    let n = fig.functions.len();
    fig.push_series(&format!("{label}-total-GiB"), vec![gib; n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureConfig {
        FigureConfig {
            scale: 0.05,
            instances: 3,
            workloads: ["json", "image", "bert"]
                .iter()
                .map(|n| Workload::by_name(n).unwrap())
                .collect(),
            device: DeviceKind::Sata5300,
        }
    }

    #[test]
    fn fig3a_shape_holds() {
        // tiny() evaluates json, image, bert (in that order).
        let fig = fig3a(&tiny()).unwrap();
        let norm = fig.normalized_to("REAP");
        let snap = norm.series_values("SnapBPF").unwrap();
        // "Matches and in some cases outperforms": overall at parity…
        assert!(
            norm.geomean("SnapBPF").unwrap() < 1.1,
            "geomean {}",
            norm.geomean("SnapBPF").unwrap()
        );
        // …clearly ahead on the allocation-heavy function…
        assert!(snap[1] < 0.8, "image: {}", snap[1]);
        // …and never far behind anywhere.
        assert!(snap.iter().all(|&v| v < 1.5), "{snap:?}");
    }

    #[test]
    fn fig3b_and_3c_shapes_hold() {
        let cfg = tiny();
        let b = fig3b(&cfg).unwrap();
        let snap = b.series_values("SnapBPF").unwrap();
        let reap = b.series_values("REAP").unwrap();
        // bert (index 2): REAP should be several times slower.
        assert!(
            reap[2] / snap[2] > 2.0,
            "bert: REAP {} vs SnapBPF {}",
            reap[2],
            snap[2]
        );

        let c = fig3c(&cfg).unwrap();
        let snap_mem = c.series_values("SnapBPF").unwrap();
        let reap_mem = c.series_values("REAP").unwrap();
        assert!(reap_mem[2] / snap_mem[2] > 2.0, "bert memory dedup");
    }

    #[test]
    fn fig4_shape_holds() {
        let fig = fig4(&tiny()).unwrap();
        let ra = fig.series_values("Linux-RA").unwrap();
        let pv = fig.series_values("PVPTEs").unwrap();
        let full = fig.series_values("SnapBPF").unwrap();
        assert!(ra.iter().all(|&v| (v - 1.0).abs() < 1e-9));
        // image (index 1) gains from PV alone; full is best or tied.
        assert!(pv[1] < 0.85, "image PV-only was {}", pv[1]);
        for i in 0..3 {
            assert!(full[i] <= pv[i] + 0.05, "function {i}");
        }
    }

    #[test]
    fn table1_renders() {
        let t = table1();
        assert!(t.contains("SnapBPF"));
        assert!(t.contains("eBPF (kernel-space)"));
        assert!(t.contains("REAP"));
    }

    #[test]
    fn overheads_are_small() {
        let fig = overheads(&tiny()).unwrap();
        for &f in fig.series_values("fraction-of-e2e").unwrap() {
            assert!(f < 0.1, "offset load fraction {f}");
        }
    }

    #[test]
    fn ablation_coalesce_shows_inflation() {
        let w = Workload::by_name("chameleon").unwrap();
        let fig = ablation_coalesce(&w, 0.2, &[0, 256]).unwrap();
        let ws = fig.series_values("ws-file-MiB").unwrap();
        assert!(ws[1] > ws[0], "larger gap must inflate the ws file");
    }

    #[test]
    fn concurrency_sweep_scaling_shapes() {
        let w = Workload::by_name("bfs").unwrap();
        let fig = ext_concurrency_sweep(&w, 0.05, &[1, 2, 4, 8]).unwrap();
        let reap_mem = fig.series_values("REAP-memory-GiB").unwrap();
        let snap_mem = fig.series_values("SnapBPF-memory-GiB").unwrap();
        // REAP memory grows ~linearly with instances; SnapBPF's is
        // ~flat (shared working set).
        assert!(reap_mem[3] / reap_mem[0] > 5.0, "{reap_mem:?}");
        assert!(snap_mem[3] / snap_mem[0] < 2.0, "{snap_mem:?}");
        // REAP latency degrades with concurrency; SnapBPF stays
        // within a small factor of its single-instance latency.
        let reap_lat = fig.series_values("REAP-latency").unwrap();
        let snap_lat = fig.series_values("SnapBPF-latency").unwrap();
        assert!(reap_lat[3] > reap_lat[0] * 2.0, "{reap_lat:?}");
        assert!(snap_lat[3] < snap_lat[0] * 3.0, "{snap_lat:?}");
    }

    #[test]
    fn record_cost_prices_preemptive_scanning() {
        let fig = ext_record_cost(&tiny()).unwrap();
        // FaaSnap's full-snapshot scan makes its record phase the
        // most expensive on every function.
        let faasnap = fig.series_values("FaaSnap").unwrap();
        let snapbpf = fig.series_values("SnapBPF").unwrap();
        for i in 0..faasnap.len() {
            assert!(
                faasnap[i] > snapbpf[i],
                "function {i}: FaaSnap {} vs SnapBPF {}",
                faasnap[i],
                snapbpf[i]
            );
        }
    }

    #[test]
    fn warm_start_converges_to_compute() {
        let fig = ext_warm_start(&tiny()).unwrap();
        let cold = fig.series_values("cold").unwrap();
        let warm = fig.series_values("warm").unwrap();
        let compute = fig.series_values("pure-compute").unwrap();
        for i in 0..cold.len() {
            assert!(warm[i] < cold[i], "function {i}");
            // Warm ≈ compute + small fault-free overhead.
            assert!(
                warm[i] < compute[i] * 2.0 + 0.001,
                "function {i}: warm {} vs compute {}",
                warm[i],
                compute[i]
            );
        }
    }

    #[test]
    fn colocation_preserves_the_memory_story() {
        let cfg = FigureConfig {
            scale: 0.04,
            instances: 1,
            workloads: ["json", "cnn", "bfs", "bert"]
                .iter()
                .map(|n| Workload::by_name(n).unwrap())
                .collect(),
            device: DeviceKind::Sata5300,
        };
        let fig = ext_colocation(&cfg).unwrap();
        let reap_mem = fig.series_values("REAP-total-GiB").unwrap()[0];
        let snap_mem = fig.series_values("SnapBPF-total-GiB").unwrap()[0];
        // With one sandbox per function there is nothing to dedup
        // *across* sandboxes, so memory stays comparable (SnapBPF
        // keeps CoW'd originals in the cache; REAP skips the cache
        // entirely) — the point is that co-location does not erase
        // SnapBPF's advantages, it just moves them to latency.
        assert!(snap_mem < reap_mem * 1.3, "{snap_mem} vs {reap_mem}");
        let reap_lat: f64 = fig.series_values("REAP").unwrap().iter().sum();
        let snap_lat: f64 = fig.series_values("SnapBPF").unwrap().iter().sum();
        assert!(
            snap_lat < reap_lat,
            "total latency {snap_lat} vs {reap_lat}"
        );
        // Every function completed on both strategies.
        assert!(fig
            .series_values("SnapBPF")
            .unwrap()
            .iter()
            .all(|&v| v > 0.0));
    }

    #[test]
    fn input_variation_weakens_dedup_but_snapbpf_still_wins() {
        let cfg = FigureConfig {
            scale: 0.05,
            instances: 4,
            workloads: vec![Workload::by_name("bfs").unwrap()],
            device: DeviceKind::Sata5300,
        };
        let fig = ext_input_variants(&cfg).unwrap();
        let snap_same = fig.series_values("SnapBPF-identical").unwrap()[0];
        let snap_vary = fig.series_values("SnapBPF-varying").unwrap()[0];
        let reap_vary = fig.series_values("REAP-varying").unwrap()[0];
        // Varying inputs cost SnapBPF extra memory (the
        // input-dependent quarter of each WS is private)…
        assert!(snap_vary > snap_same, "{snap_vary} vs {snap_same}");
        // …but the stable 3/4 still deduplicates, so it stays well
        // below REAP.
        assert!(reap_vary / snap_vary > 1.5, "{reap_vary} vs {snap_vary}");
    }

    #[test]
    fn cost_analysis_reports_small_ebpf_overhead() {
        let fig = ext_cost_analysis(&tiny()).unwrap();
        for &frac in fig.series_values("ebpf-cpu-vs-e2e").unwrap() {
            assert!(frac < 0.2, "eBPF CPU fraction {frac}");
        }
        for &fires in fig.series_values("hook-fires").unwrap() {
            assert!(fires > 0.0);
        }
    }

    #[test]
    fn memory_pressure_breaks_reap_first() {
        let w = Workload::by_name("bert").unwrap();
        // Cap sized to hold one shared working set plus slack, but
        // not four private copies. bert at 0.05: WS ≈ 13 MiB/VM.
        let cap_pages = 8 << 10; // 32 MiB (hosts need ≥ 4 MiB)
        let fig = ext_memory_pressure(&w, 0.05, 4, cap_pages).unwrap();
        let completed = fig.series_values("completed").unwrap();
        assert_eq!(completed[1], 1.0, "SnapBPF must fit");
        assert_eq!(completed[0], 0.0, "REAP must exhaust the cap");
    }

    #[test]
    fn ablation_device_flips_on_hdd() {
        let w = Workload::by_name("image").unwrap();
        let fig = ablation_device(&w, 0.05).unwrap();
        let reap = fig.series_values("REAP").unwrap();
        let snap = fig.series_values("SnapBPF").unwrap();
        // On the SSD (index 0), SnapBPF wins.
        assert!(snap[0] < reap[0]);
        // On the HDD (index 2), everything is slow; scattered I/O
        // loses at least part of its advantage.
        let ssd_edge = reap[0] / snap[0];
        let hdd_edge = reap[2] / snap[2];
        assert!(
            hdd_edge < ssd_edge,
            "HDD should shrink SnapBPF's edge (ssd {ssd_edge:.2} vs hdd {hdd_edge:.2})"
        );
    }
}
