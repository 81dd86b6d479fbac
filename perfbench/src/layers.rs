//! The traced run: where one workload's wall clock goes, layer by
//! layer.
//!
//! Nothing inside the simulator is instrumented. Every span here is a
//! wall-clock timer this package wraps around a call into one layer's
//! public API, replayed standalone on the workload's own functions:
//!
//! * `ebpf` load — `Verifier::verify`, `PassManager::optimize` and the
//!   re-verification of the optimized image, on the telemetry prefetch
//!   program built from each function's recorded working-set groups;
//!   `Interpreter::run` of the attached image;
//! * `core` — `SnapBpf::record` and each `RestoreCursor::step` of a
//!   restore, first with the host's program caches cold (miss), then
//!   warm (hit);
//! * `vmm` — an `InvocationCursor` driven to completion right after a
//!   restore (cold) and again on the same VM (warm);
//! * `kernel`/`mem`/`storage` — `HostKernel::read_file_page` over a
//!   working set, on a dropped cache and then again.
//!
//! Counts come from the metrics registry of untraced runs of the same
//! configuration, so per-call costs × call counts estimate each layer's
//! share of the untraced wall clock; what no probe covers is the
//! fleet scheduler's residual.

use std::time::Instant;

use snapbpf::strategies::SnapBpf;
use snapbpf::{
    build_prefetch_program_telemetry, groups_map_def, groups_map_image, FunctionCtx, RestoreStage,
    Strategy,
};
use snapbpf_ebpf::{Interpreter, KfuncHost, KfuncSig, MapSet, PassManager, Verifier};
use snapbpf_fleet::RunOutput;
use snapbpf_kernel::{HostKernel, KernelConfig};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{MetricsRegistry, SimTime};
use snapbpf_storage::Disk;
use snapbpf_vmm::{InvocationCursor, MicroVm, Snapshot, UffdResolver};
use snapbpf_workloads::Workload;

use crate::digest;
use crate::e2e::{self, Error};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{self, Config, Kind, Size};

/// The kfunc table the host kernel verifies prefetch programs against.
const KFUNCS: &[KfuncSig] = &[KfuncSig {
    name: "snapbpf_prefetch",
    args: 3,
}];

/// Warm-cache restores (and invocations) timed per function.
const HIT_REPS: usize = 5;
/// Interpreter runs timed per function.
const INTERP_REPS: usize = 20;
/// Alternating traced/untraced replays for the tracing overhead.
const OVERHEAD_REPS: usize = 15;

/// Counts the kfunc calls a prefetch program makes and prefetches
/// nothing.
struct CountingKfuncs(u64);

impl KfuncHost for CountingKfuncs {
    fn call_kfunc(&mut self, _index: u32, _args: [u64; 5]) -> Result<u64, String> {
        self.0 += 1;
        Ok(0)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Per-call wall costs of the program-load and interpretation path,
/// one entry per function.
#[derive(Debug, Default)]
struct LoadCosts {
    verify_ms: Vec<f64>,
    opt_ms: Vec<f64>,
    reverify_ms: Vec<f64>,
    insns_processed: Vec<f64>,
    interp_us: Vec<f64>,
    interp_insns: Vec<f64>,
}

/// Verifies, optimizes, re-verifies and interprets the prefetch
/// program a restore of `func` loads, on a standalone map set.
fn probe_load(func: &FunctionCtx, sb: &SnapBpf, costs: &mut LoadCosts) -> Result<(), Error> {
    let groups = sb.groups();
    let n = u32::try_from(groups.len())?;
    let mut maps = MapSet::new();
    let map = maps.create(groups_map_def(n))?;
    for (slot, v) in groups_map_image(groups).iter().enumerate() {
        maps.array_store_u64(map, u32::try_from(slot)?, *v)?;
    }
    let ring = maps.create(snapbpf_ebpf::telemetry_ring_def())?;
    let stats = maps.create(snapbpf_ebpf::telemetry_stats_def())?;
    let snap = func.snapshot.memory_file();
    let program = build_prefetch_program_telemetry(snap, map, n, ring, stats);

    let t = Instant::now();
    let verified = Verifier::new(&maps, KFUNCS).verify(&program)?;
    costs.verify_ms.push(ms_since(t));
    costs
        .insns_processed
        .push(verified.stats().insns_processed as f64);
    let t = Instant::now();
    let (optimized, _) = PassManager::new().optimize(&program, &maps, KFUNCS);
    costs.opt_ms.push(ms_since(t));
    let t = Instant::now();
    let attached = Verifier::new(&maps, KFUNCS).verify(&optimized)?;
    costs.reverify_ms.push(ms_since(t));

    let ctx = [u64::from(snap.as_u32()), 0];
    let mut runs = Vec::with_capacity(INTERP_REPS);
    let mut insns = 0;
    for _ in 0..INTERP_REPS {
        let mut run_maps = maps.clone();
        let mut kfuncs = CountingKfuncs(0);
        let t = Instant::now();
        let out = Interpreter::new().run(&attached, &ctx, &mut run_maps, &mut kfuncs)?;
        runs.push(ms_since(t) * 1e3);
        insns = out.insns_executed;
        if kfuncs.0 != groups.len() as u64 {
            return Err(format!(
                "{}: prefetch program issued {} of {} groups",
                func.workload.name(),
                kfuncs.0,
                groups.len()
            )
            .into());
        }
    }
    costs.interp_us.push(median(&runs));
    costs.interp_insns.push(insns as f64);
    Ok(())
}

/// Wall time per restore stage, µs, plus the two invocations that
/// follow it.
#[derive(Debug, Default, Clone, Copy)]
struct RestoreCosts {
    stage_us: [f64; 4],
    invoke_cold_us: f64,
    invoke_warm_us: f64,
}

/// One host with every function snapshotted and recorded, as a fleet
/// host is before its first arrival.
struct Bench {
    kernel: HostKernel,
    funcs: Vec<(FunctionCtx, SnapBpf)>,
    now: SimTime,
    owners: u32,
}

impl Bench {
    /// Builds the host, returning it with each function's record time
    /// in ms.
    fn new(c: &Config) -> Result<(Bench, Vec<f64>), Error> {
        let mut kernel = HostKernel::new(Disk::new(c.cfg.device.build()), KernelConfig::default());
        let mut now = SimTime::ZERO;
        let mut funcs = Vec::new();
        let mut record_ms = Vec::new();
        for w in &c.workloads {
            let w: Workload = w.scaled(c.cfg.scale);
            let (snapshot, t_snap) =
                Snapshot::create(now, w.name(), w.snapshot_pages(), &mut kernel)?;
            let func = FunctionCtx {
                workload: w,
                snapshot,
            };
            let mut sb = SnapBpf::full();
            let t = Instant::now();
            now = sb.record(t_snap, &mut kernel, &func)?;
            record_ms.push(ms_since(t));
            funcs.push((func, sb));
        }
        kernel.drop_all_caches()?;
        Ok((
            Bench {
                kernel,
                funcs,
                now,
                owners: 0,
            },
            record_ms,
        ))
    }

    /// Restores function `f`, runs one invocation on the fresh VM and
    /// one more on the same VM, and tears it down. With `spans` off
    /// nothing inside is timed and the costs come back zero.
    fn restore_and_invoke(&mut self, f: usize, spans: bool) -> Result<RestoreCosts, Error> {
        let mut costs = RestoreCosts::default();
        let start = || spans.then(Instant::now);
        let us = |t: Option<Instant>| t.map_or(0.0, |t| ms_since(t) * 1e3);
        let owner = OwnerId::new(self.owners);
        self.owners += 1;
        let (func, sb) = &mut self.funcs[f];
        let mut cursor = sb.begin_restore(self.now, &mut self.kernel, func, owner)?;
        while let Some(stage) = cursor.next_stage() {
            let t = start();
            cursor.step(&mut self.kernel)?;
            costs.stage_us[stage.index()] += us(t);
        }
        let (vm, resolver, ready) = cursor
            .take_resumed()
            .ok_or("a drained restore must hand over its VM")?;
        let t = start();
        let (vm, resolver, end) = invoke(vm, resolver, func, ready, &mut self.kernel)?;
        costs.invoke_cold_us = us(t);
        let t = start();
        let (mut vm, _, end) = invoke(vm, resolver, func, end, &mut self.kernel)?;
        costs.invoke_warm_us = us(t);
        vm.kvm_mut().teardown(&mut self.kernel)?;
        self.now = end;
        Ok(costs)
    }

    /// ns per `read_file_page` over function `f`'s working set, first
    /// on a dropped cache, then with the pages resident.
    fn read_pages(&mut self, f: usize) -> Result<(f64, f64), Error> {
        let (func, _) = &self.funcs[f];
        let file = func.snapshot.memory_file();
        let trace = func.workload.trace();
        let pages = trace.ws_page_list();
        self.kernel.drop_file_cache(file)?;
        let mut per_page = [0.0; 2];
        for slot in &mut per_page {
            let t = Instant::now();
            for &p in pages {
                let out = self.kernel.read_file_page(self.now, file, p)?;
                self.now = self.now.max(out.ready_at);
            }
            *slot = t.elapsed().as_secs_f64() * 1e9 / pages.len().max(1) as f64;
        }
        Ok((per_page[0], per_page[1]))
    }
}

/// Drives one invocation of `func` on `vm` to completion.
fn invoke(
    vm: MicroVm,
    resolver: Box<dyn UffdResolver>,
    func: &FunctionCtx,
    start: SimTime,
    kernel: &mut HostKernel,
) -> Result<(MicroVm, Box<dyn UffdResolver>, SimTime), Error> {
    let mut run = InvocationCursor::builder(vm, func.workload.trace())
        .starting_at(start)
        .with_resolver(resolver)
        .begin();
    while !run.is_done() {
        run.step(kernel)?;
    }
    let (vm, resolver, result) = run.finish();
    Ok((vm, resolver, result.end_time))
}

/// Everything the standalone probes measured; restore costs are per
/// function, in workload order.
struct Probes {
    record_ms: f64,
    load: LoadCosts,
    miss: Vec<RestoreCosts>,
    hit: Vec<RestoreCosts>,
    read_miss_ns: f64,
    read_hit_ns: f64,
    overhead_pct: f64,
}

fn probe(c: &Config) -> Result<Probes, Error> {
    let (mut bench, record_ms) = Bench::new(c)?;
    let n = bench.funcs.len();
    let mut load = LoadCosts::default();
    for (func, sb) in &bench.funcs {
        probe_load(func, sb, &mut load)?;
    }
    // First restore of each function: the host's verify and optimize
    // caches miss. Then warm restores: every cache hits.
    let mut miss = Vec::new();
    for f in 0..n {
        miss.push(bench.restore_and_invoke(f, true)?);
    }
    let mut hit = vec![Vec::new(); n];
    for _ in 0..HIT_REPS {
        for (f, reps) in hit.iter_mut().enumerate() {
            reps.push(bench.restore_and_invoke(f, true)?);
        }
    }
    let mut reads = Vec::new();
    for f in 0..n {
        reads.push(bench.read_pages(f)?);
    }
    // Tracing overhead: the same warm restore-and-invoke replay timed
    // span by span and as a whole, alternating.
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_REPS {
        let t = Instant::now();
        for f in 0..n {
            bench.restore_and_invoke(f, true)?;
        }
        traced.push(ms_since(t));
        let t = Instant::now();
        for f in 0..n {
            bench.restore_and_invoke(f, false)?;
        }
        plain.push(ms_since(t));
    }
    let (traced, plain) = (median(&traced), median(&plain));
    Ok(Probes {
        record_ms: mean(&record_ms),
        load,
        miss,
        hit: hit.iter().map(|reps| average(reps)).collect(),
        read_miss_ns: mean(&reads.iter().map(|r| r.0).collect::<Vec<_>>()),
        read_hit_ns: mean(&reads.iter().map(|r| r.1).collect::<Vec<_>>()),
        overhead_pct: (traced - plain) / plain * 100.0,
    })
}

fn average(costs: &[RestoreCosts]) -> RestoreCosts {
    let col = |f: &dyn Fn(&RestoreCosts) -> f64| mean(&costs.iter().map(f).collect::<Vec<_>>());
    RestoreCosts {
        stage_us: std::array::from_fn(|i| col(&|c| c.stage_us[i])),
        invoke_cold_us: col(&|c| c.invoke_cold_us),
        invoke_warm_us: col(&|c| c.invoke_warm_us),
    }
}

/// Call counts of one untraced pass, summed over its variants.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Simulated invocations.
    pub arrivals: f64,
    /// Completed invocations.
    pub completions: f64,
    /// Program loads that missed the host's verify cache.
    pub load_misses: f64,
    /// Cold starts (restores) per function, in workload order.
    pub cold: Vec<f64>,
    /// Warm starts per function.
    pub warm: Vec<f64>,
}

impl Counts {
    fn add(&mut self, out: &RunOutput) {
        let (a, m) = (out.aggregate(), out.metrics());
        self.arrivals += a.arrivals as f64;
        self.completions += a.completions as f64;
        self.load_misses +=
            m.counter("ebpf.verifier.programs")
                .saturating_sub(m.counter("ebpf.verifier.cache_hits")) as f64;
        let funcs = digest::per_function(out);
        self.cold.resize(funcs.len(), 0.0);
        self.warm.resize(funcs.len(), 0.0);
        for (f, s) in funcs.iter().enumerate() {
            self.cold[f] += s.cold_starts as f64;
            self.warm[f] += s.warm_starts as f64;
        }
    }

    /// Mean of `per_func` weighted by `weights` (plain mean when every
    /// weight is zero).
    fn weighted(weights: &[f64], per_func: &[f64]) -> f64 {
        let total: f64 = weights.iter().sum();
        if total == 0.0 {
            return mean(per_func);
        }
        weights
            .iter()
            .zip(per_func)
            .map(|(w, v)| w * v)
            .sum::<f64>()
            / total
    }
}

/// Per-call wall costs, seconds, of the probed layers.
#[derive(Debug, Clone, PartialEq)]
pub struct CallCosts {
    /// One missed program load: verify + optimize + re-verify.
    pub load_s: f64,
    /// One warm restore, every stage, per function.
    pub restore_s: Vec<f64>,
    /// One invocation right after a restore, per function.
    pub invoke_cold_s: Vec<f64>,
    /// One invocation on a kept-alive VM, per function.
    pub invoke_warm_s: Vec<f64>,
}

/// Each layer's estimated share of a pass's wall clock, percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    /// Missed program loads.
    pub load: f64,
    /// Restore stages (warm-cache path).
    pub restore: f64,
    /// Invocations: guest faults, page cache and disk.
    pub invoke: f64,
    /// What no probe covers: scheduler, queues, pool, tracer, barrier.
    pub residual: f64,
    /// Wall seconds per invocation the probes do not explain; negative
    /// when the per-call estimates exceed the measured wall.
    pub residual_s_per_inv: f64,
}

impl Shares {
    /// Splits `wall_s` by per-call costs × call counts. When the
    /// estimates add up to more than the wall they are scaled against
    /// their own total instead, so the shares never exceed 100 %.
    pub fn estimate(wall_s: f64, n: &Counts, c: &CallCosts) -> Shares {
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let load = n.load_misses * c.load_s;
        let restore = dot(&n.cold, &c.restore_s);
        let invoke = dot(&n.cold, &c.invoke_cold_s) + dot(&n.warm, &c.invoke_warm_s);
        let explained = load + restore + invoke;
        let whole = wall_s.max(explained);
        let pct = |x: f64| if whole > 0.0 { x / whole * 100.0 } else { 0.0 };
        Shares {
            load: pct(load),
            restore: pct(restore),
            invoke: pct(invoke),
            residual: pct(whole - explained),
            residual_s_per_inv: (wall_s - explained) / n.arrivals.max(1.0),
        }
    }

    /// The four shares, named.
    pub fn named(&self) -> [(&'static str, f64); 4] {
        [
            ("load.share_pct", self.load),
            ("core.restore.share_pct", self.restore),
            ("vmm.invoke.share_pct", self.invoke),
            ("fleet.residual_share_pct", self.residual),
        ]
    }
}

/// Whether the workload still stresses the layer it exists for; the
/// message says which share or figure decided.
pub fn layer_mix(kind: Kind, s: &Shares, speedup: Option<f64>) -> (bool, String) {
    let named = s.named();
    let (top, top_pct) = named
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four shares");
    match kind {
        Kind::FleetWarm => {
            if top == "load.share_pct" {
                (true, format!("load.share_pct is the largest share ({top_pct:.1} %)"))
            } else {
                (
                    false,
                    format!("load.share_pct is no longer the largest share: {top} is ({top_pct:.1} %)"),
                )
            }
        }
        Kind::FleetCold => {
            // The restore hit path and the page / fault path behind it
            // are one pipeline per invocation; together they must
            // outweigh program load and the scheduler residual.
            let path = s.restore + s.invoke;
            let other = s.load.max(s.residual);
            let msg = format!(
                "restore + invocation path {path:.1} % vs largest other share {other:.1} %"
            );
            (path > other, msg)
        }
        Kind::ClusterAzure => match speedup {
            Some(x) => (
                true,
                format!("cluster.speedup = {x:.3} (< 1 means the parallel engine is slower than serial)"),
            ),
            None => (false, "no cluster.speedup measured".to_owned()),
        },
    }
}

fn sum_metrics(outputs: &[RunOutput]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for out in outputs {
        m.merge(out.metrics());
    }
    m
}

/// The traced run of `kind`: every per-layer metric.
pub fn measure(kind: Kind, seed: u64, seconds: f64, size: Size) -> Result<Report, Error> {
    let (configs, synth_s) = workload::build_all(kind, seed, size);
    let reference = e2e::reference(&configs, true)?;
    let mut n = Counts::default();
    for out in &reference.outputs {
        n.add(out);
    }
    let m = sum_metrics(&reference.outputs);

    // Untraced walls: the workload as configured (serial) and, for a
    // cluster, the same runs on min(nproc, hosts) threads; every run
    // must reproduce the reference digests.
    let untraced = e2e::timed(&configs, &reference.digests, seconds / 2.0)?;
    let wall_s = untraced.pass_wall_s(configs.len());
    let mut failed = untraced.failed;
    let mut attempted = untraced.attempted();
    let (serial_s, parallel_s, imbalance) = match &reference.outputs[0] {
        RunOutput::Cluster(c) => {
            let parallel: Vec<Config> = configs
                .iter()
                .map(|c| c.on_threads(workload::cluster_threads(c.cfg.hosts)))
                .collect();
            let parallel = e2e::timed(&parallel, &reference.digests, seconds / 4.0)?;
            failed += parallel.failed;
            attempted += parallel.attempted();
            let placed: Vec<f64> = c.hosts.iter().map(|h| h.placed as f64).collect();
            let max = placed.iter().copied().fold(0.0, f64::max);
            (
                wall_s,
                parallel.pass_wall_s(configs.len()),
                max / mean(&placed),
            )
        }
        RunOutput::Fleet(_) => (wall_s, wall_s, 1.0),
    };

    let p = probe(&configs[0])?;
    let col = |costs: &[RestoreCosts], f: &dyn Fn(&RestoreCosts) -> f64| -> Vec<f64> {
        costs.iter().map(f).collect()
    };
    let costs = CallCosts {
        load_s: (mean(&p.load.verify_ms) + mean(&p.load.opt_ms) + mean(&p.load.reverify_ms)) / 1e3,
        restore_s: col(&p.hit, &|c| c.stage_us.iter().sum::<f64>() / 1e6),
        invoke_cold_s: col(&p.hit, &|c| c.invoke_cold_us / 1e6),
        invoke_warm_s: col(&p.hit, &|c| c.invoke_warm_us / 1e6),
    };
    // Per-call figures are weighted by how often the workload makes
    // each function's call: restores by cold starts, warm invocations
    // by warm starts; the first (cache-missing) restore of every
    // function counts once each.
    let cold_w = |f: &dyn Fn(&RestoreCosts) -> f64| Counts::weighted(&n.cold, &col(&p.hit, f));
    let stage_us = |stage: RestoreStage| cold_w(&|c| c.stage_us[stage.index()]);
    let shares = Shares::estimate(wall_s, &n, &costs);
    let speedup = serial_s / parallel_s;
    let (kept, why) = layer_mix(
        kind,
        &shares,
        (kind == Kind::ClusterAzure).then_some(speedup),
    );
    eprintln!(
        "layer mix: {} {}: {why}",
        kind.name(),
        if kept {
            "keeps its character"
        } else {
            "LOST its character"
        }
    );
    eprintln!(
        "tracing overhead: {:.2} % on the restore-and-invoke replay (per-call spans vs one timer)",
        p.overhead_pct
    );

    let per = |name: &str, base: f64| m.counter(name) as f64 / base.max(1.0);
    let guest_faults: u64 = m
        .counters()
        .filter(|(k, _)| k.starts_with("vmm.guest."))
        .map(|(_, v)| v)
        .sum::<u64>()
        + m.counter("vmm.uffd.faults");
    let (hits, misses) = (m.counter("mem.cache.hits"), m.counter("mem.cache.misses"));
    let cache_ops = hits + misses + m.counter("mem.cache.inserts");

    let mut r = Report {
        correct: reference.consistent
            && failed == 0
            && e2e::matches_record(kind, seed, size, &reference.digests),
        attempted,
        failed,
        metrics: Vec::new(),
    };
    r.push("ebpf.verify.ms", mean(&p.load.verify_ms), "ms");
    r.push("ebpf.opt.ms", mean(&p.load.opt_ms), "ms");
    r.push("ebpf.reverify.ms", mean(&p.load.reverify_ms), "ms");
    r.push(
        "ebpf.verify.insns_processed",
        mean(&p.load.insns_processed),
        "count",
    );
    r.push(
        "ebpf.loads.miss",
        n.load_misses / configs.len() as f64,
        "count",
    );
    for (name, pct) in shares.named() {
        r.push(name, pct, "%");
    }
    r.push(
        "core.restore.metadata_load_us",
        stage_us(RestoreStage::MetadataLoad),
        "us",
    );
    r.push(
        "core.restore.prefetch_issue_miss_ms",
        mean(&col(&p.miss, &|c| {
            c.stage_us[RestoreStage::PrefetchIssue.index()]
        })) / 1e3,
        "ms",
    );
    r.push(
        "core.restore.prefetch_issue_hit_us",
        stage_us(RestoreStage::PrefetchIssue),
        "us",
    );
    r.push(
        "core.restore.overlay_setup_us",
        stage_us(RestoreStage::OverlaySetup),
        "us",
    );
    r.push(
        "core.restore.resume_us",
        stage_us(RestoreStage::Resume),
        "us",
    );
    r.push("core.record_ms", p.record_ms, "ms");
    r.push("ebpf.interp.us_per_run", mean(&p.load.interp_us), "us");
    r.push(
        "ebpf.interp.insns_per_run",
        mean(&p.load.interp_insns),
        "count",
    );
    r.push("vmm.invoke.cold_us", cold_w(&|c| c.invoke_cold_us), "us");
    r.push(
        "vmm.invoke.warm_us",
        Counts::weighted(&n.warm, &col(&p.hit, &|c| c.invoke_warm_us)),
        "us",
    );
    r.push(
        "vmm.faults_per_inv",
        guest_faults as f64 / n.completions.max(1.0),
        "count/inv",
    );
    r.push("kernel.read_page.miss_ns", p.read_miss_ns, "ns");
    r.push("kernel.read_page.hit_ns", p.read_hit_ns, "ns");
    r.push(
        "mem.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.push(
        "mem.cache.ops_per_inv",
        cache_ops as f64 / n.arrivals.max(1.0),
        "count/inv",
    );
    r.push(
        "storage.read.requests_per_inv",
        per("storage.read.requests", n.arrivals),
        "count/inv",
    );
    r.push(
        "fleet.residual_us_per_inv",
        shares.residual_s_per_inv * 1e6,
        "us/inv",
    );
    r.push("cluster.serial_s", serial_s, "s");
    r.push("cluster.parallel_s", parallel_s, "s");
    r.push("cluster.speedup", speedup, "ratio");
    r.push("cluster.host_imbalance", imbalance, "ratio");
    r.push("trace.synth_ms", synth_s * 1e3, "ms");
    r.push("trace.overhead_pct", p.overhead_pct, "%");
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> CallCosts {
        CallCosts {
            load_s: 0.03,
            restore_s: vec![100e-6, 50e-6],
            invoke_cold_s: vec![200e-6, 100e-6],
            invoke_warm_s: vec![20e-6, 30e-6],
        }
    }

    fn counts() -> Counts {
        Counts {
            arrivals: 4000.0,
            completions: 4000.0,
            load_misses: 8.0,
            cold: vec![200.0, 100.0],
            warm: vec![2000.0, 1700.0],
        }
    }

    #[test]
    fn shares_sum_to_at_most_100_percent() {
        for wall_s in [0.01, 0.2, 0.45, 3.0] {
            let s = Shares::estimate(wall_s, &counts(), &costs());
            let total: f64 = s.named().iter().map(|(_, v)| v).sum();
            assert!(total <= 100.0 + 1e-9, "wall {wall_s}: {total}");
            assert!(s.named().iter().all(|(_, v)| *v >= 0.0));
        }
        // Estimates over the wall: no residual share, a negative
        // residual per invocation.
        let over = Shares::estimate(0.01, &counts(), &costs());
        assert_eq!(over.residual, 0.0);
        assert!(over.residual_s_per_inv < 0.0);
    }

    #[test]
    fn weighted_means_follow_the_call_mix() {
        assert_eq!(Counts::weighted(&[3.0, 1.0], &[10.0, 50.0]), 20.0);
        assert_eq!(Counts::weighted(&[0.0, 0.0], &[10.0, 50.0]), 30.0);
    }

    #[test]
    fn layer_mix_names_the_workloads_layer() {
        let warm = Shares::estimate(0.45, &counts(), &costs());
        assert!(layer_mix(Kind::FleetWarm, &warm, None).0);
        assert!(!layer_mix(Kind::FleetCold, &warm, None).0);
        assert!(layer_mix(Kind::ClusterAzure, &warm, Some(0.6)).0);
        assert!(!layer_mix(Kind::ClusterAzure, &warm, None).0);
    }
}
