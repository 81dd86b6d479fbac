//! The host kernel: page cache, readahead, eBPF wiring.
//!
//! [`HostKernel`] glues the substrates together the way Linux does
//! for SnapBPF:
//!
//! * buffered reads go through the **page cache**; misses trigger
//!   **readahead** (the default 32-page window, §4's Linux-RA
//!   baseline) unless readahead is disabled (Linux-NoRA, and
//!   SnapBPF's capture phase),
//! * every page inserted into the page cache fires the
//!   **`add_to_page_cache_lru` kprobe** with `(file, page-offset)`
//!   as context — exactly the hook SnapBPF's capture and prefetch
//!   programs attach to (paper §3.1),
//! * programs may call the **`snapbpf_prefetch` kfunc** (registry
//!   index 0), which wraps [`HostKernel::ra_unbounded`] — the
//!   equivalent of wrapping `page_cache_ra_unbounded()`. Requests
//!   are queued during program execution and drained afterwards, so
//!   a prefetch program re-triggered by its own insertions cascades
//!   without recursion (real kprobes are similarly non-reentrant),
//! * a program returning [`PROG_RET_DISABLE`] is detached from the
//!   hook — how the prefetch program "disables itself" after the
//!   last group.

use std::collections::VecDeque;
use std::fmt;

use snapbpf_ebpf::{
    Interpreter, KfuncHost, KfuncSig, KprobeRegistry, MapDef, MapError, MapId, MapSet, ProbeError,
    ProbeId, Program, VerifyError,
};
use snapbpf_mem::{
    AnonRegistry, CacheError, MemorySnapshot, OwnerId, PageCache, PageKey, PageState,
};
use snapbpf_sim::{Metric, SimDuration, SimTime, Tracer, TID_KERNEL};
use snapbpf_storage::{Disk, DiskError, FileId, IoPath};

use crate::config::KernelConfig;
use crate::telemetry::{DrainSummary, TelemetryDrain};

/// The hook name SnapBPF programs attach to.
pub const PAGE_CACHE_ADD_HOOK: &str = "add_to_page_cache_lru";

/// Kfunc registry index of `snapbpf_prefetch(file, start, count)`.
pub const KFUNC_SNAPBPF_PREFETCH: u32 = 0;

/// Program return value requesting self-disable from the hook.
pub const PROG_RET_DISABLE: u64 = 1;

/// Errors surfaced by the host kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Disk layer error.
    Disk(DiskError),
    /// Page-cache bookkeeping error (indicates a kernel-model bug).
    Cache(CacheError),
    /// No host page was free even after reclaiming the page cache.
    OutOfMemory,
    /// Map operation failed.
    Map(MapError),
    /// Program failed verification at load time.
    Verify(VerifyError),
    /// Kprobe registry error.
    Probe(ProbeError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Disk(e) => write!(f, "disk: {e}"),
            KernelError::Cache(e) => write!(f, "page cache: {e}"),
            KernelError::OutOfMemory => write!(f, "host out of memory"),
            KernelError::Map(e) => write!(f, "map: {e}"),
            KernelError::Verify(e) => write!(f, "verifier: {e}"),
            KernelError::Probe(e) => write!(f, "kprobe: {e}"),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Disk(e) => Some(e),
            KernelError::Cache(e) => Some(e),
            KernelError::OutOfMemory => None,
            KernelError::Map(e) => Some(e),
            KernelError::Verify(e) => Some(e),
            KernelError::Probe(e) => Some(e),
        }
    }
}

impl From<DiskError> for KernelError {
    fn from(e: DiskError) -> Self {
        KernelError::Disk(e)
    }
}
impl From<CacheError> for KernelError {
    fn from(e: CacheError) -> Self {
        KernelError::Cache(e)
    }
}
impl From<MapError> for KernelError {
    fn from(e: MapError) -> Self {
        KernelError::Map(e)
    }
}
impl From<VerifyError> for KernelError {
    fn from(e: VerifyError) -> Self {
        KernelError::Verify(e)
    }
}
impl From<ProbeError> for KernelError {
    fn from(e: ProbeError) -> Self {
        KernelError::Probe(e)
    }
}

/// Result of a buffered read or explicit readahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// When the requested data is available in the page cache.
    pub ready_at: SimTime,
    /// Synchronous CPU time spent on the kernel paths involved
    /// (kprobe + program execution charged separately to
    /// [`HostKernel::ebpf_cpu`]).
    pub cpu: SimDuration,
    /// `true` when the page was already resident (no I/O issued for
    /// the *requested* page).
    pub hit: bool,
}

/// A queued `snapbpf_prefetch` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefetchRequest {
    file: FileId,
    start_page: u64,
    count: u64,
}

/// Kfunc sink handed to the interpreter during hook firing: queues
/// prefetch requests instead of recursing into the kernel.
struct PrefetchSink<'a> {
    queue: &'a mut VecDeque<PrefetchRequest>,
    disk: &'a Disk,
}

impl KfuncHost for PrefetchSink<'_> {
    fn call_kfunc(&mut self, index: u32, args: [u64; 5]) -> Result<u64, String> {
        if index != KFUNC_SNAPBPF_PREFETCH {
            return Err(format!("unknown kfunc #{index}"));
        }
        let file = u32::try_from(args[0])
            .ok()
            .and_then(|i| self.disk.file_by_index(i))
            .ok_or_else(|| format!("snapbpf_prefetch: bad file id {}", args[0]))?;
        let (start_page, count) = (args[1], args[2]);
        if count == 0 {
            return Err("snapbpf_prefetch: zero-length range".to_owned());
        }
        self.queue.push_back(PrefetchRequest {
            file,
            start_page,
            count,
        });
        Ok(0)
    }
}

/// The simulated host kernel.
///
/// A clone is an independent host in the same state: its own disk,
/// page cache, memory, maps, probes and load cache. Only the tracer
/// handle is shared, so install the clone's own with
/// [`HostKernel::install_tracer`] before tracing it.
///
/// # Examples
///
/// ```
/// use snapbpf_kernel::{HostKernel, KernelConfig};
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, SsdModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let mut kernel = HostKernel::new(disk, KernelConfig::default());
/// let snap = kernel.disk_mut().create_file("snap.mem", 4096)?;
///
/// // First read misses and pulls a readahead window:
/// let miss = kernel.read_file_page(SimTime::ZERO, snap, 100)?;
/// assert!(!miss.hit);
///
/// // A later read of a neighbouring page hits the cache:
/// let hit = kernel.read_file_page(miss.ready_at, snap, 101)?;
/// assert!(hit.hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HostKernel {
    config: KernelConfig,
    disk: Disk,
    /// Host pages the kernel can hand out.
    usable_pages: u64,
    /// Host pages in use: page-cache plus anonymous pages.
    used_pages: u64,
    cache: PageCache,
    anon: AnonRegistry,
    probes: KprobeRegistry,
    maps: MapSet,
    interp: Interpreter,
    kfunc_sigs: Vec<KfuncSig>,
    prefetch_queue: VecDeque<PrefetchRequest>,
    /// Per-file demand-readahead ramp state, indexed by
    /// [`FileId::as_u32`]: (next expected page, current window).
    ra_state: Vec<Option<(u64, u64)>>,
    hook_fires: u64,
    cow_pages: u64,
    ebpf_cpu: SimDuration,
    telemetry: Option<TelemetryDrain>,
    trace: Tracer,
    load_cache: snapbpf_ebpf::LoadCache,
}

impl HostKernel {
    /// Boots a host kernel over `disk`. Its usable memory is
    /// [`KernelConfig::total_memory_pages`] rounded down to a multiple
    /// of [`KernelConfig::MIN_MEMORY_PAGES`].
    ///
    /// # Panics
    ///
    /// Panics if `total_memory_pages` is below
    /// [`KernelConfig::MIN_MEMORY_PAGES`].
    pub fn new(disk: Disk, config: KernelConfig) -> Self {
        let unit = KernelConfig::MIN_MEMORY_PAGES;
        assert!(
            config.total_memory_pages >= unit,
            "host memory needs at least {unit} pages"
        );
        HostKernel {
            usable_pages: config.total_memory_pages / unit * unit,
            used_pages: 0,
            disk,
            cache: PageCache::new(),
            anon: AnonRegistry::new(),
            probes: KprobeRegistry::new(),
            maps: MapSet::new(),
            interp: Interpreter::new(),
            kfunc_sigs: vec![KfuncSig {
                name: "snapbpf_prefetch",
                args: 3,
            }],
            prefetch_queue: VecDeque::new(),
            ra_state: Vec::new(),
            hook_fires: 0,
            cow_pages: 0,
            ebpf_cpu: SimDuration::ZERO,
            telemetry: None,
            trace: Tracer::disabled(),
            load_cache: snapbpf_ebpf::LoadCache::default(),
            config,
        }
    }

    /// Installs a structured tracer, propagating clones to every
    /// subcomponent (disk, page cache, maps, kprobes) so one handle
    /// collects events and metrics from the whole host.
    pub fn install_tracer(&mut self, tracer: &Tracer) {
        self.trace = tracer.clone();
        self.disk.set_trace(tracer.clone());
        self.cache.set_tracer(tracer.clone());
        self.maps.set_tracer(tracer.clone());
        self.probes.set_tracer(tracer.clone());
    }

    /// The installed tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Enables or disables demand readahead (Linux-RA vs Linux-NoRA;
    /// SnapBPF disables it during capture, §3.1).
    pub fn set_readahead(&mut self, enabled: bool) {
        self.config.readahead_enabled = enabled;
    }

    /// The disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable access to the disk (file creation, tracer swaps).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// The eBPF map set (userspace view: create, load, read back).
    pub fn maps(&self) -> &MapSet {
        &self.maps
    }

    /// Mutable access to the map set.
    pub fn maps_mut(&mut self) -> &mut MapSet {
        &mut self.maps
    }

    /// Creates an eBPF map.
    ///
    /// # Errors
    ///
    /// Propagates invalid definitions as [`KernelError::Map`].
    pub fn create_map(&mut self, def: MapDef) -> Result<MapId, KernelError> {
        Ok(self.maps.create(def)?)
    }

    /// Verifies `program` against the current maps and kfuncs,
    /// optimizes it, and attaches it to `hook` — the `bpf()` load +
    /// attach path.
    ///
    /// Loads are memoized per program *shape*
    /// ([`snapbpf_ebpf::LoadCache`]): reloading an identically-shaped
    /// program against identically-defined maps — what every SnapBPF
    /// cold restore after the first does — skips the verifier walk
    /// and the optimizer and counts as `ebpf.verifier.cache_hits`
    /// instead of processed instructions. The optimized image is
    /// attached only when it passes the verifier again; otherwise the
    /// original is kept and `ebpf.opt.reverify_rejections` counts the
    /// fallback.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Verify`] when the program is rejected.
    pub fn load_and_attach(
        &mut self,
        hook: &str,
        program: &Program,
    ) -> Result<ProbeId, KernelError> {
        let result = self.load_cache.load(program, &self.maps, &self.kfunc_sigs);
        let stats = match &result {
            Ok(loaded) => loaded.verifier.clone(),
            Err(_) => snapbpf_ebpf::VerifierStats::default(),
        };
        self.trace
            .add(Metric::EbpfVerifierInsnsProcessed, stats.insns_processed);
        self.trace
            .add(Metric::EbpfVerifierStatesPruned, stats.states_pruned);
        self.trace
            .add(Metric::EbpfVerifierDeadInsns, stats.dead_insns);
        self.trace.observe(
            Metric::EbpfVerifierPeakBranchDepth,
            stats.peak_branch_depth as u64,
        );
        let loaded = match result {
            Ok(loaded) => loaded,
            Err(e) => {
                self.trace.incr(Metric::EbpfVerifierRejections);
                return Err(e.into());
            }
        };
        self.trace.incr(Metric::EbpfVerifierPrograms);
        self.trace.incr(Metric::EbpfOptPrograms);
        if loaded.cache_hit {
            self.trace.incr(Metric::EbpfVerifierCacheHits);
            self.trace.incr(Metric::EbpfOptCacheHits);
        }
        self.trace
            .add(Metric::EbpfOptInsnsBefore, loaded.opt.insns_before);
        self.trace
            .add(Metric::EbpfOptInsnsAfter, loaded.opt.insns_after);
        if loaded.reverify_rejected {
            self.trace.incr(Metric::EbpfOptReverifyRejections);
        }
        Ok(self.probes.attach(hook, loaded.attached))
    }

    /// Detaches a program.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Probe`] for unknown probes.
    pub fn detach(&mut self, probe: ProbeId) -> Result<(), KernelError> {
        Ok(self.probes.detach(probe)?)
    }

    /// `true` if the probe is attached and enabled.
    pub fn probe_enabled(&self, probe: ProbeId) -> bool {
        self.probes.is_enabled(probe)
    }

    /// Number of times the probe's program has run.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Probe`] for unknown probes.
    pub fn probe_runs(&self, probe: ProbeId) -> Result<u64, KernelError> {
        Ok(self.probes.run_count(probe)?)
    }

    /// Loads `entries` into consecutive slots of an array map from
    /// userspace, charging the per-entry syscall cost — the paper's
    /// §4 offset-loading overhead (~1–2 ms for typical working
    /// sets).
    ///
    /// # Errors
    ///
    /// Propagates map errors.
    pub fn load_map_from_user(
        &mut self,
        map: MapId,
        first_index: u32,
        entries: &[u64],
    ) -> Result<SimDuration, KernelError> {
        for (i, &v) in entries.iter().enumerate() {
            self.maps.array_store_u64(map, first_index + i as u32, v)?;
        }
        let cost = self.config.map_load_per_entry * entries.len() as u64;
        if self.trace.events_enabled() {
            self.trace.instant_now(
                "ebpf",
                "map-load",
                TID_KERNEL,
                vec![
                    ("map", map.as_u32().into()),
                    ("entries", entries.len().into()),
                    ("cost_ns", cost.as_nanos().into()),
                ],
            );
        }
        Ok(cost)
    }

    // ---- Page cache paths ----

    /// Takes one free host page. When none is free, first reclaims
    /// up to 4,096 least-recently-used unmapped page-cache pages.
    fn take_page(&mut self) -> Result<(), KernelError> {
        if self.used_pages == self.usable_pages {
            self.used_pages -= self.cache.evict_lru(4096).len() as u64;
            if self.used_pages == self.usable_pages {
                return Err(KernelError::OutOfMemory);
            }
        }
        self.used_pages += 1;
        Ok(())
    }

    /// Inserts the uncached pages of `[start, start+count)` as
    /// in-flight reads, issuing one device request per contiguous
    /// uncached run and firing the page-cache hook per page.
    fn insert_and_read(
        &mut self,
        now: SimTime,
        file: FileId,
        start: u64,
        count: u64,
    ) -> Result<SimTime, KernelError> {
        self.trace.advance_clock(now);
        let file_pages = self.disk.file_pages(file)?;
        let start = start.min(file_pages);
        let end = (start + count).min(file_pages);
        let mut max_ready = now;

        let mut run_start: Option<u64> = None;
        let mut page = start;
        // One pass: find maximal uncached runs.
        while page <= end {
            let cached = if page < end {
                self.cache.refresh(now, PageKey::new(file, page)).is_some()
            } else {
                true // sentinel: close any open run at the end
            };
            if !cached && run_start.is_none() {
                run_start = Some(page);
            }
            if cached {
                if let Some(rs) = run_start.take() {
                    let run_len = page - rs;
                    let completion =
                        self.disk
                            .read_file_pages(now, file, rs, run_len, IoPath::Buffered)?;
                    max_ready = max_ready.max(completion.done_at);
                    for p in rs..rs + run_len {
                        self.take_page()?;
                        let key = PageKey::new(file, p);
                        self.cache.insert(
                            key,
                            PageState::InFlight {
                                ready_at: completion.done_at,
                            },
                        )?;
                        self.fire_page_added(now, file, p);
                    }
                }
            }
            page += 1;
        }
        self.enforce_cache_budget();
        Ok(max_ready)
    }

    /// Enforces [`KernelConfig::page_cache_budget_pages`]: reclaims
    /// LRU pages until the cache fits the budget again, counting
    /// them as *pressure* evictions (distinct from the
    /// memory-exhaustion reclaim in `take_page`). Mapped
    /// and in-flight pages are never reclaimed, so a read burst can
    /// exceed the budget transiently — exactly the window one
    /// tenant's burst steals another tenant's cached snapshot pages
    /// in.
    fn enforce_cache_budget(&mut self) {
        let Some(budget) = self.config.page_cache_budget_pages else {
            return;
        };
        let len = self.cache.len();
        if len <= budget {
            return;
        }
        let evicted = self.cache.evict_lru(len - budget).len() as u64;
        self.used_pages -= evicted;
        if evicted > 0 {
            self.trace.add(Metric::MemCachePressureEvictions, evicted);
        }
    }

    /// Fires the `add_to_page_cache_lru` kprobe for one insertion.
    fn fire_page_added(&mut self, now: SimTime, file: FileId, page: u64) {
        self.hook_fires += 1;
        let ctx = [file.as_u32() as u64, page, now.as_nanos()];
        self.interp.set_now_ns(now.as_nanos());
        let mut sink = PrefetchSink {
            queue: &mut self.prefetch_queue,
            disk: &self.disk,
        };
        let results = self.probes.fire(
            PAGE_CACHE_ADD_HOOK,
            &ctx,
            &mut self.interp,
            &mut self.maps,
            &mut sink,
        );
        let mut cpu = SimDuration::ZERO;
        let mut disable = Vec::new();
        for r in &results {
            cpu += self.config.kprobe_overhead;
            if let Ok(o) = &r.outcome {
                cpu += self.config.ebpf_insn_cost * o.insns_executed;
                if o.return_value == PROG_RET_DISABLE {
                    disable.push(r.probe);
                }
            }
        }
        for p in disable {
            let _ = self.probes.disable(p);
            self.trace.incr(Metric::EbpfProgSelfDisables);
            if self.trace.events_enabled() {
                self.trace.instant(
                    "ebpf",
                    "prog-self-disable",
                    TID_KERNEL,
                    now,
                    vec![("probe", p.as_u32().into())],
                );
            }
        }
        self.ebpf_cpu += cpu;
    }

    /// Registers a telemetry map pair for draining: after every
    /// prefetch-cascade drain the kernel pops the ring's records and
    /// reads the per-CPU stats deltas into the tracer, attributing
    /// series samples to `function`. Replaces any previous
    /// registration (last-seen stat values reset with it).
    pub fn register_telemetry(&mut self, ring: MapId, stats: MapId, function: &str) {
        self.telemetry = Some(TelemetryDrain::new(ring, stats, function));
    }

    /// Drops the telemetry registration without a final drain.
    pub fn unregister_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Runs the registered telemetry drain now (also invoked
    /// automatically at event-loop boundaries). No-op returning an
    /// empty summary when nothing is registered.
    ///
    /// # Errors
    ///
    /// [`KernelError::Map`] when the registered maps are gone — a
    /// wiring bug, not a runtime condition.
    pub fn drain_telemetry(&mut self) -> Result<DrainSummary, KernelError> {
        match &mut self.telemetry {
            None => Ok(DrainSummary::default()),
            Some(drain) => Ok(drain.drain(&mut self.maps, &self.trace)?),
        }
    }

    /// Pins the simulated CPU subsequent program invocations run on,
    /// which selects their per-CPU map slots.
    /// Parallel cluster shards pin distinct CPUs so their per-CPU
    /// bumps never contend; wraps at [`snapbpf_ebpf::NCPUS`].
    pub fn set_smp_processor_id(&mut self, cpu: u32) {
        self.interp.set_current_cpu(cpu);
    }

    /// The simulated CPU programs currently observe.
    pub fn smp_processor_id(&self) -> u32 {
        self.interp.current_cpu()
    }

    /// Drains queued `snapbpf_prefetch` requests; each issued range
    /// fires more hook events, so draining continues until the
    /// cascade is quiet. Ends with a telemetry drain when a ring /
    /// stats pair is registered — the event-loop boundary where
    /// kernel-side records become userspace metrics.
    fn drain_prefetch_queue(&mut self, now: SimTime) -> Result<(), KernelError> {
        let mut safety = 1_000_000u32;
        while let Some(req) = self.prefetch_queue.pop_front() {
            safety = safety.checked_sub(1).expect("prefetch cascade diverged");
            self.trace.incr(Metric::EbpfPrefetchRanges);
            self.trace.add(Metric::EbpfPrefetchPages, req.count);
            if self.trace.events_enabled() {
                self.trace.instant(
                    "ebpf",
                    "prefetch-range",
                    TID_KERNEL,
                    now,
                    vec![
                        ("file", req.file.as_u32().into()),
                        ("start_page", req.start_page.into()),
                        ("pages", req.count.into()),
                    ],
                );
            }
            self.insert_and_read(now, req.file, req.start_page, req.count)?;
        }
        let _ = safety;
        self.drain_telemetry()?;
        Ok(())
    }

    /// Buffered read of one page: the demand-fault I/O path. Applies
    /// the readahead window on a miss when readahead is enabled.
    ///
    /// # Errors
    ///
    /// Disk and memory errors.
    pub fn read_file_page(
        &mut self,
        now: SimTime,
        file: FileId,
        page: u64,
    ) -> Result<ReadOutcome, KernelError> {
        self.trace.advance_clock(now);
        let key = PageKey::new(file, page);
        if let Some(view) = self.cache.lookup(now, key) {
            return Ok(ReadOutcome {
                ready_at: view.available_at().max(now),
                cpu: SimDuration::ZERO,
                hit: true,
            });
        }
        // Linux-style on-demand readahead: the window starts small
        // on a random miss and doubles (up to the 128 KiB maximum)
        // while misses stay sequential.
        let window = if self.config.readahead_enabled {
            let max = self.config.readahead_pages.max(1);
            let init = self.config.readahead_initial.clamp(1, max);
            let f = file.as_u32() as usize;
            if f >= self.ra_state.len() {
                self.ra_state.resize(f + 1, None);
            }
            let window = match self.ra_state[f] {
                Some((expected, prev)) if page == expected => (prev * 2).min(max),
                _ => init,
            };
            self.ra_state[f] = Some((page + window, window));
            window
        } else {
            1
        };
        self.insert_and_read(now, file, page, window)?;
        self.drain_prefetch_queue(now)?;
        let ready_at = match self.cache.get(key) {
            Some(view) => match view.state {
                PageState::Resident => now,
                PageState::InFlight { ready_at } => ready_at,
            },
            None => now, // page beyond EOF: reads as zeros, no I/O
        };
        Ok(ReadOutcome {
            ready_at,
            cpu: self.config.major_fault_setup,
            hit: false,
        })
    }

    /// Explicit unbounded readahead of `[start, start+count)` — the
    /// `page_cache_ra_unbounded()` wrapper behind the
    /// `snapbpf_prefetch` kfunc, also used to model FaaSnap's
    /// userspace prefetch thread issuing buffered reads.
    ///
    /// # Errors
    ///
    /// Disk and memory errors.
    pub fn ra_unbounded(
        &mut self,
        now: SimTime,
        file: FileId,
        start: u64,
        count: u64,
    ) -> Result<ReadOutcome, KernelError> {
        let ready_at = self.insert_and_read(now, file, start, count)?;
        self.drain_prefetch_queue(now)?;
        Ok(ReadOutcome {
            ready_at,
            cpu: SimDuration::ZERO,
            hit: false,
        })
    }

    /// Touches a page to kick off a prefetch cascade — the VMM's
    /// "trigger the prefetching by accessing the first page of the
    /// snapshot" (paper §3.1, step ②).
    ///
    /// # Errors
    ///
    /// Disk and memory errors.
    pub fn trigger_access(
        &mut self,
        now: SimTime,
        file: FileId,
        page: u64,
    ) -> Result<ReadOutcome, KernelError> {
        self.read_file_page(now, file, page)
    }

    /// `mincore(2)` over a file range: which pages are resident at
    /// `now`. In-flight pages whose I/O has completed count as
    /// resident.
    pub fn mincore(&mut self, now: SimTime, file: FileId, start: u64, count: u64) -> Vec<bool> {
        (start..start + count)
            .map(|p| {
                matches!(
                    self.cache
                        .refresh(now, PageKey::new(file, p))
                        .map(|v| v.state),
                    Some(PageState::Resident)
                )
            })
            .collect()
    }

    /// State of one cached page, if cached.
    pub fn page_state(&self, file: FileId, page: u64) -> Option<PageState> {
        self.cache.get(PageKey::new(file, page)).map(|v| v.state)
    }

    /// Drops every unmapped page-cache page — `echo 3 >
    /// drop_caches`, used between the record and invocation phases
    /// so the invocation starts cache-cold as in the paper's
    /// methodology. Returns the number of pages dropped.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps callers' `?` chains stable.
    pub fn drop_all_caches(&mut self) -> Result<u64, KernelError> {
        let n = self.cache.drain_unmapped().len() as u64;
        self.used_pages -= n;
        Ok(n)
    }

    /// Drops every unmapped cached page of `file` (used between
    /// experiment repetitions to cool the cache).
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps callers' `?` chains stable.
    pub fn drop_file_cache(&mut self, file: FileId) -> Result<(), KernelError> {
        self.used_pages -= self.cache.drop_file(file);
        Ok(())
    }

    // ---- Anonymous memory (for KVM / uffd installs) ----

    /// Allocates a zeroed anonymous page for `owner`, returning the
    /// CPU time the zero fill costs.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutOfMemory`] under exhaustion.
    pub fn alloc_anon_page(&mut self, owner: OwnerId) -> Result<SimDuration, KernelError> {
        self.take_page()?;
        self.anon.alloc_page(owner);
        Ok(self.config.anon_zero_fill)
    }

    /// Releases all anonymous memory of `owner` (sandbox teardown),
    /// returning how many pages it held.
    pub fn release_owner(&mut self, owner: OwnerId) -> u64 {
        let n = self.anon.release_owner(owner);
        self.used_pages -= n;
        n
    }

    /// Records a copy-on-write break (KVM calls this when it copies
    /// a cache page to anonymous memory).
    pub(crate) fn note_cow_break(&mut self) {
        self.cow_pages += 1;
        self.trace.incr(Metric::MemCowBreaks);
    }

    /// Mutable access to the page cache (KVM map/unmap bookkeeping).
    pub(crate) fn cache_mut(&mut self) -> &mut PageCache {
        &mut self.cache
    }

    /// Shared access to the page cache.
    pub fn cache(&self) -> &PageCache {
        &self.cache
    }

    // ---- Accounting ----

    /// Point-in-time memory usage split.
    pub fn memory_snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            page_cache_pages: self.cache.len(),
            anon_pages: self.anon.total_pages(),
            cow_pages: self.cow_pages,
        }
    }

    /// Anonymous pages currently attributed to `owner`.
    pub fn anon_pages_of(&self, owner: OwnerId) -> u64 {
        self.anon.pages(owner)
    }

    /// Number of `add_to_page_cache_lru` hook fires since boot — one
    /// per page inserted into the cache, whether or not a program is
    /// attached.
    pub fn hook_fires(&self) -> u64 {
        self.hook_fires
    }

    /// Cumulative CPU time spent in kprobe dispatch + eBPF programs.
    pub fn ebpf_cpu(&self) -> SimDuration {
        self.ebpf_cpu
    }

    /// Invariant check: every used host page is attributable to the
    /// page cache or an anonymous owner. Returns the discrepancy
    /// (0 when consistent). Exposed for tests.
    pub fn accounting_discrepancy(&self) -> i64 {
        let attributed = self.cache.len() + self.anon.total_pages();
        self.used_pages as i64 - attributed as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_storage::SsdModel;

    fn kernel() -> HostKernel {
        let disk = Disk::new(Box::new(SsdModel::micron_5300()));
        HostKernel::new(disk, KernelConfig::default())
    }

    #[test]
    fn miss_then_hit() {
        let mut k = kernel();
        let f = k.disk_mut().create_file("snap", 1024).unwrap();
        let miss = k.read_file_page(SimTime::ZERO, f, 10).unwrap();
        assert!(!miss.hit);
        assert!(miss.ready_at > SimTime::ZERO);
        let hit = k.read_file_page(miss.ready_at, f, 10).unwrap();
        assert!(hit.hit);
        assert_eq!(hit.ready_at, miss.ready_at);
    }

    #[test]
    fn readahead_window_ramps_on_sequential_misses() {
        let mut k = kernel();
        k.install_tracer(&Tracer::noop());
        let f = k.disk_mut().create_file("snap", 1024).unwrap();
        // Random miss: initial window (8 pages): 10..18 in flight.
        k.read_file_page(SimTime::ZERO, f, 10).unwrap();
        assert!(k.page_state(f, 17).is_some());
        assert!(k.page_state(f, 18).is_none());
        assert_eq!(k.tracer().counter("mem.cache.inserts"), 8);
        // Sequential follow-up miss at the window edge: doubles to 16.
        k.read_file_page(SimTime::from_millis(1), f, 18).unwrap();
        assert!(k.page_state(f, 33).is_some());
        assert!(k.page_state(f, 34).is_none());
        // Next sequential miss: doubles to 32 (the 128 KiB cap)…
        k.read_file_page(SimTime::from_millis(2), f, 34).unwrap();
        assert!(k.page_state(f, 65).is_some());
        // …and never beyond the cap.
        k.read_file_page(SimTime::from_millis(3), f, 66).unwrap();
        assert!(k.page_state(f, 97).is_some());
        assert!(k.page_state(f, 98).is_none());
        // A random miss resets the ramp.
        k.read_file_page(SimTime::from_millis(4), f, 500).unwrap();
        assert!(k.page_state(f, 507).is_some());
        assert!(k.page_state(f, 508).is_none());
    }

    #[test]
    fn cache_budget_reclaims_lru_as_pressure_evictions() {
        let disk = Disk::new(Box::new(SsdModel::micron_5300()));
        let config = KernelConfig {
            page_cache_budget_pages: Some(16),
            ..KernelConfig::default()
        };
        let mut k = HostKernel::new(disk, config);
        k.install_tracer(&Tracer::noop());
        let f = k.disk_mut().create_file("snap", 1024).unwrap();
        let mut t = SimTime::ZERO;
        for page in 0..512 {
            // Sequential stream with each read landing before the
            // next: touched pages go resident and become
            // reclaimable, so the budget bites on later inserts.
            t = k.read_file_page(t, f, page).unwrap().ready_at;
        }
        assert!(
            k.tracer().counter("mem.cache.pressure_evictions") > 0,
            "a 16-page budget must reclaim under a multi-window read stream"
        );
        assert!(
            k.cache().len() < 64,
            "cache stayed near the budget, got {} pages",
            k.cache().len()
        );
        assert_eq!(k.accounting_discrepancy(), 0);
    }

    #[test]
    fn readahead_disabled_pulls_single_page() {
        let mut k = kernel();
        k.install_tracer(&Tracer::noop());
        k.set_readahead(false);
        let f = k.disk_mut().create_file("snap", 1024).unwrap();
        k.read_file_page(SimTime::ZERO, f, 10).unwrap();
        assert!(k.page_state(f, 10).is_some());
        assert!(k.page_state(f, 11).is_none());
        assert_eq!(k.tracer().counter("mem.cache.inserts"), 1);
    }

    #[test]
    fn window_clips_at_eof() {
        let mut k = kernel();
        k.install_tracer(&Tracer::noop());
        let f = k.disk_mut().create_file("snap", 14).unwrap();
        k.read_file_page(SimTime::ZERO, f, 10).unwrap();
        assert!(k.page_state(f, 13).is_some());
        assert_eq!(k.tracer().counter("mem.cache.inserts"), 4);
    }

    #[test]
    fn in_flight_pages_become_resident_over_time() {
        let mut k = kernel();
        let f = k.disk_mut().create_file("snap", 64).unwrap();
        let out = k.read_file_page(SimTime::ZERO, f, 0).unwrap();
        assert!(matches!(
            k.page_state(f, 0),
            Some(PageState::InFlight { .. })
        ));
        let res = k.mincore(out.ready_at, f, 0, 1);
        assert!(res[0]);
        assert!(matches!(k.page_state(f, 0), Some(PageState::Resident)));
    }

    #[test]
    fn mincore_matches_cache_contents() {
        let mut k = kernel();
        let f = k.disk_mut().create_file("snap", 64).unwrap();
        k.set_readahead(false);
        let a = k.read_file_page(SimTime::ZERO, f, 3).unwrap();
        let b = k.read_file_page(a.ready_at, f, 7).unwrap();
        let residency = k.mincore(b.ready_at, f, 0, 10);
        let expect: Vec<bool> = (0..10).map(|p| p == 3 || p == 7).collect();
        assert_eq!(residency, expect);
    }

    #[test]
    fn ra_unbounded_skips_cached_pages() {
        let mut k = kernel();
        k.set_readahead(false);
        let f = k.disk_mut().create_file("snap", 128).unwrap();
        let first = k.read_file_page(SimTime::ZERO, f, 5).unwrap();
        let before = k.disk().read_requests();
        // Range covering the cached page 5: two runs [0,5) and [6,16).
        k.ra_unbounded(first.ready_at, f, 0, 16).unwrap();
        let after = k.disk().read_requests();
        assert_eq!(after - before, 2, "cached page must split the range");
        assert_eq!(k.cache().len(), 16);
    }

    #[test]
    fn accounting_invariant_holds() {
        let mut k = kernel();
        let f = k.disk_mut().create_file("snap", 256).unwrap();
        k.read_file_page(SimTime::ZERO, f, 0).unwrap();
        let owner = OwnerId::new(1);
        k.alloc_anon_page(owner).unwrap();
        k.alloc_anon_page(owner).unwrap();
        assert_eq!(k.accounting_discrepancy(), 0);
        let snap = k.memory_snapshot();
        assert_eq!(snap.page_cache_pages, 8);
        assert_eq!(snap.anon_pages, 2);
        assert_eq!(k.release_owner(owner), 2);
        assert_eq!(k.accounting_discrepancy(), 0);
        k.drop_file_cache(f).unwrap();
        assert_eq!(k.memory_snapshot().total_pages(), 0);
        assert_eq!(k.accounting_discrepancy(), 0);
    }

    #[test]
    fn map_load_cost_scales_with_entries() {
        let mut k = kernel();
        let m = k.create_map(MapDef::array(8, 8192)).unwrap();
        let entries: Vec<u64> = (0..4096).collect();
        let cost = k.load_map_from_user(m, 0, &entries).unwrap();
        // One map-update syscall per entry: a few thousand entries
        // land in the paper's ~1–2 ms range.
        assert_eq!(cost, k.config().map_load_per_entry * 4096);
        assert!(cost >= SimDuration::from_millis(1));
        assert!(cost <= SimDuration::from_millis(4));
        assert_eq!(k.maps().array_load_u64(m, 4095).unwrap(), 4095);
    }

    #[test]
    fn capture_program_records_offsets() {
        use snapbpf_ebpf::{AccessSize, HelperId, JmpCond, ProgramBuilder, Reg};

        let mut k = kernel();
        k.set_readahead(false);
        let f = k.disk_mut().create_file("snap", 4096).unwrap();
        let other = k.disk_mut().create_file("other", 64).unwrap();
        let wset = k.create_map(MapDef::array(8, 128)).unwrap();

        // Minimal capture program: if ctx.file == f { wset[count+1] =
        // ctx.page; wset[0] = count + 1 } (bounds-checked).
        let mut b = ProgramBuilder::new("capture");
        let out = b.label();
        let full = b.label();
        b.load_ctx(Reg::R6, 0)
            .jump_if(JmpCond::Ne, Reg::R6, f.as_u32() as i64, out)
            .load_ctx(Reg::R7, 1)
            // count = wset[0]
            .store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, wset)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .mov(Reg::R8, Reg::R0)
            .load(Reg::R9, Reg::R8, 0, AccessSize::B8)
            .jump_if(JmpCond::Ge, Reg::R9, 126i64, full)
            // wset[count + 1] = page
            .mov(Reg::R3, Reg::R9)
            .add(Reg::R3, 1)
            .alu32(snapbpf_ebpf::AluOp::Mov, Reg::R3, Reg::R3)
            .store(Reg::R10, -12, Reg::R3, AccessSize::B4)
            .load_map(Reg::R1, wset)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -12)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .store(Reg::R0, 0, Reg::R7, AccessSize::B8)
            // wset[0] = count + 1
            .add(Reg::R9, 1)
            .store(Reg::R8, 0, Reg::R9, AccessSize::B8)
            .bind(full)
            .unwrap()
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();

        k.load_and_attach(PAGE_CACHE_ADD_HOOK, &b.build().unwrap())
            .unwrap();

        // Touch three snapshot pages and one page of another file.
        let mut t = SimTime::ZERO;
        for page in [100u64, 7, 2048] {
            t = k.read_file_page(t, f, page).unwrap().ready_at;
        }
        k.read_file_page(t, other, 0).unwrap();

        let count = k.maps().array_load_u64(wset, 0).unwrap();
        assert_eq!(count, 3, "only snapshot-file pages are captured");
        let captured: Vec<u64> = (1..=3)
            .map(|i| k.maps().array_load_u64(wset, i).unwrap())
            .collect();
        assert_eq!(captured, vec![100, 7, 2048]);
    }

    #[test]
    fn telemetry_drains_at_event_loop_boundaries() {
        let mut k = kernel();
        let tracer = Tracer::noop();
        k.install_tracer(&tracer);
        let f = k.disk_mut().create_file("snap", 64).unwrap();
        let ring = k.create_map(snapbpf_ebpf::telemetry_ring_def()).unwrap();
        let stats = k.create_map(snapbpf_ebpf::telemetry_stats_def()).unwrap();
        k.register_telemetry(ring, stats, "image");
        k.set_smp_processor_id(2);
        assert_eq!(k.smp_processor_id(), 2);

        // Pretend a program reported: 5 issues, one completion record.
        k.maps_mut().array_store_u64(stats, 0, 5).unwrap();
        let rec = snapbpf_ebpf::TelemetryRecord::PrefetchCompleted {
            now_ns: 10,
            groups: 5,
            pages: 40,
        };
        k.maps_mut().ring_push(ring, &rec.encode()).unwrap();

        // A demand read ends with a prefetch-queue drain — the
        // event-loop boundary where telemetry reaches the tracer.
        k.read_file_page(SimTime::ZERO, f, 0).unwrap();
        assert_eq!(tracer.counter("ebpf.telemetry.issued"), 5);
        assert_eq!(tracer.counter("ebpf.telemetry.completions"), 1);
        assert_eq!(tracer.counter("ebpf.ring.drops"), 0);
        let series = tracer.series_snapshot();
        assert_eq!(
            series.get("ebpf.prefetch.groups", "image").unwrap()[&0].sum(),
            5.0
        );

        // Unregistered: later boundaries stop reporting.
        k.unregister_telemetry();
        k.maps_mut().array_store_u64(stats, 0, 9).unwrap();
        k.read_file_page(SimTime::from_millis(5), f, 32).unwrap();
        assert_eq!(tracer.counter("ebpf.telemetry.issued"), 5);
    }

    #[test]
    fn prefetch_kfunc_cascade() {
        use snapbpf_ebpf::{AccessSize, HelperId, JmpCond, ProgramBuilder, Reg};

        let mut k = kernel();
        k.install_tracer(&Tracer::noop());
        k.set_readahead(false);
        let f = k.disk_mut().create_file("snap", 4096).unwrap();

        // groups map layout: [0]=ngroups, [1]=cursor, then (start,
        // len) pairs.
        let groups = k.create_map(MapDef::array(8, 64)).unwrap();
        k.maps_mut().array_store_u64(groups, 0, 3).unwrap();
        k.maps_mut().array_store_u64(groups, 1, 0).unwrap();
        for (i, (start, len)) in [(100u64, 8u64), (500, 4), (900, 2)].iter().enumerate() {
            k.maps_mut()
                .array_store_u64(groups, 2 + 2 * i as u32, *start)
                .unwrap();
            k.maps_mut()
                .array_store_u64(groups, 3 + 2 * i as u32, *len)
                .unwrap();
        }

        // Prefetch program: on each hook fire, issue the next group;
        // request self-disable after the last one.
        let mut b = ProgramBuilder::new("prefetch");
        let done = b.label();
        let disable = b.label();
        // Load cursor -> r7 (value ptr kept in r8), ngroups -> r6.
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, groups)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, done)
            .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
            .store_imm(Reg::R10, -4, 1, AccessSize::B4)
            .load_map(Reg::R1, groups)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, done)
            .mov(Reg::R8, Reg::R0)
            .load(Reg::R7, Reg::R8, 0, AccessSize::B8)
            .jump_if(JmpCond::Ge, Reg::R7, Reg::R6, disable)
            // start -> stash at fp-24
            .mov(Reg::R9, Reg::R7)
            .mul(Reg::R9, 2)
            .add(Reg::R9, 2)
            .store(Reg::R10, -12, Reg::R9, AccessSize::B4)
            .load_map(Reg::R1, groups)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -12)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, done)
            .load(Reg::R2, Reg::R0, 0, AccessSize::B8)
            .store(Reg::R10, -24, Reg::R2, AccessSize::B8)
            // len -> stash at fp-32
            .mov(Reg::R9, Reg::R7)
            .mul(Reg::R9, 2)
            .add(Reg::R9, 3)
            .store(Reg::R10, -12, Reg::R9, AccessSize::B4)
            .load_map(Reg::R1, groups)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -12)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, done)
            .load(Reg::R2, Reg::R0, 0, AccessSize::B8)
            .store(Reg::R10, -32, Reg::R2, AccessSize::B8)
            // cursor += 1 (through the stashed value pointer in r8)
            .mov(Reg::R9, Reg::R7)
            .add(Reg::R9, 1)
            .store(Reg::R8, 0, Reg::R9, AccessSize::B8)
            // snapbpf_prefetch(file, start, len)
            .mov(Reg::R1, f.as_u32() as i64)
            .load(Reg::R2, Reg::R10, -24, AccessSize::B8)
            .load(Reg::R3, Reg::R10, -32, AccessSize::B8)
            .call_kfunc(KFUNC_SNAPBPF_PREFETCH)
            .mov(Reg::R0, 0)
            .exit()
            .bind(disable)
            .unwrap()
            .mov(Reg::R0, PROG_RET_DISABLE as i64)
            .exit()
            .bind(done)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();

        let probe = k
            .load_and_attach(PAGE_CACHE_ADD_HOOK, &b.build().unwrap())
            .unwrap();

        // Trigger by touching page 0 (paper step ②).
        k.trigger_access(SimTime::ZERO, f, 0).unwrap();

        // The cascade must have prefetched all three groups.
        for (start, len) in [(100u64, 8u64), (500, 4), (900, 2)] {
            for p in start..start + len {
                assert!(k.page_state(f, p).is_some(), "page {p} not prefetched");
            }
        }
        assert_eq!(k.maps().array_load_u64(groups, 1).unwrap(), 3);
        // And the program disabled itself after the last group.
        assert!(!k.probe_enabled(probe));
        assert_eq!(k.tracer().counter("ebpf.prog.self_disables"), 1);
        assert_eq!(k.tracer().counter("ebpf.prefetch.ranges"), 3);
        assert!(k.ebpf_cpu() > SimDuration::ZERO);
    }
}
