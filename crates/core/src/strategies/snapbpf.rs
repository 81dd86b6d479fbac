//! SnapBPF — the paper's contribution (§3).
//!
//! * **record** — attach the eBPF *capture* program to the
//!   `add_to_page_cache_lru` kprobe, disable kernel readahead (so
//!   only truly-accessed pages are captured), run one invocation
//!   with the PV-patched guest (allocations never touch the page
//!   cache, so they never pollute the working set), read the
//!   `(offset, first-access-time)` samples back from the map, group
//!   them into contiguous ranges sorted by earliest access, and
//!   write the **offsets metadata file** — 16 bytes per range, not
//!   the pages themselves.
//! * **restore** — load the grouped offsets into an eBPF map
//!   (charged as the paper's §4 offset-loading overhead), attach the
//!   *prefetch* program to the same kprobe, and touch the first page
//!   of the snapshot to kick it off: a single verified bounded-loop
//!   invocation issues every range and disables itself (the 5.3
//!   verifier's range analysis proves the loop safe). The program is
//!   built once per recording, at its first restore; later restores
//!   relocate its map references onto their own maps, as a loader
//!   relocates a compiled object.
//!   Pages land directly in the shared page cache — no working-set
//!   file, no userspace copies, natural cross-sandbox deduplication.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use snapbpf_ebpf::Program;
use snapbpf_kernel::{CowPolicy, HostKernel, PAGE_CACHE_ADD_HOOK};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{SimTime, PAGE_SIZE};
use snapbpf_storage::{FileId, IoPath};
use snapbpf_vmm::{run_invocation, MicroVm, NoUffd, Snapshot};

use crate::programs::{
    build_capture_program, build_prefetch_program_telemetry, groups_map_def, groups_map_image,
    read_captured_samples, relocate_prefetch_program, wset_map_def,
};
use crate::restore::{RestoreCursor, RestoreOps, RestoreStage, StepOutcome};
use crate::strategy::{Capabilities, FunctionCtx, Strategy, StrategyError};
use crate::wset::{decode_groups, encode_groups, group_offsets, total_pages, WsGroup};

/// The SnapBPF strategy, with its two mechanisms independently
/// switchable (Figure 4's breakdown) and the KVM CoW patch
/// toggleable (ablation A3).
#[derive(Debug)]
pub struct SnapBpf {
    ebpf_prefetch: bool,
    pv_pte: bool,
    cow_policy: CowPolicy,
    group_contiguous: bool,
    sort_by_access: bool,
    groups: Arc<[WsGroup]>,
    offsets_file: Option<FileId>,
    /// The recording's prefetch program.
    prefetch: PrefetchSlot,
}

/// A recording's prefetch program: empty until the recording's first
/// restore builds it, then relocated by every restore. Each `record`
/// starts a new slot, so a restore still in flight from an earlier
/// recording never hands its program to a later one.
type PrefetchSlot = Rc<RefCell<Option<Program>>>;

/// A copy restores on its own: it gets a new prefetch slot holding a
/// copy of this one's program, so neither ever builds or relocates
/// the other's.
impl Clone for SnapBpf {
    fn clone(&self) -> Self {
        SnapBpf {
            ebpf_prefetch: self.ebpf_prefetch,
            pv_pte: self.pv_pte,
            cow_policy: self.cow_policy,
            group_contiguous: self.group_contiguous,
            sort_by_access: self.sort_by_access,
            groups: Arc::clone(&self.groups),
            offsets_file: self.offsets_file,
            prefetch: Rc::new(RefCell::new(self.prefetch.borrow().clone())),
        }
    }
}

impl SnapBpf {
    /// Full SnapBPF: eBPF prefetch + PV PTE marking, patched KVM.
    pub fn full() -> Self {
        SnapBpf::with_flags(true, true, CowPolicy::Opportunistic)
    }

    /// Only PV PTE marking (Figure 4's "PVPTEs" bar).
    pub fn pv_only() -> Self {
        SnapBpf::with_flags(false, true, CowPolicy::Opportunistic)
    }

    /// Only the eBPF prefetcher (no guest PV patch).
    pub fn ebpf_only() -> Self {
        SnapBpf::with_flags(true, false, CowPolicy::Opportunistic)
    }

    /// Full SnapBPF on an unpatched KVM that forcibly write-maps
    /// read faults — reproduces the CoW misbehaviour the paper
    /// found and patched (§4, "Memory").
    pub fn with_buggy_cow() -> Self {
        SnapBpf::with_flags(true, true, CowPolicy::ForcedWrite)
    }

    /// Explicit flag combination.
    pub fn with_flags(ebpf_prefetch: bool, pv_pte: bool, cow_policy: CowPolicy) -> Self {
        SnapBpf {
            ebpf_prefetch,
            pv_pte,
            cow_policy,
            group_contiguous: true,
            sort_by_access: true,
            groups: Arc::from([]),
            offsets_file: None,
            prefetch: PrefetchSlot::default(),
        }
    }

    /// Ablation A4 knobs: disable contiguous-range grouping (one
    /// range per page) and/or earliest-access sorting (file order
    /// instead). The paper's design uses both (§3.1).
    #[must_use]
    pub fn with_layout(mut self, group_contiguous: bool, sort_by_access: bool) -> Self {
        self.group_contiguous = group_contiguous;
        self.sort_by_access = sort_by_access;
        self
    }

    /// Captured working-set groups (empty before recording).
    pub fn groups(&self) -> &[WsGroup] {
        &self.groups
    }

    /// Captured working-set size in pages.
    pub fn ws_pages(&self) -> u64 {
        total_pages(&self.groups)
    }
}

impl Strategy for SnapBpf {
    fn name(&self) -> &'static str {
        if self.ebpf_prefetch && self.pv_pte {
            "SnapBPF"
        } else if self.pv_pte {
            "PVPTEs"
        } else {
            "SnapBPF-eBPF-only"
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            mechanism: "eBPF (kernel-space)",
            on_disk_ws_serialization: false,
            in_memory_ws_dedup: true,
            stateless_vm_allocation_filtering: true,
        }
    }

    fn record(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
    ) -> Result<SimTime, StrategyError> {
        let snap_file = func.snapshot.memory_file();
        let pages = func.snapshot.memory_pages();

        // Capture setup: kprobe + capture program, readahead off
        // (paper §3.1: "we disable readahead in order to only fetch
        // and capture the working set pages in this phase").
        host.set_readahead(false);
        let max_samples = u32::try_from(pages).unwrap_or(u32::MAX);
        let wset_map = host.create_map(wset_map_def(max_samples))?;
        let capture = build_capture_program(snap_file, wset_map, max_samples);
        let probe = host.load_and_attach(PAGE_CACHE_ADD_HOOK, &capture)?;

        // Recording invocation with the PV-patched guest, so
        // allocations never pollute the capture.
        let mut vm = MicroVm::restore(
            OwnerId::new(u32::MAX),
            &func.snapshot,
            self.cow_policy,
            self.pv_pte,
        );
        let trace = func.workload.trace();
        let result = run_invocation(
            now + Snapshot::restore_overhead(),
            &mut vm,
            &trace,
            host,
            &mut NoUffd,
        )?;
        vm.kvm_mut().teardown(host)?;
        host.detach(probe)?;
        host.set_readahead(true);

        // Userspace: read the samples, group + sort, store offsets.
        let samples = read_captured_samples(host.maps(), wset_map)
            .map_err(snapbpf_kernel::KernelError::Map)?;
        let mut groups = group_offsets(&samples);
        if !self.group_contiguous {
            groups = groups
                .iter()
                .flat_map(|g| {
                    (g.start..g.end()).map(|p| WsGroup {
                        start: p,
                        len: 1,
                        earliest_ns: g.earliest_ns,
                    })
                })
                .collect();
        }
        if !self.sort_by_access {
            groups.sort_by_key(|g| g.start);
        }
        self.groups = groups.into();
        self.prefetch = PrefetchSlot::default();

        let bytes = encode_groups(&self.groups);
        let file_pages = (bytes.len() as u64).div_ceil(PAGE_SIZE).max(1);
        let name = format!("{}.snapbpf.offsets", func.workload.name());
        let offsets_file = host.disk_mut().create_file(&name, file_pages)?;
        let done = host.disk_mut().write_file_pages(
            result.end_time,
            offsets_file,
            0,
            file_pages,
            IoPath::Buffered,
        )?;
        self.offsets_file = Some(offsets_file);

        // Round-trip through the on-disk encoding, as the real
        // system would at the next restore.
        debug_assert_eq!(
            decode_groups(&bytes).map(|g| g.len()),
            Some(self.groups.len())
        );
        Ok(done.done_at)
    }

    fn begin_restore(
        &mut self,
        now: SimTime,
        _host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoreCursor, StrategyError> {
        let offsets_file = if self.ebpf_prefetch {
            Some(self.offsets_file.ok_or(StrategyError::NotRecorded {
                strategy: "SnapBPF",
            })?)
        } else {
            None
        };
        Ok(RestoreCursor::new(
            now,
            Box::new(SnapBpfRestore {
                offsets_file,
                groups: Arc::clone(&self.groups),
                prefetch: Rc::clone(&self.prefetch),
                function: func.workload.name().to_owned(),
                snapshot: func.snapshot.clone(),
                cow_policy: self.cow_policy,
                pv_pte: self.pv_pte,
                owner,
                map: None,
                vm: None,
            }),
        ))
    }

    fn boxed_clone(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }
}

/// SnapBPF's restore state machine — the paper's §3.2 sequence:
/// offsets-map load, eBPF prefetch kick-off, immediate resume with
/// demand paging. Nothing runs in userspace after the kick-off: one
/// looped prefetch invocation issues every range inside the kernel,
/// so every stage here is on the (short) critical path and the
/// cursor never has background work.
struct SnapBpfRestore {
    /// `Some` when the eBPF prefetcher is enabled (already validated
    /// as recorded).
    offsets_file: Option<FileId>,
    /// The recording's groups, shared with the strategy.
    groups: Arc<[WsGroup]>,
    /// The recording's prefetch program, shared with the strategy.
    prefetch: PrefetchSlot,
    /// Function name telemetry series are attributed to.
    function: String,
    snapshot: Snapshot,
    cow_policy: CowPolicy,
    pv_pte: bool,
    owner: OwnerId,
    /// The groups map, created by `MetadataLoad` for `PrefetchIssue`.
    map: Option<snapbpf_ebpf::MapId>,
    vm: Option<MicroVm>,
}

impl RestoreOps for SnapBpfRestore {
    fn exec(
        &mut self,
        stage: RestoreStage,
        now: SimTime,
        host: &mut HostKernel,
    ) -> Result<StepOutcome, StrategyError> {
        let snap_file = self.snapshot.memory_file();
        Ok(match stage {
            RestoreStage::MetadataLoad => {
                host.set_readahead(true);
                let Some(offsets_file) = self.offsets_file else {
                    return Ok(StepOutcome::done(now));
                };
                // Read the grouped offsets from disk and load them
                // into the kernel via the eBPF map.
                let file_pages = host.disk().file_pages(offsets_file)?;
                let read = host.disk_mut().read_file_pages(
                    now,
                    offsets_file,
                    0,
                    file_pages,
                    IoPath::Buffered,
                )?;
                let map = host.create_map(groups_map_def(self.groups.len() as u32))?;
                let image = groups_map_image(&self.groups);
                let offset_load = host.load_map_from_user(map, 0, &image)?;
                self.map = Some(map);
                StepOutcome::done(read.done_at + offset_load).with_offset_load(offset_load)
            }
            RestoreStage::PrefetchIssue => {
                let Some(map) = self.map else {
                    return Ok(StepOutcome::done(now));
                };
                // Attach the looped prefetch program and trigger it
                // by touching the first page of the snapshot; one
                // in-kernel invocation issues every group, reporting
                // each range over the telemetry ring and per-CPU
                // stats map, which the kernel drains at the end of
                // the cascade.
                let ring = host.create_map(snapbpf_ebpf::telemetry_ring_def())?;
                let stats = host.create_map(snapbpf_ebpf::telemetry_stats_def())?;
                host.register_telemetry(ring, stats, &self.function);
                {
                    let mut slot = self.prefetch.borrow_mut();
                    let program = match slot.as_mut() {
                        Some(program) => {
                            relocate_prefetch_program(program, map, ring, stats);
                            program
                        }
                        None => slot.insert(build_prefetch_program_telemetry(
                            snap_file,
                            map,
                            self.groups.len() as u32,
                            ring,
                            stats,
                        )),
                    };
                    host.load_and_attach(PAGE_CACHE_ADD_HOOK, program)?;
                }
                host.trigger_access(now, snap_file, 0)?;
                StepOutcome::done(now)
            }
            RestoreStage::OverlaySetup => {
                self.vm = Some(MicroVm::restore(
                    self.owner,
                    &self.snapshot,
                    self.cow_policy,
                    self.pv_pte,
                ));
                StepOutcome::done(now)
            }
            RestoreStage::Resume => StepOutcome::done(now + Snapshot::restore_overhead()).with_vm(
                self.vm.take().expect("overlay stage built the VM"),
                Box::new(NoUffd),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_env;
    use snapbpf_mem::PageState;
    use snapbpf_sim::SimDuration;

    #[test]
    fn record_captures_exact_working_set() {
        let (mut host, func) = test_env("json", 0.05);
        let mut sb = SnapBpf::full();
        sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        let trace = func.workload.trace();
        // The capture equals the true WS — no ephemeral pollution
        // (PV marking), no readahead overshoot (RA disabled).
        assert_eq!(sb.ws_pages() as usize, trace.ws_page_list().len());
        // Groups are sorted by access order, not file order.
        let starts: Vec<u64> = sb.groups().iter().map(|g| g.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_ne!(starts, sorted, "groups should be in access order");
        // The offsets file exists and is tiny (metadata, not pages).
        let f = host
            .disk()
            .file_by_name(&format!("{}.snapbpf.offsets", func.workload.name()))
            .unwrap();
        assert!(host.disk().file_pages(f).unwrap() * PAGE_SIZE <= sb.ws_pages() * 16 + PAGE_SIZE);
    }

    #[test]
    fn snapbpf_ws_is_lean_like_reap_but_without_ephemeral() {
        let (mut host, func) = test_env("image", 0.05);
        let mut sb = SnapBpf::full();
        sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        let trace = func.workload.trace();
        assert_eq!(sb.ws_pages() as usize, trace.ws_page_list().len());

        // FaaSnap's WS for the same function is inflated.
        let (mut host2, func2) = test_env("image", 0.05);
        let mut fs = crate::strategies::Faasnap::new();
        fs.record(SimTime::ZERO, &mut host2, &func2).unwrap();
        assert!(fs.ws_file_pages() > sb.ws_pages());
    }

    #[test]
    fn restore_prefetches_into_shared_page_cache() {
        let (mut host, func) = test_env("json", 0.05);
        let mut sb = SnapBpf::full();
        let t0 = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let restored = sb.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        assert!(restored.offset_load_cost > SimDuration::ZERO);

        // Every captured group is now cached (in flight or resident).
        let snap_file = func.snapshot.memory_file();
        for g in sb.groups() {
            for p in g.start..g.end() {
                assert!(
                    host.page_state(snap_file, p).is_some(),
                    "group page {p} not prefetched"
                );
            }
        }
        // And no working-set file was ever created.
        assert!(host
            .disk()
            .file_by_name(&format!("{}.snapbpf.ws", func.workload.name()))
            .is_none());
    }

    #[test]
    fn restore_reports_telemetry_through_the_kernel_ring() {
        let (mut host, func) = test_env("json", 0.05);
        let tracer = snapbpf_sim::Tracer::noop();
        host.install_tracer(&tracer);
        let mut sb = SnapBpf::full();
        let t0 = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();
        sb.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();

        // The prefetch program reported every group over the ring /
        // stats pair, and the drain folded them into the tracer.
        assert_eq!(
            tracer.counter("ebpf.telemetry.issued"),
            sb.groups().len() as u64
        );
        assert_eq!(tracer.counter("ebpf.telemetry.pages"), sb.ws_pages());
        assert_eq!(tracer.counter("ebpf.telemetry.completions"), 1);
        assert_eq!(tracer.counter("ebpf.ring.drops"), 0, "default ring sizing");
        let series = tracer.series_snapshot();
        let bins = series.get("ebpf.prefetch.pages", "json").unwrap();
        let total: f64 = bins.values().map(|b| b.sum()).sum();
        assert_eq!(total, sb.ws_pages() as f64);
    }

    /// The groups, ring and stats maps the latest restore created:
    /// the last three of the host's maps.
    fn last_restore_maps(host: &HostKernel) -> [snapbpf_ebpf::MapId; 3] {
        let n = host.maps().len() as u32;
        [n - 3, n - 2, n - 1].map(snapbpf_ebpf::MapId::from_raw)
    }

    #[test]
    fn restores_relocate_the_recordings_prefetch_program() {
        let mut sb = SnapBpf::full();
        let mut counts = Vec::new();
        // Each recording on its own host: one host holds one offsets
        // file per function.
        for group_contiguous in [true, false] {
            let (mut host, func) = test_env("json", 0.05);
            let snap_file = func.snapshot.memory_file();
            sb.group_contiguous = group_contiguous;
            let mut t = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
            counts.push(sb.groups().len());
            assert!(sb.prefetch.borrow().is_none(), "record builds nothing");
            for owner in 0..3 {
                host.drop_all_caches().unwrap();
                let restored = sb
                    .restore(t, &mut host, &func, OwnerId::new(owner))
                    .unwrap();
                t = restored.ready_at;
                let [groups, ring, stats] = last_restore_maps(&host);
                let fresh = build_prefetch_program_telemetry(
                    snap_file,
                    groups,
                    sb.groups().len() as u32,
                    ring,
                    stats,
                );
                assert_eq!(sb.prefetch.borrow().as_ref(), Some(&fresh));
            }
        }
        assert!(counts[0] < counts[1], "the re-record changed the clamp");
    }

    #[test]
    fn invocation_after_prefetch_sees_mostly_minor_faults() {
        let (mut host, func) = test_env("json", 0.05);
        let mut sb = SnapBpf::full();
        let t0 = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let mut restored = sb.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        let trace = func.workload.trace();
        let r = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .unwrap();
        assert!(
            r.stats.minor_faults > r.stats.major_faults,
            "prefetch should turn majors into minors ({} vs {})",
            r.stats.minor_faults,
            r.stats.major_faults
        );
        assert!(r.stats.pv_anon_faults > 0, "PV marking active");
    }

    #[test]
    fn pv_only_variant_skips_prefetch() {
        let (mut host, func) = test_env("json", 0.05);
        let mut sb = SnapBpf::pv_only();
        let t0 = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();
        let restored = sb.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        assert_eq!(restored.offset_load_cost, SimDuration::ZERO);
        // Nothing was prefetched.
        let snap_file = func.snapshot.memory_file();
        let cached = sb
            .groups()
            .iter()
            .flat_map(|g| g.start..g.end())
            .filter(|&p| {
                matches!(
                    host.page_state(snap_file, p),
                    Some(PageState::Resident) | Some(PageState::InFlight { .. })
                )
            })
            .count();
        assert_eq!(cached, 0);
    }

    #[test]
    fn offset_load_cost_is_small_fraction_of_e2e() {
        let (mut host, func) = test_env("cnn", 0.1);
        let mut sb = SnapBpf::full();
        let t0 = sb.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();
        let mut restored = sb.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        let trace = func.workload.trace();
        let r = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .unwrap();
        let frac = restored.offset_load_cost.ratio(r.e2e_latency);
        assert!(frac < 0.05, "offset load {frac} of E2E");
    }
}
