//! FaaSnap (EuroSys '22).
//!
//! Page-cache-based capture and prefetch:
//!
//! * **record** — run one invocation with vanilla demand paging,
//!   then use `mincore(2)` to learn which snapshot pages became
//!   resident; that resident set is the working set. Regions
//!   separated by small gaps are **coalesced** (fewer mmaps, but the
//!   gap pages inflate the working-set file — the I/O amplification
//!   the paper verifies with eBPF instrumentation, §2.1). The
//!   coalesced regions' pages are serialized to a working-set file.
//!   A separate **zero-page scan** over the whole snapshot finds
//!   pages the (patched) guest zeroed on free; they map to
//!   anonymous memory.
//! * **restore** — the working-set file is mmap'd over the snapshot
//!   region by region, and a userspace prefetch thread issues
//!   sequential *buffered* reads to pull it into the page cache —
//!   which is why FaaSnap, unlike REAP, deduplicates across
//!   sandboxes, while still paying a userspace copy per page.

use snapbpf_kernel::{CowPolicy, HostKernel};
use snapbpf_mem::OwnerId;
use snapbpf_sim::SimTime;
use snapbpf_storage::{FileId, IoPath};
use snapbpf_vmm::{run_invocation, MicroVm, NoUffd, Snapshot};

use crate::restore::{RestoreCursor, RestoreOps, RestoreStage, StepOutcome};
use crate::strategies::faast::allocator_free_region;
use crate::strategies::reap::write_ws_file;
use crate::strategy::{Capabilities, FunctionCtx, Strategy, StrategyError};
use crate::wset::{coalesce_regions, total_pages, WsGroup};

/// Default coalescing gap, in pages: regions closer than this merge.
pub const DEFAULT_COALESCE_GAP: u64 = 32;

/// Pages per prefetch-thread buffered read.
const PREFETCH_CHUNK_PAGES: u64 = 256;

/// The FaaSnap strategy.
#[derive(Debug, Clone)]
pub struct Faasnap {
    coalesce_gap: u64,
    regions: Vec<WsGroup>,
    ws_file: Option<FileId>,
}

impl Faasnap {
    /// Creates FaaSnap with the default coalescing gap.
    pub fn new() -> Self {
        Faasnap::with_gap(DEFAULT_COALESCE_GAP)
    }

    /// Creates FaaSnap with an explicit coalescing gap (ablation A1).
    pub fn with_gap(coalesce_gap: u64) -> Self {
        Faasnap {
            coalesce_gap,
            regions: Vec::new(),
            ws_file: None,
        }
    }

    /// Number of mmap'd regions after coalescing.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total pages in the (inflated) working-set file.
    pub fn ws_file_pages(&self) -> u64 {
        total_pages(&self.regions)
    }
}

impl Default for Faasnap {
    fn default() -> Self {
        Faasnap::new()
    }
}

impl Strategy for Faasnap {
    fn name(&self) -> &'static str {
        "FaaSnap"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            mechanism: "mincore / mmap (user-space)",
            on_disk_ws_serialization: true,
            in_memory_ws_dedup: true,
            // Zero-page filtering requires the snapshot scan:
            stateless_vm_allocation_filtering: false,
        }
    }

    fn record(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
    ) -> Result<SimTime, StrategyError> {
        let pages = func.snapshot.memory_pages();
        let snap_file = func.snapshot.memory_file();

        // 1. Recording invocation under vanilla demand paging, with
        //    the VMM's first-touch log enabled (FaaSnap instruments
        //    Firecracker to profile the access order, so its WS file
        //    can be laid out in the order pages are needed).
        host.set_readahead(true);
        let mut vm = MicroVm::restore(
            OwnerId::new(u32::MAX),
            &func.snapshot,
            CowPolicy::Opportunistic,
            false,
        );
        vm.kvm_mut().enable_access_log();
        let trace = func.workload.trace();
        let result = run_invocation(
            now + Snapshot::restore_overhead(),
            &mut vm,
            &trace,
            host,
            &mut NoUffd,
        )?;
        let access_order = vm.kvm_mut().take_access_log();
        vm.kvm_mut().teardown(host)?;
        let mut t = result.end_time;

        // 2. mincore over the snapshot: the resident set is the WS.
        let resident = host.mincore(t, snap_file, 0, pages);

        // 3. Zero-page scan: sequential read of the entire snapshot
        //    (the pre-processing cost SnapBPF avoids).
        let mut page = 0;
        while page < pages {
            let n = 1024.min(pages - page);
            let done = host
                .disk_mut()
                .read_file_pages(t, snap_file, page, n, IoPath::Direct)?;
            t = done.done_at;
            page += n;
        }
        let zero_region = allocator_free_region(pages);

        // 4. Group the resident, non-zero pages, coalesce, and order
        //    the regions by first access so the sequentially-read WS
        //    file streams in roughly the order the function consumes
        //    it. Pages resident only through readahead overshoot
        //    never faulted, so they inherit a late rank.
        let rank_of: std::collections::HashMap<u64, u64> = access_order
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as u64))
            .collect();
        let late = access_order.len() as u64;
        let groups: Vec<WsGroup> = {
            let mut gs: Vec<WsGroup> = Vec::new();
            for (p, &res) in resident.iter().enumerate() {
                let p = p as u64;
                if !res || zero_region.contains(&p) {
                    continue;
                }
                let rank = rank_of.get(&p).copied().unwrap_or(late);
                match gs.last_mut() {
                    Some(g) if g.end() == p => {
                        g.len += 1;
                        g.earliest_ns = g.earliest_ns.min(rank);
                    }
                    _ => gs.push(WsGroup {
                        start: p,
                        len: 1,
                        earliest_ns: rank,
                    }),
                }
            }
            gs
        };
        let mut regions = coalesce_regions(&groups, self.coalesce_gap);
        regions.sort_by_key(|g| (g.earliest_ns, g.start));
        self.regions = regions;

        // 5. Serialize the coalesced regions to the ws file.
        let ws_name = format!("{}.faasnap.ws", func.workload.name());
        let (ws_file, t2) = write_ws_file(t, &ws_name, self.ws_file_pages(), host)?;
        self.ws_file = Some(ws_file);
        Ok(t2)
    }

    fn begin_restore(
        &mut self,
        now: SimTime,
        _host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoreCursor, StrategyError> {
        let ws_file = self.ws_file.ok_or(StrategyError::NotRecorded {
            strategy: "FaaSnap",
        })?;
        Ok(RestoreCursor::new(
            now,
            Box::new(FaasnapRestore {
                ws_file,
                regions: self.regions.clone(),
                snapshot: func.snapshot.clone(),
                owner,
                next_off: 0,
                vm: None,
            }),
        ))
    }

    fn boxed_clone(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }
}

/// FaaSnap's restore state machine: mmap the working-set file's
/// regions over the snapshot, then let a userspace prefetch thread
/// stream the file into the page cache in the **background** while
/// the vCPU resumes.
struct FaasnapRestore {
    ws_file: FileId,
    regions: Vec<WsGroup>,
    snapshot: Snapshot,
    owner: OwnerId,
    /// Working-set-file offset of the prefetch thread's next read.
    next_off: u64,
    vm: Option<MicroVm>,
}

impl RestoreOps for FaasnapRestore {
    fn exec(
        &mut self,
        stage: RestoreStage,
        now: SimTime,
        host: &mut HostKernel,
    ) -> Result<StepOutcome, StrategyError> {
        Ok(match stage {
            RestoreStage::MetadataLoad => {
                host.set_readahead(true);
                StepOutcome::done(now)
            }
            RestoreStage::PrefetchIssue => {
                // Prefetch thread: sequential buffered reads of the
                // ws file. Kernel readahead keeps the device
                // streaming ahead of the thread, so at steady state
                // the thread's issue cadence is bounded by its
                // per-page userspace copy (the overhead SnapBPF's
                // in-kernel prefetch avoids); the device model paces
                // the actual data arrivals.
                let total = total_pages(&self.regions);
                if self.next_off >= total {
                    return Ok(StepOutcome::done(now));
                }
                let n = PREFETCH_CHUNK_PAGES.min(total - self.next_off);
                let read = host.ra_unbounded(now, self.ws_file, self.next_off, n)?;
                let issued = now + host.config().page_copy * n;
                self.next_off += n;
                if self.next_off >= total {
                    // The thread is done once its last read's data
                    // has actually arrived, not merely been issued.
                    StepOutcome::background_done(issued.max(read.ready_at))
                } else {
                    StepOutcome::background_pending(issued)
                }
            }
            RestoreStage::OverlaySetup => {
                let mut vm =
                    MicroVm::restore(self.owner, &self.snapshot, CowPolicy::Opportunistic, false);
                // mmap the ws file's regions over the snapshot
                // mapping.
                let mut file_off = 0u64;
                for r in &self.regions {
                    vm.kvm_mut()
                        .add_overlay(r.start, r.len, self.ws_file, file_off);
                    file_off += r.len;
                }
                // Zero pages map to anonymous memory.
                vm.kvm_mut()
                    .add_anon_filter(allocator_free_region(self.snapshot.memory_pages()));
                self.vm = Some(vm);
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

    #[test]
    fn record_builds_inflated_ws_file() {
        let (mut host, func) = test_env("chameleon", 0.05);
        let mut fs = Faasnap::new();
        fs.record(SimTime::ZERO, &mut host, &func).unwrap();
        let trace = func.workload.trace();
        let true_ws = trace.ws_page_list().len() as u64;
        // Coalescing + readahead overshoot inflate the WS file.
        assert!(fs.ws_file_pages() >= true_ws, "ws file must cover the WS");
        assert!(
            fs.ws_file_pages() > true_ws,
            "coalescing should inflate ({} vs {true_ws})",
            fs.ws_file_pages()
        );
        assert!(fs.region_count() > 0);
    }

    #[test]
    fn larger_gap_fewer_regions_more_inflation() {
        let (mut host, func) = test_env("chameleon", 0.05);
        let mut tight = Faasnap::with_gap(0);
        tight.record(SimTime::ZERO, &mut host, &func).unwrap();

        let (mut host2, func2) = test_env("chameleon", 0.05);
        let mut loose = Faasnap::with_gap(2048);
        loose.record(SimTime::ZERO, &mut host2, &func2).unwrap();

        assert!(loose.region_count() < tight.region_count());
        assert!(loose.ws_file_pages() > tight.ws_file_pages());
    }

    #[test]
    fn invocation_shares_ws_file_pages_across_sandboxes() {
        let (mut host, func) = test_env("html", 0.1);
        let mut fs = Faasnap::new();
        let t0 = fs.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let trace = func.workload.trace();
        let mut t = t0;
        for i in 0..2 {
            let mut restored = fs.restore(t, &mut host, &func, OwnerId::new(i)).unwrap();
            let r = run_invocation(
                restored.ready_at,
                &mut restored.vm,
                &trace,
                &mut host,
                restored.resolver.as_mut(),
            )
            .unwrap();
            t = r.end_time;
        }
        // The WS lives once in the page cache; anon is only
        // ephemeral allocations + CoW'd written pages.
        let snap = host.memory_snapshot();
        assert!(snap.page_cache_pages >= fs.ws_file_pages());
        let per_vm_everything =
            trace.ws_page_list().len() as u64 + trace.ephemeral_page_list().len() as u64;
        assert!(
            snap.anon_pages < 2 * per_vm_everything,
            "anon {} must stay below no-dedup level {}",
            snap.anon_pages,
            2 * per_vm_everything
        );
    }

    #[test]
    fn allocations_route_to_anon_without_snapshot_io() {
        let (mut host, func) = test_env("image", 0.05);
        let mut fs = Faasnap::new();
        let t0 = fs.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();
        let tracer_before = host.disk().read_bytes();

        let mut restored = fs.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        let trace = func.workload.trace();
        let r = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .unwrap();
        assert!(r.stats.filtered_anon_faults > 0);
        // Invoke-phase reads stay well below "WS + all allocations".
        let read = host.disk().read_bytes() - tracer_before;
        let everything = (trace.ws_page_list().len() + trace.ephemeral_page_list().len()) as u64
            * snapbpf_sim::PAGE_SIZE;
        assert!(read < everything * 2);
    }

    #[test]
    fn restore_before_record_fails() {
        let (mut host, func) = test_env("json", 0.05);
        assert!(matches!(
            Faasnap::new().restore(SimTime::ZERO, &mut host, &func, OwnerId::new(0)),
            Err(StrategyError::NotRecorded { .. })
        ));
    }
}
