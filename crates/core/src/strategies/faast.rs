//! Faast (HPDC '24).
//!
//! Userfaultfd-based like REAP, with one addition: **allocation
//! filtering from allocator metadata**. Faast scans the guest
//! kernel's allocator metadata inside the snapshot to learn which
//! guest pages were free when the snapshot was taken; faults on
//! those pages are served with zero-filled anonymous memory instead
//! of snapshot bytes, and they are excluded from the serialized
//! working set. The filtering works — but it requires preemptive
//! snapshot scanning/pre-processing (paper §2.2), unlike SnapBPF's
//! online PV PTE marking, and the uffd mechanism still prevents any
//! cross-sandbox deduplication.

use snapbpf_kernel::{CowPolicy, HostKernel};
use snapbpf_mem::{OwnerId, PageSet};
use snapbpf_sim::SimTime;
use snapbpf_storage::{FileId, IoPath};
use snapbpf_vmm::{run_invocation, MicroVm, Snapshot, UffdResolver};

use crate::restore::RestoreCursor;
use crate::strategies::reap::{write_ws_file, UffdRestoreOps};
use crate::strategy::{Capabilities, FunctionCtx, Strategy, StrategyError};

/// Guest pages the allocator metadata marks as free at snapshot
/// time. In the guest memory layout of the workload models, the
/// allocator's free pool (from which invocation-time allocations are
/// served) is the top quarter of guest memory.
pub(crate) fn allocator_free_region(snapshot_pages: u64) -> std::ops::Range<u64> {
    snapshot_pages * 3 / 4..snapshot_pages
}

/// The Faast strategy.
#[derive(Debug, Clone, Default)]
pub struct Faast {
    ws_order: Vec<u64>,
    ws_file: Option<FileId>,
    filtered: PageSet,
}

impl Faast {
    /// Creates an unrecorded Faast instance.
    pub fn new() -> Self {
        Faast::default()
    }

    /// Pages excluded from the working set by the metadata scan.
    pub fn filtered_pages(&self) -> u64 {
        self.filtered.len()
    }

    /// The serialized working-set size in pages.
    pub fn ws_pages(&self) -> u64 {
        self.ws_order.len() as u64
    }
}

/// Record handler that skips filtered pages (they resolve instantly
/// to zero-fill) and logs everything else via direct snapshot reads.
struct FilteringRecorder {
    snapshot: FileId,
    filtered: PageSet,
    log: Vec<u64>,
}

impl UffdResolver for FilteringRecorder {
    fn resolve(
        &mut self,
        now: SimTime,
        gpfn: u64,
        host: &mut HostKernel,
    ) -> Result<SimTime, snapbpf_kernel::KernelError> {
        if self.filtered.contains(gpfn) {
            return Ok(now);
        }
        let done = host
            .disk_mut()
            .read_file_pages(now, self.snapshot, gpfn, 1, IoPath::Direct)?;
        self.log.push(gpfn);
        Ok(done.done_at)
    }
}

impl Strategy for Faast {
    fn name(&self) -> &'static str {
        "Faast"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            mechanism: "Userfaultfd (user-space)",
            on_disk_ws_serialization: true,
            in_memory_ws_dedup: false,
            // Filtering exists but depends on snapshot scanning:
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

        // Pre-processing: scan the snapshot's allocator metadata
        // (page-table and buddy bitmaps — a sliver of the image,
        // read sequentially with direct I/O).
        let meta_pages = (pages / 512).max(1);
        let scan_done = host.disk_mut().read_file_pages(
            now,
            func.snapshot.memory_file(),
            0,
            meta_pages,
            IoPath::Direct,
        )?;
        self.filtered = allocator_free_region(pages).collect();

        // Record invocation, filtering allocator-free pages.
        let mut vm = MicroVm::restore(
            OwnerId::new(u32::MAX),
            &func.snapshot,
            CowPolicy::Opportunistic,
            false,
        );
        vm.kvm_mut().register_uffd(0, pages);
        let mut resolver = FilteringRecorder {
            snapshot: func.snapshot.memory_file(),
            filtered: self.filtered.clone(),
            log: Vec::new(),
        };
        let trace = func.workload.trace();
        let result = run_invocation(
            scan_done.done_at + Snapshot::restore_overhead(),
            &mut vm,
            &trace,
            host,
            &mut resolver,
        )?;
        vm.kvm_mut().teardown(host)?;

        self.ws_order = resolver.log;
        let ws_name = format!("{}.faast.ws", func.workload.name());
        let (ws_file, t1) = write_ws_file(result.end_time, &ws_name, self.ws_pages(), host)?;
        self.ws_file = Some(ws_file);
        Ok(t1)
    }

    fn begin_restore(
        &mut self,
        now: SimTime,
        _host: &mut HostKernel,
        func: &FunctionCtx,
        owner: OwnerId,
    ) -> Result<RestoreCursor, StrategyError> {
        let ws_file = self
            .ws_file
            .ok_or(StrategyError::NotRecorded { strategy: "Faast" })?;
        Ok(RestoreCursor::new(
            now,
            Box::new(UffdRestoreOps::new(
                ws_file,
                self.ws_order.clone(),
                func.snapshot.clone(),
                self.filtered.clone(),
                owner,
            )),
        ))
    }

    fn boxed_clone(&self) -> Box<dyn Strategy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_env;

    #[test]
    fn ws_excludes_allocator_free_pages() {
        let (mut host, func) = test_env("image", 0.05); // allocation-heavy
        let mut faast = Faast::new();
        faast.record(SimTime::ZERO, &mut host, &func).unwrap();
        let trace = func.workload.trace();
        // Working set = true WS only; ephemeral pages filtered out.
        assert_eq!(faast.ws_pages() as usize, trace.ws_page_list().len());
        assert!(faast.filtered_pages() > 0);
        // The filter contains every ephemeral page.
        for &p in trace.ephemeral_page_list() {
            assert!(faast.filtered.contains(p));
        }
    }

    #[test]
    fn faast_ws_is_leaner_than_reap() {
        let (mut host, func) = test_env("matmul", 0.05); // large ephemeral
        let mut faast = Faast::new();
        faast.record(SimTime::ZERO, &mut host, &func).unwrap();

        let (mut host2, func2) = test_env("matmul", 0.05);
        let mut reap = crate::strategies::Reap::new();
        reap.record(SimTime::ZERO, &mut host2, &func2).unwrap();

        assert!(faast.ws_pages() < reap.ws_pages());
    }

    #[test]
    fn filtered_faults_cost_no_io() {
        let (mut host, func) = test_env("image", 0.05);
        let mut faast = Faast::new();
        let t0 = faast.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let mut restored = faast
            .restore(t0, &mut host, &func, OwnerId::new(0))
            .unwrap();
        let trace = func.workload.trace();
        let before = host.disk().read_bytes();
        let r = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .unwrap();
        let read = host.disk().read_bytes() - before;
        // Reads cover only the serialized WS (chunks), not the
        // ephemeral allocations.
        let ws_bytes = faast.ws_pages() * snapbpf_sim::PAGE_SIZE;
        assert!(
            read <= ws_bytes + 64 * snapbpf_sim::PAGE_SIZE,
            "read {read} vs ws {ws_bytes}"
        );
        assert!(r.uffd_resolved > 0);
    }
}
