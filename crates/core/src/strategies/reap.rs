//! REAP (Record-and-Prefetch, ASPLOS '21).
//!
//! Userfaultfd-based record/replay:
//!
//! * **record** — register userfaultfd over all guest memory, run
//!   one invocation; the userspace handler fetches each faulting
//!   page from the snapshot with direct I/O and logs it. The logged
//!   pages (in fault order) are then serialized to a separate
//!   working-set file, plus an offsets metadata file.
//! * **restore** — register userfaultfd again; a prefetch thread
//!   reads the working-set file sequentially with direct I/O into a
//!   userspace buffer and installs pages via `UFFDIO_COPY`. Because
//!   installs are **anonymous memory**, nothing is shared between
//!   sandboxes of the same function — the dedup failure Figure 3c
//!   quantifies.

use std::cell::RefCell;
use std::rc::Rc;

use snapbpf_kernel::{CowPolicy, HostKernel, KernelError};
use snapbpf_mem::{OwnerId, PageSet};
use snapbpf_sim::SimTime;
use snapbpf_storage::{FileId, IoPath};
use snapbpf_vmm::{run_invocation, MicroVm, Snapshot, UffdResolver};

use crate::restore::{RestoreCursor, RestoreOps, RestoreStage, StepOutcome};
use crate::strategy::{Capabilities, FunctionCtx, Strategy, StrategyError};

/// Pages per working-set-file read chunk during restore prefetch.
pub(crate) const PREFETCH_CHUNK_PAGES: u64 = 512;

/// Record-phase handler: serve each fault from the snapshot with
/// direct I/O and log the fault order.
struct RecordingResolver {
    snapshot: FileId,
    log: Vec<u64>,
}

impl UffdResolver for RecordingResolver {
    fn resolve(
        &mut self,
        now: SimTime,
        gpfn: u64,
        host: &mut HostKernel,
    ) -> Result<SimTime, KernelError> {
        let done = host
            .disk_mut()
            .read_file_pages(now, self.snapshot, gpfn, 1, IoPath::Direct)?;
        self.log.push(gpfn);
        Ok(done.done_at)
    }
}

/// Invocation-phase handler: working-set pages become available as
/// the prefetch thread's chunks arrive and install; anything else is
/// a demand direct-I/O read of the snapshot.
///
/// The availability map is shared (`Rc`) with the restore cursor's
/// background prefetch step: in a pipelined fleet a fault that races
/// ahead of the prefetch thread blocks until the page's install
/// lands (`UFFDIO_COPY` wakes the faulting vCPU), while non-recorded
/// pages take the demand-read path, exactly like the real system.
pub(crate) struct PrefetchedResolver {
    pub(crate) snapshot: FileId,
    /// Indexed by gpfn: the time the prefetch thread installs the
    /// page's bytes, `None` for pages outside the working set.
    pub(crate) available: Rc<RefCell<Vec<Option<SimTime>>>>,
    /// gpfns served with zero-fill without any I/O (Faast's
    /// allocation filter; empty for REAP).
    pub(crate) zero_filled: PageSet,
}

impl UffdResolver for PrefetchedResolver {
    fn resolve(
        &mut self,
        now: SimTime,
        gpfn: u64,
        host: &mut HostKernel,
    ) -> Result<SimTime, KernelError> {
        if self.zero_filled.contains(gpfn) {
            return Ok(now);
        }
        let installed = self.available.borrow().get(gpfn as usize).copied();
        if let Some(Some(t)) = installed {
            return Ok(t.max(now));
        }
        let done = host
            .disk_mut()
            .read_file_pages(now, self.snapshot, gpfn, 1, IoPath::Direct)?;
        Ok(done.done_at)
    }
}

/// Restore state machine shared by REAP and Faast (Faast is REAP
/// plus an allocation filter): readahead on, uffd registration, and
/// a **background** prefetch + install pipeline over the working-set
/// file:
///
/// * the prefetch thread issues one large direct-I/O read per chunk,
///   all queued at issue time (the device serializes them),
/// * the installer thread walks the buffer in file order, issuing
///   one `UFFDIO_COPY` per page — a serial chain of page-copy +
///   anonymous-allocation work that starts for page `i` only once
///   its chunk has arrived and page `i-1` is installed.
///
/// The vCPU resumes without waiting for any of it: pages the guest
/// touches before their install completes take a userfaultfd round
/// trip (handled by the engine); the rest are pre-installed and cost
/// nothing extra — which is exactly REAP's behaviour.
pub(crate) struct UffdRestoreOps {
    ws_file: FileId,
    ws_order: Vec<u64>,
    snapshot: Snapshot,
    zero_filled: PageSet,
    owner: OwnerId,
    available: Rc<RefCell<Vec<Option<SimTime>>>>,
    vm: Option<MicroVm>,
}

impl UffdRestoreOps {
    pub(crate) fn new(
        ws_file: FileId,
        ws_order: Vec<u64>,
        snapshot: Snapshot,
        zero_filled: PageSet,
        owner: OwnerId,
    ) -> Self {
        UffdRestoreOps {
            ws_file,
            ws_order,
            snapshot,
            zero_filled,
            owner,
            available: Rc::new(RefCell::new(Vec::new())),
            vm: None,
        }
    }
}

impl RestoreOps for UffdRestoreOps {
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
                let total = self.ws_order.len() as u64;
                if total == 0 {
                    return Ok(StepOutcome::done(now));
                }
                let install_cost = host.config().page_copy + host.config().anon_zero_fill;
                let mut installer = now;
                let mut available = self.available.borrow_mut();
                available.resize(self.snapshot.memory_pages() as usize, None);
                // All chunks are issued at `now`; batching the
                // submissions delivers the completions in one call.
                let mut chunks = Vec::new();
                let mut page = 0;
                while page < total {
                    let n = PREFETCH_CHUNK_PAGES.min(total - page);
                    chunks.push((page, n));
                    page += n;
                }
                let completions =
                    host.disk_mut()
                        .read_file_runs(now, self.ws_file, &chunks, IoPath::Direct)?;
                for (&(first, n), done) in chunks.iter().zip(&completions) {
                    for i in first..first + n {
                        installer = installer.max(done.done_at) + install_cost;
                        available[self.ws_order[i as usize] as usize] = Some(installer);
                    }
                }
                // The stage's work completes when the last install
                // lands; the critical path never waits for it.
                StepOutcome::background_done(installer)
            }
            RestoreStage::OverlaySetup => {
                let mut vm =
                    MicroVm::restore(self.owner, &self.snapshot, CowPolicy::Opportunistic, false);
                vm.kvm_mut().register_uffd(0, self.snapshot.memory_pages());
                self.vm = Some(vm);
                StepOutcome::done(now)
            }
            RestoreStage::Resume => StepOutcome::done(now + Snapshot::restore_overhead()).with_vm(
                self.vm.take().expect("overlay stage built the VM"),
                Box::new(PrefetchedResolver {
                    snapshot: self.snapshot.memory_file(),
                    available: Rc::clone(&self.available),
                    zero_filled: std::mem::take(&mut self.zero_filled),
                }),
            ),
        })
    }
}

/// The REAP strategy.
#[derive(Debug, Clone, Default)]
pub struct Reap {
    /// Working-set pages in fault order (the ws file's layout).
    ws_order: Vec<u64>,
    ws_file: Option<FileId>,
}

impl Reap {
    /// Creates an unrecorded REAP instance.
    pub fn new() -> Self {
        Reap::default()
    }

    /// The recorded working-set size in pages (0 before recording).
    pub fn ws_pages(&self) -> u64 {
        self.ws_order.len() as u64
    }
}

/// Writes `pages` pages to a fresh file `name`, sequentially,
/// returning the file and completion time.
pub(crate) fn write_ws_file(
    now: SimTime,
    name: &str,
    pages: u64,
    host: &mut HostKernel,
) -> Result<(FileId, SimTime), KernelError> {
    let file = host.disk_mut().create_file(name, pages.max(1))?;
    let mut t = now;
    let mut page = 0;
    while page < pages {
        let n = 1024.min(pages - page);
        let done = host
            .disk_mut()
            .write_file_pages(t, file, page, n, IoPath::Buffered)?;
        t = done.done_at;
        page += n;
    }
    Ok((file, t))
}

impl Strategy for Reap {
    fn name(&self) -> &'static str {
        "REAP"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            mechanism: "Userfaultfd (user-space)",
            on_disk_ws_serialization: true,
            in_memory_ws_dedup: false,
            stateless_vm_allocation_filtering: false,
        }
    }

    fn record(
        &mut self,
        now: SimTime,
        host: &mut HostKernel,
        func: &FunctionCtx,
    ) -> Result<SimTime, StrategyError> {
        let mut vm = MicroVm::restore(
            OwnerId::new(u32::MAX), // record sandbox
            &func.snapshot,
            CowPolicy::Opportunistic,
            false,
        );
        vm.kvm_mut().register_uffd(0, func.snapshot.memory_pages());
        let mut resolver = RecordingResolver {
            snapshot: func.snapshot.memory_file(),
            log: Vec::new(),
        };
        let trace = func.workload.trace();
        let result = run_invocation(
            now + Snapshot::restore_overhead(),
            &mut vm,
            &trace,
            host,
            &mut resolver,
        )?;
        vm.kvm_mut().teardown(host)?;

        self.ws_order = resolver.log;
        // Serialize the recorded pages (the pages themselves — this
        // is the on-disk duplication SnapBPF avoids) plus a tiny
        // offsets metadata file.
        let ws_name = format!("{}.reap.ws", func.workload.name());
        let (ws_file, t1) = write_ws_file(result.end_time, &ws_name, self.ws_pages(), host)?;
        self.ws_file = Some(ws_file);
        let meta_pages = (self.ws_pages() * 8)
            .div_ceil(snapbpf_sim::PAGE_SIZE)
            .max(1);
        let meta_name = format!("{}.reap.meta", func.workload.name());
        let (_meta, t2) = write_ws_file(t1, &meta_name, meta_pages, host)?;
        Ok(t2)
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
            .ok_or(StrategyError::NotRecorded { strategy: "REAP" })?;
        Ok(RestoreCursor::new(
            now,
            Box::new(UffdRestoreOps::new(
                ws_file,
                self.ws_order.clone(),
                func.snapshot.clone(),
                PageSet::new(),
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
    use snapbpf_vmm::run_invocation;

    #[test]
    fn record_captures_ws_and_ephemeral() {
        let (mut host, func) = test_env("json", 0.05);
        let mut reap = Reap::new();
        let done = reap.record(SimTime::ZERO, &mut host, &func).unwrap();
        assert!(done > SimTime::ZERO);
        let trace = func.workload.trace();
        // REAP's WS includes ephemeral allocations — the semantic gap.
        let expected = trace.ws_page_list().len() + trace.ephemeral_page_list().len();
        assert_eq!(reap.ws_pages() as usize, expected);
        assert!(host
            .disk()
            .file_by_name(&format!("{}.reap.ws", func.workload.name()))
            .is_some());
    }

    #[test]
    fn restore_before_record_fails() {
        let (mut host, func) = test_env("json", 0.05);
        let mut reap = Reap::new();
        assert!(matches!(
            reap.restore(SimTime::ZERO, &mut host, &func, OwnerId::new(0)),
            Err(StrategyError::NotRecorded { .. })
        ));
    }

    #[test]
    fn invocation_uses_uffd_and_no_page_cache_for_snapshot() {
        let (mut host, func) = test_env("json", 0.05);
        let mut reap = Reap::new();
        let t0 = reap.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let mut restored = reap.restore(t0, &mut host, &func, OwnerId::new(0)).unwrap();
        let trace = func.workload.trace();
        let r = run_invocation(
            restored.ready_at,
            &mut restored.vm,
            &trace,
            &mut host,
            restored.resolver.as_mut(),
        )
        .unwrap();
        assert!(r.uffd_resolved > 0);
        assert_eq!(r.stats.major_faults, 0);
        assert_eq!(r.stats.minor_faults, 0);
        // Snapshot pages were never inserted into the page cache.
        assert_eq!(
            host.page_state(func.snapshot.memory_file(), trace.ws_page_list()[0]),
            None
        );
        // Everything the VM touched is private anonymous memory.
        assert!(host.anon_pages_of(OwnerId::new(0)) >= r.uffd_resolved);
    }

    #[test]
    fn two_sandboxes_do_not_share() {
        let (mut host, func) = test_env("html", 0.1);
        let mut reap = Reap::new();
        let t0 = reap.record(SimTime::ZERO, &mut host, &func).unwrap();
        host.drop_all_caches().unwrap();

        let trace = func.workload.trace();
        let mut total_anon = 0;
        let mut t = t0;
        for i in 0..2 {
            let mut restored = reap.restore(t, &mut host, &func, OwnerId::new(i)).unwrap();
            let r = run_invocation(
                restored.ready_at,
                &mut restored.vm,
                &trace,
                &mut host,
                restored.resolver.as_mut(),
            )
            .unwrap();
            t = r.end_time;
            total_anon += host.anon_pages_of(OwnerId::new(i));
        }
        // Memory scales with the instance count: no dedup.
        let per_vm = trace.ws_page_list().len() as u64 + trace.ephemeral_page_list().len() as u64;
        assert!(total_anon >= 2 * per_vm);
    }
}
