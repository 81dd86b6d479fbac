//! KVM: nested paging, PV PTE marking, userfaultfd, CoW policy.
//!
//! Models the host side of a microVM's memory (paper §3.2, Figure 2):
//!
//! * the VM's guest-physical pages are backed by a `MAP_PRIVATE`
//!   mapping of the snapshot file — reads share page-cache pages,
//!   writes break copy-on-write into anonymous memory,
//! * nested page faults resolve the backing: **PV-marked** guest
//!   frames (mirror bit set by the guest allocator) short-circuit to
//!   anonymous memory with no snapshot I/O; **userfaultfd**-registered
//!   ranges bounce the fault to a userspace handler (REAP/Faast);
//!   everything else demand-faults through the page cache,
//! * the **CoW policy** reproduces the paper's observed KVM
//!   misbehaviour — forcibly handling read faults as writes, which
//!   destroys deduplication — and the paper's patch (opportunistic
//!   write mapping).

use std::fmt;

use snapbpf_mem::{OwnerId, PageKey, PageSet};
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_storage::FileId;

use crate::host::{HostKernel, KernelError};

/// The PV PTE mark: "the most significant bit of the PFN" (paper
/// §3.2). Guest physical address space in the model is far below
/// this bit.
pub const PV_MIRROR_BIT: u64 = 1 << 40;

/// KVM's handling of read nested faults on file-backed pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CowPolicy {
    /// Stock behaviour the paper observed: read faults are
    /// "forcibly" write-mapped under some circumstances, breaking
    /// CoW and copying cache pages to anonymous memory.
    ForcedWrite,
    /// The paper's patch: write-map only writes (and already-writable
    /// anonymous pages); reads share the page-cache page.
    Opportunistic,
}

/// Nested page-table entry of an unmapped guest page.
const PTE_NONE: u32 = 0;
/// Entry of a private anonymous page (PV allocation, CoW copy, or
/// uffd install).
const PTE_ANON: u32 = 1;
/// Entries from here up map a shared, read-only page-cache page: the
/// entry is the page's cache slot plus `PTE_CACHE`.
const PTE_CACHE: u32 = 2;

/// Classification of a guest memory access, for statistics and for
/// driving the engine (a [`AccessKind::Uffd`] result requires the
/// caller to resolve the fault through the registered handler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Already mapped with sufficient permissions.
    Hit,
    /// PV-marked allocation served with fresh anonymous memory — no
    /// snapshot I/O (paper §3.2).
    PvAnon,
    /// Page was resident in the page cache: map and go.
    Minor,
    /// Page required I/O from the snapshot (or overlay) file.
    Major,
    /// Write (or forced-write policy) broke CoW: the page was copied
    /// to anonymous memory.
    CowBreak,
    /// The fault lies in a userfaultfd-registered range; the caller
    /// must resolve it via [`KvmVm::uffd_install`].
    Uffd,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Hit => "hit",
            AccessKind::PvAnon => "pv-anon",
            AccessKind::Minor => "minor",
            AccessKind::Major => "major",
            AccessKind::CowBreak => "cow",
            AccessKind::Uffd => "uffd",
        };
        write!(f, "{s}")
    }
}

/// Outcome of a guest access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// When the access can retire (data mapped and available).
    pub ready_at: SimTime,
    /// CPU time charged to the vCPU for fault handling.
    pub cpu: SimDuration,
    /// What happened.
    pub kind: AccessKind,
}

/// Per-VM fault statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmMemStats {
    /// TLB/NPT hits (no exit).
    pub hits: u64,
    /// Minor faults (page cache resident).
    pub minor_faults: u64,
    /// Major faults (snapshot I/O).
    pub major_faults: u64,
    /// PV-marked allocations served anonymously.
    pub pv_anon_faults: u64,
    /// CoW breaks.
    pub cow_breaks: u64,
    /// Faults delivered to userspace via userfaultfd.
    pub uffd_faults: u64,
    /// Faults routed to anonymous memory by a pre-computed filter
    /// (FaaSnap's zero-page scan, Faast's allocator-metadata scan).
    pub filtered_anon_faults: u64,
}

/// A guest-physical range mapped from a file other than the snapshot
/// (FaaSnap's working-set file overlay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Overlay {
    gpfn_start: u64,
    len: u64,
    file: FileId,
    file_page_start: u64,
}

/// The KVM-side memory state of one microVM.
///
/// # Examples
///
/// ```
/// use snapbpf_kernel::{CowPolicy, HostKernel, KernelConfig, KvmVm, AccessKind};
/// use snapbpf_mem::OwnerId;
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, SsdModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let mut kernel = HostKernel::new(disk, KernelConfig::default());
/// let snap = kernel.disk_mut().create_file("snap.mem", 1024)?;
///
/// let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
/// let fault = vm.access(SimTime::ZERO, 5, false, &mut kernel)?;
/// assert_eq!(fault.kind, AccessKind::Major);
/// let again = vm.access(fault.ready_at, 5, false, &mut kernel)?;
/// assert_eq!(again.kind, AccessKind::Hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KvmVm {
    owner: OwnerId,
    snapshot_file: FileId,
    pages: u64,
    cow_policy: CowPolicy,
    /// The nested page table, indexed by gpfn: `PTE_NONE`,
    /// `PTE_ANON`, or `PTE_CACHE` plus the cache slot of a shared
    /// page. Sized to the guest's pages; grows if a gpfn lies beyond.
    mappings: Vec<u32>,
    /// The gpfns with a non-`PTE_NONE` entry, in first-map order.
    mapped: Vec<u64>,
    uffd: Option<(u64, u64)>, // registered [start, end) gpfn range
    overlays: Vec<Overlay>,
    anon_filter: PageSet,
    stats: VmMemStats,
    /// When enabled, first-touch guest page numbers in fault order —
    /// the VMM-level access profiling FaaSnap's record phase uses.
    access_log: Option<Vec<u64>>,
    /// How many times [`KvmVm::teardown`] has run.
    teardowns: u64,
}

impl KvmVm {
    /// Creates the memory state for a VM of `pages` guest pages
    /// restored from `snapshot_file` (guest page `i` ↔ file page
    /// `i`, as in Firecracker's memory snapshot layout).
    pub fn new(owner: OwnerId, snapshot_file: FileId, pages: u64, cow_policy: CowPolicy) -> Self {
        KvmVm {
            owner,
            snapshot_file,
            pages,
            cow_policy,
            mappings: vec![PTE_NONE; usize::try_from(pages).expect("guest pages fit in memory")],
            mapped: Vec::new(),
            uffd: None,
            overlays: Vec::new(),
            anon_filter: PageSet::new(),
            stats: VmMemStats::default(),
            access_log: None,
            teardowns: 0,
        }
    }

    /// Enables first-touch access logging (VMM instrumentation, as
    /// FaaSnap's profiler patches Firecracker to do).
    pub fn enable_access_log(&mut self) {
        self.access_log = Some(Vec::new());
    }

    /// Takes the recorded first-touch order (empty if logging was
    /// never enabled).
    pub fn take_access_log(&mut self) -> Vec<u64> {
        self.access_log.take().unwrap_or_default()
    }

    /// The owning sandbox.
    pub fn owner(&self) -> OwnerId {
        self.owner
    }

    /// Guest memory size in pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// The snapshot file backing this VM.
    pub fn snapshot_file(&self) -> FileId {
        self.snapshot_file
    }

    /// Fault statistics so far.
    pub fn stats(&self) -> VmMemStats {
        self.stats
    }

    /// The teardown generation: how many times [`KvmVm::teardown`]
    /// has run. Anything learned about the mappings is stale once it
    /// moves.
    pub fn generation(&self) -> u64 {
        self.teardowns
    }

    /// Registers a userfaultfd range (REAP/Faast restore path):
    /// faults on unmapped pages in `[start, start+len)` are delivered
    /// to userspace instead of the page cache.
    pub fn register_uffd(&mut self, start: u64, len: u64) {
        self.uffd = Some((start, start + len));
    }

    /// Maps `[gpfn_start, gpfn_start+len)` to pages of another file
    /// (FaaSnap mmaps its working-set file over snapshot regions).
    pub fn add_overlay(&mut self, gpfn_start: u64, len: u64, file: FileId, file_page_start: u64) {
        self.overlays.push(Overlay {
            gpfn_start,
            len,
            file,
            file_page_start,
        });
    }

    /// Number of overlay regions (FaaSnap's mmap-count concern).
    pub fn overlay_count(&self) -> usize {
        self.overlays.len()
    }

    /// Marks guest pages whose faults should be served with
    /// anonymous memory instead of snapshot data — the result of
    /// prior-art snapshot pre-processing (FaaSnap's zero-page scan,
    /// Faast's allocator-metadata scan, §2.2). SnapBPF never needs
    /// this: PV PTE marking achieves the same effect online.
    pub fn add_anon_filter(&mut self, pages: impl IntoIterator<Item = u64>) {
        self.anon_filter.extend(pages);
    }

    fn backing_of(&self, gpfn: u64) -> (FileId, u64) {
        for o in &self.overlays {
            if gpfn >= o.gpfn_start && gpfn < o.gpfn_start + o.len {
                return (o.file, o.file_page_start + (gpfn - o.gpfn_start));
            }
        }
        (self.snapshot_file, gpfn)
    }

    fn in_uffd_range(&self, gpfn: u64) -> bool {
        self.uffd.is_some_and(|(s, e)| gpfn >= s && gpfn < e)
    }

    /// The page-table entry of `gpfn`.
    fn pte(&self, gpfn: u64) -> u32 {
        usize::try_from(gpfn)
            .ok()
            .and_then(|i| self.mappings.get(i))
            .copied()
            .unwrap_or(PTE_NONE)
    }

    /// Sets the page-table entry of `gpfn` to a mapped value, noting
    /// a first mapping in `mapped`.
    fn set_pte(&mut self, gpfn: u64, pte: u32) {
        let i = usize::try_from(gpfn).expect("gpfn fits the address space");
        if i >= self.mappings.len() {
            self.mappings.resize(i + 1, PTE_NONE);
        }
        if self.mappings[i] == PTE_NONE {
            self.mapped.push(gpfn);
        }
        self.mappings[i] = pte;
    }

    /// Retires a guest access that needs no VM exit: any access to
    /// an anonymous page, or a read of a shared page-cache page.
    /// Returns `true` and counts the hit exactly as
    /// [`KvmVm::access`] would; returns `false` and changes nothing
    /// when the access must exit to the host.
    pub fn try_hit(&mut self, gpfn_raw: u64, write: bool) -> bool {
        let hit = match self.pte(gpfn_raw & !PV_MIRROR_BIT) {
            PTE_NONE => false,
            PTE_ANON => true,
            _ => !write,
        };
        self.stats.hits += u64::from(hit);
        hit
    }

    /// Counts `n` accesses that needed no VM exit, as `n` successful
    /// [`KvmVm::try_hit`] calls would.
    pub fn count_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Handles one guest access to `gpfn_raw` (which may carry the
    /// [`PV_MIRROR_BIT`]). `write` selects the access type.
    ///
    /// # Errors
    ///
    /// Kernel errors (I/O, memory exhaustion) propagate.
    pub fn access(
        &mut self,
        now: SimTime,
        gpfn_raw: u64,
        write: bool,
        host: &mut HostKernel,
    ) -> Result<AccessOutcome, KernelError> {
        let mirrored = gpfn_raw & PV_MIRROR_BIT != 0;
        let gpfn = gpfn_raw & !PV_MIRROR_BIT;

        // Fast path: already mapped.
        match self.pte(gpfn) {
            PTE_NONE => {}
            pte if write && pte >= PTE_CACHE => {
                // Write to a shared read-only page: CoW break.
                let c = host.config();
                let cpu = c.nested_fault_exit + c.anon_zero_fill + c.page_copy;
                host.alloc_anon_page(self.owner)?;
                host.cache_mut().unmap_page(pte - PTE_CACHE)?;
                host.note_cow_break();
                self.set_pte(gpfn, PTE_ANON);
                self.stats.cow_breaks += 1;
                return Ok(AccessOutcome {
                    ready_at: now + cpu,
                    cpu,
                    kind: AccessKind::CowBreak,
                });
            }
            _ => {
                self.stats.hits += 1;
                return Ok(AccessOutcome {
                    ready_at: now,
                    cpu: SimDuration::ZERO,
                    kind: AccessKind::Hit,
                });
            }
        }

        // Nested page fault.
        if let Some(log) = &mut self.access_log {
            log.push(gpfn);
        }
        let mut cpu = host.config().nested_fault_exit;

        // PV PTE marking: mirrored PFN ⇒ fresh allocation, serve
        // anonymously, map both views (paper §3.2 steps ④–⑥).
        if mirrored {
            cpu += host.alloc_anon_page(self.owner)?;
            self.set_pte(gpfn, PTE_ANON);
            self.stats.pv_anon_faults += 1;
            return Ok(AccessOutcome {
                ready_at: now + cpu,
                cpu,
                kind: AccessKind::PvAnon,
            });
        }

        // Pre-computed allocation filter (prior art's offline scan).
        if self.anon_filter.contains(gpfn) {
            cpu += host.alloc_anon_page(self.owner)?;
            self.set_pte(gpfn, PTE_ANON);
            self.stats.filtered_anon_faults += 1;
            return Ok(AccessOutcome {
                ready_at: now + cpu,
                cpu,
                kind: AccessKind::PvAnon,
            });
        }

        // Userfaultfd interception.
        if self.in_uffd_range(gpfn) {
            self.stats.uffd_faults += 1;
            return Ok(AccessOutcome {
                ready_at: now + cpu,
                cpu,
                kind: AccessKind::Uffd,
            });
        }

        // Demand fault through the page cache.
        let (file, file_page) = self.backing_of(gpfn);
        let read = host.read_file_page(now, file, file_page)?;
        cpu += read.cpu;
        let kind = if read.hit {
            cpu += host.config().minor_fault;
            self.stats.minor_faults += 1;
            AccessKind::Minor
        } else {
            self.stats.major_faults += 1;
            AccessKind::Major
        };
        let data_ready = read.ready_at.max(now + cpu);

        let force_cow = write || self.cow_policy == CowPolicy::ForcedWrite;
        if force_cow {
            // Copy the (possibly still in-flight) page to anonymous
            // memory once its data is available.
            let copy_cpu = host.alloc_anon_page(self.owner)? + host.config().page_copy;
            cpu += copy_cpu;
            host.note_cow_break();
            self.set_pte(gpfn, PTE_ANON);
            self.stats.cow_breaks += 1;
            Ok(AccessOutcome {
                ready_at: data_ready + copy_cpu,
                cpu,
                kind: AccessKind::CowBreak,
            })
        } else {
            let slot = host.cache_mut().map_page(PageKey::new(file, file_page))?;
            let pte = slot
                .checked_add(PTE_CACHE)
                .expect("cache slot fits a page-table entry");
            self.set_pte(gpfn, pte);
            Ok(AccessOutcome {
                ready_at: data_ready,
                cpu,
                kind,
            })
        }
    }

    /// Installs a page through userfaultfd (`UFFDIO_COPY`): the
    /// userspace handler provides the data (available at
    /// `data_ready`); the kernel allocates anonymous memory for the
    /// copy. Used both for demand uffd faults and for REAP's
    /// preemptive working-set installation.
    ///
    /// # Errors
    ///
    /// Kernel allocation errors propagate.
    pub fn uffd_install(
        &mut self,
        now: SimTime,
        gpfn: u64,
        data_ready: SimTime,
        host: &mut HostKernel,
    ) -> Result<AccessOutcome, KernelError> {
        let cpu = host.alloc_anon_page(self.owner)? + host.config().page_copy;
        self.set_pte(gpfn, PTE_ANON);
        Ok(AccessOutcome {
            ready_at: data_ready.max(now) + cpu,
            cpu,
            kind: AccessKind::Uffd,
        })
    }

    /// `true` if `gpfn` is currently mapped.
    pub fn is_mapped(&self, gpfn: u64) -> bool {
        self.pte(gpfn & !PV_MIRROR_BIT) != PTE_NONE
    }

    /// Number of guest pages currently mapped.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped.len() as u64
    }

    /// Tears the VM down: unmaps shared cache pages, releases all
    /// anonymous memory and starts a new [`KvmVm::generation`].
    ///
    /// # Errors
    ///
    /// Bookkeeping errors indicate model corruption.
    pub fn teardown(&mut self, host: &mut HostKernel) -> Result<(), KernelError> {
        self.teardowns += 1;
        for gpfn in self.mapped.drain(..) {
            let pte = std::mem::replace(&mut self.mappings[gpfn as usize], PTE_NONE);
            if pte >= PTE_CACHE {
                host.cache_mut().unmap_page(pte - PTE_CACHE)?;
            }
        }
        host.release_owner(self.owner);
        Ok(())
    }

    /// Audits the page table against `host`'s page cache, panicking
    /// with a message on the first mismatch:
    ///
    /// * `mapped` lists each gpfn with a non-empty entry exactly once;
    /// * each shared entry's slot caches the page `gpfn` is backed by
    ///   (snapshot or overlay) with a mapcount of at least one.
    ///
    /// It is a test aid: it walks the whole table, so nothing on a
    /// hot path calls it.
    pub fn check(&self, host: &HostKernel) {
        let mut listed = vec![false; self.mappings.len()];
        for &gpfn in &self.mapped {
            let i = gpfn as usize;
            assert!(
                i < self.mappings.len() && self.mappings[i] != PTE_NONE,
                "mapped lists gpfn {gpfn}, which has no entry"
            );
            assert!(!listed[i], "mapped lists gpfn {gpfn} twice");
            listed[i] = true;
        }
        for (gpfn, &pte) in self.mappings.iter().enumerate() {
            assert_eq!(
                pte != PTE_NONE,
                listed[gpfn],
                "gpfn {gpfn} has entry {pte} but mapped disagrees"
            );
            if pte < PTE_CACHE {
                continue;
            }
            let slot = pte - PTE_CACHE;
            let (file, page) = self.backing_of(gpfn as u64);
            match host.cache().slot_page(slot) {
                Some((key, view)) => {
                    assert_eq!(
                        key,
                        PageKey::new(file, page),
                        "gpfn {gpfn} maps slot {slot}, which caches another page"
                    );
                    assert!(view.mapcount >= 1, "gpfn {gpfn} maps unmapped slot {slot}");
                }
                None => panic!("gpfn {gpfn} maps slot {slot}, which caches nothing"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use snapbpf_storage::{Disk, SsdModel};

    fn setup(pages: u64) -> (HostKernel, FileId) {
        let disk = Disk::new(Box::new(SsdModel::micron_5300()));
        let mut kernel = HostKernel::new(disk, KernelConfig::default());
        let snap = kernel.disk_mut().create_file("snap.mem", pages).unwrap();
        (kernel, snap)
    }

    #[test]
    fn major_then_hit_then_cow_on_write() {
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);

        let major = vm.access(SimTime::ZERO, 7, false, &mut host).unwrap();
        assert_eq!(major.kind, AccessKind::Major);
        assert!(major.ready_at > SimTime::ZERO);

        let hit = vm.access(major.ready_at, 7, false, &mut host).unwrap();
        assert_eq!(hit.kind, AccessKind::Hit);

        let before_anon = host.anon_pages_of(vm.owner());
        let cow = vm.access(hit.ready_at, 7, true, &mut host).unwrap();
        assert_eq!(cow.kind, AccessKind::CowBreak);
        assert_eq!(host.anon_pages_of(vm.owner()), before_anon + 1);
        assert_eq!(vm.stats().cow_breaks, 1);
    }

    #[test]
    fn minor_fault_when_cache_warm() {
        let (mut host, snap) = setup(1024);
        // VM A warms the cache; VM B minor-faults on the same pages.
        let mut a = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        let f = a.access(SimTime::ZERO, 42, false, &mut host).unwrap();
        let mut b = KvmVm::new(OwnerId::new(1), snap, 1024, CowPolicy::Opportunistic);
        let g = b.access(f.ready_at, 42, false, &mut host).unwrap();
        assert_eq!(g.kind, AccessKind::Minor);
        // Both VMs share one cached page: mapcount 2, no anon.
        let key = PageKey::new(snap, 42);
        assert_eq!(host.cache().get(key).unwrap().mapcount, 2);
        assert_eq!(host.memory_snapshot().anon_pages, 0);
    }

    #[test]
    fn forced_write_policy_destroys_dedup() {
        let (mut host, snap) = setup(1024);
        let mut a = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::ForcedWrite);
        let f = a.access(SimTime::ZERO, 42, false, &mut host).unwrap();
        assert_eq!(f.kind, AccessKind::CowBreak);
        let mut b = KvmVm::new(OwnerId::new(1), snap, 1024, CowPolicy::ForcedWrite);
        let g = b.access(f.ready_at, 42, false, &mut host).unwrap();
        assert_eq!(g.kind, AccessKind::CowBreak);
        // Each VM got its own anonymous copy despite reading.
        assert_eq!(host.memory_snapshot().anon_pages, 2);
        assert_eq!(host.memory_snapshot().cow_pages, 2);
    }

    #[test]
    fn pv_marked_fault_skips_snapshot_io() {
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        let reads_before = host.disk().read_requests();
        let out = vm
            .access(SimTime::ZERO, 500 | PV_MIRROR_BIT, true, &mut host)
            .unwrap();
        assert_eq!(out.kind, AccessKind::PvAnon);
        assert_eq!(host.disk().read_requests(), reads_before, "no snapshot I/O");
        assert!(out.ready_at.saturating_since(SimTime::ZERO) < SimDuration::from_micros(10));
        // The mirrored and original gpfn now resolve to the same page.
        assert!(vm.is_mapped(500));
        let again = vm.access(out.ready_at, 500, false, &mut host).unwrap();
        assert_eq!(again.kind, AccessKind::Hit);
        assert_eq!(vm.stats().pv_anon_faults, 1);
    }

    #[test]
    fn unmarked_allocation_fetches_dead_snapshot_bytes() {
        // The waste PV PTE marking eliminates: without the mark, an
        // allocation faults in snapshot data that will be overwritten.
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        let out = vm.access(SimTime::ZERO, 500, true, &mut host).unwrap();
        assert_eq!(out.kind, AccessKind::CowBreak);
        assert!(host.disk().read_requests() > 0, "wasted snapshot I/O");
        assert!(
            out.ready_at > SimTime::from_micros(50),
            "paid storage latency"
        );
    }

    #[test]
    fn uffd_range_bounces_to_userspace() {
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        vm.register_uffd(0, 1024);
        let out = vm.access(SimTime::ZERO, 9, false, &mut host).unwrap();
        assert_eq!(out.kind, AccessKind::Uffd);
        assert!(!vm.is_mapped(9));
        assert_eq!(vm.stats().uffd_faults, 1);

        // Handler installs the page; data was ready at time T.
        let data_ready = SimTime::from_micros(100);
        let installed = vm
            .uffd_install(out.ready_at, 9, data_ready, &mut host)
            .unwrap();
        assert!(installed.ready_at >= data_ready);
        assert!(vm.is_mapped(9));
        // Installed pages are anonymous: not shared.
        assert_eq!(host.memory_snapshot().anon_pages, 1);
        let hit = vm.access(installed.ready_at, 9, true, &mut host).unwrap();
        assert_eq!(hit.kind, AccessKind::Hit);
    }

    #[test]
    fn overlay_routes_to_ws_file() {
        let (mut host, snap) = setup(1024);
        let ws = host.disk_mut().create_file("ws", 64).unwrap();
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        vm.add_overlay(100, 16, ws, 0);
        assert_eq!(vm.overlay_count(), 1);

        let out = vm.access(SimTime::ZERO, 105, false, &mut host).unwrap();
        assert_eq!(out.kind, AccessKind::Major);
        // The data came from the ws file, not the snapshot.
        assert!(host.page_state(ws, 5).is_some());
        assert!(host.page_state(snap, 105).is_none());
        // Outside the overlay, the snapshot backs the page.
        let out2 = vm.access(out.ready_at, 50, false, &mut host).unwrap();
        assert_eq!(out2.kind, AccessKind::Major);
        assert!(host.page_state(snap, 50).is_some());
    }

    #[test]
    fn teardown_releases_everything() {
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        let a = vm.access(SimTime::ZERO, 1, false, &mut host).unwrap();
        let b = vm.access(a.ready_at, 2, true, &mut host).unwrap();
        vm.access(b.ready_at, 3 | PV_MIRROR_BIT, true, &mut host)
            .unwrap();
        assert!(host.memory_snapshot().anon_pages > 0);
        assert_eq!(vm.generation(), 0);
        vm.teardown(&mut host).unwrap();
        assert_eq!(vm.generation(), 1);
        assert_eq!(host.memory_snapshot().anon_pages, 0);
        assert_eq!(vm.mapped_pages(), 0);
        // Cache pages survive teardown (that is the point of the
        // page cache) but are no longer mapped.
        assert!(!host.cache().is_empty());
        assert_eq!(host.cache().get(PageKey::new(snap, 1)).unwrap().mapcount, 0);
        assert_eq!(host.accounting_discrepancy(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let (mut host, snap) = setup(1024);
        let mut vm = KvmVm::new(OwnerId::new(0), snap, 1024, CowPolicy::Opportunistic);
        let mut t = SimTime::ZERO;
        for p in 0..4 {
            t = vm.access(t, p * 100, false, &mut host).unwrap().ready_at;
        }
        for p in 0..4 {
            t = vm.access(t, p * 100, false, &mut host).unwrap().ready_at;
        }
        let s = vm.stats();
        assert_eq!(s.major_faults, 4);
        assert_eq!(s.hits, 4);
    }
}
