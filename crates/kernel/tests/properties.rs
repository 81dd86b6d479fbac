//! Property-based tests for the host kernel: arbitrary interleavings
//! of reads, prefetches, cache drops, and VM faults must preserve
//! the accounting invariant and agree with a reference residency
//! model, and KVM's no-exit check must agree with its fault path.

use std::collections::HashSet;

use proptest::prelude::*;
use snapbpf_kernel::{AccessKind, CowPolicy, HostKernel, KernelConfig, KvmVm, PV_MIRROR_BIT};
use snapbpf_mem::{MemorySnapshot, OwnerId, PageKey, PageView};
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_storage::{Disk, FileId, SsdModel};

const FILE_PAGES: u64 = 256;

#[derive(Debug, Clone)]
enum KernelOp {
    Read(u64),
    Prefetch(u64, u64),
    VmRead(u64),
    VmWrite(u64),
    VmAlloc(u64),
    DropCaches,
    ToggleRa(bool),
}

fn kernel_ops() -> impl Strategy<Value = Vec<KernelOp>> {
    let page = 0u64..FILE_PAGES;
    prop::collection::vec(
        prop_oneof![
            page.clone().prop_map(KernelOp::Read),
            (page.clone(), 1u64..64).prop_map(|(s, n)| KernelOp::Prefetch(s, n)),
            page.clone().prop_map(KernelOp::VmRead),
            page.clone().prop_map(KernelOp::VmWrite),
            page.clone().prop_map(KernelOp::VmAlloc),
            Just(KernelOp::DropCaches),
            any::<bool>().prop_map(KernelOp::ToggleRa),
        ],
        1..120,
    )
}

/// Which restore features the VM under test carries.
#[derive(Debug, Clone, Copy)]
struct VmShape {
    pv_marking: bool,
    forced_write: bool,
    uffd: bool,
    overlay: bool,
    anon_filter: bool,
}

fn vm_shapes() -> impl Strategy<Value = VmShape> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(pv_marking, forced_write, uffd, overlay, anon_filter)| VmShape {
                pv_marking,
                forced_write,
                uffd,
                overlay,
                anon_filter,
            },
        )
}

/// A host with the snapshot file and a working-set file, and a VM of
/// `shape` on it (pages 64..128 uffd-registered, 128..160 overlaid,
/// every seventh page filtered to anonymous memory).
fn shaped_vm(shape: VmShape) -> (HostKernel, KvmVm, [FileId; 2]) {
    let mut host = HostKernel::new(
        Disk::new(Box::new(SsdModel::micron_5300())),
        KernelConfig::default(),
    );
    let snap = host.disk_mut().create_file("snap", FILE_PAGES).unwrap();
    let ws = host.disk_mut().create_file("ws", 32).unwrap();
    let policy = if shape.forced_write {
        CowPolicy::ForcedWrite
    } else {
        CowPolicy::Opportunistic
    };
    let mut vm = KvmVm::new(OwnerId::new(0), snap, FILE_PAGES, policy);
    if shape.uffd {
        vm.register_uffd(64, 64);
    }
    if shape.overlay {
        vm.add_overlay(128, 32, ws, 0);
    }
    if shape.anon_filter {
        vm.add_anon_filter((0..FILE_PAGES).step_by(7));
    }
    (host, vm, [snap, ws])
}

/// Everything a guest access can change on the host side.
fn host_view(
    host: &HostKernel,
    files: [FileId; 2],
) -> (MemorySnapshot, u64, Vec<Option<PageView>>) {
    let pages = files
        .iter()
        .flat_map(|&f| (0..FILE_PAGES).map(move |p| PageKey::new(f, p)))
        .map(|key| host.cache().get(key))
        .collect();
    (host.memory_snapshot(), host.disk().read_requests(), pages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `KvmVm::try_hit` retires an access exactly when `access` would
    /// report a hit, counting it identically, and a `false` leaves
    /// the VM and the host untouched. Two identical hosts run in
    /// lockstep: one probes with `try_hit` first, the other always
    /// takes `access`.
    #[test]
    fn try_hit_agrees_with_access(
        shape in vm_shapes(),
        // (page, write, alloc): an allocation is always a write,
        // mirror-marked under PV marking.
        accesses in prop::collection::vec((0u64..FILE_PAGES, any::<bool>(), any::<bool>()), 1..160),
    ) {
        let (mut probe_host, mut probe, files) = shaped_vm(shape);
        let (mut ref_host, mut reference, _) = shaped_vm(shape);
        let mut t = SimTime::ZERO;
        for (page, write, alloc) in accesses {
            let (raw, write): (u64, bool) = if alloc && shape.pv_marking {
                (page | PV_MIRROR_BIT, true)
            } else {
                (page, write || alloc)
            };
            let expected = reference.access(t, raw, write, &mut ref_host).unwrap();
            let (vm_before, host_before) = (probe.stats(), host_view(&probe_host, files));
            let mapped_before = probe.mapped_pages();
            let hit = probe.try_hit(raw, write);
            prop_assert_eq!(hit, expected.kind == AccessKind::Hit);
            if hit {
                prop_assert_eq!(expected.ready_at, t);
                prop_assert_eq!(expected.cpu, SimDuration::ZERO);
            } else {
                prop_assert_eq!(probe.stats(), vm_before);
                prop_assert_eq!(probe.mapped_pages(), mapped_before);
                prop_assert_eq!(host_view(&probe_host, files), host_before);
                let out = probe.access(t, raw, write, &mut probe_host).unwrap();
                prop_assert_eq!(out, expected);
            }
            let mut ready = expected.ready_at;
            if expected.kind == AccessKind::Uffd {
                // The userspace handler installs the page, as the
                // engine's resolver would.
                let data = t + SimDuration::from_micros(50);
                ready = reference.uffd_install(t, page, data, &mut ref_host).unwrap().ready_at;
                probe.uffd_install(t, page, data, &mut probe_host).unwrap();
            }
            prop_assert_eq!(probe.stats(), reference.stats());
            prop_assert_eq!(host_view(&probe_host, files), host_view(&ref_host, files));
            t = ready + SimDuration::from_micros(1);
        }
    }

    /// Accounting (used pages = cache + anon) and the per-file
    /// resident count hold across arbitrary operation interleavings,
    /// with and without a page-cache budget (the budgeted run
    /// exercises pressure eviction), and without a budget residency
    /// agrees with a model under RA-off single-page reads.
    #[test]
    fn kernel_invariants(ops in kernel_ops()) {
        for budget in [None, Some(FILE_PAGES / 4)] {
            let mut host = HostKernel::new(
                Disk::new(Box::new(SsdModel::micron_5300())),
                KernelConfig {
                    page_cache_budget_pages: budget,
                    ..KernelConfig::default()
                },
            );
            let f = host.disk_mut().create_file("f", FILE_PAGES).unwrap();
            let mut vm = KvmVm::new(OwnerId::new(0), f, FILE_PAGES, CowPolicy::Opportunistic);
            let mut t = SimTime::ZERO;
            // Reference model of which pages *must* be cached (lower
            // bound: pages explicitly requested while not dropped).
            let mut must_cache: HashSet<u64> = HashSet::new();

            for op in &ops {
                t += SimDuration::from_micros(100);
                match *op {
                    KernelOp::Read(p) => {
                        let out = host.read_file_page(t, f, p).unwrap();
                        prop_assert!(out.ready_at >= t);
                        must_cache.insert(p);
                    }
                    KernelOp::Prefetch(s, n) => {
                        host.ra_unbounded(t, f, s, n).unwrap();
                        for p in s..(s + n).min(FILE_PAGES) {
                            must_cache.insert(p);
                        }
                    }
                    KernelOp::VmRead(p) => {
                        let out = vm.access(t, p, false, &mut host).unwrap();
                        prop_assert!(out.ready_at >= t);
                        must_cache.insert(p);
                    }
                    KernelOp::VmWrite(p) => {
                        vm.access(t, p, true, &mut host).unwrap();
                    }
                    KernelOp::VmAlloc(p) => {
                        vm.access(t, p | snapbpf_kernel::PV_MIRROR_BIT, true, &mut host)
                            .unwrap();
                    }
                    KernelOp::DropCaches => {
                        host.drop_all_caches().unwrap();
                        must_cache.clear();
                    }
                    KernelOp::ToggleRa(on) => host.set_readahead(on),
                }
                prop_assert_eq!(host.accounting_discrepancy(), 0);
                // `f` is the only file, so every cached page is one
                // of its pages, and the O(1) per-file count that
                // locality placement reads matches a full scan.
                let cache = host.cache();
                prop_assert_eq!(cache.len(), cache.file_page_count(f));
                prop_assert_eq!(cache.len(), cache.pages_of_file(f).count() as u64);
                cache.check();
                vm.check(&host);
            }

            // Every explicitly requested, never-dropped page is cached
            // or was CoW'd (a VM write replaces the mapping but the
            // cache page remains unless dropped) — i.e. present. A
            // budget may evict such pages, so only the unbudgeted run
            // checks this.
            if budget.is_none() {
                for p in must_cache {
                    prop_assert!(
                        host.page_state(f, p).is_some() || vm.is_mapped(p),
                        "page {p} vanished"
                    );
                }
            }

            vm.teardown(&mut host).unwrap();
            prop_assert_eq!(host.accounting_discrepancy(), 0);
            host.cache().check();
            vm.check(&host);
            prop_assert_eq!(vm.mapped_pages(), 0);
        }
    }

    /// mincore agrees with page_state for arbitrary prefetch
    /// patterns once all I/O has drained.
    #[test]
    fn mincore_matches_page_state(ranges in prop::collection::vec((0u64..FILE_PAGES, 1u64..32), 0..20)) {
        let mut host = HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        );
        let f = host.disk_mut().create_file("f", FILE_PAGES).unwrap();
        let mut t = SimTime::ZERO;
        for &(s, n) in &ranges {
            let out = host.ra_unbounded(t, f, s, n).unwrap();
            t = out.ready_at;
        }
        let late = t + SimDuration::from_secs(10);
        let residency = host.mincore(late, f, 0, FILE_PAGES);
        for (p, resident) in residency.iter().enumerate() {
            let state = host.page_state(f, p as u64);
            prop_assert_eq!(*resident, state.is_some(), "page {}", p);
        }
    }
}
