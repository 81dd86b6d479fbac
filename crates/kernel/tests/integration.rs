//! Kernel-level integration tests: readahead ramping, memory
//! pressure and eviction, the prefetch cascade under adversarial map
//! contents, and accounting invariants across mixed workloads.

use snapbpf_ebpf::{MapDef, ProgramBuilder, Reg};
use snapbpf_kernel::{
    CowPolicy, HostKernel, KernelConfig, KernelError, KvmVm, PAGE_CACHE_ADD_HOOK,
};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{SimDuration, SimTime, Tracer};
use snapbpf_storage::{Disk, SsdModel};

fn kernel_with_memory(pages: u64) -> HostKernel {
    let cfg = KernelConfig {
        total_memory_pages: pages,
        ..KernelConfig::default()
    };
    HostKernel::new(Disk::new(Box::new(SsdModel::micron_5300())), cfg)
}

#[test]
fn eviction_reclaims_under_memory_pressure() {
    // 1024-page host; stream a 4096-page file through the cache.
    let mut k = kernel_with_memory(1024);
    k.install_tracer(&Tracer::noop());
    let f = k.disk_mut().create_file("big", 4096).unwrap();
    let mut t = SimTime::ZERO;
    for page in 0..4096 {
        t = k.read_file_page(t, f, page).unwrap().ready_at;
    }
    // The cache never exceeded the host and evictions happened.
    assert!(k.cache().len() <= 1024);
    assert!(k.tracer().counter("mem.cache.evictions") > 0);
    assert_eq!(k.accounting_discrepancy(), 0);
}

#[test]
fn anonymous_pages_reclaim_the_cache_then_fail_past_capacity() {
    // 1,124 pages round down to one 1,024-page unit of host memory.
    let mut k = kernel_with_memory(1024 + 100);
    let f = k.disk_mut().create_file("snap", 512).unwrap();
    let read = k.ra_unbounded(SimTime::ZERO, f, 0, 300).unwrap();
    // Completed reads are resident, so reclaim may take them.
    assert!(k.mincore(read.ready_at, f, 0, 300).iter().all(|&r| r));
    assert_eq!(k.cache().len(), 300);

    let owner = OwnerId::new(0);
    for page in 1..=1024u64 {
        let r = k.alloc_anon_page(owner);
        assert!(r.is_ok(), "anonymous page {page}: {:?}", r.err());
        // Free pages go first; the 725th page reclaims the cache.
        let reclaimed = if page <= 1024 - 300 { 0 } else { 300 };
        assert_eq!(k.cache().evictions(), reclaimed, "anonymous page {page}");
        assert_eq!(k.accounting_discrepancy(), 0);
    }
    assert!(k.cache().is_empty());
    assert_eq!(
        k.alloc_anon_page(owner).err(),
        Some(KernelError::OutOfMemory),
        "anonymous page 1025"
    );
    assert_eq!(k.anon_pages_of(owner), 1024);
    assert_eq!(k.accounting_discrepancy(), 0);
}

#[test]
fn mapped_pages_survive_pressure() {
    let mut k = kernel_with_memory(1024);
    let f = k.disk_mut().create_file("big", 4096).unwrap();
    let mut vm = KvmVm::new(OwnerId::new(0), f, 4096, CowPolicy::Opportunistic);
    // Map 64 pages into a VM, then create pressure.
    let mut t = SimTime::ZERO;
    for page in 0..64 {
        t = vm.access(t, page, false, &mut k).unwrap().ready_at;
    }
    for page in 1000..4000 {
        t = k.read_file_page(t, f, page).unwrap().ready_at;
    }
    // The VM's pages were never evicted out from under it.
    for page in 0..64 {
        let out = vm.access(t, page, false, &mut k).unwrap();
        assert_eq!(out.kind, snapbpf_kernel::AccessKind::Hit, "page {page}");
    }
    vm.teardown(&mut k).unwrap();
    assert_eq!(k.accounting_discrepancy(), 0);
}

#[test]
fn ra_unbounded_clips_at_eof_and_counts_once() {
    let mut k = kernel_with_memory(8 << 10);
    let f = k.disk_mut().create_file("f", 100).unwrap();
    let out = k.ra_unbounded(SimTime::ZERO, f, 90, 50).unwrap();
    assert!(out.ready_at > SimTime::ZERO);
    assert_eq!(k.cache().len(), 10, "only pages 90..100 exist");
    // Repeating is a no-op (all cached).
    let before = k.disk().read_requests();
    k.ra_unbounded(SimTime::from_millis(50), f, 90, 50).unwrap();
    assert_eq!(k.disk().read_requests(), before);
}

#[test]
fn prefetch_program_with_garbage_map_is_contained() {
    // A prefetch-style program whose map asks for an absurd range:
    // the kernel clips to EOF and survives; a bad file id surfaces
    // as a counted runtime error, not a crash.
    use snapbpf_ebpf::{AccessSize, HelperId, JmpCond};

    let mut k = kernel_with_memory(8 << 10);
    let f = k.disk_mut().create_file("snap", 256).unwrap();
    let m = k.create_map(MapDef::array(8, 8)).unwrap();
    // Garbage: count=1, cursor=0, start=1 << 40, len=u32::MAX.
    k.maps_mut().array_store_u64(m, 0, 1).unwrap();
    k.maps_mut().array_store_u64(m, 1, 0).unwrap();
    k.maps_mut().array_store_u64(m, 2, 1 << 40).unwrap();
    k.maps_mut().array_store_u64(m, 3, u32::MAX as u64).unwrap();

    let mut b = ProgramBuilder::new("garbage_prefetch");
    let out = b.label();
    b.store_imm(Reg::R10, -4, 2, AccessSize::B4)
        .load_map(Reg::R1, m)
        .mov(Reg::R2, Reg::R10)
        .add(Reg::R2, -4)
        .call(HelperId::MapLookup)
        .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
        .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
        .store_imm(Reg::R10, -4, 3, AccessSize::B4)
        .load_map(Reg::R1, m)
        .mov(Reg::R2, Reg::R10)
        .add(Reg::R2, -4)
        .call(HelperId::MapLookup)
        .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
        .load(Reg::R3, Reg::R0, 0, AccessSize::B8)
        .mov(Reg::R1, f.as_u32() as i64)
        .mov(Reg::R2, Reg::R6)
        .call_kfunc(snapbpf_kernel::KFUNC_SNAPBPF_PREFETCH)
        .bind(out)
        .unwrap()
        .mov(Reg::R0, 0)
        .exit();
    let probe = k
        .load_and_attach(PAGE_CACHE_ADD_HOOK, &b.build().unwrap())
        .unwrap();

    // Trigger: the absurd start clips to EOF — nothing beyond the
    // file is inserted, nothing panics, the program stays attached.
    k.trigger_access(SimTime::ZERO, f, 0).unwrap();
    assert!(k.cache().len() <= 256);
    assert!(k.probe_enabled(probe));
    assert_eq!(k.accounting_discrepancy(), 0);
}

#[test]
fn bad_kfunc_file_id_counts_runtime_error() {
    let mut k = kernel_with_memory(8 << 10);
    k.install_tracer(&Tracer::noop());
    let f = k.disk_mut().create_file("snap", 64).unwrap();

    let mut b = ProgramBuilder::new("bad_fd");
    b.mov(Reg::R1, 9999) // no such file
        .mov(Reg::R2, 0)
        .mov(Reg::R3, 8)
        .call_kfunc(snapbpf_kernel::KFUNC_SNAPBPF_PREFETCH)
        .mov(Reg::R0, 0)
        .exit();
    k.load_and_attach(PAGE_CACHE_ADD_HOOK, &b.build().unwrap())
        .unwrap();
    k.read_file_page(SimTime::ZERO, f, 0).unwrap();
    assert!(k.tracer().counter("ebpf.prog.errors") > 0);
}

#[test]
fn multiple_files_share_one_cache_fairly() {
    let mut k = kernel_with_memory(8 << 10);
    let a = k.disk_mut().create_file("a", 512).unwrap();
    let b = k.disk_mut().create_file("b", 512).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..100 {
        t = k.read_file_page(t, a, p).unwrap().ready_at;
        t = k.read_file_page(t, b, p).unwrap().ready_at;
    }
    let a_pages = k.cache().pages_of_file(a).count();
    let b_pages = k.cache().pages_of_file(b).count();
    assert!(a_pages >= 100);
    assert!(b_pages >= 100);
    k.drop_file_cache(a).unwrap();
    assert_eq!(k.cache().pages_of_file(a).count(), 0);
    assert!(k.cache().pages_of_file(b).count() >= 100);
}

#[test]
fn sequential_stream_is_cheaper_than_scattered() {
    // The readahead ramp makes long sequential streams far cheaper
    // per page than scattered access — the property Linux-RA's
    // Figure 3b advantage over Linux-NoRA rests on.
    let mut seq = kernel_with_memory(64 << 10);
    let f = seq.disk_mut().create_file("f", 8192).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..4096 {
        t = seq.read_file_page(t, f, p).unwrap().ready_at;
    }
    let seq_time = t;

    let mut rand = kernel_with_memory(64 << 10);
    let f2 = rand.disk_mut().create_file("f", 8192).unwrap();
    let mut t2 = SimTime::ZERO;
    for i in 0..4096u64 {
        let p = (i * 2654435761) % 8192; // scattered
        t2 = rand.read_file_page(t2, f2, p).unwrap().ready_at;
    }
    assert!(
        seq_time + SimDuration::from_millis(1) < t2,
        "sequential {seq_time} should beat scattered {t2}"
    );
}

#[test]
fn uffd_vm_and_cache_vm_coexist() {
    // One REAP-style VM (uffd, anonymous) and one SnapBPF-style VM
    // (page cache) against the same snapshot must not interfere.
    let mut k = kernel_with_memory(8 << 10);
    let f = k.disk_mut().create_file("snap", 1024).unwrap();
    let mut uffd_vm = KvmVm::new(OwnerId::new(0), f, 1024, CowPolicy::Opportunistic);
    uffd_vm.register_uffd(0, 1024);
    let mut cache_vm = KvmVm::new(OwnerId::new(1), f, 1024, CowPolicy::Opportunistic);

    let c = cache_vm.access(SimTime::ZERO, 5, false, &mut k).unwrap();
    let u = uffd_vm.access(c.ready_at, 5, false, &mut k).unwrap();
    assert_eq!(u.kind, snapbpf_kernel::AccessKind::Uffd);
    uffd_vm
        .uffd_install(u.ready_at, 5, u.ready_at, &mut k)
        .unwrap();

    // The cache VM shares; the uffd VM owns a private copy.
    let snap = k.memory_snapshot();
    assert_eq!(snap.anon_pages, 1);
    assert!(snap.page_cache_pages >= 1);
    uffd_vm.teardown(&mut k).unwrap();
    cache_vm.teardown(&mut k).unwrap();
    assert_eq!(k.accounting_discrepancy(), 0);
}
