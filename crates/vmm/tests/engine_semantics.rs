//! Engine-semantics tests: the uffd racing model, PV interactions,
//! and concurrent-scheduler fairness and tie-breaking.

use snapbpf_kernel::{AccessKind, CowPolicy, HostKernel, KernelConfig, KernelError};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_storage::{Disk, SsdModel};
use snapbpf_vmm::{
    run_concurrent, run_invocation, InvocationResult, MicroVm, NoUffd, Snapshot, UffdResolver,
};
use snapbpf_workloads::{InvocationTrace, Step, Workload};

fn setup(name: &str, scale: f64) -> (HostKernel, Snapshot, snapbpf_workloads::InvocationTrace) {
    let mut host = HostKernel::new(
        Disk::new(Box::new(SsdModel::micron_5300())),
        KernelConfig::default(),
    );
    let w = Workload::by_name(name).unwrap().scaled(scale);
    let (snap, _) = Snapshot::create(SimTime::ZERO, name, w.snapshot_pages(), &mut host).unwrap();
    (host, snap, w.trace())
}

/// Audits the host's page cache and each VM's page table against it.
fn audit(host: &HostKernel, vms: &[&MicroVm]) {
    host.cache().check();
    for vm in vms {
        vm.kvm().check(host);
    }
}

/// A resolver whose pages become available at a fixed future time —
/// lets us pin down the racing-vs-pre-installed split.
struct DelayedResolver {
    ready_at: SimTime,
}

impl UffdResolver for DelayedResolver {
    fn resolve(
        &mut self,
        _now: SimTime,
        _gpfn: u64,
        _host: &mut HostKernel,
    ) -> Result<SimTime, KernelError> {
        Ok(self.ready_at)
    }
}

#[test]
fn racing_uffd_faults_pay_the_round_trip() {
    let (mut host, snap, trace) = setup("html", 0.05);
    let round_trip = host.config().uffd_round_trip;

    // All data available far in the future: every fault races.
    let far = SimTime::from_millis(10_000);
    let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
    vm.kvm_mut().register_uffd(0, snap.memory_pages());
    let mut racing = DelayedResolver { ready_at: far };
    let r = run_invocation(SimTime::ZERO, &mut vm, &trace, &mut host, &mut racing).unwrap();
    // The final fault resolves no earlier than data-ready + copy.
    assert!(r.end_time >= far);

    // All data available in the past: every fault is pre-installed,
    // costs no round trip, and the run is enormously faster.
    let (mut host2, snap2, trace2) = setup("html", 0.05);
    let mut vm2 = MicroVm::restore(OwnerId::new(0), &snap2, CowPolicy::Opportunistic, false);
    vm2.kvm_mut().register_uffd(0, snap2.memory_pages());
    let mut instant = DelayedResolver {
        ready_at: SimTime::ZERO,
    };
    let r2 = run_invocation(SimTime::ZERO, &mut vm2, &trace2, &mut host2, &mut instant).unwrap();
    assert_eq!(r.uffd_resolved, r2.uffd_resolved);
    assert!(r2.e2e_latency < SimDuration::from_millis(50));
    // With zero waiting, the per-fault cost must exclude the round
    // trip: total < faults x round_trip.
    assert!(
        r2.e2e_latency < round_trip * r2.uffd_resolved,
        "{} vs {} faults x {round_trip}",
        r2.e2e_latency,
        r2.uffd_resolved
    );
    audit(&host, &[&vm]);
    audit(&host2, &[&vm2]);
}

#[test]
fn pv_and_uffd_interact_correctly() {
    // PV-marked allocations must bypass uffd entirely (the nested
    // fault resolves to anonymous memory before uffd interception is
    // even considered).
    let (mut host, snap, trace) = setup("image", 0.05);
    let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, true);
    vm.kvm_mut().register_uffd(0, snap.memory_pages());
    let mut instant = DelayedResolver {
        ready_at: SimTime::ZERO,
    };
    let r = run_invocation(SimTime::ZERO, &mut vm, &trace, &mut host, &mut instant).unwrap();
    assert!(r.stats.pv_anon_faults > 0);
    assert_eq!(
        r.stats.pv_anon_faults as usize,
        trace.ephemeral_page_list().len()
    );
    // uffd handled only the working set.
    assert_eq!(r.uffd_resolved as usize, trace.ws_page_list().len());
    audit(&host, &[&vm]);
}

#[test]
fn concurrent_scheduler_is_fair_and_exact() {
    let (mut host, snap, trace) = setup("pyaes", 0.05);
    let n = 5;
    let mut vms: Vec<MicroVm> = (0..n)
        .map(|i| MicroVm::restore(OwnerId::new(i), &snap, CowPolicy::Opportunistic, false))
        .collect();
    let mut vm_refs: Vec<&mut MicroVm> = vms.iter_mut().collect();
    let traces: Vec<&snapbpf_workloads::InvocationTrace> = (0..n).map(|_| &trace).collect();
    let mut rs: Vec<NoUffd> = vec![NoUffd; n as usize];
    let mut r_refs: Vec<&mut dyn UffdResolver> =
        rs.iter_mut().map(|x| x as &mut dyn UffdResolver).collect();
    // Stagger the starts.
    let starts: Vec<SimTime> = (0..n as u64).map(|i| SimTime::from_millis(i * 2)).collect();
    let results: Vec<InvocationResult> =
        run_concurrent(&starts, &mut vm_refs, &traces, &mut host, &mut r_refs).unwrap();

    assert_eq!(results.len(), n as usize);
    for (i, r) in results.iter().enumerate() {
        assert!(r.end_time >= starts[i]);
        assert_eq!(
            r.e2e_latency,
            r.end_time.saturating_since(starts[i]),
            "vm {i}: latency must be measured from its own start"
        );
    }
    // Later VMs benefit from the cache warmed by earlier ones.
    assert!(
        results[n as usize - 1].stats.major_faults <= results[0].stats.major_faults,
        "last VM should fault no more than the first"
    );
    audit(&host, &vms.iter().collect::<Vec<_>>());
}

#[test]
fn concurrent_with_different_traces_per_vm() {
    let (mut host, snap, _) = setup("html", 0.1);
    let w = Workload::by_name("html").unwrap().scaled(0.1);
    let t0 = w.trace_variant(0);
    let t1 = w.trace_variant(1);
    let mut vm_a = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
    let mut vm_b = MicroVm::restore(OwnerId::new(1), &snap, CowPolicy::Opportunistic, false);
    let mut ra = NoUffd;
    let mut rb = NoUffd;
    let results = run_concurrent(
        &[SimTime::ZERO; 2],
        &mut [&mut vm_a, &mut vm_b],
        &[&t0, &t1],
        &mut host,
        &mut [&mut ra, &mut rb],
    )
    .unwrap();
    assert_eq!(results.len(), 2);
    // The union of the two variants' pages landed in the cache —
    // strictly more than one variant's working set.
    assert!(host.cache().len() as usize > t0.ws_page_list().len());
    // And the variants genuinely differ.
    assert_ne!(t0.ws_page_list(), t1.ws_page_list());
    audit(&host, &[&vm_a, &vm_b]);
}

#[test]
fn invocation_against_warm_shared_cache_has_no_major_faults() {
    let (mut host, snap, trace) = setup("json", 0.05);
    // Warm the cache via an overt prefetch of the entire file.
    let total = snap.memory_pages();
    let out = host
        .ra_unbounded(SimTime::ZERO, snap.memory_file(), 0, total)
        .unwrap();
    let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
    let r = run_invocation(out.ready_at, &mut vm, &trace, &mut host, &mut NoUffd).unwrap();
    assert_eq!(r.stats.major_faults, 0);
    assert!(r.stats.minor_faults > 0);
    audit(&host, &[&vm]);
}

#[test]
fn concurrent_clock_ties_go_to_the_lower_slot() {
    // Two identical VMs start at the same instant on a cold cache. The
    // scheduler picks the earliest `(clock, slot)`, so VM 0 enters
    // first and takes the major fault on every page both touch; VM 1
    // finds those pages already in flight.
    let (mut host, snap, trace) = setup("json", 0.05);
    host.drop_all_caches().unwrap();
    let mut vm_a = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
    let mut vm_b = MicroVm::restore(OwnerId::new(1), &snap, CowPolicy::Opportunistic, false);
    let results = run_concurrent(
        &[SimTime::ZERO; 2],
        &mut [&mut vm_a, &mut vm_b],
        &[&trace, &trace],
        &mut host,
        &mut [&mut NoUffd, &mut NoUffd],
    )
    .unwrap();
    let (first, second) = (&results[0].stats, &results[1].stats);
    assert!(first.major_faults > 0);
    assert_eq!(
        second.major_faults, 0,
        "vm 0 must win the tie and fault every shared page in"
    );
    assert_eq!(first.minor_faults + first.major_faults, second.minor_faults);
    audit(&host, &[&vm_a, &vm_b]);
}

/// Replays `trace` on `vm` one step at a time straight through KVM,
/// returning how many steps exited to the host.
fn per_step_exits(
    start: SimTime,
    vm: &mut MicroVm,
    trace: &InvocationTrace,
    host: &mut HostKernel,
) -> usize {
    let (mut t, mut exits) = (start, 0);
    for &step in trace.steps() {
        let (gpfn, write) = match step {
            Step::Compute(d) => {
                t += d;
                continue;
            }
            Step::Access { gpfn, write } => (gpfn, write),
            Step::Alloc { gpfn } => (vm.guest().alloc_pfn(gpfn), true),
        };
        let out = vm.kvm_mut().access(t, gpfn, write, host).unwrap();
        exits += usize::from(out.kind != AccessKind::Hit);
        t = out.ready_at;
    }
    exits
}

/// The invariant the engine's replay jump rests on: once a VM has run
/// a trace to completion, every step of that trace is a hit on it.
/// Mappings only grow, or upgrade from a shared cache page to an
/// anonymous one, until teardown; mapped cache pages are never
/// evicted. Checked over every fault path a restore can set up, with
/// a second VM of the same snapshot running another input alongside
/// under a page-cache budget that forces evictions.
#[test]
fn a_completed_trace_replays_without_exits() {
    let scale = 0.02;
    for w in Workload::suite() {
        let w = w.scaled(scale);
        let (trace, other) = (w.trace(), w.trace_variant(1));
        for config in 0..32u32 {
            let bit = |b: u32| config & (1 << b) != 0;
            let (pv, uffd, overlay, anon_filter) = (bit(0), bit(1), bit(2), bit(3));
            let policy = if bit(4) {
                CowPolicy::ForcedWrite
            } else {
                CowPolicy::Opportunistic
            };
            let name = format!(
                "{} pv={pv} uffd={uffd} overlay={overlay} anon_filter={anon_filter} {policy:?}",
                w.name()
            );

            let budget = KernelConfig {
                page_cache_budget_pages: Some(trace.ws_page_list().len() as u64 / 4),
                ..KernelConfig::default()
            };
            let mut host = HostKernel::new(Disk::new(Box::new(SsdModel::micron_5300())), budget);
            let (snap, ready) =
                Snapshot::create(SimTime::ZERO, w.name(), w.snapshot_pages(), &mut host).unwrap();
            let mut vm = MicroVm::restore(OwnerId::new(0), &snap, policy, pv);
            let mut neighbour = MicroVm::restore(OwnerId::new(1), &snap, policy, pv);
            if uffd {
                vm.kvm_mut().register_uffd(0, snap.memory_pages());
            }
            if overlay {
                // The first cluster, served from a separate file.
                let c = trace.clusters()[0];
                let file = host.disk_mut().create_file("ws.overlay", c.len).unwrap();
                vm.kvm_mut().add_overlay(c.start, c.len, file, 0);
            }
            if anon_filter {
                vm.kvm_mut()
                    .add_anon_filter(trace.ephemeral_page_list().iter().copied());
            }
            let mut resolver = DelayedResolver { ready_at: ready };
            let results = run_concurrent(
                &[ready; 2],
                &mut [&mut vm, &mut neighbour],
                &[&trace, &other],
                &mut host,
                &mut [&mut resolver, &mut NoUffd],
            )
            .unwrap();
            assert!(
                results[0].stats.hits < trace.memory_steps() as u64,
                "{name}: the first run must fault"
            );
            assert!(host.cache().evictions() > 0, "{name}: the budget must bite");
            let exits = per_step_exits(results[0].end_time, &mut vm, &trace, &mut host);
            assert_eq!(exits, 0, "{name}");
            audit(&host, &[&vm, &neighbour]);
        }
    }
}
