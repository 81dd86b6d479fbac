//! Invocation replay engine.
//!
//! Replays a workload's [`InvocationTrace`] against a restored
//! [`MicroVm`] over virtual time: compute advances the vCPU clock,
//! page accesses go through KVM's nested-fault path (possibly
//! stalling on snapshot I/O), allocations flow through the guest
//! allocator (mirror-marked under PV PTE marking), and userfaultfd
//! faults bounce to a strategy-provided userspace handler.
//!
//! For the paper's concurrent experiments, [`run_concurrent`]
//! interleaves several VMs deterministically in virtual-time order —
//! each VM has its own pinned vCPU (as in the paper's methodology),
//! so they only contend on the shared disk and page cache.
//!
//! Every replay loop advances a VM one *entry* at a time, as KVM
//! runs a guest: an event executes the pending step, which may exit
//! to the host, then keeps running the guest through compute and
//! accesses to pages it already maps, and stops at the next step
//! that needs the host. Those no-exit steps touch only VM-private
//! state, so the virtual-time order of every shared page-cache, disk
//! and allocator operation is the same as stepping one trace step
//! per event. A VM replaying the trace it last completed takes no
//! exit at all and retires the whole trace in its first entry
//! without walking the steps.

use snapbpf_kernel::{AccessKind, HostKernel, KernelError, VmMemStats};
use snapbpf_sim::{sandbox_tid, Metric, SimDuration, SimTime};
use snapbpf_workloads::{InvocationTrace, Step};

use crate::microvm::MicroVm;

/// Bumps the per-fault-kind metrics counters for one guest access.
fn note_access(host: &HostKernel, kind: AccessKind) {
    let trace = host.tracer();
    if !trace.is_enabled() {
        return;
    }
    match kind {
        AccessKind::Hit => {}
        AccessKind::PvAnon => trace.incr(Metric::VmmGuestPvAnonFaults),
        AccessKind::Minor => trace.incr(Metric::VmmGuestMinorFaults),
        AccessKind::Major => trace.incr(Metric::VmmGuestMajorFaults),
        AccessKind::CowBreak => trace.incr(Metric::VmmGuestCowBreaks),
        AccessKind::Uffd => trace.incr(Metric::VmmUffdFaults),
    }
}

/// Userspace handler for userfaultfd faults (REAP / Faast).
///
/// Given a faulting guest page, the handler returns the time at
/// which it has the page's bytes available in its userspace buffer —
/// immediately for a prefetched page, or after disk I/O for a miss.
pub trait UffdResolver {
    /// Resolves the data for `gpfn`, returning when the bytes are
    /// available to copy.
    ///
    /// # Errors
    ///
    /// Kernel errors (I/O) propagate and abort the invocation.
    fn resolve(
        &mut self,
        now: SimTime,
        gpfn: u64,
        host: &mut HostKernel,
    ) -> Result<SimTime, KernelError>;
}

/// A resolver for configurations that must never see a uffd fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoUffd;

impl UffdResolver for NoUffd {
    fn resolve(
        &mut self,
        _now: SimTime,
        gpfn: u64,
        _host: &mut HostKernel,
    ) -> Result<SimTime, KernelError> {
        panic!("unexpected userfaultfd fault on gpfn {gpfn} (no uffd registered)");
    }
}

/// Result of one replayed invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationResult {
    /// When the invocation finished.
    pub end_time: SimTime,
    /// End-to-end latency from the invocation's start.
    pub e2e_latency: SimDuration,
    /// KVM fault statistics accumulated during the run.
    pub stats: VmMemStats,
    /// Faults resolved through the userspace handler.
    pub uffd_resolved: u64,
}

/// Replays `trace` on `vm` starting at `start`.
///
/// # Errors
///
/// Kernel errors (I/O, memory exhaustion) propagate.
pub fn run_invocation(
    start: SimTime,
    vm: &mut MicroVm,
    trace: &InvocationTrace,
    host: &mut HostKernel,
    uffd: &mut dyn UffdResolver,
) -> Result<InvocationResult, KernelError> {
    let mut replay = Replay::new(start);
    while !replay.is_done(trace) {
        replay.enter(vm, trace, host, uffd)?;
    }
    Ok(replay.result(vm))
}

/// Where one invocation's replay stands. [`run_invocation`],
/// [`run_concurrent`] and [`InvocationCursor`] all advance through
/// [`Replay::enter`], so they share one definition of an event: one
/// VM entry.
struct Replay {
    next_step: usize,
    t: SimTime,
    start: SimTime,
    uffd_resolved: u64,
    /// Steps walked one by one rather than retired by the jump; tests
    /// read it to tell the two apart.
    #[cfg_attr(not(test), allow(dead_code))]
    walked: usize,
}

impl Replay {
    fn new(start: SimTime) -> Replay {
        Replay {
            next_step: 0,
            t: start,
            start,
            uffd_resolved: 0,
            walked: 0,
        }
    }

    fn is_done(&self, trace: &InvocationTrace) -> bool {
        self.next_step >= trace.steps().len()
    }

    /// One VM entry: executes the pending step, which may exit to the
    /// host, then runs on through every following step that needs no
    /// exit (see [`run_in_guest`]). The clock stops at the start of
    /// the next step that needs the host. Does nothing once done.
    ///
    /// A VM that already replayed this very trace to completion maps
    /// every page the trace touches, with the permission each step
    /// needs, so the whole replay is one entry without an exit. It
    /// then retires in one go: the clock advances by the trace's
    /// compute and the hit and allocation counters by its step
    /// counts, exactly as the step loop would.
    fn enter(
        &mut self,
        vm: &mut MicroVm,
        trace: &InvocationTrace,
        host: &mut HostKernel,
        uffd: &mut dyn UffdResolver,
    ) -> Result<(), KernelError> {
        let steps = trace.steps();
        let Some(&step) = steps.get(self.next_step) else {
            return Ok(());
        };
        if self.next_step == 0 && vm.completed(trace) {
            self.t += trace.step_compute();
            vm.kvm_mut().count_hits(trace.memory_steps() as u64);
            vm.guest_mut().count_allocs(trace.alloc_steps() as u64);
            self.next_step = steps.len();
            return Ok(());
        }
        let first = self.next_step;
        self.t = advance(self.t, vm, step, host, uffd, &mut self.uffd_resolved)?;
        self.next_step += 1;
        while let Some(t) = steps
            .get(self.next_step)
            .and_then(|&step| run_in_guest(self.t, vm, step))
        {
            self.t = t;
            self.next_step += 1;
        }
        self.walked += self.next_step - first;
        if self.is_done(trace) {
            vm.set_completed(trace);
        }
        Ok(())
    }

    fn result(&self, vm: &MicroVm) -> InvocationResult {
        InvocationResult {
            end_time: self.t,
            e2e_latency: self.t.saturating_since(self.start),
            stats: vm.kvm().stats(),
            uffd_resolved: self.uffd_resolved,
        }
    }
}

/// Retires `step` inside the guest when it needs no VM exit —
/// compute, or an access or allocation that hits a page the VM
/// already maps — returning the new vCPU time. Returns `None`, with
/// the VM unchanged, when the step needs the host.
fn run_in_guest(t: SimTime, vm: &mut MicroVm, step: Step) -> Option<SimTime> {
    match step {
        Step::Compute(d) => Some(t + d),
        Step::Access { gpfn, write } => vm.kvm_mut().try_hit(gpfn, write).then_some(t),
        Step::Alloc { gpfn } => {
            let gpfn_as_mapped = vm.guest().alloc_pfn(gpfn);
            if !vm.kvm_mut().try_hit(gpfn_as_mapped, true) {
                return None;
            }
            vm.guest_mut().alloc_page(gpfn);
            Some(t)
        }
    }
}

/// Executes one step, returning the new vCPU time.
fn advance(
    t: SimTime,
    vm: &mut MicroVm,
    step: Step,
    host: &mut HostKernel,
    uffd: &mut dyn UffdResolver,
    uffd_resolved: &mut u64,
) -> Result<SimTime, KernelError> {
    match step {
        Step::Compute(d) => Ok(t + d),
        Step::Access { gpfn, write } => {
            let out = vm.kvm_mut().access(t, gpfn, write, host)?;
            note_access(host, out.kind);
            if out.kind == AccessKind::Uffd {
                Ok(resolve_uffd(
                    t,
                    out.cpu,
                    gpfn,
                    vm,
                    host,
                    uffd,
                    uffd_resolved,
                )?)
            } else {
                Ok(out.ready_at)
            }
        }
        Step::Alloc { gpfn } => {
            let gpfn_as_mapped = vm.guest_mut().alloc_page(gpfn);
            let out = vm.kvm_mut().access(t, gpfn_as_mapped, true, host)?;
            note_access(host, out.kind);
            if out.kind == AccessKind::Uffd {
                // Allocation faults land in the uffd range too for
                // uffd-based restores (REAP cannot tell allocations
                // apart — exactly the semantic gap of §2.2).
                Ok(resolve_uffd(
                    t,
                    out.cpu,
                    gpfn,
                    vm,
                    host,
                    uffd,
                    uffd_resolved,
                )?)
            } else {
                Ok(out.ready_at)
            }
        }
    }
}

/// Resolves a userfaultfd fault through the userspace handler.
///
/// REAP-style handlers *pre-install* prefetched pages eagerly: when
/// the page's data arrived in the handler's buffer before the guest
/// touched it, the install already happened in the background and
/// the access costs only the fault exit — no userspace round trip on
/// the critical path. Only accesses that race ahead of the prefetch
/// stream (or miss it entirely) pay the full round trip plus copy.
fn resolve_uffd(
    t: SimTime,
    fault_cpu: snapbpf_sim::SimDuration,
    gpfn: u64,
    vm: &mut MicroVm,
    host: &mut HostKernel,
    uffd: &mut dyn UffdResolver,
    uffd_resolved: &mut u64,
) -> Result<SimTime, KernelError> {
    let fault_time = t + fault_cpu;
    let data_ready = uffd.resolve(fault_time, gpfn, host)?;
    *uffd_resolved += 1;
    if data_ready <= fault_time {
        // Pre-installed in the background; account the anonymous
        // page but charge no round trip.
        vm.kvm_mut()
            .uffd_install(fault_time, gpfn, data_ready, host)?;
        host.tracer()
            .observe_duration(Metric::VmmUffdWaitNs, SimDuration::ZERO);
        Ok(fault_time)
    } else {
        let round_trip = host.config().uffd_round_trip;
        let installed =
            vm.kvm_mut()
                .uffd_install(fault_time + round_trip, gpfn, data_ready, host)?;
        let done = installed.ready_at.max(fault_time + round_trip);
        let trace = host.tracer();
        trace.observe_duration(Metric::VmmUffdWaitNs, done.saturating_since(fault_time));
        if trace.events_enabled() {
            trace.span(
                "vmm",
                "uffd-round-trip",
                sandbox_tid(vm.owner().as_u32()),
                fault_time,
                done,
                vec![("gpfn", gpfn.into())],
            );
        }
        Ok(done)
    }
}

/// An in-flight invocation that can be advanced one VM entry at a
/// time.
///
/// [`run_invocation`] and [`run_concurrent`] replay fixed sets of
/// invocations to completion; a fleet scheduler instead interleaves
/// *ongoing* invocations with request arrivals, sandbox reuse, and
/// evictions. `InvocationCursor` owns everything one invocation
/// needs — the microVM, its uffd resolver, and the trace — and
/// exposes the vCPU clock so a scheduler can always advance the
/// globally earliest event (keeping disk submissions in virtual-time
/// order, the determinism contract of the concurrent engine).
pub struct InvocationCursor {
    vm: MicroVm,
    resolver: Box<dyn UffdResolver>,
    trace: InvocationTrace,
    replay: Replay,
}

/// Builds an [`InvocationCursor`]: the microVM and trace are
/// mandatory, the start time defaults to [`SimTime::ZERO`], and the
/// resolver defaults to [`NoUffd`] — so the common no-uffd case reads
/// `InvocationCursor::builder(vm, trace).starting_at(t).begin()`.
pub struct InvocationCursorBuilder {
    vm: MicroVm,
    trace: InvocationTrace,
    start: SimTime,
    resolver: Box<dyn UffdResolver>,
}

impl InvocationCursorBuilder {
    /// Sets when the invocation begins guest execution (typically
    /// the restore's ready instant).
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> InvocationCursorBuilder {
        self.start = start;
        self
    }

    /// Sets the userspace fault handler (REAP/Faast-style restores).
    #[must_use]
    pub fn with_resolver(mut self, resolver: Box<dyn UffdResolver>) -> InvocationCursorBuilder {
        self.resolver = resolver;
        self
    }

    /// Finalizes the cursor, positioned before the trace's first
    /// step.
    pub fn begin(self) -> InvocationCursor {
        InvocationCursor {
            vm: self.vm,
            resolver: self.resolver,
            trace: self.trace,
            replay: Replay::new(self.start),
        }
    }
}

impl InvocationCursor {
    /// Starts building an invocation of `trace` on `vm` (see
    /// [`InvocationCursorBuilder`]).
    pub fn builder(vm: MicroVm, trace: InvocationTrace) -> InvocationCursorBuilder {
        InvocationCursorBuilder {
            vm,
            trace,
            start: SimTime::ZERO,
            resolver: Box::new(NoUffd),
        }
    }

    /// The invocation's vCPU clock (completion time once done).
    pub fn clock(&self) -> SimTime {
        self.replay.t
    }

    /// When the invocation started.
    pub fn start(&self) -> SimTime {
        self.replay.start
    }

    /// Whether every step of the trace has executed.
    pub fn is_done(&self) -> bool {
        self.replay.is_done(&self.trace)
    }

    /// Enters the guest once: executes the pending step, which may
    /// exit to the host (a nested page fault, a CoW break, a
    /// userfaultfd round trip), then keeps running the guest for as
    /// long as it needs no exit — compute, and accesses to pages the
    /// VM already maps (any access to an anonymous page, a read of a
    /// shared page-cache page). [`InvocationCursor::clock`] then
    /// stops at the start of the next step that needs the host, so
    /// one scheduler event is one VM entry, not one trace step. Does
    /// nothing once done.
    ///
    /// The steps run ahead touch only this VM's mappings, hit count
    /// and guest allocator counters, which nothing outside the VM
    /// reads before its next exit; every step with a shared effect
    /// still runs when this cursor is the scheduler's earliest event.
    ///
    /// # Errors
    ///
    /// Kernel errors (I/O, memory exhaustion) propagate.
    pub fn step(&mut self, host: &mut HostKernel) -> Result<(), KernelError> {
        self.replay
            .enter(&mut self.vm, &self.trace, host, self.resolver.as_mut())
    }

    /// Finishes the invocation, handing back the sandbox (for reuse
    /// or teardown) together with its result.
    ///
    /// # Panics
    ///
    /// Panics if the invocation has steps left.
    pub fn finish(self) -> (MicroVm, Box<dyn UffdResolver>, InvocationResult) {
        assert!(self.is_done(), "finish() before the trace completed");
        let result = self.replay.result(&self.vm);
        (self.vm, self.resolver, result)
    }

    /// Abandons the invocation mid-flight (host crash in a fleet
    /// simulation), handing back the sandbox for teardown. Unlike
    /// [`InvocationCursor::finish`] this never panics: remaining
    /// trace steps are simply discarded.
    pub fn abort(self) -> (MicroVm, Box<dyn UffdResolver>) {
        (self.vm, self.resolver)
    }
}

/// One VM's progress in a concurrent run.
struct VmCursor<'a> {
    vm: &'a mut MicroVm,
    trace: &'a InvocationTrace,
    replay: Replay,
}

/// Replays one invocation on each VM concurrently, interleaving VM
/// entries in virtual-time order (the VM whose vCPU clock is furthest
/// behind enters next). `starts[i]` is when VM `i` begins guest
/// execution (restores complete at different times). Returns per-VM
/// results in input order.
///
/// # Errors
///
/// Kernel errors propagate.
///
/// # Panics
///
/// Panics if `vms`, `traces`, `starts`, and `resolvers` have
/// different lengths.
pub fn run_concurrent(
    starts: &[SimTime],
    vms: &mut [&mut MicroVm],
    traces: &[&InvocationTrace],
    host: &mut HostKernel,
    resolvers: &mut [&mut dyn UffdResolver],
) -> Result<Vec<InvocationResult>, KernelError> {
    assert_eq!(vms.len(), traces.len(), "one trace per VM");
    assert_eq!(vms.len(), starts.len(), "one start time per VM");
    assert_eq!(vms.len(), resolvers.len(), "one resolver per VM");

    let mut cursors: Vec<VmCursor<'_>> = vms
        .iter_mut()
        .zip(traces)
        .zip(starts)
        .map(|((vm, trace), &start)| VmCursor {
            vm,
            trace,
            replay: Replay::new(start),
        })
        .collect();

    // Pick the unfinished VM with the earliest vCPU clock; ties
    // break on index for determinism.
    while let Some(i) = cursors
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.replay.is_done(c.trace))
        .min_by_key(|(i, c)| (c.replay.t, *i))
        .map(|(i, _)| i)
    {
        let c = &mut cursors[i];
        c.replay.enter(c.vm, c.trace, host, resolvers[i])?;
    }

    Ok(cursors.iter().map(|c| c.replay.result(c.vm)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use snapbpf_kernel::{CowPolicy, KernelConfig};
    use snapbpf_mem::OwnerId;
    use snapbpf_storage::{Disk, SsdModel};
    use snapbpf_workloads::Workload;

    fn setup(name: &str, scale: f64) -> (HostKernel, Snapshot, InvocationTrace) {
        let mut host = HostKernel::new(
            Disk::new(Box::new(SsdModel::micron_5300())),
            KernelConfig::default(),
        );
        let w = Workload::by_name(name).unwrap().scaled(scale);
        let (snap, _) =
            Snapshot::create(SimTime::ZERO, name, w.snapshot_pages(), &mut host).unwrap();
        (host, snap, w.trace())
    }

    /// A uffd handler whose data is always ready; counts its calls.
    struct InstantResolver {
        calls: u64,
    }

    impl UffdResolver for InstantResolver {
        fn resolve(
            &mut self,
            now: SimTime,
            _gpfn: u64,
            _host: &mut HostKernel,
        ) -> Result<SimTime, KernelError> {
            self.calls += 1;
            Ok(now)
        }
    }

    #[test]
    fn invocation_completes_and_latency_exceeds_compute() {
        let (mut host, snap, trace) = setup("json", 0.1);
        let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let r = run_invocation(SimTime::ZERO, &mut vm, &trace, &mut host, &mut NoUffd).unwrap();
        assert!(r.e2e_latency > trace.total_compute());
        assert!(r.stats.major_faults > 0, "cold start must fault");
        assert_eq!(r.uffd_resolved, 0);
    }

    #[test]
    fn warm_cache_invocation_is_faster() {
        let (mut host, snap, trace) = setup("json", 0.1);
        let mut cold_vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let cold =
            run_invocation(SimTime::ZERO, &mut cold_vm, &trace, &mut host, &mut NoUffd).unwrap();

        let mut warm_vm = MicroVm::restore(OwnerId::new(1), &snap, CowPolicy::Opportunistic, false);
        let warm =
            run_invocation(cold.end_time, &mut warm_vm, &trace, &mut host, &mut NoUffd).unwrap();
        assert!(
            warm.e2e_latency < cold.e2e_latency,
            "warm {} should beat cold {}",
            warm.e2e_latency,
            cold.e2e_latency
        );
        assert!(warm.stats.minor_faults > 0);
        assert_eq!(warm.stats.major_faults, 0, "everything came from the cache");
    }

    #[test]
    fn pv_marking_spares_allocation_io() {
        let (mut host, snap, trace) = setup("image", 0.05); // allocation-heavy
        let mut plain = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let r1 = run_invocation(SimTime::ZERO, &mut plain, &trace, &mut host, &mut NoUffd).unwrap();
        let reads_plain = host.disk().read_bytes();

        // Fresh host so the cache is cold again.
        let (mut host2, snap2, trace2) = setup("image", 0.05);
        let mut pv = MicroVm::restore(OwnerId::new(0), &snap2, CowPolicy::Opportunistic, true);
        let r2 = run_invocation(SimTime::ZERO, &mut pv, &trace2, &mut host2, &mut NoUffd).unwrap();
        let reads_pv = host2.disk().read_bytes();

        assert!(r2.stats.pv_anon_faults > 0);
        assert!(
            reads_pv < reads_plain,
            "PV marking must avoid snapshot reads for allocations"
        );
        assert!(r2.e2e_latency < r1.e2e_latency);
    }

    #[test]
    fn uffd_resolver_is_consulted() {
        let (mut host, snap, trace) = setup("html", 0.1);
        let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        vm.kvm_mut().register_uffd(0, snap.memory_pages());
        let mut resolver = InstantResolver { calls: 0 };
        let r = run_invocation(SimTime::ZERO, &mut vm, &trace, &mut host, &mut resolver).unwrap();
        assert!(r.uffd_resolved > 0);
        assert_eq!(r.uffd_resolved, resolver.calls);
        assert_eq!(r.stats.major_faults, 0, "no page-cache I/O under uffd");
        // All installed memory is anonymous.
        assert!(host.memory_snapshot().anon_pages >= r.uffd_resolved);
    }

    #[test]
    fn concurrent_vms_share_cache() {
        let (mut host, snap, trace) = setup("html", 0.1);
        let mut vm_a = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let mut vm_b = MicroVm::restore(OwnerId::new(1), &snap, CowPolicy::Opportunistic, false);
        let mut r_a = NoUffd;
        let mut r_b = NoUffd;
        let results = run_concurrent(
            &[SimTime::ZERO; 2],
            &mut [&mut vm_a, &mut vm_b],
            &[&trace, &trace],
            &mut host,
            &mut [&mut r_a, &mut r_b],
        )
        .unwrap();
        assert_eq!(results.len(), 2);
        // Between the two VMs, each page is read from disk once.
        let total_major = results.iter().map(|r| r.stats.major_faults).sum::<u64>();
        let total_minor = results.iter().map(|r| r.stats.minor_faults).sum::<u64>();
        assert!(total_minor > 0, "the second VM must hit the shared cache");
        let unique_reads =
            trace.ws_page_list().len() as u64 + trace.ephemeral_page_list().len() as u64;
        assert!(
            total_major <= unique_reads + 64, // readahead may add a window
            "majors {total_major} vs unique pages {unique_reads}"
        );
        assert!(host.memory_snapshot().cow_pages as i64 >= 0);
    }

    #[test]
    fn concurrent_determinism() {
        let run = || {
            let (mut host, snap, trace) = setup("pyaes", 0.05);
            let mut vms: Vec<MicroVm> = (0..4)
                .map(|i| MicroVm::restore(OwnerId::new(i), &snap, CowPolicy::Opportunistic, false))
                .collect();
            let mut vm_refs: Vec<&mut MicroVm> = vms.iter_mut().collect();
            let traces: Vec<&InvocationTrace> = (0..4).map(|_| &trace).collect();
            let mut r: Vec<NoUffd> = vec![NoUffd; 4];
            let mut r_refs: Vec<&mut dyn UffdResolver> =
                r.iter_mut().map(|x| x as &mut dyn UffdResolver).collect();
            run_concurrent(
                &[SimTime::ZERO; 4],
                &mut vm_refs,
                &traces,
                &mut host,
                &mut r_refs,
            )
            .unwrap()
            .iter()
            .map(|x| x.e2e_latency.as_nanos())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The reference replay: one event per trace step.
    fn replay_per_step(
        start: SimTime,
        vm: &mut MicroVm,
        trace: &InvocationTrace,
        host: &mut HostKernel,
        uffd: &mut dyn UffdResolver,
    ) -> InvocationResult {
        let (mut t, mut uffd_resolved) = (start, 0);
        for &step in trace.steps() {
            t = advance(t, vm, step, host, uffd, &mut uffd_resolved).unwrap();
        }
        InvocationResult {
            end_time: t,
            e2e_latency: t.saturating_since(start),
            stats: vm.kvm().stats(),
            uffd_resolved,
        }
    }

    /// Drives `trace` through an [`InvocationCursor`], checking that
    /// each `step` is one VM entry; returns the result, the numbers of
    /// exits and entries, and the VM.
    fn replay_by_cursor(
        start: SimTime,
        vm: MicroVm,
        trace: &InvocationTrace,
        host: &mut HostKernel,
        resolver: Box<dyn UffdResolver>,
    ) -> (InvocationResult, u64, u64, MicroVm) {
        let hits_before = vm.kvm().stats().hits;
        let accesses = trace
            .steps()
            .iter()
            .filter(|s| !matches!(s, Step::Compute(_)))
            .count() as u64;
        let mut cursor = InvocationCursor::builder(vm, trace.clone())
            .starting_at(start)
            .with_resolver(resolver)
            .begin();
        assert_eq!(cursor.start(), start);
        let mut entries = 0;
        while !cursor.is_done() {
            cursor.step(host).unwrap();
            entries += 1;
        }
        let before_done = cursor.clock();
        cursor.step(host).unwrap(); // no-op past the end
        assert_eq!(cursor.clock(), before_done);
        let (vm, _resolver, result) = cursor.finish();
        // Every entry but possibly the first begins with an exit.
        let exits = accesses - (result.stats.hits - hits_before);
        assert!(
            (exits..=exits + 1).contains(&entries),
            "{entries} entries for {exits} exits"
        );
        (result, exits, entries, vm)
    }

    /// What a VM ran before the compared invocation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Warm {
        /// Nothing: a cold start.
        Cold,
        /// A fresh generation of this input variant of the trace —
        /// equal to the compared trace for variant 0, but not the
        /// same value, so the replay steps.
        ByVariant(u32),
        /// The compared trace value itself, so the replay jumps.
        BySameTrace,
    }

    #[test]
    fn cursor_matches_run_invocation() {
        struct Case {
            workload: &'static str,
            policy: CowPolicy,
            pv: bool,
            uffd: bool,
            warm: Warm,
        }
        let case = |workload, policy, pv, uffd, warm| Case {
            workload,
            policy,
            pv,
            uffd,
            warm,
        };
        use CowPolicy::{ForcedWrite, Opportunistic};
        use Warm::{BySameTrace, ByVariant, Cold};
        let cases = [
            case("json", Opportunistic, false, false, Cold),
            case("image", Opportunistic, true, false, Cold),
            case("image", ForcedWrite, false, false, Cold),
            case("html", Opportunistic, false, true, Cold),
            case("json", Opportunistic, false, false, ByVariant(0)),
            case("image", Opportunistic, true, false, ByVariant(0)),
            // Another input writes pages the first one only read:
            // CoW breaks on shared cache pages must still exit.
            case("json", Opportunistic, false, false, ByVariant(1)),
            case("json", Opportunistic, false, false, BySameTrace),
            case("image", Opportunistic, true, false, BySameTrace),
            case("image", ForcedWrite, false, false, BySameTrace),
            case("html", Opportunistic, false, true, BySameTrace),
        ];
        for c in cases {
            let name = format!(
                "{} {:?} pv={} uffd={} warm={:?}",
                c.workload, c.policy, c.pv, c.uffd, c.warm
            );
            // Per step, run_invocation, cursor: each on a fresh host.
            // Each yields the result and the guest's allocator.
            let mut results = Vec::new();
            for driver in 0..3 {
                let (mut host, snap, trace) = setup(c.workload, 0.05);
                let mut vm = MicroVm::restore(OwnerId::new(0), &snap, c.policy, c.pv);
                let mut resolver: Box<dyn UffdResolver> = if c.uffd {
                    vm.kvm_mut().register_uffd(0, snap.memory_pages());
                    Box::new(InstantResolver { calls: 0 })
                } else {
                    Box::new(NoUffd)
                };
                let mut start = SimTime::ZERO;
                let first = match c.warm {
                    Cold => None,
                    ByVariant(variant) => {
                        let w = Workload::by_name(c.workload).unwrap().scaled(0.05);
                        Some(w.trace_variant(variant))
                    }
                    BySameTrace => Some(trace.clone()),
                };
                if let Some(first) = first {
                    let first =
                        run_invocation(start, &mut vm, &first, &mut host, resolver.as_mut());
                    start = first.unwrap().end_time;
                }
                let host = &mut host;
                results.push(match driver {
                    0 => {
                        let r = replay_per_step(start, &mut vm, &trace, host, resolver.as_mut());
                        (r, *vm.guest())
                    }
                    1 => {
                        let r = run_invocation(start, &mut vm, &trace, host, resolver.as_mut());
                        (r.unwrap(), *vm.guest())
                    }
                    _ => {
                        let (result, exits, entries, vm) =
                            replay_by_cursor(start, vm, &trace, host, resolver);
                        if c.warm == ByVariant(0) || c.warm == BySameTrace {
                            // A warm VM maps its whole trace: one entry.
                            assert_eq!((exits, entries), (0, 1), "{name}");
                        } else {
                            assert!(exits > 0, "{name}: must fault");
                        }
                        (result, *vm.guest())
                    }
                });
            }
            assert_eq!(results[1], results[0], "{name}: run_invocation");
            assert_eq!(results[2], results[0], "{name}: cursor");
        }
    }

    /// Replays `trace` on `vm` as [`run_invocation`] does, returning
    /// the result and how many steps the replay walked: 0 when it
    /// jumped.
    fn replay_counting_steps(
        start: SimTime,
        vm: &mut MicroVm,
        trace: &InvocationTrace,
        host: &mut HostKernel,
    ) -> (InvocationResult, usize) {
        let mut replay = Replay::new(start);
        while !replay.is_done(trace) {
            replay.enter(vm, trace, host, &mut NoUffd).unwrap();
        }
        (replay.result(vm), replay.walked)
    }

    #[test]
    fn replaying_the_completed_trace_jumps_to_its_end() {
        let (mut host, snap, trace) = setup("image", 0.05);
        for pv in [false, true] {
            let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, pv);
            let (first, walked) = replay_counting_steps(SimTime::ZERO, &mut vm, &trace, &mut host);
            assert_eq!(walked, trace.steps().len(), "pv={pv}: a cold replay walks");
            let start = first.end_time;
            let before = (vm.kvm().stats(), *vm.guest());
            let (r, walked) = replay_counting_steps(start, &mut vm, &trace, &mut host);
            assert_eq!(walked, 0, "pv={pv}: the replay walked");
            assert_eq!(r.end_time, start + trace.step_compute());
            let hits = before.0.hits + trace.memory_steps() as u64;
            assert_eq!(r.stats, VmMemStats { hits, ..before.0 });
            let allocs = trace.alloc_steps() as u64;
            let (marked, unmarked) = if pv { (allocs, 0) } else { (0, allocs) };
            assert_eq!(
                vm.guest().marked_allocs(),
                before.1.marked_allocs() + marked
            );
            assert_eq!(
                vm.guest().unmarked_allocs(),
                before.1.unmarked_allocs() + unmarked
            );
            vm.kvm_mut().teardown(&mut host).unwrap();
        }
    }

    #[test]
    fn kvm_teardown_forgets_the_completed_trace() {
        let (mut host, snap, trace) = setup("json", 0.05);
        let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let start = run_invocation(SimTime::ZERO, &mut vm, &trace, &mut host, &mut NoUffd)
            .unwrap()
            .end_time;
        vm.kvm_mut().teardown(&mut host).unwrap();
        let faults = vm.kvm().stats().minor_faults;
        run_invocation(start, &mut vm, &trace, &mut host, &mut NoUffd).unwrap();
        assert!(
            vm.kvm().stats().minor_faults > faults,
            "a torn-down VM must fault again"
        );
        assert!(vm.kvm().mapped_pages() > 0);
        vm.kvm_mut().teardown(&mut host).unwrap();
    }

    #[test]
    fn another_trace_falls_back_to_the_step_loop() {
        let (mut host, snap, trace) = setup("json", 0.05);
        // Equal values do not count, and a later trace replaces the
        // memo.
        let w = Workload::by_name("json").unwrap().scaled(0.05);
        for other in [w.trace(), w.trace_variant(1)] {
            let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
            let (r, _) = replay_counting_steps(SimTime::ZERO, &mut vm, &trace, &mut host);
            let (r, walked) = replay_counting_steps(r.end_time, &mut vm, &other, &mut host);
            assert_eq!(walked, other.steps().len());
            let (_, walked) = replay_counting_steps(r.end_time, &mut vm, &trace, &mut host);
            assert_eq!(walked, trace.steps().len(), "the replay jumped");
            vm.kvm_mut().teardown(&mut host).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "finish() before")]
    fn cursor_finish_requires_completion() {
        let (_host, snap, trace) = setup("json", 0.05);
        let vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let cursor = InvocationCursor::builder(vm, trace).begin();
        let _ = cursor.finish();
    }

    #[test]
    #[should_panic(expected = "one trace per VM")]
    fn mismatched_lengths_panic() {
        let (mut host, snap, trace) = setup("json", 0.05);
        let mut vm = MicroVm::restore(OwnerId::new(0), &snap, CowPolicy::Opportunistic, false);
        let _ = run_concurrent(
            &[SimTime::ZERO],
            &mut [&mut vm],
            &[&trace, &trace],
            &mut host,
            &mut [],
        );
    }
}
