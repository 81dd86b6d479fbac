//! One simulated FaaS host: kernel + disk + page cache + admission
//! queue + keep-alive pool + restore scheduling.
//!
//! This is the per-host world behind both [`crate::Runner`] paths: a
//! single-host fleet run drives exactly one `Host`; a cluster run
//! owns `N` of them and routes each arrival through a placement
//! policy. The
//! scheduling logic is identical in both cases — a cluster of one
//! host reproduces a fleet run result-for-result (asserted in the
//! cluster tests).
//!
//! Both paths make a host in two steps. [`build_world`] records a
//! [`World`]: the kernel and, per function, the snapshot, the
//! recorded strategy and the invocation trace, as they stand at the
//! invocation-phase boundary. [`Host::from_world`] then installs the
//! host's tracer and starts its pool and statistics. A world depends
//! on the config and the workload list alone, so a cluster shard
//! records one and gives each of its hosts a clone.

use std::collections::VecDeque;

use snapbpf::{FunctionCtx, RestoreCursor, StageTimings, Strategy, StrategyError};
use snapbpf_kernel::{HostKernel, KernelConfig};
use snapbpf_mem::OwnerId;
use snapbpf_sim::{sandbox_tid, Metric, SimDuration, SimTime, SplitMix64, Tracer, TID_CONTROL};
use snapbpf_storage::Disk;
use snapbpf_vmm::{InvocationCursor, MicroVm, Snapshot, UffdResolver};
use snapbpf_workloads::{InvocationTrace, Workload};

use crate::config::{FleetConfig, RestoreMode, RetryPolicy, SnapshotDistribution};
use crate::metrics::FuncStats;
use crate::pool::SandboxPool;

/// One invocation request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub(crate) at: SimTime,
    pub(crate) func: usize,
    /// Whether this request is a crash retry. A retry killed by a
    /// second crash fails for good — nothing retries twice.
    pub(crate) retry: bool,
}

/// A parked warm sandbox: the microVM plus its fault resolver.
pub(crate) type Parked = (MicroVm, Box<dyn UffdResolver>);

/// An in-flight sandbox: a staged restore, a running invocation, or
/// both at once (background prefetch overlapping guest execution).
pub(crate) struct Active {
    /// The staged restore; `Some` only while it has pending steps
    /// (dropped the moment both its tracks drain).
    restore: Option<RestoreCursor>,
    /// The running invocation; `None` until the restore's `Resume`
    /// stage hands over the sandbox.
    run: Option<InvocationCursor>,
    func: usize,
    arrival: SimTime,
    dispatch: SimTime,
    cold: bool,
    /// Whether this invocation is itself a crash retry (never retried
    /// again).
    retry: bool,
    /// Memory owner of the sandbox — the handle a crash needs to
    /// release restore-phase charges made before any VM exists.
    owner: OwnerId,
    /// The drained restore's per-stage breakdown (cold starts only).
    stages: Option<StageTimings>,
    /// When the restore's last event — including background prefetch
    /// work — completed.
    restore_end: SimTime,
}

impl Active {
    /// Virtual time of this sandbox's next event; once done, the
    /// instant its slot frees (the later of invocation end and
    /// background-restore completion).
    pub(crate) fn clock(&self) -> SimTime {
        match (&self.restore, &self.run) {
            (Some(r), None) => r.clock(),
            (Some(r), Some(c)) if c.is_done() => r.clock(),
            (Some(r), Some(c)) => r.clock().min(c.clock()),
            (None, Some(c)) if c.is_done() => c.clock().max(self.restore_end),
            (None, Some(c)) => c.clock(),
            (None, None) => unreachable!("active sandbox with neither restore nor invocation"),
        }
    }

    /// Whether both the restore and the invocation have finished.
    pub(crate) fn is_done(&self) -> bool {
        self.restore.is_none() && self.run.as_ref().is_some_and(|c| c.is_done())
    }
}

/// A sandbox event's `(clock, slot)`: events execute in this order.
type EventKey = (SimTime, usize);

/// Host state shared by the scheduling steps of a fleet run.
pub(crate) struct Host<'a> {
    pub(crate) kernel: HostKernel,
    pub(crate) funcs: Vec<FunctionCtx>,
    strategies: Vec<Box<dyn Strategy>>,
    traces: Vec<InvocationTrace>,
    cfg: &'a FleetConfig,
    pub(crate) pool: SandboxPool<Parked>,
    pub(crate) active: Vec<Active>,
    pub(crate) pending: VecDeque<Request>,
    pub(crate) per_func: Vec<FuncStats>,
    owner_seq: u32,
    pub(crate) mem_hwm_bytes: u64,
    pub(crate) last_completion: SimTime,
    /// Virtual time the invocation phase starts at; arrival trace
    /// events carry offsets from here so a recorded schedule replays
    /// independently of the (strategy-dependent) record-phase length.
    t0: SimTime,
    trace: Tracer,
    /// Which functions' snapshots already reside on this host's local
    /// disk (all of them under [`SnapshotDistribution::Local`]; none
    /// initially under [`SnapshotDistribution::Remote`]).
    snapshot_present: Vec<bool>,
    /// Snapshot transfers this host paid (first cold start per
    /// function under a remote distribution model).
    pub(crate) snapshot_fetches: u64,
    /// Arrivals the placement policy routed here.
    pub(crate) placed: u64,
    /// High-water mark of parked sandboxes (capacity-bound witness).
    pub(crate) pool_hwm: u64,
    /// Set by [`Host::drain`]: the host finishes in-flight and queued
    /// work but completed sandboxes tear down instead of parking.
    draining: bool,
}

/// A host at the invocation-phase boundary: a kernel over the
/// configured device holding a snapshot and a recorded strategy per
/// function, with caches dropped and I/O accounting reset. Nothing in
/// it depends on which host it becomes, so a cluster records one and
/// gives each host a clone; a clone shares no mutable state with its
/// template (`HostKernel` and `Strategy` clones are deep).
#[derive(Clone)]
pub(crate) struct World {
    kernel: HostKernel,
    funcs: Vec<FunctionCtx>,
    strategies: Vec<Box<dyn Strategy>>,
    traces: Vec<InvocationTrace>,
    /// Virtual time the invocation phase starts at.
    pub(crate) t0: SimTime,
}

/// Records one host world: a fresh kernel over the configured device,
/// then a snapshot and a recorded strategy per workload (sequentially
/// in virtual time, as the colocated runner does), then caches
/// dropped and I/O accounting reset at the invocation-phase boundary.
/// The record phase runs untraced.
pub(crate) fn build_world(
    cfg: &FleetConfig,
    workloads: &[Workload],
) -> Result<World, StrategyError> {
    #[cfg(test)]
    world_builds::note(workloads);
    let kernel_config = KernelConfig {
        page_cache_budget_pages: cfg.cache_budget_pages,
        ..KernelConfig::default()
    };
    let mut kernel = HostKernel::new(Disk::new(cfg.device.build()), kernel_config);

    let mut t = SimTime::ZERO;
    let mut funcs = Vec::with_capacity(workloads.len());
    let mut strategies: Vec<Box<dyn Strategy>> = Vec::with_capacity(workloads.len());
    let mut traces = Vec::with_capacity(workloads.len());
    for w in workloads {
        let w = w.scaled(cfg.scale);
        let (snapshot, t_snap) = Snapshot::create(t, w.name(), w.snapshot_pages(), &mut kernel)?;
        let func = FunctionCtx {
            workload: w,
            snapshot,
        };
        let mut strategy = cfg.strategy.build();
        t = strategy.record(t_snap, &mut kernel, &func)?;
        traces.push(func.workload.trace());
        funcs.push(func);
        strategies.push(strategy);
    }

    // The invocation phase starts cache-cold with fresh I/O
    // accounting.
    kernel.drop_all_caches()?;
    kernel.disk_mut().reset_read_counts();
    Ok(World {
        kernel,
        funcs,
        strategies,
        traces,
        t0: t,
    })
}

/// Pre-draws the whole arrival schedule: times from the arrival
/// source, function choices from the popularity mix for any arrival
/// the schedule does not pin one on (trace replays pin every
/// function, so their runs consume no mix picks at all — a replay
/// reproduces the recorded schedule exactly). Shared by the fleet
/// and cluster entry points — a cluster draws ONE schedule and
/// shards it, it does not draw per host.
pub(crate) fn draw_arrivals(cfg: &FleetConfig, t0: SimTime) -> Vec<Request> {
    let mut pick_rng = SplitMix64::new(cfg.seed ^ 0xF1EE_7B00_57A7_1C5E);
    cfg.arrival
        .draw(cfg.seed, cfg.duration)
        .into_iter()
        .map(|a| Request {
            at: t0 + a.at.saturating_since(SimTime::ZERO),
            func: match a.func {
                Some(f) => f as usize,
                None => cfg.mix.pick(&mut pick_rng),
            },
            retry: false,
        })
        .collect()
}

/// Starts `trace` on a restored or parked sandbox at `at`.
fn invocation(
    trace: &InvocationTrace,
    vm: MicroVm,
    resolver: Box<dyn UffdResolver>,
    at: SimTime,
) -> InvocationCursor {
    InvocationCursor::builder(vm, trace.clone())
        .starting_at(at)
        .with_resolver(resolver)
        .begin()
}

impl<'a> Host<'a> {
    /// Makes a host from a recorded world: installs `tracer` for the
    /// invocation phase and starts an empty pool, per-function
    /// statistics, and the snapshot-presence state `cfg`'s
    /// distribution model sets.
    pub(crate) fn from_world(world: World, cfg: &'a FleetConfig, tracer: &Tracer) -> Host<'a> {
        let World {
            mut kernel,
            funcs,
            strategies,
            traces,
            t0,
        } = world;
        kernel.install_tracer(tracer);
        let present = matches!(cfg.distribution, SnapshotDistribution::Local);
        Host {
            kernel,
            per_func: funcs
                .iter()
                .map(|f| FuncStats::new(f.workload.name()))
                .collect(),
            snapshot_present: vec![present; funcs.len()],
            funcs,
            strategies,
            traces,
            cfg,
            pool: SandboxPool::new(cfg.pool_capacity, cfg.keepalive_ttl),
            active: Vec::new(),
            pending: VecDeque::new(),
            owner_seq: 0,
            mem_hwm_bytes: 0,
            last_completion: t0,
            t0,
            trace: tracer.clone(),
            snapshot_fetches: 0,
            placed: 0,
            pool_hwm: 0,
            draining: false,
        }
    }

    pub(crate) fn teardown_parked(&mut self, parked: Vec<Parked>) -> Result<(), StrategyError> {
        for (mut vm, _resolver) in parked {
            vm.kvm_mut().teardown(&mut self.kernel)?;
        }
        Ok(())
    }

    fn sample_memory(&mut self) {
        let bytes = self.kernel.memory_snapshot().total_bytes();
        self.mem_hwm_bytes = self.mem_hwm_bytes.max(bytes);
    }

    /// This host's earliest in-flight sandbox event and the runner-up.
    fn next_two_events(&self) -> Option<(EventKey, Option<EventKey>)> {
        let mut first: Option<EventKey> = None;
        let mut second = None;
        for (i, a) in self.active.iter().enumerate() {
            let key = (a.clock(), i);
            if first.is_none_or(|f| key < f) {
                second = first;
                first = Some(key);
            } else if second.is_none_or(|s| key < s) {
                second = Some(key);
            }
        }
        first.map(|f| (f, second))
    }

    /// Delay before restore stages may begin: the snapshot transfer
    /// cost if this is the function's first cold start on this host
    /// and snapshots are remotely distributed. Marks the snapshot
    /// present (the fetched bytes land on the local disk out of
    /// band — subsequent restores hit local disk and page cache).
    fn fetch_delay(&mut self, func: usize, now: SimTime, tid: u64) -> SimDuration {
        if self.snapshot_present[func] {
            return SimDuration::ZERO;
        }
        self.snapshot_present[func] = true;
        let bytes = self.funcs[func].snapshot.memory_pages() * 4096;
        let delay = self.cfg.distribution.transfer_time(bytes);
        if delay > SimDuration::ZERO {
            self.snapshot_fetches += 1;
            self.trace.incr(Metric::ClusterSnapshotFetches);
            self.trace
                .observe_duration(Metric::ClusterSnapshotFetchNs, delay);
            if self.trace.events_enabled() {
                self.trace.span(
                    "cluster",
                    "snapshot-fetch",
                    tid,
                    now,
                    now + delay,
                    vec![("func", func.into()), ("bytes", bytes.into())],
                );
            }
        }
        delay
    }

    /// Starts `req` at `now`: warm from the pool when possible,
    /// otherwise a cold start through the strategy's restore path —
    /// staged under [`RestoreMode::Pipelined`], driven to completion
    /// inline under [`RestoreMode::Serialized`]. A cold start whose
    /// snapshot is not yet on this host first pays the distribution
    /// model's transfer latency.
    pub(crate) fn dispatch(&mut self, req: Request, now: SimTime) -> Result<(), StrategyError> {
        let (owner, restore, run) = match self.pool.checkout(req.func, now) {
            Some((vm, resolver)) => {
                self.trace.incr(Metric::FleetWarmHits);
                if self.trace.events_enabled() {
                    self.trace.instant(
                        "fleet",
                        "warm-hit",
                        TID_CONTROL,
                        now,
                        vec![("func", req.func.into())],
                    );
                }
                let owner = vm.owner();
                let run = invocation(&self.traces[req.func], vm, resolver, now);
                (owner, None, Some(run))
            }
            None => {
                let owner = OwnerId::new(self.owner_seq);
                self.owner_seq += 1;
                let tid = sandbox_tid(owner.as_u32());
                self.trace.incr(Metric::FleetColdStarts);
                if self.trace.events_enabled() {
                    self.trace.name_thread(
                        tid,
                        &format!(
                            "sandbox {} ({})",
                            owner.as_u32(),
                            self.funcs[req.func].workload.name()
                        ),
                    );
                    self.trace.instant(
                        "fleet",
                        "cold-start",
                        TID_CONTROL,
                        now,
                        vec![("func", req.func.into()), ("owner", owner.as_u32().into())],
                    );
                }
                let start = now + self.fetch_delay(req.func, now, tid);
                let mut cursor = self.strategies[req.func].begin_restore(
                    start,
                    &mut self.kernel,
                    &self.funcs[req.func],
                    owner,
                )?;
                cursor.set_trace_tid(tid);
                (owner, Some(cursor), None)
            }
        };
        let mut entry = Active {
            cold: restore.is_some(),
            restore,
            run,
            func: req.func,
            arrival: req.at,
            dispatch: now,
            retry: req.retry,
            owner,
            stages: None,
            restore_end: now,
        };
        let serialized = self.cfg.restore_mode == RestoreMode::Serialized;
        if let Some(mut cursor) = entry.restore.take_if(|_| serialized) {
            // Drive the whole restore inline and hold the guest until
            // every stage — including prefetch work a pipelined run
            // would overlap with execution — has drained: the full
            // serialized cold-start latency of the pre-staging design.
            while !cursor.is_done() {
                cursor.step(&mut self.kernel)?;
            }
            let drained = cursor.clock();
            let restored = cursor.finish();
            let trace = &self.traces[req.func];
            entry.run = Some(invocation(trace, restored.vm, restored.resolver, drained));
            entry.stages = Some(restored.stages);
            entry.restore_end = drained;
        }
        self.active.push(entry);
        self.sample_memory();
        Ok(())
    }

    /// Advances `active[i]` by one event: the earlier of its restore
    /// and invocation tracks. When the restore's `Resume` stage has
    /// executed, the invocation cursor starts at the ready instant
    /// while any background prefetch keeps draining alongside it.
    fn advance_active(&mut self, i: usize) -> Result<(), StrategyError> {
        let a = &mut self.active[i];
        let step_restore = match (&a.restore, &a.run) {
            (Some(_), None) => true,
            (Some(r), Some(c)) => c.is_done() || r.clock() <= c.clock(),
            (None, _) => false,
        };
        if step_restore {
            let r = a.restore.as_mut().expect("restore track pending");
            r.step(&mut self.kernel)?;
            if a.run.is_none() {
                if let Some((vm, resolver, ready)) = r.take_resumed() {
                    a.run = Some(invocation(&self.traces[a.func], vm, resolver, ready));
                }
            }
            if r.is_done() {
                a.restore_end = a.restore_end.max(r.clock());
                a.stages = Some(r.breakdown());
                a.restore = None;
            }
        } else {
            let c = a.run.as_mut().expect("invocation track pending");
            c.step(&mut self.kernel).map_err(StrategyError::Kernel)?;
        }
        Ok(())
    }

    /// Notes one shed request on the scheduler track.
    fn note_shed(&mut self, at: SimTime, func: usize) {
        self.trace.incr(Metric::FleetShed);
        if self.trace.events_enabled() {
            self.trace.instant(
                "fleet",
                "shed",
                TID_CONTROL,
                at,
                vec![("func", func.into())],
            );
        }
    }

    /// Admits, queues, or sheds a fresh arrival.
    pub(crate) fn handle_arrival(&mut self, req: Request) -> Result<(), StrategyError> {
        self.placed += 1;
        self.per_func[req.func].arrivals += 1;
        self.trace.incr(Metric::FleetArrivals);
        if self.trace.events_enabled() {
            // The (func, offset-from-t0) pair is exactly what a
            // profile recorder needs to rebuild the schedule.
            self.trace.instant(
                "fleet",
                "arrival",
                TID_CONTROL,
                req.at,
                vec![
                    ("func", req.func.into()),
                    (
                        "offset_ns",
                        req.at.saturating_since(self.t0).as_nanos().into(),
                    ),
                ],
            );
        }
        let expired = self.pool.expire(req.at);
        self.trace
            .add(Metric::FleetPoolExpirations, expired.len() as u64);
        self.teardown_parked(expired)?;
        if self.active.len() < self.cfg.max_concurrency {
            self.dispatch(req, req.at)?;
        } else if self.pending.len() < self.cfg.queue_depth {
            self.pending.push_back(req);
            self.trace.incr(Metric::FleetEnqueued);
            if self.trace.events_enabled() {
                self.trace.instant(
                    "fleet",
                    "enqueue",
                    TID_CONTROL,
                    req.at,
                    vec![
                        ("func", req.func.into()),
                        ("depth", self.pending.len().into()),
                    ],
                );
            }
        } else {
            self.per_func[req.func].shed += 1;
            self.note_shed(req.at, req.func);
        }
        Ok(())
    }

    /// Completes the finished invocation at `active[i]`: records its
    /// latency breakdown, parks the sandbox, and dispatches queued
    /// work into the freed slot. The slot frees at the later of the
    /// invocation's end and the restore's background completion (the
    /// sandbox's prefetch thread keeps it busy), while latency
    /// metrics use the invocation's end.
    fn finalize(&mut self, i: usize) -> Result<(), StrategyError> {
        let done = self.active.swap_remove(i);
        let run = done.run.expect("finished sandbox ran its invocation");
        let end = run.clock();
        let exec_start = run.start();
        let (vm, resolver, _result) = run.finish();
        let t_ev = end.max(done.restore_end);
        let restore = exec_start.saturating_since(done.dispatch);
        self.per_func[done.func].record(
            done.cold,
            end.saturating_since(done.arrival),
            done.dispatch.saturating_since(done.arrival),
            restore,
            end.saturating_since(exec_start),
            done.stages.as_ref(),
        );
        // Windowed per-function series: a 0/1 warm-hit sample per
        // completion (bin mean = warm hit ratio) and, for cold
        // starts, the restore latency (bin p99 = cold-start p99).
        let fname = &self.per_func[done.func].name;
        self.trace.series_record(
            Metric::FleetWarmHit,
            fname,
            end,
            if done.cold { 0.0 } else { 1.0 },
        );
        if done.cold {
            self.trace.series_record(
                Metric::FleetColdStartNs,
                fname,
                end,
                restore.as_nanos() as f64,
            );
        }
        self.last_completion = self.last_completion.max(end);
        self.sample_memory();

        let expired = self.pool.expire(t_ev);
        self.trace
            .add(Metric::FleetPoolExpirations, expired.len() as u64);
        self.teardown_parked(expired)?;
        if self.draining {
            // A draining host never parks: the sandbox tears down the
            // moment its invocation completes.
            self.teardown_parked(vec![(vm, resolver)])?;
        } else {
            let evicted = self.pool.checkin(done.func, (vm, resolver), t_ev);
            self.pool_hwm = self.pool_hwm.max(self.pool.len() as u64);
            self.trace
                .add(Metric::FleetPoolEvictions, evicted.len() as u64);
            if !evicted.is_empty() && self.trace.events_enabled() {
                self.trace.instant(
                    "fleet",
                    "pool-evict",
                    TID_CONTROL,
                    t_ev,
                    vec![("count", evicted.len().into())],
                );
            }
            self.teardown_parked(evicted)?;
        }

        if let Some(req) = self.pending.pop_front() {
            self.dispatch(req, t_ev)?;
        }
        Ok(())
    }

    /// Kills the host at `at`: every in-flight invocation aborts (its
    /// sandbox torn down, its memory released), queued requests drop,
    /// the warm pool and page cache are lost, and remotely fetched
    /// snapshots are forgotten — the next cold start per function
    /// re-pays the distribution transfer. Each killed request counts
    /// as failed, or — under [`RetryPolicy::Retry`], for requests that
    /// are not already retries — as retried; the returned function
    /// indices (actives in slot order, then the queue front-to-back)
    /// are the retries the cluster driver re-places on surviving
    /// hosts. The host itself reboots instantly and keeps taking
    /// placements with cold state.
    pub(crate) fn crash(&mut self, at: SimTime) -> Result<Vec<usize>, StrategyError> {
        let wants_retry = matches!(self.cfg.faults.retry, RetryPolicy::Retry { .. });
        let mut retries = Vec::new();
        let mut failed = 0u64;
        for a in std::mem::take(&mut self.active) {
            if let Some(r) = a.restore {
                if let Some((mut vm, _resolver)) = r.abort() {
                    vm.kvm_mut().teardown(&mut self.kernel)?;
                }
            }
            if let Some(c) = a.run {
                let (mut vm, _resolver) = c.abort();
                vm.kvm_mut().teardown(&mut self.kernel)?;
            }
            // Restore-phase memory charged before any VM existed stays
            // attributed to the owner; release it (a no-op when the
            // teardown above already freed everything).
            self.kernel.release_owner(a.owner);
            if wants_retry && !a.retry {
                self.per_func[a.func].retried += 1;
                retries.push(a.func);
            } else {
                self.per_func[a.func].failed += 1;
                failed += 1;
            }
        }
        for req in std::mem::take(&mut self.pending) {
            if wants_retry && !req.retry {
                self.per_func[req.func].retried += 1;
                retries.push(req.func);
            } else {
                self.per_func[req.func].failed += 1;
                failed += 1;
            }
        }
        self.trace.add(Metric::FleetFailed, failed);
        self.trace.add(Metric::FleetRetried, retries.len() as u64);
        let parked = self.pool.evict_all();
        self.trace
            .add(Metric::FleetPoolEvictions, parked.len() as u64);
        self.teardown_parked(parked)?;
        self.kernel.drop_all_caches()?;
        let present = matches!(self.cfg.distribution, SnapshotDistribution::Local);
        self.snapshot_present = vec![present; self.funcs.len()];
        debug_assert_eq!(
            self.kernel.accounting_discrepancy(),
            0,
            "a crash must close the host's memory accounting"
        );
        if self.trace.events_enabled() {
            self.trace.instant(
                "fleet",
                "host-crash",
                TID_CONTROL,
                at,
                vec![("failed", failed.into()), ("retried", retries.len().into())],
            );
        }
        Ok(retries)
    }

    /// Starts draining the host at `at`: the cluster driver stops
    /// placing arrivals here, in-flight and queued work runs to
    /// completion, the warm pool is evicted now, and completed
    /// sandboxes tear down instead of parking.
    pub(crate) fn drain(&mut self, at: SimTime) -> Result<(), StrategyError> {
        self.draining = true;
        let parked = self.pool.evict_all();
        self.trace
            .add(Metric::FleetPoolEvictions, parked.len() as u64);
        if self.trace.events_enabled() {
            self.trace.instant(
                "fleet",
                "host-drain",
                TID_CONTROL,
                at,
                vec![("evicted", parked.len().into())],
            );
        }
        self.teardown_parked(parked)
    }

    /// End-of-run teardown: every parked sandbox torn down and memory
    /// accounting verified closed.
    pub(crate) fn teardown(&mut self) -> Result<(), StrategyError> {
        let parked = self.pool.drain();
        self.teardown_parked(parked)?;
        debug_assert_eq!(self.kernel.accounting_discrepancy(), 0);
        debug_assert!(
            self.pending.is_empty(),
            "queued work cannot outlive all in-flight invocations"
        );
        Ok(())
    }

    /// Live parked sandboxes for `func` at `now` (placement signal).
    pub(crate) fn warm_parked(&self, func: usize, now: SimTime) -> usize {
        self.pool.count_live(func, now)
    }

    /// Pages of `func`'s snapshot currently in this host's page cache
    /// (resident or in flight) — the snapshot-locality placement
    /// signal.
    pub(crate) fn cached_snapshot_pages(&self, func: usize) -> u64 {
        let file = self.funcs[func].snapshot.memory_file();
        self.kernel.cache().file_page_count(file)
    }

    /// Drains every in-flight event with a clock at or before `until`
    /// (all of them when `until` is `None`) — the per-host event loop
    /// shared by the fleet driver and the cluster segment engine.
    ///
    /// The `<=` bound matches the historical arrival tie-break: an
    /// event scheduled exactly at an arrival instant executes before
    /// the arrival is handled.
    ///
    /// Stepping a sandbox moves no other sandbox's clock, so after one
    /// scan the earliest sandbox keeps stepping for as long as it
    /// stays ahead of the runner-up. A completion rescans:
    /// `finalize` reorders the slots and may dispatch a queued request.
    pub(crate) fn advance_until(&mut self, until: Option<SimTime>) -> Result<(), StrategyError> {
        let due = |tc: SimTime| until.is_none_or(|ta| tc <= ta);
        while let Some(((tc, i), runner_up)) = self.next_two_events() {
            if !due(tc) {
                break;
            }
            if self.active[i].is_done() {
                self.finalize(i)?;
                continue;
            }
            loop {
                self.advance_active(i)?;
                let a = &self.active[i];
                if a.is_done() || !due(a.clock()) || runner_up.is_some_and(|r| (a.clock(), i) > r) {
                    break;
                }
            }
        }
        Ok(())
    }
}

/// Test witness of how many worlds were recorded, keyed by the
/// address of the workload list they were recorded from: concurrent
/// tests hold distinct lists, so a test counts only its own builds.
#[cfg(test)]
pub(crate) mod world_builds {
    use std::sync::Mutex;

    use snapbpf_workloads::Workload;

    static BUILDS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    pub(crate) fn note(workloads: &[Workload]) {
        BUILDS.lock().unwrap().push(workloads.as_ptr() as usize);
    }

    /// Worlds recorded so far from `workloads`.
    pub(crate) fn of(workloads: &[Workload]) -> usize {
        let key = workloads.as_ptr() as usize;
        BUILDS.lock().unwrap().iter().filter(|&&k| k == key).count()
    }
}
