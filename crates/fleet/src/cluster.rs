//! Multi-host cluster simulation: N per-host worlds, a placement
//! policy routing arrivals between them, and a snapshot-distribution
//! cost model (DESIGN.md §8), executed by an epoch/barrier engine
//! that runs host event loops in parallel without giving up
//! determinism (DESIGN.md §11).
//!
//! A cluster run generalizes the single-host fleet run: every host
//! owns its own simulated kernel, disk, page cache, and keep-alive
//! [`crate::SandboxPool`], all configured identically from the one
//! [`FleetConfig`]. One global arrival schedule is drawn exactly as
//! the single-host path draws it; a [`PlacementPolicy`] then decides,
//! per arrival, which host serves it.
//!
//! ## The epoch/barrier execution model
//!
//! Hosts only interact at placement decisions: between two arrivals
//! no event on host A can affect host B. The driver therefore
//! partitions virtual time into **epochs** bounded by the next
//! arrival. In each epoch every host independently drains its events
//! with clocks `<= t_arrival` (the same `<=` tie-break the
//! single-host loop uses), buffering trace events and metrics into a
//! private per-host [`Tracer`]. At the **barrier** the driver
//! collects each host's [`HostView`] and buffered events **in host
//! index order**, consults the placement policy, emits the
//! `cluster:place` instant, and dispatches the arrival to its target
//! host. `threads = 1` runs the epochs inline; `threads > 1` runs
//! them on a pool of worker threads, each owning a fixed subset of
//! hosts (host `h` lives on worker `h % threads`). Both paths share
//! the driver and the merge order, so a run is a pure function of
//! ([`FleetConfig`], workload list) — the same seed produces
//! byte-identical Chrome traces and field-identical
//! [`ClusterResult`]s at any thread count (property-tested in
//! `tests/parallel.rs`).
//!
//! With one host, [`crate::SnapshotDistribution::Local`], and any
//! placement policy, a cluster run degenerates to a single-host
//! fleet run — the exact same scheduling code runs
//! (`crate::host::Host` is shared by both entry points), so
//! per-function statistics, memory high-water marks, I/O volumes,
//! and the metrics registry are all equal to the fleet path's. The
//! cluster tests assert this field for field.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};

use snapbpf_sim::{
    MetricsRegistry, SeriesRegistry, SimDuration, SimTime, TraceEvent, Tracer, TracerClass,
    TID_CONTROL, TID_DISK, TID_KERNEL,
};
use snapbpf_workloads::{FunctionSpec, Workload};

use crate::config::{FaultKind, FleetConfig, RetryPolicy};
use crate::host::{build_host, draw_arrivals, Host, Request};
use crate::metrics::FuncStats;
use crate::placement::{HostView, PlacementPolicy};
use snapbpf::StrategyError;

/// Everything one host of a cluster run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct HostResult {
    /// Host index, `0..hosts`.
    pub host: usize,
    /// Per-function statistics for work served by this host, in
    /// workload order (functions never routed here have empty
    /// records).
    pub per_function: Vec<FuncStats>,
    /// This host's aggregate over every function.
    pub aggregate: FuncStats,
    /// Host memory high-water mark in bytes.
    pub mem_hwm_bytes: u64,
    /// Bytes read from this host's storage during the invocation
    /// phase.
    pub read_bytes: u64,
    /// Bytes written to this host's storage during the invocation
    /// phase.
    pub write_bytes: u64,
    /// Pool LRU evictions (capacity pressure).
    pub pool_evictions: u64,
    /// Pool TTL expirations.
    pub pool_expirations: u64,
    /// High-water mark of parked sandboxes — never exceeds the
    /// configured pool capacity (property-tested).
    pub pool_hwm: u64,
    /// Arrivals the placement policy routed to this host.
    pub placed: u64,
    /// Remote snapshot transfers this host paid (first cold start
    /// per function under [`crate::SnapshotDistribution::Remote`];
    /// always 0 under [`crate::SnapshotDistribution::Local`]).
    pub snapshot_fetches: u64,
}

/// Everything a cluster run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Placement-policy label.
    pub placement: &'static str,
    /// Per-host results, indexed by host.
    pub hosts: Vec<HostResult>,
    /// Cluster-wide per-function statistics (each function's
    /// per-host records merged), in workload order.
    pub per_function: Vec<FuncStats>,
    /// Cluster-wide aggregate.
    pub aggregate: FuncStats,
    /// Virtual time from the first arrival to the last completion on
    /// any host.
    pub span: SimDuration,
    /// Snapshot of the run's metrics registry, merged across hosts
    /// in host index order.
    pub metrics: MetricsRegistry,
    /// Windowed per-function time series, merged across hosts in
    /// host index order (byte-identical at any thread count).
    pub series: SeriesRegistry,
}

impl ClusterResult {
    /// Total bytes read from storage across all hosts.
    pub fn read_bytes(&self) -> u64 {
        self.hosts.iter().map(|h| h.read_bytes).sum()
    }

    /// Total arrivals the placement policy routed (equals cluster
    /// arrivals).
    pub fn placed(&self) -> u64 {
        self.hosts.iter().map(|h| h.placed).sum()
    }

    /// Total remote snapshot transfers paid across hosts.
    pub fn snapshot_fetches(&self) -> u64 {
        self.hosts.iter().map(|h| h.snapshot_fetches).sum()
    }
}

/// Rejects configurations a cluster run cannot execute, with a
/// [`StrategyError::Config`] instead of a panic so CLI surfaces
/// print a clean message.
pub(crate) fn validate(cfg: &FleetConfig, workloads: &[Workload]) -> Result<(), StrategyError> {
    if cfg.hosts == 0 {
        return Err(StrategyError::Config(
            "a cluster needs at least one host (hosts = 0)".to_owned(),
        ));
    }
    if workloads.is_empty() || cfg.mix.is_empty() {
        return Err(StrategyError::Config(
            "the function mix is empty: a cluster run needs at least one function".to_owned(),
        ));
    }
    if cfg.mix.len() != workloads.len() {
        return Err(StrategyError::Config(format!(
            "the function mix covers {} functions but {} workloads were given",
            cfg.mix.len(),
            workloads.len()
        )));
    }
    if cfg.max_concurrency == 0 {
        return Err(StrategyError::Config(
            "max_concurrency must be at least 1".to_owned(),
        ));
    }
    if !FunctionSpec::valid_scale(cfg.scale) {
        return Err(StrategyError::Config(format!(
            "scale must be in (0, 1], not {}",
            cfg.scale
        )));
    }
    if let Some(Err(msg)) = cfg.arrival.process().map(|p| p.check()) {
        return Err(StrategyError::Config(msg.to_owned()));
    }
    if !cfg.faults.is_empty() {
        if cfg.hosts < 2 {
            return Err(StrategyError::Config(
                "a fault schedule needs at least two hosts: crashing or draining the \
                 only host leaves nowhere to place arrivals"
                    .to_owned(),
            ));
        }
        for ev in &cfg.faults.events {
            if ev.host >= cfg.hosts {
                return Err(StrategyError::Config(format!(
                    "fault at offset {} ns targets host {} of a {}-host cluster",
                    ev.at.as_nanos(),
                    ev.host,
                    cfg.hosts
                )));
            }
        }
        let drained: std::collections::BTreeSet<usize> = cfg
            .faults
            .events
            .iter()
            .filter(|e| e.kind == FaultKind::Drain)
            .map(|e| e.host)
            .collect();
        if drained.len() == cfg.hosts {
            return Err(StrategyError::Config(
                "the fault schedule drains every host: at least one must keep taking \
                 placements"
                    .to_owned(),
            ));
        }
    }
    if let Some(tenants) = &cfg.tenants {
        if tenants.labels.is_empty() {
            return Err(StrategyError::Config(
                "the tenancy config names no tenants".to_owned(),
            ));
        }
        if tenants.assignment.len() != workloads.len() {
            return Err(StrategyError::Config(format!(
                "the tenant assignment covers {} functions but {} workloads were given",
                tenants.assignment.len(),
                workloads.len()
            )));
        }
        if let Some(&bad) = tenants
            .assignment
            .iter()
            .find(|&&t| t >= tenants.labels.len())
        {
            return Err(StrategyError::Config(format!(
                "the tenant assignment references tenant {bad} but only {} are named",
                tenants.labels.len()
            )));
        }
    }
    crate::validate_trace_funcs(cfg, workloads)
}

// ---------------------------------------------------------------
// The epoch engine
// ---------------------------------------------------------------

/// One host's contribution to an epoch barrier: its placement view
/// (when the barrier is an arrival) and the trace events it buffered
/// since the previous barrier.
struct EpochSlot {
    host: usize,
    view: Option<HostView>,
    events: Vec<TraceEvent>,
}

/// Everything a host world hands back at the end of a run — plain
/// data, so worker threads can ship it to the driver.
struct HostOutcome {
    per_func: Vec<FuncStats>,
    mem_hwm_bytes: u64,
    last_completion: SimTime,
    read_bytes: u64,
    write_bytes: u64,
    pool_evictions: u64,
    pool_expirations: u64,
    pool_hwm: u64,
    placed: u64,
    snapshot_fetches: u64,
    /// Teardown-phase trace events plus whatever the final epoch had
    /// not yet drained.
    events: Vec<TraceEvent>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
    metrics: MetricsRegistry,
    series: SeriesRegistry,
}

/// The executor behind a cluster run: advances hosts through epochs
/// and reports per-host state at each barrier. Two implementations —
/// [`InlineShard`] (one thread, no handoff) and [`ThreadedShard`]
/// (a worker pool) — drive identical host code, so the driver above
/// them cannot tell which one it is running on.
trait Shard {
    /// Virtual time the invocation phase starts at (identical on
    /// every host by construction).
    fn t0(&self) -> SimTime;

    /// Advances every host through its events with clock `<= until`
    /// (all remaining events when `until` is `None`), returning one
    /// [`EpochSlot`] per host in ascending host order. `probe`
    /// carries the `(func, at)` of the arrival bounding this epoch;
    /// when set, each slot carries the host's [`HostView`] for it.
    fn epoch(
        &mut self,
        until: Option<SimTime>,
        probe: Option<(usize, SimTime)>,
    ) -> Result<Vec<EpochSlot>, StrategyError>;

    /// Hands an arrival to its target host. Fire-and-forget: errors
    /// surface at the next [`Shard::epoch`] or [`Shard::finish`].
    fn dispatch(&mut self, target: usize, req: Request) -> Result<(), StrategyError>;

    /// Injects a fault into `host` at `at` (a synchronous round-trip:
    /// the driver needs the outcome before the next barrier). Returns
    /// the function indices of crash-killed requests the retry policy
    /// converts into fresh arrivals (always empty for a drain).
    fn fault(
        &mut self,
        host: usize,
        kind: FaultKind,
        at: SimTime,
    ) -> Result<Vec<usize>, StrategyError>;

    /// Tears every host down and returns the outcomes in ascending
    /// host order.
    fn finish(&mut self) -> Result<Vec<HostOutcome>, StrategyError>;
}

/// Builds the per-host world `h` with its own buffering tracer.
fn build_shard_host<'a>(
    cfg: &'a FleetConfig,
    workloads: &[Workload],
    class: TracerClass,
    h: usize,
) -> Result<(Tracer, Host<'a>, SimTime), StrategyError> {
    let tracer = Tracer::of_class(class);
    tracer.set_pid(h as u32 + 1);
    let (mut host, t0) = build_host(cfg, workloads, &tracer)?;
    // Pin each host world to its own simulated CPU (wrapping at
    // NCPUS) so per-CPU map bumps from parallel shards land in
    // distinct lanes, exactly as distinct cores would.
    host.kernel.set_smp_processor_id(h as u32);
    if tracer.events_enabled() {
        tracer.name_process(&format!("host {h}"));
        tracer.name_thread(TID_CONTROL, "scheduler");
        tracer.name_thread(TID_DISK, "disk");
        tracer.name_thread(TID_KERNEL, "kernel");
    }
    Ok((tracer, host, t0))
}

/// Advances one host through an epoch and harvests its slot.
fn host_epoch(
    h: usize,
    host: &mut Host<'_>,
    tracer: &Tracer,
    until: Option<SimTime>,
    probe: Option<(usize, SimTime)>,
) -> Result<EpochSlot, StrategyError> {
    host.advance_until(until)?;
    let view = probe.map(|(func, at)| HostView {
        host: h,
        in_flight: host.active.len(),
        queued: host.pending.len(),
        warm_parked: host.warm_parked(func, at),
        cached_snapshot_pages: host.cached_snapshot_pages(func),
    });
    Ok(EpochSlot {
        host: h,
        view,
        events: tracer.drain_events(),
    })
}

/// Tears one host down and packages its outcome.
fn finish_host(mut host: Host<'_>, tracer: &Tracer) -> Result<HostOutcome, StrategyError> {
    host.teardown()?;
    let (process_names, thread_names) = tracer.take_names();
    Ok(HostOutcome {
        mem_hwm_bytes: host.mem_hwm_bytes,
        last_completion: host.last_completion,
        read_bytes: host.kernel.disk().tracer().read_bytes(),
        write_bytes: host.kernel.disk().tracer().write_bytes(),
        pool_evictions: host.pool.evictions(),
        pool_expirations: host.pool.expirations(),
        pool_hwm: host.pool_hwm,
        placed: host.placed,
        snapshot_fetches: host.snapshot_fetches,
        per_func: host.per_func,
        events: tracer.drain_events(),
        process_names,
        thread_names,
        metrics: tracer.metrics_snapshot(),
        series: tracer.series_snapshot(),
    })
}

/// The single-threaded shard: hosts advance one after another on the
/// caller's thread. No workers, no channels — `threads = 1` pays
/// nothing for the parallel machinery.
struct InlineShard<'a> {
    hosts: Vec<(Tracer, Host<'a>)>,
    t0: SimTime,
}

impl<'a> InlineShard<'a> {
    fn build(
        cfg: &'a FleetConfig,
        workloads: &[Workload],
        class: TracerClass,
    ) -> Result<InlineShard<'a>, StrategyError> {
        let mut hosts = Vec::with_capacity(cfg.hosts);
        let mut t0 = SimTime::ZERO;
        for h in 0..cfg.hosts {
            let (tracer, host, t) = build_shard_host(cfg, workloads, class, h)?;
            t0 = t;
            hosts.push((tracer, host));
        }
        Ok(InlineShard { hosts, t0 })
    }
}

impl Shard for InlineShard<'_> {
    fn t0(&self) -> SimTime {
        self.t0
    }

    fn epoch(
        &mut self,
        until: Option<SimTime>,
        probe: Option<(usize, SimTime)>,
    ) -> Result<Vec<EpochSlot>, StrategyError> {
        self.hosts
            .iter_mut()
            .enumerate()
            .map(|(h, (tracer, host))| host_epoch(h, host, tracer, until, probe))
            .collect()
    }

    fn dispatch(&mut self, target: usize, req: Request) -> Result<(), StrategyError> {
        self.hosts[target].1.handle_arrival(req)
    }

    fn fault(
        &mut self,
        host: usize,
        kind: FaultKind,
        at: SimTime,
    ) -> Result<Vec<usize>, StrategyError> {
        let h = &mut self.hosts[host].1;
        match kind {
            FaultKind::Crash => h.crash(at),
            FaultKind::Drain => h.drain(at).map(|()| Vec::new()),
        }
    }

    fn finish(&mut self) -> Result<Vec<HostOutcome>, StrategyError> {
        std::mem::take(&mut self.hosts)
            .into_iter()
            .map(|(tracer, host)| finish_host(host, &tracer))
            .collect()
    }
}

/// Driver → worker commands. Workers process them strictly in order,
/// so a `Dispatch` sent after an `Epoch` reply executes before the
/// next epoch begins — virtual time stays coherent per host.
enum Cmd {
    Epoch {
        until: Option<SimTime>,
        probe: Option<(usize, SimTime)>,
    },
    Dispatch {
        host: usize,
        req: Request,
    },
    Fault {
        host: usize,
        kind: FaultKind,
        at: SimTime,
    },
    Finish,
}

/// Worker → driver replies.
enum Reply {
    /// Build handshake: the worker's hosts are ready (all sharing
    /// `t0`), or construction failed.
    Ready(Result<SimTime, StrategyError>),
    /// One slot per owned host, in ascending host order. A stored
    /// dispatch error surfaces here.
    Epoch(Result<Vec<EpochSlot>, StrategyError>),
    /// Outcome of a fault round-trip: the functions to retry.
    Fault(Result<Vec<usize>, StrategyError>),
    /// One outcome per owned host, in ascending host order.
    Finished(Result<Vec<HostOutcome>, StrategyError>),
}

/// Body of one worker thread: owns the hosts with index `≡ worker
/// (mod threads)` for the whole run. `Host` is deliberately not
/// `Send` (its tracer handles are `Rc`), so each worker **builds**
/// its hosts locally and only plain data crosses the channels.
fn worker_main(
    cfg: &FleetConfig,
    workloads: &[Workload],
    class: TracerClass,
    indices: Vec<usize>,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    let mut hosts: Vec<(usize, Tracer, Host<'_>)> = Vec::with_capacity(indices.len());
    let mut t0 = SimTime::ZERO;
    let mut build_err = None;
    for h in indices {
        match build_shard_host(cfg, workloads, class, h) {
            Ok((tracer, host, t)) => {
                t0 = t;
                hosts.push((h, tracer, host));
            }
            Err(e) => {
                build_err = Some(e);
                break;
            }
        }
    }
    let ready = match build_err {
        Some(e) => Err(e),
        None => Ok(t0),
    };
    let failed = ready.is_err();
    if tx.send(Reply::Ready(ready)).is_err() || failed {
        return;
    }

    // A dispatch error is held here and surfaced in the next reply.
    let mut pending_err: Option<StrategyError> = None;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Epoch { until, probe } => {
                let reply = match pending_err.take() {
                    Some(e) => Err(e),
                    None => hosts
                        .iter_mut()
                        .map(|(h, tracer, host)| host_epoch(*h, host, tracer, until, probe))
                        .collect(),
                };
                if tx.send(Reply::Epoch(reply)).is_err() {
                    return;
                }
            }
            Cmd::Dispatch { host, req } => {
                if pending_err.is_some() {
                    continue;
                }
                let owned = hosts
                    .iter_mut()
                    .find(|(h, _, _)| *h == host)
                    .expect("dispatch routed to the owning worker");
                if let Err(e) = owned.2.handle_arrival(req) {
                    pending_err = Some(e);
                }
            }
            Cmd::Fault { host, kind, at } => {
                let reply = match pending_err.take() {
                    Some(e) => Err(e),
                    None => {
                        let owned = hosts
                            .iter_mut()
                            .find(|(h, _, _)| *h == host)
                            .expect("fault routed to the owning worker");
                        match kind {
                            FaultKind::Crash => owned.2.crash(at),
                            FaultKind::Drain => owned.2.drain(at).map(|()| Vec::new()),
                        }
                    }
                };
                if tx.send(Reply::Fault(reply)).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let reply = match pending_err.take() {
                    Some(e) => Err(e),
                    None => hosts
                        .drain(..)
                        .map(|(_, tracer, host)| finish_host(host, &tracer))
                        .collect(),
                };
                let _ = tx.send(Reply::Finished(reply));
                return;
            }
        }
    }
}

/// The parallel shard: `threads` workers, each owning the hosts with
/// index `≡ worker (mod threads)`. Barriers are blocking channel
/// round-trips — between barriers the workers advance their hosts
/// concurrently.
struct ThreadedShard {
    cmds: Vec<Sender<Cmd>>,
    replies: Vec<Receiver<Reply>>,
    hosts: usize,
    t0: SimTime,
}

impl ThreadedShard {
    fn start<'scope, 'env: 'scope>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        cfg: &'env FleetConfig,
        workloads: &'env [Workload],
        class: TracerClass,
        threads: usize,
    ) -> Result<ThreadedShard, StrategyError> {
        let mut cmds = Vec::with_capacity(threads);
        let mut replies = Vec::with_capacity(threads);
        for w in 0..threads {
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let (reply_tx, reply_rx) = channel::<Reply>();
            let indices: Vec<usize> = (w..cfg.hosts).step_by(threads).collect();
            scope.spawn(move || worker_main(cfg, workloads, class, indices, cmd_rx, reply_tx));
            cmds.push(cmd_tx);
            replies.push(reply_rx);
        }
        let mut t0 = SimTime::ZERO;
        let mut first_err = None;
        for rx in &replies {
            match rx.recv() {
                Ok(Reply::Ready(Ok(t))) => t0 = t,
                Ok(Reply::Ready(Err(e))) => {
                    first_err.get_or_insert(e);
                }
                _ => unreachable!("worker answered the build handshake out of protocol"),
            };
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(ThreadedShard {
                cmds,
                replies,
                hosts: cfg.hosts,
                t0,
            }),
        }
    }
}

impl Shard for ThreadedShard {
    fn t0(&self) -> SimTime {
        self.t0
    }

    fn epoch(
        &mut self,
        until: Option<SimTime>,
        probe: Option<(usize, SimTime)>,
    ) -> Result<Vec<EpochSlot>, StrategyError> {
        for tx in &self.cmds {
            tx.send(Cmd::Epoch { until, probe })
                .expect("worker alive for the whole run");
        }
        let mut slots: Vec<Option<EpochSlot>> = (0..self.hosts).map(|_| None).collect();
        let mut first_err = None;
        for rx in &self.replies {
            match rx.recv().expect("worker alive for the whole run") {
                Reply::Epoch(Ok(worker_slots)) => {
                    for slot in worker_slots {
                        let host = slot.host;
                        slots[host] = Some(slot);
                    }
                }
                Reply::Epoch(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                _ => unreachable!("worker answered an epoch out of protocol"),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(slots
                .into_iter()
                .map(|s| s.expect("every host reported its epoch slot"))
                .collect()),
        }
    }

    fn dispatch(&mut self, target: usize, req: Request) -> Result<(), StrategyError> {
        self.cmds[target % self.cmds.len()]
            .send(Cmd::Dispatch { host: target, req })
            .expect("worker alive for the whole run");
        Ok(())
    }

    fn fault(
        &mut self,
        host: usize,
        kind: FaultKind,
        at: SimTime,
    ) -> Result<Vec<usize>, StrategyError> {
        let w = host % self.cmds.len();
        self.cmds[w]
            .send(Cmd::Fault { host, kind, at })
            .expect("worker alive for the whole run");
        match self.replies[w]
            .recv()
            .expect("worker alive for the whole run")
        {
            Reply::Fault(r) => r,
            _ => unreachable!("worker answered a fault out of protocol"),
        }
    }

    fn finish(&mut self) -> Result<Vec<HostOutcome>, StrategyError> {
        for tx in &self.cmds {
            tx.send(Cmd::Finish)
                .expect("worker alive for the whole run");
        }
        let mut outcomes: Vec<Option<(usize, HostOutcome)>> =
            (0..self.hosts).map(|_| None).collect();
        let mut first_err = None;
        for (w, rx) in self.replies.iter().enumerate() {
            match rx.recv().expect("worker alive until Finish") {
                Reply::Finished(Ok(outs)) => {
                    for (i, out) in outs.into_iter().enumerate() {
                        let host = w + i * self.cmds.len();
                        outcomes[host] = Some((host, out));
                    }
                }
                Reply::Finished(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                _ => unreachable!("worker answered Finish out of protocol"),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(outcomes
                .into_iter()
                .map(|s| s.expect("every host reported its outcome").1)
                .collect()),
        }
    }
}

/// Resolves a requested thread count: `0` means "all the cores", and
/// more workers than hosts is never useful.
pub(crate) fn effective_threads(threads: usize, hosts: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    t.clamp(1, hosts.max(1))
}

/// The driver shared by every thread count: epochs between arrivals,
/// placement at the barriers, host-order merge of trace and metric
/// buffers, teardown, assembly.
fn drive(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
    policy: &mut dyn PlacementPolicy,
    shard: &mut dyn Shard,
) -> Result<ClusterResult, StrategyError> {
    let t0 = shard.t0();
    let mut arrivals: VecDeque<Request> = draw_arrivals(cfg, t0).into();
    let first_arrival = arrivals.front().map(|r| r.at).unwrap_or(t0);

    // Fault events in (time, host) order; each fires as its own epoch
    // barrier ahead of any arrival at the same instant.
    let mut faults: VecDeque<(SimTime, usize, FaultKind)> = {
        let mut evs: Vec<(SimTime, usize, FaultKind)> = cfg
            .faults
            .events
            .iter()
            .map(|e| (t0 + e.at, e.host, e.kind))
            .collect();
        evs.sort_by_key(|&(at, host, _)| (at, host));
        evs.into()
    };
    let retry_delay = match cfg.faults.retry {
        RetryPolicy::Fail => SimDuration::ZERO,
        RetryPolicy::Retry { delay } => delay,
    };
    // Crash retries, appended in crash order. Crash instants are
    // non-decreasing and the back-off is fixed, so the queue stays
    // sorted by re-arrival time.
    let mut retries: VecDeque<Request> = VecDeque::new();
    let mut draining = vec![false; cfg.hosts];

    loop {
        // The next barrier: the earliest of the pending fault, base
        // arrival, and retry streams. Ties fire the fault first (an
        // arrival at the crash instant sees the post-crash cluster),
        // then the base arrival, then the retry.
        let tf = faults.front().map(|f| f.0);
        let ta = arrivals.front().map(|r| r.at);
        let tr = retries.front().map(|r| r.at);
        let Some(next) = [tf, ta, tr].into_iter().flatten().min() else {
            break;
        };
        if tf == Some(next) {
            let (at, host, kind) = faults.pop_front().expect("checked front");
            // Barrier: events with clocks at or before the fault
            // instant complete first — an invocation finishing
            // exactly then counts as completed, the usual tie-break.
            for slot in shard.epoch(Some(at), None)? {
                tracer.record_all(slot.events);
            }
            if kind == FaultKind::Drain {
                draining[host] = true;
            }
            for func in shard.fault(host, kind, at)? {
                retries.push_back(Request {
                    at: at + retry_delay,
                    func,
                    retry: true,
                });
            }
            continue;
        }
        let req = if ta == Some(next) {
            arrivals.pop_front().expect("checked front")
        } else {
            retries.pop_front().expect("checked front")
        };
        // Barrier: every host catches up to the arrival instant
        // (events scheduled exactly at it execute first — the same
        // tie-break as the single-host loop) and reports its view.
        let slots = shard.epoch(Some(req.at), Some((req.func, req.at)))?;
        let mut views = Vec::with_capacity(slots.len());
        for slot in slots {
            tracer.record_all(slot.events);
            let view = slot.view.expect("arrival epochs carry a probe");
            // Draining hosts take no new placements.
            if !draining[view.host] {
                views.push(view);
            }
        }
        let name = workloads[req.func].name();
        let target = policy.place(name, &views);
        if !views.iter().any(|v| v.host == target) {
            return Err(StrategyError::Config(format!(
                "placement policy {} returned host {target}, not one of the {} placeable hosts",
                policy.label(),
                views.len()
            )));
        }
        tracer.set_pid(target as u32 + 1);
        if tracer.events_enabled() {
            tracer.instant(
                "cluster",
                "place",
                TID_CONTROL,
                req.at,
                vec![("func", req.func.into()), ("policy", policy.label().into())],
            );
        }
        shard.dispatch(target, req)?;
    }

    // Tail epoch: no more arrivals, drain every host to quiescence.
    for slot in shard.epoch(None, None)? {
        tracer.record_all(slot.events);
    }

    // End of run: tear every host down (parked sandboxes released,
    // memory accounting verified closed) and merge the per-host
    // buffers into the caller's tracer in host order.
    let outcomes = shard.finish()?;
    tracer.set_pid(1);

    let mut per_function: Vec<FuncStats> =
        workloads.iter().map(|w| FuncStats::new(w.name())).collect();
    let mut last_completion = t0;
    let mut host_results = Vec::with_capacity(outcomes.len());
    for (h, outcome) in outcomes.into_iter().enumerate() {
        tracer.record_all(outcome.events);
        tracer.merge_names(outcome.process_names, outcome.thread_names);
        tracer.merge_metrics(&outcome.metrics);
        tracer.merge_series(&outcome.series);
        for (merged, f) in per_function.iter_mut().zip(&outcome.per_func) {
            merged.merge(f);
        }
        let mut host_aggregate = FuncStats::new("all");
        for f in &outcome.per_func {
            host_aggregate.merge(f);
        }
        last_completion = last_completion.max(outcome.last_completion);
        host_results.push(HostResult {
            host: h,
            aggregate: host_aggregate,
            mem_hwm_bytes: outcome.mem_hwm_bytes,
            read_bytes: outcome.read_bytes,
            write_bytes: outcome.write_bytes,
            pool_evictions: outcome.pool_evictions,
            pool_expirations: outcome.pool_expirations,
            pool_hwm: outcome.pool_hwm,
            placed: outcome.placed,
            snapshot_fetches: outcome.snapshot_fetches,
            per_function: outcome.per_func,
        });
    }
    let mut aggregate = FuncStats::new("all");
    for f in &per_function {
        aggregate.merge(f);
    }

    let metrics = tracer.metrics_snapshot();
    Ok(ClusterResult {
        strategy: cfg.strategy.label(),
        placement: cfg.placement.label(),
        hosts: host_results,
        per_function,
        aggregate,
        span: last_completion.saturating_since(first_arrival),
        metrics,
        series: tracer.series_snapshot(),
    })
}

/// Runs a cluster simulation at the given thread count. `policy`
/// lets [`crate::Runner`] substitute a caller-supplied placement
/// policy; entry points pass `cfg.placement.build()`.
pub(crate) fn cluster_impl(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
    threads: usize,
    policy: &mut dyn PlacementPolicy,
) -> Result<ClusterResult, StrategyError> {
    validate(cfg, workloads)?;
    let threads = effective_threads(threads, cfg.hosts);
    if threads <= 1 {
        let mut shard = InlineShard::build(cfg, workloads, tracer.class())?;
        drive(cfg, workloads, tracer, policy, &mut shard)
    } else {
        std::thread::scope(|scope| {
            let mut shard = ThreadedShard::start(scope, cfg, workloads, tracer.class(), threads)?;
            drive(cfg, workloads, tracer, policy, &mut shard)
        })
    }
}

// Unit tests live in `tests/cluster.rs` (integration surface),
// `tests/properties.rs`, and `tests/parallel.rs`; this module keeps
// only the validation-edge checks that need no host setup.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use snapbpf::StrategyKind;

    fn run(cfg: &FleetConfig, w: &[Workload]) -> Result<ClusterResult, StrategyError> {
        Runner::new(cfg).workloads(w).run().map(|out| match out {
            crate::RunOutput::Cluster(c) => c,
            crate::RunOutput::Fleet(_) => panic!("expected a cluster run"),
        })
    }

    #[test]
    fn zero_hosts_is_a_config_error() {
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0);
        cfg.hosts = 0;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("at least one host"), "{err}");
    }

    #[test]
    fn empty_mix_is_a_config_error() {
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 0, 10.0);
        cfg.hosts = 2;
        let err = run(&cfg, &[]).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("mix is empty"), "{err}");
    }

    #[test]
    fn mismatched_mix_is_a_config_error() {
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 2, 10.0);
        cfg.hosts = 2;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("covers 2 functions"), "{err}");
    }

    #[test]
    fn zero_concurrency_is_a_config_error() {
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0);
        cfg.hosts = 2;
        cfg.max_concurrency = 0;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
    }

    #[test]
    fn out_of_range_scale_is_a_config_error() {
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        for scale in [0.0, -1.0, f64::NAN] {
            let cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0).at_scale(scale);
            let err = run(&cfg, &w).unwrap_err();
            assert!(matches!(err, StrategyError::Config(_)), "got {err}");
            assert!(err.to_string().contains("scale must be in (0, 1]"), "{err}");
        }
    }

    #[test]
    fn invalid_arrival_process_is_a_config_error() {
        use snapbpf_sim::{ArrivalProcess, ArrivalSource, ComposedArrivals};
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        for rate_rps in [0.0, -5.0, f64::NAN] {
            let process = ArrivalProcess::Poisson { rate_rps };
            let expected = process.check().unwrap_err();
            // Plain on one host, composed (checked through its base)
            // on two.
            let sources: [(usize, ArrivalSource); 2] = [
                (1, process.into()),
                (2, ComposedArrivals::over(process).into()),
            ];
            for (hosts, arrival) in sources {
                let mut cfg =
                    FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0).with_arrivals(arrival);
                cfg.hosts = hosts;
                let err = run(&cfg, &w).unwrap_err();
                assert!(
                    matches!(&err, StrategyError::Config(m) if m == expected),
                    "got {err}"
                );
            }
        }
    }

    #[test]
    fn faults_on_a_single_host_are_a_config_error() {
        use crate::config::FaultSchedule;
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        // Crash at t = 0 of the only host: a clean error, not a panic.
        let cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0)
            .with_faults(FaultSchedule::none().crash(0, snapbpf_sim::SimDuration::ZERO));
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("at least two hosts"), "{err}");
    }

    #[test]
    fn draining_every_host_is_a_config_error() {
        use crate::config::FaultSchedule;
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let ms = SimDuration::from_millis(1);
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0)
            .with_faults(FaultSchedule::none().drain(0, ms).drain(1, ms));
        cfg.hosts = 2;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("drains every host"), "{err}");
    }

    #[test]
    fn fault_host_out_of_range_is_a_config_error() {
        use crate::config::FaultSchedule;
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0)
            .with_faults(FaultSchedule::none().crash(5, SimDuration::from_millis(1)));
        cfg.hosts = 2;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(err.to_string().contains("targets host 5"), "{err}");
    }

    #[test]
    fn mismatched_tenancy_is_a_config_error() {
        use crate::config::TenancyConfig;
        let w: Vec<Workload> = vec![Workload::by_name("json").unwrap()];
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0)
            .with_tenants(TenancyConfig::round_robin(&["a", "b"], 3));
        cfg.hosts = 2;
        let err = run(&cfg, &w).unwrap_err();
        assert!(matches!(err, StrategyError::Config(_)), "got {err}");
        assert!(
            err.to_string().contains("tenant assignment covers 3"),
            "{err}"
        );

        let mut cfg =
            FleetConfig::new(StrategyKind::SnapBpf, 1, 10.0).with_tenants(TenancyConfig {
                labels: vec!["a".to_owned()],
                assignment: vec![7],
            });
        cfg.hosts = 2;
        let err = run(&cfg, &w).unwrap_err();
        assert!(err.to_string().contains("references tenant 7"), "{err}");
    }

    #[test]
    fn effective_threads_clamps_sensibly() {
        assert_eq!(effective_threads(1, 8), 1);
        assert_eq!(effective_threads(4, 8), 4);
        assert_eq!(effective_threads(16, 8), 8, "never more workers than hosts");
        assert_eq!(effective_threads(4, 1), 1);
        assert!(
            effective_threads(0, 64) >= 1,
            "0 resolves to the core count"
        );
    }
}
