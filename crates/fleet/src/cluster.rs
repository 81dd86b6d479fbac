//! Multi-host cluster simulation: N per-host worlds, a placement
//! policy routing arrivals between them, and a snapshot-distribution
//! cost model (DESIGN.md §8), executed by a segment engine that runs
//! host event loops independently, on one thread or many, without
//! giving up determinism (DESIGN.md §11).
//!
//! A cluster run generalizes the single-host fleet run: every host
//! owns its own simulated kernel, disk, page cache, and keep-alive
//! [`crate::SandboxPool`], all configured identically from the one
//! [`FleetConfig`]. Hosts start from one recorded world: each shard
//! runs the record phase once and gives every host it owns a clone
//! (`crate::host::World`), which the host then owns outright. One
//! global arrival schedule is drawn exactly as
//! the single-host path draws it; a [`PlacementPolicy`] then decides,
//! per arrival, which host serves it.
//!
//! ## The segment execution model
//!
//! Hosts only interact through routing: once an arrival's host is
//! known, no event on host A can affect host B. Routing can change
//! only at a fault (a drain shrinks the placeable set, a crash
//! re-places its retries) or at an arrival whose policy reads
//! per-host state ([`PlacementPolicy::static_route`] is `None`). The
//! driver therefore cuts the run into **segments** bounded by the
//! next routing change: the next fault for a static policy such as
//! hash placement, the next arrival for a load- or locality-aware
//! one. Within a segment each host runs only its own arrivals (an
//! index list into the global schedule): it drains its events with
//! clocks `<= t_arrival` (the single-host loop's tie-break), handles
//! the arrival, and finally drains up to the segment's end. At the
//! end the driver applies the fault, or places the arrival from every
//! host's [`HostView`]; crash retries join the remaining schedule and
//! are routed for the new live set. `threads = 1` runs the hosts of a
//! segment one after another; `threads > 1` sends one command per
//! segment to each of a pool of workers, each owning a fixed subset
//! of hosts (host `h` lives on worker `h % threads`) cloned from a
//! world the worker records itself, so a run records `threads`
//! worlds, never one per host.
//!
//! Each host records into a private [`Tracer`] (`pid = host + 1`),
//! its `cluster:place` instants included: one just before each
//! arrival it handles. At the end of the run the driver appends each
//! host's whole event stream, names, metrics and series to the
//! caller's tracer, in host order. The merged trace thus groups
//! events by host, each host's in its own emission order (Perfetto
//! orders by `ts`), and a run is a pure function of ([`FleetConfig`],
//! workload list) — the same seed produces byte-identical Chrome
//! traces and field-identical [`ClusterResult`]s at any thread count
//! and whether or not routing was static (`tests/parallel.rs`).
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
use std::sync::Arc;

use snapbpf_sim::{
    MetricsRegistry, SeriesRegistry, SimDuration, SimTime, TraceEvent, Tracer, TracerClass,
    TID_CONTROL, TID_DISK, TID_KERNEL,
};
use snapbpf_workloads::{FunctionSpec, Workload};

use crate::config::{FaultKind, FleetConfig, RetryPolicy};
use crate::host::{build_world, draw_arrivals, Host, Request, World};
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
// The segment engine
// ---------------------------------------------------------------

/// One stretch of a run up to the next point where routing can
/// change, shared read-only with every shard worker.
struct Segment {
    /// Every arrival of the run, base arrivals and crash retries, in
    /// run order: by time, and at one instant base arrivals before
    /// retries, retries in crash order.
    schedule: Vec<Request>,
    /// Per host, the arrivals it handles in this segment: ascending
    /// indices into `schedule`.
    routes: Vec<Vec<u32>>,
    /// Where the segment ends: every host runs its events with clock
    /// `<= until`. `None` runs them all, so it marks the last segment.
    until: Option<SimTime>,
    /// The function of the arrival at `until`, when its placement
    /// needs every host's [`HostView`].
    probe: Option<usize>,
    /// The placement policy's label, stamped on `cluster:place`.
    policy: &'static str,
}

/// Everything a host world hands back at the end of a run — plain
/// data, so worker threads can ship it to the driver.
struct HostOutcome {
    per_func: Vec<FuncStats>,
    mem_hwm_bytes: u64,
    last_completion: SimTime,
    read_bytes: u64,
    pool_evictions: u64,
    pool_expirations: u64,
    pool_hwm: u64,
    placed: u64,
    snapshot_fetches: u64,
    /// Every trace event the host recorded, in emission order.
    events: Vec<TraceEvent>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
    metrics: MetricsRegistry,
    series: SeriesRegistry,
}

/// One host world of a shard, with its own buffering tracer.
struct ShardHost<'a> {
    index: usize,
    tracer: Tracer,
    host: Host<'a>,
}

impl<'a> ShardHost<'a> {
    /// Makes host `h` from `world`, with its own tracer and CPU.
    fn new(cfg: &'a FleetConfig, world: World, class: TracerClass, h: usize) -> ShardHost<'a> {
        let tracer = Tracer::of_class(class);
        tracer.set_pid(h as u32 + 1);
        let mut host = Host::from_world(world, cfg, &tracer);
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
        ShardHost {
            index: h,
            tracer,
            host,
        }
    }

    /// Runs this host through `seg`: each of its arrivals at its
    /// instant, then on to the segment's end. Pushes the host's view
    /// when the segment carries a probe.
    fn run(&mut self, seg: &Segment, views: &mut Vec<HostView>) -> Result<(), StrategyError> {
        for &i in &seg.routes[self.index] {
            let req = seg.schedule[i as usize];
            self.host.advance_until(Some(req.at))?;
            if self.tracer.events_enabled() {
                self.tracer.instant(
                    "cluster",
                    "place",
                    TID_CONTROL,
                    req.at,
                    vec![("func", req.func.into()), ("policy", seg.policy.into())],
                );
            }
            self.host.handle_arrival(req)?;
        }
        self.host.advance_until(seg.until)?;
        if let (Some(func), Some(at)) = (seg.probe, seg.until) {
            views.push(HostView {
                host: self.index,
                in_flight: self.host.active.len(),
                queued: self.host.pending.len(),
                warm_parked: self.host.warm_parked(func, at),
                cached_snapshot_pages: self.host.cached_snapshot_pages(func),
            });
        }
        Ok(())
    }

    /// Injects a fault at `at`, returning the functions of
    /// crash-killed requests to retry (always empty for a drain).
    fn fault(&mut self, kind: FaultKind, at: SimTime) -> Result<Vec<usize>, StrategyError> {
        match kind {
            FaultKind::Crash => self.host.crash(at),
            FaultKind::Drain => self.host.drain(at).map(|()| Vec::new()),
        }
    }

    /// Tears the host down and packages its outcome.
    fn finish(mut self) -> Result<HostOutcome, StrategyError> {
        self.host.teardown()?;
        let (host, tracer) = (self.host, self.tracer);
        let (process_names, thread_names) = tracer.take_names();
        Ok(HostOutcome {
            mem_hwm_bytes: host.mem_hwm_bytes,
            last_completion: host.last_completion,
            read_bytes: host.kernel.disk().read_bytes(),
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
}

/// The executor behind a cluster run: runs hosts through segments.
/// Two implementations — [`InlineShard`] (one thread, no handoff)
/// and [`ThreadedShard`] (a worker pool) — drive identical host
/// code, so the driver above them cannot tell which one it is
/// running on.
trait Shard {
    /// Virtual time the invocation phase starts at (identical on
    /// every host by construction).
    fn t0(&self) -> SimTime;

    /// Runs every host through `seg` (see [`ShardHost::run`]). Pushes
    /// one [`HostView`] per host, in ascending host order, when the
    /// segment carries a probe.
    fn segment(
        &mut self,
        seg: &Arc<Segment>,
        views: &mut Vec<HostView>,
    ) -> Result<(), StrategyError>;

    /// Injects a fault into `host` (see [`ShardHost::fault`]).
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

/// Hosts that run one after another on the calling thread: the whole
/// cluster when `threads = 1` (no workers, no channels), and each
/// worker's share under [`ThreadedShard`].
struct InlineShard<'a> {
    /// The hosts not yet torn down, in ascending host order.
    live: Vec<ShardHost<'a>>,
    /// Outcomes of the hosts already torn down, in host order.
    done: Vec<HostOutcome>,
    t0: SimTime,
}

/// How a shard makes its hosts: from the run's config and workload
/// list, the hosts with the given indices, each recording into a
/// tracer of the given class.
type BuildShard = for<'a> fn(
    &'a FleetConfig,
    &[Workload],
    TracerClass,
    Vec<usize>,
) -> Result<InlineShard<'a>, StrategyError>;

impl InlineShard<'_> {
    /// Records one world and gives each host a clone of it.
    fn build<'a>(
        cfg: &'a FleetConfig,
        workloads: &[Workload],
        class: TracerClass,
        indices: Vec<usize>,
    ) -> Result<InlineShard<'a>, StrategyError> {
        let world = build_world(cfg, workloads)?;
        let worlds = vec![world; indices.len()];
        Ok(InlineShard::of_worlds(cfg, class, indices, worlds))
    }

    /// Hosts `indices`, host `indices[i]` made from `worlds[i]`.
    fn of_worlds<'a>(
        cfg: &'a FleetConfig,
        class: TracerClass,
        indices: Vec<usize>,
        worlds: Vec<World>,
    ) -> InlineShard<'a> {
        let t0 = worlds.first().map_or(SimTime::ZERO, |w| w.t0);
        let live: Vec<ShardHost<'a>> = indices
            .into_iter()
            .zip(worlds)
            .map(|(h, world)| ShardHost::new(cfg, world, class, h))
            .collect();
        let done = Vec::with_capacity(live.len());
        InlineShard { live, done, t0 }
    }
}

impl Shard for InlineShard<'_> {
    fn t0(&self) -> SimTime {
        self.t0
    }

    /// The last segment (`until` is `None`) tears each host down as
    /// soon as it has run, so its memory is freed before the next
    /// host runs.
    fn segment(
        &mut self,
        seg: &Arc<Segment>,
        views: &mut Vec<HostView>,
    ) -> Result<(), StrategyError> {
        if seg.until.is_some() {
            return self.live.iter_mut().try_for_each(|h| h.run(seg, views));
        }
        for mut host in self.live.drain(..) {
            host.run(seg, views)?;
            self.done.push(host.finish()?);
        }
        Ok(())
    }

    fn fault(
        &mut self,
        host: usize,
        kind: FaultKind,
        at: SimTime,
    ) -> Result<Vec<usize>, StrategyError> {
        self.live
            .iter_mut()
            .find(|h| h.index == host)
            .expect("fault routed to the host's owner")
            .fault(kind, at)
    }

    fn finish(&mut self) -> Result<Vec<HostOutcome>, StrategyError> {
        for host in self.live.drain(..) {
            self.done.push(host.finish()?);
        }
        Ok(std::mem::take(&mut self.done))
    }
}

/// Driver → worker commands, processed strictly in order.
enum Cmd {
    Segment(Arc<Segment>),
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
    /// The worker's hosts' views for one segment, in ascending host
    /// order.
    Segment(Result<Vec<HostView>, StrategyError>),
    /// Outcome of a fault round-trip: the functions to retry.
    Fault(Result<Vec<usize>, StrategyError>),
    /// One outcome per owned host, in ascending host order.
    Finished(Result<Vec<HostOutcome>, StrategyError>),
}

/// Body of one worker thread: owns the hosts with index `≡ worker
/// (mod threads)` for the whole run. `Host` is deliberately not
/// `Send` (its tracer handles are `Rc`), so each worker **builds**
/// its hosts locally, through `build`, and only plain data crosses
/// the channels.
fn worker_main(
    cfg: &FleetConfig,
    workloads: &[Workload],
    class: TracerClass,
    indices: Vec<usize>,
    build: BuildShard,
    rx: Receiver<Cmd>,
    tx: Sender<Reply>,
) {
    let mut hosts = match build(cfg, workloads, class, indices) {
        Ok(hosts) => {
            if tx.send(Reply::Ready(Ok(hosts.t0))).is_err() {
                return;
            }
            hosts
        }
        Err(e) => {
            let _ = tx.send(Reply::Ready(Err(e)));
            return;
        }
    };
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Segment(seg) => {
                let mut views = Vec::new();
                let ran = hosts.segment(&seg, &mut views);
                // Released before the reply: the driver reuses the
                // segment in place once every worker has answered.
                drop(seg);
                Reply::Segment(ran.map(|()| views))
            }
            Cmd::Fault { host, kind, at } => Reply::Fault(hosts.fault(host, kind, at)),
            Cmd::Finish => {
                let _ = tx.send(Reply::Finished(hosts.finish()));
                return;
            }
        };
        if tx.send(reply).is_err() {
            return;
        }
    }
}

/// The parallel shard: `threads` workers, each owning the hosts with
/// index `≡ worker (mod threads)`. A segment is one command per
/// worker; the workers run their hosts through it concurrently.
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
        build: BuildShard,
    ) -> Result<ThreadedShard, StrategyError> {
        let mut cmds = Vec::with_capacity(threads);
        let mut replies = Vec::with_capacity(threads);
        for w in 0..threads {
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let (reply_tx, reply_rx) = channel::<Reply>();
            let indices: Vec<usize> = (w..cfg.hosts).step_by(threads).collect();
            scope.spawn(move || {
                worker_main(cfg, workloads, class, indices, build, cmd_rx, reply_tx)
            });
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

    fn segment(
        &mut self,
        seg: &Arc<Segment>,
        views: &mut Vec<HostView>,
    ) -> Result<(), StrategyError> {
        for tx in &self.cmds {
            tx.send(Cmd::Segment(Arc::clone(seg)))
                .expect("worker alive for the whole run");
        }
        let mut first_err = None;
        for rx in &self.replies {
            match rx.recv().expect("worker alive for the whole run") {
                Reply::Segment(Ok(worker_views)) => views.extend(worker_views),
                Reply::Segment(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                _ => unreachable!("worker answered a segment out of protocol"),
            }
        }
        views.sort_unstable_by_key(|v| v.host);
        first_err.map_or(Ok(()), Err)
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
        let threads = self.cmds.len();
        let mut outcomes = Vec::with_capacity(self.hosts);
        let mut first_err = None;
        for (w, rx) in self.replies.iter().enumerate() {
            match rx.recv().expect("worker alive until Finish") {
                Reply::Finished(Ok(outs)) => {
                    outcomes.extend(
                        outs.into_iter()
                            .enumerate()
                            .map(|(i, o)| (w + i * threads, o)),
                    );
                }
                Reply::Finished(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                _ => unreachable!("worker answered Finish out of protocol"),
            }
        }
        outcomes.sort_unstable_by_key(|&(host, _)| host);
        first_err.map_or(Ok(outcomes.into_iter().map(|(_, o)| o).collect()), Err)
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

/// The error for a placement outside the placeable hosts.
fn misplaced(policy: &dyn PlacementPolicy, target: usize, placeable: usize) -> StrategyError {
    StrategyError::Config(format!(
        "placement policy {} returned host {target}, not one of the {placeable} placeable hosts",
        policy.label()
    ))
}

/// Each function's host under `policy` while the hosts not
/// `draining` take placements; `None` where the policy places
/// arrival by arrival.
fn static_routes(
    policy: &dyn PlacementPolicy,
    workloads: &[Workload],
    draining: &[bool],
) -> Result<Vec<Option<usize>>, StrategyError> {
    let live: Vec<usize> = (0..draining.len()).filter(|&h| !draining[h]).collect();
    workloads
        .iter()
        .map(|w| match policy.static_route(w.name(), &live) {
            Some(h) if !live.contains(&h) => Err(misplaced(policy, h, live.len())),
            route => Ok(route),
        })
        .collect()
}

/// The driver shared by every thread count (DESIGN.md §11): routes
/// arrivals, runs segments up to each routing change, places and
/// faults at those points, then tears down and merges every host's
/// outputs in host order.
fn drive(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
    policy: &mut dyn PlacementPolicy,
    shard: &mut dyn Shard,
) -> Result<ClusterResult, StrategyError> {
    let t0 = shard.t0();
    let mut seg = Arc::new(Segment {
        schedule: draw_arrivals(cfg, t0),
        routes: vec![Vec::new(); cfg.hosts],
        until: None,
        probe: None,
        policy: policy.label(),
    });
    let first_arrival = seg.schedule.first().map_or(t0, |r| r.at);

    // Fault events in (time, host) order; each goes ahead of any
    // arrival at the same instant.
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
    let mut draining = vec![false; cfg.hosts];
    let mut routes = static_routes(policy, workloads, &draining)?;
    // The first arrival not yet routed, and the arrival placed at the
    // last segment's end, which its host handles in the next segment.
    let mut next = 0;
    let mut placed: Option<(usize, usize)> = None;
    let mut views = Vec::with_capacity(cfg.hosts);

    loop {
        let s = Arc::get_mut(&mut seg).expect("shard workers release each segment");
        s.routes.iter_mut().for_each(Vec::clear);
        if let Some((i, h)) = placed.take() {
            s.routes[h].push(i as u32);
        }
        // Route ahead every arrival before the next fault whose host
        // the policy knows without looking; the segment ends at the
        // first routing change: an arrival the policy must place from
        // views, the fault, or the end of the run.
        let tf = faults.front().map(|f| f.0);
        let unrouted = |i: usize| s.schedule.get(i).filter(|r| tf.is_none_or(|tf| r.at < tf));
        while let Some(h) = unrouted(next).and_then(|r| routes[r.func]) {
            s.routes[h].push(next as u32);
            next += 1;
        }
        let probe = unrouted(next).copied();
        s.until = probe.map(|r| r.at).or(tf);
        s.probe = probe.map(|r| r.func);

        views.clear();
        shard.segment(&seg, &mut views)?;
        if let Some(req) = probe {
            // Draining hosts take no new placements.
            views.retain(|v| !draining[v.host]);
            let target = policy.place(workloads[req.func].name(), &views);
            if !views.iter().any(|v| v.host == target) {
                return Err(misplaced(policy, target, views.len()));
            }
            placed = Some((next, target));
            next += 1;
            continue;
        }
        let Some((at, host, kind)) = faults.pop_front() else {
            break;
        };
        // Every host has run its events with clocks at or before the
        // fault instant: an invocation finishing exactly then counts
        // as completed, the usual tie-break.
        let killed = shard.fault(host, kind, at)?;
        if !killed.is_empty() {
            let s = Arc::get_mut(&mut seg).expect("shard workers release each segment");
            // Retries join the schedule after every arrival at or
            // before their instant, earlier crashes' retries included.
            let at = at + retry_delay;
            let pos = next + s.schedule[next..].partition_point(|r| (r.at, r.retry) <= (at, true));
            let retries = killed.into_iter().map(|func| Request {
                at,
                func,
                retry: true,
            });
            s.schedule.splice(pos..pos, retries);
        }
        if kind == FaultKind::Drain {
            draining[host] = true;
            routes = static_routes(policy, workloads, &draining)?;
        }
    }

    // End of run: tear every host down (parked sandboxes released,
    // memory accounting verified closed) and merge the per-host
    // buffers into the caller's tracer in host order.
    let outcomes = shard.finish()?;

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
    run_shards(cfg, workloads, tracer, threads, policy, InlineShard::build)
}

/// [`cluster_impl`] with every shard made by `build`.
fn run_shards(
    cfg: &FleetConfig,
    workloads: &[Workload],
    tracer: &Tracer,
    threads: usize,
    policy: &mut dyn PlacementPolicy,
    build: BuildShard,
) -> Result<ClusterResult, StrategyError> {
    validate(cfg, workloads)?;
    let threads = effective_threads(threads, cfg.hosts);
    let class = tracer.class();
    if threads <= 1 {
        let mut shard = build(cfg, workloads, class, (0..cfg.hosts).collect())?;
        drive(cfg, workloads, tracer, policy, &mut shard)
    } else {
        std::thread::scope(|scope| {
            let mut shard = ThreadedShard::start(scope, cfg, workloads, class, threads, build)?;
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
    use snapbpf_sim::TraceEvent;

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

    /// An inline shard that counts the segments a run takes and the
    /// arrivals they route.
    struct CountingShard<'a> {
        inner: InlineShard<'a>,
        segments: usize,
        routed: usize,
    }

    impl Shard for CountingShard<'_> {
        fn t0(&self) -> SimTime {
            self.inner.t0()
        }

        fn segment(
            &mut self,
            seg: &Arc<Segment>,
            views: &mut Vec<HostView>,
        ) -> Result<(), StrategyError> {
            self.segments += 1;
            self.routed += seg.routes.iter().map(Vec::len).sum::<usize>();
            self.inner.segment(seg, views)
        }

        fn fault(
            &mut self,
            host: usize,
            kind: FaultKind,
            at: SimTime,
        ) -> Result<Vec<usize>, StrategyError> {
            self.inner.fault(host, kind, at)
        }

        fn finish(&mut self) -> Result<Vec<HostOutcome>, StrategyError> {
            self.inner.finish()
        }
    }

    /// `(segments, arrivals routed, arrivals handled)` of one run.
    fn segments_of(cfg: &FleetConfig, w: &[Workload]) -> (usize, usize, usize) {
        let tracer = Tracer::noop();
        let mut shard = CountingShard {
            inner: InlineShard::build(cfg, w, tracer.class(), (0..cfg.hosts).collect()).unwrap(),
            segments: 0,
            routed: 0,
        };
        let mut policy = cfg.placement.build();
        let r = drive(cfg, w, &tracer, policy.as_mut(), &mut shard).unwrap();
        (shard.segments, shard.routed, r.aggregate.arrivals as usize)
    }

    #[test]
    fn segments_end_only_where_routing_can_change() {
        use crate::config::FaultSchedule;
        use crate::placement::PlacementKind;
        let w = snapbpf_testkit::small_suite();
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, w.len(), 160.0).at_scale(0.02);
        cfg.duration = SimDuration::from_millis(500);
        cfg.hosts = 4;
        // Hash placement without faults: one segment, in which each
        // host advances once per arrival of its own and once at the
        // end.
        let (segments, routed, arrivals) = segments_of(&cfg, &w);
        assert!(arrivals > 0);
        assert_eq!((segments, routed), (1, arrivals));
        // A drain is one more routing change.
        cfg.faults = FaultSchedule::none().drain(1, SimDuration::from_millis(200));
        assert_eq!(segments_of(&cfg, &w), (2, arrivals, arrivals));
        // A load-aware policy reads views at every arrival.
        cfg.faults = FaultSchedule::none();
        cfg.placement = PlacementKind::LeastLoaded;
        assert_eq!(segments_of(&cfg, &w), (arrivals + 1, arrivals, arrivals));
    }

    /// The test hook: every host records its own world, as each host
    /// did before a shard shared one.
    fn build_per_host<'a>(
        cfg: &'a FleetConfig,
        workloads: &[Workload],
        class: TracerClass,
        indices: Vec<usize>,
    ) -> Result<InlineShard<'a>, StrategyError> {
        let worlds = indices
            .iter()
            .map(|_| build_world(cfg, workloads))
            .collect::<Result<_, _>>()?;
        Ok(InlineShard::of_worlds(cfg, class, indices, worlds))
    }

    /// One traced run with every shard made by `build`.
    fn traced(
        cfg: &FleetConfig,
        w: &[Workload],
        threads: usize,
        build: BuildShard,
    ) -> (ClusterResult, Vec<TraceEvent>) {
        let tracer = Tracer::recording();
        let mut policy = cfg.placement.build();
        let r = run_shards(cfg, w, &tracer, threads, policy.as_mut(), build).unwrap();
        (r, tracer.take_events())
    }

    /// Hosts cloned from one recorded world run exactly as hosts that
    /// each recorded their own: the same result and the same trace
    /// events, under every placement policy, local and remote
    /// snapshots, a crash of host 0 that kills work and is retried,
    /// on one thread and on two.
    #[test]
    fn shared_worlds_match_per_host_builds_exactly() {
        use crate::config::{FaultSchedule, SnapshotDistribution};
        use crate::placement::PlacementKind;
        let w = snapbpf_testkit::small_suite();
        let crash = FaultSchedule::none()
            .crash(0, SimDuration::from_millis(10))
            .retrying(SimDuration::from_millis(2));
        for placement in PlacementKind::ALL {
            for distribution in [
                SnapshotDistribution::Local,
                SnapshotDistribution::remote_10g(),
            ] {
                for faults in [FaultSchedule::none(), crash.clone()] {
                    let mut cfg =
                        FleetConfig::new(StrategyKind::SnapBpf, w.len(), 200.0).at_scale(0.02);
                    cfg.duration = SimDuration::from_millis(500);
                    cfg.hosts = 4;
                    cfg.placement = placement;
                    cfg.distribution = distribution;
                    cfg.faults = faults;
                    let what = format!("{} + {distribution:?}", placement.label());
                    for threads in [1, 2] {
                        let (shared, shared_events) = traced(&cfg, &w, threads, InlineShard::build);
                        let (own, own_events) = traced(&cfg, &w, threads, build_per_host);
                        if !cfg.faults.events.is_empty() {
                            assert!(
                                shared.aggregate.retried > 0,
                                "{what}: the crash killed no work"
                            );
                        }
                        assert_eq!(shared, own, "{what}, threads={threads}: results differ");
                        assert!(
                            shared_events == own_events,
                            "{what}, threads={threads}: trace events differ"
                        );
                    }
                }
            }
        }
    }

    /// A shard records its hosts' world once: an 8-host cluster on
    /// one thread records one world, on two threads one per worker,
    /// and a single-host fleet run one.
    #[test]
    fn each_shard_records_one_world() {
        use crate::host::world_builds;
        let w = snapbpf_testkit::small_suite();
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, w.len(), 50.0).at_scale(0.02);
        cfg.duration = SimDuration::from_millis(100);
        let builds = |cfg: &FleetConfig, threads: usize| {
            let before = world_builds::of(&w);
            Runner::new(cfg)
                .workloads(&w)
                .threads(threads)
                .run()
                .unwrap();
            world_builds::of(&w) - before
        };
        assert_eq!(builds(&cfg, 1), 1, "a fleet run");
        cfg.hosts = 8;
        assert_eq!(builds(&cfg, 1), 1, "an inline cluster");
        assert_eq!(builds(&cfg, 2), 2, "a two-thread cluster");
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
