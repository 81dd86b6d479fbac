//! Fleet run configuration.

use snapbpf::{DeviceKind, StrategyKind};
use snapbpf_sim::{ArrivalProcess, ArrivalSource, SimDuration, TraceArrival};
use snapbpf_workloads::FunctionMix;

use crate::placement::PlacementKind;

/// How cold-start restores are scheduled against other host events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestoreMode {
    /// Drive each restore to full drain inside its dispatch event —
    /// the pre-staging behaviour: one sandbox's whole restore I/O
    /// burst is submitted before any other event runs, and the guest
    /// resumes only after every stage (prefetch included) completes.
    Serialized,
    /// Step restore stages as first-class virtual-time events,
    /// interleaved with running vCPUs and other restores (the staged
    /// [`snapbpf::RestoreCursor`] pipeline).
    #[default]
    Pipelined,
}

/// How function snapshots reach a host that has never run the
/// function before (the cross-host snapshot-distribution cost model
/// of a cluster run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotDistribution {
    /// Every host already holds every snapshot on local disk (shared
    /// image store or pre-seeded fleet). First cold starts pay
    /// nothing beyond the normal restore path. This is the default —
    /// and the mode under which a one-host cluster reproduces a
    /// single-host fleet run exactly.
    #[default]
    Local,
    /// Snapshots live in a remote registry: the *first* cold start of
    /// a function on a given host pays `base + per_mib × snapshot
    /// MiB` of transfer latency before its restore stages may begin.
    /// Subsequent restores on that host hit local disk and page
    /// cache.
    Remote {
        /// Fixed per-transfer latency (control-plane round trip plus
        /// connection setup).
        base: SimDuration,
        /// Additional latency per MiB of snapshot memory transferred.
        per_mib: SimDuration,
    },
}

impl SnapshotDistribution {
    /// A remote registry over a ~10 Gb/s fabric: 2 ms setup plus
    /// ~0.8 ms per MiB.
    pub fn remote_10g() -> SnapshotDistribution {
        SnapshotDistribution::Remote {
            base: SimDuration::from_millis(2),
            per_mib: SimDuration::from_micros(800),
        }
    }

    /// Transfer latency for a snapshot of `bytes` bytes (zero under
    /// [`SnapshotDistribution::Local`]).
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        match *self {
            SnapshotDistribution::Local => SimDuration::ZERO,
            SnapshotDistribution::Remote { base, per_mib } => {
                let per_byte_scaled = (per_mib.as_nanos() as u128 * bytes as u128) >> 20;
                base + SimDuration::from_nanos(per_byte_scaled as u64)
            }
        }
    }
}

/// What happens to a host at a scheduled fault instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The host dies instantly and reboots with cold state: in-flight
    /// invocations fail (or retry, per [`RetryPolicy`]), queued
    /// requests likewise, the warm pool and page cache are lost, and
    /// locally cached snapshots are gone — the next cold start of each
    /// function re-pays the [`SnapshotDistribution`] transfer.
    Crash,
    /// The host stops accepting placements but lets in-flight and
    /// queued work finish; its warm pool is evicted at the drain
    /// instant and completed sandboxes tear down instead of parking.
    Drain,
}

/// One scheduled fault against one host, at an offset from the run
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires, as an offset from the first simulated
    /// instant of the run.
    pub at: SimDuration,
    /// Which host (index into the cluster) the fault hits.
    pub host: usize,
    /// Crash or drain.
    pub kind: FaultKind,
}

/// What a crash does to the invocations it kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Killed invocations count as failed and are never re-issued.
    #[default]
    Fail,
    /// Each killed invocation is re-submitted exactly once as a fresh
    /// arrival `delay` after the crash, re-placed across the surviving
    /// hosts. A retry killed by a second crash fails for good.
    Retry {
        /// Client back-off between the crash and the re-submission.
        delay: SimDuration,
    },
}

/// A schedule of host faults injected into a cluster run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// The faults, in any order; the cluster engine sorts them by
    /// `(at, host)` and ends a segment at each (DESIGN.md §11).
    pub events: Vec<FaultEvent>,
    /// What crashes do to the invocations they kill.
    pub retry: RetryPolicy,
}

impl FaultSchedule {
    /// An empty schedule (no faults) — the default.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when no fault ever fires.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a crash of `host` at offset `at`.
    #[must_use]
    pub fn crash(mut self, host: usize, at: SimDuration) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Adds a drain of `host` starting at offset `at`.
    #[must_use]
    pub fn drain(mut self, host: usize, at: SimDuration) -> FaultSchedule {
        self.events.push(FaultEvent {
            at,
            host,
            kind: FaultKind::Drain,
        });
        self
    }

    /// Same schedule retrying crash-killed invocations after `delay`.
    #[must_use]
    pub fn retrying(mut self, delay: SimDuration) -> FaultSchedule {
        self.retry = RetryPolicy::Retry { delay };
        self
    }
}

/// Assignment of functions to co-located tenants for interference
/// experiments. Tenants share each host's page-cache budget and disk
/// queue, so one tenant's burst degrades another's restore latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenancyConfig {
    /// Tenant display names, indexed by tenant id.
    pub labels: Vec<String>,
    /// `assignment[func] = tenant id` for every function in the mix.
    pub assignment: Vec<usize>,
}

impl TenancyConfig {
    /// Splits `n_functions` functions across `labels.len()` tenants
    /// round-robin: function `f` belongs to tenant `f % tenants`.
    pub fn round_robin(labels: &[&str], n_functions: usize) -> TenancyConfig {
        assert!(!labels.is_empty(), "tenancy needs at least one tenant");
        TenancyConfig {
            labels: labels.iter().map(|l| l.to_string()).collect(),
            assignment: (0..n_functions).map(|f| f % labels.len()).collect(),
        }
    }

    /// The tenant id of `func`, if assigned.
    pub fn tenant_of(&self, func: usize) -> Option<usize> {
        self.assignment.get(func).copied()
    }
}

/// Configuration of one trace-driven fleet run on a single host.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The restore strategy cold starts go through.
    pub strategy: StrategyKind,
    /// Storage device of the host.
    pub device: DeviceKind,
    /// Workload size scale in `(0, 1]` (as in
    /// [`snapbpf::RunConfig`]).
    pub scale: f64,
    /// The arrival schedule: a synthetic process or a recorded
    /// trace replay (see [`ArrivalSource`]).
    pub arrival: ArrivalSource,
    /// Which function each arrival invokes, for arrivals that do not
    /// pin one (trace replays carry their own function indices).
    pub mix: FunctionMix,
    /// Arrival horizon: requests arrive in `[0, duration)` of the
    /// invocation phase; in-flight work then drains to completion.
    pub duration: SimDuration,
    /// RNG seed for arrivals and function picks.
    pub seed: u64,
    /// Maximum invocations in flight (running or restoring); beyond
    /// it requests queue.
    pub max_concurrency: usize,
    /// Admission-queue depth; an arrival that finds the queue full
    /// is shed (tail drop).
    pub queue_depth: usize,
    /// Keep-alive TTL of idle sandboxes.
    pub keepalive_ttl: SimDuration,
    /// Maximum parked idle sandboxes (LRU beyond; 0 = every start is
    /// cold).
    pub pool_capacity: usize,
    /// How cold-start restores interleave with other host events.
    pub restore_mode: RestoreMode,
    /// Number of hosts in a cluster run; each host gets its own
    /// kernel, disk, page cache, and sandbox pool with this
    /// configuration. [`crate::Runner`] takes the single-host path
    /// at 1 and rejects 0 with a configuration error.
    pub hosts: usize,
    /// Which host each arrival is routed to in a cluster run.
    pub placement: PlacementKind,
    /// How snapshots reach hosts that have never run a function
    /// (cluster runs only).
    pub distribution: SnapshotDistribution,
    /// Host faults injected during the run (cluster runs only; the
    /// single-host fleet path rejects a non-empty schedule).
    pub faults: FaultSchedule,
    /// Per-host page-cache budget in pages (`None` = unbounded).
    /// Plumbed into [`snapbpf_kernel::KernelConfig`] so co-located
    /// tenants contend for cache capacity through LRU pressure
    /// eviction.
    pub cache_budget_pages: Option<u64>,
    /// Optional tenant assignment for interference experiments.
    pub tenants: Option<TenancyConfig>,
}

impl FleetConfig {
    /// A baseline configuration for `n_functions` functions: Poisson
    /// arrivals at `rate_rps` under an Azure-like popularity mix,
    /// 2 s of arrivals, 8-deep concurrency, 64-deep queue, and a
    /// keep-alive pool of 8 sandboxes with a 1 s TTL.
    pub fn new(strategy: StrategyKind, n_functions: usize, rate_rps: f64) -> FleetConfig {
        FleetConfig {
            strategy,
            device: DeviceKind::Sata5300,
            scale: 0.05,
            arrival: ArrivalProcess::Poisson { rate_rps }.into(),
            mix: FunctionMix::azure_like(n_functions),
            duration: SimDuration::from_secs(2),
            seed: 42,
            max_concurrency: 8,
            queue_depth: 64,
            keepalive_ttl: SimDuration::from_secs(1),
            pool_capacity: 8,
            restore_mode: RestoreMode::default(),
            hosts: 1,
            placement: PlacementKind::default(),
            distribution: SnapshotDistribution::default(),
            faults: FaultSchedule::default(),
            cache_budget_pages: None,
            tenants: None,
        }
    }

    /// Same configuration with a fault schedule injected.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> FleetConfig {
        self.faults = faults;
        self
    }

    /// Same configuration with a per-host page-cache budget.
    #[must_use]
    pub fn with_cache_budget(mut self, pages: u64) -> FleetConfig {
        self.cache_budget_pages = Some(pages);
        self
    }

    /// Same configuration with a tenant assignment.
    #[must_use]
    pub fn with_tenants(mut self, tenants: TenancyConfig) -> FleetConfig {
        self.tenants = Some(tenants);
        self
    }

    /// Same configuration with a different arrival schedule
    /// (synthetic process or recorded trace).
    #[must_use]
    pub fn with_arrivals(mut self, arrival: impl Into<ArrivalSource>) -> FleetConfig {
        self.arrival = arrival.into();
        self
    }

    /// Same configuration replaying a recorded trace, with the run
    /// horizon set to the trace's full replay duration (loops and
    /// time scaling included) so every recorded arrival is played.
    #[must_use]
    pub fn replaying(mut self, trace: TraceArrival) -> FleetConfig {
        self.duration = trace.total_duration();
        self.arrival = trace.into();
        self
    }

    /// Same configuration sharded over `hosts` hosts under
    /// `placement` (cluster entry points only).
    #[must_use]
    pub fn sharded(mut self, hosts: usize, placement: PlacementKind) -> FleetConfig {
        self.hosts = hosts;
        self.placement = placement;
        self
    }

    /// Same configuration with a different snapshot-distribution
    /// cost model.
    #[must_use]
    pub fn with_distribution(mut self, distribution: SnapshotDistribution) -> FleetConfig {
        self.distribution = distribution;
        self
    }

    /// Same configuration with a different restore scheduling mode.
    #[must_use]
    pub fn restore_mode(mut self, mode: RestoreMode) -> FleetConfig {
        self.restore_mode = mode;
        self
    }

    /// Same configuration with pooling disabled (pure cold-start
    /// regime — the paper's focus).
    #[must_use]
    pub fn cold_only(mut self) -> FleetConfig {
        self.pool_capacity = 0;
        self
    }

    /// Same configuration with a different keep-alive pool.
    #[must_use]
    pub fn with_pool(mut self, capacity: usize, ttl: SimDuration) -> FleetConfig {
        self.pool_capacity = capacity;
        self.keepalive_ttl = ttl;
        self
    }

    /// Same configuration at a different workload scale.
    #[must_use]
    pub fn at_scale(mut self, scale: f64) -> FleetConfig {
        self.scale = scale;
        self
    }

    /// Same configuration on a different device.
    #[must_use]
    pub fn on(mut self, device: DeviceKind) -> FleetConfig {
        self.device = device;
        self
    }

    /// Same configuration with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FleetConfig {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let cfg = FleetConfig::new(StrategyKind::SnapBpf, 14, 50.0)
            .cold_only()
            .at_scale(0.1)
            .on(DeviceKind::Nvme)
            .with_seed(7);
        assert_eq!(cfg.pool_capacity, 0);
        assert_eq!(cfg.scale, 0.1);
        assert_eq!(cfg.device, DeviceKind::Nvme);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.mix.len(), 14);

        let pooled = cfg.with_pool(4, SimDuration::from_millis(500));
        assert_eq!(pooled.pool_capacity, 4);
        assert_eq!(pooled.keepalive_ttl, SimDuration::from_millis(500));

        let sharded = pooled
            .sharded(3, PlacementKind::Locality)
            .with_distribution(SnapshotDistribution::remote_10g());
        assert_eq!(sharded.hosts, 3);
        assert_eq!(sharded.placement, PlacementKind::Locality);
        assert_ne!(sharded.distribution, SnapshotDistribution::Local);
    }

    #[test]
    fn replaying_sets_horizon_to_trace_duration() {
        use snapbpf_sim::{LoopMode, TracePoint};
        let trace = TraceArrival::new(
            vec![TracePoint {
                offset: SimDuration::from_millis(3),
                func: 0,
            }],
            SimDuration::from_millis(100),
        )
        .looped(LoopMode::Repeat(4));
        let cfg = FleetConfig::new(StrategyKind::Reap, 1, 10.0).replaying(trace.clone());
        assert_eq!(cfg.duration, SimDuration::from_millis(400));
        assert_eq!(cfg.arrival.trace(), Some(&trace));

        let back = cfg.with_arrivals(ArrivalProcess::Poisson { rate_rps: 5.0 });
        assert!(back.arrival.trace().is_none());
    }

    #[test]
    fn fault_schedule_builders_compose() {
        let faults = FaultSchedule::none()
            .crash(1, SimDuration::from_millis(50))
            .drain(0, SimDuration::from_millis(120))
            .retrying(SimDuration::from_millis(5));
        assert_eq!(faults.events.len(), 2);
        assert_eq!(faults.events[0].kind, FaultKind::Crash);
        assert_eq!(faults.events[1].kind, FaultKind::Drain);
        assert_eq!(
            faults.retry,
            RetryPolicy::Retry {
                delay: SimDuration::from_millis(5)
            }
        );
        assert!(!faults.is_empty());

        let tenants = TenancyConfig::round_robin(&["victim", "aggressor"], 5);
        assert_eq!(tenants.assignment, vec![0, 1, 0, 1, 0]);
        assert_eq!(tenants.tenant_of(3), Some(1));
        assert_eq!(tenants.tenant_of(9), None);

        let cfg = FleetConfig::new(StrategyKind::SnapBpf, 5, 20.0)
            .with_faults(faults.clone())
            .with_cache_budget(4096)
            .with_tenants(tenants.clone());
        assert_eq!(cfg.faults, faults);
        assert_eq!(cfg.cache_budget_pages, Some(4096));
        assert_eq!(cfg.tenants, Some(tenants));
    }

    #[test]
    fn defaults_are_single_host_local() {
        let cfg = FleetConfig::new(StrategyKind::Reap, 2, 10.0);
        assert_eq!(cfg.hosts, 1);
        assert_eq!(cfg.placement, PlacementKind::Hash);
        assert_eq!(cfg.distribution, SnapshotDistribution::Local);
    }

    #[test]
    fn transfer_time_scales_with_snapshot_size() {
        assert_eq!(
            SnapshotDistribution::Local.transfer_time(64 << 20),
            SimDuration::ZERO
        );
        let remote = SnapshotDistribution::Remote {
            base: SimDuration::from_millis(2),
            per_mib: SimDuration::from_micros(800),
        };
        assert_eq!(remote.transfer_time(0), SimDuration::from_millis(2));
        // 64 MiB at 800 µs/MiB on top of the 2 ms base.
        assert_eq!(
            remote.transfer_time(64 << 20),
            SimDuration::from_micros(2_000 + 64 * 800)
        );
        // Sub-MiB snapshots scale proportionally (no truncation to
        // whole MiB).
        assert_eq!(
            remote.transfer_time(512 << 10),
            SimDuration::from_micros(2_000 + 400)
        );
    }
}
