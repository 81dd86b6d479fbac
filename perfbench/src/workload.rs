//! The benchmark's workloads: which fleet configurations each one
//! runs, built from the workload seed.
//!
//! Every workload is an open loop in *virtual* time. Arrivals are
//! drawn (Poisson) or replayed (Azure trace) inside the simulator from
//! the seed before the run starts, so no wall-clock generator exists
//! that could run late, and a slow simulator receives exactly the same
//! load as a fast one.

use std::time::Instant;

use snapbpf::StrategyKind;
use snapbpf_fleet::{FleetConfig, PlacementKind};
use snapbpf_sim::SimDuration;
use snapbpf_trace::AzureFigureConfig;
use snapbpf_workloads::Workload;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One host, keep-alive pool on: mostly warm hits; program load
    /// dominates the wall clock.
    FleetWarm,
    /// One host, pool off: every invocation restores through the page
    /// cache (the paper's regime).
    FleetCold,
    /// Eight hosts under hash placement replaying an Azure-shaped day.
    ClusterAzure,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::FleetWarm, Kind::FleetCold, Kind::ClusterAzure];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetWarm => "fleet-warm",
            Kind::FleetCold => "fleet-cold",
            Kind::ClusterAzure => "cluster-azure",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many seeded variants of the configuration one pass runs.
    /// Latency tails and cold-start counts of one short Poisson run
    /// swing with the seed; pooling a few variants steadies them
    /// without stretching virtual time, which would change the
    /// workload's layer mix (fewer shape misses per arrival).
    pub fn variants(self) -> usize {
        match self {
            Kind::FleetWarm => 4,
            Kind::FleetCold => 2,
            Kind::ClusterAzure => 1,
        }
    }
}

/// How large a configuration to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's configuration.
    Full,
    /// A shortened one for the harness self-tests (same shape, a
    /// fraction of the virtual time).
    Smoke,
}

/// One runnable configuration: the fleet config, its workload list,
/// and the worker-thread count it runs with.
pub struct Config {
    /// The fleet configuration.
    pub cfg: FleetConfig,
    /// The functions the configuration serves.
    pub workloads: Vec<Workload>,
    /// Runner worker threads (cluster runs only).
    pub threads: usize,
}

impl Config {
    /// The same configuration run on `threads` worker threads.
    pub fn on_threads(&self, threads: usize) -> Config {
        Config {
            cfg: self.cfg.clone(),
            workloads: self.workloads.clone(),
            threads,
        }
    }
}

/// The seed of variant `i` of a run seeded with `seed`. Variant 0 is
/// the seed itself, so seed 42 variant 0 is exactly the historical
/// `fleet_bench` configuration; later variants stride far apart so
/// neighbouring benchmark seeds share no variant.
pub fn variant_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(1_000_003))
}

/// Worker threads for the cluster workload: every core, at most one
/// per host.
pub fn cluster_threads(hosts: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(hosts)
}

/// Builds variant `i` of workload `kind` under `seed`.
pub fn build(kind: Kind, seed: u64, i: usize, size: Size) -> Config {
    let seed = variant_seed(seed, i);
    match kind {
        Kind::FleetWarm | Kind::FleetCold => {
            let workloads: Vec<Workload> = Workload::suite().into_iter().take(8).collect();
            let (rate, secs) = match kind {
                Kind::FleetWarm => (400.0, 10_000),
                _ => (300.0, 20_000),
            };
            let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), rate)
                .at_scale(0.05)
                .with_seed(seed);
            cfg.duration = SimDuration::from_millis(match size {
                Size::Full => secs,
                Size::Smoke => secs / 40,
            });
            cfg.max_concurrency = 32;
            cfg.queue_depth = 512;
            if kind == Kind::FleetCold {
                cfg = cfg.cold_only();
            }
            Config {
                cfg,
                workloads,
                threads: 1,
            }
        }
        Kind::ClusterAzure => {
            let mut az = AzureFigureConfig::paper();
            az.seed = seed;
            if size == Size::Smoke {
                az.minutes = 30;
                az.mean_rpm *= 4.0;
            }
            let profile = az.profile();
            let workloads = profile.resolve_workloads();
            let arrivals = profile.arrivals().with_time_scale(az.time_scale);
            let hosts = 8;
            let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), 1.0)
                .at_scale(az.scale)
                .with_seed(seed)
                .replaying(arrivals)
                .sharded(hosts, PlacementKind::Hash);
            cfg.max_concurrency = 16;
            cfg.queue_depth = 256;
            // The measured run is serial. With few cores shared with
            // other tenants, the parallel engine's barrier per arrival
            // waits for whichever core is slowed, and its wall time
            // swings twofold between runs. The traced run times the
            // parallel engine on its own.
            Config {
                cfg,
                workloads,
                threads: 1,
            }
        }
    }
}

/// Builds every variant of a run, returning them with the wall time
/// the first one took to build (input synthesis: suite scaling, and
/// for the Azure replay the synth → profile → schedule pipeline).
pub fn build_all(kind: Kind, seed: u64, size: Size) -> (Vec<Config>, f64) {
    let t = Instant::now();
    let first = build(kind, seed, 0, size);
    let synth_s = t.elapsed().as_secs_f64();
    let mut all = vec![first];
    all.extend((1..kind.variants()).map(|i| build(kind, seed, i, size)));
    (all, synth_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn variant_zero_is_the_seed_itself() {
        assert_eq!(variant_seed(42, 0), 42);
        assert_ne!(variant_seed(42, 1), variant_seed(43, 1));
        let c = build(Kind::FleetWarm, 42, 0, Size::Full);
        assert_eq!(c.cfg.seed, 42);
        assert_eq!(c.cfg.duration, SimDuration::from_secs(10));
        assert_eq!(c.cfg.pool_capacity, 8);
        let cold = build(Kind::FleetCold, 42, 0, Size::Full);
        assert_eq!(cold.cfg.pool_capacity, 0);
        let cluster = build(Kind::ClusterAzure, 42, 0, Size::Smoke);
        assert_eq!((cluster.cfg.hosts, cluster.threads), (8, 1));
    }
}
