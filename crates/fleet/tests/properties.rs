//! Property tests for the fleet simulator: bit-identical determinism
//! of whole fleet runs, the keep-alive pool's capacity bound under
//! arbitrary operation sequences, and the cluster layer's
//! conservation and placement-stability invariants.

use proptest::prelude::*;
use snapbpf::StrategyKind;
use snapbpf_fleet::{
    conserves_invocations, FaultSchedule, FleetConfig, HashPlacement, HostView, PlacementKind,
    PlacementPolicy, Runner, SandboxPool,
};
use snapbpf_sim::{SimDuration, SimTime};
use snapbpf_testkit::workload_pair;
use snapbpf_workloads::Workload;

fn pair() -> Vec<Workload> {
    workload_pair()
}

proptest! {
    // Fleet runs are comparatively expensive; a handful of sampled
    // configurations is plenty to catch nondeterminism.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance check: the same (config, workloads) pair must
    /// reproduce the entire result — every histogram bucket, counter,
    /// and byte count — bit for bit.
    #[test]
    fn same_seed_same_fleet_result(
        rate in 5.0f64..120.0,
        seed in 0u64..1_000,
        pool_capacity in 0usize..4,
        max_concurrency in 1usize..6,
    ) {
        let workloads = pair();
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), rate)
            .with_seed(seed);
        cfg.scale = 0.02;
        cfg.duration = SimDuration::from_millis(200);
        cfg.pool_capacity = pool_capacity;
        cfg.max_concurrency = max_concurrency;
        let run = || {
            Runner::new(&cfg)
                .workloads(&workloads)
                .run()
                .expect("fleet run")
                .into_fleet()
                .expect("hosts == 1 is a fleet run")
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    /// The pool must never hold more than `capacity` sandboxes, and
    /// its counters must account for every parked payload, whatever
    /// the interleaving of check-ins, checkouts, and expiries.
    #[test]
    fn pool_never_exceeds_capacity(
        capacity in 0usize..6,
        ttl_ms in 0u64..2_000,
        ops in prop::collection::vec((0u8..3, 0usize..4, 0u64..400), 0..48),
    ) {
        let mut pool: SandboxPool<u64> =
            SandboxPool::new(capacity, SimDuration::from_millis(ttl_ms));
        let mut now = SimTime::ZERO;
        let mut parked = 0u64;     // payloads checked in
        let mut returned = 0u64;   // payloads handed back out
        for (i, &(op, func, advance_ms)) in ops.iter().enumerate() {
            now += SimDuration::from_millis(advance_ms);
            match op {
                0 => {
                    let evicted = pool.checkin(func, i as u64, now);
                    parked += 1;
                    returned += evicted.len() as u64;
                }
                1 => {
                    if pool.checkout(func, now).is_some() {
                        returned += 1;
                    }
                }
                _ => returned += pool.expire(now).len() as u64,
            }
            prop_assert!(
                pool.len() <= capacity,
                "pool holds {} > capacity {}", pool.len(), capacity
            );
            prop_assert_eq!(parked, returned + pool.len() as u64,
                "payloads leaked or duplicated");
        }
        returned += pool.drain().len() as u64;
        prop_assert_eq!(parked, returned, "drain must return the rest");
        prop_assert!(pool.is_empty());
    }
}

proptest! {
    // Cluster runs cost a few host setups each; a handful of sampled
    // shapes exercises the invariants.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation + capacity: whatever the placement policy, host
    /// count, rate, pool sizing, and worker-thread count, every
    /// admitted invocation lands on exactly one host (per-host
    /// placements and per-function records sum to the cluster
    /// totals), and no host's keep-alive pool ever held more than
    /// its configured capacity.
    #[test]
    fn cluster_conserves_invocations_and_bounds_pools(
        hosts in 2usize..5,
        rate in 20.0f64..200.0,
        seed in 0u64..1_000,
        pool_capacity in 0usize..4,
        policy_idx in 0usize..3,
        threads in 1usize..4,
    ) {
        let workloads = pair();
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), rate)
            .with_seed(seed)
            .sharded(hosts, PlacementKind::ALL[policy_idx]);
        cfg.scale = 0.02;
        cfg.duration = SimDuration::from_millis(200);
        cfg.pool_capacity = pool_capacity;
        let r = Runner::new(&cfg)
            .workloads(&workloads)
            .threads(threads)
            .run()
            .expect("cluster run")
            .into_cluster()
            .expect("hosts > 1 is a cluster run");
        prop_assert_eq!(r.hosts.len(), hosts);
        prop_assert_eq!(r.placed(), r.aggregate.arrivals,
            "placements must cover every admitted arrival exactly once");
        for (i, merged) in r.per_function.iter().enumerate() {
            let host_sum: u64 = r.hosts.iter().map(|h| h.per_function[i].arrivals).sum();
            prop_assert_eq!(merged.arrivals, host_sum, "function {} leaked", i);
        }
        for h in &r.hosts {
            prop_assert!(
                h.pool_hwm <= pool_capacity as u64,
                "host {} pool peaked at {} > capacity {}",
                h.host, h.pool_hwm, pool_capacity
            );
        }
    }

    /// The scenario battery's conservation identity under arbitrary
    /// fault schedules: whatever combination of a host crash (with or
    /// without a retry policy) and a host drain lands on the cluster,
    /// and whatever the placement policy, keep-alive pool sizing, and
    /// worker-thread count, every admitted arrival is accounted for
    /// exactly once — completed, shed, failed, or retried — both in
    /// the aggregate and per function, the per-host records still sum
    /// to the merged totals, and no pool ever exceeds its capacity
    /// (crash/drain evictions included).
    #[test]
    fn faults_conserve_invocations_and_bound_pools(
        hosts in 2usize..4,
        rate in 100.0f64..300.0,
        seed in 0u64..1_000,
        policy_idx in 0usize..3,
        threads in 1usize..3,
        pool_capacity in 0usize..3,
        crash_frac in 0.2f64..0.8,
        drain_frac in 0.2f64..0.8,
        drain in any::<bool>(),
        retry in any::<bool>(),
    ) {
        let workloads = pair();
        let mut faults = FaultSchedule::none()
            .crash(0, SimDuration::from_nanos((200e6 * crash_frac) as u64));
        if drain {
            faults = faults.drain(hosts - 1, SimDuration::from_nanos((200e6 * drain_frac) as u64));
        }
        if retry {
            faults = faults.retrying(SimDuration::from_millis(2));
        }
        let mut cfg = FleetConfig::new(StrategyKind::SnapBpf, workloads.len(), rate)
            .with_seed(seed)
            .sharded(hosts, PlacementKind::ALL[policy_idx])
            .with_faults(faults);
        cfg.scale = 0.02;
        cfg.duration = SimDuration::from_millis(200);
        cfg.pool_capacity = pool_capacity;
        let r = Runner::new(&cfg)
            .workloads(&workloads)
            .threads(threads)
            .run()
            .expect("faulted cluster run")
            .into_cluster()
            .expect("hosts > 1 is a cluster run");
        prop_assert!(
            conserves_invocations(&r.aggregate),
            "aggregate leaked: {} arrivals vs {} completed + {} shed + {} failed + {} retried",
            r.aggregate.arrivals, r.aggregate.completions, r.aggregate.shed,
            r.aggregate.failed, r.aggregate.retried
        );
        if !retry {
            prop_assert_eq!(r.aggregate.retried, 0, "no retry policy, nothing may retry");
        }
        for (i, merged) in r.per_function.iter().enumerate() {
            prop_assert!(conserves_invocations(merged), "function {} leaked", i);
            let host_sum: u64 = r.hosts.iter().map(|h| h.per_function[i].arrivals).sum();
            prop_assert_eq!(merged.arrivals, host_sum, "function {} placements leaked", i);
        }
        for h in &r.hosts {
            prop_assert!(
                h.pool_hwm <= pool_capacity as u64,
                "host {} pool peaked at {} > capacity {}",
                h.host, h.pool_hwm, pool_capacity
            );
        }
    }

    /// Hash placement keys on the function name alone: permuting the
    /// rest of the function mix (same hosts, same names in a
    /// different order) must not move any function to a different
    /// host.
    #[test]
    fn hash_placement_is_stable_under_mix_permutations(
        hosts in 1usize..8,
        perm_seed in 0u64..1_000,
        names in prop::collection::vec("[a-z]{1,12}", 1..16),
    ) {
        let views: Vec<HostView> = (0..hosts)
            .map(|host| HostView {
                host,
                in_flight: 0,
                queued: 0,
                warm_parked: 0,
                cached_snapshot_pages: 0,
            })
            .collect();
        let mut policy = HashPlacement;
        let before: Vec<usize> = names.iter().map(|n| policy.place(n, &views)).collect();
        // Fisher-Yates off a tiny splitmix-style stream: a
        // deterministic host-count-preserving permutation of the mix.
        let mut permuted: Vec<(String, usize)> =
            names.iter().cloned().zip(before.iter().copied()).collect();
        let mut state = perm_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for i in (1..permuted.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            permuted.swap(i, (state as usize) % (i + 1));
        }
        for (name, expected) in permuted {
            prop_assert_eq!(
                policy.place(&name, &views),
                expected,
                "{} moved hosts when the mix was reordered", name
            );
        }
    }
}
