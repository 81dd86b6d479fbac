//! Property tests for the record → serialize → load → replay loop.
//!
//! The contract the profile format promises: a recorded run can be
//! shipped as bytes, loaded elsewhere, and replayed to the *exact*
//! same simulation — byte-identical arrival schedule (re-recording
//! the replay yields the same profile bytes) and field-identical
//! `FleetResult`, regardless of the replay seed.

use proptest::prelude::*;
use snapbpf::StrategyKind;
use snapbpf_trace::{record_fleet, Profile};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn profile_roundtrip_replays_byte_identically(
        rate in 20.0f64..90.0,
        seed in 0u64..1_000,
        replay_seed in 0u64..1_000,
    ) {
        let workloads = snapbpf_testkit::small_suite();
        let mut cfg = snapbpf_testkit::small_fleet_cfg(StrategyKind::Reap, rate);
        cfg.seed = seed;

        let (result, profile) = record_fleet(&cfg, &workloads).unwrap();
        let bytes = profile.to_bytes();

        // The binary form round-trips losslessly.
        let loaded = Profile::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&loaded, &profile);

        // Replaying the loaded profile — under a different seed —
        // re-records to the same bytes and the same results.
        let replay_cfg = cfg.clone().replaying(loaded.arrivals()).with_seed(replay_seed);
        prop_assert_eq!(replay_cfg.duration, cfg.duration);
        let (replayed, re_recorded) = record_fleet(&replay_cfg, &workloads).unwrap();
        prop_assert_eq!(re_recorded.to_bytes(), bytes);
        prop_assert_eq!(replayed.aggregate, result.aggregate);
        prop_assert_eq!(replayed.per_function, result.per_function);
    }

    #[test]
    fn unscaled_replay_draw_is_seed_independent(
        rate in 20.0f64..90.0,
        seed in 0u64..1_000,
    ) {
        let workloads = snapbpf_testkit::workload_pair();
        let mut cfg =
            snapbpf_fleet::FleetConfig::new(StrategyKind::Faast, workloads.len(), rate)
                .at_scale(0.02);
        cfg.duration = snapbpf_sim::SimDuration::from_millis(500);
        cfg.seed = seed;

        let (_, profile) = record_fleet(&cfg, &workloads).unwrap();
        let replay = profile.arrivals();
        let a = replay.draw(1, cfg.duration);
        let b = replay.draw(seed ^ 0xDEAD_BEEF, cfg.duration);
        prop_assert_eq!(a, b);
    }
}

/// A recorded cluster run round-trips and replays identically too —
/// the capture hook sits below the shard router, so the profile holds
/// the cluster-wide schedule.
#[test]
fn cluster_roundtrip_replays_identically() {
    let workloads = snapbpf_testkit::small_suite();
    let cfg = snapbpf_testkit::small_cluster_cfg(StrategyKind::SnapBpf, 3, 120.0);

    let (result, profile) = snapbpf_trace::record_cluster(&cfg, &workloads).unwrap();
    let bytes = profile.to_bytes();
    let loaded = Profile::from_bytes(&bytes).unwrap();
    assert_eq!(loaded, profile);

    let replay_cfg = cfg.replaying(loaded.arrivals()).with_seed(7);
    let (replayed, re_recorded) = snapbpf_trace::record_cluster(&replay_cfg, &workloads).unwrap();
    assert_eq!(re_recorded.to_bytes(), bytes);
    assert_eq!(replayed.aggregate, result.aggregate);
}
