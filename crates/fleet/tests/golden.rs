//! Golden-file tests: the serialized JSON of every fleet figure is
//! pinned byte for byte under `tests/golden/`. They catch two
//! regression classes at once — accidental changes to the JSON
//! surface downstream plotting scripts parse, and any loss of
//! cross-build determinism (CI runs this file in both debug and
//! release; the goldens must match in both).
//!
//! The configs here are sized for speed, not for the experimental
//! claims (those have their own assertions in the figure tests): the
//! smallest runs that still populate every series and meta key.
//!
//! To bless new output after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p snapbpf-fleet --test golden
//! ```

use std::path::PathBuf;

use snapbpf_fleet::figures::{
    fleet_breakdown, fleet_pipeline, fleet_scenario, fleet_shard, fleet_sweep, fleet_trace,
    FleetFigureConfig,
};
use snapbpf_fleet::Scenario;
use snapbpf_sim::SimDuration;

/// The shared figure config, shrunk until a debug-mode run of all
/// five figures stays in single-digit seconds.
fn golden_cfg() -> FleetFigureConfig {
    let mut cfg = FleetFigureConfig::quick(0.02);
    cfg.duration = SimDuration::from_millis(300);
    cfg.rates_rps = vec![20.0, 60.0];
    cfg.pipeline.duration = SimDuration::from_millis(400);
    cfg.pipeline.seeds = vec![1];
    cfg.shard.duration = SimDuration::from_millis(300);
    cfg.shard.rate_rps = 300.0;
    cfg
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(bless with UPDATE_GOLDEN=1 cargo test -p snapbpf-fleet --test golden)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if the change is intentional, bless it with \
         UPDATE_GOLDEN=1 cargo test -p snapbpf-fleet --test golden"
    );
}

#[test]
fn golden_fleet_sweep() {
    let fig = fleet_sweep(&golden_cfg()).unwrap();
    assert_golden("fleet-sweep.json", &fig.to_json().unwrap());
}

#[test]
fn golden_fleet_breakdown() {
    let fig = fleet_breakdown(&golden_cfg()).unwrap();
    assert_golden("fleet-breakdown.json", &fig.to_json().unwrap());
}

#[test]
fn golden_fleet_pipeline() {
    let fig = fleet_pipeline(&golden_cfg()).unwrap();
    assert_golden("fleet-pipeline.json", &fig.to_json().unwrap());
}

#[test]
fn golden_fleet_trace() {
    let (fig, _trace) = fleet_trace(&golden_cfg()).unwrap();
    assert_golden("fleet-trace.json", &fig.to_json().unwrap());
}

#[test]
fn golden_fleet_shard() {
    let fig = fleet_shard(&golden_cfg()).unwrap();
    assert_golden("fleet-shard.json", &fig.to_json().unwrap());
}

/// Every F5 scenario figure is pinned byte for byte: one golden per
/// named scenario, at the smallest sizing whose runs still exercise
/// the fault/overlay/tenancy machinery (shrunk from the scenario
/// battery's quick params — survivor orderings have their own
/// assertions in `scenario_check` and the figure unit tests, so
/// speed wins here).
#[test]
fn golden_fleet_scenario_figures() {
    let mut cfg = golden_cfg();
    cfg.scenarios.scale = 0.02;
    cfg.scenarios.functions = 4;
    cfg.scenarios.duration = SimDuration::from_millis(250);
    for scenario in Scenario::ALL {
        let fig = fleet_scenario(scenario, &cfg).unwrap();
        assert_golden(&format!("{}.json", fig.id), &fig.to_json().unwrap());
    }
}
