//! Self-tests of the harness against `BENCHMARK.json`: declared names
//! are well formed, and a smoke-sized run of every workload emits
//! exactly the declared metrics, passes its checks, and finishes in
//! seconds (release build; a debug build gets ten times longer).
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::time::Instant;

use snapbpf_json::Json;

use crate::report::Report;
use crate::workload::{Kind, Size};
use crate::{e2e, layers};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Wall-clock limit for one smoke run.
const SMOKE_LIMIT_S: f64 = if cfg!(debug_assertions) { 300.0 } else { 30.0 };

/// Timed seconds of a smoke run (each variant still runs three times).
const SMOKE_SECONDS: f64 = 0.2;

fn declared(section: &str) -> Vec<(String, String)> {
    let json = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let json = Json::parse(BENCHMARK).unwrap();
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        workloads, names,
        "BENCHMARK.json lists the harness's workloads"
    );
    let mut all: Vec<String> = workloads;
    for section in ["end_to_end", "per_layer"] {
        all.extend(declared(section).into_iter().map(|(n, _)| n));
    }
    for name in &all {
        assert!(well_formed_name(name), "{name}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "every name is used once");
}

fn check_smoke(r: &Report, section: &str, kind: Kind, started: Instant) {
    assert!(r.correct, "{}: smoke run failed its checks", kind.name());
    assert!(r.attempted > 0 && r.failed == 0, "{}", kind.name());
    assert_eq!(
        sorted(emitted(r)),
        sorted(declared(section)),
        "{}: emitted {section} metrics differ from BENCHMARK.json",
        kind.name()
    );
    assert!(
        r.metrics.iter().all(|m| m.value.is_finite()),
        "{}: {:?}",
        kind.name(),
        r.metrics
    );
    let secs = started.elapsed().as_secs_f64();
    assert!(secs < SMOKE_LIMIT_S, "{}: {secs:.1} s", kind.name());
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for kind in Kind::ALL {
        let t = Instant::now();
        let r = e2e::measure(kind, 42, SMOKE_SECONDS, Size::Smoke).unwrap();
        check_smoke(&r, "end_to_end", kind, t);
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", kind.name(), m.name);
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_with_bounded_shares() {
    for kind in Kind::ALL {
        let t = Instant::now();
        let r = layers::measure(kind, 42, SMOKE_SECONDS, Size::Smoke).unwrap();
        check_smoke(&r, "per_layer", kind, t);
        let shares: f64 = r
            .metrics
            .iter()
            .filter(|m| m.name.ends_with("share_pct"))
            .map(|m| m.value)
            .sum();
        assert!(
            shares <= 100.0 + 1e-9,
            "{}: shares sum to {shares}",
            kind.name()
        );
    }
}

#[test]
fn a_held_out_seed_repeats_its_digest() {
    for kind in Kind::ALL {
        let (configs, _) = crate::workload::build_all(kind, 7, Size::Smoke);
        let a = e2e::reference(&configs, false).unwrap();
        let b = e2e::reference(&configs, false).unwrap();
        assert!(a.consistent, "{}", kind.name());
        assert_eq!(a.digests, b.digests, "{}", kind.name());
    }
}
