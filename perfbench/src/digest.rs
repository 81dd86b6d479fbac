//! Output checks: a digest of each run's deterministic result, the
//! invocation-conservation identity, and the digests recorded per
//! (workload, seed) in `digests.json`.

use snapbpf_fleet::{FuncStats, RunOutput};
use snapbpf_json::Json;
use snapbpf_sim::{Histogram, MetricsRegistry};

/// Recorded digests, keyed by workload name then seed.
const RECORDED: &str = include_str!("../digests.json");

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes in one float, bit for bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes in a string and its length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Percentiles a histogram contributes to a digest, beside its exact
/// count, total (through the mean), minimum and maximum.
const DIGEST_PERCENTILES: [f64; 8] = [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9];

fn hist(h: &mut Fnv, x: &Histogram) {
    h.u64(x.count());
    h.f64(x.mean());
    h.u64(x.min().unwrap_or(0));
    h.u64(x.max().unwrap_or(0));
    if x.count() > 0 {
        for p in DIGEST_PERCENTILES {
            h.u64(x.percentile(p).unwrap_or(0));
        }
    }
}

fn func_stats(h: &mut Fnv, s: &FuncStats) {
    h.str(&s.name);
    for v in [
        s.arrivals,
        s.completions,
        s.cold_starts,
        s.warm_starts,
        s.shed,
        s.failed,
        s.retried,
    ] {
        h.u64(v);
    }
    for x in [&s.e2e, &s.queue_wait, &s.restore, &s.exec] {
        hist(h, x);
    }
    for x in &s.stage_breakdown {
        hist(h, x);
    }
}

fn metrics(h: &mut Fnv, m: &MetricsRegistry) {
    for (name, v) in m.counters() {
        h.str(name);
        h.u64(v);
    }
    for (name, v) in m.gauges() {
        h.str(name);
        h.f64(v);
    }
    for (name, x) in m.histograms() {
        h.str(name);
        hist(h, x);
    }
}

/// Per-function statistics of a run, whichever shape ran.
pub fn per_function(out: &RunOutput) -> &[FuncStats] {
    match out {
        RunOutput::Fleet(r) => &r.per_function,
        RunOutput::Cluster(r) => &r.per_function,
    }
}

/// Digest of a run's deterministic result: the aggregate and
/// per-function statistics, every metric in the run's registry, and
/// for a cluster each host's placement count. Virtual-time results
/// are a pure function of (configuration, workloads), so any two runs
/// of one configuration — at any thread count — must agree.
pub fn digest(out: &RunOutput) -> u64 {
    let mut h = Fnv::new();
    func_stats(&mut h, out.aggregate());
    for s in per_function(out) {
        func_stats(&mut h, s);
    }
    metrics(&mut h, out.metrics());
    if let RunOutput::Cluster(c) = out {
        for host in &c.hosts {
            h.u64(host.placed);
        }
    }
    h.finish()
}

/// Folds per-variant digests into the digest of a whole pass.
pub fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Whether every invocation is accounted for, in the aggregate and per
/// function: `completions + shed + failed + retried == arrivals`.
pub fn conserves(out: &RunOutput) -> bool {
    let ok = |s: &FuncStats| s.completions + s.shed + s.failed + s.retried == s.arrivals;
    ok(out.aggregate()) && per_function(out).iter().all(ok)
}

/// Renders a digest the way `digests.json` stores it.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// The digest recorded for `workload` under `seed`, if any.
pub fn recorded(workload: &str, seed: u64) -> Option<String> {
    let json = Json::parse(RECORDED).expect("digests.json is valid JSON");
    json.get(workload)?
        .get(&seed.to_string())?
        .as_str()
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn recorded_digests_parse_and_cover_two_seeds() {
        let json = Json::parse(RECORDED).unwrap();
        for kind in crate::workload::Kind::ALL {
            let seeds = json
                .get(kind.name())
                .and_then(Json::as_object)
                .unwrap_or_else(|| panic!("no digests for {}", kind.name()));
            assert!(
                seeds.len() >= 2,
                "{}: one held-out seed at least",
                kind.name()
            );
            for (seed, d) in seeds {
                assert!(seed.parse::<u64>().is_ok(), "seed key {seed}");
                let d = d.as_str().unwrap();
                assert_eq!(d.len(), 16, "{d}");
                assert!(u64::from_str_radix(d, 16).is_ok(), "{d}");
            }
        }
    }
}
