//! The untraced run: end-to-end metrics of one workload.
//!
//! One pass runs every seeded variant of the workload's configuration
//! through `snapbpf_fleet::Runner`. The first pass is not timed: it
//! records each variant's result digest and the pooled aggregate the
//! virtual-time metrics are read from. Timed runs then cycle through
//! the variants until the run's seconds are spent, and each must
//! reproduce its variant's digest. Set-up is timed last, on a warm
//! heap.

use std::time::Instant;

use snapbpf_fleet::{FuncStats, RunOutput, Runner};
use snapbpf_sim::SimDuration;

use crate::digest;
use crate::report::Report;
use crate::stats::{hist_quantile, median};
use crate::workload::{self, Config, Kind, Size};

/// Timed passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Wall time one set-up sample covers at least: a sample repeats the
/// set-up until this much time has passed and reports the mean, so a
/// few milliseconds of set-up are not timed on their own.
const SETUP_SAMPLE_S: f64 = 0.2;
/// Set-up samples a run takes; the median is reported.
const SETUP_SAMPLES: usize = 9;

/// Error type of the harness.
pub type Error = Box<dyn std::error::Error>;

/// Runs one configuration with the default (metrics-only) tracer.
pub fn run(c: &Config) -> Result<RunOutput, Error> {
    Ok(Runner::new(&c.cfg)
        .workloads(&c.workloads)
        .threads(c.threads)
        .run()?)
}

/// What the untimed first pass established.
pub struct Reference {
    /// Digest of each variant's result.
    pub digests: Vec<u64>,
    /// The variants' aggregates merged.
    pub aggregate: FuncStats,
    /// Whether every variant conserved its invocations.
    pub consistent: bool,
    /// The results themselves, in variant order, when asked for.
    pub outputs: Vec<RunOutput>,
}

/// The untimed first pass over every variant. With `keep_outputs`
/// unset each result is dropped once digested, so the process never
/// holds more than one.
pub fn reference(configs: &[Config], keep_outputs: bool) -> Result<Reference, Error> {
    let mut r = Reference {
        digests: Vec::new(),
        aggregate: FuncStats::new("all"),
        consistent: true,
        outputs: Vec::new(),
    };
    for c in configs {
        let out = run(c)?;
        r.consistent &= digest::conserves(&out);
        r.aggregate.merge(out.aggregate());
        r.digests.push(digest::digest(&out));
        if keep_outputs {
            r.outputs.push(out);
        }
    }
    Ok(r)
}

/// Timed runs: each repeats one variant, cycling through them.
pub struct Timed {
    /// Per run: (arrivals, wall seconds).
    pub runs: Vec<(u64, f64)>,
    /// Invocations of timed runs whose digest differed from the
    /// reference.
    pub failed: u64,
}

impl Timed {
    /// Invocations simulated per wall second over all timed runs.
    ///
    /// The host's speed moves between slower and faster phases lasting
    /// seconds; the ratio of totals follows the share of time spent in
    /// each, where a median of per-run rates jumps from one phase's
    /// speed to the other's.
    pub fn inv_per_s(&self) -> f64 {
        let wall: f64 = self.runs.iter().map(|r| r.1).sum();
        self.attempted() as f64 / wall
    }

    /// Wall seconds of one pass over every variant: the sum of each
    /// variant's median run.
    pub fn pass_wall_s(&self, variants: usize) -> f64 {
        (0..variants)
            .map(|v| {
                let walls: Vec<f64> = self
                    .runs
                    .iter()
                    .skip(v)
                    .step_by(variants)
                    .map(|r| r.1)
                    .collect();
                median(&walls)
            })
            .sum()
    }

    /// Invocations attempted over every timed run.
    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|&(n, _)| n).sum()
    }
}

/// Times runs of `configs`, cycling through them, until `seconds` have
/// passed and every variant ran at least [`MIN_PASSES`] times; every run
/// must reproduce its variant's reference digest.
pub fn timed(configs: &[Config], digests: &[u64], seconds: f64) -> Result<Timed, Error> {
    let mut t = Timed {
        runs: Vec::new(),
        failed: 0,
    };
    let start = Instant::now();
    while t.runs.len() < MIN_PASSES * configs.len() || start.elapsed().as_secs_f64() < seconds {
        let v = t.runs.len() % configs.len();
        let t0 = Instant::now();
        let out = run(&configs[v])?;
        let wall = t0.elapsed().as_secs_f64();
        let arrivals = out.aggregate().arrivals;
        t.runs.push((arrivals, wall));
        if digest::digest(&out) != digests[v] {
            t.failed += arrivals;
        }
    }
    Ok(t)
}

/// Set-up time: building the first variant's inputs and its hosts
/// (snapshots, record phase), timed as a run of the same configuration
/// with an empty arrival horizon. Each sample repeats the set-up for
/// at least [`SETUP_SAMPLE_S`] and takes the mean; the median of
/// [`SETUP_SAMPLES`] samples is reported.
pub fn setup_s(kind: Kind, seed: u64, size: Size) -> Result<f64, Error> {
    let setup = || -> Result<(), Error> {
        let mut c = workload::build(kind, seed, 0, size);
        c.cfg.duration = SimDuration::ZERO;
        let out = run(&c)?;
        if out.aggregate().arrivals != 0 {
            return Err("an empty arrival horizon still produced arrivals".into());
        }
        Ok(())
    };
    let mut samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let mut n = 0;
        while n == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            setup()?;
            n += 1;
        }
        samples.push(t.elapsed().as_secs_f64() / n as f64);
    }
    Ok(median(&samples))
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Whether a pass's combined digest matches the one recorded for this
/// (workload, seed) in `digests.json`. Seeds without a record, and the
/// smoke configurations, pass; their runs are still checked against
/// the first pass.
pub fn matches_record(kind: Kind, seed: u64, size: Size, digests: &[u64]) -> bool {
    size != Size::Full
        || digest::recorded(kind.name(), seed)
            .is_none_or(|want| want == digest::hex(digest::combine(digests)))
}

/// The untraced run of `kind`: every end-to-end metric.
pub fn measure(kind: Kind, seed: u64, seconds: f64, size: Size) -> Result<Report, Error> {
    let (configs, _) = workload::build_all(kind, seed, size);
    let reference = reference(&configs, false)?;
    let timed = timed(&configs, &reference.digests, seconds)?;
    // Read before set-up is timed: the peak is that of one simulator
    // run at a time.
    let peak_rss = peak_rss_mib()?;
    let setup = setup_s(kind, seed, size)?;

    let rates: Vec<String> = timed
        .runs
        .iter()
        .map(|&(n, s)| format!("{:.0}", n as f64 / s))
        .collect();
    eprintln!("{}: inv/s per timed run: {}", kind.name(), rates.join(" "));
    let a = &reference.aggregate;
    eprintln!(
        "{}: seed {seed}, {} variant(s), {} timed runs; {} completions ({} beyond p99), {} cold starts ({} beyond p95)",
        kind.name(),
        configs.len(),
        timed.runs.len(),
        a.completions,
        a.completions / 100,
        a.cold_starts,
        a.cold_starts / 20,
    );
    let mut r = Report {
        correct: reference.consistent
            && timed.failed == 0
            && matches_record(kind, seed, size, &reference.digests),
        attempted: timed.attempted(),
        failed: timed.failed,
        metrics: Vec::new(),
    };
    // Warm starts record a restore of 0, below every cold one, so the
    // cold starts' p95 sits at this share of the whole histogram.
    let restore_q = (a.warm_starts as f64 + 0.95 * a.cold_starts as f64) / a.completions as f64;
    let ms = |ns: Option<f64>| ns.map_or(f64::NAN, |v| v / 1e6);
    r.push("inv_per_s", timed.inv_per_s(), "inv/s");
    r.push("setup_s", setup, "s");
    r.push("peak_rss_mib", peak_rss, "MiB");
    r.push("virt_e2e_p50_ms", ms(hist_quantile(&a.e2e, 0.50)), "ms");
    r.push("virt_e2e_p99_ms", ms(hist_quantile(&a.e2e, 0.99)), "ms");
    r.push(
        "virt_restore_p95_ms",
        ms(hist_quantile(&a.restore, restore_q)),
        "ms",
    );
    r.push("cold_start_ratio", a.cold_start_ratio(), "ratio");
    r.push(
        "completed_ratio",
        a.completions as f64 / a.arrivals.max(1) as f64,
        "ratio",
    );
    Ok(r)
}
