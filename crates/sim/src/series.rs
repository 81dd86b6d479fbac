//! Windowed per-function time series.
//!
//! Point metrics (counters and histograms in
//! [`crate::trace::MetricsRegistry`]) answer "how much over the whole
//! run"; a [`SeriesRegistry`] answers "how did it evolve" by binning
//! samples into fixed virtual-time windows keyed by
//! `(metric, function)`. Each bin keeps count / sum / min / max plus
//! a [`Histogram`] so the figure layer can plot means *and* tails
//! (e.g. per-function cold-start p99 over a diurnal replay).
//!
//! Everything here is plain owned data over `BTreeMap`s: registries
//! are `Send`, cross thread boundaries by value, and merge
//! deterministically — the cluster driver merges per-host registries
//! in ascending host-index order at the end of a run, so the JSON
//! snapshot is byte-identical at any worker-thread count.
//!
//! # Examples
//!
//! ```
//! use snapbpf_sim::{SeriesRegistry, SimTime, SERIES_WINDOW_NS};
//!
//! let mut s = SeriesRegistry::new();
//! s.record("cold_ns", "image", SimTime::from_nanos(10), 250.0);
//! s.record("cold_ns", "image", SimTime::from_nanos(SERIES_WINDOW_NS + 1), 750.0);
//! let bins = s.get("cold_ns", "image").unwrap();
//! assert_eq!(bins.len(), 2);
//! assert_eq!(bins[&0].count(), 1);
//! assert_eq!(bins[&1].sum(), 750.0);
//! ```

use std::collections::BTreeMap;

use crate::stats::{Histogram, Quantile};
use crate::time::SimTime;
use snapbpf_json::Json;

/// Default series window: one second of virtual time per bin. Wide
/// enough that a diurnal Azure replay stays a few thousand points
/// per series, narrow enough to resolve the bursts the paper's
/// figures discuss.
pub const SERIES_WINDOW_NS: u64 = 1_000_000_000;

/// One time-window's worth of samples for a single
/// `(metric, function)` series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesBin {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    hist: Histogram,
}

impl Default for SeriesBin {
    fn default() -> Self {
        SeriesBin {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: Histogram::new(),
        }
    }
}

impl SeriesBin {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        // The histogram backs quantile queries; clamp into u64 range
        // (series values are latencies in ns or small ratios).
        self.hist.record(value.max(0.0) as u64);
    }

    fn merge(&mut self, other: &SeriesBin) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.hist.merge(&other.hist);
    }

    /// Samples recorded in this bin.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples in this bin.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean of samples in this bin (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate value at quantile `q` (`None` when empty), via the
    /// bin's log-bucketed [`Histogram`].
    pub fn quantile(&self, q: Quantile) -> Option<u64> {
        self.hist.quantile(q)
    }
}

/// Windowed time series keyed by `(metric, function)`.
///
/// Merging follows the determinism contract in the module docs:
/// merge in host-index order and the result is a pure function of
/// the schedule, independent of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesRegistry {
    window_ns: u64,
    series: BTreeMap<(String, String), BTreeMap<u64, SeriesBin>>,
}

impl Default for SeriesRegistry {
    fn default() -> Self {
        SeriesRegistry::new()
    }
}

impl SeriesRegistry {
    /// Creates an empty registry with the default
    /// [`SERIES_WINDOW_NS`] window.
    pub fn new() -> Self {
        SeriesRegistry::with_window_ns(SERIES_WINDOW_NS)
    }

    /// Creates an empty registry with an explicit window width.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn with_window_ns(window_ns: u64) -> Self {
        assert!(window_ns > 0, "series window must be positive");
        SeriesRegistry {
            window_ns,
            series: BTreeMap::new(),
        }
    }

    /// Width of one bin, in virtual nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Number of distinct `(metric, function)` series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Records one sample at virtual time `at`.
    pub fn record(&mut self, metric: &str, function: &str, at: SimTime, value: f64) {
        let bin = at.as_nanos() / self.window_ns;
        self.series
            .entry((metric.to_string(), function.to_string()))
            .or_default()
            .entry(bin)
            .or_default()
            .record(value);
    }

    /// The bins of one series, keyed by bin index (start time =
    /// `bin * window_ns`), if any samples exist for it.
    pub fn get(&self, metric: &str, function: &str) -> Option<&BTreeMap<u64, SeriesBin>> {
        self.series.get(&(metric.to_string(), function.to_string()))
    }

    /// Iterates over series in `(metric, function)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &BTreeMap<u64, SeriesBin>)> + '_ {
        self.series
            .iter()
            .map(|((m, f), bins)| (m.as_str(), f.as_str(), bins))
    }

    /// Merges another registry into this one, as if every one of its
    /// samples had been recorded here.
    ///
    /// When windows differ, the other registry's bins land in the
    /// bin covering their start time under *this* registry's window.
    pub fn merge(&mut self, other: &SeriesRegistry) {
        for ((m, f), bins) in &other.series {
            let target = self.series.entry((m.clone(), f.clone())).or_default();
            for (&bin, src) in bins {
                let bin = if other.window_ns == self.window_ns {
                    bin
                } else {
                    bin.saturating_mul(other.window_ns) / self.window_ns
                };
                target.entry(bin).or_default().merge(src);
            }
        }
    }

    /// Deterministic JSON snapshot: window width plus an array of
    /// series (in key order), each with its bins (in time order).
    pub fn to_json(&self) -> Json {
        let series = self.series.iter().map(|((m, f), bins)| {
            let bins = bins.iter().map(|(&bin, b)| {
                let mut fields = vec![
                    ("bin".into(), Json::from(bin)),
                    ("start_ns".into(), Json::from(bin * self.window_ns)),
                    ("count".into(), Json::from(b.count)),
                    ("sum".into(), Json::Number(b.sum)),
                    ("mean".into(), Json::Number(b.mean())),
                    ("min".into(), Json::Number(b.min().unwrap_or(0.0))),
                    ("max".into(), Json::Number(b.max().unwrap_or(0.0))),
                ];
                for q in Quantile::ALL {
                    fields.push((q.label().into(), Json::from(b.quantile(q).unwrap_or(0))));
                }
                Json::Object(fields)
            });
            Json::Object(vec![
                ("metric".into(), Json::from(m.as_str())),
                ("function".into(), Json::from(f.as_str())),
                ("bins".into(), Json::array(bins)),
            ])
        });
        Json::Object(vec![
            ("window_ns".into(), Json::from(self.window_ns)),
            ("series".into(), Json::array(series)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn samples_land_in_their_window() {
        let mut s = SeriesRegistry::with_window_ns(100);
        s.record("lat", "f", t(0), 10.0);
        s.record("lat", "f", t(99), 30.0);
        s.record("lat", "f", t(100), 7.0);
        let bins = s.get("lat", "f").unwrap();
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[&0].count(), 2);
        assert_eq!(bins[&0].sum(), 40.0);
        assert_eq!(bins[&0].mean(), 20.0);
        assert_eq!(bins[&0].min(), Some(10.0));
        assert_eq!(bins[&0].max(), Some(30.0));
        assert_eq!(bins[&1].count(), 1);
        assert!(s.get("lat", "other").is_none());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_matches_combined_recording_regardless_of_order() {
        let mut all = SeriesRegistry::new();
        let mut a = SeriesRegistry::new();
        let mut b = SeriesRegistry::new();
        for i in 0..50u64 {
            let metric = if i % 3 == 0 { "hit" } else { "cold_ns" };
            let func = if i % 2 == 0 { "image" } else { "json" };
            let at = t(i * 400_000_000);
            let v = (i * 37 % 11) as f64;
            all.record(metric, func, at, v);
            if i % 2 == 0 {
                a.record(metric, func, at, v);
            } else {
                b.record(metric, func, at, v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba.to_json().compact(), all.to_json().compact());
    }

    #[test]
    fn mismatched_windows_rebin_by_start_time() {
        let mut fine = SeriesRegistry::with_window_ns(10);
        fine.record("m", "f", t(25), 1.0);
        let mut coarse = SeriesRegistry::with_window_ns(100);
        coarse.merge(&fine);
        let bins = coarse.get("m", "f").unwrap();
        assert_eq!(bins[&0].count(), 1);
    }

    #[test]
    fn json_snapshot_is_deterministic_and_complete() {
        let mut s = SeriesRegistry::new();
        for i in 0..20u64 {
            s.record("cold_ns", "video", t(i * 250_000_000), 1000.0 + i as f64);
        }
        s.record("hit", "video", t(0), 1.0);
        let json = s.to_json();
        assert_eq!(
            json.get("window_ns").unwrap().as_u64(),
            Some(SERIES_WINDOW_NS)
        );
        let series = json.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        // BTreeMap order: ("cold_ns", "video") before ("hit", "video").
        assert_eq!(series[0].get("metric").unwrap().as_str(), Some("cold_ns"));
        let bins = series[0].get("bins").unwrap().as_array().unwrap();
        assert_eq!(bins.len(), 5);
        assert_eq!(
            bins[1].get("start_ns").unwrap().as_u64(),
            Some(SERIES_WINDOW_NS)
        );
        assert_eq!(bins[0].get("count").unwrap().as_u64(), Some(4));
        assert!(bins[0].get("p99").is_some());
        assert_eq!(s.to_json().compact(), json.compact());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        SeriesRegistry::with_window_ns(0);
    }
}
