//! # snapbpf-sim — deterministic simulation substrate
//!
//! The foundation every other crate in the SnapBPF reproduction sits
//! on: virtual time, seeded pseudo-random numbers, arrival processes,
//! statistics, the declared metric catalog, and the tracer with its
//! metrics registry. There is no
//! event queue here: each engine advances by picking the earliest
//! `(clock, slot)` pair with a linear scan over its own VMs or
//! sandboxes, so ties go to the lower slot.
//!
//! Nothing in this crate (or above it) ever consults the wall clock
//! or OS randomness on a simulation path, so a given experiment
//! configuration always produces bit-identical results.
//!
//! ## Examples
//!
//! Virtual durations recorded into a latency histogram:
//!
//! ```
//! use snapbpf_sim::{Histogram, Quantile, SimDuration, SimTime};
//!
//! let mut now = SimTime::ZERO;
//! let mut lat = Histogram::new();
//! for i in 1..=4u64 {
//!     let done = now + SimDuration::from_micros(10 * i);
//!     lat.record(done.saturating_since(now).as_nanos());
//!     now = done;
//! }
//! assert_eq!(lat.count(), 4);
//! assert_eq!(lat.max(), Some(40_000));
//! assert!(lat.quantile(Quantile::P50).unwrap() <= 40_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod hash;
mod metric;
mod rng;
mod series;
mod stats;
mod time;
pub mod trace;

pub use arrival::{
    Arrival, ArrivalGen, ArrivalProcess, ArrivalSource, BurstOverlay, ComposedArrivals, LoopMode,
    TraceArrival, TracePoint,
};
pub use hash::{WordHasher, WordState};
pub use metric::{catalog_table, Metric, MetricInfo, MetricKind, CATALOG};
pub use rng::SplitMix64;
pub use series::{SeriesBin, SeriesRegistry, SERIES_WINDOW_NS};
pub use snapbpf_json::Json;
pub use stats::{Histogram, Quantile};
pub use time::{SimDuration, SimTime};
pub use trace::{
    chrome_trace_json, sandbox_tid, MetricsRegistry, NoopSink, RecordingSink, TraceEvent,
    TracePhase, TraceSink, TraceValue, Tracer, TracerClass, TID_CONTROL, TID_DISK, TID_KERNEL,
};

/// Size of a page in bytes, fixed at 4 KiB exactly as on the paper's
/// x86-64 testbed.
pub const PAGE_SIZE: u64 = 4096;

/// Converts a byte count to a number of pages, rounding up.
///
/// # Examples
///
/// ```
/// assert_eq!(snapbpf_sim::bytes_to_pages(1), 1);
/// assert_eq!(snapbpf_sim::bytes_to_pages(4096), 1);
/// assert_eq!(snapbpf_sim::bytes_to_pages(4097), 2);
/// assert_eq!(snapbpf_sim::bytes_to_pages(0), 0);
/// ```
pub const fn bytes_to_pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

/// Converts a page count to bytes.
///
/// # Examples
///
/// ```
/// assert_eq!(snapbpf_sim::pages_to_bytes(2), 8192);
/// ```
pub const fn pages_to_bytes(pages: u64) -> u64 {
    pages * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    #[test]
    fn page_conversions() {
        assert_eq!(super::bytes_to_pages(8191), 2);
        assert_eq!(super::pages_to_bytes(super::bytes_to_pages(4096)), 4096);
    }
}
