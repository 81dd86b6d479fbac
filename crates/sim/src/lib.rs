//! # snapbpf-sim — deterministic simulation substrate
//!
//! The foundation every other crate in the SnapBPF reproduction sits
//! on: virtual time, a deterministic future-event queue, a seeded
//! pseudo-random number generator, and statistics collection.
//!
//! Nothing in this crate (or above it) ever consults the wall clock
//! or OS randomness on a simulation path, so a given experiment
//! configuration always produces bit-identical results.
//!
//! ## Examples
//!
//! A miniature simulation loop:
//!
//! ```
//! use snapbpf_sim::{Clock, SimDuration, Histogram};
//!
//! #[derive(Debug)]
//! enum Event { Tick(u32) }
//!
//! let mut clock = Clock::new();
//! let mut lat = Histogram::new();
//! for i in 0..4 {
//!     clock.schedule_after(SimDuration::from_micros(10 * (i as u64 + 1)), Event::Tick(i));
//! }
//! while let Some(ev) = clock.next() {
//!     let Event::Tick(_) = ev.event;
//!     lat.record(clock.now().as_nanos());
//! }
//! assert_eq!(lat.count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrival;
mod hash;
mod queue;
mod rng;
mod series;
mod stats;
mod time;
pub mod trace;

pub use arrival::{
    Arrival, ArrivalGen, ArrivalProcess, ArrivalSchedule, ArrivalSource, BurstOverlay,
    ComposedArrivals, LoopMode, TraceArrival, TracePoint,
};
pub use hash::{WordHasher, WordState};
pub use queue::{Clock, EventQueue, Scheduled};
pub use rng::SplitMix64;
pub use series::{SeriesBin, SeriesRegistry, SERIES_WINDOW_NS};
pub use snapbpf_json::Json;
pub use stats::{Counters, Histogram, Quantile, Summary};
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
