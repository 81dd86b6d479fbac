//! Userspace side of the kernel→user telemetry channel.
//!
//! A telemetry-enabled prefetch program (see
//! `snapbpf::build_prefetch_program_telemetry`) reports through two
//! maps: a ring buffer of typed [`TelemetryRecord`]s and a per-CPU
//! stats array of monotonic counters. A [`TelemetryDrain`] is the
//! consumer: [`crate::HostKernel`] runs it at event-loop boundaries
//! (after every prefetch-cascade drain) and at teardown, decoding
//! whatever accumulated since the last drain into the tracer's
//! counters and windowed time series.
//!
//! Overflow is explicit, never silent: a ring reservation that
//! failed with `-ENOSPC` shows up in the `ebpf.ring.drops` counter
//! (from the ring's own drop count) and in the stats map's ENOSPC
//! slot.

use snapbpf_ebpf::{
    MapError, MapId, MapSet, TelemetryRecord, STAT_SLOT_ENOSPC, STAT_SLOT_ISSUED, STAT_SLOT_PAGES,
};
use snapbpf_sim::{Metric, SimTime, Tracer};

/// What one [`TelemetryDrain::drain`] pass consumed, mostly for
/// tests and smoke checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Ring records decoded this pass.
    pub records: u64,
    /// New prefetches reported by the stats map this pass.
    pub issued: u64,
    /// New prefetched pages reported by the stats map this pass.
    pub pages: u64,
    /// New ring drops observed this pass.
    pub drops: u64,
    /// Ring records that failed to decode this pass (wrong size or
    /// unknown kind — counted, then skipped).
    pub decode_errors: u64,
}

/// Drains one telemetry map pair into a tracer.
///
/// Stats slots are monotonic from the program's point of view; the
/// drain keeps the last-seen merged value per slot and reports only
/// deltas, so draining is idempotent across repeated calls.
#[derive(Debug, Clone)]
pub struct TelemetryDrain {
    ring: MapId,
    stats: MapId,
    function: String,
    seen_issued: u64,
    seen_pages: u64,
    seen_enospc: u64,
    seen_ring_dropped: u64,
}

impl TelemetryDrain {
    /// Creates a drain over a ring / stats map pair, attributing
    /// series samples to `function`.
    pub fn new(ring: MapId, stats: MapId, function: &str) -> Self {
        TelemetryDrain {
            ring,
            stats,
            function: function.to_owned(),
            seen_issued: 0,
            seen_pages: 0,
            seen_enospc: 0,
            seen_ring_dropped: 0,
        }
    }

    /// The function name series samples are attributed to.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// Consumes everything that accumulated since the last drain:
    /// pops and decodes every ring record, reads the merged per-CPU
    /// stats, and folds both into `tracer` counters
    /// (`ebpf.telemetry.*`, `ebpf.ring.drops`) and windowed series
    /// keyed by this drain's function.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError`] when the registered maps disappeared
    /// or changed kind (a wiring bug, not a runtime condition).
    pub fn drain(&mut self, maps: &mut MapSet, tracer: &Tracer) -> Result<DrainSummary, MapError> {
        let mut summary = DrainSummary::default();
        while let Some(bytes) = maps.ring_pop(self.ring)? {
            match TelemetryRecord::decode(&bytes) {
                Ok(rec) => {
                    summary.records += 1;
                    self.fold_record(rec, tracer);
                }
                Err(_) => {
                    summary.decode_errors += 1;
                    tracer.incr(Metric::EbpfTelemetryDecodeErrors);
                }
            }
        }

        let issued = maps.percpu_load_merged_u64(self.stats, STAT_SLOT_ISSUED)?;
        let pages = maps.percpu_load_merged_u64(self.stats, STAT_SLOT_PAGES)?;
        let enospc = maps.percpu_load_merged_u64(self.stats, STAT_SLOT_ENOSPC)?;
        summary.issued = issued.wrapping_sub(self.seen_issued);
        summary.pages = pages.wrapping_sub(self.seen_pages);
        let new_enospc = enospc.wrapping_sub(self.seen_enospc);
        self.seen_issued = issued;
        self.seen_pages = pages;
        self.seen_enospc = enospc;
        tracer.add(Metric::EbpfTelemetryIssued, summary.issued);
        tracer.add(Metric::EbpfTelemetryPages, summary.pages);
        tracer.add(Metric::EbpfTelemetryEnospc, new_enospc);

        let ring_dropped = maps.ring_dropped(self.ring)?;
        summary.drops = ring_dropped.wrapping_sub(self.seen_ring_dropped);
        self.seen_ring_dropped = ring_dropped;
        tracer.add(Metric::EbpfRingDrops, summary.drops);

        Ok(summary)
    }

    fn fold_record(&self, rec: TelemetryRecord, tracer: &Tracer) {
        match rec {
            TelemetryRecord::PrefetchIssued { now_ns, pages, .. } => {
                tracer.series_record(
                    Metric::EbpfPrefetchPages,
                    &self.function,
                    SimTime::from_nanos(now_ns),
                    pages as f64,
                );
            }
            TelemetryRecord::PrefetchCompleted {
                now_ns,
                groups,
                pages,
            } => {
                tracer.incr(Metric::EbpfTelemetryCompletions);
                tracer.series_record(
                    Metric::EbpfPrefetchGroups,
                    &self.function,
                    SimTime::from_nanos(now_ns),
                    groups as f64,
                );
                tracer.series_record(
                    Metric::EbpfPrefetchTotalPages,
                    &self.function,
                    SimTime::from_nanos(now_ns),
                    pages as f64,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapbpf_ebpf::{telemetry_ring_def, telemetry_stats_def};

    fn pair() -> (MapSet, MapId, MapId) {
        let mut maps = MapSet::new();
        let ring = maps.create(telemetry_ring_def()).unwrap();
        let stats = maps.create(telemetry_stats_def()).unwrap();
        (maps, ring, stats)
    }

    #[test]
    fn drain_reports_deltas_not_totals() {
        let (mut maps, ring, stats) = pair();
        let tracer = Tracer::noop();
        let mut drain = TelemetryDrain::new(ring, stats, "image");
        assert_eq!(drain.function(), "image");

        maps.array_store_u64(stats, STAT_SLOT_ISSUED, 2).unwrap();
        maps.array_store_u64(stats, STAT_SLOT_PAGES, 16).unwrap();
        let rec = TelemetryRecord::PrefetchIssued {
            now_ns: 1_500_000_000,
            file: 1,
            start_page: 10,
            pages: 8,
        };
        maps.ring_push(ring, &rec.encode()).unwrap();

        let first = drain.drain(&mut maps, &tracer).unwrap();
        assert_eq!(first.records, 1);
        assert_eq!(first.issued, 2);
        assert_eq!(first.pages, 16);
        assert_eq!(first.drops, 0);
        assert_eq!(tracer.counter("ebpf.telemetry.issued"), 2);

        // Nothing new: the second pass reports zero deltas.
        let second = drain.drain(&mut maps, &tracer).unwrap();
        assert_eq!(second, DrainSummary::default());
        assert_eq!(tracer.counter("ebpf.telemetry.issued"), 2);

        // The record landed in the function-keyed series, binned at
        // its virtual timestamp.
        let series = tracer.series_snapshot();
        let bins = series.get("ebpf.prefetch.pages", "image").unwrap();
        assert_eq!(bins[&1].count(), 1);
        assert_eq!(bins[&1].sum(), 8.0);
    }

    #[test]
    fn ring_drops_and_garbage_are_accounted_not_lost() {
        let mut maps = MapSet::new();
        let ring = maps.create(snapbpf_ebpf::MapDef::ringbuf(64)).unwrap();
        let stats = maps.create(telemetry_stats_def()).unwrap();
        let tracer = Tracer::noop();
        let mut drain = TelemetryDrain::new(ring, stats, "json");

        // Fill the tiny ring (48 bytes per record with header), then
        // overflow it.
        let rec = TelemetryRecord::PrefetchCompleted {
            now_ns: 0,
            groups: 1,
            pages: 4,
        };
        maps.ring_push(ring, &rec.encode()).unwrap();
        assert!(maps.ring_push(ring, &rec.encode()).is_err());

        // Garbage record: decodes to an error, not a panic.
        maps.ring_pop(ring).unwrap();
        maps.ring_push(ring, &[7u8; 40]).unwrap();

        let s = drain.drain(&mut maps, &tracer).unwrap();
        assert_eq!(s.records, 0);
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.drops, 1);
        assert_eq!(tracer.counter("ebpf.ring.drops"), 1);
        assert_eq!(tracer.counter("ebpf.telemetry.decode_errors"), 1);
    }
}
