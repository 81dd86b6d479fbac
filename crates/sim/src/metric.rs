//! The declared metric catalog.
//!
//! Every metric the simulation reports is declared exactly once, in
//! [`CATALOG`], with its kind, unit, emitting layer and meaning. Code
//! names a metric by its [`Metric`] id, so an undeclared name is a
//! compile error, and a [`crate::MetricsRegistry`] stores values in
//! dense slots indexed by id — the way Linux bumps `vm_event_item`
//! counters through an enum-indexed array and names them only when
//! `/proc/vmstat` is read.
//!
//! Entries are declared in name order, so id order is name order and
//! a registry serializes its slots in the order a name-keyed map
//! would.
//!
//! # Examples
//!
//! ```
//! use snapbpf_sim::{Metric, MetricKind};
//!
//! let m = Metric::MemCacheHits;
//! assert_eq!(m.name(), "mem.cache.hits");
//! assert_eq!(m.info().kind, MetricKind::Counter);
//! assert_eq!(Metric::from_name("mem.cache.hits"), Some(m));
//! assert_eq!(Metric::from_name("mem.cache.hit"), None);
//! ```

use std::fmt::Write as _;

/// What a metric records, and so where its values live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A run total, in the registry's counters.
    Counter,
    /// A distribution of samples, in the registry's histograms.
    Histogram,
    /// Windowed per-function samples, in the series registry.
    Series,
    /// A run total that is also sampled as a per-function series.
    CounterSeries,
}

impl MetricKind {
    /// The label the catalog table prints.
    pub const fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
            MetricKind::Series => "series",
            MetricKind::CounterSeries => "counter+series",
        }
    }

    /// `true` when values of this kind live in a registry counter.
    pub const fn is_counter(self) -> bool {
        matches!(self, MetricKind::Counter | MetricKind::CounterSeries)
    }

    /// `true` when values of this kind are windowed series samples.
    pub const fn is_series(self) -> bool {
        matches!(self, MetricKind::Series | MetricKind::CounterSeries)
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricInfo {
    /// Dotted name, `layer.noun.verb`; what every output prints.
    pub name: &'static str,
    /// What the metric records.
    pub kind: MetricKind,
    /// Unit of one count or sample.
    pub unit: &'static str,
    /// The crate whose code bumps it.
    pub layer: &'static str,
    /// What it means, in one sentence.
    pub description: &'static str,
}

macro_rules! catalog {
    ($($id:ident: $name:literal, $kind:ident, $unit:literal, $layer:literal, $desc:literal;)*) => {
        /// A declared metric's id: its index in [`CATALOG`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum Metric {
            $(
                #[doc = concat!("`", $name, "`: ", $desc)]
                $id,
            )*
        }

        /// Every declared metric, in name (and id) order.
        pub const CATALOG: &[MetricInfo] = &[
            $(MetricInfo {
                name: $name,
                kind: MetricKind::$kind,
                unit: $unit,
                layer: $layer,
                description: $desc,
            },)*
        ];

        impl Metric {
            /// Every id, in catalog order.
            pub const ALL: &[Metric] = &[$(Metric::$id,)*];
        }
    };
}

catalog! {
    ClusterSnapshotFetchNs: "cluster.snapshot_fetch_ns", Histogram, "ns", "fleet",
        "Transfer time of one remote snapshot fetch onto a cluster host.";
    ClusterSnapshotFetches: "cluster.snapshot_fetches", Counter, "count", "fleet",
        "Cold starts that first fetched their snapshot from remote storage.";
    CoreRestoreMetadataLoadNs: "core.restore.stage.metadata-load_ns", Histogram, "ns", "core",
        "Duration of the restore's metadata-load stage.";
    CoreRestoreOverlaySetupNs: "core.restore.stage.overlay-setup_ns", Histogram, "ns", "core",
        "Duration of the restore's overlay-setup stage.";
    CoreRestorePrefetchIssueNs: "core.restore.stage.prefetch-issue_ns", Histogram, "ns", "core",
        "Duration of the restore's prefetch-issue stage.";
    CoreRestoreResumeNs: "core.restore.stage.resume_ns", Histogram, "ns", "core",
        "Duration of the restore's resume stage.";
    EbpfMapCreates: "ebpf.map.creates", Counter, "count", "ebpf",
        "Map-create calls.";
    EbpfMapLookups: "ebpf.map.lookups", Counter, "count", "ebpf",
        "Map-lookup calls through the map API.";
    EbpfMapRingPops: "ebpf.map.ring_pops", Counter, "count", "ebpf",
        "Ring-buffer pop calls, empty pops included.";
    EbpfMapRingPushes: "ebpf.map.ring_pushes", Counter, "count", "ebpf",
        "Ring-buffer push calls, failed pushes included.";
    EbpfMapUpdates: "ebpf.map.updates", Counter, "count", "ebpf",
        "Map-update calls.";
    EbpfOptCacheHits: "ebpf.opt.cache_hits", Counter, "count", "kernel",
        "Loads whose optimized image came from the load cache.";
    EbpfOptInsnsAfter: "ebpf.opt.insns_after", Counter, "insns", "kernel",
        "Instructions in the optimized images of all loads.";
    EbpfOptInsnsBefore: "ebpf.opt.insns_before", Counter, "insns", "kernel",
        "Instructions in the original images of all loads.";
    EbpfOptPrograms: "ebpf.opt.programs", Counter, "count", "kernel",
        "Programs the load path optimized (cache hits included).";
    EbpfOptReverifyRejections: "ebpf.opt.reverify_rejections", Counter, "count", "kernel",
        "Loads whose optimized image failed re-verification, so the original was attached.";
    EbpfPrefetchGroups: "ebpf.prefetch.groups", Series, "count", "kernel",
        "Groups one prefetch-program invocation issued, per function.";
    EbpfPrefetchPages: "ebpf.prefetch.pages", CounterSeries, "pages", "kernel",
        "Pages requested through the prefetch kfunc.";
    EbpfPrefetchRanges: "ebpf.prefetch.ranges", Counter, "count", "kernel",
        "Prefetch-kfunc ranges the kernel drained and issued.";
    EbpfPrefetchTotalPages: "ebpf.prefetch.total_pages", Series, "pages", "kernel",
        "Pages one prefetch-program invocation requested, per function.";
    EbpfProgErrors: "ebpf.prog.errors", Counter, "count", "ebpf",
        "Attached-program runs that ended in a runtime error.";
    EbpfProgInsns: "ebpf.prog.insns", Counter, "insns", "ebpf",
        "Instructions interpreted across all program runs.";
    EbpfProgInsnsPerInvocation: "ebpf.prog.insns_per_invocation", Histogram, "insns", "ebpf",
        "Instructions interpreted by one program run.";
    EbpfProgInvocations: "ebpf.prog.invocations", Counter, "count", "ebpf",
        "Attached-program runs that completed.";
    EbpfProgSelfDisables: "ebpf.prog.self_disables", Counter, "count", "kernel",
        "Programs that detached themselves by returning the disable code.";
    EbpfRingDrops: "ebpf.ring.drops", Counter, "count", "kernel",
        "Telemetry records dropped on a full ring buffer.";
    EbpfTelemetryCompletions: "ebpf.telemetry.completions", Counter, "count", "kernel",
        "Prefetch-completed records drained from the telemetry ring.";
    EbpfTelemetryDecodeErrors: "ebpf.telemetry.decode_errors", Counter, "count", "kernel",
        "Telemetry ring records that failed to decode.";
    EbpfTelemetryEnospc: "ebpf.telemetry.enospc", Counter, "count", "kernel",
        "Ring reservations that failed with -ENOSPC, from the per-CPU stats map.";
    EbpfTelemetryIssued: "ebpf.telemetry.issued", Counter, "count", "kernel",
        "Prefetches issued, from the per-CPU stats map.";
    EbpfTelemetryPages: "ebpf.telemetry.pages", Counter, "pages", "kernel",
        "Pages requested by prefetches, from the per-CPU stats map.";
    EbpfVerifierCacheHits: "ebpf.verifier.cache_hits", Counter, "count", "kernel",
        "Loads the load cache served without running the verifier.";
    EbpfVerifierDeadInsns: "ebpf.verifier.dead_insns", Counter, "insns", "kernel",
        "Instructions the verifier found unreachable.";
    EbpfVerifierInsnsProcessed: "ebpf.verifier.insns_processed", Counter, "insns", "kernel",
        "Instructions the verifier walked across all explored paths.";
    EbpfVerifierPeakBranchDepth: "ebpf.verifier.peak_branch_depth", Histogram, "count", "kernel",
        "Deepest pending-branch stack of one program load.";
    EbpfVerifierPrograms: "ebpf.verifier.programs", Counter, "count", "kernel",
        "Programs accepted at load (cache hits included).";
    EbpfVerifierRejections: "ebpf.verifier.rejections", Counter, "count", "kernel",
        "Programs the verifier rejected at load.";
    EbpfVerifierStatesPruned: "ebpf.verifier.states_pruned", Counter, "count", "kernel",
        "Verifier states pruned as already covered.";
    FleetArrivals: "fleet.arrivals", Counter, "count", "fleet",
        "Requests that arrived at a host.";
    FleetColdStartNs: "fleet.cold_start_ns", Series, "ns", "fleet",
        "Restore latency of each cold start, per function.";
    FleetColdStarts: "fleet.cold_starts", Counter, "count", "fleet",
        "Requests served by restoring a fresh sandbox.";
    FleetEnqueued: "fleet.enqueued", Counter, "count", "fleet",
        "Requests queued for lack of a free concurrency slot.";
    FleetFailed: "fleet.failed", Counter, "count", "fleet",
        "Requests lost to a host crash with no retry.";
    FleetPoolEvictions: "fleet.pool_evictions", Counter, "count", "fleet",
        "Parked warm sandboxes evicted by pool capacity, drain or crash.";
    FleetPoolExpirations: "fleet.pool_expirations", Counter, "count", "fleet",
        "Parked warm sandboxes torn down by keep-alive expiry.";
    FleetRetried: "fleet.retried", Counter, "count", "fleet",
        "Requests killed by a host crash and sent to retry.";
    FleetShed: "fleet.shed", Counter, "count", "fleet",
        "Requests shed on a full admission queue.";
    FleetWarmHit: "fleet.warm_hit", Series, "0/1", "fleet",
        "One sample per completion: 1 when warm, 0 when cold, per function.";
    FleetWarmHits: "fleet.warm_hits", Counter, "count", "fleet",
        "Requests served by a parked warm sandbox.";
    MemCacheDedupBytes: "mem.cache.dedup_bytes", Counter, "bytes", "mem",
        "Memory saved by mapping page-cache pages another sandbox already maps.";
    MemCacheDedupHits: "mem.cache.dedup_hits", Counter, "pages", "mem",
        "Page-cache pages mapped by a second or later sandbox.";
    MemCacheEvictions: "mem.cache.evictions", Counter, "pages", "mem",
        "Page-cache pages evicted by LRU reclaim.";
    MemCacheHits: "mem.cache.hits", Counter, "count", "mem",
        "Page-cache lookups that found the page.";
    MemCacheInserts: "mem.cache.inserts", Counter, "pages", "mem",
        "Pages inserted into the page cache.";
    MemCacheMisses: "mem.cache.misses", Counter, "count", "mem",
        "Page-cache lookups that missed.";
    MemCachePressureEvictions: "mem.cache.pressure_evictions", Counter, "pages", "kernel",
        "Page-cache pages reclaimed to stay within the cache budget.";
    MemCowBreaks: "mem.cow_breaks", Counter, "pages", "kernel",
        "Page-cache pages copied to anonymous memory on a write.";
    StorageQueueDepth: "storage.queue.depth", Histogram, "requests", "storage",
        "Requests outstanding on the device when one is submitted.";
    StorageReadBytes: "storage.read.bytes", Counter, "bytes", "storage",
        "Bytes read from the block device.";
    StorageReadLatencyNs: "storage.read.latency_ns", Histogram, "ns", "storage",
        "Submit-to-completion latency of one read request.";
    StorageReadRequests: "storage.read.requests", Counter, "count", "storage",
        "Read requests submitted to the block device.";
    VmmGuestCowBreaks: "vmm.guest.cow_breaks", Counter, "count", "vmm",
        "Guest writes that broke copy-on-write on a shared page.";
    VmmGuestMajorFaults: "vmm.guest.major_faults", Counter, "count", "vmm",
        "Guest faults that waited on snapshot I/O.";
    VmmGuestMinorFaults: "vmm.guest.minor_faults", Counter, "count", "vmm",
        "Guest faults served from the page cache.";
    VmmGuestPvAnonFaults: "vmm.guest.pv_anon_faults", Counter, "count", "vmm",
        "Guest faults on PV-marked pages served with fresh anonymous memory.";
    VmmUffdFaults: "vmm.uffd.faults", Counter, "count", "vmm",
        "Guest faults resolved by a userfaultfd handler.";
    VmmUffdWaitNs: "vmm.uffd.wait_ns", Histogram, "ns", "vmm",
        "Time one userfaultfd fault waited for its page.";
}

impl Metric {
    /// The catalog entry of this id.
    pub fn info(self) -> &'static MetricInfo {
        &CATALOG[self as usize]
    }

    /// The declared name.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// The slot index of this id.
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// The id declared under `name`, if any.
    pub fn from_name(name: &str) -> Option<Metric> {
        CATALOG
            .binary_search_by(|m| m.name.cmp(name))
            .ok()
            .map(|i| Metric::ALL[i])
    }
}

/// Renders the catalog as a Markdown table, one row per metric in
/// catalog order: what `figures --metrics-catalog` prints and DESIGN
/// §7 embeds.
pub fn catalog_table() -> String {
    let mut out =
        String::from("| name | kind | unit | layer | description |\n|---|---|---|---|---|\n");
    for m in CATALOG {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.kind.label(),
            m.unit,
            m.layer,
            m.description
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_strictly_sorted_and_unique() {
        for w in CATALOG.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "{} must sort before {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn ids_index_their_own_entries() {
        assert_eq!(Metric::ALL.len(), CATALOG.len());
        for (i, &m) in Metric::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
    }

    #[test]
    fn design_doc_embeds_the_rendered_catalog() {
        let design = include_str!("../../../DESIGN.md");
        let table = catalog_table();
        let header = table.lines().next().unwrap();
        let embedded: String = design
            .lines()
            .skip_while(|l| *l != header)
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            embedded, table,
            "DESIGN.md §7's metric table differs from the catalog; \
             regenerate it with `figures --metrics-catalog`"
        );
    }
}
