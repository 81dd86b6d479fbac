//! The disk façade: a block device plus a flat file layer.
//!
//! Experiments deal in *files* — the snapshot memory file, the
//! working-set files REAP/FaaSnap serialize, the offsets metadata
//! file — not raw block addresses. `Disk` allocates each file a
//! contiguous extent (snapshot files are written once, sequentially,
//! at snapshot-creation time, so contiguity matches reality) and
//! routes page-granular reads and writes through the device model,
//! counting and tracing the reads.

use std::collections::HashMap;
use std::fmt;

use snapbpf_sim::{Metric, SimTime, Tracer, TID_DISK};

use crate::addr::{BlockAddr, Extent};
use crate::device::{BlockDevice, IoCompletion, IoKind, IoPath, IoRequest};

/// Identifier of a file stored on a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(u32);

impl FileId {
    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct FileMeta {
    name: String,
    extent: Extent,
}

/// Errors returned by [`Disk`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The file id does not exist.
    NoSuchFile(FileId),
    /// A read or write crossed the end of the file.
    OutOfBounds {
        /// The offending file.
        file: FileId,
        /// First page of the attempted access.
        first_page: u64,
        /// Number of pages in the attempted access.
        pages: u64,
        /// The file's size in pages.
        file_pages: u64,
    },
    /// A file with this name already exists.
    NameTaken(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::NoSuchFile(id) => write!(f, "no such file: {id}"),
            DiskError::OutOfBounds {
                file,
                first_page,
                pages,
                file_pages,
            } => write!(
                f,
                "access [{first_page}, {}) out of bounds for {file} of {file_pages} pages",
                first_page + pages
            ),
            DiskError::NameTaken(name) => write!(f, "file name already taken: {name:?}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// A block device with a flat file layer, read counters and an
/// optional structured trace.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{Disk, IoPath, SsdModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut disk = Disk::new(Box::new(SsdModel::micron_5300()));
/// let snap = disk.create_file("snapshot", 1024)?;
/// let done = disk.read_file_pages(SimTime::ZERO, snap, 0, 32, IoPath::Buffered)?;
/// assert!(done.done_at > SimTime::ZERO);
/// assert_eq!(disk.read_bytes(), 32 * 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    device: Box<dyn BlockDevice>,
    files: Vec<FileMeta>,
    by_name: HashMap<String, FileId>,
    next_block: u64,
    // Reads since creation or the last `reset_read_counts`.
    read_bytes: u64,
    read_requests: u64,
    trace: Tracer,
    // Completion times (ns) of submitted-but-not-yet-done requests —
    // pruned lazily, so `len()` at submit time is the queue depth.
    outstanding: Vec<u64>,
}

/// Gap (in blocks) left between consecutive file extents so that the
/// last block of one file and the first of the next never look
/// sequential to the device.
const FILE_GAP_BLOCKS: u64 = 64;

impl Disk {
    /// Creates a disk over the given device model with zeroed read
    /// counters.
    pub fn new(device: Box<dyn BlockDevice>) -> Self {
        Disk {
            device,
            files: Vec::new(),
            by_name: HashMap::new(),
            next_block: 0,
            read_bytes: 0,
            read_requests: 0,
            trace: Tracer::disabled(),
            outstanding: Vec::new(),
        }
    }

    /// Allocates a new file of `pages` pages in a fresh contiguous
    /// extent.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NameTaken`] if the name is in use.
    pub fn create_file(&mut self, name: &str, pages: u64) -> Result<FileId, DiskError> {
        if self.by_name.contains_key(name) {
            return Err(DiskError::NameTaken(name.to_owned()));
        }
        let id = FileId(self.files.len() as u32);
        let extent = Extent::new(BlockAddr::new(self.next_block), pages);
        self.next_block += pages + FILE_GAP_BLOCKS;
        self.files.push(FileMeta {
            name: name.to_owned(),
            extent,
        });
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks a file up by name.
    pub fn file_by_name(&self, name: &str) -> Option<FileId> {
        self.by_name.get(name).copied()
    }

    /// Looks a file up by its raw index (e.g. recovered from an eBPF
    /// context word); `None` if no such file exists.
    pub fn file_by_index(&self, index: u32) -> Option<FileId> {
        ((index as usize) < self.files.len()).then_some(FileId(index))
    }

    /// The file's name.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchFile`] for an unknown id.
    pub fn file_name(&self, file: FileId) -> Result<&str, DiskError> {
        self.meta(file).map(|m| m.name.as_str())
    }

    /// The file's size in pages.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchFile`] for an unknown id.
    pub fn file_pages(&self, file: FileId) -> Result<u64, DiskError> {
        self.meta(file).map(|m| m.extent.blocks())
    }

    /// The extent backing the file.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchFile`] for an unknown id.
    pub fn file_extent(&self, file: FileId) -> Result<Extent, DiskError> {
        self.meta(file).map(|m| m.extent)
    }

    fn meta(&self, file: FileId) -> Result<&FileMeta, DiskError> {
        self.files
            .get(file.0 as usize)
            .ok_or(DiskError::NoSuchFile(file))
    }

    fn check_bounds(&self, file: FileId, first_page: u64, pages: u64) -> Result<Extent, DiskError> {
        let extent = self.file_extent(file)?;
        if pages == 0 || first_page + pages > extent.blocks() {
            return Err(DiskError::OutOfBounds {
                file,
                first_page,
                pages,
                file_pages: extent.blocks(),
            });
        }
        Ok(extent)
    }

    /// Reads `pages` contiguous pages of `file` starting at
    /// `first_page`, returning the device completion.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfBounds`] when the range leaves the
    /// file, and [`DiskError::NoSuchFile`] for an unknown id.
    pub fn read_file_pages(
        &mut self,
        now: SimTime,
        file: FileId,
        first_page: u64,
        pages: u64,
        path: IoPath,
    ) -> Result<IoCompletion, DiskError> {
        let extent = self.check_bounds(file, first_page, pages)?;
        let req = IoRequest {
            addr: extent.start().offset(first_page),
            blocks: pages,
            kind: IoKind::Read,
            path,
        };
        let completion = self.device.submit(now, req);
        self.note_trace(now, file, req, completion);
        Ok(completion)
    }

    /// Reads a batch of contiguous runs of `file` — each element of
    /// `runs` is `(first_page, pages)` — submitting them back-to-back
    /// and returning one completion per run, in order.
    ///
    /// Equivalent to calling [`Disk::read_file_pages`] once per run
    /// (same device submissions, same trace spans) but with the file
    /// metadata resolved once, so hot restore paths that fault in
    /// many runs of the same snapshot file pay one lookup instead of
    /// one per run. The whole batch is bounds-checked up front:
    /// either every run is submitted or none is.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::NoSuchFile`] for an unknown id and
    /// [`DiskError::OutOfBounds`] if any run leaves the file (no I/O
    /// is issued in that case).
    pub fn read_file_runs(
        &mut self,
        now: SimTime,
        file: FileId,
        runs: &[(u64, u64)],
        path: IoPath,
    ) -> Result<Vec<IoCompletion>, DiskError> {
        let extent = self.file_extent(file)?;
        for &(first_page, pages) in runs {
            if pages == 0 || first_page + pages > extent.blocks() {
                return Err(DiskError::OutOfBounds {
                    file,
                    first_page,
                    pages,
                    file_pages: extent.blocks(),
                });
            }
        }
        let mut completions = Vec::with_capacity(runs.len());
        for &(first_page, pages) in runs {
            let req = IoRequest {
                addr: extent.start().offset(first_page),
                blocks: pages,
                kind: IoKind::Read,
                path,
            };
            let completion = self.device.submit(now, req);
            self.note_trace(now, file, req, completion);
            completions.push(completion);
        }
        Ok(completions)
    }

    /// Writes `pages` contiguous pages of `file` starting at
    /// `first_page`. Writes are neither counted nor traced: snapshots
    /// and record-phase artifacts are written before any run starts
    /// measuring.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Disk::read_file_pages`].
    pub fn write_file_pages(
        &mut self,
        now: SimTime,
        file: FileId,
        first_page: u64,
        pages: u64,
        path: IoPath,
    ) -> Result<IoCompletion, DiskError> {
        let extent = self.check_bounds(file, first_page, pages)?;
        let req = IoRequest {
            addr: extent.start().offset(first_page),
            blocks: pages,
            kind: IoKind::Write,
            path,
        };
        Ok(self.device.submit(now, req))
    }

    /// Counts one submitted read and reports it to the structured
    /// trace layer: a submit→complete span on the disk track with the
    /// queue depth observed at submit time, plus request/byte/latency
    /// metrics.
    fn note_trace(&mut self, now: SimTime, file: FileId, req: IoRequest, done: IoCompletion) {
        self.read_bytes += req.bytes();
        self.read_requests += 1;
        if !self.trace.is_enabled() {
            return;
        }
        let now_ns = now.as_nanos();
        self.outstanding.retain(|&d| d > now_ns);
        let depth = self.outstanding.len() as u64;
        self.outstanding.push(done.done_at.as_nanos());
        self.trace.incr(Metric::StorageReadRequests);
        self.trace.add(Metric::StorageReadBytes, req.bytes());
        self.trace
            .observe_duration(Metric::StorageReadLatencyNs, done.latency(now));
        self.trace.observe(Metric::StorageQueueDepth, depth);
        if self.trace.events_enabled() {
            let file_name = self
                .files
                .get(file.as_u32() as usize)
                .map(|m| m.name.as_str())
                .unwrap_or("?");
            self.trace.span(
                "storage",
                "disk-read",
                TID_DISK,
                now,
                done.done_at,
                vec![
                    ("device", self.device.model_name().into()),
                    ("file", file_name.into()),
                    ("blocks", req.blocks.into()),
                    ("bytes", req.bytes().into()),
                    (
                        "path",
                        match req.path {
                            IoPath::Buffered => "buffered",
                            IoPath::Direct => "direct",
                        }
                        .into(),
                    ),
                    ("sequential", done.sequential.into()),
                    ("queue_depth", depth.into()),
                    (
                        "queue_ns",
                        done.started_at.saturating_since(now).as_nanos().into(),
                    ),
                ],
            );
        }
    }

    /// Attaches the structured trace handle disk spans and metrics
    /// report through (shared with the rest of the host).
    pub fn set_trace(&mut self, trace: Tracer) {
        self.trace = trace;
        self.outstanding.clear();
    }

    /// Bytes read since creation or the last
    /// [`Disk::reset_read_counts`].
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Read requests submitted since creation or the last
    /// [`Disk::reset_read_counts`].
    pub fn read_requests(&self) -> u64 {
        self.read_requests
    }

    /// Zeroes the read counters, so they cover one phase of a run.
    pub fn reset_read_counts(&mut self) {
        self.read_bytes = 0;
        self.read_requests = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssd::{SsdConfig, SsdModel};

    fn disk() -> Disk {
        let mut cfg = SsdConfig::micron_5300();
        cfg.jitter_frac = 0.0;
        Disk::new(Box::new(SsdModel::new(cfg)))
    }

    #[test]
    fn create_and_lookup() {
        let mut d = disk();
        let a = d.create_file("snap", 100).unwrap();
        let b = d.create_file("ws", 50).unwrap();
        assert_ne!(a, b);
        assert_eq!(d.file_by_name("snap"), Some(a));
        assert_eq!(d.file_by_name("nope"), None);
        assert_eq!(d.file_pages(a).unwrap(), 100);
        assert_eq!(d.file_name(b).unwrap(), "ws");
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut d = disk();
        d.create_file("snap", 10).unwrap();
        assert!(matches!(
            d.create_file("snap", 10),
            Err(DiskError::NameTaken(_))
        ));
    }

    #[test]
    fn extents_do_not_overlap_or_abut() {
        let mut d = disk();
        let a = d.create_file("a", 100).unwrap();
        let b = d.create_file("b", 100).unwrap();
        let ea = d.file_extent(a).unwrap();
        let eb = d.file_extent(b).unwrap();
        assert!(ea.end().as_u64() < eb.start().as_u64());
    }

    #[test]
    fn reads_are_traced() {
        let mut d = disk();
        let f = d.create_file("snap", 64).unwrap();
        d.read_file_pages(SimTime::ZERO, f, 0, 8, IoPath::Buffered)
            .unwrap();
        d.read_file_pages(SimTime::ZERO, f, 32, 8, IoPath::Direct)
            .unwrap();
        assert_eq!(d.read_requests(), 2);
        assert_eq!(d.read_bytes(), 16 * 4096);
    }

    #[test]
    fn batched_runs_match_per_run_reads() {
        let mut a = disk();
        let mut b = disk();
        let fa = a.create_file("snap", 64).unwrap();
        let fb = b.create_file("snap", 64).unwrap();
        let runs = [(0u64, 4u64), (10, 2), (40, 8)];
        let batched = a
            .read_file_runs(SimTime::from_micros(5), fa, &runs, IoPath::Buffered)
            .unwrap();
        let singles: Vec<_> = runs
            .iter()
            .map(|&(first, pages)| {
                b.read_file_pages(SimTime::from_micros(5), fb, first, pages, IoPath::Buffered)
                    .unwrap()
            })
            .collect();
        assert_eq!(batched, singles);
        assert_eq!(a.read_requests(), b.read_requests());
        assert_eq!(a.read_bytes(), b.read_bytes());
    }

    #[test]
    fn batched_runs_are_all_or_nothing() {
        let mut d = disk();
        let f = d.create_file("snap", 10).unwrap();
        // Second run is out of bounds: nothing may be submitted.
        assert!(matches!(
            d.read_file_runs(SimTime::ZERO, f, &[(0, 4), (8, 4)], IoPath::Buffered),
            Err(DiskError::OutOfBounds { .. })
        ));
        assert_eq!(d.read_requests(), 0);
        assert!(matches!(
            d.read_file_runs(SimTime::ZERO, FileId(99), &[(0, 1)], IoPath::Buffered),
            Err(DiskError::NoSuchFile(_))
        ));
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = disk();
        let f = d.create_file("snap", 10).unwrap();
        assert!(matches!(
            d.read_file_pages(SimTime::ZERO, f, 8, 4, IoPath::Buffered),
            Err(DiskError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.read_file_pages(SimTime::ZERO, f, 0, 0, IoPath::Buffered),
            Err(DiskError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.read_file_pages(SimTime::ZERO, FileId(99), 0, 1, IoPath::Buffered),
            Err(DiskError::NoSuchFile(_))
        ));
    }

    #[test]
    fn file_relative_addressing() {
        let mut d = disk();
        let _a = d.create_file("a", 100).unwrap();
        let b = d.create_file("b", 100).unwrap();
        let eb = d.file_extent(b).unwrap();
        // Reading page 5 of file b must land at extent-start + 5.
        d.read_file_pages(SimTime::ZERO, b, 5, 1, IoPath::Buffered)
            .unwrap();
        assert_eq!(eb.block(5).as_u64(), eb.start().as_u64() + 5);
    }

    #[test]
    fn reset_read_counts_starts_a_phase() {
        let mut d = disk();
        let f = d.create_file("snap", 4).unwrap();
        d.read_file_pages(SimTime::ZERO, f, 0, 1, IoPath::Buffered)
            .unwrap();
        d.reset_read_counts();
        assert_eq!((d.read_requests(), d.read_bytes()), (0, 0));
        d.write_file_pages(SimTime::ZERO, f, 0, 4, IoPath::Buffered)
            .unwrap();
        d.read_file_pages(SimTime::ZERO, f, 2, 2, IoPath::Buffered)
            .unwrap();
        // Writes are not counted.
        assert_eq!((d.read_requests(), d.read_bytes()), (1, 2 * 4096));
    }

    #[test]
    fn requests_emit_trace_spans_and_metrics() {
        let mut d = disk();
        let f = d.create_file("snap", 64).unwrap();
        let tr = Tracer::recording();
        d.set_trace(tr.clone());
        d.read_file_pages(SimTime::ZERO, f, 0, 8, IoPath::Buffered)
            .unwrap();
        d.read_file_pages(SimTime::ZERO, f, 32, 4, IoPath::Direct)
            .unwrap();
        // Writes are not traced.
        d.write_file_pages(SimTime::ZERO, f, 0, 4, IoPath::Direct)
            .unwrap();
        assert_eq!(tr.counter("storage.read.requests"), 2);
        assert_eq!(tr.counter("storage.read.bytes"), 12 * 4096);
        let events = tr.take_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.name == "disk-read"));
        assert_eq!(events[0].tid, TID_DISK);
        assert!(events[0].dur.unwrap().as_nanos() > 0);
        // The second read was submitted while the first still
        // occupied the device, so it observed queue depth 1.
        let depth = events[1]
            .args
            .iter()
            .find(|(k, _)| *k == "queue_depth")
            .unwrap();
        assert_eq!(depth.1, snapbpf_sim::TraceValue::U64(1));
        let m = tr.metrics_snapshot();
        assert_eq!(m.histogram("storage.queue.depth").unwrap().count(), 2);
        assert!(m.histogram("storage.read.latency_ns").unwrap().mean() > 0.0);
    }

    #[test]
    fn error_display() {
        let e = DiskError::OutOfBounds {
            file: FileId(1),
            first_page: 8,
            pages: 4,
            file_pages: 10,
        };
        assert!(e.to_string().contains("out of bounds"));
        assert!(DiskError::NoSuchFile(FileId(3))
            .to_string()
            .contains("file#3"));
    }
}
