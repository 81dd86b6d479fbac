//! I/O tracing and amplification accounting.
//!
//! The paper verifies FaaSnap's working-set-file inflation "by
//! instrumenting the kernel using eBPF" (§2.1). Here the equivalent
//! observability hook is a tracer attached to the disk façade: it
//! aggregates every block request into totals, sequentiality, the
//! mean device latency, and read amplification against a
//! caller-declared useful-byte count. It keeps no per-request log;
//! per-request spans go to the disk's [`snapbpf_sim::Tracer`] when
//! one is installed.

use std::fmt;

use snapbpf_sim::{SimDuration, SimTime};

use crate::device::{IoCompletion, IoKind, IoPath, IoRequest};

/// Records block-level I/O and summarizes it.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{BlockAddr, BlockDevice, IoRequest, IoTracer, SsdModel};
///
/// let mut ssd = SsdModel::micron_5300();
/// let mut tracer = IoTracer::new();
/// let req = IoRequest::read(BlockAddr::new(0), 4);
/// let done = ssd.submit(SimTime::ZERO, req);
/// tracer.record(SimTime::ZERO, req, done);
///
/// assert_eq!(tracer.read_bytes(), 4 * 4096);
/// assert_eq!(tracer.requests(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IoTracer {
    read_bytes: u64,
    write_bytes: u64,
    read_requests: u64,
    write_requests: u64,
    direct_requests: u64,
    sequential_requests: u64,
    /// Summed per-request device latency, in nanoseconds.
    latency_ns: u64,
}

impl IoTracer {
    /// Creates a tracer with all aggregates at zero.
    pub fn new() -> Self {
        IoTracer::default()
    }

    /// Records one completed request.
    pub fn record(&mut self, submitted_at: SimTime, request: IoRequest, completion: IoCompletion) {
        match request.kind {
            IoKind::Read => {
                self.read_bytes += request.bytes();
                self.read_requests += 1;
            }
            IoKind::Write => {
                self.write_bytes += request.bytes();
                self.write_requests += 1;
            }
        }
        if request.path == IoPath::Direct {
            self.direct_requests += 1;
        }
        if completion.sequential {
            self.sequential_requests += 1;
        }
        self.latency_ns += completion.latency(submitted_at).as_nanos();
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Total number of requests (reads + writes).
    pub fn requests(&self) -> u64 {
        self.read_requests + self.write_requests
    }

    /// Number of read requests.
    pub fn read_requests(&self) -> u64 {
        self.read_requests
    }

    /// Number of write requests.
    pub fn write_requests(&self) -> u64 {
        self.write_requests
    }

    /// Number of direct-I/O requests.
    pub fn direct_requests(&self) -> u64 {
        self.direct_requests
    }

    /// Fraction of requests the device classified as sequential
    /// continuations (0.0 when no requests were traced).
    pub fn sequential_fraction(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.sequential_requests as f64 / self.requests() as f64
        }
    }

    /// Read amplification: bytes actually read divided by
    /// `useful_bytes`. Returns `None` when `useful_bytes` is zero.
    pub fn read_amplification(&self, useful_bytes: u64) -> Option<f64> {
        (useful_bytes > 0).then(|| self.read_bytes as f64 / useful_bytes as f64)
    }

    /// Mean per-request latency (zero when no requests were traced).
    pub fn mean_latency(&self) -> SimDuration {
        SimDuration::from_nanos(self.latency_ns.checked_div(self.requests()).unwrap_or(0))
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        *self = IoTracer::default();
    }
}

impl fmt::Display for IoTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} ({} B) writes={} ({} B) seq={:.0}% mean_lat={}",
            self.read_requests,
            self.read_bytes,
            self.write_requests,
            self.write_bytes,
            self.sequential_fraction() * 100.0,
            self.mean_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::device::BlockDevice;
    use crate::ssd::{SsdConfig, SsdModel};

    fn traced_reads(n: u64, stride: u64) -> IoTracer {
        let mut cfg = SsdConfig::micron_5300();
        cfg.jitter_frac = 0.0;
        let mut ssd = SsdModel::new(cfg);
        let mut tracer = IoTracer::new();
        let mut t = SimTime::ZERO;
        for i in 0..n {
            let req = IoRequest::read(BlockAddr::new(i * stride), 1);
            let c = ssd.submit(t, req);
            tracer.record(t, req, c);
            t = c.done_at;
        }
        tracer
    }

    #[test]
    fn aggregates_bytes_and_counts() {
        let mut tracer = traced_reads(10, 1);
        assert_eq!(tracer.read_bytes(), 10 * 4096);
        assert_eq!(tracer.read_requests(), 10);
        assert_eq!(tracer.write_bytes(), 0);
        assert!(tracer.mean_latency() > SimDuration::ZERO);
        tracer.clear();
        assert_eq!(tracer.requests(), 0);
        assert_eq!(tracer.read_bytes(), 0);
        assert_eq!(tracer.mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn sequential_fraction_detects_patterns() {
        let seq = traced_reads(20, 1);
        let rand = traced_reads(20, 977);
        assert!(
            seq.sequential_fraction() > 0.9,
            "{}",
            seq.sequential_fraction()
        );
        assert_eq!(rand.sequential_fraction(), 0.0);
    }

    #[test]
    fn amplification_math() {
        let tracer = traced_reads(10, 1);
        assert_eq!(tracer.read_amplification(10 * 4096), Some(1.0));
        assert_eq!(tracer.read_amplification(5 * 4096), Some(2.0));
        assert_eq!(tracer.read_amplification(0), None);
    }

    #[test]
    fn display_is_nonempty() {
        let tracer = traced_reads(3, 1);
        let s = tracer.to_string();
        assert!(s.contains("reads=3"));
    }
}
