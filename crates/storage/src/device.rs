//! The block-device abstraction shared by the SSD and HDD models.
//!
//! Devices use *analytic queueing*: a request submitted at virtual
//! time `t` immediately receives its completion time, computed from
//! the device's internal state (busy channels, pacing tokens, head
//! position). Outstanding requests overlap exactly as they would
//! under an event-driven model because each internal resource tracks
//! its own next-free time.

use std::fmt;

use snapbpf_sim::{SimDuration, SimTime};

use crate::addr::BlockAddr;

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "R"),
            IoKind::Write => write!(f, "W"),
        }
    }
}

/// How the request was issued — affects the host-side cost accounting
/// but not the device service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPath {
    /// Buffered I/O through the page cache.
    Buffered,
    /// Direct I/O (`O_DIRECT`), bypassing the page cache; used by
    /// REAP and Faast to avoid double copies.
    Direct,
}

/// A single block-level I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// First block.
    pub addr: BlockAddr,
    /// Number of contiguous blocks.
    pub blocks: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Buffered or direct.
    pub path: IoPath,
}

impl IoRequest {
    /// Convenience constructor for a buffered read.
    pub fn read(addr: BlockAddr, blocks: u64) -> Self {
        IoRequest {
            addr,
            blocks,
            kind: IoKind::Read,
            path: IoPath::Buffered,
        }
    }

    /// Convenience constructor for a direct-I/O read.
    pub fn read_direct(addr: BlockAddr, blocks: u64) -> Self {
        IoRequest {
            addr,
            blocks,
            kind: IoKind::Read,
            path: IoPath::Direct,
        }
    }

    /// Convenience constructor for a buffered write.
    pub fn write(addr: BlockAddr, blocks: u64) -> Self {
        IoRequest {
            addr,
            blocks,
            kind: IoKind::Write,
            path: IoPath::Buffered,
        }
    }

    /// Total bytes moved by the request.
    pub const fn bytes(&self) -> u64 {
        self.blocks * snapbpf_sim::PAGE_SIZE
    }

    /// One past the last block touched.
    pub const fn end(&self) -> BlockAddr {
        BlockAddr::new(self.addr.as_u64() + self.blocks)
    }
}

impl fmt::Display for IoRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}+{}", self.kind, self.addr, self.blocks)
    }
}

/// The completion record returned by a device at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// When the device started servicing the request.
    pub started_at: SimTime,
    /// When the data is available (read) or durable (write).
    pub done_at: SimTime,
    /// Whether the device classified the request as sequential with
    /// respect to the previous one it serviced.
    pub sequential: bool,
}

impl IoCompletion {
    /// Total time from submission to completion.
    pub fn latency(&self, submitted_at: SimTime) -> SimDuration {
        self.done_at.saturating_since(submitted_at)
    }
}

/// A simulated block device.
///
/// Implementations are deterministic state machines: `submit` both
/// mutates queue state and returns the completion time of the
/// request.
pub trait BlockDevice: fmt::Debug {
    /// Submits a request at virtual time `now` and returns its
    /// completion record.
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion;

    /// Human-readable model name (for reports).
    fn model_name(&self) -> &str;

    /// The time at which the device would next be able to *start* a
    /// request submitted at `now` — used by schedulers to reason
    /// about queue pressure.
    fn next_free(&self, now: SimTime) -> SimTime;

    /// Resets all queue state (head position, channel busy times) as
    /// if freshly powered on. Counters are not part of the device.
    fn reset(&mut self);

    /// An independent copy of this device, queue state included.
    fn boxed_clone(&self) -> Box<dyn BlockDevice>;
}

impl Clone for Box<dyn BlockDevice> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// A pacing token bucket that enforces a command-rate (IOPS) ceiling.
///
/// Commands may start no more often than once per `interval`; the
/// bucket remembers the last admitted start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pacer {
    interval: SimDuration,
    next_slot: SimTime,
}

impl Pacer {
    pub(crate) fn new(iops: u64) -> Self {
        let interval = SimDuration::from_nanos(1_000_000_000u64.checked_div(iops).unwrap_or(0));
        Pacer {
            interval,
            next_slot: SimTime::ZERO,
        }
    }

    /// Admits one command at or after `earliest`, returning the
    /// admitted start time.
    pub(crate) fn admit(&mut self, earliest: SimTime) -> SimTime {
        let start = earliest.max(self.next_slot);
        self.next_slot = start + self.interval;
        start
    }

    pub(crate) fn reset(&mut self) {
        self.next_slot = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_helpers() {
        let r = IoRequest::read(BlockAddr::new(4), 8);
        assert_eq!(r.bytes(), 8 * 4096);
        assert_eq!(r.end(), BlockAddr::new(12));
        assert_eq!(r.kind, IoKind::Read);
        assert_eq!(r.path, IoPath::Buffered);
        assert_eq!(
            IoRequest::read_direct(BlockAddr::new(0), 1).path,
            IoPath::Direct
        );
        assert_eq!(IoRequest::write(BlockAddr::new(0), 1).kind, IoKind::Write);
        assert_eq!(r.to_string(), "Rblk#4+8");
    }

    #[test]
    fn pacer_enforces_interval() {
        let mut p = Pacer::new(1_000_000); // 1 Mops -> 1000 ns interval
        let t0 = p.admit(SimTime::ZERO);
        let t1 = p.admit(SimTime::ZERO);
        let t2 = p.admit(SimTime::ZERO);
        assert_eq!(t0.as_nanos(), 0);
        assert_eq!(t1.as_nanos(), 1_000);
        assert_eq!(t2.as_nanos(), 2_000);
        // A late arrival is not penalized.
        let t3 = p.admit(SimTime::from_micros(100));
        assert_eq!(t3.as_micros(), 100);
    }

    #[test]
    fn pacer_zero_iops_means_unlimited() {
        let mut p = Pacer::new(0);
        assert_eq!(p.admit(SimTime::ZERO).as_nanos(), 0);
        assert_eq!(p.admit(SimTime::ZERO).as_nanos(), 0);
    }

    #[test]
    fn completion_latency() {
        let c = IoCompletion {
            started_at: SimTime::from_micros(10),
            done_at: SimTime::from_micros(25),
            sequential: false,
        };
        assert_eq!(c.latency(SimTime::from_micros(5)).as_micros(), 20);
    }
}
