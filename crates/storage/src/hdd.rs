//! Spindle hard-disk model.
//!
//! The paper's storage insight is framed as a contrast: "in contrast
//! to spindle HDDs, modern SSDs don't have the same limitations with
//! regard to high-IOPS, non-sequential I/O" (§3.1). This model exists
//! so the ablation `A2` can show where metadata-driven scattered
//! prefetch *stops* being competitive: on a disk with a single
//! actuator, every discontiguous range pays a seek plus rotational
//! latency.

use snapbpf_sim::{SimDuration, SimTime, SplitMix64};

use crate::addr::BlockAddr;
use crate::device::{BlockDevice, IoCompletion, IoKind, IoRequest};

/// Configuration for [`HddModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct HddConfig {
    /// Model name used in reports.
    pub name: &'static str,
    /// Full-stroke seek time; actual seeks scale with distance.
    pub full_seek: SimDuration,
    /// Minimum (track-to-track) seek time.
    pub min_seek: SimDuration,
    /// Average rotational latency (half a revolution).
    pub avg_rotational: SimDuration,
    /// Media transfer bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Number of blocks on the device (for seek-distance scaling).
    pub total_blocks: u64,
    /// Relative service-time jitter (fraction of mean); 0 disables.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl HddConfig {
    /// A 7200 RPM SATA disk: ~8 ms average seek, 4.17 ms average
    /// rotational latency, ~180 MB/s outer-track transfer.
    pub fn sata_7200rpm() -> Self {
        HddConfig {
            name: "hdd-7200rpm",
            full_seek: SimDuration::from_millis(16),
            min_seek: SimDuration::from_micros(500),
            avg_rotational: SimDuration::from_micros(4170),
            bandwidth_bytes_per_sec: 180_000_000,
            total_blocks: 1_000_000_000 / 4, // ~1 TB
            jitter_frac: 0.05,
            seed: 0x5EED_11DD,
        }
    }
}

impl Default for HddConfig {
    fn default() -> Self {
        HddConfig::sata_7200rpm()
    }
}

/// Deterministic spindle-disk model with a single actuator.
///
/// # Examples
///
/// ```
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{BlockAddr, BlockDevice, HddModel, IoRequest};
///
/// let mut hdd = HddModel::sata_7200rpm();
/// let near = hdd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), 1));
/// let far = hdd.submit(near.done_at, IoRequest::read(BlockAddr::new(900_000_000 / 4), 1));
/// assert!(far.done_at.saturating_since(far.started_at)
///     > near.done_at.saturating_since(near.started_at));
/// ```
#[derive(Debug, Clone)]
pub struct HddModel {
    config: HddConfig,
    head: BlockAddr,
    busy_until: SimTime,
    last_end: Option<BlockAddr>,
    rng: SplitMix64,
}

impl HddModel {
    /// Creates a disk from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth or total size is zero.
    pub fn new(config: HddConfig) -> Self {
        assert!(
            config.bandwidth_bytes_per_sec > 0,
            "HDD bandwidth must be positive"
        );
        assert!(config.total_blocks > 0, "HDD must have at least one block");
        HddModel {
            head: BlockAddr::new(0),
            busy_until: SimTime::ZERO,
            last_end: None,
            rng: SplitMix64::new(config.seed),
            config,
        }
    }

    /// A 7200 RPM SATA disk ([`HddConfig::sata_7200rpm`]).
    pub fn sata_7200rpm() -> Self {
        HddModel::new(HddConfig::sata_7200rpm())
    }

    /// The configuration this device was built from.
    pub fn config(&self) -> &HddConfig {
        &self.config
    }

    fn seek_time(&self, from: BlockAddr, to: BlockAddr) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        // Square-root seek curve: short seeks are disproportionately
        // cheap, matching measured disk behaviour.
        let frac = (from.distance(to) as f64 / self.config.total_blocks as f64).min(1.0);
        let range = self
            .config
            .full_seek
            .saturating_sub(self.config.min_seek)
            .as_nanos() as f64;
        self.config.min_seek + SimDuration::from_nanos((range * frac.sqrt()) as u64)
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.bandwidth_bytes_per_sec as f64)
    }
}

impl BlockDevice for HddModel {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let sequential = self.last_end == Some(req.addr) && self.head == req.addr;
        self.last_end = Some(req.end());

        let started_at = now.max(self.busy_until);
        let mut service = self.transfer_time(req.bytes());
        if !sequential {
            service += self.seek_time(self.head, req.addr) + self.config.avg_rotational;
        }
        if req.kind == IoKind::Write {
            // Writes pay an extra rotation on average for verify-less
            // in-place update; modest but nonzero.
            service += self.config.avg_rotational / 2;
        }
        if self.config.jitter_frac > 0.0 {
            let mean = service.as_nanos() as f64;
            let jittered = self
                .rng
                .next_gaussian(mean, mean * self.config.jitter_frac)
                .max(mean * 0.5);
            service = SimDuration::from_nanos(jittered as u64);
        }

        let done_at = started_at + service;
        self.busy_until = done_at;
        self.head = req.end();

        IoCompletion {
            started_at,
            done_at,
            sequential,
        }
    }

    fn model_name(&self) -> &str {
        self.config.name
    }

    fn next_free(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    fn reset(&mut self) {
        self.head = BlockAddr::new(0);
        self.busy_until = SimTime::ZERO;
        self.last_end = None;
        self.rng = SplitMix64::new(self.config.seed);
    }

    fn boxed_clone(&self) -> Box<dyn BlockDevice> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter() -> HddModel {
        let mut cfg = HddConfig::sata_7200rpm();
        cfg.jitter_frac = 0.0;
        HddModel::new(cfg)
    }

    #[test]
    fn sequential_run_avoids_seeks() {
        let mut hdd = no_jitter();
        let first = hdd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), 8));
        let second = hdd.submit(first.done_at, IoRequest::read(BlockAddr::new(8), 8));
        assert!(second.sequential);
        let first_lat = first.done_at.saturating_since(first.started_at);
        let second_lat = second.done_at.saturating_since(second.started_at);
        assert!(
            second_lat < first_lat / 5,
            "sequential continuation {second_lat} should be far cheaper than seek+rotate {first_lat}"
        );
    }

    #[test]
    fn random_io_serializes_on_single_actuator() {
        let mut hdd = no_jitter();
        // 8 scattered reads: each pays seek + rotation, and they
        // cannot overlap.
        let mut last = SimTime::ZERO;
        for i in 0..8u64 {
            let c = hdd.submit(
                SimTime::ZERO,
                IoRequest::read(BlockAddr::new((i * 37_000_000) % 250_000_000), 1),
            );
            assert!(c.started_at >= last || last == SimTime::ZERO);
            last = c.done_at;
        }
        // 8 random reads at ~>4.6ms each must take > 30 ms total.
        assert!(
            last > SimTime::from_millis(30),
            "random HDD I/O finished suspiciously fast: {last}"
        );
    }

    #[test]
    fn longer_seeks_cost_more() {
        let hdd = no_jitter();
        let near = hdd.seek_time(BlockAddr::new(0), BlockAddr::new(1000));
        let far = hdd.seek_time(BlockAddr::new(0), BlockAddr::new(200_000_000));
        assert!(near < far);
        assert!(near >= hdd.config.min_seek);
        assert!(far <= hdd.config.full_seek);
        assert_eq!(
            hdd.seek_time(BlockAddr::new(5), BlockAddr::new(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn determinism_and_reset() {
        let mut hdd = HddModel::sata_7200rpm();
        let a = hdd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(12345), 4));
        hdd.submit(a.done_at, IoRequest::read(BlockAddr::new(999), 4));
        hdd.reset();
        let b = hdd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(12345), 4));
        assert_eq!(a, b);
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut r = no_jitter();
        let mut w = no_jitter();
        let cr = r.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(777), 1));
        let cw = w.submit(SimTime::ZERO, IoRequest::write(BlockAddr::new(777), 1));
        assert!(cw.done_at > cr.done_at);
    }
}
