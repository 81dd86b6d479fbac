//! Flash SSD model.
//!
//! Models the properties SnapBPF's storage argument rests on (§3.1 of
//! the paper): modern SSDs serve high-IOPS *non-sequential* reads at
//! latencies close to sequential ones because internal channel
//! parallelism hides flash-array access time, so prefetching a
//! scattered working set directly from the snapshot file is not
//! penalized the way it would be on a spindle disk.
//!
//! The model has three moving parts:
//!
//! * **channels** — N independent service units; a request occupies
//!   the earliest-free channel for its full service time,
//! * **a pacer** — a command-rate ceiling (IOPS) shared by all
//!   channels, modelling the host interface / controller limit,
//! * **service time** — per-command setup latency (cheaper when the
//!   request is sequential to the previous one) plus size-dependent
//!   transfer time at the interface bandwidth.

use snapbpf_sim::{SimDuration, SimTime, SplitMix64};

use crate::addr::BlockAddr;
use crate::device::{BlockDevice, IoCompletion, IoKind, IoRequest, Pacer};

/// Configuration for [`SsdModel`].
///
/// Use the presets ([`SsdConfig::micron_5300`], [`SsdConfig::nvme`])
/// unless an ablation calls for something custom.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Model name used in reports.
    pub name: &'static str,
    /// Internal parallelism: number of concurrently serviced commands.
    pub channels: usize,
    /// Command setup latency when the request does *not* continue the
    /// previous one.
    pub random_cmd_latency: SimDuration,
    /// Command setup latency when the request is sequential to the
    /// previous serviced request.
    pub seq_cmd_latency: SimDuration,
    /// Extra latency for a write command (program > read on flash).
    pub write_penalty: SimDuration,
    /// Interface bandwidth in bytes per second (shared, modelled per
    /// command as transfer time).
    pub bandwidth_bytes_per_sec: u64,
    /// Command-rate ceiling (4 KiB IOPS); 0 disables pacing.
    pub max_iops: u64,
    /// Relative jitter applied to each command's service time
    /// (standard deviation as a fraction of the mean); 0 disables.
    pub jitter_frac: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl SsdConfig {
    /// The paper's testbed device: a 480 GiB Micron 5300 TLC SATA SSD
    /// (≈540 MB/s sequential read, ≈95 k random-read IOPS, SATA
    /// command latency in the tens of microseconds).
    pub fn micron_5300() -> Self {
        SsdConfig {
            name: "micron-5300-sata",
            channels: 8,
            random_cmd_latency: SimDuration::from_micros(80),
            seq_cmd_latency: SimDuration::from_micros(22),
            write_penalty: SimDuration::from_micros(40),
            bandwidth_bytes_per_sec: 540_000_000,
            max_iops: 95_000,
            jitter_frac: 0.04,
            seed: 0x5EED_55D0,
        }
    }

    /// A modern NVMe drive, used by ablations that ask how the
    /// comparison shifts on faster storage.
    pub fn nvme() -> Self {
        SsdConfig {
            name: "nvme-gen4",
            channels: 32,
            random_cmd_latency: SimDuration::from_micros(18),
            seq_cmd_latency: SimDuration::from_micros(9),
            write_penalty: SimDuration::from_micros(12),
            bandwidth_bytes_per_sec: 5_000_000_000,
            max_iops: 800_000,
            jitter_frac: 0.04,
            seed: 0x5EED_4E13,
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::micron_5300()
    }
}

/// Deterministic flash SSD model. See the crate docs for the model
/// structure (channels, shared interface bus, IOPS pacer).
///
/// # Examples
///
/// ```
/// use snapbpf_sim::SimTime;
/// use snapbpf_storage::{BlockAddr, BlockDevice, IoRequest, SsdModel};
///
/// let mut ssd = SsdModel::micron_5300();
/// let c = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), 32));
/// assert!(c.done_at > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct SsdModel {
    config: SsdConfig,
    channel_free: Vec<SimTime>,
    /// When the shared host interface is next free for a transfer.
    bus_free: SimTime,
    pacer: Pacer,
    last_end: Option<BlockAddr>,
    rng: SplitMix64,
}

impl SsdModel {
    /// Creates an SSD from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.channels` is zero or the bandwidth is zero.
    pub fn new(config: SsdConfig) -> Self {
        assert!(config.channels > 0, "SSD needs at least one channel");
        assert!(
            config.bandwidth_bytes_per_sec > 0,
            "SSD bandwidth must be positive"
        );
        SsdModel {
            channel_free: vec![SimTime::ZERO; config.channels],
            bus_free: SimTime::ZERO,
            pacer: Pacer::new(config.max_iops),
            last_end: None,
            rng: SplitMix64::new(config.seed),
            config,
        }
    }

    /// The paper's testbed SSD ([`SsdConfig::micron_5300`]).
    pub fn micron_5300() -> Self {
        SsdModel::new(SsdConfig::micron_5300())
    }

    /// A fast NVMe device ([`SsdConfig::nvme`]).
    pub fn nvme() -> Self {
        SsdModel::new(SsdConfig::nvme())
    }

    /// The configuration this device was built from.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.bandwidth_bytes_per_sec as f64)
    }

    /// Per-command setup time (channel-parallel part), with jitter.
    fn setup_time(&mut self, req: &IoRequest, sequential: bool) -> SimDuration {
        let mut t = if sequential {
            self.config.seq_cmd_latency
        } else {
            self.config.random_cmd_latency
        };
        if req.kind == IoKind::Write {
            t += self.config.write_penalty;
        }
        if self.config.jitter_frac > 0.0 {
            let mean = t.as_nanos() as f64;
            let jittered = self
                .rng
                .next_gaussian(mean, mean * self.config.jitter_frac)
                .max(mean * 0.5);
            t = SimDuration::from_nanos(jittered as u64);
        }
        t
    }
}

impl BlockDevice for SsdModel {
    fn submit(&mut self, now: SimTime, req: IoRequest) -> IoCompletion {
        let sequential = self.last_end == Some(req.addr);
        self.last_end = Some(req.end());

        // Earliest-free channel; ties resolve to the lowest index,
        // keeping the model deterministic.
        let (idx, &free) = self
            .channel_free
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .expect("at least one channel");

        let started_at = self.pacer.admit(now.max(free));
        let setup = self.setup_time(&req, sequential);
        // The data transfer serializes on the shared interface bus.
        let bus_start = (started_at + setup).max(self.bus_free);
        let done_at = bus_start + self.transfer_time(req.bytes());
        self.bus_free = done_at;
        self.channel_free[idx] = done_at;

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
        self.channel_free
            .iter()
            .copied()
            .min()
            .unwrap_or(SimTime::ZERO)
            .max(now)
    }

    fn reset(&mut self) {
        for t in &mut self.channel_free {
            *t = SimTime::ZERO;
        }
        self.bus_free = SimTime::ZERO;
        self.pacer.reset();
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

    fn no_jitter(mut cfg: SsdConfig) -> SsdConfig {
        cfg.jitter_frac = 0.0;
        cfg
    }

    #[test]
    fn sequential_reads_are_cheaper_than_random() {
        let mut ssd = SsdModel::new(no_jitter(SsdConfig::micron_5300()));
        // Warm up so the first request's randomness doesn't skew.
        ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), 1));
        let seq = ssd.submit(
            SimTime::from_millis(10),
            IoRequest::read(BlockAddr::new(1), 1),
        );
        let rand = ssd.submit(
            SimTime::from_millis(20),
            IoRequest::read(BlockAddr::new(500), 1),
        );
        let seq_lat = seq.done_at.saturating_since(seq.started_at);
        let rand_lat = rand.done_at.saturating_since(rand.started_at);
        assert!(seq.sequential);
        assert!(!rand.sequential);
        assert!(
            seq_lat < rand_lat,
            "sequential {seq_lat} should beat random {rand_lat}"
        );
    }

    #[test]
    fn random_reads_overlap_across_channels() {
        // 8 concurrent random reads should take far less than 8x one
        // read: that is the paper's core storage insight.
        let cfg = no_jitter(SsdConfig::micron_5300());
        let one_latency = cfg.random_cmd_latency;
        let mut ssd = SsdModel::new(cfg);
        let mut last_done = SimTime::ZERO;
        for i in 0..8 {
            let c = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(i * 1000), 1));
            last_done = last_done.max(c.done_at);
        }
        let total = last_done.saturating_since(SimTime::ZERO);
        assert!(
            total < one_latency * 3,
            "8 parallel random reads took {total}, expected < 3x single-cmd latency"
        );
    }

    #[test]
    fn iops_ceiling_paces_small_requests() {
        let mut cfg = no_jitter(SsdConfig::micron_5300());
        cfg.max_iops = 1000; // 1 ms between command starts
        cfg.channels = 64;
        let mut ssd = SsdModel::new(cfg);
        let mut last_start = SimTime::ZERO;
        for i in 0..10 {
            let c = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(i * 7919), 1));
            if i > 0 {
                assert!(
                    c.started_at.saturating_since(last_start) >= SimDuration::from_millis(1),
                    "pacing violated"
                );
            }
            last_start = c.started_at;
        }
    }

    #[test]
    fn large_requests_are_bandwidth_bound() {
        let cfg = no_jitter(SsdConfig::micron_5300());
        let mut ssd = SsdModel::new(cfg.clone());
        // 64 MiB read: transfer ~124 ms at 540 MB/s dominates setup.
        let blocks = 64 * 1024 * 1024 / 4096;
        let c = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), blocks));
        let lat = c.done_at.saturating_since(SimTime::ZERO);
        let expected = 64.0 * 1024.0 * 1024.0 / cfg.bandwidth_bytes_per_sec as f64;
        let got = lat.as_secs_f64();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "expected ~{expected}s got {got}s"
        );
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let mut ssd = SsdModel::new(no_jitter(SsdConfig::micron_5300()));
        let r = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(100), 1));
        let mut ssd2 = SsdModel::new(no_jitter(SsdConfig::micron_5300()));
        let w = ssd2.submit(SimTime::ZERO, IoRequest::write(BlockAddr::new(100), 1));
        assert!(w.done_at > r.done_at);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut ssd = SsdModel::micron_5300();
            (0..100)
                .map(|i| {
                    ssd.submit(
                        SimTime::from_micros(i),
                        IoRequest::read(BlockAddr::new(i * 37 % 4096), 1),
                    )
                    .done_at
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut ssd = SsdModel::micron_5300();
        let first = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(5), 2));
        ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(900), 2));
        ssd.reset();
        let again = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(5), 2));
        assert_eq!(first, again);
    }

    #[test]
    fn next_free_reflects_queue_pressure() {
        let mut cfg = no_jitter(SsdConfig::micron_5300());
        cfg.channels = 1;
        let mut ssd = SsdModel::new(cfg);
        assert_eq!(ssd.next_free(SimTime::ZERO), SimTime::ZERO);
        let c = ssd.submit(SimTime::ZERO, IoRequest::read(BlockAddr::new(0), 8));
        assert_eq!(ssd.next_free(SimTime::ZERO), c.done_at);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let mut cfg = SsdConfig::micron_5300();
        cfg.channels = 0;
        SsdModel::new(cfg);
    }
}
