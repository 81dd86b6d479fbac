//! Deterministic arrival processes.
//!
//! Serverless fleet experiments need request arrivals whose shape is
//! controllable (smooth vs. bursty vs. trace-like) but whose exact
//! sequence is a pure function of the seed, so two runs of the same
//! configuration see bit-identical arrival times.
//!
//! The synthetic process is [`ArrivalProcess::Poisson`]: memoryless
//! arrivals at a fixed rate, the classic open-loop load model.
//!
//! [`TraceArrival`] replays an explicit recorded schedule — a sorted
//! list of (offset, function) points — with loop, time-scale, and
//! rate-scale controls, and [`ComposedArrivals`] layers diurnal and
//! burst traffic over either. [`ArrivalSource`] is the closed enum
//! run configurations store, so experiment code accepts recorded or
//! trace-derived workloads anywhere synthetic ones work.

use std::sync::Arc;

use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};

/// A stochastic arrival process specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential interarrivals at `rate_rps`
    /// requests per (virtual) second.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate in requests per second.
    pub fn mean_rate_rps(&self) -> f64 {
        let ArrivalProcess::Poisson { rate_rps } = *self;
        rate_rps
    }

    /// Checks the parameter [`ArrivalProcess::generator`] needs: a
    /// positive rate (NaN is not).
    ///
    /// # Errors
    ///
    /// The violated condition, as a message.
    pub fn check(&self) -> Result<(), &'static str> {
        let ArrivalProcess::Poisson { rate_rps } = *self;
        (rate_rps > 0.0)
            .then_some(())
            .ok_or("Poisson rate must be positive")
    }

    /// Starts generating this process from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalProcess::check`] rejects the process.
    pub fn generator(&self, seed: u64) -> ArrivalGen {
        self.check().unwrap_or_else(|msg| panic!("{msg}"));
        ArrivalGen {
            process: *self,
            rng: SplitMix64::new(seed),
            next_at: SimTime::ZERO,
        }
    }

    /// All arrivals strictly before `horizon` (measured from time
    /// zero), in time order; none pins a function. A pure function
    /// of `(self, seed, horizon)`.
    pub fn draw(&self, seed: u64, horizon: SimDuration) -> Vec<Arrival> {
        self.generator(seed)
            .take_until(SimTime::ZERO + horizon)
            .into_iter()
            .map(|at| Arrival { at, func: None })
            .collect()
    }
}

/// Draws an exponential variate with the given mean (in seconds).
fn exp_secs(rng: &mut SplitMix64, mean_secs: f64) -> f64 {
    // next_f64() is in [0, 1); flip to (0, 1] so ln() is finite.
    let u = 1.0 - rng.next_f64();
    -u.ln() * mean_secs
}

/// A deterministic arrival-time generator (see [`ArrivalProcess`]).
///
/// Yields strictly ordered `SimTime`s starting after time zero. The
/// sequence depends only on the process parameters and the seed.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    next_at: SimTime,
}

impl ArrivalGen {
    /// The next arrival time.
    pub fn next_arrival(&mut self) -> SimTime {
        let ArrivalProcess::Poisson { rate_rps } = self.process;
        let gap = SimDuration::from_secs_f64(exp_secs(&mut self.rng, 1.0 / rate_rps));
        self.next_at += gap.max(SimDuration::from_nanos(1));
        self.next_at
    }

    /// All arrivals strictly before `horizon`, in order.
    pub fn take_until(&mut self, horizon: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival();
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

/// One scheduled request: an absolute arrival time plus, for
/// replayed traces, the function index it targets. Synthetic
/// processes leave `func` unset and let the run's popularity mix
/// pick a function per arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// Absolute (virtual) arrival time.
    pub at: SimTime,
    /// Function index, if the schedule pins one.
    pub func: Option<u32>,
}

/// One point of a recorded schedule: an offset from the start of the
/// trace plus the function index invoked there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TracePoint {
    /// Offset from the start of the trace.
    pub offset: SimDuration,
    /// Function index invoked at this point.
    pub func: u32,
}

/// How many passes a [`TraceArrival`] replay makes over its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopMode {
    /// Play the trace once.
    Once,
    /// Play the trace back to back the given number of times
    /// (must be at least 1; `Repeat(1)` equals `Once`).
    Repeat(u32),
}

impl LoopMode {
    /// Number of passes this mode makes.
    pub fn passes(&self) -> u32 {
        match *self {
            LoopMode::Once => 1,
            LoopMode::Repeat(n) => n,
        }
    }
}

/// A replayable recorded arrival schedule.
///
/// Holds a sorted list of [`TracePoint`]s plus the nominal span of
/// one pass, and replays them deterministically with three controls:
///
/// * **loop mode** — play the trace once or `N` times back to back,
/// * **time scale** — stretch (`> 1`) or compress (`< 1`) every
///   offset, e.g. to squeeze a day-long production trace into a
///   seconds-long virtual run while preserving its shape,
/// * **rate scale** — replicate (`> 1`) or thin (`< 1`) each point.
///   Fractional factors are resolved by a seeded coin flip per
///   point, so the scaled schedule is still a pure function of the
///   seed. At exactly `1.0` no randomness is consumed and the replay
///   reproduces the recorded sequence verbatim.
///
/// The points are behind an [`Arc`], so cloning a `TraceArrival`
/// (run configurations are cloned freely) never copies the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArrival {
    points: Arc<[TracePoint]>,
    span: SimDuration,
    loops: LoopMode,
    time_scale: f64,
    rate_scale: f64,
}

impl TraceArrival {
    /// Builds a trace from recorded points and the nominal span of
    /// one pass. Points are sorted by (offset, func); the span is
    /// widened if any point lies at or past it, so a pass always
    /// strictly contains its points.
    pub fn new(mut points: Vec<TracePoint>, span: SimDuration) -> TraceArrival {
        points.sort_unstable();
        let span = match points.last() {
            Some(last) => span.max(last.offset + SimDuration::from_nanos(1)),
            None => span.max(SimDuration::from_nanos(1)),
        };
        TraceArrival {
            points: points.into(),
            span,
            loops: LoopMode::Once,
            time_scale: 1.0,
            rate_scale: 1.0,
        }
    }

    /// Sets the loop mode.
    ///
    /// # Panics
    ///
    /// Panics on `Repeat(0)` — a replay makes at least one pass.
    #[must_use]
    pub fn looped(mut self, loops: LoopMode) -> TraceArrival {
        assert!(loops.passes() >= 1, "replay must make at least one pass");
        self.loops = loops;
        self
    }

    /// Sets the time-scale factor (`< 1` compresses, `> 1`
    /// stretches).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    #[must_use]
    pub fn with_time_scale(mut self, factor: f64) -> TraceArrival {
        assert!(
            factor.is_finite() && factor > 0.0,
            "time scale must be finite and positive"
        );
        self.time_scale = factor;
        self
    }

    /// Sets the rate-scale factor (`> 1` replicates points, `< 1`
    /// thins them, `0` empties the schedule).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and non-negative.
    #[must_use]
    pub fn with_rate_scale(mut self, factor: f64) -> TraceArrival {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "rate scale must be finite and non-negative"
        );
        self.rate_scale = factor;
        self
    }

    /// The sorted points of one pass.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of points in one pass.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether one pass holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Nominal (unscaled) span of one pass.
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// Number of passes the configured loop mode makes.
    pub fn passes(&self) -> u32 {
        self.loops.passes()
    }

    /// The largest function index any point names.
    pub fn max_func(&self) -> Option<u32> {
        self.points.iter().map(|p| p.func).max()
    }

    /// Total replay duration: the time-scaled span times the number
    /// of passes. The natural run horizon for a full replay.
    pub fn total_duration(&self) -> SimDuration {
        self.scaled_span() * u64::from(self.passes())
    }

    fn scaled_span(&self) -> SimDuration {
        SimDuration::from_nanos(self.scale_ns(self.span.as_nanos()).max(1))
    }

    fn scale_ns(&self, ns: u64) -> u64 {
        if self.time_scale == 1.0 {
            ns // exact: replay offsets match the recording bit for bit
        } else {
            (ns as f64 * self.time_scale).round() as u64
        }
    }

    /// Long-run mean arrival rate in requests per (virtual) second.
    pub fn mean_rate_rps(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.len() as f64 * self.rate_scale / self.scaled_span().as_secs_f64()
    }

    /// All arrivals strictly before `horizon`, in time order; a pure
    /// function of `(self, seed, horizon)`.
    pub fn draw(&self, seed: u64, horizon: SimDuration) -> Vec<Arrival> {
        let horizon_ns = horizon.as_nanos();
        let span_ns = self.scaled_span().as_nanos();
        let whole = self.rate_scale.trunc() as u64;
        let frac = self.rate_scale.fract();
        // Per-point replication coin flips; untouched when the rate
        // scale has no fractional part, so an unscaled replay is
        // seed-independent and byte-identical to the recording.
        let mut rng = SplitMix64::new(seed ^ 0x7E61_C3A9_5EED_F00D);
        let mut out = Vec::new();
        'passes: for pass in 0..u64::from(self.passes()) {
            let Some(base) = pass.checked_mul(span_ns).filter(|b| *b < horizon_ns) else {
                break;
            };
            for p in self.points.iter() {
                let at = base + self.scale_ns(p.offset.as_nanos());
                if at >= horizon_ns {
                    // Offsets are sorted and each pass starts past
                    // the previous one, so nothing later fits either.
                    break 'passes;
                }
                let mut copies = whole;
                if frac > 0.0 && rng.next_f64() < frac {
                    copies += 1;
                }
                let arrival = Arrival {
                    at: SimTime::ZERO + SimDuration::from_nanos(at),
                    func: Some(p.func),
                };
                for _ in 0..copies {
                    out.push(arrival);
                }
            }
        }
        out
    }
}

/// One burst layer of a [`ComposedArrivals`] schedule: extra Poisson
/// arrivals at `rate_rps` over `[start, start + duration)`,
/// optionally pinned to a single function.
///
/// With `func: None` the burst is a *flash crowd* — extra mixed
/// traffic the run's popularity mix spreads over every function.
/// With `func: Some(i)` it is a *hot-function storm* — the
/// DDoS-like shape where one function suddenly dominates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstOverlay {
    /// Offset of the burst's start from the run's start.
    pub start: SimDuration,
    /// How long the burst lasts.
    pub duration: SimDuration,
    /// Extra arrival rate during the burst, requests per second.
    pub rate_rps: f64,
    /// Function index every burst arrival targets, or `None` to let
    /// the run's function mix pick per arrival.
    pub func: Option<u32>,
}

/// Seed salt for the diurnal-layer slices of a composed schedule.
const DIURNAL_SALT: u64 = 0xD1A1_0C4E_5EED_0001;
/// Seed salt for the burst overlays of a composed schedule.
const BURST_SALT: u64 = 0xB0B5_7F1A_5EED_0002;
/// Per-index seed spreading (the SplitMix64 increment).
const SLICE_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A day-scale composition over any base schedule: the base arrivals
/// drawn verbatim, plus a piecewise-constant *diurnal* Poisson layer
/// (one rate multiplier per equal slice of the horizon) and any
/// number of [`BurstOverlay`]s.
///
/// The layers are additive, so composition works identically over a
/// synthetic process and a recorded trace replay — the base sequence
/// is preserved bit for bit and every layer draws from its own
/// salted seed. The merged schedule is a pure function of
/// `(self, seed, horizon)` like every other schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedArrivals {
    base: Box<ArrivalSource>,
    /// Per-slice rate multipliers of the diurnal layer (empty: no
    /// diurnal layer). Slice `i` of the horizon gets extra Poisson
    /// arrivals at `curve_rate_rps * curve[i]`.
    curve: Vec<f64>,
    curve_rate_rps: f64,
    overlays: Vec<BurstOverlay>,
}

impl ComposedArrivals {
    /// Starts a composition over `base` with no extra layers.
    pub fn over(base: impl Into<ArrivalSource>) -> ComposedArrivals {
        ComposedArrivals {
            base: Box::new(base.into()),
            curve: Vec::new(),
            curve_rate_rps: 0.0,
            overlays: Vec::new(),
        }
    }

    /// A named 24-slice diurnal shape: night trough, morning ramp,
    /// midday peak, and a smaller evening peak — the canonical
    /// production day the Azure trace analyses report. Values are
    /// rate multipliers with peak 1.0.
    pub fn day_curve() -> Vec<f64> {
        vec![
            0.15, 0.10, 0.08, 0.08, 0.10, 0.18, // 00-06: night trough
            0.35, 0.60, 0.85, 1.00, 0.95, 0.90, // 06-12: ramp to peak
            0.85, 0.80, 0.75, 0.70, 0.72, 0.78, // 12-18: afternoon
            0.85, 0.80, 0.65, 0.45, 0.30, 0.20, // 18-24: evening decay
        ]
    }

    /// Adds the diurnal layer: slice `i` of the horizon (there are
    /// `curve.len()` equal slices) gets extra Poisson arrivals at
    /// `rate_rps * curve[i]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty curve, a negative multiplier, or a
    /// non-finite or negative rate.
    #[must_use]
    pub fn with_diurnal(mut self, rate_rps: f64, curve: Vec<f64>) -> ComposedArrivals {
        assert!(
            !curve.is_empty(),
            "a diurnal curve needs at least one slice"
        );
        assert!(
            curve.iter().all(|m| m.is_finite() && *m >= 0.0),
            "diurnal multipliers must be finite and non-negative"
        );
        assert!(
            rate_rps.is_finite() && rate_rps >= 0.0,
            "diurnal rate must be finite and non-negative"
        );
        self.curve = curve;
        self.curve_rate_rps = rate_rps;
        self
    }

    /// Adds a flash-crowd burst: extra mixed traffic at `rate_rps`
    /// over `[start, start + duration)`.
    #[must_use]
    pub fn with_flash_crowd(
        self,
        start: SimDuration,
        duration: SimDuration,
        rate_rps: f64,
    ) -> ComposedArrivals {
        self.with_overlay(BurstOverlay {
            start,
            duration,
            rate_rps,
            func: None,
        })
    }

    /// Adds a hot-function storm: burst traffic pinned to `func`.
    #[must_use]
    pub fn with_hot_storm(
        self,
        start: SimDuration,
        duration: SimDuration,
        rate_rps: f64,
        func: u32,
    ) -> ComposedArrivals {
        self.with_overlay(BurstOverlay {
            start,
            duration,
            rate_rps,
            func: Some(func),
        })
    }

    /// Adds an arbitrary burst overlay.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative burst rate.
    #[must_use]
    pub fn with_overlay(mut self, overlay: BurstOverlay) -> ComposedArrivals {
        assert!(
            overlay.rate_rps.is_finite() && overlay.rate_rps >= 0.0,
            "burst rate must be finite and non-negative"
        );
        self.overlays.push(overlay);
        self
    }

    /// The schedule the composition layers on top of.
    pub fn base(&self) -> &ArrivalSource {
        &self.base
    }

    /// The burst overlays, in the order they were added.
    pub fn overlays(&self) -> &[BurstOverlay] {
        &self.overlays
    }

    /// The largest function index any burst overlay pins (`None`
    /// when every layer leaves the function to the run's mix). Run
    /// validation checks this against the workload count.
    pub fn max_pinned_func(&self) -> Option<u32> {
        self.overlays.iter().filter_map(|o| o.func).max()
    }

    /// Draws one additive Poisson layer over `[start, start + len)`.
    fn draw_layer(seed: u64, rate_rps: f64, start: SimDuration, len: SimDuration) -> Vec<SimTime> {
        if rate_rps <= 0.0 || len.is_zero() {
            return Vec::new();
        }
        ArrivalProcess::Poisson { rate_rps }
            .generator(seed)
            .take_until(SimTime::ZERO + len)
            .into_iter()
            .map(|t| t + start)
            .collect()
    }

    /// Long-run mean rate: the base's mean plus the diurnal layer's
    /// average. Burst overlays are transient (their windows are
    /// fixed offsets, not horizon fractions), so they are excluded
    /// from the long-run figure.
    pub fn mean_rate_rps(&self) -> f64 {
        let curve_mean = if self.curve.is_empty() {
            0.0
        } else {
            self.curve_rate_rps * self.curve.iter().sum::<f64>() / self.curve.len() as f64
        };
        self.base.mean_rate_rps() + curve_mean
    }

    /// The base arrivals plus every layer's, strictly before
    /// `horizon`, in time order.
    pub fn draw(&self, seed: u64, horizon: SimDuration) -> Vec<Arrival> {
        let mut out = self.base.draw(seed, horizon);
        let slices = self.curve.len() as u64;
        for (i, &mult) in self.curve.iter().enumerate() {
            let slice_len = SimDuration::from_nanos(horizon.as_nanos() / slices.max(1));
            let start = SimDuration::from_nanos(slice_len.as_nanos() * i as u64);
            let slice_seed = seed ^ DIURNAL_SALT ^ (i as u64).wrapping_mul(SLICE_GAMMA);
            for at in Self::draw_layer(slice_seed, self.curve_rate_rps * mult, start, slice_len) {
                out.push(Arrival { at, func: None });
            }
        }
        for (j, overlay) in self.overlays.iter().enumerate() {
            if overlay.start >= horizon {
                continue;
            }
            let len = overlay.duration.min(horizon.saturating_sub(overlay.start));
            let burst_seed = seed ^ BURST_SALT ^ (j as u64).wrapping_mul(SLICE_GAMMA);
            for at in Self::draw_layer(burst_seed, overlay.rate_rps, overlay.start, len) {
                out.push(Arrival {
                    at,
                    func: overlay.func,
                });
            }
        }
        // Stable by time: layers interleave deterministically (base
        // first, then diurnal slices, then overlays, in order).
        out.sort_by_key(|a| a.at);
        out
    }
}

/// The arrival schedule of a run: a synthetic process, a recorded
/// trace, or a day-scale composition over either. Run configurations
/// store this, so recorded workloads plug in anywhere synthetic ones
/// work.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSource {
    /// A synthetic stochastic process.
    Process(ArrivalProcess),
    /// A recorded trace replay.
    Trace(TraceArrival),
    /// A diurnal/burst composition over another source.
    Composed(ComposedArrivals),
}

impl ArrivalSource {
    /// The recorded trace, if this source replays one (composed
    /// sources answer for their base).
    pub fn trace(&self) -> Option<&TraceArrival> {
        match self {
            ArrivalSource::Process(_) => None,
            ArrivalSource::Trace(t) => Some(t),
            ArrivalSource::Composed(c) => c.base().trace(),
        }
    }

    /// The synthetic process, if this source draws from one
    /// (composed sources answer for their base).
    pub fn process(&self) -> Option<&ArrivalProcess> {
        match self {
            ArrivalSource::Process(p) => Some(p),
            ArrivalSource::Trace(_) => None,
            ArrivalSource::Composed(c) => c.base().process(),
        }
    }

    /// The composition, if this source is one.
    pub fn composed(&self) -> Option<&ComposedArrivals> {
        match self {
            ArrivalSource::Composed(c) => Some(c),
            _ => None,
        }
    }

    /// Long-run mean arrival rate in requests per second.
    pub fn mean_rate_rps(&self) -> f64 {
        match self {
            ArrivalSource::Process(p) => p.mean_rate_rps(),
            ArrivalSource::Trace(t) => t.mean_rate_rps(),
            ArrivalSource::Composed(c) => c.mean_rate_rps(),
        }
    }

    /// All arrivals strictly before `horizon`, in time order; two
    /// calls with identical arguments return identical schedules.
    pub fn draw(&self, seed: u64, horizon: SimDuration) -> Vec<Arrival> {
        match self {
            ArrivalSource::Process(p) => p.draw(seed, horizon),
            ArrivalSource::Trace(t) => t.draw(seed, horizon),
            ArrivalSource::Composed(c) => c.draw(seed, horizon),
        }
    }
}

impl From<ArrivalProcess> for ArrivalSource {
    fn from(p: ArrivalProcess) -> ArrivalSource {
        ArrivalSource::Process(p)
    }
}

impl From<TraceArrival> for ArrivalSource {
    fn from(t: TraceArrival) -> ArrivalSource {
        ArrivalSource::Trace(t)
    }
}

impl From<ComposedArrivals> for ArrivalSource {
    fn from(c: ComposedArrivals) -> ArrivalSource {
        ArrivalSource::Composed(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: SimDuration = SimDuration::from_secs(1);

    #[test]
    fn poisson_hits_its_mean_rate() {
        let p = ArrivalProcess::Poisson { rate_rps: 100.0 };
        let arrivals = p.generator(7).take_until(SimTime::ZERO + SEC * 50);
        let rate = arrivals.len() as f64 / 50.0;
        assert!((rate - 100.0).abs() < 5.0, "measured {rate} rps");
    }

    #[test]
    fn generators_are_deterministic() {
        let p = ArrivalProcess::Poisson { rate_rps: 30.0 };
        let a = p.generator(42).take_until(SimTime::ZERO + SEC * 10);
        let b = p.generator(42).take_until(SimTime::ZERO + SEC * 10);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ordered arrivals");
    }

    #[test]
    fn different_seeds_differ() {
        let p = ArrivalProcess::Poisson { rate_rps: 50.0 };
        let a = p.generator(1).take_until(SimTime::ZERO + SEC * 2);
        let b = p.generator(2).take_until(SimTime::ZERO + SEC * 2);
        assert_ne!(a, b);
    }

    fn tiny_trace() -> TraceArrival {
        TraceArrival::new(
            vec![
                TracePoint {
                    offset: SimDuration::from_millis(5),
                    func: 1,
                },
                TracePoint {
                    offset: SimDuration::from_millis(1),
                    func: 0,
                },
                TracePoint {
                    offset: SimDuration::from_millis(9),
                    func: 2,
                },
            ],
            SimDuration::from_millis(10),
        )
    }

    #[test]
    fn trace_points_are_sorted_and_span_contains_them() {
        let t = tiny_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.points()[0].func, 0);
        assert_eq!(t.points()[2].func, 2);
        assert_eq!(t.span(), SimDuration::from_millis(10));
        assert_eq!(t.max_func(), Some(2));
        // A point at the span edge widens the span past it.
        let edge = TraceArrival::new(
            vec![TracePoint {
                offset: SimDuration::from_millis(10),
                func: 0,
            }],
            SimDuration::from_millis(10),
        );
        assert!(edge.span() > SimDuration::from_millis(10));
    }

    #[test]
    fn trace_replay_is_verbatim_and_seed_independent() {
        let t = tiny_trace();
        let a = t.draw(1, SimDuration::from_millis(10));
        let b = t.draw(99, SimDuration::from_millis(10));
        assert_eq!(a, b, "unscaled replay must not consume randomness");
        assert_eq!(
            a.iter()
                .map(|r| (r.at.as_nanos(), r.func))
                .collect::<Vec<_>>(),
            vec![
                (1_000_000, Some(0)),
                (5_000_000, Some(1)),
                (9_000_000, Some(2)),
            ]
        );
    }

    #[test]
    fn trace_loop_modes_tile_the_span() {
        let t = tiny_trace().looped(LoopMode::Repeat(3));
        assert_eq!(t.passes(), 3);
        assert_eq!(t.total_duration(), SimDuration::from_millis(30));
        let arrivals = t.draw(7, t.total_duration());
        assert_eq!(arrivals.len(), 9);
        // Second pass is the first shifted by one span.
        assert_eq!(
            arrivals[3].at.as_nanos(),
            arrivals[0].at.as_nanos() + SimDuration::from_millis(10).as_nanos()
        );
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        // A shorter horizon truncates the tail.
        let cut = t.draw(7, SimDuration::from_millis(15));
        assert_eq!(cut.len(), 4);
    }

    #[test]
    fn trace_time_scale_stretches_offsets() {
        let t = tiny_trace().with_time_scale(2.0);
        let arrivals = t.draw(3, t.total_duration());
        assert_eq!(arrivals[0].at.as_nanos(), 2_000_000);
        assert_eq!(t.total_duration(), SimDuration::from_millis(20));
        let compressed = tiny_trace().with_time_scale(0.5);
        assert_eq!(
            compressed.draw(3, compressed.total_duration())[2]
                .at
                .as_nanos(),
            4_500_000
        );
    }

    #[test]
    fn trace_rate_scale_replicates_and_thins_deterministically() {
        let t = tiny_trace().looped(LoopMode::Repeat(40));
        let doubled = t.clone().with_rate_scale(2.0);
        assert_eq!(
            doubled.draw(5, doubled.total_duration()).len(),
            2 * t.draw(5, t.total_duration()).len()
        );
        let halved = t.clone().with_rate_scale(0.5);
        let a = halved.draw(5, halved.total_duration());
        let b = halved.draw(5, halved.total_duration());
        assert_eq!(a, b, "fractional thinning must be deterministic");
        let n = a.len();
        assert!((30..=90).contains(&n), "half rate kept {n} of 120");
        assert!(halved.draw(6, halved.total_duration()).len() != n || n == 60);
        assert!(t
            .clone()
            .with_rate_scale(0.0)
            .draw(5, t.total_duration())
            .is_empty());
    }

    #[test]
    fn process_draw_matches_its_generator() {
        let p = ArrivalProcess::Poisson { rate_rps: 40.0 };
        let drawn = p.draw(11, SEC * 5);
        let direct = p.generator(11).take_until(SimTime::ZERO + SEC * 5);
        assert!(drawn.iter().all(|a| a.func.is_none()));
        assert_eq!(drawn.iter().map(|a| a.at).collect::<Vec<_>>(), direct);
    }

    #[test]
    fn arrival_source_delegates() {
        let src: ArrivalSource = ArrivalProcess::Poisson { rate_rps: 25.0 }.into();
        assert_eq!(src.mean_rate_rps(), 25.0);
        assert!(src.trace().is_none());
        let trace: ArrivalSource = tiny_trace().into();
        assert!(trace.trace().is_some());
        assert_eq!(trace.draw(1, SimDuration::from_millis(10)).len(), 3);
        // 3 points in 10 ms = 300 rps.
        assert!((trace.mean_rate_rps() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn composed_schedule_is_deterministic_and_ordered() {
        let c = ComposedArrivals::over(ArrivalProcess::Poisson { rate_rps: 20.0 })
            .with_diurnal(40.0, ComposedArrivals::day_curve())
            .with_flash_crowd(SEC * 2, SEC, 300.0)
            .with_hot_storm(SEC * 4, SEC, 200.0, 1);
        let a = c.draw(42, SEC * 8);
        let b = c.draw(42, SEC * 8);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert_ne!(a, c.draw(43, SEC * 8), "seed changes the layers");
        assert_eq!(c.max_pinned_func(), Some(1));
    }

    #[test]
    fn composed_layers_are_additive_over_the_base() {
        let base = ArrivalProcess::Poisson { rate_rps: 10.0 };
        let plain: Vec<SimTime> = base.draw(7, SEC * 4).iter().map(|a| a.at).collect();
        let c = ComposedArrivals::over(base).with_flash_crowd(SEC, SEC, 150.0);
        let composed = c.draw(7, SEC * 4);
        // Every base arrival survives composition verbatim.
        let times: Vec<SimTime> = composed.iter().map(|a| a.at).collect();
        for t in &plain {
            assert!(times.contains(t), "base arrival at {t:?} dropped");
        }
        // The burst window carries visibly more traffic than an
        // equal-length window outside it.
        let in_window = |lo: SimDuration, hi: SimDuration| {
            composed
                .iter()
                .filter(|a| a.at >= SimTime::ZERO + lo && a.at < SimTime::ZERO + hi)
                .count()
        };
        assert!(
            in_window(SEC, SEC * 2) > 3 * in_window(SEC * 3, SEC * 4),
            "flash crowd must dominate its window"
        );
    }

    #[test]
    fn hot_storm_pins_its_function_and_flash_crowd_does_not() {
        let c = ComposedArrivals::over(ArrivalProcess::Poisson { rate_rps: 5.0 })
            .with_flash_crowd(SimDuration::ZERO, SEC, 100.0)
            .with_hot_storm(SimDuration::ZERO, SEC, 100.0, 3);
        let arrivals = c.draw(11, SEC);
        let pinned = arrivals.iter().filter(|a| a.func == Some(3)).count();
        let mixed = arrivals.iter().filter(|a| a.func.is_none()).count();
        assert!(pinned > 50, "storm arrivals pin func 3, got {pinned}");
        assert!(mixed > 50, "base + crowd stay mix-driven, got {mixed}");
        assert!(arrivals
            .iter()
            .all(|a| a.func.is_none() || a.func == Some(3)));
    }

    #[test]
    fn diurnal_curve_shapes_the_day() {
        let c = ComposedArrivals::over(ArrivalProcess::Poisson { rate_rps: 1.0 })
            .with_diurnal(600.0, ComposedArrivals::day_curve());
        let horizon = SEC * 24; // one "hour" per second
        let arrivals = c.draw(9, horizon);
        let hour = |h: u64| {
            arrivals
                .iter()
                .filter(|a| a.at >= SimTime::ZERO + SEC * h && a.at < SimTime::ZERO + SEC * (h + 1))
                .count()
        };
        // Midday peak (slice 9, mult 1.0) over the 03:00 trough
        // (slice 3, mult 0.08).
        assert!(
            hour(9) > 4 * hour(3),
            "peak {} vs trough {}",
            hour(9),
            hour(3)
        );
    }

    #[test]
    fn composition_over_a_trace_keeps_the_recording() {
        let c = ComposedArrivals::over(tiny_trace()).with_hot_storm(
            SimDuration::ZERO,
            SimDuration::from_millis(10),
            1000.0,
            0,
        );
        let src: ArrivalSource = c.into();
        assert!(
            src.trace().is_some(),
            "composed source exposes its base trace"
        );
        let arrivals = src.draw(5, SimDuration::from_millis(10));
        let recorded: Vec<_> = arrivals
            .iter()
            .filter(|a| a.func.is_some())
            .map(|a| (a.at.as_nanos(), a.func))
            .collect();
        assert!(recorded.contains(&(1_000_000, Some(0))));
        assert!(recorded.contains(&(5_000_000, Some(1))));
        assert!(recorded.contains(&(9_000_000, Some(2))));
        assert!(src.composed().is_some());
        // Mean rate folds base + diurnal average (none here).
        assert!((src.composed().unwrap().base().mean_rate_rps() - 300.0).abs() < 1e-9);
    }
}
