//! Recording fleet and cluster runs into profiles.
//!
//! The fleet scheduler emits a `fleet`/`arrival` instant for every
//! admitted request, carrying the function index and the arrival's
//! offset from the invocation-phase start. [`ArrivalCapture`] is a
//! [`TraceSink`] that keeps exactly those two numbers per arrival
//! and discards everything else, so [`record_fleet`] adds O(arrivals)
//! memory — not O(trace events) — and, because tracing never
//! perturbs the simulation, the recorded run's [`FleetResult`] is
//! identical to an untraced one. [`record_cluster`] keeps the same
//! points but not the same bound (see its docs).

use std::cell::RefCell;
use std::rc::Rc;

use snapbpf::StrategyError;
use snapbpf_fleet::{ClusterResult, FleetConfig, FleetResult, Runner};
use snapbpf_sim::{SimDuration, TraceEvent, TracePoint, TraceSink, TraceValue, Tracer};
use snapbpf_workloads::Workload;

use crate::profile::{FuncMeta, Profile};

/// A [`TraceSink`] retaining only the arrival schedule of a run.
#[derive(Debug, Default)]
struct CaptureSink {
    points: Rc<RefCell<Vec<TracePoint>>>,
}

impl TraceSink for CaptureSink {
    fn record(&mut self, event: TraceEvent) {
        if event.cat != "fleet" || event.name != "arrival" {
            return;
        }
        let arg = |key: &str| {
            event.args.iter().find_map(|(k, v)| match v {
                TraceValue::U64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        if let (Some(func), Some(offset_ns)) = (arg("func"), arg("offset_ns")) {
            self.points.borrow_mut().push(TracePoint {
                offset: SimDuration::from_nanos(offset_ns),
                func: func as u32,
            });
        }
    }
}

/// Handle onto the arrival schedule a `CaptureSink`-backed tracer
/// collects while a run executes.
#[derive(Debug, Clone, Default)]
pub struct ArrivalCapture {
    points: Rc<RefCell<Vec<TracePoint>>>,
}

impl ArrivalCapture {
    /// Creates a capture plus the tracer to run under: events are
    /// constructed (the sink retains), but only arrival points are
    /// kept.
    pub fn tracer() -> (ArrivalCapture, Tracer) {
        let capture = ArrivalCapture::default();
        let tracer = Tracer::with_sink(Box::new(CaptureSink {
            points: Rc::clone(&capture.points),
        }));
        (capture, tracer)
    }

    /// Removes and returns the captured points, in capture order: a
    /// fleet run's arrival order, or a cluster run's arrivals grouped
    /// by host.
    pub fn take(&self) -> Vec<TracePoint> {
        std::mem::take(&mut self.points.borrow_mut())
    }
}

/// Anonymized metadata for the configured workloads: stable ids in
/// workload order plus the *unscaled* spec dimensions (a profile
/// describes the functions, not the run's debug scaling; replay
/// applies its own scale, exactly as the recording run did).
fn func_metas(workloads: &[Workload]) -> Vec<FuncMeta> {
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let s = w.spec();
            FuncMeta {
                id: format!("f{i:02}"),
                snapshot_mib: s.snapshot_mib,
                ws_pages: s.ws_pages(),
                compute_us: (s.compute_ms * 1000.0).round() as u64,
                invocations: 0,
            }
        })
        .collect()
}

/// Runs one fleet simulation and records its arrival schedule into a
/// [`Profile`] spanning the configured duration.
///
/// # Errors
///
/// As [`Runner::run`].
///
/// # Panics
///
/// If `cfg.hosts > 1` — use [`record_cluster`] for cluster runs.
pub fn record_fleet(
    cfg: &FleetConfig,
    workloads: &[Workload],
) -> Result<(FleetResult, Profile), StrategyError> {
    let (capture, tracer) = ArrivalCapture::tracer();
    let result = Runner::new(cfg)
        .workloads(workloads)
        .tracer(&tracer)
        .run()?
        .into_fleet()
        .expect("record_fleet is single-host");
    let profile = Profile::new(func_metas(workloads), capture.take(), cfg.duration);
    Ok((result, profile))
}

/// Runs one cluster simulation and records its cluster-wide arrival
/// schedule into a [`Profile`] (one point per routed request; hosts
/// share the invocation-phase time origin, so offsets are globally
/// comparable).
///
/// Memory is O(trace events), not O(arrivals): each host of the run
/// buffers its whole event stream in a private recording tracer until
/// it finishes, and only then do the events reach the capture sink,
/// which keeps the arrival points.
///
/// # Errors
///
/// As [`Runner::run`].
///
/// # Panics
///
/// If `cfg.hosts == 1` — a single-host run is a fleet run; use
/// [`record_fleet`].
pub fn record_cluster(
    cfg: &FleetConfig,
    workloads: &[Workload],
) -> Result<(ClusterResult, Profile), StrategyError> {
    let (capture, tracer) = ArrivalCapture::tracer();
    let result = Runner::new(cfg)
        .workloads(workloads)
        .tracer(&tracer)
        .run()?
        .into_cluster()
        .expect("record_cluster configs are multi-host");
    let profile = Profile::new(func_metas(workloads), capture.take(), cfg.duration);
    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_keeps_only_arrivals() {
        let (capture, tracer) = ArrivalCapture::tracer();
        assert!(tracer.events_enabled(), "capture sinks must retain");
        tracer.instant(
            "fleet",
            "arrival",
            0,
            snapbpf_sim::SimTime::ZERO + SimDuration::from_millis(3),
            vec![("func", 2u32.into()), ("offset_ns", 3_000_000u64.into())],
        );
        tracer.instant(
            "fleet",
            "shed",
            0,
            snapbpf_sim::SimTime::ZERO + SimDuration::from_millis(4),
            vec![("func", 1u32.into())],
        );
        let points = capture.take();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].func, 2);
        assert_eq!(points[0].offset, SimDuration::from_millis(3));
        assert!(capture.take().is_empty(), "take drains");
    }

    #[test]
    fn recorded_profile_matches_run_arrivals() {
        let workloads = snapbpf_testkit::small_suite();
        let cfg = snapbpf_testkit::small_fleet_cfg(snapbpf::StrategyKind::Reap, 60.0);
        let (result, profile) = record_fleet(&cfg, &workloads).unwrap();
        assert_eq!(profile.len() as u64, result.aggregate.arrivals);
        assert_eq!(profile.funcs().len(), workloads.len());
        assert!(profile.funcs().iter().all(|f| f.id.starts_with('f')));
        // Replaying the profile draws the same (offset, func) pairs.
        let replay = profile.arrivals();
        let drawn = replay.draw(cfg.seed, cfg.duration);
        assert_eq!(drawn.len(), profile.len());
    }
}
