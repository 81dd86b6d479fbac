//! The staged restore pipeline.
//!
//! [`crate::Strategy::restore`] used to be a single blocking call:
//! the caller got a [`crate::RestoredVm`] only after every piece of
//! restore work — metadata reads, prefetch issue, overlay setup,
//! vCPU resume — had been charged to virtual time. That shape cannot
//! express what the real systems do (REAP's and FaaSnap's prefetch
//! threads overlap guest execution) and it forces a fleet scheduler
//! to serialize one sandbox's entire restore against every other
//! event on the host.
//!
//! This module splits a restore into discrete [`RestoreStage`]s
//! behind a [`RestoreCursor`], mirroring how
//! [`snapbpf_vmm::InvocationCursor`] steps execution. A scheduler
//! advances whichever cursor owns the globally earliest event, so
//! concurrent cold starts pipeline against each other and against
//! running vCPUs, while the provided [`crate::Strategy::restore`]
//! default drives a cursor to completion for the single-invocation
//! experiments.
//!
//! ## Two tracks: critical path and background work
//!
//! The cursor keeps **two clocks**. The *critical* track walks the
//! four stages in order and decides when the guest may resume. A
//! stage may instead declare itself *background* work (REAP's
//! working-set reads, FaaSnap's prefetch thread): its remaining
//! sub-steps move to the background track and later stages — in
//! particular [`RestoreStage::Resume`] — stop waiting for it, which
//! is exactly the overlap the real systems permit. The cursor is
//! only [`RestoreCursor::is_done`] once both tracks drain, but the
//! restored VM can be claimed as soon as `Resume` executes via
//! [`RestoreCursor::take_resumed`].

use std::fmt;

use snapbpf_kernel::HostKernel;
use snapbpf_sim::{Metric, SimDuration, SimTime};
use snapbpf_vmm::{MicroVm, UffdResolver};

use crate::strategy::{RestoredVm, StrategyError};

/// One stage of a staged restore, in critical-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestoreStage {
    /// Loading restore metadata: offsets files, eBPF map loads,
    /// readahead configuration.
    MetadataLoad,
    /// Issuing prefetch work: working-set-file reads (REAP, Faast,
    /// FaaSnap) or the eBPF prefetch-program kick-off (SnapBPF).
    PrefetchIssue,
    /// Building the sandbox: the microVM mapping, uffd registration,
    /// mmap overlays, anonymous-memory filters.
    OverlaySetup,
    /// Resuming the vCPU (the fixed VMM restore overhead); its
    /// completion is the [`RestoredVm::ready_at`] instant.
    Resume,
}

impl RestoreStage {
    /// Every stage, in critical-path order.
    pub const ALL: [RestoreStage; 4] = [
        RestoreStage::MetadataLoad,
        RestoreStage::PrefetchIssue,
        RestoreStage::OverlaySetup,
        RestoreStage::Resume,
    ];

    /// Stable display label (figure series and error messages).
    pub fn label(&self) -> &'static str {
        match self {
            RestoreStage::MetadataLoad => "metadata-load",
            RestoreStage::PrefetchIssue => "prefetch-issue",
            RestoreStage::OverlaySetup => "overlay-setup",
            RestoreStage::Resume => "resume",
        }
    }

    /// The histogram of this stage's durations.
    pub(crate) fn metric(&self) -> Metric {
        match self {
            RestoreStage::MetadataLoad => Metric::CoreRestoreMetadataLoadNs,
            RestoreStage::PrefetchIssue => Metric::CoreRestorePrefetchIssueNs,
            RestoreStage::OverlaySetup => Metric::CoreRestoreOverlaySetupNs,
            RestoreStage::Resume => Metric::CoreRestoreResumeNs,
        }
    }

    /// Position in [`RestoreStage::ALL`].
    pub fn index(&self) -> usize {
        match self {
            RestoreStage::MetadataLoad => 0,
            RestoreStage::PrefetchIssue => 1,
            RestoreStage::OverlaySetup => 2,
            RestoreStage::Resume => 3,
        }
    }
}

impl fmt::Display for RestoreStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Wall-clock duration of each restore stage, indexed by
/// [`RestoreStage`]. A stage's duration runs from its first sub-step
/// to its last completion, so background stages report the full span
/// of their overlapped work, not just the issue cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    durations: [SimDuration; 4],
}

impl StageTimings {
    /// The recorded duration of `stage`.
    pub fn get(&self, stage: RestoreStage) -> SimDuration {
        self.durations[stage.index()]
    }

    /// Sets the duration of `stage`.
    pub fn set(&mut self, stage: RestoreStage, d: SimDuration) {
        self.durations[stage.index()] = d;
    }

    /// Sum over all stages (an upper bound on the critical path when
    /// stages overlap).
    pub fn total(&self) -> SimDuration {
        self.durations.iter().copied().sum()
    }

    /// Element-wise maximum with `other` — how the experiment runner
    /// folds per-instance timings into one tail profile.
    pub fn merge_max(&mut self, other: &StageTimings) {
        for (a, b) in self.durations.iter_mut().zip(other.durations) {
            *a = (*a).max(b);
        }
    }
}

/// What one [`RestoreOps::exec`] sub-step did.
pub struct StepOutcome {
    /// Virtual time when this sub-step's work completes.
    pub done_at: SimTime,
    /// Whether this was the stage's final sub-step.
    pub stage_complete: bool,
    /// When `true`, the stage's work runs on a background thread the
    /// later stages do not wait for: the cursor moves any remaining
    /// sub-steps to the background track and advances the critical
    /// path immediately.
    pub background: bool,
    /// Offsets-metadata load cost charged by this sub-step (SnapBPF's
    /// §4 overhead metric; zero elsewhere).
    pub offset_load: SimDuration,
    /// The resumed sandbox; `Some` exactly on the completing
    /// [`RestoreStage::Resume`] sub-step.
    pub vm: Option<(MicroVm, Box<dyn UffdResolver>)>,
}

impl StepOutcome {
    /// A synchronous sub-step that finishes its stage at `done_at`.
    pub fn done(done_at: SimTime) -> StepOutcome {
        StepOutcome {
            done_at,
            stage_complete: true,
            background: false,
            offset_load: SimDuration::ZERO,
            vm: None,
        }
    }

    /// A background sub-step with more sub-steps to come: the next
    /// one executes at `done_at` on the background track while the
    /// critical path moves on.
    pub fn background_pending(done_at: SimTime) -> StepOutcome {
        StepOutcome {
            background: true,
            stage_complete: false,
            ..StepOutcome::done(done_at)
        }
    }

    /// A background sub-step that was also the stage's last: nothing
    /// further to execute, but the critical path never waited for
    /// `done_at`.
    pub fn background_done(done_at: SimTime) -> StepOutcome {
        StepOutcome {
            background: true,
            ..StepOutcome::done(done_at)
        }
    }

    /// Attaches an offsets-load cost to the outcome.
    #[must_use]
    pub fn with_offset_load(mut self, cost: SimDuration) -> StepOutcome {
        self.offset_load = cost;
        self
    }

    /// Attaches the resumed sandbox (the `Resume` stage's product).
    #[must_use]
    pub fn with_vm(mut self, vm: MicroVm, resolver: Box<dyn UffdResolver>) -> StepOutcome {
        self.vm = Some((vm, resolver));
        self
    }
}

/// A strategy's restore state machine: executes one sub-step of
/// `stage` at virtual time `now`.
///
/// Implementations own everything the restore needs (cloned out of
/// the strategy by `begin_restore`), so the cursor outlives the
/// `&mut self` borrow of the strategy that created it. `exec` is
/// called with stages in [`RestoreStage::ALL`] order; a stage is
/// re-entered (on the critical or background track) until it reports
/// [`StepOutcome::stage_complete`]. Stages with nothing to do return
/// [`StepOutcome::done`]`(now)`.
pub trait RestoreOps {
    /// Executes one sub-step of `stage` starting at `now`.
    ///
    /// # Errors
    ///
    /// Kernel errors propagate; the cursor wraps them with the
    /// failing stage ([`StrategyError::Stage`]).
    fn exec(
        &mut self,
        stage: RestoreStage,
        now: SimTime,
        host: &mut HostKernel,
    ) -> Result<StepOutcome, StrategyError>;
}

/// Background-track state: one stage whose remaining sub-steps run
/// off the critical path.
struct BgWork {
    stage: RestoreStage,
    next: SimTime,
    entry: SimTime,
}

/// An in-flight restore that can be advanced one stage sub-step at a
/// time, in virtual-time order, interleaved with any other cursor on
/// the host (see the [module docs](crate::restore)).
pub struct RestoreCursor {
    ops: Box<dyn RestoreOps>,
    /// Critical-path clock: when the next critical sub-step may run.
    crit: SimTime,
    /// Index into [`RestoreStage::ALL`] of the next critical stage.
    crit_idx: usize,
    /// First-sub-step time of the current critical stage.
    crit_entry: Option<SimTime>,
    bg: Option<BgWork>,
    timings: StageTimings,
    offset_load: SimDuration,
    ready_at: Option<SimTime>,
    resumed: Option<(MicroVm, Box<dyn UffdResolver>)>,
    /// Latest completion seen on either track.
    end: SimTime,
    /// Trace track (thread id) stage spans are emitted on.
    trace_tid: u64,
}

impl fmt::Debug for RestoreCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestoreCursor")
            .field("clock", &self.clock())
            .field("next_stage", &self.next_stage())
            .field("ready_at", &self.ready_at)
            .finish_non_exhaustive()
    }
}

impl RestoreCursor {
    /// Starts a staged restore at `begin` over the given state
    /// machine (called by `Strategy::begin_restore` implementations
    /// after their precondition checks).
    pub fn new(begin: SimTime, ops: Box<dyn RestoreOps>) -> RestoreCursor {
        RestoreCursor {
            ops,
            crit: begin,
            crit_idx: 0,
            crit_entry: None,
            bg: None,
            timings: StageTimings::default(),
            offset_load: SimDuration::ZERO,
            ready_at: None,
            resumed: None,
            end: begin,
            trace_tid: 0,
        }
    }

    /// Sets the trace track (thread id) stage spans are emitted on —
    /// schedulers use [`snapbpf_sim::sandbox_tid`] so each sandbox's
    /// restore gets its own Perfetto row.
    pub fn set_trace_tid(&mut self, tid: u64) {
        self.trace_tid = tid;
    }

    /// Emits the trace span and metrics sample for one completed
    /// stage. Called at exactly the `timings.set` sites with the same
    /// `entry`/`done` instants, so trace-derived breakdowns reconcile
    /// with [`StageTimings`].
    fn note_stage(&self, host: &HostKernel, stage: RestoreStage, entry: SimTime, done: SimTime) {
        let trace = host.tracer();
        if !trace.is_enabled() {
            return;
        }
        trace.observe_duration(stage.metric(), done.saturating_since(entry));
        if trace.events_enabled() {
            trace.span(
                "restore",
                stage.label(),
                self.trace_tid,
                entry,
                done,
                vec![],
            );
        }
    }

    /// Virtual time of the next pending sub-step; once done, the
    /// completion time of the last one.
    pub fn clock(&self) -> SimTime {
        let crit = (self.crit_idx < RestoreStage::ALL.len()).then_some(self.crit);
        let bg = self.bg.as_ref().map(|b| b.next);
        match (crit, bg) {
            (Some(c), Some(b)) => c.min(b),
            (Some(c), None) => c,
            (None, Some(b)) => b,
            (None, None) => self.end,
        }
    }

    /// The stage the next [`RestoreCursor::step`] executes (`None`
    /// once done). Background work reports its own stage, so a
    /// cursor past `Resume` can still answer `PrefetchIssue`.
    pub fn next_stage(&self) -> Option<RestoreStage> {
        let crit = (self.crit_idx < RestoreStage::ALL.len())
            .then(|| (self.crit, RestoreStage::ALL[self.crit_idx]));
        let bg = self.bg.as_ref().map(|b| (b.next, b.stage));
        match (crit, bg) {
            (Some((c, cs)), Some((b, _))) if c <= b => Some(cs),
            (_, Some((_, bs))) => Some(bs),
            (Some((_, cs)), None) => Some(cs),
            (None, None) => None,
        }
    }

    /// Whether both tracks have drained.
    pub fn is_done(&self) -> bool {
        self.crit_idx >= RestoreStage::ALL.len() && self.bg.is_none()
    }

    /// When guest execution can begin (`None` until the `Resume`
    /// stage has executed).
    pub fn ready_at(&self) -> Option<SimTime> {
        self.ready_at
    }

    /// Accumulated offsets-map load cost so far.
    pub fn offset_load_cost(&self) -> SimDuration {
        self.offset_load
    }

    /// Per-stage durations (final once [`RestoreCursor::is_done`]).
    pub fn breakdown(&self) -> StageTimings {
        self.timings
    }

    /// Claims the restored sandbox as soon as `Resume` has executed,
    /// so a scheduler can start the invocation while background
    /// prefetch work is still pending. Returns the microVM, its
    /// fault resolver, and the ready instant; `None` before resume
    /// or after a previous claim.
    pub fn take_resumed(&mut self) -> Option<(MicroVm, Box<dyn UffdResolver>, SimTime)> {
        let ready = self.ready_at?;
        let (vm, resolver) = self.resumed.take()?;
        Some((vm, resolver, ready))
    }

    /// Executes the next sub-step: the earlier of the critical and
    /// background tracks (ties prefer the critical path, which is
    /// how the monolithic restore ordered its work). Does nothing
    /// once done.
    ///
    /// # Errors
    ///
    /// Failures are wrapped as [`StrategyError::Stage`] naming the
    /// stage that died.
    pub fn step(&mut self, host: &mut HostKernel) -> Result<(), StrategyError> {
        let crit_pending = self.crit_idx < RestoreStage::ALL.len();
        let run_crit = match (&self.bg, crit_pending) {
            (_, false) => false,
            (Some(b), true) => self.crit <= b.next,
            (None, true) => true,
        };
        if run_crit {
            self.step_critical(host)
        } else if self.bg.is_some() {
            self.step_background(host)
        } else {
            Ok(())
        }
    }

    fn step_critical(&mut self, host: &mut HostKernel) -> Result<(), StrategyError> {
        let stage = RestoreStage::ALL[self.crit_idx];
        let entry = *self.crit_entry.get_or_insert(self.crit);
        let out = self
            .ops
            .exec(stage, self.crit, host)
            .map_err(|e| StrategyError::Stage {
                stage,
                source: Box::new(e),
            })?;
        self.offset_load += out.offset_load;
        self.end = self.end.max(out.done_at);
        if out.background {
            // Later stages resume from the issue instant, not from
            // the background work's completion.
            if !out.stage_complete {
                self.bg = Some(BgWork {
                    stage,
                    next: out.done_at,
                    entry,
                });
            } else {
                self.timings.set(stage, out.done_at.saturating_since(entry));
                self.note_stage(host, stage, entry, out.done_at);
            }
            self.crit_idx += 1;
            self.crit_entry = None;
        } else if out.stage_complete {
            self.timings.set(stage, out.done_at.saturating_since(entry));
            self.note_stage(host, stage, entry, out.done_at);
            self.crit = out.done_at;
            self.crit_idx += 1;
            self.crit_entry = None;
        } else {
            self.crit = out.done_at;
        }
        if stage == RestoreStage::Resume && out.stage_complete {
            debug_assert!(out.vm.is_some(), "Resume must produce the sandbox");
            self.ready_at = Some(out.done_at);
            self.resumed = out.vm;
        } else {
            debug_assert!(out.vm.is_none(), "only Resume may produce the sandbox");
        }
        Ok(())
    }

    fn step_background(&mut self, host: &mut HostKernel) -> Result<(), StrategyError> {
        let bg = self.bg.as_mut().expect("background work pending");
        let (stage, at, entry) = (bg.stage, bg.next, bg.entry);
        let out = self
            .ops
            .exec(stage, at, host)
            .map_err(|e| StrategyError::Stage {
                stage,
                source: Box::new(e),
            })?;
        self.offset_load += out.offset_load;
        self.end = self.end.max(out.done_at);
        debug_assert!(out.vm.is_none(), "background work cannot resume the vCPU");
        if out.stage_complete {
            self.timings.set(stage, out.done_at.saturating_since(entry));
            self.note_stage(host, stage, entry, out.done_at);
            self.bg = None;
        } else {
            self.bg = Some(BgWork {
                stage,
                next: out.done_at,
                entry,
            });
        }
        Ok(())
    }

    /// Finishes a fully-driven restore, yielding the classic
    /// [`RestoredVm`] (what the monolithic `Strategy::restore`
    /// default returns).
    ///
    /// # Panics
    ///
    /// Panics if stages are pending or the sandbox was already
    /// claimed with [`RestoreCursor::take_resumed`].
    pub fn finish(self) -> RestoredVm {
        assert!(self.is_done(), "finish() before every stage completed");
        let (vm, resolver) = self
            .resumed
            .expect("finish() after take_resumed() claimed the sandbox");
        RestoredVm {
            vm,
            resolver,
            ready_at: self.ready_at.expect("Resume stage sets ready_at"),
            offset_load_cost: self.offset_load,
            stages: self.timings,
        }
    }

    /// Abandons the restore mid-flight (host crash in a fleet
    /// simulation). Returns the sandbox when the Resume stage had
    /// already produced one and nobody claimed it with
    /// [`RestoreCursor::take_resumed`]; `None` otherwise. Any
    /// anonymous memory the restore charged before the sandbox
    /// existed stays attributed to its owner — the caller releases
    /// it with `HostKernel::release_owner`.
    pub fn abort(self) -> Option<(MicroVm, Box<dyn UffdResolver>)> {
        self.resumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_labels() {
        for (i, s) in RestoreStage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut labels: Vec<&str> = RestoreStage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn timings_merge_max_is_elementwise() {
        let mut a = StageTimings::default();
        a.set(RestoreStage::MetadataLoad, SimDuration::from_millis(3));
        a.set(RestoreStage::Resume, SimDuration::from_millis(1));
        let mut b = StageTimings::default();
        b.set(RestoreStage::MetadataLoad, SimDuration::from_millis(1));
        b.set(RestoreStage::PrefetchIssue, SimDuration::from_millis(7));
        a.merge_max(&b);
        assert_eq!(
            a.get(RestoreStage::MetadataLoad),
            SimDuration::from_millis(3)
        );
        assert_eq!(
            a.get(RestoreStage::PrefetchIssue),
            SimDuration::from_millis(7)
        );
        assert_eq!(a.get(RestoreStage::Resume), SimDuration::from_millis(1));
        assert_eq!(a.total(), SimDuration::from_millis(11));
    }
}
