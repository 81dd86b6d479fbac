//! Kprobe attach points.
//!
//! SnapBPF attaches its capture and prefetch programs to a kprobe on
//! `add_to_page_cache_lru()` (paper §3.1). This module models the
//! kprobe layer: named hook points that kernel code fires with the
//! hooked function's arguments as the program context, a registry of
//! attached programs, and per-program enable/disable state — the
//! prefetch program "disables itself" by returning a special value
//! that the kernel translates into a [`KprobeRegistry::disable`]
//! call.

use std::fmt;

use snapbpf_sim::{Metric, Tracer};

use crate::interp::{Interpreter, KfuncHost, RunError, RunOutcome};
use crate::map::MapSet;
use crate::verify::VerifiedProgram;

/// Identifier of an attached program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeId(u32);

impl ProbeId {
    /// The raw id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProbeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe#{}", self.0)
    }
}

/// Errors from the kprobe registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// Unknown probe id.
    NoSuchProbe(ProbeId),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::NoSuchProbe(id) => write!(f, "no such probe: {id}"),
        }
    }
}

impl std::error::Error for ProbeError {}

#[derive(Debug, Clone)]
struct Attached {
    hook: String,
    program: VerifiedProgram,
    enabled: bool,
    runs: u64,
    insns: u64,
}

/// Result of one program execution during a hook firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FireResult {
    /// Which attached program ran.
    pub probe: ProbeId,
    /// Its outcome (or runtime error).
    pub outcome: Result<RunOutcome, RunError>,
}

/// Registry of kprobe hook points and the programs attached to them.
///
/// # Examples
///
/// ```
/// use snapbpf_ebpf::{
///     Interpreter, KprobeRegistry, MapSet, NoKfuncs, ProgramBuilder, Reg, Verifier,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut maps = MapSet::new();
/// let mut b = ProgramBuilder::new("count");
/// b.load_ctx(Reg::R0, 0).exit();
/// let prog = Verifier::new(&maps, &[]).verify(&b.build()?)?;
///
/// let mut probes = KprobeRegistry::new();
/// let id = probes.attach("add_to_page_cache_lru", prog);
/// let mut interp = Interpreter::new();
/// let results = probes.fire(
///     "add_to_page_cache_lru",
///     &[7],
///     &mut interp,
///     &mut maps,
///     &mut NoKfuncs,
/// );
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].probe, id);
/// assert_eq!(results[0].outcome.as_ref().unwrap().return_value, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct KprobeRegistry {
    programs: Vec<Option<Attached>>,
    trace: Tracer,
}

impl KprobeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KprobeRegistry::default()
    }

    /// Attaches the structured trace handle program-execution
    /// counters report through.
    pub fn set_tracer(&mut self, trace: Tracer) {
        self.trace = trace;
    }

    /// Attaches a verified program to the named hook; returns its
    /// probe id. Programs start enabled.
    pub fn attach(&mut self, hook: &str, program: VerifiedProgram) -> ProbeId {
        let id = ProbeId(self.programs.len() as u32);
        self.programs.push(Some(Attached {
            hook: hook.to_owned(),
            program,
            enabled: true,
            runs: 0,
            insns: 0,
        }));
        id
    }

    /// Detaches a program.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoSuchProbe`] for unknown or already
    /// detached ids.
    pub fn detach(&mut self, id: ProbeId) -> Result<(), ProbeError> {
        let slot = self
            .programs
            .get_mut(id.0 as usize)
            .ok_or(ProbeError::NoSuchProbe(id))?;
        slot.take().ok_or(ProbeError::NoSuchProbe(id))?;
        Ok(())
    }

    /// Enables a program (it will run on the next fire).
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoSuchProbe`] for unknown ids.
    pub fn enable(&mut self, id: ProbeId) -> Result<(), ProbeError> {
        self.attached_mut(id)?.enabled = true;
        Ok(())
    }

    /// Disables a program without detaching it — how the SnapBPF
    /// prefetch program "disables itself" after the last group.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoSuchProbe`] for unknown ids.
    pub fn disable(&mut self, id: ProbeId) -> Result<(), ProbeError> {
        self.attached_mut(id)?.enabled = false;
        Ok(())
    }

    /// `true` if the probe exists and is enabled.
    pub fn is_enabled(&self, id: ProbeId) -> bool {
        self.programs
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .is_some_and(|a| a.enabled)
    }

    /// Number of times the program has run.
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoSuchProbe`] for unknown ids.
    pub fn run_count(&self, id: ProbeId) -> Result<u64, ProbeError> {
        self.attached(id).map(|a| a.runs)
    }

    /// Total instructions the program has executed (the kernel-side
    /// overhead accounting used in the paper's §4 overhead analysis).
    ///
    /// # Errors
    ///
    /// Returns [`ProbeError::NoSuchProbe`] for unknown ids.
    pub fn insn_count(&self, id: ProbeId) -> Result<u64, ProbeError> {
        self.attached(id).map(|a| a.insns)
    }

    fn attached(&self, id: ProbeId) -> Result<&Attached, ProbeError> {
        self.programs
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(ProbeError::NoSuchProbe(id))
    }

    fn attached_mut(&mut self, id: ProbeId) -> Result<&mut Attached, ProbeError> {
        self.programs
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(ProbeError::NoSuchProbe(id))
    }

    /// Fires a hook: every enabled program attached to `hook` runs
    /// with `ctx` as its context words, in attach order.
    ///
    /// Runtime errors are captured per program in the results rather
    /// than propagated — one misbehaving program does not prevent
    /// others from running, matching kprobe semantics.
    ///
    /// This is the per-page hot path of a restore (the page-cache
    /// hook fires once per inserted page), so dispatch works off the
    /// already-verified, already-decoded program in place: no clone
    /// of the instruction stream, no per-fire id-list allocation —
    /// the program slots are walked in attach order directly.
    pub fn fire(
        &mut self,
        hook: &str,
        ctx: &[u64],
        interp: &mut Interpreter,
        maps: &mut MapSet,
        kfuncs: &mut dyn KfuncHost,
    ) -> Vec<FireResult> {
        let mut results = Vec::new();
        for (idx, slot) in self.programs.iter_mut().enumerate() {
            let Some(attached) = slot else { continue };
            if !attached.enabled || attached.hook != hook {
                continue;
            }
            let outcome = interp.run(&attached.program, ctx, maps, kfuncs);
            match outcome {
                Ok(ref o) => {
                    attached.runs += 1;
                    attached.insns += o.insns_executed;
                    self.trace.incr(Metric::EbpfProgInvocations);
                    self.trace.add(Metric::EbpfProgInsns, o.insns_executed);
                    self.trace
                        .observe(Metric::EbpfProgInsnsPerInvocation, o.insns_executed);
                }
                Err(_) => self.trace.incr(Metric::EbpfProgErrors),
            }
            results.push(FireResult {
                probe: ProbeId(idx as u32),
                outcome,
            });
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Reg;
    use crate::interp::NoKfuncs;
    use crate::program::ProgramBuilder;
    use crate::verify::Verifier;

    fn ret_const(maps: &MapSet, v: i64) -> VerifiedProgram {
        let mut b = ProgramBuilder::new(format!("ret{v}"));
        b.mov(Reg::R0, v).exit();
        Verifier::new(maps, &[])
            .verify(&b.build().unwrap())
            .unwrap()
    }

    #[test]
    fn fire_runs_attached_programs_in_order() {
        let mut maps = MapSet::new();
        let mut probes = KprobeRegistry::new();
        let a = probes.attach("hook", ret_const(&maps, 1));
        let b = probes.attach("hook", ret_const(&maps, 2));
        let mut interp = Interpreter::new();
        let results = probes.fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].probe, a);
        assert_eq!(results[0].outcome.as_ref().unwrap().return_value, 1);
        assert_eq!(results[1].probe, b);
        assert_eq!(results[1].outcome.as_ref().unwrap().return_value, 2);
    }

    #[test]
    fn unknown_hook_is_silent() {
        let mut maps = MapSet::new();
        let mut probes = KprobeRegistry::new();
        let mut interp = Interpreter::new();
        let results = probes.fire("nothing", &[], &mut interp, &mut maps, &mut NoKfuncs);
        assert!(results.is_empty());
    }

    #[test]
    fn disabled_programs_do_not_run() {
        let mut maps = MapSet::new();
        let mut probes = KprobeRegistry::new();
        let id = probes.attach("hook", ret_const(&maps, 1));
        probes.disable(id).unwrap();
        assert!(!probes.is_enabled(id));
        let mut interp = Interpreter::new();
        assert!(probes
            .fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs)
            .is_empty());
        probes.enable(id).unwrap();
        assert_eq!(
            probes
                .fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs)
                .len(),
            1
        );
        assert_eq!(probes.run_count(id).unwrap(), 1);
        assert!(probes.insn_count(id).unwrap() > 0);
    }

    #[test]
    fn detach_removes_program() {
        let mut maps = MapSet::new();
        let mut probes = KprobeRegistry::new();
        let id = probes.attach("hook", ret_const(&maps, 1));
        probes.detach(id).unwrap();
        assert_eq!(probes.detach(id), Err(ProbeError::NoSuchProbe(id)));
        let mut interp = Interpreter::new();
        assert!(probes
            .fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs)
            .is_empty());
    }

    #[test]
    fn separate_hooks_are_independent() {
        let mut maps = MapSet::new();
        let mut probes = KprobeRegistry::new();
        probes.attach("a", ret_const(&maps, 1));
        probes.attach("b", ret_const(&maps, 2));
        let mut interp = Interpreter::new();
        let ra = probes.fire("a", &[], &mut interp, &mut maps, &mut NoKfuncs);
        assert_eq!(ra.len(), 1);
        assert_eq!(ra[0].outcome.as_ref().unwrap().return_value, 1);
    }

    #[test]
    fn fire_and_map_ops_report_trace_counters() {
        let tracer = Tracer::noop();
        let mut maps = MapSet::new();
        maps.set_tracer(tracer.clone());
        let mut probes = KprobeRegistry::new();
        probes.set_tracer(tracer.clone());
        let map = maps.create(crate::map::MapDef::array(8, 4)).unwrap();
        maps.array_store_u64(map, 0, 7).unwrap();
        assert_eq!(maps.array_load_u64(map, 0).unwrap(), 7);
        probes.attach("hook", ret_const(&maps, 1));
        let mut interp = Interpreter::new();
        probes.fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs);
        probes.fire("hook", &[], &mut interp, &mut maps, &mut NoKfuncs);
        let m = tracer.metrics_snapshot();
        assert_eq!(m.counter("ebpf.map.creates"), 1);
        assert_eq!(m.counter("ebpf.map.updates"), 1);
        assert_eq!(m.counter("ebpf.map.lookups"), 1);
        assert_eq!(m.counter("ebpf.prog.invocations"), 2);
        assert!(m.counter("ebpf.prog.insns") >= 4);
        assert_eq!(m.counter("ebpf.prog.errors"), 0);
    }

    #[test]
    fn unknown_probe_errors() {
        let mut probes = KprobeRegistry::new();
        let ghost = ProbeId(9);
        assert_eq!(probes.enable(ghost), Err(ProbeError::NoSuchProbe(ghost)));
        assert_eq!(probes.run_count(ghost), Err(ProbeError::NoSuchProbe(ghost)));
        assert!(!probes.is_enabled(ghost));
    }
}
