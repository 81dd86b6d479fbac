//! The static verifier.
//!
//! Before a program may be attached, it is verified the way the Linux
//! verifier checks real eBPF: abstract interpretation over typed
//! registers. Since the 5.3-class upgrade the analysis is
//! *range-based*: every scalar carries signed and unsigned interval
//! bounds (`smin/smax/umin/umax`) that ALU ops transform and
//! conditional jumps refine per branch direction, so a map-value or
//! stack access indexed by a bounds-checked register verifies without
//! a verifier-known constant. The model enforces:
//!
//! * every register is initialized before use; `r10` is read-only,
//! * all stack accesses are in-bounds, aligned, and read only
//!   initialized bytes,
//! * map-value pointers are null-checked before dereference and stay
//!   within the value's bounds for every offset in their range,
//! * helper calls match their signatures (map refs, key/value
//!   pointers into initialized stack memory),
//! * back-edges are allowed: bounded loops verify via state pruning
//!   (a loop-header state subsumed by an already-explored one is
//!   pruned; repeated identical states are rejected as
//!   non-terminating), with [`COMPLEXITY_LIMIT`] as the backstop,
//! * every path ends in `exit` with `r0` initialized, and no
//!   instruction is statically unreachable,
//! * path exploration is bounded by a complexity limit.
//!
//! Verification returns a [`VerifiedProgram`] token; the interpreter
//! only accepts verified programs. [`Verifier::verify_logged`]
//! additionally produces a structured [`VerifierLog`] with per-insn
//! state transitions, rejection reasons, and summary
//! [`VerifierStats`].

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hash::{WordHasher, WordState};
use crate::insn::{
    AccessSize, AluOp, HelperId, Insn, JmpCond, Operand, Reg, MAX_CTX_WORDS, STACK_SIZE,
};
use crate::map::{MapId, MapKind, MapSet};
use crate::opt::cfg::static_reachable;
use crate::program::Program;

/// Maximum number of `(pc, state)` pairs explored before the
/// verifier gives up, mirroring the kernel's
/// `BPF_COMPLEXITY_LIMIT_INSNS` (1 M since 5.2 — the budget that
/// makes verifying bounded loops by unrolling practical).
pub const COMPLEXITY_LIMIT: usize = 1_000_000;

/// Cap on the per-instruction list of subsumption-prune candidates.
const WIDE_CAND_LIMIT: usize = 64;

/// Cap on verifier-log lines; beyond this the log is truncated.
const LOG_LINE_LIMIT: usize = 4096;

/// Signature of a kfunc as known to the verifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KfuncSig {
    /// Name, for diagnostics.
    pub name: &'static str,
    /// Number of scalar arguments (`r1`..`r{args}`).
    pub args: u8,
}

/// Interval bounds on a scalar register, tracked in both the signed
/// and unsigned domains (the value is a single 64-bit quantity; both
/// views constrain it simultaneously).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ScalarRange {
    pub(crate) smin: i64,
    pub(crate) smax: i64,
    pub(crate) umin: u64,
    pub(crate) umax: u64,
}

impl ScalarRange {
    pub(crate) fn exact(v: i64) -> Self {
        ScalarRange {
            smin: v,
            smax: v,
            umin: v as u64,
            umax: v as u64,
        }
    }

    pub(crate) fn unknown() -> Self {
        ScalarRange {
            smin: i64::MIN,
            smax: i64::MAX,
            umin: 0,
            umax: u64::MAX,
        }
    }

    /// The exact value, when both domains agree on a single point.
    pub(crate) fn const_value(&self) -> Option<i64> {
        if self.smin == self.smax && self.umin == self.umax && self.smin as u64 == self.umin {
            Some(self.smin)
        } else {
            None
        }
    }

    pub(crate) fn is_valid(&self) -> bool {
        self.smin <= self.smax && self.umin <= self.umax
    }

    /// Cross-deduces bounds between the signed and unsigned views:
    /// a known-non-negative signed range pins the unsigned one and
    /// vice versa.
    pub(crate) fn deduce(mut self) -> Self {
        if self.smin >= 0 {
            self.umin = self.umin.max(self.smin as u64);
            self.umax = self.umax.min(self.smax as u64);
        }
        if self.umax <= i64::MAX as u64 {
            self.smin = self.smin.max(self.umin as i64);
            self.smax = self.smax.min(self.umax as i64);
        }
        self
    }

    /// Whether every value admitted by `other` is admitted by `self`.
    pub(crate) fn subsumes(&self, other: &Self) -> bool {
        self.smin <= other.smin
            && self.smax >= other.smax
            && self.umin <= other.umin
            && self.umax >= other.umax
    }
}

/// A (possibly variable) pointer offset, as an inclusive byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VarOff {
    pub(crate) min: i32,
    pub(crate) max: i32,
}

impl VarOff {
    pub(crate) fn exact(v: i32) -> Self {
        VarOff { min: v, max: v }
    }

    pub(crate) fn is_exact(&self) -> bool {
        self.min == self.max
    }

    pub(crate) fn subsumes(&self, other: &Self) -> bool {
        self.min <= other.min && self.max >= other.max
    }
}

/// Abstract type of a register during verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RegType {
    Uninit,
    /// A scalar with interval bounds.
    Scalar(ScalarRange),
    /// The frame pointer (`r10`).
    FramePtr,
    /// `r10 + off` for a bounded offset range.
    StackPtr(VarOff),
    /// A reference to a map (from [`Insn::LoadMapRef`]).
    MapRef(MapId),
    /// Result of `bpf_map_lookup_elem`: value pointer or null.
    MapValueOrNull(MapId),
    /// A null-checked map-value pointer at a bounded byte offset.
    MapValue(MapId, VarOff),
}

impl RegType {
    pub(crate) fn scalar_exact(v: i64) -> Self {
        RegType::Scalar(ScalarRange::exact(v))
    }

    pub(crate) fn scalar_unknown() -> Self {
        RegType::Scalar(ScalarRange::unknown())
    }

    /// Whether this abstract value covers every concrete value
    /// `other` covers (`Uninit` covers everything: a program safe
    /// with the register unwritten never reads it).
    pub(crate) fn subsumes(&self, other: &RegType) -> bool {
        match (self, other) {
            (RegType::Uninit, _) => true,
            (RegType::Scalar(a), RegType::Scalar(b)) => a.subsumes(b),
            (RegType::StackPtr(a), RegType::StackPtr(b)) => a.subsumes(b),
            (RegType::MapValue(m, a), RegType::MapValue(n, b)) => m == n && a.subsumes(b),
            _ => self == other,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AbsState {
    pub(crate) regs: [RegType; 11],
    /// One bit per stack byte: initialized?
    pub(crate) stack_init: [u64; STACK_SIZE / 64],
}

impl AbsState {
    pub(crate) fn entry() -> Self {
        let mut regs = [RegType::Uninit; 11];
        regs[10] = RegType::FramePtr;
        // r1 holds the context pointer in real eBPF; our LoadCtx
        // pseudo-instruction replaces ctx pointer arithmetic, so r1
        // starts uninitialized here.
        AbsState {
            regs,
            stack_init: [0; STACK_SIZE / 64],
        }
    }

    pub(crate) fn stack_mark_init(&mut self, start: usize, len: usize) {
        for b in start..start + len {
            self.stack_init[b / 64] |= 1 << (b % 64);
        }
    }

    pub(crate) fn stack_is_init(&self, start: usize, len: usize) -> bool {
        (start..start + len).all(|b| self.stack_init[b / 64] & (1 << (b % 64)) != 0)
    }

    /// State subsumption: every register covers the other state's,
    /// and this state assumes *no more* initialized stack bytes.
    fn subsumes(&self, other: &AbsState) -> bool {
        self.regs
            .iter()
            .zip(&other.regs)
            .all(|(a, b)| a.subsumes(b))
            && self
                .stack_init
                .iter()
                .zip(&other.stack_init)
                .all(|(a, b)| a & !b == 0)
    }

    /// Whether pruning against this state can ever beat exact
    /// equality (i.e. it strictly covers more than one point).
    fn widenable(&self) -> bool {
        self.regs.iter().any(|r| match r {
            RegType::Uninit => true,
            RegType::Scalar(s) => s.const_value().is_none(),
            RegType::StackPtr(v) | RegType::MapValue(_, v) => !v.is_exact(),
            _ => false,
        })
    }
}

/// Verification failure, with the offending instruction index and
/// (when available) a snapshot of the abstract register state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Instruction index, when attributable.
    pub at: Option<usize>,
    /// What went wrong.
    pub kind: VerifyErrorKind,
    /// Rendered register state at the point of failure.
    regs: Option<String>,
}

impl VerifyError {
    fn new(at: Option<usize>, kind: VerifyErrorKind) -> Self {
        VerifyError {
            at,
            kind,
            regs: None,
        }
    }

    fn with_regs(mut self, st: &AbsState) -> Self {
        if self.regs.is_none() {
            self.regs = Some(format_regs(st));
        }
        self
    }

    /// The abstract register state at the failing instruction, as
    /// rendered in the verifier log (`None` when no state applies,
    /// e.g. for an empty program).
    pub fn register_snapshot(&self) -> Option<&str> {
        self.regs.as_deref()
    }
}

/// The kinds of verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// The program has no instructions.
    EmptyProgram,
    /// Reading a register that was never written.
    UninitRegister(Reg),
    /// Writing `r10`.
    FramePointerWrite,
    /// Execution can fall off the end of the program.
    FallOffEnd,
    /// A jump leaves the program.
    JumpOutOfProgram,
    /// An edge closes a cycle by revisiting an abstract state still
    /// being explored on the current path: the loop makes no provable
    /// progress and cannot be bounded.
    InfiniteLoop {
        /// Source of the cycle-closing edge.
        from: usize,
        /// Instruction revisited with an identical state.
        to: usize,
    },
    /// An instruction no execution path can ever reach.
    DeadCode,
    /// Stack access outside `[-512, 0)` or misaligned.
    BadStackAccess {
        /// Byte offset relative to the frame pointer.
        off: i64,
    },
    /// Reading uninitialized stack bytes.
    UninitStackRead {
        /// Byte offset relative to the frame pointer.
        off: i64,
    },
    /// Dereferencing something that is not a valid pointer.
    BadPointer(Reg),
    /// Dereferencing a possibly-null map value without a null check.
    PossiblyNull(Reg),
    /// A map-value access outside the value's bounds.
    MapValueOutOfBounds {
        /// The map.
        map: MapId,
        /// Attempted byte offset.
        off: i64,
        /// The value size.
        value_size: u32,
    },
    /// Helper argument type mismatch.
    BadHelperArg {
        /// The helper.
        helper: HelperId,
        /// Which argument register.
        arg: Reg,
        /// Human-readable expectation.
        expected: &'static str,
    },
    /// Kfunc index not present in the registry.
    UnknownKfunc(u32),
    /// Kfunc argument not an initialized scalar.
    BadKfuncArg {
        /// Kfunc registry index.
        kfunc: u32,
        /// Which argument register.
        arg: Reg,
    },
    /// Arithmetic that the verifier cannot prove safe (e.g. pointer
    /// arithmetic with an unbounded offset, or non-add/sub on a
    /// pointer).
    BadPointerArithmetic(Reg),
    /// Spilling a pointer to the stack (not supported by this
    /// verifier).
    PointerSpill(Reg),
    /// `exit` with `r0` uninitialized or non-scalar.
    BadReturnValue,
    /// Comparing pointers (other than the null check pattern).
    PointerComparison,
    /// A map id referenced by the program does not exist in the map
    /// set.
    UnknownMap(MapId),
    /// Context word index out of range.
    BadCtxIndex(u8),
    /// Too many states explored.
    TooComplex,
    /// Ring-buffer output size is not a verifier-known constant.
    UnknownRingSize,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "at insn {at}: {}", self.kind)?,
            None => write!(f, "{}", self.kind)?,
        }
        if let Some(regs) = &self.regs {
            write!(f, "\n  regs: {regs}")?;
        }
        Ok(())
    }
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use VerifyErrorKind::*;
        match self {
            EmptyProgram => write!(f, "empty program"),
            UninitRegister(r) => write!(f, "read of uninitialized register {r}"),
            FramePointerWrite => write!(f, "write to frame pointer r10"),
            FallOffEnd => write!(f, "execution can fall off the end"),
            JumpOutOfProgram => write!(f, "jump target outside program"),
            InfiniteLoop { from, to } => write!(
                f,
                "infinite loop: edge from {from} to {to} revisits an identical state"
            ),
            DeadCode => write!(f, "unreachable instruction (dead code)"),
            BadStackAccess { off } => write!(f, "invalid stack access at fp{off:+}"),
            UninitStackRead { off } => write!(f, "read of uninitialized stack at fp{off:+}"),
            BadPointer(r) => write!(f, "{r} is not a valid pointer"),
            PossiblyNull(r) => write!(f, "{r} may be null; null-check required"),
            MapValueOutOfBounds {
                map,
                off,
                value_size,
            } => {
                write!(f, "{map} value access at {off} outside {value_size} bytes")
            }
            BadHelperArg {
                helper,
                arg,
                expected,
            } => {
                write!(f, "{helper}: {arg} must be {expected}")
            }
            UnknownKfunc(i) => write!(f, "unknown kfunc #{i}"),
            BadKfuncArg { kfunc, arg } => {
                write!(f, "kfunc #{kfunc}: {arg} must be an initialized scalar")
            }
            BadPointerArithmetic(r) => write!(f, "unprovable pointer arithmetic on {r}"),
            PointerSpill(r) => write!(f, "cannot spill pointer {r} to stack"),
            BadReturnValue => write!(f, "exit with r0 not an initialized scalar"),
            PointerComparison => write!(f, "pointer comparison not allowed"),
            UnknownMap(m) => write!(f, "program references unknown {m}"),
            BadCtxIndex(i) => write!(f, "context index {i} out of range"),
            TooComplex => write!(f, "program too complex to verify"),
            UnknownRingSize => write!(f, "ringbuf output size must be a known constant"),
        }
    }
}

impl std::error::Error for VerifyErrorKind {}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.kind)
    }
}

/// Summary statistics from one verification run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Total instructions processed (counting revisits with new
    /// abstract states).
    pub insns_processed: u64,
    /// `(pc, state)` pairs explored (same count as
    /// `insns_processed`; kept for the complexity-limit contract).
    pub states_explored: usize,
    /// States skipped because an equal or subsuming state was
    /// already fully explored at the same instruction.
    pub states_pruned: u64,
    /// Deepest conditional-branch nesting reached on any path.
    pub peak_branch_depth: usize,
    /// Statically-reachable instructions that no explored path
    /// visited (branch pruning proved them dynamically dead).
    pub dead_insns: u64,
}

/// A structured, human-readable log of one verification run:
/// per-instruction state transitions, prune decisions, the
/// rejection reason (if any), and summary [`VerifierStats`].
#[derive(Debug, Clone, Default)]
pub struct VerifierLog {
    enabled: bool,
    truncated: bool,
    lines: Vec<String>,
    stats: VerifierStats,
}

impl VerifierLog {
    fn note(&mut self, line: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        if self.lines.len() >= LOG_LINE_LIMIT {
            self.truncated = true;
            return;
        }
        self.lines.push(line());
    }

    /// Like [`Self::note`] but exempt from the line limit: the
    /// rejection reason must survive even when per-insn tracing
    /// already filled the log.
    fn note_critical(&mut self, line: impl FnOnce() -> String) {
        if self.enabled {
            self.lines.push(line());
        }
    }

    /// The log lines, in exploration order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The summary statistics.
    pub fn stats(&self) -> &VerifierStats {
        &self.stats
    }

    /// Renders the full log: every line plus a stats footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.truncated {
            out.push_str("... (log truncated)\n");
        }
        let s = &self.stats;
        out.push_str(&format!(
            "verification stats: insns_processed={} states_explored={} states_pruned={} \
             peak_branch_depth={} dead_insns={}\n",
            s.insns_processed,
            s.states_explored,
            s.states_pruned,
            s.peak_branch_depth,
            s.dead_insns
        ));
        out
    }
}

impl fmt::Display for VerifierLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// A program that passed verification, ready to run or attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedProgram {
    program: Program,
    stats: VerifierStats,
    log: Option<String>,
}

impl VerifiedProgram {
    /// The token for a program whose shape already verified: no walk
    /// ran, so the statistics are empty.
    pub(crate) fn proven(program: Program) -> Self {
        VerifiedProgram {
            program,
            stats: VerifierStats::default(),
            log: None,
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// How many `(pc, state)` pairs verification explored.
    pub fn states_explored(&self) -> usize {
        self.stats.states_explored
    }

    /// Summary statistics from the verification run.
    pub fn stats(&self) -> &VerifierStats {
        &self.stats
    }

    /// The rendered verifier log, when verification ran with logging
    /// enabled ([`Verifier::verify_logged`]).
    pub fn log(&self) -> Option<&str> {
        self.log.as_deref()
    }
}

/// A `(pc, state)` pair with its hash, computed once when the walk
/// first reaches the pair and carried with it, so no set ever
/// rehashes the 504-byte state. The hash only narrows a lookup to a
/// chain of candidates; membership is decided by exact comparison.
#[derive(Clone, Copy)]
struct Visit {
    hash: u64,
    pc: usize,
    state: AbsState,
}

impl Visit {
    fn new(pc: usize, state: AbsState) -> Self {
        let mut h = WordHasher::default();
        pc.hash(&mut h);
        state.hash(&mut h);
        Visit {
            hash: h.finish(),
            pc,
            state,
        }
    }

    fn same(&self, other: &Visit) -> bool {
        self.pc == other.pc && self.state == other.state
    }
}

/// End of an index chain.
const NO_INDEX: u32 = u32::MAX;

/// The fully explored visits. The visits live in one arena; the
/// table maps each hash to the newest arena index with that hash, and
/// `older` chains the rest, so the table itself stays a few bytes per
/// entry however large the states are.
struct Explored {
    visits: Vec<Visit>,
    older: Vec<u32>,
    newest: HashMap<u64, u32, WordState>,
}

impl Explored {
    fn with_capacity(n: usize) -> Self {
        Explored {
            visits: Vec::new(),
            older: Vec::new(),
            newest: HashMap::with_capacity_and_hasher(n, WordState::default()),
        }
    }

    fn contains(&self, v: &Visit) -> bool {
        let mut i = self.newest.get(&v.hash).copied().unwrap_or(NO_INDEX);
        while i != NO_INDEX {
            if self.visits[i as usize].same(v) {
                return true;
            }
            i = self.older[i as usize];
        }
        false
    }

    /// Adds a visit the set does not hold yet.
    fn insert(&mut self, v: Visit) {
        let i = self.visits.len() as u32;
        self.older
            .push(self.newest.insert(v.hash, i).unwrap_or(NO_INDEX));
        self.visits.push(v);
    }
}

/// One node on the depth-first walk path: the state being explored
/// at `pc`, how many of its successors still wait on the shared
/// successor stack, and the next frame down the path whose visit has
/// the same hash.
struct Frame {
    visit: Visit,
    depth: usize,
    branched: bool,
    pending: usize,
    shadowed: u32,
}

/// The successors of one abstract step, in exploration order: none
/// for `exit`, one for straight-line code, at most two for a
/// conditional branch. Held inline, so a step allocates nothing.
#[derive(Default)]
struct Succs([Option<(usize, AbsState)>; 2]);

impl Succs {
    fn one(pc: usize, st: AbsState) -> Self {
        Succs([Some((pc, st)), None])
    }

    fn two(first: (usize, AbsState), second: (usize, AbsState)) -> Self {
        Succs([Some(first), Some(second)])
    }

    fn push(&mut self, succ: (usize, AbsState)) {
        let slot = usize::from(self.0[0].is_some());
        self.0[slot] = Some(succ);
    }

    fn len(&self) -> usize {
        self.0.iter().flatten().count()
    }
}

impl IntoIterator for Succs {
    type Item = (usize, AbsState);
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<(usize, AbsState)>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// The verifier. Holds the map set (for bounds/signature data) and
/// the kfunc signatures.
#[derive(Debug)]
pub struct Verifier<'a> {
    maps: &'a MapSet,
    kfuncs: &'a [KfuncSig],
}

impl<'a> Verifier<'a> {
    /// Creates a verifier against a map set and kfunc registry.
    pub fn new(maps: &'a MapSet, kfuncs: &'a [KfuncSig]) -> Self {
        Verifier { maps, kfuncs }
    }

    /// Verifies `program`.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found on any path.
    pub fn verify(&self, program: &Program) -> Result<VerifiedProgram, VerifyError> {
        self.verify_impl(program, false).0
    }

    /// Verifies `program` with the verifier log enabled; the log is
    /// returned alongside the result (and also retained on the
    /// [`VerifiedProgram`] on success).
    pub fn verify_logged(
        &self,
        program: &Program,
    ) -> (Result<VerifiedProgram, VerifyError>, VerifierLog) {
        self.verify_impl(program, true)
    }

    fn verify_impl(
        &self,
        program: &Program,
        want_log: bool,
    ) -> (Result<VerifiedProgram, VerifyError>, VerifierLog) {
        let mut log = VerifierLog {
            enabled: want_log,
            ..VerifierLog::default()
        };
        log.note(|| format!("verifying program `{}`", program.name()));

        if program.is_empty() {
            let e = VerifyError::new(None, VerifyErrorKind::EmptyProgram);
            log.note_critical(|| format!("rejected: {e}"));
            return (Err(e), log);
        }

        let insns = program.insns();
        let reachable = static_reachable(insns);
        // Memory of *fully explored* states: exact `(pc, state)`
        // pairs for O(1) revisit pruning, plus per-pc wider-than-a-
        // point states for subsumption pruning. States still on the
        // walk path are tracked separately — pruning against an
        // unfinished state would let a loop justify itself
        // circularly.
        let mut explored = Explored::with_capacity(insns.len() * 4);
        let mut wide: Vec<Vec<AbsState>> = vec![Vec::new(); insns.len()];
        // The newest path frame for each hash on the path; older ones
        // chain through `Frame::shadowed`.
        let mut on_path: HashMap<u64, u32, WordState> =
            HashMap::with_capacity_and_hasher(insns.len(), WordState::default());
        let mut visited = vec![false; insns.len()];
        let mut stats = VerifierStats::default();

        let reject = |e: VerifyError, stats: VerifierStats, mut log: VerifierLog| {
            log.note_critical(|| format!("rejected: {e}"));
            log.stats = stats;
            (Err(e), log)
        };

        // Depth-first walk with an explicit path. A state is pruned
        // only against states whose whole subtree already verified;
        // re-entering a (pc, state) still on the current path is a
        // cycle with no abstract progress — an unprovable loop. Each
        // frame's unvisited successors sit on top of `succs` whenever
        // that frame is the top of the path.
        let mut path: Vec<Frame> = Vec::with_capacity(insns.len());
        let mut succs: Vec<(usize, AbsState)> = Vec::with_capacity(insns.len());
        let mut next: Option<(usize, AbsState, Option<usize>, usize)> =
            Some((0, AbsState::entry(), None, 0));

        'walk: loop {
            if let Some((pc, state, parent, depth)) = next.take() {
                stats.peak_branch_depth = stats.peak_branch_depth.max(depth);

                if pc >= insns.len() {
                    let e =
                        VerifyError::new(Some(pc.saturating_sub(1)), VerifyErrorKind::FallOffEnd)
                            .with_regs(&state);
                    return reject(e, stats, log);
                }

                let visit = Visit::new(pc, state);
                if explored.contains(&visit) {
                    stats.states_pruned += 1;
                    log.note(|| format!("{pc}: pruned (state already explored)"));
                } else if wide[pc].iter().any(|w| w.subsumes(&state)) {
                    stats.states_pruned += 1;
                    log.note(|| format!("{pc}: pruned (subsumed by wider explored state)"));
                } else if path_contains(&path, &on_path, &visit) {
                    let from = parent.unwrap_or(pc);
                    let e = VerifyError::new(
                        Some(from),
                        VerifyErrorKind::InfiniteLoop { from, to: pc },
                    )
                    .with_regs(&state);
                    return reject(e, stats, log);
                } else {
                    stats.insns_processed += 1;
                    stats.states_explored += 1;
                    if stats.states_explored > COMPLEXITY_LIMIT {
                        let e = VerifyError::new(Some(pc), VerifyErrorKind::TooComplex)
                            .with_regs(&state);
                        return reject(e, stats, log);
                    }
                    visited[pc] = true;
                    log.note(|| format!("{pc}: {} ; {}", insns[pc], format_regs(&state)));

                    let step = match self.step(pc, insns[pc], state, insns.len()) {
                        Ok(s) => s,
                        Err(e) => return reject(e.with_regs(&state), stats, log),
                    };
                    let pending = step.len();
                    succs.extend(step);
                    let shadowed = on_path
                        .insert(visit.hash, path.len() as u32)
                        .unwrap_or(NO_INDEX);
                    path.push(Frame {
                        visit,
                        depth,
                        branched: pending > 1,
                        pending,
                        shadowed,
                    });
                }
            }

            // Advance to the next unvisited successor (last pushed
            // first), retiring fully explored frames into the prune
            // sets as we pop.
            next = loop {
                let Some(top) = path.last_mut() else {
                    break 'walk;
                };
                if top.pending > 0 {
                    top.pending -= 1;
                    let (npc, nst) = succs.pop().expect("the top frame's successors");
                    break Some((
                        npc,
                        nst,
                        Some(top.visit.pc),
                        top.depth + usize::from(top.branched),
                    ));
                }
                let Frame {
                    visit: done,
                    shadowed,
                    ..
                } = path.pop().expect("path non-empty");
                if shadowed == NO_INDEX {
                    on_path.remove(&done.hash);
                } else {
                    on_path.insert(done.hash, shadowed);
                }
                if done.state.widenable() && wide[done.pc].len() < WIDE_CAND_LIMIT {
                    wide[done.pc].push(done.state);
                }
                explored.insert(done);
            };
        }

        // Static dead code is a rejection; dynamically-pruned (but
        // statically reachable) instructions are only a statistic.
        for pc in 0..insns.len() {
            if !reachable[pc] {
                let e = VerifyError::new(Some(pc), VerifyErrorKind::DeadCode);
                return reject(e, stats, log);
            }
            if !visited[pc] {
                stats.dead_insns += 1;
                log.note(|| format!("{pc}: never reached (branch pruning)"));
            }
        }

        log.note_critical(|| {
            format!(
                "verification OK: {} insns, {} states",
                insns.len(),
                stats.states_explored
            )
        });
        log.stats = stats.clone();
        let rendered = want_log.then(|| log.render());
        (
            Ok(VerifiedProgram {
                program: program.clone(),
                stats,
                log: rendered,
            }),
            log,
        )
    }

    /// Executes one instruction abstractly, returning successor
    /// states (empty for `exit`).
    fn step(
        &self,
        pc: usize,
        insn: Insn,
        mut st: AbsState,
        prog_len: usize,
    ) -> Result<Succs, VerifyError> {
        let err = |kind| VerifyError::new(Some(pc), kind);
        let jump_target = |off: i32| -> Result<usize, VerifyError> {
            let target = pc as i64 + 1 + off as i64;
            if target < 0 || target as usize >= prog_len {
                return Err(err(VerifyErrorKind::JumpOutOfProgram));
            }
            Ok(target as usize)
        };

        match insn {
            Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                let wide = matches!(insn, Insn::Alu64 { .. });
                let src_ty = match src {
                    Operand::Imm(v) => RegType::scalar_exact(v),
                    Operand::Reg(r) => {
                        let t = st.regs[r.index()];
                        if t == RegType::Uninit {
                            return Err(err(VerifyErrorKind::UninitRegister(r)));
                        }
                        t
                    }
                };
                let dst_ty = st.regs[dst.index()];
                let new_ty = if op == AluOp::Mov {
                    // Moves propagate types (including pointers).
                    if wide {
                        src_ty
                    } else {
                        // 32-bit move truncates: pointers may not be
                        // truncated.
                        match src_ty {
                            RegType::Scalar(s) => match s.const_value() {
                                Some(v) => RegType::scalar_exact((v as u64 as u32) as i64),
                                None => RegType::Scalar(range_u32()),
                            },
                            _ => return Err(err(VerifyErrorKind::BadPointerArithmetic(dst))),
                        }
                    }
                } else {
                    if dst_ty == RegType::Uninit {
                        return Err(err(VerifyErrorKind::UninitRegister(dst)));
                    }
                    match (dst_ty, src_ty) {
                        // Scalar op scalar.
                        (RegType::Scalar(a), RegType::Scalar(b)) => {
                            RegType::Scalar(alu_range(op, wide, a, b))
                        }
                        // Pointer +/- bounded scalar.
                        (RegType::FramePtr, RegType::Scalar(k))
                            if wide && (op == AluOp::Add || op == AluOp::Sub) =>
                        {
                            let voff = voff_add(VarOff::exact(0), k, op == AluOp::Sub)
                                .ok_or_else(|| err(VerifyErrorKind::BadPointerArithmetic(dst)))?;
                            RegType::StackPtr(voff)
                        }
                        (RegType::StackPtr(off), RegType::Scalar(k))
                            if wide && (op == AluOp::Add || op == AluOp::Sub) =>
                        {
                            let voff = voff_add(off, k, op == AluOp::Sub)
                                .ok_or_else(|| err(VerifyErrorKind::BadPointerArithmetic(dst)))?;
                            RegType::StackPtr(voff)
                        }
                        (RegType::MapValue(m, off), RegType::Scalar(k))
                            if wide && (op == AluOp::Add || op == AluOp::Sub) =>
                        {
                            let voff = voff_add(off, k, op == AluOp::Sub)
                                .ok_or_else(|| err(VerifyErrorKind::BadPointerArithmetic(dst)))?;
                            RegType::MapValue(m, voff)
                        }
                        _ => return Err(err(VerifyErrorKind::BadPointerArithmetic(dst))),
                    }
                };
                st.regs[dst.index()] = new_ty;
                Ok(Succs::one(pc + 1, st))
            }
            Insn::Neg { dst } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                match st.regs[dst.index()] {
                    RegType::Scalar(s) => {
                        st.regs[dst.index()] = RegType::Scalar(neg_range(s));
                        Ok(Succs::one(pc + 1, st))
                    }
                    RegType::Uninit => Err(err(VerifyErrorKind::UninitRegister(dst))),
                    _ => Err(err(VerifyErrorKind::BadPointerArithmetic(dst))),
                }
            }
            Insn::LoadImm64 { dst, imm } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                st.regs[dst.index()] = RegType::scalar_exact(imm);
                Ok(Succs::one(pc + 1, st))
            }
            Insn::LoadMapRef { dst, map } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                if self.maps.def(map).is_err() {
                    return Err(err(VerifyErrorKind::UnknownMap(map)));
                }
                st.regs[dst.index()] = RegType::MapRef(map);
                Ok(Succs::one(pc + 1, st))
            }
            Insn::LoadCtx { dst, index } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                if index >= MAX_CTX_WORDS {
                    return Err(err(VerifyErrorKind::BadCtxIndex(index)));
                }
                st.regs[dst.index()] = RegType::scalar_unknown();
                Ok(Succs::one(pc + 1, st))
            }
            Insn::Load {
                dst,
                base,
                off,
                size,
            } => {
                if dst.is_frame_pointer() {
                    return Err(err(VerifyErrorKind::FramePointerWrite));
                }
                self.check_mem(&st, pc, base, off, size)?;
                // Reads of initialized stack must be checked over the
                // whole offset range.
                if let Some((lo, hi)) = stack_byte_span(&st.regs[base.index()], off) {
                    if !st.stack_is_init(lo, hi - lo + size.bytes()) {
                        return Err(err(VerifyErrorKind::UninitStackRead {
                            off: rel_bounds(&st.regs[base.index()], off).0,
                        }));
                    }
                }
                st.regs[dst.index()] = RegType::scalar_unknown();
                Ok(Succs::one(pc + 1, st))
            }
            Insn::Store {
                base,
                off,
                src,
                size,
            } => {
                match st.regs[src.index()] {
                    RegType::Scalar(_) => {}
                    RegType::Uninit => return Err(err(VerifyErrorKind::UninitRegister(src))),
                    _ => return Err(err(VerifyErrorKind::PointerSpill(src))),
                }
                self.check_mem(&st, pc, base, off, size)?;
                if let Some((lo, hi)) = stack_byte_span(&st.regs[base.index()], off) {
                    // Only an exactly-known slot becomes initialized;
                    // a variable-offset store hits *some* slot.
                    if lo == hi {
                        st.stack_mark_init(lo, size.bytes());
                    }
                }
                Ok(Succs::one(pc + 1, st))
            }
            Insn::StoreImm {
                base, off, size, ..
            } => {
                self.check_mem(&st, pc, base, off, size)?;
                if let Some((lo, hi)) = stack_byte_span(&st.regs[base.index()], off) {
                    if lo == hi {
                        st.stack_mark_init(lo, size.bytes());
                    }
                }
                Ok(Succs::one(pc + 1, st))
            }
            Insn::Jump { off } => {
                let target = jump_target(off)?;
                Ok(Succs::one(target, st))
            }
            Insn::JumpIf {
                cond,
                dst,
                src,
                off,
            } => {
                let target = jump_target(off)?;
                let dst_ty = st.regs[dst.index()];
                if dst_ty == RegType::Uninit {
                    return Err(err(VerifyErrorKind::UninitRegister(dst)));
                }
                let src_range = match src {
                    Operand::Imm(v) => ScalarRange::exact(v),
                    Operand::Reg(r) => match st.regs[r.index()] {
                        RegType::Uninit => return Err(err(VerifyErrorKind::UninitRegister(r))),
                        RegType::Scalar(s) => s,
                        _ => return Err(err(VerifyErrorKind::PointerComparison)),
                    },
                };

                // Null-check refinement: `if rX ==/!= 0` on a
                // maybe-null map value.
                if let RegType::MapValueOrNull(map) = dst_ty {
                    let zero_imm = matches!(src, Operand::Imm(0));
                    if zero_imm && (cond == JmpCond::Eq || cond == JmpCond::Ne) {
                        let mut null_state = st;
                        null_state.regs[dst.index()] = RegType::scalar_exact(0);
                        let mut valid_state = st;
                        valid_state.regs[dst.index()] = RegType::MapValue(map, VarOff::exact(0));
                        return Ok(if cond == JmpCond::Eq {
                            Succs::two((target, null_state), (pc + 1, valid_state))
                        } else {
                            Succs::two((target, valid_state), (pc + 1, null_state))
                        });
                    }
                    return Err(err(VerifyErrorKind::PossiblyNull(dst)));
                }
                let dst_range = match dst_ty {
                    RegType::Scalar(s) => s,
                    _ => return Err(err(VerifyErrorKind::PointerComparison)),
                };

                // Branch pruning: each direction gets ranges refined
                // by the condition; a provably-infeasible direction
                // is simply not explored.
                let mut succs = Succs::default();
                if let Some((d, s)) = refine_branch(cond, true, dst_range, src_range) {
                    let mut t = st;
                    t.regs[dst.index()] = RegType::Scalar(d);
                    if let Operand::Reg(r) = src {
                        t.regs[r.index()] = RegType::Scalar(s);
                    }
                    succs.push((target, t));
                }
                if let Some((d, s)) = refine_branch(cond, false, dst_range, src_range) {
                    let mut t = st;
                    t.regs[dst.index()] = RegType::Scalar(d);
                    if let Operand::Reg(r) = src {
                        t.regs[r.index()] = RegType::Scalar(s);
                    }
                    succs.push((pc + 1, t));
                }
                Ok(succs)
            }
            Insn::Call { helper } => {
                self.check_helper(&mut st, pc, helper)?;
                Ok(Succs::one(pc + 1, st))
            }
            Insn::CallKfunc { kfunc } => {
                let sig = self
                    .kfuncs
                    .get(kfunc as usize)
                    .ok_or_else(|| err(VerifyErrorKind::UnknownKfunc(kfunc)))?;
                for i in 1..=sig.args {
                    let r = Reg::new(i);
                    if !matches!(st.regs[r.index()], RegType::Scalar(_)) {
                        return Err(err(VerifyErrorKind::BadKfuncArg { kfunc, arg: r }));
                    }
                }
                clobber_caller_saved(&mut st);
                st.regs[0] = RegType::scalar_unknown();
                Ok(Succs::one(pc + 1, st))
            }
            Insn::Exit => {
                if !matches!(st.regs[0], RegType::Scalar(_)) {
                    return Err(err(VerifyErrorKind::BadReturnValue));
                }
                Ok(Succs::default())
            }
        }
    }

    /// Validates a memory access through `base + off` of `size`,
    /// over the base pointer's whole offset range.
    fn check_mem(
        &self,
        st: &AbsState,
        pc: usize,
        base: Reg,
        off: i16,
        size: AccessSize,
    ) -> Result<(), VerifyError> {
        let err = |kind| VerifyError::new(Some(pc), kind);
        let sz = size.bytes() as i64;
        match &st.regs[base.index()] {
            RegType::FramePtr | RegType::StackPtr(_) => {
                let (lo, hi) = rel_bounds(&st.regs[base.index()], off);
                let ok = lo >= -(STACK_SIZE as i64) && hi + sz <= 0 && lo % sz == 0 && hi % sz == 0;
                if !ok {
                    let bad = if lo < -(STACK_SIZE as i64) || lo % sz != 0 {
                        lo
                    } else {
                        hi
                    };
                    return Err(err(VerifyErrorKind::BadStackAccess { off: bad }));
                }
                Ok(())
            }
            RegType::MapValue(map, voff) => {
                let def = self
                    .maps
                    .def(*map)
                    .map_err(|_| err(VerifyErrorKind::UnknownMap(*map)))?;
                let lo = voff.min as i64 + off as i64;
                let hi = voff.max as i64 + off as i64;
                let ok =
                    lo >= 0 && hi + sz <= def.value_size as i64 && lo % sz == 0 && hi % sz == 0;
                if !ok {
                    let bad = if lo < 0 || lo % sz != 0 { lo } else { hi };
                    return Err(err(VerifyErrorKind::MapValueOutOfBounds {
                        map: *map,
                        off: bad,
                        value_size: def.value_size,
                    }));
                }
                Ok(())
            }
            RegType::MapValueOrNull(_) => Err(err(VerifyErrorKind::PossiblyNull(base))),
            RegType::Uninit => Err(err(VerifyErrorKind::UninitRegister(base))),
            _ => Err(err(VerifyErrorKind::BadPointer(base))),
        }
    }

    fn check_helper(
        &self,
        st: &mut AbsState,
        pc: usize,
        helper: HelperId,
    ) -> Result<(), VerifyError> {
        let err = |kind| VerifyError::new(Some(pc), kind);
        let bad = |arg: Reg, expected: &'static str| {
            VerifyError::new(
                Some(pc),
                VerifyErrorKind::BadHelperArg {
                    helper,
                    arg,
                    expected,
                },
            )
        };

        /// Requires `r` to be a stack pointer to `len` initialized
        /// bytes for every offset in its range.
        fn stack_buf(
            st: &AbsState,
            r: Reg,
            len: u32,
            mk: impl Fn(Reg, &'static str) -> VerifyError,
        ) -> Result<(), VerifyError> {
            match &st.regs[r.index()] {
                RegType::StackPtr(voff) => {
                    let lo = voff.min as i64;
                    let hi = voff.max as i64;
                    if lo < -(STACK_SIZE as i64) || hi + len as i64 > 0 {
                        return Err(mk(r, "in-bounds stack pointer"));
                    }
                    let start = (STACK_SIZE as i64 + lo) as usize;
                    let span = (hi - lo) as usize + len as usize;
                    if !st.stack_is_init(start, span) {
                        return Err(mk(r, "pointer to initialized stack bytes"));
                    }
                    Ok(())
                }
                _ => Err(mk(r, "stack pointer")),
            }
        }

        let ret = match helper {
            HelperId::MapLookup => {
                let map = match st.regs[Reg::R1.index()] {
                    RegType::MapRef(m) => m,
                    _ => return Err(bad(Reg::R1, "map reference")),
                };
                let def = self
                    .maps
                    .def(map)
                    .map_err(|_| err(VerifyErrorKind::UnknownMap(map)))?;
                if def.kind == MapKind::RingBuf {
                    return Err(bad(Reg::R1, "array, per-cpu array, or hash map"));
                }
                stack_buf(st, Reg::R2, def.key_size, bad)?;
                RegType::MapValueOrNull(map)
            }
            HelperId::MapUpdate => {
                let map = match st.regs[Reg::R1.index()] {
                    RegType::MapRef(m) => m,
                    _ => return Err(bad(Reg::R1, "map reference")),
                };
                let def = self
                    .maps
                    .def(map)
                    .map_err(|_| err(VerifyErrorKind::UnknownMap(map)))?;
                if def.kind == MapKind::RingBuf || def.kind == MapKind::PerCpuArray {
                    // Programs mutate per-CPU slots through
                    // lookup + store; a whole-map update is a
                    // userspace-only operation.
                    return Err(bad(Reg::R1, "array or hash map"));
                }
                stack_buf(st, Reg::R2, def.key_size, bad)?;
                stack_buf(st, Reg::R3, def.value_size, bad)?;
                if !matches!(st.regs[Reg::R4.index()], RegType::Scalar(_)) {
                    return Err(bad(Reg::R4, "scalar flags"));
                }
                RegType::scalar_unknown()
            }
            HelperId::MapDelete => {
                let map = match st.regs[Reg::R1.index()] {
                    RegType::MapRef(m) => m,
                    _ => return Err(bad(Reg::R1, "map reference")),
                };
                let def = self
                    .maps
                    .def(map)
                    .map_err(|_| err(VerifyErrorKind::UnknownMap(map)))?;
                if def.kind != MapKind::Hash {
                    return Err(bad(Reg::R1, "hash map"));
                }
                stack_buf(st, Reg::R2, def.key_size, bad)?;
                RegType::scalar_unknown()
            }
            HelperId::KtimeGetNs | HelperId::GetSmpProcessorId => RegType::scalar_unknown(),
            HelperId::TracePrintk => {
                if !matches!(st.regs[Reg::R1.index()], RegType::Scalar(_)) {
                    return Err(bad(Reg::R1, "scalar format id"));
                }
                RegType::scalar_unknown()
            }
            HelperId::RingbufOutput => {
                let map = match st.regs[Reg::R1.index()] {
                    RegType::MapRef(m) => m,
                    _ => return Err(bad(Reg::R1, "ring buffer map")),
                };
                let def = self
                    .maps
                    .def(map)
                    .map_err(|_| err(VerifyErrorKind::UnknownMap(map)))?;
                if def.kind != MapKind::RingBuf {
                    return Err(bad(Reg::R1, "ring buffer map"));
                }
                let size = match st.regs[Reg::R3.index()] {
                    RegType::Scalar(s) => match s.const_value() {
                        Some(v) if v > 0 && v <= STACK_SIZE as i64 => v as u32,
                        _ => return Err(err(VerifyErrorKind::UnknownRingSize)),
                    },
                    _ => return Err(bad(Reg::R3, "scalar size")),
                };
                stack_buf(st, Reg::R2, size, bad)?;
                if !matches!(st.regs[Reg::R4.index()], RegType::Scalar(_)) {
                    return Err(bad(Reg::R4, "scalar flags"));
                }
                RegType::scalar_unknown()
            }
        };
        clobber_caller_saved(st);
        st.regs[0] = ret;
        Ok(())
    }
}

/// Whether `v` is on the walk path: the frames with its hash, newest
/// first, compared exactly.
fn path_contains(path: &[Frame], newest: &HashMap<u64, u32, WordState>, v: &Visit) -> bool {
    let mut i = newest.get(&v.hash).copied().unwrap_or(NO_INDEX);
    while i != NO_INDEX {
        let frame = &path[i as usize];
        if frame.visit.same(v) {
            return true;
        }
        i = frame.shadowed;
    }
    false
}

/// Caller-saved registers become uninitialized after a call.
pub(crate) fn clobber_caller_saved(st: &mut AbsState) {
    for i in 1..=5 {
        st.regs[i] = RegType::Uninit;
    }
}

/// Inclusive min/max byte offset of an access relative to the frame
/// pointer, for stack-based registers.
fn rel_bounds(base: &RegType, off: i16) -> (i64, i64) {
    match base {
        RegType::FramePtr => (off as i64, off as i64),
        RegType::StackPtr(v) => (v.min as i64 + off as i64, v.max as i64 + off as i64),
        _ => (off as i64, off as i64),
    }
}

/// Inclusive min/max index into the stack byte array for a stack
/// access, or `None` for non-stack bases. Only meaningful after
/// `check_mem` has validated the access.
fn stack_byte_span(base: &RegType, off: i16) -> Option<(usize, usize)> {
    match base {
        RegType::FramePtr | RegType::StackPtr(_) => {
            let (lo, hi) = rel_bounds(base, off);
            Some((
                (STACK_SIZE as i64 + lo) as usize,
                (STACK_SIZE as i64 + hi) as usize,
            ))
        }
        _ => None,
    }
}

/// The full zero-extended 32-bit result range.
pub(crate) fn range_u32() -> ScalarRange {
    ScalarRange {
        smin: 0,
        smax: u32::MAX as i64,
        umin: 0,
        umax: u32::MAX as u64,
    }
}

/// Adds (or subtracts) a bounded scalar to a pointer offset range;
/// `None` when any resulting offset leaves `i32` (unprovable
/// pointer arithmetic).
fn voff_add(base: VarOff, k: ScalarRange, sub: bool) -> Option<VarOff> {
    let (dmin, dmax) = if sub {
        (k.smax.checked_neg()?, k.smin.checked_neg()?)
    } else {
        (k.smin, k.smax)
    };
    let lo = (base.min as i64).checked_add(dmin)?;
    let hi = (base.max as i64).checked_add(dmax)?;
    Some(VarOff {
        min: i32::try_from(lo).ok()?,
        max: i32::try_from(hi).ok()?,
    })
}

pub(crate) fn neg_range(r: ScalarRange) -> ScalarRange {
    match (r.smax.checked_neg(), r.smin.checked_neg()) {
        (Some(lo), Some(hi)) => ScalarRange {
            smin: lo,
            smax: hi,
            umin: 0,
            umax: u64::MAX,
        }
        .deduce(),
        _ => ScalarRange::unknown(),
    }
}

/// The range transfer function for ALU ops. Constant operands fold
/// exactly (via the interpreter-mirroring `eval_alu*`); otherwise
/// each op derives the tightest cheap interval and cross-deduces.
pub(crate) fn alu_range(op: AluOp, wide: bool, a: ScalarRange, b: ScalarRange) -> ScalarRange {
    if let (Some(x), Some(y)) = (a.const_value(), b.const_value()) {
        let v = if wide {
            eval_alu64(op, x, y)
        } else {
            eval_alu32(op, x, y)
        };
        if let Some(v) = v {
            return ScalarRange::exact(v);
        }
    }
    if !wide {
        // 32-bit results are zero-extended: always within u32.
        return range_u32();
    }
    let full = ScalarRange::unknown();
    let r = match op {
        AluOp::Add => {
            let (smin, smax) = match (a.smin.checked_add(b.smin), a.smax.checked_add(b.smax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (i64::MIN, i64::MAX),
            };
            let (umin, umax) = match (a.umin.checked_add(b.umin), a.umax.checked_add(b.umax)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (0, u64::MAX),
            };
            ScalarRange {
                smin,
                smax,
                umin,
                umax,
            }
        }
        AluOp::Sub => {
            let (smin, smax) = match (a.smin.checked_sub(b.smax), a.smax.checked_sub(b.smin)) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => (i64::MIN, i64::MAX),
            };
            let (umin, umax) = if a.umin >= b.umax {
                (a.umin - b.umax, a.umax.saturating_sub(b.umin))
            } else {
                (0, u64::MAX)
            };
            ScalarRange {
                smin,
                smax,
                umin,
                umax,
            }
        }
        AluOp::Mul => match a.umax.checked_mul(b.umax) {
            Some(hi) => ScalarRange {
                smin: i64::MIN,
                smax: i64::MAX,
                umin: a.umin.saturating_mul(b.umin),
                umax: hi,
            },
            None => full,
        },
        AluOp::Div => {
            if let Some(c) = b.const_value() {
                let cu = c as u64;
                match (a.umin.checked_div(cu), a.umax.checked_div(cu)) {
                    (Some(lo), Some(hi)) => ScalarRange {
                        smin: i64::MIN,
                        smax: i64::MAX,
                        umin: lo,
                        umax: hi,
                    },
                    // Division by zero yields 0 by definition.
                    _ => ScalarRange::exact(0),
                }
            } else {
                // An unsigned quotient never exceeds the dividend.
                ScalarRange {
                    smin: i64::MIN,
                    smax: i64::MAX,
                    umin: 0,
                    umax: a.umax,
                }
            }
        }
        AluOp::Mod => ScalarRange {
            smin: i64::MIN,
            smax: i64::MAX,
            umin: 0,
            umax: a.umax.min(b.umax.saturating_sub(1)),
        },
        AluOp::And => ScalarRange {
            smin: i64::MIN,
            smax: i64::MAX,
            umin: 0,
            umax: a.umax.min(b.umax),
        },
        AluOp::Or => {
            let hi = a.umax.max(b.umax);
            let umax = hi
                .checked_add(1)
                .and_then(u64::checked_next_power_of_two)
                .map_or(u64::MAX, |p| p - 1);
            ScalarRange {
                smin: i64::MIN,
                smax: i64::MAX,
                umin: a.umin.max(b.umin),
                umax,
            }
        }
        AluOp::Xor => {
            let hi = a.umax.max(b.umax);
            let umax = hi
                .checked_add(1)
                .and_then(u64::checked_next_power_of_two)
                .map_or(u64::MAX, |p| p - 1);
            ScalarRange {
                smin: i64::MIN,
                smax: i64::MAX,
                umin: 0,
                umax,
            }
        }
        AluOp::Lsh => {
            if let Some(c) = b.const_value() {
                let sh = (c as u64 & 63) as u32;
                if a.umax.leading_zeros() >= sh {
                    ScalarRange {
                        smin: i64::MIN,
                        smax: i64::MAX,
                        umin: a.umin << sh,
                        umax: a.umax << sh,
                    }
                } else {
                    full
                }
            } else {
                full
            }
        }
        AluOp::Rsh => {
            if let Some(c) = b.const_value() {
                let sh = (c as u64 & 63) as u32;
                ScalarRange {
                    smin: i64::MIN,
                    smax: i64::MAX,
                    umin: a.umin >> sh,
                    umax: a.umax >> sh,
                }
            } else {
                // A logical right shift can only shrink the value.
                ScalarRange {
                    smin: i64::MIN,
                    smax: i64::MAX,
                    umin: 0,
                    umax: a.umax,
                }
            }
        }
        AluOp::Arsh => {
            if let Some(c) = b.const_value() {
                let sh = (c as u64 & 63) as u32;
                ScalarRange {
                    smin: a.smin >> sh,
                    smax: a.smax >> sh,
                    umin: 0,
                    umax: u64::MAX,
                }
            } else {
                full
            }
        }
        AluOp::Mov => b,
    };
    let r = r.deduce();
    if r.is_valid() {
        r
    } else {
        full
    }
}

pub(crate) fn intersect(a: ScalarRange, b: ScalarRange) -> ScalarRange {
    ScalarRange {
        smin: a.smin.max(b.smin),
        smax: a.smax.min(b.smax),
        umin: a.umin.max(b.umin),
        umax: a.umax.min(b.umax),
    }
}

/// Refines `a < b` (unsigned); `None` when provably infeasible.
fn refine_ult(a: &mut ScalarRange, b: &mut ScalarRange) -> Option<()> {
    a.umax = a.umax.min(b.umax.checked_sub(1)?);
    b.umin = b.umin.max(a.umin.checked_add(1)?);
    Some(())
}

/// Refines `a <= b` (unsigned).
fn refine_ule(a: &mut ScalarRange, b: &mut ScalarRange) {
    a.umax = a.umax.min(b.umax);
    b.umin = b.umin.max(a.umin);
}

/// Refines `a < b` (signed); `None` when provably infeasible.
fn refine_slt(a: &mut ScalarRange, b: &mut ScalarRange) -> Option<()> {
    a.smax = a.smax.min(b.smax.checked_sub(1)?);
    b.smin = b.smin.max(a.smin.checked_add(1)?);
    Some(())
}

/// Refines `a <= b` (signed).
fn refine_sle(a: &mut ScalarRange, b: &mut ScalarRange) {
    a.smax = a.smax.min(b.smax);
    b.smin = b.smin.max(a.smin);
}

/// Excludes the single value `c` from `r` when it sits on a bound;
/// `None` when `r` is exactly `{c}` (the branch is infeasible).
fn exclude(r: &mut ScalarRange, c: i64) -> Option<()> {
    if r.const_value() == Some(c) {
        return None;
    }
    let cu = c as u64;
    if r.umin == cu {
        r.umin = r.umin.checked_add(1)?;
    } else if r.umax == cu {
        r.umax = r.umax.checked_sub(1)?;
    }
    if r.smin == c {
        r.smin = r.smin.checked_add(1)?;
    } else if r.smax == c {
        r.smax = r.smax.checked_sub(1)?;
    }
    Some(())
}

/// Branch-condition refinement: the ranges `dst`/`src` take in the
/// `taken` (or fall-through) direction of `cond`, or `None` when
/// that direction is provably infeasible.
pub(crate) fn refine_branch(
    cond: JmpCond,
    taken: bool,
    d0: ScalarRange,
    s0: ScalarRange,
) -> Option<(ScalarRange, ScalarRange)> {
    use JmpCond::*;
    let mut d = d0;
    let mut s = s0;
    match (cond, taken) {
        (Eq, true) | (Ne, false) => {
            d = intersect(d, s);
            s = d;
        }
        (Eq, false) | (Ne, true) => {
            if let Some(c) = s0.const_value() {
                exclude(&mut d, c)?;
            } else if let Some(c) = d0.const_value() {
                exclude(&mut s, c)?;
            }
        }
        (Lt, true) | (Ge, false) => refine_ult(&mut d, &mut s)?,
        (Ge, true) | (Lt, false) => refine_ule(&mut s, &mut d),
        (Le, true) | (Gt, false) => refine_ule(&mut d, &mut s),
        (Gt, true) | (Le, false) => refine_ult(&mut s, &mut d)?,
        (SLt, true) | (SGe, false) => refine_slt(&mut d, &mut s)?,
        (SGe, true) | (SLt, false) => refine_sle(&mut s, &mut d),
        (SLe, true) | (SGt, false) => refine_sle(&mut d, &mut s),
        (SGt, true) | (SLe, false) => refine_slt(&mut s, &mut d)?,
        (Set, true) => d.umin = d.umin.max(1),
        (Set, false) => {}
    }
    let d = d.deduce();
    let s = s.deduce();
    if d.is_valid() && s.is_valid() {
        Some((d, s))
    } else {
        None
    }
}

/// Renders the non-uninit registers of a state, log/diagnostic style.
fn format_regs(st: &AbsState) -> String {
    let mut parts = Vec::new();
    for (i, r) in st.regs.iter().enumerate() {
        if matches!(r, RegType::Uninit) {
            continue;
        }
        parts.push(format!("r{i}={}", format_regtype(r)));
    }
    parts.join(" ")
}

fn format_regtype(r: &RegType) -> String {
    match r {
        RegType::Uninit => "uninit".into(),
        RegType::Scalar(s) => {
            if let Some(v) = s.const_value() {
                return format!("{v}");
            }
            let mut bounds = Vec::new();
            if s.smin != i64::MIN || s.smax != i64::MAX {
                bounds.push(format!("s{}..={}", s.smin, s.smax));
            }
            if s.umin != 0 || s.umax != u64::MAX {
                bounds.push(format!("u{}..={}", s.umin, s.umax));
            }
            if bounds.is_empty() {
                "scalar".into()
            } else {
                format!("scalar({})", bounds.join(","))
            }
        }
        RegType::FramePtr => "fp".into(),
        RegType::StackPtr(v) if v.is_exact() => format!("fp{:+}", v.min),
        RegType::StackPtr(v) => format!("fp[{:+}..{:+}]", v.min, v.max),
        RegType::MapRef(m) => format!("{m}"),
        RegType::MapValueOrNull(m) => format!("{m}_value_or_null"),
        RegType::MapValue(m, v) if v.is_exact() => format!("{m}_value+{}", v.min),
        RegType::MapValue(m, v) => format!("{m}_value+[{}..{}]", v.min, v.max),
    }
}

pub(crate) fn eval_alu64(op: AluOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => (a as u64).checked_div(b as u64).unwrap_or(0) as i64,
        AluOp::Mod => (a as u64).checked_rem(b as u64).map_or(0, |v| v as i64),
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => ((a as u64) << ((b as u64) & 63)) as i64,
        AluOp::Rsh => ((a as u64) >> ((b as u64) & 63)) as i64,
        AluOp::Arsh => a >> ((b as u64) & 63),
        AluOp::Mov => b,
    })
}

pub(crate) fn eval_alu32(op: AluOp, a: i64, b: i64) -> Option<i64> {
    let a32 = a as u32;
    let b32 = b as u32;
    let v: u32 = match op {
        AluOp::Add => a32.wrapping_add(b32),
        AluOp::Sub => a32.wrapping_sub(b32),
        AluOp::Mul => a32.wrapping_mul(b32),
        AluOp::Div => a32.checked_div(b32).unwrap_or(0),
        AluOp::Mod => a32.checked_rem(b32).unwrap_or(0),
        AluOp::Or => a32 | b32,
        AluOp::And => a32 & b32,
        AluOp::Xor => a32 ^ b32,
        AluOp::Lsh => a32.wrapping_shl(b32 & 31),
        AluOp::Rsh => a32.wrapping_shr(b32 & 31),
        AluOp::Arsh => ((a32 as i32) >> (b32 & 31)) as u32,
        AluOp::Mov => b32,
    };
    Some(v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapDef;
    use crate::program::ProgramBuilder;

    fn maps_with_array() -> (MapSet, MapId) {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        (maps, m)
    }

    fn verify(p: &Program, maps: &MapSet) -> Result<VerifiedProgram, VerifyError> {
        Verifier::new(maps, &[]).verify(p)
    }

    #[test]
    fn minimal_valid_program() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("ok");
        b.mov(Reg::R0, 0).exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn empty_program_rejected() {
        let maps = MapSet::new();
        let p = ProgramBuilder::new("empty").build().unwrap();
        assert_eq!(
            verify(&p, &maps).unwrap_err().kind,
            VerifyErrorKind::EmptyProgram
        );
    }

    #[test]
    fn uninitialized_register_read_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R0, Reg::R3).exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::UninitRegister(Reg::R3)
        );
    }

    #[test]
    fn exit_without_r0_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadReturnValue
        );
    }

    #[test]
    fn fall_off_end_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R0, 0); // no exit
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::FallOffEnd
        );
    }

    #[test]
    fn frame_pointer_write_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R10, 0).mov(Reg::R0, 0).exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::FramePointerWrite
        );
    }

    #[test]
    fn non_progressing_loop_rejected() {
        // The loop body recreates the exact same abstract state every
        // iteration — a provably non-terminating cycle.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("loop");
        let top = b.label();
        b.mov(Reg::R0, 0);
        b.bind(top).unwrap();
        b.mov(Reg::R0, 0).jump(top);
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::InfiniteLoop { .. }
        ));
    }

    #[test]
    fn runaway_counter_loop_exceeds_complexity_budget() {
        // Increment-forever makes abstract progress every iteration
        // (the counter's range keeps moving), so — like the kernel —
        // the walk burns through the state budget instead of
        // detecting a repeated state.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("runaway");
        let top = b.label();
        b.mov(Reg::R0, 0);
        b.bind(top).unwrap();
        b.add(Reg::R0, 1).jump(top);
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::TooComplex
        );
    }

    #[test]
    fn bounded_loop_verifies() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bounded");
        let top = b.label();
        let done = b.label();
        b.mov(Reg::R0, 0).mov(Reg::R6, 0);
        b.bind(top).unwrap();
        b.jump_if(JmpCond::Ge, Reg::R6, 5i64, done)
            .add(Reg::R0, 2)
            .add(Reg::R6, 1)
            .jump(top)
            .bind(done)
            .unwrap()
            .exit();
        let v = verify(&b.build().unwrap(), &maps).unwrap();
        assert!(v.states_explored() > 0);
    }

    #[test]
    fn loop_cost_scales_with_trip_count() {
        // Like the kernel, bounded loops are walked iteration by
        // iteration: a 1000-trip loop costs O(1000) states and
        // verifies well inside the complexity budget.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("trip1000");
        let top = b.label();
        let done = b.label();
        b.mov(Reg::R0, 0).mov(Reg::R6, 0);
        b.bind(top).unwrap();
        b.jump_if(JmpCond::Ge, Reg::R6, 1000i64, done)
            .add(Reg::R6, 1)
            .jump(top)
            .bind(done)
            .unwrap()
            .exit();
        let v = verify(&b.build().unwrap(), &maps).unwrap();
        assert!(
            v.states_explored() > 1000 && v.states_explored() < 5000,
            "expected O(trip count) states, got {}",
            v.states_explored()
        );
    }

    #[test]
    fn huge_trip_count_loop_exceeds_complexity_budget() {
        // A trip count big enough to blow the state budget is
        // rejected as too complex — the backstop that keeps
        // verification itself bounded.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("trip500k");
        let top = b.label();
        let done = b.label();
        b.mov(Reg::R0, 0).mov(Reg::R6, 0);
        b.bind(top).unwrap();
        b.jump_if(JmpCond::Ge, Reg::R6, 500_000i64, done)
            .add(Reg::R6, 1)
            .jump(top)
            .bind(done)
            .unwrap()
            .exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::TooComplex
        );
    }

    #[test]
    fn loop_over_unknown_but_bounded_count_verifies() {
        // The SnapBPF prefetch shape: trip count loaded at runtime,
        // clamped by a conditional, then used as the loop bound.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("clamped");
        let top = b.label();
        let done = b.label();
        let out = b.label();
        b.load_ctx(Reg::R6, 0)
            .jump_if(JmpCond::Gt, Reg::R6, 32i64, out)
            .mov(Reg::R7, 0);
        b.bind(top).unwrap();
        b.jump_if(JmpCond::Ge, Reg::R7, Reg::R6, done)
            .add(Reg::R7, 1)
            .jump(top)
            .bind(done)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit()
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 1)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn stack_roundtrip_verifies() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("stack");
        b.mov(Reg::R1, 7)
            .store(Reg::R10, -8, Reg::R1, AccessSize::B8)
            .load(Reg::R0, Reg::R10, -8, AccessSize::B8)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn uninitialized_stack_read_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.load(Reg::R0, Reg::R10, -8, AccessSize::B8).exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::UninitStackRead { .. }
        ));
    }

    #[test]
    fn out_of_bounds_stack_rejected() {
        let maps = MapSet::new();
        for off in [-520i16, 0, 8] {
            let mut b = ProgramBuilder::new("bad");
            b.store_imm(Reg::R10, off, 1, AccessSize::B8)
                .mov(Reg::R0, 0)
                .exit();
            assert!(
                matches!(
                    verify(&b.build().unwrap(), &maps).unwrap_err().kind,
                    VerifyErrorKind::BadStackAccess { .. }
                ),
                "offset {off} should be rejected"
            );
        }
    }

    #[test]
    fn misaligned_stack_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.store_imm(Reg::R10, -7, 1, AccessSize::B8)
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadStackAccess { .. }
        ));
    }

    #[test]
    fn computed_stack_pointer_verifies() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("ptr");
        b.mov(Reg::R1, Reg::R10)
            .add(Reg::R1, -16)
            .store_imm(Reg::R1, 0, 5, AccessSize::B8)
            .load(Reg::R0, Reg::R1, 0, AccessSize::B8)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn variable_stack_offset_verifies_when_bounds_checked() {
        // fp - 16 + (ctx & 8): offset range [-16, -8], 8-aligned at
        // both ends, writes stay in-bounds — no constant needed.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("varoff");
        b.load_ctx(Reg::R2, 0)
            .alu(AluOp::And, Reg::R2, 8i64)
            .mov(Reg::R1, Reg::R10)
            .add(Reg::R1, -16)
            .add(Reg::R1, Reg::R2)
            .store_imm(Reg::R1, 0, 7, AccessSize::B8)
            .mov(Reg::R0, 0)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn variable_stack_offset_out_of_bounds_rejected() {
        // fp - 16 + (ctx & 24): the upper end (+8) escapes the frame.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("varoff-bad");
        b.load_ctx(Reg::R2, 0)
            .alu(AluOp::And, Reg::R2, 24i64)
            .mov(Reg::R1, Reg::R10)
            .add(Reg::R1, -16)
            .add(Reg::R1, Reg::R2)
            .store_imm(Reg::R1, 0, 7, AccessSize::B8)
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadStackAccess { .. }
        ));
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let (maps, m) = maps_with_array();
        let mut b = ProgramBuilder::new("bad");
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            // Missing null check:
            .load(Reg::R0, Reg::R0, 0, AccessSize::B8)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::PossiblyNull(_)
        ));
    }

    #[test]
    fn map_lookup_with_null_check_verifies() {
        let (maps, m) = maps_with_array();
        let mut b = ProgramBuilder::new("good");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .mov(Reg::R6, Reg::R0)
            .jump_if(JmpCond::Eq, Reg::R6, 0i64, out)
            .load(Reg::R6, Reg::R6, 0, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let v = verify(&b.build().unwrap(), &maps).unwrap();
        assert!(v.states_explored() > 0);
    }

    #[test]
    fn map_value_bounds_enforced() {
        let (maps, m) = maps_with_array(); // value_size 8
        let mut b = ProgramBuilder::new("bad");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load(Reg::R0, Reg::R0, 8, AccessSize::B8) // off 8 out of bounds
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn variable_map_value_index_verifies_when_bounds_checked() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(16, 4)).unwrap(); // 16-byte values
        let mut b = ProgramBuilder::new("varmap");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load_ctx(Reg::R2, 0)
            .alu(AluOp::And, Reg::R2, 8i64) // in {0, 8}: both u64 slots ok
            .add(Reg::R0, Reg::R2)
            .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn unchecked_variable_map_value_index_rejected() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(16, 4)).unwrap();
        let mut b = ProgramBuilder::new("varmap-bad");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load_ctx(Reg::R2, 0)
            .alu(AluOp::And, Reg::R2, 24i64) // up to +24: escapes 16 bytes
            .add(Reg::R0, Reg::R2)
            .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::MapValueOutOfBounds { .. }
        ));
    }

    #[test]
    fn helper_signature_enforced() {
        let (maps, _m) = maps_with_array();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R1, 0) // scalar, not a map ref
            .mov(Reg::R2, Reg::R10)
            .call(HelperId::MapLookup)
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadHelperArg { .. }
        ));
    }

    #[test]
    fn uninitialized_key_buffer_rejected() {
        let (maps, m) = maps_with_array();
        let mut b = ProgramBuilder::new("bad");
        b.load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup) // key bytes never written
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadHelperArg { .. }
        ));
    }

    #[test]
    fn helper_clobbers_argument_registers() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R3, 9)
            .call(HelperId::KtimeGetNs)
            .mov(Reg::R0, Reg::R3) // r3 clobbered by the call
            .exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::UninitRegister(Reg::R3)
        );
    }

    #[test]
    fn callee_saved_registers_survive_calls() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("good");
        b.mov(Reg::R6, 9)
            .call(HelperId::KtimeGetNs)
            .mov(Reg::R0, Reg::R6)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn pointer_spill_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R1, Reg::R10)
            .store(Reg::R10, -8, Reg::R1, AccessSize::B8)
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::PointerSpill(_)
        ));
    }

    #[test]
    fn pointer_comparison_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        let out = b.label();
        b.mov(Reg::R1, Reg::R10)
            .jump_if(JmpCond::Eq, Reg::R1, 0i64, out)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(matches!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::PointerComparison
        ));
    }

    #[test]
    fn kfunc_signature_checked() {
        let maps = MapSet::new();
        let kfuncs = [KfuncSig {
            name: "snapbpf_prefetch",
            args: 3,
        }];
        // Valid: three scalar args.
        let mut b = ProgramBuilder::new("good");
        b.mov(Reg::R1, 1)
            .mov(Reg::R2, 2)
            .mov(Reg::R3, 3)
            .call_kfunc(0)
            .exit();
        assert!(Verifier::new(&maps, &kfuncs)
            .verify(&b.build().unwrap())
            .is_ok());

        // Invalid: r3 uninitialized.
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R1, 1).mov(Reg::R2, 2).call_kfunc(0).exit();
        assert!(matches!(
            Verifier::new(&maps, &kfuncs)
                .verify(&b.build().unwrap())
                .unwrap_err()
                .kind,
            VerifyErrorKind::BadKfuncArg { .. }
        ));

        // Invalid: unknown kfunc index.
        let mut b = ProgramBuilder::new("bad2");
        b.call_kfunc(7).exit();
        assert_eq!(
            Verifier::new(&maps, &kfuncs)
                .verify(&b.build().unwrap())
                .unwrap_err()
                .kind,
            VerifyErrorKind::UnknownKfunc(7)
        );
    }

    #[test]
    fn unknown_map_rejected() {
        let (maps, m) = maps_with_array();
        // Build a program against a map id from a *different* set.
        let mut other = MapSet::new();
        let m2 = other.create(MapDef::array(8, 16)).unwrap();
        let m3 = other.create(MapDef::array(8, 16)).unwrap();
        assert_eq!(m.as_u32(), m2.as_u32()); // same index, fine
        let mut b = ProgramBuilder::new("bad");
        b.load_map(Reg::R1, m3).mov(Reg::R0, 0).exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::UnknownMap(m3)
        );
    }

    #[test]
    fn ctx_index_bounds() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.load_ctx(Reg::R0, MAX_CTX_WORDS).exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadCtxIndex(MAX_CTX_WORDS)
        );
    }

    #[test]
    fn branchy_program_verifies_both_paths() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("branchy");
        let a = b.label();
        let done = b.label();
        b.load_ctx(Reg::R1, 0)
            .jump_if(JmpCond::Gt, Reg::R1, 10i64, a)
            .mov(Reg::R0, 1)
            .jump(done)
            .bind(a)
            .unwrap()
            .mov(Reg::R0, 2)
            .bind(done)
            .unwrap()
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn one_path_missing_r0_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        let a = b.label();
        let done = b.label();
        b.load_ctx(Reg::R1, 0)
            .jump_if(JmpCond::Gt, Reg::R1, 10i64, a)
            .mov(Reg::R0, 1) // only the fall-through sets r0
            .jump(done)
            .bind(a)
            .unwrap()
            .bind(done)
            .unwrap()
            .exit();
        assert_eq!(
            verify(&b.build().unwrap(), &maps).unwrap_err().kind,
            VerifyErrorKind::BadReturnValue
        );
    }

    #[test]
    fn dead_code_past_exit_rejected() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("dead");
        b.mov(Reg::R0, 0).exit().mov(Reg::R1, 1).exit();
        let e = verify(&b.build().unwrap(), &maps).unwrap_err();
        assert_eq!(e.kind, VerifyErrorKind::DeadCode);
        assert_eq!(e.at, Some(2));
    }

    #[test]
    fn branch_pruned_path_counts_as_dead_insn_stat() {
        // `jeq r1, 3` with r1 == 3: the fall-through is dynamically
        // dead. Still statically reachable, so it only shows up in
        // stats, not as a rejection.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("pruned");
        let a = b.label();
        b.mov(Reg::R1, 3)
            .jump_if(JmpCond::Eq, Reg::R1, 3i64, a)
            .mov(Reg::R0, 7) // never explored
            .bind(a)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let v = verify(&b.build().unwrap(), &maps).unwrap();
        assert_eq!(v.stats().dead_insns, 1);
    }

    #[test]
    fn branch_refinement_bounds_a_loaded_scalar() {
        // ctx value checked `<= 7` indexes the stack: only the
        // refined range makes this safe.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("refine");
        let out = b.label();
        b.load_ctx(Reg::R1, 0)
            .jump_if(JmpCond::Gt, Reg::R1, 7i64, out)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -8)
            .add(Reg::R2, Reg::R1)
            .store_imm(Reg::R2, 0, 1, AccessSize::B1)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn verifier_log_captures_transitions_and_stats() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("logged");
        b.mov(Reg::R0, 3).add(Reg::R0, 4).exit();
        let (res, log) = Verifier::new(&maps, &[]).verify_logged(&b.build().unwrap());
        let v = res.unwrap();
        assert!(log.lines().iter().any(|l| l.contains("add64 r0, 4")));
        assert_eq!(log.stats().states_explored, 3);
        assert!(log.render().contains("verification stats:"));
        assert_eq!(v.log(), Some(log.render().as_str()));
        // Without logging, no log is retained.
        assert_eq!(verify(&b.build().unwrap(), &maps).unwrap().log(), None);
    }

    #[test]
    fn rejection_log_names_the_reason() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R0, Reg::R3).exit();
        let (res, log) = Verifier::new(&maps, &[]).verify_logged(&b.build().unwrap());
        assert!(res.is_err());
        assert!(log
            .lines()
            .iter()
            .any(|l| l.contains("rejected") && l.contains("uninitialized register r3")));
    }

    #[test]
    fn error_display_has_pc_and_register_snapshot() {
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("bad");
        b.mov(Reg::R6, 1).mov(Reg::R0, Reg::R3).exit();
        let e = verify(&b.build().unwrap(), &maps).unwrap_err();
        let rendered = e.to_string();
        assert!(rendered.contains("at insn 1"), "{rendered}");
        assert!(rendered.contains("regs:"), "{rendered}");
        assert!(rendered.contains("r6=1"), "{rendered}");
        assert!(e.register_snapshot().is_some());
        // source() chains to the kind, StrategyError::Stage-style.
        let src = std::error::Error::source(&e).expect("source");
        assert_eq!(src.to_string(), e.kind.to_string());
    }

    #[test]
    fn infeasible_branch_is_not_explored() {
        // r1 = 5; `jgt r1, 7` can never be taken, so the taken-side
        // uninitialized read must not be reported.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("infeasible");
        let bad = b.label();
        let done = b.label();
        b.mov(Reg::R1, 5)
            .jump_if(JmpCond::Gt, Reg::R1, 7i64, bad)
            .mov(Reg::R0, 0)
            .jump(done)
            .bind(bad)
            .unwrap()
            .mov(Reg::R0, Reg::R9) // would be UninitRegister if reached
            .bind(done)
            .unwrap()
            .exit();
        let v = verify(&b.build().unwrap(), &maps).unwrap();
        assert!(v.stats().dead_insns >= 1);
    }

    #[test]
    fn percpu_lookup_verifies_with_null_check_and_bounds() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(16, 4)).unwrap();
        let mut b = ProgramBuilder::new("percpu");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .mov(Reg::R6, Reg::R0)
            .jump_if(JmpCond::Eq, Reg::R6, 0i64, out)
            .load(Reg::R7, Reg::R6, 8, AccessSize::B8)
            .add(Reg::R7, 1)
            .store(Reg::R6, 8, Reg::R7, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }

    #[test]
    fn percpu_value_access_respects_slot_bounds() {
        // The addressable window is one CPU's slot (value_size
        // bytes), not the whole per-CPU block.
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 4)).unwrap();
        let mut b = ProgramBuilder::new("oob");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load(Reg::R1, Reg::R0, 8, AccessSize::B8) // one past the slot
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let e = verify(&b.build().unwrap(), &maps).unwrap_err();
        assert!(
            matches!(
                e.kind,
                VerifyErrorKind::MapValueOutOfBounds { value_size: 8, .. }
            ),
            "{e}"
        );
    }

    #[test]
    fn percpu_update_from_program_rejected() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 4)).unwrap();
        let mut b = ProgramBuilder::new("upd");
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .store_imm(Reg::R10, -16, 1, AccessSize::B8)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .mov(Reg::R3, Reg::R10)
            .add(Reg::R3, -16)
            .mov(Reg::R4, 0)
            .call(HelperId::MapUpdate)
            .exit();
        let e = verify(&b.build().unwrap(), &maps).unwrap_err();
        assert!(
            matches!(
                e.kind,
                VerifyErrorKind::BadHelperArg {
                    helper: HelperId::MapUpdate,
                    arg: Reg::R1,
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn percpu_lookup_with_range_proven_index_verifies() {
        // The 5.3-class range analysis must extend to the per-CPU
        // lookup shape: a ctx-derived index masked into range is
        // accepted as the key without a verifier-known constant.
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 4)).unwrap();
        let mut b = ProgramBuilder::new("ranged");
        let out = b.label();
        b.load_ctx(Reg::R1, 0)
            .alu(AluOp::And, Reg::R1, 3) // index in [0, 3]
            .store(Reg::R10, -4, Reg::R1, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .mov(Reg::R6, Reg::R0)
            .jump_if(JmpCond::Eq, Reg::R6, 0i64, out)
            .load(Reg::R7, Reg::R6, 0, AccessSize::B8)
            .add(Reg::R7, 1)
            .store(Reg::R6, 0, Reg::R7, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        assert!(verify(&b.build().unwrap(), &maps).is_ok());
    }
}
