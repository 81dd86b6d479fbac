//! Dataflow analyses over verified programs.
//!
//! Three analyses feed the passes and lints:
//!
//! * **Facts** — a forward, join-based abstract interpretation using
//!   the verifier's own register domain ([`RegType`], [`ScalarRange`])
//!   and transfer functions (`alu_range`, `refine_branch`). Unlike
//!   the verifier's path-sensitive walk, states are *merged* at join
//!   points (with widening), so each reachable pc gets one
//!   conservative entry state.
//! * **Liveness** — a backward analysis of live registers and live
//!   stack *bytes*. Helper calls contribute precise stack-read spans
//!   (map key/value sizes, ring-buffer lengths) derived from the
//!   facts; anything unresolvable makes the whole stack live at that
//!   call, which is always safe.
//! * **Taint** — which registers hold values loaded from map memory,
//!   used by the unclamped-loop-bound lint.
//!
//! All three assume the program has already passed the verifier:
//! they never report errors, they only lose precision.

use crate::insn::{AccessSize, AluOp, HelperId, Insn, Operand, Reg, STACK_SIZE};
use crate::map::MapSet;
use crate::verify::{
    alu_range, clobber_caller_saved, neg_range, range_u32, refine_branch, AbsState, KfuncSig,
    RegType, ScalarRange, Succs, VarOff,
};

use super::cfg::{succs, target_of};

/// How many times a pc's entry state may change before joins widen
/// to the top of the lattice (guarantees termination on loops).
const WIDEN_AFTER: u32 = 8;

/// Per-pc entry states from the forward range analysis. `None` means
/// the pc was never reached (statically or because every path to it
/// is range-infeasible).
pub(crate) struct Facts {
    /// Entry state per instruction.
    pub(crate) entry: Vec<Option<AbsState>>,
}

impl Facts {
    /// The register state entering `pc`, if reachable.
    pub(crate) fn reg(&self, pc: usize, r: Reg) -> Option<RegType> {
        self.entry.get(pc)?.map(|st| st.regs[r.index()])
    }

    /// The scalar range of `operand` entering `pc`: immediates are
    /// exact, registers must carry a `Scalar` fact.
    pub(crate) fn operand_range(&self, pc: usize, operand: Operand) -> Option<ScalarRange> {
        match operand {
            Operand::Imm(v) => Some(ScalarRange::exact(v)),
            Operand::Reg(r) => match self.reg(pc, r)? {
                RegType::Scalar(sr) => Some(sr),
                _ => None,
            },
        }
    }
}

/// Facts and liveness for one instruction vector, shared by every
/// pass of one [`super::PassManager::optimize`] run. Both analyses are
/// pure functions of the instructions (the maps and kfuncs are fixed
/// for the run), so they are recomputed only when the vector differs
/// from the snapshot they were computed for: a pass that changes
/// nothing hands its analyses on to the next.
pub(crate) struct Analyses<'a> {
    maps: &'a MapSet,
    kfuncs: &'a [KfuncSig],
    snapshot: Vec<Insn>,
    facts: Option<Facts>,
    live: Option<Liveness>,
}

impl<'a> Analyses<'a> {
    pub(crate) fn new(maps: &'a MapSet, kfuncs: &'a [KfuncSig]) -> Self {
        Analyses {
            maps,
            kfuncs,
            snapshot: Vec::new(),
            facts: None,
            live: None,
        }
    }

    /// The map set the analyses resolve helper spans against.
    pub(crate) fn maps(&self) -> &'a MapSet {
        self.maps
    }

    /// Drops the cached analyses unless `insns` equals the snapshot.
    fn sync(&mut self, insns: &[Insn]) {
        if self.snapshot != insns {
            self.snapshot.clear();
            self.snapshot.extend_from_slice(insns);
            self.facts = None;
            self.live = None;
        }
    }

    /// The forward range facts of `insns`.
    pub(crate) fn facts(&mut self, insns: &[Insn]) -> &Facts {
        self.sync(insns);
        self.facts.get_or_insert_with(|| compute_facts(insns))
    }

    /// The liveness of `insns`.
    pub(crate) fn liveness(&mut self, insns: &[Insn]) -> &Liveness {
        self.facts_and_liveness(insns).1
    }

    /// The facts and the liveness of `insns`.
    pub(crate) fn facts_and_liveness(&mut self, insns: &[Insn]) -> (&Facts, &Liveness) {
        self.sync(insns);
        let facts = self.facts.get_or_insert_with(|| compute_facts(insns));
        let live = self
            .live
            .get_or_insert_with(|| compute_liveness(insns, self.maps, self.kfuncs, facts));
        (facts, live)
    }
}

/// Runs the forward range analysis.
pub(crate) fn compute_facts(insns: &[Insn]) -> Facts {
    let mut entry: Vec<Option<AbsState>> = vec![None; insns.len()];
    let mut bumps = vec![0u32; insns.len()];
    if insns.is_empty() {
        return Facts { entry };
    }
    entry[0] = Some(AbsState::entry());
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let Some(st) = &entry[pc] else { continue };
        let succs = step(insns, pc, st);
        for &(next, ref out) in succs.iter() {
            if next >= insns.len() {
                continue;
            }
            match &mut entry[next] {
                slot @ None => *slot = Some(*out),
                Some(prev) => {
                    if !join_into(prev, out, &mut bumps[next]) {
                        continue;
                    }
                }
            }
            work.push(next);
        }
    }
    Facts { entry }
}

/// Joins `out` into `prev`, the entry state of a pc that has changed
/// `bumps` times, in place, and reports whether `prev` changed. Once
/// it has changed more than [`WIDEN_AFTER`] times, every register the
/// join moves goes straight to the top of its sub-lattice instead
/// (widening, which guarantees termination on loops).
fn join_into(prev: &mut AbsState, out: &AbsState, bumps: &mut u32) -> bool {
    let mut moved = 0u16;
    for (i, (p, o)) in prev.regs.iter().zip(&out.regs).enumerate() {
        if p != o && join_reg(*p, *o) != *p {
            moved |= 1 << i;
        }
    }
    let stack_moved = prev
        .stack_init
        .iter()
        .zip(&out.stack_init)
        .any(|(p, o)| p & !o != 0);
    if moved == 0 && !stack_moved {
        return false;
    }
    *bumps += 1;
    let widen = *bumps > WIDEN_AFTER;
    for (i, (p, o)) in prev.regs.iter_mut().zip(&out.regs).enumerate() {
        if moved & (1 << i) != 0 {
            *p = match join_reg(*p, *o) {
                RegType::Scalar(_) if widen => RegType::Scalar(ScalarRange::unknown()),
                _ if widen => RegType::Uninit,
                joined => joined,
            };
        }
    }
    for (p, o) in prev.stack_init.iter_mut().zip(&out.stack_init) {
        *p &= o;
    }
    true
}

/// The abstract transfer function: out-states with their successor
/// pcs. Mirrors the verifier's `step` but without error reporting —
/// anything it cannot model precisely degrades to `Uninit`
/// ("no information").
fn step(insns: &[Insn], pc: usize, st: &AbsState) -> Succs {
    let operand_range = |st: &AbsState, operand: Operand| -> Option<ScalarRange> {
        match operand {
            Operand::Imm(v) => Some(ScalarRange::exact(v)),
            Operand::Reg(r) => match st.regs[r.index()] {
                RegType::Scalar(sr) => Some(sr),
                _ => None,
            },
        }
    };
    let fall = |st: AbsState| Succs::one(pc + 1, st);
    match insns[pc] {
        Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
            let wide = matches!(insns[pc], Insn::Alu64 { .. });
            let mut out = *st;
            let d = st.regs[dst.index()];
            let b = operand_range(st, src);
            out.regs[dst.index()] = match (op, d, b) {
                (AluOp::Mov, _, _) if wide => match src {
                    Operand::Imm(v) => RegType::Scalar(ScalarRange::exact(v)),
                    Operand::Reg(r) => st.regs[r.index()],
                },
                (AluOp::Mov, _, Some(b)) => {
                    RegType::Scalar(alu_range(AluOp::Mov, false, ScalarRange::unknown(), b))
                }
                (_, RegType::Scalar(a), Some(b)) => RegType::Scalar(alu_range(op, wide, a, b)),
                (AluOp::Add | AluOp::Sub, ptr, Some(b)) if wide => match (ptr, b.const_value()) {
                    (RegType::FramePtr, Some(c)) => shift_ptr(
                        RegType::StackPtr(VarOff { min: 0, max: 0 }),
                        c,
                        op == AluOp::Sub,
                    ),
                    (RegType::StackPtr(_) | RegType::MapValue(..), Some(c)) => {
                        shift_ptr(ptr, c, op == AluOp::Sub)
                    }
                    _ => RegType::Uninit,
                },
                _ => RegType::Uninit,
            };
            fall(out)
        }
        Insn::Neg { dst } => {
            let mut out = *st;
            out.regs[dst.index()] = match st.regs[dst.index()] {
                RegType::Scalar(a) => RegType::Scalar(neg_range(a)),
                _ => RegType::Uninit,
            };
            fall(out)
        }
        Insn::LoadImm64 { dst, imm } => {
            let mut out = *st;
            out.regs[dst.index()] = RegType::Scalar(ScalarRange::exact(imm));
            fall(out)
        }
        Insn::LoadMapRef { dst, map } => {
            let mut out = *st;
            out.regs[dst.index()] = RegType::MapRef(map);
            fall(out)
        }
        Insn::LoadCtx { dst, .. } => {
            let mut out = *st;
            out.regs[dst.index()] = RegType::Scalar(ScalarRange::unknown());
            fall(out)
        }
        Insn::Load { dst, size, .. } => {
            let mut out = *st;
            out.regs[dst.index()] = RegType::Scalar(load_range(size));
            fall(out)
        }
        Insn::Store { .. } | Insn::StoreImm { .. } => fall(*st),
        Insn::Jump { off } => match target_of(insns, pc, off) {
            Some(t) => Succs::one(t, *st),
            None => Succs::default(),
        },
        Insn::JumpIf {
            cond,
            dst,
            src,
            off,
        } => {
            let target = target_of(insns, pc, off);
            let mut out = Succs::default();
            let d0 = st.regs[dst.index()];
            let edges: [(bool, Option<usize>); 2] = [(true, target), (false, Some(pc + 1))];
            for (taken, next) in edges {
                let Some(next) = next else { continue };
                match (d0, operand_range(st, src)) {
                    (RegType::Scalar(dr), Some(sr)) => {
                        if let Some((nd, ns)) = refine_branch(cond, taken, dr, sr) {
                            let mut st2 = *st;
                            st2.regs[dst.index()] = RegType::Scalar(nd);
                            if let Operand::Reg(r) = src {
                                st2.regs[r.index()] = RegType::Scalar(ns);
                            }
                            out.push((next, st2));
                        }
                    }
                    (RegType::MapValueOrNull(id), _)
                        if src == Operand::Imm(0)
                            && matches!(
                                cond,
                                crate::insn::JmpCond::Eq | crate::insn::JmpCond::Ne
                            ) =>
                    {
                        let is_null = (cond == crate::insn::JmpCond::Eq) == taken;
                        let mut st2 = *st;
                        st2.regs[dst.index()] = if is_null {
                            RegType::Scalar(ScalarRange::exact(0))
                        } else {
                            RegType::MapValue(id, VarOff { min: 0, max: 0 })
                        };
                        out.push((next, st2));
                    }
                    _ => out.push((next, *st)),
                }
            }
            out
        }
        Insn::Call { helper } => {
            let mut out = *st;
            let r0 = match helper {
                HelperId::MapLookup => match st.regs[1] {
                    RegType::MapRef(id) => RegType::MapValueOrNull(id),
                    _ => RegType::Uninit,
                },
                _ => RegType::Scalar(ScalarRange::unknown()),
            };
            clobber_caller_saved(&mut out);
            out.regs[0] = r0;
            fall(out)
        }
        Insn::CallKfunc { .. } => {
            let mut out = *st;
            clobber_caller_saved(&mut out);
            out.regs[0] = RegType::Scalar(ScalarRange::unknown());
            fall(out)
        }
        Insn::Exit => Succs::default(),
    }
}

fn shift_ptr(ptr: RegType, c: i64, sub: bool) -> RegType {
    let c = if sub { c.wrapping_neg() } else { c };
    let Ok(c) = i32::try_from(c) else {
        return RegType::Uninit;
    };
    match ptr {
        RegType::StackPtr(vo) => RegType::StackPtr(VarOff {
            min: vo.min.saturating_add(c),
            max: vo.max.saturating_add(c),
        }),
        RegType::MapValue(id, vo) => RegType::MapValue(
            id,
            VarOff {
                min: vo.min.saturating_add(c),
                max: vo.max.saturating_add(c),
            },
        ),
        _ => RegType::Uninit,
    }
}

/// The range of a zero-extending load of `size` bytes.
fn load_range(size: AccessSize) -> ScalarRange {
    match size {
        AccessSize::B1 => bounded(0xff),
        AccessSize::B2 => bounded(0xffff),
        AccessSize::B4 => range_u32(),
        AccessSize::B8 => ScalarRange::unknown(),
    }
    .deduce()
}

fn bounded(max: u64) -> ScalarRange {
    ScalarRange {
        smin: 0,
        smax: max as i64,
        umin: 0,
        umax: max,
    }
}

fn join_reg(a: RegType, b: RegType) -> RegType {
    if a == b {
        return a;
    }
    match (a, b) {
        (RegType::Scalar(x), RegType::Scalar(y)) => RegType::Scalar(range_union(x, y)),
        (RegType::StackPtr(x), RegType::StackPtr(y)) => RegType::StackPtr(VarOff {
            min: x.min.min(y.min),
            max: x.max.max(y.max),
        }),
        (RegType::MapValue(i, x), RegType::MapValue(j, y)) if i == j => RegType::MapValue(
            i,
            VarOff {
                min: x.min.min(y.min),
                max: x.max.max(y.max),
            },
        ),
        _ => RegType::Uninit,
    }
}

fn range_union(a: ScalarRange, b: ScalarRange) -> ScalarRange {
    ScalarRange {
        smin: a.smin.min(b.smin),
        smax: a.smax.max(b.smax),
        umin: a.umin.min(b.umin),
        umax: a.umax.max(b.umax),
    }
}

/// A set of live registers and live stack bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LiveSet {
    /// One bit per register (bit *i* = `r{i}`).
    pub(crate) regs: u16,
    /// One bit per stack byte; byte *i* is `fp - STACK_SIZE + i`.
    pub(crate) stack: [u64; STACK_SIZE / 64],
}

impl LiveSet {
    pub(crate) fn reg(&self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    fn set_reg_idx(&mut self, i: usize) {
        self.regs |= 1 << i;
    }

    fn union(&mut self, other: &LiveSet) {
        self.regs |= other.regs;
        for (a, b) in self.stack.iter_mut().zip(other.stack.iter()) {
            *a |= b;
        }
    }

    fn set_stack(&mut self, start: usize, len: usize) {
        for i in start..(start + len).min(STACK_SIZE) {
            self.stack[i / 64] |= 1 << (i % 64);
        }
    }

    fn clear_stack(&mut self, start: usize, len: usize) {
        for i in start..(start + len).min(STACK_SIZE) {
            self.stack[i / 64] &= !(1 << (i % 64));
        }
    }

    fn set_all_stack(&mut self) {
        self.stack = [u64::MAX; STACK_SIZE / 64];
    }

    /// `true` if any byte in `[start, start+len)` is live.
    pub(crate) fn stack_overlaps(&self, start: usize, len: usize) -> bool {
        (start..(start + len).min(STACK_SIZE)).any(|i| self.stack[i / 64] & (1 << (i % 64)) != 0)
    }
}

/// Results of the backward liveness analysis.
pub(crate) struct Liveness {
    /// Live set entering each instruction.
    pub(crate) live_in: Vec<LiveSet>,
    /// Live set leaving each instruction (union of successor ins).
    pub(crate) live_out: Vec<LiveSet>,
}

/// The stack byte index of `fp + off`, when in bounds.
pub(crate) fn stack_byte(off: i64) -> Option<usize> {
    let idx = STACK_SIZE as i64 + off;
    if (0..STACK_SIZE as i64).contains(&idx) {
        Some(idx as usize)
    } else {
        None
    }
}

/// The exact stack span `[start, len)` accessed through `base + off`,
/// or `None` when the base is not a stack pointer with an exact
/// offset.
pub(crate) fn exact_stack_span(
    base_ty: Option<RegType>,
    off: i16,
    len: usize,
) -> Option<(usize, usize)> {
    let base_off = match base_ty? {
        RegType::FramePtr => 0i64,
        RegType::StackPtr(vo) if vo.is_exact() => vo.min as i64,
        _ => return None,
    };
    Some((stack_byte(base_off + off as i64)?, len))
}

/// The conservative (may-access) stack span through `base + off`;
/// `None` means "not a stack access at all" and `Some(Err(()))`
/// situations are folded into a full-stack span by the caller.
fn may_stack_span(base_ty: Option<RegType>, off: i16, len: usize) -> SpanKind {
    match base_ty {
        Some(RegType::FramePtr) => match stack_byte(off as i64) {
            Some(s) => SpanKind::Stack(s, len),
            None => SpanKind::All,
        },
        Some(RegType::StackPtr(vo)) => {
            match (
                stack_byte(vo.min as i64 + off as i64),
                stack_byte(vo.max as i64 + off as i64),
            ) {
                (Some(lo), Some(hi)) => SpanKind::Stack(lo, hi - lo + len),
                _ => SpanKind::All,
            }
        }
        Some(RegType::MapValue(..)) => SpanKind::NotStack,
        Some(RegType::MapValueOrNull(..)) | Some(RegType::MapRef(..)) => SpanKind::NotStack,
        _ => SpanKind::All,
    }
}

enum SpanKind {
    /// Reads/writes these stack bytes (possibly over-approximate).
    Stack(usize, usize),
    /// Touches no stack memory (e.g. a map-value pointer).
    NotStack,
    /// Unknown: treat the whole stack as accessed.
    All,
}

/// The number of argument registers a helper consumes.
pub(crate) fn helper_argc(helper: HelperId) -> usize {
    match helper {
        HelperId::MapLookup => 2,
        HelperId::RingbufOutput => 4,
        HelperId::KtimeGetNs => 0,
    }
}

/// Stack bytes a helper call reads, derived from the facts at the
/// call site. Falls back to "everything" when a pointer or length is
/// not known precisely.
fn helper_stack_reads(helper: HelperId, st: Option<&AbsState>, maps: &MapSet, live: &mut LiveSet) {
    let Some(st) = st else {
        live.set_all_stack();
        return;
    };
    let mut read_span = |base: RegType, len: Option<usize>| match len {
        Some(len) => match may_stack_span(Some(base), 0, len) {
            SpanKind::Stack(s, l) => live.set_stack(s, l),
            SpanKind::NotStack => {}
            SpanKind::All => live.set_all_stack(),
        },
        None => live.set_all_stack(),
    };
    let map_of_r1 = |st: &AbsState| match st.regs[1] {
        RegType::MapRef(id) => maps.def(id).ok(),
        _ => None,
    };
    match helper {
        HelperId::MapLookup => {
            let key = map_of_r1(st).map(|d| d.key_size as usize);
            read_span(st.regs[2], key);
        }
        HelperId::RingbufOutput => {
            let len = match st.regs[3] {
                RegType::Scalar(sr) if sr.umax <= STACK_SIZE as u64 => Some(sr.umax as usize),
                _ => None,
            };
            read_span(st.regs[2], len);
        }
        HelperId::KtimeGetNs => {}
    }
}

/// Runs the backward liveness analysis. `facts` supplies pointer
/// types for helper spans and reg-based stack accesses.
pub(crate) fn compute_liveness(
    insns: &[Insn],
    maps: &MapSet,
    kfuncs: &[KfuncSig],
    facts: &Facts,
) -> Liveness {
    let n = insns.len();
    let mut live_in = vec![LiveSet::default(); n];
    let mut live_out = vec![LiveSet::default(); n];
    // Predecessor lists in one vector: the predecessors of `pc` are
    // `preds[first[pc]..first[pc + 1]]`, in ascending order.
    let mut first = vec![0usize; n + 1];
    for pc in 0..n {
        for s in succs(insns, pc) {
            first[s + 1] += 1;
        }
    }
    for pc in 0..n {
        first[pc + 1] += first[pc];
    }
    let mut preds = vec![0usize; first[n]];
    let mut filled = first[..n].to_vec();
    for pc in 0..n {
        for s in succs(insns, pc) {
            preds[filled[s]] = pc;
            filled[s] += 1;
        }
    }
    let mut work: Vec<usize> = (0..n).rev().collect();
    while let Some(pc) = work.pop() {
        let mut out = LiveSet::default();
        for s in succs(insns, pc) {
            out.union(&live_in[s]);
        }
        live_out[pc] = out;
        let mut live = out;
        apply_backward(insns, pc, maps, kfuncs, facts, &mut live);
        if live != live_in[pc] {
            live_in[pc] = live;
            work.extend_from_slice(&preds[first[pc]..first[pc + 1]]);
        }
    }
    Liveness { live_in, live_out }
}

/// Transforms a live-out set into the live-in set of `pc`.
fn apply_backward(
    insns: &[Insn],
    pc: usize,
    maps: &MapSet,
    kfuncs: &[KfuncSig],
    facts: &Facts,
    live: &mut LiveSet,
) {
    let base_ty = |r: Reg| facts.reg(pc, r);
    match insns[pc] {
        Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
            live.regs &= !(1 << dst.index());
            if op != AluOp::Mov {
                live.set_reg_idx(dst.index());
            }
            if let Operand::Reg(r) = src {
                live.set_reg_idx(r.index());
            }
        }
        Insn::Neg { dst } => {
            live.set_reg_idx(dst.index());
        }
        Insn::LoadImm64 { dst, .. } | Insn::LoadMapRef { dst, .. } | Insn::LoadCtx { dst, .. } => {
            live.regs &= !(1 << dst.index());
        }
        Insn::Load {
            dst,
            base,
            off,
            size,
        } => {
            live.regs &= !(1 << dst.index());
            live.set_reg_idx(base.index());
            match may_stack_span(base_ty(base), off, size.bytes()) {
                SpanKind::Stack(s, l) => live.set_stack(s, l),
                SpanKind::NotStack => {}
                SpanKind::All => live.set_all_stack(),
            }
        }
        Insn::Store {
            base,
            off,
            src,
            size,
        } => {
            if let Some((s, l)) = exact_stack_span(base_ty(base), off, size.bytes()) {
                live.clear_stack(s, l);
            }
            live.set_reg_idx(base.index());
            live.set_reg_idx(src.index());
        }
        Insn::StoreImm {
            base, off, size, ..
        } => {
            if let Some((s, l)) = exact_stack_span(base_ty(base), off, size.bytes()) {
                live.clear_stack(s, l);
            }
            live.set_reg_idx(base.index());
        }
        Insn::Jump { .. } => {}
        Insn::JumpIf { dst, src, .. } => {
            live.set_reg_idx(dst.index());
            if let Operand::Reg(r) = src {
                live.set_reg_idx(r.index());
            }
        }
        Insn::Call { helper } => {
            live.regs &= !0x3f; // defs: r0 plus clobbered r1-r5
            for i in 1..=helper_argc(helper) {
                live.set_reg_idx(i);
            }
            helper_stack_reads(helper, facts.entry[pc].as_ref(), maps, live);
        }
        Insn::CallKfunc { kfunc } => {
            live.regs &= !0x3f;
            let args = kfuncs
                .get(kfunc as usize)
                .map(|s| s.args as usize)
                .unwrap_or(5);
            for i in 1..=args {
                live.set_reg_idx(i);
            }
        }
        Insn::Exit => {
            live.regs = 1; // only r0
            live.stack = [0; STACK_SIZE / 64];
        }
    }
}

/// Stack byte spans the instruction at `pc` may *read*, as
/// `(start, len)` pairs. `None` means the read set is unknown and the
/// caller must assume the whole stack is read.
pub(crate) fn stack_reads_of(
    insns: &[Insn],
    facts: &Facts,
    maps: &MapSet,
    pc: usize,
) -> Option<Vec<(usize, usize)>> {
    match insns[pc] {
        Insn::Load {
            base, off, size, ..
        } => match may_stack_span(facts.reg(pc, base), off, size.bytes()) {
            SpanKind::Stack(s, l) => Some(vec![(s, l)]),
            SpanKind::NotStack => Some(Vec::new()),
            SpanKind::All => None,
        },
        Insn::Call { helper } => {
            let mut live = LiveSet::default();
            helper_stack_reads(helper, facts.entry.get(pc)?.as_ref(), maps, &mut live);
            if live.stack == [u64::MAX; STACK_SIZE / 64] {
                return None;
            }
            let mut spans = Vec::new();
            let mut i = 0;
            while i < STACK_SIZE {
                if live.stack[i / 64] & (1 << (i % 64)) != 0 {
                    let start = i;
                    while i < STACK_SIZE && live.stack[i / 64] & (1 << (i % 64)) != 0 {
                        i += 1;
                    }
                    spans.push((start, i - start));
                } else {
                    i += 1;
                }
            }
            Some(spans)
        }
        Insn::CallKfunc { .. } => Some(Vec::new()),
        _ => Some(Vec::new()),
    }
}

/// Per-pc *entry* taint masks: bit *i* set means `r{i}` may hold a
/// value loaded (directly or through arithmetic) from map memory.
pub(crate) fn compute_map_taint(insns: &[Insn], facts: &Facts) -> Vec<u16> {
    let n = insns.len();
    let mut taint = vec![0u16; n];
    if n == 0 {
        return taint;
    }
    let mut work = vec![0usize];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(pc) = work.pop() {
        let t_in = taint[pc];
        let mut t = t_in;
        match insns[pc] {
            Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
                let src_taint = match src {
                    Operand::Reg(r) => t & (1 << r.index()) != 0,
                    Operand::Imm(_) => false,
                };
                if op == AluOp::Mov {
                    if src_taint {
                        t |= 1 << dst.index();
                    } else {
                        t &= !(1 << dst.index());
                    }
                } else if src_taint {
                    t |= 1 << dst.index();
                }
            }
            Insn::Neg { .. } => {}
            Insn::LoadImm64 { dst, .. }
            | Insn::LoadMapRef { dst, .. }
            | Insn::LoadCtx { dst, .. } => {
                t &= !(1 << dst.index());
            }
            Insn::Load { dst, base, .. } => {
                let from_map = matches!(
                    facts.reg(pc, base),
                    Some(RegType::MapValue(..)) | Some(RegType::MapValueOrNull(..))
                );
                if from_map {
                    t |= 1 << dst.index();
                } else {
                    t &= !(1 << dst.index());
                }
            }
            Insn::Call { .. } | Insn::CallKfunc { .. } => {
                t &= !0x3f;
            }
            _ => {}
        }
        for s in succs(insns, pc) {
            let merged = taint[s] | t;
            if merged != taint[s] || !seen[s] {
                taint[s] = merged;
                seen[s] = true;
                work.push(s);
            }
        }
    }
    taint
}
