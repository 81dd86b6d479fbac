//! The optimization passes.
//!
//! Every pass takes the instruction stream of a program that already
//! passed the verifier and returns `true` when it changed anything.
//! Each rewrite preserves observable behaviour: the return value,
//! every map and ring-buffer mutation, and their order. The dynamic
//! instruction count may only decrease. The pass manager composes
//! the passes to a fixpoint and the host re-verifies the optimized
//! image before attaching it, so even a pass bug cannot load an
//! unsafe program.
//!
//! Two passes lean on VM-level guarantees worth stating explicitly:
//!
//! * `licm` hoists `ktime`/`cpu` helper reads because this VM fixes
//!   `now_ns` and the CPU id for the duration of one invocation.
//! * Helpers never *write* stack memory, so stack facts survive
//!   calls.

// The passes constantly mix instruction reads at `pc` with
// lookahead (`pc + 1`), parallel fact/liveness tables indexed by
// `pc`, and in-place rewrites, so index loops read better than
// iterator chains here.
#![allow(clippy::needless_range_loop)]

use crate::insn::{AccessSize, AluOp, HelperId, Insn, JmpCond, Operand, Reg, STACK_SIZE};
use crate::interp::{alu32, alu64};
use crate::map::MapSet;
use crate::verify::{refine_branch, RegType};

use super::analysis::{exact_stack_span, stack_byte, stack_reads_of, Analyses, Facts, Liveness};
use super::cfg::{contiguous_loops, delete_at, insert_at, leaders, static_reachable, target_of};
use super::OptStats;

/// `true` if `insn` defines or uses register `r`. Helper and kfunc
/// calls count as touching `r0..=r5` (argument reads + clobbers).
fn touches(insn: &Insn, r: Reg) -> bool {
    let src_is = |src: Operand| matches!(src, Operand::Reg(s) if s == r);
    match *insn {
        Insn::Alu64 { dst, src, .. } | Insn::Alu32 { dst, src, .. } => dst == r || src_is(src),
        Insn::Neg { dst } => dst == r,
        Insn::LoadImm64 { dst, .. } | Insn::LoadMapRef { dst, .. } | Insn::LoadCtx { dst, .. } => {
            dst == r
        }
        Insn::Load { dst, base, .. } => dst == r || base == r,
        Insn::Store { base, src, .. } => base == r || src == r,
        Insn::StoreImm { base, .. } => base == r,
        Insn::Jump { .. } => false,
        Insn::JumpIf { dst, src, .. } => dst == r || src_is(src),
        Insn::Call { .. } | Insn::CallKfunc { .. } => r.index() <= 5,
        Insn::Exit => r.index() == 0,
    }
}

/// The single register an instruction writes, if any. Calls clobber
/// `r0..=r5` and are handled separately by callers that care.
fn def_of(insn: &Insn) -> Option<Reg> {
    match *insn {
        Insn::Alu64 { dst, .. }
        | Insn::Alu32 { dst, .. }
        | Insn::Neg { dst }
        | Insn::LoadImm64 { dst, .. }
        | Insn::LoadMapRef { dst, .. }
        | Insn::LoadCtx { dst, .. }
        | Insn::Load { dst, .. } => Some(dst),
        _ => None,
    }
}

/// `true` when the base register provably points outside the stack
/// (map memory), so an access through it cannot touch stack slots.
fn non_stack_base(ty: Option<RegType>) -> bool {
    matches!(
        ty,
        Some(RegType::MapValue(..)) | Some(RegType::MapValueOrNull(..)) | Some(RegType::MapRef(..))
    )
}

fn mov_imm(dst: Reg, v: i64) -> Insn {
    Insn::Alu64 {
        op: AluOp::Mov,
        dst,
        src: Operand::Imm(v),
    }
}

fn mov_reg(dst: Reg, src: Reg) -> Insn {
    Insn::Alu64 {
        op: AluOp::Mov,
        dst,
        src: Operand::Reg(src),
    }
}

/// A batched rewrite: replacements keep indices stable and are
/// applied first, deletions go highest-index-first through
/// [`delete_at`] so jump offsets stay correct.
enum Rewrite {
    Del(usize),
    Repl(usize, Insn),
}

fn apply_rewrites(insns: &mut Vec<Insn>, rewrites: Vec<Rewrite>) -> bool {
    if rewrites.is_empty() {
        return false;
    }
    let mut dels: Vec<usize> = Vec::new();
    for rw in rewrites {
        match rw {
            Rewrite::Repl(pc, insn) => insns[pc] = insn,
            Rewrite::Del(pc) => dels.push(pc),
        }
    }
    dels.sort_unstable();
    dels.dedup();
    for pc in dels.into_iter().rev() {
        delete_at(insns, pc);
    }
    true
}

/// Constant propagation + folding driven by the range facts: ALU ops
/// whose operands are provably constant become `mov dst, imm`;
/// register operands with a constant fact are materialized as
/// immediates (in ALU ops, branches, and stores).
pub(crate) fn const_fold(insns: &mut [Insn], an: &mut Analyses, stats: &mut OptStats) -> bool {
    let facts = an.facts(insns);
    let mut changed = false;
    for pc in 0..insns.len() {
        if facts.entry[pc].is_none() {
            continue;
        }
        let const_of = |operand: Operand| {
            facts
                .operand_range(pc, operand)
                .and_then(|r| r.const_value())
        };
        let new = match insns[pc] {
            Insn::Alu64 { op, dst, src } | Insn::Alu32 { op, dst, src } => {
                let wide = matches!(insns[pc], Insn::Alu64 { .. });
                let d = const_of(Operand::Reg(dst));
                let s = const_of(src);
                let from_reg = matches!(src, Operand::Reg(_));
                if op == AluOp::Mov {
                    match s {
                        // A move of a constant register becomes a
                        // constant move (32-bit movs zero-extend).
                        Some(v) if from_reg => {
                            let v = if wide { v } else { (v as u32) as i64 };
                            Some(mov_imm(dst, v))
                        }
                        _ => None,
                    }
                } else {
                    match (d, s) {
                        (Some(a), Some(b)) => Some(mov_imm(
                            dst,
                            if wide {
                                alu64(op, a as u64, b as u64) as i64
                            } else {
                                i64::from(alu32(op, a as u32, b as u32))
                            },
                        )),
                        (None, Some(b)) if from_reg => Some(if wide {
                            Insn::Alu64 {
                                op,
                                dst,
                                src: Operand::Imm(b),
                            }
                        } else {
                            Insn::Alu32 {
                                op,
                                dst,
                                src: Operand::Imm(b),
                            }
                        }),
                        _ => None,
                    }
                }
            }
            Insn::Neg { dst } => {
                const_of(Operand::Reg(dst)).map(|v| mov_imm(dst, v.wrapping_neg()))
            }
            Insn::JumpIf {
                cond,
                dst,
                src: Operand::Reg(r),
                off,
            } => const_of(Operand::Reg(r)).map(|v| Insn::JumpIf {
                cond,
                dst,
                src: Operand::Imm(v),
                off,
            }),
            Insn::Store {
                base,
                off,
                src,
                size,
            } => const_of(Operand::Reg(src)).map(|v| Insn::StoreImm {
                base,
                off,
                imm: v,
                size,
            }),
            _ => None,
        };
        if let Some(n) = new {
            if n != insns[pc] {
                insns[pc] = n;
                stats.const_folds += 1;
                changed = true;
            }
        }
    }
    changed
}

/// Range-based branch elimination: a conditional branch whose taken
/// (or fall-through) edge is range-infeasible becomes a fall-through
/// (or unconditional jump). Scalar operands only — feasibility comes
/// straight from the verifier's `refine_branch`.
pub(crate) fn branch_elim(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let facts = an.facts(insns);
    let mut changed = false;
    for pc in (0..insns.len()).rev() {
        let Insn::JumpIf {
            cond,
            dst,
            src,
            off,
        } = insns[pc]
        else {
            continue;
        };
        if facts.entry[pc].is_none() {
            continue;
        }
        let Some(dr) = facts.operand_range(pc, Operand::Reg(dst)) else {
            continue;
        };
        let Some(sr) = facts.operand_range(pc, src) else {
            continue;
        };
        let taken = refine_branch(cond, true, dr, sr).is_some();
        let fall = refine_branch(cond, false, dr, sr).is_some();
        match (taken, fall) {
            (false, true) => {
                delete_at(insns, pc);
                stats.branches_eliminated += 1;
                changed = true;
            }
            (true, false) => {
                insns[pc] = Insn::Jump { off };
                stats.branches_eliminated += 1;
                changed = true;
            }
            // Both feasible: a real branch. Neither: the insn itself
            // is unreachable and DCE removes it.
            _ => {}
        }
    }
    changed
}

/// Dead-code elimination: statically unreachable instructions, then
/// side-effect-free definitions whose register is dead. Pure helper
/// calls (`map_lookup`, `ktime`, `cpu-id`) with a dead `r0` count as
/// dead definitions too.
pub(crate) fn dce(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let mut changed = false;
    let reach = static_reachable(insns);
    for pc in (0..insns.len()).rev() {
        if !reach[pc] {
            delete_at(insns, pc);
            stats.unreachable_removed += 1;
            changed = true;
        }
    }
    let live = an.liveness(insns);
    for pc in (0..insns.len()).rev() {
        let dead = |r: Reg| !live.live_out[pc].reg(r);
        let del = match insns[pc] {
            Insn::Alu64 { dst, .. }
            | Insn::Alu32 { dst, .. }
            | Insn::Neg { dst }
            | Insn::LoadImm64 { dst, .. }
            | Insn::LoadMapRef { dst, .. }
            | Insn::LoadCtx { dst, .. }
            | Insn::Load { dst, .. } => dead(dst),
            Insn::Call { helper } => {
                matches!(helper, HelperId::MapLookup | HelperId::KtimeGetNs) && dead(Reg::R0)
            }
            _ => false,
        };
        if del {
            delete_at(insns, pc);
            stats.dead_defs_removed += 1;
            changed = true;
        }
    }
    changed
}

/// The peephole tier. Each invocation applies the first non-empty
/// rewrite family — ALU identities, mov/ALU/mov coalescing, mov-store
/// and load-mov fusion, copy propagation — and returns; the
/// pass-manager fixpoint supplies iteration. Families stay separate
/// so every batch of rewrites is justified against the same
/// unmodified instruction stream.
pub(crate) fn peephole(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    identities(insns, stats)
        || coalesce_movs(insns, an, stats)
        || fuse_mov_store(insns, an, stats)
        || fuse_load_mov(insns, an, stats)
        || copy_prop(insns, an, stats)
}

/// ALU identities and no-op jumps. 32-bit ops zero-extend, so the
/// deleting identities apply to 64-bit ops only; constant-zero
/// results are width-independent.
fn identities(insns: &mut Vec<Insn>, stats: &mut OptStats) -> bool {
    let mut rewrites = Vec::new();
    for pc in 0..insns.len() {
        let rw = match insns[pc] {
            Insn::Alu64 { op, dst, src } => match (op, src) {
                (
                    AluOp::Add
                    | AluOp::Sub
                    | AluOp::Or
                    | AluOp::Xor
                    | AluOp::Lsh
                    | AluOp::Rsh
                    | AluOp::Arsh,
                    Operand::Imm(0),
                )
                | (AluOp::Mul | AluOp::Div, Operand::Imm(1)) => Some(Rewrite::Del(pc)),
                (AluOp::Mov, Operand::Reg(r)) if r == dst => Some(Rewrite::Del(pc)),
                (AluOp::Mul | AluOp::And, Operand::Imm(0)) | (AluOp::Mod, Operand::Imm(1)) => {
                    Some(Rewrite::Repl(pc, mov_imm(dst, 0)))
                }
                _ => None,
            },
            Insn::Alu32 { op, dst, src } => match (op, src) {
                (AluOp::Mul | AluOp::And, Operand::Imm(0)) | (AluOp::Mod, Operand::Imm(1)) => {
                    Some(Rewrite::Repl(pc, mov_imm(dst, 0)))
                }
                _ => None,
            },
            Insn::Jump { off: 0 } | Insn::JumpIf { off: 0, .. } => Some(Rewrite::Del(pc)),
            _ => None,
        };
        if let Some(rw) = rw {
            stats.peephole_rewrites += 1;
            rewrites.push(rw);
        }
    }
    apply_rewrites(insns, rewrites)
}

/// Coalesces `mov a, b; …; alu a, src; …; mov b, a` (within one
/// block, ≤ 8 instructions, nothing else touching `a` or `b`) into a
/// single `alu b, src[a→b]` when `a` is dead afterwards. This is
/// what collapses a promoted stack accumulator back into its
/// register.
fn coalesce_movs(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let live = an.liveness(insns);
    let lead = leaders(insns);
    let mut rewrites = Vec::new();
    let mut claimed = vec![false; insns.len()];
    for p0 in 0..insns.len() {
        if claimed[p0] {
            continue;
        }
        let Insn::Alu64 {
            op: AluOp::Mov,
            dst: a,
            src: Operand::Reg(b),
        } = insns[p0]
        else {
            continue;
        };
        if a == b || a == Reg::R10 || b == Reg::R10 {
            continue;
        }
        let mut alu_at = None;
        let mut end = None;
        for p in p0 + 1..(p0 + 9).min(insns.len()) {
            if lead[p] || claimed[p] {
                break;
            }
            if let Insn::Alu64 {
                op: AluOp::Mov,
                dst,
                src: Operand::Reg(s),
            } = insns[p]
            {
                if dst == b && s == a {
                    if alu_at.is_some() {
                        end = Some(p);
                    }
                    break;
                }
            }
            if matches!(
                insns[p],
                Insn::Jump { .. } | Insn::JumpIf { .. } | Insn::Exit
            ) {
                break;
            }
            if touches(&insns[p], a) || touches(&insns[p], b) {
                let is_alu_on_a = match insns[p] {
                    Insn::Alu64 { dst, .. } | Insn::Alu32 { dst, .. } => dst == a,
                    _ => false,
                };
                if is_alu_on_a && alu_at.is_none() {
                    alu_at = Some(p);
                } else {
                    break;
                }
            }
        }
        let (Some(pa), Some(p2)) = (alu_at, end) else {
            continue;
        };
        if live.live_out[p2].reg(a) {
            continue;
        }
        let renamed = match insns[pa] {
            Insn::Alu64 { op, src, .. } => Insn::Alu64 {
                op,
                dst: b,
                src: rename_src(src, a, b),
            },
            Insn::Alu32 { op, src, .. } => Insn::Alu32 {
                op,
                dst: b,
                src: rename_src(src, a, b),
            },
            _ => unreachable!("alu_at only matches ALU insns"),
        };
        rewrites.push(Rewrite::Del(p0));
        rewrites.push(Rewrite::Repl(pa, renamed));
        rewrites.push(Rewrite::Del(p2));
        for c in claimed.iter_mut().take(p2 + 1).skip(p0) {
            *c = true;
        }
        stats.peephole_rewrites += 1;
    }
    apply_rewrites(insns, rewrites)
}

fn rename_src(src: Operand, from: Reg, to: Reg) -> Operand {
    match src {
        Operand::Reg(r) if r == from => Operand::Reg(to),
        other => other,
    }
}

/// Fuses `mov t, v; store [base+off], t` into a direct store of `v`
/// when `t` is dead afterwards.
fn fuse_mov_store(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let live = an.liveness(insns);
    let lead = leaders(insns);
    let mut rewrites = Vec::new();
    let mut p = 0;
    while p + 1 < insns.len() {
        let Insn::Alu64 {
            op: AluOp::Mov,
            dst: t,
            src,
        } = insns[p]
        else {
            p += 1;
            continue;
        };
        let Insn::Store {
            base,
            off,
            src: stored,
            size,
        } = insns[p + 1]
        else {
            p += 1;
            continue;
        };
        if stored != t || base == t || lead[p + 1] || live.live_out[p + 1].reg(t) {
            p += 1;
            continue;
        }
        let repl = match src {
            Operand::Reg(s) if s != t && s != Reg::R10 => Insn::Store {
                base,
                off,
                src: s,
                size,
            },
            Operand::Imm(v) => Insn::StoreImm {
                base,
                off,
                imm: v,
                size,
            },
            _ => {
                p += 1;
                continue;
            }
        };
        rewrites.push(Rewrite::Repl(p + 1, repl));
        rewrites.push(Rewrite::Del(p));
        stats.peephole_rewrites += 1;
        p += 2;
    }
    apply_rewrites(insns, rewrites)
}

/// Fuses `load t, [base+off]; mov d, t` into `load d, [base+off]`
/// when `t` is dead afterwards. (`base == t` is fine: the rewritten
/// load reads the base *before* any write, exactly as the original
/// pair did.)
fn fuse_load_mov(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let live = an.liveness(insns);
    let lead = leaders(insns);
    let mut rewrites = Vec::new();
    let mut p = 0;
    while p + 1 < insns.len() {
        let Insn::Load {
            dst: t,
            base,
            off,
            size,
        } = insns[p]
        else {
            p += 1;
            continue;
        };
        let Insn::Alu64 {
            op: AluOp::Mov,
            dst: d,
            src: Operand::Reg(s),
        } = insns[p + 1]
        else {
            p += 1;
            continue;
        };
        if s != t || d == t || lead[p + 1] || live.live_out[p + 1].reg(t) {
            p += 1;
            continue;
        }
        rewrites.push(Rewrite::Repl(
            p,
            Insn::Load {
                dst: d,
                base,
                off,
                size,
            },
        ));
        rewrites.push(Rewrite::Del(p + 1));
        stats.peephole_rewrites += 1;
        p += 2;
    }
    apply_rewrites(insns, rewrites)
}

/// Copy propagation for the adjacent pair `mov a, b; alu d, a`:
/// rewrites the ALU source to `b` and drops the mov when `a` dies at
/// the ALU instruction.
fn copy_prop(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let live = an.liveness(insns);
    let lead = leaders(insns);
    let mut rewrites = Vec::new();
    let mut p = 0;
    while p + 1 < insns.len() {
        let Insn::Alu64 {
            op: AluOp::Mov,
            dst: a,
            src: Operand::Reg(b),
        } = insns[p]
        else {
            p += 1;
            continue;
        };
        if a == b || a == Reg::R10 || b == Reg::R10 {
            p += 1;
            continue;
        }
        let renamed = match insns[p + 1] {
            Insn::Alu64 {
                op,
                dst,
                src: Operand::Reg(s),
            } if s == a && dst != a => Insn::Alu64 {
                op,
                dst,
                src: Operand::Reg(b),
            },
            Insn::Alu32 {
                op,
                dst,
                src: Operand::Reg(s),
            } if s == a && dst != a => Insn::Alu32 {
                op,
                dst,
                src: Operand::Reg(b),
            },
            _ => {
                p += 1;
                continue;
            }
        };
        if lead[p + 1] || live.live_out[p + 1].reg(a) {
            p += 1;
            continue;
        }
        rewrites.push(Rewrite::Repl(p + 1, renamed));
        rewrites.push(Rewrite::Del(p));
        stats.peephole_rewrites += 1;
        p += 2;
    }
    apply_rewrites(insns, rewrites)
}

/// Loop-invariant code motion over single-entry contiguous loops,
/// for the two shapes the shipped builders produce: constant stack
/// stores re-executed every iteration, and invocation-constant
/// helper reads (`ktime`, `cpu-id`) paired with an adjacent spill.
/// Hoisted code lands in a preheader that back edges skip (see
/// [`insert_at`]).
pub(crate) fn licm(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let loops = contiguous_loops(insns);
    let maps = an.maps();
    let (facts, live) = an.facts_and_liveness(insns);
    let lead = leaders(insns);
    for lp in loops {
        if !lp.single_entry {
            continue;
        }
        let (h, l) = (lp.header, lp.latch);
        // Every stack write in the loop; a write the facts cannot pin
        // to an exact span disables hoisting for this loop entirely.
        let mut wild = false;
        let mut writes: Vec<(usize, usize, usize)> = Vec::new();
        for pc in h..=l {
            if let Insn::Store {
                base, off, size, ..
            }
            | Insn::StoreImm {
                base, off, size, ..
            } = insns[pc]
            {
                match exact_stack_span(facts.reg(pc, base), off, size.bytes()) {
                    Some((s, len)) => writes.push((pc, s, len)),
                    None if non_stack_base(facts.reg(pc, base)) => {}
                    None => wild = true,
                }
            }
        }
        if wild {
            continue;
        }
        // linear[i]: every branch in [h, h+i) is a loop-exiting
        // JumpIf (or Exit), so insn h+i runs in every iteration that
        // gets that far.
        let mut linear = vec![false; l - h + 1];
        let mut straight = true;
        for i in 0..=(l - h) {
            linear[i] = straight;
            match insns[h + i] {
                Insn::Jump { .. } => straight = false,
                Insn::JumpIf { off, .. } => match target_of(insns, h + i, off) {
                    Some(t) if t < h || t > l => {}
                    _ => straight = false,
                },
                _ => {}
            }
        }
        let exit_targets_before = |s: usize| -> Vec<usize> {
            let mut v = Vec::new();
            for pc in h..s {
                if let Insn::JumpIf { off, .. } = insns[pc] {
                    if let Some(t) = target_of(insns, pc, off) {
                        if t < h || t > l {
                            v.push(t);
                        }
                    }
                }
            }
            v
        };
        // A slot is hoistable only if no instruction in [h, s_end)
        // can read it: iteration one would otherwise observe the
        // pre-loop value where the hoisted store already wrote.
        let reads_clear = |s_end: usize, sb: usize, ln: usize| -> bool {
            for pc in h..s_end {
                match stack_reads_of(insns, facts, maps, pc) {
                    None => return false,
                    Some(spans) => {
                        if spans.iter().any(|&(rs, rl)| rs < sb + ln && sb < rs + rl) {
                            return false;
                        }
                    }
                }
            }
            true
        };
        let slot_ok = |cand_pc: usize, read_end: usize, sb: usize, ln: usize| -> bool {
            !writes
                .iter()
                .any(|&(wpc, ws, wl)| wpc != cand_pc && ws < sb + ln && sb < ws + wl)
                && reads_clear(read_end, sb, ln)
                && !exit_targets_before(read_end)
                    .iter()
                    .any(|&t| t < insns.len() && live.live_in[t].stack_overlaps(sb, ln))
        };
        let mut hoisted_pcs: Vec<usize> = Vec::new();
        let mut preheader: Vec<Insn> = Vec::new();
        let mut count = 0u64;
        for pc in h..=l {
            if let Insn::StoreImm {
                base: Reg::R10,
                off,
                imm,
                size,
            } = insns[pc]
            {
                if !linear[pc - h] {
                    continue;
                }
                let Some((sb, ln)) = exact_stack_span(facts.reg(pc, Reg::R10), off, size.bytes())
                else {
                    continue;
                };
                if slot_ok(pc, pc, sb, ln) {
                    hoisted_pcs.push(pc);
                    preheader.push(Insn::StoreImm {
                        base: Reg::R10,
                        off,
                        imm,
                        size,
                    });
                    count += 1;
                }
            }
        }
        for pc in h..l {
            let Insn::Call {
                helper: HelperId::KtimeGetNs,
            } = insns[pc]
            else {
                continue;
            };
            let Insn::Store {
                base: Reg::R10,
                off,
                src: Reg::R0,
                size: AccessSize::B8,
            } = insns[pc + 1]
            else {
                continue;
            };
            if lead[pc + 1] || !linear[pc - h] || live.live_out[pc + 1].reg(Reg::R0) {
                continue;
            }
            // The hoisted call clobbers r0-r5 before the loop, so
            // nothing entering the loop may rely on them.
            if live.live_in[h].regs & 0x3f != 0 {
                continue;
            }
            let Some((sb, ln)) = exact_stack_span(facts.reg(pc + 1, Reg::R10), off, 8) else {
                continue;
            };
            if hoisted_pcs.contains(&pc) || hoisted_pcs.contains(&(pc + 1)) {
                continue;
            }
            if slot_ok(pc + 1, pc, sb, ln) {
                hoisted_pcs.push(pc);
                hoisted_pcs.push(pc + 1);
                preheader.push(Insn::Call {
                    helper: HelperId::KtimeGetNs,
                });
                preheader.push(Insn::Store {
                    base: Reg::R10,
                    off,
                    src: Reg::R0,
                    size: AccessSize::B8,
                });
                count += 1;
            }
        }
        if hoisted_pcs.is_empty() {
            continue;
        }
        hoisted_pcs.sort_unstable();
        for pc in hoisted_pcs.into_iter().rev() {
            delete_at(insns, pc);
        }
        insert_at(insns, h, preheader);
        stats.invariants_hoisted += count;
        return true;
    }
    false
}

/// Induction-variable strength reduction: in a straight-line loop
/// where `i` steps by a constant `k`, a derived address computation
/// `mov x, i; mul x, m; add x, c` collapses to `add x, delta` with a
/// preheader seeding `x`. Multiple derived triples of the same pair
/// reduce together.
pub(crate) fn ivsr(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let loops = contiguous_loops(insns);
    let live = an.liveness(insns);
    for lp in loops {
        if !lp.single_entry {
            continue;
        }
        let (h, l) = (lp.header, lp.latch);
        // Loop shape: every in-loop branch either exits the loop,
        // is the latch's back edge, or jumps *forward* within the
        // body (skipping a region). Backward inner branches would
        // re-run a reduced `add x, delta` and double-count, so they
        // reject the loop; forward skips are fine as long as the
        // triples and the increment sit outside every skippable
        // region (checked below via `on_every_path`).
        let mut ok_shape = true;
        let mut skips: Vec<(usize, usize)> = Vec::new();
        let mut exits: Vec<usize> = Vec::new();
        for pc in h..=l {
            let off = match insns[pc] {
                Insn::Jump { off } | Insn::JumpIf { off, .. } => off,
                _ => continue,
            };
            match target_of(insns, pc, off) {
                Some(t) if t < h || t > l => exits.push(t),
                Some(t) if pc == l && t == h => {}
                Some(t) if t > pc => skips.push((pc, t)),
                _ => {
                    ok_shape = false;
                    break;
                }
            }
        }
        if !ok_shape {
            continue;
        }
        if matches!(insns[l], Insn::JumpIf { .. }) && l + 1 < insns.len() {
            exits.push(l + 1);
        }
        let on_every_path = |p: usize| !skips.iter().any(|&(q, t)| q < p && p < t);
        let mut defs: Vec<Vec<usize>> = vec![Vec::new(); 11];
        for pc in h..=l {
            match insns[pc] {
                Insn::Call { .. } | Insn::CallKfunc { .. } => {
                    for d in defs.iter_mut().take(6) {
                        d.push(pc);
                    }
                }
                ref insn => {
                    if let Some(d) = def_of(insn) {
                        defs[d.index()].push(pc);
                    }
                }
            }
        }
        for i_idx in 0..10usize {
            if defs[i_idx].len() != 1 {
                continue;
            }
            let pc_inc = defs[i_idx][0];
            let i = Reg::new(i_idx as u8);
            let Insn::Alu64 {
                op: AluOp::Add,
                dst,
                src: Operand::Imm(k),
            } = insns[pc_inc]
            else {
                continue;
            };
            if dst != i || !on_every_path(pc_inc) {
                continue;
            }
            for x_idx in 0..10usize {
                if x_idx == i_idx || defs[x_idx].is_empty() {
                    continue;
                }
                let x = Reg::new(x_idx as u8);
                let mut triples: Vec<(usize, i64, i64)> = Vec::new();
                let mut all_triples = true;
                let mut covered: Vec<usize> = Vec::new();
                for &q in &defs[x_idx] {
                    if covered.contains(&q) {
                        continue;
                    }
                    match triple_at(insns, q, i, x) {
                        Some((m, c))
                            if q + 2 < pc_inc
                                && on_every_path(q)
                                && on_every_path(q + 1)
                                && on_every_path(q + 2) =>
                        {
                            triples.push((q, m, c));
                            covered.extend_from_slice(&[q, q + 1, q + 2]);
                        }
                        _ => {
                            all_triples = false;
                            break;
                        }
                    }
                }
                if !all_triples || triples.is_empty() {
                    continue;
                }
                let m = triples[0].1;
                if triples.iter().any(|&(_, tm, _)| tm != m) {
                    continue;
                }
                if live.live_in[h].reg(x)
                    || exits
                        .iter()
                        .any(|&t| t < insns.len() && live.live_in[t].reg(x))
                {
                    continue;
                }
                // Seed x so that entering the triple region always
                // satisfies x == m*i + c_last - m*k, the value the
                // last triple plus the step leave behind.
                let c_last = triples.last().expect("non-empty").2;
                let c_init = c_last.wrapping_sub(m.wrapping_mul(k));
                let mut rewrites = Vec::new();
                let mut prev = c_init;
                for &(q, _, c) in &triples {
                    rewrites.push(Rewrite::Repl(
                        q,
                        Insn::Alu64 {
                            op: AluOp::Add,
                            dst: x,
                            src: Operand::Imm(c.wrapping_sub(prev)),
                        },
                    ));
                    rewrites.push(Rewrite::Del(q + 1));
                    rewrites.push(Rewrite::Del(q + 2));
                    prev = c;
                }
                let n = triples.len() as u64;
                apply_rewrites(insns, rewrites);
                insert_at(
                    insns,
                    h,
                    vec![
                        mov_reg(x, i),
                        Insn::Alu64 {
                            op: AluOp::Mul,
                            dst: x,
                            src: Operand::Imm(m),
                        },
                        Insn::Alu64 {
                            op: AluOp::Add,
                            dst: x,
                            src: Operand::Imm(c_init),
                        },
                    ],
                );
                stats.iv_strength_reduced += n;
                return true;
            }
        }
    }
    false
}

/// Matches `mov x, i; mul x, imm; add x, imm` starting at `q`.
fn triple_at(insns: &[Insn], q: usize, i: Reg, x: Reg) -> Option<(i64, i64)> {
    if q + 2 >= insns.len() {
        return None;
    }
    let Insn::Alu64 {
        op: AluOp::Mov,
        dst,
        src: Operand::Reg(s),
    } = insns[q]
    else {
        return None;
    };
    if dst != x || s != i {
        return None;
    }
    let Insn::Alu64 {
        op: AluOp::Mul,
        dst: d1,
        src: Operand::Imm(m),
    } = insns[q + 1]
    else {
        return None;
    };
    if d1 != x {
        return None;
    }
    let Insn::Alu64 {
        op: AluOp::Add,
        dst: d2,
        src: Operand::Imm(c),
    } = insns[q + 2]
    else {
        return None;
    };
    if d2 != x {
        return None;
    }
    Some((m, c))
}

/// Unifies two stack slots connected by a `load t, [fp+A]; store
/// [fp+B], t` copy when they can share storage: all accesses to both
/// are exact 8-byte frame-pointer accesses, helpers never read `A`,
/// and neither slot is live at a write to the other. Every `A`
/// access is renamed to `B`; the copy-store becomes a self-store and
/// is deleted (the load dies in the next DCE round).
pub(crate) fn slot_unify(insns: &mut Vec<Insn>, an: &mut Analyses, stats: &mut OptStats) -> bool {
    let maps = an.maps();
    let (facts, live) = an.facts_and_liveness(insns);
    let lead = leaders(insns);
    for p in 0..insns.len().saturating_sub(1) {
        let Insn::Load {
            dst: t,
            base: Reg::R10,
            off: a_off,
            size: AccessSize::B8,
        } = insns[p]
        else {
            continue;
        };
        let Insn::Store {
            base: Reg::R10,
            off: b_off,
            src,
            size: AccessSize::B8,
        } = insns[p + 1]
        else {
            continue;
        };
        if src != t || a_off == b_off || lead[p + 1] || live.live_out[p + 1].reg(t) {
            continue;
        }
        let (Some(ab), Some(bb)) = (stack_byte(a_off as i64), stack_byte(b_off as i64)) else {
            continue;
        };
        if !unify_ok(insns, facts, live, maps, p + 1, a_off, b_off, ab, bb) {
            continue;
        }
        for insn in insns.iter_mut() {
            if let Insn::Load {
                base: Reg::R10,
                off,
                ..
            }
            | Insn::Store {
                base: Reg::R10,
                off,
                ..
            }
            | Insn::StoreImm {
                base: Reg::R10,
                off,
                ..
            } = insn
            {
                if *off == a_off {
                    *off = b_off;
                }
            }
        }
        delete_at(insns, p + 1);
        stats.slots_unified += 1;
        return true;
    }
    false
}

#[allow(clippy::too_many_arguments)]
fn unify_ok(
    insns: &[Insn],
    facts: &Facts,
    live: &Liveness,
    maps: &MapSet,
    copy_store: usize,
    a_off: i16,
    b_off: i16,
    ab: usize,
    bb: usize,
) -> bool {
    let over = |s: usize, l: usize, start: usize| s < start + 8 && start < s + l;
    for pc in 0..insns.len() {
        match insns[pc] {
            Insn::Load {
                base, off, size, ..
            }
            | Insn::Store {
                base, off, size, ..
            }
            | Insn::StoreImm {
                base, off, size, ..
            } => {
                if base == Reg::R10 {
                    let Some(s) = stack_byte(off as i64) else {
                        return false;
                    };
                    let l = size.bytes();
                    if over(s, l, ab) && !(off == a_off && size == AccessSize::B8) {
                        return false;
                    }
                    if over(s, l, bb) && !(off == b_off && size == AccessSize::B8) {
                        return false;
                    }
                } else if !non_stack_base(facts.reg(pc, base)) {
                    match exact_stack_span(facts.reg(pc, base), off, size.bytes()) {
                        Some((s, l)) => {
                            if over(s, l, ab) || over(s, l, bb) {
                                return false;
                            }
                        }
                        None => return false,
                    }
                }
            }
            Insn::Call { .. } => match stack_reads_of(insns, facts, maps, pc) {
                None => return false,
                Some(spans) => {
                    if spans.iter().any(|&(s, l)| over(s, l, ab)) {
                        return false;
                    }
                }
            },
            _ => {}
        }
    }
    for pc in 0..insns.len() {
        let w_off = match insns[pc] {
            Insn::Store {
                base: Reg::R10,
                off,
                ..
            }
            | Insn::StoreImm {
                base: Reg::R10,
                off,
                ..
            } => off,
            _ => continue,
        };
        if w_off == a_off && live.live_out[pc].stack_overlaps(bb, 8) {
            return false;
        }
        if w_off == b_off && pc != copy_store && live.live_out[pc].stack_overlaps(ab, 8) {
            return false;
        }
    }
    true
}

/// Promotes stack slots to never-used callee-saved registers
/// (`r6..=r9`). A slot qualifies when every access is an exact
/// 8-byte frame-pointer access and no helper reads it. Access count
/// is unchanged (loads/stores become movs); the win comes from the
/// coalescing passes that follow.
pub(crate) fn promote(insns: &mut [Insn], an: &mut Analyses, stats: &mut OptStats) -> bool {
    let maps = an.maps();
    let facts = an.facts(insns);
    let free: Vec<Reg> = [Reg::R6, Reg::R7, Reg::R8, Reg::R9]
        .into_iter()
        .filter(|&r| !insns.iter().any(|i| touches(i, r)))
        .collect();
    if free.is_empty() {
        return false;
    }
    let mut bad = [false; STACK_SIZE];
    let mut slots: Vec<i16> = Vec::new();
    for pc in 0..insns.len() {
        match insns[pc] {
            Insn::Load {
                base, off, size, ..
            }
            | Insn::Store {
                base, off, size, ..
            }
            | Insn::StoreImm {
                base, off, size, ..
            } => {
                if base == Reg::R10 {
                    let Some(s) = stack_byte(off as i64) else {
                        return false;
                    };
                    if size == AccessSize::B8 && s + 8 <= STACK_SIZE {
                        if !slots.contains(&off) {
                            slots.push(off);
                        }
                    } else {
                        for b in bad.iter_mut().skip(s).take(size.bytes()) {
                            *b = true;
                        }
                    }
                } else if !non_stack_base(facts.reg(pc, base)) {
                    match exact_stack_span(facts.reg(pc, base), off, size.bytes()) {
                        Some((s, l)) => {
                            for b in bad.iter_mut().skip(s).take(l) {
                                *b = true;
                            }
                        }
                        None => return false,
                    }
                }
            }
            Insn::Call { .. } => match stack_reads_of(insns, facts, maps, pc) {
                None => return false,
                Some(spans) => {
                    for (s, l) in spans {
                        for b in bad.iter_mut().skip(s).take(l) {
                            *b = true;
                        }
                    }
                }
            },
            _ => {}
        }
    }
    let byte_of = |off: i16| stack_byte(off as i64).expect("collected slots are in bounds");
    let mut candidates: Vec<i16> = slots
        .iter()
        .copied()
        .filter(|&o| {
            let s = byte_of(o);
            let clash = slots.iter().any(|&o2| {
                o2 != o && {
                    let s2 = byte_of(o2);
                    s2 < s + 8 && s < s2 + 8
                }
            });
            !clash && !(s..s + 8).any(|b| bad[b])
        })
        .collect();
    // Busiest slots first so the hottest accumulator gets a register
    // even when there are more candidates than free registers.
    let access_count = |o: i16| {
        insns
            .iter()
            .filter(|i| {
                matches!(
                    **i,
                    Insn::Load { base: Reg::R10, off, .. }
                    | Insn::Store { base: Reg::R10, off, .. }
                    | Insn::StoreImm { base: Reg::R10, off, .. }
                    if off == o
                )
            })
            .count()
    };
    candidates.sort_by_key(|&o| (std::cmp::Reverse(access_count(o)), o));
    let mut changed = false;
    for (slot, reg) in candidates.into_iter().zip(free) {
        for insn in insns.iter_mut() {
            let new = match *insn {
                Insn::Load {
                    dst,
                    base: Reg::R10,
                    off,
                    size: AccessSize::B8,
                } if off == slot => Some(mov_reg(dst, reg)),
                Insn::Store {
                    base: Reg::R10,
                    off,
                    src,
                    size: AccessSize::B8,
                } if off == slot => Some(mov_reg(reg, src)),
                Insn::StoreImm {
                    base: Reg::R10,
                    off,
                    imm,
                    size: AccessSize::B8,
                } if off == slot => Some(mov_imm(reg, imm)),
                _ => None,
            };
            if let Some(n) = new {
                *insn = n;
                changed = true;
            }
        }
        stats.slots_promoted += 1;
    }
    changed
}

/// Loop rotation: when a loop is `header: guard-exit; body…; latch:
/// ja header` and the guard exits to exactly `latch + 1`, the latch
/// becomes the negated guard targeting `header + 1`. The original
/// guard remains as the zero-trip check; every later iteration skips
/// it. Runs only when a round made no other change, because it
/// destroys the single-entry shape the loop passes rely on.
pub(crate) fn rotate(insns: &mut [Insn], stats: &mut OptStats) -> bool {
    let loops = contiguous_loops(insns);
    for lp in loops {
        if !lp.single_entry {
            continue;
        }
        let (h, l) = (lp.header, lp.latch);
        if !matches!(insns[l], Insn::Jump { .. }) {
            continue;
        }
        let Insn::JumpIf {
            cond,
            dst,
            src,
            off,
        } = insns[h]
        else {
            continue;
        };
        if target_of(insns, h, off) != Some(l + 1) {
            continue;
        }
        let Some(ncond) = negate(cond) else {
            continue;
        };
        insns[l] = Insn::JumpIf {
            cond: ncond,
            dst,
            src,
            off: h as i32 - l as i32,
        };
        stats.loops_rotated += 1;
        return true;
    }
    false
}

/// The condition testing the exact opposite of `c`, when one exists
/// (`Set` has no single-instruction negation).
fn negate(c: JmpCond) -> Option<JmpCond> {
    Some(match c {
        JmpCond::Eq => JmpCond::Ne,
        JmpCond::Ne => JmpCond::Eq,
        JmpCond::Gt => JmpCond::Le,
        JmpCond::Le => JmpCond::Gt,
        JmpCond::Ge => JmpCond::Lt,
        JmpCond::Lt => JmpCond::Ge,
        JmpCond::SGt => JmpCond::SLe,
        JmpCond::SLe => JmpCond::SGt,
        JmpCond::SGe => JmpCond::SLt,
        JmpCond::SLt => JmpCond::SGe,
        JmpCond::Set => return None,
    })
}
