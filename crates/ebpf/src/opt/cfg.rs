//! Control-flow graph utilities shared by the verifier and the
//! optimizer.
//!
//! The verifier's dead-code check and the optimizer's DCE pass both
//! need static reachability; the single implementation lives here
//! ([`static_reachable`]). On top of it the module provides basic
//! blocks, predecessor lists, contiguous natural-loop detection, and
//! the two splice primitives ([`delete_at`], [`insert_at`]) that
//! rewrite an instruction stream while keeping every relative jump
//! offset pointing at the same instruction.

use crate::insn::Insn;

/// Marks every instruction reachable in the *static* CFG from insn
/// 0 (conditional jumps contribute both edges regardless of range
/// feasibility).
pub(crate) fn static_reachable(insns: &[Insn]) -> Vec<bool> {
    let mut reach = vec![false; insns.len()];
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        if pc >= insns.len() || reach[pc] {
            continue;
        }
        reach[pc] = true;
        match insns[pc] {
            Insn::Exit => {}
            Insn::Jump { off } => {
                if let Some(t) = target_of(insns, pc, off) {
                    work.push(t);
                }
            }
            Insn::JumpIf { off, .. } => {
                if let Some(t) = target_of(insns, pc, off) {
                    work.push(t);
                }
                work.push(pc + 1);
            }
            _ => work.push(pc + 1),
        }
    }
    reach
}

/// The in-bounds jump target of the branch at `pc`, if any.
pub(crate) fn target_of(insns: &[Insn], pc: usize, off: i32) -> Option<usize> {
    let t = pc as i64 + 1 + off as i64;
    if t >= 0 && (t as usize) < insns.len() {
        Some(t as usize)
    } else {
        None
    }
}

/// Static successors of the instruction at `pc`: at most two, the
/// branch target first, held inline.
pub(crate) fn succs(insns: &[Insn], pc: usize) -> impl Iterator<Item = usize> {
    let next = (pc + 1 < insns.len()).then_some(pc + 1);
    match insns[pc] {
        Insn::Exit => [None, None],
        Insn::Jump { off } => [target_of(insns, pc, off), None],
        Insn::JumpIf { off, .. } => [target_of(insns, pc, off), next],
        _ => [next, None],
    }
    .into_iter()
    .flatten()
}

/// `true` if `pc` is a basic-block leader: entry, a jump target, or
/// the instruction after a branch/exit.
pub(crate) fn leaders(insns: &[Insn]) -> Vec<bool> {
    let mut lead = vec![false; insns.len()];
    if !insns.is_empty() {
        lead[0] = true;
    }
    for pc in 0..insns.len() {
        match insns[pc] {
            Insn::Jump { off } | Insn::JumpIf { off, .. } => {
                if let Some(t) = target_of(insns, pc, off) {
                    lead[t] = true;
                }
                if pc + 1 < insns.len() {
                    lead[pc + 1] = true;
                }
            }
            Insn::Exit if pc + 1 < insns.len() => lead[pc + 1] = true,
            _ => {}
        }
    }
    lead
}

/// A contiguous natural loop `[header ..= latch]`: the latch is the
/// only branch targeting the header, nothing outside the range jumps
/// into it, and (when `single_entry`) the header is entered solely by
/// fall-through from `header - 1`.
///
/// This deliberately recognizes only the reducible, contiguous shape
/// the in-tree builders (and the text assembler's label discipline)
/// produce; anything else is simply not optimized by the loop passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ContigLoop {
    /// First instruction of the loop body (the back-edge target).
    pub(crate) header: usize,
    /// The back-edge branch (`Jump` or `JumpIf` targeting `header`).
    pub(crate) latch: usize,
    /// `true` when the only way into the header from outside the
    /// loop is falling through from `header - 1`.
    pub(crate) single_entry: bool,
}

/// Finds every [`ContigLoop`] in `insns`.
pub(crate) fn contiguous_loops(insns: &[Insn]) -> Vec<ContigLoop> {
    let mut loops = Vec::new();
    for latch in 0..insns.len() {
        let off = match insns[latch] {
            Insn::Jump { off } | Insn::JumpIf { off, .. } => off,
            _ => continue,
        };
        let Some(header) = target_of(insns, latch, off) else {
            continue;
        };
        if header > latch {
            continue;
        }
        // Reject if any *other* branch targets the header or jumps
        // from outside the range into its interior.
        let mut ok = true;
        let mut single_entry = header == 0 || !is_branch(&insns[header - 1]);
        for pc in 0..insns.len() {
            if pc == latch {
                continue;
            }
            let t = match insns[pc] {
                Insn::Jump { off } | Insn::JumpIf { off, .. } => target_of(insns, pc, off),
                _ => None,
            };
            let Some(t) = t else { continue };
            if t == header {
                if pc < header || pc > latch {
                    single_entry = false;
                } else {
                    // A second back edge: too complex for the loop
                    // passes' linear path reasoning.
                    ok = false;
                    break;
                }
            } else if t > header && t <= latch && (pc < header || pc > latch) {
                ok = false;
                break;
            }
        }
        if ok {
            loops.push(ContigLoop {
                header,
                latch,
                single_entry,
            });
        }
    }
    loops
}

fn is_branch(insn: &Insn) -> bool {
    matches!(insn, Insn::Jump { .. } | Insn::JumpIf { .. } | Insn::Exit)
}

/// Deletes the instruction at `idx`, rewriting every relative jump
/// offset so all other instructions keep their targets. A jump that
/// targeted `idx` itself now targets the instruction that follows it
/// (callers only delete no-ops, dead code, or branches they have
/// proven one-sided, so this is always the intended destination).
pub(crate) fn delete_at(insns: &mut Vec<Insn>, idx: usize) {
    #[allow(clippy::needless_range_loop)]
    for pc in 0..insns.len() {
        if pc == idx {
            continue;
        }
        let off = match insns[pc] {
            Insn::Jump { off } => off,
            Insn::JumpIf { off, .. } => off,
            _ => continue,
        };
        let old_target = pc as i64 + 1 + off as i64;
        let new_pc = if pc > idx { pc as i64 - 1 } else { pc as i64 };
        let new_target = if old_target > idx as i64 {
            old_target - 1
        } else {
            old_target
        };
        set_off(&mut insns[pc], (new_target - new_pc - 1) as i32);
    }
    insns.remove(idx);
}

/// Inserts `new` (which must contain no branches) before `idx`,
/// rewriting jump offsets. Jumps that targeted `idx` are *redirected
/// past* the inserted block only when they come from `idx` onward
/// (i.e. back edges skip it); forward control flow falls through the
/// inserted instructions first. This is exactly the preheader
/// discipline the loop passes need.
pub(crate) fn insert_at(insns: &mut Vec<Insn>, idx: usize, new: Vec<Insn>) {
    debug_assert!(new.iter().all(|i| !is_branch(i)));
    let k = new.len() as i64;
    #[allow(clippy::needless_range_loop)]
    for pc in 0..insns.len() {
        let off = match insns[pc] {
            Insn::Jump { off } => off,
            Insn::JumpIf { off, .. } => off,
            _ => continue,
        };
        let old_target = pc as i64 + 1 + off as i64;
        let new_pc = if pc >= idx { pc as i64 + k } else { pc as i64 };
        let new_target = if old_target >= idx as i64 {
            old_target + k
        } else {
            old_target
        };
        set_off(&mut insns[pc], (new_target - new_pc - 1) as i32);
    }
    insns.splice(idx..idx, new);
}

fn set_off(insn: &mut Insn, new_off: i32) {
    match insn {
        Insn::Jump { off } => *off = new_off,
        Insn::JumpIf { off, .. } => *off = new_off,
        _ => unreachable!("set_off on non-branch"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, JmpCond, Operand, Reg};

    fn mov0() -> Insn {
        Insn::Alu64 {
            op: AluOp::Mov,
            dst: Reg::R0,
            src: Operand::Imm(0),
        }
    }

    fn ja(off: i32) -> Insn {
        Insn::Jump { off }
    }

    fn jeq(off: i32) -> Insn {
        Insn::JumpIf {
            cond: JmpCond::Eq,
            dst: Reg::R0,
            src: Operand::Imm(0),
            off,
        }
    }

    fn targets(insns: &[Insn]) -> Vec<Option<usize>> {
        insns
            .iter()
            .enumerate()
            .map(|(pc, i)| match i {
                Insn::Jump { off } | Insn::JumpIf { off, .. } => target_of(insns, pc, *off),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn delete_preserves_targets() {
        // 0: jeq +2 (-> 3), 1: mov, 2: mov, 3: mov, 4: exit
        let mut insns = vec![jeq(2), mov0(), mov0(), mov0(), Insn::Exit];
        delete_at(&mut insns, 1);
        assert_eq!(targets(&insns), vec![Some(2), None, None, None]);
        // Deleting the target itself redirects to its successor.
        let mut insns = vec![jeq(2), mov0(), mov0(), mov0(), Insn::Exit];
        delete_at(&mut insns, 3);
        assert_eq!(targets(&insns), vec![Some(3), None, None, None]);
    }

    #[test]
    fn insert_lets_back_edges_skip_the_block() {
        // 0: mov, 1: mov (header), 2: jeq +1 (-> 4, exits), 3: ja -3
        // (-> 1, back edge), 4: exit
        let mut insns = vec![mov0(), mov0(), jeq(1), ja(-3), Insn::Exit];
        insert_at(&mut insns, 1, vec![mov0(), mov0()]);
        // Back edge now targets the original header at 3; the exit
        // branch targets exit at 6.
        assert_eq!(
            targets(&insns),
            vec![None, None, None, None, Some(6), Some(3), None]
        );
    }

    #[test]
    fn contiguous_loop_shape() {
        let insns = vec![mov0(), mov0(), jeq(1), ja(-3), Insn::Exit];
        let loops = contiguous_loops(&insns);
        assert_eq!(
            loops,
            vec![ContigLoop {
                header: 1,
                latch: 3,
                single_entry: true,
            }]
        );
    }
}
