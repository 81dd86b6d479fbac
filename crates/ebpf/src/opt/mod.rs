//! Static analysis over verified programs: an optimization pass
//! pipeline and a lint layer, both driven by the verifier's range
//! analysis.
//!
//! The [`PassManager`] composes constant folding, range-based branch
//! elimination, dead-code elimination, a peephole tier, and loop
//! transforms (invariant hoisting, induction-variable strength
//! reduction, slot unification, register promotion, loop rotation)
//! to a fixpoint. Every pass preserves observable
//! behaviour — return value, map and ring-buffer effects, and their
//! order — and the host re-verifies each optimized image before
//! attaching it, so the verifier, not the optimizer, remains the
//! safety boundary.
//!
//! The lint layer ([`lint_program`]) reuses the same CFG and
//! dataflow facts to flag verifiable-but-suspicious programs.

pub(crate) mod analysis;
pub(crate) mod cfg;

mod lint;
mod passes;

pub use lint::{lint_program, Diagnostic, Lint, LintContext, LintReport, Severity};

use crate::map::MapSet;
use crate::program::Program;
use crate::verify::KfuncSig;
use analysis::Analyses;

use std::fmt;

/// Counters describing what one [`PassManager::optimize`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Fixpoint rounds executed (including the final quiet round).
    pub rounds: u64,
    /// Instruction count before optimization.
    pub insns_before: u64,
    /// Instruction count after optimization.
    pub insns_after: u64,
    /// ALU/branch/store operands folded to constants.
    pub const_folds: u64,
    /// Conditional branches proven one-sided and removed/rewritten.
    pub branches_eliminated: u64,
    /// Statically unreachable instructions removed.
    pub unreachable_removed: u64,
    /// Side-effect-free definitions of dead registers removed.
    pub dead_defs_removed: u64,
    /// Peephole rewrites (identities, coalescing, fusion).
    pub peephole_rewrites: u64,
    /// Loop-invariant stores/helper reads hoisted to a preheader.
    pub invariants_hoisted: u64,
    /// Derived induction-variable computations strength-reduced.
    pub iv_strength_reduced: u64,
    /// Stack slot pairs merged into one.
    pub slots_unified: u64,
    /// Stack slots promoted to callee-saved registers.
    pub slots_promoted: u64,
    /// Loops rotated (guard duplicated into the latch).
    pub loops_rotated: u64,
}

impl fmt::Display for OptStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "insns {} -> {} in {} rounds \
             (fold={} branch={} unreachable={} dead-def={} peephole={} \
             hoist={} ivsr={} unify={} promote={} rotate={})",
            self.insns_before,
            self.insns_after,
            self.rounds,
            self.const_folds,
            self.branches_eliminated,
            self.unreachable_removed,
            self.dead_defs_removed,
            self.peephole_rewrites,
            self.invariants_hoisted,
            self.iv_strength_reduced,
            self.slots_unified,
            self.slots_promoted,
            self.loops_rotated,
        )
    }
}

/// Runs the optimization pipeline to a fixpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassManager;

/// Safety valve on the fixpoint loop; real programs converge in a
/// handful of rounds.
const MAX_ROUNDS: u64 = 64;

impl PassManager {
    /// Creates a pass manager.
    pub fn new() -> Self {
        PassManager
    }

    /// Optimizes a *verified* program, returning the rewritten
    /// program and the pass statistics. The input must have passed
    /// [`crate::Verifier::verify`] — the passes rely on verifier
    /// guarantees (no reads of uninitialized registers or stack
    /// bytes, in-bounds accesses) for soundness — and the caller is
    /// expected to re-verify the output before running it.
    pub fn optimize(
        &self,
        program: &Program,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> (Program, OptStats) {
        let mut insns = program.insns().to_vec();
        let mut stats = OptStats {
            insns_before: insns.len() as u64,
            ..OptStats::default()
        };
        let mut an = Analyses::new(maps, kfuncs);
        while stats.rounds < MAX_ROUNDS {
            stats.rounds += 1;
            let mut changed = false;
            changed |= passes::const_fold(&mut insns, &mut an, &mut stats);
            changed |= passes::branch_elim(&mut insns, &mut an, &mut stats);
            changed |= passes::dce(&mut insns, &mut an, &mut stats);
            changed |= passes::peephole(&mut insns, &mut an, &mut stats);
            changed |= passes::licm(&mut insns, &mut an, &mut stats);
            changed |= passes::ivsr(&mut insns, &mut an, &mut stats);
            changed |= passes::slot_unify(&mut insns, &mut an, &mut stats);
            changed |= passes::promote(&mut insns, &mut an, &mut stats);
            if !changed {
                // Rotation destroys the single-entry loop shape the
                // other loop passes need, so it only runs once the
                // rest are quiet; a rotation earns one more full
                // round so any now-dead code is cleaned up.
                if passes::rotate(&mut insns, &mut stats) {
                    continue;
                }
                break;
            }
        }
        stats.insns_after = insns.len() as u64;
        (Program::from_raw(program.name().to_string(), insns), stats)
    }
}
