//! Lints for verifiable-but-suspicious programs.
//!
//! The verifier answers "is this program safe to run"; the lints
//! answer "does this program do what its author probably meant".
//! They reuse the optimizer's CFG and dataflow facts, so a lint is a
//! pure read over analyses that already exist — adding one is a
//! single [`Lint`] impl.

use std::fmt;

use crate::insn::{HelperId, Insn, Operand, Reg};
use crate::map::MapSet;
use crate::program::Program;
use crate::verify::{refine_branch, KfuncSig};

use super::analysis::{
    compute_facts, compute_liveness, compute_map_taint, exact_stack_span, Facts, Liveness,
};
use super::cfg::{contiguous_loops, static_reachable, ContigLoop};

/// How seriously a diagnostic should be taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: almost certainly intentional, worth knowing.
    Note,
    /// Likely a mistake, but harmless to run.
    Warn,
    /// A pattern shipped programs must not contain; a `snapbpf`
    /// unit test fails on these.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One finding from one lint at one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`SB001`…).
    pub code: &'static str,
    /// Severity of this finding.
    pub severity: Severity,
    /// Instruction index the finding is anchored to.
    pub insn: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Shared read-only analyses handed to every lint.
pub struct LintContext<'a> {
    insns: &'a [Insn],
    facts: Facts,
    live: Liveness,
    reach: Vec<bool>,
    taint: Vec<u16>,
    loops: Vec<ContigLoop>,
}

/// A single check over a verified program's instruction stream and
/// dataflow facts.
pub trait Lint {
    /// The stable code this lint emits (`SB001`…).
    fn code(&self) -> &'static str;
    /// Runs the check, appending any findings to `out`.
    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// SB001: a `lddw rX, map` whose register is never used. The map fd
/// is loaded and dropped — usually a leftover from a deleted lookup.
struct UnusedMapFd;

impl Lint for UnusedMapFd {
    fn code(&self) -> &'static str {
        "SB001"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for pc in 0..cx.insns.len() {
            if !cx.reach[pc] {
                continue;
            }
            if let Insn::LoadMapRef { dst, .. } = cx.insns[pc] {
                if !cx.live.live_out[pc].reg(dst) {
                    out.push(Diagnostic {
                        code: self.code(),
                        severity: Severity::Warn,
                        insn: pc,
                        message: format!("map reference loaded into {dst} is never used"),
                    });
                }
            }
        }
    }
}

/// SB002: a conditional branch the ranges prove one-sided. The code
/// on the impossible edge is effectively commented out.
struct ConstantBranch;

impl Lint for ConstantBranch {
    fn code(&self) -> &'static str {
        "SB002"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for pc in 0..cx.insns.len() {
            if !cx.reach[pc] || cx.facts.entry[pc].is_none() {
                continue;
            }
            let Insn::JumpIf { cond, dst, src, .. } = cx.insns[pc] else {
                continue;
            };
            let Some(dr) = cx.facts.operand_range(pc, Operand::Reg(dst)) else {
                continue;
            };
            let Some(sr) = cx.facts.operand_range(pc, src) else {
                continue;
            };
            let taken = refine_branch(cond, true, dr, sr).is_some();
            let fall = refine_branch(cond, false, dr, sr).is_some();
            let verdict = match (taken, fall) {
                (true, false) => "always",
                (false, true) => "never",
                _ => continue,
            };
            out.push(Diagnostic {
                code: self.code(),
                severity: Severity::Note,
                insn: pc,
                message: format!("branch is {verdict} taken for all verified inputs"),
            });
        }
    }
}

/// SB003: a stack store none of whose bytes are ever read again.
struct DeadStackStore;

impl Lint for DeadStackStore {
    fn code(&self) -> &'static str {
        "SB003"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for pc in 0..cx.insns.len() {
            if !cx.reach[pc] {
                continue;
            }
            let span = match cx.insns[pc] {
                Insn::Store {
                    base, off, size, ..
                }
                | Insn::StoreImm {
                    base, off, size, ..
                } => exact_stack_span(cx.facts.reg(pc, base), off, size.bytes()),
                _ => None,
            };
            let Some((s, len)) = span else { continue };
            if !cx.live.live_out[pc].stack_overlaps(s, len) {
                out.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Note,
                    insn: pc,
                    message: "stored stack bytes are never read".to_string(),
                });
            }
        }
    }
}

/// SB004: a `ringbuf_output` whose result is discarded. The push can
/// fail with `-ENOSPC` under load and the program would never know.
struct UncheckedRingbufPush;

impl Lint for UncheckedRingbufPush {
    fn code(&self) -> &'static str {
        "SB004"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for pc in 0..cx.insns.len() {
            if !cx.reach[pc] {
                continue;
            }
            if matches!(
                cx.insns[pc],
                Insn::Call {
                    helper: HelperId::RingbufOutput
                }
            ) && !cx.live.live_out[pc].reg(Reg::R0)
            {
                out.push(Diagnostic {
                    code: self.code(),
                    severity: Severity::Warn,
                    insn: pc,
                    message: "ringbuf_output result is never checked; \
                              -ENOSPC drops go unnoticed"
                        .to_string(),
                });
            }
        }
    }
}

/// SB005: a loop whose bound compares against a value read from map
/// memory with no clamp on it. The verifier accepts it when a
/// secondary check bounds the trip count, but the map-derived
/// operand itself spans the full `u64` range — one bad map write and
/// the loop's intent is gone.
struct UnclampedMapLoopBound;

impl Lint for UnclampedMapLoopBound {
    fn code(&self) -> &'static str {
        "SB005"
    }

    fn check(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for lp in &cx.loops {
            for pc in lp.header..=lp.latch {
                if !cx.reach[pc] || cx.facts.entry[pc].is_none() {
                    continue;
                }
                let Insn::JumpIf { dst, src, .. } = cx.insns[pc] else {
                    continue;
                };
                let mut operands = vec![Operand::Reg(dst)];
                operands.push(src);
                for op in operands {
                    let Operand::Reg(r) = op else { continue };
                    if cx.taint[pc] & (1 << r.index()) == 0 {
                        continue;
                    }
                    let Some(range) = cx.facts.operand_range(pc, op) else {
                        continue;
                    };
                    if range.umax == u64::MAX {
                        out.push(Diagnostic {
                            code: self.code(),
                            severity: Severity::Deny,
                            insn: pc,
                            message: format!("loop bound in {r} comes from an unclamped map value"),
                        });
                    }
                }
            }
        }
    }
}

/// A program's full lint run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the linted program.
    pub program: String,
    /// Findings, sorted by `(insn, code)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when any finding is [`Severity::Deny`].
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Renders the report in the pinned text format used by the lint
    /// corpus goldens.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = format!("lint {}\n", self.program);
        if self.diagnostics.is_empty() {
            out.push_str("  no diagnostics\n");
        }
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "  {} {} insn {}: {}",
                d.code, d.severity, d.insn, d.message
            );
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(UnusedMapFd),
        Box::new(ConstantBranch),
        Box::new(DeadStackStore),
        Box::new(UncheckedRingbufPush),
        Box::new(UnclampedMapLoopBound),
    ]
}

/// Runs every lint over `program` and returns the findings sorted by
/// `(insn, code)`.
pub fn lint_program(program: &Program, maps: &MapSet, kfuncs: &[KfuncSig]) -> LintReport {
    let insns = program.insns();
    let facts = compute_facts(insns);
    let live = compute_liveness(insns, maps, kfuncs, &facts);
    let reach = static_reachable(insns);
    let taint = compute_map_taint(insns, &facts);
    let loops = contiguous_loops(insns);
    let cx = LintContext {
        insns,
        facts,
        live,
        reach,
        taint,
        loops,
    };
    let mut diagnostics = Vec::new();
    for lint in all_lints() {
        lint.check(&cx, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| (a.insn, a.code).cmp(&(b.insn, b.code)));
    diagnostics.dedup();
    LintReport {
        program: program.name().to_string(),
        diagnostics,
    }
}
