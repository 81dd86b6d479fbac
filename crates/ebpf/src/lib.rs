//! # snapbpf-ebpf — a miniature eBPF runtime
//!
//! SnapBPF's contribution is an *eBPF-based* kernel-space prefetcher,
//! so this reproduction carries a real (if miniature) eBPF runtime
//! rather than a hand-waved callback:
//!
//! * [`ProgramBuilder`] — a label-based assembler for the
//!   register-machine [instruction set](Insn),
//! * [`Verifier`] — a static verifier enforcing the kernel's safety
//!   rules with 5.3-class range analysis: initialized registers,
//!   bounded stack and map-value accesses (constant *or*
//!   range-proven offsets), null checks after
//!   `bpf_map_lookup_elem`, helper signatures, bounded loops via
//!   state pruning, bounded complexity — with an optional
//!   [`VerifierLog`],
//! * [`Interpreter`] — executes verified programs with eBPF
//!   semantics (helper calling convention, div-by-zero-is-zero,
//!   32-bit zero extension),
//! * [`MapSet`] — array / per-CPU array / hash / ring-buffer maps
//!   shared between programs and their userspace loaders,
//! * [`TelemetryRecord`] — the typed record schema programs emit
//!   over ring buffers for the kernel→user telemetry channel,
//! * [`KprobeRegistry`] — named hook points (e.g.
//!   `add_to_page_cache_lru`) that kernel code fires,
//! * [`KfuncHost`] — the host side of kfunc calls, through which the
//!   kernel exposes `snapbpf_prefetch()`,
//! * [`PassManager`] / [`lint_program`] — a static-analysis layer
//!   over verified programs: behaviour-preserving optimization
//!   passes driven by the verifier's range analysis, and lints for
//!   verifiable-but-suspicious programs (see [`opt`]).
//!
//! ## Examples
//!
//! Verify and run a program that sums two map slots:
//!
//! ```
//! use snapbpf_ebpf::{
//!     AccessSize, HelperId, Interpreter, JmpCond, MapDef, MapSet, NoKfuncs,
//!     ProgramBuilder, Reg, Verifier,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut maps = MapSet::new();
//! let m = maps.create(MapDef::array(8, 2))?;
//! maps.array_store_u64(m, 0, 40)?;
//! maps.array_store_u64(m, 1, 2)?;
//!
//! let mut b = ProgramBuilder::new("sum2");
//! let out = b.label();
//! b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
//!     .load_map(Reg::R1, m)
//!     .mov(Reg::R2, Reg::R10)
//!     .add(Reg::R2, -4)
//!     .call(HelperId::MapLookup)
//!     .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
//!     .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
//!     .store_imm(Reg::R10, -4, 1, AccessSize::B4)
//!     .load_map(Reg::R1, m)
//!     .mov(Reg::R2, Reg::R10)
//!     .add(Reg::R2, -4)
//!     .call(HelperId::MapLookup)
//!     .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
//!     .load(Reg::R7, Reg::R0, 0, AccessSize::B8)
//!     .mov(Reg::R0, Reg::R6)
//!     .add(Reg::R0, Reg::R7)
//!     .exit()
//!     .bind(out)?
//!     .mov(Reg::R0, 0)
//!     .exit();
//!
//! let prog = Verifier::new(&maps, &[]).verify(&b.build()?)?;
//! let outcome = Interpreter::new().run(&prog, &[], &mut maps, &mut NoKfuncs)?;
//! assert_eq!(outcome.return_value, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm_text;
mod bytecode;
mod hash;
mod insn;
mod interp;
mod kprobe;
mod load;
mod map;
pub mod opt;
mod program;
mod telemetry;
mod verify;

pub use asm_text::{parse_program, ParseError};
pub use bytecode::{decode_program, encode_program, DecodeError, MAGIC, VERSION};
pub use insn::{
    AccessSize, AluOp, HelperId, Insn, JmpCond, Operand, Reg, MAX_CTX_WORDS, MAX_INSNS, STACK_SIZE,
};
pub use interp::{Interpreter, KfuncHost, NoKfuncs, RunError, RunOutcome, INSN_BUDGET};
pub use kprobe::{FireResult, KprobeRegistry, ProbeError, ProbeId};
pub use load::{LoadCache, OptOutcome, ShapeKey};
pub use map::{MapDef, MapError, MapId, MapKind, MapSet, NCPUS};
pub use opt::{lint_program, Diagnostic, Lint, LintReport, OptStats, PassManager, Severity};
pub use program::{AsmError, Label, Program, ProgramBuilder};
pub use telemetry::{
    telemetry_ring_def, telemetry_stats_def, TelemetryDecodeError, TelemetryRecord,
    DEFAULT_TELEMETRY_RING_BYTES, STAT_SLOTS, STAT_SLOT_ENOSPC, STAT_SLOT_ISSUED, STAT_SLOT_PAGES,
    TELEMETRY_RECORD_BYTES,
};
pub use verify::{
    KfuncSig, VerifiedProgram, Verifier, VerifierLog, VerifierStats, VerifyError, VerifyErrorKind,
    COMPLEXITY_LIMIT,
};
