//! The instruction set of the miniature eBPF machine.
//!
//! A register machine with eleven 64-bit registers (`r0`–`r10`), a
//! 512-byte stack, ALU and conditional-jump instructions, helper
//! calls with the eBPF calling convention (`r1`–`r5` arguments, `r0`
//! return, `r1`–`r5` clobbered), kfunc calls, and pseudo
//! instructions for loading map references — the subset of real eBPF
//! that kernel-side snapshot prefetching needs, with the same
//! semantics (e.g. division by zero yields zero; 32-bit ALU ops
//! zero-extend).

use std::fmt;

use crate::map::MapId;

/// A machine register, `r0` through `r10`.
///
/// `r10` is the read-only frame pointer. `r1`–`r5` carry helper and
/// kfunc arguments, `r0` carries return values, `r6`–`r9` are
/// callee-saved (and, in a single-function program, simply
/// persistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Return-value register.
    pub const R0: Reg = Reg(0);
    /// First argument register / context pointer at entry.
    pub const R1: Reg = Reg(1);
    /// Second argument register.
    pub const R2: Reg = Reg(2);
    /// Third argument register.
    pub const R3: Reg = Reg(3);
    /// Fourth argument register.
    pub const R4: Reg = Reg(4);
    /// Fifth argument register.
    pub const R5: Reg = Reg(5);
    /// Callee-saved register.
    pub const R6: Reg = Reg(6);
    /// Callee-saved register.
    pub const R7: Reg = Reg(7);
    /// Callee-saved register.
    pub const R8: Reg = Reg(8);
    /// Callee-saved register.
    pub const R9: Reg = Reg(9);
    /// Frame pointer (read-only).
    pub const R10: Reg = Reg(10);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 10`.
    pub const fn new(index: u8) -> Reg {
        assert!(index <= 10, "register index out of range");
        Reg(index)
    }

    /// The register's index, 0–10.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` for `r10`.
    pub const fn is_frame_pointer(self) -> bool {
        self.0 == 10
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Arithmetic/logic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst += src`
    Add,
    /// `dst -= src`
    Sub,
    /// `dst *= src`
    Mul,
    /// `dst /= src` (unsigned; division by zero yields 0)
    Div,
    /// `dst %= src` (unsigned; modulo by zero yields 0)
    Mod,
    /// `dst |= src`
    Or,
    /// `dst &= src`
    And,
    /// `dst ^= src`
    Xor,
    /// `dst <<= src` (shift amount masked to width)
    Lsh,
    /// `dst >>= src` (logical)
    Rsh,
    /// `dst >>= src` (arithmetic)
    Arsh,
    /// `dst = src`
    Mov,
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Mod => "mod",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Xor => "xor",
            AluOp::Lsh => "lsh",
            AluOp::Rsh => "rsh",
            AluOp::Arsh => "arsh",
            AluOp::Mov => "mov",
        };
        write!(f, "{s}")
    }
}

/// Conditions for conditional jumps (64-bit comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JmpCond {
    /// `dst == src`
    Eq,
    /// `dst != src`
    Ne,
    /// `dst > src` (unsigned)
    Gt,
    /// `dst >= src` (unsigned)
    Ge,
    /// `dst < src` (unsigned)
    Lt,
    /// `dst <= src` (unsigned)
    Le,
    /// `dst > src` (signed)
    SGt,
    /// `dst >= src` (signed)
    SGe,
    /// `dst < src` (signed)
    SLt,
    /// `dst <= src` (signed)
    SLe,
    /// `dst & src != 0`
    Set,
}

impl fmt::Display for JmpCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JmpCond::Eq => "jeq",
            JmpCond::Ne => "jne",
            JmpCond::Gt => "jgt",
            JmpCond::Ge => "jge",
            JmpCond::Lt => "jlt",
            JmpCond::Le => "jle",
            JmpCond::SGt => "jsgt",
            JmpCond::SGe => "jsge",
            JmpCond::SLt => "jslt",
            JmpCond::SLe => "jsle",
            JmpCond::Set => "jset",
        };
        write!(f, "{s}")
    }
}

/// Second operand of ALU and jump instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate (sign-extended to 64 bits).
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl AccessSize {
    /// The width in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.bytes() * 8)
    }
}

/// Built-in helper functions, mirroring the kernel helpers the
/// SnapBPF programs rely on.
///
/// Calling convention: arguments in `r1`–`r5`, result in `r0`,
/// `r1`–`r5` are clobbered by the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperId {
    /// `bpf_map_lookup_elem(map r1, key* r2) -> value* | NULL`
    MapLookup,
    /// `bpf_ktime_get_ns() -> u64` (virtual time)
    KtimeGetNs,
    /// `bpf_ringbuf_output(map r1, data* r2, size r3, flags r4) -> 0 | -err`
    RingbufOutput,
}

impl fmt::Display for HelperId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HelperId::MapLookup => "bpf_map_lookup_elem",
            HelperId::KtimeGetNs => "bpf_ktime_get_ns",
            HelperId::RingbufOutput => "bpf_ringbuf_output",
        };
        write!(f, "{s}")
    }
}

/// One instruction of the miniature eBPF machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    /// 64-bit ALU operation: `dst = dst <op> src`.
    Alu64 {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Second operand.
        src: Operand,
    },
    /// 32-bit ALU operation (result zero-extended to 64 bits).
    Alu32 {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Second operand.
        src: Operand,
    },
    /// `dst = -dst` (64-bit).
    Neg {
        /// Destination register.
        dst: Reg,
    },
    /// Load a 64-bit immediate.
    LoadImm64 {
        /// Destination register.
        dst: Reg,
        /// The immediate.
        imm: i64,
    },
    /// Load a map reference (the `BPF_LD_IMM64` pseudo with
    /// `BPF_PSEUDO_MAP_FD` in real eBPF).
    LoadMapRef {
        /// Destination register.
        dst: Reg,
        /// The map.
        map: MapId,
    },
    /// Read a 64-bit word from the kprobe context: `dst = ctx[index]`.
    ///
    /// Stands in for `PT_REGS_PARMn(ctx)` reads in a real kprobe
    /// program.
    LoadCtx {
        /// Destination register.
        dst: Reg,
        /// Context word index (function argument number).
        index: u8,
    },
    /// Memory load: `dst = *(size*)(base + off)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base pointer register (stack or map-value pointer).
        base: Reg,
        /// Signed byte offset.
        off: i16,
        /// Access width.
        size: AccessSize,
    },
    /// Memory store of a register: `*(size*)(base + off) = src`.
    Store {
        /// Base pointer register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
        /// Value register.
        src: Reg,
        /// Access width.
        size: AccessSize,
    },
    /// Memory store of an immediate: `*(size*)(base + off) = imm`.
    StoreImm {
        /// Base pointer register.
        base: Reg,
        /// Signed byte offset.
        off: i16,
        /// The immediate (truncated to the access width).
        imm: i64,
        /// Access width.
        size: AccessSize,
    },
    /// Unconditional jump by a relative instruction offset
    /// (`0` = next instruction).
    Jump {
        /// Relative offset.
        off: i32,
    },
    /// Conditional jump.
    JumpIf {
        /// Condition.
        cond: JmpCond,
        /// Left-hand register.
        dst: Reg,
        /// Right-hand operand.
        src: Operand,
        /// Relative offset taken when the condition holds.
        off: i32,
    },
    /// Call a built-in helper.
    Call {
        /// The helper.
        helper: HelperId,
    },
    /// Call a registered kernel function (kfunc) by its registry
    /// index. Arguments are scalars in `r1`–`r5`.
    CallKfunc {
        /// Index into the host's kfunc registry.
        kfunc: u32,
    },
    /// Return from the program with `r0` as the result.
    Exit,
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Alu64 { op, dst, src } => write!(f, "{op}64 {dst}, {src}"),
            Insn::Alu32 { op, dst, src } => write!(f, "{op}32 {dst}, {src}"),
            Insn::Neg { dst } => write!(f, "neg64 {dst}"),
            Insn::LoadImm64 { dst, imm } => write!(f, "lddw {dst}, {imm}"),
            Insn::LoadMapRef { dst, map } => write!(f, "lddw {dst}, map#{}", map.as_u32()),
            Insn::LoadCtx { dst, index } => write!(f, "ldctx {dst}, arg{index}"),
            Insn::Load {
                dst,
                base,
                off,
                size,
            } => {
                write!(f, "ldx{size} {dst}, [{base}{off:+}]")
            }
            Insn::Store {
                base,
                off,
                src,
                size,
            } => {
                write!(f, "stx{size} [{base}{off:+}], {src}")
            }
            Insn::StoreImm {
                base,
                off,
                imm,
                size,
            } => {
                write!(f, "st{size} [{base}{off:+}], {imm}")
            }
            Insn::Jump { off } => write!(f, "ja {off:+}"),
            Insn::JumpIf {
                cond,
                dst,
                src,
                off,
            } => write!(f, "{cond} {dst}, {src}, {off:+}"),
            Insn::Call { helper } => write!(f, "call {helper}"),
            Insn::CallKfunc { kfunc } => write!(f, "call kfunc#{kfunc}"),
            Insn::Exit => write!(f, "exit"),
        }
    }
}

/// Stack size available to a program, in bytes (as in real eBPF).
pub const STACK_SIZE: usize = 512;

/// Maximum number of instructions a program may have.
pub const MAX_INSNS: usize = 4096;

/// Maximum number of context words a program may read.
pub const MAX_CTX_WORDS: u8 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_constants() {
        assert_eq!(Reg::R0.index(), 0);
        assert_eq!(Reg::R10.index(), 10);
        assert!(Reg::R10.is_frame_pointer());
        assert!(!Reg::R0.is_frame_pointer());
        assert_eq!(Reg::new(7), Reg::R7);
    }

    #[test]
    #[should_panic(expected = "register index")]
    fn out_of_range_register_panics() {
        Reg::new(11);
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg::R3), Operand::Reg(Reg::R3));
        assert_eq!(Operand::from(-5i64), Operand::Imm(-5));
    }

    #[test]
    fn access_size_bytes() {
        assert_eq!(AccessSize::B1.bytes(), 1);
        assert_eq!(AccessSize::B8.bytes(), 8);
    }

    #[test]
    fn disassembly_smoke() {
        let insns = [
            Insn::Alu64 {
                op: AluOp::Mov,
                dst: Reg::R1,
                src: Operand::Imm(7),
            },
            Insn::Load {
                dst: Reg::R0,
                base: Reg::R10,
                off: -8,
                size: AccessSize::B8,
            },
            Insn::JumpIf {
                cond: JmpCond::Eq,
                dst: Reg::R0,
                src: Operand::Imm(0),
                off: 2,
            },
            Insn::Call {
                helper: HelperId::KtimeGetNs,
            },
            Insn::Exit,
        ];
        let text: Vec<String> = insns.iter().map(|i| i.to_string()).collect();
        assert_eq!(text[0], "mov64 r1, 7");
        assert_eq!(text[1], "ldxu64 r0, [r10-8]");
        assert_eq!(text[2], "jeq r0, 0, +2");
        assert_eq!(text[3], "call bpf_ktime_get_ns");
        assert_eq!(text[4], "exit");
    }
}
