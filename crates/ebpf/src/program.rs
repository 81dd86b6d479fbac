//! Programs and the label-based assembler that builds them.
//!
//! [`ProgramBuilder`] is the in-Rust equivalent of writing an eBPF
//! program in restricted C and compiling it: instructions are
//! appended with forward/backward label references that are resolved
//! at [`ProgramBuilder::build`] time.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::insn::{AccessSize, AluOp, HelperId, Insn, JmpCond, Operand, Reg, MAX_INSNS};
use crate::map::MapId;

/// A label used for jump targets inside a [`ProgramBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An assembled (but not yet verified) program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    insns: Vec<Insn>,
}

impl Program {
    /// Builds a program directly from a raw instruction stream. Used
    /// by the optimizer to materialize a rewritten image; external
    /// callers go through [`ProgramBuilder`] or the text parser.
    pub(crate) fn from_raw(name: String, insns: Vec<Insn>) -> Program {
        Program { name, insns }
    }

    /// The program's name (for diagnostics and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` for an empty program (never valid to run).
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Points the program's map references at `maps`, in place: its
    /// `i`-th distinct map, numbered by first occurrence, becomes
    /// `maps[i]`. This is libbpf's map relocation: a loader builds an
    /// object once and, at each load, rewrites its map references to
    /// that load's maps instead of rebuilding the program.
    ///
    /// # Panics
    ///
    /// If the program references more distinct maps than `maps` holds.
    pub fn relocate(&mut self, maps: &[MapId]) {
        let mut order = Vec::with_capacity(maps.len());
        for insn in &mut self.insns {
            if let Insn::LoadMapRef { map, .. } = insn {
                *map = maps[map_slot(&mut order, *map)];
            }
        }
    }
}

/// The slot of `map` among a program's distinct maps numbered by
/// first occurrence, where `order` holds the maps seen so far; a map
/// seen for the first time is appended.
fn map_slot(order: &mut Vec<MapId>, map: MapId) -> usize {
    match order.iter().position(|&m| m == map) {
        Some(slot) => slot,
        None => {
            order.push(map);
            order.len() - 1
        }
    }
}

/// `insn` in *slot form*: a map reference holds its map's slot in
/// `order` (see [`map_slot`]) as its [`MapId`]; any other instruction
/// is unchanged. Two programs that differ only in which maps they
/// reference have equal slot forms.
pub(crate) fn slotted(insn: Insn, order: &mut Vec<MapId>) -> Insn {
    match insn {
        Insn::LoadMapRef { dst, map } => Insn::LoadMapRef {
            dst,
            map: MapId::from_raw(map_slot(order, map) as u32),
        },
        other => other,
    }
}

/// `insns` in slot form, with the slot-to-map table that resolves it.
pub(crate) fn slot_form(insns: &[Insn]) -> (Arc<[Insn]>, Box<[MapId]>) {
    let mut order = Vec::new();
    let image = insns
        .iter()
        .map(|&insn| slotted(insn, &mut order))
        .collect();
    (image, order.into_boxed_slice())
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program {}", self.name)?;
        for (i, insn) in self.insns.iter().enumerate() {
            writeln!(f, "{i:4}: {insn}")?;
        }
        Ok(())
    }
}

/// Errors from assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound with
    /// [`ProgramBuilder::bind`].
    UnboundLabel(Label),
    /// A label was bound twice.
    Rebound(Label),
    /// The program exceeds [`MAX_INSNS`].
    TooLong(usize),
    /// A resolved jump offset does not fit the encoding.
    JumpOutOfRange {
        /// Instruction index of the jump.
        at: usize,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{} never bound", l.0),
            AsmError::Rebound(l) => write!(f, "label L{} bound twice", l.0),
            AsmError::TooLong(n) => write!(f, "program of {n} instructions exceeds {MAX_INSNS}"),
            AsmError::JumpOutOfRange { at } => write!(f, "jump at {at} out of range"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone, Copy)]
enum PendingJump {
    Unconditional,
    Conditional {
        cond: JmpCond,
        dst: Reg,
        src: Operand,
    },
}

/// Builds a [`Program`] instruction by instruction.
///
/// # Examples
///
/// A program computing `min(arg0, arg1)`:
///
/// ```
/// use snapbpf_ebpf::{ProgramBuilder, Reg, JmpCond};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new("min");
/// let done = b.label();
/// b.load_ctx(Reg::R0, 0)
///     .load_ctx(Reg::R2, 1)
///     .jump_if(JmpCond::Le, Reg::R0, Reg::R2, done)
///     .mov(Reg::R0, Reg::R2)
///     .bind(done)?
///     .exit();
/// let program = b.build()?;
/// assert_eq!(program.name(), "min");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    insns: Vec<Insn>,
    /// Jump fixups: instruction index -> (pending, target label).
    fixups: Vec<(usize, PendingJump, Label)>,
    bound: HashMap<Label, usize>,
    next_label: usize,
}

impl ProgramBuilder {
    /// Starts a new program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            insns: Vec::new(),
            fixups: Vec::new(),
            bound: HashMap::new(),
            next_label: 0,
        }
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::Rebound`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<&mut Self, AsmError> {
        if self.bound.insert(label, self.insns.len()).is_some() {
            return Err(AsmError::Rebound(label));
        }
        Ok(self)
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// `dst = src` (64-bit move; `src` may be a register or
    /// immediate).
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.push(Insn::Alu64 {
            op: AluOp::Mov,
            dst,
            src: src.into(),
        })
    }

    /// 64-bit ALU operation.
    pub fn alu(&mut self, op: AluOp, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.push(Insn::Alu64 {
            op,
            dst,
            src: src.into(),
        })
    }

    /// 32-bit ALU operation (zero-extends the result).
    pub fn alu32(&mut self, op: AluOp, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.push(Insn::Alu32 {
            op,
            dst,
            src: src.into(),
        })
    }

    /// `dst += src`.
    pub fn add(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Add, dst, src)
    }

    /// `dst -= src`.
    pub fn sub(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Sub, dst, src)
    }

    /// `dst *= src`.
    pub fn mul(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.alu(AluOp::Mul, dst, src)
    }

    /// Loads a 64-bit immediate.
    pub fn load_imm64(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Insn::LoadImm64 { dst, imm })
    }

    /// Loads a map reference.
    pub fn load_map(&mut self, dst: Reg, map: MapId) -> &mut Self {
        self.push(Insn::LoadMapRef { dst, map })
    }

    /// Reads context word `index` into `dst`.
    pub fn load_ctx(&mut self, dst: Reg, index: u8) -> &mut Self {
        self.push(Insn::LoadCtx { dst, index })
    }

    /// Memory load `dst = *(size*)(base + off)`.
    pub fn load(&mut self, dst: Reg, base: Reg, off: i16, size: AccessSize) -> &mut Self {
        self.push(Insn::Load {
            dst,
            base,
            off,
            size,
        })
    }

    /// Memory store `*(size*)(base + off) = src`.
    pub fn store(&mut self, base: Reg, off: i16, src: Reg, size: AccessSize) -> &mut Self {
        self.push(Insn::Store {
            base,
            off,
            src,
            size,
        })
    }

    /// Memory store of an immediate.
    pub fn store_imm(&mut self, base: Reg, off: i16, imm: i64, size: AccessSize) -> &mut Self {
        self.push(Insn::StoreImm {
            base,
            off,
            imm,
            size,
        })
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        let at = self.insns.len();
        self.insns.push(Insn::Jump { off: 0 });
        self.fixups.push((at, PendingJump::Unconditional, label));
        self
    }

    /// Conditional jump to `label` when `dst <cond> src`.
    pub fn jump_if(
        &mut self,
        cond: JmpCond,
        dst: Reg,
        src: impl Into<Operand>,
        label: Label,
    ) -> &mut Self {
        let at = self.insns.len();
        let src = src.into();
        self.insns.push(Insn::JumpIf {
            cond,
            dst,
            src,
            off: 0,
        });
        self.fixups
            .push((at, PendingJump::Conditional { cond, dst, src }, label));
        self
    }

    /// Calls a helper.
    pub fn call(&mut self, helper: HelperId) -> &mut Self {
        self.push(Insn::Call { helper })
    }

    /// Calls a kfunc by registry index.
    pub fn call_kfunc(&mut self, kfunc: u32) -> &mut Self {
        self.push(Insn::CallKfunc { kfunc })
    }

    /// Appends `exit`.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Insn::Exit)
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Errors
    ///
    /// Unbound labels, double-bound labels (reported at
    /// [`ProgramBuilder::bind`]), over-long programs, and
    /// out-of-range jumps are errors.
    pub fn build(&self) -> Result<Program, AsmError> {
        if self.insns.len() > MAX_INSNS {
            return Err(AsmError::TooLong(self.insns.len()));
        }
        let mut insns = self.insns.clone();
        for &(at, pending, label) in &self.fixups {
            let target = *self
                .bound
                .get(&label)
                .ok_or(AsmError::UnboundLabel(label))?;
            let rel = target as i64 - at as i64 - 1;
            let off = i32::try_from(rel).map_err(|_| AsmError::JumpOutOfRange { at })?;
            insns[at] = match pending {
                PendingJump::Unconditional => Insn::Jump { off },
                PendingJump::Conditional { cond, dst, src } => Insn::JumpIf {
                    cond,
                    dst,
                    src,
                    off,
                },
            };
        }
        Ok(Program {
            name: self.name.clone(),
            insns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_program() {
        let mut b = ProgramBuilder::new("ret42");
        b.mov(Reg::R0, 42).exit();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.insns()[0],
            Insn::Alu64 {
                op: AluOp::Mov,
                dst: Reg::R0,
                src: Operand::Imm(42)
            }
        );
        assert_eq!(p.insns()[1], Insn::Exit);
    }

    #[test]
    fn forward_label_resolves() {
        let mut b = ProgramBuilder::new("fwd");
        let skip = b.label();
        b.mov(Reg::R0, 0)
            .jump(skip)
            .mov(Reg::R0, 1) // skipped
            .bind(skip)
            .unwrap()
            .exit();
        let p = b.build().unwrap();
        // Jump at index 1 must skip one instruction: off = +1.
        assert_eq!(p.insns()[1], Insn::Jump { off: 1 });
    }

    #[test]
    fn backward_label_resolves() {
        let mut b = ProgramBuilder::new("back");
        let top = b.label();
        b.mov(Reg::R0, 0);
        b.bind(top).unwrap();
        b.add(Reg::R0, 1).jump(top);
        let p = b.build().unwrap();
        // Jump at index 2 back to index 1: off = -2.
        assert_eq!(p.insns()[2], Insn::Jump { off: -2 });
    }

    #[test]
    fn conditional_jump_operands_survive_fixup() {
        let mut b = ProgramBuilder::new("cond");
        let out = b.label();
        b.mov(Reg::R1, 5)
            .jump_if(JmpCond::Gt, Reg::R1, 3i64, out)
            .mov(Reg::R0, 0)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 1)
            .exit();
        let p = b.build().unwrap();
        assert_eq!(
            p.insns()[1],
            Insn::JumpIf {
                cond: JmpCond::Gt,
                dst: Reg::R1,
                src: Operand::Imm(3),
                off: 1
            }
        );
    }

    #[test]
    fn unbound_label_detected() {
        let mut b = ProgramBuilder::new("bad");
        let ghost = b.label();
        b.jump(ghost).exit();
        assert_eq!(b.build(), Err(AsmError::UnboundLabel(ghost)));
    }

    #[test]
    fn rebound_label_detected() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.label();
        b.bind(l).unwrap();
        assert_eq!(b.bind(l).err(), Some(AsmError::Rebound(l)));
    }

    #[test]
    fn too_long_detected() {
        let mut b = ProgramBuilder::new("huge");
        for _ in 0..(MAX_INSNS + 1) {
            b.mov(Reg::R0, 0);
        }
        assert!(matches!(b.build(), Err(AsmError::TooLong(_))));
    }

    #[test]
    fn relocate_rebinds_distinct_maps_in_first_occurrence_order() {
        let program = |a: MapId, b: MapId| {
            let mut p = ProgramBuilder::new("two");
            p.load_map(Reg::R1, a)
                .load_map(Reg::R2, b)
                .load_map(Reg::R3, a)
                .mov(Reg::R0, 0)
                .exit();
            p.build().unwrap()
        };
        let [m0, m1, m5, m7] = [0, 1, 5, 7].map(MapId::from_raw);
        let mut p = program(m0, m1);
        // The new ids overlap the old ones in swapped roles.
        p.relocate(&[m1, m0]);
        assert_eq!(p, program(m1, m0));
        p.relocate(&[m5, m7]);
        assert_eq!(p, program(m5, m7));
        let (image, maps) = slot_form(p.insns());
        assert_eq!(*maps, [m5, m7]);
        assert_eq!(*image, *program(m0, m1).insns());
    }

    #[test]
    fn display_lists_instructions() {
        let mut b = ProgramBuilder::new("show");
        b.mov(Reg::R0, 1).exit();
        let text = b.build().unwrap().to_string();
        assert!(text.contains("; program show"));
        assert!(text.contains("mov64 r0, 1"));
        assert!(text.contains("exit"));
    }
}
