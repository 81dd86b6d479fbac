//! The bytecode interpreter.
//!
//! Runs [`VerifiedProgram`]s the way the kernel's `___bpf_prog_run`
//! does: the verifier proved the program safe once, at load, so the
//! interpreter keeps no register types and repeats none of its
//! checks. Registers are eleven raw `u64`s over one flat address
//! space. The high 32 bits of an address name a region and the low 32
//! bits give a byte offset within it:
//!
//! - region 0 holds only the null pointer;
//! - region 1 is the 512-byte stack, and `r10` points at its top;
//! - region `slot + 2` is the whole value storage of the map in the
//!   program's map slot `slot`: an array map's values, or a per-CPU
//!   array's [`crate::NCPUS`] consecutive blocks of them. `LoadMapRef`
//!   yields the region's base, and a lookup returns that base plus
//!   (CPU lane + index) × `value_size`, or 0 for an index out of range.
//!
//! Loads and stores index one byte slice with safe indexing, so a
//! verifier bug makes the run panic; it never touches the wrong
//! memory. Helper calls operate on the [`MapSet`], and kfunc calls
//! dispatch to a host-provided [`KfuncHost`]; both leave `r1`–`r5`
//! zero.

use std::fmt;

use crate::insn::{AluOp, HelperId, Insn, JmpCond, Operand, STACK_SIZE};
use crate::map::{MapError, MapId, MapKind, MapSet};
use crate::verify::VerifiedProgram;

/// Default ceiling on interpreted instructions per run. Verified
/// programs may contain bounded loops, so the budget is the runtime
/// backstop that keeps one invocation from monopolizing the
/// (virtual) CPU — the analogue of the kernel's 1M-insn limit.
/// Override per interpreter with [`Interpreter::set_insn_budget`].
pub const INSN_BUDGET: u64 = 1 << 20;

/// Address region of the stack (see the module docs).
const STACK_REGION: u64 = 1;
/// Address region of map slot 0; slot `s` is region `MAP_REGION + s`.
const MAP_REGION: u64 = 2;

/// Host side of kfunc calls.
///
/// The kernel registers kfuncs (e.g. `snapbpf_prefetch`) by
/// implementing this trait; programs call them by registry index
/// with up to five scalar arguments.
pub trait KfuncHost {
    /// Invokes kfunc `index` with `args`; returns the `r0` value.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure; the interpreter
    /// aborts the program run with [`RunError::KfuncFailed`].
    fn call_kfunc(&mut self, index: u32, args: [u64; 5]) -> Result<u64, String>;
}

/// A [`KfuncHost`] with no kfuncs, for programs that use none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoKfuncs;

impl KfuncHost for NoKfuncs {
    fn call_kfunc(&mut self, index: u32, _args: [u64; 5]) -> Result<u64, String> {
        Err(format!("no kfuncs registered (call to #{index})"))
    }
}

/// Runtime failure of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Per-invocation instruction budget exhausted (a verified
    /// bounded loop that still overruns its runtime allowance).
    BudgetExhausted,
    /// A map operation failed at runtime (e.g. a map id the set
    /// does not hold).
    Map(MapError),
    /// A kfunc reported an error.
    KfuncFailed {
        /// Kfunc registry index.
        kfunc: u32,
        /// The host's message.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::BudgetExhausted => write!(f, "instruction budget exhausted"),
            RunError::Map(e) => write!(f, "map error: {e}"),
            RunError::KfuncFailed { kfunc, message } => {
                write!(f, "kfunc #{kfunc} failed: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<MapError> for RunError {
    fn from(e: MapError) -> Self {
        RunError::Map(e)
    }
}

/// Outcome of a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The program's return value (`r0` at `exit`).
    pub return_value: u64,
    /// Number of instructions executed.
    pub insns_executed: u64,
}

/// The interpreter. Stateless between runs; borrow it a map set and
/// a kfunc host per invocation.
///
/// # Examples
///
/// ```
/// use snapbpf_ebpf::{Interpreter, MapSet, NoKfuncs, ProgramBuilder, Reg, Verifier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let maps = MapSet::new();
/// let mut b = ProgramBuilder::new("add");
/// b.load_ctx(Reg::R0, 0).load_ctx(Reg::R1, 1).add(Reg::R0, Reg::R1).exit();
/// let program = Verifier::new(&maps, &[]).verify(&b.build()?)?;
///
/// let mut maps = maps;
/// let outcome = Interpreter::new().run(&program, &[2, 40], &mut maps, &mut NoKfuncs)?;
/// assert_eq!(outcome.return_value, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    /// Virtual time reported by `bpf_ktime_get_ns`.
    now_ns: u64,
    /// Per-invocation instruction ceiling.
    insn_budget: u64,
    /// CPU whose slot per-CPU map lookups resolve to; always
    /// `< NCPUS`.
    current_cpu: u32,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            now_ns: 0,
            insn_budget: INSN_BUDGET,
            current_cpu: 0,
        }
    }
}

impl Interpreter {
    /// Creates an interpreter with the virtual clock at zero and the
    /// default [`INSN_BUDGET`].
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Sets the virtual time returned by `bpf_ktime_get_ns`.
    pub fn set_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Sets the per-invocation instruction budget (default
    /// [`INSN_BUDGET`]). A run that executes this many instructions
    /// without exiting fails with [`RunError::BudgetExhausted`].
    pub fn set_insn_budget(&mut self, budget: u64) {
        self.insn_budget = budget;
    }

    /// The per-invocation instruction budget in effect.
    pub fn insn_budget(&self) -> u64 {
        self.insn_budget
    }

    /// Sets the CPU this interpreter "runs on": the slot per-CPU
    /// map lookups resolve to. Stored modulo [`crate::NCPUS`].
    pub fn set_current_cpu(&mut self, cpu: u32) {
        self.current_cpu = cpu % crate::map::NCPUS;
    }

    /// The CPU whose per-CPU map slots programs see.
    pub fn current_cpu(&self) -> u32 {
        self.current_cpu
    }

    /// Runs a verified program.
    ///
    /// `ctx` carries the kprobe context words (hooked function
    /// arguments) read by [`Insn::LoadCtx`]; missing words read as
    /// zero.
    ///
    /// # Errors
    ///
    /// - [`RunError::BudgetExhausted`] when the run executes the
    ///   instruction budget without exiting;
    /// - [`RunError::Map`] when `maps` does not hold a map the
    ///   program was verified against, or a ring buffer push fails
    ///   other than by being full or too small (those return an
    ///   errno to the program);
    /// - [`RunError::KfuncFailed`] when a kfunc reports an error.
    ///
    /// # Panics
    ///
    /// Only if the verifier accepted a program that reaches outside
    /// its stack and map values, or `maps` gives a map the program
    /// uses less value storage than the set it was verified against.
    pub fn run(
        &mut self,
        program: &VerifiedProgram,
        ctx: &[u64],
        maps: &mut MapSet,
        kfuncs: &mut dyn KfuncHost,
    ) -> Result<RunOutcome, RunError> {
        let insns: &[Insn] = program.image();
        let slots = program.maps();
        let mut regs = [0u64; 11];
        regs[10] = (STACK_REGION << 32) + STACK_SIZE as u64;
        let mut stack = [0u8; STACK_SIZE];
        let mut pc = 0usize;
        let mut executed = 0u64;

        loop {
            if executed >= self.insn_budget {
                return Err(RunError::BudgetExhausted);
            }
            executed += 1;
            match insns[pc] {
                Insn::Alu64 { op, dst, src } => {
                    regs[dst.index()] = alu64(op, regs[dst.index()], operand(&regs, src));
                }
                Insn::Alu32 { op, dst, src } => {
                    let (a, b) = (regs[dst.index()] as u32, operand(&regs, src) as u32);
                    regs[dst.index()] = alu32(op, a, b).into();
                }
                Insn::Neg { dst } => regs[dst.index()] = regs[dst.index()].wrapping_neg(),
                Insn::LoadImm64 { dst, imm } => regs[dst.index()] = imm as u64,
                Insn::LoadMapRef { dst, map: slot } => {
                    regs[dst.index()] = (MAP_REGION + u64::from(slot.as_u32())) << 32;
                }
                Insn::LoadCtx { dst, index } => {
                    regs[dst.index()] = ctx.get(index as usize).copied().unwrap_or(0);
                }
                Insn::Load {
                    dst,
                    base,
                    off,
                    size,
                } => {
                    let at = regs[base.index()].wrapping_add_signed(off.into());
                    let bytes = memory(&mut stack, maps, slots, at, size.bytes())?;
                    regs[dst.index()] = read_le(bytes);
                }
                Insn::Store {
                    base,
                    off,
                    src,
                    size,
                } => {
                    let at = regs[base.index()].wrapping_add_signed(off.into());
                    let bytes = memory(&mut stack, maps, slots, at, size.bytes())?;
                    write_le(bytes, regs[src.index()]);
                }
                Insn::StoreImm {
                    base,
                    off,
                    imm,
                    size,
                } => {
                    let at = regs[base.index()].wrapping_add_signed(off.into());
                    let bytes = memory(&mut stack, maps, slots, at, size.bytes())?;
                    write_le(bytes, imm as u64);
                }
                Insn::Jump { off } => pc = pc.wrapping_add_signed(off as isize),
                Insn::JumpIf {
                    cond,
                    dst,
                    src,
                    off,
                } => {
                    if jump_taken(cond, regs[dst.index()], operand(&regs, src)) {
                        pc = pc.wrapping_add_signed(off as isize);
                    }
                }
                Insn::Call { helper } => {
                    regs[0] = self.call_helper(helper, &regs, &stack, maps, slots)?;
                    regs[1..6].fill(0);
                }
                Insn::CallKfunc { kfunc } => {
                    let args = [regs[1], regs[2], regs[3], regs[4], regs[5]];
                    regs[0] = kfuncs
                        .call_kfunc(kfunc, args)
                        .map_err(|message| RunError::KfuncFailed { kfunc, message })?;
                    regs[1..6].fill(0);
                }
                Insn::Exit => {
                    return Ok(RunOutcome {
                        return_value: regs[0],
                        insns_executed: executed,
                    });
                }
            }
            pc += 1;
        }
    }

    /// Runs a helper over the argument registers and returns `r0`.
    fn call_helper(
        &self,
        helper: HelperId,
        regs: &[u64; 11],
        stack: &[u8; STACK_SIZE],
        maps: &mut MapSet,
        slots: &[MapId],
    ) -> Result<u64, RunError> {
        let map = || slots[((regs[1] >> 32) - MAP_REGION) as usize];
        Ok(match helper {
            HelperId::MapLookup => {
                let def = maps.def(map())?;
                let index = read_le(stack_bytes(stack, regs[2], def.key_size as usize));
                if index >= u64::from(def.max_entries) {
                    return Ok(0);
                }
                let lane = match def.kind {
                    MapKind::PerCpuArray => {
                        u64::from(self.current_cpu) * u64::from(def.max_entries)
                    }
                    _ => 0,
                };
                regs[1] + (lane + index) * u64::from(def.value_size)
            }
            HelperId::KtimeGetNs => self.now_ns,
            HelperId::RingbufOutput => {
                let data = stack_bytes(stack, regs[2], regs[3] as usize);
                match maps.ring_push(map(), data) {
                    Ok(()) => 0,
                    Err(MapError::RingFull { .. }) => (-28i64) as u64, // -ENOSPC
                    Err(MapError::RingRecordTooLarge { .. }) => (-7i64) as u64, // -E2BIG
                    Err(e) => return Err(e.into()),
                }
            }
        })
    }
}

/// The value of an ALU or jump operand.
fn operand(regs: &[u64; 11], src: Operand) -> u64 {
    match src {
        Operand::Imm(v) => v as u64,
        Operand::Reg(r) => regs[r.index()],
    }
}

/// The `len` bytes at address `at`: on the stack, or in the value
/// storage of the map in `at`'s slot region. Indexing panics on bytes
/// outside every region, which only a verifier bug produces.
fn memory<'m>(
    stack: &'m mut [u8; STACK_SIZE],
    maps: &'m mut MapSet,
    slots: &[MapId],
    at: u64,
    len: usize,
) -> Result<&'m mut [u8], MapError> {
    let region = at >> 32;
    let bytes = if region == STACK_REGION {
        &mut stack[..]
    } else {
        maps.values_mut(slots[(region - MAP_REGION) as usize])?
    };
    let off = at as u32 as usize;
    Ok(&mut bytes[off..off + len])
}

/// The `len` stack bytes at address `at`; the verifier only lets
/// helpers read buffers on the stack.
fn stack_bytes(stack: &[u8; STACK_SIZE], at: u64, len: usize) -> &[u8] {
    let off = (at - (STACK_REGION << 32)) as usize;
    &stack[off..off + len]
}

fn read_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

fn write_le(slot: &mut [u8], value: u64) {
    let bytes = value.to_le_bytes();
    slot.copy_from_slice(&bytes[..slot.len()]);
}

/// The concrete semantics of a 64-bit ALU op; the verifier's range
/// transfer and the optimizer's constant folding call it too, so a
/// folded constant equals what the program computes at run time.
pub(crate) fn alu64(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Mod => a.checked_rem(b).unwrap_or(0),
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl((b & 63) as u32),
        AluOp::Rsh => a.wrapping_shr((b & 63) as u32),
        AluOp::Arsh => ((a as i64) >> (b & 63)) as u64,
        AluOp::Mov => b,
    }
}

/// The concrete semantics of a 32-bit ALU op (the caller
/// zero-extends the result into the 64-bit register).
pub(crate) fn alu32(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(0),
        AluOp::Mod => a.checked_rem(b).unwrap_or(0),
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Xor => a ^ b,
        AluOp::Lsh => a.wrapping_shl(b & 31),
        AluOp::Rsh => a.wrapping_shr(b & 31),
        AluOp::Arsh => ((a as i32) >> (b & 31)) as u32,
        AluOp::Mov => b,
    }
}

fn jump_taken(cond: JmpCond, a: u64, b: u64) -> bool {
    match cond {
        JmpCond::Eq => a == b,
        JmpCond::Ne => a != b,
        JmpCond::Gt => a > b,
        JmpCond::Ge => a >= b,
        JmpCond::Lt => a < b,
        JmpCond::Le => a <= b,
        JmpCond::SGt => (a as i64) > (b as i64),
        JmpCond::SGe => (a as i64) >= (b as i64),
        JmpCond::SLt => (a as i64) < (b as i64),
        JmpCond::SLe => (a as i64) <= (b as i64),
        JmpCond::Set => a & b != 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AccessSize, Reg};
    use crate::map::MapDef;
    use crate::program::ProgramBuilder;
    use crate::verify::Verifier;

    fn run_prog(
        build: impl FnOnce(&mut ProgramBuilder),
        ctx: &[u64],
        maps: &mut MapSet,
    ) -> RunOutcome {
        let mut b = ProgramBuilder::new("test");
        build(&mut b);
        let p = b.build().unwrap();
        let verified = Verifier::new(maps, &[]).verify(&p).unwrap();
        Interpreter::new()
            .run(&verified, ctx, maps, &mut NoKfuncs)
            .unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut maps = MapSet::new();
        let out = run_prog(
            |b| {
                b.mov(Reg::R0, 10).mul(Reg::R0, 4).add(Reg::R0, 2).exit();
            },
            &[],
            &mut maps,
        );
        assert_eq!(out.return_value, 42);
        assert_eq!(out.insns_executed, 4);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut maps = MapSet::new();
        let out = run_prog(
            |b| {
                b.mov(Reg::R0, 10)
                    .mov(Reg::R1, 0)
                    .alu(AluOp::Div, Reg::R0, Reg::R1)
                    .exit();
            },
            &[],
            &mut maps,
        );
        assert_eq!(out.return_value, 0);
    }

    #[test]
    fn alu32_zero_extends() {
        let mut maps = MapSet::new();
        let out = run_prog(
            |b| {
                b.load_imm64(Reg::R0, -1) // 0xFFFF_FFFF_FFFF_FFFF
                    .alu32(AluOp::Add, Reg::R0, 1)
                    .exit();
            },
            &[],
            &mut maps,
        );
        assert_eq!(out.return_value, 0); // 32-bit wrap, zero-extended
    }

    #[test]
    fn context_words_readable() {
        let mut maps = MapSet::new();
        let out = run_prog(
            |b| {
                b.load_ctx(Reg::R0, 1).exit();
            },
            &[11, 22, 33],
            &mut maps,
        );
        assert_eq!(out.return_value, 22);
        // Missing context words read as zero.
        let out = run_prog(
            |b| {
                b.load_ctx(Reg::R0, 5).exit();
            },
            &[1],
            &mut maps,
        );
        assert_eq!(out.return_value, 0);
    }

    #[test]
    fn stack_round_trip_all_sizes() {
        let mut maps = MapSet::new();
        for (size, mask) in [
            (AccessSize::B1, 0xFFu64),
            (AccessSize::B2, 0xFFFF),
            (AccessSize::B4, 0xFFFF_FFFF),
            (AccessSize::B8, u64::MAX),
        ] {
            let out = run_prog(
                |b| {
                    b.load_imm64(Reg::R1, -2) // 0xFF..FE
                        .store(Reg::R10, -8, Reg::R1, size)
                        .load(Reg::R0, Reg::R10, -8, size)
                        .exit();
                },
                &[],
                &mut maps,
            );
            assert_eq!(out.return_value, (-2i64 as u64) & mask, "{size:?}");
        }
    }

    #[test]
    fn branches_take_correct_paths() {
        let mut maps = MapSet::new();
        let run_with = |x: u64, maps: &mut MapSet| {
            run_prog(
                |b| {
                    let big = b.label();
                    b.load_ctx(Reg::R1, 0)
                        .jump_if(JmpCond::Gt, Reg::R1, 9i64, big)
                        .mov(Reg::R0, 1)
                        .exit()
                        .bind(big)
                        .unwrap()
                        .mov(Reg::R0, 2)
                        .exit();
                },
                &[x],
                maps,
            )
            .return_value
        };
        assert_eq!(run_with(5, &mut maps), 1);
        assert_eq!(run_with(10, &mut maps), 2);
    }

    #[test]
    fn signed_comparisons() {
        let mut maps = MapSet::new();
        let out = run_prog(
            |b| {
                let neg = b.label();
                b.load_imm64(Reg::R1, -5)
                    .jump_if(JmpCond::SLt, Reg::R1, 0i64, neg)
                    .mov(Reg::R0, 0)
                    .exit()
                    .bind(neg)
                    .unwrap()
                    .mov(Reg::R0, 1)
                    .exit();
            },
            &[],
            &mut maps,
        );
        assert_eq!(out.return_value, 1);
    }

    #[test]
    fn array_map_read_modify_write() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 4)).unwrap();
        maps.array_store_u64(m, 2, 100).unwrap();

        let mut b = ProgramBuilder::new("incr");
        let out = b.label();
        // key = 2 on the stack; v = lookup(m, &key); if v { *v += 1 }
        b.store_imm(Reg::R10, -4, 2, AccessSize::B4)
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
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        Interpreter::new()
            .run(&p, &[], &mut maps, &mut NoKfuncs)
            .unwrap();
        assert_eq!(maps.array_load_u64(m, 2).unwrap(), 101);
    }

    #[test]
    fn array_lookup_out_of_bounds_returns_null() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 4)).unwrap();
        let mut b = ProgramBuilder::new("oob");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 99, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Ne, Reg::R0, 0i64, out)
            .mov(Reg::R0, 7) // null path
            .exit()
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 8) // valid path
            .exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let out = Interpreter::new()
            .run(&p, &[], &mut maps, &mut NoKfuncs)
            .unwrap();
        assert_eq!(out.return_value, 7);
    }

    #[test]
    fn ktime_reflects_virtual_clock() {
        let mut maps = MapSet::new();
        let mut b = ProgramBuilder::new("time");
        b.call(HelperId::KtimeGetNs).exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let mut interp = Interpreter::new();
        interp.set_now_ns(123_456);
        let out = interp.run(&p, &[], &mut maps, &mut NoKfuncs).unwrap();
        assert_eq!(out.return_value, 123_456);
    }

    #[test]
    fn ringbuf_output_from_program() {
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(256)).unwrap();
        let mut b = ProgramBuilder::new("ring");
        b.store_imm(Reg::R10, -8, 0xABCD, AccessSize::B8)
            .load_map(Reg::R1, r)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -8)
            .mov(Reg::R3, 8)
            .mov(Reg::R4, 0)
            .call(HelperId::RingbufOutput)
            .exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let out = Interpreter::new()
            .run(&p, &[], &mut maps, &mut NoKfuncs)
            .unwrap();
        assert_eq!(out.return_value, 0);
        let rec = maps.ring_pop(r).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(rec.try_into().unwrap()), 0xABCD);
    }

    #[test]
    fn kfunc_dispatch() {
        struct Adder {
            calls: Vec<[u64; 5]>,
        }
        impl KfuncHost for Adder {
            fn call_kfunc(&mut self, index: u32, args: [u64; 5]) -> Result<u64, String> {
                assert_eq!(index, 0);
                self.calls.push(args);
                Ok(args[0] + args[1])
            }
        }
        let maps = MapSet::new();
        let sigs = [crate::verify::KfuncSig {
            name: "add2",
            args: 2,
        }];
        let mut b = ProgramBuilder::new("kf");
        b.mov(Reg::R1, 30).mov(Reg::R2, 12).call_kfunc(0).exit();
        let p = Verifier::new(&maps, &sigs)
            .verify(&b.build().unwrap())
            .unwrap();
        let mut maps = maps;
        let mut host = Adder { calls: vec![] };
        let out = Interpreter::new()
            .run(&p, &[], &mut maps, &mut host)
            .unwrap();
        assert_eq!(out.return_value, 42);
        assert_eq!(host.calls.len(), 1);
        assert_eq!(host.calls[0][0], 30);
    }

    #[test]
    fn kfunc_error_aborts_run() {
        struct Failing;
        impl KfuncHost for Failing {
            fn call_kfunc(&mut self, _: u32, _: [u64; 5]) -> Result<u64, String> {
                Err("boom".into())
            }
        }
        let maps = MapSet::new();
        let sigs = [crate::verify::KfuncSig { name: "f", args: 0 }];
        let mut b = ProgramBuilder::new("kf");
        b.call_kfunc(0).exit();
        let p = Verifier::new(&maps, &sigs)
            .verify(&b.build().unwrap())
            .unwrap();
        let mut maps = maps;
        let err = Interpreter::new()
            .run(&p, &[], &mut maps, &mut Failing)
            .unwrap_err();
        assert!(matches!(err, RunError::KfuncFailed { kfunc: 0, .. }));
    }

    #[test]
    fn insn_budget_bounds_a_verified_loop() {
        // A 1000-iteration verified loop runs under the default
        // budget but trips a deliberately tiny one.
        let maps = MapSet::new();
        let mut b = ProgramBuilder::new("loop");
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
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let mut maps = maps;
        let mut interp = Interpreter::new();
        let out = interp.run(&p, &[], &mut maps, &mut NoKfuncs).unwrap();
        assert!(out.insns_executed > 3000);

        interp.set_insn_budget(100);
        assert_eq!(interp.insn_budget(), 100);
        let err = interp.run(&p, &[], &mut maps, &mut NoKfuncs).unwrap_err();
        assert_eq!(err, RunError::BudgetExhausted);
    }

    #[test]
    fn percpu_array_increments_land_in_the_current_cpu_slot() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 2)).unwrap();
        // Program: v = lookup(m, &0); if v { *v += ctx[0] }; r0 = 0.
        let mut b = ProgramBuilder::new("percpu");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .mov(Reg::R6, Reg::R0)
            .jump_if(JmpCond::Eq, Reg::R6, 0i64, out)
            .load(Reg::R7, Reg::R6, 0, AccessSize::B8)
            .load_ctx(Reg::R8, 0)
            .alu(AluOp::Add, Reg::R7, Reg::R8)
            .store(Reg::R6, 0, Reg::R7, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();

        let mut interp = Interpreter::new();
        for (cpu, add) in [(0u32, 5u64), (2, 7), (2, 1), (3, 100)] {
            interp.set_current_cpu(cpu);
            assert_eq!(interp.current_cpu(), cpu);
            interp.run(&p, &[add], &mut maps, &mut NoKfuncs).unwrap();
        }
        // Each CPU's lane holds only the increments made on it.
        let values = maps.values_mut(m).unwrap();
        for (cpu, want) in [(0usize, 5u64), (1, 0), (2, 8), (3, 100)] {
            let block = &values[cpu * 16..];
            assert_eq!(read_le(&block[0..8]), want, "cpu {cpu}");
        }
        // Userspace reads the lane-merged sum across all CPU slots.
        assert_eq!(maps.percpu_load_merged_u64(m, 0).unwrap(), 113);
    }

    #[test]
    fn current_cpu_wraps_at_ncpus() {
        let mut interp = Interpreter::new();
        interp.set_current_cpu(crate::map::NCPUS + 1);
        assert_eq!(interp.current_cpu(), 1);
    }

    #[test]
    fn percpu_lookup_out_of_bounds_returns_null() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 2)).unwrap();
        let mut b = ProgramBuilder::new("oob");
        let out = b.label();
        b.store_imm(Reg::R10, -4, 9, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Ne, Reg::R0, 0i64, out)
            .mov(Reg::R0, 7)
            .exit()
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 8)
            .exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let out = Interpreter::new()
            .run(&p, &[], &mut maps, &mut NoKfuncs)
            .unwrap();
        assert_eq!(out.return_value, 7);
    }

    #[test]
    fn ringbuf_full_and_oversized_records_return_errno_to_the_program() {
        let mut maps = MapSet::new();
        let r = maps.create(MapDef::ringbuf(32)).unwrap();
        let push = |maps: &mut MapSet, size: i64| {
            let mut b = ProgramBuilder::new("push");
            b.store_imm(Reg::R10, -8, 1, AccessSize::B8)
                .load_map(Reg::R1, r)
                .mov(Reg::R2, Reg::R10)
                .add(Reg::R2, -8)
                .mov(Reg::R3, size)
                .mov(Reg::R4, 0)
                .call(HelperId::RingbufOutput)
                .exit();
            let p = Verifier::new(maps, &[])
                .verify(&b.build().unwrap())
                .unwrap();
            Interpreter::new()
                .run(&p, &[], maps, &mut NoKfuncs)
                .unwrap()
                .return_value as i64
        };
        assert_eq!(push(&mut maps, 8), 0); // 16 of 32 bytes used
        assert_eq!(push(&mut maps, 8), 0); // full
        assert_eq!(push(&mut maps, 8), -28); // -ENOSPC, drop counted
        assert_eq!(maps.ring_dropped(r).unwrap(), 1);
        // A record that can never fit is -E2BIG and not a drop.
        let mut b = ProgramBuilder::new("big");
        for slot in 0..8 {
            b.store_imm(Reg::R10, -64 + 8 * slot, 1, AccessSize::B8);
        }
        b.load_map(Reg::R1, r)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -64)
            .mov(Reg::R3, 64)
            .mov(Reg::R4, 0)
            .call(HelperId::RingbufOutput)
            .exit();
        let p = Verifier::new(&maps, &[])
            .verify(&b.build().unwrap())
            .unwrap();
        let out = Interpreter::new()
            .run(&p, &[], &mut maps, &mut NoKfuncs)
            .unwrap();
        assert_eq!(out.return_value as i64, -7);
        assert_eq!(maps.ring_dropped(r).unwrap(), 1);
    }
}
