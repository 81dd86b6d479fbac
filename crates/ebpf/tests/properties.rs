//! Property-based tests for the eBPF runtime: the core soundness
//! contract — *everything the verifier accepts runs to completion*
//! (the interpreter repeats none of the verifier's checks, so an
//! unsound acceptance panics on an out-of-range index) — plus ALU
//! semantics.

use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use snapbpf_ebpf::{
    AccessSize, AluOp, HelperId, Interpreter, JmpCond, MapDef, MapId, MapSet, NoKfuncs, Program,
    ProgramBuilder, Reg, RunError, Verifier, STACK_SIZE,
};

/// A generator of arbitrary (frequently invalid) instructions via
/// the builder, used to fuzz the verifier for panics.
#[derive(Debug, Clone)]
enum ArbInsn {
    Alu(u8, u8, i8, bool),
    Load(u8, u8, i16, u8),
    Store(u8, i16, u8, u8),
    StoreImm(u8, i16, i64, u8),
    LoadImm(u8, i64),
    LoadCtx(u8, u8),
    LoadMap(u8),
    JumpIf(u8, u8, i64, u8),
    Call(u8),
    Exit,
}

fn arb_insn() -> impl Strategy<Value = ArbInsn> {
    prop_oneof![
        (0u8..11, 0u8..12, any::<i8>(), any::<bool>())
            .prop_map(|(a, b, c, d)| ArbInsn::Alu(a, b, c, d)),
        (0u8..11, 0u8..11, -600i16..600, 0u8..4).prop_map(|(a, b, c, d)| ArbInsn::Load(a, b, c, d)),
        (0u8..11, -600i16..600, 0u8..11, 0u8..4)
            .prop_map(|(a, b, c, d)| ArbInsn::Store(a, b, c, d)),
        (0u8..11, -600i16..600, any::<i64>(), 0u8..4)
            .prop_map(|(a, b, c, d)| ArbInsn::StoreImm(a, b, c, d)),
        (0u8..11, any::<i64>()).prop_map(|(a, b)| ArbInsn::LoadImm(a, b)),
        (0u8..11, 0u8..8).prop_map(|(a, b)| ArbInsn::LoadCtx(a, b)),
        (0u8..11).prop_map(ArbInsn::LoadMap),
        (0u8..11, 0u8..11, any::<i64>(), 0u8..11)
            .prop_map(|(a, b, c, d)| ArbInsn::JumpIf(a, b, c, d)),
        (0u8..7).prop_map(ArbInsn::Call),
        Just(ArbInsn::Exit),
    ]
}

fn size_of(i: u8) -> AccessSize {
    match i % 4 {
        0 => AccessSize::B1,
        1 => AccessSize::B2,
        2 => AccessSize::B4,
        _ => AccessSize::B8,
    }
}

fn helper_of(i: u8) -> HelperId {
    match i % 3 {
        0 => HelperId::MapLookup,
        1 => HelperId::KtimeGetNs,
        _ => HelperId::RingbufOutput,
    }
}

fn build_arbitrary(insns: &[ArbInsn], maps: &MapSet, map_id: snapbpf_ebpf::MapId) -> Program {
    let _ = maps;
    let mut b = ProgramBuilder::new("fuzz");
    let mut labels = Vec::new();
    for _insn in insns {
        // Bind a label before each instruction so jumps have targets.
        let l = b.label();
        b.bind(l).expect("fresh label");
        labels.push(l);
    }
    let end = b.label();
    for insn in insns {
        match insn.clone() {
            ArbInsn::Alu(dst, src, imm, wide) => {
                let op = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::Mul,
                    AluOp::Div,
                    AluOp::Mod,
                    AluOp::Or,
                    AluOp::And,
                    AluOp::Xor,
                    AluOp::Lsh,
                    AluOp::Rsh,
                    AluOp::Arsh,
                    AluOp::Mov,
                ][(src % 12) as usize];
                let dst = Reg::new(dst % 11);
                if wide {
                    b.alu(op, dst, imm as i64);
                } else {
                    b.alu32(op, dst, imm as i64);
                }
            }
            ArbInsn::Load(dst, base, off, sz) => {
                b.load(Reg::new(dst % 11), Reg::new(base % 11), off, size_of(sz));
            }
            ArbInsn::Store(base, off, src, sz) => {
                b.store(Reg::new(base % 11), off, Reg::new(src % 11), size_of(sz));
            }
            ArbInsn::StoreImm(base, off, imm, sz) => {
                b.store_imm(Reg::new(base % 11), off, imm, size_of(sz));
            }
            ArbInsn::LoadImm(dst, imm) => {
                b.load_imm64(Reg::new(dst % 11), imm);
            }
            ArbInsn::LoadCtx(dst, idx) => {
                b.load_ctx(Reg::new(dst % 11), idx);
            }
            ArbInsn::LoadMap(dst) => {
                b.load_map(Reg::new(dst % 11), map_id);
            }
            ArbInsn::JumpIf(dst, src, imm, cond) => {
                let cond = [
                    JmpCond::Eq,
                    JmpCond::Ne,
                    JmpCond::Gt,
                    JmpCond::Ge,
                    JmpCond::Lt,
                    JmpCond::Le,
                    JmpCond::SGt,
                    JmpCond::SGe,
                    JmpCond::SLt,
                    JmpCond::SLe,
                    JmpCond::Set,
                ][(cond % 11) as usize];
                let _ = src;
                b.jump_if(cond, Reg::new(dst % 11), imm, end);
            }
            ArbInsn::Call(h) => {
                b.call(helper_of(h));
            }
            ArbInsn::Exit => {
                b.exit();
            }
        }
    }
    b.bind(end).expect("end label");
    b.mov(Reg::R0, 0).exit();
    b.build().expect("assembles")
}

/// A pointer register of a structured program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ptr {
    /// `r10`, the frame pointer.
    Frame,
    /// `r6`, a stack pointer the prologue moves below `r10`.
    Stack,
    /// `r7`, a value of the array map.
    Array,
    /// `r8`, a value of the per-CPU array map.
    PerCpu,
}

impl Ptr {
    fn reg(self) -> Reg {
        match self {
            Ptr::Frame => Reg::R10,
            Ptr::Stack => Reg::R6,
            Ptr::Array => Reg::R7,
            Ptr::PerCpu => Reg::R8,
        }
    }

    /// The byte range the pointer may address: the stack below the
    /// frame pointer, or one map value.
    fn bounds(self) -> (i16, i16) {
        match self {
            Ptr::Frame | Ptr::Stack => (-(STACK_SIZE as i16), 0),
            Ptr::Array | Ptr::PerCpu => (0, VALUE_SIZE as i16),
        }
    }
}

/// Value size of both structured maps: two 8-byte lanes.
const VALUE_SIZE: u32 = 16;
/// Entries of both structured maps.
const ENTRIES: u32 = 4;

/// One step of a structured program's body. Offsets are *targets*
/// within the pointer's region (see [`Ptr::bounds`]); the builder
/// turns them into instruction offsets from the register's current
/// position, so most accesses land in bounds and the rest straddle
/// an edge.
#[derive(Debug, Clone)]
enum MemOp {
    /// `r{dst} = *(size *)(ptr + off)`, `dst` in `r0..=r5`.
    Load {
        dst: u8,
        ptr: Ptr,
        at: i16,
        size: u8,
    },
    /// `*(size *)(ptr + off) = r{src}`, `src` in `r0..=r5` or `r9`.
    Store {
        src: u8,
        ptr: Ptr,
        at: i16,
        size: u8,
    },
    /// `*(size *)(ptr + off) = imm`.
    StoreImm {
        imm: i64,
        ptr: Ptr,
        at: i16,
        size: u8,
    },
    /// `ptr += delta`; `ptr` is not the frame pointer.
    Move { ptr: Ptr, delta: i16 },
    /// `r5 = r9 & mask; ptr += r5`, a variable offset; `ptr` is not
    /// the frame pointer.
    MoveVar { ptr: Ptr, mask: u8 },
    /// Looks `index` up through a key stored at `at`, null-checks
    /// the result and moves it into `r7` (array) or `r8` (per-CPU).
    Lookup { per_cpu: bool, at: i16, index: u32 },
    /// `bpf_ringbuf_output(ring, r10 + at, size, 0)`.
    Output { at: i16, size: i64 },
}

impl MemOp {
    fn touches_memory(&self) -> bool {
        !matches!(self, MemOp::Move { .. } | MemOp::MoveVar { .. })
    }
}

fn arb_ptr() -> impl Strategy<Value = Ptr> {
    prop_oneof![Just(Ptr::Frame), arb_movable()]
}

/// A pointer register other than the frame pointer.
fn arb_movable() -> impl Strategy<Value = Ptr> {
    prop_oneof![Just(Ptr::Stack), Just(Ptr::Array), Just(Ptr::PerCpu)]
}

/// A target offset within `ptr`'s region: three times in four an
/// 8-aligned offset inside it, otherwise one within 8 bytes of
/// either edge.
fn arb_at(ptr: Ptr) -> impl Strategy<Value = i16> {
    let (lo, hi) = ptr.bounds();
    prop_oneof![
        (lo / 8..hi / 8).prop_map(|k| k * 8),
        (lo / 8..hi / 8).prop_map(|k| k * 8),
        (lo / 8..hi / 8).prop_map(|k| k * 8),
        prop_oneof![lo - 8..lo + 8, hi - 8..hi + 8],
    ]
}

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    let stack_at = || arb_at(Ptr::Frame);
    prop_oneof![
        (0u8..6, arb_ptr(), 0u8..4).prop_flat_map(|(dst, ptr, size)| {
            arb_at(ptr).prop_map(move |at| MemOp::Load { dst, ptr, at, size })
        }),
        (0u8..7, arb_ptr(), 0u8..4).prop_flat_map(|(src, ptr, size)| {
            arb_at(ptr).prop_map(move |at| MemOp::Store { src, ptr, at, size })
        }),
        (any::<i64>(), arb_ptr(), 0u8..4).prop_flat_map(|(imm, ptr, size)| {
            arb_at(ptr).prop_map(move |at| MemOp::StoreImm { imm, ptr, at, size })
        }),
        (arb_movable(), -3i16..4).prop_map(|(ptr, k)| MemOp::Move { ptr, delta: 8 * k }),
        (arb_movable(), prop_oneof![Just(0u8), Just(8), Just(24)])
            .prop_map(|(ptr, mask)| MemOp::MoveVar { ptr, mask }),
        (any::<bool>(), stack_at(), 0..ENTRIES + 1).prop_map(|(per_cpu, at, index)| {
            MemOp::Lookup {
                per_cpu,
                at: at - at.rem_euclid(4),
                index,
            }
        }),
        (stack_at(), 1i64..33).prop_map(|(at, size)| MemOp::Output { at, size }),
    ]
}

/// Maps of a structured program: an array, a per-CPU array and a
/// ring buffer.
struct StructuredMaps {
    set: MapSet,
    array: MapId,
    per_cpu: MapId,
    ring: MapId,
}

impl StructuredMaps {
    fn new() -> Self {
        let mut set = MapSet::new();
        let array = set.create(MapDef::array(VALUE_SIZE, ENTRIES)).unwrap();
        let per_cpu = set
            .create(MapDef::percpu_array(VALUE_SIZE, ENTRIES))
            .unwrap();
        let ring = set.create(MapDef::ringbuf(256)).unwrap();
        StructuredMaps {
            set,
            array,
            per_cpu,
            ring,
        }
    }
}

/// Builds a structured program. The prologue reads `ctx[0]` into
/// `r9`, zeroes the top `init_slots` 8-byte stack slots, looks up
/// `keys` in the array and per-CPU maps into `r7`/`r8` (a null result
/// exits with 0), points `r6` at `r10 + stack_at` and sets `r0..=r5`
/// to small constants. The body follows; a run that gets through it
/// returns 1.
fn build_structured(
    maps: &StructuredMaps,
    init_slots: u8,
    keys: (u32, u32),
    stack_at: i16,
    body: &[MemOp],
) -> Program {
    let mut b = ProgramBuilder::new("structured");
    let null = b.label();
    let lookup = |b: &mut ProgramBuilder, map: MapId, at: i16, index: u32, into: Reg| {
        b.store_imm(Reg::R10, at, index.into(), AccessSize::B4)
            .load_map(Reg::R1, map)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, i64::from(at))
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, null)
            .mov(into, Reg::R0);
    };
    b.load_ctx(Reg::R9, 0);
    for slot in 1..=i16::from(init_slots) {
        b.store_imm(Reg::R10, -8 * slot, 0, AccessSize::B8);
    }
    lookup(&mut b, maps.array, -4, keys.0, Reg::R7);
    lookup(&mut b, maps.per_cpu, -4, keys.1, Reg::R8);
    b.mov(Reg::R6, Reg::R10).add(Reg::R6, i64::from(stack_at));
    for r in 0..6 {
        b.mov(Reg::new(r), i64::from(r));
    }
    // Each pointer register's known offset within its region, in
    // `Ptr` order; a variable move adds its lower bound, 0.
    let mut here = [0i16, stack_at, 0, 0];
    let idx = |ptr: Ptr| ptr as usize;
    for op in body {
        match *op {
            MemOp::Load { dst, ptr, at, size } => {
                b.load(Reg::new(dst), ptr.reg(), at - here[idx(ptr)], size_of(size));
            }
            MemOp::Store { src, ptr, at, size } => {
                let src = if src == 6 { Reg::R9 } else { Reg::new(src) };
                b.store(ptr.reg(), at - here[idx(ptr)], src, size_of(size));
            }
            MemOp::StoreImm { imm, ptr, at, size } => {
                b.store_imm(ptr.reg(), at - here[idx(ptr)], imm, size_of(size));
            }
            MemOp::Move { ptr, delta } => {
                b.add(ptr.reg(), i64::from(delta));
                here[idx(ptr)] += delta;
            }
            MemOp::MoveVar { ptr, mask } => {
                b.mov(Reg::R5, Reg::R9)
                    .alu(AluOp::And, Reg::R5, i64::from(mask))
                    .alu(AluOp::Add, ptr.reg(), Reg::R5);
            }
            MemOp::Lookup { per_cpu, at, index } => {
                let (map, ptr) = if per_cpu {
                    (maps.per_cpu, Ptr::PerCpu)
                } else {
                    (maps.array, Ptr::Array)
                };
                lookup(&mut b, map, at, index, ptr.reg());
                here[idx(ptr)] = 0;
            }
            MemOp::Output { at, size } => {
                b.load_map(Reg::R1, maps.ring)
                    .mov(Reg::R2, Reg::R10)
                    .add(Reg::R2, i64::from(at))
                    .mov(Reg::R3, size)
                    .mov(Reg::R4, 0)
                    .call(HelperId::RingbufOutput);
            }
        }
    }
    b.mov(Reg::R0, 1).exit();
    b.bind(null).expect("null label");
    b.mov(Reg::R0, 0).exit();
    b.build().expect("assembles")
}

/// Cases of [`structured_case`] that verified and ran a body with a
/// memory access to its end.
static MEMORY_CASES: AtomicU32 = AtomicU32::new(0);

proptest! {
    /// One structured case: if the verifier accepts the program, the
    /// interpreter runs it to `exit` without a panic, an error or
    /// budget exhaustion, on any CPU.
    fn structured_case(
        init_slots in prop_oneof![Just(64u8), 0u8..65],
        keys in (0..ENTRIES, 0..ENTRIES),
        stack_at in (-64i16..1).prop_map(|k| 8 * k),
        body in prop::collection::vec(arb_mem_op(), 1..8),
        ctx in any::<u64>(),
        cpu in 0..snapbpf_ebpf::NCPUS,
    ) {
        let mut maps = StructuredMaps::new();
        let program = build_structured(&maps, init_slots, keys, stack_at, &body);
        if let Ok(verified) = Verifier::new(&maps.set, &[]).verify(&program) {
            let mut interp = Interpreter::new();
            interp.set_current_cpu(cpu);
            let outcome = interp.run(&verified, &[ctx], &mut maps.set, &mut NoKfuncs);
            let outcome = outcome.map_err(|e| TestCaseError::fail(format!("{e}\n{program}")))?;
            prop_assert!(outcome.return_value <= 1, "returned {}", outcome.return_value);
            if outcome.return_value == 1 && body.iter().any(MemOp::touches_memory) {
                MEMORY_CASES.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The soundness contract over programs that use memory: a structured
/// generator of loads, stores, pointer moves, lookups and ring
/// outputs around the stack's and the map values' bounds. At least a
/// quarter of its cases must verify and run a memory access, or the
/// contract is checked on too few programs to mean anything.
#[test]
fn structured_verified_programs_run_safely() {
    structured_case();
    let cases = ProptestConfig::default().cases;
    let hits = MEMORY_CASES.load(Ordering::Relaxed);
    assert!(
        4 * hits >= cases,
        "only {hits} of {cases} cases verified and accessed memory"
    );
}

proptest! {
    /// THE soundness contract: if the verifier accepts a program —
    /// however it was generated — the interpreter executes it
    /// without a panic or budget exhaustion. The fuzzed programs
    /// rarely verify; they mainly check that the verifier never
    /// panics.
    #[test]
    fn verified_programs_run_safely(
        insns in prop::collection::vec(arb_insn(), 0..40),
        ctx in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::array(8, 8)).unwrap();
        let program = build_arbitrary(&insns, &maps, map_id);
        // Verification must never panic; acceptance is optional.
        if let Ok(verified) = Verifier::new(&maps, &[]).verify(&program) {
            let result = Interpreter::new().run(&verified, &ctx, &mut maps, &mut NoKfuncs);
            match result {
                Ok(outcome) => prop_assert!(outcome.insns_executed > 0),
                Err(RunError::Map(_)) => {} // runtime map capacity: legal
                Err(other) => prop_assert!(false, "verified program failed: {other}"),
            }
        }
    }

    /// ALU semantics agree with a reference implementation.
    #[test]
    fn alu64_matches_reference(a in any::<i64>(), b in any::<i64>(), op_i in 0usize..11) {
        let ops = [
            AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Div, AluOp::Mod,
            AluOp::Or, AluOp::And, AluOp::Xor, AluOp::Lsh, AluOp::Rsh, AluOp::Arsh,
        ];
        let op = ops[op_i];
        let mut maps = MapSet::new();
        let mut builder = ProgramBuilder::new("alu");
        builder
            .load_imm64(Reg::R0, a)
            .load_imm64(Reg::R1, b)
            .alu(op, Reg::R0, Reg::R1)
            .exit();
        let p = Verifier::new(&maps, &[]).verify(&builder.build().unwrap()).unwrap();
        let got = Interpreter::new().run(&p, &[], &mut maps, &mut NoKfuncs).unwrap().return_value;
        let (ua, ub) = (a as u64, b as u64);
        let want = match op {
            AluOp::Add => ua.wrapping_add(ub),
            AluOp::Sub => ua.wrapping_sub(ub),
            AluOp::Mul => ua.wrapping_mul(ub),
            AluOp::Div => ua.checked_div(ub).unwrap_or(0),
            AluOp::Mod => ua.checked_rem(ub).unwrap_or(0),
            AluOp::Or => ua | ub,
            AluOp::And => ua & ub,
            AluOp::Xor => ua ^ ub,
            AluOp::Lsh => ua.wrapping_shl((ub & 63) as u32),
            AluOp::Rsh => ua.wrapping_shr((ub & 63) as u32),
            AluOp::Arsh => ((ua as i64) >> (ub & 63)) as u64,
            AluOp::Mov => ub,
        };
        prop_assert_eq!(got, want);
    }

    /// Stack stores round-trip through every access size at every
    /// aligned offset.
    #[test]
    fn stack_roundtrip(value in any::<i64>(), slot in 1u8..64) {
        let off = -(slot as i16) * 8;
        let mut maps = MapSet::new();
        let mut b = ProgramBuilder::new("stack");
        b.load_imm64(Reg::R1, value)
            .store(Reg::R10, off, Reg::R1, AccessSize::B8)
            .load(Reg::R0, Reg::R10, off, AccessSize::B8)
            .exit();
        let p = Verifier::new(&maps, &[]).verify(&b.build().unwrap()).unwrap();
        let got = Interpreter::new().run(&p, &[], &mut maps, &mut NoKfuncs).unwrap().return_value;
        prop_assert_eq!(got, value as u64);
    }

    /// The text disassembly parses back to the identical program.
    #[test]
    fn text_roundtrip(insns in prop::collection::vec(arb_insn(), 0..60)) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::array(8, 8)).unwrap();
        let program = build_arbitrary(&insns, &maps, map_id);
        let parsed = snapbpf_ebpf::parse_program("x", &program.to_string()).unwrap();
        prop_assert_eq!(parsed, program);
    }

    /// Loop-shaped programs — an arbitrary body wrapped in a counted
    /// back-edge — survive the text round-trip: the negative jump
    /// offsets the disassembly prints for loop back-edges stay
    /// parseable now that the verifier admits them.
    #[test]
    fn loop_programs_roundtrip(
        insns in prop::collection::vec(arb_insn(), 0..20),
        trips in 1i64..64,
    ) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::array(8, 8)).unwrap();
        let body = build_arbitrary(&insns, &maps, map_id);
        let mut b = ProgramBuilder::new("loop");
        let top = b.label();
        b.mov(Reg::R6, 0).bind(top).unwrap();
        for insn in body.insns() {
            b.push(*insn);
        }
        b.add(Reg::R6, 1)
            .jump_if(JmpCond::Lt, Reg::R6, trips, top)
            .mov(Reg::R0, 0)
            .exit();
        let program = b.build().unwrap();
        let parsed = snapbpf_ebpf::parse_program("x", &program.to_string()).unwrap();
        prop_assert_eq!(&parsed, &program);
    }

    /// The text parser never panics on arbitrary input.
    #[test]
    fn parser_total(text in "\\PC*") {
        let _ = snapbpf_ebpf::parse_program("x", &text);
    }

    /// Programs referencing a per-CPU array map def survive the text
    /// round-trip exactly like array-backed ones (the `lddw rX,
    /// map#N` form is kind-agnostic, but the parse must still
    /// resolve against a map set holding a `PerCpuArray`).
    #[test]
    fn text_roundtrip_with_percpu_map(insns in prop::collection::vec(arb_insn(), 0..60)) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::percpu_array(8, 8)).unwrap();
        let program = build_arbitrary(&insns, &maps, map_id);
        let parsed = snapbpf_ebpf::parse_program("x", &program.to_string()).unwrap();
        prop_assert_eq!(&parsed, &program);
    }

    /// Per-CPU map writes round-trip: a program increments its CPU's
    /// slot; userspace reads the lane-merged sum across all CPUs.
    #[test]
    fn percpu_map_roundtrip(
        index in 0u32..8,
        value in any::<u32>(),
        cpu in 0u32..snapbpf_ebpf::NCPUS,
    ) {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::percpu_array(8, 8)).unwrap();
        let mut b = ProgramBuilder::new("percpu-store");
        let out = b.label();
        b.store_imm(Reg::R10, -4, index as i64, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load_imm64(Reg::R1, value as i64)
            .store(Reg::R0, 0, Reg::R1, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let p = Verifier::new(&maps, &[]).verify(&b.build().unwrap()).unwrap();
        let mut interp = Interpreter::new();
        interp.set_current_cpu(cpu);
        interp.run(&p, &[], &mut maps, &mut NoKfuncs).unwrap();
        prop_assert_eq!(maps.percpu_load_merged_u64(m, index).unwrap(), value as u64);
    }

    /// Map round trips through program-side update + userspace read.
    #[test]
    fn map_roundtrip(index in 0u32..16, value in any::<u64>()) {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        let mut b = ProgramBuilder::new("store");
        let out = b.label();
        b.store_imm(Reg::R10, -4, index as i64, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .load_imm64(Reg::R1, value as i64)
            .store(Reg::R0, 0, Reg::R1, AccessSize::B8)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        let p = Verifier::new(&maps, &[]).verify(&b.build().unwrap()).unwrap();
        Interpreter::new().run(&p, &[], &mut maps, &mut NoKfuncs).unwrap();
        prop_assert_eq!(maps.array_load_u64(m, index).unwrap(), value);
    }
}
