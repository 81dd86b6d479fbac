//! Property-based tests for the eBPF runtime: the core soundness
//! contract — *everything the verifier accepts runs to completion
//! without tripping a defensive check* — plus ALU semantics.

use proptest::prelude::*;
use snapbpf_ebpf::{
    AccessSize, AluOp, HelperId, Interpreter, JmpCond, MapDef, MapSet, NoKfuncs, Program,
    ProgramBuilder, Reg, RunError, Verifier,
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

proptest! {
    /// THE soundness contract: if the verifier accepts a program —
    /// however it was generated — the interpreter executes it
    /// without internal errors or budget exhaustion.
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
