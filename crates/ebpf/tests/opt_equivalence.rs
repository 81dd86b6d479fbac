//! Equivalence tests for the optimizer: for any program the verifier
//! accepts — random programs and the on-disk corpus — the optimized
//! image must (a) re-pass verification and (b) be observationally
//! identical to the original — same return value, same final map and
//! ring-buffer contents, and never more executed instructions.

use std::path::Path;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use snapbpf_ebpf::{
    parse_program, AccessSize, AluOp, HelperId, Interpreter, JmpCond, MapDef, MapKind, MapSet,
    NoKfuncs, PassManager, Program, ProgramBuilder, Reg, RunError, Verifier,
};

/// A generator of arbitrary (frequently invalid) instructions via
/// the builder; only the verifier-accepted subset reaches the
/// equivalence check.
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

fn build_arbitrary(insns: &[ArbInsn], map_id: snapbpf_ebpf::MapId) -> Program {
    let mut b = ProgramBuilder::new("fuzz");
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

/// Runs `program` through the full equivalence gauntlet when the
/// verifier accepts it: optimize, re-verify, execute both images on
/// cloned map sets, and compare every observable.
fn check_equivalence(program: &Program, maps: &MapSet, ctx: &[u64]) -> Result<(), TestCaseError> {
    let Ok(verified) = Verifier::new(maps, &[]).verify(program) else {
        return Ok(());
    };
    let (optimized, stats) = PassManager::new().optimize(program, maps, &[]);
    prop_assert!(
        stats.insns_after <= stats.insns_before,
        "optimizer grew the program: {stats}"
    );
    let reverified = Verifier::new(maps, &[]).verify(&optimized);
    prop_assert!(
        reverified.is_ok(),
        "optimized image must re-pass verification: {:?}\noriginal:\n{program}\noptimized:\n{optimized}",
        reverified.err()
    );
    let reverified = reverified.unwrap();

    let mut maps_orig = maps.clone();
    let mut maps_opt = maps.clone();
    let run_orig = Interpreter::new().run(&verified, ctx, &mut maps_orig, &mut NoKfuncs);
    let run_opt = Interpreter::new().run(&reverified, ctx, &mut maps_opt, &mut NoKfuncs);
    match (run_orig, run_opt) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(
                a.return_value,
                b.return_value,
                "return value diverged\noriginal:\n{}\noptimized:\n{}",
                program,
                optimized
            );
            prop_assert!(
                b.insns_executed <= a.insns_executed,
                "optimized image executed more instructions ({} > {})",
                b.insns_executed,
                a.insns_executed
            );
        }
        (Err(RunError::Map(a)), Err(RunError::Map(b))) => {
            prop_assert_eq!(a, b, "map errors diverged");
        }
        (a, b) => {
            prop_assert!(
                false,
                "run outcomes diverged: original {a:?} vs optimized \
                 {b:?}\noriginal:\n{program}\noptimized:\n{optimized}"
            );
        }
    }
    // Final map contents must match slot for slot, and ring buffers
    // record for record.
    for id in 0..maps.len() {
        let id = snapbpf_ebpf::MapId::from_raw(id as u32);
        let def = maps.def(id).unwrap();
        if def.kind == MapKind::RingBuf {
            loop {
                let a = maps_orig.ring_pop(id).unwrap();
                let b = maps_opt.ring_pop(id).unwrap();
                prop_assert_eq!(&a, &b, "ring records diverged");
                if a.is_none() {
                    break;
                }
            }
            continue;
        }
        for index in 0..def.max_entries {
            let a = maps_orig.array_load_u64(id, index);
            let b = maps_opt.array_load_u64(id, index);
            prop_assert_eq!(a, b, "map slot {} diverged", index);
        }
    }
    Ok(())
}

/// Every program in `tests/corpus/` the verifier accepts — against
/// the corpus's map set (`map#0` an 8×8 array, `map#1` a 256-byte
/// ring buffer) — optimizes, re-verifies, and runs
/// interpreter-identically. The rejection corpus is skipped; it is
/// covered by `verifier_corpus`.
#[test]
fn corpus_programs_are_equivalent() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "asm").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    names.sort();
    let mut maps = MapSet::new();
    maps.create(MapDef::array(8, 8)).unwrap();
    maps.create(MapDef::ringbuf(256)).unwrap();
    let mut checked = 0;
    for name in &names {
        let text = std::fs::read_to_string(dir.join(format!("{name}.asm"))).unwrap();
        let program = parse_program(name, &text).unwrap();
        if Verifier::new(&maps, &[]).verify(&program).is_err() {
            continue;
        }
        check_equivalence(&program, &maps, &[0, 0]).unwrap_or_else(|e| panic!("{name}: {e}"));
        checked += 1;
    }
    assert!(checked > 0, "no verifiable corpus programs found");
}

proptest! {
    /// Random verified straight-ish programs: the optimized image is
    /// interpreter-identical and never slower.
    #[test]
    fn optimized_programs_are_equivalent(
        insns in prop::collection::vec(arb_insn(), 0..40),
        ctx in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::array(8, 8)).unwrap();
        let program = build_arbitrary(&insns, map_id);
        check_equivalence(&program, &maps, &ctx)?;
    }

    /// Loop-shaped programs — an arbitrary body wrapped in a counted
    /// back-edge — exercise the loop passes (LICM, IVSR, rotation)
    /// through the same equivalence gauntlet.
    #[test]
    fn optimized_loops_are_equivalent(
        insns in prop::collection::vec(arb_insn(), 0..20),
        trips in 1i64..64,
        ctx in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let mut maps = MapSet::new();
        let map_id = maps.create(MapDef::array(8, 8)).unwrap();
        let body = build_arbitrary(&insns, map_id);
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
        check_equivalence(&program, &maps, &ctx)?;
    }
}
