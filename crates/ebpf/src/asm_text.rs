//! Textual assembly: parse the disassembly syntax back into
//! programs.
//!
//! [`Program`]'s `Display` impl emits one instruction per line
//! (`mov64 r1, 7`, `ldxu64 r0, [r10-8]`, `jeq r0, 0, +2`, …);
//! [`parse_program`] accepts exactly that syntax — plus comments and
//! the listing's index prefixes — so programs can be written and
//! reviewed as text files and round-tripped losslessly:
//! `parse(program.to_string()) == program`.
//!
//! Jump targets are written as relative instruction offsets (`+2`
//! forward, `-3` backward — back-edges are legal since the verifier
//! proves loops bounded), the same convention the disassembly uses.

use std::fmt;

use crate::insn::{AccessSize, AluOp, HelperId, Insn, JmpCond, Operand, Reg};
use crate::map::MapId;
use crate::program::{Program, ProgramBuilder};

/// A parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let idx = tok
        .strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n <= 10)
        .ok_or_else(|| err(line, format!("expected register, got {tok:?}")))?;
    Ok(Reg::new(idx))
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, ParseError> {
    if tok.starts_with('r') && parse_reg(tok, line).is_ok() {
        Ok(Operand::Reg(parse_reg(tok, line)?))
    } else {
        tok.parse::<i64>()
            .map(Operand::Imm)
            .map_err(|_| err(line, format!("expected register or immediate, got {tok:?}")))
    }
}

fn parse_offset(tok: &str, line: usize) -> Result<i32, ParseError> {
    tok.strip_prefix('+')
        .unwrap_or(tok)
        .parse::<i32>()
        .map_err(|_| err(line, format!("expected relative offset, got {tok:?}")))
}

/// Parses `[rB+off]` / `[rB-off]` memory operands.
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i16), ParseError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected [reg±off], got {tok:?}")))?;
    let split = inner
        .char_indices()
        .skip(1)
        .find(|&(_, c)| c == '+' || c == '-')
        .map(|(i, _)| i)
        .ok_or_else(|| err(line, format!("missing offset in {tok:?}")))?;
    let base = parse_reg(&inner[..split], line)?;
    let off = inner[split..]
        .parse::<i16>()
        .map_err(|_| err(line, format!("bad offset in {tok:?}")))?;
    Ok((base, off))
}

fn parse_size(suffix: &str, line: usize) -> Result<AccessSize, ParseError> {
    match suffix {
        "u8" => Ok(AccessSize::B1),
        "u16" => Ok(AccessSize::B2),
        "u32" => Ok(AccessSize::B4),
        "u64" => Ok(AccessSize::B8),
        other => Err(err(line, format!("bad access size {other:?}"))),
    }
}

fn alu_op(mnemonic: &str) -> Option<AluOp> {
    Some(match mnemonic {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "mod" => AluOp::Mod,
        "or" => AluOp::Or,
        "and" => AluOp::And,
        "xor" => AluOp::Xor,
        "lsh" => AluOp::Lsh,
        "rsh" => AluOp::Rsh,
        "arsh" => AluOp::Arsh,
        "mov" => AluOp::Mov,
        _ => return None,
    })
}

fn jmp_cond(mnemonic: &str) -> Option<JmpCond> {
    Some(match mnemonic {
        "jeq" => JmpCond::Eq,
        "jne" => JmpCond::Ne,
        "jgt" => JmpCond::Gt,
        "jge" => JmpCond::Ge,
        "jlt" => JmpCond::Lt,
        "jle" => JmpCond::Le,
        "jsgt" => JmpCond::SGt,
        "jsge" => JmpCond::SGe,
        "jslt" => JmpCond::SLt,
        "jsle" => JmpCond::SLe,
        "jset" => JmpCond::Set,
        _ => return None,
    })
}

fn helper_by_name(name: &str) -> Option<HelperId> {
    Some(match name {
        "bpf_map_lookup_elem" => HelperId::MapLookup,
        "bpf_ktime_get_ns" => HelperId::KtimeGetNs,
        "bpf_ringbuf_output" => HelperId::RingbufOutput,
        _ => return None,
    })
}

/// Parses a single instruction line (without listing prefix).
fn parse_insn(line_text: &str, line: usize) -> Result<Insn, ParseError> {
    // Tokenize: mnemonic then comma-separated operands.
    let (mnemonic, rest) = match line_text.split_once(char::is_whitespace) {
        Some((m, r)) => (m.trim(), r.trim()),
        None => (line_text.trim(), ""),
    };
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let want = |n: usize| -> Result<(), ParseError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(err(
                line,
                format!("{mnemonic}: expected {n} operands, got {}", ops.len()),
            ))
        }
    };

    // ALU with width suffix: add64 / add32 / … / mov64 / neg64.
    if let Some(width) = mnemonic
        .strip_suffix("64")
        .map(|m| (m, true))
        .or_else(|| mnemonic.strip_suffix("32").map(|m| (m, false)))
    {
        let (base, wide) = width;
        if base == "neg" {
            want(1)?;
            if !wide {
                return Err(err(line, "neg is 64-bit only"));
            }
            return Ok(Insn::Neg {
                dst: parse_reg(ops[0], line)?,
            });
        }
        if let Some(op) = alu_op(base) {
            want(2)?;
            let dst = parse_reg(ops[0], line)?;
            let src = parse_operand(ops[1], line)?;
            return Ok(if wide {
                Insn::Alu64 { op, dst, src }
            } else {
                Insn::Alu32 { op, dst, src }
            });
        }
    }

    // Loads/stores with size suffix: ldxu64, stxu32, stu8.
    if let Some(suffix) = mnemonic.strip_prefix("ldx") {
        want(2)?;
        let size = parse_size(suffix, line)?;
        let dst = parse_reg(ops[0], line)?;
        let (base, off) = parse_mem(ops[1], line)?;
        return Ok(Insn::Load {
            dst,
            base,
            off,
            size,
        });
    }
    if let Some(suffix) = mnemonic.strip_prefix("stx") {
        want(2)?;
        let size = parse_size(suffix, line)?;
        let (base, off) = parse_mem(ops[0], line)?;
        let src = parse_reg(ops[1], line)?;
        return Ok(Insn::Store {
            base,
            off,
            src,
            size,
        });
    }
    if let Some(suffix) = mnemonic.strip_prefix("st") {
        if let Ok(size) = parse_size(suffix, line) {
            want(2)?;
            let (base, off) = parse_mem(ops[0], line)?;
            let imm = ops[1]
                .parse::<i64>()
                .map_err(|_| err(line, format!("bad immediate {:?}", ops[1])))?;
            return Ok(Insn::StoreImm {
                base,
                off,
                imm,
                size,
            });
        }
    }

    // Conditional jumps.
    if let Some(cond) = jmp_cond(mnemonic) {
        want(3)?;
        return Ok(Insn::JumpIf {
            cond,
            dst: parse_reg(ops[0], line)?,
            src: parse_operand(ops[1], line)?,
            off: parse_offset(ops[2], line)?,
        });
    }

    match mnemonic {
        "ja" => {
            want(1)?;
            Ok(Insn::Jump {
                off: parse_offset(ops[0], line)?,
            })
        }
        "lddw" => {
            want(2)?;
            let dst = parse_reg(ops[0], line)?;
            if let Some(id) = ops[1].strip_prefix("map#") {
                let raw = id
                    .parse::<u32>()
                    .map_err(|_| err(line, format!("bad map id {:?}", ops[1])))?;
                Ok(Insn::LoadMapRef {
                    dst,
                    map: MapId::from_raw(raw),
                })
            } else {
                let imm = ops[1]
                    .parse::<i64>()
                    .map_err(|_| err(line, format!("bad immediate {:?}", ops[1])))?;
                Ok(Insn::LoadImm64 { dst, imm })
            }
        }
        "ldctx" => {
            want(2)?;
            let dst = parse_reg(ops[0], line)?;
            let index = ops[1]
                .strip_prefix("arg")
                .and_then(|n| n.parse::<u8>().ok())
                .ok_or_else(|| err(line, format!("expected argN, got {:?}", ops[1])))?;
            Ok(Insn::LoadCtx { dst, index })
        }
        "call" => {
            want(1)?;
            if let Some(idx) = ops[0].strip_prefix("kfunc#") {
                let kfunc = idx
                    .parse::<u32>()
                    .map_err(|_| err(line, format!("bad kfunc index {:?}", ops[0])))?;
                Ok(Insn::CallKfunc { kfunc })
            } else {
                helper_by_name(ops[0])
                    .map(|helper| Insn::Call { helper })
                    .ok_or_else(|| err(line, format!("unknown helper {:?}", ops[0])))
            }
        }
        "exit" => {
            want(0)?;
            Ok(Insn::Exit)
        }
        other => Err(err(line, format!("unknown mnemonic {other:?}"))),
    }
}

/// Parses a whole program from the disassembly syntax.
///
/// Accepted per line: an instruction (optionally prefixed by a
/// listing index `NNN:`), a `; comment` (a leading
/// `; program <name>` header sets the program's name), or blank.
/// `name` is the fallback program name when no header is present.
///
/// # Errors
///
/// Returns the first [`ParseError`], with its line number.
///
/// # Examples
///
/// ```
/// use snapbpf_ebpf::parse_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let text = "
///     ; program answer
///     mov64 r0, 40
///     add64 r0, 2
///     exit
/// ";
/// let program = parse_program("fallback", text)?;
/// assert_eq!(program.name(), "answer");
/// assert_eq!(program.len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn parse_program(name: &str, text: &str) -> Result<Program, ParseError> {
    let mut program_name = name.to_owned();
    let mut insns = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let mut line_text = raw.trim();
        if line_text.is_empty() {
            continue;
        }
        if let Some(comment) = line_text.strip_prefix(';') {
            if let Some(n) = comment.trim().strip_prefix("program ") {
                program_name = n.trim().to_owned();
            }
            continue;
        }
        // Strip a listing index prefix ("  12: ").
        if let Some((prefix, rest)) = line_text.split_once(':') {
            if prefix.trim().parse::<usize>().is_ok() {
                line_text = rest.trim();
            }
        }
        if line_text.is_empty() {
            continue;
        }
        insns.push(parse_insn(line_text, line_no)?);
    }
    let mut b = ProgramBuilder::new(program_name);
    for insn in insns {
        b.push(insn);
    }
    Ok(b.build().expect("no labels involved"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, NoKfuncs};
    use crate::map::{MapDef, MapSet};
    use crate::verify::Verifier;

    #[test]
    fn parses_and_runs_a_text_program() {
        let text = "
            ; program min
            ldctx r0, arg0
            ldctx r2, arg1
            jle r0, r2, +1
            mov64 r0, r2
            exit
        ";
        let p = parse_program("x", text).unwrap();
        assert_eq!(p.name(), "min");
        let mut maps = MapSet::new();
        let v = Verifier::new(&maps, &[]).verify(&p).unwrap();
        let mut interp = Interpreter::new();
        let out = interp.run(&v, &[9, 4], &mut maps, &mut NoKfuncs).unwrap();
        assert_eq!(out.return_value, 4);
        let out = interp.run(&v, &[3, 4], &mut maps, &mut NoKfuncs).unwrap();
        assert_eq!(out.return_value, 3);
    }

    #[test]
    fn display_round_trips_through_the_parser() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 4)).unwrap();
        let mut b = ProgramBuilder::new("roundtrip");
        let out = b.label();
        b.load_ctx(Reg::R6, 0)
            .jump_if(JmpCond::Ne, Reg::R6, 7i64, out)
            .load_imm64(Reg::R7, -42)
            .store(Reg::R10, -8, Reg::R7, AccessSize::B8)
            .load(Reg::R8, Reg::R10, -8, AccessSize::B8)
            .store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
            .store(Reg::R0, 0, Reg::R8, AccessSize::B8)
            .bind(out)
            .unwrap()
            .alu32(AluOp::Xor, Reg::R6, Reg::R6)
            .push(Insn::Neg { dst: Reg::R6 })
            .call_kfunc(3)
            .push(Insn::Jump { off: 0 })
            .mov(Reg::R0, 0)
            .exit();
        let original = b.build().unwrap();
        let text = original.to_string();
        let parsed = parse_program("ignored", &text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn all_helpers_round_trip() {
        for helper in [
            HelperId::MapLookup,
            HelperId::KtimeGetNs,
            HelperId::RingbufOutput,
        ] {
            let text = format!("call {helper}\nexit");
            let p = parse_program("h", &text).unwrap();
            assert_eq!(p.insns()[0], Insn::Call { helper });
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("mov64 r11, 1", "register"),
            ("frobnicate r0", "unknown mnemonic"),
            ("jeq r0, 0", "expected 3 operands"),
            ("ldxu64 r0, r10", "[reg±off]"),
            ("ldxu7 r0, [r10-8]", "bad access size"),
            ("call bpf_nope", "unknown helper"),
            ("ldctx r0, 5", "argN"),
            ("stu32 [r10-4], banana", "bad immediate"),
        ];
        for (bad, needle) in cases {
            let text = format!("mov64 r0, 0\n{bad}\nexit");
            let e = parse_program("x", &text).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(
                e.message.contains(needle),
                "{bad}: message {:?} missing {needle:?}",
                e.message
            );
        }
    }

    #[test]
    fn listing_prefixes_and_blanks_are_tolerated() {
        let text = "
            ; program listed

               0: mov64 r0, 1

               1: exit
        ";
        let p = parse_program("x", text).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(), "listed");
    }

    #[test]
    fn negative_and_positive_offsets_parse() {
        let p = parse_program("j", "ja +2\nja -1\nmov64 r0, 0\nexit").unwrap();
        assert_eq!(p.insns()[0], Insn::Jump { off: 2 });
        assert_eq!(p.insns()[1], Insn::Jump { off: -1 });
    }
}
