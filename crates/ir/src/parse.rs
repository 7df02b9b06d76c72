//! A parser for the textual IR produced by [`crate::print_module`],
//! giving the IR a round-trippable serialization format: dump a module
//! with `print_module`, edit or store it, and read it back with
//! [`parse_module`].

use std::fmt;

use crate::function::{Block, BlockId, Function};
use crate::inst::{BinOp, Callee, Cond, Inst, Intrinsic, Operand, Reg, Terminator, UnOp};
use crate::module::{FuncId, GlobalData, Module, ProfilePlan, SeqId};

/// A textual-IR parse error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseIrError {
    /// Line the error was found on.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseIrError {}

/// Parse the output of [`crate::print_module`] back into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseIrError`] naming the offending line.
pub fn parse_module(text: &str) -> Result<Module, ParseIrError> {
    Parser {
        lines: text.lines().collect(),
        at: 0,
        line: 0,
    }
    .module()
}

struct Parser<'t> {
    lines: Vec<&'t str>,
    at: usize,
    /// 1-based number of the line last peeked at, which errors name.
    line: usize,
}

impl<'t> Parser<'t> {
    fn err(&self, message: impl Into<String>) -> ParseIrError {
        ParseIrError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&mut self) -> Option<&'t str> {
        while self.at < self.lines.len() && self.lines[self.at].trim().is_empty() {
            self.at += 1;
        }
        let line = self.lines.get(self.at)?;
        self.line = self.at + 1;
        Some(line.trim())
    }

    fn bump(&mut self) -> Option<&'t str> {
        let line = self.peek()?;
        self.at += 1;
        Some(line)
    }

    fn module(&mut self) -> Result<Module, ParseIrError> {
        let mut m = Module::new();
        while let Some(line) = self.peek() {
            if let Some(rest) = line.strip_prefix("global ") {
                self.bump();
                m.globals.push(self.global(rest)?);
            } else if let Some(rest) = line.strip_prefix("plan ") {
                self.bump();
                m.profile_plans.push(self.plan(rest)?);
            } else if let Some(rest) = line.strip_prefix("main ") {
                self.bump();
                let id: u32 = rest
                    .trim()
                    .strip_prefix('f')
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| self.err("bad main id"))?;
                m.main = Some(FuncId(id));
            } else if line.starts_with("func ") {
                let f = self.function()?;
                m.functions.push(f);
            } else {
                return Err(self.err(format!("unexpected line `{line}`")));
            }
        }
        Ok(m)
    }

    fn global(&self, rest: &str) -> Result<GlobalData, ParseIrError> {
        // NAME @ADDR size=N init=[a, b, c]
        let mut parts = rest.splitn(2, " @");
        let name = parts.next().unwrap_or("").to_string();
        let tail = parts.next().ok_or_else(|| self.err("global missing @"))?;
        let (addr_s, tail) = tail
            .split_once(" size=")
            .ok_or_else(|| self.err("global missing size"))?;
        let (size_s, init_s) = tail
            .split_once(" init=[")
            .ok_or_else(|| self.err("global missing init"))?;
        let addr: i64 = addr_s.trim().parse().map_err(|_| self.err("bad addr"))?;
        let size: u32 = size_s.trim().parse().map_err(|_| self.err("bad size"))?;
        let init_body = init_s.trim_end_matches(']').trim();
        let init = if init_body.is_empty() {
            Vec::new()
        } else {
            init_body
                .split(',')
                .map(|v| v.trim().parse::<i64>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| self.err("bad init value"))?
        };
        Ok(GlobalData {
            name,
            addr,
            init,
            size,
        })
    }

    fn plan(&self, rest: &str) -> Result<ProfilePlan, ParseIrError> {
        // seqN func=F head=B ranges=[lo..hi, ...]
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let get =
            |prefix: &str| -> Option<&str> { fields.iter().find_map(|f| f.strip_prefix(prefix)) };
        let func: u32 = get("func=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("plan missing func"))?;
        let head: u32 = get("head=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("plan missing head"))?;
        let start = rest
            .find("ranges=[")
            .ok_or_else(|| self.err("plan missing ranges"))?;
        let body = rest[start + "ranges=[".len()..]
            .trim_end_matches(']')
            .trim();
        let mut ranges = Vec::new();
        if !body.is_empty() {
            for r in body.split(", ") {
                let (lo, hi) = r
                    .split_once("..")
                    .ok_or_else(|| self.err("bad range in plan"))?;
                ranges.push((
                    lo.parse().map_err(|_| self.err("bad range lo"))?,
                    hi.parse().map_err(|_| self.err("bad range hi"))?,
                ));
            }
        }
        Ok(ProfilePlan {
            func: FuncId(func),
            head: BlockId(head),
            ranges,
        })
    }

    fn function(&mut self) -> Result<Function, ParseIrError> {
        // func NAME(r0, r1) regs=N frame=M {
        let header = self.bump().ok_or_else(|| self.err("missing header"))?;
        let rest = header
            .strip_prefix("func ")
            .ok_or_else(|| self.err("bad func header"))?;
        let open = rest.find('(').ok_or_else(|| self.err("missing ("))?;
        let close = rest.find(')').ok_or_else(|| self.err("missing )"))?;
        let name = rest[..open].to_string();
        let params: Vec<Reg> = rest[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| self.reg(p))
            .collect::<Result<_, _>>()?;
        let tail = &rest[close + 1..];
        let num_regs: u32 = field(tail, "regs=").ok_or_else(|| self.err("missing regs="))?;
        let frame_size: u32 = field(tail, "frame=").ok_or_else(|| self.err("missing frame="))?;

        let mut blocks: Vec<Block> = Vec::new();
        let mut entry = BlockId(0);
        let mut current: Option<(BlockId, Vec<Inst>, Option<Terminator>)> = None;
        loop {
            let line = self
                .bump()
                .ok_or_else(|| self.err("unterminated function"))?;
            if line == "}" {
                if let Some((id, insts, term)) = current.take() {
                    self.close_block(&mut blocks, id, insts, term)?;
                }
                break;
            }
            if let Some(label) = line.strip_suffix(": ; entry") {
                let id = self.block_id(label)?;
                if let Some((pid, insts, term)) = current.take() {
                    self.close_block(&mut blocks, pid, insts, term)?;
                }
                entry = id;
                current = Some((id, Vec::new(), None));
            } else if let Some(label) = line.strip_suffix(':') {
                let id = self.block_id(label)?;
                if let Some((pid, insts, term)) = current.take() {
                    self.close_block(&mut blocks, pid, insts, term)?;
                }
                current = Some((id, Vec::new(), None));
            } else {
                let Some((_, insts, term)) = current.as_mut() else {
                    return Err(self.err("instruction outside a block"));
                };
                if term.is_some() {
                    return Err(self.err("instruction after terminator"));
                }
                match self.terminator(line)? {
                    Some(t) => *term = Some(t),
                    None => insts.push(self.inst(line)?),
                }
            }
        }
        Ok(Function {
            name,
            blocks,
            entry,
            param_regs: params,
            num_regs,
            frame_size,
        })
    }

    fn close_block(
        &self,
        blocks: &mut Vec<Block>,
        id: BlockId,
        insts: Vec<Inst>,
        term: Option<Terminator>,
    ) -> Result<(), ParseIrError> {
        if id.index() != blocks.len() {
            return Err(self.err(format!(
                "blocks must appear in order: expected b{}, got {id}",
                blocks.len()
            )));
        }
        let term = term.ok_or_else(|| self.err(format!("block {id} lacks a terminator")))?;
        blocks.push(Block { insts, term });
        Ok(())
    }

    fn block_id(&self, text: &str) -> Result<BlockId, ParseIrError> {
        text.trim()
            .strip_prefix('b')
            .and_then(|s| s.parse().ok())
            .map(BlockId)
            .ok_or_else(|| self.err(format!("bad block id `{text}`")))
    }

    fn reg(&self, text: &str) -> Result<Reg, ParseIrError> {
        text.trim()
            .strip_prefix('r')
            .and_then(|s| s.parse().ok())
            .map(Reg)
            .ok_or_else(|| self.err(format!("bad register `{text}`")))
    }

    fn operand(&self, text: &str) -> Result<Operand, ParseIrError> {
        let t = text.trim();
        if t.starts_with('r') {
            self.reg(t).map(Operand::Reg)
        } else {
            t.parse::<i64>()
                .map(Operand::Imm)
                .map_err(|_| self.err(format!("bad operand `{t}`")))
        }
    }

    /// Parse a terminator line, or `None` if the line is an instruction.
    fn terminator(&self, line: &str) -> Result<Option<Terminator>, ParseIrError> {
        let mut words = line.split_whitespace();
        let Some(head) = words.next() else {
            return Err(self.err("empty line"));
        };
        let cond = match head {
            "beq" => Some(Cond::Eq),
            "bne" => Some(Cond::Ne),
            "blt" => Some(Cond::Lt),
            "ble" => Some(Cond::Le),
            "bgt" => Some(Cond::Gt),
            "bge" => Some(Cond::Ge),
            _ => None,
        };
        if let Some(cond) = cond {
            // beq bN else bM
            let rest: Vec<&str> = words.collect();
            if rest.len() != 3 || rest[1] != "else" {
                return Err(self.err("malformed branch"));
            }
            return Ok(Some(Terminator::Branch {
                cond,
                taken: self.block_id(rest[0])?,
                not_taken: self.block_id(rest[2])?,
            }));
        }
        match head {
            "jmp" => {
                let t = words.next().ok_or_else(|| self.err("jmp target"))?;
                Ok(Some(Terminator::Jump(self.block_id(t)?)))
            }
            "ijmp" => {
                // ijmp rI, [b1, b2, ...]
                let rest = line["ijmp".len()..].trim();
                let (reg_s, table) = rest
                    .split_once(',')
                    .ok_or_else(|| self.err("ijmp needs a table"))?;
                let index = self.reg(reg_s)?;
                let body = table.trim().trim_start_matches('[').trim_end_matches(']');
                let targets = body
                    .split(',')
                    .map(|t| self.block_id(t))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Some(Terminator::IndirectJump { index, targets }))
            }
            "ret" => {
                let v = line["ret".len()..].trim();
                Ok(Some(Terminator::Return(if v.is_empty() {
                    None
                } else {
                    Some(self.operand(v)?)
                })))
            }
            _ => Ok(None),
        }
    }

    fn inst(&self, line: &str) -> Result<Inst, ParseIrError> {
        let (mnemonic, rest) = line.split_once(' ').unwrap_or((line, ""));
        let args: Vec<&str> = rest.split(',').map(str::trim).collect();
        let bin = |op: BinOp| -> Result<Inst, ParseIrError> {
            if args.len() != 3 {
                return Err(self.err(format!("{mnemonic} wants 3 operands")));
            }
            Ok(Inst::Bin {
                op,
                dst: self.reg(args[0])?,
                lhs: self.operand(args[1])?,
                rhs: self.operand(args[2])?,
            })
        };
        match mnemonic {
            "mov" => Ok(Inst::Copy {
                dst: self.reg(args.first().ok_or_else(|| self.err("mov dst"))?)?,
                src: self.operand(args.get(1).ok_or_else(|| self.err("mov src"))?)?,
            }),
            "add" => bin(BinOp::Add),
            "sub" => bin(BinOp::Sub),
            "mul" => bin(BinOp::Mul),
            "div" => bin(BinOp::Div),
            "rem" => bin(BinOp::Rem),
            "and" => bin(BinOp::And),
            "or" => bin(BinOp::Or),
            "xor" => bin(BinOp::Xor),
            "shl" => bin(BinOp::Shl),
            "shr" => bin(BinOp::Shr),
            "neg" | "not" => Ok(Inst::Un {
                op: if mnemonic == "neg" {
                    UnOp::Neg
                } else {
                    UnOp::Not
                },
                dst: self.reg(args.first().ok_or_else(|| self.err("un dst"))?)?,
                src: self.operand(args.get(1).ok_or_else(|| self.err("un src"))?)?,
            }),
            "cmp" => Ok(Inst::Cmp {
                lhs: self.operand(args.first().ok_or_else(|| self.err("cmp lhs"))?)?,
                rhs: self.operand(args.get(1).ok_or_else(|| self.err("cmp rhs"))?)?,
            }),
            "ld" => {
                // ld rD, [base+index]
                let dst = self.reg(args.first().ok_or_else(|| self.err("ld dst"))?)?;
                let (base, index) = self.address(args.get(1).copied().unwrap_or(""))?;
                Ok(Inst::Load { dst, base, index })
            }
            "st" => {
                // st [base+index], src
                let (base, index) = self.address(args.first().copied().unwrap_or(""))?;
                let src = self.operand(args.get(1).ok_or_else(|| self.err("st src"))?)?;
                Ok(Inst::Store { base, index, src })
            }
            "lea" => {
                // lea rD, frame+OFF
                let dst = self.reg(args.first().ok_or_else(|| self.err("lea dst"))?)?;
                let off = args
                    .get(1)
                    .and_then(|a| a.strip_prefix("frame+"))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| self.err("lea offset"))?;
                Ok(Inst::FrameAddr { dst, offset: off })
            }
            "call" => self.call(rest),
            "profile" => {
                // profile seqN, rV
                let seq = args
                    .first()
                    .and_then(|a| a.strip_prefix("seq"))
                    .and_then(|s| s.parse().ok())
                    .map(SeqId)
                    .ok_or_else(|| self.err("profile seq"))?;
                let var = self.reg(args.get(1).ok_or_else(|| self.err("profile var"))?)?;
                Ok(Inst::ProfileRanges { seq, var })
            }
            other => Err(self.err(format!("unknown mnemonic `{other}`"))),
        }
    }

    /// `[base+index]` with a signed index (base may itself be negative).
    fn address(&self, text: &str) -> Result<(Operand, Operand), ParseIrError> {
        let body = text
            .trim()
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| self.err(format!("bad address `{text}`")))?;
        // Split at the LAST '+' that separates base and index (the base
        // never contains '+', and the printer always emits one).
        let plus = body
            .rfind('+')
            .ok_or_else(|| self.err(format!("bad address `{body}`")))?;
        // Guard against the '+' belonging to a negative index like
        // `[r0+-3]`: rfind handles it (the separator precedes the sign).
        let (base, index) = body.split_at(plus);
        Ok((self.operand(base)?, self.operand(&index[1..])?))
    }

    fn call(&self, rest: &str) -> Result<Inst, ParseIrError> {
        // call rD, callee(arg, ...)  |  call callee(arg, ...)
        let open = rest.find('(').ok_or_else(|| self.err("call missing ("))?;
        let close = rest.rfind(')').ok_or_else(|| self.err("call missing )"))?;
        let head = rest[..open].trim();
        let (dst, callee_s) = match head.split_once(',') {
            Some((d, c)) => (Some(self.reg(d)?), c.trim()),
            None => (None, head),
        };
        let callee = if let Some(id) = callee_s.strip_prefix('f') {
            if let Ok(n) = id.parse::<u32>() {
                Callee::Func(FuncId(n))
            } else {
                self.intrinsic(callee_s)?
            }
        } else {
            self.intrinsic(callee_s)?
        };
        let args = rest[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(|a| self.operand(a))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Inst::Call { dst, callee, args })
    }

    fn intrinsic(&self, name: &str) -> Result<Callee, ParseIrError> {
        Ok(Callee::Intrinsic(match name {
            "getchar" => Intrinsic::GetChar,
            "putchar" => Intrinsic::PutChar,
            "putint" => Intrinsic::PutInt,
            "abort" => Intrinsic::Abort,
            other => return Err(self.err(format!("unknown callee `{other}`"))),
        }))
    }
}

fn field<T: std::str::FromStr>(text: &str, prefix: &str) -> Option<T> {
    text.split_whitespace()
        .find_map(|w| w.strip_prefix(prefix))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::print::print_module;

    fn sample_module() -> Module {
        let mut m = Module::new();
        m.add_global("tab", vec![1, -2, 3], 5);
        let mut b = FuncBuilder::new("main");
        let x = b.new_reg();
        let y = b.new_reg();
        let e = b.entry();
        let t = b.new_block();
        let n = b.new_block();
        b.push(
            e,
            Inst::Call {
                dst: Some(x),
                callee: Callee::Intrinsic(Intrinsic::GetChar),
                args: vec![],
            },
        );
        b.load(e, y, 0i64, x);
        b.bin(e, BinOp::Mul, y, y, 4i64);
        b.store(e, 0i64, 1i64, y);
        b.cmp_branch(e, x, -1i64, Cond::Eq, t, n);
        b.set_term(t, Terminator::Return(Some(Operand::Imm(0))));
        b.un(n, UnOp::Neg, y, y);
        b.push(n, Inst::FrameAddr { dst: x, offset: 0 });
        b.set_term(
            n,
            Terminator::IndirectJump {
                index: y,
                targets: vec![BlockId(1), BlockId(2)],
            },
        );
        let mut f = b.finish();
        f.frame_size = 2;
        m.main = Some(m.add_function(f));
        m.add_profile_plan(ProfilePlan {
            func: FuncId(0),
            head: BlockId(0),
            ranges: vec![(i64::MIN, -1), (0, i64::MAX)],
        });
        m
    }

    #[test]
    fn round_trip_is_identity_on_text() {
        let m = sample_module();
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(print_module(&parsed), text);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m = sample_module();
        let parsed = parse_module(&print_module(&m)).unwrap();
        assert_eq!(parsed.functions.len(), 1);
        assert_eq!(parsed.main, m.main);
        assert_eq!(parsed.globals, m.globals);
        assert_eq!(parsed.profile_plans, m.profile_plans);
        assert_eq!(parsed.functions[0].blocks, m.functions[0].blocks);
        assert_eq!(parsed.functions[0].num_regs, m.functions[0].num_regs);
        assert_eq!(parsed.functions[0].frame_size, m.functions[0].frame_size);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_module("func broken( regs=0 frame=0 {\n}").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        let e = parse_module("nonsense").unwrap_err();
        assert!(e.message.contains("unexpected"));
        // The joint-outcome probe and its plan are not IR.
        let e = parse_module("plan seq0 func=0 head=0 outcomes=2\n").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "plan missing ranges"),
            "{e}"
        );
        let text = "func f(r0) regs=1 frame=0 {\nb0: ; entry\n    profile-outcomes seq0 [r0 beq 1]\n    ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(
            e.message.contains("unknown mnemonic `profile-outcomes`"),
            "{e}"
        );
    }

    #[test]
    fn negative_indices_in_addresses() {
        let text = "func f() regs=2 frame=0 {\nb0: ; entry\n    ld r1, [r0+-3]\n    ret\n}\n";
        let m = parse_module(text).unwrap();
        assert_eq!(
            m.functions[0].blocks[0].insts[0],
            Inst::Load {
                dst: Reg(1),
                base: Operand::Reg(Reg(0)),
                index: Operand::Imm(-3)
            }
        );
    }
}
