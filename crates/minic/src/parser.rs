//! Recursive-descent parser.

use crate::ast::*;
use crate::error::CompileError;
use crate::token::{Pos, Tok, Token};

/// Parse a token stream into a [`Program`].
///
/// # Errors
///
/// Returns the first syntax error with its position.
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
    };
    p.program()
}

/// Deepest expression nesting the parser accepts. The parser, sema,
/// lowering and the optimizer all recurse over expression trees; this
/// bound keeps a hostile source from overflowing their stacks.
const MAX_EXPR_NESTING: usize = 64;

struct Parser<'t> {
    tokens: &'t [Token],
    at: usize,
    /// Expression nesting levels open around the current token.
    depth: usize,
}

/// Height of an expression tree (a leaf is 1).
fn height(e: &Expr) -> usize {
    1 + match e {
        Expr::Int(..) | Expr::Var(..) => 0,
        Expr::Index { index: a, .. }
        | Expr::Unary { operand: a, .. }
        | Expr::IncDec { target: a, .. } => height(a),
        Expr::Binary { lhs: a, rhs: b, .. }
        | Expr::Assign {
            target: a,
            value: b,
            ..
        } => height(a).max(height(b)),
        Expr::Ternary {
            cond,
            then_val,
            else_val,
            ..
        } => height(cond).max(height(then_val)).max(height(else_val)),
        Expr::Call { args, .. } => args.iter().map(height).max().unwrap_or(0),
    }
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.at].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) -> &'t Token {
        let t = &self.tokens[self.at];
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.pos(), msg)
    }

    fn expect(&mut self, tok: Tok) -> Result<Pos, CompileError> {
        if *self.peek() == tok {
            Ok(self.bump().pos)
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn type_keyword(&mut self) -> Result<(), CompileError> {
        if matches!(self.peek(), Tok::KwInt | Tok::KwChar) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected a type, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<(String, Pos), CompileError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let pos = self.bump().pos;
                Ok((name, pos))
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut program = Program {
            globals: Vec::new(),
            functions: Vec::new(),
        };
        while *self.peek() != Tok::Eof {
            self.type_keyword()?;
            let (name, pos) = self.ident()?;
            if *self.peek() == Tok::LParen {
                program.functions.push(self.function(name, pos)?);
            } else {
                program.globals.push(self.global(name, pos)?);
            }
        }
        Ok(program)
    }

    fn global(&mut self, name: String, pos: Pos) -> Result<GlobalDecl, CompileError> {
        let array_size = self.array_suffix()?;
        let init = if self.eat(Tok::Assign) {
            if array_size.is_some() {
                return Err(self.err("array initializers are not supported"));
            }
            Some(self.const_int()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(GlobalDecl {
            name,
            array_size,
            init,
            pos,
        })
    }

    fn array_suffix(&mut self) -> Result<Option<u32>, CompileError> {
        if !self.eat(Tok::LBracket) {
            return Ok(None);
        }
        let n = self.const_int()?;
        if n <= 0 || n > 1 << 24 {
            return Err(self.err(format!("array size {n} out of range")));
        }
        self.expect(Tok::RBracket)?;
        Ok(Some(n as u32))
    }

    /// A (possibly negated) integer or character literal.
    fn const_int(&mut self) -> Result<i64, CompileError> {
        let neg = self.eat(Tok::Minus);
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(self.err(format!("expected constant, found {other}"))),
        }
    }

    fn function(&mut self, name: String, pos: Pos) -> Result<FunctionDecl, CompileError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                self.type_keyword()?;
                let (p, _) = self.ident()?;
                params.push(p);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::LBrace)?;
        let body = self.stmt_list_until_rbrace()?;
        Ok(FunctionDecl {
            name,
            params,
            body,
            pos,
        })
    }

    fn stmt_list_until_rbrace(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of input inside a block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        match self.peek().clone() {
            Tok::KwInt | Tok::KwChar => {
                let pos = self.pos();
                self.type_keyword()?;
                let (name, _) = self.ident()?;
                let array_size = self.array_suffix()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Decl(LocalDecl {
                    name,
                    array_size,
                    pos,
                }))
            }
            Tok::KwIf => self.if_stmt(),
            Tok::KwWhile => {
                let pos = self.bump().pos;
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_list()?;
                Ok(Stmt::While { cond, body, pos })
            }
            Tok::KwDo => {
                let pos = self.bump().pos;
                let body = self.stmt_as_list()?;
                self.expect(Tok::KwWhile)?;
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond, pos })
            }
            Tok::KwFor => {
                let pos = self.bump().pos;
                self.expect(Tok::LParen)?;
                let init = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_list()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    pos,
                })
            }
            Tok::KwSwitch => self.switch_stmt(),
            Tok::KwBreak => {
                let pos = self.bump().pos;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break(pos))
            }
            Tok::KwContinue => {
                let pos = self.bump().pos;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue(pos))
            }
            Tok::KwReturn => {
                let pos = self.bump().pos;
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(value, pos))
            }
            Tok::LBrace => {
                self.bump();
                Ok(Stmt::Block(self.stmt_list_until_rbrace()?))
            }
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// A single statement treated as a list (branch/loop bodies).
    fn stmt_as_list(&mut self) -> Result<Vec<Stmt>, CompileError> {
        Ok(match self.stmt()? {
            Stmt::Block(stmts) => stmts,
            other => vec![other],
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.expect(Tok::KwIf)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_branch = self.stmt_as_list()?;
        let else_branch = if self.eat(Tok::KwElse) {
            self.stmt_as_list()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            pos,
        })
    }

    fn switch_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.expect(Tok::KwSwitch)?;
        self.expect(Tok::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut arms = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.bump();
                    break;
                }
                Tok::KwCase => {
                    let pos = self.bump().pos;
                    let value = self.const_int()?;
                    self.expect(Tok::Colon)?;
                    arms.push(SwitchArm {
                        value: Some(value),
                        body: self.arm_body()?,
                        pos,
                    });
                }
                Tok::KwDefault => {
                    let pos = self.bump().pos;
                    self.expect(Tok::Colon)?;
                    arms.push(SwitchArm {
                        value: None,
                        body: self.arm_body()?,
                        pos,
                    });
                }
                other => {
                    return Err(
                        self.err(format!("expected `case`, `default` or `}}`, found {other}"))
                    );
                }
            }
        }
        Ok(Stmt::Switch {
            scrutinee,
            arms,
            pos,
        })
    }

    /// Statements of one arm, up to the next `case`/`default`/`}`.
    fn arm_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut body = Vec::new();
        loop {
            match self.peek() {
                Tok::KwCase | Tok::KwDefault | Tok::RBrace => return Ok(body),
                Tok::Eof => return Err(self.err("unexpected end of input inside switch")),
                _ => body.push(self.stmt()?),
            }
        }
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.assignment()
    }

    fn too_deep(pos: Pos) -> CompileError {
        CompileError::new(
            pos,
            format!("expression nested more than {MAX_EXPR_NESTING} levels deep"),
        )
    }

    /// Parse a parenthesized expression, an operand, an argument or an
    /// index one nesting level deeper, refusing to pass
    /// [`MAX_EXPR_NESTING`]. Every recursive path through the expression
    /// grammar goes through here.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Expr, CompileError>,
    ) -> Result<Expr, CompileError> {
        if self.depth == MAX_EXPR_NESTING {
            return Err(Self::too_deep(self.pos()));
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            Tok::Assign => AssignOp::Set,
            Tok::PlusAssign => AssignOp::Add,
            Tok::MinusAssign => AssignOp::Sub,
            Tok::StarAssign => AssignOp::Mul,
            Tok::SlashAssign => AssignOp::Div,
            Tok::PercentAssign => AssignOp::Rem,
            _ => return Ok(lhs),
        };
        let pos = self.bump().pos;
        let value = self.nested(Self::assignment)?; // right-associative
        Ok(Expr::Assign {
            op,
            target: Box::new(lhs),
            value: Box::new(value),
            pos,
        })
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if *self.peek() != Tok::Question {
            return Ok(cond);
        }
        let pos = self.bump().pos;
        let then_val = self.nested(Self::expr)?;
        self.expect(Tok::Colon)?;
        let else_val = self.nested(Self::ternary)?;
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then_val: Box::new(then_val),
            else_val: Box::new(else_val),
            pos,
        })
    }

    /// Binary operators via precedence climbing. Level 0 is `||`.
    fn binary(&mut self, level: usize) -> Result<Expr, CompileError> {
        const LEVELS: &[&[(Tok, BinaryOp)]] = &[
            &[(Tok::OrOr, BinaryOp::LogicalOr)],
            &[(Tok::AndAnd, BinaryOp::LogicalAnd)],
            &[(Tok::Or, BinaryOp::BitOr)],
            &[(Tok::Xor, BinaryOp::BitXor)],
            &[(Tok::And, BinaryOp::BitAnd)],
            &[(Tok::EqEq, BinaryOp::Eq), (Tok::NotEq, BinaryOp::Ne)],
            &[
                (Tok::Lt, BinaryOp::Lt),
                (Tok::Le, BinaryOp::Le),
                (Tok::Gt, BinaryOp::Gt),
                (Tok::Ge, BinaryOp::Ge),
            ],
            &[(Tok::Shl, BinaryOp::Shl), (Tok::Shr, BinaryOp::Shr)],
            &[(Tok::Plus, BinaryOp::Add), (Tok::Minus, BinaryOp::Sub)],
            &[
                (Tok::Star, BinaryOp::Mul),
                (Tok::Slash, BinaryOp::Div),
                (Tok::Percent, BinaryOp::Rem),
            ],
        ];
        if level >= LEVELS.len() {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        // A left-associative chain deepens the tree without recursing,
        // so its height is bounded directly.
        let mut chain_height = None;
        'outer: loop {
            for (tok, op) in LEVELS[level] {
                if self.peek() == tok {
                    let pos = self.bump().pos;
                    let rhs = self.binary(level + 1)?;
                    let h = chain_height
                        .unwrap_or_else(|| height(&lhs))
                        .max(height(&rhs))
                        + 1;
                    if self.depth + h > MAX_EXPR_NESTING + 1 {
                        return Err(Self::too_deep(pos));
                    }
                    chain_height = Some(h);
                    lhs = Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        pos,
                    };
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let increment = *self.peek() == Tok::PlusPlus;
            let pos = self.bump().pos;
            let target = self.nested(Self::unary)?;
            return Ok(Expr::IncDec {
                target: Box::new(target),
                increment,
                prefix: true,
                pos,
            });
        }
        let op = match self.peek() {
            Tok::Minus => Some(UnaryOp::Neg),
            Tok::Not => Some(UnaryOp::LogicalNot),
            Tok::Tilde => Some(UnaryOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            let pos = self.bump().pos;
            let operand = self.nested(Self::unary)?;
            // Fold `-literal` immediately so INT64_MIN-adjacent constants
            // and case-label-like expressions behave.
            if let (UnaryOp::Neg, Expr::Int(v, _)) = (op, &operand) {
                return Ok(Expr::Int(-v, pos));
            }
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
                pos,
            });
        }
        let e = self.postfix()?;
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let increment = *self.peek() == Tok::PlusPlus;
            let pos = self.bump().pos;
            return Ok(Expr::IncDec {
                target: Box::new(e),
                increment,
                prefix: false,
                pos,
            });
        }
        Ok(e)
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                let pos = self.bump().pos;
                Ok(Expr::Int(v, pos))
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                let pos = self.bump().pos;
                match self.peek() {
                    Tok::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if !self.eat(Tok::RParen) {
                            loop {
                                args.push(self.nested(Self::expr)?);
                                if !self.eat(Tok::Comma) {
                                    break;
                                }
                            }
                            self.expect(Tok::RParen)?;
                        }
                        Ok(Expr::Call {
                            callee: name,
                            args,
                            pos,
                        })
                    }
                    Tok::LBracket => {
                        self.bump();
                        let index = self.nested(Self::expr)?;
                        self.expect(Tok::RBracket)?;
                        Ok(Expr::Index {
                            array: name,
                            index: Box::new(index),
                            pos,
                        })
                    }
                    _ => Ok(Expr::Var(name, pos)),
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_ok(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    fn parse_err(src: &str) -> CompileError {
        parse(&lex(src).unwrap()).unwrap_err()
    }

    #[test]
    fn parses_globals_and_functions() {
        let p = parse_ok("int g; int tab[10]; int zero = 0; int main() { return g; }");
        assert_eq!(p.globals.len(), 3);
        assert_eq!(p.globals[1].array_size, Some(10));
        assert_eq!(p.globals[2].init, Some(0));
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn precedence_binds_mul_tighter_than_add() {
        let p = parse_ok("int main() { return 1 + 2 * 3; }");
        let Stmt::Return(Some(Expr::Binary { op, rhs, .. }), _) = &p.functions[0].body[0] else {
            panic!("shape");
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn assignment_is_right_associative() {
        let p = parse_ok("int main() { int a; int b; a = b = 1; return a; }");
        let Stmt::Expr(Expr::Assign { value, .. }) = &p.functions[0].body[2] else {
            panic!("shape");
        };
        assert!(matches!(**value, Expr::Assign { .. }));
    }

    #[test]
    fn dangling_else_attaches_to_nearest_if() {
        let p = parse_ok("int main() { if (1) if (2) return 1; else return 2; return 0; }");
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &p.functions[0].body[0]
        else {
            panic!("shape");
        };
        assert!(else_branch.is_empty());
        let Stmt::If { else_branch, .. } = &then_branch[0] else {
            panic!("shape");
        };
        assert_eq!(else_branch.len(), 1);
    }

    #[test]
    fn switch_with_fallthrough_and_default() {
        let p = parse_ok(
            "int main() { int c; c = 0; switch (c) { case 1: case 2: c = 5; break; \
             default: c = 9; } return c; }",
        );
        let Stmt::Switch { arms, .. } = &p.functions[0].body[2] else {
            panic!("shape");
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].value, Some(1));
        assert!(arms[0].body.is_empty());
        assert_eq!(arms[2].value, None);
    }

    #[test]
    fn negative_case_labels() {
        let p = parse_ok("int main() { int c; c=0; switch (c) { case -1: break; } return 0; }");
        let Stmt::Switch { arms, .. } = &p.functions[0].body[2] else {
            panic!("shape");
        };
        assert_eq!(arms[0].value, Some(-1));
    }

    #[test]
    fn for_with_all_parts_optional() {
        parse_ok("int main() { for (;;) break; return 0; }");
        parse_ok("int main() { int i; for (i = 0; i < 9; i += 1) putint(i); return 0; }");
    }

    #[test]
    fn ternary_parses() {
        let p = parse_ok("int main() { int a; a = 1 ? 2 : 3; return a; }");
        let Stmt::Expr(Expr::Assign { value, .. }) = &p.functions[0].body[1] else {
            panic!("shape");
        };
        assert!(matches!(**value, Expr::Ternary { .. }));
    }

    #[test]
    fn error_on_missing_semi() {
        let e = parse_err("int main() { return 1 }");
        assert!(e.message.contains("`;`"), "{}", e.message);
    }

    #[test]
    fn error_on_stray_case_body() {
        let e = parse_err("int main() { switch (1) { int x; } return 0; }");
        assert!(e.message.contains("case"), "{}", e.message);
    }

    #[test]
    fn error_on_array_initializer() {
        let e = parse_err("int t[3] = 5; int main() { return 0; }");
        assert!(e.message.contains("array initializers"));
    }
}
