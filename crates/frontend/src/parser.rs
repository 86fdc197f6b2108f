//! Recursive-descent parser for MiniF.

use crate::ast::*;
use crate::error::{CompileError, ErrorKind};
use crate::lexer::{Tok, Token};

/// Deepest nesting the parser accepts: of statement blocks (`do`,
/// `while`, `if`), and separately of each expression (parentheses,
/// argument lists, unary operators, and each operator of a chain, which
/// deepens the tree by one). Every later pass walks blocks and
/// expressions recursively, so this bounds their stack use too: a
/// program nested exactly this deep in both compiles, optimizes,
/// certifies and runs on a 2 MiB thread in a debug build.
pub const MAX_NESTING: usize = 64;

/// Parses a token stream into a [`SourceFile`].
///
/// # Errors
///
/// Returns a [`CompileError`] on the first grammar violation, or where
/// nesting exceeds [`MAX_NESTING`].
pub fn parse(tokens: &[Token]) -> Result<SourceFile, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        blocks: 0,
        depth: 0,
    };
    let mut units = Vec::new();
    p.skip_newlines();
    while !p.at_end() {
        units.push(p.unit()?);
        p.skip_newlines();
    }
    if units.is_empty() {
        return Err(CompileError::new(ErrorKind::Parse, 1, "empty source file"));
    }
    Ok(SourceFile { units })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Statement blocks open around the current position.
    blocks: usize,
    /// Nesting depth inside the current expression.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(ErrorKind::Parse, self.line(), msg)
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), CompileError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_newline(&mut self) -> Result<(), CompileError> {
        self.expect(&Tok::Newline, "end of line")
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline)) {
            self.pos += 1;
        }
    }

    /// Consumes the next identifier that is not a keyword.
    fn ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.peek() {
            Some(Tok::Ident(name)) if !is_keyword(name) => {
                let name = name.clone();
                self.pos += 1;
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    /// True and consumed if the next token is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(name)) = self.peek() {
            if name == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), CompileError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(name)) if name == kw)
    }

    fn unit(&mut self) -> Result<Unit, CompileError> {
        let line = self.line();
        let (kind, name, params) = if self.eat_kw("program") {
            (UnitKind::Program, self.ident("program name")?, Vec::new())
        } else if self.eat_kw("subroutine") {
            let name = self.ident("subroutine name")?;
            let mut params = Vec::new();
            self.expect(&Tok::LParen, "`(`")?;
            if !matches!(self.peek(), Some(Tok::RParen)) {
                loop {
                    params.push(self.ident("parameter name")?);
                    if !matches!(self.peek(), Some(Tok::Comma)) {
                        break;
                    }
                    self.pos += 1;
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
            (UnitKind::Subroutine, name, params)
        } else {
            return Err(self.err("expected `program` or `subroutine`"));
        };
        self.expect_newline()?;
        self.skip_newlines();
        let mut decls = Vec::new();
        let mut consts = Vec::new();
        while self.at_kw("integer") || self.at_kw("real") || self.at_kw("parameter") {
            if self.eat_kw("parameter") {
                let cline = self.line();
                let name = self.ident("constant name")?;
                self.expect(&Tok::Assign, "`=`")?;
                let negative = matches!(self.peek(), Some(Tok::Minus));
                if negative {
                    self.pos += 1;
                }
                let v = match self.peek() {
                    Some(Tok::Int(v)) => {
                        let v = *v;
                        self.pos += 1;
                        v
                    }
                    other => {
                        return Err(self.err(format!(
                            "parameter value must be an integer literal, found {other:?}"
                        )))
                    }
                };
                self.expect_newline()?;
                consts.push((name, if negative { -v } else { v }, cline));
            } else {
                decls.push(self.decl()?);
            }
            self.skip_newlines();
        }
        let body = self.stmts(&["end"])?;
        self.expect_kw("end")?;
        self.expect_newline()?;
        Ok(Unit {
            kind,
            name,
            params,
            consts,
            decls,
            body,
            line,
        })
    }

    fn decl(&mut self) -> Result<Decl, CompileError> {
        let line = self.line();
        let ty = if self.eat_kw("integer") {
            TypeName::Integer
        } else {
            self.expect_kw("real")?;
            TypeName::Real
        };
        let mut items = Vec::new();
        loop {
            let name = self.ident("declared name")?;
            if matches!(self.peek(), Some(Tok::LParen)) {
                self.pos += 1;
                let mut dims = Vec::new();
                loop {
                    let first = self.expr()?;
                    if matches!(self.peek(), Some(Tok::Colon)) {
                        self.pos += 1;
                        let hi = self.expr()?;
                        dims.push((first, hi));
                    } else {
                        dims.push((Expr::Int(1), first));
                    }
                    if !matches!(self.peek(), Some(Tok::Comma)) {
                        break;
                    }
                    self.pos += 1;
                }
                self.expect(&Tok::RParen, "`)`")?;
                items.push(DeclItem::Array(name, dims));
            } else {
                items.push(DeclItem::Scalar(name));
            }
            if !matches!(self.peek(), Some(Tok::Comma)) {
                break;
            }
            self.pos += 1;
        }
        self.expect_newline()?;
        Ok(Decl { ty, items, line })
    }

    /// Parses a nested statement block up to one of the stopper keywords.
    fn block(&mut self, stoppers: &[&str]) -> Result<Vec<Stmt>, CompileError> {
        if self.blocks == MAX_NESTING {
            return Err(self.err(format!(
                "statement blocks nested more than {MAX_NESTING} deep"
            )));
        }
        self.blocks += 1;
        let body = self.stmts(stoppers)?;
        self.blocks -= 1;
        Ok(body)
    }

    /// Enters one more level of expression nesting.
    fn deeper(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("expression nested more than {MAX_NESTING} deep")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses statements until one of the stopper keywords (not consumed).
    fn stmts(&mut self, stoppers: &[&str]) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            if self.at_end() {
                return Err(self.err(format!("unexpected end of file, expected {stoppers:?}")));
            }
            if stoppers.iter().any(|s| self.at_kw(s)) {
                return Ok(out);
            }
            out.push(self.stmt()?);
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        if self.eat_kw("do") {
            let var = self.ident("loop variable")?;
            self.expect(&Tok::Assign, "`=`")?;
            let lo = self.expr()?;
            self.expect(&Tok::Comma, "`,`")?;
            let hi = self.expr()?;
            let step = if matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_newline()?;
            let body = self.block(&["enddo"])?;
            self.expect_kw("enddo")?;
            self.expect_newline()?;
            return Ok(Stmt::Do {
                var,
                lo,
                hi,
                step,
                body,
                line,
            });
        }
        if self.eat_kw("while") {
            self.expect(&Tok::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen, "`)`")?;
            self.expect_newline()?;
            let body = self.block(&["endwhile"])?;
            self.expect_kw("endwhile")?;
            self.expect_newline()?;
            return Ok(Stmt::While { cond, body, line });
        }
        if self.eat_kw("if") {
            self.expect(&Tok::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen, "`)`")?;
            self.expect_kw("then")?;
            self.expect_newline()?;
            let then_body = self.block(&["else", "endif"])?;
            let else_body = if self.eat_kw("else") {
                self.expect_newline()?;
                self.block(&["endif"])?
            } else {
                Vec::new()
            };
            self.expect_kw("endif")?;
            self.expect_newline()?;
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            });
        }
        if self.eat_kw("call") {
            let name = self.ident("subroutine name")?;
            self.expect(&Tok::LParen, "`(`")?;
            let mut args = Vec::new();
            if !matches!(self.peek(), Some(Tok::RParen)) {
                loop {
                    args.push(self.expr()?);
                    if !matches!(self.peek(), Some(Tok::Comma)) {
                        break;
                    }
                    self.pos += 1;
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
            self.expect_newline()?;
            return Ok(Stmt::Call { name, args, line });
        }
        if self.eat_kw("label") {
            let name = self.ident("label name")?;
            self.expect_newline()?;
            return Ok(Stmt::Label { name, line });
        }
        if self.eat_kw("goto") {
            let name = self.ident("label name")?;
            self.expect_newline()?;
            return Ok(Stmt::Goto { name, line });
        }
        if self.eat_kw("exit") {
            self.expect_newline()?;
            return Ok(Stmt::Exit { line });
        }
        if self.eat_kw("cycle") {
            self.expect_newline()?;
            return Ok(Stmt::Cycle { line });
        }
        if self.eat_kw("print") {
            let value = self.expr()?;
            self.expect_newline()?;
            return Ok(Stmt::Print { value, line });
        }
        // assignment
        let name = self.ident("statement")?;
        let target = if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let mut subs = Vec::new();
            loop {
                subs.push(self.expr()?);
                if !matches!(self.peek(), Some(Tok::Comma)) {
                    break;
                }
                self.pos += 1;
            }
            self.expect(&Tok::RParen, "`)`")?;
            LValue::Elem(name, subs)
        } else {
            LValue::Var(name)
        };
        self.expect(&Tok::Assign, "`=`")?;
        let value = self.expr()?;
        self.expect_newline()?;
        Ok(Stmt::Assign {
            target,
            value,
            line,
        })
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        self.chain(Self::and_expr, |p| p.at_kw("or").then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        self.chain(Self::not_expr, |p| p.at_kw("and").then_some(BinOp::And))
    }

    /// Parses `operand (op operand)*` left-associatively; `op` names the
    /// operator at the current token, if any. Each operator nests the
    /// tree one level deeper.
    fn chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<Expr, CompileError>,
        op: impl Fn(&Self) -> Option<BinOp>,
    ) -> Result<Expr, CompileError> {
        let depth = self.depth;
        let mut e = operand(self)?;
        while let Some(op) = op(self) {
            self.pos += 1;
            self.deeper()?;
            let r = operand(self)?;
            e = Expr::bin(op, e, r);
        }
        self.depth = depth;
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, CompileError> {
        if self.eat_kw("not") {
            self.deeper()?;
            let e = self.not_expr()?;
            self.depth -= 1;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        self.rel_expr()
    }

    fn rel_expr(&mut self) -> Result<Expr, CompileError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            _ => return Ok(e),
        };
        self.pos += 1;
        let r = self.add_expr()?;
        Ok(Expr::bin(op, e, r))
    }

    fn add_expr(&mut self) -> Result<Expr, CompileError> {
        self.chain(Self::mul_expr, |p| match p.peek() {
            Some(Tok::Plus) => Some(BinOp::Add),
            Some(Tok::Minus) => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<Expr, CompileError> {
        self.chain(Self::unary_expr, |p| match p.peek() {
            Some(Tok::Star) => Some(BinOp::Mul),
            Some(Tok::Slash) => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, CompileError> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.pos += 1;
            self.deeper()?;
            let e = self.unary_expr()?;
            self.depth -= 1;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(Expr::Int(v))
            }
            Some(Tok::Real(v)) => {
                self.pos += 1;
                Ok(Expr::Real(v))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.deeper()?;
                let e = self.expr()?;
                self.depth -= 1;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                // intrinsics parse like calls; plain keywords are errors here
                let intrinsic = matches!(name.as_str(), "min" | "max" | "mod");
                if is_keyword(&name) && !intrinsic {
                    return Err(self.err(format!("unexpected keyword `{name}` in expression")));
                }
                self.pos += 1;
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.pos += 1;
                    self.deeper()?;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Tok::RParen)) {
                        loop {
                            args.push(self.expr()?);
                            if !matches!(self.peek(), Some(Tok::Comma)) {
                                break;
                            }
                            self.pos += 1;
                        }
                    }
                    self.depth -= 1;
                    self.expect(&Tok::RParen, "`)`")?;
                    Ok(Expr::Elem(name, args))
                } else if intrinsic {
                    Err(self.err(format!("intrinsic `{name}` requires arguments")))
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Reserved words that cannot be used as identifiers.
pub fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "program"
            | "subroutine"
            | "end"
            | "integer"
            | "real"
            | "do"
            | "enddo"
            | "while"
            | "endwhile"
            | "if"
            | "then"
            | "else"
            | "endif"
            | "call"
            | "print"
            | "exit"
            | "cycle"
            | "label"
            | "goto"
            | "parameter"
            | "and"
            | "or"
            | "not"
            | "min"
            | "max"
            | "mod"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> SourceFile {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_program_with_decls() {
        let f = parse_src("program p\n integer i, j\n real a(1:10), b(5)\n i = 1\nend\n");
        assert_eq!(f.units.len(), 1);
        let u = &f.units[0];
        assert_eq!(u.kind, UnitKind::Program);
        assert_eq!(u.decls.len(), 2);
        match &u.decls[1].items[1] {
            DeclItem::Array(name, dims) => {
                assert_eq!(name, "b");
                assert_eq!(dims[0], (Expr::Int(1), Expr::Int(5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_do_loop_with_step() {
        let f = parse_src("program p\n integer i\n do i = 1, 10, 2\n i = i\n enddo\nend\n");
        match &f.units[0].body[0] {
            Stmt::Do {
                var, step, body, ..
            } => {
                assert_eq!(var, "i");
                assert!(step.is_some());
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_and_while() {
        let f = parse_src(
            "program p\n integer i\n while (i < 10)\n if (i == 3) then\n i = 4\n else\n i = i + 1\n endif\n endwhile\nend\n",
        );
        match &f.units[0].body[0] {
            Stmt::While { body, .. } => match &body[0] {
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    assert_eq!(then_body.len(), 1);
                    assert_eq!(else_body.len(), 1);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_subroutine_and_call() {
        let f = parse_src(
            "subroutine s(x, a)\n integer x\n integer a(1:10)\n a(x) = 0\nend\nprogram p\n integer a(1:10)\n call s(3, a)\nend\n",
        );
        assert_eq!(f.units.len(), 2);
        assert_eq!(f.units[0].params, vec!["x", "a"]);
        match &f.units[1].body[0] {
            Stmt::Call { name, args, .. } => {
                assert_eq!(name, "s");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence() {
        let f = parse_src("program p\n integer x\n x = 1 + 2 * 3\nend\n");
        match &f.units[0].body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Bin(BinOp::Add, _, r) => {
                    assert!(matches!(**r, Expr::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn min_requires_args() {
        let r = parse(&lex("program p\n integer x\n x = min\nend\n").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn missing_enddo_is_error() {
        let r = parse(&lex("program p\n integer i\n do i = 1, 3\n i = i\nend\n").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn keyword_as_identifier_is_error() {
        let r = parse(&lex("program do\nend\n").unwrap());
        assert!(r.is_err());
    }
}
