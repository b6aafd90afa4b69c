//! Recursive-descent parser: tokens → [`Program`].

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Expr, Program, Stmt, Unit};
use crate::lexer::{lex, Tok};

const INTRINSICS: &[&str] = &["mod", "min", "max", "abs", "sqrt", "int", "dble"];

pub fn parse(src: &str) -> Result<Program, String> {
    let toks = lex(src)?;
    Parser {
        toks,
        pos: 0,
        shared: BTreeSet::new(),
    }
    .program()
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    shared: BTreeSet<String>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_newlines(&mut self) {
        loop {
            match self.peek() {
                Some(Tok::Newline) => {
                    self.pos += 1;
                }
                Some(Tok::SharedDirective(names)) => {
                    let names = names.clone();
                    self.shared.extend(names);
                    self.pos += 1;
                }
                _ => break,
            }
        }
    }

    fn expect_newline(&mut self) -> Result<(), String> {
        match self.next() {
            Some(Tok::Newline) | None => Ok(()),
            Some(t) => Err(format!("expected end of statement, found '{t}'")),
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), String> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(format!("expected '{want}', found '{t}'")),
            None => Err(format!("expected '{want}', found end of input")),
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(format!("expected identifier, found '{t}'")),
            None => Err("expected identifier, found end of input".into()),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    // ---- grammar ----

    fn program(mut self) -> Result<Program, String> {
        let mut units = Vec::new();
        self.eat_newlines();
        while self.peek().is_some() {
            units.push(self.unit()?);
            self.eat_newlines();
        }
        if units.is_empty() {
            return Err("no program units found".into());
        }
        // Directives are file-scoped.
        for u in &mut units {
            u.shared = self.shared.clone();
        }
        Ok(Program { units })
    }

    fn unit(&mut self) -> Result<Unit, String> {
        self.eat_newlines();
        let kw = self.ident()?;
        let is_program = match kw.as_str() {
            "program" => true,
            "subroutine" => false,
            other => return Err(format!("expected PROGRAM or SUBROUTINE, found '{other}'")),
        };
        let name = self.ident()?;
        // Optional empty parameter list on subroutines.
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.expect(&Tok::LParen)?;
            self.expect(&Tok::RParen)?;
        }
        self.expect_newline()?;

        let mut dims = BTreeMap::new();
        let body = self.stmt_block(&mut dims, &["end"])?;
        // consume END
        let end = self.ident()?;
        debug_assert_eq!(end, "end");
        self.expect_newline()?;
        Ok(Unit {
            is_program,
            name,
            body,
            shared: BTreeSet::new(),
            dims,
        })
    }

    /// Parse statements until one of `terminators` appears as the leading
    /// keyword of a line (the terminator is left unconsumed).
    fn stmt_block(
        &mut self,
        dims: &mut BTreeMap<String, Vec<Expr>>,
        terminators: &[&str],
    ) -> Result<Vec<Stmt>, String> {
        let mut out = Vec::new();
        loop {
            self.eat_newlines();
            match self.peek() {
                None => return Err(format!("unterminated block; expected {terminators:?}")),
                Some(Tok::Ident(s)) if terminators.contains(&s.as_str()) => return Ok(out),
                Some(_) => {
                    if let Some(stmt) = self.statement(dims)? {
                        out.push(stmt);
                    }
                }
            }
        }
    }

    fn statement(
        &mut self,
        dims: &mut BTreeMap<String, Vec<Expr>>,
    ) -> Result<Option<Stmt>, String> {
        if self.at_keyword("dimension") {
            self.ident()?;
            loop {
                let name = self.ident()?;
                self.expect(&Tok::LParen)?;
                let mut extents = vec![self.expr()?];
                while matches!(self.peek(), Some(Tok::Comma)) {
                    self.expect(&Tok::Comma)?;
                    extents.push(self.expr()?);
                }
                self.expect(&Tok::RParen)?;
                dims.insert(name, extents);
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.expect(&Tok::Comma)?;
                } else {
                    break;
                }
            }
            self.expect_newline()?;
            return Ok(None);
        }
        if self.at_keyword("do") {
            return Ok(Some(self.do_stmt(dims)?));
        }
        if self.at_keyword("if") {
            return Ok(Some(self.if_stmt(dims)?));
        }
        if self.at_keyword("call") {
            self.ident()?;
            let name = self.ident()?;
            let mut args = Vec::new();
            if matches!(self.peek(), Some(Tok::LParen)) {
                self.expect(&Tok::LParen)?;
                if !matches!(self.peek(), Some(Tok::RParen)) {
                    args.push(self.expr()?);
                    while matches!(self.peek(), Some(Tok::Comma)) {
                        self.expect(&Tok::Comma)?;
                        args.push(self.expr()?);
                    }
                }
                self.expect(&Tok::RParen)?;
            }
            self.expect_newline()?;
            return Ok(Some(Stmt::Call { name, args }));
        }
        // Assignment: lhs = rhs
        let lhs = self.designator()?;
        self.expect(&Tok::Assign)?;
        let rhs = self.expr()?;
        self.expect_newline()?;
        Ok(Some(Stmt::Assign { lhs, rhs }))
    }

    fn do_stmt(&mut self, dims: &mut BTreeMap<String, Vec<Expr>>) -> Result<Stmt, String> {
        self.ident()?; // do
        let var = self.ident()?;
        self.expect(&Tok::Assign)?;
        let lo = self.expr()?;
        self.expect(&Tok::Comma)?;
        let hi = self.expr()?;
        let step = if matches!(self.peek(), Some(Tok::Comma)) {
            self.expect(&Tok::Comma)?;
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_newline()?;
        let body = self.stmt_block(dims, &["enddo"])?;
        self.ident()?; // enddo
        self.expect_newline()?;
        Ok(Stmt::Do {
            var,
            lo,
            hi,
            step,
            body,
        })
    }

    fn if_stmt(&mut self, dims: &mut BTreeMap<String, Vec<Expr>>) -> Result<Stmt, String> {
        self.ident()?; // if
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_kw = self.ident()?;
        if then_kw != "then" {
            return Err(format!("expected THEN, found '{then_kw}'"));
        }
        self.expect_newline()?;
        let then_body = self.stmt_block(dims, &["endif", "else"])?;
        let mut else_body = Vec::new();
        if self.at_keyword("else") {
            self.ident()?;
            self.expect_newline()?;
            else_body = self.stmt_block(dims, &["endif"])?;
        }
        self.ident()?; // endif
        self.expect_newline()?;
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// A variable or array reference (assignment target).
    fn designator(&mut self) -> Result<Expr, String> {
        let name = self.ident()?;
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.expect(&Tok::LParen)?;
            let mut subs = vec![self.expr()?];
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.expect(&Tok::Comma)?;
                subs.push(self.expr()?);
            }
            self.expect(&Tok::RParen)?;
            Ok(Expr::ArrayRef(name, subs))
        } else {
            Ok(Expr::Var(name))
        }
    }

    // Precedence: relational < add/sub < mul/div < unary.
    fn expr(&mut self) -> Result<Expr, String> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.additive()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn additive(&mut self) -> Result<Expr, String> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.multiplicative()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, String> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.next();
            let rhs = self.unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, String> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.next();
                Ok(Expr::Neg(Box::new(self.unary()?)))
            }
            Some(Tok::Plus) => {
                self.next();
                self.unary()
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr, String> {
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Real(v)) => Ok(Expr::Real(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.expect(&Tok::LParen)?;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Tok::RParen)) {
                        args.push(self.expr()?);
                        while matches!(self.peek(), Some(Tok::Comma)) {
                            self.expect(&Tok::Comma)?;
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    if INTRINSICS.contains(&name.as_str()) {
                        Ok(Expr::Intrinsic(name, args))
                    } else {
                        Ok(Expr::ArrayRef(name, args))
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(t) => Err(format!("unexpected '{t}' in expression")),
            None => Err("unexpected end of input in expression".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_structure() {
        let p = parse(crate::fixtures::MOLDYN_SOURCE).unwrap();
        assert_eq!(p.units.len(), 2);
        let main = &p.units[0];
        assert!(main.is_program);
        assert_eq!(main.name, "moldyn");
        assert!(main.shared.contains("x"));
        assert!(main.shared.contains("forces"));
        let cf = p.unit("ComputeForces").unwrap();
        assert_eq!(cf.body.len(), 1);
        match &cf.body[0] {
            Stmt::Do { var, body, .. } => {
                assert_eq!(var, "i");
                assert_eq!(body.len(), 5);
            }
            other => panic!("expected DO, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_with_mod() {
        let src = "PROGRAM t\nIF (mod(step, 20) .eq. 0) THEN\ncall foo()\nENDIF\nEND\n";
        let p = parse(src).unwrap();
        match &p.units[0].body[0] {
            Stmt::If {
                cond, then_body, ..
            } => {
                assert!(matches!(cond, Expr::Bin(BinOp::Eq, _, _)));
                assert_eq!(then_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_dimension() {
        let src = "PROGRAM t\nDIMENSION x(n), il(2, m)\nx(1) = 0\nEND\n";
        let p = parse(src).unwrap();
        let u = &p.units[0];
        assert_eq!(u.dims["x"], vec![Expr::Var("n".into())]);
        assert_eq!(u.dims["il"].len(), 2);
    }

    #[test]
    fn operator_precedence() {
        let src = "PROGRAM t\na = 1 + 2 * 3 - x(i) / 2\nEND\n";
        let p = parse(src).unwrap();
        match &p.units[0].body[0] {
            Stmt::Assign { rhs, .. } => {
                // ((1 + (2*3)) - (x(i)/2))
                match rhs {
                    Expr::Bin(BinOp::Sub, l, r) => {
                        assert!(matches!(**l, Expr::Bin(BinOp::Add, _, _)));
                        assert!(matches!(**r, Expr::Bin(BinOp::Div, _, _)));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_do_loops() {
        let src = "PROGRAM t\nDO i = 1, n\nDO k = first(i), last(i)\na(k) = a(k) + 1\nENDDO\nENDDO\nEND\n";
        let p = parse(src).unwrap();
        match &p.units[0].body[0] {
            Stmt::Do { body, .. } => assert!(matches!(body[0], Stmt::Do { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_messages() {
        assert!(parse("SUBROUTINE\n").is_err());
        assert!(parse("PROGRAM t\nDO i = 1, n\nEND\n").is_err()); // missing ENDDO
        assert!(parse("PROGRAM t\nIF (x .eq. 1)\nENDIF\nEND\n").is_err()); // missing THEN
    }
}
