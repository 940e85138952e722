//! The parser: layout-processed tokens → surface AST.
//!
//! A hand-written recursive-descent parser with precedence climbing for
//! operators. The grammar is a pragmatic subset of Haskell 98, large enough
//! to transcribe every program in the paper: `data` declarations, optional
//! type signatures, multi-equation function definitions with nested
//! patterns and guards, `where`, `let`/`in`, `case`/`of`, `if`/`then`/
//! `else`, lambdas, `do`-notation, lists, tuples, strings, and arithmetic
//! sequences `[a .. b]`.

use crate::ast::*;
use crate::layout::layout;
use crate::lexer::lex;
use crate::token::{Pos, Spanned, Tok};
use crate::{Known, Symbol};
use std::fmt;

/// A parse error with its source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    pub pos: Pos,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Any front-end error: lexing, layout, or parsing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SyntaxError {
    Lex(crate::lexer::LexError),
    Layout(crate::layout::LayoutError),
    Parse(ParseError),
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxError::Lex(e) => e.fmt(f),
            SyntaxError::Layout(e) => e.fmt(f),
            SyntaxError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SyntaxError {}

impl From<crate::lexer::LexError> for SyntaxError {
    fn from(e: crate::lexer::LexError) -> Self {
        SyntaxError::Lex(e)
    }
}
impl From<crate::layout::LayoutError> for SyntaxError {
    fn from(e: crate::layout::LayoutError) -> Self {
        SyntaxError::Layout(e)
    }
}
impl From<ParseError> for SyntaxError {
    fn from(e: ParseError) -> Self {
        SyntaxError::Parse(e)
    }
}

/// Parses a whole module.
///
/// # Errors
///
/// Returns the first front-end error encountered.
///
/// # Examples
///
/// ```
/// let src = "double x = x + x";
/// let prog = urk_syntax::parse_program(src)?;
/// assert_eq!(prog.decls.len(), 1);
/// # Ok::<(), urk_syntax::SyntaxError>(())
/// ```
pub fn parse_program(src: &str) -> Result<SurfaceProgram, SyntaxError> {
    let toks = layout(lex(src)?)?;
    let mut p = Parser::new(toks);
    let prog = p.program()?;
    Ok(prog)
}

/// Parses a single expression (for REPLs and tests).
///
/// # Errors
///
/// Returns the first front-end error encountered, including trailing junk
/// after the expression.
pub fn parse_expr_src(src: &str) -> Result<SExpr, SyntaxError> {
    let toks = layout(lex(src)?)?;
    let mut p = Parser::new(toks);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Parser {
        Parser { toks, pos: 0 }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.toks[self.pos.min(self.toks.len() - 1)].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos: self.here(),
            message: message.into(),
        })
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected '{}', found '{}'", t, self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        // A trailing virtual semicolon (from a final newline) is harmless.
        while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
            self.bump();
        }
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of input, found '{}'", self.peek()))
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_op(&self, name: Known) -> bool {
        matches!(self.peek(), Tok::Op(s, _) if name.is(*s))
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<SurfaceProgram, ParseError> {
        let mut decls = Vec::new();
        loop {
            while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
                self.bump();
            }
            if *self.peek() == Tok::Eof {
                break;
            }
            decls.push(self.decl()?);
            match self.peek() {
                Tok::VSemi | Tok::Semi | Tok::Eof => {}
                other => return self.err(format!("expected end of declaration, found '{other}'")),
            }
        }
        Ok(SurfaceProgram { decls })
    }

    fn decl(&mut self) -> Result<Decl, ParseError> {
        match self.peek() {
            Tok::Data => self.data_decl().map(Decl::Data),
            Tok::Lower(_) => {
                if *self.peek_at(1) == Tok::DoubleColon {
                    let Tok::Lower(name) = self.bump() else {
                        unreachable!()
                    };
                    self.bump(); // ::
                    let ty = self.ty()?;
                    Ok(Decl::Sig(name, ty))
                } else {
                    self.fun_clause().map(Decl::Bind)
                }
            }
            other => self.err(format!("expected a declaration, found '{other}'")),
        }
    }

    fn data_decl(&mut self) -> Result<DataDecl, ParseError> {
        let pos = self.here();
        self.expect(Tok::Data)?;
        let name = self.upper_name("type constructor")?;
        let mut params = Vec::new();
        while let Tok::Lower(v) = self.peek() {
            params.push(*v);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let mut constructors = vec![self.con_decl()?];
        while *self.peek() == Tok::Pipe {
            self.bump();
            constructors.push(self.con_decl()?);
        }
        Ok(DataDecl {
            name,
            params,
            constructors,
            pos,
        })
    }

    fn con_decl(&mut self) -> Result<ConDecl, ParseError> {
        let name = self.upper_name("data constructor")?;
        let mut args = Vec::new();
        while self.starts_atype() {
            args.push(self.atype()?);
        }
        Ok(ConDecl { name, args })
    }

    fn upper_name(&mut self, what: &str) -> Result<Symbol, ParseError> {
        match self.peek() {
            Tok::Upper(s) => {
                let s = *s;
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found '{other}'")),
        }
    }

    fn fun_clause(&mut self) -> Result<Clause, ParseError> {
        let pos = self.here();
        let Tok::Lower(name) = self.bump() else {
            return self.err("expected a function name");
        };
        let mut pats = Vec::new();
        while self.starts_apat() {
            pats.push(self.apat()?);
        }
        let rhs = self.rhs(Tok::Equals)?;
        let wheres = self.where_block()?;
        Ok(Clause {
            name,
            pats,
            rhs,
            wheres,
            pos,
        })
    }

    fn rhs(&mut self, intro: Tok) -> Result<Rhs, ParseError> {
        if *self.peek() == Tok::Pipe {
            let mut guards = Vec::new();
            while *self.peek() == Tok::Pipe {
                self.bump();
                let g = self.expr()?;
                self.expect(intro.clone())?;
                let e = self.expr()?;
                guards.push((g, e));
            }
            Ok(Rhs::Guarded(guards))
        } else {
            self.expect(intro)?;
            Ok(Rhs::Plain(self.expr()?))
        }
    }

    fn where_block(&mut self) -> Result<Vec<Decl>, ParseError> {
        if *self.peek() != Tok::Where {
            return Ok(Vec::new());
        }
        self.bump();
        self.block(|p| p.decl())
    }

    /// Parses `{ item ; item ; ... }` with either explicit or virtual
    /// delimiters.
    fn block<T>(
        &mut self,
        mut item: impl FnMut(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let explicit = match self.bump() {
            Tok::LBrace => true,
            Tok::VLBrace => false,
            other => return self.err(format!("expected a block, found '{other}'")),
        };
        let close = if explicit { Tok::RBrace } else { Tok::VRBrace };
        let mut items = Vec::new();
        loop {
            while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
                self.bump();
            }
            if *self.peek() == close {
                self.bump();
                return Ok(items);
            }
            items.push(item(self)?);
            match self.peek() {
                Tok::VSemi | Tok::Semi => {}
                t if *t == close => {}
                other => return self.err(format!("expected ';' or end of block, found '{other}'")),
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn ty(&mut self) -> Result<SType, ParseError> {
        let lhs = self.btype()?;
        if *self.peek() == Tok::Arrow {
            self.bump();
            let rhs = self.ty()?;
            Ok(SType::Fun(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn btype(&mut self) -> Result<SType, ParseError> {
        if let Tok::Upper(name) = self.peek() {
            let name = *name;
            self.bump();
            let mut args = Vec::new();
            while self.starts_atype() {
                args.push(self.atype()?);
            }
            Ok(SType::Con(name, args))
        } else {
            self.atype()
        }
    }

    fn starts_atype(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Upper(_) | Tok::Lower(_) | Tok::LParen | Tok::LBracket
        )
    }

    fn atype(&mut self) -> Result<SType, ParseError> {
        match self.peek().clone() {
            Tok::Upper(name) => {
                self.bump();
                Ok(SType::Con(name, vec![]))
            }
            Tok::Lower(name) => {
                self.bump();
                Ok(SType::Var(name))
            }
            Tok::LBracket => {
                self.bump();
                let inner = self.ty()?;
                self.expect(Tok::RBracket)?;
                Ok(SType::List(Box::new(inner)))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(SType::Con(Known::Unit.symbol(), vec![]));
                }
                let first = self.ty()?;
                if self.eat(&Tok::Comma) {
                    let mut items = vec![first, self.ty()?];
                    while self.eat(&Tok::Comma) {
                        items.push(self.ty()?);
                    }
                    self.expect(Tok::RParen)?;
                    if items.len() > 3 {
                        return self.err("tuples are limited to 3 components");
                    }
                    Ok(SType::Tuple(items))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            other => self.err(format!("expected a type, found '{other}'")),
        }
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    fn starts_apat(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Lower(_)
                | Tok::Upper(_)
                | Tok::Underscore
                | Tok::Int(_)
                | Tok::Char(_)
                | Tok::Str(_)
                | Tok::LParen
                | Tok::LBracket
        )
    }

    /// A full pattern: constructor applications and infix cons.
    fn pat(&mut self) -> Result<Pat, ParseError> {
        let head = self.pat10()?;
        if self.is_op(Known::Colon) {
            self.bump();
            let tail = self.pat()?;
            Ok(Pat::ConsInfix(Box::new(head), Box::new(tail)))
        } else {
            Ok(head)
        }
    }

    fn pat10(&mut self) -> Result<Pat, ParseError> {
        if let Tok::Upper(name) = self.peek() {
            let name = *name;
            self.bump();
            let mut args = Vec::new();
            while self.starts_apat() {
                args.push(self.apat()?);
            }
            Ok(Pat::Con(name, args))
        } else {
            self.apat()
        }
    }

    fn apat(&mut self) -> Result<Pat, ParseError> {
        match self.peek().clone() {
            Tok::Lower(v) => {
                self.bump();
                Ok(Pat::Var(v))
            }
            Tok::Underscore => {
                self.bump();
                Ok(Pat::Wild)
            }
            Tok::Int(n) => {
                self.bump();
                Ok(Pat::Int(n))
            }
            Tok::Char(c) => {
                self.bump();
                Ok(Pat::Char(c))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Pat::Str(s))
            }
            Tok::Op(o, _) if Known::Minus.is(o) && matches!(self.peek_at(1), Tok::Int(_)) => {
                self.bump();
                let Tok::Int(n) = self.bump() else {
                    unreachable!()
                };
                Ok(Pat::Int(-n))
            }
            Tok::Upper(name) => {
                self.bump();
                Ok(Pat::Con(name, vec![]))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(Pat::Con(Known::Unit.symbol(), vec![]));
                }
                let first = self.pat()?;
                if self.eat(&Tok::Comma) {
                    let mut items = vec![first, self.pat()?];
                    while self.eat(&Tok::Comma) {
                        items.push(self.pat()?);
                    }
                    self.expect(Tok::RParen)?;
                    if items.len() > 3 {
                        return self.err("tuples are limited to 3 components");
                    }
                    Ok(Pat::Tuple(items))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket) {
                    items.push(self.pat()?);
                    while self.eat(&Tok::Comma) {
                        items.push(self.pat()?);
                    }
                    self.expect(Tok::RBracket)?;
                }
                Ok(Pat::List(items))
            }
            other => self.err(format!("expected a pattern, found '{other}'")),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<SExpr, ParseError> {
        self.op_expr(0)
    }

    /// Precedence climbing over the fixity table.
    fn op_expr(&mut self, min_prec: u8) -> Result<SExpr, ParseError> {
        let lhs = self.unary()?;
        self.op_rest(lhs, min_prec)
    }

    /// The operator loop of [`Parser::op_expr`] over an already parsed
    /// left operand.
    fn op_rest(&mut self, mut lhs: SExpr, min_prec: u8) -> Result<SExpr, ParseError> {
        loop {
            let (op, prec, right) = match self.peek() {
                Tok::Op(s, Some(f)) => (*s, f.prec, f.right),
                // Unknown operators (such as `..` inside a range, or a
                // genuine typo) end the expression; the caller reports
                // trailing junk if it was a typo.
                Tok::Op(_, None) => break,
                Tok::Backtick => {
                    // `f` infix application, tighter than everything except
                    // ordinary application.
                    let Tok::Lower(f) = self.peek_at(1).clone() else {
                        return self.err("expected a function name after '`'");
                    };
                    (f, 9, false)
                }
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            if let Tok::Backtick = self.peek() {
                self.bump(); // `
                self.bump(); // name
                self.expect(Tok::Backtick)?;
            } else {
                self.bump();
            }
            let next_min = if right { prec } else { prec + 1 };
            let rhs = self.op_expr(next_min)?;
            lhs = SExpr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<SExpr, ParseError> {
        if self.is_op(Known::Minus) {
            self.bump();
            let e = self.unary()?;
            return Ok(SExpr::Neg(Box::new(e)));
        }
        self.app_expr()
    }

    fn app_expr(&mut self) -> Result<SExpr, ParseError> {
        let mut e = self.atom()?;
        while self.starts_atom() {
            let arg = self.atom()?;
            e = SExpr::App(Box::new(e), Box::new(arg));
        }
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Lower(_)
                | Tok::Upper(_)
                | Tok::Int(_)
                | Tok::Char(_)
                | Tok::Str(_)
                | Tok::LParen
                | Tok::LBracket
                | Tok::Backslash
                | Tok::Let
                | Tok::Case
                | Tok::If
                | Tok::Do
        )
    }

    fn atom(&mut self) -> Result<SExpr, ParseError> {
        match self.peek().clone() {
            Tok::Lower(v) => {
                self.bump();
                Ok(SExpr::Var(v))
            }
            Tok::Upper(c) => {
                self.bump();
                Ok(SExpr::Con(c))
            }
            Tok::Int(n) => {
                self.bump();
                Ok(SExpr::Int(n))
            }
            Tok::Char(c) => {
                self.bump();
                Ok(SExpr::Char(c))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(SExpr::Str(s))
            }
            Tok::Backslash => {
                self.bump();
                let mut pats = vec![self.apat()?];
                while self.starts_apat() {
                    pats.push(self.apat()?);
                }
                self.expect(Tok::Arrow)?;
                let body = self.expr()?;
                Ok(SExpr::Lam(pats, Box::new(body)))
            }
            Tok::Let => {
                self.bump();
                let decls = self.block(|p| p.decl())?;
                self.expect(Tok::In)?;
                let body = self.expr()?;
                Ok(SExpr::Let(decls, Box::new(body)))
            }
            Tok::Case => {
                self.bump();
                let scrut = self.expr()?;
                self.expect(Tok::Of)?;
                let alts = self.block(|p| p.case_alt())?;
                Ok(SExpr::Case(Box::new(scrut), alts))
            }
            Tok::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let e = self.expr()?;
                Ok(SExpr::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            Tok::Do => {
                self.bump();
                let stmts = self.block(|p| p.stmt())?;
                if stmts.is_empty() {
                    return self.err("empty 'do' block");
                }
                Ok(SExpr::Do(stmts))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(SExpr::Con(Known::Unit.symbol()));
                }
                // `(+)` — an operator as a value; `(op e)` — a right
                // section (except unary minus, which stays negation).
                if let Tok::Op(o, Some(_)) = *self.peek() {
                    if *self.peek_at(1) == Tok::RParen {
                        self.bump();
                        self.bump();
                        return Ok(SExpr::OpSection(o));
                    }
                    if !Known::Minus.is(o) {
                        self.bump();
                        let e = self.expr()?;
                        self.expect(Tok::RParen)?;
                        return Ok(SExpr::SectionR(o, Box::new(e)));
                    }
                }
                // `(e op)` — a left section; the lhs is an application
                // spine (operator-free). Otherwise the spine already parsed
                // is the first operand of the parenthesised expression, so
                // each token is parsed once.
                let first = if self.starts_atom() {
                    let lhs = self.app_expr()?;
                    if let Tok::Op(o, Some(_)) = *self.peek() {
                        if *self.peek_at(1) == Tok::RParen {
                            self.bump();
                            self.bump();
                            return Ok(SExpr::SectionL(Box::new(lhs), o));
                        }
                    }
                    self.op_rest(lhs, 0)?
                } else {
                    self.expr()?
                };
                if self.eat(&Tok::Comma) {
                    let mut items = vec![first, self.expr()?];
                    while self.eat(&Tok::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(Tok::RParen)?;
                    if items.len() > 3 {
                        return self.err("tuples are limited to 3 components");
                    }
                    Ok(SExpr::Tuple(items))
                } else {
                    self.expect(Tok::RParen)?;
                    Ok(first)
                }
            }
            Tok::LBracket => {
                self.bump();
                if self.eat(&Tok::RBracket) {
                    return Ok(SExpr::List(vec![]));
                }
                let first = self.expr()?;
                if self.is_op(Known::DotDot) {
                    self.bump();
                    let hi = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    return Ok(SExpr::apps(
                        SExpr::Var(Known::EnumFromTo.symbol()),
                        vec![first, hi],
                    ));
                }
                let mut items = vec![first];
                while self.eat(&Tok::Comma) {
                    items.push(self.expr()?);
                }
                self.expect(Tok::RBracket)?;
                Ok(SExpr::List(items))
            }
            other => self.err(format!("expected an expression, found '{other}'")),
        }
    }

    fn case_alt(&mut self) -> Result<CaseAlt, ParseError> {
        let pat = self.pat()?;
        let rhs = self.rhs(Tok::Arrow)?;
        Ok(CaseAlt { pat, rhs })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if *self.peek() == Tok::Let {
            self.bump();
            let decls = self.block(|p| p.decl())?;
            if self.eat(&Tok::In) {
                let body = self.expr()?;
                return Ok(Stmt::Expr(SExpr::Let(decls, Box::new(body))));
            }
            return Ok(Stmt::Let(decls));
        }
        // Try `pat <- expr`, falling back to a bare expression.
        let save = self.pos;
        if self.starts_apat() {
            if let Ok(p) = self.pat() {
                if *self.peek() == Tok::BackArrow {
                    self.bump();
                    let e = self.expr()?;
                    return Ok(Stmt::Bind(p, e));
                }
            }
        }
        self.pos = save;
        Ok(Stmt::Expr(self.expr()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(src: &str) -> SExpr {
        parse_expr_src(src).expect("parses")
    }

    fn program(src: &str) -> SurfaceProgram {
        parse_program(src).expect("parses")
    }

    #[test]
    fn parses_the_paper_headline_expression() {
        let e = expr(r#"getException ((1/0) + error "Urk")"#);
        // getException applied to a BinOp "+".
        match e {
            SExpr::App(f, arg) => {
                assert_eq!(*f, SExpr::var("getException"));
                match *arg {
                    SExpr::BinOp(op, _, _) => assert_eq!(op.as_str(), "+"),
                    other => panic!("expected +, got {other:?}"),
                }
            }
            other => panic!("expected application, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_associativity() {
        // 1 + 2 * 3  ==>  1 + (2 * 3)
        match expr("1 + 2 * 3") {
            SExpr::BinOp(plus, l, r) => {
                assert_eq!(plus.as_str(), "+");
                assert_eq!(*l, SExpr::Int(1));
                assert!(matches!(*r, SExpr::BinOp(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
        // a - b - c  ==>  (a - b) - c (left assoc)
        match expr("a - b - c") {
            SExpr::BinOp(_, l, r) => {
                assert!(matches!(*l, SExpr::BinOp(_, _, _)));
                assert_eq!(*r, SExpr::var("c"));
            }
            other => panic!("{other:?}"),
        }
        // x : y : zs  ==>  x : (y : zs) (right assoc)
        match expr("x : y : zs") {
            SExpr::BinOp(_, l, r) => {
                assert_eq!(*l, SExpr::var("x"));
                assert!(matches!(*r, SExpr::BinOp(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn application_binds_tighter_than_operators() {
        // f x + g y  ==>  (f x) + (g y)
        match expr("f x + g y") {
            SExpr::BinOp(plus, l, r) => {
                assert_eq!(plus.as_str(), "+");
                assert!(matches!(*l, SExpr::App(_, _)));
                assert!(matches!(*r, SExpr::App(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lambda_and_unary_minus() {
        let e = expr(r"\x -> -x");
        match e {
            SExpr::Lam(ps, body) => {
                assert_eq!(ps, vec![Pat::Var(Symbol::intern("x"))]);
                assert!(matches!(*body, SExpr::Neg(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn case_with_nested_patterns_and_guards() {
        let e = expr("case xs of { Cons x rest | x > 0 -> x | otherwise -> 0; Nil -> -1 }");
        match e {
            SExpr::Case(_, alts) => {
                assert_eq!(alts.len(), 2);
                assert!(matches!(alts[0].rhs, Rhs::Guarded(ref gs) if gs.len() == 2));
                assert_eq!(alts[1].pat, Pat::Con(Symbol::intern("Nil"), vec![]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zip_with_from_the_paper_parses() {
        let src = "zipWith f [] [] = []\n\
                   zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
                   zipWith f xs ys = error \"Unequal lists\"";
        let p = program(src);
        assert_eq!(p.decls.len(), 3);
        let Decl::Bind(c) = &p.decls[1] else {
            panic!("expected a binding");
        };
        assert_eq!(c.pats.len(), 3);
        assert!(matches!(c.pats[1], Pat::ConsInfix(_, _)));
    }

    #[test]
    fn loop_with_where_from_the_paper_parses() {
        let src = "loop = f True\n  where f x = f (not x)";
        let p = program(src);
        let Decl::Bind(c) = &p.decls[0] else {
            panic!("expected a binding")
        };
        assert_eq!(c.wheres.len(), 1);
    }

    #[test]
    fn data_declarations() {
        let src = "data Tree a = Leaf | Node (Tree a) a (Tree a)";
        let p = program(src);
        let Decl::Data(d) = &p.decls[0] else {
            panic!("expected data")
        };
        assert_eq!(d.constructors.len(), 2);
        assert_eq!(d.constructors[1].args.len(), 3);
    }

    #[test]
    fn type_signatures() {
        let src = "f :: Int -> [Int] -> (Int, Bool)\nf x ys = (x, True)";
        let p = program(src);
        let Decl::Sig(name, ty) = &p.decls[0] else {
            panic!("expected sig")
        };
        assert_eq!(name.as_str(), "f");
        assert!(matches!(ty, SType::Fun(_, _)));
    }

    #[test]
    fn do_notation_with_binds() {
        let src = "main = do\n  c <- getChar\n  putChar c\n  return ()";
        let p = program(src);
        let Decl::Bind(c) = &p.decls[0] else {
            panic!("expected bind")
        };
        let Rhs::Plain(SExpr::Do(stmts)) = &c.rhs else {
            panic!("expected do")
        };
        assert_eq!(stmts.len(), 3);
        assert!(matches!(stmts[0], Stmt::Bind(_, _)));
        assert!(matches!(stmts[1], Stmt::Expr(_)));
    }

    #[test]
    fn let_in_and_if() {
        let e = expr("let x = 1\n    y = 2 in if x < y then x else y");
        match e {
            SExpr::Let(decls, body) => {
                assert_eq!(decls.len(), 2);
                assert!(matches!(*body, SExpr::If(_, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lists_tuples_sections_and_ranges() {
        assert_eq!(
            expr("[1, 2, 3]"),
            SExpr::List(vec![SExpr::Int(1), SExpr::Int(2), SExpr::Int(3)])
        );
        assert!(matches!(expr("(1, 'a')"), SExpr::Tuple(ref v) if v.len() == 2));
        assert!(matches!(expr("(+)"), SExpr::OpSection(_)));
        // [1 .. 10] becomes enumFromTo 1 10
        match expr("[1 .. 10]") {
            SExpr::App(f, _) => match *f {
                SExpr::App(g, _) => assert_eq!(*g, SExpr::Var(Known::EnumFromTo.symbol())),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_sections() {
        assert!(matches!(expr("(+ 1)"), SExpr::SectionR(_, _)));
        assert!(matches!(expr("(2 *)"), SExpr::SectionL(_, _)));
        assert!(matches!(expr("(< 3)"), SExpr::SectionR(_, _)));
        // (f x +) — application spine as lhs.
        assert!(matches!(expr("(f x +)"), SExpr::SectionL(_, _)));
        // Negation is not a section.
        assert!(matches!(expr("(- 3)"), SExpr::Neg(_)));
        // Plain parenthesised expressions still work.
        assert!(matches!(expr("(1 + 2)"), SExpr::BinOp(_, _, _)));
    }

    #[test]
    fn deeply_nested_parentheses_parse_in_linear_time() {
        // Each `(` level must parse its interior once: parsing it again
        // after trying a left section makes nesting exponential.
        let mut src = "1".to_string();
        let mut want = SExpr::Int(1);
        for k in 0..40 {
            let op = if k % 2 == 0 { "+" } else { "-" };
            src = format!("({src} {op} {k})");
            want = SExpr::BinOp(Symbol::intern(op), Box::new(want), Box::new(SExpr::Int(k)));
        }
        assert_eq!(expr(&src), want);

        let mut src = "x".to_string();
        let mut want = SExpr::var("x");
        for _ in 0..40 {
            src = format!("({src} +)");
            want = SExpr::SectionL(Box::new(want), Symbol::intern("+"));
        }
        assert_eq!(expr(&src), want);
    }

    #[test]
    fn backtick_infix_application() {
        match expr("x `max` y") {
            SExpr::BinOp(f, _, _) => assert_eq!(f.as_str(), "max"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn monadic_bind_operators() {
        // getChar >>= \c -> putChar c
        match expr(r"getChar >>= \c -> putChar c") {
            SExpr::BinOp(op, _, _) => assert_eq!(op.as_str(), ">>="),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_expr_src("case of").expect_err("should fail");
        let SyntaxError::Parse(p) = err else {
            panic!("expected parse error")
        };
        assert_eq!(p.pos.line, 1);
    }

    #[test]
    fn unknown_operator_is_rejected() {
        assert!(parse_expr_src("a <+> b").is_err());
    }

    #[test]
    fn negative_literal_patterns() {
        let src = "sign (-1) = -1\nsign 0 = 0\nsign n = 1";
        let p = program(src);
        let Decl::Bind(c) = &p.decls[0] else { panic!() };
        assert_eq!(c.pats[0], Pat::Int(-1));
    }
}
