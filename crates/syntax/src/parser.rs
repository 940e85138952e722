//! The parser: layout-processed tokens → surface AST.
//!
//! A hand-written recursive-descent parser with precedence climbing for
//! operators. The grammar is a pragmatic subset of Haskell 98, large enough
//! to transcribe every program in the paper: `data` declarations, optional
//! type signatures, multi-equation function definitions with nested
//! patterns and guards, `where`, `let`/`in`, `case`/`of`, `if`/`then`/
//! `else`, lambdas, `do`-notation, lists, tuples, strings, and arithmetic
//! sequences `[a .. b]`.
//!
//! The parser reads `Copy` tokens out of one buffer by position and builds
//! the tree into an [`Ast`] arena. The token buffer, the layout's context
//! stack, the stack of list items still being parsed and the arena under
//! construction are per-thread scratch kept between parses, each with a
//! capped capacity; only the finished tree is copied out, into buffers
//! sized to it, so a parse allocates O(1) times whatever the input's size.
//!
//! Every construct that nests counts against one [`NESTING_BUDGET`]:
//! deeper input is an ordinary syntax error, not a stack overflow in the
//! parser or in the phases that recurse over its tree. (A long
//! left-associative chain or list literal nests no syntax, so the budget
//! does not bound the depth of the core it desugars to.)

use std::cell::Cell;
use std::fmt;

use crate::ast::*;
use crate::layout::{tokenize, Ctx};
use crate::token::{Pos, Spanned, Tok};
use crate::{Known, Symbol};

/// How deeply constructs may nest: brackets (in expressions, patterns and
/// types), `let`, `case`, `if`, `\`, `do`, `where`, unary minus, and the
/// right operand of an operator (so a right-associative chain such as
/// `1 : 2 : …` nests once per operator, while a left-associative one does
/// not nest at all). Input that nests deeper is a [`SyntaxError`].
pub const NESTING_BUDGET: u32 = 256;

/// The capacity, in entries, each per-thread parse buffer keeps between
/// parses.
const KEEP: usize = 1 << 12;

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
    let (ast, decls) = parse(src, |p| p.program())?;
    Ok(SurfaceProgram { ast, decls })
}

/// Parses a single expression (for REPLs and tests).
///
/// # Errors
///
/// Returns the first front-end error encountered, including trailing junk
/// after the expression.
pub fn parse_expr_src(src: &str) -> Result<SurfaceExpr, SyntaxError> {
    let (ast, root) = parse(src, |p| {
        let e = p.expr()?;
        p.expect_eof()?;
        Ok(e)
    })?;
    Ok(SurfaceExpr { ast, root })
}

/// The buffers a parse needs only while it runs.
struct Scratch {
    toks: Vec<Spanned>,
    layout: Vec<Ctx>,
    /// The items of every list still being parsed, innermost last.
    pending: Vec<u32>,
    ast: Ast,
}

impl Scratch {
    const fn new() -> Scratch {
        Scratch {
            toks: Vec::new(),
            layout: Vec::new(),
            pending: Vec::new(),
            ast: Ast::new(),
        }
    }
}

impl Scratch {
    fn run<T>(
        &mut self,
        src: &str,
        start: impl FnOnce(&mut Parser<'_>) -> Result<T, ParseError>,
    ) -> Result<(Ast, T), SyntaxError> {
        tokenize(src, &mut self.ast.strs, &mut self.toks, &mut self.layout)?;
        let mut p = Parser {
            toks: &self.toks,
            pos: 0,
            ast: &mut self.ast,
            pending: &mut self.pending,
            depth: 0,
        };
        let out = start(&mut p)?;
        Ok((self.ast.detach(KEEP), out))
    }

    /// Empties every buffer, capping its capacity at [`KEEP`] entries.
    fn retire(&mut self) {
        self.toks.clear();
        self.toks.shrink_to(KEEP);
        self.layout.clear();
        self.layout.shrink_to(KEEP);
        self.pending.clear();
        self.pending.shrink_to(KEEP);
        self.ast.reset(KEEP);
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const { Cell::new(Scratch::new()) };
}

/// Tokenizes `src` and runs `start` over the tokens, on this thread's
/// scratch buffers; returns the tree, copied out, with what `start` made.
fn parse<T>(
    src: &str,
    start: impl FnOnce(&mut Parser<'_>) -> Result<T, ParseError>,
) -> Result<(Ast, T), SyntaxError> {
    SCRATCH.with(|cell| {
        let mut scratch = cell.replace(Scratch::new());
        let out = scratch.run(src, start);
        scratch.retire();
        cell.set(scratch);
        out
    })
}

struct Parser<'s> {
    /// The layout-processed tokens, ending with [`Tok::Eof`].
    toks: &'s [Spanned],
    pos: usize,
    ast: &'s mut Ast,
    pending: &'s mut Vec<u32>,
    /// How many nesting constructs enclose the current position.
    depth: u32,
}

impl Parser<'_> {
    fn peek(&self) -> Tok {
        self.toks[self.pos].tok
    }

    fn peek_at(&self, n: usize) -> Tok {
        self.toks[(self.pos + n).min(self.toks.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.toks[self.pos].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// `t` as diagnostics spell it.
    fn show(&self, t: Tok) -> impl fmt::Display + '_ {
        t.show(&self.ast.strs)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            pos: self.here(),
            message: message.into(),
        })
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!(
                "expected '{}', found '{}'",
                self.show(t),
                self.show(self.peek())
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        // A trailing virtual semicolon (from a final newline) is harmless.
        while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
            self.bump();
        }
        if self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err(format!(
                "expected end of input, found '{}'",
                self.show(self.peek())
            ))
        }
    }

    fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_op(&self, name: Known) -> bool {
        matches!(self.peek(), Tok::Op(s, _) if name.is(s))
    }

    /// Runs `f` one nesting level deeper, or fails here if that would
    /// exceed [`NESTING_BUDGET`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == NESTING_BUDGET {
            return self.err(format!("input nests deeper than {NESTING_BUDGET} levels"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Starts a list: items go on with [`Parser::item`] and the list ends
    /// with [`Parser::list`] at the mark this returns.
    fn mark(&self) -> usize {
        self.pending.len()
    }

    fn item<T>(&mut self, id: Id<T>) {
        self.pending.push(id.raw());
    }

    fn list<T>(&mut self, mark: usize) -> List<T> {
        let list = self.ast.list(&self.pending[mark..]);
        self.pending.truncate(mark);
        list
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<List<Decl>, ParseError> {
        let mark = self.mark();
        loop {
            while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
                self.bump();
            }
            if self.peek() == Tok::Eof {
                break;
            }
            let d = self.decl()?;
            self.item(d);
            match self.peek() {
                Tok::VSemi | Tok::Semi | Tok::Eof => {}
                other => {
                    return self.err(format!(
                        "expected end of declaration, found '{}'",
                        self.show(other)
                    ))
                }
            }
        }
        Ok(self.list(mark))
    }

    fn decl(&mut self) -> Result<DeclId, ParseError> {
        let decl = match self.peek() {
            Tok::Data => {
                let data = self.data_decl()?;
                Decl::Data(self.ast.push_data(data))
            }
            Tok::Lower(name) if self.peek_at(1) == Tok::DoubleColon => {
                self.bump();
                self.bump(); // ::
                let ty = self.ty()?;
                Decl::Sig(name, self.ast.push_type(ty))
            }
            Tok::Lower(_) => Decl::Bind(self.fun_clause()?),
            other => {
                return self.err(format!(
                    "expected a declaration, found '{}'",
                    self.show(other)
                ))
            }
        };
        Ok(self.ast.push(decl))
    }

    fn data_decl(&mut self) -> Result<DataDecl, ParseError> {
        let pos = self.here();
        self.expect(Tok::Data)?;
        let name = self.upper_name("type constructor")?;
        let mut params = Vec::new();
        while let Tok::Lower(v) = self.peek() {
            params.push(v);
            self.bump();
        }
        self.expect(Tok::Equals)?;
        let mut constructors = vec![self.con_decl()?];
        while self.eat(Tok::Pipe) {
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
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found '{}'", self.show(other))),
        }
    }

    fn fun_clause(&mut self) -> Result<Clause, ParseError> {
        let Tok::Lower(name) = self.bump() else {
            return self.err("expected a function name");
        };
        let pats = self.apats()?;
        let rhs = self.rhs(Tok::Equals)?;
        let wheres = self.where_block()?;
        Ok(Clause {
            name,
            pats,
            rhs,
            wheres,
        })
    }

    fn rhs(&mut self, intro: Tok) -> Result<Rhs, ParseError> {
        if self.peek() != Tok::Pipe {
            self.expect(intro)?;
            return Ok(Rhs::Plain(self.expr()?));
        }
        let mark = self.mark();
        while self.eat(Tok::Pipe) {
            let cond = self.expr()?;
            self.expect(intro)?;
            let body = self.expr()?;
            let guard = self.ast.push(Guard { cond, body });
            self.item(guard);
        }
        Ok(Rhs::Guarded(self.list(mark)))
    }

    fn where_block(&mut self) -> Result<List<Decl>, ParseError> {
        if self.peek() != Tok::Where {
            return Ok(List::EMPTY);
        }
        self.nested(|p| {
            p.bump();
            p.block(Parser::decl)
        })
    }

    /// Parses `{ item ; item ; ... }` with either explicit or virtual
    /// delimiters.
    fn block<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<Id<T>, ParseError>,
    ) -> Result<List<T>, ParseError> {
        let close = match self.bump() {
            Tok::LBrace => Tok::RBrace,
            Tok::VLBrace => Tok::VRBrace,
            other => return self.err(format!("expected a block, found '{}'", self.show(other))),
        };
        let mark = self.mark();
        loop {
            while matches!(self.peek(), Tok::VSemi | Tok::Semi) {
                self.bump();
            }
            if self.eat(close) {
                return Ok(self.list(mark));
            }
            let id = item(self)?;
            self.item(id);
            match self.peek() {
                Tok::VSemi | Tok::Semi => {}
                t if t == close => {}
                other => {
                    return self.err(format!(
                        "expected ';' or end of block, found '{}'",
                        self.show(other)
                    ))
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    fn ty(&mut self) -> Result<SType, ParseError> {
        let lhs = self.btype()?;
        if self.peek() != Tok::Arrow {
            return Ok(lhs);
        }
        self.nested(|p| {
            p.bump();
            let rhs = p.ty()?;
            Ok(SType::Fun(Box::new(lhs), Box::new(rhs)))
        })
    }

    fn btype(&mut self) -> Result<SType, ParseError> {
        if let Tok::Upper(name) = self.peek() {
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
        match self.peek() {
            Tok::Upper(name) => {
                self.bump();
                Ok(SType::Con(name, vec![]))
            }
            Tok::Lower(name) => {
                self.bump();
                Ok(SType::Var(name))
            }
            Tok::LBracket => self.nested(|p| {
                p.bump();
                let inner = p.ty()?;
                p.expect(Tok::RBracket)?;
                Ok(SType::List(Box::new(inner)))
            }),
            Tok::LParen => self.nested(|p| {
                p.bump();
                if p.eat(Tok::RParen) {
                    return Ok(SType::Con(Known::Unit.symbol(), vec![]));
                }
                let first = p.ty()?;
                if !p.eat(Tok::Comma) {
                    p.expect(Tok::RParen)?;
                    return Ok(first);
                }
                let mut items = vec![first, p.ty()?];
                while p.eat(Tok::Comma) {
                    items.push(p.ty()?);
                }
                p.expect(Tok::RParen)?;
                if items.len() > 3 {
                    return p.err("tuples are limited to 3 components");
                }
                Ok(SType::Tuple(items))
            }),
            other => self.err(format!("expected a type, found '{}'", self.show(other))),
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

    /// Zero or more atomic patterns.
    fn apats(&mut self) -> Result<List<Pat>, ParseError> {
        let mark = self.mark();
        while self.starts_apat() {
            let p = self.apat()?;
            self.item(p);
        }
        Ok(self.list(mark))
    }

    /// A full pattern: constructor applications and infix cons.
    fn pat(&mut self) -> Result<PatId, ParseError> {
        let head = self.pat10()?;
        if !self.is_op(Known::Colon) {
            return Ok(head);
        }
        self.nested(|p| {
            p.bump();
            let tail = p.pat()?;
            Ok(p.ast.push(Pat::ConsInfix(head, tail)))
        })
    }

    fn pat10(&mut self) -> Result<PatId, ParseError> {
        if let Tok::Upper(name) = self.peek() {
            self.bump();
            let args = self.apats()?;
            Ok(self.ast.push(Pat::Con(name, args)))
        } else {
            self.apat()
        }
    }

    fn apat(&mut self) -> Result<PatId, ParseError> {
        let pat = match self.peek() {
            Tok::Lower(v) => {
                self.bump();
                Pat::Var(v)
            }
            Tok::Underscore => {
                self.bump();
                Pat::Wild
            }
            Tok::Int(n) => {
                self.bump();
                Pat::Int(n)
            }
            Tok::Char(c) => {
                self.bump();
                Pat::Char(c)
            }
            Tok::Str(s) => {
                self.bump();
                Pat::Str(Id::new(s))
            }
            Tok::Op(o, _) if Known::Minus.is(o) && matches!(self.peek_at(1), Tok::Int(_)) => {
                self.bump();
                let Tok::Int(n) = self.bump() else {
                    unreachable!()
                };
                Pat::Int(-n)
            }
            Tok::Upper(name) => {
                self.bump();
                Pat::Con(name, List::EMPTY)
            }
            Tok::LParen => return self.nested(Parser::paren_pat),
            Tok::LBracket => {
                return self.nested(|p| {
                    p.bump();
                    let mark = p.mark();
                    if !p.eat(Tok::RBracket) {
                        let first = p.pat()?;
                        p.item(first);
                        while p.eat(Tok::Comma) {
                            let next = p.pat()?;
                            p.item(next);
                        }
                        p.expect(Tok::RBracket)?;
                    }
                    let items = p.list(mark);
                    Ok(p.ast.push(Pat::List(items)))
                })
            }
            other => return self.err(format!("expected a pattern, found '{}'", self.show(other))),
        };
        Ok(self.ast.push(pat))
    }

    fn paren_pat(&mut self) -> Result<PatId, ParseError> {
        self.bump();
        if self.eat(Tok::RParen) {
            return Ok(self.ast.push(Pat::Con(Known::Unit.symbol(), List::EMPTY)));
        }
        let first = self.pat()?;
        if !self.eat(Tok::Comma) {
            self.expect(Tok::RParen)?;
            return Ok(first);
        }
        let mark = self.mark();
        self.item(first);
        let second = self.pat()?;
        self.item(second);
        while self.eat(Tok::Comma) {
            let next = self.pat()?;
            self.item(next);
        }
        self.expect(Tok::RParen)?;
        if self.pending.len() - mark > 3 {
            return self.err("tuples are limited to 3 components");
        }
        let items = self.list(mark);
        Ok(self.ast.push(Pat::Tuple(items)))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<ExprId, ParseError> {
        self.op_expr(0)
    }

    /// Precedence climbing over the fixity table.
    fn op_expr(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let lhs = self.unary()?;
        self.op_rest(lhs, min_prec)
    }

    /// The operator loop of [`Parser::op_expr`] over an already parsed
    /// left operand.
    fn op_rest(&mut self, mut lhs: ExprId, min_prec: u8) -> Result<ExprId, ParseError> {
        loop {
            let (op, prec, right) = match self.peek() {
                Tok::Op(s, Some(f)) => (s, f.prec, f.right),
                // Unknown operators (such as `..` inside a range, or a
                // genuine typo) end the expression; the caller reports
                // trailing junk if it was a typo.
                Tok::Op(_, None) => break,
                Tok::Backtick => {
                    // `f` infix application, tighter than everything except
                    // ordinary application.
                    let Tok::Lower(f) = self.peek_at(1) else {
                        return self.err("expected a function name after '`'");
                    };
                    (f, 9, false)
                }
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            if self.bump() == Tok::Backtick {
                self.bump(); // name
                self.expect(Tok::Backtick)?;
            }
            let next_min = if right { prec } else { prec + 1 };
            let rhs = self.nested(|p| p.op_expr(next_min))?;
            lhs = self.ast.push(SExpr::BinOp(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<ExprId, ParseError> {
        if !self.is_op(Known::Minus) {
            return self.app_expr();
        }
        self.nested(|p| {
            p.bump();
            let e = p.unary()?;
            Ok(p.ast.push(SExpr::Neg(e)))
        })
    }

    fn app_expr(&mut self) -> Result<ExprId, ParseError> {
        let head = self.atom()?;
        if !self.starts_atom() {
            return Ok(head);
        }
        let mark = self.mark();
        // A parenthesised spine heads a longer one: `(f a) b` is `f a b`.
        let f = match self.ast[head] {
            SExpr::App(f, args) => {
                self.pending.extend(self.ast.items(args).map(Id::raw));
                f
            }
            _ => head,
        };
        while self.starts_atom() {
            let arg = self.atom()?;
            self.item(arg);
        }
        let args = self.list(mark);
        if f == head {
            Ok(self.ast.push(SExpr::App(f, args)))
        } else {
            self.ast.set(head, SExpr::App(f, args));
            Ok(head)
        }
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

    fn atom(&mut self) -> Result<ExprId, ParseError> {
        let e = match self.peek() {
            Tok::Lower(v) => SExpr::Var(v),
            Tok::Upper(c) => SExpr::Con(c),
            Tok::Int(n) => SExpr::Int(n),
            Tok::Char(c) => SExpr::Char(c),
            Tok::Str(s) => SExpr::Str(Id::new(s)),
            Tok::Backslash => return self.nested(Parser::lambda),
            Tok::Let => {
                return self.nested(|p| {
                    p.bump();
                    let decls = p.block(Parser::decl)?;
                    p.expect(Tok::In)?;
                    let body = p.expr()?;
                    Ok(p.ast.push(SExpr::Let(decls, body)))
                })
            }
            Tok::Case => {
                return self.nested(|p| {
                    p.bump();
                    let scrut = p.expr()?;
                    p.expect(Tok::Of)?;
                    let alts = p.block(Parser::case_alt)?;
                    Ok(p.ast.push(SExpr::Case(scrut, alts)))
                })
            }
            Tok::If => {
                return self.nested(|p| {
                    p.bump();
                    let c = p.expr()?;
                    p.expect(Tok::Then)?;
                    let t = p.expr()?;
                    p.expect(Tok::Else)?;
                    let e = p.expr()?;
                    Ok(p.ast.push(SExpr::If(c, t, e)))
                })
            }
            Tok::Do => {
                return self.nested(|p| {
                    p.bump();
                    let stmts = p.block(Parser::stmt)?;
                    if stmts.is_empty() {
                        return p.err("empty 'do' block");
                    }
                    Ok(p.ast.push(SExpr::Do(stmts)))
                })
            }
            Tok::LParen => return self.nested(Parser::paren),
            Tok::LBracket => return self.nested(Parser::bracket),
            other => {
                return self.err(format!(
                    "expected an expression, found '{}'",
                    self.show(other)
                ))
            }
        };
        self.bump();
        Ok(self.ast.push(e))
    }

    fn lambda(&mut self) -> Result<ExprId, ParseError> {
        self.bump();
        let mark = self.mark();
        let first = self.apat()?;
        self.item(first);
        while self.starts_apat() {
            let p = self.apat()?;
            self.item(p);
        }
        let pats = self.list(mark);
        self.expect(Tok::Arrow)?;
        let body = self.expr()?;
        Ok(self.ast.push(SExpr::Lam(pats, body)))
    }

    /// A parenthesised form: unit, an operator section, a parenthesised
    /// expression or a tuple.
    fn paren(&mut self) -> Result<ExprId, ParseError> {
        self.bump();
        if self.eat(Tok::RParen) {
            return Ok(self.ast.push(SExpr::Con(Known::Unit.symbol())));
        }
        // `(+)` — an operator as a value; `(op e)` — a right section
        // (except unary minus, which stays negation).
        if let Tok::Op(o, Some(_)) = self.peek() {
            if self.peek_at(1) == Tok::RParen {
                self.bump();
                self.bump();
                return Ok(self.ast.push(SExpr::OpSection(o)));
            }
            if !Known::Minus.is(o) {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                return Ok(self.ast.push(SExpr::SectionR(o, e)));
            }
        }
        // `(e op)` — a left section; the lhs is an application spine
        // (operator-free). Otherwise the spine already parsed is the first
        // operand of the parenthesised expression, so each token is parsed
        // once.
        let first = if self.starts_atom() {
            let lhs = self.app_expr()?;
            if let Tok::Op(o, Some(_)) = self.peek() {
                if self.peek_at(1) == Tok::RParen {
                    self.bump();
                    self.bump();
                    return Ok(self.ast.push(SExpr::SectionL(lhs, o)));
                }
            }
            self.op_rest(lhs, 0)?
        } else {
            self.expr()?
        };
        if !self.eat(Tok::Comma) {
            self.expect(Tok::RParen)?;
            return Ok(first);
        }
        let mark = self.mark();
        self.item(first);
        let second = self.expr()?;
        self.item(second);
        while self.eat(Tok::Comma) {
            let next = self.expr()?;
            self.item(next);
        }
        self.expect(Tok::RParen)?;
        if self.pending.len() - mark > 3 {
            return self.err("tuples are limited to 3 components");
        }
        let items = self.list(mark);
        Ok(self.ast.push(SExpr::Tuple(items)))
    }

    /// A list literal or an arithmetic sequence `[a .. b]`.
    fn bracket(&mut self) -> Result<ExprId, ParseError> {
        self.bump();
        let mark = self.mark();
        if self.eat(Tok::RBracket) {
            return Ok(self.ast.push(SExpr::List(List::EMPTY)));
        }
        let first = self.expr()?;
        self.item(first);
        if self.is_op(Known::DotDot) {
            self.bump();
            let hi = self.expr()?;
            self.item(hi);
            self.expect(Tok::RBracket)?;
            let f = self.ast.push(SExpr::Var(Known::EnumFromTo.symbol()));
            let args = self.list(mark);
            return Ok(self.ast.push(SExpr::App(f, args)));
        }
        while self.eat(Tok::Comma) {
            let next = self.expr()?;
            self.item(next);
        }
        self.expect(Tok::RBracket)?;
        let items = self.list(mark);
        Ok(self.ast.push(SExpr::List(items)))
    }

    fn case_alt(&mut self) -> Result<Id<CaseAlt>, ParseError> {
        let pat = self.pat()?;
        let rhs = self.rhs(Tok::Arrow)?;
        Ok(self.ast.push(CaseAlt { pat, rhs }))
    }

    fn stmt(&mut self) -> Result<Id<Stmt>, ParseError> {
        if self.peek() == Tok::Let {
            return self.nested(|p| {
                p.bump();
                let decls = p.block(Parser::decl)?;
                if !p.eat(Tok::In) {
                    return Ok(p.ast.push(Stmt::Let(decls)));
                }
                let body = p.expr()?;
                let e = p.ast.push(SExpr::Let(decls, body));
                Ok(p.ast.push(Stmt::Expr(e)))
            });
        }
        // Try `pat <- expr`, falling back to a bare expression: a failed
        // try rewinds to the statement's first token and forgets the nodes
        // it made.
        let (pos, tree, pending) = (self.pos, self.ast.mark(), self.pending.len());
        if self.starts_apat() {
            if let Ok(p) = self.pat() {
                if self.eat(Tok::BackArrow) {
                    let e = self.expr()?;
                    return Ok(self.ast.push(Stmt::Bind(p, e)));
                }
            }
        }
        self.pos = pos;
        self.ast.truncate(tree);
        self.pending.truncate(pending);
        let e = self.expr()?;
        Ok(self.ast.push(Stmt::Expr(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An S-expression rendering of a surface tree, for comparisons.
    struct Render<'a>(&'a Ast);

    impl Render<'_> {
        fn expr(&self, id: ExprId) -> String {
            let ast = self.0;
            match ast[id] {
                SExpr::Var(v) | SExpr::Con(v) => v.as_str(),
                SExpr::Int(n) => n.to_string(),
                SExpr::Char(c) => format!("{c:?}"),
                SExpr::Str(s) => format!("{:?}", &*ast[s]),
                SExpr::App(f, args) => format!("({} {})", self.expr(f), self.exprs(args)),
                SExpr::Lam(ps, body) => format!("(\\ {} -> {})", self.pats(ps), self.expr(body)),
                SExpr::Let(ds, body) => format!("(let [{}] {})", self.decls(ds), self.expr(body)),
                SExpr::Case(scrut, alts) => {
                    let alts: Vec<String> = ast
                        .items(alts)
                        .map(|a| format!("{} {}", self.pat(ast[a].pat), self.rhs(ast[a].rhs, "->")))
                        .collect();
                    format!("(case {} [{}])", self.expr(scrut), alts.join("; "))
                }
                SExpr::If(c, t, e) => {
                    format!("(if {} {} {})", self.expr(c), self.expr(t), self.expr(e))
                }
                SExpr::Do(stmts) => {
                    let stmts: Vec<String> = ast
                        .items(stmts)
                        .map(|st| match ast[st] {
                            Stmt::Bind(p, e) => format!("{} <- {}", self.pat(p), self.expr(e)),
                            Stmt::Let(ds) => format!("let [{}]", self.decls(ds)),
                            Stmt::Expr(e) => self.expr(e),
                        })
                        .collect();
                    format!("(do {})", stmts.join("; "))
                }
                SExpr::BinOp(op, l, r) => format!("({op} {} {})", self.expr(l), self.expr(r)),
                SExpr::Neg(e) => format!("(neg {})", self.expr(e)),
                SExpr::Tuple(items) => format!("(, {})", self.exprs(items)),
                SExpr::List(items) => format!("[{}]", self.exprs(items)),
                SExpr::OpSection(op) => format!("({op})"),
                SExpr::SectionL(e, op) => format!("(sectl {} {op})", self.expr(e)),
                SExpr::SectionR(op, e) => format!("(sectr {op} {})", self.expr(e)),
            }
        }

        fn exprs(&self, items: List<SExpr>) -> String {
            let items: Vec<String> = self.0.items(items).map(|e| self.expr(e)).collect();
            items.join(" ")
        }

        fn pat(&self, id: PatId) -> String {
            let ast = self.0;
            match ast[id] {
                Pat::Var(v) => v.as_str(),
                Pat::Wild => "_".into(),
                Pat::Int(n) => n.to_string(),
                Pat::Char(c) => format!("{c:?}"),
                Pat::Str(s) => format!("{:?}", &*ast[s]),
                Pat::Con(c, args) if args.is_empty() => c.as_str(),
                Pat::Con(c, args) => format!("({c} {})", self.pats(args)),
                Pat::Tuple(items) => format!("(, {})", self.pats(items)),
                Pat::List(items) => format!("[{}]", self.pats(items)),
                Pat::ConsInfix(h, t) => format!("(: {} {})", self.pat(h), self.pat(t)),
            }
        }

        fn pats(&self, items: List<Pat>) -> String {
            let items: Vec<String> = self.0.items(items).map(|p| self.pat(p)).collect();
            items.join(" ")
        }

        fn rhs(&self, rhs: Rhs, intro: &str) -> String {
            match rhs {
                Rhs::Plain(e) => format!("{intro} {}", self.expr(e)),
                Rhs::Guarded(gs) => {
                    let gs: Vec<String> = self
                        .0
                        .items(gs)
                        .map(|g| {
                            let g = self.0[g];
                            format!("| {} {intro} {}", self.expr(g.cond), self.expr(g.body))
                        })
                        .collect();
                    gs.join(" ")
                }
            }
        }

        fn decls(&self, decls: List<Decl>) -> String {
            let ast = self.0;
            let decls: Vec<String> = ast
                .items(decls)
                .map(|d| match ast[d] {
                    Decl::Data(data) => format!("data {}", ast[data].name),
                    Decl::Sig(name, ty) => format!("{name} :: {:?}", ast[ty]),
                    Decl::Bind(c) => {
                        let mut out = c.name.as_str();
                        if !c.pats.is_empty() {
                            out = format!("{out} {}", self.pats(c.pats));
                        }
                        out = format!("{out} {}", self.rhs(c.rhs, "="));
                        if !c.wheres.is_empty() {
                            out = format!("{out} where [{}]", self.decls(c.wheres));
                        }
                        out
                    }
                })
                .collect();
            decls.join("; ")
        }
    }

    fn expr(src: &str) -> String {
        let e = parse_expr_src(src).expect("parses");
        Render(&e.ast).expr(e.root)
    }

    fn program(src: &str) -> String {
        let p = parse_program(src).expect("parses");
        Render(&p.ast).decls(p.decls)
    }

    fn parse_error(src: &str) -> ParseError {
        match parse_expr_src(src).expect_err("should fail") {
            SyntaxError::Parse(p) => p,
            other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn parses_the_paper_headline_expression() {
        assert_eq!(
            expr(r#"getException ((1/0) + error "Urk")"#),
            r#"(getException (+ (/ 1 0) (error "Urk")))"#
        );
    }

    #[test]
    fn precedence_and_associativity() {
        assert_eq!(expr("1 + 2 * 3"), "(+ 1 (* 2 3))");
        // Left associative.
        assert_eq!(expr("a - b - c"), "(- (- a b) c)");
        // Right associative.
        assert_eq!(expr("x : y : zs"), "(: x (: y zs))");
    }

    #[test]
    fn application_binds_tighter_than_operators() {
        assert_eq!(expr("f x + g y"), "(+ (f x) (g y))");
    }

    #[test]
    fn a_parenthesised_spine_heads_a_longer_one() {
        assert_eq!(expr("(f x) y"), "(f x y)");
        assert_eq!(expr("((f x) y) z"), "(f x y z)");
        assert_eq!(expr("(Cons 1) Nil"), "(Cons 1 Nil)");
        assert_eq!(expr("f (g x) y"), "(f (g x) y)");
    }

    #[test]
    fn lambda_and_unary_minus() {
        assert_eq!(expr(r"\x -> -x"), "(\\ x -> (neg x))");
        assert_eq!(expr(r"\(a, b) [c] -> a"), "(\\ (, a b) [c] -> a)");
    }

    #[test]
    fn case_with_nested_patterns_and_guards() {
        assert_eq!(
            expr("case xs of { Cons x rest | x > 0 -> x | otherwise -> 0; Nil -> -1 }"),
            "(case xs [(Cons x rest) | (> x 0) -> x | otherwise -> 0; Nil -> (neg 1)])"
        );
    }

    #[test]
    fn zip_with_from_the_paper_parses() {
        let src = "zipWith f [] [] = []\n\
                   zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
                   zipWith f xs ys = error \"Unequal lists\"";
        assert_eq!(
            program(src),
            "zipWith f [] [] = []; \
             zipWith f (: x xs) (: y ys) = (: (f x y) (zipWith f xs ys)); \
             zipWith f xs ys = (error \"Unequal lists\")"
        );
    }

    #[test]
    fn loop_with_where_from_the_paper_parses() {
        assert_eq!(
            program("loop = f True\n  where f x = f (not x)"),
            "loop = (f True) where [f x = (f (not x))]"
        );
    }

    #[test]
    fn data_declarations() {
        let p = parse_program("data Tree a = Leaf | Node (Tree a) a (Tree a)").expect("parses");
        let Decl::Data(d) = p.ast[p.ast.item(p.decls, 0)] else {
            panic!("expected data")
        };
        let d = &p.ast[d];
        assert_eq!(d.constructors.len(), 2);
        assert_eq!(d.constructors[1].args.len(), 3);
    }

    #[test]
    fn type_signatures() {
        let p =
            parse_program("f :: Int -> [Int] -> (Int, Bool)\nf x ys = (x, True)").expect("parses");
        let Decl::Sig(name, ty) = p.ast[p.ast.item(p.decls, 0)] else {
            panic!("expected sig")
        };
        assert_eq!(name.as_str(), "f");
        assert!(matches!(p.ast[ty], SType::Fun(_, _)));
    }

    #[test]
    fn do_notation_with_binds() {
        assert_eq!(
            program("main = do\n  c <- getChar\n  putChar c\n  return ()"),
            "main = (do c <- getChar; (putChar c); (return Unit))"
        );
        // A failed `pat <-` try leaves no nodes behind.
        let e = parse_expr_src("do { f (x, y); z <- g; h z }").expect("parses");
        assert_eq!(
            Render(&e.ast).expr(e.root),
            "(do (f (, x y)); z <- g; (h z))"
        );
        assert_eq!(e.ast.len(), 14);
    }

    #[test]
    fn let_in_and_if() {
        assert_eq!(
            expr("let x = 1\n    y = 2 in if x < y then x else y"),
            "(let [x = 1; y = 2] (if (< x y) x y))"
        );
    }

    #[test]
    fn lists_tuples_sections_and_ranges() {
        assert_eq!(expr("[1, 2, 3]"), "[1 2 3]");
        assert_eq!(expr("(1, 'a')"), "(, 1 'a')");
        assert_eq!(expr("(+)"), "(+)");
        // [1 .. 10] becomes enumFromTo 1 10
        assert_eq!(expr("[1 .. 10]"), "(enumFromTo 1 10)");
        assert_eq!(expr("[]"), "[]");
        assert_eq!(expr("()"), "Unit");
    }

    #[test]
    fn operator_sections() {
        assert_eq!(expr("(+ 1)"), "(sectr + 1)");
        assert_eq!(expr("(2 *)"), "(sectl 2 *)");
        assert_eq!(expr("(< 3)"), "(sectr < 3)");
        // (f x +) — application spine as lhs.
        assert_eq!(expr("(f x +)"), "(sectl (f x) +)");
        // Negation is not a section.
        assert_eq!(expr("(- 3)"), "(neg 3)");
        // Plain parenthesised expressions still work.
        assert_eq!(expr("(1 + 2)"), "(+ 1 2)");
    }

    #[test]
    fn deeply_nested_parentheses_parse_in_linear_time() {
        // Each `(` level must parse its interior once: parsing it again
        // after trying a left section makes nesting exponential.
        let mut src = "1".to_string();
        let mut want = "1".to_string();
        for k in 0..40 {
            let op = if k % 2 == 0 { "+" } else { "-" };
            src = format!("({src} {op} {k})");
            want = format!("({op} {want} {k})");
        }
        assert_eq!(expr(&src), want);

        let mut src = "x".to_string();
        let mut want = "x".to_string();
        for _ in 0..40 {
            src = format!("({src} +)");
            want = format!("(sectl {want} +)");
        }
        assert_eq!(expr(&src), want);
    }

    #[test]
    fn backtick_infix_application() {
        assert_eq!(expr("x `max` y"), "(max x y)");
    }

    #[test]
    fn monadic_bind_operators() {
        assert_eq!(
            expr(r"getChar >>= \c -> putChar c"),
            "(>>= getChar (\\ c -> (putChar c)))"
        );
    }

    #[test]
    fn parse_errors_carry_positions() {
        assert_eq!(parse_error("case of").pos.line, 1);
        // A string token is spelled as the source wrote it.
        let err = parse_program("\"abc\" = 1").expect_err("should fail");
        assert_eq!(
            err.to_string(),
            "parse error at 1:1: expected a declaration, found '\"abc\"'"
        );
    }

    #[test]
    fn unknown_operator_is_rejected() {
        assert!(parse_expr_src("a <+> b").is_err());
    }

    #[test]
    fn negative_literal_patterns() {
        assert_eq!(
            program("sign (-1) = -1\nsign 0 = 0\nsign n = 1"),
            "sign -1 = (neg 1); sign 0 = 0; sign n = 1"
        );
    }

    /// Every nesting form, `depth` levels deep.
    fn nested_forms(depth: usize) -> Vec<(&'static str, String)> {
        let wrap = |open: &str, close: &str| open.repeat(depth) + "1" + &close.repeat(depth);
        vec![
            ("parentheses", wrap("(", ")")),
            ("brackets", wrap("[", "]")),
            ("tuples", wrap("(0, ", ")")),
            ("lambdas", wrap("\\x -> ", "")),
            ("lets", wrap("let x = 1 in ", "")),
            ("ifs", wrap("if True then ", " else 0")),
            ("cases", wrap("case 0 of { _ -> ", " }")),
            ("dos", wrap("do { ", " }")),
            ("negations", wrap("- ", "")),
            ("cons chains", wrap("1 : ", "[]")),
            ("dollar chains", wrap("f $ ", "")),
            ("sections", wrap("(+ ", ")")),
            (
                "patterns",
                format!("\\{} -> 1", wrap("(", ")").replace('1', "x")),
            ),
            (
                "list patterns",
                format!("\\{} -> 1", wrap("[", "]").replace('1', "x")),
            ),
        ]
    }

    #[test]
    fn nesting_within_the_budget_parses() {
        for (form, src) in nested_forms(NESTING_BUDGET as usize / 2) {
            parse_expr_src(&src).unwrap_or_else(|e| panic!("{form}: {e}"));
        }
        let deep = "(".repeat(NESTING_BUDGET as usize) + "1" + &")".repeat(NESTING_BUDGET as usize);
        parse_expr_src(&deep).expect("the budget's own depth parses");
    }

    #[test]
    fn nesting_beyond_the_budget_is_a_syntax_error() {
        for (form, src) in nested_forms(10 * NESTING_BUDGET as usize) {
            let err = match parse_expr_src(&src) {
                Err(SyntaxError::Parse(e)) => e,
                other => panic!("{form}: expected a parse error, got {other:?}"),
            };
            let want = format!("input nests deeper than {NESTING_BUDGET} levels");
            assert_eq!(err.message, want, "{form}");
        }
        let over = "(".repeat(NESTING_BUDGET as usize + 1)
            + "1"
            + &")".repeat(NESTING_BUDGET as usize + 1);
        let err = parse_error(&over);
        assert_eq!(
            err.pos,
            Pos {
                line: 1,
                col: NESTING_BUDGET + 1
            }
        );
        // Nested signatures and where blocks count too.
        let ty = "f :: ".to_string() + &"Int -> ".repeat(10 * NESTING_BUDGET as usize) + "Int";
        assert!(parse_program(&ty).is_err());
    }

    #[test]
    fn a_failed_parse_leaves_the_next_one_a_clean_slate() {
        assert!(parse_expr_src("(1 +").is_err());
        assert!(parse_expr_src(&"(".repeat(3000)).is_err());
        assert_eq!(expr("[1, \"a\"]"), "[1 \"a\"]");
    }
}
