//! The desugarer: surface AST → core language.
//!
//! Everything Haskell-flavoured is lowered here: multi-equation definitions
//! and nested patterns go through the match compiler, `do`-notation becomes
//! `Bind`/`Return` constructor values (§4.4 treats `IO` as an algebraic
//! data type), `if` becomes a Boolean `case`, operators become primops or
//! Prelude calls, and `raise`/`getException`/`mapException` & co. become
//! the corresponding core constructs.

use std::rc::Rc;

use crate::ast::*;
use crate::core::{Alt, CoreProgram, Expr, PrimOp};
use crate::dataenv::DataEnv;
use crate::matchc::{compile_match, normalize, DesugarError, Row, RowRhs};
use crate::{Hint, Known, Symbol};

/// What a built-in (non-Prelude, non-user) name desugars to.
#[derive(Copy, Clone)]
enum Builtin {
    /// A primitive operation of the given arity.
    Prim(PrimOp),
    /// An `IO` constructor with the given name and arity.
    IoCon(Known, usize),
    /// The `raise` construct itself (arity 1).
    Raise,
}

const BUILTINS: &[(Known, Builtin)] = &[
    (Known::Raise, Builtin::Raise),
    (Known::Seq, Builtin::Prim(PrimOp::Seq)),
    (Known::Negate, Builtin::Prim(PrimOp::Neg)),
    (Known::Ord, Builtin::Prim(PrimOp::Ord)),
    (Known::Chr, Builtin::Prim(PrimOp::Chr)),
    (Known::ShowInt, Builtin::Prim(PrimOp::ShowInt)),
    (Known::StrAppend, Builtin::Prim(PrimOp::StrAppend)),
    (Known::StrLen, Builtin::Prim(PrimOp::StrLen)),
    (Known::StrEq, Builtin::Prim(PrimOp::StrEq)),
    (Known::EqChar, Builtin::Prim(PrimOp::CharEq)),
    (Known::MapException, Builtin::Prim(PrimOp::MapExn)),
    (
        Known::UnsafeIsException,
        Builtin::Prim(PrimOp::UnsafeIsException),
    ),
    (
        Known::UnsafeGetException,
        Builtin::Prim(PrimOp::UnsafeGetException),
    ),
    (Known::ReturnFn, Builtin::IoCon(Known::Return, 1)),
    (Known::GetCharFn, Builtin::IoCon(Known::GetChar, 0)),
    (Known::PutCharFn, Builtin::IoCon(Known::PutChar, 1)),
    (Known::PutStrFn, Builtin::IoCon(Known::PutStr, 1)),
    (
        Known::GetExceptionFn,
        Builtin::IoCon(Known::GetException, 1),
    ),
    (Known::ForkIo, Builtin::IoCon(Known::Fork, 1)),
    (Known::YieldFn, Builtin::IoCon(Known::Yield, 0)),
    (Known::NewMVarFn, Builtin::IoCon(Known::NewMVar, 1)),
    (
        Known::NewEmptyMVarFn,
        Builtin::IoCon(Known::NewEmptyMVar, 0),
    ),
    (Known::TakeMVarFn, Builtin::IoCon(Known::TakeMVar, 1)),
    (Known::PutMVarFn, Builtin::IoCon(Known::PutMVar, 2)),
    (Known::ThrowToFn, Builtin::IoCon(Known::ThrowTo, 2)),
];

fn builtin(name: Symbol) -> Option<Builtin> {
    BUILTINS.iter().find(|(k, _)| k.is(name)).map(|&(_, b)| b)
}

fn builtin_arity(b: &Builtin) -> usize {
    match b {
        Builtin::Prim(op) => op.arity(),
        Builtin::IoCon(_, n) => *n,
        Builtin::Raise => 1,
    }
}

/// Desugars a whole surface program.
///
/// `data` declarations are added to `env`; bindings become one mutually
/// recursive top-level group.
///
/// # Errors
///
/// Returns [`DesugarError`] for malformed declarations (inconsistent
/// equation arities, unknown constructors, unsaturatable constructor
/// applications, ...).
pub fn desugar_program(
    prog: &SurfaceProgram,
    env: &mut DataEnv,
) -> Result<CoreProgram, DesugarError> {
    let ast = &prog.ast;
    // Pass 1: data declarations.
    for d in ast.items(prog.decls) {
        if let Decl::Data(data) = ast[d] {
            env.add_data(&ast[data])
                .map_err(|e| DesugarError(e.to_string()))?;
        }
    }
    // Pass 2: bindings and signatures.
    let mut out = CoreProgram::default();
    Desugarer { ast, env }.bindings(prog.decls, true, &mut out.binds, &mut out.sigs)?;
    Ok(out)
}

/// Desugars a single expression (REPL / test entry point).
///
/// # Errors
///
/// Returns [`DesugarError`] for unknown constructors or malformed sugar.
pub fn desugar_expr(e: &SurfaceExpr, env: &DataEnv) -> Result<Expr, DesugarError> {
    Desugarer { ast: &e.ast, env }.expr(e.root)
}

/// An operand of a binary operator: a surface expression, or the variable
/// a section binds.
#[derive(Copy, Clone)]
enum Operand {
    Tree(ExprId),
    Var(Symbol),
}

/// Desugaring reads one surface tree against one constructor environment.
struct Desugarer<'a> {
    ast: &'a Ast,
    env: &'a DataEnv,
}

impl Desugarer<'_> {
    /// Groups adjacent equations of the same name and desugars every
    /// binding of `decls`. At the top level `data` declarations (already
    /// added to the environment) are skipped, so they separate no
    /// equations; elsewhere they are an error.
    fn bindings(
        &self,
        decls: List<Decl>,
        top_level: bool,
        binds: &mut Vec<(Symbol, Rc<Expr>)>,
        sigs: &mut Vec<(Symbol, SType)>,
    ) -> Result<(), DesugarError> {
        let ast = self.ast;
        let mut i = 0;
        while i < decls.len() {
            match ast[ast.item(decls, i)] {
                Decl::Data(_) if top_level => i += 1,
                Decl::Data(_) => {
                    return Err(DesugarError(
                        "data declarations are only allowed at the top level".into(),
                    ))
                }
                Decl::Sig(name, ty) => {
                    sigs.push((name, ast[ty].clone()));
                    i += 1;
                }
                Decl::Bind(first) => {
                    let name = first.name;
                    let start = i;
                    i += 1;
                    while i < decls.len() {
                        match ast[ast.item(decls, i)] {
                            Decl::Bind(c) if c.name == name => i += 1,
                            Decl::Data(_) if top_level => i += 1,
                            _ => break,
                        }
                    }
                    if binds.iter().any(|(n, _)| *n == name) {
                        return Err(DesugarError(format!(
                            "multiple non-adjacent definitions of '{name}'"
                        )));
                    }
                    let rhs = self.clauses(name, decls.skip(start).take(i - start))?;
                    binds.push((name, Rc::new(rhs)));
                }
            }
        }
        Ok(())
    }

    /// Desugars one group of equations (the bindings among `group`) into a
    /// single core expression.
    fn clauses(&self, name: Symbol, group: List<Decl>) -> Result<Expr, DesugarError> {
        let ast = self.ast;
        let clauses = ast.items(group).filter_map(|d| match ast[d] {
            Decl::Bind(c) => Some(c),
            _ => None,
        });
        let first = clauses
            .clone()
            .next()
            .expect("a group starts with an equation");
        let arity = first.pats.len();
        if clauses.clone().any(|c| c.pats.len() != arity) {
            return Err(DesugarError(format!(
                "equations for '{name}' have differing numbers of arguments"
            )));
        }
        let fail = Expr::raise(Expr::con(
            Known::PatternMatchFail,
            [name.with_str(Expr::str)],
        ));

        if arity == 0 {
            if clauses.count() > 1 {
                return Err(DesugarError(format!(
                    "multiple equations for pattern-less binding '{name}'"
                )));
            }
            return self.rhs_expr(first.rhs, first.wheres, fail);
        }

        let args: Vec<Symbol> = (0..arity).map(|_| Symbol::fresh(Hint::A)).collect();
        let rows = clauses
            .map(|c| {
                Ok(Row {
                    pats: ast.items(c.pats).map(|p| normalize(ast, p)).collect(),
                    rhs: self.clause_rhs(c.rhs, c.wheres)?,
                })
            })
            .collect::<Result<Vec<_>, DesugarError>>()?;
        let body = compile_match(self.env, &args, rows, fail)?;
        Ok(lams(&args, body))
    }

    /// Desugars a clause's rhs (with its `where` block) into a
    /// match-compiler [`RowRhs`], so guard fall-through is handled by the
    /// compiler.
    fn clause_rhs(&self, rhs: Rhs, wheres: List<Decl>) -> Result<RowRhs, DesugarError> {
        match rhs {
            Rhs::Plain(e) => Ok(RowRhs::Plain(self.wrap_where(self.expr(e)?, wheres)?)),
            Rhs::Guarded(gs) => {
                // `where` scopes over the guards as well as the bodies, so
                // wrap each compiled guard/body pair. (The match compiler
                // sequences the pairs.)
                let mut out = Vec::with_capacity(gs.len());
                for g in self.ast.items(gs) {
                    let Guard { cond, body } = self.ast[g];
                    out.push((
                        self.wrap_where(self.expr(cond)?, wheres)?,
                        self.wrap_where(self.expr(body)?, wheres)?,
                    ));
                }
                Ok(RowRhs::Guarded(out))
            }
        }
    }

    /// Desugars an rhs directly to an expression with an explicit guard
    /// fallback (used for pattern-less bindings).
    fn rhs_expr(&self, rhs: Rhs, wheres: List<Decl>, fallback: Expr) -> Result<Expr, DesugarError> {
        match rhs {
            Rhs::Plain(e) => self.wrap_where(self.expr(e)?, wheres),
            Rhs::Guarded(gs) => {
                let mut acc = fallback;
                for g in self.ast.items(gs).rev() {
                    let Guard { cond, body } = self.ast[g];
                    acc = Expr::case(
                        self.expr(cond)?,
                        vec![
                            Alt::con(Known::True, vec![], self.expr(body)?),
                            Alt::con(Known::False, vec![], acc),
                        ],
                    );
                }
                self.wrap_where(acc, wheres)
            }
        }
    }

    /// Wraps `body` in the bindings of a `where`/`let` declaration list.
    fn wrap_where(&self, body: Expr, decls: List<Decl>) -> Result<Expr, DesugarError> {
        if decls.is_empty() {
            return Ok(body);
        }
        let mut binds = Vec::new();
        let mut sigs = Vec::new();
        self.bindings(decls, false, &mut binds, &mut sigs)?;
        Ok(make_let(binds, body))
    }

    /// Desugars one expression.
    fn expr(&self, id: ExprId) -> Result<Expr, DesugarError> {
        let ast = self.ast;
        match ast[id] {
            SExpr::Var(_) | SExpr::Con(_) => self.apply(id, Vec::new()),
            SExpr::App(head, args) => match ast[head] {
                // A call of an ordinary function: no temporary argument
                // vector.
                SExpr::Var(f) if builtin(f).is_none() => {
                    ast.items(args).try_fold(Expr::Var(f), |acc, a| {
                        Ok(Expr::App(Rc::new(acc), Rc::new(self.expr(a)?)))
                    })
                }
                _ => self.apply(head, self.exprs(args)?),
            },
            SExpr::Int(n) => Ok(Expr::Int(n)),
            SExpr::Char(c) => Ok(Expr::Char(c)),
            SExpr::Str(s) => Ok(Expr::Str(Rc::clone(&ast[s]))),
            SExpr::Lam(pats, body) => {
                let body = self.expr(body)?;
                self.lam_with_pats(ast.items(pats), body)
            }
            SExpr::Let(decls, body) => {
                let body = self.expr(body)?;
                self.wrap_where(body, decls)
            }
            SExpr::Case(scrut, alts) => {
                let scrut = self.expr(scrut)?;
                let rows = ast
                    .items(alts)
                    .map(|a| {
                        let CaseAlt { pat, rhs } = ast[a];
                        Ok(Row {
                            pats: vec![normalize(ast, pat)],
                            rhs: self.clause_rhs(rhs, List::EMPTY)?,
                        })
                    })
                    .collect::<Result<Vec<_>, DesugarError>>()?;
                let fail = Expr::raise(Expr::con(Known::PatternMatchFail, [Expr::str("case")]));
                // Scrutinise via a variable so the match compiler can
                // re-test it; when the compiled match uses the variable at
                // most once, substitute the scrutinee back in to keep the
                // direct `case e of ...` shape the transformation engine
                // expects.
                if let Expr::Var(v) = scrut {
                    compile_match(self.env, &[v], rows, fail)
                } else {
                    let v = Symbol::fresh(Hint::S);
                    let m = compile_match(self.env, &[v], rows, fail)?;
                    if m.count_var(v) <= 1 {
                        Ok(m.subst(v, &scrut))
                    } else {
                        Ok(Expr::let_(v, scrut, m))
                    }
                }
            }
            SExpr::If(c, t, f) => Ok(Expr::case(
                self.expr(c)?,
                vec![
                    Alt::con(Known::True, vec![], self.expr(t)?),
                    Alt::con(Known::False, vec![], self.expr(f)?),
                ],
            )),
            SExpr::Do(stmts) => self.do_block(stmts),
            SExpr::BinOp(op, l, r) => self.binop(op, Operand::Tree(l), Operand::Tree(r)),
            SExpr::Neg(e) => Ok(Expr::prim(PrimOp::Neg, [self.expr(e)?])),
            SExpr::Tuple(items) => {
                let con = if items.len() == 2 {
                    Known::Pair
                } else {
                    Known::Triple
                };
                Ok(Expr::Con(con.symbol(), self.exprs(items)?))
            }
            SExpr::List(items) => {
                let mut acc = Expr::con(Known::Nil, []);
                for i in ast.items(items).rev() {
                    acc = Expr::con(Known::Cons, [self.expr(i)?, acc]);
                }
                Ok(acc)
            }
            SExpr::SectionL(lhs, op) => {
                let r = Symbol::fresh(Hint::R);
                let body = self.binop(op, Operand::Tree(lhs), Operand::Var(r))?;
                Ok(Expr::Lam(r, Rc::new(body)))
            }
            SExpr::SectionR(op, rhs) => {
                let l = Symbol::fresh(Hint::L);
                let body = self.binop(op, Operand::Var(l), Operand::Tree(rhs))?;
                Ok(Expr::Lam(l, Rc::new(body)))
            }
            SExpr::OpSection(op) => {
                let a = Symbol::fresh(Hint::L);
                let b = Symbol::fresh(Hint::R);
                let body = self.binop(op, Operand::Var(a), Operand::Var(b))?;
                Ok(lams(&[a, b], body))
            }
        }
    }

    /// Desugars every expression of `items`, in order.
    fn exprs(&self, items: List<SExpr>) -> Result<Vec<Rc<Expr>>, DesugarError> {
        self.ast
            .items(items)
            .map(|e| self.expr(e).map(Rc::new))
            .collect()
    }

    fn operand(&self, o: Operand) -> Result<Expr, DesugarError> {
        match o {
            Operand::Tree(e) => self.expr(e),
            Operand::Var(v) => Ok(Expr::Var(v)),
        }
    }

    /// Desugars a lambda whose parameters may be non-variable patterns.
    fn lam_with_pats(
        &self,
        pats: impl DoubleEndedIterator<Item = PatId> + ExactSizeIterator + Clone,
        body: Expr,
    ) -> Result<Expr, DesugarError> {
        let ast = self.ast;
        let var = |p: PatId| match ast[p] {
            Pat::Var(v) => Some(v),
            _ => None,
        };
        if pats.clone().all(|p| var(p).is_some()) {
            return Ok(pats.rev().fold(body, |acc, p| {
                Expr::Lam(var(p).expect("a variable"), Rc::new(acc))
            }));
        }
        let args: Vec<Symbol> = (0..pats.len()).map(|_| Symbol::fresh(Hint::P)).collect();
        let fail = Expr::raise(Expr::con(Known::PatternMatchFail, [Expr::str("lambda")]));
        let row = Row {
            pats: pats.map(|p| normalize(ast, p)).collect(),
            rhs: RowRhs::Plain(body),
        };
        let m = compile_match(self.env, &args, vec![row], fail)?;
        Ok(lams(&args, m))
    }

    /// Desugars `do { stmts }`.
    fn do_block(&self, stmts: List<Stmt>) -> Result<Expr, DesugarError> {
        let ast = self.ast;
        let (init, last) = (stmts.take(stmts.len() - 1), stmts.skip(stmts.len() - 1));
        let Some(Stmt::Expr(last)) = ast.items(last).next().map(|s| ast[s]) else {
            return Err(DesugarError(
                "the last statement of a 'do' block must be an expression".into(),
            ));
        };
        let mut acc = self.expr(last)?;
        for s in ast.items(init).rev() {
            acc = match ast[s] {
                Stmt::Expr(e) => {
                    // e >> acc  ==  Bind e (\_ -> acc)
                    let k = Expr::lam(Symbol::fresh(Hint::U), acc);
                    Expr::con(Known::Bind, [self.expr(e)?, k])
                }
                Stmt::Bind(p, e) => {
                    let k = self.lam_with_pats(std::iter::once(p), acc)?;
                    Expr::con(Known::Bind, [self.expr(e)?, k])
                }
                Stmt::Let(decls) => self.wrap_where(acc, decls)?,
            };
        }
        Ok(acc)
    }

    /// Desugars a binary operator application.
    fn binop(&self, op: Symbol, l: Operand, r: Operand) -> Result<Expr, DesugarError> {
        use Known as K;
        const OPERATORS: &[Known] = &[
            K::Plus,
            K::Minus,
            K::Times,
            K::Divide,
            K::Percent,
            K::EqEq,
            K::Less,
            K::LessEq,
            K::Greater,
            K::GreaterEq,
            K::NotEq,
            K::Colon,
            K::PlusPlus,
            K::AndAnd,
            K::OrOr,
            K::Compose,
            K::Dollar,
            K::BindOp,
            K::Then,
        ];
        let prim = |p: PrimOp| -> Result<Expr, DesugarError> {
            Ok(Expr::prim(p, [self.operand(l)?, self.operand(r)?]))
        };
        match Known::find(op, OPERATORS) {
            Some(K::Plus) => prim(PrimOp::Add),
            Some(K::Minus) => prim(PrimOp::Sub),
            Some(K::Times) => prim(PrimOp::Mul),
            Some(K::Divide) => prim(PrimOp::Div),
            Some(K::Percent) => prim(PrimOp::Mod),
            Some(K::EqEq) => prim(PrimOp::IntEq),
            Some(K::Less) => prim(PrimOp::IntLt),
            Some(K::LessEq) => prim(PrimOp::IntLe),
            Some(K::Greater) => prim(PrimOp::IntGt),
            Some(K::GreaterEq) => prim(PrimOp::IntGe),
            Some(K::NotEq) => {
                // not (l == r)
                let eq = prim(PrimOp::IntEq)?;
                Ok(Expr::case(
                    eq,
                    vec![
                        Alt::con(Known::True, vec![], Expr::bool(false)),
                        Alt::con(Known::False, vec![], Expr::bool(true)),
                    ],
                ))
            }
            Some(K::Colon) => Ok(Expr::con(Known::Cons, [self.operand(l)?, self.operand(r)?])),
            Some(K::PlusPlus) => Ok(Expr::apps(
                Expr::var(Known::Append),
                [self.operand(l)?, self.operand(r)?],
            )),
            Some(K::AndAnd) => Ok(Expr::case(
                self.operand(l)?,
                vec![
                    Alt::con(Known::True, vec![], self.operand(r)?),
                    Alt::con(Known::False, vec![], Expr::bool(false)),
                ],
            )),
            Some(K::OrOr) => Ok(Expr::case(
                self.operand(l)?,
                vec![
                    Alt::con(Known::True, vec![], Expr::bool(true)),
                    Alt::con(Known::False, vec![], self.operand(r)?),
                ],
            )),
            Some(K::Compose) => {
                // f . g  ==>  \x -> f (g x)
                let x = Symbol::fresh(Hint::X);
                let f = self.operand(l)?;
                let g = self.operand(r)?;
                Ok(Expr::lam(x, Expr::app(f, Expr::app(g, Expr::Var(x)))))
            }
            Some(K::Dollar) => Ok(Expr::app(self.operand(l)?, self.operand(r)?)),
            Some(K::BindOp) => Ok(Expr::con(Known::Bind, [self.operand(l)?, self.operand(r)?])),
            Some(K::Then) => {
                let k = Expr::lam(Symbol::fresh(Hint::U), self.operand(r)?);
                Ok(Expr::con(Known::Bind, [self.operand(l)?, k]))
            }
            // Backtick application or an unknown operator: a call
            // `op l r`.
            _ => Ok(apply_var(
                op,
                vec![Rc::new(self.operand(l)?), Rc::new(self.operand(r)?)],
            )),
        }
    }

    /// Desugars the application of the surface `head` to the already
    /// desugared `args`, saturating constructors, primops and the IO
    /// builtins (eta-expanding when under-applied).
    fn apply(&self, head: ExprId, args: Vec<Rc<Expr>>) -> Result<Expr, DesugarError> {
        match self.ast[head] {
            SExpr::Con(c) => {
                let info = self
                    .env
                    .con(c)
                    .ok_or_else(|| DesugarError(format!("unknown constructor '{c}'")))?;
                let arity = info.arity();
                if args.len() > arity {
                    return Err(DesugarError(format!(
                        "constructor '{c}' applied to {} arguments, expects {arity}",
                        args.len()
                    )));
                }
                Ok(saturate_con(c, arity, args))
            }
            SExpr::Var(v) => Ok(apply_var(v, args)),
            _ => Ok(apps(self.expr(head)?, args)),
        }
    }
}

/// `f a1 ... an`.
fn apps(f: Expr, args: Vec<Rc<Expr>>) -> Expr {
    args.into_iter()
        .fold(f, |acc, a| Expr::App(Rc::new(acc), a))
}

/// `\x1 ... xn -> body`.
fn lams(xs: &[Symbol], body: Expr) -> Expr {
    xs.iter()
        .rev()
        .fold(body, |acc, &x| Expr::Lam(x, Rc::new(acc)))
}

/// The application of the variable `v` to `args`: a builtin saturated (or
/// eta-expanded), any other function called.
fn apply_var(v: Symbol, mut args: Vec<Rc<Expr>>) -> Expr {
    let Some(b) = builtin(v) else {
        return apps(Expr::Var(v), args);
    };
    let arity = builtin_arity(&b);
    if args.len() >= arity {
        let rest = args.split_off(arity);
        apps(apply_builtin(&b, args), rest)
    } else {
        // Eta-expand the missing arguments.
        let missing: Vec<Symbol> = (args.len()..arity)
            .map(|_| Symbol::fresh(Hint::E))
            .collect();
        args.extend(missing.iter().map(|s| Rc::new(Expr::Var(*s))));
        lams(&missing, apply_builtin(&b, args))
    }
}

/// Builds `let`/`letrec` from a binding group: non-recursive groups become
/// a chain of plain `let`s (preserving the simplest form for the
/// transformation laws), recursive groups a single `letrec`.
fn make_let(binds: Vec<(Symbol, Rc<Expr>)>, body: Expr) -> Expr {
    let recursive = binds
        .iter()
        .any(|(_, rhs)| binds.iter().any(|(n, _)| rhs.count_var(*n) > 0));
    if recursive {
        Expr::LetRec(binds, Rc::new(body))
    } else {
        binds
            .into_iter()
            .rev()
            .fold(body, |acc, (n, rhs)| Expr::Let(n, rhs, Rc::new(acc)))
    }
}

/// Builds a (possibly eta-expanded) saturated constructor application.
fn saturate_con(c: Symbol, arity: usize, mut args: Vec<Rc<Expr>>) -> Expr {
    if args.len() == arity {
        return Expr::Con(c, args);
    }
    let missing: Vec<Symbol> = (args.len()..arity)
        .map(|_| Symbol::fresh(Hint::C))
        .collect();
    args.extend(missing.iter().map(|s| Rc::new(Expr::Var(*s))));
    lams(&missing, Expr::Con(c, args))
}

fn apply_builtin(b: &Builtin, mut args: Vec<Rc<Expr>>) -> Expr {
    match b {
        Builtin::Prim(op) => Expr::Prim(*op, args),
        Builtin::IoCon(name, _) => Expr::Con(name.symbol(), args),
        Builtin::Raise => Expr::Raise(args.swap_remove(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_src, parse_program};

    fn de(src: &str) -> Expr {
        let env = DataEnv::new();
        desugar_expr(&parse_expr_src(src).expect("parses"), &env).expect("desugars")
    }

    fn dp(src: &str) -> CoreProgram {
        let mut env = DataEnv::new();
        desugar_program(&parse_program(src).expect("parses"), &mut env).expect("desugars")
    }

    #[test]
    fn headline_expression_desugars_to_core() {
        let e = de(r#"(1/0) + error "Urk""#);
        match &e {
            Expr::Prim(PrimOp::Add, args) => {
                assert!(matches!(&*args[0], Expr::Prim(PrimOp::Div, _)));
                assert!(matches!(&*args[1], Expr::App(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raise_is_special_cased() {
        let e = de("raise DivideByZero");
        assert!(matches!(e, Expr::Raise(_)));
        // Unapplied `raise` eta-expands.
        let e = de("raise");
        assert!(matches!(e, Expr::Lam(_, _)));
    }

    #[test]
    fn io_builtins_become_constructors() {
        assert!(
            matches!(de("getChar"), Expr::Con(c, ref a) if c.as_str() == "GetChar" && a.is_empty())
        );
        assert!(
            matches!(de("putChar 'x'"), Expr::Con(c, ref a) if c.as_str() == "PutChar" && a.len() == 1)
        );
        assert!(
            matches!(de("getException loop"), Expr::Con(c, ref a) if c.as_str() == "GetException" && a.len() == 1)
        );
        assert!(matches!(de("return 3"), Expr::Con(c, _) if c.as_str() == "Return"));
    }

    #[test]
    fn do_notation_becomes_bind_chain() {
        let e = de("do { c <- getChar; putChar c }");
        match &e {
            Expr::Con(bind, args) => {
                assert_eq!(bind.as_str(), "Bind");
                assert!(matches!(&*args[0], Expr::Con(g, _) if g.as_str() == "GetChar"));
                assert!(matches!(&*args[1], Expr::Lam(_, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_becomes_exhaustive_bool_case() {
        let e = de("if b then 1 else 2");
        let Expr::Case(_, alts) = &e else {
            panic!("{e:?}")
        };
        assert_eq!(alts.len(), 2);
    }

    #[test]
    fn list_literal_becomes_cons_chain() {
        let e = de("[1, 2]");
        let Expr::Con(c, args) = &e else {
            panic!("{e:?}")
        };
        assert_eq!(c.as_str(), "Cons");
        assert!(matches!(&*args[1], Expr::Con(c2, _) if c2.as_str() == "Cons"));
    }

    #[test]
    fn under_applied_constructor_eta_expands() {
        let e = de("Just");
        assert!(matches!(e, Expr::Lam(_, _)));
        let e = de("Cons 1");
        assert!(matches!(e, Expr::Lam(_, _)));
    }

    #[test]
    fn over_applied_constructor_is_rejected() {
        let env = DataEnv::new();
        let parsed = parse_expr_src("True 1").expect("parses");
        assert!(desugar_expr(&parsed, &env).is_err());
    }

    #[test]
    fn and_or_are_lazy_cases() {
        let e = de("a && b");
        let Expr::Case(_, alts) = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(&*alts[1].rhs, Expr::Con(c, _) if c.as_str() == "False"));
        let e = de("a || b");
        let Expr::Case(_, alts) = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(&*alts[0].rhs, Expr::Con(c, _) if c.as_str() == "True"));
    }

    #[test]
    fn multi_equation_function_compiles_to_lambda_case() {
        let p = dp("isNil [] = True\nisNil (x:xs) = False");
        assert_eq!(p.binds.len(), 1);
        let (name, body) = &p.binds[0];
        assert_eq!(name.as_str(), "isNil");
        let Expr::Lam(_, inner) = &**body else {
            panic!("{body:?}")
        };
        assert!(matches!(&**inner, Expr::Case(_, _)));
    }

    #[test]
    fn where_bindings_wrap_the_rhs() {
        let p = dp("loop = f True\n  where f x = f (not x)");
        let (_, body) = &p.binds[0];
        assert!(matches!(&**body, Expr::LetRec(_, _)));
    }

    #[test]
    fn non_recursive_let_becomes_plain_let() {
        let e = de("let x = 1 in x + x");
        assert!(matches!(e, Expr::Let(_, _, _)));
        let e = de("let f = \\x -> f x in f");
        assert!(matches!(e, Expr::LetRec(_, _)));
    }

    #[test]
    fn guards_on_nullary_binding() {
        let p = dp("classify | 1 < 2 = 1\n         | otherwise = 2");
        let (_, body) = &p.binds[0];
        assert!(matches!(&**body, Expr::Case(_, _)));
    }

    #[test]
    fn signatures_are_collected() {
        let p = dp("f :: Int -> Int\nf x = x");
        assert_eq!(p.sigs.len(), 1);
        assert_eq!(p.sigs[0].0.as_str(), "f");
    }

    #[test]
    fn dollar_is_application_and_compose_is_lambda() {
        let e = de("f $ 3");
        assert!(matches!(e, Expr::App(_, _)));
        let e = de("f . g");
        assert!(matches!(e, Expr::Lam(_, _)));
    }

    #[test]
    fn left_and_right_sections_desugar_to_lambdas() {
        let e = de("(+ 1)");
        let Expr::Lam(x, body) = &e else {
            panic!("{e:?}")
        };
        let Expr::Prim(PrimOp::Add, args) = &**body else {
            panic!()
        };
        assert!(matches!(&*args[0], Expr::Var(v) if v == x));
        assert!(matches!(&*args[1], Expr::Int(1)));

        let e2 = de("(2 *)");
        let Expr::Lam(y, body2) = &e2 else {
            panic!("{e2:?}")
        };
        let Expr::Prim(PrimOp::Mul, args2) = &**body2 else {
            panic!()
        };
        assert!(matches!(&*args2[0], Expr::Int(2)));
        assert!(matches!(&*args2[1], Expr::Var(v) if v == y));
    }

    #[test]
    fn operator_section_desugars_to_lambda() {
        let e = de("(+)");
        let Expr::Lam(_, b1) = &e else {
            panic!("{e:?}")
        };
        let Expr::Lam(_, b2) = &**b1 else { panic!() };
        assert!(matches!(&**b2, Expr::Prim(PrimOp::Add, _)));
    }

    #[test]
    fn duplicate_nonadjacent_definitions_rejected() {
        let mut env = DataEnv::new();
        let p = parse_program("f = 1\ng = 2\nf = 3").expect("parses");
        assert!(desugar_program(&p, &mut env).is_err());
    }

    #[test]
    fn case_with_guards_falls_through_rows() {
        let e = de("case n of { x | x > 0 -> 1; _ -> 0 }");
        // Shape: let s = n in ... or direct case on var n.
        match &e {
            Expr::Case(_, _) | Expr::Let(_, _, _) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tuple_desugars_to_pair_con() {
        let e = de("(1, 'a')");
        assert!(matches!(e, Expr::Con(c, _) if c.as_str() == "Pair"));
    }
}
