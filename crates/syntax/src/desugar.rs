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
use crate::matchc::{compile_match, DesugarError, Row, RowRhs};
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
    // Pass 1: data declarations.
    for d in &prog.decls {
        if let Decl::Data(data) = d {
            env.add_data(data)
                .map_err(|e| DesugarError(e.to_string()))?;
        }
    }
    // Pass 2: bindings and signatures.
    let mut out = CoreProgram::default();
    let bindish: Vec<&Decl> = prog
        .decls
        .iter()
        .filter(|d| !matches!(d, Decl::Data(_)))
        .collect();
    desugar_bindings(&bindish, env, &mut out.binds, &mut out.sigs)?;
    Ok(out)
}

/// Desugars a single expression (REPL / test entry point).
///
/// # Errors
///
/// Returns [`DesugarError`] for unknown constructors or malformed sugar.
pub fn desugar_expr(e: &SExpr, env: &DataEnv) -> Result<Expr, DesugarError> {
    expr(e, env)
}

/// Groups adjacent equations of the same name and desugars every binding.
fn desugar_bindings(
    decls: &[&Decl],
    env: &DataEnv,
    binds: &mut Vec<(Symbol, Rc<Expr>)>,
    sigs: &mut Vec<(Symbol, SType)>,
) -> Result<(), DesugarError> {
    let mut i = 0;
    while i < decls.len() {
        match decls[i] {
            Decl::Sig(name, ty) => {
                sigs.push((*name, ty.clone()));
                i += 1;
            }
            Decl::Data(_) => {
                return Err(DesugarError(
                    "data declarations are only allowed at the top level".into(),
                ))
            }
            Decl::Bind(first) => {
                let name = first.name;
                let mut clauses = vec![first.clone()];
                i += 1;
                while i < decls.len() {
                    match decls[i] {
                        Decl::Bind(c) if c.name == name => {
                            clauses.push(c.clone());
                            i += 1;
                        }
                        _ => break,
                    }
                }
                if binds.iter().any(|(n, _)| *n == name) {
                    return Err(DesugarError(format!(
                        "multiple non-adjacent definitions of '{name}'"
                    )));
                }
                let rhs = desugar_clauses(name, &clauses, env)?;
                binds.push((name, Rc::new(rhs)));
            }
        }
    }
    Ok(())
}

/// Desugars one group of equations into a single core expression.
fn desugar_clauses(name: Symbol, clauses: &[Clause], env: &DataEnv) -> Result<Expr, DesugarError> {
    let arity = clauses[0].pats.len();
    if clauses.iter().any(|c| c.pats.len() != arity) {
        return Err(DesugarError(format!(
            "equations for '{name}' have differing numbers of arguments"
        )));
    }
    let fail = Expr::raise(Expr::con(
        Known::PatternMatchFail,
        [name.with_str(Expr::str)],
    ));

    if arity == 0 {
        if clauses.len() > 1 {
            return Err(DesugarError(format!(
                "multiple equations for pattern-less binding '{name}'"
            )));
        }
        let c = &clauses[0];
        return rhs_expr(&c.rhs, &c.wheres, fail, env);
    }

    let args: Vec<Symbol> = (0..arity).map(|_| Symbol::fresh(Hint::A)).collect();
    let rows = clauses
        .iter()
        .map(|c| {
            Ok(Row {
                pats: c.pats.clone(),
                rhs: clause_rhs(&c.rhs, &c.wheres, env)?,
            })
        })
        .collect::<Result<Vec<_>, DesugarError>>()?;
    let body = compile_match(env, &args, rows, fail)?;
    Ok(Expr::lams(args, body))
}

/// Desugars a clause's rhs (with its `where` block) into a match-compiler
/// [`RowRhs`], so guard fall-through is handled by the compiler.
fn clause_rhs(rhs: &Rhs, wheres: &[Decl], env: &DataEnv) -> Result<RowRhs, DesugarError> {
    match rhs {
        Rhs::Plain(e) => Ok(RowRhs::Plain(wrap_where(expr(e, env)?, wheres, env)?)),
        Rhs::Guarded(gs) => {
            // `where` scopes over the guards as well as the bodies, so wrap
            // each compiled guard/body pair. (The match compiler sequences
            // the pairs.)
            let mut out = Vec::with_capacity(gs.len());
            for (g, e) in gs {
                out.push((
                    wrap_where(expr(g, env)?, wheres, env)?,
                    wrap_where(expr(e, env)?, wheres, env)?,
                ));
            }
            Ok(RowRhs::Guarded(out))
        }
    }
}

/// Desugars an rhs directly to an expression with an explicit guard
/// fallback (used for pattern-less bindings).
fn rhs_expr(
    rhs: &Rhs,
    wheres: &[Decl],
    fallback: Expr,
    env: &DataEnv,
) -> Result<Expr, DesugarError> {
    match rhs {
        Rhs::Plain(e) => wrap_where(expr(e, env)?, wheres, env),
        Rhs::Guarded(gs) => {
            let mut acc = fallback;
            for (g, e) in gs.iter().rev() {
                acc = Expr::case(
                    expr(g, env)?,
                    vec![
                        Alt::con(Known::True, vec![], expr(e, env)?),
                        Alt::con(Known::False, vec![], acc),
                    ],
                );
            }
            wrap_where(acc, wheres, env)
        }
    }
}

/// Wraps `body` in the bindings of a `where`/`let` declaration list.
fn wrap_where(body: Expr, decls: &[Decl], env: &DataEnv) -> Result<Expr, DesugarError> {
    if decls.is_empty() {
        return Ok(body);
    }
    let refs: Vec<&Decl> = decls.iter().collect();
    let mut binds = Vec::new();
    let mut sigs = Vec::new();
    desugar_bindings(&refs, env, &mut binds, &mut sigs)?;
    Ok(make_let(binds, body))
}

/// Builds `let`/`letrec` from a binding group: non-recursive groups become
/// a chain of plain `let`s (preserving the simplest form for the
/// transformation laws), recursive groups a single `letrec`.
fn make_let(binds: Vec<(Symbol, Rc<Expr>)>, body: Expr) -> Expr {
    if binds.is_empty() {
        return body;
    }
    let names: Vec<Symbol> = binds.iter().map(|(n, _)| *n).collect();
    let recursive = binds
        .iter()
        .any(|(_, rhs)| rhs.free_vars().iter().any(|v| names.contains(v)));
    if recursive {
        Expr::LetRec(binds, Rc::new(body))
    } else {
        binds
            .into_iter()
            .rev()
            .fold(body, |acc, (n, rhs)| Expr::Let(n, rhs, Rc::new(acc)))
    }
}

/// Desugars one expression.
fn expr(e: &SExpr, env: &DataEnv) -> Result<Expr, DesugarError> {
    match e {
        SExpr::Var(_) | SExpr::Con(_) | SExpr::App(_, _) => app_spine(e, env),
        SExpr::Int(n) => Ok(Expr::Int(*n)),
        SExpr::Char(c) => Ok(Expr::Char(*c)),
        SExpr::Str(s) => Ok(Expr::Str(Rc::from(s.as_str()))),
        SExpr::Lam(pats, body) => {
            let body = expr(body, env)?;
            lam_with_pats(pats, body, env)
        }
        SExpr::Let(decls, body) => {
            let body = expr(body, env)?;
            wrap_where(body, decls, env)
        }
        SExpr::Case(scrut, alts) => {
            let scrut = expr(scrut, env)?;
            let rows = alts
                .iter()
                .map(|a| {
                    Ok(Row {
                        pats: vec![a.pat.clone()],
                        rhs: clause_rhs(&a.rhs, &[], env)?,
                    })
                })
                .collect::<Result<Vec<_>, DesugarError>>()?;
            let fail = Expr::raise(Expr::con(Known::PatternMatchFail, [Expr::str("case")]));
            // Scrutinise via a variable so the match compiler can re-test
            // it; when the compiled match uses the variable at most once,
            // substitute the scrutinee back in to keep the direct
            // `case e of ...` shape the transformation engine expects.
            if let Expr::Var(v) = scrut {
                compile_match(env, &[v], rows, fail)
            } else {
                let v = Symbol::fresh(Hint::S);
                let m = compile_match(env, &[v], rows, fail)?;
                if m.count_var(v) <= 1 {
                    Ok(m.subst(v, &scrut))
                } else {
                    Ok(Expr::let_(v, scrut, m))
                }
            }
        }
        SExpr::If(c, t, f) => Ok(Expr::case(
            expr(c, env)?,
            vec![
                Alt::con(Known::True, vec![], expr(t, env)?),
                Alt::con(Known::False, vec![], expr(f, env)?),
            ],
        )),
        SExpr::Do(stmts) => do_block(stmts, env),
        SExpr::BinOp(op, l, r) => binop(*op, l, r, env),
        SExpr::Neg(e) => Ok(Expr::prim(PrimOp::Neg, [expr(e, env)?])),
        SExpr::Tuple(items) => {
            let con = if items.len() == 2 {
                Known::Pair
            } else {
                Known::Triple
            };
            let args = items
                .iter()
                .map(|i| expr(i, env))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expr::con(con, args))
        }
        SExpr::List(items) => {
            let mut acc = Expr::con(Known::Nil, []);
            for i in items.iter().rev() {
                acc = Expr::con(Known::Cons, [expr(i, env)?, acc]);
            }
            Ok(acc)
        }
        SExpr::SectionL(lhs, op) => {
            let r = Symbol::fresh(Hint::R);
            let body = binop(*op, lhs, &SExpr::Var(r), env)?;
            Ok(Expr::Lam(r, Rc::new(body)))
        }
        SExpr::SectionR(op, rhs) => {
            let l = Symbol::fresh(Hint::L);
            let body = binop(*op, &SExpr::Var(l), rhs, env)?;
            Ok(Expr::Lam(l, Rc::new(body)))
        }
        SExpr::OpSection(op) => {
            let a = Symbol::fresh(Hint::L);
            let b = Symbol::fresh(Hint::R);
            let body = binop(*op, &SExpr::Var(a), &SExpr::Var(b), env)?;
            Ok(Expr::lams([a, b], body))
        }
    }
}

/// Desugars a lambda whose parameters may be non-variable patterns.
fn lam_with_pats(pats: &[Pat], body: Expr, env: &DataEnv) -> Result<Expr, DesugarError> {
    if pats.iter().all(|p| matches!(p, Pat::Var(_))) {
        let vars = pats.iter().map(|p| match p {
            Pat::Var(v) => *v,
            _ => unreachable!(),
        });
        return Ok(Expr::lams(vars, body));
    }
    let args: Vec<Symbol> = (0..pats.len()).map(|_| Symbol::fresh(Hint::P)).collect();
    let fail = Expr::raise(Expr::con(Known::PatternMatchFail, [Expr::str("lambda")]));
    let m = compile_match(
        env,
        &args,
        vec![Row {
            pats: pats.to_vec(),
            rhs: RowRhs::Plain(body),
        }],
        fail,
    )?;
    Ok(Expr::lams(args, m))
}

/// Desugars `do { stmts }`.
fn do_block(stmts: &[Stmt], env: &DataEnv) -> Result<Expr, DesugarError> {
    let (last, init) = stmts.split_last().expect("parser rejects empty do");
    let Stmt::Expr(last) = last else {
        return Err(DesugarError(
            "the last statement of a 'do' block must be an expression".into(),
        ));
    };
    let mut acc = expr(last, env)?;
    for s in init.iter().rev() {
        acc = match s {
            Stmt::Expr(e) => {
                // e >> acc  ==  Bind e (\_ -> acc)
                let k = Expr::lam(Symbol::fresh(Hint::U), acc);
                Expr::con(Known::Bind, [expr(e, env)?, k])
            }
            Stmt::Bind(p, e) => {
                let k = match p {
                    Pat::Var(v) => Expr::Lam(*v, Rc::new(acc)),
                    _ => lam_with_pats(std::slice::from_ref(p), acc, env)?,
                };
                Expr::con(Known::Bind, [expr(e, env)?, k])
            }
            Stmt::Let(decls) => wrap_where(acc, decls, env)?,
        };
    }
    Ok(acc)
}

/// Desugars a binary operator application.
fn binop(op: Symbol, l: &SExpr, r: &SExpr, env: &DataEnv) -> Result<Expr, DesugarError> {
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
    let prim = |p: PrimOp, l: Expr, r: Expr| Ok(Expr::prim(p, [l, r]));
    match Known::find(op, OPERATORS) {
        Some(K::Plus) => prim(PrimOp::Add, expr(l, env)?, expr(r, env)?),
        Some(K::Minus) => prim(PrimOp::Sub, expr(l, env)?, expr(r, env)?),
        Some(K::Times) => prim(PrimOp::Mul, expr(l, env)?, expr(r, env)?),
        Some(K::Divide) => prim(PrimOp::Div, expr(l, env)?, expr(r, env)?),
        Some(K::Percent) => prim(PrimOp::Mod, expr(l, env)?, expr(r, env)?),
        Some(K::EqEq) => prim(PrimOp::IntEq, expr(l, env)?, expr(r, env)?),
        Some(K::Less) => prim(PrimOp::IntLt, expr(l, env)?, expr(r, env)?),
        Some(K::LessEq) => prim(PrimOp::IntLe, expr(l, env)?, expr(r, env)?),
        Some(K::Greater) => prim(PrimOp::IntGt, expr(l, env)?, expr(r, env)?),
        Some(K::GreaterEq) => prim(PrimOp::IntGe, expr(l, env)?, expr(r, env)?),
        Some(K::NotEq) => {
            // not (l == r)
            let eq = Expr::prim(PrimOp::IntEq, [expr(l, env)?, expr(r, env)?]);
            Ok(Expr::case(
                eq,
                vec![
                    Alt::con(Known::True, vec![], Expr::bool(false)),
                    Alt::con(Known::False, vec![], Expr::bool(true)),
                ],
            ))
        }
        Some(K::Colon) => Ok(Expr::con(Known::Cons, [expr(l, env)?, expr(r, env)?])),
        Some(K::PlusPlus) => Ok(Expr::apps(
            Expr::var(Known::Append),
            [expr(l, env)?, expr(r, env)?],
        )),
        Some(K::AndAnd) => Ok(Expr::case(
            expr(l, env)?,
            vec![
                Alt::con(Known::True, vec![], expr(r, env)?),
                Alt::con(Known::False, vec![], Expr::bool(false)),
            ],
        )),
        Some(K::OrOr) => Ok(Expr::case(
            expr(l, env)?,
            vec![
                Alt::con(Known::True, vec![], Expr::bool(true)),
                Alt::con(Known::False, vec![], expr(r, env)?),
            ],
        )),
        Some(K::Compose) => {
            // f . g  ==>  \x -> f (g x)
            let x = Symbol::fresh(Hint::X);
            let f = expr(l, env)?;
            let g = expr(r, env)?;
            Ok(Expr::lam(x, Expr::app(f, Expr::app(g, Expr::Var(x)))))
        }
        Some(K::Dollar) => Ok(Expr::app(expr(l, env)?, expr(r, env)?)),
        Some(K::BindOp) => Ok(Expr::con(Known::Bind, [expr(l, env)?, expr(r, env)?])),
        Some(K::Then) => {
            let k = Expr::lam(Symbol::fresh(Hint::U), expr(r, env)?);
            Ok(Expr::con(Known::Bind, [expr(l, env)?, k]))
        }
        _ => {
            // Backtick application or an unknown operator: treat as a
            // function call `op l r`.
            app_spine(
                &SExpr::apps(SExpr::Var(op), vec![l.clone(), r.clone()]),
                env,
            )
        }
    }
}

/// Desugars an application spine `head a1 ... an`, saturating constructors,
/// primops and the IO builtins (eta-expanding when under-applied).
fn app_spine(e: &SExpr, env: &DataEnv) -> Result<Expr, DesugarError> {
    // Flatten the spine.
    let mut args = Vec::new();
    let mut head = e;
    while let SExpr::App(f, a) = head {
        args.push(&**a);
        head = f;
    }
    args.reverse();

    let mut core_args = args
        .iter()
        .map(|a| expr(a, env))
        .collect::<Result<Vec<_>, _>>()?;

    match head {
        SExpr::Con(c) => {
            let info = env
                .con(*c)
                .ok_or_else(|| DesugarError(format!("unknown constructor '{c}'")))?;
            let arity = info.arity();
            if core_args.len() > arity {
                return Err(DesugarError(format!(
                    "constructor '{c}' applied to {} arguments, expects {arity}",
                    core_args.len()
                )));
            }
            Ok(saturate_con(*c, arity, core_args))
        }
        SExpr::Var(v) => {
            if let Some(b) = builtin(*v) {
                let arity = builtin_arity(&b);
                if core_args.len() >= arity {
                    let rest = core_args.split_off(arity);
                    let applied = apply_builtin(&b, core_args);
                    Ok(Expr::apps(applied, rest))
                } else {
                    // Eta-expand the missing arguments.
                    let missing: Vec<Symbol> = (core_args.len()..arity)
                        .map(|_| Symbol::fresh(Hint::E))
                        .collect();
                    core_args.extend(missing.iter().map(|s| Expr::Var(*s)));
                    Ok(Expr::lams(missing, apply_builtin(&b, core_args)))
                }
            } else {
                Ok(Expr::apps(Expr::Var(*v), core_args))
            }
        }
        other => {
            let f = expr(other, env)?;
            Ok(Expr::apps(f, core_args))
        }
    }
}

/// Builds a (possibly eta-expanded) saturated constructor application.
fn saturate_con(c: Symbol, arity: usize, mut args: Vec<Expr>) -> Expr {
    if args.len() == arity {
        return Expr::con(c, args);
    }
    let missing: Vec<Symbol> = (args.len()..arity)
        .map(|_| Symbol::fresh(Hint::C))
        .collect();
    args.extend(missing.iter().map(|s| Expr::Var(*s)));
    Expr::lams(missing, Expr::con(c, args))
}

fn apply_builtin(b: &Builtin, args: Vec<Expr>) -> Expr {
    match b {
        Builtin::Prim(op) => Expr::Prim(*op, args.into_iter().map(Rc::new).collect()),
        Builtin::IoCon(name, _) => Expr::con(*name, args),
        Builtin::Raise => {
            let mut args = args;
            Expr::Raise(Rc::new(args.remove(0)))
        }
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
