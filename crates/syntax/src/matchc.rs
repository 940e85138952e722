//! The pattern-match compiler: multi-equation definitions with nested
//! patterns and guards → core `case` trees.
//!
//! This is the classic algorithm from Wadler's chapter of *The
//! Implementation of Functional Programming Languages* (variable rule,
//! constructor rule, literal rule, mixture rule), with guard fall-through
//! compiled as nested Boolean `case`s.
//!
//! Inexhaustive matches compile to `raise (PatternMatchFail loc)` — this is
//! how the paper's `zipWith`/`head` examples acquire their exceptional
//! behaviour (§2, §3.2). When a `case` covers *all* constructors of the
//! scrutinised type, no failure alternative is generated; this matters
//! semantically, because the exception-finding mode of §4.3 unions the
//! exception sets of every alternative, and a spurious failure branch would
//! pollute the denotation.

use std::fmt;
use std::rc::Rc;

use crate::ast::{Ast, Pat, PatId};
use crate::core::{Alt, AltCon, Expr};
use crate::dataenv::DataEnv;
use crate::{Hint, Known, Symbol};

/// An error produced during match compilation or desugaring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DesugarError(pub String);

impl fmt::Display for DesugarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "desugar error: {}", self.0)
    }
}

impl std::error::Error for DesugarError {}

/// The right-hand side of one row of the match matrix. Guard conditions and
/// bodies are already-desugared core expressions whose free variables
/// include the pattern binders.
#[derive(Clone, Debug)]
pub(crate) enum RowRhs {
    Plain(Expr),
    /// `(guard, body)` pairs tried in order; if all guards fail, matching
    /// falls through to the next row.
    Guarded(Vec<(Expr, Expr)>),
}

/// One row: a list of normalized patterns (one per scrutinee) and its
/// right-hand side.
#[derive(Clone, Debug)]
pub(crate) struct Row {
    pub(crate) pats: Vec<NPat>,
    pub(crate) rhs: RowRhs,
}

/// A normalized pattern: surface sugar (tuples, list literals, infix cons)
/// resolved to plain constructor and literal patterns.
#[derive(Clone, Debug)]
pub(crate) enum NPat {
    Var(Symbol),
    Wild,
    Int(i64),
    Char(char),
    Str(Rc<str>),
    Con(Symbol, Vec<NPat>),
}

/// Normalizes the surface pattern `p` of `ast`.
pub(crate) fn normalize(ast: &Ast, p: PatId) -> NPat {
    match ast[p] {
        Pat::Var(v) => NPat::Var(v),
        Pat::Wild => NPat::Wild,
        Pat::Int(n) => NPat::Int(n),
        Pat::Char(c) => NPat::Char(c),
        Pat::Str(s) => NPat::Str(Rc::clone(&ast[s])),
        Pat::Con(c, ps) => NPat::Con(c, ast.items(ps).map(|p| normalize(ast, p)).collect()),
        Pat::Tuple(ps) => {
            let con = if ps.len() == 2 {
                Known::Pair
            } else {
                Known::Triple
            };
            NPat::Con(
                con.symbol(),
                ast.items(ps).map(|p| normalize(ast, p)).collect(),
            )
        }
        Pat::List(ps) => {
            let mut acc = NPat::Con(Known::Nil.symbol(), vec![]);
            for p in ast.items(ps).rev() {
                acc = NPat::Con(Known::Cons.symbol(), vec![normalize(ast, p), acc]);
            }
            acc
        }
        Pat::ConsInfix(h, t) => NPat::Con(
            Known::Cons.symbol(),
            vec![normalize(ast, h), normalize(ast, t)],
        ),
    }
}

impl NPat {
    fn is_irrefutable(&self) -> bool {
        matches!(self, NPat::Var(_) | NPat::Wild)
    }
}

/// Compiles a match matrix.
///
/// `scruts` are variables assumed bound to the values being matched (one
/// per column); `fallback` is evaluated if no row matches.
///
/// # Errors
///
/// Returns [`DesugarError`] for unknown constructors or arity mismatches.
pub(crate) fn compile_match(
    env: &DataEnv,
    scruts: &[Symbol],
    rows: Vec<Row>,
    fallback: Expr,
) -> Result<Expr, DesugarError> {
    if let Some(r) = rows.iter().find(|r| r.pats.len() != scruts.len()) {
        return Err(DesugarError(format!(
            "equation has {} pattern(s) but expected {}",
            r.pats.len(),
            scruts.len()
        )));
    }
    compile(env, scruts, rows, fallback)
}

fn compile(
    env: &DataEnv,
    scruts: &[Symbol],
    rows: Vec<Row>,
    fallback: Expr,
) -> Result<Expr, DesugarError> {
    if rows.is_empty() {
        return Ok(fallback);
    }
    if scruts.is_empty() {
        // All patterns matched; apply the first row's rhs, with guards
        // falling through to the remaining rows.
        let mut iter = rows.into_iter();
        let first = iter.next().expect("rows is non-empty");
        return Ok(match first.rhs {
            RowRhs::Plain(e) => e,
            RowRhs::Guarded(gs) => {
                let rest = compile(env, scruts, iter.collect(), fallback)?;
                guards_to_expr(gs, rest)
            }
        });
    }

    // Mixture rule: split off the maximal leading block of rows whose first
    // pattern has the same refutability.
    let head_irrefutable = rows[0].pats[0].is_irrefutable();
    let split = rows
        .iter()
        .position(|r| r.pats[0].is_irrefutable() != head_irrefutable)
        .unwrap_or(rows.len());
    let (block, rest): (Vec<Row>, Vec<Row>) = {
        let mut rows = rows;
        let rest = rows.split_off(split);
        (rows, rest)
    };
    let rest_expr = if rest.is_empty() {
        fallback
    } else {
        compile(env, scruts, rest, fallback)?
    };

    if head_irrefutable {
        // Variable rule: bind (by substitution) and drop the column.
        let scrut = scruts[0];
        let remaining = &scruts[1..];
        let rows2: Vec<Row> = block
            .into_iter()
            .map(|mut r| {
                let first = r.pats.remove(0);
                let rhs = match first {
                    NPat::Var(x) => subst_rhs(r.rhs, x, scrut),
                    NPat::Wild => r.rhs,
                    _ => unreachable!("irrefutable block"),
                };
                Row { pats: r.pats, rhs }
            })
            .collect();
        return compile(env, remaining, rows2, rest_expr);
    }

    // Constructor / literal rule.
    let scrut = scruts[0];
    let remaining = &scruts[1..];

    // Group rows by their leading constructor or literal, preserving first
    // occurrence order.
    let mut groups: Vec<(AltKey, Vec<Row>)> = Vec::new();
    for r in block {
        let key = alt_key(&r.pats[0]);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(r),
            None => groups.push((key, vec![r])),
        }
    }

    let mut alts = Vec::new();
    let mut covered_cons: Vec<Symbol> = Vec::new();
    let all_con_keys = groups.iter().all(|(k, _)| matches!(k, AltKey::Con(_)));

    for (key, group) in groups {
        match key {
            AltKey::Con(cname) => {
                let info = env
                    .con(cname)
                    .ok_or_else(|| DesugarError(format!("unknown constructor '{cname}'")))?;
                let arity = info.arity();
                covered_cons.push(cname);
                let binders: Vec<Symbol> = (0..arity).map(|_| Symbol::fresh(Hint::M)).collect();
                let mut sub_rows = Vec::new();
                for mut r in group {
                    let NPat::Con(_, args) = r.pats.remove(0) else {
                        unreachable!("constructor group")
                    };
                    if args.len() != arity {
                        return Err(DesugarError(format!(
                            "constructor '{cname}' applied to {} pattern(s), expected {arity}",
                            args.len()
                        )));
                    }
                    let mut pats = args;
                    pats.extend(r.pats);
                    sub_rows.push(Row { pats, rhs: r.rhs });
                }
                let mut sub_scruts = binders.clone();
                sub_scruts.extend_from_slice(remaining);
                let body = compile(env, &sub_scruts, sub_rows, rest_expr.clone())?;
                alts.push(Alt {
                    con: AltCon::Con(cname),
                    binders,
                    rhs: Rc::new(body),
                });
            }
            lit_key => {
                let con = match &lit_key {
                    AltKey::Int(n) => AltCon::Int(*n),
                    AltKey::Char(c) => AltCon::Char(*c),
                    AltKey::Str(s) => AltCon::Str(Rc::clone(s)),
                    AltKey::Con(_) => unreachable!(),
                };
                let mut sub_rows = Vec::new();
                for mut r in group {
                    r.pats.remove(0);
                    sub_rows.push(r);
                }
                let body = compile(env, remaining, sub_rows, rest_expr.clone())?;
                alts.push(Alt {
                    con,
                    binders: vec![],
                    rhs: Rc::new(body),
                });
            }
        }
    }

    // Omit the default alternative when the match is exhaustive over the
    // type's constructors (see module docs for why this matters).
    let exhaustive = all_con_keys
        && !covered_cons.is_empty()
        && env
            .siblings(covered_cons[0])
            .is_some_and(|sibs| sibs.iter().all(|s| covered_cons.contains(s)));
    if !exhaustive {
        alts.push(Alt::default(rest_expr));
    }

    Ok(Expr::Case(Rc::new(Expr::Var(scrut)), alts))
}

#[derive(Clone, PartialEq, Debug)]
enum AltKey {
    Con(Symbol),
    Int(i64),
    Char(char),
    Str(Rc<str>),
}

fn alt_key(p: &NPat) -> AltKey {
    match p {
        NPat::Con(c, _) => AltKey::Con(*c),
        NPat::Int(n) => AltKey::Int(*n),
        NPat::Char(c) => AltKey::Char(*c),
        NPat::Str(s) => AltKey::Str(Rc::clone(s)),
        NPat::Var(_) | NPat::Wild => unreachable!("refutable block"),
    }
}

fn subst_rhs(rhs: RowRhs, var: Symbol, scrut: Symbol) -> RowRhs {
    let v = Expr::Var(scrut);
    match rhs {
        RowRhs::Plain(e) => RowRhs::Plain(e.subst(var, &v)),
        RowRhs::Guarded(gs) => RowRhs::Guarded(
            gs.into_iter()
                .map(|(g, e)| (g.subst(var, &v), e.subst(var, &v)))
                .collect(),
        ),
    }
}

/// Compiles a guard chain: `case g1 of True -> e1; False -> (case g2 ...)`.
fn guards_to_expr(gs: Vec<(Expr, Expr)>, fallback: Expr) -> Expr {
    gs.into_iter().rev().fold(fallback, |acc, (g, e)| {
        Expr::case(
            g,
            vec![
                Alt::con(Known::True, vec![], e),
                Alt::con(Known::False, vec![], acc),
            ],
        )
    })
}

/// Reports the locations of potential pattern-match failures remaining in
/// a compiled expression: every residual `raise (PatternMatchFail loc)`
/// the match compiler planted. A location appearing here means the match
/// *may* fall through at runtime (guard chains that are total via
/// `otherwise` still report, as the compiler cannot see through guard
/// semantics — the same conservatism GHC's checker historically had).
pub fn potential_match_failures(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    collect_failures(e, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_failures(e: &Expr, out: &mut Vec<String>) {
    if let Expr::Raise(inner) = e {
        if let Expr::Con(c, args) = &**inner {
            if Known::PatternMatchFail.is(*c) {
                if let Some(Expr::Str(loc)) = args.first().map(|a| &**a) {
                    out.push(loc.to_string());
                }
            }
        }
    }
    match e {
        Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => {}
        Expr::Con(_, args) | Expr::Prim(_, args) => {
            args.iter().for_each(|a| collect_failures(a, out))
        }
        Expr::App(f, x) => {
            collect_failures(f, out);
            collect_failures(x, out);
        }
        Expr::Lam(_, b) | Expr::Raise(b) => collect_failures(b, out),
        Expr::Let(_, r, b) => {
            collect_failures(r, out);
            collect_failures(b, out);
        }
        Expr::LetRec(binds, b) => {
            binds.iter().for_each(|(_, r)| collect_failures(r, out));
            collect_failures(b, out);
        }
        Expr::Case(s, alts) => {
            collect_failures(s, out);
            alts.iter().for_each(|a| collect_failures(&a.rhs, out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SExpr;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn fallback() -> Expr {
        Expr::raise(Expr::con("PatternMatchFail", [Expr::str("test")]))
    }

    #[test]
    fn exhaustive_bool_match_has_no_default() {
        let env = DataEnv::new();
        let rows = vec![
            Row {
                pats: vec![NPat::Con(sym("True"), vec![])],
                rhs: RowRhs::Plain(Expr::int(1)),
            },
            Row {
                pats: vec![NPat::Con(sym("False"), vec![])],
                rhs: RowRhs::Plain(Expr::int(0)),
            },
        ];
        let e = compile_match(&env, &[sym("b")], rows, fallback()).expect("compiles");
        let Expr::Case(_, alts) = &e else {
            panic!("expected case, got {e:?}")
        };
        assert_eq!(alts.len(), 2);
        assert!(!alts.iter().any(|a| a.con == AltCon::Default));
    }

    #[test]
    fn inexhaustive_match_falls_back() {
        let env = DataEnv::new();
        // head (Cons x _) = x
        let rows = vec![Row {
            pats: vec![NPat::Con(
                sym("Cons"),
                vec![NPat::Var(sym("x")), NPat::Wild],
            )],
            rhs: RowRhs::Plain(Expr::Var(sym("x"))),
        }];
        let e = compile_match(&env, &[sym("xs")], rows, fallback()).expect("compiles");
        let Expr::Case(_, alts) = &e else { panic!() };
        assert_eq!(alts.len(), 2);
        assert_eq!(alts[1].con, AltCon::Default);
        assert!(matches!(&*alts[1].rhs, Expr::Raise(_)));
    }

    #[test]
    fn variable_rule_substitutes_scrutinee() {
        let env = DataEnv::new();
        // f x = x + 1
        let rows = vec![Row {
            pats: vec![NPat::Var(sym("x"))],
            rhs: RowRhs::Plain(Expr::add(Expr::Var(sym("x")), Expr::int(1))),
        }];
        let e = compile_match(&env, &[sym("arg")], rows, fallback()).expect("compiles");
        assert!(e.alpha_eq(&Expr::add(Expr::Var(sym("arg")), Expr::int(1))));
    }

    #[test]
    fn nested_patterns_expand_to_nested_cases() {
        let env = DataEnv::new();
        // f (Just (Just x)) = x ; f _ = 0
        let rows = vec![
            Row {
                pats: vec![NPat::Con(
                    sym("Just"),
                    vec![NPat::Con(sym("Just"), vec![NPat::Var(sym("x"))])],
                )],
                rhs: RowRhs::Plain(Expr::Var(sym("x"))),
            },
            Row {
                pats: vec![NPat::Wild],
                rhs: RowRhs::Plain(Expr::int(0)),
            },
        ];
        let e = compile_match(&env, &[sym("m")], rows, fallback()).expect("compiles");
        let Expr::Case(_, alts) = &e else { panic!() };
        // Just-alternative contains an inner case.
        let just = alts
            .iter()
            .find(|a| a.con == AltCon::Con(sym("Just")))
            .expect("just");
        assert!(matches!(&*just.rhs, Expr::Case(_, _)));
    }

    #[test]
    fn literal_matches_always_get_a_default() {
        let env = DataEnv::new();
        let rows = vec![
            Row {
                pats: vec![NPat::Int(0)],
                rhs: RowRhs::Plain(Expr::int(100)),
            },
            Row {
                pats: vec![NPat::Var(sym("n"))],
                rhs: RowRhs::Plain(Expr::Var(sym("n"))),
            },
        ];
        let e = compile_match(&env, &[sym("k")], rows, fallback()).expect("compiles");
        let Expr::Case(_, alts) = &e else { panic!() };
        assert_eq!(alts[0].con, AltCon::Int(0));
        assert_eq!(alts.last().expect("alts").con, AltCon::Default);
    }

    #[test]
    fn guard_failure_falls_through_to_next_row() {
        let env = DataEnv::new();
        // f x | cond x = 1
        // f _          = 2
        let rows = vec![
            Row {
                pats: vec![NPat::Var(sym("x"))],
                rhs: RowRhs::Guarded(vec![(
                    Expr::app(Expr::var("cond"), Expr::Var(sym("x"))),
                    Expr::int(1),
                )]),
            },
            Row {
                pats: vec![NPat::Wild],
                rhs: RowRhs::Plain(Expr::int(2)),
            },
        ];
        let e = compile_match(&env, &[sym("v")], rows, fallback()).expect("compiles");
        // Shape: case cond v of True -> 1; False -> 2
        let Expr::Case(scrut, alts) = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(&**scrut, Expr::App(_, _)));
        assert_eq!(alts.len(), 2);
        assert!(matches!(&*alts[1].rhs, Expr::Int(2)));
    }

    #[test]
    fn list_sugar_normalizes_to_cons_nil() {
        let env = DataEnv::new();
        // f [x] = x ; f _ = 0
        let lam = crate::parse_expr_src(r"\[x] -> x").expect("parses");
        let SExpr::Lam(pats, _) = lam.ast[lam.root] else {
            panic!("a lambda")
        };
        let list = normalize(&lam.ast, lam.ast.item(pats, 0));
        assert!(matches!(&list, NPat::Con(c, args) if *c == sym("Cons") && args.len() == 2));
        let rows = vec![
            Row {
                pats: vec![list],
                rhs: RowRhs::Plain(Expr::Var(sym("x"))),
            },
            Row {
                pats: vec![NPat::Wild],
                rhs: RowRhs::Plain(Expr::int(0)),
            },
        ];
        let e = compile_match(&env, &[sym("xs")], rows, fallback()).expect("compiles");
        let Expr::Case(_, alts) = &e else { panic!() };
        assert!(alts.iter().any(|a| a.con == AltCon::Con(sym("Cons"))));
    }

    #[test]
    fn unknown_constructor_is_an_error() {
        let env = DataEnv::new();
        let rows = vec![Row {
            pats: vec![NPat::Con(sym("Zorp"), vec![])],
            rhs: RowRhs::Plain(Expr::int(0)),
        }];
        assert!(compile_match(&env, &[sym("x")], rows, fallback()).is_err());
    }

    #[test]
    fn constructor_arity_mismatch_is_an_error() {
        let env = DataEnv::new();
        let rows = vec![Row {
            pats: vec![NPat::Con(sym("Just"), vec![])],
            rhs: RowRhs::Plain(Expr::int(0)),
        }];
        assert!(compile_match(&env, &[sym("x")], rows, fallback()).is_err());
    }

    #[test]
    fn potential_failures_are_reported_per_location() {
        let env = DataEnv::new();
        // head: inexhaustive.
        let rows = vec![Row {
            pats: vec![NPat::Con(
                sym("Cons"),
                vec![NPat::Var(sym("x")), NPat::Wild],
            )],
            rhs: RowRhs::Plain(Expr::Var(sym("x"))),
        }];
        let fail = Expr::raise(Expr::con("PatternMatchFail", [Expr::str("head")]));
        let e = compile_match(&env, &[sym("xs")], rows, fail).expect("compiles");
        assert_eq!(potential_match_failures(&e), vec!["head".to_string()]);

        // An exhaustive Bool match reports nothing.
        let rows2 = vec![
            Row {
                pats: vec![NPat::Con(sym("True"), vec![])],
                rhs: RowRhs::Plain(Expr::int(1)),
            },
            Row {
                pats: vec![NPat::Con(sym("False"), vec![])],
                rhs: RowRhs::Plain(Expr::int(0)),
            },
        ];
        let fail2 = Expr::raise(Expr::con("PatternMatchFail", [Expr::str("total")]));
        let e2 = compile_match(&env, &[sym("b")], rows2, fail2).expect("compiles");
        assert!(potential_match_failures(&e2).is_empty());
    }

    #[test]
    fn zipwith_shape_three_equations() {
        let env = DataEnv::new();
        // zipWith-like: matrix over two list arguments.
        let nil = |_: ()| NPat::Con(sym("Nil"), vec![]);
        let cons =
            |h: &str, t: &str| NPat::Con(sym("Cons"), vec![NPat::Var(sym(h)), NPat::Var(sym(t))]);
        let rows = vec![
            Row {
                pats: vec![nil(()), nil(())],
                rhs: RowRhs::Plain(Expr::con("Nil", [])),
            },
            Row {
                pats: vec![cons("x", "xs"), cons("y", "ys")],
                rhs: RowRhs::Plain(Expr::int(1)),
            },
            Row {
                pats: vec![NPat::Wild, NPat::Wild],
                rhs: RowRhs::Plain(Expr::error("Unequal lists")),
            },
        ];
        let e = compile_match(&env, &[sym("as"), sym("bs")], rows, fallback()).expect("compiles");
        // Outer case on `as` with Nil, Cons alternatives (exhaustive over
        // List, so no default).
        let Expr::Case(scrut, alts) = &e else {
            panic!()
        };
        assert!(matches!(&**scrut, Expr::Var(v) if *v == sym("as")));
        assert_eq!(alts.len(), 2);
    }
}
