//! The core language — the paper's Figure 1, plus `let`/`letrec`.
//!
//! ```text
//! e ::= x | k | e1 e2 | \x.e | C e1 ... en
//!     | case e of { p1 -> r1 ; ... }
//!     | raise e | e1 (+) e2 | fix e
//! ```
//!
//! Recursion is expressed with [`Expr::LetRec`] rather than a first-class
//! `fix` constant; `fix f = letrec x = f x in x`, and both evaluators give
//! `letrec` exactly the least-fixed-point semantics of §4.2's `fix` rule
//! (the denotational evaluator computes the limit of the ascending chain of
//! fuel-indexed approximants).
//!
//! Sub-expressions are reference counted ([`std::rc::Rc`]) so that the
//! evaluators can share program text into thunks without cloning trees.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use crate::{Hint, Known, Symbol};

/// A core expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A variable.
    Var(Symbol),
    /// An integer constant.
    Int(i64),
    /// A character constant.
    Char(char),
    /// A string constant (strings are primitive in Urk; the paper only uses
    /// them as `UserError` payloads and output).
    Str(Rc<str>),
    /// A *saturated* constructor application. Constructors are lazy and
    /// never propagate exceptions from their arguments (§4.2).
    Con(Symbol, Vec<Rc<Expr>>),
    /// Function application `e1 e2`.
    App(Rc<Expr>, Rc<Expr>),
    /// Lambda abstraction. A lambda is a *normal* value: `\x.⊥ ≠ ⊥` (§4.2).
    Lam(Symbol, Rc<Expr>),
    /// Non-recursive `let x = e1 in e2` (operationally: allocate a thunk).
    Let(Symbol, Rc<Expr>, Rc<Expr>),
    /// Mutually recursive bindings.
    LetRec(Vec<(Symbol, Rc<Expr>)>, Rc<Expr>),
    /// `case e of alts`. Alternatives are tried top to bottom; a missing
    /// default on no match yields `Bad {PatternMatchFail}`.
    Case(Rc<Expr>, Vec<Alt>),
    /// A *saturated* primitive operation.
    Prim(PrimOp, Vec<Rc<Expr>>),
    /// `raise e` — evaluate `e` to an `Exception` value and yield the
    /// exceptional value containing (the singleton set of) it.
    Raise(Rc<Expr>),
}

/// One `case` alternative.
#[derive(Clone, PartialEq, Debug)]
pub struct Alt {
    pub con: AltCon,
    /// Binders for the constructor fields (empty for literals / default).
    pub binders: Vec<Symbol>,
    pub rhs: Rc<Expr>,
}

/// What a `case` alternative matches.
#[derive(Clone, PartialEq, Debug)]
pub enum AltCon {
    /// A data constructor.
    Con(Symbol),
    /// An integer literal.
    Int(i64),
    /// A character literal.
    Char(char),
    /// A string literal.
    Str(Rc<str>),
    /// The wildcard alternative; must come last.
    Default,
}

/// Primitive operations of the core language.
///
/// Binary arithmetic is the paper's `(+)` family: it propagates the *union*
/// of the argument exception sets (§4.2), and its operational evaluation
/// order is a machine *policy*, not part of the semantics.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum PrimOp {
    Add,
    Sub,
    Mul,
    /// Division; divisor 0 raises `DivideByZero`.
    Div,
    /// Modulus; divisor 0 raises `DivideByZero`.
    Mod,
    /// Unary negation.
    Neg,
    /// Integer equality, yielding `True`/`False`.
    IntEq,
    IntLt,
    IntLe,
    IntGt,
    IntGe,
    /// Character equality.
    CharEq,
    /// `seq a b`: force `a` to weak head normal form, then return `b`.
    Seq,
    /// Decimal rendering of an integer as a string.
    ShowInt,
    /// String concatenation.
    StrAppend,
    /// String length.
    StrLen,
    /// String equality.
    StrEq,
    /// `ord :: Char -> Int`.
    Ord,
    /// `chr :: Int -> Char` (out of range raises `Overflow`).
    Chr,
    /// §5.4's pure `mapException f e`: applies `f` to every member of the
    /// exception set of `e` (operationally: to the sole representative).
    MapExn,
    /// §5.4's `unsafeIsException` — pure, with a proof obligation that the
    /// argument is not `⊥`. The machine implements the "whatever evaluation
    /// finds" behaviour; the denotational evaluator offers the optimistic
    /// semantics.
    UnsafeIsException,
    /// §6's `unsafeGetException` — a *pure* `a -> ExVal a`, with the
    /// programmer's proof obligation that the choice of representative
    /// does not matter (the exception set is a singleton, or the program
    /// never observes the difference). The machine returns whatever the
    /// stack trim finds; the denotational evaluator picks the least
    /// member deterministically.
    UnsafeGetException,
}

impl PrimOp {
    /// Number of arguments the operation takes.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Neg
            | PrimOp::ShowInt
            | PrimOp::StrLen
            | PrimOp::Ord
            | PrimOp::Chr
            | PrimOp::UnsafeIsException
            | PrimOp::UnsafeGetException => 1,
            _ => 2,
        }
    }

    /// True if the operation is commutative on normal values (used by the
    /// argument-commutation transformation of §3.4).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            PrimOp::Add | PrimOp::Mul | PrimOp::IntEq | PrimOp::CharEq | PrimOp::StrEq
        )
    }

    /// True if the operation forces both arguments to WHNF and unions their
    /// exception sets (the `(+)` family of §4.2). `Seq` forces only its
    /// first; `MapExn`/`UnsafeIsException` are special-cased.
    pub fn is_strict_binop(self) -> bool {
        !matches!(
            self,
            PrimOp::Seq | PrimOp::MapExn | PrimOp::UnsafeIsException | PrimOp::UnsafeGetException
        ) && self.arity() == 2
    }

    /// The surface name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Mod => "%",
            PrimOp::Neg => "negate",
            PrimOp::IntEq => "==",
            PrimOp::IntLt => "<",
            PrimOp::IntLe => "<=",
            PrimOp::IntGt => ">",
            PrimOp::IntGe => ">=",
            PrimOp::CharEq => "eqChar",
            PrimOp::Seq => "seq",
            PrimOp::ShowInt => "showInt",
            PrimOp::StrAppend => "strAppend",
            PrimOp::StrLen => "strLen",
            PrimOp::StrEq => "strEq",
            PrimOp::Ord => "ord",
            PrimOp::Chr => "chr",
            PrimOp::MapExn => "mapException",
            PrimOp::UnsafeIsException => "unsafeIsException",
            PrimOp::UnsafeGetException => "unsafeGetException",
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Expr {
    /// A variable reference.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Int(n)
    }

    /// A string literal.
    pub fn str(s: &str) -> Expr {
        Expr::Str(Rc::from(s))
    }

    /// Application `f x`.
    pub fn app(f: Expr, x: Expr) -> Expr {
        Expr::App(Rc::new(f), Rc::new(x))
    }

    /// Curried application `f a1 ... an`.
    pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
        args.into_iter().fold(f, Expr::app)
    }

    /// Lambda `\x -> e`.
    pub fn lam(x: impl Into<Symbol>, body: Expr) -> Expr {
        Expr::Lam(x.into(), Rc::new(body))
    }

    /// Nested lambdas `\x1 ... xn -> e`.
    pub fn lams(xs: impl IntoIterator<Item = Symbol>, body: Expr) -> Expr {
        let xs: Vec<Symbol> = xs.into_iter().collect();
        xs.into_iter()
            .rev()
            .fold(body, |acc, x| Expr::Lam(x, Rc::new(acc)))
    }

    /// `let x = rhs in body`.
    pub fn let_(x: impl Into<Symbol>, rhs: Expr, body: Expr) -> Expr {
        Expr::Let(x.into(), Rc::new(rhs), Rc::new(body))
    }

    /// Saturated primop application.
    pub fn prim(op: PrimOp, args: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Prim(op, args.into_iter().map(Rc::new).collect())
    }

    /// `a + b`.
    #[allow(clippy::should_implement_trait)] // AST constructor, not arithmetic
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::prim(PrimOp::Add, [a, b])
    }

    /// `a / b`.
    #[allow(clippy::should_implement_trait)] // AST constructor, not arithmetic
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::prim(PrimOp::Div, [a, b])
    }

    /// Saturated constructor application.
    pub fn con(name: impl Into<Symbol>, args: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::Con(name.into(), args.into_iter().map(Rc::new).collect())
    }

    /// `raise e`.
    pub fn raise(e: Expr) -> Expr {
        Expr::Raise(Rc::new(e))
    }

    /// `raise (UserError msg)` — the paper's `error`.
    pub fn error(msg: &str) -> Expr {
        Expr::raise(Expr::con(Known::UserError, [Expr::str(msg)]))
    }

    /// `case e of alts`.
    pub fn case(scrutinee: Expr, alts: Vec<Alt>) -> Expr {
        Expr::Case(Rc::new(scrutinee), alts)
    }

    /// The Boolean constructors.
    pub fn bool(b: bool) -> Expr {
        Expr::con(if b { Known::True } else { Known::False }, [])
    }

    /// An expression whose evaluation diverges: `letrec loop = loop in loop`.
    pub fn diverge() -> Expr {
        let loop_ = Symbol::intern("$diverge");
        Expr::LetRec(
            vec![(loop_, Rc::new(Expr::Var(loop_)))],
            Rc::new(Expr::Var(loop_)),
        )
    }

    /// The number of AST nodes — used as the "code size" metric for the
    /// §2.2 explicit-encoding comparison.
    pub fn size(&self) -> usize {
        let mut n = 1;
        match self {
            Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => {}
            Expr::Con(_, args) | Expr::Prim(_, args) => {
                n += args.iter().map(|a| a.size()).sum::<usize>();
            }
            Expr::App(f, x) => n += f.size() + x.size(),
            Expr::Lam(_, b) | Expr::Raise(b) => n += b.size(),
            Expr::Let(_, r, b) => n += r.size() + b.size(),
            Expr::LetRec(binds, b) => {
                n += binds.iter().map(|(_, e)| e.size()).sum::<usize>() + b.size();
            }
            Expr::Case(s, alts) => {
                n += s.size() + alts.iter().map(|a| a.rhs.size()).sum::<usize>();
            }
        }
        n
    }

    /// Counts free occurrences of `v` (used by inlining heuristics and
    /// the desugarer's single-use scrutinee substitution).
    pub fn count_var(&self, v: Symbol) -> usize {
        match self {
            Expr::Var(x) => usize::from(*x == v),
            Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => 0,
            Expr::Con(_, args) | Expr::Prim(_, args) => args.iter().map(|a| a.count_var(v)).sum(),
            Expr::App(f, x) => f.count_var(v) + x.count_var(v),
            Expr::Lam(x, b) => {
                if *x == v {
                    0
                } else {
                    b.count_var(v)
                }
            }
            Expr::Let(x, r, b) => r.count_var(v) + if *x == v { 0 } else { b.count_var(v) },
            Expr::LetRec(binds, b) => {
                if binds.iter().any(|(x, _)| *x == v) {
                    0
                } else {
                    binds.iter().map(|(_, r)| r.count_var(v)).sum::<usize>() + b.count_var(v)
                }
            }
            Expr::Case(s, alts) => {
                s.count_var(v)
                    + alts
                        .iter()
                        .map(|a| {
                            if a.binders.contains(&v) {
                                0
                            } else {
                                a.rhs.count_var(v)
                            }
                        })
                        .sum::<usize>()
            }
            Expr::Raise(x) => x.count_var(v),
        }
    }

    /// The free variables of the expression.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.free_vars_into(&mut Vec::new(), &mut out);
        out
    }

    fn free_vars_into(&self, bound: &mut Vec<Symbol>, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Var(v) => {
                if !bound.contains(v) {
                    out.insert(*v);
                }
            }
            Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => {}
            Expr::Con(_, args) | Expr::Prim(_, args) => {
                for a in args {
                    a.free_vars_into(bound, out);
                }
            }
            Expr::App(f, x) => {
                f.free_vars_into(bound, out);
                x.free_vars_into(bound, out);
            }
            Expr::Lam(x, b) => {
                bound.push(*x);
                b.free_vars_into(bound, out);
                bound.pop();
            }
            Expr::Let(x, r, b) => {
                r.free_vars_into(bound, out);
                bound.push(*x);
                b.free_vars_into(bound, out);
                bound.pop();
            }
            Expr::LetRec(binds, b) => {
                let n = bound.len();
                bound.extend(binds.iter().map(|(x, _)| *x));
                for (_, r) in binds {
                    r.free_vars_into(bound, out);
                }
                b.free_vars_into(bound, out);
                bound.truncate(n);
            }
            Expr::Case(s, alts) => {
                s.free_vars_into(bound, out);
                for a in alts {
                    let n = bound.len();
                    bound.extend(a.binders.iter().copied());
                    a.rhs.free_vars_into(bound, out);
                    bound.truncate(n);
                }
            }
            Expr::Raise(e) => e.free_vars_into(bound, out),
        }
    }

    /// Capture-avoiding substitution `self[replacement / var]`.
    ///
    /// Binders that would capture a free variable of `replacement` are
    /// alpha-renamed with [`Symbol::fresh`] names.
    pub fn subst(&self, var: Symbol, replacement: &Expr) -> Expr {
        let fv = replacement.free_vars();
        self.subst_inner(var, replacement, &fv)
    }

    fn subst_inner(&self, var: Symbol, rep: &Expr, rep_fv: &BTreeSet<Symbol>) -> Expr {
        match self {
            Expr::Var(v) => {
                if *v == var {
                    rep.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => self.clone(),
            Expr::Con(c, args) => Expr::Con(
                *c,
                args.iter()
                    .map(|a| Rc::new(a.subst_inner(var, rep, rep_fv)))
                    .collect(),
            ),
            Expr::Prim(op, args) => Expr::Prim(
                *op,
                args.iter()
                    .map(|a| Rc::new(a.subst_inner(var, rep, rep_fv)))
                    .collect(),
            ),
            Expr::App(f, x) => Expr::App(
                Rc::new(f.subst_inner(var, rep, rep_fv)),
                Rc::new(x.subst_inner(var, rep, rep_fv)),
            ),
            Expr::Lam(x, b) => {
                if *x == var {
                    self.clone()
                } else if rep_fv.contains(x) {
                    let fresh = Symbol::fresh(Hint::Rn);
                    let renamed = b.subst(*x, &Expr::Var(fresh));
                    Expr::Lam(fresh, Rc::new(renamed.subst_inner(var, rep, rep_fv)))
                } else {
                    Expr::Lam(*x, Rc::new(b.subst_inner(var, rep, rep_fv)))
                }
            }
            Expr::Let(x, r, b) => {
                let r2 = Rc::new(r.subst_inner(var, rep, rep_fv));
                if *x == var {
                    Expr::Let(*x, r2, b.clone())
                } else if rep_fv.contains(x) {
                    let fresh = Symbol::fresh(Hint::Rn);
                    let renamed = b.subst(*x, &Expr::Var(fresh));
                    Expr::Let(fresh, r2, Rc::new(renamed.subst_inner(var, rep, rep_fv)))
                } else {
                    Expr::Let(*x, r2, Rc::new(b.subst_inner(var, rep, rep_fv)))
                }
            }
            Expr::LetRec(binds, b) => {
                if binds.iter().any(|(x, _)| *x == var) {
                    return self.clone();
                }
                if binds.iter().any(|(x, _)| rep_fv.contains(x)) {
                    // Rename every clashing binder throughout the group.
                    let mut body: Expr = self.clone();
                    let clashing: Vec<Symbol> = binds
                        .iter()
                        .map(|(x, _)| *x)
                        .filter(|x| rep_fv.contains(x))
                        .collect();
                    for x in clashing {
                        body = body.rename_letrec_binder(x);
                    }
                    return body.subst_inner(var, rep, rep_fv);
                }
                Expr::LetRec(
                    binds
                        .iter()
                        .map(|(x, r)| (*x, Rc::new(r.subst_inner(var, rep, rep_fv))))
                        .collect(),
                    Rc::new(b.subst_inner(var, rep, rep_fv)),
                )
            }
            Expr::Case(s, alts) => {
                let s2 = Rc::new(s.subst_inner(var, rep, rep_fv));
                let alts2 = alts
                    .iter()
                    .map(|a| {
                        if a.binders.contains(&var) {
                            a.clone()
                        } else if a.binders.iter().any(|x| rep_fv.contains(x)) {
                            let mut alt = a.clone();
                            for i in 0..alt.binders.len() {
                                if rep_fv.contains(&alt.binders[i]) {
                                    let old = alt.binders[i];
                                    let fresh = Symbol::fresh(Hint::Rn);
                                    alt.binders[i] = fresh;
                                    alt.rhs = Rc::new(alt.rhs.subst(old, &Expr::Var(fresh)));
                                }
                            }
                            alt.rhs = Rc::new(alt.rhs.subst_inner(var, rep, rep_fv));
                            alt
                        } else {
                            Alt {
                                con: a.con.clone(),
                                binders: a.binders.clone(),
                                rhs: Rc::new(a.rhs.subst_inner(var, rep, rep_fv)),
                            }
                        }
                    })
                    .collect();
                Expr::Case(s2, alts2)
            }
            Expr::Raise(e) => Expr::Raise(Rc::new(e.subst_inner(var, rep, rep_fv))),
        }
    }

    /// Alpha-renames one binder of a `letrec` group (helper for `subst`).
    fn rename_letrec_binder(&self, old: Symbol) -> Expr {
        let Expr::LetRec(binds, body) = self else {
            return self.clone();
        };
        let fresh = Symbol::fresh(Hint::Rn);
        let rename = |e: &Expr| Rc::new(e.subst(old, &Expr::Var(fresh)));
        Expr::LetRec(
            binds
                .iter()
                .map(|(x, r)| (if *x == old { fresh } else { *x }, rename(r)))
                .collect(),
            rename(body),
        )
    }

    /// Structural equality up to alpha-renaming of binders.
    pub fn alpha_eq(&self, other: &Expr) -> bool {
        fn go(a: &Expr, b: &Expr, env: &mut Vec<(Symbol, Symbol)>) -> bool {
            match (a, b) {
                (Expr::Var(x), Expr::Var(y)) => {
                    for (l, r) in env.iter().rev() {
                        if l == x || r == y {
                            return l == x && r == y;
                        }
                    }
                    x == y
                }
                (Expr::Int(x), Expr::Int(y)) => x == y,
                (Expr::Char(x), Expr::Char(y)) => x == y,
                (Expr::Str(x), Expr::Str(y)) => x == y,
                (Expr::Con(c, xs), Expr::Con(d, ys)) => {
                    c == d && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| go(x, y, env))
                }
                (Expr::Prim(o, xs), Expr::Prim(p, ys)) => {
                    o == p && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| go(x, y, env))
                }
                (Expr::App(f, x), Expr::App(g, y)) => go(f, g, env) && go(x, y, env),
                (Expr::Lam(x, e), Expr::Lam(y, f)) => {
                    env.push((*x, *y));
                    let r = go(e, f, env);
                    env.pop();
                    r
                }
                (Expr::Let(x, r1, b1), Expr::Let(y, r2, b2)) => {
                    if !go(r1, r2, env) {
                        return false;
                    }
                    env.push((*x, *y));
                    let r = go(b1, b2, env);
                    env.pop();
                    r
                }
                (Expr::LetRec(bs1, b1), Expr::LetRec(bs2, b2)) => {
                    if bs1.len() != bs2.len() {
                        return false;
                    }
                    let n = env.len();
                    env.extend(bs1.iter().zip(bs2.iter()).map(|((x, _), (y, _))| (*x, *y)));
                    let r = bs1
                        .iter()
                        .zip(bs2.iter())
                        .all(|((_, r1), (_, r2))| go(r1, r2, env))
                        && go(b1, b2, env);
                    env.truncate(n);
                    r
                }
                (Expr::Case(s1, as1), Expr::Case(s2, as2)) => {
                    if !go(s1, s2, env) || as1.len() != as2.len() {
                        return false;
                    }
                    as1.iter().zip(as2).all(|(x, y)| {
                        if x.con != y.con || x.binders.len() != y.binders.len() {
                            return false;
                        }
                        let n = env.len();
                        env.extend(x.binders.iter().zip(&y.binders).map(|(a, b)| (*a, *b)));
                        let r = go(&x.rhs, &y.rhs, env);
                        env.truncate(n);
                        r
                    })
                }
                (Expr::Raise(x), Expr::Raise(y)) => go(x, y, env),
                _ => false,
            }
        }
        go(self, other, &mut Vec::new())
    }
}

impl Alt {
    /// A constructor alternative.
    pub fn con(name: impl Into<Symbol>, binders: Vec<Symbol>, rhs: Expr) -> Alt {
        Alt {
            con: AltCon::Con(name.into()),
            binders,
            rhs: Rc::new(rhs),
        }
    }

    /// The default (wildcard) alternative.
    pub fn default(rhs: Expr) -> Alt {
        Alt {
            con: AltCon::Default,
            binders: Vec::new(),
            rhs: Rc::new(rhs),
        }
    }

    /// A default alternative binding the forced scrutinee — GHC's
    /// `case e of x { _DEFAULT -> rhs }`, the shape produced by the
    /// strictness-driven let-to-case transformation.
    pub fn default_bind(x: impl Into<Symbol>, rhs: Expr) -> Alt {
        Alt {
            con: AltCon::Default,
            binders: vec![x.into()],
            rhs: Rc::new(rhs),
        }
    }

    /// An integer-literal alternative.
    pub fn int(n: i64, rhs: Expr) -> Alt {
        Alt {
            con: AltCon::Int(n),
            binders: Vec::new(),
            rhs: Rc::new(rhs),
        }
    }
}

/// A desugared program: one recursive group of top-level core bindings,
/// plus any user-supplied type signatures (checked by `urk-types`).
#[derive(Clone, Debug, Default)]
pub struct CoreProgram {
    pub binds: Vec<(Symbol, Rc<Expr>)>,
    pub sigs: Vec<(Symbol, crate::ast::SType)>,
}

impl CoreProgram {
    /// Looks up a top-level binding.
    pub fn lookup(&self, name: Symbol) -> Option<&Rc<Expr>> {
        self.binds.iter().find(|(n, _)| *n == name).map(|(_, e)| e)
    }

    /// Wraps `body` in the program's bindings: `letrec binds in body`.
    pub fn wrap(&self, body: Expr) -> Expr {
        if self.binds.is_empty() {
            body
        } else {
            Expr::LetRec(self.binds.clone(), Rc::new(body))
        }
    }

    /// Total AST size of all bindings (the §2.2 code-size metric).
    pub fn size(&self) -> usize {
        self.binds.iter().map(|(_, e)| e.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Symbol {
        Symbol::intern("x")
    }
    fn y() -> Symbol {
        Symbol::intern("y")
    }

    #[test]
    fn free_vars_respect_binders() {
        // \x -> x + y   has free {y}
        let e = Expr::lam(x(), Expr::add(Expr::Var(x()), Expr::Var(y())));
        let fv = e.free_vars();
        assert!(fv.contains(&y()));
        assert!(!fv.contains(&x()));
    }

    #[test]
    fn letrec_binders_are_not_free() {
        let f = Symbol::intern("f");
        let e = Expr::LetRec(
            vec![(f, Rc::new(Expr::app(Expr::Var(f), Expr::Var(y()))))],
            Rc::new(Expr::Var(f)),
        );
        let fv = e.free_vars();
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec![y()]);
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        // (\x -> x) [x := 42]  is unchanged
        let id = Expr::lam(x(), Expr::Var(x()));
        assert!(id.subst(x(), &Expr::int(42)).alpha_eq(&id));
        // (x + 1) [x := 42]
        let e = Expr::add(Expr::Var(x()), Expr::int(1));
        let got = e.subst(x(), &Expr::int(42));
        assert!(got.alpha_eq(&Expr::add(Expr::int(42), Expr::int(1))));
    }

    #[test]
    fn subst_avoids_capture() {
        // (\y -> x + y) [x := y]  must not capture: result is \y' -> y + y'
        let e = Expr::lam(y(), Expr::add(Expr::Var(x()), Expr::Var(y())));
        let got = e.subst(x(), &Expr::Var(y()));
        let expected = Expr::lam(
            Symbol::intern("z"),
            Expr::add(Expr::Var(y()), Expr::Var(Symbol::intern("z"))),
        );
        assert!(got.alpha_eq(&expected), "got {got:?}");
    }

    #[test]
    fn subst_avoids_capture_in_case_binders() {
        // case e of Just y -> x   [x := y]
        let e = Expr::case(
            Expr::var("e"),
            vec![Alt::con("Just", vec![y()], Expr::Var(x()))],
        );
        let got = e.subst(x(), &Expr::Var(y()));
        match &got {
            Expr::Case(_, alts) => {
                assert_ne!(alts[0].binders[0], y(), "binder must be renamed");
                assert_eq!(*alts[0].rhs, Expr::Var(y()));
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn alpha_eq_identifies_renamed_terms() {
        let a = Expr::lam(x(), Expr::Var(x()));
        let b = Expr::lam(y(), Expr::Var(y()));
        assert!(a.alpha_eq(&b));
        let c = Expr::lam(x(), Expr::Var(y()));
        assert!(!a.alpha_eq(&c));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Expr::int(1).size(), 1);
        assert_eq!(Expr::add(Expr::int(1), Expr::int(2)).size(), 3);
    }

    #[test]
    fn error_builds_the_paper_form() {
        let e = Expr::error("Urk");
        match e {
            Expr::Raise(inner) => match &*inner {
                Expr::Con(c, args) => {
                    assert_eq!(c.as_str(), "UserError");
                    assert_eq!(args.len(), 1);
                }
                other => panic!("expected constructor, got {other:?}"),
            },
            other => panic!("expected raise, got {other:?}"),
        }
    }

    #[test]
    fn primop_arities_and_commutativity() {
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Neg.arity(), 1);
        assert!(PrimOp::Add.is_commutative());
        assert!(!PrimOp::Sub.is_commutative());
        assert!(PrimOp::Add.is_strict_binop());
        assert!(!PrimOp::Seq.is_strict_binop());
    }
}
