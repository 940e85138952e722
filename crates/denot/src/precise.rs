//! The **precise** baseline semantics — §3.4's first rejected design.
//!
//! This is the ML/FL-style treatment: an exceptional value carries exactly
//! *one* exception, the language definition fixes the evaluation order of
//! primitive operations (configurably left-to-right or right-to-left, so
//! the law validator can exhibit the order-dependence), exceptions are
//! distinct from non-termination, and `case` simply propagates an
//! exceptional scrutinee.
//!
//! Under this semantics `e1 + e2 ≠ e2 + e1` whenever the two operands raise
//! different exceptions — the paper's motivating failure — and the law
//! validator in `urk-transform` uses exactly this evaluator to demonstrate
//! which transformations the precise design forfeits.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use urk_syntax::core::{Alt, AltCon, Expr, PrimOp};
use urk_syntax::{Exception, Known, Symbol};

use crate::domain::{Knot, Knots, RELEASED_KNOT};

/// Which operand of a primitive a precise implementation evaluates first.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum EvalOrder {
    #[default]
    LeftToRight,
    RightToLeft,
}

/// A denotation in the precise semantics: normal, one exception, or ⊥
/// (which here is *distinct* from every exception).
#[derive(Clone, Debug)]
pub enum PDenot {
    Ok(PValue),
    Exn(Exception),
    Bot,
}

impl PDenot {
    /// True if the result is an exception or divergence.
    pub fn is_abnormal(&self) -> bool {
        !matches!(self, PDenot::Ok(_))
    }
}

/// A weak-head-normal value.
#[derive(Clone)]
pub enum PValue {
    Int(i64),
    Char(char),
    Str(Rc<str>),
    Con(Symbol, Vec<PThunk>),
    Fun(Rc<PClosure>),
}

impl fmt::Debug for PValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PValue::Int(n) => write!(f, "Int({n})"),
            PValue::Char(c) => write!(f, "Char({c:?})"),
            PValue::Str(s) => write!(f, "Str({s:?})"),
            PValue::Con(c, fs) => write!(f, "Con({c}, {} fields)", fs.len()),
            PValue::Fun(_) => f.write_str("Fun(<closure>)"),
        }
    }
}

/// A function closure.
pub struct PClosure {
    pub param: Symbol,
    pub body: Rc<Expr>,
    pub env: PEnv,
}

/// A memoizing lazy thunk.
pub type PThunk = Rc<PThunkCell>;

/// Thunk states mirror the imprecise evaluator's, `Released` knots
/// included.
pub enum PThunkState {
    Pending(Rc<Expr>, PEnv),
    Evaluating,
    Done(PDenot),
    Released,
}

pub struct PThunkCell {
    pub state: RefCell<PThunkState>,
}

impl PThunkCell {
    pub fn pending(e: Rc<Expr>, env: PEnv) -> PThunk {
        Rc::new(PThunkCell {
            state: RefCell::new(PThunkState::Pending(e, env)),
        })
    }

    pub fn done(d: PDenot) -> PThunk {
        Rc::new(PThunkCell {
            state: RefCell::new(PThunkState::Done(d)),
        })
    }
}

impl Knot for PThunkCell {
    fn release(&self) {
        let old = self.state.replace(PThunkState::Released);
        drop(old);
    }
}

/// A persistent environment (linked list).
#[derive(Clone, Default)]
pub struct PEnv(Option<Rc<PEnvNode>>);

struct PEnvNode {
    name: Symbol,
    thunk: PThunk,
    rest: PEnv,
}

impl PEnv {
    pub fn empty() -> PEnv {
        PEnv(None)
    }

    pub fn bind(&self, name: Symbol, thunk: PThunk) -> PEnv {
        PEnv(Some(Rc::new(PEnvNode {
            name,
            thunk,
            rest: self.clone(),
        })))
    }

    pub fn lookup(&self, name: Symbol) -> Option<PThunk> {
        let mut cur = self;
        while let Some(n) = &cur.0 {
            if n.name == name {
                return Some(n.thunk.clone());
            }
            cur = &n.rest;
        }
        None
    }
}

/// Configuration for the precise evaluator.
#[derive(Clone, Debug)]
pub struct PreciseConfig {
    pub fuel: u64,
    pub max_depth: u32,
    pub order: EvalOrder,
    /// §3.4's "go non-deterministic" design: when set, the evaluation order
    /// of each primitive is decided by the oracle instead of `order`, and
    /// `GetException` is treated as a *pure* function. Used by
    /// [`crate::nondet`].
    pub oracle_driven: bool,
}

impl Default for PreciseConfig {
    fn default() -> PreciseConfig {
        PreciseConfig {
            fuel: 1_000_000,
            max_depth: 600,
            order: EvalOrder::LeftToRight,
            oracle_driven: false,
        }
    }
}

/// The precise-semantics evaluator. Like [`crate::DenotEvaluator`], it
/// owns the knots it ties (`letrec` groups and memoized values that could
/// reach their own thunk) and releases them when dropped.
///
/// # Panics
///
/// Panics on dynamically ill-typed programs; type-check first. Also panics
/// when a denotation is forced after its evaluator was dropped.
pub struct PreciseEvaluator {
    config: PreciseConfig,
    knots: Knots<PThunkCell>,
    fuel: Cell<u64>,
    depth: Cell<u32>,
    /// Oracle decision tape (used when `oracle_driven`).
    oracle_bits: RefCell<Vec<bool>>,
    oracle_cursor: Cell<usize>,
    oracle_consumed: Cell<usize>,
}

impl PreciseEvaluator {
    pub fn new(config: PreciseConfig) -> PreciseEvaluator {
        let fuel = config.fuel;
        PreciseEvaluator {
            config,
            knots: Knots::new(),
            fuel: Cell::new(fuel),
            depth: Cell::new(0),
            oracle_bits: RefCell::new(Vec::new()),
            oracle_cursor: Cell::new(0),
            oracle_consumed: Cell::new(0),
        }
    }

    /// Installs an oracle decision tape (positions beyond the tape default
    /// to `false`) and resets fuel.
    pub fn set_oracle(&self, bits: Vec<bool>) {
        *self.oracle_bits.borrow_mut() = bits;
        self.oracle_cursor.set(0);
        self.oracle_consumed.set(0);
        self.fuel.set(self.config.fuel);
        self.depth.set(0);
    }

    /// Number of oracle decisions consumed by the last run.
    pub fn oracle_decisions(&self) -> usize {
        self.oracle_consumed.get()
    }

    fn decide(&self) -> bool {
        let i = self.oracle_consumed.get();
        self.oracle_consumed.set(i + 1);
        self.oracle_bits.borrow().get(i).copied().unwrap_or(false)
    }

    pub fn eval_closed(&self, e: &Rc<Expr>) -> PDenot {
        self.eval(e, &PEnv::empty())
    }

    pub fn eval(&self, e: &Rc<Expr>, env: &PEnv) -> PDenot {
        let f = self.fuel.get();
        if f == 0 {
            return PDenot::Bot;
        }
        self.fuel.set(f - 1);
        let d = self.depth.get();
        if d >= self.config.max_depth {
            return PDenot::Bot;
        }
        self.depth.set(d + 1);
        let r = self.eval_inner(e, env);
        self.depth.set(self.depth.get() - 1);
        r
    }

    fn eval_inner(&self, e: &Rc<Expr>, env: &PEnv) -> PDenot {
        match &**e {
            Expr::Var(v) => {
                let t = env
                    .lookup(*v)
                    .unwrap_or_else(|| panic!("unbound variable '{v}'"));
                self.force(&t)
            }
            Expr::Int(n) => PDenot::Ok(PValue::Int(*n)),
            Expr::Char(c) => PDenot::Ok(PValue::Char(*c)),
            Expr::Str(s) => PDenot::Ok(PValue::Str(s.clone())),
            Expr::Con(c, args) if self.config.oracle_driven && Known::GetException.is(*c) => {
                // The non-deterministic design's *pure* getException.
                match self.eval(&args[0], env) {
                    PDenot::Ok(v) => PDenot::Ok(PValue::Con(
                        Known::Ok.symbol(),
                        vec![PThunkCell::done(PDenot::Ok(v))],
                    )),
                    PDenot::Exn(x) => PDenot::Ok(PValue::Con(
                        Known::Bad.symbol(),
                        vec![PThunkCell::done(PDenot::Ok(exception_to_pvalue(&x)))],
                    )),
                    PDenot::Bot => PDenot::Bot,
                }
            }
            Expr::Con(c, args) => {
                let fields = args
                    .iter()
                    .map(|a| PThunkCell::pending(a.clone(), env.clone()))
                    .collect();
                PDenot::Ok(PValue::Con(*c, fields))
            }
            Expr::Lam(x, b) => PDenot::Ok(PValue::Fun(Rc::new(PClosure {
                param: *x,
                body: b.clone(),
                env: env.clone(),
            }))),
            Expr::App(f, x) => match self.eval(f, env) {
                PDenot::Ok(PValue::Fun(clo)) => {
                    let arg = PThunkCell::pending(x.clone(), env.clone());
                    self.eval(&clo.body, &clo.env.bind(clo.param, arg))
                }
                PDenot::Ok(v) => panic!("application of non-function {v:?}"),
                abnormal => abnormal, // the argument is never touched
            },
            Expr::Let(x, rhs, body) => {
                let t = PThunkCell::pending(rhs.clone(), env.clone());
                self.eval(body, &env.bind(*x, t))
            }
            Expr::LetRec(binds, body) => {
                let env2 = self.bind_recursive(binds, env);
                self.eval(body, &env2)
            }
            Expr::Case(scrut, alts) => match self.eval(scrut, env) {
                PDenot::Ok(v) => {
                    for alt in alts {
                        if let Some(env2) = match_alt(alt, &v, env) {
                            return self.eval(&alt.rhs, &env2);
                        }
                    }
                    PDenot::Exn(Exception::PatternMatchFail("case".into()))
                }
                abnormal => abnormal, // precise: no exception-finding mode
            },
            Expr::Prim(op, args) => self.eval_prim(*op, args, env),
            Expr::Raise(x) => match self.eval(x, env) {
                PDenot::Ok(v) => match self.pvalue_to_exception(&v) {
                    Ok(exn) => PDenot::Exn(exn),
                    Err(d) => d,
                },
                abnormal => abnormal,
            },
        }
    }

    pub fn bind_recursive(&self, binds: &[(Symbol, Rc<Expr>)], env: &PEnv) -> PEnv {
        let thunks: Vec<PThunk> = binds
            .iter()
            .map(|(_, rhs)| PThunkCell::pending(rhs.clone(), PEnv::empty()))
            .collect();
        let mut env2 = env.clone();
        for ((name, _), t) in binds.iter().zip(&thunks) {
            env2 = env2.bind(*name, t.clone());
        }
        for ((_, rhs), t) in binds.iter().zip(&thunks) {
            *t.state.borrow_mut() = PThunkState::Pending(rhs.clone(), env2.clone());
            self.knots.record(t);
        }
        env2
    }

    pub fn force(&self, t: &PThunk) -> PDenot {
        let pending = {
            match &*t.state.borrow() {
                PThunkState::Done(d) => return d.clone(),
                PThunkState::Evaluating => return PDenot::Bot,
                PThunkState::Pending(e, env) => (e.clone(), env.clone()),
                PThunkState::Released => panic!("{RELEASED_KNOT}"),
            }
        };
        *t.state.borrow_mut() = PThunkState::Evaluating;
        let d = self.eval(&pending.0, &pending.1);
        if matches!(&d, PDenot::Ok(PValue::Con(_, fs)) if !fs.is_empty())
            || matches!(&d, PDenot::Ok(PValue::Fun(_)))
        {
            self.knots.record(t);
        }
        *t.state.borrow_mut() = PThunkState::Done(d.clone());
        d
    }

    fn eval_prim(&self, op: PrimOp, args: &[Rc<Expr>], env: &PEnv) -> PDenot {
        match op {
            PrimOp::Seq => match self.eval(&args[0], env) {
                PDenot::Ok(_) => self.eval(&args[1], env),
                abnormal => abnormal,
            },
            PrimOp::MapExn => {
                // Precise mapException: rewrite the single exception.
                match self.eval(&args[1], env) {
                    PDenot::Exn(x) => {
                        let f = self.eval(&args[0], env);
                        let arg = PThunkCell::done(PDenot::Ok(exception_to_pvalue(&x)));
                        match f {
                            PDenot::Ok(PValue::Fun(clo)) => {
                                match self.eval(&clo.body, &clo.env.bind(clo.param, arg)) {
                                    PDenot::Ok(v) => match self.pvalue_to_exception(&v) {
                                        Ok(exn) => PDenot::Exn(exn),
                                        Err(d) => d,
                                    },
                                    abnormal => abnormal,
                                }
                            }
                            PDenot::Ok(v) => panic!("mapException of non-function {v:?}"),
                            abnormal => abnormal,
                        }
                    }
                    other => other,
                }
            }
            PrimOp::UnsafeGetException => match self.eval(&args[0], env) {
                PDenot::Ok(v) => PDenot::Ok(PValue::Con(
                    Known::Ok.symbol(),
                    vec![PThunkCell::done(PDenot::Ok(v))],
                )),
                PDenot::Exn(x) => PDenot::Ok(PValue::Con(
                    Known::Bad.symbol(),
                    vec![PThunkCell::done(PDenot::Ok(exception_to_pvalue(&x)))],
                )),
                PDenot::Bot => PDenot::Bot,
            },
            PrimOp::UnsafeIsException => match self.eval(&args[0], env) {
                PDenot::Ok(_) => PDenot::Ok(pbool(false)),
                PDenot::Exn(_) => PDenot::Ok(pbool(true)),
                PDenot::Bot => PDenot::Bot,
            },
            _ if op.arity() == 1 => match self.eval(&args[0], env) {
                PDenot::Ok(v) => self.prim_unary(op, &v),
                abnormal => abnormal,
            },
            _ => {
                // The defining feature of the precise design: a *fixed*
                // evaluation order, first exception wins.
                let left_first = if self.config.oracle_driven {
                    !self.decide()
                } else {
                    self.config.order == EvalOrder::LeftToRight
                };
                let (first, second) = if left_first {
                    (&args[0], &args[1])
                } else {
                    (&args[1], &args[0])
                };
                let d1 = match self.eval(first, env) {
                    PDenot::Ok(v) => v,
                    abnormal => return abnormal,
                };
                let d2 = match self.eval(second, env) {
                    PDenot::Ok(v) => v,
                    abnormal => return abnormal,
                };
                let (vl, vr) = if left_first { (d1, d2) } else { (d2, d1) };
                self.prim_binary(op, &vl, &vr)
            }
        }
    }

    fn prim_unary(&self, op: PrimOp, v: &PValue) -> PDenot {
        match (op, v) {
            (PrimOp::Neg, PValue::Int(n)) => match n.checked_neg() {
                Some(m) => PDenot::Ok(PValue::Int(m)),
                None => PDenot::Exn(Exception::Overflow),
            },
            (PrimOp::ShowInt, PValue::Int(n)) => {
                PDenot::Ok(PValue::Str(Rc::from(n.to_string().as_str())))
            }
            (PrimOp::StrLen, PValue::Str(s)) => PDenot::Ok(PValue::Int(s.chars().count() as i64)),
            (PrimOp::Ord, PValue::Char(c)) => PDenot::Ok(PValue::Int(*c as i64)),
            (PrimOp::Chr, PValue::Int(n)) => {
                match u32::try_from(*n).ok().and_then(char::from_u32) {
                    Some(c) => PDenot::Ok(PValue::Char(c)),
                    None => PDenot::Exn(Exception::Overflow),
                }
            }
            _ => panic!("ill-typed unary primop {op:?}"),
        }
    }

    fn prim_binary(&self, op: PrimOp, v1: &PValue, v2: &PValue) -> PDenot {
        use PrimOp::*;
        let int = |n: Option<i64>| match n {
            Some(n) => PDenot::Ok(PValue::Int(n)),
            None => PDenot::Exn(Exception::Overflow),
        };
        match (op, v1, v2) {
            (Add, PValue::Int(a), PValue::Int(b)) => int(a.checked_add(*b)),
            (Sub, PValue::Int(a), PValue::Int(b)) => int(a.checked_sub(*b)),
            (Mul, PValue::Int(a), PValue::Int(b)) => int(a.checked_mul(*b)),
            (Div, PValue::Int(_), PValue::Int(0)) => PDenot::Exn(Exception::DivideByZero),
            (Div, PValue::Int(a), PValue::Int(b)) => int(a.checked_div(*b)),
            (Mod, PValue::Int(_), PValue::Int(0)) => PDenot::Exn(Exception::DivideByZero),
            (Mod, PValue::Int(a), PValue::Int(b)) => int(a.checked_rem(*b)),
            (IntEq, PValue::Int(a), PValue::Int(b)) => PDenot::Ok(pbool(a == b)),
            (IntLt, PValue::Int(a), PValue::Int(b)) => PDenot::Ok(pbool(a < b)),
            (IntLe, PValue::Int(a), PValue::Int(b)) => PDenot::Ok(pbool(a <= b)),
            (IntGt, PValue::Int(a), PValue::Int(b)) => PDenot::Ok(pbool(a > b)),
            (IntGe, PValue::Int(a), PValue::Int(b)) => PDenot::Ok(pbool(a >= b)),
            (CharEq, PValue::Char(a), PValue::Char(b)) => PDenot::Ok(pbool(a == b)),
            (StrEq, PValue::Str(a), PValue::Str(b)) => PDenot::Ok(pbool(a == b)),
            (StrAppend, PValue::Str(a), PValue::Str(b)) => {
                PDenot::Ok(PValue::Str(Rc::from(format!("{a}{b}").as_str())))
            }
            _ => panic!("ill-typed binary primop {op:?}"),
        }
    }

    fn pvalue_to_exception(&self, v: &PValue) -> Result<Exception, PDenot> {
        let PValue::Con(name, fields) = v else {
            panic!("raise applied to non-Exception value {v:?}");
        };
        let payload = match fields.first() {
            None => None,
            Some(t) => match self.force(t) {
                PDenot::Ok(PValue::Str(s)) => Some(s.to_string()),
                PDenot::Ok(v) => panic!("exception payload is not a string: {v:?}"),
                abnormal => return Err(abnormal),
            },
        };
        Ok(Exception::from_constructor(*name, payload.as_deref())
            .unwrap_or_else(|| panic!("unknown exception constructor '{name}'")))
    }

    /// Renders a denotation to `depth` (for the nondet outcome sets).
    pub fn show(&self, d: &PDenot, depth: u32) -> String {
        match d {
            PDenot::Bot => "⊥".into(),
            PDenot::Exn(e) => format!("Exn {e}"),
            PDenot::Ok(v) => self.show_value(v, depth, false),
        }
    }

    fn show_value(&self, v: &PValue, depth: u32, nested: bool) -> String {
        match v {
            PValue::Int(n) => n.to_string(),
            PValue::Char(c) => format!("{c:?}"),
            PValue::Str(s) => format!("{s:?}"),
            PValue::Fun(_) => "<function>".into(),
            PValue::Con(c, fields) if fields.is_empty() => c.to_string(),
            PValue::Con(c, fields) => {
                if depth == 0 {
                    return format!("{c} ...");
                }
                let mut out = String::new();
                if nested {
                    out.push('(');
                }
                out.push_str(&c.to_string());
                for f in fields {
                    out.push(' ');
                    let inner = self.force(f);
                    out.push_str(&match inner {
                        PDenot::Bot => "⊥".into(),
                        PDenot::Exn(e) => format!("(Exn {e})"),
                        PDenot::Ok(v) => self.show_value(&v, depth - 1, true),
                    });
                }
                if nested {
                    out.push(')');
                }
                out
            }
        }
    }
}

fn match_alt(alt: &Alt, v: &PValue, env: &PEnv) -> Option<PEnv> {
    match (&alt.con, v) {
        (AltCon::Default, _) => {
            let mut env2 = env.clone();
            if let Some(b) = alt.binders.first() {
                env2 = env2.bind(*b, PThunkCell::done(PDenot::Ok(v.clone())));
            }
            Some(env2)
        }
        (AltCon::Int(n), PValue::Int(m)) if n == m => Some(env.clone()),
        (AltCon::Char(a), PValue::Char(b)) if a == b => Some(env.clone()),
        (AltCon::Str(a), PValue::Str(b)) if **a == **b => Some(env.clone()),
        (AltCon::Con(c), PValue::Con(d, fields)) if c == d => {
            let mut env2 = env.clone();
            for (b, f) in alt.binders.iter().zip(fields) {
                env2 = env2.bind(*b, f.clone());
            }
            Some(env2)
        }
        _ => None,
    }
}

/// The information order of the precise domain: `Bot` below everything,
/// exceptions only below themselves, values structural.
pub fn pdenot_leq(ev: &PreciseEvaluator, d1: &PDenot, d2: &PDenot, depth: u32) -> bool {
    match (d1, d2) {
        (PDenot::Bot, _) => true,
        (_, PDenot::Bot) => false,
        (PDenot::Exn(a), PDenot::Exn(b)) => a == b,
        (PDenot::Exn(_), PDenot::Ok(_)) | (PDenot::Ok(_), PDenot::Exn(_)) => false,
        (PDenot::Ok(v1), PDenot::Ok(v2)) => pvalue_leq(ev, v1, v2, depth),
    }
}

fn pvalue_leq(ev: &PreciseEvaluator, v1: &PValue, v2: &PValue, depth: u32) -> bool {
    if depth == 0 {
        return true;
    }
    match (v1, v2) {
        (PValue::Int(a), PValue::Int(b)) => a == b,
        (PValue::Char(a), PValue::Char(b)) => a == b,
        (PValue::Str(a), PValue::Str(b)) => a == b,
        (PValue::Con(c1, f1), PValue::Con(c2, f2)) => {
            c1 == c2
                && f1.len() == f2.len()
                && f1.iter().zip(f2).all(|(a, b)| {
                    let da = ev.force(a);
                    let db = ev.force(b);
                    pdenot_leq(ev, &da, &db, depth - 1)
                })
        }
        (PValue::Fun(_), PValue::Fun(_)) => {
            // Probe with marked exceptions and with ⊥.
            let probes = [
                PDenot::Exn(Exception::UserError("#probe".into())),
                PDenot::Bot,
                PDenot::Ok(PValue::Int(0)),
            ];
            probes.iter().all(|p| {
                let r1 = papply(ev, v1, p.clone());
                let r2 = papply(ev, v2, p.clone());
                pdenot_leq(ev, &r1, &r2, depth - 1)
            })
        }
        _ => false,
    }
}

fn papply(ev: &PreciseEvaluator, f: &PValue, arg: PDenot) -> PDenot {
    let PValue::Fun(clo) = f else {
        panic!("probe application of a non-function");
    };
    let t = PThunkCell::done(arg);
    ev.eval(&clo.body, &clo.env.bind(clo.param, t))
}

/// Compares two precise denotations (see [`crate::compare::Verdict`]).
pub fn compare_pdenots(
    ev: &PreciseEvaluator,
    d1: &PDenot,
    d2: &PDenot,
    depth: u32,
) -> crate::compare::Verdict {
    use crate::compare::Verdict;
    match (pdenot_leq(ev, d1, d2, depth), pdenot_leq(ev, d2, d1, depth)) {
        (true, true) => Verdict::Equal,
        (true, false) => Verdict::LeftRefinesToRight,
        (false, true) => Verdict::RightRefinesToLeft,
        (false, false) => Verdict::Incomparable,
    }
}

fn pbool(b: bool) -> PValue {
    let con = if b { Known::True } else { Known::False };
    PValue::Con(con.symbol(), vec![])
}

/// Converts a runtime exception to an in-language value.
pub fn exception_to_pvalue(e: &Exception) -> PValue {
    let name = e.constructor_symbol();
    match e.payload() {
        None => PValue::Con(name, vec![]),
        Some(s) => PValue::Con(
            name,
            vec![PThunkCell::done(PDenot::Ok(PValue::Str(Rc::from(s))))],
        ),
    }
}
