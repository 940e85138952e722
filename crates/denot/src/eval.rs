//! The denotational evaluator for the *imprecise* semantics — a direct
//! transcription of the equations of §4.2–§4.3:
//!
//! * `[[e1 (+) e2]] = v1 ⊕ v2` when both normal, else
//!   `Bad (S[[e1]] ∪ S[[e2]])`;
//! * application of an exceptional function unions in the *argument's*
//!   exceptions (`Bad (s ∪ S[[e2]])`) so strictness-analysis-driven
//!   evaluation-order changes stay sound, but application of a normal
//!   function does not (so beta reduction survives — `(\x.3)(1/0) = 3`);
//! * `case` with an exceptional scrutinee evaluates every alternative in
//!   *exception-finding mode* (pattern variables bound to `Bad {}`) and
//!   unions the resulting sets;
//! * `raise` injects a singleton set;
//! * `fix` (here: `letrec`) denotes the limit of the ascending Kleene
//!   chain; the evaluator computes a fuel-indexed approximant from below,
//!   so running out of fuel yields `⊥` and more fuel can only move the
//!   result *up* in the `⊑` order (verified by the fuel-monotonicity
//!   property tests).
//!
//! Evaluation is lazy (call-by-need over memoizing [`DThunk`]s), so
//! exceptional values hide inside data structures exactly as §3.2
//! describes.

use std::cell::Cell;
use std::rc::Rc;

use urk_syntax::core::{Alt, AltCon, Expr, PrimOp};
use urk_syntax::{DataEnv, Exception, Known, Symbol};

use crate::domain::{Closure, DThunk, Denot, Env, Knots, Thunk, ThunkState, Value, RELEASED_KNOT};
use crate::exnset::ExnSet;

/// Tunables for the denotational evaluator.
#[derive(Clone, Debug)]
pub struct DenotConfig {
    /// Evaluation fuel; exhausting it yields the approximant `⊥`.
    pub fuel: u64,
    /// Maximum recursion depth (a host-stack guard); exceeding it also
    /// yields `⊥`.
    pub max_depth: u32,
    /// Selects the pessimistic rather than optimistic denotation for
    /// `unsafeIsException` (§5.4).
    pub pessimistic_is_exception: bool,
}

impl Default for DenotConfig {
    fn default() -> DenotConfig {
        DenotConfig {
            fuel: 1_000_000,
            max_depth: 600,
            pessimistic_is_exception: false,
        }
    }
}

/// The imprecise denotational evaluator.
///
/// The evaluator owns the knots it ties (every `letrec` group, including a
/// program's top level passed to [`DenotEvaluator::bind_recursive`], and
/// every memoized value that could reach its own thunk) and releases them
/// when it is dropped, so the memory an evaluation used comes back with
/// the evaluator. Keep the evaluator alive for as long as a [`Denot`] it
/// produced is inspected.
///
/// # Panics
///
/// The evaluator panics on dynamically ill-typed programs (applying an
/// integer, adding a list, ...). Run [`urk_types::infer_program`] first;
/// every public pipeline in the `urk` crate does. Forcing a denotation
/// after its evaluator was dropped also panics, when it reaches a released
/// knot.
///
/// [`urk_types::infer_program`]: ../../urk_types/fn.infer_program.html
pub struct DenotEvaluator<'a> {
    data: &'a DataEnv,
    config: DenotConfig,
    fuel: Cell<u64>,
    depth: Cell<u32>,
    knots: Knots<Thunk>,
}

impl<'a> DenotEvaluator<'a> {
    /// Creates an evaluator with the default configuration.
    pub fn new(data: &'a DataEnv) -> DenotEvaluator<'a> {
        DenotEvaluator::with_config(data, DenotConfig::default())
    }

    /// Creates an evaluator with an explicit configuration.
    pub fn with_config(data: &'a DataEnv, config: DenotConfig) -> DenotEvaluator<'a> {
        let fuel = config.fuel;
        DenotEvaluator {
            data,
            config,
            fuel: Cell::new(fuel),
            depth: Cell::new(0),
            knots: Knots::new(),
        }
    }

    /// Remaining fuel (diagnostics; also used by tests to measure cost).
    pub fn fuel_left(&self) -> u64 {
        self.fuel.get()
    }

    /// Resets fuel and depth so the evaluator can be reused.
    pub fn refill(&self) {
        self.fuel.set(self.config.fuel);
        self.depth.set(0);
    }

    /// Evaluates a closed expression.
    pub fn eval_closed(&self, e: &Rc<Expr>) -> Denot {
        self.eval(e, &Env::empty())
    }

    /// Evaluates `e` in `env` to a denotation (WHNF-deep only; constructor
    /// fields stay lazy).
    pub fn eval(&self, e: &Rc<Expr>, env: &Env) -> Denot {
        // Fuel and depth guards: both approximate from below by ⊥.
        let f = self.fuel.get();
        if f == 0 {
            return Denot::bottom();
        }
        self.fuel.set(f - 1);
        let d = self.depth.get();
        if d >= self.config.max_depth {
            return Denot::bottom();
        }
        self.depth.set(d + 1);
        let result = self.eval_inner(e, env);
        self.depth.set(self.depth.get() - 1);
        result
    }

    fn eval_inner(&self, e: &Rc<Expr>, env: &Env) -> Denot {
        match &**e {
            Expr::Var(v) => {
                let t = env
                    .lookup(*v)
                    .unwrap_or_else(|| panic!("unbound variable '{v}' reached the evaluator"));
                self.force(&t)
            }
            Expr::Int(n) => Denot::Ok(Value::Int(*n)),
            Expr::Char(c) => Denot::Ok(Value::Char(*c)),
            Expr::Str(s) => Denot::Ok(Value::Str(s.clone())),
            Expr::Con(c, args) => {
                let fields = args
                    .iter()
                    .map(|a| Thunk::pending(a.clone(), env.clone()))
                    .collect();
                Denot::Ok(Value::Con(*c, fields))
            }
            Expr::Lam(x, b) => Denot::Ok(Value::Fun(Rc::new(Closure {
                param: *x,
                body: b.clone(),
                env: env.clone(),
            }))),
            Expr::App(f, x) => {
                let df = self.eval(f, env);
                match df {
                    Denot::Ok(Value::Fun(clo)) => {
                        let arg = Thunk::pending(x.clone(), env.clone());
                        self.apply(&clo, arg)
                    }
                    Denot::Ok(other) => {
                        panic!("application of a non-function value {other:?} (ill-typed program)")
                    }
                    // §4.2: an exceptional function unions in the
                    // argument's exceptions, licensing call-by-value for
                    // strict functions.
                    Denot::Bad(s) => {
                        let dx = self.eval(x, env);
                        Denot::Bad(s.union(&dx.exn_part()))
                    }
                }
            }
            Expr::Let(x, rhs, body) => {
                let t = Thunk::pending(rhs.clone(), env.clone());
                self.eval(body, &env.bind(*x, t))
            }
            Expr::LetRec(binds, body) => {
                let env2 = self.bind_recursive(binds, env);
                self.eval(body, &env2)
            }
            Expr::Case(scrut, alts) => self.eval_case(scrut, alts, env),
            Expr::Prim(op, args) => self.eval_prim(*op, args, env),
            Expr::Raise(x) => {
                let dx = self.eval(x, env);
                match dx {
                    Denot::Bad(s) => Denot::Bad(s),
                    Denot::Ok(v) => match self.value_to_exception(&v) {
                        Ok(exn) => Denot::Bad(ExnSet::singleton(exn)),
                        Err(s) => Denot::Bad(s),
                    },
                }
            }
        }
    }

    /// Builds the cyclic environment for a recursive group. The knots it
    /// ties live until this evaluator is dropped.
    pub fn bind_recursive(&self, binds: &[(Symbol, Rc<Expr>)], env: &Env) -> Env {
        // Allocate the thunks first (with a placeholder environment), build
        // the extended environment containing them, then retie the knot.
        let thunks: Vec<DThunk> = binds
            .iter()
            .map(|(_, rhs)| Thunk::pending(rhs.clone(), Env::empty()))
            .collect();
        let mut env2 = env.clone();
        for ((name, _), t) in binds.iter().zip(&thunks) {
            env2 = env2.bind(*name, t.clone());
        }
        for ((_, rhs), t) in binds.iter().zip(&thunks) {
            *t.state.borrow_mut() = ThunkState::Pending(rhs.clone(), env2.clone());
            self.knots.record(t);
        }
        env2
    }

    /// Forces a thunk to a denotation, memoizing the result. Re-entrant
    /// forcing (a directly self-referential value such as `black = black +
    /// 1`) is `⊥`.
    ///
    /// # Panics
    ///
    /// If `t` is a knot released by a dropped evaluator.
    pub fn force(&self, t: &DThunk) -> Denot {
        let pending = {
            let state = t.state.borrow();
            match &*state {
                ThunkState::Done(d) => return d.clone(),
                ThunkState::Evaluating => return Denot::bottom(),
                ThunkState::Pending(e, env) => (e.clone(), env.clone()),
                ThunkState::Released => panic!("{RELEASED_KNOT}"),
            }
        };
        *t.state.borrow_mut() = ThunkState::Evaluating;
        let d = self.eval(&pending.0, &pending.1);
        if d.can_close_a_cycle() {
            self.knots.record(t);
        }
        *t.state.borrow_mut() = ThunkState::Done(d.clone());
        d
    }

    /// Applies a closure to an argument thunk.
    pub fn apply(&self, clo: &Closure, arg: DThunk) -> Denot {
        let env = clo.env.bind(clo.param, arg);
        self.eval(&clo.body, &env)
    }

    /// Applies a denotation (expected to be a function) to a thunk,
    /// following the §4.2 application rule.
    pub fn apply_denot(&self, f: &Denot, arg: DThunk) -> Denot {
        match f {
            Denot::Ok(Value::Fun(clo)) => self.apply(clo, arg),
            Denot::Ok(other) => {
                panic!("application of a non-function value {other:?} (ill-typed program)")
            }
            Denot::Bad(s) => {
                let da = self.force(&arg);
                Denot::Bad(s.union(&da.exn_part()))
            }
        }
    }

    // ------------------------------------------------------------------
    // case (§4.3)
    // ------------------------------------------------------------------

    fn eval_case(&self, scrut: &Rc<Expr>, alts: &[Alt], env: &Env) -> Denot {
        let ds = self.eval(scrut, env);
        match ds {
            Denot::Ok(v) => {
                for alt in alts {
                    if let Some(env2) = self.match_alt(alt, &v, env) {
                        return self.eval(&alt.rhs, &env2);
                    }
                }
                Denot::Bad(ExnSet::singleton(Exception::PatternMatchFail(
                    "case".into(),
                )))
            }
            // Exception-finding mode: the semantics "must explore all the
            // ways in which the implementation might deliver an exception",
            // binding pattern variables to the strange value Bad {}.
            Denot::Bad(s) => {
                let mut out = s;
                for alt in alts {
                    let mut env2 = env.clone();
                    for b in &alt.binders {
                        env2 = env2.bind(*b, Thunk::bad_empty());
                    }
                    let d = self.eval(&alt.rhs, &env2);
                    out = out.union(&d.exn_part());
                }
                Denot::Bad(out)
            }
        }
    }

    /// Tries to match one alternative; returns the extended environment.
    fn match_alt(&self, alt: &Alt, v: &Value, env: &Env) -> Option<Env> {
        match (&alt.con, v) {
            // A default alternative may carry one binder for the (already
            // forced) scrutinee — the shape the let-to-case transformation
            // produces.
            (AltCon::Default, _) => {
                let mut env2 = env.clone();
                if let Some(b) = alt.binders.first() {
                    env2 = env2.bind(*b, Thunk::done(Denot::Ok(v.clone())));
                }
                Some(env2)
            }
            (AltCon::Int(n), Value::Int(m)) if n == m => Some(env.clone()),
            (AltCon::Char(a), Value::Char(b)) if a == b => Some(env.clone()),
            (AltCon::Str(a), Value::Str(b)) if **a == **b => Some(env.clone()),
            (AltCon::Con(c), Value::Con(d, fields)) if c == d => {
                debug_assert_eq!(alt.binders.len(), fields.len());
                let mut env2 = env.clone();
                for (b, f) in alt.binders.iter().zip(fields) {
                    env2 = env2.bind(*b, f.clone());
                }
                Some(env2)
            }
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Primitive operations (§4.2's (+) family and friends)
    // ------------------------------------------------------------------

    fn eval_prim(&self, op: PrimOp, args: &[Rc<Expr>], env: &Env) -> Denot {
        match op {
            PrimOp::Seq => {
                let d0 = self.eval(&args[0], env);
                match d0 {
                    Denot::Ok(_) => self.eval(&args[1], env),
                    Denot::Bad(s) => Denot::Bad(s),
                }
            }
            PrimOp::MapExn => self.eval_map_exn(&args[0], &args[1], env),
            PrimOp::UnsafeIsException => {
                let d = self.eval(&args[0], env);
                match d {
                    Denot::Ok(_) => Denot::Ok(bool_value(false)),
                    Denot::Bad(s) => {
                        if self.config.pessimistic_is_exception && s.may_diverge() {
                            Denot::bottom()
                        } else {
                            Denot::Ok(bool_value(true))
                        }
                    }
                }
            }
            PrimOp::UnsafeGetException => {
                let d = self.eval(&args[0], env);
                match d {
                    Denot::Ok(v) => Denot::Ok(Value::Con(
                        Known::Ok.symbol(),
                        vec![Thunk::done(Denot::Ok(v))],
                    )),
                    Denot::Bad(s) => match s.some_member() {
                        // A deterministic (least-member) choice; the §6
                        // proof obligation is that this choice is moot.
                        Some(exn) => {
                            let inner = Thunk::done(Denot::Ok(self.exception_to_value(&exn)));
                            Denot::Ok(Value::Con(Known::Bad.symbol(), vec![inner]))
                        }
                        // Bad {} is not denotable; All (⊥) stays ⊥.
                        None => Denot::bottom(),
                    },
                }
            }
            _ if op.arity() == 1 => {
                let d = self.eval(&args[0], env);
                match d {
                    Denot::Ok(v) => self.prim_unary(op, &v),
                    Denot::Bad(s) => Denot::Bad(s),
                }
            }
            _ => {
                // The (+) rule: both arguments evaluated; exception sets
                // unioned when either is exceptional. The *order* in which
                // we evaluate them here is irrelevant — both sets always
                // participate — which is the whole point of the design.
                let d1 = self.eval(&args[0], env);
                let d2 = self.eval(&args[1], env);
                match (&d1, &d2) {
                    (Denot::Ok(v1), Denot::Ok(v2)) => self.prim_binary(op, v1, v2),
                    _ => Denot::Bad(d1.exn_part().union(&d2.exn_part())),
                }
            }
        }
    }

    fn prim_unary(&self, op: PrimOp, v: &Value) -> Denot {
        match (op, v) {
            (PrimOp::Neg, Value::Int(n)) => match n.checked_neg() {
                Some(m) => Denot::Ok(Value::Int(m)),
                None => Denot::Bad(ExnSet::singleton(Exception::Overflow)),
            },
            (PrimOp::ShowInt, Value::Int(n)) => {
                Denot::Ok(Value::Str(Rc::from(n.to_string().as_str())))
            }
            (PrimOp::StrLen, Value::Str(s)) => Denot::Ok(Value::Int(s.chars().count() as i64)),
            (PrimOp::Ord, Value::Char(c)) => Denot::Ok(Value::Int(*c as i64)),
            (PrimOp::Chr, Value::Int(n)) => match u32::try_from(*n).ok().and_then(char::from_u32) {
                Some(c) => Denot::Ok(Value::Char(c)),
                None => Denot::Bad(ExnSet::singleton(Exception::Overflow)),
            },
            _ => panic!("ill-typed unary primop {op:?} on {v:?}"),
        }
    }

    fn prim_binary(&self, op: PrimOp, v1: &Value, v2: &Value) -> Denot {
        use PrimOp::*;
        let int = |n: Option<i64>| match n {
            Some(n) => Denot::Ok(Value::Int(n)),
            None => Denot::Bad(ExnSet::singleton(Exception::Overflow)),
        };
        match (op, v1, v2) {
            (Add, Value::Int(a), Value::Int(b)) => int(a.checked_add(*b)),
            (Sub, Value::Int(a), Value::Int(b)) => int(a.checked_sub(*b)),
            (Mul, Value::Int(a), Value::Int(b)) => int(a.checked_mul(*b)),
            (Div, Value::Int(_), Value::Int(0)) => {
                Denot::Bad(ExnSet::singleton(Exception::DivideByZero))
            }
            (Div, Value::Int(a), Value::Int(b)) => int(a.checked_div(*b)),
            (Mod, Value::Int(_), Value::Int(0)) => {
                Denot::Bad(ExnSet::singleton(Exception::DivideByZero))
            }
            (Mod, Value::Int(a), Value::Int(b)) => int(a.checked_rem(*b)),
            (IntEq, Value::Int(a), Value::Int(b)) => Denot::Ok(bool_value(a == b)),
            (IntLt, Value::Int(a), Value::Int(b)) => Denot::Ok(bool_value(a < b)),
            (IntLe, Value::Int(a), Value::Int(b)) => Denot::Ok(bool_value(a <= b)),
            (IntGt, Value::Int(a), Value::Int(b)) => Denot::Ok(bool_value(a > b)),
            (IntGe, Value::Int(a), Value::Int(b)) => Denot::Ok(bool_value(a >= b)),
            (CharEq, Value::Char(a), Value::Char(b)) => Denot::Ok(bool_value(a == b)),
            (StrEq, Value::Str(a), Value::Str(b)) => Denot::Ok(bool_value(a == b)),
            (StrAppend, Value::Str(a), Value::Str(b)) => {
                Denot::Ok(Value::Str(Rc::from(format!("{a}{b}").as_str())))
            }
            _ => panic!("ill-typed binary primop {op:?}"),
        }
    }

    /// §5.4: `mapException f e` applies `f` to every member of the
    /// exception set of `e`; normal values pass through untouched and `f`
    /// is never forced for them.
    fn eval_map_exn(&self, f: &Rc<Expr>, e: &Rc<Expr>, env: &Env) -> Denot {
        let de = self.eval(e, env);
        let Denot::Bad(s) = de else {
            return de;
        };
        // ⊥ maps to ⊥: "all exceptions" cannot be enumerated, and a
        // divergent argument stays divergent.
        let Some(members) = s.members() else {
            return Denot::bottom();
        };
        let df = self.eval(f, env);
        let mut out = ExnSet::empty();
        for exn in members {
            let arg = Thunk::done(Denot::Ok(self.exception_to_value(&exn)));
            let r = self.apply_denot(&df, arg);
            match r {
                Denot::Bad(s2) => out = out.union(&s2),
                Denot::Ok(v) => match self.value_to_exception(&v) {
                    Ok(exn2) => out.insert(exn2),
                    Err(s2) => out = out.union(&s2),
                },
            }
        }
        Denot::Bad(out)
    }

    // ------------------------------------------------------------------
    // Exception <-> value conversions
    // ------------------------------------------------------------------

    /// Converts an in-language `Exception` constructor value to the runtime
    /// [`Exception`]. Forcing a string payload may itself be exceptional;
    /// in that case the payload's exception set is returned as `Err`.
    pub fn value_to_exception(&self, v: &Value) -> Result<Exception, ExnSet> {
        let Value::Con(name, fields) = v else {
            panic!("raise applied to a non-Exception value {v:?} (ill-typed program)");
        };
        let payload = match fields.first() {
            None => None,
            Some(t) => match self.force(t) {
                Denot::Ok(Value::Str(s)) => Some(s.to_string()),
                Denot::Ok(other) => {
                    panic!("exception payload is not a string: {other:?} (ill-typed program)")
                }
                Denot::Bad(s) => return Err(s),
            },
        };
        Exception::from_constructor(*name, payload.as_deref())
            .ok_or_else(|| panic!("unknown exception constructor '{name}'"))
    }

    /// Converts a runtime [`Exception`] back into an in-language value (as
    /// `getException` and `mapException` must).
    pub fn exception_to_value(&self, e: &Exception) -> Value {
        let name = e.constructor_symbol();
        let info = self.data.con(name);
        debug_assert!(info.is_some(), "Exception constructors are built in");
        match e.payload() {
            None => Value::Con(name, vec![]),
            Some(s) => Value::Con(name, vec![Thunk::done(Denot::Ok(Value::Str(Rc::from(s))))]),
        }
    }
}

/// Builds the Boolean constructor values.
pub fn bool_value(b: bool) -> Value {
    let con = if b { Known::True } else { Known::False };
    Value::Con(con.symbol(), vec![])
}
