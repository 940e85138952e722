//! The denotational evaluator — a direct transcription of the equations of
//! §4.2–§4.3 for the *imprecise* semantics:
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
//!
//! The same evaluator also runs the two designs §3.4 rejects, selected by
//! [`Design`]. They differ from the imprecise semantics in a handful of
//! rules only, and the evaluator consults the design at exactly those
//! sites:
//!
//! 1. applying an abnormal function returns the function's own exception
//!    and never touches the argument;
//! 2. `case` on an abnormal scrutinee propagates it (no exception-finding
//!    mode);
//! 3. a strict binary primitive evaluates its operands in a fixed order
//!    ([`EvalOrder`]), or in the order an oracle picks under
//!    [`Design::Nondet`], and the first abnormal operand wins;
//! 4. `unsafeIsException` of `⊥` is `⊥`;
//! 5. under [`Design::Nondet`], `getException` is a *pure* function.
//!
//! Every other rule is shared, so a precise design only ever builds
//! `Bad {e}` (one exception) or `Bad ALL` (`⊥`), the embedding of the
//! precise domain described in [`crate::domain`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use urk_syntax::core::{Alt, AltCon, Expr, PrimOp};
use urk_syntax::{Exception, Known, Symbol};

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

/// Which operand of a strict binary primitive a precise design evaluates
/// first.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EvalOrder {
    LeftToRight,
    RightToLeft,
}

/// The three candidate semantics of §3.4, as rule sets of one evaluator
/// (see the module docs for the rules that differ).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Design {
    /// The paper's semantics (§4): exceptional values are sets.
    Imprecise,
    /// The ML/FL-style design: one exception, a fixed evaluation order,
    /// and `⊥` distinct from every exception.
    Precise(EvalOrder),
    /// The non-deterministic design: precise rules, but the order of each
    /// strict primitive is chosen by an oracle tape
    /// ([`DenotEvaluator::set_oracle`]) and `getException` is pure.
    Nondet,
}

/// The denotational evaluator, for one [`Design`].
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
pub struct DenotEvaluator {
    config: DenotConfig,
    design: Design,
    fuel: Cell<u64>,
    depth: Cell<u32>,
    knots: Knots,
    /// The oracle tape of [`Design::Nondet`]: one bit per strict binary
    /// primitive, `true` meaning right operand first.
    oracle: RefCell<Vec<bool>>,
    oracle_consumed: Cell<usize>,
}

impl Default for DenotEvaluator {
    fn default() -> DenotEvaluator {
        DenotEvaluator::new()
    }
}

impl DenotEvaluator {
    /// Creates an imprecise evaluator with the default configuration.
    pub fn new() -> DenotEvaluator {
        DenotEvaluator::with_config(DenotConfig::default())
    }

    /// Creates an imprecise evaluator with an explicit configuration.
    pub fn with_config(config: DenotConfig) -> DenotEvaluator {
        DenotEvaluator::with_design(config, Design::Imprecise)
    }

    /// Creates an evaluator for one of §3.4's designs. The precise designs
    /// ignore `config.pessimistic_is_exception`: they always answer `⊥`
    /// for `unsafeIsException ⊥`.
    pub fn with_design(config: DenotConfig, design: Design) -> DenotEvaluator {
        let fuel = config.fuel;
        DenotEvaluator {
            config,
            design,
            fuel: Cell::new(fuel),
            depth: Cell::new(0),
            knots: Knots::new(),
            oracle: RefCell::new(Vec::new()),
            oracle_consumed: Cell::new(0),
        }
    }

    /// The design this evaluator runs.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The configuration this evaluator runs under.
    pub fn config(&self) -> &DenotConfig {
        &self.config
    }

    /// Installs an oracle decision tape for [`Design::Nondet`] (positions
    /// beyond the tape mean left operand first) and refills fuel.
    pub fn set_oracle(&self, bits: Vec<bool>) {
        *self.oracle.borrow_mut() = bits;
        self.oracle_consumed.set(0);
        self.refill();
    }

    /// Number of oracle decisions consumed since the tape was installed.
    pub fn oracle_decisions(&self) -> usize {
        self.oracle_consumed.get()
    }

    /// Reads the next oracle decision: `true` means right operand first.
    fn decide(&self) -> bool {
        let i = self.oracle_consumed.get();
        self.oracle_consumed.set(i + 1);
        self.oracle.borrow().get(i).copied().unwrap_or(false)
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
            // Rule 5: the non-deterministic design's *pure* getException.
            Expr::Con(c, args) if self.design == Design::Nondet && Known::GetException.is(*c) => {
                self.get_exception(self.eval(&args[0], env))
            }
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
                self.apply_denot(&df, Thunk::pending(x.clone(), env.clone()))
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
            // §4.2: an exceptional function unions in the argument's
            // exceptions, licensing call-by-value for strict functions.
            Denot::Bad(s) if self.design == Design::Imprecise => {
                let da = self.force(&arg);
                Denot::Bad(s.union(&da.exn_part()))
            }
            // Rule 1: the precise designs never touch the argument.
            Denot::Bad(s) => Denot::Bad(s.clone()),
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
            // Rule 2: the precise designs propagate the scrutinee.
            Denot::Bad(s) if self.design != Design::Imprecise => Denot::Bad(s),
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
                        let bottom = match self.design {
                            Design::Imprecise => {
                                self.config.pessimistic_is_exception && s.may_diverge()
                            }
                            // Rule 4: ⊥ is not an exception in the precise
                            // designs, so it is never reported as one.
                            Design::Precise(_) | Design::Nondet => s.is_all(),
                        };
                        if bottom {
                            Denot::bottom()
                        } else {
                            Denot::Ok(bool_value(true))
                        }
                    }
                }
            }
            PrimOp::UnsafeGetException => self.get_exception(self.eval(&args[0], env)),
            _ if op.arity() == 1 => {
                let d = self.eval(&args[0], env);
                match d {
                    Denot::Ok(v) => self.prim_unary(op, &v),
                    Denot::Bad(s) => Denot::Bad(s),
                }
            }
            _ => {
                // Rule 3: a precise design evaluates the operands in one
                // order, fixed or chosen by the oracle, and the first
                // abnormal operand wins; the imprecise design evaluates
                // both, and the order is irrelevant.
                let right_first = match self.design {
                    Design::Imprecise => false,
                    Design::Precise(order) => order == EvalOrder::RightToLeft,
                    Design::Nondet => self.decide(),
                };
                let (i, j) = if right_first { (1, 0) } else { (0, 1) };
                let first = self.eval(&args[i], env);
                if first.is_bad() && self.design != Design::Imprecise {
                    return first;
                }
                let second = self.eval(&args[j], env);
                let (d1, d2) = if right_first {
                    (second, first)
                } else {
                    (first, second)
                };
                match (&d1, &d2) {
                    (Denot::Ok(v1), Denot::Ok(v2)) => self.prim_binary(op, v1, v2),
                    // The (+) rule: exception sets unioned when either
                    // operand is exceptional — both sets always
                    // participate, which is the whole point of the design.
                    // (A precise design reaches this only with a normal
                    // first operand.)
                    _ => Denot::Bad(d1.exn_part().union(&d2.exn_part())),
                }
            }
        }
    }

    /// `getException` as a pure function: `OK v` for a normal value, `Bad
    /// x` for a member `x` of an exceptional one. This is
    /// `unsafeGetException` (§5.4) in every design and `getException` under
    /// [`Design::Nondet`].
    fn get_exception(&self, d: Denot) -> Denot {
        match d {
            Denot::Ok(v) => Denot::Ok(Value::Con(
                Known::Ok.symbol(),
                vec![Thunk::done(Denot::Ok(v))],
            )),
            Denot::Bad(s) => match s.some_member() {
                // A deterministic (least-member) choice; the §6 proof
                // obligation is that this choice is moot. A precise
                // design's set has exactly one member.
                Some(exn) => {
                    let inner = Thunk::done(Denot::Ok(self.exception_to_value(&exn)));
                    Denot::Ok(Value::Con(Known::Bad.symbol(), vec![inner]))
                }
                // Bad {} is not denotable; All (⊥) stays ⊥.
                None => Denot::bottom(),
            },
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
