//! The *semantic* pure layer: the §4.4 transition system of
//! [`crate::lts`] performed over denotations, thread group and all.
//!
//! The non-deterministic choice `x ∈ s` of `getException (Bad s)` is
//! delegated to an [`ExceptionOracle`], making the confinement of
//! non-determinism to the IO monad (§3.5) literal: the pure layer computes
//! the *set*; only `perform`ing chooses. The oracle may also take the
//! `NonTermination` self-loop, which diverges.
//!
//! Fuel bounds one pure evaluation, not a run: each action the LTS
//! forces, each continuation it applies and the final rendering start
//! from the evaluator's full fuel. The run itself is bounded by charging
//! every action against a budget of the same size, so a program that
//! performs actions forever still ends `Diverged`.

use urk_denot::{show_denot, DThunk, Denot, DenotEvaluator, ExnSet, Thunk, Value};
use urk_syntax::{Exception, Known};

use crate::lts::{self, IoResult, PureLayer, RunOutcome, Shape, Stop};
use crate::oracle::{ExceptionOracle, OracleChoice};
use crate::trace::Input;

/// Asynchronous events for the semantic runner: delivered at the n-th
/// `getException` transition (0-based).
#[derive(Clone, Debug, Default)]
pub struct AsyncSchedule {
    pub events: Vec<(u64, Exception)>,
}

/// Performs an `IO` denotation under the LTS.
///
/// # Examples
///
/// The headline choice, made explicit by the oracle:
///
/// ```
/// use std::rc::Rc;
/// use urk_denot::{DenotEvaluator, Env, Thunk};
/// use urk_io::{run_denot, AsyncSchedule, IoResult, SeededOracle, StringInput};
/// use urk_syntax::{parse_expr_src, desugar_expr, DataEnv};
///
/// let ev = DenotEvaluator::new();
/// let action = desugar_expr(
///     &parse_expr_src(r#"getException ((1/0) + raise (UserError "Urk"))"#)?,
///     &DataEnv::new(),
/// )?;
/// let mut input = StringInput::new("");
/// let mut oracle = SeededOracle::new(7);
/// let out = run_denot(
///     &ev,
///     Thunk::pending(Rc::new(action), Env::empty()),
///     &mut input,
///     &mut oracle,
///     &AsyncSchedule::default(),
/// );
/// let IoResult::Done(v) = out.result else { panic!() };
/// assert!(v == "Bad DivideByZero" || v == "Bad (UserError \"Urk\")");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_denot(
    ev: &DenotEvaluator,
    action: DThunk,
    input: &mut dyn Input,
    oracle: &mut dyn ExceptionOracle,
    schedule: &AsyncSchedule,
) -> RunOutcome<ExnSet> {
    let mut layer = DenotLayer {
        ev,
        oracle,
        schedule,
        get_exceptions: 0,
        actions_left: ev.config().fuel,
    };
    lts::run(&mut layer, action, input)
}

/// Denotations as a pure layer: a handle is a thunk.
struct DenotLayer<'a> {
    ev: &'a DenotEvaluator,
    oracle: &'a mut dyn ExceptionOracle,
    schedule: &'a AsyncSchedule,
    /// `getException` transitions taken so far, for the schedule.
    get_exceptions: u64,
    /// Actions the run may still perform before it counts as diverging.
    actions_left: u64,
}

/// `Bad s` escaping a thread: `⊥` diverges, anything else is uncaught.
fn stop(s: ExnSet) -> Stop<ExnSet> {
    if s.is_all() {
        IoResult::Diverged
    } else {
        IoResult::Uncaught(s)
    }
}

fn done(v: Value) -> DThunk {
    Thunk::done(Denot::Ok(v))
}

impl PureLayer for DenotLayer<'_> {
    type Handle = DThunk;
    type Abnormal = ExnSet;

    fn begin_action(&mut self) -> Result<(), Stop<ExnSet>> {
        if self.actions_left == 0 {
            return Err(IoResult::Diverged);
        }
        self.actions_left -= 1;
        self.ev.refill();
        Ok(())
    }

    fn force(&mut self, h: &DThunk) -> Result<Shape<DThunk>, Stop<ExnSet>> {
        Ok(match self.ev.force(h) {
            Denot::Ok(Value::Con(con, fields)) => Shape::Con(con, fields),
            Denot::Ok(Value::Int(n)) => Shape::Int(n),
            Denot::Ok(Value::Char(c)) => Shape::Char(c),
            Denot::Ok(Value::Str(s)) => Shape::Str(s),
            Denot::Ok(Value::Fun(_)) => panic!("performed a function (ill-typed program)"),
            Denot::Bad(s) => return Err(stop(s)),
        })
    }

    fn value(&mut self, v: Shape<DThunk>) -> DThunk {
        done(match v {
            Shape::Con(con, fields) => Value::Con(con, fields),
            Shape::Int(n) => Value::Int(n),
            Shape::Char(c) => Value::Char(c),
            Shape::Str(s) => Value::Str(s),
        })
    }

    fn bad(&mut self, exn: &Exception) -> DThunk {
        let inner = done(self.ev.exception_to_value(exn));
        done(Value::Con(Known::Bad.symbol(), vec![inner]))
    }

    fn apply(&mut self, k: DThunk, v: DThunk) -> DThunk {
        self.ev.refill();
        Thunk::done(self.ev.apply_denot(&self.ev.force(&k), v))
    }

    fn release(&mut self, _: DThunk) {}

    fn render(&mut self, h: &DThunk, depth: u32) -> String {
        self.ev.refill();
        show_denot(self.ev, &self.ev.force(h), depth)
    }

    fn get_exception(&mut self, arg: DThunk) -> Result<Result<DThunk, Exception>, Stop<ExnSet>> {
        let n = self.get_exceptions;
        self.get_exceptions += 1;
        // §5.1's rule: an asynchronous event may pre-empt the value
        // entirely.
        if let Some((_, exn)) = self.schedule.events.iter().find(|(at, _)| *at == n) {
            return Ok(Err(exn.clone()));
        }
        match self.ev.force(&arg) {
            Denot::Ok(_) => Ok(Ok(arg)),
            Denot::Bad(s) => match self.oracle.choose(&s) {
                OracleChoice::Diverge => Err(IoResult::Diverged),
                OracleChoice::Exception(exn) => Ok(Err(exn)),
            },
        }
    }
}
