//! The *semantic* IO runner: the §4.4 labelled transition system executed
//! over denotations.
//!
//! The transition rules implemented here are the paper's, verbatim:
//!
//! ```text
//! (v1 >>= k) → (v2 >>= k)                  if v1 → v2
//! (return v) >>= k → k v
//! getChar  --?c-->  return c
//! putChar c --!c--> return ()
//! getException (Ok v)  → return (OK v)
//! getException (Bad s) → return (Bad x)        if x ∈ s
//! getException (Bad s) → getException (Bad s)  if NonTermination ∈ s
//! getException v --?x--> return (Bad x)        on asynchronous event x
//! yield → return ()
//! ```
//!
//! This is the one-thread LTS: `yield` has no other thread to cede to, and
//! the other concurrency actions (`forkIO`, the `MVar` actions, `throwTo`)
//! end the run with [`SemIoResult::Unsupported`]. The machine runner's
//! scheduler performs them.
//!
//! The non-deterministic choice `x ∈ s` is delegated to an
//! [`ExceptionOracle`], making the confinement of non-determinism to the
//! IO monad (§3.5) literal: the pure layer computes the *set*; only
//! `perform`ing chooses.

use urk_denot::{show_denot, DThunk, Denot, DenotEvaluator, ExnSet, Thunk, Value};
use urk_syntax::{Exception, Known, Symbol};

use crate::machine_run::IO_CONSTRUCTORS;
use crate::oracle::{ExceptionOracle, OracleChoice};
use crate::trace::{Event, Input, Trace};

/// How a semantic run ended.
#[derive(Clone, Debug)]
pub enum SemIoResult {
    /// `main` performed to completion; the final value, rendered.
    Done(String),
    /// The action itself was an exceptional value — an uncaught exception
    /// set.
    Uncaught(ExnSet),
    /// The LTS took the `NonTermination` self-loop (or the action was ⊥).
    Diverged,
    /// `getChar` at end of input.
    OutOfInput,
    /// `main` performed a concurrency action, named by its constructor,
    /// that the one-thread LTS does not model.
    Unsupported(Symbol),
}

/// One semantic run's result and trace.
#[derive(Clone, Debug)]
pub struct SemRunOutcome {
    pub result: SemIoResult,
    pub trace: Trace,
}

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
/// use urk_io::{run_denot, AsyncSchedule, SeededOracle, StringInput, SemIoResult};
/// use urk_syntax::{parse_expr_src, desugar_expr, DataEnv};
///
/// let data = DataEnv::new();
/// let ev = DenotEvaluator::new(&data);
/// let action = desugar_expr(
///     &parse_expr_src(r#"getException ((1/0) + raise (UserError "Urk"))"#)?,
///     &data,
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
/// let SemIoResult::Done(v) = out.result else { panic!() };
/// assert!(v == "Bad DivideByZero" || v == "Bad (UserError \"Urk\")");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_denot(
    ev: &DenotEvaluator<'_>,
    action: DThunk,
    input: &mut dyn Input,
    oracle: &mut dyn ExceptionOracle,
    schedule: &AsyncSchedule,
) -> SemRunOutcome {
    let mut trace = Trace::new();
    let mut konts: Vec<DThunk> = Vec::new();
    let mut current = action;
    let mut get_exception_count: u64 = 0;

    loop {
        let d = ev.force(&current);
        let v = match d {
            Denot::Ok(v) => v,
            Denot::Bad(s) => {
                let result = if s.is_all() {
                    SemIoResult::Diverged
                } else {
                    SemIoResult::Uncaught(s)
                };
                return SemRunOutcome { result, trace };
            }
        };
        let Value::Con(con, fields) = &v else {
            panic!("performed a non-IO value (ill-typed program)");
        };
        let Some(io) = Known::find(*con, IO_CONSTRUCTORS) else {
            panic!("performed an unknown IO constructor '{con}'");
        };

        let produced: DThunk = match io {
            Known::Bind => {
                konts.push(fields[1].clone());
                current = fields[0].clone();
                continue;
            }
            Known::Return => fields[0].clone(),
            Known::GetChar => match input.get_char() {
                Some(c) => {
                    trace.push(Event::Input(c));
                    Thunk::done(Denot::Ok(Value::Char(c)))
                }
                None => {
                    return SemRunOutcome {
                        result: SemIoResult::OutOfInput,
                        trace,
                    }
                }
            },
            Known::PutChar => match ev.force(&fields[0]) {
                Denot::Ok(Value::Char(c)) => {
                    trace.push(Event::Output(c));
                    unit_thunk()
                }
                Denot::Ok(other) => panic!("putChar of a non-character {other:?}"),
                Denot::Bad(s) => {
                    return SemRunOutcome {
                        result: bad_result(s),
                        trace,
                    }
                }
            },
            Known::PutStr => match ev.force(&fields[0]) {
                Denot::Ok(Value::Str(s)) => {
                    trace.push(Event::OutputStr(s.to_string()));
                    unit_thunk()
                }
                Denot::Ok(other) => panic!("putStr of a non-string {other:?}"),
                Denot::Bad(s) => {
                    return SemRunOutcome {
                        result: bad_result(s),
                        trace,
                    }
                }
            },
            Known::GetException => {
                let n = get_exception_count;
                get_exception_count += 1;
                // §5.1's rule: an asynchronous event may pre-empt the value
                // entirely.
                if let Some((_, exn)) = schedule.events.iter().find(|(at, _)| *at == n) {
                    trace.push(Event::AsyncDelivered(exn.clone()));
                    bad_thunk(ev, exn)
                } else {
                    match ev.force(&fields[0]) {
                        Denot::Ok(v) => Thunk::done(Denot::Ok(Value::Con(
                            Known::Ok.symbol(),
                            vec![Thunk::done(Denot::Ok(v))],
                        ))),
                        Denot::Bad(s) => match oracle.choose(&s) {
                            OracleChoice::Diverge => {
                                return SemRunOutcome {
                                    result: SemIoResult::Diverged,
                                    trace,
                                }
                            }
                            OracleChoice::Exception(exn) => {
                                trace.push(Event::ChoseException(exn.clone()));
                                bad_thunk(ev, &exn)
                            }
                        },
                    }
                }
            }
            Known::Yield => unit_thunk(),
            _ => {
                return SemRunOutcome {
                    result: SemIoResult::Unsupported(*con),
                    trace,
                }
            }
        };

        match konts.pop() {
            None => {
                let d = ev.force(&produced);
                let rendered = show_denot(ev, &d, 32);
                return SemRunOutcome {
                    result: SemIoResult::Done(rendered),
                    trace,
                };
            }
            Some(k) => {
                let kd = ev.force(&k);
                current = Thunk::done(ev.apply_denot(&kd, produced));
            }
        }
    }
}

fn unit_thunk() -> DThunk {
    Thunk::done(Denot::Ok(Value::Con(Known::Unit.symbol(), vec![])))
}

fn bad_thunk(ev: &DenotEvaluator<'_>, exn: &Exception) -> DThunk {
    let inner = Thunk::done(Denot::Ok(ev.exception_to_value(exn)));
    Thunk::done(Denot::Ok(Value::Con(Known::Bad.symbol(), vec![inner])))
}

fn bad_result(s: ExnSet) -> SemIoResult {
    if s.is_all() {
        SemIoResult::Diverged
    } else {
        SemIoResult::Uncaught(s)
    }
}
