//! The *operational* IO runner: performs an `IO` value on the
//! graph-reduction machine.
//!
//! This is the implementation §3.5 promises: "the stack-trimming
//! implementation does not have to change. The set of exceptions
//! associated with an exceptional value is represented by a single member,
//! namely the exception that happens to be encountered first." So
//! `getException` here simply evaluates its argument under a catch mark
//! and reports whatever exception surfaces — no oracle required.

use urk_machine::{HValue, Machine, MachineError, NodeId, Outcome, Whnf};
use urk_syntax::core::Expr;
use urk_syntax::{Exception, Known};

use crate::trace::{Event, Input, Trace};

/// How a program run ended.
#[derive(Clone, Debug)]
pub enum IoResult {
    /// `main` performed to completion; the payload is the final `Return`ed
    /// value, rendered.
    Done(String),
    /// An exception escaped with no handler — "an uncaught exception,
    /// which the implementation should report" (§4.4).
    Uncaught(Exception),
    /// `getChar` at end of input.
    OutOfInput,
    /// The machine hit a hard limit.
    MachineError(MachineError),
}

impl IoResult {
    /// True if the run completed normally.
    pub fn is_done(&self) -> bool {
        matches!(self, IoResult::Done(_))
    }
}

/// One run's result and its observable trace.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub result: IoResult,
    pub trace: Trace,
}

/// Performs the `IO` action denoted by `action` (typically `main`),
/// lowered against the program image linked into `machine`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use urk_io::{run_machine, StringInput, IoResult};
/// use urk_machine::{compile_program, Machine, MachineConfig};
/// use urk_syntax::{parse_expr_src, desugar_expr, DataEnv};
///
/// let data = DataEnv::new();
/// let action = desugar_expr(
///     &parse_expr_src(r"getChar >>= \c -> putChar c")?,
///     &data,
/// )?;
/// let mut machine = Machine::new(MachineConfig::default());
/// machine.link_code(Arc::new(compile_program(&[])));
/// let mut input = StringInput::new("x");
/// let out = run_machine(&mut machine, &action, &mut input);
/// assert!(matches!(out.result, IoResult::Done(_)));
/// assert_eq!(out.trace.to_string(), "?x !x");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if no program image is linked into `machine`.
pub fn run_machine(machine: &mut Machine, action: &Expr, input: &mut dyn Input) -> RunOutcome {
    let root = machine.alloc_code_thunk(action);
    run_machine_node(machine, root, input)
}

/// Performs an `IO` action already in the heap.
pub fn run_machine_node(machine: &mut Machine, root: NodeId, input: &mut dyn Input) -> RunOutcome {
    let mut trace = Trace::new();
    // Pending continuations from `Bind` (innermost last), held as *root
    // indices*: a minor collection rewrites the machine's root slots in
    // place when nursery cells move, so the runner re-reads each node
    // through its index instead of caching a raw id across evaluations.
    let mut konts: Vec<usize> = Vec::new();
    let mut current = machine.push_root(root);
    let mut rooted: usize = 1;

    loop {
        // Force the action itself to WHNF. An exception *here* means the
        // action value was exceptional (e.g. `main = raise E`): uncaught.
        let cur = machine.root(current);
        let whnf = match machine.eval_node(cur, false) {
            Ok(Outcome::Value(n)) => n,
            Ok(Outcome::Uncaught(e)) | Ok(Outcome::Caught(e)) => {
                return finish(machine, rooted, IoResult::Uncaught(e), trace)
            }
            Err(e) => return finish(machine, rooted, IoResult::MachineError(e), trace),
        };
        let Some(Whnf::Con(con, fields)) = machine.heap().whnf(whnf) else {
            panic!("performed a non-IO value (ill-typed program)");
        };
        let (con, fields) = (con.as_str(), fields.to_vec());

        // The value an action step produced, handed to the continuation.
        let produced: NodeId = match con.as_str() {
            "Bind" => {
                konts.push(machine.push_root(fields[1]));
                current = machine.push_root(fields[0]);
                rooted += 2;
                continue;
            }
            "Return" => fields[0],
            "GetChar" => match input.get_char() {
                Some(c) => {
                    trace.push(Event::Input(c));
                    machine.alloc_hvalue(HValue::Char(c))
                }
                None => return finish(machine, rooted, IoResult::OutOfInput, trace),
            },
            "PutChar" => {
                // Forcing the character may raise; with no handler in
                // sight, that is an uncaught exception.
                match machine.eval_node(fields[0], false) {
                    Ok(Outcome::Value(n)) => {
                        let Some(Whnf::Char(c)) = machine.heap().whnf(n) else {
                            panic!("putChar of a non-character (ill-typed program)");
                        };
                        trace.push(Event::Output(c));
                        machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                    }
                    Ok(Outcome::Uncaught(e)) | Ok(Outcome::Caught(e)) => {
                        return finish(machine, rooted, IoResult::Uncaught(e), trace)
                    }
                    Err(e) => return finish(machine, rooted, IoResult::MachineError(e), trace),
                }
            }
            "PutStr" => match machine.eval_node(fields[0], false) {
                Ok(Outcome::Value(n)) => {
                    let Some(Whnf::Str(s)) = machine.heap().whnf(n) else {
                        panic!("putStr of a non-string (ill-typed program)");
                    };
                    trace.push(Event::OutputStr(s.to_string()));
                    machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                }
                Ok(Outcome::Uncaught(e)) | Ok(Outcome::Caught(e)) => {
                    return finish(machine, rooted, IoResult::Uncaught(e), trace)
                }
                Err(e) => return finish(machine, rooted, IoResult::MachineError(e), trace),
            },
            "GetException" => {
                // §3.3: mark the stack, evaluate the argument.
                match machine.eval_node(fields[0], true) {
                    Ok(Outcome::Value(n)) => {
                        machine.alloc_hvalue(HValue::Con(Known::Ok.symbol(), vec![n]))
                    }
                    Ok(Outcome::Caught(exn)) => {
                        trace.push(if exn.is_asynchronous() {
                            Event::AsyncDelivered(exn.clone())
                        } else {
                            Event::ChoseException(exn.clone())
                        });
                        let ev = machine.alloc_exception_value(&exn);
                        machine.alloc_hvalue(HValue::Con(Known::Bad.symbol(), vec![ev]))
                    }
                    Ok(Outcome::Uncaught(exn)) => {
                        // Cannot happen: the catch mark is at the episode
                        // base. Defensive:
                        return finish(machine, rooted, IoResult::Uncaught(exn), trace);
                    }
                    Err(e) => return finish(machine, rooted, IoResult::MachineError(e), trace),
                }
            }
            other => panic!("performed an unknown IO constructor '{other}'"),
        };

        match konts.pop() {
            None => {
                let rendered = machine.render(produced, 32);
                return finish(machine, rooted, IoResult::Done(rendered), trace);
            }
            Some(k_idx) => {
                // Re-read the continuation through its root slot: the id
                // cached at push time may have been rewritten by a minor
                // collection during the evaluations above.
                let k = machine.root(k_idx);
                let next = machine.alloc_apply(k, produced);
                current = machine.push_root(next);
                rooted += 1;
            }
        }
    }
}

/// Unregisters this run's roots and packages the outcome.
fn finish(machine: &mut Machine, rooted: usize, result: IoResult, trace: Trace) -> RunOutcome {
    for _ in 0..rooted {
        machine.pop_root();
    }
    RunOutcome { result, trace }
}
