//! The *operational* IO runner: performs an `IO` value on the
//! graph-reduction machine.
//!
//! This is the implementation §3.5 promises: "the stack-trimming
//! implementation does not have to change. The set of exceptions
//! associated with an exceptional value is represented by a single member,
//! namely the exception that happens to be encountered first." So
//! `getException` here simply evaluates its argument under a catch mark
//! and reports whatever exception surfaces — no oracle required.
//!
//! The action runs as the main thread of a cooperative thread group — the
//! extension §4.4 points at ("one advantage of this presentation is that
//! it scales to other extensions, such as adding concurrency", citing
//! Concurrent Haskell). A program that never forks is a one-thread group.
//! `forkIO :: IO a -> IO Int` spawns a thread performing its argument and
//! returns its thread id; `yield :: IO ()` cedes the scheduler. Scheduling
//! is deterministic round-robin with one IO action per quantum: pure
//! evaluation between actions is atomic (the graph machine is sequential),
//! which is exactly the granularity of the §4.4 transition rules.
//!
//! Thread semantics follow Concurrent Haskell's:
//!
//! * when the main thread finishes, the program finishes (remaining
//!   threads are killed);
//! * an uncaught exception terminates *its own thread only* and is
//!   recorded — `getException` inside the thread can still catch it;
//! * threads share the heap (and therefore thunks: a shared poisoned
//!   thunk re-raises the same representative in every thread);
//! * `MVar`s (`newMVar`/`newEmptyMVar`/`takeMVar`/`putMVar`) block with
//!   Concurrent Haskell's semantics — take blocks on empty, put blocks on
//!   full — and a thread the scheduler can prove will never wake dies with
//!   `BlockedIndefinitely` (GHC's `BlockedIndefinitelyOnMVar`);
//! * `throwTo` directs a §5.1 asynchronous exception at a thread; it lands
//!   at the target's next action, where a `getException` catches it.

use std::collections::VecDeque;

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

/// How one forked thread ended.
#[derive(Clone, Debug)]
pub enum ThreadResult {
    /// Performed to completion (payload rendered).
    Done(String),
    /// Died on an uncaught exception (§4.4's report, per thread).
    Uncaught(Exception),
    /// Still alive when the main thread finished.
    Killed,
}

/// One run's result and its observable trace.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The main thread's result.
    pub result: IoResult,
    /// The interleaved trace of every thread's actions.
    pub trace: Trace,
    /// How each forked thread ended, ordered by thread id (main, id 0, is
    /// not listed). Empty when nothing was forked.
    pub threads: Vec<(u64, ThreadResult)>,
}

/// The IO constructors the runners perform: §4.4's, then the concurrency
/// extension's. The commonest come first, since dispatch tries them in
/// order.
pub(crate) const IO_CONSTRUCTORS: &[Known] = &[
    Known::Bind,
    Known::Return,
    Known::GetChar,
    Known::PutChar,
    Known::PutStr,
    Known::GetException,
    Known::Fork,
    Known::Yield,
    Known::NewMVar,
    Known::NewEmptyMVar,
    Known::TakeMVar,
    Known::PutMVar,
    Known::ThrowTo,
];

/// Performs the `IO` action denoted by `action` (typically `main`),
/// lowered against the program image linked into `machine`, as the main
/// thread of a thread group.
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
/// assert!(out.threads.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Panics
///
/// Panics if no program image is linked into `machine`, or if the program
/// is ill-typed (it performs a value that is not an `IO` action).
pub fn run_machine(machine: &mut Machine, action: &Expr, input: &mut dyn Input) -> RunOutcome {
    let root = machine.alloc_code_thunk(action);
    let mut group = Group {
        machine,
        input,
        trace: Trace::new(),
        ready: VecDeque::new(),
        blocked: Vec::new(),
        threads: Vec::new(),
        next_tid: MAIN + 1,
        rooted: 0,
    };
    let current = group.push_root(root);
    group.ready.push_back(Thread {
        tid: MAIN,
        current,
        konts: Vec::new(),
        thrown: None,
    });
    let result = group.run();

    // Remaining threads die with main (Concurrent Haskell semantics).
    let Group {
        machine,
        trace,
        ready,
        blocked,
        mut threads,
        rooted,
        ..
    } = group;
    for t in ready.into_iter().chain(blocked.into_iter().map(|(t, _)| t)) {
        threads.push((t.tid, ThreadResult::Killed));
    }
    threads.sort_by_key(|(tid, _)| *tid);
    for _ in 0..rooted {
        machine.pop_root();
    }
    RunOutcome {
        result,
        trace,
        threads,
    }
}

/// The main thread's id.
const MAIN: u64 = 0;

/// A cooperative thread. `current` and `konts` are *root indices* into
/// the machine's root set, not raw node ids: a minor collection rewrites
/// root slots in place when nursery cells move, so every id held across
/// an evaluation is re-read through its slot.
struct Thread {
    tid: u64,
    /// The action to perform next.
    current: usize,
    /// Pending continuations from `Bind`, innermost last.
    konts: Vec<usize>,
    /// An exception thrown at this thread with `throwTo` (§5.1 directed
    /// at the §4.4 threads), delivered at its next action.
    thrown: Option<Exception>,
}

/// Why a thread stopped before returning.
enum Died {
    /// An exception escaped (§4.4's uncaught exception, per thread).
    Exception(Exception),
    /// `getChar` at end of input.
    OutOfInput,
    /// The machine hit a hard limit; this ends the whole program.
    Machine(MachineError),
}

/// What performing a thread's next action did.
enum Performed {
    /// The action produced this value for the thread's continuation.
    Value(NodeId),
    /// The thread parks on this MVar slot; the action re-runs on wake.
    Parked(NodeId),
}

/// The state of one run: the machine, the input and every thread.
struct Group<'a> {
    machine: &'a mut Machine,
    input: &'a mut dyn Input,
    trace: Trace,
    ready: VecDeque<Thread>,
    /// Threads parked on an MVar. MVar slots are tenured cells (allocated
    /// with `alloc_hvalue`), so the parked-on id is stable and raw.
    blocked: Vec<(Thread, NodeId)>,
    /// How each finished forked thread ended.
    threads: Vec<(u64, ThreadResult)>,
    next_tid: u64,
    /// Roots this run pushed, popped when it ends.
    rooted: usize,
}

impl Group<'_> {
    fn push_root(&mut self, n: NodeId) -> usize {
        self.rooted += 1;
        self.machine.push_root(n)
    }

    /// Schedules threads round-robin until the main thread ends.
    fn run(&mut self) -> IoResult {
        while let Some(mut t) = self.ready.pop_front() {
            let ended = match self.perform(&mut t) {
                Ok(Performed::Parked(slot)) => {
                    self.blocked.push((t, slot));
                    continue;
                }
                Ok(Performed::Value(v)) => match t.konts.pop() {
                    Some(k_idx) => {
                        // Re-read the continuation through its root slot:
                        // the id cached at push time may have been
                        // rewritten by a minor collection since.
                        let k = self.machine.root(k_idx);
                        let next = self.machine.alloc_apply(k, v);
                        t.current = self.push_root(next);
                        // One effectful action performed: rotate.
                        self.ready.push_back(t);
                        continue;
                    }
                    None => Ok(v),
                },
                Err(died) => Err(died),
            };
            if let Some(result) = self.end(t.tid, ended) {
                return result;
            }
        }
        // The ready queue drained with threads still parked, main among
        // them: no runnable thread can touch their MVars, so they can
        // never wake — GHC's BlockedIndefinitelyOnMVar.
        let mut result = None;
        for (t, _) in std::mem::take(&mut self.blocked) {
            let died = Err(Died::Exception(Exception::BlockedIndefinitely));
            result = self.end(t.tid, died).or(result);
        }
        result.expect("the main thread either ended or is parked")
    }

    /// Records how thread `tid` ended: the program's result when the main
    /// thread ended (or the machine failed), otherwise `None` after noting
    /// the thread's own result.
    fn end(&mut self, tid: u64, how: Result<NodeId, Died>) -> Option<IoResult> {
        if tid == MAIN {
            return Some(match how {
                Ok(v) => IoResult::Done(self.machine.render(v, 32)),
                Err(Died::Exception(e)) => IoResult::Uncaught(e),
                Err(Died::OutOfInput) => IoResult::OutOfInput,
                Err(Died::Machine(e)) => IoResult::MachineError(e),
            });
        }
        let result = match how {
            Ok(v) => ThreadResult::Done(self.machine.render(v, 8)),
            Err(Died::Exception(e)) => ThreadResult::Uncaught(e),
            Err(Died::OutOfInput) => {
                ThreadResult::Uncaught(Exception::UserError("getChar: end of input".into()))
            }
            Err(Died::Machine(e)) => return Some(IoResult::MachineError(e)),
        };
        self.threads.push((tid, result));
        None
    }

    /// Performs `t`'s next effectful action, unwinding `Bind`s (which are
    /// not actions) on the way.
    fn perform(&mut self, t: &mut Thread) -> Result<Performed, Died> {
        loop {
            // An exception *here* means the action value itself was
            // exceptional (e.g. `main = raise E`): uncaught.
            let current = self.machine.root(t.current);
            let action = force(self.machine, current)?;
            let Some(Whnf::Con(con, _)) = self.machine.heap().whnf(action) else {
                panic!("performed a non-IO value (ill-typed program)");
            };
            let Some(io) = Known::find(con, IO_CONSTRUCTORS) else {
                panic!("performed an unknown IO constructor '{con}'");
            };
            // §5.1 delivery point: a thrown exception lands at the
            // thread's next action. A `getException` recovers by the rule
            // `getException v --?x--> return (Bad x)`; any other action
            // dies with it. Unwinding a `Bind` is not an action.
            if t.thrown.is_some() && !matches!(io, Known::Bind | Known::GetException) {
                let exn = t.thrown.take().expect("checked");
                self.trace.push(Event::AsyncDelivered(exn.clone()));
                return Err(Died::Exception(exn));
            }
            // Fields are read through the action cell, which is tenured (an
            // evaluation result): a minor collection during a force keeps
            // its slots current through the remembered set.
            let produced = match io {
                Known::Bind => {
                    let (m, k) = (self.field(action, 0), self.field(action, 1));
                    t.konts.push(self.push_root(k));
                    t.current = self.push_root(m);
                    continue;
                }
                Known::Return => self.field(action, 0),
                Known::GetChar => {
                    let c = self.input.get_char().ok_or(Died::OutOfInput)?;
                    self.trace.push(Event::Input(c));
                    self.machine.alloc_hvalue(HValue::Char(c))
                }
                Known::PutChar => {
                    let n = force(self.machine, self.field(action, 0))?;
                    let Some(Whnf::Char(c)) = self.machine.heap().whnf(n) else {
                        panic!("putChar of a non-character (ill-typed program)");
                    };
                    self.trace.push(Event::Output(c));
                    unit(self.machine)
                }
                Known::PutStr => {
                    let n = force(self.machine, self.field(action, 0))?;
                    let Some(Whnf::Str(s)) = self.machine.heap().whnf(n) else {
                        panic!("putStr of a non-string (ill-typed program)");
                    };
                    self.trace.push(Event::OutputStr(s.to_string()));
                    unit(self.machine)
                }
                Known::GetException => match t.thrown.take() {
                    Some(exn) => {
                        self.trace.push(Event::AsyncDelivered(exn.clone()));
                        bad(self.machine, &exn)
                    }
                    // §3.3: mark the stack, evaluate the argument. The mark
                    // is at the episode base, so an exception surfaces as
                    // `Caught`.
                    None => match self.machine.eval_node(self.field(action, 0), true) {
                        Ok(Outcome::Value(n)) => self
                            .machine
                            .alloc_hvalue(HValue::Con(Known::Ok.symbol(), vec![n])),
                        Ok(Outcome::Caught(exn) | Outcome::Uncaught(exn)) => {
                            self.trace.push(if exn.is_asynchronous() {
                                Event::AsyncDelivered(exn.clone())
                            } else {
                                Event::ChoseException(exn.clone())
                            });
                            bad(self.machine, &exn)
                        }
                        Err(e) => return Err(Died::Machine(e)),
                    },
                },
                Known::Fork => {
                    let tid = self.next_tid;
                    self.next_tid += 1;
                    self.trace.push(Event::Forked(tid));
                    let current = self.push_root(self.field(action, 0));
                    self.ready.push_back(Thread {
                        tid,
                        current,
                        konts: Vec::new(),
                        thrown: None,
                    });
                    self.machine.alloc_hvalue(HValue::Int(tid as i64))
                }
                Known::Yield => unit(self.machine),
                Known::ThrowTo => {
                    let n = force(self.machine, self.field(action, 0))?;
                    let Some(Whnf::Int(target)) = self.machine.heap().whnf(n) else {
                        panic!("throwTo of a non-Int thread id");
                    };
                    let n = force(self.machine, self.field(action, 1))?;
                    let exn = node_to_exception(self.machine, n);
                    self.throw_to(t, target as u64, exn);
                    unit(self.machine)
                }
                Known::NewMVar => {
                    let contents = self.field(action, 0);
                    let slot = self
                        .machine
                        .alloc_hvalue(HValue::Con(Known::MVarFull.symbol(), vec![contents]));
                    self.push_root(slot);
                    slot
                }
                Known::NewEmptyMVar => {
                    let slot = self
                        .machine
                        .alloc_hvalue(HValue::Con(Known::MVarEmpty.symbol(), vec![]));
                    self.push_root(slot);
                    slot
                }
                Known::TakeMVar => {
                    let slot = self.mvar(self.field(action, 0))?;
                    let Some(v) = self.mvar_contents(slot) else {
                        return Ok(Performed::Parked(slot));
                    };
                    self.machine
                        .overwrite_hvalue(slot, HValue::Con(Known::MVarEmpty.symbol(), vec![]));
                    self.wake(slot);
                    v
                }
                Known::PutMVar => {
                    let slot = self.mvar(self.field(action, 0))?;
                    if self.mvar_contents(slot).is_some() {
                        return Ok(Performed::Parked(slot));
                    }
                    let v = self.field(action, 1);
                    self.machine
                        .overwrite_hvalue(slot, HValue::Con(Known::MVarFull.symbol(), vec![v]));
                    self.wake(slot);
                    unit(self.machine)
                }
                _ => unreachable!("IO_CONSTRUCTORS lists no other constructor"),
            };
            return Ok(Performed::Value(produced));
        }
    }

    /// Throws `exn` at thread `target` (which may be `me`, the running
    /// thread), waking it if it is parked. A finished or unknown target
    /// ignores it.
    fn throw_to(&mut self, me: &mut Thread, target: u64, exn: Exception) {
        if me.tid == target {
            me.thrown = Some(exn);
            return;
        }
        if let Some(i) = self.blocked.iter().position(|(b, _)| b.tid == target) {
            let (b, _) = self.blocked.remove(i);
            self.ready.push_back(b);
        }
        if let Some(r) = self.ready.iter_mut().find(|r| r.tid == target) {
            r.thrown = Some(exn);
        }
    }

    /// Field `i` of the constructor value at `node`.
    fn field(&self, node: NodeId, i: usize) -> NodeId {
        match self.machine.heap().whnf(node) {
            Some(Whnf::Con(_, fields)) => fields[i],
            _ => panic!("expected a constructor value"),
        }
    }

    /// Forces an MVar argument to its slot.
    fn mvar(&mut self, arg: NodeId) -> Result<NodeId, Died> {
        let n = force(self.machine, arg)?;
        Ok(self.machine.resolve_node(n))
    }

    /// The value a full MVar holds; `None` when it is empty.
    fn mvar_contents(&self, slot: NodeId) -> Option<NodeId> {
        match self.machine.heap().whnf(slot) {
            Some(Whnf::Con(state, contents)) if Known::MVarFull.is(state) => Some(contents[0]),
            Some(Whnf::Con(..)) => None,
            _ => panic!("an MVar action on a non-MVar (ill-typed program)"),
        }
    }

    /// Moves every thread parked on `slot` back to the ready queue (their
    /// pending action re-runs and re-checks the state).
    fn wake(&mut self, slot: NodeId) {
        for (t, _) in self.blocked.extract_if(.., |(_, s)| *s == slot) {
            self.ready.push_back(t);
        }
    }
}

/// Forces `node` to WHNF; an exception escaping it kills the thread.
fn force(machine: &mut Machine, node: NodeId) -> Result<NodeId, Died> {
    match machine.eval_node(node, false) {
        Ok(Outcome::Value(n)) => Ok(n),
        Ok(Outcome::Uncaught(e) | Outcome::Caught(e)) => Err(Died::Exception(e)),
        Err(e) => Err(Died::Machine(e)),
    }
}

fn unit(machine: &mut Machine) -> NodeId {
    machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
}

/// `Bad exn`, the value `getException` returns for a caught exception.
fn bad(machine: &mut Machine, exn: &Exception) -> NodeId {
    let ev = machine.alloc_exception_value(exn);
    machine.alloc_hvalue(HValue::Con(Known::Bad.symbol(), vec![ev]))
}

/// Converts a WHNF in-language `Exception` value to the runtime type,
/// forcing the payload if present.
fn node_to_exception(machine: &mut Machine, node: NodeId) -> Exception {
    let (name, payload_node) = match machine.heap().whnf(node) {
        Some(Whnf::Con(name, fields)) => (name, fields.first().copied()),
        _ => panic!("throwTo of a non-Exception value"),
    };
    let payload = payload_node.map(|f| match machine.eval_node(f, false) {
        Ok(Outcome::Value(n)) => match machine.heap().whnf(n) {
            Some(Whnf::Str(s)) => s.to_string(),
            _ => panic!("exception payload is not a string"),
        },
        _ => String::new(),
    });
    Exception::from_constructor(name, payload.as_deref())
        .unwrap_or_else(|| panic!("unknown exception constructor '{name}'"))
}
