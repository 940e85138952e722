//! The §4.4 labelled transition system, written once for both pure
//! layers.
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
//! ```
//!
//! `main` runs as the main thread of a cooperative thread group, the
//! extension §4.4 says the presentation "scales to" (Concurrent Haskell).
//! `forkIO :: IO a -> IO Int` spawns a thread and returns its id; `yield`
//! cedes. Scheduling is deterministic round-robin, one IO action per
//! quantum; pure evaluation between actions is atomic. As in Concurrent
//! Haskell:
//!
//! * when the main thread finishes, the program finishes (remaining
//!   threads are killed);
//! * an uncaught exception terminates *its own thread only* and is
//!   recorded — `getException` inside the thread can still catch it;
//! * `MVar`s (`newMVar`/`newEmptyMVar`/`takeMVar`/`putMVar`) block with
//!   Concurrent Haskell's semantics — take blocks on empty, put blocks on
//!   full — and a thread the scheduler can prove will never wake dies with
//!   `BlockedIndefinitely` (GHC's `BlockedIndefinitelyOnMVar`);
//! * `throwTo` directs a §5.1 asynchronous exception at a thread; it lands
//!   at the target's next action, where a `getException` catches it.
//!
//! All of it is generic over a [`PureLayer`]. An `MVar` is an `Int` naming
//! a cell of the run's table, so exceptions and state live in one place.

use std::collections::VecDeque;
use std::rc::Rc;

use urk_machine::MachineError;
use urk_syntax::{Exception, Known, Symbol};

use crate::trace::{Event, Input, Trace};

/// How a program run ended. `A` is the pure layer's abnormal value: one
/// [`Exception`] on the machine, an exception set for denotations.
#[derive(Clone, Debug)]
pub enum IoResult<A = Exception> {
    /// `main` performed to completion; the payload is the final `Return`ed
    /// value, rendered.
    Done(String),
    /// An exception escaped with no handler — "an uncaught exception,
    /// which the implementation should report" (§4.4).
    Uncaught(A),
    /// Denotations only: a thread's pure evaluation was `⊥`, or the LTS
    /// took the `NonTermination` self-loop. Evaluation between actions is
    /// atomic, so this ends the whole program, whichever thread diverged.
    Diverged,
    /// `getChar` at end of input.
    OutOfInput,
    /// The machine only: it hit a hard limit, in any thread.
    MachineError(MachineError),
}

/// How one forked thread ended.
#[derive(Clone, Debug)]
pub enum ThreadResult<A = Exception> {
    /// Performed to completion (payload rendered).
    Done(String),
    /// Died on an uncaught exception (§4.4's report, per thread).
    Uncaught(A),
    /// Still alive when the main thread finished.
    Killed,
}

/// One run's result and its observable trace.
#[derive(Clone, Debug)]
pub struct RunOutcome<A = Exception> {
    /// The main thread's result.
    pub result: IoResult<A>,
    /// The interleaved trace of every thread's actions.
    pub trace: Trace,
    /// How each forked thread ended, ordered by thread id (main, id 0, is
    /// not listed). Empty when nothing was forked.
    pub threads: Vec<(u64, ThreadResult<A>)>,
}

/// A value in weak head normal form, as the LTS reads and builds it (a
/// function is never performed or built, so the layers reject it).
pub(crate) enum Shape<H> {
    Con(Symbol, Vec<H>),
    Int(i64),
    Char(char),
    Str(Rc<str>),
}

/// How a thread stopped before returning: any [`IoResult`] but `Done`.
pub(crate) type Stop<A> = IoResult<A>;

/// What differs between the two pure layers: how a value is held, forced,
/// built, applied and rendered, and how `getException` chooses.
pub(crate) trait PureLayer {
    /// How the layer holds a value across actions. The LTS holds each
    /// handle once; `value`, `apply`, `get_exception` and `release`
    /// consume it. Every
    /// action gives back what it stops holding, so a long run holds no
    /// more than its threads do (a finished thread's handles, and a
    /// pre-empted `getException`'s argument, wait for the run's end).
    type Handle;
    /// An exceptional value that escaped a thread.
    type Abnormal: From<Exception>;

    /// Called before the LTS forces a thread's next action (a `Bind`
    /// unwound counts as one). The semantic layer refills its fuel here
    /// and stops a run that has spent its budget of actions.
    fn begin_action(&mut self) -> Result<(), Stop<Self::Abnormal>> {
        Ok(())
    }
    fn force(&mut self, h: &Self::Handle) -> Result<Shape<Self::Handle>, Stop<Self::Abnormal>>;
    fn value(&mut self, v: Shape<Self::Handle>) -> Self::Handle;
    /// `Bad exn`, the value `getException` returns for an exception.
    fn bad(&mut self, exn: &Exception) -> Self::Handle;
    /// The continuation `k` applied to `v`.
    fn apply(&mut self, k: Self::Handle, v: Self::Handle) -> Self::Handle;
    /// Gives back a handle the LTS holds no longer.
    fn release(&mut self, h: Self::Handle);
    fn render(&mut self, h: &Self::Handle, depth: u32) -> String;
    /// `getException`'s evaluation of `arg` and its choice: `Ok(v)` for a
    /// normal value `v`, `Err(x)` for the exception `x` it returns as
    /// `Bad x`.
    fn get_exception(
        &mut self,
        arg: Self::Handle,
    ) -> Result<Result<Self::Handle, Exception>, Stop<Self::Abnormal>>;
}

/// The IO constructors the LTS performs: §4.4's, then the concurrency
/// extension's. The commonest come first, since dispatch tries them in
/// order.
const IO_CONSTRUCTORS: &[Known] = &[
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

/// Performs `main` as the main thread of a thread group.
///
/// # Panics
///
/// If the program is ill-typed (it performs a value that is not an `IO`
/// action).
pub(crate) fn run<L: PureLayer>(
    layer: &mut L,
    main: L::Handle,
    input: &mut dyn Input,
) -> RunOutcome<L::Abnormal> {
    let mut group = Group {
        layer,
        input,
        trace: Trace::new(),
        ready: VecDeque::from([Thread::new(MAIN, main)]),
        blocked: Vec::new(),
        mvars: Vec::new(),
        threads: Vec::new(),
    };
    let result = group.run();
    RunOutcome {
        result,
        trace: group.trace,
        threads: group.threads,
    }
}

/// The main thread's id.
const MAIN: u64 = 0;

/// A cooperative thread.
struct Thread<H> {
    tid: u64,
    /// The action to perform next.
    current: H,
    /// Pending continuations from `Bind`, innermost last.
    konts: Vec<H>,
    /// An exception thrown at this thread with `throwTo` (§5.1 directed
    /// at the §4.4 threads), delivered at its next action.
    thrown: Option<Exception>,
}

impl<H> Thread<H> {
    fn new(tid: u64, current: H) -> Thread<H> {
        Thread {
            tid,
            current,
            konts: Vec::new(),
            thrown: None,
        }
    }
}

/// What performing a thread's next action did.
enum Performed<H> {
    /// The action produced this value for the thread's continuation.
    Value(H),
    /// The thread parks on this MVar; the action re-runs on wake.
    Parked(usize),
}

/// The state of one run: the layer, the input, every thread and MVar.
struct Group<'a, L: PureLayer> {
    layer: &'a mut L,
    input: &'a mut dyn Input,
    trace: Trace,
    ready: VecDeque<Thread<L::Handle>>,
    /// Threads parked on an MVar, with its index.
    blocked: Vec<(Thread<L::Handle>, usize)>,
    /// Every MVar's contents, indexed by the `Int` that names it.
    mvars: Vec<Option<L::Handle>>,
    /// Every forked thread, by id: `Killed` until it ends, which is how a
    /// thread still alive when main ends dies (Concurrent Haskell).
    threads: Vec<(u64, ThreadResult<L::Abnormal>)>,
}

impl<L: PureLayer> Group<'_, L> {
    /// Schedules threads round-robin until the main thread ends.
    fn run(&mut self) -> IoResult<L::Abnormal> {
        while let Some(mut t) = self.ready.pop_front() {
            let ended = match self.perform(&mut t) {
                Ok(Performed::Parked(mvar)) => {
                    self.blocked.push((t, mvar));
                    continue;
                }
                Ok(Performed::Value(v)) => match t.konts.pop() {
                    Some(k) => {
                        let next = self.layer.apply(k, v);
                        let performed = std::mem::replace(&mut t.current, next);
                        self.layer.release(performed);
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
            let died = IoResult::Uncaught(Exception::BlockedIndefinitely.into());
            result = self.end(t.tid, Err(died)).or(result);
        }
        result.expect("the main thread either ended or is parked")
    }

    /// Records how thread `tid` ended: the program's result when the main
    /// thread ended or the whole program stopped, otherwise `None` after
    /// noting the thread's own result.
    fn end(
        &mut self,
        tid: u64,
        how: Result<L::Handle, Stop<L::Abnormal>>,
    ) -> Option<IoResult<L::Abnormal>> {
        let result = match how {
            Ok(v) => IoResult::Done(self.layer.render(&v, if tid == MAIN { 32 } else { 8 })),
            Err(stop) => stop,
        };
        let thread = match result {
            _ if tid == MAIN => return Some(result),
            IoResult::Done(v) => ThreadResult::Done(v),
            IoResult::Uncaught(a) => ThreadResult::Uncaught(a),
            IoResult::OutOfInput => {
                ThreadResult::Uncaught(Exception::UserError("getChar: end of input".into()).into())
            }
            stop @ (IoResult::Diverged | IoResult::MachineError(_)) => return Some(stop),
        };
        self.threads[tid as usize - 1].1 = thread;
        None
    }

    /// Performs `t`'s next effectful action, unwinding `Bind`s (which are
    /// not actions) on the way.
    fn perform(
        &mut self,
        t: &mut Thread<L::Handle>,
    ) -> Result<Performed<L::Handle>, Stop<L::Abnormal>> {
        loop {
            self.layer.begin_action()?;
            // An exception *here* means the action value itself was
            // exceptional (e.g. `main = raise E`): uncaught.
            let Shape::Con(con, fields) = self.layer.force(&t.current)? else {
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
                return Err(IoResult::Uncaught(exn.into()));
            }
            let mut fields = fields.into_iter();
            let mut field = || fields.next().expect("an IO constructor's field");
            let produced = match io {
                Known::Bind => {
                    let m = field();
                    t.konts.push(field());
                    let bound = std::mem::replace(&mut t.current, m);
                    self.layer.release(bound);
                    continue;
                }
                Known::Return => field(),
                Known::GetChar => {
                    let c = self.input.get_char().ok_or(IoResult::OutOfInput)?;
                    self.trace.push(Event::Input(c));
                    self.layer.value(Shape::Char(c))
                }
                Known::PutChar | Known::PutStr => {
                    let event = match (io, self.consume(field())?) {
                        (Known::PutChar, Shape::Char(c)) => Event::Output(c),
                        (Known::PutStr, Shape::Str(s)) => Event::OutputStr(s.to_string()),
                        _ => panic!("{con} of an ill-typed argument"),
                    };
                    self.trace.push(event);
                    self.unit()
                }
                Known::GetException => {
                    let (event, exn) = match t.thrown.take() {
                        Some(exn) => (Event::AsyncDelivered(exn.clone()), exn),
                        None => match self.layer.get_exception(field())? {
                            Ok(v) => {
                                let ok = Shape::Con(Known::Ok.symbol(), vec![v]);
                                return Ok(Performed::Value(self.layer.value(ok)));
                            }
                            Err(exn) if exn.is_asynchronous() => {
                                (Event::AsyncDelivered(exn.clone()), exn)
                            }
                            Err(exn) => (Event::ChoseException(exn.clone()), exn),
                        },
                    };
                    self.trace.push(event);
                    self.layer.bad(&exn)
                }
                Known::Fork => {
                    let tid = self.threads.len() as u64 + 1;
                    self.threads.push((tid, ThreadResult::Killed));
                    self.trace.push(Event::Forked(tid));
                    self.ready.push_back(Thread::new(tid, field()));
                    self.layer.value(Shape::Int(tid as i64))
                }
                Known::Yield => self.unit(),
                Known::ThrowTo => {
                    let Shape::Int(target) = self.consume(field())? else {
                        panic!("throwTo of a non-Int thread id");
                    };
                    let exn = self.exception(field())?;
                    self.throw_to(t, target as u64, exn);
                    self.unit()
                }
                Known::NewMVar | Known::NewEmptyMVar => {
                    let contents = (io == Known::NewMVar).then(field);
                    self.mvars.push(contents);
                    self.layer.value(Shape::Int(self.mvars.len() as i64 - 1))
                }
                Known::TakeMVar => {
                    let mvar = self.mvar(field())?;
                    let Some(v) = self.mvars[mvar].take() else {
                        return Ok(Performed::Parked(mvar));
                    };
                    self.wake(mvar);
                    v
                }
                Known::PutMVar => {
                    let mvar = self.mvar(field())?;
                    let v = field();
                    if self.mvars[mvar].is_some() {
                        self.layer.release(v);
                        return Ok(Performed::Parked(mvar));
                    }
                    self.mvars[mvar] = Some(v);
                    self.wake(mvar);
                    self.unit()
                }
                _ => unreachable!("IO_CONSTRUCTORS lists no other constructor"),
            };
            return Ok(Performed::Value(produced));
        }
    }

    /// Converts an in-language `Exception` value to the runtime type,
    /// forcing the payload if present.
    fn exception(&mut self, h: L::Handle) -> Result<Exception, Stop<L::Abnormal>> {
        let Shape::Con(name, fields) = self.consume(h)? else {
            panic!("throwTo of a non-Exception value");
        };
        let payload = match fields
            .into_iter()
            .next()
            .map(|f| self.consume(f))
            .transpose()?
        {
            Some(Shape::Str(s)) => Some(s),
            Some(_) => panic!("exception payload is not a string"),
            None => None,
        };
        Ok(Exception::from_constructor(name, payload.as_deref())
            .unwrap_or_else(|| panic!("unknown exception constructor '{name}'")))
    }

    /// Throws `exn` at thread `target` (which may be `me`, the running
    /// thread), waking it if it is parked. A finished or unknown target
    /// ignores it.
    fn throw_to(&mut self, me: &mut Thread<L::Handle>, target: u64, exn: Exception) {
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

    /// Forces a handle the LTS holds no longer.
    fn consume(&mut self, h: L::Handle) -> Result<Shape<L::Handle>, Stop<L::Abnormal>> {
        let forced = self.layer.force(&h);
        self.layer.release(h);
        forced
    }

    /// Forces an MVar argument to its index in the table.
    fn mvar(&mut self, arg: L::Handle) -> Result<usize, Stop<L::Abnormal>> {
        match self.consume(arg)? {
            Shape::Int(i) => Ok(i as usize),
            _ => panic!("an MVar action on a non-MVar (ill-typed program)"),
        }
    }

    fn unit(&mut self) -> L::Handle {
        self.layer.value(Shape::Con(Known::Unit.symbol(), vec![]))
    }

    /// Moves every thread parked on `mvar` back to the ready queue (their
    /// pending action re-runs and re-checks the state).
    fn wake(&mut self, mvar: usize) {
        for (t, _) in self.blocked.extract_if(.., |(_, m)| *m == mvar) {
            self.ready.push_back(t);
        }
    }
}
