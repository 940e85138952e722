//! Supervised evaluation: deadlines, budgets, panic isolation, retry.
//!
//! A [`Supervisor`] describes the envelope one request is allowed to
//! consume; [`Session::eval_supervised`] runs an expression inside it:
//!
//! * **wall-clock deadline** — the session's watchdog thread arms the
//!   machine's [`InterruptHandle`] with `Timeout` when the deadline
//!   passes, so a runaway evaluation is cancelled asynchronously (§5.1:
//!   the trim restores in-flight thunks; nothing is corrupted, and the
//!   exception is observed as `Caught(Timeout)` like any other). One
//!   thread per session, started by its first deadline, serves every
//!   attempt: an attempt arms it and its end disarms it, so a request
//!   neither spawns a thread nor waits for one;
//! * **resource budgets** — per-request step/heap/stack caps overriding
//!   the session defaults;
//! * **panic isolation** — an internal machine panic (a bug, not a user
//!   condition) is caught with `catch_unwind`, converted into
//!   [`MachineError::Internal`], and the poisoned machine is discarded;
//!   the session itself is untouched and stays usable;
//! * **retry with escalation** — a request killed by `HeapOverflow` or
//!   `StackOverflow` is retried (boundedly) with multiplied budgets before
//!   the failure is reported, since "the budget was too small" and "the
//!   program is a hog" look identical on the first attempt.
//!
//! Every attempt runs on a machine equal to a fresh one (the session's
//! recycled machine), so a failed attempt cannot leak poisoned thunks or
//! a half-trimmed heap into the next one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use urk_machine::{InterruptHandle, MachineConfig, MachineError, Outcome};
use urk_syntax::core::Expr;
use urk_syntax::Exception;

use crate::error::Error;
use crate::session::{EvalResult, Session};

/// The envelope one supervised request may consume.
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Wall-clock deadline; past it a watchdog delivers `Timeout`.
    pub deadline: Option<Duration>,
    /// Per-request step cap (overrides the session's machine config).
    pub max_steps: Option<u64>,
    /// Per-request heap cap in nodes.
    pub max_heap: Option<usize>,
    /// Per-request stack cap in frames.
    pub max_stack: Option<usize>,
    /// How many times a `HeapOverflow`/`StackOverflow` death is retried
    /// with escalated budgets before being reported.
    pub retries: u32,
    /// Budget multiplier per escalation.
    pub growth: u32,
    /// An externally owned interrupt handle to run every attempt under.
    /// A pool uses this to cancel an in-flight request from outside (e.g.
    /// on shutdown) by delivering `Interrupt`; when unset, each request
    /// gets a private handle only its own watchdog can reach. The handle
    /// is disarmed when the request finishes, so a deadline that fires
    /// just after completion cannot leak into the next request sharing
    /// the handle.
    pub interrupt: Option<InterruptHandle>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor {
            deadline: None,
            max_steps: None,
            max_heap: None,
            max_stack: None,
            retries: 1,
            growth: 4,
            interrupt: None,
        }
    }
}

impl Supervisor {
    /// The default envelope: session budgets, no deadline, one retry.
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// An envelope with just a wall-clock deadline.
    pub fn with_deadline(ms: u64) -> Supervisor {
        Supervisor {
            deadline: Some(Duration::from_millis(ms)),
            ..Supervisor::default()
        }
    }
}

/// What a supervised evaluation produced, plus how hard it had to work.
#[derive(Clone, Debug)]
pub struct SupervisedResult {
    /// The evaluation result (a `Timeout` cancellation appears here as the
    /// caught exception, rendered `(raise Timeout)`).
    pub result: EvalResult,
    /// Attempts consumed (1 = no retry was needed).
    pub attempts: u32,
    /// True if the watchdog's `Timeout` ended the final attempt.
    pub timed_out: bool,
}

impl Session {
    /// Evaluates an expression under a [`Supervisor`]: wall-clock deadline,
    /// per-request budgets, panic isolation, bounded retry. Evaluation
    /// happens under a catch mark, so cancellations and budget deaths are
    /// observed as caught exceptions rather than aborts.
    ///
    /// # Errors
    ///
    /// Front-end errors; [`Error::Machine`] with
    /// [`MachineError::Internal`] if the machine panicked (the session
    /// remains usable), or with the underlying error if a hard limit was
    /// hit on the final attempt.
    pub fn eval_supervised(
        &self,
        src: &str,
        supervisor: &Supervisor,
    ) -> Result<SupervisedResult, Error> {
        let expr = self.compile_expr(src)?;
        self.eval_supervised_expr(expr, supervisor)
    }

    /// As [`Session::eval_supervised`], starting from an already compiled
    /// expression. The pool uses this split so one compilation serves
    /// both the cache key and the evaluation.
    ///
    /// # Errors
    ///
    /// As [`Session::eval_supervised`], minus the front-end errors.
    pub fn eval_supervised_expr(
        &self,
        expr: Rc<Expr>,
        supervisor: &Supervisor,
    ) -> Result<SupervisedResult, Error> {
        let mut cfg = self.options.machine.clone();
        if let Some(s) = supervisor.max_steps {
            cfg.max_steps = s;
        }
        if let Some(h) = supervisor.max_heap {
            cfg.max_heap = h;
        }
        if let Some(s) = supervisor.max_stack {
            cfg.max_stack = s;
        }

        // Lower the program once: every attempt links the same shared
        // image, and if this call is the one that pays the program's
        // one-time lowering cost, that cost is stamped onto the final
        // result's stats.
        let first_compile = !self.has_compiled_code();
        // Outside the unwind guard: a tier-2 image that fails validation
        // panics to the caller, not as a machine bug.
        self.compiled_code();

        let growth = u64::from(supervisor.growth.max(1));
        let mut attempts = 0u32;
        loop {
            attempts += 1;

            let handle = supervisor.interrupt.clone().unwrap_or_default();
            let run_cfg = MachineConfig {
                interrupt: Some(handle.clone()),
                ..cfg.clone()
            };

            if let Some(d) = supervisor.deadline {
                self.watchdog
                    .get_or_init(Watchdog::start)
                    .arm(Instant::now() + d, handle.clone());
            }

            // One attempt, panic-isolated, on the session's recycled
            // machine. The machine is moved out so stats and rendering
            // survive the unwind guard; a machine that panicked unwinds
            // with the attempt and is never handed back.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut m = self.machine(run_cfg);
                let out = m.eval_code_expr(&expr, true);
                (m, out)
            }));

            if let (Some(_), Some(watchdog)) = (supervisor.deadline, self.watchdog.get()) {
                watchdog.disarm();
                // The watchdog may have fired in the instant the attempt
                // finished; disarm the handle so a stale deadline cannot
                // leak into a retry or (for a shared handle) the next
                // request on the same worker.
                handle.clear();
            }

            let (mut m, out) = match attempt {
                Ok(pair) => pair,
                Err(panic) => {
                    // The machine died of a bug; discard it, keep the
                    // session.
                    return Err(Error::Machine {
                        error: MachineError::Internal(panic_message(&panic)),
                        stats: None,
                    });
                }
            };
            let out = match out {
                Ok(out) => out,
                Err(error) => {
                    let stats = Some(Box::new(m.stats().clone()));
                    self.hand_back(m);
                    return Err(Error::Machine { error, stats });
                }
            };

            let exception = match &out {
                Outcome::Caught(e) | Outcome::Uncaught(e) => Some(e.clone()),
                Outcome::Value(_) => None,
            };

            // Escalate resource deaths: grow the budgets and go again on a
            // recycled machine.
            if matches!(
                exception,
                Some(Exception::HeapOverflow | Exception::StackOverflow)
            ) && attempts <= supervisor.retries
            {
                self.hand_back(m);
                cfg.max_heap = cfg.max_heap.saturating_mul(growth as usize);
                cfg.max_stack = cfg.max_stack.saturating_mul(growth as usize);
                continue;
            }

            let timed_out =
                matches!(exception, Some(Exception::Timeout)) && m.stats().async_injected > 0;
            let result = self.eval_result(&mut m, out, first_compile);
            self.hand_back(m);
            return Ok(SupervisedResult {
                result,
                attempts,
                timed_out,
            });
        }
    }
}

/// A session's deadline watchdog: one thread that delivers `Timeout` to
/// the armed interrupt handle once the armed deadline passes.
pub(crate) struct Watchdog {
    shared: Arc<(Mutex<Arming>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

/// What the watchdog thread watches.
#[derive(Default)]
struct Arming {
    /// The deadline and the handle it fires into, while an attempt runs.
    armed: Option<(Instant, InterruptHandle)>,
    /// Set when the session drops: the thread ends.
    stop: bool,
}

impl Watchdog {
    fn start() -> Watchdog {
        let shared = Arc::new((Mutex::new(Arming::default()), Condvar::new()));
        let watched = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("urk-watchdog".into())
            .spawn(move || watch(&watched))
            .expect("spawning the deadline watchdog");
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    /// The arming, locked. Every update is one assignment, so a lock
    /// poisoned by a panicking holder still guards consistent data.
    fn arming(&self) -> MutexGuard<'_, Arming> {
        self.shared.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the watchdog: `Timeout` goes to `handle` at `deadline` unless
    /// [`Watchdog::disarm`] comes first.
    fn arm(&self, deadline: Instant, handle: InterruptHandle) {
        self.arming().armed = Some((deadline, handle));
        self.shared.1.notify_one();
    }

    /// Disarms the watchdog. It delivers under the same lock, so once this
    /// returns nothing more is delivered. The thread is not woken: at the
    /// old deadline it finds nothing armed (or a later deadline) and waits
    /// again.
    fn disarm(&self) {
        self.arming().armed = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.arming().stop = true;
        self.shared.1.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The watchdog thread: sleeps until the armed deadline (or until armed),
/// and delivers `Timeout` if the arming still stands when it passes.
fn watch(shared: &(Mutex<Arming>, Condvar)) {
    let (lock, wake) = shared;
    let mut arming = lock.lock().unwrap_or_else(PoisonError::into_inner);
    while !arming.stop {
        let now = Instant::now();
        arming = match &arming.armed {
            None => wake.wait(arming).unwrap_or_else(PoisonError::into_inner),
            Some((deadline, handle)) if now >= *deadline => {
                handle.deliver(Exception::Timeout);
                arming.armed = None;
                arming
            }
            Some((deadline, _)) => {
                let wait = *deadline - now;
                wake.wait_timeout(arming, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
