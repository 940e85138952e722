//! Cooperative concurrency at the IO layer — the extension §4.4 points at
//! ("one advantage of this presentation is that it scales to other
//! extensions, such as adding concurrency", citing Concurrent Haskell).
//!
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
//!   `BlockedIndefinitely` (GHC's `BlockedIndefinitelyOnMVar`).

use urk_machine::{HValue, Machine, MachineError, NodeId, Outcome, Whnf};
use urk_syntax::{Exception, Known, Symbol};

use crate::machine_run::IoResult;
use crate::trace::{Event, Input, Trace};

/// How one thread ended.
#[derive(Clone, Debug)]
pub enum ThreadResult {
    /// Performed to completion (payload rendered).
    Done(String),
    /// Died on an uncaught exception (§4.4's report, per thread).
    Uncaught(Exception),
    /// Still alive when the main thread finished.
    Killed,
}

/// The outcome of a concurrent run.
#[derive(Clone, Debug)]
pub struct ConcurrentOutcome {
    /// The main thread's result.
    pub main: IoResult,
    /// The interleaved trace of every thread's actions.
    pub trace: Trace,
    /// Per-thread results, indexed by thread id (0 is main).
    pub threads: Vec<(u64, ThreadResult)>,
}

impl ConcurrentOutcome {
    /// True if the main thread completed normally (process exit code).
    pub fn result_exit(&self) -> bool {
        matches!(self.main, IoResult::Done(_))
    }
}

/// A cooperative thread. `current` and `konts` are *root indices* into
/// the machine's root set, not raw node ids: a minor collection rewrites
/// root slots in place when nursery cells move, so every id held across
/// an evaluation is re-read through its slot.
struct Thread {
    tid: u64,
    current: usize,
    konts: Vec<usize>,
}

/// Why a thread is parked.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum BlockKind {
    /// Waiting for the MVar to become full.
    Take,
    /// Waiting for the MVar to become empty.
    Put,
}

/// Performs `root` as the main thread of a cooperative thread group.
/// `root` is a node of `machine`'s heap, typically a
/// [`Machine::alloc_code_thunk`] over the linked program's `main`.
pub fn run_concurrent(
    machine: &mut Machine,
    root: NodeId,
    input: &mut dyn Input,
) -> ConcurrentOutcome {
    let mut trace = Trace::new();
    let mut results: Vec<(u64, ThreadResult)> = Vec::new();
    let mut next_tid: u64 = 1;
    let mut total_rooted = 0usize;

    let push_root = |machine: &mut Machine, n: NodeId, total: &mut usize| -> usize {
        *total += 1;
        machine.push_root(n)
    };

    let mut ready: std::collections::VecDeque<Thread> = std::collections::VecDeque::new();
    // MVar slots are tenured cells (allocated with `alloc_hvalue`), so the
    // parked-on id is stable and raw.
    let mut blocked: Vec<(Thread, NodeId, BlockKind)> = Vec::new();
    // Exceptions thrown at threads with `throwTo` (§5.1 directed at the
    // §4.4 threads), delivered at the target's next scheduling point.
    let mut pending_exn: std::collections::HashMap<u64, Exception> =
        std::collections::HashMap::new();
    let root_idx = push_root(machine, root, &mut total_rooted);
    ready.push_back(Thread {
        tid: 0,
        current: root_idx,
        konts: Vec::new(),
    });

    let mut main_result: Option<IoResult> = None;

    'scheduler: while let Some(mut t) = ready.pop_front() {
        // §5.1 delivery point: a pending thrown exception lands when the
        // target is next scheduled. If its next action is a getException,
        // the rule `getException v --?x--> return (Bad x)` applies and the
        // thread recovers; otherwise the thread dies with the exception.
        let thrown = pending_exn.remove(&t.tid);
        let mut thrown = thrown; // consumed below
                                 // Perform ONE effectful action (unwinding Binds does not count).
        loop {
            let cur = machine.root(t.current);
            let whnf = match machine.eval_node(cur, false) {
                Ok(Outcome::Value(n)) => n,
                Ok(Outcome::Uncaught(e)) | Ok(Outcome::Caught(e)) => {
                    if t.tid == 0 {
                        main_result = Some(IoResult::Uncaught(e));
                        break 'scheduler;
                    }
                    results.push((t.tid, ThreadResult::Uncaught(e)));
                    continue 'scheduler;
                }
                Err(e) => {
                    main_result = Some(IoResult::MachineError(e));
                    break 'scheduler;
                }
            };
            let Some(Whnf::Con(con, fields)) = machine.heap().whnf(whnf) else {
                panic!("performed a non-IO value (ill-typed program)");
            };
            let (con, fields) = (con.as_str(), fields.to_vec());

            if let Some(exn) = thrown.take() {
                if con != "GetException" && con != "Bind" {
                    trace.push(Event::AsyncDelivered(exn.clone()));
                    if t.tid == 0 {
                        main_result = Some(IoResult::Uncaught(exn));
                        break 'scheduler;
                    }
                    results.push((t.tid, ThreadResult::Uncaught(exn)));
                    continue 'scheduler;
                }
                // Bind unwinding: keep the exception pending for the real
                // action; getException: handled by the arm above.
                thrown = Some(exn);
            }
            let produced: NodeId = match con.as_str() {
                "Bind" => {
                    t.konts
                        .push(push_root(machine, fields[1], &mut total_rooted));
                    t.current = push_root(machine, fields[0], &mut total_rooted);
                    continue; // unwinding is not an action
                }
                "Return" => fields[0],
                "GetChar" => match input.get_char() {
                    Some(c) => {
                        trace.push(Event::Input(c));
                        machine.alloc_hvalue(HValue::Char(c))
                    }
                    None => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::OutOfInput);
                            break 'scheduler;
                        }
                        results.push((
                            t.tid,
                            ThreadResult::Uncaught(Exception::UserError(
                                "getChar: end of input".into(),
                            )),
                        ));
                        continue 'scheduler;
                    }
                },
                "PutChar" => match force_payload(machine, fields[0]) {
                    Ok(n) => {
                        let Some(Whnf::Char(c)) = machine.heap().whnf(n) else {
                            panic!("putChar of a non-character");
                        };
                        trace.push(Event::Output(c));
                        machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                    }
                    Err(Died::Exception(e)) => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::Uncaught(e));
                            break 'scheduler;
                        }
                        results.push((t.tid, ThreadResult::Uncaught(e)));
                        continue 'scheduler;
                    }
                    Err(Died::Machine(e)) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                "PutStr" => match force_payload(machine, fields[0]) {
                    Ok(n) => {
                        let Some(Whnf::Str(s)) = machine.heap().whnf(n) else {
                            panic!("putStr of a non-string");
                        };
                        trace.push(Event::OutputStr(s.to_string()));
                        machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                    }
                    Err(Died::Exception(e)) => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::Uncaught(e));
                            break 'scheduler;
                        }
                        results.push((t.tid, ThreadResult::Uncaught(e)));
                        continue 'scheduler;
                    }
                    Err(Died::Machine(e)) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                "GetException" if thrown.is_some() => {
                    let exn = thrown.take().expect("checked");
                    trace.push(Event::AsyncDelivered(exn.clone()));
                    let ev = machine.alloc_exception_value(&exn);
                    machine.alloc_hvalue(HValue::Con(Known::Bad.symbol(), vec![ev]))
                }
                "GetException" => match machine.eval_node(fields[0], true) {
                    Ok(Outcome::Value(n)) => {
                        machine.alloc_hvalue(HValue::Con(Known::Ok.symbol(), vec![n]))
                    }
                    Ok(Outcome::Caught(exn)) | Ok(Outcome::Uncaught(exn)) => {
                        trace.push(if exn.is_asynchronous() {
                            Event::AsyncDelivered(exn.clone())
                        } else {
                            Event::ChoseException(exn.clone())
                        });
                        let ev = machine.alloc_exception_value(&exn);
                        machine.alloc_hvalue(HValue::Con(Known::Bad.symbol(), vec![ev]))
                    }
                    Err(e) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                "Fork" => {
                    let tid = next_tid;
                    next_tid += 1;
                    trace.push(Event::Forked(tid));
                    let action_idx = push_root(machine, fields[0], &mut total_rooted);
                    ready.push_back(Thread {
                        tid,
                        current: action_idx,
                        konts: Vec::new(),
                    });
                    machine.alloc_hvalue(HValue::Int(tid as i64))
                }
                "Yield" => machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![])),
                "ThrowTo" => match force_payload(machine, fields[0]) {
                    Ok(tid_node) => {
                        let Some(Whnf::Int(target)) = machine.heap().whnf(tid_node) else {
                            panic!("throwTo of a non-Int thread id");
                        };
                        let target = target as u64;
                        // Re-read the second field through the (tenured)
                        // action cell: forcing the first field may have
                        // run a minor collection that moved it, and the
                        // remembered set rewrote the parent's slot.
                        let exn_field = con_field(machine, whnf, 1);
                        match force_payload(machine, exn_field) {
                            Ok(exn_node) => {
                                let exn = node_to_exception(machine, exn_node);
                                // Wake the target if it is parked so the
                                // exception can be delivered.
                                let mut i = 0;
                                while i < blocked.len() {
                                    if blocked[i].0.tid == target {
                                        let (bt, _, _) = blocked.remove(i);
                                        ready.push_back(bt);
                                    } else {
                                        i += 1;
                                    }
                                }
                                pending_exn.insert(target, exn);
                                machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                            }
                            Err(Died::Exception(e)) => {
                                if t.tid == 0 {
                                    main_result = Some(IoResult::Uncaught(e));
                                    break 'scheduler;
                                }
                                results.push((t.tid, ThreadResult::Uncaught(e)));
                                continue 'scheduler;
                            }
                            Err(Died::Machine(e)) => {
                                main_result = Some(IoResult::MachineError(e));
                                break 'scheduler;
                            }
                        }
                    }
                    Err(Died::Exception(e)) => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::Uncaught(e));
                            break 'scheduler;
                        }
                        results.push((t.tid, ThreadResult::Uncaught(e)));
                        continue 'scheduler;
                    }
                    Err(Died::Machine(e)) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                "NewMVar" => {
                    let slot = machine
                        .alloc_hvalue(HValue::Con(Symbol::intern("MVarFull"), vec![fields[0]]));
                    push_root(machine, slot, &mut total_rooted);
                    slot
                }
                "NewEmptyMVar" => {
                    let slot =
                        machine.alloc_hvalue(HValue::Con(Symbol::intern("MVarEmpty"), vec![]));
                    push_root(machine, slot, &mut total_rooted);
                    slot
                }
                "TakeMVar" => match force_payload(machine, fields[0]) {
                    Ok(n) => {
                        let slot = machine.resolve_node(n);
                        let (state, first) = match machine.heap().whnf(slot) {
                            Some(Whnf::Con(state, contents)) => (state, contents.first().copied()),
                            _ => panic!("takeMVar of a non-MVar (ill-typed program)"),
                        };
                        if state.as_str() == "MVarFull" {
                            let v = first.expect("a full MVar holds its contents");
                            machine.overwrite_hvalue(
                                slot,
                                HValue::Con(Symbol::intern("MVarEmpty"), vec![]),
                            );
                            wake(&mut blocked, &mut ready, slot);
                            v
                        } else {
                            // Park; the action node is retried on wake.
                            blocked.push((t, slot, BlockKind::Take));
                            continue 'scheduler;
                        }
                    }
                    Err(Died::Exception(e)) => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::Uncaught(e));
                            break 'scheduler;
                        }
                        results.push((t.tid, ThreadResult::Uncaught(e)));
                        continue 'scheduler;
                    }
                    Err(Died::Machine(e)) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                "PutMVar" => match force_payload(machine, fields[0]) {
                    Ok(n) => {
                        let slot = machine.resolve_node(n);
                        let state = match machine.heap().whnf(slot) {
                            Some(Whnf::Con(state, _)) => state,
                            _ => panic!("putMVar of a non-MVar (ill-typed program)"),
                        };
                        if state.as_str() == "MVarEmpty" {
                            // As in ThrowTo: re-read the value field after
                            // the force above.
                            let v = con_field(machine, whnf, 1);
                            machine.overwrite_hvalue(
                                slot,
                                HValue::Con(Symbol::intern("MVarFull"), vec![v]),
                            );
                            wake(&mut blocked, &mut ready, slot);
                            machine.alloc_hvalue(HValue::Con(Known::Unit.symbol(), vec![]))
                        } else {
                            blocked.push((t, slot, BlockKind::Put));
                            continue 'scheduler;
                        }
                    }
                    Err(Died::Exception(e)) => {
                        if t.tid == 0 {
                            main_result = Some(IoResult::Uncaught(e));
                            break 'scheduler;
                        }
                        results.push((t.tid, ThreadResult::Uncaught(e)));
                        continue 'scheduler;
                    }
                    Err(Died::Machine(e)) => {
                        main_result = Some(IoResult::MachineError(e));
                        break 'scheduler;
                    }
                },
                other => panic!("performed an unknown IO constructor '{other}'"),
            };

            match t.konts.pop() {
                None => {
                    if t.tid == 0 {
                        let rendered = machine.render(produced, 32);
                        main_result = Some(IoResult::Done(rendered));
                        break 'scheduler;
                    }
                    let rendered = machine.render(produced, 8);
                    results.push((t.tid, ThreadResult::Done(rendered)));
                    continue 'scheduler;
                }
                Some(k_idx) => {
                    let k = machine.root(k_idx);
                    let next = machine.alloc_apply(k, produced);
                    t.current = push_root(machine, next, &mut total_rooted);
                    // One effectful action performed: rotate.
                    ready.push_back(t);
                    break;
                }
            }
        }
    }

    // The ready queue drained with threads still parked: they can never
    // wake (no runnable thread can touch their MVars) — GHC's
    // BlockedIndefinitelyOnMVar.
    if main_result.is_none() {
        for (t, _, _) in blocked.drain(..) {
            if t.tid == 0 {
                main_result = Some(IoResult::Uncaught(Exception::BlockedIndefinitely));
            } else {
                results.push((
                    t.tid,
                    ThreadResult::Uncaught(Exception::BlockedIndefinitely),
                ));
            }
        }
    }
    // Remaining threads die with main (Concurrent Haskell semantics).
    for t in ready {
        results.push((t.tid, ThreadResult::Killed));
    }
    for (t, _, _) in blocked {
        results.push((t.tid, ThreadResult::Killed));
    }
    for _ in 0..total_rooted {
        machine.pop_root();
    }
    results.sort_by_key(|(tid, _)| *tid);

    ConcurrentOutcome {
        main: main_result.unwrap_or(IoResult::Done("Unit".into())),
        trace,
        threads: results,
    }
}

/// Moves every thread parked on `slot` back to the ready queue (their
/// pending action re-runs and re-checks the state).
fn wake(
    blocked: &mut Vec<(Thread, NodeId, BlockKind)>,
    ready: &mut std::collections::VecDeque<Thread>,
    slot: NodeId,
) {
    let mut i = 0;
    while i < blocked.len() {
        if blocked[i].1 == slot {
            let (t, _, _) = blocked.remove(i);
            ready.push_back(t);
        } else {
            i += 1;
        }
    }
}

/// Reads field `i` of the constructor value at `node` (a tenured cell —
/// an evaluation result — whose slots the minor collector keeps current
/// through the remembered set).
fn con_field(machine: &Machine, node: NodeId, i: usize) -> NodeId {
    match machine.heap().whnf(node) {
        Some(Whnf::Con(_, fields)) => fields[i],
        _ => panic!("expected a constructor value"),
    }
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

enum Died {
    Exception(Exception),
    Machine(MachineError),
}

fn force_payload(machine: &mut Machine, node: NodeId) -> Result<NodeId, Died> {
    match machine.eval_node(node, false) {
        Ok(Outcome::Value(n)) => Ok(n),
        Ok(Outcome::Uncaught(e)) | Ok(Outcome::Caught(e)) => Err(Died::Exception(e)),
        Err(e) => Err(Died::Machine(e)),
    }
}
