//! The §4.4 concurrency extension: `forkIO`/`yield` under the cooperative
//! round-robin scheduler, and how imprecise exceptions interact with
//! threads.

use urk::{Exception, ExnSet, IoResult, Session};
use urk_io::ThreadResult;

#[test]
fn forked_threads_interleave_with_main() {
    let mut s = Session::new();
    s.load(FORKED_THREADS_INTERLEAVE_WITH_MAIN).expect("loads");
    let out = s.run_main("").expect("runs");
    // One action per quantum: outputs strictly alternate while both live
    // (the forked thread enters the ready queue ahead of the re-enqueued
    // main thread, so it goes first).
    assert_eq!(out.trace.output(), "bababa..", "{}", out.trace);
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "1"));
}

#[test]
fn forked_thread_exception_does_not_kill_main() {
    let mut s = Session::new();
    s.load(FORKED_THREAD_EXCEPTION_DOES_NOT_KILL_MAIN)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "main survived");
    assert!(matches!(out.result, IoResult::Done(_)));
    // The forked thread died on DivideByZero and is recorded.
    assert!(out.threads.iter().any(|(tid, r)| {
        *tid == 1 && matches!(r, ThreadResult::Uncaught(Exception::DivideByZero))
    }));
}

#[test]
fn get_exception_works_inside_threads() {
    let mut s = Session::new();
    s.load(GET_EXCEPTION_WORKS_INSIDE_THREADS).expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "thread recovered");
}

#[test]
fn threads_share_poisoned_thunks() {
    // A thunk poisoned in one thread re-raises the same representative in
    // another (§3.3's overwrite, observed across threads).
    let mut s = Session::new();
    s.load(THREADS_SHARE_POISONED_THUNKS).expect("loads");
    let out = s.run_main("").expect("runs");
    // Both threads must report the same member (poisoning).
    let o = out.trace.output();
    assert!(
        o == "mDtD" || o == "tDmD" || o == "mUtU" || o == "tUmU",
        "{o}"
    );
}

#[test]
fn main_exit_kills_remaining_threads() {
    let mut s = Session::new();
    s.load(MAIN_EXIT_KILLS_REMAINING_THREADS).expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "99"));
    assert!(out
        .threads
        .iter()
        .any(|(tid, r)| *tid == 1 && matches!(r, ThreadResult::Killed)));
    // It got a couple of quanta before main exited.
    assert!(!out.trace.output().is_empty());
}

#[test]
fn fork_returns_distinct_thread_ids_and_traces_them() {
    let mut s = Session::new();
    s.load(FORK_RETURNS_DISTINCT_THREAD_IDS_AND_TRACES_THEM)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "Pair 1 2"));
    let forks: Vec<String> = out
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, urk::Event::Forked(_)))
        .map(|e| e.to_string())
        .collect();
    assert_eq!(forks, vec!["fork[1]", "fork[2]"]);
}

#[test]
fn types_of_fork_and_yield() {
    let s = Session::new();
    assert_eq!(s.type_of("forkIO (return 'a')").expect("types"), "IO Int");
    assert_eq!(s.type_of("yield").expect("types"), "IO Unit");
    // forkIO demands an IO action.
    assert!(s.type_of("forkIO 3").is_err());
}

// ----------------------------------------------------------------------
// MVars (Concurrent Haskell's communication cells)
// ----------------------------------------------------------------------

#[test]
fn mvar_types_check() {
    let s = Session::new();
    assert_eq!(s.type_of("newMVar 3").expect("types"), "IO (MVar Int)");
    assert_eq!(s.type_of("newEmptyMVar").expect("types"), "IO (MVar a)");
    assert_eq!(
        s.type_of(r"newMVar 'x' >>= \m -> takeMVar m")
            .expect("types"),
        "IO Char"
    );
    assert_eq!(
        s.type_of(r"newEmptyMVar >>= \m -> putMVar m 5")
            .expect("types"),
        "IO Unit"
    );
    // putMVar must match the cell's element type.
    assert!(s.type_of(r"newMVar 'x' >>= \m -> putMVar m 5").is_err());
}

#[test]
fn mvar_take_put_round_trip_single_thread() {
    let mut s = Session::new();
    s.load(MVAR_TAKE_PUT_ROUND_TRIP_SINGLE_THREAD)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "42");
}

#[test]
fn producer_consumer_through_an_mvar() {
    let mut s = Session::new();
    s.load(PRODUCER_CONSUMER_THROUGH_AN_MVAR).expect("loads");
    let out = s.run_main("").expect("runs");
    // One-slot channel: values arrive in order.
    assert_eq!(out.trace.output(), "4321");
    assert!(matches!(out.result, IoResult::Done(_)));
}

#[test]
fn take_blocks_until_another_thread_puts() {
    let mut s = Session::new();
    s.load(TAKE_BLOCKS_UNTIL_ANOTHER_THREAD_PUTS)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "7");
}

#[test]
fn blocked_forever_is_reported_like_ghc() {
    let mut s = Session::new();
    s.load(BLOCKED_FOREVER_IS_REPORTED_LIKE_GHC).expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(
        out.result,
        IoResult::Uncaught(Exception::BlockedIndefinitely)
    ));
}

#[test]
fn put_blocks_on_a_full_mvar() {
    let mut s = Session::new();
    s.load(PUT_BLOCKS_ON_A_FULL_MVAR).expect("loads");
    let out = s.run_main("").expect("runs");
    // Main's put blocks until the forked take empties the cell.
    assert_eq!(out.trace.output(), "12");
}

#[test]
fn mvar_as_a_mutex_serializes_critical_sections() {
    let mut s = Session::new();
    s.load(MVAR_AS_A_MUTEX_SERIALIZES_CRITICAL_SECTIONS)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    // Whoever takes the lock first prints both its characters before the
    // other enters.
    let o = out.trace.output();
    assert!(o == "aabb" || o == "bbaa", "{o}");
}

#[test]
fn prelude_mvar_helpers() {
    let mut s = Session::new();
    s.load(PRELUDE_MVAR_HELPERS).expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "82");
}

#[test]
fn optimizer_does_not_disturb_concurrent_programs() {
    let mut s = Session::new();
    s.load(OPTIMIZER_DOES_NOT_DISTURB_CONCURRENT_PROGRAMS)
        .expect("loads");
    let before = s.run_main("").expect("runs").trace.output();
    s.optimize().expect("optimizes");
    let after = s.run_main("").expect("runs").trace.output();
    assert_eq!(before, after);
    assert_eq!(after, "15");
}

// ----------------------------------------------------------------------
// throwTo / killThread (§5.1 directed at the §4.4 threads)
// ----------------------------------------------------------------------

#[test]
fn throw_to_kills_a_thread_not_listening() {
    let mut s = Session::new();
    s.load(THROW_TO_KILLS_A_THREAD_NOT_LISTENING)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(out.trace.output().ends_with("done"));
    assert!(out.threads.iter().any(|(tid, r)| {
        *tid == 1 && matches!(r, ThreadResult::Uncaught(Exception::UserError(_)))
    }));
}

#[test]
fn throw_to_is_catchable_at_a_get_exception_point() {
    // The §5.1 rule: getException v --?x--> return (Bad x). A thread
    // sitting at a getException when the exception lands recovers.
    let mut s = Session::new();
    s.load(THROW_TO_IS_CATCHABLE_AT_A_GET_EXCEPTION_POINT)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "1", "{}", out.trace);
}

#[test]
fn throw_to_wakes_a_blocked_thread() {
    let mut s = Session::new();
    s.load(THROW_TO_WAKES_A_BLOCKED_THREAD).expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "main done");
    assert!(out
        .threads
        .iter()
        .any(|(tid, r)| { *tid == 1 && matches!(r, ThreadResult::Uncaught(Exception::Timeout)) }));
}

#[test]
fn the_default_runner_performs_fork_and_mvars() {
    // `run_main` is the scheduler: a program that forks needs no other
    // entry point, and its forked thread is reported.
    let mut s = Session::new();
    s.load(THE_DEFAULT_RUNNER_PERFORMS_FORK_AND_MVARS)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(
        matches!(out.result, IoResult::Done(ref v) if v == "42"),
        "{out:?}"
    );
    assert!(
        matches!(out.threads.as_slice(), [(1, ThreadResult::Done(v))] if v == "Unit"),
        "{:?}",
        out.threads
    );
}

#[test]
fn a_program_that_never_forks_reports_no_threads() {
    let mut s = Session::new();
    s.load(A_PROGRAM_THAT_NEVER_FORKS_REPORTS_NO_THREADS)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "3"));
    assert_eq!(out.trace.output(), "one");
    assert!(out.threads.is_empty(), "{:?}", out.threads);
}

// ----------------------------------------------------------------------
// The semantic oracle: the same thread group over denotations
// ----------------------------------------------------------------------

/// Main's result on the machine is one of the semantic runner's: the same
/// rendering, or a raised exception that is a member of the set.
fn main_agrees(machine: &IoResult, semantic: &IoResult<ExnSet>) -> bool {
    match (machine, semantic) {
        (IoResult::Done(a), IoResult::Done(b)) => a == b,
        (IoResult::Uncaught(e), IoResult::Uncaught(set)) => set.contains(e),
        _ => false,
    }
}

/// As [`main_agrees`], for one forked thread.
fn thread_agrees(machine: &ThreadResult, semantic: &ThreadResult<ExnSet>) -> bool {
    match (machine, semantic) {
        (ThreadResult::Done(a), ThreadResult::Done(b)) => a == b,
        (ThreadResult::Uncaught(e), ThreadResult::Uncaught(set)) => set.contains(e),
        (ThreadResult::Killed, ThreadResult::Killed) => true,
        _ => false,
    }
}

/// Every program here but the one about sharing a machine thunk across
/// threads (the semantic runner may choose a different member at each
/// `getException`): under every seed the semantic runner schedules the
/// same trace, and each thread ends as it does on the machine. A run that
/// ends any other way — diverging for lack of fuel, say — fails.
#[test]
fn the_semantic_runner_reproduces_every_machine_run() {
    for (name, src) in PROGRAMS {
        if *name == "threads_share_poisoned_thunks" {
            continue;
        }
        let mut s = Session::new();
        s.load(src).expect("loads");
        let machine = s.run_main("").expect("runs");
        for seed in 0..64 {
            let semantic = s.run_main_semantic("", seed).expect("runs");
            let at = format!("{name}, seed {seed}: {semantic:?}");
            assert_eq!(semantic.trace, machine.trace, "{at}");
            assert!(main_agrees(&machine.result, &semantic.result), "{at}");
            assert_eq!(semantic.threads.len(), machine.threads.len(), "{at}");
            for ((tid, m), (stid, d)) in machine.threads.iter().zip(&semantic.threads) {
                assert!(tid == stid && thread_agrees(m, d), "{at}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Goldens: the machine runner's whole outcome for every program here
// ----------------------------------------------------------------------

/// Every program this file performs, by the name of the test that
/// performs it.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "forked_threads_interleave_with_main",
        FORKED_THREADS_INTERLEAVE_WITH_MAIN,
    ),
    (
        "forked_thread_exception_does_not_kill_main",
        FORKED_THREAD_EXCEPTION_DOES_NOT_KILL_MAIN,
    ),
    (
        "get_exception_works_inside_threads",
        GET_EXCEPTION_WORKS_INSIDE_THREADS,
    ),
    (
        "threads_share_poisoned_thunks",
        THREADS_SHARE_POISONED_THUNKS,
    ),
    (
        "main_exit_kills_remaining_threads",
        MAIN_EXIT_KILLS_REMAINING_THREADS,
    ),
    (
        "fork_returns_distinct_thread_ids_and_traces_them",
        FORK_RETURNS_DISTINCT_THREAD_IDS_AND_TRACES_THEM,
    ),
    (
        "mvar_take_put_round_trip_single_thread",
        MVAR_TAKE_PUT_ROUND_TRIP_SINGLE_THREAD,
    ),
    (
        "producer_consumer_through_an_mvar",
        PRODUCER_CONSUMER_THROUGH_AN_MVAR,
    ),
    (
        "take_blocks_until_another_thread_puts",
        TAKE_BLOCKS_UNTIL_ANOTHER_THREAD_PUTS,
    ),
    (
        "blocked_forever_is_reported_like_ghc",
        BLOCKED_FOREVER_IS_REPORTED_LIKE_GHC,
    ),
    ("put_blocks_on_a_full_mvar", PUT_BLOCKS_ON_A_FULL_MVAR),
    (
        "mvar_as_a_mutex_serializes_critical_sections",
        MVAR_AS_A_MUTEX_SERIALIZES_CRITICAL_SECTIONS,
    ),
    ("prelude_mvar_helpers", PRELUDE_MVAR_HELPERS),
    (
        "optimizer_does_not_disturb_concurrent_programs",
        OPTIMIZER_DOES_NOT_DISTURB_CONCURRENT_PROGRAMS,
    ),
    (
        "throw_to_kills_a_thread_not_listening",
        THROW_TO_KILLS_A_THREAD_NOT_LISTENING,
    ),
    (
        "throw_to_is_catchable_at_a_get_exception_point",
        THROW_TO_IS_CATCHABLE_AT_A_GET_EXCEPTION_POINT,
    ),
    (
        "throw_to_wakes_a_blocked_thread",
        THROW_TO_WAKES_A_BLOCKED_THREAD,
    ),
    (
        "the_default_runner_performs_fork_and_mvars",
        THE_DEFAULT_RUNNER_PERFORMS_FORK_AND_MVARS,
    ),
    (
        "a_program_that_never_forks_reports_no_threads",
        A_PROGRAM_THAT_NEVER_FORKS_REPORTS_NO_THREADS,
    ),
];

/// The machine runner's `(trace, result, threads)` for a program, with no
/// input.
fn machine_outcome(src: &str) -> String {
    let mut s = Session::new();
    s.load(src).expect("loads");
    let out = s.run_main("").expect("runs");
    format!(
        "{} => {:?}; threads {:?}",
        out.trace, out.result, out.threads
    )
}

/// The pinned machine outcomes, in `PROGRAMS` order.
const MACHINE_GOLDENS: &[(&str, &str)] = &[
    ("forked_threads_interleave_with_main", "fork[1] !b !a !b !a !b !a !. !. => Done(\"1\"); threads [(1, Done(\"0\"))]"),
    ("forked_thread_exception_does_not_kill_main", "fork[1] !\"main survived\" => Done(\"Unit\"); threads [(1, Uncaught(DivideByZero))]"),
    ("get_exception_works_inside_threads", "fork[1] choose[DivideByZero] !\"thread recovered\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("threads_share_poisoned_thunks", "fork[1] choose[DivideByZero] choose[DivideByZero] !\"tD\" !\"mD\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("main_exit_kills_remaining_threads", "fork[1] !x !x !x => Done(\"99\"); threads [(1, Killed)]"),
    ("fork_returns_distinct_thread_ids_and_traces_them", "fork[1] fork[2] => Done(\"Pair 1 2\"); threads [(1, Done(\"0\")), (2, Done(\"0\"))]"),
    ("mvar_take_put_round_trip_single_thread", "!\"42\" => Done(\"Unit\"); threads []"),
    ("producer_consumer_through_an_mvar", "fork[1] !\"4\" !\"3\" !\"2\" !\"1\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("take_blocks_until_another_thread_puts", "fork[1] !\"7\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("blocked_forever_is_reported_like_ghc", " => Uncaught(BlockedIndefinitely); threads []"),
    ("put_blocks_on_a_full_mvar", "fork[1] !\"1\" !\"2\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("mvar_as_a_mutex_serializes_critical_sections", "fork[1] !a !a !b !b => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("prelude_mvar_helpers", "!\"82\" => Done(\"Unit\"); threads []"),
    ("optimizer_does_not_disturb_concurrent_programs", "fork[1] !\"15\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("throw_to_kills_a_thread_not_listening", "fork[1] !. !. !. async[UserError \"stop\"] !\"done\" => Done(\"Unit\"); threads [(1, Uncaught(UserError(\"stop\")))]"),
    ("throw_to_is_catchable_at_a_get_exception_point", "fork[1] async[Interrupt] !\"1\" => Done(\"Unit\"); threads [(1, Done(\"Unit\"))]"),
    ("throw_to_wakes_a_blocked_thread", "fork[1] async[Timeout] !\"main done\" => Done(\"Unit\"); threads [(1, Uncaught(Timeout))]"),
    ("the_default_runner_performs_fork_and_mvars", "fork[1] => Done(\"42\"); threads [(1, Done(\"Unit\"))]"),
    ("a_program_that_never_forks_reports_no_threads", "!\"one\" => Done(\"3\"); threads []"),
];

#[test]
fn machine_outcomes_match_the_goldens() {
    let observed: Vec<(&str, String)> = PROGRAMS
        .iter()
        .map(|(name, src)| (*name, machine_outcome(src)))
        .collect();
    let table: String = observed
        .iter()
        .map(|(name, o)| format!("    ({name:?}, {o:?}),\n"))
        .collect();
    assert_eq!(
        observed.len(),
        MACHINE_GOLDENS.len(),
        "observed table:\n{table}"
    );
    for ((name, o), (want_name, want)) in observed.iter().zip(MACHINE_GOLDENS) {
        assert_eq!(
            (*name, o.as_str()),
            (*want_name, *want),
            "observed table:\n{table}"
        );
    }
}

// ----------------------------------------------------------------------
// The programs above
// ----------------------------------------------------------------------

const FORKED_THREADS_INTERLEAVE_WITH_MAIN: &str = r#"chatter c n = if n == 0 then return 0
                        else putChar c >> chatter c (n - 1)
main = do
  t <- forkIO (chatter 'b' 3)
  chatter 'a' 3
  putChar '.'
  putChar '.'
  return t"#;
const FORKED_THREAD_EXCEPTION_DOES_NOT_KILL_MAIN: &str = r#"main = do
  forkIO (putStr (showInt (1/0)))
  yield
  putStr "main survived"
  return ()"#;
const GET_EXCEPTION_WORKS_INSIDE_THREADS: &str = r#"worker = do
  v <- getException (1/0)
  case v of
    OK n  -> putStr "no"
    Bad e -> putStr "thread recovered"
main = do
  forkIO worker
  yield
  yield
  yield
  return ()"#;
const THREADS_SHARE_POISONED_THUNKS: &str = r#"shared = (1/0) + error "Urk"
probe tag = do
  v <- getException shared
  case v of
    Bad DivideByZero  -> putStr (strAppend tag "D")
    Bad (UserError m) -> putStr (strAppend tag "U")
    _                 -> putStr "?"
main = do
  forkIO (probe "t")
  probe "m"
  yield
  return ()"#;
const MAIN_EXIT_KILLS_REMAINING_THREADS: &str = r#"forever = putChar 'x' >> forever
main = do
  forkIO forever
  yield
  yield
  return 99"#;
const FORK_RETURNS_DISTINCT_THREAD_IDS_AND_TRACES_THEM: &str = r#"main = do
  a <- forkIO (return 0)
  b <- forkIO (return 0)
  yield
  return (a, b)"#;
const MVAR_TAKE_PUT_ROUND_TRIP_SINGLE_THREAD: &str = r#"main = do
  m <- newMVar 41
  v <- takeMVar m
  putMVar m (v + 1)
  w <- takeMVar m
  putStr (showInt w)"#;
const PRODUCER_CONSUMER_THROUGH_AN_MVAR: &str = r#"produce m n = if n == 0 then return ()
                        else putMVar m n >> produce m (n - 1)
consume m n = if n == 0 then return ()
              else do
                v <- takeMVar m
                putStr (showInt v)
                consume m (n - 1)
main = do
  m <- newEmptyMVar
  forkIO (produce m 4)
  consume m 4"#;
const TAKE_BLOCKS_UNTIL_ANOTHER_THREAD_PUTS: &str = r#"main = do
  m <- newEmptyMVar
  forkIO (yield >> yield >> putMVar m 7)
  v <- takeMVar m
  putStr (showInt v)"#;
const BLOCKED_FOREVER_IS_REPORTED_LIKE_GHC: &str = "main = newEmptyMVar >>= \\m -> takeMVar m";
const PUT_BLOCKS_ON_A_FULL_MVAR: &str = r#"main = do
  m <- newMVar 1
  forkIO (takeMVar m >>= \v -> putStr (showInt v))
  putMVar m 2
  v <- takeMVar m
  putStr (showInt v)"#;
const MVAR_AS_A_MUTEX_SERIALIZES_CRITICAL_SECTIONS: &str = r#"critical m c = do
  u <- takeMVar m
  putChar c
  putChar c
  putMVar m ()
main = do
  m <- newMVar ()
  forkIO (critical m 'a')
  critical m 'b'
  yield
  yield
  yield
  return ()"#;
const PRELUDE_MVAR_HELPERS: &str = r#"main = do
  m <- newMVar 20
  modifyMVar m (* 2)
  v <- readMVar m
  w <- readMVar m
  putStr (showInt (v + w + 2))"#;
const OPTIMIZER_DOES_NOT_DISTURB_CONCURRENT_PROGRAMS: &str = r#"produce m n = if n == 0 then return () else putMVar m n >> produce m (n - 1)
consume m n acc = if n == 0 then return acc
                  else takeMVar m >>= \v -> consume m (n - 1) (acc + v)
main = do
  m <- newEmptyMVar
  forkIO (produce m 5)
  total <- consume m 5 0
  putStr (showInt total)"#;
const THROW_TO_KILLS_A_THREAD_NOT_LISTENING: &str = r#"forever = putChar '.' >> forever
main = do
  t <- forkIO forever
  yield
  yield
  throwTo t (UserError "stop")
  yield
  yield
  putStr "done"
  return ()"#;
const THROW_TO_IS_CATCHABLE_AT_A_GET_EXCEPTION_POINT: &str = r#"worker m = do
  v <- getException (sum [1 .. 10])
  case v of
    OK n          -> putMVar m 0
    Bad Interrupt -> putMVar m 1
    Bad e         -> putMVar m 2
main = do
  m <- newEmptyMVar
  t <- forkIO (yield >> worker m)
  killThread t
  r <- takeMVar m
  putStr (showInt r)"#;
const THROW_TO_WAKES_A_BLOCKED_THREAD: &str = r#"main = do
  m <- newEmptyMVar
  t <- forkIO (takeMVar m >>= \v -> putStr "never")
  yield
  throwTo t Timeout
  yield
  yield
  putStr "main done"
  return ()"#;
const THE_DEFAULT_RUNNER_PERFORMS_FORK_AND_MVARS: &str = r#"main = do
  m <- newEmptyMVar
  forkIO (putMVar m 41)
  v <- takeMVar m
  return (v + 1)"#;
const A_PROGRAM_THAT_NEVER_FORKS_REPORTS_NO_THREADS: &str =
    "main = yield >> putStr \"one\" >> return 3";
