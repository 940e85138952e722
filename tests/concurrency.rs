//! The §4.4 concurrency extension: `forkIO`/`yield` under the cooperative
//! round-robin scheduler, and how imprecise exceptions interact with
//! threads.

use urk::{Exception, IoResult, Session};
use urk_io::ThreadResult;

#[test]
fn forked_threads_interleave_with_main() {
    let mut s = Session::new();
    s.load(
        r#"chatter c n = if n == 0 then return 0
                        else putChar c >> chatter c (n - 1)
main = do
  t <- forkIO (chatter 'b' 3)
  chatter 'a' 3
  putChar '.'
  putChar '.'
  return t"#,
    )
    .expect("loads");
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
    s.load(
        r#"main = do
  forkIO (putStr (showInt (1/0)))
  yield
  putStr "main survived"
  return ()"#,
    )
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
    s.load(
        r#"worker = do
  v <- getException (1/0)
  case v of
    OK n  -> putStr "no"
    Bad e -> putStr "thread recovered"
main = do
  forkIO worker
  yield
  yield
  yield
  return ()"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "thread recovered");
}

#[test]
fn threads_share_poisoned_thunks() {
    // A thunk poisoned in one thread re-raises the same representative in
    // another (§3.3's overwrite, observed across threads).
    let mut s = Session::new();
    s.load(
        r#"shared = (1/0) + error "Urk"
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
  return ()"#,
    )
    .expect("loads");
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
    s.load(
        r#"forever = putChar 'x' >> forever
main = do
  forkIO forever
  yield
  yield
  return 99"#,
    )
    .expect("loads");
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
    s.load(
        r#"main = do
  a <- forkIO (return 0)
  b <- forkIO (return 0)
  yield
  return (a, b)"#,
    )
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
    s.load(
        r#"main = do
  m <- newMVar 41
  v <- takeMVar m
  putMVar m (v + 1)
  w <- takeMVar m
  putStr (showInt w)"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "42");
}

#[test]
fn producer_consumer_through_an_mvar() {
    let mut s = Session::new();
    s.load(
        r#"produce m n = if n == 0 then return ()
                        else putMVar m n >> produce m (n - 1)
consume m n = if n == 0 then return ()
              else do
                v <- takeMVar m
                putStr (showInt v)
                consume m (n - 1)
main = do
  m <- newEmptyMVar
  forkIO (produce m 4)
  consume m 4"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    // One-slot channel: values arrive in order.
    assert_eq!(out.trace.output(), "4321");
    assert!(matches!(out.result, IoResult::Done(_)));
}

#[test]
fn take_blocks_until_another_thread_puts() {
    let mut s = Session::new();
    s.load(
        r#"main = do
  m <- newEmptyMVar
  forkIO (yield >> yield >> putMVar m 7)
  v <- takeMVar m
  putStr (showInt v)"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "7");
}

#[test]
fn blocked_forever_is_reported_like_ghc() {
    let mut s = Session::new();
    s.load("main = newEmptyMVar >>= \\m -> takeMVar m")
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(
        out.result,
        IoResult::Uncaught(Exception::BlockedIndefinitely)
    ));
}

#[test]
fn put_blocks_on_a_full_mvar() {
    let mut s = Session::new();
    s.load(
        r#"main = do
  m <- newMVar 1
  forkIO (takeMVar m >>= \v -> putStr (showInt v))
  putMVar m 2
  v <- takeMVar m
  putStr (showInt v)"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    // Main's put blocks until the forked take empties the cell.
    assert_eq!(out.trace.output(), "12");
}

#[test]
fn mvar_as_a_mutex_serializes_critical_sections() {
    let mut s = Session::new();
    s.load(
        r#"critical m c = do
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
  return ()"#,
    )
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
    s.load(
        r#"main = do
  m <- newMVar 20
  modifyMVar m (* 2)
  v <- readMVar m
  w <- readMVar m
  putStr (showInt (v + w + 2))"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "82");
}

#[test]
fn optimizer_does_not_disturb_concurrent_programs() {
    let mut s = Session::new();
    s.load(
        r#"produce m n = if n == 0 then return () else putMVar m n >> produce m (n - 1)
consume m n acc = if n == 0 then return acc
                  else takeMVar m >>= \v -> consume m (n - 1) (acc + v)
main = do
  m <- newEmptyMVar
  forkIO (produce m 5)
  total <- consume m 5 0
  putStr (showInt total)"#,
    )
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
    s.load(
        r#"forever = putChar '.' >> forever
main = do
  t <- forkIO forever
  yield
  yield
  throwTo t (UserError "stop")
  yield
  yield
  putStr "done"
  return ()"#,
    )
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
    s.load(
        r#"worker m = do
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
  putStr (showInt r)"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "1", "{}", out.trace);
}

#[test]
fn throw_to_wakes_a_blocked_thread() {
    let mut s = Session::new();
    s.load(
        r#"main = do
  m <- newEmptyMVar
  t <- forkIO (takeMVar m >>= \v -> putStr "never")
  yield
  throwTo t Timeout
  yield
  yield
  putStr "main done"
  return ()"#,
    )
    .expect("loads");
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
    s.load(
        r#"main = do
  m <- newEmptyMVar
  forkIO (putMVar m 41)
  v <- takeMVar m
  return (v + 1)"#,
    )
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
    s.load("main = yield >> putStr \"one\" >> return 3")
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "3"));
    assert_eq!(out.trace.output(), "one");
    assert!(out.threads.is_empty(), "{:?}", out.threads);
}
