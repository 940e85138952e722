//! Larger IO programs through both runners: the machine implementation
//! and the §4.4 semantic transition system, cross-checked on traces.

use std::collections::BTreeSet;

use urk::{Exception, IoResult, SemIoResult, Session};

#[test]
fn line_echo_with_transformation() {
    // Read three characters, emit them upper-shifted by ord arithmetic.
    let mut s = Session::new();
    s.load(
        r#"shift c = chr (ord c - 32)
main = do
  a <- getChar
  b <- getChar
  c <- getChar
  putChar (shift a)
  putChar (shift b)
  putChar (shift c)
  return ()"#,
    )
    .expect("loads");
    let out = s.run_main("abc").expect("runs");
    assert_eq!(out.trace.output(), "ABC");
    assert_eq!(out.trace.to_string(), "?a ?b ?c !A !B !C");

    // The semantic runner produces the identical trace.
    let sem = s.run_main_semantic("abc", 0).expect("runs");
    assert_eq!(sem.trace.to_string(), "?a ?b ?c !A !B !C");
}

#[test]
fn interactive_calculator_with_recovery() {
    // Reads two digits, divides, recovers from division by zero.
    let mut s = Session::new();
    s.load(
        r#"digit c = ord c - 48
main = do
  a <- getChar
  b <- getChar
  v <- getException (digit a / digit b)
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "undefined""#,
    )
    .expect("loads");
    let ok = s.run_main("82").expect("runs");
    assert_eq!(ok.trace.output(), "4");
    let div0 = s.run_main("80").expect("runs");
    assert_eq!(div0.trace.output(), "undefined");
}

#[test]
fn nested_get_exception_boundaries() {
    // An inner handler recovers; the outer one never sees the exception.
    let mut s = Session::new();
    s.load(
        r#"inner x = do
  v <- getException (100 / x)
  case v of
    OK n  -> return n
    Bad e -> return 0
main = do
  r <- inner 0
  v <- getException (r + 1)
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "outer saw it""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "1");
}

#[test]
fn io_actions_are_first_class_values() {
    // Store IO actions in a list and perform them in order (§3.5: a value
    // of type IO t is a first-class value).
    let mut s = Session::new();
    s.load(
        r#"performAll actions = case actions of
  []   -> return ()
  a:as -> a >> performAll as
main = performAll [putChar 'x', putChar 'y', putChar 'z']"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "xyz");
}

#[test]
fn exceptional_io_action_value_is_uncaught_when_performed() {
    // main itself evaluates to an exceptional value.
    let mut s = Session::new();
    s.load(r#"main = if 1 / 0 > 0 then putChar 'a' else putChar 'b'"#)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(
        out.result,
        IoResult::Uncaught(Exception::DivideByZero)
    ));
    // Semantic runner: the uncaught set contains DivideByZero.
    let sem = s.run_main_semantic("", 3).expect("runs");
    let SemIoResult::Uncaught(set) = sem.result else {
        panic!("{:?}", sem.result)
    };
    assert!(set.contains(&Exception::DivideByZero));
}

#[test]
fn machine_trace_is_one_of_the_semantic_traces() {
    // The machine is one resolution of the semantic non-determinism: its
    // trace must appear among the semantic runner's traces over seeds.
    let mut s = Session::new();
    s.load(
        r#"main = do
  v <- getException ((1/0) + error "Urk")
  case v of
    Bad DivideByZero -> putStr "div"
    Bad (UserError m) -> putStr m
    _ -> putStr "?""#,
    )
    .expect("loads");
    let machine_trace = s.run_main("").expect("runs").trace.to_string();
    let semantic: BTreeSet<String> = (0..32)
        .map(|seed| {
            s.run_main_semantic("", seed)
                .expect("runs")
                .trace
                .to_string()
        })
        .collect();
    assert!(
        semantic.contains(&machine_trace),
        "{machine_trace} not in {semantic:?}"
    );
    // And the semantic runner explores more than one behaviour.
    assert!(semantic.len() >= 2);
}

#[test]
fn long_running_io_with_interrupt_schedule() {
    let mut s = Session::new();
    s.options.machine.event_schedule = vec![(50_000, Exception::Interrupt)];
    s.load(
        r#"busy n = if n == 0 then 0 else busy (n - 1)
main = do
  a <- getException (busy 100)
  b <- getException (busy 100000)
  c <- getException (busy 10)
  case (a, b, c) of
    (OK x, Bad Interrupt, OK z) -> putStr "second interrupted only"
    _ -> putStr "unexpected""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "second interrupted only");
}

#[test]
fn semantic_yield_is_return_unit() {
    // The semantic LTS has one thread, so `yield` has no one to cede to.
    let mut s = Session::new();
    s.load("main = yield >> putStr \"y\" >> return 3")
        .expect("loads");
    let out = s.run_main_semantic("", 0).expect("runs");
    assert!(
        matches!(out.result, SemIoResult::Done(ref v) if v == "3"),
        "{:?}",
        out.result
    );
    assert_eq!(out.trace.output(), "y");
}

#[test]
fn semantic_runner_ends_concurrency_actions_explicitly() {
    // Any concurrency action but `yield` ends the one-thread LTS with a
    // result naming its constructor.
    for (main, con) in [
        (
            "main = putStr \"a\" >> forkIO (return 1) >> return 0",
            "Fork",
        ),
        ("main = newMVar 1 >>= takeMVar", "NewMVar"),
        ("main = newEmptyMVar >>= \\m -> putMVar m 1", "NewEmptyMVar"),
        ("main = throwTo 0 Timeout", "ThrowTo"),
    ] {
        let mut s = Session::new();
        s.load(main).expect("loads");
        let out = s.run_main_semantic("", 0).expect("runs");
        match out.result {
            SemIoResult::Unsupported(c) => assert_eq!(c.to_string(), con, "{main}"),
            other => panic!("{main}: {other:?}"),
        }
    }
}
