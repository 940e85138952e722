//! Larger IO programs through both runners: the machine implementation
//! and the §4.4 semantic transition system, cross-checked on traces.

use std::collections::BTreeSet;

use urk::{Exception, IoResult, Session};

#[test]
fn line_echo_with_transformation() {
    // Read three characters, emit them upper-shifted by ord arithmetic.
    let mut s = Session::new();
    s.load(LINE_ECHO_WITH_TRANSFORMATION).expect("loads");
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
    s.load(INTERACTIVE_CALCULATOR_WITH_RECOVERY).expect("loads");
    let ok = s.run_main("82").expect("runs");
    assert_eq!(ok.trace.output(), "4");
    let div0 = s.run_main("80").expect("runs");
    assert_eq!(div0.trace.output(), "undefined");
}

#[test]
fn nested_get_exception_boundaries() {
    // An inner handler recovers; the outer one never sees the exception.
    let mut s = Session::new();
    s.load(NESTED_GET_EXCEPTION_BOUNDARIES).expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "1");
}

#[test]
fn io_actions_are_first_class_values() {
    // Store IO actions in a list and perform them in order (§3.5: a value
    // of type IO t is a first-class value).
    let mut s = Session::new();
    s.load(IO_ACTIONS_ARE_FIRST_CLASS_VALUES).expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "xyz");
}

#[test]
fn exceptional_io_action_value_is_uncaught_when_performed() {
    // main itself evaluates to an exceptional value.
    let mut s = Session::new();
    s.load(EXCEPTIONAL_IO_ACTION_VALUE_IS_UNCAUGHT_WHEN_PERFORMED)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(
        out.result,
        IoResult::Uncaught(Exception::DivideByZero)
    ));
    // Semantic runner: the uncaught set contains DivideByZero.
    let sem = s.run_main_semantic("", 3).expect("runs");
    let IoResult::Uncaught(set) = sem.result else {
        panic!("{:?}", sem.result)
    };
    assert!(set.contains(&Exception::DivideByZero));
}

#[test]
fn machine_trace_is_one_of_the_semantic_traces() {
    // The machine is one resolution of the semantic non-determinism: its
    // trace must appear among the semantic runner's traces over seeds.
    let mut s = Session::new();
    s.load(MACHINE_TRACE_IS_ONE_OF_THE_SEMANTIC_TRACES)
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
    s.load(LONG_RUNNING_IO_WITH_INTERRUPT_SCHEDULE)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "second interrupted only");
}

#[test]
fn semantic_yield_is_return_unit() {
    // A program that never forks is a one-thread group, so `yield` has no
    // one to cede to.
    let mut s = Session::new();
    s.load(SEMANTIC_YIELD_IS_RETURN_UNIT).expect("loads");
    let out = s.run_main_semantic("", 0).expect("runs");
    assert!(
        matches!(out.result, IoResult::Done(ref v) if v == "3"),
        "{:?}",
        out.result
    );
    assert_eq!(out.trace.output(), "y");
}

#[test]
fn semantic_runner_performs_concurrency_actions() {
    // The semantic LTS is the machine's thread group over denotations:
    // it forks, reports the forked thread, and completes the MVar and
    // `throwTo` programs.
    for (main, result, threads) in [
        (FORK_AFTER_OUTPUT, "0", "[(1, Done(\"1\"))]"),
        (NEW_MVAR_TAKE, "1", "[]"),
        (NEW_EMPTY_MVAR_PUT, "Unit", "[]"),
        (THROW_TO_MAIN, "Unit", "[]"),
    ] {
        let mut s = Session::new();
        s.load(main).expect("loads");
        let out = s.run_main_semantic("", 0).expect("runs");
        assert!(
            matches!(out.result, IoResult::Done(ref v) if v == result),
            "{main}: {:?}",
            out.result
        );
        assert_eq!(format!("{:?}", out.threads), threads, "{main}");
    }
}

#[test]
fn semantic_runner_refuels_every_action() {
    // Fuel bounds one pure evaluation, not the run: a long, productive
    // action loop performs to the end as it does on the machine.
    let mut s = Session::new();
    s.load(SPIN).expect("loads");
    let machine = s.run_main("").expect("runs");
    let semantic = s.run_main_semantic("", 0).expect("runs");
    assert!(
        matches!(semantic.result, IoResult::Done(ref v) if v == "0"),
        "{:?}",
        semantic.result
    );
    assert_eq!(semantic.trace.output().len(), 100_000);
    assert_eq!(semantic.trace.to_string(), machine.trace.to_string());
}

#[test]
fn semantic_runner_bounds_an_endless_action_loop() {
    // The run is charged one unit of the fuel budget per action, so an
    // action loop that never ends still ends `Diverged`.
    let mut s = Session::new();
    s.options.denot.fuel = 5_000;
    s.load(FOREVER).expect("loads");
    let out = s.run_main_semantic("", 0).expect("runs");
    assert!(matches!(out.result, IoResult::Diverged), "{:?}", out.result);
    assert!(!out.trace.output().is_empty());
}

const SPIN: &str = "spin n = if n == 0 then return 0 else putChar (chr 120) >> spin (n - 1)
main = spin 100000";
const FOREVER: &str = "forever = putChar 'x' >> forever
main = forever";

// ----------------------------------------------------------------------
// Goldens: both runners' whole outcomes for every program here
// ----------------------------------------------------------------------

/// Every program this file performs, by the name of the test that
/// performs it: `(name, source, input, step of a scheduled Interrupt)`.
/// The interrupt schedule drives the machine only.
const PROGRAMS: &[(&str, &str, &str, Option<u64>)] = &[
    (
        "line_echo_with_transformation",
        LINE_ECHO_WITH_TRANSFORMATION,
        "abc",
        None,
    ),
    (
        "interactive_calculator_with_recovery",
        INTERACTIVE_CALCULATOR_WITH_RECOVERY,
        "82",
        None,
    ),
    (
        "interactive_calculator_with_recovery",
        INTERACTIVE_CALCULATOR_WITH_RECOVERY,
        "80",
        None,
    ),
    (
        "nested_get_exception_boundaries",
        NESTED_GET_EXCEPTION_BOUNDARIES,
        "",
        None,
    ),
    (
        "io_actions_are_first_class_values",
        IO_ACTIONS_ARE_FIRST_CLASS_VALUES,
        "",
        None,
    ),
    (
        "exceptional_io_action_value_is_uncaught_when_performed",
        EXCEPTIONAL_IO_ACTION_VALUE_IS_UNCAUGHT_WHEN_PERFORMED,
        "",
        None,
    ),
    (
        "machine_trace_is_one_of_the_semantic_traces",
        MACHINE_TRACE_IS_ONE_OF_THE_SEMANTIC_TRACES,
        "",
        None,
    ),
    (
        "long_running_io_with_interrupt_schedule",
        LONG_RUNNING_IO_WITH_INTERRUPT_SCHEDULE,
        "",
        Some(50_000),
    ),
    (
        "semantic_yield_is_return_unit",
        SEMANTIC_YIELD_IS_RETURN_UNIT,
        "",
        None,
    ),
    ("fork_after_output", FORK_AFTER_OUTPUT, "", None),
    ("new_mvar_take", NEW_MVAR_TAKE, "", None),
    ("new_empty_mvar_put", NEW_EMPTY_MVAR_PUT, "", None),
    ("throw_to_main", THROW_TO_MAIN, "", None),
];

/// The programs that perform a concurrency action other than `yield`;
/// every other program in `PROGRAMS` runs one thread.
const CONCURRENT: &[&str] = &[
    FORK_AFTER_OUTPUT,
    NEW_MVAR_TAKE,
    NEW_EMPTY_MVAR_PUT,
    THROW_TO_MAIN,
];

fn session(src: &str, interrupt_at: Option<u64>) -> Session {
    let mut s = Session::new();
    if let Some(at) = interrupt_at {
        s.options.machine.event_schedule = vec![(at, Exception::Interrupt)];
    }
    s.load(src).expect("loads");
    s
}

/// The machine runner's `(trace, result, threads)`.
fn machine_outcome(s: &Session, input: &str) -> String {
    let out = s.run_main(input).expect("runs");
    format!(
        "{} => {:?}; threads {:?}",
        out.trace, out.result, out.threads
    )
}

/// The semantic runner's trace and result for seeds 0..8, seeds with the
/// same outcome grouped.
fn semantic_outcomes(s: &Session, input: &str) -> String {
    let mut groups: Vec<(Vec<u64>, String)> = Vec::new();
    for seed in 0..8 {
        let out = s.run_main_semantic(input, seed).expect("runs");
        let o = format!("{} => {:?}", out.trace, out.result);
        match groups.iter_mut().find(|(_, g)| *g == o) {
            Some((seeds, _)) => seeds.push(seed),
            None => groups.push((vec![seed], o)),
        }
    }
    groups
        .iter()
        .map(|(seeds, o)| format!("seeds {seeds:?}: {o}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Compares observed rows with pinned ones, printing the whole observed
/// table on a mismatch.
fn assert_goldens(observed: &[(&str, String)], pinned: &[(&str, &str)]) {
    let table: String = observed
        .iter()
        .map(|(name, o)| format!("    ({name:?}, {o:?}),\n"))
        .collect();
    assert_eq!(observed.len(), pinned.len(), "observed table:\n{table}");
    for ((name, o), (want_name, want)) in observed.iter().zip(pinned) {
        assert_eq!(
            (*name, o.as_str()),
            (*want_name, *want),
            "observed table:\n{table}"
        );
    }
}

/// The pinned machine outcomes, in `PROGRAMS` order.
const MACHINE_GOLDENS: &[(&str, &str)] = &[
    (
        "line_echo_with_transformation",
        "?a ?b ?c !A !B !C => Done(\"Unit\"); threads []",
    ),
    (
        "interactive_calculator_with_recovery",
        "?8 ?2 !\"4\" => Done(\"Unit\"); threads []",
    ),
    (
        "interactive_calculator_with_recovery",
        "?8 ?0 choose[DivideByZero] !\"undefined\" => Done(\"Unit\"); threads []",
    ),
    (
        "nested_get_exception_boundaries",
        "choose[DivideByZero] !\"1\" => Done(\"Unit\"); threads []",
    ),
    (
        "io_actions_are_first_class_values",
        "!x !y !z => Done(\"Unit\"); threads []",
    ),
    (
        "exceptional_io_action_value_is_uncaught_when_performed",
        " => Uncaught(DivideByZero); threads []",
    ),
    (
        "machine_trace_is_one_of_the_semantic_traces",
        "choose[DivideByZero] !\"div\" => Done(\"Unit\"); threads []",
    ),
    (
        "long_running_io_with_interrupt_schedule",
        "async[Interrupt] !\"second interrupted only\" => Done(\"Unit\"); threads []",
    ),
    (
        "semantic_yield_is_return_unit",
        "!\"y\" => Done(\"3\"); threads []",
    ),
    (
        "fork_after_output",
        "!\"a\" fork[1] => Done(\"0\"); threads [(1, Done(\"1\"))]",
    ),
    ("new_mvar_take", " => Done(\"1\"); threads []"),
    ("new_empty_mvar_put", " => Done(\"Unit\"); threads []"),
    ("throw_to_main", " => Done(\"Unit\"); threads []"),
];

/// The pinned semantic outcomes of the one-thread programs, in `PROGRAMS`
/// order.
const SEMANTIC_GOLDENS: &[(&str, &str)] = &[
    ("line_echo_with_transformation", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: ?a ?b ?c !A !B !C => Done(\"Unit\")"),
    ("interactive_calculator_with_recovery", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: ?8 ?2 !\"4\" => Done(\"Unit\")"),
    ("interactive_calculator_with_recovery", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: ?8 ?0 choose[DivideByZero] !\"undefined\" => Done(\"Unit\")"),
    ("nested_get_exception_boundaries", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: choose[DivideByZero] !\"1\" => Done(\"Unit\")"),
    ("io_actions_are_first_class_values", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: !x !y !z => Done(\"Unit\")"),
    ("exceptional_io_action_value_is_uncaught_when_performed", "seeds [0, 1, 2, 3, 4, 5, 6, 7]:  => Uncaught(ExnSet{DivideByZero})"),
    ("machine_trace_is_one_of_the_semantic_traces", "seeds [0, 1, 3, 6, 7]: choose[UserError \"Urk\"] !\"Urk\" => Done(\"Unit\") | seeds [2, 4, 5]: choose[DivideByZero] !\"div\" => Done(\"Unit\")"),
    ("long_running_io_with_interrupt_schedule", "seeds [0, 1, 2, 3, 4, 5, 6, 7]:  => Diverged"),
    ("semantic_yield_is_return_unit", "seeds [0, 1, 2, 3, 4, 5, 6, 7]: !\"y\" => Done(\"3\")"),
];

#[test]
fn machine_outcomes_match_the_goldens() {
    let observed: Vec<(&str, String)> = PROGRAMS
        .iter()
        .map(|(name, src, input, at)| (*name, machine_outcome(&session(src, *at), input)))
        .collect();
    assert_goldens(&observed, MACHINE_GOLDENS);
}

#[test]
fn semantic_outcomes_of_one_thread_programs_match_the_goldens() {
    let observed: Vec<(&str, String)> = PROGRAMS
        .iter()
        .filter(|(_, src, _, _)| !CONCURRENT.contains(src))
        .map(|(name, src, input, at)| (*name, semantic_outcomes(&session(src, *at), input)))
        .collect();
    assert_goldens(&observed, SEMANTIC_GOLDENS);
}

// ----------------------------------------------------------------------
// The programs above
// ----------------------------------------------------------------------

const LINE_ECHO_WITH_TRANSFORMATION: &str = r#"shift c = chr (ord c - 32)
main = do
  a <- getChar
  b <- getChar
  c <- getChar
  putChar (shift a)
  putChar (shift b)
  putChar (shift c)
  return ()"#;
const INTERACTIVE_CALCULATOR_WITH_RECOVERY: &str = r#"digit c = ord c - 48
main = do
  a <- getChar
  b <- getChar
  v <- getException (digit a / digit b)
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "undefined""#;
const NESTED_GET_EXCEPTION_BOUNDARIES: &str = r#"inner x = do
  v <- getException (100 / x)
  case v of
    OK n  -> return n
    Bad e -> return 0
main = do
  r <- inner 0
  v <- getException (r + 1)
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "outer saw it""#;
const IO_ACTIONS_ARE_FIRST_CLASS_VALUES: &str = r#"performAll actions = case actions of
  []   -> return ()
  a:as -> a >> performAll as
main = performAll [putChar 'x', putChar 'y', putChar 'z']"#;
const EXCEPTIONAL_IO_ACTION_VALUE_IS_UNCAUGHT_WHEN_PERFORMED: &str =
    r#"main = if 1 / 0 > 0 then putChar 'a' else putChar 'b'"#;
const MACHINE_TRACE_IS_ONE_OF_THE_SEMANTIC_TRACES: &str = r#"main = do
  v <- getException ((1/0) + error "Urk")
  case v of
    Bad DivideByZero -> putStr "div"
    Bad (UserError m) -> putStr m
    _ -> putStr "?""#;
const LONG_RUNNING_IO_WITH_INTERRUPT_SCHEDULE: &str = r#"busy n = if n == 0 then 0 else busy (n - 1)
main = do
  a <- getException (busy 100)
  b <- getException (busy 100000)
  c <- getException (busy 10)
  case (a, b, c) of
    (OK x, Bad Interrupt, OK z) -> putStr "second interrupted only"
    _ -> putStr "unexpected""#;
const SEMANTIC_YIELD_IS_RETURN_UNIT: &str = "main = yield >> putStr \"y\" >> return 3";
const FORK_AFTER_OUTPUT: &str = "main = putStr \"a\" >> forkIO (return 1) >> return 0";
const NEW_MVAR_TAKE: &str = "main = newMVar 1 >>= takeMVar";
const NEW_EMPTY_MVAR_PUT: &str = "main = newEmptyMVar >>= \\m -> putMVar m 1";
const THROW_TO_MAIN: &str = "main = throwTo 0 Timeout";
