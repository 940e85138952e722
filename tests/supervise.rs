//! The supervised evaluation service: wall-clock cancellation, panic
//! isolation, budget escalation, and diagnosable aborts.

use std::time::{Duration, Instant};

use urk::{Error, Exception, MachineError, Session, Supervisor};

#[test]
fn infinite_loop_is_cancelled_at_the_wall_clock_deadline() {
    let session = Session::new();
    let started = Instant::now();
    let out = session
        .eval_supervised(
            "let f = \\n -> f (n + 1) in f 0",
            &Supervisor::with_deadline(100),
        )
        .expect("supervised evaluation returns rather than aborting");
    assert_eq!(out.result.exception, Some(Exception::Timeout));
    assert_eq!(out.result.rendered, "(raise Timeout)");
    assert!(out.timed_out);
    assert_eq!(out.attempts, 1);
    // The watchdog must have cancelled well before the 50M-step limit
    // would have — wall-clock, not step-count. Generous bound for CI.
    assert!(started.elapsed() < Duration::from_secs(30));

    // The session survives the cancellation and keeps serving requests.
    assert_eq!(session.eval("6 * 7").expect("usable").rendered, "42");
    assert_eq!(
        session
            .eval_supervised("1 + 2", &Supervisor::with_deadline(5_000))
            .expect("usable")
            .result
            .rendered,
        "3"
    );
}

#[test]
fn fast_requests_finish_before_the_watchdog_fires() {
    let session = Session::new();
    let out = session
        .eval_supervised(
            "map (\\x -> x * x) [1, 2, 3]",
            &Supervisor::with_deadline(5_000),
        )
        .expect("evals");
    assert_eq!(out.result.rendered, "Cons 1 (Cons 4 (Cons 9 Nil))");
    assert!(!out.timed_out);
    assert_eq!(out.attempts, 1);
    assert_eq!(out.result.exception, None);
}

#[test]
fn machine_panics_are_isolated_as_internal_errors() {
    // An ill-typed term panics the machine (the evaluators assume
    // well-typed input); under supervision that is a structured error and
    // the session survives. Typechecking is disabled to let the term in.
    let mut session = Session::new();
    session.options.typecheck = false;
    let err = session
        .eval_supervised("1 2", &Supervisor::new())
        .expect_err("applying an integer panics the machine");
    assert!(
        matches!(
            &err,
            Error::Machine {
                error: MachineError::Internal(_),
                ..
            }
        ),
        "expected an internal machine error, got: {err}"
    );

    // The machine that panicked is gone; the session is untouched.
    session.options.typecheck = true;
    assert_eq!(session.eval("1 + 1").expect("usable").rendered, "2");
}

#[test]
fn heap_overflow_is_retried_with_escalated_budgets() {
    let session = Session::new();
    // Retaining a 2000-element list overflows the first-attempt heap
    // budget; the escalated retry (x8) fits it.
    let supervisor = Supervisor {
        max_heap: Some(3_000),
        retries: 2,
        growth: 8,
        ..Supervisor::default()
    };
    let out = session
        .eval_supervised(
            "let upto = \\n -> if n == 0 then [] else n : upto (n - 1) in length (upto 2000)",
            &supervisor,
        )
        .expect("evals");
    assert_eq!(out.result.rendered, "2000");
    assert!(out.attempts > 1, "the first budget must be too small");
}

#[test]
fn exhausted_retries_report_the_resource_death() {
    let session = Session::new();
    let supervisor = Supervisor {
        max_heap: Some(2_000),
        retries: 0,
        ..Supervisor::default()
    };
    let out = session
        .eval_supervised(
            "let upto = \\n -> if n == 0 then [] else n : upto (n - 1) in length (upto 100000)",
            &supervisor,
        )
        .expect("a budget death under a catch mark is a caught exception");
    assert_eq!(out.result.exception, Some(Exception::HeapOverflow));
    assert_eq!(out.attempts, 1);
}

#[test]
fn aborted_runs_carry_their_stats_into_the_error() {
    // The Session::eval bugfix: hitting a hard limit used to discard the
    // counters; now the error reports how far the run got.
    let mut session = Session::new();
    session.options.machine.max_steps = 5_000;
    let err = session
        .eval("let f = \\n -> f (n + 1) in f 0")
        .expect_err("step limit");
    let Error::Machine { error, stats } = &err else {
        panic!("expected a machine error, got: {err}");
    };
    assert!(matches!(error, MachineError::StepLimit));
    let stats = stats.as_ref().expect("stats must be carried");
    assert!(stats.steps >= 5_000, "{stats:?}");
    assert!(stats.allocations > 0);
    // And the rendered error mentions them.
    assert!(err.to_string().contains("steps"), "{err}");
}

/// The evaluation that lowers the program carries the lowering's cost in
/// its stats, once; later evaluations carry only their own query's. Both
/// evaluation paths stamp through one helper.
#[test]
fn lowering_cost_is_stamped_on_the_first_evaluation_only() {
    const QUERY: &str = "sum (map (\\x -> x * 2) [1 .. 10])";
    let lowering = Session::new().compiled_code().compile_ops();
    assert!(lowering > 0);

    let direct = Session::new();
    let first = direct.eval(QUERY).expect("evals").stats;
    let second = direct.eval(QUERY).expect("evals").stats;
    assert_eq!(first.compile_ops, second.compile_ops + lowering);

    let supervised = Session::new();
    let supervisor = Supervisor::with_deadline(10_000);
    let first = supervised
        .eval_supervised(QUERY, &supervisor)
        .expect("evals")
        .result
        .stats;
    let second = supervised
        .eval_supervised(QUERY, &supervisor)
        .expect("evals")
        .result
        .stats;
    assert_eq!(first.compile_ops, second.compile_ops + lowering);
    assert!(first.compile_micros >= second.compile_micros);
}
