//! Garbage-collection stress through the whole stack: long-running IO
//! programs with a small collection threshold must keep working, including
//! across `getException` boundaries, poisoned thunks, and async events —
//! and after every interrupted episode the heap must audit clean (no
//! stranded black holes: the §5.1 restore reached every in-flight thunk).

use std::rc::Rc;
use std::sync::Arc;

use urk::{Exception, IoResult, Session};
use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

/// A machine with an empty program linked, for closed queries.
fn closed_machine(config: MachineConfig) -> Machine {
    let mut m = Machine::new(config);
    m.link_code(Arc::new(compile_program(&[])));
    m
}

fn small_heap_session() -> Session {
    let mut s = Session::new();
    s.options.machine.gc_threshold = 30_000;
    s
}

#[test]
fn io_loop_with_churn_and_recovery() {
    let mut s = small_heap_session();
    s.load(
        r#"mk n = if n == 0 then [] else n : mk (n - 1)
crunch n = sum (mk n) / (n % 3)
step i acc = do
  v <- getException (crunch i)
  case v of
    OK x  -> return (acc + 1)
    Bad e -> return acc
runAll i acc = if i == 0 then return acc else step i acc >>= runAll (i - 1)
main = do
  good <- runAll 120 0
  putStr (showInt good)"#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    // Of 1..120, multiples of 3 divide by zero: 40 bad, 80 good.
    assert_eq!(out.trace.output(), "80");
    let IoResult::Done(_) = out.result else {
        panic!("{:?}", out.result)
    };
}

#[test]
fn gc_does_not_lose_poisoned_thunks_in_use() {
    let mut s = small_heap_session();
    s.load(
        r#"mk n = if n == 0 then [] else n : mk (n - 1)
main = do
  a <- getException (1 / 0)
  u <- getException (sum (mk 2000))
  b <- getException (1 / 0)
  case (a, b) of
    (Bad x, Bad y) -> putStr "both bad"
    _ -> putStr "unexpected""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "both bad");
}

#[test]
fn interrupted_then_resumed_computation_survives_gc() {
    let mut s = small_heap_session();
    s.options.machine.event_schedule = vec![(60_000, Exception::Interrupt)];
    s.load(
        r#"mk n = if n == 0 then [] else n : mk (n - 1)
work = sum (mk 600)
main = do
  a <- getException work
  b <- getException work
  case (a, b) of
    (Bad Interrupt, OK n) -> putStr (strAppend "resumed: " (showInt n))
    (OK n, OK m)          -> putStr "not interrupted"
    _                     -> putStr "unexpected""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    // Either the interrupt landed in the first getException (and the
    // second resumed to the value), or the schedule fired elsewhere; both
    // getExceptions of the *shared* `work` must agree on the value.
    assert!(
        out.trace.output().starts_with("resumed: 180300")
            || out.trace.output() == "not interrupted",
        "{}",
        out.trace.output()
    );
}

#[test]
fn no_black_hole_survives_an_interrupted_episode() {
    // Machine-level audit: interrupt episodes at many different step
    // points (so the trim races every phase — mid-update, mid-apply,
    // mid-GC) and after each completed episode check the heap holds zero
    // black holes and the allocator's books balance.
    let data = DataEnv::new();
    let src = "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 250) in s + 1";
    let core =
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"));
    for at in (50u64..2_000).step_by(50) {
        let mut m = closed_machine(MachineConfig {
            event_schedule: vec![(at, Exception::Interrupt)],
            gc_threshold: 500,
            ..MachineConfig::default()
        });
        let out = m.eval_code_expr(&core, true).expect("within limits");
        let audit = m.audit_heap();
        assert_eq!(
            audit.blackholes, 0,
            "episode interrupted at step {at} stranded black holes: {audit:?} ({out:?})"
        );
        assert!(
            audit.is_consistent(),
            "heap inconsistent after interrupt at step {at}: {audit:?}"
        );
    }
}

#[test]
fn re_evaluation_after_interruption_agrees_with_the_denotational_oracle() {
    // The §5.1 resumability claim, end to end: interrupt an episode, then
    // evaluate the same expression again on the *same machine* (restored
    // thunks and all) and compare with the oracle.
    let data = DataEnv::new();
    let src = "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 250) in s + 1";
    let core =
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"));
    let ev = urk_denot::DenotEvaluator::with_config(urk::DenotConfig {
        max_depth: 2_000,
        ..urk::DenotConfig::default()
    });
    let denot = ev.eval_closed(&core);
    assert_eq!(urk_denot::show_denot(&ev, &denot, 16), "31376");

    // Early, middle and late in the 756-step episode.
    for at in [100u64, 400, 700] {
        let mut m = closed_machine(MachineConfig {
            event_schedule: vec![(at, Exception::Interrupt)],
            gc_threshold: 500,
            ..MachineConfig::default()
        });
        let first = m.eval_code_expr(&core, true).expect("within limits");
        assert!(
            matches!(first, Outcome::Caught(Exception::Interrupt)),
            "interrupt at {at}: {first:?}"
        );
        // The schedule is exhausted; re-evaluation must now reach the
        // oracle's value using whatever the trim left behind.
        let second = m.eval_code_expr(&core, true).expect("within limits");
        if let Err(why) = urk_io::admits(&mut m, &second, &ev, &denot, 16) {
            panic!("re-evaluation after interrupt at {at}: {why}");
        }
        assert!(m.audit_heap().is_consistent());
    }
}
