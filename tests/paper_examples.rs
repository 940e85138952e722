//! End-to-end checks of every worked example in the paper, run through the
//! public `urk` API. Section references are to *"A Semantics for Imprecise
//! Exceptions"* (PLDI 1999).

use urk::{BlackholeMode, Exception, OrderPolicy, Session};

fn session() -> Session {
    Session::new()
}

// ----------------------------------------------------------------------
// §2.1 — exceptions as values, explicit encoding
// ----------------------------------------------------------------------

#[test]
fn explicit_exval_encoding_works_in_the_unextended_language() {
    // The paper's ExVal pattern, written by hand in Urk itself.
    let mut s = session();
    s.load(
        "safeDiv a b = if b == 0 then Bad DivideByZero else OK (a / b)\n\
         useIt a b = case safeDiv a b of { OK v -> v; Bad ex -> 0 - 1 }",
    )
    .expect("loads");
    assert_eq!(s.eval("useIt 10 2").expect("evals").rendered, "5");
    assert_eq!(s.eval("useIt 10 0").expect("evals").rendered, "-1");
}

// ----------------------------------------------------------------------
// §2.2 — error halts execution; built-in failures are catchable now
// ----------------------------------------------------------------------

#[test]
fn error_urk_raises_user_error() {
    let s = session();
    let out = s.eval(r#"error "Urk""#).expect("evals");
    assert_eq!(out.exception, Some(Exception::UserError("Urk".into())));
}

#[test]
fn head_of_empty_list_is_catchable_pattern_match_failure() {
    let mut s = session();
    s.load(
        r#"main = do
  v <- getException (head [])
  case v of
    OK x                     -> putStr "impossible"
    Bad (PatternMatchFail f) -> putStr (strAppend "no match in: " f)
    Bad e                    -> putStr "other""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "no match in: head");
}

// ----------------------------------------------------------------------
// §3.2 — propagation through lazy structures (zipWith)
// ----------------------------------------------------------------------

#[test]
fn zipwith_three_shapes_of_exceptional_result() {
    let s = session();
    // Directly exceptional.
    assert_eq!(
        s.eval("zipWith (+) [] [1]").expect("evals").exception,
        Some(Exception::UserError("Unequal lists".into()))
    );
    // Exception at the end of the spine.
    assert_eq!(
        s.eval("zipWith (+) [1] [1, 2]").expect("evals").rendered,
        "Cons 2 (raise UserError \"Unequal lists\")"
    );
    // Fully-defined spine, exceptional element.
    assert_eq!(
        s.eval("zipWith (/) [1, 2] [1, 0]").expect("evals").rendered,
        "Cons 1 (Cons (raise DivideByZero) Nil)"
    );
}

#[test]
fn seq_forces_structures_per_section_3_2() {
    let s = session();
    // The spine constructor shields the exception...
    assert_eq!(
        s.eval("seq (zipWith (/) [1] [0]) 5")
            .expect("evals")
            .rendered,
        "5"
    );
    // ...until forceList flushes it out.
    assert_eq!(
        s.eval("seq (forceList (zipWith (/) [1] [0])) 5")
            .expect("evals")
            .exception,
        Some(Exception::DivideByZero)
    );
}

// ----------------------------------------------------------------------
// §3.4 — the commutativity problem and the set-based answer
// ----------------------------------------------------------------------

#[test]
fn urk_indeed_the_denotation_has_both_exceptions() {
    let s = session();
    let set = s
        .exception_set(r#"(1/0) + error "Urk""#)
        .expect("evals")
        .expect("exceptional");
    assert!(set.contains(&Exception::DivideByZero));
    assert!(set.contains(&Exception::UserError("Urk".into())));
    // And the flipped term denotes the same set.
    let flipped = s
        .exception_set(r#"error "Urk" + (1/0)"#)
        .expect("evals")
        .expect("exceptional");
    assert_eq!(set, flipped);
}

// ----------------------------------------------------------------------
// §3.5 — getException in IO; different "optimisation settings"
// ----------------------------------------------------------------------

#[test]
fn representative_changes_with_policy_but_stays_in_the_set() {
    let term = r#"(1/0) + error "Urk""#;
    let mut s = session();
    let set = s.exception_set(term).expect("evals").expect("exceptional");
    let mut seen = Vec::new();
    for policy in [
        OrderPolicy::LeftToRight,
        OrderPolicy::RightToLeft,
        OrderPolicy::Seeded(1),
        OrderPolicy::Seeded(2),
    ] {
        s.options.machine.order = policy;
        let e = s.eval(term).expect("evals").exception.expect("raises");
        assert!(set.contains(&e), "{e} must be in {set}");
        seen.push(e);
    }
    assert!(
        seen.contains(&Exception::DivideByZero)
            && seen.iter().any(|e| matches!(e, Exception::UserError(_))),
        "both representatives should be observable across policies: {seen:?}"
    );
}

#[test]
fn get_exception_performed_twice_makes_independent_choices() {
    // §3.5's beta-reduction example, through the semantic runner: over
    // seeds, (v1, v2) takes all four combinations.
    let mut s = session();
    s.load(
        r#"main = do
  v1 <- getException ((1/0) + error "Urk")
  v2 <- getException ((1/0) + error "Urk")
  return (v1, v2)"#,
    )
    .expect("loads");
    let mut outcomes = std::collections::BTreeSet::new();
    for seed in 0..64 {
        let out = s.run_main_semantic("", seed).expect("runs");
        let urk::IoResult::Done(v) = out.result else {
            panic!("{:?}", out.result)
        };
        outcomes.insert(v);
    }
    assert_eq!(outcomes.len(), 4, "{outcomes:?}");
}

// ----------------------------------------------------------------------
// §4 — loop, and case-switching
// ----------------------------------------------------------------------

#[test]
fn loop_plus_error_denotes_bottom() {
    let mut s = session();
    s.options.denot.fuel = 50_000;
    let set = s
        .exception_set(r#"loop + error "Urk""#)
        .expect("evals")
        .expect("exceptional");
    assert!(set.is_all(), "loop + error denotes ⊥ = all exceptions");
}

#[test]
fn pair_case_switching_denotes_the_same_set() {
    let s = session();
    let lhs = s
        .exception_set(
            "case raise Overflow of { (a, b) ->
               case raise DivideByZero of { (p, q) -> a + p } }",
        )
        .expect("evals")
        .expect("exceptional");
    let rhs = s
        .exception_set(
            "case raise DivideByZero of { (p, q) ->
               case raise Overflow of { (a, b) -> a + p } }",
        )
        .expect("evals")
        .expect("exceptional");
    assert_eq!(lhs, rhs);
    assert!(lhs.contains(&Exception::Overflow));
    assert!(lhs.contains(&Exception::DivideByZero));
}

// ----------------------------------------------------------------------
// §4.4 — uncaught exceptions are reported
// ----------------------------------------------------------------------

#[test]
fn uncaught_exception_from_main_is_reported() {
    let mut s = session();
    s.load(r#"main = putStr (showInt (head []))"#)
        .expect("loads");
    let out = s.run_main("").expect("runs");
    assert!(matches!(
        out.result,
        urk::IoResult::Uncaught(Exception::PatternMatchFail(_))
    ));
}

// ----------------------------------------------------------------------
// §5.1 — asynchronous exceptions
// ----------------------------------------------------------------------

#[test]
fn control_c_reaches_get_exception() {
    let mut s = session();
    s.options.machine.event_schedule = vec![(10_000, Exception::Interrupt)];
    s.load(
        r#"main = do
  v <- getException (sum [1 .. 100000])
  case v of
    OK n          -> putStr "finished"
    Bad Interrupt -> putStr "ControlC"
    Bad e         -> putStr "other""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "ControlC");
}

// ----------------------------------------------------------------------
// §5.2 — detectable bottoms
// ----------------------------------------------------------------------

#[test]
fn black_hole_detection_is_permitted_but_not_required() {
    let mut s = session();
    s.load("black = black + 1").expect("loads");
    // Detecting implementation: NonTermination.
    s.options.machine.blackholes = BlackholeMode::Detect;
    let out = s.eval("black").expect("evals");
    assert_eq!(out.exception, Some(Exception::NonTermination));
    // Non-detecting implementation: spins until a limit.
    s.options.machine.blackholes = BlackholeMode::Loop;
    s.options.machine.max_steps = 5_000;
    assert!(matches!(s.eval("black"), Err(urk::Error::Machine { .. })));
}

// ----------------------------------------------------------------------
// §5.4 — mapException and unsafeIsException
// ----------------------------------------------------------------------

#[test]
fn map_exception_catches_all_and_rewrites() {
    let s = session();
    // The paper's example: raise UserError "Urk" instead of anything else.
    let out = s
        .eval(r#"mapException (\x -> UserError "Urk") (1/0)"#)
        .expect("evals");
    assert_eq!(out.exception, Some(Exception::UserError("Urk".into())));
    // It is pure: no IO monad involved, and normal values untouched.
    assert_eq!(
        s.eval(r#"1 + mapException (\x -> UserError "Urk") 41"#)
            .expect("evals")
            .rendered,
        "42"
    );
}

#[test]
fn unsafe_is_exception_on_div_plus_loop() {
    // §5.4's isException ((1/0) + loop): True one way, divergent the other.
    let mut s = session();
    s.options.machine.blackholes = BlackholeMode::Loop;
    s.options.machine.max_steps = 200_000;
    s.options.machine.order = OrderPolicy::LeftToRight;
    let src = "let infy = infy in unsafeIsException ((1/0) + infy)";
    assert_eq!(s.eval(src).expect("terminates").rendered, "True");
    s.options.machine.order = OrderPolicy::RightToLeft;
    assert!(matches!(s.eval(src), Err(urk::Error::Machine { .. })));
}

// ----------------------------------------------------------------------
// §6 — raising without the IO monad, handling near the top
// ----------------------------------------------------------------------

#[test]
fn raising_needs_no_io_and_handling_sits_at_the_top() {
    let mut s = session();
    s.load(
        r#"validate n = if n < 0 then error "negative" else n
total xs = sum (map validate xs)
main = do
  v <- getException (total [1, 2, 0 - 3])
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "rejected""#,
    )
    .expect("loads");
    let out = s.run_main("").expect("runs");
    assert_eq!(out.trace.output(), "rejected");
}
