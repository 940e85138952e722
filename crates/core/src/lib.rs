//! # urk — imprecise exceptions for a lazy language
//!
//! A production-quality reproduction of **"A Semantics for Imprecise
//! Exceptions"** (Peyton Jones, Reid, Hoare, Marlow, Henderson — PLDI
//! 1999), built around a small lazy functional language called **Urk**
//! (after the paper's favourite error message).
//!
//! The paper's design, all of it executable here:
//!
//! * exceptions are **values**: `raise :: Exception -> a` makes every type
//!   contain exceptional values (§3.1);
//! * an exceptional value denotes a **set** of exceptions, so the rich
//!   transformation algebra of a lazy language survives (§3.4, §4);
//! * `getException :: a -> IO (ExVal a)` confines the choice of a single
//!   representative to the IO monad (§3.5);
//! * the implementation is the classic **stack-trimming** machine (§3.3),
//!   with asynchronous exceptions (§5.1), detectable black holes (§5.2),
//!   and `mapException`/`unsafeIsException` (§5.4).
//!
//! # Quick start
//!
//! ```
//! use urk::Session;
//!
//! let mut session = Session::new(); // Prelude loaded
//! session.load("half n = 100 / n")?;
//!
//! // Ordinary evaluation on the graph-reduction machine:
//! assert_eq!(session.eval("half 4")?.rendered, "25");
//!
//! // The paper's headline: the *denotation* carries both exceptions …
//! let set = session
//!     .exception_set(r#"(1/0) + error "Urk""#)?
//!     .expect("exceptional");
//! assert!(set.contains(&urk::Exception::DivideByZero));
//! assert!(set.contains(&urk::Exception::UserError("Urk".into())));
//!
//! // … while the machine reports the representative it met first:
//! let out = session.eval(r#"(1/0) + error "Urk""#)?;
//! assert_eq!(out.exception, Some(urk::Exception::DivideByZero));
//! # Ok::<(), urk::Error>(())
//! ```
//!
//! # Crate map
//!
//! | layer | crate |
//! |---|---|
//! | syntax, desugaring, match compiler | `urk-syntax` |
//! | Hindley–Milner types | `urk-types` |
//! | denotational semantics (+ rejected baselines) | `urk-denot` |
//! | graph-reduction machine | `urk-machine` |
//! | IO transition system | `urk-io` |
//! | exception-effect and demand analysis, lint | `urk-analysis` |
//! | transformations, law validator | `urk-transform` |

pub mod cache;
pub mod error;
pub mod pool;
pub mod serve;
pub mod session;
pub mod soak;
pub mod supervise;

pub use cache::{cache_key, CacheKey, CacheStats, CachedEval, ResultCache};
pub use error::Error;
pub use pool::{EvalPool, JobLimits, JobOutcome, JobResult, PoolConfig, PoolError, SubmitError};
pub use serve::{Client, RemoteOutcome, ServeConfig, ServeError, Server};
pub use session::{tier2_facts_for, EvalResult, Options, Session};
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use supervise::{SupervisedResult, Supervisor};

// The vocabulary users need, re-exported.
pub use urk_analysis::{analyze_program, Analysis, Diagnostic, Effect, LintCode};
pub use urk_denot::{Denot, DenotConfig, ExnSet, Verdict};
pub use urk_io::ChaosReport;
pub use urk_io::{Event, IoResult, RunOutcome, ThreadResult, Trace};
pub use urk_machine::{
    tier2_optimize, Backend, BlackholeMode, Code, FaultPlan, InterruptHandle, MachineConfig,
    MachineError, OrderPolicy, Stats, Tier, Tier2Facts,
};
pub use urk_syntax::Exception;
pub use urk_transform::{classify_all, render_table, LawReport};

/// The Prelude source, embedded at build time.
pub fn prelude_source() -> &'static str {
    include_str!("../prelude.urk")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_loads_the_prelude_and_evaluates() {
        let s = Session::new();
        assert_eq!(s.eval("sum [1 .. 10]").expect("evals").rendered, "55");
        assert_eq!(
            s.eval("map (\\x -> x * x) [1, 2, 3]")
                .expect("evals")
                .rendered,
            "Cons 1 (Cons 4 (Cons 9 Nil))"
        );
        assert_eq!(
            s.eval("sort [3, 1, 2]").expect("evals").rendered,
            "Cons 1 (Cons 2 (Cons 3 Nil))"
        );
    }

    #[test]
    fn prelude_error_is_the_paper_definition() {
        let s = Session::new();
        let out = s.eval(r#"error "Urk""#).expect("evals");
        assert_eq!(out.exception, Some(Exception::UserError("Urk".into())));
    }

    #[test]
    fn headline_denotation_and_machine_choice() {
        let s = Session::new();
        let set = s
            .exception_set(r#"(1/0) + error "Urk""#)
            .expect("evals")
            .expect("exceptional");
        assert!(set.contains(&Exception::DivideByZero));
        assert!(set.contains(&Exception::UserError("Urk".into())));
        let out = s.eval(r#"(1/0) + error "Urk""#).expect("evals");
        assert!(matches!(
            out.exception,
            Some(ref e) if set.contains(e)
        ));
    }

    #[test]
    fn zipwith_examples_from_section_3_2() {
        let s = Session::new();
        assert_eq!(
            s.eval("zipWith (+) [] [1]").expect("evals").rendered,
            "(raise UserError \"Unequal lists\")"
        );
        assert_eq!(
            s.eval("zipWith (/) [1, 2] [1, 0]").expect("evals").rendered,
            "Cons 1 (Cons (raise DivideByZero) Nil)"
        );
        // §3.2: forcing the whole structure flushes the exception out.
        let forced = s
            .eval("forceList (zipWith (/) [1, 2] [1, 0])")
            .expect("evals");
        assert_eq!(forced.exception, Some(Exception::DivideByZero));
    }

    #[test]
    fn loop_from_the_prelude_is_bottom() {
        let mut s = Session::new();
        s.options.denot.fuel = 50_000;
        let set = s.exception_set("loop").expect("evals").expect("bottom");
        assert!(set.is_all());
    }

    #[test]
    fn type_queries_work() {
        let s = Session::new();
        assert_eq!(s.type_of("map").expect("types"), "(a -> b) -> [a] -> [b]");
        assert_eq!(
            s.type_of("getException (head [1])").expect("types"),
            "IO (ExVal Int)"
        );
        assert_eq!(
            s.type_of_binding("zipWith").expect("bound"),
            "(a -> b -> c) -> [a] -> [b] -> [c]"
        );
    }

    #[test]
    fn run_main_machine_and_semantic() {
        let mut s = Session::new();
        s.load("main = do\n  c <- getChar\n  putChar c\n  putStr \"!\"\n  return 7")
            .expect("loads");
        let out = s.run_main("q").expect("runs");
        assert!(matches!(out.result, urk_io::IoResult::Done(ref v) if v == "7"));
        assert_eq!(out.trace.output(), "q!");

        let sem = s.run_main_semantic("q", 0).expect("runs");
        assert!(matches!(sem.result, IoResult::Done(ref v) if v == "7"));
        assert_eq!(sem.trace.output(), "q!");
    }

    #[test]
    fn duplicate_definitions_are_rejected_across_loads() {
        let mut s = Session::new();
        s.load("f x = x").expect("loads");
        let err = s.load("f x = x + 1").expect_err("duplicate");
        assert!(matches!(err, Error::DuplicateDefinition(_)));
        // Redefining a Prelude name is also rejected.
        let err2 = s.load("map f xs = xs").expect_err("duplicate");
        assert!(matches!(err2, Error::DuplicateDefinition(_)));
    }

    #[test]
    fn type_errors_are_reported_on_load_and_eval() {
        let mut s = Session::new();
        assert!(matches!(
            s.load("bad = 1 + 'c'").expect_err("ill-typed"),
            Error::Type(_)
        ));
        assert!(matches!(
            s.eval("head 3").expect_err("ill-typed"),
            Error::Type(_)
        ));
    }

    #[test]
    fn demand_of_prelude_functions() {
        let s = Session::new();
        let analysis = s.analyze();
        let sig = |n: &str| {
            analysis
                .summary(urk_syntax::Symbol::intern(n))
                .expect("summary")
                .demands
                .clone()
        };
        // length demands its list; const is lazy in its second arg.
        assert_eq!(sig("length"), vec![true]);
        assert_eq!(sig("const"), vec![true, false]);
        // sum demands the list through foldl's recursive accumulator.
        assert_eq!(sig("sum"), vec![true]);
    }

    #[test]
    fn law_tables_are_exported_through_the_facade() {
        let reports = classify_all();
        assert!(reports.len() >= 14);
        let table = render_table(&reports);
        assert!(table.contains("plus-commute-exceptional"));
    }

    #[test]
    fn lazy_infinite_structures_work_through_the_prelude() {
        let s = Session::new();
        assert_eq!(
            s.eval("take 5 (iterate (\\x -> x * 2) 1)")
                .expect("evals")
                .rendered,
            "Cons 1 (Cons 2 (Cons 4 (Cons 8 (Cons 16 Nil))))"
        );
        assert_eq!(s.eval("head (repeat 9)").expect("evals").rendered, "9");
    }

    #[test]
    fn options_control_the_machine_policy() {
        let mut s = Session::new();
        s.options.machine.order = OrderPolicy::RightToLeft;
        let out = s.eval(r#"(1/0) + error "Urk""#).expect("evals");
        assert_eq!(out.exception, Some(Exception::UserError("Urk".into())));
    }

    #[test]
    fn optimizer_preserves_prelude_behaviour() {
        let mut s = Session::new();
        s.load("quad x = double (double x)\ndouble x = x + x")
            .expect("loads");
        let before = s.eval("quad 10 + sum [1 .. 20]").expect("evals").rendered;
        let report = s.optimize().expect("optimizes and re-typechecks");
        assert!(report.total_rewrites() > 0);
        let after = s.eval("quad 10 + sum [1 .. 20]").expect("evals").rendered;
        assert_eq!(before, after);
    }

    #[test]
    fn validated_optimization_reports_verdicts() {
        let mut s = Session::new();
        s.load("risky n = (\\u -> u + u) (100 / n)").expect("loads");
        let report = s
            .optimize_validated(&["risky 5", "risky 0", "zipWith (+) [] [1]"])
            .expect("optimizes");
        assert_eq!(report.validation.len(), 3);
        assert!(report.validated(), "{:?}", report.validation);
    }

    #[test]
    fn unsafe_get_exception_is_pure_and_policy_dependent() {
        // §6: a pure getException would break referential transparency
        // across "recompilations" — demonstrate exactly that.
        let mut s = Session::new();
        let src = r#"case unsafeGetException ((1/0) + error "Urk") of
                       { OK v -> "ok" ; Bad DivideByZero -> "div" ; Bad e -> "urk" }"#;
        assert_eq!(s.type_of(src).expect("types"), "Str");
        assert_eq!(s.eval(src).expect("evals").rendered, "\"div\"");
        s.options.machine.order = OrderPolicy::RightToLeft;
        assert_eq!(s.eval(src).expect("evals").rendered, "\"urk\"");
        // The denotational evaluator's deterministic choice is the least
        // member — one fixed resolution of the obligation.
        assert_eq!(s.denot_show(src, 4).expect("evals"), "\"div\"");
    }

    #[test]
    fn match_warnings_flag_partial_functions() {
        let mut s = Session::new();
        s.load("total b = case b of { True -> 1; False -> 2 }\npartial (Just x) = x")
            .expect("loads");
        let w = s.match_warnings();
        // Prelude partial functions and the new one appear; the total
        // function does not.
        assert!(w.contains(&"head".to_string()), "{w:?}");
        assert!(w.contains(&"tail".to_string()));
        // zipWith is *total by equations* (its third clause catches
        // everything), so it does not warn.
        assert!(!w.contains(&"zipWith".to_string()));
        assert!(w.contains(&"partial".to_string()));
        assert!(!w.contains(&"total".to_string()));
    }

    #[test]
    fn run_action_performs_named_io_bindings() {
        let mut s = Session::new();
        s.load(r#"greet = putStr "hi" >> return 1"#).expect("loads");
        let out = s.run_action("greet", "").expect("runs");
        assert_eq!(out.trace.output(), "hi");
        assert!(matches!(
            s.run_action("nope", ""),
            Err(Error::MissingBinding(_))
        ));
    }

    #[test]
    fn get_exception_wraps_function_values_too() {
        // §3.5: getException evaluates to WHNF only; a lambda is a normal
        // value even when *applying* it would raise.
        let mut s = Session::new();
        s.load(
            r#"bomb = 1 / 0
mkf = \x -> x + bomb
main = do
  v <- getException mkf
  case v of
    OK f  -> putStr "caught a function"
    Bad e -> putStr "exception""#,
        )
        .expect("loads");
        let out = s.run_main("").expect("runs");
        assert_eq!(out.trace.output(), "caught a function");
    }

    #[test]
    fn bare_sessions_have_no_prelude() {
        let s = Session::bare();
        assert!(s.eval("sum [1]").is_err());
        assert_eq!(s.eval("1 + 1").expect("evals").rendered, "2");
    }
}
