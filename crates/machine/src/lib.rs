//! # urk-machine
//!
//! The operational side of the PLDI 1999 reproduction: a lazy
//! graph-reduction machine implementing imprecise exceptions with the
//! paper's §3.3 strategy — catch marks on the evaluation stack, `raise` as
//! stack trimming, in-flight thunks poisoned with `raise ex` (synchronous)
//! or restored resumably (asynchronous, §5.1), and black holes as
//! detectable bottoms (§5.2).
//!
//! The machine's *evaluation-order policy* for primitives plays the role
//! of the paper's optimiser: different policies surface different members
//! of the (fixed) denotational exception set (§3.5).
//!
//! The machine runs one kind of code: a program lowered to a flat
//! [`Code`] image ([`compile_program`], optionally through the tier-2
//! pass), linked into the machine with [`Machine::link_code`]; queries
//! lower into the machine's extension as they are evaluated.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
//! use urk_syntax::{parse_expr_src, desugar_expr, DataEnv, Exception};
//!
//! let data = DataEnv::new();
//! let e = desugar_expr(&parse_expr_src("(1/0) + 2")?, &data)?;
//! let mut m = Machine::new(MachineConfig::default());
//! m.link_code(Arc::new(compile_program(&[])));
//! // Evaluate under a catch mark, as getException would:
//! match m.eval_code_expr(&e, true).expect("no machine error") {
//!     Outcome::Caught(exn) => assert_eq!(exn, Exception::DivideByZero),
//!     other => panic!("expected a caught exception, got {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod chaos;
pub mod code;
pub mod compiled;
pub mod coverage;
pub mod env;
pub mod gc;
pub mod heap;
pub mod interrupt;
mod kernel;
pub mod machine;
mod region;
pub mod stats;
pub mod tier2;
pub mod validate;

pub use chaos::FaultPlan;
pub use code::{compile_program, Code, CodeVerifyError};
pub use coverage::{OpCoverage, OPERAND_CLASSES, OP_KINDS, PRIM_OPS};
pub use env::CEnv;
pub use heap::{
    AuditFinding, Fields, HValue, Heap, HeapAudit, MinorOutcome, Node, NodeId, Whnf,
    MAX_AUDIT_FINDINGS,
};
pub use interrupt::InterruptHandle;
pub use machine::{
    Backend, BlackholeMode, Machine, MachineBuffers, MachineConfig, MachineError, OrderPolicy,
    Outcome, Tier,
};
#[doc(hidden)]
pub use region::{region_differential, RegionDiff};
pub use stats::{Counter, Kind, Stats};
pub use tier2::{
    tier2_optimize, tier2_optimize_certified, CertEntry, CertKind, FactVal, GlobalFact, Tier2Cert,
    Tier2Facts,
};
pub use validate::{validate_tier2, ValidationError, ValidationReport};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use urk_syntax::core::Expr;
    use urk_syntax::Exception;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    fn core_of(src: &str) -> Expr {
        let data = DataEnv::new();
        desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars")
    }

    /// A machine with an empty program linked, ready for closed queries.
    fn machine(config: MachineConfig) -> Machine {
        let mut m = Machine::new(config);
        m.link_code(Arc::new(compile_program(&[])));
        m
    }

    fn eval_with(config: MachineConfig, src: &str, catch: bool) -> (Machine, Outcome) {
        let mut m = machine(config);
        let out = m
            .eval_code_expr(&core_of(src), catch)
            .expect("no machine error");
        (m, out)
    }

    fn render(src: &str) -> String {
        let (mut m, out) = eval_with(MachineConfig::default(), src, false);
        m.render_outcome(&out, 16)
    }

    fn caught(src: &str) -> Exception {
        let (_, out) = eval_with(MachineConfig::default(), src, true);
        match out {
            Outcome::Caught(e) => e,
            other => panic!("expected a caught exception, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Plain evaluation
    // ------------------------------------------------------------------

    #[test]
    fn arithmetic_and_structures() {
        assert_eq!(render("1 + 2 * 3"), "7");
        assert_eq!(render("[1, 2]"), "Cons 1 (Cons 2 Nil)");
        assert_eq!(render("(1, 'a')"), "Pair 1 'a'");
        assert_eq!(render(r#"strAppend "ab" "cd""#), "\"abcd\"");
        assert_eq!(render("if 1 < 2 then 10 else 20"), "10");
    }

    #[test]
    fn laziness_discards_exceptional_arguments() {
        // (\x -> 3)(1/0) = 3 — call-by-need never forces x.
        assert_eq!(render(r"(\x -> 3) (1/0)"), "3");
        assert_eq!(render("let x = 1/0 in 42"), "42");
    }

    #[test]
    fn sharing_evaluates_shared_thunks_once() {
        // let x = <expensive> in x + x should update the thunk once.
        let (m, out) = eval_with(MachineConfig::default(), "let x = 10 * 10 in x + x", false);
        assert!(matches!(out, Outcome::Value(_)));
        assert_eq!(m.stats().thunk_updates, 1);
    }

    #[test]
    fn recursion_through_letrec() {
        assert_eq!(
            render("let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10"),
            "3628800"
        );
    }

    #[test]
    fn programs_bind_as_a_recursive_group() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program(
                "zipWith f [] [] = []\n\
                 zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
                 zipWith f xs ys = raise (UserError \"Unequal lists\")",
            )
            .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&prog.binds)));
        let e = desugar_expr(
            &parse_expr_src("zipWith (/) [1, 2] [1, 0]").expect("parses"),
            &data,
        )
        .expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        let Outcome::Value(n) = out else {
            panic!("spine is defined")
        };
        assert_eq!(m.render(n, 16), "Cons 1 (Cons (raise DivideByZero) Nil)");
    }

    // ------------------------------------------------------------------
    // §3.3: raise = stack trimming; catch marks; poisoning
    // ------------------------------------------------------------------

    #[test]
    fn uncaught_exceptions_are_reported() {
        let (_, out) = eval_with(MachineConfig::default(), "1/0", false);
        assert!(matches!(out, Outcome::Uncaught(Exception::DivideByZero)));
    }

    #[test]
    fn catch_mark_stops_the_trim() {
        assert_eq!(caught("1 + (2 * (3 - (1/0)))"), Exception::DivideByZero);
        assert_eq!(
            caught(r#"raise (UserError "Urk")"#),
            Exception::UserError("Urk".into())
        );
    }

    #[test]
    fn trimming_poisons_in_flight_thunks() {
        // Force a shared exceptional thunk twice: the second force must
        // re-raise the same exception without re-evaluating.
        let mut m = machine(MachineConfig::default());
        let t = m.alloc_code_thunk(&Expr::div(Expr::int(1), Expr::int(0)));
        let first = m.eval_node(t, true).expect("no machine error");
        assert!(matches!(first, Outcome::Caught(Exception::DivideByZero)));
        assert_eq!(m.stats().thunks_poisoned, 1);
        let steps_before = m.stats().steps;
        let second = m.eval_node(t, true).expect("no machine error");
        assert!(matches!(second, Outcome::Caught(Exception::DivideByZero)));
        assert!(
            m.stats().steps - steps_before <= 4,
            "poisoned thunk must re-raise without re-evaluation"
        );
    }

    #[test]
    fn no_exception_program_touches_no_exception_machinery() {
        let (m, out) = eval_with(
            MachineConfig::default(),
            "let f = \\n -> if n == 0 then 0 else n + f (n - 1) in f 100",
            false,
        );
        assert!(matches!(out, Outcome::Value(_)));
        assert_eq!(m.stats().thunks_poisoned, 0);
        assert_eq!(m.stats().frames_trimmed, 0);
        assert_eq!(m.stats().blackholes_detected, 0);
    }

    // ------------------------------------------------------------------
    // §3.5: evaluation order is a policy; the denotation is not
    // ------------------------------------------------------------------

    #[test]
    fn order_policy_selects_the_representative_exception() {
        let src = r#"(1/0) + raise (UserError "Urk")"#;
        let l2r = MachineConfig {
            order: OrderPolicy::LeftToRight,
            ..MachineConfig::default()
        };
        let r2l = MachineConfig {
            order: OrderPolicy::RightToLeft,
            ..MachineConfig::default()
        };
        let (_, a) = eval_with(l2r, src, true);
        let (_, b) = eval_with(r2l, src, true);
        assert!(matches!(a, Outcome::Caught(Exception::DivideByZero)));
        assert!(matches!(b, Outcome::Caught(Exception::UserError(_))));
    }

    #[test]
    fn seeded_order_is_deterministic_per_seed() {
        let src = r#"(1/0) + raise (UserError "Urk")"#;
        let run = |seed| {
            let (_, out) = eval_with(
                MachineConfig {
                    order: OrderPolicy::Seeded(seed),
                    ..MachineConfig::default()
                },
                src,
                true,
            );
            match out {
                Outcome::Caught(e) => e,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(run(7), run(7));
        // Some pair of seeds should disagree; sweep a few.
        let exceptions: std::collections::BTreeSet<_> =
            (0..16).map(run).map(|e| e.to_string()).collect();
        assert_eq!(exceptions.len(), 2, "both representatives should occur");
    }

    #[test]
    fn value_results_are_order_independent() {
        for policy in [
            OrderPolicy::LeftToRight,
            OrderPolicy::RightToLeft,
            OrderPolicy::Seeded(3),
        ] {
            let (_, out) = eval_with(
                MachineConfig {
                    order: policy,
                    ..MachineConfig::default()
                },
                "(2 + 3) * (4 - 1)",
                false,
            );
            let Outcome::Value(n) = out else { panic!() };
            let _ = n;
        }
    }

    // ------------------------------------------------------------------
    // §5.2: detectable bottoms
    // ------------------------------------------------------------------

    #[test]
    fn black_hole_detection_raises_nontermination() {
        let (m, out) = eval_with(
            MachineConfig::default(),
            "let black = black + 1 in black",
            true,
        );
        assert!(matches!(out, Outcome::Caught(Exception::NonTermination)));
        assert!(m.stats().blackholes_detected >= 1);
    }

    #[test]
    fn black_hole_loop_mode_spins_to_the_step_limit() {
        let mut m = machine(MachineConfig {
            blackholes: BlackholeMode::Loop,
            max_steps: 5_000,
            ..MachineConfig::default()
        });
        let r = m.eval_code_expr(&core_of("let black = black + 1 in black"), true);
        assert_eq!(r.expect_err("should spin"), MachineError::StepLimit);
    }

    // ------------------------------------------------------------------
    // §5.1: asynchronous exceptions
    // ------------------------------------------------------------------

    fn slow_expr() -> Expr {
        core_of("let f = \\n -> if n == 0 then 42 else f (n - 1) in f 100000")
    }

    #[test]
    fn interrupts_are_delivered_and_thunks_are_resumable() {
        let mut m = machine(MachineConfig {
            event_schedule: vec![(1_000, Exception::Interrupt)],
            ..MachineConfig::default()
        });
        // Make the computation a shared heap node so we can resume it.
        let work = m.alloc_code_thunk(&slow_expr());
        let first = m.eval_node(work, true).expect("no machine error");
        assert!(matches!(first, Outcome::Caught(Exception::Interrupt)));
        assert!(m.stats().thunks_restored >= 1, "{:?}", m.stats());
        assert_eq!(m.stats().thunks_poisoned, 0);
        // The schedule is exhausted; evaluation resumes and completes.
        let second = m.eval_node(work, true).expect("no machine error");
        let Outcome::Value(n) = second else {
            panic!("resumed evaluation should complete, got {second:?}")
        };
        assert_eq!(m.render(n, 4), "42");
    }

    #[test]
    fn timeout_on_step_limit_is_an_asynchronous_exception() {
        let mut m = machine(MachineConfig {
            max_steps: 2_000,
            timeout_on_step_limit: true,
            ..MachineConfig::default()
        });
        let out = m
            .eval_code_expr(&slow_expr(), true)
            .expect("timeout is delivered as an exception");
        assert!(matches!(out, Outcome::Caught(Exception::Timeout)));
    }

    #[test]
    fn stack_exhaustion_raises_stack_overflow() {
        // Non-tail recursion grows the evaluation stack.
        let (_, out) = eval_with(
            MachineConfig {
                max_stack: 500,
                ..MachineConfig::default()
            },
            "let f = \\n -> 1 + f (n + 1) in f 0",
            true,
        );
        assert!(matches!(out, Outcome::Caught(Exception::StackOverflow)));
    }

    #[test]
    fn heap_exhaustion_raises_heap_overflow() {
        let (_, out) = eval_with(
            MachineConfig {
                max_heap: 2_000,
                ..MachineConfig::default()
            },
            "let f = \\n -> n : f (n + 1) in let len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys } in len (f 0)",
            true,
        );
        assert!(matches!(out, Outcome::Caught(Exception::HeapOverflow)));
    }

    #[test]
    fn uncaught_async_exception_aborts_the_program() {
        let mut m = machine(MachineConfig {
            event_schedule: vec![(500, Exception::Interrupt)],
            ..MachineConfig::default()
        });
        let out = m
            .eval_code_expr(&slow_expr(), false)
            .expect("no machine error");
        assert!(matches!(out, Outcome::Uncaught(Exception::Interrupt)));
    }

    #[test]
    fn async_delivery_at_every_step_of_a_protected_episode_is_caught() {
        // Regression (found by `urk fuzz`): the catch mark used to be
        // popped one step before the episode returned, so an asynchronous
        // exception delivered on that exact step escaped as `Uncaught`
        // from a catch=true episode. Sweep the delivery point across every
        // step of a small run: the only legal outcomes are the value or
        // `Caught(Interrupt)`.
        let src = "seq ((\\x -> x) (19 / 28)) (case Just 3 of { Just v -> 21 })";
        for at in 1..=64u64 {
            let (m, out) = eval_with(
                MachineConfig {
                    event_schedule: vec![(at, Exception::Interrupt)],
                    ..MachineConfig::default()
                },
                src,
                true,
            );
            match out {
                // A value means the episode finished before the delivery
                // point (the event is still pending, so rendering would
                // absorb it — don't).
                Outcome::Value(_) => assert!(
                    m.stats().steps < at,
                    "episode returned a value past the delivery at step {at}"
                ),
                Outcome::Caught(Exception::Interrupt) => {}
                other => panic!("delivery at step {at} produced {other:?}"),
            }
        }
    }

    // ------------------------------------------------------------------
    // §5.4: mapException and unsafeIsException, operationally
    // ------------------------------------------------------------------

    #[test]
    fn map_exception_rewrites_the_representative() {
        assert_eq!(
            caught(r#"mapException (\x -> UserError "Urk") (1/0)"#),
            Exception::UserError("Urk".into())
        );
        // Normal values pass through untouched.
        assert_eq!(render(r#"mapException (\x -> UserError "Urk") 42"#), "42");
    }

    #[test]
    fn map_exception_does_not_catch_async() {
        let (_, out) = eval_with(
            MachineConfig {
                event_schedule: vec![(1_000, Exception::Interrupt)],
                ..MachineConfig::default()
            },
            r#"mapException (\x -> UserError "remapped")
                 (let f = \n -> if n == 0 then 1 else f (n - 1) in f 100000)"#,
            true,
        );
        assert!(
            matches!(out, Outcome::Caught(Exception::Interrupt)),
            "async exceptions pass through mapException: {out:?}"
        );
    }

    #[test]
    fn unsafe_is_exception_observes_evaluation() {
        assert_eq!(render("unsafeIsException (1/0)"), "True");
        assert_eq!(render("unsafeIsException 3"), "False");
    }

    #[test]
    fn unsafe_is_exception_order_gap_from_section_5_4() {
        // isException ((1/0) + loop): left-to-right finds DivideByZero and
        // answers True; right-to-left dives into the loop and diverges.
        // (BlackholeMode::Loop models an implementation without detectable
        // bottoms.)
        let src = "let loop = loop in unsafeIsException ((1/0) + loop)";
        let mut l2r = machine(MachineConfig {
            order: OrderPolicy::LeftToRight,
            blackholes: BlackholeMode::Loop,
            max_steps: 20_000,
            ..MachineConfig::default()
        });
        let out = l2r
            .eval_code_expr(&core_of(src), false)
            .expect("terminates");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(l2r.render(n, 2), "True");

        let mut r2l = machine(MachineConfig {
            order: OrderPolicy::RightToLeft,
            blackholes: BlackholeMode::Loop,
            max_steps: 20_000,
            ..MachineConfig::default()
        });
        let r = r2l.eval_code_expr(&core_of(src), false);
        assert_eq!(r.expect_err("diverges"), MachineError::StepLimit);
    }

    // ------------------------------------------------------------------
    // Pattern-match failures from compiled matches
    // ------------------------------------------------------------------

    #[test]
    fn missing_case_raises_pattern_match_fail() {
        let e = caught("case Nothing of { Just n -> n }");
        assert!(matches!(e, Exception::PatternMatchFail(_)));
    }

    #[test]
    fn raise_with_exceptional_payload_propagates_payload_exception() {
        // raise (UserError (showInt (1/0))): forcing the payload raises
        // DivideByZero, which replaces the UserError.
        assert_eq!(
            caught("raise (UserError (showInt (1/0)))"),
            Exception::DivideByZero
        );
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    #[test]
    fn gc_reclaims_garbage_and_preserves_results() {
        // A loop that churns: each iteration allocates list cells that die
        // immediately. With a low threshold the collector must run, the
        // arena must stay bounded, and the answer must be right.
        let src = "let { len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys }
                       ; mk = \\n -> if n == 0 then [] else n : mk (n - 1)
                       ; go = \\i acc -> if i == 0 then acc
                                         else go (i - 1) (acc + len (mk 50)) }
                   in go 200 0";
        let (mut m, out) = eval_with(
            MachineConfig {
                gc_threshold: 20_000,
                ..MachineConfig::default()
            },
            src,
            false,
        );
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(m.render(n, 4), "10000");
        assert!(
            m.stats().gc_runs >= 1,
            "collector should have run: {:?}",
            m.stats()
        );
        assert!(m.stats().gc_freed > 0);
        assert!(
            m.heap().len() < 60_000,
            "arena should stay bounded, got {} nodes",
            m.heap().len()
        );
        // Cells were recycled: total allocations far exceed the arena that
        // remains, because churned list cells died in the nursery (minor
        // collections dropped them without ever tenuring them).
        let churned = m.heap().len();
        assert!(
            m.stats().allocations as usize > churned,
            "allocations={} should exceed the remaining arena {churned}",
            m.stats().allocations,
        );
        assert!(
            m.stats().minor_gcs >= 1,
            "nursery collections should have run: {:?}",
            m.stats()
        );
        assert!(
            m.stats().nodes_promoted > 0,
            "live survivors should have been tenured: {:?}",
            m.stats()
        );
    }

    #[test]
    fn unboxed_values_are_shared_across_evaluations_and_survive_gc() {
        let mut m = machine(MachineConfig::default());
        let a = m
            .eval_code_expr(&core_of("1 + 2"), false)
            .expect("no machine error");
        let b = m
            .eval_code_expr(&core_of("5 - 2"), false)
            .expect("no machine error");
        let (Outcome::Value(a), Outcome::Value(b)) = (a, b) else {
            panic!("expected values")
        };
        // Both results are the same tagged immediate word for 3 — no heap
        // cell at all.
        assert_eq!(a, b, "small-int results should be the same tagged word");
        assert_eq!(a, NodeId::imm_int(3).unwrap());
        assert!(m.stats().unboxed_hits >= 2, "{:?}", m.stats());
        // A full collection cannot touch an immediate (it has no cell):
        // the id stays valid for the embedder.
        m.collect_with(&[]);
        assert_eq!(m.render(a, 4), "3");
        let t = m
            .eval_code_expr(&core_of("1 == 1"), false)
            .expect("no machine error");
        let Outcome::Value(t) = t else {
            panic!("expected a value")
        };
        assert_eq!(m.render(t, 4), "True");
    }

    #[test]
    fn unboxed_literals_are_not_heap_allocations() {
        // Small integers and nullary constructors live in the tagged id
        // word itself: a fresh machine has an *empty* heap (the PR 1
        // intern pool is gone), and arithmetic over small ints produces an
        // immediate result, not a cell.
        let mut m = machine(MachineConfig::default());
        assert_eq!(m.heap().len(), 0);
        assert_eq!(m.stats().allocations, 0);
        let out = m
            .eval_code_expr(&core_of("(1 + 2) * 4"), false)
            .expect("no machine error");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(n, NodeId::imm_int(12).unwrap());
        assert!(m.stats().unboxed_hits >= 1, "{:?}", m.stats());
    }

    #[test]
    fn free_list_reuse_keeps_the_arena_at_its_high_water_mark() {
        // Two identical churn-heavy runs: the second one's promotions are
        // served from the free list, so the tenured arena must not grow
        // between them. The tiny nursery forces minor collections (and
        // promotions) that the default sizing would absorb entirely.
        let src = "let { mk = \\n -> if n == 0 then [] else n : mk (n - 1)
                       ; len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys } }
                   in len (mk 400)";
        let mut m = machine(MachineConfig {
            gc_threshold: 2_000,
            nursery_size: 256,
            ..MachineConfig::default()
        });
        let run = |m: &mut Machine| {
            let out = m
                .eval_code_expr(&core_of(src), false)
                .expect("no machine error");
            let Outcome::Value(n) = out else {
                panic!("{out:?}")
            };
            assert_eq!(m.render(n, 4), "400");
        };
        run(&mut m);
        m.collect_with(&[]);
        let high_water = m.heap().tenured_len();
        let reuses_before = m.stats().freelist_reuses;
        run(&mut m);
        assert_eq!(
            m.heap().tenured_len(),
            high_water,
            "the second run's promotions should be served from the free list"
        );
        assert!(m.stats().freelist_reuses > reuses_before, "{:?}", m.stats());
    }

    #[test]
    fn gc_keeps_rooted_program_environments_alive() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("double x = x + x\nten = double 5").expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let mut m = Machine::new(MachineConfig {
            gc_threshold: 1_000,
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&prog.binds)));
        // Churn to force collections, then use the program again.
        let churn = core_of("let f = \\n -> if n == 0 then 0 else f (n - 1) in f 20000");
        let _ = m.eval_code_expr(&churn, false).expect("ok");
        assert!(m.stats().gc_runs >= 1);
        let e = desugar_expr(&parse_expr_src("ten + double 100").expect("parses"), &data)
            .expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("ok");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(m.render(n, 4), "210");
    }

    #[test]
    fn gc_can_be_disabled() {
        let (m, out) = eval_with(
            MachineConfig {
                gc: false,
                gc_threshold: 100,
                ..MachineConfig::default()
            },
            "let f = \\n -> if n == 0 then 7 else f (n - 1) in f 5000",
            false,
        );
        assert!(matches!(out, Outcome::Value(_)));
        assert_eq!(m.stats().gc_runs, 0);
    }

    #[test]
    fn stats_track_allocation_and_stack() {
        let (m, _) = eval_with(
            MachineConfig::default(),
            "let len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys } in 1 + len [1, 2, 3]",
            false,
        );
        assert!(m.stats().allocations > 0);
        assert!(m.stats().max_stack_depth >= 2);
        let mut m2 = Machine::new(MachineConfig::default());
        m2.reset_stats();
        assert_eq!(m2.stats().steps, 0);
    }
}
