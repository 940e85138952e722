//! # urk-io
//!
//! The IO layer of the PLDI 1999 reproduction — §4.4's two-level design
//! made executable twice over:
//!
//! * [`run_machine`] performs `IO` actions on the graph-reduction machine,
//!   where `getException` is the §3.3 catch-mark/stack-trim implementation
//!   and the chosen exception is "the one encountered first";
//! * [`run_denot`] performs the same actions as a labelled transition
//!   system over *denotations*, where `getException (Bad s)` picks a
//!   member of the set through an explicit [`ExceptionOracle`] — including
//!   the `NonTermination` self-loop and §5.3's fictitious exceptions for
//!   `⊥`.
//!
//! Together they witness the paper's central confinement claim: all the
//! non-determinism lives in the IO layer, and the machine's behaviour is
//! one of the semantic runner's possible behaviours.

pub mod batch;
pub mod chaos;
pub mod concurrent;
pub mod denot_run;
pub mod json;
pub mod machine_run;
pub mod oracle;
pub mod trace;
pub mod wire;

pub use batch::{BatchOutcome, SharedBatch};
pub use chaos::{chaos_run, chaos_run_with_plan, ChaosReport};
pub use concurrent::{run_concurrent, ConcurrentOutcome, ThreadResult};
pub use denot_run::{run_denot, AsyncSchedule, SemIoResult, SemRunOutcome};
pub use json::{parse_json, Json, JsonError};
pub use machine_run::{run_machine, run_machine_node, IoResult, RunOutcome};
pub use oracle::{ExceptionOracle, MinOracle, OracleChoice, SeededOracle};
pub use trace::{Event, Input, StringInput, Trace};
pub use wire::{
    read_frame, write_frame, FrameError, Request, Response, WireCacheStats, WireError, WireStats,
    MAX_FRAME_LEN,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::rc::Rc;
    use std::sync::Arc;
    use urk_denot::{DenotEvaluator, Env, Thunk};
    use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy};
    use urk_syntax::core::Expr;
    use urk_syntax::Exception;
    use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

    fn core_of(src: &str) -> Rc<Expr> {
        let data = DataEnv::new();
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"))
    }

    fn run_m(src: &str, input: &str) -> RunOutcome {
        run_m_config(src, input, MachineConfig::default())
    }

    fn run_m_config(src: &str, input: &str, config: MachineConfig) -> RunOutcome {
        let mut m = Machine::new(config);
        m.link_code(Arc::new(compile_program(&[])));
        let mut inp = StringInput::new(input);
        run_machine(&mut m, &core_of(src), &mut inp)
    }

    fn run_d(src: &str, input: &str, seed: u64) -> SemRunOutcome {
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
        let action = Thunk::pending(core_of(src), Env::empty());
        let mut inp = StringInput::new(input);
        let mut oracle = SeededOracle::new(seed);
        run_denot(
            &ev,
            action,
            &mut inp,
            &mut oracle,
            &AsyncSchedule::default(),
        )
    }

    // ------------------------------------------------------------------
    // Basic transitions (machine runner)
    // ------------------------------------------------------------------

    #[test]
    fn echo_program_from_the_paper() {
        // main = getChar >>= \ch -> putChar ch >>= \_ -> return ()
        let out = run_m(r"getChar >>= \ch -> putChar ch >>= \u -> return u", "x");
        assert!(matches!(out.result, IoResult::Done(ref s) if s == "Unit"));
        assert_eq!(out.trace.to_string(), "?x !x");
    }

    #[test]
    fn do_notation_echo_twice() {
        let out = run_m(
            "do { a <- getChar; b <- getChar; putChar b; putChar a; return 0 }",
            "hi",
        );
        assert!(matches!(out.result, IoResult::Done(ref s) if s == "0"));
        assert_eq!(out.trace.output(), "ih");
    }

    #[test]
    fn put_str_and_pure_results() {
        let out = run_m(r#"putStr "Urk" >> return 42"#, "");
        assert!(matches!(out.result, IoResult::Done(ref s) if s == "42"));
        assert_eq!(out.trace.output(), "Urk");
    }

    #[test]
    fn out_of_input_is_reported() {
        let out = run_m("getChar", "");
        assert!(matches!(out.result, IoResult::OutOfInput));
    }

    // ------------------------------------------------------------------
    // getException on the machine (§3.3 / §3.5)
    // ------------------------------------------------------------------

    #[test]
    fn get_exception_catches_and_scrutinises() {
        let src = r#"getException (1/0) >>= \v ->
                       case v of
                         { Bad e -> putStr "caught"
                         ; OK x -> putStr "no" }"#;
        let out = run_m(src, "");
        assert!(matches!(out.result, IoResult::Done(_)));
        assert_eq!(out.trace.output(), "caught");
        assert!(out
            .trace
            .events()
            .contains(&Event::ChoseException(Exception::DivideByZero)));
    }

    #[test]
    fn get_exception_wraps_normal_values() {
        let out = run_m("getException (6 * 7)", "");
        assert!(matches!(out.result, IoResult::Done(ref s) if s == "OK 42"));
    }

    #[test]
    fn machine_representative_depends_on_order_policy() {
        let src = r#"getException ((1/0) + raise (UserError "Urk"))"#;
        let l = run_m_config(src, "", MachineConfig::default());
        let r = run_m_config(
            src,
            "",
            MachineConfig {
                order: OrderPolicy::RightToLeft,
                ..MachineConfig::default()
            },
        );
        let IoResult::Done(ld) = l.result else {
            panic!()
        };
        let IoResult::Done(rd) = r.result else {
            panic!()
        };
        assert_eq!(ld, "Bad DivideByZero");
        assert_eq!(rd, "Bad (UserError \"Urk\")");
    }

    #[test]
    fn uncaught_exception_aborts_the_program() {
        let out = run_m("putStr (showInt (1/0))", "");
        assert!(matches!(
            out.result,
            IoResult::Uncaught(Exception::DivideByZero)
        ));
    }

    #[test]
    fn main_itself_exceptional_is_uncaught() {
        let out = run_m(r#"raise (UserError "Urk")"#, "");
        assert!(matches!(
            out.result,
            IoResult::Uncaught(Exception::UserError(_))
        ));
    }

    // ------------------------------------------------------------------
    // §5.1 async events through getException (machine)
    // ------------------------------------------------------------------

    #[test]
    fn async_interrupt_lands_in_get_exception() {
        let src = r#"getException (let f = \n -> if n == 0 then 1 else f (n - 1) in f 1000000)"#;
        let out = run_m_config(
            src,
            "",
            MachineConfig {
                event_schedule: vec![(5_000, Exception::Interrupt)],
                ..MachineConfig::default()
            },
        );
        let IoResult::Done(d) = &out.result else {
            panic!("{:?}", out.result)
        };
        assert_eq!(d, "Bad Interrupt");
        assert!(out
            .trace
            .events()
            .contains(&Event::AsyncDelivered(Exception::Interrupt)));
    }

    // ------------------------------------------------------------------
    // The semantic LTS (§4.4)
    // ------------------------------------------------------------------

    #[test]
    fn semantic_runner_echoes() {
        let out = run_d(r"getChar >>= \c -> putChar c", "z", 0);
        assert!(matches!(out.result, SemIoResult::Done(ref s) if s == "Unit"));
        assert_eq!(out.trace.to_string(), "?z !z");
    }

    #[test]
    fn semantic_get_exception_chooses_from_the_set() {
        // Over many seeds, the oracle should return both members.
        let src = r#"getException ((1/0) + raise (UserError "Urk"))"#;
        let results: BTreeSet<String> = (0..32)
            .map(|seed| match run_d(src, "", seed).result {
                SemIoResult::Done(s) => s,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            results,
            BTreeSet::from([
                "Bad DivideByZero".to_string(),
                "Bad (UserError \"Urk\")".to_string()
            ])
        );
    }

    #[test]
    fn machine_choice_is_a_member_of_the_semantic_set() {
        // The implementation's representative must be one of the
        // semantically possible choices — the central soundness link.
        let src = r#"getException ((1/0) + raise (UserError "Urk"))"#;
        let IoResult::Done(machine_choice) = run_m(src, "").result else {
            panic!()
        };
        let semantic: BTreeSet<String> = (0..32)
            .map(|seed| match run_d(src, "", seed).result {
                SemIoResult::Done(s) => s,
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(semantic.contains(&machine_choice));
    }

    #[test]
    fn get_exception_of_loop_diverges_or_lies() {
        // §5.3: getException loop may diverge — or return a quite
        // fictitious exception.
        let data = DataEnv::new();
        let ev = DenotEvaluator::with_config(
            &data,
            urk_denot::DenotConfig {
                fuel: 50_000,
                ..Default::default()
            },
        );
        let action = Thunk::pending(
            Rc::new(Expr::con("GetException", [Expr::diverge()])),
            Env::empty(),
        );
        let mut inp = StringInput::new("");
        let mut honest = SeededOracle::new(0);
        let out = run_denot(
            &ev,
            action.clone(),
            &mut inp,
            &mut honest,
            &AsyncSchedule::default(),
        );
        assert!(matches!(out.result, SemIoResult::Diverged));

        let ev2 = DenotEvaluator::with_config(
            &data,
            urk_denot::DenotConfig {
                fuel: 50_000,
                ..Default::default()
            },
        );
        let action2 = Thunk::pending(
            Rc::new(Expr::con("GetException", [Expr::diverge()])),
            Env::empty(),
        );
        let mut liar = SeededOracle::with_fictitious(0, Exception::DivideByZero);
        let out2 = run_denot(
            &ev2,
            action2,
            &mut inp,
            &mut liar,
            &AsyncSchedule::default(),
        );
        assert!(
            matches!(out2.result, SemIoResult::Done(ref s) if s == "Bad DivideByZero"),
            "{:?}",
            out2.result
        );
    }

    #[test]
    fn semantic_async_schedule_preempts_values() {
        // getException 42 can still return Bad Interrupt when the event
        // arrives (§5.1: "v might not be an exceptional value").
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
        let action = Thunk::pending(core_of("getException 42"), Env::empty());
        let mut inp = StringInput::new("");
        let mut oracle = MinOracle;
        let schedule = AsyncSchedule {
            events: vec![(0, Exception::Interrupt)],
        };
        let out = run_denot(&ev, action, &mut inp, &mut oracle, &schedule);
        assert!(matches!(out.result, SemIoResult::Done(ref s) if s == "Bad Interrupt"));
    }

    #[test]
    fn semantic_put_char_of_exceptional_value_is_uncaught() {
        let out = run_d("putChar (chr (1/0))", "", 0);
        let SemIoResult::Uncaught(set) = out.result else {
            panic!("{:?}", out.result)
        };
        assert!(set.contains(&Exception::DivideByZero));
    }

    #[test]
    fn semantic_put_str_of_bottom_diverges() {
        let data = DataEnv::new();
        let ev = DenotEvaluator::with_config(
            &data,
            urk_denot::DenotConfig {
                fuel: 20_000,
                ..Default::default()
            },
        );
        let action = Thunk::pending(
            Rc::new(Expr::con("PutStr", [Expr::diverge()])),
            Env::empty(),
        );
        let mut inp = StringInput::new("");
        let mut oracle = MinOracle;
        let out = run_denot(
            &ev,
            action,
            &mut inp,
            &mut oracle,
            &AsyncSchedule::default(),
        );
        assert!(matches!(out.result, SemIoResult::Diverged));
    }

    #[test]
    fn semantic_out_of_input() {
        let out = run_d("getChar", "", 0);
        assert!(matches!(out.result, SemIoResult::OutOfInput));
    }

    #[test]
    fn min_oracle_makes_the_semantic_runner_deterministic() {
        let src = r#"getException ((1/0) + raise (UserError "Urk"))"#;
        let data = DataEnv::new();
        let run = || {
            let ev = DenotEvaluator::new(&data);
            let action = Thunk::pending(core_of(src), Env::empty());
            let mut inp = StringInput::new("");
            let mut oracle = MinOracle;
            run_denot(
                &ev,
                action,
                &mut inp,
                &mut oracle,
                &AsyncSchedule::default(),
            )
        };
        let a = run();
        let b = run();
        let (SemIoResult::Done(x), SemIoResult::Done(y)) = (a.result, b.result) else {
            panic!()
        };
        assert_eq!(x, y);
        assert_eq!(x, "Bad DivideByZero"); // least member in the Ord
    }

    #[test]
    fn async_schedule_targets_the_nth_get_exception() {
        // The event fires at the second getException only.
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
        let action = Thunk::pending(
            core_of(
                r"getException 1 >>= \a ->
                  getException 2 >>= \b -> return (a, b)",
            ),
            Env::empty(),
        );
        let mut inp = StringInput::new("");
        let mut oracle = MinOracle;
        let schedule = AsyncSchedule {
            events: vec![(1, Exception::Timeout)],
        };
        let out = run_denot(&ev, action, &mut inp, &mut oracle, &schedule);
        let SemIoResult::Done(v) = out.result else {
            panic!("{:?}", out.result)
        };
        assert_eq!(v, "Pair (OK 1) (Bad Timeout)");
    }

    // ------------------------------------------------------------------
    // §3.5: beta reduction is valid at the IO level
    // ------------------------------------------------------------------

    #[test]
    fn beta_reduction_preserves_outcome_distributions() {
        // let x = (1/0) + error "Urk"
        // in getException x >>= \v1 -> getException x >>= \v2 -> return (v1, v2)
        let shared = r#"let x = (1/0) + raise (UserError "Urk")
                        in getException x >>= \v1 ->
                           getException x >>= \v2 -> return (v1, v2)"#;
        let substituted = r#"getException ((1/0) + raise (UserError "Urk")) >>= \v1 ->
                             getException ((1/0) + raise (UserError "Urk")) >>= \v2 ->
                             return (v1, v2)"#;
        let outcomes = |src: &str| -> BTreeSet<String> {
            (0..64)
                .map(|seed| match run_d(src, "", seed).result {
                    SemIoResult::Done(s) => s,
                    other => panic!("{other:?}"),
                })
                .collect()
        };
        let a = outcomes(shared);
        let b = outcomes(substituted);
        // The paper: "whether or not this substitution is made,
        // getException will be performed twice, making an independent
        // non-deterministic choice each time". Same outcome sets — four
        // combinations each.
        assert_eq!(a, b);
        assert_eq!(a.len(), 4, "{a:?}");
    }

    #[test]
    fn machine_runner_gives_equal_components_under_sharing_and_substitution() {
        // On the deterministic machine both versions agree (and both
        // components match), because the policy fixes the representative.
        let shared = r#"let x = (1/0) + raise (UserError "Urk")
                        in getException x >>= \v1 ->
                           getException x >>= \v2 -> return (v1, v2)"#;
        let substituted = r#"getException ((1/0) + raise (UserError "Urk")) >>= \v1 ->
                             getException ((1/0) + raise (UserError "Urk")) >>= \v2 ->
                             return (v1, v2)"#;
        let IoResult::Done(a) = run_m(shared, "").result else {
            panic!()
        };
        let IoResult::Done(b) = run_m(substituted, "").result else {
            panic!()
        };
        assert_eq!(a, b);
        assert_eq!(a, "Pair (Bad DivideByZero) (Bad DivideByZero)");
    }

    #[test]
    fn poisoned_thunks_keep_get_exception_consistent() {
        // Under sharing, the machine's second getException sees the
        // poisoned thunk and reports the *same* exception even under a
        // randomising policy.
        let shared = r#"let x = (1/0) + raise (UserError "Urk")
                        in getException x >>= \v1 ->
                           getException x >>= \v2 -> return (v1, v2)"#;
        for seed in 0..8 {
            let out = run_m_config(
                shared,
                "",
                MachineConfig {
                    order: OrderPolicy::Seeded(seed),
                    ..MachineConfig::default()
                },
            );
            let IoResult::Done(s) = out.result else {
                panic!()
            };
            assert!(
                s == "Pair (Bad DivideByZero) (Bad DivideByZero)"
                    || s == "Pair (Bad (UserError \"Urk\")) (Bad (UserError \"Urk\"))",
                "components must agree under sharing: {s}"
            );
        }
    }
}
