//! # urk-denot
//!
//! The denotational layer of the PLDI 1999 *imprecise exceptions*
//! reproduction:
//!
//! * [`eval::DenotEvaluator`] — one evaluator over one domain
//!   ([`domain`]), running any of the three designs of §3.4
//!   ([`eval::Design`]):
//!   * `Imprecise`, the paper's semantics (§4): exceptional values are
//!     **sets** of exceptions, `⊥` is the set of all exceptions, `case`
//!     explores alternatives in exception-finding mode, and `fix` is a
//!     fuel-indexed ascending chain;
//!   * `Precise(order)`, the rejected ML/FL-style baseline (design 1): one
//!     exception, a fixed evaluation order, `case` propagates;
//!   * `Nondet`, the rejected non-deterministic baseline (design 2):
//!     oracle-chosen order with a *pure* `getException`.
//!
//!   The designs differ only in the few rules §3.4 names. A precise
//!   exception `e` is the set `{e}` and a precise `⊥` is `⊥`, so all three
//!   share values, thunks, knots, primitives, `⊑` and rendering.
//! * [`nondet`] — outcome-set enumeration over every oracle tape, which
//!   exhibits the non-deterministic design's loss of beta reduction.
//! * [`compare`] — the refinement order `⊑` and verdicts for the §4.5 law
//!   tables.
//!
//! # Examples
//!
//! The paper's headline example — both exceptions are in the set,
//! regardless of evaluation order:
//!
//! ```
//! use urk_syntax::{parse_expr_src, desugar_expr, DataEnv, Exception};
//! use urk_denot::{DenotEvaluator, Denot};
//! use std::rc::Rc;
//!
//! let data = DataEnv::new();
//! let e = desugar_expr(
//!     &parse_expr_src(r#"(1/0) + raise (UserError "Urk")"#)?,
//!     &data,
//! )?;
//! let ev = DenotEvaluator::new();
//! let d = ev.eval_closed(&Rc::new(e));
//! let Denot::Bad(s) = d else { panic!("expected an exceptional value") };
//! assert!(s.contains(&Exception::DivideByZero));
//! assert!(s.contains(&Exception::UserError("Urk".into())));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compare;
pub mod domain;
pub mod eval;
pub mod exnset;
pub mod nondet;

pub use compare::{compare_denots, denot_leq, show_denot, Verdict};
pub use domain::{Closure, DThunk, Denot, Env, Thunk, ThunkState, Value};
pub use eval::{DenotConfig, DenotEvaluator, Design, EvalOrder};
pub use exnset::ExnSet;
pub use nondet::{enumerate_outcomes, same_outcome_sets, NondetConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use urk_syntax::core::Expr;
    use urk_syntax::Exception;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    fn core_of(src: &str) -> Rc<Expr> {
        let data = DataEnv::new();
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"))
    }

    fn eval_show(src: &str) -> String {
        let ev = DenotEvaluator::new();
        let d = ev.eval_closed(&core_of(src));
        show_denot(&ev, &d, 16)
    }

    fn eval_denot(src: &str) -> Denot {
        let ev = DenotEvaluator::new();
        ev.eval_closed(&core_of(src))
    }

    fn eval_in_program(prog: &str, expr: &str) -> String {
        let mut data = DataEnv::new();
        let p =
            desugar_program(&parse_program(prog).expect("parses"), &mut data).expect("desugars");
        let e =
            Rc::new(desugar_expr(&parse_expr_src(expr).expect("parses"), &data).expect("desugars"));
        let ev = DenotEvaluator::new();
        let env = ev.bind_recursive(&p.binds, &Env::empty());
        let d = ev.eval(&e, &env);
        show_denot(&ev, &d, 16)
    }

    fn urk() -> Exception {
        Exception::UserError("Urk".into())
    }

    /// An evaluator for the precise design.
    fn precise(order: EvalOrder, fuel: u64) -> DenotEvaluator {
        let config = DenotConfig {
            fuel,
            ..DenotConfig::default()
        };
        DenotEvaluator::with_design(config, Design::Precise(order))
    }

    /// True if `d` is the precise design's single exception `x`.
    fn is_exn(d: &Denot, x: Exception) -> bool {
        matches!(d, Denot::Bad(s) if *s == ExnSet::singleton(x))
    }

    // ------------------------------------------------------------------
    // §3.4/§4.2: the (+) rule
    // ------------------------------------------------------------------

    #[test]
    fn headline_term_contains_both_exceptions() {
        let d = eval_denot(r#"(1/0) + raise (UserError "Urk")"#);
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(s.contains(&Exception::DivideByZero));
        assert!(s.contains(&urk()));
        assert!(!s.is_all());
    }

    #[test]
    fn addition_commutes_on_exceptional_values() {
        let ev = DenotEvaluator::new();
        let l = ev.eval_closed(&core_of(r#"(1/0) + raise (UserError "Urk")"#));
        let r = ev.eval_closed(&core_of(r#"raise (UserError "Urk") + (1/0)"#));
        assert_eq!(compare_denots(&ev, &l, &r, 8), Verdict::Equal);
    }

    #[test]
    fn ordinary_arithmetic_still_works() {
        assert_eq!(eval_show("1 + 2 * 3"), "7");
        assert_eq!(eval_show("7 / 2"), "3");
        assert_eq!(eval_show("7 % 2"), "1");
        assert_eq!(eval_show("negate 5"), "-5");
    }

    #[test]
    fn overflow_is_an_exception() {
        let d = eval_denot("9223372036854775807 + 1");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(s.contains(&Exception::Overflow));
    }

    // ------------------------------------------------------------------
    // §4.2: application rules
    // ------------------------------------------------------------------

    #[test]
    fn beta_reduction_discards_unused_exceptional_arguments() {
        // (\x.3)(1/0) = 3 — the paper's example for why a *normal* function
        // must not union in its argument's exceptions.
        assert_eq!(eval_show(r"(\x -> 3) (1/0)"), "3");
    }

    #[test]
    fn exceptional_function_unions_argument_exceptions() {
        // [e1 e2] = Bad (s ∪ S[[e2]]) when [e1] = Bad s.
        let d = eval_denot(r"(raise Overflow) (1/0)");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(s.contains(&Exception::Overflow));
        assert!(s.contains(&Exception::DivideByZero));
    }

    #[test]
    fn lambda_over_bottom_is_not_bottom() {
        // §4.2: λx.⊥ ≠ ⊥.
        let ev = DenotEvaluator::new();
        let lam = ev.eval_closed(&Rc::new(Expr::lam("x", Expr::diverge())));
        let bot = Denot::bottom();
        assert!(matches!(lam, Denot::Ok(Value::Fun(_))));
        assert_ne!(compare_denots(&ev, &lam, &bot, 4), Verdict::Equal);
        // ⊥ ⊑ λx.⊥ holds, the converse does not.
        assert!(denot_leq(&ev, &bot, &lam, 4));
        assert!(!denot_leq(&ev, &lam, &bot, 4));
    }

    // ------------------------------------------------------------------
    // §4: loop + error "Urk" and fix
    // ------------------------------------------------------------------

    #[test]
    fn loop_plus_error_is_bottom() {
        // loop's denotation is ⊥ = the set of all exceptions; union with
        // {UserError "Urk"} is still ⊥.
        let ev = DenotEvaluator::with_config(DenotConfig {
            fuel: 50_000,
            ..DenotConfig::default()
        });
        let e = Rc::new(Expr::add(Expr::diverge(), Expr::error("Urk")));
        let d = ev.eval_closed(&e);
        assert!(d.is_bottom(), "got {d:?}");
    }

    #[test]
    fn productive_recursion_is_not_bottom() {
        assert_eq!(
            eval_in_program("f x = if x == 0 then 42 else f (x - 1)", "f 10"),
            "42"
        );
    }

    #[test]
    fn self_referential_value_is_black_hole_bottom() {
        // black = black + 1 (§5.2): re-entrant thunk forcing is ⊥ without
        // consuming unbounded fuel.
        let d = eval_in_program("black = black + 1", "black");
        assert_eq!(d, "Bad {ALL}");
    }

    #[test]
    fn fuel_exhaustion_approximates_from_below_monotonically() {
        // A computation needing a fair amount of fuel.
        let src = "letrec-free"; // placeholder to keep naming clear
        let _ = src;
        let e = core_of(r"(\f -> f 1 + f 2 + f 3) (\x -> x * x)");
        let mut last: Option<Denot> = None;
        for fuel in [1u64, 5, 20, 100, 10_000] {
            let ev = DenotEvaluator::with_config(DenotConfig {
                fuel,
                ..DenotConfig::default()
            });
            let d = ev.eval_closed(&e);
            if let Some(prev) = &last {
                assert!(
                    denot_leq(&ev, prev, &d, 8),
                    "fuel increase must move the approximant up"
                );
            }
            last = Some(d);
        }
        let ev = DenotEvaluator::new();
        assert!(
            matches!(last, Some(Denot::Ok(Value::Int(14)))),
            "{:?}",
            show_denot(&ev, &last.unwrap(), 4)
        );
    }

    // ------------------------------------------------------------------
    // §4.3: case and exception-finding mode
    // ------------------------------------------------------------------

    #[test]
    fn case_on_bad_scrutinee_unions_all_alternatives() {
        let d = eval_denot(
            r#"case raise Overflow of { True -> 1/0; False -> raise (UserError "Urk") }"#,
        );
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(s.contains(&Exception::Overflow));
        assert!(s.contains(&Exception::DivideByZero));
        assert!(s.contains(&urk()));
        assert!(!s.is_all());
    }

    #[test]
    fn exception_finding_mode_binds_bad_empty() {
        // The alternative returns its pattern variable; since it is bound
        // to Bad {}, it contributes *no* exceptions.
        let d = eval_denot("case raise Overflow of { Just x -> x; Nothing -> 2 }");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert_eq!(s, ExnSet::singleton(Exception::Overflow));
    }

    #[test]
    fn case_switching_turns_into_refinement() {
        // §4.5's worked example: with e = raise E, x = raise X and
        // constant alternatives, lhs denotes Bad {E,X} and rhs Bad {E}:
        // lhs ⊑ rhs but not equal.
        let ev = DenotEvaluator::new();
        let lhs = ev.eval_closed(&core_of(
            r#"case raise Overflow of
                 { True -> (\x -> 1) (raise DivideByZero)
                 ; False -> (\x -> 1) (raise DivideByZero) }"#,
        ));
        // After pushing the application inside and simplifying with a
        // normal function, the DivideByZero branch disappears:
        let rhs = ev.eval_closed(&core_of("case raise Overflow of { True -> 1; False -> 1 }"));
        assert_eq!(compare_denots(&ev, &lhs, &rhs, 8), Verdict::Equal);
        // The sharper §4.5 shape: alternatives that *do* raise lose
        // exceptions when simplified away.
        let lhs2 = ev.eval_closed(&core_of(
            "case raise Overflow of { True -> raise DivideByZero; False -> raise DivideByZero }",
        ));
        let rhs2 = ev.eval_closed(&core_of("raise Overflow"));
        assert_eq!(
            compare_denots(&ev, &lhs2, &rhs2, 8),
            Verdict::LeftRefinesToRight
        );
    }

    #[test]
    fn normal_case_selects_the_right_alternative() {
        assert_eq!(
            eval_show("case Just 3 of { Just n -> n + 1; Nothing -> 0 }"),
            "4"
        );
        assert_eq!(eval_show("case 2 of { 1 -> 10; 2 -> 20; _ -> 30 }"), "20");
        assert_eq!(eval_show(r#"case "a" of { "a" -> 1; _ -> 2 }"#), "1");
    }

    #[test]
    fn missing_alternative_is_pattern_match_failure() {
        let d = eval_denot("case Nothing of { Just n -> n }");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(matches!(
            s.some_member(),
            Some(Exception::PatternMatchFail(_))
        ));
    }

    // ------------------------------------------------------------------
    // §3.2: exceptional values hide in lazy structures (zipWith)
    // ------------------------------------------------------------------

    const ZIP_PRELUDE: &str = "zipWith f [] [] = []\n\
         zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
         zipWith f xs ys = raise (UserError \"Unequal lists\")";

    #[test]
    fn zipwith_direct_exception() {
        // zipWith (+) [] [1] returns an exception value directly.
        let out = eval_in_program(ZIP_PRELUDE, "zipWith (+) [] [1]");
        assert_eq!(out, "Bad {UserError \"Unequal lists\"}");
    }

    #[test]
    fn zipwith_exception_at_the_end_of_the_spine() {
        let out = eval_in_program(ZIP_PRELUDE, "zipWith (+) [1] [1, 2]");
        assert_eq!(out, "Cons 2 (Bad {UserError \"Unequal lists\"})");
    }

    #[test]
    fn zipwith_exceptional_elements_in_a_defined_spine() {
        let out = eval_in_program(ZIP_PRELUDE, "zipWith (/) [1, 2] [1, 0]");
        assert_eq!(out, "Cons 1 (Cons (Bad {DivideByZero}) Nil)");
    }

    #[test]
    fn seq_forces_exceptions_out_of_structures() {
        // seq on WHNF only: the spine constructor is normal.
        assert_eq!(eval_show("seq (Cons (1/0) Nil) 5"), "5");
        let d = eval_denot("seq (1/0) 5");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert!(s.contains(&Exception::DivideByZero));
        assert_eq!(eval_show("seq 1 5"), "5");
    }

    // ------------------------------------------------------------------
    // raise and nested raises
    // ------------------------------------------------------------------

    #[test]
    fn raise_of_exceptional_argument_propagates_the_set() {
        let d = eval_denot("raise (raise Overflow)");
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert_eq!(s, ExnSet::singleton(Exception::Overflow));
    }

    #[test]
    fn raise_forces_string_payloads() {
        let d = eval_denot(r#"raise (UserError "Urk")"#);
        let Denot::Bad(s) = d else {
            panic!("expected Bad")
        };
        assert_eq!(s, ExnSet::singleton(urk()));
    }

    // ------------------------------------------------------------------
    // §5.4: mapException and unsafeIsException
    // ------------------------------------------------------------------

    #[test]
    fn map_exception_rewrites_every_member() {
        let out = eval_show(r#"mapException (\x -> UserError "Urk") ((1/0) + raise Overflow)"#);
        assert_eq!(out, "Bad {UserError \"Urk\"}");
    }

    #[test]
    fn map_exception_leaves_normal_values_alone() {
        assert_eq!(
            eval_show(r#"mapException (\x -> UserError "Urk") 42"#),
            "42"
        );
    }

    #[test]
    fn map_exception_preserves_bottom() {
        let ev = DenotEvaluator::with_config(DenotConfig {
            fuel: 20_000,
            ..DenotConfig::default()
        });
        let e = Rc::new(Expr::prim(
            urk_syntax::core::PrimOp::MapExn,
            [Expr::lam("x", Expr::con("Overflow", [])), Expr::diverge()],
        ));
        assert!(ev.eval_closed(&e).is_bottom());
    }

    #[test]
    fn unsafe_is_exception_optimistic_and_pessimistic() {
        assert_eq!(eval_show("unsafeIsException (1/0)"), "True");
        assert_eq!(eval_show("unsafeIsException 3"), "False");
        // Optimistic: even ⊥ answers True.
        let probe = Rc::new(Expr::prim(
            urk_syntax::core::PrimOp::UnsafeIsException,
            [Expr::diverge()],
        ));
        let opt = DenotEvaluator::new();
        assert_eq!(show_denot(&opt, &opt.eval_closed(&probe), 4), "True");
        // Pessimistic: ⊥ answers ⊥.
        let pess = DenotEvaluator::with_config(DenotConfig {
            pessimistic_is_exception: true,
            ..DenotConfig::default()
        });
        assert!(pess.eval_closed(&probe).is_bottom());
    }

    // ------------------------------------------------------------------
    // The precise baseline (§3.4 design 1)
    // ------------------------------------------------------------------

    #[test]
    fn precise_semantics_is_order_dependent() {
        let e = core_of(r#"(1/0) + raise (UserError "Urk")"#);
        let l2r = precise(EvalOrder::LeftToRight, 1_000_000);
        let r2l = precise(EvalOrder::RightToLeft, 1_000_000);
        assert!(is_exn(&l2r.eval_closed(&e), Exception::DivideByZero));
        assert!(is_exn(&r2l.eval_closed(&e), urk()));
    }

    #[test]
    fn precise_addition_does_not_commute() {
        let a = core_of(r#"(1/0) + raise (UserError "Urk")"#);
        let b = core_of(r#"raise (UserError "Urk") + (1/0)"#);
        let ev = precise(EvalOrder::LeftToRight, 1_000_000);
        let da = ev.eval_closed(&a);
        let db = ev.eval_closed(&b);
        assert_ne!(show_denot(&ev, &da, 4), show_denot(&ev, &db, 4));
    }

    #[test]
    fn precise_case_propagates_without_exploring() {
        let e = core_of("case raise Overflow of { True -> 1/0; False -> 2 }");
        let ev = precise(EvalOrder::LeftToRight, 1_000_000);
        assert!(is_exn(&ev.eval_closed(&e), Exception::Overflow));
    }

    #[test]
    fn precise_normal_evaluation_agrees_with_imprecise() {
        for src in [
            "1 + 2 * 3",
            r"(\x -> x + 1) 41",
            "case Just 5 of { Just n -> n; Nothing -> 0 }",
        ] {
            let e = core_of(src);
            let pev = precise(EvalOrder::LeftToRight, 1_000_000);
            let pd = pev.eval_closed(&e);
            assert_eq!(show_denot(&pev, &pd, 8), eval_show(src), "on {src}");
        }
    }

    #[test]
    fn precise_distinguishes_bottom_from_exceptions() {
        let ev = precise(EvalOrder::LeftToRight, 10_000);
        let d = ev.eval_closed(&Rc::new(Expr::diverge()));
        assert!(d.is_bottom());
        let d2 = ev.eval_closed(&core_of("raise Overflow"));
        assert!(is_exn(&d2, Exception::Overflow));
    }

    // ------------------------------------------------------------------
    // The non-deterministic baseline (§3.4 design 2)
    // ------------------------------------------------------------------

    #[test]
    fn nondet_deterministic_terms_have_one_outcome() {
        let outcomes = enumerate_outcomes(&core_of("1 + 2"), &NondetConfig::default());
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes.contains("3"));
    }

    #[test]
    fn nondet_choice_surfaces_both_exceptions() {
        let outcomes = enumerate_outcomes(
            &core_of(r#"(1/0) + raise (UserError "Urk")"#),
            &NondetConfig::default(),
        );
        assert_eq!(outcomes.len(), 2, "{outcomes:?}");
    }

    #[test]
    fn nondet_beta_reduction_fails_the_paper_example() {
        // let x = (1/0) + raise (UserError "Urk")
        // in (getException x, getException x)
        let shared = core_of(
            r#"let x = (1/0) + raise (UserError "Urk")
               in (getException x, getException x)"#,
        );
        // ... with x substituted by its right-hand side:
        let substituted = core_of(
            r#"(getException ((1/0) + raise (UserError "Urk")),
                getException ((1/0) + raise (UserError "Urk")))"#,
        );
        let cfg = NondetConfig::default();
        let shared_outcomes = enumerate_outcomes(&shared, &cfg);
        let subst_outcomes = enumerate_outcomes(&substituted, &cfg);
        // Sharing forces one choice: both components always agree.
        assert_eq!(shared_outcomes.len(), 2, "{shared_outcomes:?}");
        // Substitution makes the choices independent: four outcomes,
        // including mismatched pairs. Beta reduction is invalid.
        assert_eq!(subst_outcomes.len(), 4, "{subst_outcomes:?}");
        assert!(!same_outcome_sets(&shared, &substituted, &cfg));
        assert!(subst_outcomes.is_superset(&shared_outcomes));
    }

    // ------------------------------------------------------------------
    // Comparison machinery
    // ------------------------------------------------------------------

    #[test]
    fn compare_ground_values() {
        let ev = DenotEvaluator::new();
        let a = ev.eval_closed(&core_of("[1, 2, 3]"));
        let b = ev.eval_closed(&core_of("1 : 2 : 3 : []"));
        assert_eq!(compare_denots(&ev, &a, &b, 8), Verdict::Equal);
        let c = ev.eval_closed(&core_of("[1, 2]"));
        assert_eq!(compare_denots(&ev, &a, &c, 8), Verdict::Incomparable);
    }

    #[test]
    fn compare_respects_exception_set_inclusion() {
        let ev = DenotEvaluator::new();
        let both = ev.eval_closed(&core_of(r#"(1/0) + raise (UserError "Urk")"#));
        let one = ev.eval_closed(&core_of("1/0"));
        assert_eq!(
            compare_denots(&ev, &both, &one, 8),
            Verdict::LeftRefinesToRight
        );
        assert_eq!(
            compare_denots(&ev, &one, &both, 8),
            Verdict::RightRefinesToLeft
        );
    }

    #[test]
    fn error_this_is_not_error_that() {
        // §4.5: the lost law — error "This" = error "That" no longer holds,
        // and rightly not.
        let ev = DenotEvaluator::new();
        let this = ev.eval_closed(&Rc::new(Expr::error("This")));
        let that = ev.eval_closed(&Rc::new(Expr::error("That")));
        assert_eq!(compare_denots(&ev, &this, &that, 8), Verdict::Incomparable);
    }

    #[test]
    fn functions_compare_via_probes() {
        let ev = DenotEvaluator::new();
        // \x -> x and \y -> y are equal.
        let a = ev.eval_closed(&core_of(r"\x -> x"));
        let b = ev.eval_closed(&core_of(r"\y -> y"));
        assert_eq!(compare_denots(&ev, &a, &b, 6), Verdict::Equal);
        // \x -> x (strict in probe) vs \x -> 3 (discards probe) differ.
        let c = ev.eval_closed(&core_of(r"\x -> 3"));
        assert_ne!(compare_denots(&ev, &a, &c, 6), Verdict::Equal);
    }

    #[test]
    fn show_denot_renders_structures() {
        assert_eq!(eval_show("[1, 2]"), "Cons 1 (Cons 2 Nil)");
        assert_eq!(eval_show("(1, (2, 3))"), "Pair 1 (Pair 2 3)");
        assert_eq!(eval_show(r"\x -> x"), "<function>");
        assert_eq!(eval_show("'q'"), "'q'");
    }

    #[test]
    fn strings_and_chars_evaluate() {
        assert_eq!(eval_show(r#"strAppend "ab" "cd""#), "\"abcd\"");
        assert_eq!(eval_show(r#"strLen "abcd""#), "4");
        assert_eq!(eval_show("showInt 42"), "\"42\"");
        assert_eq!(eval_show("ord 'a'"), "97");
        assert_eq!(eval_show("chr 98"), "'b'");
        assert_eq!(eval_show("eqChar 'a' 'a'"), "True");
        let d = eval_denot("chr (-1)");
        assert!(matches!(d, Denot::Bad(_)));
    }
}
