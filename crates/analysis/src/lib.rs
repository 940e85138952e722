//! Static exception-effect analysis for the imprecise-exception Core.
//!
//! The dynamic semantics (crates `urk-denot` / `urk-machine`) makes every
//! exceptional value denote a *set* of possible exceptions, with `⊥`
//! identified with the set of all of them (paper §4.1–§4.2). This crate
//! answers the corresponding *static* questions, conservatively, without
//! running anything:
//!
//! * which exceptions **may** an expression raise when forced to WHNF
//!   ([`Effect::exns`], [`Effect::predicted`]);
//! * may it **diverge** ([`Effect::diverges`] — folded into the predicted
//!   set as `All`, exactly as the semantics folds `⊥`);
//! * does it **certainly** raise ([`Effect::must_raise`]);
//! * is it **provably safe** — guaranteed to reach a normal WHNF
//!   ([`Effect::whnf_safe`]), the licence for the strictness-style
//!   rewrites in `urk-transform` and for `case`-folding around
//!   `unsafeIsException`/`unsafeGetException`.
//!
//! The headline soundness theorem, enforced differentially by
//! `tests/analysis.rs` over a corpus plus hundreds of random terms on
//! both evaluator backends: **the denoted exception set of every closed
//! term is `⊆` its predicted set**.
//!
//! Note what the analysis does *not* do: it never turns
//! `unsafeIsException` into the pure `isException` of §5.4 — that
//! function is unimplementable, because deciding membership of an
//! imprecise set is exactly deciding which exception the implementation
//! *would* pick. The analysis only folds the observer when the subject
//! provably denotes a normal value (answer `False`/`OK` regardless of
//! set contents) or provably raises without the possibility of
//! divergence (answer `True`/`Bad`): the cases where the set never needs
//! to be inspected.
//!
//! Modules: [`effect`] is the abstract domain, [`analyze`] the
//! whole-program Mycroft fixpoint, [`lint`] the `urk lint` diagnostics.

pub mod analyze;
pub mod effect;
pub mod lint;
pub mod validate;

pub use analyze::{analyze_program, Analysis, BindingFact, Summary};
pub use effect::{Effect, Val};
pub use lint::{lint_expr, lint_program, Diagnostic, LintCode};
pub use validate::{audit_binding_facts, audit_binds, FactAudit, FactAuditError};

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::core::CoreProgram;
    use urk_syntax::{parse_expr_src, parse_program, DataEnv, Exception};

    fn analyze_src(src: &str) -> (Analysis, DataEnv, CoreProgram) {
        let mut data = DataEnv::new();
        let prog = parse_program(src).expect("parse");
        let prog = urk_syntax::desugar_program(&prog, &mut data).expect("desugar");
        let an = analyze_program(&prog, &data);
        (an, data, prog)
    }

    fn effect_of(src: &str) -> Effect {
        let data = DataEnv::new();
        let e = parse_expr_src(src).expect("parse");
        let e = urk_syntax::desugar_expr(&e, &data).expect("desugar");
        Analysis::default().effect_of(&e, &data)
    }

    #[test]
    fn division_by_zero_is_a_must_raise() {
        let eff = effect_of("1 / 0");
        assert!(eff.must_raise);
        assert!(eff.predicted().contains(&Exception::DivideByZero));
        assert!(!eff.predicted().is_all());
    }

    #[test]
    fn constant_folding_flows_through_cases() {
        let eff = effect_of("case 2 + 3 of { 5 -> 10; _ -> 1 / 0 }");
        assert!(eff.whnf_safe());
        assert_eq!(eff.val, Some(Val::Int(10)));
    }

    #[test]
    fn unknown_division_predicts_both_arith_exceptions() {
        let (an, data, prog) = analyze_src("f x y = x / y");
        let s = an
            .summary(urk_syntax::Symbol::intern("f"))
            .expect("summary");
        assert_eq!(s.arity, 2);
        assert!(s.body_effect.exns.contains(&Exception::DivideByZero));
        assert!(s.body_effect.exns.contains(&Exception::Overflow));
        assert!(!s.body_effect.diverges);
        let _ = (data, prog);
    }

    #[test]
    fn recursion_is_pinned_to_bottom() {
        let (an, _, _) = analyze_src("loop x = loop x");
        let name = urk_syntax::Symbol::intern("loop");
        assert!(an.recursive.contains(&name));
        let s = an.summary(name).expect("summary");
        assert!(s.body_effect.diverges);
        assert!(s.body_effect.predicted().is_all());
    }

    #[test]
    fn mutual_recursion_is_pinned_but_neighbours_are_not() {
        let (an, data, _) = analyze_src(
            "even n = case n of { 0 -> True; _ -> odd (n - 1) }\n\
             odd n = case n of { 0 -> False; _ -> even (n - 1) }\n\
             safe x = x + 1",
        );
        assert!(an.recursive.contains(&urk_syntax::Symbol::intern("even")));
        assert!(an.recursive.contains(&urk_syntax::Symbol::intern("odd")));
        let safe = an
            .summary(urk_syntax::Symbol::intern("safe"))
            .expect("summary");
        assert!(!safe.body_effect.diverges);
        assert!(safe.body_effect.exns.contains(&Exception::Overflow));
        let _ = data;
    }

    #[test]
    fn lazy_let_does_not_raise_until_forced() {
        // The bad binding is never forced, so nothing is predicted.
        let eff = effect_of("let b = 1 / 0 in 42");
        assert!(eff.whnf_safe());
        assert_eq!(eff.val, Some(Val::Int(42)));
        // Constructors are lazy too (§4.2): Con args never propagate.
        let eff = effect_of("Cons (raise Overflow) Nil");
        assert!(eff.whnf_safe());
    }

    #[test]
    fn is_exception_folds_only_with_proof() {
        // Provably safe subject: False branch.
        let eff = effect_of("case unsafeIsException 42 of { True -> raise Overflow; False -> 7 }");
        assert!(eff.whnf_safe());
        assert_eq!(eff.val, Some(Val::Int(7)));
        // Provably raising subject: True branch.
        let eff =
            effect_of("case unsafeIsException (1 / 0) of { True -> 7; False -> raise Overflow }");
        assert!(eff.whnf_safe());
        assert_eq!(eff.val, Some(Val::Int(7)));
    }

    #[test]
    fn opaque_parameters_block_unsound_folding() {
        // With the parameter treated as "pure" the False branch would be
        // chosen and `f (raise UserError)` would be predicted exception
        // free — unsound. Opacity keeps both branches live.
        let (an, _, _) = analyze_src(
            "f x = case unsafeIsException x of { True -> raise Overflow; False -> 42 }",
        );
        let s = an
            .summary(urk_syntax::Symbol::intern("f"))
            .expect("summary");
        assert!(s.body_effect.exns.contains(&Exception::Overflow));
        assert!(!s.body_effect.must_raise);
    }

    #[test]
    fn summaries_compose_through_saturated_calls() {
        let (an, data, _) = analyze_src(
            "half x = x / 2\n\
             use y = half (y + 1)",
        );
        let s = an
            .summary(urk_syntax::Symbol::intern("use"))
            .expect("summary");
        // Division by the constant 2 is total; + may overflow.
        assert!(!s.body_effect.exns.contains(&Exception::DivideByZero));
        assert!(s.body_effect.exns.contains(&Exception::Overflow));
        assert!(!s.body_effect.diverges);
        // A saturated call with a safe argument is provably safe (no
        // constant, though: summaries are not inlined).
        let e = parse_expr_src("half 10").expect("parse");
        let e = urk_syntax::desugar_expr(&e, &data).expect("desugar");
        let eff = an.effect_of(&e, &data);
        assert!(eff.whnf_safe());
        assert_eq!(eff.val, None);
    }

    #[test]
    fn unused_parameters_do_not_contribute() {
        let (an, data, _) = analyze_src("konst x y = x");
        let s = an
            .summary(urk_syntax::Symbol::intern("konst"))
            .expect("summary");
        assert_eq!(s.uses, vec![true, false]);
        let e = parse_expr_src("konst 1 (raise Overflow)").expect("parse");
        let e = urk_syntax::desugar_expr(&e, &data).expect("desugar");
        let eff = an.effect_of(&e, &data);
        assert!(eff.whnf_safe(), "discarded argument must not contribute");
    }

    #[test]
    fn seq_forces_the_first_operand() {
        let eff = effect_of("seq (1 / 0) 42");
        assert!(eff.must_raise);
        assert!(eff.predicted().contains(&Exception::DivideByZero));
    }

    #[test]
    fn raise_of_known_constructor_is_a_singleton() {
        let eff = effect_of("raise DivideByZero");
        assert!(eff.must_raise);
        let p = eff.predicted();
        assert!(!p.is_all());
        assert_eq!(p.len(), Some(1));
        let eff = effect_of("raise (UserError \"urk\")");
        assert!(eff
            .predicted()
            .contains(&Exception::UserError("urk".into())));
        assert!(!eff.predicted().is_all());
    }

    #[test]
    fn uncovered_case_predicts_pattern_match_fail() {
        let (an, data, _) = analyze_src("f x = case x of { True -> 1 }");
        let s = an
            .summary(urk_syntax::Symbol::intern("f"))
            .expect("summary");
        assert!(s
            .body_effect
            .exns
            .contains(&Exception::PatternMatchFail("case".into())));
        // Covering both constructors removes the prediction.
        let (an2, _, _) = analyze_src("g x = case x of { True -> 1; False -> 2 }");
        let s2 = an2
            .summary(urk_syntax::Symbol::intern("g"))
            .expect("summary");
        assert!(!s2
            .body_effect
            .exns
            .contains(&Exception::PatternMatchFail("case".into())));
        let _ = data;
    }

    #[test]
    fn higher_order_application_is_bottom() {
        let (an, data, _) = analyze_src("apply f x = f x");
        let e = parse_expr_src("apply (\\y -> y) 1").expect("parse");
        let e = urk_syntax::desugar_expr(&e, &data).expect("desugar");
        let eff = an.effect_of(&e, &data);
        assert!(eff.predicted().is_all(), "unknown application must be ⊥");
    }

    #[test]
    fn binding_facts_export_in_program_order_with_constants_for_arity_zero() {
        let (an, _, prog) = analyze_src(
            "k = 42\n\
             boom = 1 / 0\n\
             inc x = x + 1",
        );
        let facts = an.binding_facts(&prog.binds);
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[0].name, urk_syntax::Symbol::intern("k"));
        assert!(facts[0].whnf_safe);
        assert_eq!(facts[0].val, Some(Val::Int(42)));
        assert!(facts[1].must_raise);
        assert!(!facts[1].whnf_safe);
        assert_eq!(facts[1].val, None);
        // Arity-positive bindings never export a constant: the "value"
        // of a lambda is not a literal.
        assert_eq!(facts[2].arity, 1);
        assert_eq!(facts[2].val, None);
        // A lambda is itself a WHNF — forcing it cannot raise — but its
        // body may; whnf_safe reports the *body* effect under opaque
        // arguments, which is the conservative direction for a licence.
        assert!(!facts[2].whnf_safe || facts[2].arity > 0);
    }

    #[test]
    fn demand_analysis_proves_strict_parameters() {
        let (an, _, _) = analyze_src(
            "sq x = x * x\n\
             konst x y = x\n\
             choose c a b = case c of { True -> a; False -> b }\n\
             both p q = seq p (q + 1)\n\
             discard d = let u = d in 42",
        );
        let s = |n: &str| an.summary(urk_syntax::Symbol::intern(n)).expect("summary");
        // A strict prim demands its operand.
        assert_eq!(s("sq").demands, vec![true]);
        // A discarded parameter is not demanded.
        assert_eq!(s("konst").demands, vec![true, false]);
        // The scrutinee is demanded; the branches disagree on a/b.
        assert_eq!(s("choose").demands, vec![true, false, false]);
        // seq incorporates only its first operand's set: `seq (Bad s) b`
        // is `Bad s` whatever `b` is.
        assert_eq!(s("both").demands, vec![true, false]);
        // Binding without forcing is not a demand.
        assert_eq!(s("discard").demands, vec![false]);
    }

    #[test]
    fn demand_flows_through_saturated_calls_and_lets() {
        let (an, _, _) = analyze_src(
            "sq x = x * x\n\
             viaCall a = sq a\n\
             viaLet b = let t = b + 1 in t * 2\n\
             lazyCon c = Pair c 1",
        );
        let s = |n: &str| an.summary(urk_syntax::Symbol::intern(n)).expect("summary");
        // sq demands its parameter, so a saturated call transfers demand.
        assert_eq!(s("viaCall").demands, vec![true]);
        // Forcing a let-bound local forces its right-hand side.
        assert_eq!(s("viaLet").demands, vec![true]);
        // Constructor fields are lazy (§4.2): no demand.
        assert_eq!(s("lazyCon").demands, vec![false]);
    }

    #[test]
    fn demand_is_optimistic_on_cycles_and_implies_uses() {
        let (an, _, prog) = analyze_src(
            "loop x = if x == 0 then 0 else loop (x - 1)\n\
             sq y = y * y",
        );
        let s = |n: &str| an.summary(urk_syntax::Symbol::intern(n)).expect("summary");
        // The greatest fixpoint: the scrutinee `x == 0` demands x, and the
        // recursive call keeps the optimistic bit.
        assert_eq!(s("loop").demands, vec![true]);
        let facts = an.binding_facts(&prog.binds);
        for (f, name) in facts.iter().zip(["loop", "sq"]) {
            let sum = an
                .summary(urk_syntax::Symbol::intern(name))
                .expect("summary");
            assert_eq!(f.demands.len(), f.arity);
            for (i, d) in f.demands.iter().enumerate() {
                assert!(!*d || sum.uses[i], "demanded ⇒ used for {name}[{i}]");
            }
        }
    }

    #[test]
    fn exception_observers_swallow_demand() {
        let (an, _, _) = analyze_src(
            "probe x = case unsafeIsException x of { True -> 1; False -> 0 }\n\
             mapped m = mapException (\\e -> Overflow) (m + 1)\n\
             thrown t = raise (UserError \"boom\")",
        );
        let s = |n: &str| an.summary(urk_syntax::Symbol::intern(n)).expect("summary");
        // The observer never lets the subject's exception escape.
        assert_eq!(s("probe").demands, vec![false]);
        // mapException replaces the subject's set: nothing of `m` is
        // incorporated.
        assert_eq!(s("mapped").demands, vec![false]);
        // An always-raising body raises its own set, not `t`'s.
        assert_eq!(s("thrown").demands, vec![false]);
    }

    #[test]
    fn lint_flags_always_raising_and_dead_branches() {
        let (_, data, prog) = analyze_src(
            "boom x = (1 / 0) + x\n\
             dead y = case unsafeIsException (y + 0 * y) of { True -> 1; False -> 2 }",
        );
        let diags = lint_program(&prog, &data);
        assert!(
            diags.iter().any(|d| d.code == LintCode::AlwaysRaises
                && d.binding == urk_syntax::Symbol::intern("boom")),
            "expected URK001 in {diags:?}"
        );
        // `y + 0 * y` is opaque, not provably safe, so no dead branch is
        // claimed there; use a manifestly safe subject instead.
        let (_, data2, prog2) =
            analyze_src("dead2 = case unsafeIsException 42 of { True -> 1; False -> 2 }");
        let diags2 = lint_program(&prog2, &data2);
        assert!(
            diags2
                .iter()
                .any(|d| d.code == LintCode::DeadExceptionBranch),
            "expected URK003 in {diags2:?}"
        );
    }

    #[test]
    fn lint_flags_match_may_fail_and_unreachable_alts() {
        let (_, data, prog) = analyze_src("partial x = case x of { True -> 1 }");
        let diags = lint_program(&prog, &data);
        assert!(
            diags.iter().any(|d| d.code == LintCode::MatchMayFail),
            "expected URK004 in {diags:?}"
        );
        // An early default folds the rest away at desugar time, so use a
        // known-literal scrutinee to exercise value-based unreachability.
        let (_, data2, prog2) = analyze_src("shadow = let k = 1 in case k of { 1 -> 10; 2 -> 20 }");
        let diags2 = lint_program(&prog2, &data2);
        assert!(
            diags2.iter().any(|d| d.code == LintCode::UnreachableAlt),
            "expected URK002 in {diags2:?}"
        );
        let _ = &prog.binds;
    }
}
