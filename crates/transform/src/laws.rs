//! The law corpus and validator — the machine-checked version of §4.5's
//! discussion of which identities hold, which become refinements, and
//! which are lost, across the three competing semantics of §3.4.
//!
//! Each [`LawInstance`] is a concrete lhs/rhs pair (typically the paper's
//! own worked example). [`classify`] evaluates both sides under
//!
//! * the **imprecise** denotational semantics (exception sets),
//! * the **precise** baseline, both left-to-right and right-to-left, and
//! * the **non-deterministic** baseline (outcome-set enumeration),
//!
//! and reports a [`Verdict`] for each. `examples/law_tables.rs` prints the
//! resulting table; `EXPERIMENTS.md` records it against the paper's
//! claims.

use std::collections::BTreeSet;
use std::rc::Rc;

use urk_analysis::Analysis;
use urk_denot::{
    compare_denots, enumerate_outcomes, DenotConfig, DenotEvaluator, Design, EvalOrder,
    NondetConfig, Verdict,
};
use urk_syntax::core::Expr;
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

use crate::rewrite::apply_everywhere;
use crate::transforms::{CaseOfCase, LetToCase};

/// One concrete law: a lhs/rhs pair of closed core expressions.
#[derive(Clone, Debug)]
pub struct LawInstance {
    /// Short identifier, e.g. `plus-commute`.
    pub name: &'static str,
    /// Paper section the law comes from.
    pub section: &'static str,
    /// One-line description.
    pub description: &'static str,
    pub lhs: Rc<Expr>,
    pub rhs: Rc<Expr>,
}

/// The verdicts for one law under every semantics.
#[derive(Clone, Debug)]
pub struct LawReport {
    pub name: &'static str,
    pub section: &'static str,
    pub description: &'static str,
    /// The paper's semantics (§4).
    pub imprecise: Verdict,
    /// Precise baseline, left-to-right (§3.4 design 1).
    pub precise_l2r: Verdict,
    /// Precise baseline, right-to-left.
    pub precise_r2l: Verdict,
    /// Non-deterministic baseline (§3.4 design 2), judged on outcome sets.
    pub nondet: Verdict,
}

impl LawReport {
    /// True if the lhs→rhs rewrite is legitimate under the imprecise
    /// semantics (identity or refinement) — the paper's criterion.
    pub fn valid_under_imprecise(&self) -> bool {
        self.imprecise.is_valid_rewrite()
    }
}

fn core(src: &str) -> Rc<Expr> {
    let data = DataEnv::new();
    Rc::new(desugar_expr(&parse_expr_src(src).expect("law parses"), &data).expect("law desugars"))
}

/// The standard corpus: every law the paper discusses, instantiated on the
/// paper's own example terms.
pub fn standard_laws() -> Vec<LawInstance> {
    let mut laws = vec![
        LawInstance {
            name: "plus-commute-exceptional",
            section: "§3.4",
            description: "e1 + e2 = e2 + e1 when both raise",
            lhs: core(r#"(1/0) + raise (UserError "Urk")"#),
            rhs: core(r#"raise (UserError "Urk") + (1/0)"#),
        },
        LawInstance {
            name: "plus-commute-normal",
            section: "§3.4",
            description: "e1 + e2 = e2 + e1 on normal values",
            lhs: core("(1 + 2) + (3 * 4)"),
            rhs: core("(3 * 4) + (1 + 2)"),
        },
        LawInstance {
            name: "beta-discard",
            section: "§4.2",
            description: "(\\x -> 3)(1/0) = 3: unused exceptional arguments vanish",
            lhs: core(r"(\x -> 3) (1/0)"),
            rhs: core("3"),
        },
        LawInstance {
            name: "let-inline-pure",
            section: "§3.5",
            description: "let x = e in x + x  =  e + e (work duplication only)",
            lhs: core("let x = (1/0) + raise Overflow in x + x"),
            rhs: core("((1/0) + raise Overflow) + ((1/0) + raise Overflow)"),
        },
        LawInstance {
            name: "let-inline-get-exception",
            section: "§3.4–3.5",
            description: "the paper's beta example with getException in the result",
            lhs: core(
                r#"let x = (1/0) + raise (UserError "Urk")
                   in (getException x, getException x)"#,
            ),
            rhs: core(
                r#"(getException ((1/0) + raise (UserError "Urk")),
                    getException ((1/0) + raise (UserError "Urk")))"#,
            ),
        },
        LawInstance {
            name: "case-switch",
            section: "§4",
            description: "case x of (a,b) -> case y of (p,q) -> e  =  case y ... case x ...",
            lhs: core(
                "case raise Overflow of { (a, b) ->
                   case raise DivideByZero of { (p, q) -> a + p } }",
            ),
            rhs: core(
                "case raise DivideByZero of { (p, q) ->
                   case raise Overflow of { (a, b) -> a + p } }",
            ),
        },
        LawInstance {
            name: "case-pushdown",
            section: "§4.5",
            description: "(case e of {T->f;F->g}) x ⊑ case e of {T->f x; F->g x} (the paper's refinement)",
            lhs: core(
                "(case raise Overflow of { True -> \\v -> 1; False -> \\v -> 1 })
                   (raise DivideByZero)",
            ),
            rhs: core(
                "case raise Overflow of
                   { True -> (\\v -> 1) (raise DivideByZero)
                   ; False -> (\\v -> 1) (raise DivideByZero) }",
            ),
        },
        LawInstance {
            name: "error-this-that",
            section: "§4.5",
            description: "error \"This\" = error \"That\" — the lost law, lost rightly",
            lhs: core(r#"raise (UserError "This")"#),
            rhs: core(r#"raise (UserError "That")"#),
        },
        LawInstance {
            name: "eta-reduction",
            section: "§4.2",
            description: "\\x -> f x = f fails when f is exceptional (λx.⊥ ≠ ⊥)",
            lhs: core(r"\x -> (raise Overflow) x"),
            rhs: core("raise Overflow"),
        },
        LawInstance {
            name: "collapse-identical-alts-exceptional",
            section: "§5.3",
            description:
                "case v of {T->e;F->e} vs e with exceptional v — the -fno-pedantic-bottoms proof obligation",
            lhs: core("case raise Overflow of { True -> 42; False -> 42 }"),
            rhs: core("42"),
        },
        LawInstance {
            name: "collapse-identical-alts-normal",
            section: "§5.3",
            description: "case v of {T->e;F->e} = e when v is a normal value",
            lhs: core("case (1 < 2) of { True -> 42; False -> 42 }"),
            rhs: core("42"),
        },
        LawInstance {
            name: "collapse-identical-alts-bottom",
            section: "§5.3",
            description: "case ⊥ of {T->e;F->e} ⊑ e (refinement at ⊥)",
            lhs: {
                let diverge = Expr::diverge();
                Rc::new(Expr::case(
                    diverge,
                    vec![
                        urk_syntax::core::Alt::con("True", vec![], Expr::int(42)),
                        urk_syntax::core::Alt::con("False", vec![], Expr::int(42)),
                    ],
                ))
            },
            rhs: core("42"),
        },
        LawInstance {
            name: "map-exception-identity",
            section: "§5.4",
            description: "mapException id e = e (pure, set-wide)",
            lhs: core(r"mapException (\e -> e) ((1/0) + raise Overflow)"),
            rhs: core("(1/0) + raise Overflow"),
        },
        LawInstance {
            name: "map-exception-compose",
            section: "§5.4",
            description: "mapException f . mapException g = mapException (f . g)",
            lhs: core(
                r#"mapException (\e -> Overflow)
                     (mapException (\e -> UserError "g") ((1/0) + raise Overflow))"#,
            ),
            rhs: core(r"mapException (\e -> Overflow) ((1/0) + raise Overflow)"),
        },
        LawInstance {
            name: "map-exception-normal",
            section: "§5.4",
            description: "mapException f v = v on normal values (f never forced)",
            lhs: core(r#"mapException (\e -> UserError "Urk") (6 * 7)"#),
            rhs: core("42"),
        },
        LawInstance {
            name: "seq-of-value",
            section: "§3.2",
            description: "seq v e = e when v is a normal value",
            lhs: core("seq 5 (1/0)"),
            rhs: core("1/0"),
        },
        LawInstance {
            name: "let-float-from-lambda",
            section: "§2.3",
            description: "\\x -> let y = e in b  =  let y = e in \\x -> b (full laziness)",
            lhs: core(r"\x -> let y = 1/0 in y + x"),
            rhs: core(r"let y = 1/0 in \x -> y + x"),
        },
    ];

    // case-of-case, on an exceptional scrutinee, rhs generated by the
    // actual transformation.
    let coc_lhs = core(
        "case (case raise Overflow of { True -> False; False -> True }) of
           { True -> 1/0; False -> 2 }",
    );
    let (coc_rhs, n) = apply_everywhere(&CaseOfCase, &coc_lhs);
    debug_assert!(n >= 1, "case-of-case should fire");
    laws.push(LawInstance {
        name: "case-of-case",
        section: "§2.3/§4.5",
        description: "pushing an outer case into the inner alternatives",
        lhs: coc_lhs,
        rhs: Rc::new(coc_rhs),
    });

    // The strictness-driven call-by-value transformation (§3.4), rhs
    // generated by LetToCase on a body that demands its binder.
    let cbv_lhs = core(r#"let x = raise Overflow in raise (UserError "Y") + x"#);
    let analysis = Analysis::default();
    let data = DataEnv::new();
    let let_to_case = LetToCase {
        analyzer: &analysis.analyzer(&data),
    };
    let (cbv_rhs, n) = apply_everywhere(&let_to_case, &cbv_lhs);
    debug_assert!(n >= 1, "let-to-case should fire");
    laws.push(LawInstance {
        name: "strictness-call-by-value",
        section: "§3.4",
        description: "let x = e in b  =  case e of x {_ -> b} when b is strict in x",
        lhs: cbv_lhs,
        rhs: Rc::new(cbv_rhs),
    });

    laws
}

/// Classifies one law under all semantics.
pub fn classify(law: &LawInstance) -> LawReport {
    // The imprecise and precise designs: compare the two denotations.
    let verdict = |design: Design| {
        let config = DenotConfig {
            fuel: 200_000,
            ..DenotConfig::default()
        };
        let ev = DenotEvaluator::with_design(config, design);
        let l = ev.eval_closed(&law.lhs);
        let r = ev.eval_closed(&law.rhs);
        compare_denots(&ev, &l, &r, 8)
    };

    // Non-deterministic: outcome-set comparison. A rewrite is valid when
    // it does not *introduce* behaviours.
    let nondet = {
        let cfg = NondetConfig::default();
        let l = enumerate_outcomes(&law.lhs, &cfg);
        let r = enumerate_outcomes(&law.rhs, &cfg);
        outcome_verdict(&l, &r)
    };

    LawReport {
        name: law.name,
        section: law.section,
        description: law.description,
        imprecise: verdict(Design::Imprecise),
        precise_l2r: verdict(Design::Precise(EvalOrder::LeftToRight)),
        precise_r2l: verdict(Design::Precise(EvalOrder::RightToLeft)),
        nondet,
    }
}

fn outcome_verdict(l: &BTreeSet<String>, r: &BTreeSet<String>) -> Verdict {
    if l == r {
        Verdict::Equal
    } else if r.is_subset(l) {
        // The rewrite removes behaviours: acceptable (refinement).
        Verdict::LeftRefinesToRight
    } else if l.is_subset(r) {
        // The rewrite introduces behaviours: invalid as lhs → rhs.
        Verdict::RightRefinesToLeft
    } else {
        Verdict::Incomparable
    }
}

/// Classifies the whole standard corpus.
pub fn classify_all() -> Vec<LawReport> {
    standard_laws().iter().map(classify).collect()
}

/// Renders reports as a markdown table (used by `examples/law_tables.rs`
/// and `EXPERIMENTS.md`).
pub fn render_table(reports: &[LawReport]) -> String {
    let mut out = String::new();
    out.push_str("| law | paper | imprecise (sets) | precise L→R | precise R→L | nondet |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for r in reports {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.name,
            r.section,
            short(r.imprecise),
            short(r.precise_l2r),
            short(r.precise_r2l),
            short(r.nondet),
        ));
    }
    out
}

fn short(v: Verdict) -> &'static str {
    match v {
        Verdict::Equal => "identity",
        Verdict::LeftRefinesToRight => "refinement",
        Verdict::RightRefinesToLeft => "anti-refinement",
        Verdict::Incomparable => "INVALID",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str) -> LawReport {
        standard_laws()
            .iter()
            .find(|l| l.name == name)
            .map(classify)
            .unwrap_or_else(|| panic!("law '{name}' not in corpus"))
    }

    #[test]
    fn commutativity_holds_imprecisely_fails_precisely() {
        let r = report("plus-commute-exceptional");
        assert_eq!(r.imprecise, Verdict::Equal);
        assert_eq!(r.precise_l2r, Verdict::Incomparable);
        assert_eq!(r.precise_r2l, Verdict::Incomparable);
        // The nondet design also keeps commutativity (same outcome sets).
        assert_eq!(r.nondet, Verdict::Equal);
    }

    #[test]
    fn commutativity_on_normal_values_holds_everywhere() {
        let r = report("plus-commute-normal");
        assert_eq!(r.imprecise, Verdict::Equal);
        assert_eq!(r.precise_l2r, Verdict::Equal);
        assert_eq!(r.precise_r2l, Verdict::Equal);
        assert_eq!(r.nondet, Verdict::Equal);
    }

    #[test]
    fn beta_discard_holds_imprecisely() {
        let r = report("beta-discard");
        assert_eq!(r.imprecise, Verdict::Equal);
        // Laziness makes it hold in the baselines too.
        assert_eq!(r.precise_l2r, Verdict::Equal);
    }

    #[test]
    fn let_inlining_with_get_exception_fails_only_for_nondet() {
        // The paper's key argument for putting getException in IO (§3.5):
        // inlining is an identity in the imprecise semantics but
        // introduces behaviours in the nondeterministic design.
        let r = report("let-inline-get-exception");
        assert_eq!(r.imprecise, Verdict::Equal);
        assert_eq!(r.nondet, Verdict::RightRefinesToLeft);
        assert!(!r.nondet.is_valid_rewrite());
    }

    #[test]
    fn case_switch_is_the_paper_s_section_4_example() {
        let r = report("case-switch");
        assert_eq!(r.imprecise, Verdict::Equal);
        assert_eq!(r.precise_l2r, Verdict::Incomparable);
        assert_eq!(r.precise_r2l, Verdict::Incomparable);
    }

    #[test]
    fn case_pushdown_is_a_refinement_imprecisely() {
        // §4.5: lhs ⊑ rhs, "Bad {E,X}" vs "Bad {E}".
        let r = report("case-pushdown");
        assert_eq!(r.imprecise, Verdict::LeftRefinesToRight);
        assert!(r.valid_under_imprecise());
    }

    #[test]
    fn error_this_that_is_lost_everywhere() {
        let r = report("error-this-that");
        assert_eq!(r.imprecise, Verdict::Incomparable);
        assert_eq!(r.precise_l2r, Verdict::Incomparable);
        assert_eq!(r.nondet, Verdict::Incomparable);
    }

    #[test]
    fn eta_reduction_is_invalid() {
        let r = report("eta-reduction");
        assert!(!r.valid_under_imprecise());
    }

    #[test]
    fn collapse_identical_alts_needs_the_proof_obligation() {
        // §5.3: valid for normal scrutinees, a refinement at ⊥, INVALID on
        // exceptional scrutinees — hence -fno-pedantic-bottoms's proof
        // obligation.
        let normal = report("collapse-identical-alts-normal");
        assert_eq!(normal.imprecise, Verdict::Equal);
        let bottom = report("collapse-identical-alts-bottom");
        assert_eq!(bottom.imprecise, Verdict::LeftRefinesToRight);
        let exceptional = report("collapse-identical-alts-exceptional");
        assert_eq!(exceptional.imprecise, Verdict::Incomparable);
        assert_eq!(exceptional.precise_l2r, Verdict::Incomparable);
    }

    #[test]
    fn strictness_cbv_valid_imprecisely_invalid_precisely() {
        // §3.4's "crucial transformation".
        let r = report("strictness-call-by-value");
        assert_eq!(r.imprecise, Verdict::Equal);
        // Precise L→R evaluates the body's left operand first: UserError
        // "Y"; the case version forces Overflow first. Invalid.
        assert_eq!(r.precise_l2r, Verdict::Incomparable);
    }

    #[test]
    fn case_of_case_is_valid_imprecisely() {
        let r = report("case-of-case");
        assert!(r.valid_under_imprecise(), "{:?}", r.imprecise);
    }

    #[test]
    fn map_exception_algebra_holds() {
        for name in [
            "map-exception-identity",
            "map-exception-compose",
            "map-exception-normal",
        ] {
            let r = report(name);
            assert_eq!(r.imprecise, Verdict::Equal, "{name}");
        }
    }

    #[test]
    fn remaining_laws_are_valid_imprecise_rewrites() {
        for name in ["seq-of-value", "let-float-from-lambda", "let-inline-pure"] {
            let r = report(name);
            assert!(
                r.valid_under_imprecise(),
                "{name} should be valid, got {:?}",
                r.imprecise
            );
        }
    }

    #[test]
    fn table_renders_every_law() {
        let reports = classify_all();
        let table = render_table(&reports);
        for r in &reports {
            assert!(table.contains(r.name));
        }
        assert!(table.contains("identity"));
        assert!(table.contains("INVALID"));
    }
}
