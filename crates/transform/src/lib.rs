//! # urk-transform
//!
//! The transformation layer of the PLDI 1999 reproduction:
//!
//! * [`transforms`] — the catalogue of rewrites the imprecise semantics is
//!   designed to keep (beta, inlining, commutation, case-of-case,
//!   strictness-driven call-by-value, ...), each a [`Transform`] usable
//!   with the [`rewrite`] engine; §3.4's "crucial" call-by-need →
//!   call-by-value passes read the demand vectors of `urk-analysis`;
//! * [`licensed`] — rewrites that fire only under proofs from the
//!   `urk-analysis` exception-effect analysis (dead-alternative pruning,
//!   `unsafeIsException`/`unsafeGetException` folding, licensed
//!   alternative collapse);
//! * [`exval`] — the §2.2 explicit `ExVal` encoding baseline, used by the
//!   benchmarks to regenerate the paper's efficiency claims;
//! * [`laws`] — the law corpus and validator regenerating §4.5's
//!   identity/refinement/lost classification across all three candidate
//!   semantics.

pub mod exval;
pub mod laws;
pub mod licensed;
pub mod pipeline;
pub mod rewrite;
pub mod transforms;

pub use exval::{encode_expr, encode_program, EncodeError};
pub use laws::{classify, classify_all, render_table, standard_laws, LawInstance, LawReport};
pub use licensed::LicensedRewriter;
pub use pipeline::{InlineWorkSafe, OptimizeOptions, OptimizeReport, Optimizer};
pub use rewrite::{apply_everywhere, apply_to_fixpoint, Transform};
pub use transforms::{
    BetaReduce, CaseOfCase, CaseOfKnownCon, CaseOfLiteral, CollapseIdenticalAlts, CommutePrimArgs,
    DeadLetElim, EtaReduce, InlineLet, LetToCase, StrictCallSites,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use urk_denot::{compare_denots, DenotEvaluator, Verdict};
    use urk_syntax::core::Expr;
    use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

    fn core(src: &str) -> Rc<Expr> {
        let data = DataEnv::new();
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"))
    }

    /// Every transformation in the catalogue, applied to a corpus of
    /// exception-heavy terms, must be a valid rewrite (identity or
    /// refinement) under the imprecise semantics.
    #[test]
    fn catalogue_is_sound_under_the_imprecise_semantics() {
        let corpus = [
            r#"(1/0) + raise (UserError "Urk")"#,
            r"(\x -> x + x) (1/0)",
            r"(\x -> 3) (raise Overflow)",
            "let x = raise Overflow in x + x",
            "let x = 1/0 in 42",
            "case Just (1/0) of { Just n -> n + 1; Nothing -> 0 }",
            "case 2 of { 1 -> 1/0; 2 -> 20; _ -> raise Overflow }",
            "case (case raise Overflow of { True -> False; False -> True }) of { True -> 1; False -> 2 }",
            "case raise Overflow of { True -> 7; False -> 7 }",
            "seq (1/0) (raise Overflow)",
            "(1 + 2) * (3 - 4)",
        ];
        let analysis = urk_analysis::Analysis::default();
        let data = DataEnv::new();
        let analyzer = analysis.analyzer(&data);
        let transforms: Vec<Box<dyn Transform>> = vec![
            Box::new(BetaReduce),
            Box::new(InlineLet),
            Box::new(DeadLetElim),
            Box::new(CaseOfKnownCon),
            Box::new(CaseOfLiteral),
            Box::new(CommutePrimArgs),
            Box::new(CaseOfCase),
            Box::new(LetToCase {
                analyzer: &analyzer,
            }),
        ];
        for src in corpus {
            let e = core(src);
            for t in &transforms {
                let (out, n) = apply_everywhere(t.as_ref(), &e);
                if n == 0 {
                    continue;
                }
                let ev = DenotEvaluator::new();
                let dl = ev.eval_closed(&e);
                let dr = ev.eval_closed(&Rc::new(out));
                let verdict = compare_denots(&ev, &dl, &dr, 8);
                assert!(
                    verdict.is_valid_rewrite(),
                    "{} on `{src}` gave {verdict:?}",
                    t.name()
                );
            }
        }
    }

    /// The two proof-obligation transforms (§5.3): collapsing identical
    /// alternatives is fine on normal scrutinees but invalid on
    /// exceptional ones — the checker must notice both.
    #[test]
    fn collapse_identical_alts_obligation_is_detected() {
        let safe = core("case (1 < 2) of { True -> 7; False -> 7 }");
        let (out, n) = apply_everywhere(&CollapseIdenticalAlts, &safe);
        assert_eq!(n, 1);
        let ev = DenotEvaluator::new();
        let verdict = compare_denots(
            &ev,
            &ev.eval_closed(&safe),
            &ev.eval_closed(&Rc::new(out)),
            8,
        );
        assert_eq!(verdict, Verdict::Equal);

        let unsafe_ = core("case raise Overflow of { True -> 7; False -> 7 }");
        let (out2, n2) = apply_everywhere(&CollapseIdenticalAlts, &unsafe_);
        assert_eq!(n2, 1);
        let verdict2 = compare_denots(
            &ev,
            &ev.eval_closed(&unsafe_),
            &ev.eval_closed(&Rc::new(out2)),
            8,
        );
        assert_eq!(verdict2, Verdict::Incomparable);
    }

    /// Eta reduction is the catalogue's designated counter-example: it is
    /// *not* valid (λx.⊥ ≠ ⊥), and the checker must notice.
    #[test]
    fn eta_reduction_is_caught_as_invalid() {
        let e = core(r"\x -> (raise Overflow) x");
        let (out, n) = apply_everywhere(&EtaReduce, &e);
        assert_eq!(n, 1);
        let ev = DenotEvaluator::new();
        let dl = ev.eval_closed(&e);
        let dr = ev.eval_closed(&Rc::new(out));
        assert_eq!(compare_denots(&ev, &dl, &dr, 8), Verdict::Incomparable);
    }

    /// The pipeline combination used by `urk`'s optimiser: analyse
    /// demand, then let-to-case, then simplify — and the result still
    /// matches the original denotationally.
    #[test]
    fn optimisation_pipeline_preserves_meaning() {
        use urk_syntax::{desugar_program, parse_program};
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)")
                .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let analysis = urk_analysis::analyze_program(&prog, &data);
        let sum_to = analysis
            .summary(urk_syntax::Symbol::intern("sumTo"))
            .expect("summary");
        assert_eq!(sum_to.demands, vec![true, true]);

        let e = core("let k = 3 * 4 in k + k");
        let analyzer = analysis.analyzer(&data);
        let (cbv, n) = apply_everywhere(
            &LetToCase {
                analyzer: &analyzer,
            },
            &e,
        );
        assert_eq!(n, 1);
        let ev = DenotEvaluator::new();
        let a = ev.eval_closed(&e);
        let b = ev.eval_closed(&Rc::new(cbv));
        assert_eq!(compare_denots(&ev, &a, &b, 8), Verdict::Equal);
    }
}
