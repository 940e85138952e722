//! The transformation catalogue — the rewrites whose validity the paper's
//! semantics is designed to preserve (§2.3, §3.4, §4.5).
//!
//! Each transformation is a [`Transform`]; the law validator in
//! [`crate::laws`] checks, per semantics, whether each one is an identity,
//! a refinement, or invalid.

use std::rc::Rc;

use urk_analysis::analyze::Analyzer;
use urk_analysis::Analysis;
use urk_syntax::core::{Alt, AltCon, Expr};
use urk_syntax::{Hint, Symbol};

use crate::rewrite::Transform;

/// Beta reduction preserving sharing: `(\x -> b) a  ⇒  let x = a in b`.
pub struct BetaReduce;

impl Transform for BetaReduce {
    fn name(&self) -> &'static str {
        "beta-reduction"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::App(f, a) = e else { return None };
        let Expr::Lam(x, b) = &**f else { return None };
        Some(Expr::Let(*x, a.clone(), b.clone()))
    }
}

/// Let inlining (full substitution): `let x = r in b  ⇒  b[r/x]`.
///
/// Valid in the imprecise semantics (this is the §3.5 point of putting
/// `getException` in `IO`); *invalid* in the non-deterministic design.
pub struct InlineLet;

impl Transform for InlineLet {
    fn name(&self) -> &'static str {
        "let-inlining"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Let(x, r, b) = e else { return None };
        Some(b.subst(*x, r))
    }
}

/// Dead-let elimination: `let x = r in b  ⇒  b` when `x ∉ fv(b)`.
pub struct DeadLetElim;

impl Transform for DeadLetElim {
    fn name(&self) -> &'static str {
        "dead-let-elimination"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Let(x, _, b) = e else { return None };
        (!b.free_vars().contains(x)).then(|| (**b).clone())
    }
}

/// Case-of-known-constructor: `case C a b of { ...; C x y -> r; ... } ⇒
/// let x = a in let y = b in r`.
pub struct CaseOfKnownCon;

impl Transform for CaseOfKnownCon {
    fn name(&self) -> &'static str {
        "case-of-known-constructor"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Case(s, alts) = e else { return None };
        let (con, args): (Symbol, &[Rc<Expr>]) = match &**s {
            Expr::Con(c, args) => (*c, args),
            _ => return None,
        };
        for alt in alts {
            match &alt.con {
                AltCon::Con(c) if *c == con => {
                    let mut out = (*alt.rhs).clone();
                    for (b, a) in alt.binders.iter().zip(args).rev() {
                        out = Expr::Let(*b, a.clone(), Rc::new(out));
                    }
                    return Some(out);
                }
                AltCon::Default => {
                    let mut out = (*alt.rhs).clone();
                    if let Some(b) = alt.binders.first() {
                        out = Expr::Let(*b, s.clone(), Rc::new(out));
                    }
                    return Some(out);
                }
                _ => continue,
            }
        }
        None
    }
}

/// Literal-case selection: `case 3 of { 3 -> a; ... } ⇒ a`.
pub struct CaseOfLiteral;

impl Transform for CaseOfLiteral {
    fn name(&self) -> &'static str {
        "case-of-literal"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Case(s, alts) = e else { return None };
        let lit = match &**s {
            Expr::Int(n) => AltCon::Int(*n),
            Expr::Char(c) => AltCon::Char(*c),
            Expr::Str(st) => AltCon::Str(st.clone()),
            _ => return None,
        };
        for alt in alts {
            if alt.con == lit {
                return Some((*alt.rhs).clone());
            }
            if alt.con == AltCon::Default {
                let mut out = (*alt.rhs).clone();
                if let Some(b) = alt.binders.first() {
                    out = Expr::Let(*b, s.clone(), Rc::new(out));
                }
                return Some(out);
            }
        }
        None
    }
}

/// Commute the arguments of a commutative primitive: `a + b ⇒ b + a`.
///
/// The paper's motivating transformation (§3.4): valid with exception
/// *sets*, invalid in the precise design.
pub struct CommutePrimArgs;

impl Transform for CommutePrimArgs {
    fn name(&self) -> &'static str {
        "commute-primop-arguments"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Prim(op, args) = e else { return None };
        (op.is_commutative() && args.len() == 2)
            .then(|| Expr::Prim(*op, vec![args[1].clone(), args[0].clone()]))
    }
}

/// Case-of-case: push an outer case into the alternatives of an inner one.
///
/// ```text
/// case (case s of { p -> r; ... }) of alts
///   ⇒ case s of { p -> case r of alts; ... }
/// ```
pub struct CaseOfCase;

impl Transform for CaseOfCase {
    fn name(&self) -> &'static str {
        "case-of-case"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Case(s, outer_alts) = e else {
            return None;
        };
        let Expr::Case(inner_s, inner_alts) = &**s else {
            return None;
        };
        // Binder capture: inner binders must not capture the free
        // variables of the outer alternatives.
        let outer_fv: std::collections::BTreeSet<Symbol> = outer_alts
            .iter()
            .flat_map(|a| {
                let mut fv = a.rhs.free_vars();
                for b in &a.binders {
                    fv.remove(b);
                }
                fv
            })
            .collect();
        if inner_alts
            .iter()
            .any(|a| a.binders.iter().any(|b| outer_fv.contains(b)))
        {
            return None;
        }
        let pushed: Vec<Alt> = inner_alts
            .iter()
            .map(|a| Alt {
                con: a.con.clone(),
                binders: a.binders.clone(),
                rhs: Rc::new(Expr::Case(a.rhs.clone(), outer_alts.clone())),
            })
            .collect();
        Some(Expr::Case(inner_s.clone(), pushed))
    }
}

/// Eta reduction: `\x -> f x ⇒ f` when `x ∉ fv(f)`.
///
/// *Invalid* under the paper's semantics (`λx.⊥x ≠ ⊥`); kept in the
/// catalogue so the law validator can demonstrate the loss.
pub struct EtaReduce;

impl Transform for EtaReduce {
    fn name(&self) -> &'static str {
        "eta-reduction"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Lam(x, b) = e else { return None };
        let Expr::App(f, a) = &**b else { return None };
        let Expr::Var(v) = &**a else { return None };
        (v == x && !f.free_vars().contains(x)).then(|| (**f).clone())
    }
}

/// Collapse a case whose alternatives are all identical and binder-free:
/// `case v of { True -> e; False -> e } ⇒ e`.
///
/// This is the `-fno-pedantic-bottoms` family (§5.3's footnote): it holds
/// when `v` is a *normal* value, and is a refinement when `v = ⊥` — but it
/// is **invalid** when `v` is a proper exceptional value (`lhs` then
/// carries `S(v)`, which `rhs` forgets). Enabling it therefore carries the
/// paper's proof obligation; the law validator exhibits all three cases.
pub struct CollapseIdenticalAlts;

impl Transform for CollapseIdenticalAlts {
    fn name(&self) -> &'static str {
        "collapse-identical-alternatives"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Case(_, alts) = e else { return None };
        let first = alts.first()?;
        if !first.binders.is_empty() {
            return None;
        }
        let all_same = alts
            .iter()
            .all(|a| a.binders.is_empty() && a.rhs.alpha_eq(&first.rhs));
        // Only sound-as-refinement when the alternatives cover the normal
        // cases; require a default or treat any-match as fine (the rewrite
        // is a refinement either way: failure branches only shrink the set).
        all_same.then(|| (*first.rhs).clone())
    }
}

/// Strictness-driven call-by-value: `let x = r in b ⇒ case r of x { _ -> b }`
/// when `b` demands `x`.
///
/// "Haskell compilers perform strictness analysis to turn call-by-need
/// into call-by-value. This crucial transformation changes the evaluation
/// order" (§3.4) — valid with exception sets, invalid in the precise
/// design. Demand (`x`'s exception set is contained in `b`'s) is
/// decided by `urk-analysis`'s [`Analyzer::demands`].
pub struct LetToCase<'a> {
    /// The demand oracle, over the program's summaries.
    pub analyzer: &'a Analyzer<'a>,
}

impl Transform for LetToCase<'_> {
    fn name(&self) -> &'static str {
        "let-to-case (call-by-value)"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Let(x, r, b) = e else { return None };
        // Avoid self-referential bindings and re-transforming.
        if r.free_vars().contains(x) {
            return None;
        }
        if matches!(
            &**r,
            Expr::Var(_) | Expr::Int(_) | Expr::Lam(_, _) | Expr::Con(_, _)
        ) {
            return None; // already cheap / already a value
        }
        self.analyzer
            .demands(*x, b)
            .then(|| Expr::Case(r.clone(), vec![Alt::default_bind(*x, (**b).clone())]))
    }
}

/// Call-site call-by-value: `f e1 ... en ⇒ case e_i of v_i { _ -> f ... v_i ... }`
/// for every argument position `f`'s demand vector marks demanded.
///
/// This is how §3.4's "crucial transformation" actually lands in compiled
/// code: a strict argument is evaluated *before* the call instead of being
/// suspended in a thunk — saving the allocation, the later forced entry,
/// and the update. Changing the evaluation order like this is exactly what
/// the exception-set semantics licenses.
pub struct StrictCallSites<'a> {
    /// The whole-program analysis whose summaries carry the demand
    /// vectors.
    pub analysis: &'a Analysis,
    /// Optional upgrade from the exception-effect analysis: an argument
    /// this predicate proves WHNF-safe (cannot raise, cannot diverge) may
    /// be pre-evaluated even in a position demand is inconclusive about
    /// — moving a provably-effect-free evaluation earlier is invisible.
    pub arg_safe: Option<&'a dyn Fn(&Expr) -> bool>,
}

/// Arguments that are already values (or variables) gain nothing from
/// pre-evaluation.
fn is_atomic(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) | Expr::Lam(_, _)
    ) || matches!(e, Expr::Con(_, args) if args.is_empty())
}

impl Transform for StrictCallSites<'_> {
    fn name(&self) -> &'static str {
        "strict-call-sites (call-by-value)"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        // Flatten the application spine.
        let mut args: Vec<Rc<Expr>> = Vec::new();
        let mut head = e;
        while let Expr::App(f, a) = head {
            args.push(a.clone());
            head = f;
        }
        let Expr::Var(f) = head else { return None };
        args.reverse();
        let sig = &self.analysis.summary(*f)?.demands;
        if sig.len() != args.len() {
            return None; // partial or over-saturated application
        }
        let worth_it: Vec<usize> = (0..args.len())
            .filter(|&i| {
                (sig[i] || self.arg_safe.is_some_and(|safe| safe(&args[i]))) && !is_atomic(&args[i])
            })
            .collect();
        if worth_it.is_empty() {
            return None;
        }
        // case a_i of v_i { _ -> ... f ... v_i ... }, left to right.
        let mut new_args = args.clone();
        let mut binds = Vec::new();
        for &i in &worth_it {
            let v = Symbol::fresh(Hint::Str);
            binds.push((v, args[i].clone()));
            new_args[i] = Rc::new(Expr::Var(v));
        }
        let call = Expr::apps(Expr::Var(*f), new_args.iter().map(|a| (**a).clone()));
        let out = binds.into_iter().rev().fold(call, |acc, (v, scrut)| {
            Expr::Case(scrut, vec![Alt::default_bind(v, acc)])
        });
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{apply_everywhere, apply_to_fixpoint};
    use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

    fn core(src: &str) -> Expr {
        let env = DataEnv::new();
        desugar_expr(&parse_expr_src(src).expect("parses"), &env).expect("desugars")
    }

    fn analysis_of(src: &str) -> Analysis {
        let mut data = DataEnv::new();
        let prog = urk_syntax::desugar_program(
            &urk_syntax::parse_program(src).expect("parses"),
            &mut data,
        )
        .expect("desugars");
        urk_analysis::analyze_program(&prog, &data)
    }

    #[test]
    fn beta_builds_a_let() {
        let e = core(r"(\x -> x + x) (1/0)");
        let (out, n) = apply_everywhere(&BetaReduce, &e);
        assert_eq!(n, 1);
        assert!(matches!(out, Expr::Let(_, _, _)));
    }

    #[test]
    fn inline_let_substitutes() {
        let e = core("let x = 1 + 2 in x * x");
        let (out, n) = apply_everywhere(&InlineLet, &e);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&core("(1 + 2) * (1 + 2)")));
    }

    #[test]
    fn dead_let_fires_only_when_unused() {
        let dead = core("let x = 1/0 in 42");
        let (out, n) = apply_everywhere(&DeadLetElim, &dead);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&Expr::int(42)));
        let live = core("let x = 1 in x");
        let (_, n2) = apply_everywhere(&DeadLetElim, &live);
        assert_eq!(n2, 0);
    }

    #[test]
    fn case_of_known_constructor_selects() {
        let e = core("case Just 3 of { Just n -> n + 1; Nothing -> 0 }");
        let (out, n) = apply_to_fixpoint(&CaseOfKnownCon, &e, 4);
        assert!(n >= 1);
        // After also inlining the let, we'd get 3 + 1; here a let remains.
        let (inlined, _) = apply_to_fixpoint(&InlineLet, &out, 4);
        assert!(inlined.alpha_eq(&core("3 + 1")), "{inlined:?}");
    }

    #[test]
    fn case_of_literal_selects() {
        let e = core("case 2 of { 1 -> 10; 2 -> 20; _ -> 30 }");
        let (out, n) = apply_everywhere(&CaseOfLiteral, &e);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&Expr::int(20)));
    }

    #[test]
    fn commute_swaps_commutative_ops_only() {
        let add = core("1 + 2");
        let (out, n) = apply_everywhere(&CommutePrimArgs, &add);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&core("2 + 1")));
        let sub = core("1 - 2");
        let (_, n2) = apply_everywhere(&CommutePrimArgs, &sub);
        assert_eq!(n2, 0);
    }

    #[test]
    fn case_of_case_pushes_the_outer_case_in() {
        let e =
            core("case (case b of { True -> False; False -> True }) of { True -> 1; False -> 2 }");
        let (out, n) = apply_everywhere(&CaseOfCase, &e);
        assert_eq!(n, 1);
        let Expr::Case(s, alts) = &out else {
            panic!("{out:?}")
        };
        assert!(matches!(&**s, Expr::Var(_)));
        assert!(matches!(&*alts[0].rhs, Expr::Case(_, _)));
    }

    #[test]
    fn eta_reduce_fires_with_capture_check() {
        let e = core(r"\x -> f x");
        let (out, n) = apply_everywhere(&EtaReduce, &e);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&Expr::var("f")));
        // \x -> x x must not eta-reduce.
        let (_, n2) = apply_everywhere(&EtaReduce, &core(r"\x -> g x x"));
        assert_eq!(n2, 0);
    }

    #[test]
    fn collapse_identical_alternatives() {
        let e = core("case b of { True -> 42; False -> 42 }");
        let (out, n) = apply_everywhere(&CollapseIdenticalAlts, &e);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&Expr::int(42)));
        let differing = core("case b of { True -> 1; False -> 2 }");
        let (_, n2) = apply_everywhere(&CollapseIdenticalAlts, &differing);
        assert_eq!(n2, 0);
    }

    #[test]
    fn strict_call_sites_force_strict_arguments_only() {
        // Demands the first argument only.
        let analysis = analysis_of("f a b = a + 0");
        let e = core("f (1 + 2) (3 + 4)");
        let t = StrictCallSites {
            analysis: &analysis,
            arg_safe: None,
        };
        let (out, n) = apply_everywhere(&t, &e);
        assert_eq!(n, 1);
        // Shape: case (1+2) of v { _ -> f v (3+4) }
        let Expr::Case(scrut, alts) = &out else {
            panic!("{out:?}")
        };
        assert!(matches!(&**scrut, Expr::Prim(_, _)));
        assert_eq!(alts.len(), 1);
        assert_eq!(alts[0].binders.len(), 1);
        // Atomic arguments are left alone.
        let (_, n2) = apply_everywhere(&t, &core("f x (3 + 4)"));
        assert_eq!(n2, 0);
        // Partial applications are left alone.
        let (_, n3) = apply_everywhere(&t, &core("f (1 + 2)"));
        assert_eq!(n3, 0);
    }

    #[test]
    fn strict_call_sites_reach_a_fixpoint() {
        let analysis = analysis_of("g x = x + 1");
        let e = core("g (g (1 + 2))");
        let t = StrictCallSites {
            analysis: &analysis,
            arg_safe: None,
        };
        let (out, n) = apply_to_fixpoint(&t, &e, 8);
        assert_eq!(n, 2);
        // No further rewrites.
        let (_, n2) = apply_everywhere(&t, &out);
        assert_eq!(n2, 0);
    }

    #[test]
    fn let_to_case_fires_only_on_demanded_binders() {
        let analysis = Analysis::default();
        let data = DataEnv::new();
        let t = LetToCase {
            analyzer: &analysis.analyzer(&data),
        };
        let e = core("let x = 1 + 2 in x * 3");
        let (out, n) = apply_everywhere(&t, &e);
        assert_eq!(n, 1);
        let Expr::Case(_, alts) = &out else {
            panic!("{out:?}")
        };
        assert_eq!(alts[0].con, AltCon::Default);
        assert_eq!(alts[0].binders.len(), 1);

        // A constructor field is lazy: `x` is not demanded.
        let (_, n2) = apply_everywhere(&t, &core("let x = 1 + 2 in Just x"));
        assert_eq!(n2, 0);
    }
}
