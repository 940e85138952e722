//! The optimisation pipeline — the paper's *point*, assembled.
//!
//! §2.3's goal is that "all transformations that are valid for ordinary
//! Haskell programs should be valid for the language extended with
//! exceptions"; this module is the compiler that banks on it. The
//! [`Optimizer`] runs a GHC-flavoured simplifier (beta, case-of-known,
//! case-of-literal, case-of-case, work-safe inlining, dead-let) to a
//! fixpoint, optionally followed by the demand-driven call-by-value pass
//! of §3.4 — every one of them an evaluation-order- or
//! sharing-changing rewrite that only the imprecise semantics licenses
//! wholesale.
//!
//! With [`Optimizer::optimize_validated`], the pipeline double-checks
//! itself: each query expression's denotation after optimisation must be
//! an identity or refinement (`⊑`) of the one before, per §4.5's
//! criterion.

use std::rc::Rc;

use urk_denot::{compare_denots, DenotConfig, DenotEvaluator, Env, Verdict};
use urk_syntax::core::{CoreProgram, Expr};
use urk_syntax::{DataEnv, Symbol};

use crate::licensed::LicensedRewriter;
use crate::rewrite::{apply_everywhere, Transform};
use crate::transforms::{
    BetaReduce, CaseOfCase, CaseOfKnownCon, CaseOfLiteral, DeadLetElim, LetToCase, StrictCallSites,
};

/// Work-safe let inlining: inline when the right-hand side is atomic (no
/// work to duplicate) or the binder occurs at most once — and that one
/// occurrence is not under a lambda. A single occurrence inside a lambda
/// body re-evaluates the right-hand side on *every call*, where the `let`
/// evaluated (and shared) it once; such occurrences count as many.
pub struct InlineWorkSafe;

/// Does `v` occur free under a lambda within `e`?
fn occurs_under_lambda(e: &Expr, v: Symbol) -> bool {
    match e {
        Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => false,
        Expr::Con(_, args) | Expr::Prim(_, args) => args.iter().any(|a| occurs_under_lambda(a, v)),
        Expr::App(f, a) => occurs_under_lambda(f, v) || occurs_under_lambda(a, v),
        Expr::Lam(x, b) => *x != v && b.count_var(v) > 0,
        Expr::Let(x, r, b) => occurs_under_lambda(r, v) || (*x != v && occurs_under_lambda(b, v)),
        Expr::LetRec(binds, b) => {
            if binds.iter().any(|(x, _)| *x == v) {
                false
            } else {
                binds.iter().any(|(_, r)| occurs_under_lambda(r, v)) || occurs_under_lambda(b, v)
            }
        }
        Expr::Case(s, alts) => {
            occurs_under_lambda(s, v)
                || alts
                    .iter()
                    .any(|a| !a.binders.contains(&v) && occurs_under_lambda(&a.rhs, v))
        }
        Expr::Raise(x) => occurs_under_lambda(x, v),
    }
}

impl Transform for InlineWorkSafe {
    fn name(&self) -> &'static str {
        "inline-work-safe"
    }
    fn apply_root(&self, e: &Expr) -> Option<Expr> {
        let Expr::Let(x, r, b) = e else { return None };
        let atomic = matches!(
            &**r,
            Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_)
        );
        if atomic || (b.count_var(*x) <= 1 && !occurs_under_lambda(b, *x)) {
            Some(b.subst(*x, r))
        } else {
            None
        }
    }
}

/// Options for the pipeline.
#[derive(Clone, Debug)]
pub struct OptimizeOptions {
    /// Maximum simplifier sweeps (each sweep applies every pass once,
    /// bottom-up, everywhere).
    pub max_sweeps: usize,
    /// Run the §3.4 call-by-value passes, licensed by the analysis's
    /// demand vectors.
    pub call_by_value: bool,
    /// Run the whole-program exception-effect analysis and the rewrites
    /// it licenses (dead-alternative pruning, `unsafeIsException` /
    /// `unsafeGetException` folding, licensed alternative collapse, and
    /// the WHNF-safety upgrade to the call-by-value pass).
    pub exception_analysis: bool,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            max_sweeps: 8,
            call_by_value: true,
            exception_analysis: true,
        }
    }
}

/// What the pipeline did.
#[derive(Clone, Debug, Default)]
pub struct OptimizeReport {
    /// Rewrites per pass name, accumulated over sweeps.
    pub rewrites: Vec<(String, usize)>,
    /// AST size before and after.
    pub size_before: usize,
    pub size_after: usize,
    /// Verdicts for the validation queries (name kept parallel to the
    /// caller's query list), when validation ran.
    pub validation: Vec<Verdict>,
}

impl OptimizeReport {
    /// Total rewrites across passes.
    pub fn total_rewrites(&self) -> usize {
        self.rewrites.iter().map(|(_, n)| n).sum()
    }

    /// True if every validation query came back identity-or-refinement.
    pub fn validated(&self) -> bool {
        self.validation.iter().all(|v| v.is_valid_rewrite())
    }
}

/// The program optimizer.
#[derive(Default)]
pub struct Optimizer {
    pub options: OptimizeOptions,
}

impl Optimizer {
    /// Creates an optimizer with default options.
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// Optimises one binding group with an empty [`DataEnv`] (the
    /// licensed rewrites then only see the built-in constructor
    /// families; see [`Optimizer::optimize_with_data`]).
    pub fn optimize(&self, prog: &CoreProgram) -> (CoreProgram, OptimizeReport) {
        self.optimize_with_data(prog, &DataEnv::new())
    }

    /// Optimises one binding group against the program's data
    /// environment, enabling the analysis-licensed rewrites to reason
    /// about user-declared constructor families.
    pub fn optimize_with_data(
        &self,
        prog: &CoreProgram,
        data: &DataEnv,
    ) -> (CoreProgram, OptimizeReport) {
        let mut report = OptimizeReport {
            size_before: prog.size(),
            ..OptimizeReport::default()
        };
        let bump = |name: &str, n: usize, report: &mut OptimizeReport| {
            if n == 0 {
                return;
            }
            match report.rewrites.iter_mut().find(|(p, _)| p == name) {
                Some((_, total)) => *total += n,
                None => report.rewrites.push((name.to_string(), n)),
            }
        };

        // The simplifier proper.
        let simplifier: Vec<Box<dyn Transform>> = vec![
            Box::new(BetaReduce),
            Box::new(CaseOfKnownCon),
            Box::new(CaseOfLiteral),
            Box::new(CaseOfCase),
            Box::new(InlineWorkSafe),
            Box::new(DeadLetElim),
        ];

        let mut binds: Vec<(Symbol, Rc<Expr>)> = prog.binds.clone();
        for _ in 0..self.options.max_sweeps {
            let mut any = 0;
            for (_, rhs) in binds.iter_mut() {
                let mut current: Expr = (**rhs).clone();
                for pass in &simplifier {
                    let (next, n) = apply_everywhere(pass.as_ref(), &current);
                    bump(pass.name(), n, &mut report);
                    any += n;
                    current = next;
                }
                *rhs = Rc::new(current);
            }
            if any == 0 {
                break;
            }
        }

        // The exception-effect analysis and the rewrites it licenses.
        if self.options.exception_analysis {
            let group = CoreProgram {
                binds: binds.clone(),
                sigs: Vec::new(),
            };
            let analysis = urk_analysis::analyze_program(&group, data);
            let mut rewriter = LicensedRewriter::new(&analysis, data);
            for (_, rhs) in binds.iter_mut() {
                *rhs = Rc::new(rewriter.rewrite(rhs));
            }
            let fired = rewriter.total();
            for (rule, n) in rewriter.counts() {
                bump(rule, *n, &mut report);
            }
            if fired > 0 {
                // Licensed folds expose fresh syntactic redexes; one
                // more cleanup sweep picks them up.
                for (_, rhs) in binds.iter_mut() {
                    let mut current: Expr = (**rhs).clone();
                    for pass in &simplifier {
                        let (next, n) = apply_everywhere(pass.as_ref(), &current);
                        bump(pass.name(), n, &mut report);
                        current = next;
                    }
                    *rhs = Rc::new(current);
                }
            }
        }

        // The §3.4 worker: demand-driven call-by-value over the rewritten
        // group, upgraded to also fire on provably WHNF-safe arguments
        // when the effect analysis is on.
        if self.options.call_by_value {
            let group = CoreProgram {
                binds: binds.clone(),
                sigs: Vec::new(),
            };
            let analysis = urk_analysis::analyze_program(&group, data);
            let safe = self
                .options
                .exception_analysis
                .then_some(|e: &Expr| analysis.effect_of(e, data).whnf_safe());
            let call_sites = StrictCallSites {
                analysis: &analysis,
                arg_safe: safe.as_ref().map(|f| f as &dyn Fn(&Expr) -> bool),
            };
            let analyzer = analysis.analyzer(data);
            let let_to_case = LetToCase {
                analyzer: &analyzer,
            };
            for (_, rhs) in binds.iter_mut() {
                let (a, n1) = crate::rewrite::apply_to_fixpoint(&call_sites, rhs, 8);
                let (b, n2) = crate::rewrite::apply_to_fixpoint(&let_to_case, &a, 4);
                bump(call_sites.name(), n1, &mut report);
                bump(let_to_case.name(), n2, &mut report);
                *rhs = Rc::new(b);
            }
        }

        let out = CoreProgram {
            binds,
            sigs: prog.sigs.clone(),
        };
        report.size_after = out.size();
        (out, report)
    }

    /// Optimises and validates: each query's denotation under the
    /// optimised program must refine (or equal) its denotation under the
    /// original, per §4.5.
    pub fn optimize_validated(
        &self,
        prog: &CoreProgram,
        data: &DataEnv,
        queries: &[Rc<Expr>],
    ) -> (CoreProgram, OptimizeReport) {
        let (out, mut report) = self.optimize_with_data(prog, data);
        let config = DenotConfig {
            fuel: 2_000_000,
            ..DenotConfig::default()
        };
        for q in queries {
            let ev = DenotEvaluator::with_config(config.clone());
            let before_env = ev.bind_recursive(&prog.binds, &Env::empty());
            let before = ev.eval(q, &before_env);
            let after_env = ev.bind_recursive(&out.binds, &Env::empty());
            let after = ev.eval(q, &after_env);
            report
                .validation
                .push(compare_denots(&ev, &before, &after, 8));
        }
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program};

    fn program(src: &str) -> (DataEnv, CoreProgram) {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        (data, prog)
    }

    fn query(src: &str, data: &DataEnv) -> Rc<Expr> {
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), data).expect("desugars"))
    }

    #[test]
    fn pipeline_simplifies_redexes_away() {
        let (_, prog) =
            program(r"f x = (\y -> y + y) (case Just x of { Just n -> n; Nothing -> 0 })");
        let opt = Optimizer::new();
        let (out, report) = opt.optimize(&prog);
        assert!(report.total_rewrites() >= 2, "{:?}", report.rewrites);
        assert!(
            out.size() < prog.size(),
            "simplified {} -> {}",
            prog.size(),
            out.size()
        );
    }

    #[test]
    fn pipeline_validates_itself_on_exceptional_queries() {
        let (data, prog) = program(
            "safe n = if n == 0 then raise DivideByZero else 100 / n\n\
             twice f x = f (f x)\n\
             compute n = (\\u -> u + u) (safe n)",
        );
        let queries = vec![
            query("compute 5", &data),
            query("compute 0", &data),
            query("safe 0", &data),
        ];
        let opt = Optimizer::new();
        let (_, report) = opt.optimize_validated(&prog, &data, &queries);
        assert_eq!(report.validation.len(), 3);
        assert!(report.validated(), "{:?}", report.validation);
    }

    #[test]
    fn cbv_pass_fires_in_the_pipeline() {
        let (_, prog) = program("sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)");
        let opt = Optimizer::new();
        let (_, report) = opt.optimize(&prog);
        assert!(
            report
                .rewrites
                .iter()
                .any(|(name, n)| name.contains("call-by-value") && *n > 0),
            "{:?}",
            report.rewrites
        );
    }

    #[test]
    fn cbv_can_be_disabled() {
        let (_, prog) = program("sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)");
        let opt = Optimizer {
            options: OptimizeOptions {
                call_by_value: false,
                ..OptimizeOptions::default()
            },
        };
        let (_, report) = opt.optimize(&prog);
        assert!(report
            .rewrites
            .iter()
            .all(|(name, _)| !name.contains("call-by-value")));
    }

    #[test]
    fn inline_work_safe_inlines_atomic_and_single_use_only() {
        let data = DataEnv::new();
        let atomic = query("let x = 3 in x + x", &data);
        let (out, n) = apply_everywhere(&InlineWorkSafe, &atomic);
        assert_eq!(n, 1);
        assert!(out.alpha_eq(&query("3 + 3", &data)));

        // A used-twice non-atomic rhs is NOT inlined (work duplication).
        let shared = query("let x = 1 + 2 in x + x", &data);
        let (_, n2) = apply_everywhere(&InlineWorkSafe, &shared);
        assert_eq!(n2, 0);

        // A used-once non-atomic rhs is inlined.
        let once = query("let x = 1 + 2 in x * 3", &data);
        let (out3, n3) = apply_everywhere(&InlineWorkSafe, &once);
        assert_eq!(n3, 1);
        assert!(out3.alpha_eq(&query("(1 + 2) * 3", &data)));
    }

    #[test]
    fn inline_work_safe_keeps_work_out_of_lambdas() {
        let data = DataEnv::new();
        // One syntactic occurrence — but under a lambda, so inlining
        // would redo `1 + 2` on every call where the let shared it.
        let shared = query(r"let x = 1 + 2 in \y -> x + y", &data);
        let (_, n) = apply_everywhere(&InlineWorkSafe, &shared);
        assert_eq!(n, 0, "must not inline work into a lambda body");

        // Atomic right-hand sides are still fine anywhere.
        let atomic = query(r"let x = 3 in \y -> x + y", &data);
        let (out, n2) = apply_everywhere(&InlineWorkSafe, &atomic);
        assert_eq!(n2, 1);
        assert!(out.alpha_eq(&query(r"\y -> 3 + y", &data)));

        // A shadowed occurrence under a lambda does not count.
        let shadowed = query(r"let x = 1 + 2 in (\x -> x) x", &data);
        let (_, n3) = apply_everywhere(&InlineWorkSafe, &shadowed);
        assert_eq!(n3, 1, "the under-lambda x is a different binder");
    }

    #[test]
    fn licensed_rewrites_fire_and_validate() {
        let (data, prog) = program(
            "deadIs = case unsafeIsException 42 of { True -> 1 / 0; False -> 7 }\n\
             getOk = case unsafeGetException (3 + 4) of { OK v -> v; Bad e -> 0 }\n\
             pruned = let k = 10 / 2 in case k of { 5 -> 1; 6 -> 2 }\n\
             collapse x = case unsafeIsException x of { True -> 9; False -> 9 }",
        );
        let opt = Optimizer::new();
        let queries = vec![
            query("deadIs", &data),
            query("getOk", &data),
            query("pruned", &data),
            query("collapse 1", &data),
            query("collapse (1 / 0)", &data),
        ];
        let (out, report) = opt.optimize_validated(&prog, &data, &queries);
        let fired: Vec<&str> = report
            .rewrites
            .iter()
            .filter(|(name, _)| name.starts_with("licensed-"))
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(fired.contains(&"licensed-is-exn"), "{:?}", report.rewrites);
        assert!(fired.contains(&"licensed-get-exn"), "{:?}", report.rewrites);
        assert!(
            fired.contains(&"licensed-prune-alt"),
            "{:?}",
            report.rewrites
        );
        assert!(
            fired.contains(&"licensed-collapse-alts"),
            "{:?}",
            report.rewrites
        );
        assert!(report.validated(), "{:?}", report.validation);
        assert!(out.size() < prog.size());
    }

    #[test]
    fn licensed_rewrites_respect_opacity() {
        // `x` is an unknown argument: the observer must NOT fold, because
        // the caller may pass an exceptional value.
        let (data, prog) =
            program("observe x = case unsafeIsException x of { True -> 1; False -> 2 }");
        let opt = Optimizer::new();
        let queries = vec![query("observe 5", &data), query("observe (1 / 0)", &data)];
        let (_, report) = opt.optimize_validated(&prog, &data, &queries);
        assert!(
            report
                .rewrites
                .iter()
                .all(|(name, _)| name != "licensed-is-exn"),
            "{:?}",
            report.rewrites
        );
        assert!(report.validated(), "{:?}", report.validation);
    }

    #[test]
    fn analysis_upgrades_strict_call_sites_on_safe_args() {
        // `lazyf` is lazy in `y` (only one branch forces it), so plain
        // strictness cannot pre-evaluate the argument — but `5 * 5` is
        // provably WHNF-safe, so the analysis licenses it anyway.
        let (data, prog) = program(
            "lazyf x y = case x of { True -> y + 1; False -> 0 }\n\
             use = lazyf True (5 * 5)",
        );
        let opt = Optimizer {
            options: OptimizeOptions {
                // Keep the simplifier from folding `use` away first.
                max_sweeps: 0,
                ..OptimizeOptions::default()
            },
        };
        let queries = vec![query("use", &data)];
        let (_, report) = opt.optimize_validated(&prog, &data, &queries);
        assert!(
            report
                .rewrites
                .iter()
                .any(|(name, n)| name.contains("call-by-value") && *n > 0),
            "{:?}",
            report.rewrites
        );
        assert!(report.validated(), "{:?}", report.validation);
    }

    #[test]
    fn optimized_prelude_still_computes() {
        // Optimize a small program and compare machine results.
        use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
        let (data, prog) = program(
            "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n\
             go = fib 12",
        );
        let _ = data;
        let opt = Optimizer::new();
        let (out, _) = opt.optimize(&prog);
        for p in [&prog, &out] {
            let mut m = Machine::new(MachineConfig::default());
            m.link_code(std::sync::Arc::new(compile_program(&p.binds)));
            let r = m
                .eval_code_expr(&Expr::var("go"), false)
                .expect("terminates");
            let Outcome::Value(n) = r else {
                panic!("{r:?}")
            };
            assert_eq!(m.render(n, 4), "144");
        }
    }
}
