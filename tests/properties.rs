//! Property-based tests over randomly generated well-typed core terms.
//!
//! The generator produces closed, `Int`-typed, recursion-free expressions
//! that freely mix arithmetic, lets, lambdas, `case`, `seq` and `raise` —
//! so every term terminates, but exceptional values flow everywhere. The
//! properties are the paper's headline guarantees:
//!
//! * the machine agrees with the denotational semantics, and its reported
//!   exception is always a member of the denoted set (§3.3/§3.5);
//! * `+` and `*` commute denotationally (§3.4);
//! * the catalogue transformations are identities or refinements (§4.5);
//! * denotations are monotone in fuel (§4.2's ascending chain);
//! * each precise order's result refines the imprecise denotation (§3.4:
//!   the imprecise set contains whatever a fixed order raises), on random
//!   terms and on every law side that does not observe exceptions;
//! * `parse ∘ pretty` is the identity up to alpha on core terms.

use std::rc::Rc;

use proptest::prelude::*;

use urk_denot::{
    compare_denots, denot_leq, show_denot, Denot, DenotConfig, DenotEvaluator, Design, EvalOrder,
    ExnSet, Thunk, Value,
};
use urk_io::admits;
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy};
use urk_syntax::core::{Alt, Expr, PrimOp};
use urk_syntax::{desugar_expr, parse_expr_src, pretty, DataEnv, Exception, Known, Symbol};
use urk_transform::{
    apply_everywhere, standard_laws, BetaReduce, CaseOfCase, CaseOfKnownCon, CaseOfLiteral,
    CommutePrimArgs, DeadLetElim, InlineLet, Transform,
};

/// A machine with an empty program linked, for closed queries.
fn closed_machine(config: MachineConfig) -> Machine {
    let mut m = Machine::new(config);
    m.link_code(std::sync::Arc::new(compile_program(&[])));
    m
}

const POOL: [&str; 4] = ["pa", "pb", "pc", "pd"];

/// Generates a closed Int-typed expression; `scope` lists in-scope
/// Int-typed variables.
fn gen_int(depth: u32, scope: Vec<Symbol>) -> BoxedStrategy<Expr> {
    let var_leaf: BoxedStrategy<Expr> = if scope.is_empty() {
        Just(Expr::Int(7)).boxed()
    } else {
        proptest::sample::select(scope.clone())
            .prop_map(Expr::Var)
            .boxed()
    };
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::Int),
        Just(Expr::raise(Expr::con("Overflow", []))),
        Just(Expr::raise(Expr::con("DivideByZero", []))),
        Just(Expr::error("Urk")),
        var_leaf,
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = move |scope: Vec<Symbol>| gen_int(depth - 1, scope);
    let s0 = scope.clone();
    let s1 = scope.clone();
    let s2 = scope.clone();
    let s3 = scope.clone();
    let s4 = scope.clone();
    let s5 = scope.clone();
    prop_oneof![
        3 => leaf,
        // Arithmetic.
        4 => (sub(s0.clone()), sub(s0.clone()), prop_oneof![
                Just(PrimOp::Add), Just(PrimOp::Sub), Just(PrimOp::Mul),
                Just(PrimOp::Div), Just(PrimOp::Mod)
             ])
            .prop_map(|(a, b, op)| Expr::prim(op, [a, b])),
        // seq.
        1 => (sub(s1.clone()), sub(s1.clone()))
            .prop_map(|(a, b)| Expr::prim(PrimOp::Seq, [a, b])),
        // if on a comparison.
        2 => (sub(s2.clone()), sub(s2.clone()), sub(s2.clone()), sub(s2.clone()))
            .prop_map(|(a, b, t, f)| {
                Expr::case(
                    Expr::prim(PrimOp::IntLt, [a, b]),
                    vec![
                        Alt::con("True", vec![], t),
                        Alt::con("False", vec![], f),
                    ],
                )
            }),
        // let.
        2 => (0..POOL.len(), sub(s3.clone())).prop_flat_map(move |(i, rhs)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s3.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| Expr::let_(v, rhs.clone(), body))
             }),
        // Beta redex.
        1 => (0..POOL.len(), sub(s4.clone())).prop_flat_map(move |(i, arg)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s4.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| {
                    Expr::app(Expr::lam(v, body), arg.clone())
                })
             }),
        // case on a Maybe value.
        1 => (0..POOL.len(), sub(s5.clone()), proptest::bool::ANY)
            .prop_flat_map(move |(i, payload, just)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s5.clone();
                scope2.push(v);
                let s5b = s5.clone();
                (sub(scope2), sub(s5b)).prop_map(move |(just_rhs, nothing_rhs)| {
                    let scrut = if just {
                        Expr::con("Just", [payload.clone()])
                    } else {
                        Expr::con("Nothing", [])
                    };
                    Expr::case(
                        scrut,
                        vec![
                            Alt::con("Just", vec![v], just_rhs),
                            Alt::con("Nothing", vec![], nothing_rhs),
                        ],
                    )
                })
            }),
    ]
    .boxed()
}

fn closed_int_expr() -> BoxedStrategy<Expr> {
    gen_int(4, Vec::new())
}

/// True if `e` observes exceptions through `getException` or one of
/// §5.4's `unsafe*` primitives, where the designs may rightly disagree.
fn observes_exceptions(e: &Expr) -> bool {
    match e {
        Expr::Con(c, args) => {
            Known::GetException.is(*c) || args.iter().any(|a| observes_exceptions(a))
        }
        Expr::Prim(op, args) => {
            matches!(op, PrimOp::UnsafeIsException | PrimOp::UnsafeGetException)
                || args.iter().any(|a| observes_exceptions(a))
        }
        Expr::App(a, b) | Expr::Let(_, a, b) => observes_exceptions(a) || observes_exceptions(b),
        Expr::Lam(_, b) | Expr::Raise(b) => observes_exceptions(b),
        Expr::LetRec(binds, body) => {
            binds.iter().any(|(_, rhs)| observes_exceptions(rhs)) || observes_exceptions(body)
        }
        Expr::Case(scrut, alts) => {
            observes_exceptions(scrut) || alts.iter().any(|alt| observes_exceptions(&alt.rhs))
        }
        Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => false,
    }
}

/// `imprecise ⊑ precise` to `depth`, each side forced by the evaluator that
/// made it: the raised exception is in the denoted set, or both are the
/// same value, or the imprecise side is ⊥. Two levels of one imprecise
/// fuel chain compare the same way.
fn refines(
    ev_i: &DenotEvaluator,
    di: &Denot,
    ev_p: &DenotEvaluator,
    dp: &Denot,
    depth: u32,
) -> bool {
    let (Denot::Ok(vi), Denot::Ok(vp)) = (di, dp) else {
        // An abnormal side: `denot_leq` forces nothing here.
        return denot_leq(ev_i, di, dp, depth);
    };
    if depth == 0 {
        return true;
    }
    match (vi, vp) {
        (Value::Con(c, fi), Value::Con(d, fp)) => {
            c == d
                && fi.len() == fp.len()
                && fi
                    .iter()
                    .zip(fp)
                    .all(|(a, b)| refines(ev_i, &ev_i.force(a), ev_p, &ev_p.force(b), depth - 1))
        }
        (Value::Fun(_), Value::Fun(_)) => {
            // The probes that exist in both domains.
            let marked = Denot::Bad(ExnSet::singleton(Exception::UserError("#probe".into())));
            [marked, Denot::bottom(), Denot::Ok(Value::Int(0))]
                .iter()
                .all(|p| {
                    let ri = ev_i.apply_denot(di, Thunk::done(p.clone()));
                    let rp = ev_p.apply_denot(dp, Thunk::done(p.clone()));
                    refines(ev_i, &ri, ev_p, &rp, depth - 1)
                })
        }
        // Scalars, or different shapes: compared without forcing.
        _ => denot_leq(ev_i, di, dp, depth),
    }
}

/// Evaluates `e` at rising fuel and checks that each level refines the
/// next (§4.2's ascending chain). Every level keeps its own evaluator, so
/// `refines` forces each side's lazy fields through the evaluator that
/// tied their knots.
fn fuel_chain_ascends(e: &Rc<Expr>) -> Result<(), String> {
    let levels: Vec<(u64, DenotEvaluator, Denot)> = [4u64, 16, 64, 1024, 1_000_000]
        .into_iter()
        .map(|fuel| {
            let ev = DenotEvaluator::with_config(DenotConfig {
                fuel,
                ..DenotConfig::default()
            });
            let d = ev.eval_closed(e);
            (fuel, ev, d)
        })
        .collect();
    for pair in levels.windows(2) {
        let [(_, ev1, d1), (fuel, ev2, d2)] = pair else {
            unreachable!("windows of two")
        };
        if !refines(ev1, d1, ev2, d2, 6) {
            return Err(format!(
                "fuel {fuel} downgraded {} to {}",
                show_denot(ev1, d1, 6),
                show_denot(ev2, d2, 6)
            ));
        }
    }
    Ok(())
}

/// Fuel monotonicity on a result with lazy fields under a knot, at
/// several fuels: the random terms above only ever denote field-less
/// `Int`s.
#[test]
fn fuel_monotonicity_through_a_knot() {
    let data = DataEnv::new();
    let src = "let xs = 1 : xs in xs";
    let e = desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars");
    fuel_chain_ascends(&Rc::new(e)).unwrap();
}

/// Checks that both precise orders refine the imprecise denotation of `e`.
fn precise_refines_imprecise(e: &Rc<Expr>) -> Result<(), String> {
    let config = DenotConfig {
        fuel: 200_000,
        ..DenotConfig::default()
    };
    let ev_i = DenotEvaluator::with_config(config.clone());
    let di = ev_i.eval_closed(e);
    for order in [EvalOrder::LeftToRight, EvalOrder::RightToLeft] {
        let ev_p = DenotEvaluator::with_design(config.clone(), Design::Precise(order));
        let dp = ev_p.eval_closed(e);
        if !refines(&ev_i, &di, &ev_p, &dp, 8) {
            return Err(format!(
                "{order:?}: imprecise {} does not refine to precise {} on {}",
                show_denot(&ev_i, &di, 8),
                show_denot(&ev_p, &dp, 8),
                pretty(e)
            ));
        }
    }
    Ok(())
}

#[test]
fn precise_orders_refine_the_imprecise_denotation_on_the_law_sides() {
    let mut checked = 0;
    for law in standard_laws() {
        for side in [&law.lhs, &law.rhs] {
            if observes_exceptions(side) {
                continue;
            }
            checked += 1;
            if let Err(msg) = precise_refines_imprecise(side) {
                panic!("{}: {msg}", law.name);
            }
        }
    }
    // 19 laws; only let-inline-get-exception's two sides observe.
    assert_eq!(checked, 36);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The implementation-soundness property: for every policy, a normal
    /// machine result equals the denotation and an exceptional one is a
    /// member of the denoted set.
    #[test]
    fn machine_sound_wrt_denotational_semantics(e in closed_int_expr()) {
        let e = Rc::new(e);
        let ev = DenotEvaluator::new();
        let denot = ev.eval_closed(&e);
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            let mut m = closed_machine(MachineConfig {
                order: policy,
                ..MachineConfig::default()
            });
            let out = m.eval_code_expr(&e, true).expect("terminates");
            let admitted = admits(&mut m, &out, &ev, &denot, 4);
            prop_assert!(admitted.is_ok(), "machine under {:?}: {:?}", policy, admitted);
        }
    }

    /// §3.4: + and * commute denotationally, whatever the operands do.
    #[test]
    fn addition_and_multiplication_commute(
        a in closed_int_expr(),
        b in closed_int_expr(),
        mul in proptest::bool::ANY,
    ) {
        let op = if mul { PrimOp::Mul } else { PrimOp::Add };
        let ev = DenotEvaluator::new();
        let l = ev.eval_closed(&Rc::new(Expr::prim(op, [a.clone(), b.clone()])));
        let r = ev.eval_closed(&Rc::new(Expr::prim(op, [b, a])));
        prop_assert_eq!(compare_denots(&ev, &l, &r, 6), urk_denot::Verdict::Equal);
    }

    /// §4.5: every catalogue transformation is an identity or refinement.
    #[test]
    fn transformations_are_valid_rewrites(e in closed_int_expr()) {
        let transforms: Vec<Box<dyn Transform>> = vec![
            Box::new(BetaReduce),
            Box::new(InlineLet),
            Box::new(DeadLetElim),
            Box::new(CaseOfKnownCon),
            Box::new(CaseOfLiteral),
            Box::new(CommutePrimArgs),
            Box::new(CaseOfCase),
        ];
        for t in &transforms {
            let (out, n) = apply_everywhere(t.as_ref(), &e);
            if n == 0 { continue; }
            let ev = DenotEvaluator::new();
            let dl = ev.eval_closed(&Rc::new(e.clone()));
            let dr = ev.eval_closed(&Rc::new(out));
            let v = compare_denots(&ev, &dl, &dr, 6);
            prop_assert!(v.is_valid_rewrite(),
                "{} produced {:?} on {}", t.name(), v, pretty(&e));
        }
    }

    /// §4.2: denotations form an ascending chain in fuel.
    #[test]
    fn fuel_monotonicity(e in closed_int_expr()) {
        fuel_chain_ascends(&Rc::new(e)).map_err(TestCaseError::fail)?;
    }

    /// The pretty-printer emits valid surface syntax that desugars back to
    /// the same core term (up to alpha).
    #[test]
    fn parse_pretty_roundtrip(e in closed_int_expr()) {
        let printed = pretty(&e);
        let data = DataEnv::new();
        let reparsed = parse_expr_src(&printed)
            .unwrap_or_else(|err| panic!("pretty output failed to parse: {err}\n{printed}"));
        let core = desugar_expr(&reparsed, &data)
            .unwrap_or_else(|err| panic!("pretty output failed to desugar: {err}\n{printed}"));
        prop_assert!(core.alpha_eq(&e),
            "roundtrip changed the term:\n  original: {}\n  reparsed: {}",
            pretty(&e), pretty(&core));
    }

    /// The whole optimisation pipeline is a valid rewrite on random terms.
    #[test]
    fn optimizer_pipeline_is_a_valid_rewrite(e in closed_int_expr()) {
        use urk_syntax::core::CoreProgram;
        let main = Symbol::intern("main$prop");
        let prog = CoreProgram {
            binds: vec![(main, Rc::new(e))],
            sigs: Vec::new(),
        };
        let opt = urk_transform::Optimizer::new();
        let (out, _) = opt.optimize(&prog);
        let ev = DenotEvaluator::new();
        let before = {
            let env = ev.bind_recursive(&prog.binds, &urk_denot::Env::empty());
            ev.eval(&Rc::new(Expr::Var(main)), &env)
        };
        let after = {
            let env = ev.bind_recursive(&out.binds, &urk_denot::Env::empty());
            ev.eval(&Rc::new(Expr::Var(main)), &env)
        };
        let v = compare_denots(&ev, &before, &after, 6);
        prop_assert!(v.is_valid_rewrite(), "pipeline produced {:?}", v);
    }

    /// §3.4: whatever a fixed evaluation order raises is a member of the
    /// imprecise set; a normal precise result is the imprecise value.
    #[test]
    fn precise_orders_refine_the_imprecise_denotation(e in closed_int_expr()) {
        let e = Rc::new(e);
        let verdict = precise_refines_imprecise(&e);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Denotational evaluation is deterministic.
    #[test]
    fn denotation_is_deterministic(e in closed_int_expr()) {
        let e = Rc::new(e);
        let ev1 = DenotEvaluator::new();
        let ev2 = DenotEvaluator::new();
        let a = show_denot(&ev1, &ev1.eval_closed(&e), 8);
        let b = show_denot(&ev2, &ev2.eval_closed(&e), 8);
        prop_assert_eq!(a, b);
    }
}
