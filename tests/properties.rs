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
//! * `parse ∘ pretty` is the identity up to alpha on core terms.

use std::rc::Rc;

use proptest::prelude::*;

use urk_denot::{compare_denots, denot_leq, show_denot, Denot, DenotConfig, DenotEvaluator};
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::core::{Alt, Expr, PrimOp};
use urk_syntax::{desugar_expr, parse_expr_src, pretty, DataEnv, Symbol};
use urk_transform::{
    apply_everywhere, BetaReduce, CaseOfCase, CaseOfKnownCon, CaseOfLiteral, CommutePrimArgs,
    DeadLetElim, InlineLet, Transform,
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

fn machine_result(e: &Rc<Expr>, policy: OrderPolicy) -> Outcome {
    let mut m = closed_machine(MachineConfig {
        order: policy,
        ..MachineConfig::default()
    });
    m.eval_code_expr(e, true).expect("terminates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The implementation-soundness property: for every policy, a normal
    /// machine result equals the denotation and an exceptional one is a
    /// member of the denoted set.
    #[test]
    fn machine_sound_wrt_denotational_semantics(e in closed_int_expr()) {
        let e = Rc::new(e);
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
        let denot = ev.eval_closed(&e);
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            match (&denot, machine_result(&e, policy)) {
                (Denot::Ok(urk_denot::Value::Int(n)), Outcome::Value(node)) => {
                    let mut m2 = closed_machine(MachineConfig {
                        order: policy,
                        ..MachineConfig::default()
                    });
                    let Outcome::Value(node2) = m2.eval_code_expr(&e, true).expect("terminates") else {
                        unreachable!()
                    };
                    prop_assert_eq!(m2.render(node2, 4), n.to_string());
                    let _ = node;
                }
                (Denot::Bad(set), Outcome::Caught(exn)) => {
                    prop_assert!(set.contains(&exn),
                        "machine chose {} outside {}", exn, set);
                }
                (d, o) => prop_assert!(false, "layer mismatch: {:?} vs {:?}", d, o),
            }
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
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
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
        let data = DataEnv::new();
        for t in &transforms {
            let (out, n) = apply_everywhere(t.as_ref(), &e);
            if n == 0 { continue; }
            let ev = DenotEvaluator::new(&data);
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
        let e = Rc::new(e);
        let data = DataEnv::new();
        let mut prev: Option<Denot> = None;
        for fuel in [4u64, 16, 64, 1024, 1_000_000] {
            let ev = DenotEvaluator::with_config(&data, DenotConfig {
                fuel, ..DenotConfig::default()
            });
            let d = ev.eval_closed(&e);
            if let Some(p) = &prev {
                prop_assert!(denot_leq(&ev, p, &d, 6),
                    "fuel {} downgraded {} to {}", fuel,
                    show_denot(&ev, p, 6), show_denot(&ev, &d, 6));
            }
            prev = Some(d);
        }
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
        let data = DataEnv::new();
        let ev = DenotEvaluator::new(&data);
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

    /// Denotational evaluation is deterministic.
    #[test]
    fn denotation_is_deterministic(e in closed_int_expr()) {
        let e = Rc::new(e);
        let data = DataEnv::new();
        let ev1 = DenotEvaluator::new(&data);
        let ev2 = DenotEvaluator::new(&data);
        let a = show_denot(&ev1, &ev1.eval_closed(&e), 8);
        let b = show_denot(&ev2, &ev2.eval_closed(&e), 8);
        prop_assert_eq!(a, b);
    }
}
