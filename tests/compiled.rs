//! The flat-code differential battery: the tier-1 and tier-2 images must
//! be observationally indistinguishable on every corpus the repo already
//! trusts, and both must stay inside the denotational exception set (§4.5
//! refinement). The checks it shares with `tests/tier2.rs` live once, in
//! `tests/common/mod.rs`.
//!
//! Four layers of evidence:
//!
//! * the soundness corpus and the paper's worked examples evaluate to
//!   byte-identical renderings and identical representative exceptions at
//!   both tiers, under both deterministic order policies;
//! * every outcome is one the denotation admits (`urk_io::admits`), so
//!   agreement is not two matching wrong answers;
//! * the chaos corpus agrees when evaluated normally and holds §5.1's
//!   invariants on the tier-1 image (soundness under injected faults,
//!   clean heap audit, oracle-consistent re-eval);
//! * vendored-proptest random well-typed core terms, each bound as a
//!   program global so the tier-2 pass rewrites it, agree tier 1 vs tier 2
//!   at the machine level, and the denotation admits the outcome.

mod common;

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use urk::{tier2_facts_for, Session, Tier};
use urk_denot::{Denot, DenotEvaluator};
use urk_io::admits;
use urk_machine::{compile_program, tier2_optimize, Machine, MachineConfig, OrderPolicy};
use urk_syntax::core::{Alt, CoreProgram, Expr, PrimOp};
use urk_syntax::{DataEnv, Symbol};

use common::{tier_pair, CHAOS_PROGRAMS};

#[test]
fn the_soundness_corpus_agrees_under_both_order_policies() {
    common::soundness_corpus_agrees();
}

#[test]
fn the_chaos_corpus_agrees_when_evaluated_normally() {
    let (tier1, tier2) = tier_pair(OrderPolicy::LeftToRight);
    for (name, src) in CHAOS_PROGRAMS {
        let a = tier1.eval(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = tier2.eval(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a.rendered, b.rendered, "{name}");
        assert_eq!(a.exception, b.exception, "{name}");
    }
}

#[test]
fn paper_example_programs_agree_through_loaded_definitions() {
    common::paper_examples_agree();
}

/// The session's default image is tier 1 of the one flat-code executor.
#[test]
fn the_chaos_corpus_holds_the_invariants_on_the_compiled_backend() {
    common::assert_chaos_invariants(Tier::One, 12);
}

#[test]
fn first_compiled_eval_pays_for_lowering_and_later_ones_do_not() {
    let session = Session::new();
    let first = session.eval("1 + 2").expect("evals");
    assert!(
        first.stats.compile_ops > 0 && first.stats.compile_micros > 0,
        "the eval that triggers lowering must carry its cost: {:?}",
        first.stats
    );
    // Later evals still lower their own query, but the program image
    // (the Prelude — hundreds of ops) is reused, not recompiled.
    let second = session.eval("3 + 4").expect("evals");
    assert!(
        second.stats.compile_ops > 0 && second.stats.compile_ops < first.stats.compile_ops / 10,
        "later evals must reuse the cached image: first {} ops, second {} ops",
        first.stats.compile_ops,
        second.stats.compile_ops
    );
}

#[test]
fn pools_on_both_backends_agree_with_one_shared_image() {
    common::pools_agree();
}

// ----------------------------------------------------------------------
// Random well-typed terms, tier 1 vs tier 2 at the machine level.
// ----------------------------------------------------------------------

const POOL: [&str; 4] = ["pa", "pb", "pc", "pd"];

/// Generates a closed Int-typed expression (the `tests/properties.rs`
/// generator): recursion-free, so every term terminates, but `raise`,
/// division and `error` flow everywhere.
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
        4 => (sub(s0.clone()), sub(s0.clone()), prop_oneof![
                Just(PrimOp::Add), Just(PrimOp::Sub), Just(PrimOp::Mul),
                Just(PrimOp::Div), Just(PrimOp::Mod)
             ])
            .prop_map(|(a, b, op)| Expr::prim(op, [a, b])),
        1 => (sub(s1.clone()), sub(s1.clone()))
            .prop_map(|(a, b)| Expr::prim(PrimOp::Seq, [a, b])),
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
        2 => (0..POOL.len(), sub(s3.clone())).prop_flat_map(move |(i, rhs)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s3.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| Expr::let_(v, rhs.clone(), body))
             }),
        1 => (0..POOL.len(), sub(s4.clone())).prop_flat_map(move |(i, arg)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s4.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| {
                    Expr::app(Expr::lam(v, body), arg.clone())
                })
             }),
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

/// Binds `e` as the global `main`, lowers that program at tier 1 or
/// (analysis-licensed) at tier 2, and evaluates `main` under a catch mark.
/// Queries always lower at tier 1, so the term must be a program global
/// for the tier-2 pass to rewrite it. Returns the rendered outcome and
/// whether the denotation `denot` admits it.
fn tier_result(
    e: &Rc<Expr>,
    tier2: bool,
    policy: OrderPolicy,
    ev: &DenotEvaluator,
    denot: &Denot,
) -> (String, Result<(), String>) {
    let main = Symbol::intern("main");
    let prog = CoreProgram {
        binds: vec![(main, Rc::clone(e))],
        sigs: Vec::new(),
    };
    let mut code = compile_program(&prog.binds);
    if tier2 {
        let facts = tier2_facts_for(urk::analyze_program(&prog, &DataEnv::new()), &prog.binds);
        code = tier2_optimize(&code, &facts);
    }
    let mut m = Machine::new(MachineConfig {
        order: policy,
        ..MachineConfig::default()
    });
    m.link_code(Arc::new(code));
    let out = m
        .eval_code_expr(&Expr::Var(main), true)
        .expect("terminates");
    let rendered = m.render_outcome(&out, 16);
    (rendered, admits(&mut m, &out, ev, denot, 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For random well-typed terms and every order policy, the tier-1
    /// and tier-2 images produce identical outcomes, and the denotation
    /// admits them.
    #[test]
    fn tier_two_agrees_with_tier_one_on_random_terms(e in gen_int(4, Vec::new())) {
        let e = Rc::new(e);
        let ev = DenotEvaluator::new();
        let denot = ev.eval_closed(&e);
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            let (tr, ta) = tier_result(&e, false, policy, &ev, &denot);
            let (cr, ca) = tier_result(&e, true, policy, &ev, &denot);
            prop_assert_eq!(&tr, &cr, "rendered outcome diverged under {:?}", policy);
            let admitted = ta.and(ca);
            prop_assert!(admitted.is_ok(), "under {:?}: {:?}", policy, admitted);
        }
    }
}
