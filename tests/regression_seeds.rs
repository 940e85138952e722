//! Pinned re-runs of the two proptest regression seeds checked in at
//! `tests/properties.proptest-regressions`.
//!
//! The seed file records the *shrunk* counterexamples proptest found
//! (nested `Let`/`Case`/`Raise` terms with shadowed binders inside `Case`
//! alternatives and `Raise` inside primops). The vendored deterministic
//! property runner cannot replay upstream proptest's byte seeds, so the
//! shrunk terms are reconstructed here verbatim from the seed file's
//! comments and pinned against *every* property the generated suite
//! checks: machine/denot agreement under all order policies, rewrite
//! validity of each catalogue transformation and of the whole optimizer
//! pipeline, fuel monotonicity, and the pretty/parse round trip.

use std::rc::Rc;

use urk_denot::{compare_denots, denot_leq, show_denot, Denot, DenotConfig, DenotEvaluator};
use urk_io::admits;
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy};
use urk_syntax::core::{Alt, CoreProgram, Expr, PrimOp};
use urk_syntax::{desugar_expr, parse_expr_src, pretty, DataEnv, Symbol};
use urk_transform::{
    apply_everywhere, BetaReduce, CaseOfCase, CaseOfKnownCon, CaseOfLiteral, CommutePrimArgs,
    DeadLetElim, InlineLet, Optimizer, Transform,
};

/// A machine with an empty program linked, for closed queries.
fn closed_machine(config: MachineConfig) -> Machine {
    let mut m = Machine::new(config);
    m.link_code(std::sync::Arc::new(compile_program(&[])));
    m
}

fn raise_user_error(msg: &str) -> Expr {
    Expr::raise(Expr::con("UserError", [Expr::str(msg)]))
}

fn raise_con(name: &str) -> Expr {
    Expr::raise(Expr::con(name, []))
}

/// Seed 1 (`cc 1165bde8…`): shadowed `Let` binders (`pc` bound three
/// times), a shadowed binder inside a `Case` alternative (`pb`), and
/// `Raise` inside `Add`/`Sub`/`Seq` primops.
fn seed_1() -> Expr {
    Expr::let_(
        "pc",
        Expr::prim(
            PrimOp::Add,
            [
                Expr::let_(
                    "pb",
                    Expr::int(76),
                    Expr::case(
                        Expr::con("Nothing", []),
                        vec![
                            Alt::con("Just", vec![Symbol::intern("pb")], raise_user_error("Urk")),
                            Alt::con("Nothing", vec![], raise_con("DivideByZero")),
                        ],
                    ),
                ),
                Expr::let_(
                    "pd",
                    Expr::prim(PrimOp::Seq, [raise_user_error("Urk"), Expr::int(90)]),
                    Expr::let_("pa", raise_user_error("Urk"), raise_user_error("Urk")),
                ),
            ],
        ),
        Expr::let_(
            "pa",
            raise_con("Overflow"),
            Expr::let_(
                "pc",
                Expr::prim(PrimOp::Sub, [Expr::int(37), raise_con("DivideByZero")]),
                Expr::let_("pc", Expr::var("pc"), Expr::int(0)),
            ),
        ),
    )
}

/// Seed 2 (`cc b70ff45b…`): `Case` nested in a constructor field, shadowed
/// alternative binders (`pa`), and a used binder (`pc`) bound by `Case` on
/// an exceptional scrutinee deep inside primops.
fn seed_2() -> Expr {
    let inner_inner_case = Expr::case(
        Expr::prim(
            PrimOp::IntLt,
            [
                Expr::prim(PrimOp::Mod, [Expr::int(7), raise_con("Overflow")]),
                raise_con("DivideByZero"),
            ],
        ),
        vec![
            Alt::con(
                "True",
                vec![],
                Expr::let_("pb", raise_con("Overflow"), raise_con("Overflow")),
            ),
            Alt::con(
                "False",
                vec![],
                Expr::prim(PrimOp::Mod, [Expr::int(38), raise_con("Overflow")]),
            ),
        ],
    );
    let middle_case = Expr::case(
        Expr::prim(PrimOp::IntLt, [inner_inner_case, Expr::int(7)]),
        vec![
            Alt::con(
                "True",
                vec![],
                Expr::let_(
                    "pa",
                    Expr::let_("pb", Expr::int(7), raise_con("DivideByZero")),
                    Expr::case(
                        Expr::con("Just", [Expr::int(64)]),
                        vec![
                            Alt::con("Just", vec![Symbol::intern("pa")], raise_user_error("Urk")),
                            Alt::con("Nothing", vec![], raise_con("Overflow")),
                        ],
                    ),
                ),
            ),
            Alt::con(
                "False",
                vec![],
                Expr::let_(
                    "pd",
                    Expr::app(Expr::lam("pa", raise_user_error("Urk")), Expr::int(85)),
                    Expr::prim(PrimOp::Div, [raise_user_error("Urk"), Expr::int(65)]),
                ),
            ),
        ],
    );
    Expr::case(
        Expr::con("Just", [middle_case]),
        vec![
            Alt::con(
                "Just",
                vec![Symbol::intern("pc")],
                Expr::prim(
                    PrimOp::Seq,
                    [
                        raise_con("Overflow"),
                        Expr::prim(
                            PrimOp::Add,
                            [
                                Expr::case(
                                    Expr::prim(PrimOp::IntLt, [Expr::int(0), Expr::var("pc")]),
                                    vec![
                                        Alt::con("True", vec![], Expr::int(0)),
                                        Alt::con("False", vec![], Expr::var("pc")),
                                    ],
                                ),
                                Expr::int(0),
                            ],
                        ),
                    ],
                ),
            ),
            Alt::con("Nothing", vec![], Expr::int(1)),
        ],
    )
}

/// The `machine_sound_wrt_denotational_semantics` property, pinned.
fn check_machine_sound(e: Expr) {
    let e = Rc::new(e);
    let ev = DenotEvaluator::new();
    let denot = ev.eval_closed(&e);
    for policy in [
        OrderPolicy::LeftToRight,
        OrderPolicy::RightToLeft,
        OrderPolicy::Seeded(11),
    ] {
        let mut m = closed_machine(MachineConfig {
            order: policy,
            ..MachineConfig::default()
        });
        let out = m.eval_code_expr(&e, true).expect("terminates");
        if let Err(why) = admits(&mut m, &out, &ev, &denot, 4) {
            panic!("machine under {policy:?}: {why}");
        }
    }
}

/// The `transformations_are_valid_rewrites` property, pinned.
fn check_transforms(e: &Expr) {
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
        let (out, n) = apply_everywhere(t.as_ref(), e);
        if n == 0 {
            continue;
        }
        let ev = DenotEvaluator::new();
        let dl = ev.eval_closed(&Rc::new(e.clone()));
        let dr = ev.eval_closed(&Rc::new(out.clone()));
        let v = compare_denots(&ev, &dl, &dr, 6);
        assert!(
            v.is_valid_rewrite(),
            "{} produced {:?}:\n  before: {}\n   after: {}",
            t.name(),
            v,
            pretty(e),
            pretty(&out),
        );
    }
}

/// The `optimizer_pipeline_is_a_valid_rewrite` property, pinned.
fn check_optimizer_pipeline(e: &Expr) {
    let main = Symbol::intern("main$seed");
    let prog = CoreProgram {
        binds: vec![(main, Rc::new(e.clone()))],
        sigs: Vec::new(),
    };
    let opt = Optimizer::new();
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
    assert!(
        v.is_valid_rewrite(),
        "pipeline produced {v:?} on {}",
        pretty(e)
    );
}

/// The `fuel_monotonicity` property, pinned.
fn check_fuel_monotonicity(e: Expr) {
    let e = Rc::new(e);
    let mut prev: Option<Denot> = None;
    for fuel in [4u64, 16, 64, 1024, 1_000_000] {
        let ev = DenotEvaluator::with_config(DenotConfig {
            fuel,
            ..DenotConfig::default()
        });
        let d = ev.eval_closed(&e);
        if let Some(p) = &prev {
            assert!(
                denot_leq(&ev, p, &d, 6),
                "fuel {} downgraded {} to {}",
                fuel,
                show_denot(&ev, p, 6),
                show_denot(&ev, &d, 6)
            );
        }
        prev = Some(d);
    }
}

/// The `parse_pretty_roundtrip` property, pinned.
fn check_roundtrip(e: &Expr) {
    let printed = pretty(e);
    let data = DataEnv::new();
    let reparsed = parse_expr_src(&printed)
        .unwrap_or_else(|err| panic!("pretty output failed to parse: {err}\n{printed}"));
    let core = desugar_expr(&reparsed, &data)
        .unwrap_or_else(|err| panic!("pretty output failed to desugar: {err}\n{printed}"));
    assert!(
        core.alpha_eq(e),
        "roundtrip changed the term:\n  original: {}\n  reparsed: {}",
        pretty(e),
        pretty(&core)
    );
}

#[test]
fn seed_1_machine_sound() {
    check_machine_sound(seed_1());
}

#[test]
fn seed_2_machine_sound() {
    check_machine_sound(seed_2());
}

#[test]
fn seed_1_transforms_valid() {
    check_transforms(&seed_1());
}

#[test]
fn seed_2_transforms_valid() {
    check_transforms(&seed_2());
}

#[test]
fn seed_1_optimizer_pipeline_valid() {
    check_optimizer_pipeline(&seed_1());
}

#[test]
fn seed_2_optimizer_pipeline_valid() {
    check_optimizer_pipeline(&seed_2());
}

#[test]
fn seed_1_fuel_monotone() {
    check_fuel_monotonicity(seed_1());
}

#[test]
fn seed_2_fuel_monotone() {
    check_fuel_monotonicity(seed_2());
}

#[test]
fn seed_1_pretty_roundtrip() {
    check_roundtrip(&seed_1());
}

#[test]
fn seed_2_pretty_roundtrip() {
    check_roundtrip(&seed_2());
}
