//! The static-analysis soundness battery.
//!
//! The whole-program exception-effect analysis (`urk-analysis`) promises
//! a *conservative* prediction: whatever exception the machine raises at
//! either tier — and whatever the denotational semantics says the
//! expression's set is — must be inside the statically predicted set.
//! This file enforces that differentially:
//!
//! * over the soundness corpus, at both tiers and both deterministic
//!   order policies: denoted set ⊆ predicted set, and every machine
//!   representative ∈ predicted set;
//! * over ≥256 vendored-proptest random core terms, machine-checked
//!   against the tier-1 and tier-2 images (every run also passes its
//!   arena through `Code::verify`, which panics in debug builds on any
//!   structural defect — so this battery doubles as the verifier's
//!   accept-side property);
//! * the analysis-licensed optimizer rewrites fire on programs built to
//!   need proofs, and validate as §4.5 identity-or-refinement;
//! * `Code::verify` accepts every compiler-emitted arena for the corpus
//!   programs (the reject side lives in the machine crate's sabotage
//!   tests).

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use urk::{Session, Tier};
use urk_analysis::analyze_program;
use urk_denot::{Denot, DenotEvaluator, ExnSet};
use urk_machine::{compile_program, tier2_optimize, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_machine::{Code, Tier2Facts};
use urk_syntax::core::{Alt, CoreProgram, Expr, PrimOp};
use urk_syntax::{DataEnv, Symbol};

/// The closed-term corpus from `tests/soundness.rs` / `tests/tier2.rs`.
const CORPUS: &[&str] = &[
    "42",
    "1 + 2 * 3 - 4",
    "7 / 2 + 7 % 2",
    "'x'",
    "\"hello\"",
    "[1, 2, 3]",
    "(1, (2, 3))",
    "Just (Just 0)",
    r"(\x -> 3) (1/0)",
    "let x = raise Overflow in 42",
    "case 1 : raise Overflow of { x : xs -> x; [] -> 0 }",
    "fst (1, 1/0)",
    "1/0",
    "raise Overflow",
    r#"raise (UserError "Urk")"#,
    r#"(1/0) + raise (UserError "Urk")"#,
    "case raise Overflow of { True -> 1; False -> 2 }",
    "case Nothing of { Just n -> n }",
    "raise (raise DivideByZero)",
    "seq (1/0) 2",
    "seq 2 (1/0)",
    r#"mapException (\e -> Overflow) (1/0)"#,
    "unsafeIsException (1/0)",
    "unsafeIsException [1]",
    "case unsafeGetException (1/0) of { OK v -> 0; Bad e -> 1 }",
    "case unsafeGetException 9 of { OK v -> v; Bad e -> 0 }",
    "9223372036854775807 + 1",
    "chr 97",
    "ord 'a' + 1",
    "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10",
    "case (1/0, 5) of { (a, b) -> b }",
    "case (1/0, 5) of { (a, b) -> a }",
];

/// `smaller ⊆ bigger`, with ⊥ (`All`) as the top of the inclusion order.
fn assert_subset(smaller: &ExnSet, bigger: &ExnSet, ctx: &str) {
    if bigger.is_all() {
        return;
    }
    let members = smaller
        .members()
        .unwrap_or_else(|| panic!("{ctx}: actual set is ⊥ but the prediction {bigger} is finite"));
    for e in &members {
        assert!(
            bigger.contains(e),
            "{ctx}: actual member {e} escapes the predicted set {bigger}"
        );
    }
}

/// Predicted sets over-approximate the denotation and cover every
/// machine representative, for the whole corpus, at both tiers and both
/// deterministic order policies.
#[test]
fn corpus_predictions_cover_denotation_and_both_backends() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        for tier in [Tier::One, Tier::Two] {
            let mut session = Session::new();
            session.options.machine.order = order;
            session.options.tier = tier;
            for src in CORPUS {
                let predicted = session.predicted_exceptions(src).expect("analyzes");
                if let Some(denoted) = session.exception_set(src).expect("denotes") {
                    assert_subset(&denoted, &predicted, src);
                }
                let out = session.eval(src).expect("evaluates");
                if let Some(exn) = &out.exception {
                    assert!(
                        predicted.contains(exn),
                        "{src}: tier-{} machine raised {exn} outside the predicted set {predicted}",
                        tier.name(),
                    );
                }
            }
        }
    }
}

/// Summaries keep the guarantee through loaded top-level definitions
/// (saturated calls, recursion pinned to ⊥, higher-order arguments).
#[test]
fn loaded_programs_keep_predictions_conservative() {
    let program = "safeDiv a b = if b == 0 then Bad DivideByZero else OK (a / b)\n\
                   useIt a b = case safeDiv a b of { OK v -> v; Bad ex -> 0 - 1 }\n\
                   sumTo n = if n == 0 then 0 else n + sumTo (n - 1)\n\
                   partial m = case m of { Just x -> x }";
    for tier in [Tier::One, Tier::Two] {
        let mut session = Session::new();
        session.options.tier = tier;
        session.load(program).expect("loads");
        for src in [
            "useIt 10 2",
            "useIt 10 0",
            "sumTo 50",
            "partial (Just 3)",
            "partial Nothing",
            "zipWith (+) [] [1]",
            "seq (forceList (zipWith (/) [1] [0])) 5",
            "head []",
        ] {
            let predicted = session.predicted_exceptions(src).expect("analyzes");
            if let Some(denoted) = session.exception_set(src).expect("denotes") {
                assert_subset(&denoted, &predicted, src);
            }
            let out = session.eval(src).expect("evaluates");
            if let Some(exn) = &out.exception {
                assert!(
                    predicted.contains(exn),
                    "{src}: machine raised {exn} outside the predicted set {predicted}"
                );
            }
        }
    }
}

/// The optimizer's analysis-licensed rewrites fire on a program that
/// needs proofs to rewrite, and every query validates as §4.5
/// identity-or-refinement through the session pipeline.
#[test]
fn licensed_rewrites_fire_and_validate_through_the_session() {
    let mut session = Session::new();
    session
        .load(
            "deadIs x = case unsafeIsException (1 / 0) of { True -> 1; False -> x }\n\
             getOk = case unsafeGetException (2 + 3) of { OK v -> v + 1; Bad e -> 0 }\n\
             pruned = let k = 1 in case k of { 1 -> 10; 2 -> 20 }",
        )
        .expect("loads");
    let report = session
        .optimize_validated(&["deadIs 7", "getOk", "pruned", "deadIs (1/0)"])
        .expect("optimizes");
    assert!(report.validated(), "{:?}", report.validation);
    let fired: Vec<&str> = report
        .rewrites
        .iter()
        .filter(|(name, n)| name.starts_with("licensed-") && *n > 0)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        fired.contains(&"licensed-is-exn") && fired.contains(&"licensed-get-exn"),
        "licensed observer folds should fire: {:?}",
        report.rewrites
    );
    // The optimised program still answers identically.
    assert_eq!(session.eval("deadIs 7").expect("evals").rendered, "1");
    assert_eq!(session.eval("getOk").expect("evals").rendered, "6");
    assert_eq!(session.eval("pruned").expect("evals").rendered, "10");
}

/// `Code::verify` accepts every compiler-emitted arena: the session
/// programs used across this battery, plus every per-query extension
/// (checked by the debug-build hook on each compiled evaluation).
#[test]
fn verify_accepts_every_compiler_emitted_arena() {
    let mut session = Session::new();
    session
        .load("double x = x + x\npartial m = case m of { Just x -> x }")
        .expect("loads");
    session
        .compiled_code()
        .verify()
        .expect("the session program compiles to a well-formed arena");
    // And after optimisation rewrites the program:
    session.optimize().expect("optimizes");
    session
        .compiled_code()
        .verify()
        .expect("the optimised program compiles to a well-formed arena");
}

/// Every binding's demand vector over the Prelude plus the benchmark
/// kernels (`S` demanded, `L` lazy, `-` no parameters). The table is the
/// two-point strictness signatures of the retired `urk-transform` pass;
/// the one demand analysis reproduces every row.
const DEMAND_TABLE: &str = "\
id S
const SL
flip SLL
not S
otherwise -
fst S
snd S
error L
loop -
head S
tail S
null S
length S
append SL
map LS
filter LS
foldr LLS
foldl LLS
reverse S
concat S
concatMap LS
take SL
drop SS
replicate SL
iterate LL
repeat L
zipWith LSS
zip SS
sum S
product S
max SS
min SS
abs S
even S
odd S
elem LS
enumFromTo SS
lookup LS
fromMaybe LS
maybe LLS
insert LS
sort S
all LS
any LS
forceList S
concatStr S
unwordsInt S
modifyMVar LL
readMVar L
killThread L
fib S
sumTo SS
isPrime S
allFrom SS
countPrimes SSS
ins LS
isort S
mklist S
lsum S
checksum S
upto S
mapmul S
keepeven S
total S
pipe S
deep S
catchStep L
catchloop SS";

#[test]
fn demand_vectors_match_the_recorded_table() {
    let mut session = Session::new();
    let kernels = urk_bench::workloads()
        .into_iter()
        .chain([urk_bench::pipeline_workload()]);
    for w in kernels {
        session.load(w.program).expect("kernel loads");
    }
    // The benchmark's two exception kernels.
    session
        .load("deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)")
        .expect("loads");
    session
        .load(
            "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
             catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)",
        )
        .expect("loads");
    let analysis = session.analyze();
    let actual: Vec<String> = session
        .program()
        .binds
        .iter()
        .map(|(name, _)| {
            let demands = &analysis.summary(*name).expect("summary").demands;
            let sig: String = demands.iter().map(|d| if *d { 'S' } else { 'L' }).collect();
            format!("{name} {}", if sig.is_empty() { "-" } else { &sig })
        })
        .collect();
    let expected: Vec<&str> = DEMAND_TABLE.lines().collect();
    assert_eq!(actual.len(), 68);
    assert_eq!(actual, expected);
}

/// `main` passes a raising argument down a chain of forwarding functions
/// whose last link ignores it. No link demands its argument, so
/// call-by-value must leave the raise unevaluated: a fixpoint stopped
/// before the chain's length would still claim demand at the head.
#[test]
fn long_forwarding_chains_stay_lazy_after_optimisation() {
    for links in [70, 200] {
        let mut src = String::new();
        for i in 1..links {
            src.push_str(&format!("g{i} x = g{} x\n", i + 1));
        }
        src.push_str(&format!("g{links} x = 0\n"));
        src.push_str("main = let y = raise Overflow in g1 y + 0\n");
        let mut session = Session::new();
        session.load(&src).expect("loads");
        let g1 = session
            .analyze()
            .summary(Symbol::intern("g1"))
            .expect("summary")
            .demands
            .clone();
        assert_eq!(g1, vec![false], "{links} links: g1 ignores its argument");
        let mut validated = Session::new();
        validated.load(&src).expect("loads");
        let report = validated.optimize_validated(&["main"]).expect("optimizes");
        assert!(report.validated(), "{links} links: {:?}", report.validation);
        session.optimize().expect("optimizes");
        assert_eq!(
            session.eval("main").expect("evals").rendered,
            "0",
            "{links} links"
        );
    }
}

// ----------------------------------------------------------------------
// Random closed core terms (the `tests/tier2.rs` generator).
// ----------------------------------------------------------------------

const POOL: [&str; 4] = ["pa", "pb", "pc", "pd"];

/// Generates a closed Int-typed expression: recursion-free, so every
/// term terminates, but `raise`, division and `error` flow everywhere.
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

fn machine_exception(
    e: &Rc<Expr>,
    image: &Arc<Code>,
    policy: OrderPolicy,
) -> Option<urk_syntax::Exception> {
    let mut m = Machine::new(MachineConfig {
        order: policy,
        ..MachineConfig::default()
    });
    // In debug builds the link/compile hooks also run `Code::verify` over
    // the base arena and every query extension.
    m.link_code(Arc::clone(image));
    let out = m.eval_code_expr(e, true).expect("terminates");
    match out {
        Outcome::Caught(e) | Outcome::Uncaught(e) => Some(e),
        Outcome::Value(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline soundness property, ≥256 random closed terms: the
    /// statically predicted set contains the denoted set and whatever
    /// representative the machine raises against either image, under both
    /// deterministic order policies.
    #[test]
    fn random_terms_stay_inside_the_predicted_set(e in gen_int(4, vec![])) {
        let data = DataEnv::new();
        let e = Rc::new(e);
        let analysis = analyze_program(&CoreProgram::default(), &data);
        let predicted = analysis.predicted_set(&e, &data);

        let ev = DenotEvaluator::new();
        if let Denot::Bad(denoted) = ev.eval_closed(&e) {
            if !predicted.is_all() {
                let members = denoted.members()
                    .unwrap_or_else(|| panic!("denoted ⊥ under finite prediction {predicted}"));
                for exn in &members {
                    prop_assert!(
                        predicted.contains(exn),
                        "denoted member {exn} escapes the predicted set {predicted}",
                    );
                }
            }
        }

        let tier1 = Arc::new(compile_program(&[]));
        let tier2 = Arc::new(tier2_optimize(&tier1, &Tier2Facts::empty()));
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
            for (tier, image) in [("1", &tier1), ("2", &tier2)] {
                if let Some(exn) = machine_exception(&e, image, policy) {
                    prop_assert!(
                        predicted.contains(&exn),
                        "tier-{tier} machine raised {exn} outside the predicted set {predicted}",
                    );
                }
            }
        }
    }
}
