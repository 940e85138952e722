//! The flat-code differential battery: the tier-1 and tier-2 images must
//! be observationally indistinguishable on every corpus the repo already
//! trusts, and both must stay inside the denotational exception set (§4.5
//! refinement).
//!
//! Four layers of evidence:
//!
//! * the soundness corpus and the paper's worked examples evaluate to
//!   byte-identical renderings and identical representative exceptions at
//!   both tiers, under both deterministic order policies;
//! * every exceptional outcome is a member of the denoted set, so
//!   agreement is not two matching wrong answers;
//! * the chaos corpus holds §5.1's invariants (soundness under injected
//!   faults, clean heap audit, oracle-consistent re-eval);
//! * vendored-proptest random well-typed core terms, each bound as a
//!   program global so the tier-2 pass rewrites it, agree tier 1 vs tier 2
//!   at the machine level, with denot-set membership.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use urk::{tier2_facts_for, EvalPool, Options, PoolConfig, Session, Tier};
use urk_denot::{Denot, DenotEvaluator};
use urk_machine::{compile_program, tier2_optimize, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::core::{Alt, CoreProgram, Expr, PrimOp};
use urk_syntax::{DataEnv, Symbol};

/// The closed-term corpus from `tests/soundness.rs`: every corner of the
/// semantics — values, laziness, exceptions, `seq`, `mapException`, the
/// unsafe observers, overflow, recursion, buried exceptions.
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
    "let m = raise DivideByZero in seq (raise Overflow) ((case 0 < m of { True -> 0; False -> m }) + 0)",
    "9223372036854775807 + 1",
    "negate (0 - 9223372036854775807)",
    "chr 97",
    "ord 'a' + 1",
    "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10",
    "let { isEven = \\n -> if n == 0 then True else isOdd (n - 1)
         ; isOdd = \\n -> if n == 0 then False else isEven (n - 1) }
     in isEven 10",
    "case (1/0, 5) of { (a, b) -> b }",
    "case (1/0, 5) of { (a, b) -> a }",
];

/// The chaos corpus from `tests/chaos.rs`: distinct denotational shapes
/// for the fault plans to race against.
const CHAOS_PROGRAMS: &[(&str, &str)] = &[
    (
        "fib",
        "let f = \\n -> if n < 2 then n else f (n - 1) + f (n - 2) in f 14",
    ),
    (
        "sum-buried-thunk",
        "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 250) in s + 1",
    ),
    (
        "list-length",
        "let { upto = \\n -> if n == 0 then [] else n : upto (n - 1)
             ; len = \\xs -> case xs of { [] -> 0; y : ys -> 1 + len ys } }
         in len (upto 200)",
    ),
    (
        "divide-by-zero-at-depth",
        "let g = \\n -> if n == 0 then 1 / 0 else n + g (n - 1) in g 120",
    ),
    (
        "order-dependent-set",
        r#"(1/0) + (raise (UserError "Urk") + raise Overflow)"#,
    ),
    (
        "match-failure-at-depth",
        "let g = \\n -> if n == 0 then (case [] of { y : ys -> y }) else n + g (n - 1) in g 100",
    ),
];

/// A tier-1 session and a tier-2 session with otherwise identical
/// options.
fn tier_pair(order: OrderPolicy) -> (Session, Session) {
    let mut tier1 = Session::new();
    tier1.options.machine.order = order;
    let mut tier2 = Session::new();
    tier2.options.machine.order = order;
    tier2.options.tier = Tier::Two;
    (tier1, tier2)
}

/// Asserts the two sessions agree on `src`, and that any exceptional
/// outcome is a member of the denoted set.
fn assert_agree(tier1: &Session, tier2: &Session, src: &str) {
    let a = tier1
        .eval(src)
        .unwrap_or_else(|e| panic!("{src}: tier 1: {e}"));
    let b = tier2
        .eval(src)
        .unwrap_or_else(|e| panic!("{src}: tier 2: {e}"));
    assert_eq!(a.rendered, b.rendered, "{src}: rendered outcome diverged");
    assert_eq!(
        a.exception, b.exception,
        "{src}: representative exception diverged"
    );
    assert_eq!(
        (a.stats.tier.name(), b.stats.tier.name()),
        ("1", "2"),
        "{src}"
    );
    if let Some(exn) = &b.exception {
        let set = tier2
            .exception_set(src)
            .expect("denotes")
            .unwrap_or_else(|| panic!("{src}: machine raised {exn} but the denotation is Ok"));
        assert!(
            set.contains(exn),
            "{src}: the machine chose {exn} outside the denoted set {set}"
        );
    }
}

#[test]
fn the_soundness_corpus_agrees_under_both_order_policies() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let (tier1, tier2) = tier_pair(order);
        for src in CORPUS {
            assert_agree(&tier1, &tier2, src);
        }
    }
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
    // Loaded top-level definitions exercise the global-reference path of
    // the flat format (the knot tied through `COp::Global`) and give the
    // tier-2 pass something to rewrite.
    let program = "safeDiv a b = if b == 0 then Bad DivideByZero else OK (a / b)\n\
                   useIt a b = case safeDiv a b of { OK v -> v; Bad ex -> 0 - 1 }\n\
                   sumTo n = if n == 0 then 0 else n + sumTo (n - 1)";
    let (mut tier1, mut tier2) = tier_pair(OrderPolicy::LeftToRight);
    tier1.load(program).expect("loads");
    tier2.load(program).expect("loads");
    for src in [
        "useIt 10 2",
        "useIt 10 0",
        "sumTo 100",
        "zipWith (+) [] [1]",
        "zipWith (+) [1] [1, 2]",
        "zipWith (/) [1, 2] [1, 0]",
        "seq (zipWith (/) [1] [0]) 5",
        "seq (forceList (zipWith (/) [1] [0])) 5",
        "take 5 (iterate (\\x -> x * 2) 1)",
        "head []",
        "map (\\x -> x * x) [1, 2, 3]",
    ] {
        assert_agree(&tier1, &tier2, src);
    }
}

#[test]
fn the_chaos_corpus_holds_the_invariants_on_the_compiled_backend() {
    let session = Session::new();
    let mut injected_runs = 0u32;
    let mut runs = 0u32;
    for (name, src) in CHAOS_PROGRAMS {
        for seed in 0..12u64 {
            let r = session
                .chaos_check(src, seed)
                .unwrap_or_else(|e| panic!("{name}: front-end error: {e}"));
            assert!(
                r.sound,
                "{name} seed {seed}: unsound — outcome {} not in oracle {} ∪ {:?}",
                r.outcome,
                r.oracle,
                r.plan.injectable()
            );
            assert!(
                r.heap_consistent,
                "{name} seed {seed}: heap audit failed after an interrupted run ({})",
                r.outcome
            );
            assert!(
                r.reeval_ok,
                "{name} seed {seed}: re-evaluation after disarming disagrees with {}",
                r.oracle
            );
            runs += 1;
            if r.faults_fired > 0 {
                injected_runs += 1;
            }
        }
    }
    assert!(
        injected_runs >= runs / 3,
        "too few runs actually injected faults: {injected_runs}/{runs}"
    );
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
    let sources: &[&str] = &["double x = x + x\nsquare x = x * x"];
    let exprs: Vec<String> = (0..8)
        .map(|i| format!("double (square {i}) + {i}"))
        .chain(["zipWith (/) [1, 2] [1, 0]".to_string(), "1/0".to_string()])
        .collect();
    let run = |tier| {
        let pool = EvalPool::start(
            sources,
            Options {
                tier,
                ..Options::default()
            },
            PoolConfig {
                workers: 3,
                cache_cap: 64,
                ..PoolConfig::default()
            },
        )
        .expect("pool starts");
        pool.eval_batch(&exprs)
    };
    let tier1 = run(Tier::One);
    let tier2 = run(Tier::Two);
    for ((src, a), b) in exprs.iter().zip(&tier1).zip(&tier2) {
        let a = a.as_ref().expect("tier 1 evals");
        let b = b.as_ref().expect("tier 2 evals");
        assert_eq!(a.rendered, b.rendered, "{src}");
        assert_eq!(a.exception, b.exception, "{src}");
        assert_eq!(b.stats.tier.name(), "2", "{src}");
    }
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

fn render_outcome(m: &mut Machine, out: Outcome) -> String {
    match out {
        Outcome::Value(n) => m.render(n, 16),
        Outcome::Caught(e) | Outcome::Uncaught(e) => format!("(raise {e})"),
    }
}

/// Binds `e` as the global `main`, lowers that program at tier 1 or
/// (analysis-licensed) at tier 2, and evaluates `main` under a catch mark.
/// Queries always lower at tier 1, so the term must be a program global
/// for the tier-2 pass to rewrite it.
fn tier_result(
    e: &Rc<Expr>,
    tier2: bool,
    policy: OrderPolicy,
) -> (String, Option<urk_syntax::Exception>) {
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
    let exn = match &out {
        Outcome::Caught(e) | Outcome::Uncaught(e) => Some(e.clone()),
        Outcome::Value(_) => None,
    };
    (render_outcome(&mut m, out), exn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For random well-typed terms and every order policy, the tier-1
    /// and tier-2 images produce identical outcomes, and any exception is
    /// inside the denoted set.
    #[test]
    fn tier_two_agrees_with_tier_one_on_random_terms(e in gen_int(4, Vec::new())) {
        let e = Rc::new(e);
        let data = DataEnv::new();
        let denot = DenotEvaluator::new(&data).eval_closed(&e);
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            let (tr, te) = tier_result(&e, false, policy);
            let (cr, ce) = tier_result(&e, true, policy);
            prop_assert_eq!(&tr, &cr, "rendered outcome diverged under {:?}", policy);
            prop_assert_eq!(&te, &ce, "exception diverged under {:?}", policy);
            if let Some(exn) = &ce {
                let Denot::Bad(set) = &denot else {
                    return Err(TestCaseError::fail(format!(
                        "machine raised {exn} but the denotation is Ok"
                    )));
                };
                prop_assert!(set.contains(exn),
                    "the machine chose {} outside the denoted set {}", exn, set);
            }
        }
    }
}
