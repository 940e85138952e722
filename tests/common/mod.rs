//! What the tier-1/tier-2 differential batteries (`tests/compiled.rs`,
//! `tests/tier2.rs`, `tests/saturated_entry.rs` and
//! `tests/corpus_regress.rs`) share: the corpora, the session pair, the
//! agreement assert, the refinement check against the denotation, and the
//! bodies of the checks the first two run.

use urk::{EvalPool, Options, PoolConfig, Session, Tier};
use urk_denot::Env;
use urk_machine::OrderPolicy;

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
pub const CHAOS_PROGRAMS: &[(&str, &str)] = &[
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
pub fn tier_pair(order: OrderPolicy) -> (Session, Session) {
    let mut tier1 = Session::new();
    tier1.options.machine.order = order;
    let mut tier2 = Session::new();
    tier2.options.machine.order = order;
    tier2.options.tier = Tier::Two;
    (tier1, tier2)
}

/// Evaluates `src` on a machine of `s` and checks that its outcome is one
/// the denotation admits, to `depth` ([`urk_io::admits`]).
pub fn admitted(s: &Session, src: &str, depth: u32) -> Result<(), String> {
    let e = s.compile_expr(src).map_err(|e| e.to_string())?;
    let ev = s.denot_evaluator();
    let denot = ev.eval(&e, &ev.bind_recursive(&s.program().binds, &Env::empty()));
    let mut m = s.compiled_machine();
    let out = m.eval_code_expr(&e, false).map_err(|e| e.to_string())?;
    urk_io::admits(&mut m, &out, &ev, &denot, depth)
}

/// Asserts the two sessions agree on `src`, and that the outcome is one
/// the denotation admits.
pub fn assert_two_way(tier1: &Session, tier2: &Session, src: &str) {
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
    if let Err(why) = admitted(tier2, src, 16) {
        panic!("{src}: {why}");
    }
}

/// The soundness corpus agrees across tiers under both deterministic
/// orders, with denoted-set membership.
pub fn soundness_corpus_agrees() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let (tier1, tier2) = tier_pair(order);
        for src in CORPUS {
            assert_two_way(&tier1, &tier2, src);
        }
    }
}

/// The paper's worked examples agree across tiers through loaded
/// definitions. Loaded definitions are where the tier-2 ops actually live
/// (query extensions lower at tier 1), so these exercise the
/// global-reference path (the knot tied through `COp::Global`) and
/// `Fused`, `Spec`, and `AppG` through the global table.
pub fn paper_examples_agree() {
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
        assert_two_way(&tier1, &tier2, src);
    }
}

/// A tier-1 pool and a tier-2 pool, each sharing one image across its
/// workers, answer a batch identically.
pub fn pools_agree() {
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

/// Runs every chaos program under `seeds` fault plans on `tier`'s image
/// and asserts §5.1's invariants: the outcome is in the oracle's set, the
/// heap audit passes after an interrupted run, and re-evaluation after
/// disarming agrees; at least a third of the runs must really inject.
pub fn assert_chaos_invariants(tier: Tier, seeds: u64) {
    let mut session = Session::new();
    session.options.tier = tier;
    let t = tier.name();
    let mut injected_runs = 0u32;
    let mut runs = 0u32;
    for (name, src) in CHAOS_PROGRAMS {
        for seed in 0..seeds {
            let r = session
                .chaos_check(src, seed)
                .unwrap_or_else(|e| panic!("{name}: front-end error: {e}"));
            assert!(
                r.sound,
                "{name} seed {seed}: unsound at tier {t} — outcome {} not in oracle {} ∪ {:?}",
                r.outcome,
                r.oracle,
                r.plan.injectable()
            );
            assert!(
                r.heap_consistent,
                "{name} seed {seed}: heap audit failed after a faulted tier-{t} run ({})",
                r.outcome
            );
            assert!(
                r.reeval_ok,
                "{name} seed {seed}: tier-{t} re-evaluation after disarming disagrees with {}",
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
        "too few tier-{t} runs actually injected faults: {injected_runs}/{runs}"
    );
}
