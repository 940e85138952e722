//! The generational-heap battery: minor/major collection interleavings
//! raced against evaluation and §5.1 asynchronous delivery, at both
//! tiers, with the heap audited after every episode.
//!
//! What is being proven:
//!
//! * **evacuation preserves semantics** — a copying minor collection may
//!   fire at any machine step (forced by a chaos plan, or organically by
//!   nursery pressure) and the outcome still refines the denotational
//!   oracle, on the tier-1 and tier-2 images alike;
//! * **§5.1 survives evacuation** — an interrupt delivered at any step,
//!   immediately after a forced collection, still restores every
//!   in-flight thunk resumably: the post-episode audit finds no stranded
//!   black holes, no stale forwarding pointers, no remembered-set gaps,
//!   and re-evaluation on the same machine agrees with the oracle;
//! * **the audit checks** — a `sabotage_forwarding` plan plants a stale
//!   `Forwarded` cell after each forced collection, and the generational
//!   audit must fail (while execution itself stays sound: the planted
//!   cell is unreachable).

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urk_io::{chaos_run_with_plan, ChaosReport};
use urk_machine::{
    compile_program, tier2_optimize, Code, FaultPlan, Machine, MachineConfig, Outcome,
};
use urk_syntax::core::Expr;
use urk_syntax::{
    desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv, Exception, Symbol,
};

/// A small program whose queries keep update frames on the stack for whole
/// inner loops (so trims and collections race real in-flight thunks).
const PROGRAM: &str = "\
gsum n = if n == 0 then 0 else n + gsum (n - 1)
gmk n = if n == 0 then [] else n : gmk (n - 1)
glen xs = case xs of { [] -> 0; y : ys -> 1 + glen ys }
gdiv a b = a / b
";

/// The query corpus: a pure value with a buried shared thunk, list churn
/// (lots of short-lived nursery cells), and an order-dependent raise.
const QUERIES: &[(&str, &str)] = &[
    ("buried-thunk", "let s = gsum 150 in s + 1"),
    ("list-churn", "glen (gmk 120) + gsum 40"),
    ("raise-at-depth", "gsum 60 + gdiv 1 0"),
];

struct Ctx {
    data: DataEnv,
    binds: Vec<(Symbol, Rc<Expr>)>,
    /// The program lowered at tier 1 and, analysis-licensed, at tier 2.
    images: [(&'static str, Arc<Code>); 2],
}

fn ctx() -> Ctx {
    let surface = parse_program(PROGRAM).expect("program parses");
    let mut data = DataEnv::new();
    let prog = desugar_program(&surface, &mut data).expect("program desugars");
    let base = compile_program(&prog.binds);
    let facts = urk::tier2_facts_for(urk::analyze_program(&prog, &data), &prog.binds);
    let t2 = Arc::new(tier2_optimize(&base, &facts));
    Ctx {
        data,
        binds: prog.binds,
        images: [("tier1", Arc::new(base)), ("tier2", t2)],
    }
}

fn query(ctx: &Ctx, src: &str) -> Rc<Expr> {
    Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &ctx.data).expect("desugars"))
}

/// A config that keeps both collectors busy: a nursery small enough that
/// organic minor collections fire inside every query, and a major
/// threshold the list-churn query crosses.
fn pressured() -> MachineConfig {
    MachineConfig {
        nursery_size: 128,
        gc_threshold: 1_500,
        ..MachineConfig::default()
    }
}

fn run_both(ctx: &Ctx, q: &Rc<Expr>, plan: &FaultPlan) -> [(&'static str, ChaosReport); 2] {
    ctx.images.clone().map(|(tier, code)| {
        let report = chaos_run_with_plan(&ctx.binds, &code, q, &pressured(), 400_000, plan.clone());
        (tier, report)
    })
}

#[test]
fn seeded_collection_interleavings_hold_the_invariants_on_both_backends() {
    // Random interleavings of forced minor and major collections (with an
    // occasional interrupt in the middle), derived from a seed: every
    // schedule must leave a clean heap and an oracle-consistent machine.
    let ctx = ctx();
    let horizon = 8_000u64;
    for (name, src) in QUERIES {
        let q = query(&ctx, src);
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut force_minor_at: Vec<u64> = (0..rng.gen_range(1..6u32))
                .map(|_| rng.gen_range(1..horizon))
                .collect();
            force_minor_at.sort_unstable();
            let mut force_gc_at: Vec<u64> = (0..rng.gen_range(0..3u32))
                .map(|_| rng.gen_range(1..horizon))
                .collect();
            force_gc_at.sort_unstable();
            let injections = if rng.gen_bool(0.5) {
                vec![(rng.gen_range(1..horizon), Exception::Interrupt)]
            } else {
                vec![]
            };
            let plan = FaultPlan {
                seed,
                horizon,
                injections,
                force_gc_at,
                force_minor_at,
                ..FaultPlan::default()
            };
            for (tier, r) in run_both(&ctx, &q, &plan) {
                assert!(
                    r.passed(),
                    "{name} seed {seed} on {tier}: sound={} heap={} reeval={} \
                     outcome={} oracle={} plan={:?}",
                    r.sound,
                    r.heap_consistent,
                    r.reeval_ok,
                    r.outcome,
                    r.oracle,
                    r.plan
                );
            }
        }
    }
}

#[test]
fn interrupt_delivery_sweep_races_evacuation_at_every_step() {
    // The PR 7 delivery-sweep pattern, aimed at the copying collector: at
    // *every* step index of the episode, force a minor collection and
    // deliver an interrupt at that same step — the §5.1 trim then runs
    // over a freshly evacuated stack and must restore every in-flight
    // thunk through the new tenured copies.
    let ctx = ctx();
    let q = query(&ctx, "let s = gsum 40 in s + glen (gmk 25)");

    // Calibrate the sweep to the episode's actual length at tier 1 (the
    // longer of the two).
    let mut base = Machine::new(pressured());
    base.link_code(Arc::clone(&ctx.images[0].1));
    let out = base.eval_code_expr(&q, true).expect("baseline runs");
    assert!(matches!(out, Outcome::Value(_)), "{out:?}");
    let steps = base.stats().steps.min(512);
    assert!(steps > 50, "sweep needs a real episode, got {steps} steps");

    for at in 1..=steps {
        let plan = FaultPlan {
            horizon: steps + 64,
            injections: vec![(at, Exception::Interrupt)],
            force_minor_at: vec![at],
            ..FaultPlan::default()
        };
        for (tier, r) in run_both(&ctx, &q, &plan) {
            assert!(
                r.passed(),
                "step {at} on {tier}: sound={} heap={} reeval={} outcome={} oracle={}",
                r.sound,
                r.heap_consistent,
                r.reeval_ok,
                r.outcome,
                r.oracle
            );
        }
    }
}

#[test]
fn organic_nursery_pressure_promotes_and_audits_clean() {
    // No chaos at all: a tiny nursery makes the run loop itself schedule
    // minor collections, and the gauges must show the generational heap
    // actually working — minors fired, survivors promoted, and the
    // between-episode audit clean at both tiers.
    let ctx = ctx();
    let q = query(&ctx, "glen (gmk 400) + gsum 200");
    for (tier, code) in &ctx.images {
        let mut m = Machine::new(pressured());
        m.link_code(Arc::clone(code));
        let out = m.eval_code_expr(&q, true).expect("runs");
        let Outcome::Value(n) = out else {
            panic!("{tier}: {out:?}")
        };
        assert_eq!(m.render(n, 16), "20500", "{tier}");
        let stats = m.stats();
        assert!(
            stats.minor_gcs >= 1,
            "{tier}: nursery pressure fired no minor collection: {stats:?}"
        );
        assert!(
            stats.nodes_promoted > 0,
            "{tier}: no survivors promoted: {stats:?}"
        );
        assert_eq!(
            stats.gc_runs,
            stats.minor_gcs + stats.major_gcs,
            "{tier}: gc_runs must tally both generations"
        );
        let audit = m.audit_heap();
        assert!(
            audit.is_consistent(),
            "{tier}: post-episode audit failed: {audit:?}"
        );
    }
}

fn sabotage_plan() -> FaultPlan {
    FaultPlan {
        horizon: 8_000,
        force_minor_at: vec![120],
        sabotage_forwarding: true,
        ..FaultPlan::default()
    }
}

#[test]
fn sabotaged_forwarding_fails_the_audit_on_both_backends() {
    // The checker checks: a deliberately stranded forwarding pointer must
    // be flagged by the generational audit. Execution stays sound (the
    // planted cell is unreachable) — only the heap-consistency verdict
    // may fall.
    let ctx = ctx();
    let q = query(&ctx, "let s = gsum 150 in s + 1");
    for (tier, r) in run_both(&ctx, &q, &sabotage_plan()) {
        assert!(
            !r.heap_consistent,
            "{tier}: planted stale forwarding must fail the audit: {r:?}"
        );
        assert!(
            r.sound,
            "{tier}: the planted cell is unreachable, execution must stay sound: {r:?}"
        );
    }
}

#[test]
fn the_same_plan_without_sabotage_passes() {
    // The control: identical fault schedule, honest evacuation.
    let ctx = ctx();
    let q = query(&ctx, "let s = gsum 150 in s + 1");
    let plan = FaultPlan {
        sabotage_forwarding: false,
        ..sabotage_plan()
    };
    for (tier, r) in run_both(&ctx, &q, &plan) {
        assert!(r.passed(), "{tier}: {r:?}");
    }
}
