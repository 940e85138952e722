//! The chaos differential suite: §5.1's robustness claim over many seeds.
//!
//! Every run injects a seeded fault plan (asynchronous exceptions at random
//! steps, forced collections, a shrinking heap budget) into a machine
//! evaluation and verifies the two invariants against the denotational
//! oracle:
//!
//! (a) **soundness under faults** — the observed behaviour is a member of
//!     the denotational exception set ∪ the plan's injectable asynchrony;
//! (b) **heap consistency** — the post-run audit finds zero stranded black
//!     holes and a coherent allocator, and the *same machine* re-evaluates
//!     to an oracle-consistent answer once the plan is disarmed.
//!
//! A final test arms the deliberately-broken injection point
//! (`sabotage_async_restore`) and demonstrates the audit fails when the
//! §5.1 restore invariant is actually violated — i.e. the checker checks.

use std::rc::Rc;
use std::sync::Arc;

use urk::Session;
use urk_io::{chaos_run_with_plan, ChaosReport};
use urk_machine::{compile_program, Code, FaultPlan, MachineConfig};
use urk_syntax::core::Expr;
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv, Exception};

/// The corpus: self-contained programs with distinct denotational shapes —
/// pure values of different sizes, a buried synchronous exception, an
/// order-dependent multi-exception set, and a pattern-match failure — so
/// the faults race every kind of trim.
const PROGRAMS: &[(&str, &str)] = &[
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

const SEEDS_PER_PROGRAM: u64 = 34;

#[test]
fn two_hundred_seeded_runs_hold_both_invariants() {
    let session = Session::new();
    let mut runs = 0u32;
    let mut injected_runs = 0u32;
    for (name, src) in PROGRAMS {
        for seed in 0..SEEDS_PER_PROGRAM {
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
                "{name} seed {seed}: heap audit failed after {}",
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
        runs >= 200,
        "the suite must cover at least 200 runs: {runs}"
    );
    // Seeded generation leaves some plans empty; most must actually fire.
    assert!(
        injected_runs >= runs / 3,
        "too few runs actually injected faults: {injected_runs}/{runs}"
    );
}

fn core_of(data: &DataEnv, src: &str) -> Rc<Expr> {
    Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), data).expect("desugars"))
}

fn sabotage_report() -> ChaosReport {
    let data = DataEnv::new();
    // The outer addition forces the thunk `s`, keeping an update frame on
    // the stack for the whole inner loop; the injected interrupt trims
    // past it while the sabotaged restore strands the black hole.
    let query = core_of(
        &data,
        "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 300) in s + 1",
    );
    let plan = FaultPlan {
        horizon: 50_000,
        injections: vec![(200, Exception::Interrupt)],
        sabotage_async_restore: true,
        ..FaultPlan::default()
    };
    chaos_run_with_plan(
        &[],
        &empty_image(),
        &query,
        &MachineConfig::default(),
        400_000,
        plan,
    )
}

/// The image of the empty program: every query here is closed.
fn empty_image() -> Arc<Code> {
    Arc::new(compile_program(&[]))
}

#[test]
fn the_audit_fails_when_the_restore_invariant_is_broken() {
    let r = sabotage_report();
    assert!(
        !r.heap_consistent,
        "sabotaged restore must strand a black hole the audit sees: {r:?}"
    );
}

#[test]
fn the_same_plan_without_sabotage_passes() {
    // The control for the sabotage test: identical program and fault
    // schedule, honest restore — everything holds.
    let data = DataEnv::new();
    let query = core_of(
        &data,
        "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 300) in s + 1",
    );
    let plan = FaultPlan {
        horizon: 50_000,
        injections: vec![(200, Exception::Interrupt)],
        ..FaultPlan::default()
    };
    let r = chaos_run_with_plan(
        &[],
        &empty_image(),
        &query,
        &MachineConfig::default(),
        400_000,
        plan,
    );
    assert!(r.passed(), "{r:?}");
    assert_eq!(r.outcome, "Caught(Interrupt)");
}

#[test]
fn failing_seeds_reproduce_exactly() {
    // Determinism is what makes a chaos failure a bug report: the same
    // seed must produce the same plan, outcome, and verdict.
    let session = Session::new();
    let (_, src) = PROGRAMS[1];
    for seed in [3u64, 17, 29] {
        let a = session.chaos_check(src, seed).expect("runs");
        let b = session.chaos_check(src, seed).expect("runs");
        assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            (a.sound, a.heap_consistent, a.reeval_ok),
            (b.sound, b.heap_consistent, b.reeval_ok)
        );
    }
}
