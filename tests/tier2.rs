//! The tier-2 differential battery: the analysis-licensed
//! superinstruction image must be observationally indistinguishable from
//! the tier-1 image of the one flat-code executor on every corpus the
//! repo trusts, under every order policy, chaos plan, and interrupt
//! sweep — while actually being faster (the perf claim is E20 of
//! `experiment_report` and the `machine.*.exec_ms` metrics of
//! `perfbench/`; this file proves the speed is not bought with wrong
//! answers). The checks it shares with `tests/compiled.rs` live once,
//! in `tests/common/mod.rs`.
//!
//! Layers of evidence:
//!
//! * the soundness corpus and the paper's worked examples agree across
//!   both tiers under both deterministic orders, with every outcome
//!   one the denotation admits (§3.5 refinement);
//! * the seeded order stays in per-seed lockstep across tiers, so the
//!   §3.5 "pick any member" draw stream is preserved by fusion;
//! * the bench workloads agree and the tier-2 gauges (`fused_steps`,
//!   `ic_hits`) prove the optimisations actually fired — agreement via
//!   the unoptimised path would be vacuous;
//! * the chaos corpus holds §5.1's invariants when the faulted machine
//!   executes the tier-2 image, and a deterministic interrupt sweep
//!   races delivery against a deliberately tiny nursery;
//! * a corrupted licence (a fact claiming a wrong constant) produces an
//!   observably wrong answer — proving the differential comparison is
//!   load-bearing, and that unlicensed speculation (propagating instead
//!   of storing a speculative raise) would be caught the same way.

mod common;

use std::sync::Arc;

use urk::{Session, Tier};
use urk_bench::{compile, lower, lower_t2, pipeline_workload, run_flat, workloads, Workload};
use urk_machine::{
    compile_program, tier2_optimize, FactVal, FaultPlan, GlobalFact, Machine, MachineConfig,
    OrderPolicy, Outcome, Tier2Facts,
};
use urk_syntax::{desugar_program, parse_program, DataEnv, Exception};

use common::tier_pair;

#[test]
fn the_soundness_corpus_agrees_across_engines_under_both_orders() {
    common::soundness_corpus_agrees();
}

#[test]
fn paper_examples_agree_through_loaded_definitions_at_tier_2() {
    common::paper_examples_agree();
}

#[test]
fn seeded_orders_stay_in_lockstep_across_tiers() {
    // §3.5's seeded draw stream must survive fusion: the pass disables
    // prim-region speculation under Seeded and region-evaluates
    // chosen-first, so each seed picks the same member at both tiers.
    let src = r#"(1/0) + (raise (UserError "a") + raise Overflow)"#;
    for seed in 0..16u64 {
        let (t1, t2) = tier_pair(OrderPolicy::Seeded(seed));
        let b = t1.eval(src).expect("tier 1 evals");
        let c = t2.eval(src).expect("tier 2 evals");
        assert_eq!(b.rendered, c.rendered, "seed {seed}: tier 1 vs tier 2");
    }
}

#[test]
fn bench_workloads_agree_and_the_tier2_gauges_prove_the_claim() {
    let mut all = workloads();
    all.push(pipeline_workload());
    for w in &all {
        let c = compile(w);
        let code1 = lower(&c);
        let (t1, s1) = run_flat(&c, &code1, MachineConfig::default());
        let code2 = lower_t2(&c);
        assert!(code2.is_tier2());
        code2.verify().expect("tier-2 image verifies");
        let (t2, s2) = run_flat(&c, &code2, MachineConfig::default());
        assert_eq!(t1, w.expected, "workload {}", w.name);
        assert_eq!(t2, w.expected, "workload {}", w.name);
        // The gauges: agreement is only meaningful if the tier-2 ops ran.
        assert!(
            s2.fused_steps > 0,
            "workload {}: no fused regions executed: {s2:?}",
            w.name
        );
        assert!(
            s2.ic_hits > 0,
            "workload {}: inline caches never hit: {s2:?}",
            w.name
        );
        assert!(
            s2.ic_hits > s2.ic_misses,
            "workload {}: monomorphic call sites must be cache-friendly",
            w.name
        );
        // Fused regions collapse step sequences, so the tier-2 image
        // must take strictly fewer machine steps.
        assert!(
            s2.steps < s1.steps,
            "workload {}: tier 2 took {} steps, tier 1 {}",
            w.name,
            s2.steps,
            s1.steps
        );
    }
}

#[test]
fn the_chaos_corpus_holds_the_invariants_on_the_tier2_image() {
    common::assert_chaos_invariants(Tier::Two, 10);
}

#[test]
fn interrupt_sweeps_race_delivery_against_a_tiny_nursery() {
    // An allocating workload on the tier-2 image with a nursery small
    // enough that minor collections run constantly, sweeping a
    // deterministic Interrupt across the run: §5.1 demands every landing
    // point either completes or catches, audits clean, and the same
    // machine re-evaluates correctly afterwards.
    let w = Workload {
        query: "pipe 60".into(),
        ..pipeline_workload()
    };
    let c = compile(&w);
    let code = lower_t2(&c);
    let base = MachineConfig {
        nursery_size: 64,
        gc_threshold: 256,
        ..MachineConfig::default()
    };
    let (undisturbed, baseline) = run_flat(&c, &code, base.clone());
    assert!(
        baseline.minor_gcs > 0,
        "the sweep must actually race minor GC: {baseline:?}"
    );
    let horizon = baseline.steps;
    let stride = (horizon / 40).max(1);
    let mut interrupted = 0u32;
    for at in (1..horizon).step_by(stride as usize) {
        let mut m = Machine::new(MachineConfig {
            event_schedule: vec![(at, Exception::Interrupt)],
            ..base.clone()
        });
        m.link_code(Arc::clone(&code));
        let out = m
            .eval_code_expr(&c.query, true)
            .unwrap_or_else(|e| panic!("step {at}: machine error {e}"));
        match out {
            Outcome::Value(n) => assert_eq!(m.render(n, 16), undisturbed, "step {at}"),
            Outcome::Caught(Exception::Interrupt) => interrupted += 1,
            other => panic!("step {at}: unjustified outcome {other:?}"),
        }
        let audit = m.audit_heap();
        assert!(audit.is_consistent(), "step {at}: {audit}");
        // The schedule is exhausted; the same machine must recover.
        let re = m
            .eval_code_expr(&c.query, true)
            .unwrap_or_else(|e| panic!("step {at}: re-eval error {e}"));
        match re {
            Outcome::Value(n) => assert_eq!(m.render(n, 16), undisturbed, "step {at}: re-eval"),
            other => panic!("step {at}: re-eval produced {other:?}"),
        }
        let audit = m.audit_heap();
        assert!(audit.is_consistent(), "step {at}: after re-eval: {audit}");
    }
    assert!(
        interrupted > 5,
        "the sweep never landed mid-run ({interrupted} interrupts)"
    );
}

#[test]
fn speculative_raises_are_stored_not_propagated() {
    // §3.3's discipline at the speculation site: `main` denotes {42} —
    // the poisoned binding is never demanded. An unlicensed
    // implementation that *propagates* the speculative raise would
    // answer `(raise DivideByZero)` and this differential would catch
    // it; the fused_steps gauge proves the speculation actually ran.
    let mut data = DataEnv::new();
    let prog = desugar_program(
        &parse_program(
            "main = let x = 1/0 in 42\n\
             demand = let y = 2/0 in y + 1",
        )
        .expect("parses"),
        &mut data,
    )
    .expect("desugars");
    let base = compile_program(&prog.binds);
    let t2 = Arc::new(tier2_optimize(&base, &Tier2Facts::empty()));
    let eval = |query: &str| {
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::clone(&t2));
        let e =
            urk_syntax::desugar_expr(&urk_syntax::parse_expr_src(query).expect("parses"), &data)
                .expect("desugars");
        let out = m.eval_code_expr(&e, true).expect("no machine error");
        (m.render_outcome(&out, 16), m.stats().clone())
    };
    let (undemanded, stats) = eval("main");
    assert_eq!(undemanded, "42", "a stored speculative raise is invisible");
    assert!(
        stats.fused_steps > 0,
        "speculation must have run: {stats:?}"
    );
    let (demanded, _) = eval("demand");
    assert_eq!(
        demanded, "(raise DivideByZero)",
        "a demanded poisoned binding raises the stored member"
    );
}

#[test]
fn the_spec_propagate_sabotage_fires_at_both_tiers() {
    // The switch behind the test above: with `sabotage_spec_propagate`
    // armed, a `let` that binds an already poisoned node raises at the
    // binding site instead of storing the poison. `shared` binds a
    // poisoned node at either tier; `main` only at tier 2, where the
    // speculation site poisons `x` eagerly.
    let mut data = DataEnv::new();
    let prog = desugar_program(
        &parse_program(
            "main = let x = 1/0 in 42\n\
             shared = let p = 1/0 in seq (unsafeIsException p) (let x = p in 42)",
        )
        .expect("parses"),
        &mut data,
    )
    .expect("desugars");
    let base = compile_program(&prog.binds);
    let t2 = tier2_optimize(&base, &Tier2Facts::empty());
    let images = [("tier1", Arc::new(base)), ("tier2", Arc::new(t2))];
    let eval = |code: &Arc<urk::Code>, query: &str, sabotage: bool| {
        let mut m = Machine::new(MachineConfig {
            chaos: Some(FaultPlan {
                horizon: u64::MAX,
                sabotage_spec_propagate: sabotage,
                ..FaultPlan::default()
            }),
            ..MachineConfig::default()
        });
        m.link_code(Arc::clone(code));
        let e =
            urk_syntax::desugar_expr(&urk_syntax::parse_expr_src(query).expect("parses"), &data)
                .expect("desugars");
        let out = m.eval_code_expr(&e, true).expect("no machine error");
        m.render_outcome(&out, 16)
    };
    for (tier, code) in &images {
        for query in ["main", "shared"] {
            assert_eq!(eval(code, query, false), "42", "{tier} {query}: honest");
        }
        assert_eq!(
            eval(code, "shared", true),
            "(raise DivideByZero)",
            "{tier}: the sabotage must fire"
        );
    }
    assert_eq!(eval(&images[1].1, "main", true), "(raise DivideByZero)");
}

#[test]
fn a_corrupted_licence_is_caught_by_the_differential_battery() {
    // Facts are a licence, not a proof: the constant-substitution pass
    // emits the *fact's* value, so a corrupted analysis produces an
    // observably wrong image. This is the acceptance sabotage for the
    // licence path — the same comparison every test above runs is what
    // catches it.
    let src = "k = 42\nmain = k + 1";
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let base = compile_program(&prog.binds);
    let honest = Tier2Facts {
        globals: vec![
            GlobalFact {
                whnf_safe: true,
                value: Some(FactVal::Int(42)),
                demands: Vec::new(),
            },
            GlobalFact::default(),
        ],
    };
    let corrupted = Tier2Facts {
        globals: vec![
            GlobalFact {
                whnf_safe: true,
                value: Some(FactVal::Int(7)),
                demands: Vec::new(),
            },
            GlobalFact::default(),
        ],
    };
    let eval = |code: Arc<urk::Code>| {
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(code);
        let e =
            urk_syntax::desugar_expr(&urk_syntax::parse_expr_src("main").expect("parses"), &data)
                .expect("desugars");
        match m.eval_code_expr(&e, false).expect("no machine error") {
            Outcome::Value(n) => m.render(n, 16),
            other => panic!("unexpected {other:?}"),
        }
    };
    let good = eval(Arc::new(tier2_optimize(&base, &honest)));
    assert_eq!(good, "43", "an honest licence preserves the answer");
    let bad = eval(Arc::new(tier2_optimize(&base, &corrupted)));
    assert_eq!(
        bad, "8",
        "the corrupted fact's constant must flow to the answer (making \
         the licence load-bearing and the differential check decisive)"
    );
    assert_ne!(good, bad, "the battery's comparison catches the sabotage");
}

#[test]
fn pools_at_tier_2_agree_with_tier_1_on_one_shared_image() {
    common::pools_agree();
}

#[test]
fn tier_switches_invalidate_the_session_image() {
    let mut s = Session::new();
    s.load("inc x = x + 1").expect("loads");
    let first = s.eval("inc 1").expect("evals");
    assert_eq!(first.rendered, "2");
    assert_eq!(first.stats.tier.name(), "1");
    s.options.tier = Tier::Two;
    let second = s.eval("inc 2").expect("evals");
    assert_eq!(second.rendered, "3");
    assert_eq!(second.stats.tier.name(), "2");
    assert!(
        second.stats.compile_ops > 0,
        "the tier switch must re-lower the program: {:?}",
        second.stats
    );
    s.options.tier = Tier::One;
    let third = s.eval("inc 3").expect("evals");
    assert_eq!(third.rendered, "4");
    assert_eq!(third.stats.tier.name(), "1");
}
