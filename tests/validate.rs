//! The translation-validation property battery.
//!
//! Three claims, each load-bearing for the tier-2 story:
//!
//! 1. **Completeness / zero false alarms** — every image the tier-2
//!    compiler actually emits (over the checked-in fuzz corpus and a
//!    sweep of random generator terms) validates cleanly. A validator
//!    that cries wolf would be switched off in practice, so this is as
//!    important as soundness.
//! 2. **Static rejection of corrupted licences** — the PR 9 acceptance
//!    sabotage (a fact claiming a wrong constant) needed a *differential
//!    execution* to catch; the validator now refuses the image before
//!    anything runs, along with forged demand vectors, forged
//!    `whnf_safe` claims, dropped certificate entries, and mutated
//!    certificate kinds. None of these tests ever links or steps a
//!    machine.
//! 3. **Demand facts are differentially sound** — `demands[i]` claims
//!    that argument `i`'s exception set is contained in the call's (set
//!    incorporation). That must-property is checked here by actually
//!    raising `Overflow` in each demanded position: the denoted set must
//!    contain it, and the machine must raise under *both* deterministic
//!    order policies at tier 1 and on the validated tier-2 image. A
//!    never-demanded position must conversely stay lazy, and the
//!    operators that cut a set off (`seq`'s second operand,
//!    `mapException`, `unsafeIsException`) must not be claimed.

use std::fs;
use std::path::PathBuf;
use std::rc::Rc;

use urk::{tier2_facts_for, OrderPolicy, Session, Tier};
use urk_analysis::{analyze_program, audit_binding_facts};
use urk_machine::{
    compile_program, tier2_optimize_certified, validate_tier2, CertKind, FactVal, ValidationReport,
};
use urk_syntax::core::CoreProgram;
use urk_syntax::{desugar_program, parse_program, DataEnv, Symbol};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Parses `src`, compiles it at both tiers with certificates, and runs
/// the full validation pipeline (fact audit + machine-side validator)
/// against freshly recomputed facts.
fn compile_and_validate(src: &str) -> Result<ValidationReport, String> {
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let claimed = analyze_program(&prog, &data).binding_facts(&prog.binds);
    audit_binding_facts(&prog, &data, &claimed).map_err(|e| e.to_string())?;
    let facts = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
    let base = compile_program(&prog.binds);
    let (t2, cert) = tier2_optimize_certified(&base, &facts);
    validate_tier2(&base, &t2, &cert, &facts).map_err(|e| e.to_string())
}

#[test]
fn every_corpus_case_validates_with_zero_false_alarms() {
    let mut paths: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no checked-in corpus");
    let mut rewrites = 0usize;
    for path in &paths {
        let src = fs::read_to_string(path).expect("read case");
        let report = compile_and_validate(&src)
            .unwrap_or_else(|e| panic!("{}: false alarm: {e}", path.display()));
        rewrites += report.fused
            + report.spec_value
            + report.spec_region
            + report.const_subst
            + report.app_g;
    }
    // The corpus is raise- and call-heavy; a tier-2 pass that proved
    // nothing over it would make this battery vacuous.
    assert!(rewrites > 0, "the corpus must exercise tier-2 rewrites");
}

#[test]
fn the_prelude_and_lint_demo_validate_with_a_nonempty_certificate() {
    // The one input that runs all three checks over the whole Prelude:
    // the certifying tier-2 pass, the lockstep validator and the
    // analysis-side fact audit, on a session with the lint demo loaded.
    let mut session = Session::new();
    session
        .load(include_str!("../examples/lint_demo.urk"))
        .expect("lint demo loads");
    let binds = &session.program().binds;
    let base = compile_program(binds);
    let facts = tier2_facts_for(session.analyze(), binds);
    let (t2, cert) = tier2_optimize_certified(&base, &facts);
    assert!(
        !cert.entries.is_empty(),
        "the Prelude must produce rewrites"
    );
    validate_tier2(&base, &t2, &cert, &facts).expect("validates");
    let claimed = session.analyze().binding_facts(binds);
    audit_binding_facts(session.program(), session.data(), &claimed).expect("audits");
}

#[test]
fn random_generator_terms_validate_with_zero_false_alarms() {
    // 256 deterministic generator terms, each spliced as a binding over
    // the fuzz prelude (recursion, a partial match, division, a
    // higher-order combinator) so the compiler sees global calls too.
    let mut data = DataEnv::new();
    let prelude = desugar_program(
        &parse_program(urk_fuzz::FUZZ_PRELUDE_SRC).expect("parses"),
        &mut data,
    )
    .expect("desugars");
    for seed in 0..256u64 {
        let mut gen = urk_fuzz::TermGen::new(seed, 5);
        let term = gen.term();
        let mut binds = prelude.binds.clone();
        binds.push((Symbol::intern("candidate"), Rc::new(term)));
        let prog = CoreProgram {
            binds,
            sigs: Vec::new(),
        };
        let facts = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
        let base = compile_program(&prog.binds);
        let (t2, cert) = tier2_optimize_certified(&base, &facts);
        validate_tier2(&base, &t2, &cert, &facts)
            .unwrap_or_else(|e| panic!("seed {seed}: false alarm: {e}"));
    }
}

/// Compiles `src` under `corrupt`-ed facts and validates against fresh
/// ones — the corrupted-licence shape. Returns the validator's refusal.
fn reject_with_corrupt(src: &str, corrupt: impl FnOnce(&mut urk_machine::Tier2Facts)) -> String {
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let mut facts = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
    corrupt(&mut facts);
    let base = compile_program(&prog.binds);
    let (t2, cert) = tier2_optimize_certified(&base, &facts);
    let fresh = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
    validate_tier2(&base, &t2, &cert, &fresh)
        .expect_err("a corrupted licence must be refused statically")
        .to_string()
}

#[test]
fn the_pr9_sabotage_is_rejected_before_any_execution() {
    // The exact corrupted licence the differential battery catches at
    // runtime (`tests/tier2.rs`): `k` claimed to be 7 when it is 42. The
    // validator refuses the image without linking a machine at all.
    let msg = reject_with_corrupt("k = 42\nmain = k + 1", |f| {
        f.globals[0].value = Some(FactVal::Int(7));
    });
    assert!(
        msg.contains("freshly proven"),
        "refusal names the re-derived constant: {msg}"
    );
}

#[test]
fn a_corrupted_string_licence_is_rejected_by_content() {
    // String constants are compared by *content*, never by intern
    // index, so a licence swapping the text is refused even though the
    // image is shape-identical to an honest one.
    let msg = reject_with_corrupt("greet = \"hi\"\nmain = greet", |f| {
        f.globals[0].value = Some(FactVal::Str("bye".into()));
    });
    assert!(
        msg.contains("freshly proven"),
        "refusal names the re-derived constant: {msg}"
    );
}

#[test]
fn a_forged_demand_vector_is_rejected() {
    // `ignore` never demands its argument; a forged `[true]` licenses a
    // call speculation that could reorder or drop the argument's raise.
    let msg = reject_with_corrupt(
        "ignore x = 42 + 0\nmain = let r = ignore (1 / 0) in r + 1",
        |f| {
            f.globals[0].demands = vec![true];
        },
    );
    assert!(msg.contains("SpecCall"), "{msg}");
}

#[test]
fn a_dropped_certificate_entry_is_rejected() {
    let src = "sq x = x * x\nmain = sq 3";
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let facts = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
    let base = compile_program(&prog.binds);
    let (t2, mut cert) = tier2_optimize_certified(&base, &facts);
    assert!(
        !cert.entries.is_empty(),
        "the program must produce rewrites"
    );
    cert.entries.pop();
    validate_tier2(&base, &t2, &cert, &facts)
        .expect_err("an uncertified structural divergence must be refused");
}

#[test]
fn a_mutated_certificate_kind_is_rejected() {
    let src = "sq x = x * x\nmain = sq 3";
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let facts = tier2_facts_for(analyze_program(&prog, &data), &prog.binds);
    let base = compile_program(&prog.binds);
    let (t2, mut cert) = tier2_optimize_certified(&base, &facts);
    let at = cert
        .entries
        .iter()
        .position(|e| matches!(e.kind, CertKind::Fused))
        .expect("a strict arithmetic body fuses");
    // A Fused claim in a strict context re-labelled as a lazy-side
    // speculation: the obligation family no longer matches the site.
    cert.entries[at].kind = CertKind::SpecRegion;
    validate_tier2(&base, &t2, &cert, &facts)
        .expect_err("a mutated certificate kind must be refused");
}

#[test]
fn a_corrupted_binding_fact_fails_the_analysis_audit() {
    // The analysis half: facts that do not reproduce under a fresh run
    // are refused before they ever reach the compiler.
    let src = "konst x y = x\nmain = konst 1 2";
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let mut claimed = analyze_program(&prog, &data).binding_facts(&prog.binds);
    claimed[0].demands = vec![true, true];
    let err = audit_binding_facts(&prog, &data, &claimed).expect_err("refused");
    assert!(err.to_string().contains("not reproducible"), "{err}");
}

#[test]
fn strictness_facts_license_call_speculation_on_real_programs() {
    // The acceptance claim: a call site the WHNF-only rule rejects is
    // now licensed by the interprocedural demand fact for `sq`.
    let report =
        compile_and_validate("sq x = x * x\nmain = let y = sq 5 in y + 1").expect("validates");
    assert!(report.spec_call >= 1, "{report:?}");
}

/// Every demanded position must incorporate an exceptional argument:
/// `Overflow` is in the call's denoted set, and the machine raises under
/// both deterministic order policies at tier 1 and on the validated
/// tier-2 image. The fixture includes recursion (an accumulator and a
/// chain) and the three operators that cut a set off.
#[test]
fn demanded_positions_are_differentially_sound() {
    let src = "\
sq x = x * x
addmul a b = a * b + a
choose c a b = case c of { 0 -> a + 0; n -> b + 0 }
konst x y = x + 0
viaCall y = sq y
sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)
chainA x = chainB x
chainB x = chainC x
chainC x = x + 1
seqSnd a b = seq a b
remap m = mapException (\\e -> DivideByZero) (m + 1)
probe p = case unsafeIsException p of { True -> 0; False -> 1 }
";
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    let facts = analyze_program(&prog, &data).binding_facts(&prog.binds);
    let mut sessions = Vec::new();
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let mut t1 = Session::new();
        t1.options.machine.order = order;
        t1.load(src).expect("loads");
        let mut t2 = Session::new();
        t2.options.machine.order = order;
        t2.options.tier = Tier::Two;
        t2.options.validate_tier2 = true;
        t2.load(src).expect("loads");
        sessions.push(t1);
        sessions.push(t2);
    }
    // `name` applied to `(raise Overflow)` in position `i`, `1` elsewhere.
    let call = |name: &str, arity: usize, i: usize| {
        let mut s = name.to_string();
        for j in 0..arity {
            s.push_str(if j == i { " (raise Overflow)" } else { " 1" });
        }
        s
    };
    let overflow = urk_syntax::Exception::Overflow;
    let mut demanded_checked = 0usize;
    for fact in &facts {
        for (i, demanded) in fact.demands.iter().enumerate() {
            if !demanded {
                continue;
            }
            let call = call(&fact.name.to_string(), fact.demands.len(), i);
            let set = sessions[0]
                .exception_set(&call)
                .expect("denotes")
                .unwrap_or_else(|| panic!("`{call}`: demanded position {i} denotes a value"));
            assert!(
                set.contains(&overflow),
                "`{call}`: demanded position {i} is not incorporated: {set}"
            );
            for session in &sessions {
                let out = session.eval(&call).expect("evaluates");
                assert!(
                    out.exception.is_some(),
                    "`{call}`: demanded position {i} swallowed the raise \
                     (rendered {})",
                    out.rendered
                );
            }
            demanded_checked += 1;
        }
    }
    assert!(
        demanded_checked >= 10,
        "the fixture must prove real demands"
    );
    let demands = |name: &str| {
        facts
            .iter()
            .find(|f| f.name == Symbol::intern(name))
            .expect("fact")
            .demands
            .clone()
    };
    assert_eq!(demands("sumTo"), vec![true, true]);
    assert_eq!(demands("chainA"), vec![true]);
    // The negative controls: each position is cut off from the call's
    // set, so a demand claim there would license an unsound rewrite.
    assert_eq!(demands("seqSnd"), vec![true, false]);
    assert_eq!(demands("remap"), vec![false]);
    assert_eq!(demands("probe"), vec![false]);
    for (name, arity, i) in [("seqSnd", 2, 1), ("remap", 1, 0), ("probe", 1, 0)] {
        let call = call(name, arity, i).replace(" 1", " (raise DivideByZero)");
        let set = sessions[0].exception_set(&call).expect("denotes");
        assert!(
            !set.is_some_and(|s| s.contains(&overflow)),
            "`{call}`: the control incorporated Overflow after all"
        );
    }
    // `konst`'s second parameter is never demanded, so laziness must
    // swallow the raise everywhere.
    for session in &sessions {
        let out = session.eval("konst 1 (raise Overflow)").expect("evaluates");
        assert_eq!(out.exception, None, "konst demanded its lazy argument");
        assert_eq!(out.rendered, "1");
    }
}

/// The same incorporation check over the generator's terms: for each of
/// the 256 seeds above, the generator builds an `Int` term over one
/// parameter `p`, spliced after the fuzz prelude as `candidate p`.
/// Wherever the analysis claims `p` demanded, `candidate (raise
/// Overflow)` must denote a set holding `Overflow` and raise at both
/// tiers under both deterministic orders.
#[test]
fn generator_terms_demanded_parameters_are_differentially_sound() {
    let p = Symbol::intern("p");
    let candidate = Symbol::intern("candidate");
    let overflow = urk_syntax::Exception::Overflow;
    let call = "candidate (raise Overflow)";
    let mut demanded = 0usize;
    for seed in 0..256u64 {
        let body = urk_fuzz::TermGen::new(seed, 5).subterm(4, &[p]);
        let src = format!(
            "{}candidate p = {}\n",
            urk_fuzz::FUZZ_PRELUDE_SRC,
            urk_syntax::pretty(&body)
        );
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(&src).expect("parses"), &mut data).expect("desugars");
        let facts = analyze_program(&prog, &data).binding_facts(&prog.binds);
        let fact = facts.iter().find(|f| f.name == candidate).expect("fact");
        if fact.demands != [true] {
            continue;
        }
        let mut sessions = Vec::new();
        for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
            for tier in [Tier::One, Tier::Two] {
                let mut s = Session::bare();
                s.options.machine.order = order;
                s.options.tier = tier;
                s.options.validate_tier2 = tier == Tier::Two;
                s.load(&src).expect("loads");
                sessions.push(s);
            }
        }
        let set = sessions[0]
            .exception_set(call)
            .expect("denotes")
            .unwrap_or_else(|| panic!("seed {seed}: a demanded parameter denotes a value"));
        assert!(
            set.contains(&overflow),
            "seed {seed}: the demanded parameter is not incorporated: {set}\n{src}"
        );
        for session in &sessions {
            let out = session.eval(call).expect("evaluates");
            assert!(
                out.exception.is_some(),
                "seed {seed}: the demanded parameter swallowed the raise ({})\n{src}",
                out.rendered
            );
        }
        demanded += 1;
    }
    assert!(
        demanded >= 64,
        "only {demanded} seeds demand their parameter"
    );
}
