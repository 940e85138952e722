//! Cross-layer soundness: the machine (the §3.3 implementation) must agree
//! with the denotational semantics (§4) — equal values on normal results,
//! and a representative *from the set* on exceptional ones, field by field
//! ([`urk_io::admits`]). This is the paper's central
//! implementation-correctness claim, checked over a fixed corpus here and
//! over random terms in `properties.rs`.

use std::rc::Rc;

use urk_denot::{show_denot, Denot, DenotEvaluator, Env};
use urk_io::admits;
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

/// A machine with an empty program linked, for closed queries.
fn closed_machine(config: MachineConfig) -> Machine {
    let mut m = Machine::new(config);
    m.link_code(std::sync::Arc::new(compile_program(&[])));
    m
}

/// Closed terms exercising every corner of the semantics.
const CORPUS: &[&str] = &[
    // Values.
    "42",
    "1 + 2 * 3 - 4",
    "7 / 2 + 7 % 2",
    "'x'",
    "\"hello\"",
    "[1, 2, 3]",
    "(1, (2, 3))",
    "Just (Just 0)",
    // Laziness.
    r"(\x -> 3) (1/0)",
    "let x = raise Overflow in 42",
    "case 1 : raise Overflow of { x : xs -> x; [] -> 0 }",
    "fst (1, 1/0)",
    // Exceptions.
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
    // The seq cut-off shape from the strictness regression.
    "let m = raise DivideByZero in seq (raise Overflow) ((case 0 < m of { True -> 0; False -> m }) + 0)",
    // Arithmetic edge cases.
    "9223372036854775807 + 1",
    "negate (0 - 9223372036854775807)",
    "chr 97",
    "ord 'a' + 1",
    // Recursion.
    "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10",
    "let { isEven = \\n -> if n == 0 then True else isOdd (n - 1)
         ; isOdd = \\n -> if n == 0 then False else isEven (n - 1) }
     in isEven 10",
    // Structures with buried exceptions.
    "case (1/0, 5) of { (a, b) -> b }",
    "case (1/0, 5) of { (a, b) -> a }",
];

fn core_of(src: &str) -> Rc<urk_syntax::core::Expr> {
    Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &DataEnv::new()).expect("desugars"))
}

/// Checks the machine's outcome on `machine_src` under `order` against
/// the denotation of `denot_src`.
fn admitted(machine_src: &str, denot_src: &str, order: OrderPolicy) -> Result<(), String> {
    let ev = DenotEvaluator::new();
    let denot = ev.eval_closed(&core_of(denot_src));
    let mut m = closed_machine(MachineConfig {
        order,
        ..MachineConfig::default()
    });
    let out = m
        .eval_code_expr(&core_of(machine_src), true)
        .expect("within limits");
    admits(&mut m, &out, &ev, &denot, 16)
}

#[test]
fn admits_rejects_a_wrong_field_beside_an_exceptional_one() {
    // Each machine answer differs from the denotation in one field, and
    // the denotation is exceptional elsewhere: comparing renderings up to
    // the first exceptional field accepted all three.
    for (machine, denot, path) in [
        ("(1/0, 6)", "(1/0, 5)", "field 1: 6 vs 5"),
        (
            "[1, 2/0, 7]",
            "[1, 2/0, 3]",
            "field 1: field 1: field 0: 7 vs 3",
        ),
        (
            "(1/0, 5)",
            "(raise Overflow, 5)",
            "field 0: (raise DivideByZero) vs Bad {Overflow}",
        ),
    ] {
        assert_eq!(
            admitted(machine, denot, OrderPolicy::LeftToRight),
            Err(path.to_string()),
            "{machine} against {denot}"
        );
    }
    // Either member of a field's set is a correct answer for that field.
    let both = "(1/0 + raise Overflow, 5)";
    let ev = DenotEvaluator::new();
    assert_eq!(
        show_denot(&ev, &ev.eval_closed(&core_of(both)), 4),
        "Pair (Bad {DivideByZero, Overflow}) 5"
    );
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        assert_eq!(admitted(both, both, order), Ok(()), "{order:?}");
    }
}

fn fst_is_case(src: &str) -> String {
    // `fst` is Prelude; rewrite the corpus entry inline.
    src.replace("fst (1, 1/0)", "case (1, 1/0) of { (a, b) -> a }")
}

#[test]
fn machine_agrees_with_the_denotational_semantics_on_the_corpus() {
    for raw in CORPUS {
        let src = fst_is_case(raw);
        let data = DataEnv::new();
        let core =
            Rc::new(desugar_expr(&parse_expr_src(&src).expect("parses"), &data).expect("desugars"));

        // Denotational result.
        let ev = DenotEvaluator::new();
        let denot = ev.eval_closed(&core);

        // Machine result (catching, to observe the representative).
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
            let mut m = closed_machine(MachineConfig {
                order: policy,
                ..MachineConfig::default()
            });
            let out = m.eval_code_expr(&core, true).expect("within limits");
            if let Err(why) = admits(&mut m, &out, &ev, &denot, 16) {
                panic!("`{src}` under {policy:?}: {why}");
            }
        }
    }
}

#[test]
fn order_policies_never_change_normal_results() {
    for raw in CORPUS {
        let src = fst_is_case(raw);
        let data = DataEnv::new();
        let core =
            Rc::new(desugar_expr(&parse_expr_src(&src).expect("parses"), &data).expect("desugars"));
        let mut renders = Vec::new();
        for policy in [
            OrderPolicy::LeftToRight,
            OrderPolicy::RightToLeft,
            OrderPolicy::Seeded(99),
        ] {
            let mut m = closed_machine(MachineConfig {
                order: policy,
                ..MachineConfig::default()
            });
            let out = m.eval_code_expr(&core, true).expect("within limits");
            if let Outcome::Value(n) = out {
                renders.push(m.render(n, 8));
            }
        }
        assert!(
            renders.windows(2).all(|w| w[0] == w[1]),
            "normal results must be order-independent on `{src}`: {renders:?}"
        );
    }
}

#[test]
fn machine_representative_is_deterministic_per_policy() {
    let src = r#"(1/0) + (raise Overflow + raise (UserError "Urk"))"#;
    let data = DataEnv::new();
    let core =
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"));
    let run = |policy| {
        let mut m = closed_machine(MachineConfig {
            order: policy,
            ..MachineConfig::default()
        });
        match m.eval_code_expr(&core, true).expect("ok") {
            Outcome::Caught(e) => e,
            other => panic!("{other:?}"),
        }
    };
    for policy in [
        OrderPolicy::LeftToRight,
        OrderPolicy::RightToLeft,
        OrderPolicy::Seeded(5),
    ] {
        assert_eq!(run(policy), run(policy), "same policy, same representative");
    }
}

#[test]
fn denotation_is_invariant_under_the_machine_policy_knob() {
    // The denotational evaluator has no policy; this checks the *sets*
    // computed for asymmetric terms are symmetric, via a third party: the
    // machine representative under both orders must be in the one set.
    let src = r#"(raise Overflow + 1) * (1 + raise (UserError "Urk"))"#;
    let data = DataEnv::new();
    let core =
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"));
    let ev = DenotEvaluator::new();
    let Denot::Bad(set) = ev.eval_closed(&core) else {
        panic!("exceptional")
    };
    for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let mut m = closed_machine(MachineConfig {
            order: policy,
            ..MachineConfig::default()
        });
        let Outcome::Caught(e) = m.eval_code_expr(&core, true).expect("ok") else {
            panic!("raises")
        };
        assert!(set.contains(&e));
    }
}

#[test]
fn env_binding_shapes_agree_between_layers() {
    // Shared top-level programs: denotational env vs machine env.
    let prog_src = "double x = x + x\nquad x = double (double x)";
    let mut data = DataEnv::new();
    let prog = urk_syntax::desugar_program(
        &urk_syntax::parse_program(prog_src).expect("parses"),
        &mut data,
    )
    .expect("desugars");
    let query =
        Rc::new(desugar_expr(&parse_expr_src("quad 4").expect("parses"), &data).expect("desugars"));

    let ev = DenotEvaluator::new();
    let denv = ev.bind_recursive(&prog.binds, &Env::empty());
    let d = ev.eval(&query, &denv);
    assert_eq!(show_denot(&ev, &d, 4), "16");

    let mut m = Machine::new(MachineConfig::default());
    m.link_code(std::sync::Arc::new(compile_program(&prog.binds)));
    let Outcome::Value(n) = m.eval_code_expr(&query, false).expect("ok") else {
        panic!()
    };
    assert_eq!(m.render(n, 4), "16");
}
