//! The parser's nesting budget, end to end.
//!
//! Every construct that nests counts against one `NESTING_BUDGET`, so
//! input nested ten times deeper is an ordinary syntax error through
//! `Session::eval`, `Session::load` and the evaluation pool (whose workers
//! run on 2 MiB thread stacks), and the pool keeps answering afterwards.
//! Without the budget a few thousand nested brackets overflow the parser's
//! stack and abort the whole process. Left-associative chains and long
//! flat list literals nest no surface syntax; their Core depth is not
//! bounded here.

use urk::{EvalPool, Options, PoolConfig, Session};
use urk_syntax::NESTING_BUDGET;

/// Ten times the budget.
const DEPTH: usize = 10 * NESTING_BUDGET as usize;

/// Every nesting expression form, `depth` levels deep.
fn nested_forms(depth: usize) -> Vec<(&'static str, String)> {
    let wrap =
        |open: &str, inner: &str, close: &str| open.repeat(depth) + inner + &close.repeat(depth);
    vec![
        ("parentheses", wrap("(", "1", ")")),
        ("list brackets", wrap("[", "1", "]")),
        ("tuples", wrap("(0, ", "1", ")")),
        ("right sections", wrap("((+ 1) ", "0", ")")),
        ("left sections", wrap("((1 +) ", "0", ")")),
        ("lambdas", wrap("\\x -> ", "1", "")),
        ("lets", wrap("let x = 1 in ", "x", "")),
        ("ifs", wrap("if True then ", "1", " else 0")),
        ("cases", wrap("case 0 of { _ -> ", "1", " }")),
        ("dos", wrap("do { ", "return 1", " }")),
        ("unary minus", wrap("- ", "1", "")),
        ("cons chains", wrap("1 : ", "[]", "")),
        ("dollar chains", wrap("negate $ ", "1", "")),
        ("and chains", wrap("True && ", "True", "")),
        ("compose chains", wrap("negate . ", "negate", "")),
        (
            "lambda patterns",
            format!("(\\{} -> 1) 0", wrap("(", "x", ")")),
        ),
        (
            "list patterns",
            format!("case [] of {{ {} -> 1; _ -> 0 }}", wrap("[", "x", "]")),
        ),
        (
            "cons patterns",
            format!("case [] of {{ {} -> 1; _ -> 0 }}", wrap("x : ", "xs", "")),
        ),
    ]
}

fn nests_too_deep(message: &str) -> bool {
    message.contains(&format!("input nests deeper than {NESTING_BUDGET} levels"))
}

#[test]
fn every_form_within_the_budget_evaluates() {
    let s = Session::new();
    for (form, src) in nested_forms(NESTING_BUDGET as usize / 4) {
        if let Err(e) = s.eval(&src) {
            panic!("{form} at a quarter of the budget: {e}");
        }
    }
}

#[test]
fn every_form_beyond_the_budget_is_a_syntax_error_in_a_session() {
    let s = Session::new();
    for (form, src) in nested_forms(DEPTH) {
        match s.eval(&src) {
            Err(urk::Error::Syntax(e)) => assert!(nests_too_deep(&e.to_string()), "{form}: {e}"),
            Err(e) => panic!("{form}: expected a syntax error, got {e}"),
            Ok(r) => panic!("{form}: evaluated to {}", r.rendered),
        }
    }
    assert_eq!(s.eval("1 + 2").expect("evaluates").rendered, "3");
}

#[test]
fn nested_declarations_beyond_the_budget_fail_to_load() {
    let mut s = Session::new();
    let types = format!("f :: {}Int\nf = 1", "Int -> ".repeat(DEPTH));
    let tuple_types = format!(
        "g :: {}\ng = 1",
        "(Int, ".repeat(DEPTH) + "Int" + &")".repeat(DEPTH)
    );
    let wheres = "h = y where { ".to_string()
        + &"y = y where { ".repeat(DEPTH - 1)
        + "y = 1"
        + &" }".repeat(DEPTH);
    for (what, src) in [
        ("types", types),
        ("tuple types", tuple_types),
        ("wheres", wheres),
    ] {
        match s.load(&src) {
            Err(urk::Error::Syntax(e)) => assert!(nests_too_deep(&e.to_string()), "{what}: {e}"),
            Err(e) => panic!("{what}: expected a syntax error, got {e}"),
            Ok(()) => panic!("{what}: loaded"),
        }
    }
    s.load("k = 4").expect("a shallow program still loads");
}

#[test]
fn the_pool_answers_every_form_beyond_the_budget_with_an_error_and_keeps_serving() {
    let pool = EvalPool::start(
        &[],
        Options::default(),
        PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let forms = nested_forms(DEPTH);
    let srcs: Vec<&str> = forms.iter().map(|(_, src)| src.as_str()).collect();
    for ((form, _), result) in forms.iter().zip(pool.eval_batch(&srcs)) {
        match result {
            Err(e) => assert!(nests_too_deep(&e.0), "{form}: {e}"),
            Ok(out) => panic!("{form}: evaluated to {}", out.rendered),
        }
    }
    let after = pool.eval_batch(&["sum [1 .. 10]", "1 + 2"]);
    let rendered: Vec<String> = after
        .into_iter()
        .map(|r| r.expect("the pool still answers").rendered)
        .collect();
    assert_eq!(rendered, ["55", "3"]);
}
