//! Rendering does not depend on the nursery.
//!
//! `Machine::render` forces each field of a value in an episode of its
//! own and writes the result in one pass. A minor collection between two
//! fields moves the nursery cells the later fields point at, so the
//! renderer must re-read each field from its stable parent. This battery
//! renders one fixed list of queries twice: under the default
//! configuration, and under a 64-cell nursery with a minor collection
//! forced at every step (a chaos plan), so one runs as each field that is
//! not an immediate is forced. Both renderings must equal the golden,
//! byte for byte.
//!
//! The goldens also pin two quirks of the parenthesis rule (a field is
//! parenthesised when its text has a space and starts with neither `(`
//! nor `"`): a space character renders as `(' ')`, and a negative number
//! as a bare `-3`.

use urk::{FaultPlan, MachineConfig, Session};
use urk_machine::Machine;

/// Steps any query of the battery may take, the field that never
/// finishes included.
const MAX_STEPS: u64 = 20_000;

/// `(query, render depth, rendering)`.
const CASES: &[(&str, u32, &str)] = &[
    // Nested constructors.
    (
        "Just (Just (1, [2, 3]))",
        32,
        "Just (Just (Pair 1 (Cons 2 (Cons 3 Nil))))",
    ),
    (
        "(Nothing, (), [[1], []])",
        32,
        "Triple Nothing Unit (Cons (Cons 1 Nil) (Cons Nil Nil))",
    ),
    (
        "(1, True, Just [()])",
        32,
        "Triple 1 True (Just (Cons Unit Nil))",
    ),
    (
        "map (\\x -> x * x) [1 .. 5]",
        32,
        "Cons 1 (Cons 4 (Cons 9 (Cons 16 (Cons 25 Nil))))",
    ),
    ("Just (\\x -> x)", 32, "Just <function>"),
    ("Just 9999999999", 32, "Just 9999999999"),
    // Exceptions inside fields.
    (
        "[1, 1 / 0, 3]",
        32,
        "Cons 1 (Cons (raise DivideByZero) (Cons 3 Nil))",
    ),
    (
        "(error \"Urk\", head [])",
        32,
        "Pair (raise UserError \"Urk\") (raise PatternMatchFail \"head\")",
    ),
    (
        "Just (Just (1 / 0))",
        32,
        "Just (Just (raise DivideByZero))",
    ),
    ("1 / 0", 32, "(raise DivideByZero)"),
    // A field the step limit stops.
    (
        "(1, let spin = \\n -> spin (n + 1) in spin 0)",
        32,
        "Pair 1 (<machine error: machine step limit exceeded>)",
    ),
    // Strings and chars.
    ("(\"a b\", 'c')", 32, "Pair \"a b\" 'c'"),
    ("Just \"x\\ny\"", 32, "Just \"x\\ny\""),
    (
        "['\\n', '\\'', 'é']",
        32,
        "Cons '\\n' (Cons '\\'' (Cons 'é' Nil))",
    ),
    // The depth cut-off.
    ("[1 .. 40]", 3, "Cons 1 (Cons 2 (Cons 3 (Cons ...)))"),
    ("Just (Just (Just 1))", 2, "Just (Just (Just ...))"),
    ("Just Nothing", 0, "Just ..."),
    ("Nothing", 0, "Nothing"),
    ("(1, 2)", 1, "Pair 1 2"),
    // An environment deeper than its inline tip and a full chunk of
    // spilled slots: 24 lets and a local 6-ary function with `case`
    // binders, whose body reads the outermost let.
    (
        "let a1 = 1 in let a2 = a1 + 1 in let a3 = a2 + 1 in let a4 = a3 + 1 in \
         let a5 = a4 + 1 in let a6 = a5 + 1 in let a7 = a6 + 1 in let a8 = a7 + 1 in \
         let a9 = a8 + 1 in let a10 = a9 + 1 in let a11 = a10 + 1 in let a12 = a11 + 1 in \
         let a13 = a12 + 1 in let a14 = a13 + 1 in let a15 = a14 + 1 in let a16 = a15 + 1 in \
         let a17 = a16 + 1 in let a18 = a17 + 1 in let a19 = a18 + 1 in let a20 = a19 + 1 in \
         let a21 = a20 + 1 in let a22 = a21 + 1 in let a23 = a22 + 1 in let a24 = a23 + 1 in \
         let f = \\p q r s t u -> case (p, [q, r]) of { (x, y:ys) -> (x + y + s + t + u + a1, ys) } \
         in f a24 a20 a16 a12 a8 a4",
        32,
        "Pair 69 (Cons 16 Nil)",
    ),
    // A recursive group of six: one step binds all six, so the tip
    // spills into a chunk while the chunk's slots are still nursery
    // cells, and the collection after that step must rewrite them.
    (
        "let { e1 = \\n -> if n == 0 then 1 else e6 (n - 1); e2 = \\n -> e1 n; \
         e3 = \\n -> e2 n; e4 = \\n -> e3 n; e5 = \\n -> e4 n; e6 = \\n -> e5 n } \
         in (e6 12, e1 3)",
        32,
        "Pair 1 1",
    ),
    // Quirks, pinned.
    ("[' ', 'a']", 32, "Cons (' ') (Cons 'a' Nil)"),
    ("Just (0 - 3)", 32, "Just -3"),
];

fn config(pressured: bool) -> MachineConfig {
    let plain = MachineConfig {
        max_steps: MAX_STEPS,
        ..MachineConfig::default()
    };
    if !pressured {
        return plain;
    }
    MachineConfig {
        nursery_size: 64,
        chaos: Some(FaultPlan {
            horizon: MAX_STEPS + 1,
            force_minor_at: (1..=MAX_STEPS).collect(),
            ..FaultPlan::default()
        }),
        ..plain
    }
}

/// Renders `src` to `depth` on a new machine under `config`, and the
/// minor collections the rendering itself ran.
fn render(s: &Session, config: MachineConfig, src: &str, depth: u32) -> (String, u64) {
    let mut m = Machine::new(config);
    m.link_code(s.compiled_code());
    let e = s.compile_expr(src).expect("compiles");
    let out = m.eval_code_expr(&e, false).expect("no machine error");
    let before = m.stats().minor_gcs;
    let text = m.render_outcome(&out, depth);
    (text, m.stats().minor_gcs - before)
}

#[test]
fn renderings_match_their_goldens() {
    let s = Session::new();
    for &(src, depth, want) in CASES {
        let (got, _) = render(&s, config(false), src, depth);
        assert_eq!(got, want, "`{src}` to depth {depth}");
    }
}

#[test]
fn a_minor_collection_between_fields_changes_no_rendering() {
    let s = Session::new();
    let mut minors = 0;
    for &(src, depth, want) in CASES {
        let (got, n) = render(&s, config(true), src, depth);
        minors += n;
        assert_eq!(
            got, want,
            "`{src}` to depth {depth} under a 64-cell nursery"
        );
    }
    assert!(minors > 0, "no minor collection ran while rendering");
}
