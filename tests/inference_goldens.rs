//! Golden types for the Hindley–Milner checker, recorded before the
//! checker moved to an arena of type nodes.
//!
//! `tests/incremental_inference.rs` compares the checker with itself, so it
//! cannot see a changed type. These tables pin the checker's observable
//! output instead: the rendered scheme of every Prelude and benchmark-kernel
//! binding, `Session::type_of` over queries that between them use every
//! Core form and every §3.1/§3.5 primitive (`raise`, `getException`,
//! `mapException`, `seq`, `unsafeIsException`, `unsafeGetException` and
//! every `IO` constructor, `MVar`, `Fork` and `ThrowTo` included), and the
//! exact text of the errors ill-typed queries and programs report.

use std::collections::HashMap;

use urk::Session;
use urk_syntax::core::{Alt, Expr};
use urk_syntax::DataEnv;
use urk_types::infer_expr;

/// The two exception kernels of the benchmark, as in
/// `tests/incremental_inference.rs`.
const DEEPRAISE: &str = "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)";
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

const PRELUDE: &[(&str, &str)] = &[
    ("id", "a -> a"),
    ("const", "a -> b -> a"),
    ("flip", "(a -> b -> c) -> b -> a -> c"),
    ("not", "Bool -> Bool"),
    ("otherwise", "Bool"),
    ("fst", "Pair a b -> a"),
    ("snd", "Pair a b -> b"),
    ("error", "Str -> a"),
    ("loop", "a"),
    ("head", "[a] -> a"),
    ("tail", "[a] -> [a]"),
    ("null", "[a] -> Bool"),
    ("length", "[a] -> Int"),
    ("append", "[a] -> [a] -> [a]"),
    ("map", "(a -> b) -> [a] -> [b]"),
    ("filter", "(a -> Bool) -> [a] -> [a]"),
    ("foldr", "(a -> b -> b) -> b -> [a] -> b"),
    ("foldl", "(a -> b -> a) -> a -> [b] -> a"),
    ("reverse", "[a] -> [a]"),
    ("concat", "[[a]] -> [a]"),
    ("concatMap", "(a -> [b]) -> [a] -> [b]"),
    ("take", "Int -> [a] -> [a]"),
    ("drop", "Int -> [a] -> [a]"),
    ("replicate", "Int -> a -> [a]"),
    ("iterate", "(a -> a) -> a -> [a]"),
    ("repeat", "a -> [a]"),
    ("zipWith", "(a -> b -> c) -> [a] -> [b] -> [c]"),
    ("zip", "[a] -> [b] -> [Pair a b]"),
    ("sum", "[Int] -> Int"),
    ("product", "[Int] -> Int"),
    ("max", "Int -> Int -> Int"),
    ("min", "Int -> Int -> Int"),
    ("abs", "Int -> Int"),
    ("even", "Int -> Bool"),
    ("odd", "Int -> Bool"),
    ("elem", "Int -> [Int] -> Bool"),
    ("enumFromTo", "Int -> Int -> [Int]"),
    ("lookup", "Int -> [Pair Int a] -> Maybe a"),
    ("fromMaybe", "a -> Maybe a -> a"),
    ("maybe", "a -> (b -> a) -> Maybe b -> a"),
    ("insert", "Int -> [Int] -> [Int]"),
    ("sort", "[Int] -> [Int]"),
    ("all", "(a -> Bool) -> [a] -> Bool"),
    ("any", "(a -> Bool) -> [a] -> Bool"),
    ("forceList", "[a] -> Bool"),
    ("concatStr", "[Str] -> Str"),
    ("unwordsInt", "[Int] -> Str"),
    ("modifyMVar", "MVar a -> (a -> a) -> IO Unit"),
    ("readMVar", "MVar a -> IO a"),
    ("killThread", "Int -> IO Unit"),
];

const KERNELS: &[(&str, &str)] = &[
    ("fib", "Int -> Int"),
    ("sumTo", "Int -> Int -> Int"),
    ("isPrime", "Int -> Bool"),
    ("allFrom", "Int -> Int -> Bool"),
    ("countPrimes", "Int -> Int -> Int -> Int"),
    ("ins", "Int -> [Int] -> [Int]"),
    ("isort", "[Int] -> [Int]"),
    ("mklist", "Int -> [Int]"),
    ("lsum", "[Int] -> Int"),
    ("checksum", "Int -> Int"),
    ("upto", "Int -> [Int]"),
    ("mapmul", "[Int] -> [Int]"),
    ("keepeven", "[Int] -> [Int]"),
    ("total", "[Int] -> Int"),
    ("pipe", "Int -> Int"),
    ("deep", "Int -> Int"),
    ("catchStep", "Int -> Int"),
    ("catchloop", "Int -> Int -> Int"),
];

const QUERIES: &[(&str, &str)] = &[
    ("42", "Int"),
    ("'c'", "Char"),
    ("\"urk\"", "Str"),
    ("id", "a -> a"),
    ("Just", "a -> Maybe a"),
    ("(1, 'c', \"s\")", "Triple Int Char Str"),
    ("[1, 2, 3]", "[Int]"),
    ("\\x y -> x", "a -> b -> a"),
    ("\\f g x -> f (g x)", "(a -> b) -> (c -> a) -> c -> b"),
    ("let id2 = \\x -> x in (id2 1, id2 True)", "Pair Int Bool"),
    ("let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f", "Int -> Int"),
    ("let { ev = \\n -> if n == 0 then True else od (n - 1); od = \\n -> if n == 0 then False else ev (n - 1) } in (ev, od)", "Pair (Int -> Bool) (Int -> Bool)"),
    ("case [1] of { [] -> Nothing; (x:_) -> Just x }", "Maybe Int"),
    ("\\m -> case m of { Nothing -> 0; Just x -> x }", "Maybe Int -> Int"),
    ("1 + 2 * 3 - 4 / 5 % 6", "Int"),
    ("1 == 2 || 3 < 4 && 5 >= 6", "Bool"),
    ("\\a b -> a /= b", "Int -> Int -> Bool"),
    ("raise DivideByZero", "a"),
    ("\\e -> raise e", "Exception -> a"),
    ("error \"Urk\"", "a"),
    ("getException (1 / 0)", "IO (ExVal Int)"),
    ("mapException (\\e -> Overflow) [1]", "[Int]"),
    ("seq", "a -> b -> b"),
    ("\\x -> seq x 'c'", "a -> Char"),
    ("unsafeIsException (head [])", "Bool"),
    ("unsafeGetException 'c'", "ExVal Char"),
    ("\\x -> case unsafeGetException x of { OK v -> v; Bad e -> raise e }", "a -> a"),
    ("return 1 >>= \\x -> return (x + 1)", "IO Int"),
    ("do { c <- getChar; putChar c; putStr \"!\"; return c }", "IO Char"),
    ("forkIO (putStr \"hi\") >>= \\t -> yield >> throwTo t Interrupt", "IO Unit"),
    ("newMVar 'c'", "IO (MVar Char)"),
    ("newEmptyMVar", "IO (MVar a)"),
    ("newEmptyMVar >>= \\m -> putMVar m 1 >> takeMVar m", "IO Int"),
    ("strAppend (showInt (strLen \"ab\")) \"c\"", "Str"),
    ("\\a b -> (strEq a b, eqChar 'a' (chr (ord 'b')), negate 3)", "Str -> Str -> Triple Bool Bool Int"),
    ("map (+ 1)", "[Int] -> [Int]"),
    ("(.)", "(a -> b) -> (c -> a) -> c -> b"),
    ("foldr (\\x acc -> x : acc) []", "[a] -> [a]"),
    ("\\(a, b) -> (b, a)", "Pair a b -> Pair b a"),
    ("\\xs -> case xs of { [x, y] -> x + y; _ -> 0 }", "[Int] -> Int"),
    ("if True then \"a\" else \"b\"", "Str"),
    ("let pairUp = \\x -> (x, x) in map pairUp", "[a] -> [Pair a a]"),
    ("zipWith", "(a -> b -> c) -> [a] -> [b] -> [c]"),
    ("case 'c' of { 'a' -> 1; _ -> 2 }", "Int"),
    ("case \"s\" of { \"s\" -> True; _ -> False }", "Bool"),
    ("case 3 of { 0 -> 'a'; n -> chr n }", "Char"),
    ("lookup 1 [(1, \"one\")]", "Maybe Str"),
    ("killThread", "Int -> IO Unit"),
    ("modifyMVar", "MVar a -> (a -> a) -> IO Unit"),
    ("readMVar", "MVar a -> IO a"),
    ("\\f xs -> f (head xs) ++ xs", "(a -> [a]) -> [a] -> [a]"),
    ("(\\x -> x) `map` [getException 'c']", "[IO (ExVal Char)]"),
];

const ILL_TYPED_QUERIES: &[(&str, &str)] = &[
    (
        "\\x -> x x",
        "type error: infinite type: cannot unify a with a -> b",
    ),
    ("1 + 'c'", "type error: cannot unify Int with Char"),
    ("Zorp 1", "desugar error: unknown constructor 'Zorp'"),
    ("raise 3", "type error: cannot unify Int with Exception"),
    (
        "if 1 then 2 else 3",
        "type error: cannot unify Int with Bool",
    ),
    (
        "case True of { True -> 1; False -> 'c' }",
        "type error: cannot unify Char with Int",
    ),
    (
        "getChar >>= \\c -> c + 1",
        "type error: cannot unify Int with Char",
    ),
    ("putMVar 1 2", "type error: cannot unify Int with MVar a"),
    ("[1, 'c']", "type error: cannot unify Char with Int"),
    ("zorp + 1", "type error: unbound variable 'zorp'"),
    (
        "let f = \\x -> f in f",
        "type error: infinite type: cannot unify a with a -> b",
    ),
    (
        "case getChar of { GetChar -> 1 }",
        "type error: IO values cannot be scrutinised by case",
    ),
    (
        "(\\x -> x) 1 2",
        "type error: cannot unify Int with Int -> a",
    ),
    (
        "\\m -> takeMVar m >>= \\v -> putMVar m (v + 1) >> putChar v",
        "type error: cannot unify Int with Char",
    ),
    (
        "\\x -> (x 1, x 'c')",
        "type error: cannot unify Int with Char",
    ),
    (
        "case Just 1 of { Just -> 1 }",
        "desugar error: constructor 'Just' applied to 0 pattern(s), expected 1",
    ),
];

const ILL_TYPED_PROGRAMS: &[(&str, &str)] = &[
    ("h :: a -> b\nh x = x", "type error: signature for 'h' does not match inferred type a -> a: cannot unify !0 with !1"),
    ("k :: Int -> Bool\nk x = x + 1", "type error: signature for 'k' does not match inferred type Int -> Int: cannot unify Int with Bool"),
    ("g :: Int -> Int", "type error: signature for 'g' lacks a binding"),
    ("f :: a -> a\nf x = x + 1", "type error: signature for 'f' does not match inferred type Int -> Int: cannot unify Int with !0"),
    ("p :: [a] -> a\np xs = 0", "type error: signature for 'p' does not match inferred type a -> Int: cannot unify Int with !0"),
    ("q :: (a, b) -> a\nq (x, y) = y", "type error: signature for 'q' does not match inferred type Pair a b -> b: cannot unify !1 with !0"),
    ("f :: a -> a\nf x = x\ng :: b -> c\ng y = y", "type error: signature for 'g' does not match inferred type a -> a: cannot unify !1 with !2"),
    ("bad x = x x", "type error: infinite type: cannot unify a with a -> b"),
    ("swap :: (a, b) -> (b, a)\nswap (x, y) = (x, y)", "type error: signature for 'swap' does not match inferred type Pair a b -> Pair a b: cannot unify !0 with !1"),
];

#[test]
fn every_prelude_binding_keeps_its_scheme() {
    let s = Session::new();
    let names: Vec<String> = s.program().binds.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = PRELUDE.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "the Prelude binds these names, in this order");
    for (name, ty) in PRELUDE {
        assert_eq!(s.type_of_binding(name).as_deref(), Some(*ty), "{name}");
    }
}

#[test]
fn every_kernel_binding_keeps_its_scheme() {
    let mut s = Session::new();
    for w in urk_bench::workloads()
        .into_iter()
        .chain([urk_bench::pipeline_workload()])
    {
        s.load(w.program).expect("a kernel loads");
    }
    s.load(DEEPRAISE).expect("loads");
    s.load(CATCHLOOP).expect("loads");
    for (name, ty) in KERNELS {
        assert_eq!(s.type_of_binding(name).as_deref(), Some(*ty), "{name}");
    }
}

#[test]
fn queries_keep_their_types() {
    let s = Session::new();
    for (src, ty) in QUERIES {
        let got = s.type_of(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(got, *ty, "{src}");
    }
}

#[test]
fn ill_typed_queries_keep_their_error_text() {
    let s = Session::new();
    for (src, msg) in ILL_TYPED_QUERIES {
        let err = s.type_of(src).expect_err(src);
        assert_eq!(err.to_string(), *msg, "{src}");
    }
}

#[test]
fn ill_typed_programs_keep_their_error_text() {
    for (src, msg) in ILL_TYPED_PROGRAMS {
        let err = Session::new().load(src).expect_err(src);
        assert_eq!(err.to_string(), *msg, "{src}");
    }
}

/// Core terms the surface language cannot spell: the desugarer saturates
/// `IO` constructors and rejects unknown ones before the checker runs.
#[test]
fn checker_only_errors_keep_their_text() {
    let data = DataEnv::new();
    let globals = HashMap::new();
    let cases = [
        (
            Expr::con("Return", []),
            "type error: IO constructor 'Return' applied to 0 arguments, expects 1",
        ),
        (
            Expr::con("Zorp", [Expr::Int(1)]),
            "type error: unknown constructor 'Zorp'",
        ),
        (
            Expr::con("PutMVar", [Expr::Int(1)]),
            "type error: IO constructor 'PutMVar' applied to 1 arguments, expects 2",
        ),
        (
            Expr::case(
                Expr::con("GetChar", []),
                vec![Alt::con("GetChar", vec![], Expr::Int(1))],
            ),
            "type error: IO values cannot be scrutinised by case",
        ),
    ];
    for (e, msg) in cases {
        let err = infer_expr(&e, &data, &globals).expect_err(msg);
        assert_eq!(err.to_string(), msg);
    }
}
