//! Small Prelude queries in the shape of the `frontend` benchmark workload:
//! arithmetic, list sugar, sections, lambdas with patterns, `let`, `case`,
//! a raise, `IO` and the §3.5 primitives. Shared by the front end's
//! allocation gate and its fingerprint guard.

pub const QUERIES: &[&str] = &[
    "1 + 2 * 3",
    "sum [1 .. 10]",
    "map (\\x -> x * x) [1, 2, 3]",
    "foldr (\\x acc -> x + acc) 0 (filter even [1 .. 20])",
    "length (zip [1, 2, 3] ['a', 'b', 'c'])",
    "let sq = \\x -> x * x in sq (sq 3)",
    "let go = \\n -> if n == 0 then 0 else n + go (n - 1) in go 10",
    "case lookup 2 [(1, \"one\"), (2, \"two\")] of { Just s -> strLen s; Nothing -> 0 }",
    "(\\(a, b) -> a + b) (1, 2)",
    "case [1, 2] of { (x:_) -> x; [] -> 0 }",
    "head (map (+ 1) (reverse [1, 2, 3]))",
    "(1 / 0) + error \"Urk\"",
    "getException (head [])",
    "mapException (\\e -> Overflow) (1 / 0)",
    "seq (1 / 0) 'x'",
    "case unsafeGetException (10 / 2) of { OK v -> v; Bad e -> 0 }",
    "do { c <- getChar; putChar c; return c }",
    "newEmptyMVar >>= \\m -> putMVar m 1 >> takeMVar m",
    "if elem 3 [1, 2, 3] && not (null []) then \"yes\" else \"no\"",
    "sort (take 5 (iterate (\\n -> n * 7 % 11) 3))",
];
