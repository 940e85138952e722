//! A deterministic allocation gate for the front end.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `realloc` calls) the current thread makes while the query path's three
//! front-end phases — parse, desugar and `infer_expr` — run over a fixed
//! list of Prelude queries, and then while whole `Session::eval` calls
//! run over the same list. Wall-clock time on a shared machine spreads by
//! ±15%; these counts do not move unless the code does, so they can gate
//! CI. The ceilings sit at the counts the arena checker and symbol dispatch
//! reach; EXPERIMENTS.md (E25) records the counts of the `Box`-tree checker
//! they replaced.
//!
//! Everything runs in one `#[test]`, so no other test interns symbols on a
//! second thread while this one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};
use urk_types::{infer_expr, infer_program};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Small Prelude queries in the shape of the `frontend` benchmark workload:
/// arithmetic, list sugar, sections, lambdas with patterns, `let`, `case`,
/// a raise, `IO` and the §3.5 primitives.
const QUERIES: &[&str] = &[
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

/// Ceilings on the allocations over all of `QUERIES`, one pass each: the
/// counts this code makes, in debug and release builds alike. (Before the
/// arena checker and `Known` dispatch: parse 348, desugar 622, and
/// `infer_expr` 1747 in release, 1761 in debug. Desugar made 544 while
/// `Symbol::fresh` still formatted and interned each generated name.)
/// Lower a ceiling when a change lowers its count.
const PARSE_CEILING: u64 = 316;
const DESUGAR_CEILING: u64 = 488;
const INFER_CEILING: u64 = 70;
/// The ceiling on whole `Session::eval` calls over `QUERIES`, on the
/// machine the session recycles. Debug builds verify the image at every
/// link, which allocates. (With a new machine built and linked per
/// evaluation: 1972 in release, 4278 in debug.)
const EVAL_CEILING: u64 = if cfg!(debug_assertions) { 3688 } else { 1382 };

#[test]
fn front_end_allocations_stay_under_their_ceilings() {
    let mut data = DataEnv::new();
    let prelude = parse_program(urk::prelude_source()).expect("the Prelude parses");
    let prog = desugar_program(&prelude, &mut data).expect("the Prelude desugars");
    let globals: HashMap<_, _> = infer_program(&prog, &data).expect("the Prelude types");

    // One untimed pass interns every name the queries spell, so the
    // counted pass sees the interner as a long-running session does.
    for q in QUERIES {
        let e = desugar_expr(&parse_expr_src(q).expect("parses"), &data).expect("desugars");
        infer_expr(&e, &data, &globals).expect("types");
    }

    let (mut parse, mut desugar, mut infer) = (0, 0, 0);
    for q in QUERIES {
        let (surface, n) = count(|| parse_expr_src(q).expect("parses"));
        parse += n;
        let (core, n) = count(|| desugar_expr(&surface, &data).expect("desugars"));
        desugar += n;
        let (ty, n) = count(|| infer_expr(&core, &data, &globals).expect("types"));
        infer += n;
        drop(ty);
    }
    eprintln!(
        "front-end allocations over {} queries: parse {parse}, desugar {desugar}, infer_expr {infer}",
        QUERIES.len()
    );
    assert!(
        parse <= PARSE_CEILING,
        "parse made {parse} allocations, ceiling {PARSE_CEILING}"
    );
    assert!(
        desugar <= DESUGAR_CEILING,
        "desugar made {desugar} allocations, ceiling {DESUGAR_CEILING}"
    );
    assert!(
        infer <= INFER_CEILING,
        "infer_expr made {infer} allocations, ceiling {INFER_CEILING}"
    );

    // The whole query path: the front end, the machine the session
    // recycles (the program linked again), evaluation and rendering.
    let session = urk::Session::new();
    for q in QUERIES {
        session.eval(q).expect("evaluates");
    }
    let mut eval = 0;
    for q in QUERIES {
        let (_, n) = count(|| session.eval(q).expect("evaluates"));
        eval += n;
    }
    eprintln!(
        "Session::eval allocations over {} queries: {eval}",
        QUERIES.len()
    );
    assert!(
        eval <= EVAL_CEILING,
        "Session::eval made {eval} allocations, ceiling {EVAL_CEILING}"
    );
}
