//! A deterministic allocation gate for the front end.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `realloc` calls) the current thread makes while the query path's three
//! front-end phases — parse, desugar and `infer_expr` — run over a fixed
//! list of Prelude queries, then while whole `Session::eval` calls run
//! over the same list, and while the machine renders an evaluated list of
//! 8 and of 30 elements. Wall-clock time on a shared machine spreads by
//! ±15%; these counts do not move unless the code does, so they can gate
//! CI. The ceilings sit at the counts the arena front end (E29), the arena
//! checker and symbol dispatch reach; EXPERIMENTS.md (E25, E29) records the
//! counts of the `Box`-tree designs they replaced.
//!
//! Everything runs in one `#[test]`, so no other test interns symbols on a
//! second thread while this one counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use urk_machine::Outcome;
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};
use urk_types::{infer_expr, infer_program};

#[path = "common/frontend_queries.rs"]
mod frontend_queries;
use frontend_queries::QUERIES;

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

/// Ceilings on the allocations over all of `QUERIES`, one pass each: the
/// counts this code makes, in debug and release builds alike. Lower a
/// ceiling when a change lowers its count. (With a parser that cloned each
/// token it consumed and boxed each surface node: parse 316, desugar 488.
/// Before the arena checker and `Known` dispatch: parse 348, desugar 622,
/// and `infer_expr` 1747 in release, 1761 in debug. Desugar made 544 while
/// `Symbol::fresh` still formatted and interned each generated name.)
const PARSE_CEILING: u64 = 47;
const DESUGAR_CEILING: u64 = 379;
const INFER_CEILING: u64 = 70;
/// The ceiling on whole `Session::eval` calls over `QUERIES`, on the
/// machine the session recycles. Debug builds also verify each lowered
/// query, which allocates. (With the boxed front end: 1382 in release,
/// and 3688 in debug while the image was verified at every link; with a
/// new machine built and linked per evaluation: 1972 in release, 4278 in
/// debug; while a link pushed each global onto the root stack, a global
/// table and the remembered set, and rendering built a string per node:
/// 1004 in release, 1050 in debug; while every call of a global allocated
/// an environment chunk, every constructor boxed its fields and every
/// recycled machine a new interrupt cell: 933 in release, 979 in debug.)
const EVAL_CEILING: u64 = if cfg!(debug_assertions) { 696 } else { 650 };
/// Render depth of the list check, deep enough for its longer list.
const RENDER_DEPTH: u32 = 32;

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

    // Parsing allocates the tree and its child lists, once each, whatever
    // the input's size: the token buffer and the other working buffers are
    // the thread's, kept between parses.
    let list = |n: usize| {
        let items: Vec<String> = (1..=n).map(|k| k.to_string()).collect();
        format!("length [{}]", items.join(", "))
    };
    let (short, long) = (list(10), list(1000));
    for src in [&short, &long] {
        parse_expr_src(src).expect("parses");
    }
    let (_, short_allocs) = count(|| parse_expr_src(&short).expect("parses"));
    let (_, long_allocs) = count(|| parse_expr_src(&long).expect("parses"));
    eprintln!("parse allocations: {short_allocs} for 10 list items, {long_allocs} for 1000");
    assert_eq!(
        short_allocs, long_allocs,
        "parse allocations grow with the input"
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

    // Rendering an evaluated value writes one buffer: a list of 30 costs
    // what a list of 8 does, apart from that buffer's growth. The first
    // renderings force both lists and grow the machine's root stack to
    // the deeper one's depth.
    let mut m = session.compiled_machine();
    let mut evaluated = |len: usize| {
        let e = session
            .compile_expr(&format!("[1 .. {len}]"))
            .expect("compiles");
        match m.eval_code_expr(&e, false) {
            Ok(Outcome::Value(n)) => n,
            other => panic!("{other:?}"),
        }
    };
    let (short, long) = (evaluated(8), evaluated(30));
    m.render(short, RENDER_DEPTH);
    m.render(long, RENDER_DEPTH);
    let (short_text, short_allocs) = count(|| m.render(short, RENDER_DEPTH));
    let (long_text, long_allocs) = count(|| m.render(long, RENDER_DEPTH));
    // The allocations of a buffer that grows one character at a time to
    // `text`, as the renderer's small appends grow it.
    let growth = |text: &str| {
        count(|| {
            let mut buf = String::new();
            for c in text.chars() {
                buf.push(c);
            }
            buf
        })
        .1
    };
    eprintln!("render allocations: {short_allocs} for 8 list items, {long_allocs} for 30");
    assert_eq!(
        short_allocs - growth(&short_text),
        long_allocs - growth(&long_text),
        "render allocations grow with the value"
    );
}
