//! No request state outlives the request.
//!
//! A per-thread counting allocator tracks the bytes the current thread
//! holds live. After a warm-up, a thousand calls each of the session's
//! denotational entry points (and of a bare evaluator running the precise
//! design over a `letrec`) must give back what they allocated: the evaluators own the
//! knots that `letrec` and memoization tie, and release them when dropped
//! (`evens` below is a memoized cycle as well as a `letrec` one). So must
//! a thousand machine evaluations, plain and supervised: the session
//! keeps one machine's emptied buffers between them, and nothing else.
//! And a
//! long run of queries whose desugaring mints names must not grow the
//! global symbol interner: generated names carry their spelling in their
//! bits instead (EXPERIMENTS.md, E26).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Mutex;

use urk::{Session, Supervisor};
use urk_denot::{DenotConfig, DenotEvaluator, Design, EvalOrder};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv, Symbol};

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The interner is process-global: the test that counts its names holds
/// this lock so no other test here interns beside it.
static INTERNER_QUIET: Mutex<()> = Mutex::new(());

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The bytes `n` calls of `f` leave allocated on this thread.
fn retained(n: usize, mut f: impl FnMut()) -> i64 {
    let before = live();
    for _ in 0..n {
        f();
    }
    live() - before
}

/// An entry point under test: its name and one call of it.
type Api<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// The whole retained total over every API must stay below this.
const RETAINED_CEILING: i64 = 4 * 1024;
const CALLS: usize = 1000;

const PROGRAM: &str = "\
evens = 0 : map (\\x -> x + 2) evens
main = putStr (showInt (sum (take 5 evens)))";

#[test]
fn denotational_requests_retain_no_memory() {
    let _quiet = INTERNER_QUIET.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = Session::new();
    s.load(PROGRAM).expect("loads");
    let data = DataEnv::new();
    let knot = Rc::new(
        desugar_expr(
            &parse_expr_src("let go = \\n -> if n == 0 then 0 else n + go (n - 1) in go 20")
                .expect("parses"),
            &data,
        )
        .expect("desugars"),
    );

    let mut apis: Vec<Api> = vec![
        (
            "Session::exception_set",
            Box::new(|| {
                s.exception_set("sum [1 .. 10] + head (take 2 evens)")
                    .expect("evaluates");
            }),
        ),
        (
            "Session::denot_show",
            Box::new(|| {
                s.denot_show("map (\\x -> x * x) (take 3 evens)", 8)
                    .expect("evaluates");
            }),
        ),
        (
            "Session::chaos_check",
            Box::new(|| {
                s.chaos_check("sum [1 .. 10]", 7).expect("evaluates");
            }),
        ),
        (
            "Session::run_main_semantic",
            Box::new(|| {
                s.run_main_semantic("", 3).expect("runs");
            }),
        ),
        (
            "the precise design over a letrec",
            Box::new(|| {
                let precise = Design::Precise(EvalOrder::LeftToRight);
                DenotEvaluator::with_design(DenotConfig::default(), precise).eval_closed(&knot);
            }),
        ),
    ];

    // The warm-up fills every lazily built cache (compiled code, known
    // symbols, the allocator's own pools) before anything is counted.
    for (_, f) in &mut apis {
        for _ in 0..8 {
            f();
        }
    }
    let mut total = 0;
    for (name, f) in &mut apis {
        let bytes = retained(CALLS, f);
        eprintln!("{CALLS} calls of {name} retained {bytes} bytes");
        total += bytes;
    }
    assert!(
        total < RETAINED_CEILING,
        "{CALLS} calls of each denotational API retained {total} bytes \
         (ceiling {RETAINED_CEILING})"
    );
}

#[test]
fn machine_requests_retain_no_memory() {
    let _quiet = INTERNER_QUIET.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = Session::new();
    s.load(PROGRAM).expect("loads");
    let supervisor = Supervisor::with_deadline(10_000);
    let mut apis: Vec<Api> = vec![
        (
            "Session::eval",
            Box::new(|| {
                s.eval("sum (take 20 evens) + length (reverse (map (\\x -> x * x) [1 .. 9]))")
                    .expect("evaluates");
            }),
        ),
        (
            "Session::eval_supervised",
            Box::new(|| {
                s.eval_supervised("sum (take 20 evens) + (1 / 0)", &supervisor)
                    .expect("evaluates");
            }),
        ),
    ];
    // The warm-up also grows the buffers of the machine the session
    // recycles, which it keeps between evaluations.
    for (_, f) in &mut apis {
        for _ in 0..8 {
            f();
        }
    }
    let mut total = 0;
    for (name, f) in &mut apis {
        let bytes = retained(CALLS, f);
        eprintln!("{CALLS} calls of {name} retained {bytes} bytes");
        total += bytes;
    }
    assert!(
        total < RETAINED_CEILING,
        "{CALLS} calls of each machine API retained {total} bytes \
         (ceiling {RETAINED_CEILING})"
    );
}

#[test]
fn evals_that_mint_names_leave_the_interner_alone() {
    let _quiet = INTERNER_QUIET.lock().unwrap_or_else(|e| e.into_inner());
    let s = Session::new();
    let queries = [
        "(\\(a, b) -> a + b) (1, 2)",
        "case [1, 2] of { (x:_) -> x; [] -> 0 }",
    ];
    for q in queries {
        s.eval(q).expect("evaluates");
    }
    let before = Symbol::interned_len();
    for q in queries {
        for _ in 0..10_000 {
            s.eval(q).expect("evaluates");
        }
    }
    assert_eq!(
        Symbol::interned_len(),
        before,
        "20000 evals of pattern-bearing queries grew the interner"
    );
}

#[test]
#[should_panic(expected = "a denotation must not outlive the evaluator that made it")]
fn forcing_a_knot_after_its_evaluator_is_dropped_names_the_misuse() {
    let _quiet = INTERNER_QUIET.lock().unwrap_or_else(|e| e.into_inner());
    let data = DataEnv::new();
    let e = Rc::new(
        desugar_expr(
            &parse_expr_src("let ones = 1 : ones in ones").expect("parses"),
            &data,
        )
        .expect("desugars"),
    );
    let d = DenotEvaluator::new().eval_closed(&e);
    let urk_denot::Denot::Ok(urk_denot::Value::Con(_, fields)) = d else {
        panic!("`ones` is a cons cell");
    };
    // The tail is `ones` again: a reference into the dropped evaluator's
    // knot, which must fail loudly rather than denote anything.
    DenotEvaluator::new().force(&fields[1]);
}
