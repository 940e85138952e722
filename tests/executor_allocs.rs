//! A deterministic allocation gate for the executor.
//!
//! A counting global allocator counts the heap allocations (`alloc` and
//! `realloc` calls) the current thread makes while `Session::eval` runs a
//! kernel on the session's recycled machine, once at a small size and
//! once at a large one. The session is the compute benchmark's: the seven
//! kernels loaded into one program, tier 2, translation validation on.
//!
//! A call binds its parameters in its environment's inline tip and a
//! constructor keeps up to two fields inline, so a loop iteration calls
//! the allocator for nothing: each kernel must make the same number of
//! allocations at both sizes, apart from the frame stack's growth past
//! the capacity a retired machine keeps (`catchloop 3000 0`, whose lazy
//! accumulator is forced 6 002 frames deep, and `deep 10000` grow it).
//! While every call of a global started a fresh environment chunk and
//! every constructor boxed its fields, the counts grew with the
//! iteration count: `fib 16` made 3 202 and `countPrimes 2 2000 0`
//! 17 713.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use urk::{Options, Session};
use urk_machine::{Backend, Tier};

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

/// The frame capacity a retired machine keeps (`KEEP_FRAMES` in
/// `crates/machine/src/machine.rs`).
const KEPT_FRAMES: usize = 1 << 12;

/// The reallocations of a frame stack that starts at the kept capacity,
/// grows frame by frame to `depth` frames and is shrunk back when the
/// machine retires.
fn stack_reallocs(depth: usize) -> u64 {
    let mut stack: Vec<usize> = Vec::with_capacity(KEPT_FRAMES);
    let ((), n) = count(|| {
        for frame in 0..depth {
            stack.push(frame);
        }
        stack.clear();
        stack.shrink_to(KEPT_FRAMES);
    });
    n
}

/// The compute benchmark's raise kernel: `Overflow` raised through as
/// many frames as `n`.
const DEEPRAISE: &str = "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)";

/// The compute benchmark's catch-episode kernel.
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

/// Each kernel at a small and a large size, with both answers.
const SIZES: [(&str, &str, &str, &str); 7] = [
    ("fib 5", "5", "fib 16", "987"),
    ("sumTo 10 0", "55", "sumTo 4000 0", "8002000"),
    ("countPrimes 2 20 0", "8", "countPrimes 2 2000 0", "303"),
    ("checksum 10", "520", "checksum 120", "6020"),
    ("pipe 10", "90", "pipe 400", "120600"),
    ("catchloop 3 0", "1150", "catchloop 3000 0", "1150000"),
    (
        "deep 10",
        "(raise Overflow)",
        "deep 10000",
        "(raise Overflow)",
    ),
];

#[test]
fn kernels_allocate_the_same_at_every_size() {
    let mut s = Session::new();
    s.options = Options {
        backend: Backend::Compiled,
        tier: Tier::Two,
        validate_tier2: true,
        ..Options::default()
    };
    let programs = urk_bench::workloads()
        .into_iter()
        .chain([urk_bench::pipeline_workload()])
        .map(|w| w.program)
        .chain([DEEPRAISE, CATCHLOOP]);
    for program in programs {
        s.load(program).expect("every kernel loads");
    }
    // Evaluates `src`, checks the answer and returns the stack depth.
    let eval = |src: &str, want: &str| {
        let r = s.eval(src).expect("evaluates");
        assert_eq!(r.rendered, want, "{src}");
        assert_eq!(r.stats.tier, Tier::Two, "{src}");
        r.stats.max_stack_depth
    };
    // One uncounted pass lowers the image and grows the recycled
    // machine's buffers to the capacity a retired machine keeps.
    for (small, small_want, large, large_want) in SIZES {
        eval(large, large_want);
        eval(small, small_want);
    }
    for (small, small_want, large, large_want) in SIZES {
        let (small_depth, at_small) = count(|| eval(small, small_want));
        let (large_depth, at_large) = count(|| eval(large, large_want));
        let (small_stack, large_stack) = (stack_reallocs(small_depth), stack_reallocs(large_depth));
        eprintln!(
            "{small}: {at_small} allocations ({small_stack} stack), \
             {large}: {at_large} ({large_stack} stack, {large_depth} frames deep)"
        );
        assert_eq!(
            at_small - small_stack,
            at_large - large_stack,
            "`{small}` made {at_small} allocations and `{large}` {at_large}: \
             the executor allocates per iteration"
        );
    }
}
