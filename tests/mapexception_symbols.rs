//! The machine interns no symbol per intercepted raise or per IO bind.
//!
//! A `mapException` handler is applied by pushing an `Apply` frame for the
//! exception value, and an IO runner's `>>=` step applies its continuation
//! through `Machine::alloc_apply`, which binds by environment slot. So no
//! synthetic variable is minted per raise or per bind, and the global
//! interner does not grow with the number of raises or with the length of
//! a `main` loop. This file holds a single test: the fresh-symbol counter
//! is process-global, so no other test may run beside it.

use std::sync::Arc;

use urk::{IoResult, Session};
use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};
use urk_syntax::{Exception, Hint, Symbol};

/// The serial `Symbol::fresh` gave a probe: the digits after its `$p`.
fn probe() -> u64 {
    let s = Symbol::fresh(Hint::P);
    s.to_string()["$p".len()..].parse().expect("numbered probe")
}

#[test]
fn intercepted_raises_mint_no_fresh_symbols() {
    const N: u64 = 50;
    let mut data = DataEnv::new();
    let prog = desugar_program(
        &parse_program("mapped n = mapException (\\e -> Overflow) (100 / n)").expect("parses"),
        &mut data,
    )
    .expect("desugars");
    let query =
        desugar_expr(&parse_expr_src("mapped 0").expect("parses"), &data).expect("desugars");
    let mut m = Machine::new(MachineConfig::default());
    m.link_code(Arc::new(compile_program(&prog.binds)));
    let before = probe();
    for _ in 0..N {
        match m.eval_code_expr(&query, true).expect("no machine error") {
            Outcome::Caught(Exception::Overflow) => {}
            other => panic!("expected the rewritten Overflow, got {other:?}"),
        }
    }
    let after = probe();
    assert_eq!(
        after - before,
        1,
        "{N} intercepted raises minted {} fresh symbols",
        after - before - 1
    );

    // A `main` loop of N binds, run twice: every bind applies its
    // continuation by slot, so neither the first run nor the second mints
    // a symbol.
    let mut s = Session::new();
    s.load(&format!(
        "countdown n = if n == 0 then return 0 else return n >>= \\k -> countdown (k - 1)\n\
         main = countdown {N}"
    ))
    .expect("loads");
    let before = probe();
    let first = s.run_main("").expect("runs");
    assert!(
        matches!(first.result, IoResult::Done(ref v) if v == "0"),
        "{first:?}"
    );
    let second = s.run_main("").expect("runs");
    assert!(
        matches!(second.result, IoResult::Done(ref v) if v == "0"),
        "{second:?}"
    );
    let after = probe();
    assert_eq!(
        after - before,
        1,
        "{} IO binds minted {} fresh symbols",
        2 * N,
        after - before - 1
    );
}
