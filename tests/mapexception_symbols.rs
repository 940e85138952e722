//! A `mapException` interception on the tree-walker interns no symbol.
//!
//! The handler is applied by pushing an `Apply` frame for the exception
//! value, so no synthetic variable is minted per intercepted raise and
//! the global interner does not grow with the number of raises. This file
//! holds a single test: the fresh-symbol counter is process-global, so no
//! other test may run beside it.

use std::rc::Rc;

use urk_machine::{MEnv, Machine, MachineConfig, Outcome};
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};
use urk_syntax::{Exception, Symbol};

/// The number `Symbol::fresh` appended to a probe's name.
fn probe() -> u64 {
    let s = Symbol::fresh("probe");
    s.as_str()["$probe".len()..]
        .parse()
        .expect("numbered probe")
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
    let query = Rc::new(
        desugar_expr(&parse_expr_src("mapped 0").expect("parses"), &data).expect("desugars"),
    );
    let mut m = Machine::new(MachineConfig::default());
    let env = m.bind_recursive(&prog.binds, &MEnv::empty());
    let before = probe();
    for _ in 0..N {
        match m.eval(query.clone(), &env, true).expect("no machine error") {
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
}
