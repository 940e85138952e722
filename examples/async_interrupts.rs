//! Asynchronous exceptions (§5.1): interrupts, timeouts, resource limits,
//! and resumable thunks.
//!
//! ```text
//! cargo run --example async_interrupts
//! ```

use std::sync::Arc;

use urk::{Exception, Session};
use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

fn main() -> Result<(), urk::Error> {
    println!("== 1. A Ctrl-C interrupt delivered through getException ============");
    let mut session = Session::new();
    // The interrupt arrives mid-way through a long sum.
    session.options.machine.event_schedule = vec![(200_000, Exception::Interrupt)];
    session.load(
        r#"main = do
  v <- getException (sum [1 .. 200000])
  case v of
    OK n        -> putStr (strAppend "sum = " (showInt n))
    Bad Interrupt -> putStr "interrupted by ^C"
    Bad e       -> putStr "some other failure""#,
    )?;
    let run = session.run_main("")?;
    println!("  output: {}", run.trace.output());
    println!("  trace : {}", run.trace);

    println!();
    println!("== 2. Timeouts from an external monitor (§5.1) ======================");
    let mut timed = Session::new();
    timed.options.machine.max_steps = 100_000;
    timed.options.machine.timeout_on_step_limit = true;
    timed.load(
        r#"main = do
  v <- getException (length (enumFromTo 1 100000000))
  case v of
    OK n        -> putStr (showInt n)
    Bad Timeout -> putStr "evaluation took too long: Timeout"
    Bad e       -> putStr "other""#,
    )?;
    let run = timed.run_main("")?;
    println!("  output: {}", run.trace.output());

    println!();
    println!("== 3. Resource exhaustion as asynchronous exceptions ===============");
    let mut tight = Session::new();
    tight.options.machine.max_stack = 2_000;
    tight.load(
        r#"deep n = if n == 0 then 0 else 1 + deep (n - 1)
main = do
  v <- getException (deep 100000)
  case v of
    OK n              -> putStr (showInt n)
    Bad StackOverflow -> putStr "caught StackOverflow"
    Bad e             -> putStr "other""#,
    )?;
    let run = tight.run_main("")?;
    println!("  output: {}", run.trace.output());

    println!();
    println!("== 4. Resumable thunks: interrupted work is NOT poisoned (§5.1) ====");
    // Drive the machine directly so we can interrupt a shared thunk, then
    // resume it.
    let data = DataEnv::new();
    let expr = desugar_expr(
        &parse_expr_src("let f = \\n -> if n == 0 then 42 else f (n - 1) in f 300000")
            .expect("parses"),
        &data,
    )
    .expect("desugars");
    let mut m = Machine::new(MachineConfig {
        event_schedule: vec![(50_000, Exception::Interrupt)],
        ..MachineConfig::default()
    });
    // No program: the query is closed.
    m.link_code(Arc::new(compile_program(&[])));
    let work = m.alloc_code_thunk(&expr);
    let first = m.eval_node(work, true).expect("no machine error");
    println!("  first attempt : {first:?}");
    println!(
        "  thunks restored: {} (poisoned: {})",
        m.stats().thunks_restored,
        m.stats().thunks_poisoned
    );
    assert!(matches!(first, Outcome::Caught(Exception::Interrupt)));

    let second = m.eval_node(work, true).expect("no machine error");
    let Outcome::Value(n) = second else {
        panic!("the resumed computation should complete, got {second:?}");
    };
    println!("  second attempt: Value({})", m.render(n, 4));

    println!();
    println!("== 5. Contrast: synchronous exceptions DO poison (§3.3) ============");
    let data2 = DataEnv::new();
    let boom = desugar_expr(&parse_expr_src("1/0").expect("parses"), &data2).expect("desugars");
    let mut m2 = Machine::new(MachineConfig::default());
    m2.link_code(Arc::new(compile_program(&[])));
    let t = m2.alloc_code_thunk(&boom);
    let first = m2.eval_node(t, true).expect("no machine error");
    let steps_after_first = m2.stats().steps;
    let second = m2.eval_node(t, true).expect("no machine error");
    println!("  first : {first:?}");
    println!(
        "  second: {second:?} (re-raised in {} steps — no re-evaluation)",
        m2.stats().steps - steps_after_first
    );

    Ok(())
}
