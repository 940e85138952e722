//! The §4.4 concurrency extension in action: "one advantage of this
//! presentation is that it scales to other extensions, such as adding
//! concurrency".
//!
//! ```text
//! cargo run --example concurrency
//! ```

use urk::{IoResult, Session};

fn main() -> Result<(), urk::Error> {
    let mut session = Session::new();
    session.load(
        r#"
-- Two producers and a supervisor: one producer fails, the supervisor
-- keeps running, and getException provides per-thread recovery.
count c n = if n == 0 then return 0 else putChar c >> count c (n - 1)

risky = do
  v <- getException (sum (zipWith (/) [9, 8, 7] [3, 0, 1]))
  case v of
    OK n  -> putStr (strAppend "[worker: " (strAppend (showInt n) "]"))
    Bad e -> putStr "[worker: recovered]"

main = do
  a <- forkIO (count 'x' 4)
  b <- forkIO risky
  count 'o' 4
  yield
  yield
  putStr " done"
  return (a, b)
"#,
    )?;
    let out = session.run_main("")?;
    println!("output : {}", out.trace.output());
    println!("trace  : {}", out.trace);
    println!("main   : {:?}", out.result);
    for (tid, r) in &out.threads {
        println!("thread {tid}: {r:?}");
    }
    assert!(matches!(out.result, IoResult::Done(ref v) if v == "Pair 1 2"));
    assert_eq!(out.threads.len(), 2, "both forked threads are reported");
    Ok(())
}
