//! The compiler the paper's argument pays for: demand
//! analysis, the full transformation pipeline, and §4.5-style
//! self-validation — end to end on a real program.
//!
//! ```text
//! cargo run --example optimizer_demo
//! ```

use urk::Session;
use urk_syntax::Symbol;

const PROGRAM: &str = r#"
-- A small statistics pipeline over synthetic data, written naturally
-- (lots of lets, higher-order code, and accumulating loops).
mkdata n = if n == 0 then [] else (n * 37 % 101) : mkdata (n - 1)

mean xs = let s = sum xs in let n = length xs in s / n

variance xs =
  let m = mean xs
  in let sq = map (\x -> (x - m) * (x - m)) xs
     in sum sq / length xs

summary n =
  let xs = mkdata n
  in (mean xs, variance xs)

crunch i acc =
  if i == 0 then acc
  else crunch (i - 1) (acc + fst (summary 40))
"#;

fn main() -> Result<(), urk::Error> {
    let mut session = Session::new();
    session.load(PROGRAM)?;

    println!("== 1. Demand analysis (§3.4) =======================================");
    let analysis = session.analyze();
    for name in ["mkdata", "mean", "variance", "crunch", "summary"] {
        let sig = &analysis
            .summary(Symbol::intern(name))
            .expect("loaded")
            .demands;
        let rendered: Vec<&str> = sig.iter().map(|s| if *s { "S" } else { "L" }).collect();
        println!("  {name:10} {}", rendered.join(" "));
    }

    println!();
    println!("== 2. Before ========================================================");
    let before = session.eval("crunch 25 0")?;
    println!("  result      : {}", before.rendered);
    println!(
        "  steps {:>9}   allocations {:>8}   thunk updates {:>7}",
        before.stats.steps, before.stats.allocations, before.stats.thunk_updates
    );

    println!();
    println!("== 3. Optimise with §4.5 self-validation ============================");
    // The validation queries deliberately include exceptional cases: the
    // optimiser must preserve (or refine) their exception sets too.
    let report = session.optimize_validated(&[
        "crunch 5 0",
        "mean []", // division by zero: Bad {DivideByZero}
        "variance [1, 1]",
    ])?;
    println!(
        "  rewrites    : {} (size {} -> {})",
        report.total_rewrites(),
        report.size_before,
        report.size_after
    );
    for (pass, n) in &report.rewrites {
        println!("    {n:4}  {pass}");
    }
    println!(
        "  validation  : {:?} -> all identity-or-refinement: {}",
        report.validation,
        report.validated()
    );
    assert!(report.validated());

    println!();
    println!("== 4. After =========================================================");
    let after = session.eval("crunch 25 0")?;
    println!("  result      : {}", after.rendered);
    println!(
        "  steps {:>9}   allocations {:>8}   thunk updates {:>7}",
        after.stats.steps, after.stats.allocations, after.stats.thunk_updates
    );
    assert_eq!(before.rendered, after.rendered);

    let saved =
        100.0 * (1.0 - after.stats.thunk_updates as f64 / before.stats.thunk_updates.max(1) as f64);
    println!();
    println!(
        "thunk updates down {saved:.0}% — the §3.4 'crucial transformation', \
         licensed only by imprecise exceptions."
    );

    println!();
    println!("== 5. And the exceptional behaviour is intact =======================");
    let exc = session.eval("mean []")?;
    println!("  mean []     : {}", exc.rendered);
    Ok(())
}
