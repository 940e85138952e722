//! A spreadsheet engine on top of Urk — the "disaster recovery" use of
//! exceptions (§2).
//!
//! ```text
//! cargo run --example spreadsheet
//! ```
//!
//! Cell formulas are Urk expressions compiled into one lazy program; cells
//! reference each other freely (the graph machine shares and memoizes),
//! and any cell whose formula fails (division by zero, missing data as a
//! pattern-match failure, explicit `error`) shows an error *in that cell
//! only* — the per-cell `getException` boundary is exactly the modularity
//! §2 asks from disaster-recovery handlers: "one part of a system can
//! protect itself against failure in another part of the system".

use urk::{IoResult, Session};

/// One worksheet: named cells with Urk formulas.
struct Sheet {
    cells: Vec<(&'static str, &'static str)>,
}

impl Sheet {
    fn program(&self) -> String {
        let mut src = String::new();
        for (name, formula) in &self.cells {
            src.push_str(&format!("{name} = {formula}\n"));
        }
        src
    }
}

fn main() -> Result<(), urk::Error> {
    let sheet = Sheet {
        cells: vec![
            // Raw data.
            ("unitsQ1", "120"),
            ("unitsQ2", "80"),
            ("unitsQ3", "0"),
            ("revenueQ1", "8400"),
            ("revenueQ2", "6200"),
            ("revenueQ3", "150"),
            // Derived cells.
            ("totalUnits", "unitsQ1 + unitsQ2 + unitsQ3"),
            ("totalRevenue", "revenueQ1 + revenueQ2 + revenueQ3"),
            ("pricePerUnitQ1", "revenueQ1 / unitsQ1"),
            ("pricePerUnitQ2", "revenueQ2 / unitsQ2"),
            // Q3 sold zero units: this divides by zero.
            ("pricePerUnitQ3", "revenueQ3 / unitsQ3"),
            // Depends on a failing cell — still fails, lazily.
            (
                "bestPrice",
                "max pricePerUnitQ1 (max pricePerUnitQ2 pricePerUnitQ3)",
            ),
            // Depends only on healthy cells — unaffected.
            ("avgPrice", "totalRevenue / totalUnits"),
            // An explicit business rule.
            (
                "margin",
                r#"if totalRevenue > 10000 then totalRevenue - 10000
                   else error "margin: below plan""#,
            ),
        ],
    };

    let mut session = Session::new();
    session.load(&sheet.program())?;

    println!("cell             | value");
    println!("-----------------+---------------------------");
    for (name, _) in &sheet.cells {
        // Per-cell recovery boundary: getException around the cell.
        let src = format!(
            r##"main = do
  v <- getException {name}
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> case e of
      DivideByZero -> putStr "#DIV/0!"
      UserError m  -> putStr (strAppend "#ERR: " m)
      _            -> putStr "#ERR!""##
        );
        let mut cell_session = Session::new();
        cell_session.load(&sheet.program())?;
        cell_session.load(&src)?;
        let out = cell_session.run_main("")?;
        println!("{name:16} | {}", out.trace.output());
    }

    // The same sheet through the *semantic* runner: the denotation of the
    // broken cell is a set; the oracle picks the representative.
    let mut sem = Session::new();
    sem.load(&sheet.program())?;
    sem.load(
        r#"main = do
  v <- getException bestPrice
  case v of
    OK n  -> putStr (showInt n)
    Bad e -> putStr "bestPrice is unavailable""#,
    )?;
    let out = sem.run_main_semantic("", 42)?;
    let IoResult::Done(_) = out.result else {
        panic!("semantic run should complete: {:?}", out.result);
    };
    println!();
    println!("semantic runner on bestPrice: {}", out.trace.output());
    println!("semantic trace              : {}", out.trace);

    Ok(())
}
