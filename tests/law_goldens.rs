//! Golden record of the §3.4/§4.5 law table and of the non-deterministic
//! design's outcome sets.
//!
//! The table has 76 cells (19 laws under four semantics) and every law
//! side has an outcome set under the oracle-driven design, 38 sets in all.
//! The unit tests in `urk-transform` spot-check a few cells; this file pins
//! every one of them, so a change to any of the three designs' rules
//! (how abnormal functions are applied, `case` on an abnormal scrutinee,
//! strict primitives, `unsafeIsException` of ⊥, pure `getException`)
//! shows up here as a changed cell or a changed outcome string.

use urk_denot::{enumerate_outcomes, NondetConfig};
use urk_transform::{classify_all, render_table, standard_laws};

const TABLE: &str = "\
| law | paper | imprecise (sets) | precise L→R | precise R→L | nondet |\n\
|---|---|---|---|---|---|\n\
| plus-commute-exceptional | §3.4 | identity | INVALID | INVALID | identity |\n\
| plus-commute-normal | §3.4 | identity | identity | identity | identity |\n\
| beta-discard | §4.2 | identity | identity | identity | identity |\n\
| let-inline-pure | §3.5 | identity | identity | identity | identity |\n\
| let-inline-get-exception | §3.4–3.5 | identity | identity | identity | anti-refinement |\n\
| case-switch | §4 | identity | INVALID | INVALID | INVALID |\n\
| case-pushdown | §4.5 | refinement | identity | identity | identity |\n\
| error-this-that | §4.5 | INVALID | INVALID | INVALID | INVALID |\n\
| eta-reduction | §4.2 | INVALID | INVALID | INVALID | INVALID |\n\
| collapse-identical-alts-exceptional | §5.3 | INVALID | INVALID | INVALID | INVALID |\n\
| collapse-identical-alts-normal | §5.3 | identity | identity | identity | identity |\n\
| collapse-identical-alts-bottom | §5.3 | refinement | refinement | refinement | INVALID |\n\
| map-exception-identity | §5.4 | identity | identity | identity | identity |\n\
| map-exception-compose | §5.4 | identity | identity | identity | identity |\n\
| map-exception-normal | §5.4 | identity | identity | identity | identity |\n\
| seq-of-value | §3.2 | identity | identity | identity | identity |\n\
| let-float-from-lambda | §2.3 | identity | identity | identity | identity |\n\
| case-of-case | §2.3/§4.5 | identity | identity | identity | identity |\n\
| strictness-call-by-value | §3.4 | identity | INVALID | identity | refinement |\n\
";

/// `(law, lhs outcomes, rhs outcomes)`, each set in `BTreeSet` order.
const OUTCOMES: &[(&str, &[&str], &[&str])] = &[
    (
        "plus-commute-exceptional",
        &["Exn DivideByZero", "Exn UserError \"Urk\""],
        &["Exn DivideByZero", "Exn UserError \"Urk\""],
    ),
    ("plus-commute-normal", &["15"], &["15"]),
    ("beta-discard", &["3"], &["3"]),
    (
        "let-inline-pure",
        &["Exn DivideByZero", "Exn Overflow"],
        &["Exn DivideByZero", "Exn Overflow"],
    ),
    (
        "let-inline-get-exception",
        &[
            "Pair (Bad (UserError \"Urk\")) (Bad (UserError \"Urk\"))",
            "Pair (Bad DivideByZero) (Bad DivideByZero)",
        ],
        &[
            "Pair (Bad (UserError \"Urk\")) (Bad (UserError \"Urk\"))",
            "Pair (Bad (UserError \"Urk\")) (Bad DivideByZero)",
            "Pair (Bad DivideByZero) (Bad (UserError \"Urk\"))",
            "Pair (Bad DivideByZero) (Bad DivideByZero)",
        ],
    ),
    ("case-switch", &["Exn Overflow"], &["Exn DivideByZero"]),
    ("case-pushdown", &["Exn Overflow"], &["Exn Overflow"]),
    (
        "error-this-that",
        &["Exn UserError \"This\""],
        &["Exn UserError \"That\""],
    ),
    ("eta-reduction", &["<function>"], &["Exn Overflow"]),
    (
        "collapse-identical-alts-exceptional",
        &["Exn Overflow"],
        &["42"],
    ),
    ("collapse-identical-alts-normal", &["42"], &["42"]),
    ("collapse-identical-alts-bottom", &["⊥"], &["42"]),
    (
        "map-exception-identity",
        &["Exn DivideByZero", "Exn Overflow"],
        &["Exn DivideByZero", "Exn Overflow"],
    ),
    (
        "map-exception-compose",
        &["Exn Overflow"],
        &["Exn Overflow"],
    ),
    ("map-exception-normal", &["42"], &["42"]),
    ("seq-of-value", &["Exn DivideByZero"], &["Exn DivideByZero"]),
    ("let-float-from-lambda", &["<function>"], &["<function>"]),
    ("case-of-case", &["Exn Overflow"], &["Exn Overflow"]),
    (
        "strictness-call-by-value",
        &["Exn Overflow", "Exn UserError \"Y\""],
        &["Exn Overflow"],
    ),
];

#[test]
fn law_table_is_pinned() {
    assert_eq!(render_table(&classify_all()), TABLE);
}

#[test]
fn nondet_outcome_sets_are_pinned() {
    let laws = standard_laws();
    assert_eq!(laws.len(), OUTCOMES.len());
    let cfg = NondetConfig::default();
    for (law, (name, lhs, rhs)) in laws.iter().zip(OUTCOMES) {
        assert_eq!(law.name, *name);
        let got = |e| -> Vec<String> { enumerate_outcomes(e, &cfg).into_iter().collect() };
        assert_eq!(got(&law.lhs), *lhs, "{name}: lhs outcomes");
        assert_eq!(got(&law.rhs), *rhs, "{name}: rhs outcomes");
    }
}
