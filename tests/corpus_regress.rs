//! Regression battery over the checked-in fuzz corpus.
//!
//! Every `corpus/*.urk` case was admitted for coverage novelty by a past
//! fuzz campaign — each one is a shape (raises buried under laziness,
//! order-dependent exception sets, partial matches, deep recursion) that
//! once exercised a distinct machine path. This suite promotes the whole
//! corpus to a standing differential battery: each case must evaluate
//! identically at tier 1 and tier 2 under both deterministic order
//! policies, and the outcome must refine the denotational semantics
//! (§3.5: a raised exception is a member of the denoted set; a value is
//! *the* denoted value, field by field).
//!
//! The corpus is auto-discovered, so newly admitted cases join the
//! battery without edits here.

#[allow(dead_code)]
mod common;

use std::fs;
use std::path::PathBuf;

use urk::{OrderPolicy, Session, Tier};

fn corpus_cases() -> Vec<(PathBuf, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let src = fs::read_to_string(&p).expect("read case");
            (p, src)
        })
        .collect()
}

/// A loaded session pair (tier 1, tier 2) with the given order policy.
fn tier_pair(src: &str, order: OrderPolicy) -> (Session, Session) {
    let mut tier1 = Session::new();
    tier1.options.machine.order = order;
    tier1
        .load(src)
        .expect("corpus case loads on the tier-1 session");
    let mut tier2 = Session::new();
    tier2.options.machine.order = order;
    tier2.options.tier = Tier::Two;
    tier2
        .load(src)
        .expect("corpus case loads on the tier-2 session");
    (tier1, tier2)
}

#[test]
fn every_corpus_case_agrees_across_backends_and_orders() {
    let cases = corpus_cases();
    assert!(
        cases.len() >= 30,
        "expected the checked-in corpus, found {} cases",
        cases.len()
    );
    for (path, src) in &cases {
        let name = path.file_name().unwrap().to_string_lossy();
        for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
            let (tier1, tier2) = tier_pair(src, order);
            let a = tier1
                .eval("counterexample")
                .unwrap_or_else(|e| panic!("{name} ({order:?}): tier 1: {e}"));
            let b = tier2
                .eval("counterexample")
                .unwrap_or_else(|e| panic!("{name} ({order:?}): tier 2: {e}"));
            assert_eq!(
                a.rendered, b.rendered,
                "{name} ({order:?}): rendered outcome diverged"
            );
            assert_eq!(
                a.exception, b.exception,
                "{name} ({order:?}): representative exception diverged"
            );

            // Refinement against the denotational oracle.
            if let Err(why) = common::admitted(&tier1, "counterexample", 32) {
                panic!("{name} ({order:?}): {} not admitted: {why}", a.rendered);
            }
        }
    }
}

#[test]
fn corpus_outcomes_are_stable_across_repeated_evaluation() {
    // Same session, evaluated twice: generational collections between
    // episodes must never change an answer (thunks promoted by the first
    // evaluation are reused by the second).
    for (path, src) in &corpus_cases() {
        let name = path.file_name().unwrap().to_string_lossy();
        let (tier1, tier2) = tier_pair(src, OrderPolicy::LeftToRight);
        for s in [&tier1, &tier2] {
            let first = s
                .eval("counterexample")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let second = s
                .eval("counterexample")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(first.rendered, second.rendered, "{name}: unstable value");
            assert_eq!(
                first.exception, second.exception,
                "{name}: unstable exception"
            );
        }
    }
}
