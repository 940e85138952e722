//! The **non-deterministic** baseline — §3.4's second rejected design.
//!
//! Here `+` makes a non-deterministic choice of which argument to evaluate
//! first, and `getException` is a *pure* function. The price, as the paper
//! explains, is that beta reduction (and let-inlining) become invalid: in
//!
//! ```text
//! let x = (1/0) + error "Urk" in getException x == getException x
//! ```
//!
//! the shared `x` is evaluated once, so both `getException`s see the same
//! exception and the expression is `True`; but after substituting `x`'s
//! right-hand side for both occurrences, the two evaluations may choose
//! *different* orders and the expression can also be `False`.
//!
//! [`enumerate_outcomes`] runs the evaluator under [`Design::Nondet`] over
//! every decision tape (schedule exploration, bounded by
//! `max_decisions`) and returns the set of observable outcomes, which is
//! exactly the evidence the law validator needs.

use std::collections::BTreeSet;
use std::rc::Rc;

use urk_syntax::core::Expr;

use crate::compare::show_denot;
use crate::eval::{DenotConfig, DenotEvaluator, Design};

/// Configuration for outcome enumeration.
#[derive(Clone, Debug)]
pub struct NondetConfig {
    /// Fuel and depth of each run.
    pub denot: DenotConfig,
    /// Upper bound on oracle decisions explored per run; runs that consume
    /// more are truncated (remaining decisions default to "left first").
    pub max_decisions: usize,
    /// Structural depth for rendering outcomes.
    pub show_depth: u32,
}

impl Default for NondetConfig {
    fn default() -> NondetConfig {
        NondetConfig {
            denot: DenotConfig::default(),
            max_decisions: 12,
            show_depth: 8,
        }
    }
}

/// Runs `expr` under every oracle tape (up to the decision bound) and
/// collects the set of rendered outcomes.
pub fn enumerate_outcomes(expr: &Rc<Expr>, config: &NondetConfig) -> BTreeSet<String> {
    let mut results = BTreeSet::new();
    // Depth-first schedule exploration: run with a prefix (default false
    // beyond it), then fork on every decision the run actually consumed.
    let mut stack: Vec<Vec<bool>> = vec![Vec::new()];

    while let Some(prefix) = stack.pop() {
        let ev = DenotEvaluator::with_design(config.denot.clone(), Design::Nondet);
        ev.set_oracle(prefix.clone());
        let d = ev.eval_closed(expr);
        results.insert(show_denot(&ev, &d, config.show_depth));
        let consumed = ev.oracle_decisions().min(config.max_decisions);
        for i in prefix.len()..consumed {
            let mut fork = prefix.clone();
            fork.extend(std::iter::repeat_n(false, i - prefix.len()));
            fork.push(true);
            stack.push(fork);
        }
    }
    results
}

/// True if the two expressions have the same *outcome set* — equality in
/// the non-deterministic design's natural observational semantics.
pub fn same_outcome_sets(e1: &Rc<Expr>, e2: &Rc<Expr>, config: &NondetConfig) -> bool {
    enumerate_outcomes(e1, config) == enumerate_outcomes(e2, config)
}
