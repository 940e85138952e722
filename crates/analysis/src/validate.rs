//! The analysis half of tier-2 translation validation: auditing the
//! *facts* a compilation claimed against a freshly recomputed analysis.
//!
//! The machine-side validator (`urk-machine`'s `validate` module) walks
//! the two code arenas and discharges each certificate against a
//! [`Tier2Facts`]-shaped licence — but it has to take that licence as
//! given. This module closes the loop: [`audit_binding_facts`] recomputes
//! the whole-program analysis from the Core program and refuses any
//! claimed [`BindingFact`] that the fresh run does not reproduce, plus
//! any fact violating the lattice's own invariants:
//!
//! * `demands.len()` equals the binding's manifest arity (a demand vector
//!   for parameters that do not exist licenses nothing meaningful);
//! * `demands[i]` implies `uses[i]` — a parameter that is *certainly*
//!   demanded is in particular *possibly* used;
//! * a known constant (`val`) is claimed only for WHNF-safe arity-0
//!   bindings — the constant-substitution licence's shape.
//!
//! A compiler fed corrupted facts can emit code the machine validator
//! would accept *if it were fed the same corrupted facts*; auditing the
//! facts against a recomputation makes the pair sound end to end.

use std::rc::Rc;

use urk_syntax::core::CoreProgram;
use urk_syntax::{DataEnv, Symbol};

use crate::analyze::{analyze_program, BindingFact};

/// What the audit proved, for observability and benches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactAudit {
    /// Bindings whose claimed facts were reproduced exactly.
    pub bindings: usize,
    /// Parameters proven demanded across all bindings.
    pub demanded_params: usize,
}

/// Why a claimed fact set was refused.
#[derive(Clone, Debug, PartialEq)]
pub struct FactAuditError {
    /// The binding whose claim failed (best-effort; `None` for
    /// shape-level mismatches like a wrong fact count).
    pub binding: Option<Symbol>,
    /// The obligation that could not be discharged.
    pub message: String,
}

impl std::fmt::Display for FactAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.binding {
            Some(b) => write!(f, "fact audit failed for `{b}`: {}", self.message),
            None => write!(f, "fact audit failed: {}", self.message),
        }
    }
}

impl std::error::Error for FactAuditError {}

/// Recomputes the analysis for `prog` and audits `claimed` — the
/// positional facts some earlier compilation consumed — against it.
pub fn audit_binding_facts(
    prog: &CoreProgram,
    data: &DataEnv,
    claimed: &[BindingFact],
) -> Result<FactAudit, FactAuditError> {
    let fresh = analyze_program(prog, data);
    let facts = fresh.binding_facts(&prog.binds);
    if facts.len() != claimed.len() {
        return Err(FactAuditError {
            binding: None,
            message: format!(
                "claimed {} facts for a program with {} bindings",
                claimed.len(),
                facts.len()
            ),
        });
    }
    let mut audit = FactAudit::default();
    for (mine, theirs) in facts.iter().zip(claimed) {
        let err = |message: String| FactAuditError {
            binding: Some(mine.name),
            message,
        };
        if mine != theirs {
            return Err(err(format!(
                "claimed fact is not reproducible: fresh {mine:?} vs claimed {theirs:?}"
            )));
        }
        // Invariants on the (now trusted-by-recomputation) fact itself.
        if !mine.demands.is_empty() && mine.demands.len() != mine.arity {
            return Err(err(format!(
                "demand vector length {} does not match arity {}",
                mine.demands.len(),
                mine.arity
            )));
        }
        if mine.val.is_some() && (mine.arity != 0 || !mine.whnf_safe) {
            return Err(err(
                "constant claimed for a non-WHNF-safe or arity-positive binding".into(),
            ));
        }
        if let Some(s) = fresh.summary(mine.name) {
            for (i, d) in mine.demands.iter().enumerate() {
                if *d && !s.uses.get(i).copied().unwrap_or(false) {
                    return Err(err(format!(
                        "parameter {i} claimed demanded but not even possibly used"
                    )));
                }
            }
        }
        audit.bindings += 1;
        audit.demanded_params += mine.demands.iter().filter(|d| **d).count();
    }
    Ok(audit)
}

/// Convenience for callers that hold the binding list but not a
/// `CoreProgram` (mirrors `Analysis::binding_facts`' signature shape).
pub fn audit_binds(
    binds: &[(Symbol, Rc<urk_syntax::core::Expr>)],
    data: &DataEnv,
    claimed: &[BindingFact],
) -> Result<FactAudit, FactAuditError> {
    let prog = CoreProgram {
        binds: binds.to_vec(),
        sigs: Vec::new(),
    };
    audit_binding_facts(&prog, data, claimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_program;
    use urk_syntax::{desugar_program, parse_program};

    fn setup(src: &str) -> (CoreProgram, DataEnv, Vec<BindingFact>) {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        let facts = analyze_program(&prog, &data).binding_facts(&prog.binds);
        (prog, data, facts)
    }

    #[test]
    fn honest_facts_audit_clean() {
        let (prog, data, facts) = setup("k = 42\nsq x = x * x\nmain = sq k");
        let audit = audit_binding_facts(&prog, &data, &facts).expect("audits");
        assert_eq!(audit.bindings, 3);
        assert!(audit.demanded_params >= 1, "{audit:?}");
    }

    #[test]
    fn a_corrupted_constant_is_refused() {
        let (prog, data, mut facts) = setup("k = 42\nmain = k + 1");
        facts[0].val = Some(crate::effect::Val::Int(7));
        let err = audit_binding_facts(&prog, &data, &facts).expect_err("refuses");
        assert!(err.message.contains("not reproducible"), "{err}");
    }

    #[test]
    fn a_forged_demand_is_refused() {
        let (prog, data, mut facts) = setup("konst x y = x\nmain = konst 1 2");
        // `y` is never demanded; forging it would license an unsound Spec.
        facts[0].demands = vec![true, true];
        let err = audit_binding_facts(&prog, &data, &facts).expect_err("refuses");
        assert!(err.message.contains("not reproducible"), "{err}");
    }

    #[test]
    fn a_forged_demand_on_a_recursive_binding_is_refused() {
        let (prog, data, mut facts) =
            setup("loopy x y = if x == 0 then 0 else loopy (x - 1) y\nmain = loopy 3 4");
        // The greatest fixpoint proves `x` (the scrutinee) but not `y`,
        // which only ever reaches the recursive call.
        assert_eq!(facts[0].demands, vec![true, false]);
        audit_binding_facts(&prog, &data, &facts).expect("honest facts audit");
        facts[0].demands = vec![true, true];
        let err = audit_binding_facts(&prog, &data, &facts).expect_err("refuses");
        assert!(err.message.contains("not reproducible"), "{err}");
    }
}
