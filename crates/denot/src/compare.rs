//! Refinement comparison of denotations — the machinery behind the §4.5
//! law tables.
//!
//! The paper argues that transformations should be *identities or
//! refinements*: `lhs ⊑ rhs` means the transformation only increases
//! information (shrinks exception sets). [`compare_denots`] decides, to a
//! given structural depth, which of the four relationships holds.
//!
//! Function values cannot be compared extensionally; they are probed with
//! distinctively marked arguments (`Bad {}`, marked singletons and `⊥`
//! under the imprecise design; a marked exception, `⊥` and `0` under the
//! precise designs, whose domain has no `Bad {}`), which is sound for the
//! ground-typed law corpus in this repository but approximate in general —
//! see `DESIGN.md`.

use std::fmt;

use urk_syntax::Exception;

use crate::domain::{Denot, Thunk, Value};
use crate::eval::{DenotEvaluator, Design};
use crate::exnset::ExnSet;

/// The outcome of comparing two denotations under `⊑`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// `lhs = rhs` (to the probed depth).
    Equal,
    /// `lhs ⊑ rhs` strictly: the rhs is more defined (fewer exceptions).
    LeftRefinesToRight,
    /// `rhs ⊑ lhs` strictly.
    RightRefinesToLeft,
    /// Neither ordering holds.
    Incomparable,
}

impl Verdict {
    /// True if replacing lhs by rhs is semantics-preserving-or-improving
    /// (the paper's criterion for a legitimate transformation).
    pub fn is_valid_rewrite(self) -> bool {
        matches!(self, Verdict::Equal | Verdict::LeftRefinesToRight)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Equal => "identity",
            Verdict::LeftRefinesToRight => "refinement (lhs ⊑ rhs)",
            Verdict::RightRefinesToLeft => "anti-refinement (rhs ⊑ lhs)",
            Verdict::Incomparable => "invalid",
        })
    }
}

/// Compares two denotations to `depth`.
pub fn compare_denots(ev: &DenotEvaluator, d1: &Denot, d2: &Denot, depth: u32) -> Verdict {
    let le = denot_leq(ev, d1, d2, depth);
    let ge = denot_leq(ev, d2, d1, depth);
    match (le, ge) {
        (true, true) => Verdict::Equal,
        (true, false) => Verdict::LeftRefinesToRight,
        (false, true) => Verdict::RightRefinesToLeft,
        (false, false) => Verdict::Incomparable,
    }
}

/// The information order `d1 ⊑ d2`, decided to `depth`.
pub fn denot_leq(ev: &DenotEvaluator, d1: &Denot, d2: &Denot, depth: u32) -> bool {
    match (d1, d2) {
        (Denot::Bad(s1), Denot::Bad(s2)) => s1.leq(s2),
        // Only ⊥ sits below normal values (coalesced sum, §4.1).
        (Denot::Bad(s), Denot::Ok(_)) => s.is_all(),
        (Denot::Ok(_), Denot::Bad(_)) => false,
        (Denot::Ok(v1), Denot::Ok(v2)) => value_leq(ev, v1, v2, depth),
    }
}

fn value_leq(ev: &DenotEvaluator, v1: &Value, v2: &Value, depth: u32) -> bool {
    if depth == 0 {
        return true; // structural cut-off: assume related
    }
    match (v1, v2) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Char(a), Value::Char(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Con(c1, f1), Value::Con(c2, f2)) => {
            c1 == c2
                && f1.len() == f2.len()
                && f1.iter().zip(f2).all(|(a, b)| {
                    let da = ev.force(a);
                    let db = ev.force(b);
                    denot_leq(ev, &da, &db, depth - 1)
                })
        }
        (Value::Fun(_), Value::Fun(_)) => {
            // Probe with marked exceptional arguments.
            probes(ev.design()).iter().all(|p| {
                let a1 = Thunk::done(p.clone());
                let a2 = Thunk::done(p.clone());
                let r1 = ev.apply_denot(&Denot::Ok(v1.clone()), a1);
                let r2 = ev.apply_denot(&Denot::Ok(v2.clone()), a2);
                denot_leq(ev, &r1, &r2, depth - 1)
            })
        }
        _ => false,
    }
}

fn probes(design: Design) -> Vec<Denot> {
    let marked = Denot::Bad(ExnSet::singleton(Exception::UserError("#probe".into())));
    match design {
        Design::Imprecise => vec![Denot::Bad(ExnSet::empty()), marked, Denot::bottom()],
        Design::Precise(_) | Design::Nondet => {
            vec![marked, Denot::bottom(), Denot::Ok(Value::Int(0))]
        }
    }
}

/// Renders a denotation to `depth`, forcing constructor fields — the
/// ground observation used by tests, the REPL and the non-deterministic
/// design's outcome sets.
pub fn show_denot(ev: &DenotEvaluator, d: &Denot, depth: u32) -> String {
    match d {
        Denot::Bad(s) => show_bad(ev, s, false),
        Denot::Ok(v) => show_value(ev, v, depth, false),
    }
}

/// Spells an abnormal value: `Bad {..}` under the imprecise design, and
/// the precise domain's `Exn e` or `⊥` under the others.
fn show_bad(ev: &DenotEvaluator, s: &ExnSet, nested: bool) -> String {
    let text = match (ev.design(), s.some_member()) {
        (Design::Imprecise, _) => format!("Bad {s}"),
        (Design::Precise(_) | Design::Nondet, None) => return "⊥".into(),
        (Design::Precise(_) | Design::Nondet, Some(e)) => {
            debug_assert_eq!(s.len(), Some(1), "a precise design raises one exception");
            format!("Exn {e}")
        }
    };
    if nested {
        format!("({text})")
    } else {
        text
    }
}

fn show_value(ev: &DenotEvaluator, v: &Value, depth: u32, nested: bool) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Char(c) => format!("{c:?}"),
        Value::Str(s) => format!("{s:?}"),
        Value::Fun(_) => "<function>".into(),
        Value::Con(c, fields) if fields.is_empty() => c.to_string(),
        Value::Con(c, fields) => {
            if depth == 0 {
                return if nested {
                    format!("({c} ...)")
                } else {
                    format!("{c} ...")
                };
            }
            let mut out = String::new();
            if nested {
                out.push('(');
            }
            out.push_str(&c.to_string());
            for f in fields {
                out.push(' ');
                let d = ev.force(f);
                match d {
                    Denot::Bad(s) => out.push_str(&show_bad(ev, &s, true)),
                    Denot::Ok(v) => out.push_str(&show_value(ev, &v, depth - 1, true)),
                }
            }
            if nested {
                out.push(')');
            }
            out
        }
    }
}
