//! The semantic domain `M t = t⊥ ⊕ P(E)⊥` of §4.1, in its tagged
//! presentation:
//!
//! ```text
//! M t = { Ok v  | v ∈ t }
//!     ∪ { Bad s | s ⊆ E }
//!     ∪ { Bad (E ∪ {NonTermination}) }        -- this is ⊥
//! ```
//!
//! Values are *lazy*: constructor fields are unevaluated denotational
//! thunks, so exceptional values can hide inside data structures exactly as
//! §3.2's `zipWith` examples require.
//!
//! This one domain serves all three designs of §3.4 (see
//! [`crate::eval::Design`]). The precise domain — a normal value, one
//! exception `e`, or a `⊥` distinct from every exception — embeds into it
//! exactly: `e` is `Bad {e}` and `⊥` is `Bad ALL`. On those points the
//! order `⊑` of [`crate::compare::denot_leq`] is the precise domain's own:
//! a singleton is below only itself (`{a} ⊇ {b}` iff `a = b`), `ALL` is
//! below everything, and nothing but `ALL` is below a normal value.
//!
//! Thunks are the only mutable nodes. Every edge that is made when its
//! node is made points from a newer node to an older one: an environment
//! node to the thunk and environment it extends, a closure to its
//! environment, a constructor to its fields, a pending thunk to its
//! environment. Two mutations point an older thunk at something newer,
//! and so can close an `Rc` cycle that reference counting alone never
//! frees. Such a thunk is a *knot*:
//!
//! * `letrec` (`fix`) ties each thunk of its group to an environment that
//!   contains the thunk itself;
//! * memoization stores a thunk's value in the thunk, and the value can
//!   reach the thunk again (`evens = 0 : map f evens`: the tail's value
//!   holds a thunk whose environment binds the tail).
//!
//! Every cycle therefore passes through a knot of one of these kinds. The
//! evaluator records each knot it ties, the second kind only when the
//! value has fields or is a function, and when it is dropped it releases
//! every knot still alive ([`ThunkState::Released`]), which breaks every
//! cycle and frees everything its requests built. A denotation is
//! therefore only meaningful while the evaluator that made it is alive:
//! forcing a released knot panics rather than denote anything.

use std::cell::RefCell;
use std::fmt;
use std::rc::{Rc, Weak};

use urk_syntax::core::Expr;
use urk_syntax::Symbol;

use crate::exnset::ExnSet;

/// An element of the semantic domain.
#[derive(Clone, Debug)]
pub enum Denot {
    /// A normal value.
    Ok(Value),
    /// An exceptional value carrying a set of exceptions; `Bad(All)` is ⊥.
    Bad(ExnSet),
}

impl Denot {
    /// The bottom element.
    pub fn bottom() -> Denot {
        Denot::Bad(ExnSet::bottom())
    }

    /// The paper's auxiliary `S(·)`: the empty set for a normal value, the
    /// exception set for an exceptional one (§4.2).
    pub fn exn_part(&self) -> ExnSet {
        match self {
            Denot::Ok(_) => ExnSet::empty(),
            Denot::Bad(s) => s.clone(),
        }
    }

    /// True if this is `⊥`.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Denot::Bad(s) if s.is_all())
    }

    /// True if this is any exceptional value.
    pub fn is_bad(&self) -> bool {
        matches!(self, Denot::Bad(_))
    }

    /// True if this value holds thunks or an environment, and so, stored
    /// in a thunk, could reach that thunk again.
    pub(crate) fn can_close_a_cycle(&self) -> bool {
        match self {
            Denot::Ok(Value::Con(_, fields)) => !fields.is_empty(),
            Denot::Ok(Value::Fun(_)) => true,
            _ => false,
        }
    }
}

/// A (weak-head) normal value.
#[derive(Clone)]
pub enum Value {
    Int(i64),
    Char(char),
    Str(Rc<str>),
    /// A constructor value with lazy fields.
    Con(Symbol, Vec<DThunk>),
    /// A function closure. A lambda is a *normal* value (§4.2: `λx.⊥ ≠ ⊥`).
    Fun(Rc<Closure>),
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "Int({n})"),
            Value::Char(c) => write!(f, "Char({c:?})"),
            Value::Str(s) => write!(f, "Str({s:?})"),
            Value::Con(c, fields) => write!(f, "Con({c}, {} fields)", fields.len()),
            Value::Fun(_) => f.write_str("Fun(<closure>)"),
        }
    }
}

/// A function closure.
pub struct Closure {
    pub param: Symbol,
    pub body: Rc<Expr>,
    pub env: Env,
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Closure(\\{} -> ...)", self.param)
    }
}

/// A shared, memoizing denotational thunk.
pub type DThunk = Rc<Thunk>;

/// The state of a thunk.
pub enum ThunkState {
    /// Not yet forced.
    Pending(Rc<Expr>, Env),
    /// Currently being forced. Re-entrant forcing is a semantic black hole
    /// and denotes ⊥ (a directly self-referential value, §5.2).
    Evaluating,
    /// Forced to a denotation.
    Done(Denot),
    /// A knot whose evaluator was dropped: its expression, environment
    /// and value are gone. Forcing it panics.
    Released,
}

/// A memoizing thunk cell.
pub struct Thunk {
    pub state: RefCell<ThunkState>,
}

impl Thunk {
    /// A thunk that will evaluate `expr` in `env`.
    pub fn pending(expr: Rc<Expr>, env: Env) -> DThunk {
        Rc::new(Thunk {
            state: RefCell::new(ThunkState::Pending(expr, env)),
        })
    }

    /// An already-forced thunk.
    pub fn done(d: Denot) -> DThunk {
        Rc::new(Thunk {
            state: RefCell::new(ThunkState::Done(d)),
        })
    }

    /// The `Bad {}` thunk used by the exception-finding mode of §4.3.
    pub fn bad_empty() -> DThunk {
        Thunk::done(Denot::Bad(ExnSet::empty()))
    }
}

impl fmt::Debug for Thunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.state.borrow() {
            ThunkState::Pending(_, _) => f.write_str("Thunk(pending)"),
            ThunkState::Evaluating => f.write_str("Thunk(evaluating)"),
            ThunkState::Done(d) => write!(f, "Thunk({d:?})"),
            ThunkState::Released => f.write_str("Thunk(released)"),
        }
    }
}

/// The panic message for forcing a released knot: a denotation that was
/// used after the evaluator that made it had been dropped.
pub(crate) const RELEASED_KNOT: &str = "forced a thunk that was released when its evaluator \
     was dropped: a denotation must not outlive the evaluator that made it";

/// The knots an evaluator has tied, released when it is dropped (see the
/// module docs). The record holds weak references, so a knot that is on
/// no cycle is freed as soon as nothing else holds it, and the record
/// forgets freed knots whenever it fills, so it stays proportional to the
/// live ones.
pub(crate) struct Knots(RefCell<Vec<Weak<Thunk>>>);

impl Knots {
    pub(crate) fn new() -> Knots {
        Knots(RefCell::new(Vec::new()))
    }

    /// Records a knot tied by this evaluator.
    pub(crate) fn record(&self, knot: &DThunk) {
        let mut knots = self.0.borrow_mut();
        if knots.len() == knots.capacity() {
            knots.retain(|k| k.strong_count() > 0);
        }
        knots.push(Rc::downgrade(knot));
    }
}

impl Drop for Knots {
    fn drop(&mut self) {
        for knot in self.0.get_mut().drain(..) {
            if let Some(t) = knot.upgrade() {
                // Take the old state out first, so it is dropped (and
                // whatever it alone kept alive with it) after the cell's
                // borrow has ended.
                let old = t.state.replace(ThunkState::Released);
                drop(old);
            }
        }
    }
}

/// A persistent environment: an immutable linked list of bindings.
#[derive(Clone, Default)]
pub struct Env(Option<Rc<EnvNode>>);

struct EnvNode {
    name: Symbol,
    thunk: DThunk,
    rest: Env,
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Env {
        Env(None)
    }

    /// Extends with one binding.
    pub fn bind(&self, name: Symbol, thunk: DThunk) -> Env {
        Env(Some(Rc::new(EnvNode {
            name,
            thunk,
            rest: self.clone(),
        })))
    }

    /// Looks up a variable.
    pub fn lookup(&self, name: Symbol) -> Option<DThunk> {
        let mut cur = self;
        while let Some(node) = &cur.0 {
            if node.name == name {
                return Some(node.thunk.clone());
            }
            cur = &node.rest;
        }
        None
    }

    /// Number of bindings (for diagnostics).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = &cur.0 {
            n += 1;
            cur = &node.rest;
        }
        n
    }

    /// True if no bindings are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Env({} bindings)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exn_part_matches_the_paper_s_s_function() {
        assert!(Denot::Ok(Value::Int(1)).exn_part().is_empty());
        let bad = Denot::Bad(ExnSet::singleton(urk_syntax::Exception::DivideByZero));
        assert!(!bad.exn_part().is_empty());
        assert!(Denot::bottom().exn_part().is_all());
    }

    #[test]
    fn env_shadowing_and_lookup() {
        let x = Symbol::intern("x");
        let y = Symbol::intern("y");
        let env = Env::empty()
            .bind(x, Thunk::done(Denot::Ok(Value::Int(1))))
            .bind(y, Thunk::done(Denot::Ok(Value::Int(2))))
            .bind(x, Thunk::done(Denot::Ok(Value::Int(3))));
        let got = env.lookup(x).expect("bound");
        match &*got.state.borrow() {
            ThunkState::Done(Denot::Ok(Value::Int(n))) => assert_eq!(*n, 3),
            _ => panic!("expected the innermost binding"),
        }
        assert!(env.lookup(Symbol::intern("z")).is_none());
        assert_eq!(env.len(), 3);
        assert!(Env::empty().is_empty());
    }

    #[test]
    fn bad_empty_thunk_is_the_exception_finding_probe() {
        let t = Thunk::bad_empty();
        match &*t.state.borrow() {
            ThunkState::Done(Denot::Bad(s)) => assert!(s.is_empty()),
            _ => panic!("expected a forced Bad {{}} thunk"),
        };
    }
}
