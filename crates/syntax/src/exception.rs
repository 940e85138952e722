//! The `Exception` vocabulary shared by every layer of the system.
//!
//! The paper (§3.1) makes `Exception` an ordinary algebraic data type
//! supplied by the Prelude:
//!
//! ```text
//! data Exception = DivideByZero | Overflow | UserError String | ...
//! ```
//!
//! Inside Urk programs exceptions really are constructor values of that data
//! type (so they can be scrutinised by `case`, built by user code, passed to
//! `raise`, and returned by `getException`). This module is the *runtime
//! mirror* of that data type: the evaluators convert between the in-language
//! constructor values and [`Exception`] when crossing `raise`/`getException`.
//!
//! §5.1 extends the type with *asynchronous* exceptions (interrupts and
//! resource exhaustion); [`Exception::is_asynchronous`] distinguishes them,
//! and §4.1/§5.2 add [`Exception::NonTermination`], the extra member that
//! identifies `⊥` with the set of all exceptions.

use std::fmt;

use crate::{Known, Symbol};

/// A single exception, synchronous or asynchronous.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Exception {
    /// Integer division or modulus by zero.
    DivideByZero,
    /// Arithmetic overflow of the (bounded) integer type (§4.2's `⊕`).
    Overflow,
    /// Raised by `error s` — the paper's `UserError String` (§2.2).
    UserError(String),
    /// Inexhaustive pattern match; carries the function or `case` location.
    PatternMatchFail(String),
    /// The distinguished member that makes `⊥` the set of *all* exceptions
    /// (§4.1), also returned by detectable black holes (§5.2).
    NonTermination,
    /// Asynchronous: the user hit Ctrl-C (§5.1's `ControlC` event).
    Interrupt,
    /// Asynchronous: an external monitor decided evaluation took too long.
    Timeout,
    /// Asynchronous: evaluation-stack exhaustion.
    StackOverflow,
    /// Asynchronous: heap exhaustion.
    HeapOverflow,
    /// Asynchronous: the scheduler found this thread blocked on an `MVar`
    /// no other thread can ever fill or empty (GHC's
    /// `BlockedIndefinitelyOnMVar`, from the §4.4 concurrency extension).
    BlockedIndefinitely,
}

impl Exception {
    /// True for the §5.1 asynchronous exceptions, which arise from external
    /// events rather than from the value being evaluated, and therefore are
    /// *not* part of any expression's denotation.
    pub fn is_asynchronous(&self) -> bool {
        matches!(
            self,
            Exception::Interrupt
                | Exception::Timeout
                | Exception::StackOverflow
                | Exception::HeapOverflow
                | Exception::BlockedIndefinitely
        )
    }

    /// The in-language constructor for this exception.
    fn constructor(&self) -> Known {
        match self {
            Exception::DivideByZero => Known::DivideByZero,
            Exception::Overflow => Known::Overflow,
            Exception::UserError(_) => Known::UserError,
            Exception::PatternMatchFail(_) => Known::PatternMatchFail,
            Exception::NonTermination => Known::NonTermination,
            Exception::Interrupt => Known::Interrupt,
            Exception::Timeout => Known::Timeout,
            Exception::StackOverflow => Known::StackOverflow,
            Exception::HeapOverflow => Known::HeapOverflow,
            Exception::BlockedIndefinitely => Known::BlockedIndefinitely,
        }
    }

    /// The in-language constructor name for this exception.
    pub fn constructor_name(&self) -> &'static str {
        self.constructor().spelling()
    }

    /// The in-language constructor name, interned.
    pub fn constructor_symbol(&self) -> Symbol {
        self.constructor().symbol()
    }

    /// The string payload, if this exception carries one.
    pub fn payload(&self) -> Option<&str> {
        match self {
            Exception::UserError(s) | Exception::PatternMatchFail(s) => Some(s),
            _ => None,
        }
    }

    /// Reconstructs an exception from its constructor name and optional
    /// string payload. Returns `None` for unknown constructors or a missing
    /// payload on a payload-carrying constructor.
    pub fn from_constructor(name: Symbol, payload: Option<&str>) -> Option<Exception> {
        use Known as K;
        const CONSTRUCTORS: &[Known] = &[
            K::DivideByZero,
            K::Overflow,
            K::UserError,
            K::PatternMatchFail,
            K::NonTermination,
            K::Interrupt,
            K::Timeout,
            K::StackOverflow,
            K::HeapOverflow,
            K::BlockedIndefinitely,
        ];
        Some(match Known::find(name, CONSTRUCTORS)? {
            K::DivideByZero => Exception::DivideByZero,
            K::Overflow => Exception::Overflow,
            K::UserError => Exception::UserError(payload?.to_owned()),
            K::PatternMatchFail => Exception::PatternMatchFail(payload?.to_owned()),
            K::NonTermination => Exception::NonTermination,
            K::Interrupt => Exception::Interrupt,
            K::Timeout => Exception::Timeout,
            K::StackOverflow => Exception::StackOverflow,
            K::HeapOverflow => Exception::HeapOverflow,
            K::BlockedIndefinitely => Exception::BlockedIndefinitely,
            _ => return None,
        })
    }

    /// Position of a payload-free exception within
    /// [`Exception::nullary_constructors`], or `None` for the
    /// payload-carrying constructors. The denotational layer's bitmask set
    /// representation keys its bits on this index; the array is in `Ord`
    /// order, with indices 0–1 sorting below the payload-carrying
    /// constructors and 2–7 above them.
    pub fn nullary_index(&self) -> Option<u8> {
        Some(match self {
            Exception::DivideByZero => 0,
            Exception::Overflow => 1,
            Exception::NonTermination => 2,
            Exception::Interrupt => 3,
            Exception::Timeout => 4,
            Exception::StackOverflow => 5,
            Exception::HeapOverflow => 6,
            Exception::BlockedIndefinitely => 7,
            Exception::UserError(_) | Exception::PatternMatchFail(_) => return None,
        })
    }

    /// All payload-free exception constructors, in declaration order. Used
    /// by generators in property tests.
    pub fn nullary_constructors() -> [Exception; 8] {
        [
            Exception::DivideByZero,
            Exception::Overflow,
            Exception::NonTermination,
            Exception::Interrupt,
            Exception::Timeout,
            Exception::StackOverflow,
            Exception::HeapOverflow,
            Exception::BlockedIndefinitely,
        ]
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exception::UserError(s) => write!(f, "UserError {s:?}"),
            Exception::PatternMatchFail(s) => write!(f, "PatternMatchFail {s:?}"),
            other => f.write_str(other.constructor_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_classification_matches_section_5_1() {
        assert!(Exception::Interrupt.is_asynchronous());
        assert!(Exception::Timeout.is_asynchronous());
        assert!(Exception::StackOverflow.is_asynchronous());
        assert!(Exception::HeapOverflow.is_asynchronous());
        assert!(!Exception::DivideByZero.is_asynchronous());
        assert!(!Exception::UserError("Urk".into()).is_asynchronous());
        assert!(!Exception::NonTermination.is_asynchronous());
    }

    #[test]
    fn constructor_round_trip() {
        let all = vec![
            Exception::DivideByZero,
            Exception::Overflow,
            Exception::UserError("Urk".into()),
            Exception::PatternMatchFail("zipWith".into()),
            Exception::NonTermination,
            Exception::Interrupt,
            Exception::Timeout,
            Exception::StackOverflow,
            Exception::HeapOverflow,
            Exception::BlockedIndefinitely,
        ];
        for e in all {
            let back =
                Exception::from_constructor(e.constructor_symbol(), e.payload()).expect("known");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn unknown_constructor_is_rejected() {
        assert_eq!(
            Exception::from_constructor(Symbol::intern("Zorp"), None),
            None
        );
        // Payload-carrying constructor without a payload is also rejected.
        assert_eq!(
            Exception::from_constructor(Symbol::intern("UserError"), None),
            None
        );
    }

    #[test]
    fn nullary_index_agrees_with_the_constructor_array_and_ord() {
        for (i, e) in Exception::nullary_constructors().iter().enumerate() {
            assert_eq!(e.nullary_index(), Some(i as u8));
        }
        assert_eq!(Exception::UserError("x".into()).nullary_index(), None);
        assert_eq!(
            Exception::PatternMatchFail("f".into()).nullary_index(),
            None
        );
        // Indices 0–1 sort below the payload-carrying constructors, 2–7
        // above — the interleaving the bitmask set representation relies
        // on for in-order iteration.
        let user = Exception::UserError(String::new());
        let pmf = Exception::PatternMatchFail("\u{10FFFF}".into());
        let all = Exception::nullary_constructors();
        for e in &all[..2] {
            assert!(*e < user, "{e} should sort below payloads");
        }
        for e in &all[2..] {
            assert!(*e > pmf, "{e} should sort above payloads");
        }
        assert!(all.windows(2).all(|w| w[0] < w[1]), "array is Ord-sorted");
    }

    #[test]
    fn display_shows_payloads() {
        assert_eq!(
            Exception::UserError("Urk".into()).to_string(),
            "UserError \"Urk\""
        );
        assert_eq!(Exception::DivideByZero.to_string(), "DivideByZero");
    }
}
