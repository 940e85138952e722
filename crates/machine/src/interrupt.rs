//! Real asynchronous exception delivery (§5.1, beyond the step schedule).
//!
//! [`MachineConfig::event_schedule`](crate::MachineConfig::event_schedule)
//! injects asynchronous exceptions at *deterministic step counts* — perfect
//! for reproducible tests, useless for a production embedding where a
//! watchdog thread or a serving frontend must cancel an evaluation at a
//! *wall-clock* deadline. An [`InterruptHandle`] is the bridge: a cloneable,
//! thread-safe cell that any thread may arm with an asynchronous exception,
//! and that the machine loop polls with a single relaxed atomic load per
//! step (no allocation, no branch beyond the load's zero check).
//!
//! Delivery follows the paper's §5.1 story exactly: the pending exception is
//! raised as an *asynchronous* exception, so the stack trim restores every
//! in-flight thunk to a resumable suspension rather than poisoning it — the
//! interrupted work can be re-entered later and still produce its value.
//!
//! Only asynchronous exceptions can be delivered this way: a synchronous
//! exception is part of an expression's denotation and cannot arrive from
//! outside without breaking the semantics. Injecting an asynchronous one can
//! only *add* members to the set of behaviours the semantics already allows
//! — which is what makes external cancellation sound (§5.1).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use urk_syntax::Exception;

/// A cloneable, thread-safe asynchronous-exception cell.
///
/// The empty state is encoded as `0`; a pending exception is stored as its
/// [`Exception::nullary_index`] plus one (every asynchronous exception is
/// payload-free, so this covers them all). Orderings are `Relaxed`
/// throughout: the cell synchronises nothing but itself — the machine only
/// needs to *eventually* observe a delivery, exactly like a signal flag.
///
/// # Examples
///
/// ```
/// use urk_machine::InterruptHandle;
/// use urk_syntax::Exception;
///
/// let h = InterruptHandle::new();
/// let watchdog = h.clone();
/// assert!(watchdog.deliver(Exception::Timeout));
/// assert_eq!(h.take(), Some(Exception::Timeout));
/// assert_eq!(h.take(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct InterruptHandle {
    cell: Arc<AtomicU8>,
}

impl InterruptHandle {
    /// A fresh, unarmed handle.
    pub fn new() -> InterruptHandle {
        InterruptHandle::default()
    }

    /// Arms the cell with an asynchronous exception. Returns `false` (and
    /// delivers nothing) for a synchronous exception — those belong to the
    /// denotation and may not be injected from outside. A later delivery
    /// overwrites an earlier undelivered one; the machine raises whichever
    /// it observes first.
    pub fn deliver(&self, e: Exception) -> bool {
        if !e.is_asynchronous() {
            return false;
        }
        let idx = e
            .nullary_index()
            .expect("asynchronous exceptions are payload-free");
        self.cell.store(idx + 1, Ordering::Relaxed);
        true
    }

    /// True if an exception is armed but not yet taken. One relaxed load —
    /// this is the machine's per-step poll.
    #[inline]
    pub fn is_pending(&self) -> bool {
        self.cell.load(Ordering::Relaxed) != 0
    }

    /// Takes the pending exception, disarming the cell.
    pub fn take(&self) -> Option<Exception> {
        match self.cell.swap(0, Ordering::Relaxed) {
            0 => None,
            n => Some(Exception::nullary_constructors()[(n - 1) as usize].clone()),
        }
    }

    /// True if no other clone of this handle exists, so no other thread
    /// can deliver into it.
    pub(crate) fn is_unshared(&self) -> bool {
        Arc::strong_count(&self.cell) == 1
    }

    /// Disarms the cell without reading it (e.g. when a request finishes
    /// before its watchdog fires, so the stale deadline cannot leak into
    /// the next evaluation on the same machine).
    pub fn clear(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_round_trips_every_asynchronous_exception() {
        let h = InterruptHandle::new();
        for e in Exception::nullary_constructors() {
            if !e.is_asynchronous() {
                continue;
            }
            assert!(h.deliver(e.clone()));
            assert!(h.is_pending());
            assert_eq!(h.take(), Some(e));
            assert!(!h.is_pending());
        }
    }

    #[test]
    fn synchronous_exceptions_are_refused() {
        let h = InterruptHandle::new();
        assert!(!h.deliver(Exception::DivideByZero));
        assert!(!h.deliver(Exception::UserError("Urk".into())));
        assert!(!h.is_pending());
        assert_eq!(h.take(), None);
    }

    #[test]
    fn clones_share_the_cell_across_threads() {
        let h = InterruptHandle::new();
        let remote = h.clone();
        let t = std::thread::spawn(move || remote.deliver(Exception::Interrupt));
        assert!(t.join().expect("no panic"));
        assert_eq!(h.take(), Some(Exception::Interrupt));
    }

    #[test]
    fn clear_disarms_a_stale_delivery() {
        let h = InterruptHandle::new();
        h.deliver(Exception::Timeout);
        h.clear();
        assert_eq!(h.take(), None);
    }

    #[test]
    fn later_delivery_overwrites_earlier() {
        let h = InterruptHandle::new();
        h.deliver(Exception::Timeout);
        h.deliver(Exception::Interrupt);
        assert_eq!(h.take(), Some(Exception::Interrupt));
    }
}
