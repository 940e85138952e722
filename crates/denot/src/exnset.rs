//! The exception-set lattice `P(E)⊥` of §4.1.
//!
//! An exceptional value carries a *set* of exceptions. The ordering is
//! reverse inclusion:
//!
//! ```text
//! S1 ⊑ S2  ⟺  S1 ⊇ S2
//! ```
//!
//! so the bottom element is the set of **all** exceptions (which the paper
//! identifies with `⊥` itself, after adding `NonTermination` to the
//! `Exception` type), and the top element is the empty set — the curious
//! value `Bad {}` that no term denotes but that the `case` rule's
//! exception-finding mode binds pattern variables to (§4.3).
//!
//! # Representation
//!
//! Sets are on the hot path of the denotational evaluator: every `(+)`
//! rule, every exception-finding `case`, and every `Bad` propagation
//! unions them. Almost all sets that arise in practice contain only the
//! eight payload-free builtin constructors, so the representation is
//!
//! * a **bitmask** over [`Exception::nullary_constructors`] (one bit per
//!   payload-free constructor), plus
//! * an optional [`Rc`]-shared **spill set** holding the payload-carrying
//!   members (`UserError`, `PatternMatchFail`), plus
//! * a distinguished `⊥` flag for the set of all exceptions.
//!
//! Unions of mask-only sets are a single `|`; a union where only one side
//! spills shares the other's `Rc` (copy-on-write), so the common cases
//! allocate nothing. Iteration interleaves mask bits 0–1, the spill set,
//! then bits 2–7, which is exactly `Exception`'s `Ord` order — `Display`
//! output and [`ExnSet::some_member`] are unchanged from the plain
//! `BTreeSet` representation this replaces.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use urk_syntax::Exception;

/// The mask bit flagging `⊥` (the set of all exceptions).
const ALL: u16 = 1 << 15;

/// How many mask bits sort *below* the payload-carrying constructors
/// (`DivideByZero`, `Overflow`); the remaining bits sort above them.
const BITS_BELOW_SPILL: u8 = 2;

/// A set of exceptions: either a finite set, or the set of all exceptions
/// (`⊥`, which includes `NonTermination`).
///
/// Invariants: when the `ALL` flag is set the spill is `None` and no other
/// mask bit is set; a spill is never `Some` of an empty set. Together these
/// make derived equality structural.
#[derive(Clone, PartialEq, Eq)]
pub struct ExnSet {
    mask: u16,
    spill: Option<Rc<BTreeSet<Exception>>>,
}

impl ExnSet {
    /// The empty set — the top of the lattice, `Bad {}` of §4.1.
    pub fn empty() -> ExnSet {
        ExnSet {
            mask: 0,
            spill: None,
        }
    }

    /// A singleton set. Allocation-free for the payload-free constructors.
    pub fn singleton(e: Exception) -> ExnSet {
        match e.nullary_index() {
            Some(i) => ExnSet {
                mask: 1 << i,
                spill: None,
            },
            None => ExnSet {
                mask: 0,
                spill: Some(Rc::new(BTreeSet::from([e]))),
            },
        }
    }

    /// The bottom element (all exceptions).
    pub fn bottom() -> ExnSet {
        ExnSet {
            mask: ALL,
            spill: None,
        }
    }

    fn spill_set(&self) -> Option<&BTreeSet<Exception>> {
        self.spill.as_deref()
    }

    /// True if this is the empty set.
    pub fn is_empty(&self) -> bool {
        self.mask == 0 && self.spill.is_none()
    }

    /// True if this is `⊥` (all exceptions).
    pub fn is_all(&self) -> bool {
        self.mask == ALL
    }

    /// Number of members of a finite set (`None` for `⊥`).
    pub fn len(&self) -> Option<usize> {
        if self.is_all() {
            return None;
        }
        Some(self.mask.count_ones() as usize + self.spill_set().map_or(0, BTreeSet::len))
    }

    /// Set membership. Everything is a member of `All`.
    pub fn contains(&self, e: &Exception) -> bool {
        if self.is_all() {
            return true;
        }
        match e.nullary_index() {
            Some(i) => self.mask & (1 << i) != 0,
            None => self.spill_set().is_some_and(|s| s.contains(e)),
        }
    }

    /// Whether the set denotes possible non-termination (`⊥` or an explicit
    /// `NonTermination` member) — the condition in §4.4's `getException`
    /// self-loop rule.
    pub fn may_diverge(&self) -> bool {
        self.contains(&Exception::NonTermination)
    }

    /// Set union — how `(+)`, application-of-`Bad`, and the `case` rule
    /// combine argument exception sets (§4.2–4.3). O(1) unless *both*
    /// sides carry distinct spill sets.
    pub fn union(&self, other: &ExnSet) -> ExnSet {
        if self.is_all() || other.is_all() {
            return ExnSet::bottom();
        }
        let spill = match (&self.spill, &other.spill) {
            (None, s) | (s, None) => s.clone(),
            (Some(a), Some(b)) if Rc::ptr_eq(a, b) => Some(a.clone()),
            (Some(a), Some(b)) => {
                // Share the larger side's Rc when it already subsumes the
                // smaller; merge (one allocation) otherwise.
                let (big, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
                if small.iter().all(|e| big.contains(e)) {
                    Some(big.clone())
                } else {
                    Some(Rc::new(big.iter().chain(small.iter()).cloned().collect()))
                }
            }
        };
        ExnSet {
            mask: self.mask | other.mask,
            spill,
        }
    }

    /// Inserts one exception (a no-op on `⊥`, which already has every
    /// member).
    pub fn insert(&mut self, e: Exception) {
        if self.is_all() {
            return;
        }
        match e.nullary_index() {
            Some(i) => self.mask |= 1 << i,
            None => match &mut self.spill {
                Some(s) => {
                    if !s.contains(&e) {
                        Rc::make_mut(s).insert(e);
                    }
                }
                None => self.spill = Some(Rc::new(BTreeSet::from([e]))),
            },
        }
    }

    /// The information ordering: `self ⊑ other ⟺ self ⊇ other`.
    pub fn leq(&self, other: &ExnSet) -> bool {
        if self.is_all() {
            return true;
        }
        if other.is_all() {
            return false;
        }
        if other.mask & !self.mask != 0 {
            return false;
        }
        match (self.spill_set(), other.spill_set()) {
            (_, None) => true,
            (None, Some(b)) => b.is_empty(),
            (Some(a), Some(b)) => {
                Rc::ptr_eq(
                    self.spill.as_ref().expect("spill checked"),
                    other.spill.as_ref().expect("spill checked"),
                ) || b.is_subset(a)
            }
        }
    }

    /// Iterates the members of a finite set in `Exception`'s `Ord` order
    /// (empty for `⊥`, whose members cannot be enumerated).
    pub fn iter(&self) -> impl Iterator<Item = Exception> + '_ {
        let finite = !self.is_all();
        let bit = move |i: u8| {
            (finite && self.mask & (1 << i) != 0)
                .then(|| Exception::nullary_constructors()[i as usize].clone())
        };
        (0..BITS_BELOW_SPILL)
            .filter_map(bit)
            .chain(
                self.spill_set()
                    .filter(|_| finite)
                    .into_iter()
                    .flatten()
                    .cloned(),
            )
            .chain((BITS_BELOW_SPILL..8).filter_map(bit))
    }

    /// The members, if the set is finite, in `Ord` order.
    pub fn members(&self) -> Option<Vec<Exception>> {
        if self.is_all() {
            return None;
        }
        Some(self.iter().collect())
    }

    /// An arbitrary-but-deterministic member (the least in the `Ord` on
    /// `Exception`), if one exists. `All` has no canonical member.
    pub fn some_member(&self) -> Option<Exception> {
        if self.is_all() {
            return None;
        }
        self.iter().next()
    }
}

impl fmt::Display for ExnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One shared rendering for every layer that shows a set.
        f.write_str(&urk_syntax::pretty_exception_set(self.members().as_deref()))
    }
}

impl fmt::Debug for ExnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExnSet{self}")
    }
}

impl From<Exception> for ExnSet {
    fn from(e: Exception) -> ExnSet {
        ExnSet::singleton(e)
    }
}

impl FromIterator<Exception> for ExnSet {
    fn from_iter<T: IntoIterator<Item = Exception>>(iter: T) -> ExnSet {
        let mut out = ExnSet::empty();
        for e in iter {
            out.insert(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urk() -> Exception {
        Exception::UserError("Urk".into())
    }

    #[test]
    fn ordering_is_reverse_inclusion() {
        let small = ExnSet::singleton(Exception::DivideByZero);
        let big = ExnSet::from_iter([Exception::DivideByZero, urk()]);
        // Bigger sets are *lower* (less informative).
        assert!(big.leq(&small));
        assert!(!small.leq(&big));
        // Bottom below everything; empty above everything.
        assert!(ExnSet::bottom().leq(&small));
        assert!(small.leq(&ExnSet::empty()));
        assert!(!ExnSet::empty().leq(&small));
    }

    #[test]
    fn union_is_the_lattice_meet() {
        let a = ExnSet::singleton(Exception::DivideByZero);
        let b = ExnSet::singleton(urk());
        let u = a.union(&b);
        assert!(u.leq(&a));
        assert!(u.leq(&b));
        assert!(u.contains(&Exception::DivideByZero));
        assert!(u.contains(&urk()));
        // Union with ⊥ is ⊥ — "loop + error Urk" denotes ⊥ (§4.2).
        assert!(a.union(&ExnSet::bottom()).is_all());
    }

    #[test]
    fn bottom_contains_everything_including_nontermination() {
        assert!(ExnSet::bottom().contains(&Exception::NonTermination));
        assert!(ExnSet::bottom().contains(&urk()));
        assert!(ExnSet::bottom().may_diverge());
        assert!(!ExnSet::singleton(urk()).may_diverge());
        assert!(ExnSet::singleton(Exception::NonTermination).may_diverge());
    }

    #[test]
    fn empty_set_is_expressible_but_memberless() {
        let e = ExnSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.some_member(), None);
        assert!(!e.contains(&urk()));
    }

    #[test]
    fn leq_is_a_partial_order() {
        let sets = [
            ExnSet::empty(),
            ExnSet::singleton(urk()),
            ExnSet::from_iter([urk(), Exception::Overflow]),
            ExnSet::bottom(),
        ];
        for a in &sets {
            assert!(a.leq(a), "reflexive");
            for b in &sets {
                for c in &sets {
                    if a.leq(b) && b.leq(c) {
                        assert!(a.leq(c), "transitive");
                    }
                }
                if a.leq(b) && b.leq(a) {
                    assert_eq!(a, b, "antisymmetric");
                }
            }
        }
    }

    #[test]
    fn display_is_stable() {
        let s = ExnSet::from_iter([urk(), Exception::DivideByZero]);
        assert_eq!(s.to_string(), "{DivideByZero, UserError \"Urk\"}");
        assert_eq!(ExnSet::bottom().to_string(), "{ALL}");
    }

    // --------------------------------------------------------------
    // Representation invariants of the bitmask + spill encoding
    // --------------------------------------------------------------

    /// Every set the mask and spill can describe, compared against the
    /// reference `BTreeSet` semantics.
    fn reference(members: &[Exception]) -> BTreeSet<Exception> {
        members.iter().cloned().collect()
    }

    #[test]
    fn iteration_is_in_ord_order_with_payloads_interleaved() {
        let members = vec![
            Exception::HeapOverflow,
            Exception::UserError("a".into()),
            Exception::DivideByZero,
            Exception::PatternMatchFail("f".into()),
            Exception::NonTermination,
            Exception::Overflow,
        ];
        let s = ExnSet::from_iter(members.clone());
        let got: Vec<Exception> = s.iter().collect();
        let want: Vec<Exception> = reference(&members).into_iter().collect();
        assert_eq!(got, want, "iter() must follow Exception's Ord");
        assert_eq!(s.members(), Some(want.clone()));
        assert_eq!(s.some_member(), Some(want[0].clone()));
        assert_eq!(s.len(), Some(6));
    }

    #[test]
    fn nullary_singletons_do_not_allocate_a_spill() {
        for e in Exception::nullary_constructors() {
            let s = ExnSet::singleton(e.clone());
            assert!(s.spill.is_none(), "{e} needs no spill");
            assert_eq!(s.len(), Some(1));
            assert!(s.contains(&e));
        }
        let s = ExnSet::singleton(urk());
        assert!(s.spill.is_some(), "payload members spill");
    }

    #[test]
    fn union_shares_the_spill_rc_copy_on_write() {
        let with_payload = ExnSet::from_iter([urk(), Exception::Overflow]);
        let mask_only = ExnSet::singleton(Exception::DivideByZero);
        let u = with_payload.union(&mask_only);
        assert!(
            Rc::ptr_eq(
                with_payload.spill.as_ref().unwrap(),
                u.spill.as_ref().unwrap()
            ),
            "union with a mask-only set must not copy the spill"
        );
        // Self-union shares too.
        let v = with_payload.union(&with_payload);
        assert!(Rc::ptr_eq(
            with_payload.spill.as_ref().unwrap(),
            v.spill.as_ref().unwrap()
        ));
        // A subsuming spill is shared rather than re-merged.
        let small = ExnSet::singleton(urk());
        let w = with_payload.union(&small);
        assert!(Rc::ptr_eq(
            with_payload.spill.as_ref().unwrap(),
            w.spill.as_ref().unwrap()
        ));
        // Distinct spills genuinely merge.
        let other = ExnSet::singleton(Exception::UserError("other".into()));
        let m = with_payload.union(&other);
        assert_eq!(m.len(), Some(3));
        assert!(m.contains(&urk()));
        assert!(m.contains(&Exception::UserError("other".into())));
    }

    #[test]
    fn insert_preserves_sharing_until_a_write_diverges() {
        let a = ExnSet::from_iter([urk()]);
        let mut b = a.clone();
        // Inserting a member b already has must not copy the spill.
        b.insert(urk());
        assert!(Rc::ptr_eq(
            a.spill.as_ref().unwrap(),
            b.spill.as_ref().unwrap()
        ));
        // Inserting a new payload member copies b's spill, leaving a alone.
        b.insert(Exception::PatternMatchFail("g".into()));
        assert_eq!(a.len(), Some(1));
        assert_eq!(b.len(), Some(2));
    }

    #[test]
    fn all_edges_insert_union_len_members() {
        let mut bot = ExnSet::bottom();
        bot.insert(urk());
        assert!(bot.is_all(), "insert on ⊥ is a no-op");
        assert_eq!(bot.len(), None);
        assert_eq!(bot.members(), None);
        assert_eq!(bot.iter().count(), 0, "⊥ has no enumerable members");
        assert!(bot.union(&ExnSet::empty()).is_all());
        assert!(ExnSet::empty().union(&bot).is_all());
        assert!(!bot.is_empty());
        // ⊥ equals itself however it was built.
        assert_eq!(ExnSet::bottom(), ExnSet::from_iter([urk()]).union(&bot));
    }

    #[test]
    fn equality_is_structural_across_construction_orders() {
        let a = ExnSet::from_iter([urk(), Exception::Overflow, Exception::Interrupt]);
        let mut b = ExnSet::singleton(Exception::Interrupt);
        b.insert(Exception::Overflow);
        b.insert(urk());
        assert_eq!(a, b);
        let c = ExnSet::singleton(Exception::Overflow)
            .union(&ExnSet::singleton(urk()))
            .union(&ExnSet::singleton(Exception::Interrupt));
        assert_eq!(a, c);
    }

    #[test]
    fn exhaustive_small_lattice_against_reference_sets() {
        // All subsets of a 5-member universe mixing mask and spill
        // members: union/leq/contains must agree with BTreeSet.
        let universe = [
            Exception::DivideByZero,
            Exception::Overflow,
            Exception::NonTermination,
            urk(),
            Exception::PatternMatchFail("f".into()),
        ];
        let subsets: Vec<(ExnSet, BTreeSet<Exception>)> = (0u32..32)
            .map(|bits| {
                let picked: Vec<Exception> = universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits & (1 << i) != 0)
                    .map(|(_, e)| e.clone())
                    .collect();
                (ExnSet::from_iter(picked.clone()), reference(&picked))
            })
            .collect();
        for (sa, ra) in &subsets {
            for e in &universe {
                assert_eq!(sa.contains(e), ra.contains(e));
            }
            assert_eq!(sa.len(), Some(ra.len()));
            for (sb, rb) in &subsets {
                let u = sa.union(sb);
                let ru: BTreeSet<Exception> = ra.union(rb).cloned().collect();
                assert_eq!(u.members().unwrap(), ru.into_iter().collect::<Vec<_>>());
                assert_eq!(sa.leq(sb), rb.is_subset(ra), "{sa} leq {sb}");
            }
        }
    }
}
