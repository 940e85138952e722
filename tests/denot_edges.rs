//! Edge cases of the denotational layer: the `P(E)⊥` lattice laws, the
//! refinement comparator, and rendering — including a proptest that union
//! really is the lattice meet (§4.1's ordering).

use proptest::prelude::*;
use std::rc::Rc;

use urk_denot::{compare_denots, show_denot, Denot, DenotEvaluator, ExnSet, Verdict};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv, Exception};

fn exn_strategy() -> impl Strategy<Value = Exception> {
    prop_oneof![
        Just(Exception::DivideByZero),
        Just(Exception::Overflow),
        Just(Exception::NonTermination),
        Just(Exception::Interrupt),
        "[a-c]{1,3}".prop_map(Exception::UserError),
    ]
}

fn set_strategy() -> impl Strategy<Value = ExnSet> {
    prop_oneof![
        8 => proptest::collection::btree_set(exn_strategy(), 0..5)
            .prop_map(ExnSet::from_iter),
        1 => Just(ExnSet::bottom()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Union is the meet of the ⊑ order: a greatest lower bound.
    #[test]
    fn union_is_the_lattice_meet(a in set_strategy(), b in set_strategy(), c in set_strategy()) {
        let u = a.union(&b);
        // Lower bound.
        prop_assert!(u.leq(&a));
        prop_assert!(u.leq(&b));
        // Greatest among lower bounds.
        if c.leq(&a) && c.leq(&b) {
            prop_assert!(c.leq(&u));
        }
        // Union is commutative, associative, idempotent.
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        let ab_c = a.union(&b).union(&c);
        let a_bc = a.union(&b.union(&c));
        prop_assert_eq!(ab_c, a_bc);
    }

    /// ⊥ is the bottom, the empty set the top.
    #[test]
    fn bottom_and_top(a in set_strategy()) {
        prop_assert!(ExnSet::bottom().leq(&a));
        prop_assert!(a.leq(&ExnSet::empty()));
        prop_assert!(ExnSet::bottom().union(&a).is_all());
    }
}

fn eval(src: &str) -> Denot {
    let data = DataEnv::new();
    let e = Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars"));
    DenotEvaluator::new().eval_closed(&e)
}

#[test]
fn compare_mixed_kinds_is_incomparable() {
    let int_val = eval("42");
    let ev = DenotEvaluator::new();
    let con_val = eval("Just 42");
    let bad = eval("raise Overflow");
    assert_eq!(
        compare_denots(&ev, &int_val, &con_val, 4),
        Verdict::Incomparable
    );
    assert_eq!(
        compare_denots(&ev, &int_val, &bad, 4),
        Verdict::Incomparable
    );
    assert_eq!(
        compare_denots(&ev, &con_val, &bad, 4),
        Verdict::Incomparable
    );
}

#[test]
fn bad_empty_sits_above_every_bad() {
    let empty = Denot::Bad(ExnSet::empty());
    let one = Denot::Bad(ExnSet::singleton(Exception::Overflow));
    let ev = DenotEvaluator::new();
    assert_eq!(
        compare_denots(&ev, &one, &empty, 4),
        Verdict::LeftRefinesToRight
    );
    assert_eq!(
        compare_denots(&ev, &Denot::bottom(), &empty, 4),
        Verdict::LeftRefinesToRight
    );
    // But Bad {} is still not a normal value.
    let ok = eval("1");
    assert_eq!(compare_denots(&ev, &empty, &ok, 4), Verdict::Incomparable);
}

#[test]
fn structural_comparison_cuts_off_at_depth_zero() {
    let a = eval("[1, 2, 3]");
    let ev = DenotEvaluator::new();
    let b = eval("[1, 2, 9]");
    // Depth 0: assumed related (the cut-off).
    assert_eq!(compare_denots(&ev, &a, &b, 0), Verdict::Equal);
    // Enough depth: the difference shows.
    assert_eq!(compare_denots(&ev, &a, &b, 8), Verdict::Incomparable);
}

#[test]
fn show_denot_depth_limits_rendering() {
    let d = eval("[1, 2, 3]");
    let ev = DenotEvaluator::new();
    assert_eq!(show_denot(&ev, &d, 1), "Cons 1 (Cons ...)");
    assert_eq!(show_denot(&ev, &d, 8), "Cons 1 (Cons 2 (Cons 3 Nil))");
}

#[test]
fn exceptional_fields_render_inside_structures() {
    let d = eval("(1/0, raise Overflow)");
    let ev = DenotEvaluator::new();
    assert_eq!(
        show_denot(&ev, &d, 4),
        "Pair (Bad {DivideByZero}) (Bad {Overflow})"
    );
}

#[test]
fn deeply_nested_exception_finding_mode() {
    // Nested cases under a Bad scrutinee union transitively.
    let d = eval(
        "case raise Overflow of
           { True -> case raise DivideByZero of { True -> 1; False -> 2 }
           ; False -> raise (UserError \"x\") }",
    );
    let Denot::Bad(s) = d else { panic!("{d:?}") };
    assert!(s.contains(&Exception::Overflow));
    assert!(s.contains(&Exception::DivideByZero));
    assert!(s.contains(&Exception::UserError("x".into())));
    assert!(!s.is_all());
}

#[test]
fn exception_finding_mode_does_not_leak_binder_sets() {
    // Binders are Bad {} — even when an alternative scrutinises its binder
    // again, no phantom exceptions appear.
    let d = eval(
        "case raise Overflow of
           { Just x -> case x of { True -> 1/0; False -> 2 }
           ; Nothing -> 3 }",
    );
    let Denot::Bad(s) = d else { panic!("{d:?}") };
    // Overflow from the scrutinee, DivideByZero from the explored inner
    // alternative — but nothing from x itself.
    assert_eq!(
        s,
        ExnSet::from_iter([Exception::Overflow, Exception::DivideByZero])
    );
}

#[test]
fn string_payload_exceptions_are_distinct_set_members() {
    let d = eval(r#"raise (UserError "a") + (raise (UserError "b") + raise (UserError "a"))"#);
    let Denot::Bad(s) = d else { panic!() };
    let members = s.members().expect("finite");
    assert_eq!(members.len(), 2);
}
