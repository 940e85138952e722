//! The region-program differential: every `Fused` and `Spec` prim region
//! in the tier-2 image of the Prelude plus the seven compute kernels runs
//! through its straight-line program and through the recursive walk it
//! is derived from, under both deterministic order policies, and the two
//! must agree on the value or exception and on every counter. The leaf
//! values reach boxed integers, `Overflow` and `DivideByZero`.
//!
//! A corrupted program must be refused at link time: the check that ties
//! each program to its region has a sabotage switch, and the last test
//! proves it fires.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use urk::{tier2_facts_for, Session, Tier};
use urk_bench::{pipeline_workload, workloads};
use urk_machine::heap::{IMM_INT_MAX, IMM_INT_MIN};
use urk_machine::{
    compile_program, region_differential, tier2_optimize, Machine, MachineConfig, OrderPolicy,
};

/// The compute benchmark's two exception kernels (the other five are
/// `urk-bench`'s workloads).
const DEEPRAISE: &str = "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)";
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

/// Leaf values: zero, negatives, both edges of the immediate range and
/// the first boxed values past them, and the `i64` extremes.
const INTS: &[i64] = &[
    0,
    1,
    -1,
    -7,
    3,
    IMM_INT_MAX,
    IMM_INT_MAX + 1,
    IMM_INT_MIN,
    i64::MAX,
    i64::MIN,
];

/// A tier-2 session over the Prelude with every compute kernel loaded.
fn kernel_session() -> Session {
    let mut s = Session::new();
    s.options.tier = Tier::Two;
    let mut programs: Vec<&str> = workloads().iter().map(|w| w.program).collect();
    programs.push(pipeline_workload().program);
    programs.extend([DEEPRAISE, CATCHLOOP]);
    for p in programs {
        s.load(p).expect("kernel loads");
    }
    s
}

#[test]
fn every_region_program_agrees_with_the_recursive_walk() {
    let code = kernel_session().compiled_code();
    assert!(code.is_tier2());
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let diff = region_differential(&code, order, INTS);
        assert!(
            diff.mismatches.is_empty(),
            "{order:?}: {} mismatches, first: {}",
            diff.mismatches.len(),
            diff.mismatches[0]
        );
        assert!(diff.regions >= 40, "{order:?}: only {diff:?}");
        assert_eq!(diff.runs, diff.regions * INTS.len() * INTS.len());
        assert!(diff.boxed > 0, "{order:?}: no boxed integer reached");
        assert!(diff.overflow > 0, "{order:?}: Overflow not reached");
        assert!(
            diff.divide_by_zero > 0,
            "{order:?}: DivideByZero not reached"
        );
    }
}

#[test]
fn a_mismatched_region_program_is_refused() {
    // An image of our own to corrupt: the session's is shared.
    let s = kernel_session();
    let binds = &s.program().binds;
    let facts = tier2_facts_for(s.analyze(), binds);
    let mut code = tier2_optimize(&compile_program(binds), &facts);
    code.check_region_programs()
        .expect("derived programs match their regions");
    assert!(
        code.sabotage_region_program(),
        "some program has an int leaf"
    );
    let err = code
        .check_region_programs()
        .expect_err("a corrupted program is refused");
    assert!(err.message.contains("region program"), "{err}");
    let code = Arc::new(code);
    let linked = catch_unwind(AssertUnwindSafe(|| {
        let mut m = Machine::new(MachineConfig {
            verify_code: true,
            ..MachineConfig::default()
        });
        m.link_code(Arc::clone(&code));
    }));
    assert!(linked.is_err(), "link_code accepted a corrupted program");
}
