//! Saturated entry across tiers: a step that enters a function body also
//! takes the arguments of the `Apply` frames waiting for the body's
//! further lambdas. Applications with fewer arguments than lambdas, with
//! more, and through a local multi-argument lambda must agree between
//! tier 1 and tier 2 under both deterministic orders, and every raised
//! exception must lie in the denoted set.

use urk::{Session, Tier};
use urk_machine::OrderPolicy;

const PROGRAM: &str = "add a b = a + b\n\
                       adder n m = add (n + m)\n\
                       choose b = if b then (\\x y -> x + y) else (\\x y -> x - y)";

const QUERIES: &[&str] = &[
    // Under-saturated: a partial application passed on as a value.
    "map (add 1) [1, 2, 3]",
    "sum (map (add 1) [1, 2, 3])",
    "map (add 1) [1, 1 / 0]",
    "sum (map (add (1 / 0)) [1, 2])",
    // Over-saturated: a two-lambda global whose result is applied again,
    // and a one-lambda global returning a two-lambda function.
    "adder 1 2 3",
    "adder 1 (1 / 0) 3",
    "adder 1 2 (raise Overflow)",
    "choose True 1 2 + choose False 10 3",
    "choose (raise Overflow) 1 2",
    // A local multi-argument lambda.
    "let f = \\x y -> x * 10 + y in f 1 2 + f 3 4",
    "let f = \\x y -> x * 10 + y in f 1 2 + f 3 (4 / 0)",
    "let f = \\x y z -> x + y * z in f (raise Overflow) 2 (1 / 0)",
];

fn session(tier: Tier, order: OrderPolicy) -> Session {
    let mut s = Session::new();
    s.options.tier = tier;
    s.options.machine.order = order;
    s.load(PROGRAM).expect("loads");
    s
}

#[test]
fn partial_over_and_local_applications_agree_across_tiers() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let (tier1, tier2) = (session(Tier::One, order), session(Tier::Two, order));
        for src in QUERIES {
            let a = tier1
                .eval(src)
                .unwrap_or_else(|e| panic!("{src}: tier 1: {e}"));
            let b = tier2
                .eval(src)
                .unwrap_or_else(|e| panic!("{src}: tier 2: {e}"));
            assert_eq!(a.rendered, b.rendered, "{order:?} {src}");
            assert_eq!(a.exception, b.exception, "{order:?} {src}");
            if let Some(exn) = &b.exception {
                let set = tier2
                    .exception_set(src)
                    .expect("denotes")
                    .unwrap_or_else(|| panic!("{src}: raised {exn} but the denotation is Ok"));
                assert!(set.contains(exn), "{src}: {exn} outside the denoted {set}");
            }
        }
    }
}
