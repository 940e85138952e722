//! Saturated entry across tiers: a step that enters a function body also
//! takes the arguments of the `Apply` frames waiting for the body's
//! further lambdas. Applications with fewer arguments than lambdas, with
//! more, and through a local multi-argument lambda must agree between
//! tier 1 and tier 2 under both deterministic orders, and every outcome
//! must be one the denotation admits.

#[allow(dead_code)]
mod common;

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
            common::assert_two_way(&tier1, &tier2, src);
        }
    }
}
