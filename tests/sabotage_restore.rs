//! The §5.1 restore audit fires on every executor.
//!
//! `FaultPlan::sabotage_async_restore` makes an asynchronous trim skip the
//! restore of the black holes it passes. The heap audit must then report
//! stranded black holes, and the same plan with the switch off must pass
//! every invariant. Both tiers run one kernel and its one raise trim, so
//! this checks that the trim carries the hook for the tier-1 image and the
//! tier-2 image alike.

use std::sync::Arc;

use urk_bench::{compile, lower, lower_t2, Compiled, Workload};
use urk_io::{chaos_run_with_plan, ChaosReport};
use urk_machine::{Code, FaultPlan, MachineConfig};
use urk_syntax::Exception;

/// The outer addition forces the global thunk `s`, keeping its update
/// frame on the stack for the whole inner loop; the injected interrupt
/// trims past it.
const BURIED: &str = "g n = if n == 0 then 0 else n + g (n - 1)\ns = g 300";

fn program() -> Compiled {
    compile(&Workload {
        name: "buried",
        program: BURIED,
        query: "s + 1".into(),
        expected: "45151",
        first_order: true,
    })
}

fn plan(sabotage: bool) -> FaultPlan {
    FaultPlan {
        horizon: 50_000,
        injections: vec![(200, Exception::Interrupt)],
        sabotage_async_restore: sabotage,
        ..FaultPlan::default()
    }
}

/// One report per image: tier 1, tier 2.
fn reports(sabotage: bool) -> Vec<(&'static str, ChaosReport)> {
    let c = program();
    let base = MachineConfig::default();
    let binds = &c.program.binds;
    let flat = |code: Arc<Code>| {
        chaos_run_with_plan(binds, &code, &c.query, &base, 400_000, plan(sabotage))
    };
    vec![("tier1", flat(lower(&c))), ("tier2", flat(lower_t2(&c)))]
}

#[test]
fn the_restore_sabotage_switch_fires_on_every_executor() {
    for (engine, r) in reports(true) {
        assert!(
            r.faults_fired >= 1,
            "{engine}: the interrupt never fired: {r:?}"
        );
        assert!(
            !r.heap_consistent,
            "{engine}: a sabotaged restore must strand a black hole the audit sees: {r:?}"
        );
    }
    for (engine, r) in reports(false) {
        assert!(
            r.faults_fired >= 1,
            "{engine}: the interrupt never fired: {r:?}"
        );
        assert!(
            r.passed(),
            "{engine}: the honest control run must pass: {r:?}"
        );
    }
}
