//! Release-mode smoke for CI: the interrupt-poll hook adds no per-step
//! allocation and changes no behaviour when nothing fires.
//!
//! Unlike the wall-clock benches this is exact — machine counters are
//! deterministic, so "no overhead" is an equality over `Stats`, not a
//! noise-bounded timing comparison.

use urk_bench::{compile, workloads, Compiled};
use urk_machine::{FaultPlan, InterruptHandle, MachineConfig, Stats};

/// `urk_bench::run` with the one wall-clock counter, `compile_micros`,
/// zeroed: every other field is deterministic.
fn run(c: &Compiled, config: MachineConfig) -> (String, Stats) {
    let (rendered, stats) = urk_bench::run(c, config);
    (
        rendered,
        Stats {
            compile_micros: 0,
            ..stats
        },
    )
}

#[test]
fn unarmed_interrupt_handle_changes_no_counter() {
    for w in workloads() {
        let c = compile(&w);
        let (base_render, base) = run(&c, MachineConfig::default());
        let (ext_render, ext) = run(
            &c,
            MachineConfig {
                interrupt: Some(InterruptHandle::new()),
                ..MachineConfig::default()
            },
        );
        assert_eq!(base_render, w.expected, "workload {}", w.name);
        assert_eq!(ext_render, w.expected, "workload {}", w.name);
        // Every deterministic counter: identical steps, allocations, GC
        // work — the poll is one relaxed load, not an allocation.
        assert_eq!(base, ext, "workload {}: polling must be free", w.name);
    }
}

#[test]
fn idle_chaos_plan_changes_no_counter() {
    // An armed but empty plan exercises the per-step chaos bookkeeping
    // with nothing to deliver; it must not allocate or change behaviour.
    for w in workloads() {
        let c = compile(&w);
        let (base_render, base) = run(&c, MachineConfig::default());
        let (chaos_render, chaos) = run(
            &c,
            MachineConfig {
                chaos: Some(FaultPlan {
                    horizon: u64::MAX,
                    ..FaultPlan::default()
                }),
                ..MachineConfig::default()
            },
        );
        assert_eq!(base_render, w.expected, "workload {}", w.name);
        assert_eq!(chaos_render, w.expected, "workload {}", w.name);
        assert_eq!(
            base, chaos,
            "workload {}: an empty fault plan must be free",
            w.name
        );
    }
}
