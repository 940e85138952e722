//! Exact machine counters, pinned per tier.
//!
//! Every deterministic `Stats` field (all but the wall-clock
//! `compile_micros`) for each input on the tier-1 image and the tier-2
//! image. The inputs cover the bench kernels, deep
//! raise and propagate, a catch-episode loop, one `mapException`
//! interception, and two runs under a fixed fault plan that forces a
//! minor and a major collection and then injects an interrupt.
//!
//! A refactor of the run loop must leave every row unchanged; a
//! deliberate change to step accounting must update the row it moves and
//! say why. On a mismatch the test prints the whole observed table, so an
//! intended update is a copy and paste.

use urk_bench::{
    compile, deep_propagate, deep_raise, lower, lower_t2, pipeline_workload, run_flat, workloads,
    Compiled, Workload,
};
use urk_machine::{FaultPlan, Kind, MachineConfig, Stats};
use urk_syntax::Exception;

/// The catch-episode kernel of the compute benchmark: one
/// `unsafeGetException` episode per iteration, a third of them catching
/// `DivideByZero`.
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

/// One synchronous raise intercepted by a `mapException` frame.
const MAPEXN: &str = "mapped n = mapException (\\e -> Overflow) (100 / n)";

/// A thunk whose update frame stays on the stack for the whole inner
/// loop, so an asynchronous trim has something to restore (§5.1).
const BURIED: &str = "g n = if n == 0 then 0 else n + g (n - 1)\ns = g 250";

/// A fixed fault plan: a forced minor collection, a forced major
/// collection, then an injected interrupt, each landing inside both
/// fault-plan inputs at both tiers.
fn fault_plan(minor_at: u64, major_at: u64, inject_at: u64) -> FaultPlan {
    FaultPlan {
        seed: 0,
        horizon: 100_000,
        injections: vec![(inject_at, Exception::Interrupt)],
        force_minor_at: vec![minor_at],
        force_gc_at: vec![major_at],
        ..FaultPlan::default()
    }
}

/// Every deterministic field as `name=value`, in declaration order: the
/// schema's field iterator without the wall-clock kind, so a new `Stats`
/// field joins the row by itself.
fn row(s: &Stats) -> String {
    s.fields()
        .filter(|(_, kind, _)| *kind != Kind::WallClock)
        .map(|(name, _, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs `c` at both tiers under `config`; checks each rendering against
/// `expected` and returns `(tier, counters)` rows.
fn two_ways(c: &Compiled, expected: &str, config: &MachineConfig) -> Vec<(&'static str, String)> {
    let (t1_out, t1) = run_flat(c, &lower(c), config.clone());
    let (t2_out, t2) = run_flat(c, &lower_t2(c), config.clone());
    for (engine, out) in [("tier1", &t1_out), ("tier2", &t2_out)] {
        assert_eq!(out, expected, "{engine}");
    }
    vec![("tier1", row(&t1)), ("tier2", row(&t2))]
}

fn observed() -> Vec<(String, &'static str, String)> {
    let defaults = MachineConfig::default();
    let mut inputs: Vec<(String, Compiled, String, MachineConfig)> = workloads()
        .into_iter()
        .chain([pipeline_workload()])
        .map(|w| {
            let c = compile(&w);
            (
                w.name.to_string(),
                c,
                w.expected.to_string(),
                defaults.clone(),
            )
        })
        .collect();
    inputs.push((
        "deep-raise".into(),
        deep_raise(1_000),
        "(raise Overflow)".into(),
        defaults.clone(),
    ));
    inputs.push((
        "deep-propagate".into(),
        deep_propagate(1_000),
        "Bad Overflow".into(),
        defaults.clone(),
    ));
    let fixed = |name: &'static str, program: &'static str, query: &str| Workload {
        name,
        program,
        query: query.into(),
        expected: "",
        first_order: true,
    };
    inputs.push((
        "catchloop".into(),
        compile(&fixed("catchloop", CATCHLOOP, "catchloop 300 0")),
        "115000".into(),
        defaults.clone(),
    ));
    inputs.push((
        "mapexception".into(),
        compile(&fixed("mapexception", MAPEXN, "mapped 0")),
        "(raise Overflow)".into(),
        defaults.clone(),
    ));
    inputs.push((
        "fib-faultplan".into(),
        compile(&workloads()[0]),
        "(raise Interrupt)".into(),
        MachineConfig {
            chaos: Some(fault_plan(700, 1_500, 4_000)),
            ..defaults.clone()
        },
    ));
    inputs.push((
        "buried-faultplan".into(),
        compile(&fixed("buried", BURIED, "s + 1")),
        "(raise Interrupt)".into(),
        MachineConfig {
            chaos: Some(fault_plan(100, 200, 400)),
            ..defaults
        },
    ));
    let mut rows = Vec::new();
    for (name, c, expected, config) in &inputs {
        for (engine, counters) in two_ways(c, expected, config) {
            rows.push((name.clone(), engine, counters));
        }
    }
    rows
}

/// The pinned table: `(input, tier, counters)`.
const EXPECTED: &[(&str, &str, &str)] = &[
    ("fib", "tier1", "steps=9579 allocations=3194 freelist_reuses=0 unboxed_hits=14367 thunk_updates=3193 max_stack_depth=16 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("fib", "tier2", "steps=6387 allocations=2 freelist_reuses=0 unboxed_hits=14367 thunk_updates=1 max_stack_depth=15 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=6385 ic_hits=3190 ic_misses=2"),
    ("sumto", "tier1", "steps=20003 allocations=12003 freelist_reuses=0 unboxed_hits=20004 thunk_updates=8001 max_stack_depth=7997 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=1 minor_gcs=1 major_gcs=0 gc_freed=5460 nodes_promoted=2732 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=5 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("sumto", "tier2", "steps=12004 allocations=4003 freelist_reuses=0 unboxed_hits=20004 thunk_updates=1 max_stack_depth=1 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=5 backend=compiled tier=2 fused_steps=12001 ic_hits=3999 ic_misses=1"),
    ("primes", "tier1", "steps=109299 allocations=33407 freelist_reuses=0 unboxed_hits=101605 thunk_updates=15703 max_stack_depth=2303 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=4 minor_gcs=4 major_gcs=0 gc_freed=30762 nodes_promoted=2006 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=7 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("primes", "tier2", "steps=68801 allocations=19706 freelist_reuses=0 unboxed_hits=101605 thunk_updates=2002 max_stack_depth=2303 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=2 minor_gcs=2 major_gcs=0 gc_freed=14382 nodes_promoted=2002 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=7 backend=compiled tier=2 fused_steps=42801 ic_hits=17693 ic_misses=6"),
    ("sortlist", "tier1", "steps=19658 allocations=11793 freelist_reuses=0 unboxed_hits=4777 thunk_updates=4172 max_stack_depth=245 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=1 minor_gcs=1 major_gcs=0 gc_freed=7999 nodes_promoted=193 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("sortlist", "tier2", "steps=19299 allocations=11439 freelist_reuses=0 unboxed_hits=4777 thunk_updates=3818 max_stack_depth=244 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=1 minor_gcs=1 major_gcs=0 gc_freed=8004 nodes_promoted=188 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=4160 ic_hits=4045 ic_misses=9"),
    ("pipeline", "tier1", "steps=5413 allocations=2813 freelist_reuses=0 unboxed_hits=4207 thunk_updates=1808 max_stack_depth=207 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("pipeline", "tier2", "steps=4213 allocations=2013 freelist_reuses=0 unboxed_hits=4207 thunk_updates=1008 max_stack_depth=206 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=1601 ic_hits=1395 ic_misses=9"),
    ("deep-raise", "tier1", "steps=3005 allocations=1002 freelist_reuses=0 unboxed_hits=6004 thunk_updates=1001 max_stack_depth=1001 frames_trimmed=1000 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("deep-raise", "tier2", "steps=2005 allocations=2 freelist_reuses=0 unboxed_hits=6004 thunk_updates=1 max_stack_depth=1001 frames_trimmed=1000 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=2001 ic_hits=999 ic_misses=1"),
    ("deep-propagate", "tier1", "steps=4004 allocations=2003 freelist_reuses=0 unboxed_hits=4004 thunk_updates=1001 max_stack_depth=1001 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=1 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("deep-propagate", "tier2", "steps=3004 allocations=1003 freelist_reuses=0 unboxed_hits=4004 thunk_updates=1 max_stack_depth=1000 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=1 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=2001 ic_hits=999 ic_misses=1"),
    ("catchloop", "tier1", "steps=2804 allocations=1205 freelist_reuses=0 unboxed_hits=3104 thunk_updates=602 max_stack_depth=602 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=5 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("catchloop", "tier2", "steps=2504 allocations=905 freelist_reuses=0 unboxed_hits=2804 thunk_updates=302 max_stack_depth=602 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=5 backend=compiled tier=2 fused_steps=901 ic_hits=597 ic_misses=3"),
    ("mapexception", "tier1", "steps=7 allocations=3 freelist_reuses=0 unboxed_hits=4 thunk_updates=1 max_stack_depth=2 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("mapexception", "tier2", "steps=7 allocations=3 freelist_reuses=0 unboxed_hits=4 thunk_updates=1 max_stack_depth=2 frames_trimmed=0 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=0 minor_gcs=0 major_gcs=0 gc_freed=0 nodes_promoted=0 async_injected=0 forced_gcs=0 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=1 ic_hits=0 ic_misses=0"),
    ("fib-faultplan", "tier1", "steps=4000 allocations=1335 freelist_reuses=0 unboxed_hits=5990 thunk_updates=1333 max_stack_depth=16 frames_trimmed=10 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=3 minor_gcs=2 major_gcs=1 gc_freed=499 nodes_promoted=2 async_injected=1 forced_gcs=2 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("fib-faultplan", "tier2", "steps=4000 allocations=2 freelist_reuses=0 unboxed_hits=8990 thunk_updates=1 max_stack_depth=15 frames_trimmed=11 thunks_poisoned=0 thunks_restored=0 blackholes_detected=0 gc_runs=3 minor_gcs=2 major_gcs=1 gc_freed=0 nodes_promoted=1 async_injected=1 forced_gcs=2 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=3998 ic_hits=1997 ic_misses=2"),
    ("buried-faultplan", "tier1", "steps=400 allocations=135 freelist_reuses=0 unboxed_hits=531 thunk_updates=133 max_stack_depth=135 frames_trimmed=134 thunks_poisoned=0 thunks_restored=1 blackholes_detected=0 gc_runs=3 minor_gcs=2 major_gcs=1 gc_freed=65 nodes_promoted=2 async_injected=1 forced_gcs=2 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=1 fused_steps=0 ic_hits=0 ic_misses=0"),
    ("buried-faultplan", "tier2", "steps=400 allocations=3 freelist_reuses=0 unboxed_hits=795 thunk_updates=1 max_stack_depth=200 frames_trimmed=200 thunks_poisoned=0 thunks_restored=1 blackholes_detected=0 gc_runs=3 minor_gcs=2 major_gcs=1 gc_freed=0 nodes_promoted=1 async_injected=1 forced_gcs=2 cache_hits=0 cache_misses=0 compile_ops=3 backend=compiled tier=2 fused_steps=397 ic_hits=197 ic_misses=2"),
];

#[test]
fn every_deterministic_counter_matches_the_pinned_table() {
    let rows = observed();
    let table: String = rows
        .iter()
        .map(|(name, engine, counters)| {
            format!("    (\"{name}\", \"{engine}\", \"{counters}\"),\n")
        })
        .collect();
    assert_eq!(
        rows.len(),
        EXPECTED.len(),
        "row count changed; observed table:\n{table}"
    );
    for ((name, engine, counters), (want_name, want_engine, want)) in rows.iter().zip(EXPECTED) {
        assert_eq!(
            (name.as_str(), *engine),
            (*want_name, *want_engine),
            "row order changed; observed table:\n{table}"
        );
        assert_eq!(
            counters, want,
            "{name} on {engine}; observed table:\n{table}"
        );
    }
}
