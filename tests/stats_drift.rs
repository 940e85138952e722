//! Stats-drift guards for the generational heap's counter rename.
//!
//! The tagged-immediate representation superseded the PR 1 intern table,
//! and `Stats::interned_hits` became `Stats::unboxed_hits`. Renaming a
//! counter is an API *and* wire-format change: these tests pin that the
//! rename happened coherently everywhere an external consumer can see it
//! — the machine's `Stats`, the `urk serve` wire schema that
//! `examples/serve_load.rs` decodes with [`urk_io::Response::decode`],
//! and the live counters an evaluation actually produces.

use urk::{Session, Stats, Tier};
use urk_io::{Response, WireStats, WireTotals};

#[test]
fn stats_spells_the_unboxed_counter_and_not_the_old_name() {
    // Field existence is compile-checked by naming it; the Debug form is
    // the drift guard for anything that scrapes stats output.
    let stats = Stats {
        unboxed_hits: 7,
        ..Stats::default()
    };
    let debug = format!("{stats:?}");
    assert!(debug.contains("unboxed_hits"), "{debug}");
    assert!(
        !debug.contains("interned"),
        "the superseded intern-table counter leaked back into Stats: {debug}"
    );
}

#[test]
fn wire_results_carry_unboxed_hits_and_round_trip() {
    // The exact frame `urk serve` streams and `serve_load.rs` decodes.
    let resp = Response::Result {
        id: 4,
        index: 0,
        rendered: "4".into(),
        exception: None,
        cache_hit: false,
        attempts: 1,
        timed_out: false,
        stats: WireStats {
            steps: 42,
            allocations: 17,
            unboxed_hits: 9,
            fused_steps: 3,
            ic_hits: 2,
            ic_misses: 1,
            compile_ops: 0,
            compile_micros: 0,
            cache_hits: 0,
            cache_misses: 1,
            backend: "compiled".into(),
            tier: "1".into(),
        },
    };
    let payload = resp.encode();
    let text = String::from_utf8(payload.clone()).expect("wire frames are UTF-8 JSON");
    assert!(text.contains("\"unboxed_hits\""), "{text}");
    assert!(
        !text.contains("interned_hits"),
        "stale wire key would break schema consumers: {text}"
    );
    assert_eq!(Response::decode(&payload).expect("decodes"), resp);
}

#[test]
fn wire_totals_carry_unboxed_hits_and_round_trip() {
    let resp = Response::Stats {
        id: 2,
        workers: 1,
        queue_depth: 0,
        queue_cap: 8,
        connections: 1,
        requests: 3,
        jobs_submitted: 3,
        jobs_shed: 0,
        protocol_errors: 0,
        backend: "compiled".into(),
        cache: Default::default(),
        totals: WireTotals {
            jobs: 3,
            steps: 123,
            unboxed_hits: 45,
            fused_steps: 12,
            ic_hits: 4,
            ic_misses: 2,
            compile_micros: 6,
            cache_hits: 1,
            cache_misses: 2,
        },
    };
    let payload = resp.encode();
    let text = String::from_utf8(payload.clone()).expect("wire frames are UTF-8 JSON");
    assert!(text.contains("\"unboxed_hits\""), "{text}");
    assert!(!text.contains("interned_hits"), "{text}");
    assert_eq!(Response::decode(&payload).expect("decodes"), resp);
}

#[test]
fn evaluations_actually_hit_the_unboxed_path_on_both_backends() {
    for tier in [Tier::One, Tier::Two] {
        let mut s = Session::new();
        s.options.tier = tier;
        let r = s.eval("(1 + 2) * 4").expect("evaluates");
        assert_eq!(r.rendered, "12");
        assert!(
            r.stats.unboxed_hits >= 1,
            "{tier:?}: small-integer arithmetic must hit the tagged \
             immediate path: {:?}",
            r.stats
        );
    }
}
