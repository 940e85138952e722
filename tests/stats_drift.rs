//! Stats-drift guards for the tagged-immediate counter rename.
//!
//! The tagged-immediate representation superseded the intern table, and
//! `Stats::interned_hits` became `Stats::unboxed_hits`. Renaming a
//! counter is an API *and* wire-format change: these tests pin that the
//! rename is coherent everywhere an external consumer can see it — the
//! machine's `Stats` and the `urk serve` wire schema that
//! `examples/serve_load.rs` decodes with [`urk_io::Response::decode`].
//! `tests/counter_schema.rs` walks every counter of the schema; these
//! name the renamed one directly.

use urk::{Stats, Tier};
use urk_io::{Response, WireStats};

#[test]
fn stats_spells_the_unboxed_counter_and_not_the_old_name() {
    // Field existence is compile-checked by naming it; the Debug and
    // `name=value` forms are the drift guard for anything that scrapes
    // stats output.
    let stats = Stats {
        unboxed_hits: 7,
        ..Stats::default()
    };
    for text in [format!("{stats:?}"), stats.to_string()] {
        assert!(text.contains("unboxed_hits"), "{text}");
        assert!(
            !text.contains("interned"),
            "the superseded intern-table counter leaked back into Stats: {text}"
        );
    }
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
            cache_misses: 1,
            backend: "compiled".into(),
            tier: "1".into(),
            ..WireStats::default()
        },
    };
    let payload = resp.encode();
    let text = String::from_utf8(payload.clone()).expect("wire frames are UTF-8 JSON");
    assert!(text.contains("\"unboxed_hits\":9"), "{text}");
    assert!(
        !text.contains("interned_hits"),
        "stale wire key would break schema consumers: {text}"
    );
    assert_eq!(Response::decode(&payload).expect("decodes"), resp);
}

#[test]
fn wire_totals_carry_unboxed_hits_and_round_trip() {
    let totals = Stats {
        steps: 123,
        unboxed_hits: 45,
        fused_steps: 12,
        ic_hits: 4,
        ic_misses: 2,
        compile_micros: 6,
        cache_hits: 1,
        cache_misses: 2,
        tier: Tier::One,
        ..Stats::default()
    };
    let resp = Response::Stats {
        id: 2,
        workers: 1,
        queue_depth: 0,
        queue_cap: 8,
        connections: 1,
        requests: 3,
        jobs_submitted: 3,
        jobs_shed: 0,
        jobs: 3,
        protocol_errors: 0,
        backend: "compiled".into(),
        cache: Default::default(),
        totals: WireStats::from(&totals),
    };
    let payload = resp.encode();
    let text = String::from_utf8(payload.clone()).expect("wire frames are UTF-8 JSON");
    assert!(text.contains("\"unboxed_hits\":45"), "{text}");
    assert!(!text.contains("interned_hits"), "{text}");
    assert_eq!(Response::decode(&payload).expect("decodes"), resp);
}
