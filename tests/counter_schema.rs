//! The counter schema, end to end.
//!
//! `urk_machine::stats_schema!` declares every `Stats` field once; the
//! wire's `WireStats` and its JSON codec are derived from it, and the
//! serving tier's totals travel as a `WireStats` too. This test walks the
//! schema's counter table instead of naming counters, so a new counter is
//! covered the moment it is declared: counter *i* is set to *i* + 1, and
//! every value must come back from a `result` frame and from the totals
//! of a `stats` frame, under a wire key equal to its `Stats` field name.
//!
//! It also keeps the old drift guard: the tagged-immediate counter
//! `unboxed_hits` superseded the intern table's `interned_hits`, and no
//! `interned` key may reappear in `Stats` or on the wire — plus the live
//! check that evaluations really take the unboxed path at both tiers.

use urk::{Session, Stats, Tier};
use urk_io::{parse_json, Json, Response, WireStats};
use urk_machine::Kind;

/// Every counter distinct: counter `i` (schema order) holds `i + 1`.
fn distinct_counters() -> Stats {
    let mut stats = Stats {
        tier: Tier::Two,
        ..Stats::default()
    };
    for (i, c) in Stats::counters().enumerate() {
        (c.set)(&mut stats, i as u64 + 1);
    }
    stats
}

#[test]
fn every_counter_round_trips_by_name_through_results_and_totals() {
    let stats = distinct_counters();
    assert_eq!(Stats::counters().count(), 25);
    for text in [format!("{stats:?}"), stats.to_string()] {
        assert!(!text.contains("interned"), "{text}");
    }

    let wire = WireStats::from(&stats);
    let result = Response::Result {
        id: 4,
        index: 0,
        rendered: "4".into(),
        exception: None,
        cache_hit: false,
        attempts: 1,
        timed_out: false,
        stats: wire.clone(),
    };
    let snapshot = Response::Stats {
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
        totals: wire,
    };

    let names: Vec<&str> = stats.fields().map(|(name, _, _)| name).collect();
    for (frame, key) in [(result, "stats"), (snapshot, "totals")] {
        let payload = frame.encode();
        assert_eq!(Response::decode(&payload).expect("decodes"), frame);
        let text = String::from_utf8(payload).expect("wire frames are UTF-8 JSON");
        assert!(
            !text.contains("interned"),
            "stale wire key would break schema consumers: {text}"
        );

        let json = parse_json(&text).expect("parses");
        let Some(Json::Obj(pairs)) = json.get(key) else {
            panic!("'{key}' is not an object: {text}");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names, "{key}: wire keys are the Stats field names");
        for (i, c) in Stats::counters().enumerate() {
            let got = json
                .get(key)
                .and_then(|o| o.get(c.name))
                .and_then(Json::as_u64);
            assert_eq!(got, Some(i as u64 + 1), "{key}.{}", c.name);
        }
        for (name, _, value) in stats.fields().filter(|(_, kind, _)| *kind == Kind::Tag) {
            let got = json
                .get(key)
                .and_then(|o| o.get(name))
                .and_then(Json::as_str);
            assert_eq!(got, Some(value.as_str()), "{key}.{name}");
        }
    }
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
