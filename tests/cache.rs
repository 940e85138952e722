//! The content-addressed result cache: byte-identical replay, key
//! sensitivity to every semantics-relevant configuration field, key
//! *insensitivity* to spelling, and the capacity bound under stress.

use urk::{
    cache_key, Backend, CacheKey, CachedEval, DenotConfig, EvalPool, MachineConfig, Options,
    OrderPolicy, PoolConfig, ResultCache, Session, Stats, Tier,
};

#[test]
fn a_cache_hit_renders_byte_identically_to_a_fresh_eval() {
    let pool = EvalPool::start(
        &[],
        Options::default(),
        PoolConfig {
            workers: 2,
            cache_cap: 128,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");

    let exprs = [
        "take 5 (iterate (\\x -> x * 2) 1)",
        r#"(1/0) + error "Urk""#,
        "zipWith (/) [1, 2] [1, 0]",
    ];
    // First round populates; the second is guaranteed to hit (inserts
    // complete before eval_batch returns).
    let cold = pool.eval_batch(&exprs);
    let warm = pool.eval_batch(&exprs);

    let fresh = Session::new();
    for ((src, cold), warm) in exprs.iter().zip(&cold).zip(&warm) {
        let cold = cold.as_ref().expect("evals");
        let warm = warm.as_ref().expect("evals");
        assert!(warm.cache_hit, "{src}: second round must hit");
        assert_eq!(warm.rendered, cold.rendered, "{src}");
        assert_eq!(warm.exception, cold.exception, "{src}");
        let direct = fresh.eval(src).expect("evals");
        assert_eq!(
            warm.rendered, direct.rendered,
            "{src}: replay must be byte-identical"
        );
        assert_eq!(warm.exception, direct.exception, "{src}");
    }
}

#[test]
fn every_semantics_relevant_config_field_changes_the_key() {
    let session = Session::new();
    let expr = session.compile_expr("1 + 2").expect("compiles");
    let m = MachineConfig::default();
    let d = DenotConfig::default();
    let base = cache_key(&expr, &m, &d, 32, Backend::Compiled, Tier::One);

    type Mutation = (
        &'static str,
        Box<dyn Fn(&mut MachineConfig, &mut DenotConfig, &mut u32, &mut Tier)>,
    );
    let mutations: Vec<Mutation> = vec![
        (
            "order=r",
            Box::new(|m, _, _, _| m.order = OrderPolicy::RightToLeft),
        ),
        (
            "order=s7",
            Box::new(|m, _, _, _| m.order = OrderPolicy::Seeded(7)),
        ),
        (
            "order=s8",
            Box::new(|m, _, _, _| m.order = OrderPolicy::Seeded(8)),
        ),
        (
            "blackholes",
            Box::new(|m, _, _, _| m.blackholes = urk::BlackholeMode::Loop),
        ),
        ("max_steps", Box::new(|m, _, _, _| m.max_steps += 1)),
        ("max_stack", Box::new(|m, _, _, _| m.max_stack += 1)),
        ("max_heap", Box::new(|m, _, _, _| m.max_heap += 1)),
        (
            "timeout_on_step_limit",
            Box::new(|m, _, _, _| m.timeout_on_step_limit = true),
        ),
        ("gc", Box::new(|m, _, _, _| m.gc = false)),
        ("gc_threshold", Box::new(|m, _, _, _| m.gc_threshold += 1)),
        (
            "event_schedule",
            Box::new(|m, _, _, _| m.event_schedule.push((10, urk::Exception::Interrupt))),
        ),
        ("fuel", Box::new(|_, d, _, _| d.fuel += 1)),
        ("max_depth", Box::new(|_, d, _, _| d.max_depth += 1)),
        (
            "pessimistic",
            Box::new(|_, d, _, _| d.pessimistic_is_exception = true),
        ),
        ("render_depth", Box::new(|_, _, r, _| *r = 16)),
        ("tier", Box::new(|_, _, _, t| *t = Tier::Two)),
    ];

    let mut seen = vec![base.clone()];
    for (name, mutate) in &mutations {
        let mut m2 = m.clone();
        let mut d2 = d.clone();
        let mut rd = 32u32;
        let mut tier = Tier::One;
        mutate(&mut m2, &mut d2, &mut rd, &mut tier);
        let key = cache_key(&expr, &m2, &d2, rd, Backend::Compiled, tier);
        assert_ne!(key, base, "changing {name} must change the cache key");
        assert!(
            !seen.contains(&key),
            "{name} must not collide with another mutation's key"
        );
        seen.push(key);
    }

    // Run-only plumbing is deliberately *not* part of the key.
    let mut m3 = m.clone();
    m3.interrupt = Some(urk::InterruptHandle::new());
    assert_eq!(
        cache_key(&expr, &m3, &d, 32, Backend::Compiled, Tier::One),
        base
    );
}

#[test]
fn keys_are_invariant_under_spelling_and_recompilation() {
    let session = Session::new();
    let m = MachineConfig::default();
    let d = DenotConfig::default();
    let key = |src: &str| {
        cache_key(
            &session.compile_expr(src).expect("compiles"),
            &m,
            &d,
            32,
            Backend::Compiled,
            Tier::One,
        )
    };

    // Alpha-renaming and whitespace don't change the program.
    assert_eq!(key("\\x -> x + 1"), key("\\y -> y + 1"));
    assert_eq!(key("1    +     2"), key("1 + 2"));
    // Recompiling the identical source mints fresh internal symbols;
    // the canonical form must not see them.
    assert_eq!(
        key("map (\\x -> x * x) [1, 2]"),
        key("map (\\x -> x * x) [1, 2]")
    );
    // ... but genuinely different programs differ.
    assert_ne!(key("1 + 2"), key("2 + 1"));
    assert_ne!(key("\\a -> \\b -> a"), key("\\a -> \\b -> b"));
}

#[test]
fn capacity_is_respected_under_ten_thousand_inserts() {
    let cache = ResultCache::new(256);
    for n in 0..10_000u64 {
        let key = CacheKey {
            fingerprint: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            expr: n.to_le_bytes().to_vec(),
            config: Vec::new(),
        };
        cache.insert(
            key,
            CachedEval {
                rendered: n.to_string(),
                exception: None,
                stats: Stats::default(),
            },
        );
        assert!(
            cache.entries() <= 256,
            "population exceeded capacity at insert {n}"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.insertions, 10_000);
    assert!(stats.entries <= 256);
    assert!(
        stats.evictions >= 10_000 - 256,
        "almost everything must have been evicted: {stats:?}"
    );
}

#[test]
fn non_divisible_capacities_hold_their_full_population_under_stress() {
    // `ResultCache::new` used to compute one per-shard cap by integer
    // division, silently discarding `capacity % nshards` slots — a
    // `--cache-cap 31` cache (16 shards) could never hold more than 16
    // entries. The remainder is now spread over the leading shards, so
    // the full configured population must be reachable — and still
    // never exceeded — for capacities that don't divide evenly.
    for capacity in [17, 31, 100, 257] {
        let cache = ResultCache::new(capacity);
        let nshards = cache.shard_count() as u64;
        // Keys striped round-robin across shards (the fingerprint *is*
        // the shard selector modulo nshards), so every shard sees its
        // share and the remainder slots actually fill.
        for n in 0..4_000u64 {
            let key = CacheKey {
                fingerprint: n % nshards + (n / nshards) * nshards,
                expr: n.to_le_bytes().to_vec(),
                config: Vec::new(),
            };
            cache.insert(
                key,
                CachedEval {
                    rendered: n.to_string(),
                    exception: None,
                    stats: Stats::default(),
                },
            );
            assert!(
                cache.entries() <= capacity,
                "capacity {capacity}: population exceeded the bound at insert {n}"
            );
        }
        assert_eq!(
            cache.entries(),
            capacity,
            "capacity {capacity}: the full configured population must be reachable"
        );
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4_000);
        assert_eq!(stats.evictions, 4_000 - capacity as u64);
    }
}

#[test]
fn pooled_eviction_respects_the_bound_end_to_end() {
    let pool = EvalPool::start(
        &[],
        Options::default(),
        PoolConfig {
            workers: 2,
            cache_cap: 8,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let exprs: Vec<String> = (0..40).map(|i| format!("{i} + 0")).collect();
    let results = pool.eval_batch(&exprs);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.as_ref().expect("evals").rendered, i.to_string());
    }
    let stats = pool.cache_stats();
    assert!(stats.entries <= 8, "{stats:?}");
    assert_eq!(stats.capacity, 8);
    assert!(stats.evictions > 0, "{stats:?}");
}

#[test]
fn render_depth_is_an_option_not_a_constant() {
    // The old Session::eval hardcoded depth 32; it now honours
    // Options::render_depth for both plain and supervised evaluation.
    let mut session = Session::new();
    session.options.render_depth = 2;
    assert_eq!(
        session.eval("[1, 2, 3]").expect("evals").rendered,
        "Cons 1 (Cons 2 (Cons ...))"
    );
    assert_eq!(
        session
            .eval_supervised("[1, 2, 3]", &urk::Supervisor::new())
            .expect("evals")
            .result
            .rendered,
        "Cons 1 (Cons 2 (Cons ...))"
    );
    session.options.render_depth = 32;
    assert_eq!(
        session.eval("[1, 2, 3]").expect("evals").rendered,
        "Cons 1 (Cons 2 (Cons 3 Nil))"
    );
}
