//! A shared, sharded, content-addressed result cache for pure outcomes.
//!
//! The paper's refinement criterion is what makes this sound: an
//! expression denotes a *set* of exceptions, and any implementation is
//! free to return any member (or the value, if the set is empty). A
//! cached answer is therefore just one more admissible witness — serving
//! it again later, or to a different worker, never steps outside the
//! denotation. Two restrictions keep that argument airtight:
//!
//! * only **pure** outcomes are cached: asynchronous exceptions
//!   (`Timeout`, `Interrupt`, overflow kills, ...) come from the outside
//!   world, not from the expression's denotation, and chaos-injected runs
//!   are excluded wholesale ([`EvalPool`](crate::EvalPool) enforces this
//!   at insert time);
//! * the key captures everything the answer can depend on: the
//!   alpha-invariant canonical serialization of the desugared Core
//!   expression ([`urk_syntax::expr_canonical_bytes`]) plus the
//!   semantics-relevant slice of the configuration — evaluation order,
//!   blackhole mode, budgets, the async event schedule, GC policy, the
//!   denotational fuel/depth/`unsafeIsException` settings, the render
//!   depth (the rendered string is part of the cached answer), the
//!   executor tag (one executor, one byte), and the execution tier
//!   (direct lowering vs the analysis-licensed superinstruction
//!   image). Run-only
//!   plumbing (the interrupt handle, the chaos plan, and the pure
//!   pass/panic gates that cannot change an answer — the `verify_code`
//!   arena check and the `validate_tier2` translation validator) is
//!   deliberately excluded from the key.
//!
//! Keys carry the *full* canonical bytes, not just a hash, so a
//! fingerprint collision degrades to a missed sharing opportunity rather
//! than a wrong answer.

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use urk_denot::DenotConfig;
use urk_machine::{Backend, BlackholeMode, MachineConfig, OrderPolicy, Stats, Tier};
use urk_syntax::core::Expr;
use urk_syntax::{expr_canonical_bytes, fnv1a, Exception};

/// The content address of one evaluation request.
///
/// Equality compares the full canonical bytes (collision-proof); the
/// `Hash` impl forwards the precomputed FNV-1a fingerprint so probing a
/// shard's map costs O(1) on the key, with the byte comparison paid only
/// on a fingerprint match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a fingerprint of `expr` and `config` — the shard selector
    /// and hash-map probe.
    pub fingerprint: u64,
    /// Alpha-invariant canonical serialization of the desugared Core
    /// expression.
    pub expr: Vec<u8>,
    /// Serialized semantics-relevant configuration slice.
    pub config: Vec<u8>,
}

#[allow(clippy::derived_hash_with_manual_eq)]
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// Computes the content address of evaluating `expr` under the given
/// configuration. Two requests get the same key exactly when they are
/// the same desugared expression (up to alpha-renaming) under the same
/// semantics-relevant settings.
pub fn cache_key(
    expr: &Expr,
    machine: &MachineConfig,
    denot: &DenotConfig,
    render_depth: u32,
    backend: Backend,
    tier: Tier,
) -> CacheKey {
    let expr_bytes = expr_canonical_bytes(expr);
    let config = config_slice_bytes(machine, denot, render_depth, backend, tier);
    let mut all = Vec::with_capacity(expr_bytes.len() + config.len());
    all.extend_from_slice(&expr_bytes);
    all.extend_from_slice(&config);
    CacheKey {
        fingerprint: fnv1a(&all),
        expr: expr_bytes,
        config,
    }
}

/// Serializes the semantics-relevant slice of the configuration: every
/// knob that can change the rendered answer, the representative
/// exception, or which member of the exception set the machine picks.
fn config_slice_bytes(
    machine: &MachineConfig,
    denot: &DenotConfig,
    render_depth: u32,
    backend: Backend,
    tier: Tier,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    match machine.order {
        OrderPolicy::LeftToRight => out.push(0x01),
        OrderPolicy::RightToLeft => out.push(0x02),
        OrderPolicy::Seeded(seed) => {
            out.push(0x03);
            out.extend_from_slice(&seed.to_le_bytes());
        }
    }
    out.push(match machine.blackholes {
        BlackholeMode::Detect => 0x01,
        BlackholeMode::Loop => 0x02,
    });
    out.extend_from_slice(&machine.max_steps.to_le_bytes());
    out.extend_from_slice(&(machine.max_stack as u64).to_le_bytes());
    out.extend_from_slice(&(machine.max_heap as u64).to_le_bytes());
    out.push(u8::from(machine.timeout_on_step_limit));
    out.push(u8::from(machine.gc));
    out.extend_from_slice(&(machine.gc_threshold as u64).to_le_bytes());
    out.extend_from_slice(&(machine.nursery_size as u64).to_le_bytes());
    out.extend_from_slice(&(machine.event_schedule.len() as u64).to_le_bytes());
    for (step, exn) in &machine.event_schedule {
        out.extend_from_slice(&step.to_le_bytes());
        write_exception(&mut out, exn);
    }
    out.extend_from_slice(&denot.fuel.to_le_bytes());
    out.extend_from_slice(&denot.max_depth.to_le_bytes());
    out.push(u8::from(denot.pessimistic_is_exception));
    out.extend_from_slice(&render_depth.to_le_bytes());
    // The executor byte: there is one executor, and its byte is kept so
    // keys stay stable.
    out.push(match backend {
        Backend::Compiled => 0x02,
    });
    // The execution tier: tier 2 must agree with tier 1 on every
    // outcome, but keying them apart means a codegen bug degrades to a
    // duplicated entry instead of cross-tier answer pollution.
    out.push(match tier {
        Tier::One => 0x01,
        Tier::Two => 0x02,
    });
    out
}

fn write_exception(out: &mut Vec<u8>, exn: &Exception) {
    match exn {
        Exception::DivideByZero => out.push(0x01),
        Exception::Overflow => out.push(0x02),
        Exception::UserError(s) => {
            out.push(0x03);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Exception::PatternMatchFail(s) => {
            out.push(0x04);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Exception::NonTermination => out.push(0x05),
        Exception::Interrupt => out.push(0x06),
        Exception::Timeout => out.push(0x07),
        Exception::StackOverflow => out.push(0x08),
        Exception::HeapOverflow => out.push(0x09),
        Exception::BlockedIndefinitely => out.push(0x0a),
    }
}

/// One cached answer: exactly what a fresh evaluation would have
/// reported, minus the work.
#[derive(Clone, Debug)]
pub struct CachedEval {
    /// The rendered value, or `(raise E)` for an exceptional outcome.
    pub rendered: String,
    /// The representative exception, if the outcome raised.
    pub exception: Option<Exception>,
    /// The stats of the evaluation that populated the entry (cache
    /// counters zeroed; the serving layer stamps them per request).
    pub stats: Stats,
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to respect the capacity bound.
    pub evictions: u64,
    /// Successful inserts (including overwrites of an existing key).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The configured capacity bound (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: a map plus FIFO insertion order for eviction.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, CachedEval>,
    order: VecDeque<CacheKey>,
}

/// A sharded, capacity-bounded, content-addressed result cache.
///
/// Shard count is `capacity.clamp(1, 16)`; the configured capacity is
/// distributed across the shards with the division remainder spread one
/// entry at a time over the leading shards, so the per-shard bounds sum
/// to *exactly* `capacity` — the total population is always within the
/// configured capacity and every configured slot is reachable (a
/// capacity of 31 over 16 shards really holds 31 entries, not
/// `16 × ⌊31/16⌋ = 16`). Eviction is FIFO per shard. A capacity of 0
/// disables the cache entirely: lookups miss without counting and
/// inserts are dropped.
///
/// Shard locks recover from poisoning: a shard is a plain map-plus-queue
/// value with no invariant spanning the lock, so if a thread dies while
/// holding one (e.g. a panic payload's `Drop` firing inside
/// `catch_unwind` isolation), the next locker resumes with the state as
/// it stands instead of cascading the panic into every other worker.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard capacity bounds; `shard_caps.iter().sum() == capacity`.
    shard_caps: Vec<usize>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

/// Recovers the guard from a poisoned shard lock (see the type docs).
fn relock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

impl ResultCache {
    /// A cache holding at most — and, under enough distinct keys per
    /// shard, exactly — `capacity` entries across all shards.
    pub fn new(capacity: usize) -> ResultCache {
        let nshards = capacity.clamp(1, 16);
        let (base, extra) = (capacity / nshards, capacity % nshards);
        ResultCache {
            shards: (0..nshards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_caps: (0..nshards)
                .map(|i| base + usize::from(i < extra))
                .collect(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &CacheKey) -> usize {
        (key.fingerprint % self.shards.len() as u64) as usize
    }

    /// Looks up a key, counting the hit or miss. Always misses (without
    /// counting) when the cache is disabled.
    pub fn get(&self, key: &CacheKey) -> Option<CachedEval> {
        if self.capacity == 0 {
            return None;
        }
        let shard = relock(&self.shards[self.shard_index(key)]);
        match shard.map.get(key) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an entry, evicting the shard's oldest key if it is full.
    /// Dropped silently when the cache is disabled.
    pub fn insert(&self, key: CacheKey, value: CachedEval) {
        if self.capacity == 0 {
            return;
        }
        let index = self.shard_index(&key);
        let cap = self.shard_caps[index];
        let mut shard = relock(&self.shards[index]);
        if let Some(slot) = shard.map.get_mut(&key) {
            *slot = value;
            self.insertions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        while shard.map.len() >= cap {
            match shard.order.pop_front() {
                Some(old) => {
                    shard.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        shard.order.push_back(key.clone());
        shard.map.insert(key, value);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident across all shards.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| relock(s).map.len()).sum()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many shards the capacity is distributed over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Poisons the lock of shard `index` by panicking on another thread
    /// while it is held — a test hook for the poison-recovery guarantee
    /// (a worker death must degrade to one lost lock acquisition, never
    /// cascade into other workers). Exposed because integration tests
    /// cannot reach the private shard mutexes.
    #[doc(hidden)]
    pub fn poison_shard_for_test(&self, index: usize) {
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = self.shards[index].lock().expect("not yet poisoned");
                    panic!("deliberate test poison");
                })
                .join()
        });
        assert!(result.is_err(), "the poisoning thread must panic");
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.entries(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            fingerprint: n,
            expr: n.to_le_bytes().to_vec(),
            config: Vec::new(),
        }
    }

    fn entry(tag: &str) -> CachedEval {
        CachedEval {
            rendered: tag.to_string(),
            exception: None,
            stats: Stats::default(),
        }
    }

    #[test]
    fn pass_panic_gates_stay_out_of_the_key() {
        // `verify_code` is an arena check and `validate_tier2` a
        // translation-validation gate: both can only pass or panic, never
        // change an answer, so flipping them must not split the cache.
        // `validate_tier2` lives on `Options` (not `MachineConfig`) and is
        // structurally excluded; `verify_code` is on `MachineConfig` and
        // its exclusion is behavioral — pin both here.
        let e = Expr::int(42);
        let mk = |verify: bool| {
            let machine = MachineConfig {
                verify_code: verify,
                ..MachineConfig::default()
            };
            cache_key(
                &e,
                &machine,
                &DenotConfig::default(),
                8,
                Backend::Compiled,
                Tier::Two,
            )
        };
        assert_eq!(mk(false), mk(true));
        let off = crate::session::Options {
            validate_tier2: false,
            ..Default::default()
        };
        let on = crate::session::Options {
            validate_tier2: true,
            ..off.clone()
        };
        assert_eq!(
            cache_key(&e, &off.machine, &off.denot, 8, off.backend, off.tier),
            cache_key(&e, &on.machine, &on.denot, 8, on.backend, on.tier),
        );
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = ResultCache::new(8);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), entry("one"));
        let hit = cache.get(&key(1)).expect("just inserted");
        assert_eq!(hit.rendered, "one");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), entry("one"));
        assert!(cache.get(&key(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn population_never_exceeds_capacity() {
        let cache = ResultCache::new(10);
        for n in 0..1000 {
            cache.insert(key(n), entry("x"));
            assert!(cache.entries() <= 10, "population exceeded capacity");
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn non_divisible_capacities_are_fully_reachable() {
        // 31 over 16 shards used to truncate to 16×1 = 16 slots; the
        // remainder must instead be spread over the leading shards.
        let cache = ResultCache::new(31);
        assert_eq!(cache.shard_count(), 16);
        // Fill every shard to exactly its bound: shard s receives keys
        // with fingerprints s, s+16, s+32, … (fingerprint % 16 routes).
        for shard in 0..16u64 {
            let cap = if shard < 15 { 2 } else { 1 };
            for k in 0..cap {
                cache.insert(key(shard + 16 * k), entry("x"));
            }
        }
        assert_eq!(
            cache.entries(),
            31,
            "the full configured population must be reachable"
        );
        assert_eq!(cache.stats().evictions, 0);
        // One more insert anywhere (shard 0 here) stays within the bound
        // via eviction.
        cache.insert(key(16 * 7), entry("y"));
        assert_eq!(cache.entries(), 31);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn shard_cap_distribution_sums_to_capacity() {
        for capacity in [1, 2, 7, 15, 16, 17, 31, 33, 100, 1000, 4097] {
            let cache = ResultCache::new(capacity);
            assert_eq!(
                cache.shard_caps.iter().sum::<usize>(),
                capacity,
                "capacity {capacity} must be fully distributed"
            );
            let (min, max) = (
                cache.shard_caps.iter().min().expect("non-empty"),
                cache.shard_caps.iter().max().expect("non-empty"),
            );
            assert!(max - min <= 1, "distribution must be balanced");
        }
    }

    #[test]
    fn a_poisoned_shard_recovers_instead_of_cascading() {
        let cache = ResultCache::new(8);
        cache.insert(key(3), entry("before"));
        for shard in 0..cache.shard_count() {
            cache.poison_shard_for_test(shard);
        }
        // Every operation still works: reads survive, writes land.
        assert_eq!(cache.get(&key(3)).expect("still cached").rendered, "before");
        cache.insert(key(4), entry("after"));
        assert_eq!(cache.get(&key(4)).expect("inserted").rendered, "after");
        assert_eq!(cache.entries(), 2);
    }

    #[test]
    fn fingerprint_collisions_do_not_alias() {
        let cache = ResultCache::new(8);
        let a = CacheKey {
            fingerprint: 7,
            expr: vec![1],
            config: vec![],
        };
        let b = CacheKey {
            fingerprint: 7,
            expr: vec![2],
            config: vec![],
        };
        cache.insert(a.clone(), entry("a"));
        assert!(
            cache.get(&b).is_none(),
            "colliding fingerprints must not alias"
        );
        assert_eq!(cache.get(&a).expect("present").rendered, "a");
    }

    #[test]
    fn overwriting_a_key_does_not_grow_the_population() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), entry("a"));
        cache.insert(key(1), entry("b"));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.get(&key(1)).expect("present").rendered, "b");
    }
}
