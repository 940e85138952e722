//! The counter schema: every [`Stats`] field is declared once, in
//! [`stats_schema!`](crate::stats_schema), with its doc, its name and its
//! [`Kind`]. The name is the `Stats` field, the wire key and the
//! `--stats` spelling. `Stats`, its `merge`, `fields` and `name=value`
//! rendering, and the [`Counter`] table are derived from it here;
//! `urk-io` derives `WireStats` and its codec by passing its own macro to
//! `stats_schema!`.

use std::fmt;

/// Passes the schema — every `Stats` field in declaration order, each
/// written `/// doc` `name: type = Kind,` — to the macro `$callback`.
/// The kinds are the variant names of [`Kind`].
#[macro_export]
macro_rules! stats_schema {
    ($callback:ident) => {
        $callback! {
            /// Machine transitions taken by the run loop.
            steps: u64 = Sum,
            /// Heap cells allocated during evaluation (nursery and
            /// tenured together).
            allocations: u64 = Sum,
            /// Tenured allocations served by reusing a cell the major
            /// collector reclaimed (a subset of `allocations` plus
            /// evacuation copies).
            freelist_reuses: u64 = Sum,
            /// Value requests answered with a tagged immediate word (a
            /// small integer or a nullary constructor) instead of a heap
            /// cell.
            unboxed_hits: u64 = Sum,
            /// Thunks overwritten with their value by an update frame.
            thunk_updates: u64 = Sum,
            /// The deepest the evaluation stack grew, in frames.
            max_stack_depth: usize = Max,
            /// Frames discarded while trimming for a raise.
            frames_trimmed: u64 = Sum,
            /// Thunks overwritten with `raise ex` during synchronous trims
            /// (§3.3).
            thunks_poisoned: u64 = Sum,
            /// Thunks restored (resumable) during asynchronous trims
            /// (§5.1).
            thunks_restored: u64 = Sum,
            /// Black holes detected (§5.2).
            blackholes_detected: u64 = Sum,
            /// Garbage collections performed (minor and major together).
            gc_runs: u64 = Sum,
            /// Minor (copying nursery) collections (a subset of
            /// `gc_runs`).
            minor_gcs: u64 = Sum,
            /// Major (full mark-sweep) collections (a subset of
            /// `gc_runs`).
            major_gcs: u64 = Sum,
            /// Nodes reclaimed by the collector (both generations).
            gc_freed: u64 = Sum,
            /// Nursery cells copied into the tenured space — by
            /// minor-collection evacuation or by tenuring an evaluation
            /// result that escapes to the embedder.
            nodes_promoted: u64 = Sum,
            /// Asynchronous exceptions delivered from outside the step
            /// schedule (interrupt handle or chaos plan).
            async_injected: u64 = Sum,
            /// Collections forced by a chaos plan (a subset of `gc_runs`).
            forced_gcs: u64 = Sum,
            /// Requests answered from the serving layer's shared result
            /// cache (`urk::EvalPool`). The machine itself never sets
            /// this — a cache hit means *no* machine ran; the pool stamps
            /// the counter onto the stats it returns so hit rates are
            /// visible per result.
            cache_hits: u64 = Sum,
            /// Requests that consulted the shared result cache and missed
            /// (also stamped by the serving layer, never by the machine).
            cache_misses: u64 = Sum,
            /// Flat code ops emitted by the compiler for this machine's
            /// work (query-expression lowering; the serving layer
            /// additionally stamps the program's one-time compile cost on
            /// the evaluation that paid it, so pool consumers can see the
            /// amortisation).
            compile_ops: u64 = Sum,
            /// Wall-clock microseconds spent compiling (same attribution
            /// as `compile_ops`).
            compile_micros: u64 = WallClock,
            /// Which executor this machine ran (there is one).
            backend: $crate::Backend = Tag,
            /// Which compilation tier the linked code image was built at
            /// (`One` until a tier-2 image is linked). Like `backend`, a
            /// mode tag: it survives `Machine::reset_stats`.
            tier: $crate::Tier = Tag,
            /// Fused superinstruction executions: straight-line regions
            /// (tier-2 `Fused` ops and licensed speculations) evaluated
            /// atomically inside one step, without thunk/Update/blackhole
            /// round-trips.
            fused_steps: u64 = Sum,
            /// Tier-2 inline-cache hits: global call sites whose cached
            /// callee was still the resolved function value.
            ic_hits: u64 = Sum,
            /// Tier-2 inline-cache misses (cold sites and callees not yet
            /// forced to a function value).
            ic_misses: u64 = Sum,
        }
    };
}

/// How a schema field merges across evaluations ([`Stats::merge`], the
/// serving tier's totals, `urk --batch --stats`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Work done: sums.
    Sum,
    /// A high-water mark: takes the larger.
    Max,
    /// Wall-clock microseconds: sums, but varies from run to run, so
    /// pinned counter rows leave it out.
    WallClock,
    /// The mode a machine ran in, not a count. Merging leaves the
    /// accumulator's tag: whoever owns the totals sets it.
    Tag,
}

impl Kind {
    /// Merges counter value `v` into the accumulated `acc`.
    pub fn merge(self, acc: u64, v: u64) -> u64 {
        match self {
            Kind::Sum | Kind::WallClock => acc.saturating_add(v),
            Kind::Max => acc.max(v),
            Kind::Tag => acc,
        }
    }
}

/// A numeric schema field with accessors, so code can read and write
/// every counter without naming one.
#[derive(Copy, Clone, Debug)]
pub struct Counter {
    pub name: &'static str,
    pub kind: Kind,
    pub get: fn(&Stats) -> u64,
    pub set: fn(&mut Stats, u64),
}

/// Expands one schema entry by its kind: `slot` is its [`Counter`]
/// (`None` for a tag), `text` its rendered value.
macro_rules! by_kind {
    (slot Tag $field:ident) => {
        None
    };
    (slot $kind:ident $field:ident) => {
        Some(Counter {
            name: stringify!($field),
            kind: Kind::$kind,
            get: |s| s.$field as u64,
            set: |s, v| s.$field = v as _,
        })
    };
    (text Tag $v:expr) => {
        $v.name().to_string()
    };
    (text $kind:ident $v:expr) => {
        $v.to_string()
    };
}

macro_rules! define_stats {
    ($( $(#[doc = $doc:literal])+ $field:ident: $ty:ty = $kind:ident, )*) => {
        /// Machine counters, one field per
        /// [`stats_schema!`](crate::stats_schema) entry. Small integers
        /// and nullary constructors are tagged immediate words that never
        /// touch the heap: they count in `unboxed_hits`, not
        /// `allocations`.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Stats {
            $( $(#[doc = $doc])+ pub $field: $ty, )*
        }

        static COUNTER_SLOTS: [Option<Counter>; [$(stringify!($field)),*].len()] =
            [$( by_kind!(slot $kind $field) ),*];

        impl Stats {
            /// Every field in declaration order, tags included, as
            /// `(name, kind, rendered value)`.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, Kind, String)> {
                [$( (stringify!($field), Kind::$kind, by_kind!(text $kind self.$field)) ),*]
                    .into_iter()
            }
        }
    };
}

stats_schema!(define_stats);

impl Stats {
    /// The numeric fields (all but the tags) in declaration order.
    pub fn counters() -> impl Iterator<Item = &'static Counter> + Clone {
        COUNTER_SLOTS.iter().flatten()
    }

    /// The value of the counter called `name`, if there is one.
    pub fn count(&self, name: &str) -> Option<u64> {
        Stats::counters()
            .find(|c| c.name == name)
            .map(|c| (c.get)(self))
    }

    /// Merges another evaluation's counters into these, each by its
    /// [`Kind`]; the tags stay these stats' own.
    pub fn merge(&mut self, other: &Stats) {
        for c in Stats::counters() {
            (c.set)(self, c.kind.merge((c.get)(self), (c.get)(other)));
        }
    }
}

/// Every field as `name=value`, space-separated, in declaration order.
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self.fields().map(|(n, _, v)| format!("{n}={v}")).collect();
        f.write_str(&fields.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tier;

    #[test]
    fn merge_follows_each_kind() {
        let mut acc = Stats {
            steps: 10,
            max_stack_depth: 7,
            compile_micros: 3,
            ..Stats::default()
        };
        let other = Stats {
            steps: 5,
            max_stack_depth: 4,
            compile_micros: 2,
            tier: Tier::Two,
            ..Stats::default()
        };
        acc.merge(&other);
        assert_eq!(acc.steps, 15);
        assert_eq!(acc.max_stack_depth, 7);
        assert_eq!(acc.compile_micros, 5);
        assert_eq!(acc.tier, Tier::One, "the accumulator keeps its tags");
    }
}
