//! The candidate fingerprint: which coverage features an execution hit.
//!
//! Two feature families, both cheap and fully deterministic:
//!
//! * **op-pair edges** — the machine's [`OpCoverage`] matrix:
//!   feature id = `prev_kind * OP_KINDS + cur_kind` (`< OP_KINDS²`);
//! * **stats buckets** — log₂-bucketed machine [`Stats`] counters
//!   (steps, allocations, stack depth, trims, restores, ...), so a mutant
//!   that makes the machine work an order of magnitude harder — or poison
//!   or restore thunks for the first time — counts as new coverage even
//!   when it runs the same op edges;
//! * **prim operand classes** — which (primitive, position,
//!   operand-class) triples the run exercised ([`OpCoverage`]'s prim
//!   profile), so a mutant that first feeds, say, a boxed negative into
//!   the divisor slot counts as novel even on familiar op edges;
//! * **exception-set shapes** — the membership mask of the candidate's
//!   *denoted* exception set, so terms whose imprecise sets combine
//!   differently (div-by-zero alone, div-by-zero ∪ user-error, ⊥) are
//!   all kept around as corpus seeds.
//!
//! A candidate is admitted to the corpus iff its feature set contains an
//! id the whole run has not seen before (classic coverage-guided
//! admission).

use urk_denot::ExnSet;
use urk_machine::{OpCoverage, Outcome, Stats, OP_KINDS};
use urk_syntax::Exception;

/// Feature-id namespaces (op-pair edges occupy `0..OP_KINDS²`).
const STATS_BASE: u32 = 0x1000;
const OUTCOME_BASE: u32 = 0x2000;
const PRIM_BASE: u32 = 0x3000;
const EXNSET_BASE: u32 = 0x4000;

/// A candidate's deduplicated, sorted feature set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub features: Vec<u32>,
}

impl Fingerprint {
    /// Builds the fingerprint of one execution from its coverage map,
    /// stats, and outcome.
    pub fn collect(
        cov: Option<&OpCoverage>,
        stats: &Stats,
        outcome: Option<&Outcome>,
    ) -> Fingerprint {
        let mut features = Vec::new();
        if let Some(cov) = cov {
            for (prev, cur, _count) in cov.iter_hits() {
                features.push(u32::from(prev) * OP_KINDS as u32 + u32::from(cur));
            }
            for (flat, _count) in cov.iter_prim_hits() {
                features.push(PRIM_BASE + flat);
            }
        }
        features.extend(stats_features(stats));
        if let Some(o) = outcome {
            features.push(OUTCOME_BASE + outcome_feature(o));
        }
        features.sort_unstable();
        features.dedup();
        Fingerprint { features }
    }

    /// Merges another execution of the same candidate (a different order
    /// or tier) into this fingerprint.
    pub fn merge(&mut self, other: &Fingerprint) {
        self.features.extend_from_slice(&other.features);
        self.features.sort_unstable();
        self.features.dedup();
    }

    /// Adds the shape of the candidate's *denoted* exception set: the
    /// membership mask over the ten concrete exception kinds, with ⊥
    /// (the full set) as its own bit. A value denotation contributes the
    /// zero mask, which is still one feature — "denotes a value" is a
    /// shape too.
    pub fn add_exn_set_shape(&mut self, set: Option<&ExnSet>) {
        let feature = EXNSET_BASE + exn_set_mask(set);
        if let Err(at) = self.features.binary_search(&feature) {
            self.features.insert(at, feature);
        }
    }
}

/// The membership bitmask of a denoted exception set (`None` = the term
/// denotes an ordinary value). Bit `exn_id - 1` per concrete member; bit
/// 15 for ⊥, whose set contains every member and would otherwise alias
/// the all-concrete mask.
fn exn_set_mask(set: Option<&ExnSet>) -> u32 {
    let Some(set) = set else { return 0 };
    if set.is_all() {
        return 1 << 15;
    }
    set.iter().fold(0u32, |m, e| m | (1 << (exn_id(&e) - 1)))
}

/// Log₂-bucketed stats features. Counter identity lives in bits 6+, the
/// bucket in bits 0–5, so every (counter, magnitude) pair is one id.
pub fn stats_features(stats: &Stats) -> Vec<u32> {
    let counters: [(u32, u64); 12] = [
        (0, stats.steps),
        (1, stats.allocations),
        (2, stats.thunk_updates),
        (3, stats.max_stack_depth as u64),
        (4, stats.frames_trimmed),
        (5, stats.thunks_poisoned),
        (6, stats.thunks_restored),
        (7, stats.blackholes_detected),
        (8, stats.gc_runs),
        (9, stats.unboxed_hits),
        (10, stats.minor_gcs),
        (11, stats.nodes_promoted),
    ];
    counters
        .iter()
        .map(|&(id, v)| STATS_BASE + (id << 6) + bucket(v))
        .collect()
}

/// `0` for zero, else `1 + floor(log2 v)` — magnitudes, not exact counts.
fn bucket(v: u64) -> u32 {
    64 - v.leading_zeros()
}

fn outcome_feature(o: &Outcome) -> u32 {
    match o {
        Outcome::Value(_) => 0,
        Outcome::Caught(e) => 1 + exn_id(e),
        Outcome::Uncaught(e) => 32 + exn_id(e),
    }
}

fn exn_id(e: &Exception) -> u32 {
    match e {
        Exception::DivideByZero => 1,
        Exception::Overflow => 2,
        Exception::UserError(_) => 3,
        Exception::PatternMatchFail(_) => 4,
        Exception::NonTermination => 5,
        Exception::Interrupt => 6,
        Exception::Timeout => 7,
        Exception::StackOverflow => 8,
        Exception::HeapOverflow => 9,
        Exception::BlockedIndefinitely => 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_magnitudes() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1000), 10);
    }

    #[test]
    fn fingerprints_dedup_and_merge() {
        let stats = Stats::default();
        let mut a = Fingerprint::collect(None, &stats, None);
        let b = Fingerprint::collect(None, &stats, Some(&Outcome::Caught(Exception::Overflow)));
        assert!(a.features.len() < b.features.len());
        a.merge(&b);
        assert_eq!(a, b);
    }
}
