//! A cheap execution-coverage signal for the fuzzer.
//!
//! The machine dispatches one flat [`COp`](crate::code) per
//! flat `Eval` step; recording the *pair* of consecutive op kinds gives an
//! edge-coverage signal analogous to AFL's branch pairs, but over the
//! lowered code's control skeleton instead of machine branches. The map is
//! a dense `KINDS × KINDS` matrix of hit counters — small enough to clear
//! per candidate and diff against a global "seen" bitmap in microseconds.
//!
//! The hook is off by default ([`MachineConfig::coverage`]) and costs one
//! `Option` test per step when disabled.
//!
//! [`MachineConfig::coverage`]: crate::MachineConfig::coverage

/// Number of distinct [`COp`](crate::code) kinds (enum variants). Kept in
/// sync by `COp::kind_index`'s exhaustive match.
pub const OP_KINDS: usize = 21;

/// Number of [`urk_syntax::core::PrimOp`] variants (the enum is fieldless,
/// so `op as usize` indexes the profile matrix densely).
pub const PRIM_OPS: usize = 22;

/// Operand value classes for the prim-op profile (see
/// [`OpCoverage::prim_profile`]): a coarse shape lattice that separates
/// the values primitives branch on — zero and negative integers get their
/// own classes because they steer `Div`/`Mod`/`Neg` onto raise paths.
pub const OPERAND_CLASSES: usize = 8;

/// Dense op-pair hit counters: `pairs[prev * OP_KINDS + cur]` counts how
/// often op kind `cur` executed immediately after `prev` within one
/// episode (the edge cursor resets between episodes, so pairs never span
/// an episode boundary).
///
/// `prims` is the value-profile companion: one counter per
/// `(prim op, operand position, operand class)` triple, recorded by
/// `Machine::apply_prim` at either tier when coverage is armed. It
/// tells the fuzzer *what kinds of values* reached each primitive, which
/// op-pair edges alone cannot distinguish (`1/2` and `1/0` walk the same
/// edges).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpCoverage {
    pairs: Vec<u32>,
    prims: Vec<u32>,
    last: Option<u8>,
}

impl Default for OpCoverage {
    fn default() -> OpCoverage {
        OpCoverage::new()
    }
}

impl OpCoverage {
    /// An empty map.
    pub fn new() -> OpCoverage {
        OpCoverage {
            pairs: vec![0; OP_KINDS * OP_KINDS],
            prims: vec![0; PRIM_OPS * 2 * OPERAND_CLASSES],
            last: None,
        }
    }

    /// Records one executed op kind (the compiled loop calls this once per
    /// `Eval` dispatch).
    #[inline]
    pub(crate) fn hit(&mut self, kind: u8) {
        if let Some(prev) = self.last {
            let i = prev as usize * OP_KINDS + kind as usize;
            self.pairs[i] = self.pairs[i].saturating_add(1);
        }
        self.last = Some(kind);
    }

    /// Records one primitive operand observation: `op` is the dense
    /// `PrimOp` discriminant, `pos` the operand position (0 or 1), and
    /// `class` an operand class below [`OPERAND_CLASSES`].
    #[inline]
    pub(crate) fn hit_prim(&mut self, op: usize, pos: usize, class: usize) {
        let i = (op * 2 + pos) * OPERAND_CLASSES + class;
        self.prims[i] = self.prims[i].saturating_add(1);
    }

    /// Ends the current episode: the next recorded op starts a fresh edge
    /// rather than pairing with the previous episode's last op.
    pub fn end_episode(&mut self) {
        self.last = None;
    }

    /// The raw `OP_KINDS × OP_KINDS` counter matrix, row = previous op.
    pub fn pairs(&self) -> &[u32] {
        &self.pairs
    }

    /// Number of distinct op pairs with a non-zero count.
    pub fn edges_hit(&self) -> usize {
        self.pairs.iter().filter(|&&c| c != 0).count()
    }

    /// Clears all counters and the edge cursor.
    pub fn clear(&mut self) {
        self.pairs.fill(0);
        self.prims.fill(0);
        self.last = None;
    }

    /// Iterates the non-zero pairs as `(prev_kind, cur_kind, count)`.
    pub fn iter_hits(&self) -> impl Iterator<Item = (u8, u8, u32)> + '_ {
        self.pairs.iter().enumerate().filter_map(|(i, &c)| {
            (c != 0).then_some(((i / OP_KINDS) as u8, (i % OP_KINDS) as u8, c))
        })
    }

    /// The raw prim-operand profile matrix, indexed
    /// `(op * 2 + position) * OPERAND_CLASSES + class`.
    pub fn prim_profile(&self) -> &[u32] {
        &self.prims
    }

    /// Iterates the non-zero prim-profile cells as `(flat_index, count)`
    /// (the flat index is already a dense feature id for fingerprints).
    pub fn iter_prim_hits(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.prims
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c != 0).then_some((i as u32, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_accumulate_and_reset() {
        let mut cov = OpCoverage::new();
        cov.hit(1); // no previous op: establishes the cursor only
        cov.hit(2);
        cov.hit(2);
        assert_eq!(cov.edges_hit(), 2);
        let hits: Vec<_> = cov.iter_hits().collect();
        assert!(hits.contains(&(1, 2, 1)));
        assert!(hits.contains(&(2, 2, 1)));
        cov.end_episode();
        cov.hit(5); // must not pair with the stale cursor
        assert_eq!(cov.edges_hit(), 2);
        cov.clear();
        assert_eq!(cov.edges_hit(), 0);
    }
}
