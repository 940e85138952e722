//! Machine environments: persistent stacks of heap nodes, addressed by
//! position.
//!
//! An environment keeps its innermost [`TIP`] slots inline, in the value
//! that holds it (a node, a frame, the control register). Pushing onto a
//! tip with room copies 24 bytes and allocates nothing, so a call that
//! binds a few parameters, lets and `case` binders allocates nothing.
//!
//! Older slots live in a persistent chain of shared chunks: a push onto a
//! full tip moves the whole tip into one new `Rc` chunk whose parent is
//! the chain below it, and starts a new tip. Chunks are immutable but for
//! the collector's rewrite, so a chunk serves every environment that
//! extends it, and lookup chases one pointer per [`TIP`] spilled slots.

use std::cell::Cell;
use std::rc::Rc;

use crate::heap::{NodeId, PAYLOAD};

/// Slots kept inline. Machine environments are almost always shallow
/// (lambda params + a few lets and case binders), so the tip covers the
/// common case and a call allocates nothing.
const TIP: usize = 4;

/// An unused tip slot. It is tenured cell `PAYLOAD`, which the heap never
/// allocates (the tenured space holds fewer cells), so no bound node is
/// ever mistaken for it.
const EMPTY: NodeId = NodeId(PAYLOAD);

/// A spilled tip: `TIP` slots, innermost first, and the chain below them.
struct CChunk {
    /// Never changed but by the collector's idempotent rewrite.
    entries: [Cell<NodeId>; TIP],
    parent: Option<Rc<CChunk>>,
}

/// The machine's environment. The compiler resolved every variable to a
/// back-index at compile time, so slots are addressed by position —
/// `get_back(k)` reads the tip or walks whole chunks instead of scanning
/// names.
#[derive(Clone)]
pub struct CEnv {
    /// The innermost slots, innermost first; unused slots are [`EMPTY`]
    /// and follow the used ones.
    tip: [NodeId; TIP],
    /// The spilled slots, below the tip's. Non-empty only below a
    /// non-empty tip.
    chunk: Option<Rc<CChunk>>,
}

impl Default for CEnv {
    fn default() -> CEnv {
        CEnv::empty()
    }
}

impl CEnv {
    /// The empty environment.
    pub fn empty() -> CEnv {
        CEnv {
            tip: [EMPTY; TIP],
            chunk: None,
        }
    }

    /// Extends with one slot. A push onto a full tip spills it into a new
    /// chunk and adds one to `chunks`.
    #[inline]
    pub fn push(&self, node: NodeId, chunks: &mut u64) -> CEnv {
        debug_assert_ne!(node, EMPTY, "the empty-slot marker is bound");
        let [a, b, c, d] = self.tip;
        if d == EMPTY {
            return CEnv {
                tip: [node, a, b, c],
                chunk: self.chunk.clone(),
            };
        }
        *chunks += 1;
        CEnv {
            tip: [node, EMPTY, EMPTY, EMPTY],
            chunk: Some(Rc::new(CChunk {
                entries: self.tip.map(Cell::new),
                parent: self.chunk.clone(),
            })),
        }
    }

    /// The number of used tip slots.
    fn tip_len(&self) -> usize {
        self.tip.iter().take_while(|&&n| n != EMPTY).count()
    }

    /// The slot `back` positions from the top (0 = innermost binding).
    ///
    /// # Panics
    ///
    /// Panics if `back` exceeds the environment depth — which would mean
    /// compile-time scope resolution and the runtime environment
    /// disagree, a compiler bug.
    #[inline]
    pub fn get_back(&self, back: u32) -> NodeId {
        let back = back as usize;
        if let Some(&n) = self.tip.get(back) {
            if n != EMPTY {
                return n;
            }
        }
        self.get_spilled(back - self.tip_len())
    }

    fn get_spilled(&self, back: usize) -> NodeId {
        let mut chunk = self.chunk.as_deref();
        for _ in 0..back / TIP {
            chunk = chunk.and_then(|c| c.parent.as_deref());
        }
        match chunk {
            Some(c) => c.entries[back % TIP].get(),
            None => panic!("slot past the end of the environment (compiler bug)"),
        }
    }

    /// Number of slots (diagnostics only).
    pub fn len(&self) -> usize {
        let mut n = self.tip_len();
        let mut chunk = self.chunk.as_deref();
        while let Some(c) = chunk {
            n += TIP;
            chunk = c.parent.as_deref();
        }
        n
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tip[0] == EMPTY
    }

    /// Visits every slot, innermost first. Used by the collector.
    pub fn for_each_node(&self, mut f: impl FnMut(NodeId)) {
        for &id in self.tip.iter().take_while(|&&n| n != EMPTY) {
            f(id);
        }
        let mut chunk = self.chunk.as_deref();
        while let Some(c) = chunk {
            for id in &c.entries {
                f(id.get());
            }
            chunk = c.parent.as_deref();
        }
    }

    /// Rewrites every slot in place through `f`. Used by the copying
    /// minor collector to redirect nursery references to their tenured
    /// copies. Every holder rewrites its own tip; chunks are shared by
    /// several environments and rewritten once per environment, so `f`
    /// must be idempotent.
    pub fn update_nodes(&mut self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        for id in self.tip.iter_mut().take_while(|n| **n != EMPTY) {
            *id = f(*id);
        }
        let mut chunk = self.chunk.as_deref();
        while let Some(c) = chunk {
            for id in &c.entries {
                id.set(f(id.get()));
            }
            chunk = c.parent.as_deref();
        }
    }
}

impl std::fmt::Debug for CEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CEnv({} slots)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn slots(env: &CEnv) -> Vec<NodeId> {
        (0..env.len() as u32).map(|k| env.get_back(k)).collect()
    }

    /// `env` extended with `ids`, oldest first; returns the chunks the
    /// pushes allocated.
    fn extend(env: &CEnv, ids: impl IntoIterator<Item = u32>) -> (CEnv, u64) {
        let mut chunks = 0;
        let mut env = env.clone();
        for i in ids {
            env = env.push(NodeId(i), &mut chunks);
        }
        (env, chunks)
    }

    #[test]
    fn push_shadow_get_back() {
        let (env, _) = extend(&CEnv::empty(), [1, 2]);
        assert_eq!(env.get_back(0), NodeId(2));
        assert_eq!(env.get_back(1), NodeId(1));
        assert_eq!(env.len(), 2);
        assert!(CEnv::empty().is_empty());
        assert!(!env.is_empty());
    }

    #[test]
    fn only_a_push_onto_a_full_tip_allocates() {
        let (env, chunks) = extend(&CEnv::empty(), 0..TIP as u32);
        assert_eq!(chunks, 0);
        assert!(env.chunk.is_none());
        // Each push onto a full tip spills it into one chunk.
        let (deep, chunks) = extend(&env, TIP as u32..3 * TIP as u32 + 1);
        assert_eq!(chunks, 3);
        assert_eq!(deep.len(), 3 * TIP + 1);
        assert_eq!(deep.get_back(1), NodeId(3 * TIP as u32 - 1));
    }

    #[test]
    fn older_environments_are_unaffected_by_extension() {
        let (base, _) = extend(&CEnv::empty(), [1]);
        // Extend the same environment twice: the two extensions must not
        // see each other, and `base` must see neither.
        let (left, _) = extend(&base, [2]);
        let (right, _) = extend(&base, [3]);
        assert_eq!(slots(&base), vec![NodeId(1)]);
        assert_eq!(slots(&left), vec![NodeId(2), NodeId(1)]);
        assert_eq!(slots(&right), vec![NodeId(3), NodeId(1)]);
    }

    #[test]
    fn get_back_across_chunk_boundaries() {
        let n = 4 * TIP + 3;
        let (env, _) = extend(&CEnv::empty(), 0..n as u32);
        assert_eq!(env.len(), n);
        for i in 0..n {
            assert_eq!(env.get_back(i as u32), NodeId((n - 1 - i) as u32));
        }
    }

    #[test]
    #[should_panic(expected = "past the end of the environment")]
    fn get_back_past_the_end_panics() {
        extend(&CEnv::empty(), [1]).0.get_back(1);
    }

    #[test]
    #[should_panic(expected = "past the end of the environment")]
    fn get_back_past_a_full_tip_panics() {
        extend(&CEnv::empty(), 0..TIP as u32).0.get_back(TIP as u32);
    }

    #[test]
    fn for_each_node_visits_innermost_first() {
        let n = 3 * TIP + 1;
        let (env, _) = extend(&CEnv::empty(), 0..n as u32);
        let mut seen = Vec::new();
        env.for_each_node(|n| seen.push(n));
        let want: Vec<NodeId> = (0..n as u32).rev().map(NodeId).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn branching_at_a_full_tip_spills_into_distinct_chunks() {
        // A full tip over one spilled chunk.
        let (env, _) = extend(&CEnv::empty(), 0..2 * TIP as u32);
        let (a, a_chunks) = extend(&env, [100]);
        let (b, b_chunks) = extend(&env, [200]);
        assert_eq!((a_chunks, b_chunks), (1, 1));
        let below: Vec<NodeId> = (0..2 * TIP as u32).rev().map(NodeId).collect();
        for (branch, top) in [(&a, 100), (&b, 200)] {
            let mut want = vec![NodeId(top)];
            want.extend(&below);
            assert_eq!(slots(branch), want);
        }
        assert_eq!(slots(&env), below, "the branched environment is unchanged");
        // Each branch keeps growing on its own chain.
        let (a2, _) = extend(&a, 101..101 + TIP as u32);
        let (b2, _) = extend(&b, 201..201 + TIP as u32);
        assert_eq!(a2.get_back(TIP as u32), NodeId(100));
        assert_eq!(b2.get_back(TIP as u32), NodeId(200));
        assert_eq!(a2.get_back(TIP as u32 + 1), NodeId(2 * TIP as u32 - 1));
        assert_eq!(b2.get_back(TIP as u32 + 1), NodeId(2 * TIP as u32 - 1));
    }

    #[test]
    fn update_nodes_rewrites_the_tip_and_the_spilled_slots() {
        let (base, _) = extend(&CEnv::empty(), 1..=TIP as u32 + 2);
        let (mut ext, _) = extend(&base, [50]);
        ext.update_nodes(&mut |n| NodeId(n.0 | 0x100));
        let want: Vec<NodeId> = [50]
            .into_iter()
            .chain((1..=TIP as u32 + 2).rev())
            .map(|n| NodeId(n | 0x100))
            .collect();
        assert_eq!(slots(&ext), want);
        // `base` shares the spilled chunk, so it sees that rewrite, but
        // its tip is its own.
        let base_slots = slots(&base);
        assert_eq!(
            base_slots[..2],
            [NodeId(TIP as u32 + 2), NodeId(TIP as u32 + 1)]
        );
        assert!(base_slots[2..].iter().all(|n| n.0 & 0x100 != 0));
    }

    /// Random push and branch sequences agree with a `Vec` model on every
    /// read: `get_back`, `len`, `for_each_node` order and `update_nodes`.
    #[test]
    fn random_pushes_and_branches_agree_with_a_vec_model() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            // Live views and their models, oldest slot first.
            let mut views: Vec<(CEnv, Vec<NodeId>)> = vec![(CEnv::empty(), Vec::new())];
            let mut chunks = 0;
            for next in 0..rng.gen_range(1..120) {
                let i = rng.gen_range(0..views.len());
                let (env, model) = &views[i];
                let (env, mut model) = (env.push(NodeId(next), &mut chunks), model.clone());
                model.push(NodeId(next));
                if rng.gen_bool(0.7) {
                    views[i] = (env, model);
                } else {
                    views.push((env, model));
                }
            }
            for (env, model) in &views {
                check(env, model);
            }
            // An idempotent rewrite, as the collector's: views sharing a
            // chunk rewrite its slots once each.
            let f = |n: NodeId| NodeId(n.0 | 1 << 20);
            for (env, model) in &mut views {
                env.update_nodes(&mut |n| f(n));
                model.iter_mut().for_each(|n| *n = f(*n));
            }
            for (env, model) in &views {
                check(env, model);
            }
        }
    }

    fn check(env: &CEnv, model: &[NodeId]) {
        assert_eq!(env.len(), model.len());
        assert_eq!(env.is_empty(), model.is_empty());
        let innermost_first: Vec<NodeId> = model.iter().rev().copied().collect();
        assert_eq!(slots(env), innermost_first);
        let mut seen = Vec::new();
        env.for_each_node(|n| seen.push(n));
        assert_eq!(seen, innermost_first);
    }
}
