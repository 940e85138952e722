//! Machine environments: persistent stacks of heap nodes, addressed by
//! position.
//!
//! The representation is a *chunked* persistent list: slots are packed
//! into shared chunks of up to [`CHUNK`] entries, and an environment is a
//! `(chunk, length)` view of a chunk chain. Extending the tip of a chunk
//! that still has room appends in place (the old view, being shorter, is
//! unaffected), so a run of `push`es costs one `Rc` allocation per `CHUNK`
//! slots instead of one per slot — and lookup chases one pointer per
//! chunk instead of one per slot.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::heap::NodeId;

/// Bindings per chunk. Machine environments are almost always shallow
/// (lambda params + a few lets), so one chunk covers the common case.
const CHUNK: usize = 16;

struct CChunk {
    /// Append-only within a chunk's lifetime, stored inline as a fixed
    /// array, so starting a chunk is a single allocation (the `Rc`). Only
    /// the first `init` slots are meaningful; slots below any view's `len`
    /// are never mutated, so older (shorter) views stay valid.
    entries: RefCell<[NodeId; CHUNK]>,
    init: Cell<usize>,
    parent: CEnv,
}

/// The machine's environment. The compiler resolved every variable to a
/// back-index at compile time, so slots are addressed by position —
/// `get_back(k)` walks whole chunks instead of scanning names.
#[derive(Clone, Default)]
pub struct CEnv {
    chunk: Option<Rc<CChunk>>,
    len: u32,
}

impl CEnv {
    /// The empty environment.
    pub fn empty() -> CEnv {
        CEnv {
            chunk: None,
            len: 0,
        }
    }

    /// Extends with one slot.
    pub fn push(&self, node: NodeId) -> CEnv {
        if let Some(c) = &self.chunk {
            let init = c.init.get();
            if init == self.len as usize && init < CHUNK {
                c.entries.borrow_mut()[init] = node;
                c.init.set(init + 1);
                return CEnv {
                    chunk: self.chunk.clone(),
                    len: self.len + 1,
                };
            }
        }
        let mut entries = [NodeId(0); CHUNK];
        entries[0] = node;
        CEnv {
            chunk: Some(Rc::new(CChunk {
                entries: RefCell::new(entries),
                init: Cell::new(1),
                parent: self.clone(),
            })),
            len: 1,
        }
    }

    /// The slot `back` positions from the top (0 = innermost binding).
    ///
    /// # Panics
    ///
    /// Panics if `back` exceeds the environment depth — which would mean
    /// compile-time scope resolution and the runtime environment
    /// disagree, a compiler bug.
    pub fn get_back(&self, back: u32) -> NodeId {
        let mut back = back as usize;
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            if back < len {
                return c.entries.borrow()[len - 1 - back];
            }
            back -= len;
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
        panic!("slot {back} past the end of the environment (compiler bug)");
    }

    /// Number of slots (diagnostics only).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            n += len;
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
        n
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.chunk.is_none()
    }

    /// Visits every slot, innermost first. Used by the collector.
    pub fn for_each_node(&self, mut f: impl FnMut(NodeId)) {
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            let entries = c.entries.borrow();
            for id in entries[..len].iter().rev() {
                f(*id);
            }
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
    }

    /// Rewrites every slot in place through `f`. Used by the copying
    /// minor collector to redirect nursery references to their tenured
    /// copies. `f` must be idempotent: shared chunks are reachable from
    /// several views and are rewritten once per view.
    pub fn update_nodes(&self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            {
                let mut entries = c.entries.borrow_mut();
                for id in entries[..len].iter_mut() {
                    *id = f(*id);
                }
            }
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
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

    fn slots(env: &CEnv) -> Vec<NodeId> {
        (0..env.len() as u32).map(|k| env.get_back(k)).collect()
    }

    #[test]
    fn push_shadow_get_back() {
        let env = CEnv::empty().push(NodeId(1)).push(NodeId(2));
        assert_eq!(env.get_back(0), NodeId(2));
        assert_eq!(env.get_back(1), NodeId(1));
        assert_eq!(env.len(), 2);
        assert!(CEnv::empty().is_empty());
    }

    #[test]
    fn older_views_are_unaffected_by_in_place_extension() {
        let base = CEnv::empty().push(NodeId(1));
        // Extend the same tip twice: the two extensions must not see each
        // other, and `base` must see neither.
        let left = base.push(NodeId(2));
        let right = base.push(NodeId(3));
        assert_eq!(slots(&base), vec![NodeId(1)]);
        assert_eq!(slots(&left), vec![NodeId(2), NodeId(1)]);
        assert_eq!(slots(&right), vec![NodeId(3), NodeId(1)]);
    }

    #[test]
    fn get_back_across_chunk_boundaries() {
        let mut env = CEnv::empty();
        for i in 0..3 * CHUNK {
            env = env.push(NodeId(i as u32));
        }
        assert_eq!(env.len(), 3 * CHUNK);
        for i in 0..3 * CHUNK {
            assert_eq!(env.get_back(i as u32), NodeId((3 * CHUNK - 1 - i) as u32));
        }
    }

    #[test]
    #[should_panic(expected = "past the end of the environment")]
    fn get_back_past_the_end_panics() {
        CEnv::empty().push(NodeId(1)).get_back(1);
    }

    #[test]
    fn for_each_node_visits_innermost_first() {
        let env = CEnv::empty()
            .push(NodeId(1))
            .push(NodeId(2))
            .push(NodeId(3));
        let mut seen = Vec::new();
        env.for_each_node(|n| seen.push(n));
        assert_eq!(seen, vec![NodeId(3), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn branching_past_a_full_tip_starts_a_fresh_chunk() {
        let mut env = CEnv::empty();
        for i in 0..CHUNK {
            env = env.push(NodeId(i as u32));
        }
        // Tip is full: both extensions land in (distinct) fresh chunks.
        let a = env.push(NodeId(100));
        let b = env.push(NodeId(200));
        assert_eq!(a.get_back(0), NodeId(100));
        assert_eq!(b.get_back(0), NodeId(200));
        assert_eq!(a.get_back(CHUNK as u32), NodeId(0));
        assert_eq!(a.len(), CHUNK + 1);
    }

    #[test]
    fn update_nodes_rewrites_every_view_of_a_shared_chunk() {
        let base = CEnv::empty().push(NodeId(1));
        let ext = base.push(NodeId(2));
        ext.update_nodes(&mut |n| NodeId(n.0 + 10));
        assert_eq!(slots(&ext), vec![NodeId(12), NodeId(11)]);
        assert_eq!(slots(&base), vec![NodeId(11)]);
    }
}
