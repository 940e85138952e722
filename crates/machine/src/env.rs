//! Machine environments: persistent maps from variables to heap nodes.
//!
//! The representation is a *chunked* persistent list: bindings are packed
//! into shared chunks of up to [`CHUNK`] entries, and an environment is a
//! `(chunk, length)` view of a chunk chain. Extending the tip of a chunk
//! that still has room appends in place (the old view, being shorter, is
//! unaffected), so a run of `bind`s costs one `Rc` allocation per `CHUNK`
//! bindings instead of one per binding — and lookup chases one pointer per
//! chunk instead of one per binding.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use urk_syntax::Symbol;

use crate::heap::NodeId;

/// Bindings per chunk. Machine environments are almost always shallow
/// (lambda params + a few lets), so one chunk covers the common case.
const CHUNK: usize = 16;

struct Chunk {
    /// Append-only within a chunk's lifetime: entries below any view's
    /// `len` are never mutated, so older (shorter) views stay valid.
    entries: RefCell<Vec<(Symbol, NodeId)>>,
    parent: MEnv,
}

/// A persistent environment: a view of the first `len` entries of `chunk`,
/// then everything in its parent chain.
#[derive(Clone, Default)]
pub struct MEnv {
    chunk: Option<Rc<Chunk>>,
    len: u32,
}

impl MEnv {
    /// The empty environment.
    pub fn empty() -> MEnv {
        MEnv {
            chunk: None,
            len: 0,
        }
    }

    /// Extends with one binding.
    pub fn bind(&self, name: Symbol, node: NodeId) -> MEnv {
        if let Some(c) = &self.chunk {
            let mut entries = c.entries.borrow_mut();
            // Only the *tip* view may append in place; a shorter view must
            // not graft its binding over entries it cannot see.
            if entries.len() == self.len as usize && entries.len() < CHUNK {
                entries.push((name, node));
                return MEnv {
                    chunk: self.chunk.clone(),
                    len: self.len + 1,
                };
            }
        }
        let mut entries = Vec::with_capacity(CHUNK);
        entries.push((name, node));
        MEnv {
            chunk: Some(Rc::new(Chunk {
                entries: RefCell::new(entries),
                parent: self.clone(),
            })),
            len: 1,
        }
    }

    /// Looks up a variable (innermost binding wins).
    pub fn lookup(&self, name: Symbol) -> Option<NodeId> {
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            let entries = c.entries.borrow();
            for (n, id) in entries[..len].iter().rev() {
                if *n == name {
                    return Some(*id);
                }
            }
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
        None
    }

    /// Number of bindings (diagnostics only).
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

    /// Visits every bound node (including shadowed bindings), outermost
    /// last. Used by the garbage collector's mark phase.
    pub fn for_each_node(&self, mut f: impl FnMut(NodeId)) {
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            let entries = c.entries.borrow();
            for (_, id) in entries[..len].iter().rev() {
                f(*id);
            }
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
    }

    /// Rewrites every bound node in place through `f`. Used by the copying
    /// minor collector to redirect nursery references to their tenured
    /// copies. `f` must be idempotent: shared chunks are reachable from
    /// several views and are rewritten once per view.
    pub fn update_nodes(&self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        let mut chunk = self.chunk.as_ref();
        let mut len = self.len as usize;
        while let Some(c) = chunk {
            {
                let mut entries = c.entries.borrow_mut();
                for (_, id) in entries[..len].iter_mut() {
                    *id = f(*id);
                }
            }
            chunk = c.parent.chunk.as_ref();
            len = c.parent.len as usize;
        }
    }
}

/// The node references an environment holds, as the collectors and the
/// run loop's GC hooks see them; both environment representations expose
/// them the same way.
pub(crate) trait NodeEnv: Clone {
    /// Visits every bound node.
    fn for_each_node(&self, f: impl FnMut(NodeId));
    /// Rewrites every bound node in place through `f` (idempotent).
    fn update_nodes(&self, f: &mut dyn FnMut(NodeId) -> NodeId);
}

impl NodeEnv for MEnv {
    fn for_each_node(&self, f: impl FnMut(NodeId)) {
        MEnv::for_each_node(self, f)
    }
    fn update_nodes(&self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        MEnv::update_nodes(self, f)
    }
}

impl NodeEnv for CEnv {
    fn for_each_node(&self, f: impl FnMut(NodeId)) {
        CEnv::for_each_node(self, f)
    }
    fn update_nodes(&self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        CEnv::update_nodes(self, f)
    }
}

impl std::fmt::Debug for MEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MEnv({} bindings)", self.len())
    }
}

struct CChunk {
    /// Append-only within a chunk's lifetime, as in [`Chunk`] — but
    /// stored inline as a fixed array, so starting a chunk is a single
    /// allocation (the `Rc`) instead of two. Only the first `init` slots
    /// are meaningful; slots below any view's `len` are never mutated.
    entries: RefCell<[NodeId; CHUNK]>,
    init: Cell<usize>,
    parent: CEnv,
}

/// The compiled backend's environment: the same chunked persistent
/// structure as [`MEnv`], minus the names. The compiler resolved every
/// variable to a back-index at compile time, so slots are addressed by
/// position — `get_back(k)` walks whole chunks instead of scanning
/// `Symbol` entries.
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

    /// Rewrites every slot in place through `f`, as [`MEnv::update_nodes`].
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

    #[test]
    fn bind_shadow_lookup() {
        let x = Symbol::intern("x");
        let env = MEnv::empty().bind(x, NodeId(1)).bind(x, NodeId(2));
        assert_eq!(env.lookup(x), Some(NodeId(2)));
        assert_eq!(env.lookup(Symbol::intern("y")), None);
        assert_eq!(env.len(), 2);
        assert!(MEnv::empty().is_empty());
    }

    #[test]
    fn older_views_are_unaffected_by_in_place_extension() {
        let a = Symbol::intern("a");
        let b = Symbol::intern("b");
        let base = MEnv::empty().bind(a, NodeId(1));
        // Extend the same tip twice: the two extensions must not see each
        // other, and `base` must see neither.
        let left = base.bind(b, NodeId(2));
        let right = base.bind(b, NodeId(3));
        assert_eq!(base.lookup(b), None);
        assert_eq!(left.lookup(b), Some(NodeId(2)));
        assert_eq!(right.lookup(b), Some(NodeId(3)));
        assert_eq!(left.lookup(a), Some(NodeId(1)));
        assert_eq!(right.lookup(a), Some(NodeId(1)));
        assert_eq!(base.len(), 1);
        assert_eq!(left.len(), 2);
        assert_eq!(right.len(), 2);
    }

    #[test]
    fn lookup_and_shadowing_across_chunk_boundaries() {
        let syms: Vec<Symbol> = (0..3 * CHUNK)
            .map(|i| Symbol::intern(&format!("v{i}")))
            .collect();
        let mut env = MEnv::empty();
        for (i, s) in syms.iter().enumerate() {
            env = env.bind(*s, NodeId(i as u32));
        }
        assert_eq!(env.len(), 3 * CHUNK);
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(env.lookup(*s), Some(NodeId(i as u32)), "v{i}");
        }
        // Shadow an early binding from the outermost chunk.
        let env2 = env.bind(syms[0], NodeId(999));
        assert_eq!(env2.lookup(syms[0]), Some(NodeId(999)));
        assert_eq!(env.lookup(syms[0]), Some(NodeId(0)));
    }

    #[test]
    fn for_each_node_visits_shadowed_bindings_innermost_first() {
        let x = Symbol::intern("x");
        let y = Symbol::intern("y");
        let env = MEnv::empty()
            .bind(x, NodeId(1))
            .bind(y, NodeId(2))
            .bind(x, NodeId(3));
        let mut seen = Vec::new();
        env.for_each_node(|n| seen.push(n));
        assert_eq!(seen, vec![NodeId(3), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn branching_past_a_full_tip_starts_a_fresh_chunk() {
        let mut env = MEnv::empty();
        for i in 0..CHUNK {
            env = env.bind(Symbol::intern(&format!("f{i}")), NodeId(i as u32));
        }
        // Tip is full: both extensions land in (distinct) fresh chunks.
        let a = env.bind(Symbol::intern("a"), NodeId(100));
        let b = env.bind(Symbol::intern("b"), NodeId(200));
        assert_eq!(a.lookup(Symbol::intern("a")), Some(NodeId(100)));
        assert_eq!(a.lookup(Symbol::intern("b")), None);
        assert_eq!(b.lookup(Symbol::intern("b")), Some(NodeId(200)));
        assert_eq!(b.lookup(Symbol::intern("a")), None);
        assert_eq!(a.lookup(Symbol::intern("f0")), Some(NodeId(0)));
        assert_eq!(a.len(), CHUNK + 1);
    }
}
