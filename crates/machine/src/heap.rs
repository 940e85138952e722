//! The generational graph-reduction heap.
//!
//! Two regions plus an unboxed immediate class, all addressed by a tagged
//! 32-bit [`NodeId`]:
//!
//! * **Immediates** — small integers and nullary constructors live directly
//!   in the id word (tag bit [`TAG_IMM`]); the hot path allocates nothing
//!   for them. This supersedes the old intern table.
//! * **Nursery** — a bump-allocated vector ([`TAG_AUX`] tag). Evaluation
//!   allocates here; a *minor* collection evacuates the live nursery graph
//!   into the tenured space and resets the bump pointer.
//! * **Tenured** — the old space: a growable arena with a free list swept
//!   by the full-heap *major* collector. Embedder-held nodes (program
//!   environments, resumable episode thunks, MVar slots) are allocated
//!   tenured directly so their ids stay stable across collections.
//!
//! Node kinds implement the paper's §3.3 machinery directly:
//!
//! * a [`Node::CThunk`] under evaluation is overwritten with a
//!   [`Node::CBlackhole`] (avoiding the "celebrated space leak");
//! * when a *synchronous* exception trims the stack past the thunk's update
//!   frame, the black hole is overwritten with [`Node::Poisoned`] — "if the
//!   thunk is evaluated again, the same exception will be raised again";
//! * when an *asynchronous* exception trims the stack (§5.1), the black
//!   hole is restored to a resumable thunk instead — the value can still be
//!   computed later.
//!
//! Evacuation preserves those invariants by construction: each nursery cell
//! is copied exactly once and replaced with a [`Node::Forwarded`] marker, so
//! every reference to an in-flight thunk (its `Update` frame, environments,
//! the machine's roots) is redirected to the *same* tenured copy — §5.1
//! resumable-thunk identity and §5.2 detectable black holes survive the
//! move. The remembered set records every tenured cell that may point into
//! the nursery, so minor collections never scan the whole old space.

use std::collections::HashSet;
use std::mem;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use urk_syntax::{Exception, Symbol};

use crate::code::CodeId;
use crate::env::CEnv;

/// Tag bit marking an immediate (unboxed) value packed into the id word.
pub const TAG_IMM: u32 = 1 << 31;
/// Secondary tag bit: with [`TAG_IMM`] it selects nullary-constructor
/// immediates (over small-int immediates); alone it marks a nursery
/// reference (over a tenured one).
pub const TAG_AUX: u32 = 1 << 30;
/// Mask for the 30-bit payload: an arena index, a small int, or a symbol.
pub const PAYLOAD: u32 = (1 << 30) - 1;

/// Smallest integer representable as an immediate.
pub const IMM_INT_MIN: i64 = -(1 << 29);
/// Largest integer representable as an immediate.
pub const IMM_INT_MAX: i64 = (1 << 29) - 1;

/// A tagged heap reference: an immediate value, a nursery index, or a
/// tenured index (see the module docs for the encoding).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// True for unboxed immediates (small ints and nullary constructors).
    #[inline]
    pub fn is_imm(self) -> bool {
        self.0 & TAG_IMM != 0
    }

    /// True for nursery references.
    #[inline]
    pub fn is_nursery(self) -> bool {
        self.0 & (TAG_IMM | TAG_AUX) == TAG_AUX
    }

    /// True for tenured references.
    #[inline]
    pub fn is_tenured(self) -> bool {
        self.0 & (TAG_IMM | TAG_AUX) == 0
    }

    /// Packs a small integer into an immediate id; `None` if out of range.
    #[inline]
    pub fn imm_int(n: i64) -> Option<NodeId> {
        if (IMM_INT_MIN..=IMM_INT_MAX).contains(&n) {
            Some(NodeId(TAG_IMM | (n as u32 & PAYLOAD)))
        } else {
            None
        }
    }

    /// Packs a nullary constructor into an immediate id; `None` if the
    /// symbol's interner index overflows the payload (practically never).
    #[inline]
    pub fn imm_con(sym: Symbol) -> Option<NodeId> {
        let raw = sym.raw();
        if raw <= PAYLOAD {
            Some(NodeId(TAG_IMM | TAG_AUX | raw))
        } else {
            None
        }
    }

    /// Decodes an immediate int (30-bit sign extension).
    #[inline]
    pub fn as_imm_int(self) -> Option<i64> {
        if self.0 & (TAG_IMM | TAG_AUX) == TAG_IMM {
            Some(((((self.0 & PAYLOAD) << 2) as i32) >> 2) as i64)
        } else {
            None
        }
    }

    /// Decodes an immediate nullary constructor.
    #[inline]
    pub fn as_imm_con(self) -> Option<Symbol> {
        if self.0 & (TAG_IMM | TAG_AUX) == TAG_IMM | TAG_AUX {
            Some(Symbol::from_raw(self.0 & PAYLOAD))
        } else {
            None
        }
    }

    /// The tenured cell of the linked program's global `g`: linking puts
    /// the globals in tenured cells `0..n`, in image order
    /// ([`Heap::append_globals`]).
    #[inline]
    pub(crate) fn global(g: u32) -> NodeId {
        NodeId(g)
    }

    /// The arena index for nursery/tenured references.
    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 & PAYLOAD) as usize
    }
}

/// A heap node.
#[derive(Clone, Debug)]
pub enum Node {
    /// An unevaluated suspension: flat code under its environment.
    CThunk { code: CodeId, env: CEnv },
    /// A thunk currently under evaluation. Keeps its payload so an
    /// asynchronous interruption can restore it (§5.1).
    CBlackhole { code: CodeId, env: CEnv },
    /// An indirection to the updated value.
    Ind(NodeId),
    /// A weak-head-normal-form value.
    Value(HValue),
    /// A thunk whose evaluation raised a synchronous exception; entering it
    /// re-raises (§3.3).
    Poisoned(Exception),
    /// A reclaimed tenured cell on the allocator's free list.
    Free { next: Option<NodeId> },
    /// A nursery cell evacuated by a minor collection, pointing at its
    /// tenured copy. Only ever observed *during* a collection; one found by
    /// [`Heap::audit`] afterwards is a stale forwarding pointer.
    Forwarded(NodeId),
}

/// A weak-head-normal-form value.
#[derive(Clone, Debug)]
pub enum HValue {
    /// A boxed integer (immediates cover `IMM_INT_MIN..=IMM_INT_MAX`).
    Int(i64),
    Char(char),
    Str(Rc<str>),
    /// A saturated constructor with lazy fields. Nullary constructors are
    /// normally immediate; a boxed nullary `Con` is still legal.
    Con(Symbol, Fields),
    /// A function closure; the body's code was compiled expecting its
    /// argument as the top environment slot.
    CFun {
        body: CodeId,
        env: CEnv,
    },
}

/// Fields stored inside the value; longer field lists are boxed.
const INLINE_FIELDS: usize = 2;

/// A constructor's fields: up to [`INLINE_FIELDS`] inside the value (a
/// cons cell, `Just`, `OK`/`Bad`), so building one allocates nothing
/// beyond its heap cell; longer lists in one boxed slice. Derefs to
/// `[NodeId]`; built by `collect` or from an array.
#[derive(Clone)]
pub struct Fields(FieldsRepr);

#[derive(Clone)]
enum FieldsRepr {
    Inline(u8, [NodeId; INLINE_FIELDS]),
    Boxed(Box<[NodeId]>),
}

impl Deref for Fields {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            FieldsRepr::Inline(n, ids) => &ids[..usize::from(*n)],
            FieldsRepr::Boxed(ids) => ids,
        }
    }
}

impl DerefMut for Fields {
    #[inline]
    fn deref_mut(&mut self) -> &mut [NodeId] {
        match &mut self.0 {
            FieldsRepr::Inline(n, ids) => &mut ids[..usize::from(*n)],
            FieldsRepr::Boxed(ids) => ids,
        }
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for Fields {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Fields {
        let mut iter = iter.into_iter();
        let mut ids = [NodeId(0); INLINE_FIELDS];
        for n in 0..INLINE_FIELDS {
            match iter.next() {
                Some(id) => ids[n] = id,
                None => return Fields(FieldsRepr::Inline(n as u8, ids)),
            }
        }
        match iter.next() {
            None => Fields(FieldsRepr::Inline(INLINE_FIELDS as u8, ids)),
            Some(id) => Fields(FieldsRepr::Boxed(
                ids.into_iter().chain([id]).chain(iter).collect(),
            )),
        }
    }
}

impl<const N: usize> From<[NodeId; N]> for Fields {
    fn from(ids: [NodeId; N]) -> Fields {
        ids.into_iter().collect()
    }
}

/// A weak-head-normal-form view of a node, unifying unboxed immediates
/// with boxed [`HValue`]s. Produced by [`Heap::whnf`].
#[derive(Debug)]
pub enum Whnf<'a> {
    Int(i64),
    Char(char),
    Str(&'a Rc<str>),
    Con(Symbol, &'a [NodeId]),
    CFun { body: CodeId, env: &'a CEnv },
}

/// What a minor collection did: how many nursery cells were promoted into
/// the tenured space and how many died in the nursery.
#[derive(Copy, Clone, Debug, Default)]
pub struct MinorOutcome {
    /// Live nursery cells evacuated into the tenured space.
    pub promoted: u64,
    /// Nursery cells reclaimed (dead at collection time).
    pub freed: u64,
}

/// The root-rewriting callback [`Heap::collect_minor`] hands back to its
/// caller: it must apply the supplied evacuation function to every root
/// the caller holds.
pub type RootRewriter<'a> = dyn FnMut(&mut dyn FnMut(NodeId) -> NodeId) + 'a;

/// The generational heap: a bump-allocated nursery, a tenured arena with a
/// free list, and the remembered set of tenured cells that may hold
/// nursery references.
#[derive(Default, Debug)]
pub struct Heap {
    tenured: Vec<Node>,
    free: Option<NodeId>,
    tenured_live: usize,
    nursery: Vec<Node>,
    /// Tenured cells that may reference the nursery (duplicates allowed;
    /// consumed by the next minor collection).
    remembered: Vec<NodeId>,
    /// Cumulative tenured allocations served from the free list (the
    /// machine samples deltas into `Stats::freelist_reuses`).
    reuses: u64,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// The heap's three vectors, for a later heap to
    /// [`adopt`](Heap::adopt) once they are emptied.
    pub(crate) fn into_buffers(self) -> (Vec<Node>, Vec<Node>, Vec<NodeId>) {
        (self.tenured, self.nursery, self.remembered)
    }

    /// Takes over emptied vectors as this heap's own, so it grows into
    /// their capacity. Only a heap that has allocated nothing may adopt:
    /// it stays the same empty heap.
    pub(crate) fn adopt(
        &mut self,
        tenured: Vec<Node>,
        nursery: Vec<Node>,
        remembered: Vec<NodeId>,
    ) {
        assert!(
            self.is_empty() && self.remembered.is_empty(),
            "only an empty heap adopts buffers"
        );
        assert!(
            tenured.is_empty() && nursery.is_empty() && remembered.is_empty(),
            "adopted buffers must be empty"
        );
        self.tenured = tenured;
        self.nursery = nursery;
        self.remembered = remembered;
    }

    /// Bump-allocates a node in the nursery.
    #[inline]
    pub fn alloc(&mut self, node: Node) -> NodeId {
        let idx = self.nursery.len();
        assert!(idx < PAYLOAD as usize, "nursery exhausted");
        self.nursery.push(node);
        NodeId(TAG_AUX | idx as u32)
    }

    fn alloc_tenured_raw(&mut self, node: Node) -> NodeId {
        self.tenured_live += 1;
        if let Some(id) = self.free {
            let Node::Free { next } = self.tenured[id.index()] else {
                unreachable!("free list corrupted");
            };
            self.free = next;
            self.reuses += 1;
            self.tenured[id.index()] = node;
            return id;
        }
        let idx = self.tenured.len();
        assert!(idx < PAYLOAD as usize, "tenured space exhausted");
        self.tenured.push(node);
        NodeId(idx as u32)
    }

    /// Appends the program's globals to an empty heap, as tenured cells
    /// `0..n` ([`NodeId::global`]), in one `extend`; returns `n`. The cells
    /// are not remembered: a global's initial node must hold no nursery
    /// reference (a global thunk's environment is empty).
    pub(crate) fn append_globals(&mut self, globals: impl ExactSizeIterator<Item = Node>) -> usize {
        assert!(self.is_empty(), "globals are linked into an empty heap");
        let n = globals.len();
        assert!(n < PAYLOAD as usize, "tenured space exhausted");
        self.tenured.extend(globals);
        self.tenured_live += n;
        n
    }

    /// Allocates directly in the tenured space, for nodes the embedder
    /// holds across evaluations: the returned id is stable (the tenured
    /// collector never moves cells). The cell is added to the remembered
    /// set in case `node` carries nursery references.
    pub fn alloc_tenured(&mut self, node: Node) -> NodeId {
        let id = self.alloc_tenured_raw(node);
        self.remembered.push(id);
        id
    }

    /// Moves the representative of `id` out of the nursery, returning a
    /// stable tenured (or immediate) id. Used to tenure evaluation results
    /// that escape to the embedder.
    pub fn promote(&mut self, id: NodeId) -> NodeId {
        let r = self.resolve(id);
        if !r.is_nursery() {
            return r;
        }
        let i = r.index();
        let node = mem::replace(&mut self.nursery[i], Node::Free { next: None });
        let t = self.alloc_tenured(node);
        self.nursery[i] = Node::Ind(t);
        t
    }

    /// Total heap size in cells across both regions (including free
    /// tenured cells).
    pub fn len(&self) -> usize {
        self.tenured.len() + self.nursery.len()
    }

    /// Tenured arena size in cells (for the major collector's mark table).
    pub fn tenured_len(&self) -> usize {
        self.tenured.len()
    }

    /// Cells currently in the nursery (the minor-collection trigger).
    pub fn nursery_len(&self) -> usize {
        self.nursery.len()
    }

    /// Cumulative tenured allocations served from the free list.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Number of live (non-free) cells across both regions.
    pub fn live(&self) -> usize {
        self.tenured_live + self.nursery.len()
    }

    /// Installs the tenured free list after a major sweep.
    pub(crate) fn set_free_list(&mut self, head: Option<NodeId>, freed: u64) {
        self.free = head;
        self.tenured_live = self.tenured_live.saturating_sub(freed as usize);
    }

    /// The current free-list head (for the major collector).
    pub(crate) fn free_list(&self) -> Option<NodeId> {
        self.free
    }

    /// Major-sweep write: turns a tenured cell into a free-list link
    /// without touching the remembered set (a freed cell has no edges).
    pub(crate) fn set_swept(&mut self, id: NodeId, next: Option<NodeId>) {
        debug_assert!(id.is_tenured());
        self.tenured[id.index()] = Node::Free { next };
    }

    /// True if nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.tenured.is_empty() && self.nursery.is_empty()
    }

    /// Reads a node (following no indirections).
    ///
    /// # Panics
    ///
    /// Panics on an immediate id: immediates have no cell. Callers decode
    /// them first (or go through [`Heap::whnf`]).
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node {
        if id.is_nursery() {
            &self.nursery[id.index()]
        } else {
            assert!(id.is_tenured(), "get() on immediate id {:#010x}", id.0);
            &self.tenured[id.index()]
        }
    }

    /// Overwrites a node. Writing a tenured cell records it in the
    /// remembered set (the new node may carry nursery references).
    #[inline]
    pub fn set(&mut self, id: NodeId, node: Node) {
        if id.is_nursery() {
            self.nursery[id.index()] = node;
        } else {
            assert!(id.is_tenured(), "set() on immediate id {:#010x}", id.0);
            self.tenured[id.index()] = node;
            self.remembered.push(id);
        }
    }

    /// Follows indirections to the representative node (immediates are
    /// their own representative).
    #[inline]
    pub fn resolve(&self, mut id: NodeId) -> NodeId {
        while !id.is_imm() {
            match self.get(id) {
                Node::Ind(next) => id = *next,
                _ => break,
            }
        }
        id
    }

    /// `id`'s representative if it is forced (an immediate or a value
    /// cell); `None` while it is still a suspension.
    #[inline(always)]
    pub(crate) fn forced(&self, id: NodeId) -> Option<NodeId> {
        let n = self.resolve(id);
        (n.is_imm() || matches!(self.get(n), Node::Value(_))).then_some(n)
    }

    /// The weak-head-normal-form view of `id`, following indirections and
    /// decoding immediates; `None` if the node is not in WHNF.
    pub fn whnf(&self, id: NodeId) -> Option<Whnf<'_>> {
        // Resolve first: an updated thunk is an `Ind` that may point at an
        // immediate.
        let id = self.resolve(id);
        if let Some(n) = id.as_imm_int() {
            return Some(Whnf::Int(n));
        }
        if let Some(sym) = id.as_imm_con() {
            return Some(Whnf::Con(sym, &[]));
        }
        match self.get(id) {
            Node::Value(v) => Some(match v {
                HValue::Int(n) => Whnf::Int(*n),
                HValue::Char(c) => Whnf::Char(*c),
                HValue::Str(s) => Whnf::Str(s),
                HValue::Con(sym, fields) => Whnf::Con(*sym, fields),
                HValue::CFun { body, env } => Whnf::CFun { body: *body, env },
            }),
            _ => None,
        }
    }

    /// Evacuates one reference for the minor collector: immediates and
    /// tenured ids pass through (making the function idempotent); a nursery
    /// id is chased through `Ind`/`Forwarded` chains, its representative is
    /// copied into the tenured space exactly once, and every chain cell is
    /// backpatched to forward to the copy — preserving sharing and §5.1
    /// thunk identity.
    fn evacuate(&mut self, id: NodeId, queue: &mut Vec<NodeId>) -> NodeId {
        if !id.is_nursery() {
            return id;
        }
        let mut chain: Vec<u32> = Vec::new();
        let mut cur = id;
        let dest = loop {
            if !cur.is_nursery() {
                break cur;
            }
            let i = cur.index();
            match &self.nursery[i] {
                Node::Forwarded(d) => break *d,
                Node::Ind(next) => {
                    assert!(
                        chain.len() <= self.nursery.len(),
                        "nursery indirection cycle"
                    );
                    chain.push(i as u32);
                    cur = *next;
                }
                _ => {
                    let node = mem::replace(&mut self.nursery[i], Node::Forwarded(NodeId(0)));
                    let t = self.alloc_tenured_raw(node);
                    self.nursery[i] = Node::Forwarded(t);
                    queue.push(t);
                    break t;
                }
            }
        };
        for i in chain {
            self.nursery[i as usize] = Node::Forwarded(dest);
        }
        dest
    }

    /// Runs a minor collection: evacuates the nursery graph reachable from
    /// the machine roots and the remembered set into the tenured space,
    /// then resets the nursery bump pointer.
    ///
    /// `rewrite_roots` must apply the supplied evacuation function to every
    /// root the caller holds (machine roots, the current control, every
    /// stack frame) — any nursery id not rewritten is dangling afterwards.
    pub fn collect_minor(&mut self, rewrite_roots: &mut RootRewriter<'_>) -> MinorOutcome {
        let nursery_before = self.nursery.len() as u64;
        let tenured_live_before = self.tenured_live;
        // The remembered set seeds the scan queue: those tenured cells may
        // hold nursery references and must be scavenged even though no
        // root reaches the nursery through them directly.
        let mut queue = mem::take(&mut self.remembered);
        rewrite_roots(&mut |id| self.evacuate(id, &mut queue));
        // Cheney-style scan: every queued tenured cell gets its children
        // evacuated; evacuation queues the new copies in turn.
        while let Some(t) = queue.pop() {
            debug_assert!(t.is_tenured());
            let idx = t.index();
            // Take the node out so its children can be rewritten while the
            // evacuator mutates the heap. The placeholder is *not* on the
            // free list, so a freelist allocation cannot hand it out.
            let mut node = mem::replace(&mut self.tenured[idx], Node::Free { next: None });
            rewrite_node_children(&mut node, &mut |id| self.evacuate(id, &mut queue));
            self.tenured[idx] = node;
        }
        self.nursery.clear();
        let promoted = (self.tenured_live - tenured_live_before) as u64;
        MinorOutcome {
            promoted,
            freed: nursery_before - promoted,
        }
    }

    /// Chaos hook: plants a stale [`Node::Forwarded`] cell in the tenured
    /// space, modelling an evacuation that leaked its forwarding pointer
    /// into the old space. Benign to execution (the cell is unreachable)
    /// but a guaranteed [`Heap::audit`] finding — the self-test that the
    /// generational audit actually detects forwarding corruption.
    pub fn plant_stale_forwarding(&mut self) {
        let _ = self.alloc_tenured_raw(Node::Forwarded(NodeId(0)));
    }

    /// Audits the heap's structural invariants (see [`HeapAudit`]).
    ///
    /// Only meaningful *between* evaluation episodes: mid-episode black
    /// holes are the normal marker for thunks under evaluation, and a run
    /// abandoned by `Err(StepLimit)` legitimately strands them. After a
    /// completed episode — including one trimmed by an asynchronous
    /// exception — every black hole must have been updated, poisoned, or
    /// restored (§5.1), so `blackholes` must be zero. Generational rules:
    /// no `Forwarded` cell may survive a collection, the nursery holds no
    /// free cells, every tenured→nursery edge is remembered, and each
    /// region's free/live accounting agrees with its arena.
    pub fn audit(&self) -> HeapAudit {
        fn push(
            findings: &mut Vec<AuditFinding>,
            suppressed: &mut usize,
            node: Option<NodeId>,
            kind: &'static str,
            reason: String,
        ) {
            if findings.len() < MAX_AUDIT_FINDINGS {
                findings.push(AuditFinding { node, kind, reason });
            } else {
                *suppressed += 1;
            }
        }
        let mut blackholes = 0usize;
        let mut free_nodes = 0usize;
        let mut findings: Vec<AuditFinding> = Vec::new();
        let mut suppressed = 0usize;
        let remembered: HashSet<u32> = self.remembered.iter().map(|id| id.0).collect();
        // Tenured region.
        for (i, node) in self.tenured.iter().enumerate() {
            let id = NodeId(i as u32);
            match node {
                Node::Free { .. } => {
                    free_nodes += 1;
                    continue;
                }
                Node::CBlackhole { .. } => {
                    blackholes += 1;
                    push(
                        &mut findings,
                        &mut suppressed,
                        Some(id),
                        node_kind_name(node),
                        "stranded black hole: the in-flight thunk was neither updated, \
                         poisoned (§3.3), nor restored (§5.1)"
                            .to_string(),
                    );
                }
                Node::Forwarded(_) => {
                    push(
                        &mut findings,
                        &mut suppressed,
                        Some(id),
                        "Forwarded",
                        "stale forwarding pointer in the tenured space: evacuation \
                         must never leak Forwarded cells past a collection"
                            .to_string(),
                    );
                }
                _ => {}
            }
            let nursery_child = self.audit_children(&mut findings, &mut suppressed, id, node);
            if nursery_child && !remembered.contains(&id.0) {
                push(
                    &mut findings,
                    &mut suppressed,
                    Some(id),
                    node_kind_name(node),
                    "remembered-set gap: tenured cell holds a nursery reference but \
                     is not in the remembered set"
                        .to_string(),
                );
            }
        }
        // Nursery region.
        for (i, node) in self.nursery.iter().enumerate() {
            let id = NodeId(TAG_AUX | i as u32);
            match node {
                Node::CBlackhole { .. } => {
                    blackholes += 1;
                    push(
                        &mut findings,
                        &mut suppressed,
                        Some(id),
                        node_kind_name(node),
                        "stranded black hole in the nursery: the in-flight thunk was \
                         neither updated, poisoned (§3.3), nor restored (§5.1)"
                            .to_string(),
                    );
                }
                Node::Free { .. } => {
                    push(
                        &mut findings,
                        &mut suppressed,
                        Some(id),
                        "Free",
                        "free cell in the bump nursery: nursery cells are reclaimed \
                         wholesale by minor collections, never individually"
                            .to_string(),
                    );
                }
                Node::Forwarded(_) => {
                    push(
                        &mut findings,
                        &mut suppressed,
                        Some(id),
                        "Forwarded",
                        "stale forwarding pointer in the nursery: a minor collection \
                         must clear the nursery it evacuated"
                            .to_string(),
                    );
                }
                _ => {}
            }
            self.audit_children(&mut findings, &mut suppressed, id, node);
        }
        if suppressed > 0 {
            findings.push(AuditFinding {
                node: None,
                kind: "summary",
                reason: format!(
                    "… and {suppressed} more findings (report capped at {MAX_AUDIT_FINDINGS})"
                ),
            });
        }
        // Walk the free list with a cycle guard: a corrupted list must
        // surface as an inconsistency, not an infinite loop.
        let mut free_list_len = 0usize;
        let mut cursor = self.free;
        while let Some(id) = cursor {
            free_list_len += 1;
            if free_list_len > self.tenured.len() {
                findings.push(AuditFinding {
                    node: Some(id),
                    kind: "Free",
                    reason: "free-list cycle: the walk revisited cells past the arena size"
                        .to_string(),
                });
                break;
            }
            cursor = match &self.tenured[id.index()] {
                Node::Free { next } => *next,
                other => {
                    findings.push(AuditFinding {
                        node: Some(id),
                        kind: node_kind_name(other),
                        reason: "free-list corruption: the list reached a non-free cell"
                            .to_string(),
                    });
                    break;
                }
            };
        }
        if free_nodes != free_list_len {
            findings.push(AuditFinding {
                node: None,
                kind: "Free",
                reason: format!(
                    "free-cell mismatch: {free_nodes} free cells in the tenured arena \
                     but {free_list_len} reachable from the free list"
                ),
            });
        }
        let tenured_actual = self.tenured.len() - free_nodes;
        if self.tenured_live != tenured_actual {
            findings.push(AuditFinding {
                node: None,
                kind: "counter",
                reason: format!(
                    "live-counter drift: allocator believes {} live tenured cells, \
                     arena holds {tenured_actual}",
                    self.tenured_live
                ),
            });
        }
        HeapAudit {
            blackholes,
            free_nodes,
            free_list_len,
            live_count: self.tenured_live + self.nursery.len(),
            live_actual: tenured_actual + self.nursery.len(),
            nursery_nodes: self.nursery.len(),
            remembered_len: self.remembered.len(),
            findings,
        }
    }

    /// Audit helper: checks every child reference of `node` for dangling
    /// or freed targets. Returns true if any child is a nursery reference
    /// (the caller checks the remembered set for tenured parents).
    fn audit_children(
        &self,
        findings: &mut Vec<AuditFinding>,
        suppressed: &mut usize,
        id: NodeId,
        node: &Node,
    ) -> bool {
        let mut nursery_child = false;
        for_each_child(node, |c| {
            if c.is_imm() {
                return;
            }
            let (kind, reason) = if c.is_nursery() {
                nursery_child = true;
                if c.index() >= self.nursery.len() {
                    (
                        node_kind_name(node),
                        format!(
                            "dangling nursery reference {:#010x} past the nursery ({} cells)",
                            c.0,
                            self.nursery.len()
                        ),
                    )
                } else {
                    return;
                }
            } else if c.index() >= self.tenured.len() {
                (
                    node_kind_name(node),
                    format!(
                        "dangling tenured reference {} past the arena ({} cells)",
                        c.0,
                        self.tenured.len()
                    ),
                )
            } else if matches!(self.tenured[c.index()], Node::Free { .. }) {
                (
                    node_kind_name(node),
                    format!("live cell references freed tenured cell {}", c.0),
                )
            } else {
                return;
            };
            if findings.len() < MAX_AUDIT_FINDINGS {
                findings.push(AuditFinding {
                    node: Some(id),
                    kind,
                    reason,
                });
            } else {
                *suppressed += 1;
            }
        });
        nursery_child
    }
}

/// Rewrites every child reference of `node` in place through `f`. Spilled
/// environment chunks are reachable from several nodes, so `f` must be
/// idempotent (the minor collector's evacuation function is).
pub(crate) fn rewrite_node_children(node: &mut Node, f: &mut dyn FnMut(NodeId) -> NodeId) {
    match node {
        Node::CThunk { env, .. } | Node::CBlackhole { env, .. } => env.update_nodes(f),
        Node::Ind(n) => *n = f(*n),
        Node::Value(v) => match v {
            HValue::Con(_, fields) => {
                for x in fields.iter_mut() {
                    *x = f(*x);
                }
            }
            HValue::CFun { env, .. } => env.update_nodes(f),
            HValue::Int(_) | HValue::Char(_) | HValue::Str(_) => {}
        },
        Node::Poisoned(_) | Node::Free { .. } | Node::Forwarded(_) => {}
    }
}

/// Visits every child reference of `node` (read-only, for the audit).
fn for_each_child(node: &Node, mut f: impl FnMut(NodeId)) {
    match node {
        Node::CThunk { env, .. } | Node::CBlackhole { env, .. } => env.for_each_node(f),
        Node::Ind(n) | Node::Forwarded(n) => f(*n),
        Node::Value(v) => match v {
            HValue::Con(_, fields) => {
                for x in fields.iter() {
                    f(*x);
                }
            }
            HValue::CFun { env, .. } => env.for_each_node(f),
            HValue::Int(_) | HValue::Char(_) | HValue::Str(_) => {}
        },
        Node::Poisoned(_) | Node::Free { .. } => {}
    }
}

/// Cap on per-node entries in [`HeapAudit::findings`]; past it a single
/// summary entry carries the remainder count.
pub const MAX_AUDIT_FINDINGS: usize = 16;

fn node_kind_name(n: &Node) -> &'static str {
    match n {
        Node::CThunk { .. } => "CThunk",
        Node::CBlackhole { .. } => "CBlackhole",
        Node::Ind(_) => "Ind",
        Node::Value(_) => "Value",
        Node::Poisoned(_) => "Poisoned",
        Node::Free { .. } => "Free",
        Node::Forwarded(_) => "Forwarded",
    }
}

/// One concrete inconsistency found by [`Heap::audit`]: which node (when
/// attributable to one), what kind of cell it was, and why it violates the
/// invariant — enough to diagnose a fuzz or soak counterexample without a
/// debugger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditFinding {
    /// The offending cell, or `None` for whole-heap findings (counter
    /// drift, aggregate mismatches).
    pub node: Option<NodeId>,
    /// The node-kind name (`"CBlackhole"`, `"Free"`, ...), `"counter"`, or
    /// `"summary"`.
    pub kind: &'static str,
    /// Human-readable explanation of the violated invariant.
    pub reason: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(id) => write!(f, "node {:#010x} [{}]: {}", id.0, self.kind, self.reason),
            None => write!(f, "[{}]: {}", self.kind, self.reason),
        }
    }
}

/// A consistency report over the whole heap, produced by [`Heap::audit`].
///
/// The chaos driver checks this after every fault-injected episode: a
/// stranded black hole means an asynchronous trim failed to restore an
/// in-flight thunk (the §5.1 invariant), a stale `Forwarded` cell means an
/// evacuation leaked, a remembered-set gap means the next minor collection
/// would miss an edge, and a free-list/live-counter mismatch means the
/// allocator would misbehave on the next request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapAudit {
    /// Black-hole cells present (both regions). Must be zero between
    /// episodes.
    pub blackholes: usize,
    /// `Node::Free` cells present in the tenured arena.
    pub free_nodes: usize,
    /// Cells reachable by walking the free list (cycle-guarded).
    pub free_list_len: usize,
    /// The allocator's live counter (tenured live + nursery cells).
    pub live_count: usize,
    /// Actual non-free cells across both regions.
    pub live_actual: usize,
    /// Cells currently in the nursery.
    pub nursery_nodes: usize,
    /// Entries in the remembered set (duplicates included).
    pub remembered_len: usize,
    /// The concrete inconsistencies, one [`AuditFinding`] each (per-node
    /// entries capped at [`MAX_AUDIT_FINDINGS`]). Empty iff
    /// [`HeapAudit::is_consistent`] holds.
    pub findings: Vec<AuditFinding>,
}

impl HeapAudit {
    /// True if the heap is safe to reuse for another episode: no stranded
    /// black holes, no stale forwarding pointers, every tenured→nursery
    /// edge remembered, and each region's accounting in agreement with its
    /// arena.
    pub fn is_consistent(&self) -> bool {
        self.findings.is_empty() && self.blackholes == 0
    }

    /// The audit as a `Result`, for callers that want the old
    /// error-message shape: `Ok` when consistent, otherwise the rendered
    /// report (`Display`) as the error.
    ///
    /// # Errors
    ///
    /// The full multi-line report when any invariant is violated.
    pub fn into_result(self) -> Result<(), String> {
        if self.is_consistent() {
            Ok(())
        } else {
            Err(self.to_string())
        }
    }
}

/// Renders the structured report: one summary line with the counts, then
/// one line per finding. A consistent audit renders as a single line.
impl std::fmt::Display for HeapAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "heap audit: {} ({} blackholes, {} free / {} on free list, live {} counted / {} \
             actual, {} in nursery, {} remembered)",
            if self.is_consistent() {
                "consistent"
            } else {
                "INCONSISTENT"
            },
            self.blackholes,
            self.free_nodes,
            self.free_list_len,
            self.live_count,
            self.live_actual,
            self.nursery_nodes,
            self.remembered_len,
        )?;
        for finding in &self.findings {
            write!(f, "\n  - {finding}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_ints_round_trip_across_the_range() {
        for n in [IMM_INT_MIN, -1, 0, 1, 42, IMM_INT_MAX] {
            let id = NodeId::imm_int(n).expect("in range");
            assert!(id.is_imm());
            assert!(!id.is_nursery());
            assert!(!id.is_tenured());
            assert_eq!(id.as_imm_int(), Some(n), "{n}");
            assert_eq!(id.as_imm_con(), None);
        }
        assert_eq!(NodeId::imm_int(IMM_INT_MAX + 1), None);
        assert_eq!(NodeId::imm_int(IMM_INT_MIN - 1), None);
        assert_eq!(NodeId::imm_int(i64::MAX), None);
        assert_eq!(NodeId::imm_int(i64::MIN), None);
    }

    #[test]
    fn immediate_constructors_round_trip() {
        let t = Symbol::intern("True");
        let id = NodeId::imm_con(t).expect("interner index fits");
        assert!(id.is_imm());
        assert_eq!(id.as_imm_con(), Some(t));
        assert_eq!(id.as_imm_int(), None);
        // Distinct constructors get distinct immediates.
        let f = Symbol::intern("False");
        assert_ne!(NodeId::imm_con(f), Some(id));
    }

    #[test]
    fn region_tags_are_disjoint() {
        let mut heap = Heap::new();
        let n = heap.alloc(Node::Value(HValue::Int(1_000_000_000)));
        let t = heap.alloc_tenured(Node::Value(HValue::Int(2_000_000_000)));
        let i = NodeId::imm_int(7).unwrap();
        assert!(n.is_nursery() && !n.is_tenured() && !n.is_imm());
        assert!(t.is_tenured() && !t.is_nursery() && !t.is_imm());
        assert!(i.is_imm() && !i.is_nursery() && !i.is_tenured());
        assert!(matches!(heap.whnf(n), Some(Whnf::Int(1_000_000_000))));
        assert!(matches!(heap.whnf(t), Some(Whnf::Int(2_000_000_000))));
        assert!(matches!(heap.whnf(i), Some(Whnf::Int(7))));
    }

    #[test]
    fn alloc_get_set_resolve() {
        let mut heap = Heap::new();
        let a = heap.alloc(Node::Value(HValue::Int(1)));
        let b = heap.alloc(Node::Ind(a));
        let c = heap.alloc(Node::Ind(b));
        assert_eq!(heap.resolve(c), a);
        assert!(matches!(heap.whnf(c), Some(Whnf::Int(1))));
        heap.set(a, Node::Value(HValue::Int(2)));
        assert!(matches!(heap.whnf(c), Some(Whnf::Int(2))));
        assert_eq!(heap.len(), 3);
        assert!(!heap.is_empty());
    }

    #[test]
    fn whnf_through_an_indirection_to_an_immediate() {
        // An update frame overwrites a thunk whose value is immediate with
        // `Ind(imm)`.
        let mut heap = Heap::new();
        let seven = heap.alloc(Node::Ind(NodeId::imm_int(7).unwrap()));
        assert!(matches!(heap.whnf(seven), Some(Whnf::Int(7))));
        let t = Symbol::intern("True");
        let yes = heap.alloc_tenured(Node::Ind(NodeId::imm_con(t).unwrap()));
        assert!(matches!(heap.whnf(yes), Some(Whnf::Con(c, [])) if c == t));
    }

    #[test]
    fn minor_collection_promotes_roots_and_remembered_edges() {
        let mut heap = Heap::new();
        let kept = heap.alloc(Node::Value(HValue::Int(10)));
        let _dead = heap.alloc(Node::Value(HValue::Int(11)));
        let field = heap.alloc(Node::Value(HValue::Int(12)));
        // A tenured cell pointing into the nursery: `set` must remember it.
        let holder = heap.alloc_tenured(Node::Value(HValue::Int(0)));
        heap.set(
            holder,
            Node::Value(HValue::Con(Symbol::intern("Box"), [field].into())),
        );
        let mut root = kept;
        let outcome = heap.collect_minor(&mut |f| root = f(root));
        assert_eq!(outcome.promoted, 2, "kept + field survive");
        assert_eq!(outcome.freed, 1, "dead cell reclaimed");
        assert_eq!(heap.nursery_len(), 0);
        assert!(root.is_tenured());
        assert!(matches!(heap.whnf(root), Some(Whnf::Int(10))));
        let Some(Whnf::Con(_, fields)) = heap.whnf(holder) else {
            panic!("holder survives in place");
        };
        assert!(fields[0].is_tenured(), "remembered edge was evacuated");
        assert!(matches!(heap.whnf(fields[0]), Some(Whnf::Int(12))));
        assert!(heap.audit().is_consistent(), "{}", heap.audit());
    }

    #[test]
    fn evacuation_preserves_sharing_and_collapses_indirection_chains() {
        let mut heap = Heap::new();
        let v = heap.alloc(Node::Value(HValue::Int(5)));
        let i1 = heap.alloc(Node::Ind(v));
        let i2 = heap.alloc(Node::Ind(i1));
        let mut roots = [v, i1, i2];
        heap.collect_minor(&mut |f| {
            for r in roots.iter_mut() {
                *r = f(*r);
            }
        });
        // All three roots collapse to the single tenured copy.
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[1], roots[2]);
        assert!(roots[0].is_tenured());
        assert!(matches!(heap.whnf(roots[0]), Some(Whnf::Int(5))));
        assert!(heap.audit().is_consistent());
    }

    #[test]
    fn promote_gives_a_stable_tenured_id() {
        let mut heap = Heap::new();
        let n = heap.alloc(Node::Value(HValue::Int(9)));
        let t = heap.promote(n);
        assert!(t.is_tenured());
        assert_eq!(heap.resolve(n), t, "nursery cell forwards via Ind");
        // Promoting again is a no-op.
        assert_eq!(heap.promote(t), t);
        // Immediates promote to themselves.
        let i = NodeId::imm_int(3).unwrap();
        assert_eq!(heap.promote(i), i);
        // A collection with no roots keeps the promoted cell alive (it is
        // remembered) and the id keeps working.
        heap.collect_minor(&mut |_f| {});
        assert!(matches!(heap.whnf(t), Some(Whnf::Int(9))));
    }

    #[test]
    fn a_planted_stale_forwarding_pointer_fails_the_audit() {
        let mut heap = Heap::new();
        let keep = heap.alloc(Node::Value(HValue::Int(1)));
        let mut root = keep;
        heap.collect_minor(&mut |f| root = f(root));
        assert!(heap.audit().is_consistent());
        heap.plant_stale_forwarding();
        let audit = heap.audit();
        assert!(!audit.is_consistent());
        assert!(
            audit.findings.iter().any(|f| f.kind == "Forwarded"),
            "{audit}"
        );
        assert!(audit.into_result().is_err());
    }

    #[test]
    fn remembered_set_gap_is_an_audit_finding() {
        let mut heap = Heap::new();
        let field = heap.alloc(Node::Value(HValue::Int(1)));
        let holder = heap.alloc_tenured(Node::Value(HValue::Con(
            Symbol::intern("Box"),
            [field].into(),
        )));
        assert!(heap.audit().is_consistent(), "alloc_tenured remembers");
        // Wipe the remembered set behind the heap's back: the audit must
        // notice the unrecorded tenured→nursery edge.
        heap.remembered.clear();
        let audit = heap.audit();
        assert!(!audit.is_consistent());
        assert!(
            audit
                .findings
                .iter()
                .any(|f| f.reason.contains("remembered-set gap")),
            "{audit}"
        );
        let _ = holder;
    }
}
