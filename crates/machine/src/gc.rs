//! The stop-the-world mark-sweep collector for the *tenured* region.
//!
//! Minor collections (the copying nursery evacuation) live in
//! [`crate::heap::Heap::collect_minor`]; this module is the major-collection
//! fallback that reclaims tenured garbage. Tenured identifiers are stable
//! across collections (environments hold `NodeId`s inside shared persistent
//! lists, so a compacting old space would have to rewrite aliased
//! structures). Swept cells become [`Node::Free`] links in a free list and
//! are reused by subsequent tenured allocations.
//!
//! A major collection always runs *after* a minor one, so the nursery is
//! empty and every reachable reference is an immediate or a tenured id —
//! the mark table is indexed by tenured index alone.
//!
//! Roots come from four places:
//!
//! * the linked program's globals, tenured cells `0..n`, live for the
//!   machine's whole life;
//! * the machine's *registered* roots ([`crate::Machine::push_root`]) —
//!   nodes the embedder (e.g. the IO runner's pending continuations)
//!   still needs;
//! * the run loop's transient roots (current control and every stack
//!   frame), passed in by the stepper when a collection triggers
//!   mid-evaluation;
//! * nothing else: unreachable thunks, values, and poisoned cells are
//!   reclaimed.

use crate::env::CEnv;
use crate::heap::{HValue, Heap, Node, NodeId};

/// Mark-phase worklist traversal over a root set.
pub(crate) struct Collector {
    marks: Vec<bool>,
    worklist: Vec<NodeId>,
}

impl Collector {
    /// `tenured_len` is [`Heap::tenured_len`]: the mark table covers the
    /// tenured arena only.
    pub(crate) fn new(tenured_len: usize) -> Collector {
        Collector {
            marks: vec![false; tenured_len],
            worklist: Vec::with_capacity(256),
        }
    }

    pub(crate) fn mark_root(&mut self, id: NodeId) {
        // Immediates have no cell; nursery ids cannot occur (a major
        // collection runs against an evacuated, empty nursery).
        if !id.is_tenured() {
            return;
        }
        let i = id.index();
        if i < self.marks.len() && !self.marks[i] {
            self.marks[i] = true;
            self.worklist.push(id);
        }
    }

    /// Marks every node an environment binds.
    pub(crate) fn mark_env(&mut self, env: &CEnv) {
        // Persistent environments share tails; marking stops at already
        // visited nodes only per-binding (tail sharing just re-marks
        // cheaply — bindings are few and the check is O(1)).
        env.for_each_node(|n| self.mark_root(n));
    }

    /// Traces the object graph from the marked roots.
    pub(crate) fn trace(&mut self, heap: &Heap) {
        while let Some(id) = self.worklist.pop() {
            match heap.get(id) {
                Node::CThunk { env, .. } | Node::CBlackhole { env, .. } => self.mark_env(env),
                // A reachable Forwarded cell is corruption (the audit
                // reports it), but the collector still traces through it
                // rather than freeing the target out from under the graph.
                Node::Ind(t) | Node::Forwarded(t) => {
                    let t = *t;
                    self.mark_root(t);
                }
                Node::Value(v) => match v {
                    HValue::Con(_, fields) => {
                        for f in fields.iter() {
                            self.mark_root(*f);
                        }
                    }
                    HValue::CFun { env, .. } => self.mark_env(env),
                    HValue::Int(_) | HValue::Char(_) | HValue::Str(_) => {}
                },
                Node::Poisoned(_) | Node::Free { .. } => {}
            }
        }
    }

    /// Sweeps unmarked tenured cells into the free list; returns the
    /// number freed and the new free-list head.
    pub(crate) fn sweep(
        self,
        heap: &mut Heap,
        mut free_head: Option<NodeId>,
    ) -> (u64, Option<NodeId>) {
        let mut freed = 0;
        for (i, marked) in self.marks.iter().enumerate() {
            let id = NodeId(i as u32);
            if *marked || matches!(heap.get(id), Node::Free { .. }) {
                continue;
            }
            heap.set_swept(id, free_head);
            free_head = Some(id);
            freed += 1;
        }
        (freed, free_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeId;
    use std::rc::Rc;
    use urk_syntax::Symbol;

    #[test]
    fn unreachable_nodes_are_swept_and_reused() {
        let mut heap = Heap::new();
        let keep = heap.alloc_tenured(Node::Value(HValue::Int(1)));
        let drop1 = heap.alloc_tenured(Node::Value(HValue::Int(2)));
        let drop2 = heap.alloc_tenured(Node::Value(HValue::Str(Rc::from("bye"))));
        let kept_con = heap.alloc_tenured(Node::Value(HValue::Con(
            Symbol::intern("Just"),
            [keep].into(),
        )));

        let mut c = Collector::new(heap.tenured_len());
        c.mark_root(kept_con);
        c.trace(&heap);
        let (freed, free_head) = c.sweep(&mut heap, None);
        assert_eq!(freed, 2);
        assert!(matches!(heap.get(drop1), Node::Free { .. }));
        assert!(matches!(heap.get(drop2), Node::Free { .. }));
        assert!(matches!(heap.get(keep), Node::Value(HValue::Int(1))));
        assert!(free_head.is_some());
    }

    #[test]
    fn environments_keep_their_bindings_alive() {
        let mut heap = Heap::new();
        let bound = heap.alloc_tenured(Node::Value(HValue::Int(9)));
        let env = CEnv::empty().push(bound, &mut 0);
        // The collector never runs the code; any id will do.
        let thunk = heap.alloc_tenured(Node::CThunk {
            code: CodeId(0),
            env,
        });
        let mut c = Collector::new(heap.tenured_len());
        c.mark_root(thunk);
        c.trace(&heap);
        let (freed, _) = c.sweep(&mut heap, None);
        assert_eq!(freed, 0);
    }

    #[test]
    fn indirection_targets_survive() {
        let mut heap = Heap::new();
        let v = heap.alloc_tenured(Node::Value(HValue::Int(3)));
        let ind = heap.alloc_tenured(Node::Ind(v));
        let mut c = Collector::new(heap.tenured_len());
        c.mark_root(ind);
        c.trace(&heap);
        let (freed, _) = c.sweep(&mut heap, None);
        assert_eq!(freed, 0);
        assert!(matches!(heap.whnf(ind), Some(crate::heap::Whnf::Int(3))));
    }

    #[test]
    fn immediates_and_evacuated_nurseries_are_no_ops_for_the_marker() {
        let mut heap = Heap::new();
        let t = heap.alloc_tenured(Node::Value(HValue::Int(5)));
        let mut c = Collector::new(heap.tenured_len());
        c.mark_root(NodeId::imm_int(7).unwrap());
        c.mark_root(NodeId::imm_con(Symbol::intern("True")).unwrap());
        c.mark_root(t);
        c.trace(&heap);
        let (freed, _) = c.sweep(&mut heap, None);
        assert_eq!(freed, 0);
    }
}
