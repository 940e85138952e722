//! The lazy graph-reduction machine with §3.3's stack-trimming exception
//! implementation: its configuration, state, allocators and primitives.
//! The run loop is [`crate::kernel`]; the code it runs is flat
//! ([`crate::code`], linked by [`Machine::link_code`]).
//!
//! One evaluation episode runs a standard eval/apply abstract machine:
//!
//! * `raise` **trims the evaluation stack** to the topmost catch mark,
//!   overwriting each in-flight thunk with `raise ex` (poisoning) on the
//!   way — re-entering such a thunk re-raises the same exception;
//! * `getException` (driven by `urk-io`) marks the stack with a
//!   catch-mark frame and evaluates its argument to WHNF;
//! * the **evaluation order of primitives is a policy**
//!   ([`OrderPolicy`]), not part of the semantics: the machine reports
//!   whichever member of the denotational exception set it happens to hit
//!   first, which is precisely the paper's "single representative" trick
//!   (§3.5);
//! * asynchronous events (§5.1) are injected from a deterministic schedule;
//!   delivery trims the stack *restoring* in-flight thunks (resumable, not
//!   poisoned);
//! * entering a black hole is a *detectable bottom* (§5.2) and raises
//!   `NonTermination` when [`BlackholeMode::Detect`] is selected.

use std::rc::Rc;
use std::sync::{Arc, Weak};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use urk_syntax::core::PrimOp;
use urk_syntax::{Exception, Known, Symbol};

use crate::chaos::{ChaosState, FaultPlan};
use crate::code::{Code, CodeBuf, LinkedCode};
use crate::heap::{HValue, Heap, HeapAudit, Node, NodeId, Whnf};
use crate::interrupt::InterruptHandle;
use crate::kernel::{Control, Frame};
use crate::stats::Stats;

/// In which order the machine evaluates the operands of a binary primitive.
///
/// The paper's observation (§3.5): recompiling with different optimisation
/// settings may change the evaluation order and hence the exception that
/// surfaces — while the denotation is unchanged. This policy knob plays the
/// role of "the optimiser".
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum OrderPolicy {
    #[default]
    LeftToRight,
    RightToLeft,
    /// Pseudo-random per-operation order from the given seed.
    Seeded(u64),
}

/// Which executor produced a result. There is one: flat arena-indexed
/// code (see [`crate::code`]), at the [`Tier`] its image was built at.
/// The tag survives in stats, wire frames and cache keys.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    #[default]
    Compiled,
}

impl Backend {
    /// The CLI/stats spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Compiled => "compiled",
        }
    }
}

/// Which compilation tier produced the linked [`crate::Code`] image.
/// Tier 1 is the direct lowering of Core; tier 2 runs the
/// analysis-licensed superinstruction pass ([`crate::tier2_optimize`])
/// over it. Part of cache keys (a tier byte) — the two tiers denote the
/// same sets but take different step/alloc paths to them.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Tier {
    #[default]
    One,
    Two,
}

impl Tier {
    /// The CLI/stats spelling.
    pub fn name(self) -> &'static str {
        match self {
            Tier::One => "1",
            Tier::Two => "2",
        }
    }
}

/// What entering a black hole does (§5.2: implementations are "permitted,
/// but not required" to detect them).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum BlackholeMode {
    /// Raise `NonTermination` — the detectable-bottom behaviour.
    #[default]
    Detect,
    /// Spin (burning steps) as a naive implementation would; the step
    /// limit eventually aborts the run.
    Loop,
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    pub order: OrderPolicy,
    pub blackholes: BlackholeMode,
    /// Abort (or deliver `Timeout`) after this many steps.
    pub max_steps: u64,
    /// Deliver `StackOverflow` past this stack depth.
    pub max_stack: usize,
    /// Deliver `HeapOverflow` past this many heap nodes.
    pub max_heap: usize,
    /// When the step limit is hit, deliver an asynchronous `Timeout`
    /// exception instead of returning [`MachineError::StepLimit`].
    pub timeout_on_step_limit: bool,
    /// Asynchronous events to inject: `(at_step, exception)`, sorted by
    /// step. Events are global across episodes (steps accumulate).
    pub event_schedule: Vec<(u64, Exception)>,
    /// Run the major (mark-sweep) collector when the live node count
    /// reaches this threshold (checked periodically during evaluation).
    pub gc_threshold: usize,
    /// Nursery capacity in cells: a minor (copying) collection evacuates
    /// the nursery into the tenured space when it reaches this size. This
    /// bounds the work per minor collection; the nursery buffer itself is
    /// reused in place.
    pub nursery_size: usize,
    /// Enable the garbage collector.
    pub gc: bool,
    /// An externally shared asynchronous-exception cell. When set, the
    /// machine polls this handle every step (one relaxed atomic load) and
    /// delivers whatever a watchdog thread armed — real wall-clock
    /// cancellation, §5.1 beyond the deterministic step schedule. When
    /// unset the machine creates a private handle (reachable via
    /// [`Machine::interrupt_handle`]).
    pub interrupt: Option<InterruptHandle>,
    /// A seeded chaos fault plan (async injections, forced collections, a
    /// shrinking heap budget). `None` runs undisturbed.
    pub chaos: Option<FaultPlan>,
    /// Run the [`crate::Code::verify`] static checker on every compiled
    /// arena this machine links or extends. Always on in debug builds;
    /// this opts release builds in (the CLI's `--verify-code`). Run-only
    /// plumbing: deliberately excluded from pool cache keys, like
    /// `interrupt` and `chaos`.
    pub verify_code: bool,
    /// Record op-pair coverage ([`crate::OpCoverage`]) while the machine
    /// runs. Off by default: the disabled cost is one
    /// `Option` test per compiled dispatch. Run-only plumbing like
    /// `interrupt`/`chaos`/`verify_code` — never part of a cache key, and
    /// it cannot change any observable outcome or `Stats` counter.
    pub coverage: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            order: OrderPolicy::LeftToRight,
            blackholes: BlackholeMode::Detect,
            max_steps: 50_000_000,
            max_stack: 1_000_000,
            max_heap: 64_000_000,
            timeout_on_step_limit: false,
            event_schedule: Vec::new(),
            gc_threshold: 1_000_000,
            nursery_size: 8_192,
            gc: true,
            interrupt: None,
            chaos: None,
            verify_code: false,
            coverage: false,
        }
    }
}

/// How an evaluation episode ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// WHNF reached.
    Value(NodeId),
    /// An exception reached the episode's catch mark (only when the
    /// episode was started with one).
    Caught(Exception),
    /// An exception reached the bottom of the stack with no catch mark —
    /// the "uncaught exception, which the implementation should report" of
    /// §4.4.
    Uncaught(Exception),
}

/// A hard machine error (not an in-language exception).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MachineError {
    /// The step limit was reached with `timeout_on_step_limit` off.
    StepLimit,
    /// The machine panicked internally and was caught by a supervisor
    /// (`urk::Supervisor`); the payload is the panic message. The machine
    /// that produced this must be discarded — its heap may hold a
    /// half-applied transition — but the embedding session is unaffected.
    Internal(String),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::StepLimit => f.write_str("machine step limit exceeded"),
            MachineError::Internal(msg) => write!(f, "internal machine panic: {msg}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A strict primitive's outcome, before it becomes a control transition.
pub(crate) type PrimResult = Result<NodeId, Exception>;

/// The graph-reduction machine. The heap persists across episodes, so the
/// IO layer can keep the program graph (and partial evaluations) alive
/// between actions.
pub struct Machine {
    pub config: MachineConfig,
    pub(crate) heap: Heap,
    pub(crate) stats: Stats,
    pub(crate) rng: SmallRng,
    pub(crate) next_event: usize,
    /// The watchdog deadline: when `timeout_on_step_limit` is set, a
    /// `Timeout` is delivered at this step count and the watchdog re-arms
    /// (deadline += max_steps), like a real external monitor.
    pub(crate) next_timeout_at: u64,
    /// Registered roots: nodes the embedder still needs across GC (the
    /// top-level program environment, the IO runner's continuations, ...).
    pub(crate) roots: Vec<NodeId>,
    /// The major collector re-arms at this live count (grows if a
    /// collection fails to get below the configured threshold).
    pub(crate) next_gc_at: usize,
    /// The tagged immediate words for `True`/`False`, cached because
    /// `Symbol::intern` takes a global lock.
    pub(crate) true_node: NodeId,
    pub(crate) false_node: NodeId,
    /// The wall-clock asynchronous delivery cell, polled every step.
    pub(crate) interrupt: InterruptHandle,
    /// Progress through the chaos fault plan, if one is armed.
    pub(crate) chaos: Option<ChaosState>,
    /// The linked program image + query extension, once
    /// [`Machine::link_code`] has run.
    pub(crate) code: Option<LinkedCode>,
    /// The op-pair coverage map, when [`MachineConfig::coverage`] is on.
    /// Boxed so the disabled case costs one word in the machine.
    pub(crate) coverage: Option<Box<crate::coverage::OpCoverage>>,
    /// Tier-2 monomorphic inline caches, one slot per `AppG` call site in
    /// the linked image (sized by [`Machine::link_code`], so a relink —
    /// which panics — trivially invalidates them). Each entry caches the
    /// *resolved* callee node once it is a function value; minor
    /// collections rewrite the entries (cached nodes may live in the
    /// nursery) and major collections mark them.
    pub(crate) ics: Vec<Option<NodeId>>,
    /// The run loop's frame stack, kept between episodes so an episode
    /// does not regrow it from empty.
    pub(crate) frames: Vec<Frame>,
    /// A region program's resolved leaves, then its operand stack
    /// ([`Machine::exec_region`]).
    pub(crate) region_vals: Vec<NodeId>,
}

/// Capacity a retired machine keeps per heap region, in cells.
const KEEP_CELLS: usize = 1 << 14;
/// Capacity a retired machine keeps in its frame stack, in frames.
const KEEP_FRAMES: usize = 1 << 12;
/// Capacity a retired machine keeps per table of node ids (roots, inline
/// caches, the remembered set) and per query extension table.
const KEEP_SLOTS: usize = 1 << 12;

/// The emptied buffers of a machine that has finished its work
/// ([`Machine::retire`]), for [`Machine::recycle`] to move into the next
/// one. They hold no node, frame or code, only capacity (and an interrupt
/// cell nothing else holds), and each keeps at most a fixed cap of it, so
/// a large query does not pin its memory. The default is no buffers at
/// all.
#[derive(Default)]
pub struct MachineBuffers {
    /// The image the retired machine linked: the buffers are reused only
    /// for the same image. Weak, so it never keeps an old image alive; the
    /// allocation it pins cannot be reused by another image.
    image: Weak<Code>,
    tenured: Vec<Node>,
    nursery: Vec<Node>,
    remembered: Vec<NodeId>,
    roots: Vec<NodeId>,
    ics: Vec<Option<NodeId>>,
    frames: Vec<Frame>,
    region_vals: Vec<NodeId>,
    ext: CodeBuf,
    /// The retired machine's interrupt cell, kept only if no watchdog or
    /// embedder still holds a clone that could deliver into it.
    interrupt: Option<InterruptHandle>,
}

/// `v` emptied, keeping at most `keep` elements of capacity.
pub(crate) fn emptied<T>(mut v: Vec<T>, keep: usize) -> Vec<T> {
    v.clear();
    v.shrink_to(keep);
    v
}

impl Machine {
    /// Creates a machine.
    pub fn new(config: MachineConfig) -> Machine {
        let interrupt = config.interrupt.clone().unwrap_or_default();
        Machine::with_interrupt(config, interrupt)
    }

    /// [`Machine::new`] polling `interrupt`.
    fn with_interrupt(config: MachineConfig, interrupt: InterruptHandle) -> Machine {
        let seed = match config.order {
            OrderPolicy::Seeded(s) => s,
            _ => 0,
        };
        let next_timeout_at = config.max_steps;
        let next_gc_at = config.gc_threshold;
        let heap = Heap::new();
        let true_node =
            NodeId::imm_con(Known::True.symbol()).expect("interner index fits a tagged word");
        let false_node =
            NodeId::imm_con(Known::False.symbol()).expect("interner index fits a tagged word");
        let chaos = config.chaos.clone().map(ChaosState::new);
        let coverage = config
            .coverage
            .then(|| Box::new(crate::coverage::OpCoverage::new()));
        Machine {
            config,
            heap,
            stats: Stats::default(),
            rng: SmallRng::seed_from_u64(seed),
            next_event: 0,
            next_timeout_at,
            roots: Vec::new(),
            next_gc_at,
            true_node,
            false_node,
            interrupt,
            chaos,
            code: None,
            coverage,
            ics: Vec::new(),
            frames: Vec::new(),
            region_vals: Vec::new(),
        }
    }

    /// A machine equal to `Machine::new(config)` followed by
    /// [`Machine::link_code`]`(code)`, grown into `spare`'s buffers instead
    /// of from empty. Every field but those buffers comes from
    /// [`Machine::new`], so nothing of the retired machine's state (rng,
    /// chaos plan, coverage, collection and timeout triggers, counters,
    /// free list) carries over. Without `config.interrupt`, the machine
    /// polls the retired machine's interrupt cell, cleared: it was kept
    /// only if nothing else could still deliver into it. Buffers retired
    /// from a machine linked to another image are dropped, not reused: a
    /// load or a tier switch gives their memory back.
    pub fn recycle(spare: MachineBuffers, config: MachineConfig, code: Arc<Code>) -> Machine {
        let interrupt = match (&config.interrupt, spare.interrupt) {
            (Some(handle), _) => handle.clone(),
            (None, Some(kept)) => {
                kept.clear();
                kept
            }
            (None, None) => InterruptHandle::default(),
        };
        let mut m = Machine::with_interrupt(config, interrupt);
        if spare.image.as_ptr() != Arc::as_ptr(&code) {
            m.link_code(code);
            return m;
        }
        m.heap.adopt(spare.tenured, spare.nursery, spare.remembered);
        m.roots = spare.roots;
        m.ics = spare.ics;
        m.frames = spare.frames;
        m.region_vals = spare.region_vals;
        m.link(LinkedCode {
            base: code,
            ext: spare.ext,
            apply: None,
        });
        m
    }

    /// Ends this machine's life, keeping its buffers emptied for
    /// [`Machine::recycle`]: every node, frame, root and lowered query is
    /// dropped here, and each buffer's capacity is capped. The interrupt
    /// cell is kept only if this machine holds its last reference.
    pub fn retire(self) -> MachineBuffers {
        let (tenured, nursery, remembered) = self.heap.into_buffers();
        let (image, ext) = match self.code {
            Some(code) => (Arc::downgrade(&code.base), code.ext),
            None => (Weak::new(), CodeBuf::default()),
        };
        MachineBuffers {
            image,
            tenured: emptied(tenured, KEEP_CELLS),
            nursery: emptied(nursery, KEEP_CELLS),
            remembered: emptied(remembered, KEEP_SLOTS),
            roots: emptied(self.roots, KEEP_SLOTS),
            ics: emptied(self.ics, KEEP_SLOTS),
            frames: emptied(self.frames, KEEP_FRAMES),
            region_vals: emptied(self.region_vals, KEEP_SLOTS),
            ext: ext.emptied(KEEP_SLOTS),
            interrupt: self.interrupt.is_unshared().then_some(self.interrupt),
        }
    }

    /// The machine's asynchronous delivery cell. Clone it into a watchdog
    /// thread (the handle is `Send + Sync`) and call
    /// [`InterruptHandle::deliver`] to cancel the current evaluation at a
    /// wall-clock deadline; the machine observes it within one step.
    pub fn interrupt_handle(&self) -> InterruptHandle {
        self.interrupt.clone()
    }

    /// Disarms the chaos plan (if any): no further injections, forced
    /// collections, or budget caps. The differential driver calls this
    /// before the post-fault re-evaluation, which must agree with the
    /// undisturbed oracle.
    pub fn disarm_chaos(&mut self) {
        self.chaos = None;
    }

    /// Audits the heap for post-episode consistency — see
    /// [`HeapAudit`]. Between episodes no black hole may survive: every
    /// thunk that was in flight when an exception trimmed the stack must
    /// have been restored (asynchronous, §5.1) or poisoned (synchronous,
    /// §3.3). A stranded black hole would make the machine unsafe to reuse
    /// (re-entering it misreports `NonTermination`).
    pub fn audit_heap(&self) -> HeapAudit {
        self.heap.audit()
    }

    /// The op-pair coverage map, when [`MachineConfig::coverage`] armed
    /// one. Call [`crate::OpCoverage::end_episode`] (or
    /// [`Machine::end_coverage_episode`]) between episodes so edges never
    /// pair ops across an episode boundary.
    pub fn coverage(&self) -> Option<&crate::coverage::OpCoverage> {
        self.coverage.as_deref()
    }

    /// Resets the coverage edge cursor at an episode boundary.
    pub fn end_coverage_episode(&mut self) {
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.end_episode();
        }
    }

    /// The node for an integer value: a tagged immediate word for the
    /// 30-bit range (no allocation at all), a boxed nursery cell otherwise.
    pub(crate) fn int_node(&mut self, n: i64) -> NodeId {
        match NodeId::imm_int(n) {
            Some(id) => {
                self.stats.unboxed_hits += 1;
                id
            }
            None => self.alloc_value(HValue::Int(n)),
        }
    }

    /// The tagged immediate for `True`/`False`.
    pub(crate) fn bool_node(&mut self, b: bool) -> NodeId {
        self.stats.unboxed_hits += 1;
        if b {
            self.true_node
        } else {
            self.false_node
        }
    }

    /// The node for a zero-field constructor value: a tagged immediate
    /// word (the symbol's interner index is the payload), boxed only in
    /// the astronomically unlikely case the index overflows the payload.
    pub(crate) fn nullary_con_node(&mut self, c: Symbol) -> NodeId {
        match NodeId::imm_con(c) {
            Some(id) => {
                self.stats.unboxed_hits += 1;
                id
            }
            None => self.alloc_value(HValue::Con(c, [].into())),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resets counters (the heap is kept, and so are the backend and tier
    /// tags — they describe the machine's mode, not one episode's work).
    pub fn reset_stats(&mut self) {
        self.stats = Stats {
            backend: self.stats.backend,
            tier: self.stats.tier,
            ..Stats::default()
        };
    }

    /// Read-only access to the heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Registers a node as a GC root (stack discipline with
    /// [`Machine::pop_root`]) and returns its index in the root stack.
    /// Any node the embedder holds across evaluations must be rooted (the
    /// linked globals need not be: every collection marks them). Minor
    /// collections *rewrite* registered roots in place (the nursery is a
    /// copying space), so an embedder that holds a rooted node across
    /// evaluations must re-read it through [`Machine::root`] with the
    /// returned index.
    pub fn push_root(&mut self, id: NodeId) -> usize {
        self.roots.push(id);
        self.roots.len() - 1
    }

    /// The current id of the registered root at `idx` (see
    /// [`Machine::push_root`] for why ids must be re-read).
    pub fn root(&self, idx: usize) -> NodeId {
        self.roots[idx]
    }

    /// Replaces the registered root at `idx` (the IO runner reuses the
    /// root slots of values it no longer holds through this).
    pub fn set_root(&mut self, idx: usize, id: NodeId) {
        self.roots[idx] = id;
    }

    /// Unregisters the most recently pushed root.
    pub fn pop_root(&mut self) -> Option<NodeId> {
        self.roots.pop()
    }

    /// Runs a full collection now (minor evacuation, then a major
    /// mark-sweep) with the registered roots plus `extra`. Returns the
    /// number of cells reclaimed across both generations.
    ///
    /// Registered roots are rewritten in place; the caller's copies of
    /// `extra` are kept *alive* but nursery ids among them are not
    /// rewritten — hold evaluation results (always tenured or immediate)
    /// across this call, not raw nursery ids.
    pub fn collect_with(&mut self, extra: &[NodeId]) -> u64 {
        let reuses_before = self.heap.reuses();
        let mut extras: Vec<NodeId> = extra.to_vec();
        let Machine {
            heap, roots, ics, ..
        } = self;
        let outcome = heap.collect_minor(&mut |f| {
            for r in roots.iter_mut() {
                *r = f(*r);
            }
            for r in extras.iter_mut() {
                *r = f(*r);
            }
            for slot in ics.iter_mut().flatten() {
                *slot = f(*slot);
            }
        });
        self.stats.minor_gcs += 1;
        self.stats.gc_runs += 1;
        self.stats.nodes_promoted += outcome.promoted;
        self.stats.freelist_reuses += self.heap.reuses() - reuses_before;
        let mut c = crate::gc::Collector::new(self.heap.tenured_len());
        self.mark_machine_roots(&mut c);
        for r in &extras {
            c.mark_root(*r);
        }
        c.trace(&self.heap);
        let prev_free = self.heap.free_list();
        let (freed, head) = c.sweep(&mut self.heap, prev_free);
        self.heap.set_free_list(head, freed);
        self.stats.gc_runs += 1;
        self.stats.major_gcs += 1;
        self.stats.gc_freed += freed + outcome.freed;
        freed + outcome.freed
    }

    /// Marks what the machine keeps alive for its whole life: the linked
    /// globals (tenured cells `0..n`), the registered roots and the inline
    /// caches. Inline-cache entries are marked defensively: a cached
    /// callee is always reachable through its global anyway, but marking
    /// it means a slot can never hold a freed node even if that invariant
    /// is ever weakened.
    pub(crate) fn mark_machine_roots(&self, c: &mut crate::gc::Collector) {
        let globals = self.code.as_ref().map_or(0, |code| code.base.globals.len());
        for g in 0..globals as u32 {
            c.mark_root(NodeId::global(g));
        }
        for r in &self.roots {
            c.mark_root(*r);
        }
        for slot in self.ics.iter().flatten() {
            c.mark_root(*slot);
        }
    }

    /// Allocates a WHNF value node (used by the IO layer to feed results
    /// back into the graph). Tenured: the caller holds the id across
    /// evaluations.
    pub fn alloc_hvalue(&mut self, v: HValue) -> NodeId {
        self.alloc_tenured(Node::Value(v))
    }

    /// A nursery (bump) allocation — run-loop internal only.
    pub(crate) fn alloc(&mut self, node: Node) -> NodeId {
        self.stats.allocations += 1;
        self.heap.alloc(node)
    }

    /// A tenured allocation — for cells the embedder holds across
    /// evaluations (ids are stable; nursery ids move).
    pub(crate) fn alloc_tenured(&mut self, node: Node) -> NodeId {
        self.stats.allocations += 1;
        let before = self.heap.reuses();
        let id = self.heap.alloc_tenured(node);
        self.stats.freelist_reuses += self.heap.reuses() - before;
        id
    }

    pub(crate) fn alloc_value(&mut self, v: HValue) -> NodeId {
        self.alloc(Node::Value(v))
    }

    /// Resolves `id` to a stable handle: immediates and tenured ids pass
    /// through; a nursery representative is copied into the tenured space
    /// (leaving an indirection behind, so sharing is preserved). Every
    /// evaluation result returned to an embedder goes through this.
    pub(crate) fn tenure_result(&mut self, id: NodeId) -> NodeId {
        let r = self.heap.resolve(id);
        if !r.is_nursery() {
            return r;
        }
        self.stats.nodes_promoted += 1;
        let before = self.heap.reuses();
        let t = self.heap.promote(r);
        self.stats.freelist_reuses += self.heap.reuses() - before;
        t
    }

    pub(crate) fn tenure_outcome(&mut self, outcome: Outcome) -> Outcome {
        match outcome {
            Outcome::Value(id) => Outcome::Value(self.tenure_result(id)),
            other => other,
        }
    }

    /// Forces an existing node to WHNF.
    pub fn eval_node(&mut self, node: NodeId, catch: bool) -> Result<Outcome, MachineError> {
        let r = self.heap.resolve(node);
        if r.is_imm() {
            // Tagged immediates are already WHNF — nothing to run.
            return Ok(Outcome::Value(r));
        }
        self.run(Control::Enter(node), catch)
    }

    /// Value-profile hook for the fuzzer: classifies each operand of a
    /// primitive into a coarse shape class and records it in the coverage
    /// map. Classes: 0 tagged-immediate int, 1 boxed int, 2 zero,
    /// 3 negative int, 4 char, 5 string, 6 constructor, 7 other.
    fn profile_prim_operands(&mut self, op: PrimOp, nodes: &[NodeId]) {
        let mut classes = [None::<usize>; 2];
        for (i, slot) in classes.iter_mut().enumerate() {
            let Some(&n) = nodes.get(i) else { break };
            *slot = Some(match self.heap.whnf(n) {
                Some(Whnf::Int(0)) => 2,
                Some(Whnf::Int(v)) if v < 0 => 3,
                Some(Whnf::Int(_)) => {
                    if n.is_imm() {
                        0
                    } else {
                        1
                    }
                }
                Some(Whnf::Char(_)) => 4,
                Some(Whnf::Str(_)) => 5,
                Some(Whnf::Con(..)) => 6,
                _ => 7,
            });
        }
        if let Some(cov) = self.coverage.as_deref_mut() {
            for (i, class) in classes.into_iter().enumerate() {
                if let Some(class) = class {
                    cov.hit_prim(op as usize, i, class);
                }
            }
        }
    }

    pub(crate) fn apply_prim(&mut self, op: PrimOp, nodes: &[NodeId]) -> PrimResult {
        use PrimOp::*;
        if self.coverage.is_some() {
            self.profile_prim_operands(op, nodes);
        }
        let int = |m: &Machine, i: usize| -> i64 {
            match m.heap.whnf(nodes[i]) {
                Some(Whnf::Int(n)) => n,
                other => panic!("primop {op:?} expected Int, got {other:?}"),
            }
        };
        let chr = |m: &Machine, i: usize| -> char {
            match m.heap.whnf(nodes[i]) {
                Some(Whnf::Char(c)) => c,
                other => panic!("primop {op:?} expected Char, got {other:?}"),
            }
        };
        let string = |m: &Machine, i: usize| -> Rc<str> {
            match m.heap.whnf(nodes[i]) {
                Some(Whnf::Str(s)) => s.clone(),
                other => panic!("primop {op:?} expected Str, got {other:?}"),
            }
        };
        let result = match op {
            Add | Sub | Mul | Div | Mod | IntEq | IntLt | IntLe | IntGt | IntGe => {
                let (x, y) = (int(self, 0), int(self, 1));
                return self.int_prim(op, x, y).expect("a binary integer primitive");
            }
            Neg => return self.arith(int(self, 0).checked_neg()),
            CharEq => return self.boolean(chr(self, 0) == chr(self, 1)),
            StrEq => return self.boolean(string(self, 0) == string(self, 1)),
            StrAppend => HValue::Str(Rc::from(
                format!("{}{}", string(self, 0), string(self, 1)).as_str(),
            )),
            StrLen => return self.arith(Some(string(self, 0).chars().count() as i64)),
            ShowInt => HValue::Str(Rc::from(int(self, 0).to_string().as_str())),
            Ord => return self.arith(Some(chr(self, 0) as i64)),
            Chr => match u32::try_from(int(self, 0)).ok().and_then(char::from_u32) {
                Some(c) => HValue::Char(c),
                None => return Err(Exception::Overflow),
            },
            Seq | MapExn | UnsafeIsException | UnsafeGetException => {
                unreachable!("special-cased")
            }
        };
        let n = self.alloc_value(result);
        Ok(n)
    }

    /// A binary primitive. Integer primitives over two tagged immediates
    /// compute in place, with no operand slice and no heap lookup; any
    /// other operands (or an armed coverage map, which profiles them) go
    /// through [`Machine::apply_prim`].
    #[inline]
    pub(crate) fn apply_prim2(&mut self, op: PrimOp, a: NodeId, b: NodeId) -> PrimResult {
        if self.coverage.is_none() {
            if let (Some(x), Some(y)) = (a.as_imm_int(), b.as_imm_int()) {
                if let Some(r) = self.int_prim(op, x, y) {
                    return r;
                }
            }
        }
        self.apply_prim(op, &[a, b])
    }

    /// A binary integer primitive on its operands' values (`None` for
    /// any other primitive). Always inlined: returned through memory, its
    /// result costs a store-forwarding stall on every region primitive.
    #[inline(always)]
    fn int_prim(&mut self, op: PrimOp, x: i64, y: i64) -> Option<PrimResult> {
        use PrimOp::*;
        Some(match op {
            Add => self.arith(x.checked_add(y)),
            Sub => self.arith(x.checked_sub(y)),
            Mul => self.arith(x.checked_mul(y)),
            Div | Mod if y == 0 => Err(Exception::DivideByZero),
            Div => self.arith(x.checked_div(y)),
            Mod => self.arith(x.checked_rem(y)),
            IntEq => self.boolean(x == y),
            IntLt => self.boolean(x < y),
            IntLe => self.boolean(x <= y),
            IntGt => self.boolean(x > y),
            IntGe => self.boolean(x >= y),
            _ => return None,
        })
    }

    fn arith(&mut self, n: Option<i64>) -> PrimResult {
        match n {
            Some(n) => Ok(self.int_node(n)),
            None => Err(Exception::Overflow),
        }
    }

    fn boolean(&mut self, b: bool) -> PrimResult {
        Ok(self.bool_node(b))
    }

    /// Allocates the in-language value for a runtime exception (interned
    /// for the payload-free constructors).
    pub fn alloc_exception_value(&mut self, e: &Exception) -> NodeId {
        let name = e.constructor_symbol();
        match e.payload() {
            None => self.nullary_con_node(name),
            Some(s) => {
                let str_node = self.alloc_value(HValue::Str(Rc::from(s)));
                self.alloc_value(HValue::Con(name, [str_node].into()))
            }
        }
    }

    /// Renders a node to `depth`, forcing as needed; exceptional fields
    /// render as `(raise E)`.
    pub fn render(&mut self, node: NodeId, depth: u32) -> String {
        let mut out = Rendering::new();
        self.render_into(&mut out, node, depth);
        out.text
    }

    /// Renders an episode's outcome: a value as [`Machine::render`] does,
    /// a raised exception as `(raise E)`.
    pub fn render_outcome(&mut self, out: &Outcome, depth: u32) -> String {
        match out {
            Outcome::Value(n) => self.render(*n, depth),
            Outcome::Caught(e) | Outcome::Uncaught(e) => format!("(raise {e})"),
        }
    }

    /// Appends the rendering of `node`, forced in an episode of its own.
    fn render_into(&mut self, out: &mut Rendering, node: NodeId, depth: u32) {
        // Root the node so a collection triggered while forcing one field
        // cannot reclaim its siblings.
        self.push_root(node);
        match self.eval_node(node, false) {
            Err(e) => out.write(format_args!("<machine error: {e}>")),
            Ok(Outcome::Caught(exn) | Outcome::Uncaught(exn)) => {
                out.write(format_args!("(raise {exn})"));
            }
            Ok(Outcome::Value(n)) => self.render_value(out, n, depth),
        }
        self.pop_root();
    }

    fn render_value(&mut self, out: &mut Rendering, node: NodeId, depth: u32) {
        // `node` is an episode result: immediate or tenured (results are
        // promoted on return), so it is stable across the collections that
        // rendering a field may trigger.
        let (con, n_fields) = match self.heap.whnf(node).expect("rendered node in WHNF") {
            Whnf::Int(n) => return out.write(format_args!("{n}")),
            Whnf::Char(c) => return out.write(format_args!("{c:?}")),
            Whnf::Str(s) => return out.write(format_args!("{s:?}")),
            Whnf::CFun { .. } => return out.text.push_str("<function>"),
            Whnf::Con(c, fields) => (c, fields.len()),
        };
        out.spell(con);
        if n_fields == 0 {
            return;
        }
        if depth == 0 {
            return out.text.push_str(" ...");
        }
        for i in 0..n_fields {
            // Re-read the field from the stable parent each time:
            // rendering the previous field may have run a minor collection
            // that rewrote the remaining fields' nursery ids.
            let f = match self.heap.whnf(node) {
                Some(Whnf::Con(_, fields)) => fields[i],
                _ => unreachable!("constructor scrutinised above"),
            };
            out.text.push(' ');
            let start = out.text.len();
            self.render_into(out, f, depth - 1);
            let inner = &out.text[start..];
            if inner.contains(' ') && !inner.starts_with('(') && !inner.starts_with('"') {
                out.parenthesise_from(start);
            }
        }
    }
}

/// A rendering under way: the text so far, and where in it the first
/// constructors it spelled appear, so each is spelled out of the
/// interner (which clones the name under a lock) once per rendering.
struct Rendering {
    text: String,
    spelled: [(Symbol, u32, u32); SPELLED],
    n_spelled: usize,
}

/// Constructors a [`Rendering`] remembers; any further ones are spelled
/// each time.
const SPELLED: usize = 8;

impl Rendering {
    fn new() -> Rendering {
        Rendering {
            text: String::new(),
            spelled: [(Symbol::from_raw(0), 0, 0); SPELLED],
            n_spelled: 0,
        }
    }

    /// Appends `con`'s name.
    fn spell(&mut self, con: Symbol) {
        let known = self.spelled[..self.n_spelled].iter().find(|e| e.0 == con);
        if let Some(&(_, from, to)) = known {
            return self.text.extend_from_within(from as usize..to as usize);
        }
        let from = self.text.len();
        self.write(format_args!("{con}"));
        if self.n_spelled < SPELLED {
            self.spelled[self.n_spelled] = (con, from as u32, self.text.len() as u32);
            self.n_spelled += 1;
        }
    }

    fn write(&mut self, args: std::fmt::Arguments<'_>) {
        use std::fmt::Write;
        self.text
            .write_fmt(args)
            .expect("writing to a String cannot fail");
    }

    /// Wraps the text from `start` on in parentheses.
    fn parenthesise_from(&mut self, start: usize) {
        self.text.insert(start, '(');
        self.text.push(')');
        for e in &mut self.spelled[..self.n_spelled] {
            if e.1 as usize >= start {
                e.1 += 1;
                e.2 += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_program;
    use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};

    /// Builds a 40 000-cell list (the minor collector tenures it) and
    /// takes its length by plain recursion (40 000 frames deep).
    const BIG: &str = "let build = \\n acc -> if n == 0 then acc else build (n - 1) (n : acc) in \
                       let len = \\xs -> case xs of { [] -> 0; (y:ys) -> 1 + len ys } in \
                       len (build 40000 [])";

    fn run(m: &mut Machine, src: &str) -> String {
        let e =
            desugar_expr(&parse_expr_src(src).expect("parses"), &DataEnv::new()).expect("desugars");
        match m.eval_code_expr(&e, false).expect("no machine error") {
            Outcome::Value(n) => m.render(n, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_retired_machine_keeps_only_capped_empty_buffers() {
        let code = Arc::new(compile_program(&[]));
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::clone(&code));
        assert_eq!(run(&mut m, BIG), "40000");
        assert!(m.heap.tenured_len() > KEEP_CELLS && m.frames.capacity() > KEEP_FRAMES);

        let spare = m.retire();
        assert!(spare.tenured.is_empty() && spare.tenured.capacity() <= KEEP_CELLS);
        assert!(spare.nursery.is_empty() && spare.nursery.capacity() <= KEEP_CELLS);
        assert!(spare.frames.is_empty() && spare.frames.capacity() <= KEEP_FRAMES);
        for (len, cap) in [
            (spare.remembered.len(), spare.remembered.capacity()),
            (spare.roots.len(), spare.roots.capacity()),
        ] {
            assert!(len == 0 && cap <= KEEP_SLOTS);
        }
        assert!(spare.nursery.capacity() > 0, "the grown nursery is kept");

        // The recycled machine is the fresh one: same heap, roots and
        // counters after linking, and the same answer.
        let mut recycled = Machine::recycle(spare, MachineConfig::default(), Arc::clone(&code));
        let mut fresh = Machine::new(MachineConfig::default());
        fresh.link_code(Arc::clone(&code));
        assert_eq!(recycled.heap.len(), fresh.heap.len());
        assert_eq!(recycled.roots, fresh.roots);
        assert_eq!(recycled.stats, fresh.stats);
        assert_eq!(run(&mut recycled, BIG), run(&mut fresh, BIG));
        for m in [&mut recycled, &mut fresh] {
            m.stats.compile_micros = 0;
        }
        assert_eq!(recycled.stats, fresh.stats);
    }

    #[test]
    fn buffers_of_another_image_are_not_reused() {
        let first = Arc::new(compile_program(&[]));
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::clone(&first));
        run(&mut m, BIG);
        let spare = m.retire();
        assert!(spare.nursery.capacity() > 0);
        let other = Arc::new(compile_program(&[]));
        let m = Machine::recycle(spare, MachineConfig::default(), other);
        assert_eq!(
            m.heap.into_buffers().1.capacity(),
            0,
            "the spare was dropped"
        );
    }
}
