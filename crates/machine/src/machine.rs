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

use rand::rngs::SmallRng;
use rand::SeedableRng;

use urk_syntax::core::PrimOp;
use urk_syntax::{Exception, Symbol};

use crate::chaos::{ChaosState, FaultPlan};
use crate::code::LinkedCode;
use crate::heap::{HValue, Heap, HeapAudit, Node, NodeId, Whnf};
use crate::interrupt::InterruptHandle;
use crate::kernel::Control;
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
pub(crate) enum PrimResult {
    Value(NodeId),
    Raise(Exception),
}

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
}

impl Machine {
    /// Creates a machine.
    pub fn new(config: MachineConfig) -> Machine {
        let seed = match config.order {
            OrderPolicy::Seeded(s) => s,
            _ => 0,
        };
        let next_timeout_at = config.max_steps;
        let next_gc_at = config.gc_threshold;
        let heap = Heap::new();
        let true_node =
            NodeId::imm_con(Symbol::intern("True")).expect("interner index fits a tagged word");
        let false_node =
            NodeId::imm_con(Symbol::intern("False")).expect("interner index fits a tagged word");
        let interrupt = config.interrupt.clone().unwrap_or_default();
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

    /// Mutable access to the coverage map (to `clear` it between fuzz
    /// candidates without rebuilding the machine).
    pub fn coverage_mut(&mut self) -> Option<&mut crate::coverage::OpCoverage> {
        self.coverage.as_deref_mut()
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
            None => self.alloc_value(HValue::Con(c, vec![])),
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
    /// The top-level program environment and any node the embedder holds
    /// across evaluations must be rooted. Minor collections *rewrite*
    /// registered roots in place (the nursery is a copying space), so an
    /// embedder that holds a rooted node across evaluations must re-read
    /// it through [`Machine::root`] with the returned index.
    pub fn push_root(&mut self, id: NodeId) -> usize {
        self.roots.push(id);
        self.roots.len() - 1
    }

    /// The current id of the registered root at `idx` (see
    /// [`Machine::push_root`] for why ids must be re-read).
    pub fn root(&self, idx: usize) -> NodeId {
        self.roots[idx]
    }

    /// Replaces the registered root at `idx` (the IO runner steers its
    /// continuation roots through this instead of popping and re-pushing).
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
        for r in self.roots.iter().chain(&extras) {
            c.mark_root(*r);
        }
        for slot in self.ics.iter().flatten() {
            c.mark_root(*slot);
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

    /// Allocates a WHNF value node (used by the IO layer to feed results
    /// back into the graph). Tenured: the caller holds the id across
    /// evaluations.
    pub fn alloc_hvalue(&mut self, v: HValue) -> NodeId {
        self.alloc_tenured(Node::Value(v))
    }

    /// Overwrites a node (resolving indirections first) with a new WHNF
    /// value — the mutation primitive behind `MVar`s.
    pub fn overwrite_hvalue(&mut self, id: NodeId, v: HValue) {
        let id = self.heap.resolve(id);
        self.heap.set(id, Node::Value(v));
    }

    /// Resolves indirections to the representative node.
    pub fn resolve_node(&self, id: NodeId) -> NodeId {
        self.heap.resolve(id)
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
            Add => return self.arith(int(self, 0).checked_add(int(self, 1))),
            Sub => return self.arith(int(self, 0).checked_sub(int(self, 1))),
            Mul => return self.arith(int(self, 0).checked_mul(int(self, 1))),
            Div => {
                if int(self, 1) == 0 {
                    return PrimResult::Raise(Exception::DivideByZero);
                }
                return self.arith(int(self, 0).checked_div(int(self, 1)));
            }
            Mod => {
                if int(self, 1) == 0 {
                    return PrimResult::Raise(Exception::DivideByZero);
                }
                return self.arith(int(self, 0).checked_rem(int(self, 1)));
            }
            Neg => return self.arith(int(self, 0).checked_neg()),
            IntEq => return self.boolean(int(self, 0) == int(self, 1)),
            IntLt => return self.boolean(int(self, 0) < int(self, 1)),
            IntLe => return self.boolean(int(self, 0) <= int(self, 1)),
            IntGt => return self.boolean(int(self, 0) > int(self, 1)),
            IntGe => return self.boolean(int(self, 0) >= int(self, 1)),
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
                None => return PrimResult::Raise(Exception::Overflow),
            },
            Seq | MapExn | UnsafeIsException | UnsafeGetException => {
                unreachable!("special-cased")
            }
        };
        let n = self.alloc_value(result);
        PrimResult::Value(n)
    }

    fn arith(&mut self, n: Option<i64>) -> PrimResult {
        match n {
            Some(n) => PrimResult::Value(self.int_node(n)),
            None => PrimResult::Raise(Exception::Overflow),
        }
    }

    fn boolean(&mut self, b: bool) -> PrimResult {
        PrimResult::Value(self.bool_node(b))
    }

    /// Allocates the in-language value for a runtime exception (interned
    /// for the payload-free constructors).
    pub fn alloc_exception_value(&mut self, e: &Exception) -> NodeId {
        let name = e.constructor_symbol();
        match e.payload() {
            None => self.nullary_con_node(name),
            Some(s) => {
                let str_node = self.alloc_value(HValue::Str(Rc::from(s)));
                self.alloc_value(HValue::Con(name, vec![str_node]))
            }
        }
    }

    /// Renders a node to `depth`, forcing as needed; exceptional fields
    /// render as `(raise E)`.
    pub fn render(&mut self, node: NodeId, depth: u32) -> String {
        // Root the node so a collection triggered while forcing one field
        // cannot reclaim its siblings.
        self.push_root(node);
        let out = match self.eval_node(node, false) {
            Err(e) => format!("<machine error: {e}>"),
            Ok(Outcome::Caught(exn)) | Ok(Outcome::Uncaught(exn)) => format!("(raise {exn})"),
            Ok(Outcome::Value(n)) => self.render_value(n, depth),
        };
        self.pop_root();
        out
    }

    fn render_value(&mut self, node: NodeId, depth: u32) -> String {
        // `node` is an episode result: immediate or tenured (results are
        // promoted on return), so it is stable across the collections that
        // rendering a field may trigger.
        let (con, n_fields) = match self.heap.whnf(node).expect("rendered node in WHNF") {
            Whnf::Int(n) => return n.to_string(),
            Whnf::Char(c) => return format!("{c:?}"),
            Whnf::Str(s) => return format!("{s:?}"),
            Whnf::CFun { .. } => return "<function>".into(),
            Whnf::Con(c, []) => return c.to_string(),
            Whnf::Con(c, fields) => (c, fields.len()),
        };
        if depth == 0 {
            return format!("{con} ...");
        }
        let mut out = con.to_string();
        for i in 0..n_fields {
            // Re-read the field from the stable parent each time:
            // rendering the previous field may have run a minor collection
            // that rewrote the remaining fields' nursery ids.
            let f = match self.heap.whnf(node) {
                Some(Whnf::Con(_, fields)) => fields[i],
                _ => unreachable!("constructor scrutinised above"),
            };
            let inner = self.render(f, depth - 1);
            if inner.contains(' ') && !inner.starts_with('(') && !inner.starts_with('"') {
                out.push_str(&format!(" ({inner})"));
            } else {
                out.push_str(&format!(" {inner}"));
            }
        }
        out
    }
}
