//! The abstract-machine kernel: one eval/apply loop over flat code.
//!
//! The paper's implementation rules are written here once each:
//!
//! * the step prologue — the asynchronous event schedule, the interrupt
//!   poll, the chaos plan, the timeout watchdog, the stack and heap limits
//!   and the collection triggers — so every §5.1 delivery point exists
//!   once;
//! * §3.3's raise: trim the stack to the topmost catch mark, overwriting
//!   each thunk under evaluation with `raise ex`; an asynchronous trim
//!   restores those thunks resumably instead (§5.1);
//! * §5.2's black holes as a detectable bottom;
//! * the catch mark that ends its episode on the step its answer returns;
//! * GC rooting of the control register and every stack frame.
//!
//! Control evaluates a `CodeId` of the linked image ([`crate::code`])
//! under a slot-addressed [`CEnv`]; suspensions are
//! [`Node::CThunk`]/[`Node::CBlackhole`]. The eval step below fuses the
//! administrative transitions (variable entry, direct calls, tier-2
//! regions and inline caches) into the step that caused them, and a
//! returned value pops the frames it meets inside the step that produced
//! it; the fused paths themselves live in [`crate::compiled`].

use rand::Rng;
use urk_syntax::core::PrimOp;
use urk_syntax::{Exception, Known, Symbol};

use crate::code::{COp, CodeId};
use crate::env::CEnv;
use crate::heap::{HValue, Node, NodeId, Whnf};
use crate::machine::{BlackholeMode, Machine, MachineError, Outcome};
use crate::OrderPolicy;

/// The control register.
pub(crate) enum Control {
    Eval(CodeId, CEnv),
    Enter(NodeId),
    Return(NodeId),
    Raising(Exception),
}

/// A stack frame.
pub(crate) enum Frame {
    /// Update this thunk with the result.
    Update(NodeId),
    /// Apply the result to this argument.
    Apply(NodeId),
    /// Scrutinise the result with `n` pre-lowered arms from `arms_at`.
    Select { arms_at: u32, n: u16, env: CEnv },
    /// A binary primitive's first operand (the left one if `left_first`)
    /// is being evaluated; `next` is the other operand's code.
    PrimFirst {
        op: PrimOp,
        next: CodeId,
        env: CEnv,
        left_first: bool,
    },
    /// A primitive's last operand is being evaluated: the only one of a
    /// unary primitive (`first` is `None`), or the second of a binary one.
    /// It holds no environment, so it keeps no heap node alive that it
    /// will never read.
    PrimLast {
        op: PrimOp,
        first: Option<NodeId>,
        left_first: bool,
    },
    /// `seq`: discard the result, then evaluate this.
    SeqSecond { code: CodeId, env: CEnv },
    /// Convert the returned `Exception` constructor value and raise it.
    RaiseEval,
    /// The payload of this exception constructor is being forced.
    RaisePayload { con: Symbol },
    /// `unsafeIsException`: a value means `False`, a synchronous raise
    /// means `True`.
    IsExnCatch,
    /// §6's `unsafeGetException`: a value means `OK v`, a synchronous
    /// raise means `Bad e` — purely, with the proof obligation.
    UnsafeGetExnCatch,
    /// `mapException f`: a synchronous raise is rewritten through `f`.
    MapExnCatch { f: CodeId, env: CEnv },
    /// A `getException` catch mark (the episode boundary for handlers).
    Catch,
}

/// The result of a transition that may end the episode.
enum Step {
    Continue(Control),
    Done(Outcome),
}

impl Machine {
    /// Runs one evaluation episode from `control`. With `catch`, a catch
    /// mark is planted at the base of the stack (`getException`'s mode).
    pub(crate) fn run(
        &mut self,
        mut control: Control,
        catch: bool,
    ) -> Result<Outcome, MachineError> {
        // The frame stack is the machine's buffer, taken for the episode
        // and given back emptied, so an episode does not regrow it.
        let mut stack = std::mem::take(&mut self.frames);
        if catch {
            stack.push(Frame::Catch);
        }
        // A fresh episode: its first op must not pair with the previous
        // episode's last op in the coverage map.
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.end_episode();
        }
        let out = 'episode: loop {
            // --- step accounting, limits, and asynchronous events -------
            self.stats.steps += 1;
            if stack.len() > self.stats.max_stack_depth {
                self.stats.max_stack_depth = stack.len();
            }
            if let Some((at, exn)) = self.config.event_schedule.get(self.next_event) {
                if self.stats.steps >= *at && !matches!(control, Control::Raising(_)) {
                    self.next_event += 1;
                    // §5.1: "v might not be an exceptional value ... but
                    // getException is nevertheless free to discard v and
                    // return the asynchronous exception instead."
                    control = Control::Raising(exn.clone());
                }
            }
            // Wall-clock asynchronous delivery: one relaxed load per step;
            // an armed handle stays pending across a trim in progress and
            // is taken on the first non-raising step.
            if self.interrupt.is_pending() && !matches!(control, Control::Raising(_)) {
                if let Some(exn) = self.interrupt.take() {
                    self.stats.async_injected += 1;
                    control = Control::Raising(exn);
                }
            }
            if self.chaos.is_some() {
                if let Some(next) = self.chaos_tick(&mut control, &mut stack) {
                    control = next;
                }
            }
            if self.stats.steps >= self.next_timeout_at {
                if self.config.timeout_on_step_limit {
                    // Deliver Timeout and re-arm the watchdog.
                    self.next_timeout_at = self.stats.steps + self.config.max_steps;
                    if !matches!(control, Control::Raising(ref e) if e.is_asynchronous()) {
                        control = Control::Raising(Exception::Timeout);
                    }
                } else {
                    break 'episode Err(MachineError::StepLimit);
                }
            }
            if stack.len() >= self.config.max_stack && !matches!(control, Control::Raising(_)) {
                control = Control::Raising(Exception::StackOverflow);
            }
            if self.config.gc {
                if self.heap.nursery_len() >= self.config.nursery_size {
                    self.minor_collect(&mut control, &mut stack);
                }
                if self.heap.live() >= self.next_gc_at && self.heap.live() < self.config.max_heap {
                    self.collect_during_run(&mut control, &mut stack);
                }
            }
            if self.heap.live() >= self.config.max_heap && !matches!(control, Control::Raising(_)) {
                control = Control::Raising(Exception::HeapOverflow);
            }

            // --- the transition function --------------------------------
            control = match control {
                Control::Eval(code, env) => self.step_eval(code, env, &mut stack),
                Control::Enter(node) => self.step_enter(node, &mut stack),
                // Returns pop only in the loop below, so `step_return`
                // keeps one call site (inlined).
                Control::Return(node) => Control::Return(node),
                Control::Raising(exn) => match self.step_raise(exn, &mut stack) {
                    Step::Continue(c) => c,
                    Step::Done(outcome) => break 'episode Ok(self.tenure_outcome(outcome)),
                },
            };
            // A returned value pops the frames it meets inside the step
            // that produced it, with no prologue pass per pop: a `Return`
            // only consumes frames, so no delivery point that can run
            // code is lost.
            while let Control::Return(node) = control {
                match self.step_return(node, &mut stack) {
                    Step::Continue(c) => control = c,
                    Step::Done(outcome) => break 'episode Ok(self.tenure_outcome(outcome)),
                }
            }
        };
        stack.clear();
        self.frames = stack;
        out
    }

    /// One step of the armed chaos plan: deliver at most one scheduled
    /// injection, force at most one scheduled collection of each kind,
    /// advance the shrinking heap budget, and enforce the active cap. Past
    /// the plan's horizon the plan is dropped entirely, returning the
    /// machine to undisturbed behaviour. Returns the replacement control
    /// when a fault fires, `None` when this step is undisturbed (the
    /// common case — kept out of the return value so the hot loop never
    /// moves `Control`).
    // Out of line: it runs only under an armed plan, and inlined into the
    // run loop it costs the unarmed hot path.
    #[inline(never)]
    fn chaos_tick(&mut self, control: &mut Control, stack: &mut [Frame]) -> Option<Control> {
        let raising = matches!(control, Control::Raising(_));
        let step = self.stats.steps;
        let st = self.chaos.as_mut()?;
        if step >= st.plan.horizon {
            self.chaos = None;
            return None;
        }
        let mut inject = None;
        if let Some((at, e)) = st.plan.injections.get(st.next_injection) {
            if step >= *at && !raising {
                st.next_injection += 1;
                inject = Some(e.clone());
            }
        }
        let force_gc = st
            .plan
            .force_gc_at
            .get(st.next_gc)
            .is_some_and(|at| step >= *at);
        if force_gc {
            st.next_gc += 1;
        }
        let force_minor = st
            .plan
            .force_minor_at
            .get(st.next_minor)
            .is_some_and(|at| step >= *at);
        if force_minor {
            st.next_minor += 1;
        }
        while let Some((at, c)) = st.plan.heap_budget.get(st.next_budget) {
            if step < *at {
                break;
            }
            st.active_cap = Some(*c);
            st.next_budget += 1;
        }
        let cap = st.active_cap;
        let sabotage = st.plan.sabotage_forwarding;
        if force_minor {
            self.stats.forced_gcs += 1;
            self.minor_collect(control, stack);
            if sabotage {
                // Test-only sabotage: strand a stale forwarding pointer
                // to prove the generational audit catches evacuation
                // corruption (the planted cell is unreachable, so
                // execution and re-evaluation stay sound).
                self.heap.plant_stale_forwarding();
            }
        }
        if force_gc {
            // Rooted at the pre-fault control: conservative (keeps at most
            // one extra node alive for one cycle) and correct either way.
            self.stats.forced_gcs += 1;
            self.collect_during_run(control, stack);
            if sabotage {
                self.heap.plant_stale_forwarding();
            }
        }
        if let Some(exn) = inject {
            self.stats.async_injected += 1;
            return Some(Control::Raising(exn));
        }
        if let Some(cap) = cap {
            if self.heap.live() >= cap && !raising {
                // The shrinking budget: allocation past the cap fails with
                // an asynchronous HeapOverflow, as a real memory monitor
                // would deliver it.
                return Some(Control::Raising(Exception::HeapOverflow));
            }
        }
        None
    }

    /// A minor collection mid-run: evacuates the live nursery into the
    /// tenured space, rewriting every root the run loop holds — the
    /// registered roots, the inline caches, the current control, and every
    /// stack frame.
    fn minor_collect(&mut self, control: &mut Control, stack: &mut [Frame]) {
        let reuses_before = self.heap.reuses();
        let Machine {
            heap, roots, ics, ..
        } = self;
        let outcome = heap.collect_minor(&mut |f| {
            for r in roots.iter_mut() {
                *r = f(*r);
            }
            for slot in ics.iter_mut().flatten() {
                *slot = f(*slot);
            }
            control.visit_nodes(f);
            for frame in stack.iter_mut() {
                frame.visit_nodes(f);
            }
        });
        self.stats.minor_gcs += 1;
        self.stats.gc_runs += 1;
        self.stats.nodes_promoted += outcome.promoted;
        self.stats.gc_freed += outcome.freed;
        self.stats.freelist_reuses += self.heap.reuses() - reuses_before;
    }

    /// A major collection mid-run: evacuates the nursery first (so every
    /// live reference is immediate or tenured), then marks the transient
    /// roots of the current control and stack plus the machine's own
    /// ([`Machine::mark_machine_roots`]) and sweeps the tenured arena.
    fn collect_during_run(&mut self, control: &mut Control, stack: &mut [Frame]) {
        self.minor_collect(control, stack);
        let mut c = crate::gc::Collector::new(self.heap.tenured_len());
        let mut mark = |n| {
            c.mark_root(n);
            n
        };
        control.visit_nodes(&mut mark);
        for frame in stack.iter_mut() {
            frame.visit_nodes(&mut mark);
        }
        self.mark_machine_roots(&mut c);
        c.trace(&self.heap);
        let prev_free = self.heap.free_list();
        let (freed, head) = c.sweep(&mut self.heap, prev_free);
        self.heap.set_free_list(head, freed);
        self.stats.gc_runs += 1;
        self.stats.major_gcs += 1;
        self.stats.gc_freed += freed;
        // Re-arm: if the collection did not reclaim much, back off so we
        // do not thrash.
        let live = self.heap.live();
        self.next_gc_at = (live + live / 2).max(self.config.gc_threshold);
    }

    /// Forces `node`: values return, poisoned nodes re-raise (§3.3), black
    /// holes are detected (§5.2), and a thunk is black-holed under an
    /// update frame while its code runs.
    fn step_enter(&mut self, node: NodeId, stack: &mut Vec<Frame>) -> Control {
        let node = self.heap.resolve(node);
        if node.is_imm() {
            // Tagged immediates are WHNF already.
            return Control::Return(node);
        }
        match self.heap.get(node) {
            Node::Value(_) => Control::Return(node),
            Node::Ind(_) => unreachable!("resolved"),
            Node::Forwarded(_) => {
                panic!("entered a stale forwarding pointer — evacuation corruption")
            }
            Node::Free { .. } => {
                panic!("entered a freed node — a live node escaped the GC roots")
            }
            // §3.3: a poisoned thunk re-raises the same exception.
            Node::Poisoned(exn) => Control::Raising(exn.clone()),
            // §5.2: a detectable bottom.
            Node::CBlackhole { .. } => match self.config.blackholes {
                BlackholeMode::Detect => {
                    self.stats.blackholes_detected += 1;
                    Control::Raising(Exception::NonTermination)
                }
                // Spin in place; the step limit will eventually fire.
                BlackholeMode::Loop => Control::Enter(node),
            },
            Node::CThunk { code, env } => {
                let (code, env) = (*code, env.clone());
                self.enter_thunk(node, code, env, stack)
            }
        }
    }

    /// §5.2's thunk entry: the thunk `node` becomes a black hole under an
    /// `Update` frame while its code runs.
    #[inline(always)]
    pub(crate) fn enter_thunk(
        &mut self,
        node: NodeId,
        code: CodeId,
        env: CEnv,
        stack: &mut Vec<Frame>,
    ) -> Control {
        self.heap.set(
            node,
            Node::CBlackhole {
                code,
                env: env.clone(),
            },
        );
        stack.push(Frame::Update(node));
        Control::Eval(code, env)
    }

    /// Overwrites the forced thunk `target` with an indirection to its
    /// value.
    #[inline(always)]
    pub(crate) fn update_thunk(&mut self, target: NodeId, value: NodeId) {
        self.stats.thunk_updates += 1;
        self.heap.set(target, Node::Ind(value));
    }

    /// §3.5's operand order for one binary primitive: the Seeded policy
    /// draws once per call, so both tiers see the same sequence.
    #[inline(always)]
    pub(crate) fn left_first(&mut self) -> bool {
        match self.config.order {
            OrderPolicy::LeftToRight => true,
            OrderPolicy::RightToLeft => false,
            OrderPolicy::Seeded(_) => self.rng.gen_bool(0.5),
        }
    }

    /// One `Eval` transition.
    // Always inlined into the run loop, its only caller: out of line it
    // costs a call per step.
    #[inline(always)]
    fn step_eval(&mut self, code: CodeId, env: CEnv, stack: &mut Vec<Frame>) -> Control {
        let op = self.linked().op(code);
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.hit(op.kind_index());
        }
        match op {
            COp::Local(back) => self.enter_fused(env.get_back(back), stack),
            COp::Global(g) => self.enter_fused(NodeId::global(g), stack),
            op @ (COp::Int(_) | COp::Char(_) | COp::Str(_) | COp::Con { .. } | COp::Lam { .. }) => {
                Control::Return(self.value_form(op, &env).expect("a value form"))
            }
            COp::App { .. } => self.eval_code_fused(code, &env, stack),
            COp::Let { rhs, body } => {
                let t = self.alloc_code(rhs, &env);
                // Test-only sabotage: propagate a speculation's stored
                // poison at the binding site — the "unlicensed fusion"
                // that treats a lazy binding as strict. The differential
                // battery proves the oracle catches it.
                if !t.is_imm()
                    && self
                        .chaos
                        .as_ref()
                        .is_some_and(|st| st.plan.sabotage_spec_propagate)
                {
                    if let Node::Poisoned(exn) = self.heap.get(t) {
                        return Control::Raising(exn.clone());
                    }
                }
                Control::Eval(body, env.push(t, &mut self.stats.env_chunks))
            }
            COp::LetRec { rhss, n, body } => {
                // Tie the knot: allocate empty-environment thunks, extend,
                // then rewrite each with the extended environment.
                let mut nodes = Vec::with_capacity(usize::from(n));
                for i in 0..u32::from(n) {
                    let k = self.linked().kid(rhss + i);
                    nodes.push((
                        k,
                        self.alloc(Node::CThunk {
                            code: k,
                            env: CEnv::empty(),
                        }),
                    ));
                }
                let mut env2 = env;
                for (_, nd) in &nodes {
                    env2 = env2.push(*nd, &mut self.stats.env_chunks);
                }
                for (k, nd) in nodes {
                    self.heap.set(
                        nd,
                        Node::CThunk {
                            code: k,
                            env: env2.clone(),
                        },
                    );
                }
                Control::Eval(body, env2)
            }
            COp::Case { scrut, arms_at, n } => {
                // A forced scrutinee dispatches in this step — no Select
                // frame, no Eval round trip.
                if let Some(node) = self.immediate_node(scrut, &env) {
                    return self.select_arms(node, arms_at, n, &env);
                }
                // So does a ready fused region: it occupies this step
                // whole, so a Select frame would be pushed and popped (or
                // trimmed) without ever being observable.
                if let COp::Fused { body } = self.linked().op(scrut) {
                    match self.exec_region(body, &env) {
                        Some(Ok(node)) => return self.select_arms(node, arms_at, n, &env),
                        Some(Err(exn)) => return Control::Raising(exn),
                        None => {}
                    }
                }
                stack.push(Frame::Select {
                    arms_at,
                    n,
                    env: env.clone(),
                });
                self.eval_code_fused(scrut, &env, stack)
            }
            COp::Prim1 { op: prim, a } => {
                if let Some(r) = self.immediate_prim(op, &env) {
                    return r.into();
                }
                stack.push(Frame::PrimLast {
                    op: prim,
                    first: None,
                    left_first: true,
                });
                self.eval_code_fused(a, &env, stack)
            }
            COp::Prim2 { op: prim, a, b } => {
                if let Some(r) = self.immediate_prim(op, &env) {
                    return r.into();
                }
                // The §3.5 draw, once per binary primitive: made in
                // `immediate_prim` when both operands are forced, here
                // otherwise.
                let left_first = self.left_first();
                let (first, next) = if left_first { (a, b) } else { (b, a) };
                stack.push(Frame::PrimFirst {
                    op: prim,
                    next,
                    env: env.clone(),
                    left_first,
                });
                self.eval_code_fused(first, &env, stack)
            }
            COp::Seq { a, b } => {
                // `seq` on a value that already exists is the identity on
                // control: go straight to `b`.
                if self.immediate_node(a, &env).is_some() {
                    return Control::Eval(b, env);
                }
                stack.push(Frame::SeqSecond {
                    code: b,
                    env: env.clone(),
                });
                self.eval_code_fused(a, &env, stack)
            }
            COp::MapExn { f, a } => {
                stack.push(Frame::MapExnCatch {
                    f,
                    env: env.clone(),
                });
                Control::Eval(a, env)
            }
            COp::IsExn { a } => {
                stack.push(Frame::IsExnCatch);
                Control::Eval(a, env)
            }
            COp::GetExn { a } => {
                stack.push(Frame::UnsafeGetExnCatch);
                Control::Eval(a, env)
            }
            COp::Raise { a } => {
                stack.push(Frame::RaiseEval);
                Control::Eval(a, env)
            }
            COp::Fused { body } => match self.exec_region(body, &env) {
                Some(r) => r.into(),
                // Not every leaf is forced yet: fall back to stepped
                // evaluation of the region body, which is ordinary code.
                None => Control::Eval(body, env),
            },
            COp::Spec { body } => {
                // Defensive: the pass only emits `Spec` in operand
                // positions (handled by `alloc_code`), but evaluating one
                // directly is still well-defined — build and enter.
                let node = self.alloc_spec(body, &env);
                self.enter_fused(node, stack)
            }
            COp::AppG { f, ic, a } => self.eval_appg(f, ic, a, &env, stack),
        }
    }

    /// Pops one frame for the value `node`.
    fn step_return(&mut self, node: NodeId, stack: &mut Vec<Frame>) -> Step {
        let Some(frame) = stack.pop() else {
            return Step::Done(Outcome::Value(node));
        };
        Step::Continue(match frame {
            // The answer reached the episode's catch mark: finish now.
            // Re-entering the loop with the mark already popped would open
            // a one-step window in which a freshly delivered asynchronous
            // exception finds an empty stack and escapes as `Uncaught`
            // from a fully protected episode.
            Frame::Catch => return Step::Done(Outcome::Value(node)),
            Frame::Update(target) => {
                self.update_thunk(target, node);
                Control::Return(node)
            }
            Frame::Apply(arg) => {
                let (body, env) = self
                    .closure_entry(node, arg)
                    .expect("application of a non-function (ill-typed program)");
                self.enter_body(body, env, stack)
            }
            Frame::Select { arms_at, n, env } => self.select_arms(node, arms_at, n, &env),
            Frame::PrimFirst {
                op,
                next,
                env,
                left_first,
            } => {
                stack.push(Frame::PrimLast {
                    op,
                    first: Some(node),
                    left_first,
                });
                self.eval_code_fused(next, &env, stack)
            }
            Frame::PrimLast {
                op,
                first,
                left_first,
            } => match first {
                None => self.apply_prim(op, &[node]),
                Some(first) if left_first => self.apply_prim2(op, first, node),
                Some(first) => self.apply_prim2(op, node, first),
            }
            .into(),
            Frame::SeqSecond { code, env } => self.eval_code_fused(code, &env, stack),
            Frame::RaiseEval => self.convert_and_raise(node, stack),
            Frame::RaisePayload { con } => {
                let exn = match self.heap.whnf(node) {
                    Some(Whnf::Str(s)) => Exception::from_constructor(con, Some(s))
                        .unwrap_or_else(|| panic!("unknown exception constructor '{con}'")),
                    _ => panic!("exception payload is not a string (ill-typed program)"),
                };
                Control::Raising(exn)
            }
            // The argument evaluated to a value: not an exception.
            Frame::IsExnCatch => Control::Return(self.bool_node(false)),
            Frame::UnsafeGetExnCatch => {
                let ok = HValue::Con(Known::Ok.symbol(), [node].into());
                Control::Return(self.alloc_value(ok))
            }
            Frame::MapExnCatch { .. } => Control::Return(node),
        })
    }

    /// Converts a WHNF `Exception` constructor value into a raise,
    /// forcing the string payload first if there is one.
    fn convert_and_raise(&mut self, node: NodeId, stack: &mut Vec<Frame>) -> Control {
        let (name, payload) = match self.heap.whnf(node) {
            Some(Whnf::Con(name, fields)) => (name, fields.first().copied()),
            _ => panic!("raise applied to a non-Exception value (ill-typed program)"),
        };
        match payload {
            None => {
                let exn = Exception::from_constructor(name, None)
                    .unwrap_or_else(|| panic!("unknown exception constructor '{name}'"));
                Control::Raising(exn)
            }
            Some(payload) => {
                stack.push(Frame::RaisePayload { con: name });
                Control::Enter(payload)
            }
        }
    }

    /// §3.3's core move: trim the stack to the topmost catch mark.
    /// Synchronous raises poison the thunks under evaluation; asynchronous
    /// ones restore them (§5.1); handler frames intercept synchronous
    /// exceptions only.
    fn step_raise(&mut self, exn: Exception, stack: &mut Vec<Frame>) -> Step {
        let asynchronous = exn.is_asynchronous();
        loop {
            let Some(frame) = stack.pop() else {
                return Step::Done(Outcome::Uncaught(exn));
            };
            match frame {
                Frame::Catch => return Step::Done(Outcome::Caught(exn)),
                Frame::Update(target) => {
                    let target = self.heap.resolve(target);
                    if asynchronous {
                        // Test-only sabotage: strand the black hole to
                        // prove the heap audit catches a broken restore.
                        let sabotaged = self
                            .chaos
                            .as_ref()
                            .is_some_and(|st| st.plan.sabotage_async_restore);
                        // §5.1: restore a *resumable* suspension.
                        if !sabotaged {
                            if let Node::CBlackhole { code, env } = self.heap.get(target) {
                                let thunk = Node::CThunk {
                                    code: *code,
                                    env: env.clone(),
                                };
                                self.heap.set(target, thunk);
                                self.stats.thunks_restored += 1;
                            }
                        }
                    } else {
                        // §3.3: overwrite with `raise ex`.
                        self.heap.set(target, Node::Poisoned(exn.clone()));
                        self.stats.thunks_poisoned += 1;
                    }
                    self.stats.frames_trimmed += 1;
                }
                Frame::IsExnCatch if !asynchronous => {
                    // unsafeIsException caught a synchronous exception.
                    let t = self.bool_node(true);
                    return Step::Continue(Control::Return(t));
                }
                Frame::UnsafeGetExnCatch if !asynchronous => {
                    let ev = self.alloc_exception_value(&exn);
                    let bad = HValue::Con(Known::Bad.symbol(), [ev].into());
                    let t = self.alloc_value(bad);
                    return Step::Continue(Control::Return(t));
                }
                Frame::MapExnCatch { f, env } if !asynchronous => {
                    // Rewrite the representative exception through f and
                    // re-raise whatever comes back: evaluate f under an
                    // Apply frame holding the exception value.
                    let exn_node = self.alloc_exception_value(&exn);
                    stack.push(Frame::RaiseEval);
                    stack.push(Frame::Apply(exn_node));
                    return Step::Continue(Control::Eval(f, env));
                }
                _ => {
                    self.stats.frames_trimmed += 1;
                }
            }
        }
    }
}

impl From<Result<NodeId, Exception>> for Control {
    /// A value returns, an exception raises.
    #[inline(always)]
    fn from(r: Result<NodeId, Exception>) -> Control {
        match r {
            Ok(v) => Control::Return(v),
            Err(exn) => Control::Raising(exn),
        }
    }
}

impl Control {
    /// Passes every node reference the control register holds through
    /// `f`, storing what it returns: the minor collector's evacuation, or
    /// the major collector's marking with an `f` that returns its input.
    fn visit_nodes(&mut self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        match self {
            Control::Eval(_, env) => env.update_nodes(f),
            Control::Enter(n) | Control::Return(n) => *n = f(*n),
            Control::Raising(_) => {}
        }
    }
}

impl Frame {
    /// As [`Control::visit_nodes`], for every node reference the frame
    /// holds.
    fn visit_nodes(&mut self, f: &mut dyn FnMut(NodeId) -> NodeId) {
        match self {
            Frame::Update(n) | Frame::Apply(n) | Frame::PrimLast { first: Some(n), .. } => {
                *n = f(*n)
            }
            Frame::Select { env, .. }
            | Frame::PrimFirst { env, .. }
            | Frame::SeqSecond { env, .. }
            | Frame::MapExnCatch { env, .. } => env.update_nodes(f),
            Frame::PrimLast { first: None, .. }
            | Frame::RaiseEval
            | Frame::RaisePayload { .. }
            | Frame::IsExnCatch
            | Frame::UnsafeGetExnCatch
            | Frame::Catch => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// The executor's working set is its heap cells, environments, control
    /// register and frames, so a change to any of their sizes is a
    /// performance change (EXPERIMENTS.md E31) and has to be made on
    /// purpose.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn executor_cells_keep_their_sizes() {
        assert_eq!(size_of::<Frame>(), 32, "Frame");
        assert_eq!(size_of::<Node>(), 40, "Node");
        assert_eq!(size_of::<CEnv>(), 24, "CEnv");
        assert_eq!(size_of::<Control>(), 40, "Control");
    }
}
