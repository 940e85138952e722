//! Flat code on the machine: linking an image, lowering queries into the
//! machine-local extension, and the fused paths the kernel's eval step
//! ([`crate::kernel`]) takes.
//!
//! * top-level name `g` is tenured cell `g` ([`NodeId::global`]):
//!   [`Machine::link_code`] appends the globals as cells `0..n`, so the
//!   knot is tied by index and global thunks carry *empty* environments;
//! * operand positions allocate without a thunk where they can: slot loads
//!   reuse the bound node, literals go straight to WHNF, and tier-2
//!   speculation sites build their value eagerly;
//! * variable entry, direct calls, tier-2 regions and inline caches are
//!   fused into the step that caused them;
//! * case dispatch walks pre-lowered [`crate::code::CArm`]s, matching
//!   constructor tags by interned-`u32` compare.

use rand::Rng;
use std::sync::Arc;

use urk_syntax::core::Expr;
use urk_syntax::Exception;

use crate::code::{compile_apply, compile_query, COp, CPat, Code, CodeId, LinkedCode};
use crate::env::CEnv;
use crate::heap::{Fields, HValue, Node, NodeId, Whnf};
use crate::kernel::{Control, Frame};
use crate::machine::{Machine, MachineError, Outcome, PrimResult, Tier};
use crate::region::RegionProgram;
use crate::OrderPolicy;

impl Machine {
    /// Links a compiled program into this machine: appends one knot-tied
    /// thunk per top-level binding as tenured cells `0..n` (live for the
    /// machine's life: every collection marks them) and sets the
    /// machine's tier tag. The `Arc<Code>` is shared — an evaluation pool
    /// links the same program into every worker.
    ///
    /// # Panics
    ///
    /// Panics if compiled code is already linked (one program per
    /// machine; build a fresh machine to swap programs), or if the heap
    /// is not empty.
    pub fn link_code(&mut self, base: Arc<Code>) {
        self.link(LinkedCode::new(base));
    }

    /// [`Machine::link_code`] into `linked`, whose buffers are empty: the
    /// one link path of fresh and recycled machines.
    pub(crate) fn link(&mut self, linked: LinkedCode) {
        assert!(
            self.code.is_none(),
            "compiled code already linked into this machine"
        );
        let base = &linked.base;
        if cfg!(debug_assertions) || self.config.verify_code {
            if let Err(e) = base.verdict() {
                panic!("refusing to link corrupt compiled code: {e}");
            }
        }
        // Global code reaches global `g` as cell `g`, so the environment
        // stays empty: this *is* the recursive knot, tied by indices.
        // Tenured, so the ids are stable; each counts as one allocation.
        let n = self
            .heap
            .append_globals(base.globals.iter().map(|&(_, code)| Node::CThunk {
                code,
                env: CEnv::empty(),
            }));
        self.stats.allocations += n as u64;
        // Inline-cache slots are per-machine and per-link: relinking is
        // impossible (the assert above), and a recycled table is cleared
        // here, so a populated slot can never point at a stale callee.
        self.ics.clear();
        self.ics.resize(base.ic_slot_count() as usize, None);
        if base.is_tier2() {
            self.stats.tier = Tier::Two;
        }
        self.code = Some(linked);
    }

    /// Compiles a query expression against the linked program (into the
    /// machine-local extension buffer) and evaluates it to WHNF.
    pub fn eval_code_expr(&mut self, expr: &Expr, catch: bool) -> Result<Outcome, MachineError> {
        let t0 = std::time::Instant::now();
        let code = self
            .code
            .as_mut()
            .expect("no compiled code linked (call link_code first)");
        let (entry, ops) = compile_query(&code.base, &mut code.ext, expr);
        if cfg!(debug_assertions) || self.config.verify_code {
            if let Err(e) = crate::code::verify_query(&code.base, &code.ext, entry) {
                panic!("compiled query failed verification: {e}");
            }
        }
        self.stats.compile_ops += ops;
        self.stats.compile_micros += t0.elapsed().as_micros() as u64;
        self.run(Control::Eval(entry, CEnv::empty()), catch)
    }

    /// Compiles a query expression and suspends it as a heap thunk.
    /// Forcing the node (with [`Machine::eval_node`]) runs it, and an
    /// asynchronous trim restores it resumably.
    pub fn alloc_code_thunk(&mut self, expr: &Expr) -> NodeId {
        let t0 = std::time::Instant::now();
        let code = self
            .code
            .as_mut()
            .expect("no compiled code linked (call link_code first)");
        let (entry, ops) = compile_query(&code.base, &mut code.ext, expr);
        if cfg!(debug_assertions) || self.config.verify_code {
            if let Err(e) = crate::code::verify_query(&code.base, &code.ext, entry) {
                panic!("compiled query failed verification: {e}");
            }
        }
        self.stats.compile_ops += ops;
        self.stats.compile_micros += t0.elapsed().as_micros() as u64;
        // Tenured: the caller holds the id across evaluations, and nursery
        // ids move at every minor collection.
        self.alloc_tenured(Node::CThunk {
            code: entry,
            env: CEnv::empty(),
        })
    }

    /// Suspends the application `fun arg` as a heap thunk: the IO
    /// runners' `>>=` step, applying a continuation to the value an action
    /// produced. The thunk runs one `App` op over a two-slot environment
    /// (`fun` below `arg`), lowered once per linked machine, so a bind
    /// step allocates one cell and interns nothing. Tenured, like
    /// [`Machine::alloc_code_thunk`].
    pub fn alloc_apply(&mut self, fun: NodeId, arg: NodeId) -> NodeId {
        let code = self
            .code
            .as_mut()
            .expect("no compiled code linked (call link_code first)");
        let entry = *code
            .apply
            .get_or_insert_with(|| compile_apply(&code.base, &mut code.ext));
        let chunks = &mut self.stats.env_chunks;
        let env = CEnv::empty().push(fun, chunks).push(arg, chunks);
        self.alloc_tenured(Node::CThunk { code: entry, env })
    }

    pub(crate) fn linked(&self) -> &LinkedCode {
        self.code
            .as_ref()
            .expect("compiled node reached a machine with no linked code")
    }

    /// Allocates a node for an operand op: slot loads reuse the bound
    /// node (sharing preserved), literals go straight to WHNF (a tagged
    /// immediate where possible), everything else suspends as a `CThunk`
    /// in the nursery.
    pub(crate) fn alloc_code(&mut self, code: CodeId, env: &CEnv) -> NodeId {
        match self.linked().op(code) {
            COp::Local(back) => env.get_back(back),
            COp::Global(g) => NodeId::global(g),
            COp::Int(n) => self.int_node(n),
            COp::Char(c) => self.alloc_value(HValue::Char(c)),
            COp::Str(i) => {
                let s = self.linked().str_at(i);
                self.alloc_value(HValue::Str(s))
            }
            COp::Con { tag, n: 0, .. } => self.nullary_con_node(tag),
            COp::Spec { body } => self.alloc_spec(body, env),
            _ => self.alloc(Node::CThunk {
                code,
                env: env.clone(),
            }),
        }
    }

    /// Allocates the operands of a constructor's `n` fields, whose codes
    /// are the kids from `args`.
    pub(crate) fn alloc_fields(&mut self, args: u32, n: u16, env: &CEnv) -> Fields {
        (0..u32::from(n))
            .map(|i| {
                let k = self.linked().kid(args + i);
                self.alloc_code(k, env)
            })
            .collect()
    }

    /// Allocates a tier-2 speculation site: builds the value eagerly when
    /// the body is a value form or a ready fused region, falling back to a
    /// plain thunk otherwise. The paper's license (§4–§5) is exactly what
    /// makes the region case sound: a synchronous raise during speculative
    /// evaluation of a *lazy* position is stored as poison — the same
    /// `raise ex` overwrite §3.3 trimming would eventually perform — so
    /// demand that never arrives never observes the exception, and demand
    /// that does arrive raises the same member of the denoted set.
    pub(crate) fn alloc_spec(&mut self, body: CodeId, env: &CEnv) -> NodeId {
        match self.linked().op(body) {
            COp::Lam { body: lam_body } => {
                self.stats.fused_steps += 1;
                self.alloc_value(HValue::CFun {
                    body: lam_body,
                    env: env.clone(),
                })
            }
            COp::Con { tag, args, n } => {
                self.stats.fused_steps += 1;
                let fields = self.alloc_fields(args, n, env);
                self.alloc_value(HValue::Con(tag, fields))
            }
            COp::Str(i) => {
                self.stats.fused_steps += 1;
                let s = self.linked().str_at(i);
                self.alloc_value(HValue::Str(s))
            }
            _ => {
                // A prim region. Under a Seeded order policy the region
                // stays a thunk: tier 1 draws from the §3.5 stream when
                // the binding is *demanded*, and evaluating here would
                // move (or drop) those draws and desync the per-seed
                // lockstep the differential battery checks.
                if !matches!(self.config.order, OrderPolicy::Seeded(_)) {
                    if let Some(result) = self.exec_region(body, env) {
                        return match result {
                            Ok(v) => v,
                            Err(exn) => self.alloc(Node::Poisoned(exn)),
                        };
                    }
                }
                self.alloc(Node::CThunk {
                    code: body,
                    env: env.clone(),
                })
            }
        }
    }

    /// Evaluates a fused region atomically if every leaf is already a
    /// value (`None` = not ready, caller falls back to stepped
    /// evaluation). A ready region runs its straight-line program
    /// ([`crate::region`]): verified ≤ [`crate::code::MAX_REGION_OPS`]
    /// ops, call-free, so termination is syntactic and no asynchronous
    /// delivery point is lost — the whole region occupies a single step,
    /// exactly like a tier-1 primitive over immediates.
    pub(crate) fn exec_region(
        &mut self,
        root: CodeId,
        env: &CEnv,
    ) -> Option<Result<NodeId, Exception>> {
        let prog = self.linked().region(root);
        // Under Seeded the scan reads the left-to-right slice: the leaves
        // are the same.
        let left_first = !matches!(self.config.order, OrderPolicy::RightToLeft);
        if !self.region_ready(prog, left_first, env) {
            return None;
        }
        self.stats.fused_steps += 1;
        if let OrderPolicy::Seeded(_) = self.config.order {
            // No fixed slice encodes a per-primitive draw (DESIGN.md §15).
            return Some(self.region_eval(root, env));
        }
        Some(self.run_region(prog, left_first))
    }

    /// True if the program is non-empty and every variable leaf of the
    /// slice for `left_first`'s order is already in WHNF — one draw-free
    /// scan, so a bail-out to stepped evaluation never perturbs the §3.5
    /// Seeded stream. A ready scan leaves the resolved leaves in
    /// `region_vals`, in slice order, for [`Machine::run_region`].
    pub(crate) fn region_ready(
        &mut self,
        prog: RegionProgram,
        left_first: bool,
        env: &CEnv,
    ) -> bool {
        if prog.len == 0 {
            return false;
        }
        let Machine {
            heap,
            code,
            region_vals,
            ..
        } = self;
        let code = code.as_ref().expect("a region runs on linked code");
        region_vals.clear();
        code.region_slice(prog, left_first).iter().all(|op| {
            let n = match *op {
                COp::Local(back) => env.get_back(back),
                COp::Global(g) => NodeId::global(g),
                _ => return true,
            };
            let n = heap.resolve(n);
            region_vals.push(n);
            n.is_imm() || matches!(heap.get(n), Node::Value(_))
        })
    }

    /// Runs a ready region program's slice for `left_first`'s order.
    /// `region_vals` holds the leaves [`Machine::region_ready`] resolved,
    /// in slice order, and the operand stack grows above them. A `Prim2`
    /// pops its operands in the order the slice pushed them, so
    /// `left_first` also says which one is `a`. Raises propagate as
    /// `Err` — the caller decides whether that poisons (speculation) or
    /// raises (strict position), which is the entire §3.3 discipline in
    /// one line.
    #[inline(always)]
    pub(crate) fn run_region(
        &mut self,
        prog: RegionProgram,
        left_first: bool,
    ) -> Result<NodeId, Exception> {
        let base = self.region_vals.len();
        let mut leaf = 0;
        let at = prog.start(left_first);
        for pc in at..at + prog.len {
            let v = match self.linked().region_op(pc) {
                COp::Local(_) | COp::Global(_) => {
                    leaf += 1;
                    self.region_vals[leaf - 1]
                }
                COp::Int(n) => self.int_node(n),
                COp::Char(c) => self.alloc_value(HValue::Char(c)),
                COp::Str(i) => {
                    let s = self.linked().str_at(i);
                    self.alloc_value(HValue::Str(s))
                }
                COp::Con { tag, .. } => self.nullary_con_node(tag),
                COp::Prim1 { op, .. } => {
                    let x = self.region_operand();
                    match self.apply_prim(op, &[x]) {
                        PrimResult::Value(v) => v,
                        PrimResult::Raise(exn) => return Err(exn),
                    }
                }
                COp::Prim2 { op, .. } => {
                    let y = self.region_operand();
                    let x = self.region_operand();
                    let (a, b) = if left_first { (x, y) } else { (y, x) };
                    match self.apply_prim2(op, a, b) {
                        PrimResult::Value(v) => v,
                        PrimResult::Raise(exn) => return Err(exn),
                    }
                }
                // Both slices run `a` before `b`: keep `b`.
                COp::Seq { .. } => {
                    let b = self.region_operand();
                    self.region_operand();
                    b
                }
                other => unreachable!("op kind {} in a region program", other.kind_index()),
            };
            self.region_vals.push(v);
        }
        Ok(self.region_vals[base])
    }

    /// Pops the region operand stack.
    #[inline(always)]
    fn region_operand(&mut self) -> NodeId {
        self.region_vals
            .pop()
            .expect("a verified region pops what it pushed")
    }

    /// Evaluates a ready region by walking its tree: the recursive
    /// definition the programs are derived from, and the evaluator under
    /// the Seeded policy. The §3.5 Seeded draw advances exactly once per
    /// binary primitive, and the chosen-first operand's subtree evaluates
    /// first, so the draw *sequence* matches the stepped loops op for op.
    pub(crate) fn region_eval(&mut self, code: CodeId, env: &CEnv) -> Result<NodeId, Exception> {
        match self.linked().op(code) {
            COp::Local(back) => Ok(self.heap.resolve(env.get_back(back))),
            COp::Global(g) => Ok(self.heap.resolve(NodeId::global(g))),
            COp::Int(n) => Ok(self.int_node(n)),
            COp::Char(c) => Ok(self.alloc_value(HValue::Char(c))),
            COp::Str(i) => {
                let s = self.linked().str_at(i);
                Ok(self.alloc_value(HValue::Str(s)))
            }
            COp::Con { tag, .. } => Ok(self.nullary_con_node(tag)),
            COp::Prim1 { op, a } => {
                let na = self.region_eval(a, env)?;
                match self.apply_prim(op, &[na]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                }
            }
            COp::Prim2 { op, a, b } => {
                let left_first = match self.config.order {
                    OrderPolicy::LeftToRight => true,
                    OrderPolicy::RightToLeft => false,
                    OrderPolicy::Seeded(_) => self.rng.gen_bool(0.5),
                };
                let (na, nb) = if left_first {
                    let na = self.region_eval(a, env)?;
                    (na, self.region_eval(b, env)?)
                } else {
                    let nb = self.region_eval(b, env)?;
                    (self.region_eval(a, env)?, nb)
                };
                match self.apply_prim2(op, na, nb) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                }
            }
            COp::Seq { a, b } => {
                self.region_eval(a, env)?;
                self.region_eval(b, env)
            }
            other => unreachable!("op kind {} in a verified fused region", other.kind_index()),
        }
    }

    /// Applies a global through its monomorphic inline cache: a hit jumps
    /// straight into the cached callee's body, a miss resolves the
    /// global's cell and caches the result if it is already a function
    /// value. The cache is per-machine (GC rewrites and marks the slots)
    /// and per-link (relinking panics), so a populated slot is always the
    /// current program's callee.
    pub(crate) fn eval_appg(
        &mut self,
        f: CodeId,
        ic: u32,
        a: CodeId,
        env: &CEnv,
        stack: &mut Vec<Frame>,
    ) -> Control {
        let arg = self.alloc_code(a, env);
        if let Some(cached) = self.ics[ic as usize] {
            if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(cached) {
                self.stats.ic_hits += 1;
                let fenv = fenv.push(arg, &mut self.stats.env_chunks);
                return self.enter_body(body, fenv, stack);
            }
            self.ics[ic as usize] = None;
        }
        self.stats.ic_misses += 1;
        let g = match self.linked().op(f) {
            COp::Global(g) => g,
            _ => unreachable!("verified: AppG callee is a Global"),
        };
        let node = NodeId::global(g);
        let resolved = self.heap.resolve(node);
        if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(resolved) {
            let fenv = fenv.push(arg, &mut self.stats.env_chunks);
            self.ics[ic as usize] = Some(resolved);
            return self.enter_body(body, fenv, stack);
        }
        stack.push(Frame::Apply(arg));
        self.enter_fused(node, stack)
    }

    /// Saturated entry: control enters a function body whose parameter is
    /// already bound in `env`. Each further `Lam` the body begins with
    /// takes the argument of the `Apply` frame on top of the stack in this
    /// same step, so a saturated k-ary call builds no intermediate closure
    /// and costs one step, not k. A consumed `Apply` frame carries no
    /// update and no catch mark, so §3.3 trimming and §5.1 restore see
    /// the same stack they would have seen after the skipped steps.
    #[inline]
    pub(crate) fn enter_body(
        &mut self,
        mut body: CodeId,
        mut env: CEnv,
        stack: &mut Vec<Frame>,
    ) -> Control {
        while let COp::Lam { body: inner } = self.linked().op(body) {
            let Some(&Frame::Apply(arg)) = stack.last() else {
                break;
            };
            stack.pop();
            env = env.push(arg, &mut self.stats.env_chunks);
            body = inner;
        }
        Control::Eval(body, env)
    }

    /// Entering a node without paying a separate `Enter` step: values
    /// return directly (the fused-return loop then pops frames in the
    /// same step) and thunks blackhole + push their update frame here,
    /// leaving control at the thunk body — exactly the kernel's `Enter`
    /// transitions, minus the prologue passes between them. Black holes
    /// and poisoned nodes take the kernel's full `Enter` step (they are rare and some — §5.2 detection — must
    /// observe the prologue's state).
    pub(crate) fn enter_fused(&mut self, node: NodeId, stack: &mut Vec<Frame>) -> Control {
        let node = self.heap.resolve(node);
        // Tagged immediates are their own weak-head normal form — there is
        // no cell to enter.
        if node.is_imm() {
            return Control::Return(node);
        }
        match self.heap.get(node) {
            Node::Value(_) => Control::Return(node),
            Node::CThunk { code, env } => {
                let (code, env) = (*code, env.clone());
                // A thunk whose body is already a weak-head normal form
                // (constructor, lambda, literal) or a primitive over
                // immediate operands forces right here: build or apply,
                // update, return — no black-hole write, no Update frame,
                // no extra prologue pass. A synchronous raise poisons the
                // node exactly as trimming past its update frame would
                // (§3.3).
                if let Some(result) = self.fused_force_body(code, &env) {
                    return match result {
                        Ok(v) => {
                            self.stats.thunk_updates += 1;
                            self.heap.set(node, Node::Ind(v));
                            Control::Return(v)
                        }
                        Err(exn) => {
                            self.heap.set(node, Node::Poisoned(exn.clone()));
                            Control::Raising(exn)
                        }
                    };
                }
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
            _ => Control::Enter(node),
        }
    }

    /// Evaluates an operand position with variable references fused: a
    /// slot or global is entered in this step (forced value or thunk
    /// body), anything structured becomes a fresh `Eval` step.
    pub(crate) fn eval_code_fused(
        &mut self,
        mut code: CodeId,
        env: &CEnv,
        stack: &mut Vec<Frame>,
    ) -> Control {
        loop {
            match self.linked().op(code) {
                COp::Local(back) => return self.enter_fused(env.get_back(back), stack),
                COp::Global(g) => return self.enter_fused(NodeId::global(g), stack),
                COp::App { f, a } => {
                    // The application transition, spine-iterated: each
                    // level suspends its argument and either jumps
                    // straight into a forced callee (direct-call fusion)
                    // or pushes its Apply frame and walks down — the
                    // whole curried spine costs one prologue pass. The
                    // stack-limit check lands on the next prologue, after
                    // the frames are pushed, exactly as a single deep
                    // push would.
                    let arg = self.alloc_code(a, env);
                    let callee = match self.linked().op(f) {
                        COp::Local(back) => Some(env.get_back(back)),
                        COp::Global(g) => Some(NodeId::global(g)),
                        _ => None,
                    };
                    if let Some(node) = callee {
                        if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(node) {
                            let fenv = fenv.push(arg, &mut self.stats.env_chunks);
                            return self.enter_body(body, fenv, stack);
                        }
                    }
                    stack.push(Frame::Apply(arg));
                    code = f;
                }
                COp::AppG { f, ic, a } => return self.eval_appg(f, ic, a, env, stack),
                _ => {
                    // Anything already in WHNF — a literal, constructor,
                    // lambda, or primitive over immediates — returns (or
                    // raises) in the parent's step; the frame the parent
                    // pushed pops in the fused-return loop (or trims in
                    // the raise path) exactly as it would after a stepped
                    // evaluation.
                    return match self.fused_force_body(code, env) {
                        Some(Ok(v)) => Control::Return(v),
                        Some(Err(exn)) => Control::Raising(exn),
                        None => Control::Eval(code, env.clone()),
                    };
                }
            }
        }
    }

    /// Evaluates a code body that is guaranteed to finish within the
    /// current step — a weak-head normal form to build (constructor,
    /// lambda, literal, forced slot) or a primitive over immediate
    /// operands — without any frame traffic. `None` means the body needs
    /// real stepped evaluation.
    fn fused_force_body(&mut self, code: CodeId, env: &CEnv) -> Option<Result<NodeId, Exception>> {
        match self.linked().op(code) {
            COp::Con { tag, args, n } => {
                if n == 0 {
                    return Some(Ok(self.nullary_con_node(tag)));
                }
                let fields = self.alloc_fields(args, n, env);
                Some(Ok(self.alloc_value(HValue::Con(tag, fields))))
            }
            COp::Lam { body } => Some(Ok(self.alloc_value(HValue::CFun {
                body,
                env: env.clone(),
            }))),
            COp::Prim1 { .. } | COp::Prim2 { .. } => self.immediate_prim(code, env),
            COp::Fused { body } => self.exec_region(body, env),
            _ => self.immediate_node(code, env).map(Ok),
        }
    }

    /// Evaluates a primitive whose operands are all immediate, in place.
    /// The §3.5 Seeded draw still advances exactly once per binary
    /// primitive evaluation — after the immediacy check, so a bail-out
    /// (which re-evaluates through the stepped path, drawing there)
    /// never double-draws.
    fn immediate_prim(&mut self, code: CodeId, env: &CEnv) -> Option<Result<NodeId, Exception>> {
        match self.linked().op(code) {
            COp::Prim1 { op, a } => {
                let na = self.immediate_node(a, env)?;
                Some(match self.apply_prim(op, &[na]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                })
            }
            COp::Prim2 { op, a, b } => {
                let na = self.immediate_node(a, env)?;
                let nb = self.immediate_node(b, env)?;
                if let OrderPolicy::Seeded(_) = self.config.order {
                    self.rng.gen_bool(0.5);
                }
                Some(match self.apply_prim2(op, na, nb) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                })
            }
            _ => None,
        }
    }

    /// Classifies an operand as already-in-WHNF — a literal or a slot
    /// holding a forced value — and materialises its node. Immediate
    /// operands cannot raise and cannot be interrupted mid-evaluation,
    /// so a parent primitive/case may consume them in its own step
    /// without losing any §3.3/§5.1 behaviour.
    pub(crate) fn immediate_node(&mut self, code: CodeId, env: &CEnv) -> Option<NodeId> {
        match self.linked().op(code) {
            COp::Local(back) => {
                let n = self.heap.resolve(env.get_back(back));
                (n.is_imm() || matches!(self.heap.get(n), Node::Value(_))).then_some(n)
            }
            COp::Global(g) => {
                let n = self.heap.resolve(NodeId::global(g));
                (n.is_imm() || matches!(self.heap.get(n), Node::Value(_))).then_some(n)
            }
            COp::Int(n) => Some(self.int_node(n)),
            COp::Char(c) => Some(self.alloc_value(HValue::Char(c))),
            COp::Con { tag, n: 0, .. } => Some(self.nullary_con_node(tag)),
            _ => None,
        }
    }

    /// Matches a WHNF value against the pre-lowered arms, with constructor
    /// match an interned-tag compare and binders pushed positionally.
    pub(crate) fn select_arms(
        &mut self,
        node: NodeId,
        arms_at: u32,
        n: u16,
        env: &CEnv,
    ) -> Control {
        let v = self.heap.whnf(node).expect("select on a non-value");
        for i in 0..u32::from(n) {
            let arm = self.linked().arm(arms_at + i);
            let matched = match (arm.pat, &v) {
                (CPat::Default, _) => Some(if arm.bind_scrut {
                    env.push(node, &mut self.stats.env_chunks)
                } else {
                    env.clone()
                }),
                (CPat::Int(a), Whnf::Int(b)) if a == *b => Some(env.clone()),
                (CPat::Char(a), Whnf::Char(b)) if a == *b => Some(env.clone()),
                (CPat::Str(si), Whnf::Str(s)) if self.linked().str_ref(si) == &***s => {
                    Some(env.clone())
                }
                (CPat::Con(c), Whnf::Con(d, fields)) if c == *d => {
                    let mut env2 = env.clone();
                    for f in fields.iter().take(arm.binders as usize) {
                        env2 = env2.push(*f, &mut self.stats.env_chunks);
                    }
                    Some(env2)
                }
                _ => None,
            };
            if let Some(env2) = matched {
                return Control::Eval(arm.rhs, env2);
            }
        }
        Control::Raising(Exception::PatternMatchFail("case".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile_program;
    use crate::machine::{Backend, MachineConfig};
    use crate::stats::Stats;
    use crate::tier2::{tier2_optimize, Tier2Facts};
    use urk_syntax::core::Expr;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    /// Renders `query` against `prog_src` lowered at tier 1, or at tier 2
    /// with no analysis licence (regions, speculation and inline caches
    /// only).
    fn render_at(prog_src: &str, query: &str, tier2: bool, config: MachineConfig) -> String {
        let mut data = DataEnv::new();
        let prog = desugar_program(&parse_program(prog_src).expect("parses"), &mut data)
            .expect("desugars");
        let mut code = compile_program(&prog.binds);
        if tier2 {
            code = tier2_optimize(&code, &Tier2Facts::empty());
        }
        let mut m = Machine::new(config);
        m.link_code(Arc::new(code));
        let e = desugar_expr(&parse_expr_src(query).expect("parses"), &data).expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        m.render_outcome(&out, 16)
    }

    fn compiled_render(prog_src: &str, query: &str) -> String {
        render_at(prog_src, query, false, MachineConfig::default())
    }

    /// Tier 1 and tier 2 render `query` identically.
    fn agree(prog: &str, query: &str) {
        assert_eq!(
            compiled_render(prog, query),
            render_at(prog, query, true, MachineConfig::default()),
            "{query}"
        );
    }

    #[test]
    fn async_delivery_at_every_step_of_a_protected_episode_is_caught() {
        // Regression (found by `urk fuzz`), on the flat executor, where a
        // fused return can reach the catch mark inside the step that made
        // the answer: the mark must protect the episode up to and
        // including the step on which the answer is returned.
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("seq ((\\x -> x) (19 / 28)) (case Just 3 of { Just v -> 21 })")
                .expect("parses"),
            &data,
        )
        .expect("desugars");
        for at in 1..=64u64 {
            let mut m = Machine::new(MachineConfig {
                event_schedule: vec![(at, Exception::Interrupt)],
                ..MachineConfig::default()
            });
            m.link_code(Arc::new(compile_program(&[])));
            match m.eval_code_expr(&e, true).expect("no machine error") {
                // A value means the episode finished before the delivery
                // point (the event is still pending, so rendering would
                // absorb it — don't).
                Outcome::Value(_) => assert!(
                    m.stats().steps < at,
                    "episode returned a value past the delivery at step {at}"
                ),
                Outcome::Caught(Exception::Interrupt) => {}
                other => panic!("delivery at step {at} produced {other:?}"),
            }
        }
    }

    /// A three-argument tail-recursive global loop: every argument of
    /// the recursive call is a slot load, so the call itself needs no
    /// argument thunk; the counter's `case` binding is the only thunk a
    /// tier-1 iteration allocates.
    const LOOP3: &str = "loop3 n a b c = case n - 1 of { 0 -> a + b + c; m -> loop3 m b c a }";

    /// Links `prog_src` at tier 1 or tier 2 (no analysis licence) into a
    /// fresh machine under `config`, with `query` desugared against it.
    fn linked_at(
        prog_src: &str,
        query: &str,
        tier2: bool,
        config: MachineConfig,
    ) -> (Machine, Expr) {
        let mut data = DataEnv::new();
        let prog = desugar_program(&parse_program(prog_src).expect("parses"), &mut data)
            .expect("desugars");
        let mut code = compile_program(&prog.binds);
        if tier2 {
            code = tier2_optimize(&code, &Tier2Facts::empty());
        }
        let mut m = Machine::new(config);
        m.link_code(Arc::new(code));
        let e = desugar_expr(&parse_expr_src(query).expect("parses"), &data).expect("desugars");
        (m, e)
    }

    #[test]
    fn a_saturated_loop_allocates_no_closure_per_iteration_at_either_tier() {
        for tier2 in [false, true] {
            let run = |trips: u32| {
                let (mut m, e) = linked_at(
                    LOOP3,
                    &format!("loop3 {trips} 1 2 3"),
                    tier2,
                    MachineConfig::default(),
                );
                let out = m.eval_code_expr(&e, false).expect("no machine error");
                assert!(matches!(out, Outcome::Value(_)), "{out:?}");
                m.stats().clone()
            };
            let (short, long) = (run(10), run(2_000));
            // Tier 2 speculates the counter, so nothing grows with the
            // trip count; tier 1 grows by exactly its counter thunks.
            let thunks = |s: &Stats| if tier2 { 0 } else { s.thunk_updates };
            assert_eq!(
                short.allocations - thunks(&short),
                long.allocations - thunks(&long),
                "tier2={tier2}: a closure per iteration\n{short:?}\n{long:?}"
            );
            if tier2 {
                assert_eq!(short.allocations, long.allocations, "{long:?}");
            }
        }
    }

    /// `env_chunks` counts the chunks environment spills allocate. An
    /// environment keeps four slots inline, so a loop whose body binds
    /// at most four allocates none, and `loop3`, whose four parameters
    /// and `case` binder make five, allocates one per iteration.
    #[test]
    fn environment_chunks_count_the_calls_that_outgrow_the_inline_tip() {
        const LOOP2: &str = "loop2 n a b = case n - 1 of { 0 -> a + b; m -> loop2 m b a }";
        for tier2 in [false, true] {
            let chunks = |prog: &str, query: &str| {
                let (mut m, e) = linked_at(prog, query, tier2, MachineConfig::default());
                m.eval_code_expr(&e, false).expect("no machine error");
                m.stats().env_chunks
            };
            assert_eq!(chunks(LOOP2, "loop2 2000 1 2"), 0, "tier2={tier2}");
            for trips in [10, 2_000] {
                assert_eq!(
                    chunks(LOOP3, &format!("loop3 {trips} 1 2 3")),
                    trips,
                    "tier2={tier2}"
                );
            }
        }
    }

    #[test]
    fn async_delivery_at_every_step_of_a_three_argument_loop_is_caught() {
        // Saturated entry consumes the loop's Apply frames inside the step
        // that enters its body: no delivery point may find a frame it
        // would mishandle, and no black hole may be stranded.
        for tier2 in [false, true] {
            let (mut m, e) = linked_at(LOOP3, "loop3 12 1 2 3", tier2, MachineConfig::default());
            let _ = m.eval_code_expr(&e, true).expect("no machine error");
            let undisturbed = m.stats().steps;
            for at in 1..=undisturbed + 1 {
                let config = MachineConfig {
                    event_schedule: vec![(at, Exception::Interrupt)],
                    ..MachineConfig::default()
                };
                let (mut m, e) = linked_at(LOOP3, "loop3 12 1 2 3", tier2, config);
                match m.eval_code_expr(&e, true).expect("no machine error") {
                    Outcome::Value(_) => assert!(
                        m.stats().steps < at,
                        "tier2={tier2}: a value past the delivery at step {at}"
                    ),
                    Outcome::Caught(Exception::Interrupt) => {}
                    other => panic!("tier2={tier2}: delivery at step {at} produced {other:?}"),
                }
                assert!(
                    m.audit_heap().is_consistent(),
                    "tier2={tier2} step {at}: {:?}",
                    m.audit_heap()
                );
            }
        }
    }

    #[test]
    fn successive_queries_on_one_machine_address_the_extension_correctly() {
        // Regression: the second query compiles into an extension that
        // already holds the first one's ops/kids/arms/strs, and every
        // absolute index must account for that exactly once. Each query
        // exercises all four side tables (constructors, case arms, and
        // string literals).
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("classify n = case n of { 0 -> \"zero\"; m -> \"other\" }")
                .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let code = Arc::new(compile_program(&prog.binds));
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(code);
        for (query, want) in [
            (
                "case classify 0 of { \"zero\" -> Just 1; s -> Nothing }",
                "Just 1",
            ),
            (
                "case classify 5 of { \"zero\" -> Just 1; s -> Nothing }",
                "Nothing",
            ),
            (
                "case classify 0 of { \"zero\" -> Just 2; s -> Nothing }",
                "Just 2",
            ),
        ] {
            let e = desugar_expr(&parse_expr_src(query).expect("parses"), &data).expect("desugars");
            let out = m.eval_code_expr(&e, false).expect("no machine error");
            assert_eq!(m.render_outcome(&out, 16), want, "{query}");
        }
    }

    #[test]
    fn compiled_arithmetic_and_structures() {
        agree("id x = x", "1 + 2 * 3");
        agree("id x = x", "[1, 2]");
        agree("id x = x", r#"strAppend "ab" "cd""#);
        agree("id x = x", "if 1 < 2 then 10 else 20");
        agree("id x = x", "(id 1, id 'a')");
    }

    #[test]
    fn compiled_globals_and_recursion() {
        agree(
            "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)",
            "fib 15",
        );
        agree("double x = x + x\nten = double 5", "ten + double 100");
    }

    #[test]
    fn compiled_letrec_and_case_dispatch() {
        agree(
            "id x = x",
            "let { mk = \\n -> if n == 0 then [] else n : mk (n - 1)
                 ; len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys } }
             in len (mk 100)",
        );
        agree("id x = x", "case 'x' of { 'a' -> 1; 'x' -> 2; c -> 3 }");
        agree("id x = x", r#"case "hi" of { "lo" -> 1; "hi" -> 2 }"#);
        agree("id x = x", "case Nothing of { Just n -> n }");
    }

    #[test]
    fn compiled_exceptions_trim_and_poison() {
        agree("id x = x", "1/0");
        agree("id x = x", r#"raise (UserError "Urk")"#);
        agree("id x = x", "raise (UserError (showInt (1/0)))");
        agree("id x = x", r#"mapException (\x -> UserError "Urk") (1/0)"#);
        agree("id x = x", "unsafeIsException (1/0)");
        agree("id x = x", "unsafeIsException 3");
        agree(
            "zipWith f [] [] = []\n\
             zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
             zipWith f xs ys = raise (UserError \"Unequal lists\")",
            "zipWith (/) [1, 2] [1, 0]",
        );
    }

    #[test]
    fn compiled_laziness_and_sharing() {
        agree("id x = x", r"(\x -> 3) (1/0)");
        agree("id x = x", "let x = 1/0 in 42");
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&[])));
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("let x = 10 * 10 in x + x").expect("parses"),
            &data,
        )
        .expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        assert!(matches!(out, Outcome::Value(_)));
        assert_eq!(m.stats().thunk_updates, 1, "shared thunk forced once");
    }

    #[test]
    fn compiled_async_interrupt_restores_thunks_and_resumes() {
        let mut m = Machine::new(MachineConfig {
            event_schedule: vec![(1_000, Exception::Interrupt)],
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&[])));
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("let f = \\n -> if n == 0 then 42 else f (n - 1) in f 100000")
                .expect("parses"),
            &data,
        )
        .expect("desugars");
        // A shared suspension, so the §5.1 restore is observable and
        // resumable.
        let work = m.alloc_code_thunk(&e);
        let first = m.eval_node(work, true).expect("no machine error");
        assert!(matches!(first, Outcome::Caught(Exception::Interrupt)));
        assert!(m.stats().thunks_restored >= 1, "{:?}", m.stats());
        assert_eq!(m.stats().thunks_poisoned, 0);
        assert!(m.audit_heap().is_consistent(), "{:?}", m.audit_heap());
        // The schedule is exhausted; evaluation resumes and completes.
        let second = m.eval_node(work, true).expect("no machine error");
        let Outcome::Value(n) = second else {
            panic!("resumed evaluation should complete, got {second:?}")
        };
        assert_eq!(m.render(n, 4), "42");
    }

    #[test]
    fn compiled_blackhole_detection() {
        assert_eq!(
            compiled_render("id x = x", "let black = black + 1 in black"),
            "(raise NonTermination)"
        );
    }

    #[test]
    fn compiled_gc_under_low_threshold_preserves_results() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program(
                "mk n = if n == 0 then [] else n : mk (n - 1)\n\
                 len xs = case xs of { [] -> 0; y:ys -> 1 + len ys }\n\
                 go i acc = if i == 0 then acc else go (i - 1) (acc + len (mk 50))",
            )
            .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let mut m = Machine::new(MachineConfig {
            gc_threshold: 2_000,
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&prog.binds)));
        let e =
            desugar_expr(&parse_expr_src("go 100 0").expect("parses"), &data).expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(m.render(n, 4), "5000");
        assert!(m.stats().gc_runs >= 1, "{:?}", m.stats());
        assert!(m.stats().gc_freed > 0);
    }

    #[test]
    fn compiled_seeded_order_matches_across_tiers() {
        // Same seed, same program: the Seeded policy must surface the same
        // representative exception at both tiers (one rng draw per binary
        // strict primitive).
        let prog = "both a b = a + b\nmain = both ((1/0) + raise (UserError \"a\")) (2 - raise (UserError \"b\"))";
        let query = r#"((1/0) + raise (UserError "a")) * ((2/0) - raise (UserError "b"))"#;
        for seed in 0..16 {
            let cfg = MachineConfig {
                order: OrderPolicy::Seeded(seed),
                ..MachineConfig::default()
            };
            for q in [query, "main"] {
                assert_eq!(
                    render_at(prog, q, false, cfg.clone()),
                    render_at(prog, q, true, cfg.clone()),
                    "seed {seed}: {q}"
                );
            }
        }
    }

    #[test]
    fn compiled_stats_tag_tier_and_compile_cost() {
        let mut m = Machine::new(MachineConfig::default());
        assert_eq!(m.stats().backend, Backend::Compiled);
        assert_eq!(m.stats().tier, Tier::One);
        m.link_code(Arc::new(tier2_optimize(
            &compile_program(&[]),
            &Tier2Facts::empty(),
        )));
        assert_eq!(m.stats().tier, Tier::Two);
        let data = DataEnv::new();
        let e = desugar_expr(&parse_expr_src("1 + 2").expect("parses"), &data).expect("desugars");
        let _ = m.eval_code_expr(&e, false).expect("no machine error");
        assert!(m.stats().compile_ops >= 3, "{:?}", m.stats());
        m.reset_stats();
        assert_eq!(m.stats().tier, Tier::Two, "tag survives reset");
        assert_eq!(m.stats().compile_ops, 0);
        let _ = Stats::default();
    }

    #[test]
    fn alloc_apply_applies_by_slot_and_lowers_its_code_once() {
        let mut data = DataEnv::new();
        let prog = desugar_program(&parse_program("inc n = n + 1").expect("parses"), &mut data)
            .expect("desugars");
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&prog.binds)));
        let e = desugar_expr(&parse_expr_src("inc").expect("parses"), &data).expect("desugars");
        let Outcome::Value(inc) = m.eval_code_expr(&e, false).expect("no machine error") else {
            panic!("inc is a function value")
        };
        let ext_before = m.linked().ext.ops.len();
        let mut arg = m.int_node(40);
        for want in ["41", "42"] {
            let t = m.alloc_apply(inc, arg);
            let Outcome::Value(v) = m.eval_node(t, false).expect("no machine error") else {
                panic!("the application returns")
            };
            assert_eq!(m.render(v, 4), want);
            arg = v;
        }
        assert_eq!(
            m.linked().ext.ops.len() - ext_before,
            3,
            "the App op and its two slot loads are lowered once"
        );
    }

    #[test]
    fn shared_arc_code_serves_multiple_machines() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)")
                .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let code = Arc::new(compile_program(&prog.binds));
        let e = desugar_expr(&parse_expr_src("fib 12").expect("parses"), &data).expect("desugars");
        let mut outs = Vec::new();
        for _ in 0..3 {
            let mut m = Machine::new(MachineConfig::default());
            m.link_code(Arc::clone(&code));
            let out = m.eval_code_expr(&e, false).expect("no machine error");
            let Outcome::Value(n) = out else {
                panic!("{out:?}")
            };
            outs.push(m.render(n, 4));
        }
        assert_eq!(outs, vec!["144", "144", "144"]);
        assert_eq!(Arc::strong_count(&code), 1, "machines dropped their links");
    }
}
