//! The tier-2 optimisation pass: analysis-licensed superinstruction
//! codegen over a compiled [`Code`] image.
//!
//! The paper's central claim (§4–§5) is that an *imprecise* exception
//! semantics licenses exactly the transformations a precise one forbids:
//! because an exceptional result denotes a **set** of exceptions and an
//! evaluator may surface any member, the compiler may reorder, fuse, and
//! speculate strict code without tracking which exception "comes first" —
//! and it may evaluate a lazy binding early as long as a synchronous raise
//! is *stored* (§3.3's `raise ex` overwrite) rather than propagated. This
//! pass cashes that licence in three ways:
//!
//! 1. **Fused regions** ([`COp::Fused`]): maximal call-free subtrees of
//!    strict primitives over locals/globals/literals collapse into one op
//!    executed atomically when every variable leaf is already forced —
//!    no `PrimArgs` frames, no per-op step prologue, no thunk traffic.
//!    Termination within a step is *syntactic*: regions are call-free and
//!    capped at [`MAX_REGION_OPS`] ops, which [`Code::verify`] enforces.
//! 2. **Speculation sites** ([`COp::Spec`]): lazy right-hand sides that
//!    are value forms (lambdas, constructors) build their value at
//!    allocation time; prim regions evaluate eagerly, storing a raise as
//!    a poisoned node — observationally the thunk §3.3 trimming would
//!    have left behind. Unlicensed speculation (propagating the raise)
//!    is exactly what the sabotage battery proves the oracle catches.
//! 3. **Inline-cached calls** ([`COp::AppG`]): applications whose callee
//!    is a top-level name get a per-machine monomorphic cache slot, so
//!    hot curried spines skip the global-table indirection and the
//!    callee's already-forced function value is entered directly.
//!
//! The pass also performs two purely static reductions under the same
//! licence: *constant substitution* of globals whose analysis fact proves
//! a WHNF-safe literal value (the emitted literal comes from the **fact**,
//! making the licence load-bearing — a corrupted fact produces an
//! observably wrong constant the differential oracle flags), and
//! *case-of-known-constructor* folding when the scrutinee is a literal,
//! a nullary constructor, or such a constant global.
//!
//! Everything the pass emits is re-checked: [`Code::verify`] knows the
//! tier-2 ops' structural rules, and the differential battery
//! (`tests/tier2.rs`) compares tier-2 runs against tier 1 and the
//! denotational semantics under both order policies, chaos plans, and
//! interrupt sweeps. Facts are a *licence*, never a
//! proof — the oracle has the last word.

use std::collections::HashMap;
use std::sync::Arc;

use urk_syntax::Symbol;

use crate::code::{CArm, COp, Code, CodeBuf, CodeId, MAX_REGION_OPS};

/// A per-global analysis fact in `Code`-indexable form: entry `i`
/// describes global `i` of the image being optimised (the same program
/// order [`crate::compile_program`] assigns). Produced by
/// `urk-analysis`'s `binding_facts` export and converted by the session
/// layer, so `urk-machine` stays independent of the analysis crate.
#[derive(Clone, Debug, Default)]
pub struct GlobalFact {
    /// Forcing this global to WHNF cannot raise or diverge (the
    /// analysis's `Effect::whnf_safe`). Required for constant
    /// substitution: replacing a name by its value erases a force.
    pub whnf_safe: bool,
    /// The global's proven WHNF value, when it is a literal the analysis
    /// could determine (arity-0 bindings only).
    pub value: Option<FactVal>,
    /// Must-demand per parameter: `demands[i]` proves that an exceptional
    /// `i`-th argument makes a saturated call's result exceptional, which
    /// per §4 licenses evaluating that argument eagerly (the denoted
    /// exception set is unchanged — only *which* member surfaces moves,
    /// and that is exactly the imprecision the semantics grants). Length
    /// equals the binding's manifest arity; empty licenses nothing.
    pub demands: Vec<bool>,
}

/// A literal value an analysis fact can prove (the `Send + Sync` subset
/// of the analysis lattice's value component).
#[derive(Clone, Debug, PartialEq)]
pub enum FactVal {
    Int(i64),
    Char(char),
    Str(String),
}

/// The complete licence for one program: facts indexed by global number.
/// Missing entries (or [`Tier2Facts::empty`]) simply license nothing —
/// the pass still fuses regions and installs inline caches, which need
/// no analysis facts.
#[derive(Clone, Debug, Default)]
pub struct Tier2Facts {
    /// One fact per global, in global-index order. May be shorter than
    /// the global table; absent entries license nothing.
    pub globals: Vec<GlobalFact>,
}

impl Tier2Facts {
    /// A licence that licenses nothing (fusion and inline caches still
    /// apply — they are always sound).
    pub fn empty() -> Tier2Facts {
        Tier2Facts::default()
    }
}

/// What licensed one emitted transform, recorded by the optimiser for the
/// translation validator. One entry per site, keyed by the *pair* of the
/// source-arena op and the emitted destination-arena op it maps to — the
/// validator walks both arenas in lockstep and refuses any structural
/// divergence it cannot find a discharged certificate for.
#[derive(Clone, Debug, PartialEq)]
pub enum CertKind {
    /// `dst` is `COp::Fused` wrapping a verbatim copy of the call-free
    /// prim region rooted at `src` (demanded position: a raise inside
    /// raises anyway).
    Fused,
    /// `dst` is `COp::Spec` wrapping a lazy *value form* (lambda or
    /// constructor) — building it early is draw-free and cannot raise.
    SpecValue,
    /// `dst` is `COp::Spec` wrapping a call-free prim region evaluated at
    /// allocation time; a raise is stored as §3.3 poison.
    SpecRegion,
    /// `dst` is `COp::Spec` wrapping the callee's body with the argument
    /// beta-substituted for its parameter — licensed by the strictness
    /// fact `demands == [true]` on `callee`: the call's result is
    /// exceptional whenever the argument is, so evaluating eagerly keeps
    /// the denoted set.
    SpecCall {
        /// Global index of the inlined callee.
        callee: u32,
    },
    /// `dst` is a literal op substituted for `COp::Global(global)` under
    /// the constant-substitution licence (WHNF-safe fact with a proven
    /// literal value matching the source body's own literal kind).
    ConstSubst {
        /// Global index whose fact supplied the literal.
        global: u32,
    },
    /// The `COp::Case` at `src` was folded to the right-hand side of arm
    /// `arm` (first match on a static scrutinee, no binders).
    CaseFold {
        /// Index of the selected arm within the case's arm block.
        arm: u32,
    },
    /// `dst` is `COp::AppG` replacing a `COp::App` whose callee is
    /// `COp::Global(callee)`, with inline-cache slot `ic`.
    AppG {
        /// Global index of the cached callee.
        callee: u32,
        /// The monomorphic inline-cache slot patched into the site.
        ic: u32,
    },
}

/// One certificate entry: source op, destination op, and the claimed
/// licence connecting them.
#[derive(Clone, Debug, PartialEq)]
pub struct CertEntry {
    /// Op index in the tier-1 (source) arena.
    pub src: u32,
    /// Op index in the tier-2 (destination) arena.
    pub dst: u32,
    /// The transform kind and the facts it claims.
    pub kind: CertKind,
}

/// The full certificate for one tier-2 compilation: every transform the
/// pass performed, in emission order. [`crate::validate::validate_tier2`]
/// independently re-derives and discharges each entry.
#[derive(Clone, Debug, Default)]
pub struct Tier2Cert {
    /// All recorded transform sites.
    pub entries: Vec<CertEntry>,
}

/// The evaluation context a source op is being copied under, which
/// decides what the pass may wrap around it.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Ctx {
    /// The op's value is demanded now: a prim region may be wrapped in
    /// [`COp::Fused`] (a raise here raises anyway, so atomic evaluation
    /// surfaces a member of the same denoted set).
    Strict,
    /// The op is being suspended: value forms and prim regions may be
    /// wrapped in [`COp::Spec`] (a raise must be *stored*, not raised).
    Lazy,
    /// Already inside a fused region: copy verbatim (no nested wrappers;
    /// constant substitution still applies).
    Region,
}

/// A statically known scrutinee value for case folding.
enum StaticVal {
    Int(i64),
    Char(char),
    Str(Arc<str>),
    Con0(Symbol),
}

/// Optimises a tier-1 [`Code`] image into a tier-2 one. Pure function of
/// the image and the facts: the output is a fresh arena with the same
/// global table (names and order), marked [`Code::is_tier2`], carrying
/// the number of inline-cache slots its `AppG` sites use.
pub fn tier2_optimize(base: &Code, facts: &Tier2Facts) -> Code {
    tier2_optimize_certified(base, facts).0
}

/// [`tier2_optimize`], but also returning the certificate recording which
/// fact licensed each transform — the input to the translation validator.
pub fn tier2_optimize_certified(base: &Code, facts: &Tier2Facts) -> (Code, Tier2Cert) {
    let t0 = std::time::Instant::now();
    let mut rw = Rewriter {
        src: base,
        facts,
        out: CodeBuf::default(),
        ic_slots: 0,
        cert: Tier2Cert::default(),
    };
    let mut globals = Vec::with_capacity(base.globals.len());
    for (name, entry) in &base.globals {
        // A global's right-hand side is forced on demand — demand is
        // strict from the thunk's point of view.
        globals.push((*name, rw.go(*entry, Ctx::Strict)));
    }
    let ic_slots = rw.ic_slots;
    let cert = rw.cert;
    let out = rw.out;
    let compile_ops = out.ops.len() as u64;
    let global_index: HashMap<Symbol, u32> = base.global_index.clone();
    let code = Code {
        buf: out,
        globals,
        global_index,
        compile_ops,
        compile_micros: base.compile_micros() + t0.elapsed().as_micros() as u64,
        tier2: true,
        ic_slots,
        regions: std::sync::OnceLock::new(),
        verdict: std::sync::OnceLock::new(),
    };
    (code, cert)
}

struct Rewriter<'a> {
    src: &'a Code,
    facts: &'a Tier2Facts,
    out: CodeBuf,
    ic_slots: u32,
    cert: Tier2Cert,
}

impl Rewriter<'_> {
    fn src_op(&self, id: CodeId) -> COp {
        self.src.buf.ops[id.0 as usize]
    }

    fn src_kid(&self, i: u32) -> CodeId {
        self.src.buf.kids[i as usize]
    }

    fn src_arm(&self, i: u32) -> CArm {
        self.src.buf.arms[i as usize]
    }

    fn src_str(&self, i: u32) -> &Arc<str> {
        &self.src.buf.strs[i as usize]
    }

    fn emit(&mut self, op: COp) -> CodeId {
        self.out.ops.push(op);
        CodeId(self.out.ops.len() as u32 - 1)
    }

    /// Records one certificate entry for the transform that mapped the
    /// source op `src` to the emitted op `dst`.
    fn certify(&mut self, src: CodeId, dst: CodeId, kind: CertKind) {
        self.cert.entries.push(CertEntry {
            src: src.0,
            dst: dst.0,
            kind,
        });
    }

    /// Interns a string in the output table (linear scan — the table is
    /// per-program and small, same trade-off as the compiler's).
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(i) = self.out.strs.iter().position(|t| &**t == s) {
            return i as u32;
        }
        self.out.strs.push(Arc::from(s));
        self.out.strs.len() as u32 - 1
    }

    /// The constant-substitution licence check: global `g` may be
    /// replaced by a literal iff its fact proves a WHNF-safe literal
    /// value **and** the source body is already a literal op of the
    /// matching kind. The second condition keeps a Seeded machine in
    /// lockstep with tier 1: folding a *computed* constant (say
    /// `k = 2 + 3`) would erase the §3.5 draw tier 1 performs when `k` is
    /// first forced. The emitted literal comes from
    /// the fact, so a corrupted licence is observable.
    fn const_literal(&mut self, g: u32) -> Option<COp> {
        let fact = self.facts.globals.get(g as usize)?;
        if !fact.whnf_safe {
            return None;
        }
        let value = fact.value.as_ref()?;
        let (_, entry) = self.src.globals[g as usize];
        match (self.src_op(entry), value) {
            (COp::Int(_), FactVal::Int(n)) => Some(COp::Int(*n)),
            (COp::Char(_), FactVal::Char(c)) => Some(COp::Char(*c)),
            (COp::Str(_), FactVal::Str(s)) => {
                let s = s.clone();
                let i = self.intern(&s);
                Some(COp::Str(i))
            }
            _ => None,
        }
    }

    /// Scans whether the subtree at `id` is a legal fused region, and
    /// how big: `Some((ops, prims))` if every op is region-legal and the
    /// total stays within [`MAX_REGION_OPS`].
    fn region_scan(&self, id: CodeId) -> Option<(usize, usize)> {
        let (size, prims) = match self.src_op(id) {
            COp::Local(_) | COp::Global(_) | COp::Int(_) | COp::Char(_) | COp::Str(_) => (1, 0),
            COp::Con { n: 0, .. } => (1, 0),
            COp::Prim1 { a, .. } => {
                let (s, p) = self.region_scan(a)?;
                (s + 1, p + 1)
            }
            COp::Prim2 { a, b, .. } | COp::Seq { a, b } => {
                let (sa, pa) = self.region_scan(a)?;
                let (sb, pb) = self.region_scan(b)?;
                (sa + sb + 1, pa + pb + 1)
            }
            _ => return None,
        };
        (size <= MAX_REGION_OPS).then_some((size, prims))
    }

    /// True if the subtree is worth wrapping as a region: at least one
    /// primitive (a bare leaf gains nothing) within the size cap.
    fn regionable(&self, id: CodeId) -> bool {
        matches!(self.region_scan(id), Some((size, prims)) if size >= 2 && prims >= 1)
    }

    /// Copies the subtree at `id` into the output arena under `ctx`,
    /// wrapping what the context licenses. Children are always emitted
    /// before parents (the verifier's acyclicity invariant).
    fn go(&mut self, id: CodeId, ctx: Ctx) -> CodeId {
        if let COp::Global(g) = self.src_op(id) {
            if let Some(lit) = self.const_literal(g) {
                let dst = self.emit(lit);
                self.certify(id, dst, CertKind::ConstSubst { global: g });
                return dst;
            }
        }
        if let COp::Case { .. } = self.src_op(id) {
            if let Some((arm, rhs)) = self.try_fold_case(id) {
                // The folded arm has no binders, so its rhs was compiled
                // at the same depth as the case — substitute in place,
                // in the same context.
                let dst = self.go(rhs, ctx);
                self.certify(id, dst, CertKind::CaseFold { arm });
                return dst;
            }
        }
        match ctx {
            Ctx::Region => self.copy_op(id, Ctx::Region),
            Ctx::Strict => {
                if self.regionable(id) {
                    let body = self.copy_op(id, Ctx::Region);
                    let dst = self.emit(COp::Fused { body });
                    self.certify(id, dst, CertKind::Fused);
                    dst
                } else {
                    self.copy_op(id, Ctx::Strict)
                }
            }
            Ctx::Lazy => match self.src_op(id) {
                // Value forms build eagerly at the allocation site —
                // draw-free, so sound under every order policy.
                COp::Lam { .. } => {
                    let body = self.copy_op(id, Ctx::Lazy);
                    let dst = self.emit(COp::Spec { body });
                    self.certify(id, dst, CertKind::SpecValue);
                    dst
                }
                COp::Con { n, .. } if n >= 1 => {
                    let body = self.copy_op(id, Ctx::Lazy);
                    let dst = self.emit(COp::Spec { body });
                    self.certify(id, dst, CertKind::SpecValue);
                    dst
                }
                _ if self.regionable(id) => {
                    let body = self.copy_op(id, Ctx::Region);
                    let dst = self.emit(COp::Spec { body });
                    self.certify(id, dst, CertKind::SpecRegion);
                    dst
                }
                COp::App { .. } => match self.try_spec_call(id) {
                    Some(dst) => dst,
                    None => self.copy_op(id, Ctx::Lazy),
                },
                _ => self.copy_op(id, Ctx::Lazy),
            },
        }
    }

    /// The strictness-licensed call speculation: a lazily-bound saturated
    /// call `g a` to a known unary global whose fact proves its parameter
    /// *demanded* may be beta-inlined into one prim region and evaluated
    /// at allocation time (`Spec`). The demand fact is what makes this
    /// sound where the WHNF-only rule rejects it: if `a` raises, the call
    /// would have raised too, so storing the raise as §3.3 poison denotes
    /// the same set.
    ///
    /// Structural side-conditions (all validator-re-proved):
    /// * the callee body and the argument are both region-legal (so the
    ///   inlined result is one call-free prim region);
    /// * every `Local` in the callee body is `Local(0)` (the parameter);
    /// * if the parameter occurs **more than once**, the argument must be
    ///   a single draw-free leaf — duplicating a prim subtree would fork
    ///   the §3.5 Seeded draw stream;
    /// * the substituted region keeps ≥ 1 prim and fits `MAX_REGION_OPS`.
    fn try_spec_call(&mut self, id: CodeId) -> Option<CodeId> {
        let COp::App { f, a } = self.src_op(id) else {
            return None;
        };
        let COp::Global(g) = self.src_op(f) else {
            return None;
        };
        let fact = self.facts.globals.get(g as usize)?;
        if fact.demands.as_slice() != [true] {
            return None;
        }
        let (_, entry) = self.src.globals[g as usize];
        let COp::Lam { body } = self.src_op(entry) else {
            return None;
        };
        let (bsize, bprims) = self.region_scan(body)?;
        let (asize, aprims) = self.region_scan(a)?;
        let occ = self.count_param_leaves(body)?;
        if occ >= 2 && !self.is_draw_free_leaf(a) {
            return None;
        }
        let size = bsize - occ + occ * asize;
        let prims = bprims + occ * aprims;
        if size < 2 || prims < 1 || size > MAX_REGION_OPS {
            return None;
        }
        let region = self.inline_call_region(body, a);
        let dst = self.emit(COp::Spec { body: region });
        self.certify(id, dst, CertKind::SpecCall { callee: g });
        Some(dst)
    }

    /// Counts `Local(0)` leaves in a region-legal callee body; `None` if
    /// any other `Local` appears (the body would capture an environment
    /// the call site does not have).
    fn count_param_leaves(&self, id: CodeId) -> Option<usize> {
        match self.src_op(id) {
            COp::Local(0) => Some(1),
            COp::Local(_) => None,
            COp::Global(_) | COp::Int(_) | COp::Char(_) | COp::Str(_) | COp::Con { n: 0, .. } => {
                Some(0)
            }
            COp::Prim1 { a, .. } => self.count_param_leaves(a),
            COp::Prim2 { a, b, .. } | COp::Seq { a, b } => {
                Some(self.count_param_leaves(a)? + self.count_param_leaves(b)?)
            }
            _ => None,
        }
    }

    /// A draw-free leaf: safe to duplicate without touching the §3.5
    /// Seeded draw stream (no prim inside, so no draws ever).
    fn is_draw_free_leaf(&self, id: CodeId) -> bool {
        matches!(
            self.src_op(id),
            COp::Local(_)
                | COp::Global(_)
                | COp::Int(_)
                | COp::Char(_)
                | COp::Str(_)
                | COp::Con { n: 0, .. }
        )
    }

    /// Copies the callee body into the output arena with every `Local(0)`
    /// replaced by a fresh copy of the argument subtree. Both sides are
    /// region-legal, so plain structural recursion suffices; the argument
    /// keeps its own `Local` indices (it executes in the allocation-site
    /// environment, which is exactly the suspended thunk's).
    fn inline_call_region(&mut self, body: CodeId, arg: CodeId) -> CodeId {
        match self.src_op(body) {
            COp::Local(0) => self.go(arg, Ctx::Region),
            COp::Prim1 { op, a } => {
                let a2 = self.inline_call_region(a, arg);
                self.emit(COp::Prim1 { op, a: a2 })
            }
            COp::Prim2 { op, a, b } => {
                let a2 = self.inline_call_region(a, arg);
                let b2 = self.inline_call_region(b, arg);
                self.emit(COp::Prim2 { op, a: a2, b: b2 })
            }
            COp::Seq { a, b } => {
                let a2 = self.inline_call_region(a, arg);
                let b2 = self.inline_call_region(b, arg);
                self.emit(COp::Seq { a: a2, b: b2 })
            }
            _ => self.go(body, Ctx::Region),
        }
    }

    /// The statically known value of a scrutinee op, if any.
    fn static_value(&self, id: CodeId) -> Option<StaticVal> {
        match self.src_op(id) {
            COp::Int(n) => Some(StaticVal::Int(n)),
            COp::Char(c) => Some(StaticVal::Char(c)),
            COp::Str(s) => Some(StaticVal::Str(self.src_str(s).clone())),
            COp::Con { tag, n: 0, .. } => Some(StaticVal::Con0(tag)),
            COp::Global(g) => {
                let fact = self.facts.globals.get(g as usize)?;
                if !fact.whnf_safe {
                    return None;
                }
                // Same licence shape as `const_literal`: the source body
                // must already be the literal the fact claims.
                let (_, entry) = self.src.globals[g as usize];
                match (self.src_op(entry), fact.value.as_ref()?) {
                    (COp::Int(_), FactVal::Int(n)) => Some(StaticVal::Int(*n)),
                    (COp::Char(_), FactVal::Char(c)) => Some(StaticVal::Char(*c)),
                    (COp::Str(_), FactVal::Str(s)) => Some(StaticVal::Str(Arc::from(&**s))),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Case-of-known-constructor: if the scrutinee's value is static and
    /// the first matching arm binds nothing, the whole case reduces to
    /// that arm's right-hand side at compile time. Discarding the
    /// scrutinee is licensed because static values cannot raise (and a
    /// constant global is WHNF-safe by its fact). A non-matching sweep
    /// stays dynamic so the runtime `PatternMatchFail` survives.
    fn try_fold_case(&self, id: CodeId) -> Option<(u32, CodeId)> {
        let COp::Case { scrut, arms_at, n } = self.src_op(id) else {
            return None;
        };
        let v = self.static_value(scrut)?;
        for i in 0..u32::from(n) {
            let arm = self.src_arm(arms_at + i);
            let matched = match (arm.pat, &v) {
                (crate::code::CPat::Default, _) => true,
                (crate::code::CPat::Int(a), StaticVal::Int(b)) => a == *b,
                (crate::code::CPat::Char(a), StaticVal::Char(b)) => a == *b,
                (crate::code::CPat::Str(si), StaticVal::Str(s)) => **self.src_str(si) == **s,
                (crate::code::CPat::Con(c), StaticVal::Con0(d)) => c == *d,
                _ => false,
            };
            if matched {
                // An arm that binds (scrutinee fields or the scrutinee
                // itself) would change the rhs's environment depth —
                // keep the dispatch dynamic.
                return (arm.binders == 0 && !arm.bind_scrut).then_some((i, arm.rhs));
            }
        }
        None
    }

    /// Copies one op, recursing into children with the contexts their
    /// positions dictate. `ctx` only matters as `Region` (inside a fused
    /// region, children stay region elements and nothing wraps).
    fn copy_op(&mut self, id: CodeId, ctx: Ctx) -> CodeId {
        let in_region = ctx == Ctx::Region;
        match self.src_op(id) {
            COp::Local(back) => self.emit(COp::Local(back)),
            COp::Global(g) => self.emit(COp::Global(g)),
            COp::Int(n) => self.emit(COp::Int(n)),
            COp::Char(c) => self.emit(COp::Char(c)),
            COp::Str(s) => {
                let s = self.src_str(s).clone();
                let i = self.intern(&s);
                self.emit(COp::Str(i))
            }
            COp::Con { tag, args, n } => {
                let fields: Vec<CodeId> = (0..u32::from(n))
                    .map(|i| self.go(self.src_kid(args + i), Ctx::Lazy))
                    .collect();
                let args2 = self.out.kids.len() as u32;
                self.out.kids.extend(fields);
                self.emit(COp::Con {
                    tag,
                    args: args2,
                    n,
                })
            }
            COp::App { f, a } => {
                // A known-global callee (that is not being constant-
                // substituted) gets a monomorphic inline-cache slot.
                let ic_callee = match self.src_op(f) {
                    COp::Global(g) if !in_region => (self.const_literal(g).is_none()).then_some(g),
                    _ => None,
                };
                if let Some(g) = ic_callee {
                    let f2 = self.emit(COp::Global(g));
                    let a2 = self.go(a, Ctx::Lazy);
                    let ic = self.ic_slots;
                    self.ic_slots += 1;
                    let dst = self.emit(COp::AppG { f: f2, ic, a: a2 });
                    self.certify(id, dst, CertKind::AppG { callee: g, ic });
                    dst
                } else {
                    let f2 = self.go(f, Ctx::Strict);
                    let a2 = self.go(a, Ctx::Lazy);
                    self.emit(COp::App { f: f2, a: a2 })
                }
            }
            COp::Lam { body } => {
                let body2 = self.go(body, Ctx::Strict);
                self.emit(COp::Lam { body: body2 })
            }
            COp::Let { rhs, body } => {
                let rhs2 = self.go(rhs, Ctx::Lazy);
                let body2 = self.go(body, Ctx::Strict);
                self.emit(COp::Let {
                    rhs: rhs2,
                    body: body2,
                })
            }
            COp::LetRec { rhss, n, body } => {
                // Recursive right-hand sides are copied under Strict —
                // a Fused wrapper under the group's thunk forces
                // atomically with the same §3.3 poisoning — but never
                // Spec: speculating a self-referential binding at
                // allocation time would read its own unfinished knot.
                let rhss2: Vec<CodeId> = (0..u32::from(n))
                    .map(|i| self.go(self.src_kid(rhss + i), Ctx::Strict))
                    .collect();
                let body2 = self.go(body, Ctx::Strict);
                let rhss_at = self.out.kids.len() as u32;
                self.out.kids.extend(rhss2);
                self.emit(COp::LetRec {
                    rhss: rhss_at,
                    n,
                    body: body2,
                })
            }
            COp::Case { scrut, arms_at, n } => {
                let scrut2 = self.go(scrut, Ctx::Strict);
                let arms2: Vec<CArm> = (0..u32::from(n))
                    .map(|i| {
                        let arm = self.src_arm(arms_at + i);
                        let pat = match arm.pat {
                            crate::code::CPat::Str(si) => {
                                let s = self.src_str(si).clone();
                                crate::code::CPat::Str(self.intern(&s))
                            }
                            other => other,
                        };
                        CArm {
                            pat,
                            rhs: self.go(arm.rhs, Ctx::Strict),
                            binders: arm.binders,
                            bind_scrut: arm.bind_scrut,
                        }
                    })
                    .collect();
                let arms_at2 = self.out.arms.len() as u32;
                self.out.arms.extend(arms2);
                self.emit(COp::Case {
                    scrut: scrut2,
                    arms_at: arms_at2,
                    n,
                })
            }
            COp::Prim1 { op, a } => {
                let a2 = self.go(a, if in_region { Ctx::Region } else { Ctx::Strict });
                self.emit(COp::Prim1 { op, a: a2 })
            }
            COp::Prim2 { op, a, b } => {
                let c = if in_region { Ctx::Region } else { Ctx::Strict };
                let a2 = self.go(a, c);
                let b2 = self.go(b, c);
                self.emit(COp::Prim2 { op, a: a2, b: b2 })
            }
            COp::Seq { a, b } => {
                let c = if in_region { Ctx::Region } else { Ctx::Strict };
                let a2 = self.go(a, c);
                let b2 = self.go(b, c);
                self.emit(COp::Seq { a: a2, b: b2 })
            }
            COp::MapExn { f, a } => {
                let f2 = self.go(f, Ctx::Strict);
                let a2 = self.go(a, Ctx::Strict);
                self.emit(COp::MapExn { f: f2, a: a2 })
            }
            COp::IsExn { a } => {
                let a2 = self.go(a, Ctx::Strict);
                self.emit(COp::IsExn { a: a2 })
            }
            COp::GetExn { a } => {
                let a2 = self.go(a, Ctx::Strict);
                self.emit(COp::GetExn { a: a2 })
            }
            COp::Raise { a } => {
                let a2 = self.go(a, Ctx::Strict);
                self.emit(COp::Raise { a: a2 })
            }
            COp::Fused { .. } | COp::Spec { .. } | COp::AppG { .. } => {
                unreachable!("tier-2 ops in a tier-1 source image")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile_program;
    use crate::machine::{Machine, MachineConfig};
    use crate::OrderPolicy;
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    fn compile_src(src: &str) -> (DataEnv, Code) {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        let code = compile_program(&prog.binds);
        (data, code)
    }

    fn count_kinds(code: &Code) -> [usize; crate::coverage::OP_KINDS] {
        let mut counts = [0usize; crate::coverage::OP_KINDS];
        for op in &code.buf.ops {
            counts[op.kind_index() as usize] += 1;
        }
        counts
    }

    fn render_with(code: Arc<Code>, data: &DataEnv, query: &str, config: MachineConfig) -> String {
        let mut m = Machine::new(config);
        m.link_code(code);
        let e = desugar_expr(&parse_expr_src(query).expect("parses"), data).expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        m.render_outcome(&out, 32)
    }

    fn tier1_render(src: &str, query: &str, config: MachineConfig) -> String {
        let (data, code) = compile_src(src);
        render_with(Arc::new(code), &data, query, config)
    }

    #[test]
    fn optimized_images_verify_and_are_tagged() {
        let (_, code) = compile_src(
            "f x = x * x + 1\n\
             g n = if n == 0 then 0 else g (n - 1) + f n\n\
             main = g 5",
        );
        let t2 = tier2_optimize(&code, &Tier2Facts::empty());
        assert!(t2.is_tier2());
        t2.verify().expect("tier-2 image verifies");
        let counts = count_kinds(&t2);
        assert!(counts[18] > 0, "expected fused regions: {counts:?}");
        assert!(counts[20] > 0, "expected inline-cached calls: {counts:?}");
        assert_eq!(t2.ic_slot_count() as usize, counts[20]);
    }

    #[test]
    fn speculation_sites_cover_lazy_value_forms_and_prim_regions() {
        let (_, code) = compile_src(
            "pair a b = Pair a b\n\
             main = let k = \\y -> y + 1 in let s = 2 * 3 + 1 in pair (k 1) s",
        );
        let t2 = tier2_optimize(&code, &Tier2Facts::empty());
        t2.verify().expect("verifies");
        let counts = count_kinds(&t2);
        assert!(counts[19] > 0, "expected speculation sites: {counts:?}");
    }

    #[test]
    fn constant_substitution_requires_the_full_licence() {
        let (_, code) = compile_src("k = 42\nmain = k + 1");
        // No facts: the global load survives.
        let t2 = tier2_optimize(&code, &Tier2Facts::empty());
        assert!(count_kinds(&t2)[1] > 0, "global load should survive");
        // A licensed literal fact substitutes the fact's value.
        let facts = Tier2Facts {
            globals: vec![
                GlobalFact {
                    whnf_safe: true,
                    value: Some(FactVal::Int(42)),
                    demands: Vec::new(),
                },
                GlobalFact::default(),
            ],
        };
        let t2 = tier2_optimize(&code, &facts);
        t2.verify().expect("verifies");
        let main_entry = t2.globals[1].1;
        // main's body became Fused{42 + 1} — no Global op anywhere in it.
        assert!(
            !t2.buf.ops[..=main_entry.0 as usize]
                .iter()
                .any(|op| matches!(op, COp::Global(0))),
            "constant global should be substituted"
        );
        // Without whnf_safe the value is not licensed.
        let unsafe_facts = Tier2Facts {
            globals: vec![GlobalFact {
                whnf_safe: false,
                value: Some(FactVal::Int(42)),
                demands: Vec::new(),
            }],
        };
        let t2 = tier2_optimize(&code, &unsafe_facts);
        assert!(count_kinds(&t2)[1] > 0, "unlicensed const must not fold");
    }

    #[test]
    fn case_of_known_constructor_folds_and_dynamic_cases_survive() {
        let (_, code) = compile_src(
            "main = case True of { True -> 1; False -> 2 }\n\
             dyn x = case x of { True -> 1; False -> 2 }",
        );
        let t2 = tier2_optimize(&code, &Tier2Facts::empty());
        t2.verify().expect("verifies");
        let counts = count_kinds(&t2);
        // main's case folded away; dyn's stayed.
        assert_eq!(counts[10], 1, "one dynamic case should remain: {counts:?}");
    }

    #[test]
    fn binding_arms_are_never_folded() {
        let (data, code) = compile_src("main = case Just 3 of { Just v -> v; Nothing -> 0 }");
        let t2 = tier2_optimize(&code, &Tier2Facts::empty());
        t2.verify().expect("verifies");
        // Just 3 is not a nullary constructor — no static value, no fold.
        assert_eq!(count_kinds(&t2)[10], 1);
        assert_eq!(
            render_with(Arc::new(t2), &data, "main", MachineConfig::default()),
            "3"
        );
    }

    #[test]
    fn tier2_agrees_with_tier1_on_a_smoke_corpus() {
        let progs: &[(&str, &str)] = &[
            (
                "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)",
                "fib 12",
            ),
            (
                "sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)",
                "sumTo 500 0",
            ),
            ("main = let x = 1/0 in 42", "main"),
            ("main = (1/0) + 2", "main"),
            (
                "k = 42\nmain = case k of { 42 -> \"yes\"; n -> \"no\" }",
                "main",
            ),
            (
                "len xs = case xs of { [] -> 0; y:ys -> 1 + len ys }\n\
                 mk n = if n == 0 then [] else n : mk (n - 1)",
                "len (mk 40)",
            ),
            ("main = seq (unsafeIsException (1/0)) (2 * 3 + 4)", "main"),
        ];
        for (prog, query) in progs {
            let (data, code) = compile_src(prog);
            let t2 = Arc::new(tier2_optimize(&code, &Tier2Facts::empty()));
            t2.verify().expect("verifies");
            assert_eq!(
                tier1_render(prog, query, MachineConfig::default()),
                render_with(t2.clone(), &data, query, MachineConfig::default()),
                "{query}"
            );
        }
    }

    #[test]
    fn seeded_runs_stay_in_lockstep_with_tier1() {
        let prog = "both a b = a + b\nmain = both ((1/0) + raise (UserError \"a\")) (2 - raise (UserError \"b\"))";
        let (data, code) = compile_src(prog);
        let t2 = Arc::new(tier2_optimize(&code, &Tier2Facts::empty()));
        for seed in 0..16u64 {
            let config = MachineConfig {
                order: OrderPolicy::Seeded(seed),
                ..MachineConfig::default()
            };
            assert_eq!(
                tier1_render(prog, "main", config.clone()),
                render_with(t2.clone(), &data, "main", config),
                "seed {seed}"
            );
        }
    }
}
