//! Core lowered to a flat, arena-indexed code format.
//!
//! Interpreting `Rc<Expr>` nodes directly would clone refcounted
//! children every step and resolve every variable by scanning `Symbol`
//! entries. This module compiles a desugared program once into a single
//! flat [`Code`] arena, the only code the machine runs:
//!
//! * every expression node becomes one `u32`-indexed [`COp`] in a
//!   contiguous `Vec` — the executor copies a small `Copy` op instead of
//!   touching refcounts;
//! * variables are resolved **at compile time** to lexical back-indices
//!   ("slot `k` from the top of the runtime environment"), so lookup is
//!   indexed loads through the chunk chain instead of a `Symbol` scan —
//!   and top-level names become direct indices into a per-machine global
//!   table;
//! * case alternatives are pre-lowered into dispatch arms keyed by
//!   constructor tag (a `Symbol` is a globally interned `u32`, so the
//!   runtime match is an integer compare);
//! * string literals are interned once per program in an `Arc<str>`
//!   table.
//!
//! `Code` holds no `Rc` and no thread-local state, so it is `Send + Sync`:
//! the evaluation pool compiles the program once and shares one
//! `Arc<Code>` across all worker machines. Per-query expressions compile
//! into a machine-local *extension* buffer ([`LinkedCode`]); `CodeId`s
//! below the base length address the shared program, the rest address the
//! extension.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use urk_syntax::core::{Alt, AltCon, Expr, PrimOp};
use urk_syntax::Symbol;

use crate::region::{RegionProgram, RegionPrograms};

/// An index into a [`Code`] arena (base program or machine extension).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CodeId(pub(crate) u32);

/// One flat code op. `Copy`, so the executor never clones refcounts on
/// the hot path; children are referenced by [`CodeId`] or by ranges into
/// the side tables ([`CodeBuf::kids`], [`CodeBuf::arms`],
/// [`CodeBuf::strs`]).
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) enum COp {
    /// A local variable, resolved to "slot `k` back from the top" of the
    /// runtime environment.
    Local(u32),
    /// A top-level binding, resolved to its index `g` in the image: the
    /// linked machine's tenured cell `g`.
    Global(u32),
    Int(i64),
    Char(char),
    /// A string literal (index into the interned string table).
    Str(u32),
    /// A saturated constructor; `n` argument ops at `kids[args..]`.
    Con {
        tag: Symbol,
        args: u32,
        n: u16,
    },
    App {
        f: CodeId,
        a: CodeId,
    },
    Lam {
        body: CodeId,
    },
    Let {
        rhs: CodeId,
        body: CodeId,
    },
    /// A recursive group; `n` right-hand sides at `kids[rhss..]`.
    LetRec {
        rhss: u32,
        n: u16,
        body: CodeId,
    },
    /// A case dispatch; `n` pre-lowered arms at `arms[arms_at..]`.
    Case {
        scrut: CodeId,
        arms_at: u32,
        n: u16,
    },
    /// A strict unary primitive.
    Prim1 {
        op: PrimOp,
        a: CodeId,
    },
    /// A strict binary primitive (operand order stays a machine policy).
    Prim2 {
        op: PrimOp,
        a: CodeId,
        b: CodeId,
    },
    Seq {
        a: CodeId,
        b: CodeId,
    },
    MapExn {
        f: CodeId,
        a: CodeId,
    },
    IsExn {
        a: CodeId,
    },
    GetExn {
        a: CodeId,
    },
    Raise {
        a: CodeId,
    },
    /// Tier-2: a call-free straight-line region (primitives over
    /// locals/globals/literals) executed atomically in one step when every
    /// variable leaf is already forced; otherwise evaluation bails out to
    /// the stepped path through `body`. Emitted only by
    /// [`crate::tier2_optimize`], in strict positions.
    Fused {
        body: CodeId,
    },
    /// Tier-2: a lazy-position right-hand side licensed for speculative
    /// evaluation. Allocation evaluates `body` eagerly when it is a ready
    /// region (or a constructor/lambda to build), storing a synchronous
    /// raise as a *poisoned* node — §3.3's `raise ex` overwrite, which is
    /// observationally identical to the thunk it replaces.
    Spec {
        body: CodeId,
    },
    /// Tier-2: an application whose callee op (`f`) is a `Global`, with a
    /// monomorphic inline-cache slot caching the resolved callee value
    /// per machine.
    AppG {
        f: CodeId,
        ic: u32,
        a: CodeId,
    },
}

impl COp {
    /// A dense discriminant for the coverage map's op-pair matrix
    /// (`0..`[`crate::coverage::OP_KINDS`]). Exhaustive so a new variant
    /// fails to compile until the coverage dimension is reconsidered.
    pub(crate) fn kind_index(&self) -> u8 {
        match self {
            COp::Local(_) => 0,
            COp::Global(_) => 1,
            COp::Int(_) => 2,
            COp::Char(_) => 3,
            COp::Str(_) => 4,
            COp::Con { .. } => 5,
            COp::App { .. } => 6,
            COp::Lam { .. } => 7,
            COp::Let { .. } => 8,
            COp::LetRec { .. } => 9,
            COp::Case { .. } => 10,
            COp::Prim1 { .. } => 11,
            COp::Prim2 { .. } => 12,
            COp::Seq { .. } => 13,
            COp::MapExn { .. } => 14,
            COp::IsExn { .. } => 15,
            COp::GetExn { .. } => 16,
            COp::Raise { .. } => 17,
            COp::Fused { .. } => 18,
            COp::Spec { .. } => 19,
            COp::AppG { .. } => 20,
        }
    }
}

/// What one pre-lowered case arm matches. Constructor dispatch is a
/// `Symbol` compare — an interned `u32` equality, no name scan.
#[derive(Copy, Clone, Debug)]
pub(crate) enum CPat {
    Con(Symbol),
    Int(i64),
    Char(char),
    Str(u32),
    Default,
}

/// One pre-lowered case arm. `binders` is how many scrutinee fields the
/// arm pushes (for `Default`, `bind_scrut` pushes the scrutinee itself);
/// the rhs was compiled under exactly that many extra slots.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CArm {
    pub(crate) pat: CPat,
    pub(crate) rhs: CodeId,
    pub(crate) binders: u16,
    pub(crate) bind_scrut: bool,
}

/// The contiguous storage one compilation unit emits into.
#[derive(Debug, Default)]
pub struct CodeBuf {
    pub(crate) ops: Vec<COp>,
    pub(crate) kids: Vec<CodeId>,
    pub(crate) arms: Vec<CArm>,
    pub(crate) strs: Vec<Arc<str>>,
}

impl CodeBuf {
    /// This buffer emptied, keeping at most `keep` entries of capacity
    /// per table.
    pub(crate) fn emptied(self, keep: usize) -> CodeBuf {
        use crate::machine::emptied;
        CodeBuf {
            ops: emptied(self.ops, keep),
            kids: emptied(self.kids, keep),
            arms: emptied(self.arms, keep),
            strs: emptied(self.strs, keep),
        }
    }

    fn len_of(&self) -> Bases {
        Bases {
            ops: self.ops.len() as u32,
            kids: self.kids.len() as u32,
            arms: self.arms.len() as u32,
            strs: self.strs.len() as u32,
        }
    }
}

/// Table offsets a compilation starts from, so extension code emits
/// absolute indices that address past the shared base tables.
#[derive(Copy, Clone, Debug, Default)]
struct Bases {
    ops: u32,
    kids: u32,
    arms: u32,
    strs: u32,
}

/// A whole compiled program: the flat op arena plus the top-level
/// binding table. Immutable and `Send + Sync` — one `Arc<Code>` serves
/// every worker in a pool.
#[derive(Debug)]
pub struct Code {
    pub(crate) buf: CodeBuf,
    /// Top-level bindings in program order: `(name, rhs entry point)`.
    pub(crate) globals: Vec<(Symbol, CodeId)>,
    /// Name → global-table index (later bindings shadow earlier ones,
    /// as in the denotational evaluator's environment).
    pub(crate) global_index: HashMap<Symbol, u32>,
    /// Ops emitted compiling the program (observability).
    pub(crate) compile_ops: u64,
    /// Wall-clock microseconds spent compiling the program.
    pub(crate) compile_micros: u64,
    /// True when [`crate::tier2_optimize`] produced this image (the
    /// machine tags its stats with [`crate::Tier::Two`] on link).
    pub(crate) tier2: bool,
    /// Number of `AppG` inline-cache slots the image allocates (the
    /// machine sizes its per-machine cache table from this on link).
    pub(crate) ic_slots: u32,
    /// The image's region programs, derived from `buf` on first use
    /// ([`Code::region_programs`]).
    pub(crate) regions: OnceLock<RegionPrograms>,
    /// The verdict of [`Code::verify`] and [`Code::check_region_programs`]
    /// on this image, reached at its first checked link
    /// ([`Code::verdict`]).
    pub(crate) verdict: OnceLock<Result<(), CodeVerifyError>>,
}

impl Code {
    /// Number of ops in the program arena.
    pub fn op_count(&self) -> usize {
        self.buf.ops.len()
    }

    /// True when this image was produced by the tier-2 pass.
    pub fn is_tier2(&self) -> bool {
        self.tier2
    }

    /// Number of inline-cache slots the image's `AppG` call sites use.
    pub fn ic_slot_count(&self) -> u32 {
        self.ic_slots
    }

    /// Ops emitted compiling the program (same as [`Code::op_count`],
    /// typed for stats accumulation).
    pub fn compile_ops(&self) -> u64 {
        self.compile_ops
    }

    /// Wall-clock microseconds spent compiling the program.
    pub fn compile_micros(&self) -> u64 {
        self.compile_micros
    }
}

// `Code` must stay shareable across pool workers; a compile error here
// means an `Rc` or thread-bound type leaked into the arena.
#[allow(dead_code)]
fn code_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Code>();
}

/// A structural defect found by [`Code::verify`]: the op index it was
/// found at and what is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeVerifyError {
    /// Absolute op index the defect was found at.
    pub at: u32,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for CodeVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt code arena at op {}: {}", self.at, self.message)
    }
}

impl std::error::Error for CodeVerifyError {}

/// A read-only view over a base arena plus an optional extension, for
/// verification (mirrors [`LinkedCode`]'s base-then-ext indexing).
struct VerifyView<'a> {
    base: &'a CodeBuf,
    ext: Option<&'a CodeBuf>,
    globals_len: usize,
    ic_slots: u32,
}

/// Upper bound on ops in one tier-2 fused region — keeps the atomic
/// in-step evaluation (a bounded recursive walk) small, so a region can
/// never turn one machine step into unbounded work. The tier-2 pass never
/// emits a larger region and [`Code::verify`] rejects one.
pub(crate) const MAX_REGION_OPS: usize = 64;

impl VerifyView<'_> {
    fn ops_total(&self) -> usize {
        self.base.ops.len() + self.ext.map_or(0, |e| e.ops.len())
    }
    fn kids_total(&self) -> usize {
        self.base.kids.len() + self.ext.map_or(0, |e| e.kids.len())
    }
    fn arms_total(&self) -> usize {
        self.base.arms.len() + self.ext.map_or(0, |e| e.arms.len())
    }
    fn strs_total(&self) -> usize {
        self.base.strs.len() + self.ext.map_or(0, |e| e.strs.len())
    }
    fn op(&self, i: usize) -> Option<COp> {
        if i < self.base.ops.len() {
            Some(self.base.ops[i])
        } else {
            self.ext
                .and_then(|e| e.ops.get(i - self.base.ops.len()).copied())
        }
    }
    fn kid(&self, i: usize) -> CodeId {
        if i < self.base.kids.len() {
            self.base.kids[i]
        } else {
            self.ext.expect("in range").kids[i - self.base.kids.len()]
        }
    }
    fn arm(&self, i: usize) -> CArm {
        if i < self.base.arms.len() {
            self.base.arms[i]
        } else {
            self.ext.expect("in range").arms[i - self.base.arms.len()]
        }
    }
}

impl Code {
    /// Statically checks the arena's structural invariants, the ones the
    /// executor relies on without checking on the hot path:
    ///
    /// * every referenced op index is in bounds, and every child's
    ///   [`CodeId`] is strictly below its parent's (the compiler emits
    ///   children first, which also makes the arena acyclic);
    /// * `Local(back)` back-indices stay inside the lexical depth the op
    ///   is executed at (tracked exactly as the [`Compiler`] scope does:
    ///   lambda and let bodies one deeper, `letrec` groups `n` deeper,
    ///   case arms deeper by their binder count);
    /// * `Global`, string, kid-range, and arm-range indices address their
    ///   tables in bounds.
    ///
    /// Runs at an image's first link in debug builds, and in release
    /// under `--verify-code` (see `MachineConfig::verify_code`).
    pub fn verify(&self) -> Result<(), CodeVerifyError> {
        let view = VerifyView {
            base: &self.buf,
            ext: None,
            globals_len: self.globals.len(),
            ic_slots: self.ic_slots,
        };
        for (_, entry) in &self.globals {
            verify_entry(&view, *entry, 0)?;
        }
        Ok(())
    }

    /// [`Code::verify`] and then [`Code::check_region_programs`], run once
    /// per image: the image is immutable and shared, so every later link
    /// of it (a recycled machine relinks at each evaluation) reuses the
    /// first verdict.
    pub(crate) fn verdict(&self) -> &Result<(), CodeVerifyError> {
        self.verdict
            .get_or_init(|| self.verify().and_then(|()| self.check_region_programs()))
    }
}

/// Verifies one query entry point compiled into `ext` against `base`.
pub(crate) fn verify_query(
    base: &Code,
    ext: &CodeBuf,
    entry: CodeId,
) -> Result<(), CodeVerifyError> {
    let view = VerifyView {
        base: &base.buf,
        ext: Some(ext),
        globals_len: base.globals.len(),
        ic_slots: base.ic_slots,
    };
    verify_entry(&view, entry, 0)
}

/// Walks the tree rooted at `entry`, tracking the lexical depth each op
/// executes at, and checks every structural invariant along the way.
fn verify_entry(view: &VerifyView<'_>, entry: CodeId, depth: u32) -> Result<(), CodeVerifyError> {
    let err = |at: CodeId, message: String| CodeVerifyError { at: at.0, message };
    let mut work: Vec<(CodeId, u32)> = vec![(entry, depth)];
    // The arena is tree-shaped (one parent per op), so the walk visits
    // each op at most once per entry; the budget is a defensive bound
    // against corrupted arenas re-sharing children.
    let mut budget = 4 * view.ops_total() as u64 + 16;
    while let Some((id, depth)) = work.pop() {
        budget = budget.checked_sub(1).ok_or_else(|| {
            err(
                id,
                "arena walk exceeded its budget (not tree-shaped)".into(),
            )
        })?;
        let Some(op) = view.op(id.0 as usize) else {
            return Err(err(
                id,
                format!("op index out of range ({})", view.ops_total()),
            ));
        };
        let kid = |child: CodeId, d: u32, work: &mut Vec<(CodeId, u32)>| {
            if child.0 >= id.0 {
                return Err(err(
                    id,
                    format!("child {} not strictly before its parent", child.0),
                ));
            }
            work.push((child, d));
            Ok(())
        };
        match op {
            COp::Local(back) => {
                if back >= depth {
                    return Err(err(
                        id,
                        format!("local back-index {back} escapes env depth {depth}"),
                    ));
                }
            }
            COp::Global(g) => {
                if g as usize >= view.globals_len {
                    return Err(err(
                        id,
                        format!("global index {g} out of range ({})", view.globals_len),
                    ));
                }
            }
            COp::Int(_) | COp::Char(_) => {}
            COp::Str(s) => {
                if s as usize >= view.strs_total() {
                    return Err(err(
                        id,
                        format!("string index {s} out of range ({})", view.strs_total()),
                    ));
                }
            }
            COp::Con { args, n, .. } => {
                let end = args as u64 + n as u64;
                if end > view.kids_total() as u64 {
                    return Err(err(
                        id,
                        format!(
                            "constructor kid range {args}..{end} out of range ({})",
                            view.kids_total()
                        ),
                    ));
                }
                for i in args..args + n as u32 {
                    kid(view.kid(i as usize), depth, &mut work)?;
                }
            }
            COp::App { f, a } => {
                kid(f, depth, &mut work)?;
                kid(a, depth, &mut work)?;
            }
            COp::Lam { body } => kid(body, depth + 1, &mut work)?,
            COp::Let { rhs, body } => {
                kid(rhs, depth, &mut work)?;
                kid(body, depth + 1, &mut work)?;
            }
            COp::LetRec { rhss, n, body } => {
                let end = rhss as u64 + n as u64;
                if end > view.kids_total() as u64 {
                    return Err(err(
                        id,
                        format!(
                            "letrec kid range {rhss}..{end} out of range ({})",
                            view.kids_total()
                        ),
                    ));
                }
                let inner = depth + n as u32;
                for i in rhss..rhss + n as u32 {
                    kid(view.kid(i as usize), inner, &mut work)?;
                }
                kid(body, inner, &mut work)?;
            }
            COp::Case { scrut, arms_at, n } => {
                kid(scrut, depth, &mut work)?;
                let end = arms_at as u64 + n as u64;
                if end > view.arms_total() as u64 {
                    return Err(err(
                        id,
                        format!(
                            "case arm range {arms_at}..{end} out of range ({})",
                            view.arms_total()
                        ),
                    ));
                }
                for i in arms_at..arms_at + n as u32 {
                    let arm = view.arm(i as usize);
                    if let CPat::Str(s) = arm.pat {
                        if s as usize >= view.strs_total() {
                            return Err(err(
                                id,
                                format!(
                                    "arm string index {s} out of range ({})",
                                    view.strs_total()
                                ),
                            ));
                        }
                    }
                    let d = depth + arm.binders as u32 + u32::from(arm.bind_scrut);
                    kid(arm.rhs, d, &mut work)?;
                }
            }
            COp::Prim2 { a, b, .. } | COp::Seq { a, b } | COp::MapExn { f: a, a: b } => {
                kid(a, depth, &mut work)?;
                kid(b, depth, &mut work)?;
            }
            COp::Prim1 { a, .. } | COp::IsExn { a } | COp::GetExn { a } | COp::Raise { a } => {
                kid(a, depth, &mut work)?;
            }
            COp::Fused { body } => {
                kid(body, depth, &mut work)?;
                verify_region(view, id, body)?;
            }
            COp::Spec { body } => {
                kid(body, depth, &mut work)?;
                verify_spec(view, id, body)?;
            }
            COp::AppG { f, ic, a } => {
                kid(f, depth, &mut work)?;
                kid(a, depth, &mut work)?;
                match view.op(f.0 as usize) {
                    Some(COp::Global(_)) => {}
                    _ => {
                        return Err(err(id, format!("AppG callee op {} is not a Global", f.0)));
                    }
                }
                if ic >= view.ic_slots {
                    return Err(err(
                        id,
                        format!("inline-cache slot {ic} out of range ({})", view.ic_slots),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks that the tree rooted at `root` is a legal fused region: only
/// WHNF-transparent ops (locals, globals, literals, nullary constructors)
/// and strict primitive combinators, at most [`MAX_REGION_OPS`] ops, and
/// at least one primitive (a region with none would be a pointless
/// wrapper the pass never emits). The size budget doubles as a cycle
/// bound on corrupted arenas.
fn verify_region(view: &VerifyView<'_>, at: CodeId, root: CodeId) -> Result<(), CodeVerifyError> {
    let err = |message: String| CodeVerifyError { at: at.0, message };
    let mut work = vec![root];
    let mut size = 0usize;
    let mut prims = 0usize;
    while let Some(id) = work.pop() {
        size += 1;
        if size > MAX_REGION_OPS {
            return Err(err(format!(
                "fused region exceeds {MAX_REGION_OPS} ops (or is cyclic)"
            )));
        }
        let Some(op) = view.op(id.0 as usize) else {
            return Err(err(format!("op index out of range ({})", view.ops_total())));
        };
        match op {
            COp::Local(_) | COp::Global(_) | COp::Int(_) | COp::Char(_) | COp::Str(_) => {}
            COp::Con { n: 0, .. } => {}
            COp::Prim1 { a, .. } => {
                prims += 1;
                work.push(a);
            }
            COp::Prim2 { a, b, .. } => {
                prims += 1;
                work.push(a);
                work.push(b);
            }
            COp::Seq { a, b } => {
                prims += 1;
                work.push(a);
                work.push(b);
            }
            other => {
                return Err(err(format!(
                    "unfusable op kind {} in region",
                    other.kind_index()
                )));
            }
        }
    }
    if prims == 0 {
        return Err(err("fused region contains no primitive".into()));
    }
    Ok(())
}

/// Checks a speculation body: either an eagerly buildable value form
/// (lambda, constructor, string literal) or a legal fused region whose
/// raises the executor stores as poison (§3.3) instead of propagating.
fn verify_spec(view: &VerifyView<'_>, at: CodeId, body: CodeId) -> Result<(), CodeVerifyError> {
    match view.op(body.0 as usize) {
        Some(COp::Lam { .. } | COp::Con { .. } | COp::Str(_)) => Ok(()),
        _ => verify_region(view, at, body),
    }
}

/// Compiles a desugared top-level binding group into one flat [`Code`]
/// arena. Free variables of every right-hand side must be bound by the
/// group itself (the session's combined Prelude + loads satisfy this).
///
/// # Panics
///
/// Panics on an unbound variable; the front end guarantees closedness.
pub fn compile_program(binds: &[(Symbol, Rc<Expr>)]) -> Code {
    let t0 = std::time::Instant::now();
    let mut buf = CodeBuf::default();
    let mut global_index: HashMap<Symbol, u32> = HashMap::with_capacity(binds.len());
    for (i, (name, _)) in binds.iter().enumerate() {
        // Later bindings shadow earlier ones, as in the denotational
        // evaluator's environment.
        global_index.insert(*name, i as u32);
    }
    let mut globals = Vec::with_capacity(binds.len());
    for (name, rhs) in binds {
        let mut c = Compiler {
            buf: &mut buf,
            globals: &global_index,
            scope: Vec::new(),
            bases: Bases::default(),
        };
        globals.push((*name, c.compile(rhs)));
    }
    let compile_ops = buf.ops.len() as u64;
    Code {
        buf,
        globals,
        global_index,
        compile_ops,
        compile_micros: t0.elapsed().as_micros() as u64,
        tier2: false,
        ic_slots: 0,
        regions: OnceLock::new(),
        verdict: OnceLock::new(),
    }
}

/// Compiles one query expression into `ext`, resolving free variables
/// against `base`'s global table. Returns the entry point and the number
/// of ops emitted.
pub(crate) fn compile_query(base: &Code, ext: &mut CodeBuf, expr: &Expr) -> (CodeId, u64) {
    let before = ext.ops.len();
    // Absolute addressing offsets by the base tables only: `ext` may
    // already hold earlier queries, and the emit helpers index as
    // `bases + ext.len()`, which accounts for that existing content.
    let bases = base.buf.len_of();
    let mut c = Compiler {
        buf: ext,
        globals: &base.global_index,
        scope: Vec::new(),
        bases,
    };
    let entry = c.compile(expr);
    (entry, (ext.ops.len() - before) as u64)
}

/// Lowers `f x` for an environment whose top two slots hold `f` (below)
/// and `x` (on top) into the extension buffer, and returns its entry.
pub(crate) fn compile_apply(base: &Code, ext: &mut CodeBuf) -> CodeId {
    let mut c = Compiler {
        buf: ext,
        globals: &base.global_index,
        scope: Vec::new(),
        bases: base.buf.len_of(),
    };
    let f = c.emit(COp::Local(1));
    let a = c.emit(COp::Local(0));
    c.emit(COp::App { f, a })
}

/// The one-pass lowering walk. `scope` is the compile-time mirror of the
/// runtime environment: code compiled with `scope.len() == n` always
/// executes under an environment of exactly `n` slots, so a variable at
/// scope position `i` is slot `n - 1 - i` back from the top.
struct Compiler<'a> {
    buf: &'a mut CodeBuf,
    globals: &'a HashMap<Symbol, u32>,
    scope: Vec<Symbol>,
    /// Zero for program compilation; `compile_query` sets it so
    /// extension indices address past the shared base tables.
    bases: Bases,
}

impl Compiler<'_> {
    fn emit(&mut self, op: COp) -> CodeId {
        let id = CodeId(self.bases.ops + self.buf.ops.len() as u32);
        self.buf.ops.push(op);
        id
    }

    fn push_kids(&mut self, kids: &[CodeId]) -> u32 {
        let at = self.bases.kids + self.buf.kids.len() as u32;
        self.buf.kids.extend_from_slice(kids);
        at
    }

    fn intern_str(&mut self, s: &str) -> u32 {
        // Program-level literals are few; a linear scan keeps the table
        // deduplicated without a side map.
        if let Some(i) = self.buf.strs.iter().position(|t| &**t == s) {
            return self.bases.strs + i as u32;
        }
        let i = self.bases.strs + self.buf.strs.len() as u32;
        self.buf.strs.push(Arc::from(s));
        i
    }

    fn compile(&mut self, e: &Expr) -> CodeId {
        match e {
            Expr::Var(v) => {
                if let Some(i) = self.scope.iter().rposition(|s| s == v) {
                    let back = (self.scope.len() - 1 - i) as u32;
                    return self.emit(COp::Local(back));
                }
                if let Some(g) = self.globals.get(v) {
                    return self.emit(COp::Global(*g));
                }
                panic!("unbound variable '{v}' while compiling");
            }
            Expr::Int(n) => self.emit(COp::Int(*n)),
            Expr::Char(c) => self.emit(COp::Char(*c)),
            Expr::Str(s) => {
                let i = self.intern_str(s);
                self.emit(COp::Str(i))
            }
            Expr::Con(c, args) => {
                let kid_ids: Vec<CodeId> = args.iter().map(|a| self.compile(a)).collect();
                let args_at = self.push_kids(&kid_ids);
                self.emit(COp::Con {
                    tag: *c,
                    args: args_at,
                    n: u16::try_from(kid_ids.len()).expect("constructor arity fits u16"),
                })
            }
            Expr::App(f, a) => {
                let f = self.compile(f);
                let a = self.compile(a);
                self.emit(COp::App { f, a })
            }
            Expr::Lam(x, b) => {
                self.scope.push(*x);
                let body = self.compile(b);
                self.scope.pop();
                self.emit(COp::Lam { body })
            }
            Expr::Let(x, rhs, body) => {
                let rhs = self.compile(rhs);
                self.scope.push(*x);
                let body = self.compile(body);
                self.scope.pop();
                self.emit(COp::Let { rhs, body })
            }
            Expr::LetRec(binds, body) => {
                for (name, _) in binds {
                    self.scope.push(*name);
                }
                let rhs_ids: Vec<CodeId> = binds.iter().map(|(_, r)| self.compile(r)).collect();
                let body = self.compile(body);
                self.scope.truncate(self.scope.len() - binds.len());
                let rhss = self.push_kids(&rhs_ids);
                self.emit(COp::LetRec {
                    rhss,
                    n: u16::try_from(rhs_ids.len()).expect("letrec group fits u16"),
                    body,
                })
            }
            Expr::Case(scrut, alts) => {
                let scrut = self.compile(scrut);
                let lowered: Vec<CArm> = alts.iter().map(|a| self.compile_arm(a)).collect();
                let arms_at = self.bases.arms + self.buf.arms.len() as u32;
                self.buf.arms.extend_from_slice(&lowered);
                self.emit(COp::Case {
                    scrut,
                    arms_at,
                    n: u16::try_from(lowered.len()).expect("alternative count fits u16"),
                })
            }
            Expr::Prim(op, args) => match op {
                PrimOp::Seq => {
                    let a = self.compile(&args[0]);
                    let b = self.compile(&args[1]);
                    self.emit(COp::Seq { a, b })
                }
                PrimOp::MapExn => {
                    let f = self.compile(&args[0]);
                    let a = self.compile(&args[1]);
                    self.emit(COp::MapExn { f, a })
                }
                PrimOp::UnsafeIsException => {
                    let a = self.compile(&args[0]);
                    self.emit(COp::IsExn { a })
                }
                PrimOp::UnsafeGetException => {
                    let a = self.compile(&args[0]);
                    self.emit(COp::GetExn { a })
                }
                _ if args.len() == 1 => {
                    let a = self.compile(&args[0]);
                    self.emit(COp::Prim1 { op: *op, a })
                }
                _ => {
                    let a = self.compile(&args[0]);
                    let b = self.compile(&args[1]);
                    self.emit(COp::Prim2 { op: *op, a, b })
                }
            },
            Expr::Raise(e) => {
                let a = self.compile(e);
                self.emit(COp::Raise { a })
            }
        }
    }

    fn compile_arm(&mut self, alt: &Alt) -> CArm {
        match &alt.con {
            AltCon::Default => {
                // A default arm may bind the forced scrutinee (only the
                // first binder, as the denotational evaluator does).
                let bind_scrut = !alt.binders.is_empty();
                if bind_scrut {
                    self.scope.push(alt.binders[0]);
                }
                let rhs = self.compile(&alt.rhs);
                if bind_scrut {
                    self.scope.pop();
                }
                CArm {
                    pat: CPat::Default,
                    rhs,
                    binders: 0,
                    bind_scrut,
                }
            }
            AltCon::Con(c) => {
                for b in &alt.binders {
                    self.scope.push(*b);
                }
                let rhs = self.compile(&alt.rhs);
                self.scope.truncate(self.scope.len() - alt.binders.len());
                CArm {
                    pat: CPat::Con(*c),
                    rhs,
                    binders: u16::try_from(alt.binders.len()).expect("binder count fits u16"),
                    bind_scrut: false,
                }
            }
            AltCon::Int(n) => self.literal_arm(CPat::Int(*n), alt),
            AltCon::Char(c) => self.literal_arm(CPat::Char(*c), alt),
            AltCon::Str(s) => {
                let i = self.intern_str(s);
                self.literal_arm(CPat::Str(i), alt)
            }
        }
    }

    fn literal_arm(&mut self, pat: CPat, alt: &Alt) -> CArm {
        let rhs = self.compile(&alt.rhs);
        CArm {
            pat,
            rhs,
            binders: 0,
            bind_scrut: false,
        }
    }
}

/// The machine's view of its compiled code: the shared program base plus
/// a machine-local extension holding per-query entry points. Heap thunks
/// carry `CodeId`s valid for the machine's whole life — the extension
/// only grows.
#[derive(Debug)]
pub(crate) struct LinkedCode {
    pub(crate) base: Arc<Code>,
    pub(crate) ext: CodeBuf,
    /// The entry of [`compile_apply`]'s code in `ext`, once lowered.
    pub(crate) apply: Option<CodeId>,
}

impl LinkedCode {
    pub(crate) fn new(base: Arc<Code>) -> LinkedCode {
        LinkedCode {
            base,
            ext: CodeBuf::default(),
            apply: None,
        }
    }

    #[inline]
    pub(crate) fn op(&self, id: CodeId) -> COp {
        let base = &self.base.buf.ops;
        let i = id.0 as usize;
        if i < base.len() {
            base[i]
        } else {
            self.ext.ops[i - base.len()]
        }
    }

    #[inline]
    pub(crate) fn kid(&self, i: u32) -> CodeId {
        let base = &self.base.buf.kids;
        let i = i as usize;
        if i < base.len() {
            base[i]
        } else {
            self.ext.kids[i - base.len()]
        }
    }

    #[inline]
    pub(crate) fn arm(&self, i: u32) -> CArm {
        let base = &self.base.buf.arms;
        let i = i as usize;
        if i < base.len() {
            base[i]
        } else {
            self.ext.arms[i - base.len()]
        }
    }

    /// The region program rooted at `root` (empty if it roots none).
    #[inline]
    pub(crate) fn region(&self, root: CodeId) -> RegionProgram {
        self.base.region_programs().program(root)
    }

    /// The slice of a region program for `left_first`'s order.
    #[inline]
    pub(crate) fn region_slice(&self, prog: RegionProgram, left_first: bool) -> &[COp] {
        let at = prog.start(left_first) as usize;
        &self.base.region_programs().ops[at..at + prog.len as usize]
    }

    /// One op of a region program (see [`crate::region`]).
    #[inline]
    pub(crate) fn region_op(&self, pc: u32) -> COp {
        self.base.region_programs().ops[pc as usize]
    }

    /// Borrowed view of an interned string literal (for comparisons that
    /// need no allocation, e.g. string-pattern dispatch).
    #[inline]
    pub(crate) fn str_ref(&self, i: u32) -> &str {
        let base = &self.base.buf.strs;
        let i = i as usize;
        if i < base.len() {
            &base[i]
        } else {
            &self.ext.strs[i - base.len()]
        }
    }

    #[inline]
    pub(crate) fn str_at(&self, i: u32) -> Rc<str> {
        let base = &self.base.buf.strs;
        let i = i as usize;
        let s: &Arc<str> = if i < base.len() {
            &base[i]
        } else {
            &self.ext.strs[i - base.len()]
        };
        Rc::from(&**s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::{desugar_program, parse_program, DataEnv};

    fn compiled(src: &str) -> Code {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        compile_program(&prog.binds)
    }

    #[test]
    fn verify_accepts_compiler_output() {
        let code = compiled(
            "double x = x + x\n\
             classify n = case n of { 0 -> \"zero\"; _ -> \"other\" }\n\
             len xs = case xs of { [] -> 0; y:ys -> 1 + len ys }\n\
             observe e = if unsafeIsException e then 0 else e\n\
             main = double (len [1, 2, 3]) + classify 0 `seq` 9",
        );
        code.verify()
            .expect("compiler-emitted arenas are well-formed");
    }

    #[test]
    fn verify_rejects_an_escaping_local_back_index() {
        let mut code = compiled("id x = x");
        let at = code
            .buf
            .ops
            .iter()
            .position(|op| matches!(op, COp::Local(_)))
            .expect("the identity body is a local");
        // Sabotage: point the variable five slots past the lambda's
        // one-deep environment.
        code.buf.ops[at] = COp::Local(5);
        let err = code.verify().expect_err("escaping back-index");
        assert_eq!(err.at, at as u32);
        assert!(
            err.message.contains("escapes env depth"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn verify_rejects_a_dangling_kid_range() {
        let mut code = compiled("pair = Pair 1 2");
        let at = code
            .buf
            .ops
            .iter()
            .position(|op| matches!(op, COp::Con { .. }))
            .expect("a constructor op");
        let COp::Con { tag, args, .. } = code.buf.ops[at] else {
            unreachable!()
        };
        code.buf.ops[at] = COp::Con { tag, args, n: 200 };
        let err = code.verify().expect_err("dangling kid range");
        assert!(
            err.message.contains("kid range"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn verify_rejects_forward_references_and_cycles() {
        let mut code = compiled("loopy = 1 + 2");
        let at = code
            .buf
            .ops
            .iter()
            .position(|op| matches!(op, COp::Prim2 { .. }))
            .expect("an addition op");
        let COp::Prim2 { op, b, .. } = code.buf.ops[at] else {
            unreachable!()
        };
        // Sabotage: the op's own id as a child — a self-cycle. The
        // strictly-decreasing child rule catches it immediately (and the
        // walk budget would bound it even if it did not).
        code.buf.ops[at] = COp::Prim2 {
            op,
            a: CodeId(at as u32),
            b,
        };
        let err = code.verify().expect_err("self-cycle");
        assert!(
            err.message.contains("not strictly before"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn verify_rejects_out_of_range_globals_and_strings() {
        let mut code = compiled("greeting = \"hello\"");
        let at = code
            .buf
            .ops
            .iter()
            .position(|op| matches!(op, COp::Str(_)))
            .expect("a string literal");
        code.buf.ops[at] = COp::Str(99);
        let err = code.verify().expect_err("dangling string index");
        assert!(err.message.contains("string index"), "{err}");

        let mut code = compiled("seven = 7");
        code.buf.ops[0] = COp::Global(42);
        let err = code.verify().expect_err("dangling global index");
        assert!(err.message.contains("global index"), "{err}");
    }

    fn tier2_of(src: &str) -> Code {
        crate::tier2::tier2_optimize(&compiled(src), &crate::tier2::Tier2Facts::empty())
    }

    fn find_op(code: &Code, pred: impl Fn(&COp) -> bool) -> usize {
        code.buf
            .ops
            .iter()
            .position(pred)
            .expect("expected op kind present")
    }

    #[test]
    fn verify_rejects_a_fused_region_wrapping_a_raise() {
        // §3.3 discipline: a Raise inside an atomic region would skip the
        // per-frame trim; the region grammar excludes it.
        let mut code = tier2_of("f x = x + x\nmain = f 1");
        let at = find_op(&code, |op| matches!(op, COp::Fused { .. }));
        let raise_at = code.buf.ops.len() as u32;
        let COp::Fused { body } = code.buf.ops[at] else {
            unreachable!()
        };
        code.buf.ops.push(COp::Raise { a: body });
        code.buf.ops[at] = COp::Fused {
            body: CodeId(raise_at),
        };
        // Re-point: child must stay strictly before the parent, so move
        // the Fused op itself past the new Raise.
        let fused = code.buf.ops[at];
        code.buf.ops[at] = COp::Int(0);
        code.buf.ops.push(fused);
        let entry_global = code
            .globals
            .iter_mut()
            .find(|(_, e)| e.0 == at as u32)
            .map(|(_, e)| e);
        if let Some(e) = entry_global {
            *e = CodeId(code.buf.ops.len() as u32 - 1);
        } else {
            // The Fused op was not a global entry; reach it through a new
            // synthetic global so the walk visits it.
            code.globals.push((
                Symbol::intern("sabotaged"),
                CodeId(code.buf.ops.len() as u32 - 1),
            ));
        }
        let err = code.verify().expect_err("raise inside a region");
        assert!(err.message.contains("unfusable op kind"), "{err}");
    }

    #[test]
    fn verify_rejects_a_fused_region_wrapping_an_application() {
        // Calls are unbounded work: a region containing one would turn a
        // single step into arbitrary evaluation.
        let mut code = tier2_of("f x = x + x\nmain = f 1");
        let app_at = find_op(&code, |op| matches!(op, COp::App { .. } | COp::AppG { .. }));
        code.buf.ops.push(COp::Fused {
            body: CodeId(app_at as u32),
        });
        code.globals.push((
            Symbol::intern("sabotaged"),
            CodeId(code.buf.ops.len() as u32 - 1),
        ));
        let err = code.verify().expect_err("application inside a region");
        assert!(err.message.contains("unfusable op kind"), "{err}");
    }

    #[test]
    fn verify_rejects_a_region_with_no_primitive() {
        let mut code = tier2_of("main = 2 * 3 + 1");
        let int_at = find_op(&code, |op| matches!(op, COp::Int(_)));
        let fused_at = find_op(&code, |op| matches!(op, COp::Fused { .. }));
        code.buf.ops[fused_at] = COp::Fused {
            body: CodeId(int_at as u32),
        };
        let err = code.verify().expect_err("pointless region");
        assert!(err.message.contains("no primitive"), "{err}");
    }

    #[test]
    fn verify_rejects_a_speculation_wrapping_an_application() {
        let mut code = tier2_of("f x = x + x\nmain = let s = 2 * 3 in f s");
        let app_at = find_op(&code, |op| matches!(op, COp::App { .. } | COp::AppG { .. }));
        let spec_at = find_op(&code, |op| matches!(op, COp::Spec { .. }));
        // Only sabotage if the App precedes the Spec (child ordering);
        // otherwise synthesize a fresh Spec past the App.
        if app_at < spec_at {
            code.buf.ops[spec_at] = COp::Spec {
                body: CodeId(app_at as u32),
            };
        } else {
            code.buf.ops.push(COp::Spec {
                body: CodeId(app_at as u32),
            });
            code.globals.push((
                Symbol::intern("sabotaged"),
                CodeId(code.buf.ops.len() as u32 - 1),
            ));
        }
        let err = code.verify().expect_err("unbounded speculation");
        assert!(err.message.contains("unfusable op kind"), "{err}");
    }

    #[test]
    fn verify_rejects_an_inline_cache_slot_out_of_range() {
        let mut code = tier2_of("f x = x + x\nmain = f 1");
        let at = find_op(&code, |op| matches!(op, COp::AppG { .. }));
        let COp::AppG { f, a, .. } = code.buf.ops[at] else {
            unreachable!()
        };
        code.buf.ops[at] = COp::AppG { f, ic: 99, a };
        let err = code.verify().expect_err("dangling cache slot");
        assert!(err.message.contains("inline-cache slot"), "{err}");
    }

    #[test]
    fn verify_rejects_an_inline_cached_call_on_a_non_global() {
        let mut code = tier2_of("f x = x + x\nmain = f 1");
        let at = find_op(&code, |op| matches!(op, COp::AppG { .. }));
        let COp::AppG { ic, a, .. } = code.buf.ops[at] else {
            unreachable!()
        };
        let int_at = find_op(&code, |op| matches!(op, COp::Int(_)));
        code.buf.ops[at] = COp::AppG {
            f: CodeId(int_at as u32),
            ic,
            a,
        };
        let err = code.verify().expect_err("cached callee must be a global");
        assert!(err.message.contains("not a Global"), "{err}");
    }

    #[test]
    fn verify_rejects_an_oversized_region() {
        // Chain MAX_REGION_OPS + 1 negations: every op is region-legal,
        // but the size cap (the single-step work bound) must reject it.
        let mut code = compiled("seed = 0");
        let mut cur = CodeId(
            code.buf
                .ops
                .iter()
                .position(|op| matches!(op, COp::Int(_)))
                .expect("the literal") as u32,
        );
        for _ in 0..MAX_REGION_OPS {
            code.buf.ops.push(COp::Prim1 {
                op: urk_syntax::core::PrimOp::Neg,
                a: cur,
            });
            cur = CodeId(code.buf.ops.len() as u32 - 1);
        }
        code.buf.ops.push(COp::Fused { body: cur });
        code.globals.push((
            Symbol::intern("oversized"),
            CodeId(code.buf.ops.len() as u32 - 1),
        ));
        let err = code.verify().expect_err("region past the size cap");
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn verify_query_checks_extension_code_against_the_base() {
        use urk_syntax::{desugar_expr, parse_expr_src};
        let base = compiled("double x = x + x");
        let data = DataEnv::new();
        let query =
            desugar_expr(&parse_expr_src("double 21").expect("parses"), &data).expect("desugars");
        let mut ext = CodeBuf::default();
        let (entry, _) = compile_query(&base, &mut ext, &query);
        verify_query(&base, &ext, entry).expect("well-formed query");
        // Sabotage the extension: a local in a depth-zero query.
        let at = ext
            .ops
            .iter()
            .position(|op| matches!(op, COp::Global(_)))
            .expect("the call head resolves globally");
        ext.ops[at] = COp::Local(0);
        let err = verify_query(&base, &ext, entry).expect_err("no slots at depth 0");
        assert!(err.message.contains("escapes env depth"), "{err}");
    }
}
