//! Translation validation for the tier-2 pass.
//!
//! [`tier2_optimize_certified`](crate::tier2_optimize_certified) records a
//! [`Tier2Cert`]: one entry per transform, naming which fact licensed it
//! and which source op maps to which destination op. This module is the
//! *independent* half of the bargain — [`validate_tier2`] walks the tier-1
//! and tier-2 arenas in lockstep and re-derives every obligation from
//! scratch, trusting nothing the compiler stored:
//!
//! * **Region legality is re-proven op-by-op.** Every `Fused`/`Spec`
//!   region is re-scanned on the *source* side: call-free grammar
//!   (locals, globals, literals, nullary constructors, strict prims),
//!   size within [`MAX_REGION_OPS`], at least one primitive.
//! * **Speculated raises land as §3.3 poison, structurally.** `Spec` is
//!   accepted only in lazy (allocation) positions and `Fused` only in
//!   demanded ones — the walker re-derives the context from the op shapes
//!   alone, so a speculation site that would *propagate* a raise instead
//!   of storing it cannot be mis-filed.
//! * **Constants are re-checked against a fresh fact.** `ConstSubst`
//!   entries are discharged against a freshly computed [`Tier2Facts`]
//!   (the caller recomputes the analysis), never the fact the compiler
//!   stored — a corrupted licence is caught before any execution.
//! * **The §3.5 Seeded draw-stream exclusion is enforced.** Substituted
//!   constants must mirror a source body that is *already* that literal
//!   (no draw is erased), and `SpecCall` inlining may duplicate its
//!   argument only when the argument is a draw-free leaf.
//!
//! Anything structural the certificate does not explain — an op-kind
//! divergence, an undischarged or duplicated entry, an inline-cache slot
//! collision — is a [`ValidationError`]. The report counts what was
//! discharged, for observability and the validator-cost bench.

use std::collections::HashMap;

use crate::code::{CArm, COp, CPat, Code, CodeId, MAX_REGION_OPS};
use crate::tier2::{CertKind, FactVal, Tier2Cert, Tier2Facts};

/// A discharged-obligation tally: what the validator re-proved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValidationReport {
    /// `Fused` regions re-proven call-free and in demanded position.
    pub fused: usize,
    /// `Spec` sites over value forms (lambda/constructor).
    pub spec_value: usize,
    /// `Spec` sites over prim regions.
    pub spec_region: usize,
    /// Strictness-licensed beta-inlined call speculations.
    pub spec_call: usize,
    /// Constant substitutions re-checked against fresh facts.
    pub const_subst: usize,
    /// Case folds re-derived (static scrutinee, first match, no binders).
    pub case_fold: usize,
    /// Inline-cache installations (slots proven distinct and in range).
    pub app_g: usize,
    /// Ops verified as plain structural copies.
    pub copied: usize,
}

/// Why a tier-2 image was refused. `src_at`/`dst_at` are op indices into
/// the tier-1 and tier-2 arenas where the obligation failed.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidationError {
    /// Op index in the tier-1 (source) arena.
    pub src_at: u32,
    /// Op index in the tier-2 (destination) arena.
    pub dst_at: u32,
    /// The obligation that could not be discharged.
    pub message: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tier-2 validation failed at src op {} / dst op {}: {}",
            self.src_at, self.dst_at, self.message
        )
    }
}

impl std::error::Error for ValidationError {}

/// The evaluation context the validator re-derives while walking — the
/// licence boundary between fusing (demanded now) and speculating
/// (suspended): a raise inside a `Fused` region raises anyway, a raise
/// inside a `Spec` region must be *stored* (§3.3), and nothing wraps
/// inside an already-atomic region.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Ctx {
    Strict,
    Lazy,
}

/// Validates one tier-2 compilation: `t2` must be derivable from `base`
/// via exactly the transforms `cert` records, with every licence
/// re-discharged against `fresh` — facts the caller recomputed for this
/// call, never the ones the optimiser consumed.
pub fn validate_tier2(
    base: &Code,
    t2: &Code,
    cert: &Tier2Cert,
    fresh: &Tier2Facts,
) -> Result<ValidationReport, ValidationError> {
    // Step 0: the destination image must pass the structural verifier on
    // its own terms (acyclicity, arities, region grammar, lexical depth).
    if let Err(e) = t2.verify() {
        return Err(ValidationError {
            src_at: 0,
            dst_at: e.at,
            message: format!("tier-2 image fails Code::verify: {}", e.message),
        });
    }
    if !t2.is_tier2() {
        return Err(ValidationError {
            src_at: 0,
            dst_at: 0,
            message: "image is not tagged tier-2".into(),
        });
    }
    let mut cert_map: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, entry) in cert.entries.iter().enumerate() {
        if cert_map.insert((entry.src, entry.dst), i).is_some() {
            return Err(ValidationError {
                src_at: entry.src,
                dst_at: entry.dst,
                message: "duplicate certificate entry for the same op pair".into(),
            });
        }
    }
    let mut ck = Checker {
        src: base,
        dst: t2,
        cert,
        cert_map,
        used: vec![false; cert.entries.len()],
        facts: fresh,
        ics: Vec::new(),
        report: ValidationReport::default(),
    };
    if base.globals.len() != t2.globals.len() {
        return Err(ValidationError {
            src_at: 0,
            dst_at: 0,
            message: format!(
                "global table length changed: {} -> {}",
                base.globals.len(),
                t2.globals.len()
            ),
        });
    }
    for ((sn, se), (dn, de)) in base.globals.iter().zip(&t2.globals) {
        if sn != dn {
            return Err(ValidationError {
                src_at: se.0,
                dst_at: de.0,
                message: format!("global renamed: {sn} -> {dn}"),
            });
        }
        ck.check(*se, *de, Ctx::Strict)?;
    }
    // Every recorded entry must have been discharged by the walk — a
    // stale or unreachable certificate is a defect, not slack.
    for (i, used) in ck.used.iter().enumerate() {
        if !used {
            let e = &cert.entries[i];
            return Err(ValidationError {
                src_at: e.src,
                dst_at: e.dst,
                message: "certificate entry never discharged by the lockstep walk".into(),
            });
        }
    }
    // Inline-cache slots: distinct, in range, and fully accounted for.
    let mut seen = vec![false; t2.ic_slot_count() as usize];
    for ic in &ck.ics {
        match seen.get_mut(*ic as usize) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => {
                return Err(ValidationError {
                    src_at: 0,
                    dst_at: 0,
                    message: format!("inline-cache slot {ic} used by two sites"),
                })
            }
            None => {
                return Err(ValidationError {
                    src_at: 0,
                    dst_at: 0,
                    message: format!(
                        "inline-cache slot {ic} out of range ({} slots)",
                        t2.ic_slot_count()
                    ),
                })
            }
        }
    }
    if ck.ics.len() != t2.ic_slot_count() as usize {
        return Err(ValidationError {
            src_at: 0,
            dst_at: 0,
            message: format!(
                "{} inline-cache sites for {} declared slots",
                ck.ics.len(),
                t2.ic_slot_count()
            ),
        });
    }
    Ok(ck.report)
}

struct Checker<'a> {
    src: &'a Code,
    dst: &'a Code,
    cert: &'a Tier2Cert,
    cert_map: HashMap<(u32, u32), usize>,
    used: Vec<bool>,
    facts: &'a Tier2Facts,
    ics: Vec<u32>,
    report: ValidationReport,
}

impl Checker<'_> {
    fn s_op(&self, id: CodeId) -> COp {
        self.src.buf.ops[id.0 as usize]
    }

    fn d_op(&self, id: CodeId) -> COp {
        self.dst.buf.ops[id.0 as usize]
    }

    fn s_str(&self, i: u32) -> &str {
        &self.src.buf.strs[i as usize]
    }

    fn d_str(&self, i: u32) -> &str {
        &self.dst.buf.strs[i as usize]
    }

    fn err<T>(
        &self,
        s: CodeId,
        d: CodeId,
        message: impl Into<String>,
    ) -> Result<T, ValidationError> {
        Err(ValidationError {
            src_at: s.0,
            dst_at: d.0,
            message: message.into(),
        })
    }

    /// Takes (and marks used) the certificate entry for this op pair.
    fn take_cert(&mut self, s: CodeId, d: CodeId) -> Option<CertKind> {
        let i = *self.cert_map.get(&(s.0, d.0))?;
        if self.used[i] {
            return None; // re-use is a structural divergence, caught below
        }
        self.used[i] = true;
        Some(self.cert.entries[i].kind.clone())
    }

    /// Re-derives the constant-substitution licence for global `g` from
    /// the fresh facts and the *source* arena: WHNF-safe, proven literal,
    /// and a source body that is already a literal op of the same kind
    /// (the §3.5 exclusion — substituting a computed constant would erase
    /// a draw tier 1 performs). Returns the licensed value.
    fn const_licence(&self, g: u32) -> Option<FactVal> {
        let fact = self.facts.globals.get(g as usize)?;
        if !fact.whnf_safe {
            return None;
        }
        let value = fact.value.as_ref()?;
        let (_, entry) = self.src.globals.get(g as usize)?;
        match (self.s_op(*entry), value) {
            (COp::Int(_), FactVal::Int(_))
            | (COp::Char(_), FactVal::Char(_))
            | (COp::Str(_), FactVal::Str(_)) => Some(value.clone()),
            _ => None,
        }
    }

    /// Scans the *source* subtree as a fused-region candidate, re-proving
    /// the call-free grammar op-by-op. Returns `(ops, prims)`.
    fn region_scan(&self, id: CodeId) -> Option<(usize, usize)> {
        let (size, prims) = match self.s_op(id) {
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

    /// Re-proves a source subtree is a legal, worthwhile region.
    fn require_region(&self, s: CodeId, d: CodeId, what: &str) -> Result<(), ValidationError> {
        match self.region_scan(s) {
            Some((size, prims)) if size >= 2 && prims >= 1 => Ok(()),
            Some(_) => self.err(s, d, format!("{what}: region has no primitive work")),
            None => self.err(
                s,
                d,
                format!("{what}: source subtree is not a call-free region within the size cap"),
            ),
        }
    }

    /// The core lockstep obligation: the tier-2 op `d` must be derivable
    /// from the tier-1 op `s` in context `ctx` — a certified transform or
    /// a structural copy, nothing else.
    fn check(&mut self, s: CodeId, d: CodeId, ctx: Ctx) -> Result<(), ValidationError> {
        if let Some(kind) = self.take_cert(s, d) {
            return self.check_cert(s, d, ctx, kind);
        }
        self.check_copy(s, d, ctx)
    }

    fn check_cert(
        &mut self,
        s: CodeId,
        d: CodeId,
        ctx: Ctx,
        kind: CertKind,
    ) -> Result<(), ValidationError> {
        match kind {
            CertKind::Fused => {
                if ctx != Ctx::Strict {
                    return self.err(s, d, "Fused region outside a demanded position");
                }
                let COp::Fused { body } = self.d_op(d) else {
                    return self.err(s, d, "Fused certificate on a non-Fused destination op");
                };
                self.require_region(s, d, "Fused")?;
                self.check_region(s, body)?;
                self.report.fused += 1;
                Ok(())
            }
            CertKind::SpecValue => {
                if ctx != Ctx::Lazy {
                    return self.err(s, d, "Spec site outside an allocation position");
                }
                let COp::Spec { body } = self.d_op(d) else {
                    return self.err(s, d, "Spec certificate on a non-Spec destination op");
                };
                let value_form = match self.s_op(s) {
                    COp::Lam { .. } => true,
                    COp::Con { n, .. } => n >= 1,
                    _ => false,
                };
                if !value_form {
                    return self.err(s, d, "SpecValue source is not a lambda or constructor");
                }
                self.check_copy(s, body, Ctx::Lazy)?;
                self.report.spec_value += 1;
                Ok(())
            }
            CertKind::SpecRegion => {
                if ctx != Ctx::Lazy {
                    return self.err(s, d, "Spec site outside an allocation position");
                }
                let COp::Spec { body } = self.d_op(d) else {
                    return self.err(s, d, "Spec certificate on a non-Spec destination op");
                };
                self.require_region(s, d, "SpecRegion")?;
                self.check_region(s, body)?;
                self.report.spec_region += 1;
                Ok(())
            }
            CertKind::SpecCall { callee } => {
                if ctx != Ctx::Lazy {
                    return self.err(s, d, "Spec site outside an allocation position");
                }
                let COp::Spec { body: region } = self.d_op(d) else {
                    return self.err(s, d, "Spec certificate on a non-Spec destination op");
                };
                let COp::App { f, a } = self.s_op(s) else {
                    return self.err(s, d, "SpecCall source is not an application");
                };
                if !matches!(self.s_op(f), COp::Global(g) if g == callee) {
                    return self.err(s, d, "SpecCall callee does not match the source head");
                }
                // The licence proper, from *fresh* facts: the parameter is
                // certainly demanded, so an exceptional argument makes the
                // call exceptional — storing the raise as poison keeps the
                // denoted set.
                let demanded = self
                    .facts
                    .globals
                    .get(callee as usize)
                    .is_some_and(|f| f.demands.as_slice() == [true]);
                if !demanded {
                    return self.err(
                        s,
                        d,
                        "SpecCall licence not re-derivable: fresh facts do not prove the \
                         callee's parameter demanded",
                    );
                }
                let Some((_, entry)) = self.src.globals.get(callee as usize) else {
                    return self.err(s, d, "SpecCall callee index out of range");
                };
                let COp::Lam { body } = self.s_op(*entry) else {
                    return self.err(s, d, "SpecCall callee is not a manifest lambda");
                };
                let Some((bsize, bprims)) = self.region_scan_callee(body) else {
                    return self.err(s, d, "SpecCall callee body is not a one-parameter region");
                };
                let Some((asize, aprims)) = self.region_scan(a) else {
                    return self.err(s, d, "SpecCall argument is not a call-free region");
                };
                let occ = self
                    .count_param_leaves(body)
                    .expect("region_scan_callee proved the body shape");
                if occ >= 2 && !self.is_draw_free_leaf(a) {
                    return self.err(
                        s,
                        d,
                        "SpecCall duplicates a non-leaf argument (would fork the Seeded \
                         draw stream)",
                    );
                }
                let size = bsize - occ + occ * asize;
                let prims = bprims + occ * aprims;
                if size < 2 || prims < 1 || size > MAX_REGION_OPS {
                    return self.err(s, d, "SpecCall inlined region out of bounds");
                }
                self.check_subst(body, a, region)?;
                self.report.spec_call += 1;
                Ok(())
            }
            CertKind::ConstSubst { global } => {
                if !matches!(self.s_op(s), COp::Global(g) if g == global) {
                    return self.err(s, d, "ConstSubst source is not the certified global");
                }
                let Some(value) = self.const_licence(global) else {
                    return self.err(s, d, "ConstSubst licence not re-derivable from fresh facts");
                };
                let ok = match (self.d_op(d), &value) {
                    (COp::Int(n), FactVal::Int(m)) => n == *m,
                    (COp::Char(c), FactVal::Char(e)) => c == *e,
                    (COp::Str(i), FactVal::Str(t)) => self.d_str(i) == t,
                    _ => false,
                };
                if !ok {
                    return self.err(
                        s,
                        d,
                        "substituted constant disagrees with the freshly proven value",
                    );
                }
                self.report.const_subst += 1;
                Ok(())
            }
            CertKind::CaseFold { arm } => {
                let COp::Case { scrut, arms_at, n } = self.s_op(s) else {
                    return self.err(s, d, "CaseFold source is not a case");
                };
                let Some(v) = self.static_value(scrut) else {
                    return self.err(s, d, "CaseFold scrutinee has no static value");
                };
                // Re-derive the first match independently.
                let mut first: Option<u32> = None;
                for i in 0..u32::from(n) {
                    let at = self.src.buf.arms[(arms_at + i) as usize];
                    if self.arm_matches(&at, &v) {
                        first = Some(i);
                        break;
                    }
                }
                if first != Some(arm) {
                    return self.err(s, d, "CaseFold selected an arm that is not the first match");
                }
                let at = self.src.buf.arms[(arms_at + arm) as usize];
                if at.binders != 0 || at.bind_scrut {
                    return self.err(
                        s,
                        d,
                        "CaseFold arm binds — fold would shift the environment",
                    );
                }
                self.report.case_fold += 1;
                // The fold substitutes the arm's rhs in place, in the
                // *incoming* context (a fold under a lazy binding may
                // legally speculate its result).
                self.check(at.rhs, d, ctx)
            }
            CertKind::AppG { callee, ic } => {
                let COp::App { f, a } = self.s_op(s) else {
                    return self.err(s, d, "AppG source is not an application");
                };
                if !matches!(self.s_op(f), COp::Global(g) if g == callee) {
                    return self.err(s, d, "AppG callee does not match the source head");
                }
                let COp::AppG {
                    f: df,
                    ic: dic,
                    a: da,
                } = self.d_op(d)
                else {
                    return self.err(s, d, "AppG certificate on a non-AppG destination op");
                };
                if !matches!(self.d_op(df), COp::Global(g) if g == callee) {
                    return self.err(s, d, "AppG destination callee op mismatch");
                }
                if dic != ic {
                    return self.err(s, d, "AppG inline-cache slot disagrees with certificate");
                }
                self.ics.push(ic);
                self.check(a, da, Ctx::Lazy)?;
                self.report.app_g += 1;
                Ok(())
            }
        }
    }

    /// An uncertified pair must be a structural copy: same op kind, same
    /// immediate payload (strings compared by content, never by index),
    /// children checked in the contexts their positions dictate.
    fn check_copy(&mut self, s: CodeId, d: CodeId, _ctx: Ctx) -> Result<(), ValidationError> {
        self.report.copied += 1;
        match (self.s_op(s), self.d_op(d)) {
            (COp::Local(a), COp::Local(b)) if a == b => Ok(()),
            (COp::Global(a), COp::Global(b)) if a == b => Ok(()),
            (COp::Int(a), COp::Int(b)) if a == b => Ok(()),
            (COp::Char(a), COp::Char(b)) if a == b => Ok(()),
            (COp::Str(a), COp::Str(b)) if self.s_str(a) == self.d_str(b) => Ok(()),
            (
                COp::Con { tag, args, n },
                COp::Con {
                    tag: t2,
                    args: a2,
                    n: n2,
                },
            ) if tag == t2 && n == n2 => {
                for i in 0..u32::from(n) {
                    let sk = self.src.buf.kids[(args + i) as usize];
                    let dk = self.dst.buf.kids[(a2 + i) as usize];
                    self.check(sk, dk, Ctx::Lazy)?;
                }
                Ok(())
            }
            (COp::App { f, a }, COp::App { f: df, a: da }) => {
                self.check(f, df, Ctx::Strict)?;
                self.check(a, da, Ctx::Lazy)
            }
            (COp::Lam { body }, COp::Lam { body: db }) => self.check(body, db, Ctx::Strict),
            (COp::Let { rhs, body }, COp::Let { rhs: dr, body: db }) => {
                self.check(rhs, dr, Ctx::Lazy)?;
                self.check(body, db, Ctx::Strict)
            }
            (
                COp::LetRec { rhss, n, body },
                COp::LetRec {
                    rhss: dr,
                    n: n2,
                    body: db,
                },
            ) if n == n2 => {
                for i in 0..u32::from(n) {
                    let sk = self.src.buf.kids[(rhss + i) as usize];
                    let dk = self.dst.buf.kids[(dr + i) as usize];
                    // Recursive rhss are copied under Strict and never
                    // speculated (the knot is unfinished at allocation).
                    self.check(sk, dk, Ctx::Strict)?;
                }
                self.check(body, db, Ctx::Strict)
            }
            (
                COp::Case { scrut, arms_at, n },
                COp::Case {
                    scrut: ds,
                    arms_at: da,
                    n: n2,
                },
            ) if n == n2 => {
                self.check(scrut, ds, Ctx::Strict)?;
                for i in 0..u32::from(n) {
                    let sa = self.src.buf.arms[(arms_at + i) as usize];
                    let dd = self.dst.buf.arms[(da + i) as usize];
                    self.check_arm(s, d, &sa, &dd)?;
                }
                Ok(())
            }
            (COp::Prim1 { op, a }, COp::Prim1 { op: o2, a: da }) if op == o2 => {
                self.check(a, da, Ctx::Strict)
            }
            (
                COp::Prim2 { op, a, b },
                COp::Prim2 {
                    op: o2,
                    a: da,
                    b: db,
                },
            ) if op == o2 => {
                self.check(a, da, Ctx::Strict)?;
                self.check(b, db, Ctx::Strict)
            }
            (COp::Seq { a, b }, COp::Seq { a: da, b: db }) => {
                self.check(a, da, Ctx::Strict)?;
                self.check(b, db, Ctx::Strict)
            }
            (COp::MapExn { f, a }, COp::MapExn { f: df, a: da }) => {
                self.check(f, df, Ctx::Strict)?;
                self.check(a, da, Ctx::Strict)
            }
            (COp::IsExn { a }, COp::IsExn { a: da }) => self.check(a, da, Ctx::Strict),
            (COp::GetExn { a }, COp::GetExn { a: da }) => self.check(a, da, Ctx::Strict),
            (COp::Raise { a }, COp::Raise { a: da }) => self.check(a, da, Ctx::Strict),
            (COp::Fused { .. } | COp::Spec { .. } | COp::AppG { .. }, _) => {
                self.err(s, d, "tier-2 op in the tier-1 source arena")
            }
            (so, dop) => self.err(
                s,
                d,
                format!(
                    "structural divergence without a certificate: src kind {} vs dst kind {}",
                    so.kind_index(),
                    dop.kind_index()
                ),
            ),
        }
    }

    fn check_arm(
        &mut self,
        s: CodeId,
        d: CodeId,
        sa: &CArm,
        da: &CArm,
    ) -> Result<(), ValidationError> {
        let pat_ok = match (sa.pat, da.pat) {
            (CPat::Con(a), CPat::Con(b)) => a == b,
            (CPat::Int(a), CPat::Int(b)) => a == b,
            (CPat::Char(a), CPat::Char(b)) => a == b,
            (CPat::Str(a), CPat::Str(b)) => self.s_str(a) == self.d_str(b),
            (CPat::Default, CPat::Default) => true,
            _ => false,
        };
        if !pat_ok || sa.binders != da.binders || sa.bind_scrut != da.bind_scrut {
            return self.err(s, d, "case arm shape diverges");
        }
        self.check(sa.rhs, da.rhs, Ctx::Strict)
    }

    /// Lockstep walk *inside* a region: every source op must be
    /// region-legal, and the only transform the destination may carry is
    /// a certified constant substitution (nothing wraps inside a region).
    fn check_region(&mut self, s: CodeId, d: CodeId) -> Result<(), ValidationError> {
        if let Some(kind) = self.take_cert(s, d) {
            return match kind {
                CertKind::ConstSubst { .. } => self.check_cert(s, d, Ctx::Strict, kind),
                _ => self.err(s, d, "only constant substitution is legal inside a region"),
            };
        }
        match (self.s_op(s), self.d_op(d)) {
            (COp::Local(a), COp::Local(b)) if a == b => Ok(()),
            (COp::Global(a), COp::Global(b)) if a == b => Ok(()),
            (COp::Int(a), COp::Int(b)) if a == b => Ok(()),
            (COp::Char(a), COp::Char(b)) if a == b => Ok(()),
            (COp::Str(a), COp::Str(b)) if self.s_str(a) == self.d_str(b) => Ok(()),
            (COp::Con { tag, n: 0, .. }, COp::Con { tag: t2, n: 0, .. }) if tag == t2 => Ok(()),
            (COp::Prim1 { op, a }, COp::Prim1 { op: o2, a: da }) if op == o2 => {
                self.check_region(a, da)
            }
            (
                COp::Prim2 { op, a, b },
                COp::Prim2 {
                    op: o2,
                    a: da,
                    b: db,
                },
            ) if op == o2 => {
                self.check_region(a, da)?;
                self.check_region(b, db)
            }
            (COp::Seq { a, b }, COp::Seq { a: da, b: db }) => {
                self.check_region(a, da)?;
                self.check_region(b, db)
            }
            _ => self.err(s, d, "region contents diverge from the source"),
        }
    }

    /// Lockstep walk of a beta-substituted callee body: where the body
    /// reads its parameter (`Local(0)`), the destination must carry a
    /// copy of the *argument* region; everywhere else it mirrors the body.
    fn check_subst(&mut self, body: CodeId, arg: CodeId, d: CodeId) -> Result<(), ValidationError> {
        match self.s_op(body) {
            COp::Local(0) => self.check_region(arg, d),
            COp::Local(_) => self.err(body, d, "SpecCall body captures beyond its parameter"),
            COp::Prim1 { op, a } => {
                let COp::Prim1 { op: o2, a: da } = self.d_op(d) else {
                    return self.err(body, d, "inlined region diverges from the callee body");
                };
                if op != o2 {
                    return self.err(body, d, "inlined region diverges from the callee body");
                }
                self.check_subst(a, arg, da)
            }
            COp::Prim2 { op, a, b } => {
                let COp::Prim2 {
                    op: o2,
                    a: da,
                    b: db,
                } = self.d_op(d)
                else {
                    return self.err(body, d, "inlined region diverges from the callee body");
                };
                if op != o2 {
                    return self.err(body, d, "inlined region diverges from the callee body");
                }
                self.check_subst(a, arg, da)?;
                self.check_subst(b, arg, db)
            }
            COp::Seq { a, b } => {
                let COp::Seq { a: da, b: db } = self.d_op(d) else {
                    return self.err(body, d, "inlined region diverges from the callee body");
                };
                self.check_subst(a, arg, da)?;
                self.check_subst(b, arg, db)
            }
            _ => self.check_region(body, d),
        }
    }

    /// Region scan for a callee body that may read `Local(0)` (and only
    /// `Local(0)` — any deeper capture disqualifies it).
    fn region_scan_callee(&self, id: CodeId) -> Option<(usize, usize)> {
        match self.s_op(id) {
            COp::Local(0) => Some((1, 0)),
            COp::Local(_) => None,
            _ => self.region_scan(id),
        }
    }

    fn count_param_leaves(&self, id: CodeId) -> Option<usize> {
        match self.s_op(id) {
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

    fn is_draw_free_leaf(&self, id: CodeId) -> bool {
        matches!(
            self.s_op(id),
            COp::Local(_)
                | COp::Global(_)
                | COp::Int(_)
                | COp::Char(_)
                | COp::Str(_)
                | COp::Con { n: 0, .. }
        )
    }

    /// Statically known scrutinee value, re-derived with fresh facts.
    fn static_value(&self, id: CodeId) -> Option<StaticScrut> {
        match self.s_op(id) {
            COp::Int(n) => Some(StaticScrut::Int(n)),
            COp::Char(c) => Some(StaticScrut::Char(c)),
            COp::Str(s) => Some(StaticScrut::Str(self.s_str(s).to_string())),
            COp::Con { tag, n: 0, .. } => Some(StaticScrut::Con0(tag)),
            COp::Global(g) => match self.const_licence(g)? {
                FactVal::Int(n) => Some(StaticScrut::Int(n)),
                FactVal::Char(c) => Some(StaticScrut::Char(c)),
                FactVal::Str(s) => Some(StaticScrut::Str(s)),
            },
            _ => None,
        }
    }

    fn arm_matches(&self, arm: &CArm, v: &StaticScrut) -> bool {
        match (arm.pat, v) {
            (CPat::Default, _) => true,
            (CPat::Int(a), StaticScrut::Int(b)) => a == *b,
            (CPat::Char(a), StaticScrut::Char(b)) => a == *b,
            (CPat::Str(si), StaticScrut::Str(s)) => self.s_str(si) == s,
            (CPat::Con(c), StaticScrut::Con0(d)) => c == *d,
            _ => false,
        }
    }
}

/// A re-derived static scrutinee (owned, so fresh facts can supply it).
enum StaticScrut {
    Int(i64),
    Char(char),
    Str(String),
    Con0(urk_syntax::Symbol),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile_program;
    use crate::tier2::{tier2_optimize_certified, GlobalFact};
    use urk_syntax::{desugar_program, parse_program, DataEnv};

    fn compile_src(src: &str) -> Code {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        compile_program(&prog.binds)
    }

    #[test]
    fn an_unmodified_compilation_validates() {
        let base = compile_src(
            "f x = x * x + 1\n\
             g n = if n == 0 then 0 else g (n - 1) + f n\n\
             main = let p = Pair (2 * 3) 4 in g 5",
        );
        let facts = Tier2Facts::empty();
        let (t2, cert) = tier2_optimize_certified(&base, &facts);
        let report = validate_tier2(&base, &t2, &cert, &facts).expect("validates");
        assert!(report.fused > 0, "{report:?}");
        assert!(report.app_g > 0, "{report:?}");
    }

    #[test]
    fn a_dropped_certificate_entry_is_caught() {
        let base = compile_src("f x = x * x + 1\nmain = f 3");
        let facts = Tier2Facts::empty();
        let (t2, mut cert) = tier2_optimize_certified(&base, &facts);
        assert!(!cert.entries.is_empty());
        cert.entries.pop();
        let err = validate_tier2(&base, &t2, &cert, &facts).expect_err("must refuse");
        assert!(
            err.message.contains("divergence") || err.message.contains("discharged"),
            "{err}"
        );
    }

    #[test]
    fn a_corrupted_constant_licence_is_caught_statically() {
        let base = compile_src("k = 42\nmain = k + 1");
        // The compiler is handed a *lying* fact (k = 7)…
        let lying = Tier2Facts {
            globals: vec![
                GlobalFact {
                    whnf_safe: true,
                    value: Some(FactVal::Int(7)),
                    demands: Vec::new(),
                },
                GlobalFact::default(),
            ],
        };
        let (t2, cert) = tier2_optimize_certified(&base, &lying);
        // …and the validator, re-deriving against honest facts, refuses
        // the image before anything runs.
        let honest = Tier2Facts {
            globals: vec![
                GlobalFact {
                    whnf_safe: true,
                    value: Some(FactVal::Int(42)),
                    demands: Vec::new(),
                },
                GlobalFact::default(),
            ],
        };
        let err = validate_tier2(&base, &t2, &cert, &honest).expect_err("must refuse");
        assert!(
            err.message
                .contains("disagrees with the freshly proven value"),
            "{err}"
        );
    }

    #[test]
    fn strictness_facts_license_a_call_speculation_site() {
        let base = compile_src("sq x = x * x\nmain = let y = sq 5 in y + 1");
        // Without the demand fact the call stays a thunk…
        let (plain, cert0) = tier2_optimize_certified(&base, &Tier2Facts::empty());
        let r0 = validate_tier2(&base, &plain, &cert0, &Tier2Facts::empty()).expect("validates");
        assert_eq!(r0.spec_call, 0);
        // …and with it the site speculates, and the validator re-proves
        // the licence from the fresh facts.
        let facts = Tier2Facts {
            globals: vec![
                GlobalFact {
                    whnf_safe: false,
                    value: None,
                    demands: vec![true],
                },
                GlobalFact::default(),
            ],
        };
        let (t2, cert) = tier2_optimize_certified(&base, &facts);
        let report = validate_tier2(&base, &t2, &cert, &facts).expect("validates");
        assert_eq!(report.spec_call, 1, "{report:?}");
        // A validator handed facts that *cannot* re-derive the licence
        // refuses the same image.
        let err = validate_tier2(&base, &t2, &cert, &Tier2Facts::empty()).expect_err("refuses");
        assert!(err.message.contains("SpecCall licence"), "{err}");
    }

    #[test]
    fn duplicating_spec_call_requires_a_leaf_argument() {
        // `sq (a + b)` duplicates a prim subtree under x * x: rejected by
        // the compiler (no Spec emitted), so the thunk survives.
        let base = compile_src("sq x = x * x\nmain a b = let y = sq (a + b) in y + 1");
        let facts = Tier2Facts {
            globals: vec![
                GlobalFact {
                    whnf_safe: false,
                    value: None,
                    demands: vec![true],
                },
                GlobalFact::default(),
            ],
        };
        let (t2, cert) = tier2_optimize_certified(&base, &facts);
        assert!(
            !cert
                .entries
                .iter()
                .any(|e| matches!(e.kind, CertKind::SpecCall { .. })),
            "duplicating a prim argument must not speculate"
        );
        validate_tier2(&base, &t2, &cert, &facts).expect("still validates");
        // A single-occurrence parameter accepts a prim-subtree argument.
        let base = compile_src("inc x = x + 1\nmain a b = let y = inc (a * b) in y");
        let (t2, cert) = tier2_optimize_certified(&base, &facts);
        let report = validate_tier2(&base, &t2, &cert, &facts).expect("validates");
        assert_eq!(report.spec_call, 1, "{report:?}");
    }
}
