//! The whole-program abstract interpreter.
//!
//! [`analyze_program`] computes a [`Summary`] per top-level binding via a
//! Mycroft-style fixpoint: peel the manifest lambdas, start from an
//! optimistic summary, and re-analyse every body against the current
//! summaries until nothing changes. The summary carries two lattices
//! that need different treatment:
//!
//! * **Effects: divergence cannot be discovered optimistically** —
//!   `loop = loop` would happily stabilise at "pure". Every binding on a
//!   cycle of the syntactic consultation graph (an edge `g → h` whenever
//!   `h` occurs free in `g`'s right-hand side) is therefore *pinned* to
//!   the bottom effect (may raise anything, may diverge) before iteration
//!   starts. Recursion-free Core terms terminate, so the optimistic start
//!   is sound for everything that is left.
//! * **Demand is Mycroft's greatest fixpoint, cycles included** — every
//!   binding starts demanding every parameter and the rounds only clear
//!   bits. A call that never returns denotes `⊥`, which incorporates
//!   every exception set (§4.1), so the optimism is sound on cycles too.
//!   This is the one demand analysis: §3.4's call-by-value passes in
//!   `urk-transform` and tier 2's call speculation both read it.
//! * **Higher-order applications are opaque** — a lambda is WHNF-safe
//!   but *applying* it can raise, so any application whose head is
//!   neither a manifest lambda nor a known global summary falls to
//!   [`Effect::bottom`] (which also disposes of `(\x -> x x)(\x -> x x)`).
//!
//! Function parameters are analysed as [`Effect::opaque_arg`]: raising
//! nothing themselves, with the caller compensating through
//! [`Summary::uses`] — and opacity vetoing every value-shape refinement
//! (`unsafeIsException` folding, known-value `case` selection) that would
//! be wrong when the actual argument is exceptional.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use urk_denot::ExnSet;
use urk_syntax::core::{Alt, AltCon, CoreProgram, Expr, PrimOp};
use urk_syntax::{DataEnv, Exception, Symbol};

use crate::effect::{Effect, Val};

/// The per-function result of the fixpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of manifest lambdas peeled off the right-hand side.
    pub arity: usize,
    /// Effect of forcing the body to WHNF with every parameter bound to
    /// [`Effect::opaque_arg`].
    pub body_effect: Effect,
    /// May-use per parameter: `false` guarantees the argument is never
    /// forced (nor embedded in the result), so a saturated call only
    /// unions the effects of the `true` positions.
    pub uses: Vec<bool>,
    /// Must-demand per parameter: `true` guarantees that the argument's
    /// exception set is contained in the saturated call's own (set
    /// incorporation) — per §4 the licence for evaluating the argument
    /// eagerly without changing the denoted exception set. `false` is
    /// always sound.
    pub demands: Vec<bool>,
}

/// The result of [`analyze_program`].
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// One summary per top-level binding.
    pub summaries: HashMap<Symbol, Summary>,
    /// Bindings on a consultation-graph cycle, whose effects are pinned
    /// to bottom.
    pub recursive: HashSet<Symbol>,
    /// Fixpoint rounds actually run (diagnostics / benchmarking).
    pub rounds: usize,
}

impl Analysis {
    /// Effect of an expression (possibly open: unbound variables are
    /// [`Effect::bottom`], never an error) against the program summaries.
    pub fn effect_of(&self, e: &Expr, data: &DataEnv) -> Effect {
        let an = Analyzer {
            data,
            summaries: &self.summaries,
        };
        an.effect(e, &mut Vec::new())
    }

    /// The statically predicted exception set of `e`, divergence folded
    /// in as `All` (§4.1).
    pub fn predicted_set(&self, e: &Expr, data: &DataEnv) -> ExnSet {
        self.effect_of(e, data).predicted()
    }

    /// The summary for a top-level binding, if it has one.
    pub fn summary(&self, g: Symbol) -> Option<&Summary> {
        self.summaries.get(&g)
    }

    /// An expression-level [`Analyzer`] over these summaries, for
    /// consumers that track their own local scopes.
    pub fn analyzer<'a>(&'a self, data: &'a DataEnv) -> Analyzer<'a> {
        Analyzer {
            data,
            summaries: &self.summaries,
        }
    }

    /// Exports the summaries in *binding order* — the same program order
    /// `urk-machine`'s `compile_program` assigns global indices in — so a
    /// tier-2 optimiser can index facts by global number. Shadowed names
    /// repeat the surviving summary (their earlier entries are dead code
    /// in the compiled image anyway). Known constants are only exported
    /// for arity-0 bindings: a lambda's "value" is not a literal.
    pub fn binding_facts(&self, binds: &[(Symbol, Rc<Expr>)]) -> Vec<BindingFact> {
        binds
            .iter()
            .map(|(name, _)| {
                let Some(s) = self.summaries.get(name) else {
                    return BindingFact {
                        name: *name,
                        arity: 0,
                        whnf_safe: false,
                        must_raise: false,
                        val: None,
                        demands: Vec::new(),
                    };
                };
                BindingFact {
                    name: *name,
                    arity: s.arity,
                    whnf_safe: s.body_effect.whnf_safe(),
                    must_raise: s.body_effect.must_raise,
                    val: if s.arity == 0 {
                        s.body_effect.val.clone()
                    } else {
                        None
                    },
                    demands: s.demands.clone(),
                }
            })
            .collect()
    }
}

/// One binding's facts in positional (global-index) form, for consumers
/// that address code by index instead of name — see
/// [`Analysis::binding_facts`].
#[derive(Clone, Debug, PartialEq)]
pub struct BindingFact {
    /// The binding's name (diagnostics; position carries the identity).
    pub name: Symbol,
    /// Manifest arity of the right-hand side.
    pub arity: usize,
    /// Forcing the binding to WHNF provably cannot raise or diverge.
    pub whnf_safe: bool,
    /// Forcing the binding certainly raises (or diverges).
    pub must_raise: bool,
    /// Known WHNF constant, for arity-0 bindings only.
    pub val: Option<Val>,
    /// Must-demand per parameter (see [`Summary::demands`]); empty for
    /// bindings without a summary.
    pub demands: Vec<bool>,
}

/// Analyse a whole binding group.
pub fn analyze_program(prog: &CoreProgram, data: &DataEnv) -> Analysis {
    // Peel manifest lambdas: (name, params, body).
    let peeled: Vec<(Symbol, Vec<Symbol>, Rc<Expr>)> = prog
        .binds
        .iter()
        .map(|(name, rhs)| {
            let mut params = Vec::new();
            let mut body = rhs.clone();
            while let Expr::Lam(x, b) = &*body {
                params.push(*x);
                body = b.clone();
            }
            (*name, params, body)
        })
        .collect();

    let index: HashMap<Symbol, usize> = peeled
        .iter()
        .enumerate()
        .map(|(i, (n, _, _))| (*n, i))
        .collect();

    // Consultation graph: g → h for every binding h free in g's rhs.
    let succs: Vec<Vec<usize>> = prog
        .binds
        .iter()
        .map(|(_, rhs)| {
            rhs.free_vars()
                .iter()
                .filter_map(|v| index.get(v).copied())
                .collect()
        })
        .collect();

    // Pin everything on a cycle (self-reachable) to bottom.
    let mut recursive: HashSet<Symbol> = HashSet::new();
    for (i, (name, _, _)) in peeled.iter().enumerate() {
        if self_reachable(i, &succs) {
            recursive.insert(*name);
        }
    }

    let mut summaries: HashMap<Symbol, Summary> = HashMap::new();
    for (name, params, body) in &peeled {
        let pinned = recursive.contains(name);
        let fv = body.free_vars();
        summaries.insert(
            *name,
            Summary {
                arity: params.len(),
                body_effect: if pinned {
                    Effect::bottom()
                } else {
                    Effect::pure()
                },
                uses: params.iter().map(|p| pinned || fv.contains(p)).collect(),
                // Optimistic on every binding: the rounds only clear bits.
                demands: vec![true; params.len()],
            },
        );
    }

    // Rounds in program order, each binding re-analysed against the
    // summaries as updated so far. Effects of the acyclic remainder
    // converge within its depth; demand bits only fall, so they converge
    // within the total arity. One more round confirms stability.
    let total_arity: usize = peeled.iter().map(|(_, params, _)| params.len()).sum();
    let max_rounds = peeled.len().max(total_arity) + 1;
    let mut rounds = 0;
    let mut stable = false;
    while rounds < max_rounds && !stable {
        rounds += 1;
        stable = true;
        for (name, params, body) in &peeled {
            let pinned = recursive.contains(name);
            let an = Analyzer {
                data,
                summaries: &summaries,
            };
            let effect = (!pinned).then(|| {
                let mut env: Vec<(Symbol, Effect)> =
                    params.iter().map(|p| (*p, Effect::opaque_arg())).collect();
                an.effect(body, &mut env).normalize()
            });
            let dset = an.demanded(body, &mut Vec::new(), params);
            let demands: Vec<bool> = params.iter().map(|p| dset.contains(p)).collect();
            let slot = summaries.get_mut(name).expect("summary exists");
            if let Some(be) = effect {
                if slot.body_effect != be {
                    stable = false;
                    slot.body_effect = be;
                }
            }
            if slot.demands != demands {
                stable = false;
                slot.demands = demands;
            }
        }
    }
    if !stable {
        // Defensive fallback (unreachable within the cap): keep only
        // sound answers.
        for (name, params, _) in &peeled {
            recursive.insert(*name);
            let slot = summaries.get_mut(name).expect("summary exists");
            slot.body_effect = Effect::bottom();
            slot.uses = vec![true; params.len()];
            slot.demands = vec![false; params.len()];
        }
    }

    Analysis {
        summaries,
        recursive,
        rounds,
    }
}

/// Is node `i` on a cycle (reachable from itself)?
fn self_reachable(i: usize, succs: &[Vec<usize>]) -> bool {
    let mut seen = vec![false; succs.len()];
    let mut stack: Vec<usize> = succs[i].clone();
    while let Some(j) = stack.pop() {
        if j == i {
            return true;
        }
        if !seen[j] {
            seen[j] = true;
            stack.extend(succs[j].iter().copied());
        }
    }
    false
}

/// Local environments: a scoped stack, innermost binding last.
pub type LEnv = Vec<(Symbol, Effect)>;

/// The abstract evaluator proper, reusable by consumers (the
/// optimizer's licensed rewrites, the linter) that need effects for
/// subexpressions under their own scope discipline.
pub struct Analyzer<'a> {
    pub(crate) data: &'a DataEnv,
    pub(crate) summaries: &'a HashMap<Symbol, Summary>,
}

impl Analyzer<'_> {
    /// Effect of forcing `e` to WHNF under `env`.
    pub fn effect(&self, e: &Expr, env: &mut LEnv) -> Effect {
        match e {
            Expr::Var(x) => self.var_effect(*x, env),
            Expr::Int(n) => Effect::of_val(Val::Int(*n)),
            Expr::Char(c) => Effect::of_val(Val::Char(*c)),
            Expr::Str(s) => Effect::of_val(Val::Str(s.clone())),
            // Constructors are lazy and never propagate argument
            // exceptions (§4.2).
            Expr::Con(c, _) => Effect::of_val(Val::Con(*c)),
            // A lambda is a normal value: `\x.⊥ ≠ ⊥` (§4.2).
            Expr::Lam(_, _) => Effect::pure(),
            Expr::App(_, _) => self.app_effect(e, env),
            Expr::Let(x, r, b) => {
                let re = self.effect(r, env);
                env.push((*x, re));
                let out = self.effect(b, env);
                env.pop();
                out
            }
            Expr::LetRec(binds, b) => {
                for (x, _) in binds {
                    env.push((*x, Effect::bottom()));
                }
                let out = self.effect(b, env);
                env.truncate(env.len() - binds.len());
                out
            }
            Expr::Case(s, alts) => self.case_effect(s, alts, env),
            Expr::Prim(op, args) => self.prim_effect(*op, args, env),
            Expr::Raise(inner) => self.raise_effect(inner, env),
        }
    }

    fn var_effect(&self, x: Symbol, env: &LEnv) -> Effect {
        if let Some((_, e)) = env.iter().rev().find(|(y, _)| *y == x) {
            return e.clone();
        }
        match self.summaries.get(&x) {
            // A function-valued global is a manifest lambda: WHNF-safe.
            Some(s) if s.arity > 0 => Effect::pure(),
            // A CAF: forcing it runs the body.
            Some(s) => s.body_effect.clone(),
            // Open term / unknown global: anything can happen.
            None => Effect::bottom(),
        }
    }

    fn app_effect(&self, e: &Expr, env: &mut LEnv) -> Effect {
        // Flatten the application spine.
        let mut rev_args: Vec<&Rc<Expr>> = Vec::new();
        let mut head = e;
        while let Expr::App(f, a) = head {
            rev_args.push(a);
            head = f;
        }
        let args: Vec<&Rc<Expr>> = rev_args.into_iter().rev().collect();

        // Manifest lambda head: bind the arguments lazily, like `let`.
        // All argument effects are computed in the *outer* scope first.
        if matches!(head, Expr::Lam(_, _)) {
            let arg_effs: Vec<Effect> = args.iter().map(|a| self.effect(a, env)).collect();
            let mut cur = head;
            let mut bound = 0;
            while bound < arg_effs.len() {
                let Expr::Lam(x, b) = cur else { break };
                env.push((*x, arg_effs[bound].clone()));
                bound += 1;
                cur = b;
            }
            let mut out = if bound == arg_effs.len() && matches!(cur, Expr::Lam(_, _)) {
                Effect::pure() // partially applied: a function value remains
            } else {
                self.effect(cur, env)
            };
            for ae in &arg_effs[bound..] {
                out = app_unknown(&out, ae);
            }
            env.truncate(env.len() - bound);
            return out.normalize();
        }

        let Expr::Var(f) = head else {
            // Some other head shape (case/let/...): force it, then apply
            // the unknown result.
            let mut out = self.effect(head, env);
            for a in &args {
                let ae = self.effect(a, env);
                out = app_unknown(&out, &ae);
            }
            return out.normalize();
        };

        // Locally-bound heads shadow globals.
        if let Some((_, local)) = env.iter().rev().find(|(y, _)| *y == *f) {
            let mut out = local.clone();
            for a in &args {
                let ae = self.effect(a, env);
                out = app_unknown(&out, &ae);
            }
            return out.normalize();
        }

        let Some(sum) = self.summaries.get(f) else {
            return Effect::bottom(); // unknown function
        };
        if args.len() < sum.arity {
            return Effect::pure(); // partial application is a value
        }
        let arg_effs: Vec<Effect> = args.iter().map(|a| self.effect(a, env)).collect();
        let mut out = saturated_call(sum, &arg_effs[..sum.arity]);
        for ae in &arg_effs[sum.arity..] {
            out = app_unknown(&out, ae);
        }
        out.normalize()
    }

    fn case_effect(&self, s: &Rc<Expr>, alts: &[Alt], env: &mut LEnv) -> Effect {
        let se = self.effect(s, env);

        // Known scrutinee (whnf-safe by the `val` invariant): select the
        // matching alternative statically.
        if let Some(v) = se.val.clone() {
            for alt in alts {
                if alt_matches(&v, &alt.con) {
                    let bound = self.bind_alt(alt, &se, env);
                    let out = self.effect(&alt.rhs, env);
                    env.truncate(env.len() - bound);
                    return out;
                }
            }
            return pmf_effect();
        }

        // General form: the scrutinee's set unions with every
        // alternative's (§4.3's exception-finding mode explores them
        // all), plus a possible PatternMatchFail when coverage is not
        // guaranteed.
        let mut alt_effs: Vec<Effect> = Vec::with_capacity(alts.len());
        for alt in alts {
            let bound = self.bind_alt(alt, &se, env);
            alt_effs.push(self.effect(&alt.rhs, env));
            env.truncate(env.len() - bound);
        }
        let covered = self.covers(alts);
        let mut exns = se.exns.clone();
        let mut diverges = se.diverges;
        let mut opaque = se.opaque;
        for ae in &alt_effs {
            exns = exns.union(&ae.exns);
            diverges = diverges || ae.diverges;
            opaque = opaque || ae.opaque;
        }
        if !covered {
            exns.insert(Exception::PatternMatchFail("case".into()));
        }
        // Every path raises: the scrutinee certainly does, or every
        // alternative does (and a fall-through is a PatternMatchFail).
        let must_raise = se.must_raise || alt_effs.iter().all(|a| a.must_raise);
        let val = match alt_effs.split_first() {
            Some((first, rest))
                if covered && first.val.is_some() && rest.iter().all(|a| a.val == first.val) =>
            {
                first.val.clone()
            }
            _ => None,
        };
        Effect {
            exns,
            diverges,
            must_raise,
            opaque,
            val,
        }
        .normalize()
    }

    /// Push the alternative's binders; returns how many were pushed.
    ///
    /// Constructor fields are unknown (bottom). The default binder is the
    /// forced scrutinee on the normal path but `Bad {}` in
    /// exception-finding mode, so it is only the scrutinee's effect when
    /// that is provably safe — otherwise an opaque stand-in.
    fn bind_alt(&self, alt: &Alt, se: &Effect, env: &mut LEnv) -> usize {
        match &alt.con {
            AltCon::Con(_) => {
                for b in &alt.binders {
                    env.push((*b, Effect::bottom()));
                }
                alt.binders.len()
            }
            AltCon::Default => match alt.binders.first() {
                Some(b) => {
                    let eff = if se.whnf_safe() {
                        se.clone()
                    } else {
                        Effect::opaque_arg()
                    };
                    env.push((*b, eff));
                    1
                }
                None => 0,
            },
            _ => 0, // literal patterns bind nothing
        }
    }

    /// Do the alternatives provably cover every normal scrutinee? True
    /// with a default, or when the constructor patterns exhaust the
    /// constructor family. Literal families are never exhaustive.
    pub fn covers(&self, alts: &[Alt]) -> bool {
        if alts.iter().any(|a| a.con == AltCon::Default) {
            return true;
        }
        let mut cons: Vec<Symbol> = Vec::with_capacity(alts.len());
        for a in alts {
            match &a.con {
                AltCon::Con(c) => cons.push(*c),
                _ => return false,
            }
        }
        let Some(first) = cons.first() else {
            return false;
        };
        match self.data.siblings(*first) {
            Some(family) if !family.is_empty() => family.iter().all(|m| cons.contains(m)),
            _ => false,
        }
    }

    fn prim_effect(&self, op: PrimOp, args: &[Rc<Expr>], env: &mut LEnv) -> Effect {
        match op {
            PrimOp::Seq => {
                let a = self.effect(&args[0], env);
                if a.must_raise {
                    // The second operand is never reached.
                    return Effect { val: None, ..a };
                }
                let b = self.effect(&args[1], env);
                Effect {
                    exns: a.exns.union(&b.exns),
                    diverges: a.diverges || b.diverges,
                    must_raise: b.must_raise,
                    opaque: a.opaque || b.opaque,
                    val: if a.whnf_safe() { b.val.clone() } else { None },
                }
                .normalize()
            }
            // §5.4's pure mapException: identity on safe subjects; an
            // arbitrary exception transformer otherwise.
            PrimOp::MapExn => {
                let subj = self.effect(&args[1], env);
                if subj.whnf_safe() {
                    subj
                } else {
                    Effect::bottom()
                }
            }
            // §5.4: never raises and swallows the subject's exceptions;
            // only forcing a diverging subject shows through.
            PrimOp::UnsafeIsException => {
                let a = self.effect(&args[0], env);
                self.exn_observer(&a, "False", "True")
            }
            PrimOp::UnsafeGetException => {
                let a = self.effect(&args[0], env);
                self.exn_observer(&a, "OK", "Bad")
            }
            _ => self.strict_prim(op, args, env),
        }
    }

    /// Common shape of `unsafeIsException`/`unsafeGetException`: a total
    /// observer whose result constructor is known when the subject is
    /// provably safe (`on_ok`) or provably exceptional (`on_bad`).
    fn exn_observer(&self, a: &Effect, on_ok: &str, on_bad: &str) -> Effect {
        let val = if a.whnf_safe() {
            Some(Val::Con(Symbol::intern(on_ok)))
        } else if a.must_raise && !a.diverges {
            Some(Val::Con(Symbol::intern(on_bad)))
        } else {
            None
        };
        Effect {
            exns: ExnSet::empty(),
            diverges: a.diverges,
            must_raise: false,
            opaque: false,
            val,
        }
        .normalize()
    }

    /// The strict arithmetic / comparison / string primitives: all
    /// operands are forced, then the operator may add its own exceptions
    /// unless constant folding resolves it.
    fn strict_prim(&self, op: PrimOp, args: &[Rc<Expr>], env: &mut LEnv) -> Effect {
        use PrimOp::*;
        let effs: Vec<Effect> = args.iter().map(|a| self.effect(a, env)).collect();
        let mut exns = ExnSet::empty();
        let mut diverges = false;
        let mut must_raise = false;
        let mut opaque = false;
        for a in &effs {
            exns = exns.union(&a.exns);
            diverges = diverges || a.diverges;
            must_raise = must_raise || a.must_raise;
            opaque = opaque || a.opaque;
        }
        let int = |i: usize| match effs.get(i).and_then(|e| e.val.as_ref()) {
            Some(Val::Int(n)) => Some(*n),
            _ => None,
        };
        let chr = |i: usize| match effs.get(i).and_then(|e| e.val.as_ref()) {
            Some(Val::Char(c)) => Some(*c),
            _ => None,
        };
        let st = |i: usize| match effs.get(i).and_then(|e| e.val.as_ref()) {
            Some(Val::Str(s)) => Some(s.clone()),
            _ => None,
        };
        // A fully folded arithmetic operator: `Ok(n)` for an in-range
        // result, `Err(Overflow-or-DivideByZero)` for a certain raise,
        // and `None` when the operands are not known (the caller then
        // adds the operator's possible exceptions).
        let folded: Option<Result<Val, Exception>> = match op {
            Add | Sub | Mul => match (int(0), int(1)) {
                (Some(a), Some(b)) => {
                    let r = match op {
                        Add => a.checked_add(b),
                        Sub => a.checked_sub(b),
                        _ => a.checked_mul(b),
                    };
                    Some(r.map(Val::Int).ok_or(Exception::Overflow))
                }
                _ => None,
            },
            Neg => int(0).map(|a| a.checked_neg().map(Val::Int).ok_or(Exception::Overflow)),
            Div | Mod => match (int(0), int(1)) {
                (_, Some(0)) => Some(Err(Exception::DivideByZero)),
                (Some(n), Some(d)) => {
                    let r = if op == Div {
                        n.checked_div(d)
                    } else {
                        n.checked_rem(d)
                    };
                    Some(r.map(Val::Int).ok_or(Exception::Overflow))
                }
                _ => None,
            },
            IntEq | IntLt | IntLe | IntGt | IntGe => match (int(0), int(1)) {
                (Some(a), Some(b)) => Some(Ok(bool_val(match op {
                    IntEq => a == b,
                    IntLt => a < b,
                    IntLe => a <= b,
                    IntGt => a > b,
                    _ => a >= b,
                }))),
                _ => None,
            },
            CharEq => match (chr(0), chr(1)) {
                (Some(a), Some(b)) => Some(Ok(bool_val(a == b))),
                _ => None,
            },
            StrEq => match (st(0), st(1)) {
                (Some(a), Some(b)) => Some(Ok(bool_val(a == b))),
                _ => None,
            },
            Chr => int(0).map(|n| {
                u32::try_from(n)
                    .ok()
                    .and_then(char::from_u32)
                    .map(Val::Char)
                    .ok_or(Exception::Overflow)
            }),
            _ => None,
        };
        let mut val: Option<Val> = None;
        match folded {
            Some(Ok(v)) => val = Some(v),
            Some(Err(exc)) => {
                must_raise = true;
                exns.insert(exc);
            }
            // Unknown operands: the operator's own exceptions may show up.
            None => match op {
                Add | Sub | Mul | Neg => exns.insert(Exception::Overflow),
                Div | Mod => match int(1) {
                    // A known divisor other than 0 and -1 is total.
                    Some(d) if d != -1 => {}
                    Some(_) => exns.insert(Exception::Overflow),
                    None => {
                        exns.insert(Exception::DivideByZero);
                        exns.insert(Exception::Overflow);
                    }
                },
                Chr => exns.insert(Exception::Overflow),
                // Comparisons, Ord, ShowInt, StrAppend, StrLen, StrEq,
                // CharEq are total.
                _ => {}
            },
        }
        Effect {
            exns,
            diverges,
            must_raise,
            opaque,
            val,
        }
        .normalize()
    }

    fn raise_effect(&self, inner: &Rc<Expr>, env: &mut LEnv) -> Effect {
        let ie = self.effect(inner, env);
        if ie.must_raise {
            // `raise` of an exceptional value propagates it unchanged.
            return Effect { val: None, ..ie };
        }
        // Name the raised exception from the syntax where possible.
        if let Expr::Con(c, cargs) = &**inner {
            match cargs.first() {
                None => {
                    if let Some(exc) = Exception::from_constructor(*c, None) {
                        return raise_of(ExnSet::singleton(exc), false);
                    }
                }
                Some(p) => {
                    let pe = self.effect(p, env);
                    if let Some(Val::Str(s)) = &pe.val {
                        if let Some(exc) = Exception::from_constructor(*c, Some(s.as_ref())) {
                            return raise_of(ExnSet::singleton(exc), false);
                        }
                    }
                    // Unknown payload: any member is possible, and the
                    // payload itself is forced for the conversion.
                    return raise_of(ExnSet::bottom(), pe.diverges);
                }
            }
        }
        if let Some(Val::Con(tag)) = &ie.val {
            if let Some(exc) = Exception::from_constructor(*tag, None) {
                return raise_of(ExnSet::singleton(exc), false);
            }
        }
        raise_of(ExnSet::bottom(), ie.diverges)
    }

    /// Does forcing `body` to WHNF demand the free variable `x` — is
    /// `x`'s exception set contained in `body`'s? The licence for §3.4's
    /// let-to-case: `let x = r in body` may evaluate `r` first.
    pub fn demands(&self, x: Symbol, body: &Expr) -> bool {
        self.demanded(body, &mut Vec::new(), &[x]).contains(&x)
    }

    /// The parameters of `params` *certainly demanded* by forcing `e` to
    /// WHNF: each returned parameter's exception set is contained in
    /// `e`'s, whichever §3.5 order the machine runs in (set
    /// incorporation). `env` carries let-bound locals with the demand set
    /// of their right-hand sides (forcing the local forces the rhs); any
    /// binder shadows an outer parameter of the same name.
    ///
    /// Under-approximation is the soundness direction: every case that is
    /// not provable returns the empty set.
    pub(crate) fn demanded(
        &self,
        e: &Expr,
        env: &mut Vec<(Symbol, HashSet<Symbol>)>,
        params: &[Symbol],
    ) -> HashSet<Symbol> {
        match e {
            Expr::Var(x) => self.var_demanded(*x, env, params),
            // Values: nothing inside is forced.
            Expr::Int(_) | Expr::Char(_) | Expr::Str(_) | Expr::Con(_, _) | Expr::Lam(_, _) => {
                HashSet::new()
            }
            Expr::Let(x, r, b) => {
                let rd = self.demanded(r, env, params);
                env.push((*x, rd));
                let out = self.demanded(b, env, params);
                env.pop();
                out
            }
            Expr::LetRec(binds, b) => {
                for (x, _) in binds {
                    env.push((*x, HashSet::new()));
                }
                let out = self.demanded(b, env, params);
                env.truncate(env.len() - binds.len());
                out
            }
            // The scrutinee is always forced; beyond it, only what every
            // alternative agrees on. No alternatives at all raise
            // PatternMatchFail, which incorporates nothing.
            Expr::Case(s, alts) => {
                let mut out = self.demanded(s, env, params);
                let mut branches: Option<HashSet<Symbol>> = None;
                for alt in alts {
                    let pushed = alt.binders.len();
                    for b in &alt.binders {
                        env.push((*b, HashSet::new()));
                    }
                    let d = self.demanded(&alt.rhs, env, params);
                    env.truncate(env.len() - pushed);
                    branches = Some(match branches {
                        None => d,
                        Some(prev) => prev.intersection(&d).copied().collect(),
                    });
                }
                out.extend(branches.unwrap_or_default());
                out
            }
            Expr::Prim(op, args) => match op {
                // `seq (Bad s) b = Bad s` cuts the second operand's set
                // off: only the first is incorporated.
                PrimOp::Seq => self.demanded(&args[0], env, params),
                // mapException replaces the subject's set and the §5.4
                // observers consume it: nothing is incorporated.
                PrimOp::MapExn | PrimOp::UnsafeIsException | PrimOp::UnsafeGetException => {
                    HashSet::new()
                }
                // The strict primitives force every operand and union
                // their sets (§4.2).
                _ => {
                    let mut out = HashSet::new();
                    for a in args {
                        out.extend(self.demanded(a, env, params));
                    }
                    out
                }
            },
            // `raise` propagates its argument's set.
            Expr::Raise(inner) => self.demanded(inner, env, params),
            Expr::App(_, _) => {
                let mut rev_args: Vec<&Rc<Expr>> = Vec::new();
                let mut head = e;
                while let Expr::App(f, a) = head {
                    rev_args.push(a);
                    head = f;
                }
                let Expr::Var(f) = head else {
                    return HashSet::new();
                };
                // A local or parameter head is forced before it is
                // applied, and `Bad s` applied stays `Bad` (§4.3).
                if env.iter().any(|(y, _)| *y == *f) || params.contains(f) {
                    return self.var_demanded(*f, env, params);
                }
                // A saturated call to a known global propagates demand
                // through the callee's own demand vector.
                let Some(sum) = self.summaries.get(f) else {
                    return HashSet::new();
                };
                if sum.arity == 0 || rev_args.len() < sum.arity {
                    return HashSet::new(); // CAF head or partial application
                }
                // Oversaturation keeps exceptionality (§4.3: Bad(s) a =
                // Bad(s ∪ S(a))), so the saturated prefix's demand stands.
                let args: Vec<&Rc<Expr>> = rev_args.into_iter().rev().collect();
                let mut out = HashSet::new();
                for (i, a) in args.iter().take(sum.arity).enumerate() {
                    if sum.demands.get(i).copied().unwrap_or(false) {
                        out.extend(self.demanded(a, env, params));
                    }
                }
                out
            }
        }
    }

    fn var_demanded(
        &self,
        x: Symbol,
        env: &[(Symbol, HashSet<Symbol>)],
        params: &[Symbol],
    ) -> HashSet<Symbol> {
        if let Some((_, d)) = env.iter().rev().find(|(y, _)| *y == x) {
            return d.clone();
        }
        if params.contains(&x) {
            return HashSet::from([x]);
        }
        HashSet::new() // globals never carry a parameter
    }
}

fn raise_of(exns: ExnSet, diverges: bool) -> Effect {
    Effect {
        exns,
        diverges,
        must_raise: true,
        opaque: false,
        val: None,
    }
}

fn pmf_effect() -> Effect {
    raise_of(
        ExnSet::singleton(Exception::PatternMatchFail("case".into())),
        false,
    )
}

fn bool_val(b: bool) -> Val {
    Val::Con(Symbol::intern(if b { "True" } else { "False" }))
}

/// Matching a known value against a pattern is fully decidable.
fn alt_matches(v: &Val, con: &AltCon) -> bool {
    match (v, con) {
        (_, AltCon::Default) => true,
        (Val::Con(t), AltCon::Con(c)) => t == c,
        (Val::Int(n), AltCon::Int(m)) => n == m,
        (Val::Char(a), AltCon::Char(b)) => a == b,
        (Val::Str(a), AltCon::Str(b)) => **a == **b,
        _ => false,
    }
}

/// Applying something we cannot see into: `⊥` — unless the head is
/// certainly exceptional, in which case §4.3's application rule applies
/// (`Bad(s) a = Bad(s ∪ S(a))`).
fn app_unknown(f: &Effect, a: &Effect) -> Effect {
    if f.must_raise {
        Effect {
            exns: f.exns.union(&a.exns),
            diverges: f.diverges || a.diverges,
            must_raise: true,
            opaque: f.opaque || a.opaque,
            val: None,
        }
    } else {
        Effect::bottom()
    }
}

/// A saturated call through a summary: the body's effect, plus every
/// *used* argument's. `must_raise` and constants only survive when every
/// used argument is provably safe (an exceptional argument can change
/// which branch the body takes); opacity clears for the same reason when
/// every used argument is safe.
fn saturated_call(sum: &Summary, args: &[Effect]) -> Effect {
    let body = &sum.body_effect;
    let mut exns = body.exns.clone();
    let mut diverges = body.diverges;
    let mut arg_opaque = false;
    let mut all_used_safe = true;
    for (i, a) in args.iter().enumerate() {
        if sum.uses.get(i).copied().unwrap_or(true) {
            exns = exns.union(&a.exns);
            diverges = diverges || a.diverges;
            arg_opaque = arg_opaque || a.opaque;
            all_used_safe = all_used_safe && a.whnf_safe();
        }
    }
    Effect {
        exns,
        diverges,
        must_raise: body.must_raise && all_used_safe,
        opaque: (body.opaque && !all_used_safe) || arg_opaque,
        val: if all_used_safe {
            body.val.clone()
        } else {
            None
        },
    }
    .normalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::{desugar_program, parse_program};

    fn analyze(src: &str) -> Analysis {
        let mut data = DataEnv::new();
        let prog =
            desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
        analyze_program(&prog, &data)
    }

    fn sig(an: &Analysis, name: &str) -> Vec<bool> {
        an.summary(Symbol::intern(name))
            .expect("summary")
            .demands
            .clone()
    }

    #[test]
    fn arithmetic_demands_both_arguments() {
        let s = analyze("plus a b = a + b");
        assert_eq!(sig(&s, "plus"), vec![true, true]);
    }

    #[test]
    fn const_is_lazy_in_its_second_argument() {
        let s = analyze("konst a b = a\nignore a b = b + 0");
        // Returning `a` forces it to WHNF; `b` is never touched.
        assert_eq!(sig(&s, "konst"), vec![true, false]);
        assert_eq!(sig(&s, "ignore"), vec![false, true]);
    }

    #[test]
    fn returning_a_variable_forces_it() {
        // f x = x : forcing f's result to WHNF forces x.
        let s = analyze("f x = x");
        assert_eq!(sig(&s, "f"), vec![true]);
    }

    #[test]
    fn conditional_strictness_requires_all_branches() {
        let s = analyze(
            "both c x = if c then x + 1 else x - 1\n\
             onearm c x = if c then x + 1 else 0",
        );
        // Strict in c (scrutinised) and x (both branches force it).
        assert_eq!(sig(&s, "both"), vec![true, true]);
        // Strict in c only.
        assert_eq!(sig(&s, "onearm"), vec![true, false]);
    }

    #[test]
    fn constructors_are_lazy() {
        let s = analyze("box x = Just x\npair x y = (x, y)");
        assert_eq!(sig(&s, "box"), vec![false]);
        assert_eq!(sig(&s, "pair"), vec![false, false]);
    }

    #[test]
    fn recursive_accumulator_is_strict() {
        // sumTo is strict in both: the base case returns acc, the
        // recursive case feeds acc into +.
        let s = analyze("sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)");
        assert_eq!(sig(&s, "sumTo"), vec![true, true]);
    }

    #[test]
    fn mutual_recursion_converges() {
        let s = analyze(
            "isEven n = if n == 0 then True else isOdd (n - 1)\n\
             isOdd n = if n == 0 then False else isEven (n - 1)",
        );
        assert_eq!(sig(&s, "isEven"), vec![true]);
        assert_eq!(sig(&s, "isOdd"), vec![true]);
    }

    #[test]
    fn seq_demands_its_first_argument_only() {
        // `seq (Bad s) b = Bad s`: the second argument's exception set is
        // cut off when the first raises, so the analysis must not claim
        // incorporation through it. (Found by the optimizer property test
        // — see `tests/properties.rs::optimizer_pipeline_is_a_valid_rewrite`.)
        let s = analyze("strictSnd a b = seq a b");
        assert_eq!(sig(&s, "strictSnd"), vec![true, false]);
    }

    #[test]
    fn exception_consumers_do_not_propagate_demand() {
        // mapException replaces the set; unsafeIsException consumes it.
        let s = analyze(
            "remap e = mapException (\\x -> Overflow) e\n\
             probe e = unsafeIsException e\n\
             fetch e = unsafeGetException e",
        );
        assert_eq!(sig(&s, "remap"), vec![false]);
        assert_eq!(sig(&s, "probe"), vec![false]);
        assert_eq!(sig(&s, "fetch"), vec![false]);
    }

    #[test]
    fn seq_cutoff_regression_from_the_property_test() {
        // The distilled counterexample: the body demands m only under a
        // seq whose first argument always raises; forcing m early adds
        // exceptions the original never had.
        let s = analyze("f m = seq (raise Overflow) ((if 0 < m then 0 else m) + 0)");
        assert_eq!(sig(&s, "f"), vec![false]);
    }

    #[test]
    fn raise_propagates_demand() {
        let s = analyze("boom e = raise e\nquiet e = raise Overflow");
        assert_eq!(sig(&s, "boom"), vec![true]);
        assert_eq!(sig(&s, "quiet"), vec![false]);
    }

    #[test]
    fn lazy_list_producers_are_lazy() {
        let s = analyze("rep x = x : rep x");
        assert_eq!(sig(&s, "rep"), vec![false]);
    }

    #[test]
    fn the_demand_query_works_on_open_terms() {
        let data = DataEnv::new();
        let an = Analysis::default();
        let an = an.analyzer(&data);
        let core = |src: &str| {
            urk_syntax::desugar_expr(&urk_syntax::parse_expr_src(src).expect("parses"), &data)
                .expect("desugars")
        };
        let x = Symbol::intern("x");
        assert!(an.demands(x, &core("x + 1")));
        assert!(!an.demands(x, &core("Just x")));
    }
}
