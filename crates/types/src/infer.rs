//! Hindley–Milner type inference (Algorithm W with an in-place
//! substitution) over the core language.
//!
//! The paper's primitives get the types of §3.1/§3.5:
//!
//! ```text
//! raise        :: Exception -> a
//! getException :: a -> IO (ExVal a)
//! mapException :: (Exception -> Exception) -> a -> a
//! ```
//!
//! `IO`'s constructors are typed as primitives (`Bind`'s real data-type
//! would need an existential), matching §4.4's reading of `IO` as an
//! algebraic data type at the *semantic* level only.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use urk_syntax::ast::SType;
use urk_syntax::core::{Alt, AltCon, CoreProgram, Expr, PrimOp};
use urk_syntax::{ConInfo, DataEnv, Symbol};

use crate::ty::{Scheme, TyVar, Type};

/// A type error with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// The inference engine.
pub struct Inferencer<'a> {
    data: &'a DataEnv,
    /// Top-level schemes inferred before this run, looked up by name.
    /// Every one is closed, so none contributes to the environment's free
    /// variables and generalization never needs to walk them.
    globals: &'a HashMap<Symbol, Scheme>,
    /// Top-level schemes inferred by this run, as closed as `globals`.
    top: HashMap<Symbol, Scheme>,
    subst: HashMap<TyVar, Type>,
    next: u32,
    /// Lexically scoped term variables (locals only).
    scopes: Vec<(Symbol, Scheme)>,
    next_skolem: u32,
}

/// Infers a scheme for every top-level binding of `prog`, then checks user
/// signatures: [`infer_bindings`] started from an empty environment.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn infer_program(
    prog: &CoreProgram,
    data: &DataEnv,
) -> Result<HashMap<Symbol, Scheme>, TypeError> {
    infer_bindings(&prog.binds, &prog.sigs, data, &HashMap::new())
}

/// Infers schemes for top-level `binds` that may refer to each other and
/// to the already-inferred `globals` (which never refer back to them), then
/// checks `sigs` against the result. Returns the schemes of `binds` only.
///
/// The bindings are split into strongly connected binding groups
/// (dependency analysis, as in Haskell), so that a function is polymorphic
/// in the groups *after* its own: without this, monomorphic recursion
/// would force e.g. every use of `foldl` across the Prelude to one type.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn infer_bindings(
    binds: &[(Symbol, Rc<Expr>)],
    sigs: &[(Symbol, SType)],
    data: &DataEnv,
    globals: &HashMap<Symbol, Scheme>,
) -> Result<HashMap<Symbol, Scheme>, TypeError> {
    let mut inf = Inferencer::new(data, globals);
    for group in binding_groups(binds) {
        let group: Vec<(Symbol, Rc<Expr>)> = group.iter().map(|&i| binds[i].clone()).collect();
        let tys = inf.infer_letrec_group(&group)?;
        // No locals are in scope at the top level and every global is
        // closed, so the environment has no free variables.
        debug_assert!(inf.scopes.is_empty());
        for (name, ty) in tys {
            let scheme = inf.generalize_over(ty, &BTreeSet::new());
            inf.top.insert(name, scheme);
        }
    }
    for (name, sig) in sigs {
        let Some(inferred) = inf.top.get(name).or_else(|| globals.get(name)) else {
            return Err(TypeError(format!("signature for '{name}' lacks a binding")));
        };
        inf.check_signature(*name, inferred.clone(), sig)?;
    }
    Ok(inf.top)
}

/// Whether every type variable of `s` is quantified.
fn is_closed(s: &Scheme) -> bool {
    s.ty.free_vars().iter().all(|v| s.vars.contains(v))
}

/// Splits bindings into strongly connected components in dependency order
/// (Tarjan's algorithm, iterative).
fn binding_groups(binds: &[(Symbol, Rc<Expr>)]) -> Vec<Vec<usize>> {
    let index_of: HashMap<Symbol, usize> = binds
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i))
        .collect();
    let deps: Vec<Vec<usize>> = binds
        .iter()
        .map(|(_, rhs)| {
            rhs.free_vars()
                .into_iter()
                .filter_map(|v| index_of.get(&v).copied())
                .collect()
        })
        .collect();

    // Iterative Tarjan.
    let n = binds.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    enum Phase {
        Enter(usize),
        Resume(usize, usize),
    }

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut work = vec![Phase::Enter(root)];
        while let Some(phase) = work.pop() {
            match phase {
                Phase::Enter(v) => {
                    index[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Phase::Resume(v, 0));
                }
                Phase::Resume(v, mut i) => {
                    let mut descend = None;
                    while i < deps[v].len() {
                        let w = deps[v][i];
                        i += 1;
                        if index[w] == usize::MAX {
                            descend = Some(w);
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    match descend {
                        Some(w) => {
                            work.push(Phase::Resume(v, i));
                            work.push(Phase::Enter(w));
                        }
                        None => {
                            if low[v] == index[v] {
                                let mut scc = Vec::new();
                                while let Some(w) = stack.pop() {
                                    on_stack[w] = false;
                                    scc.push(w);
                                    if w == v {
                                        break;
                                    }
                                }
                                scc.sort_unstable();
                                sccs.push(scc);
                            }
                            if let Some(Phase::Resume(parent, _)) = work.last() {
                                let p = *parent;
                                low[p] = low[p].min(low[v]);
                            }
                        }
                    }
                }
            }
        }
    }
    sccs
}

/// Infers the type of a single expression against the closed top-level
/// schemes `globals`.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn infer_expr(
    e: &Expr,
    data: &DataEnv,
    globals: &HashMap<Symbol, Scheme>,
) -> Result<Type, TypeError> {
    let mut inf = Inferencer::new(data, globals);
    let t = inf.infer(e)?;
    Ok(inf.resolve_deep(&t))
}

impl<'a> Inferencer<'a> {
    pub fn new(data: &'a DataEnv, globals: &'a HashMap<Symbol, Scheme>) -> Inferencer<'a> {
        Inferencer {
            data,
            globals,
            top: HashMap::new(),
            subst: HashMap::new(),
            next: 0,
            scopes: Vec::new(),
            next_skolem: 0,
        }
    }

    fn fresh(&mut self) -> Type {
        let v = TyVar(self.next);
        self.next += 1;
        Type::Var(v)
    }

    // ------------------------------------------------------------------
    // Substitution and unification
    // ------------------------------------------------------------------

    /// Follows the substitution one level.
    fn resolve(&self, t: &Type) -> Type {
        let mut t = t.clone();
        while let Type::Var(v) = t {
            match self.subst.get(&v) {
                Some(next) => t = next.clone(),
                None => return Type::Var(v),
            }
        }
        t
    }

    /// Applies the substitution everywhere.
    fn resolve_deep(&self, t: &Type) -> Type {
        match self.resolve(t) {
            Type::Fun(a, b) => Type::fun(self.resolve_deep(&a), self.resolve_deep(&b)),
            Type::Con(c, args) => Type::Con(c, args.iter().map(|a| self.resolve_deep(a)).collect()),
            other => other,
        }
    }

    fn occurs(&self, v: TyVar, t: &Type) -> bool {
        match self.resolve(t) {
            Type::Var(w) => v == w,
            Type::Fun(a, b) => self.occurs(v, &a) || self.occurs(v, &b),
            Type::Con(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }

    pub fn unify(&mut self, t1: &Type, t2: &Type) -> Result<(), TypeError> {
        let a = self.resolve(t1);
        let b = self.resolve(t2);
        match (&a, &b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), _) => {
                if self.occurs(*v, &b) {
                    return Err(TypeError(format!(
                        "infinite type: cannot unify {} with {}",
                        self.resolve_deep(&a),
                        self.resolve_deep(&b)
                    )));
                }
                self.subst.insert(*v, b);
                Ok(())
            }
            (_, Type::Var(_)) => self.unify(&b, &a),
            (Type::Int, Type::Int) | (Type::Char, Type::Char) | (Type::Str, Type::Str) => Ok(()),
            (Type::Skolem(m), Type::Skolem(n)) if m == n => Ok(()),
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Type::Con(c1, args1), Type::Con(c2, args2))
                if c1 == c2 && args1.len() == args2.len() =>
            {
                for (x, y) in args1.iter().zip(args2) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            _ => Err(TypeError(format!(
                "cannot unify {} with {}",
                self.resolve_deep(&a),
                self.resolve_deep(&b)
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Environment and generalization
    // ------------------------------------------------------------------

    /// A fresh instance of the scheme bound to `name`: locals first
    /// (innermost wins), then the top level.
    fn instantiate_var(&mut self, name: Symbol) -> Option<Type> {
        let s = match self.scopes.iter().rev().find(|(n, _)| *n == name) {
            Some((_, s)) => s,
            None => {
                let s = self.top.get(&name).or_else(|| self.globals.get(&name))?;
                debug_assert!(
                    is_closed(s),
                    "the top-level scheme of '{name}' is not closed"
                );
                s
            }
        };
        Some(instantiate(s, &mut self.next))
    }

    /// The free variables of the local scopes; top-level schemes are
    /// closed and contribute none.
    fn env_free_vars(&self) -> BTreeSet<TyVar> {
        let mut out = BTreeSet::new();
        for (_, s) in &self.scopes {
            let resolved = self.resolve_deep(&s.ty);
            let mut fv = resolved.free_vars();
            for q in &s.vars {
                fv.remove(q);
            }
            out.extend(fv);
        }
        out
    }

    fn generalize(&self, ty: Type) -> Scheme {
        self.generalize_over(ty, &self.env_free_vars())
    }

    fn generalize_over(&self, ty: Type, env_fv: &BTreeSet<TyVar>) -> Scheme {
        let resolved = self.resolve_deep(&ty);
        let vars: Vec<TyVar> = resolved
            .free_vars()
            .into_iter()
            .filter(|v| !env_fv.contains(v))
            .collect();
        Scheme { vars, ty: resolved }
    }

    // ------------------------------------------------------------------
    // Built-in schemes
    // ------------------------------------------------------------------

    fn primop_scheme(&mut self, op: PrimOp) -> Type {
        use Type as T;
        let int2 = || T::fun(T::Int, T::fun(T::Int, T::Int));
        let cmp = || T::fun(T::Int, T::fun(T::Int, T::bool()));
        match op {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => int2(),
            PrimOp::Neg => T::fun(T::Int, T::Int),
            PrimOp::IntEq | PrimOp::IntLt | PrimOp::IntLe | PrimOp::IntGt | PrimOp::IntGe => cmp(),
            PrimOp::CharEq => T::fun(T::Char, T::fun(T::Char, T::bool())),
            PrimOp::Seq => {
                let a = self.fresh();
                let b = self.fresh();
                T::fun(a, T::fun(b.clone(), b))
            }
            PrimOp::ShowInt => T::fun(T::Int, T::Str),
            PrimOp::StrAppend => T::fun(T::Str, T::fun(T::Str, T::Str)),
            PrimOp::StrLen => T::fun(T::Str, T::Int),
            PrimOp::StrEq => T::fun(T::Str, T::fun(T::Str, T::bool())),
            PrimOp::Ord => T::fun(T::Char, T::Int),
            PrimOp::Chr => T::fun(T::Int, T::Char),
            PrimOp::MapExn => {
                let a = self.fresh();
                T::fun(T::fun(T::exception(), T::exception()), T::fun(a.clone(), a))
            }
            PrimOp::UnsafeIsException => {
                let a = self.fresh();
                T::fun(a, T::bool())
            }
            PrimOp::UnsafeGetException => {
                let a = self.fresh();
                T::fun(a.clone(), T::exval(a))
            }
        }
    }

    /// The result and field types for a data constructor, freshly
    /// instantiated.
    fn con_types(&mut self, info: &ConInfo) -> (Type, Vec<Type>) {
        let mapping: HashMap<Symbol, Type> =
            info.ty_params.iter().map(|p| (*p, self.fresh())).collect();
        let args = info
            .arg_types
            .iter()
            .map(|t| stype_to_type(t, &mapping))
            .collect();
        let result = Type::Con(
            info.ty_name,
            info.ty_params.iter().map(|p| mapping[p].clone()).collect(),
        );
        (result, args)
    }

    /// Types for the `IO` pseudo-constructors (§4.4).
    fn io_con_type(&mut self, name: &str, args: &[Type]) -> Result<Type, TypeError> {
        use Type as T;
        let expect = |n: usize| -> Result<(), TypeError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(TypeError(format!(
                    "IO constructor '{name}' applied to {} arguments, expects {n}",
                    args.len()
                )))
            }
        };
        match name {
            "Return" => {
                expect(1)?;
                Ok(T::io(args[0].clone()))
            }
            "Bind" => {
                expect(2)?;
                let a = self.fresh();
                let b = self.fresh();
                self.unify(&args[0], &T::io(a.clone()))?;
                self.unify(&args[1], &T::fun(a, T::io(b.clone())))?;
                Ok(T::io(b))
            }
            "GetChar" => {
                expect(0)?;
                Ok(T::io(T::Char))
            }
            "PutChar" => {
                expect(1)?;
                self.unify(&args[0], &T::Char)?;
                Ok(T::io(T::con0("Unit")))
            }
            "PutStr" => {
                expect(1)?;
                self.unify(&args[0], &T::Str)?;
                Ok(T::io(T::con0("Unit")))
            }
            "GetException" => {
                expect(1)?;
                Ok(T::io(T::exval(args[0].clone())))
            }
            "Fork" => {
                expect(1)?;
                let a = self.fresh();
                self.unify(&args[0], &T::io(a))?;
                Ok(T::io(T::Int)) // thread ids are Ints
            }
            "Yield" => {
                expect(0)?;
                Ok(T::io(T::con0("Unit")))
            }
            "NewMVar" => {
                expect(1)?;
                Ok(T::io(T::Con(Symbol::intern("MVar"), vec![args[0].clone()])))
            }
            "NewEmptyMVar" => {
                expect(0)?;
                let a = self.fresh();
                Ok(T::io(T::Con(Symbol::intern("MVar"), vec![a])))
            }
            "TakeMVar" => {
                expect(1)?;
                let a = self.fresh();
                self.unify(&args[0], &T::Con(Symbol::intern("MVar"), vec![a.clone()]))?;
                Ok(T::io(a))
            }
            "PutMVar" => {
                expect(2)?;
                let a = self.fresh();
                self.unify(&args[0], &T::Con(Symbol::intern("MVar"), vec![a.clone()]))?;
                self.unify(&args[1], &a)?;
                Ok(T::io(T::con0("Unit")))
            }
            "ThrowTo" => {
                expect(2)?;
                self.unify(&args[0], &T::Int)?;
                self.unify(&args[1], &T::exception())?;
                Ok(T::io(T::con0("Unit")))
            }
            _ => Err(TypeError(format!("unknown IO constructor '{name}'"))),
        }
    }

    // ------------------------------------------------------------------
    // Inference proper
    // ------------------------------------------------------------------

    pub fn infer(&mut self, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::Var(v) => self
                .instantiate_var(*v)
                .ok_or_else(|| TypeError(format!("unbound variable '{v}'"))),
            Expr::Int(_) => Ok(Type::Int),
            Expr::Char(_) => Ok(Type::Char),
            Expr::Str(_) => Ok(Type::Str),
            Expr::Con(c, args) => {
                let arg_tys = args
                    .iter()
                    .map(|a| self.infer(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let info = self
                    .data
                    .con(*c)
                    .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?
                    .clone();
                if info.io_primitive {
                    return self.io_con_type(&c.as_str(), &arg_tys);
                }
                let (result, fields) = self.con_types(&info);
                if fields.len() != arg_tys.len() {
                    return Err(TypeError(format!(
                        "constructor '{c}' applied to {} arguments, expects {}",
                        arg_tys.len(),
                        fields.len()
                    )));
                }
                for (got, want) in arg_tys.iter().zip(&fields) {
                    self.unify(got, want)?;
                }
                Ok(result)
            }
            Expr::App(f, x) => {
                let tf = self.infer(f)?;
                let tx = self.infer(x)?;
                let result = self.fresh();
                self.unify(&tf, &Type::fun(tx, result.clone()))?;
                Ok(result)
            }
            Expr::Lam(x, b) => {
                let targ = self.fresh();
                self.scopes.push((*x, Scheme::mono(targ.clone())));
                let tbody = self.infer(b);
                self.scopes.pop();
                Ok(Type::fun(targ, tbody?))
            }
            Expr::Let(x, rhs, body) => {
                let trhs = self.infer(rhs)?;
                let scheme = self.generalize(trhs);
                self.scopes.push((*x, scheme));
                let t = self.infer(body);
                self.scopes.pop();
                t
            }
            Expr::LetRec(binds, body) => {
                let tys = self.infer_letrec_group(binds)?;
                let n = self.scopes.len();
                let env_fv = self.env_free_vars();
                for (name, ty) in tys {
                    let scheme = self.generalize_over(ty, &env_fv);
                    self.scopes.push((name, scheme));
                }
                let t = self.infer(body);
                self.scopes.truncate(n);
                t
            }
            Expr::Case(scrut, alts) => self.infer_case(scrut, alts),
            Expr::Prim(op, args) => {
                let mut ty = self.primop_scheme(*op);
                for a in args {
                    let ta = self.infer(a)?;
                    let result = self.fresh();
                    self.unify(&ty, &Type::fun(ta, result.clone()))?;
                    ty = result;
                }
                Ok(ty)
            }
            Expr::Raise(x) => {
                let tx = self.infer(x)?;
                self.unify(&tx, &Type::exception())?;
                Ok(self.fresh()) // raise :: Exception -> a
            }
        }
    }

    /// Infers monotypes for one recursive binding group (monomorphic
    /// recursion, generalized by the caller).
    fn infer_letrec_group(
        &mut self,
        binds: &[(Symbol, Rc<Expr>)],
    ) -> Result<Vec<(Symbol, Type)>, TypeError> {
        let n = self.scopes.len();
        let placeholders: Vec<Type> = binds.iter().map(|_| self.fresh()).collect();
        for ((name, _), t) in binds.iter().zip(&placeholders) {
            self.scopes.push((*name, Scheme::mono(t.clone())));
        }
        let result = (|| {
            for ((_, rhs), t) in binds.iter().zip(&placeholders) {
                let got = self.infer(rhs)?;
                self.unify(&got, t)?;
            }
            Ok(())
        })();
        self.scopes.truncate(n);
        result?;
        Ok(binds
            .iter()
            .zip(placeholders)
            .map(|((name, _), t)| (*name, t))
            .collect())
    }

    fn infer_case(&mut self, scrut: &Expr, alts: &[Alt]) -> Result<Type, TypeError> {
        let tscrut = self.infer(scrut)?;
        let tresult = self.fresh();
        for alt in alts {
            match &alt.con {
                AltCon::Int(_) => self.unify(&tscrut, &Type::Int)?,
                AltCon::Char(_) => self.unify(&tscrut, &Type::Char)?,
                AltCon::Str(_) => self.unify(&tscrut, &Type::Str)?,
                AltCon::Default => {
                    // A default alternative may bind the scrutinee itself.
                    if let Some(b) = alt.binders.first() {
                        let t = tscrut.clone();
                        self.scopes.push((*b, Scheme::mono(t)));
                        let r = self.infer(&alt.rhs);
                        self.scopes.pop();
                        self.unify(&r?, &tresult)?;
                        continue;
                    }
                }
                AltCon::Con(c) => {
                    let info = self
                        .data
                        .con(*c)
                        .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?
                        .clone();
                    if info.io_primitive {
                        return Err(TypeError("IO values cannot be scrutinised by case".into()));
                    }
                    let (result, fields) = self.con_types(&info);
                    self.unify(&tscrut, &result)?;
                    if fields.len() != alt.binders.len() {
                        return Err(TypeError(format!(
                            "alternative for '{c}' binds {} variables, expects {}",
                            alt.binders.len(),
                            fields.len()
                        )));
                    }
                    let n = self.scopes.len();
                    for (b, t) in alt.binders.iter().zip(fields) {
                        self.scopes.push((*b, Scheme::mono(t)));
                    }
                    let t = self.infer(&alt.rhs);
                    self.scopes.truncate(n);
                    self.unify(&t?, &tresult)?;
                    continue;
                }
            }
            let t = self.infer(&alt.rhs)?;
            self.unify(&t, &tresult)?;
        }
        Ok(tresult)
    }

    // ------------------------------------------------------------------
    // Signature checking
    // ------------------------------------------------------------------

    /// Checks that the inferred scheme is at least as general as the
    /// declared signature: the declared type, with its variables made
    /// rigid (skolemized), must unify with a fresh instantiation of the
    /// inferred scheme.
    fn check_signature(
        &mut self,
        name: Symbol,
        inferred: Scheme,
        sig: &SType,
    ) -> Result<(), TypeError> {
        let mut mapping: HashMap<Symbol, Type> = HashMap::new();
        let declared = skolemize(sig, &mut mapping, &mut self.next_skolem);
        let got = instantiate(&inferred, &mut self.next);
        self.unify(&got, &declared).map_err(|e| {
            TypeError(format!(
                "signature for '{name}' does not match inferred type {}: {}",
                inferred.ty, e.0
            ))
        })
    }
}

/// A copy of `s.ty` with its quantified variables replaced by the fresh
/// variables `next..next + s.vars.len()`.
fn instantiate(s: &Scheme, next: &mut u32) -> Type {
    fn go(t: &Type, s: &Scheme, base: u32) -> Type {
        match t {
            Type::Var(v) => match s.vars.iter().position(|q| q == v) {
                Some(i) => Type::Var(TyVar(base + i as u32)),
                None => t.clone(),
            },
            Type::Fun(a, b) => Type::fun(go(a, s, base), go(b, s, base)),
            Type::Con(c, args) => Type::Con(*c, args.iter().map(|a| go(a, s, base)).collect()),
            other => other.clone(),
        }
    }
    let base = *next;
    *next += s.vars.len() as u32;
    go(&s.ty, s, base)
}

/// Converts a surface type, mapping type variables through `mapping`.
fn stype_to_type(t: &SType, mapping: &HashMap<Symbol, Type>) -> Type {
    match t {
        SType::Var(v) => mapping.get(v).cloned().unwrap_or(Type::con0("Unit")),
        SType::Fun(a, b) => Type::fun(stype_to_type(a, mapping), stype_to_type(b, mapping)),
        SType::List(t) => Type::list(stype_to_type(t, mapping)),
        SType::Tuple(items) => {
            let name = if items.len() == 2 { "Pair" } else { "Triple" };
            Type::Con(
                Symbol::intern(name),
                items.iter().map(|i| stype_to_type(i, mapping)).collect(),
            )
        }
        SType::Con(c, args) => match c.as_str().as_str() {
            "Int" if args.is_empty() => Type::Int,
            "Char" if args.is_empty() => Type::Char,
            "Str" if args.is_empty() => Type::Str,
            _ => Type::Con(*c, args.iter().map(|a| stype_to_type(a, mapping)).collect()),
        },
    }
}

/// Converts a signature, giving each type variable a rigid skolem.
fn skolemize(t: &SType, mapping: &mut HashMap<Symbol, Type>, next: &mut u32) -> Type {
    match t {
        SType::Var(v) => mapping
            .entry(*v)
            .or_insert_with(|| {
                let s = Type::Skolem(*next);
                *next += 1;
                s
            })
            .clone(),
        SType::Fun(a, b) => Type::fun(skolemize(a, mapping, next), skolemize(b, mapping, next)),
        SType::List(t) => Type::list(skolemize(t, mapping, next)),
        SType::Tuple(items) => {
            let name = if items.len() == 2 { "Pair" } else { "Triple" };
            Type::Con(
                Symbol::intern(name),
                items.iter().map(|i| skolemize(i, mapping, next)).collect(),
            )
        }
        SType::Con(c, args) => match c.as_str().as_str() {
            "Int" if args.is_empty() => Type::Int,
            "Char" if args.is_empty() => Type::Char,
            "Str" if args.is_empty() => Type::Str,
            _ => Type::Con(
                *c,
                args.iter().map(|a| skolemize(a, mapping, next)).collect(),
            ),
        },
    }
}
