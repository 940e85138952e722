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
//!
//! # Representation
//!
//! Types under inference live in an arena owned by the inferencer: a type
//! is a `u32` index into a `Vec` of nodes, and a constructor's arguments
//! are a slice of a second `Vec`. A unification variable is a node too;
//! binding it overwrites it with a link to its binding, so the arena is
//! also the union-find forest and "applying the substitution" is following
//! links. Unification and the occurs check walk indices and copy nothing.
//!
//! Generalization uses levels (Rémy): every variable records the `let`
//! nesting depth it was made at, binding a variable lowers the levels in
//! its binding to its own, and a `let` quantifies exactly the variables of
//! its right-hand side that are deeper than the `let` itself. Quantified
//! variables are marked [`GENERIC`] in place; instantiation copies only
//! the subtrees that contain one. Nothing walks the environment.
//!
//! The public [`Type`] and [`Scheme`] appear only at the boundary: a
//! global scheme is copied into the arena when a variable refers to it,
//! and the result of [`infer_expr`] and each top-level scheme inferred by
//! [`infer_bindings`] are copied out.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use urk_syntax::ast::SType;
use urk_syntax::core::{Alt, AltCon, CoreProgram, Expr, PrimOp};
use urk_syntax::{ConInfo, DataEnv, Known, Symbol};

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

/// A type under inference: an index into [`Inferencer::nodes`].
type Ty = u32;

/// The level of a variable a generalized type quantifies.
const GENERIC: u32 = u32::MAX;

/// The shared nodes of the primitive types, made by [`Inferencer::new`].
const INT: Ty = 0;
const CHAR: Ty = 1;
const STR: Ty = 2;

#[derive(Copy, Clone, Debug)]
enum Node {
    /// An unbound unification variable, made at `let` nesting `level`
    /// ([`GENERIC`] once a generalized type quantifies it).
    Var {
        level: u32,
    },
    /// A bound variable: a union-find link towards its binding.
    Link(Ty),
    /// A rigid constant, standing for a type variable of a signature.
    Skolem(u32),
    Int,
    Char,
    Str,
    Fun(Ty, Ty),
    /// `name` applied to `Inferencer::args[start..start + len]`.
    Con {
        name: Symbol,
        start: u32,
        len: u32,
    },
}

/// A term variable in scope.
struct Local {
    name: Symbol,
    ty: Ty,
    /// Whether `ty` quantifies any variable, so must be instantiated.
    poly: bool,
}

/// How [`Inferencer::stype`] reads the type variables of a surface type.
enum TyVars<'s> {
    /// A constructor's type parameters, bound to the fresh variables
    /// `first..first + params.len()`; any other variable is `Unit`.
    Params(&'s [Symbol], Ty),
    /// A signature's variables, each made a skolem on first sight.
    Skolems(Vec<(Symbol, Ty)>),
}

/// The inference engine: the arena and the scopes of one run.
struct Inferencer<'a> {
    data: &'a DataEnv,
    /// Top-level schemes inferred before this run, looked up by name.
    /// Every one is closed, so none mentions a variable of this run.
    globals: &'a HashMap<Symbol, Scheme>,
    /// The generalized types of the top-level bindings this run inferred.
    top: HashMap<Symbol, Ty>,
    nodes: Vec<Node>,
    args: Vec<Ty>,
    /// The `let` nesting depth new variables are made at.
    level: u32,
    /// Lexically scoped term variables (locals only), innermost last.
    scopes: Vec<Local>,
    /// The argument types of the constructor applications being inferred.
    stack: Vec<Ty>,
    /// The instantiation under way: each generic variable and its copy.
    copies: Vec<(Ty, Ty)>,
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
        let first = inf.deeper(|inf| inf.infer_letrec_group(&group))?;
        debug_assert!(inf.scopes.is_empty());
        for (i, (name, _)) in group.iter().enumerate() {
            let t = first + i as Ty;
            inf.generalize(t);
            inf.top.insert(*name, t);
        }
    }
    let schemes: HashMap<Symbol, Scheme> = std::mem::take(&mut inf.top)
        .into_iter()
        .map(|(n, t)| (n, inf.export_scheme(t)))
        .collect();
    for (name, sig) in sigs {
        let Some(inferred) = schemes.get(name).or_else(|| globals.get(name)) else {
            return Err(TypeError(format!("signature for '{name}' lacks a binding")));
        };
        inf.check_signature(*name, inferred, sig)?;
    }
    Ok(schemes)
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
    Ok(inf.export(t, &mut Vec::new()))
}

impl<'a> Inferencer<'a> {
    fn new(data: &'a DataEnv, globals: &'a HashMap<Symbol, Scheme>) -> Inferencer<'a> {
        let mut nodes = Vec::with_capacity(64);
        nodes.extend([Node::Int, Node::Char, Node::Str]);
        Inferencer {
            data,
            globals,
            top: HashMap::new(),
            nodes,
            args: Vec::with_capacity(32),
            level: 0,
            scopes: Vec::new(),
            stack: Vec::new(),
            copies: Vec::new(),
            next_skolem: 0,
        }
    }

    // ------------------------------------------------------------------
    // The arena
    // ------------------------------------------------------------------

    fn push(&mut self, node: Node) -> Ty {
        let t = Ty::try_from(self.nodes.len()).expect("the type arena has under 2^32 nodes");
        self.nodes.push(node);
        t
    }

    fn node(&self, t: Ty) -> Node {
        self.nodes[t as usize]
    }

    fn arg(&self, start: u32, i: u32) -> Ty {
        self.args[(start + i) as usize]
    }

    fn fresh(&mut self) -> Ty {
        self.push(Node::Var { level: self.level })
    }

    fn fun(&mut self, a: Ty, b: Ty) -> Ty {
        self.push(Node::Fun(a, b))
    }

    /// `a -> b -> r`.
    fn fun2(&mut self, a: Ty, b: Ty, r: Ty) -> Ty {
        let br = self.fun(b, r);
        self.fun(a, br)
    }

    /// Reserves `len` argument slots, to be filled before the `Con` node
    /// that owns them is pushed.
    fn reserve_args(&mut self, len: usize) -> u32 {
        let start = self.args.len();
        self.args.resize(start + len, INT);
        u32::try_from(start + len).expect("the type arena has under 2^32 arguments");
        start as u32
    }

    fn con(&mut self, name: impl Into<Symbol>, args: &[Ty]) -> Ty {
        let start = self.reserve_args(args.len());
        self.args[start as usize..].copy_from_slice(args);
        self.push(Node::Con {
            name: name.into(),
            start,
            len: args.len() as u32,
        })
    }

    fn io(&mut self, t: Ty) -> Ty {
        self.con(Known::Io, &[t])
    }

    /// Runs `f` one `let` level deeper: the variables it makes, and those
    /// it does not unify with anything shallower, are generalizable.
    fn deeper<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.level += 1;
        let out = f(self);
        self.level -= 1;
        out
    }

    // ------------------------------------------------------------------
    // Unification
    // ------------------------------------------------------------------

    /// The representative of `t`: `t` with its links followed, which also
    /// shortens the path to it.
    fn find(&mut self, t: Ty) -> Ty {
        let mut root = t;
        while let Node::Link(next) = self.node(root) {
            root = next;
        }
        let mut t = t;
        while let Node::Link(next) = self.node(t) {
            self.nodes[t as usize] = Node::Link(root);
            t = next;
        }
        root
    }

    fn unify(&mut self, t1: Ty, t2: Ty) -> Result<(), TypeError> {
        let a = self.find(t1);
        let b = self.find(t2);
        if a == b {
            return Ok(());
        }
        match (self.node(a), self.node(b)) {
            (Node::Var { .. }, _) => self.bind(a, b),
            (_, Node::Var { .. }) => self.bind(b, a),
            (Node::Int, Node::Int) | (Node::Char, Node::Char) | (Node::Str, Node::Str) => Ok(()),
            (Node::Skolem(m), Node::Skolem(n)) if m == n => Ok(()),
            (Node::Fun(a1, b1), Node::Fun(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (
                Node::Con {
                    name: c1,
                    start: s1,
                    len: n1,
                },
                Node::Con {
                    name: c2,
                    start: s2,
                    len: n2,
                },
            ) if c1 == c2 && n1 == n2 => {
                for i in 0..n1 {
                    self.unify(self.arg(s1, i), self.arg(s2, i))?;
                }
                Ok(())
            }
            _ => Err(TypeError(format!(
                "cannot unify {} with {}",
                self.render(a),
                self.render(b)
            ))),
        }
    }

    /// Binds the unbound variable `v` to `t`, unless `t` mentions `v`.
    fn bind(&mut self, v: Ty, t: Ty) -> Result<(), TypeError> {
        let Node::Var { level } = self.node(v) else {
            unreachable!("only an unbound variable is bound")
        };
        if self.occurs_lowering(v, level, t) {
            return Err(TypeError(format!(
                "infinite type: cannot unify {} with {}",
                self.render(v),
                self.render(t)
            )));
        }
        self.nodes[v as usize] = Node::Link(t);
        Ok(())
    }

    /// Whether `t` mentions the variable `v`. On the way, lowers every
    /// variable of `t` to at most `level`: once `v` is bound to `t`, they
    /// are as visible as `v` is.
    fn occurs_lowering(&mut self, v: Ty, level: u32, t: Ty) -> bool {
        let t = self.find(t);
        match self.node(t) {
            Node::Var { level: l } => {
                if l > level {
                    self.nodes[t as usize] = Node::Var { level };
                }
                t == v
            }
            Node::Fun(a, b) => {
                self.occurs_lowering(v, level, a) || self.occurs_lowering(v, level, b)
            }
            Node::Con { start, len, .. } => {
                (0..len).any(|i| self.occurs_lowering(v, level, self.arg(start, i)))
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Generalization and instantiation
    // ------------------------------------------------------------------

    /// Quantifies every variable of `t` made deeper than the current
    /// level. Returns whether `t` quantifies any variable.
    fn generalize(&mut self, t: Ty) -> bool {
        let t = self.find(t);
        match self.node(t) {
            Node::Var { level } if level > self.level => {
                self.nodes[t as usize] = Node::Var { level: GENERIC };
                true
            }
            Node::Fun(a, b) => {
                let a = self.generalize(a);
                self.generalize(b) || a
            }
            Node::Con { start, len, .. } => {
                let mut any = false;
                for i in 0..len {
                    any |= self.generalize(self.arg(start, i));
                }
                any
            }
            _ => false,
        }
    }

    /// A fresh instance of the generalized type `t`.
    fn instantiate(&mut self, t: Ty) -> Ty {
        self.copies.clear();
        self.copy_generic(t).unwrap_or(t)
    }

    /// `t` with each generic variable replaced by its copy (made on first
    /// sight), or `None` if `t` has no generic variable. Subtrees without
    /// one are shared, not copied.
    fn copy_generic(&mut self, t: Ty) -> Option<Ty> {
        let t = self.find(t);
        match self.node(t) {
            Node::Var { level: GENERIC } => {
                if let Some(&(_, copy)) = self.copies.iter().find(|(g, _)| *g == t) {
                    return Some(copy);
                }
                let copy = self.fresh();
                self.copies.push((t, copy));
                Some(copy)
            }
            Node::Fun(a, b) => {
                let (a2, b2) = (self.copy_generic(a), self.copy_generic(b));
                if a2.is_none() && b2.is_none() {
                    return None;
                }
                Some(self.fun(a2.unwrap_or(a), b2.unwrap_or(b)))
            }
            Node::Con { name, start, len } => {
                let new = self.reserve_args(len as usize);
                let mut copied = false;
                for i in 0..len {
                    let a = self.arg(start, i);
                    let copy = self.copy_generic(a);
                    copied |= copy.is_some();
                    self.args[(new + i) as usize] = copy.unwrap_or(a);
                }
                if !copied {
                    // Nothing below was copied, so nothing was pushed
                    // after the reserved slots.
                    self.args.truncate(new as usize);
                    return None;
                }
                Some(self.push(Node::Con {
                    name,
                    start: new,
                    len,
                }))
            }
            _ => None,
        }
    }

    /// A fresh instance of the type bound to `name`: locals first
    /// (innermost wins), then the top level.
    fn instantiate_var(&mut self, name: Symbol) -> Option<Ty> {
        if let Some(local) = self.scopes.iter().rev().find(|l| l.name == name) {
            let (ty, poly) = (local.ty, local.poly);
            return Some(if poly { self.instantiate(ty) } else { ty });
        }
        if let Some(&t) = self.top.get(&name) {
            return Some(self.instantiate(t));
        }
        let globals = self.globals;
        Some(self.import(globals.get(&name)?))
    }

    // ------------------------------------------------------------------
    // Crossing the boundary
    // ------------------------------------------------------------------

    /// A fresh instance of the closed public scheme `s`.
    fn import(&mut self, s: &Scheme) -> Ty {
        let first = self.nodes.len() as Ty;
        for _ in &s.vars {
            self.fresh();
        }
        self.import_type(&s.ty, &s.vars, first)
    }

    fn import_type(&mut self, t: &Type, vars: &[TyVar], first: Ty) -> Ty {
        match t {
            Type::Var(v) => {
                let i = vars.iter().position(|q| q == v);
                debug_assert!(i.is_some(), "a top-level scheme is not closed");
                i.map_or_else(|| self.fresh(), |i| first + i as Ty)
            }
            Type::Skolem(n) => self.push(Node::Skolem(*n)),
            Type::Int => INT,
            Type::Char => CHAR,
            Type::Str => STR,
            Type::Fun(a, b) => {
                let a = self.import_type(a, vars, first);
                let b = self.import_type(b, vars, first);
                self.fun(a, b)
            }
            Type::Con(name, args) => {
                let start = self.reserve_args(args.len());
                for (i, a) in args.iter().enumerate() {
                    let a = self.import_type(a, vars, first);
                    self.args[start as usize + i] = a;
                }
                self.push(Node::Con {
                    name: *name,
                    start,
                    len: args.len() as u32,
                })
            }
        }
    }

    /// The public type of `t`. Its variables are numbered in order of
    /// first appearance, continuing `order`.
    fn export(&mut self, t: Ty, order: &mut Vec<Ty>) -> Type {
        let t = self.find(t);
        match self.node(t) {
            Node::Var { .. } => {
                let i = order.iter().position(|&v| v == t).unwrap_or_else(|| {
                    order.push(t);
                    order.len() - 1
                });
                Type::Var(TyVar(i as u32))
            }
            Node::Link(_) => unreachable!("find returns a representative"),
            Node::Skolem(n) => Type::Skolem(n),
            Node::Int => Type::Int,
            Node::Char => Type::Char,
            Node::Str => Type::Str,
            Node::Fun(a, b) => {
                let a = self.export(a, order);
                Type::fun(a, self.export(b, order))
            }
            Node::Con { name, start, len } => Type::Con(
                name,
                (0..len)
                    .map(|i| self.export(self.arg(start, i), order))
                    .collect(),
            ),
        }
    }

    /// The closed public scheme of the generalized type `t`.
    fn export_scheme(&mut self, t: Ty) -> Scheme {
        let mut order = Vec::new();
        let ty = self.export(t, &mut order);
        Scheme {
            vars: (0..order.len() as u32).map(TyVar).collect(),
            ty,
        }
    }

    fn render(&mut self, t: Ty) -> String {
        self.export(t, &mut Vec::new()).to_string()
    }

    /// A surface type in the arena, its variables read through `vars`.
    fn stype(&mut self, t: &SType, vars: &mut TyVars<'_>) -> Ty {
        match t {
            SType::Var(v) => match vars {
                TyVars::Params(params, first) => {
                    let first = *first;
                    match params.iter().position(|p| p == v) {
                        Some(i) => first + i as Ty,
                        None => self.con(Known::Unit, &[]),
                    }
                }
                TyVars::Skolems(seen) => {
                    if let Some(&(_, s)) = seen.iter().find(|(n, _)| n == v) {
                        return s;
                    }
                    let s = self.push(Node::Skolem(self.next_skolem));
                    self.next_skolem += 1;
                    seen.push((*v, s));
                    s
                }
            },
            SType::Fun(a, b) => {
                let a = self.stype(a, vars);
                let b = self.stype(b, vars);
                self.fun(a, b)
            }
            SType::List(t) => {
                let t = self.stype(t, vars);
                self.con(Known::List, &[t])
            }
            SType::Tuple(items) => {
                let name = if items.len() == 2 {
                    Known::Pair
                } else {
                    Known::Triple
                };
                self.stype_con(name.symbol(), items, vars)
            }
            SType::Con(c, args) if args.is_empty() && Known::Int.is(*c) => INT,
            SType::Con(c, args) if args.is_empty() && Known::Char.is(*c) => CHAR,
            SType::Con(c, args) if args.is_empty() && Known::Str.is(*c) => STR,
            SType::Con(c, args) => self.stype_con(*c, args, vars),
        }
    }

    fn stype_con(&mut self, name: Symbol, args: &[SType], vars: &mut TyVars<'_>) -> Ty {
        let start = self.reserve_args(args.len());
        for (i, a) in args.iter().enumerate() {
            let a = self.stype(a, vars);
            self.args[start as usize + i] = a;
        }
        self.push(Node::Con {
            name,
            start,
            len: args.len() as u32,
        })
    }

    // ------------------------------------------------------------------
    // Built-in types
    // ------------------------------------------------------------------

    fn primop_type(&mut self, op: PrimOp) -> Ty {
        match op {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => {
                self.fun2(INT, INT, INT)
            }
            PrimOp::Neg => self.fun(INT, INT),
            PrimOp::IntEq | PrimOp::IntLt | PrimOp::IntLe | PrimOp::IntGt | PrimOp::IntGe => {
                let bool = self.con(Known::Bool, &[]);
                self.fun2(INT, INT, bool)
            }
            PrimOp::CharEq => {
                let bool = self.con(Known::Bool, &[]);
                self.fun2(CHAR, CHAR, bool)
            }
            PrimOp::Seq => {
                let a = self.fresh();
                let b = self.fresh();
                self.fun2(a, b, b)
            }
            PrimOp::ShowInt => self.fun(INT, STR),
            PrimOp::StrAppend => self.fun2(STR, STR, STR),
            PrimOp::StrLen => self.fun(STR, INT),
            PrimOp::StrEq => {
                let bool = self.con(Known::Bool, &[]);
                self.fun2(STR, STR, bool)
            }
            PrimOp::Ord => self.fun(CHAR, INT),
            PrimOp::Chr => self.fun(INT, CHAR),
            PrimOp::MapExn => {
                let a = self.fresh();
                let exn = self.con(Known::Exception, &[]);
                let handler = self.fun(exn, exn);
                self.fun2(handler, a, a)
            }
            PrimOp::UnsafeIsException => {
                let a = self.fresh();
                let bool = self.con(Known::Bool, &[]);
                self.fun(a, bool)
            }
            PrimOp::UnsafeGetException => {
                let a = self.fresh();
                let exval = self.con(Known::ExVal, &[a]);
                self.fun(a, exval)
            }
        }
    }

    /// The result type of a data constructor, freshly instantiated, and
    /// the start of its field types in `args`.
    fn con_types(&mut self, info: &ConInfo) -> (Ty, u32) {
        let first = self.nodes.len() as Ty;
        for _ in &info.ty_params {
            self.fresh();
        }
        let fields = self.reserve_args(info.arg_types.len());
        let mut vars = TyVars::Params(&info.ty_params, first);
        for (i, t) in info.arg_types.iter().enumerate() {
            let t = self.stype(t, &mut vars);
            self.args[fields as usize + i] = t;
        }
        let start = self.reserve_args(info.ty_params.len());
        for i in 0..info.ty_params.len() {
            self.args[start as usize + i] = first + i as Ty;
        }
        let result = self.push(Node::Con {
            name: info.ty_name,
            start,
            len: info.ty_params.len() as u32,
        });
        (result, fields)
    }

    /// The type of the `IO` pseudo-constructor `name` (§4.4) applied to
    /// the argument types `stack[base..]`.
    fn io_con_type(&mut self, name: Symbol, info: &ConInfo, base: usize) -> Result<Ty, TypeError> {
        use Known as K;
        const IO_CONSTRUCTORS: &[Known] = &[
            K::Return,
            K::Bind,
            K::GetChar,
            K::PutChar,
            K::PutStr,
            K::GetException,
            K::Fork,
            K::Yield,
            K::NewMVar,
            K::NewEmptyMVar,
            K::TakeMVar,
            K::PutMVar,
            K::ThrowTo,
        ];
        let Some(con) = Known::find(name, IO_CONSTRUCTORS) else {
            return Err(TypeError(format!("unknown IO constructor '{name}'")));
        };
        // `DataEnv` records each IO constructor's arity (its field types
        // are placeholders).
        let (arity, argc) = (info.arity(), self.stack.len() - base);
        if argc != arity {
            return Err(TypeError(format!(
                "IO constructor '{name}' applied to {argc} arguments, expects {arity}"
            )));
        }
        let arg = |inf: &Self, i: usize| inf.stack[base + i];
        let result = match con {
            K::Return => arg(self, 0),
            K::Bind => {
                let a = self.fresh();
                let b = self.fresh();
                let io_a = self.io(a);
                self.unify(arg(self, 0), io_a)?;
                let io_b = self.io(b);
                let k = self.fun(a, io_b);
                self.unify(arg(self, 1), k)?;
                b
            }
            K::GetChar => CHAR,
            K::PutChar => {
                self.unify(arg(self, 0), CHAR)?;
                self.con(K::Unit, &[])
            }
            K::PutStr => {
                self.unify(arg(self, 0), STR)?;
                self.con(K::Unit, &[])
            }
            K::GetException => self.con(K::ExVal, &[arg(self, 0)]),
            K::Fork => {
                let a = self.fresh();
                let io_a = self.io(a);
                self.unify(arg(self, 0), io_a)?;
                INT // thread ids are Ints
            }
            K::Yield => self.con(K::Unit, &[]),
            K::NewMVar => self.con(K::MVar, &[arg(self, 0)]),
            K::NewEmptyMVar => {
                let a = self.fresh();
                self.con(K::MVar, &[a])
            }
            K::TakeMVar => {
                let a = self.fresh();
                let mvar = self.con(K::MVar, &[a]);
                self.unify(arg(self, 0), mvar)?;
                a
            }
            K::PutMVar => {
                let a = self.fresh();
                let mvar = self.con(K::MVar, &[a]);
                self.unify(arg(self, 0), mvar)?;
                self.unify(arg(self, 1), a)?;
                self.con(K::Unit, &[])
            }
            K::ThrowTo => {
                self.unify(arg(self, 0), INT)?;
                let exn = self.con(K::Exception, &[]);
                self.unify(arg(self, 1), exn)?;
                self.con(K::Unit, &[])
            }
            _ => unreachable!("IO_CONSTRUCTORS lists only these"),
        };
        Ok(self.io(result))
    }

    // ------------------------------------------------------------------
    // Inference proper
    // ------------------------------------------------------------------

    fn infer(&mut self, e: &Expr) -> Result<Ty, TypeError> {
        match e {
            Expr::Var(v) => self
                .instantiate_var(*v)
                .ok_or_else(|| TypeError(format!("unbound variable '{v}'"))),
            Expr::Int(_) => Ok(INT),
            Expr::Char(_) => Ok(CHAR),
            Expr::Str(_) => Ok(STR),
            Expr::Con(c, args) => {
                let base = self.stack.len();
                for a in args {
                    let t = self.infer(a)?;
                    self.stack.push(t);
                }
                let data = self.data;
                let info = data
                    .con(*c)
                    .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?;
                let t = if info.io_primitive {
                    self.io_con_type(*c, info, base)?
                } else {
                    self.data_con_type(*c, info, base)?
                };
                self.stack.truncate(base);
                Ok(t)
            }
            Expr::App(f, x) => {
                let tf = self.infer(f)?;
                let tx = self.infer(x)?;
                let result = self.fresh();
                let want = self.fun(tx, result);
                self.unify(tf, want)?;
                Ok(result)
            }
            Expr::Lam(x, b) => {
                let targ = self.fresh();
                self.scopes.push(Local {
                    name: *x,
                    ty: targ,
                    poly: false,
                });
                let tbody = self.infer(b);
                self.scopes.pop();
                Ok(self.fun(targ, tbody?))
            }
            Expr::Let(x, rhs, body) => {
                let trhs = self.deeper(|inf| inf.infer(rhs))?;
                let poly = self.generalize(trhs);
                self.scopes.push(Local {
                    name: *x,
                    ty: trhs,
                    poly,
                });
                let t = self.infer(body);
                self.scopes.pop();
                t
            }
            Expr::LetRec(binds, body) => {
                let first = self.deeper(|inf| inf.infer_letrec_group(binds))?;
                let n = self.scopes.len();
                for (i, (name, _)) in binds.iter().enumerate() {
                    let ty = first + i as Ty;
                    let poly = self.generalize(ty);
                    self.scopes.push(Local {
                        name: *name,
                        ty,
                        poly,
                    });
                }
                let t = self.infer(body);
                self.scopes.truncate(n);
                t
            }
            Expr::Case(scrut, alts) => self.infer_case(scrut, alts),
            Expr::Prim(op, args) => {
                let mut ty = self.primop_type(*op);
                for a in args {
                    let ta = self.infer(a)?;
                    let result = self.fresh();
                    let want = self.fun(ta, result);
                    self.unify(ty, want)?;
                    ty = result;
                }
                Ok(ty)
            }
            Expr::Raise(x) => {
                let tx = self.infer(x)?;
                let exn = self.con(Known::Exception, &[]);
                self.unify(tx, exn)?;
                Ok(self.fresh()) // raise :: Exception -> a
            }
        }
    }

    /// The type of the data constructor `c` applied to the argument types
    /// `stack[base..]`.
    fn data_con_type(&mut self, c: Symbol, info: &ConInfo, base: usize) -> Result<Ty, TypeError> {
        let (result, fields) = self.con_types(info);
        let (arity, argc) = (info.arity(), self.stack.len() - base);
        if arity != argc {
            return Err(TypeError(format!(
                "constructor '{c}' applied to {argc} arguments, expects {arity}"
            )));
        }
        for i in 0..arity {
            self.unify(self.stack[base + i], self.arg(fields, i as u32))?;
        }
        Ok(result)
    }

    /// Infers monotypes for one recursive binding group (monomorphic
    /// recursion, generalized by the caller): the types are the fresh
    /// variables `first..first + binds.len()`, and this returns `first`.
    fn infer_letrec_group(&mut self, binds: &[(Symbol, Rc<Expr>)]) -> Result<Ty, TypeError> {
        let n = self.scopes.len();
        let first = self.nodes.len() as Ty;
        for (name, _) in binds {
            let ty = self.fresh();
            self.scopes.push(Local {
                name: *name,
                ty,
                poly: false,
            });
        }
        let result = (|| {
            for (i, (_, rhs)) in binds.iter().enumerate() {
                let got = self.infer(rhs)?;
                self.unify(got, first + i as Ty)?;
            }
            Ok(first)
        })();
        self.scopes.truncate(n);
        result
    }

    fn infer_case(&mut self, scrut: &Expr, alts: &[Alt]) -> Result<Ty, TypeError> {
        let tscrut = self.infer(scrut)?;
        let tresult = self.fresh();
        for alt in alts {
            let n = self.scopes.len();
            match &alt.con {
                AltCon::Int(_) => self.unify(tscrut, INT)?,
                AltCon::Char(_) => self.unify(tscrut, CHAR)?,
                AltCon::Str(_) => self.unify(tscrut, STR)?,
                AltCon::Default => {
                    // A default alternative may bind the scrutinee itself.
                    if let Some(b) = alt.binders.first() {
                        self.scopes.push(Local {
                            name: *b,
                            ty: tscrut,
                            poly: false,
                        });
                    }
                }
                AltCon::Con(c) => {
                    let data = self.data;
                    let info = data
                        .con(*c)
                        .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?;
                    if info.io_primitive {
                        return Err(TypeError("IO values cannot be scrutinised by case".into()));
                    }
                    let (result, fields) = self.con_types(info);
                    self.unify(tscrut, result)?;
                    if info.arity() != alt.binders.len() {
                        return Err(TypeError(format!(
                            "alternative for '{c}' binds {} variables, expects {}",
                            alt.binders.len(),
                            info.arity()
                        )));
                    }
                    for (i, b) in alt.binders.iter().enumerate() {
                        let ty = self.arg(fields, i as u32);
                        self.scopes.push(Local {
                            name: *b,
                            ty,
                            poly: false,
                        });
                    }
                }
            }
            let t = self.infer(&alt.rhs);
            self.scopes.truncate(n);
            self.unify(t?, tresult)?;
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
        inferred: &Scheme,
        sig: &SType,
    ) -> Result<(), TypeError> {
        let declared = self.stype(sig, &mut TyVars::Skolems(Vec::new()));
        let got = self.import(inferred);
        self.unify(got, declared).map_err(|e| {
            TypeError(format!(
                "signature for '{name}' does not match inferred type {}: {}",
                inferred.ty, e.0
            ))
        })
    }
}
