//! The surface abstract syntax: what the parser produces and the desugarer
//! consumes.
//!
//! Surface syntax is deliberately Haskell-flavoured so the paper's examples
//! can be transcribed nearly verbatim (multi-equation definitions, nested
//! patterns, guards, `where`, `do`-notation, list and tuple sugar). The
//! [`crate::desugar`] pass lowers all of it onto the tiny core language of
//! the paper's Figure 1 ([`crate::core`]).
//!
//! # The arena
//!
//! A parse builds one [`Ast`]. Every expression, pattern, declaration,
//! `case` alternative, `do` statement and guard is a node in one vector,
//! addressed by a typed [`Id`]; a node's variable-length children (a
//! spine's arguments, a block's items) are a [`List`], a run of child ids
//! in a second vector. Nodes are plain `Copy` data, so building a node is
//! a push and dropping a tree frees two vectors, however deep the tree.
//! What owns heap data — decoded string literals, the types of signatures
//! and `data` declarations — lives in side tables of the same `Ast`.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;
use std::rc::Rc;

use crate::token::Pos;
use crate::Symbol;

/// The index of a node of kind `T` in an [`Ast`].
pub struct Id<T> {
    raw: u32,
    kind: PhantomData<fn() -> T>,
}

impl<T> Id<T> {
    pub(crate) fn new(raw: u32) -> Id<T> {
        Id {
            raw,
            kind: PhantomData,
        }
    }

    pub(crate) fn raw(self) -> u32 {
        self.raw
    }

    fn index(self) -> usize {
        self.raw as usize
    }
}

impl<T> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Id<T> {}

impl<T> PartialEq for Id<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<T> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.raw)
    }
}

/// The children of a node: a run of ids of kind `T` in an [`Ast`]'s list
/// table, read with [`Ast::items`].
pub struct List<T> {
    start: u32,
    len: u32,
    kind: PhantomData<fn() -> T>,
}

impl<T> List<T> {
    /// The list with no items.
    pub(crate) const EMPTY: List<T> = List {
        start: 0,
        len: 0,
        kind: PhantomData,
    };

    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The items from `from` on.
    pub(crate) fn skip(self, from: usize) -> List<T> {
        let from = from.min(self.len()) as u32;
        List {
            start: self.start + from,
            len: self.len - from,
            kind: PhantomData,
        }
    }

    /// The first `n` items.
    pub(crate) fn take(self, n: usize) -> List<T> {
        List {
            start: self.start,
            len: n.min(self.len()) as u32,
            kind: PhantomData,
        }
    }
}

impl<T> Clone for List<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for List<T> {}

impl<T> PartialEq for List<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> fmt::Debug for List<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#[{}..{}]", self.start, self.start + self.len)
    }
}

pub type ExprId = Id<SExpr>;
pub type PatId = Id<Pat>;
pub type DeclId = Id<Decl>;
/// A decoded string literal, shared with the core that desugaring makes.
pub type StrId = Id<Rc<str>>;

/// One parse's surface tree: its nodes, child lists and side tables.
#[derive(Clone, PartialEq, Debug)]
pub struct Ast {
    nodes: Vec<Node>,
    lists: Vec<u32>,
    pub(crate) strs: Vec<Rc<str>>,
    types: Vec<SType>,
    datas: Vec<DataDecl>,
}

/// A parsed expression: its tree and its root.
#[derive(Clone, PartialEq, Debug)]
pub struct SurfaceExpr {
    pub ast: Ast,
    pub root: ExprId,
}

/// A parsed module: its tree and its declarations in source order.
#[derive(Clone, PartialEq, Debug)]
pub struct SurfaceProgram {
    pub ast: Ast,
    pub decls: List<Decl>,
}

/// A node of any kind.
#[derive(Copy, Clone, PartialEq, Debug)]
pub(crate) enum Node {
    Expr(SExpr),
    Pat(Pat),
    Decl(Decl),
    Alt(CaseAlt),
    Stmt(Stmt),
    Guard(Guard),
}

macro_rules! node_kinds {
    ($($kind:ident($t:ty),)*) => {$(
        impl From<$t> for Node {
            fn from(x: $t) -> Node {
                Node::$kind(x)
            }
        }

        impl Index<Id<$t>> for Ast {
            type Output = $t;

            fn index(&self, id: Id<$t>) -> &$t {
                match &self.nodes[id.index()] {
                    Node::$kind(x) => x,
                    other => unreachable!("{id:?} names {other:?}"),
                }
            }
        }
    )*};
}

node_kinds! {
    Expr(SExpr),
    Pat(Pat),
    Decl(Decl),
    Alt(CaseAlt),
    Stmt(Stmt),
    Guard(Guard),
}

macro_rules! side_tables {
    ($($table:ident: $t:ty,)*) => {$(
        impl Index<Id<$t>> for Ast {
            type Output = $t;

            fn index(&self, id: Id<$t>) -> &$t {
                &self.$table[id.index()]
            }
        }
    )*};
}

side_tables! {
    strs: Rc<str>,
    types: SType,
    datas: DataDecl,
}

impl Ast {
    pub(crate) const fn new() -> Ast {
        Ast {
            nodes: Vec::new(),
            lists: Vec::new(),
            strs: Vec::new(),
            types: Vec::new(),
            datas: Vec::new(),
        }
    }

    /// The ids of `list`, in order.
    pub fn items<T>(
        &self,
        list: List<T>,
    ) -> impl DoubleEndedIterator<Item = Id<T>> + ExactSizeIterator + Clone + '_ {
        let start = list.start as usize;
        self.lists[start..start + list.len()]
            .iter()
            .map(|&raw| Id::new(raw))
    }

    /// The `i`th id of `list`.
    pub fn item<T>(&self, list: List<T>, i: usize) -> Id<T> {
        assert!(i < list.len(), "item {i} of a {}-item list", list.len());
        Id::new(self.lists[list.start as usize + i])
    }

    /// The number of nodes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn push<T>(&mut self, x: T) -> Id<T>
    where
        Node: From<T>,
    {
        self.nodes.push(Node::from(x));
        Id::new(u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 nodes"))
    }

    /// Overwrites node `id`, of the same kind.
    pub(crate) fn set<T>(&mut self, id: Id<T>, x: T)
    where
        Node: From<T>,
    {
        self.nodes[id.index()] = Node::from(x);
    }

    pub(crate) fn push_type(&mut self, ty: SType) -> Id<SType> {
        self.types.push(ty);
        Id::new(u32::try_from(self.types.len() - 1).expect("fewer than 2^32 types"))
    }

    pub(crate) fn push_data(&mut self, data: DataDecl) -> Id<DataDecl> {
        self.datas.push(data);
        Id::new(u32::try_from(self.datas.len() - 1).expect("fewer than 2^32 data declarations"))
    }

    /// Appends `ids` to the list table as one list.
    pub(crate) fn list<T>(&mut self, ids: &[u32]) -> List<T> {
        let start = u32::try_from(self.lists.len()).expect("fewer than 2^32 list items");
        let len = u32::try_from(ids.len()).expect("fewer than 2^32 list items");
        self.lists.extend_from_slice(ids);
        List {
            start,
            len,
            kind: PhantomData,
        }
    }

    /// Where the tree ends now, for [`Ast::truncate`].
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.nodes.len(), self.lists.len())
    }

    /// Forgets every node and list added since `mark`.
    pub(crate) fn truncate(&mut self, mark: (usize, usize)) {
        self.nodes.truncate(mark.0);
        self.lists.truncate(mark.1);
    }

    /// Moves the tree out into buffers sized to it, and leaves `self`
    /// empty for the next tree, as [`Ast::reset`] does.
    pub(crate) fn detach(&mut self, keep: usize) -> Ast {
        let ast = Ast {
            nodes: self.nodes.to_vec(),
            lists: self.lists.to_vec(),
            strs: std::mem::take(&mut self.strs),
            types: std::mem::take(&mut self.types),
            datas: std::mem::take(&mut self.datas),
        };
        self.reset(keep);
        ast
    }

    /// Empties the tree, keeping at most `keep` entries of capacity in the
    /// node and list buffers.
    pub(crate) fn reset(&mut self, keep: usize) {
        self.nodes.clear();
        self.nodes.shrink_to(keep);
        self.lists.clear();
        self.lists.shrink_to(keep);
        self.strs.clear();
        self.types.clear();
        self.datas.clear();
    }
}

/// A top-level (or `let`/`where`-local) declaration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Decl {
    /// `data T a b = C1 t ... | C2 ...`
    Data(Id<DataDecl>),
    /// `f :: type` — an optional signature, checked against inference.
    Sig(Symbol, Id<SType>),
    /// One equation of a function or value binding.
    Bind(Clause),
}

/// An algebraic data type declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct DataDecl {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    pub constructors: Vec<ConDecl>,
    pub pos: Pos,
}

/// One constructor of a data declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct ConDecl {
    pub name: Symbol,
    pub args: Vec<SType>,
}

/// A surface type expression.
#[derive(Clone, PartialEq, Debug)]
pub enum SType {
    /// A type variable, e.g. `a`.
    Var(Symbol),
    /// A (possibly applied) type constructor, e.g. `Int`, `List a`, `IO a`.
    Con(Symbol, Vec<SType>),
    /// `a -> b`
    Fun(Box<SType>, Box<SType>),
    /// `[a]` — sugar for `List a`.
    List(Box<SType>),
    /// `(a, b)` / `(a, b, c)` — sugar for `Pair`/`Triple`.
    Tuple(Vec<SType>),
}

/// One equation: `name p1 ... pn | guards = rhs where decls`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Clause {
    pub name: Symbol,
    pub pats: List<Pat>,
    pub rhs: Rhs,
    pub wheres: List<Decl>,
}

/// The right-hand side of an equation or `case` alternative.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Rhs {
    /// `= e`
    Plain(ExprId),
    /// `| g1 = e1 | g2 = e2 ...` — guards tried in order; if all fail the
    /// match continues with the next equation.
    Guarded(List<Guard>),
}

/// One guarded alternative `| cond = body` of a [`Rhs::Guarded`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Guard {
    pub cond: ExprId,
    pub body: ExprId,
}

/// A surface pattern.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Pat {
    Var(Symbol),
    Wild,
    Int(i64),
    Char(char),
    Str(StrId),
    /// Constructor pattern, e.g. `(Cons x xs)`, `True`.
    Con(Symbol, List<Pat>),
    /// `(p, q)` / `(p, q, r)`
    Tuple(List<Pat>),
    /// `[p1, p2, ...]`
    List(List<Pat>),
    /// `p : ps`
    ConsInfix(PatId, PatId),
}

/// A surface expression.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum SExpr {
    /// A lower-case identifier (variable).
    Var(Symbol),
    /// An upper-case identifier (data constructor, possibly unsaturated).
    Con(Symbol),
    Int(i64),
    Char(char),
    Str(StrId),
    /// An application spine `f a1 ... an` (at least one argument). The
    /// head is never itself a spine: `(f a) b` is the spine `f a b`.
    App(ExprId, List<SExpr>),
    /// `\p1 ... pn -> e`
    Lam(List<Pat>, ExprId),
    /// `let decls in e`
    Let(List<Decl>, ExprId),
    /// `case e of alts`
    Case(ExprId, List<CaseAlt>),
    /// `if c then t else e`
    If(ExprId, ExprId, ExprId),
    /// `do { stmts }`
    Do(List<Stmt>),
    /// Binary operator application `a ⊕ b` (also used for backtick
    /// application ``a `f` b``).
    BinOp(Symbol, ExprId, ExprId),
    /// Unary negation `-e`.
    Neg(ExprId),
    /// `(a, b)` / `(a, b, c)`
    Tuple(List<SExpr>),
    /// `[e1, e2, ...]`
    List(List<SExpr>),
    /// An operator used as a value, `(+)`.
    OpSection(Symbol),
    /// A left section `(e op)` — `\x -> e op x`.
    SectionL(ExprId, Symbol),
    /// A right section `(op e)` — `\x -> x op e`.
    SectionR(Symbol, ExprId),
}

/// One alternative of a surface `case`.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CaseAlt {
    pub pat: PatId,
    pub rhs: Rhs,
}

/// One statement of a `do` block.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `p <- e`
    Bind(PatId, ExprId),
    /// `let decls`
    Let(List<Decl>),
    /// A bare expression (the last statement, or sequenced with `>>`).
    Expr(ExprId),
}
