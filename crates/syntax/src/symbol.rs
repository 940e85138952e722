//! Interned identifiers.
//!
//! Every name in the compiler — variables, constructors, type names — is a
//! [`Symbol`]: a small copyable handle into a global interner. Symbol
//! comparison is an integer comparison, which keeps the evaluators fast, and
//! the interner can always recover the original spelling for diagnostics and
//! pretty-printing.
//!
//! The names the compiler itself dispatches on — the built-in constructors
//! and types, the operator spellings and the built-in functions — are
//! [`Known`] names: comparing a symbol with one is an integer comparison
//! and needs neither the interner's lock nor a copy of the spelling.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned string. Cheap to copy, compare and hash.
///
/// # Examples
///
/// ```
/// use urk_syntax::Symbol;
///
/// let a = Symbol::intern("zipWith");
/// let b = Symbol::intern("zipWith");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "zipWith");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
    table: HashMap<String, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            table: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical [`Symbol`].
    pub fn intern(name: &str) -> Symbol {
        let mut i = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = i.table.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.names.len())
            .ok()
            .filter(|&id| id != NOT_INTERNED)
            .expect("interner full");
        i.names.push(name.to_owned());
        i.table.insert(name.to_owned(), id);
        if let Some(k) = Known::from_spelling(name) {
            // Still under the lock: whoever later holds this symbol got it
            // through the lock, so sees the slot filled.
            KNOWN_SLOTS[k as usize].store(id, Ordering::Relaxed);
        }
        Symbol(id)
    }

    /// Returns the spelling of this symbol.
    ///
    /// The string is cloned out of the global interner; use this only on
    /// cold paths (errors, pretty-printing).
    pub fn as_str(self) -> String {
        let i = interner().lock().expect("symbol interner poisoned");
        i.names[self.0 as usize].clone()
    }

    /// Calls `f` with this symbol's spelling, borrowed from the interner
    /// rather than cloned. The interner's lock is held while `f` runs, so
    /// `f` must not intern or spell symbols itself.
    pub(crate) fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> R {
        let i = interner().lock().expect("symbol interner poisoned");
        f(&i.names[self.0 as usize])
    }

    /// A fresh symbol guaranteed not to clash with any source-level name.
    ///
    /// Fresh names contain a `$`, which the lexer rejects, so they can never
    /// be captured by user code.
    pub fn fresh(hint: &str) -> Symbol {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        Symbol::intern(&format!("${hint}{n}"))
    }

    /// True if this symbol was produced by [`Symbol::fresh`].
    pub fn is_generated(self) -> bool {
        self.with_str(|s| s.starts_with('$'))
    }

    /// The raw interner index, for embedders that pack symbols into tagged
    /// words. Only meaningful when round-tripped through
    /// [`Symbol::from_raw`] in the same process.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a symbol from [`Symbol::raw`]. The index must have come
    /// from `raw` in this process; anything else may panic on use.
    pub fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

/// The value of an empty [`KNOWN_SLOTS`] entry; [`Symbol::intern`] never
/// hands out this index.
const NOT_INTERNED: u32 = u32::MAX;

macro_rules! known_names {
    ($($name:ident = $spelling:literal,)*) => {
        /// A name the compiler dispatches on.
        ///
        /// Each is interned like any other name, when it is first spelled:
        /// by the source, by [`crate::DataEnv::new`], or by
        /// [`Known::symbol`]. [`Known::is`] never interns, so dispatching on
        /// a known name does not change the order in which names are first
        /// interned — an order the fuzzer's `BTreeSet<Symbol>` walks depend
        /// on.
        #[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
        pub enum Known {
            $($name,)*
        }

        impl Known {
            const SPELLINGS: &'static [&'static str] = &[$($spelling,)*];

            fn from_spelling(s: &str) -> Option<Known> {
                match s {
                    $($spelling => Some(Known::$name),)*
                    _ => None,
                }
            }
        }

        /// The interner index of every [`Known`] name interned so far,
        /// filled in by [`Symbol::intern`] when it first sees the spelling.
        /// `Relaxed` suffices: a slot publishes only an index, and reading
        /// the spelling behind an index takes the interner's lock, which
        /// orders it after the push that made the index.
        static KNOWN_SLOTS: [AtomicU32; Known::SPELLINGS.len()] =
            [const { AtomicU32::new(NOT_INTERNED) }; Known::SPELLINGS.len()];
    };
}

known_names! {
    // Built-in types. `Unit`, `Pair` and `Triple` name both a type and its
    // constructor.
    Int = "Int",
    Char = "Char",
    Str = "Str",
    Bool = "Bool",
    Unit = "Unit",
    List = "List",
    Pair = "Pair",
    Triple = "Triple",
    ExVal = "ExVal",
    Exception = "Exception",
    Io = "IO",
    MVar = "MVar",
    // Built-in constructors.
    True = "True",
    False = "False",
    Nil = "Nil",
    Cons = "Cons",
    // §3.1's exception constructors.
    DivideByZero = "DivideByZero",
    Overflow = "Overflow",
    UserError = "UserError",
    PatternMatchFail = "PatternMatchFail",
    NonTermination = "NonTermination",
    Interrupt = "Interrupt",
    Timeout = "Timeout",
    StackOverflow = "StackOverflow",
    HeapOverflow = "HeapOverflow",
    BlockedIndefinitely = "BlockedIndefinitely",
    // §4.4's IO constructors, with the concurrency extension's.
    Return = "Return",
    Bind = "Bind",
    GetChar = "GetChar",
    PutChar = "PutChar",
    PutStr = "PutStr",
    GetException = "GetException",
    Fork = "Fork",
    Yield = "Yield",
    NewMVar = "NewMVar",
    NewEmptyMVar = "NewEmptyMVar",
    TakeMVar = "TakeMVar",
    PutMVar = "PutMVar",
    ThrowTo = "ThrowTo",
    // Operator spellings.
    Plus = "+",
    Minus = "-",
    Times = "*",
    Divide = "/",
    Percent = "%",
    EqEq = "==",
    NotEq = "/=",
    Less = "<",
    LessEq = "<=",
    Greater = ">",
    GreaterEq = ">=",
    Colon = ":",
    PlusPlus = "++",
    AndAnd = "&&",
    OrOr = "||",
    Compose = ".",
    Dollar = "$",
    BindOp = ">>=",
    Then = ">>",
    DotDot = "..",
    // Built-in functions the desugarer turns into core forms.
    Raise = "raise",
    Seq = "seq",
    Negate = "negate",
    Ord = "ord",
    Chr = "chr",
    ShowInt = "showInt",
    StrAppend = "strAppend",
    StrLen = "strLen",
    StrEq = "strEq",
    EqChar = "eqChar",
    MapException = "mapException",
    UnsafeIsException = "unsafeIsException",
    UnsafeGetException = "unsafeGetException",
    ReturnFn = "return",
    GetCharFn = "getChar",
    PutCharFn = "putChar",
    PutStrFn = "putStr",
    GetExceptionFn = "getException",
    ForkIo = "forkIO",
    YieldFn = "yield",
    NewMVarFn = "newMVar",
    NewEmptyMVarFn = "newEmptyMVar",
    TakeMVarFn = "takeMVar",
    PutMVarFn = "putMVar",
    ThrowToFn = "throwTo",
    // Prelude functions the desugarer calls: `++` and `[a .. b]`.
    Append = "append",
    EnumFromTo = "enumFromTo",
}

impl Known {
    /// The name's spelling.
    pub(crate) fn spelling(self) -> &'static str {
        Known::SPELLINGS[self as usize]
    }

    /// The name's symbol, interning the spelling if no one has yet — just
    /// as `Symbol::intern(spelling)` at the same point would.
    pub fn symbol(self) -> Symbol {
        match KNOWN_SLOTS[self as usize].load(Ordering::Relaxed) {
            NOT_INTERNED => Symbol::intern(self.spelling()),
            id => Symbol(id),
        }
    }

    /// Whether `s` is this name. Never interns and never locks.
    pub fn is(self, s: Symbol) -> bool {
        KNOWN_SLOTS[self as usize].load(Ordering::Relaxed) == s.0
    }

    /// The first of `names` that `s` is, if any.
    pub fn find(s: Symbol, names: &[Known]) -> Option<Known> {
        names.iter().copied().find(|k| k.is(s))
    }
}

impl From<Known> for Symbol {
    fn from(k: Known) -> Symbol {
        k.symbol()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        let c = Symbol::intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn round_trips_spelling() {
        let s = Symbol::intern("getException");
        assert_eq!(s.as_str(), "getException");
        assert_eq!(s.to_string(), "getException");
    }

    #[test]
    fn fresh_symbols_are_distinct_and_generated() {
        let a = Symbol::fresh("x");
        let b = Symbol::fresh("x");
        assert_ne!(a, b);
        assert!(a.is_generated());
        assert!(!Symbol::intern("x").is_generated());
    }

    #[test]
    fn known_names_agree_with_interning() {
        assert_eq!(Known::Cons.symbol(), Symbol::intern("Cons"));
        assert!(Known::BindOp.is(Symbol::intern(">>=")));
        assert!(!Known::Then.is(Symbol::intern(">>=")));
        assert_eq!(Known::Io.spelling(), "IO");
        assert_eq!(
            Known::find(Symbol::intern("seq"), &[Known::Raise, Known::Seq]),
            Some(Known::Seq)
        );
    }

    #[test]
    fn with_str_borrows_the_spelling() {
        let s = Symbol::intern("borrowed-spelling");
        assert_eq!(s.with_str(str::len), "borrowed-spelling".len());
    }

    #[test]
    fn symbols_order_consistently_with_identity() {
        let a = Symbol::intern("alpha-order-test-1");
        let b = Symbol::intern("alpha-order-test-2");
        assert_eq!(a.cmp(&b), a.cmp(&b));
        assert_eq!(a == b, a.cmp(&b).is_eq());
    }
}
