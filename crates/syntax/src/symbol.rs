//! Interned and generated identifiers.
//!
//! Every name in the compiler — variables, constructors, type names — is a
//! [`Symbol`]: a small copyable `u32`. Symbol comparison is an integer
//! comparison, which keeps the evaluators fast, and every symbol can
//! recover its spelling for diagnostics and pretty-printing.
//!
//! A symbol is one of two kinds, told apart by its high bit:
//!
//! * an **interned** symbol indexes a process-global interner, which
//!   keeps the spellings of source names (and the compiler's own fixed
//!   names) for the life of the process;
//! * a **generated** symbol ([`Symbol::fresh`]) carries its own spelling
//!   in its bits: a [`Hint`] from a closed table and a serial from one
//!   global counter. Desugaring, the match compiler and the optimizer's
//!   rewrites mint these per query, so they never touch the interner:
//!   minting, spelling and [`Symbol::is_generated`] take no lock and grow
//!   no table, and a long-running server's interner stays the size of the
//!   names its sources spelled.
//!
//! The names the compiler itself dispatches on — the built-in constructors
//! and types, the operator spellings and the built-in functions — are
//! [`Known`] names: comparing a symbol with one is an integer comparison
//! and needs neither the interner's lock nor a copy of the spelling.
//!
//! # Serial wrap-around
//!
//! A generated symbol's serial has 27 bits, so the counter wraps after
//! 2^27 names, and a name minted after the wrap is bit-identical to one
//! minted 2^27 names earlier with the same hint. That cannot alias two
//! live binders of one query. A generated name is bound and used only
//! inside the term whose desugaring or rewrite minted it, and one pass
//! over one term mints far fewer than 2^27 names. Queries reach the
//! program only through user-spelled (interned) globals, so a query's
//! generated names never meet the Prelude's or the program's, however
//! long the process runs. Capture-avoiding substitution
//! ([`crate::core::Expr::subst`]) also renames an inner binder that
//! shares a fresh name, so a clash with a binder inside the renamed body
//! is harmless. The one place where names minted at different times share
//! a term is the optimizer rewriting a program loaded earlier. A clash
//! there needs a same-hint name minted exactly a multiple of 2^27 names
//! before the rewrite, free under the rewrite's new binder.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// An interned or generated name. Cheap to copy, compare and hash.
///
/// # Examples
///
/// ```
/// use urk_syntax::{Hint, Symbol};
///
/// let a = Symbol::intern("zipWith");
/// let b = Symbol::intern("zipWith");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "zipWith");
///
/// let g = Symbol::fresh(Hint::X);
/// assert!(g.is_generated() && g.to_string().starts_with("$x"));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// The bit that marks a generated symbol. Interned indices stay below it.
const GENERATED: u32 = 1 << 31;
/// A generated symbol's hint index sits in the four bits below the tag.
const HINT_SHIFT: u32 = 27;
const HINT_MASK: u32 = 0b1111;
/// The low 27 bits of a generated symbol: its serial.
const SERIAL_MASK: u32 = (1 << HINT_SHIFT) - 1;

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

/// The interner, locked for a run of interning: the lexer interns every
/// name of one source under a single lock. While a `Names` is alive this
/// thread must not intern or spell symbols any other way.
pub(crate) struct Names(MutexGuard<'static, Interner>);

impl Names {
    pub(crate) fn lock() -> Names {
        Names(interner().lock().expect("symbol interner poisoned"))
    }

    /// Interns `name`, returning its canonical [`Symbol`].
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        let i = &mut *self.0;
        if let Some(&id) = i.table.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.names.len())
            .ok()
            .filter(|&id| id < GENERATED)
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
}

impl Symbol {
    /// Interns `name`, returning its canonical [`Symbol`].
    pub fn intern(name: &str) -> Symbol {
        Names::lock().intern(name)
    }

    /// How many names the interner holds: the source and built-in names
    /// spelled so far. Generated symbols are not among them.
    pub fn interned_len() -> usize {
        interner()
            .lock()
            .expect("symbol interner poisoned")
            .names
            .len()
    }

    /// Returns the spelling of this symbol.
    ///
    /// An interned spelling is cloned out of the global interner; use this
    /// only on cold paths (errors, pretty-printing).
    pub fn as_str(self) -> String {
        self.with_str(str::to_owned)
    }

    /// Calls `f` with this symbol's spelling, borrowed rather than cloned.
    /// For an interned symbol the interner's lock is held while `f` runs,
    /// so `f` must not intern or spell symbols itself; a generated
    /// symbol's spelling is built on the stack.
    pub(crate) fn with_str<R>(self, f: impl FnOnce(&str) -> R) -> R {
        if self.is_generated() {
            return f(GeneratedSpelling::of(self).as_str());
        }
        let i = interner().lock().expect("symbol interner poisoned");
        f(&i.names[self.0 as usize])
    }

    /// A fresh symbol guaranteed not to clash with any source-level name.
    ///
    /// The symbol is spelled `$` + `hint` + serial. Fresh names contain a
    /// `$`, which the lexer rejects, so they can never be captured by user
    /// code. Minting one takes no lock, allocates nothing and adds nothing
    /// to the interner (see the module docs on serial wrap-around).
    pub fn fresh(hint: Hint) -> Symbol {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let serial = SERIAL.fetch_add(1, Ordering::Relaxed) & SERIAL_MASK;
        Symbol(GENERATED | (hint as u32) << HINT_SHIFT | serial)
    }

    /// True if this symbol was produced by [`Symbol::fresh`].
    pub fn is_generated(self) -> bool {
        self.0 & GENERATED != 0
    }

    /// The raw bits, for embedders that pack symbols into tagged words.
    /// Only meaningful when round-tripped through [`Symbol::from_raw`] in
    /// the same process.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a symbol from [`Symbol::raw`]. The bits must have come
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
        if self.is_generated() {
            f.write_str(GeneratedSpelling::of(*self).as_str())
        } else {
            f.write_str(&self.as_str())
        }
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

/// The spelling hint a generated symbol carries: a closed table of the
/// compiler's own hints, so that the hint fits in the symbol's bits.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Hint {
    A,
    C,
    E,
    Ex,
    Exn,
    L,
    M,
    P,
    R,
    /// A capture-avoiding rename (only [`crate::core::Expr::subst`]).
    Rn,
    S,
    Str,
    U,
    V,
    X,
}

impl Hint {
    const SPELLINGS: [&'static str; 15] = [
        "a", "c", "e", "ex", "exn", "l", "m", "p", "r", "rn", "s", "str", "u", "v", "x",
    ];
}

// The all-ones hint index stays unused, so no generated symbol is
// `NOT_INTERNED` and `Known::is` never matches one.
const _: () = assert!(Hint::SPELLINGS.len() <= HINT_MASK as usize);

/// A generated symbol's spelling, built on the stack: `$`, a hint of at
/// most three bytes and at most nine digits.
struct GeneratedSpelling {
    buf: [u8; 16],
    len: usize,
}

impl GeneratedSpelling {
    fn of(s: Symbol) -> GeneratedSpelling {
        use std::io::Write;
        let hint = Hint::SPELLINGS[(s.0 >> HINT_SHIFT & HINT_MASK) as usize];
        let mut buf = [0u8; 16];
        let mut rest = &mut buf[..];
        write!(rest, "${hint}{}", s.0 & SERIAL_MASK).expect("a generated spelling fits");
        let len = 16 - rest.len();
        GeneratedSpelling { buf, len }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("a generated spelling is ASCII")
    }
}

/// The value of an empty [`KNOWN_SLOTS`] entry. No symbol has these bits:
/// the tag bit is set, so [`Symbol::intern`] never hands them out, and the
/// hint index is all ones, which [`Symbol::fresh`] never uses.
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
    // §3.1's `ExVal` constructors.
    Ok = "OK",
    Bad = "Bad",
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
    // The states of an `MVar` cell in the machine's IO runner.
    MVarFull = "MVarFull",
    MVarEmpty = "MVarEmpty",
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
        let a = Symbol::fresh(Hint::X);
        let b = Symbol::fresh(Hint::X);
        assert_ne!(a, b);
        assert!(a.is_generated());
        assert!(!Symbol::intern("x").is_generated());
    }

    #[test]
    fn fresh_symbols_spell_hint_and_serial_without_interning() {
        let a = Symbol::fresh(Hint::Exn);
        let serial = a.0 & SERIAL_MASK;
        assert_eq!(a.to_string(), format!("$exn{serial}"));
        assert_eq!(a.as_str(), a.to_string());
        assert_eq!(a.with_str(str::len), a.to_string().len());
        assert_eq!(format!("{a:?}"), format!("Symbol(\"$exn{serial}\")"));
        let widest = Symbol(GENERATED | (Hint::Str as u32) << HINT_SHIFT | SERIAL_MASK);
        assert_eq!(widest.to_string(), "$str134217727");
        let zero = Symbol(GENERATED | (Hint::A as u32) << HINT_SHIFT);
        assert_eq!(zero.to_string(), "$a0");
    }

    #[test]
    fn no_known_name_matches_a_generated_symbol() {
        // Even a slot no one has interned yet (it holds `NOT_INTERNED`).
        for hint in [Hint::A, Hint::X] {
            let g = Symbol(GENERATED | (hint as u32) << HINT_SHIFT | SERIAL_MASK);
            assert_ne!(g.0, NOT_INTERNED);
            assert_eq!(Known::find(g, &[Known::Cons, Known::Ok, Known::Bad]), None);
        }
        assert!(!Known::Cons.symbol().is_generated());
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
