//! Content addressing for core expressions.
//!
//! The serving layer caches evaluation results keyed by *what a query
//! means*, not by the source text that produced it. Two obstacles stand
//! between a desugared [`Expr`] and a usable cache key:
//!
//! * desugaring invents fresh binder names (`Symbol::fresh`) from a global
//!   counter, so compiling the same source twice — or on two different
//!   pool workers — yields alpha-equivalent but not structurally equal
//!   trees;
//! * [`Symbol`]s are numbers whose value depends on interning order (an
//!   interned name) or on the counter (a generated one), which differ
//!   between processes and runs.
//!
//! [`expr_canonical_bytes`] therefore serialises an expression into a
//! canonical byte string that is invariant under alpha-renaming (bound
//! variables become de Bruijn indices) and independent of the interner
//! state (free variables are written by spelling; a generated name is
//! bound inside the term that minted it, so its serial never reaches the
//! bytes). Equal byte strings are
//! exact witnesses of alpha-equivalence for cache purposes — the cache
//! compares the full bytes, so hash collisions cannot alias two different
//! programs. [`expr_fingerprint`] is a 64-bit FNV-1a digest of the same
//! bytes, used for sharding and cheap display.

use crate::core::{AltCon, Expr, PrimOp};
use crate::Symbol;

/// Serialises an expression into its canonical, alpha-invariant,
/// interner-independent byte string.
///
/// # Examples
///
/// ```
/// use urk_syntax::{expr_canonical_bytes, Symbol};
/// use urk_syntax::core::Expr;
///
/// let a = Expr::lam(Symbol::intern("x"), Expr::var("x"));
/// let b = Expr::lam(Symbol::intern("y"), Expr::var("y"));
/// assert_eq!(expr_canonical_bytes(&a), expr_canonical_bytes(&b));
/// ```
pub fn expr_canonical_bytes(e: &Expr) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    write_expr(e, &mut Vec::new(), &mut out);
    out
}

/// A 64-bit FNV-1a digest of [`expr_canonical_bytes`]. Equal expressions
/// (up to alpha-renaming) always agree; the cache never relies on the
/// converse.
pub fn expr_fingerprint(e: &Expr) -> u64 {
    fnv1a(&expr_canonical_bytes(e))
}

/// FNV-1a over a byte string — the workspace's dependency-free hash for
/// content addressing (the cache's sharding function).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// One tag byte per construct. Every variable-length field (strings,
// argument lists) is length-prefixed, so the serialisation is
// prefix-free and two distinct trees cannot collide byte-for-byte.
const TAG_BOUND: u8 = 0x01;
const TAG_FREE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_CHAR: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_CON: u8 = 0x06;
const TAG_APP: u8 = 0x07;
const TAG_LAM: u8 = 0x08;
const TAG_LET: u8 = 0x09;
const TAG_LETREC: u8 = 0x0a;
const TAG_CASE: u8 = 0x0b;
const TAG_PRIM: u8 = 0x0c;
const TAG_RAISE: u8 = 0x0d;
const TAG_ALT_CON: u8 = 0x10;
const TAG_ALT_INT: u8 = 0x11;
const TAG_ALT_CHAR: u8 = 0x12;
const TAG_ALT_STR: u8 = 0x13;
const TAG_ALT_DEFAULT: u8 = 0x14;

fn write_u64(n: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn write_str(s: &str, out: &mut Vec<u8>) {
    write_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn write_sym(s: Symbol, out: &mut Vec<u8>) {
    s.with_str(|s| write_str(s, out));
}

/// A bound variable is written as its de Bruijn *distance*: how many
/// binders up the `bound` stack its binding site sits (innermost = 0).
fn write_var(v: Symbol, bound: &[Symbol], out: &mut Vec<u8>) {
    match bound.iter().rev().position(|b| *b == v) {
        Some(distance) => {
            out.push(TAG_BOUND);
            write_u64(distance as u64, out);
        }
        None => {
            out.push(TAG_FREE);
            write_sym(v, out);
        }
    }
}

fn write_expr(e: &Expr, bound: &mut Vec<Symbol>, out: &mut Vec<u8>) {
    match e {
        Expr::Var(v) => write_var(*v, bound, out),
        Expr::Int(n) => {
            out.push(TAG_INT);
            write_u64(*n as u64, out);
        }
        Expr::Char(c) => {
            out.push(TAG_CHAR);
            write_u64(u64::from(u32::from(*c)), out);
        }
        Expr::Str(s) => {
            out.push(TAG_STR);
            write_str(s, out);
        }
        Expr::Con(name, args) => {
            out.push(TAG_CON);
            write_sym(*name, out);
            write_u64(args.len() as u64, out);
            for a in args {
                write_expr(a, bound, out);
            }
        }
        Expr::Prim(op, args) => {
            out.push(TAG_PRIM);
            write_str(op_key(*op), out);
            write_u64(args.len() as u64, out);
            for a in args {
                write_expr(a, bound, out);
            }
        }
        Expr::App(f, x) => {
            out.push(TAG_APP);
            write_expr(f, bound, out);
            write_expr(x, bound, out);
        }
        Expr::Lam(x, b) => {
            out.push(TAG_LAM);
            bound.push(*x);
            write_expr(b, bound, out);
            bound.pop();
        }
        Expr::Let(x, rhs, body) => {
            out.push(TAG_LET);
            write_expr(rhs, bound, out);
            bound.push(*x);
            write_expr(body, bound, out);
            bound.pop();
        }
        Expr::LetRec(binds, body) => {
            out.push(TAG_LETREC);
            write_u64(binds.len() as u64, out);
            let n = bound.len();
            bound.extend(binds.iter().map(|(x, _)| *x));
            for (_, rhs) in binds {
                write_expr(rhs, bound, out);
            }
            write_expr(body, bound, out);
            bound.truncate(n);
        }
        Expr::Case(scrutinee, alts) => {
            out.push(TAG_CASE);
            write_expr(scrutinee, bound, out);
            write_u64(alts.len() as u64, out);
            for alt in alts {
                match &alt.con {
                    AltCon::Con(c) => {
                        out.push(TAG_ALT_CON);
                        write_sym(*c, out);
                    }
                    AltCon::Int(n) => {
                        out.push(TAG_ALT_INT);
                        write_u64(*n as u64, out);
                    }
                    AltCon::Char(c) => {
                        out.push(TAG_ALT_CHAR);
                        write_u64(u64::from(u32::from(*c)), out);
                    }
                    AltCon::Str(s) => {
                        out.push(TAG_ALT_STR);
                        write_str(s, out);
                    }
                    AltCon::Default => out.push(TAG_ALT_DEFAULT),
                }
                write_u64(alt.binders.len() as u64, out);
                let n = bound.len();
                bound.extend(alt.binders.iter().copied());
                write_expr(&alt.rhs, bound, out);
                bound.truncate(n);
            }
        }
        Expr::Raise(inner) => {
            out.push(TAG_RAISE);
            write_expr(inner, bound, out);
        }
    }
}

/// A stable textual key per primop (its surface name — already unique).
fn op_key(op: PrimOp) -> &'static str {
    op.name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{desugar_expr, parse_expr_src, DataEnv};

    fn compile(src: &str) -> Expr {
        let data = DataEnv::new();
        desugar_expr(&parse_expr_src(src).expect("parses"), &data).expect("desugars")
    }

    #[test]
    fn alpha_renamed_terms_have_equal_bytes() {
        let pairs = [
            (r"\x -> x", r"\y -> y"),
            ("let x = 1 in x + x", "let z = 1 in z + z"),
            (r"\f -> \x -> f (f x)", r"\g -> \y -> g (g y)"),
        ];
        for (a, b) in pairs {
            assert_eq!(
                expr_canonical_bytes(&compile(a)),
                expr_canonical_bytes(&compile(b)),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn recompiling_the_same_source_is_stable_despite_fresh_symbols() {
        // The match compiler invents fresh binders; compiling twice must
        // still produce identical canonical bytes (alpha-invariance is
        // what makes a shared cache possible across pool workers).
        let src = r"case xs of { y:ys -> y + 1; other -> 0 }";
        assert_eq!(
            expr_canonical_bytes(&compile(src)),
            expr_canonical_bytes(&compile(src))
        );
        assert_eq!(
            expr_fingerprint(&compile(src)),
            expr_fingerprint(&compile(src))
        );
    }

    #[test]
    fn distinct_programs_have_distinct_bytes() {
        let exprs = [
            "1 + 2",
            "2 + 1",
            "1 - 2",
            r"\x -> x",
            r"\x -> \y -> x",
            r"\x -> \y -> y",
            "let x = 1 in x",
            r#"raise (UserError "a")"#,
            r#"raise (UserError "b")"#,
            "case b of { True -> 1; False -> 2 }",
            "case b of { False -> 1; True -> 2 }",
        ];
        let all: Vec<Vec<u8>> = exprs
            .iter()
            .map(|s| expr_canonical_bytes(&compile(s)))
            .collect();
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "{} vs {}", exprs[i], exprs[j]);
            }
        }
    }

    #[test]
    fn shadowing_binds_to_the_innermost_binder() {
        // \x -> \x -> x  refers to the inner x; it must differ from
        // \x -> \y -> x  (outer reference) and equal \a -> \b -> b.
        let inner = compile(r"\x -> \x -> x");
        let outer = compile(r"\x -> \y -> x");
        let fresh = compile(r"\a -> \b -> b");
        assert_ne!(expr_canonical_bytes(&inner), expr_canonical_bytes(&outer));
        assert_eq!(expr_canonical_bytes(&inner), expr_canonical_bytes(&fresh));
    }

    #[test]
    fn free_variables_are_addressed_by_spelling() {
        // Free variables (Prelude references) keep their names, so `map`
        // and `sum` differ even though both are a single free Var node.
        assert_ne!(
            expr_canonical_bytes(&Expr::var("map")),
            expr_canonical_bytes(&Expr::var("sum"))
        );
        // The paper's bound/free distinction: `\map -> map` is `\x -> x`.
        assert_eq!(
            expr_canonical_bytes(&compile(r"\map -> map")),
            expr_canonical_bytes(&compile(r"\x -> x"))
        );
    }

    #[test]
    fn fingerprint_is_fnv_of_the_canonical_bytes() {
        let e = compile("sum [1, 2, 3]");
        assert_eq!(expr_fingerprint(&e), fnv1a(&expr_canonical_bytes(&e)));
        // And a known FNV-1a vector for the hash itself.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
