//! Seeded generation of closed, well-typed `Int` Core terms.
//!
//! The grammar mirrors the random-term differential batteries in
//! `tests/tier2.rs` / `tests/properties.rs` — arithmetic with reachable
//! `DivideByZero`/`Overflow`, raise leaves, sharing `let`s, beta redexes,
//! boolean and constructor `case`s — and extends it with calls into the
//! fuzz prelude ([`crate::FUZZ_PRELUDE_SRC`]): recursion for chaos plans to
//! land in, a partial function, and a higher-order combinator. Everything
//! is driven by one seeded [`SmallRng`], so a seed fully determines the
//! term stream.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urk_syntax::core::{Alt, AltCon, Expr, PrimOp};
use urk_syntax::Symbol;

/// The deterministic term source. Local binder names restart at `v0` for
/// every term, so a term's text depends only on the random choices made
/// while generating it.
pub struct TermGen {
    rng: SmallRng,
    max_depth: u32,
    fresh: u32,
}

impl TermGen {
    /// A generator over the standard grammar.
    pub fn new(seed: u64, max_depth: u32) -> TermGen {
        TermGen {
            rng: SmallRng::seed_from_u64(seed),
            max_depth: max_depth.max(1),
            fresh: 0,
        }
    }

    /// The next closed `Int` term.
    pub fn term(&mut self) -> Expr {
        self.fresh = 0;
        let depth = self.rng.gen_range(1..=self.max_depth);
        let mut scope = Vec::new();
        self.gen_int(depth, &mut scope)
    }

    /// An `Int` subterm for a mutation site: same grammar, caller-supplied
    /// depth and in-scope `Int` variables.
    pub fn subterm(&mut self, depth: u32, scope: &[Symbol]) -> Expr {
        let mut scope = scope.to_vec();
        self.gen_int(depth, &mut scope)
    }

    fn fresh_name(&mut self) -> Symbol {
        let n = self.fresh;
        self.fresh += 1;
        Symbol::intern(&format!("v{n}"))
    }

    fn small_int(&mut self) -> Expr {
        Expr::int(self.rng.gen_range(0..=40i64))
    }

    fn raise_leaf(&mut self) -> Expr {
        match self.rng.gen_range(0..3u32) {
            0 => Expr::raise(Expr::con("DivideByZero", [])),
            1 => Expr::raise(Expr::con("Overflow", [])),
            _ => Expr::error("fz"),
        }
    }

    fn leaf(&mut self, scope: &[Symbol]) -> Expr {
        match self.rng.gen_range(0..10u32) {
            0..=3 => self.small_int(),
            4 | 5 => match scope.last() {
                Some(_) => {
                    let i = self.rng.gen_range(0..scope.len());
                    Expr::var(scope[i])
                }
                None => self.small_int(),
            },
            6 => self.raise_leaf(),
            // A cheap prelude splice that still counts as a leaf: bounded
            // recursion, so every generated term terminates.
            7 => Expr::app(Expr::var("fzsum"), Expr::int(self.rng.gen_range(0..=25i64))),
            8 => Expr::app(Expr::var("fzpick"), Expr::int(self.rng.gen_range(0..=2i64))),
            _ => Expr::int(self.rng.gen_range(-5..=5i64)),
        }
    }

    fn gen_int(&mut self, depth: u32, scope: &mut Vec<Symbol>) -> Expr {
        if depth == 0 || scope.len() > 24 {
            return self.leaf(scope);
        }
        let d = depth - 1;
        match self.rng.gen_range(0..13u32) {
            // Arithmetic: both orders observable, overflow reachable.
            0 | 1 => {
                let op = [PrimOp::Add, PrimOp::Sub, PrimOp::Mul][self.rng.gen_range(0..3usize)];
                let a = self.gen_int(d, scope);
                let b = self.gen_int(d, scope);
                Expr::prim(op, [a, b])
            }
            // Division / modulus: zero divisors are reachable (the leaf
            // range includes 0).
            2 => {
                let op = if self.rng.gen_bool(0.5) {
                    PrimOp::Div
                } else {
                    PrimOp::Mod
                };
                let a = self.gen_int(d, scope);
                let b = self.gen_int(d, scope);
                Expr::prim(op, [a, b])
            }
            // seq: forces the first operand for its effect only.
            3 => {
                let a = self.gen_int(d, scope);
                let b = self.gen_int(d, scope);
                Expr::prim(PrimOp::Seq, [a, b])
            }
            // if (a boolean case over a comparison).
            4 | 5 => {
                let ca = self.gen_int(d, scope);
                let cb = self.gen_int(d, scope);
                let cmp =
                    [PrimOp::IntLt, PrimOp::IntLe, PrimOp::IntEq][self.rng.gen_range(0..3usize)];
                let t = self.gen_int(d, scope);
                let e = self.gen_int(d, scope);
                Expr::case(
                    Expr::prim(cmp, [ca, cb]),
                    vec![Alt::con("True", vec![], t), Alt::con("False", vec![], e)],
                )
            }
            // Sharing let: the bound thunk is used 1–3 times, which is what
            // gives update frames (and §5.1 restores) something to protect.
            6 | 7 => {
                let x = self.fresh_name();
                let rhs = self.gen_int(d, scope);
                scope.push(x);
                let body = self.gen_int(d, scope);
                scope.pop();
                let body = if self.rng.gen_bool(0.4) {
                    Expr::add(body, Expr::var(x))
                } else {
                    body
                };
                Expr::let_(x, rhs, body)
            }
            // Beta redex.
            8 => {
                let x = self.fresh_name();
                let arg = self.gen_int(d, scope);
                scope.push(x);
                let body = self.gen_int(d, scope);
                scope.pop();
                Expr::app(Expr::lam(x, body), arg)
            }
            // Maybe case with a lazy payload.
            9 => {
                let scrut = if self.rng.gen_bool(0.7) {
                    let payload = self.gen_int(d, scope);
                    Expr::con("Just", [payload])
                } else {
                    Expr::con("Nothing", [])
                };
                let y = self.fresh_name();
                scope.push(y);
                let just_rhs = self.gen_int(d, scope);
                scope.pop();
                let nothing_rhs = self.gen_int(d, scope);
                Expr::case(
                    scrut,
                    vec![
                        Alt::con("Just", vec![y], just_rhs),
                        Alt::con("Nothing", vec![], nothing_rhs),
                    ],
                )
            }
            // Integer-literal case with a default arm.
            10 => {
                let scrut = self.gen_int(d, scope);
                let a = self.gen_int(d, scope);
                let b = self.gen_int(d, scope);
                let dflt = self.gen_int(d, scope);
                Expr::case(
                    scrut,
                    vec![
                        Alt::int(0, a),
                        Alt::int(1, b),
                        Alt {
                            con: AltCon::Default,
                            binders: vec![],
                            rhs: std::rc::Rc::new(dflt),
                        },
                    ],
                )
            }
            // Prelude splices: fzdiv / fztwice with a generated closure.
            11 => {
                let a = self.gen_int(d, scope);
                let b = self.gen_int(d, scope);
                Expr::apps(Expr::var("fzdiv"), [a, b])
            }
            _ => {
                let q = self.fresh_name();
                scope.push(q);
                let body = self.gen_int(d.min(1), scope);
                scope.pop();
                let arg = self.gen_int(d, scope);
                Expr::apps(Expr::var("fztwice"), [Expr::lam(q, body), arg])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FuzzCtx;

    #[test]
    fn generated_terms_are_closed_well_typed_and_deterministic() {
        let ctx = FuzzCtx::new();
        let globals: std::collections::BTreeSet<Symbol> = ctx.global_names().into_iter().collect();
        let mut g1 = TermGen::new(42, 5);
        let mut g2 = TermGen::new(42, 5);
        for _ in 0..200 {
            let t1 = g1.term();
            let t2 = g2.term();
            assert_eq!(t1, t2, "same seed must generate the same stream");
            assert!(
                t1.free_vars().iter().all(|v| globals.contains(v)),
                "free vars outside the prelude in {t1:?}"
            );
            assert!(ctx.well_typed(&t1), "ill-typed generated term {t1:?}");
        }
    }
}
