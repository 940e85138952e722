//! The explicit `ExVal` encoding — §2.1/§2.2's "exceptions as values in
//! the un-extended language" baseline.
//!
//! Every expression is monadified into the `ExVal` type:
//!
//! ```text
//! data ExVal a = OK a | Bad Exception
//! ```
//!
//! so `(f x) + (g y)` becomes the paper's clutter:
//!
//! ```text
//! case f x of
//!   Bad ex -> Bad ex
//!   OK xv  -> case g y of
//!               Bad ex -> Bad ex
//!               OK yv  -> OK (xv + yv)
//! ```
//!
//! The encoder supports the first-order sub-language the paper's
//! efficiency discussion concerns (top-level functions over scalars and
//! data, `let`, `case`, `if`, recursion); higher-order code is rejected
//! with [`EncodeError`], mirroring §2.2's "loss of modularity and code
//! re-use, especially for higher-order functions". The encoding is also
//! *stricter* than the original (§2.2's "increased strictness"):
//! constructor arguments and `let` bindings are forced at bind time.
//!
//! The benchmark harness uses the encoder to regenerate the paper's
//! efficiency claim: "an explicit encoding forces a test-and-propagate at
//! every call site, with a substantial cost in code size and speed".

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use urk_syntax::core::{Alt, AltCon, CoreProgram, Expr, PrimOp};
use urk_syntax::{Hint, Symbol};

/// An expression the encoder cannot handle (higher-order, letrec-local, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncodeError(pub String);

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "explicit-encoding error: {}", self.0)
    }
}

impl std::error::Error for EncodeError {}

/// Encodes a whole program: every top-level function returns `ExVal`.
///
/// # Errors
///
/// Returns [`EncodeError`] for constructs outside the first-order subset.
pub fn encode_program(prog: &CoreProgram) -> Result<CoreProgram, EncodeError> {
    let known: BTreeSet<Symbol> = prog.binds.iter().map(|(n, _)| *n).collect();
    let mut out = CoreProgram::default();
    for (name, rhs) in &prog.binds {
        // Peel parameters; they stay plain values.
        let mut params = Vec::new();
        let mut body: &Expr = rhs;
        while let Expr::Lam(x, b) = body {
            params.push(*x);
            body = b;
        }
        let encoded = encode(body, &known, &params.iter().copied().collect())?;
        out.binds
            .push((*name, Rc::new(Expr::lams(params, encoded))));
    }
    Ok(out)
}

/// Encodes a single (closed up to `known` functions) expression.
///
/// # Errors
///
/// Returns [`EncodeError`] for constructs outside the first-order subset.
pub fn encode_expr(e: &Expr, known: &BTreeSet<Symbol>) -> Result<Expr, EncodeError> {
    encode(e, known, &BTreeSet::new())
}

/// `case scrut of { OK v -> k; Bad e -> Bad e }` — the ubiquitous
/// test-and-propagate.
fn case_ok(scrut: Expr, v: Symbol, k: Expr) -> Expr {
    let e = Symbol::fresh(Hint::Ex);
    Expr::Case(
        Rc::new(scrut),
        vec![
            Alt {
                con: AltCon::Con(Symbol::intern("OK")),
                binders: vec![v],
                rhs: Rc::new(k),
            },
            Alt {
                con: AltCon::Con(Symbol::intern("Bad")),
                binders: vec![e],
                rhs: Rc::new(Expr::con("Bad", [Expr::Var(e)])),
            },
        ],
    )
}

fn ok(e: Expr) -> Expr {
    Expr::con("OK", [e])
}

/// Sequentially binds encoded sub-expressions, then applies `finish` to
/// the plain values.
fn bind_all(
    exprs: &[Rc<Expr>],
    known: &BTreeSet<Symbol>,
    locals: &BTreeSet<Symbol>,
    finish: impl FnOnce(Vec<Expr>) -> Expr,
) -> Result<Expr, EncodeError> {
    let vars: Vec<Symbol> = (0..exprs.len()).map(|_| Symbol::fresh(Hint::V)).collect();
    let body = finish(vars.iter().map(|v| Expr::Var(*v)).collect());
    let mut out = body;
    for (e, v) in exprs.iter().zip(&vars).rev() {
        let enc = encode(e, known, locals)?;
        out = case_ok(enc, *v, out);
    }
    Ok(out)
}

fn encode(
    e: &Expr,
    known: &BTreeSet<Symbol>,
    locals: &BTreeSet<Symbol>,
) -> Result<Expr, EncodeError> {
    match e {
        Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => Ok(ok(e.clone())),
        Expr::Var(v) => {
            if locals.contains(v) {
                Ok(ok(e.clone()))
            } else if known.contains(v) {
                // A known zero-argument binding is already encoded.
                Ok(e.clone())
            } else {
                Err(EncodeError(format!("unknown variable '{v}'")))
            }
        }
        Expr::Lam(_, _) => Err(EncodeError(
            "higher-order code cannot be encoded (a lambda escaped)".into(),
        )),
        Expr::LetRec(_, _) => Err(EncodeError(
            "local recursion cannot be encoded; lift it to the top level".into(),
        )),
        Expr::Con(c, args) => bind_all(args, known, locals, |vs| ok(Expr::con(*c, vs))),
        Expr::Prim(op, args) => encode_prim(*op, args, known, locals),
        Expr::Raise(x) => {
            // raise e  ⇒  Bad e (forcing e's own encoding first).
            match &**x {
                // The common shape: a literal exception constructor.
                Expr::Con(_, payload) if payload.iter().all(|p| matches!(&**p, Expr::Str(_))) => {
                    Ok(Expr::con("Bad", [(**x).clone()]))
                }
                _ => {
                    let v = Symbol::fresh(Hint::Exn);
                    let enc = encode(x, known, locals)?;
                    Ok(case_ok(enc, v, Expr::con("Bad", [Expr::Var(v)])))
                }
            }
        }
        Expr::Let(x, r, b) => {
            let enc_r = encode(r, known, locals)?;
            let mut locals2 = locals.clone();
            locals2.insert(*x);
            let enc_b = encode(b, known, &locals2)?;
            Ok(case_ok(enc_r, *x, enc_b))
        }
        Expr::Case(s, alts) => {
            let v = Symbol::fresh(Hint::S);
            let enc_s = encode(s, known, locals)?;
            let mut out_alts = Vec::with_capacity(alts.len());
            for a in alts {
                let mut locals2 = locals.clone();
                locals2.extend(a.binders.iter().copied());
                out_alts.push(Alt {
                    con: a.con.clone(),
                    binders: a.binders.clone(),
                    rhs: Rc::new(encode(&a.rhs, known, &locals2)?),
                });
            }
            Ok(case_ok(
                enc_s,
                v,
                Expr::Case(Rc::new(Expr::Var(v)), out_alts),
            ))
        }
        Expr::App(_, _) => {
            // Flatten; the head must be a known top-level function.
            let mut args = Vec::new();
            let mut head = e;
            while let Expr::App(f, a) = head {
                args.push(a.clone());
                head = f;
            }
            args.reverse();
            let Expr::Var(f) = head else {
                return Err(EncodeError(
                    "only applications of named top-level functions can be encoded".into(),
                ));
            };
            if !known.contains(f) {
                return Err(EncodeError(format!(
                    "application of unknown function '{f}'"
                )));
            }
            let f = *f;
            bind_all(&args, known, locals, |vs| Expr::apps(Expr::Var(f), vs))
        }
    }
}

fn encode_prim(
    op: PrimOp,
    args: &[Rc<Expr>],
    known: &BTreeSet<Symbol>,
    locals: &BTreeSet<Symbol>,
) -> Result<Expr, EncodeError> {
    match op {
        PrimOp::Seq => {
            let v = Symbol::fresh(Hint::U);
            let enc0 = encode(&args[0], known, locals)?;
            let enc1 = encode(&args[1], known, locals)?;
            Ok(case_ok(enc0, v, enc1))
        }
        PrimOp::MapExn | PrimOp::UnsafeIsException | PrimOp::UnsafeGetException => {
            Err(EncodeError(format!(
                "primitive '{}' has no explicit encoding",
                op.name()
            )))
        }
        PrimOp::Div | PrimOp::Mod => {
            // The checked operations must encode their own failure.
            bind_all(args, known, locals, |vs| {
                let zero_test = Expr::prim(PrimOp::IntEq, [vs[1].clone(), Expr::int(0)]);
                Expr::case(
                    zero_test,
                    vec![
                        Alt::con(
                            "True",
                            vec![],
                            Expr::con("Bad", [Expr::con("DivideByZero", [])]),
                        ),
                        Alt::con(
                            "False",
                            vec![],
                            ok(Expr::Prim(op, vs.into_iter().map(Rc::new).collect())),
                        ),
                    ],
                )
            })
        }
        _ => bind_all(args, known, locals, |vs| {
            ok(Expr::Prim(op, vs.into_iter().map(Rc::new).collect()))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use urk_machine::{compile_program, Machine, MachineConfig, Outcome};
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    /// A fresh machine with `prog` lowered and linked.
    fn machine_for(prog: &CoreProgram) -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&prog.binds)));
        m
    }

    fn program(src: &str) -> CoreProgram {
        let mut env = DataEnv::new();
        desugar_program(&parse_program(src).expect("parses"), &mut env).expect("desugars")
    }

    fn run_with_program(prog: &CoreProgram, expr: &str) -> (String, urk_machine::Stats) {
        let data = DataEnv::new();
        let mut m = machine_for(prog);
        let e = desugar_expr(&parse_expr_src(expr).expect("parses"), &data).expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        (m.render_outcome(&out, 16), m.stats().clone())
    }

    const FIB: &str = "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)";

    #[test]
    fn encoded_fib_computes_the_same_answer_wrapped_in_ok() {
        let orig = program(FIB);
        let enc = encode_program(&orig).expect("first-order");
        let (a, sa) = run_with_program(&orig, "fib 12");
        let (b, sb) = run_with_program(&enc, "fib 12");
        assert_eq!(a, "144");
        assert_eq!(b, "OK 144");
        // §2.2's "poor efficiency": test-and-propagate at every call site.
        assert!(
            sb.steps > sa.steps * 2,
            "encoded: {} steps, native: {} steps",
            sb.steps,
            sa.steps
        );
    }

    #[test]
    fn encoded_division_propagates_bad_values_explicitly() {
        let orig = program("half n = 100 / n");
        let enc = encode_program(&orig).expect("first-order");
        let (a, _) = run_with_program(&enc, "half 0");
        assert_eq!(a, "Bad DivideByZero");
        let (b, _) = run_with_program(&enc, "half 4");
        assert_eq!(b, "OK 25");
    }

    #[test]
    fn encoded_raise_becomes_a_bad_value() {
        let orig = program(r#"boom n = if n > 0 then n else raise (UserError "Urk")"#);
        let enc = encode_program(&orig).expect("first-order");
        let (a, _) = run_with_program(&enc, "boom 0");
        assert_eq!(a, "Bad (UserError \"Urk\")");
        let (b, _) = run_with_program(&enc, "boom 7");
        assert_eq!(b, "OK 7");
    }

    #[test]
    fn code_size_blowup_is_measurable() {
        let orig = program(FIB);
        let enc = encode_program(&orig).expect("first-order");
        // §2.2: "a substantial cost in code size".
        assert!(
            enc.size() > orig.size() * 2,
            "encoded {} vs original {}",
            enc.size(),
            orig.size()
        );
    }

    #[test]
    fn higher_order_code_is_rejected() {
        let prog = program("twice f x = f (f x)");
        let err = encode_program(&prog).expect_err("higher-order");
        assert!(
            err.0.contains("unknown function") || err.0.contains("lambda"),
            "{err}"
        );
    }

    #[test]
    fn data_and_case_encode() {
        let orig = program(
            "len xs = case xs of { [] -> 0; y:ys -> 1 + len ys }\n\
             range n = if n == 0 then [] else n : range (n - 1)",
        );
        let enc = encode_program(&orig).expect("first-order");
        // The query expression must itself be encoded: encoded functions
        // consume plain values and produce ExVal results.
        let data = DataEnv::new();
        let known: BTreeSet<Symbol> = orig.binds.iter().map(|(n, _)| *n).collect();
        let query = desugar_expr(&parse_expr_src("len (range 5)").expect("parses"), &data)
            .expect("desugars");
        let encoded_query = encode_expr(&query, &known).expect("first-order query");

        let mut m = machine_for(&enc);
        let out = m
            .eval_code_expr(&encoded_query, false)
            .expect("no machine error");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(m.render(n, 16), "OK 5");
    }

    #[test]
    fn increased_strictness_is_observable() {
        // §2.2: the encoding is stricter — a let-bound exceptional value
        // is forced even when unused.
        let orig = program("lazy n = let unused = 1 / n in 42");
        let (native, _) = run_with_program(&orig, "lazy 0");
        assert_eq!(native, "42");
        let enc = encode_program(&orig).expect("first-order");
        let (encoded, _) = run_with_program(&enc, "lazy 0");
        assert_eq!(encoded, "Bad DivideByZero");
    }
}
