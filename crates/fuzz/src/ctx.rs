//! The shared evaluation context every fuzz candidate runs against: a
//! small recursive "fuzz prelude" compiled once for every evaluator.
//!
//! The prelude is deliberately tiny but adversarial: a recursive loop
//! (steps for chaos plans to land in), a partial function (reachable
//! `PatternMatchFail`), a division wrapper (`DivideByZero` at a call
//! boundary), and a higher-order combinator (closures crossing update
//! frames). Generated terms splice calls to these, so the oracle exercises
//! global lookups, real recursion, and §3.3/§5.1 trims — not just literal
//! arithmetic.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use urk_machine::{compile_program, tier2_optimize, Code, FactVal, GlobalFact, Tier2Facts};
use urk_syntax::{desugar_program, parse_program, DataEnv, Symbol};
use urk_types::{infer_expr, infer_program, Scheme};

/// The fuzz prelude. Kept source-form so counterexample files embed it
/// verbatim and replay with a stock parser.
pub const FUZZ_PRELUDE_SRC: &str = "\
fzsum n = if n < 1 then 0 else n + fzsum (n - 1)
fzdiv a b = a / b
fzpick n = case n of { 0 -> 1; 1 -> 2 }
fztwice f x = f (f x)
";

/// Everything a candidate needs to run on every evaluator: the data
/// environment, the core bindings, their inferred type schemes (for
/// re-checking mutants), and the one-time tier-1 and tier-2 images every
/// machine links.
pub struct FuzzCtx {
    pub data: DataEnv,
    pub binds: Vec<(Symbol, Rc<Expr>)>,
    pub globals: HashMap<Symbol, Scheme>,
    pub code: Arc<Code>,
    /// The same program at tier 2: the exception-effect analysis run over
    /// the binds and used as a license for superinstruction fusion,
    /// speculation, and inline caches. The second machine column of the
    /// cross-product oracle.
    pub code_t2: Arc<Code>,
}

use urk_syntax::core::Expr;

impl FuzzCtx {
    /// The standard context over [`FUZZ_PRELUDE_SRC`].
    ///
    /// # Panics
    ///
    /// Never for the shipped prelude (it parses, desugars, and infers);
    /// panics describe which stage broke if it is edited into a bad state.
    pub fn new() -> FuzzCtx {
        FuzzCtx::from_source(FUZZ_PRELUDE_SRC).expect("the fuzz prelude is well-formed")
    }

    /// A context over arbitrary program source — used to replay `.urk`
    /// case files, which are self-contained (their binds may have drifted
    /// from the current prelude).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the stage (parse / desugar /
    /// typecheck) that rejected the source.
    pub fn from_source(src: &str) -> Result<FuzzCtx, String> {
        let surface = parse_program(src).map_err(|e| format!("parse: {e}"))?;
        let mut data = DataEnv::new();
        let prog = desugar_program(&surface, &mut data).map_err(|e| format!("desugar: {e}"))?;
        let globals = infer_program(&prog, &data).map_err(|e| format!("typecheck: {e}"))?;
        let base = compile_program(&prog.binds);
        let code_t2 = Arc::new(tier2_optimize(&base, &tier2_facts(&prog, &data)));
        let code = Arc::new(base);
        Ok(FuzzCtx {
            data,
            binds: prog.binds,
            globals,
            code,
            code_t2,
        })
    }

    /// The prelude function names (mutation keeps candidate free variables
    /// inside this set plus local binders).
    pub fn global_names(&self) -> Vec<Symbol> {
        self.binds.iter().map(|(n, _)| *n).collect()
    }

    /// This context minus one binding, recompiled — how case replay
    /// separates the `counterexample` query from the prelude it rode in
    /// with.
    ///
    /// # Errors
    ///
    /// If the remaining program no longer typechecks (a surviving binding
    /// referenced the removed one).
    pub fn without_bind(&self, name: Symbol) -> Result<FuzzCtx, String> {
        let binds: Vec<(Symbol, Rc<Expr>)> = self
            .binds
            .iter()
            .filter(|(n, _)| *n != name)
            .cloned()
            .collect();
        let prog = urk_syntax::core::CoreProgram {
            binds,
            sigs: Vec::new(),
        };
        let globals = infer_program(&prog, &self.data).map_err(|e| format!("typecheck: {e}"))?;
        let base = compile_program(&prog.binds);
        let code_t2 = Arc::new(tier2_optimize(&base, &tier2_facts(&prog, &self.data)));
        let code = Arc::new(base);
        Ok(FuzzCtx {
            data: self.data.clone(),
            binds: prog.binds,
            globals,
            code,
            code_t2,
        })
    }

    /// True if `e` is well-typed against the prelude's schemes — the gate
    /// every mutant passes before it is allowed near the oracle (the
    /// denotational evaluator panics on dynamically ill-typed terms, by
    /// design).
    pub fn well_typed(&self, e: &Expr) -> bool {
        infer_expr(e, &self.data, &self.globals).is_ok()
    }
}

/// Runs the exception-effect analysis over the program and reshapes its
/// per-binding summaries into the machine's tier-2 license (the same
/// mapping the `urk` session applies: `whnf_safe` gates constant
/// substitution; `Con` constants are dropped because the flat image only
/// carries literal operands).
fn tier2_facts(prog: &urk_syntax::core::CoreProgram, data: &DataEnv) -> Tier2Facts {
    let analysis = urk_analysis::analyze_program(prog, data);
    Tier2Facts {
        globals: analysis
            .binding_facts(&prog.binds)
            .into_iter()
            .map(|f| GlobalFact {
                whnf_safe: f.whnf_safe,
                value: f.val.and_then(|v| match v {
                    urk_analysis::Val::Int(i) => Some(FactVal::Int(i)),
                    urk_analysis::Val::Char(c) => Some(FactVal::Char(c)),
                    urk_analysis::Val::Str(s) => Some(FactVal::Str(s.to_string())),
                    urk_analysis::Val::Con(_) => None,
                }),
                demands: f.demands,
            })
            .collect(),
    }
}

impl Default for FuzzCtx {
    fn default() -> FuzzCtx {
        FuzzCtx::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::core::Expr;

    #[test]
    fn prelude_builds_and_types() {
        let ctx = FuzzCtx::new();
        assert_eq!(ctx.binds.len(), 4);
        assert!(ctx.well_typed(&Expr::app(Expr::var("fzsum"), Expr::int(3))));
        assert!(!ctx.well_typed(&Expr::app(Expr::int(1), Expr::int(2))));
        assert!(!ctx.well_typed(&Expr::var("nosuch")));
    }
}
