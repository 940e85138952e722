//! The [`Session`]: the whole pipeline behind one handle.
//!
//! A session owns the data-type environment, the Prelude plus any loaded
//! user programs (as one recursive top-level group), and the inferred type
//! environment. Expressions can then be evaluated on the machine
//! ([`Session::eval`]), denotationally ([`Session::denot_show`],
//! [`Session::exception_set`]), or performed as IO
//! ([`Session::run_main`], [`Session::run_main_semantic`]).

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use urk_denot::{show_denot, Denot, DenotConfig, DenotEvaluator, Env as DEnv, ExnSet, Thunk};
use urk_io::{
    run_denot, run_machine, AsyncSchedule, ExceptionOracle, RunOutcome, SeededOracle, StringInput,
};
use urk_machine::{
    compile_program, tier2_optimize_certified, validate_tier2, Backend, Code, FactVal, GlobalFact,
    Machine, MachineBuffers, MachineConfig, Outcome, Stats, Tier, Tier2Facts,
};
use urk_syntax::core::{CoreProgram, Expr};
use urk_syntax::{
    desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv, Exception, Symbol,
};
use urk_types::{infer_bindings, infer_expr, infer_program, Scheme};

use crate::error::Error;
use crate::prelude_source;

/// Pipeline options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Configuration for machine evaluation (evaluation-order policy,
    /// black holes, limits, async schedule).
    pub machine: MachineConfig,
    /// Configuration for denotational evaluation (fuel, depth, the
    /// `unsafeIsException` denotation).
    pub denot: DenotConfig,
    /// Type-check loaded programs and evaluated expressions (default on;
    /// the evaluators assume well-typed input).
    pub typecheck: bool,
    /// How deep [`Session::eval`] renders a value result (default 32).
    /// Batch and server callers lower this to bound output size per
    /// request; the serving cache keys on it, since the rendered string
    /// is part of the cached answer.
    pub render_depth: u32,
    /// Which executor machine evaluations run on. There is one, flat
    /// code: the program is lowered once (on first use) and every query
    /// lowers against it. The field survives as the tag stats, wire
    /// frames and cache keys carry.
    pub backend: Backend,
    /// Which optimisation tier the program is lowered at. Tier 1 (the
    /// default) is the direct lowering; tier 2 reruns the
    /// exception-effect analysis and uses its summaries as a *license* to
    /// fuse WHNF-safe regions into superinstructions, speculate lazy
    /// bindings, and patch monomorphic inline caches into known-global
    /// call sites.
    pub tier: Tier,
    /// Translation-validate every tier-2 compilation before linking it:
    /// audit the analysis facts against a fresh recomputation, then walk
    /// the tier-1/tier-2 arenas in lockstep discharging the certificate.
    /// On by default in debug builds, opt-in (`--validate-tier2`) in
    /// release. Like `verify_code`, a pure pass/panic gate that cannot
    /// change an answer — excluded from serving-cache keys.
    pub validate_tier2: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            machine: MachineConfig::default(),
            denot: DenotConfig::default(),
            typecheck: true,
            render_depth: 32,
            backend: Backend::Compiled,
            tier: Tier::One,
            validate_tier2: cfg!(debug_assertions),
        }
    }
}

/// The result of one machine evaluation.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// The value rendered to [`Options::render_depth`], or `(raise E)`
    /// for an uncaught exception.
    pub rendered: String,
    /// The representative exception, if evaluation raised.
    pub exception: Option<Exception>,
    /// Machine counters for this evaluation.
    pub stats: Stats,
}

/// A compiler/interpreter session.
pub struct Session {
    data: DataEnv,
    program: CoreProgram,
    types: HashMap<Symbol, Scheme>,
    /// The program lowered to flat code, compiled on first use and
    /// invalidated whenever the program changes — tagged with the tier
    /// it was compiled at, so switching [`Options::tier`] between calls
    /// recompiles instead of serving the other tier's image. Shared
    /// (`Arc`) so the pool can hand one compiled image to every worker.
    compiled: RefCell<Option<(Tier, Arc<Code>)>>,
    /// The buffers of the last machine an evaluation handed back, which
    /// the next one is recycled from ([`Session::machine`]).
    spare: RefCell<MachineBuffers>,
    /// The deadline watchdog of supervised evaluations, started by the
    /// first deadline.
    pub(crate) watchdog: OnceCell<crate::supervise::Watchdog>,
    /// How many leading bindings are the Prelude's, so user-facing
    /// diagnostics ([`Session::lint`]) skip them.
    prelude_len: usize,
    /// Pipeline options (freely adjustable between calls).
    pub options: Options,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with the Prelude loaded.
    ///
    /// # Panics
    ///
    /// Panics if the embedded Prelude fails to compile — a build error of
    /// this crate, not a user condition.
    pub fn new() -> Session {
        let mut s = Session::bare();
        s.load(prelude_source())
            .expect("the embedded Prelude must compile");
        s.prelude_len = s.program.binds.len();
        s
    }

    /// A session *without* the Prelude (used by tests and the law
    /// validator, which work on closed terms).
    pub fn bare() -> Session {
        Session {
            data: DataEnv::new(),
            program: CoreProgram::default(),
            types: HashMap::new(),
            compiled: RefCell::new(None),
            spare: RefCell::default(),
            watchdog: OnceCell::new(),
            prelude_len: 0,
            options: Options::default(),
        }
    }

    /// Loads a program: its `data` declarations and bindings are added to
    /// the session once they check. Only the new bindings are inferred
    /// (together with any a load without type checking left unchecked),
    /// against the schemes already in the session: earlier bindings can
    /// never refer to later ones. A failing load changes nothing.
    ///
    /// # Errors
    ///
    /// Syntax, desugaring, duplicate-definition, or type errors.
    pub fn load(&mut self, src: &str) -> Result<(), Error> {
        let parsed = parse_program(src)?;
        let mut data = self.data.clone();
        let new = desugar_program(&parsed, &mut data)?;
        for (name, _) in &new.binds {
            if self.program.binds.iter().any(|(n, _)| n == name) {
                return Err(Error::DuplicateDefinition(name.as_str()));
            }
        }
        if self.options.typecheck {
            let unchecked = |n: &Symbol| !self.types.contains_key(n);
            let binds: Vec<_> = self
                .program
                .binds
                .iter()
                .filter(|(n, _)| unchecked(n))
                .chain(&new.binds)
                .cloned()
                .collect();
            let sigs: Vec<_> = self
                .program
                .sigs
                .iter()
                .filter(|(n, _)| unchecked(n))
                .chain(&new.sigs)
                .cloned()
                .collect();
            let schemes = infer_bindings(&binds, &sigs, &data, &self.types)?;
            self.types.extend(schemes);
        }
        self.data = data;
        self.program.binds.extend(new.binds);
        self.program.sigs.extend(new.sigs);
        self.compiled.replace(None);
        Ok(())
    }

    /// The data-type environment.
    pub fn data(&self) -> &DataEnv {
        &self.data
    }

    /// The combined core program (Prelude + loads).
    pub fn program(&self) -> &CoreProgram {
        &self.program
    }

    /// The inferred scheme of a top-level binding, rendered.
    pub fn type_of_binding(&self, name: &str) -> Option<String> {
        self.types
            .get(&Symbol::intern(name))
            .map(|s| s.ty.to_string())
    }

    /// Parses, desugars and (optionally) type-checks an expression against
    /// the session program.
    ///
    /// # Errors
    ///
    /// Syntax, desugaring, or type errors.
    pub fn compile_expr(&self, src: &str) -> Result<Rc<Expr>, Error> {
        let surface = parse_expr_src(src)?;
        let core = desugar_expr(&surface, &self.data)?;
        if self.options.typecheck {
            infer_expr(&core, &self.data, &self.types)?;
        }
        Ok(Rc::new(core))
    }

    /// The inferred type of an expression, rendered.
    ///
    /// # Errors
    ///
    /// Syntax, desugaring, or type errors.
    pub fn type_of(&self, src: &str) -> Result<String, Error> {
        let surface = parse_expr_src(src)?;
        let core = desugar_expr(&surface, &self.data)?;
        let t = infer_expr(&core, &self.data, &self.types)?;
        Ok(t.to_string())
    }

    /// The session program lowered to flat code, compiling it on first
    /// use and caching the result until the program changes
    /// ([`Session::load`] and the optimisation passes invalidate it).
    /// The returned `Arc` is the image every machine links; the pool
    /// shares one across all workers.
    pub fn compiled_code(&self) -> Arc<Code> {
        let tier = self.options.tier;
        if let Some((cached_tier, code)) = self.compiled.borrow().as_ref() {
            if *cached_tier == tier {
                return Arc::clone(code);
            }
        }
        let base = compile_program(&self.program.binds);
        let code = match tier {
            Tier::One => Arc::new(base),
            Tier::Two => {
                let claimed = self.analyze().binding_facts(&self.program.binds);
                let facts = tier2_facts_of(&claimed);
                let (t2, cert) = tier2_optimize_certified(&base, &facts);
                if self.options.validate_tier2 {
                    // Audit the facts the optimiser consumed against a
                    // fresh analysis; once they are proven reproducible,
                    // discharge the certificate against them.
                    if let Err(e) =
                        urk_analysis::audit_binding_facts(&self.program, &self.data, &claimed)
                    {
                        panic!("refusing to link an unvalidated tier-2 image: {e}");
                    }
                    if let Err(e) = validate_tier2(&base, &t2, &cert, &facts) {
                        panic!("refusing to link an unvalidated tier-2 image: {e}");
                    }
                }
                Arc::new(t2)
            }
        };
        self.compiled.replace(Some((tier, Arc::clone(&code))));
        code
    }

    /// Whether the program is already lowered *at the current tier* —
    /// i.e. whether the next evaluation will reuse a cached image rather
    /// than paying the lowering cost.
    pub fn has_compiled_code(&self) -> bool {
        self.compiled
            .borrow()
            .as_ref()
            .is_some_and(|(tier, _)| *tier == self.options.tier)
    }

    /// Installs an already-compiled image of the session program, so
    /// pool workers reuse the probe session's single `Arc<Code>` instead
    /// of each lowering the same program again. The caller must ensure
    /// `code` was compiled from an identical program (the pool loads
    /// every worker from the same sources); the image carries its own
    /// tier tag.
    pub fn set_compiled_code(&self, code: Arc<Code>) {
        let tier = if code.is_tier2() {
            Tier::Two
        } else {
            Tier::One
        };
        self.compiled.replace(Some((tier, code)));
    }

    /// A machine with the lowered program linked (its globals appended to
    /// the heap), ready for [`Machine::eval_code_expr`]: equal to a fresh
    /// one, recycled from the session's last evaluation.
    pub fn compiled_machine(&self) -> Machine {
        self.machine(self.options.machine.clone())
    }

    /// A machine under `config` with the lowered program linked: the
    /// machine the session's last evaluation handed back, recycled
    /// ([`Machine::recycle`]), which equals a new machine with the
    /// program linked but reuses its grown buffers. Every session entry
    /// point that runs the machine gets its machine here and gives it
    /// back with [`Session::hand_back`] once it finished; a machine that
    /// panicked, or that a caller keeps, is never handed back.
    pub(crate) fn machine(&self, config: MachineConfig) -> Machine {
        Machine::recycle(self.spare.take(), config, self.compiled_code())
    }

    /// Retires a machine whose evaluation finished, for the next
    /// [`Session::machine`] to recycle.
    pub(crate) fn hand_back(&self, m: Machine) {
        self.spare.replace(m.retire());
    }

    /// Evaluates an expression on the machine (no catch mark: an
    /// exception is reported as uncaught), at the tier [`Options::tier`]
    /// selects.
    ///
    /// # Errors
    ///
    /// Front-end errors, or [`Error::Machine`] on hard limits.
    pub fn eval(&self, src: &str) -> Result<EvalResult, Error> {
        let e = self.compile_expr(src)?;
        let first_compile = !self.has_compiled_code();
        let mut m = self.machine(self.options.machine.clone());
        let out = m.eval_code_expr(&e, false);
        // An aborted run still burned steps and allocations; carry the
        // counters into the error so hitting a limit is diagnosable.
        let result = match out {
            Ok(out) => Ok(self.eval_result(&mut m, out, first_compile)),
            Err(error) => Err(Error::Machine {
                error,
                stats: Some(Box::new(m.stats().clone())),
            }),
        };
        self.hand_back(m);
        result
    }

    /// The result of an evaluation that ended on `m` with `out`. If this
    /// evaluation is the one that paid the program's one-time lowering
    /// (`first_compile`), that image's `compile_ops` and `compile_micros`
    /// are stamped onto the result's stats — here, and nowhere else.
    pub(crate) fn eval_result(
        &self,
        m: &mut Machine,
        out: Outcome,
        first_compile: bool,
    ) -> EvalResult {
        let mut stats = m.stats().clone();
        if first_compile {
            let code = self.compiled_code();
            stats.compile_ops += code.compile_ops();
            stats.compile_micros += code.compile_micros();
        }
        match out {
            Outcome::Value(n) => EvalResult {
                rendered: m.render(n, self.options.render_depth),
                exception: None,
                stats,
            },
            Outcome::Caught(exn) | Outcome::Uncaught(exn) => EvalResult {
                rendered: format!("(raise {exn})"),
                exception: Some(exn),
                stats,
            },
        }
    }

    /// A denotational evaluator with the session's configuration.
    pub fn denot_evaluator(&self) -> DenotEvaluator {
        DenotEvaluator::with_config(self.options.denot.clone())
    }

    /// Evaluates an expression denotationally and returns the denotation
    /// rendered to `depth`.
    ///
    /// # Errors
    ///
    /// Front-end errors.
    pub fn denot_show(&self, src: &str, depth: u32) -> Result<String, Error> {
        let e = self.compile_expr(src)?;
        let ev = self.denot_evaluator();
        let env = ev.bind_recursive(&self.program.binds, &DEnv::empty());
        let d = ev.eval(&e, &env);
        Ok(show_denot(&ev, &d, depth))
    }

    /// The *exception set* an expression denotes — `None` for a normal
    /// value. This is the paper's `S(·)` observed at the top level.
    ///
    /// # Errors
    ///
    /// Front-end errors.
    pub fn exception_set(&self, src: &str) -> Result<Option<ExnSet>, Error> {
        let e = self.compile_expr(src)?;
        let ev = self.denot_evaluator();
        let env = ev.bind_recursive(&self.program.binds, &DEnv::empty());
        match ev.eval(&e, &env) {
            Denot::Ok(_) => Ok(None),
            Denot::Bad(s) => Ok(Some(s)),
        }
    }

    /// Runs the differential chaos check on an expression: a seeded
    /// [`urk_io::chaos`] fault plan is injected into a machine evaluation
    /// and the outcome is verified against the denotational oracle (see
    /// the module docs for the two invariants). The session's machine and
    /// denot options are used as the baseline configuration.
    ///
    /// # Errors
    ///
    /// Front-end errors.
    pub fn chaos_check(&self, src: &str, seed: u64) -> Result<urk_io::ChaosReport, Error> {
        let e = self.compile_expr(src)?;
        Ok(urk_io::chaos_run(
            &self.program.binds,
            &self.compiled_code(),
            &e,
            &self.options.machine,
            self.options.denot.fuel,
            seed,
        ))
    }

    /// Performs `main` on the machine with the given input, as the main
    /// thread of a cooperative thread group (`forkIO`/`yield`/`MVar`s, the
    /// §4.4 concurrency extension). A program that never forks is a
    /// one-thread group.
    ///
    /// # Errors
    ///
    /// [`Error::MissingBinding`] if `main` is not defined, plus front-end
    /// errors.
    pub fn run_main(&self, input: &str) -> Result<RunOutcome, Error> {
        self.run_action("main", input)
    }

    /// Performs a named IO binding on the machine.
    ///
    /// # Errors
    ///
    /// As [`Session::run_main`].
    pub fn run_action(&self, name: &str, input: &str) -> Result<RunOutcome, Error> {
        let sym = Symbol::intern(name);
        if self.program.lookup(sym).is_none() {
            return Err(Error::MissingBinding(name.into()));
        }
        let mut m = self.compiled_machine();
        let mut inp = StringInput::new(input);
        let out = run_machine(&mut m, &Expr::Var(sym), &mut inp);
        self.hand_back(m);
        Ok(out)
    }

    /// Performs `main` under the semantic LTS with a seeded oracle: the
    /// same thread group as [`Session::run_main`], over denotations.
    ///
    /// # Errors
    ///
    /// As [`Session::run_main`].
    pub fn run_main_semantic(&self, input: &str, seed: u64) -> Result<RunOutcome<ExnSet>, Error> {
        let mut oracle = SeededOracle::new(seed);
        self.run_main_semantic_with(input, &mut oracle, &AsyncSchedule::default())
    }

    /// Performs `main` under the semantic LTS with an explicit oracle and
    /// async schedule.
    ///
    /// # Errors
    ///
    /// As [`Session::run_main`].
    pub fn run_main_semantic_with(
        &self,
        input: &str,
        oracle: &mut dyn ExceptionOracle,
        schedule: &AsyncSchedule,
    ) -> Result<RunOutcome<ExnSet>, Error> {
        let sym = Symbol::intern("main");
        if self.program.lookup(sym).is_none() {
            return Err(Error::MissingBinding("main".into()));
        }
        let ev = self.denot_evaluator();
        let env = ev.bind_recursive(&self.program.binds, &DEnv::empty());
        let action = Thunk::pending(Rc::new(Expr::Var(sym)), env);
        let mut inp = StringInput::new(input);
        Ok(run_denot(&ev, action, &mut inp, oracle, schedule))
    }

    /// Locations (function names, `case`, `lambda`, `do`) where a pattern
    /// match in the loaded program may fall through at runtime — i.e.
    /// where the match compiler had to plant a `PatternMatchFail` raise.
    /// The Prelude's deliberately partial functions (`head`, `tail`,
    /// `zipWith`, ...) appear here by design.
    pub fn match_warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (_, rhs) in &self.program.binds {
            out.extend(urk_syntax::potential_match_failures(rhs));
        }
        out.sort();
        out.dedup();
        out
    }

    /// The whole-program exception-effect analysis: per-binding summaries
    /// whose predicted sets conservatively over-approximate the §4
    /// denotational exception sets (⊥ — the analysis cannot bound the
    /// behaviour — is the full set, per §4.1).
    pub fn analyze(&self) -> urk_analysis::Analysis {
        urk_analysis::analyze_program(&self.program, &self.data)
    }

    /// The statically predicted exception set of an expression — a
    /// superset of what [`Session::exception_set`] denotes, and of any
    /// representative the machine can raise at either tier.
    ///
    /// # Errors
    ///
    /// Front-end errors from the expression.
    pub fn predicted_exceptions(&self, src: &str) -> Result<ExnSet, Error> {
        let e = self.compile_expr(src)?;
        Ok(self.analyze().predicted_set(&e, &self.data))
    }

    /// Lints the user-loaded bindings (the Prelude is analysed for
    /// summaries but not reported on): always-raising expressions
    /// (URK001), unreachable alternatives (URK002), dead
    /// `unsafeIsException`/`unsafeGetException` branches (URK003), and
    /// reachable pattern-match failures (URK004).
    pub fn lint(&self) -> Vec<urk_analysis::Diagnostic> {
        let user: std::collections::HashSet<Symbol> = self
            .program
            .binds
            .iter()
            .skip(self.prelude_len)
            .map(|(n, _)| *n)
            .collect();
        urk_analysis::lint_program(&self.program, &self.data)
            .into_iter()
            .filter(|d| user.contains(&d.binding))
            .collect()
    }

    /// Lints a single expression against the session program (reported
    /// under the pseudo-binding `it`, like a REPL result).
    ///
    /// # Errors
    ///
    /// Front-end errors from the expression.
    pub fn lint_expr(&self, src: &str) -> Result<Vec<urk_analysis::Diagnostic>, Error> {
        let e = self.compile_expr(src)?;
        let analysis = self.analyze();
        Ok(urk_analysis::lint_expr(
            &analysis,
            &self.data,
            Symbol::intern("it"),
            &e,
        ))
    }

    /// Runs the optimisation pipeline over the session program (Prelude
    /// included): simplifier to a fixpoint, then the demand-driven
    /// call-by-value pass. The optimised program replaces the current one
    /// after re-type-checking.
    ///
    /// # Errors
    ///
    /// [`Error::Type`] if the optimised program fails to re-type-check
    /// (which would indicate a transformation bug — the test suite guards
    /// this).
    pub fn optimize(&mut self) -> Result<urk_transform::OptimizeReport, Error> {
        let optimizer = urk_transform::Optimizer::new();
        let (out, report) = optimizer.optimize_with_data(&self.program, &self.data);
        if self.options.typecheck {
            self.types = infer_program(&out, &self.data)?;
        }
        self.program = out;
        self.compiled.replace(None);
        Ok(report)
    }

    /// Like [`Session::optimize`], additionally validating that each
    /// query's denotation is unchanged-or-refined (§4.5's criterion). The
    /// program is replaced only if every query validates.
    ///
    /// # Errors
    ///
    /// Front-end errors from the queries; [`Error::Type`] as in
    /// [`Session::optimize`].
    pub fn optimize_validated(
        &mut self,
        queries: &[&str],
    ) -> Result<urk_transform::OptimizeReport, Error> {
        let compiled: Vec<Rc<Expr>> = queries
            .iter()
            .map(|q| self.compile_expr(q))
            .collect::<Result<_, _>>()?;
        let optimizer = urk_transform::Optimizer::new();
        let (out, report) = optimizer.optimize_validated(&self.program, &self.data, &compiled);
        if report.validated() {
            if self.options.typecheck {
                self.types = infer_program(&out, &self.data)?;
            }
            self.program = out;
            self.compiled.replace(None);
        }
        Ok(report)
    }
}

/// Reshapes an exception-effect [`Analysis`](urk_analysis::Analysis) of
/// `binds` into the machine's tier-2 licence — the mapping every tier-2
/// consumer (the session, the fuzz context, the bench harness) applies.
/// `whnf_safe` (empty exception set, no divergence, no opacity) is the
/// license to substitute an arity-0 binding's constant value; `Con`
/// constants are dropped because the flat image only carries literal
/// operands.
pub fn tier2_facts_for(
    analysis: urk_analysis::Analysis,
    binds: &[(Symbol, Rc<Expr>)],
) -> Tier2Facts {
    tier2_facts_of(&analysis.binding_facts(binds))
}

/// The reshaping behind [`tier2_facts_for`], over positional facts.
fn tier2_facts_of(facts: &[urk_analysis::BindingFact]) -> Tier2Facts {
    Tier2Facts {
        globals: facts
            .iter()
            .map(|f| GlobalFact {
                whnf_safe: f.whnf_safe,
                value: f.val.as_ref().and_then(|v| match v {
                    urk_analysis::Val::Int(i) => Some(FactVal::Int(*i)),
                    urk_analysis::Val::Char(c) => Some(FactVal::Char(*c)),
                    urk_analysis::Val::Str(s) => Some(FactVal::Str(s.to_string())),
                    urk_analysis::Val::Con(_) => None,
                }),
                demands: f.demands.clone(),
            })
            .collect(),
    }
}
