//! The differential chaos driver: §5.1's robustness claim, checked.
//!
//! The claim: delivering an asynchronous exception at *any* machine step can
//! only add members to the set of behaviours the denotational semantics
//! already allows. A [`chaos_run`] makes that executable for one seed:
//!
//! 1. evaluate the query **denotationally** (the oracle — no faults exist
//!    at this level; an expression simply *has* an exception set);
//! 2. run the machine once undisturbed to learn the episode's step count,
//!    and derive a [`FaultPlan`] whose faults land inside it;
//! 3. run a fresh machine under the plan and check **soundness under
//!    faults**: a caught exception must be a member of the denotational set
//!    ∪ the plan's injectable asynchrony, and a normal value must be one
//!    the denotation [`admits`], field by field;
//! 4. check **heap consistency**: [`urk_machine::Machine::audit_heap`]
//!    must find no stranded black holes — every thunk interrupted by the
//!    trim was restored (§5.1) or poisoned (§3.3);
//! 5. disarm the plan and **re-evaluate on the same machine**: the answer
//!    must agree with the oracle again (restored thunks resume; poisoned
//!    thunks re-raise members of the set), and the heap must still audit
//!    clean.
//!
//! Any failing seed reproduces exactly, because every fault in the plan is
//! derived from the seed.

use std::rc::Rc;
use std::sync::Arc;

use urk_denot::{show_denot, Denot, DenotConfig, DenotEvaluator, Env, Value};
use urk_machine::{Code, FaultPlan, Machine, MachineConfig, Outcome, Whnf};
use urk_syntax::core::Expr;
use urk_syntax::Symbol;

/// The verdict of one fault-injected differential run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The plan that was executed (carries its seed).
    pub plan: FaultPlan,
    /// Human-readable description of the fault-injected run's outcome.
    pub outcome: String,
    /// The oracle's rendering of the denotation.
    pub oracle: String,
    /// Invariant (a): the observed behaviour is a member of the
    /// denotational set ∪ the plan's injectable asynchrony.
    pub sound: bool,
    /// Invariant (b): zero stranded black holes and a coherent free list,
    /// both right after the fault-injected episode and after re-evaluation.
    pub heap_consistent: bool,
    /// The same machine, chaos disarmed, agrees with the oracle again.
    pub reeval_ok: bool,
    /// Asynchronous deliveries + forced collections actually performed.
    pub faults_fired: u64,
}

impl ChaosReport {
    /// True if every invariant held.
    pub fn passed(&self) -> bool {
        self.sound && self.heap_consistent && self.reeval_ok
    }
}

/// Runs the full differential check for one seed. The program is `binds`
/// for the oracle and its lowered image `code` for the machine. The fault
/// plan's horizon is calibrated from an undisturbed baseline run, so the
/// faults land mid-evaluation rather than after the answer is already
/// computed.
pub fn chaos_run(
    binds: &[(Symbol, Rc<Expr>)],
    code: &Arc<Code>,
    query: &Rc<Expr>,
    base: &MachineConfig,
    denot_fuel: u64,
    seed: u64,
) -> ChaosReport {
    let horizon = baseline_steps(code, query, base);
    let plan = FaultPlan::generate(seed, horizon);
    chaos_run_with_plan(binds, code, query, base, denot_fuel, plan)
}

/// As [`chaos_run`], but with a caller-supplied plan — used by the tests
/// that arm `sabotage_async_restore` to prove the audit catches a broken
/// restore, and usable to replay a hand-written fault schedule.
pub fn chaos_run_with_plan(
    binds: &[(Symbol, Rc<Expr>)],
    code: &Arc<Code>,
    query: &Rc<Expr>,
    base: &MachineConfig,
    denot_fuel: u64,
    plan: FaultPlan,
) -> ChaosReport {
    // The oracle: faults do not exist at this level. The depth guard is
    // raised above the default so moderately deep recursion (the kind the
    // chaos corpus uses to give faults room to land) doesn't bottom out —
    // but kept low enough for a 2 MiB test-thread stack.
    let ev = DenotEvaluator::with_config(DenotConfig {
        fuel: denot_fuel,
        max_depth: 2_000,
        ..DenotConfig::default()
    });
    let denv = ev.bind_recursive(binds, &Env::empty());
    let denot = ev.eval(query, &denv);
    let oracle = show_denot(&ev, &denot, 16);

    // The fault-injected run.
    let mut m = Machine::new(MachineConfig {
        chaos: Some(plan.clone()),
        ..base.clone()
    });
    m.link_code(Arc::clone(code));
    let chaos_out = m.eval_code_expr(query, true);
    let faults_fired = m.stats().async_injected + m.stats().forced_gcs;

    let (outcome, sound) = match &chaos_out {
        Ok(out @ Outcome::Value(n)) => {
            // Rendering forces lazy fields; keep the plan out of it.
            m.disarm_chaos();
            let rendered = m.render(*n, 16);
            (rendered, admits(&mut m, out, &ev, &denot, 16).is_ok())
        }
        Ok(out @ Outcome::Caught(e)) => {
            let ok = plan.allows(e) || admits(&mut m, out, &ev, &denot, 16).is_ok();
            (format!("Caught({e})"), ok)
        }
        Ok(Outcome::Uncaught(e)) => (format!("Uncaught({e})"), false),
        Err(err) => (format!("machine error: {err}"), false),
    };

    // Invariant (b): the machine must be reusable — no black hole survived
    // the trim, and the allocator's books balance.
    let first_audit = m.audit_heap();

    // Same machine, faults disarmed: must agree with the oracle again.
    m.disarm_chaos();
    let reeval_ok = match m.eval_code_expr(query, true) {
        Ok(out @ (Outcome::Value(_) | Outcome::Caught(_))) => {
            admits(&mut m, &out, &ev, &denot, 16).is_ok()
        }
        _ => false,
    };
    let heap_consistent = first_audit.is_consistent() && m.audit_heap().is_consistent();

    ChaosReport {
        plan,
        outcome,
        oracle,
        sound,
        heap_consistent,
        reeval_ok,
        faults_fired,
    }
}

/// Step count of one undisturbed episode, for calibrating the horizon
/// (each tier gets its own: their step counts differ, and the faults must
/// land inside the episode actually being disturbed). Falls back to
/// whatever was spent if the baseline itself hits a limit.
fn baseline_steps(code: &Arc<Code>, query: &Rc<Expr>, base: &MachineConfig) -> u64 {
    let mut m = Machine::new(base.clone());
    m.link_code(Arc::clone(code));
    let _ = m.eval_code_expr(query, true);
    m.stats().steps
}

/// The refinement check every differential battery uses (§3.5: any
/// member of the denoted set is a correct answer): `Ok` iff the machine's
/// outcome `out` is one the denotation `d` allows, to `depth`.
///
/// A raise of `x` is admitted by `Bad s` iff `x ∈ s`, and `⊥` admits
/// everything. A value must match `Ok`: equal ints, chars and strings,
/// any function for a function, and for a constructor the same tag and
/// arity, with each field forced on the machine and admitted by the
/// denotation's field at `depth - 1`; at depth 0 the fields are not
/// examined. The `Err` names the path to the first disagreement, such as
/// `field 1: 6 vs 5`.
pub fn admits(
    m: &mut Machine,
    out: &Outcome,
    ev: &DenotEvaluator,
    d: &Denot,
    depth: u32,
) -> Result<(), String> {
    let con = match (out, d) {
        (_, Denot::Bad(s)) if s.is_all() => return Ok(()),
        (Outcome::Caught(x) | Outcome::Uncaught(x), Denot::Bad(s)) if s.contains(x) => {
            return Ok(())
        }
        (Outcome::Value(n), Denot::Ok(v)) => match (m.heap().whnf(*n), v) {
            (Some(Whnf::Int(a)), Value::Int(b)) if a == *b => return Ok(()),
            (Some(Whnf::Char(a)), Value::Char(b)) if a == *b => return Ok(()),
            (Some(Whnf::Str(a)), Value::Str(b)) if a == b => return Ok(()),
            (Some(Whnf::CFun { .. }), Value::Fun(_)) => return Ok(()),
            (Some(Whnf::Con(c, fs)), Value::Con(dc, dfs)) if c == *dc && fs.len() == dfs.len() => {
                Some((*n, dfs))
            }
            _ => None,
        },
        _ => None,
    };
    let Some((node, fields)) = con else {
        return Err(format!(
            "{} vs {}",
            m.render_outcome(out, 0),
            show_denot(ev, d, 0)
        ));
    };
    if depth == 0 {
        return Ok(());
    }
    let root = m.push_root(node);
    let mut verdict = Ok(());
    for (i, field) in fields.iter().enumerate() {
        // Re-read the field from the rooted parent: forcing the previous
        // field may have run a collection that moved this one.
        let Some(Whnf::Con(_, fs)) = m.heap().whnf(m.root(root)) else {
            unreachable!("a constructor was matched above")
        };
        let sub = match m.eval_node(fs[i], false) {
            Ok(o) => admits(m, &o, ev, &ev.force(field), depth - 1),
            Err(e) => Err(format!("machine error: {e}")),
        };
        if let Err(why) = sub {
            verdict = Err(format!("field {i}: {why}"));
            break;
        }
    }
    m.pop_root();
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_machine::compile_program;
    use urk_syntax::{desugar_expr, parse_expr_src, DataEnv, Exception};

    fn empty_image() -> Arc<Code> {
        Arc::new(compile_program(&[]))
    }

    fn core_of(data: &DataEnv, src: &str) -> Rc<Expr> {
        Rc::new(desugar_expr(&parse_expr_src(src).expect("parses"), data).expect("desugars"))
    }

    #[test]
    fn clean_plan_reproduces_the_oracle_exactly() {
        let data = DataEnv::new();
        let query = core_of(
            &data,
            "let f = \\n -> if n == 0 then 0 else n + f (n - 1) in f 50",
        );
        let plan = FaultPlan {
            horizon: 64,
            ..FaultPlan::default()
        };
        let r = chaos_run_with_plan(
            &[],
            &empty_image(),
            &query,
            &MachineConfig::default(),
            200_000,
            plan,
        );
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.outcome, "1275");
        assert_eq!(r.oracle, "1275");
    }

    #[test]
    fn injected_interrupt_is_allowed_and_the_machine_recovers() {
        let data = DataEnv::new();
        let query = core_of(
            &data,
            "let f = \\n -> if n == 0 then 0 else n + f (n - 1) in f 200",
        );
        let plan = FaultPlan {
            horizon: 10_000,
            injections: vec![(100, Exception::Interrupt)],
            ..FaultPlan::default()
        };
        let r = chaos_run_with_plan(
            &[],
            &empty_image(),
            &query,
            &MachineConfig::default(),
            400_000,
            plan,
        );
        assert!(r.passed(), "{r:?}");
        assert_eq!(r.outcome, "Caught(Interrupt)");
        assert!(r.faults_fired >= 1);
    }

    #[test]
    fn seeded_runs_hold_both_invariants() {
        let data = DataEnv::new();
        let query = core_of(
            &data,
            "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 12",
        );
        for seed in 0..16 {
            let r = chaos_run(
                &[],
                &empty_image(),
                &query,
                &MachineConfig::default(),
                400_000,
                seed,
            );
            assert!(r.passed(), "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn sabotaged_restore_is_caught_by_the_audit() {
        let data = DataEnv::new();
        // The outer `s + 1` forces the thunk `s`, so an update frame for it
        // is on the stack for the whole inner loop — the injected interrupt
        // trims past it, and the sabotaged restore strands the black hole.
        let query = core_of(
            &data,
            "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 300) in s + 1",
        );
        let plan = FaultPlan {
            horizon: 50_000,
            injections: vec![(200, Exception::Interrupt)],
            sabotage_async_restore: true,
            ..FaultPlan::default()
        };
        let r = chaos_run_with_plan(
            &[],
            &empty_image(),
            &query,
            &MachineConfig::default(),
            400_000,
            plan,
        );
        assert!(
            !r.heap_consistent,
            "a deliberately-broken restore must fail the audit: {r:?}"
        );
    }

    #[test]
    fn sabotaged_forwarding_is_caught_by_the_generational_audit() {
        let data = DataEnv::new();
        let query = core_of(
            &data,
            "let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 300",
        );
        // Force a minor collection mid-run; the armed sabotage then plants
        // a stale Forwarded cell in the tenured space. The cell is
        // unreachable, so soundness holds — but the audit must fail.
        let plan = FaultPlan {
            horizon: 50_000,
            force_minor_at: vec![150],
            sabotage_forwarding: true,
            ..FaultPlan::default()
        };
        let r = chaos_run_with_plan(
            &[],
            &empty_image(),
            &query,
            &MachineConfig::default(),
            400_000,
            plan,
        );
        assert!(
            !r.heap_consistent,
            "a planted stale forwarding pointer must fail the audit: {r:?}"
        );
        assert!(r.sound, "the planted cell is unreachable: {r:?}");
    }
}
