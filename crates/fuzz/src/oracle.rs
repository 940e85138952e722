//! The cross-product differential oracle for one candidate term.
//!
//! Every candidate is evaluated:
//!
//! * **denotationally** — the ground truth: a value, or an imprecise
//!   exception *set*;
//! * on the **machine at both tiers** (direct lowering and the
//!   analysis-licensed tier-2 image), under left-to-right, right-to-left,
//!   and a seeded order — six machine runs whose renderings must agree
//!   exactly per order (tier 1 vs tier 2 is the tier-2 license check) and
//!   individually refine the denotation (§3.5: any member of the set is
//!   a correct answer);
//! * under seeded [`FaultPlan`] **chaos** at both tiers (the §5.1
//!   robustness claim, via `urk_io::chaos_run_with_plan`);
//! * optionally under a **wall-clock interrupt** delivered from a real
//!   watchdog thread mid-run.
//!
//! Every machine is audited after its episode ([`Machine::audit_heap`]) —
//! the structured [`urk_machine::HeapAudit`] report lands in the failure
//! detail. Runs that hit the step limit are *skipped*, not failed: the
//! two tiers count steps differently, so a limit on one side proves
//! nothing (and the generator's grammar terminates; limits only trip on
//! pathological mutants).

use std::rc::Rc;
use std::sync::Arc;

use urk_denot::{show_denot, Denot, DenotConfig, DenotEvaluator, Env};
use urk_io::{admits, chaos_run_with_plan};
use urk_machine::{FaultPlan, Machine, MachineConfig, MachineError, Outcome};
use urk_syntax::core::Expr;
use urk_syntax::Exception;

use crate::coverage::Fingerprint;
use crate::ctx::FuzzCtx;

/// Which invariant a failing candidate broke. Shrinking preserves the
/// kind: the minimized term fails the *same* check as the original.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// Tier 1 and tier 2 disagreed under the same order.
    BackendDivergence,
    /// A machine produced a value the denotation does not justify.
    UnsoundValue,
    /// A machine raised an exception outside the denoted set.
    UnsoundException,
    /// An exception escaped the episode's catch mark.
    UncaughtEscape,
    /// `Heap::audit()` found the machine unsafe to reuse after a clean run.
    AuditFailure,
    /// A chaos-injected run broke soundness, heap consistency, or
    /// post-fault re-evaluation (`ChaosReport::passed() == false`).
    ChaosFailure,
    /// A wall-clock interrupt produced an unjustified outcome or left the
    /// machine unusable.
    InterruptFailure,
    /// The machine died with an internal error.
    MachineInternal,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckKind::BackendDivergence => "backend-divergence",
            CheckKind::UnsoundValue => "unsound-value",
            CheckKind::UnsoundException => "unsound-exception",
            CheckKind::UncaughtEscape => "uncaught-escape",
            CheckKind::AuditFailure => "audit-failure",
            CheckKind::ChaosFailure => "chaos-failure",
            CheckKind::InterruptFailure => "interrupt-failure",
            CheckKind::MachineInternal => "machine-internal",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for CheckKind {
    type Err = String;
    fn from_str(s: &str) -> Result<CheckKind, String> {
        Ok(match s {
            "backend-divergence" => CheckKind::BackendDivergence,
            "unsound-value" => CheckKind::UnsoundValue,
            "unsound-exception" => CheckKind::UnsoundException,
            "uncaught-escape" => CheckKind::UncaughtEscape,
            "audit-failure" => CheckKind::AuditFailure,
            "chaos-failure" => CheckKind::ChaosFailure,
            "interrupt-failure" => CheckKind::InterruptFailure,
            "machine-internal" => CheckKind::MachineInternal,
            other => return Err(format!("unknown check kind '{other}'")),
        })
    }
}

/// A broken invariant, with enough detail to diagnose without replaying.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: CheckKind,
    pub detail: String,
}

/// What one oracle pass concluded.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// The first invariant violation, if any.
    pub failure: Option<Failure>,
    /// True when the candidate was inconclusive (step-limit or
    /// denotational fuel exhaustion) — not counted as covered or failing.
    pub skipped: bool,
    /// Coverage features from the machine runs.
    pub fingerprint: Fingerprint,
    /// Tier-1 left-to-right step count (the coverage-signal run).
    pub steps: u64,
}

impl Verdict {
    fn fail(kind: CheckKind, detail: String) -> Verdict {
        Verdict {
            failure: Some(Failure { kind, detail }),
            ..Verdict::default()
        }
    }

    fn skip() -> Verdict {
        Verdict {
            skipped: true,
            ..Verdict::default()
        }
    }
}

/// Oracle tunables. `machine` is the base configuration every run derives
/// from (order, chaos, coverage, and interrupts are overridden per run).
#[derive(Clone, Debug)]
pub struct OracleConfig {
    pub machine: MachineConfig,
    pub denot_fuel: u64,
    /// One chaos round per seed, each run at both tiers.
    pub chaos_seeds: Vec<u64>,
    /// Arm `FaultPlan::sabotage_async_restore` on every chaos plan (the
    /// seeded-bug acceptance switch: the audit must catch it).
    pub sabotage: bool,
    /// Also run one wall-clock interrupt check (a real watchdog thread;
    /// the verdict is deterministic — any landing point is acceptable —
    /// but its timing is not, so it never feeds the fingerprint).
    pub wallclock_interrupt: bool,
    /// The seed for the `OrderPolicy::Seeded` run.
    pub seeded_order: u64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            machine: MachineConfig {
                max_steps: 400_000,
                gc_threshold: 20_000,
                ..MachineConfig::default()
            },
            denot_fuel: 2_000_000,
            chaos_seeds: vec![],
            sabotage: false,
            wallclock_interrupt: false,
            seeded_order: 11,
        }
    }
}

/// One machine episode's observable behaviour, normalized for comparison,
/// and whether the denotation [`admits`] it.
struct Observed {
    shown: String,
    raised: bool,
    admitted: Result<(), String>,
}

/// Which image one oracle run links: tier 1 or tier 2.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Engine {
    Tier1,
    Tier2,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Tier1 => "compiled",
            Engine::Tier2 => "compiled-t2",
        }
    }

    fn code(self, ctx: &FuzzCtx) -> &Arc<urk_machine::Code> {
        match self {
            Engine::Tier1 => &ctx.code,
            Engine::Tier2 => &ctx.code_t2,
        }
    }
}

/// Runs one engine/order combination; `Err` is a verdict-ending
/// condition (skip or failure).
#[allow(clippy::too_many_arguments)]
fn run_one(
    ctx: &FuzzCtx,
    query: &Rc<Expr>,
    ev: &DenotEvaluator,
    denot: &Denot,
    base: &MachineConfig,
    order: urk_machine::OrderPolicy,
    engine: Engine,
    with_coverage: bool,
    fp: &mut Fingerprint,
    steps_out: &mut u64,
) -> Result<Observed, Verdict> {
    let mut m = Machine::new(MachineConfig {
        order,
        coverage: with_coverage,
        ..base.clone()
    });
    m.link_code(Arc::clone(engine.code(ctx)));
    let out = m.eval_code_expr(query, true);
    let outcome = match out {
        Ok(o) => o,
        Err(MachineError::StepLimit) => return Err(Verdict::skip()),
        Err(e) => {
            return Err(Verdict::fail(
                CheckKind::MachineInternal,
                format!("{} {}: {e}", engine.name(), order_name(order)),
            ))
        }
    };
    let shown = match &outcome {
        Outcome::Value(n) => format!("value {}", m.render(*n, 16)),
        Outcome::Caught(e) => format!("caught {e}"),
        Outcome::Uncaught(e) => {
            return Err(Verdict::fail(
                CheckKind::UncaughtEscape,
                format!("{} {}: uncaught {e}", engine.name(), order_name(order)),
            ))
        }
    };
    let audit = m.audit_heap();
    if !audit.is_consistent() {
        return Err(Verdict::fail(
            CheckKind::AuditFailure,
            format!("{} {}: {audit}", engine.name(), order_name(order)),
        ));
    }
    if with_coverage {
        *steps_out = m.stats().steps;
    }
    fp.merge(&Fingerprint::collect(
        m.coverage(),
        m.stats(),
        Some(&outcome),
    ));
    // After the fingerprint: re-entering the rendered fields runs steps.
    Ok(Observed {
        shown,
        raised: matches!(outcome, Outcome::Caught(_)),
        admitted: admits(&mut m, &outcome, ev, denot, 16),
    })
}

fn order_name(order: urk_machine::OrderPolicy) -> &'static str {
    match order {
        urk_machine::OrderPolicy::LeftToRight => "l2r",
        urk_machine::OrderPolicy::RightToLeft => "r2l",
        urk_machine::OrderPolicy::Seeded(_) => "seeded",
    }
}

/// The full cross-product check for one candidate.
pub fn run_oracle(ctx: &FuzzCtx, query: &Rc<Expr>, cfg: &OracleConfig) -> Verdict {
    // The ground truth. The depth guard is deliberately lower than the
    // chaos driver's 2,000: the evaluator recurses on the Rust stack, and
    // mutants splice in huge literals (`fzsum 3037000499`) that would
    // blow a 2 MiB test-thread stack before fuel runs out. Exhaustion
    // denotes ⊥, which the verdict below counts as a skip.
    let ev = DenotEvaluator::with_config(DenotConfig {
        fuel: cfg.denot_fuel,
        max_depth: 256,
        ..DenotConfig::default()
    });
    let denv = ev.bind_recursive(&ctx.binds, &Env::empty());
    let denot = ev.eval(query, &denv);
    if matches!(&denot, Denot::Bad(s) if s.is_all()) {
        // Fuel or depth exhaustion approximates from below by ⊥ (the full
        // set): everything refines it, so the candidate proves nothing.
        return Verdict::skip();
    }
    let oracle = show_denot(&ev, &denot, 16);

    let orders = [
        urk_machine::OrderPolicy::LeftToRight,
        urk_machine::OrderPolicy::RightToLeft,
        urk_machine::OrderPolicy::Seeded(cfg.seeded_order),
    ];
    let mut fp = Fingerprint::default();
    let mut steps = 0u64;
    for order in orders {
        let tier1 = match run_one(
            ctx,
            query,
            &ev,
            &denot,
            &cfg.machine,
            order,
            Engine::Tier1,
            true,
            &mut fp,
            &mut steps,
        ) {
            Ok(o) => o,
            Err(v) => return v,
        };
        let tier2 = match run_one(
            ctx,
            query,
            &ev,
            &denot,
            &cfg.machine,
            order,
            Engine::Tier2,
            false,
            &mut fp,
            &mut steps,
        ) {
            Ok(o) => o,
            Err(v) => return v,
        };
        // Same order ⇒ byte-identical behaviour at both tiers: the
        // analysis license never buys observable divergence, only fewer
        // steps.
        let (c, c2) = (&tier1.shown, &tier2.shown);
        if c != c2 {
            return Verdict::fail(
                CheckKind::BackendDivergence,
                format!("{}: compiled={c} compiled-t2={c2}", order_name(order)),
            );
        }
        // §3.5 refinement against the denoted set.
        if let Err(why) = tier1.admitted.and(tier2.admitted) {
            let kind = if tier1.raised {
                CheckKind::UnsoundException
            } else {
                CheckKind::UnsoundValue
            };
            return Verdict::fail(
                kind,
                format!("{}: {c}, oracle {oracle}: {why}", order_name(order)),
            );
        }
    }

    // Chaos rounds: both tiers, seeded plans over the tier-1 horizon. On
    // the tier-2 image fused regions must leave every suspension
    // restorable (§5.1), so asynchronous injection mid-superinstruction
    // has to behave exactly like injection at the equivalent unfused
    // step boundary.
    for &seed in &cfg.chaos_seeds {
        for engine in [Engine::Tier1, Engine::Tier2] {
            let mut plan = FaultPlan::generate(seed, steps.max(64));
            plan.sabotage_async_restore = cfg.sabotage;
            let rep = chaos_run_with_plan(
                &ctx.binds,
                engine.code(ctx),
                query,
                &cfg.machine,
                cfg.denot_fuel,
                plan,
            );
            if !rep.passed() {
                return Verdict::fail(
                    CheckKind::ChaosFailure,
                    format!(
                        "{} chaos seed {seed}: sound={} heap={} reeval={} outcome={} oracle={}",
                        engine.name(),
                        rep.sound,
                        rep.heap_consistent,
                        rep.reeval_ok,
                        rep.outcome,
                        rep.oracle
                    ),
                );
            }
        }
    }

    if cfg.wallclock_interrupt {
        if let Some(f) = wallclock_interrupt_check(ctx, query, &cfg.machine, &ev, &denot, &oracle) {
            return Verdict::fail(CheckKind::InterruptFailure, f);
        }
    }

    // Value-profile feature: the shape of the candidate's denoted
    // exception set (which imprecise members combined, or "a value").
    fp.add_exn_set_shape(match &denot {
        Denot::Ok(_) => None,
        Denot::Bad(set) => Some(set),
    });

    Verdict {
        failure: None,
        skipped: false,
        fingerprint: fp,
        steps,
    }
}

/// Delivers a real wall-clock `Interrupt` mid-run and checks §5.1's
/// contract: the outcome is either the undisturbed answer or
/// `Caught(Interrupt)`, the heap audits clean, and the *same machine*
/// re-evaluates to an oracle-justified answer afterwards.
fn wallclock_interrupt_check(
    ctx: &FuzzCtx,
    query: &Rc<Expr>,
    base: &MachineConfig,
    ev: &DenotEvaluator,
    denot: &Denot,
    oracle: &str,
) -> Option<String> {
    let mut m = Machine::new(base.clone());
    m.link_code(Arc::clone(&ctx.code));
    let handle = m.interrupt_handle();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_micros(150));
        handle.deliver(Exception::Interrupt);
    });
    let out = m.eval_code_expr(query, true);
    watchdog.join().ok();
    // The watchdog may have fired after completion; a pending interrupt
    // must not bleed into rendering or the re-evaluation.
    m.interrupt_handle().clear();
    let ok = match &out {
        Ok(Outcome::Caught(Exception::Interrupt)) => true,
        Ok(o @ (Outcome::Value(_) | Outcome::Caught(_))) => {
            admits(&mut m, o, ev, denot, 16).is_ok()
        }
        _ => false,
    };
    if !ok {
        return Some(format!("interrupted run produced {out:?}, oracle {oracle}"));
    }
    let audit = m.audit_heap();
    if !audit.is_consistent() {
        return Some(format!("after interrupt: {audit}"));
    }
    let re = m.eval_code_expr(query, true);
    let re_ok = match &re {
        Ok(o @ (Outcome::Value(_) | Outcome::Caught(_))) => {
            admits(&mut m, o, ev, denot, 16).is_ok()
        }
        _ => false,
    };
    if !re_ok {
        return Some(format!(
            "post-interrupt re-evaluation produced {re:?}, oracle {oracle}"
        ));
    }
    let audit = m.audit_heap();
    if !audit.is_consistent() {
        return Some(format!("after re-evaluation: {audit}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TermGen;

    #[test]
    fn generated_terms_pass_the_oracle() {
        let ctx = FuzzCtx::new();
        let cfg = OracleConfig {
            chaos_seeds: vec![3],
            ..OracleConfig::default()
        };
        let mut g = TermGen::new(5, 4);
        let mut checked = 0;
        for _ in 0..40 {
            let t = Rc::new(g.term());
            let v = run_oracle(&ctx, &t, &cfg);
            assert!(
                v.failure.is_none(),
                "clean oracle failed on {t:?}: {:?}",
                v.failure
            );
            if !v.skipped {
                checked += 1;
                assert!(!v.fingerprint.features.is_empty());
            }
        }
        assert!(
            checked > 20,
            "too many skipped candidates ({checked} checked)"
        );
    }

    #[test]
    fn sabotage_is_caught_as_a_chaos_failure() {
        let ctx = FuzzCtx::new();
        let cfg = OracleConfig {
            chaos_seeds: (0..8).collect(),
            sabotage: true,
            ..OracleConfig::default()
        };
        // A shared expensive thunk: injections land mid-update, and the
        // sabotaged restore must strand a black hole the audit reports.
        let t = Rc::new(Expr::add(
            Expr::let_(
                "s",
                Expr::app(Expr::var("fzsum"), Expr::int(24)),
                Expr::add(Expr::var("s"), Expr::var("s")),
            ),
            Expr::int(1),
        ));
        let v = run_oracle(&ctx, &t, &cfg);
        match v.failure {
            Some(f) => assert_eq!(f.kind, CheckKind::ChaosFailure, "{}", f.detail),
            None => panic!("sabotaged restore was not detected"),
        }
    }
}
