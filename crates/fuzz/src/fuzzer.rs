//! The coverage-guided differential fuzzing loop.
//!
//! One run is a deterministic function of its [`FuzzConfig`]: replay the
//! on-disk corpus, seed an in-memory corpus with generated terms, then
//! mutate corpus parents — admitting any candidate whose execution hits a
//! coverage feature ([`Fingerprint`]) the run has not seen — until the
//! execution budget is spent or the oracle reports a failure. A failure
//! stops the run: the candidate is shrunk ([`crate::shrink`]) to a
//! minimal term failing the *same* check and written to disk as a
//! replayable `.urk` case. On a clean exit the corpus is minimized to a
//! greedy feature cover and (optionally) persisted.
//!
//! Wall-clock never influences the run: interrupts are scheduled by
//! candidate index, timing is reported separately from the
//! [`FuzzReport::deterministic_summary`], and corpus/counterexample
//! filenames are content-addressed.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urk_syntax::core::Expr;
use urk_syntax::{expr_canonical_bytes, expr_fingerprint};

use crate::corpus::{
    case_filename, counterexample_filename, list_cases, load_case, minimize_corpus, render_case,
};
use crate::ctx::FuzzCtx;
use crate::gen::TermGen;
use crate::mutate::Mutator;
use crate::oracle::{run_oracle, CheckKind, OracleConfig};
use crate::shrink::shrink;

/// Everything that determines a fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    pub seed: u64,
    /// Oracle executions to spend (replayed cases count).
    pub execs: u64,
    /// Generator depth for seed terms.
    pub max_depth: u32,
    /// Mutants above this AST size are rejected before execution.
    pub max_term_size: usize,
    /// Chaos rounds (seeded fault plans) per candidate.
    pub chaos_rounds: u64,
    /// Arm the seeded §5.1 sabotage bug in every chaos plan.
    pub sabotage: bool,
    /// Run the wall-clock interrupt check every N-th candidate (0 = off).
    pub interrupt_every: u64,
    /// Replay + persist the minimized corpus here.
    pub corpus_dir: Option<PathBuf>,
    /// Write shrunk counterexamples here.
    pub out_dir: Option<PathBuf>,
    /// Oracle-evaluation budget for shrinking.
    pub shrink_attempts: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            execs: 256,
            max_depth: 5,
            max_term_size: 400,
            chaos_rounds: 1,
            sabotage: false,
            interrupt_every: 64,
            corpus_dir: None,
            out_dir: None,
            shrink_attempts: 600,
        }
    }
}

/// A found-and-shrunk counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub kind: CheckKind,
    pub detail: String,
    /// The original failing candidate's pretty text.
    pub original: String,
    /// The minimized term's pretty text.
    pub minimized: String,
    /// Where the replayable case was written (the `out_dir` copy when
    /// set, else the promoted `corpus_dir` copy).
    pub path: Option<PathBuf>,
}

/// What one run did. [`FuzzReport::deterministic_summary`] is the
/// seed-stable part (the determinism suite asserts two runs of the same
/// seed produce identical summaries); `elapsed_ms` is reported separately.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub seed: u64,
    pub execs: u64,
    pub skipped: u64,
    /// Mutants rejected before execution (ill-typed, oversized, or
    /// already-seen terms).
    pub rejected: u64,
    /// Minimized corpus size at exit.
    pub corpus: usize,
    /// Distinct coverage features seen (op-pair edges + stats buckets +
    /// outcomes).
    pub features: usize,
    /// The op-pair-edge subset of `features`.
    pub edges: usize,
    /// Execution index of the last new-coverage admission.
    pub plateau_at: u64,
    pub counterexample: Option<Counterexample>,
    pub elapsed_ms: u64,
}

impl FuzzReport {
    /// The wall-clock-free summary line.
    pub fn deterministic_summary(&self) -> String {
        let failure = match &self.counterexample {
            None => "none".to_string(),
            Some(cx) => format!("{} [{}]", cx.kind, cx.minimized),
        };
        format!(
            "fuzz seed={} execs={} skipped={} rejected={} corpus={} features={} edges={} plateau={} failure={}",
            self.seed,
            self.execs,
            self.skipped,
            self.rejected,
            self.corpus,
            self.features,
            self.edges,
            self.plateau_at,
            failure
        )
    }
}

/// An admitted corpus entry.
struct Entry {
    query: Rc<Expr>,
    features: Vec<u32>,
}

/// Deepest nesting a corpus entry may have: reloading a persisted case
/// must not overflow the parser's stack wherever the campaign runs.
const MAX_PERSIST_DEPTH: usize = 24;

/// True when the term survives the case-file round trip
/// (render → parse → desugar) with its canonical bytes intact, i.e.
/// replaying the persisted file exercises exactly this term.
fn persists_faithfully(query: &Expr) -> bool {
    load_case(&render_case(query, &[]))
        .is_ok_and(|case| expr_canonical_bytes(&case.query) == expr_canonical_bytes(query))
}

/// The nesting depth of a term (a leaf is 1).
fn expr_depth(e: &Expr) -> usize {
    1 + match e {
        Expr::Var(_) | Expr::Int(_) | Expr::Char(_) | Expr::Str(_) => 0,
        Expr::Con(_, args) | Expr::Prim(_, args) => {
            args.iter().map(|a| expr_depth(a)).max().unwrap_or(0)
        }
        Expr::App(f, x) => expr_depth(f).max(expr_depth(x)),
        Expr::Lam(_, b) | Expr::Raise(b) => expr_depth(b),
        Expr::Let(_, r, b) => expr_depth(r).max(expr_depth(b)),
        Expr::LetRec(binds, b) => binds
            .iter()
            .map(|(_, rhs)| expr_depth(rhs))
            .max()
            .unwrap_or(0)
            .max(expr_depth(b)),
        Expr::Case(s, alts) => alts
            .iter()
            .map(|a| expr_depth(&a.rhs))
            .max()
            .unwrap_or(0)
            .max(expr_depth(s)),
    }
}

/// Runs one fuzzing campaign.
///
/// # Errors
///
/// Only on I/O problems (unreadable corpus file, unwritable output
/// directory) or an unloadable case file; oracle failures are *results*,
/// reported in the returned [`FuzzReport`].
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let started = Instant::now();
    let ctx = FuzzCtx::new();
    let oracle_cfg = OracleConfig {
        chaos_seeds: (0..cfg.chaos_rounds)
            .map(|i| cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
            .collect(),
        sabotage: cfg.sabotage,
        ..OracleConfig::default()
    };

    let mut gen = TermGen::new(cfg.seed, cfg.max_depth);
    let mut mutator = Mutator::new(cfg.seed, &ctx.global_names());
    let mut pick = SmallRng::seed_from_u64(cfg.seed ^ 0x7069_636b);

    let mut report = FuzzReport {
        seed: cfg.seed,
        ..FuzzReport::default()
    };
    let mut corpus: Vec<Entry> = Vec::new();
    let mut seen_features: BTreeSet<u32> = BTreeSet::new();
    let mut seen_terms: BTreeSet<u64> = BTreeSet::new();

    let admit = |report: &mut FuzzReport,
                 corpus: &mut Vec<Entry>,
                 seen_features: &mut BTreeSet<u32>,
                 query: &Rc<Expr>,
                 features: &[u32]| {
        if features.iter().any(|f| !seen_features.contains(f)) {
            // Corpus entries must replay everywhere. Admission refuses
            // terms nested too deeply for the recursive-descent parser on
            // a small (test-thread) stack, and terms that do not survive
            // the disk round trip with canonical bytes intact — a mutant
            // spliced from a replayed (desugared) parent can carry gensym
            // binders that pretty-print as `$aN`, which the parser
            // rejects; persisting one would corrupt the corpus for the
            // next campaign.
            if expr_depth(query) > MAX_PERSIST_DEPTH || !persists_faithfully(query) {
                return;
            }
            seen_features.extend(features.iter().copied());
            corpus.push(Entry {
                query: Rc::clone(query),
                features: features.to_vec(),
            });
            report.plateau_at = report.execs;
        }
    };

    let finish = |mut report: FuzzReport,
                  corpus: Vec<Entry>,
                  seen_features: &BTreeSet<u32>,
                  cfg: &FuzzConfig,
                  started: Instant|
     -> Result<FuzzReport, String> {
        let minimized = minimize_corpus(
            corpus
                .into_iter()
                .map(|e| (e.query, e.features, ()))
                .collect(),
        );
        report.corpus = minimized.len();
        report.features = seen_features.len();
        report.edges = seen_features
            .iter()
            .filter(|&&f| f < (urk_machine::OP_KINDS * urk_machine::OP_KINDS) as u32)
            .count();
        if let Some(dir) = &cfg.corpus_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            // Clear stale generation files so the directory *is* the
            // minimized corpus (counterexamples `cx-*` are kept).
            for old in list_cases(dir) {
                if old
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("cg-"))
                {
                    std::fs::remove_file(&old).map_err(|e| format!("remove stale case: {e}"))?;
                }
            }
            for (query, _, ()) in &minimized {
                let path = dir.join(case_filename(query));
                let text = render_case(query, &[format!("seed: {}", cfg.seed)]);
                std::fs::write(&path, text)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
        report.elapsed_ms = started.elapsed().as_millis() as u64;
        Ok(report)
    };

    let fail = |report: &mut FuzzReport,
                ctx: &FuzzCtx,
                query: Rc<Expr>,
                kind: CheckKind,
                detail: String|
     -> Result<(), String> {
        let minimized = shrink(
            ctx,
            Rc::clone(&query),
            kind,
            &oracle_cfg,
            cfg.shrink_attempts,
        );
        // The minimized case goes to the --out directory *and* is
        // promoted into the replayed corpus: `tests/corpus_regress.rs`
        // auto-discovers `corpus/*.urk`, and the next campaign's phase-1
        // replay runs `cx-*` files first, so a found bug becomes a
        // differential regression test with no manual step.
        let name = counterexample_filename(&minimized);
        let text = render_case(
            &minimized,
            &[
                format!("seed: {}", cfg.seed),
                format!("check: {kind}"),
                format!("detail: {detail}"),
            ],
        );
        let mut dirs: Vec<&PathBuf> = Vec::new();
        dirs.extend(&cfg.out_dir);
        dirs.extend(&cfg.corpus_dir);
        dirs.dedup();
        let mut path = None;
        for dir in dirs {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let file = dir.join(&name);
            std::fs::write(&file, &text).map_err(|e| format!("write {}: {e}", file.display()))?;
            path.get_or_insert(file);
        }
        report.counterexample = Some(Counterexample {
            kind,
            detail,
            original: urk_syntax::pretty::pretty(&query),
            minimized: urk_syntax::pretty::pretty(&minimized),
            path,
        });
        Ok(())
    };

    // Phase 1: replay the persisted corpus — regression cases run before
    // any fresh exploration, exactly like a CI replay job would.
    if let Some(dir) = &cfg.corpus_dir {
        for path in list_cases(dir) {
            if report.execs >= cfg.execs {
                break;
            }
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let case = load_case(&src).map_err(|e| format!("load {}: {e}", path.display()))?;
            let v = run_oracle(&case.ctx, &case.query, &oracle_cfg);
            report.execs += 1;
            if v.skipped {
                report.skipped += 1;
                continue;
            }
            if let Some(f) = v.failure {
                fail(&mut report, &case.ctx, case.query, f.kind, f.detail)?;
                return finish(report, corpus, &seen_features, cfg, started);
            }
            // Fold replayed cases into this run's corpus when they still
            // typecheck against the live prelude.
            if ctx.well_typed(&case.query) {
                seen_terms.insert(expr_fingerprint(&case.query));
                admit(
                    &mut report,
                    &mut corpus,
                    &mut seen_features,
                    &case.query,
                    &v.fingerprint.features,
                );
            }
        }
    }

    // Phase 2: explore. The first candidates are fresh generator output;
    // once a corpus exists, mutation takes over (with a generator fallback
    // whenever mutation fails to produce a fresh well-typed term).
    let mut attempts_left = cfg.execs.saturating_mul(20);
    while report.execs < cfg.execs && report.counterexample.is_none() && attempts_left > 0 {
        attempts_left -= 1;
        let candidate: Rc<Expr> = if corpus.is_empty() || report.execs < 24 {
            Rc::new(gen.term())
        } else {
            let parent = &corpus[pick.gen_range(0..corpus.len())].query;
            match mutator.mutate(parent) {
                Some(m) => Rc::new(m),
                None => Rc::new(gen.term()),
            }
        };
        if candidate.size() > cfg.max_term_size
            || !ctx.well_typed(&candidate)
            || !seen_terms.insert(expr_fingerprint(&candidate))
        {
            report.rejected += 1;
            continue;
        }
        let with_interrupt = cfg.interrupt_every > 0
            && report.execs % cfg.interrupt_every == cfg.interrupt_every - 1;
        let v = run_oracle(
            &ctx,
            &candidate,
            &OracleConfig {
                wallclock_interrupt: with_interrupt,
                ..oracle_cfg.clone()
            },
        );
        report.execs += 1;
        if v.skipped {
            report.skipped += 1;
            continue;
        }
        if let Some(f) = v.failure {
            fail(&mut report, &ctx, candidate, f.kind, f.detail)?;
            break;
        }
        admit(
            &mut report,
            &mut corpus,
            &mut seen_features,
            &candidate,
            &v.fingerprint.features,
        );
    }

    finish(report, corpus, &seen_features, cfg, started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::{Hint, Symbol};

    #[test]
    fn gensym_bearing_terms_are_not_persistable() {
        // A mutant spliced from a desugared parent can carry `$`-named
        // binders; its case file would not re-parse, so admission must
        // refuse it while plain terms pass.
        let g = Symbol::fresh(Hint::A);
        let bad = Expr::let_(g, Expr::int(1), Expr::var(g));
        assert!(!persists_faithfully(&bad));
        let good = Expr::add(Expr::int(1), Expr::int(2));
        assert!(persists_faithfully(&good));
    }

    #[test]
    fn a_counterexample_is_promoted_into_the_replayed_corpus() {
        // A campaign that finds a bug (the seeded §5.1 sabotage) must
        // leave its minimized case in the corpus directory, so the
        // differential regression suite and the next campaign's phase-1
        // replay pick it up automatically.
        let dir = std::env::temp_dir().join(format!("urk-fuzz-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FuzzConfig {
            seed: 5,
            execs: 60,
            chaos_rounds: 2,
            interrupt_every: 0,
            sabotage: true,
            corpus_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg).expect("fuzz run");
        let cx = report
            .counterexample
            .expect("the armed sabotage bug must be found");
        let path = cx.path.expect("the case must be persisted");
        assert_eq!(path.parent(), Some(dir.as_path()), "promoted into corpus");
        assert!(path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("cx-") && n.ends_with(".urk")));
        let text = std::fs::read_to_string(&path).expect("replayable case exists");
        assert!(text.contains("counterexample ="), "case file is replayable");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_short_campaign_is_deterministic_and_covers() {
        let cfg = FuzzConfig {
            seed: 9,
            execs: 40,
            chaos_rounds: 0,
            interrupt_every: 0,
            ..FuzzConfig::default()
        };
        let r1 = run_fuzz(&cfg).expect("fuzz run");
        let r2 = run_fuzz(&cfg).expect("fuzz run");
        assert_eq!(r1.deterministic_summary(), r2.deterministic_summary());
        assert!(r1.counterexample.is_none(), "clean system must not fail");
        assert!(r1.corpus > 0, "no coverage admitted");
        assert!(r1.edges > 0, "no op-pair edges observed");
    }
}
