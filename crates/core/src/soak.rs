//! Long-run soak testing: millions of evaluations under continuous
//! invariant checking.
//!
//! The fuzzer (`urk-fuzz`) hunts for *terms* that break an invariant;
//! the soak harness holds the terms fixed and hunts for *state decay* —
//! a heap that drifts out of consistency after the 10⁶th episode, a
//! cache that returns different bytes for the same key, a pool that
//! reorders a batch. Three lanes run against one seeded term ring:
//!
//! * **machine lane** — long-lived tier-1 and tier-2 machines evaluate
//!   ring terms over and over; every render must match the expected
//!   answer recorded on first evaluation (or `Caught(Interrupt)` when
//!   the lane's periodic interrupt churn landed), and both machines are
//!   [`urk_machine::Machine::audit_heap`]-audited on a fixed cadence;
//! * **pool lane** — an [`EvalPool`] evaluates batches (with duplicates)
//!   of the same terms' source text; results must come back in
//!   submission order and byte-identical to the first answer for that
//!   source, cache hit or not;
//! * **serve lane** (optional) — the same batch assertions through a live
//!   `urk serve` TCP server and [`Client`].
//!
//! The driver emits one JSON progress line per reporting interval and a
//! final [`SoakReport`]; any violation is recorded, never panicked, so a
//! soak always produces a report. Each line also carries the process's
//! resident set and the size of the global symbol interner. Once every
//! lane has answered every ring source, the ring has spelled every name
//! it ever will, so any later interner growth is request state that
//! outlived its request: an `interner-growth` violation
//! ([`interner_growth`]).

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urk_fuzz::{FuzzCtx, TermGen, FUZZ_PRELUDE_SRC};
use urk_machine::{Machine, MachineConfig, Outcome};
use urk_syntax::core::Expr;
use urk_syntax::{pretty::pretty, Exception, Symbol};

use crate::pool::{EvalPool, PoolConfig};
use crate::serve::{Client, RemoteOutcome, ServeConfig, Server};
use crate::session::Options;

/// Soak tunables.
#[derive(Debug)]
pub struct SoakConfig {
    /// Wall-clock budget.
    pub duration: Duration,
    /// Pool worker threads.
    pub jobs: usize,
    /// Seed for the term ring and batch composition.
    pub seed: u64,
    /// Jobs per pool/serve batch.
    pub batch: usize,
    /// Also run the serve lane (a live TCP server).
    pub serve: bool,
    /// JSON progress-line interval (zero disables progress output).
    pub report_every: Duration,
    /// Distinct terms in the ring.
    pub ring: usize,
    /// Machine-lane episodes between audits.
    pub audit_every: u64,
    /// Machine-lane episodes between interrupt deliveries (0 = off).
    pub interrupt_every: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            duration: Duration::from_secs(60),
            jobs: 4,
            seed: 1,
            batch: 64,
            serve: false,
            report_every: Duration::from_secs(5),
            ring: 48,
            audit_every: 256,
            interrupt_every: 509,
        }
    }
}

/// What a soak run did. `violations` empty ⇔ the run is clean.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    pub evals: u64,
    pub machine_evals: u64,
    pub pool_evals: u64,
    pub serve_evals: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub audits: u64,
    pub interrupts: u64,
    /// First few violation descriptions (capped; the count is exact).
    pub violations: Vec<String>,
    pub violation_count: u64,
    pub elapsed_ms: u64,
    /// Names in the global symbol interner when the report was made.
    pub interned_len: usize,
    /// The process's resident set (`VmRSS`) when the report was made, in
    /// KiB; 0 where `/proc/self/status` cannot be read.
    pub vm_rss_kb: u64,
    /// The interner's size when every lane had answered every ring source:
    /// the baseline of the `interner-growth` check. `None` if the run
    /// ended first.
    pub interned_after_first_pass: Option<usize>,
}

impl SoakReport {
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }

    fn violate(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 16 {
            self.violations.push(what);
        }
    }

    /// Stamps the elapsed time and the memory gauges.
    fn sample(&mut self, started: Instant) {
        self.elapsed_ms = started.elapsed().as_millis() as u64;
        self.interned_len = Symbol::interned_len();
        self.vm_rss_kb = vm_rss_kb();
    }

    /// The report as one JSON object (also the progress-line shape).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evals\":{},\"machine_evals\":{},\"pool_evals\":{},\"serve_evals\":{},\
             \"batches\":{},\"cache_hits\":{},\"audits\":{},\"interrupts\":{},\
             \"violations\":{},\"elapsed_ms\":{},\"interned_len\":{},\"vm_rss_kb\":{}}}",
            self.evals,
            self.machine_evals,
            self.pool_evals,
            self.serve_evals,
            self.batches,
            self.cache_hits,
            self.audits,
            self.interrupts,
            self.violation_count,
            self.elapsed_ms,
            self.interned_len,
            self.vm_rss_kb
        )
    }
}

/// This process's resident set in KiB, from `/proc/self/status`; 0 where
/// that cannot be read.
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The first growth in `series`, the interner's size sampled from the end
/// of the soak's first full pass over the ring: the first sample (the
/// baseline) and the first later sample above it. `None` while the series
/// is flat.
pub fn interner_growth(series: &[usize]) -> Option<(usize, usize)> {
    let (&baseline, rest) = series.split_first()?;
    rest.iter().find(|&&n| n > baseline).map(|&n| (baseline, n))
}

/// One ring slot: the term, its source text (for the pool/serve lanes),
/// and the expected observation recorded on first evaluation.
struct RingEntry {
    term: Rc<Expr>,
    src: String,
    expected: String,
}

/// Renders one machine outcome for comparison.
fn observe(m: &mut Machine, out: &Result<Outcome, urk_machine::MachineError>) -> String {
    match out {
        Ok(Outcome::Value(n)) => format!("value {}", m.render(*n, 16)),
        Ok(Outcome::Caught(e)) => format!("caught {e}"),
        Ok(Outcome::Uncaught(e)) => format!("uncaught {e}"),
        Err(e) => format!("error {e}"),
    }
}

/// The long-lived machine pair of the machine lane: the fuzz prelude
/// linked at tier 1 and at tier 2.
struct MachineLane {
    tier1: Machine,
    tier2: Machine,
    episodes: u64,
}

impl MachineLane {
    fn new(ctx: &FuzzCtx) -> MachineLane {
        // `max_steps` is a cumulative lifetime budget, not per-episode;
        // the lane machines live for the whole soak and every ring entry
        // was probe-vetted to terminate, so the budget is unbounded —
        // this lane exists precisely to prove indefinite reuse.
        let config = MachineConfig {
            max_steps: u64::MAX,
            gc_threshold: 65_536,
            ..MachineConfig::default()
        };
        let mut tier1 = Machine::new(config.clone());
        tier1.link_code(std::sync::Arc::clone(&ctx.code));
        let mut tier2 = Machine::new(config);
        tier2.link_code(std::sync::Arc::clone(&ctx.code_t2));
        MachineLane {
            tier1,
            tier2,
            episodes: 0,
        }
    }

    /// One episode on both machines against one ring entry.
    fn step(&mut self, entry: &RingEntry, cfg: &SoakConfig, report: &mut SoakReport) {
        self.episodes += 1;
        let interrupted =
            cfg.interrupt_every > 0 && self.episodes.is_multiple_of(cfg.interrupt_every);
        if interrupted {
            // Pre-armed delivery: the machine must catch it at the episode
            // boundary and stay resumable — §5.1's contract under churn.
            self.tier1.interrupt_handle().deliver(Exception::Interrupt);
            self.tier2.interrupt_handle().deliver(Exception::Interrupt);
            report.interrupts += 1;
        }
        let out1 = self.tier1.eval_code_expr(&entry.term, true);
        let obs1 = observe(&mut self.tier1, &out1);
        let out2 = self.tier2.eval_code_expr(&entry.term, true);
        let obs2 = observe(&mut self.tier2, &out2);
        report.machine_evals += 2;
        report.evals += 2;
        let caught_interrupt = "caught interrupt: Interrupt";
        for (name, obs) in [("tier1", &obs1), ("tier2", &obs2)] {
            let ok = obs == &entry.expected
                || (interrupted && obs.starts_with("caught"))
                || obs == caught_interrupt;
            if !ok {
                report.violate(format!(
                    "machine lane ep {}: {name} produced `{obs}`, expected `{}`",
                    self.episodes, entry.expected
                ));
            }
        }
        if self.episodes.is_multiple_of(cfg.audit_every) {
            report.audits += 2;
            for (name, m) in [("tier1", &mut self.tier1), ("tier2", &mut self.tier2)] {
                let audit = m.audit_heap();
                if !audit.is_consistent() {
                    report.violate(format!("machine lane ep {}: {name} {audit}", self.episodes));
                }
            }
        }
    }
}

/// Checks one batch's outcomes against the byte-identity map. `render`
/// extracts `(rendered, cache_hit)` or an error string per outcome.
fn check_batch<T>(
    lane: &str,
    srcs: &[&str],
    results: &[T],
    render: impl Fn(&T) -> Result<(String, bool), String>,
    expected: &mut HashMap<String, String>,
    report: &mut SoakReport,
) {
    if results.len() != srcs.len() {
        report.violate(format!(
            "{lane}: batch of {} came back with {} results",
            srcs.len(),
            results.len()
        ));
        return;
    }
    for (src, result) in srcs.iter().zip(results) {
        match render(result) {
            Err(e) => report.violate(format!("{lane}: job `{src}` failed: {e}")),
            Ok((rendered, cache_hit)) => {
                if cache_hit {
                    report.cache_hits += 1;
                }
                match expected.get(*src) {
                    None => {
                        expected.insert((*src).to_string(), rendered);
                    }
                    // Submission order + cache byte-identity in one check:
                    // a reordered batch or a poisoned cache entry both
                    // surface as a first-answer mismatch for this source.
                    Some(first) if *first != rendered => {
                        report.violate(format!(
                            "{lane}: `{src}` answered `{rendered}` (cache_hit={cache_hit}), \
                             first answer was `{first}`"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

/// Runs a soak campaign. Never panics on an invariant violation — they
/// are collected into the report.
///
/// # Errors
///
/// Setup failures only: the pool or server refusing to start, or a
/// client connection failing.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let started = Instant::now();
    let ctx = FuzzCtx::new();
    let mut report = SoakReport::default();

    // Build the ring and record expected answers from a fresh machine.
    let mut gen = TermGen::new(cfg.seed, 4);
    let mut probe = MachineLane::new(&ctx);
    let mut ring: Vec<RingEntry> = Vec::with_capacity(cfg.ring.max(1));
    while ring.len() < cfg.ring.max(1) {
        let term = Rc::new(gen.term());
        let out = probe.tier1.eval_code_expr(&term, true);
        if out.is_err() {
            continue; // step-limit pathology; not soak material
        }
        let expected = observe(&mut probe.tier1, &out);
        let src = pretty(&term);
        ring.push(RingEntry {
            term,
            src,
            expected,
        });
    }

    let options = Options::default();
    let pool = EvalPool::start(
        &[FUZZ_PRELUDE_SRC],
        options.clone(),
        PoolConfig {
            workers: cfg.jobs.max(1),
            ..PoolConfig::default()
        },
    )
    .map_err(|e| format!("pool start: {e}"))?;

    let server = if cfg.serve {
        Some(
            Server::start(
                &[FUZZ_PRELUDE_SRC],
                options,
                ServeConfig {
                    pool: PoolConfig {
                        workers: cfg.jobs.max(1),
                        ..PoolConfig::default()
                    },
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("server start: {e}"))?,
        )
    } else {
        None
    };
    let mut client = match &server {
        Some(s) => Some(Client::connect(s.local_addr()).map_err(|e| format!("connect: {e}"))?),
        None => None,
    };

    let mut lane = MachineLane::new(&ctx);
    let mut batch_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x736f_616b);
    let mut pool_expected: HashMap<String, String> = HashMap::new();
    let mut serve_expected: HashMap<String, String> = HashMap::new();
    let mut last_report = Instant::now();
    let mut round = 0u64;
    // Sampled from the end of the first full pass: once every lane has
    // answered every distinct ring source.
    let distinct_srcs = ring
        .iter()
        .map(|e| e.src.as_str())
        .collect::<HashSet<_>>()
        .len();
    let mut interner_series: Vec<usize> = Vec::new();

    while started.elapsed() < cfg.duration {
        round += 1;

        // Machine lane: a chunk of episodes (the volume carrier).
        for _ in 0..512 {
            let i = (lane.episodes as usize) % ring.len();
            lane.step(&ring[i], cfg, &mut report);
        }

        // Pool lane: one batch per round, duplicates guaranteed by
        // sampling a small ring.
        let srcs: Vec<&str> = (0..cfg.batch.max(1))
            .map(|_| ring[batch_rng.gen_range(0..ring.len())].src.as_str())
            .collect();
        let results = pool.eval_batch(&srcs);
        report.batches += 1;
        report.pool_evals += srcs.len() as u64;
        report.evals += srcs.len() as u64;
        check_batch(
            "pool",
            &srcs,
            &results,
            |r| match r {
                Ok(out) => Ok((out.rendered.clone(), out.cache_hit)),
                Err(e) => Err(e.to_string()),
            },
            &mut pool_expected,
            &mut report,
        );

        // Serve lane: every 4th round, the same checks over TCP.
        if let Some(client) = client.as_mut() {
            if round.is_multiple_of(4) {
                match client.eval_batch(&srcs, None) {
                    Err(e) => report.violate(format!("serve: transport error: {e}")),
                    Ok(remote) => {
                        report.batches += 1;
                        report.serve_evals += srcs.len() as u64;
                        report.evals += srcs.len() as u64;
                        check_batch(
                            "serve",
                            &srcs,
                            &remote,
                            |r| match r {
                                RemoteOutcome::Done {
                                    rendered,
                                    cache_hit,
                                    ..
                                } => Ok((rendered.clone(), *cache_hit)),
                                RemoteOutcome::Failed(m) => Err(m.clone()),
                                RemoteOutcome::Overloaded => Err("overloaded".to_string()),
                            },
                            &mut serve_expected,
                            &mut report,
                        );
                    }
                }
            }
        }

        let full_pass = pool_expected.len() == distinct_srcs
            && (client.is_none() || serve_expected.len() == distinct_srcs);
        if full_pass && interner_series.is_empty() {
            let baseline = Symbol::interned_len();
            interner_series.push(baseline);
            report.interned_after_first_pass = Some(baseline);
        }
        if !cfg.report_every.is_zero() && last_report.elapsed() >= cfg.report_every {
            report.sample(started);
            if !interner_series.is_empty() {
                interner_series.push(report.interned_len);
            }
            println!("{}", report.to_json());
            last_report = Instant::now();
        }
    }

    // Final audits on the long-lived machines.
    report.audits += 2;
    for (name, m) in [("tier1", &mut lane.tier1), ("tier2", &mut lane.tier2)] {
        let audit = m.audit_heap();
        if !audit.is_consistent() {
            report.violate(format!("final audit: {name} {audit}"));
        }
    }

    if let Some(s) = server {
        s.stop();
        s.join();
    }
    pool.shutdown();
    report.sample(started);
    if !interner_series.is_empty() {
        interner_series.push(report.interned_len);
    }
    if let Some((baseline, grown)) = interner_growth(&interner_series) {
        report.violate(format!(
            "interner-growth: {baseline} interned names after the first full pass \
             over the ring, {grown} later"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_growth_fires_on_a_rising_series_only() {
        assert_eq!(interner_growth(&[]), None);
        assert_eq!(interner_growth(&[812]), None);
        assert_eq!(interner_growth(&[812, 812, 812, 812]), None);
        assert_eq!(interner_growth(&[812, 812, 815, 830]), Some((812, 815)));
        assert_eq!(interner_growth(&[812, 900]), Some((812, 900)));
    }

    #[test]
    fn the_report_carries_the_memory_gauges() {
        let mut report = SoakReport::default();
        report.sample(Instant::now());
        let json = report.to_json();
        assert!(json.contains(&format!("\"interned_len\":{}", report.interned_len)));
        assert!(json.contains(&format!("\"vm_rss_kb\":{}}}", report.vm_rss_kb)));
        #[cfg(target_os = "linux")]
        assert!(report.vm_rss_kb > 0, "VmRSS is readable on Linux");
    }

    #[test]
    fn a_two_second_soak_is_clean() {
        let report = run_soak(&SoakConfig {
            duration: Duration::from_secs(2),
            jobs: 2,
            batch: 16,
            ring: 12,
            serve: true,
            report_every: Duration::ZERO,
            ..SoakConfig::default()
        })
        .expect("soak runs");
        // Other tests in this process intern names while the soak runs, so
        // interner growth is checked by `tests/soak_interner.rs`, a process
        // of its own; every other invariant must hold here.
        let violations: Vec<_> = report
            .violations
            .iter()
            .filter(|v| !v.starts_with("interner-growth"))
            .collect();
        assert!(violations.is_empty(), "soak violations: {violations:?}");
        assert!(report.evals > 1_000, "soak too slow: {}", report.evals);
        assert!(report.serve_evals > 0);
        assert!(
            report.cache_hits > 0,
            "duplicate sources must hit the cache"
        );
        assert!(report.audits > 0);
    }
}
