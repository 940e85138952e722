//! `frontend`: one thread, closed loop, in process. Thousands of distinct
//! small queries, so parse, desugar, type inference and query lowering
//! do the work and the machine does little.

use std::collections::HashSet;
use std::time::Instant;

use urk::Session;

use crate::check::{oracle, self_test, Expect};
use crate::gen::{frontend_query, nesting, Rng};
use crate::layers::{
    counter_metrics, counters as layer_counters, front_metrics, kernel_metrics, kernels,
    new_session, replay_query, serving_probe, setup_metrics, setup_split, timed_setup,
    trace_metrics, untraced_us, ColdSetups, Front, DEADLINE_MS, MAX_TRACED_OPS, SETUP_REPEATS,
};
use crate::report::{busy_rates, end_to_end, mean, window_of, Report, RssCheckpoint, WINDOWS};
use crate::trace::Tracer;
use crate::Args;

/// Distinct queries per run.
const QUERIES: usize = 3_000;
/// Queries after which `peak_rss_mb` is read.
const RSS_AT_QUERIES: u64 = 30_000;
/// Queries replayed through the serving path in a traced run.
const SERVING_SAMPLE: usize = 200;

pub struct Query {
    pub src: String,
    pub expect: Expect,
}

/// The seeded query set with the denotational reference of each query,
/// computed before anything is timed. Queries the oracle cannot pin down
/// are regenerated; a query that fails to compile fails the run.
fn query_set(seed: u64, session: &Session, rep: &mut Report) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(QUERIES);
    let mut regenerated = 0;
    while out.len() < QUERIES {
        let src = frontend_query(&mut rng, out.len());
        if !seen.insert(src.clone()) {
            regenerated += 1;
            continue;
        }
        if let Err(e) = session.compile_expr(&src) {
            rep.fail(&format!("generated query `{src}` does not compile: {e}"));
            continue;
        }
        match oracle(session, &src) {
            Ok(expect) => out.push(Query { src, expect }),
            Err(_) => regenerated += 1,
        }
    }
    let raising = out
        .iter()
        .filter(|q| matches!(q.expect, Expect::Raise(_)))
        .count();
    println!(
        "queries: {} distinct ({regenerated} regenerated), mean {:.1} source bytes, \
         max nesting {}, {:.1}% raise",
        out.len(),
        mean(&out.iter().map(|q| q.src.len() as f64).collect::<Vec<_>>()),
        out.iter().map(|q| nesting(&q.src)).max().unwrap_or(0),
        100.0 * raising as f64 / out.len() as f64
    );
    out
}

fn eval_ok(session: &Session, q: &Query) -> bool {
    session.eval(&q.src).is_ok_and(|r| {
        let exception = r.exception.as_ref().map(ToString::to_string);
        q.expect.accepts(&r.rendered, exception.as_deref())
    })
}

pub fn run(args: &Args) -> Report {
    let kernels = kernels();
    let mut rep = Report::new();
    let (session, _) = timed_setup(&kernels);
    let queries = query_set(args.seed, &session, &mut rep);
    let raiser = queries
        .iter()
        .find(|q| matches!(q.expect, Expect::Raise(_)))
        .expect("the query set has raising queries");
    let r = session
        .eval(&raiser.src)
        .expect("the raising query evaluates");
    let exception = r.exception.as_ref().map(ToString::to_string);
    if !self_test(&raiser.expect, &r.rendered, exception.as_deref()) {
        rep.fail("the self-test did not fire");
    }
    if args.trace {
        traced(args, &session, &queries, &mut rep);
        return rep;
    }
    let mut windows = vec![Vec::new(); WINDOWS];
    let mut setups = ColdSetups::new(&args.workload);
    let mut rss = RssCheckpoint::new(RSS_AT_QUERIES);
    let total = args.seconds.as_secs_f64();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let w = window_of(start.elapsed().as_secs_f64(), total);
        setups.at_window(w, &mut rep);
        let q = &queries[rep.attempted as usize % queries.len()];
        let t0 = Instant::now();
        let ok = eval_ok(&session, q);
        windows[w].push(t0.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
        rss.observe(rep.attempted);
    }
    let rates = busy_rates(&windows);
    end_to_end(&mut rep, &setups.samples, &windows, &rates, rss.mb());
    rep
}

fn traced(args: &Args, session: &Session, queries: &[Query], rep: &mut Report) {
    let kernels = kernels();
    let mut tr = Tracer::new(true);
    for _ in 0..SETUP_REPEATS {
        new_session(&kernels, &mut tr);
        setup_split(&kernels, &mut tr);
    }
    let front = Front::new(session);

    let untraced = untraced_us(args.seconds.mul_f64(0.2), |i| {
        let _ = session.eval(&queries[i % queries.len()].src);
    });

    let mut lower_us = Vec::new();
    let start = Instant::now();
    while rep.attempted == 0
        || (start.elapsed() < args.seconds.mul_f64(0.35) && rep.attempted < MAX_TRACED_OPS as u64)
    {
        let q = &queries[rep.attempted as usize % queries.len()];
        let ok = match replay_query(&mut tr, &front, &q.src, "op.query", "machine.exec") {
            Ok(a) => {
                lower_us.push(a.stats.compile_micros as f64);
                a.matches(&q.expect)
            }
            Err(_) => false,
        };
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
    }

    // The execution layer, probed on the kernels.
    for _ in 0..3 {
        for k in &kernels {
            if !replay_query(&mut tr, &front, &k.query, "op.kernel", k.exec_span)
                .is_ok_and(|a| a.matches(&k.expect))
            {
                rep.fail(&format!("kernel {} answered wrongly", k.name));
            }
        }
    }
    let cases: Vec<_> = queries
        .iter()
        .take(SERVING_SAMPLE)
        .map(|q| (q.src.as_str(), &q.expect))
        .collect();
    serving_probe(rep, &mut tr, session, &front, &cases, DEADLINE_MS);
    setup_metrics(rep, &tr);
    front_metrics(rep, &tr, &lower_us);
    kernel_metrics(rep, &tr, &kernels);
    crate::serve::report_probe(rep, args, &kernels);
    let all: Vec<String> = queries.iter().map(|q| q.src.clone()).collect();
    counter_metrics(rep, &layer_counters(&front, &kernels, &all));
    trace_metrics(rep, &tr, "op.query", untraced);
    crate::save_trace(args, &tr);
}

/// The deterministic counters of this workload.
pub fn counters(args: &Args) -> Vec<(String, u64)> {
    let kernels = kernels();
    let (session, _) = timed_setup(&kernels);
    let mut scratch = Report::new();
    let all: Vec<String> = query_set(args.seed, &session, &mut scratch)
        .into_iter()
        .map(|q| q.src)
        .collect();
    layer_counters(&Front::new(&session), &kernels, &all)
}
