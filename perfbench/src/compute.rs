//! `compute`: one thread, closed loop, in process. A round evaluates every
//! kernel once with `Session::eval`, in a seeded order; almost all of it
//! is machine execution and heap work.

use std::time::Instant;

use crate::check::self_test;
use crate::gen::Rng;
use crate::layers::{
    counter_metrics, counters as layer_counters, front_metrics, kernel_metrics, kernels,
    new_session, replay_query, serving_probe, setup_metrics, setup_split, timed_setup,
    trace_metrics, untraced_us, ColdSetups, Front, Kernel, DEADLINE_MS, MAX_TRACED_OPS,
    SETUP_REPEATS,
};
use crate::report::{busy_rates, end_to_end, window_of, Report, RssCheckpoint, WINDOWS};
use crate::trace::Tracer;
use crate::Args;
use urk::Session;

/// Evaluates one kernel and checks its answer.
fn eval_ok(session: &Session, k: &Kernel) -> bool {
    session.eval(&k.query).is_ok_and(|r| {
        let exception = r.exception.as_ref().map(ToString::to_string);
        k.expect.accepts(&r.rendered, exception.as_deref())
    })
}

/// Rounds after which `peak_rss_mb` is read.
const RSS_AT_ROUNDS: u64 = 400;

pub fn run(args: &Args) -> Report {
    let kernels = kernels();
    let mut rep = Report::new();
    let (session, _) = timed_setup(&kernels);
    let first = session
        .eval(&kernels[0].query)
        .expect("the first kernel evaluates");
    if !self_test(&kernels[0].expect, &first.rendered, None) {
        rep.fail("the self-test did not fire");
    }
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    if args.trace {
        traced(args, &kernels, &session, &mut rng, &mut order, &mut rep);
        return rep;
    }
    let mut windows = vec![Vec::new(); WINDOWS];
    let mut setups = ColdSetups::new(&args.workload);
    let mut rss = RssCheckpoint::new(RSS_AT_ROUNDS);
    let total = args.seconds.as_secs_f64();
    let start = Instant::now();
    while start.elapsed() < args.seconds {
        let w = window_of(start.elapsed().as_secs_f64(), total);
        setups.at_window(w, &mut rep);
        rng.shuffle(&mut order);
        let t0 = Instant::now();
        let ok = order.iter().all(|&k| eval_ok(&session, &kernels[k]));
        windows[w].push(t0.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
        rss.observe(rep.attempted);
    }
    let rates = busy_rates(&windows);
    end_to_end(&mut rep, &setups.samples, &windows, &rates, rss.mb());
    rep
}

fn traced(
    args: &Args,
    kernels: &[Kernel],
    session: &Session,
    rng: &mut Rng,
    order: &mut [usize],
    rep: &mut Report,
) {
    let mut tr = Tracer::new(true);
    for _ in 0..SETUP_REPEATS {
        new_session(kernels, &mut tr);
        setup_split(kernels, &mut tr);
    }
    let front = Front::new(session);

    // The untraced baseline: rounds of `Session::eval`.
    let untraced = untraced_us(args.seconds.mul_f64(0.2), |_| {
        rng.shuffle(order);
        for &k in order.iter() {
            let _ = session.eval(&kernels[k].query);
        }
    });

    let mut lower_us = Vec::new();
    let start = Instant::now();
    while rep.attempted == 0
        || (start.elapsed() < args.seconds.mul_f64(0.35) && rep.attempted < MAX_TRACED_OPS as u64)
    {
        rng.shuffle(order);
        let round = tr.enter("op.round");
        let mut ok = true;
        for &k in order.iter() {
            let kern = &kernels[k];
            match replay_query(&mut tr, &front, &kern.query, "op.kernel", kern.exec_span) {
                Ok(a) => {
                    lower_us.push(a.stats.compile_micros as f64);
                    ok &= a.matches(&kern.expect);
                }
                Err(_) => ok = false,
            }
        }
        tr.exit(round);
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
    }

    let cases: Vec<_> = kernels
        .iter()
        .map(|k| (k.query.as_str(), &k.expect))
        .collect();
    serving_probe(rep, &mut tr, session, &front, &cases, DEADLINE_MS);
    setup_metrics(rep, &tr);
    front_metrics(rep, &tr, &lower_us);
    kernel_metrics(rep, &tr, kernels);
    crate::serve::report_probe(rep, args, kernels);
    counter_metrics(
        rep,
        &layer_counters(&front, kernels, &kernel_queries(kernels)),
    );
    trace_metrics(rep, &tr, "op.round", untraced);
    crate::save_trace(args, &tr);
}

fn kernel_queries(kernels: &[Kernel]) -> Vec<String> {
    kernels.iter().map(|k| k.query.clone()).collect()
}

/// The deterministic counters of this workload.
pub fn counters() -> Vec<(String, u64)> {
    let kernels = kernels();
    let (session, _) = timed_setup(&kernels);
    layer_counters(&Front::new(&session), &kernels, &kernel_queries(&kernels))
}
