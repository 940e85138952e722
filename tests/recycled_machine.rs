//! A recycled machine is a fresh machine.
//!
//! A session keeps the machine its last evaluation handed back and
//! recycles it for the next one (`Machine::recycle`): a new machine with
//! the program linked, grown into the old one's emptied buffers. Nothing
//! else may carry over. So one list of queries, run in sequence on one
//! recycled machine, must give exactly what each query gives on a machine
//! built with `Machine::new` and `link_code`: the same rendered value, the
//! same exception and every deterministic `Stats` field alike. The list
//! evaluates a CAF global and then reads it (a recycled machine must
//! link an unevaluated global again), raises, stops at the step limit,
//! collects both generations, and switches tier between calls.

use std::sync::Arc;

use urk::{Error, EvalResult, Session, Supervisor};
use urk_machine::{
    Kind, Machine, MachineBuffers, MachineConfig, MachineError, Outcome, Stats, Tier,
};
use urk_syntax::Exception;

const PROGRAM: &str = "\
table = map (\\x -> x * x) [1 .. 60]
deep n = if n == 0 then 0 else 1 + deep (n - 1)";

const RENDER_DEPTH: u32 = 32;

/// One query: its source, the tier it runs at, and the machine
/// configuration it runs under.
struct Query {
    src: &'static str,
    tier: Tier,
    config: MachineConfig,
}

fn queries() -> Vec<Query> {
    let plain = MachineConfig::default();
    // A small nursery and major threshold, so one query runs both kinds
    // of collection.
    let pressured = MachineConfig {
        nursery_size: 256,
        gc_threshold: 2_000,
        ..MachineConfig::default()
    };
    let limited = MachineConfig {
        max_steps: 500,
        ..MachineConfig::default()
    };
    let q = |src, tier, config: &MachineConfig| Query {
        src,
        tier,
        config: config.clone(),
    };
    vec![
        q("sum table", Tier::One, &plain),
        q("head table + length table", Tier::One, &plain),
        q("(1 / 0) + error \"Urk\"", Tier::One, &plain),
        q("deep 100000", Tier::One, &limited),
        q("sum (reverse [1 .. 3000])", Tier::One, &pressured),
        q("deep 5000", Tier::One, &plain),
        q("map (\\x -> x + 1) [1, 2, 3]", Tier::One, &plain),
        q("sum table", Tier::Two, &plain),
        q("head table", Tier::Two, &plain),
        q("getException (head [])", Tier::Two, &plain),
        q("deep 100000", Tier::Two, &limited),
        q("sum (reverse [1 .. 3000])", Tier::Two, &pressured),
        q("length table", Tier::One, &plain),
    ]
}

/// What one evaluation showed: the rendered value (or `(raise E)`), the
/// exception, the machine error, and every deterministic counter.
#[derive(Debug, PartialEq)]
struct Answer {
    rendered: String,
    exception: Option<String>,
    error: Option<MachineError>,
    stats: String,
}

/// Every `Stats` schema field but the wall-clock kind, as `name=value`.
fn row(s: &Stats) -> String {
    s.fields()
        .filter(|(_, kind, _)| *kind != Kind::WallClock)
        .map(|(name, _, value)| format!("{name}={value}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Evaluates `src` on `m` as `Session::eval` does (under a catch mark
/// with `catch`, as `Session::eval_supervised` does): the counters are
/// read before rendering forces the value's fields.
fn answer(m: &mut Machine, s: &Session, src: &str, catch: bool) -> Answer {
    let e = s.compile_expr(src).expect("compiles");
    let out = m.eval_code_expr(&e, catch);
    let stats = row(m.stats());
    let (rendered, exception, error) = match out {
        Ok(out) => {
            let exception = match &out {
                Outcome::Value(_) => None,
                Outcome::Caught(x) | Outcome::Uncaught(x) => Some(x.to_string()),
            };
            (m.render_outcome(&out, RENDER_DEPTH), exception, None)
        }
        Err(error) => (String::new(), None, Some(error)),
    };
    Answer {
        rendered,
        exception,
        error,
        stats,
    }
}

/// Points `s` at the query's tier and configuration, lowering the
/// program before anything is counted (so no answer carries the
/// one-time lowering cost).
fn configure(s: &mut Session, q: &Query) -> Arc<urk_machine::Code> {
    s.options.tier = q.tier;
    s.options.machine = q.config.clone();
    s.compiled_code()
}

fn session() -> Session {
    let mut s = Session::new();
    s.load(PROGRAM).expect("loads");
    s
}

fn fresh(s: &mut Session, q: &Query, catch: bool) -> Answer {
    let code = configure(s, q);
    let mut m = Machine::new(q.config.clone());
    m.link_code(code);
    answer(&mut m, s, q.src, catch)
}

/// What a session entry point returned, as an [`Answer`].
fn session_answer(out: Result<EvalResult, Error>) -> Answer {
    match out {
        Ok(r) => Answer {
            rendered: r.rendered,
            exception: r.exception.map(|x| x.to_string()),
            error: None,
            stats: row(&r.stats),
        },
        Err(Error::Machine { error, stats }) => Answer {
            rendered: String::new(),
            exception: None,
            error: Some(error),
            stats: row(&stats.expect("a machine error carries its counters")),
        },
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn a_recycled_machine_answers_like_a_fresh_one() {
    let mut s = session();
    let mut spare = MachineBuffers::default();
    let (mut minor, mut major) = (0, 0);
    for q in queries() {
        let want = fresh(&mut s, &q, false);
        let code = configure(&mut s, &q);
        let mut m = Machine::recycle(spare, q.config.clone(), code);
        let got = answer(&mut m, &s, q.src, false);
        minor += m.stats().minor_gcs;
        major += m.stats().major_gcs;
        spare = m.retire();
        assert_eq!(got, want, "`{}` at tier {}", q.src, q.tier.name());
    }
    assert!(
        minor > 0 && major > 0,
        "the list must run minor ({minor}) and major ({major}) collections"
    );
}

#[test]
fn session_evals_on_its_recycled_machine_answer_like_fresh_machines() {
    let mut s = session();
    let mut step_limits = 0;
    for q in queries() {
        // `Session::eval`, then the supervised path, alternating on the
        // one machine the session recycles.
        let want = fresh(&mut s, &q, false);
        configure(&mut s, &q);
        let got = session_answer(s.eval(q.src));
        assert_eq!(got, want, "eval `{}` at tier {}", q.src, q.tier.name());
        step_limits += usize::from(got.error == Some(MachineError::StepLimit));

        let want = fresh(&mut s, &q, true);
        configure(&mut s, &q);
        let got = session_answer(
            s.eval_supervised(q.src, &Supervisor::new())
                .map(|r| r.result),
        );
        assert_eq!(
            got,
            want,
            "supervised `{}` at tier {}",
            q.src,
            q.tier.name()
        );
    }
    assert!(step_limits > 0, "the list must hit the step limit");
}

#[test]
fn an_interrupt_armed_after_its_job_ended_cannot_reach_the_next_job() {
    let s = session();
    let code = s.compiled_code();
    let config = MachineConfig::default();
    let want = fresh(&mut session(), &queries()[0], false);
    let recycle = |spare| Machine::recycle(spare, config.clone(), code.clone());
    // A watchdog keeps its clone of the first job's handle and fires
    // while the next job runs: that job polls another cell.
    let mut m = recycle(MachineBuffers::default());
    let stale = m.interrupt_handle();
    assert_eq!(answer(&mut m, &s, "sum table", false), want);
    let mut m = recycle(m.retire());
    assert!(stale.deliver(Exception::Interrupt));
    assert_eq!(
        answer(&mut m, &s, "sum table", false),
        want,
        "a stale watchdog interrupted the next job"
    );
    // A delivery left pending in a cell no one else holds any more is
    // cleared before the cell serves the next job.
    assert!(m.interrupt_handle().deliver(Exception::Interrupt));
    let mut m = recycle(m.retire());
    assert_eq!(
        answer(&mut m, &s, "sum table", false),
        want,
        "a pending delivery outlived its job"
    );
}
