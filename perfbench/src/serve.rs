//! The server probe of the traced run: an in-process `Server` on
//! 127.0.0.1:0 with two workers, driven as an open loop on a fixed
//! schedule in two phases: *nominal* (well under capacity) gives latency,
//! *overload* (about twice capacity) gives goodput and the shed rate.
//! Each request is a one-expression batch with a deadline, drawn from a
//! mix of hot (cached after first use), unique and raising expressions.
//!
//! Its figures are per-layer metrics, not end-to-end ones: on a shared
//! two-vCPU host the tail of a multi-threaded open loop is dominated by
//! how fast the host wakes threads, and swung by several times between
//! runs, far beyond any bound a regression check could use.
//!
//! A connection's requests are answered one at a time (the server reads
//! the next frame only after the previous batch is done), so one
//! connection never has more than one job in the pool. The load therefore
//! comes from one writer thread spreading the schedule round-robin over
//! several connections, each with its own reader thread: as many as the
//! pool queue holds in the nominal phase, so nothing can be shed there,
//! and twice that in the overload phase, so the queue fills and sheds.

use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use urk::Supervisor;
use urk::{Client, PoolConfig, RemoteOutcome, ResultCache, ServeConfig, Server, Session};
use urk_io::{read_frame, write_frame, Request, Response};

use crate::check::{oracle, self_test};
use crate::gen::{prime_count, serve_stream, Class, ServeReq};
use crate::layers::{
    kernels, options, replay_job, timed_setup, Front, Job, Kernel, ServerMetrics, DEADLINE_MS,
};
use crate::report::{median, percentile, Report};
use crate::trace::Tracer;
use crate::Args;

/// Pool workers (the host's vCPU count).
pub const WORKERS: usize = 2;
/// The nominal phase's offered rate: about half the capacity `--calibrate`
/// measured (2640 answers/s). Fixed, never recomputed per run.
const NOMINAL_RPS: f64 = 1300.0;
/// The overload phase's offered rate: about twice that capacity.
const OVERLOAD_RPS: f64 = 5300.0;
/// The latency limit goodput counts answers against.
const LIMIT_MS: f64 = 50.0;
/// The pool's bounded queue. The nominal phase uses this many connections
/// and the overload phase twice as many.
const QUEUE_CAP: usize = 8;
/// Large enough that nothing is evicted within a run.
const CACHE_CAP: usize = 65_536;
/// Server starts per run; `core.pool_ready_ms` is their median.
const SERVER_SETUPS: usize = 5;
/// Shares of the probe's time the two phases take.
const NOMINAL_SHARE: f64 = 0.6;
const OVERLOAD_SHARE: f64 = 0.25;
/// Requests replayed in process for the service time.
const SERVICE_SAMPLE: usize = 2_000;
/// Each warm-up job counts primes to this bound: longer than a worker's
/// session build, so a batch of one per worker is answered only once
/// every worker is up.
const READY_PRIMES: i64 = 2_000;
/// How long a reader waits for an answer before counting the rest lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Unique expressions carry tags from here up.
const TAG_BASE: u64 = 1_000_000;

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        pool: PoolConfig {
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            cache_cap: CACHE_CAP,
            supervisor: Supervisor::default(),
        },
    }
}

fn programs(kernels: &[Kernel]) -> Vec<&'static str> {
    kernels.iter().map(|k| k.program).collect()
}

/// Starts a server and waits until a batch of one warm-up job per worker
/// is answered correctly. Returns the server and the seconds that took.
fn start_server(programs: &[&str]) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(programs, options(), config()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let jobs: Vec<String> = (0..WORKERS)
        .map(|w| format!("countPrimes 2 {READY_PRIMES} {w}"))
        .collect();
    let refs: Vec<&str> = jobs.iter().map(String::as_str).collect();
    let out = client
        .eval_batch(&refs, Some(DEADLINE_MS))
        .map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    for (w, o) in out.iter().enumerate() {
        let want = (prime_count(READY_PRIMES) + w as i64).to_string();
        if !matches!(o, RemoteOutcome::Done { rendered, exception: None, .. } if *rendered == want)
        {
            return Err(format!("warm-up job {w} answered {o:?}"));
        }
    }
    Ok((server, secs))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Correct,
    Wrong,
    Shed,
    Error,
}

struct Answer {
    latency_ms: f64,
    verdict: Verdict,
}

/// What one phase observed.
struct Phase {
    answers: Vec<Answer>,
    /// How late the writer sent each request, in ms.
    late_ms: Vec<f64>,
    /// The schedule's length in seconds.
    secs: f64,
    requests: usize,
}

impl Phase {
    fn count(&self, v: Verdict) -> usize {
        self.answers.iter().filter(|a| a.verdict == v).count()
    }

    /// Requests never answered (lost to a transport failure).
    fn missing(&self) -> usize {
        self.requests.saturating_sub(self.answers.len())
    }

    fn correct_latencies(&self) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| a.verdict == Verdict::Correct)
            .map(|a| a.latency_ms)
            .collect()
    }
}

/// How late the writer sent each request, sorted.
fn sorted_late(phase: &Phase) -> Vec<f64> {
    let mut late = phase.late_ms.clone();
    late.sort_by(f64::total_cmp);
    late
}

/// Requests sent on one connection and not yet answered, with the
/// instant each was due.
type Pending = Mutex<VecDeque<(usize, Instant)>>;

/// Sends `reqs` on an open-loop schedule at `rate` per second, spread
/// round-robin over `connections` connections, and times each answer from
/// the moment its request was due.
fn run_phase(
    addr: SocketAddr,
    reqs: &[ServeReq],
    rate: f64,
    connections: usize,
) -> Result<Phase, String> {
    let conns = (0..connections)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<Vec<TcpStream>>>()
        .map_err(|e| e.to_string())?;
    let pending: Vec<Pending> = (0..connections).map(|_| Mutex::default()).collect();
    let gap = 1.0 / rate;
    let start = Instant::now() + Duration::from_millis(10);
    let mut late_ms = Vec::with_capacity(reqs.len());
    let answers = std::thread::scope(|scope| -> Result<Vec<Answer>, String> {
        let mut readers = Vec::with_capacity(connections);
        for (conn, queue) in conns.iter().zip(&pending) {
            let mut stream = conn.try_clone().map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(DRAIN_TIMEOUT))
                .map_err(|e| e.to_string())?;
            readers.push(scope.spawn(move || read_answers(&mut stream, queue, reqs)));
        }
        for (i, r) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 * gap);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let c = i % connections;
            pending[c]
                .lock()
                .expect("pending queue")
                .push_back((i, due));
            let frame = Request::Batch {
                id: i as u64,
                exprs: vec![r.src.clone()],
                deadline_ms: Some(DEADLINE_MS),
                max_steps: None,
                max_heap: None,
                max_stack: None,
            }
            .encode();
            // A failed write leaves the request unanswered: it counts as
            // missing.
            let _ = write_frame(&mut &conns[c], &frame);
        }
        for c in &conns {
            let _ = c.shutdown(Shutdown::Write);
        }
        let mut all = Vec::with_capacity(reqs.len());
        for h in readers {
            all.extend(
                h.join()
                    .map_err(|_| "a reader thread panicked".to_string())?,
            );
        }
        Ok(all)
    })?;
    Ok(Phase {
        answers,
        late_ms,
        secs: reqs.len() as f64 * gap,
        requests: reqs.len(),
    })
}

/// Reads one connection's answers until the server closes it, matching
/// them in order to the requests sent on it.
fn read_answers(stream: &mut TcpStream, pending: &Pending, reqs: &[ServeReq]) -> Vec<Answer> {
    let mut out = Vec::new();
    while let Ok(Some(payload)) = read_frame(stream) {
        let (id, verdict) = match Response::decode(&payload) {
            Ok(Response::Result {
                id,
                rendered,
                exception,
                timed_out,
                ..
            }) => {
                let expect = reqs.get(id as usize).and_then(|r| r.expect.as_ref());
                let ok = !timed_out
                    && expect.is_some_and(|e| e.accepts(&rendered, exception.as_deref()));
                (id, if ok { Verdict::Correct } else { Verdict::Wrong })
            }
            Ok(Response::Overloaded { id, .. }) => (id, Verdict::Shed),
            Ok(Response::JobError { id, .. }) => (id, Verdict::Error),
            Ok(Response::BatchDone { .. }) => continue,
            _ => break,
        };
        let now = Instant::now();
        let Some((index, due)) = pending.lock().expect("pending queue").pop_front() else {
            break;
        };
        out.push(Answer {
            latency_ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
            verdict: if index as u64 == id {
                verdict
            } else {
                Verdict::Error
            },
        });
    }
    out
}

/// The server's cache hit ratio and entry count, from its `stats`.
fn cache_stats(addr: SocketAddr) -> (f64, f64) {
    let stats = Client::connect(addr).and_then(|mut c| c.stats());
    match stats {
        Ok(Response::Stats { cache, .. }) => (cache.hit_rate, cache.entries as f64),
        _ => (f64::NAN, f64::NAN),
    }
}

/// The share of a traced run's `--seconds` the server probe takes.
const PROBE_SHARE: f64 = 0.3;

/// Runs the server probe and adds its metrics and answer counts to the
/// report.
pub fn report_probe(rep: &mut Report, args: &Args, kernels: &[Kernel]) {
    let secs = args.seconds.as_secs_f64() * PROBE_SHARE;
    match probe(args.seed, secs, kernels) {
        Ok(p) => {
            p.metrics.report(rep);
            rep.attempted += p.attempted;
            rep.failed += p.failed;
        }
        Err(e) => rep.fail(&format!("server probe: {e}")),
    }
}

/// What the server probe measured.
pub struct Probe {
    pub metrics: ServerMetrics,
    /// Requests sent and those that failed (wrong, errored, lost, or shed
    /// in the nominal phase).
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the server probe for `secs` seconds: starts the server
/// [`SERVER_SETUPS`] times, then drives it through a nominal and an
/// overload phase at the fixed rates, checking every answer. It also
/// replays the same requests through the serving path in process, whose
/// median time is the service time the nominal latency is compared with.
pub fn probe(seed: u64, secs: f64, kernels: &[Kernel]) -> Result<Probe, String> {
    let programs = programs(kernels);
    let n_nominal = (NOMINAL_RPS * secs * NOMINAL_SHARE).ceil() as usize;
    let n_overload = (OVERLOAD_RPS * secs * OVERLOAD_SHARE).ceil() as usize;

    // Inputs and their references, before anything is timed.
    let mut reqs = serve_stream(seed, n_nominal + n_overload, TAG_BASE);
    let (reference, _) = timed_setup(kernels);
    for r in reqs.iter_mut().filter(|r| r.expect.is_none()) {
        r.expect = Some(oracle(&reference, &r.src).map_err(|e| format!("no reference: {e}"))?);
    }
    let raiser = reqs
        .iter()
        .find(|r| r.class == Class::Raise)
        .expect("the stream has raisers");
    let answer = reference.eval(&raiser.src).map_err(|e| e.to_string())?;
    let exception = answer.exception.as_ref().map(ToString::to_string);
    let expect = raiser.expect.as_ref().expect("raisers have references");
    if !self_test(expect, &answer.rendered, exception.as_deref()) {
        return Err("the self-test did not fire".into());
    }

    let mut setups = Vec::with_capacity(SERVER_SETUPS);
    let mut server = None;
    for _ in 0..SERVER_SETUPS {
        drop(server.take());
        let (s, t) = start_server(&programs)?;
        setups.push(t * 1e3);
        server = Some(s);
    }
    let server = server.expect("a server started");
    let addr = server.local_addr();
    let phases =
        run_phase(addr, &reqs[..n_nominal], NOMINAL_RPS, QUEUE_CAP).and_then(|nominal| {
            let after_nominal = cache_stats(addr);
            let overload = run_phase(addr, &reqs[n_nominal..], OVERLOAD_RPS, 2 * QUEUE_CAP)?;
            Ok((nominal, after_nominal, overload))
        });
    server.stop();
    server.join();
    let (nominal, (hit_ratio, entries), overload) = phases?;

    let failed = nominal.count(Verdict::Wrong)
        + nominal.count(Verdict::Error)
        + nominal.count(Verdict::Shed)
        + nominal.missing()
        + overload.count(Verdict::Wrong)
        + overload.count(Verdict::Error)
        + overload.missing();
    let mut latencies = nominal.correct_latencies();
    latencies.sort_by(f64::total_cmp);
    let in_limit = overload
        .correct_latencies()
        .iter()
        .filter(|&&l| l <= LIMIT_MS)
        .count();
    let shed_frac = overload.count(Verdict::Shed) as f64 / overload.requests.max(1) as f64;
    let (service_p50_ms, replay_failed) = service_p50_ms(&reference, &reqs[..n_nominal]);
    if replay_failed > 0 {
        return Err(format!(
            "{replay_failed} requests replayed in process answered wrongly"
        ));
    }
    let metrics = ServerMetrics {
        pool_ready_ms: median(&mut setups),
        serve_p50_ms: percentile(&latencies, 0.50),
        serve_p99_ms: percentile(&latencies, 0.99),
        goodput_per_s: in_limit as f64 / overload.secs,
        service_p50_ms,
        cache_hit_ratio: hit_ratio,
        cache_entries: entries,
        wait_p50_ms: percentile(&latencies, 0.50) - service_p50_ms,
        shed_frac_overload: shed_frac,
        late_p99_ms: percentile(&sorted_late(&nominal), 0.99),
    };
    println!(
        "server probe: {n_nominal} requests at {NOMINAL_RPS} rps, {n_overload} at \
         {OVERLOAD_RPS} rps; {failed} failed; {:.1}% shed in overload; {in_limit} within \
         {LIMIT_MS} ms",
        shed_frac * 100.0,
    );
    Ok(Probe {
        metrics,
        attempted: (nominal.requests + overload.requests) as u64,
        failed: failed as u64,
    })
}

/// The median time of the serving path in process (`replay_job`, one
/// fresh cache) over `reqs`, in ms, and how many answers were wrong.
fn service_p50_ms(session: &Session, reqs: &[ServeReq]) -> (f64, usize) {
    let front = Front::new(session);
    let cache = ResultCache::new(CACHE_CAP);
    let job = Job {
        session,
        front: &front,
        cache: &cache,
        deadline_ms: DEADLINE_MS,
    };
    let mut tr = Tracer::new(true);
    let mut wrong = 0;
    for (i, r) in reqs.iter().take(SERVICE_SAMPLE).enumerate() {
        let ok = replay_job(&mut tr, &job, i as u64, &r.src)
            .is_ok_and(|a| r.expect.as_ref().is_some_and(|e| a.matches(e)));
        wrong += usize::from(!ok);
    }
    (median(&mut tr.durations_us("op.request")) / 1e3, wrong)
}

/// Measures capacity: a closed loop over [`QUEUE_CAP`] connections (few
/// enough that nothing is shed), each sending its next request when the
/// last is answered. Used to choose the fixed rates; prints answers per
/// second.
pub fn calibrate(args: &Args) {
    let kernels = kernels();
    let (server, _) = start_server(&programs(&kernels)).expect("the server starts");
    let addr = server.local_addr();
    let reqs = serve_stream(args.seed, 400_000, TAG_BASE);
    let (done, shed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..QUEUE_CAP {
            let (reqs, done, shed) = (&reqs, &done, &shed);
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    return;
                };
                let mut i = c;
                while start.elapsed() < args.seconds && i < reqs.len() {
                    match client.eval_batch(&[reqs[i].src.as_str()], Some(DEADLINE_MS)) {
                        Ok(out) => match out.first() {
                            Some(RemoteOutcome::Done { .. }) => {
                                done.fetch_add(1, Ordering::Relaxed)
                            }
                            _ => shed.fetch_add(1, Ordering::Relaxed),
                        },
                        Err(_) => return,
                    };
                    i += QUEUE_CAP;
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    println!(
        "capacity: {:.0} answers/s closed loop over {QUEUE_CAP} connections ({} shed)",
        done.load(Ordering::Relaxed) as f64 / secs,
        shed.load(Ordering::Relaxed)
    );
    server.stop();
    server.join();
}
