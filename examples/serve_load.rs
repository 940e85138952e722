//! An open-loop load generator for `urk serve`, reporting p50/p99
//! latency and the shed rate under overload.
//!
//! ```text
//! # terminal 1
//! cargo run --release --bin urk -- serve --listen 127.0.0.1:7199 --jobs 4
//! # terminal 2
//! cargo run --release --example serve_load -- --addr 127.0.0.1:7199 \
//!     --clients 4 --rate 400 --duration 10 --json target/serve_load.json
//! # CI smoke: one batch end to end, then a graceful remote shutdown
//! cargo run --release --example serve_load -- --addr 127.0.0.1:7199 --smoke --shutdown
//! ```
//!
//! **Open loop** means the arrival schedule is fixed up front: each
//! client pipelines one single-expression batch onto its connection at
//! `rate / clients` per second *regardless of completions*, and latency
//! is measured from the request's **scheduled** arrival time. Under
//! overload this keeps the numbers honest — a closed-loop generator
//! slows its own arrivals to match the server and reports flattering
//! latencies; an open-loop one charges every queueing and shedding
//! delay to the request that suffered it (sheds are counted separately,
//! not folded into the latency distribution).

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use urk::Client;
use urk_io::{read_frame, write_frame, Request, Response};

struct Args {
    addr: String,
    clients: usize,
    /// Total arrival rate across all clients, requests/second.
    rate: f64,
    duration_s: f64,
    json: Option<String>,
    smoke: bool,
    shutdown: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_load --addr HOST:PORT [--clients N] [--rate HZ] [--duration SECS]\n\
         \x20                 [--json FILE] [--smoke] [--shutdown]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        clients: 4,
        rate: 200.0,
        duration_s: 5.0,
        json: None,
        smoke: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => out.addr = args.next().unwrap_or_else(|| usage()),
            "--clients" => {
                out.clients = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--rate" => {
                out.rate = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--duration" => {
                out.duration_s = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => out.json = Some(args.next().unwrap_or_else(|| usage())),
            "--smoke" => out.smoke = true,
            "--shutdown" => out.shutdown = true,
            _ => usage(),
        }
    }
    if out.addr.is_empty() || out.clients == 0 || out.rate <= 0.0 {
        usage();
    }
    out
}

/// The workload: arithmetic of varying depth so requests do real,
/// unequal work. A small id-space means later requests hit the server's
/// shared cache — exactly what a production mix looks like.
fn expr_for(seq: u64) -> String {
    format!("sum [1 .. {}]", 10 + (seq % 97) * 7)
}

/// What one client measured.
#[derive(Default)]
struct ClientReport {
    /// Latency per completed request, measured from the scheduled
    /// arrival time, in milliseconds.
    latencies_ms: Vec<f64>,
    sent: u64,
    completed: u64,
    overloaded: u64,
    errors: u64,
}

/// One open-loop client: a writer pipelining requests on schedule and a
/// reader matching `batch_done` frames back to their arrival times.
fn run_client(
    addr: &str,
    per_client_rate: f64,
    duration: Duration,
) -> std::io::Result<ClientReport> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;

    let scheduled: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let report = Arc::new(Mutex::new(ClientReport::default()));

    let reader = {
        let scheduled = Arc::clone(&scheduled);
        let report = Arc::clone(&report);
        let mut stream = stream;
        std::thread::spawn(move || {
            // Per-batch shed flag: `overloaded` frames arrive before the
            // batch's `batch_done`.
            let mut shed_ids: HashMap<u64, bool> = HashMap::new();
            while let Ok(Some(payload)) = read_frame(&mut stream) {
                let Ok(resp) = Response::decode(&payload) else {
                    report.lock().expect("report lock").errors += 1;
                    continue;
                };
                match resp {
                    Response::Overloaded { id, .. } => {
                        shed_ids.insert(id, true);
                    }
                    Response::JobError { id, .. } => {
                        shed_ids.insert(id, true);
                        report.lock().expect("report lock").errors += 1;
                    }
                    Response::BatchDone { id, .. } => {
                        let started = scheduled.lock().expect("schedule lock").remove(&id);
                        let mut rep = report.lock().expect("report lock");
                        rep.completed += 1;
                        if shed_ids.remove(&id).unwrap_or(false) {
                            rep.overloaded += 1;
                        } else if let Some(started) = started {
                            rep.latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    _ => {}
                }
            }
        })
    };

    // The open loop: send request `i` at `start + i/rate`, never
    // skipping a slot and never waiting for a response.
    let start = Instant::now();
    let gap = Duration::from_secs_f64(1.0 / per_client_rate);
    let mut seq: u64 = 0;
    while start.elapsed() < duration {
        let due = start + gap.mul_f64(seq as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = seq + 1;
        // Charge the full queueing delay to the request: the clock
        // starts at the *scheduled* arrival, not the actual write.
        scheduled.lock().expect("schedule lock").insert(id, due);
        let req = Request::Batch {
            id,
            exprs: vec![expr_for(seq)],
            deadline_ms: Some(2_000),
            max_steps: None,
            max_heap: None,
            max_stack: None,
        };
        if write_frame(&mut writer, &req.encode()).is_err() {
            break;
        }
        seq += 1;
    }

    // Drain: wait (bounded) for every in-flight batch, then hang up.
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while !scheduled.lock().expect("schedule lock").is_empty() && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = writer.shutdown(std::net::Shutdown::Both);
    let _ = reader.join();

    let mut out = std::mem::take(&mut *report.lock().expect("report lock"));
    out.sent = seq;
    Ok(out)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One small batch end to end — the CI gate that the server actually
/// serves: a value, an imprecise exception, and a cache hit.
fn smoke(addr: &str) -> std::io::Result<()> {
    let mut client = Client::connect(addr.parse().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("bad addr: {e}"))
    })?)?;
    client.ping()?;
    let outcomes = client.eval_batch(&["2 + 2", r#"(1/0) + error "Urk""#, "2 + 2"], Some(5_000))?;
    let fail = |msg: String| Err(std::io::Error::other(msg));
    match &outcomes[0] {
        urk::RemoteOutcome::Done { rendered, .. } if rendered == "4" => {}
        other => return fail(format!("expected 4, got {other:?}")),
    }
    match &outcomes[1] {
        urk::RemoteOutcome::Done {
            exception: Some(e), ..
        } if e == "DivideByZero" || e.starts_with("UserError") => {}
        other => return fail(format!("expected an imprecise exception, got {other:?}")),
    }
    match &outcomes[2] {
        urk::RemoteOutcome::Done { rendered, .. } if rendered == "4" => {}
        other => return fail(format!("expected 4 again, got {other:?}")),
    }
    println!("smoke ok: {outcomes:?}");
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args = parse_args();

    if args.smoke {
        if let Err(e) = smoke(&args.addr) {
            eprintln!("serve_load: smoke failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
        if args.shutdown {
            if let Err(e) = shutdown_server(&args.addr) {
                eprintln!("serve_load: shutdown failed: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
        return std::process::ExitCode::SUCCESS;
    }

    let per_client_rate = args.rate / args.clients as f64;
    let duration = Duration::from_secs_f64(args.duration_s);
    eprintln!(
        "serve_load: {} clients, {:.0} req/s total ({:.1}/client), {:.0}s, open loop",
        args.clients, args.rate, per_client_rate, args.duration_s
    );

    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|_| {
                let addr = args.addr.as_str();
                scope.spawn(move || run_client(addr, per_client_rate, duration))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread").expect("client runs"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let (mut sent, mut completed, mut overloaded, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for r in &reports {
        latencies.extend_from_slice(&r.latencies_ms);
        sent += r.sent;
        completed += r.completed;
        overloaded += r.overloaded;
        errors += r.errors;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let max = latencies.last().copied().unwrap_or(0.0);
    let served_rps = completed as f64 / wall_s;

    eprintln!(
        "serve_load: sent {sent}  completed {completed}  overloaded {overloaded}  errors {errors}"
    );
    eprintln!(
        "serve_load: latency ms (scheduled→batch_done)  p50 {p50:.2}  p99 {p99:.2}  mean {mean:.2}  max {max:.2}"
    );
    eprintln!("serve_load: served {served_rps:.1} req/s over {wall_s:.1}s wall");

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"clients\": {},\n  \"offered_rate_hz\": {:.1},\n  \
         \"duration_s\": {:.1},\n  \"sent\": {sent},\n  \"completed\": {completed},\n  \
         \"overloaded\": {overloaded},\n  \"errors\": {errors},\n  \"served_rps\": {served_rps:.1},\n  \
         \"p50_ms\": {p50:.3},\n  \"p99_ms\": {p99:.3},\n  \"mean_ms\": {mean:.3},\n  \
         \"max_ms\": {max:.3}\n}}\n",
        args.clients, args.rate, args.duration_s
    );
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("serve_load: cannot write {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("serve_load: wrote {path}");
    } else {
        print!("{json}");
        let _ = std::io::stdout().flush();
    }

    if args.shutdown {
        if let Err(e) = shutdown_server(&args.addr) {
            eprintln!("serve_load: shutdown failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    if completed + overloaded == 0 {
        eprintln!("serve_load: nothing completed — is the server up?");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}

fn shutdown_server(addr: &str) -> std::io::Result<()> {
    let mut client = Client::connect(addr.parse().map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("bad addr: {e}"))
    })?)?;
    client.shutdown()?;
    eprintln!("serve_load: server acknowledged shutdown");
    Ok(())
}
