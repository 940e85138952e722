//! The network serving tier: protocol recovery, remote/in-process
//! equivalence, deadline isolation across connections, load shedding,
//! and graceful shutdown.
//!
//! The refinement criterion is what makes a *network* tier sound at
//! all: an expression denotes a set of exceptions and any member is an
//! admissible answer, so an answer computed in another process (or
//! served from the pool's shared cache) is exactly as valid as a local
//! one. These tests hold the server to the strongest observable form of
//! that claim — remote outcomes byte-identical to in-process
//! [`EvalPool::eval_batch`] — and to its operational contracts: a bad
//! frame costs one error response, a full queue costs an explicit
//! `overloaded`, a slow job dies by its own deadline and nobody else's.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use urk::{
    Client, EvalPool, Options, PoolConfig, RemoteOutcome, ServeConfig, Server, Session, Supervisor,
};
use urk_io::{read_frame, write_frame, Request, Response, WireStats};

/// The pool tests' mixed corpus: values, top-level exceptions,
/// exceptions buried in lazy structure, duplicates for the cache.
const CORPUS: &[&str] = &[
    "sum [1 .. 40]",
    r#"(1/0) + error "Urk""#,
    "zipWith (/) [1, 2] [1, 0]",
    "head (tail [1])",
    "take 5 (iterate (\\x -> x * 2) 1)",
    "sort [3, 1, 2]",
    "sum [1 .. 40]",
    r#"(1/0) + error "Urk""#,
    "length [1 .. 100]",
    "1 + 2 * 3",
];

fn server_with(pool: PoolConfig) -> Server {
    Server::start(
        &[],
        Options::default(),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            pool,
        },
    )
    .expect("server starts")
}

#[test]
fn malformed_frames_cost_one_error_response_not_the_connection() {
    let server = server_with(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connects");

    // Goldens: each bad payload earns an `error` response whose message
    // pins the failure mode, and the connection survives every one.
    let goldens: &[(&[u8], &str)] = &[
        (b"not json\n", "invalid JSON"),
        (b"{}\n", "'id'"),
        (
            b"{\"type\":\"frobnicate\",\"id\":1}\n",
            "unknown request type",
        ),
        (b"{\"type\":\"batch\",\"id\":1}\n", "'exprs'"),
        (b"{\"type\":\"batch\",\"id\":8,\"exprs\":[3]}\n", "strings"),
        (b"\xff\xfe\n", "UTF-8"),
    ];
    for (payload, needle) in goldens {
        match client.send_raw(payload).expect("connection survives") {
            Response::Error { message, .. } => assert!(
                message.contains(needle),
                "{payload:?}: error message {message:?} should mention {needle:?}"
            ),
            other => panic!("{payload:?}: expected an error response, got {other:?}"),
        }
    }

    // A salvageable id is echoed back so the client can match the error.
    match client
        .send_raw(b"{\"type\":\"frobnicate\",\"id\":42}\n")
        .expect("alive")
    {
        Response::Error { id, .. } => assert_eq!(id, Some(42)),
        other => panic!("expected an error response, got {other:?}"),
    }

    // After all that abuse the connection still evaluates.
    client.ping().expect("still alive");
    let got = client.eval_batch(&["6 * 7"], None).expect("still serves");
    assert_eq!(
        got,
        vec![RemoteOutcome::Done {
            rendered: "42".to_string(),
            exception: None,
            cache_hit: false,
            timed_out: false,
        }]
    );

    // And the abuse was counted.
    match client.stats().expect("stats") {
        Response::Stats {
            protocol_errors, ..
        } => assert_eq!(protocol_errors, goldens.len() as u64 + 1),
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn an_oversized_length_field_drops_the_connection_after_one_error() {
    let server = server_with(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    // A length field past MAX_FRAME_LEN: the stream can no longer be
    // trusted, so the server answers once and hangs up.
    stream.write_all(&u32::MAX.to_be_bytes()).expect("writes");
    stream.flush().expect("flushes");

    let first = read_frame(&mut stream)
        .expect("one frame comes back")
        .expect("not EOF yet");
    match Response::decode(&first).expect("decodes") {
        Response::Error { message, .. } => assert!(message.contains("exceeds")),
        other => panic!("expected an error response, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut stream), Ok(None) | Err(_)),
        "the connection must close after an untrustworthy length field"
    );
}

#[test]
fn remote_outcomes_are_byte_identical_to_in_process_evaluation() {
    let pool_config = PoolConfig {
        workers: 4,
        cache_cap: 128,
        ..PoolConfig::default()
    };

    // The in-process baseline.
    let pool = EvalPool::start(&[], Options::default(), pool_config.clone()).expect("pool starts");
    let baseline: Vec<(String, Option<String>)> = pool
        .eval_batch(CORPUS)
        .into_iter()
        .map(|r| {
            let out = r.expect("corpus jobs succeed");
            (out.rendered, out.exception.map(|e| e.to_string()))
        })
        .collect();

    // Several concurrent clients of one server, each running the whole
    // corpus a few times (duplicates make later rounds hit the shared
    // cache — a cached remote answer must be as good as a fresh one).
    let server = server_with(pool_config);
    let addr = server.local_addr();
    let all: Vec<Vec<RemoteOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    let mut rounds = Vec::new();
                    for _ in 0..3 {
                        rounds.extend(client.eval_batch(CORPUS, None).expect("evaluates"));
                    }
                    rounds
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joins"))
            .collect()
    });

    let oracle = Session::new();
    for rounds in &all {
        assert_eq!(rounds.len(), 3 * CORPUS.len());
        for (i, outcome) in rounds.iter().enumerate() {
            let src = CORPUS[i % CORPUS.len()];
            let (expected_rendered, expected_exception) = &baseline[i % CORPUS.len()];
            let RemoteOutcome::Done {
                rendered,
                exception,
                ..
            } = outcome
            else {
                panic!("{src}: expected a result, got {outcome:?}");
            };
            assert_eq!(rendered, expected_rendered, "{src}");
            assert_eq!(exception, expected_exception, "{src}");

            // A raised representative must be a member of the denoted
            // exception set — the refinement criterion, end to end over
            // the wire.
            if let Some(display) = exception {
                let set = oracle
                    .exception_set(src)
                    .expect("oracle evaluates")
                    .unwrap_or_else(|| {
                        panic!("{src}: server raised {display} but denotation is a value")
                    });
                assert!(
                    set.iter().any(|member| member.to_string() == *display),
                    "{src}: representative {display} is not in the denoted set {set}"
                );
            }
        }
    }
}

#[test]
fn deadlines_kill_slow_jobs_without_stalling_other_connections() {
    // Two workers: one gets wedged on the diverging job, the other keeps
    // serving the second connection.
    let server = server_with(PoolConfig {
        workers: 2,
        supervisor: Supervisor::default(),
        ..PoolConfig::default()
    });
    let addr = server.local_addr();
    let diverge = "let f = \\n -> f (n + 1) in f 0";

    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        client
            .eval_batch(&[diverge], Some(400))
            .expect("a timeout is an answer, not a dropped connection")
    });

    // While the runaway burns its 400ms, a second connection gets quick
    // answers well before the slow job's deadline resolves.
    let mut fast = Client::connect(addr).expect("connects");
    let started = Instant::now();
    let got = fast.eval_batch(&["2 + 2", "head [9]"], None).expect("fast");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "quick jobs must not queue behind a slow connection"
    );
    assert_eq!(
        got[0],
        RemoteOutcome::Done {
            rendered: "4".to_string(),
            exception: None,
            cache_hit: false,
            timed_out: false,
        }
    );

    let slow_results = slow.join().expect("joins");
    let RemoteOutcome::Done {
        rendered,
        exception,
        timed_out,
        cache_hit,
    } = &slow_results[0]
    else {
        panic!("expected a timeout result, got {slow_results:?}");
    };
    assert!(timed_out, "the supervisor's watchdog must have fired");
    assert_eq!(exception.as_deref(), Some("Timeout"));
    assert_eq!(rendered, "(raise Timeout)");
    assert!(
        !cache_hit,
        "an asynchronous Timeout must never be served from the cache"
    );

    // The per-request deadline must not have stuck to the pool: the same
    // expression without one, on a fresh connection, is cancelled only
    // by shutdown — so just check a quick job still runs instantly.
    let mut after = Client::connect(addr).expect("connects");
    let again = after.eval_batch(&["3 + 3"], None).expect("serves");
    assert_eq!(
        again[0],
        RemoteOutcome::Done {
            rendered: "6".to_string(),
            exception: None,
            cache_hit: false,
            timed_out: false,
        }
    );
}

#[test]
fn full_queues_shed_with_explicit_overloaded_responses_and_recover() {
    // One worker, a one-slot queue: a batch of one slow job plus many
    // quick ones must overflow admission, and every overflow must come
    // back as `overloaded` — never a hang, never a dropped frame.
    let server = server_with(PoolConfig {
        workers: 1,
        queue_cap: 1,
        cache_cap: 0,
        ..PoolConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connects");

    let slow = "let f = \\n -> f (n + 1) in f 0";
    let mut exprs = vec![slow];
    exprs.extend(std::iter::repeat_n("1 + 1", 7));
    let outcomes = client
        .eval_batch(&exprs, Some(300))
        .expect("the batch completes");

    assert_eq!(outcomes.len(), 8);
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, RemoteOutcome::Overloaded))
        .count();
    let done = outcomes
        .iter()
        .filter(|o| matches!(o, RemoteOutcome::Done { .. }))
        .count();
    assert!(
        shed >= 5,
        "a one-slot queue admits at most the in-flight job, one queued job,\n\
         and whatever the worker drained mid-admission; got {shed} shed of 8"
    );
    assert_eq!(shed + done, 8, "every index answers: {outcomes:?}");

    // The slow job itself was admitted (first in) and died by deadline.
    assert!(
        matches!(
            &outcomes[0],
            RemoteOutcome::Done {
                timed_out: true,
                ..
            }
        ),
        "the head of the batch is admitted before the queue can fill: {:?}",
        outcomes[0]
    );

    // Shedding is a per-admission verdict, not a connection state: once
    // the queue drains, the same connection is served in full again.
    let recovered = client.eval_batch(&["2 * 21"], None).expect("recovers");
    assert_eq!(
        recovered,
        vec![RemoteOutcome::Done {
            rendered: "42".to_string(),
            exception: None,
            cache_hit: false,
            timed_out: false,
        }]
    );

    // And the stats frame accounts for the shed jobs.
    match client.stats().expect("stats") {
        Response::Stats {
            jobs_shed,
            jobs_submitted,
            queue_cap,
            workers,
            ..
        } => {
            assert_eq!(jobs_shed, shed as u64);
            assert_eq!(jobs_submitted, (8 - shed as u64) + 1);
            assert_eq!(queue_cap, 1);
            assert_eq!(workers, 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn stats_snapshots_surface_pool_cache_and_protocol_counters() {
    let server = server_with(PoolConfig {
        workers: 2,
        cache_cap: 64,
        ..PoolConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connects");

    client.ping().expect("pong");
    let exprs = ["sum [1 .. 30]", "sum [1 .. 30]", "1/0"];
    client.eval_batch(&exprs, None).expect("evaluates");

    match client.stats().expect("stats") {
        Response::Stats {
            workers,
            queue_cap,
            connections,
            requests,
            jobs_submitted,
            jobs_shed,
            jobs,
            backend,
            cache,
            totals,
            ..
        } => {
            assert_eq!(workers, 2);
            assert_eq!(queue_cap, 256);
            assert_eq!(connections, 1);
            // ping + batch + this stats request.
            assert_eq!(requests, 3);
            assert_eq!(jobs_submitted, 3);
            assert_eq!(jobs_shed, 0);
            assert_eq!(backend, "compiled");
            assert_eq!(cache.capacity, 64);
            assert!(
                cache.insertions >= 2,
                "both distinct pure outcomes are cached: {cache:?}"
            );
            assert_eq!(jobs, 3);
            assert!(totals.steps > 0);
            assert_eq!(
                totals.cache_hits + totals.cache_misses,
                3,
                "every job either hit or missed: {totals:?}"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A cache hit runs no machine, so it adds nothing to the serving
/// totals but its `cache_hits` stamp: one miss followed by nine hits
/// totals exactly one evaluation's counters.
#[test]
fn totals_count_machine_work_once_for_cache_hits() {
    let server = server_with(PoolConfig {
        workers: 1,
        cache_cap: 64,
        ..PoolConfig::default()
    });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    let exprs = vec!["sum [1 .. 30]".to_string(); 10];
    let batch = Request::Batch {
        id: 1,
        exprs,
        deadline_ms: None,
        max_steps: None,
        max_heap: None,
        max_stack: None,
    };
    write_frame(&mut stream, &batch.encode()).expect("sends");
    let mut results = Vec::new();
    loop {
        let frame = read_frame(&mut stream).expect("reads").expect("open");
        match Response::decode(&frame).expect("decodes") {
            Response::Result {
                cache_hit, stats, ..
            } => results.push((cache_hit, stats)),
            Response::BatchDone { .. } => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    let hits: Vec<bool> = results.iter().map(|(hit, _)| *hit).collect();
    let mut expected_hits = vec![true; 10];
    expected_hits[0] = false;
    assert_eq!(hits, expected_hits, "one worker: the first job misses");
    let evaluated = &results[0].1;
    assert!(evaluated.steps > 0);

    write_frame(&mut stream, &Request::Stats { id: 2 }.encode()).expect("sends");
    let frame = read_frame(&mut stream).expect("reads").expect("open");
    match Response::decode(&frame).expect("decodes") {
        Response::Stats { jobs, totals, .. } => {
            assert_eq!(jobs, 10);
            assert_eq!(
                totals,
                WireStats {
                    cache_hits: 9,
                    ..evaluated.clone()
                },
                "nine hits add no machine work"
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

#[test]
fn a_shutdown_frame_drains_the_server_and_join_returns() {
    let server = server_with(PoolConfig {
        workers: 2,
        ..PoolConfig::default()
    });
    let addr = server.local_addr();

    // A second, idle connection: shutdown must not wait on it forever
    // (connection threads poll the stop flag between reads).
    let idle = Client::connect(addr).expect("connects");

    let mut client = Client::connect(addr).expect("connects");
    client.eval_batch(&["1 + 1"], None).expect("serves");
    client.shutdown().expect("acknowledged");

    let started = Instant::now();
    server.join();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "join must return promptly after a shutdown frame"
    );
    drop(idle);

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err()
            || Client::connect(addr)
                .map(|mut c| c.ping().is_err())
                .unwrap_or(true),
        "a stopped server must not accept new work"
    );
}

#[test]
fn dropping_the_server_handle_stops_everything() {
    let addr = {
        let server = server_with(PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).expect("connects");
        client.eval_batch(&["1 + 1"], None).expect("serves");
        server.local_addr()
        // `server` drops here: stop + join.
    };
    assert!(
        TcpStream::connect(addr).is_err()
            || Client::connect(addr)
                .map(|mut c| c.ping().is_err())
                .unwrap_or(true),
        "a dropped server must not accept new work"
    );
}

#[test]
fn a_client_that_never_reads_cannot_hang_the_shutdown() {
    let server = server_with(PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    });
    // Pipeline batches without reading a single answer. Once the answers
    // fill both socket buffers the connection thread blocks writing and
    // stops reading requests, so this client's own writes stall too.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("sets a write timeout");
    let batch = Request::Batch {
        id: 1,
        exprs: vec!["1 + 1".to_string(); 64],
        deadline_ms: None,
        max_steps: None,
        max_heap: None,
        max_stack: None,
    }
    .encode();
    let flooding = Instant::now();
    while write_frame(&mut stream, &batch).is_ok() {
        assert!(
            flooding.elapsed() < Duration::from_secs(30),
            "the server never stopped reading"
        );
    }

    // The connection thread is now blocked on a reader that never reads;
    // stopping the server must still finish.
    let (done, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.stop();
        server.join();
        let _ = done.send(());
    });
    assert!(
        stopped.recv_timeout(Duration::from_secs(30)).is_ok(),
        "a client that never reads must not hang the server's shutdown"
    );
    stopper.join().expect("the stopping thread finishes");
    // Connected until here: closing earlier would fail the server's write
    // without any timeout.
    drop(stream);
}
