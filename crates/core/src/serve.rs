//! The network serving tier: `urk serve`, a TCP front-end over
//! [`EvalPool`].
//!
//! Clients hold persistent connections and speak the length-prefixed
//! JSON-lines protocol of [`urk_io::wire`]: a `batch` request fans its
//! expressions into the pool's bounded job queue and the results stream
//! back **in submission order** — each as soon as it (and everything
//! before it) is done — via the same [`SharedBatch`] plumbing that backs
//! in-process [`EvalPool::eval_batch`]. The answer a remote client sees
//! is therefore byte-identical to a local evaluation; serving it from
//! another machine, another worker, or the shared cache is licensed by
//! the paper's refinement argument (an expression denotes a *set* of
//! exceptions; any member is an admissible answer — DESIGN.md §12).
//!
//! Three policies keep the tier honest under pressure:
//!
//! * **Load shedding, not blocking.** Jobs are admitted with the pool's
//!   non-blocking [`EvalPool::try_submit`]; when the bounded queue is
//!   full the job is never enqueued and the client receives an explicit
//!   `overloaded` response for that index. The accept loop and the other
//!   connections never stall behind a full queue.
//! * **Per-request leashes.** A batch's `deadline_ms`/`max_steps`/
//!   `max_heap`/`max_stack` fields become a [`JobLimits`] override, so
//!   one slow remote job dies by the pool [`Supervisor`]'s watchdog
//!   (delivered through the worker's `InterruptHandle`) without
//!   reconfiguring the pool or stalling anyone else.
//! * **Frame-bounded failure.** A payload that fails to decode costs one
//!   `error` response, not the connection; only an untrustworthy length
//!   field (or transport failure) drops the link. See `urk_io::wire`.
//!
//! Shutdown is cooperative: a `shutdown` frame (or [`Server::stop`])
//! raises a flag, wakes the accept loop, and every connection thread —
//! which polls the flag between reads — drains out; the pool then shuts
//! down gracefully, completing accepted work.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use urk_io::{
    parse_json, read_frame, write_frame, FrameError, Json, Request, Response, SharedBatch,
    WireCacheStats, WireStats, MAX_FRAME_LEN,
};
use urk_machine::Stats;

use crate::error::Error;
use crate::pool::{EvalPool, JobLimits, JobResult, PoolConfig, SubmitError};
use crate::session::Options;

/// How often a blocked connection read wakes up to check the stop flag.
const POLL: Duration = Duration::from_millis(100);

/// How long a write may make no progress before the connection is
/// dropped: a client that sends but never reads fills the socket
/// buffers, and without a bound its thread would block in `write_frame`
/// forever, so the server's stop would never finish joining it.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How the serving tier is shaped.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The address to bind (`"127.0.0.1:0"` picks a free port; see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// The pool behind the listener.
    pub pool: PoolConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            pool: PoolConfig::default(),
        }
    }
}

/// Why the server could not start (or serve).
#[derive(Debug)]
pub enum ServeError {
    /// The pool failed to start (a front-end error in the sources).
    Start(Error),
    /// Binding or configuring the listener failed.
    Io(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Start(e) => write!(f, "starting the pool failed: {e}"),
            ServeError::Io(e) => write!(f, "listener error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Whole-server counters, all monotone except the `connections` gauge.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_shed: AtomicU64,
    jobs: AtomicU64,
    protocol_errors: AtomicU64,
    totals: Totals,
}

/// Every answered job's machine counters: one atomic per schema counter
/// ([`Stats::counters`] order), each merged by its counter's kind.
struct Totals(Vec<AtomicU64>);

impl Default for Totals {
    fn default() -> Totals {
        Totals(Stats::counters().map(|_| AtomicU64::new(0)).collect())
    }
}

impl Totals {
    fn add(&self, stats: &Stats) {
        for (c, total) in Stats::counters().zip(&self.0) {
            let v = (c.get)(stats);
            let _ = total.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |acc| {
                Some(c.kind.merge(acc, v))
            });
        }
    }

    /// The totals so far, tagged with the pool's `backend` and `tier`.
    fn snapshot(&self, tags: &Stats) -> Stats {
        let mut s = tags.clone();
        for (c, total) in Stats::counters().zip(&self.0) {
            (c.set)(&mut s, total.load(Ordering::Relaxed));
        }
        s
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    pool: EvalPool,
    stop: AtomicBool,
    addr: SocketAddr,
    /// The pool's mode tags (`backend`, `tier`), counters all zero.
    tags: Stats,
    counters: Counters,
}

impl Shared {
    /// Raises the stop flag and wakes the accept loop (which is blocked
    /// in `accept`) with a throwaway connection. Idempotent.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running `urk serve` instance. Dropping the handle stops the server
/// and joins every thread; prefer [`Server::join`] to do so explicitly.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config.addr`, starts the pool (loading `sources` into
    /// every worker session configured by `options`), and begins
    /// accepting connections on a background thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Start`] for front-end errors in `sources`;
    /// [`ServeError::Io`] if the listener cannot bind.
    pub fn start(
        sources: &[&str],
        options: Options,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        let tags = Stats {
            backend: options.backend,
            tier: options.tier,
            ..Stats::default()
        };
        let pool = EvalPool::start(sources, options, config.pool).map_err(ServeError::Start)?;
        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
        let addr = listener.local_addr().map_err(ServeError::Io)?;

        let shared = Arc::new(Shared {
            pool,
            stop: AtomicBool::new(false),
            addr,
            tags,
            counters: Counters::default(),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("urk-serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &conns))
                .map_err(ServeError::Io)?
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the server to stop: no new connections are accepted, live
    /// connections drain at their next poll tick. Idempotent; returns
    /// immediately — use [`Server::join`] to wait.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Blocks until the server stops (a `shutdown` frame or
    /// [`Server::stop`]), then joins every connection thread and shuts
    /// the pool down gracefully (accepted work completes).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
            let handles: Vec<JoinHandle<()>> = {
                let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
                conns.drain(..).collect()
            };
            for h in handles {
                let _ = h.join();
            }
            self.shared.pool.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_stop();
        self.join_inner();
    }
}

/// Accepts until the stop flag rises. Each connection gets its own
/// thread; finished handles are reaped opportunistically so a
/// long-running server does not accumulate them.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return; // `stream` is the wake-up connection (or a late client).
        }

        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("urk-serve-conn-{next_id}"))
                .spawn(move || serve_connection(stream, &shared))
        };
        next_id += 1;
        if let Ok(handle) = handle {
            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.retain(|h| !h.is_finished());
            conns.push(handle);
        }
    }
}

/// Reads exactly `buf.len()` bytes, polling the stop flag between
/// reads. Returns `Ok(false)` on a clean EOF **before any byte** (a
/// frame boundary) or when asked to stop at a frame boundary; a short
/// read mid-buffer is an error.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) && filled == 0 {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// As [`urk_io::read_frame`], but wakes every [`POLL`] to check the
/// stop flag so an idle connection cannot pin the server open.
fn read_frame_polling(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    if !read_exact_polling(stream, &mut len_bytes, stop)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_polling(stream, &mut payload, stop)? {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        )));
    }
    Ok(Some(payload))
}

/// Serves one client until it disconnects, the protocol becomes
/// untrustworthy, or the server stops.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let counters = &shared.counters;
    counters.connections.fetch_add(1, Ordering::Relaxed);

    loop {
        let payload = match read_frame_polling(&mut stream, &shared.stop) {
            Ok(Some(payload)) => payload,
            Ok(None) => break, // clean close (or server stop at a boundary)
            Err(FrameError::TooLarge(n)) => {
                // The stream can no longer be trusted: answer once, drop.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id: None,
                    message: format!("frame length {n} exceeds the {MAX_FRAME_LEN}-byte bound"),
                };
                let _ = write_frame(&mut stream, &resp.encode());
                break;
            }
            Err(FrameError::Io(_)) => break,
        };

        let request = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // A bad payload costs one frame, never the connection.
                counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    id: salvage_id(&payload),
                    message: e.to_string(),
                };
                if write_frame(&mut stream, &resp.encode()).is_err() {
                    break;
                }
                continue;
            }
        };

        counters.requests.fetch_add(1, Ordering::Relaxed);
        let keep_going = match request {
            Request::Ping { id } => send(&mut stream, &Response::Pong { id }),
            Request::Stats { id } => send(&mut stream, &stats_response(shared, id)),
            Request::Shutdown { id } => {
                let _ = write_frame(&mut stream, &Response::ShuttingDown { id }.encode());
                shared.request_stop();
                false
            }
            Request::Batch {
                id,
                exprs,
                deadline_ms,
                max_steps,
                max_heap,
                max_stack,
            } => {
                let limits = JobLimits {
                    deadline: deadline_ms.map(Duration::from_millis),
                    max_steps,
                    max_heap: max_heap.map(|n| n as usize),
                    max_stack: max_stack.map(|n| n as usize),
                };
                serve_batch(&mut stream, shared, id, &exprs, limits)
            }
        };
        if !keep_going {
            break;
        }
    }

    counters.connections.fetch_sub(1, Ordering::Relaxed);
}

/// Admits a batch through [`EvalPool::try_submit`] and streams the
/// answers back in submission order. Returns `false` when the
/// connection died mid-stream.
fn serve_batch(
    stream: &mut TcpStream,
    shared: &Shared,
    id: u64,
    exprs: &[String],
    limits: JobLimits,
) -> bool {
    let counters = &shared.counters;
    let batch: SharedBatch<JobResult> = SharedBatch::new(exprs.len());
    let mut shed = vec![false; exprs.len()];

    // Admission pass: non-blocking. A full queue sheds the job — the
    // slot is fulfilled locally so the stream below never waits on it.
    for (index, src) in exprs.iter().enumerate() {
        match shared.pool.try_submit(src, limits.clone(), index, &batch) {
            Ok(()) => {
                counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(SubmitError::QueueFull) => {
                shed[index] = true;
                counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
                batch.fulfil(index, Err(crate::pool::PoolError("shed".to_string())));
            }
            Err(SubmitError::Closed) => {
                batch.fulfil(
                    index,
                    Err(crate::pool::PoolError("pool is shut down".to_string())),
                );
            }
        }
    }

    // Streaming pass: submission order, each answer as soon as ready.
    let mut shed_count: u64 = 0;
    for index in 0..exprs.len() {
        let resp = if shed[index] {
            shed_count += 1;
            Response::Overloaded {
                id,
                index: index as u64,
            }
        } else {
            match batch.take(index) {
                Ok(out) => {
                    counters.jobs.fetch_add(1, Ordering::Relaxed);
                    counters.totals.add(&out.work());
                    Response::Result {
                        id,
                        index: index as u64,
                        rendered: out.rendered,
                        exception: out.exception.map(|e| e.to_string()),
                        cache_hit: out.cache_hit,
                        attempts: u64::from(out.attempts),
                        timed_out: out.timed_out,
                        stats: WireStats::from(&out.stats),
                    }
                }
                Err(e) => Response::JobError {
                    id,
                    index: index as u64,
                    message: e.to_string(),
                },
            }
        };
        if write_frame(stream, &resp.encode()).is_err() {
            // The client went away mid-stream. Drain the remaining
            // slots so in-flight workers aren't left fulfilling a batch
            // nobody reads (harmless either way — SharedBatch is
            // refcounted — but draining keeps the accounting exact).
            for (rest, was_shed) in shed.iter().enumerate().skip(index + 1) {
                if !was_shed {
                    let _ = batch.take(rest);
                }
            }
            return false;
        }
    }

    send(
        stream,
        &Response::BatchDone {
            id,
            jobs: exprs.len() as u64,
            shed: shed_count,
        },
    )
}

/// Builds the `stats` snapshot from the pool, the shared cache, and the
/// server's own counters.
fn stats_response(shared: &Shared, id: u64) -> Response {
    let counters = &shared.counters;
    let cache = shared.pool.cache_stats();
    Response::Stats {
        id,
        workers: shared.pool.worker_count() as u64,
        queue_depth: shared.pool.queue_depth() as u64,
        queue_cap: shared.pool.queue_cap() as u64,
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        jobs_submitted: counters.jobs_submitted.load(Ordering::Relaxed),
        jobs_shed: counters.jobs_shed.load(Ordering::Relaxed),
        jobs: counters.jobs.load(Ordering::Relaxed),
        protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
        backend: shared.tags.backend.name().to_string(),
        cache: WireCacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            insertions: cache.insertions,
            entries: cache.entries as u64,
            capacity: cache.capacity as u64,
            hit_rate: cache.hit_rate(),
        },
        totals: WireStats::from(&counters.totals.snapshot(&shared.tags)),
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &resp.encode()).is_ok()
}

/// Pulls a best-effort `id` out of a payload that failed to decode, so
/// the error response can still be matched to its request.
fn salvage_id(payload: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(payload).ok()?;
    parse_json(text).ok()?.get("id").and_then(Json::as_u64)
}

// ---------------------------------------------------------------------
// A minimal blocking client, used by the load generator and the tests
// (and handy for scripting against a live server).
// ---------------------------------------------------------------------

/// One answer to a batched expression, as seen by a [`Client`].
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteOutcome {
    /// The job finished; fields mirror [`Response::Result`].
    Done {
        rendered: String,
        exception: Option<String>,
        cache_hit: bool,
        timed_out: bool,
    },
    /// The job failed with a front-end or pool error.
    Failed(String),
    /// The job was load-shed at admission (queue full).
    Overloaded,
}

/// A blocking client for one `urk serve` connection.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Transport errors from `TcpStream::connect`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 0 })
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends one raw request and reads one raw response frame.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)
            .map_err(|e| io::Error::other(e.to_string()))?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Response::decode(&payload).map_err(|e| io::Error::other(e.to_string()))
    }

    /// Evaluates a batch with optional per-request limits, collecting
    /// the streamed responses into submission-order outcomes.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a stream that violates the
    /// protocol (wrong id, out-of-range index, missing `batch_done`).
    pub fn eval_batch(
        &mut self,
        exprs: &[&str],
        deadline_ms: Option<u64>,
    ) -> io::Result<Vec<RemoteOutcome>> {
        let id = self.fresh_id();
        let req = Request::Batch {
            id,
            exprs: exprs.iter().map(|s| (*s).to_string()).collect(),
            deadline_ms,
            max_steps: None,
            max_heap: None,
            max_stack: None,
        };
        write_frame(&mut self.stream, &req.encode())?;

        let mut out: Vec<Option<RemoteOutcome>> = vec![None; exprs.len()];
        loop {
            let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
            match self.read_response()? {
                Response::Result {
                    id: rid,
                    index,
                    rendered,
                    exception,
                    cache_hit,
                    timed_out,
                    ..
                } => {
                    if rid != id {
                        return Err(bad("response id mismatch"));
                    }
                    let slot = out
                        .get_mut(index as usize)
                        .ok_or_else(|| bad("result index out of range"))?;
                    *slot = Some(RemoteOutcome::Done {
                        rendered,
                        exception,
                        cache_hit,
                        timed_out,
                    });
                }
                Response::JobError {
                    id: rid,
                    index,
                    message,
                } => {
                    if rid != id {
                        return Err(bad("response id mismatch"));
                    }
                    let slot = out
                        .get_mut(index as usize)
                        .ok_or_else(|| bad("result index out of range"))?;
                    *slot = Some(RemoteOutcome::Failed(message));
                }
                Response::Overloaded { id: rid, index } => {
                    if rid != id {
                        return Err(bad("response id mismatch"));
                    }
                    let slot = out
                        .get_mut(index as usize)
                        .ok_or_else(|| bad("result index out of range"))?;
                    *slot = Some(RemoteOutcome::Overloaded);
                }
                Response::BatchDone { id: rid, .. } => {
                    if rid != id {
                        return Err(bad("response id mismatch"));
                    }
                    return out
                        .into_iter()
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| bad("batch_done before every result"));
                }
                Response::Error { message, .. } => return Err(io::Error::other(message)),
                _ => return Err(bad("unexpected response type mid-batch")),
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a non-pong answer.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        match self.round_trip(&Request::Ping { id })? {
            Response::Pong { id: rid } if rid == id => Ok(()),
            other => Err(io::Error::other(format!("expected pong, got {other:?}"))),
        }
    }

    /// Fetches the server's `stats` snapshot.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a non-stats answer.
    pub fn stats(&mut self) -> io::Result<Response> {
        let id = self.fresh_id();
        match self.round_trip(&Request::Stats { id })? {
            resp @ Response::Stats { .. } => Ok(resp),
            other => Err(io::Error::other(format!("expected stats, got {other:?}"))),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or a refusal.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let id = self.fresh_id();
        match self.round_trip(&Request::Shutdown { id })? {
            Response::ShuttingDown { id: rid } if rid == id => Ok(()),
            other => Err(io::Error::other(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// Sends raw bytes as one frame and reads one response — the tests'
    /// hook for malformed-payload goldens.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<Response> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }
}
