//! A multi-worker evaluation service: session pool, batch scheduler,
//! shared result cache.
//!
//! [`Session`] is deliberately single-threaded (`Rc` heaps, the works),
//! so the pool runs **one fully-loaded session per worker thread** and
//! moves *programs* (source strings), never sessions, across threads.
//! Jobs flow through a bounded MPMC queue (submitters block when it is
//! full — backpressure, not unbounded buffering), each job runs under
//! the pool's [`Supervisor`] envelope (deadline, budgets, panic
//! isolation, bounded retry), and results land in a
//! [`SharedBatch`](urk_io::SharedBatch) keyed by submission index, so
//! [`EvalPool::eval_batch`] returns answers in submission order no
//! matter which worker finished first.
//!
//! All workers share one content-addressed [`ResultCache`]. That sharing
//! is licensed by the paper's semantics: an expression denotes a *set*
//! of exceptions and any member is an admissible answer, so an answer
//! computed by worker 2 yesterday is exactly as valid as one computed by
//! worker 7 now — provided it was a *pure* outcome. The pool therefore
//! never caches asynchronous-exception results or chaos-mode runs (see
//! [`crate::cache`] for the full argument).
//!
//! Shutdown comes in two strengths: [`EvalPool::shutdown`] closes the
//! queue and drains everything already accepted; [`EvalPool::shutdown_now`]
//! additionally cancels queued jobs (they complete with a
//! [`PoolError`]) and delivers `Interrupt` to every in-flight machine
//! through each worker's shared [`InterruptHandle`], then waits a
//! bounded grace period for the workers to exit.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use urk_io::SharedBatch;
use urk_machine::{Code, InterruptHandle, Stats};
use urk_syntax::Exception;

use crate::cache::{cache_key, CacheStats, CachedEval, ResultCache};
use crate::error::Error;
use crate::session::{Options, Session};
use crate::supervise::Supervisor;

/// How a pool is shaped.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker threads, each owning a fully-loaded session (min 1).
    pub workers: usize,
    /// Bounded job-queue depth; submitters block when it is full.
    pub queue_cap: usize,
    /// Shared result-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// The supervision envelope every job runs under.
    pub supervisor: Supervisor,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            queue_cap: 256,
            cache_cap: 4096,
            supervisor: Supervisor::default(),
        }
    }
}

/// One finished job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The rendered value, or `(raise E)` for an exceptional outcome.
    pub rendered: String,
    /// The representative exception, if the outcome raised.
    pub exception: Option<Exception>,
    /// Machine counters; on a cache hit these are the counters of the
    /// evaluation that populated the entry, with `cache_hits` stamped.
    pub stats: Stats,
    /// True if the answer came from the shared cache (no machine ran).
    pub cache_hit: bool,
    /// Supervision attempts consumed (0 on a cache hit).
    pub attempts: u32,
    /// True if the supervisor's deadline ended the final attempt.
    pub timed_out: bool,
}

impl JobOutcome {
    /// What this job adds to whole-run totals. A cache hit ran no
    /// machine, so it adds only its `cache_hits` stamp; an evaluated job
    /// adds everything its machine counted.
    pub fn work(&self) -> Stats {
        if !self.cache_hit {
            return self.stats.clone();
        }
        Stats {
            cache_hits: self.stats.cache_hits,
            ..Stats::default()
        }
    }
}

/// Why a job failed: a front-end error, an evaluation error, a worker
/// panic, or cancellation at shutdown. Stringified so job results stay
/// `Send` regardless of what the underlying error carried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolError(pub String);

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PoolError {}

/// What one submitted job comes back as.
pub type JobResult = Result<JobOutcome, PoolError>;

/// Per-job overrides of the pool's supervision envelope. The network
/// tier maps a client's `deadline_ms`/budget fields here, so one slow
/// remote request can be put on a short leash without reconfiguring the
/// pool. `None` fields inherit the pool supervisor's values.
#[derive(Clone, Debug, Default)]
pub struct JobLimits {
    /// Wall-clock deadline for this job.
    pub deadline: Option<Duration>,
    /// Machine-step budget for this job.
    pub max_steps: Option<u64>,
    /// Heap budget (nodes) for this job.
    pub max_heap: Option<usize>,
    /// Stack budget (frames) for this job.
    pub max_stack: Option<usize>,
}

impl JobLimits {
    fn is_default(&self) -> bool {
        self.deadline.is_none()
            && self.max_steps.is_none()
            && self.max_heap.is_none()
            && self.max_stack.is_none()
    }

    /// The pool supervisor with this job's overrides applied (the
    /// job-level value wins where both are set).
    fn apply(&self, base: &Supervisor) -> Supervisor {
        Supervisor {
            deadline: self.deadline.or(base.deadline),
            max_steps: self.max_steps.or(base.max_steps),
            max_heap: self.max_heap.or(base.max_heap),
            max_stack: self.max_stack.or(base.max_stack),
            ..base.clone()
        }
    }
}

/// Why a non-blocking submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — the caller should shed load
    /// (the network tier answers `overloaded`) rather than block.
    QueueFull,
    /// The pool is shutting down; no further jobs are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("job queue is full"),
            SubmitError::Closed => f.write_str("pool is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One unit of work in flight: the program, where its answer goes,
/// which submission slot it fills, and its supervision overrides.
struct Job {
    src: String,
    index: usize,
    batch: SharedBatch<JobResult>,
    limits: JobLimits,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A bounded MPMC queue: submitters block in [`JobQueue::push`] when
/// full (or bounce immediately via [`JobQueue::try_push`]), workers
/// block in [`JobQueue::pop`] when empty; closing wakes everyone.
///
/// The state lock recovers from poisoning (`into_inner`): the queue is a
/// plain `VecDeque` plus a flag with no invariant spanning the lock, so
/// a panic escaping one worker (e.g. from a panic payload's `Drop`
/// outside `catch_unwind`) must cost that worker only, never cascade
/// `PoisonError` panics into every other worker and the submitter.
struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// Recovers the guard from a poisoned lock (see [`JobQueue`] docs).
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl JobQueue {
    /// A queue admitting at most `cap` pending jobs.
    ///
    /// A `cap` of 0 is **clamped to 1**: a zero-capacity blocking queue
    /// could never accept a job, deadlocking every submitter. Callers
    /// for whom "capacity 0" means "shed everything" must reject the
    /// configuration up front instead of relying on the clamp — the
    /// `urk serve --queue-cap 0` CLI validation does exactly that.
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks until there is room, then enqueues. Returns the job back
    /// if the queue has been closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut st = relock(&self.state);
        loop {
            if st.closed {
                return Err(job);
            }
            if st.jobs.len() < self.cap {
                st.jobs.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Enqueues without blocking; refuses with the job and the reason
    /// when the queue is full or closed. This is the admission path the
    /// network tier sheds load on.
    fn try_push(&self, job: Job) -> Result<(), (Job, SubmitError)> {
        let mut st = relock(&self.state);
        if st.closed {
            return Err((job, SubmitError::Closed));
        }
        if st.jobs.len() >= self.cap {
            return Err((job, SubmitError::QueueFull));
        }
        st.jobs.push_back(job);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (admitted, not yet picked up).
    fn len(&self) -> usize {
        relock(&self.state).jobs.len()
    }

    /// Blocks until a job arrives; `None` once the queue is closed *and*
    /// drained (workers exit on `None`).
    fn pop(&self) -> Option<Job> {
        let mut st = relock(&self.state);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue; optionally drains (and returns) jobs that were
    /// accepted but not yet picked up, so a hard shutdown can fail them
    /// instead of running them.
    fn close(&self, drain_pending: bool) -> Vec<Job> {
        let mut st = relock(&self.state);
        st.closed = true;
        let pending = if drain_pending {
            st.jobs.drain(..).collect()
        } else {
            Vec::new()
        };
        self.not_empty.notify_all();
        self.not_full.notify_all();
        pending
    }
}

/// A pool of evaluation workers sharing a content-addressed result
/// cache. See the module docs for the architecture.
pub struct EvalPool {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    /// One cancellation handle per worker; `shutdown_now` delivers
    /// `Interrupt` through these to stop in-flight machines.
    cancels: Vec<InterruptHandle>,
    /// Behind a mutex so shutdown can run while another thread is
    /// blocked in `eval_batch`.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Live-worker count; `shutdown_now`'s bounded join waits on this
    /// instead of `JoinHandle::join`, which has no timeout.
    alive: Arc<(Mutex<usize>, Condvar)>,
    /// Worker-thread count (after the min-1 clamp), for observers.
    nworkers: usize,
}

impl EvalPool {
    /// Starts a pool of `config.workers` threads, each loading the
    /// Prelude plus every program in `sources` into its own session
    /// configured by `options`.
    ///
    /// The sources are compiled once on the calling thread first, so a
    /// bad program is reported here as an [`Error`] rather than killing
    /// workers asynchronously.
    ///
    /// # Errors
    ///
    /// Front-end errors from loading `sources`.
    pub fn start(
        sources: &[&str],
        options: Options,
        config: PoolConfig,
    ) -> Result<EvalPool, Error> {
        // Probe-load on the caller's thread: validates every source (and
        // warms the global interner) before any worker exists. The probe
        // also lowers the program to flat code once; every worker links
        // this same `Arc<Code>` image instead of recompiling it per
        // thread.
        let shared_code = {
            let mut probe = Session::new();
            probe.options = options.clone();
            for src in sources {
                probe.load(src)?;
            }
            probe.compiled_code()
        };

        let nworkers = config.workers.max(1);
        let queue = Arc::new(JobQueue::new(config.queue_cap));
        let cache = Arc::new(ResultCache::new(config.cache_cap));
        let alive = Arc::new((Mutex::new(nworkers), Condvar::new()));
        let owned_sources: Vec<String> = sources.iter().map(|s| (*s).to_string()).collect();

        let mut cancels = Vec::with_capacity(nworkers);
        let mut handles = Vec::with_capacity(nworkers);
        for worker_id in 0..nworkers {
            let cancel = InterruptHandle::new();
            cancels.push(cancel.clone());

            let queue = Arc::clone(&queue);
            let cache = Arc::clone(&cache);
            let alive = Arc::clone(&alive);
            let options = options.clone();
            let sources = owned_sources.clone();
            let code = shared_code.clone();
            let supervisor = Supervisor {
                interrupt: Some(cancel),
                ..config.supervisor.clone()
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("urk-pool-{worker_id}"))
                    .spawn(move || {
                        worker_loop(&queue, &cache, &supervisor, options, &sources, code);
                        let (count, cond) = &*alive;
                        *relock(count) -= 1;
                        cond.notify_all();
                    })
                    .expect("spawning a pool worker failed"),
            );
        }

        Ok(EvalPool {
            queue,
            cache,
            cancels,
            workers: Mutex::new(handles),
            alive,
            nworkers,
        })
    }

    /// Evaluates a batch, blocking until every job has an answer.
    /// Results come back in **submission order** regardless of worker
    /// scheduling. A job rejected because the pool is shutting down
    /// completes with a [`PoolError`] rather than being dropped.
    pub fn eval_batch<S: AsRef<str>>(&self, exprs: &[S]) -> Vec<JobResult> {
        let batch: SharedBatch<JobResult> = SharedBatch::new(exprs.len());
        for (index, src) in exprs.iter().enumerate() {
            let job = Job {
                src: src.as_ref().to_string(),
                index,
                batch: batch.clone(),
                limits: JobLimits::default(),
            };
            if self.queue.push(job).is_err() {
                batch.fulfil(index, Err(PoolError("pool is shut down".to_string())));
            }
        }
        batch.wait()
    }

    /// Submits one job **without blocking**: the job fills `batch` slot
    /// `index` when a worker finishes it. When the bounded queue is at
    /// capacity the job is refused with [`SubmitError::QueueFull`] and
    /// nothing is enqueued — the network tier's load-shedding hook: a
    /// full queue becomes an explicit `overloaded` answer instead of a
    /// blocked accept loop.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure;
    /// [`SubmitError::Closed`] once shutdown has begun. In both cases
    /// the caller still owns slot `index` and must fulfil it (or answer
    /// the client directly).
    pub fn try_submit(
        &self,
        src: &str,
        limits: JobLimits,
        index: usize,
        batch: &SharedBatch<JobResult>,
    ) -> Result<(), SubmitError> {
        let job = Job {
            src: src.to_string(),
            index,
            batch: batch.clone(),
            limits,
        };
        self.queue.try_push(job).map_err(|(_, reason)| reason)
    }

    /// Evaluates one expression through the pool (a one-job batch).
    pub fn eval_one(&self, src: &str) -> JobResult {
        self.eval_batch(&[src])
            .pop()
            .expect("a one-job batch has one result")
    }

    /// Jobs admitted but not yet picked up by a worker — the
    /// backpressure signal the serving tier surfaces in its `stats`
    /// response.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The bounded queue's capacity (after the min-1 clamp).
    pub fn queue_cap(&self) -> usize {
        self.queue.cap
    }

    /// How many worker threads the pool runs.
    pub fn worker_count(&self) -> usize {
        self.nworkers
    }

    /// A snapshot of the shared cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared result cache itself (tests use this to poison shard
    /// locks and prove the pool keeps serving).
    #[doc(hidden)]
    pub fn shared_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Graceful shutdown: stop accepting jobs, run everything already
    /// accepted to completion, join all workers. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close(false);
        let mut workers = relock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Hard shutdown: close the queue, fail every job still waiting in
    /// it, deliver `Interrupt` to every in-flight machine, and wait up
    /// to `grace` for the workers to exit. Returns `true` if every
    /// worker exited within the grace period (workers still running —
    /// e.g. wedged in foreign code — are left detached, never blocking
    /// the caller).
    pub fn shutdown_now(&self, grace: Duration) -> bool {
        let pending = self.queue.close(true);
        for job in pending {
            job.batch.fulfil(
                job.index,
                Err(PoolError("cancelled: pool shut down".to_string())),
            );
        }
        for cancel in &self.cancels {
            cancel.deliver(Exception::Interrupt);
        }

        // Bounded join: wait on the alive counter (JoinHandle::join has
        // no timeout), then reap the handles only once all have exited.
        let deadline = Instant::now() + grace;
        let (count, cond) = &*self.alive;
        let mut alive = relock(count);
        while *alive > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = cond
                .wait_timeout(alive, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            alive = guard;
        }
        drop(alive);

        let mut workers = relock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
        true
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: build a private session, then serve jobs until the queue
/// closes. Each job is additionally wrapped in `catch_unwind` so even a
/// panic outside the machine (the supervisor already isolates machine
/// panics) fails one job, not the pool.
fn worker_loop(
    queue: &JobQueue,
    cache: &ResultCache,
    supervisor: &Supervisor,
    options: Options,
    sources: &[String],
    code: Arc<Code>,
) {
    let mut session = Session::new();
    session.options = options;
    for src in sources {
        session
            .load(src)
            .expect("sources were validated by the probe load");
    }
    // The worker's program is byte-for-byte the probe's (same sources,
    // same Prelude), so the probe's image is its image.
    session.set_compiled_code(code);

    while let Some(job) = queue.pop() {
        // Per-job limits tighten (or relax) the pool envelope for this
        // job only; the common no-override case skips the clone.
        let sup;
        let effective = if job.limits.is_default() {
            supervisor
        } else {
            sup = job.limits.apply(supervisor);
            &sup
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_job(&session, cache, effective, &job.src)
        }))
        .unwrap_or_else(|_| Err(PoolError("worker panicked while serving job".to_string())));
        job.batch.fulfil(job.index, result);
    }
}

/// Serve one job: compile, consult the cache, evaluate on a miss, and
/// insert the answer back if (and only if) it is a pure outcome.
fn handle_job(
    session: &Session,
    cache: &ResultCache,
    supervisor: &Supervisor,
    src: &str,
) -> JobResult {
    let expr = session
        .compile_expr(src)
        .map_err(|e| PoolError(e.to_string()))?;
    let key = cache_key(
        &expr,
        &session.options.machine,
        &session.options.denot,
        session.options.render_depth,
        session.options.backend,
        session.options.tier,
    );

    if let Some(hit) = cache.get(&key) {
        let mut stats = hit.stats;
        stats.cache_hits = 1;
        return Ok(JobOutcome {
            rendered: hit.rendered,
            exception: hit.exception,
            stats,
            cache_hit: true,
            attempts: 0,
            timed_out: false,
        });
    }

    let supervised = session
        .eval_supervised_expr(expr, supervisor)
        .map_err(|e| PoolError(e.to_string()))?;
    let result = supervised.result;

    // Cache only pure outcomes: an asynchronous exception (or anything
    // evaluated with async injections or under chaos) reflects external
    // events, not the expression's denotation, and must not be replayed
    // to later requests.
    let pure = session.options.machine.chaos.is_none()
        && result.stats.async_injected == 0
        && !result
            .exception
            .as_ref()
            .is_some_and(Exception::is_asynchronous);
    if pure {
        cache.insert(
            key,
            CachedEval {
                rendered: result.rendered.clone(),
                exception: result.exception.clone(),
                stats: result.stats.clone(),
            },
        );
    }

    let mut stats = result.stats;
    if cache.capacity() > 0 {
        stats.cache_misses = 1;
    }
    Ok(JobOutcome {
        rendered: result.rendered,
        exception: result.exception,
        stats,
        cache_hit: false,
        attempts: supervised.attempts,
        timed_out: supervised.timed_out,
    })
}
