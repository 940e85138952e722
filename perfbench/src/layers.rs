//! The session every workload builds, and the traced replays through each
//! layer's public functions that the `--trace 1` run records.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use urk::{cache_key, tier2_facts_for, Backend, CachedEval, Options, ResultCache, Session};
use urk::{Supervisor, Tier};
use urk_io::{Request, Response, WireStats};
use urk_machine::{compile_program, tier2_optimize_certified, validate_tier2};
use urk_machine::{Code, Machine, MachineConfig, Outcome, Stats};
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv, Symbol};
use urk_types::{infer_expr, infer_program, Scheme};

use crate::check::{Expect, RENDER_DEPTH};
use crate::report::{mean, median, Report};
use crate::trace::Tracer;

/// One kernel: a program loaded into the session, a query, and its
/// hand-written expected rendering.
pub struct Kernel {
    pub name: &'static str,
    pub program: &'static str,
    pub query: String,
    pub expect: Expect,
    /// The span its execution is recorded under.
    pub exec_span: &'static str,
}

const DEEPRAISE: &str = "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)";
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

/// The five `urk-bench` kernels plus two exception kernels: `deepraise`
/// raises `Overflow` through 10k frames, and `catchloop` runs one
/// `unsafeGetException` catch episode per iteration (a third of them
/// catch `DivideByZero`).
pub fn kernels() -> Vec<Kernel> {
    let exec_span = |name: &str| match name {
        "fib" => "machine.fib.exec",
        "sumto" => "machine.sumto.exec",
        "primes" => "machine.primes.exec",
        "sortlist" => "machine.sortlist.exec",
        "pipeline" => "machine.pipeline.exec",
        other => panic!("no span for kernel {other}"),
    };
    let mut out: Vec<Kernel> = urk_bench::workloads()
        .into_iter()
        .chain([urk_bench::pipeline_workload()])
        .map(|w| Kernel {
            name: w.name,
            program: w.program,
            query: w.query,
            expect: Expect::Value(w.expected.to_string()),
            exec_span: exec_span(w.name),
        })
        .collect();
    out.push(Kernel {
        name: "deepraise",
        program: DEEPRAISE,
        query: "deep 10000".to_string(),
        expect: Expect::Raise(vec!["Overflow".to_string()]),
        exec_span: "machine.deepraise.exec",
    });
    out.push(Kernel {
        name: "catchloop",
        program: CATCHLOOP,
        // n % 3 is 1, 2, 0 in turn: 100 + 50 + 1000 per three iterations.
        query: "catchloop 3000 0".to_string(),
        expect: Expect::Value("1150000".to_string()),
        exec_span: "machine.catchloop.exec",
    });
    out
}

/// Every workload's session: compiled backend at tier 2, translation
/// validation on.
pub fn options() -> Options {
    Options {
        backend: Backend::Compiled,
        tier: Tier::Two,
        validate_tier2: true,
        ..Options::default()
    }
}

/// `Session::new`, one `Session::load` per kernel, and the validated
/// tier-2 image, with a span around each step.
pub fn new_session(kernels: &[Kernel], tr: &mut Tracer) -> Session {
    let root = tr.enter("op.setup");
    let mut s = tr.span("core.session_new", Session::new);
    s.options = options();
    let load = tr.enter("core.load");
    for k in kernels {
        s.load(k.program).expect("every kernel loads");
    }
    tr.exit(load);
    tr.span("core.image", || s.compiled_code());
    tr.exit(root);
    s
}

/// The deadline every serving-path request carries, as `serve_load` sends.
pub const DEADLINE_MS: u64 = 2_000;
/// Set-ups per traced run; the per-layer set-up metrics are their medians.
pub const SETUP_REPEATS: usize = 15;
/// The most operations one traced run replays, which bounds its spans.
pub const MAX_TRACED_OPS: usize = 10_000;

/// The query that makes set-up end at a first correct answer.
pub const FIRST_QUERY: (&str, &str) = ("fib 10", "55");

/// Seconds from nothing to the first correct answer, untraced.
pub fn timed_setup(kernels: &[Kernel]) -> (Session, f64) {
    let t0 = Instant::now();
    let s = new_session(kernels, &mut Tracer::new(false));
    let first = s.eval(FIRST_QUERY.0).expect("the first query evaluates");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(first.rendered, FIRST_QUERY.1, "the first answer is wrong");
    (s, secs)
}

/// Cold set-up times, one per window of a timed run. Each comes from a
/// fresh child process (`--setup-only`) that times its first set-up, so
/// nothing is warm: not the symbol interner, not the allocator's pages,
/// not lazy statics. The run waits for the child, so the two never
/// compete for a CPU.
pub struct ColdSetups {
    workload: String,
    last_window: Option<usize>,
    pub samples: Vec<f64>,
}

impl ColdSetups {
    pub fn new(workload: &str) -> ColdSetups {
        ColdSetups {
            workload: workload.to_string(),
            last_window: None,
            samples: Vec::new(),
        }
    }

    /// Takes one sample the first time the run reaches window `w`.
    pub fn at_window(&mut self, w: usize, rep: &mut Report) {
        if self.last_window == Some(w) {
            return;
        }
        self.last_window = Some(w);
        match self.sample() {
            Ok(secs) => self.samples.push(secs),
            Err(e) => rep.fail(&format!("cold set-up: {e}")),
        }
    }

    fn sample(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .args(["--workload", &self.workload, "--setup-only"])
            .output()
            .map_err(|e| e.to_string())?;
        if !out.status.success() {
            return Err(format!("the child exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        text.trim().parse().map_err(|e| format!("`{}`: {e}", text.trim()))
    }
}

/// The set-up split: each component function called once on the whole
/// program (Prelude plus kernels). Returns the tier-2 image's op count.
pub fn setup_split(kernels: &[Kernel], tr: &mut Tracer) -> u64 {
    let mut src = urk::prelude_source().to_string();
    for k in kernels {
        src.push_str("\n\n");
        src.push_str(k.program);
    }
    let root = tr.enter("op.split");
    let parsed = tr
        .span("syntax.program_parse", || parse_program(&src))
        .expect("the program parses");
    let mut data = DataEnv::new();
    let prog = tr
        .span("syntax.program_desugar", || {
            desugar_program(&parsed, &mut data)
        })
        .expect("the program desugars");
    tr.span("types.program_infer", || infer_program(&prog, &data))
        .expect("the program type-checks");
    let analysis = tr.span("analysis.analyze", || urk::analyze_program(&prog, &data));
    let claimed = analysis.binding_facts(&prog.binds);
    let audit = tr.span("analysis.audit", || {
        urk_analysis::audit_binding_facts(&prog, &data, &claimed)
    });
    assert!(audit.is_ok(), "the analysis audit refused its own facts");
    let base = tr.span("machine.lower_program", || compile_program(&prog.binds));
    let facts = tier2_facts_for(analysis, &prog.binds);
    let (t2, cert) = tr.span("machine.tier2", || tier2_optimize_certified(&base, &facts));
    let fresh = tier2_facts_for(urk::analyze_program(&prog, &data), &prog.binds);
    let valid = tr.span("machine.validate", || {
        validate_tier2(&base, &t2, &cert, &fresh)
    });
    assert!(valid.is_ok(), "the tier-2 image failed validation");
    tr.exit(root);
    t2.op_count() as u64
}

/// What the query replay needs from a session: its data environment,
/// the global type schemes `infer_program` returns, and its image.
pub struct Front {
    data: DataEnv,
    globals: HashMap<Symbol, Scheme>,
    code: Arc<Code>,
    config: MachineConfig,
}

impl Front {
    pub fn new(s: &Session) -> Front {
        Front {
            data: s.data().clone(),
            globals: infer_program(s.program(), s.data()).expect("the session type-checks"),
            code: s.compiled_code(),
            config: s.options.machine.clone(),
        }
    }

    pub fn image_ops(&self) -> u64 {
        self.code.op_count() as u64
    }
}

/// One answer from a replay.
pub struct Answer {
    pub rendered: String,
    pub exception: Option<String>,
    pub stats: Stats,
    pub core_nodes: usize,
}

impl Answer {
    pub fn matches(&self, expect: &Expect) -> bool {
        expect.accepts(&self.rendered, self.exception.as_deref())
    }
}

/// One query through the steps of `Session::eval` on the compiled
/// backend — parse, desugar, infer, link, execute, render — with a span
/// around each, under a root span named `root`.
pub fn replay_query(
    tr: &mut Tracer,
    f: &Front,
    src: &str,
    root: &'static str,
    exec: &'static str,
) -> Result<Answer, String> {
    let r = tr.enter(root);
    let out = replay_steps(tr, f, src, exec);
    tr.exit(r);
    out
}

fn replay_steps(
    tr: &mut Tracer,
    f: &Front,
    src: &str,
    exec: &'static str,
) -> Result<Answer, String> {
    let surface = tr
        .span("syntax.parse", || parse_expr_src(src))
        .map_err(|e| e.to_string())?;
    let core = tr
        .span("syntax.desugar", || desugar_expr(&surface, &f.data))
        .map_err(|e| e.to_string())?;
    tr.span("types.infer", || infer_expr(&core, &f.data, &f.globals))
        .map_err(|e| e.to_string())?;
    let mut m = tr.span("machine.link", || {
        let mut m = Machine::new(f.config.clone());
        m.link_code(Arc::clone(&f.code));
        m
    });
    let out = tr
        .span(exec, || m.eval_code_expr(&core, false))
        .map_err(|e| e.to_string())?;
    let (rendered, exception) = tr.span("machine.render", || match out {
        Outcome::Value(n) => (m.render(n, RENDER_DEPTH), None),
        Outcome::Caught(e) | Outcome::Uncaught(e) => (format!("(raise {e})"), Some(e.to_string())),
    });
    Ok(Answer {
        rendered,
        exception,
        stats: m.stats().clone(),
        core_nodes: core.size(),
    })
}

/// The deterministic counters: per kernel from one evaluation each, the
/// tier-2 image's op count, and the lowering ops and Core nodes summed
/// over `queries`. Two runs of one seed must agree on every one.
pub fn counters(f: &Front, kernels: &[Kernel], queries: &[String]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut quiet = Tracer::new(false);
    for k in kernels {
        let a = replay_query(&mut quiet, f, &k.query, "op.kernel", k.exec_span)
            .expect("every kernel evaluates");
        let s = &a.stats;
        let mut c = vec![
            ("steps", s.steps),
            ("allocations", s.allocations),
            ("minor_gcs", s.minor_gcs),
            ("nodes_promoted", s.nodes_promoted),
            ("fused_steps", s.fused_steps),
            ("ic_hits", s.ic_hits),
        ];
        if k.name == "deepraise" || k.name == "catchloop" {
            c.push(("frames_trimmed", s.frames_trimmed));
            c.push(("thunks_poisoned", s.thunks_poisoned));
        }
        out.extend(
            c.into_iter()
                .map(|(n, v)| (format!("machine.{}.{n}", k.name), v)),
        );
    }
    let (mut ops, mut nodes) = (0u64, 0u64);
    for q in queries {
        if let Ok(a) = replay_query(&mut quiet, f, q, "op.query", "machine.exec") {
            ops += a.stats.compile_ops;
            nodes += a.core_nodes as u64;
        }
    }
    out.push(("machine.query_ops".to_string(), ops));
    out.push(("syntax.core_nodes".to_string(), nodes));
    out.push(("machine.image_ops".to_string(), f.image_ops()));
    out
}

/// Prints the counters as the last line, for `run.py`'s repeat check.
pub fn print_counters(counters: &[(String, u64)]) {
    let body: Vec<String> = counters
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    println!("{{\"counters\": {{{}}}}}", body.join(", "));
}

/// The serving path of one request, in process and in the order a pool
/// worker runs it (`pool::handle_job`), with a span around each call:
/// request encode and decode, compile, cache key and lookup, a
/// supervised evaluation under the request's deadline on a miss, and the
/// response's encode and decode.
pub struct Job<'a> {
    pub session: &'a Session,
    pub front: &'a Front,
    pub cache: &'a ResultCache,
    pub deadline_ms: u64,
}

pub struct JobAnswer {
    pub rendered: String,
    pub exception: Option<String>,
    pub frame_bytes: usize,
}

impl JobAnswer {
    pub fn matches(&self, expect: &Expect) -> bool {
        expect.accepts(&self.rendered, self.exception.as_deref())
    }
}

pub fn replay_job(tr: &mut Tracer, job: &Job, id: u64, src: &str) -> Result<JobAnswer, String> {
    let root = tr.enter("op.request");
    let out = job_steps(tr, job, id, src);
    tr.exit(root);
    out
}

fn job_steps(tr: &mut Tracer, job: &Job, id: u64, src: &str) -> Result<JobAnswer, String> {
    let frame = tr.span("io.encode", || {
        Request::Batch {
            id,
            exprs: vec![src.to_string()],
            deadline_ms: Some(job.deadline_ms),
            max_steps: None,
            max_heap: None,
            max_stack: None,
        }
        .encode()
    });
    let request = tr
        .span("io.request_decode", || Request::decode(&frame))
        .map_err(|e| e.to_string())?;
    let Request::Batch { exprs, .. } = request else {
        return Err("the request did not decode as a batch".to_string());
    };
    let o = &job.session.options;
    let data = &job.front.data;
    let surface = tr
        .span("syntax.parse", || parse_expr_src(&exprs[0]))
        .map_err(|e| e.to_string())?;
    let core = tr
        .span("syntax.desugar", || desugar_expr(&surface, data))
        .map_err(|e| e.to_string())?;
    tr.span("types.infer", || {
        infer_expr(&core, data, &job.front.globals)
    })
    .map_err(|e| e.to_string())?;
    let expr = Rc::new(core);
    let key = tr.span("core.cache_key", || {
        cache_key(
            &expr,
            &o.machine,
            &o.denot,
            o.render_depth,
            o.backend,
            o.tier,
        )
    });
    let (rendered, exception, stats, cache_hit) =
        match tr.span("core.cache_get", || job.cache.get(&key)) {
            Some(hit) => (hit.rendered, hit.exception, hit.stats, true),
            None => {
                let sup = Supervisor::with_deadline(job.deadline_ms);
                let out = tr
                    .span("core.supervised_eval", || {
                        job.session.eval_supervised_expr(Rc::clone(&expr), &sup)
                    })
                    .map_err(|e| e.to_string())?
                    .result;
                let entry = CachedEval {
                    rendered: out.rendered.clone(),
                    exception: out.exception.clone(),
                    stats: out.stats.clone(),
                };
                tr.span("core.cache_insert", || job.cache.insert(key, entry));
                (out.rendered, out.exception, out.stats, false)
            }
        };
    let response = tr.span("io.response_encode", || {
        Response::Result {
            id,
            index: 0,
            rendered,
            exception: exception.map(|e| e.to_string()),
            cache_hit,
            attempts: u64::from(!cache_hit),
            timed_out: false,
            stats: WireStats {
                steps: stats.steps,
                allocations: stats.allocations,
                compile_ops: stats.compile_ops,
                compile_micros: stats.compile_micros,
                backend: stats.backend.name().to_string(),
                tier: stats.tier.name().to_string(),
                ..WireStats::default()
            },
        }
        .encode()
    });
    match tr.span("io.decode", || Response::decode(&response)) {
        Ok(Response::Result {
            rendered,
            exception,
            ..
        }) => Ok(JobAnswer {
            rendered,
            exception,
            frame_bytes: frame.len() + 4,
        }),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The deadline watchdog's cost per request: the median over `srcs` of a
/// supervised evaluation with a deadline minus one without.
pub fn supervise_overhead_us(session: &Session, srcs: &[&str], deadline_ms: u64) -> f64 {
    let with = Supervisor::with_deadline(deadline_ms);
    let without = Supervisor::new();
    let mut diffs = Vec::with_capacity(srcs.len());
    for (i, src) in srcs.iter().enumerate() {
        let Ok(expr) = session.compile_expr(src) else {
            continue;
        };
        let time = |sup: &Supervisor| {
            let t0 = Instant::now();
            let _ = session.eval_supervised_expr(Rc::clone(&expr), sup);
            t0.elapsed().as_secs_f64() * 1e6
        };
        // Alternate which side runs first.
        let (a, b) = if i % 2 == 0 {
            let a = time(&with);
            (a, time(&without))
        } else {
            let b = time(&without);
            (time(&with), b)
        };
        diffs.push(a - b);
    }
    median(&mut diffs)
}

fn span_ms(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.durations_us(name)) / 1e3
}

fn span_us(tr: &Tracer, name: &str) -> f64 {
    median(&mut tr.durations_us(name))
}

/// Set-up metrics: the traced `Session` steps and the component split.
pub fn setup_metrics(rep: &mut Report, tr: &Tracer) {
    rep.metric("core.session_new_ms", span_ms(tr, "core.session_new"), "ms");
    rep.metric("core.load_ms", span_ms(tr, "core.load"), "ms");
    rep.metric("core.image_ms", span_ms(tr, "core.image"), "ms");
    for (metric, span) in [
        ("syntax.program_parse_ms", "syntax.program_parse"),
        ("syntax.program_desugar_ms", "syntax.program_desugar"),
        ("types.program_infer_ms", "types.program_infer"),
        ("analysis.analyze_ms", "analysis.analyze"),
        ("analysis.audit_ms", "analysis.audit"),
        ("machine.lower_program_ms", "machine.lower_program"),
        ("machine.tier2_ms", "machine.tier2"),
        ("machine.validate_ms", "machine.validate"),
    ] {
        rep.metric(metric, span_ms(tr, span), "ms");
    }
}

/// Query front-end metrics from the replay's spans. `lower_us` holds each
/// replayed query's `Stats::compile_micros`.
pub fn front_metrics(rep: &mut Report, tr: &Tracer, lower_us: &[f64]) {
    rep.metric("syntax.parse_us", span_us(tr, "syntax.parse"), "us");
    rep.metric("syntax.desugar_us", span_us(tr, "syntax.desugar"), "us");
    rep.metric("types.infer_us", span_us(tr, "types.infer"), "us");
    rep.metric("machine.lower_query_us", mean(lower_us), "us");
    rep.metric("machine.link_us", span_us(tr, "machine.link"), "us");
    rep.metric("machine.render_us", span_us(tr, "machine.render"), "us");
}

/// Per-kernel execution time from the replay's spans.
pub fn kernel_metrics(rep: &mut Report, tr: &Tracer, kernels: &[Kernel]) {
    for k in kernels {
        rep.metric(
            format!("machine.{}.exec_ms", k.name),
            span_ms(tr, k.exec_span),
            "ms",
        );
    }
}

/// Serving-path metrics from the job replay's spans.
pub fn serving_metrics(rep: &mut Report, tr: &Tracer, frame_bytes: f64, overhead_us: f64) {
    rep.metric("core.cache_key_us", span_us(tr, "core.cache_key"), "us");
    rep.metric("core.cache_get_us", span_us(tr, "core.cache_get"), "us");
    rep.metric(
        "core.supervised_eval_us",
        span_us(tr, "core.supervised_eval"),
        "us",
    );
    rep.metric("core.supervise_overhead_us", overhead_us, "us");
    rep.metric("io.encode_us", span_us(tr, "io.encode"), "us");
    rep.metric("io.decode_us", span_us(tr, "io.decode"), "us");
    rep.metric("io.frame_bytes", frame_bytes, "bytes");
}

/// The layers a span name can start with, in report order.
const LAYERS: [&str; 5] = ["syntax", "types", "machine", "core", "io"];

/// Self-time shares under the root spans named `root`, the share no
/// layer span covers, and the tracing overhead (traced per-operation
/// median over untraced, minus one).
pub fn trace_metrics(rep: &mut Report, tr: &Tracer, root: &str, untraced_op_us: f64) {
    let (layers, total, unattributed) = tr.layer_self_times(root);
    let total = total.max(1) as f64;
    let mut dominant = ("none", 0.0);
    for layer in LAYERS {
        let share = layers.get(layer).copied().unwrap_or(0) as f64 / total;
        if share > dominant.1 {
            dominant = (layer, share);
        }
        rep.metric(format!("trace.self_frac.{layer}"), share, "frac");
    }
    println!(
        "dominant layer under {root}: {} ({:.1}% of traced time)",
        dominant.0,
        dominant.1 * 100.0
    );
    rep.metric(
        "trace.unattributed_frac",
        unattributed as f64 / total,
        "frac",
    );
    let traced_op_us = median(&mut tr.durations_us(root));
    rep.metric(
        "trace.overhead_frac",
        traced_op_us / untraced_op_us - 1.0,
        "frac",
    );
}

/// The server probe's metrics.
pub struct ServerMetrics {
    pub pool_ready_ms: f64,
    pub serve_p50_ms: f64,
    pub serve_p99_ms: f64,
    pub goodput_per_s: f64,
    pub service_p50_ms: f64,
    pub cache_hit_ratio: f64,
    pub cache_entries: f64,
    pub wait_p50_ms: f64,
    pub shed_frac_overload: f64,
    pub late_p99_ms: f64,
}

impl ServerMetrics {
    pub fn report(&self, rep: &mut Report) {
        rep.metric("core.pool_ready_ms", self.pool_ready_ms, "ms");
        rep.metric("core.serve_p50_ms", self.serve_p50_ms, "ms");
        rep.metric("core.serve_p99_ms", self.serve_p99_ms, "ms");
        rep.metric("core.goodput_per_s", self.goodput_per_s, "1/s");
        rep.metric("core.service_p50_ms", self.service_p50_ms, "ms");
        rep.metric("core.cache_hit_ratio", self.cache_hit_ratio, "frac");
        rep.metric("core.cache_entries", self.cache_entries, "count");
        rep.metric("core.wait_p50_ms", self.wait_p50_ms, "ms");
        rep.metric("core.shed_frac_overload", self.shed_frac_overload, "frac");
        rep.metric("loadgen.late_p99_ms", self.late_p99_ms, "ms");
    }
}

/// Adds the counters to the report as counts.
pub fn counter_metrics(rep: &mut Report, counters: &[(String, u64)]) {
    for (name, v) in counters {
        rep.metric(name.clone(), *v as f64, "count");
    }
}

/// Replays a sample of a workload's queries through the serving path
/// against a local cache — twice, so the second pass hits — checks every
/// answer, and reports the serving metrics.
pub fn serving_probe(
    rep: &mut Report,
    tr: &mut Tracer,
    session: &Session,
    front: &Front,
    cases: &[(&str, &Expect)],
    deadline_ms: u64,
) {
    let cache = ResultCache::new(cases.len().max(1));
    let job = Job {
        session,
        front,
        cache: &cache,
        deadline_ms,
    };
    let mut bytes = Vec::new();
    for pass in 0..2u64 {
        for (i, (src, expect)) in cases.iter().enumerate() {
            match replay_job(tr, &job, pass * 1_000_000 + i as u64, src) {
                Ok(a) if a.matches(expect) => bytes.push(a.frame_bytes as f64),
                _ => rep.fail(&format!("the serving path answered `{src}` wrongly")),
            }
        }
    }
    let srcs: Vec<&str> = cases.iter().map(|(src, _)| *src).collect();
    let overhead = supervise_overhead_us(session, &srcs, deadline_ms);
    serving_metrics(rep, tr, mean(&bytes), overhead);
}

/// How long `f` takes per call, in microseconds, as the median of calls
/// made until `budget` runs out (at least one).
pub fn untraced_us(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut i = 0;
    while times.is_empty() || start.elapsed() < budget {
        let t0 = Instant::now();
        f(i);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    median(&mut times)
}
