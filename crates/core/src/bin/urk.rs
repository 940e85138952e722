//! The `urk` command-line interpreter.
//!
//! ```text
//! urk program.urk                      # perform `main` (stdin as input)
//! urk program.urk --expr "f 42"        # evaluate an expression instead
//! urk --expr "1/0 + error \"Urk\""     # no file: Prelude only
//! urk program.urk --type "main"        # show an inferred type
//! urk program.urk --denot "f 0"        # show the denotation (exception sets)
//! urk program.urk --order r            # right-to-left machine policy
//! urk program.urk --optimize           # run the optimiser first
//! urk program.urk --input "abc"        # feed input without stdin
//! urk program.urk --semantic --seed 7  # perform main under the §4.4 LTS
//! urk program.urk --optimize --dump-core  # show the optimised core
//! urk --expr "f 9" --timeout-ms 500    # cancel at a wall-clock deadline
//! urk --expr "f 9" --chaos 42          # differential fault injection
//! urk --jobs 4 --batch exprs.txt       # pooled evaluation, one expr per line
//! urk --jobs 4 --batch exprs.txt --cache-cap 1024 --stats
//! urk --expr "f 9" --tier 2           # superinstruction codegen
//! urk lint program.urk                 # static exception-effect lint
//! urk lint --expr "head []"            # lint one expression
//! urk program.urk --verify-code        # check arenas in release
//! urk serve --listen 127.0.0.1:7199 --jobs 4          # network serving tier
//! urk serve program.urk --listen 127.0.0.1:0 --queue-cap 64 --cache-cap 1024
//! urk fuzz --seed 1 --execs 2000 --corpus corpus       # coverage-guided fuzzing
//! urk fuzz --replay corpus/cx-0123456789abcdef.urk     # replay one case
//! urk soak --duration-secs 60 --jobs 4 --serve         # long-run soak harness
//! ```

use std::io::Read;
use std::process::ExitCode;

use urk::{
    EvalPool, Exception, IoResult, OrderPolicy, PoolConfig, SemIoResult, ServeConfig, Server,
    Session, Stats, Supervisor, Tier,
};

struct Args {
    file: Option<String>,
    expr: Option<String>,
    type_of: Option<String>,
    denot: Option<String>,
    order: OrderPolicy,
    tier: Tier,
    optimize: bool,
    dump_core: bool,
    stats: bool,
    input: Option<String>,
    semantic: bool,
    concurrent: bool,
    seed: u64,
    trace: bool,
    max_steps: Option<u64>,
    max_heap: Option<usize>,
    max_stack: Option<usize>,
    timeout_ms: Option<u64>,
    chaos: Option<u64>,
    jobs: Option<usize>,
    batch: Option<String>,
    cache_cap: Option<usize>,
    lint: bool,
    json: bool,
    verify_code: bool,
    validate_tier2: bool,
    serve: bool,
    listen: Option<String>,
    queue_cap: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: urk [FILE.urk] [--expr E | --type E | --denot E]\n\
         \x20          [--order l|r|s[:SEED]] [--tier 1|2]\n\
         \x20          [--optimize] [--input STR]\n\
         \x20          [--semantic|--concurrent] [--seed N] [--trace] [--dump-core] [--stats]\n\
         \x20          [--max-steps N] [--max-heap N] [--max-stack N]\n\
         \x20          [--timeout-ms N] [--chaos SEED] [--verify-code] [--validate-tier2]\n\
         \x20          [--batch FILE] [--jobs N] [--cache-cap N]\n\
         \x20      urk lint [FILE.urk] [--expr E] [--optimize] [--json]\n\
         \x20      urk serve [FILE.urk] --listen ADDR [--jobs N] [--queue-cap N]\n\
         \x20          [--cache-cap N] [--timeout-ms N] [--tier 1|2]\n\
         \x20      urk fuzz [--seed N] [--execs N] [--max-depth N] [--chaos-rounds N]\n\
         \x20          [--sabotage] [--interrupt-every N] [--corpus DIR] [--out DIR]\n\
         \x20          [--replay FILE]\n\
         \x20      urk soak [--duration-secs N] [--jobs N] [--seed N] [--batch N]\n\
         \x20          [--ring N] [--serve] [--report-every-secs N]"
    );
    std::process::exit(2)
}

/// `urk fuzz`: the coverage-guided differential fuzzer. Exit codes:
/// 0 = budget spent cleanly, 1 = counterexample found (or a replayed
/// case fails), 2 = usage/setup error.
fn fuzz_main(argv: &[String]) -> ExitCode {
    let mut cfg = urk_fuzz::FuzzConfig {
        execs: 2_000,
        ..urk_fuzz::FuzzConfig::default()
    };
    let mut replay: Option<String> = None;
    fn num<T: std::str::FromStr>(v: Option<&String>) -> T {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => cfg.seed = num(it.next()),
            "--execs" => cfg.execs = num(it.next()),
            "--max-depth" => cfg.max_depth = num(it.next()),
            "--chaos-rounds" => cfg.chaos_rounds = num(it.next()),
            "--interrupt-every" => cfg.interrupt_every = num(it.next()),
            "--sabotage" => cfg.sabotage = true,
            "--corpus" => cfg.corpus_dir = Some(num::<String>(it.next()).into()),
            "--out" => cfg.out_dir = Some(num::<String>(it.next()).into()),
            "--replay" => replay = Some(num(it.next())),
            _ => usage(),
        }
    }

    if let Some(path) = replay {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("urk: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let case = match urk_fuzz::load_case(&src) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("urk: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let oracle_cfg = urk_fuzz::OracleConfig {
            chaos_seeds: (0..cfg.chaos_rounds).collect(),
            sabotage: cfg.sabotage,
            ..urk_fuzz::OracleConfig::default()
        };
        let v = urk_fuzz::run_oracle(&case.ctx, &case.query, &oracle_cfg);
        return match v.failure {
            None => {
                println!(
                    "replay {path}: {}",
                    if v.skipped { "skipped" } else { "pass" }
                );
                ExitCode::SUCCESS
            }
            Some(f) => {
                println!("replay {path}: FAIL {} — {}", f.kind, f.detail);
                ExitCode::FAILURE
            }
        };
    }

    match urk_fuzz::run_fuzz(&cfg) {
        Err(e) => {
            eprintln!("urk: fuzz: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!("{}", report.deterministic_summary());
            eprintln!(
                "elapsed {} ms ({:.0} execs/s)",
                report.elapsed_ms,
                report.execs as f64 / (report.elapsed_ms.max(1) as f64 / 1000.0)
            );
            match &report.counterexample {
                None => ExitCode::SUCCESS,
                Some(cx) => {
                    println!("counterexample ({}): {}", cx.kind, cx.minimized);
                    println!("  original: {}", cx.original);
                    println!("  detail:   {}", cx.detail);
                    if let Some(p) = &cx.path {
                        println!("  saved:    {}", p.display());
                    }
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// `urk soak`: the long-run invariant harness. Exit codes: 0 = clean,
/// 1 = violations recorded, 2 = setup error.
fn soak_main(argv: &[String]) -> ExitCode {
    let mut cfg = urk::SoakConfig::default();
    fn num<T: std::str::FromStr>(v: Option<&String>) -> T {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--duration-secs" => {
                cfg.duration = std::time::Duration::from_secs(num(it.next()));
            }
            "--report-every-secs" => {
                cfg.report_every = std::time::Duration::from_secs(num(it.next()));
            }
            "--jobs" => cfg.jobs = num(it.next()),
            "--seed" => cfg.seed = num(it.next()),
            "--batch" => cfg.batch = num(it.next()),
            "--ring" => cfg.ring = num(it.next()),
            "--serve" => cfg.serve = true,
            _ => usage(),
        }
    }
    match urk::run_soak(&cfg) {
        Err(e) => {
            eprintln!("urk: soak: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!("{}", report.to_json());
            if report.is_clean() {
                eprintln!(
                    "soak clean: {} evaluations in {} ms",
                    report.evals, report.elapsed_ms
                );
                ExitCode::SUCCESS
            } else {
                for v in &report.violations {
                    eprintln!("violation: {v}");
                }
                eprintln!("soak FAILED: {} violations", report.violation_count);
                ExitCode::FAILURE
            }
        }
    }
}

fn parse_args() -> Args {
    let mut out = Args {
        file: None,
        expr: None,
        type_of: None,
        denot: None,
        order: OrderPolicy::LeftToRight,
        tier: Tier::One,
        optimize: false,
        dump_core: false,
        stats: false,
        input: None,
        semantic: false,
        concurrent: false,
        seed: 0,
        trace: false,
        max_steps: None,
        max_heap: None,
        max_stack: None,
        timeout_ms: None,
        chaos: None,
        jobs: None,
        batch: None,
        cache_cap: None,
        lint: false,
        json: false,
        verify_code: false,
        validate_tier2: false,
        serve: false,
        listen: None,
        queue_cap: None,
    };
    fn num<T: std::str::FromStr>(v: Option<String>) -> T {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-steps" => out.max_steps = Some(num(args.next())),
            "--max-heap" => out.max_heap = Some(num(args.next())),
            "--max-stack" => out.max_stack = Some(num(args.next())),
            "--timeout-ms" => out.timeout_ms = Some(num(args.next())),
            "--chaos" => out.chaos = Some(num(args.next())),
            "--jobs" => out.jobs = Some(num(args.next())),
            "--cache-cap" => out.cache_cap = Some(num(args.next())),
            "--queue-cap" => out.queue_cap = Some(num(args.next())),
            "--listen" => out.listen = Some(args.next().unwrap_or_else(|| usage())),
            "--batch" => out.batch = Some(args.next().unwrap_or_else(|| usage())),
            "--expr" => out.expr = Some(args.next().unwrap_or_else(|| usage())),
            "--type" => out.type_of = Some(args.next().unwrap_or_else(|| usage())),
            "--denot" => out.denot = Some(args.next().unwrap_or_else(|| usage())),
            "--input" => out.input = Some(args.next().unwrap_or_else(|| usage())),
            "--optimize" => out.optimize = true,
            "--dump-core" => out.dump_core = true,
            "--stats" => out.stats = true,
            "--semantic" => out.semantic = true,
            "--concurrent" => out.concurrent = true,
            "--trace" => out.trace = true,
            "--seed" => {
                out.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--order" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.order = match v.as_str() {
                    "l" => OrderPolicy::LeftToRight,
                    "r" => OrderPolicy::RightToLeft,
                    s if s.starts_with('s') => {
                        let seed = s
                            .strip_prefix("s:")
                            .and_then(|n| n.parse().ok())
                            .unwrap_or(0);
                        OrderPolicy::Seeded(seed)
                    }
                    _ => usage(),
                };
            }
            "--tier" => {
                let v = args.next().unwrap_or_else(|| usage());
                out.tier = match v.as_str() {
                    "1" => Tier::One,
                    "2" => Tier::Two,
                    _ => usage(),
                };
            }
            "--verify-code" => out.verify_code = true,
            "--validate-tier2" => out.validate_tier2 = true,
            "--json" => out.json = true,
            "--help" | "-h" => usage(),
            // The `lint`/`serve` subcommands, intercepted before the
            // bare positional is taken as a file name.
            "lint" if !out.lint && !out.serve && out.file.is_none() => out.lint = true,
            "serve" if !out.lint && !out.serve && out.file.is_none() => out.serve = true,
            f if !f.starts_with('-') && out.file.is_none() => out.file = Some(f.to_string()),
            _ => usage(),
        }
    }
    out
}

fn main() -> ExitCode {
    // `fuzz`/`soak` own their flag namespaces; intercept them before the
    // main parser sees the argument list.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("fuzz") => return fuzz_main(&argv[1..]),
        Some("soak") => return soak_main(&argv[1..]),
        _ => {}
    }
    let args = parse_args();
    let mut session = Session::new();
    session.options.machine.order = args.order;
    session.options.machine.verify_code = args.verify_code;
    session.options.validate_tier2 |= args.validate_tier2;
    session.options.tier = args.tier;
    if let Some(n) = args.max_steps {
        session.options.machine.max_steps = n;
    }
    if let Some(n) = args.max_heap {
        session.options.machine.max_heap = n;
    }
    if let Some(n) = args.max_stack {
        session.options.machine.max_stack = n;
    }

    let mut file_src: Option<String> = None;
    if let Some(path) = &args.file {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("urk: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = session.load(&src) {
            eprintln!("urk: {e}");
            return ExitCode::FAILURE;
        }
        file_src = Some(src);
    }

    // The network serving tier: a TCP front-end over the worker pool.
    // Blocks until a client sends a `shutdown` frame.
    if args.serve {
        let Some(listen) = &args.listen else {
            eprintln!("urk: serve needs --listen ADDR (e.g. --listen 127.0.0.1:0)");
            return ExitCode::from(2);
        };
        // The pool's queue constructor clamps capacity 0 to 1 to keep
        // blocking submitters deadlock-free; for a *server* a zero
        // queue means "shed everything", which is never what an
        // operator wants — reject it up front instead of serving a
        // silently different configuration.
        if args.queue_cap == Some(0) {
            eprintln!("urk: --queue-cap 0 would shed every request; use a capacity of at least 1");
            return ExitCode::from(2);
        }

        let mut config = ServeConfig {
            addr: listen.clone(),
            pool: PoolConfig::default(),
        };
        if let Some(n) = args.jobs {
            config.pool.workers = n;
        }
        if let Some(n) = args.queue_cap {
            config.pool.queue_cap = n;
        }
        if let Some(n) = args.cache_cap {
            config.pool.cache_cap = n;
        }
        if let Some(ms) = args.timeout_ms {
            config.pool.supervisor.deadline = Some(std::time::Duration::from_millis(ms));
        }

        let sources: Vec<&str> = file_src.as_deref().into_iter().collect();
        let server = match Server::start(&sources, session.options.clone(), config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("urk: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The one line scripts parse to find the port (`--listen ...:0`
        // binds an ephemeral one).
        println!("listening on {}", server.local_addr());
        use std::io::Write;
        let _ = std::io::stdout().flush();
        server.join();
        eprintln!("urk: server stopped");
        return ExitCode::SUCCESS;
    }

    if args.optimize {
        match session.optimize() {
            Ok(report) => eprintln!(
                "urk: optimiser performed {} rewrites (size {} -> {})",
                report.total_rewrites(),
                report.size_before,
                report.size_after
            ),
            Err(e) => {
                eprintln!("urk: optimiser failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Static exception-effect lint: report and stop (exit 1 when the
    // analysis found something, so scripts can gate on it).
    if args.lint {
        let mut diags = session.lint();
        if let Some(e) = &args.expr {
            match session.lint_expr(e) {
                Ok(more) => diags.extend(more),
                Err(err) => {
                    eprintln!("urk: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.json {
            // Machine-readable findings: a stable array-of-objects schema
            // (`rule`, `binding`, `path`, `message`) for editor and CI
            // integration. The schema is pinned by a golden test.
            let arr = urk_io::Json::Arr(
                diags
                    .iter()
                    .map(|d| {
                        urk_io::Json::Obj(vec![
                            ("rule".into(), urk_io::Json::str(d.code.to_string())),
                            ("binding".into(), urk_io::Json::str(d.binding.to_string())),
                            (
                                "path".into(),
                                urk_io::Json::str(if d.path.is_empty() {
                                    "rhs".to_string()
                                } else {
                                    d.path.clone()
                                }),
                            ),
                            ("message".into(), urk_io::Json::str(d.message.clone())),
                        ])
                    })
                    .collect(),
            );
            println!("{arr}");
        } else {
            for d in &diags {
                println!("{d}");
            }
        }
        eprintln!("urk: lint reported {} finding(s)", diags.len());
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    if args.dump_core {
        for (name, rhs) in &session.program().binds {
            println!("{name} = {}", urk_syntax::pretty(rhs));
        }
        return ExitCode::SUCCESS;
    }

    if let Some(e) = &args.type_of {
        return match session.type_of(e) {
            Ok(t) => {
                println!("{e} :: {t}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("urk: {err}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(e) = &args.denot {
        return match session.denot_show(e, 16) {
            Ok(d) => {
                println!("{d}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("urk: {err}");
                ExitCode::FAILURE
            }
        };
    }

    // Pooled batch evaluation: one expression per line of the batch
    // file, served by `--jobs` worker sessions sharing a result cache.
    // Results print in submission order; exceptional outcomes render as
    // `(raise E)` and are *successful* answers — only front-end or pool
    // errors fail the run.
    if let Some(path) = &args.batch {
        let corpus_src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("urk: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let corpus: Vec<&str> = corpus_src
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();

        let mut config = PoolConfig::default();
        if let Some(n) = args.jobs {
            config.workers = n;
        }
        if let Some(n) = args.cache_cap {
            config.cache_cap = n;
        }
        if let Some(ms) = args.timeout_ms {
            config.supervisor.deadline = Some(std::time::Duration::from_millis(ms));
        }

        let sources: Vec<&str> = file_src.as_deref().into_iter().collect();
        let pool = match EvalPool::start(&sources, session.options.clone(), config) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("urk: {e}");
                return ExitCode::FAILURE;
            }
        };

        let started = std::time::Instant::now();
        let results = pool.eval_batch(&corpus);
        let elapsed = started.elapsed();

        let mut failed = false;
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(out) => println!("{}", out.rendered),
                Err(e) => {
                    println!("<error>");
                    eprintln!("urk: job {i}: {e}");
                    failed = true;
                }
            }
        }
        if args.stats {
            let cache = pool.cache_stats();
            let secs = elapsed.as_secs_f64();
            eprintln!(
                "jobs: {}  workers: {}  elapsed: {:.3}s  throughput: {:.1}/s",
                results.len(),
                args.jobs.unwrap_or(4),
                secs,
                if secs > 0.0 {
                    results.len() as f64 / secs
                } else {
                    0.0
                },
            );
            eprintln!(
                "cache: {} hits  {} misses  ({:.0}% hit rate)  {} entries  {} evictions",
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0,
                cache.entries,
                cache.evictions,
            );
            let mut totals = Stats {
                backend: session.options.backend,
                tier: session.options.tier,
                ..Stats::default()
            };
            for out in results.iter().flatten() {
                totals.merge(&out.work());
            }
            eprintln!("totals: {totals}");
        }
        pool.shutdown();
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if let Some(seed) = args.chaos {
        let Some(e) = &args.expr else {
            eprintln!("urk: --chaos needs --expr");
            return ExitCode::FAILURE;
        };
        return match session.chaos_check(e, seed) {
            Ok(r) => {
                println!(
                    "chaos seed {}: outcome {}  oracle {}",
                    r.plan.seed, r.outcome, r.oracle
                );
                println!(
                    "  injections: {:?}  forced-gc: {:?}  heap-budget: {:?}  faults fired: {}",
                    r.plan.injections, r.plan.force_gc_at, r.plan.heap_budget, r.faults_fired
                );
                println!(
                    "  sound: {}  heap-consistent: {}  re-eval agrees: {}",
                    r.sound, r.heap_consistent, r.reeval_ok
                );
                if r.passed() {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("urk: chaos invariant violated (seed {seed})");
                    ExitCode::FAILURE
                }
            }
            Err(err) => {
                eprintln!("urk: {err}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(e) = &args.expr {
        // Under a wall-clock deadline, evaluate supervised: a watchdog
        // delivers Timeout through the machine's interrupt handle.
        if let Some(ms) = args.timeout_ms {
            return match session.eval_supervised(e, &Supervisor::with_deadline(ms)) {
                Ok(sup) => {
                    println!("{}", sup.result.rendered);
                    if sup.timed_out {
                        eprintln!("urk: cancelled at the {ms}ms deadline");
                    }
                    if sup.result.exception.is_some() {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(err) => {
                    eprintln!("urk: {err}");
                    ExitCode::FAILURE
                }
            };
        }
        return match session.eval(e) {
            Ok(r) => {
                println!("{}", r.rendered);
                if args.stats {
                    eprintln!("stats: {}", r.stats);
                    if let Ok(set) = session.predicted_exceptions(e) {
                        eprintln!("predicted exceptions: {set}");
                    }
                }
                if r.exception.is_some() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(err) => {
                eprintln!("urk: {err}");
                ExitCode::FAILURE
            }
        };
    }

    // Perform main.
    let input = match &args.input {
        Some(s) => s.clone(),
        None => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                buf.clear();
            }
            buf
        }
    };

    // For IO actions the deadline is a detached watchdog arming the
    // machine's interrupt handle: past it, `main` observes an asynchronous
    // Timeout (uncaught unless the program runs under getException).
    if let Some(ms) = args.timeout_ms {
        let handle = urk::InterruptHandle::new();
        session.options.machine.interrupt = Some(handle.clone());
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            handle.deliver(Exception::Timeout);
        });
    }

    if args.concurrent {
        return match session.run_main_concurrent(&input) {
            Ok(out) => {
                print!("{}", out.trace.output());
                if args.trace {
                    eprintln!("\ntrace: {}", out.trace);
                }
                for (tid, r) in &out.threads {
                    eprintln!("thread {tid}: {r:?}");
                }
                match out.result_exit() {
                    true => ExitCode::SUCCESS,
                    false => ExitCode::FAILURE,
                }
            }
            Err(e) => {
                eprintln!("urk: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.semantic {
        match session.run_main_semantic(&input, args.seed) {
            Ok(out) => {
                print!("{}", out.trace.output());
                if args.trace {
                    eprintln!("\ntrace: {}", out.trace);
                }
                match out.result {
                    SemIoResult::Done(v) => {
                        eprintln!("\nmain returned: {v}");
                        ExitCode::SUCCESS
                    }
                    SemIoResult::Uncaught(set) => {
                        eprintln!("\nurk: uncaught exception set: {set}");
                        ExitCode::FAILURE
                    }
                    SemIoResult::Diverged => {
                        eprintln!("\nurk: the program diverges");
                        ExitCode::FAILURE
                    }
                    SemIoResult::OutOfInput => {
                        eprintln!("\nurk: getChar at end of input");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("urk: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match session.run_main(&input) {
            Ok(out) => {
                print!("{}", out.trace.output());
                if args.trace {
                    eprintln!("\ntrace: {}", out.trace);
                }
                match out.result {
                    IoResult::Done(v) => {
                        eprintln!("\nmain returned: {v}");
                        ExitCode::SUCCESS
                    }
                    IoResult::Uncaught(e) => {
                        // §4.4: "an uncaught exception, which the
                        // implementation should report".
                        eprintln!("\nurk: uncaught exception: {e}");
                        ExitCode::FAILURE
                    }
                    IoResult::OutOfInput => {
                        eprintln!("\nurk: getChar at end of input");
                        ExitCode::FAILURE
                    }
                    IoResult::MachineError(e) => {
                        eprintln!("\nurk: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("urk: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
