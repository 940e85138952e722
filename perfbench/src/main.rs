//! The urk benchmark. One process runs one workload against the public
//! API of the urk crates and prints, as its last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! urk-perfbench --workload compute|frontend --seed N --seconds S --trace 0|1
//!               [--trace-out DIR] [--counters-only] [--setup-only] [--calibrate]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; its
//! `setup_s` comes from `--setup-only` children of its own, started once
//! per window of the run, each timing one cold set-up.
//! `--trace 1` replays the same inputs through each layer's public
//! functions with a span around every call, runs the server probe at its
//! fixed rates, reports per-layer metrics, and writes the spans to
//! `--trace-out`. `--counters-only` prints only the deterministic
//! counters, so two runs of one seed can be compared. `--calibrate`
//! measures the server's closed-loop capacity, from which the probe's
//! fixed rates were chosen.
//! `perfbench/run.py` builds this program and drives it.

mod check;
mod compute;
mod frontend;
mod gen;
mod layers;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub counters_only: bool,
    pub setup_only: bool,
    pub calibrate: bool,
}

const USAGE: &str = "usage: urk-perfbench --workload compute|frontend --seed N \
                     --seconds S --trace 0|1 [--trace-out DIR] [--counters-only] \
                     [--setup-only] [--calibrate]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        trace_out: None,
        counters_only: false,
        setup_only: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let secs = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Duration::from_secs_f64(secs);
            }
            "--trace" => args.trace = value()? == "1",
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--counters-only" => args.counters_only = true,
            "--setup-only" => args.setup_only = true,
            "--calibrate" => args.calibrate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["compute", "frontend"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Writes a traced run's spans where `--trace-out` says.
pub fn save_trace(args: &Args, tr: &trace::Tracer) {
    let Some(dir) = &args.trace_out else {
        return;
    };
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("trace: {} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("urk-perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("urk-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let (_, secs) = layers::timed_setup(&layers::kernels());
        println!("{secs}");
        return ExitCode::SUCCESS;
    }
    if args.counters_only {
        let counters = match args.workload.as_str() {
            "compute" => compute::counters(),
            _ => frontend::counters(&args),
        };
        layers::print_counters(&counters);
        return ExitCode::SUCCESS;
    }
    if args.calibrate {
        serve::calibrate(&args);
        return ExitCode::SUCCESS;
    }
    let report = match args.workload.as_str() {
        "compute" => compute::run(&args),
        _ => frontend::run(&args),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
