//! The result of one run: metrics, answer accounting, and the JSON line
//! the benchmark prints last.

use std::fmt::Write as _;

/// One run's outcome.
pub struct Report {
    /// False once a self-check misfired or a check outside the counted
    /// operations failed.
    correct: bool,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations whose answer was wrong, errored, or (in `serve`'s
    /// nominal phase) was shed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Marks the run incorrect and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        eprintln!("urk-perfbench: check failed: {why}");
        self.correct = false;
    }

    /// Whether every check passed: no failed operation, at least one
    /// attempted, and no other check failed.
    pub fn correct(&self) -> bool {
        self.correct && self.attempted > 0 && self.failed == 0
    }

    /// Prints a readable table, then the result as one JSON line.
    pub fn print(&self) {
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "attempted {}  failed {}  failed_frac {frac}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The `p`-quantile of a sorted sample by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place and returns its median.
pub fn median(sample: &mut [f64]) -> f64 {
    sample.sort_by(f64::total_cmp);
    percentile(sample, 0.5)
}

/// The mean of a sample.
pub fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len().max(1) as f64
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reads peak RSS once a run has done a fixed amount of work. The
/// session's symbol table grows with every query, so a peak read at the
/// end of a timed run would grow with the host's speed as well.
pub struct RssCheckpoint {
    at_ops: u64,
    mb: Option<f64>,
}

impl RssCheckpoint {
    pub fn new(at_ops: u64) -> RssCheckpoint {
        RssCheckpoint { at_ops, mb: None }
    }

    pub fn observe(&mut self, ops: u64) {
        if ops == self.at_ops {
            self.mb = Some(peak_rss_mb());
        }
    }

    /// The checkpoint's reading, or the peak so far if it was never reached.
    pub fn mb(&self) -> f64 {
        self.mb.unwrap_or_else(peak_rss_mb)
    }
}

/// A timed run is split into this many equal windows of time (about a
/// second each in a 40 s run), and each end-to-end figure is computed per
/// window. A run reports its slowest window: the highest latency, the
/// lowest rate. On a shared host the speed a process gets switches
/// between a fast and a slow level (about 1.7x apart) for one to many
/// seconds at a time, and the share of a run spent at each level drifts
/// from under a tenth to all of it, so the run's median, or any quantile
/// over windows short of the slowest, jumps between the two levels from
/// run to run (IQR/median up to 0.28 over ten runs for the upper quartile
/// of twelve windows, and up to 0.38 for the median). Nearly every run
/// spends at least one second at the slow level, so the slowest window
/// reads that level. A change to the program moves every window alike,
/// so it moves this figure too.
pub const WINDOWS: usize = 36;

/// The `k`-th highest of `values` when `high`, else the `k`-th lowest.
fn kth(mut values: Vec<f64>, k: usize, high: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    let k = k.clamp(1, values.len().max(1));
    let rank = if high { values.len().saturating_sub(k) } else { k - 1 };
    values.get(rank).copied().unwrap_or(f64::NAN)
}

/// The window a sample taken `at_s` into a run of `total_s` falls in.
pub fn window_of(at_s: f64, total_s: f64) -> usize {
    ((at_s / total_s * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// A closed loop's rate in each window: operations per second of the
/// time they took.
pub fn busy_rates(windows: &[Vec<f64>]) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| w.len() as f64 * 1e3 / w.iter().sum::<f64>())
        .collect()
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics every workload reports. `setups` holds one cold
/// set-up time per window, `windows` each window's latencies and
/// `throughputs` each window's rate. The p99 is taken over groups of
/// adjacent windows large enough to leave at least ten samples above it
/// (one group when the run has under 2000 samples). `setup_s` is the
/// level a sixth of the set-ups reach rather than the slowest: each
/// sample is a single set-up, so the slowest is one stray reading.
pub fn end_to_end(
    rep: &mut Report,
    setups: &[f64],
    windows: &[Vec<f64>],
    throughputs: &[f64],
    rss_mb: f64,
) {
    let all = sorted(windows.concat());
    let q = |p: f64| percentile(&all, p);
    println!(
        "latency samples: {}  p10 {:.4}  p25 {:.4}  p50 {:.4}  p75 {:.4}  p90 {:.4}  p99 {:.4} ms",
        all.len(),
        q(0.10),
        q(0.25),
        q(0.50),
        q(0.75),
        q(0.90),
        q(0.99)
    );
    let per_group = WINDOWS.div_ceil((all.len() / 1000).clamp(1, WINDOWS));
    let p50s: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(&sorted(w.clone()), 0.50))
        .collect();
    let p99s: Vec<f64> = windows
        .chunks(per_group)
        .map(|c| percentile(&sorted(c.concat()), 0.99))
        .collect();
    println!("window p50s {p50s:.4?}  p99s {p99s:.4?}  rates {throughputs:.1?}");
    println!("cold set-ups {setups:.4?} s");
    let sixth = setups.len().div_ceil(6);
    rep.metric("setup_s", kth(setups.to_vec(), sixth, true), "s");
    rep.metric("latency_p50_ms", kth(p50s, 1, true), "ms");
    rep.metric("latency_p99_ms", kth(p99s, 1, true), "ms");
    rep.metric("throughput_per_s", kth(throughputs.to_vec(), 1, false), "1/s");
    rep.metric("peak_rss_mb", rss_mb, "MB");
}
