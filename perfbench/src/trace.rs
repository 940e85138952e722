//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions. A span's name is `layer.what`; the layer is
//! the part before the first dot. Root spans are named `op.*` and cover
//! one whole operation; a layer's self time is its spans' durations
//! minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NONE: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// Records spans in memory; a disabled tracer records nothing, so the
/// same replay code also runs untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// A handle to an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NONE);
        }
        if self.open.is_empty() {
            self.op += 1;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, span: Open) {
        if span.0 == NONE {
            return;
        }
        let end = self.now();
        self.spans[span.0 as usize].end_ns = end;
        self.open.pop();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Durations in microseconds of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time per layer under the root spans named `root`, plus the
    /// roots' total time and the part of it no layer span covers, in ns.
    pub fn layer_self_times(&self, root: &str) -> (BTreeMap<&'static str, u64>, u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut under_root = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NONE {
                let p = s.parent as usize;
                child_ns[p] += s.end_ns - s.start_ns;
                under_root[i] = under_root[p] || self.spans[p].name == root;
            }
        }
        let mut layers = BTreeMap::new();
        let (mut total, mut unattributed) = (0, 0);
        for (i, s) in self.spans.iter().enumerate() {
            let is_root = s.name == root && s.parent == NONE;
            if is_root {
                total += s.end_ns - s.start_ns;
            }
            if !is_root && !under_root[i] {
                continue;
            }
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            // `op.*` spans group work; their self time is no layer's.
            match s.name.split('.').next() {
                Some("op") | None => unattributed += self_ns,
                Some(layer) => *layers.entry(layer).or_insert(0) += self_ns,
            }
        }
        (layers, total, unattributed)
    }

    /// Writes every span as one JSON line: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
