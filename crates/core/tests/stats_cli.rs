//! `urk --stats` renders the whole counter schema: every `Stats` field,
//! tags included, as `name=value` — the spelling of the wire keys and
//! the pinned counter rows. A single evaluation prints its own counters
//! on a `stats:` line; `--batch` prints the merged machine totals on a
//! `totals:` line beside its jobs and cache lines.

use std::process::Command;

use urk::Stats;

/// The `prefix` line of `urk ARGS`'s stderr.
fn stats_line(args: &[&str], prefix: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_urk"))
        .args(args)
        .output()
        .expect("run urk");
    assert!(out.status.success(), "urk {args:?}: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{stderr}"))
        .to_string()
}

/// Every schema field, in declaration order, and nothing else.
fn assert_renders_every_field(line: &str) {
    let names: Vec<&str> = line
        .split(' ')
        .map(|pair| pair.split_once('=').expect("name=value").0)
        .collect();
    let schema: Vec<&str> = Stats::default().fields().map(|(name, _, _)| name).collect();
    assert_eq!(names, schema, "{line}");
}

#[test]
fn expr_stats_render_every_schema_field() {
    let line = stats_line(&["--expr", "sum [1 .. 100]", "--stats"], "stats: ");
    assert_renders_every_field(&line);
    assert!(line.contains("backend=compiled tier=1"), "{line}");
}

#[test]
fn batch_stats_render_the_merged_totals() {
    let dir = std::env::temp_dir().join(format!("urk-stats-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("batch.txt");
    std::fs::write(&file, "sum [1 .. 30]\nsum [1 .. 30]\n1 / 0\n").expect("write batch");
    let batch = file.to_str().expect("utf-8 path");
    let line = stats_line(
        &["--jobs", "1", "--batch", batch, "--tier", "2", "--stats"],
        "totals: ",
    );
    assert_renders_every_field(&line);
    assert!(line.contains(" tier=2 "), "{line}");
    // One worker: the repeat is a cache hit, the other two evaluate.
    assert!(line.contains(" cache_hits=1 cache_misses=2 "), "{line}");
}
