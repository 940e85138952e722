//! Golden test for `urk lint --json`: the machine-readable diagnostics
//! schema is a published interface (editor plugins and CI gates parse
//! it), so its shape is pinned here against the real binary.
//!
//! Schema, per finding (an element of the top-level array):
//!
//! ```json
//! { "rule": "URK00N", "binding": "<name>", "path": "<breadcrumb>",
//!   "message": "<human text>" }
//! ```
//!
//! All four fields are strings, appear in every element, and no other
//! fields appear. `path` is `"rhs"` when the finding sits at a binding's
//! root. Exit status stays 1 when findings exist (0 when clean), exactly
//! as in the human-readable mode.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use urk_io::{parse_json, Json};

/// A fixture tripping every rule family at least once: URK001 (always
/// raises), URK002 (shadowed alternative), URK004 (partial match),
/// URK005 (discarded imprecise exception), URK006 (dead handler).
const FIXTURE: &str = "\
boom n = 1 / 0 + n
shadowed = let k = 1 in case k of { 1 -> 10; 2 -> 20 }
fromJust m = case m of { Just x -> x }
discard = let u = 1 / 0 in 42
deadHandler = mapException (\\e -> e) 42
";

/// Numbers each call's fixture file: the tests run on parallel threads of
/// one process, so a shared file name would let one read the other's.
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn run_lint_json(src: &str) -> (Json, std::process::ExitStatus) {
    let dir = std::env::temp_dir().join(format!("urk-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join(format!(
        "fixture-{}.urk",
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&file, src).expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_urk"))
        .arg("lint")
        .arg(&file)
        .arg("--json")
        .output()
        .expect("run urk lint --json");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let json = parse_json(&stdout).expect("stdout parses as JSON");
    (json, out.status)
}

#[test]
fn lint_json_matches_the_published_schema() {
    let (json, status) = run_lint_json(FIXTURE);
    assert_eq!(status.code(), Some(1), "findings exist, so exit 1");
    let arr = json.as_arr().expect("top level is an array");
    assert!(!arr.is_empty(), "the fixture trips findings");
    let mut rules: Vec<String> = Vec::new();
    for d in arr {
        let Json::Obj(pairs) = d else {
            panic!("every finding is an object, got {d}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec!["rule", "binding", "path", "message"],
            "field set and order are pinned"
        );
        for field in &keys {
            let v = d.get(field).expect("field present");
            let s = v
                .as_str()
                .unwrap_or_else(|| panic!("{field} is a string, got {v}"));
            assert!(!s.is_empty(), "{field} is non-empty");
        }
        let rule = d.get("rule").and_then(Json::as_str).expect("rule");
        assert!(
            rule.len() == 6 && rule.starts_with("URK0"),
            "rule ids look like URK00N, got {rule}"
        );
        rules.push(rule.to_string());
    }
    for want in ["URK001", "URK002", "URK004", "URK005", "URK006"] {
        assert!(rules.iter().any(|r| r == want), "fixture trips {want}");
    }
}

#[test]
fn lint_json_on_a_clean_program_is_an_empty_array() {
    let (json, status) = run_lint_json("double x = x + x\n");
    assert_eq!(status.code(), Some(0), "no findings, so exit 0");
    assert_eq!(json, Json::Arr(Vec::new()));
}
