//! The static exception-effect lint, run over the checked-in minimized
//! fuzz corpus. The corpus is machine-generated and deterministic (one
//! seed produces it byte-for-byte), which makes it a good lint fixture:
//! terms the fuzzer kept for coverage are exactly the shapes — raises
//! buried under laziness, dead alternatives, partial matches — the lint
//! exists to flag. The snapshot pins the aggregate findings; if the
//! corpus is regenerated (`urk fuzz --seed 1 --execs 2000 --corpus
//! corpus`), recompute the counts printed by the failure message.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use urk_analysis::{lint_program, LintCode};
use urk_syntax::{desugar_program, parse_program, DataEnv};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Parses one case file into a lintable core program.
fn lint_case(src: &str) -> Vec<urk_analysis::Diagnostic> {
    let mut data = DataEnv::new();
    let parsed = parse_program(src).expect("corpus case parses");
    let prog = desugar_program(&parsed, &mut data).expect("corpus case desugars");
    lint_program(&prog, &data)
}

#[test]
fn every_corpus_case_lints_deterministically() {
    let mut paths: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no checked-in corpus");
    for path in &paths {
        let src = fs::read_to_string(path).expect("read case");
        let a = lint_case(&src);
        let b = lint_case(&src);
        // Breadcrumb paths embed generated binder names (`$m12`), whose
        // serials come from one process-global counter that both lint runs
        // advance, so digit runs are normalized before comparing.
        let show = |ds: &[urk_analysis::Diagnostic]| {
            ds.iter()
                .map(|d| {
                    let mut norm = String::new();
                    let mut in_digits = false;
                    for c in format!("{}@{}:{}", d.code, d.binding, d.path).chars() {
                        if c.is_ascii_digit() {
                            if !in_digits {
                                norm.push('N');
                            }
                            in_digits = true;
                        } else {
                            in_digits = false;
                            norm.push(c);
                        }
                    }
                    norm
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            show(&a),
            show(&b),
            "{}: lint order unstable",
            path.display()
        );
        for d in &a {
            assert!(
                matches!(
                    d.code,
                    LintCode::AlwaysRaises
                        | LintCode::UnreachableAlt
                        | LintCode::DeadExceptionBranch
                        | LintCode::MatchMayFail
                        | LintCode::DiscardedException
                        | LintCode::DeadHandler
                ),
                "{}: unexpected code {:?}",
                path.display(),
                d.code
            );
        }
    }
}

#[test]
fn corpus_lint_histogram_matches_the_snapshot() {
    let mut histogram: BTreeMap<String, usize> = BTreeMap::new();
    let mut cases = 0usize;
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    entries.sort();
    for path in entries {
        let src = fs::read_to_string(&path).expect("read case");
        cases += 1;
        for d in lint_case(&src) {
            // Every case embeds the same prelude; count only findings in
            // the generated term so the snapshot reflects the corpus.
            if d.binding == urk_syntax::Symbol::intern("counterexample") {
                *histogram.entry(d.code.to_string()).or_default() += 1;
            }
        }
    }
    let got: Vec<String> = histogram
        .iter()
        .map(|(code, n)| format!("{code}x{n}"))
        .collect();
    // Recorded from the checked-in corpus (seed 1, 2000 execs). The
    // fuzzer keeps raise-heavy, partial-match-heavy terms, so a corpus
    // with zero findings would itself be suspicious.
    let want = corpus_lint_snapshot();
    assert_eq!(
        got, want,
        "lint findings drifted for the checked-in corpus ({cases} cases); \
         if the corpus was deliberately regenerated, update corpus_lint_snapshot()"
    );
}

/// The pinned aggregate findings for `corpus/` — see the test above.
fn corpus_lint_snapshot() -> Vec<String> {
    // URK005 lights up heavily here by design: the fuzzer keeps terms
    // that bury raises under laziness, and a never-demanded binding with
    // a raising right-hand side is the canonical such shape.
    vec![
        "URK001x4".to_string(),
        "URK002x14".to_string(),
        "URK005x14".to_string(),
    ]
}
