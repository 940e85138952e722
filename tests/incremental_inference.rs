//! Incremental inference against whole-program inference.
//!
//! `Session::load` infers only the bindings it adds, against the schemes
//! already in the session. These tests check that a session built load by
//! load gives every binding the type a fresh `infer_program` over the
//! concatenated source gives it, that an ill-typed load reports the same
//! error text whole-program inference does, and that bindings loaded with
//! type checking off are covered by the next checked load.

use std::collections::HashMap;

use urk::{Error, Session};
use urk_syntax::{desugar_program, parse_program, DataEnv};
use urk_types::{infer_program, TypeError};

/// The two exception kernels of the benchmark, next to the `urk-bench`
/// workloads.
const DEEPRAISE: &str = "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)";
const CATCHLOOP: &str = "catchStep n = case unsafeGetException (100 / (n % 3)) of { OK v -> v; Bad e -> 1000 }\n\
                         catchloop n acc = if n == 0 then acc else catchloop (n - 1) (acc + catchStep n)";

fn kernel_sources() -> Vec<&'static str> {
    urk_bench::workloads()
        .into_iter()
        .chain([urk_bench::pipeline_workload()])
        .map(|w| w.program)
        .chain([DEEPRAISE, CATCHLOOP])
        .collect()
}

/// The `.urk` files of a directory of the repository, sorted by name.
fn urk_files(dir: &str) -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("directory exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable");
            (p.display().to_string(), src)
        })
        .collect();
    out.sort();
    out
}

/// Every binding's type from one `infer_program` over the Prelude and
/// `loads` concatenated.
fn whole_program(loads: &[&str]) -> Result<HashMap<String, String>, TypeError> {
    let mut src = urk::prelude_source().to_string();
    for l in loads {
        src.push_str("\n\n");
        src.push_str(l);
    }
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(&src).expect("parses"), &mut data).expect("desugars");
    Ok(infer_program(&prog, &data)?
        .into_iter()
        .map(|(n, s)| (n.as_str(), s.ty.to_string()))
        .collect())
}

/// A session made by `Session::new` and one load per source.
fn incremental(loads: &[&str]) -> Session {
    let mut s = Session::new();
    for l in loads {
        s.load(l).expect("loads");
    }
    s
}

fn assert_equivalent(what: &str, loads: &[&str]) {
    let whole = whole_program(loads).expect("the whole program type-checks");
    let s = incremental(loads);
    assert_eq!(
        s.program().binds.len(),
        whole.len(),
        "{what}: both sides type the same bindings"
    );
    for (name, _) in &s.program().binds {
        let name = name.as_str();
        assert_eq!(
            s.type_of_binding(&name).as_deref(),
            Some(whole[&name].as_str()),
            "{what}: the type of '{name}'"
        );
    }
}

#[test]
fn the_prelude_types_alike_either_way() {
    assert_equivalent("prelude", &[]);
}

#[test]
fn the_benchmark_kernels_type_alike_loaded_one_by_one() {
    assert_equivalent("kernels", &kernel_sources());
}

#[test]
fn example_programs_type_alike() {
    for (path, src) in urk_files("examples") {
        assert_equivalent(&path, &[&src]);
    }
}

#[test]
fn corpus_programs_type_alike() {
    for (path, src) in urk_files("corpus") {
        assert_equivalent(&path, &[&src]);
    }
}

/// The error texts were taken from whole-program re-inference on load,
/// which every load did before inference became incremental.
#[test]
fn an_ill_typed_load_reports_the_whole_program_error() {
    let cases = [
        ("bad = 1 + 'c'", "cannot unify Int with Char"),
        (
            "f :: Int -> Bool\nf x = x + 1",
            "signature for 'f' does not match inferred type Int -> Int: cannot unify Int with Bool",
        ),
        ("g x = x x", "infinite type: cannot unify a with a -> b"),
        ("h = undefinedName + 1", "unbound variable 'undefinedName'"),
        ("k = map 1 [2]", "cannot unify a -> b with Int"),
        ("z :: Int", "signature for 'z' lacks a binding"),
        ("ok1 = 3\nbadlate = ok1 ++ 2", "cannot unify [a] with Int"),
        (
            "p n = q n + 1\nq n = if n then 1 else p 3",
            "cannot unify Bool with Int",
        ),
    ];
    let kernels = kernel_sources();
    for (src, want) in cases {
        let mut loads = kernels.clone();
        loads.push(src);
        let whole = whole_program(&loads).expect_err("ill-typed");
        assert_eq!(whole.0, want, "whole-program inference of `{src}`");
        let mut s = incremental(&kernels);
        match s.load(src) {
            Err(Error::Type(e)) => assert_eq!(e.0, want, "incremental load of `{src}`"),
            other => panic!("`{src}` loaded as {other:?}"),
        }
    }
}

#[test]
fn an_unchecked_load_is_covered_by_the_next_checked_one() {
    let mut s = Session::new();
    s.options.typecheck = false;
    // `early` refers to a binding that only a later load defines, which
    // only an unchecked load can do.
    s.load("helper x = x + 1\nearly = late 2")
        .expect("loads unchecked");
    assert_eq!(s.type_of_binding("helper"), None);
    s.options.typecheck = true;
    s.load("late n = helper n * 2\nuser = early + helper 1")
        .expect("the checked load covers the unchecked bindings");
    for (name, ty) in [
        ("helper", "Int -> Int"),
        ("early", "Int"),
        ("late", "Int -> Int"),
        ("user", "Int"),
    ] {
        assert_eq!(s.type_of_binding(name).as_deref(), Some(ty), "{name}");
    }
    assert_eq!(s.eval("user").expect("evaluates").rendered, "8");
}

#[test]
fn an_ill_typed_unchecked_binding_fails_the_next_checked_load() {
    let mut s = Session::new();
    s.options.typecheck = false;
    s.load("broken = 1 + 'c'").expect("loads unchecked");
    s.options.typecheck = true;
    let err = s
        .load("fine = 1")
        .expect_err("the unchecked binding is checked now");
    assert_eq!(err.to_string(), "type error: cannot unify Int with Char");
    assert_eq!(
        s.type_of_binding("fine"),
        None,
        "the failed load added nothing"
    );
}
