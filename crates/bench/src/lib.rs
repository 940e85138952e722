//! # urk-bench
//!
//! Shared workloads and measurement helpers.
//!
//! The paper's evaluation is a set of performance *claims* rather than
//! numeric tables (§2.2, §2.3, §3.3); each claim is measured twice:
//!
//! * deterministically, as machine step/allocation counts, by the
//!   `experiment_report` binary (`cargo run -p urk-bench --bin
//!   experiment_report`), whose output is recorded in `EXPERIMENTS.md`;
//! * as wall-clock timings per layer, by the benchmark in `perfbench/`,
//!   which links these workloads.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use urk_machine::{compile_program, Code, Machine, MachineConfig, Stats};
use urk_syntax::core::{CoreProgram, Expr};
use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv, Symbol};

/// One benchmark workload: an Urk program, a query, and its expected
/// rendering (used to verify every measured run actually computed the
/// right thing).
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub program: &'static str,
    pub query: String,
    pub expected: &'static str,
    /// Whether the workload is first-order (encodable with the §2.2
    /// explicit `ExVal` transformation).
    pub first_order: bool,
}

/// The standard workload suite.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "fib",
            program: "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)",
            query: "fib 16".into(),
            expected: "987",
            first_order: true,
        },
        Workload {
            name: "sumto",
            program: "sumTo n acc = if n == 0 then acc else sumTo (n - 1) (acc + n)",
            query: "sumTo 4000 0".into(),
            expected: "8002000",
            first_order: true,
        },
        Workload {
            name: "primes",
            program: "isPrime p = allFrom 2 p\n\
                      allFrom d p = if d * d > p then True else (if p % d == 0 then False else allFrom (d + 1) p)\n\
                      countPrimes lo hi acc = if lo > hi then acc else countPrimes (lo + 1) hi (if isPrime lo then acc + 1 else acc)",
            query: "countPrimes 2 2000 0".into(),
            expected: "303",
            first_order: true,
        },
        Workload {
            name: "sortlist",
            program: "ins x ys = case ys of { [] -> [x]; z:zs -> if x <= z then x : z : zs else z : ins x zs }\n\
                      isort xs = case xs of { [] -> []; y:ys -> ins y (isort ys) }\n\
                      mklist n = if n == 0 then [] else (n * 37 % 101) : mklist (n - 1)\n\
                      lsum xs = case xs of { [] -> 0; y:ys -> y + lsum ys }\n\
                      checksum n = lsum (isort (mklist n))",
            query: "checksum 120".into(),
            expected: "6020",
            first_order: true,
        },
    ]
}

/// A lazy first-order pipeline (build / map / filter / fold over a list):
/// the interpretive-overhead-dominated shape the flat-code backend is
/// built for. Self-contained like the standard workloads.
pub fn pipeline_workload() -> Workload {
    Workload {
        name: "pipeline",
        program: "upto n = if n == 0 then [] else n : upto (n - 1)\n\
                  mapmul xs = case xs of { [] -> []; y:ys -> (y * 3) : mapmul ys }\n\
                  keepeven xs = case xs of { [] -> []; y:ys -> if y % 2 == 0 then y : keepeven ys else keepeven ys }\n\
                  total xs = case xs of { [] -> 0; y:ys -> y + total ys }\n\
                  pipe n = total (keepeven (mapmul (upto n)))",
        query: "pipe 400".into(),
        expected: "120600",
        first_order: true,
    }
}

/// A compiled workload: data environment plus core program.
pub struct Compiled {
    pub data: DataEnv,
    pub program: CoreProgram,
    pub query: Rc<Expr>,
}

/// Compiles a workload (no Prelude: workloads are self-contained so the
/// explicit encoder can see every function).
///
/// # Panics
///
/// Panics on malformed workloads — a bug in this crate.
pub fn compile(w: &Workload) -> Compiled {
    let mut data = DataEnv::new();
    let program = desugar_program(
        &parse_program(w.program).expect("workload parses"),
        &mut data,
    )
    .expect("workload desugars");
    let query = Rc::new(
        desugar_expr(&parse_expr_src(&w.query).expect("query parses"), &data)
            .expect("query desugars"),
    );
    Compiled {
        data,
        program,
        query,
    }
}

fn run_inner(
    c: &Compiled,
    code: &Arc<Code>,
    config: MachineConfig,
    catch: bool,
) -> (String, Stats) {
    let mut m = Machine::new(config);
    m.link_code(Arc::clone(code));
    let out = m
        .eval_code_expr(&c.query, catch)
        .expect("workload within limits");
    (m.render_outcome(&out, 16), m.stats().clone())
}

/// Runs a compiled workload on a fresh machine at tier 1, lowering its
/// program first; returns the rendering and the stats (whose
/// `compile_ops` count the query's lowering only).
///
/// # Panics
///
/// Panics if the machine hits a hard limit.
pub fn run(c: &Compiled, config: MachineConfig) -> (String, Stats) {
    run_inner(c, &lower(c), config, false)
}

/// As [`run`], under a catch mark (as `getException` would evaluate it).
///
/// # Panics
///
/// Panics if the machine hits a hard limit.
pub fn run_caught(c: &Compiled, config: MachineConfig) -> (String, Stats) {
    run_inner(c, &lower(c), config, true)
}

/// Lowers a workload's program to the flat code image once, for sharing
/// across measured runs (as the pool shares one `Arc<Code>` per program).
pub fn lower(c: &Compiled) -> Arc<Code> {
    Arc::new(compile_program(&c.program.binds))
}

/// Lowers a workload at tier 2: the exception-effect analysis run over
/// the program and handed to the superinstruction pass as its licence —
/// the same pipeline `urk --tier 2` drives.
pub fn lower_t2(c: &Compiled) -> Arc<Code> {
    let base = compile_program(&c.program.binds);
    let analysis = urk::analyze_program(&c.program, &c.data);
    let facts = urk::tier2_facts_for(analysis, &c.program.binds);
    Arc::new(urk::tier2_optimize(&base, &facts))
}

/// Runs a workload against an image lowered once (by [`lower`] or
/// [`lower_t2`]). The image is linked per run (cheap: an `Arc` clone plus
/// the query lowering), mirroring a pool worker picking up a job.
///
/// # Panics
///
/// Panics if the machine hits a hard limit.
pub fn run_flat(c: &Compiled, code: &Arc<Code>, config: MachineConfig) -> (String, Stats) {
    run_inner(c, code, config, false)
}

/// The §2.2 explicit encoding of a compiled workload (program and query).
///
/// # Panics
///
/// Panics if the workload is not first-order.
pub fn encode(c: &Compiled) -> Compiled {
    let program = urk_transform::encode_program(&c.program).expect("first-order workload");
    let known: BTreeSet<Symbol> = c.program.binds.iter().map(|(n, _)| *n).collect();
    let query = Rc::new(urk_transform::encode_expr(&c.query, &known).expect("first-order query"));
    Compiled {
        data: c.data.clone(),
        program,
        query,
    }
}

/// Applies the demand-driven call-by-value transformation to every
/// binding of a compiled workload. Returns the rewritten workload and the
/// number of call-by-value rewrites performed.
pub fn apply_cbv(c: &Compiled) -> (Compiled, usize) {
    let analysis = urk::analyze_program(&c.program, &c.data);
    let analyzer = analysis.analyzer(&c.data);
    let let_to_case = urk_transform::LetToCase {
        analyzer: &analyzer,
    };
    let call_sites = urk_transform::StrictCallSites {
        analysis: &analysis,
        arg_safe: None,
    };
    let mut program = CoreProgram::default();
    let mut total = 0;
    let rewrite = |e: &Expr, total: &mut usize| -> Expr {
        let (out, n1) = urk_transform::apply_to_fixpoint(&call_sites, e, 8);
        let (out, n2) = urk_transform::apply_to_fixpoint(&let_to_case, &out, 4);
        *total += n1 + n2;
        out
    };
    for (name, rhs) in &c.program.binds {
        let out = rewrite(rhs, &mut total);
        program.binds.push((*name, Rc::new(out)));
    }
    let query = rewrite(&c.query, &mut total);
    (
        Compiled {
            data: c.data.clone(),
            program,
            query: Rc::new(query),
        },
        total,
    )
}

/// A deep-raise workload for the E6 stack-trimming benchmark: `deep n`
/// builds `n` stack frames and then raises.
pub fn deep_raise(n: u64) -> Compiled {
    compile(&Workload {
        name: "deep-raise",
        program: "deep n = if n == 0 then raise Overflow else 1 + deep (n - 1)",
        query: format!("deep {n}"),
        expected: "(raise Overflow)",
        first_order: true,
    })
}

/// The equivalent explicit-propagation workload: every level tests and
/// propagates by hand, §2.2-style.
pub fn deep_propagate(n: u64) -> Compiled {
    compile(&Workload {
        name: "deep-propagate",
        program: "deep n = if n == 0 then Bad Overflow else case deep (n - 1) of { Bad e -> Bad e; OK v -> OK (1 + v) }",
        query: format!("deep {n}"),
        expected: "Bad Overflow",
        first_order: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_computes_its_expected_answer() {
        for w in workloads() {
            let c = compile(&w);
            let (got, _) = run(&c, MachineConfig::default());
            assert_eq!(got, w.expected, "workload {}", w.name);
        }
    }

    #[test]
    fn encoded_workloads_agree_modulo_ok() {
        for w in workloads().into_iter().filter(|w| w.first_order) {
            let c = compile(&w);
            let e = encode(&c);
            let (got, _) = run(&e, MachineConfig::default());
            assert_eq!(got, format!("OK {}", w.expected), "workload {}", w.name);
        }
    }

    #[test]
    fn cbv_transformed_workloads_agree() {
        for w in workloads() {
            let c = compile(&w);
            let (t, _) = apply_cbv(&c);
            let (got, _) = run(&t, MachineConfig::default());
            assert_eq!(got, w.expected, "workload {}", w.name);
        }
    }

    #[test]
    fn both_tiers_compute_every_expected_answer() {
        let mut all = workloads();
        all.push(pipeline_workload());
        for w in all {
            let c = compile(&w);
            let (got, _) = run_flat(&c, &lower(&c), MachineConfig::default());
            assert_eq!(got, w.expected, "workload {}", w.name);
            // And tier 2 agrees with it byte for byte.
            let (t2, _) = run_flat(&c, &lower_t2(&c), MachineConfig::default());
            assert_eq!(got, t2, "workload {}", w.name);
        }
    }

    #[test]
    fn deep_raise_and_propagate_agree() {
        let (a, _) = run(&deep_raise(500), MachineConfig::default());
        assert_eq!(a, "(raise Overflow)");
        let (b, _) = run(&deep_propagate(500), MachineConfig::default());
        assert_eq!(b, "Bad Overflow");
    }
}
