//! Regenerates every experiment table deterministically (machine step and
//! allocation counts rather than wall-clock time), for `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p urk-bench --bin experiment_report
//! ```

use std::sync::Arc;

use urk_bench::{
    apply_cbv, compile, deep_propagate, deep_raise, encode, lower, lower_t2, pipeline_workload,
    run, run_caught, run_flat, workloads,
};
use urk_io::{run_machine, IoResult, StringInput};
use urk_machine::{compile_program, BlackholeMode, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::core::Expr;
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};
use urk_transform::{classify_all, render_table};

fn main() {
    println!("# Experiment report (deterministic counters)");
    println!();

    // ------------------------------------------------------------------
    // E4: the law table (§4.5).
    // ------------------------------------------------------------------
    println!("## E4 — transformation laws (§3.4, §4.5)");
    println!();
    print!("{}", render_table(&classify_all()));
    println!();

    // ------------------------------------------------------------------
    // E5: no-exception programs run unchanged; the explicit encoding
    // pays test-and-propagate everywhere (§2.2, §2.3, §3.3).
    // ------------------------------------------------------------------
    println!("## E5 — zero-cost claim vs the explicit ExVal encoding (§2.2/§3.3)");
    println!();
    println!("| workload | native steps | +catch mark | encoded steps | step ratio | native size | encoded size | size ratio |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in workloads() {
        let c = compile(&w);
        let (got, native) = run(&c, MachineConfig::default());
        assert_eq!(got, w.expected);
        let (_, caught) = run_caught(&c, MachineConfig::default());
        let e = encode(&c);
        let (egot, enc) = run(&e, MachineConfig::default());
        assert_eq!(egot, format!("OK {}", w.expected));
        println!(
            "| {} | {} | {} | {} | {:.2}x | {} | {} | {:.2}x |",
            w.name,
            native.steps,
            caught.steps,
            enc.steps,
            enc.steps as f64 / native.steps as f64,
            c.program.size(),
            e.program.size(),
            e.program.size() as f64 / c.program.size() as f64,
        );
    }
    println!();

    // ------------------------------------------------------------------
    // E6: raise = stack trimming, O(frames), vs explicit propagation.
    // ------------------------------------------------------------------
    println!("## E6 — the cost of raising (§3.3 stack trimming)");
    println!();
    println!("| depth | raise: steps | raise: allocs | frames trimmed | explicit: steps | explicit: allocs | alloc ratio |");
    println!("|---|---|---|---|---|---|---|");
    for depth in [100u64, 1_000, 10_000] {
        let r = deep_raise(depth);
        let (_, rs) = run_caught(&r, MachineConfig::default());
        let p = deep_propagate(depth);
        let (_, ps) = run(&p, MachineConfig::default());
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.2}x |",
            depth,
            rs.steps,
            rs.allocations,
            rs.frames_trimmed,
            ps.steps,
            ps.allocations,
            ps.allocations as f64 / rs.allocations as f64
        );
    }
    println!();
    println!("(The whole trim is a single machine transition; the explicit encoding");
    println!("allocates a `Bad` cell and pattern-matches at every level on the way out.)");
    println!();

    // ------------------------------------------------------------------
    // E10: detectable bottoms (§5.2) — detection is permitted, not
    // required; both modes are selectable.
    // ------------------------------------------------------------------
    println!("## E10 — detectable bottoms (§5.2)");
    println!();
    println!("| mode | outcome | steps | black holes detected |");
    println!("|---|---|---|---|");
    let black = desugar_expr(
        &parse_expr_src("let black = black + 1 in black").expect("parses"),
        &DataEnv::new(),
    )
    .expect("desugars");
    for (mode, blackholes) in [
        ("detect", BlackholeMode::Detect),
        ("loop", BlackholeMode::Loop),
    ] {
        let mut m = Machine::new(MachineConfig {
            blackholes,
            max_steps: 5_000,
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&[])));
        let outcome = match m.eval_code_expr(&black, true) {
            Ok(Outcome::Caught(e)) => format!("caught {e}"),
            Ok(other) => format!("{other:?}"),
            Err(e) => format!("{e}"),
        };
        println!(
            "| {mode} | {outcome} | {} | {} |",
            m.stats().steps,
            m.stats().blackholes_detected
        );
    }
    println!();

    // ------------------------------------------------------------------
    // E7: evaluation order is a policy; results agree, costs agree.
    // ------------------------------------------------------------------
    println!("## E7 — evaluation-order policies (§3.5)");
    println!();
    println!("| workload | L→R steps | R→L steps | seeded steps | all results equal |");
    println!("|---|---|---|---|---|");
    for w in workloads() {
        let c = compile(&w);
        let (g1, s1) = run(&c, MachineConfig::default());
        let (g2, s2) = run(
            &c,
            MachineConfig {
                order: OrderPolicy::RightToLeft,
                ..MachineConfig::default()
            },
        );
        let (g3, s3) = run(
            &c,
            MachineConfig {
                order: OrderPolicy::Seeded(0xC0FFEE),
                ..MachineConfig::default()
            },
        );
        println!(
            "| {} | {} | {} | {} | {} |",
            w.name,
            s1.steps,
            s2.steps,
            s3.steps,
            g1 == g2 && g2 == g3
        );
        assert_eq!(g1, w.expected);
        assert_eq!(g2, w.expected);
        assert_eq!(g3, w.expected);
    }
    println!();

    // ------------------------------------------------------------------
    // E9: strictness-driven call-by-value pays off (§3.4).
    // ------------------------------------------------------------------
    println!("## E9 — strictness analysis payoff (§3.4)");
    println!();
    println!("| workload | rewrites | lazy: allocs | cbv: allocs | lazy: updates | cbv: updates | lazy steps | cbv steps |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in workloads() {
        let c = compile(&w);
        let (t, n) = apply_cbv(&c);
        let (g1, lazy) = run(&c, MachineConfig::default());
        let (g2, cbv) = run(&t, MachineConfig::default());
        assert_eq!(g1, g2, "cbv must preserve results on {}", w.name);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            w.name,
            n,
            lazy.allocations,
            cbv.allocations,
            lazy.thunk_updates,
            cbv.thunk_updates,
            lazy.steps,
            cbv.steps,
        );
    }
    println!();

    // ------------------------------------------------------------------
    // E13: the whole pipeline — what §2.3's "keep the transformations"
    // goal buys once a compiler actually uses them.
    // ------------------------------------------------------------------
    println!("## E13 — the optimisation pipeline end to end (§2.3)");
    println!();
    println!("| workload | rewrites | size before | size after | steps before | steps after | allocs before | allocs after |");
    println!("|---|---|---|---|---|---|---|---|");
    // Sugar-heavy programs: redexes for every simplifier pass.
    let sugary = vec![
        urk_bench::Workload {
            name: "poly-sum",
            program: "poly x = (\\k -> k * k + k) (let y = x + 1 in y)\n\
                      compute n acc = if n == 0 then acc else compute (n - 1) (acc + poly n)",
            query: "compute 3000 0".into(),
            expected: "",
            first_order: false,
        },
        urk_bench::Workload {
            name: "known-cons",
            program:
                "step p = case Just p of { Just q -> case (q, q * 2) of { (a, b) -> a + b } }\n\
                      walk n acc = if n == 0 then acc else walk (n - 1) (acc + step n)",
            query: "walk 3000 0".into(),
            expected: "",
            first_order: false,
        },
    ];
    for w in sugary.into_iter().chain(workloads()) {
        let c = compile(&w);
        let optimizer = urk_transform::Optimizer::new();
        let (opt_prog, report) = optimizer.optimize(&c.program);
        let opt = urk_bench::Compiled {
            data: c.data.clone(),
            program: opt_prog,
            query: c.query.clone(),
        };
        let (g1, before) = run(&c, MachineConfig::default());
        let (g2, after) = run(&opt, MachineConfig::default());
        assert_eq!(g1, g2, "pipeline must preserve results on {}", w.name);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            w.name,
            report.total_rewrites(),
            report.size_before,
            report.size_after,
            before.steps,
            after.steps,
            before.allocations,
            after.allocations,
        );
    }
    println!();

    // ------------------------------------------------------------------
    // E19: the generational nursery heap and tagged unboxed values.
    // ------------------------------------------------------------------
    println!("## E19 — generational heap: allocations and collection gauges");
    println!();
    println!("| workload | tier | allocations | unboxed hits | steps | minor gcs | promoted |");
    println!("|---|---|---|---|---|---|---|");
    let mut suite = workloads();
    suite.push(pipeline_workload());
    for w in suite {
        let c = compile(&w);
        let (got1, t1) = run_flat(&c, &lower(&c), MachineConfig::default());
        assert_eq!(got1, w.expected);
        let (got2, t2) = run_flat(&c, &lower_t2(&c), MachineConfig::default());
        assert_eq!(got2, w.expected);
        for (tier, s) in [("1", &t1), ("2", &t2)] {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                w.name, tier, s.allocations, s.unboxed_hits, s.steps, s.minor_gcs, s.nodes_promoted,
            );
        }
    }
    println!();
    println!(
        "(Step/allocation counts are deterministic; wall-clock equivalents are `perfbench`'s `machine.*.exec_ms`.)"
    );

    // ------------------------------------------------------------------
    // E20: tier-2 superinstruction codegen vs direct lowering.
    // ------------------------------------------------------------------
    println!();
    println!("## E20 — tier-2 codegen: steps retired and optimisation gauges");
    println!();
    println!("| workload | t1 steps | t2 steps | step delta | fused steps | ic hits | ic misses |");
    println!("|---|---|---|---|---|---|---|");
    let mut suite = workloads();
    suite.push(pipeline_workload());
    for w in suite {
        let c = compile(&w);
        let t1 = lower(&c);
        let t2 = lower_t2(&c);
        let (got1, s1) = run_flat(&c, &t1, MachineConfig::default());
        assert_eq!(got1, w.expected);
        let (got2, s2) = run_flat(&c, &t2, MachineConfig::default());
        assert_eq!(got2, w.expected);
        println!(
            "| {} | {} | {} | {:+.1}% | {} | {} | {} |",
            w.name,
            s1.steps,
            s2.steps,
            100.0 * (s2.steps as f64 - s1.steps as f64) / s1.steps as f64,
            s2.fused_steps,
            s2.ic_hits,
            s2.ic_misses,
        );
    }
    println!();
    println!("(Same machine, same flat executor; only the image differs. Wall-clock times are `perfbench`'s `machine.*.exec_ms`.)");

    // ------------------------------------------------------------------
    // E14: the §4.4 concurrency extension — the scheduler drives the
    // same machine one IO action per quantum; a program that never forks
    // is a one-thread group.
    // ------------------------------------------------------------------
    println!();
    println!("## E14 — concurrency: the one IO runner, without and with forked threads (§4.4)");
    println!();
    println!("| program | threads | result | steps | allocations | thunk updates |");
    println!("|---|---|---|---|---|---|");
    const WORK: &str = "work n acc = if n == 0 then return acc else work (n - 1) (acc + n)\n\
                        main = work 2000 0";
    const FOUR: &str = "work m n acc = if n == 0 then putMVar m acc else work m (n - 1) (acc + n)\n\
         collect m k acc = if k == 0 then return acc\n                   else takeMVar m >>= \\v -> collect m (k - 1) (acc + v)\n\
         main = do\n  m <- newEmptyMVar\n  forkIO (work m 500 0)\n  forkIO (work m 500 0)\n  forkIO (work m 500 0)\n  forkIO (work m 500 0)\n  collect m 4 0";
    for (program, src, expected) in [
        ("work 2000", WORK, "2001000"),
        ("4 × work 500 + MVar", FOUR, "501000"),
    ] {
        let mut s = urk::Session::new();
        s.load(src).expect("loads");
        let mut m = s.compiled_machine();
        let mut input = StringInput::new("");
        let out = run_machine(&mut m, &Expr::var("main"), &mut input);
        let IoResult::Done(result) = out.result else {
            panic!("{program}: {:?}", out.result)
        };
        assert_eq!(result, expected, "{program}");
        println!(
            "| {program} | {} | {result} | {} | {} | {} |",
            1 + out.threads.len(),
            m.stats().steps,
            m.stats().allocations,
            m.stats().thunk_updates,
        );
    }
}
