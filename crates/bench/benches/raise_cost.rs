//! E6 — §3.3: `raise` is a stack trim. Compared against the §2.2 explicit
//! encoding, which allocates and pattern-matches a `Bad` cell at every
//! level on the way out.
//!
//! Expected shape: both are linear in depth (the work to *build* the stack
//! dominates), but the trim allocates nothing, so `raise` stays ahead and
//! the gap widens with depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urk_bench::{deep_propagate, deep_raise, run, run_caught};
use urk_machine::MachineConfig;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("raise_cost");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));

    for depth in [100u64, 1_000, 10_000] {
        let trim = deep_raise(depth);
        let explicit = deep_propagate(depth);
        group.bench_with_input(BenchmarkId::new("stack-trim", depth), &trim, |b, c| {
            b.iter(|| run_caught(c, MachineConfig::default()))
        });
        group.bench_with_input(
            BenchmarkId::new("explicit-propagation", depth),
            &explicit,
            |b, c| b.iter(|| run(c, MachineConfig::default())),
        );
    }

    // Re-raising a poisoned thunk is O(1) regardless of the original
    // depth (§3.3: the thunk was overwritten with `raise ex`).
    group.bench_function("re-raise-poisoned", |b| {
        use urk_machine::{compile_program, Machine};
        use urk_syntax::core::Expr;
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(std::sync::Arc::new(compile_program(&[])));
        let t = m.alloc_code_thunk(&Expr::div(Expr::int(1), Expr::int(0)));
        let _ = m.eval_node(t, true).expect("first raise");
        b.iter(|| m.eval_node(t, true).expect("re-raise"));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
