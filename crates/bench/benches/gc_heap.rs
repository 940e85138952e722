//! E19 — the generational nursery heap and tagged unboxed values.
//!
//! The PR 4 numbers in BENCH_compiled_dispatch.json were taken on the
//! single-space mark-sweep heap with the interned literal pool. This
//! bench re-times the same workloads on the generational heap: a
//! bump-allocated nursery with copying minor collections, a tenured old
//! space with the mark-sweep collector as fallback, and small integers /
//! nullary constructors unboxed into tagged `NodeId` words (never heap
//! cells at all). Behavioural agreement is asserted before anything is
//! timed.
//!
//! Groups:
//!
//! * `exec` — the standard suite with the default config, directly
//!   comparable to `compiled_dispatch/exec`;
//! * `churn` — a list-heavy workload under real collection pressure
//!   (nursery crossings and major thresholds), timed at several nursery
//!   sizes, so the minor-collection cost curve is
//!   visible rather than inferred.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urk_bench::{compile, lower, pipeline_workload, run_flat, workloads, Workload};
use urk_machine::MachineConfig;

/// Allocation-heavy churn: builds, sorts, and folds short-lived lists so
/// most cells die in the nursery while the sorted spine survives.
fn churn_workload() -> Workload {
    Workload {
        name: "churn",
        program: "ins x ys = case ys of { [] -> [x]; z:zs -> if x <= z then x : z : zs else z : ins x zs }\n\
                  isort xs = case xs of { [] -> []; y:ys -> ins y (isort ys) }\n\
                  mklist n = if n == 0 then [] else (n * 37 % 101) : mklist (n - 1)\n\
                  lsum xs = case xs of { [] -> 0; y:ys -> y + lsum ys }\n\
                  rounds k acc = if k == 0 then acc else rounds (k - 1) (acc + lsum (isort (mklist 60)))",
        query: "rounds 12 0".into(),
        expected: "36840",
        first_order: true,
    }
}

fn bench(c: &mut Criterion) {
    {
        let mut group = c.benchmark_group("gc_heap/exec");
        group
            .sample_size(20)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(1500));

        let mut suite = workloads();
        suite.push(pipeline_workload());
        for w in suite {
            let compiled = compile(&w);
            let code = lower(&compiled);
            assert_eq!(
                run_flat(&compiled, &code, MachineConfig::default()).0,
                w.expected
            );
            group.bench_with_input(
                BenchmarkId::new("flat", w.name),
                &(&compiled, &code),
                |b, (c, code)| b.iter(|| run_flat(c, code, MachineConfig::default())),
            );
        }
        group.finish();
    }

    {
        let mut group = c.benchmark_group("gc_heap/churn");
        group
            .sample_size(20)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(1500));

        let w = churn_workload();
        let compiled = compile(&w);
        let code = lower(&compiled);
        for nursery in [512usize, 2_048, 8_192] {
            let config = MachineConfig {
                nursery_size: nursery,
                gc_threshold: 4_000,
                ..MachineConfig::default()
            };
            let (out, stats) = run_flat(&compiled, &code, config.clone());
            assert_eq!(out, w.expected);
            // The pressure must be real: this workload has to cross the
            // nursery at every size being timed.
            assert!(stats.minor_gcs > 0, "nursery {nursery}: {stats:?}");

            group.bench_with_input(
                BenchmarkId::from_parameter(format!("nursery-{nursery}")),
                &(&compiled, &code, config),
                |b, (c, code, config)| b.iter(|| run_flat(c, code, (*config).clone())),
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
