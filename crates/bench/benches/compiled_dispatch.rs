//! Flat-code dispatch, end to end: the machine executes u32-indexed
//! `Copy` ops with slot-resolved variables and pre-lowered dispatch
//! tables.
//!
//! Two groups:
//!
//! * `exec` — fib / primes / pipeline (and the rest of the standard
//!   suite) on a fresh machine per run, linking a pre-lowered
//!   `Arc<Code>` and lowering only the query.
//! * `pool` — end-to-end batch throughput at 4 workers, caching
//!   disabled, at tier 1 and tier 2, each sharing one `Arc<Code>`. On a
//!   single-CPU host the workers timeshare one core, so this measures
//!   per-job cost, not parallel speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use urk::{EvalPool, Options, PoolConfig, Tier};
use urk_bench::{compile, lower, pipeline_workload, run_flat, workloads};
use urk_machine::MachineConfig;

fn bench(c: &mut Criterion) {
    {
        let mut group = c.benchmark_group("compiled_dispatch/exec");
        group
            .sample_size(20)
            .warm_up_time(std::time::Duration::from_millis(300))
            .measurement_time(std::time::Duration::from_millis(1500));

        let mut suite = workloads();
        suite.push(pipeline_workload());
        for w in suite {
            let compiled = compile(&w);
            let code = lower(&compiled);
            // Guard: the expected answer before anything is timed.
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

    // End-to-end: the serving pool at both tiers, cache off so every job
    // runs a machine. Each pool lowers the Prelude once and shares the
    // image across workers.
    {
        let mut group = c.benchmark_group("compiled_dispatch/pool");
        group
            .sample_size(15)
            .warm_up_time(std::time::Duration::from_millis(500))
            .measurement_time(std::time::Duration::from_secs(3));

        let jobs: Vec<String> = (0..8).map(|i| format!("sum [1 .. {}]", 2000 + i)).collect();
        for tier in [Tier::One, Tier::Two] {
            let pool = EvalPool::start(
                &[],
                Options {
                    tier,
                    ..Options::default()
                },
                PoolConfig {
                    workers: 4,
                    cache_cap: 0,
                    ..PoolConfig::default()
                },
            )
            .expect("pool starts");
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("tier{}", tier.name())),
                &pool,
                |b, p| b.iter(|| p.eval_batch(&jobs)),
            );
            pool.shutdown();
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
