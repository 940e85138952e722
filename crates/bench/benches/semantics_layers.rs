//! E4 / cross-layer — the cost of the semantic machinery itself: the
//! denotational evaluator (including exception-finding mode), the precise
//! baseline, outcome-set enumeration for the non-deterministic baseline,
//! and a full law-table classification.
//!
//! These are not claims from the paper so much as an honest accounting of
//! what the reproduction's validator costs.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use urk_denot::{DenotConfig, DenotEvaluator, Design, EvalOrder, NondetConfig};
use urk_syntax::{desugar_expr, parse_expr_src, DataEnv};
use urk_transform::{classify, standard_laws};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("semantics_layers");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));

    let data = DataEnv::new();
    let term = Rc::new(
        desugar_expr(
            &parse_expr_src(
                r#"case raise Overflow of
                     { (a, b) -> case (1/0) + raise (UserError "Urk") of
                         { (p, q) -> a + p } }"#,
            )
            .expect("parses"),
            &data,
        )
        .expect("desugars"),
    );

    group.bench_function("imprecise-denotation", |b| {
        b.iter(|| {
            let ev = DenotEvaluator::new();
            ev.eval_closed(&term)
        })
    });

    group.bench_function("precise-denotation", |b| {
        b.iter(|| {
            let precise = Design::Precise(EvalOrder::LeftToRight);
            let ev = DenotEvaluator::with_design(DenotConfig::default(), precise);
            ev.eval_closed(&term)
        })
    });

    group.bench_function("nondet-outcome-enumeration", |b| {
        b.iter(|| urk_denot::enumerate_outcomes(&term, &NondetConfig::default()))
    });

    let laws = standard_laws();
    group.bench_function("law-classification-one", |b| b.iter(|| classify(&laws[0])));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
