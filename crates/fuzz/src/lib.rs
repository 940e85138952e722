//! Coverage-guided differential fuzzing for the Urk evaluators.
//!
//! The paper's central claim is a *refinement* relation: the machine may
//! raise any member of the denotationally-assigned exception set, and every
//! backend added since (compiled `Code`, analysis-licensed rewrites) widens
//! the surface where that claim could silently break. This crate turns the
//! fixed random-term battery into an adversarial search:
//!
//! * [`gen`] — a seeded generator of closed, well-typed `Int` Core terms
//!   over a small recursive fuzz prelude (so splices exercise real calls);
//! * [`mutate`] — structure-aware mutations: swap typed subterms,
//!   grow/shrink case alternatives, perturb raise sites, splice prelude
//!   calls — every mutant re-checked by `urk_types::infer_expr`;
//! * [`coverage`] — the candidate fingerprint: compiled-`Code` op-pair
//!   edges ([`urk_machine::OpCoverage`]) plus log-bucketed `Stats`
//!   features; novelty admits the mutant into the corpus;
//! * [`oracle`] — the full cross-product check for one candidate: tier 1
//!   vs tier 2 on both deterministic orders plus a seeded order, all vs
//!   the denotational set, under seeded [`urk_machine::FaultPlan`] chaos and an
//!   optional wall-clock interrupt, with a heap audit after every run;
//! * [`shrink`] — deterministic greedy minimization of a failing term (the
//!   same seed and failing term always produce the byte-identical minimal
//!   counterexample);
//! * [`corpus`] — replayable `.urk` case files (fuzz prelude + a
//!   `counterexample` binding) and greedy feature-set-cover corpus
//!   minimization;
//! * [`bytes`] — the wire-frame byte mutator backing `urk serve`
//!   protocol fuzzing;
//! * [`fuzzer`] — the main loop tying it together, fully deterministic for
//!   a given seed.
//!
//! The long-run soak driver lives in `urk::soak` (it needs the `EvalPool`
//! serving layer, which depends on this crate for term generation).

pub mod bytes;
pub mod corpus;
pub mod coverage;
pub mod ctx;
pub mod fuzzer;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

pub use bytes::{Expectation, FrameAttack, FrameMutator};
pub use corpus::{list_cases, load_case, minimize_corpus, render_case, CaseFile};
pub use coverage::{stats_features, Fingerprint};
pub use ctx::{FuzzCtx, FUZZ_PRELUDE_SRC};
pub use fuzzer::{run_fuzz, Counterexample, FuzzConfig, FuzzReport};
pub use gen::TermGen;
pub use mutate::Mutator;
pub use oracle::{run_oracle, CheckKind, Failure, OracleConfig, Verdict};
pub use shrink::shrink;
