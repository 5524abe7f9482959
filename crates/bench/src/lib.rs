//! Shared configuration for the criterion benchmark suite.
//!
//! Every paper artefact has a bench target that regenerates it at
//! quick fidelity (the shapes are fidelity-independent; `repro all`
//! regenerates them at full fidelity):
//!
//! * `benches/figures.rs` — Figures 1–10,
//! * `benches/tables.rs` — Tables 1–2 and the §5.2 validations,
//! * `benches/ablations.rs` — the X1–X8 extension studies,
//! * `benches/micro.rs` — hot-path micro-benchmarks (scheduler
//!   dispatch, planner, one simulated host-second).
//!
//! The criterion benches measure *statistical* timing of isolated
//! pieces. End-to-end throughput, set-up time and peak memory are
//! measured by the separate `perfbench/` package that
//! `BENCHMARK.json` describes.

#![deny(missing_docs)]

use criterion::Criterion;

/// Criterion settings for whole-experiment benches: few samples, since
/// each iteration is a complete deterministic simulation run.
#[must_use]
pub fn experiment_criterion() -> Criterion {
    // configure_from_args picks up the name filter, so
    // `cargo bench --bench figures fig9` runs a single artefact.
    Criterion::default().sample_size(10).configure_from_args()
}
