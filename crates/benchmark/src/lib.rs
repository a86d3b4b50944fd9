//! # xsq-benchmark — the repository's one referee
//!
//! Seven seeded workloads, each with an **untraced pass** (the
//! end-to-end metrics a user would see) and a separate **traced pass**
//! (per-layer metrics, attributed by a ladder of rungs over identical
//! bytes). Every layer is entered from outside, through its public
//! functions only; nothing in the programs under test is instrumented.
//! `README.md` beside this crate has the metric glossary, the workload
//! table, the interaction table and the sizing measurements;
//! `BENCHMARK.json` at the repository root names what later changes
//! may claim against.

pub mod alloc;
pub mod hash;
pub mod inputs;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
