//! # xsq-bench — the experiment harness for §6 of the paper
//!
//! One function per table/figure of the evaluation section
//! ([`experiments`]), printed as paper-style tables by the `experiments`
//! binary — this crate's only one. Everything else that measures is
//! `xsq-benchmark` (`crates/benchmark`), the repository's one referee.
//!
//! Methodology notes (matching §6):
//!
//! * **Relative throughput** — every engine's throughput is normalized by
//!   the [`xsq_xml::PureParser`] on the same bytes (§6.2), so parser cost
//!   and machine speed divide out; "who is faster than whom, and by
//!   what factor" is the reproducible quantity.
//! * **Memory** — engine-internal accounting: buffered items/bytes for
//!   streaming engines, materialized-structure bytes for DOM/index
//!   engines. The shape (flat vs. linear-in-input) is the paper's claim.
//! * **Scale** — dataset sizes default to laptop scale (1 MB-ish) and are
//!   configurable; the paper's absolute sizes (up to 716 MB) do not
//!   change any of the comparisons' shapes.

pub mod datasets;
pub mod experiments;
pub mod table;
pub mod throughput;

pub use table::Table;
