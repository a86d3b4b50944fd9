//! # xsq-core — the XSQ streaming XPath engine
//!
//! A faithful reimplementation of the XSQ system (Peng & Chawathe,
//! *XPath Queries on Streaming Data*, SIGMOD 2003): XPath 1.0 queries with
//! multiple predicates, closures (`//`), and aggregations evaluated over
//! SAX event streams in a single pass, buffering only data whose
//! membership in the result cannot yet be decided.
//!
//! ## Architecture
//!
//! * Each location step compiles to a **basic pushdown transducer**
//!   (BPDT) from a per-predicate-category template (§3, Figs. 5–9) with
//!   START / NA / TRUE states encoding the predicate's status.
//! * BPDTs compose into a binary-tree **hierarchical PDT** (HPDT, §4):
//!   the right child hangs off a parent's NA state, the left child off its
//!   TRUE state, so a BPDT's position encodes which predicates are known
//!   true — which statically determines every buffer operation
//!   ([`ids::BpdtId`]).
//! * At runtime, **depth vectors** ([`depth_vector::DepthVector`])
//!   disambiguate the multiple match paths closures create over recursive
//!   data, and shared, output-marked **items** ([`items::ItemStore`])
//!   guarantee duplicate-free emission in document order.
//!
//! ## Quick start
//!
//! ```
//! let results = xsq_core::evaluate(
//!     "//pub[year>2000]//book[author]//name/text()",
//!     br#"<pub><book><name>X</name><author>A</author></book>
//!         <year>2002</year></pub>"#,
//! ).unwrap();
//! assert_eq!(results, ["X"]);
//! ```
//!
//! For streaming input, compile once and drive a [`runtime::Runner`]
//! event by event; results reach the [`sink::Sink`] the moment their
//! membership is decided.

pub mod aggregate;
pub mod analyze;
pub mod arcs;
pub mod arena;
pub mod buffers;
pub mod build;
pub mod depth_vector;
pub mod dot;
pub mod engine;
pub mod error;
pub mod ids;
pub mod items;
pub mod multi;
pub mod plancache;
pub mod projector;
pub mod qindex;
pub mod report;
pub mod runtime;
pub mod schema;
pub mod shard;
pub mod sink;
pub mod trace;

pub use analyze::{
    analyze, analyze_with_dtd, prune, verify, Analysis, BoundAnalysis, BufferClass, BufferPlan,
    Diagnostic, MemoryBound, PruneStats, Severity,
};
pub use build::{build_hpdt, Hpdt};
pub use depth_vector::DepthVector;
pub use engine::{evaluate, CompiledQuery, XsqEngine, XsqF, XsqMode, XsqNc};
pub use error::{CompileError, EngineError};
pub use ids::BpdtId;
pub use multi::{query_lines, QuerySet};
pub use plancache::{CachedPlan, PlanCache, PlanCacheStats};
pub use projector::Projector;
pub use qindex::{QueryId, QueryIndex, QuerySink, VecQuerySink};
pub use report::{Capabilities, MemoryStats, PhaseTimings, RunReport, Unsupported, XPathEngine};
pub use runtime::{RunStats, Runner, RunnerCore};
pub use shard::{
    run_sequential, run_sequential_with, run_sharded, run_sharded_with, DocOutput, ShardError,
    ShardOptions, ShardRun,
};
pub use sink::{CountingSink, FnSink, IgnoreTags, Sink, TaggedSink, TaggedVecSink, VecSink};
