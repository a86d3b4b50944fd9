//! The query index: many standing queries, one streaming interface.
//!
//! The paper evaluates XSQ one query at a time; real deployments (stock
//! feeds, pub/sub over document streams) hold hundreds of standing
//! queries against the same stream. Running N independent
//! [`crate::runtime::Runner`]s works, but costs O(N) automaton steps
//! per SAX event even when almost no query could possibly react.
//!
//! This module makes the query set a first-class, indexed object:
//!
//! - [`dispatch`] — an inverted index from (event kind, element name)
//!   to the states, of any group, that have a matching arc — filed once,
//!   when a group is added — gated by one bit per state that says
//!   whether the group has a configuration there now. Events touch
//!   interested runners only.
//! - [`prefix`] — compile-time prefix sharing: queries with a common
//!   leading location step merge into one HPDT whose step trie shares
//!   the common chain and fans out at the divergence point, with
//!   per-query tags keeping results attributed.
//! - [`subscribe`] — the dynamic subscription API: [`QueryIndex`] with
//!   stable [`QueryId`]s, per-subscriber sinks or a shared
//!   id-tagging [`QuerySink`], and `unsubscribe` that mutes without
//!   recompiling.
//!
//! The index is behaviour-preserving by construction: every dispatch
//! skip is a feed that could not have fired an arc, and the merged
//! HPDT runs each member query over the same BPDT chain it would get
//! alone. The differential test suite checks both against per-query
//! [`crate::engine::XsqEngine`] runs.

pub mod dispatch;
pub mod prefix;
pub mod subscribe;

pub use crate::sink::{QueryId, QuerySink, VecQuerySink};
pub use dispatch::DispatchIndex;
pub use prefix::{plan_groups, QueryGroup};
pub use subscribe::QueryIndex;
