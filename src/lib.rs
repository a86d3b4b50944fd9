//! # xsq — facade crate for the XSQ reproduction
//!
//! Re-exports the workspace crates under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`xml`] — streaming SAX substrate (`xsq-xml`)
//! * [`xpath`] — query front end (`xsq-xpath`)
//! * [`engine`] — the XSQ-F / XSQ-NC engines (`xsq-core`)
//! * [`transform`] — streaming transformation engine (`xsq-transform`)
//! * [`server`] — TCP streaming query server + reference client
//!   (`xsq-server`)
//! * [`baselines`] — comparison systems (`xsq-baselines`)
//! * [`datagen`] — synthetic dataset generators (`xsq-datagen`)

pub use xsq_baselines as baselines;
pub use xsq_core as engine;
pub use xsq_datagen as datagen;
pub use xsq_server as server;
pub use xsq_transform as transform;
pub use xsq_xml as xml;
pub use xsq_xpath as xpath;

// The multi-query surface, re-exported at the root: most downstream
// users hold a standing query set and only need these names.
pub use xsq_core::{run_sequential, run_sharded, run_sharded_with, ShardRun};
pub use xsq_core::{QueryId, QueryIndex, QuerySet, QuerySink, VecQuerySink, XsqEngine};
