//! # xsq-server — the streaming query server
//!
//! The paper evaluates XPath over data that *arrives as a stream*;
//! this crate supplies the network front end that makes that literal:
//! clients subscribe standing queries over TCP and push XML
//! incrementally, results stream back the moment their membership is
//! decided. Everything is `std`-only — `std::net` sockets under a
//! hand-rolled readiness loop; no async runtime, no external crates.
//!
//! * [`proto`] — the length-prefixed binary framing (SUB / UNSUB /
//!   FEED / END-DOC / STAT / BYE requests; SUB_OK / RESULT / UPDATE /
//!   DOC_OK / STAT_OK / OK / ERR replies). The wire contract is
//!   specified in `DESIGN.md`.
//! * [`session`] — the per-connection state machine: SUB/UNSUB
//!   bookkeeping around a private ingest core (a
//!   [`xsq_core::QueryIndex`] fed through the zero-copy `RawEvent` path
//!   by a [`xsq_xml::PushParser`], so FEED chunks may split tokens,
//!   UTF-8 sequences, or `]]>` at any byte boundary). The broadcast hub
//!   owns the same core, shared.
//! * [`server`] — configuration, the state loop threads share, and
//!   the handle that drains and stops them.
//! * [`eventloop`] (Unix) — the serving model: an epoll/poll poller
//!   over raw syscalls, bounded per-connection reply queues
//!   (backpressure), idle timeouts, one session table for wire v1 and
//!   v2, and broadcast fan-out through one shared
//!   [`xsq_core::QueryIndex`].
//! * [`client`] — the reference client: replays a corpus and renders
//!   replies byte-identically to the sequential in-process driver.

pub mod client;
#[cfg(unix)]
pub mod eventloop;
mod ingest;
pub mod proto;
pub mod server;
pub mod session;

pub use client::{
    broadcast_feed, broadcast_subscribe, reference_output, render_doc, run_corpus, stat_field_str,
    stat_field_u64, stat_transport_summary, ClientError, ClientReport, ConnectOptions, FeedOptions,
    FeedReport,
};
pub use proto::{read_frame, write_frame, Frame, WireBound, MAX_FRAME};
pub use server::{serve, BroadcastOptions, BroadcastPolicy, ServeOptions, ServerHandle};
pub use session::{Action, Outbox, Session, SessionLimits, SessionStats, TransportStats};
