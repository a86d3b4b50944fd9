//! The TCP front end: server configuration, the state every loop
//! thread shares, and the handle that stops it.
//!
//! There is one serving model: the readiness loop in
//! [`crate::eventloop`] — epoll on Linux, `poll(2)` on any other Unix —
//! which multiplexes every connection, speaks wire v1 and v2, and hosts
//! broadcast fan-out. Every connection shares one
//! [`xsq_core::PlanCache`] (identical SUB batches compile once per
//! server, not once per connection) and one set of transport counters
//! surfaced through STAT.
//!
//! Shutdown is a drain, not an abort: [`ServerHandle::shutdown`] stops
//! accepting, sessions that are *between* documents close with a
//! framed `shutting-down` error, and sessions with a document in
//! flight get a grace period to finish it before the connection
//! closes.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use xsq_core::{PlanCache, XsqEngine};

use crate::proto::MAX_FRAME;
use crate::session::SessionLimits;

/// What a broadcast server does when a subscriber's output queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastPolicy {
    /// Pause the feeder until every subscriber queue half-drains:
    /// lossless total broadcast, paced by the slowest subscriber.
    Block,
    /// Discard RESULT/UPDATE frames for the saturated subscriber and
    /// count them (`dropped_broadcast` in STAT). DOC_OK and control
    /// replies are never dropped, so the protocol stays consistent.
    Drop,
}

/// Broadcast-mode settings (`xsq serve --broadcast`).
#[derive(Debug, Clone, Copy)]
pub struct BroadcastOptions {
    /// Bounded output queue per subscriber *connection*, in frames:
    /// wire-v2 sessions multiplexed on one connection share its queue
    /// and its bound.
    pub queue: usize,
    pub policy: BroadcastPolicy,
}

impl Default for BroadcastOptions {
    fn default() -> Self {
        BroadcastOptions {
            queue: 1024,
            policy: BroadcastPolicy::Block,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free one).
    pub addr: String,
    /// Close a connection when no complete frame arrives within this
    /// window.
    pub idle_timeout: Duration,
    /// Per-frame size cap.
    pub max_frame: usize,
    /// Bounded reply-queue depth, in frames, per *connection* — not
    /// per logical session: every wire-v2 session multiplexed on a
    /// connection shares that connection's queue.
    pub queue_depth: usize,
    /// Engine every session compiles against.
    pub engine: XsqEngine,
    /// Admission policy: per-subscription static-bound budget and the
    /// DTD the bound analyzer proves it against (`--max-bound`/`--dtd`).
    pub limits: SessionLimits,
    /// Number of loop threads sharing the listener.
    pub loop_threads: usize,
    /// Broadcast mode: one feeder, shared index, fan-out to every
    /// subscriber (always one loop thread).
    pub broadcast: Option<BroadcastOptions>,
}

impl ServeOptions {
    pub fn new(addr: impl Into<String>) -> ServeOptions {
        ServeOptions {
            addr: addr.into(),
            idle_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            queue_depth: 256,
            engine: XsqEngine::full(),
            limits: SessionLimits::default(),
            loop_threads: 1,
            broadcast: None,
        }
    }
}

/// State every loop thread shares: the cross-connection compiled-plan
/// cache and the transport counters STAT surfaces.
pub(crate) struct Shared {
    pub cache: Arc<PlanCache>,
    pub shutdown: Arc<AtomicBool>,
    pub connections: AtomicU64,
    pub sessions: AtomicU64,
    pub queue_hwm: AtomicU64,
    pub queue_bytes_hwm: AtomicU64,
    pub dropped: AtomicU64,
}

impl Shared {
    fn new(opts: &ServeOptions, shutdown: Arc<AtomicBool>) -> Shared {
        Shared {
            // The cache analyzes bounds against the admission DTD, so
            // a cached bound is the one `max_bound` is about.
            cache: PlanCache::new(opts.limits.dtd.clone()),
            shutdown,
            connections: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            queue_bytes_hwm: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving until the
/// process exits.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight sessions, join the loop threads.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind and start serving in background threads.
#[cfg(unix)]
pub fn serve(opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared::new(&opts, Arc::clone(&shutdown)));
    let threads = crate::eventloop::spawn(listener, opts, shared)?;
    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
    })
}

/// The readiness loop needs epoll or `poll(2)`; there is no server
/// without one.
#[cfg(not(unix))]
pub fn serve(_: ServeOptions) -> io::Result<ServerHandle> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "xsq serve needs a Unix readiness API (epoll or poll)",
    ))
}
