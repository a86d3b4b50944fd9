//! The TCP front end: server configuration and the handle that stops
//! the one event-loop thread.
//!
//! There is one serving model: the readiness loop in
//! [`crate::eventloop`] — epoll, so Linux; elsewhere [`serve`] reports
//! `Unsupported` — which multiplexes every connection, speaks wire v1 and v2, and hosts
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use xsq_core::XsqEngine;

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
    /// Engine every session compiles against.
    pub engine: XsqEngine,
    /// Admission policy: per-subscription static-bound budget and the
    /// DTD the bound analyzer proves it against (`--max-bound`/`--dtd`).
    pub limits: SessionLimits,
    /// Broadcast mode: one feeder, shared index, fan-out to every
    /// subscriber.
    pub broadcast: Option<BroadcastOptions>,
}

impl ServeOptions {
    pub fn new(addr: impl Into<String>) -> ServeOptions {
        ServeOptions {
            addr: addr.into(),
            idle_timeout: Duration::from_secs(30),
            engine: XsqEngine::full(),
            limits: SessionLimits::default(),
            broadcast: None,
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the loop thread serving until the
/// process exits.
pub struct ServerHandle {
    addr: SocketAddr,
    backend: &'static str,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The running loop's readiness backend: `epoll`, the one poller.
    /// On a Unix without it `serve` fails with `Unsupported`.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// Stop accepting, drain in-flight sessions, join the loop thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

/// Bind, build the event loop on the calling thread, then run it on a
/// background thread. A loop that cannot start (no poller, listener
/// registration refused) is this call's error, not a dead port.
#[cfg(unix)]
pub fn serve(opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let el = crate::eventloop::EventLoop::new(listener, opts, Arc::clone(&shutdown))?;
    let backend = el.backend_name();
    let thread = std::thread::Builder::new()
        .name("xsq-loop".into())
        .spawn(move || el.run())?;
    Ok(ServerHandle {
        addr,
        backend,
        shutdown,
        thread,
    })
}

/// The readiness loop needs epoll; there is no server without it.
#[cfg(not(unix))]
pub fn serve(_: ServeOptions) -> io::Result<ServerHandle> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "xsq serve needs epoll (Linux)",
    ))
}
