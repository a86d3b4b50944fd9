//! The TCP front end: serving-model dispatch, the threaded model, and
//! the state both models share.
//!
//! Two serving models sit behind the same wire contract:
//!
//! * **`eventloop`** (default on Unix) — a readiness-based loop in
//!   [`crate::eventloop`]: epoll/poll multiplexing, wire-v2 session
//!   multiplexing, and broadcast fan-out.
//! * **`threaded`** — the original model, kept selectable: `workers`
//!   accept threads share one nonblocking listener and each serves one
//!   connection at a time (the `shard.rs` fixed-pool pattern), with a
//!   dedicated writer thread per connection behind a *bounded* queue:
//!   when a client stops draining its socket the queue fills, the
//!   session blocks on the next reply, and the reader stops pulling
//!   frames — backpressure reaches the client as TCP flow control
//!   instead of unbounded server-side buffering.
//!
//! Both models share one [`xsq_core::PlanCache`] (identical SUB
//! batches compile once per server, not once per connection) and one
//! set of transport counters surfaced through STAT.
//!
//! Shutdown is a drain, not an abort: [`ServerHandle::shutdown`] stops
//! accepting, sessions that are *between* documents close with a
//! framed `shutting-down` error, and sessions with a document in
//! flight get [`DRAIN_GRACE`] to finish it before the connection
//! closes.

use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsq_core::{PlanCache, XsqEngine};

use crate::proto::{err_payload, errcode, frame_bytes, op, Frame, MAX_FRAME};
use crate::session::{Action, Outbox, Session, SessionLimits, TransportStats};

/// How often a blocked read wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// How long an in-flight document may keep running after shutdown.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Which serving model `xsq serve` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeModel {
    /// Readiness-based event loop (epoll / `poll(2)`): default where
    /// available. Supports wire-v2 multiplexing and broadcast.
    EventLoop,
    /// Thread-per-connection accept workers.
    Threaded,
}

impl ServeModel {
    /// The default model for this platform.
    pub fn platform_default() -> ServeModel {
        if cfg!(unix) {
            ServeModel::EventLoop
        } else {
            ServeModel::Threaded
        }
    }
}

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
    /// Threaded model: accept-worker threads = maximum concurrent
    /// sessions. `0` means one per available CPU.
    pub workers: usize,
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
    /// Serving model; [`ServeModel::platform_default`] by default.
    pub model: ServeModel,
    /// Event-loop model: number of loop threads sharing the listener.
    pub loop_threads: usize,
    /// Broadcast mode (event-loop only): one feeder, shared index,
    /// fan-out to every subscriber.
    pub broadcast: Option<BroadcastOptions>,
}

impl ServeOptions {
    pub fn new(addr: impl Into<String>) -> ServeOptions {
        ServeOptions {
            addr: addr.into(),
            workers: 0,
            idle_timeout: Duration::from_secs(30),
            max_frame: MAX_FRAME,
            queue_depth: 256,
            engine: XsqEngine::full(),
            limits: SessionLimits::default(),
            model: ServeModel::platform_default(),
            loop_threads: 1,
            broadcast: None,
        }
    }

    fn resolve_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// State both serving models share: the cross-connection compiled-plan
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
            // The cache must share the admission DTD so cached bounds
            // equal what a private compilation would compute.
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

    /// Stop accepting, drain in-flight sessions, join the workers.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bind and start serving in background threads.
pub fn serve(opts: ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared::new(&opts, Arc::clone(&shutdown)));

    let model = effective_model(&opts);
    let threads = match model {
        #[cfg(unix)]
        ServeModel::EventLoop => crate::eventloop::spawn(listener, opts, shared)?,
        #[cfg(not(unix))]
        ServeModel::EventLoop => unreachable!("effective_model falls back to Threaded"),
        ServeModel::Threaded => spawn_threaded(listener, opts, shared)?,
    };
    Ok(ServerHandle {
        addr,
        shutdown,
        threads,
    })
}

/// Resolve the model the platform can actually run. Broadcast requires
/// the event loop; non-Unix platforms only have the threaded model.
fn effective_model(opts: &ServeOptions) -> ServeModel {
    if !cfg!(unix) {
        return ServeModel::Threaded;
    }
    if opts.broadcast.is_some() {
        return ServeModel::EventLoop;
    }
    opts.model
}

fn spawn_threaded(
    listener: TcpListener,
    opts: ServeOptions,
    shared: Arc<Shared>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let workers = opts.resolve_workers();
    let mut threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let listener = listener.try_clone()?;
        let opts = opts.clone();
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("xsq-serve-{i}"))
                .spawn(move || accept_loop(listener, &opts, &shared))
                .expect("spawn accept worker"),
        );
    }
    Ok(threads)
}

fn accept_loop(listener: TcpListener, opts: &ServeOptions, shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Connection-level errors (peer vanished, io failures)
                // only end this connection, never the worker.
                let _ = handle_connection(stream, opts, shared);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL.min(Duration::from_millis(20)));
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reply queue entry: an encoded frame for the writer thread.
type WriteQueue = SyncSender<Vec<u8>>;

/// Session-side end of the reply queue. `send` blocks when the queue
/// is full — that block *is* the backpressure. A dead writer (client
/// gone) flips `dead` so the session loop can stop early.
struct QueueOutbox {
    tx: WriteQueue,
    dead: bool,
}

impl Outbox for QueueOutbox {
    fn send(&mut self, op: u8, payload: &[u8]) {
        if self.dead {
            return;
        }
        if self.tx.send(frame_bytes(op, payload)).is_err() {
            self.dead = true;
        }
    }
}

/// What the frame pump observed.
enum ReadOutcome {
    Frame(Frame),
    /// Clean EOF at a frame boundary.
    Eof,
    /// No complete frame within the idle window.
    Idle,
    /// Shutdown flag seen while waiting at a frame boundary.
    Drain,
    /// Declared frame length over the cap (we must not read the body).
    TooLarge(u64),
}

/// Decrements the shared connection/session gauges on every exit path.
struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
        self.0.sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    opts: &ServeOptions,
    shared: &Shared,
) -> io::Result<()> {
    let shutdown = &*shared.shutdown;
    // One connection is one logical session in the threaded model.
    shared.connections.fetch_add(1, Ordering::SeqCst);
    shared.sessions.fetch_add(1, Ordering::SeqCst);
    let _guard = ConnGuard(shared);
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let write_half = stream.try_clone()?;
    let (tx, rx) = sync_channel::<Vec<u8>>(opts.queue_depth.max(1));
    let writer = std::thread::Builder::new()
        .name("xsq-serve-writer".into())
        .spawn(move || {
            use std::io::Write;
            let mut w = std::io::BufWriter::new(write_half);
            while let Ok(buf) = rx.recv() {
                if w.write_all(&buf).is_err() {
                    return;
                }
                // Coalesce whatever is already queued, then flush so
                // streamed results are visible without waiting for
                // END-DOC.
                while let Ok(more) = rx.try_recv() {
                    if w.write_all(&more).is_err() {
                        return;
                    }
                }
                if w.flush().is_err() {
                    return;
                }
            }
            let _ = w.flush();
        })
        .expect("spawn writer");

    let mut session = Session::with_limits(opts.engine, opts.limits.clone());
    session.set_plan_cache(Arc::clone(&shared.cache));
    let mut out = QueueOutbox { tx, dead: false };
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let outcome = read_frame_poll(&mut stream, opts, shutdown, drain_deadline)?;
        match outcome {
            ReadOutcome::Frame(frame) => {
                if frame.op == op::STAT {
                    // Refresh the transport view STAT reports just
                    // before the session renders it.
                    session.set_transport(TransportStats {
                        model: "threaded",
                        connections: shared.connections.load(Ordering::SeqCst),
                        sessions: shared.sessions.load(Ordering::SeqCst),
                        // The writer-thread queue has no depth probe;
                        // the event loop reports a real high-water mark.
                        queue_depth_hwm: 0,
                        queued_bytes_hwm: 0,
                        dropped_broadcast: shared.dropped.load(Ordering::SeqCst),
                    });
                }
                if session.handle_frame(&frame, &mut out) == Action::Close || out.dead {
                    break;
                }
                if let Some(deadline) = drain_deadline {
                    if !session.doc_active() || Instant::now() >= deadline {
                        out.send(
                            op::ERR,
                            &err_payload(errcode::SHUTTING_DOWN, "server is draining", &[]),
                        );
                        break;
                    }
                }
            }
            ReadOutcome::Eof => break,
            ReadOutcome::Idle => {
                out.send(
                    op::ERR,
                    &err_payload(
                        errcode::IDLE_TIMEOUT,
                        &format!("no frame within {:.0}s", opts.idle_timeout.as_secs_f64()),
                        &[],
                    ),
                );
                break;
            }
            ReadOutcome::Drain => {
                if session.doc_active() && drain_deadline.is_none() {
                    // Let the in-flight document finish within the
                    // grace window.
                    drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                    continue;
                }
                if session.doc_active() {
                    // Still draining; keep polling until grace expires.
                    if Instant::now() < drain_deadline.unwrap() {
                        continue;
                    }
                }
                out.send(
                    op::ERR,
                    &err_payload(errcode::SHUTTING_DOWN, "server is draining", &[]),
                );
                break;
            }
            ReadOutcome::TooLarge(len) => {
                out.send(
                    op::ERR,
                    &err_payload(
                        errcode::TOO_LARGE,
                        &format!(
                            "frame of {len} bytes exceeds the {}-byte limit",
                            opts.max_frame
                        ),
                        &[],
                    ),
                );
                break;
            }
        }
    }
    drop(out);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
    Ok(())
}

/// Read one frame, waking every [`POLL_INTERVAL`] to check the
/// shutdown flag and the idle clock. Timeouts *inside* a frame do not
/// reset the idle clock — a client that dribbles a torn frame forever
/// still gets disconnected.
fn read_frame_poll(
    stream: &mut TcpStream,
    opts: &ServeOptions,
    shutdown: &AtomicBool,
    draining: Option<Instant>,
) -> io::Result<ReadOutcome> {
    let start = Instant::now();
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(ReadOutcome::Eof)
                } else {
                    Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "connection closed inside a frame header",
                    ))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if got == 0 && draining.is_none() && shutdown.load(Ordering::SeqCst) {
                    return Ok(ReadOutcome::Drain);
                }
                if let Some(deadline) = draining {
                    if Instant::now() >= deadline {
                        return Ok(ReadOutcome::Drain);
                    }
                }
                if start.elapsed() >= opts.idle_timeout {
                    return Ok(ReadOutcome::Idle);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(io::Error::new(ErrorKind::InvalidData, "zero-length frame"));
    }
    if len > opts.max_frame {
        return Ok(ReadOutcome::TooLarge(len as u64));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match stream.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed inside a frame body",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if start.elapsed() >= opts.idle_timeout {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "frame body stalled past the idle window",
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let frame_op = body[0];
    body.copy_within(1.., 0);
    body.truncate(len - 1);
    Ok(ReadOutcome::Frame(Frame {
        op: frame_op,
        payload: body,
    }))
}
