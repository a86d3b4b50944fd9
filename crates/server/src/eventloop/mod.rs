//! The serving model: one thread (optionally sharded to
//! `--loop-threads N`) multiplexes every connection over an epoll (or
//! `poll(2)`) readiness loop.
//!
//! The loop holds thousands of mostly-idle subscriber connections at a
//! fixed thread cost, which is what broadcast fan-out needs. The
//! protocol machine is the transport-agnostic [`Session`]; readiness
//! drives it:
//!
//! * **Reads** land in a per-connection [`conn::FrameBuf`]; complete
//!   frames dispatch immediately, partial frames wait for more bytes.
//! * **Writes** are encoded once, in place, into a per-connection
//!   contiguous [`conn::WriteBuf`] and flushed with one `write` per
//!   readiness; `EPOLLOUT` interest exists only while the queue is
//!   non-empty. A queue deeper than the serve option's `queue_depth`
//!   frames pauses *reading* that connection, so backpressure reaches
//!   the client as TCP flow control instead of unbounded buffering.
//! * **One session table, two framings**: a connection that opens with
//!   HELLO ≥ 2 prefixes every later frame with a `u32` logical-session
//!   id and may run many [`Session`]s over one socket; a wire-v1
//!   connection runs the one session that has no id. `split_sid` is
//!   the only code that knows the difference in framing, and two
//!   policies are the only difference in behaviour: the session with no
//!   id opens on its first frame and takes the connection with it when
//!   it closes (parse failure, unknown opcode, BYE), while a session
//!   with an id opens on SUB and closes alone. Framing-level faults
//!   (oversized frame, zero-length frame) close the connection under
//!   either framing, because the byte stream itself is no longer
//!   trustworthy.
//! * **Broadcast**: with `--broadcast` the loop hosts a
//!   [`broadcast::Hub`] — one feeder, one shared index, fan-out to
//!   every subscriber (see that module's identity contract).
//!
//! Timers (idle timeout, shutdown drain grace, flush grace on closing
//! connections) ride the 100 ms poll tick.

pub mod broadcast;
pub mod conn;
pub mod poller;

use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{err_payload, errcode, op, Frame, CONTROL_SESSION, WIRE_V1, WIRE_V2};
use crate::server::{BroadcastPolicy, ServeOptions, Shared};
use crate::session::{Action, Session, TransportStats};

use broadcast::Hub;
use conn::{FrameBuf, FrameError, WriteBuf};
use poller::{PollEvent, Poller};

/// The listener's poller token; connections start at 1 and never reuse
/// a token, so a stale event can never address a new connection.
const LISTENER: u64 = 0;
/// Poll tick: granularity of idle/drain timers.
const TICK: Duration = Duration::from_millis(100);
/// How long an in-flight document (or an unflushed close) may linger
/// after shutdown begins.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Socket read chunk and the per-wakeup read budget — one connection
/// cannot starve the loop; level-triggered readiness re-reports
/// whatever is left.
const READ_CHUNK: usize = 64 * 1024;
const READS_PER_WAKE: usize = 8;

/// Spawn the event-loop threads for an already-bound listener.
pub(crate) fn spawn(
    listener: TcpListener,
    opts: ServeOptions,
    shared: Arc<Shared>,
) -> io::Result<Vec<JoinHandle<()>>> {
    // Broadcast needs every connection on one loop (the hub is
    // single-threaded state); otherwise shard by listener clone.
    let loops = if opts.broadcast.is_some() {
        1
    } else {
        opts.loop_threads.max(1)
    };
    let mut threads = Vec::with_capacity(loops);
    for i in 0..loops {
        let listener = listener.try_clone()?;
        let opts = opts.clone();
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("xsq-loop-{i}"))
                .spawn(move || match EventLoop::new(listener, opts, shared) {
                    Ok(el) => el.run(),
                    Err(e) => eprintln!("xsq serve: event loop failed to start: {e}"),
                })
                .expect("spawn event loop"),
        );
    }
    Ok(threads)
}

/// Fold a connection's queue high-water marks into the server-wide
/// ones STAT reports.
fn note_queue_hwm(shared: &Shared, write: &WriteBuf) {
    shared
        .queue_hwm
        .fetch_max(write.depth_hwm(), Ordering::Relaxed);
    shared
        .queue_bytes_hwm
        .fetch_max(write.queued_bytes_hwm(), Ordering::Relaxed);
}

/// One connection's loop-side state.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    frames: FrameBuf,
    write: WriteBuf,
    /// Negotiated wire version; v1 until a leading HELLO says v2.
    version: u32,
    saw_frame: bool,
    /// Logical sessions by session id; wire v1's one session is the
    /// one with no id (the key `broadcast::Hub` uses too).
    sessions: HashMap<Option<u32>, Session>,
    /// Completion time of the last decoded frame (the idle clock; a
    /// dribbled partial frame does not reset it).
    last_frame: Instant,
    /// Flush the write queue, then close.
    closing: bool,
    eof: bool,
    /// Reads paused because the write queue passed `queue_depth`.
    backpressured: bool,
    /// Reads paused by the broadcast block policy (feeder only).
    feeder_paused: bool,
    /// Currently registered poller interest.
    int_read: bool,
    int_write: bool,
    /// Shutdown drain: deadline for an in-flight document.
    drain_deadline: Option<Instant>,
    /// Flush grace once `closing`: force-drop past this.
    close_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, fd: RawFd, max_frame: usize) -> Conn {
        Conn {
            stream,
            fd,
            frames: FrameBuf::new(max_frame),
            write: WriteBuf::default(),
            version: WIRE_V1,
            saw_frame: false,
            sessions: HashMap::new(),
            last_frame: Instant::now(),
            closing: false,
            eof: false,
            backpressured: false,
            feeder_paused: false,
            int_read: true,
            int_write: false,
            drain_deadline: None,
            close_deadline: None,
        }
    }

    /// Connection-level replies respect the negotiated framing: wire
    /// v2 prefixes the reserved control-session id.
    fn ctl_sid(&self) -> Option<u32> {
        (self.version >= WIRE_V2).then_some(CONTROL_SESSION)
    }

    fn stage_reply(&mut self, sid: Option<u32>, opcode: u8, payload: &[u8]) {
        self.write.push(opcode, sid, payload);
    }

    fn stage_err(&mut self, code: &str, message: &str) {
        let sid = self.ctl_sid();
        self.stage_reply(sid, op::ERR, &err_payload(code, message, &[]));
    }
}

struct EventLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    opts: ServeOptions,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    hub: Option<Hub>,
    events: Vec<PollEvent>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        opts: ServeOptions,
        shared: Arc<Shared>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, true, false)?;
        let hub = opts
            .broadcast
            .map(|_| Hub::new(opts.engine, opts.limits.clone(), Arc::clone(&shared.cache)));
        Ok(EventLoop {
            poller,
            listener: Some(listener),
            opts,
            shared,
            conns: HashMap::new(),
            next_token: 1,
            hub,
            events: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    fn run(mut self) {
        let mut last_sweep = Instant::now();
        loop {
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, TICK).is_err() {
                std::thread::sleep(TICK);
            }
            for &ev in &events {
                if ev.token == LISTENER {
                    self.accept_ready();
                } else {
                    self.conn_ready(ev.token, ev.readable, ev.writable, ev.hangup);
                }
            }
            self.events = events;
            // The sweep walks every connection; under load the poller
            // wakes far more often than the timers it services need.
            if last_sweep.elapsed() >= TICK || self.shared.shutdown.load(Ordering::SeqCst) {
                self.sweep();
                last_sweep = Instant::now();
            }
            if self.shared.shutdown.load(Ordering::SeqCst)
                && self.listener.is_none()
                && self.conns.is_empty()
            {
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.poller.register(fd, token, true, false).is_err() {
                        continue;
                    }
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    self.conns
                        .insert(token, Conn::new(stream, fd, self.opts.max_frame));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        // Take the connection out of the map for the duration: frame
        // handling may fan frames to *other* connections (broadcast),
        // and this keeps those borrows disjoint.
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut dead = false;
        if writable && conn.write.flush_into(&mut conn.stream).is_err() {
            dead = true;
        }
        if !dead && (readable || hangup) {
            dead = self.read_and_process(token, &mut conn);
        }
        if self.hub.is_some() {
            self.pump_staged(Some((token, &mut conn)));
        }
        if !dead {
            dead = self.finish_io(token, &mut conn);
        }
        if dead {
            self.teardown(token, conn);
        } else {
            self.conns.insert(token, conn);
        }
    }

    /// Read until the socket would block (bounded per wakeup) and
    /// dispatch every complete frame as it decodes. Returns `true`
    /// when the connection is dead (io error, poisoned framing).
    fn read_and_process(&mut self, token: u64, conn: &mut Conn) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut dead = false;
        for _ in 0..READS_PER_WAKE {
            if conn.closing || conn.backpressured || conn.feeder_paused || conn.eof {
                break;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // EOF: flush whatever replies are queued, then
                    // close. A partial frame left in the buffer is the
                    // peer's torn write — nothing to answer.
                    conn.eof = true;
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.frames.extend(&scratch[..n]);
                    if self.process_frames(token, conn) {
                        dead = true;
                        break;
                    }
                    if conn.write.len() > self.opts.queue_depth {
                        break; // finish_io will pause reads
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        self.scratch = scratch;
        dead
    }

    fn process_frames(&mut self, token: u64, conn: &mut Conn) -> bool {
        loop {
            if conn.closing {
                return false;
            }
            match conn.frames.next_frame() {
                Ok(Some(frame)) => self.dispatch(token, conn, frame),
                Ok(None) => return false,
                Err(FrameError::TooLarge(len)) => {
                    conn.stage_err(
                        errcode::TOO_LARGE,
                        &format!(
                            "frame of {len} bytes exceeds the {}-byte limit",
                            self.opts.max_frame
                        ),
                    );
                    conn.closing = true;
                    return false;
                }
                // Zero-length frame: abrupt close with no reply.
                Err(FrameError::Zero) => return true,
            }
        }
    }

    fn dispatch(&mut self, token: u64, conn: &mut Conn, frame: Frame) {
        conn.last_frame = Instant::now();
        if frame.op == op::HELLO {
            if conn.saw_frame {
                conn.stage_err(
                    errcode::PROTOCOL,
                    "HELLO must be the first frame on a connection",
                );
                return;
            }
            conn.saw_frame = true;
            let Ok(bytes) = <[u8; 4]>::try_from(frame.payload.as_slice()) else {
                conn.stage_err(errcode::PROTOCOL, "HELLO payload must be a u32 version");
                conn.closing = true;
                return;
            };
            let client = u32::from_le_bytes(bytes);
            conn.version = client.clamp(WIRE_V1, WIRE_V2);
            // The negotiation reply itself is never session-prefixed.
            conn.stage_reply(None, op::HELLO_OK, &conn.version.to_le_bytes());
            return;
        }
        conn.saw_frame = true;
        let Some((sid, inner)) = split_sid(conn.version, &frame.payload) else {
            conn.stage_err(
                errcode::PROTOCOL,
                "wire v2 frames begin with a u32 session id",
            );
            return;
        };
        if self.hub.is_some() {
            self.dispatch_broadcast(token, conn, sid, frame.op, inner);
            return;
        }
        if frame.op == op::FEEDER {
            conn.stage_err(
                errcode::BROADCAST_ROLE,
                "this server is not in broadcast mode",
            );
            return;
        }
        if sid == Some(CONTROL_SESSION) {
            match frame.op {
                op::STAT => {
                    let json = self.server_stat_json(conn);
                    conn.stage_reply(sid, op::STAT_OK, json.as_bytes());
                }
                op::BYE => {
                    conn.stage_reply(sid, op::OK, &[op::BYE]);
                    conn.closing = true;
                }
                _ => conn.stage_err(
                    errcode::PROTOCOL,
                    "only STAT and BYE may address the control session",
                ),
            }
            return;
        }
        let session = match conn.sessions.entry(sid) {
            Entry::Occupied(open) => open.into_mut(),
            Entry::Vacant(slot) => {
                // The session with no id opens on its first frame; one
                // with an id opens on its first SUB.
                if let Some(id) = sid.filter(|_| frame.op != op::SUB) {
                    let message =
                        format!("session {id} is not open (a session opens with its first SUB)");
                    let err = err_payload(errcode::BAD_SESSION, &message, &[]);
                    conn.write.push(op::ERR, sid, &err);
                    return;
                }
                let mut s = Session::with_limits(self.opts.engine, self.opts.limits.clone());
                s.set_plan_cache(Arc::clone(&self.shared.cache));
                self.shared.sessions.fetch_add(1, Ordering::Relaxed);
                slot.insert(s)
            }
        };
        if frame.op == op::STAT {
            session.set_transport(self.transport(&conn.write));
        }
        let write = &mut conn.write;
        let mut out = |opcode: u8, payload: &[u8]| write.push(opcode, sid, payload);
        if session.handle(frame.op, inner, &mut out) == Action::Close {
            // A fatal error or BYE closes a session with an id alone;
            // the session with no id is the whole connection.
            if sid.is_none() {
                conn.closing = true;
            } else {
                conn.sessions.remove(&sid);
                self.shared.sessions.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn dispatch_broadcast(
        &mut self,
        token: u64,
        conn: &mut Conn,
        sid: Option<u32>,
        opcode: u8,
        inner: &[u8],
    ) {
        let transport = self.transport(&conn.write);
        let backend = self.poller.backend_name();
        let hub = self.hub.as_mut().expect("broadcast hub");
        match sid {
            Some(CONTROL_SESSION) if opcode == op::SUB => {
                conn.stage_err(errcode::PROTOCOL, "SUB must address a real session id");
            }
            // Session-scoped BYE: detach this logical subscriber, keep
            // the connection.
            Some(s) if s != CONTROL_SESSION && opcode == op::BYE => {
                if hub.session_closed(token, s) {
                    conn.stage_reply(sid, op::OK, &[op::BYE]);
                } else {
                    conn.stage_reply(
                        sid,
                        op::ERR,
                        &err_payload(
                            errcode::BAD_SESSION,
                            &format!("session {s} is not open"),
                            &[],
                        ),
                    );
                }
            }
            _ => hub.dispatch(token, sid, opcode, inner, &transport, backend),
        }
    }

    /// Drain the hub's staged fan-out into connection write queues,
    /// applying the overflow policy, then apply staged closes. `cur`
    /// is the connection currently checked out of the map, if any.
    fn pump_staged(&mut self, cur: Option<(u64, &mut Conn)>) {
        let (cur_token, mut cur_conn) = cur.unzip();
        let EventLoop {
            hub,
            conns,
            shared,
            opts,
            ..
        } = self;
        let Some(hub) = hub.as_mut() else { return };
        let bopts = opts.broadcast.expect("broadcast options");
        let cap = bopts.queue.max(1);
        let mut touched: Vec<u64> = Vec::new();
        // One connection lookup per run of deliveries to the same
        // connection (every session multiplexed on it, back to back).
        let mut deliveries = hub.deliveries().peekable();
        while let Some(t) = deliveries.peek().map(|d| d.token) {
            let mut target: Option<&mut Conn> = if Some(t) == cur_token {
                cur_conn.as_deref_mut()
            } else {
                conns.get_mut(&t).inspect(|_| touched.push(t))
            };
            while let Some(d) = deliveries.next_if(|d| d.token == t) {
                let Some(target) = target.as_deref_mut() else {
                    continue;
                };
                // Drop policy sheds only result traffic: control replies
                // and DOC_OK document boundaries always get through, so a
                // lossy subscriber still sees a consistent protocol.
                let droppable = d.op == op::RESULT || d.op == op::UPDATE;
                if bopts.policy == BroadcastPolicy::Drop && droppable && target.write.len() >= cap {
                    shared.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                target.write.push(d.op, d.sid, d.payload);
            }
        }
        drop(deliveries);
        hub.clear_staged();
        let closes = std::mem::take(&mut hub.closes);
        for t in closes {
            if Some(t) == cur_token {
                cur_conn.as_deref_mut().expect("current connection").closing = true;
            } else if let Some(c) = conns.get_mut(&t) {
                c.closing = true;
                touched.push(t);
            }
        }
        // Side-affected connections need their flush/interest state
        // refreshed now — their own readiness event may never come.
        touched.sort_unstable();
        touched.dedup();
        for t in touched {
            if let Some(mut c) = self.conns.remove(&t) {
                if self.finish_io(t, &mut c) {
                    self.teardown(t, c);
                } else {
                    self.conns.insert(t, c);
                }
            }
        }
        self.update_feeder_pause(cur_token, cur_conn);
    }

    /// Block policy: pause the feeder's reads while any subscriber
    /// queue is over the bound; resume once all are half-drained.
    fn update_feeder_pause(&mut self, cur_token: Option<u64>, mut cur_conn: Option<&mut Conn>) {
        let Some(bopts) = self.opts.broadcast else {
            return;
        };
        if bopts.policy != BroadcastPolicy::Block {
            return;
        }
        let Some(ft) = self.hub.as_ref().and_then(|h| h.feeder_token()) else {
            return;
        };
        let cap = bopts.queue.max(1);
        let mut over = false;
        let mut busy = false;
        for (t, c) in &self.conns {
            if *t == ft {
                continue;
            }
            let depth = c.write.len();
            over |= depth >= cap;
            busy |= depth > cap / 2;
        }
        if let (Some(t), Some(c)) = (cur_token, cur_conn.as_deref_mut()) {
            if t != ft {
                let depth = c.write.len();
                over |= depth >= cap;
                busy |= depth > cap / 2;
            }
        }
        if cur_token == Some(ft) {
            // Paused stays paused while busy; running pauses once over.
            // The caller's finish_io applies the interest change.
            let f = cur_conn.expect("current connection");
            f.feeder_paused = if f.feeder_paused { busy } else { over };
        } else if let Some(mut f) = self.conns.remove(&ft) {
            let was = f.feeder_paused;
            f.feeder_paused = if was { busy } else { over };
            let dead = if f.feeder_paused != was {
                self.finish_io(ft, &mut f)
            } else {
                false
            };
            if dead {
                self.teardown(ft, f);
            } else {
                self.conns.insert(ft, f);
            }
        }
    }

    /// Flush, refresh poller interest, settle backpressure. Returns
    /// `true` when the connection should be torn down.
    fn finish_io(&mut self, token: u64, conn: &mut Conn) -> bool {
        if !conn.write.is_empty() && conn.write.flush_into(&mut conn.stream).is_err() {
            return true;
        }
        note_queue_hwm(&self.shared, &conn.write);
        let depth = conn.write.len();
        if conn.backpressured {
            if depth <= self.opts.queue_depth / 2 {
                conn.backpressured = false;
            }
        } else if depth > self.opts.queue_depth {
            conn.backpressured = true;
        }
        if conn.closing {
            if conn.write.is_empty() {
                return true;
            }
            if conn.close_deadline.is_none() {
                conn.close_deadline = Some(Instant::now() + DRAIN_GRACE);
            }
        }
        let want_r = !conn.closing && !conn.eof && !conn.backpressured && !conn.feeder_paused;
        let want_w = !conn.write.is_empty();
        if (want_r, want_w) != (conn.int_read, conn.int_write) {
            if self.poller.modify(conn.fd, token, want_r, want_w).is_err() {
                return true;
            }
            conn.int_read = want_r;
            conn.int_write = want_w;
        }
        false
    }

    fn teardown(&mut self, token: u64, conn: Conn) {
        let _ = self.poller.deregister(conn.fd);
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.shared.connections.fetch_sub(1, Ordering::Relaxed);
        self.shared
            .sessions
            .fetch_sub(conn.sessions.len() as u64, Ordering::Relaxed);
        note_queue_hwm(&self.shared, &conn.write);
        drop(conn);
        if self.hub.is_some() {
            // The hub may stage frames (feeder loss fans an error to
            // every subscriber) — pump them through.
            self.hub.as_mut().expect("broadcast hub").conn_closed(token);
            self.pump_staged(None);
        }
    }

    /// Timer tick: idle timeouts, shutdown drain, closing-flush grace.
    fn sweep(&mut self) {
        let now = Instant::now();
        let shutting = self.shared.shutdown.load(Ordering::SeqCst);
        if shutting {
            if let Some(l) = self.listener.take() {
                let _ = self.poller.deregister(l.as_raw_fd());
                drop(l);
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for t in tokens {
            let Some(mut c) = self.conns.remove(&t) else {
                continue;
            };
            let mut dead = false;
            if !c.closing {
                // A read paused by backpressure or the block policy is
                // the server's own doing — the idle clock does not run
                // against the client then.
                let paused = c.backpressured || c.feeder_paused;
                if !paused && now.duration_since(c.last_frame) >= self.opts.idle_timeout {
                    c.stage_err(
                        errcode::IDLE_TIMEOUT,
                        &format!(
                            "no frame within {:.0}s",
                            self.opts.idle_timeout.as_secs_f64()
                        ),
                    );
                    c.closing = true;
                } else if shutting {
                    let active = self.conn_doc_active(t, &c);
                    match c.drain_deadline {
                        None if !active => {
                            c.stage_err(errcode::SHUTTING_DOWN, "server is draining");
                            c.closing = true;
                        }
                        None => c.drain_deadline = Some(now + DRAIN_GRACE),
                        Some(d) if !active || now >= d => {
                            c.stage_err(errcode::SHUTTING_DOWN, "server is draining");
                            c.closing = true;
                        }
                        Some(_) => {}
                    }
                }
            }
            if let Some(d) = c.close_deadline {
                if now >= d {
                    dead = true;
                }
            }
            if !dead {
                dead = self.finish_io(t, &mut c);
            }
            if dead {
                self.teardown(t, c);
            } else {
                self.conns.insert(t, c);
            }
        }
        self.update_feeder_pause(None, None);
    }

    fn conn_doc_active(&self, token: u64, c: &Conn) -> bool {
        if let Some(hub) = &self.hub {
            return hub.doc_active() && hub.feeder_token() == Some(token);
        }
        c.sessions.values().any(|s| s.doc_active())
    }

    fn transport(&self, write: &WriteBuf) -> TransportStats {
        note_queue_hwm(&self.shared, write);
        TransportStats {
            model: if self.hub.is_some() {
                "broadcast"
            } else {
                "eventloop"
            },
            connections: self.shared.connections.load(Ordering::Relaxed),
            sessions: self.shared.sessions.load(Ordering::Relaxed),
            queue_depth_hwm: self.shared.queue_hwm.load(Ordering::Relaxed),
            queued_bytes_hwm: self.shared.queue_bytes_hwm.load(Ordering::Relaxed),
            dropped_broadcast: self.shared.dropped.load(Ordering::Relaxed),
        }
    }

    /// The control-session STAT reply: server-wide counters (no
    /// logical session is addressed, so no engine counters).
    fn server_stat_json(&self, conn: &Conn) -> String {
        let mut json = format!("{{\"backend\":\"{}\",", self.poller.backend_name());
        self.transport(&conn.write)
            .finish_stat_json(self.shared.cache.stats(), &mut json);
        json
    }
}

/// The one place that knows how the two wire versions frame a session:
/// a wire-v2 payload leads with a `u32` session id, and wire v1 is the
/// session with no id. `None` for a v2 payload too short to carry one.
fn split_sid(version: u32, payload: &[u8]) -> Option<(Option<u32>, &[u8])> {
    if version < WIRE_V2 {
        return Some((None, payload));
    }
    let (sid, inner) = payload.split_first_chunk::<4>()?;
    Some((Some(u32::from_le_bytes(*sid)), inner))
}
