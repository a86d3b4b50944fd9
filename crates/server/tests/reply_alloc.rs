//! Allocation audit for the broadcast reply path.
//!
//! The event loop's reply path — `FanSink` staging a determined result
//! once, the drain expanding it over the audience, `WriteBuf` encoding
//! each frame in place and flushing from the same bytes — is meant to
//! touch the allocator *zero* times per delivered frame, and zero times
//! per document once its buffers have warmed up. This test wraps the
//! global allocator in a counting shim, warms a hub with 64 subscriber
//! sessions on one document, then asserts that staging, draining and
//! flushing the next document allocates nothing at all — bar the one
//! `String` the *engine* renders an aggregate's final value into at
//! END-DOC, before the reply path sees it.
//!
//! The drain below is `EventLoop::pump_staged` without the sockets: one
//! buffer lookup per run of deliveries to the same connection.
//!
//! One `#[test]`: the counter is global to the test binary.

#![cfg(unix)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use xsq_core::{PlanCache, XsqEngine};
use xsq_server::eventloop::broadcast::Hub;
use xsq_server::eventloop::conn::WriteBuf;
use xsq_server::proto::op;
use xsq_server::{SessionLimits, TransportStats};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter is a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The connections of the audit: all 64 subscriber sessions
/// multiplexed on one, the feeder on the other.
const SUBSCRIBERS: u64 = 1;
const FEEDER: u64 = 2;
const SESSIONS: u32 = 64;

/// A socket that takes everything and counts it.
struct Counted(usize);

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Rig {
    hub: Hub,
    subscribers: WriteBuf,
    feeder: WriteBuf,
    wire: Counted,
}

impl Rig {
    fn request(&mut self, token: u64, sid: Option<u32>, opcode: u8, payload: &[u8]) {
        let transport = TransportStats::default();
        self.hub
            .dispatch(token, sid, opcode, payload, &transport, "audit");
        let mut deliveries = self.hub.deliveries().peekable();
        while let Some(token) = deliveries.peek().map(|d| d.token) {
            let target = match token {
                SUBSCRIBERS => &mut self.subscribers,
                FEEDER => &mut self.feeder,
                other => panic!("delivery to unknown connection {other}"),
            };
            while let Some(d) = deliveries.next_if(|d| d.token == token) {
                target.push(d.op, d.sid, d.payload);
            }
        }
        drop(deliveries);
        self.hub.clear_staged();
        self.subscribers.flush_into(&mut self.wire).unwrap();
        self.feeder.flush_into(&mut self.wire).unwrap();
    }

    /// One document through the hub; returns the reply bytes it put on
    /// the wire and the allocations made while feeding it and while
    /// ending it.
    fn document(&mut self, doc: &[u8]) -> (usize, u64, u64) {
        let bytes = self.wire.0;
        let start = allocations();
        for chunk in doc.chunks(97) {
            self.request(FEEDER, None, op::FEED, chunk);
        }
        let fed = allocations();
        self.request(FEEDER, None, op::END_DOC, &[]);
        (self.wire.0 - bytes, fed - start, allocations() - fed)
    }
}

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_broadcast_reply_path_performs_zero_allocations() {
    let mut doc = String::from("<pub>");
    for i in 0..24 {
        doc.push_str(&format!(
            "<book id=\"{i}\"><name>n{i}</name><price>{i}.50</price></book>"
        ));
    }
    doc.push_str("<year>2002</year></pub>");
    // A buffered predicate, a plain path, an attribute and a running
    // aggregate: RESULT and UPDATE frames, decided early and late.
    let batch = "//pub[year]/book/name/text()\n//book/price/text()\n//book/@id\n//price/sum()";

    let mut rig = Rig {
        hub: Hub::new(
            XsqEngine::full(),
            SessionLimits::default(),
            PlanCache::new(None),
        ),
        subscribers: WriteBuf::default(),
        feeder: WriteBuf::default(),
        wire: Counted(0),
    };
    for sid in 1..=SESSIONS {
        rig.request(SUBSCRIBERS, Some(sid), op::SUB, batch.as_bytes());
    }
    rig.request(FEEDER, None, op::FEEDER, &[]);

    let (warm, ..) = rig.document(doc.as_bytes());
    let (steady, feeding, ending) = rig.document(doc.as_bytes());

    // 24 books × (3 RESULTs + 1 UPDATE), sum()'s final RESULT and
    // DOC_OK, to 64 sessions, and the feeder's own DOC_OK: the audited
    // document was really fanned.
    let frames = (24 * 4 + 2) * SESSIONS as usize + 1;
    assert!(
        steady > frames * 9,
        "{steady} reply bytes for {frames} frames"
    );
    assert_eq!(steady, warm, "the two documents fan the same replies");
    assert_eq!(
        feeding, 0,
        "fanning RESULT/UPDATE frames allocated {feeding} time(s) on a warmed-up document"
    );
    assert!(
        ending <= 1,
        "END-DOC allocated {ending} times: beyond the engine's rendering of sum()'s \
         final value, the reply path (its RESULT, 65 DOC_OKs) may not allocate"
    );
}
