//! Non-blocking framing buffers for the event loop.
//!
//! The event loop owns a pair of buffers per connection and lets
//! readiness drive them:
//!
//! * [`FrameBuf`] accumulates whatever bytes the socket yields and
//!   decodes complete frames incrementally. A frame split across any
//!   number of reads — down to one byte at a time — decodes exactly
//!   like one read. Oversized frames are rejected on the four declared
//!   length bytes alone, before any body is buffered.
//! * [`WriteBuf`] is one contiguous byte buffer per connection. Every
//!   reply frame is encoded into it once, in place, and the socket is
//!   written straight from it — no per-frame allocation, no gather
//!   list. A broadcast result is therefore *copied* once per receiving
//!   connection (the bytes differ per session id anyway) but never
//!   re-allocated or re-wrapped. Queue bounds stay frame-denominated:
//!   the buffer's own length prefixes say where frames end, so the
//!   depth is kept by walking the prefixes of the bytes the socket has
//!   fully accepted.

use std::io::{self, ErrorKind, Write};

use super::READ_CHUNK;
use crate::proto::{encode_frame, Frame};

/// Framing-layer failures that carry no recoverable stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length exceeds the cap; the body was never read.
    TooLarge(u64),
    /// Zero-length frame (every frame carries at least its opcode).
    Zero,
}

/// Incremental frame decoder over an append-only byte buffer.
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameBuf {
    pub fn new(max_frame: usize) -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Append bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a partial frame, if any).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". Errors are terminal: the
    /// byte stream is either hostile (oversized, zero-length) and must
    /// not be resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 {
            return Err(FrameError::Zero);
        }
        if len > self.max_frame {
            return Err(FrameError::TooLarge(len as u64));
        }
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let op = avail[4];
        let payload = avail[5..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(Frame { op, payload }))
    }

    /// Reclaim consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if reclaim_prefix(&mut self.buf, self.start) {
            self.start = 0;
        }
    }
}

/// Drop the consumed prefix `buf[..consumed]` once it is the whole
/// buffer or dominates it; returns whether offsets into `buf` moved.
fn reclaim_prefix(buf: &mut Vec<u8>, consumed: usize) -> bool {
    if consumed == buf.len() {
        buf.clear();
        true
    } else if consumed > 4096 && consumed * 2 > buf.len() {
        buf.drain(..consumed);
        true
    } else {
        false
    }
}

/// Outgoing reply frames: encoded once, back to back, into the buffer
/// the socket is written from.
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` the socket has accepted.
    sent: usize,
    /// Start of the first frame not yet *fully* accepted: a frame
    /// boundary, `head <= sent`.
    head: usize,
    /// Frames from `head` on — the queue depth every bound is in.
    frames: usize,
    depth_hwm: u64,
    bytes_hwm: u64,
}

impl WriteBuf {
    /// Encode one reply frame (`sid`: the wire-v2 session prefix) at
    /// the tail of the buffer.
    pub fn push(&mut self, op: u8, sid: Option<u32>, payload: &[u8]) {
        encode_frame(&mut self.buf, op, sid, payload);
        self.frames += 1;
        self.depth_hwm = self.depth_hwm.max(self.frames as u64);
        self.bytes_hwm = self.bytes_hwm.max((self.buf.len() - self.sent) as u64);
    }

    /// Queued frames not yet fully written.
    pub fn len(&self) -> usize {
        self.frames
    }

    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Highest queue depth ever observed (frames).
    pub fn depth_hwm(&self) -> u64 {
        self.depth_hwm
    }

    /// Most bytes ever waiting for the socket at once.
    pub fn queued_bytes_hwm(&self) -> u64 {
        self.bytes_hwm
    }

    /// Write as much as the socket accepts. `Ok(true)` means the queue
    /// drained; `Ok(false)` means the socket is full (keep write
    /// interest registered). A short write is taken as "full": one
    /// `write` per readiness, and level-triggered polling reports the
    /// socket again if it was not.
    pub fn flush_into(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.sent < self.buf.len() {
            match w.write(&self.buf[self.sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.sent += n;
                    self.retire_accepted();
                    if self.sent < self.buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.compact();
        Ok(self.frames == 0)
    }

    /// Advance `head` over every frame the socket now holds whole. The
    /// buffer describes its own boundaries: each frame starts with the
    /// length of the rest of it.
    fn retire_accepted(&mut self) {
        while self.head < self.sent {
            let prefix = self.buf[self.head..self.head + 4]
                .try_into()
                .expect("a queued frame starts with four length bytes");
            let end = self.head + 4 + u32::from_le_bytes(prefix) as usize;
            if end > self.sent {
                break;
            }
            self.head = end;
            self.frames -= 1;
        }
    }

    /// Reclaim retired frames by [`FrameBuf`]'s rule and, once fully
    /// drained, give back what a burst grew: an idle connection keeps
    /// at most one read's worth of reply capacity.
    fn compact(&mut self) {
        if reclaim_prefix(&mut self.buf, self.head) {
            self.sent -= self.head;
            self.head = 0;
        }
        if self.buf.is_empty() {
            self.buf.shrink_to(READ_CHUNK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{frame_bytes, op};

    #[test]
    fn frames_decode_across_arbitrary_splits() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame_bytes(op::SUB, b"/a/text()"));
        wire.extend_from_slice(&frame_bytes(op::END_DOC, b""));
        wire.extend_from_slice(&frame_bytes(op::FEED, b"<a>hi</a>"));
        for chunk in [1usize, 2, 3, wire.len()] {
            let mut fb = FrameBuf::new(1024);
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.extend(piece);
                while let Some(f) = fb.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(frames.len(), 3, "chunk size {chunk}");
            assert_eq!(frames[0].op, op::SUB);
            assert_eq!(frames[0].payload, b"/a/text()");
            assert_eq!(frames[1].op, op::END_DOC);
            assert!(frames[1].payload.is_empty());
            assert_eq!(frames[2].payload, b"<a>hi</a>");
            assert_eq!(fb.buffered(), 0);
        }
    }

    #[test]
    fn oversized_frame_rejected_on_header_alone() {
        let mut fb = FrameBuf::new(16);
        // Declare 64 MiB but send only the length prefix.
        fb.extend(&(64u32 * 1024 * 1024).to_le_bytes());
        assert_eq!(fb.next_frame(), Err(FrameError::TooLarge(64 * 1024 * 1024)));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut fb = FrameBuf::new(16);
        fb.extend(&0u32.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(FrameError::Zero));
    }

    /// An `io::Write` that accepts up to `per_call` bytes a call for
    /// `calls_left` calls, then reports `WouldBlock` — a socket with a
    /// tiny send buffer.
    struct Throttle {
        accepted: Vec<u8>,
        per_call: usize,
        calls_left: usize,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_left == 0 {
                return Err(io::Error::new(ErrorKind::WouldBlock, "full"));
            }
            self.calls_left -= 1;
            let n = buf.len().min(self.per_call);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_across_partial_writes() {
        let mut wb = WriteBuf::default();
        wb.push(op::RESULT, None, b"0123456789");
        wb.push(op::DOC_OK, Some(9), &0u32.to_le_bytes());
        assert_eq!(wb.depth_hwm(), 2);
        let mut expect = frame_bytes(op::RESULT, b"0123456789");
        expect.extend_from_slice(&frame_bytes(op::DOC_OK, &[9, 0, 0, 0, 0, 0, 0, 0]));
        assert_eq!(wb.queued_bytes_hwm(), expect.len() as u64);

        // Three bytes: inside the first frame's length prefix.
        let mut sink = Throttle {
            accepted: Vec::new(),
            per_call: 3,
            calls_left: 1,
        };
        assert!(!wb.flush_into(&mut sink).unwrap());
        assert_eq!(wb.len(), 2);

        sink.per_call = usize::MAX;
        sink.calls_left = usize::MAX;
        assert!(wb.flush_into(&mut sink).unwrap());
        assert!(wb.is_empty());
        assert_eq!(sink.accepted, expect);
    }

    /// xorshift64: the seeded generator of the property test below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Random frame sizes against a writer that accepts random byte
    /// counts (down to one byte, so splits land inside length prefixes):
    /// the bytes out are the frames in, the depth is exactly the frames
    /// not yet fully accepted after every call, the high-water marks
    /// only rise, and compaction loses nothing.
    #[test]
    fn write_buf_accounts_whole_frames_under_any_split() {
        for seed in 1..=64u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut wb = WriteBuf::default();
            let mut sink = Throttle {
                accepted: Vec::new(),
                per_call: 0,
                calls_left: 0,
            };
            let mut expect: Vec<u8> = Vec::new();
            let mut frame_ends: Vec<usize> = Vec::new();
            let (mut depth_hwm, mut bytes_hwm) = (0, 0);
            let check = |wb: &WriteBuf, sink: &Throttle, frame_ends: &[usize]| {
                let unsent = frame_ends
                    .iter()
                    .filter(|&&end| end > sink.accepted.len())
                    .count();
                assert_eq!(wb.len(), unsent, "seed {seed}");
                assert_eq!(wb.is_empty(), unsent == 0, "seed {seed}");
            };
            for _ in 0..400 {
                if rng.below(3) == 0 {
                    // A burst, now and then of frames big enough that a
                    // partial flush leaves a prefix worth compacting.
                    for _ in 0..1 + rng.below(40) {
                        let size = match rng.below(8) {
                            0 => 0,
                            1 => 2000 + rng.below(6000),
                            _ => rng.below(64),
                        };
                        let payload: Vec<u8> = (0..size).map(|_| rng.below(256) as u8).collect();
                        let sid = (rng.below(2) == 0).then(|| rng.below(1 << 20) as u32);
                        wb.push(op::RESULT, sid, &payload);
                        encode_frame(&mut expect, op::RESULT, sid, &payload);
                        frame_ends.push(expect.len());
                        check(&wb, &sink, &frame_ends);
                    }
                } else {
                    sink.per_call = match rng.below(3) {
                        0 => 1 + rng.below(4),
                        1 => 1 + rng.below(100),
                        _ => 1 + rng.below(20_000),
                    };
                    sink.calls_left = rng.below(4);
                    let drained = wb.flush_into(&mut sink).unwrap();
                    assert_eq!(drained, sink.accepted.len() == expect.len(), "seed {seed}");
                    check(&wb, &sink, &frame_ends);
                }
                assert_eq!(sink.accepted, expect[..sink.accepted.len()], "seed {seed}");
                assert!(wb.depth_hwm() >= depth_hwm.max(wb.len() as u64));
                assert!(wb.queued_bytes_hwm() >= bytes_hwm);
                assert!(wb.queued_bytes_hwm() >= (expect.len() - sink.accepted.len()) as u64);
                (depth_hwm, bytes_hwm) = (wb.depth_hwm(), wb.queued_bytes_hwm());
            }
            sink.per_call = usize::MAX;
            sink.calls_left = usize::MAX;
            assert!(wb.flush_into(&mut sink).unwrap());
            assert_eq!(sink.accepted, expect, "seed {seed}");
            assert!(wb.is_empty());
        }
    }

    #[test]
    fn drained_write_buf_releases_a_burst() {
        let mut wb = WriteBuf::default();
        let payload = vec![b'x'; 1024];
        for _ in 0..16 * READ_CHUNK / payload.len() {
            wb.push(op::RESULT, Some(1), &payload);
        }
        assert!(wb.buf.capacity() >= 16 * READ_CHUNK);
        assert!(wb.flush_into(&mut io::sink()).unwrap());
        assert!(wb.buf.capacity() <= READ_CHUNK);
        assert!(wb.queued_bytes_hwm() >= 16 * READ_CHUNK as u64);
    }
}
