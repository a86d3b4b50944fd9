//! The benchmark's own minimal wire client.
//!
//! One non-blocking socket whose owner interleaves [`Conn::try_write`]
//! and [`Conn::fill`], so a 2 MiB document cannot deadlock against the
//! server's backpressure: replies are drained while the request is
//! still being written. Frames are built with `proto::frame_bytes`;
//! control replies (HELLO_OK, SUB_OK, STAT_OK, OK) are decoded with
//! `proto::read_frame`, while the data path ([`Conn::next_frame`])
//! hands out RESULT/UPDATE/DOC_OK payloads in place — a load generator
//! that allocates per reply frame would be measuring itself.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xsq_server::proto::{frame_bytes, op, read_frame, Frame, MAX_FRAME, WIRE_V2};

/// How long any single wait for the server may last before the run is
/// declared broken (a missing DOC_OK must fail, not hang).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One reply frame, borrowed from the connection's read buffer.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// Logical session id (wire v2 data frames), `None` on v1.
    pub sid: Option<u32>,
    pub op: u8,
    pub payload: &'a [u8],
}

/// Socket-level counters, for the `client.*` and `server.proto.*`
/// per-layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireCounters {
    pub read_calls: u64,
    pub write_calls: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub frames_in: u64,
}

pub struct Conn {
    stream: TcpStream,
    v2: bool,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    pub counters: WireCounters,
}

fn timed_out(what: &str) -> io::Error {
    io::Error::new(ErrorKind::TimedOut, format!("no {what} within 30 s"))
}

impl Conn {
    /// Connect; with `v2`, negotiate wire v2 (HELLO → HELLO_OK) so the
    /// connection can carry many logical sessions.
    pub fn connect(addr: SocketAddr, v2: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut conn = Conn {
            stream,
            v2: false,
            buf: vec![0u8; 256 * 1024],
            start: 0,
            end: 0,
            counters: WireCounters::default(),
        };
        if v2 {
            let reply = conn.request(None, op::HELLO, &WIRE_V2.to_le_bytes())?;
            if reply.op != op::HELLO_OK || reply.payload != WIRE_V2.to_le_bytes() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "server did not negotiate wire v2",
                ));
            }
            conn.v2 = true;
        }
        Ok(conn)
    }

    /// Append one request frame to `out` in this connection's framing.
    pub fn encode(&self, sid: Option<u32>, opcode: u8, payload: &[u8], out: &mut Vec<u8>) {
        match sid {
            Some(sid) if self.v2 => {
                let mut p = Vec::with_capacity(4 + payload.len());
                p.extend_from_slice(&sid.to_le_bytes());
                p.extend_from_slice(payload);
                out.extend_from_slice(&frame_bytes(opcode, &p));
            }
            _ => out.extend_from_slice(&frame_bytes(opcode, payload)),
        }
    }

    /// Write as much of `bytes` as the socket takes now (0 if full).
    pub fn try_write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        if bytes.is_empty() {
            return Ok(0);
        }
        self.counters.write_calls += 1;
        match self.stream.write(bytes) {
            Ok(n) => {
                self.counters.bytes_out += n as u64;
                Ok(n)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Read whatever has arrived (0 if nothing). EOF is an error: the
    /// benchmark never expects the server to hang up first.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let grown = self.buf.len() * 2;
                self.buf.resize(grown, 0);
            }
        }
        self.counters.read_calls += 1;
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.end += n;
                self.counters.bytes_in += n as u64;
                Ok(n)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Length of the complete frame at the head of the buffer, if one
    /// has fully arrived.
    fn buffered_frame(&self) -> io::Result<Option<usize>> {
        let avail = &self.buf[self.start..self.end];
        let Some(header) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("server sent a frame of {len} bytes"),
            ));
        }
        Ok((avail.len() >= 4 + len).then_some(4 + len))
    }

    /// The next complete reply frame, in place.
    pub fn next_frame(&mut self) -> io::Result<Option<FrameRef<'_>>> {
        let Some(total) = self.buffered_frame()? else {
            return Ok(None);
        };
        let at = self.start;
        self.start += total;
        self.counters.frames_in += 1;
        let opcode = self.buf[at + 4];
        let body = &self.buf[at + 5..at + total];
        // Every v2 reply but the negotiation's own carries a session id.
        if self.v2 && opcode != op::HELLO_OK {
            let Some((sid, payload)) = body.split_first_chunk::<4>() else {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "wire v2 reply without a session id",
                ));
            };
            return Ok(Some(FrameRef {
                sid: Some(u32::from_le_bytes(*sid)),
                op: opcode,
                payload,
            }));
        }
        Ok(Some(FrameRef {
            sid: None,
            op: opcode,
            payload: body,
        }))
    }

    /// Write all of `bytes`, draining nothing: for small control
    /// requests only.
    pub fn write_all(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while !bytes.is_empty() {
            let n = self.try_write(bytes)?;
            bytes = &bytes[n..];
            if n == 0 {
                if Instant::now() > deadline {
                    return Err(timed_out("room in the socket"));
                }
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Wait for the next complete frame and decode it (owned) with
    /// `proto::read_frame`. On v2 the session id stays in the payload.
    pub fn read_reply(&mut self) -> io::Result<Frame> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(total) = self.buffered_frame()? {
                let mut bytes = &self.buf[self.start..self.start + total];
                self.start += total;
                self.counters.frames_in += 1;
                return read_frame(&mut bytes, MAX_FRAME)?
                    .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "empty reply frame"));
            }
            if self.fill()? == 0 {
                if Instant::now() > deadline {
                    return Err(timed_out("reply"));
                }
                std::thread::yield_now();
            }
        }
    }

    /// One control round trip: send a request, wait for its reply.
    /// The reply's session id (v2) is stripped.
    pub fn request(&mut self, sid: Option<u32>, opcode: u8, payload: &[u8]) -> io::Result<Frame> {
        let mut bytes = Vec::new();
        self.encode(sid, opcode, payload, &mut bytes);
        self.write_all(&bytes)?;
        let mut reply = self.read_reply()?;
        if self.v2 {
            reply.payload.drain(..4.min(reply.payload.len()));
        }
        Ok(reply)
    }

    /// `request`, insisting on one reply opcode; an ERR frame's JSON
    /// becomes the error text.
    pub fn expect(
        &mut self,
        sid: Option<u32>,
        opcode: u8,
        payload: &[u8],
        want: u8,
    ) -> io::Result<Frame> {
        let reply = self.request(sid, opcode, payload)?;
        if reply.op == want {
            return Ok(reply);
        }
        Err(io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "expected opcode 0x{want:02x}, got 0x{:02x}: {}",
                reply.op,
                String::from_utf8_lossy(&reply.payload)
            ),
        ))
    }
}
