//! Seeded differential fuzz of the wire framing.
//!
//! Two decoders read the same `len | op | payload` framing: the event
//! loop's incremental [`FrameBuf::next_frame`], fed whatever a socket
//! read yields, and the blocking [`read_frame`] the clients use. Each
//! case encodes 0–8 frames (with and without a wire-v2 session prefix,
//! payloads of 0–300 bytes), applies at most one mutation — truncation,
//! a length prefix rewritten to zero / past the cap / to a lie in
//! either direction, or trailing junk — and requires both decoders to
//! yield the same frames in order and to end the same way:
//!
//! | `FrameBuf`                  | `read_frame`                      |
//! |-----------------------------|-----------------------------------|
//! | `Err(Zero)`                 | `InvalidData`, zero-length        |
//! | `Err(TooLarge(n))`          | `InvalidData`, oversize, same `n` |
//! | `buffered() > 0` at the end | `UnexpectedEof`                   |
//! | `buffered() == 0` at the end| `Ok(None)`                        |
//!
//! `FrameBuf` gets the stream in random 1–37-byte chunks and must raise
//! a bad length on the chunk that completes its four header bytes, not
//! later. A failing case prints `failing seed N`.

#![cfg(unix)]

use std::io::{Cursor, ErrorKind};

use xsq_datagen::rng::{cases, StdRng};
use xsq_server::eventloop::conn::{FrameBuf, FrameError};
use xsq_server::proto::{encode_frame, read_frame, Frame};

/// The decoders' frame cap: small, so a rewritten length can exceed it
/// without the test allocating it, and above every encoded frame (at
/// most 1 + 4 + 300 bytes), so only a mutation trips it.
const MAX: usize = 512;

/// How a decoder's pass over the stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// The stream ended on a frame boundary.
    Clean,
    /// The stream ended inside a frame.
    Torn,
    Zero,
    TooLarge(u64),
}

/// Encode 0–8 random frames; returns the stream, the frames, and where
/// each frame's length prefix starts.
fn encode(rng: &mut StdRng) -> (Vec<u8>, Vec<Frame>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut frames = Vec::new();
    let mut starts = Vec::new();
    for _ in 0..rng.gen_range(0..=8usize) {
        let op = rng.gen_range(0..=255u8);
        let sid = rng.gen_bool(0.5).then(|| rng.gen_range(0..=u32::MAX));
        let body: Vec<u8> = (0..rng.gen_range(0..=300usize))
            .map(|_| rng.gen_range(0..=255u8))
            .collect();
        starts.push(stream.len());
        encode_frame(&mut stream, op, sid, &body);
        let mut payload = sid.map_or(Vec::new(), |s| s.to_le_bytes().to_vec());
        payload.extend_from_slice(&body);
        frames.push(Frame { op, payload });
    }
    (stream, frames, starts)
}

/// Apply at most one mutation. Returns `true` when the stream is
/// untouched, i.e. both decoders must return exactly `frames`.
fn mutate(rng: &mut StdRng, stream: &mut Vec<u8>, starts: &[usize]) -> bool {
    let len = match rng.gen_range(0..6u32) {
        0 => return true,
        1 if !stream.is_empty() => {
            stream.truncate(rng.gen_range(0..stream.len()));
            return false;
        }
        2 if !starts.is_empty() => 0,
        3 if !starts.is_empty() => rng.gen_range(MAX as u32 + 1..u32::MAX),
        // A lie in either direction, still inside the cap: the decoders
        // read on from the wrong byte together.
        4 if !starts.is_empty() => rng.gen_range(1..=MAX as u32),
        _ => {
            let junk = rng.gen_range(1..=40usize);
            stream.extend((0..junk).map(|_| rng.gen_range(0..=255u8)));
            return false;
        }
    };
    let at = starts[rng.gen_range(0..starts.len())];
    stream[at..at + 4].copy_from_slice(&len.to_le_bytes());
    false
}

/// The event loop's decoder, fed in random 1–37-byte chunks. A bad
/// length must surface on the chunk that completes its header.
fn incremental(rng: &mut StdRng, stream: &[u8]) -> (Vec<Frame>, End) {
    let mut buf = FrameBuf::new(MAX);
    let mut frames = Vec::new();
    let mut fed = 0;
    while fed < stream.len() {
        let before = fed;
        fed = (fed + rng.gen_range(1..=37usize)).min(stream.len());
        buf.extend(&stream[before..fed]);
        loop {
            let err = match buf.next_frame() {
                Ok(Some(frame)) => {
                    frames.push(frame);
                    continue;
                }
                Ok(None) => break,
                Err(err) => err,
            };
            let header_end = frames.iter().map(|f| 5 + f.payload.len()).sum::<usize>() + 4;
            assert!(
                before < header_end && header_end <= fed,
                "{err:?} raised on the chunk {before}..{fed}, header ends at {header_end}"
            );
            let end = match err {
                FrameError::Zero => End::Zero,
                FrameError::TooLarge(n) => End::TooLarge(n),
            };
            return (frames, end);
        }
    }
    let end = if buf.buffered() > 0 {
        End::Torn
    } else {
        End::Clean
    };
    (frames, end)
}

/// The blocking decoder over the whole stream.
fn blocking(stream: &[u8]) -> (Vec<Frame>, End) {
    let mut cursor = Cursor::new(stream);
    let mut frames = Vec::new();
    loop {
        let err = match read_frame(&mut cursor, MAX) {
            Ok(Some(frame)) => {
                frames.push(frame);
                continue;
            }
            Ok(None) => return (frames, End::Clean),
            Err(err) => err,
        };
        let msg = err.to_string();
        let end = match err.kind() {
            ErrorKind::UnexpectedEof => End::Torn,
            ErrorKind::InvalidData if msg.starts_with("zero-length") => End::Zero,
            ErrorKind::InvalidData => {
                let n = msg
                    .strip_prefix("frame of ")
                    .and_then(|rest| rest.split(' ').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("unrecognised InvalidData: {msg}"));
                End::TooLarge(n)
            }
            kind => panic!("unexpected {kind:?}: {msg}"),
        };
        return (frames, end);
    }
}

#[test]
fn incremental_and_blocking_decoders_agree_on_mutated_streams() {
    let mut seen = [0usize; 4];
    cases(0..5_000, |rng| {
        let (mut stream, sent, starts) = encode(rng);
        let untouched = mutate(rng, &mut stream, &starts);
        let (inc_frames, inc_end) = incremental(rng, &stream);
        let (blk_frames, blk_end) = blocking(&stream);
        assert_eq!(inc_frames, blk_frames, "decoded frames differ");
        assert_eq!(inc_end, blk_end, "decoders ended differently");
        if untouched {
            assert_eq!((inc_frames, inc_end), (sent, End::Clean));
        }
        seen[match inc_end {
            End::Clean => 0,
            End::Torn => 1,
            End::Zero => 2,
            End::TooLarge(_) => 3,
        }] += 1;
    });
    // Every ending is reached often enough to have been compared.
    assert!(seen.iter().all(|&n| n >= 100), "endings seen: {seen:?}");
}
