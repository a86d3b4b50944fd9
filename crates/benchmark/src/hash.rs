//! The FNV-1a result hash every rung folds its results into.
//!
//! One folding rule serves all paths, so "pull ≡ push ≡ session ≡
//! loopback ≡ every broadcast session" is a comparison of `u64`s: a
//! result is folded exactly as its RESULT/UPDATE frame would be — the
//! opcode, the payload length, then the payload (`u32` LE query id +
//! value bytes) — whether it reached the benchmark through a sink
//! callback, an [`Outbox`], or a socket.

use xsq_core::{QueryId, QuerySink, Sink};
use xsq_server::proto::op;
use xsq_server::Outbox;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one encoded frame body.
#[inline]
pub fn fold_frame(h: u64, opcode: u8, payload: &[u8]) -> u64 {
    let h = fnv(h, &[opcode]);
    let h = fnv(h, &(payload.len() as u32).to_le_bytes());
    fnv(h, payload)
}

/// Hashes results as they are determined; stores nothing. Serves the
/// single-query engines (as query id 0), the index, and — as an
/// [`Outbox`] — an in-process session.
#[derive(Debug, Clone)]
pub struct HashSink {
    pub h: u64,
    pub results: u64,
    /// Hash of each finished document, pushed at DOC_OK (outbox use)
    /// or by [`HashSink::end_doc`].
    pub docs: Vec<u64>,
    /// ERR frames seen through [`Outbox::send`].
    pub errors: u64,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink {
            h: FNV_OFFSET,
            results: 0,
            docs: Vec::new(),
            errors: 0,
        }
    }
}

impl HashSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Close the current document: record its hash, start the next.
    pub fn end_doc(&mut self) {
        self.docs.push(self.h);
        self.h = FNV_OFFSET;
    }

    fn fold_result(&mut self, id: u32, value: &str) {
        self.results += 1;
        let h = fnv(self.h, &[op::RESULT]);
        let h = fnv(h, &(4 + value.len() as u32).to_le_bytes());
        let h = fnv(h, &id.to_le_bytes());
        self.h = fnv(h, value.as_bytes());
    }

    fn fold_update(&mut self, id: u32, value: f64) {
        let h = fnv(self.h, &[op::UPDATE]);
        let h = fnv(h, &12u32.to_le_bytes());
        let h = fnv(h, &id.to_le_bytes());
        self.h = fnv(h, &value.to_le_bytes());
    }
}

impl Sink for HashSink {
    fn result(&mut self, value: &str) {
        self.fold_result(0, value);
    }
    fn aggregate_update(&mut self, value: f64) {
        self.fold_update(0, value);
    }
}

impl QuerySink for HashSink {
    fn result(&mut self, id: QueryId, value: &str) {
        self.fold_result(id.0, value);
    }
    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.fold_update(id.0, value);
    }
}

impl Outbox for HashSink {
    fn send(&mut self, opcode: u8, payload: &[u8]) {
        match opcode {
            op::RESULT => {
                self.results += 1;
                self.h = fold_frame(self.h, opcode, payload);
            }
            op::UPDATE => self.h = fold_frame(self.h, opcode, payload),
            op::DOC_OK => self.end_doc(),
            op::ERR => self.errors += 1,
            _ => {}
        }
    }
}

/// A sink that discards everything: the ladder's "null sink".
pub struct NullSink;

impl QuerySink for NullSink {
    fn result(&mut self, _: QueryId, _: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_and_frame_folds_agree() {
        let mut a = HashSink::new();
        QuerySink::result(&mut a, QueryId(3), "v");
        QuerySink::aggregate_update(&mut a, QueryId(1), 2.5);
        let mut b = HashSink::new();
        b.send(op::RESULT, &[3, 0, 0, 0, b'v']);
        let mut p = vec![1, 0, 0, 0];
        p.extend_from_slice(&2.5f64.to_le_bytes());
        b.send(op::UPDATE, &p);
        assert_eq!(a.h, b.h);
        assert_ne!(a.h, FNV_OFFSET);
        b.send(op::DOC_OK, &[0; 4]);
        assert_eq!(b.docs, [a.h]);
    }
}
