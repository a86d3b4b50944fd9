//! A per-runner bump arena for match-path byte storage.
//!
//! The no-match hot path has been allocation-free since the zero-copy
//! refactor; the *match* path still paid the allocator for every result
//! value (`String` per item). Following the buffer-minimization
//! discipline of Koch et al.'s FluX — memory traffic, not automaton
//! transitions, is the dominant cost on streams — the item store now
//! copies value bytes into one contiguous bump arena owned by the
//! runner. Allocation is a pointer bump; freeing is wholesale: the arena
//! resets when the store is provably quiescent (see
//! [`crate::items::ItemStore::recyclable`]) and unconditionally between
//! documents, so a matching steady state touches the allocator exactly
//! zero times once the arena has grown to the working-set high-water
//! mark.
//!
//! Values are addressed as `(offset, len)` spans. A span that ends at
//! the current top of the arena can be extended in place
//! ([`ByteArena::try_extend`]) — the common case for element items
//! serialized by consecutive events — so single-item serialization stays
//! one contiguous span with no per-event segment churn.

/// A span handle into the arena: byte offset plus length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub off: u32,
    pub len: u32,
}

impl Span {
    pub const EMPTY: Span = Span { off: 0, len: 0 };
}

/// Bump allocator over one growable byte buffer. `reset` keeps the
/// capacity, which is what makes the steady state allocation-free.
#[derive(Debug, Default)]
pub struct ByteArena {
    buf: Vec<u8>,
    /// High-water mark across resets (diagnostics).
    peak: usize,
}

impl ByteArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `bytes` in, returning the span that now holds them.
    pub fn alloc(&mut self, bytes: &[u8]) -> Span {
        let off = self.buf.len() as u32;
        self.buf.extend_from_slice(bytes);
        self.peak = self.peak.max(self.buf.len());
        Span {
            off,
            len: bytes.len() as u32,
        }
    }

    /// Extend `span` in place with `bytes` if it ends at the top of the
    /// arena; returns `false` (arena untouched) when it does not, in
    /// which case the caller starts a fresh span.
    pub fn try_extend(&mut self, span: &mut Span, bytes: &[u8]) -> bool {
        if (span.off + span.len) as usize != self.buf.len() {
            return false;
        }
        self.buf.extend_from_slice(bytes);
        self.peak = self.peak.max(self.buf.len());
        span.len += bytes.len() as u32;
        true
    }

    /// The bytes of a span.
    pub fn get(&self, span: Span) -> &[u8] {
        &self.buf[span.off as usize..(span.off + span.len) as usize]
    }

    /// The bytes of a span as UTF-8 (spans are only ever built from
    /// whole `&str`s, so boundaries are always valid).
    pub fn get_str(&self, span: Span) -> &str {
        std::str::from_utf8(self.get(span)).expect("arena spans are whole strings")
    }

    /// Bytes currently bump-allocated.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// High-water mark of [`Self::len`] across resets.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Drop every span, keeping the allocation.
    pub fn reset(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let mut a = ByteArena::new();
        let x = a.alloc(b"hello");
        let y = a.alloc(b" world");
        assert_eq!(a.get_str(x), "hello");
        assert_eq!(a.get_str(y), " world");
        assert_eq!(a.len(), 11);
    }

    #[test]
    fn extend_only_at_top() {
        let mut a = ByteArena::new();
        let mut x = a.alloc(b"ab");
        assert!(a.try_extend(&mut x, b"cd"));
        assert_eq!(a.get_str(x), "abcd");
        let _y = a.alloc(b"zz");
        // x no longer ends at the top: extension must refuse.
        assert!(!a.try_extend(&mut x, b"ef"));
        assert_eq!(a.get_str(x), "abcd");
    }

    #[test]
    fn reset_keeps_capacity_and_peak() {
        let mut a = ByteArena::new();
        a.alloc(&[0u8; 1000]);
        let cap_before = a.buf.capacity();
        a.reset();
        assert_eq!(a.len(), 0);
        assert_eq!(a.peak(), 1000);
        assert!(a.buf.capacity() >= cap_before);
        // Re-filling to the same size must not grow the buffer.
        a.alloc(&[1u8; 1000]);
        assert_eq!(a.buf.capacity(), cap_before);
    }

    #[test]
    fn empty_span_roundtrip() {
        let mut a = ByteArena::new();
        let e = a.alloc(b"");
        assert_eq!(a.get_str(e), "");
        assert_eq!(a.get_str(Span::EMPTY), "");
    }
}
