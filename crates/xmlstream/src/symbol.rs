//! Interned tag symbols: the zero-copy event path's name representation.
//!
//! The vocabulary of element and attribute names in an XML stream is
//! tiny compared to the stream itself (Fig. 15: millions of elements,
//! dozens of distinct tags), so the per-event cost of owning a `String`
//! per name — one malloc on creation, one memcmp per arc match — is
//! pure waste. Following FluXQuery and the compressed-index XPath work,
//! names are interned once into a process-wide symbol table and flow
//! through the pipeline as dense [`Sym`] codes: arc matching, dispatch
//! indexing, and stack maintenance become `u32` compares and `Vec`
//! indexing.
//!
//! The table is append-only and global, so a `Sym` produced by the
//! parser and a `Sym` produced by the query compiler agree by
//! construction — no table handle needs threading through APIs. Interned
//! strings are leaked (names live as `&'static str`); the vocabulary is
//! bounded by the document schemas seen by the process, which is exactly
//! the working set any tag-indexed engine must hold anyway.
//!
//! Interning takes a lock; reading a name back does not. Every name is
//! also published into an append-only table of write-once slots before
//! its `Sym` is handed out, so [`Sym::as_str`] — which the transform
//! rewriter calls for every name it writes — is two acquire loads.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// FNV-1a: names are short (a handful of bytes), where FNV beats the
/// default SipHash by a wide margin and DoS resistance is irrelevant —
/// the key space is the document schema, not attacker-controlled bulk.
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FnvBuild = BuildHasherDefault<Fnv>;

/// A dense interned symbol for an element or attribute name.
///
/// Construction goes through [`Sym::intern`] (or `From<&str>`); equality,
/// ordering, and hashing are integer operations on the dense id. The
/// string is recovered with [`Sym::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// Name → id, the interning side. Ids are dense: the next one is the
/// map's length.
fn table() -> &'static RwLock<HashMap<&'static str, u32, FnvBuild>> {
    static TABLE: OnceLock<RwLock<HashMap<&'static str, u32, FnvBuild>>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// Id → name, the lock-free reading side: segment `k` holds the slots
/// of ids `2^k - 1 .. 2^(k+1) - 1`. A segment is allocated on first use
/// and never moves, and a slot is written once, under the interning
/// lock, before its `Sym` exists — so every `Sym` finds its slot set.
type Segment = Box<[OnceLock<&'static str>]>;
const SEGMENTS: usize = u32::BITS as usize + 1;
static NAMES: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The segment and offset of id `id`'s slot.
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let k = n.ilog2() as usize;
    (k, (n - (1 << k)) as usize)
}

impl Sym {
    /// Intern a name, returning its dense symbol. Idempotent: the same
    /// string always maps to the same `Sym`, process-wide. The hot path
    /// (name already interned) takes a shared read lock and performs one
    /// hash lookup — no allocation.
    pub fn intern(name: &str) -> Sym {
        let lock = table();
        if let Some(&id) = lock.read().expect("symbol table poisoned").get(name) {
            return Sym(id);
        }
        let mut map = lock.write().expect("symbol table poisoned");
        if let Some(&id) = map.get(name) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = map.len() as u32;
        let (k, i) = slot(id);
        let segment = NAMES[k].get_or_init(|| (0..1usize << k).map(|_| OnceLock::new()).collect());
        segment[i].set(leaked).expect("a fresh id's slot is empty");
        map.insert(leaked, id);
        Sym(id)
    }

    /// Look up a name without interning it. `None` means no event or
    /// query has ever mentioned the name — useful for dispatch, where an
    /// unknown name can match nothing.
    pub fn lookup(name: &str) -> Option<Sym> {
        table()
            .read()
            .expect("symbol table poisoned")
            .get(name)
            .copied()
            .map(Sym)
    }

    /// The interned string, read without a lock.
    pub fn as_str(self) -> &'static str {
        let (k, i) = slot(self.0);
        NAMES[k]
            .get()
            .and_then(|segment| segment[i].get().copied())
            .expect("a symbol's name is published before the symbol exists")
    }

    /// The dense index (0-based, contiguous): suitable for `Vec`
    /// indexing, e.g. the qindex dispatch buckets.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Number of symbols interned so far (the exclusive upper bound of
    /// every live [`Sym::index`]).
    pub fn table_len() -> usize {
        table().read().expect("symbol table poisoned").len()
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::intern("book");
        let b = Sym::intern("book");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "book");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let a = Sym::intern("sym-test-a");
        let b = Sym::intern("sym-test-b");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(Sym::lookup("sym-test-never-interned-xyzzy").is_none());
        let s = Sym::intern("sym-test-lookup");
        assert_eq!(Sym::lookup("sym-test-lookup"), Some(s));
    }

    #[test]
    fn string_comparisons_work_both_ways() {
        let s = Sym::intern("pub");
        assert_eq!(s, "pub");
        assert_eq!("pub", s);
        assert_eq!(s, "pub".to_string());
        assert!(s != "book");
    }

    #[test]
    fn conversions_and_display() {
        let s: Sym = "year".into();
        assert_eq!(s.to_string(), "year");
        assert_eq!(format!("{s:?}"), "\"year\"");
        let from_string: Sym = String::from("year").into();
        assert_eq!(s, from_string);
    }

    #[test]
    fn slots_tile_the_id_space_in_order() {
        let mut next = (0, 0);
        for id in 0..5000u32 {
            let (k, i) = slot(id);
            assert_eq!((k, i), next, "id {id}");
            next = if i + 1 == 1 << k {
                (k + 1, 0)
            } else {
                (k, i + 1)
            };
        }
        // The last id opens the last segment.
        assert_eq!(slot(u32::MAX), (SEGMENTS - 1, 0));
    }

    #[test]
    fn table_len_bounds_indices() {
        let s = Sym::intern("sym-test-table-len");
        assert!((s.index() as usize) < Sym::table_len());
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|k| Sym::intern(&format!("thread-sym-{}", (i + k) % 10)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread resolved the same names to the same symbols.
        for row in &all[1..] {
            for (a, b) in all[0].iter().zip(row) {
                assert_eq!(a.as_str().is_empty(), b.as_str().is_empty());
            }
        }
        for name in (0..10).map(|k| format!("thread-sym-{k}")) {
            assert!(Sym::lookup(&name).is_some());
        }
    }
}
