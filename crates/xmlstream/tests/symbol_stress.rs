//! Multi-thread stress test for the global tag symbol table.
//!
//! The interner backs the zero-copy event path: every tokenizer thread
//! interns tag names into one global table, and the multi-query dispatch
//! index relies on `Sym` identity being stable — the same name must map
//! to the same symbol from every thread, forever. N threads intern
//! overlapping tag sets concurrently and every assignment is checked for
//! stability and round-tripping.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;

use xsq_xml::Sym;

#[test]
fn concurrent_interning_is_stable_across_threads() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;

    // Overlapping tag sets: every thread shares the `common*` tags and
    // owns a private `t{i}-*` family, so the table sees both racing
    // inserts of the same name and disjoint inserts.
    let names: Vec<Vec<String>> = (0..THREADS)
        .map(|t| {
            let mut v: Vec<String> = (0..32).map(|i| format!("common{i}")).collect();
            v.extend((0..16).map(|i| format!("t{t}-tag{i}")));
            v
        })
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = names
        .into_iter()
        .map(|mine| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut seen: HashMap<String, Sym> = HashMap::new();
                for _ in 0..ROUNDS {
                    for name in &mine {
                        let sym = Sym::intern(name);
                        // Same name -> same symbol, on every re-intern.
                        let prev = seen.entry(name.clone()).or_insert(sym);
                        assert_eq!(*prev, sym, "unstable symbol for {name}");
                        // The symbol round-trips to its exact name.
                        assert_eq!(sym.as_str(), name.as_str());
                        // And lookup agrees with intern.
                        assert_eq!(Sym::lookup(name), Some(sym));
                    }
                }
                seen
            })
        })
        .collect();

    let per_thread: Vec<HashMap<String, Sym>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Cross-thread agreement on the shared tags.
    for maps in per_thread.windows(2) {
        for (name, sym) in &maps[0] {
            if let Some(other) = maps[1].get(name) {
                assert_eq!(sym, other, "threads disagree on {name}");
            }
        }
    }

    // Distinct names got distinct symbols.
    let mut by_sym: HashMap<Sym, &str> = HashMap::new();
    for map in &per_thread {
        for (name, sym) in map {
            let prior = by_sym.insert(*sym, name);
            assert!(
                prior.is_none() || prior == Some(name.as_str()),
                "symbol collision: {sym:?} maps to both {prior:?} and {name}"
            );
        }
    }
}

/// `Sym::as_str` reads without the interning lock: readers resolving
/// names interned before they started must see exactly those names
/// while writers keep appending new ones, across new table segments.
#[test]
fn lock_free_reads_race_appending_interns() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    // Enough new names to open several segments past the existing ones.
    const NEW: usize = if cfg!(miri) { 40 } else { 2_000 };
    const READS: usize = if cfg!(miri) { 200 } else { 50_000 };

    let existing: Vec<(Sym, String)> = (0..64)
        .map(|i| format!("race-existing-{i}"))
        .map(|name| (Sym::intern(&name), name))
        .collect();
    let existing = Arc::new(existing);
    let barrier = Arc::new(Barrier::new(WRITERS + READERS));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                (0..NEW)
                    .map(|i| {
                        let name = format!("race-new-{w}-{i}");
                        let sym = Sym::intern(&name);
                        assert_eq!(sym.as_str(), name, "a fresh name reads back");
                        (sym, name)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (barrier, existing) = (Arc::clone(&barrier), Arc::clone(&existing));
            thread::spawn(move || {
                barrier.wait();
                for k in 0..READS {
                    let (sym, name) = &existing[(k * 7 + r) % existing.len()];
                    assert_eq!(sym.as_str(), name);
                }
            })
        })
        .collect();

    for h in readers {
        h.join().unwrap();
    }
    let fresh: Vec<(Sym, String)> = writers
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    // Handed across threads by `join`, every new symbol still reads
    // back its own name, and the table grew past every one of them.
    for (sym, name) in fresh.iter().chain(existing.iter()) {
        assert_eq!(sym.as_str(), name);
        assert!((sym.index() as usize) < Sym::table_len());
    }
}
