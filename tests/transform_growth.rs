//! Growth of the streaming transform in a pattern's closure steps.
//!
//! `//a[b]` × n over n + 1 nested `<a><b/>` elements: every choice of
//! "which ancestor `a` matched which step" is a separate derivation, so
//! a matcher that keeps conditions the stream has already settled holds
//! exponentially many partial-match states (≈ 3× per step). The matcher
//! keeps only pending conditions, so these run in milliseconds. Each
//! output must equal the DOM baseline's, within a wall-time bound that
//! a debug build meets many times over.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use xsq::baselines::dom::transform::transform_bytes;
use xsq::transform::Transformer;
use xsq::xpath::RuleSet;

/// `depth` nested `a` elements, each with a `b` child first.
fn chain(depth: usize) -> String {
    let mut doc = String::new();
    for i in 0..depth {
        doc.push_str(&format!("<a><b></b>{i}"));
    }
    doc.push_str(&"</a>".repeat(depth));
    doc
}

#[test]
fn long_closure_patterns_transform_like_the_dom_in_bounded_time() {
    let (done, finished) = mpsc::channel();
    // The check runs on its own thread so that a matcher gone
    // exponential fails the bound instead of hanging the suite.
    let worker = std::thread::spawn(move || {
        for n in [16, 24] {
            let rules = format!("{} => drop", "//a[b]".repeat(n));
            let doc = chain(n + 1);
            let parsed = RuleSet::parse(&rules).unwrap();
            let dom = transform_bytes(doc.as_bytes(), &parsed).unwrap();
            let streamed = Transformer::compile(&rules)
                .unwrap()
                .transform(doc.as_bytes())
                .unwrap()
                .xml;
            assert_eq!(streamed, dom, "//a[b] × {n}");
            // The two innermost `a`s end an n-step match: the outer one
            // is dropped with everything inside it.
            assert!(dom.len() < doc.len(), "//a[b] × {n} dropped nothing");
            done.send(n).unwrap();
        }
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    for n in [16, 24] {
        match finished.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(got) => assert_eq!(got, n),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("//a[b] × {n} did not transform within 5 s")
            }
            // The check itself failed: its panic is raised below.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}
