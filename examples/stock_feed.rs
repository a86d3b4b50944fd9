//! Streaming aggregation over an unbounded feed — the scenario the
//! paper's introduction motivates (stock market updates).
//!
//! A ticker produces an endless XML stream of trades; XSQ evaluates
//! predicates, selections, and running aggregates *as events arrive*,
//! holding only undecided data. No part of the feed is ever
//! materialized.
//!
//! ```sh
//! cargo run --example stock_feed
//! ```

use xsq::engine::{Sink, XsqEngine};
use xsq::xml::{ParsePoll, StreamParser};

/// A sink that prints results and running aggregates as they stream out.
struct Live {
    label: &'static str,
    results: usize,
}

impl Sink for Live {
    fn result(&mut self, value: &str) {
        self.results += 1;
        println!("  [{}] result: {value}", self.label);
    }
    fn aggregate_update(&mut self, value: f64) {
        println!("  [{}] running value: {value:.2}", self.label);
    }
}

/// Deterministic pseudo-ticker.
fn price(i: u32) -> f64 {
    100.0 + ((i * 37) % 50) as f64 - 25.0 + (i % 7) as f64 / 10.0
}

/// One trade, serialized as the ticker sends it.
fn trade(i: u32) -> String {
    let symbol = ["ACME", "GLOBEX", "INITECH"][(i % 3) as usize];
    format!(
        "<trade seq=\"{i}\"><symbol>{symbol}</symbol><price>{:.2}</price></trade>",
        price(i)
    )
}

fn main() {
    // Two standing queries over the same feed. The first one's predicate
    // (`symbol=ACME`) may resolve before or after the price arrives —
    // XSQ buffers exactly that undecided window and nothing else.
    let select = XsqEngine::full()
        .compile_str("//trade[symbol=\"ACME\"]/price/text()")
        .unwrap();
    let maximum = XsqEngine::full()
        .compile_str("//trade/price/max()")
        .unwrap();

    let mut select_run = select.runner();
    let mut max_run = maximum.runner();
    let mut select_sink = Live {
        label: "ACME price",
        results: 0,
    };
    let mut max_sink = Live {
        label: "max price",
        results: 0,
    };

    // The (never-ending) stream: one push parser, fed a chunk at a time
    // and never finished. The events a chunk completes go to both
    // runners at once.
    let mut parser = StreamParser::push_mode();
    let mut push = |chunk: &str| {
        parser.push(chunk.as_bytes());
        while let ParsePoll::Event(ev) = parser.poll_raw().expect("a well-formed feed") {
            select_run.feed_raw(&ev, &mut select_sink);
            max_run.feed_raw(&ev, &mut max_sink);
        }
    };
    push("<feed>");
    for i in 0..12 {
        println!("tick {i}:");
        push(&trade(i));
    }

    println!(
        "\nafter 12 trades: {} ACME prices streamed, running max = {:?}",
        select_sink.results,
        max_run.aggregate_value()
    );
    println!(
        "engine memory: {} buffered entries right now, {} peak buffered bytes",
        select_run.buffered_entries(),
        select_run.memory().peak_bytes
    );
    assert_eq!(
        select_run.buffered_entries(),
        0,
        "between trades nothing is buffered"
    );
}
