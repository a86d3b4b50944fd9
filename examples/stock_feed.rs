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
use xsq::xml::{Attribute, SaxEvent};

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

fn trade_events(i: u32) -> Vec<SaxEvent> {
    let symbol = ["ACME", "GLOBEX", "INITECH"][(i % 3) as usize];
    let text = |element: &str, text: String| SaxEvent::Text {
        element: element.into(),
        text,
        depth: 3,
    };
    let begin = |name: &str, depth: u32| SaxEvent::Begin {
        name: name.into(),
        attributes: vec![],
        depth,
    };
    let end = |name: &str, depth: u32| SaxEvent::End {
        name: name.into(),
        depth,
    };
    vec![
        SaxEvent::Begin {
            name: "trade".into(),
            attributes: vec![Attribute::new("seq", i.to_string())],
            depth: 2,
        },
        begin("symbol", 3),
        text("symbol", symbol.into()),
        end("symbol", 3),
        begin("price", 3),
        text("price", format!("{:.2}", price(i))),
        end("price", 3),
        end("trade", 2),
    ]
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

    // Open the (never-ending) stream.
    let prologue = [
        SaxEvent::StartDocument,
        SaxEvent::Begin {
            name: "feed".into(),
            attributes: vec![],
            depth: 1,
        },
    ];
    for ev in &prologue {
        select_run.feed_raw(&ev.as_raw(), &mut select_sink);
        max_run.feed_raw(&ev.as_raw(), &mut max_sink);
    }

    for i in 0..12 {
        println!("tick {i}:");
        for ev in trade_events(i) {
            select_run.feed_raw(&ev.as_raw(), &mut select_sink);
            max_run.feed_raw(&ev.as_raw(), &mut max_sink);
        }
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
