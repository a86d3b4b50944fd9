//! Output sinks: where query results go.
//!
//! A streaming engine's distinguishing feature is that results leave the
//! system as soon as their membership is determined; the sink abstraction
//! lets callers observe exactly that (the examples stream results from an
//! unbounded feed, the benches count them without allocating).

/// Receives results as the engine determines them.
pub trait Sink {
    /// One result item (text value, attribute value, serialized element,
    /// or — once, at end of stream — the final aggregation value).
    fn result(&mut self, value: &str);

    /// A running aggregation update (§4.4: the stat buffer emits a new
    /// value whenever it changes, so aggregations work over unbounded
    /// streams). Default: ignored.
    fn aggregate_update(&mut self, _value: f64) {}
}

/// Collects everything into vectors — the default for tests and small
/// result sets.
#[derive(Debug, Default)]
pub struct VecSink {
    pub results: Vec<String>,
    pub updates: Vec<f64>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for VecSink {
    fn result(&mut self, value: &str) {
        self.results.push(value.to_string());
    }

    fn aggregate_update(&mut self, value: f64) {
        self.updates.push(value);
    }
}

/// Counts results and bytes without storing them — used by the benchmark
/// harness so sink allocation does not distort throughput.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub results: u64,
    pub bytes: u64,
}

impl CountingSink {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for CountingSink {
    fn result(&mut self, value: &str) {
        self.results += 1;
        self.bytes += value.len() as u64;
    }
}

/// A sink that calls a closure per result (streaming consumers).
pub struct FnSink<F: FnMut(&str)>(pub F);

impl<F: FnMut(&str)> Sink for FnSink<F> {
    fn result(&mut self, value: &str) {
        (self.0)(value);
    }
}

/// Stable handle for one query: its index in a merged HPDT's `merged`
/// list inside the runtime, its subscription id in a
/// [`crate::qindex::QueryIndex`]. Ids are never reused, so a stale
/// handle after `unsubscribe` is harmless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

/// Receives results together with the query that produced them. This is
/// the interface every runner delivers through: a merged HPDT evaluates
/// several queries at once and labels each item with its originating
/// query, so a shared consumer can tell the streams apart (a
/// single-query HPDT always labels `QueryId(0)`).
pub trait QuerySink {
    /// One result item from query `id`.
    fn result(&mut self, id: QueryId, value: &str);
    /// Running aggregate update (count/sum/… queries only). Default:
    /// ignored.
    fn aggregate_update(&mut self, _id: QueryId, _value: f64) {}
}

/// Collects `(id, value)` pairs in arrival order — the tagged analogue
/// of [`VecSink`], for tests and small result sets.
#[derive(Debug, Default)]
pub struct VecQuerySink {
    pub results: Vec<(QueryId, String)>,
    pub updates: Vec<(QueryId, f64)>,
}

impl VecQuerySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// The values one query produced, in document order.
    pub fn of(&self, id: QueryId) -> Vec<&str> {
        self.results
            .iter()
            .filter(|(i, _)| *i == id)
            .map(|(_, v)| v.as_str())
            .collect()
    }
}

impl QuerySink for VecQuerySink {
    fn result(&mut self, id: QueryId, value: &str) {
        self.results.push((id, value.to_string()));
    }

    fn aggregate_update(&mut self, id: QueryId, value: f64) {
        self.updates.push((id, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_collects() {
        let mut s = VecSink::new();
        s.result("a");
        s.aggregate_update(1.0);
        assert_eq!(s.results, ["a"]);
        assert_eq!(s.updates, [1.0]);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::new();
        s.result("abc");
        s.result("d");
        assert_eq!(s.results, 2);
        assert_eq!(s.bytes, 4);
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut seen = Vec::new();
        {
            let mut s = FnSink(|v: &str| seen.push(v.to_string()));
            s.result("x");
        }
        assert_eq!(seen, ["x"]);
    }

    #[test]
    fn vec_query_sink_separates_queries() {
        let mut s = VecQuerySink::new();
        s.result(QueryId(0), "a");
        s.result(QueryId(1), "b");
        s.result(QueryId(0), "c");
        assert_eq!(s.of(QueryId(0)), ["a", "c"]);
        assert_eq!(s.of(QueryId(1)), ["b"]);
    }
}
