//! Runs the benchmark binary at smoke size and validates what it
//! emits, and holds `BENCHMARK.json` to the crate's metric registry.

use std::collections::BTreeMap;
use std::process::Command;

use xsq_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// Just enough JSON for the benchmark's own output.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Json {
        self.ws();
        if self.eat("null") {
            return Json::Null;
        }
        if self.eat("true") {
            return Json::Bool(true);
        }
        if self.eat("false") {
            return Json::Bool(false);
        }
        match self.s[self.i] {
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Json::Arr(items);
                    }
                    items.push(self.value());
                    self.ws();
                    self.eat(",");
                }
            }
            b'{' => {
                self.i += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Json::Obj(map);
                    }
                    let key = self.string();
                    self.ws();
                    assert!(self.eat(":"), "expected ':' after key {key}");
                    assert!(
                        map.insert(key.clone(), self.value()).is_none(),
                        "{key} twice"
                    );
                    self.ws();
                    self.eat(",");
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    /// The benchmark escapes nothing but `\"` and `\\`.
    fn string(&mut self) -> String {
        assert_eq!(self.s[self.i], b'"');
        self.i += 1;
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i]);
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).unwrap()
    }
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn smoke(seed: u64) -> Json {
    let out = std::env::temp_dir().join(format!(
        "xsq-benchmark-smoke-{}-{seed}.json",
        std::process::id()
    ));
    let run = Command::new(env!("CARGO_BIN_EXE_xsq-benchmark"))
        .args(["--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .env(
            "CARGO_TARGET_DIR",
            std::env::temp_dir().join("xsq-benchmark-smoke"),
        )
        .output()
        .expect("the benchmark binary runs");
    assert!(
        run.status.success(),
        "--smoke --seed {seed} failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("the report was written");
    let _ = std::fs::remove_file(&out);
    Json::parse(&text)
}

/// One smoke run per seed, so the two checks below share them (and
/// the runs do not compete for the machine's two cores).
#[test]
fn smoke_runs_emit_valid_reports_on_two_seeds() {
    let (report, other) = (smoke(2003), smoke(7));
    validate(&report, 2003.0);
    validate(&other, 7.0);
    // `--seed` drives the generators: another seed gives other inputs
    // (and they too passed the correctness gate, or `smoke` panicked).
    let hashes = |r: &Json| -> Vec<String> {
        r.get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("exact").get("result_hash").str().to_string())
            .collect()
    };
    for (ha, hb) in hashes(&report).iter().zip(&hashes(&other)) {
        assert_ne!(ha, hb, "two seeds produced the same results");
    }
}

fn validate(report: &Json, seed: f64) {
    let header = report.get("header");
    for key in [
        "nproc",
        "scan_kernel",
        "cpu_features",
        "poller",
        "rustc",
        "commit",
        "seed",
    ] {
        header.get(key);
    }
    assert_eq!(header.get("seed").num(), seed);
    assert_eq!(*report.get("claim"), Json::Null);

    let workloads = report.get("workloads").arr();
    let names: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    let registered: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, registered);
    for w in workloads {
        let name = w.get("name").str();
        assert!(well_formed_name(name), "{name}");
        assert_eq!(w.get("failed_ops").num(), 0.0, "{name}");
        assert!(w.get("ops").num() >= 1.0, "{name}");

        let e2e = w.get("end_to_end").obj();
        assert!(!e2e.is_empty() && e2e.len() <= 16, "{name}");
        for (metric, v) in e2e {
            assert!(well_formed_name(metric), "{metric}");
            assert!(!v.get("unit").str().is_empty(), "{name} {metric}");
            let bound = v.get("bound").num();
            assert!(
                (0.0..=0.25).contains(&bound),
                "{name} {metric} bound {bound}"
            );
            let (q1, median, q3) = (v.get("q1").num(), v.get("median").num(), v.get("q3").num());
            assert!(
                median > 0.0 && q1 <= median && median <= q3,
                "{name} {metric}"
            );
            let value = v.get("value").num();
            assert!(q1 <= value && value <= q3, "{name} {metric}");
            assert!(v.get("n").num() >= 1.0, "{name} {metric}");
        }

        let layers = w.get("per_layer").obj();
        assert!(!layers.is_empty() && layers.len() <= 128, "{name}");
        for (metric, v) in layers {
            assert!(well_formed_name(metric), "{metric}");
            assert!(v.get("value").num().is_finite(), "{name} {metric}");
            assert!(!v.get("unit").str().is_empty(), "{name} {metric}");
        }
        assert!(
            layers["trace.rep_wall_s"].get("value").num() > 0.0,
            "{name}"
        );
    }
}

/// `BENCHMARK.json` names exactly what the crate measures.
#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"));
    let keys: Vec<&str> = spec.obj().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        spec.get("paths").arr(),
        [Json::Str("crates/benchmark".into())]
    );
    let seconds = spec.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // 4 + 22 runs per workload, two builds: all within 3420 s.
    assert!(spec.get("workloads").arr().len() <= 8);

    let listed: Vec<(&str, &str)> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| (w.get("name").str(), w.get("why").str()))
        .collect();
    let registered: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, registered);

    let listed: Vec<(&str, &str, &str, f64)> = spec
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
                m.get("bound").num(),
            )
        })
        .collect();
    let registered: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better, m.bound))
        .collect();
    assert_eq!(listed, registered);

    let listed: Vec<(&str, &str, &str)> = spec
        .get("per_layer")
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str(),
                m.get("unit").str(),
                m.get("better").str(),
            )
        })
        .collect();
    let registered: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    assert_eq!(listed, registered);
}
