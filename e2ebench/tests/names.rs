//! The names the benchmark reports must be exactly those
//! `BENCHMARK.json` declares, with the same units.

use std::collections::BTreeMap;
use xmlest_e2ebench::spec;

/// A JSON value, enough of it to read `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Str(String),
    Num(f64),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
    Other,
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'"' => Json::Str(self.string()),
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b't' | b'f' | b'n' => {
                while self.s[self.i].is_ascii_alphabetic() {
                    self.i += 1;
                }
                Json::Other
            }
            _ => {
                let start = self.i;
                while matches!(
                    self.s[self.i],
                    b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'
                ) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().expect("number"))
            }
        }
    }
}

fn benchmark_json() -> BTreeMap<String, Json> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    match (Parser {
        s: text.as_bytes(),
        i: 0,
    })
    .value()
    {
        Json::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn entries<'a>(doc: &'a BTreeMap<String, Json>, key: &str) -> Vec<&'a BTreeMap<String, Json>> {
    match &doc[key] {
        Json::Arr(v) => v
            .iter()
            .map(|e| match e {
                Json::Obj(m) => m,
                other => panic!("{key}: not an object: {other:?}"),
            })
            .collect(),
        other => panic!("{key}: not an array: {other:?}"),
    }
}

fn str_of<'a>(m: &'a BTreeMap<String, Json>, key: &str) -> &'a str {
    match &m[key] {
        Json::Str(s) => s,
        other => panic!("{key}: not a string: {other:?}"),
    }
}

fn named(doc: &BTreeMap<String, Json>, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| (str_of(m, "name").to_owned(), str_of(m, "unit").to_owned()))
        .collect()
}

fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
    v.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|m| str_of(m, "name"))
        .collect();
    assert_eq!(names, spec::WORKLOADS);
}

#[test]
fn end_to_end_metrics_match() {
    let doc = benchmark_json();
    assert_eq!(named(&doc, "end_to_end"), owned(&spec::END_TO_END));
    for m in entries(&doc, "end_to_end") {
        let Json::Num(bound) = m["bound"] else {
            panic!("bound is not a number")
        };
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            str_of(m, "name")
        );
    }
}

#[test]
fn per_layer_metrics_match() {
    let doc = benchmark_json();
    assert_eq!(named(&doc, "per_layer"), owned(&spec::PER_LAYER));
}

#[test]
fn command_runs_this_package() {
    let doc = benchmark_json();
    let Json::Arr(cmd) = &doc["command"] else {
        panic!("command is not an array")
    };
    let args: Vec<&str> = cmd
        .iter()
        .map(|a| match a {
            Json::Str(s) => s.as_str(),
            other => panic!("command: {other:?}"),
        })
        .collect();
    assert!(args.contains(&"e2ebench/Cargo.toml"), "{args:?}");
    let Json::Arr(paths) = &doc["paths"] else {
        panic!("paths is not an array")
    };
    assert!(matches!(paths.as_slice(), [Json::Str(p)] if p == "e2ebench"));
    assert!(matches!(doc.get("run_seconds"), Some(Json::Num(_))));
}

/// A short run in each mode emits exactly the declared metrics.
/// `churn_dblp` goes through the same metric code as the serve
/// workloads and is the quickest to set up.
#[test]
fn a_short_run_emits_the_declared_metrics() {
    use xmlest_e2ebench::run::{run, Args};
    for (trace, declared) in [(false, &spec::END_TO_END[..]), (true, &spec::PER_LAYER[..])] {
        let out = run(&Args {
            workload: "churn_dblp".into(),
            seed: 3,
            seconds: 4.0,
            trace,
        })
        .expect("the run completes");
        assert!(out.correct, "trace {trace}: a correctness check failed");
        assert_eq!(out.failed, 0);
        let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
        assert_eq!(emitted, declared);
    }
}

/// Accuracy is scored on a collection fixed by constants, so two seeds
/// and two run lengths give bit-identical q-errors.
#[test]
fn qerror_does_not_depend_on_the_seed_or_the_run_length() {
    use xmlest_e2ebench::run::{run, Args};
    let qerrors = |seed, seconds| {
        let out = run(&Args {
            workload: "churn_dblp".into(),
            seed,
            seconds,
            trace: false,
        })
        .expect("the run completes");
        assert!(out.correct);
        out.metrics
            .iter()
            .filter(|(n, _, _)| n.starts_with("qerror_"))
            .map(|&(n, v, _)| (n, v.to_bits()))
            .collect::<Vec<_>>()
    };
    let a = qerrors(5, 1.0);
    assert_eq!(a.len(), 2);
    assert_eq!(a, qerrors(6, 2.0));
}
