//! Runs the built benchmark in `--smoke` mode (all four workloads at
//! tiny job counts) and checks what it emits against
//! `../BENCHMARK.json`:
//!
//! * every metric named there is emitted for every workload, with the
//!   unit named there;
//! * metric names match `[A-Za-z0-9_.-]+`;
//! * the output and span files pass `trace::json_well_formed`;
//! * two runs at one seed give identical `sim_*` values;
//! * one `--workload` run ends in the driver's one-line object, with
//!   exactly the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//!   metrics.
//!
//! One test function: the runs are timed and share `out/`, so they
//! must not overlap.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value — just enough structure to look metrics up.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let v = Self::value(bytes, &mut at);
        Self::space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing text after the JSON value");
        v
    }

    fn space(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn eat(b: &[u8], at: &mut usize, c: u8) {
        Self::space(b, at);
        assert_eq!(
            b.get(*at),
            Some(&c),
            "expected {:?} at byte {at}",
            c as char
        );
        *at += 1;
    }

    fn string(b: &[u8], at: &mut usize) -> String {
        Self::eat(b, at, b'"');
        let mut out = Vec::new();
        loop {
            match b[*at] {
                b'"' => break,
                b'\\' => {
                    *at += 1;
                    out.push(match b[*at] {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'u' => {
                            *at += 4; // the benchmark only escapes control bytes
                            b'?'
                        }
                        c => c,
                    });
                }
                c => out.push(c),
            }
            *at += 1;
        }
        *at += 1;
        String::from_utf8(out).expect("JSON strings are UTF-8")
    }

    fn value(b: &[u8], at: &mut usize) -> Json {
        Self::space(b, at);
        match b[*at] {
            b'{' => {
                *at += 1;
                let mut fields = Vec::new();
                Self::space(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let key = Self::string(b, at);
                    Self::eat(b, at, b':');
                    fields.push((key, Self::value(b, at)));
                    Self::space(b, at);
                    *at += 1;
                    if b[*at - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                    assert_eq!(b[*at - 1], b',');
                }
            }
            b'[' => {
                *at += 1;
                let mut items = Vec::new();
                Self::space(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(Self::value(b, at));
                    Self::space(b, at);
                    *at += 1;
                    if b[*at - 1] == b']' {
                        return Json::Arr(items);
                    }
                    assert_eq!(b[*at - 1], b',');
                }
            }
            b'"' => Json::Str(Self::string(b, at)),
            b't' => {
                *at += 4;
                Json::Bool(true)
            }
            b'f' => {
                *at += 5;
                Json::Bool(false)
            }
            b'n' => {
                *at += 4;
                Json::Null
            }
            _ => {
                let start = *at;
                while *at < b.len()
                    && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *at += 1;
                }
                let s = std::str::from_utf8(&b[start..*at]).unwrap();
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s:?}")))
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{key:?} looked up in a non-object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("keys of a non-object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("items of a non-array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn package() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run the benchmark binary; returns its standard output.
fn benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env("CARGO_MANIFEST_DIR", package())
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn read_checked(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        trace::json_well_formed(&text),
        "{} is not well-formed JSON",
        path.display()
    );
    text
}

/// `(name, unit)` of every metric under `key` of `BENCHMARK.json`.
fn declared<'a>(contract: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
    contract
        .get(key)
        .items()
        .iter()
        .map(|m| (m.get("name").str(), m.get("unit").str()))
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_repeats_its_simulated_clock() {
    let contract = Json::parse(&read_checked(&package().join("../BENCHMARK.json")));
    let workloads: Vec<&str> = contract
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["steady4", "scale64", "churn4", "apps_quick"]);
    assert_eq!(contract.get("paths").items()[0].str(), "benchmark");
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    assert!(end_to_end.iter().any(|&(n, u)| n == "setup_s" && u == "s"));

    let results: Vec<Json> = ["smoke-a", "smoke-b"]
        .iter()
        .map(|tag| {
            let stdout = benchmark(&["--all", "--smoke", "--seed", "3", "--tag", tag]);
            let last = stdout.lines().last().expect("some output");
            assert!(
                trace::json_well_formed(last),
                "the last line is not JSON:\n{last}"
            );
            let file = read_checked(&package().join(format!("out/result-{tag}.json")));
            assert_eq!(file.trim_end(), last, "result file and last line differ");
            Json::parse(last)
        })
        .collect();

    for result in &results {
        assert_eq!(*result.get("correct"), Json::Bool(true));
        let host = result.get("host");
        assert!(host.get("nproc").num() >= 1.0);
        assert_eq!(host.get("rayon_shim_threads").num(), 2.0);
        assert!(!host.get("rustc").str().is_empty());
        assert_eq!(host.get("grid_hash").str().len(), 16);
        assert_eq!(result.get("workloads").keys(), workloads);
        for w in &workloads {
            let run = result.get("workloads").get(w);
            assert_eq!(run.get("failed").num(), 0.0, "{w}");
            assert_eq!(run.get("failed_share").num(), 0.0, "{w}");
            assert!(run.get("attempted").num() >= 1.0, "{w}");
            for (section, want) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
                let got = run.get(section);
                let names: Vec<&str> = want.iter().map(|&(n, _)| n).collect();
                assert_eq!(got.keys(), names, "{w}/{section}: names or order differ");
                for &(name, unit) in want.iter() {
                    assert!(
                        !name.is_empty()
                            && name
                                .chars()
                                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "bad metric name {name:?}"
                    );
                    let m = got.get(name);
                    assert_eq!(m.get("unit").str(), unit, "{w}/{name}");
                    assert!(m.get("value").num().is_finite(), "{w}/{name}");
                    assert!(m.get("n").num() >= 1.0, "{w}/{name}: no samples");
                }
            }
            for &(name, _) in &end_to_end {
                assert!(
                    run.get("end_to_end").get(name).get("value").num() > 0.0,
                    "{w}/{name} is 0"
                );
            }
            let spans = read_checked(&package().join(format!("out/trace-{w}.json")));
            for needle in [
                "\"name\":\"job\"",
                "\"name\":\"variant.tmk_base\"",
                "\"name\":\"probe.dsm.barrier.p64\"",
            ] {
                assert!(spans.contains(needle), "{w}: span file lacks {needle}");
            }
        }
    }

    // The simulated clock repeats bit for bit at one seed.
    for w in &workloads {
        for name in ["sim_time_ms", "sim_msgs", "sim_mbytes"] {
            let value = |r: &Json| {
                r.get("workloads")
                    .get(w)
                    .get("end_to_end")
                    .get(name)
                    .get("value")
                    .num()
            };
            assert_eq!(
                value(&results[0]),
                value(&results[1]),
                "{w}/{name} moved between runs"
            );
        }
    }

    // One run of one workload, as the driver makes it.
    for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
        let stdout = benchmark(&[
            "--workload",
            "churn4",
            "--seed",
            "3",
            "--seconds",
            "0.4",
            "--trace",
            trace,
            "--smoke",
        ]);
        let last = Json::parse(stdout.lines().last().expect("some output"));
        assert_eq!(last.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(*last.get("correct"), Json::Bool(true));
        assert!(last.get("attempted").num() >= 1.0);
        assert_eq!(last.get("failed").num(), 0.0);
        let names: Vec<&str> = want.iter().map(|&(n, _)| n).collect();
        assert_eq!(last.get("metrics").keys(), names, "--trace {trace}");
        for &(name, unit) in want.iter() {
            let m = last.get("metrics").get(name);
            assert_eq!(m.keys(), ["value", "unit"], "{name}");
            assert_eq!(m.get("unit").str(), unit, "{name}");
        }
    }
}
