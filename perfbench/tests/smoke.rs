//! Tiny-size runs of every workload, untraced and traced: each must pass
//! its output check and print every metric `BENCHMARK.json` names, with
//! that metric's unit.

use std::path::PathBuf;
use std::process::Command;

/// `(name, unit)` of every entry in one of `BENCHMARK.json`'s metric lists.
/// A minimal scan: the file is flat, one metric object per line.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let start = text.find(&format!("\"{list}\"")).expect("metric list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\": \""))? + key.len() + 5;
                Some(l[at..at + l[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace])
        .args(["--sessions", "6"])
        .arg("--spans-dir")
        .arg(&spans)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        // The run times at least 1000 sessions, so its six input sessions
        // run on many passes; each still counts once.
        assert!(result.starts_with("{\"correct\": true, \"attempted\": 6, "), "{result}");
        let metrics = declared(list);
        assert!(!metrics.is_empty(), "{list} declares metrics");
        for (name, unit) in &metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = result.find(&entry).unwrap_or_else(|| panic!("{workload}: no {name}"));
            let tail = &result[at..];
            let tail = &tail[..tail.find('}').expect("entry closes")];
            assert!(
                tail.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} unit: {tail}"
            );
        }
        let count = result.matches("\"unit\"").count();
        assert_eq!(count, metrics.len(), "{workload} trace {trace}: exactly the declared metrics");
    }
}

#[test]
fn paper_clean_smoke() {
    check("paper-clean");
}

#[test]
fn noisy_multiconfig_smoke() {
    check("noisy-multiconfig");
}

#[test]
fn fleet_lossy_smoke() {
    check("fleet-lossy");
}
