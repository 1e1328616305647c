//! Small-scale runs of every workload: every metric of `BENCHMARK.json`
//! is printed with its unit, every answer checks out, and two processes
//! with the same seed issue the same requests and see the same answers.

use std::process::Command;

const SCALE: &str = "0.003";

/// Runs the benchmark binary and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", SCALE])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("key present");
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

/// The last line: the JSON result.
fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("output has a result line")
}

/// Lines carrying request-sequence and answer digests.
fn digests(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("warm-up:") || l.starts_with("tag:") || l.starts_with("eq11"))
        .chain(
            stdout
                .lines()
                .filter_map(|l| l.split("; ").nth(1).filter(|_| l.starts_with("measured:"))),
        )
        .collect()
}

fn check_metrics(stdout: &str, section: &str) {
    let result = result_line(stdout);
    assert!(
        result.starts_with("{\"correct\": true"),
        "not correct: {result}"
    );
    assert!(result.contains("\"failed\": 0"), "failures: {result}");
    for (name, unit) in declared(section) {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing: {result}"));
        let rest = &result[at + entry.len()..];
        assert!(
            rest.starts_with(|c: char| c == '-' || c.is_ascii_digit()),
            "{name}: {rest}"
        );
        let value: f64 = rest[..rest.find(',').expect("value ends")]
            .parse()
            .expect("number");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} unit {unit}"
        );
    }
    if section == "end_to_end" {
        assert!(
            result.contains("\"ok_rate\": {\"value\": 1,"),
            "ok_rate not 1: {result}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_all_answers_correct() {
    for workload in ["table10", "mixed"] {
        check_metrics(&run(workload, 7, false), "end_to_end");
        check_metrics(&run(workload, 7, true), "per_layer");
    }
}

#[test]
fn same_seed_gives_same_requests_and_answers() {
    for workload in ["table10", "mixed"] {
        let a = run(workload, 11, false);
        let b = run(workload, 11, false);
        let (da, db) = (digests(&a), digests(&b));
        assert_eq!(da.len(), 4, "{workload}: digest lines {da:?}");
        assert_eq!(da, db, "{workload}: two processes with seed 11 differ");
        let c = run(workload, 12, false);
        assert_ne!(
            da,
            digests(&c),
            "{workload}: the seed does not reach the requests"
        );
    }
}
