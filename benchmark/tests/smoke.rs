//! Runs every workload for one second, untraced and traced, through the
//! built binary, and checks the report against `BENCHMARK.json`: every
//! metric printed with its unit, no failed operation, every check passed.
//!
//! Debug builds make the workloads many times slower; run it as
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["warm-read", "read-write", "hist-ic", "opimc-lt"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        let at = entry.find(&tag).expect("field present") + tag.len();
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 report");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let spec = include_str!("../../BENCHMARK.json");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = section(spec, key);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let report = run(w, trace);
            for (name, unit) in &metrics {
                assert!(
                    report
                        .lines()
                        .any(|l| l.starts_with(&format!("{w} {name} "))
                            && l.contains(&format!(" {unit} n="))),
                    "{w}: no line for {name} in {unit}:\n{report}"
                );
                assert!(
                    report.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: {name} missing from the JSON result"
                );
            }
            assert!(report.contains(&format!("{w} checks attempted=")));
            assert!(report.contains(" failed=0 failed_share=0\n"), "{report}");
            let last = report.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            assert!(last.contains("\"failed\": 0, "), "{last}");
        }
    }
}
