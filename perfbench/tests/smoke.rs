//! Tiny-size smoke of every benchmark workload, the gated ones of
//! `BENCHMARK.json` and the one run by hand: each run must print exactly the
//! metrics `BENCHMARK.json` declares, with their units, and fail nothing.

use ar_types::json::Json;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(doc: &'a Json, section: &str) -> &'a [Json] {
    doc.get(section).and_then(Json::as_array).unwrap_or_else(|| panic!("no {section} list"))
}

fn field(entry: &Json, key: &str) -> String {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no {key}")).to_string()
}

/// Workloads the binary runs that `BENCHMARK.json` does not gate.
const UNGATED: [&str; 1] = ["arf_tid_160"];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("perfbench runs")
}

#[test]
fn smoke_runs_print_the_declared_metrics_and_fail_nothing() {
    let doc = benchmark_json();
    let gated = entries(&doc, "workloads").iter().map(|w| field(w, "name"));
    for workload in gated.chain(UNGATED.map(String::from)) {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = ["--workload", &workload, "--seed", "1", "--seconds", "0", "--trace", trace];
            let out = perfbench(&[&args[..], &["--smoke"]].concat());
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} --trace {trace}: {stdout}");
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{stdout}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);

            let metrics = result.get("metrics").and_then(Json::as_object).expect("metrics");
            let mut printed: Vec<(String, String)> =
                metrics.iter().map(|(name, m)| (name.clone(), field(m, "unit"))).collect();
            let mut declared: Vec<(String, String)> = entries(&doc, section)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            printed.sort();
            declared.sort();
            assert_eq!(printed, declared, "{workload} --trace {trace}");
            if trace == "1" {
                let failed_ratio = result
                    .get("metrics")
                    .and_then(|m| m.get("failed_ratio")?.get("value")?.as_f64());
                assert_eq!(failed_ratio, Some(0.0));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "0", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "hmc_paper", "--seed", "0", "--seconds", "1"],
        &["--workload", "hmc_paper", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "hmc_paper", "--seed", "0", "--seconds", "1", "--trace", "2"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
