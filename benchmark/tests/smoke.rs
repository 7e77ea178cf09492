//! Runs every workload at `--smoke` scale, in both modes, and checks its
//! result line against `BENCHMARK.json`: every declared metric is
//! printed with its declared unit, and nothing else is.

use std::process::Command;

use astriflash_analyze::Value;
use astriflash_benchmark::workloads::Workload;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    astriflash_analyze::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric a section declares, sorted.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = spec
        .get(section)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

fn smoke(workload: Workload) {
    let spec = spec();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_astriflash-benchmark"))
            .args([
                "--workload",
                workload.name(),
                "--seed",
                "3",
                "--seconds",
                "0",
            ])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{} --trace {trace} failed:\n{stdout}\n{}",
            workload.name(),
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        let result = astriflash_analyze::parse(last).expect("the last line is JSON");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));

        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object in {last}");
        };
        let mut printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                assert!(
                    m.get("value").and_then(Value::as_num).is_some(),
                    "{name} has no numeric value"
                );
                (name.clone(), unit.to_string())
            })
            .collect();
        printed.sort();
        assert_eq!(
            printed,
            declared(&spec, section),
            "{} --trace {trace}",
            workload.name()
        );
        // The human-readable lines name every metric with its unit too.
        for (name, unit) in &printed {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name) && l.contains(unit.as_str())),
                "{name} [{unit}] missing from the text lines"
            );
        }
    }
}

#[test]
fn workloads_match_the_declaration() {
    let names: Vec<String> = spec()
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::all()
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(names, ours);
}

#[test]
fn smoke_fig9_sweep() {
    smoke(Workload::Fig9Sweep);
}

#[test]
fn smoke_tatp_steady() {
    smoke(Workload::TatpSteady);
}

#[test]
fn smoke_hashtable_flash() {
    smoke(Workload::HashtableFlash);
}

#[test]
fn smoke_hashtable_dram() {
    smoke(Workload::HashtableDram);
}

#[test]
fn smoke_tatp_open_telemetry() {
    smoke(Workload::TatpOpenTelemetry);
}
