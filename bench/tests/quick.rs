//! Runs `perf --quick` (small grids, one-second windows, the same metric
//! names) and holds its output against the contract in `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use dfg_trace::json::{self, Value};

fn perf(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs");
    assert!(
        output.status.success(),
        "perf {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8")
}

fn contract() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        perf(&["contract"]),
        "BENCHMARK.json is not `perf contract`'s output"
    );
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn contract_is_within_the_limits_and_every_layer_metric_says_what_it_moves() {
    let contract = contract();
    let workloads = names(contract.get("workloads").expect("workloads"));
    let end_to_end = names(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names(contract.get("per_layer").expect("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for name in &all {
        assert!(well_formed(name), "bad name `{name}`");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for w in contract
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
    }
    for m in contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list")
    {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m:?}");
    }

    // `perf explain`: one row per per-layer metric, naming the end-to-end
    // metric it should move (or `none`) and the workloads it should move
    // it on.
    let explain = perf(&["explain"]);
    let rows: Vec<Vec<&str>> = explain
        .lines()
        .skip_while(|l| *l != "per-layer")
        .skip(2)
        .map(|l| l.split('\t').collect())
        .collect();
    assert_eq!(
        rows.iter().map(|r| r[0].to_string()).collect::<Vec<_>>(),
        per_layer
    );
    for row in rows {
        let (moves, on) = (row[3], row[4]);
        if moves == "none" {
            assert_eq!(on, "-", "{row:?}");
            continue;
        }
        assert!(end_to_end.iter().any(|m| m == moves), "{row:?}");
        assert!(
            on == "all" || on.split(' ').all(|w| workloads.iter().any(|k| k == w)),
            "{row:?}"
        );
    }
}

#[test]
fn quick_run_emits_exactly_the_contract_names_and_passes_its_own_gate() {
    let contract = contract();
    let workloads = names(contract.get("workloads").expect("workloads"));
    let end_to_end = names(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names(contract.get("per_layer").expect("per_layer"));

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/quick-test.json");
    let stdout = perf(&["--quick", "--out", out.to_str().expect("utf-8 path")]);
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));

    // Every metric is also printed as `workload name value unit`.
    for w in &workloads {
        for m in end_to_end.iter().chain(&per_layer) {
            let prefix = format!("{w} {m} ");
            let line = stdout.lines().find(|l| l.starts_with(&prefix));
            let fields: Vec<&str> = line
                .unwrap_or_else(|| panic!("no line `{prefix}…`"))
                .split(' ')
                .collect();
            assert_eq!(fields.len(), 4, "{line:?}");
            assert!(
                fields[2].parse::<f64>().is_ok_and(f64::is_finite),
                "{line:?}"
            );
        }
    }

    let doc = json::parse(&std::fs::read_to_string(&out).expect("--out written")).expect("JSON");
    assert!(doc.get("env").and_then(|e| e.get("rustc")).is_some());
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    assert_eq!(runs.len(), 2 * workloads.len());
    for run in runs {
        let traced = run.get("trace").and_then(Value::as_f64) == Some(1.0);
        let metrics = match run.get("result").and_then(|r| r.get("metrics")) {
            Some(Value::Object(m)) => m,
            other => panic!("no metrics in {other:?}"),
        };
        let want: BTreeSet<&String> = if traced { &per_layer } else { &end_to_end }
            .iter()
            .collect();
        assert_eq!(
            metrics.keys().collect::<BTreeSet<_>>(),
            want,
            "{:?}",
            run.get("workload")
        );
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            assert!(value.is_finite(), "{name}");
            // End-to-end metrics are never 0: a regression bound is a share
            // of the parent's value.
            assert!(traced || value > 0.0, "{name} is {value}");
        }
        if !traced {
            let timings = run.get("timings").expect("timings of a timed run");
            for key in ["n", "median", "p25", "p75", "tail_pct", "tail"] {
                assert!(timings.get("setup_s").and_then(|s| s.get(key)).is_some());
            }
        }
    }
    for w in &workloads {
        let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{w}.json"));
        let chrome =
            json::parse(&std::fs::read_to_string(trace).expect("Chrome trace")).expect("JSON");
        let events = chrome
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        let has = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(name))
        };
        assert!(
            has("bench.op") && has("bench.layer") && has("fusion.kernel"),
            "{w}"
        );
    }
}
