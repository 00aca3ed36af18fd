//! `perf compare A.json B.json`: per workload and end-to-end metric, both
//! medians, their ratio with its base, and pass/fail against the bound
//! `BENCHMARK.json` fixes.

use std::process::ExitCode;

use dfg_trace::json::{self, Value};

/// More than this between the two runs' machine-speed canaries means the
/// machine changed, and no verdict on the code is possible.
const CALIB_TOLERANCE: f64 = 0.05;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The timed run of `workload` in a result document.
fn timed_run<'a>(doc: &'a Value, workload: &str) -> Option<&'a Value> {
    doc.get("runs")?.as_array()?.iter().find(|run| {
        run.get("workload").and_then(Value::as_str) == Some(workload)
            && run.get("trace").and_then(Value::as_f64) == Some(0.0)
    })
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn calib(run: &Value) -> Option<f64> {
    run.get("timings")?.get("calib_ms")?.get("median")?.as_f64()
}

/// The bounds of the end-to-end metrics, from `BENCHMARK.json` itself.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = load(path)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entry without name or bound".to_string())
        })
        .collect()
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, bounds()?)));
    let (a, b, bounds) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let (mut compared, mut failures) = (0, 0);
    for workload in crate::metrics::WORKLOADS.iter().map(|w| w.name) {
        let (Some(ra), Some(rb)) = (timed_run(&a, workload), timed_run(&b, workload)) else {
            continue;
        };
        let machine_changed = match (calib(ra), calib(rb)) {
            (Some(ca), Some(cb)) => (cb / ca - 1.0).abs() > CALIB_TOLERANCE,
            _ => false,
        };
        for (name, bound) in &bounds {
            let (Some(va), Some(vb)) = (metric(ra, name), metric(rb, name)) else {
                println!("{workload:<14} {name:<13} missing in one of the runs");
                failures += 1;
                continue;
            };
            compared += 1;
            let ratio = vb / va;
            // All four end-to-end metrics are lower-is-better.
            let verdict = if machine_changed {
                "machine changed"
            } else if ratio <= 1.0 + bound {
                "pass"
            } else {
                failures += 1;
                "FAIL"
            };
            println!(
                "{workload:<14} {name:<13} {va:>12.4} {vb:>12.4} {ratio:>9.4} {:>6.0}%  {verdict}",
                bound * 100.0
            );
        }
        if machine_changed {
            println!(
                "{workload:<14} bench.calib_ms {:.4} vs {:.4} ms: more than {:.0}% apart, no verdict",
                calib(ra).unwrap_or(0.0),
                calib(rb).unwrap_or(0.0),
                CALIB_TOLERANCE * 100.0
            );
        }
    }
    if compared == 0 {
        eprintln!("perf compare: the two files share no timed run");
        return ExitCode::from(2);
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
