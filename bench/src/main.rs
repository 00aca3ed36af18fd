//! `perf`: the repository's wall-clock benchmark. See `bench/README.md`.
//!
//! ```text
//! perf [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH]
//! perf compare A.json B.json
//! perf contract      # the text of BENCHMARK.json
//! perf explain       # what each metric means and should move
//! ```
//!
//! One `--workload` with an explicit `--trace` runs in this process and
//! ends its standard output with the one-line JSON result: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. Any other
//! selection runs each workload's timed and traced run in a fresh child
//! process and gathers their results into `--out`.

mod check;
mod compare;
mod layers;
mod metrics;
mod serve;
mod stats;
mod sys;
mod timed;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dfg_core::Workload;
use dfg_trace::json::{self, escape, number, Value};
use dfg_trace::Tracer;

use layers::Values;
use timed::Gate;
use workloads::{Bench, Config, Insitu, OneShot, Snapshots, DEFAULT_SEED};

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<u8>,
    quick: bool,
    out: Option<PathBuf>,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        quick: false,
        out: None,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workloads.push(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => 0,
                    "1" => 1,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--child" => parsed.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn usage() -> &'static str {
    "usage: perf [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH]\n\
     \x20      perf compare A.json B.json\n\
     \x20      perf contract | explain"
}

fn main() -> ExitCode {
    // Before anything can touch the thread pool or allocate in earnest.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let threads = sys::pin_threads(argv.iter().any(|a| a == "--child"));
    let steady_heap = !sys::cold_heap_requested() && sys::steady_heap();

    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => return compare::run(&argv[1], &argv[2]),
        Some("contract") if argv.len() == 1 => {
            print!("{}", metrics::contract_json());
            return ExitCode::SUCCESS;
        }
        Some("explain") if argv.len() == 1 => {
            print!("{}", metrics::explain());
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help" | "help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        1.0
    } else {
        f64::from(metrics::RUN_SECONDS)
    });
    let config = |workload: &str| Config {
        workload: workload.to_string(),
        seed: args.seed,
        seconds,
        quick: args.quick,
    };
    let env = Env {
        threads,
        steady_heap,
    };
    match (args.workloads.as_slice(), args.trace) {
        ([one], _) if args.child => ExitCode::from(child(&config(one)) as u8),
        ([one], Some(trace)) => run_one(&config(one), trace, &env, args.out.as_deref()),
        _ => orchestrate(&args, seconds, &env),
    }
}

/// The settings a run was taken under, recorded with every result.
struct Env {
    threads: usize,
    steady_heap: bool,
}

impl Env {
    fn to_json(&self) -> String {
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        format!(
            "{{\"nproc\":{},\"dfg_num_threads\":{},\"allocator\":\"{}\",\"code_alignment\":\"{}\",\
             \"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"release, debug=line-tables-only\",\
             \"device_profile\":\"intel_x5660\",\"exec_mode\":\"real\"}}",
            sys::nproc(),
            self.threads,
            if self.steady_heap {
                "glibc, steady heap (M_MMAP_MAX=0, M_TRIM_THRESHOLD=max, M_ARENA_MAX=1)"
            } else {
                "glibc defaults"
            },
            if sys::code_aligned() {
                "functions and loops at 64 bytes (bench/.cargo/config.toml)"
            } else {
                "rustc defaults"
            },
            escape(&sys::rustc_version()),
            escape(&commit),
        )
    }
}

/// The measurement a child process reports to its parent's traced run.
fn child(cfg: &Config) -> i32 {
    traced::child_report(|| match cfg.workload.as_str() {
        "vmag_128" => traced::child_op_ms(OneShot::build(Workload::VelocityMagnitude, cfg, None)),
        "qcrit_128" => traced::child_op_ms(OneShot::build(Workload::QCriterion, cfg, None)),
        "insitu_slab" => {
            let snaps = Snapshots::take(cfg);
            traced::child_op_ms(Insitu::build(&snaps, cfg, None))
        }
        _ => serve::child_op_ms(&serve::Plan::of(cfg).ok_or("not a serve workload")?),
    })
}

/// What one run (one workload, timed or traced) hands to the printer.
struct Outcome {
    values: Values,
    gate: Gate,
    /// `timings` of the timed run.
    timings: Option<String>,
}

fn run_timed(cfg: &Config) -> Outcome {
    let timed = match cfg.workload.as_str() {
        "vmag_128" => timed::run(cfg, || {
            OneShot::build(Workload::VelocityMagnitude, cfg, None)
        }),
        "qcrit_128" => timed::run(cfg, || OneShot::build(Workload::QCriterion, cfg, None)),
        "insitu_slab" => {
            let snaps = Snapshots::take(cfg);
            timed::run(cfg, || Insitu::build(&snaps, cfg, None))
        }
        _ => serve::run(cfg, &serve::Plan::of(cfg).expect("a serve workload")),
    };
    Outcome {
        values: timed
            .metrics()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        timings: Some(timed.timings_json()),
        gate: timed.gate,
    }
}

fn run_traced(cfg: &Config) -> Outcome {
    let none = |_: &OneShot, _: &mut Values| {};
    let traced = match cfg.workload.as_str() {
        "vmag_128" => traced::run(
            cfg,
            |t: Option<&Tracer>| OneShot::build(Workload::VelocityMagnitude, cfg, t),
            none,
        ),
        "qcrit_128" => traced::run(
            cfg,
            |t: Option<&Tracer>| OneShot::build(Workload::QCriterion, cfg, t),
            none,
        ),
        "insitu_slab" => {
            let snaps = Snapshots::take(cfg);
            traced::run(
                cfg,
                |t: Option<&Tracer>| Insitu::build(&snaps, cfg, t),
                |bench: &Insitu, out: &mut Values| {
                    let (stats, pool_hits) = bench.session_counters();
                    out.push(("sim.step_ms".into(), snaps.step_ms));
                    out.push(("core.uploads_skipped".into(), stats.uploads_skipped as f64));
                    out.push(("core.codegen_cached".into(), stats.codegen_cached as f64));
                    out.push(("core.pool_hits".into(), pool_hits as f64));
                    let arm_ms = |out: &Values, name: &str| {
                        let key = format!("core.{name}_ms");
                        out.iter().find(|(n, _)| *n == key).map_or(0.0, |(_, v)| *v)
                    };
                    let cycle = arm_ms(out, bench.arms()[0]);
                    let saved = arm_ms(out, "oneshot") - cycle;
                    let verify = arm_ms(out, "cycle_residents") - cycle;
                    out.push(("core.session_saved_ms".into(), saved));
                    out.push(("core.verify_cost_ms".into(), verify));
                },
            )
        }
        _ => serve::run_traced(cfg, &serve::Plan::of(cfg).expect("a serve workload")),
    };
    Outcome {
        values: traced.values,
        gate: traced.gate,
        timings: None,
    }
}

/// Values with their units, as the contract lists them.
fn with_units(values: &Values) -> Vec<(&str, f64, &'static str)> {
    let layers = metrics::per_layer();
    values
        .iter()
        .map(|(name, v)| {
            let unit = metrics::END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
                .or_else(|| layers.iter().find(|m| m.name == *name).map(|m| m.unit))
                .unwrap_or("");
            (name.as_str(), *v, unit)
        })
        .collect()
}

/// One workload, timed (`trace` 0) or traced (1), in this process.
fn run_one(cfg: &Config, trace: u8, env: &Env, out: Option<&std::path::Path>) -> ExitCode {
    let outcome = if trace == 0 {
        if !sys::code_aligned() {
            eprintln!(
                "perf: built without --config bench/.cargo/config.toml: \
                 timings depend on where the code happened to land"
            );
        }
        run_timed(cfg)
    } else {
        run_traced(cfg)
    };
    let Outcome {
        values,
        gate,
        timings,
    } = outcome;
    let correct = gate.failed == 0 && values.iter().all(|(_, v)| v.is_finite());
    let values = with_units(&values);
    for (name, v, unit) in &values {
        println!("{} {name} {} {unit}", cfg.workload, number(*v));
    }
    println!("{} ops_attempted {} count", cfg.workload, gate.attempted);
    println!("{} ops_failed {} count", cfg.workload, gate.failed);
    for e in &gate.errors {
        eprintln!("perf: {}: {e}", cfg.workload);
    }
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*v)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        gate.attempted.max(1),
        gate.failed,
        metrics.join(",")
    );
    if let Some(path) = out {
        let errors: Vec<String> = gate
            .errors
            .iter()
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        let doc = format!(
            "{{\"env\":{},\"runs\":[{{\"workload\":\"{}\",\"trace\":{trace},\"seed\":{},\
             \"seconds\":{},\"quick\":{},\"digest\":\"{:#018x}\",\"errors\":[{}],\
             \"timings\":{},\"result\":{result}}}]}}\n",
            env.to_json(),
            cfg.workload,
            cfg.seed,
            number(cfg.seconds),
            cfg.quick,
            gate.digest(),
            errors.join(","),
            timings.as_deref().unwrap_or("null"),
        );
        if let Err(e) = write_creating_dir(path, &doc) {
            eprintln!("perf: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every selected workload's timed and traced run, each in a fresh
/// child process, forward what they print, and gather their documents.
fn orchestrate(args: &Args, seconds: f64, env: &Env) -> ExitCode {
    let names: Vec<String> = if args.workloads.is_empty() {
        metrics::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect()
    } else {
        args.workloads.clone()
    };
    let traces: Vec<u8> = args.trace.map_or(vec![0, 1], |t| vec![t]);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let (mut attempted, mut failed, mut all_correct) = (0u64, 0u64, true);
    let mut merged = Vec::new();
    for name in &names {
        for &trace in &traces {
            let part = traced::out_dir().join(format!("run-{name}-t{trace}.json"));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", &trace.to_string()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--out")
                .arg(&part);
            if args.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child; its stderr passes through.
            let output = cmd.stderr(std::process::Stdio::inherit()).output();
            let text = output
                .as_ref()
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            let result = json::parse(last).ok();
            let doc = std::fs::read_to_string(&part)
                .ok()
                .and_then(|t| json::parse(&t).ok());
            let ok = output.is_ok_and(|o| o.status.success());
            match (&result, doc.as_ref().and_then(|d| d.get("runs"))) {
                (Some(result), Some(Value::Array(one))) if one.len() == 1 => {
                    attempted += result
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .unwrap_or(1.0) as u64;
                    failed += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0) as u64;
                    all_correct &= ok && result.get("correct") == Some(&Value::Bool(true));
                    if let Some(Value::Object(m)) = result.get("metrics") {
                        for (metric, v) in m {
                            merged.push(format!("\"{name}:{metric}\":{}", to_json(v)));
                        }
                    }
                    runs.push(to_json(&one[0]));
                }
                _ => {
                    eprintln!("perf: the {name} --trace {trace} run gave no result");
                    attempted += 1;
                    failed += 1;
                    all_correct = false;
                }
            }
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| traced::out_dir().join("perf.json"));
    let doc = format!(
        "{{\"env\":{},\"runs\":[{}]}}\n",
        env.to_json(),
        runs.join(",")
    );
    if let Err(e) = write_creating_dir(&out, &doc) {
        eprintln!("perf: writing {}: {e}", out.display());
        all_correct = false;
    }
    println!(
        "{{\"correct\":{all_correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        merged.join(",")
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_creating_dir(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Serialise a parsed JSON value again.
pub fn to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => number(*n),
        Value::String(s) => format!("\"{}\"", escape(s)),
        Value::Array(items) => {
            let parts: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", parts.join(","))
        }
        Value::Object(map) => {
            let parts: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), to_json(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}
