//! The traced run: a `dfg_trace::Tracer` attached through the program's
//! existing hooks, the benchmark's own span around every call it makes, a
//! few rounds per arm, the isolated layer probes, and the two child
//! processes (thread scaling, default allocator). Produces every per-layer
//! metric and the Chrome trace.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use dfg_ocl::{EventKind, ProfileReport};
use dfg_trace::{span, MetaValue, SpanRecord, Trace, Tracer};

use crate::layers::{self, Values};
use crate::metrics;
use crate::stats::median;
use crate::sys;
use crate::timed::{check_reference, Gate};
use crate::workloads::{Bench, Config};

/// Rounds per arm in the traced run.
pub const ROUNDS: usize = 5;

/// What a traced run measured.
pub struct Traced {
    /// Every per-layer metric of `BENCHMARK.json`, in its order; metrics
    /// that do not apply to this workload read 0.
    pub values: Values,
    pub gate: Gate,
}

/// Where benchmark artefacts go: `bench/out/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    // Failing to create it surfaces when the first file is written.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Durations of the strategy stage spans inside one engine root span.
struct RootSplit {
    total_ms: f64,
    upload_ms: f64,
    kernel_ms: f64,
    download_ms: f64,
}

fn within(inner: &SpanRecord, outer: &SpanRecord) -> bool {
    inner.wall_start_ns >= outer.wall_start_ns && inner.wall_end_ns <= outer.wall_end_ns
}

/// Split every engine root span (`derive`, `derive_many`) recorded inside a
/// `window_name` span of `arm` into its stage spans. Containment is by
/// time, which also holds for spans a server thread recorded.
fn split_roots(trace: &Trace, window_name: &str, arm: &str) -> Vec<RootSplit> {
    let spans = trace.spans();
    let is_arm = |s: &SpanRecord| {
        s.name == window_name && matches!(s.meta_get("arm"), Some(MetaValue::Str(a)) if a == arm)
    };
    let windows: Vec<&SpanRecord> = spans.iter().filter(|s| is_arm(s)).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    spans
        .iter()
        .filter(|s| s.name == "derive" || s.name == "derive_many")
        .filter(|root| windows.iter().any(|w| within(root, w)))
        .map(|root| {
            let stage = |suffix: &str| {
                spans
                    .iter()
                    .filter(|s| {
                        s.name.ends_with(suffix) && !s.name.starts_with("ocl.") && within(s, root)
                    })
                    .map(|s| ms(s.wall_ns()))
                    .sum::<f64>()
            };
            RootSplit {
                total_ms: ms(root.wall_ns()),
                upload_ms: stage(".upload"),
                kernel_ms: stage(".kernel"),
                download_ms: stage(".download"),
            }
        })
        .collect()
}

/// `core.upload_ms`, `core.kernel_ms`, `core.download_ms` and
/// `core.self_ms` (the root span minus its stage spans: parse, plan,
/// codegen lookup, buffer management, field assembly) of the primary arm.
pub fn core_split(trace: &Trace, window_name: &str, arm: &str, out: &mut Values) {
    let roots = split_roots(trace, window_name, arm);
    let med = |f: fn(&RootSplit) -> f64| median(&roots.iter().map(f).collect::<Vec<_>>());
    out.push(("core.upload_ms".into(), med(|r| r.upload_ms)));
    out.push(("core.kernel_ms".into(), med(|r| r.kernel_ms)));
    out.push(("core.download_ms".into(), med(|r| r.download_ms)));
    out.push((
        "core.self_ms".into(),
        med(|r| r.total_ms - r.upload_ms - r.kernel_ms - r.download_ms),
    ));
}

/// Exact device-event counts of one op of `arm`.
fn profile_counts(arm: &str, profile: &ProfileReport, out: &mut Values) {
    let mut put = |name: &str, v: f64| out.push((format!("ocl.{name}.{arm}"), v));
    put("h2d_count", profile.count(EventKind::HostToDevice) as f64);
    put("d2h_count", profile.count(EventKind::DeviceToHost) as f64);
    put("kernel_count", profile.count(EventKind::KernelExec) as f64);
    put("h2d_bytes", profile.bytes(EventKind::HostToDevice) as f64);
    put("d2h_bytes", profile.bytes(EventKind::DeviceToHost) as f64);
    put("high_water_bytes", profile.high_water_bytes as f64);
    put("model_ms", profile.device_seconds() * 1e3);
}

/// Run this binary again as a child measuring the primary op: at `nproc`
/// threads on a steady heap (`exec`), or at one thread under glibc's
/// default allocator (`coldheap`). Returns `(forkjoin_us, op_ms)`.
pub fn child(kind: &str, cfg: &Config) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    match kind {
        "exec" => cmd.env("DFG_NUM_THREADS", sys::nproc().to_string()),
        _ => cmd.env("DFG_PERF_COLD_HEAP", "1"),
    };
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("{kind} child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut nums = text
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .map(str::parse::<f64>);
    match (output.status.success(), nums.next(), nums.next()) {
        (true, Some(Ok(forkjoin_us)), Some(Ok(op_ms))) => Ok((forkjoin_us, op_ms)),
        _ => Err(format!(
            "{kind} child failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// `bench.*` ceilings, the layer probes that need no workload state, and
/// the two children; shared by the engine and serve traced runs.
pub fn common_probes(
    cfg: &Config,
    lanes: usize,
    op_ms: f64,
    tracer: &Tracer,
    gate: &mut Gate,
    out: &mut Values,
) -> f64 {
    let (memcpy_gbs, triad_gbs) = sys::bandwidth_gbs(lanes, 7);
    out.push(("bench.memcpy_gbs".into(), memcpy_gbs));
    out.push(("bench.triad_gbs".into(), triad_gbs));
    layers::ocl(cfg.quick, tracer, out);
    layers::trace(out);
    out.push(("exec.threads".into(), sys::nproc() as f64));
    for kind in ["exec", "coldheap"] {
        let _s = span!(tracer, "bench.child", kind = kind);
        match child(kind, cfg) {
            Ok((forkjoin_us, child_op_ms)) if kind == "exec" => {
                out.push(("exec.forkjoin_us".into(), forkjoin_us));
                out.push(("exec.op_mt_ms".into(), child_op_ms));
                out.push(("exec.speedup".into(), op_ms / child_op_ms));
            }
            Ok((_, child_op_ms)) => out.push(("bench.op_coldheap_ms".into(), child_op_ms)),
            Err(e) => {
                gate.attempted += 1;
                gate.fail(e);
            }
        }
    }
    triad_gbs
}

/// Order `found` as `BENCHMARK.json` lists the per-layer metrics, reading 0
/// where a metric does not apply to this workload.
pub fn in_contract_order(found: Values) -> Values {
    metrics::per_layer()
        .into_iter()
        .map(|m| {
            let value = found
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name, value)
        })
        .collect()
}

pub fn write_chrome_trace(cfg: &Config, trace: &Trace, gate: &mut Gate) {
    let path = out_dir().join(format!("trace-{}.json", cfg.workload));
    if let Err(e) = std::fs::write(&path, trace.to_chrome_trace()) {
        gate.attempted += 1;
        gate.fail(format!("writing {}: {e}", path.display()));
    }
}

/// Traced run of an engine workload. `extra` adds what only this workload
/// has (session counters, the solver step).
pub fn run<B: Bench>(
    cfg: &Config,
    build: impl Fn(Option<&Tracer>) -> B,
    extra: impl FnOnce(&B, &mut Values),
) -> Traced {
    let tracer = Tracer::new();
    let mut gate = Gate::default();
    let mut out = Values::new();
    // Two builds of the same workload: ops on `plain` are the untraced
    // baseline of `bench.trace_overhead`, taken in the same rounds.
    let mut plain = build(None);
    let mut traced = build(Some(&tracer));
    let arms: Vec<&'static str> = traced
        .arms()
        .iter()
        .chain(traced.trace_only_arms())
        .copied()
        .collect();
    let primary = arms[0];

    plain.prepare();
    let (state, ran) = (plain.state(), plain.run(0));
    gate.op("cold untraced", state, ran);
    for (arm, name) in arms.iter().enumerate() {
        let _s = span!(tracer, "bench.cold", arm = *name);
        traced.prepare();
        let (state, ran) = (traced.state(), traced.run(arm));
        gate.op(&format!("cold {name}"), state, ran);
    }

    // Page faults and CPU time of the untraced op, over a burst of them.
    let (faults0, cpu0) = sys::faults_and_cpu_ms();
    for _ in 0..ROUNDS {
        plain.prepare();
        let (state, ran) = (plain.state(), plain.run(0));
        gate.op("burst", state, ran);
    }
    let (faults1, cpu1) = sys::faults_and_cpu_ms();
    out.push((
        "bench.minflt_per_op".into(),
        (faults1 - faults0) as f64 / ROUNDS as f64,
    ));
    out.push(("bench.cpu_ms_per_op".into(), (cpu1 - cpu0) / ROUNDS as f64));

    let mut untraced_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let mut arm_ms = vec![Vec::new(); arms.len()];
    let mut profiles: Vec<Option<ProfileReport>> = vec![None; arms.len()];
    let mut op_id = 0u64;
    for _ in 0..ROUNDS {
        calib_ms.push(sys::calib_ms());
        plain.prepare();
        let state = plain.state();
        let t = Instant::now();
        let ran = plain.run(0);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        gate.op("untraced", state, ran);
        for (arm, name) in arms.iter().enumerate() {
            traced.prepare();
            let state = traced.state();
            op_id += 1;
            let op_span = span!(tracer, "bench.op", arm = *name, op = op_id);
            let t = Instant::now();
            let ran = traced.run(arm);
            arm_ms[arm].push(t.elapsed().as_secs_f64() * 1e3);
            drop(op_span);
            if let Some(ran) = gate.op(name, state, ran) {
                profiles[arm] = Some(ran.report.profile);
            }
        }
    }
    check_reference(&mut traced, &mut gate);

    let op_ms = median(&untraced_ms);
    out.push(("bench.calib_ms".into(), median(&calib_ms)));
    out.push((
        "bench.trace_overhead".into(),
        median(&arm_ms[0]) / op_ms - 1.0,
    ));
    for (arm, name) in arms.iter().enumerate() {
        out.push((format!("core.{name}_ms"), median(&arm_ms[arm])));
        if let Some(profile) = &profiles[arm] {
            profile_counts(name, profile, &mut out);
        }
    }
    if let Some(profile) = &profiles[0] {
        out.push((
            "core.model_error".into(),
            op_ms / (profile.device_seconds() * 1e3),
        ));
    }
    core_split(&tracer.snapshot(), "bench.op", primary, &mut out);
    extra(&traced, &mut out);

    let probe = traced.probe();
    layers::mesh(probe.dims, &tracer, &mut out);
    layers::front_end(&probe, &tracer, &mut out);
    let triad_gbs = common_probes(
        cfg,
        probe.fields.ncells(),
        op_ms,
        &tracer,
        &mut gate,
        &mut out,
    );
    layers::kernels(&probe, &tracer, op_ms, triad_gbs, &mut out);

    write_chrome_trace(cfg, &tracer.snapshot(), &mut gate);
    Traced {
        values: in_contract_order(out),
        gate,
    }
}

/// What a child invocation prints: `forkjoin_us op_ms`, the op being the
/// median of at least [`ROUNDS`] primary ops after one cold op.
pub fn child_report(op_ms: impl FnOnce() -> Result<f64, String>) -> i32 {
    let forkjoin_us = layers::forkjoin_us();
    match op_ms() {
        Ok(ms) => {
            println!("{forkjoin_us} {ms}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// The child's measurement for an engine workload.
pub fn child_op_ms<B: Bench>(mut bench: B) -> Result<f64, String> {
    let mut samples = Vec::new();
    let started = Instant::now();
    for i in 0.. {
        bench.prepare();
        let t = Instant::now();
        bench.run(0)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // The first op is cold.
        if i > 0 {
            samples.push(ms);
        }
        if samples.len() >= ROUNDS && (started.elapsed().as_secs_f64() > 1.0 || samples.len() >= 50)
        {
            break;
        }
    }
    Ok(median(&samples))
}
