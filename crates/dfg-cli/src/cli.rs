//! Subcommand dispatch and implementations.

use std::collections::HashMap;

use dfg_cluster::render::render_slice;
use dfg_core::{plan, Engine, EngineOptions, Exec, FieldSet, Request, Strategy};
use dfg_dataflow::Width;
use dfg_expr::compile;
use dfg_mesh::{RectilinearMesh, RtWorkload, TABLE1_CATALOG};
use dfg_ocl::{DeviceProfile, EventKind, ExecMode};
use dfg_sim::FlowSimulation;
use dfg_trace::Tracer;
use dfg_vtk::io::{read_vtk, write_vtk};
use dfg_vtk::{DataArray, RectilinearDataset};

use crate::parse_grid;

/// Format an engine error, rendering parse failures as caret diagnostics.
fn pretty_engine_err(e: &dfg_core::EngineError, source: &str) -> String {
    if let dfg_core::EngineError::Frontend(dfg_expr::FrontendError::Parse(p)) = e {
        format!("\n{}", p.render(source))
    } else {
        e.to_string()
    }
}

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage:
  dfgc run   --expr <program> [--expr-file <path>]
             [--grid NXxNYxNZ | --input <in.vtk>]
             [--strategy fusion|staged|roundtrip|streamed] [--device cpu|gpu]
             [--output <out.vtk>] [--render <slice.ppm>] [--trace <trace.json>]
             [--faults <spec>] [--max-retries <n>] [--fallback on|off]
             [--verify off|residents|full]
  dfgc run   --ranks <n> --grid NXxNYxNZ [--blocks NXxNYxNZ]
             [--workload q|vorticity|vmag] [--mode real|model]
             [--strategy fusion|staged|roundtrip] [--device cpu|gpu]
             [--faults <spec>] [--deadline-ms <n>] [--max-retries <n>]
             [--fallback on|off] [--verify off|residents|full]
             [--output <out.vtk>] [--trace <trace.json>]
  dfgc plan  --expr <program> --grid NXxNYxNZ
  dfgc profile <program> [--grid NXxNYxNZ | --input <in.vtk>]
             [--device cpu|gpu] [--out-dir <dir>]
             [--opt off|cse|default|fast] [--verify off|residents|full]
             [--budget-mb <n>]
  dfgc insitu [--cycles <n>] [--grid NXxNYxNZ] [--expr <program>]
             [--strategy fusion|staged|roundtrip|streamed] [--device cpu|gpu]
  dfgc parse --expr <program>
  dfgc serve [--addr HOST:PORT] [--addr-file <path>] [--device cpu|gpu]
             [--queue <n>] [--batch-window-ms <n>] [--coalesce on|off]
             [--quota-mb <n>] [--recovery on|off]
             [--deadline-ms <n>] [--idle-ttl-s <n>] [--max-line-kb <n>]
             [--pressure-mb <n>] [--conn-faults <plan>]
  dfgc bench-clients --addr HOST:PORT [--tenants <n>] [--requests <n>]
             [--expr <program>] [--grid NXxNYxNZ] [--data on|off]
  dfgc kernels
  dfgc info";

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `--key value` pairs for subcommand `sub`, accepting only the
    /// flags that subcommand reads — a typo or a stale flag is an error,
    /// never a silent default.
    fn parse(args: &[String], sub: &str, accepted: &[&str]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            if !accepted.contains(&key) {
                return Err(format!("unknown flag `--{key}` for `{sub}`"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            if flags.insert(key.to_string(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn expression(&self) -> Result<String, String> {
        match (self.get("expr"), self.get("expr-file")) {
            (Some(e), None) => Ok(format!("{e}\n")),
            (None, Some(path)) => {
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
            }
            (Some(_), Some(_)) => Err("give --expr or --expr-file, not both".into()),
            (None, None) => Err("an expression is required (--expr / --expr-file)".into()),
        }
    }
}

fn device_of(name: Option<&str>) -> Result<DeviceProfile, String> {
    match name.unwrap_or("gpu") {
        "cpu" => Ok(DeviceProfile::intel_x5660()),
        "gpu" => Ok(DeviceProfile::nvidia_m2050()),
        other => Err(format!("unknown device `{other}` (cpu|gpu)")),
    }
}

/// Flags `dfgc profile` reads (it parses its own arguments: the expression
/// may be positional).
const PROFILE_FLAGS: &[&str] = &[
    "expr",
    "expr-file",
    "grid",
    "input",
    "device",
    "out-dir",
    "opt",
    "verify",
    "budget-mb",
];

/// Entry point: route to a subcommand, handing each the flags it reads.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err("a subcommand is required".into());
    };
    let rest = &args[1..];
    let parse = |accepted: &[&str]| Args::parse(rest, sub, accepted);
    match sub {
        "run" => cmd_run(&parse(&[
            "expr",
            "expr-file",
            "grid",
            "input",
            "strategy",
            "device",
            "output",
            "render",
            "trace",
            "faults",
            "max-retries",
            "fallback",
            "verify",
            "ranks",
            "blocks",
            "workload",
            "mode",
            "deadline-ms",
        ])?),
        "plan" => cmd_plan(&parse(&["expr", "expr-file", "grid"])?),
        "profile" => cmd_profile(rest),
        "insitu" => cmd_insitu(&parse(&[
            "cycles",
            "grid",
            "expr",
            "expr-file",
            "strategy",
            "device",
        ])?),
        "parse" => cmd_parse(&parse(&["expr", "expr-file"])?),
        "serve" => cmd_serve(&parse(&[
            "addr",
            "addr-file",
            "device",
            "queue",
            "batch-window-ms",
            "coalesce",
            "quota-mb",
            "recovery",
            "deadline-ms",
            "idle-ttl-s",
            "max-line-kb",
            "pressure-mb",
            "conn-faults",
        ])?),
        "bench-clients" => cmd_bench_clients(&parse(&[
            "addr", "tenants", "requests", "expr", "grid", "data",
        ])?),
        "kernels" => {
            parse(&[])?;
            cmd_kernels();
            Ok(())
        }
        "info" => {
            parse(&[])?;
            cmd_info();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn load_dataset(args: &Args) -> Result<RectilinearDataset, String> {
    match (args.get("grid"), args.get("input")) {
        (Some(g), None) => {
            let dims = parse_grid(g)?;
            let mesh = RectilinearMesh::unit_cube(dims);
            let workload = RtWorkload::paper_default();
            let (u, v, w) = workload.sample_velocity(&mesh);
            let mut ds = RectilinearDataset::new(mesh);
            ds.set_array("u", DataArray::scalar(u)).expect("length");
            ds.set_array("v", DataArray::scalar(v)).expect("length");
            ds.set_array("w", DataArray::scalar(w)).expect("length");
            Ok(ds)
        }
        (None, Some(path)) => {
            read_vtk(std::path::Path::new(path)).map_err(|e| format!("reading {path}: {e}"))
        }
        (Some(_), Some(_)) => Err("give --grid or --input, not both".into()),
        (None, None) => Err("a data source is required (--grid / --input)".into()),
    }
}

fn fieldset_of(ds: &RectilinearDataset) -> FieldSet {
    let mut fields = FieldSet::new(ds.ncells());
    let (x, y, z) = ds.mesh.coord_arrays();
    fields.insert_scalar("x", x).expect("mesh length");
    fields.insert_scalar("y", y).expect("mesh length");
    fields.insert_scalar("z", z).expect("mesh length");
    fields.insert_small("dims", ds.mesh.dims_buffer());
    for name in ds.array_names() {
        let arr = ds.array(name).expect("listed");
        if arr.ncomp == 1 {
            fields
                .insert_scalar(name, arr.data.clone())
                .expect("validated by dataset");
        }
    }
    fields
}

/// Recovery flags for `run`: `--faults <spec>` installs a deterministic
/// fault plan, `--max-retries <n>` and `--fallback on|off` shape the
/// [`dfg_core::RecoveryPolicy`]. Giving any of the three enables recovery.
fn recovery_of(
    args: &Args,
) -> Result<(dfg_core::RecoveryPolicy, Option<dfg_ocl::FaultPlan>), String> {
    let plan = args
        .get("faults")
        .map(|spec| dfg_ocl::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}")))
        .transpose()?;
    let max_retries = args
        .get("max-retries")
        .map(|s| {
            s.parse::<u32>()
                .map_err(|_| format!("--max-retries must be an integer, got `{s}`"))
        })
        .transpose()?;
    let fallback = args
        .get("fallback")
        .map(|s| match s {
            "on" | "true" | "1" => Ok(true),
            "off" | "false" | "0" => Ok(false),
            other => Err(format!("--fallback takes on|off, got `{other}`")),
        })
        .transpose()?;
    let engaged = plan.is_some() || max_retries.is_some() || fallback.is_some();
    let policy = if engaged {
        dfg_core::RecoveryPolicy {
            max_retries: max_retries.unwrap_or(3),
            fallback: fallback.unwrap_or(true),
        }
    } else {
        dfg_core::RecoveryPolicy::disabled()
    };
    Ok((policy, plan))
}

/// `--verify off|residents|full` selects the silent-corruption
/// verification level (default off: the paper's unverified behavior).
fn verify_of(args: &Args) -> Result<dfg_ocl::VerifyPolicy, String> {
    match args.get("verify") {
        Some(s) => s
            .parse::<dfg_ocl::VerifyPolicy>()
            .map_err(|_| format!("--verify takes off|residents|full, got `{s}`")),
        None => Ok(dfg_ocl::VerifyPolicy::Off),
    }
}

/// One summary line for the integrity counters of a finished run.
fn print_integrity(policy: dfg_ocl::VerifyPolicy, report: &dfg_core::ExecReport) {
    if !policy.enabled() {
        return;
    }
    let healed = report
        .recovery
        .as_ref()
        .map(|r| r.integrity_healed)
        .unwrap_or(0);
    println!(
        "integrity ({}): {} check(s), {} violation(s), {} buffer(s) healed",
        policy.name(),
        report.integrity.checks,
        report.integrity.violations,
        healed,
    );
}

/// Render a [`dfg_core::RecoveryReport`] as one summary line plus one line
/// per attempt.
fn print_recovery(r: &dfg_core::RecoveryReport) {
    use dfg_core::AttemptOutcome;
    println!(
        "recovery: {} attempt(s), {} retries, {} fallbacks, {:.1} us backoff{}",
        r.attempts.len(),
        r.retries,
        r.fallbacks,
        r.backoff_seconds * 1e6,
        if r.degraded {
            " — completed on a fallback strategy"
        } else {
            ""
        },
    );
    for a in &r.attempts {
        let what = match &a.outcome {
            AttemptOutcome::Succeeded => "succeeded".to_string(),
            AttemptOutcome::Retried { backoff_seconds } => {
                format!("retried after {:.1} us", backoff_seconds * 1e6)
            }
            AttemptOutcome::FellBack => "fell back".to_string(),
            AttemptOutcome::Skipped {
                required_bytes,
                capacity_bytes,
            } => format!(
                "skipped (needs {:.1} MB, device has {:.1} MB)",
                *required_bytes as f64 / 1e6,
                *capacity_bytes as f64 / 1e6
            ),
            AttemptOutcome::Exhausted => "exhausted".to_string(),
        };
        match &a.error {
            Some(e) => println!("  {:<12} {what}: {e}", a.level.name()),
            None => println!("  {:<12} {what}", a.level.name()),
        }
    }
}

/// `dfgc run --ranks N`: the simulated-cluster path. Runs one of the
/// paper's workloads distributed across N ranks with halo exchange, prints
/// the per-rank attempt log, and — the part a single-engine run never
/// shows — the degraded/lost-rank summary: which ranks fell back, died, or
/// hung, and where their blocks went.
fn cmd_run_distributed(args: &Args) -> Result<(), String> {
    use dfg_cluster::{run_distributed, run_distributed_traced, Cluster, DistOptions};

    let ranks = args
        .get("ranks")
        .expect("caller checked")
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or("--ranks must be a positive integer")?;
    if args.get("expr").is_some() || args.get("expr-file").is_some() {
        return Err("distributed runs take --workload, not --expr".into());
    }
    if args.get("input").is_some() {
        return Err("distributed runs sample their own data; use --grid, not --input".into());
    }
    let dims = parse_grid(args.get("grid").ok_or("--grid is required with --ranks")?)?;
    let nblocks = match args.get("blocks") {
        Some(b) => parse_grid(b)?,
        None => [ranks, 1, 1],
    };
    let workload = match args.get("workload").unwrap_or("q") {
        "q" | "q-criterion" => dfg_core::Workload::QCriterion,
        "vorticity" | "vortmag" => dfg_core::Workload::VorticityMagnitude,
        "vmag" | "velocity" => dfg_core::Workload::VelocityMagnitude,
        other => return Err(format!("unknown workload `{other}` (q|vorticity|vmag)")),
    };
    let mode = match args.get("mode").unwrap_or("real") {
        "real" => ExecMode::Real,
        "model" => ExecMode::Model,
        other => return Err(format!("--mode takes real|model, got `{other}`")),
    };
    let strategy = match args.get("strategy").unwrap_or("fusion").parse()? {
        Exec::Roundtrip => Strategy::Roundtrip,
        Exec::Staged => Strategy::Staged,
        Exec::Fusion => Strategy::Fusion,
        Exec::Streamed(_) => {
            return Err(
                "the streamed strategy is per-device; distributed runs take \
                        fusion|staged|roundtrip"
                    .into(),
            )
        }
    };
    let (recovery, _) = recovery_of(args)?;
    let deadline = args
        .get("deadline-ms")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--deadline-ms must be an integer, got `{s}`"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis);

    let mesh = RectilinearMesh::unit_cube(dims);
    let rt = RtWorkload::paper_default();
    let cluster = Cluster {
        nodes: ranks,
        devices_per_node: 1,
        profile: device_of(args.get("device"))?,
    };
    let opts = DistOptions {
        workload,
        strategy,
        mode,
        recovery,
        fault_spec: args.get("faults").map(str::to_string),
        exchange_deadline: deadline.unwrap_or(DistOptions::default().exchange_deadline),
        verify: verify_of(args)?,
    };
    let traced = args.get("trace").is_some();
    let result = if traced {
        run_distributed_traced(&mesh, nblocks, &rt, &cluster, &opts)
    } else {
        run_distributed(&mesh, nblocks, &rt, &cluster, &opts)
    }
    .map_err(|e| e.to_string())?;

    println!(
        "distributed `{}` over {}x{}x{} cells: {} blocks on {} ranks ({}), {}",
        workload.table2_name(),
        dims[0],
        dims[1],
        dims[2],
        result.blocks,
        result.ranks,
        cluster.profile.name,
        if mode == ExecMode::Real {
            "real execution"
        } else {
            "model only"
        },
    );
    println!(
        "makespan {:.3} ms modeled, {} kernels, peak {:.1} MB/device",
        result.makespan_seconds * 1e3,
        result.total_kernel_execs,
        result.max_high_water as f64 / 1e6,
    );
    println!();
    println!(
        "{:>5} {:<10} {:>7} {:>8} {:>8} {:>10} {:>12}",
        "rank", "outcome", "blocks", "adopted", "retries", "fallbacks", "device ms"
    );
    for a in &result.rank_log {
        println!(
            "{:>5} {:<10} {:>7} {:>8} {:>8} {:>10} {:>12.3}",
            a.rank,
            a.outcome.label(),
            a.blocks_assigned,
            a.adopted_blocks,
            a.recovery.retries,
            a.recovery.fallbacks,
            result.rank_device_seconds[a.rank] * 1e3,
        );
    }
    println!();
    if result.degraded {
        println!("degraded run:");
        if !result.lost_ranks.is_empty() {
            let moved: Vec<String> = result
                .redistributed_blocks
                .iter()
                .map(|(b, a)| format!("{b}->{a}"))
                .collect();
            println!(
                "  lost ranks {:?}; {} block(s) redistributed: {}",
                result.lost_ranks,
                result.redistributed_blocks.len(),
                moved.join(", "),
            );
        }
        if !result.degraded_ranks.is_empty() {
            println!(
                "  ranks {:?} completed on a fallback strategy",
                result.degraded_ranks
            );
        }
        if result.ghost_filled_faces > 0 {
            println!(
                "  {} ghost face(s) filled analytically ({} exchange timeouts, {} dropped sends)",
                result.ghost_filled_faces, result.exchange_timeouts, result.exchange_drops,
            );
        }
        if result.garbled_faces > 0 {
            println!(
                "  {} halo face(s) failed checksum verification and were re-sampled",
                result.garbled_faces,
            );
        }
    } else {
        println!("all ranks completed on the requested strategy");
    }

    if let Some(path) = args.get("trace") {
        let trace = result.trace.as_ref().expect("traced run");
        std::fs::write(path, trace.to_chrome_trace())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if let Some(path) = args.get("output") {
        let Some(field) = &result.field else {
            return Err("--output needs --mode real (model runs produce no data)".into());
        };
        let mut ds = RectilinearDataset::new(mesh);
        ds.set_array(workload.table2_name(), DataArray::scalar(field.clone()))
            .map_err(|e| e.to_string())?;
        write_vtk(&ds, "dfgc distributed output", std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("dataset written to {path}");
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    if args.get("ranks").is_some() {
        return cmd_run_distributed(args);
    }
    let expression = args.expression()?;
    let mut ds = load_dataset(args)?;
    let fields = fieldset_of(&ds);
    let profile = device_of(args.get("device"))?;
    let exec: Exec = args.get("strategy").unwrap_or("fusion").parse()?;
    let (recovery, fault_plan) = recovery_of(args)?;
    let verify = verify_of(args)?;

    let mut engine = Engine::with_options(
        profile,
        EngineOptions {
            recovery,
            verify,
            ..EngineOptions::default()
        },
    );
    if let Some(plan) = fault_plan {
        engine.set_fault_plan(plan);
    }
    let (mut out, report) = engine
        .run(&Request::source(&expression, exec), &fields)
        .map_err(|e| {
            if let Some(r) = e.recovery() {
                print_recovery(r);
            }
            pretty_engine_err(&e, &expression)
        })?;

    let field = out.pop().expect("real-mode run");
    let name = compile(&expression)
        .ok()
        .and_then(|spec| spec.node(spec.result).name.clone())
        .unwrap_or_else(|| "derived".to_string());
    let (w, r, k) = report.table2_row();
    println!(
        "derived `{name}` over {} cells: {w} writes, {r} reads, {k} kernels, \
         {:.3} ms modeled, {:.3} ms wall, peak {:.1} MB",
        field.ncells,
        report.device_seconds() * 1e3,
        report.wall.as_secs_f64() * 1e3,
        report.high_water_bytes() as f64 / 1e6,
    );
    if let Some(r) = &report.recovery {
        print_recovery(r);
    }
    print_integrity(verify, &report);

    if let Some(path) = args.get("trace") {
        std::fs::write(path, report.profile.to_chrome_trace())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if let Some(path) = args.get("render") {
        if field.width != Width::Scalar {
            return Err("--render needs a scalar result".into());
        }
        let dims = ds.mesh.dims();
        let img = render_slice(&field.data, dims, 2, dims[2] / 2);
        img.write_ppm(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("rendering written to {path} ({}x{})", img.width, img.height);
    }
    if let Some(path) = args.get("output") {
        let array = match field.width {
            Width::Vec4 => {
                let mut data = Vec::with_capacity(3 * field.ncells);
                for i in 0..field.ncells {
                    data.extend_from_slice(&field.data[4 * i..4 * i + 3]);
                }
                DataArray::vector3(data)
            }
            _ => DataArray::scalar(field.data.clone()),
        };
        ds.set_array(&name, array).map_err(|e| e.to_string())?;
        write_vtk(&ds, "dfgc output", std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("dataset written to {path}");
    }
    Ok(())
}

/// `dfgc profile <expression>`: run the expression under every single-pass
/// strategy with a tracer attached, write one Chrome-trace JSON per
/// strategy, and print a comparison table plus flame summaries; then run
/// it streamed under `--budget-mb` and print the pipeline's queue stats.
fn cmd_profile(raw: &[String]) -> Result<(), String> {
    // The expression may be given positionally (`dfgc profile "mag = …"`)
    // or through the usual --expr / --expr-file flags.
    let (positional, rest) = match raw.first() {
        Some(a) if !a.starts_with("--") => (Some(a.clone()), &raw[1..]),
        _ => (None, raw),
    };
    let args = Args::parse(rest, "profile", PROFILE_FLAGS)?;
    let expression = match positional {
        Some(e) => {
            if args.get("expr").is_some() || args.get("expr-file").is_some() {
                return Err("give the expression positionally or via --expr, not both".into());
            }
            format!("{e}\n")
        }
        None => args.expression()?,
    };

    let ds = if args.get("grid").is_some() || args.get("input").is_some() {
        load_dataset(&args)?
    } else {
        // Default workload: the paper's RT velocity sample on a small grid,
        // large enough that per-stage times are visible, small enough to be
        // instant.
        let mesh = RectilinearMesh::unit_cube([32, 32, 32]);
        let workload = RtWorkload::paper_default();
        let (u, v, w) = workload.sample_velocity(&mesh);
        let mut ds = RectilinearDataset::new(mesh);
        ds.set_array("u", DataArray::scalar(u)).expect("length");
        ds.set_array("v", DataArray::scalar(v)).expect("length");
        ds.set_array("w", DataArray::scalar(w)).expect("length");
        ds
    };
    let fields = fieldset_of(&ds);
    let profile = device_of(args.get("device"))?;
    let opt_level = match args.get("opt") {
        Some(s) => dfg_dataflow::OptLevel::parse(s)
            .ok_or_else(|| format!("--opt takes off|cse|default|fast, got `{s}`"))?,
        None => dfg_dataflow::OptLevel::Off,
    };
    let verify = verify_of(&args)?;
    // Device budget of the streamed row; without the flag, the device's capacity.
    let budget = args
        .get("budget-mb")
        .map(|s| {
            s.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .map(|mb| mb << 20)
                .ok_or_else(|| format!("--budget-mb must be a positive integer, got `{s}`"))
        })
        .transpose()?;
    let out_dir = std::path::PathBuf::from(args.get("out-dir").unwrap_or("."));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;

    println!(
        "profiling `{}` over {} cells on {}",
        expression.trim(),
        fields.ncells(),
        profile.name
    );
    println!();

    struct Row {
        name: &'static str,
        /// The strategy table's line ([`strategy_line`]).
        line: String,
        flame: String,
        path: std::path::PathBuf,
        /// The verification table's line ([`verify_line`]).
        verified: String,
    }
    let mut rows = Vec::new();
    let mut opt_stats = None;
    let mut staged_kernels = Vec::new();
    for strategy in [Strategy::Roundtrip, Strategy::Staged, Strategy::Fusion] {
        let mut engine = Engine::with_options(
            profile.clone(),
            EngineOptions {
                optimize: opt_level,
                verify,
                ..EngineOptions::default()
            },
        );
        engine.set_tracer(Tracer::new());
        let request = Request::source(&expression, strategy);
        let (_, report) = engine
            .run(&request, &fields)
            .map_err(|e| pretty_engine_err(&e, &expression))?;
        opt_stats = engine.opt_stats(&expression);
        // With verification on, run the same strategy unverified too, so
        // the table can state the wall-clock cost of the checksum pass.
        let unverified_wall_ms = if verify.enabled() {
            let mut base = Engine::with_options(
                profile.clone(),
                EngineOptions {
                    optimize: opt_level,
                    ..EngineOptions::default()
                },
            );
            let (_, r) = base
                .run(&request, &fields)
                .map_err(|e| pretty_engine_err(&e, &expression))?;
            Some(r.wall.as_secs_f64() * 1e3)
        } else {
            None
        };
        let trace = report.trace.as_ref().expect("tracer attached");
        if strategy == Strategy::Staged {
            staged_kernels = staged_kernel_rows(trace);
        }
        let path = out_dir.join(format!("trace-{}.json", strategy.name()));
        std::fs::write(&path, trace.to_chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        rows.push(Row {
            name: strategy.name(),
            line: strategy_line(strategy.name(), &report),
            flame: trace.to_flame_text(),
            path,
            verified: verify_line(strategy.name(), &report, unverified_wall_ms),
        });
    }

    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>12} {:>10} {:>9} {:>9} {:>10} {:>10}",
        "strategy",
        "Dev-W",
        "Dev-R",
        "K-Exe",
        "device s",
        "wall ms",
        "peak MB",
        "moved MB",
        "copied MB",
        "zeroed MB"
    );
    for row in &rows {
        println!("{}", row.line);
    }
    println!(
        "(moved: modeled host<->device transfer volume; copied: bytes the host \
         physically copied for it — whole-field uploads adopt the host's arrays, \
         and a one-shot download takes the device's storage; zeroed: device \
         lanes the host cleared because no kernel or upload writes them)"
    );
    println!();
    println!(
        "staged launches by kernel (wall: `staged.kernel` spans; modeled: their device events)"
    );
    println!(
        "  {:<16} {:>8} {:>10} {:>11}",
        "kernel", "launches", "wall ms", "modeled ms"
    );
    for row in &staged_kernels {
        println!(
            "  {:<16} {:>8} {:>10.3} {:>11.3}",
            row.kernel, row.launches, row.wall_ms, row.modeled_ms
        );
    }
    if verify.enabled() {
        println!();
        println!("integrity verification ({}):", verify.name());
        for row in &rows {
            println!("{}", row.verified);
        }
    }
    if let Some(opt) = opt_stats {
        println!();
        println!(
            "optimizer ({}): {} -> {} filters ({} eliminated: {} merged, {} folded, \
             {} rewritten) in {} pass{}, {} intermediate bytes/cell saved",
            opt.level.name(),
            opt.filters_before,
            opt.filters_after,
            opt.filters_eliminated(),
            opt.merged,
            opt.folded,
            opt.rewritten,
            opt.passes,
            if opt.passes == 1 { "" } else { "es" },
            opt.bytes_saved_per_cell,
        );
    }
    for row in &rows {
        println!();
        println!(
            "--- {} (chrome trace: {}) ---",
            row.name,
            row.path.display()
        );
        print!("{}", row.flame);
    }
    // The streamed pipeline under the budget, with its queue-level
    // occupancy breakdown.
    let mut engine = Engine::with_options(
        profile.clone(),
        EngineOptions {
            optimize: opt_level,
            verify,
            ..EngineOptions::default()
        },
    );
    engine.set_tracer(Tracer::new());
    let (_, report) = engine
        .run(
            &Request::source(&expression, Exec::Streamed(budget)),
            &fields,
        )
        .map_err(|e| pretty_engine_err(&e, &expression))?;
    let trace = report.trace.as_ref().expect("tracer attached");
    let path = out_dir.join("trace-streamed.json");
    std::fs::write(&path, trace.to_chrome_trace())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let p = &report.profile;
    let pipeline = |key: &str| {
        trace
            .spans()
            .iter()
            .find(|s| s.name == "stream.pipeline")
            .and_then(|s| s.meta_u64(key))
            .unwrap_or(0)
    };
    let (slabs, slots) = (pipeline("slabs"), pipeline("depth"));
    println!();
    println!(
        "--- streamed pipeline (chrome trace: {}) ---",
        path.display()
    );
    println!(
        "  {slabs} slab{} through {slots} ring slot{}, peak {:.1} MB of a {:.1} MB budget",
        if slabs == 1 { "" } else { "s" },
        if slots == 1 { "" } else { "s" },
        report.high_water_bytes() as f64 / 1e6,
        budget.unwrap_or(profile.global_mem_bytes) as f64 / 1e6,
    );
    println!(
        "  makespan {:.6}s vs {:.6}s serialized ({:.6}s of transfer hidden, \
         overlap efficiency {:.0}%)",
        p.makespan_seconds(),
        p.device_seconds(),
        p.overlap_hidden_seconds(),
        p.overlap_efficiency() * 100.0,
    );
    for q in p.queues_used() {
        println!(
            "  queue {q}: busy {:.6}s, occupancy {:.0}%",
            p.queue_busy_seconds(q),
            p.queue_occupancy(q) * 100.0,
        );
    }
    let pool = dfg_exec::global();
    let (executed, steals) = pool.stats();
    println!();
    println!(
        "dfg-exec pool: {} thread{} ({}), {executed} jobs run by workers, {steals} stolen",
        pool.num_threads(),
        if pool.num_threads() == 1 { "" } else { "s" },
        if std::env::var("DFG_NUM_THREADS").map(|v| !v.trim().is_empty()) == Ok(true) {
            "DFG_NUM_THREADS"
        } else {
            "available parallelism"
        },
    );
    Ok(())
}

/// One line of `dfgc profile`'s strategy table: Table II's counts, modeled
/// device seconds, wall ms, peak MB, and the modeled transfer volume (both
/// directions) beside the bytes the host physically copied to carry it out
/// and the bytes of device storage it zero-filled.
fn strategy_line(name: &str, report: &dfg_core::ExecReport) -> String {
    let (w, r, k) = report.table2_row();
    let p = &report.profile;
    let moved = p.bytes(EventKind::HostToDevice) + p.bytes(EventKind::DeviceToHost);
    format!(
        "{name:<10} {w:>6} {r:>6} {k:>6} {:>12.6} {:>10.3} {:>9.1} {:>9.2} {:>10.2} {:>10.2}",
        report.device_seconds(),
        report.wall.as_secs_f64() * 1e3,
        report.high_water_bytes() as f64 / 1e6,
        moved as f64 / 1e6,
        p.host_bytes_copied as f64 / 1e6,
        p.host_bytes_zeroed as f64 / 1e6,
    )
}

/// One line of `dfgc profile`'s verification table: checks, violations,
/// the bytes checksummed and the wall ms beside an unverified run's.
fn verify_line(
    name: &str,
    report: &dfg_core::ExecReport,
    unverified_wall_ms: Option<f64>,
) -> String {
    let wall_ms = report.wall.as_secs_f64() * 1e3;
    let base = unverified_wall_ms.unwrap_or(wall_ms);
    let overhead = if base > 0.0 {
        (wall_ms / base - 1.0) * 100.0
    } else {
        0.0
    };
    format!(
        "  {name:<10} {} check(s), {} violation(s), {:.3} MB hashed, wall {wall_ms:.3} ms \
         vs {base:.3} ms unverified ({overhead:+.1}%)",
        report.integrity.checks,
        report.integrity.violations,
        report.profile.host_bytes_hashed as f64 / 1e6,
    )
}

/// One row of `dfgc profile`'s staged attribution: every launch of one
/// kernel name.
#[derive(Debug, Default)]
struct KernelRow {
    kernel: String,
    launches: usize,
    wall_ms: f64,
    modeled_ms: f64,
}

/// A staged run's launches grouped by kernel name, most wall time first:
/// wall time from the `staged.kernel` spans, modeled time from the
/// `ocl.kernel` device event each of them records.
fn staged_kernel_rows(trace: &dfg_trace::Trace) -> Vec<KernelRow> {
    let spans = trace.spans();
    let mut rows: Vec<KernelRow> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let Some(dfg_trace::MetaValue::Str(kernel)) = span.meta_get("kernel") else {
            continue;
        };
        if span.name != "staged.kernel" {
            continue;
        }
        let modeled_s: f64 = (spans.iter())
            .filter(|event| event.parent == Some(i) && event.name == "ocl.kernel")
            .filter_map(|event| event.virt_seconds())
            .sum();
        let at = rows
            .iter()
            .position(|r| &r.kernel == kernel)
            .unwrap_or_else(|| {
                rows.push(KernelRow {
                    kernel: kernel.clone(),
                    ..KernelRow::default()
                });
                rows.len() - 1
            });
        rows[at].launches += 1;
        rows[at].wall_ms += span.wall_ns() as f64 / 1e6;
        rows[at].modeled_ms += modeled_s * 1e3;
    }
    rows.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
    rows
}

/// `dfgc insitu`: drive the miniature flow solver for N cycles under a
/// persistent [`dfg_core::Session`], deriving the expression every cycle —
/// the in-situ hot loop with uploads, codegen, and buffer allocations
/// amortized across cycles.
fn cmd_insitu(args: &Args) -> Result<(), String> {
    let cycles = match args.get("cycles") {
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--cycles must be a positive integer, got `{s}`"))?,
        None => 16,
    };
    let dims = match args.get("grid") {
        Some(g) => parse_grid(g)?,
        None => [32, 32, 32],
    };
    let expression = match (args.get("expr"), args.get("expr-file")) {
        (None, None) => format!("{}\n", dfg_core::workloads::Q_CRITERION),
        _ => args.expression()?,
    };
    let profile = device_of(args.get("device"))?;
    let exec: Exec = args.get("strategy").unwrap_or("fusion").parse()?;

    let mut sim = FlowSimulation::from_workload(dims, &RtWorkload::paper_default());
    let mut engine = Engine::with_options(profile.clone(), EngineOptions::default());
    let mut session = engine.session();

    println!(
        "in-situ session: {} cycles of `{}` over {}x{}x{} cells on {}",
        cycles,
        expression.trim(),
        dims[0],
        dims[1],
        dims[2],
        profile.name
    );
    println!();
    println!(
        "{:>5} {:>6} {:>6} {:>6} {:>12} {:>10}",
        "cycle", "Dev-W", "Dev-R", "K-Exe", "device ms", "wall ms"
    );
    for cycle in 0..cycles {
        sim.step(0.01);
        let (_, report) = session
            .run(&Request::source(&expression, exec), sim.fields())
            .map_err(|e| pretty_engine_err(&e, &expression))?;
        let (w, r, k) = report.table2_row();
        println!(
            "{cycle:>5} {w:>6} {r:>6} {k:>6} {:>12.3} {:>10.3}",
            report.device_seconds() * 1e3,
            report.wall.as_secs_f64() * 1e3,
        );
    }
    let pool_hits = session.pool_hits();
    let resident_mb = session.resident_bytes() as f64 / 1e6;
    let stats = session.end();
    println!();
    println!(
        "amortized across {} cycles: {} codegen+compile ({} served from cache), \
         {} uploads ({} skipped), {} pooled allocations, {:.1} MB resident",
        stats.cycles,
        stats.codegen_compiles,
        stats.codegen_cached,
        stats.uploads,
        stats.uploads_skipped,
        pool_hits,
        resident_mb,
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let expression = args.expression()?;
    let dims = parse_grid(args.get("grid").ok_or("--grid is required for `plan`")?)?;
    let spec = compile(&expression).map_err(|e| e.to_string())?;
    let ncells = (dims[0] * dims[1] * dims[2]) as u64;
    let devices = [DeviceProfile::intel_x5660(), DeviceProfile::nvidia_m2050()];
    let plan = plan(&spec, ncells, &devices).map_err(|e| e.to_string())?;
    println!(
        "{:<10} {:<34} {:>10} {:>10}",
        "strategy", "device", "seconds", "peak GB"
    );
    for opt in &plan.feasible {
        println!(
            "{:<10} {:<34} {:>10.4} {:>10.3}",
            opt.exec.name(),
            opt.device_name,
            opt.seconds,
            opt.peak_bytes as f64 / 1e9
        );
    }
    for (dev, strategy, bytes) in &plan.rejected {
        println!(
            "rejected: {strategy} on {} needs {:.2} GB",
            devices[*dev].name,
            *bytes as f64 / 1e9
        );
    }
    match plan.best() {
        Some(best) => println!(
            "\nbest: {} on {}",
            match best.exec {
                Exec::Streamed(_) => "fusion (streamed)",
                exec => exec.name(),
            },
            best.device_name
        ),
        None => println!("\nno feasible option on any device"),
    }
    Ok(())
}

fn cmd_parse(args: &Args) -> Result<(), String> {
    let expression = args.expression()?;
    let spec = compile(&expression).map_err(|e| match e {
        dfg_expr::FrontendError::Parse(p) => format!("\n{}", p.render(&expression)),
        other => other.to_string(),
    })?;
    println!("network: {} nodes", spec.len());
    println!();
    println!("{}", spec.to_script());
    match dfg_kernels::fuse(&spec) {
        Ok(program) => {
            println!("generated fused kernel:");
            println!();
            println!("{}", program.generated_source("dfgc_expr"));
        }
        Err(e) => println!("(not fusible: {e})"),
    }
    Ok(())
}

/// Print the shared building-block library (§III-B.3): every primitive's
/// OpenCL source, written once and reused by all execution strategies.
/// The `kernels` listing: one building block per scalar kind of the
/// operation table, then the non-scalar shapes.
fn kernels_listing() -> String {
    use dfg_kernels::{BinKind, Primitive, UnKind};
    let prims: Vec<Primitive> = (BinKind::ALL.into_iter().map(Primitive::Bin))
        .chain(UnKind::ALL.into_iter().map(Primitive::Un))
        .chain([
            Primitive::Select,
            Primitive::Compose3,
            Primitive::Decompose(0),
            Primitive::Norm3,
            Primitive::Dot3,
            Primitive::Cross3,
            Primitive::Grad3d,
        ])
        .collect();
    let mut out = format!(
        "the shared derived-field building-block library ({} primitives):\n\n",
        prims.len()
    );
    for p in prims {
        out.push_str(&p.opencl_source());
        out.push_str("\n\n");
    }
    out
}

fn cmd_kernels() {
    print!("{}", kernels_listing());
}

fn cmd_info() {
    println!("devices:");
    for profile in [DeviceProfile::intel_x5660(), DeviceProfile::nvidia_m2050()] {
        println!(
            "  {:<34} {:>7.2} GB, {:>6.1} GB/s mem, {:>6.0} GFLOP/s",
            profile.name,
            profile.global_mem_bytes as f64 / 1e9,
            profile.mem_bytes_per_sec / 1e9,
            profile.flops_per_sec / 1e9
        );
    }
    println!();
    println!("Table I evaluation grids:");
    for grid in TABLE1_CATALOG {
        println!(
            "  {grid}   {:>12} cells  {}",
            grid.ncells(),
            grid.data_size_display()
        );
    }
    let _ = ExecMode::Real; // re-exported surface sanity
}

fn on_off(args: &Args, key: &str, default: bool) -> Result<bool, String> {
    match args.get(key) {
        None => Ok(default),
        Some("on" | "true" | "1") => Ok(true),
        Some("off" | "false" | "0") => Ok(false),
        Some(other) => Err(format!("--{key} takes on|off, got `{other}`")),
    }
}

fn uint_of(args: &Args, key: &str, default: u64) -> Result<u64, String> {
    match args.get(key) {
        None => Ok(default),
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("--{key} must be an integer, got `{s}`")),
    }
}

/// `dfgc serve`: run the multi-tenant derived-field service until a
/// client sends `shutdown` (see docs/SERVING.md).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let profile = device_of(args.get("device"))?;
    let recovery = if on_off(args, "recovery", true)? {
        dfg_core::RecoveryPolicy::resilient()
    } else {
        dfg_core::RecoveryPolicy::disabled()
    };
    let config = dfg_serve::ServeConfig {
        profile,
        options: EngineOptions {
            recovery,
            ..EngineOptions::default()
        },
        queue_capacity: uint_of(args, "queue", 64)? as usize,
        batch_window: std::time::Duration::from_millis(uint_of(args, "batch-window-ms", 2)?),
        coalesce: on_off(args, "coalesce", true)?,
        default_quota: args
            .get("quota-mb")
            .map(|s| {
                s.parse::<u64>()
                    .map(|mb| mb * 1024 * 1024)
                    .map_err(|_| format!("--quota-mb must be an integer, got `{s}`"))
            })
            .transpose()?,
        default_deadline: args
            .get("deadline-ms")
            .map(|s| {
                s.parse::<u64>()
                    .map(std::time::Duration::from_millis)
                    .map_err(|_| format!("--deadline-ms must be an integer, got `{s}`"))
            })
            .transpose()?,
        idle_ttl: args
            .get("idle-ttl-s")
            .map(|s| {
                s.parse::<u64>()
                    .map(std::time::Duration::from_secs)
                    .map_err(|_| format!("--idle-ttl-s must be an integer, got `{s}`"))
            })
            .transpose()?,
        max_line_bytes: match args.get("max-line-kb") {
            Some(s) => s
                .parse::<usize>()
                .map(|kb| kb * 1024)
                .map_err(|_| format!("--max-line-kb must be an integer, got `{s}`"))?,
            None => dfg_serve::ServeConfig::default().max_line_bytes,
        },
        memory_pressure_bytes: args
            .get("pressure-mb")
            .map(|s| {
                s.parse::<u64>()
                    .map(|mb| mb * 1024 * 1024)
                    .map_err(|_| format!("--pressure-mb must be an integer, got `{s}`"))
            })
            .transpose()?,
        conn_faults: args
            .get("conn-faults")
            .map(|s| dfg_ocl::FaultPlan::parse(s).map_err(|e| format!("--conn-faults: {e}")))
            .transpose()?,
        ..dfg_serve::ServeConfig::default()
    };
    let server = dfg_serve::Server::start(addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr();
    if let Some(path) = args.get("addr-file") {
        std::fs::write(path, local.to_string()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("dfg-serve listening on {local} (send {{\"op\":\"shutdown\"}} to stop)");
    let counters = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    println!("{}", serve_exit_line(&counters));
    Ok(())
}

/// The line `dfgc serve` prints when the server stops.
fn serve_exit_line(counters: &dfg_serve::ServerCounters) -> String {
    format!(
        "served {} requests: {} ok ({} coalesced, {} degraded), \
         {} overloaded, {} over quota, {} errors, {} malformed, \
         {} too large, {} past deadline, {} cancelled, \
         {} sessions evicted ({} idle, {} pressure), {} grid field sets evicted",
        counters.requests,
        counters.ok,
        counters.coalesced,
        counters.degraded,
        counters.rejected_overload,
        counters.rejected_quota,
        counters.errors,
        counters.malformed,
        counters.rejected_too_large,
        counters.rejected_deadline,
        counters.cancelled,
        counters.evicted_idle + counters.evicted_pressure,
        counters.evicted_idle,
        counters.evicted_pressure,
        counters.evicted_fields,
    )
}

/// `dfgc bench-clients`: drive a running server with N tenant threads ×
/// M requests each and report throughput and latency percentiles.
fn cmd_bench_clients(args: &Args) -> Result<(), String> {
    let addr = args
        .get("addr")
        .ok_or("--addr is required (the server's address)")?
        .to_string();
    let tenants = uint_of(args, "tenants", 4)? as usize;
    let requests = uint_of(args, "requests", 20)? as usize;
    let expr = args
        .get("expr")
        .unwrap_or("vmag = sqrt(u*u + v*v + w*w)")
        .to_string();
    let grid = match args.get("grid") {
        Some(g) => parse_grid(g)?,
        None => [16, 16, 16],
    };
    let data = on_off(args, "data", false)?;

    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for t in 0..tenants {
        let addr = addr.clone();
        let expr = expr.clone();
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client =
                dfg_serve::Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let tenant = format!("bench-{t}");
            let mut latencies = Vec::with_capacity(requests);
            for _ in 0..requests {
                let t0 = std::time::Instant::now();
                client
                    .derive(&tenant, &expr, grid, dfg_serve::ExecStrategy::Fusion, data)
                    .map_err(|e| format!("{tenant}: {e}"))?;
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(latencies)
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(
            h.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    println!(
        "{} tenants x {} requests: {:.0} req/s, p50 {:.3} ms, p99 {:.3} ms",
        tenants,
        requests,
        latencies.len() as f64 / elapsed,
        pct(0.50),
        pct(0.99),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_ocl::VerifyPolicy;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn grid_parsing() {
        assert_eq!(crate::parse_grid("4x5x6").unwrap(), [4, 5, 6]);
        assert_eq!(crate::parse_grid("192X192X256").unwrap(), [192, 192, 256]);
        assert!(crate::parse_grid("4x5").is_err());
        assert!(crate::parse_grid("0x5x6").is_err());
        assert!(crate::parse_grid("axbxc").is_err());
    }

    #[test]
    fn args_require_values_and_no_duplicates() {
        let parse = |args: &[&str]| Args::parse(&strs(args), "parse", &["expr"]);
        assert!(parse(&["--expr"]).is_err());
        assert!(parse(&["--expr", "a", "--expr", "b"]).is_err());
        assert!(parse(&["positional"]).is_err());
        let a = parse(&["--expr", "r = u"]).unwrap();
        assert_eq!(a.get("expr"), Some("r = u"));
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected() {
        // A typo must not silently run the default strategy.
        let err = dispatch(&strs(&[
            "run",
            "--expr",
            "r = u",
            "--grid",
            "4x4x4",
            "--stratgy",
            "fusion",
        ]))
        .unwrap_err();
        assert_eq!(err, "unknown flag `--stratgy` for `run`");
        // A flag another subcommand reads is still unknown here, and a
        // removed flag is an error rather than an accepted no-op.
        let err = dispatch(&strs(&["parse", "--expr", "r = u", "--grid", "4x4x4"])).unwrap_err();
        assert_eq!(err, "unknown flag `--grid` for `parse`");
        // (spelled in two halves so a tree-wide search for the deleted
        // feature's name stays empty)
        let removed = concat!("--branch", "-parallel");
        let err = dispatch(&strs(&["profile", "r = u", removed, "on"])).unwrap_err();
        assert_eq!(err, format!("unknown flag `{removed}` for `profile`"));
        assert!(dispatch(&strs(&["info", "--verbose", "1"])).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_subcommands() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn run_on_synthetic_grid() {
        let dir = std::env::temp_dir().join("dfgc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.vtk");
        let trace = dir.join("trace.json");
        dispatch(&strs(&[
            "run",
            "--expr",
            "v_mag = sqrt(u*u + v*v + w*w)",
            "--grid",
            "8x8x8",
            "--output",
            out.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let ds = read_vtk(&out).unwrap();
        assert!(ds.has_array("v_mag"));
        assert!(std::fs::read_to_string(&trace).unwrap().starts_with('['));
    }

    #[test]
    fn run_round_trips_through_vtk_input() {
        // Write a dataset, read it back as --input, derive from it.
        let dir = std::env::temp_dir().join("dfgc_test_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.vtk");
        let output = dir.join("out.vtk");
        dispatch(&strs(&[
            "run",
            "--expr",
            "v_mag = sqrt(u*u + v*v + w*w)",
            "--grid",
            "6x6x6",
            "--output",
            input.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&strs(&[
            "run",
            "--expr",
            "twice = v_mag * 2",
            "--input",
            input.to_str().unwrap(),
            "--strategy",
            "staged",
            "--device",
            "cpu",
            "--output",
            output.to_str().unwrap(),
        ]))
        .unwrap();
        let ds = read_vtk(&output).unwrap();
        let vm = ds.array("v_mag").unwrap();
        let twice = ds.array("twice").unwrap();
        for i in 0..ds.ncells() {
            assert!((twice.data[i] - 2.0 * vm.data[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn profile_writes_a_chrome_trace_per_strategy() {
        let dir = std::env::temp_dir().join("dfgc_test_profile");
        std::fs::create_dir_all(&dir).unwrap();
        dispatch(&strs(&[
            "profile",
            "mag = sqrt(u*u + v*v + w*w)",
            "--grid",
            "8x8x8",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        for (strategy, stages) in [
            (
                "roundtrip",
                ["roundtrip.upload", "roundtrip.kernel", "roundtrip.download"],
            ),
            (
                "staged",
                ["staged.upload", "staged.kernel", "staged.download"],
            ),
            (
                "fusion",
                ["fusion.upload", "fusion.kernel", "fusion.download"],
            ),
            (
                "streamed",
                ["execute.streamed", "stream.pipeline", "stream.slab"],
            ),
        ] {
            let spans = complete_spans(&dir.join(format!("trace-{strategy}.json")));
            for required in ["parse", "plan", "ocl.kernel"].into_iter().chain(stages) {
                assert!(
                    spans.iter().any(|(name, _)| name == required),
                    "{strategy}: missing `{required}` span"
                );
            }
            if strategy == "fusion" {
                let (_, args) = (spans.iter().find(|(name, _)| name == "fusion.download"))
                    .expect("a download span");
                let handed_over = args.get("handed_over").and_then(|v| v.as_f64());
                assert_eq!(handed_over, Some(512.0), "every lane handed over");
            }
        }
        // The one-shot fusion row: the modeled volume is three 8³ uploads
        // and one download (8 192 B), of which the host copied nothing, and
        // the kernel wrote its output once, so nothing was zero-filled.
        let mut fields = FieldSet::new(512);
        for name in ["u", "v", "w"] {
            fields.insert_scalar(name, vec![0.5; 512]).unwrap();
        }
        let request = Request::source("mag = sqrt(u*u + v*v + w*w)", Strategy::Fusion);
        let (_, report) = Engine::new(DeviceProfile::nvidia_m2050())
            .run(&request, &fields)
            .unwrap();
        let line = strategy_line("fusion", &report);
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            cells[7..],
            ["0.01", "0.00", "0.00"],
            "moved, copied, zeroed MB: {line}"
        );
    }

    /// `dfgc profile`'s staged table: one row per kernel name, `decompose`
    /// launches among them, every launch counted once, and wall time that
    /// fits inside the run's.
    #[test]
    fn profile_attributes_staged_wall_time_by_kernel() {
        let mesh = RectilinearMesh::unit_cube([12, 10, 8]);
        let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        engine.set_tracer(Tracer::new());
        let source = dfg_core::workloads::Q_CRITERION;
        let request = Request::source(source, Strategy::Staged);
        let (_, report) = engine.run(&request, &fields).unwrap();
        let rows = staged_kernel_rows(report.trace.as_ref().unwrap());
        let decompose = rows.iter().find(|r| r.kernel == "decompose_s0").unwrap();
        assert_eq!(decompose.launches, 3);
        assert!(decompose.modeled_ms > 0.0);
        let launches: usize = rows.iter().map(|r| r.launches).sum();
        assert_eq!(launches, report.table2_row().2);
        let wall: f64 = rows.iter().map(|r| r.wall_ms).sum();
        assert!(wall <= report.wall.as_secs_f64() * 1e3, "{wall} ms");
        let modeled: f64 = rows.iter().map(|r| r.modeled_ms).sum();
        let device_ms = report.profile.seconds(EventKind::KernelExec) * 1e3;
        assert!((modeled - device_ms).abs() < 1e-9 * device_ms.max(1.0));
        assert!(rows.windows(2).all(|w| w[0].wall_ms >= w[1].wall_ms));
    }

    /// Every complete (`"ph": "X"`) event of a Chrome trace: name and args.
    fn complete_spans(path: &std::path::Path) -> Vec<(String, dfg_trace::json::Value)> {
        use dfg_trace::json::Value;
        let text = std::fs::read_to_string(path).unwrap();
        let doc = dfg_trace::json::parse(&text).expect("valid Chrome-trace JSON");
        doc.get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .filter_map(|e| {
                let name = e.get("name").and_then(Value::as_str)?;
                Some((
                    name.to_string(),
                    e.get("args").cloned().unwrap_or(Value::Null),
                ))
            })
            .collect()
    }

    #[test]
    fn profile_budget_sizes_the_streamed_slabs() {
        // On the default 32^3 grid, vorticity holds seven f32 lanes per
        // cell (917 KB): a 1 MB budget cannot take the grid in one of two
        // ring slots, so the streamed row splits it.
        let dir = std::env::temp_dir().join("dfgc_test_profile_budget");
        std::fs::create_dir_all(&dir).unwrap();
        dispatch(&strs(&[
            "profile",
            "q = norm(curl(u, v, w, dims, x, y, z))",
            "--budget-mb",
            "1",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let spans = complete_spans(&dir.join("trace-streamed.json"));
        let slabs = spans
            .iter()
            .find(|(name, _)| name == "stream.pipeline")
            .and_then(|(_, args)| args.get("slabs"))
            .and_then(dfg_trace::json::Value::as_f64)
            .expect("stream.pipeline records its slab count");
        assert!(
            slabs > 1.0,
            "--budget-mb 1 must split 32^3, got {slabs} slab"
        );
        // The ring depth is not a knob.
        let err = dispatch(&strs(&["profile", "r = u", "--stream", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag `--stream` for `profile`");
        let err = dispatch(&strs(&["profile", "r = u", "--budget-mb", "0"])).unwrap_err();
        assert!(err.contains("--budget-mb"), "got {err}");
    }

    #[test]
    fn profile_rejects_conflicting_expressions() {
        assert!(dispatch(&strs(&["profile", "a = u", "--expr", "b = v"])).is_err());
        assert!(dispatch(&strs(&["profile"])).is_err());
    }

    #[test]
    fn plan_and_parse_subcommands() {
        dispatch(&strs(&[
            "plan",
            "--expr",
            dfg_core::workloads::Q_CRITERION,
            "--grid",
            "192x192x1024",
        ]))
        .unwrap();
        dispatch(&strs(&["parse", "--expr", "r = sin(u) + cos(v)"])).unwrap();
        cmd_info();
    }

    #[test]
    fn streamed_strategy_via_cli() {
        dispatch(&strs(&[
            "run",
            "--expr",
            "q = norm(curl(u, v, w, dims, x, y, z))",
            "--grid",
            "12x12x12",
            "--strategy",
            "streamed",
            "--device",
            "cpu",
        ]))
        .unwrap();
    }

    #[test]
    fn kernels_subcommand_prints_library() {
        dispatch(&strs(&["kernels"])).unwrap();
        // One `dfg_<name>` building block per kind of the operation table,
        // and the headline count is the number of blocks printed.
        use dfg_kernels::{BinKind, UnKind};
        let listing = kernels_listing();
        let names =
            (BinKind::ALL.iter().map(|k| k.name())).chain(UnKind::ALL.iter().map(|k| k.name()));
        for name in names {
            let block = format!(" dfg_{name}(");
            assert_eq!(listing.matches(&block).count(), 1, "{name}");
        }
        let printed = listing.matches(" dfg_").count();
        assert!(listing.contains(&format!("({printed} primitives)")));
    }

    #[test]
    fn insitu_session_loop_via_cli() {
        dispatch(&strs(&[
            "insitu", "--cycles", "3", "--grid", "8x8x8", "--device", "cpu",
        ]))
        .unwrap();
        // Streamed variant exercises the session kernel cache too.
        dispatch(&strs(&[
            "insitu",
            "--cycles",
            "2",
            "--grid",
            "8x8x8",
            "--strategy",
            "streamed",
            "--device",
            "cpu",
        ]))
        .unwrap();
        assert!(dispatch(&strs(&["insitu", "--cycles", "0"])).is_err());
        assert!(dispatch(&strs(&["insitu", "--cycles", "many"])).is_err());
    }

    #[test]
    fn run_with_injected_faults_recovers() {
        // The first allocation dies; the fallback chain completes the run.
        dispatch(&strs(&[
            "run",
            "--expr",
            "v_mag = sqrt(u*u + v*v + w*w)",
            "--grid",
            "8x8x8",
            "--device",
            "cpu",
            "--faults",
            "alloc@1",
            "--max-retries",
            "2",
        ]))
        .unwrap();
        // Every allocation dies: recovery exhausts the whole chain.
        let err = dispatch(&strs(&[
            "run",
            "--expr",
            "r = u + v",
            "--grid",
            "6x6x6",
            "--faults",
            "alloc:1.0",
        ]))
        .unwrap_err();
        assert!(err.contains("exhausted"), "got: {err}");
    }

    #[test]
    fn recovery_flags_are_validated() {
        let base = ["run", "--expr", "r = u", "--grid", "4x4x4"];
        for bad in [
            ["--faults", "warp@drive"],
            ["--max-retries", "lots"],
            ["--fallback", "sideways"],
        ] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(bad);
            assert!(dispatch(&strs(&argv)).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn verified_run_heals_injected_corruption_bit_exact() {
        // A mem_flip on the first launch under --verify full is detected,
        // healed by recovery, and the written dataset is bit-identical to
        // an unverified fault-free run.
        let dir = std::env::temp_dir().join("dfgc_test_verify");
        std::fs::create_dir_all(&dir).unwrap();
        let clean = dir.join("clean.vtk");
        let healed = dir.join("healed.vtk");
        let base = ["run", "--expr", "q = u*v + w", "--grid", "8x8x8"];
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--output", clean.to_str().unwrap()]);
        dispatch(&strs(&argv)).unwrap();
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend([
            "--verify",
            "full",
            "--faults",
            "mem_flip@1",
            "--max-retries",
            "3",
            "--output",
            healed.to_str().unwrap(),
        ]);
        dispatch(&strs(&argv)).unwrap();
        let a = read_vtk(&clean).unwrap();
        let b = read_vtk(&healed).unwrap();
        let (a, b) = (a.array("q").unwrap(), b.array("q").unwrap());
        assert_eq!(a.data.len(), b.data.len());
        for i in 0..a.data.len() {
            assert_eq!(a.data[i].to_bits(), b.data[i].to_bits(), "cell {i}");
        }
    }

    #[test]
    fn verify_flag_is_validated() {
        for cmd in [
            vec!["run", "--expr", "r = u", "--grid", "4x4x4"],
            vec!["profile", "r = u", "--grid", "4x4x4"],
            vec!["run", "--ranks", "2", "--grid", "6x6x6"],
        ] {
            let mut argv = cmd.clone();
            argv.extend(["--verify", "paranoid"]);
            let err = dispatch(&strs(&argv)).unwrap_err();
            assert!(err.contains("--verify"), "{cmd:?}: got {err}");
        }
    }

    #[test]
    fn profile_with_verification_smoke() {
        let dir = std::env::temp_dir().join("dfgc_test_profile_verify");
        std::fs::create_dir_all(&dir).unwrap();
        dispatch(&strs(&[
            "profile",
            "mag = sqrt(u*u + v*v + w*w)",
            "--grid",
            "6x6x6",
            "--verify",
            "full",
            "--out-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        // The fusion row under `full`: the adopted inputs are never hashed,
        // the result twice — learned at the launch, checked at the download
        // (2 × 32³ × 4 B).
        let mut fields = FieldSet::new(32 * 32 * 32);
        for name in ["u", "v", "w"] {
            fields.insert_scalar(name, vec![0.5; 32 * 32 * 32]).unwrap();
        }
        let options = EngineOptions {
            verify: VerifyPolicy::Full,
            ..EngineOptions::default()
        };
        let request = Request::source("mag = sqrt(u*u + v*v + w*w)", Strategy::Fusion);
        let (_, report) = Engine::with_options(DeviceProfile::nvidia_m2050(), options)
            .run(&request, &fields)
            .unwrap();
        let line = verify_line("fusion", &report, None);
        assert!(line.contains(" 0.262 MB hashed,"), "{line}");
    }

    #[test]
    fn distributed_run_via_cli() {
        let dir = std::env::temp_dir().join("dfgc_test_dist");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("dist.vtk");
        dispatch(&strs(&[
            "run",
            "--ranks",
            "3",
            "--grid",
            "9x8x8",
            "--device",
            "cpu",
            "--output",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let ds = read_vtk(&out).unwrap();
        assert!(ds.has_array("Q-Crit"));
    }

    #[test]
    fn distributed_run_survives_a_dead_rank_via_cli() {
        let dir = std::env::temp_dir().join("dfgc_test_dist_fault");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("dist-trace.json");
        dispatch(&strs(&[
            "run",
            "--ranks",
            "4",
            "--grid",
            "8x8x8",
            "--blocks",
            "2x2x1",
            "--device",
            "cpu",
            "--faults",
            "rank_die@1",
            "--deadline-ms",
            "300",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.contains("recover.rank"), "recovery pass is traced");
    }

    #[test]
    fn distributed_flags_are_validated() {
        let base = ["run", "--ranks", "2", "--grid", "6x6x6"];
        for bad in [
            vec!["--expr", "r = u"],
            vec!["--workload", "warp"],
            vec!["--mode", "sideways"],
            vec!["--strategy", "streamed"],
            vec!["--deadline-ms", "soon"],
            vec!["--input", "in.vtk"],
        ] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(bad.iter());
            assert!(dispatch(&strs(&argv)).is_err(), "{bad:?} should fail");
        }
        assert!(dispatch(&strs(&["run", "--ranks", "0", "--grid", "4x4x4"])).is_err());
        assert!(dispatch(&strs(&["run", "--ranks", "2"])).is_err());
        // Model mode cannot write a dataset.
        assert!(dispatch(&strs(&[
            "run", "--ranks", "2", "--grid", "6x6x6", "--mode", "model", "--output", "x.vtk",
        ]))
        .is_err());
    }

    #[test]
    fn helpful_errors() {
        let err = dispatch(&strs(&["run", "--expr", "r = u"])).unwrap_err();
        assert!(err.contains("data source"));
        let err = dispatch(&strs(&["run", "--grid", "4x4x4"])).unwrap_err();
        assert!(err.contains("expression"));
        let err = dispatch(&strs(&[
            "run",
            "--expr",
            "r = u",
            "--grid",
            "4x4x4",
            "--strategy",
            "warp",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown strategy"));
        // Asking for help is not an error: `USAGE` goes to stdout, exit 0.
        for help in ["--help", "-h", "help"] {
            assert_eq!(dispatch(&strs(&[help])), Ok(()), "{help}");
        }
    }

    #[test]
    fn serve_smoke() {
        // Start the server through the real subcommand, discover its port
        // via --addr-file, drive it with bench-clients, shut down cleanly.
        let dir = std::env::temp_dir().join(format!("dfgc-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let addr_arg = addr_file.to_str().unwrap().to_string();

        let server = std::thread::spawn({
            let addr_arg = addr_arg.clone();
            move || {
                dispatch(&strs(&[
                    "serve",
                    "--addr",
                    "127.0.0.1:0",
                    "--addr-file",
                    &addr_arg,
                    "--device",
                    "cpu",
                ]))
            }
        });
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(a) = std::fs::read_to_string(&addr_file) {
                    if !a.is_empty() {
                        break a;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its address");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };

        dispatch(&strs(&[
            "bench-clients",
            "--addr",
            &addr,
            "--tenants",
            "2",
            "--requests",
            "3",
            "--grid",
            "6x6x6",
        ]))
        .unwrap();

        let mut client = dfg_serve::Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_exit_line_names_every_eviction() {
        let counters = dfg_serve::ServerCounters {
            evicted_idle: 1,
            evicted_pressure: 2,
            evicted_fields: 5,
            ..Default::default()
        };
        let line = serve_exit_line(&counters);
        assert!(
            line.ends_with("3 sessions evicted (1 idle, 2 pressure), 5 grid field sets evicted"),
            "{line}"
        );
    }

    #[test]
    fn serve_and_bench_flag_validation() {
        assert!(
            dispatch(&strs(&["bench-clients"])).is_err(),
            "--addr required"
        );
        assert!(dispatch(&strs(&["serve", "--queue", "lots"])).is_err());
        assert!(dispatch(&strs(&["serve", "--coalesce", "maybe"])).is_err());
        assert!(dispatch(&strs(&["serve", "--quota-mb", "much"])).is_err());
        assert!(dispatch(&strs(&["serve", "--deadline-ms", "soon"])).is_err());
        assert!(dispatch(&strs(&["serve", "--idle-ttl-s", "-5"])).is_err());
        assert!(dispatch(&strs(&["serve", "--max-line-kb", "big"])).is_err());
        assert!(dispatch(&strs(&["serve", "--pressure-mb", "lots"])).is_err());
        assert!(dispatch(&strs(&["serve", "--conn-faults", "explode@1"])).is_err());
    }
}
