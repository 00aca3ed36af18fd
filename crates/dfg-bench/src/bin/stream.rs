//! Extension experiment: the double-buffered out-of-core streaming pipeline.
//!
//! Three questions the multi-queue slab pipeline must answer with numbers
//! (all on the modeled virtual clock, so results are machine-independent):
//!
//! 1. **Does overlap pay?** — sweep the slab size through the device budget
//!    and compare the pipeline *makespan* (wall span of the three queues)
//!    against the serial baseline, the run's summed device seconds. On
//!    transfer-bound slab sizes the makespan must be strictly below it.
//! 2. **Headline out-of-core run** — a 3072^3 grid (~116 GB per field)
//!    streamed through a modeled 3 GB GPU: completes, stays under budget,
//!    and hides transfer time behind compute.
//! 3. **Figure 5/6 recovery** — every M2050 case the paper marks FAILED
//!    still completes under streaming (folded in from the retired
//!    `streaming` bin), now through the overlapped pipeline.
//!
//! Writes `BENCH_stream.json`.

use dfg_core::{Engine, EngineOptions, Workload};
use dfg_ocl::{DeviceProfile, EventKind, ExecMode};

/// Grid for the slab-size sweep: the largest Table I mesh, which fusion
/// cannot fit on the M2050 (a genuine out-of-core case).
const SWEEP_DIMS: [usize; 3] = [192, 192, 3072];
/// Interior layers per slab for the sweep.
const SLAB_LAYERS: [usize; 5] = [8, 16, 32, 64, 128];
/// Device bytes of one Q-criterion slab layer of the sweep grid: six inputs
/// (u, v, w, x, y, z) plus the output, 4 B each, per 192·192 cells.
const LAYER_BYTES: u64 = 7 * 4 * 192 * 192;
/// The `dims` header every ring slot holds: three f32.
const DIMS_HEADER_BYTES: u64 = 3 * 4;

/// Headline grid and device: 3072^3 cells through a 3 GB budget.
const HEADLINE_DIMS: [usize; 3] = [3072, 3072, 3072];
const HEADLINE_BUDGET: u64 = 3 << 30;

struct Run {
    makespan: f64,
    device_seconds: f64,
    transfer_seconds: f64,
    kernel_seconds: f64,
    hidden: f64,
    efficiency: f64,
    slabs: usize,
    peak_bytes: u64,
    occupancy: Vec<f64>,
}

fn run_streamed(device: DeviceProfile, dims: [usize; 3], budget: Option<u64>) -> Run {
    let mut engine = Engine::with_options(
        device,
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let report = engine
        .derive_streamed(
            Workload::QCriterion.source(),
            &dfg_bench::virtual_fields(dims),
            budget,
        )
        .expect("streamed run completes");
    let p = &report.profile;
    Run {
        makespan: p.makespan_seconds(),
        device_seconds: p.device_seconds(),
        transfer_seconds: p.seconds(EventKind::HostToDevice) + p.seconds(EventKind::DeviceToHost),
        kernel_seconds: p.seconds(EventKind::KernelExec),
        hidden: p.overlap_hidden_seconds(),
        efficiency: p.overlap_efficiency(),
        slabs: p.count(EventKind::KernelExec),
        peak_bytes: p.high_water_bytes,
        occupancy: p
            .queues_used()
            .into_iter()
            .map(|q| p.queue_occupancy(q))
            .collect(),
    }
}

fn main() {
    let gpu = DeviceProfile::nvidia_m2050();

    // ---- Question 1: slab-size sweep --------------------------------------
    println!(
        "STREAM SWEEP: Q-criterion over {}x{}x{} on {} (modeled)",
        SWEEP_DIMS[0], SWEEP_DIMS[1], SWEEP_DIMS[2], gpu.name
    );
    println!(
        "{:>7} {:>7} {:>12} {:>12} {:>10} {:>8}",
        "layers", "slabs", "makespan s", "serial s", "hidden s", "eff"
    );
    let mut sweep_rows = Vec::new();
    for layers in SLAB_LAYERS {
        // Two ring slots of `layers` interior layers plus a halo layer on
        // each side: the largest slab that fits is exactly `layers` deep.
        let budget = 2 * ((layers as u64 + 2) * LAYER_BYTES + DIMS_HEADER_BYTES);
        let run = run_streamed(gpu.clone(), SWEEP_DIMS, Some(budget));
        assert_eq!(
            run.slabs,
            SWEEP_DIMS[2].div_ceil(layers),
            "a {budget} B budget must give {layers}-layer slabs"
        );
        let transfer_bound = run.transfer_seconds > run.kernel_seconds;
        if transfer_bound {
            assert!(
                run.makespan < run.device_seconds,
                "layers {layers}: overlapped makespan {} not below serial {}",
                run.makespan,
                run.device_seconds
            );
        }
        println!(
            "{layers:>7} {:>7} {:>12.3} {:>12.3} {:>10.3} {:>8.2}",
            run.slabs, run.makespan, run.device_seconds, run.hidden, run.efficiency
        );
        sweep_rows.push(format!(
            r#"    {{
      "interior_layers": {layers},
      "slabs": {},
      "makespan_seconds": {:.6},
      "device_seconds": {:.6},
      "transfer_seconds": {:.6},
      "kernel_seconds": {:.6},
      "hidden_seconds": {:.6},
      "overlap_efficiency": {:.4},
      "transfer_bound": {transfer_bound},
      "speedup_vs_serial": {:.4}
    }}"#,
            run.slabs,
            run.makespan,
            run.device_seconds,
            run.transfer_seconds,
            run.kernel_seconds,
            run.hidden,
            run.efficiency,
            run.device_seconds / run.makespan,
        ));
    }
    println!();

    // ---- Question 2: the 3072^3 / 3 GB headline ---------------------------
    let mut small_gpu = gpu.clone();
    small_gpu.global_mem_bytes = HEADLINE_BUDGET;
    let headline = run_streamed(small_gpu, HEADLINE_DIMS, None);
    assert!(
        headline.peak_bytes <= HEADLINE_BUDGET,
        "headline peak {} exceeds the 3 GB budget",
        headline.peak_bytes
    );
    assert!(headline.slabs > 1, "headline must actually stream");
    assert!(
        headline.makespan < headline.device_seconds,
        "headline pipeline must overlap: makespan {} vs summed {}",
        headline.makespan,
        headline.device_seconds
    );
    println!(
        "HEADLINE: {}^3 Q-criterion through a 3 GB budget: {} slabs, peak {:.3} GB,",
        HEADLINE_DIMS[0],
        headline.slabs,
        dfg_bench::gib(headline.peak_bytes)
    );
    println!(
        "  makespan {:.3}s vs {:.3}s serial device-seconds ({:.3}s of transfer hidden, {:.0}% of it)",
        headline.makespan,
        headline.device_seconds,
        headline.hidden,
        headline.efficiency * 100.0
    );
    println!();

    // ---- Question 3: Figure 5/6 FAILED cases complete under streaming -----
    let mut recovered_rows = Vec::new();
    for (workload, grid, streamed) in dfg_bench::stream_failed_fusion_cases() {
        let r = streamed.expect("streaming completes every failed fusion case");
        recovered_rows.push(format!(
            r#"    {{ "expr": "{}", "grid": "{}", "makespan_seconds": {:.6}, "peak_bytes": {}, "slabs": {} }}"#,
            workload.table2_name(),
            grid,
            r.profile.makespan_seconds(),
            r.high_water_bytes(),
            r.profile.count(EventKind::KernelExec),
        ));
    }
    // The `expect` above makes every previously failed case a recovered one.
    let recovered = recovered_rows.len();
    println!(
        "{recovered}/{recovered} previously-failing GPU fusion cases complete under streaming."
    );

    let occupancy_json: Vec<String> = headline
        .occupancy
        .iter()
        .map(|o| format!("{o:.4}"))
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "stream",
  "device": "NVIDIA Tesla M2050 (modeled)",
  "workload": "q_criterion",
  "sweep_grid": [{}, {}, {}],
  "sweep": [
{}
  ],
  "headline": {{
    "grid": [{}, {}, {}],
    "budget_bytes": {},
    "slabs": {},
    "peak_bytes": {},
    "makespan_seconds": {:.6},
    "device_seconds": {:.6},
    "hidden_seconds": {:.6},
    "overlap_efficiency": {:.4},
    "queue_occupancy": [{}]
  }},
  "fig5_recovered_cases": [
{}
  ],
  "recovered": {recovered},
  "previously_failed": {recovered}
}}
"#,
        SWEEP_DIMS[0],
        SWEEP_DIMS[1],
        SWEEP_DIMS[2],
        sweep_rows.join(",\n"),
        HEADLINE_DIMS[0],
        HEADLINE_DIMS[1],
        HEADLINE_DIMS[2],
        HEADLINE_BUDGET,
        headline.slabs,
        headline.peak_bytes,
        headline.makespan,
        headline.device_seconds,
        headline.hidden,
        headline.efficiency,
        occupancy_json.join(", "),
        recovered_rows.join(",\n"),
    );
    std::fs::write("BENCH_stream.json", json).expect("write BENCH_stream.json");
    println!();
    println!("results written to BENCH_stream.json");
}
