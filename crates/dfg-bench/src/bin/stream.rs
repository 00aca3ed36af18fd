//! Extension experiment: the overlapped out-of-core streaming pipeline.
//!
//! Three questions the multi-queue slab pipeline must answer with numbers
//! (all on the modeled virtual clock, so results are machine-independent):
//!
//! 1. **Does overlap pay?** — sweep the slab size (`SlabPolicy::FixedLayers`)
//!    at overlap depths 1 (strictly serial), 2 and 3, and compare the
//!    pipeline *makespan* (wall span of the three queues) against the
//!    depth-1 serial baseline. On transfer-bound slab sizes the overlapped
//!    makespan must be strictly below the serial one.
//! 2. **Headline out-of-core run** — a 3072^3 grid (~116 GB per field)
//!    streamed through a modeled 3 GB GPU: completes, stays under budget,
//!    and hides transfer time behind compute.
//! 3. **Figure 5/6 recovery** — every M2050 case the paper marks FAILED
//!    still completes under streaming (folded in from the retired
//!    `streaming` bin), now through the overlapped pipeline.
//!
//! A small real-mode parity guard re-checks that depth does not change a
//! single output bit. Writes `BENCH_stream.json`.

use dfg_core::{Engine, EngineOptions, SlabPolicy, Strategy, StreamOptions, Workload};
use dfg_ocl::{DeviceProfile, EventKind, ExecMode};

/// Grid for the slab-size sweep: the largest Table I mesh, which fusion
/// cannot fit on the M2050 (a genuine out-of-core case).
const SWEEP_DIMS: [usize; 3] = [192, 192, 3072];
/// Interior layers per slab for the sweep.
const SLAB_LAYERS: [usize; 5] = [8, 16, 32, 64, 128];
const DEPTHS: [usize; 3] = [1, 2, 3];

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

fn run_streamed(device: DeviceProfile, dims: [usize; 3], stream: StreamOptions) -> Run {
    let mut engine = Engine::with_options(
        device,
        EngineOptions {
            mode: ExecMode::Model,
            stream,
            ..Default::default()
        },
    );
    let report = engine
        .derive_streamed(
            Workload::QCriterion.source(),
            &dfg_bench::virtual_fields(dims),
            None,
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

/// Real-mode guard: the overlap depth must not change one output bit.
fn parity_guard() {
    let fields = dfg_bench::rt_fields([12, 10, 16]);
    let budget = Some(14 * 4 * (12 * 10 * 9) as u64); // forces several slabs
    let mut fusion_engine = Engine::new(DeviceProfile::intel_x5660());
    let fused = fusion_engine
        .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
        .expect("fusion")
        .field
        .expect("real mode");
    for depth in DEPTHS {
        let mut engine = Engine::with_options(
            DeviceProfile::intel_x5660(),
            EngineOptions {
                stream: StreamOptions {
                    overlap_depth: depth,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let streamed = engine
            .derive_streamed(Workload::QCriterion.source(), &fields, budget)
            .expect("streamed")
            .field
            .expect("real mode");
        for (i, (a, b)) in fused.data.iter().zip(&streamed.data).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "depth {depth} diverges from fusion at cell {i}: {a} vs {b}"
            );
        }
    }
}

fn main() {
    let gpu = DeviceProfile::nvidia_m2050();
    parity_guard();
    println!("overlap parity guard: depths 1-3 bit-identical to single-pass fusion");
    println!();

    // ---- Question 1: slab-size x depth sweep ------------------------------
    println!(
        "STREAM SWEEP: Q-criterion over {}x{}x{} on {} (modeled)",
        SWEEP_DIMS[0], SWEEP_DIMS[1], SWEEP_DIMS[2], gpu.name
    );
    println!(
        "{:>7} {:>6} {:>7} {:>12} {:>12} {:>10} {:>8}",
        "layers", "depth", "slabs", "makespan s", "serial s", "hidden s", "eff"
    );
    let mut sweep_rows = Vec::new();
    for layers in SLAB_LAYERS {
        let mut serial_makespan = 0.0;
        for depth in DEPTHS {
            let run = run_streamed(
                gpu.clone(),
                SWEEP_DIMS,
                StreamOptions {
                    overlap_depth: depth,
                    slab_policy: SlabPolicy::FixedLayers(layers),
                },
            );
            if depth == 1 {
                serial_makespan = run.makespan;
                assert!(
                    (run.makespan - run.device_seconds).abs() <= 1e-12 * run.device_seconds,
                    "depth 1 must be strictly serial: makespan {} vs summed {}",
                    run.makespan,
                    run.device_seconds
                );
            }
            let transfer_bound = run.transfer_seconds > run.kernel_seconds;
            if depth > 1 && transfer_bound {
                assert!(
                    run.makespan < serial_makespan,
                    "layers {layers} depth {depth}: overlapped makespan {} \
                     not below serial {serial_makespan}",
                    run.makespan
                );
            }
            println!(
                "{layers:>7} {depth:>6} {:>7} {:>12.3} {:>12.3} {:>10.3} {:>8.2}",
                run.slabs, run.makespan, serial_makespan, run.hidden, run.efficiency
            );
            sweep_rows.push(format!(
                r#"    {{
      "interior_layers": {layers},
      "overlap_depth": {depth},
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
                serial_makespan / run.makespan,
            ));
        }
    }
    println!();

    // ---- Question 2: the 3072^3 / 3 GB headline ---------------------------
    let mut small_gpu = gpu.clone();
    small_gpu.global_mem_bytes = HEADLINE_BUDGET;
    let headline = run_streamed(small_gpu, HEADLINE_DIMS, StreamOptions::default());
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
    "overlap_depth": 2,
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
