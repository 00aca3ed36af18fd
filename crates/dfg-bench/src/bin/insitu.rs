//! Extension experiment: the persistent-session hot loop (§V in-situ use).
//!
//! Drives the miniature flow solver for N cycles, deriving vorticity
//! magnitude and the Q-criterion each cycle with one fused kernel — once
//! per-cycle through one-shot [`Engine::derive_many`] (fresh context,
//! full re-upload, re-codegen every cycle) and once through a persistent
//! [`dfg_core::Session`] (pooled buffers, resident fields, cached kernel).
//! Both arms run the identical deterministic solver trajectory, so the
//! derived fields agree bit-for-bit; only the execution cost differs.
//!
//! Writes `BENCH_insitu.json` with the modeled (virtual-clock) device
//! seconds and event counts of both arms. Host wall time for the same
//! hot loop is `bench/`'s `insitu_slab` workload (`core.cycle_*_ms`).

use dfg_core::{Engine, EngineOptions, ExecReport, Field, FieldSet, Workload};
use dfg_dataflow::Strategy;
use dfg_mesh::RtWorkload;
use dfg_ocl::{DeviceProfile, EventKind};
use dfg_sim::FlowSimulation;

const DIMS: [usize; 3] = [64, 64, 64];
const CYCLES: usize = 20;
const OUTPUTS: [&str; 2] = ["w_mag", "q_crit"];

#[derive(Default)]
struct Arm {
    device_seconds: f64,
    uploads: u64,
    compiles: u64,
    checksum: f64,
}

fn engine() -> Engine {
    Engine::with_options(DeviceProfile::nvidia_m2050(), EngineOptions::default())
}

/// Step the solver `CYCLES` times, deriving both outputs each cycle
/// through `derive`; sum the costs.
fn run_cycles(
    mut derive: impl FnMut(&str, &FieldSet) -> (Vec<(String, Field)>, ExecReport),
) -> Arm {
    let src = format!(
        "{}\nw_mag = norm(curl(u, v, w, dims, x, y, z))\n",
        Workload::QCriterion.source().trim_end()
    );
    let mut sim = FlowSimulation::from_workload(DIMS, &RtWorkload::paper_default());
    let mut arm = Arm::default();
    for _ in 0..CYCLES {
        sim.step(0.01);
        let (outputs, report) = derive(&src, sim.fields());
        arm.device_seconds += report.device_seconds();
        arm.uploads += report.profile.count(EventKind::HostToDevice) as u64;
        arm.compiles += report.profile.count(EventKind::KernelCompile) as u64;
        arm.checksum += outputs
            .iter()
            .map(|(_, f)| dfg_bench::checksum(&f.data))
            .sum::<f64>();
    }
    arm
}

fn main() {
    println!(
        "IN-SITU SESSION BENCHMARK: {CYCLES} cycles of w_mag + q_crit over \
         {}x{}x{} cells (fusion, M2050 model)",
        DIMS[0], DIMS[1], DIMS[2]
    );
    println!();

    // One-shot arm: a fresh derive per cycle, exactly what a session-less
    // in-situ host does. Session arm: same trajectory, same expression,
    // one persistent session.
    let mut one_shot = engine();
    let off = run_cycles(|src, fields| {
        one_shot
            .derive_many(src, &OUTPUTS, fields, Strategy::Fusion)
            .expect("one-shot derive")
    });
    let mut host = engine();
    let mut session = host.session();
    let on = run_cycles(|src, fields| {
        session
            .derive_many(src, &OUTPUTS, fields, Strategy::Fusion)
            .expect("session derive")
    });
    let pool_hits = session.pool_hits();
    let resident_bytes = session.resident_bytes();
    let stats = session.end();

    assert_eq!(
        off.checksum.to_bits(),
        on.checksum.to_bits(),
        "both arms must derive identical fields"
    );

    println!(
        "{:<12} {:>12} {:>8} {:>9}",
        "arm", "device ms", "uploads", "compiles"
    );
    for (name, arm) in [("one-shot", &off), ("session", &on)] {
        println!(
            "{name:<12} {:>12.3} {:>8} {:>9}",
            arm.device_seconds * 1e3,
            arm.uploads,
            arm.compiles
        );
    }
    let device_speedup = off.device_seconds / on.device_seconds;
    println!();
    println!(
        "session speedup: {device_speedup:.2}x modeled device \
         ({} uploads skipped, {} codegen cached, {pool_hits} pooled allocations)",
        stats.uploads_skipped, stats.codegen_cached
    );

    // What the session deterministically buys: only the solver's three
    // velocity components change per cycle, and the kernel compiles once.
    assert!(
        on.device_seconds < off.device_seconds,
        "session must win on modeled device time"
    );
    assert_eq!(
        stats.uploads_skipped, 76,
        "4 coordinate uploads x 19 cycles"
    );
    assert_eq!((off.compiles, on.compiles), (CYCLES as u64, 1));
    assert_eq!(stats.codegen_cached, CYCLES as u64 - 1);

    let json = format!(
        r#"{{
  "benchmark": "insitu_session",
  "grid": [{}, {}, {}],
  "cycles": {CYCLES},
  "strategy": "fusion",
  "device": "NVIDIA Tesla M2050 (modeled)",
  "outputs": ["w_mag", "q_crit"],
  "session_off": {{
    "device_seconds": {:.6},
    "uploads": {},
    "kernel_compiles": {}
  }},
  "session_on": {{
    "device_seconds": {:.6},
    "uploads": {},
    "uploads_skipped": {},
    "kernel_compiles": {},
    "codegen_cached": {},
    "pool_hits": {pool_hits},
    "resident_bytes": {resident_bytes}
  }},
  "speedup": {{
    "device": {device_speedup:.3}
  }}
}}
"#,
        DIMS[0],
        DIMS[1],
        DIMS[2],
        off.device_seconds,
        off.uploads,
        off.compiles,
        on.device_seconds,
        on.uploads,
        stats.uploads_skipped,
        on.compiles,
        stats.codegen_cached,
    );
    std::fs::write("BENCH_insitu.json", json).expect("write BENCH_insitu.json");
    println!("results written to BENCH_insitu.json");
}
