//! Extension experiment: the cost of resilience.
//!
//! Two questions the recovery subsystem must answer with numbers:
//!
//! 1. **Overhead when healthy** — enabling [`RecoveryPolicy`] on a
//!    fault-free engine must cost nothing on the modeled device clock
//!    (the clean path is the plain executor) and change no output bit.
//! 2. **Time-to-recover under fire** — with deterministic transient
//!    faults injected at increasing rates, how much modeled device time
//!    do the retries and fallbacks add per derivation?
//!
//! Writes `BENCH_resilience.json`.

use dfg_bench::{checksum, rt_fields};
use dfg_core::{Engine, EngineOptions, RecoveryPolicy, Strategy, Workload};
use dfg_ocl::{DeviceProfile, FaultPlan};

const DIMS: [usize; 3] = [32, 32, 32];
const ITERS: usize = 8;
const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
const SEED: u64 = 42;

#[derive(Default)]
struct Arm {
    device_seconds: f64,
    retries: u64,
    fallbacks: u64,
    degraded_runs: u64,
    checksum: f64,
}

/// Run `ITERS` Q-criterion derivations on one engine; sum the costs.
fn run(recovery: RecoveryPolicy, faults: Option<&str>) -> Arm {
    let fields = rt_fields(DIMS);
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            recovery,
            ..EngineOptions::default()
        },
    );
    if let Some(spec) = faults {
        engine.set_fault_plan(FaultPlan::parse(spec).expect("valid spec"));
    }
    let mut arm = Arm::default();
    for _ in 0..ITERS {
        let report = engine
            .derive(Workload::QCriterion.source(), &fields, Strategy::Fusion)
            .expect("derivation recovers");
        arm.device_seconds += report.device_seconds();
        if let Some(r) = &report.recovery {
            arm.retries += u64::from(r.retries);
            arm.fallbacks += u64::from(r.fallbacks);
            arm.degraded_runs += u64::from(r.degraded);
        }
        arm.checksum += checksum(&report.field.as_ref().expect("real mode").data);
    }
    arm
}

fn main() {
    println!(
        "RESILIENCE BENCHMARK: {ITERS} Q-criterion derivations over \
         {}x{}x{} cells (fusion, M2050 model)",
        DIMS[0], DIMS[1], DIMS[2]
    );
    println!();

    // Question 1: overhead of the recovery driver when nothing fails.
    let off = run(RecoveryPolicy::disabled(), None);
    let on = run(RecoveryPolicy::resilient(), None);
    assert_eq!(
        off.checksum.to_bits(),
        on.checksum.to_bits(),
        "the fault-free recovery path must be the plain executor"
    );
    assert_eq!(
        off.device_seconds.to_bits(),
        on.device_seconds.to_bits(),
        "recovery must add zero modeled device time when healthy"
    );
    assert_eq!(on.retries + on.fallbacks, 0);
    println!(
        "fault-free overhead: recovery on and off give identical output bits \
         and identical modeled device seconds ({:.3} ms)",
        off.device_seconds * 1e3,
    );
    println!();

    // Question 2: modeled time-to-recover vs transient-fault rate.
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>10} {:>10}",
        "rate", "device ms", "vs clean", "retries", "fallbacks", "degraded"
    );
    let mut sweep = Vec::new();
    for rate in RATES {
        let spec = format!("transfer:{rate},seed={SEED}");
        let arm = run(RecoveryPolicy::resilient(), Some(&spec));
        if arm.fallbacks == 0 {
            // Retries re-run the requested level: bit-identical output.
            assert_eq!(
                arm.checksum.to_bits(),
                off.checksum.to_bits(),
                "rate {rate}: retried runs must stay bit-exact"
            );
        } else {
            // A fallback strategy reorders arithmetic; stay within float
            // tolerance of the clean result.
            let rel = (arm.checksum - off.checksum).abs() / off.checksum.abs().max(1.0);
            assert!(rel < 1e-5, "rate {rate}: checksum drifted by {rel:e}");
        }
        assert!(
            arm.device_seconds >= off.device_seconds,
            "faults cannot make the modeled device faster"
        );
        println!(
            "{rate:>6.2} {:>12.3} {:>9.2}x {:>8} {:>10} {:>10}",
            arm.device_seconds * 1e3,
            arm.device_seconds / off.device_seconds,
            arm.retries,
            arm.fallbacks,
            arm.degraded_runs,
        );
        sweep.push((rate, arm));
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(rate, arm)| {
            format!(
                r#"    {{
      "rate": {rate},
      "device_seconds": {:.6},
      "recovery_seconds": {:.6},
      "retries": {},
      "fallbacks": {},
      "degraded_runs": {}
    }}"#,
                arm.device_seconds,
                arm.device_seconds - off.device_seconds,
                arm.retries,
                arm.fallbacks,
                arm.degraded_runs,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "resilience",
  "grid": [{}, {}, {}],
  "iterations": {ITERS},
  "workload": "q_criterion",
  "strategy": "fusion",
  "device": "NVIDIA Tesla M2050 (modeled)",
  "fault_seed": {SEED},
  "fault_free": {{
    "device_seconds_identical": true
  }},
  "transient_sweep": [
{}
  ]
}}
"#,
        DIMS[0],
        DIMS[1],
        DIMS[2],
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_resilience.json", json).expect("write BENCH_resilience.json");
    println!();
    println!("results written to BENCH_resilience.json");
}
