//! Extension experiment: the cost of end-to-end integrity verification.
//!
//! Three questions the integrity subsystem must answer with numbers:
//!
//! 1. **Overhead when clean** — each [`VerifyPolicy`] level must leave
//!    the modeled device clock and every output bit of a fault-free
//!    session untouched (checksums are host-side; their host wall cost is
//!    `bench/`'s `insitu_slab` `core.cycle_{residents,full}_ms` against
//!    `core.cycle_ms`).
//! 2. **Detection coverage** — with seeded `mem_flip` corruption injected
//!    at increasing rates, how many flips fire, how many violations are
//!    detected, and does every healed run stay bit-exact?
//! 3. **Check volume** — how many verifications does each policy level
//!    actually perform, so that cost has a denominator?
//!
//! Writes `BENCH_integrity.json`.

use dfg_bench::{checksum, rt_fields};
use dfg_core::{Engine, EngineOptions, RecoveryPolicy, Strategy, Workload};
use dfg_ocl::{DeviceProfile, FaultPlan, VerifyPolicy};

const DIMS: [usize; 3] = [32, 32, 32];
const ITERS: usize = 8;
const RATES: [f64; 3] = [0.05, 0.15, 0.40];
const SEED: u64 = 42;

#[derive(Default)]
struct Arm {
    device_seconds: f64,
    checks: u64,
    violations: u64,
    healed: u64,
    checksum: f64,
}

/// Run an `ITERS`-cycle Q-criterion session under one verification
/// policy, optionally with a fault plan installed; sum the costs.
fn run(verify: VerifyPolicy, strategy: Strategy, faults: Option<&str>) -> Arm {
    let fields = rt_fields(DIMS);
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            recovery: RecoveryPolicy::resilient(),
            verify,
            ..EngineOptions::default()
        },
    );
    if let Some(spec) = faults {
        engine.set_fault_plan(FaultPlan::parse(spec).expect("valid spec"));
    }
    let mut sess = engine.session();
    let mut arm = Arm::default();
    for _ in 0..ITERS {
        let report = sess
            .derive(Workload::QCriterion.source(), &fields, strategy)
            .expect("derivation heals");
        arm.device_seconds += report.device_seconds();
        if let Some(r) = &report.recovery {
            arm.healed += r.integrity_healed + u64::from(r.retries);
        }
        arm.checksum += checksum(&report.field.as_ref().expect("real mode").data);
    }
    let integrity = sess.context().integrity_stats();
    arm.checks = integrity.checks;
    arm.violations = integrity.violations;
    arm.healed += sess.stats().integrity_healed;
    arm
}

fn main() {
    println!(
        "INTEGRITY BENCHMARK: {ITERS}-cycle Q-criterion session over \
         {}x{}x{} cells (M2050 model)",
        DIMS[0], DIMS[1], DIMS[2]
    );
    println!();

    // Question 1 + 3: clean-session overhead and check volume per level.
    let off = run(VerifyPolicy::Off, Strategy::Fusion, None);
    let residents = run(VerifyPolicy::Residents, Strategy::Fusion, None);
    let full = run(VerifyPolicy::Full, Strategy::Fusion, None);
    for (name, arm) in [("residents", &residents), ("full", &full)] {
        assert_eq!(
            off.checksum.to_bits(),
            arm.checksum.to_bits(),
            "{name}: verification must not change a single output bit"
        );
        assert_eq!(
            off.device_seconds.to_bits(),
            arm.device_seconds.to_bits(),
            "{name}: checksums are host-side — zero modeled device time"
        );
        assert_eq!(arm.violations, 0, "{name}: clean run");
    }
    assert_eq!(off.checks, 0, "Off never verifies");
    assert!(full.checks > residents.checks, "Full checks strictly more");
    println!("{:>10} {:>12} {:>10}", "policy", "device ms", "checks");
    for (name, arm) in [("off", &off), ("residents", &residents), ("full", &full)] {
        println!(
            "{name:>10} {:>12.3} {:>10}",
            arm.device_seconds * 1e3,
            arm.checks,
        );
    }
    println!();

    // Question 2: detection coverage under seeded mem_flip corruption.
    // Roundtrip launches one kernel per network node, so the per-launch
    // flip draw gets dozens of opportunities per cycle.
    let clean_rt = run(VerifyPolicy::Full, Strategy::Roundtrip, None);
    println!(
        "{:>6} {:>12} {:>8} {:>10}",
        "rate", "violations", "healed", "bit-exact"
    );
    let mut sweep = Vec::new();
    for rate in RATES {
        let spec = format!("mem_flip:{rate},seed={SEED}");
        let arm = run(VerifyPolicy::Full, Strategy::Roundtrip, Some(&spec));
        // Every fired flip lands on a written input under Full and is
        // detected before the kernel consumes it, so detections ARE the
        // fired-flip count.
        assert!(arm.violations > 0, "rate {rate}: flips must be detected");
        assert!(arm.healed > 0, "rate {rate}: detections must be healed");
        let bit_exact = arm.checksum.to_bits() == clean_rt.checksum.to_bits();
        assert!(bit_exact, "rate {rate}: healed runs must stay bit-exact");
        println!(
            "{rate:>6.2} {:>12} {:>8} {:>10}",
            arm.violations, arm.healed, bit_exact,
        );
        sweep.push((rate, arm));
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(rate, arm)| {
            format!(
                r#"    {{
      "rate": {rate},
      "checks": {},
      "violations": {},
      "healed": {},
      "bit_exact": true
    }}"#,
                arm.checks, arm.violations, arm.healed,
            )
        })
        .collect();
    let policy_json: Vec<String> = [("off", &off), ("residents", &residents), ("full", &full)]
        .iter()
        .map(|(name, arm)| {
            format!(
                r#"    {{
      "policy": "{name}",
      "checks": {}
    }}"#,
                arm.checks,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "integrity",
  "grid": [{}, {}, {}],
  "iterations": {ITERS},
  "workload": "q_criterion",
  "device": "NVIDIA Tesla M2050 (modeled)",
  "fault_seed": {SEED},
  "device_seconds_identical": true,
  "clean_overhead": [
{}
  ],
  "mem_flip_sweep": [
{}
  ]
}}
"#,
        DIMS[0],
        DIMS[1],
        DIMS[2],
        policy_json.join(",\n"),
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_integrity.json", json).expect("write BENCH_integrity.json");
    println!();
    println!("results written to BENCH_integrity.json");
}
