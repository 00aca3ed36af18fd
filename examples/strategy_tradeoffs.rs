//! Strategy trade-offs: why a flexible framework needs more than one
//! execution strategy (§V-D).
//!
//! Walks the Q-criterion up the Table I grid catalog on the simulated
//! M2050 and shows the decision the paper's discussion describes: fusion
//! when it fits, staged when fusion's register model can't apply but memory
//! allows, roundtrip when device memory is the binding constraint, CPU when
//! nothing fits the GPU.
//!
//! ```sh
//! cargo run --example strategy_tradeoffs
//! ```

use dfg::core::{EngineOptions, FieldSet, Workload};
use dfg::dataflow::memreq_units;
use dfg::expr::compile;
use dfg::ocl::ExecMode;
use dfg::prelude::*;

fn main() {
    let spec = compile(Workload::QCriterion.source()).expect("Fig 3C compiles");
    let gpu = DeviceProfile::nvidia_m2050();
    println!(
        "Q-criterion on {} ({:.2} GB usable)",
        gpu.name,
        gpu.global_mem_bytes as f64 / 1e9
    );
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>9}   chosen",
        "grid", "roundtrip", "staged", "fusion"
    );
    println!("  (columns: predicted peak device GB per strategy)");
    println!("{}", "-".repeat(68));

    for grid in TABLE1_CATALOG {
        let n = grid.ncells();
        let mut need = Vec::new();
        for strategy in Strategy::ALL {
            let bytes = memreq_units(&spec, strategy)
                .expect("valid network")
                .bytes(n);
            need.push((strategy, bytes));
        }
        // Prefer fusion > staged > roundtrip among those that fit, as the
        // paper's discussion recommends.
        let chosen = [Strategy::Fusion, Strategy::Staged, Strategy::Roundtrip]
            .into_iter()
            .find(|s| {
                need.iter()
                    .any(|(st, b)| st == s && *b <= gpu.global_mem_bytes)
            });
        print!("{:<22}", grid.to_string());
        for (_, bytes) in &need {
            let gb = *bytes as f64 / 1e9;
            if *bytes <= gpu.global_mem_bytes {
                print!(" {gb:>9.2}");
            } else {
                print!(" {:>9}", format!("({gb:.2})"));
            }
        }
        match chosen {
            Some(s) => println!("   {s} on GPU"),
            None => println!("   CPU fallback"),
        }
    }

    // Demonstrate that the prediction matches reality: run the largest grid
    // in model mode and watch staged fail while fusion succeeds.
    println!();
    let grid = *TABLE1_CATALOG.last().expect("catalog non-empty");
    let mut engine = Engine::with_options(
        gpu.clone(),
        EngineOptions {
            mode: ExecMode::Model,
            ..Default::default()
        },
    );
    let fields = FieldSet::virtual_rt(grid.dims());
    for strategy in Strategy::ALL {
        let request = Request::source(Workload::QCriterion.source(), strategy);
        match engine.run(&request, &fields) {
            Ok((_, report)) => println!(
                "{grid} under {strategy}: OK, {:.2} GB peak, {:.3} s modeled",
                report.high_water_bytes() as f64 / 1e9,
                report.device_seconds()
            ),
            Err(e) => println!("{grid} under {strategy}: {e}"),
        }
    }

    // The planner automates the paper's §V-D selection across devices and
    // strategies: ask it where to run a mid-sized grid.
    println!();
    let mid = TABLE1_CATALOG[7]; // 192 x 192 x 2048
    let plan = dfg::core::plan(
        &spec,
        mid.ncells(),
        &[DeviceProfile::intel_x5660(), gpu.clone()],
    )
    .expect("planning succeeds");
    println!(
        "planner ranking for {mid} ({} feasible options):",
        plan.feasible.len()
    );
    for opt in plan.feasible.iter().take(4) {
        println!(
            "  {:<9} on {:<32} {:>8.3} s, {:>6.2} GB",
            opt.strategy.name(),
            opt.device_name,
            opt.seconds,
            opt.peak_bytes as f64 / 1e9
        );
    }
    for (dev, strategy, bytes) in &plan.rejected {
        println!(
            "  rejected: {strategy} on device #{dev} needs {:.2} GB",
            *bytes as f64 / 1e9
        );
    }
    let best = plan.best().expect("something fits");
    println!("best: {} on {}", best.strategy.name(), best.device_name);
}
