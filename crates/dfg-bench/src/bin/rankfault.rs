//! Extension experiment: the cost of rank-failure tolerance.
//!
//! Two questions the distributed resilience layer must answer with
//! numbers:
//!
//! 1. **Overhead when healthy** — halo deadlines, heartbeats, and bounded
//!    mailboxes must add zero modeled device time to a fault-free
//!    distributed run, and the assembled field must stay bit-identical.
//! 2. **Time-to-complete vs killed ranks** — as ranks die, their blocks
//!    pile onto the survivors: how does the modeled makespan grow, and
//!    does the run stay bit-exact through analytic ghost fill and block
//!    redistribution?
//!
//! Writes `BENCH_rankfault.json`.

use std::time::Duration;

use dfg_cluster::{run_distributed, Cluster, DistOptions, DistResult};
use dfg_core::{RecoveryPolicy, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

const DIMS: [usize; 3] = [24, 24, 16];
const NBLOCKS: [usize; 3] = [2, 2, 2];
const RANKS: usize = 8;
const KILLS: [usize; 4] = [0, 1, 2, 4];

fn cluster() -> Cluster {
    Cluster {
        nodes: RANKS,
        devices_per_node: 1,
        profile: DeviceProfile::nvidia_m2050(),
    }
}

fn opts(fault_spec: Option<String>, deadline: Option<Duration>) -> DistOptions {
    DistOptions {
        workload: Workload::QCriterion,
        strategy: Strategy::Fusion,
        mode: ExecMode::Real,
        recovery: RecoveryPolicy::resilient(),
        fault_spec,
        exchange_deadline: deadline,
        ..Default::default()
    }
}

fn run(o: &DistOptions) -> DistResult {
    let global = RectilinearMesh::unit_cube(DIMS);
    let rt = RtWorkload::paper_default();
    run_distributed(&global, NBLOCKS, &rt, &cluster(), o).expect("run completes")
}

fn checksum(r: &DistResult) -> f64 {
    dfg_bench::checksum(r.field.as_ref().expect("real mode"))
}

fn main() {
    println!(
        "RANK-FAULT BENCHMARK: Q-criterion over {}x{}x{} cells, \
         {} blocks on {RANKS} ranks (fusion, M2050 model)",
        DIMS[0],
        DIMS[1],
        DIMS[2],
        NBLOCKS[0] * NBLOCKS[1] * NBLOCKS[2],
    );
    println!();

    // Question 1: the resilience machinery's overhead on a healthy run.
    // `exchange_deadline: None` is the pre-resilience blocking exchange.
    let baseline = run(&opts(None, None));
    let armed = run(&opts(None, Some(Duration::from_secs(5))));
    assert_eq!(
        checksum(&baseline).to_bits(),
        checksum(&armed).to_bits(),
        "deadline-armed exchange must be bit-identical when healthy"
    );
    assert_eq!(
        baseline.makespan_seconds.to_bits(),
        armed.makespan_seconds.to_bits(),
        "resilience must add zero modeled device time when healthy"
    );
    assert!(!armed.degraded);
    assert_eq!(armed.exchange_timeouts, 0);
    println!(
        "fault-free overhead: blocking and deadline-armed exchange give identical \
         output bits and identical modeled makespan ({:.3} ms)",
        baseline.makespan_seconds * 1e3,
    );
    println!();

    // Question 2: time-to-complete as ranks are killed. Dead ranks drop
    // their senders immediately, so survivors take the disconnect fast
    // path rather than waiting out the deadline.
    let clean_sum = checksum(&baseline);
    println!(
        "{:>6} {:>12} {:>9} {:>14} {:>12}",
        "killed", "makespan ms", "vs clean", "redistributed", "ghost faces"
    );
    let mut sweep = Vec::new();
    for kills in KILLS {
        let spec = (kills > 0).then(|| format!("rank_die@1x{kills}"));
        let result = run(&opts(spec, Some(Duration::from_secs(5))));
        assert_eq!(result.lost_ranks.len(), kills);
        let sum = checksum(&result);
        assert_eq!(
            sum.to_bits(),
            clean_sum.to_bits(),
            "{kills} killed ranks: redistribution must stay bit-exact"
        );
        assert!(
            result.makespan_seconds >= baseline.makespan_seconds,
            "losing ranks cannot shrink the modeled makespan"
        );
        println!(
            "{kills:>6} {:>12.3} {:>8.2}x {:>14} {:>12}",
            result.makespan_seconds * 1e3,
            result.makespan_seconds / baseline.makespan_seconds,
            result.redistributed_blocks.len(),
            result.ghost_filled_faces,
        );
        sweep.push((kills, result));
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(kills, r)| {
            format!(
                r#"    {{
      "killed_ranks": {kills},
      "makespan_seconds": {:.6},
      "makespan_vs_clean": {:.4},
      "redistributed_blocks": {},
      "ghost_filled_faces": {},
      "bit_exact": true
    }}"#,
                r.makespan_seconds,
                r.makespan_seconds / baseline.makespan_seconds,
                r.redistributed_blocks.len(),
                r.ghost_filled_faces,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "rankfault",
  "grid": [{}, {}, {}],
  "blocks": [{}, {}, {}],
  "ranks": {RANKS},
  "workload": "q_criterion",
  "strategy": "fusion",
  "device": "NVIDIA Tesla M2050 (modeled)",
  "fault_free": {{
    "makespan_identical": true
  }},
  "kill_sweep": [
{}
  ]
}}
"#,
        DIMS[0],
        DIMS[1],
        DIMS[2],
        NBLOCKS[0],
        NBLOCKS[1],
        NBLOCKS[2],
        sweep_json.join(",\n"),
    );
    std::fs::write("BENCH_rankfault.json", json).expect("write BENCH_rankfault.json");
    println!();
    println!("results written to BENCH_rankfault.json");
}
