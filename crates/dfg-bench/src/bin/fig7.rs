//! Regenerates Figure 7: the distributed-memory parallel Q-criterion run.
//!
//! Default: a scaled-down *real* run (96³ cells, 4×4×3 = 48 sub-grids over
//! 8 ranks) with genuine halo exchange, verified bit-identical against a
//! single-grid computation, plus a pseudocolor PPM rendering of a mid-plane
//! slice (the Figure 7 stand-in).
//!
//! `--full`: the paper's full configuration — 3072³ cells, 3072 sub-grids
//! of 192×192×256, 256 devices on 128 nodes, fusion strategy — executed in
//! model mode (virtual buffers, modeled clocks); the same run `report`
//! summarizes.

use dfg_cluster::render::render_slice;
use dfg_cluster::{run_distributed, Cluster, DistOptions};
use dfg_core::{Engine, FieldSet, Request, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        dfg_bench::artifacts::fig7().print_and_check();
    } else {
        println!("FIGURE 7 — distributed-memory parallel Q-criterion (fusion strategy)");
        println!();
        run_scaled_down();
    }
}

fn run_scaled_down() {
    let dims = [96usize, 96, 96];
    let nblocks = [4usize, 4, 3];
    let global = RectilinearMesh::unit_cube(dims);
    let rt = RtWorkload::paper_default();
    let cluster = Cluster {
        nodes: 4,
        devices_per_node: 2,
        profile: DeviceProfile::nvidia_m2050(),
    };
    println!(
        "Scaled-down real run: {}x{}x{} cells, {} sub-grids over {} ranks (use --full for the paper's 3072-sub-grid model run).",
        dims[0], dims[1], dims[2],
        nblocks.iter().product::<usize>(),
        cluster.ranks()
    );
    let result = run_distributed(
        &global,
        nblocks,
        &rt,
        &cluster,
        &DistOptions {
            workload: Workload::QCriterion,
            strategy: Strategy::Fusion,
            mode: ExecMode::Real,
            ..Default::default()
        },
    )
    .expect("scaled-down distributed run");
    let dist_field = result.field.clone().expect("real mode yields the field");

    // Verify against a single-grid computation (ghost-exchange correctness).
    let fs = FieldSet::for_rt_mesh(&global, &rt);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let single = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
            &fs,
        )
        .expect("single-grid run")
        .0
        .remove(0);
    let identical = dist_field
        .iter()
        .zip(&single.data)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!();
    println!(
        "distributed vs single-grid: {}",
        if identical {
            "bit-identical ✓ (ghost exchange is exact)"
        } else {
            "DIVERGED ✗"
        }
    );
    println!(
        "modeled makespan:           {:.4} s over {} ranks",
        result.makespan_seconds, result.ranks
    );
    println!("total kernel launches:      {}", result.total_kernel_execs);

    // Pseudocolor rendering of the mid-plane slice (Figure 7 stand-in).
    let img = render_slice(&dist_field, dims, 2, dims[2] / 2);
    let path = std::path::Path::new("fig7_q_criterion.ppm");
    img.write_ppm(path).expect("write rendering");
    println!(
        "rendering written:          {} ({}x{})",
        path.display(),
        img.width,
        img.height
    );
    if !identical {
        std::process::exit(1);
    }
}
