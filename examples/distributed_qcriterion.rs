//! Distributed-memory Q-criterion: the paper's §V-C study as an example.
//!
//! Decomposes a global mesh into sub-grids, assigns them round-robin to
//! simulated MPI ranks (two devices per node, as on LLNL's Edge), exchanges
//! ghost cells over channels, computes the Q-criterion with the fusion
//! strategy on every rank, verifies the assembled result bit-for-bit
//! against a single-grid computation, and renders a slice.
//!
//! ```sh
//! cargo run --release --example distributed_qcriterion
//! ```

use dfg::cluster::{render::render_slice, run_distributed, Cluster, DistOptions};
use dfg::core::{FieldSet, Workload};
use dfg::ocl::ExecMode;
use dfg::prelude::*;

fn main() {
    let global_dims = [48usize, 48, 48];
    let nblocks = [2usize, 2, 3];
    let cluster = Cluster {
        nodes: 3,
        devices_per_node: 2,
        profile: DeviceProfile::nvidia_m2050(),
    };
    let global = RectilinearMesh::unit_cube(global_dims);
    let rt = RtWorkload::paper_default();

    println!(
        "distributed Q-criterion: {}³ cells, {} sub-grids, {} nodes × {} devices",
        global_dims[0],
        nblocks.iter().product::<usize>(),
        cluster.nodes,
        cluster.devices_per_node
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
    .expect("distributed run");

    let field = result.field.expect("real mode");
    println!("ranks used:              {}", result.ranks);
    println!("kernel launches (total): {}", result.total_kernel_execs);
    println!(
        "per-device peak memory:  {:.1} MB",
        result.max_high_water as f64 / 1e6
    );
    println!(
        "modeled makespan:        {:.3} ms (mean rank {:.3} ms)",
        result.makespan_seconds * 1e3,
        result.rank_device_seconds.iter().sum::<f64>() * 1e3 / result.ranks as f64
    );

    // Ground truth: the same field on one device.
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
    let identical = field
        .iter()
        .zip(&single.data)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "vs single grid:          {}",
        if identical {
            "bit-identical ✓"
        } else {
            "DIVERGED ✗"
        }
    );

    let img = render_slice(&field, global_dims, 2, global_dims[2] / 2);
    let path = std::path::Path::new("distributed_q_criterion.ppm");
    img.write_ppm(path).expect("write rendering");
    println!("rendering:               {}", path.display());
    assert!(identical);
}
