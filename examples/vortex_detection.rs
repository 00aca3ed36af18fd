//! Vortex detection: the paper's motivating application (§IV-A).
//!
//! Runs all three evaluation expressions — velocity magnitude, vorticity
//! magnitude, and Q-criterion — over the synthetic Rayleigh–Taylor
//! workload, reports where rotation dominates strain, and renders a
//! pseudocolor slice of the Q-criterion to `vortex_q_criterion.ppm`.
//!
//! ```sh
//! cargo run --release --example vortex_detection
//! ```

use dfg::cluster::render::render_slice;
use dfg::core::{FieldSet, Workload};
use dfg::prelude::*;

fn main() {
    let dims = [64usize, 64, 64];
    let mesh = RectilinearMesh::unit_cube(dims);
    let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
    let mut engine = Engine::new(DeviceProfile::nvidia_m2050());

    println!(
        "vortex detection on a {}x{}x{} RT-like field",
        dims[0], dims[1], dims[2]
    );
    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>10}",
        "expression", "min", "max", "device ms", "kernels"
    );
    println!("{}", "-".repeat(70));

    let mut q_field = None;
    for workload in Workload::ALL {
        let request = Request::source(workload.source(), Strategy::Fusion);
        let (mut out, report) = engine.run(&request, &fields).expect("fusion run");
        let field = out.pop().expect("real mode");
        let data = field.as_scalar().expect("scalar result");
        let min = data.iter().cloned().fold(f32::MAX, f32::min);
        let max = data.iter().cloned().fold(f32::MIN, f32::max);
        println!(
            "{:<22} {:>10.4} {:>10.4} {:>12.3} {:>10}",
            workload.table2_name(),
            min,
            max,
            report.device_seconds() * 1e3,
            report.table2_row().2,
        );
        if workload == Workload::QCriterion {
            q_field = Some(field);
        }
    }

    // Q > 0 marks rotation-dominated cells — vortex candidates.
    let q = q_field.expect("Q-criterion ran");
    let data = q.as_scalar().expect("scalar");
    let vortical = data.iter().filter(|&&v| v > 0.0).count();
    println!();
    println!(
        "{} of {} cells ({:.1}%) are rotation-dominated (Q > 0)",
        vortical,
        data.len(),
        100.0 * vortical as f64 / data.len() as f64
    );

    // Strongest vortex core.
    let (best, best_q) =
        data.iter().enumerate().fold(
            (0usize, f32::MIN),
            |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc },
        );
    let (i, j, k) = (
        best % dims[0],
        (best / dims[0]) % dims[1],
        best / (dims[0] * dims[1]),
    );
    let c = mesh.cell_center(i, j, k);
    println!(
        "strongest core: Q = {best_q:.3} at cell ({i}, {j}, {k}) = ({:.3}, {:.3}, {:.3})",
        c[0], c[1], c[2]
    );

    let img = render_slice(data, dims, 2, k.min(dims[2] - 1));
    let path = std::path::Path::new("vortex_q_criterion.ppm");
    img.write_ppm(path).expect("write rendering");
    println!(
        "pseudocolor slice through the core written to {}",
        path.display()
    );

    // All three detectors in ONE pass: the combined program shares the
    // velocity-gradient tensor, and multi-output fusion computes everything
    // in a single generated kernel.
    let combined = format!(
        "{}\nv_mag = sqrt(u*u + v*v + w*w)\nwx = dw[1] - dv[2]\nwy = du[2] - dw[0]\nwz = dv[0] - du[1]\nw_mag = sqrt(wx*wx + wy*wy + wz*wz)\n",
        Workload::QCriterion.source().trim_end()
    );
    let (outputs, report) = engine
        .run(
            &Request::outputs(&combined, &["v_mag", "w_mag", "q_crit"], Strategy::Fusion),
            &fields,
        )
        .expect("multi-output derive");
    let (writes, reads, kernels) = report.table2_row();
    println!();
    println!(
        "multi-output: {} derived fields from {kernels} fused kernel launch \
         ({writes} uploads, {reads} download, {:.3} ms modeled)",
        outputs.len(),
        report.device_seconds() * 1e3
    );
}
