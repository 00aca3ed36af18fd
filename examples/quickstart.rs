//! Quickstart: derive a field from three arrays in a dozen lines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dfg::prelude::*;

fn main() {
    // A host application has some arrays. Here: a 32³ mesh with the
    // synthetic Rayleigh–Taylor-like velocity field.
    let mesh = RectilinearMesh::unit_cube([32, 32, 32]);
    let fields = dfg::core::FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());

    // Hand the engine a user expression — the same text a VisIt user would
    // type — and pick an execution strategy.
    let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
    let request = Request::source("v_mag = sqrt(u*u + v*v + w*w)", Strategy::Fusion);
    let (out, report) = engine
        .run(&request, &fields)
        .expect("derive velocity magnitude");

    let field = out.first().expect("real-mode run returns data");
    let data = field.as_scalar().expect("scalar result");
    let max = data.iter().cloned().fold(f32::MIN, f32::max);
    let mean = data.iter().sum::<f32>() / data.len() as f32;

    println!("derived `v_mag` over {} cells", field.ncells);
    println!("  max  = {max:.4}");
    println!("  mean = {mean:.4}");
    println!();
    let (w, r, k) = report.table2_row();
    println!("device events: {w} writes, {r} reads, {k} kernel launch(es)");
    println!(
        "modeled device time: {:.3} ms",
        report.device_seconds() * 1e3
    );
    println!(
        "wall time:           {:.3} ms",
        report.wall.as_secs_f64() * 1e3
    );
    println!();
    println!("generated OpenCL-style kernel source:");
    println!("{}", report.generated_source.as_deref().unwrap_or("<none>"));
}
