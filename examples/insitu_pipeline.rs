//! In-situ pipeline: embedding the framework in a *running* simulation
//! (§III-D of the paper).
//!
//! A real (miniature) flow solver advances a periodic velocity field by
//! semi-Lagrangian advection; at each time step the framework derives
//! vorticity magnitude and the Q-criterion **in situ** from the solver's
//! live arrays — no file I/O — using multi-output fusion (one kernel
//! computes both fields). The pipeline result is reused across "renders"
//! within a step, exactly as the paper's VisIt host reuses the derived mesh
//! until the next time step arrives.
//!
//! The hot loop runs under a persistent [`Session`]: mesh coordinates and
//! `dims` upload once for the whole run, only the velocity fields the
//! solver actually changed are re-uploaded each step, and dynamic code
//! generation + kernel compilation happen exactly once.
//!
//! ```sh
//! cargo run --release --example insitu_pipeline
//! ```

use dfg::core::Workload;
use dfg::prelude::*;
use dfg::sim::FlowSimulation;

fn main() {
    let dims = [32usize, 32, 32];
    let mut sim = FlowSimulation::from_workload(dims, &RtWorkload::paper_default());
    sim.viscosity = 5e-4;
    let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
    let mut session = engine.session();
    // One fused kernel computes both derived fields per step.
    let source = format!(
        "{}\nw_mag = norm(curl(u, v, w, dims, x, y, z))\n",
        Workload::QCriterion.source().trim_end()
    );

    println!(
        "in-situ derived fields over a live {}x{}x{} semi-Lagrangian flow solver",
        dims[0], dims[1], dims[2]
    );
    println!();
    println!(
        "{:>5} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "step", "time", "energy", "max |ω|", "max Q", "derive ms"
    );
    println!("{}", "-".repeat(66));

    for step in 0..8 {
        sim.step(0.02);
        let (outputs, report) = session
            .run(
                &Request::outputs(&source, &["w_mag", "q_crit"], Strategy::Fusion),
                sim.fields(),
            )
            .expect("in-situ multi-output derive");
        let w_mag = outputs[0].as_scalar().expect("scalar");
        let q = outputs[1].as_scalar().expect("scalar");
        let max_w = w_mag.iter().cloned().fold(f32::MIN, f32::max);
        let max_q = q.iter().cloned().fold(f32::MIN, f32::max);
        println!(
            "{:>5} {:>9.3} {:>12.3} {:>12.3} {:>12.3} {:>10.3}",
            step,
            sim.time(),
            sim.kinetic_energy(),
            max_w,
            max_q,
            report.device_seconds() * 1e3,
        );
        // Subsequent renders of this step reuse `outputs` — the pipeline ran
        // once (a single fused kernel: check the event counts).
        assert_eq!(report.table2_row().2, 1, "one kernel for both outputs");
    }
    let stats = session.end();
    println!();
    println!("each step ran ONE fused kernel producing both w_mag and q_crit in situ.");
    println!(
        "session amortization: {} codegen+compile ({} cached), {} uploads ({} skipped: \
         coordinates and dims stayed device-resident)",
        stats.codegen_compiles, stats.codegen_cached, stats.uploads, stats.uploads_skipped
    );
}
