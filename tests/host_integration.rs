//! Host-substrate integration: solver → engine → dataset → VTK file →
//! reload → re-derive. Exercises the full in-situ round trip across
//! `dfg-sim`, `dfg-core`, and `dfg-vtk`.

use dfg::core::{FieldSet, Workload};
use dfg::prelude::*;
use dfg::sim::FlowSimulation;
use dfg::vtk::io::{from_vtk_string, to_vtk_string};
use dfg::vtk::{DataArray, RectilinearDataset};

#[test]
fn solver_state_round_trips_through_vtk_and_rederives() {
    // 1. Advance the solver a few steps.
    let dims = [10usize, 10, 10];
    let mut sim = FlowSimulation::from_workload(dims, &RtWorkload::paper_default());
    for _ in 0..3 {
        sim.step(0.01);
    }

    // 2. Derive the Q-criterion in situ.
    let mut engine = Engine::new(DeviceProfile::nvidia_m2050());
    let q_live = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
            sim.fields(),
        )
        .expect("in-situ derive")
        .0
        .remove(0);

    // 3. Checkpoint solver state + derived field to a VTK document.
    let (u, v, w) = sim.velocity();
    let mut ds = RectilinearDataset::new(sim.mesh().clone());
    ds.set_array("u", DataArray::scalar(u.to_vec())).unwrap();
    ds.set_array("v", DataArray::scalar(v.to_vec())).unwrap();
    ds.set_array("w", DataArray::scalar(w.to_vec())).unwrap();
    ds.set_array("q_crit", DataArray::scalar(q_live.data.clone()))
        .unwrap();
    let document = to_vtk_string(&ds, "checkpoint step 3");

    // 4. Reload the checkpoint and re-derive from the restored arrays.
    let restored = from_vtk_string(&document).expect("checkpoint parses");
    let mut fields = FieldSet::new(restored.ncells());
    let (x, y, z) = restored.mesh.coord_arrays();
    fields.insert_scalar("x", x).unwrap();
    fields.insert_scalar("y", y).unwrap();
    fields.insert_scalar("z", z).unwrap();
    fields.insert_small("dims", restored.mesh.dims_buffer());
    for name in ["u", "v", "w"] {
        fields
            .insert_scalar(name, restored.array(name).unwrap().data.clone())
            .unwrap();
    }
    let q_restored = engine
        .run(
            &Request::source(Workload::QCriterion.source(), Strategy::Staged),
            &fields,
        )
        .expect("re-derive from checkpoint")
        .0
        .remove(0);

    // 5. The checkpointed derived field, the reloaded copy, and the
    //    re-derivation all agree bit-for-bit (ASCII VTK round-trips f32
    //    exactly via the Debug format).
    let q_saved = restored.array("q_crit").unwrap();
    for i in 0..q_live.data.len() {
        assert_eq!(
            q_live.data[i].to_bits(),
            q_saved.data[i].to_bits(),
            "save at {i}"
        );
        assert_eq!(
            q_live.data[i].to_bits(),
            q_restored.data[i].to_bits(),
            "re-derive at {i}"
        );
    }
}
