//! The three engine workloads (`vmag_128`, `qcrit_128`, `insitu_slab`):
//! what is built in set-up, what one timed op of each arm calls, and what
//! the isolated layer probes need to know about them. The two serve
//! workloads live in `serve.rs`.

use dfg_core::{Engine, EngineOptions, ExecReport, Field, FieldSet, Session, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, VerifyPolicy};
use dfg_sim::FlowSimulation;
use dfg_trace::Tracer;

/// Seed of the committed baseline and of `golden.json`.
pub const DEFAULT_SEED: u64 = 20_120_101;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Small grids, same metric names (`--quick`).
    pub quick: bool,
}

/// The outputs and the report of one op.
pub struct Ran {
    pub fields: Vec<Field>,
    pub report: ExecReport,
}

/// An engine workload after set-up: arms that can be run one op at a time.
pub trait Bench {
    /// Arms of the timed window; `[0]` is the primary op.
    fn arms(&self) -> &'static [&'static str];
    /// Arms only the traced run executes (indices continue after `arms`).
    fn trace_only_arms(&self) -> &'static [&'static str] {
        &[]
    }
    /// Untimed step before every op.
    fn prepare(&mut self) {}
    /// Which input state the next op sees; ops on the same state must
    /// return bit-identical outputs, whatever their arm.
    fn state(&self) -> usize {
        0
    }
    /// One op of `arm`, as its user would call it.
    fn run(&mut self, arm: usize) -> Result<Ran, String>;
    /// What the isolated layer probes should use.
    fn probe(&self) -> Probe<'_>;
}

/// Inputs of the per-layer probes: the workload's program and data.
pub struct Probe<'a> {
    pub source: &'a str,
    /// Named roots for multi-output programs (`None`: the program result).
    pub outputs: Option<&'static [&'static str]>,
    pub fields: &'a FieldSet,
    pub dims: [usize; 3],
    /// The hand-written reference kernel covering the last root.
    pub reference: Workload,
}

fn engine(verify: VerifyPolicy, tracer: Option<&Tracer>) -> Engine {
    let mut engine = Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            verify,
            ..EngineOptions::default()
        },
    );
    if let Some(t) = tracer {
        engine.set_tracer(t.clone());
    }
    engine
}

fn single(report: ExecReport) -> Result<Ran, String> {
    let mut report = report;
    let field = report.field.take().ok_or("real mode returned no field")?;
    Ok(Ran {
        fields: vec![field],
        report,
    })
}

fn many((named, report): (Vec<(String, Field)>, ExecReport)) -> Ran {
    Ran {
        fields: named.into_iter().map(|(_, f)| f).collect(),
        report,
    }
}

/// `vmag_128` and `qcrit_128`: one of the paper's expressions on a cube,
/// one-shot `Engine::derive` per strategy.
pub struct OneShot {
    workload: Workload,
    dims: [usize; 3],
    fields: FieldSet,
    engine: Engine,
    /// Device budget of the `streamed` arm: a quarter of the single-pass
    /// footprint, so the slab ring really cycles (≈10 slabs).
    stream_budget: u64,
}

impl OneShot {
    pub fn build(workload: Workload, cfg: &Config, tracer: Option<&Tracer>) -> OneShot {
        let n = if cfg.quick { 16 } else { 128 };
        let dims = [n, n, n];
        let mesh = RectilinearMesh::unit_cube(dims);
        let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::new(cfg.seed, 4));
        // u, v, w, x, y, z and the output, 4 bytes a cell.
        let stream_budget = (7 * 4 * mesh.ncells() / 4) as u64;
        OneShot {
            workload,
            dims,
            fields,
            engine: engine(VerifyPolicy::Off, tracer),
            stream_budget,
        }
    }
}

impl Bench for OneShot {
    fn arms(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::QCriterion => &["fusion", "staged", "streamed"],
            _ => &["fusion", "staged", "roundtrip"],
        }
    }

    fn trace_only_arms(&self) -> &'static [&'static str] {
        match self.workload {
            // ≈580 ms an op: too slow to give the window enough rounds.
            Workload::QCriterion => &["roundtrip"],
            _ => &[],
        }
    }

    fn run(&mut self, arm: usize) -> Result<Ran, String> {
        let name = self
            .arms()
            .iter()
            .chain(self.trace_only_arms())
            .nth(arm)
            .ok_or("no such arm")?;
        let src = self.workload.source();
        let report = match *name {
            "fusion" => self.engine.derive(src, &self.fields, Strategy::Fusion),
            "staged" => self.engine.derive(src, &self.fields, Strategy::Staged),
            "roundtrip" => self.engine.derive(src, &self.fields, Strategy::Roundtrip),
            _ => self
                .engine
                .derive_streamed(src, &self.fields, Some(self.stream_budget)),
        };
        single(report.map_err(|e| format!("{name}: {e}"))?)
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            source: self.workload.source(),
            outputs: None,
            fields: &self.fields,
            dims: self.dims,
            reference: self.workload,
        }
    }
}

/// Roots of the in-situ program.
const INSITU_OUTPUTS: [&str; 2] = ["v_mag", "w_mag"];

/// The two solver snapshots an in-situ run alternates between.
pub struct Snapshots {
    pub dims: [usize; 3],
    states: [[Vec<f32>; 3]; 2],
    /// Wall milliseconds of the one `FlowSimulation::step` between them.
    pub step_ms: f64,
}

impl Snapshots {
    /// Run the host simulation: its initial state and the state one step
    /// later. Host-application work, so outside `setup_s`.
    pub fn take(cfg: &Config) -> Snapshots {
        let dims = if cfg.quick {
            [32, 32, 8]
        } else {
            [256, 256, 16]
        };
        let mut sim = FlowSimulation::from_workload(dims, &RtWorkload::new(cfg.seed, 4));
        let grab = |sim: &FlowSimulation| {
            let (u, v, w) = sim.velocity();
            [u.to_vec(), v.to_vec(), w.to_vec()]
        };
        let first = grab(&sim);
        let t = std::time::Instant::now();
        sim.step(0.01);
        let step_ms = t.elapsed().as_secs_f64() * 1e3;
        Snapshots {
            dims,
            states: [first, grab(&sim)],
            step_ms,
        }
    }
}

/// `insitu_slab`: `v_mag` + `w_mag` every cycle on a slab whose velocity
/// the host replaces before each cycle, through sessions at the three
/// verification levels and through a session-less engine.
pub struct Insitu<'s> {
    snaps: &'s Snapshots,
    source: String,
    fields: FieldSet,
    /// `cycle`, `cycle_residents`, `cycle_full`.
    sessions: Vec<Session>,
    oneshot: Engine,
    /// Snapshot the next `prepare` installs.
    next: usize,
}

impl<'s> Insitu<'s> {
    pub fn build(snaps: &'s Snapshots, cfg: &Config, tracer: Option<&Tracer>) -> Insitu<'s> {
        let mesh = RectilinearMesh::unit_cube(snaps.dims);
        let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::new(cfg.seed, 4));
        let sessions = [
            VerifyPolicy::Off,
            VerifyPolicy::Residents,
            VerifyPolicy::Full,
        ]
        .into_iter()
        .map(|v| engine(v, tracer).into_session())
        .collect();
        Insitu {
            snaps,
            source: format!(
                "{}{}",
                Workload::VelocityMagnitude.source(),
                Workload::VorticityMagnitude.source()
            ),
            fields,
            sessions,
            oneshot: engine(VerifyPolicy::Off, tracer),
            next: 1,
        }
    }

    /// Session counters of the `cycle` arm and its pool hits.
    pub fn session_counters(&self) -> (dfg_core::SessionStats, u64) {
        (
            self.sessions[0].stats().clone(),
            self.sessions[0].pool_hits(),
        )
    }
}

impl Bench for Insitu<'_> {
    fn arms(&self) -> &'static [&'static str] {
        &["cycle", "cycle_residents", "cycle_full", "oneshot"]
    }

    fn trace_only_arms(&self) -> &'static [&'static str] {
        &["roundtrip"]
    }

    /// The solver hands over its next state: `u, v, w` become dirty and are
    /// uploaded again; `dims, x, y, z` stay resident.
    fn prepare(&mut self) {
        let state = &self.snaps.states[self.next];
        for (name, data) in ["u", "v", "w"].into_iter().zip(state) {
            self.fields
                .update_scalar(name, data)
                .expect("snapshot matches the slab");
        }
        self.next ^= 1;
    }

    fn state(&self) -> usize {
        self.next ^ 1
    }

    fn run(&mut self, arm: usize) -> Result<Ran, String> {
        let (src, fields) = (&self.source, &self.fields);
        let out = match arm {
            0..=2 => self.sessions[arm].derive_many(src, &INSITU_OUTPUTS, fields, Strategy::Fusion),
            3 => self
                .oneshot
                .derive_many(src, &INSITU_OUTPUTS, fields, Strategy::Fusion),
            4 => self
                .oneshot
                .derive_many(src, &INSITU_OUTPUTS, fields, Strategy::Roundtrip),
            _ => return Err("no such arm".into()),
        };
        out.map(many).map_err(|e| format!("arm {arm}: {e}"))
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            source: &self.source,
            outputs: Some(&INSITU_OUTPUTS),
            fields: &self.fields,
            dims: self.snaps.dims,
            reference: Workload::VorticityMagnitude,
        }
    }
}
