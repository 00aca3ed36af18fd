//! The conformance harness: every "run config A, run config B, compare" of
//! `dfg-core` goes through [`run`] and the invariant functions below.
//!
//! A [`Config`] says *where* a program runs — executor, holder (one-shot,
//! a session or a registry tenant of k cycles, or the reference kernel),
//! Real or Model, optimizer level, serial or pooled threads, verification,
//! recovery and fault plan — and a [`Program`] says *what* it computes;
//! [`run`] makes one `run` call per derive on its holder and returns what
//! every invariant reads. Each invariant is stated once (DESIGN.md,
//! "Invariants"):
//!
//! * [`same_bits`]: two runs computed the same field, bit for bit, where a
//!   NaN matches any NaN;
//! * [`paper_table2`]: a run's device-event counts are the paper's Table II;
//! * [`same_events`] and [`model_matches_real`]: Model == Real, event for
//!   event — kind, label, bytes, both clock ends, queue — and high water,
//!   with equal pool hits and session counters;
//! * the leak check: `in_use` returns to its baseline in every build, inside
//!   [`run`] after every session and tenant cycle, failed or not, inside
//!   `Engine::run` after every one-shot, failed or not, and inside
//!   `Engine::run_reference` after every reference kernel;
//! * [`downloads_handed_over_or_copied`]: a download's storage is handed to
//!   the host or copied, never both (DESIGN.md D10);
//! * [`matches_clean_level`]: a recovered run equals the fault-free run of
//!   the level it completed at.
//!
//! The unit tests (`src/tests.rs`) and each suite under `tests/` include
//! this file as their `harness` module.

#![allow(dead_code)]

use dfg_core::{
    Engine, EngineError, EngineOptions, ExecLevel, ExecReport, Field, FieldSet, OptLevel,
    RecoveryPolicy, Request, SessionRegistry, SessionStats, Strategy, Workload,
};
pub use dfg_core::{Exec, Program};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::EventKind::{DeviceToHost, HostToDevice};
use dfg_ocl::{DeviceProfile, ExecMode, FaultPlan, VerifyPolicy};
use dfg_trace::Tracer;
use proptest::Strategy as _;

/// The four executors a network of any shape runs on.
pub const EXECS: [Exec; 4] = Exec::ALL;

/// What holds a config's derives: the engine, one-shot; k cycles of one
/// session; k cycles of one [`SessionRegistry`] tenant; or the hand-written
/// kernel of the paper workload a source program spells, one-shot through
/// `Engine::run_reference` (the config's executor is not read).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Holder {
    OneShot,
    Session(usize),
    Tenant(usize),
    Reference,
}

impl Holder {
    /// `cycles` of one session when `session`, else a one-shot.
    pub fn session_if(session: bool, cycles: usize) -> Holder {
        if session {
            Holder::Session(cycles)
        } else {
            Holder::OneShot
        }
    }
}

/// Where a program runs. [`Config::new`] is a one-shot on the X5660 in
/// Real mode, unoptimized, pooled, unverified, without recovery or faults.
#[derive(Debug, Clone)]
pub struct Config {
    pub exec: Exec,
    pub holder: Holder,
    pub mode: ExecMode,
    pub opt: OptLevel,
    /// Under `dfg_exec::with_serial` instead of on the pool.
    pub serial: bool,
    pub verify: VerifyPolicy,
    pub recovery: RecoveryPolicy,
    /// Installed on the engine; a clone shares its counters and rules.
    pub faults: Option<FaultPlan>,
    pub device: DeviceProfile,
    /// A tracer is attached, so each report carries its run's spans.
    pub traced: bool,
}

impl Config {
    pub fn new(exec: impl Into<Exec>) -> Config {
        Config {
            exec: exec.into(),
            holder: Holder::OneShot,
            mode: ExecMode::Real,
            opt: OptLevel::Off,
            serial: false,
            verify: VerifyPolicy::Off,
            recovery: RecoveryPolicy::disabled(),
            faults: None,
            device: DeviceProfile::intel_x5660(),
            traced: false,
        }
    }

    /// The reference kernel's one-shot (see [`Holder::Reference`]).
    pub fn reference() -> Config {
        Config {
            holder: Holder::Reference,
            ..Config::new(Exec::Fusion)
        }
    }

    fn options(&self) -> EngineOptions {
        EngineOptions {
            mode: self.mode,
            optimize: self.opt,
            recovery: self.recovery,
            verify: self.verify,
            ..Default::default()
        }
    }

    /// The engine this config runs on.
    pub fn engine(&self) -> Engine {
        let mut engine = Engine::with_options(self.device.clone(), self.options());
        if self.traced {
            engine.set_tracer(Tracer::new());
        }
        if let Some(plan) = &self.faults {
            engine.set_fault_plan(plan.clone());
        }
        engine
    }
}

/// One field set per mode: Real runs read `real`, Model runs `model`.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub real: FieldSet,
    pub model: FieldSet,
}

impl Inputs {
    /// The paper's synthetic RT fields on a unit cube of `dims` cells. The
    /// model set carries a concrete `dims`: streaming a gradient program
    /// reads the grid shape on the host, bytes a Model context ignores.
    pub fn rt(dims: [usize; 3]) -> Inputs {
        let mesh = RectilinearMesh::unit_cube(dims);
        let mut model = FieldSet::virtual_rt(dims);
        model.insert_small("dims", mesh.dims_buffer());
        Inputs {
            real: FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default()),
            model,
        }
    }

    fn for_mode(&self, mode: ExecMode) -> &FieldSet {
        match mode {
            ExecMode::Real => &self.real,
            ExecMode::Model => &self.model,
        }
    }
}

/// One derive: its fields, one per root (none in Model mode), its report
/// (events, queues and clocks, high water, `host_bytes_*`, recovery record,
/// integrity counters, trace) and the pool hits of its context so far.
#[derive(Debug, Clone)]
pub struct Run {
    pub fields: Vec<Field>,
    pub report: ExecReport,
    pub pool_hits: u64,
}

/// Every derive of one config: the one-shot's, or each cycle's.
#[derive(Debug)]
pub struct Outcome {
    pub runs: Vec<Result<Run, EngineError>>,
    /// The session's counters at its end (`None` for a one-shot).
    pub stats: Option<SessionStats>,
}

impl Outcome {
    /// The successful runs; panics, naming `what`, on a failed one.
    pub fn ok(&self, what: &str) -> Vec<&Run> {
        let ok = self.runs.iter().map(|r| match r {
            Ok(run) => run,
            Err(e) => panic!("{what}: {e}"),
        });
        ok.collect()
    }

    /// The only (or last) run, which must have succeeded.
    pub fn last(&self, what: &str) -> &Run {
        self.ok(what).pop().expect("a config runs at least once")
    }
}

/// The tenant a [`Holder::Tenant`] config runs as.
const TENANT: &str = "tenant";

/// Run `program` over `inputs` as `config` says: one `run` call per derive
/// on the config's holder, asserting after every session and tenant cycle,
/// failed or not, that no device bytes leaked beyond the residents (a
/// one-shot asserts it itself).
pub fn run(config: &Config, program: Program, inputs: &Inputs) -> Outcome {
    let fields = inputs.for_mode(config.mode);
    let request = Request {
        program,
        exec: config.exec,
    };
    let one_shot = |result: Result<(Vec<Field>, ExecReport), EngineError>| Outcome {
        runs: vec![result.map(|(fields, report)| Run {
            fields,
            report,
            pool_hits: 0,
        })],
        stats: None,
    };
    let go = || match config.holder {
        Holder::OneShot => one_shot(config.engine().run(&request, fields)),
        Holder::Reference => {
            let Program::Source(src) = program else {
                panic!("the reference kernels compute source programs")
            };
            let workload = Workload::ALL.into_iter().find(|w| w.source() == src);
            let workload = workload.expect("the reference kernels compute the paper workloads");
            let report = config.engine().run_reference(workload, fields);
            one_shot(report.map(|mut r| (r.field.take().into_iter().collect(), r)))
        }
        Holder::Session(k) => {
            let mut engine = config.engine();
            let mut session = engine.session();
            let runs = cycles(config, k, || {
                let result = session.run(&request, fields);
                let in_use = session.context().in_use_bytes();
                (
                    result,
                    in_use,
                    session.resident_bytes(),
                    session.pool_hits(),
                )
            });
            Outcome {
                runs,
                stats: Some(session.end()),
            }
        }
        Holder::Tenant(k) => {
            assert!(
                config.faults.is_none(),
                "a tenant's engine takes no fault plan"
            );
            let mut registry = SessionRegistry::new(config.device.clone(), config.options());
            if config.traced {
                registry.set_tracer(Tracer::new());
            }
            let runs = cycles(config, k, || {
                let result = registry.run(TENANT, &request, fields);
                let held = registry.stats(TENANT).expect("a tenant after its request");
                (
                    result,
                    held.in_use_bytes,
                    held.resident_bytes,
                    held.pool_hits,
                )
            });
            Outcome {
                runs,
                stats: registry.end_tenant(TENANT),
            }
        }
    };
    if config.serial {
        dfg_exec::with_serial(go)
    } else {
        go()
    }
}

/// `k` cycles of `cycle`, which returns a derive's result and then its
/// holder's bytes in use, resident bytes and pool hits; after each cycle,
/// failed or not, nothing may be in use beyond the residents.
fn cycles(
    config: &Config,
    k: usize,
    mut cycle: impl FnMut() -> (Result<(Vec<Field>, ExecReport), EngineError>, u64, u64, u64),
) -> Vec<Result<Run, EngineError>> {
    let run = |i| {
        let (result, in_use, resident, pool_hits) = cycle();
        assert_eq!(
            in_use, resident,
            "{config:?}: cycle {i} leaked beyond its residents"
        );
        result.map(|(fields, report)| Run {
            fields,
            report,
            pool_hits,
        })
    };
    (0..k).map(run).collect()
}

// ---------------------------------------------------------------------------
// The invariants.
// ---------------------------------------------------------------------------

/// Bit for bit, root by root: see [`same_lanes`].
#[track_caller]
pub fn same_bits(want: &[Field], got: &[Field], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: roots");
    for (root, (a, b)) in want.iter().zip(got).enumerate() {
        assert_eq!(a.width, b.width, "{what}: root {root} width");
        same_lanes(&a.data, &b.data, &format!("{what}: root {root}"));
    }
}

/// Bit for bit, except that a NaN matches any NaN: which of two NaN
/// operands an instruction returns is the CPU's rule on the operand order
/// the compiler chose.
#[track_caller]
pub fn same_lanes(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: lanes");
    let differ = (want.iter().zip(got))
        .position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()));
    if let Some(i) = differ {
        panic!("{what}: lane {i} differs: {} vs {}", want[i], got[i]);
    }
}

/// The paper's Table II: `(Dev-W, Dev-R, K-Exe)` of a workload's strategy.
#[track_caller]
pub fn paper_table2(run: &Run, workload: Workload, strategy: Strategy) {
    let want = workload.paper_table2(strategy);
    assert_eq!(run.report.table2_row(), want, "{workload} under {strategy}");
}

/// The same device events — kind, label, bytes, both clock ends to the
/// bit, queue (so the same per-queue clocks and makespan) — and the same
/// high-water mark.
#[track_caller]
pub fn same_events(a: &ExecReport, b: &ExecReport, what: &str) {
    let stream = |r: &ExecReport| -> Vec<_> {
        let events = r.profile.events.iter();
        events
            .map(|e| {
                let (t0, t1) = (e.t_start.to_bits(), e.t_end.to_bits());
                (e.kind, e.label.clone(), e.bytes, t0, t1, e.queue)
            })
            .collect()
    };
    let (a_events, b_events) = (stream(a), stream(b));
    let first = a_events.iter().zip(&b_events).position(|(x, y)| x != y);
    if let Some(i) = first {
        panic!("{what}: event {i} {:?} vs {:?}", a_events[i], b_events[i]);
    }
    assert_eq!(a_events.len(), b_events.len(), "{what}: event count");
    let high_water = |r: &ExecReport| r.profile.high_water_bytes;
    assert_eq!(high_water(a), high_water(b), "{what}: high water");
}

/// Model == Real: every run records the same events (see [`same_events`])
/// and the same pool hits, and a session ends with the same counters. A
/// Model run returns no data and neither copies nor zero-fills a byte on
/// the host.
#[track_caller]
pub fn model_matches_real(real: &Outcome, model: &Outcome, what: &str) {
    let (real_runs, model_runs) = (real.ok(what), model.ok(what));
    assert_eq!(real_runs.len(), model_runs.len(), "{what}: runs");
    for (i, (r, m)) in real_runs.iter().zip(&model_runs).enumerate() {
        let what = format!("{what} run {i}");
        same_events(&r.report, &m.report, &what);
        assert_eq!(r.pool_hits, m.pool_hits, "{what}: pool hits");
        assert!(m.fields.is_empty(), "{what}: model mode produced data");
        let host = |r: &Run| {
            (
                r.report.profile.host_bytes_copied,
                r.report.profile.host_bytes_zeroed,
            )
        };
        assert_eq!(host(m), (0, 0), "{what}: model host copies, zero-fills");
    }
    assert_eq!(real.stats, model.stats, "{what}: session counters");
}

/// Two holders of one config agree run by run — the same bits (see
/// [`same_bits`]), events (see [`same_events`]) and pool hits, or the same
/// error — and end with the same session counters.
#[track_caller]
pub fn same_runs(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.runs.len(), b.runs.len(), "{what}: runs");
    for (i, pair) in a.runs.iter().zip(&b.runs).enumerate() {
        let what = format!("{what} run {i}");
        match pair {
            (Ok(x), Ok(y)) => {
                same_bits(&x.fields, &y.fields, &what);
                same_events(&x.report, &y.report, &what);
                assert_eq!(x.pool_hits, y.pool_hits, "{what}: pool hits");
            }
            (x, y) => assert_eq!(x.as_ref().err(), y.as_ref().err(), "{what}"),
        }
    }
    assert_eq!(a.stats, b.stats, "{what}: session counters");
}

/// Every download's storage is either handed to the host or copied, never
/// both (DESIGN.md D10): the bytes copied plus the bytes handed over (the
/// `handed_over` lanes of the `*.download` spans) are the bytes downloaded
/// — except streamed, which copies its slab windows both ways and hands
/// nothing over. Needs a traced run; returns the bytes handed over.
#[track_caller]
pub fn downloads_handed_over_or_copied(run: &Run, exec: Exec, what: &str) -> u64 {
    let trace = run.report.trace.as_ref().expect("a traced config");
    let handed_over = 4
        * (trace.spans().iter())
            .filter(|s| s.name.ends_with(".download"))
            .filter_map(|s| s.meta_u64("handed_over"))
            .sum::<u64>();
    let profile = &run.report.profile;
    let (copied, down) = (profile.host_bytes_copied, profile.bytes(DeviceToHost));
    match exec {
        Exec::Streamed(_) => {
            let up = profile.bytes(HostToDevice);
            assert_eq!((copied, handed_over), (up + down, 0), "{what}: streamed");
        }
        _ => assert_eq!(copied + handed_over, down, "{what}: copied + handed over"),
    }
    handed_over
}

/// `config` in Real and in Model mode, which must agree
/// ([`model_matches_real`]); returns the Real outcome.
pub fn real_and_model(config: &Config, program: Program, inputs: &Inputs, what: &str) -> Outcome {
    let real = run(config, program, inputs);
    let model = Config {
        mode: ExecMode::Model,
        ..config.clone()
    };
    model_matches_real(&real, &run(&model, program, inputs), what);
    real
}

/// `config` traced in Real mode and in Model mode (see
/// [`real_and_model`]): every Real run computes `want`'s bits and hands
/// each download over or copies it.
pub fn agrees(config: &Config, program: Program, inputs: &Inputs, want: &Outcome) -> Outcome {
    let what = format!("{config:?}");
    let traced = Config {
        traced: true,
        ..config.clone()
    };
    let real = real_and_model(&traced, program, inputs, &what);
    for run in real.ok(&what) {
        same_bits(&want.last("reference").fields, &run.fields, &what);
        downloads_handed_over_or_copied(run, config.exec, &what);
    }
    real
}

/// The case count of the random-network property (see
/// [`agrees_with_roundtrip`]): the element-wise and vector DAGs of
/// `tests::in_place` and the expressions of `tests/opt_matrix.rs`.
pub const RANDOM_CASES: u32 = 48;

/// The axes a random-network case draws; its executors, one-shot and
/// session, Real and Model are swept, not drawn. Serial or pooled,
/// verified or not, and a session of two or three cycles (so at least one
/// cycle runs on a warm pool). The executor is a placeholder.
pub fn random_axes() -> impl proptest::Strategy<Value = Config> {
    (2usize..4, 0u8..2, 0u8..2).prop_map(|(cycles, serial, verify)| Config {
        holder: Holder::Session(cycles),
        serial: serial == 1,
        verify: [VerifyPolicy::Off, VerifyPolicy::Full][verify as usize],
        ..Config::new(Exec::Roundtrip)
    })
}

/// The random-network property: `program` under each of `configs` computes
/// the bits of roundtrip — unoptimized, one-shot, pooled — with Model ==
/// Real and every download handed over or copied (see [`agrees`]). Returns
/// each config's (traced, Real) outcome.
pub fn agrees_with_roundtrip(
    configs: &[Config],
    program: Program,
    inputs: &Inputs,
) -> Vec<Outcome> {
    let want = run(&Config::new(Exec::Roundtrip), program, inputs);
    let agree = configs
        .iter()
        .map(|config| agrees(config, program, inputs, &want));
    agree.collect()
}

/// The fault-free fields of every execution level of one source program:
/// what a recovered run is compared against.
pub struct Levels {
    roundtrip: Vec<Field>,
    staged: Vec<Field>,
    fusion: Vec<Field>,
    streamed: Vec<Field>,
}

impl Levels {
    pub fn clean(source: &str, inputs: &Inputs) -> Levels {
        let fields = |exec| {
            let outcome = run(&Config::new(exec), Program::Source(source), inputs);
            outcome.last("clean run").fields.clone()
        };
        Levels {
            roundtrip: fields(Exec::Roundtrip),
            staged: fields(Exec::Staged),
            fusion: fields(Exec::Fusion),
            streamed: fields(Exec::Streamed(None)),
        }
    }

    pub fn at(&self, level: ExecLevel) -> &[Field] {
        match level {
            // The CPU fallback runs the same generated fused kernel on the
            // same host arithmetic, so its bits match single-pass fusion.
            ExecLevel::Fusion | ExecLevel::CpuFusion => &self.fusion,
            ExecLevel::Staged => &self.staged,
            ExecLevel::Roundtrip => &self.roundtrip,
            ExecLevel::Streamed => &self.streamed,
        }
    }
}

/// Healed == clean: a run of `exec` that succeeded, recovered or not, equals
/// the fault-free run of the level it completed at, and is marked degraded
/// exactly when that level is not the one requested. Returns that level.
#[track_caller]
pub fn matches_clean_level(run: &Run, exec: Exec, levels: &Levels, what: &str) -> ExecLevel {
    let recovery = run.report.recovery.as_ref();
    let completed = recovery.map_or(Some(exec.level()), |r| r.completed);
    let completed = completed.unwrap_or_else(|| panic!("{what}: success names no level"));
    if let Some(r) = recovery {
        assert_eq!(r.degraded, completed != exec.level(), "{what}: degraded");
    }
    same_bits(
        levels.at(completed),
        &run.fields,
        &format!("{what} at {completed}"),
    );
    completed
}
