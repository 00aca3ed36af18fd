//! The distributed run driver: ranks, sub-grid assignment, halo exchange,
//! per-rank engines, rank-failure tolerance, and result assembly. It is the
//! crate's one "split, ghost, derive, reassemble" path: one node driving N
//! devices is `Cluster { nodes: 1, devices_per_node: N }`.
//!
//! # Rank-failure tolerance
//!
//! A distributed run embedded in a simulation must not die with one rank.
//! Three layers make `run_distributed` survive rank loss:
//!
//! * **Deadline-based halo exchange** — every halo receive is a
//!   `recv_timeout` driven by [`DistOptions::exchange_deadline`]. A
//!   mailbox that stays silent past the deadline (a hung neighbour) or
//!   disconnects with faces outstanding (a dead neighbour) stops blocking
//!   the rank: the missing ghost faces, and any that arrived garbled, are
//!   re-sampled analytically from the global mesh. Because the RT workload
//!   is per-cell analytic in the global axis coordinates, the filled bytes
//!   are identical to what the neighbour would have sent.
//! * **Joining every live rank** — each rank is a scoped thread that
//!   returns its output or a typed error, or panics (an injected
//!   `rank_die` or a genuine bug). The driver joins every rank not fated
//!   to hang, so it waits exactly as long as the slowest of them; ranks
//!   fated to hang are written off up front and released once the others
//!   are joined.
//! * **Block redistribution** — blocks owned by lost ranks are marked
//!   orphaned and re-executed on surviving ranks (round-robin over the
//!   sorted survivor list), with analytically sampled ghost data. The
//!   recovery pass is recorded in [`DistResult::redistributed_blocks`] and
//!   `recover.rank` trace spans.
//!
//! Exchange deadlines bound *wall-clock* channel waits; the modeled device
//! clocks never include them. Both modes walk the same halo sends and draw
//! the same `exchange_drop` and `halo_garble` rules in the same order; a
//! Model run moves no data and counts a lost or garbled face where a Real
//! receiver fills it, which is only when that receiver is not fated to die
//! or hang. So `rank_device_seconds`, `makespan_seconds`, `lost_ranks`,
//! `redistributed_blocks`, `ghost_filled_faces`, `exchange_drops`,
//! `garbled_faces` and `degraded` are identical in [`ExecMode::Model`] and
//! [`ExecMode::Real`]; rank fates come from the pure
//! [`FaultPlan::rank_fate`] query in both.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use dfg_core::{
    Engine, EngineError, EngineOptions, FieldSet, RecoveryPolicy, RecoveryReport, Request,
    Strategy, Workload,
};
use dfg_mesh::{decomp, partition_blocks, RectilinearMesh, RtWorkload, SubGrid};
use dfg_ocl::{DeviceProfile, ExecMode, FaultKind, FaultPlan, RankFate};
use dfg_trace::{span, Trace, Tracer};

use crate::exchange::{
    extract_face, extract_interior, insert_face, insert_interior, neighbor_count, ExchangeError,
    FaceMsg,
};

/// Cluster topology: how many nodes, and how many OpenCL devices (= MPI
/// ranks, as in the paper) each node drives.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Node count.
    pub nodes: usize,
    /// Devices (ranks) per node. The paper uses two GPUs per Edge node.
    pub devices_per_node: usize,
    /// Device profile each rank drives.
    pub profile: DeviceProfile,
}

impl Cluster {
    /// The paper's distributed configuration: 128 Edge nodes × 2 M2050s.
    pub fn edge_128x2() -> Self {
        Cluster {
            nodes: 128,
            devices_per_node: 2,
            profile: DeviceProfile::nvidia_m2050(),
        }
    }

    /// Total ranks.
    pub fn ranks(&self) -> usize {
        self.nodes * self.devices_per_node
    }
}

/// Options for one distributed run.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Which expression to evaluate.
    pub workload: Workload,
    /// Which execution strategy each rank uses.
    pub strategy: Strategy,
    /// Real execution (with data and halo exchange) or model-only.
    pub mode: ExecMode,
    /// Per-rank recovery policy: each rank's engine retries transient
    /// device faults and walks the strategy fallback chain independently,
    /// so one degraded device slows its rank instead of killing the run.
    pub recovery: RecoveryPolicy,
    /// Fault-injection spec installed on every rank's engine (see
    /// [`dfg_ocl::FaultPlan::parse`]). The spec's seed is offset by the
    /// rank id, so rate-based faults hit different operations on different
    /// ranks — like real hardware — while staying fully deterministic.
    /// Rank-level kinds (`rank_die`, `rank_hang`, `exchange_drop`) are
    /// interpreted by this driver rather than the device layer.
    pub fault_spec: Option<String>,
    /// Longest *wall-clock* silence tolerated while waiting on halo faces
    /// before the outstanding ones are declared lost and filled
    /// analytically.
    /// Deadlines never touch the modeled device clocks, so Model and Real
    /// runs of the same faults report identical virtual times.
    pub exchange_deadline: Duration,
    /// Buffer-verification policy installed on every rank's engine (and on
    /// engines spun up to adopt orphaned blocks). Halo faces are
    /// checksummed sender-side and verified on receipt regardless of this
    /// setting — face sums ride the message, cost one host-side pass over
    /// a 2-D plane, and never touch the modeled clocks.
    pub verify: dfg_ocl::VerifyPolicy,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workload: Workload::QCriterion,
            strategy: Strategy::Fusion,
            mode: ExecMode::Real,
            recovery: RecoveryPolicy::disabled(),
            fault_spec: None,
            exchange_deadline: Duration::from_secs(10),
            verify: dfg_ocl::VerifyPolicy::Off,
        }
    }
}

/// What became of one rank in a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome {
    /// The rank completed every block assigned to it.
    Completed,
    /// The rank's thread panicked (an injected `rank_die` or a genuine
    /// panic), caught when the driver joined it.
    Died(String),
    /// The rank was fated to hang (an injected `rank_hang`): it never
    /// reports, so it was written off up front.
    Lost(String),
}

impl RankOutcome {
    /// Short label for logs and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            RankOutcome::Completed => "completed",
            RankOutcome::Died(_) => "died",
            RankOutcome::Lost(_) => "lost",
        }
    }
}

/// One rank's entry in the per-rank attempt log
/// ([`DistResult::rank_log`]).
#[derive(Debug, Clone)]
pub struct RankAttempt {
    /// Rank id.
    pub rank: usize,
    /// How the rank ended.
    pub outcome: RankOutcome,
    /// Blocks originally assigned to this rank.
    pub blocks_assigned: usize,
    /// Orphaned blocks this rank re-executed during redistribution.
    pub adopted_blocks: usize,
    /// Device-level recovery attempts (retries/fallbacks) merged across
    /// every block the rank ran, including adopted ones. Empty when the
    /// engine never engaged recovery.
    pub recovery: RecoveryReport,
}

/// Results of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Global mesh dims.
    pub global_dims: [usize; 3],
    /// Number of sub-grids processed.
    pub blocks: usize,
    /// Ranks used.
    pub ranks: usize,
    /// Assembled global derived field (real mode only).
    pub field: Option<Vec<f32>>,
    /// Modeled device seconds per rank (sum over its sub-grids, including
    /// adopted orphan blocks).
    pub rank_device_seconds: Vec<f64>,
    /// Max over ranks — the modeled parallel makespan.
    pub makespan_seconds: f64,
    /// Largest per-device allocation high-water mark seen.
    pub max_high_water: u64,
    /// Total kernel executions across all ranks.
    pub total_kernel_execs: usize,
    /// Merged per-rank span trees, rank-tagged; populated by
    /// [`run_distributed_traced`], `None` otherwise. Redistribution spans
    /// (`recover.rank`) ride on an extra coordinator lane tagged one past
    /// the last rank.
    pub trace: Option<Trace>,
    /// Ranks that completed at least one block on a fallback strategy
    /// rather than the requested one (sorted, deduplicated). Empty when
    /// recovery never degraded — including when recovery is disabled.
    pub degraded_ranks: Vec<usize>,
    /// Ranks that died or hung and were written off (sorted).
    pub lost_ranks: Vec<usize>,
    /// Orphaned blocks re-executed on survivors: `(block index, adopting
    /// rank)`, sorted by block.
    pub redistributed_blocks: Vec<(usize, usize)>,
    /// Per-rank attempt log: outcome, block counts, and merged
    /// device-level recovery attempts, one entry per rank.
    pub rank_log: Vec<RankAttempt>,
    /// Whether the run completed but not exactly as requested: ranks were
    /// lost, blocks redistributed, ghost faces analytically filled, or
    /// some rank fell back to another strategy. The output is still exact.
    pub degraded: bool,
    /// Ghost faces a surviving rank re-sampled analytically: its sender
    /// died or hung, `exchange_drop` took every transmit, or the face
    /// arrived garbled. A Model run counts the same faces.
    pub ghost_filled_faces: usize,
    /// Halo receives whose silence outlasted
    /// [`DistOptions::exchange_deadline`].
    pub exchange_timeouts: usize,
    /// Observed wall seconds rank threads spent blocked in halo receives
    /// (diagnostic only — never part of the modeled clocks; ~0 healthy).
    pub exchange_wait_seconds: f64,
    /// Halo-face transmits lost to injected `exchange_drop` faults
    /// (including failed retries).
    pub exchange_drops: u64,
    /// Halo faces that arrived with a checksum mismatch (injected
    /// `halo_garble`, or genuine in-flight corruption), dropped on receipt
    /// and healed by the analytic fill (each is also counted in
    /// [`DistResult::ghost_filled_faces`]).
    pub garbled_faces: u64,
}

/// Distributed-run failures.
#[derive(Debug)]
pub enum ClusterError {
    /// An engine on some rank failed (e.g. device OOM).
    Engine {
        /// Failing rank.
        rank: usize,
        /// Underlying failure.
        source: EngineError,
    },
    /// A halo exchange on some rank failed structurally (malformed face).
    Exchange {
        /// Failing rank.
        rank: usize,
        /// Underlying failure.
        source: ExchangeError,
    },
    /// Every rank owning blocks was lost; there is nobody left to
    /// redistribute the orphaned blocks to.
    NoSurvivors {
        /// The lost ranks (sorted).
        lost: Vec<usize>,
    },
    /// Invalid configuration.
    Config(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Engine { rank, source } => {
                write!(f, "rank {rank}: {source}")
            }
            ClusterError::Exchange { rank, source } => {
                write!(f, "rank {rank}: halo exchange failed: {source}")
            }
            ClusterError::NoSurvivors { lost } => {
                write!(
                    f,
                    "all ranks lost ({lost:?}); no survivors to redistribute to"
                )
            }
            ClusterError::Config(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine { source, .. } => Some(source),
            ClusterError::Exchange { source, .. } => Some(source),
            ClusterError::NoSurvivors { .. } | ClusterError::Config(_) => None,
        }
    }
}

/// Index of a block-grid coordinate in [`partition_blocks`] output order.
fn block_index(block: [usize; 3], nblocks: [usize; 3]) -> usize {
    block[0] + nblocks[0] * (block[1] + nblocks[1] * block[2])
}

/// Extra transmit attempts per halo face whose send was lost to an
/// injected `exchange_drop` fault (each attempt draws the fault plan again).
const EXCHANGE_RETRIES: u32 = 2;

/// The face-adjacent neighbours of `b` in exchange order — per axis the
/// low side, then the high side — as `(axis, high, neighbour block index)`.
fn face_neighbours(
    b: &SubGrid,
    nblocks: [usize; 3],
) -> impl Iterator<Item = (usize, bool, usize)> + '_ {
    (0..3).flat_map(move |axis| {
        [
            (false, b.block[axis] > 0),
            (true, b.block[axis] + 1 < nblocks[axis]),
        ]
        .into_iter()
        .filter(|&(_, exists)| exists)
        .map(move |(high, _)| {
            let mut nb = b.block;
            nb[axis] = if high { nb[axis] + 1 } else { nb[axis] - 1 };
            (axis, high, block_index(nb, nblocks))
        })
    })
}

/// A ghost face a rank is owed: (block slot, axis, low side, field).
type FaceKey = (usize, usize, bool, usize);

/// What one rank ran — its own blocks and the orphans it adopted — and
/// what its halo exchange saw.
#[derive(Default)]
struct RankOutput {
    results: Vec<(usize, Vec<f32>)>,
    device_seconds: f64,
    high_water: u64,
    kernel_execs: usize,
    trace: Option<Trace>,
    recovery: RecoveryReport,
    ghost_filled_faces: usize,
    exchange_timeouts: usize,
    exchange_wait_seconds: f64,
    exchange_drops: u64,
    garbled_faces: u64,
}

impl RankOutput {
    /// The one per-block derive: run the workload on block `bi` over the
    /// `fields` of its ghosted extent, keep the interior (Real mode), and
    /// add the run to this rank's account.
    fn derive(
        &mut self,
        engine: &mut Engine,
        opts: &DistOptions,
        (bi, b): (usize, &SubGrid),
        global_dims: [usize; 3],
        fields: &FieldSet,
    ) -> Result<(), EngineError> {
        let request = Request::source(opts.workload.source(), opts.strategy);
        let (out, report) = engine.run(&request, fields)?;
        if let Some(out) = out.first() {
            let (_, gdims) = b.ghosted(1, global_dims);
            let (istart, idims) = b.interior_in_ghosted(1, global_dims);
            let interior = extract_interior(&out.data, gdims, istart, idims, 1);
            self.results.push((bi, interior));
        }
        self.device_seconds += report.device_seconds();
        self.high_water = self.high_water.max(report.high_water_bytes());
        self.kernel_execs += report.profile.count(dfg_ocl::EventKind::KernelExec);
        if let Some(r) = &report.recovery {
            self.recovery.absorb(r);
        }
        Ok(())
    }
}

/// The fields block `b` derives over. Model mode: virtual fields of its
/// ghosted extent. Real mode: that extent's coordinates and `velocity`
/// (the rank's exchanged u, v, w), or, for an adopted orphan, the velocity
/// sampled analytically.
fn block_fields(
    global: &RectilinearMesh,
    rt: &RtWorkload,
    b: &SubGrid,
    mode: ExecMode,
    velocity: Option<[Vec<f32>; 3]>,
) -> FieldSet {
    let (goff, gdims) = b.ghosted(1, global.dims());
    if mode == ExecMode::Model {
        return FieldSet::virtual_rt(gdims);
    }
    let gmesh = global.submesh(goff, gdims);
    let Some([u, v, w]) = velocity else {
        return FieldSet::for_rt_mesh(&gmesh, rt);
    };
    let (x, y, z) = gmesh.coord_arrays();
    let mut fs = FieldSet::new(gmesh.ncells());
    for (name, data) in ["u", "v", "w", "x", "y", "z"]
        .into_iter()
        .zip([u, v, w, x, y, z])
    {
        fs.insert_scalar(name, data)
            .expect("sized to the ghosted extent");
    }
    fs.insert_small("dims", gmesh.dims_buffer());
    fs
}

/// A rank's engine: the run's mode, recovery and verification, the rank's
/// fault plan and, in a traced run, `tracer`.
fn rank_engine(
    profile: DeviceProfile,
    opts: &DistOptions,
    plan: Option<&FaultPlan>,
    tracer: Option<&Tracer>,
) -> Engine {
    let mut engine = Engine::with_options(
        profile,
        EngineOptions {
            mode: opts.mode,
            recovery: opts.recovery,
            verify: opts.verify,
            ..Default::default()
        },
    );
    if let Some(plan) = plan {
        engine.set_fault_plan(plan.clone());
    }
    if let Some(t) = tracer {
        engine.set_tracer(t.clone());
    }
    engine
}

/// Injected rank deaths panic on purpose; keep the default panic hook from
/// printing a message + backtrace for those (and only those). Installed
/// once, process-wide, the first time a run injects a `rank_die`; genuine
/// panics still report normally.
fn silence_injected_death_reports() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected rank_die"));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank thread panicked".to_string()
    }
}

/// Sample the face a lost neighbour would have sent: the plane of global
/// cells one layer outside `b`'s owned extent along `axis`. Because the RT
/// workload is per-cell analytic in the global axis coordinates (and
/// [`RectilinearMesh::submesh`] slices those axes), the bytes are identical
/// to what the neighbour's `extract_face` would have produced.
fn analytic_face(
    global: &RectilinearMesh,
    rt: &RtWorkload,
    b: &SubGrid,
    axis: usize,
    low_side: bool,
) -> [Vec<f32>; 3] {
    let mut offset = b.offset;
    let mut dims = b.dims;
    offset[axis] = if low_side {
        b.offset[axis] - 1
    } else {
        b.offset[axis] + b.dims[axis]
    };
    dims[axis] = 1;
    let plane = global.submesh(offset, dims);
    let (u, v, w) = rt.sample_velocity(&plane);
    [u, v, w]
}

/// Run a workload across a simulated cluster.
///
/// The global mesh is decomposed into `nblocks` sub-grids assigned
/// round-robin to ranks. In [`ExecMode::Real`] each rank samples its owned
/// cells of the synthetic RT field, exchanges one-cell halos with
/// neighbouring blocks over bounded channels, executes the expression per
/// ghosted sub-grid on its own simulated device, and the interiors are
/// assembled into the global derived field. In [`ExecMode::Model`] the same
/// schedule runs with virtual buffers (paper-scale without paper-scale
/// RAM). Rank death, rank hangs, and dropped halo faces (injected through
/// [`DistOptions::fault_spec`], or genuine panics) degrade the run instead
/// of killing it: see the module docs and [`DistResult::lost_ranks`].
pub fn run_distributed(
    global: &RectilinearMesh,
    nblocks: [usize; 3],
    rt: &RtWorkload,
    cluster: &Cluster,
    opts: &DistOptions,
) -> Result<DistResult, ClusterError> {
    run_distributed_inner(global, nblocks, rt, cluster, opts, false)
}

/// [`run_distributed`] with tracing: each rank records its own span tree
/// (halo exchange, per-block derives, device events), and the result's
/// `trace` holds all of them merged with rank tags — one lane per rank in
/// the Chrome-trace export.
pub fn run_distributed_traced(
    global: &RectilinearMesh,
    nblocks: [usize; 3],
    rt: &RtWorkload,
    cluster: &Cluster,
    opts: &DistOptions,
) -> Result<DistResult, ClusterError> {
    run_distributed_inner(global, nblocks, rt, cluster, opts, true)
}

fn run_distributed_inner(
    global: &RectilinearMesh,
    nblocks: [usize; 3],
    rt: &RtWorkload,
    cluster: &Cluster,
    opts: &DistOptions,
    traced: bool,
) -> Result<DistResult, ClusterError> {
    let ranks = cluster.ranks();
    if ranks == 0 {
        return Err(ClusterError::Config("cluster has zero ranks".into()));
    }
    let global_dims = global.dims();
    if (0..3).any(|d| nblocks[d] == 0 || nblocks[d] > global_dims[d]) {
        return Err(ClusterError::Config(format!(
            "{nblocks:?} blocks do not tile a {global_dims:?} mesh"
        )));
    }
    let blocks = partition_blocks(global_dims, nblocks);
    let nblocks_total = blocks.len();

    // Per-rank fault plans and rank fates, computed up front on the
    // coordinator so both sides agree by construction (the fate query is
    // pure). The spec's seed is offset by the rank id, exactly as each
    // rank's engine sees it.
    let mut plans: Vec<Option<FaultPlan>> = Vec::with_capacity(ranks);
    let mut fates: Vec<Option<RankFate>> = Vec::with_capacity(ranks);
    if let Some(spec) = &opts.fault_spec {
        let base = FaultPlan::parse(spec)
            .map_err(|e| ClusterError::Config(format!("bad fault spec: {e}")))?
            .seed();
        for rank in 0..ranks {
            let per_rank = format!("{spec},seed={}", base.wrapping_add(rank as u64));
            let plan = FaultPlan::parse(&per_rank)
                .map_err(|e| ClusterError::Config(format!("bad fault spec: {e}")))?;
            fates.push(plan.rank_fate(rank));
            plans.push(Some(plan));
        }
    } else {
        plans.resize_with(ranks, || None);
        fates.resize(ranks, None);
    }

    // One mailbox per rank, bounded at the faces the rank is owed. A sender
    // sends each face it owes at most once, so no send finds a mailbox
    // full, not even a hung or dead rank's.
    let (senders, receivers): (Vec<SyncSender<FaceMsg>>, Vec<Receiver<FaceMsg>>) = (0..ranks)
        .map(|r| {
            let owed: usize = (0..blocks.len())
                .filter(|bi| bi % ranks == r)
                .map(|bi| neighbor_count(&blocks[bi], nblocks) * 3)
                .sum();
            sync_channel(owed.max(1))
        })
        .unzip();
    // One park channel per rank: a rank fated to hang waits on its own
    // until the driver drops the sending end.
    let (parks, parked): (Vec<_>, Vec<_>) = (0..ranks).map(|_| channel::<()>()).unzip();

    // Every rank not fated to hang returns (or panics) on its own: join
    // those, then release the parked ones so the scope can join them.
    let joined = std::thread::scope(|scope| {
        let handles: Vec<_> = (receivers.into_iter().zip(parked).enumerate())
            .map(|(rank, (receiver, park))| {
                let senders = senders.clone();
                let (blocks, fates, plan) = (&blocks, &fates, plans[rank].as_ref());
                let profile = cluster.profile.clone();
                scope.spawn(move || {
                    // Injected rank fates fire before any work, in both
                    // modes. A dying rank panics, which its join reports
                    // as Died, exactly like a genuine bug. A hung rank
                    // parks *holding its halo senders*, so neighbours see
                    // real silence until the driver releases it.
                    match fates[rank] {
                        Some(RankFate::Die) => {
                            silence_injected_death_reports();
                            std::panic::panic_any(format!("injected rank_die on rank {rank}"))
                        }
                        Some(RankFate::Hang) => {
                            let _ = park.recv();
                            return Ok(RankOutput::default());
                        }
                        None => {}
                    }
                    let tracer = traced.then(Tracer::new);
                    let mut engine = rank_engine(profile, opts, plan, tracer.as_ref());
                    let mut out = run_rank(
                        rank,
                        ranks,
                        global,
                        nblocks,
                        blocks,
                        rt,
                        &mut engine,
                        opts,
                        plan,
                        fates,
                        senders,
                        receiver,
                        tracer.as_ref(),
                    )?;
                    out.trace = tracer.as_ref().map(Tracer::snapshot);
                    Ok(out)
                })
            })
            .collect();
        // Drop the coordinator's halo handles so receivers observe
        // disconnection (a dead rank) once every live sender is done.
        drop(senders);
        let joined: Vec<_> = handles
            .into_iter()
            .zip(&fates)
            .map(|(h, fate)| (*fate != Some(RankFate::Hang)).then(|| h.join()))
            .collect();
        drop(parks);
        joined
    });

    // Engine failures keep the pre-resilience contract: the run errors,
    // rank-tagged and source-chained. Lowest rank wins for determinism.
    let mut outcomes = Vec::with_capacity(ranks);
    let mut outputs: Vec<Option<RankOutput>> = Vec::with_capacity(ranks);
    for report in joined {
        let (outcome, output) = match report {
            None => (RankOutcome::Lost("injected rank_hang".into()), None),
            Some(Ok(Ok(output))) => (RankOutcome::Completed, Some(output)),
            Some(Ok(Err(error))) => return Err(error),
            Some(Err(payload)) => (RankOutcome::Died(panic_reason(payload.as_ref())), None),
        };
        outcomes.push(outcome);
        outputs.push(output);
    }

    let lost_ranks: Vec<usize> = (0..ranks)
        .filter(|&r| outcomes[r] != RankOutcome::Completed)
        .collect();
    let survivors: Vec<usize> = (0..ranks).filter(|&r| outputs[r].is_some()).collect();
    let orphans: Vec<usize> = (0..nblocks_total)
        .filter(|bi| outcomes[bi % ranks] != RankOutcome::Completed)
        .collect();
    if !orphans.is_empty() && survivors.is_empty() {
        return Err(ClusterError::NoSurvivors { lost: lost_ranks });
    }

    // Redistribute orphaned blocks round-robin over the sorted survivors.
    // Ghost data comes from the analytic sampler (bit-identical to the
    // faces the dead rank would have exchanged), so adopted blocks are
    // exact. The adopter's modeled clock absorbs the extra work in both
    // modes identically.
    let coord_tracer = traced.then(Tracer::new);
    let mut redistributed: Vec<(usize, usize)> = Vec::new();
    let mut per_adopter: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &bi) in orphans.iter().enumerate() {
        let adopter = survivors[i % survivors.len()];
        per_adopter.entry(adopter).or_default().push(bi);
        redistributed.push((bi, adopter));
    }
    redistributed.sort_unstable();
    for (&adopter, bis) in &per_adopter {
        let _rspan = span!(
            coord_tracer,
            "recover.rank",
            adopter = adopter,
            blocks = bis.len(),
        );
        let plan = plans[adopter].as_ref();
        let mut engine = rank_engine(cluster.profile.clone(), opts, plan, coord_tracer.as_ref());
        let out = outputs[adopter].as_mut().expect("adopters survived");
        for &bi in bis {
            let fields = block_fields(global, rt, &blocks[bi], opts.mode, None);
            out.derive(&mut engine, opts, (bi, &blocks[bi]), global_dims, &fields)
                .map_err(|source| ClusterError::Engine {
                    rank: adopter,
                    source,
                })?;
        }
    }

    // Fold every survivor's output, adopted blocks included, into the
    // global result.
    let mut rank_device_seconds = vec![0.0f64; ranks];
    let mut rank_log = Vec::with_capacity(ranks);
    let mut max_high_water = 0u64;
    let mut total_kernel_execs = 0usize;
    let mut field = (opts.mode == ExecMode::Real).then(|| vec![0.0f32; global.ncells()]);
    let mut rank_traces = Vec::new();
    let mut degraded_ranks = Vec::new();
    let mut ghost_filled_faces = 0usize;
    let mut exchange_timeouts = 0usize;
    let mut exchange_wait_seconds = 0.0f64;
    let mut exchange_drops = 0u64;
    let mut garbled_faces = 0u64;
    for (rank, (outcome, out)) in outcomes.into_iter().zip(outputs).enumerate() {
        let out = out.unwrap_or_default();
        rank_device_seconds[rank] = out.device_seconds;
        max_high_water = max_high_water.max(out.high_water);
        total_kernel_execs += out.kernel_execs;
        if out.recovery.degraded {
            degraded_ranks.push(rank);
        }
        ghost_filled_faces += out.ghost_filled_faces;
        exchange_timeouts += out.exchange_timeouts;
        exchange_wait_seconds += out.exchange_wait_seconds;
        exchange_drops += out.exchange_drops;
        garbled_faces += out.garbled_faces;
        if let Some(trace) = out.trace {
            rank_traces.push((rank as u64, trace));
        }
        if let Some(f) = field.as_mut() {
            for (bi, interior) in &out.results {
                let b = &blocks[*bi];
                decomp::insert_block(f, global_dims, b.offset, b.dims, interior);
            }
        }
        rank_log.push(RankAttempt {
            rank,
            outcome,
            blocks_assigned: (rank..nblocks_total).step_by(ranks).count(),
            adopted_blocks: per_adopter.get(&rank).map_or(0, Vec::len),
            recovery: out.recovery,
        });
    }
    if let Some(t) = &coord_tracer {
        rank_traces.push((ranks as u64, t.snapshot()));
    }

    let makespan = rank_device_seconds.iter().cloned().fold(0.0, f64::max);
    let degraded = !lost_ranks.is_empty()
        || !redistributed.is_empty()
        || ghost_filled_faces > 0
        || !degraded_ranks.is_empty();
    Ok(DistResult {
        global_dims,
        blocks: nblocks_total,
        ranks,
        field,
        rank_device_seconds,
        makespan_seconds: makespan,
        max_high_water,
        total_kernel_execs,
        trace: traced.then(|| Trace::merge(rank_traces)),
        degraded_ranks,
        lost_ranks,
        redistributed_blocks: redistributed,
        rank_log,
        degraded,
        ghost_filled_faces,
        exchange_timeouts,
        exchange_wait_seconds,
        exchange_drops,
        garbled_faces,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    rank: usize,
    ranks: usize,
    global: &RectilinearMesh,
    nblocks: [usize; 3],
    blocks: &[SubGrid],
    rt: &RtWorkload,
    engine: &mut Engine,
    opts: &DistOptions,
    plan: Option<&FaultPlan>,
    fates: &[Option<RankFate>],
    senders: Vec<SyncSender<FaceMsg>>,
    receiver: Receiver<FaceMsg>,
    tracer: Option<&Tracer>,
) -> Result<RankOutput, ClusterError> {
    let global_dims = global.dims();
    let real = opts.mode == ExecMode::Real;
    let my_blocks: Vec<usize> = (rank..blocks.len()).step_by(ranks).collect();
    let _rank_span = span!(tracer, "rank", rank = rank, blocks = my_blocks.len());
    let exchange_err = |source| ClusterError::Exchange { rank, source };
    let mut out = RankOutput::default();

    // Phase 1: the halo exchange. Both modes walk the same sends and draw
    // the same fault rules in the same order; only a Real run samples its
    // owned cells and moves faces.
    let owned: Vec<[Vec<f32>; 3]> = if real {
        let _sample = span!(tracer, "rank.sample", blocks = my_blocks.len());
        let sample = |b: &SubGrid| rt.sample_velocity(&global.submesh(b.offset, b.dims));
        my_blocks
            .iter()
            .map(|&bi| <[Vec<f32>; 3]>::from(sample(&blocks[bi])))
            .collect()
    } else {
        Vec::new()
    };
    let mut halo_span = span!(tracer, "rank.halo");
    for (slot, &bi) in my_blocks.iter().enumerate() {
        let b = &blocks[bi];
        for (axis, high, to_block) in face_neighbours(b, nblocks) {
            // A face lost or garbled on its way is filled by its receiver,
            // if that receiver is alive to take it. A Model run counts
            // such a fill here, on the sender.
            let model_fill = !real && fates[to_block % ranks].is_none();
            for field in 0..3 {
                // Each transmit attempt draws `exchange_drop`; a dropped
                // face is retransmitted up to `EXCHANGE_RETRIES` times.
                let mut drops = 0;
                while plan.is_some_and(|p| p.check(FaultKind::ExchangeDrop).is_some()) {
                    drops += 1;
                    if drops > EXCHANGE_RETRIES {
                        break;
                    }
                }
                out.exchange_drops += u64::from(drops);
                if drops > EXCHANGE_RETRIES {
                    out.ghost_filled_faces += usize::from(model_fill);
                    continue;
                }
                let garble = plan.filter(|p| p.check(FaultKind::HaloGarble).is_some());
                let Some(owned) = owned.get(slot) else {
                    out.garbled_faces += u64::from(model_fill && garble.is_some());
                    out.ghost_filled_faces += usize::from(model_fill && garble.is_some());
                    continue;
                };
                // Our high face fills the neighbour's low ghost. The face
                // is sealed under its checksum *before* any injected
                // garble, so the sum describes the clean bits — exactly
                // what in-flight corruption looks like to the receiver.
                let data = extract_face(&owned[field], b.dims, axis, high);
                let mut msg = FaceMsg::seal(to_block, axis, high, field, data);
                if let Some(p) = garble {
                    let h = (msg.sum ^ p.seed()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let bit = h as usize % (msg.data.len() * 32);
                    let lane = &mut msg.data[bit / 32];
                    *lane = f32::from_bits(lane.to_bits() ^ (1 << (bit % 32)));
                }
                // Never blocks: the mailbox has room for every face its
                // rank is owed. Each rank owns its receiving end, so a send
                // fails only once the receiver has stopped receiving — it
                // died, or its deadline passed and it filled what it
                // missed — and then no rank is owed the face: drop it.
                let _ = senders[to_block % ranks].send(msg);
            }
        }
    }
    drop(senders);

    // The faces this rank is owed, as (slot, axis, low_side, field). A dead
    // or hung neighbour never sends its three; a Model run counts them.
    let mut missing: BTreeSet<FaceKey> = BTreeSet::new();
    for (slot, &bi) in my_blocks.iter().enumerate() {
        for (axis, high, nb) in face_neighbours(&blocks[bi], nblocks) {
            missing.extend((0..3).map(|f| (slot, axis, !high, f)));
            out.ghost_filled_faces += 3 * usize::from(!real && fates[nb % ranks].is_some());
        }
    }
    let mut ghosted = Vec::with_capacity(owned.len());
    for (velocity, &bi) in owned.iter().zip(&my_blocks) {
        let (_, gdims) = blocks[bi].ghosted(1, global_dims);
        let (istart, idims) = blocks[bi].interior_in_ghosted(1, global_dims);
        let mut arrays: [Vec<f32>; 3] = Default::default();
        for (array, owned) in arrays.iter_mut().zip(velocity) {
            *array = vec![0.0f32; gdims.iter().product()];
            insert_interior(array, gdims, istart, idims, owned).map_err(exchange_err)?;
        }
        ghosted.push(arrays);
    }
    // Write a face into the ghost layer its key names.
    let place =
        |ghosted: &mut [[Vec<f32>; 3]], (slot, axis, low_side, f): FaceKey, data: &[f32]| {
            let b = &blocks[my_blocks[slot]];
            let (_, gdims) = b.ghosted(1, global_dims);
            let (istart, idims) = b.interior_in_ghosted(1, global_dims);
            insert_face(
                &mut ghosted[slot][f],
                gdims,
                istart,
                idims,
                axis,
                low_side,
                data,
            )
            .map_err(exchange_err)
        };
    if real {
        // Receive until every owed face has been heard from, or until a
        // silent window longer than the exchange deadline, or a disconnect
        // with faces outstanding (a dead sender), ends the wait. A face
        // whose bits no longer match its sender-side checksum is dropped,
        // never stenciled over: it stays missing and is filled below.
        let (expected, mut heard) = (missing.len(), 0);
        let wait_start = Instant::now();
        while heard < expected {
            let msg = match receiver.recv_timeout(opts.exchange_deadline) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    out.exchange_timeouts += 1;
                    let deadline_ms = opts.exchange_deadline.as_millis() as u64;
                    let marker = span!(tracer, "exchange.timeout", received = heard);
                    drop(
                        marker
                            .meta("expected", expected)
                            .meta("deadline_ms", deadline_ms),
                    );
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            heard += 1;
            let slot = my_blocks
                .iter()
                .position(|&bi| bi == msg.to_block)
                .expect("message routed to owning rank");
            if !msg.verify() {
                out.garbled_faces += 1;
                drop(span!(
                    tracer,
                    "exchange.garbled",
                    axis = msg.axis,
                    field = msg.field
                ));
                continue;
            }
            let key = (slot, msg.axis, msg.low_side, msg.field);
            place(&mut ghosted, key, &msg.data)?;
            missing.remove(&key);
        }
        out.exchange_wait_seconds = wait_start.elapsed().as_secs_f64();
        // Analytic fill for the faces that never arrived or arrived
        // garbled. The sampled plane is bit-identical to the face an alive
        // neighbour would have extracted from its owned cells, so both
        // heal exactly.
        out.ghost_filled_faces = missing.len();
        if !missing.is_empty() {
            let _fill = span!(tracer, "exchange.fill", faces = missing.len());
            // One sampled plane covers the three field components of a
            // (slot, axis, side) face; BTreeSet order groups them.
            let (mut sampled, mut planes) = (None, Default::default());
            for &(slot, axis, low_side, f) in &missing {
                if sampled != Some((slot, axis, low_side)) {
                    let b = &blocks[my_blocks[slot]];
                    planes = analytic_face(global, rt, b, axis, low_side);
                    sampled = Some((slot, axis, low_side));
                }
                place(&mut ghosted, (slot, axis, low_side, f), &planes[f])?;
            }
        }
        halo_span = halo_span
            .meta("faces_received", expected - missing.len())
            .meta("faces_filled", missing.len());
    }
    drop(halo_span);

    // Phase 2: evaluate the expression per sub-grid on this rank's device.
    let mut ghosted = ghosted.into_iter();
    for &bi in &my_blocks {
        let fields = block_fields(global, rt, &blocks[bi], opts.mode, ghosted.next());
        out.derive(engine, opts, (bi, &blocks[bi]), global_dims, &fields)
            .map_err(|source| ClusterError::Engine { rank, source })?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(ranks: usize) -> Cluster {
        Cluster {
            nodes: ranks,
            devices_per_node: 1,
            profile: DeviceProfile::intel_x5660(),
        }
    }

    /// The headline validation: the distributed Q-criterion with ghost
    /// exchange is bit-identical to the single-grid computation.
    #[test]
    fn distributed_equals_single_grid_bitwise() {
        let global = RectilinearMesh::unit_cube([12, 10, 8]);
        let rt = RtWorkload::paper_default();
        for workload in [Workload::QCriterion, Workload::VorticityMagnitude] {
            // Single grid.
            let fs = FieldSet::for_rt_mesh(&global, &rt);
            let mut engine = Engine::new(DeviceProfile::intel_x5660());
            let single = engine
                .run(&Request::source(workload.source(), Strategy::Fusion), &fs)
                .unwrap()
                .0
                .remove(0);
            // Distributed over 3x2x2 blocks on 5 ranks.
            let result = run_distributed(
                &global,
                [3, 2, 2],
                &rt,
                &small_cluster(5),
                &DistOptions {
                    workload,
                    strategy: Strategy::Fusion,
                    mode: ExecMode::Real,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(!result.degraded, "clean run is not degraded");
            assert!(result.lost_ranks.is_empty());
            assert!(result.redistributed_blocks.is_empty());
            assert_eq!(result.ghost_filled_faces, 0);
            let dist = result.field.unwrap();
            assert_eq!(dist.len(), single.data.len());
            for (i, (d, s)) in dist.iter().zip(&single.data).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    s.to_bits(),
                    "{workload}: cell {i} differs: {d} vs {s}"
                );
            }
        }
    }

    /// One node driving three devices, the paper's §VI multi-device future
    /// work: one derive split as 11 z-layers, 4 + 4 + 3, over ghosted
    /// slabs. Bit-identical to one device, and each device holds less and
    /// finishes sooner.
    #[test]
    fn one_node_three_devices_split_a_derive_unevenly_and_exactly() {
        let global = RectilinearMesh::unit_cube([6, 5, 11]);
        let rt = RtWorkload::paper_default();
        let node = |devices_per_node| Cluster {
            nodes: 1,
            devices_per_node,
            profile: DeviceProfile::nvidia_m2050(),
        };
        let opts = DistOptions::default();
        let one = run_distributed(&global, [1, 1, 1], &rt, &node(1), &opts).unwrap();
        let three = run_distributed(&global, [1, 1, 3], &rt, &node(3), &opts).unwrap();
        assert_eq!((three.ranks, three.blocks), (3, 3));
        let bits = |r: &DistResult| -> Vec<u32> {
            r.field
                .as_ref()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&three), bits(&one));
        assert!(three.max_high_water < one.max_high_water);
        assert!(three.makespan_seconds < one.makespan_seconds);
    }

    #[test]
    fn distributed_works_with_all_strategies() {
        let global = RectilinearMesh::unit_cube([8, 8, 8]);
        let rt = RtWorkload::paper_default();
        let mut reference: Option<Vec<f32>> = None;
        for strategy in Strategy::ALL {
            let result = run_distributed(
                &global,
                [2, 2, 2],
                &rt,
                &small_cluster(3),
                &DistOptions {
                    workload: Workload::QCriterion,
                    strategy,
                    mode: ExecMode::Real,
                    ..Default::default()
                },
            )
            .unwrap();
            let field = result.field.unwrap();
            match &reference {
                None => reference = Some(field),
                Some(r) => {
                    for i in 0..r.len() {
                        assert!(
                            (r[i] - field[i]).abs() <= 1e-5 * r[i].abs().max(1.0),
                            "{strategy} differs at {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn more_ranks_than_blocks_is_fine() {
        let global = RectilinearMesh::unit_cube([6, 6, 6]);
        let rt = RtWorkload::paper_default();
        let result = run_distributed(
            &global,
            [2, 1, 1],
            &rt,
            &small_cluster(8),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Staged,
                mode: ExecMode::Real,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.blocks, 2);
        assert_eq!(result.ranks, 8);
        assert!(result.field.is_some());
        // Idle ranks contribute zero device time.
        assert_eq!(
            result
                .rank_device_seconds
                .iter()
                .filter(|&&s| s == 0.0)
                .count(),
            6
        );
        // The attempt log covers every rank, all completed.
        assert_eq!(result.rank_log.len(), 8);
        assert!(result
            .rank_log
            .iter()
            .all(|a| a.outcome == RankOutcome::Completed));
    }

    #[test]
    fn model_mode_paper_scale_runs_without_data() {
        // The paper's full configuration: 3072³ cells, 3072 sub-grids of
        // 192×192×256, 256 GPUs on 128 nodes, fusion, Q-criterion — modeled.
        let global = RectilinearMesh::unit_cube([3072, 3072, 3072]);
        let rt = RtWorkload::paper_default();
        let cluster = Cluster::edge_128x2();
        let result = run_distributed(
            &global,
            [16, 16, 12],
            &rt,
            &cluster,
            &DistOptions {
                workload: Workload::QCriterion,
                strategy: Strategy::Fusion,
                mode: ExecMode::Model,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.blocks, 3072);
        assert_eq!(result.ranks, 256);
        assert!(result.field.is_none());
        // Twelve sub-grids per GPU, one fused kernel each.
        assert_eq!(result.total_kernel_execs, 3072);
        assert!(result.makespan_seconds > 0.0);
        // Every device fits in the M2050's usable capacity with fusion.
        assert!(result.max_high_water <= 2_500_000_000);
    }

    /// A transient fault on every rank is retried on the requested level:
    /// no rank degrades and the output is bit-identical to the clean run.
    #[test]
    fn transient_faults_retry_without_degrading_any_rank() {
        let global = RectilinearMesh::unit_cube([8, 8, 6]);
        let rt = RtWorkload::paper_default();
        let clean = run_distributed(
            &global,
            [2, 2, 1],
            &rt,
            &small_cluster(3),
            &DistOptions {
                workload: Workload::QCriterion,
                strategy: Strategy::Fusion,
                mode: ExecMode::Real,
                ..Default::default()
            },
        )
        .unwrap();
        let faulty = run_distributed(
            &global,
            [2, 2, 1],
            &rt,
            &small_cluster(3),
            &DistOptions {
                workload: Workload::QCriterion,
                strategy: Strategy::Fusion,
                mode: ExecMode::Real,
                recovery: RecoveryPolicy::resilient(),
                fault_spec: Some("transfer@2".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(faulty.degraded_ranks.is_empty(), "retry is not degradation");
        // The per-rank attempt log carries the retries.
        assert!(faulty.rank_log.iter().any(|a| a.recovery.retries > 0));
        let (c, f) = (clean.field.unwrap(), faulty.field.unwrap());
        for i in 0..c.len() {
            assert_eq!(c[i].to_bits(), f[i].to_bits(), "cell {i} differs");
        }
        // The retried transfers cost modeled time: the faulty makespan can
        // only be at least the clean one.
        assert!(faulty.makespan_seconds >= clean.makespan_seconds);
    }

    /// Persistent allocation faults push every active rank down the
    /// fallback chain; the merged report names them and the assembled
    /// field stays bit-identical (fusion and its fallbacks that complete
    /// here share the same arithmetic order).
    #[test]
    fn persistent_faults_flag_degraded_ranks_and_stay_bit_exact() {
        let global = RectilinearMesh::unit_cube([8, 8, 6]);
        let rt = RtWorkload::paper_default();
        let clean = run_distributed(
            &global,
            [2, 2, 1],
            &rt,
            &small_cluster(3),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Fusion,
                mode: ExecMode::Real,
                ..Default::default()
            },
        )
        .unwrap();
        // Fail the first two allocations on each rank: the fusion attempt
        // and the staged fallback both die, streamed completes — and
        // streamed fusion is bit-identical to fused output.
        let faulty = run_distributed(
            &global,
            [2, 2, 1],
            &rt,
            &small_cluster(3),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Fusion,
                mode: ExecMode::Real,
                recovery: RecoveryPolicy::resilient(),
                fault_spec: Some("alloc@1x2".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            faulty.degraded_ranks,
            vec![0, 1, 2],
            "every rank with blocks hits the burst and falls back"
        );
        assert!(faulty.degraded, "strategy fallback is degradation");
        assert!(
            faulty.lost_ranks.is_empty(),
            "device faults do not lose ranks"
        );
        let (c, f) = (clean.field.unwrap(), faulty.field.unwrap());
        for i in 0..c.len() {
            assert_eq!(c[i].to_bits(), f[i].to_bits(), "cell {i} differs");
        }
    }

    /// With recovery disabled, an injected fault surfaces as a typed,
    /// rank-tagged error whose `source()` chain reaches the device layer.
    #[test]
    fn unrecovered_fault_is_rank_tagged_and_chained() {
        let global = RectilinearMesh::unit_cube([6, 6, 6]);
        let rt = RtWorkload::paper_default();
        let err = run_distributed(
            &global,
            [2, 1, 1],
            &rt,
            &small_cluster(2),
            &DistOptions {
                workload: Workload::QCriterion,
                strategy: Strategy::Fusion,
                mode: ExecMode::Real,
                fault_spec: Some("compile@1".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        let ClusterError::Engine { source, .. } = &err else {
            panic!("expected an engine error, got {err}");
        };
        assert!(matches!(
            source,
            EngineError::Ocl(dfg_ocl::OclError::CompileFailed { .. })
        ));
        // std::error chain: ClusterError -> EngineError -> OclError.
        let mid = std::error::Error::source(&err).expect("cluster error has a source");
        assert!(std::error::Error::source(mid).is_some());
    }

    #[test]
    fn bad_fault_spec_is_a_config_error() {
        let global = RectilinearMesh::unit_cube([4, 4, 4]);
        let err = run_distributed(
            &global,
            [1, 1, 1],
            &RtWorkload::paper_default(),
            &small_cluster(1),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Fusion,
                mode: ExecMode::Model,
                fault_spec: Some("warp@drive".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ClusterError::Config(_)), "got {err}");
    }

    #[test]
    fn all_ranks_dead_is_a_typed_error() {
        let global = RectilinearMesh::unit_cube([4, 4, 4]);
        let err = run_distributed(
            &global,
            [1, 1, 1],
            &RtWorkload::paper_default(),
            &small_cluster(1),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Fusion,
                mode: ExecMode::Model,
                fault_spec: Some("rank_die@0".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ClusterError::NoSurvivors { lost } if lost == &vec![0]),
            "got {err}"
        );
    }

    /// More blocks than cells on an axis (more devices than z-layers, on
    /// one node) is a typed error, not a panic in the partitioner.
    #[test]
    fn overdecomposed_mesh_is_a_config_error() {
        let global = RectilinearMesh::unit_cube([4, 4, 2]);
        let rt = RtWorkload::paper_default();
        for nblocks in [[1, 1, 3], [0, 1, 1]] {
            let err = run_distributed(
                &global,
                nblocks,
                &rt,
                &small_cluster(3),
                &DistOptions::default(),
            )
            .unwrap_err();
            assert!(matches!(err, ClusterError::Config(_)), "got {err}");
        }
    }

    #[test]
    fn zero_rank_cluster_is_rejected() {
        let global = RectilinearMesh::unit_cube([4, 4, 4]);
        let c = Cluster {
            nodes: 0,
            devices_per_node: 2,
            profile: DeviceProfile::intel_x5660(),
        };
        assert!(matches!(
            run_distributed(
                &global,
                [1, 1, 1],
                &RtWorkload::paper_default(),
                &c,
                &DistOptions {
                    workload: Workload::VelocityMagnitude,
                    strategy: Strategy::Fusion,
                    mode: ExecMode::Model,
                    ..Default::default()
                },
            ),
            Err(ClusterError::Config(_))
        ));
    }
}
