//! The distributed run driver: ranks, sub-grid assignment, halo exchange,
//! per-rank engines, rank-failure tolerance, and result assembly.
//!
//! # Rank-failure tolerance
//!
//! A distributed run embedded in a simulation must not die with one rank.
//! Three layers make `run_distributed` survive rank loss:
//!
//! * **Deadline-based halo exchange** — the blocking `recv()` of the
//!   original exchange is a `recv_timeout` driven by
//!   [`DistOptions::exchange_deadline`]. A mailbox that stays silent past
//!   the deadline (a hung neighbour) or disconnects with faces outstanding
//!   (a dead neighbour) stops blocking the rank: the missing ghost faces
//!   are re-sampled analytically from the global mesh. Because the RT
//!   workload is per-cell analytic in the global axis coordinates, the
//!   filled bytes are identical to what the lost neighbour would have sent.
//! * **A heartbeat coordinator** — rank threads report progress
//!   (per-block heartbeats), completion, engine failure, or death over a
//!   control channel. The coordinator joins panicking ranks through
//!   `catch_unwind`, writes off ranks fated to hang, and declares silent
//!   stragglers lost after a silence budget derived from the exchange
//!   deadline.
//! * **Block redistribution** — blocks owned by lost ranks are marked
//!   orphaned and re-executed on surviving ranks (round-robin over the
//!   sorted survivor list), with analytically sampled ghost data. The
//!   recovery pass is recorded in [`DistResult::redistributed_blocks`] and
//!   `recover.rank` trace spans.
//!
//! Exchange deadlines bound *wall-clock* channel waits; the modeled device
//! clocks never include them, so a degraded run's `rank_device_seconds`
//! and `makespan_seconds` are identical in [`ExecMode::Model`] and
//! [`ExecMode::Real`] — Model mode derives rank fates from the pure
//! [`FaultPlan::rank_fate`] query instead of observing timeouts.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

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
    /// analytically. Also bounds sends into a full (stalled) mailbox, and
    /// derives the coordinator's heartbeat silence budget. `None` restores
    /// the pre-resilience behavior of waiting forever, and is rejected when
    /// the fault spec injects rank-level faults (the run would deadlock).
    /// Deadlines never touch the modeled device clocks, so Model and Real
    /// runs of the same faults report identical virtual times.
    pub exchange_deadline: Option<Duration>,
    /// Extra transmit attempts per halo face whose send was lost to an
    /// injected `exchange_drop` fault (each attempt draws the fault plan
    /// again).
    pub exchange_retries: u32,
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
            exchange_deadline: Some(Duration::from_secs(10)),
            exchange_retries: 2,
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
    /// panic), caught and joined by the coordinator.
    Died(String),
    /// The rank went silent (an injected `rank_hang`, or a straggler that
    /// missed the heartbeat deadline) and was written off.
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
    /// Blocks the rank completed itself (from heartbeats for lost ranks).
    pub blocks_completed: usize,
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
    /// Ranks that died or went silent and were written off (sorted).
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
    /// Ghost faces that never arrived and were re-sampled analytically.
    pub ghost_filled_faces: usize,
    /// Halo waits (receive silences and full-mailbox sends) that expired
    /// against [`DistOptions::exchange_deadline`].
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

struct RankOutput {
    results: Vec<(usize, Vec<f32>)>,
    device_seconds: f64,
    high_water: u64,
    kernel_execs: usize,
    trace: Option<Trace>,
    degraded: bool,
    recovery: RecoveryReport,
    ghost_filled_faces: usize,
    exchange_timeouts: usize,
    exchange_wait_seconds: f64,
    exchange_drops: u64,
    garbled_faces: u64,
}

impl RankOutput {
    fn empty() -> RankOutput {
        RankOutput {
            results: Vec::new(),
            device_seconds: 0.0,
            high_water: 0,
            kernel_execs: 0,
            trace: None,
            degraded: false,
            recovery: RecoveryReport::default(),
            ghost_filled_faces: 0,
            exchange_timeouts: 0,
            exchange_wait_seconds: 0.0,
            exchange_drops: 0,
            garbled_faces: 0,
        }
    }
}

/// Messages rank threads send the coordinator. Completion heartbeats reset
/// the coordinator's silence timer so a busy rank is never mistaken for a
/// hung one.
enum CtrlMsg {
    Heartbeat {
        rank: usize,
        blocks_done: usize,
    },
    Done {
        rank: usize,
        output: Box<RankOutput>,
    },
    Failed {
        rank: usize,
        error: ClusterError,
    },
    Died {
        rank: usize,
        reason: String,
    },
}

/// What the coordinator observed, per rank.
struct Coordination {
    outputs: Vec<Option<RankOutput>>,
    outcomes: Vec<RankOutcome>,
    heartbeats: Vec<usize>,
    failures: Vec<(usize, ClusterError)>,
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

pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank thread panicked".to_string()
    }
}

/// Drain control messages until every rank is accounted for. Ranks fated
/// to hang are written off up front (they will never report — and this
/// keeps Model mode, which has no exchange to observe, on the same verdict
/// as Real). Silent stragglers are declared lost after a budget of twice
/// the exchange deadline plus scheduling slack — survivors may legitimately
/// sit out one full deadline waiting on a hung neighbour's faces.
fn coordinate(
    ctrl_rx: Receiver<CtrlMsg>,
    ranks: usize,
    fates: &[Option<RankFate>],
    deadline: Option<Duration>,
) -> Coordination {
    let mut pending: BTreeSet<usize> = (0..ranks).collect();
    let mut outputs: Vec<Option<RankOutput>> = (0..ranks).map(|_| None).collect();
    let mut outcomes = vec![RankOutcome::Completed; ranks];
    let mut heartbeats = vec![0usize; ranks];
    let mut failures: Vec<(usize, ClusterError)> = Vec::new();
    for rank in 0..ranks {
        if fates[rank] == Some(RankFate::Hang) {
            outcomes[rank] = RankOutcome::Lost("injected rank_hang".to_string());
            pending.remove(&rank);
        }
    }
    let silence = deadline.map(|d| d * 2 + Duration::from_millis(500));
    while !pending.is_empty() {
        let msg = match silence {
            Some(s) => ctrl_rx
                .recv_timeout(s)
                .map_err(|e| e == RecvTimeoutError::Timeout),
            None => ctrl_rx.recv().map_err(|_| false),
        };
        match msg {
            Ok(CtrlMsg::Heartbeat { rank, blocks_done }) => {
                heartbeats[rank] = heartbeats[rank].max(blocks_done);
            }
            Ok(CtrlMsg::Done { rank, output }) => {
                if pending.remove(&rank) {
                    outputs[rank] = Some(*output);
                }
            }
            Ok(CtrlMsg::Failed { rank, error }) => {
                pending.remove(&rank);
                failures.push((rank, error));
            }
            Ok(CtrlMsg::Died { rank, reason }) => {
                if pending.remove(&rank) {
                    outcomes[rank] = RankOutcome::Died(reason);
                }
            }
            Err(timed_out) => {
                let why = if timed_out {
                    "straggler: no heartbeat within the silence budget"
                } else {
                    "exited without reporting"
                };
                for rank in std::mem::take(&mut pending) {
                    outcomes[rank] = RankOutcome::Lost(why.to_string());
                }
            }
        }
    }
    failures.sort_by_key(|&(r, _)| r);
    Coordination {
        outputs,
        outcomes,
        heartbeats,
        failures,
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
    let blocks = partition_blocks(global_dims, nblocks);
    let nblocks_total = blocks.len();
    let real = opts.mode == ExecMode::Real;

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
        let has_rank_faults = plans.iter().flatten().any(|p| p.has_rank_faults());
        if has_rank_faults && opts.exchange_deadline.is_none() {
            return Err(ClusterError::Config(
                "rank-level faults (rank_die / rank_hang) require an exchange deadline; \
                 set DistOptions::exchange_deadline"
                    .into(),
            ));
        }
    } else {
        plans.resize_with(ranks, || None);
        fates.resize(ranks, None);
    }

    // One mailbox per rank, bounded at the faces the rank is owed: a
    // stalled (hung) receiver exerts backpressure instead of letting a
    // fault-looping sender grow its queue without limit. Sends into a full
    // mailbox time out against the exchange deadline.
    let (senders, receivers): (Vec<Sender<FaceMsg>>, Vec<Receiver<FaceMsg>>) = (0..ranks)
        .map(|r| {
            let owed: usize = (0..blocks.len())
                .filter(|bi| bi % ranks == r)
                .map(|bi| neighbor_count(&blocks[bi], nblocks) * 3)
                .sum();
            bounded(owed.max(1))
        })
        .unzip();
    let (ctrl_tx, ctrl_rx) = unbounded::<CtrlMsg>();
    let (park_tx, park_rx) = unbounded::<()>();

    let coord: Coordination = std::thread::scope(|scope| {
        for rank in 0..ranks {
            let senders = senders.clone();
            let receiver = receivers[rank].clone();
            let ctrl = ctrl_tx.clone();
            let park = park_rx.clone();
            let blocks = &blocks;
            let cluster_profile = cluster.profile.clone();
            let opts = opts.clone();
            let plan = plans[rank].clone();
            let fate = fates[rank];
            scope.spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_rank(
                        rank,
                        ranks,
                        global,
                        global_dims,
                        nblocks,
                        blocks,
                        rt,
                        cluster_profile,
                        &opts,
                        plan,
                        fate,
                        senders,
                        receiver,
                        &ctrl,
                        park,
                        traced,
                    )
                }));
                // The coordinator may have written this rank off already; a
                // failed send just means nobody is listening any more.
                let _ = match outcome {
                    Ok(Ok(output)) => ctrl.send(CtrlMsg::Done {
                        rank,
                        output: Box::new(output),
                    }),
                    Ok(Err(error)) => ctrl.send(CtrlMsg::Failed { rank, error }),
                    Err(payload) => ctrl.send(CtrlMsg::Died {
                        rank,
                        reason: panic_reason(payload.as_ref()),
                    }),
                };
            });
        }
        // Drop the coordinator's halo handles so receivers observe
        // disconnection (a dead rank) once every live sender is done.
        drop(senders);
        drop(ctrl_tx);
        let coord = coordinate(ctrl_rx, ranks, &fates, opts.exchange_deadline);
        // Release parked (hung) ranks so the scope can join them.
        drop(park_tx);
        coord
    });

    // Engine failures keep the pre-resilience contract: the run errors,
    // rank-tagged and source-chained. Lowest rank wins for determinism.
    if let Some((_, error)) = coord.failures.into_iter().next() {
        return Err(error);
    }

    let lost_ranks: Vec<usize> = (0..ranks)
        .filter(|&r| coord.outcomes[r] != RankOutcome::Completed)
        .collect();
    let survivors: Vec<usize> = (0..ranks).filter(|&r| coord.outputs[r].is_some()).collect();
    let orphans: Vec<usize> = (0..nblocks_total)
        .filter(|bi| coord.outcomes[bi % ranks] != RankOutcome::Completed)
        .collect();
    if !orphans.is_empty() && survivors.is_empty() {
        return Err(ClusterError::NoSurvivors { lost: lost_ranks });
    }

    // Fold the survivors' outputs into the global result.
    let mut rank_device_seconds = vec![0.0f64; ranks];
    let mut rank_recovery: Vec<RecoveryReport> = vec![RecoveryReport::default(); ranks];
    let mut max_high_water = 0u64;
    let mut total_kernel_execs = 0usize;
    let mut field = real.then(|| vec![0.0f32; global.ncells()]);
    let mut rank_traces = Vec::new();
    let mut degraded_ranks = Vec::new();
    let mut ghost_filled_faces = 0usize;
    let mut exchange_timeouts = 0usize;
    let mut exchange_wait_seconds = 0.0f64;
    let mut exchange_drops = 0u64;
    let mut garbled_faces = 0u64;
    let mut outputs = coord.outputs;
    for rank in 0..ranks {
        let Some(out) = outputs[rank].take() else {
            continue;
        };
        rank_device_seconds[rank] = out.device_seconds;
        max_high_water = max_high_water.max(out.high_water);
        total_kernel_execs += out.kernel_execs;
        if out.degraded {
            degraded_ranks.push(rank);
        }
        ghost_filled_faces += out.ghost_filled_faces;
        exchange_timeouts += out.exchange_timeouts;
        exchange_wait_seconds += out.exchange_wait_seconds;
        exchange_drops += out.exchange_drops;
        garbled_faces += out.garbled_faces;
        rank_recovery[rank] = out.recovery;
        if let Some(trace) = out.trace {
            rank_traces.push((rank as u64, trace));
        }
        if let Some(f) = field.as_mut() {
            for (block_idx, interior) in &out.results {
                let b = &blocks[*block_idx];
                decomp::insert_block(f, global_dims, b.offset, b.dims, interior);
            }
        }
    }

    // Redistribute orphaned blocks round-robin over the sorted survivors.
    // Ghost data comes from the analytic sampler (bit-identical to the
    // faces the dead rank would have exchanged), so adopted blocks are
    // exact. The adopter's modeled clock absorbs the extra work in both
    // modes identically.
    let coord_tracer = traced.then(Tracer::new);
    let mut redistributed: Vec<(usize, usize)> = Vec::new();
    let mut adopted_counts = vec![0usize; ranks];
    if !orphans.is_empty() {
        let mut per_adopter: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &bi) in orphans.iter().enumerate() {
            let adopter = survivors[i % survivors.len()];
            per_adopter.entry(adopter).or_default().push(bi);
            redistributed.push((bi, adopter));
        }
        redistributed.sort_unstable();
        for (&adopter, bis) in &per_adopter {
            let rspan = span!(
                coord_tracer,
                "recover.rank",
                adopter = adopter,
                blocks = bis.len(),
            );
            let mut engine = Engine::with_options(
                cluster.profile.clone(),
                EngineOptions {
                    mode: opts.mode,
                    recovery: opts.recovery,
                    verify: opts.verify,
                    ..Default::default()
                },
            );
            if let Some(plan) = &plans[adopter] {
                engine.set_fault_plan(plan.clone());
            }
            if let Some(t) = &coord_tracer {
                engine.set_tracer(t.clone());
            }
            let adopter_err = |source: EngineError| ClusterError::Engine {
                rank: adopter,
                source,
            };
            for &bi in bis {
                let b = &blocks[bi];
                let (goff, gdims) = b.ghosted(1, global_dims);
                let report = if real {
                    let gmesh = global.submesh(goff, gdims);
                    let (u, v, w) = rt.sample_velocity(&gmesh);
                    let (x, y, z) = gmesh.coord_arrays();
                    let mut fs = FieldSet::new(gmesh.ncells());
                    fs.insert_scalar("u", u).expect("sized");
                    fs.insert_scalar("v", v).expect("sized");
                    fs.insert_scalar("w", w).expect("sized");
                    fs.insert_scalar("x", x).expect("sized");
                    fs.insert_scalar("y", y).expect("sized");
                    fs.insert_scalar("z", z).expect("sized");
                    fs.insert_small("dims", gmesh.dims_buffer());
                    let (out, report) = engine
                        .run(&Request::source(opts.workload.source(), opts.strategy), &fs)
                        .map_err(adopter_err)?;
                    let out = out.first().expect("real mode yields data");
                    let (istart, idims) = b.interior_in_ghosted(1, global_dims);
                    if let Some(f) = field.as_mut() {
                        let interior = extract_interior(&out.data, gdims, istart, idims, 1);
                        decomp::insert_block(f, global_dims, b.offset, b.dims, &interior);
                    }
                    report
                } else {
                    let fs = FieldSet::virtual_rt(gdims);
                    engine
                        .run(&Request::source(opts.workload.source(), opts.strategy), &fs)
                        .map_err(adopter_err)?
                        .1
                };
                rank_device_seconds[adopter] += report.device_seconds();
                max_high_water = max_high_water.max(report.high_water_bytes());
                total_kernel_execs += report.profile.count(dfg_ocl::EventKind::KernelExec);
                if let Some(r) = &report.recovery {
                    rank_recovery[adopter].absorb(r);
                    if r.degraded {
                        degraded_ranks.push(adopter);
                    }
                }
            }
            adopted_counts[adopter] = bis.len();
            drop(rspan);
        }
    }
    degraded_ranks.sort_unstable();
    degraded_ranks.dedup();

    let rank_log: Vec<RankAttempt> = (0..ranks)
        .map(|rank| {
            let blocks_assigned = (0..nblocks_total).filter(|bi| bi % ranks == rank).count();
            let blocks_completed = if coord.outcomes[rank] == RankOutcome::Completed {
                blocks_assigned
            } else {
                coord.heartbeats[rank]
            };
            RankAttempt {
                rank,
                outcome: coord.outcomes[rank].clone(),
                blocks_assigned,
                blocks_completed,
                adopted_blocks: adopted_counts[rank],
                recovery: std::mem::take(&mut rank_recovery[rank]),
            }
        })
        .collect();

    if traced {
        if let Some(t) = &coord_tracer {
            rank_traces.push((ranks as u64, t.snapshot()));
        }
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
    global_dims: [usize; 3],
    nblocks: [usize; 3],
    blocks: &[SubGrid],
    rt: &RtWorkload,
    profile: DeviceProfile,
    opts: &DistOptions,
    plan: Option<FaultPlan>,
    fate: Option<RankFate>,
    senders: Vec<Sender<FaceMsg>>,
    receiver: Receiver<FaceMsg>,
    ctrl: &Sender<CtrlMsg>,
    park: Receiver<()>,
    traced: bool,
) -> Result<RankOutput, ClusterError> {
    // Injected rank fates fire before any work, in both modes. A dying
    // rank panics — the spawn site's catch_unwind turns that into a Died
    // report, exactly like a genuine bug would surface. A hung rank parks
    // while *holding its halo senders*, so neighbours experience real
    // silence until the coordinator tears the run down.
    match fate {
        Some(RankFate::Die) => {
            silence_injected_death_reports();
            std::panic::panic_any(format!("injected rank_die on rank {rank}"))
        }
        Some(RankFate::Hang) => {
            // Only the coordinator dropping the park sender releases us.
            let _ = park.recv();
            return Ok(RankOutput::empty());
        }
        None => {}
    }
    let real = opts.mode == ExecMode::Real;
    let my_blocks: Vec<usize> = (0..blocks.len()).filter(|i| i % ranks == rank).collect();
    let mut engine = Engine::with_options(
        profile,
        EngineOptions {
            mode: opts.mode,
            recovery: opts.recovery,
            verify: opts.verify,
            ..Default::default()
        },
    );
    if let Some(plan) = &plan {
        engine.set_fault_plan(plan.clone());
    }
    let tracer = traced.then(Tracer::new);
    if let Some(t) = &tracer {
        engine.set_tracer(t.clone());
    }
    let _rank_span = span!(tracer, "rank", rank = rank, blocks = my_blocks.len());
    let err_here = |source: EngineError| ClusterError::Engine { rank, source };
    let mut exchange_timeouts = 0usize;
    let mut exchange_wait_seconds = 0.0f64;
    let mut exchange_drops = 0u64;
    let mut ghost_filled_faces = 0usize;
    let mut garbled_faces = 0u64;

    /// Per-block ghosted state: extent arithmetic plus the three ghosted
    /// velocity component arrays.
    struct GhostedBlock {
        gdims: [usize; 3],
        istart: [usize; 3],
        idims: [usize; 3],
        arrays: [Vec<f32>; 3],
    }

    // Phase 1 (real mode): sample owned cells, send halo faces, prepare
    // ghosted field arrays, receive (or analytically fill) ghost faces.
    let mut ghosted: Vec<GhostedBlock> = Vec::new();
    if real {
        let mut owned_fields: Vec<[Vec<f32>; 3]> = Vec::new();
        {
            let _sample = span!(tracer, "rank.sample", blocks = my_blocks.len());
            for &bi in &my_blocks {
                let b = &blocks[bi];
                let mesh = global.submesh(b.offset, b.dims);
                let (u, v, w) = rt.sample_velocity(&mesh);
                owned_fields.push([u, v, w]);
            }
        }
        let _ = ctrl.send(CtrlMsg::Heartbeat {
            rank,
            blocks_done: 0,
        });
        let halo_span = span!(tracer, "rank.halo");
        // Send faces to face-adjacent neighbours. Each transmit attempt
        // draws the fault plan's `exchange_drop` rules; a dropped face is
        // retransmitted up to `exchange_retries` times before it is left
        // for the receiver's analytic fill.
        for (slot, &bi) in my_blocks.iter().enumerate() {
            let b = &blocks[bi];
            for axis in 0..3 {
                for (high, exists) in [
                    (false, b.block[axis] > 0),
                    (true, b.block[axis] + 1 < nblocks[axis]),
                ] {
                    if !exists {
                        continue;
                    }
                    let mut nb = b.block;
                    nb[axis] = if high { nb[axis] + 1 } else { nb[axis] - 1 };
                    let to_block = block_index(nb, nblocks);
                    for (field, owned) in owned_fields[slot].iter().enumerate() {
                        let mut lost_to_drops = false;
                        if let Some(p) = &plan {
                            let mut attempt = 0u32;
                            while p.check(FaultKind::ExchangeDrop).is_some() {
                                exchange_drops += 1;
                                if attempt >= opts.exchange_retries {
                                    lost_to_drops = true;
                                    break;
                                }
                                attempt += 1;
                            }
                        }
                        if lost_to_drops {
                            continue;
                        }
                        let data = extract_face(owned, b.dims, axis, high);
                        // Our high face fills the neighbour's low ghost.
                        // The face is sealed under its checksum *before*
                        // any injected garble, so the sum describes the
                        // clean bits — exactly what in-flight corruption
                        // looks like to the receiver.
                        let mut msg = FaceMsg::seal(to_block, axis, high, field, data);
                        if let Some(p) = &plan {
                            if p.check(FaultKind::HaloGarble).is_some() && !msg.data.is_empty() {
                                let h = (msg.sum ^ p.seed()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                                let bit = h as usize % (msg.data.len() * 32);
                                let lane = &mut msg.data[bit / 32];
                                *lane = f32::from_bits(lane.to_bits() ^ (1 << (bit % 32)));
                            }
                        }
                        let target = &senders[to_block % ranks];
                        // A full mailbox means a stalled receiver; give it
                        // one deadline of backpressure, then count the face
                        // as undeliverable (the receiver will fill it).
                        let delivered = match opts.exchange_deadline {
                            Some(d) => target.send_timeout(msg, d).is_ok(),
                            None => target.send(msg).is_ok(),
                        };
                        if !delivered {
                            exchange_timeouts += 1;
                        }
                    }
                }
            }
        }
        drop(senders);
        // Lay out ghosted arrays with interiors filled.
        for (slot, &bi) in my_blocks.iter().enumerate() {
            let b = &blocks[bi];
            let (_, gdims) = b.ghosted(1, global_dims);
            let (istart, idims) = b.interior_in_ghosted(1, global_dims);
            let gn = gdims[0] * gdims[1] * gdims[2];
            let mut arrays = [vec![0.0f32; gn], vec![0.0f32; gn], vec![0.0f32; gn]];
            for (f, arr) in arrays.iter_mut().enumerate() {
                insert_interior(arr, gdims, istart, idims, &owned_fields[slot][f])
                    .map_err(|source| ClusterError::Exchange { rank, source })?;
            }
            ghosted.push(GhostedBlock {
                gdims,
                istart,
                idims,
                arrays,
            });
        }
        // Receive the faces this rank is owed: (slot, axis, low_side,
        // field). A silent window longer than the exchange deadline, or a
        // disconnect with faces outstanding (a dead sender), ends the wait;
        // whatever is missing is re-sampled analytically below.
        let mut pending: BTreeSet<(usize, usize, bool, usize)> = BTreeSet::new();
        // Faces that arrived but failed their checksum: healed by the same
        // analytic fill as lost faces, counted separately.
        let mut garbled: BTreeSet<(usize, usize, bool, usize)> = BTreeSet::new();
        for (slot, &bi) in my_blocks.iter().enumerate() {
            let b = &blocks[bi];
            for (axis, &nb_axis) in nblocks.iter().enumerate() {
                for (low_side, exists) in [
                    (true, b.block[axis] > 0),
                    (false, b.block[axis] + 1 < nb_axis),
                ] {
                    if !exists {
                        continue;
                    }
                    for f in 0..3 {
                        pending.insert((slot, axis, low_side, f));
                    }
                }
            }
        }
        let expected = pending.len();
        let wait_start = Instant::now();
        while !pending.is_empty() {
            let msg = match opts.exchange_deadline {
                Some(d) => match receiver.recv_timeout(d) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => {
                        exchange_timeouts += 1;
                        drop(
                            span!(
                                tracer,
                                "exchange.timeout",
                                received = expected - pending.len(),
                                expected = expected,
                            )
                            .meta("deadline_ms", d.as_millis() as u64),
                        );
                        break;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match receiver.recv() {
                    Ok(m) => m,
                    Err(_) => break,
                },
            };
            let slot = my_blocks
                .iter()
                .position(|&bi| bi == msg.to_block)
                .expect("message routed to owning rank");
            // A face whose bits no longer match its sender-side checksum
            // is dropped, never stenciled over: the slot moves straight to
            // the analytic fill below, which re-samples the identical
            // plane the sender extracted from.
            if !msg.verify() {
                garbled_faces += 1;
                pending.remove(&(slot, msg.axis, msg.low_side, msg.field));
                garbled.insert((slot, msg.axis, msg.low_side, msg.field));
                drop(span!(
                    tracer,
                    "exchange.garbled",
                    axis = msg.axis,
                    field = msg.field,
                ));
                continue;
            }
            let gb = &mut ghosted[slot];
            insert_face(
                &mut gb.arrays[msg.field],
                gb.gdims,
                gb.istart,
                gb.idims,
                msg.axis,
                msg.low_side,
                &msg.data,
            )
            .map_err(|source| ClusterError::Exchange { rank, source })?;
            pending.remove(&(slot, msg.axis, msg.low_side, msg.field));
        }
        exchange_wait_seconds = wait_start.elapsed().as_secs_f64();
        // Analytic fill for faces the lost senders never delivered — and
        // for received faces that failed their checksum. The sampled plane
        // is bit-identical to the face an alive neighbour would have
        // extracted from its owned cells, so both heal exactly.
        pending.extend(garbled.iter().copied());
        ghost_filled_faces = pending.len();
        if ghost_filled_faces > 0 {
            let _fill = span!(tracer, "exchange.fill", faces = ghost_filled_faces);
            // One sampled plane covers the three field components of a
            // (slot, axis, side) face; BTreeSet order groups them.
            type FaceKey = (usize, usize, bool);
            let mut cached: Option<(FaceKey, [Vec<f32>; 3])> = None;
            for &(slot, axis, low_side, f) in &pending {
                let key = (slot, axis, low_side);
                if cached.as_ref().map(|(k, _)| *k != key).unwrap_or(true) {
                    let b = &blocks[my_blocks[slot]];
                    cached = Some((key, analytic_face(global, rt, b, axis, low_side)));
                }
                let faces = &cached.as_ref().expect("just cached").1;
                let gb = &mut ghosted[slot];
                insert_face(
                    &mut gb.arrays[f],
                    gb.gdims,
                    gb.istart,
                    gb.idims,
                    axis,
                    low_side,
                    &faces[f],
                )
                .map_err(|source| ClusterError::Exchange { rank, source })?;
            }
        }
        drop(
            halo_span
                .meta("faces_received", expected - ghost_filled_faces)
                .meta("faces_filled", ghost_filled_faces),
        );
        let _ = ctrl.send(CtrlMsg::Heartbeat {
            rank,
            blocks_done: 0,
        });
    } else {
        drop(senders);
    }

    // Phase 2: evaluate the expression per sub-grid on this rank's device.
    let mut results = Vec::new();
    let mut device_seconds = 0.0f64;
    let mut high_water = 0u64;
    let mut kernel_execs = 0usize;
    let mut degraded = false;
    let mut recovery = RecoveryReport::default();
    for (slot, &bi) in my_blocks.iter().enumerate() {
        let b = &blocks[bi];
        let (goff, gdims) = b.ghosted(1, global_dims);
        let report = if real {
            let gb = &ghosted[slot];
            let (istart, idims, arrays) = (&gb.istart, &gb.idims, &gb.arrays);
            let gmesh = global.submesh(goff, gdims);
            let (x, y, z) = gmesh.coord_arrays();
            let mut fs = FieldSet::new(gmesh.ncells());
            fs.insert_scalar("u", arrays[0].clone()).expect("sized");
            fs.insert_scalar("v", arrays[1].clone()).expect("sized");
            fs.insert_scalar("w", arrays[2].clone()).expect("sized");
            fs.insert_scalar("x", x).expect("sized");
            fs.insert_scalar("y", y).expect("sized");
            fs.insert_scalar("z", z).expect("sized");
            fs.insert_small("dims", gmesh.dims_buffer());
            let (out, report) = engine
                .run(&Request::source(opts.workload.source(), opts.strategy), &fs)
                .map_err(err_here)?;
            let out = out.first().expect("real mode yields data");
            results.push((bi, extract_interior(&out.data, gdims, *istart, *idims, 1)));
            report
        } else {
            let fs = FieldSet::virtual_rt(gdims);
            engine
                .run(&Request::source(opts.workload.source(), opts.strategy), &fs)
                .map_err(err_here)?
                .1
        };
        device_seconds += report.device_seconds();
        high_water = high_water.max(report.high_water_bytes());
        kernel_execs += report.profile.count(dfg_ocl::EventKind::KernelExec);
        degraded |= report.recovery.as_ref().is_some_and(|r| r.degraded);
        if let Some(r) = &report.recovery {
            recovery.absorb(r);
        }
        let _ = ctrl.send(CtrlMsg::Heartbeat {
            rank,
            blocks_done: slot + 1,
        });
    }
    drop(_rank_span);
    Ok(RankOutput {
        results,
        device_seconds,
        high_water,
        kernel_execs,
        trace: tracer.as_ref().map(Tracer::snapshot),
        degraded,
        recovery,
        ghost_filled_faces,
        exchange_timeouts,
        exchange_wait_seconds,
        exchange_drops,
        garbled_faces,
    })
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
    fn rank_faults_without_a_deadline_are_rejected() {
        let global = RectilinearMesh::unit_cube([4, 4, 4]);
        let err = run_distributed(
            &global,
            [1, 1, 1],
            &RtWorkload::paper_default(),
            &small_cluster(2),
            &DistOptions {
                workload: Workload::VelocityMagnitude,
                strategy: Strategy::Fusion,
                mode: ExecMode::Model,
                fault_spec: Some("rank_hang@1".into()),
                exchange_deadline: None,
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
