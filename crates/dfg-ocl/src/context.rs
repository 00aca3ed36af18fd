//! The device context: buffer allocator plus profiling command queue.

use crate::error::{OclError, TransferDir};
use crate::event::{Event, EventKind, ProfileReport};
use crate::fault::{FaultKind, FaultPlan};
use crate::host::{interleave, HostEnd, SharedArray, UploadSource};
use crate::integrity::{
    checksum_f32s, IntegrityKind, IntegrityStats, VerifyPolicy, BUFFER_SUM_SEED,
};
use crate::profile::DeviceProfile;
use crate::ExecMode;
use dfg_trace::Tracer;
use std::ops::Range;
use std::sync::Arc;

/// Handle to a device global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

impl BufferId {
    /// The handle's raw slot index, as reported by
    /// [`OclError::IntegrityViolation`]'s `buffer` field — lets owners of
    /// cross-buffer state (e.g. a session's resident table) find which of
    /// their buffers a violation names.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to an in-order command queue on a [`Context`].
///
/// Queue 0 is the default queue every un-suffixed operation targets;
/// [`Context::acquire_queues`] hands out auxiliary queues for overlapped
/// execution. Operations on *different* auxiliary queues may overlap on the
/// virtual clock; operations on the *same* queue are strictly ordered, and
/// an operation on the default queue is a barrier for all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(usize);

impl QueueId {
    /// The default in-order queue: its operations start at the global
    /// frontier and bring every queue up to their completion.
    pub const DEFAULT: QueueId = QueueId(0);

    /// The queue's index, as it appears in [`Event::queue`](crate::Event).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Completion event of one queued operation, usable as a cross-queue
/// dependency: a later operation passing this token in its `deps` cannot
/// start (on the virtual clock) before this one's end time.
///
/// This is the simulated analogue of a `cl_event` / CUDA event: all timing
/// is resolved serially on the host at enqueue time, so waiting costs
/// nothing and determinism is independent of host thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventToken {
    t_start: f64,
    t_end: f64,
}

impl EventToken {
    /// Virtual-clock start of the operation, seconds.
    pub fn virt_start(self) -> f64 {
        self.t_start
    }

    /// Virtual-clock completion of the operation, seconds.
    pub fn virt_end(self) -> f64 {
        self.t_end
    }
}

/// Snapshot of a context's live buffers, taken by [`Context::alloc_mark`]
/// before an execution attempt and restored by [`Context::rollback`] if the
/// attempt fails — the leak-free-recovery contract.
#[derive(Debug, Clone)]
pub struct AllocMark {
    /// Which slot indices were live when the mark was taken.
    live: Vec<bool>,
    /// `in_use_bytes` at the mark: the baseline rollback restores.
    in_use: u64,
}

impl AllocMark {
    /// Bytes that were in use when the mark was taken.
    pub fn in_use_bytes(&self) -> u64 {
        self.in_use
    }

    /// Whether `id` was a live buffer when the mark was taken. After a
    /// [`Context::rollback`] this is exactly the set of buffers that
    /// survived, so owners of cross-attempt state (e.g. a session's
    /// resident-field table) can prune entries whose buffers were created —
    /// and therefore rolled back — by the failed attempt.
    pub fn contains(&self, id: BufferId) -> bool {
        self.live.get(id.0).copied().unwrap_or(false)
    }
}

/// Cost estimate a kernel reports for one launch over `n` elements; feeds
/// the virtual-clock roofline model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Bytes read from device global memory.
    pub bytes_read: u64,
    /// Bytes written to device global memory.
    pub bytes_written: u64,
    /// Floating-point operations performed.
    pub flops: u64,
}

/// Arguments passed to a kernel's real execution.
pub struct KernelArgs<'a> {
    /// Input buffers, in the kernel's declared order; an input the launch
    /// computes in place over is an empty view (see [`KernelArgs::operand`]).
    pub inputs: &'a [&'a [f32]],
    /// The output buffer. Its contents on entry are unspecified, unless an
    /// input is computed in place over it.
    pub output: &'a mut [f32],
    /// Number of mesh elements in this launch (one work-item per element).
    pub n: usize,
}

impl<'a> KernelArgs<'a> {
    /// Input `i`'s lanes, or `None` when input `i` *is* the output: the
    /// launch took that operand's storage (only ever for a kernel whose
    /// [`DeviceKernel::in_place`] is true), so its lanes are `output`'s on
    /// entry and lane `t` may be read only before lane `t` is written.
    pub fn operand(&self, i: usize) -> Option<&'a [f32]> {
        let view = self.inputs[i];
        (!view.is_empty()).then_some(view)
    }
}

/// A compiled device kernel: the analogue of a `cl_kernel`.
///
/// Implementations live in `dfg-kernels`; they execute for real (in
/// parallel, via rayon) when the context is in [`ExecMode::Real`].
///
/// `Sync` lets a kernel body share `&self` with the host pool's workers;
/// kernels are immutable descriptions, so this is free in practice.
pub trait DeviceKernel: Sync {
    /// Kernel name for profiling events.
    fn name(&self) -> String;
    /// Cost model for a launch over `n` elements.
    fn cost(&self, n: usize) -> KernelCost;
    /// Execute the kernel body.
    fn run(&self, args: KernelArgs<'_>);
    /// Whether output lane `t` reads no input lane but `t`, so
    /// [`Context::launch_then_release`] may give the kernel an input's
    /// storage as its output; such a kernel must read [`KernelArgs::operand`].
    fn in_place(&self) -> bool {
        false
    }
    /// The lanes of input 0 that a launch over `n` elements copies to its
    /// whole output, when that is all the kernel does: the launch may then
    /// make the output a [`Placement::View`] of them instead of running.
    fn view(&self, _n: usize) -> Option<Range<usize>> {
        None
    }
    /// The first output lane a launch over `n` elements leaves unwritten,
    /// when it writes only a prefix: the launch makes the rest read as
    /// zeros, which fresh storage already does, so only recycled storage
    /// pays a pass for it.
    fn unwritten_from(&self, _n: usize) -> Option<usize> {
        None
    }
}

/// Where a launch put its output. Only storage differs: what the model
/// counts — bytes, events, the clock — is the same for all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Storage of the output's own: pooled, or fresh.
    Own,
    /// The storage of a dying operand ([`DeviceKernel::in_place`]).
    InPlace,
    /// The lanes of its operand it copies, shared ([`DeviceKernel::view`]).
    View,
}

/// Guard lanes placed behind a slot's payload. The guards carry a sentinel
/// bit pattern; a write past the payload breaks the sentinel and is
/// reported as an [`IntegrityKind::Guard`] violation when the slot is next
/// verified or handed back out of the pool. Safe code cannot write ahead of
/// lane 0 of a slice, so the payload comes first: lane 0 of the storage is
/// payload lane 0, and the storage is handed to the host by truncating the
/// guards. Guard lanes are a property of the *backing storage* only —
/// `Slot::bytes` (and therefore every byte counter, the high-water mark, and
/// the pool accounting) covers the payload alone, so the paper's memory
/// numbers are unchanged.
const GUARD_LANES: usize = 8;

/// Sentinel bit pattern filling the guard lanes.
const GUARD_WORD: u32 = 0xF0E1_D2C3;

/// Poison bit pattern written over a released slot's payload when
/// `DFG_POOL_POISON=1` — any code path relying on recycled-slot contents
/// reads a loud, recognizable garbage value instead of stale data.
const POISON_WORD: u32 = 0xDEAD_BEEF;

/// What backs a materialized slot.
enum Storage {
    /// Private storage: the `lanes`-lane payload, then `GUARD_LANES`
    /// sentinel lanes.
    Owned(Vec<f32>),
    /// The host's own array, adopted by a whole-buffer upload of a
    /// [`SharedArray`]. The payload is the array; there are no guard lanes
    /// and no mutable view — [`Slot::payload_mut`] replaces this with an
    /// `Owned` copy before anything writes.
    Shared(SharedArray),
    /// Lanes `at..at + lanes` of guarded storage that other slots may view
    /// too: a [`Placement::View`] output and the operand it views. A write
    /// goes through [`Slot::owned_mut`], which copies the lanes first; only a
    /// launch writes a view where it lies, and only into the last handle to
    /// the storage ([`Context::private`]).
    View(Arc<Vec<f32>>, usize),
}

struct Slot {
    /// Backing storage; `None` in model mode — and, in real mode, until the
    /// first write or launch materializes it (the zero-fill is deferred so a
    /// create-then-write sequence touches the memory exactly once).
    data: Option<Storage>,
    /// Real mode: whether the buffer holds defined contents (a host write or
    /// a kernel launch). Unwritten buffers read as zeros; in particular,
    /// recycled pool storage must never leak a previous buffer's values.
    written: bool,
    /// Content checksum of the payload's bit patterns, learned at the last
    /// host write (and, under [`VerifyPolicy::Full`], at every kernel
    /// write); `None` when verification is off or contents are undefined.
    sum: Option<u64>,
    /// Total f32 lanes (elements × width) of the payload.
    lanes: usize,
    bytes: u64,
}

impl Slot {
    /// Fresh guarded storage: a zeroed payload followed by sentinel lanes.
    fn alloc_storage(lanes: usize) -> Vec<f32> {
        let mut buf = vec![0.0f32; lanes + GUARD_LANES];
        buf[lanes..].fill(f32::from_bits(GUARD_WORD));
        buf
    }

    /// The payload view of materialized storage.
    fn payload(&self) -> Option<&[f32]> {
        self.data.as_ref().map(|d| match d {
            Storage::Owned(d) => &d[..self.lanes],
            Storage::Shared(array) => &array[..],
            Storage::View(block, at) => &block[*at..at + self.lanes],
        })
    }

    /// The slot's private storage, guard lanes included. An adopted array
    /// or a view is first replaced by a private copy of it, so no write made
    /// through a slot can reach host memory or another slot.
    fn owned_mut(&mut self) -> Option<&mut Vec<f32>> {
        if let Some(Storage::Shared(_) | Storage::View(..)) = &self.data {
            let mut private = Slot::alloc_storage(self.lanes);
            private[..self.lanes].copy_from_slice(self.payload().expect("materialized"));
            self.data = Some(Storage::Owned(private));
        }
        match &mut self.data {
            Some(Storage::Owned(d)) => Some(d),
            _ => None,
        }
    }

    /// Mutable payload view of materialized storage (private storage: see
    /// [`Slot::owned_mut`]).
    fn payload_mut(&mut self) -> Option<&mut [f32]> {
        let lanes = self.lanes;
        self.owned_mut().map(|d| &mut d[..lanes])
    }

    /// Defined contents, or `None` for a slot that reads as zeros (never
    /// written; recycled pool storage must not leak its previous owner).
    fn contents(&self) -> Option<&[f32]> {
        self.payload().filter(|_| self.written)
    }

    /// A copy of the contents as `planes` planes in the host's layout (see
    /// [`interleave`]); zeros for a slot without defined contents.
    fn copy_out(&self, planes: usize) -> Vec<f32> {
        match self.contents() {
            Some(payload) => interleave(payload, planes),
            None => vec![0.0; self.lanes],
        }
    }

    /// Give a slot without defined contents some: lanes `from..` read as
    /// zeros afterwards (fresh storage is born zeroed and materialized here
    /// on first use; recycled pool storage is cleared) and the caller
    /// fills `..from`. A slot that already holds contents is left alone.
    fn define_from(&mut self, from: usize) {
        if !self.written {
            match self.payload_mut() {
                Some(payload) => payload[from..].fill(0.0),
                None => self.data = Some(Storage::Owned(Slot::alloc_storage(self.lanes))),
            }
            self.written = true;
        }
    }

    /// Learn the payload's content checksum — the value later verifications
    /// compare against — or forget it when `learn` is off. Host-side only:
    /// no event, no clock cost.
    fn learn_sum(&mut self, learn: bool) {
        self.sum = match self.payload() {
            Some(payload) if learn => Some(checksum_f32s(BUFFER_SUM_SEED, payload)),
            _ => None,
        };
    }

    /// Whether every guard lane still carries the sentinel (vacuously true
    /// for unmaterialized storage and for an adopted array, which has no
    /// guard lanes because nothing on the device side can write it). A view
    /// answers for the guards of the storage it shares.
    fn guards_intact(&self) -> bool {
        let d: &[f32] = match &self.data {
            None | Some(Storage::Shared(_)) => return true,
            Some(Storage::Owned(d)) => d,
            Some(Storage::View(block, _)) => block,
        };
        d[d.len() - GUARD_LANES..]
            .iter()
            .all(|v| v.to_bits() == GUARD_WORD)
    }
}

/// A simulated OpenCL context + in-order command queue with profiling.
pub struct Context {
    profile: DeviceProfile,
    mode: ExecMode,
    slots: Vec<Option<Slot>>,
    free_ids: Vec<usize>,
    in_use: u64,
    high_water: u64,
    /// Global virtual-clock frontier: `max` over all queue clocks.
    clock: f64,
    /// Per-queue ready times. Index 0 is the default queue, whose
    /// operations act as barriers that bring every queue up to `clock`, so
    /// single-queue programs are bit-identical to the pre-multi-queue model.
    queue_clocks: Vec<f64>,
    events: Vec<Event>,
    /// Failure injection: a deterministic, seeded schedule of device faults
    /// consulted at every allocation, transfer, launch, and compile.
    faults: Option<FaultPlan>,
    /// When set, every recorded event also becomes a child span here.
    tracer: Option<Tracer>,
    /// Released slots kept for reuse, keyed by lane count (see
    /// [`Context::set_pooling`]). Pooled bytes do not count as `in_use`,
    /// but they do occupy device memory: under allocation pressure parked
    /// slots are evicted (oldest within the largest lane class first)
    /// before [`OclError::OutOfMemory`] is returned, so the pool can never
    /// starve a live allocation. Because eviction always restores enough
    /// headroom when any exists, allocation success/failure,
    /// `high_water_bytes`, and all recorded events remain identical with
    /// pooling on or off.
    pool: std::collections::HashMap<usize, Vec<Slot>>,
    pooling: bool,
    pool_hits: u64,
    pooled_bytes: u64,
    pool_evictions: u64,
    /// How much integrity verification this context performs (see
    /// [`VerifyPolicy`]). Off by default: no checksums are learned or
    /// checked, preserving pre-integrity behavior bit-for-bit.
    verify: VerifyPolicy,
    /// Verifications performed / violations detected so far (cumulative;
    /// not reset by [`Context::reset_profile`]).
    integrity: IntegrityStats,
    /// Poison released payloads with a recognizable bit pattern
    /// (`DFG_POOL_POISON=1`, read once at construction).
    poison: bool,
    /// Bytes this context physically copied between host and device
    /// storage since the last [`Context::reset_profile`] (see
    /// [`ProfileReport::host_bytes_copied`]).
    host_bytes_copied: u64,
}

impl Context {
    /// Create a context on the given device profile.
    pub fn new(profile: DeviceProfile, mode: ExecMode) -> Self {
        Context {
            profile,
            mode,
            slots: Vec::new(),
            free_ids: Vec::new(),
            in_use: 0,
            high_water: 0,
            clock: 0.0,
            queue_clocks: vec![0.0],
            events: Vec::new(),
            faults: None,
            tracer: None,
            pool: std::collections::HashMap::new(),
            pooling: false,
            pool_hits: 0,
            pooled_bytes: 0,
            pool_evictions: 0,
            verify: VerifyPolicy::Off,
            integrity: IntegrityStats::default(),
            poison: std::env::var("DFG_POOL_POISON")
                .map(|v| v == "1")
                .unwrap_or(false),
            host_bytes_copied: 0,
        }
    }

    /// Set the verification policy (see [`VerifyPolicy`]). Takes effect on
    /// subsequent operations; checksums are learned from the next write on,
    /// so enable verification before uploading data that should be covered.
    pub fn set_verify(&mut self, policy: VerifyPolicy) {
        self.verify = policy;
    }

    /// The active verification policy.
    pub fn verify_policy(&self) -> VerifyPolicy {
        self.verify
    }

    /// Integrity counters accumulated since creation (cumulative across
    /// [`Context::reset_profile`] calls).
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity
    }

    /// Enable or disable buffer pooling. While enabled, [`Context::release`]
    /// parks the slot (keyed by lane count) instead of dropping it, and a
    /// later [`Context::create_buffer`] of the same size reuses the backing
    /// storage without re-allocating or re-zeroing it. Accounting is
    /// unchanged: released bytes leave `in_use`, reused bytes re-enter it,
    /// and `high_water_bytes` matches an unpooled run of the same sequence.
    /// Disabling drops every pooled slot.
    pub fn set_pooling(&mut self, on: bool) {
        self.pooling = on;
        if !on {
            self.pool.clear();
            self.pooled_bytes = 0;
        }
    }

    /// Allocations served from the pool since creation.
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Parked slots dropped to make headroom for live allocations (plus
    /// slots dropped by [`Context::trim_pool`]).
    pub fn pool_evictions(&self) -> u64 {
        self.pool_evictions
    }

    /// Drop every parked pool slot, returning the bytes freed. Recovery
    /// calls this before re-attempting after an `OutOfMemory` so the pool
    /// itself never causes an avoidable failure; dropped slots count as
    /// evictions.
    pub fn trim_pool(&mut self) -> u64 {
        let freed = self.pooled_bytes;
        let parked: u64 = self.pool.values().map(|v| v.len() as u64).sum();
        self.pool_evictions += parked;
        self.pool.clear();
        self.pooled_bytes = 0;
        freed
    }

    /// Bytes currently parked in the pool (released, awaiting reuse).
    pub fn pooled_bytes(&self) -> u64 {
        self.pooled_bytes
    }

    /// Attach a tracer: from now on every enqueue/launch/compile event is
    /// also recorded as a span (nested under whatever span the caller has
    /// open), carrying both virtual-clock endpoints and wall time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any; host-side code uses this to open its
    /// own stage spans around queue operations.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Install a fault plan: from now on every allocation, transfer,
    /// launch, and compile consults it and fails when the plan says so.
    /// The plan's clones share state, so the same plan can follow a
    /// recovery sequence across contexts.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Remove the fault plan; subsequent operations never fault.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Failure injection (testing): make the `n`-th future allocation fail
    /// with [`OclError::OutOfMemory`] regardless of capacity (1 = the very
    /// next allocation). Shorthand for an `alloc@n` rule on the installed
    /// fault plan (one is created if absent). Used to validate that
    /// executors surface device failures cleanly without leaking buffers
    /// or panicking.
    pub fn fail_alloc_in(&mut self, n: usize) {
        assert!(n >= 1, "n is 1-based: 1 fails the next allocation");
        let plan = self
            .faults
            .get_or_insert_with(|| FaultPlan::with_seed(0))
            .clone();
        plan.fail_nth_from_now(FaultKind::Alloc, n as u64, 1);
    }

    /// Count one operation of `kind` against the fault plan; `Some(true)`
    /// means a transient fault fired, `Some(false)` a persistent one.
    fn fault(&mut self, kind: FaultKind) -> Option<bool> {
        self.faults
            .as_ref()
            .and_then(|p| p.check(kind))
            .map(|f| f.transient)
    }

    /// The device profile this context targets.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Current virtual-clock time in seconds (the global frontier: the max
    /// over every queue's ready time).
    pub fn clock_seconds(&self) -> f64 {
        self.clock
    }

    /// Advance the virtual clock by `seconds` without recording an event —
    /// modeled idle time, e.g. retry backoff after a transient fault.
    /// Negative or non-finite durations are ignored. Acts as a barrier:
    /// every queue's ready time is brought up to the new clock.
    pub fn advance_clock(&mut self, seconds: f64) {
        if seconds.is_finite() && seconds > 0.0 {
            self.clock += seconds;
            for q in &mut self.queue_clocks {
                *q = self.clock;
            }
        }
    }

    /// Ensure `n` auxiliary in-order queues exist and return their ids
    /// (indices `1..=n`; the default queue 0 is never handed out here).
    ///
    /// Each acquired queue's ready time is (re)set to the current global
    /// clock, so a fresh pipeline never starts before previously enqueued
    /// work completes — acquiring is itself a barrier for those queues.
    /// Queues persist across [`Context::reset_profile`], so a session
    /// re-acquiring the same depth each cycle reuses them deterministically.
    pub fn acquire_queues(&mut self, n: usize) -> Vec<QueueId> {
        if self.queue_clocks.len() < n + 1 {
            self.queue_clocks.resize(n + 1, self.clock);
        }
        (1..=n)
            .map(|i| {
                self.queue_clocks[i] = self.clock;
                QueueId(i)
            })
            .collect()
    }

    /// Bytes currently allocated to buffers.
    pub fn in_use_bytes(&self) -> u64 {
        self.in_use
    }

    /// Peak bytes ever allocated (the memory study's high-water mark).
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water
    }

    /// Bytes physically copied between host and device storage since the
    /// last [`Context::reset_profile`]: what
    /// [`ProfileReport::host_bytes_copied`] will read.
    pub fn host_bytes_copied(&self) -> u64 {
        self.host_bytes_copied
    }

    /// Snapshot the profiling state.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            events: self.events.clone(),
            high_water_bytes: self.high_water,
            host_bytes_copied: self.host_bytes_copied,
        }
    }

    /// Clear recorded events and the copied-bytes counter and reset the
    /// clock (all queues) and high-water mark. Live allocations are kept
    /// (and re-seed the high-water mark).
    pub fn reset_profile(&mut self) {
        self.events.clear();
        self.host_bytes_copied = 0;
        self.clock = 0.0;
        for q in &mut self.queue_clocks {
            *q = 0.0;
        }
        self.high_water = self.in_use;
    }

    fn slot(&self, id: BufferId) -> Result<&Slot, OclError> {
        self.slots
            .get(id.0)
            .and_then(|s| s.as_ref())
            .ok_or(OclError::InvalidBuffer { id: id.0 })
    }

    /// Allocate a device buffer of `lanes` f32 lanes.
    pub fn create_buffer(&mut self, lanes: usize) -> Result<BufferId, OclError> {
        let bytes = lanes as u64 * 4;
        if self.fault(FaultKind::Alloc).is_some() {
            return Err(OclError::OutOfMemory {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.profile.global_mem_bytes,
            });
        }
        // Storage is materialized lazily: a fresh buffer carries no `Vec`
        // until the first write/launch, so create-then-write initializes the
        // memory once instead of zero-filling and then overwriting. A pooled
        // slot arrives with its (stale) storage intact and `written` already
        // cleared by `release`, so reads still see zeros, not old contents.
        let pooled = if self.pooling {
            self.pool.get_mut(&lanes).and_then(Vec::pop)
        } else {
            None
        };
        let slot = match pooled {
            Some(mut slot) => {
                // Reuse moves bytes from the pool back to `in_use`; the
                // device footprint is unchanged, so no capacity check.
                self.pool_hits += 1;
                self.pooled_bytes -= slot.bytes;
                // Silent-corruption injection: a stale hand-out skips the
                // contents clear, leaking the previous owner's data. The
                // draw happens in both modes (counter parity); the effect
                // needs real storage.
                if self.fault(FaultKind::StaleSlot).is_some()
                    && self.mode == ExecMode::Real
                    && slot.data.is_some()
                {
                    slot.written = true;
                }
                // Allocator self-check: the pool must only hand out slots
                // with cleared contents and intact guards. A violation
                // quarantines the slot (its storage is dropped, never
                // reused) and surfaces as a transient error — the retried
                // allocation gets a fresh, clean slot.
                if self.verify.enabled() {
                    self.integrity.checks += 1;
                    let stale = slot.written;
                    let guards = !slot.guards_intact();
                    if stale || guards {
                        self.integrity.violations += 1;
                        let would_be = self.free_ids.last().copied().unwrap_or(self.slots.len());
                        return Err(OclError::IntegrityViolation {
                            kind: if stale {
                                IntegrityKind::StaleSlot
                            } else {
                                IntegrityKind::Guard
                            },
                            buffer: would_be,
                            offset: 0,
                        });
                    }
                }
                slot
            }
            None => {
                // A genuinely new allocation: parked pool slots occupy
                // device memory too, so under pressure evict them (largest
                // lane class first, deterministically) before giving up.
                while self.in_use + self.pooled_bytes + bytes > self.profile.global_mem_bytes
                    && self.pooled_bytes > 0
                {
                    self.evict_one_pooled_slot();
                }
                if self.in_use + bytes > self.profile.global_mem_bytes {
                    return Err(OclError::OutOfMemory {
                        requested: bytes,
                        in_use: self.in_use,
                        capacity: self.profile.global_mem_bytes,
                    });
                }
                Slot {
                    data: None,
                    written: false,
                    sum: None,
                    lanes,
                    bytes,
                }
            }
        };
        self.in_use += bytes;
        self.high_water = self.high_water.max(self.in_use);
        let idx = if let Some(idx) = self.free_ids.pop() {
            self.slots[idx] = Some(slot);
            idx
        } else {
            self.slots.push(Some(slot));
            self.slots.len() - 1
        };
        Ok(BufferId(idx))
    }

    /// Release a buffer, returning its bytes to the device's free capacity.
    /// With pooling enabled the backing storage is parked for reuse by a
    /// later same-sized [`Context::create_buffer`] instead of being dropped.
    pub fn release(&mut self, id: BufferId) -> Result<(), OclError> {
        let mut slot = self
            .slots
            .get_mut(id.0)
            .and_then(Option::take)
            .ok_or(OclError::InvalidBuffer { id: id.0 })?;
        self.in_use -= slot.bytes;
        self.free_ids.push(id.0);
        if self.pooling {
            // Keep the storage but forget its contents: the next owner must
            // observe zeros until it writes, never this buffer's data. An
            // adopted array is the host's and a view is shared, not storage
            // to keep: the handle is dropped and the slot parks bare, exactly
            // as a Model slot does, so pool counters cannot tell them apart.
            slot.written = false;
            slot.sum = None;
            if let Some(Storage::Shared(_) | Storage::View(..)) = slot.data {
                slot.data = None;
            }
            // Optional hygiene tripwire: overwrite the released payload with
            // a loud bit pattern so any path that (incorrectly) relies on
            // recycled contents fails recognizably instead of silently.
            if self.poison {
                if let Some(payload) = slot.payload_mut() {
                    payload.fill(f32::from_bits(POISON_WORD));
                }
            }
            self.pooled_bytes += slot.bytes;
            self.pool.entry(slot.lanes).or_default().push(slot);
        }
        Ok(())
    }

    /// Drop one parked slot from the largest non-empty lane class.
    fn evict_one_pooled_slot(&mut self) {
        let largest = self
            .pool
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&lanes, _)| lanes)
            .max();
        if let Some(lanes) = largest {
            let parked = self.pool.get_mut(&lanes).expect("key exists");
            let slot = parked.pop().expect("non-empty class");
            if parked.is_empty() {
                self.pool.remove(&lanes);
            }
            self.pooled_bytes -= slot.bytes;
            self.pool_evictions += 1;
        }
    }

    /// Snapshot the set of live buffers, so a failed execution attempt can
    /// be rolled back with [`Context::rollback`].
    pub fn alloc_mark(&self) -> AllocMark {
        AllocMark {
            live: self.slots.iter().map(Option::is_some).collect(),
            in_use: self.in_use,
        }
    }

    /// Release every buffer created since `mark` was taken, returning the
    /// bytes reclaimed. Buffers live at the mark are untouched (recovery
    /// relies on session-resident fields surviving a failed attempt), so
    /// after rollback `in_use_bytes` is back to the mark's baseline and the
    /// pool bookkeeping is consistent — parked slots gain the rolled-back
    /// storage when pooling is on.
    pub fn rollback(&mut self, mark: &AllocMark) -> u64 {
        let before = self.in_use;
        for idx in 0..self.slots.len() {
            let live_at_mark = mark.live.get(idx).copied().unwrap_or(false);
            if self.slots[idx].is_some() && !live_at_mark {
                self.release(BufferId(idx)).expect("slot checked live");
            }
        }
        before - self.in_use
    }

    /// Record an event on one queue, ordered after that queue's prior work
    /// and after every dependency in `deps`. Returns the completion token.
    ///
    /// The default queue is a barrier: an operation on it starts at the
    /// global frontier and brings every queue's ready time up to its
    /// completion, so programs that never touch an auxiliary queue see
    /// exactly the single-queue virtual clock.
    ///
    /// All timing is computed here, serially, at enqueue time — overlapped
    /// execution is a property of the *model*, so Model and Real mode (and
    /// any `DFG_NUM_THREADS`) produce bit-identical clocks.
    fn record(
        &mut self,
        queue: QueueId,
        kind: EventKind,
        label: &str,
        bytes: u64,
        seconds: f64,
        deps: &[EventToken],
    ) -> EventToken {
        let barrier = queue == QueueId::DEFAULT;
        // A queue's ready time: when its last enqueued operation completes.
        let mut t_start = if barrier {
            self.clock
        } else {
            self.queue_clocks
                .get(queue.0)
                .copied()
                .unwrap_or(self.clock)
        };
        for dep in deps {
            t_start = t_start.max(dep.t_end);
        }
        let t_end = t_start + seconds;
        if barrier {
            self.queue_clocks.fill(t_end);
        } else if let Some(q) = self.queue_clocks.get_mut(queue.0) {
            *q = t_end;
        }
        self.clock = self.clock.max(t_end);
        if let Some(tracer) = &self.tracer {
            tracer.device_event(&format!("ocl.{}", kind.tag()), label, bytes, t_start, t_end);
        }
        self.events.push(Event {
            kind,
            label: label.to_string(),
            bytes,
            t_start,
            t_end,
            queue: queue.0,
        });
        EventToken { t_start, t_end }
    }

    /// The accounting half of a transfer, the same for both directions and
    /// both modes: validate `host`'s window at `offset`, consult the fault
    /// plan, revalidate a download's source under [`VerifyPolicy::Full`],
    /// record the event. The storage half — the copy — follows in the
    /// caller, on a Real context only.
    ///
    /// A Real context asked to move bytes the host does not have, or a Model
    /// context asked to deliver contents it does not have, is refused before
    /// the fault-plan draw, so the call leaves no trace.
    fn transfer<S>(
        &mut self,
        direction: TransferDir,
        queue: QueueId,
        id: BufferId,
        offset: usize,
        host: &HostEnd<S>,
        deps: &[EventToken],
    ) -> Result<EventToken, OclError> {
        let cap = self.slot(id)?.lanes;
        if offset.checked_add(host.lanes).is_none_or(|end| end > cap) {
            return Err(OclError::SizeMismatch {
                expected: cap,
                found: offset.saturating_add(host.lanes),
            });
        }
        let download = direction == TransferDir::DeviceToHost;
        let refused = match (self.mode, host.data.is_some()) {
            (ExecMode::Real, false) => Some("a real-mode context needs the host's memory"),
            (ExecMode::Model, true) if download => Some("a model-mode context has no contents"),
            _ => None,
        };
        if let Some(why) = refused {
            return Err(OclError::InvalidOperation(format!(
                "{direction} transfer refused: {why}"
            )));
        }
        let bytes = host.lanes as u64 * 4;
        if let Some(transient) = self.fault(FaultKind::Transfer) {
            return Err(OclError::TransferFailed {
                direction,
                bytes,
                transient,
            });
        }
        // Full verification: revalidate before handing the bits to the
        // host, so a silent flip never escapes into downstream results.
        if download && self.verify == VerifyPolicy::Full {
            self.verify_buffer(id)?;
        }
        let (kind, label, seconds) = if download {
            let seconds = self.profile.d2h_seconds(bytes);
            (EventKind::DeviceToHost, "read", seconds)
        } else {
            let seconds = self.profile.h2d_seconds(bytes);
            (EventKind::HostToDevice, "write", seconds)
        };
        Ok(self.record(queue, kind, label, bytes, seconds, deps))
    }

    /// Enqueue a host→device write of the whole buffer on the default
    /// queue: [`Context::enqueue_write_q`] with an exact-size check.
    pub fn enqueue_write(&mut self, id: BufferId, data: &[f32]) -> Result<(), OclError> {
        let lanes = self.slot(id)?.lanes;
        if data.len() != lanes {
            return Err(OclError::SizeMismatch {
                expected: lanes,
                found: data.len(),
            });
        }
        self.enqueue_write_q(QueueId::DEFAULT, id, data.into(), &[])
            .map(drop)
    }

    /// Enqueue a device→host read of the whole buffer on the default queue,
    /// returning a copy of its contents; a buffer that was never written (by
    /// host or kernel) reads as zeros. A Model context has no contents to
    /// return: account its downloads with [`Context::read_and_release`] or
    /// [`Context::enqueue_read_range_q`].
    pub fn enqueue_read(&mut self, id: BufferId) -> Result<Vec<f32>, OclError> {
        self.read_whole(id, true)?;
        let data = self.slot(id)?.copy_out(1);
        self.host_bytes_copied += data.len() as u64 * 4;
        Ok(data)
    }

    /// The last read of a buffer: [`Context::enqueue_read`], then
    /// [`Context::release`]. The buffer holds a value as `planes` equal
    /// planes (a `Vec4` value: four), returned in the host's layout, cell by
    /// cell (see [`interleave`]); a Model context records the same transfer
    /// and release and returns `None`.
    ///
    /// Because nothing reads the buffer again, a real context may hand its
    /// storage to the host instead of copying it. It does in one case: the
    /// context does not pool, the value is one plane, and the slot holds
    /// written storage of its own. Every other buffer is copied and then
    /// released (or parked): a pooled slot keeps its storage for the next
    /// allocation, a vector value is interleaved, an adopted array is the
    /// host's own and a view shares its storage. Only storage moves, so the
    /// event, bytes, fault draw, [`VerifyPolicy::Full`] check, clock,
    /// `in_use` and pool counters are those of the two calls; only
    /// [`Context::host_bytes_copied`] tells the cases apart. A failed
    /// transfer releases nothing.
    pub fn read_and_release(
        &mut self,
        id: BufferId,
        planes: usize,
    ) -> Result<Option<Vec<f32>>, OclError> {
        let real = self.mode == ExecMode::Real;
        self.read_whole(id, real)?;
        let data = real.then(|| {
            let slot = self.slots[id.0]
                .as_mut()
                .expect("validated by the transfer");
            let hand_over = !self.pooling && planes == 1 && slot.written;
            match slot.data.take() {
                Some(Storage::Owned(mut storage)) if hand_over => {
                    storage.truncate(slot.lanes);
                    storage
                }
                data => {
                    slot.data = data;
                    self.host_bytes_copied += slot.lanes as u64 * 4;
                    slot.copy_out(planes)
                }
            }
        });
        self.release(id)?;
        Ok(data)
    }

    /// The accounting of a whole-buffer download on the default queue, into
    /// host memory when `bytes`.
    fn read_whole(&mut self, id: BufferId, bytes: bool) -> Result<(), OclError> {
        let whole = HostEnd {
            lanes: self.slot(id)?.lanes,
            data: bytes.then_some(()),
        };
        self.transfer(
            TransferDir::DeviceToHost,
            QueueId::DEFAULT,
            id,
            0,
            &whole,
            &[],
        )
        .map(drop)
    }

    /// Enqueue a host→device write on `queue`, ordered after `deps`. A Real
    /// context takes `src`'s bytes at enqueue time; a Model context
    /// accounts the same event and touches no storage. A *prefix* write —
    /// `src.lanes()` below the buffer's — is allowed, so an over-sized
    /// pooled ring buffer can receive a smaller final slab: bytes and
    /// modeled time follow the data actually moved, and in a never-written
    /// buffer the remaining lanes read as zeros.
    ///
    /// How the bytes are taken follows from what `src` is (see
    /// [`UploadSource`]): a borrowed slice is copied into the slot's
    /// storage; a [`SharedArray`] covering the whole buffer is *adopted* —
    /// the slot keeps a clone of the handle and no lane is copied. Either
    /// way the accounting above is the same call.
    pub fn enqueue_write_q<S: UploadSource>(
        &mut self,
        queue: QueueId,
        id: BufferId,
        src: HostEnd<S>,
        deps: &[EventToken],
    ) -> Result<EventToken, OclError> {
        let token = self.transfer(TransferDir::HostToDevice, queue, id, 0, &src, deps)?;
        if let (ExecMode::Real, Some(src)) = (self.mode, &src.data) {
            let verify = self.verify.enabled();
            let slot = self.slots[id.0].as_mut().expect("validated above");
            let copied = match src.shared().filter(|array| array.len() == slot.lanes) {
                Some(array) => {
                    slot.data = Some(Storage::Shared(array.clone()));
                    slot.written = true;
                    0
                }
                None => {
                    let data = src.as_ref();
                    slot.define_from(data.len());
                    slot.payload_mut().expect("just materialized")[..data.len()]
                        .copy_from_slice(data);
                    data.len()
                }
            };
            // The sum covers the whole payload (prefix plus whatever tail
            // the write left behind), so verification stays whole-buffer.
            slot.learn_sum(verify);
            self.host_bytes_copied += copied as u64 * 4;
        }
        Ok(token)
    }

    /// Enqueue a device→host read of `dst.lanes()` lanes starting at lane
    /// `offset`, on `queue`, ordered after `deps`. A Real context copies
    /// directly into `dst` — the zero-copy download path: the caller hands
    /// the final destination slice (e.g. a window of the assembled output
    /// field) and no intermediate `Vec` is allocated; a never-written range
    /// reads as zeros. A Model context accounts the same event for a `dst`
    /// without memory.
    pub fn enqueue_read_range_q(
        &mut self,
        queue: QueueId,
        id: BufferId,
        offset: usize,
        dst: HostEnd<&mut [f32]>,
        deps: &[EventToken],
    ) -> Result<EventToken, OclError> {
        let token = self.transfer(TransferDir::DeviceToHost, queue, id, offset, &dst, deps)?;
        if let Some(dst) = dst.data {
            match self.slot(id)?.contents() {
                Some(src) => dst.copy_from_slice(&src[offset..offset + dst.len()]),
                None => dst.fill(0.0),
            }
            self.host_bytes_copied += dst.len() as u64 * 4;
        }
        Ok(token)
    }

    /// Record a kernel compilation event (fusion's dynamic kernel
    /// generation). Excluded from device runtime totals by category.
    /// Fails if the fault plan injects a compiler fault.
    pub fn record_compile(&mut self, name: &str) -> Result<(), OclError> {
        if let Some(transient) = self.fault(FaultKind::Compile) {
            return Err(OclError::CompileFailed {
                kernel: name.to_string(),
                transient,
            });
        }
        let seconds = self.profile.compile_s;
        self.record(
            QueueId::DEFAULT,
            EventKind::KernelCompile,
            name,
            0,
            seconds,
            &[],
        );
        Ok(())
    }

    /// Launch a kernel over `n` elements on the default queue: see
    /// [`Context::launch_q`].
    pub fn launch(
        &mut self,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
    ) -> Result<(), OclError> {
        self.launch_q(QueueId::DEFAULT, kernel, inputs, output, n, &[])
            .map(drop)
    }

    /// Launch a kernel over `n` elements on `queue`, ordered after `deps`.
    ///
    /// In real mode the kernel body executes on the host's cores at enqueue
    /// time, into the output's own storage — or, for a kernel that only
    /// copies lanes of its operand, makes the output a view of them (see
    /// [`Context::launch_then_release`]); in model mode only the cost model
    /// runs. The modeled execution interval is placed after the
    /// queue's prior work and every dependency. The output buffer must not
    /// alias any input. The caller is responsible for passing the tokens of
    /// the uploads/downloads the launch actually depends on — exactly the
    /// discipline real out-of-order queues require.
    pub fn launch_q(
        &mut self,
        queue: QueueId,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
        deps: &[EventToken],
    ) -> Result<EventToken, OclError> {
        self.launch_body(queue, kernel, inputs, output, n, deps, &[])
            .map(|(token, _)| token)
    }

    /// [`Context::launch`], then [`Context::release`] of every buffer in
    /// `dying` (the operands this launch reads last), in order; a failed
    /// launch releases nothing. Returns where the output went:
    /// - [`Placement::InPlace`]: an [`in_place`](DeviceKernel::in_place)
    ///   kernel computes into the storage of a dying input that is private
    ///   (see below) and as wide as the output, whose own storage (pooled,
    ///   or none yet) goes to that input instead;
    /// - [`Placement::View`]: a kernel that only copies lanes of its operand
    ///   ([`DeviceKernel::view`]) does not run, and its output shares those
    ///   lanes — unless the operand is an adopted host array.
    ///
    /// Storage is private when no other live slot holds it: never an
    /// adopted array, and a view only once its operand and every sibling
    /// view are released. A dying view that is not private still donates,
    /// by copy on write fused into the kernel's pass: the kernel reads the
    /// view and writes the output's own storage. Any other write through a
    /// view (a `mem_flip`, a host write) copies its lanes first. Only
    /// storage moves and changes shape, so `in_use`, the high-water mark,
    /// pool counters and every event are the same in every case.
    pub fn launch_then_release(
        &mut self,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
        dying: &[BufferId],
    ) -> Result<Placement, OclError> {
        let (_, placement) =
            self.launch_body(QueueId::DEFAULT, kernel, inputs, output, n, &[], dying)?;
        for &id in dying {
            self.release(id)?;
        }
        Ok(placement)
    }

    /// The one launch body: checks, fault draws, verification, the kernel
    /// (in place over a `dying` input, or as a view, where it may) and the
    /// event.
    #[allow(clippy::too_many_arguments)]
    fn launch_body(
        &mut self,
        queue: QueueId,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
        deps: &[EventToken],
        dying: &[BufferId],
    ) -> Result<(EventToken, Placement), OclError> {
        if inputs.contains(&output) {
            return Err(OclError::OutputAliasesInput {
                kernel: kernel.name(),
            });
        }
        // Validate all ids up front.
        for &id in inputs.iter().chain(dying) {
            self.slot(id)?;
        }
        self.slot(output)?;
        if let Some(transient) = self.fault(FaultKind::Launch) {
            return Err(OclError::LaunchFailed {
                kernel: kernel.name(),
                transient,
            });
        }
        // Silent-corruption injection: a mem_flip fault flips one seeded bit
        // in one written input buffer just before the launch consumes it.
        // The draw happens in both modes (counter parity); the flip needs
        // real storage, so in model mode the fault is inert. The victim's
        // learned checksum is deliberately NOT updated — that is the
        // corruption the next verification catches.
        if self.fault(FaultKind::MemFlip).is_some() {
            self.flip_one_bit(inputs);
        }
        // Full verification: revalidate every sum-bearing input before the
        // kernel consumes its bits.
        if self.verify == VerifyPolicy::Full {
            for &id in inputs {
                self.verify_buffer(id)?;
            }
        }

        // The dying operand an in-place launch computes into, if any (see
        // `launch_then_release`); a Model slot has no storage to give.
        let out_lanes = self.slot(output)?.lanes;
        let donor = dying.iter().copied().find(|&id| {
            let slot = self.slots[id.0].as_ref().expect("validated");
            kernel.in_place()
                && inputs.contains(&id)
                && slot.lanes == out_lanes
                && matches!(slot.data, Some(Storage::Owned(_) | Storage::View(..)))
        });
        // A donor that shares its lanes with another live slot is copied on
        // write, and the copy is the kernel's own pass: the kernel reads the
        // donor's lanes and writes the output's storage.
        let donor_storage = donor.filter(|&id| self.private(id));
        let mut placement = match donor {
            Some(_) => Placement::InPlace,
            None => Placement::Own,
        };
        if self.mode == ExecMode::Real {
            // Never-written inputs must read as zeros inside the kernel too,
            // so materialize them first (pooled storage may be stale).
            let full = self.verify == VerifyPolicy::Full;
            for &id in inputs {
                let slot = self.slots[id.0].as_mut().expect("validated");
                if !slot.written {
                    slot.define_from(0);
                    slot.learn_sum(full);
                }
            }
            // In place, the output and the donor first trade storage: the
            // kernel writes over the donor's lanes, and the donor leaves
            // with the output's (pooled, or none yet).
            if let Some(donor) = donor_storage {
                let Ok([Some(out), Some(donor)]) = self.slots.get_disjoint_mut([output.0, donor.0])
                else {
                    unreachable!("the output and its donor are distinct live slots");
                };
                std::mem::swap(&mut out.data, &mut donor.data);
            }
            let shared = match (kernel.view(n), inputs.first()) {
                (Some(lanes), Some(&input)) if donor.is_none() && lanes.len() == out_lanes => {
                    self.share(input, lanes, output)
                }
                _ => false,
            };
            if shared {
                placement = Placement::View;
            } else {
                self.run(kernel, inputs, output, n, donor_storage);
            }
            // Learn the output's checksum under Full (so downstream uses of
            // this kernel's result are verifiable); cheaper levels leave it
            // unlearned rather than pay a pass per launch.
            let out_slot = self.slots[output.0].as_mut().expect("validated");
            out_slot.written = true;
            out_slot.learn_sum(full);
        }
        let cost = kernel.cost(n);
        let seconds = self
            .profile
            .kernel_seconds(cost.bytes_read + cost.bytes_written, cost.flops);
        let token = self.record(
            queue,
            EventKind::KernelExec,
            &kernel.name(),
            cost.bytes_read + cost.bytes_written,
            seconds,
            deps,
        );
        Ok((token, placement))
    }

    /// Whether no live slot but `id` holds `id`'s storage: storage of its
    /// own, or a view whose operand and siblings are all released. Never an
    /// adopted host array.
    fn private(&self, id: BufferId) -> bool {
        match &self.slots[id.0].as_ref().expect("validated").data {
            Some(Storage::Owned(_)) => true,
            Some(Storage::View(block, _)) => Arc::strong_count(block) == 1,
            _ => false,
        }
    }

    /// Make `output` a view of lanes `lanes` of `input`'s storage when that
    /// storage is the device's own (never an adopted host array): private
    /// storage becomes shared by both slots. Returns whether it did.
    fn share(&mut self, input: BufferId, lanes: Range<usize>, output: BufferId) -> bool {
        let src = self.slots[input.0].as_mut().expect("validated");
        if lanes.end > src.lanes {
            return false;
        }
        let (block, at) = match src.data.take() {
            Some(Storage::Owned(d)) => (Arc::new(d), 0),
            Some(Storage::View(block, at)) => (block, at),
            other => {
                src.data = other;
                return false;
            }
        };
        src.data = Some(Storage::View(Arc::clone(&block), at));
        let out = self.slots[output.0].as_mut().expect("validated");
        out.data = Some(Storage::View(block, at + lanes.start));
        true
    }

    /// Run `kernel` into `output`'s storage — a private `donor`'s, in place,
    /// a view where it lies. The output's prior contents are unspecified (as
    /// in OpenCL), so pooled reuse pays no zero-fill, except for a tail the
    /// kernel leaves unwritten ([`DeviceKernel::unwritten_from`]), which
    /// fresh storage already holds as zeros.
    fn run(
        &mut self,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
        donor: Option<BufferId>,
    ) {
        // Temporarily take the output storage to satisfy the borrow
        // checker, then gather immutable input views.
        let out_slot = self.slots[output.0].as_mut().expect("validated");
        let lanes = out_slot.lanes;
        let fresh = out_slot.data.is_none();
        let mut storage = match out_slot.data.take() {
            Some(view @ Storage::View(..)) if donor.is_some() => view,
            data => {
                out_slot.data = data;
                let d = (out_slot.owned_mut().map(std::mem::take))
                    .unwrap_or_else(|| Slot::alloc_storage(lanes));
                Storage::Owned(d)
            }
        };
        let out = match &mut storage {
            Storage::Owned(d) => &mut d[..lanes],
            Storage::View(block, at) => {
                let d = Arc::get_mut(block).expect("a private view's the only handle");
                &mut d[*at..*at + lanes]
            }
            Storage::Shared(_) => unreachable!("made private above"),
        };
        let input_views: Vec<&[f32]> = inputs
            .iter()
            .map(|&id| match self.slots[id.0].as_ref().expect("validated") {
                _ if Some(id) == donor => &[][..],
                slot => slot.payload().expect("materialized above"),
            })
            .collect();
        kernel.run(KernelArgs {
            inputs: &input_views,
            output: &mut *out,
            n,
        });
        if let Some(from) = kernel.unwritten_from(n).filter(|_| !fresh) {
            out[from..].fill(0.0);
        }
        self.slots[output.0].as_mut().expect("validated").data = Some(storage);
    }

    /// Flip one seeded bit in one of `candidates` that has materialized,
    /// written, non-empty storage — the payload of an injected `mem_flip`
    /// fault. No-op when no candidate qualifies (model mode, or nothing
    /// written yet). Victim and bit are derived from the fault-plan seed and
    /// the event count, so repeated flips in one run hit distinct,
    /// reproducible targets.
    fn flip_one_bit(&mut self, candidates: &[BufferId]) {
        use crate::integrity::splitmix64;
        let victims: Vec<usize> = candidates
            .iter()
            .map(|id| id.0)
            .filter(|&i| {
                self.slots[i]
                    .as_ref()
                    .is_some_and(|s| s.written && s.data.is_some() && s.lanes > 0)
            })
            .collect();
        if victims.is_empty() {
            return;
        }
        let seed = self.faults.as_ref().map(|p| p.seed()).unwrap_or(0);
        let h = splitmix64(seed ^ splitmix64(self.events.len() as u64 ^ 0x5EED_F11F));
        let victim = victims[(h % victims.len() as u64) as usize];
        let slot = self.slots[victim].as_mut().expect("filtered live");
        let bit_count = (slot.lanes * 32) as u64;
        let b = splitmix64(h) % bit_count;
        let lane = (b / 32) as usize;
        let bit = (b % 32) as u32;
        let payload = slot.payload_mut().expect("filtered materialized");
        payload[lane] = f32::from_bits(payload[lane].to_bits() ^ (1u32 << bit));
    }

    /// Copy out a buffer's contents without recording a transfer event
    /// (testing/diagnostic aid; not part of the modeled protocol). Like
    /// [`Context::enqueue_read`], a never-written buffer peeks as zeros.
    pub fn peek(&self, id: BufferId) -> Result<Vec<f32>, OclError> {
        if self.mode == ExecMode::Model {
            self.slot(id)?;
            return Err(OclError::InvalidOperation("peek in model mode".into()));
        }
        Ok(self.slot(id)?.copy_out(1))
    }

    /// Revalidate a buffer's integrity: guard zones intact and, when a
    /// content checksum was learned, payload bits still matching it.
    ///
    /// Host-side bookkeeping only — records no device event and never
    /// advances the virtual clock. Vacuously `Ok` in model mode (no backing
    /// data), under [`VerifyPolicy::Off`], or when the buffer carries no
    /// learned checksum (never written, or written while verification was
    /// off). On a mismatch the violation is counted and returned as a
    /// transient [`OclError::IntegrityViolation`]; the buffer itself is
    /// left untouched — the caller decides whether to re-upload, re-derive,
    /// or abort. The session calls this before trusting a resident enough
    /// to skip its re-upload; [`VerifyPolicy::Full`] additionally routes
    /// every launch input and download through it.
    pub fn verify_buffer(&mut self, id: BufferId) -> Result<(), OclError> {
        let violation = {
            let slot = self.slot(id)?;
            if self.mode == ExecMode::Model || !self.verify.enabled() {
                return Ok(());
            }
            if !slot.guards_intact() {
                Some(IntegrityKind::Guard)
            } else {
                match (slot.sum, slot.payload()) {
                    (Some(expected), Some(payload))
                        if checksum_f32s(BUFFER_SUM_SEED, payload) != expected =>
                    {
                        Some(IntegrityKind::Checksum)
                    }
                    _ => None,
                }
            }
        };
        self.integrity.checks += 1;
        if let Some(kind) = violation {
            self.integrity.violations += 1;
            return Err(OclError::IntegrityViolation {
                kind,
                buffer: id.0,
                offset: 0,
            });
        }
        Ok(())
    }

    /// Corrupt one bit of a buffer's payload without updating its learned
    /// checksum — a test hook for the integrity layer (real mode, written
    /// buffers only; silently a no-op otherwise).
    #[doc(hidden)]
    pub fn debug_flip_bit(&mut self, id: BufferId, lane: usize, bit: u32) {
        if let Some(slot) = self.slots.get_mut(id.0).and_then(Option::as_mut) {
            if let Some(payload) = slot.payload_mut() {
                if let Some(v) = payload.get_mut(lane) {
                    *v = f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)));
                }
            }
        }
    }

    /// Overwrite the first guard lane behind a buffer's payload — a test
    /// hook simulating an out-of-bounds write into the allocation (real
    /// mode, materialized buffers only; silently a no-op otherwise).
    #[doc(hidden)]
    pub fn debug_poke_guard(&mut self, id: BufferId) {
        if let Some(slot) = self.slots.get_mut(id.0).and_then(Option::as_mut) {
            let lanes = slot.lanes;
            if let Some(d) = slot.owned_mut() {
                d[lanes] = f32::from_bits(!GUARD_WORD);
            }
        }
    }

    /// Force pool-poisoning on or off, overriding the `DFG_POOL_POISON`
    /// environment variable read at construction — a test hook so the
    /// poison bit-parity regression does not depend on process environment.
    #[doc(hidden)]
    pub fn debug_set_poison(&mut self, on: bool) {
        self.poison = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceProfile;

    /// Doubling kernel shared by the test modules of this file.
    pub(super) struct Double;

    impl DeviceKernel for Double {
        fn name(&self) -> String {
            "double".into()
        }
        fn cost(&self, n: usize) -> KernelCost {
            KernelCost {
                bytes_read: 4 * n as u64,
                bytes_written: 4 * n as u64,
                flops: n as u64,
            }
        }
        fn run(&self, args: KernelArgs<'_>) {
            for i in 0..args.n {
                args.output[i] = args.inputs[0][i] * 2.0;
            }
        }
    }

    pub(super) fn ctx() -> Context {
        Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Real)
    }

    /// A slice as the host end of an upload.
    fn host(data: &[f32]) -> HostEnd<&[f32]> {
        data.into()
    }

    /// The host ends a two-mode script passes: `data` itself where the run
    /// has bytes (Real), its lane count alone where it has none (Model).
    /// Nothing else in a script varies with the mode.
    pub(super) fn src(bytes: bool, data: &[f32]) -> HostEnd<&[f32]> {
        HostEnd::or_absent(bytes.then_some(data), data.len())
    }

    /// [`src`] for a host that holds `data` as a shared array.
    pub(super) fn shared_src(bytes: bool, data: &SharedArray) -> HostEnd<&SharedArray> {
        HostEnd::or_absent(bytes.then_some(data), data.len())
    }

    pub(super) fn dst(bytes: bool, data: &mut [f32]) -> HostEnd<&mut [f32]> {
        let lanes = data.len();
        HostEnd::or_absent(bytes.then_some(data), lanes)
    }

    /// What a run leaves on the modeled side, bit for bit: every event
    /// (kind, label, bytes, `t_start`/`t_end` bit patterns, queue), every
    /// queue's clock, the high-water mark, and how many alloc / transfer /
    /// launch / mem_flip / stale_slot operations the fault plan saw.
    type Modeled = (
        Vec<(EventKind, String, u64, u64, u64, usize)>,
        Vec<u64>,
        u64,
        [u64; 5],
    );

    /// Run `script` on a fresh context under an (initially empty) fault plan.
    fn modeled(mode: ExecMode, script: &dyn Fn(&mut Context, bool)) -> Modeled {
        use crate::fault::FaultKind::{Alloc, Launch, MemFlip, StaleSlot, Transfer};
        let mut c = Context::new(DeviceProfile::nvidia_m2050(), mode);
        let plan = crate::fault::FaultPlan::with_seed(5);
        c.set_fault_plan(plan.clone());
        script(&mut c, mode == ExecMode::Real);
        let stamp = |e: &Event| {
            let (t0, t1) = (e.t_start.to_bits(), e.t_end.to_bits());
            (e.kind, e.label.clone(), e.bytes, t0, t1, e.queue)
        };
        (
            c.events.iter().map(stamp).collect(),
            c.queue_clocks.iter().map(|t| t.to_bits()).collect(),
            c.high_water_bytes(),
            [Alloc, Transfer, Launch, MemFlip, StaleSlot].map(|k| plan.ops_seen(k)),
        )
    }

    /// One script, two modes: `script` runs under [`ExecMode::Real`] and
    /// [`ExecMode::Model`] through the same calls and must leave the same
    /// modeled state, which is returned.
    pub(super) fn both_modes(script: impl Fn(&mut Context, bool)) -> Modeled {
        let real = modeled(ExecMode::Real, &script);
        assert_eq!(real, modeled(ExecMode::Model, &script));
        real
    }

    #[test]
    fn write_launch_read_roundtrip() {
        let mut c = ctx();
        let a = c.create_buffer(4).unwrap();
        let b = c.create_buffer(4).unwrap();
        c.enqueue_write(a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        c.launch(&Double, &[a], b, 4).unwrap();
        let out = c.enqueue_read(b).unwrap();
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
        let report = c.report();
        assert_eq!(report.table2_row(), (1, 1, 1));
        assert!(report.device_seconds() > 0.0);
    }

    #[test]
    fn oom_is_detected() {
        let mut c = ctx();
        let cap = c.profile().global_mem_bytes;
        // One byte over capacity in lanes.
        let lanes = (cap / 4 + 1) as usize;
        match c.create_buffer(lanes) {
            Err(OclError::OutOfMemory {
                requested,
                capacity,
                ..
            }) => {
                assert_eq!(requested, lanes as u64 * 4);
                assert_eq!(capacity, cap);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn oom_accounts_for_live_buffers() {
        let mut c = ctx();
        let cap = c.profile().global_mem_bytes as usize;
        let half = cap / 8; // lanes: half the capacity in bytes
        let _a = c.create_buffer(half).unwrap();
        let _b = c.create_buffer(half).unwrap();
        assert!(c.create_buffer(8).is_err(), "third allocation must not fit");
    }

    #[test]
    fn release_returns_capacity_and_invalidates_handle() {
        let mut c = ctx();
        let a = c.create_buffer(1024).unwrap();
        assert_eq!(c.in_use_bytes(), 4096);
        c.release(a).unwrap();
        assert_eq!(c.in_use_bytes(), 0);
        assert!(matches!(c.release(a), Err(OclError::InvalidBuffer { .. })));
        assert!(matches!(
            c.enqueue_read(a),
            Err(OclError::InvalidBuffer { .. })
        ));
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut c = ctx();
        let a = c.create_buffer(1000).unwrap();
        let b = c.create_buffer(1000).unwrap();
        c.release(a).unwrap();
        c.release(b).unwrap();
        assert_eq!(c.in_use_bytes(), 0);
        assert_eq!(c.high_water_bytes(), 8000);
    }

    #[test]
    fn buffer_ids_are_recycled() {
        let mut c = ctx();
        let a = c.create_buffer(8).unwrap();
        c.release(a).unwrap();
        let b = c.create_buffer(8).unwrap();
        assert_eq!(a, b, "slot should be recycled");
    }

    #[test]
    fn size_mismatch_rejected() {
        let mut c = ctx();
        let a = c.create_buffer(4).unwrap();
        assert!(matches!(
            c.enqueue_write(a, &[1.0, 2.0]),
            Err(OclError::SizeMismatch {
                expected: 4,
                found: 2
            })
        ));
    }

    #[test]
    fn aliasing_launch_rejected() {
        let mut c = ctx();
        let a = c.create_buffer(4).unwrap();
        assert!(matches!(
            c.launch(&Double, &[a], a, 4),
            Err(OclError::OutputAliasesInput { .. })
        ));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = ctx();
        let a = c.create_buffer(1 << 20).unwrap();
        let t0 = c.clock_seconds();
        c.enqueue_write(a, &vec![0.0; 1 << 20]).unwrap();
        let t1 = c.clock_seconds();
        assert!(t1 > t0);
        let b = c.create_buffer(1 << 20).unwrap();
        c.launch(&Double, &[a], b, 1 << 20).unwrap();
        assert!(c.clock_seconds() > t1);
    }

    #[test]
    fn model_mode_matches_real_counts_and_clock() {
        let both = both_modes(|c, bytes| {
            let a = c.create_buffer(1024).unwrap();
            let b = c.create_buffer(1024).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, &[0.5; 1024]), &[])
                .unwrap();
            c.launch(&Double, &[a], b, 1024).unwrap();
            c.enqueue_read_range_q(QueueId::DEFAULT, b, 0, dst(bytes, &mut [0.0; 1024]), &[])
                .unwrap();
        });
        assert_eq!(both.0.len(), 3, "one write, one launch, one read");
        // The whole-buffer entry points are the same bodies on queue 0.
        let whole = modeled(ExecMode::Real, &|c, _| {
            let a = c.create_buffer(1024).unwrap();
            let b = c.create_buffer(1024).unwrap();
            c.enqueue_write(a, &[0.5; 1024]).unwrap();
            c.launch(&Double, &[a], b, 1024).unwrap();
            assert_eq!(c.enqueue_read(b).unwrap(), vec![1.0; 1024]);
        });
        assert_eq!(whole, both);
    }

    #[test]
    fn model_mode_rejects_data_reads() {
        let mut c = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Model);
        let a = c.create_buffer(4).unwrap();
        assert!(matches!(
            c.enqueue_read(a),
            Err(OclError::InvalidOperation(_))
        ));
        assert!(matches!(
            c.enqueue_read_range_q(QueueId::DEFAULT, a, 0, (&mut [0.0; 4][..]).into(), &[]),
            Err(OclError::InvalidOperation(_))
        ));
        assert!(matches!(c.peek(a), Err(OclError::InvalidOperation(_))));
        assert_eq!(c.report().events.len(), 0);
    }

    #[test]
    fn real_mode_rejects_virtual_writes() {
        // …and data-less reads: a Real context asked to move bytes the host
        // side does not have refuses in both directions, before the fault
        // plan is consulted and before anything is recorded.
        use crate::fault::{FaultKind, FaultPlan};
        let mut c = ctx();
        let plan = FaultPlan::with_seed(1);
        c.set_fault_plan(plan.clone());
        let qs = c.acquire_queues(1);
        let a = c.create_buffer(4).unwrap();
        c.enqueue_write(a, &[1.0; 4]).unwrap();
        let (events, clock, draws) = (
            c.report().events.len(),
            c.clock_seconds().to_bits(),
            plan.ops_seen(FaultKind::Transfer),
        );
        for queue in [QueueId::DEFAULT, qs[0]] {
            assert!(matches!(
                c.enqueue_write_q(queue, a, HostEnd::<&[f32]>::absent(4), &[]),
                Err(OclError::InvalidOperation(_))
            ));
            assert!(matches!(
                c.enqueue_read_range_q(queue, a, 0, HostEnd::absent(4), &[]),
                Err(OclError::InvalidOperation(_))
            ));
        }
        assert_eq!(c.report().events.len(), events);
        assert_eq!(c.clock_seconds().to_bits(), clock);
        assert_eq!(plan.ops_seen(FaultKind::Transfer), draws);
        assert_eq!(c.peek(a).unwrap(), vec![1.0; 4], "contents untouched");
    }

    #[test]
    fn reset_profile_keeps_allocations() {
        let mut c = ctx();
        let a = c.create_buffer(256).unwrap();
        c.enqueue_write(a, &[0.0; 256]).unwrap();
        c.reset_profile();
        assert_eq!(c.report().events.len(), 0);
        assert_eq!(c.clock_seconds(), 0.0);
        assert_eq!(c.in_use_bytes(), 1024);
        assert_eq!(
            c.high_water_bytes(),
            1024,
            "high water reseeds from live bytes"
        );
    }

    #[test]
    fn fresh_never_written_buffer_reads_as_zeros() {
        let mut c = ctx();
        let a = c.create_buffer(16).unwrap();
        assert_eq!(c.peek(a).unwrap(), vec![0.0; 16]);
        assert_eq!(c.enqueue_read(a).unwrap(), vec![0.0; 16]);
        // Unwritten kernel inputs also read as zeros inside the kernel.
        let b = c.create_buffer(16).unwrap();
        c.launch(&Double, &[a], b, 16).unwrap();
        assert_eq!(c.enqueue_read(b).unwrap(), vec![0.0; 16]);
    }

    #[test]
    fn pooled_storage_never_leaks_previous_contents() {
        let mut c = ctx();
        c.set_pooling(true);
        let a = c.create_buffer(4).unwrap();
        c.enqueue_write(a, &[9.0, 9.0, 9.0, 9.0]).unwrap();
        c.release(a).unwrap();
        // Same lane count → pool hit reusing the storage written above.
        let b = c.create_buffer(4).unwrap();
        assert_eq!(c.pool_hits(), 1);
        assert_eq!(c.enqueue_read(b).unwrap(), vec![0.0; 4]);
        // …and reused as an unwritten kernel input it reads as zeros too.
        c.release(b).unwrap();
        let inp = c.create_buffer(4).unwrap();
        let out = c.create_buffer(4).unwrap();
        c.launch(&Double, &[inp], out, 4).unwrap();
        assert_eq!(c.enqueue_read(out).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn pooling_recycles_buffer_ids_and_storage() {
        let mut c = ctx();
        c.set_pooling(true);
        let a = c.create_buffer(256).unwrap();
        c.release(a).unwrap();
        assert_eq!(c.pooled_bytes(), 1024);
        let b = c.create_buffer(256).unwrap();
        assert_eq!(a, b, "slot id recycled under pooling");
        assert_eq!(c.pool_hits(), 1);
        assert_eq!(c.pooled_bytes(), 0);
        // A different size misses the pool.
        let d = c.create_buffer(128).unwrap();
        assert_eq!(c.pool_hits(), 1);
        c.release(b).unwrap();
        c.release(d).unwrap();
        // Disabling pooling drops parked storage.
        c.set_pooling(false);
        assert_eq!(c.pooled_bytes(), 0);
    }

    #[test]
    fn high_water_identical_with_pooling_on_and_off() {
        let pass = |pooling: bool| -> (u64, u64, usize) {
            let mut c = ctx();
            c.set_pooling(pooling);
            let a = c.create_buffer(1024).unwrap();
            let b = c.create_buffer(1024).unwrap();
            c.enqueue_write(a, &[1.0; 1024]).unwrap();
            c.launch(&Double, &[a], b, 1024).unwrap();
            drop(c.enqueue_read(b).unwrap());
            c.release(a).unwrap();
            c.release(b).unwrap();
            // Second cycle: pooled run reuses both slots.
            let a = c.create_buffer(1024).unwrap();
            let b = c.create_buffer(1024).unwrap();
            c.enqueue_write(a, &[2.0; 1024]).unwrap();
            c.launch(&Double, &[a], b, 1024).unwrap();
            drop(c.enqueue_read(b).unwrap());
            c.release(a).unwrap();
            c.release(b).unwrap();
            (
                c.high_water_bytes(),
                c.in_use_bytes(),
                c.report().events.len(),
            )
        };
        let (hw_off, use_off, ev_off) = pass(false);
        let (hw_on, use_on, ev_on) = pass(true);
        assert_eq!(hw_off, hw_on, "high water must not see the pool");
        assert_eq!(use_off, use_on);
        assert_eq!(use_on, 0, "pooled bytes are not in_use");
        assert_eq!(ev_off, ev_on);
    }

    #[test]
    fn model_mode_pooling_matches_real_counts_and_clock() {
        let (events, _, high_water, fault_draws) = both_modes(|c, bytes| {
            c.set_pooling(true);
            for _ in 0..3 {
                let a = c.create_buffer(512).unwrap();
                let b = c.create_buffer(512).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, &[0.5; 512]), &[])
                    .unwrap();
                c.launch(&Double, &[a], b, 512).unwrap();
                c.enqueue_read_range_q(QueueId::DEFAULT, b, 0, dst(bytes, &mut [0.0; 512]), &[])
                    .unwrap();
                c.release(a).unwrap();
                c.release(b).unwrap();
            }
            assert_eq!(c.pool_hits(), 4, "cycles 2 and 3 reuse both slots");
            // A prefix write into a larger recycled buffer: the lanes moved
            // are what is modeled, and the stale tail reads as zeros.
            let qs = c.acquire_queues(1);
            let a = c.create_buffer(512).unwrap();
            let b = c.create_buffer(512).unwrap();
            let mut out = [0.0f32; 100];
            let up = c
                .enqueue_write_q(qs[0], a, src(bytes, &[3.0; 100]), &[])
                .unwrap();
            let k = c.launch_q(qs[0], &Double, &[a], b, 100, &[up]).unwrap();
            c.enqueue_read_range_q(qs[0], b, 0, dst(bytes, &mut out), &[k])
                .unwrap();
            if bytes {
                assert_eq!(out, [6.0; 100]);
                let tail = &c.peek(a).unwrap()[100..];
                assert!(tail.iter().all(|&v| v == 0.0), "no stale contents");
            }
        });
        let moved: Vec<u64> = events[9..].iter().map(|e| e.2).collect();
        assert_eq!(moved, [400, 800, 400]);
        assert_eq!(high_water, 2 * 512 * 4);
        assert_eq!(fault_draws[4], 6, "one stale_slot draw per pool hit");
    }

    #[test]
    fn shared_host_ends_are_modeled_like_borrowed_slices() {
        // One script, the uploads' host ends either borrowed slices or
        // shared arrays: pooled cycles, a whole-buffer write over a slot
        // that already holds an array, a prefix write (which copies, shared
        // or not), a launch *into* a buffer that holds an adopted array.
        // Everything modeled — events, clocks, bytes, high-water mark,
        // fault-plan draws — and the pool counters must be the same four
        // ways: Real and Model, borrowed and shared.
        let script = |share: bool| {
            move |c: &mut Context, bytes: bool| {
                let whole = SharedArray::from(vec![0.5f32; 512]);
                let part = SharedArray::from(vec![3.0f32; 100]);
                let up = |c: &mut Context, q: QueueId, id: BufferId, data: &SharedArray| {
                    if share {
                        c.enqueue_write_q(q, id, shared_src(bytes, data), &[])
                    } else {
                        c.enqueue_write_q(q, id, src(bytes, data), &[])
                    }
                    .unwrap()
                };
                c.set_pooling(true);
                for _ in 0..3 {
                    let a = c.create_buffer(512).unwrap();
                    let b = c.create_buffer(512).unwrap();
                    up(c, QueueId::DEFAULT, a, &whole);
                    up(c, QueueId::DEFAULT, a, &whole);
                    c.launch(&Double, &[a], b, 512).unwrap();
                    c.enqueue_read_range_q(
                        QueueId::DEFAULT,
                        b,
                        0,
                        dst(bytes, &mut [0.0; 512]),
                        &[],
                    )
                    .unwrap();
                    c.release(a).unwrap();
                    c.release(b).unwrap();
                }
                let qs = c.acquire_queues(1);
                let a = c.create_buffer(512).unwrap();
                let b = c.create_buffer(512).unwrap();
                up(c, qs[0], b, &whole);
                let t = up(c, qs[0], a, &part);
                let k = c.launch_q(qs[0], &Double, &[a], b, 100, &[t]).unwrap();
                let mut out = [0.0f32; 512];
                c.enqueue_read_range_q(qs[0], b, 0, dst(bytes, &mut out), &[k])
                    .unwrap();
                if bytes {
                    // The launch wrote private storage, not the host's array.
                    assert_eq!(out[..100], [6.0; 100]);
                    assert_eq!(out[100..], [0.5; 412], "lanes the kernel left alone");
                    assert_eq!(whole[..], [0.5; 512]);
                    assert_eq!(c.peek(a).unwrap()[100..], [0.0; 412]);
                }
                assert_eq!(c.pool_hits(), 6);
                assert_eq!(c.pooled_bytes(), 0);
                c.release(a).unwrap();
                c.release(b).unwrap();
                assert_eq!(c.pooled_bytes(), 2 * 512 * 4);
                assert_eq!(c.in_use_bytes(), 0);
                // Copied bytes are the one reading that tells the two
                // apart: downloads always, uploads only when not adopted.
                let (downloads, prefix) = (4 * 512 * 4, 100 * 4);
                let copied = match (bytes, share) {
                    (false, _) => 0,
                    (true, true) => downloads + prefix,
                    (true, false) => downloads + prefix + 7 * 512 * 4,
                };
                assert_eq!(c.report().host_bytes_copied, copied);
            }
        };
        let borrowed = both_modes(script(false));
        assert_eq!(both_modes(script(true)), borrowed);
        assert_eq!(borrowed.2, 2 * 512 * 4);
    }

    #[test]
    fn compile_events_excluded_from_device_seconds() {
        let mut c = ctx();
        c.record_compile("fused_q_crit").unwrap();
        let r = c.report();
        assert_eq!(r.count(EventKind::KernelCompile), 1);
        assert_eq!(r.device_seconds(), 0.0);
        assert!(r.seconds(EventKind::KernelCompile) > 0.0);
    }

    #[test]
    fn independent_queues_overlap_on_the_virtual_clock() {
        let mut c = ctx();
        let qs = c.acquire_queues(2);
        let a = c.create_buffer(1 << 16).unwrap();
        let b = c.create_buffer(1 << 16).unwrap();
        let data = vec![1.0f32; 1 << 16];
        // Two independent uploads on different queues: same start time.
        let ta = c.enqueue_write_q(qs[0], a, host(&data), &[]).unwrap();
        let tb = c.enqueue_write_q(qs[1], b, host(&data), &[]).unwrap();
        assert_eq!(ta.virt_start().to_bits(), tb.virt_start().to_bits());
        assert_eq!(ta.virt_end().to_bits(), tb.virt_end().to_bits());
        let r = c.report();
        assert!(r.makespan_seconds() < r.device_seconds());
        assert_eq!(r.events[0].queue, qs[0].index());
        assert_eq!(r.events[1].queue, qs[1].index());
        // The global clock is the max frontier, not the sum.
        assert_eq!(c.clock_seconds().to_bits(), ta.virt_end().to_bits());
    }

    #[test]
    fn dependency_tokens_order_across_queues() {
        let mut c = ctx();
        let qs = c.acquire_queues(2);
        let a = c.create_buffer(64).unwrap();
        let b = c.create_buffer(64).unwrap();
        let up = c.enqueue_write_q(qs[0], a, host(&[3.0; 64]), &[]).unwrap();
        // Kernel on another queue must wait for the upload.
        let k = c.launch_q(qs[1], &Double, &[a], b, 64, &[up]).unwrap();
        assert!(k.virt_start() >= up.virt_end());
        assert_eq!(k.virt_start().to_bits(), up.virt_end().to_bits());
        // Download of the result waits for the kernel, reads a range
        // directly into the destination slice.
        let mut out = vec![0.0f32; 32];
        let d = c
            .enqueue_read_range_q(qs[0], b, 16, (&mut out[..]).into(), &[k])
            .unwrap();
        assert_eq!(d.virt_start().to_bits(), k.virt_end().to_bits());
        assert_eq!(out, vec![6.0; 32]);
    }

    #[test]
    fn legacy_operations_are_queue_barriers() {
        let mut c = ctx();
        let qs = c.acquire_queues(1);
        let a = c.create_buffer(64).unwrap();
        let t = c.enqueue_write_q(qs[0], a, host(&[1.0; 64]), &[]).unwrap();
        // A legacy (default-queue) op starts at the global frontier …
        let b = c.create_buffer(64).unwrap();
        c.enqueue_write(b, &[2.0; 64]).unwrap();
        let legacy_end = c.clock_seconds();
        assert!(legacy_end > t.virt_end());
        // … and the auxiliary queue cannot start before it finished.
        let t2 = c.enqueue_write_q(qs[0], a, host(&[3.0; 64]), &[]).unwrap();
        assert_eq!(t2.virt_start().to_bits(), legacy_end.to_bits());
    }

    #[test]
    fn prefix_write_zero_fills_tail_and_models_moved_bytes() {
        let mut c = ctx();
        let qs = c.acquire_queues(1);
        let a = c.create_buffer(8).unwrap();
        c.enqueue_write_q(qs[0], a, host(&[5.0; 3]), &[]).unwrap();
        assert_eq!(
            c.peek(a).unwrap(),
            vec![5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
        let r = c.report();
        assert_eq!(r.bytes(EventKind::HostToDevice), 12, "3 lanes moved");
        // Over-long writes are rejected.
        assert!(matches!(
            c.enqueue_write_q(qs[0], a, host(&[0.0; 9]), &[]),
            Err(OclError::SizeMismatch { .. })
        ));
        // Out-of-bounds range reads are rejected — including a window whose
        // end does not fit in a `usize`.
        let mut dst = [0.0f32; 4];
        for offset in [6, usize::MAX] {
            assert!(matches!(
                c.enqueue_read_range_q(qs[0], a, offset, (&mut dst[..]).into(), &[]),
                Err(OclError::SizeMismatch { expected: 8, .. })
            ));
        }
    }

    #[test]
    fn queued_model_mode_matches_real_bitwise() {
        let (events, queue_clocks, _, _) = both_modes(|c, bytes| {
            let qs = c.acquire_queues(3);
            let a = c.create_buffer(4096).unwrap();
            let b = c.create_buffer(4096).unwrap();
            let mut out = vec![0.0f32; 2048];
            let mut deps: Vec<EventToken> = Vec::new();
            for slab in 0..4 {
                let up = c
                    .enqueue_write_q(qs[0], a, src(bytes, &[1.0; 2048]), &deps)
                    .unwrap();
                let k = c.launch_q(qs[1], &Double, &[a], b, 2048, &[up]).unwrap();
                let down = c
                    .enqueue_read_range_q(qs[2], b, slab % 2, dst(bytes, &mut out), &[k])
                    .unwrap();
                deps = vec![down];
            }
            // Barriers between queued operations: a default-queue launch
            // starts at the frontier and holds back the queued download
            // issued behind it, whatever that download's own dependencies.
            let up = c
                .enqueue_write_q(qs[0], a, src(bytes, &[2.0; 4096]), &deps)
                .unwrap();
            c.launch(&Double, &[a], b, 4096).unwrap();
            let barrier_end = c.clock_seconds();
            let down = c
                .enqueue_read_range_q(qs[2], b, 64, dst(bytes, &mut out), &[up])
                .unwrap();
            assert_eq!(down.virt_start().to_bits(), barrier_end.to_bits());
            if bytes {
                assert_eq!(out, vec![4.0; 2048]);
            }
            c.enqueue_read_range_q(QueueId::DEFAULT, a, 0, dst(bytes, &mut [0.0; 4096]), &[])
                .unwrap();
        });
        let queues: Vec<usize> = events[12..].iter().map(|e| e.5).collect();
        assert_eq!(queues, [1, 0, 3, 0]);
        // The closing default-queue read left all four queues at the frontier.
        assert_eq!(queue_clocks, [queue_clocks[0]; 4]);
    }

    #[test]
    fn acquire_queues_rebases_to_the_frontier_and_survives_reset() {
        let mut c = ctx();
        let qs = c.acquire_queues(2);
        let a = c.create_buffer(64).unwrap();
        c.enqueue_write_q(qs[1], a, host(&[1.0; 64]), &[]).unwrap();
        // Re-acquiring rebases the (now trailing) first queue to the
        // frontier set by the second queue's upload.
        let frontier = c.clock_seconds();
        let qs2 = c.acquire_queues(2);
        assert_eq!(qs, qs2, "same ids are reused");
        let t = c.enqueue_write_q(qs2[0], a, host(&[2.0; 64]), &[]).unwrap();
        assert_eq!(t.virt_start().to_bits(), frontier.to_bits());
        assert!(t.virt_start() > 0.0);
        // reset_profile zeroes every queue clock.
        c.reset_profile();
        let t0 = c.enqueue_write_q(qs2[1], a, host(&[3.0; 64]), &[]).unwrap();
        assert_eq!(t0.virt_start().to_bits(), 0f64.to_bits());
    }

    #[test]
    fn faulted_queued_op_records_nothing_and_leaves_clocks_untouched() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut c = ctx();
        let plan = FaultPlan::with_seed(7);
        plan.fail_nth_from_now(FaultKind::Transfer, 1, 1);
        c.set_fault_plan(plan);
        let qs = c.acquire_queues(1);
        let a = c.create_buffer(64).unwrap();
        let before = c.clock_seconds();
        match c.enqueue_write_q(qs[0], a, host(&[1.0; 64]), &[]) {
            Err(OclError::TransferFailed { transient, .. }) => assert!(transient),
            other => panic!("expected transfer fault, got {other:?}"),
        }
        assert_eq!(c.report().events.len(), 0);
        assert_eq!(c.clock_seconds().to_bits(), before.to_bits());
        // The retried op succeeds and starts where the queue left off.
        let t = c.enqueue_write_q(qs[0], a, host(&[1.0; 64]), &[]).unwrap();
        assert_eq!(t.virt_start().to_bits(), before.to_bits());
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::tests::{ctx, Double};
    use super::*;
    use crate::DeviceProfile;

    #[test]
    fn injected_failure_hits_the_requested_allocation() {
        let mut c = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        c.fail_alloc_in(3);
        assert!(c.create_buffer(8).is_ok());
        assert!(c.create_buffer(8).is_ok());
        assert!(matches!(
            c.create_buffer(8),
            Err(OclError::OutOfMemory { .. })
        ));
        // One-shot: subsequent allocations succeed again.
        assert!(c.create_buffer(8).is_ok());
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_shot_injection_rejected() {
        let mut c = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        c.fail_alloc_in(0);
    }

    #[test]
    fn transfer_launch_and_compile_faults_surface_typed_errors() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut c = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let plan = FaultPlan::with_seed(1);
        plan.fail_nth_from_now(FaultKind::Transfer, 1, 1);
        plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
        plan.fail_nth_from_now(FaultKind::Compile, 1, 1);
        c.set_fault_plan(plan);
        let a = c.create_buffer(4).unwrap();
        let b = c.create_buffer(4).unwrap();
        match c.enqueue_write(a, &[1.0; 4]) {
            Err(OclError::TransferFailed { transient, .. }) => assert!(transient),
            other => panic!("expected transfer fault, got {other:?}"),
        }
        // Transient: the re-issued transfer succeeds.
        c.enqueue_write(a, &[1.0; 4]).unwrap();
        match c.launch(&Double, &[a], b, 4) {
            Err(OclError::LaunchFailed { transient, .. }) => assert!(transient),
            other => panic!("expected launch fault, got {other:?}"),
        }
        c.launch(&Double, &[a], b, 4).unwrap();
        match c.record_compile("fused") {
            Err(OclError::CompileFailed { transient, .. }) => assert!(!transient),
            other => panic!("expected compile fault, got {other:?}"),
        }
        c.record_compile("fused").unwrap();
    }

    #[test]
    fn pool_eviction_makes_headroom_before_oom() {
        let mut c = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Model);
        c.set_pooling(true);
        let cap_lanes = (c.profile().global_mem_bytes / 4) as usize;
        let big = cap_lanes * 6 / 10;
        let a = c.create_buffer(big).unwrap();
        c.release(a).unwrap();
        assert_eq!(c.pooled_bytes(), big as u64 * 4);
        // A different lane count misses the pool; without eviction the
        // parked slot would leave no headroom for this allocation.
        let b = c.create_buffer(big + 1).unwrap();
        assert_eq!(c.pool_evictions(), 1, "parked slot evicted under pressure");
        assert_eq!(c.pooled_bytes(), 0);
        c.release(b).unwrap();
    }

    #[test]
    fn trim_pool_frees_parked_bytes_and_counts_evictions() {
        let mut c = ctx();
        c.set_pooling(true);
        let a = c.create_buffer(64).unwrap();
        let b = c.create_buffer(32).unwrap();
        c.release(a).unwrap();
        c.release(b).unwrap();
        assert_eq!(c.trim_pool(), (64 + 32) * 4);
        assert_eq!(c.pool_evictions(), 2);
        assert_eq!(c.pooled_bytes(), 0);
        assert_eq!(c.trim_pool(), 0, "second trim is a no-op");
    }

    #[test]
    fn rollback_releases_only_buffers_created_since_the_mark() {
        let mut c = ctx();
        let keep = c.create_buffer(16).unwrap();
        c.enqueue_write(keep, &[7.0; 16]).unwrap();
        let mark = c.alloc_mark();
        assert_eq!(mark.in_use_bytes(), 64);
        let _t1 = c.create_buffer(8).unwrap();
        let _t2 = c.create_buffer(8).unwrap();
        assert_eq!(c.in_use_bytes(), 64 + 64);
        let reclaimed = c.rollback(&mark);
        assert_eq!(reclaimed, 64);
        assert_eq!(c.in_use_bytes(), mark.in_use_bytes());
        // The marked buffer survives with its contents intact.
        assert_eq!(c.peek(keep).unwrap(), vec![7.0; 16]);
        // Rollback is idempotent.
        assert_eq!(c.rollback(&mark), 0);
    }

    #[test]
    fn rollback_parks_storage_when_pooling() {
        let mut c = ctx();
        c.set_pooling(true);
        let mark = c.alloc_mark();
        let _t = c.create_buffer(128).unwrap();
        c.rollback(&mark);
        assert_eq!(c.in_use_bytes(), 0);
        assert_eq!(c.pooled_bytes(), 512, "rolled-back storage is parked");
        let again = c.create_buffer(128).unwrap();
        assert_eq!(c.pool_hits(), 1);
        c.release(again).unwrap();
    }
}

#[cfg(test)]
mod integrity_tests {
    use super::tests::{both_modes, ctx, src, Double};
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::integrity::{IntegrityKind, VerifyPolicy};
    use crate::DeviceProfile;

    #[test]
    fn verify_buffer_learns_on_write_and_detects_a_flipped_bit() {
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Residents);
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write(a, &[1.5; 16]).unwrap();
        c.verify_buffer(a).unwrap();
        c.debug_flip_bit(a, 7, 3);
        match c.verify_buffer(a) {
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Checksum,
                buffer,
                ..
            }) => assert_eq!(buffer, a.index()),
            other => panic!("expected checksum violation, got {other:?}"),
        }
        let stats = c.integrity_stats();
        assert_eq!(stats.checks, 2);
        assert_eq!(stats.violations, 1);
        // Healing is a re-upload: the sum is relearned and the buffer
        // verifies clean again.
        c.enqueue_write(a, &[1.5; 16]).unwrap();
        c.verify_buffer(a).unwrap();
        assert_eq!(c.enqueue_read(a).unwrap(), vec![1.5; 16]);
    }

    #[test]
    fn broken_guard_zone_is_a_guard_violation() {
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Residents);
        let a = c.create_buffer(8).unwrap();
        c.enqueue_write(a, &[2.0; 8]).unwrap();
        c.debug_poke_guard(a);
        match c.verify_buffer(a) {
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Guard,
                ..
            }) => {}
            other => panic!("expected guard violation, got {other:?}"),
        }
        // The payload itself is untouched by the guard overwrite.
        assert_eq!(c.peek(a).unwrap(), vec![2.0; 8]);
    }

    #[test]
    fn verification_off_or_model_mode_is_vacuous() {
        let mut c = ctx();
        let a = c.create_buffer(4).unwrap();
        c.enqueue_write(a, &[1.0; 4]).unwrap();
        c.debug_flip_bit(a, 0, 0);
        c.verify_buffer(a).unwrap(); // Off: no sum learned, nothing checked
        assert_eq!(c.integrity_stats().checks, 0);

        let mut m = Context::new(DeviceProfile::nvidia_m2050(), ExecMode::Model);
        m.set_verify(VerifyPolicy::Full);
        let b = m.create_buffer(4).unwrap();
        m.verify_buffer(b).unwrap();
        assert_eq!(m.integrity_stats().checks, 0);
    }

    #[test]
    fn stale_slot_fault_is_caught_at_pool_handout_and_quarantined() {
        let mut c = ctx();
        c.set_pooling(true);
        c.set_verify(VerifyPolicy::Residents);
        let plan = FaultPlan::with_seed(11);
        plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
        c.set_fault_plan(plan);
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write(a, &[9.0; 16]).unwrap();
        c.release(a).unwrap();
        match c.create_buffer(16) {
            Err(
                e @ OclError::IntegrityViolation {
                    kind: IntegrityKind::StaleSlot,
                    ..
                },
            ) => assert!(e.is_transient() && e.is_integrity()),
            other => panic!("expected stale-slot violation, got {other:?}"),
        }
        assert_eq!(c.integrity_stats().violations, 1);
        // The tainted slot was quarantined: the retried allocation gets a
        // fresh slot that reads as zeros.
        let again = c.create_buffer(16).unwrap();
        assert_eq!(c.enqueue_read(again).unwrap(), vec![0.0; 16]);
    }

    #[test]
    fn stale_slot_without_verification_leaks_previous_contents() {
        // The injection is real: with verification off, the stale hand-out
        // goes undetected and the old owner's data is visible — exactly the
        // silent corruption the checksum layer exists to catch.
        let mut c = ctx();
        c.set_pooling(true);
        let plan = FaultPlan::with_seed(11);
        plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
        c.set_fault_plan(plan);
        let a = c.create_buffer(16).unwrap();
        c.enqueue_write(a, &[9.0; 16]).unwrap();
        c.release(a).unwrap();
        let b = c.create_buffer(16).unwrap();
        assert_eq!(c.enqueue_read(b).unwrap(), vec![9.0; 16]);
    }

    #[test]
    fn mem_flip_fault_is_detected_at_launch_under_full_and_heals_on_rewrite() {
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Full);
        let plan = FaultPlan::with_seed(3);
        plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
        c.set_fault_plan(plan);
        let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let a = c.create_buffer(32).unwrap();
        let b = c.create_buffer(32).unwrap();
        c.enqueue_write(a, &input).unwrap();
        match c.launch(&Double, &[a], b, 32) {
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Checksum,
                buffer,
                ..
            }) => assert_eq!(buffer, a.index()),
            other => panic!("expected checksum violation, got {other:?}"),
        }
        // Heal: re-upload the tainted input; the retried launch succeeds
        // and the result is bit-identical to a fault-free run.
        c.enqueue_write(a, &input).unwrap();
        c.launch(&Double, &[a], b, 32).unwrap();
        let out = c.enqueue_read(b).unwrap();
        let expect: Vec<f32> = input.iter().map(|v| v * 2.0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn integrity_of_an_adopted_input_mem_flip_is_detected_and_never_reaches_the_host() {
        // The same fault, the same detection and the same heal as for a
        // copied input — and the array the host still holds is untouched,
        // because the flip first gave the slot storage of its own.
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Full);
        // The flipped bit follows the plan's seed: `DFG_FAULT_SEED` in CI's
        // integrity matrix, the fixed default otherwise.
        c.set_fault_plan(FaultPlan::parse("mem_flip@1").unwrap());
        let host: SharedArray = (0..32).map(|i| i as f32).collect::<Vec<_>>().into();
        let before: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        let a = c.create_buffer(32).unwrap();
        let b = c.create_buffer(32).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
            .unwrap();
        assert_eq!(c.report().host_bytes_copied, 0, "adopted, not copied");
        match c.launch(&Double, &[a], b, 32) {
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Checksum,
                buffer,
                ..
            }) => assert_eq!(buffer, a.index()),
            other => panic!("expected checksum violation, got {other:?}"),
        }
        let after: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            after, before,
            "the host's array is not the device's to flip"
        );
        let device: Vec<u32> = c.peek(a).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_ne!(device, before, "the flip landed in the slot's own storage");
        // Heal: the re-upload adopts the clean array again.
        c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
            .unwrap();
        c.launch(&Double, &[a], b, 32).unwrap();
        let expect: Vec<f32> = host.iter().map(|v| v * 2.0).collect();
        assert_eq!(c.enqueue_read(b).unwrap(), expect);
    }

    #[test]
    fn integrity_of_an_adopted_buffer_survives_every_device_side_write() {
        // Debug flips, guard pokes, pool poisoning and a launch into the
        // buffer: each is observable on the device side exactly as on a
        // copied buffer, none of them through the host's handle.
        let host = SharedArray::from(vec![1.5f32; 16]);
        let adopt = |c: &mut Context| {
            let a = c.create_buffer(16).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, a, (&host).into(), &[])
                .unwrap();
            a
        };
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Residents);
        c.set_pooling(true);
        c.debug_set_poison(true);

        let a = adopt(&mut c);
        c.verify_buffer(a).unwrap();
        c.debug_flip_bit(a, 7, 3);
        assert!(matches!(
            c.verify_buffer(a),
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Checksum,
                ..
            })
        ));
        c.release(a).unwrap();

        let a = adopt(&mut c);
        c.debug_poke_guard(a);
        assert!(matches!(
            c.verify_buffer(a),
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Guard,
                ..
            })
        ));
        assert_eq!(c.peek(a).unwrap(), vec![1.5; 16]);
        // Releasing an adopted slot parks it without storage: nothing of
        // the host's to poison, nothing stale to hand out.
        let a2 = adopt(&mut c);
        c.release(a2).unwrap();
        let fresh = c.create_buffer(16).unwrap();
        assert_eq!(c.enqueue_read(fresh).unwrap(), vec![0.0; 16]);

        // A launch whose output is an adopted buffer writes its own storage.
        let input = adopt(&mut c);
        let output = adopt(&mut c);
        c.launch(&Double, &[input], output, 16).unwrap();
        assert_eq!(c.enqueue_read(output).unwrap(), vec![3.0; 16]);

        assert_eq!(host[..], [1.5; 16]);
        let mut host = host;
        drop(c);
        assert!(host.get_mut().is_some(), "every slot let go of its handle");
    }

    #[test]
    fn mem_flip_without_verification_silently_corrupts_results() {
        let run = |flip: bool| -> Vec<u32> {
            let mut c = ctx();
            if flip {
                let plan = FaultPlan::with_seed(3);
                plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
                c.set_fault_plan(plan);
            }
            let input: Vec<f32> = (0..32).map(|i| i as f32 + 0.5).collect();
            let a = c.create_buffer(32).unwrap();
            let b = c.create_buffer(32).unwrap();
            c.enqueue_write(a, &input).unwrap();
            c.launch(&Double, &[a], b, 32).unwrap();
            c.enqueue_read(b)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_ne!(run(true), run(false), "undetected flip changes the bits");
    }

    #[test]
    fn silent_faults_draw_in_model_mode_but_are_inert() {
        // Both silent kinds fire in both modes; with no storage to corrupt
        // (Model) or no verification to notice (Real), neither changes the
        // modeled state, and the draw counters advance in lockstep.
        let (_, _, _, fault_draws) = both_modes(|c, bytes| {
            let plan = c.fault_plan().expect("harness installs one").clone();
            plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
            plan.fail_nth_from_now(FaultKind::StaleSlot, 1, 1);
            c.set_pooling(true);
            let a = c.create_buffer(8).unwrap();
            c.release(a).unwrap();
            let a = c.create_buffer(8).unwrap();
            let b = c.create_buffer(8).unwrap();
            c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, &[1.0; 8]), &[])
                .unwrap();
            c.launch(&Double, &[a], b, 8).unwrap();
            assert_eq!(plan.total_fired(), 2);
        });
        assert_eq!(fault_draws, [3, 1, 1, 1, 1], "counter parity");
    }

    #[test]
    fn full_verification_leaves_results_events_and_clock_bit_identical() {
        let run = |policy: VerifyPolicy| {
            let mut c = ctx();
            c.set_verify(policy);
            let input: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
            let a = c.create_buffer(64).unwrap();
            let b = c.create_buffer(64).unwrap();
            c.enqueue_write(a, &input).unwrap();
            c.launch(&Double, &[a], b, 64).unwrap();
            let out: Vec<u32> = c
                .enqueue_read(b)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (out, c.report().events.len(), c.clock_seconds().to_bits())
        };
        assert_eq!(run(VerifyPolicy::Off), run(VerifyPolicy::Full));
    }

    #[test]
    fn poisoned_pool_reuse_still_reads_zeros_and_computes_identically() {
        let run = |poison: bool| -> Vec<u32> {
            let mut c = ctx();
            c.set_pooling(true);
            c.debug_set_poison(poison);
            let a = c.create_buffer(16).unwrap();
            c.enqueue_write(a, &[4.0; 16]).unwrap();
            c.release(a).unwrap();
            // Reused slot: unwritten lanes must read as zeros whether the
            // release poisoned the storage or not.
            let b = c.create_buffer(16).unwrap();
            assert_eq!(c.enqueue_read(b).unwrap(), vec![0.0; 16]);
            let out = c.create_buffer(16).unwrap();
            c.launch(&Double, &[b], out, 16).unwrap();
            c.enqueue_read(out)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod in_place_tests {
    use super::tests::{both_modes, ctx, shared_src, src, Double};
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use std::cell::RefCell;

    /// An element-wise binary kernel that honours in-place launches.
    struct Ew(fn(f32, f32) -> f32);

    impl DeviceKernel for Ew {
        fn name(&self) -> String {
            "ew".into()
        }
        fn cost(&self, n: usize) -> KernelCost {
            KernelCost {
                bytes_read: 8 * n as u64,
                bytes_written: 4 * n as u64,
                flops: n as u64,
            }
        }
        fn in_place(&self) -> bool {
            true
        }
        fn run(&self, args: KernelArgs<'_>) {
            let (a, b) = (args.operand(0), args.operand(1));
            for (t, o) in args.output[..args.n].iter_mut().enumerate() {
                *o = (self.0)(a.map_or(*o, |a| a[t]), b.map_or(*o, |b| b[t]));
            }
        }
    }

    const MUL: Ew = Ew(|a, b| a * b);
    const ADD: Ew = Ew(|a, b| a + b);
    const SUB: Ew = Ew(|a, b| a - b);

    /// `r = u*u + u` with `u` an adopted host array, then `(v - r) - (v - r)`
    /// style steps with a copied `v`: donors on the left, on the right and on
    /// both sides; an adopted operand dying beside a donor. Real and Model
    /// record the same events, clocks, high-water mark and fault draws (the
    /// harness) and the same pool counters, with pooling off and on; only
    /// the Real run ever computes in place, and never over `u`'s array.
    #[test]
    fn donation_moves_storage_and_nothing_the_model_counts() {
        let n = 37;
        let host = SharedArray::from((0..n).map(|i| i as f32 - 5.5).collect::<Vec<_>>());
        let before: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        let v: Vec<f32> = (0..n).map(|i| 0.25 * i as f32).collect();
        for pooling in [false, true] {
            let seen = RefCell::new(Vec::new());
            both_modes(|c, bytes| {
                c.set_pooling(pooling);
                let (a, b) = (c.create_buffer(n).unwrap(), c.create_buffer(n).unwrap());
                c.enqueue_write_q(QueueId::DEFAULT, a, shared_src(bytes, &host), &[])
                    .unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, b, src(bytes, &v), &[])
                    .unwrap();
                let t = c.create_buffer(n).unwrap();
                c.launch(&MUL, &[a, a], t, n).unwrap();
                let mut flags = Vec::new();
                let mut step = |c: &mut Context, k: &Ew, inputs: &[BufferId], dying: &[_]| {
                    let out = c.create_buffer(n).unwrap();
                    let placement = c.launch_then_release(k, inputs, out, n, dying).unwrap();
                    flags.push(placement == Placement::InPlace);
                    out
                };
                let r = step(c, &ADD, &[t, a], &[t, a]); // t donates, u's array never
                let s = step(c, &SUB, &[b, r], &[r]); // a donor on the right
                let d = step(c, &SUB, &[s, s], &[s]); // t - t on a dying t
                let q = step(c, &SUB, &[d, b], &[d, b]); // donor on the left
                if bytes {
                    let want: Vec<u32> = (0..n)
                        .map(|i| {
                            let u = host[i];
                            let s = v[i] - (u * u + u);
                            ((s - s) - v[i]).to_bits()
                        })
                        .collect();
                    let got: Vec<u32> = c.peek(q).unwrap().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want);
                }
                c.release(q).unwrap();
                assert_eq!(c.in_use_bytes(), 0);
                let counters = (c.pool_hits(), c.pooled_bytes());
                seen.borrow_mut().push((bytes, flags, counters));
            });
            let seen = seen.into_inner();
            let (real, model) = (&seen[0], &seen[1]);
            assert_eq!(real.1, [true; 4], "pooling {pooling}: real donates");
            assert_eq!(model.1, [false; 4], "a model context has no storage");
            assert_eq!(real.2, model.2, "pooling {pooling}: pool counters");
        }
        let mut host = host;
        assert!(host.get_mut().is_some(), "every slot let go of u's array");
        let after: Vec<u32> = host.iter().map(|v| v.to_bits()).collect();
        assert_eq!(after, before, "u's array is bit-identical");
    }

    /// A kernel that does not declare itself in place, an operand narrower
    /// than the output, a dying buffer that is no operand and an adopted
    /// array are all released without donating; a failed launch releases
    /// nothing, and its dying operand is still intact for the retry.
    #[test]
    fn donation_only_where_the_contract_allows_and_never_on_failure() {
        let mut c = ctx();
        let a = c.create_buffer(8).unwrap();
        c.enqueue_write(a, &[3.0; 8]).unwrap();
        let out = c.create_buffer(8).unwrap();
        let own = Ok(Placement::Own);
        assert_eq!(c.launch_then_release(&Double, &[a], out, 8, &[a]), own);
        assert_eq!(c.peek(out).unwrap(), vec![6.0; 8]);

        let (narrow, other) = (c.create_buffer(4).unwrap(), c.create_buffer(8).unwrap());
        c.enqueue_write(narrow, &[1.0; 4]).unwrap();
        c.enqueue_write(other, &[1.0; 8]).unwrap();
        let wide = c.create_buffer(8).unwrap();
        let dying = [narrow, other];
        let placement = c.launch_then_release(&ADD, &[narrow, narrow], wide, 4, &dying);
        assert_eq!(placement, own);

        let host = SharedArray::from(vec![2.0f32; 8]);
        let adopted = c.create_buffer(8).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, adopted, (&host).into(), &[])
            .unwrap();
        let sum = c.create_buffer(8).unwrap();
        let placement = c.launch_then_release(&ADD, &[adopted, out], sum, 8, &[adopted]);
        assert_eq!(placement, own);
        assert_eq!(c.peek(sum).unwrap(), vec![8.0; 8]);

        let plan = FaultPlan::with_seed(0);
        plan.fail_nth_from_now(FaultKind::Launch, 1, 1);
        c.set_fault_plan(plan);
        let in_use = c.in_use_bytes();
        let next = c.create_buffer(8).unwrap();
        let err = c.launch_then_release(&ADD, &[out, sum], next, 8, &[out, sum]);
        assert!(matches!(err, Err(OclError::LaunchFailed { .. })));
        assert_eq!(c.in_use_bytes(), in_use + 32, "nothing released");
        assert_eq!(c.peek(out).unwrap(), vec![6.0; 8], "the donor is intact");
        let placement = c.launch_then_release(&ADD, &[out, sum], next, 8, &[out, sum]);
        assert_eq!(placement, Ok(Placement::InPlace));
        assert_eq!(c.peek(next).unwrap(), vec![14.0; 8]);
    }

    /// `decompose`'s shape: output plane `k` of a four-plane operand.
    pub(super) struct Lane(pub(super) usize);

    impl DeviceKernel for Lane {
        fn name(&self) -> String {
            format!("lane{}", self.0)
        }
        fn cost(&self, n: usize) -> KernelCost {
            KernelCost {
                bytes_read: 4 * n as u64,
                bytes_written: 4 * n as u64,
                flops: 0,
            }
        }
        fn view(&self, n: usize) -> Option<Range<usize>> {
            Some(self.0 * n..(self.0 + 1) * n)
        }
        fn run(&self, args: KernelArgs<'_>) {
            args.output[..args.n].copy_from_slice(&args.inputs[0][self.0 * args.n..][..args.n]);
        }
    }

    /// The storage a view shares, if `id` is one.
    pub(super) fn block_of(c: &Context, id: BufferId) -> Option<*const Vec<f32>> {
        match &c.slots[id.0].as_ref()?.data {
            Some(Storage::View(block, _)) => Some(Arc::as_ptr(block)),
            _ => None,
        }
    }

    pub(super) const N: usize = 6;

    /// Four planes of `N` lanes, no two lanes equal.
    pub(super) fn planes() -> Vec<f32> {
        (0..4 * N).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    pub(super) fn bits(lanes: &[f32]) -> Vec<u32> {
        lanes.iter().map(|v| v.to_bits()).collect()
    }

    /// A view shares its plane of the operand. A flip through it — the
    /// write a `mem_flip` makes — lands in a copy of its own, so neither the
    /// operand nor a sibling view sees it, and verification names the view;
    /// so does an injected `mem_flip` on either operand of a launch, which a
    /// fresh view of the clean operand heals.
    #[test]
    fn a_write_through_a_view_is_copied_first_and_never_reaches_its_siblings() {
        let (p_bits, plane) = (bits(&planes()), |k: usize| bits(&planes()[k * N..][..N]));
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Full);
        let p = c.create_buffer(4 * N).unwrap();
        c.enqueue_write(p, &planes()).unwrap();
        let view = |c: &mut Context, k: usize| {
            let v = c.create_buffer(N).unwrap();
            assert_eq!(c.launch(&Lane(k), &[p], v, N), Ok(()));
            assert!(block_of(c, v).is_some() && block_of(c, v) == block_of(c, p));
            v
        };
        let views = [0, 1, 2, 3].map(|k| view(&mut c, k));
        for (k, &v) in views.iter().enumerate() {
            assert_eq!(bits(&c.peek(v).unwrap()), plane(k));
        }
        c.debug_flip_bit(views[1], 2, 7);
        assert_eq!(block_of(&c, views[1]), None, "the flip copied the plane");
        let mut flipped = plane(1);
        flipped[2] ^= 1 << 7;
        assert_eq!(bits(&c.peek(views[1]).unwrap()), flipped);
        assert_eq!(bits(&c.peek(p).unwrap()), p_bits);
        for k in [0, 2, 3] {
            assert_eq!(bits(&c.peek(views[k]).unwrap()), plane(k));
            c.verify_buffer(views[k]).unwrap();
        }
        c.verify_buffer(p).unwrap();
        assert!(matches!(
            c.verify_buffer(views[1]),
            Err(OclError::IntegrityViolation { buffer, .. }) if buffer == views[1].index()
        ));

        let mut victims = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let (a, b) = (view(&mut c, 0), view(&mut c, 2));
            let plan = FaultPlan::with_seed(seed);
            plan.fail_nth_from_now(FaultKind::MemFlip, 1, 1);
            c.set_fault_plan(plan);
            let out = c.create_buffer(N).unwrap();
            let victim = match c.launch(&ADD, &[a, b], out, N) {
                Err(OclError::IntegrityViolation { buffer, .. }) => buffer,
                other => panic!("seed {seed}: expected a detected flip, got {other:?}"),
            };
            victims.insert(usize::from(victim == b.index()));
            assert_eq!(bits(&c.peek(p).unwrap()), p_bits, "seed {seed}");
            let (tainted, clean) = if victim == a.index() { (a, b) } else { (b, a) };
            assert_eq!(block_of(&c, tainted), None);
            assert_eq!(block_of(&c, clean), block_of(&c, p));
            c.clear_fault_plan();
            c.release(tainted).unwrap();
            let healed = view(&mut c, if tainted == a { 0 } else { 2 });
            let inputs = if tainted == a {
                [healed, b]
            } else {
                [a, healed]
            };
            c.launch(&ADD, &inputs, out, N).unwrap();
            let want: Vec<u32> = (0..N)
                .map(|t| (planes()[t] + planes()[2 * N + t]).to_bits())
                .collect();
            assert_eq!(bits(&c.peek(out).unwrap()), want, "seed {seed}");
            for id in [inputs[0], inputs[1], out] {
                c.release(id).unwrap();
            }
        }
        assert_eq!(victims.len(), 2, "both operands were hit");
    }

    /// While another slot holds a view's storage — its operand, or a
    /// sibling on any plane — a dying view is copied on write: the launch
    /// counts as in place and the others keep their bits. The last holder is
    /// written where it lies. Real and Model record the same events, clocks,
    /// high-water mark and fault draws (the harness), and the same `in_use`
    /// and pool counters, with pooling off and on; only Real shares or
    /// donates.
    #[test]
    fn a_view_is_written_where_it_lies_only_as_the_sole_holder_of_its_storage() {
        let p_bits = bits(&planes());
        let plane = |k: usize| planes()[k * N..][..N].to_vec();
        let xs: Vec<f32> = (0..N).map(|i| 100.0 + i as f32).collect();
        for pooling in [false, true] {
            let seen = RefCell::new(Vec::new());
            both_modes(|c, bytes| {
                c.set_pooling(pooling);
                let p = c.create_buffer(4 * N).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, p, src(bytes, &planes()), &[])
                    .unwrap();
                let x = c.create_buffer(N).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, x, src(bytes, &xs), &[])
                    .unwrap();
                let mut placements = Vec::new();
                let mut launch =
                    |c: &mut Context, k: &dyn DeviceKernel, inputs: &[_], dying: &[_]| {
                        let out = c.create_buffer(N).unwrap();
                        placements.push(c.launch_then_release(k, inputs, out, N, dying).unwrap());
                        out
                    };
                let v1 = launch(c, &Lane(1), &[p], &[]);
                let s = launch(c, &ADD, &[v1, x], &[v1]);
                if bytes {
                    assert_eq!(bits(&c.peek(p).unwrap()), p_bits, "the operand's plane");
                    assert_eq!(block_of(c, s), None, "a copy of its own");
                }
                let (v0, v2, w2) = (
                    launch(c, &Lane(0), &[p], &[]),
                    launch(c, &Lane(2), &[p], &[]),
                    launch(c, &Lane(2), &[p], &[]),
                );
                c.release(p).unwrap();
                let u = launch(c, &MUL, &[v2, w2], &[v2]);
                if bytes {
                    assert_eq!(block_of(c, u), None, "v0 and w2 hold the storage");
                    assert_eq!(c.peek(w2).unwrap(), plane(2));
                    assert_eq!(c.peek(v0).unwrap(), plane(0));
                    let want: Vec<f32> = plane(2).iter().map(|v| v * v).collect();
                    assert_eq!(c.peek(u).unwrap(), want);
                }
                let block = block_of(c, v0);
                c.release(w2).unwrap();
                let t = launch(c, &SUB, &[v0, x], &[v0]);
                if bytes {
                    assert!(
                        block.is_some() && block_of(c, t) == block,
                        "written where it lies"
                    );
                    let want: Vec<f32> = (0..N).map(|i| plane(0)[i] - xs[i]).collect();
                    assert_eq!(c.peek(t).unwrap(), want);
                }
                for id in [x, s, t, u] {
                    c.release(id).unwrap();
                }
                assert_eq!(c.in_use_bytes(), 0);
                let counters = (c.pool_hits(), c.pooled_bytes());
                seen.borrow_mut().push((placements, counters));
            });
            let seen = seen.into_inner();
            let (real, model) = (&seen[0], &seen[1]);
            use Placement::{InPlace, Own, View};
            assert_eq!(real.0, [View, InPlace, View, View, View, InPlace, InPlace]);
            assert_eq!(model.0, [Own; 7], "a model context has no storage");
            assert_eq!(real.1, model.1, "pooling {pooling}: pool counters");
        }
    }

    /// A launch never views an adopted host array: it copies the plane into
    /// storage of the output's own, which a flip and a donation then write
    /// without reaching the host.
    #[test]
    fn an_adopted_array_is_never_viewed() {
        let host = SharedArray::from(planes());
        let mut c = ctx();
        let p = c.create_buffer(4 * N).unwrap();
        c.enqueue_write_q(QueueId::DEFAULT, p, (&host).into(), &[])
            .unwrap();
        let v = c.create_buffer(N).unwrap();
        let placement = c.launch_then_release(&Lane(1), &[p], v, N, &[p]);
        assert_eq!(placement, Ok(Placement::Own));
        assert_eq!(block_of(&c, v), None);
        assert_eq!(c.peek(v).unwrap(), planes()[N..2 * N]);
        c.debug_flip_bit(v, 0, 31);
        let out = c.create_buffer(N).unwrap();
        let placement = c.launch_then_release(&MUL, &[v, v], out, N, &[v]);
        assert_eq!(placement, Ok(Placement::InPlace));
        assert_eq!(bits(&host), bits(&planes()));
        drop(c);
        let mut host = host;
        assert!(host.get_mut().is_some(), "every slot let go of the array");
    }
}

#[cfg(test)]
mod read_and_release_tests {
    use super::in_place_tests::{bits, planes, Lane, N};
    use super::tests::{both_modes, ctx, dst, shared_src, src, Double};
    use super::*;
    use crate::integrity::{IntegrityKind, VerifyPolicy};
    use std::cell::RefCell;

    fn doubled(lanes: &[f32]) -> Vec<f32> {
        lanes.iter().map(|v| v * 2.0).collect()
    }

    /// A buffer's last read, either as [`Context::read_and_release`] or as a
    /// ranged read into a fresh `Vec` and a release: what the host gets.
    fn last_read(
        c: &mut Context,
        consume: bool,
        bytes: bool,
        id: BufferId,
        planes: usize,
    ) -> Option<Vec<f32>> {
        if consume {
            return c.read_and_release(id, planes).unwrap();
        }
        let mut out = vec![0.0; c.slot(id).unwrap().lanes];
        c.enqueue_read_range_q(QueueId::DEFAULT, id, 0, dst(bytes, &mut out), &[])
            .unwrap();
        c.release(id).unwrap();
        bytes.then(|| interleave(&out, planes))
    }

    /// The last read of a private, written scalar buffer on a context that
    /// does not pool hands the storage over: the `Vec` holds exactly the
    /// slot's lanes, nothing is copied, and the slot is gone. What is
    /// modeled — events, clocks, high-water mark, fault draws — and `in_use`
    /// are those of a read and a release, Real and Model alike.
    #[test]
    fn a_last_read_hands_over_the_storage_and_models_a_read_and_a_release() {
        let input: Vec<f32> = (0..37).map(|i| i as f32 - 3.5).collect();
        let seen = RefCell::new(Vec::new());
        let script = |consume: bool| {
            let (input, seen) = (&input, &seen);
            move |c: &mut Context, bytes: bool| {
                let (a, b) = (c.create_buffer(37).unwrap(), c.create_buffer(37).unwrap());
                c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, input), &[])
                    .unwrap();
                c.launch(&Double, &[a], b, 37).unwrap();
                let copied = c.host_bytes_copied();
                let data = last_read(c, consume, bytes, b, 1);
                assert_eq!(data, bytes.then(|| doubled(input)));
                assert!(matches!(c.release(b), Err(OclError::InvalidBuffer { .. })));
                let in_use = c.in_use_bytes();
                c.release(a).unwrap();
                let copied = c.host_bytes_copied() - copied;
                seen.borrow_mut().push((consume, bytes, in_use, copied));
            }
        };
        assert_eq!(both_modes(script(true)), both_modes(script(false)));
        let four_bytes = 37 * 4;
        assert_eq!(
            seen.into_inner(),
            [
                (true, true, four_bytes, 0),
                (true, false, four_bytes, 0),
                (false, true, four_bytes, four_bytes),
                (false, false, four_bytes, 0),
            ]
        );
    }

    /// What a last read must copy — a scalar on a pooled context, a vector
    /// value, a view and an adopted array — it copies: the host gets the
    /// same lanes and the same copied bytes as from a read and a release, a
    /// parked slot serves the next allocation, which reads as zeros and
    /// computes, and the viewed operand and the host's array keep their
    /// bits. Everything modeled, `in_use` and the pool counters are the same
    /// four ways: Real and Model, consuming or not.
    #[test]
    fn a_last_read_copies_what_the_context_may_not_give_away() {
        let host = SharedArray::from(planes()[N..2 * N].to_vec());
        let seen = RefCell::new(Vec::new());
        let script = |consume: bool| {
            let (host, seen) = (&host, &seen);
            move |c: &mut Context, bytes: bool| {
                c.set_pooling(true);
                let scalar = &planes()[..N];
                let a = c.create_buffer(N).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, a, src(bytes, scalar), &[])
                    .unwrap();
                let mut got = Vec::new();
                for _ in 0..2 {
                    let s = c.create_buffer(N).unwrap();
                    if bytes {
                        assert_eq!(c.peek(s).unwrap(), [0.0; N], "no stale lanes");
                    }
                    c.launch(&Double, &[a], s, N).unwrap();
                    got.push(last_read(c, consume, bytes, s, 1));
                }
                let p = c.create_buffer(4 * N).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, p, src(bytes, &planes()), &[])
                    .unwrap();
                let v = c.create_buffer(N).unwrap();
                let placement = c.launch_then_release(&Lane(2), &[p], v, N, &[]).unwrap();
                assert_eq!(placement == Placement::View, bytes);
                got.push(last_read(c, consume, bytes, v, 1));
                if bytes {
                    assert_eq!(bits(&c.peek(p).unwrap()), bits(&planes()));
                }
                got.push(last_read(c, consume, bytes, p, 4));
                let x = c.create_buffer(N).unwrap();
                c.enqueue_write_q(QueueId::DEFAULT, x, shared_src(bytes, host), &[])
                    .unwrap();
                got.push(last_read(c, consume, bytes, x, 1));
                c.release(a).unwrap();
                assert_eq!(c.in_use_bytes(), 0);
                if bytes {
                    let want = [
                        doubled(scalar),
                        doubled(scalar),
                        planes()[2 * N..3 * N].to_vec(),
                        interleave(&planes(), 4),
                        host.to_vec(),
                    ];
                    assert_eq!(got, want.map(Some));
                }
                let counters = (c.pool_hits(), c.pooled_bytes(), c.host_bytes_copied());
                seen.borrow_mut().push((bytes, counters));
            }
        };
        assert_eq!(both_modes(script(true)), both_modes(script(false)));
        let seen = seen.into_inner();
        let [real, model, real_read, model_read] = &seen[..] else {
            panic!("four runs")
        };
        assert_eq!(real, real_read, "copied as a read and a release");
        assert_eq!(model, model_read);
        assert_eq!(
            (real.1 .0, real.1 .1),
            (model.1 .0, model.1 .1),
            "pool counters"
        );
        assert!(real.1 .0 >= 3, "parked slots were reused");
        let uploads = (N + 4 * N) as u64 * 4;
        let reads = (N + N + N + 4 * N + N) as u64 * 4;
        assert_eq!(real.1 .2, uploads + reads);
        drop(seen);
        let mut host = host;
        assert!(host.get_mut().is_some(), "every slot let go of the array");
    }

    /// Under [`VerifyPolicy::Full`] a flipped bit in a result is caught by
    /// the read, before the storage could go to the host: the slot stays
    /// live for the caller to heal, no transfer is recorded, and the healed
    /// result is handed over with clean bits.
    #[test]
    fn a_flipped_result_is_caught_before_it_is_handed_over() {
        let input: Vec<f32> = (0..N).map(|i| i as f32 + 0.25).collect();
        let mut c = ctx();
        c.set_verify(VerifyPolicy::Full);
        let (a, b) = (c.create_buffer(N).unwrap(), c.create_buffer(N).unwrap());
        c.enqueue_write(a, &input).unwrap();
        c.launch(&Double, &[a], b, N).unwrap();
        c.debug_flip_bit(b, 3, 9);
        let in_use = c.in_use_bytes();
        match c.read_and_release(b, 1) {
            Err(OclError::IntegrityViolation {
                kind: IntegrityKind::Checksum,
                buffer,
                ..
            }) => assert_eq!(buffer, b.index()),
            other => panic!("expected a checksum violation, got {other:?}"),
        }
        assert_eq!(c.in_use_bytes(), in_use, "nothing released");
        assert_eq!(c.report().count(EventKind::DeviceToHost), 0);
        c.launch(&Double, &[a], b, N).unwrap();
        let copied = c.host_bytes_copied();
        let healed = c.read_and_release(b, 1).unwrap().unwrap();
        assert_eq!(bits(&healed), bits(&doubled(&input)));
        assert_eq!(c.host_bytes_copied(), copied, "handed over");
        assert_eq!(c.integrity_stats().violations, 1);
    }
}
