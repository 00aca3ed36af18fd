//! The device context: buffer allocator plus profiling command queue.

use crate::error::{OclError, TransferDir};
use crate::event::{Event, EventKind, ProfileReport};
use crate::fault::{FaultKind, FaultPlan};
use crate::host::{HostEnd, UploadSource};
use crate::integrity::{splitmix64, IntegrityStats, VerifyPolicy};
use crate::lanes::OutLanes;
use crate::profile::DeviceProfile;
use crate::storage::Slots;
use crate::ExecMode;
use dfg_trace::Tracer;
use std::ops::Range;

/// Handle to a device global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

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

/// Arguments of [`DeviceKernel::run`]: a kernel run into an `f32` slice.
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

/// Arguments of [`DeviceKernel::write`], the kernel body.
pub struct LaunchArgs<'a> {
    /// Input buffers, in the kernel's declared order.
    pub inputs: &'a [&'a [f32]],
    /// The output lanes, write-only: fresh storage holds nothing on entry.
    pub output: OutLanes<'a>,
    /// Number of mesh elements in this launch (one work-item per element).
    pub n: usize,
}

impl<'a> From<KernelArgs<'a>> for LaunchArgs<'a> {
    fn from(args: KernelArgs<'a>) -> Self {
        LaunchArgs {
            inputs: args.inputs,
            output: args.output.into(),
            n: args.n,
        }
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
    /// The kernel body: a launch over `n` elements stores every output lane
    /// below [`DeviceKernel::unwritten_from`] (all of them, when that is
    /// `None`). That is a contract, not a check (DESIGN.md D11): a launch
    /// into fresh storage publishes those lanes after the body returns, so
    /// a lane the body skips would be read uninitialized. A debug build
    /// marks every lane first and panics on a launch that leaves one.
    fn write(&self, args: LaunchArgs<'_>);
    /// Run the kernel into `args.output`: the body, [`DeviceKernel::write`].
    /// A launch into storage that already holds lanes calls this — pooled
    /// storage, or, computing in place, the storage of an operand that then
    /// is an empty input — so an [`in_place`](DeviceKernel::in_place) kernel
    /// provides its own `run` that reads that operand from `output`.
    fn run(&self, args: KernelArgs<'_>) {
        self.write(args.into());
    }
    /// Whether output lane `t` reads no input lane but `t`, so
    /// [`Context::launch_then_release`] may give the kernel an input's
    /// storage as its output; such a kernel must read [`KernelArgs::operand`]
    /// in [`DeviceKernel::run`].
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
    /// zeros.
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

/// A simulated OpenCL context + in-order command queue with profiling.
///
/// Each operation validates, draws from the fault plan, has a Real context's
/// storage move the bytes, and records its event: only the storage step
/// differs between the modes.
pub struct Context {
    profile: DeviceProfile,
    mode: ExecMode,
    /// Every buffer's storage, the pool and the host bytes they moved.
    slots: Slots,
    in_use: u64,
    high_water: u64,
    /// Global virtual-clock frontier: `max` over all queue clocks.
    clock: f64,
    /// Per-queue ready times. Index 0 is the default queue, whose
    /// operations act as barriers that bring every queue up to `clock`, so
    /// single-queue programs are bit-identical to the pre-multi-queue model.
    queue_clocks: Vec<f64>,
    /// Created with room for more than 1 032 B of events, the largest block
    /// glibc's malloc keeps in its per-thread cache, where a freed block is
    /// never coalesced. A log that doubled up from four events took such
    /// blocks while a derive ran, one of them from the start of an 8 MiB
    /// buffer just freed, and left it cached there: the heap then needed
    /// another 8 MiB for the same buffers (docs/PERFORMANCE.md "Sums of
    /// squares in one pass").
    events: Vec<Event>,
    /// Failure injection: a deterministic, seeded schedule of device faults
    /// consulted at every allocation, transfer, launch, and compile.
    faults: Option<FaultPlan>,
    /// When set, every recorded event also becomes a child span here.
    tracer: Option<Tracer>,
    /// How much integrity verification this context performs (see
    /// [`VerifyPolicy`]). Off by default: no checksums are learned or
    /// checked, preserving pre-integrity behavior bit-for-bit.
    verify: VerifyPolicy,
    /// Verifications performed / violations detected so far (cumulative;
    /// not reset by [`Context::reset_profile`]).
    integrity: IntegrityStats,
}

impl Context {
    /// Create a context on the given device profile.
    pub fn new(profile: DeviceProfile, mode: ExecMode) -> Self {
        Context {
            profile,
            mode,
            slots: Slots::default(),
            in_use: 0,
            high_water: 0,
            clock: 0.0,
            queue_clocks: vec![0.0],
            events: Vec::with_capacity(1 + 1032 / std::mem::size_of::<Event>()),
            faults: None,
            tracer: None,
            verify: VerifyPolicy::Off,
            integrity: IntegrityStats::default(),
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
        self.slots.set_pooling(on);
    }

    /// Allocations served from the pool since creation.
    pub fn pool_hits(&self) -> u64 {
        self.slots.pool_hits
    }

    /// Parked slots dropped to make headroom for live allocations (plus
    /// slots dropped by [`Context::trim_pool`]).
    pub fn pool_evictions(&self) -> u64 {
        self.slots.pool_evictions
    }

    /// Drop every parked pool slot, returning the bytes freed. Recovery
    /// calls this before re-attempting after an `OutOfMemory` so the pool
    /// itself never causes an avoidable failure; dropped slots count as
    /// evictions.
    pub fn trim_pool(&mut self) -> u64 {
        self.slots.trim_pool()
    }

    /// Bytes currently parked in the pool (released, awaiting reuse).
    pub fn pooled_bytes(&self) -> u64 {
        self.slots.pooled_bytes
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
        self.slots.copied
    }

    /// Snapshot the profiling state.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            events: self.events.clone(),
            high_water_bytes: self.high_water,
            host_bytes_copied: self.slots.copied,
            host_bytes_zeroed: self.slots.zeroed,
            host_bytes_hashed: self.slots.hashed,
        }
    }

    /// Clear recorded events and the copied, zeroed and hashed byte counters
    /// and reset the clock (all queues) and high-water mark. Live
    /// allocations are kept (and re-seed the high-water mark).
    pub fn reset_profile(&mut self) {
        self.events.clear();
        (self.slots.copied, self.slots.zeroed, self.slots.hashed) = (0, 0, 0);
        self.clock = 0.0;
        for q in &mut self.queue_clocks {
            *q = 0.0;
        }
        self.high_water = self.in_use;
    }

    /// Allocate a device buffer of `lanes` f32 lanes.
    pub fn create_buffer(&mut self, lanes: usize) -> Result<BufferId, OclError> {
        let (bytes, capacity) = (lanes as u64 * 4, self.profile.global_mem_bytes);
        let id = if self.fault(FaultKind::Alloc).is_some() {
            None
        } else if self.slots.parked(lanes) {
            // A pool hit needs no capacity check. Its stale_slot draw happens
            // in both modes (counter parity); a violation of the allocator's
            // check is transient: the retried allocation gets a fresh slot.
            let stale = self.fault(FaultKind::StaleSlot).is_some();
            let check = self.verify.enabled();
            self.integrity.checks += u64::from(check);
            let reused = self.slots.reuse(lanes, stale, check);
            Some(reused.map_err(|kind| {
                self.integrity.violations += 1;
                let buffer = self.slots.next_id();
                OclError::IntegrityViolation {
                    kind,
                    buffer,
                    offset: 0,
                }
            })?)
        } else {
            // Parked slots occupy device memory too: under pressure they are
            // evicted before a genuinely new allocation gives up.
            self.slots
                .evict_to(capacity.saturating_sub(self.in_use + bytes));
            (self.in_use + bytes <= capacity).then(|| self.slots.alloc(lanes))
        };
        let id = id.ok_or(OclError::OutOfMemory {
            requested: bytes,
            in_use: self.in_use,
            capacity,
        })?;
        self.in_use += bytes;
        self.high_water = self.high_water.max(self.in_use);
        Ok(id)
    }

    /// Release a buffer, returning its bytes to the device's free capacity.
    /// With pooling enabled the backing storage is parked for reuse by a
    /// later same-sized [`Context::create_buffer`] instead of being dropped.
    pub fn release(&mut self, id: BufferId) -> Result<(), OclError> {
        self.in_use -= self.slots.release(id)?;
        Ok(())
    }

    /// Snapshot the set of live buffers, so a failed execution attempt can
    /// be rolled back with [`Context::rollback`].
    pub fn alloc_mark(&self) -> AllocMark {
        AllocMark {
            live: self.slots.live_ids(),
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
        for (idx, live) in self.slots.live_ids().into_iter().enumerate() {
            if live && !mark.contains(BufferId(idx)) {
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
        let cap = self.slots.lanes(id)?;
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
        let lanes = self.slots.lanes(id)?;
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
        Ok(self.slots.read(id))
    }

    /// The last read of a buffer: [`Context::enqueue_read`], then
    /// [`Context::release`]. The buffer holds a value as `planes` equal
    /// planes (a `Vec4` value: four), returned in the host's layout, cell by
    /// cell (see [`interleave`](crate::interleave)); a Model context records
    /// the same transfer and release and returns `None`.
    ///
    /// Because nothing reads the buffer again, a real context may hand its
    /// storage to the host instead of copying it (DESIGN.md D10). Only
    /// storage moves, so the event, bytes, fault draw, [`VerifyPolicy::Full`]
    /// check, clock, `in_use` and pool counters are those of the two calls;
    /// only [`Context::host_bytes_copied`] tells the cases apart. A failed
    /// transfer releases nothing.
    pub fn read_and_release(
        &mut self,
        id: BufferId,
        planes: usize,
    ) -> Result<Option<Vec<f32>>, OclError> {
        let real = self.mode == ExecMode::Real;
        self.read_whole(id, real)?;
        let data = real.then(|| self.slots.last_read(id, planes));
        self.release(id)?;
        Ok(data)
    }

    /// The accounting of a whole-buffer download on the default queue, into
    /// host memory when `bytes`.
    fn read_whole(&mut self, id: BufferId, bytes: bool) -> Result<(), OclError> {
        let whole = HostEnd {
            lanes: self.slots.lanes(id)?,
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
    /// A borrowed slice is copied into the slot's storage; a
    /// [`SharedArray`](crate::SharedArray) covering the whole buffer is
    /// *adopted*: the slot keeps a clone of the handle (DESIGN.md D7).
    pub fn enqueue_write_q<S: UploadSource>(
        &mut self,
        queue: QueueId,
        id: BufferId,
        src: HostEnd<S>,
        deps: &[EventToken],
    ) -> Result<EventToken, OclError> {
        let token = self.transfer(TransferDir::HostToDevice, queue, id, 0, &src, deps)?;
        if let (ExecMode::Real, Some(src)) = (self.mode, &src.data) {
            self.slots.upload(id, src, self.verify.enabled());
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
            self.slots.read_into(id, offset, dst);
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
    /// adopted array, and a view only once its operand and siblings are
    /// released. A dying view that is not private still donates, by copy on
    /// write fused into the kernel's pass. Only storage moves, so `in_use`,
    /// the high-water mark, pool counters and every event are the same.
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

    /// The one launch body: checks, fault draws, verification, the storage
    /// half of the launch on a Real context ([`Slots::launch`]), the event.
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
        for &id in inputs.iter().chain(dying).chain([&output]) {
            self.slots.lanes(id)?;
        }
        if let Some(transient) = self.fault(FaultKind::Launch) {
            return Err(OclError::LaunchFailed {
                kernel: kernel.name(),
                transient,
            });
        }
        // Silent-corruption injection: a mem_flip flips one bit of a written
        // input, its learned checksum deliberately left as it was. The draw
        // happens in both modes (counter parity); the flip needs storage.
        // Victim and bit follow from the plan's seed and the event count, so
        // repeated flips in one run hit distinct, reproducible targets.
        if self.fault(FaultKind::MemFlip).is_some() {
            let seed = self.faults.as_ref().map_or(0, FaultPlan::seed);
            let h = splitmix64(seed ^ splitmix64(self.events.len() as u64 ^ 0x5EED_F11F));
            self.slots.flip_one_bit(inputs, h);
        }
        // Full verification: revalidate every sum-bearing input before the
        // kernel consumes its bits.
        if self.verify == VerifyPolicy::Full {
            for &id in inputs {
                self.verify_buffer(id)?;
            }
        }
        // Only `verify=full` pays a pass per launch to learn the output's
        // checksum. A Model slot has no storage to place.
        let placement = match self.mode {
            ExecMode::Real => {
                let full = self.verify == VerifyPolicy::Full;
                (self.slots).launch(kernel, inputs, output, n, dying, full)
            }
            ExecMode::Model => Placement::Own,
        };
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

    /// Copy out a buffer's contents without recording a transfer event
    /// (testing/diagnostic aid; not part of the modeled protocol). Like
    /// [`Context::enqueue_read`], a never-written buffer peeks as zeros.
    pub fn peek(&self, id: BufferId) -> Result<Vec<f32>, OclError> {
        self.slots.lanes(id)?;
        if self.mode == ExecMode::Model {
            return Err(OclError::InvalidOperation("peek in model mode".into()));
        }
        Ok(self.slots.peek(id))
    }

    /// Revalidate a buffer's integrity: guard zones intact and, when a
    /// content checksum was learned, payload bits still matching it (an
    /// adopted array's check hashes nothing: DESIGN.md D7).
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
        self.slots.lanes(id)?;
        if self.mode == ExecMode::Model || !self.verify.enabled() {
            return Ok(());
        }
        self.integrity.checks += 1;
        let Some(kind) = self.slots.check(id) else {
            return Ok(());
        };
        self.integrity.violations += 1;
        Err(OclError::IntegrityViolation {
            kind,
            buffer: id.0,
            offset: 0,
        })
    }

    /// Corrupt one bit of a buffer's payload without updating its learned
    /// checksum — a test hook for the integrity layer (real mode, written
    /// buffers only; silently a no-op otherwise).
    #[doc(hidden)]
    pub fn debug_flip_bit(&mut self, id: BufferId, lane: usize, bit: u32) {
        self.slots.flip_bit(id, lane, bit);
    }

    /// Overwrite the first guard lane behind a buffer's payload — a test
    /// hook simulating an out-of-bounds write into the allocation (real
    /// mode, materialized buffers only; silently a no-op otherwise).
    #[doc(hidden)]
    pub fn debug_poke_guard(&mut self, id: BufferId) {
        self.slots.poke_guard(id);
    }

    /// Turn pool poisoning on or off — a test hook: from now on a released
    /// slot's payload is overwritten with a loud bit pattern before it is
    /// parked, so a path that relies on recycled contents fails visibly.
    #[doc(hidden)]
    pub fn debug_set_poison(&mut self, on: bool) {
        self.slots.poison = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceProfile, SharedArray};

    /// Doubling kernel shared by the test modules of `context`, those in
    /// `storage/tests/` included.
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
        fn unwritten_from(&self, n: usize) -> Option<usize> {
            Some(n)
        }
        fn write(&self, mut args: LaunchArgs<'_>) {
            for i in 0..args.n {
                args.output.set(i, args.inputs[0][i] * 2.0);
            }
        }
    }

    /// An element-wise binary kernel that honours in-place launches.
    pub(super) struct Ew(fn(f32, f32) -> f32);

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
        fn unwritten_from(&self, n: usize) -> Option<usize> {
            Some(n)
        }
        fn write(&self, args: LaunchArgs<'_>) {
            let [a, b] = [0, 1].map(|i| args.inputs[i]);
            for (t, o) in args.output.slice(..args.n).iter_mut().enumerate() {
                o.set((self.0)(a[t], b[t]));
            }
        }
        fn run(&self, args: KernelArgs<'_>) {
            let (a, b) = (args.operand(0), args.operand(1));
            for (t, o) in args.output[..args.n].iter_mut().enumerate() {
                *o = (self.0)(a.map_or(*o, |a| a[t]), b.map_or(*o, |b| b[t]));
            }
        }
    }

    pub(super) const MUL: Ew = Ew(|a, b| a * b);
    pub(super) const ADD: Ew = Ew(|a, b| a + b);
    pub(super) const SUB: Ew = Ew(|a, b| a - b);

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
        fn unwritten_from(&self, n: usize) -> Option<usize> {
            Some(n)
        }
        fn write(&self, args: LaunchArgs<'_>) {
            (args.output.slice(..args.n))
                .copy_from_slice(&args.inputs[0][self.0 * args.n..][..args.n]);
        }
    }

    /// The storage a view shares, if `id` is one.
    pub(super) fn block_of(c: &Context, id: BufferId) -> Option<*const Vec<f32>> {
        c.slots.view_block(id)
    }

    pub(super) const N: usize = 6;

    /// Four planes of `N` lanes, no two lanes equal.
    pub(super) fn planes() -> Vec<f32> {
        (0..4 * N).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    pub(super) fn bits(lanes: &[f32]) -> Vec<u32> {
        lanes.iter().map(|v| v.to_bits()).collect()
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

    /// Run `script` on a fresh context under an (initially empty) fault plan;
    /// returns the modeled state it left and what it returned.
    fn modeled<T>(mode: ExecMode, script: &dyn Fn(&mut Context, bool) -> T) -> (Modeled, T) {
        use crate::fault::FaultKind::{Alloc, Launch, MemFlip, StaleSlot, Transfer};
        let mut c = Context::new(DeviceProfile::nvidia_m2050(), mode);
        let plan = crate::fault::FaultPlan::with_seed(5);
        c.set_fault_plan(plan.clone());
        let out = script(&mut c, mode == ExecMode::Real);
        let stamp = |e: &Event| {
            let (t0, t1) = (e.t_start.to_bits(), e.t_end.to_bits());
            (e.kind, e.label.clone(), e.bytes, t0, t1, e.queue)
        };
        let modeled = (
            c.events.iter().map(stamp).collect(),
            c.queue_clocks.iter().map(|t| t.to_bits()).collect(),
            c.high_water_bytes(),
            [Alloc, Transfer, Launch, MemFlip, StaleSlot].map(|k| plan.ops_seen(k)),
        );
        (modeled, out)
    }

    /// One script, two modes: `script` runs under [`ExecMode::Real`] and
    /// [`ExecMode::Model`] through the same calls and must leave the same
    /// modeled state, which is returned with what the Real and the Model
    /// run returned.
    pub(super) fn both_modes<T>(script: impl Fn(&mut Context, bool) -> T) -> (Modeled, [T; 2]) {
        let (real, in_real) = modeled(ExecMode::Real, &script);
        let (model, in_model) = modeled(ExecMode::Model, &script);
        assert_eq!(real, model);
        (real, [in_real, in_model])
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
        let (both, _) = both_modes(|c, bytes| {
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
        let (whole, ()) = modeled(ExecMode::Real, &|c, _| {
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
        let ((events, _, high_water, fault_draws), _) = both_modes(|c, bytes| {
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
                    // The launch wrote private storage, not the host's
                    // array, and the lanes its kernel leaves read as zeros.
                    assert_eq!(out[..100], [6.0; 100]);
                    assert_eq!(out[100..], [0.0; 412], "lanes the kernel left");
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
        assert_eq!(borrowed.0 .2, 2 * 512 * 4);
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
        let ((events, queue_clocks, _, _), _) = both_modes(|c, bytes| {
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
        use crate::fault::{FaultKind, FaultPlan};
        let mut c = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let plan = FaultPlan::with_seed(0);
        plan.fail_nth_from_now(FaultKind::Alloc, 3, 1);
        c.set_fault_plan(plan);
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
        use crate::fault::{FaultKind, FaultPlan};
        FaultPlan::with_seed(0).fail_nth_from_now(FaultKind::Alloc, 0, 1);
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

// The storage contracts (DESIGN.md D7–D11), tested through this module's
// public methods: their source sits beside `storage.rs`, and they are
// declared here so each test keeps its path.
#[cfg(test)]
#[path = "storage/tests/integrity.rs"]
mod integrity_tests;

#[cfg(test)]
#[path = "storage/tests/in_place.rs"]
mod in_place_tests;

#[cfg(test)]
#[path = "storage/tests/read_and_release.rs"]
mod read_and_release_tests;

#[cfg(test)]
#[path = "storage/tests/write_once.rs"]
mod write_once_tests;
