//! Where a buffer's bytes live: the slot table and pool, guard lanes and
//! checksums, and DESIGN.md D7–D11 — adoption, donation, views, hand-over and
//! write-once outputs. [`Context`](crate::Context) keeps what the model
//! counts, so nothing here moves an event, a modeled byte or the clock; the
//! host bytes copied, zero-filled and hashed are counted here.

use crate::context::{BufferId, DeviceKernel, KernelArgs, LaunchArgs, Placement};
use crate::error::OclError;
use crate::host::{interleave, SharedArray, UploadSource};
use crate::integrity::{checksum_f32s, splitmix64, IntegrityKind, BUFFER_SUM_SEED};
use crate::lanes::{first_unwritten, write_once, UNWRITTEN};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Guard lanes behind a slot's payload, filled with a sentinel: a write past
/// the payload breaks it and is reported as an [`IntegrityKind::Guard`]
/// violation when the slot is next verified or handed out of the pool. The
/// payload comes first (safe code cannot write ahead of lane 0), so storage
/// goes to the host by truncating the guards. A slot's bytes — every byte
/// counter, the high-water mark, the pool — cover the payload alone.
const GUARD_LANES: usize = 8;

/// Sentinel bit pattern filling the guard lanes.
const GUARD_WORD: u32 = 0xF0E1_D2C3;

/// Written over a released slot's payload when [`Slots::poison`] is on: a
/// path relying on recycled contents reads loud garbage, not stale data.
const POISON_WORD: u32 = 0xDEAD_BEEF;

/// What backs a materialized slot.
enum Storage {
    /// Private storage: the payload, then `GUARD_LANES` sentinel lanes.
    Owned(Vec<f32>),
    /// The host's own array, adopted by a whole-buffer upload, and whether
    /// its sum is due: no guard lanes and no mutable view, so
    /// [`Slots::owned_mut`] copies it before anything writes and learns a
    /// due sum then (D7).
    Shared(SharedArray, bool),
    /// Lanes `at..at + lanes` of guarded storage that other slots may view
    /// too: a [`Placement::View`] output and its operand (D9). A write copies
    /// the lanes first ([`Slots::owned_mut`]); only a launch writes a view
    /// where it lies, into the last handle to it ([`Slots::private`]).
    View(Arc<Vec<f32>>, usize),
}

/// One buffer's storage and what is known of its contents.
struct Slot {
    /// Backing storage; `None` in model mode, and in real mode until the
    /// first write or launch materializes it.
    data: Option<Storage>,
    /// Whether the buffer holds defined contents (a host write or a launch):
    /// unwritten buffers, recycled pool storage included, read as zeros.
    written: bool,
    /// Checksum of the payload's bits, learned at the last host write (and,
    /// under `verify=full`, at every launch); `None` when verification is
    /// off, contents are undefined or the sum is due ([`Storage::Shared`]).
    sum: Option<u64>,
    /// Total f32 lanes (elements × width) of the payload.
    lanes: usize,
}

/// Fresh guarded storage, written once: `prefix`, zeros to `lanes`, guards.
fn alloc_storage(prefix: &[f32], lanes: usize) -> Vec<f32> {
    let mut buf = Vec::with_capacity(lanes + GUARD_LANES);
    buf.extend_from_slice(prefix);
    buf.resize(lanes, 0.0);
    buf.resize(lanes + GUARD_LANES, f32::from_bits(GUARD_WORD));
    buf
}

impl Slot {
    /// The payload view of materialized storage.
    fn payload(&self) -> Option<&[f32]> {
        self.data.as_ref().map(|d| match d {
            Storage::Owned(d) => &d[..self.lanes],
            Storage::Shared(array, _) => &array[..],
            Storage::View(block, at) => &block[*at..at + self.lanes],
        })
    }

    /// A copy of the contents as `planes` planes in the host's layout (see
    /// [`interleave`]); zeros for a slot without defined contents.
    fn copy_out(&self, planes: usize) -> Vec<f32> {
        match self.payload().filter(|_| self.written) {
            Some(payload) => interleave(payload, planes),
            None => vec![0.0; self.lanes],
        }
    }

    /// Whether every guard lane still carries the sentinel (vacuously for
    /// no storage or an adopted array, which nothing on the device writes);
    /// a view answers for the storage it shares.
    fn guards_intact(&self) -> bool {
        let d: &[f32] = match &self.data {
            None | Some(Storage::Shared(..)) => return true,
            Some(Storage::Owned(d)) => d,
            Some(Storage::View(block, _)) => block,
        };
        d[d.len() - GUARD_LANES..]
            .iter()
            .all(|v| v.to_bits() == GUARD_WORD)
    }
}

/// Every buffer's storage: the slot table indexed by [`BufferId`], and the
/// pool of released slots. A method that takes a [`BufferId`] expects one
/// the context has validated ([`Slots::lanes`]).
#[derive(Default)]
pub(crate) struct Slots {
    table: Vec<Option<Slot>>,
    free_ids: Vec<usize>,
    /// Released slots kept for reuse, keyed by lane count (see
    /// [`Context::set_pooling`](crate::Context::set_pooling)).
    pool: HashMap<usize, Vec<Slot>>,
    pooling: bool,
    pub(crate) pool_hits: u64,
    pub(crate) pooled_bytes: u64,
    pub(crate) pool_evictions: u64,
    pub(crate) poison: bool,
    /// Host bytes copied, zero-filled and hashed: `ProfileReport::host_bytes_*`.
    pub(crate) copied: u64,
    pub(crate) zeroed: u64,
    pub(crate) hashed: u64,
}

impl Slots {
    fn live(&self, id: BufferId) -> &Slot {
        self.table[id.0].as_ref().expect("a validated buffer")
    }

    fn live_mut(&mut self, id: BufferId) -> &mut Slot {
        self.table[id.0].as_mut().expect("a validated buffer")
    }

    /// `id`'s payload lanes: the one validation of a handle.
    pub(crate) fn lanes(&self, id: BufferId) -> Result<usize, OclError> {
        (self.table.get(id.0))
            .and_then(Option::as_ref)
            .map(|slot| slot.lanes)
            .ok_or(OclError::InvalidBuffer { id: id.0 })
    }

    /// Which slot indices hold a live buffer.
    pub(crate) fn live_ids(&self) -> Vec<bool> {
        self.table.iter().map(Option::is_some).collect()
    }

    /// The index the next allocation gets.
    pub(crate) fn next_id(&self) -> usize {
        self.free_ids.last().copied().unwrap_or(self.table.len())
    }

    fn insert(&mut self, slot: Slot) -> BufferId {
        let idx = self.next_id();
        if self.free_ids.pop().is_some() {
            self.table[idx] = Some(slot);
        } else {
            self.table.push(Some(slot));
        }
        BufferId(idx)
    }

    /// Whether the next allocation of `lanes` lanes is a pool hit.
    pub(crate) fn parked(&self, lanes: usize) -> bool {
        self.pooling && self.pool.get(&lanes).is_some_and(|v| !v.is_empty())
    }

    /// Hand out a parked slot of `lanes` lanes, its storage intact and its
    /// contents cleared — unless `stale`, an injected stale hand-out (inert
    /// without storage). When `check`, a slot that holds contents or broken
    /// guards is quarantined — dropped, never reused — and its violation
    /// returned.
    pub(crate) fn reuse(
        &mut self,
        lanes: usize,
        stale: bool,
        check: bool,
    ) -> Result<BufferId, IntegrityKind> {
        let mut slot = (self.pool.get_mut(&lanes))
            .and_then(Vec::pop)
            .expect("a parked slot");
        self.pool_hits += 1;
        self.pooled_bytes -= slot.lanes as u64 * 4;
        if stale && slot.data.is_some() {
            slot.written = true;
        }
        match (check, slot.written, slot.guards_intact()) {
            (true, true, _) => Err(IntegrityKind::StaleSlot),
            (true, false, false) => Err(IntegrityKind::Guard),
            _ => Ok(self.insert(slot)),
        }
    }

    /// A new slot of `lanes` lanes. Its storage is materialized by the first
    /// write or launch, so create-then-write touches the memory once.
    pub(crate) fn alloc(&mut self, lanes: usize) -> BufferId {
        self.insert(Slot {
            data: None,
            written: false,
            sum: None,
            lanes,
        })
    }

    /// Evict parked slots, largest lane class first, until at most `room`
    /// bytes stay parked.
    pub(crate) fn evict_to(&mut self, room: u64) {
        while self.pooled_bytes > room {
            let lanes = (self.pool.iter())
                .filter(|(_, v)| !v.is_empty())
                .map(|(&lanes, _)| lanes)
                .max()
                .expect("parked bytes are in a non-empty class");
            self.pool.get_mut(&lanes).map(Vec::pop);
            self.pooled_bytes -= lanes as u64 * 4;
            self.pool_evictions += 1;
        }
    }

    /// Release a buffer, returning the bytes it held. A pooled slot keeps
    /// its storage but forgets its contents, so the next owner reads zeros;
    /// an adopted array or a view is not storage to keep, so the slot parks
    /// bare, as a Model slot does, and pool counters cannot tell them apart.
    pub(crate) fn release(&mut self, id: BufferId) -> Result<u64, OclError> {
        let mut slot = (self.table.get_mut(id.0))
            .and_then(Option::take)
            .ok_or(OclError::InvalidBuffer { id: id.0 })?;
        self.free_ids.push(id.0);
        let bytes = slot.lanes as u64 * 4;
        if self.pooling {
            slot.written = false;
            slot.sum = None;
            match slot.data {
                Some(Storage::Owned(ref mut d)) if self.poison => {
                    d[..slot.lanes].fill(f32::from_bits(POISON_WORD));
                }
                Some(Storage::Shared(..) | Storage::View(..)) => slot.data = None,
                _ => {}
            }
            self.pooled_bytes += bytes;
            self.pool.entry(slot.lanes).or_default().push(slot);
        }
        Ok(bytes)
    }

    /// Turn pooling on or off; off drops every parked slot.
    pub(crate) fn set_pooling(&mut self, on: bool) {
        self.pooling = on;
        if !on {
            self.pool.clear();
            self.pooled_bytes = 0;
        }
    }

    /// Drop every parked slot, counting each as an eviction; returns the
    /// bytes freed.
    pub(crate) fn trim_pool(&mut self) -> u64 {
        let freed = self.pooled_bytes;
        self.pool_evictions += self.pool.values().map(|v| v.len() as u64).sum::<u64>();
        self.pool.clear();
        self.pooled_bytes = 0;
        freed
    }

    /// `id`'s private storage, guard lanes included. An adopted array or a
    /// view is first replaced by a private copy of it, so no write made
    /// through a slot can reach host memory or another slot; an adopted
    /// array's due sum is learned then, at its first private copy (D7).
    fn owned_mut(&mut self, id: BufferId) -> Option<&mut Vec<f32>> {
        let slot = self.table[id.0].as_mut().expect("a validated buffer");
        if let Some(Storage::Shared(array, true)) = &slot.data {
            slot.sum = Some(checksum_f32s(BUFFER_SUM_SEED, array));
            self.hashed += array.len() as u64 * 4;
        }
        if let Some(Storage::Shared(..) | Storage::View(..)) = &slot.data {
            let private = alloc_storage(slot.payload().expect("materialized"), slot.lanes);
            slot.data = Some(Storage::Owned(private));
        }
        match &mut slot.data {
            Some(Storage::Owned(d)) => Some(d),
            _ => None,
        }
    }

    /// Write `data` over `id`'s first lanes. In a slot without defined
    /// contents the lanes past them read as zeros afterwards: recycled storage
    /// is cleared, and fresh storage materialized in one pass.
    fn write_prefix(&mut self, id: BufferId, data: &[f32]) {
        let slot = self.live_mut(id);
        let (lanes, written) = (slot.lanes, std::mem::replace(&mut slot.written, true));
        match &mut slot.data {
            Some(Storage::Owned(d)) => {
                d[..data.len()].copy_from_slice(data);
                if !written {
                    d[data.len()..lanes].fill(0.0);
                }
            }
            // Copy on write: the prefix lands on the slot's own copy.
            Some(_) if written && data.len() < lanes => {
                self.owned_mut(id).expect("materialized")[..data.len()].copy_from_slice(data);
            }
            _ => slot.data = Some(Storage::Owned(alloc_storage(data, lanes))),
        }
        if !written {
            self.zeroed += (lanes - data.len()) as u64 * 4;
        }
    }

    /// Learn `id`'s content checksum (an adopted array's is marked due), or
    /// forget it when `learn` is off.
    fn learn(&mut self, id: BufferId, learn: bool) {
        let slot = self.table[id.0].as_mut().expect("a validated buffer");
        slot.sum = None;
        if let Some(Storage::Shared(_, due)) = &mut slot.data {
            *due = learn;
        } else if let Some(payload) = slot.payload().filter(|_| learn) {
            self.hashed += payload.len() as u64 * 4;
            slot.sum = Some(checksum_f32s(BUFFER_SUM_SEED, payload));
        }
    }

    /// Upload `src` over `id`'s first lanes, adopting a whole-buffer
    /// [`SharedArray`] and copying anything else (D7); learn when `learn`.
    pub(crate) fn upload<S: UploadSource>(&mut self, id: BufferId, src: &S, learn: bool) {
        let lanes = self.live(id).lanes;
        match src.shared().filter(|array| array.len() == lanes) {
            Some(array) => {
                let slot = self.live_mut(id);
                slot.data = Some(Storage::Shared(array.clone(), false));
                slot.written = true;
            }
            None => {
                self.write_prefix(id, src.as_ref());
                self.copied += src.as_ref().len() as u64 * 4;
            }
        }
        self.learn(id, learn);
    }

    /// Copy `id`'s lanes from `offset` into `dst`; a never-written range
    /// reads as zeros.
    pub(crate) fn read_into(&mut self, id: BufferId, offset: usize, dst: &mut [f32]) {
        let slot = self.live(id);
        match slot.payload().filter(|_| slot.written) {
            Some(src) => dst.copy_from_slice(&src[offset..offset + dst.len()]),
            None => dst.fill(0.0),
        }
        self.copied += dst.len() as u64 * 4;
    }

    /// A copy of `id`'s contents (zeros if never written), counted as copied.
    pub(crate) fn read(&mut self, id: BufferId) -> Vec<f32> {
        let data = self.peek(id);
        self.copied += data.len() as u64 * 4;
        data
    }

    /// A copy of `id`'s contents, not counted: a diagnostic.
    pub(crate) fn peek(&self, id: BufferId) -> Vec<f32> {
        self.live(id).copy_out(1)
    }

    /// The last read of `id`'s contents as `planes` planes, in the host's
    /// layout (D10): the storage itself when the value is one plane and the
    /// slot holds written storage of its own (a pooled slot then parks
    /// bare), else a copy — a vector value is interleaved, an adopted array
    /// is the host's own and a view shares its storage.
    pub(crate) fn last_read(&mut self, id: BufferId, planes: usize) -> Vec<f32> {
        let slot = self.table[id.0].as_mut().expect("a validated buffer");
        let hand_over = planes == 1 && slot.written;
        match slot.data.take() {
            Some(Storage::Owned(mut storage)) if hand_over => {
                storage.truncate(slot.lanes);
                storage
            }
            data => {
                slot.data = data;
                self.copied += slot.lanes as u64 * 4;
                slot.copy_out(planes)
            }
        }
    }

    /// The violation, if `id`'s guards are broken or its payload no longer
    /// matches its learned sum (a due sum hashes nothing: D7).
    pub(crate) fn check(&mut self, id: BufferId) -> Option<IntegrityKind> {
        let slot = self.table[id.0].as_ref().expect("a validated buffer");
        if !slot.guards_intact() {
            return Some(IntegrityKind::Guard);
        }
        let (expected, payload) = (slot.sum?, slot.payload()?);
        self.hashed += payload.len() as u64 * 4;
        (checksum_f32s(BUFFER_SUM_SEED, payload) != expected).then_some(IntegrityKind::Checksum)
    }

    /// Flip bit `bit % 32` of `id`'s payload lane `lane` in storage of its
    /// own, leaving its learned sum; a no-op where there is no such lane.
    pub(crate) fn flip_bit(&mut self, id: BufferId, lane: usize, bit: u32) {
        let Ok(lanes) = self.lanes(id) else { return };
        if let Some(v) = self.owned_mut(id).and_then(|d| d[..lanes].get_mut(lane)) {
            *v = f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)));
        }
    }

    /// An injected `mem_flip`: one bit, drawn from `h`, of one of
    /// `candidates` that holds written, non-empty storage.
    pub(crate) fn flip_one_bit(&mut self, candidates: &[BufferId], h: u64) {
        let victims: Vec<BufferId> = (candidates.iter().copied())
            .filter(|&id| {
                let slot = self.live(id);
                slot.written && slot.data.is_some() && slot.lanes > 0
            })
            .collect();
        if victims.is_empty() {
            return;
        }
        let victim = victims[(h % victims.len() as u64) as usize];
        let b = splitmix64(h) % (self.live(victim).lanes * 32) as u64;
        self.flip_bit(victim, (b / 32) as usize, (b % 32) as u32);
    }

    /// Overwrite the first guard lane behind `id`'s payload, in storage of
    /// its own (a no-op for a stale handle or unmaterialized storage).
    pub(crate) fn poke_guard(&mut self, id: BufferId) {
        let Ok(lanes) = self.lanes(id) else { return };
        if let Some(d) = self.owned_mut(id) {
            d[lanes] = f32::from_bits(!GUARD_WORD);
        }
    }

    /// Whether no live slot but `id` holds `id`'s storage: storage of its
    /// own, or a view whose operand and siblings are all released. Never an
    /// adopted host array.
    fn private(&self, id: BufferId) -> bool {
        match &self.live(id).data {
            Some(Storage::Owned(_)) => true,
            Some(Storage::View(block, _)) => Arc::strong_count(block) == 1,
            _ => false,
        }
    }

    /// The storage half of a launch of `kernel` over `n` into `output`,
    /// `dying` the operands it reads last (see
    /// [`Context::launch_then_release`](crate::Context::launch_then_release)):
    /// in place over a dying operand (D8), as a view of its operand (D9), or
    /// run ([`Slots::run`]). The output's sum is learned when `learn`.
    pub(crate) fn launch(
        &mut self,
        kernel: &dyn DeviceKernel,
        inputs: &[BufferId],
        output: BufferId,
        n: usize,
        dying: &[BufferId],
        learn: bool,
    ) -> Placement {
        let out_lanes = self.live(output).lanes;
        let donor = dying.iter().copied().find(|&id| {
            let slot = self.live(id);
            kernel.in_place()
                && inputs.contains(&id)
                && slot.lanes == out_lanes
                && matches!(slot.data, Some(Storage::Owned(_) | Storage::View(..)))
        });
        let donor_storage = donor.filter(|&id| self.private(id));
        // Never-written inputs must read as zeros inside the kernel too, so
        // materialize them first (pooled storage may be stale).
        for &id in inputs {
            if !self.live(id).written {
                self.write_prefix(id, &[]);
                self.learn(id, learn);
            }
        }
        if let Some(donor) = donor_storage {
            let Ok([Some(out), Some(donor)]) = self.table.get_disjoint_mut([output.0, donor.0])
            else {
                unreachable!("the output and its donor are distinct live slots");
            };
            std::mem::swap(&mut out.data, &mut donor.data);
        }
        let shared = match (kernel.view(n), inputs.first(), donor) {
            (Some(lanes), Some(&input), None) if lanes.len() == out_lanes => {
                self.share(input, lanes, output)
            }
            _ => false,
        };
        if !shared {
            self.run(kernel, inputs, output, n, donor_storage);
        }
        self.live_mut(output).written = true;
        self.learn(output, learn);
        match (shared, donor) {
            (true, _) => Placement::View,
            (false, Some(_)) => Placement::InPlace,
            (false, None) => Placement::Own,
        }
    }

    /// Make `output` a view of lanes `lanes` of `input`'s storage when that
    /// storage is the device's own (never an adopted host array): private
    /// storage becomes shared by both slots. Returns whether it did.
    fn share(&mut self, input: BufferId, lanes: Range<usize>, output: BufferId) -> bool {
        let src = self.live_mut(input);
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
        self.live_mut(output).data = Some(Storage::View(block, at + lanes.start));
        true
    }

    /// Run `kernel` into `output`'s storage: storage that holds lanes —
    /// pooled, or a private `donor`'s (a view where it lies), whose lanes an
    /// in-place kernel's `run` reads — or else fresh storage, which the
    /// kernel's body writes once (D11). Prior contents are unspecified (as in
    /// OpenCL): nothing clears or copies them (an adopted array or a view is
    /// dropped). The lanes past [`DeviceKernel::unwritten_from`] are zeroed,
    /// and fresh storage's guard lanes written.
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
        let out_slot = self.live_mut(output);
        let lanes = out_slot.lanes;
        let storage = match out_slot.data.take() {
            Some(view @ Storage::View(..)) if donor.is_some() => Some(view),
            Some(Storage::Owned(d)) => Some(Storage::Owned(d)),
            _ => None,
        };
        let input_views: Vec<&[f32]> = (inputs.iter())
            .map(|&id| match self.live(id) {
                _ if Some(id) == donor => &[][..],
                slot => slot.payload().expect("materialized above"),
            })
            .collect();
        let from = kernel.unwritten_from(n).unwrap_or(lanes);
        // A debug build marks every lane the kernel must write — here, or
        // in `write_once` for fresh storage — except an operand's.
        let mark = cfg!(debug_assertions) && donor.is_none();
        let storage = match storage {
            Some(mut storage) => {
                let out = match &mut storage {
                    Storage::Owned(d) => &mut d[..lanes],
                    Storage::View(block, at) => {
                        let d = Arc::get_mut(block).expect("a private view's the only handle");
                        &mut d[*at..*at + lanes]
                    }
                    Storage::Shared(..) => unreachable!("never taken above"),
                };
                if mark {
                    out.fill(f32::from_bits(UNWRITTEN));
                }
                kernel.run(KernelArgs {
                    inputs: &input_views,
                    output: &mut *out,
                    n,
                });
                out[from..].fill(0.0);
                storage
            }
            None => Storage::Owned(write_once(lanes + GUARD_LANES, |out| {
                let (mut payload, mut guards) = out.split_at(lanes);
                guards.fill(f32::from_bits(GUARD_WORD));
                kernel.write(LaunchArgs {
                    inputs: &input_views,
                    output: payload.reborrow(),
                    n,
                });
                payload.slice(from..).fill(0.0);
            })),
        };
        self.zeroed += (lanes - from) as u64 * 4;
        let slot = self.live_mut(output);
        slot.data = Some(storage);
        if mark {
            if let Some(t) = first_unwritten(&slot.payload().expect("just stored")[..from]) {
                panic!(
                    "kernel `{}` left output lane {t} of {from} unwritten (DESIGN.md D11)",
                    kernel.name()
                );
            }
        }
    }
}

#[cfg(test)]
impl Slots {
    /// The storage a view shares, if `id` is one.
    pub(crate) fn view_block(&self, id: BufferId) -> Option<*const Vec<f32>> {
        match &self.table.get(id.0)?.as_ref()?.data {
            Some(Storage::View(block, _)) => Some(Arc::as_ptr(block)),
            _ => None,
        }
    }
}
