//! Device event profiling.
//!
//! §IV-D.1: *"Our framework provides an OpenCL environment interface built on
//! top of PyOpenCL that records and categorizes timing events. … Timings
//! include all host-to-device transfers (transfers of input data), kernel
//! executions, and device-to-host transfers (transfers of output data)."*

/// Categories of device events, matching the columns of the paper's
/// Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Host→device buffer write (Table II "Dev-W").
    HostToDevice,
    /// Device→host buffer read (Table II "Dev-R").
    DeviceToHost,
    /// Kernel execution (Table II "K-Exe").
    KernelExec,
    /// Kernel program compilation. Excluded from device runtime totals, as
    /// in the paper's timing methodology.
    KernelCompile,
}

/// One recorded device event on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Category.
    pub kind: EventKind,
    /// Label (kernel or buffer description).
    pub label: String,
    /// Bytes moved or touched.
    pub bytes: u64,
    /// Virtual-clock start time, seconds.
    pub t_start: f64,
    /// Virtual-clock end time, seconds.
    pub t_end: f64,
    /// Command queue the event executed on. Queue 0 is the default in-order
    /// queue every legacy operation uses; auxiliary queues (overlapped
    /// streaming) get indices ≥ 1 from
    /// [`Context::acquire_queues`](crate::Context::acquire_queues).
    pub queue: usize,
}

impl Event {
    /// Modeled duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Aggregated profiling results for one execution.
///
/// Every enqueue on a [`Context`](crate::Context) records an [`Event`];
/// the report aggregates them by [`EventKind`] into the paper's Table II
/// counts and Figure 5 device runtime:
///
/// ```
/// use dfg_ocl::{Event, EventKind, ProfileReport};
///
/// let report = ProfileReport {
///     events: vec![
///         Event { kind: EventKind::KernelCompile, label: "fused_mag".into(),
///                 bytes: 0, t_start: 0.0, t_end: 0.09, queue: 0 },
///         Event { kind: EventKind::HostToDevice, label: "u".into(),
///                 bytes: 4096, t_start: 0.09, t_end: 0.10, queue: 0 },
///         Event { kind: EventKind::KernelExec, label: "fused_mag".into(),
///                 bytes: 8192, t_start: 0.10, t_end: 0.13, queue: 0 },
///         Event { kind: EventKind::DeviceToHost, label: "mag".into(),
///                 bytes: 4096, t_start: 0.13, t_end: 0.14, queue: 0 },
///     ],
///     high_water_bytes: 8192,
///     host_bytes_copied: 8192,
/// };
/// // Table II row: (Dev-W, Dev-R, K-Exe).
/// assert_eq!(report.table2_row(), (1, 1, 1));
/// assert_eq!(report.bytes(EventKind::HostToDevice), 4096);
/// // Device runtime sums transfers + kernels; compilation is excluded.
/// assert!((report.device_seconds() - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// All recorded events in submission order.
    pub events: Vec<Event>,
    /// Peak bytes of device global memory allocated to buffers — the
    /// "high-water mark" of the paper's memory study (§IV-D.2).
    pub high_water_bytes: u64,
    /// Bytes the context physically copied between host memory and device
    /// storage: an upload that copied its source, a download that copied its
    /// buffer. Zero on a Model context, zero for an upload that adopted the
    /// host's [`SharedArray`](crate::SharedArray) and zero for a last read
    /// that handed the buffer's storage to the host
    /// ([`Context::read_and_release`](crate::Context::read_and_release)) —
    /// each still an event of its full modeled size, so
    /// [`ProfileReport::bytes`] is the transfer volume the paper counts and
    /// this is what the host actually paid.
    pub host_bytes_copied: u64,
}

impl ProfileReport {
    /// Number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total modeled seconds spent in events of `kind`.
    pub fn seconds(&self, kind: EventKind) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(Event::seconds)
            .sum()
    }

    /// Total bytes moved in events of `kind`.
    pub fn bytes(&self, kind: EventKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.bytes)
            .sum()
    }

    /// Total modeled device runtime: host→device transfers + kernel
    /// executions + device→host transfers (the quantity plotted on the
    /// y-axes of the paper's Figure 5). Compilation is excluded.
    pub fn device_seconds(&self) -> f64 {
        self.seconds(EventKind::HostToDevice)
            + self.seconds(EventKind::KernelExec)
            + self.seconds(EventKind::DeviceToHost)
    }

    /// Table II row for this execution: (Dev-W, Dev-R, K-Exe).
    pub fn table2_row(&self) -> (usize, usize, usize) {
        (
            self.count(EventKind::HostToDevice),
            self.count(EventKind::DeviceToHost),
            self.count(EventKind::KernelExec),
        )
    }

    fn runtime_events(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| e.kind != EventKind::KernelCompile)
    }

    /// Modeled wall time on the device: the span from the first runtime
    /// event's start to the last runtime event's end (compilation excluded,
    /// as in [`ProfileReport::device_seconds`]). With a single in-order
    /// queue this equals `device_seconds()`; with overlapped queues it is
    /// smaller — the difference is transfer/compute time hidden by overlap.
    pub fn makespan_seconds(&self) -> f64 {
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in self.runtime_events() {
            t0 = t0.min(e.t_start);
            t1 = t1.max(e.t_end);
        }
        if t1 > t0 {
            t1 - t0
        } else {
            0.0
        }
    }

    /// Seconds of device work hidden by multi-queue overlap:
    /// `device_seconds() - makespan_seconds()`, clamped at zero. Zero for
    /// any strictly serial (single-queue) execution.
    pub fn overlap_hidden_seconds(&self) -> f64 {
        (self.device_seconds() - self.makespan_seconds()).max(0.0)
    }

    /// Fraction of transfer time (H2D + D2H) hidden behind other queues'
    /// work — the "% of transfer time hidden" figure of merit for the
    /// streaming pipeline. Returns 0 when no transfers were recorded.
    pub fn overlap_efficiency(&self) -> f64 {
        let transfers =
            self.seconds(EventKind::HostToDevice) + self.seconds(EventKind::DeviceToHost);
        if transfers > 0.0 {
            (self.overlap_hidden_seconds() / transfers).min(1.0)
        } else {
            0.0
        }
    }

    /// Queue indices that did runtime work (compilation excluded),
    /// ascending.
    pub fn queues_used(&self) -> Vec<usize> {
        let mut qs: Vec<usize> = self.runtime_events().map(|e| e.queue).collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }

    /// Total modeled busy seconds on one queue (compilation excluded).
    pub fn queue_busy_seconds(&self, queue: usize) -> f64 {
        self.runtime_events()
            .filter(|e| e.queue == queue)
            .map(Event::seconds)
            .sum()
    }

    /// Queue occupancy: busy seconds on `queue` divided by the makespan —
    /// how saturated each pipeline stage kept its queue. Zero when nothing
    /// ran.
    pub fn queue_occupancy(&self, queue: usize) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan > 0.0 {
            self.queue_busy_seconds(queue) / makespan
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, bytes: u64, t0: f64, t1: f64) -> Event {
        Event {
            kind,
            label: "t".into(),
            bytes,
            t_start: t0,
            t_end: t1,
            queue: 0,
        }
    }

    fn ev_q(kind: EventKind, queue: usize, t0: f64, t1: f64) -> Event {
        Event {
            queue,
            ..ev(kind, 100, t0, t1)
        }
    }

    #[test]
    fn report_aggregates_by_kind() {
        let report = ProfileReport {
            events: vec![
                ev(EventKind::HostToDevice, 100, 0.0, 1.0),
                ev(EventKind::HostToDevice, 50, 1.0, 1.5),
                ev(EventKind::KernelExec, 150, 1.5, 2.0),
                ev(EventKind::DeviceToHost, 100, 2.0, 2.25),
                ev(EventKind::KernelCompile, 0, 0.0, 0.1),
            ],
            high_water_bytes: 300,
            ..Default::default()
        };
        assert_eq!(report.count(EventKind::HostToDevice), 2);
        assert_eq!(report.bytes(EventKind::HostToDevice), 150);
        assert!((report.seconds(EventKind::HostToDevice) - 1.5).abs() < 1e-12);
        assert_eq!(report.table2_row(), (2, 1, 1));
        // Compile time excluded from device totals.
        assert!((report.device_seconds() - 2.25).abs() < 1e-12);
        // Serial events: makespan equals the summed device seconds, nothing
        // is hidden, and everything ran on queue 0.
        assert!((report.makespan_seconds() - 2.25).abs() < 1e-12);
        assert_eq!(report.overlap_hidden_seconds(), 0.0);
        assert_eq!(report.queues_used(), vec![0]);
    }

    #[test]
    fn makespan_sees_overlap_that_summed_seconds_hides() {
        // Upload of slab n+1 (queue 1) overlaps the kernel of slab n
        // (queue 2) overlaps the download of slab n-1 (queue 3).
        let report = ProfileReport {
            events: vec![
                ev_q(EventKind::KernelCompile, 0, 0.0, 0.5),
                ev_q(EventKind::HostToDevice, 1, 0.0, 1.0),
                ev_q(EventKind::HostToDevice, 1, 1.0, 2.0),
                ev_q(EventKind::KernelExec, 2, 1.0, 2.0),
                ev_q(EventKind::KernelExec, 2, 2.0, 3.0),
                ev_q(EventKind::DeviceToHost, 3, 2.0, 2.5),
                ev_q(EventKind::DeviceToHost, 3, 3.0, 3.5),
            ],
            high_water_bytes: 0,
            ..Default::default()
        };
        // Summed: 2 + 2 + 1 = 5 s of work … in a 3.5 s window (compile
        // excluded from both).
        assert!((report.device_seconds() - 5.0).abs() < 1e-12);
        assert!((report.makespan_seconds() - 3.5).abs() < 1e-12);
        assert!((report.overlap_hidden_seconds() - 1.5).abs() < 1e-12);
        // 1.5 s hidden of 3.0 s of transfers.
        assert!((report.overlap_efficiency() - 0.5).abs() < 1e-12);
        // Queue 0 held only the compile, which is not runtime work.
        assert_eq!(report.queues_used(), vec![1, 2, 3]);
        assert!((report.queue_busy_seconds(2) - 2.0).abs() < 1e-12);
        assert!((report.queue_occupancy(2) - 2.0 / 3.5).abs() < 1e-12);
        // Compile events alone contribute no makespan.
        let only_compile = ProfileReport {
            events: vec![ev_q(EventKind::KernelCompile, 0, 0.0, 0.5)],
            high_water_bytes: 0,
            ..Default::default()
        };
        assert_eq!(only_compile.makespan_seconds(), 0.0);
        assert_eq!(only_compile.overlap_efficiency(), 0.0);
    }
}
