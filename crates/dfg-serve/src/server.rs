//! The server: accept loop, bounded admission queue, coalescing executor.
//!
//! Threading model (one paragraph, because it is the whole design): an
//! *accept* thread takes TCP connections and spawns one *reader* and one
//! *writer* thread per connection; readers parse request lines and push
//! jobs into a single **bounded** queue (admission control — a full queue
//! rejects immediately with `overloaded`, it never blocks the socket); one
//! *executor* thread owns the [`dfg_core::SessionRegistry`] — every
//! tenant's resident pool, kernel cache, and quota accounting live on that
//! one thread, the "one resident pool serves all requests" pattern — pops
//! jobs in FIFO order, groups the jobs that arrived within a batch window
//! by `(expression structure, grid, strategy)`, executes one *leader* per
//! group, and fans the leader's payload out to the coalesced followers.
//!
//! # Hostile clients and long uptime
//!
//! The edge assumes nothing about the peer (see `docs/ROBUSTNESS.md`,
//! "Serving resilience"):
//!
//! * request frames are read through a **byte-capped** line reader — an
//!   oversized frame is answered with a typed `too_large` reject and
//!   discarded, never buffered unboundedly;
//! * a per-frame **read deadline** starts at a frame's first byte, so a
//!   slow-loris client trickling bytes is disconnected while an *idle*
//!   keep-alive connection lives forever;
//! * the per-connection reply channel is **bounded** and the writer's
//!   socket carries a write timeout, so a client that stops reading tears
//!   its connection down instead of leaking a writer thread and unbounded
//!   reply memory;
//! * every derive job carries a [`dfg_core::CancelToken`] — deadline from
//!   the request's `deadline_ms` (or the server default), abort flag
//!   flipped when the connection dies — checked at dequeue and between
//!   recovery-ladder rungs, so expired work answers `deadline_exceeded`
//!   in bounded time and orphaned work stops instead of computing into a
//!   closed socket;
//! * a **maintenance tick** on the executor evicts tenants idle past the
//!   TTL and, under memory pressure, trims buffer pools, drops cached
//!   per-grid field sets, then evicts LRU tenants (`serve.evict` spans,
//!   `evicted_idle`/`evicted_fields`/`evicted_pressure` counters) —
//!   long-running processes accumulate neither dead sessions nor grids;
//! * with [`ServeConfig::conn_faults`] installed, every accepted socket is
//!   wrapped in a [`crate::FaultyStream`], so connection-level chaos
//!   (drops, stalls, garbled bytes) is seeded and reproducible.
//!
//! # Examples
//!
//! ```
//! use dfg_serve::{Client, ExecStrategy, ServeConfig, Server};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//!
//! let mut client = Client::connect(&addr).unwrap();
//! let reply = client
//!     .derive("alice", "m = sqrt(u*u + v*v + w*w)", [8, 8, 8], ExecStrategy::Fusion, false)
//!     .unwrap();
//! assert_eq!(reply.ncells, 512);
//!
//! client.shutdown().unwrap();
//! let counters = server.join().unwrap();
//! assert_eq!(counters.ok, 1);
//! ```

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dfg_core::{CancelToken, EngineOptions, FieldSet, RecoveryPolicy, SessionRegistry};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, FaultPlan};
use dfg_trace::{span, Tracer};

use crate::faulty::FaultyStream;
use crate::protocol::{
    write_response, DeriveReply, DeriveRequest, ExecStrategy, RejectKind, Request, Response,
    ServerCounters, FIELD_SET_BYTES_PER_CELL,
};

/// Server configuration; `Default` gives a CPU-profile server with
/// coalescing on, a 64-deep admission queue, a 2 ms batch window, and the
/// resilient recovery policy (graceful degradation under quota pressure).
#[derive(Clone)]
pub struct ServeConfig {
    /// Device profile each tenant's engine simulates.
    pub profile: DeviceProfile,
    /// Engine options shared by every tenant (recovery policy included).
    pub options: EngineOptions,
    /// Admission-control bound: jobs queued beyond this are rejected with
    /// `overloaded` instead of waiting.
    pub queue_capacity: usize,
    /// How long the executor waits after the first job of a batch for
    /// coalescable peers to arrive.
    pub batch_window: Duration,
    /// Whether identical requests in a window share one execution.
    /// Requests are grouped by the *canonical hash* of their optimized
    /// networks, so commutative spellings (`u*u + v*v` vs `v*v + u*u`)
    /// coalesce too.
    pub coalesce: bool,
    /// Default per-tenant device-memory quota (`None`: device capacity).
    pub default_quota: Option<u64>,
    /// Explicit per-tenant quotas, applied before the first request.
    pub quotas: Vec<(String, u64)>,
    /// Tracer receiving `serve.*` spans (and the engines' session spans).
    pub tracer: Option<Tracer>,
    /// Hard cap on one request frame's bytes (newline included). An
    /// oversized frame is rejected with `too_large` and discarded through
    /// its terminating newline — the reader never buffers more than this.
    pub max_line_bytes: usize,
    /// Per-frame read deadline, armed at a frame's **first byte**: a
    /// slow-loris client trickling a request is disconnected once the
    /// frame takes this long, while an idle connection (no frame started)
    /// is never timed out. `None` disables the guard.
    pub read_deadline: Option<Duration>,
    /// Socket write timeout for the per-connection writer thread; a write
    /// stalled past this tears the connection down (and flips the
    /// connection's cancel flag) instead of leaking the thread.
    pub write_deadline: Option<Duration>,
    /// Deadline applied to derive requests that carry no `deadline_ms` of
    /// their own. `None` (the default) leaves such requests unbounded.
    pub default_deadline: Option<Duration>,
    /// Evict a tenant's session (resident fields, kernel cache, pool)
    /// after this much time without a request. `None` disables idle
    /// eviction.
    pub idle_ttl: Option<Duration>,
    /// Memory-pressure threshold over all tenants' device bytes (in-use +
    /// pooled) plus the host-side field sets cached per grid. When crossed,
    /// the watchdog first trims every pool, then drops the least recently
    /// used field sets the current batch did not read, then evicts
    /// least-recently-used tenants until back under. `None` disables the
    /// watchdog.
    pub memory_pressure_bytes: Option<u64>,
    /// Seeded connection-fault plan (`conn_drop` / `conn_stall` /
    /// `byte_garble` kinds); every accepted socket shares it, so a chaos
    /// run's fault schedule is reproducible. `None`: no injection.
    pub conn_faults: Option<FaultPlan>,
    /// How long an injected `conn_stall` blocks one I/O operation.
    pub conn_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            profile: DeviceProfile::intel_x5660(),
            options: EngineOptions {
                recovery: RecoveryPolicy::resilient(),
                ..EngineOptions::default()
            },
            queue_capacity: 64,
            batch_window: Duration::from_millis(2),
            coalesce: true,
            default_quota: None,
            quotas: Vec::new(),
            tracer: None,
            max_line_bytes: 256 * 1024,
            read_deadline: Some(Duration::from_secs(10)),
            write_deadline: Some(Duration::from_secs(10)),
            default_deadline: None,
            idle_ttl: None,
            memory_pressure_bytes: None,
            conn_faults: None,
            conn_stall: Duration::from_millis(20),
        }
    }
}

/// Bound on the per-connection reply channel; when a client stops reading
/// and the channel fills, the connection is cancelled rather than buffering
/// replies without limit.
const REPLY_QUEUE_DEPTH: usize = 256;

/// The connection-edge knobs every reader/writer thread needs, split out
/// of [`ServeConfig`] so the accept loop can hand one `Arc` to each
/// connection.
struct ConnLimits {
    max_line_bytes: usize,
    read_deadline: Option<Duration>,
    write_deadline: Option<Duration>,
    default_deadline: Option<Duration>,
    conn_faults: Option<FaultPlan>,
    conn_stall: Duration,
}

/// A derived field as replies share it: the executor moves the result
/// buffer in once, and every reply of the group — and each connection's
/// writer thread, which encodes it straight into its socket — holds a
/// reference, never a copy.
type SharedField = Arc<Vec<f32>>;

/// One reply on its way to a connection's writer thread.
struct Outbound {
    resp: Response,
    /// The payload behind an `ok` header, for a request that asked for it.
    field: Option<SharedField>,
}

/// The reply side of one connection: a bounded channel to the writer
/// thread plus the connection's cancel flag. Sending never blocks — a full
/// channel means the client stopped reading, so the connection is
/// cancelled instead.
#[derive(Clone)]
struct ReplyTx {
    tx: mpsc::SyncSender<Outbound>,
    conn: CancelToken,
}

impl ReplyTx {
    /// Queue one reply without a payload; see [`ReplyTx::send_with`].
    fn send(&self, resp: Response) -> bool {
        self.send_with(resp, None)
    }

    /// Queue one reply; `false` means the connection is dead (or was just
    /// declared dead because the bounded channel overflowed).
    fn send_with(&self, resp: Response, field: Option<SharedField>) -> bool {
        if self.conn.is_cancelled() {
            return false;
        }
        match self.tx.try_send(Outbound { resp, field }) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.conn.cancel();
                false
            }
        }
    }
}

/// One parsed request plus the channel its reply must go down and the
/// cancellation token governing its execution (connection flag + request
/// deadline).
struct Job {
    req: Request,
    reply: ReplyTx,
    cancel: CancelToken,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    shutdown: AtomicBool,
    counters: Mutex<ServerCounters>,
    capacity: usize,
    tracer: Option<Tracer>,
    limits: ConnLimits,
}

impl Shared {
    fn count(&self, f: impl FnOnce(&mut ServerCounters)) {
        f(&mut self.counters.lock().expect("counters lock"));
    }

    /// Enqueue under the admission bound; `Some(job)` hands the job back
    /// when the queue was full or closed and the caller must reject it.
    fn try_push(&self, job: Job) -> Option<Job> {
        let mut q = self.queue.lock().expect("queue lock");
        if q.closed || q.jobs.len() >= self.capacity {
            return Some(job);
        }
        q.jobs.push_back(job);
        drop(q);
        self.cond.notify_one();
        None
    }

    fn close_queue(&self) {
        self.queue.lock().expect("queue lock").closed = true;
        self.cond.notify_all();
    }
}

/// A running serve instance; see the [module docs](self) for the
/// threading model and `docs/SERVING.md` for the operator-facing story.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    executor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 to let the OS pick) and start the accept
    /// and executor threads. Returns once the socket is listening.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Mutex::new(ServerCounters::default()),
            capacity: config.queue_capacity.max(1),
            tracer: config.tracer.clone(),
            limits: ConnLimits {
                max_line_bytes: config.max_line_bytes.max(64),
                read_deadline: config.read_deadline,
                write_deadline: config.write_deadline,
                default_deadline: config.default_deadline,
                conn_faults: config.conn_faults.clone(),
                conn_stall: config.conn_stall,
            },
        });

        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(listener, shared))
        };
        let executor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || executor_loop(shared, config, local_addr))
        };
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept),
            executor: Some(executor),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the aggregate counters so far.
    pub fn counters(&self) -> ServerCounters {
        *self.shared.counters.lock().expect("counters lock")
    }

    /// Begin shutdown from the host side (equivalent to a client
    /// `shutdown` request): stop admitting, drain, exit.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.local_addr);
    }

    /// Wait for the accept and executor threads to finish and return the
    /// final counters. Call [`Server::shutdown`] (or send a client
    /// `shutdown` request) first, or this blocks forever.
    pub fn join(mut self) -> thread::Result<ServerCounters> {
        if let Some(h) = self.accept.take() {
            h.join()?;
        }
        if let Some(h) = self.executor.take() {
            h.join()?;
        }
        Ok(*self.shared.counters.lock().expect("counters lock"))
    }
}

fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.close_queue();
    // Poke the accept loop out of `accept()` so it can observe the flag.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(&shared);
        thread::spawn(move || connection_loop(stream, shared));
    }
}

/// What the capped, deadline-armed frame reader produced.
enum Frame {
    /// One complete line within the byte cap (newline stripped, lossily
    /// decoded — garbled bytes must parse-fail, never panic).
    Line(String),
    /// The frame exceeded the byte cap; it was discarded through its
    /// terminating newline and the connection can continue.
    TooLarge,
    /// Clean end of stream.
    Eof,
    /// The frame's read deadline passed mid-frame (slow loris) or the
    /// socket failed; the connection is torn down.
    Dead,
}

/// Read one newline-terminated frame, buffering at most `max_line_bytes`.
/// The read deadline is armed when the frame's *first* bytes arrive, so an
/// idle connection blocks here indefinitely without being killed.
fn read_frame(reader: &mut BufReader<FaultyStream>, limits: &ConnLimits) -> Frame {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut frame_deadline: Option<Instant> = None;
    if reader.get_ref().set_read_timeout(None).is_err() {
        return Frame::Dead;
    }
    loop {
        if let Some(at) = frame_deadline {
            let remaining = at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Frame::Dead;
            }
            if reader
                .get_ref()
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .is_err()
            {
                return Frame::Dead;
            }
        }
        let (consumed, done) = match reader.fill_buf() {
            Ok([]) => return Frame::Eof,
            Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if !discarding {
                        line.extend_from_slice(&chunk[..nl]);
                    }
                    (nl + 1, true)
                }
                None => {
                    if !discarding {
                        line.extend_from_slice(chunk);
                    }
                    (chunk.len(), false)
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Frame::Dead;
            }
            Err(_) => return Frame::Dead,
        };
        reader.consume(consumed);
        if frame_deadline.is_none() {
            frame_deadline = limits.read_deadline.map(|d| Instant::now() + d);
        }
        if !discarding && line.len() >= limits.max_line_bytes {
            line.clear();
            line.shrink_to_fit();
            discarding = true;
        }
        if done {
            return if discarding {
                Frame::TooLarge
            } else {
                Frame::Line(String::from_utf8_lossy(&line).into_owned())
            };
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let limits = &shared.limits;
    let stream = FaultyStream::new(stream, limits.conn_faults.clone(), limits.conn_stall);
    // One abort flag per connection: flipped when the writer stalls out,
    // the reply channel overflows, or the socket dies — every in-flight
    // job derived from it stops at its next cancellation point.
    let conn = CancelToken::new();
    let (tx, rx) = mpsc::sync_channel::<Outbound>(REPLY_QUEUE_DEPTH);
    let reply = ReplyTx {
        tx,
        conn: conn.clone(),
    };
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if out.set_write_timeout(limits.write_deadline).is_err() {
        return;
    }
    let writer = {
        let conn = conn.clone();
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            // Unbuffered: the codec hands the socket whole chunks.
            while let Ok(Outbound { resp, field }) = rx.recv() {
                match write_response(&mut out, &resp, field.as_ref().map(|f| &f[..])) {
                    Ok(0) => {}
                    Ok(bytes) => shared.count(|c| c.payload_bytes += bytes),
                    Err(_) => {
                        // Stalled or dead client: cancel the connection's
                        // in-flight work and unblock the reader.
                        conn.cancel();
                        let _ = out.shutdown(Shutdown::Both);
                        break;
                    }
                }
            }
        })
    };

    let mut reader = BufReader::new(stream);
    loop {
        if conn.is_cancelled() {
            break;
        }
        let frame = match read_frame(&mut reader, limits) {
            Frame::Eof => break,
            Frame::Dead => {
                // Slow loris, reset, or injected drop: orphaned work must
                // not keep computing into this connection.
                conn.cancel();
                break;
            }
            Frame::TooLarge => {
                shared.count(|c| {
                    c.requests += 1;
                    c.rejected_too_large += 1;
                });
                drop(span!(shared.tracer, "serve.reject", reason = "too_large"));
                reply.send(Response::Rejected {
                    id: 0,
                    kind: RejectKind::TooLarge,
                    message: format!("request frame exceeds {} bytes", limits.max_line_bytes),
                });
                continue;
            }
            Frame::Line(l) => l,
        };
        let trimmed = frame.trim();
        if trimmed.is_empty() {
            continue;
        }
        shared.count(|c| c.requests += 1);
        let req = match Request::parse(trimmed) {
            Ok(req) => req,
            Err(e) => {
                // Malformed frame: echo the request id when the frame was
                // coherent enough to carry one, so pipelining clients can
                // match the failure to a request.
                let id = Request::frame_id(trimmed).unwrap_or(0);
                shared.count(|c| c.malformed += 1);
                reply.send(Response::Error {
                    id,
                    message: format!("bad request: {e}"),
                });
                continue;
            }
        };
        match req {
            Request::Ping { id } => {
                reply.send(Response::Pong { id });
            }
            req => {
                let (id, deadline) = match &req {
                    Request::Derive(d) => (
                        d.id,
                        d.deadline_ms
                            .map(Duration::from_millis)
                            .or(limits.default_deadline),
                    ),
                    Request::Stats { id } | Request::Shutdown { id } | Request::Ping { id } => {
                        (*id, None)
                    }
                };
                let cancel = conn.child_with_deadline(deadline.map(|d| Instant::now() + d));
                let job = Job {
                    req,
                    reply: reply.clone(),
                    cancel,
                };
                if let Some(job) = shared.try_push(job) {
                    let shutting_down = shared.shutdown.load(Ordering::SeqCst);
                    let kind = if shutting_down {
                        RejectKind::ShuttingDown
                    } else {
                        RejectKind::Overloaded
                    };
                    if !shutting_down {
                        shared.count(|c| c.rejected_overload += 1);
                        drop(span!(shared.tracer, "serve.reject", reason = "overloaded"));
                    }
                    job.reply.send(Response::Rejected {
                        id,
                        kind,
                        message: if shutting_down {
                            "server is draining".into()
                        } else {
                            "request queue is full".into()
                        },
                    });
                    if shutting_down {
                        break;
                    }
                }
            }
        }
    }
    drop(reply);
    let _ = writer.join();
}

/// The coalescing key: requests whose expressions optimize to networks
/// with the same *canonical hash* (order-, numbering-, and
/// dead-code-insensitive; commutative operands sorted — see
/// `dfg_dataflow::canonical_hash`), over the same grid with the same
/// strategy, can share one execution (inputs are a deterministic function
/// of the grid).
type CoalesceKey = (u64, [usize; 3], ExecStrategy);

/// A derive request together with its reply channel and cancel token.
struct PendingDerive {
    d: DeriveRequest,
    reply: ReplyTx,
    cancel: CancelToken,
}

/// Batched derive groups: a shared key (or `None` when coalescing is off
/// or the expression failed to hash) and the member requests.
type DeriveGroups = Vec<(Option<CoalesceKey>, Vec<PendingDerive>)>;

struct ExecutorState {
    registry: SessionRegistry,
    fields: FieldCache,
    /// Memoized `expr source → canonical hash of the optimized network`
    /// (None: frontend error, reported per request at execution time).
    hashes: HashMap<String, Option<u64>>,
    /// Optimizer level for coalescing: at least `Cse` (so equivalent
    /// spellings actually unify), or higher when the engines run higher.
    level: dfg_dataflow::OptLevel,
}

/// Host-side synthetic fields per grid: stable across requests, so
/// generation-based upload skipping works across the whole server. A grid
/// dropped under memory pressure is regenerated by its next request under
/// fresh generations, so residents re-upload instead of matching stale ones.
#[derive(Default)]
struct FieldCache {
    /// Each grid's field set and the batch that last read it.
    grids: HashMap<[usize; 3], (FieldSet, u64)>,
    /// The batch being executed; its grids are never dropped.
    batch: u64,
}

impl FieldCache {
    fn get(&mut self, grid: [usize; 3]) -> &FieldSet {
        let (set, read) = self.grids.entry(grid).or_insert_with(|| {
            let mesh = RectilinearMesh::unit_cube(grid);
            let set = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
            (set, 0)
        });
        *read = self.batch;
        set
    }

    /// Host bytes held (see [`FIELD_SET_BYTES_PER_CELL`]).
    fn bytes(&self) -> u64 {
        let cells: usize = self.grids.values().map(|(set, _)| set.ncells()).sum();
        FIELD_SET_BYTES_PER_CELL * cells as u64
    }

    /// Drop the least recently read grid outside the current batch, if any.
    fn drop_lru(&mut self) -> bool {
        let reads = self.grids.iter().map(|(grid, (_, read))| (*read, *grid));
        let lru = reads.filter(|(read, _)| *read < self.batch).min();
        lru.is_some_and(|(_, grid)| self.grids.remove(&grid).is_some())
    }
}

impl ExecutorState {
    fn canonical_hash(&mut self, expr: &str) -> Option<u64> {
        let level = self.level;
        *self.hashes.entry(expr.to_string()).or_insert_with(|| {
            let raw = dfg_expr::compile(expr).ok()?;
            let opt = dfg_dataflow::optimize(&raw, &[raw.result], level).ok()?;
            Some(dfg_dataflow::canonical_hash(&opt.spec))
        })
    }
}

fn executor_loop(shared: Arc<Shared>, config: ServeConfig, local_addr: SocketAddr) {
    let mut registry = SessionRegistry::new(config.profile.clone(), config.options);
    if let Some(tracer) = &config.tracer {
        registry.set_tracer(tracer.clone());
    }
    registry.set_default_quota(config.default_quota);
    for (tenant, bytes) in &config.quotas {
        registry.set_quota(tenant, *bytes);
    }
    let mut state = ExecutorState {
        registry,
        fields: FieldCache::default(),
        hashes: HashMap::new(),
        level: config.options.optimize.max(dfg_dataflow::OptLevel::Cse),
    };
    // How long the executor sleeps on an empty queue before running a
    // maintenance pass (idle eviction, memory-pressure watchdog). Only
    // armed when a lifecycle feature is configured.
    let tick = (config.idle_ttl.is_some() || config.memory_pressure_bytes.is_some()).then(|| {
        config
            .idle_ttl
            .map(|ttl| (ttl / 4).max(Duration::from_millis(10)))
            .unwrap_or(Duration::from_millis(250))
            .min(Duration::from_millis(500))
    });

    loop {
        let mut batch = {
            let mut q = shared.queue.lock().expect("queue lock");
            while q.jobs.is_empty() && !q.closed {
                match tick {
                    Some(t) => {
                        let (guard, timeout) = shared.cond.wait_timeout(q, t).expect("queue wait");
                        q = guard;
                        if timeout.timed_out() && q.jobs.is_empty() && !q.closed {
                            drop(q);
                            maintenance(&shared, &mut state, &config);
                            q = shared.queue.lock().expect("queue lock");
                        }
                    }
                    None => q = shared.cond.wait(q).expect("queue wait"),
                }
            }
            if q.jobs.is_empty() && q.closed {
                return;
            }
            let mut batch = vec![q.jobs.pop_front().expect("non-empty")];
            if !config.coalesce || config.batch_window.is_zero() {
                batch
            } else {
                drop(q);
                thread::sleep(config.batch_window);
                let mut q = shared.queue.lock().expect("queue lock");
                while let Some(job) = q.jobs.pop_front() {
                    batch.push(job);
                }
                batch
            }
        };

        state.fields.batch += 1;
        // Control jobs run in arrival order relative to nothing in
        // particular — they read state the derive jobs in this batch have
        // already (or not yet) produced; pull them out first. Expired or
        // orphaned derive jobs are dropped here — the queue's typed
        // `deadline_exceeded` reply — before any grouping or execution.
        let mut derives: Vec<PendingDerive> = Vec::new();
        for job in batch.drain(..) {
            match job.req {
                Request::Derive(d) => {
                    if reject_if_cancelled(&shared, &job.cancel, d.id, &job.reply, &d.tenant) {
                        continue;
                    }
                    derives.push(PendingDerive {
                        d,
                        reply: job.reply,
                        cancel: job.cancel,
                    });
                }
                Request::Stats { id } => {
                    let resp = Response::Stats {
                        id,
                        server: *shared.counters.lock().expect("counters lock"),
                        tenants: state.registry.all_stats(),
                    };
                    job.reply.send(resp);
                }
                Request::Shutdown { id } => {
                    job.reply.send(Response::ShuttingDown { id });
                    begin_shutdown(&shared, local_addr);
                }
                Request::Ping { id } => {
                    job.reply.send(Response::Pong { id });
                }
            }
        }

        // Group by coalescing key; requests whose expression fails to
        // lower get their own singleton group (keyed by error) so the
        // frontend error is reported per request.
        let mut groups: DeriveGroups = Vec::new();
        for p in derives {
            let key = if config.coalesce {
                state
                    .canonical_hash(&p.d.expr)
                    .map(|h| (h, p.d.grid, p.d.strategy))
            } else {
                None
            };
            match key {
                Some(k) => {
                    if let Some((_, members)) =
                        groups.iter_mut().find(|(g, _)| g.as_ref() == Some(&k))
                    {
                        members.push(p);
                    } else {
                        groups.push((Some(k), vec![p]));
                    }
                }
                None => groups.push((None, vec![p])),
            }
        }

        for (_, members) in groups {
            run_group(&shared, &mut state, members);
        }
        if tick.is_some() {
            maintenance(&shared, &mut state, &config);
        }
    }
}

/// If `cancel` has fired, answer (or silently drop) the request and return
/// `true`: an expired deadline gets a typed `deadline_exceeded` reply and
/// a `serve.deadline` span; a dead connection gets no reply (nobody is
/// listening), a `cancelled` counter bump, and a `serve.cancel` span.
fn reject_if_cancelled(
    shared: &Shared,
    cancel: &CancelToken,
    id: u64,
    reply: &ReplyTx,
    tenant: &str,
) -> bool {
    if cancel.deadline_exceeded() {
        shared.count(|c| c.rejected_deadline += 1);
        drop(span!(
            shared.tracer,
            "serve.deadline",
            tenant = tenant,
            id = id,
        ));
        reply.send(Response::Rejected {
            id,
            kind: RejectKind::DeadlineExceeded,
            message: "deadline expired before execution".into(),
        });
        true
    } else if cancel.is_cancelled() {
        shared.count(|c| c.cancelled += 1);
        drop(span!(
            shared.tracer,
            "serve.cancel",
            tenant = tenant,
            id = id,
        ));
        true
    } else {
        false
    }
}

/// The executor's lifecycle pass: idle-TTL eviction, then the
/// memory-pressure watchdog (trim pools first — cheap, amortization
/// untouched — then drop the field sets of grids the current batch did not
/// read, then evict LRU tenants until under the threshold). Runs between
/// batches and on empty-queue ticks.
fn maintenance(shared: &Shared, state: &mut ExecutorState, config: &ServeConfig) {
    if let Some(ttl) = config.idle_ttl {
        for tenant in state.registry.evict_idle(ttl) {
            shared.count(|c| c.evicted_idle += 1);
            drop(span!(
                shared.tracer,
                "serve.evict",
                reason = "idle",
                tenant = tenant.as_str(),
            ));
        }
    }
    if let Some(limit) = config.memory_pressure_bytes {
        let held = |s: &ExecutorState| s.registry.total_in_use_bytes() + s.fields.bytes();
        let total = held(state) + state.registry.total_pooled_bytes();
        if total > limit {
            let freed = state.registry.trim_pools();
            drop(span!(
                shared.tracer,
                "serve.trim",
                freed_bytes = freed,
                over_bytes = total.saturating_sub(limit),
            ));
            while held(state) > limit && state.fields.drop_lru() {
                shared.count(|c| c.evicted_fields += 1);
                drop(span!(shared.tracer, "serve.evict", reason = "fields"));
            }
            while held(state) > limit {
                let Some(tenant) = state.registry.evict_lru() else {
                    break;
                };
                shared.count(|c| c.evicted_pressure += 1);
                drop(span!(
                    shared.tracer,
                    "serve.evict",
                    reason = "pressure",
                    tenant = tenant.as_str(),
                ));
            }
        }
    }
}

fn run_group(shared: &Shared, state: &mut ExecutorState, members: Vec<PendingDerive>) {
    let batch_size = members.len() as u64;
    let _batch_span = if batch_size > 1 {
        Some(span!(
            shared.tracer,
            "serve.batch",
            size = batch_size,
            expr = members[0].d.expr.as_str(),
        ))
    } else {
        None
    };
    if batch_size > 1 {
        shared.count(|c| c.batches += 1);
    }

    // If any member wants the payload, the leader shares it once and every
    // follower that asked gets the same buffer.
    let want_data = members.iter().any(|p| p.d.data);
    let mut leader: Option<Executed> = None;
    for p in members {
        // Expired or orphaned members never execute and never get a stale
        // reply — even as followers of a leader that already ran.
        if reject_if_cancelled(shared, &p.cancel, p.d.id, &p.reply, &p.d.tenant) {
            continue;
        }
        if let Some(ran) = &leader {
            shared.count(|c| {
                c.ok += 1;
                c.coalesced += 1;
            });
            ran.reply_to(&p, 0, true);
            continue;
        }
        // Leader (or retry after a failed leader): execute on this
        // member's own tenant so errors stay attributed per request.
        match run_one(shared, state, &p, batch_size, want_data) {
            Some(Ok((ran, compiles))) => {
                ran.reply_to(&p, compiles, false);
                leader = Some(ran);
            }
            Some(Err(refusal)) => {
                p.reply.send(refusal);
            }
            // Cancelled mid-execution with a dead connection: no reply,
            // the next member (if any) becomes the leader.
            None => {}
        }
    }
}

/// What one execution produced, as every reply made from it shares it.
struct Executed {
    /// The reply's execution-wide keys; id, tenant, expr, `compiles` and
    /// `coalesced` are per member.
    template: DeriveReply,
    /// The field, moved out of the engine's report when a member asked.
    field: Option<SharedField>,
}

impl Executed {
    fn new(
        field: dfg_core::Field,
        want_data: bool,
        device_ms: f64,
        wall_ms: f64,
        batch: u64,
        degraded: bool,
    ) -> Executed {
        Executed {
            template: DeriveReply {
                id: 0,
                tenant: String::new(),
                expr: String::new(),
                ncells: field.ncells as u64,
                checksum: field.data.iter().map(|&v| v as f64).sum(),
                device_ms,
                wall_ms,
                compiles: 0,
                coalesced: false,
                batch,
                degraded,
                data_bits: None,
                payload_sum: want_data.then(|| {
                    dfg_ocl::integrity::checksum_f32s(
                        dfg_ocl::integrity::PAYLOAD_SUM_SEED,
                        &field.data,
                    )
                }),
            },
            field: want_data.then(|| Arc::new(field.data)),
        }
    }

    /// Answer `p` from this execution; the payload goes only to a member
    /// that asked for it.
    fn reply_to(&self, p: &PendingDerive, compiles: u64, coalesced: bool) {
        let resp = Response::Ok(DeriveReply {
            id: p.d.id,
            tenant: p.d.tenant.clone(),
            expr: p.d.expr.clone(),
            compiles,
            coalesced,
            payload_sum: self.template.payload_sum.filter(|_| p.d.data),
            ..self.template.clone()
        });
        p.reply
            .send_with(resp, self.field.clone().filter(|_| p.d.data));
    }
}

/// Execute `p`: the execution and the compiles it triggered, the typed
/// refusal to answer with, or `None` when nobody is listening any more.
fn run_one(
    shared: &Shared,
    state: &mut ExecutorState,
    p: &PendingDerive,
    batch_size: u64,
    want_data: bool,
) -> Option<Result<(Executed, u64), Response>> {
    let d = &p.d;
    let _span = span!(
        shared.tracer,
        "serve.request",
        tenant = d.tenant.as_str(),
        expr = d.expr.as_str(),
        strategy = d.strategy.name(),
    );
    let compiles_before = state
        .registry
        .stats(&d.tenant)
        .map(|s| s.session.codegen_compiles)
        .unwrap_or(0);
    let wall = Instant::now();
    let fields = state.fields.get(d.grid);
    // Install the job's token so the engine observes disconnects and
    // deadline expiry between recovery-ladder rungs; always cleared after,
    // fired or not.
    state.registry.set_cancel(&d.tenant, Some(p.cancel.clone()));
    let request = dfg_core::Request::source(&d.expr, d.strategy);
    let result = state.registry.run(&d.tenant, &request, fields);
    state.registry.set_cancel(&d.tenant, None);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok((mut fields_out, report)) => {
            let degraded = report.recovery.as_ref().is_some_and(|r| r.degraded);
            let device_ms = report.device_seconds() * 1e3;
            let field = fields_out.pop().expect("real-mode serve");
            let compiles_after = state
                .registry
                .stats(&d.tenant)
                .map(|s| s.session.codegen_compiles)
                .unwrap_or(0);
            shared.count(|c| {
                c.ok += 1;
                if degraded {
                    c.degraded += 1;
                }
            });
            let ran = Executed::new(field, want_data, device_ms, wall_ms, batch_size, degraded);
            Some(Ok((ran, compiles_after.saturating_sub(compiles_before))))
        }
        Err(e) if e.is_cancelled() => {
            // The token fired mid-execution; rollback already ran inside
            // the registry's leak guard. A deadline gets its typed reply;
            // a dead connection gets silence (nobody is listening).
            if e.deadline_exceeded() {
                shared.count(|c| c.rejected_deadline += 1);
                drop(span!(
                    shared.tracer,
                    "serve.deadline",
                    tenant = d.tenant.as_str(),
                    id = d.id,
                ));
                Some(Err(Response::Rejected {
                    id: d.id,
                    kind: RejectKind::DeadlineExceeded,
                    message: "deadline expired during execution".into(),
                }))
            } else {
                shared.count(|c| c.cancelled += 1);
                drop(span!(
                    shared.tracer,
                    "serve.cancel",
                    tenant = d.tenant.as_str(),
                    id = d.id,
                ));
                None
            }
        }
        Err(e) if e.is_out_of_memory() => {
            shared.count(|c| c.rejected_quota += 1);
            drop(span!(
                shared.tracer,
                "serve.reject",
                reason = "quota_exceeded",
                tenant = d.tenant.as_str(),
            ));
            Some(Err(Response::Rejected {
                id: d.id,
                kind: RejectKind::QuotaExceeded,
                message: format!("tenant `{}` exceeded its device-memory quota", d.tenant),
            }))
        }
        Err(e) => {
            shared.count(|c| c.errors += 1);
            Some(Err(Response::Error {
                id: d.id,
                message: e.to_string(),
            }))
        }
    }
}
