//! The wire protocol: line-delimited JSON messages, and a binary frame
//! behind the one message that carries a field.
//!
//! Every message is one JSON object on one line, terminated by `\n` — no
//! external serialisation crate. Requests carry an `op` tag and a
//! client-chosen `id` that the server echoes back, so a client may pipeline
//! many requests on one connection and match replies by id (replies to one
//! connection come back in submission order). The full grammar is specified
//! in `docs/SERVING.md`.
//!
//! A derived field crosses the wire as **f32 bit patterns in a binary
//! frame**: the `ok` header line announces `"payload_bytes":N` and exactly
//! `N` bytes follow its newline, four per cell, little-endian, in field
//! order. Each byte moves once — [`write_response`] encodes straight from
//! the result buffer into the socket in chunks of at most 64 KiB, and
//! [`read_response`] decodes straight into the `Vec<u32>` of
//! [`DeriveReply::data_bits`] as the bytes arrive — so a client
//! reassembling `f32::from_bits` sees bit-identical results to a local
//! engine run, NaN payloads and `-0.0` included. These two functions are
//! the only codec: the server, [`crate::Client`] and every test server go
//! through them.
//!
//! # Examples
//!
//! ```
//! use dfg_serve::{Request, DeriveRequest, ExecStrategy};
//!
//! let req = Request::Derive(DeriveRequest {
//!     id: 7,
//!     tenant: "alice".into(),
//!     expr: "m = sqrt(u*u + v*v)".into(),
//!     grid: [8, 8, 8],
//!     strategy: ExecStrategy::Fusion,
//!     data: false,
//!     deadline_ms: Some(250),
//! });
//! let line = req.to_json_line();
//! assert!(line.ends_with('\n'));
//! assert_eq!(Request::parse(line.trim()).unwrap(), req);
//! ```

use std::io::{self, BufRead, Write};

use dfg_core::TenantStats;
use dfg_trace::json::{self, Value};

/// Most bytes an `ok` header may announce as its payload. A reader treats a
/// larger announcement as a framing error before reading any of it.
pub const MAX_PAYLOAD_BYTES: u64 = 1 << 30;

/// Host bytes of a grid's field set (`x, y, z, u, v, w`: one `f32` per cell
/// each), built before any quota check: [`Request::parse`] refuses a grid
/// whose field set would exceed [`MAX_PAYLOAD_BYTES`].
pub(crate) const FIELD_SET_BYTES_PER_CELL: u64 = 24;

/// Most bytes of one reply header line (newline included) a reader buffers.
pub const MAX_HEADER_BYTES: usize = 1 << 20;

/// Most payload bytes encoded per socket write.
const WIRE_CHUNK: usize = 64 * 1024;

/// Execution strategy requested on the wire: the engine's executor, whose
/// [`name`](dfg_core::Exec::name) is the wire name and whose `FromStr`
/// parses it. The wire carries no streaming budget: `streamed` parses to
/// `Streamed(None)`, which runs under the tenant's quota.
pub use dfg_core::Exec as ExecStrategy;

/// A derive request: compile (or reuse) the kernel for `expr` and execute
/// it over the synthetic Rayleigh–Taylor workload on a `grid`-sized mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeriveRequest {
    /// Client-chosen id, echoed in the reply.
    pub id: u64,
    /// Tenant this request runs as (selects the server-side session).
    pub tenant: String,
    /// Derived-field expression, e.g. `"m = sqrt(u*u + v*v)"`.
    pub expr: String,
    /// Mesh dimensions `[nx, ny, nz]`.
    pub grid: [usize; 3],
    /// Execution strategy.
    pub strategy: ExecStrategy,
    /// Whether to return the full field (bit-exact f32, as a binary frame
    /// behind the reply header; [`DeriveReply::data_bits`] client-side).
    pub data: bool,
    /// Optional deadline, in milliseconds from the moment the server
    /// admits the request. An expired request is dropped — at dequeue or
    /// between recovery-ladder rungs — with a `deadline_exceeded` reply
    /// instead of being executed. `None` falls back to the server's
    /// default deadline (which may itself be "none").
    pub deadline_ms: Option<u64>,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute a derived-field expression.
    Derive(DeriveRequest),
    /// Fetch server counters and per-tenant stats.
    Stats {
        /// Client-chosen id, echoed in the reply.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen id, echoed in the reply.
        id: u64,
    },
    /// Ask the server to drain and exit.
    Shutdown {
        /// Client-chosen id, echoed in the reply.
        id: u64,
    },
}

impl Request {
    /// Encode as one newline-terminated JSON line.
    pub fn to_json_line(&self) -> String {
        match self {
            Request::Derive(d) => {
                let deadline = match d.deadline_ms {
                    Some(ms) => format!(",\"deadline_ms\":{ms}"),
                    None => String::new(),
                };
                format!(
                    "{{\"op\":\"derive\",\"id\":{},\"tenant\":\"{}\",\"expr\":\"{}\",\
                     \"grid\":[{},{},{}],\"strategy\":\"{}\",\"data\":{}{}}}\n",
                    d.id,
                    json::escape(&d.tenant),
                    json::escape(&d.expr),
                    d.grid[0],
                    d.grid[1],
                    d.grid[2],
                    d.strategy.name(),
                    d.data,
                    deadline,
                )
            }
            Request::Stats { id } => format!("{{\"op\":\"stats\",\"id\":{id}}}\n"),
            Request::Ping { id } => format!("{{\"op\":\"ping\",\"id\":{id}}}\n"),
            Request::Shutdown { id } => format!("{{\"op\":\"shutdown\",\"id\":{id}}}\n"),
        }
    }

    /// Parse one request line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line)?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        let id = wire_id(&v).ok_or("\"id\" must be a non-negative integer")?;
        match op {
            "stats" => Ok(Request::Stats { id }),
            "ping" => Ok(Request::Ping { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "derive" => {
                let tenant = v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .ok_or("derive: missing \"tenant\"")?
                    .to_string();
                let expr = v
                    .get("expr")
                    .and_then(Value::as_str)
                    .ok_or("derive: missing \"expr\"")?
                    .to_string();
                let grid_v = v
                    .get("grid")
                    .and_then(Value::as_array)
                    .ok_or("derive: missing \"grid\" array")?;
                if grid_v.len() != 3 {
                    return Err("derive: \"grid\" must be [nx, ny, nz]".into());
                }
                let mut grid = [0usize; 3];
                for (slot, item) in grid.iter_mut().zip(grid_v) {
                    let n = item.as_f64().ok_or("derive: non-numeric grid dim")?;
                    if n < 1.0 || n != n.trunc() {
                        return Err("derive: grid dims must be positive integers".into());
                    }
                    *slot = n as usize;
                }
                // Refused before anything is allocated for it.
                let cells = grid.iter().try_fold(1usize, |acc, &n| acc.checked_mul(n));
                let most = MAX_PAYLOAD_BYTES / FIELD_SET_BYTES_PER_CELL;
                if !matches!(cells, Some(c) if c as u64 <= most) {
                    return Err(format!(
                        "derive: grid {grid:?} has more cells than a {MAX_PAYLOAD_BYTES}-byte field set holds"
                    ));
                }
                let strategy = match v.get("strategy").and_then(Value::as_str) {
                    Some(name) => name.parse()?,
                    None => ExecStrategy::Fusion,
                };
                let data = matches!(v.get("data"), Some(Value::Bool(true)));
                let deadline_ms = match v.get("deadline_ms") {
                    None | Some(Value::Null) => None,
                    Some(val) => Some(
                        whole_below(val, U64_RANGE)
                            .ok_or("derive: \"deadline_ms\" must be a non-negative integer")?,
                    ),
                };
                Ok(Request::Derive(DeriveRequest {
                    id,
                    tenant,
                    expr,
                    grid,
                    strategy,
                    data,
                    deadline_ms,
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Best-effort extraction of the client-chosen `id` from a frame that
    /// failed [`Request::parse`], so a malformed-frame error reply can
    /// still echo it and the client can match the failure to its request.
    /// Returns `None` when the line is not JSON or carries no id
    /// [`Request::parse`] would accept.
    pub fn frame_id(line: &str) -> Option<u64> {
        wire_id(&json::parse(line).ok()?)
    }
}

/// The `id` of a message, under the one rule both directions share: a JSON
/// number that is finite, non-negative, integral and below 2^64. Anything
/// else (`-5`, `1.5`, `1e999`) is not an id — casting it would run the
/// request under a different one.
fn wire_id(v: &Value) -> Option<u64> {
    whole_below(v.get("id")?, U64_RANGE)
}

/// 2^64: the first number a `u64` cannot hold.
const U64_RANGE: f64 = 18_446_744_073_709_551_616.0;

/// `v` as an integer in `0..below`, if it is a JSON number and is one.
fn whole_below(v: &Value, below: f64) -> Option<u64> {
    let n = v.as_f64()?;
    ((0.0..below).contains(&n) && n == n.trunc()).then_some(n as u64)
}

/// Why a request was rejected without being executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// The bounded request queue was full (backpressure).
    Overloaded,
    /// The tenant's device-memory quota could not accommodate the request.
    QuotaExceeded,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The request frame exceeded the server's line-byte cap.
    TooLarge,
    /// The request's deadline passed before (or while) it executed.
    DeadlineExceeded,
}

impl RejectKind {
    /// Wire status string.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectKind::Overloaded => "overloaded",
            RejectKind::QuotaExceeded => "quota_exceeded",
            RejectKind::ShuttingDown => "shutting_down",
            RejectKind::TooLarge => "too_large",
            RejectKind::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// A successful derive reply.
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveReply {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the tenant id.
    pub tenant: String,
    /// Echo of the expression the server actually executed. Clients
    /// compare this against what they sent: a transport-level mutation
    /// that still parses as a valid request (one bit flipped inside the
    /// expression text, say) is otherwise undetectable server-side.
    pub expr: String,
    /// Cells in the derived field.
    pub ncells: u64,
    /// Sum of the derived field's values (always present; cheap parity
    /// check when `data_bits` was not requested).
    pub checksum: f64,
    /// Modeled device milliseconds for this request's execution.
    pub device_ms: f64,
    /// Wall-clock milliseconds spent executing (not queueing).
    pub wall_ms: f64,
    /// Kernel compiles this request actually triggered (0 on cache hit or
    /// when coalesced behind another tenant's identical request).
    pub compiles: u64,
    /// Whether this reply was served from another request's execution.
    pub coalesced: bool,
    /// Number of requests in the coalesced batch this one belonged to.
    pub batch: u64,
    /// Whether the request completed in a degraded mode (recovery ladder).
    pub degraded: bool,
    /// Bit patterns of the derived f32 field, if `data: true` was asked:
    /// the reply's binary frame as [`read_response`] decoded it. The server
    /// leaves this `None` and hands [`write_response`] the field itself.
    pub data_bits: Option<Vec<u32>>,
    /// Seeded checksum over `data_bits` (see
    /// [`dfg_ocl::integrity::checksum_bits`] with
    /// [`dfg_ocl::integrity::PAYLOAD_SUM_SEED`]), present whenever
    /// `data_bits` is. Carried on the wire as a decimal string — a u64
    /// does not survive the JSON f64 number grammar — so a client can
    /// detect a payload garbled in flight and re-fetch.
    pub payload_sum: Option<u64>,
}

/// Aggregate server counters reported by `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerCounters {
    /// Requests accepted off the wire (all ops).
    pub requests: u64,
    /// Derive requests completed successfully.
    pub ok: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected_overload: u64,
    /// Requests rejected because the tenant's quota was exceeded.
    pub rejected_quota: u64,
    /// Requests that failed with an execution error.
    pub errors: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Requests served as followers of a coalesced batch.
    pub coalesced: u64,
    /// Requests served by a merged cross-request network (distinct
    /// expressions sharing subgraphs, compiled and run as one).
    pub merged: u64,
    /// Requests that completed degraded via the recovery ladder.
    pub degraded: u64,
    /// Frames rejected for exceeding the request-line byte cap.
    pub rejected_too_large: u64,
    /// Requests rejected because their deadline expired before completion.
    pub rejected_deadline: u64,
    /// Executions aborted mid-flight because the client disconnected.
    pub cancelled: u64,
    /// Tenant sessions evicted by the idle TTL.
    pub evicted_idle: u64,
    /// Tenant sessions evicted by the memory-pressure watchdog (LRU).
    pub evicted_pressure: u64,
    /// Per-grid host field sets dropped by the memory-pressure watchdog.
    pub evicted_fields: u64,
    /// Frames that failed to parse (answered with an error, not executed).
    pub malformed: u64,
    /// Binary payload bytes written behind `ok` headers (headers excluded).
    pub payload_bytes: u64,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Derive completed; payload attached.
    Ok(DeriveReply),
    /// Reply to `ping`.
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Aggregate server counters.
        server: ServerCounters,
        /// Per-tenant counters, sorted by tenant id.
        tenants: Vec<TenantStats>,
    },
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
    /// Request rejected without execution.
    Rejected {
        /// Echo of the request id.
        id: u64,
        /// Why it was rejected.
        kind: RejectKind,
        /// Human-readable detail.
        message: String,
    },
    /// Request failed while executing.
    Error {
        /// Echo of the request id.
        id: u64,
        /// Error description.
        message: String,
    },
}

/// JSON has no lexeme for non-finite numbers. A `checksum` computed over a
/// payload that contains Inf or NaN (a garbled request can decode Inf f32
/// inputs and still execute) is encoded as `null` rather than panicking the
/// encoder; [`Response::parse`] decodes that `null` back to NaN.
fn wire_f64(x: f64) -> String {
    if x.is_finite() {
        json::number(x)
    } else {
        "null".to_string()
    }
}

fn tenant_stats_json(t: &TenantStats) -> String {
    format!(
        "{{\"tenant\":\"{}\",\"cycles\":{},\"uploads\":{},\"uploads_skipped\":{},\
         \"codegen_compiles\":{},\"codegen_cached\":{},\"merged\":{},\
         \"opt_saved_kernels\":{},\"integrity_healed\":{},\"pool_hits\":{},\
         \"pooled_bytes\":{},\"resident_bytes\":{},\"in_use_bytes\":{},\
         \"quota_bytes\":{},\"integrity_checks\":{},\"integrity_violations\":{},\
         \"idle_ms\":{}}}",
        json::escape(&t.tenant),
        t.session.cycles,
        t.session.uploads,
        t.session.uploads_skipped,
        t.session.codegen_compiles,
        t.session.codegen_cached,
        t.session.merged,
        t.session.opt_saved_kernels,
        t.session.integrity_healed,
        t.pool_hits,
        t.pooled_bytes,
        t.resident_bytes,
        t.in_use_bytes,
        t.quota_bytes,
        t.integrity_checks,
        t.integrity_violations,
        t.idle_ms,
    )
}

fn tenant_stats_parse(v: &Value) -> Result<TenantStats, String> {
    let num = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("stats: missing numeric \"{key}\""))
    };
    Ok(TenantStats {
        tenant: v
            .get("tenant")
            .and_then(Value::as_str)
            .ok_or("stats: missing \"tenant\"")?
            .to_string(),
        session: dfg_core::SessionStats {
            cycles: num("cycles")?,
            uploads: num("uploads")?,
            uploads_skipped: num("uploads_skipped")?,
            codegen_compiles: num("codegen_compiles")?,
            codegen_cached: num("codegen_cached")?,
            merged: num("merged")?,
            opt_saved_kernels: num("opt_saved_kernels")?,
            integrity_healed: num("integrity_healed")?,
        },
        pool_hits: num("pool_hits")?,
        pooled_bytes: num("pooled_bytes")?,
        resident_bytes: num("resident_bytes")?,
        in_use_bytes: num("in_use_bytes")?,
        quota_bytes: num("quota_bytes")?,
        integrity_checks: num("integrity_checks")?,
        integrity_violations: num("integrity_violations")?,
        idle_ms: num("idle_ms")?,
    })
}

impl Response {
    /// Encode the header: one newline-terminated JSON line. An `ok` reply
    /// holding `data_bits` announces their size (`"payload_bytes":N`), as
    /// [`write_response`] does for the field it is given; the bytes are no
    /// part of the line.
    pub fn to_json_line(&self) -> String {
        let own = match self {
            Response::Ok(r) => r.data_bits.as_ref().map(|bits| 4 * bits.len() as u64),
            _ => None,
        };
        self.header_line(own)
    }

    /// The header line, announcing `payload_bytes` behind an `ok`.
    fn header_line(&self, payload_bytes: Option<u64>) -> String {
        match self {
            Response::Ok(r) => {
                let mut line = format!(
                    "{{\"status\":\"ok\",\"id\":{},\"tenant\":\"{}\",\"expr\":\"{}\",\
                     \"ncells\":{},\
                     \"checksum\":{},\"device_ms\":{},\"wall_ms\":{},\"compiles\":{},\
                     \"coalesced\":{},\"batch\":{},\"degraded\":{}",
                    r.id,
                    json::escape(&r.tenant),
                    json::escape(&r.expr),
                    r.ncells,
                    wire_f64(r.checksum),
                    wire_f64(r.device_ms),
                    wire_f64(r.wall_ms),
                    r.compiles,
                    r.coalesced,
                    r.batch,
                    r.degraded,
                );
                if let Some(sum) = r.payload_sum {
                    line.push_str(&format!(",\"payload_sum\":\"{sum}\""));
                }
                if let Some(n) = payload_bytes {
                    line.push_str(&format!(",\"payload_bytes\":{n}"));
                }
                line.push_str("}\n");
                line
            }
            Response::Pong { id } => format!("{{\"status\":\"pong\",\"id\":{id}}}\n"),
            Response::Stats {
                id,
                server,
                tenants,
            } => {
                let tenants_json: Vec<String> = tenants.iter().map(tenant_stats_json).collect();
                format!(
                    "{{\"status\":\"stats\",\"id\":{},\"server\":{{\"requests\":{},\
                     \"ok\":{},\"rejected_overload\":{},\"rejected_quota\":{},\
                     \"errors\":{},\"batches\":{},\"coalesced\":{},\"merged\":{},\
                     \"degraded\":{},\"rejected_too_large\":{},\"rejected_deadline\":{},\
                     \"cancelled\":{},\"evicted_idle\":{},\"evicted_pressure\":{},\
                     \"evicted_fields\":{},\"malformed\":{},\"payload_bytes\":{}}},\
                     \"tenants\":[{}]}}\n",
                    id,
                    server.requests,
                    server.ok,
                    server.rejected_overload,
                    server.rejected_quota,
                    server.errors,
                    server.batches,
                    server.coalesced,
                    server.merged,
                    server.degraded,
                    server.rejected_too_large,
                    server.rejected_deadline,
                    server.cancelled,
                    server.evicted_idle,
                    server.evicted_pressure,
                    server.evicted_fields,
                    server.malformed,
                    server.payload_bytes,
                    tenants_json.join(","),
                )
            }
            Response::ShuttingDown { id } => {
                format!("{{\"status\":\"shutting_down\",\"id\":{id}}}\n")
            }
            Response::Rejected { id, kind, message } => format!(
                "{{\"status\":\"{}\",\"id\":{},\"message\":\"{}\"}}\n",
                kind.as_str(),
                id,
                json::escape(message),
            ),
            Response::Error { id, message } => format!(
                "{{\"status\":\"error\",\"id\":{},\"message\":\"{}\"}}\n",
                id,
                json::escape(message),
            ),
        }
    }

    /// Parse one response header line (without the trailing newline). A
    /// header that announces a payload parses to a reply with
    /// `data_bits: None`: the bytes behind it are [`read_response`]'s to
    /// attach.
    pub fn parse(line: &str) -> Result<Response, String> {
        Response::parse_header(line).map(|(resp, _)| resp)
    }

    /// [`Response::parse`], plus the `payload_bytes` an `ok` announced.
    fn parse_header(line: &str) -> Result<(Response, Option<u64>), String> {
        let v = json::parse(line)?;
        let status = v
            .get("status")
            .and_then(Value::as_str)
            .ok_or("missing \"status\"")?;
        let id = wire_id(&v).ok_or("\"id\" must be a non-negative integer")?;
        let message = || {
            v.get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let mut announced = None;
        let resp: Result<Response, String> = match status {
            "pong" => Ok(Response::Pong { id }),
            "shutting_down" => {
                if v.get("message").is_some() {
                    Ok(Response::Rejected {
                        id,
                        kind: RejectKind::ShuttingDown,
                        message: message(),
                    })
                } else {
                    Ok(Response::ShuttingDown { id })
                }
            }
            "overloaded" => Ok(Response::Rejected {
                id,
                kind: RejectKind::Overloaded,
                message: message(),
            }),
            "quota_exceeded" => Ok(Response::Rejected {
                id,
                kind: RejectKind::QuotaExceeded,
                message: message(),
            }),
            "too_large" => Ok(Response::Rejected {
                id,
                kind: RejectKind::TooLarge,
                message: message(),
            }),
            "deadline_exceeded" => Ok(Response::Rejected {
                id,
                kind: RejectKind::DeadlineExceeded,
                message: message(),
            }),
            "error" => Ok(Response::Error {
                id,
                message: message(),
            }),
            "stats" => {
                let s = v.get("server").ok_or("stats: missing \"server\"")?;
                let num = |key: &str| -> Result<u64, String> {
                    s.get(key)
                        .and_then(Value::as_f64)
                        .map(|n| n as u64)
                        .ok_or_else(|| format!("stats: missing \"{key}\""))
                };
                let server = ServerCounters {
                    requests: num("requests")?,
                    ok: num("ok")?,
                    rejected_overload: num("rejected_overload")?,
                    rejected_quota: num("rejected_quota")?,
                    errors: num("errors")?,
                    batches: num("batches")?,
                    coalesced: num("coalesced")?,
                    merged: num("merged")?,
                    degraded: num("degraded")?,
                    rejected_too_large: num("rejected_too_large")?,
                    rejected_deadline: num("rejected_deadline")?,
                    cancelled: num("cancelled")?,
                    evicted_idle: num("evicted_idle")?,
                    evicted_pressure: num("evicted_pressure")?,
                    evicted_fields: num("evicted_fields")?,
                    malformed: num("malformed")?,
                    payload_bytes: num("payload_bytes")?,
                };
                let tenants = v
                    .get("tenants")
                    .and_then(Value::as_array)
                    .ok_or("stats: missing \"tenants\"")?
                    .iter()
                    .map(tenant_stats_parse)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Stats {
                    id,
                    server,
                    tenants,
                })
            }
            "ok" => {
                let num = |key: &str| -> Result<f64, String> {
                    v.get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("ok: missing numeric \"{key}\""))
                };
                // Non-finite values are encoded as `null` (see `wire_f64`);
                // decode them back to NaN rather than failing the frame.
                let lenient = |key: &str| -> Result<f64, String> {
                    match v.get(key) {
                        Some(Value::Null) => Ok(f64::NAN),
                        _ => num(key),
                    }
                };
                let payload_sum = match v.get("payload_sum") {
                    None | Some(Value::Null) => None,
                    Some(Value::String(s)) => Some(
                        s.parse::<u64>()
                            .map_err(|_| "ok: \"payload_sum\" is not a u64".to_string())?,
                    ),
                    Some(_) => return Err("ok: \"payload_sum\" must be a string".into()),
                };
                if let Some(n) = v.get("payload_bytes") {
                    let bytes = whole_below(n, MAX_PAYLOAD_BYTES as f64 + 1.0).ok_or_else(|| {
                        format!("ok: \"payload_bytes\" must be an integer in 0..={MAX_PAYLOAD_BYTES}")
                    })?;
                    announced = Some(bytes);
                }
                Ok(Response::Ok(DeriveReply {
                    id,
                    tenant: v
                        .get("tenant")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    expr: v
                        .get("expr")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    ncells: num("ncells")? as u64,
                    checksum: lenient("checksum")?,
                    device_ms: lenient("device_ms")?,
                    wall_ms: lenient("wall_ms")?,
                    compiles: num("compiles")? as u64,
                    coalesced: matches!(v.get("coalesced"), Some(Value::Bool(true))),
                    batch: num("batch")? as u64,
                    degraded: matches!(v.get("degraded"), Some(Value::Bool(true))),
                    data_bits: None,
                    payload_sum,
                }))
            }
            other => Err(format!("unknown status `{other}`")),
        };
        Ok((resp?, announced))
    }
}

/// Write one response: the header line, then — when `field` is offered
/// behind an `ok` — the binary frame the header announces, 4 little-endian
/// bytes per lane. `field` is the whole payload (a reply's own `data_bits`
/// are the reader's side and are not consulted), so the server's result
/// buffer goes to the socket without becoming a `Vec<u32>` first. The header
/// and the first 64 KiB leave in one `write`, the rest in 64 KiB steps;
/// nothing is flushed. A field over [`MAX_PAYLOAD_BYTES`] is answered, not
/// announced: an `error` header for the same id goes out in its place, so
/// the connection and the other replies on it live on. Returns the payload
/// bytes written.
pub fn write_response<W: Write>(
    w: &mut W,
    resp: &Response,
    field: Option<&[f32]>,
) -> io::Result<u64> {
    write_capped(w, resp, field, MAX_PAYLOAD_BYTES)
}

/// [`write_response`] under a frame cap of `cap` bytes (the tests' handle on
/// the over-cap answer without a 1 GiB field).
fn write_capped<W: Write>(
    w: &mut W,
    resp: &Response,
    field: Option<&[f32]>,
    cap: u64,
) -> io::Result<u64> {
    let (Response::Ok(reply), Some(field)) = (resp, field) else {
        return w.write_all(resp.header_line(None).as_bytes()).map(|()| 0);
    };
    let bytes = 4 * field.len() as u64;
    if bytes > cap {
        let message = format!("a {bytes}-byte field exceeds the {cap}-byte frame cap");
        let id = reply.id;
        return write_capped(w, &Response::Error { id, message }, None, cap);
    }
    let mut buf = resp.header_line(Some(bytes)).into_bytes();
    for chunk in field.chunks(WIRE_CHUNK / 4) {
        let at = buf.len();
        buf.resize(at + 4 * chunk.len(), 0);
        for (dst, v) in buf[at..].chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
        buf.clear();
    }
    // An empty field: the header is still to go.
    w.write_all(&buf)?;
    Ok(bytes)
}

/// Why [`read_response`] returned without a response.
#[derive(Debug)]
pub enum WireError {
    /// The socket failed, timed out, or ended mid-frame (`UnexpectedEof`).
    /// After a timeout (`WouldBlock`/`TimedOut`) the [`PartialResponse`]
    /// holds every byte consumed so far and the same call resumes the frame.
    Io(io::Error),
    /// The peer closed the stream between two frames.
    Closed,
    /// The stream is no longer framed: a header over [`MAX_HEADER_BYTES`],
    /// one that does not parse, or a `payload_bytes` that is over
    /// [`MAX_PAYLOAD_BYTES`] or is not 4 (scalar) or 16 (vec4) bytes per
    /// cell. What follows cannot be told from payload bytes, so the reader
    /// must close the connection rather than read on.
    Framing(String),
}

/// The reply [`read_response`] is in the middle of: a header line short of
/// its newline, or a parsed `ok` header and the payload words behind it that
/// have arrived. Memory is held for bytes received, never for bytes
/// announced.
#[derive(Default)]
pub struct PartialResponse {
    header: Vec<u8>,
    body: Option<PartialBody>,
}

struct PartialBody {
    reply: DeriveReply,
    /// Payload words the header announced.
    words: usize,
    bits: Vec<u32>,
    /// The 1–3 bytes of a word split across two reads.
    carry: [u8; 4],
    carried: usize,
}

/// Read one response: the header line and, if it announces one, the binary
/// frame behind it, decoded into [`DeriveReply::data_bits`] as the bytes
/// arrive. Consumes from `r` exactly the bytes of this response. See
/// [`WireError`] for what each failure leaves behind.
pub fn read_response<R: BufRead>(
    r: &mut R,
    partial: &mut PartialResponse,
) -> Result<Response, WireError> {
    let eof = || WireError::Io(io::ErrorKind::UnexpectedEof.into());
    if partial.body.is_none() {
        // `read_until` keeps what it read in `header` when it fails.
        let room = (MAX_HEADER_BYTES - partial.header.len()) as u64;
        io::Read::take(&mut *r, room)
            .read_until(b'\n', &mut partial.header)
            .map_err(WireError::Io)?;
        if partial.header.last() != Some(&b'\n') {
            return Err(match partial.header.len() {
                0 => WireError::Closed,
                MAX_HEADER_BYTES => {
                    WireError::Framing(format!("reply header exceeds {MAX_HEADER_BYTES} bytes"))
                }
                _ => eof(),
            });
        }
        let line = std::mem::take(&mut partial.header);
        let (resp, announced) = std::str::from_utf8(&line)
            .map_err(|_| "reply header is not UTF-8".to_string())
            .and_then(|text| Response::parse_header(text.trim()))
            .map_err(WireError::Framing)?;
        let (reply, bytes) = match (resp, announced) {
            (Response::Ok(reply), Some(bytes)) => (reply, bytes),
            (resp, _) => return Ok(resp),
        };
        let per_cell = |width: u64| reply.ncells.checked_mul(4 * width) == Some(bytes);
        if !(per_cell(1) || per_cell(4)) {
            return Err(WireError::Framing(format!(
                "payload_bytes {bytes} is neither 4 nor 16 bytes for each of {} cells",
                reply.ncells
            )));
        }
        partial.body = Some(PartialBody {
            reply,
            words: (bytes / 4) as usize,
            bits: Vec::new(),
            carry: [0; 4],
            carried: 0,
        });
    }
    let body = partial
        .body
        .as_mut()
        .expect("set above or by an earlier call");
    // As large as a `BufReader`, so its reads land here without a stop.
    let mut buf = [0u8; WIRE_CHUNK];
    while body.bits.len() < body.words {
        buf[..body.carried].copy_from_slice(&body.carry[..body.carried]);
        let want = (4 * (body.words - body.bits.len())).min(buf.len());
        let have = match r.read(&mut buf[body.carried..want]) {
            Ok(0) => return Err(eof()),
            Ok(n) => body.carried + n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        };
        let (whole, tail) = buf[..have].split_at(have - have % 4);
        body.bits.extend(
            whole
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        body.carry[..tail.len()].copy_from_slice(tail);
        body.carried = tail.len();
    }
    let body = partial.body.take().expect("checked above");
    Ok(Response::Ok(DeriveReply {
        data_bits: Some(body.bits),
        ..body.reply
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_request_round_trips() {
        for deadline_ms in [None, Some(0), Some(250)] {
            let req = Request::Derive(DeriveRequest {
                id: 42,
                tenant: "te\"nant".into(),
                expr: "m = u*v".into(),
                grid: [16, 8, 4],
                strategy: ExecStrategy::Staged,
                data: true,
                deadline_ms,
            });
            let line = req.to_json_line();
            assert_eq!(Request::parse(line.trim()).unwrap(), req);
        }
    }

    #[test]
    fn deadline_must_be_a_nonnegative_integer() {
        let frame = |d: &str| {
            format!(
                r#"{{"op":"derive","id":1,"tenant":"t","expr":"m = u","grid":[4,4,4],"deadline_ms":{d}}}"#
            )
        };
        assert!(Request::parse(&frame("-1")).is_err());
        assert!(Request::parse(&frame("1.5")).is_err());
        assert!(Request::parse(&frame("\"soon\"")).is_err());
        // `null` is treated as absent.
        match Request::parse(&frame("null")).unwrap() {
            Request::Derive(d) => assert_eq!(d.deadline_ms, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_id_recovers_ids_from_malformed_frames() {
        assert_eq!(Request::frame_id(r#"{"op":"nope","id":9}"#), Some(9));
        assert_eq!(Request::frame_id(r#"{"op":"derive","id":3}"#), Some(3));
        assert_eq!(Request::frame_id(r#"{"op":"derive"}"#), None);
        assert_eq!(Request::frame_id("not json at all"), None);
        assert_eq!(Request::frame_id(r#"{"id":-5}"#), None);
    }

    #[test]
    fn control_requests_round_trip() {
        for req in [
            Request::Stats { id: 1 },
            Request::Ping { id: 2 },
            Request::Shutdown { id: 3 },
        ] {
            let line = req.to_json_line();
            assert_eq!(Request::parse(line.trim()).unwrap(), req);
        }
    }

    #[test]
    fn derive_defaults_strategy_and_data() {
        let req =
            Request::parse(r#"{"op":"derive","id":1,"tenant":"t","expr":"m = u","grid":[4,4,4]}"#)
                .unwrap();
        match req {
            Request::Derive(d) => {
                assert_eq!(d.strategy, ExecStrategy::Fusion);
                assert!(!d.data);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse(r#"{"op":"derive","id":1}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"derive","id":1,"tenant":"t","expr":"m=u","grid":[4,4]}"#)
                .is_err()
        );
        assert!(Request::parse(r#"{"op":"nope","id":1}"#).is_err());
        // Grids whose field set (24 B per cell) would exceed the payload cap —
        // one whose reply (4 B per cell) would fit it among them — and a cell
        // count that overflows.
        let derive = |grid: &str| {
            let line =
                format!(r#"{{"op":"derive","id":1,"tenant":"t","expr":"m=u","grid":{grid}}}"#);
            Request::parse(&line)
        };
        assert!(derive("[44739242,1,1]").is_ok());
        for grid in [
            "[44739243,1,1]",
            "[1024,1024,256]",
            "[1024,1024,257]",
            "[100000,100000,100000]",
            "[1e300,1e300,1e300]",
        ] {
            let err = derive(grid).unwrap_err();
            assert!(err.contains("more cells than"), "{grid}: {err}");
        }
        // An id `frame_id` would not echo is not executed under another one.
        for id in [
            "-5",
            "1.5",
            "1e999",
            "18446744073709551616",
            "\"7\"",
            "null",
        ] {
            let frame = format!(r#"{{"op":"ping","id":{id}}}"#);
            assert!(Request::parse(&frame).is_err(), "id {id} accepted");
            assert_eq!(Request::frame_id(&frame), None, "id {id} echoed");
        }
        assert_eq!(
            Request::parse(r#"{"op":"ping","id":9007199254740992}"#),
            Ok(Request::Ping {
                id: 9_007_199_254_740_992
            })
        );
    }

    fn ok_reply(bits: Option<Vec<u32>>) -> DeriveReply {
        DeriveReply {
            id: 9,
            tenant: "a".into(),
            expr: "m = u*v".into(),
            ncells: bits.as_ref().map_or(4, |b| b.len() as u64),
            checksum: 2.5,
            device_ms: 0.125,
            wall_ms: 1.5,
            compiles: 1,
            coalesced: true,
            batch: 3,
            degraded: false,
            payload_sum: bits.as_ref().map(|b| {
                dfg_ocl::integrity::checksum_bits(dfg_ocl::integrity::PAYLOAD_SUM_SEED, b)
            }),
            data_bits: bits,
        }
    }

    fn as_field(bits: &[u32]) -> Vec<f32> {
        bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    /// `resp` as [`write_response`] sends it, its `data_bits` the payload.
    fn wire(resp: &Response) -> Vec<u8> {
        let field = match resp {
            Response::Ok(r) => r.data_bits.as_deref().map(as_field),
            _ => None,
        };
        let mut out = Vec::new();
        write_response(&mut out, resp, field.as_deref()).unwrap();
        out
    }

    fn read_all(mut bytes: &[u8]) -> Result<Response, WireError> {
        let resp = read_response(&mut bytes, &mut PartialResponse::default())?;
        assert!(bytes.is_empty(), "the reader left {} bytes", bytes.len());
        Ok(resp)
    }

    /// Patterns a text or float round trip would lose: signed zero, quiet
    /// and signalling NaNs with payloads, subnormals, the extremes.
    const AWKWARD_BITS: [u32; 9] = [
        0x8000_0000, // -0.0
        0x0000_0000,
        0x7FC0_0001, // quiet NaN, payload 1
        0x7FA0_1234, // signalling NaN
        0xFFFF_FFFF, // negative NaN, all payload bits
        0x0000_0001, // smallest subnormal
        0x807F_FFFF, // largest negative subnormal
        0x7F7F_FFFF, // f32::MAX
        0x3FC0_0000, // 1.5
    ];

    #[test]
    fn ok_response_round_trips_data_bits_exactly() {
        for bits in [AWKWARD_BITS.to_vec(), vec![], vec![0x0102_0304; 40_000]] {
            let resp = Response::Ok(ok_reply(Some(bits.clone())));
            let sent = wire(&resp);
            assert_eq!(read_all(&sent).unwrap(), resp);
            // The server's replies hold no `data_bits`: the field beside
            // the header is all that decides the bytes on the wire.
            let header = Response::Ok(DeriveReply {
                data_bits: None,
                ..ok_reply(Some(bits.clone()))
            });
            let mut out = Vec::new();
            let written = write_response(&mut out, &header, Some(&as_field(&bits))).unwrap();
            assert_eq!((out, written), (sent, 4 * bits.len() as u64));
        }
    }

    #[test]
    fn the_wire_layout_is_pinned_by_a_fixture() {
        // Header line, then 4 cells × 4 bytes, least significant first.
        let fixture: &[u8] = include_bytes!("../tests/fixtures/ok_frame.bin");
        let bits = vec![0x8000_0000, 0x7FC0_0001, 0x0000_0001, 0x3FC0_0000];
        let resp = Response::Ok(ok_reply(Some(bits)));
        assert_eq!(wire(&resp), fixture);
        assert_eq!(read_all(fixture).unwrap(), resp);
        let newline = fixture.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(
            &fixture[newline + 1..],
            [0, 0, 0, 0x80, 1, 0, 0xC0, 0x7F, 1, 0, 0, 0, 0, 0, 0xC0, 0x3F]
        );
        // The header alone is what `to_json_line`/`parse` speak.
        let header = std::str::from_utf8(&fixture[..=newline]).unwrap();
        assert_eq!(resp.to_json_line(), header);
        assert!(header.ends_with(",\"payload_bytes\":16}\n"));
        match Response::parse(header.trim()).unwrap() {
            Response::Ok(r) => assert_eq!((r.data_bits, r.ncells), (None, 4)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replies_without_a_payload_are_one_line() {
        let bare = Response::Ok(ok_reply(None));
        let sent = wire(&bare);
        assert_eq!(sent, bare.to_json_line().as_bytes());
        assert!(!bare.to_json_line().contains("payload_bytes"));
        assert_eq!(read_all(&sent).unwrap(), bare);
        // A field offered beside a reply that cannot carry one is ignored.
        let pong = Response::Pong { id: 3 };
        let mut out = Vec::new();
        assert_eq!(write_response(&mut out, &pong, Some(&[1.0])).unwrap(), 0);
        assert_eq!(out, pong.to_json_line().as_bytes());
    }

    #[test]
    fn a_field_over_the_cap_is_answered_with_an_error_line() {
        let resp = Response::Ok(ok_reply(None));
        let mut out = Vec::new();
        assert_eq!(
            write_capped(&mut out, &resp, Some(&[1.0; 3]), 8).unwrap(),
            0
        );
        match read_all(&out).unwrap() {
            Response::Error { id, message } => {
                assert_eq!(id, 9);
                assert!(message.contains("12-byte field"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // At the cap the frame goes out.
        out.clear();
        assert_eq!(
            write_capped(&mut out, &resp, Some(&[1.0; 2]), 8).unwrap(),
            8
        );
    }

    #[test]
    fn pipelined_frames_are_consumed_exactly() {
        let with = Response::Ok(ok_reply(Some(AWKWARD_BITS.to_vec())));
        let without = Response::Ok(ok_reply(None));
        let mut stream = wire(&with);
        stream.extend(wire(&without));
        stream.extend(wire(&with));
        let mut rest = &stream[..];
        let mut partial = PartialResponse::default();
        for want in [&with, &without, &with] {
            assert_eq!(&read_response(&mut rest, &mut partial).unwrap(), want);
        }
        assert!(matches!(
            read_response(&mut rest, &mut partial),
            Err(WireError::Closed)
        ));
    }

    /// Hands out `parts` one read at a time, timing out between them.
    struct Stalling {
        parts: std::collections::VecDeque<Vec<u8>>,
        stalled: bool,
    }

    impl io::Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.stalled, false) {
                self.stalled = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some(part) = self.parts.front_mut() else {
                return Ok(0);
            };
            let n = part.len().min(buf.len());
            buf[..n].copy_from_slice(&part[..n]);
            part.drain(..n);
            if part.is_empty() {
                self.parts.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn a_timed_out_read_resumes_at_every_split_point() {
        let resp = Response::Ok(ok_reply(Some(AWKWARD_BITS.to_vec())));
        let sent = wire(&resp);
        // Cut the frame in three at every pair of positions a stride apart:
        // inside the header, on the newline, inside a word, between words.
        for a in 0..sent.len() {
            for b in [a, (a + 3).min(sent.len()), sent.len()] {
                let parts = [&sent[..a], &sent[a..b], &sent[b..]];
                let mut r = io::BufReader::new(Stalling {
                    parts: parts
                        .iter()
                        .filter(|p| !p.is_empty())
                        .map(|p| p.to_vec())
                        .collect(),
                    stalled: false,
                });
                let mut partial = PartialResponse::default();
                let mut timeouts = 0;
                let got = loop {
                    match read_response(&mut r, &mut partial) {
                        Err(WireError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                            timeouts += 1
                        }
                        other => break other,
                    }
                };
                assert_eq!(got.unwrap(), resp, "split at {a}/{b}");
                assert!(timeouts >= 1);
            }
        }
    }

    fn framing_error(bytes: &[u8]) -> String {
        match read_all(bytes) {
            Err(WireError::Framing(m)) => m,
            other => panic!("expected a framing error, got {other:?}"),
        }
    }

    #[test]
    fn broken_frames_are_typed_errors() {
        let resp = Response::Ok(ok_reply(Some(AWKWARD_BITS.to_vec())));
        let sent = wire(&resp);
        let newline = sent.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&sent[..newline]).unwrap();

        // Truncated anywhere after the first byte: the stream ended mid-frame.
        for cut in [1, newline, newline + 1, newline + 6, sent.len() - 1] {
            match read_all(&sent[..cut]) {
                Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
        // `payload_bytes` that disagrees with `ncells`.
        let lying = header.replace("\"payload_bytes\":36", "\"payload_bytes\":40");
        assert_ne!(lying, header);
        assert!(framing_error(format!("{lying}\n").as_bytes()).contains("payload_bytes 40"));
        // Over the cap, though consistent with `ncells`.
        let huge = header
            .replace("\"payload_bytes\":36", "\"payload_bytes\":4294967296")
            .replace("\"ncells\":9", "\"ncells\":1073741824");
        assert!(framing_error(format!("{huge}\n").as_bytes()).contains("payload_bytes"));
        // Not a number of bytes at all.
        for bad in ["-4", "1.5", "\"36\"", "null"] {
            let line = header.replace("\"payload_bytes\":36", &format!("\"payload_bytes\":{bad}"));
            framing_error(format!("{line}\n").as_bytes());
        }
        // A payload with no header: binary where a header line should be,
        // read up to the next reply's newline or to a stray one of its own.
        let mut orphan = sent[newline + 1..].to_vec();
        orphan.extend(wire(&Response::Pong { id: 1 }));
        framing_error(&orphan);
        framing_error(&[0xFFu8, 0x00, 0x0A, 0x80]);
        let endless = vec![0xAAu8; MAX_HEADER_BYTES + 1];
        assert!(framing_error(&endless).contains("header exceeds"));
    }

    #[test]
    fn memory_follows_bytes_received_not_bytes_announced() {
        // The largest announcement the cap allows, then 40 bytes and silence.
        let header = Response::Ok(DeriveReply {
            ncells: MAX_PAYLOAD_BYTES / 4,
            ..ok_reply(None)
        })
        .header_line(Some(MAX_PAYLOAD_BYTES));
        let mut stream = header.into_bytes();
        stream.extend([7u8; 40]);
        let mut partial = PartialResponse::default();
        match read_response(&mut &stream[..], &mut partial) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("unexpected {other:?}"),
        }
        let body = partial.body.expect("the header was accepted");
        assert_eq!(body.words as u64, MAX_PAYLOAD_BYTES / 4);
        assert_eq!(body.bits.len(), 10);
        assert!(body.bits.capacity() < 1024, "{}", body.bits.capacity());
    }

    #[test]
    fn payload_sum_survives_full_u64_range() {
        // A sum above 2^53 would be silently rounded if carried as a JSON
        // number; the string encoding must round-trip it bit-exactly.
        let resp = Response::Ok(DeriveReply {
            id: 1,
            tenant: "a".into(),
            expr: "m = u".into(),
            ncells: 1,
            checksum: 0.0,
            device_ms: 0.0,
            wall_ms: 0.0,
            compiles: 0,
            coalesced: false,
            batch: 1,
            degraded: false,
            data_bits: None,
            payload_sum: Some(u64::MAX - 12345),
        });
        let line = resp.to_json_line();
        assert_eq!(Response::parse(line.trim()).unwrap(), resp);
    }

    #[test]
    fn non_finite_checksum_encodes_without_panicking() {
        // Garbled requests can decode Inf f32 inputs; summing the derived
        // field then yields a non-finite checksum, which JSON cannot carry
        // as a number. The encoder must not panic and the decoder must
        // surface NaN rather than reject the frame.
        let resp = Response::Ok(DeriveReply {
            id: 2,
            tenant: "a".into(),
            expr: "m = u".into(),
            ncells: 8,
            checksum: f64::INFINITY,
            device_ms: 0.5,
            wall_ms: 0.5,
            compiles: 0,
            coalesced: false,
            batch: 1,
            degraded: false,
            data_bits: None,
            payload_sum: None,
        });
        let line = resp.to_json_line();
        assert!(line.contains("\"checksum\":null"));
        match Response::parse(line.trim()).unwrap() {
            Response::Ok(r) => assert!(r.checksum.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_response_round_trips() {
        let resp = Response::Stats {
            id: 5,
            server: ServerCounters {
                requests: 10,
                ok: 8,
                rejected_overload: 1,
                rejected_quota: 1,
                errors: 0,
                batches: 4,
                coalesced: 3,
                merged: 2,
                degraded: 1,
                rejected_too_large: 1,
                rejected_deadline: 2,
                cancelled: 1,
                evicted_idle: 1,
                evicted_pressure: 1,
                evicted_fields: 3,
                malformed: 4,
                payload_bytes: 1 << 20,
            },
            tenants: vec![TenantStats {
                tenant: "a".into(),
                session: dfg_core::SessionStats {
                    cycles: 8,
                    uploads: 7,
                    uploads_skipped: 35,
                    codegen_compiles: 1,
                    codegen_cached: 7,
                    merged: 2,
                    opt_saved_kernels: 5,
                    integrity_healed: 1,
                },
                pool_hits: 6,
                pooled_bytes: 1024,
                resident_bytes: 2048,
                in_use_bytes: 2048,
                quota_bytes: 1 << 20,
                integrity_checks: 12,
                integrity_violations: 1,
                idle_ms: 1500,
            }],
        };
        let line = resp.to_json_line();
        assert_eq!(Response::parse(line.trim()).unwrap(), resp);
    }

    #[test]
    fn rejections_round_trip() {
        for (resp, tag) in [
            (
                Response::Rejected {
                    id: 1,
                    kind: RejectKind::Overloaded,
                    message: "queue full".into(),
                },
                "overloaded",
            ),
            (
                Response::Rejected {
                    id: 2,
                    kind: RejectKind::QuotaExceeded,
                    message: "quota".into(),
                },
                "quota_exceeded",
            ),
            (
                Response::Rejected {
                    id: 3,
                    kind: RejectKind::TooLarge,
                    message: "frame over 64 KiB".into(),
                },
                "too_large",
            ),
            (
                Response::Rejected {
                    id: 4,
                    kind: RejectKind::DeadlineExceeded,
                    message: "deadline passed in queue".into(),
                },
                "deadline_exceeded",
            ),
        ] {
            let line = resp.to_json_line();
            assert!(line.contains(tag));
            assert_eq!(Response::parse(line.trim()).unwrap(), resp);
        }
    }
}
