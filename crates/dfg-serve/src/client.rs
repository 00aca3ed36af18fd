//! A blocking client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection. The simple path is the
//! call-and-wait helpers ([`Client::derive`], [`Client::stats`],
//! [`Client::ping`]); the pipelined path is [`Client::send`] /
//! [`Client::recv_for`], which lets a load generator keep many requests
//! in flight on one connection and match replies by id.
//!
//! Replies are read through [`read_response`], the one wire reader: the
//! header line and, behind an `ok` that announces it, the binary payload
//! frame, decoded into [`DeriveReply::data_bits`] as it arrives. A read that
//! times out ([`Client::set_read_timeout`]) keeps the part of the frame
//! already received, header or payload, and the next [`Client::recv_for`]
//! resumes it; a reply that breaks the framing ([`ClientError::Framing`])
//! closes the connection, because what follows a header that cannot be
//! trusted cannot be told from payload bytes.
//!
//! Failures are **typed**: a refused request surfaces as
//! [`ClientError::Rejected`] carrying the server's [`RejectKind`], so
//! callers can branch on `overloaded` vs `deadline_exceeded` vs
//! `quota_exceeded` instead of string-matching. Transient failures
//! ([`ClientError::is_transient`]) compose with [`RetryPolicy`] — a
//! seeded exponential-backoff loop whose jitter is reproducible, in the
//! same spirit as the engine's deterministic recovery ladder.
//!
//! # Examples
//!
//! ```
//! use dfg_serve::{Client, ExecStrategy, ServeConfig, Server};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
//!
//! client.ping().unwrap();
//! let reply = client
//!     .derive("bob", "m = u*v", [4, 4, 4], ExecStrategy::Fusion, true)
//!     .unwrap();
//! assert_eq!(reply.data_bits.as_ref().unwrap().len(), 64);
//!
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use crate::protocol::{
    read_response, DeriveReply, DeriveRequest, ExecStrategy, PartialResponse, RejectKind, Request,
    Response, WireError,
};

/// A blocking connection to a serve instance.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Replies read while waiting for a different id (pipelining).
    pending: HashMap<u64, Response>,
    /// The reply a timed-out read left unfinished.
    partial: PartialResponse,
    /// Set once the reply stream is unusable (framing error, socket error,
    /// end of stream): every later receive fails with `NotConnected`.
    closed: bool,
}

/// Client-side failure: transport error, typed server rejection, or a
/// protocol-level parse error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server refused the request with a typed rejection.
    Rejected {
        /// Why the server refused (`overloaded`, `deadline_exceeded`,
        /// `too_large`, `quota_exceeded`, ...).
        kind: RejectKind,
        /// The server's human-readable explanation.
        message: String,
    },
    /// The server's reply was of an unexpected shape, or the server closed
    /// the connection.
    Protocol(String),
    /// The reply stream lost its framing — an oversized or unparseable
    /// header, or a `payload_bytes` that is over the cap or disagrees with
    /// `ncells`. The client has closed the connection: reconnect to go on.
    Framing(String),
    /// The reply parsed but its payload failed the checksum the server
    /// attached (`payload_sum`): the bits were garbled in flight. The
    /// request itself is fine, so this is transient — a [`RetryPolicy`]
    /// re-fetch gets a clean copy.
    Corrupt {
        /// Request id of the corrupted reply.
        id: u64,
        /// Checksum the server computed over the payload it sent.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
}

impl ClientError {
    /// Whether retrying the same request may succeed: connection faults,
    /// `overloaded` rejections, and corrupted payloads are transient;
    /// deadline, size, quota, and malformed-request failures are not (the
    /// request itself is the problem).
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Rejected { kind, .. } => matches!(kind, RejectKind::Overloaded),
            ClientError::Protocol(_) | ClientError::Framing(_) => false,
            ClientError::Corrupt { .. } => true,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Rejected { kind, message } => {
                write!(f, "{}: {message}", kind.as_str())
            }
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Framing(m) => write!(f, "framing error, connection closed: {m}"),
            ClientError::Corrupt {
                id,
                expected,
                actual,
            } => write!(
                f,
                "corrupt payload in reply {id}: checksum {actual:#018x} != expected {expected:#018x}"
            ),
        }
    }
}

/// Verify a reply's payload against the checksum the server attached.
///
/// Returns [`ClientError::Corrupt`] when `data_bits` and `payload_sum` are
/// both present and disagree. A reply without a payload — or from a server
/// that attached no checksum — has nothing to verify and passes. Called
/// automatically by [`Client::derive`] / [`Client::derive_with_deadline`];
/// exposed for callers that drive the pipelined [`Client::send`] /
/// [`Client::recv_for`] path themselves.
pub fn verify_payload(reply: &DeriveReply) -> Result<(), ClientError> {
    if let (Some(bits), Some(expected)) = (&reply.data_bits, reply.payload_sum) {
        let actual = dfg_ocl::integrity::checksum_bits(dfg_ocl::integrity::PAYLOAD_SUM_SEED, bits);
        if actual != expected {
            return Err(ClientError::Corrupt {
                id: reply.id,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Seeded exponential backoff for transient failures.
///
/// The jitter stream is a xorshift PRNG keyed by `seed`, so a retry
/// schedule — like everything else in this codebase's failure tooling —
/// is reproducible: the same seed and failure sequence sleep for the
/// same durations.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts beyond the first (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    state: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_millis(10), Duration::from_millis(500), 1)
    }
}

impl RetryPolicy {
    /// A policy with explicit bounds and jitter seed.
    pub fn new(max_retries: u32, base_delay: Duration, max_delay: Duration, seed: u64) -> Self {
        RetryPolicy {
            max_retries,
            base_delay,
            max_delay,
            // xorshift must not start at 0; fold the seed to non-zero.
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// The backoff before retry number `attempt` (0-based): exponential
    /// `base * 2^attempt` capped at `max_delay`, scaled by a jitter factor
    /// drawn uniformly from `[0.5, 1.0]`.
    pub fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let jitter = 0.5 + (self.next_u64() % 1000) as f64 / 2000.0;
        exp.mul_f64(jitter)
    }

    /// Run `op` until it succeeds, exhausts the retry budget, or fails
    /// non-transiently. Each retry reconnects from scratch via `op` (the
    /// closure owns connection setup), sleeping the seeded backoff first.
    pub fn retry<T>(
        &mut self,
        mut op: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.max_retries => {
                    std::thread::sleep(self.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:49152"`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            next_id: 1,
            pending: HashMap::new(),
            partial: PartialResponse::default(),
            closed: false,
        })
    }

    /// Bound how long [`Client::recv`] blocks on the socket. A timed-out
    /// read surfaces as [`ClientError::Io`] (`WouldBlock`/`TimedOut`),
    /// which [`ClientError::is_transient`] classifies as retryable; the
    /// bytes it had received stay with the client and the next
    /// [`Client::recv`] continues the same reply.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send a raw request without waiting; returns the id to pass to
    /// [`Client::recv_for`]. The id inside `req` is overwritten with a
    /// fresh one so pipelined replies stay matchable.
    pub fn send(&mut self, mut req: Request) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        match &mut req {
            Request::Derive(d) => d.id = id,
            Request::Stats { id: slot }
            | Request::Ping { id: slot }
            | Request::Shutdown { id: slot } => *slot = id,
        }
        self.stream.write_all(req.to_json_line().as_bytes())?;
        self.stream.flush()?;
        Ok(id)
    }

    /// Read the next reply off the wire, whatever its id.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if self.closed {
            return Err(ClientError::Io(std::io::ErrorKind::NotConnected.into()));
        }
        let err = match read_response(&mut self.reader, &mut self.partial) {
            Ok(resp) => return Ok(resp),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ClientError::Io(e));
            }
            Err(WireError::Io(e)) => ClientError::Io(e),
            Err(WireError::Closed) => ClientError::Protocol("server closed the connection".into()),
            Err(WireError::Framing(m)) => ClientError::Framing(m),
        };
        self.closed = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        Err(err)
    }

    /// Read replies until the one for `id` arrives, stashing replies to
    /// other in-flight requests for their own `recv_for` calls.
    pub fn recv_for(&mut self, id: u64) -> Result<Response, ClientError> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let resp = self.recv()?;
            let got = response_id(&resp);
            if got == id {
                return Ok(resp);
            }
            self.pending.insert(got, resp);
        }
    }

    /// Send one request and wait for its reply.
    pub fn request(&mut self, req: Request) -> Result<Response, ClientError> {
        let id = self.send(req)?;
        self.recv_for(id)
    }

    /// Derive a field and wait. Rejections become the typed
    /// [`ClientError::Rejected`]; execution errors become
    /// [`ClientError::Protocol`].
    pub fn derive(
        &mut self,
        tenant: &str,
        expr: &str,
        grid: [usize; 3],
        strategy: ExecStrategy,
        data: bool,
    ) -> Result<DeriveReply, ClientError> {
        self.derive_with_deadline(tenant, expr, grid, strategy, data, None)
    }

    /// [`Client::derive`] with a per-request deadline: the server rejects
    /// the request with `deadline_exceeded` once `deadline` elapses,
    /// whether it is still queued or mid-execution.
    pub fn derive_with_deadline(
        &mut self,
        tenant: &str,
        expr: &str,
        grid: [usize; 3],
        strategy: ExecStrategy,
        data: bool,
        deadline: Option<Duration>,
    ) -> Result<DeriveReply, ClientError> {
        let resp = self.request(Request::Derive(DeriveRequest {
            id: 0,
            tenant: tenant.to_string(),
            expr: expr.to_string(),
            grid,
            strategy,
            data,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
        }))?;
        match resp {
            Response::Ok(reply) => {
                verify_payload(&reply)?;
                Ok(reply)
            }
            Response::Rejected { kind, message, .. } => {
                Err(ClientError::Rejected { kind, message })
            }
            Response::Error { message, .. } => Err(ClientError::Protocol(message)),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Fetch server counters and per-tenant stats.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        let resp = self.request(Request::Stats { id: 0 })?;
        match resp {
            Response::Stats { .. } => Ok(resp),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(Request::Ping { id: 0 })? {
            Response::Pong { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }

    /// Ask the server to drain and exit; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(Request::Shutdown { id: 0 })? {
            Response::ShuttingDown { .. } | Response::Rejected { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected reply {other:?}"))),
        }
    }
}

fn response_id(resp: &Response) -> u64 {
    match resp {
        Response::Ok(r) => r.id,
        Response::Pong { id }
        | Response::Stats { id, .. }
        | Response::ShuttingDown { id }
        | Response::Rejected { id, .. }
        | Response::Error { id, .. } => *id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_matches_reject_kinds() {
        let io = ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "boom",
        ));
        assert!(io.is_transient());
        let overloaded = ClientError::Rejected {
            kind: RejectKind::Overloaded,
            message: "queue full".into(),
        };
        assert!(overloaded.is_transient());
        for kind in [
            RejectKind::DeadlineExceeded,
            RejectKind::TooLarge,
            RejectKind::QuotaExceeded,
            RejectKind::ShuttingDown,
        ] {
            let e = ClientError::Rejected {
                kind,
                message: "no".into(),
            };
            assert!(!e.is_transient(), "{e} must not be transient");
        }
        assert!(!ClientError::Protocol("garbled".into()).is_transient());
        let corrupt = ClientError::Corrupt {
            id: 1,
            expected: 2,
            actual: 3,
        };
        assert!(
            corrupt.is_transient(),
            "a garbled payload is transient: a re-fetch gets clean bits"
        );
    }

    #[test]
    fn verify_payload_catches_a_single_garbled_bit() {
        let bits: Vec<u32> = [1.0f32, 2.0, 3.0].iter().map(|f| f.to_bits()).collect();
        let sum = dfg_ocl::integrity::checksum_bits(dfg_ocl::integrity::PAYLOAD_SUM_SEED, &bits);
        let mut reply = DeriveReply {
            id: 7,
            tenant: "a".into(),
            expr: "m = u".into(),
            ncells: 3,
            checksum: 6.0,
            device_ms: 0.0,
            wall_ms: 0.0,
            compiles: 0,
            coalesced: false,
            batch: 1,
            degraded: false,
            data_bits: Some(bits),
            payload_sum: Some(sum),
        };
        assert!(verify_payload(&reply).is_ok());
        reply.data_bits.as_mut().unwrap()[1] ^= 1 << 19;
        match verify_payload(&reply) {
            Err(ClientError::Corrupt { id: 7, .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // No payload, or no server-side sum: nothing to verify.
        reply.payload_sum = None;
        assert!(verify_payload(&reply).is_ok());
        reply.data_bits = None;
        assert!(verify_payload(&reply).is_ok());
    }

    #[test]
    fn rejected_display_keeps_the_wire_status_prefix() {
        let e = ClientError::Rejected {
            kind: RejectKind::QuotaExceeded,
            message: "tenant over budget".into(),
        };
        assert_eq!(e.to_string(), "quota_exceeded: tenant over budget");
    }

    #[test]
    fn backoff_is_seed_stable_and_bounded() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut p = RetryPolicy::new(
                5,
                Duration::from_millis(10),
                Duration::from_millis(100),
                seed,
            );
            (0..5).map(|a| p.backoff(a)).collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same jitter");
        assert_ne!(schedule(7), schedule(8), "different seeds differ");
        let mut p = RetryPolicy::new(5, Duration::from_millis(10), Duration::from_millis(100), 7);
        for a in 0..8 {
            let b = p.backoff(a);
            assert!(
                b <= Duration::from_millis(100),
                "capped at max_delay: {b:?}"
            );
            assert!(b >= Duration::from_millis(5), "at least half the base");
        }
    }

    #[test]
    fn retry_stops_on_non_transient_and_counts_attempts() {
        let mut p = RetryPolicy::new(3, Duration::from_micros(1), Duration::from_micros(2), 1);
        let mut calls = 0u32;
        let out: Result<(), _> = p.retry(|| {
            calls += 1;
            Err(ClientError::Rejected {
                kind: RejectKind::TooLarge,
                message: "frame".into(),
            })
        });
        assert!(out.is_err());
        assert_eq!(calls, 1, "non-transient fails immediately");

        let mut p = RetryPolicy::new(3, Duration::from_micros(1), Duration::from_micros(2), 1);
        let mut calls = 0u32;
        let out = p.retry(|| {
            calls += 1;
            if calls < 3 {
                Err(ClientError::Rejected {
                    kind: RejectKind::Overloaded,
                    message: "busy".into(),
                })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3, "transient retried until success");
    }
}
