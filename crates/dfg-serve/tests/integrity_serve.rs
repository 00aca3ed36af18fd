//! End-to-end payload-integrity tests: the reply checksum crosses the
//! wire, a garbled payload surfaces as the transient
//! [`ClientError::Corrupt`], and a [`RetryPolicy`] re-fetch gets clean
//! bits. Server-side, a registry running with verification enabled
//! reports its integrity counters through the stats endpoint.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use dfg_ocl::integrity::{checksum_bits, PAYLOAD_SUM_SEED};
use dfg_ocl::VerifyPolicy;
use dfg_serve::protocol::write_response;
use dfg_serve::{
    Client, ClientError, DeriveReply, ExecStrategy, Request, Response, RetryPolicy, ServeConfig,
    Server,
};

/// A minimal in-test server that answers derive requests with a fixed
/// payload through the one wire writer, garbling the first `garble_first`
/// replies *after* computing the checksum over the clean bits: one bit of
/// the binary frame differs from what the header's `payload_sum` covers —
/// exactly what a transport-level bit flip between server and client
/// looks like.
fn garbling_server(bits: Vec<u32>, garble_first: usize) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut served = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let req = match Request::parse(line.trim()) {
                Ok(r) => r,
                Err(_) => continue,
            };
            match req {
                Request::Derive(d) => {
                    let sum = checksum_bits(PAYLOAD_SUM_SEED, &bits);
                    let mut sent = bits.clone();
                    if served < garble_first {
                        sent[37] ^= 1 << 31;
                    }
                    served += 1;
                    let resp = Response::Ok(DeriveReply {
                        id: d.id,
                        tenant: d.tenant.clone(),
                        expr: d.expr.clone(),
                        ncells: sent.len() as u64,
                        checksum: 0.0,
                        device_ms: 0.0,
                        wall_ms: 0.0,
                        compiles: 0,
                        coalesced: false,
                        batch: 1,
                        degraded: false,
                        data_bits: None,
                        payload_sum: Some(sum),
                    });
                    let field: Vec<f32> = sent.iter().map(|&b| f32::from_bits(b)).collect();
                    write_response(&mut writer, &resp, Some(&field)).unwrap();
                }
                Request::Shutdown { id } => {
                    write_response(&mut writer, &Response::ShuttingDown { id }, None).unwrap();
                    return;
                }
                _ => {}
            }
        }
    });
    (addr, handle)
}

#[test]
fn garbled_reply_is_corrupt_and_a_retry_refetches_clean_bits() {
    let bits: Vec<u32> = (0..64u32).map(|i| (1.0f32 + i as f32).to_bits()).collect();
    let (addr, handle) = garbling_server(bits.clone(), 1);
    let mut client = Client::connect(&addr).unwrap();

    // First fetch sees the flipped bit as a typed, transient corruption.
    let err = client
        .derive("t", "m = u", [4, 4, 4], ExecStrategy::Fusion, true)
        .unwrap_err();
    match &err {
        ClientError::Corrupt {
            expected, actual, ..
        } => assert_ne!(expected, actual),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(err.is_transient(), "corruption must be retryable");

    // The same request through a RetryPolicy heals by re-fetching.
    let mut policy = RetryPolicy::new(2, Duration::from_micros(10), Duration::from_micros(100), 42);
    let reply = policy
        .retry(|| client.derive("t", "m = u", [4, 4, 4], ExecStrategy::Fusion, true))
        .unwrap();
    assert_eq!(
        reply.data_bits.as_deref(),
        Some(&bits[..]),
        "re-fetched payload is bit-identical to the clean field"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn real_server_attaches_payload_sum_and_reports_integrity_counters() {
    let mut cfg = ServeConfig::default();
    cfg.options.verify = VerifyPolicy::Full;
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    // Two cycles on one tenant: the second skips resident re-uploads,
    // which under `Full` verification revalidates each resident first.
    let r1 = client
        .derive("t", "m = u*v", [8, 8, 8], ExecStrategy::Fusion, true)
        .unwrap();
    let r2 = client
        .derive("t", "m = u*v", [8, 8, 8], ExecStrategy::Fusion, true)
        .unwrap();
    assert!(r1.payload_sum.is_some(), "data replies carry a checksum");
    assert_eq!(r1.data_bits, r2.data_bits);
    assert_eq!(r1.payload_sum, r2.payload_sum);

    // A reply without data carries no checksum.
    let bare = client
        .derive("t", "m = u*v", [8, 8, 8], ExecStrategy::Fusion, false)
        .unwrap();
    assert!(bare.data_bits.is_none());
    assert!(bare.payload_sum.is_none());

    match client.stats().unwrap() {
        Response::Stats { tenants, .. } => {
            let t = tenants.iter().find(|t| t.tenant == "t").unwrap();
            assert!(
                t.integrity_checks > 0,
                "verification ran under VerifyPolicy::Full"
            );
            assert_eq!(t.integrity_violations, 0, "no faults injected");
        }
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    server.join().unwrap();
}
