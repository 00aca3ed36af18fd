//! Chaos benchmark: goodput under seeded connection faults.
//!
//! Four tenants push one hundred requests each against an in-process
//! `dfg-serve` server whose accepted sockets drop, stall, and garble
//! under a seeded [`dfg_ocl::FaultPlan`], at overall fault rates of
//! 0 / 1 / 5 / 20 percent of connection I/O operations. Per rate:
//! goodput (fraction of requests answered `ok`) and the server's
//! typed-failure counters. Every surviving reply is asserted bit-identical
//! to the fault-free run — chaos may cost throughput, never correctness.
//!
//! Writes `BENCH_chaos.json`, a run artifact that is not committed (it is
//! gitignored): which request a fault lands on depends on how the tenants'
//! socket operations interleave, so the `ok`/`dropped` counts at non-zero
//! rates move from run to run. Request latency under load is `bench/`'s
//! `serve_small` workload.

use std::time::Duration;

use dfg_ocl::FaultPlan;
use dfg_serve::{Client, ClientError, ExecStrategy, ServeConfig, Server};

const EXPR: &str = "vmag = sqrt(u*u + v*v + w*w)";
const GRID: [usize; 3] = [16, 16, 16];
const TENANTS: usize = 4;
const REQUESTS_PER_TENANT: usize = 100;

/// One measured arm: overall fault rate, its plan spec, and the outcome.
struct RatePoint {
    rate_pct: f64,
    spec: Option<&'static str>,
    ok: usize,
    dropped: usize,
    reconnects: usize,
    cancelled: u64,
    malformed: u64,
}

/// Run the full tenant load against a server with `spec` faults
/// installed; returns the outcome plus the bits of the first surviving
/// reply (for cross-rate bit-exactness checks).
fn run_rate(rate_pct: f64, spec: Option<&'static str>) -> (RatePoint, Option<Vec<u32>>) {
    let config = ServeConfig {
        conn_faults: spec.map(|s| FaultPlan::parse(s).expect("fault spec")),
        conn_stall: Duration::from_millis(5),
        idle_ttl: Some(Duration::from_secs(600)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();

    let mut handles = Vec::new();
    for t in 0..TENANTS {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let tenant = format!("t{t}");
            let mut client: Option<Client> = None;
            let mut bits: Option<Vec<u32>> = None;
            let (mut ok, mut dropped, mut reconnects) = (0usize, 0usize, 0usize);
            for _ in 0..REQUESTS_PER_TENANT {
                let c = match &mut client {
                    Some(c) => c,
                    None => match Client::connect(&addr) {
                        Ok(c) => {
                            c.set_read_timeout(Some(Duration::from_secs(2)))
                                .expect("timeout");
                            reconnects += 1;
                            client.insert(c)
                        }
                        Err(_) => {
                            dropped += 1;
                            continue;
                        }
                    },
                };
                match c.derive_with_deadline(
                    &tenant,
                    EXPR,
                    GRID,
                    ExecStrategy::Fusion,
                    true,
                    Some(Duration::from_secs(30)),
                ) {
                    Ok(reply) => {
                        // A garble can turn the request into a different but
                        // valid one, which the server faithfully executes;
                        // the echoed expr/tenant/shape exposes it, as does a
                        // missing payload (a garbled "data" key). Count it
                        // as an integrity drop, not goodput.
                        let got = match reply.data_bits {
                            Some(got)
                                if reply.expr == EXPR
                                    && reply.tenant == tenant
                                    && reply.ncells == (GRID[0] * GRID[1] * GRID[2]) as u64 =>
                            {
                                got
                            }
                            _ => {
                                dropped += 1;
                                continue;
                            }
                        };
                        if let Some(b) = &bits {
                            assert_eq!(b, &got, "{tenant}: bit drift between replies");
                        } else {
                            bits = Some(got);
                        }
                        ok += 1;
                    }
                    Err(ClientError::Io(_)) => {
                        client = None;
                        dropped += 1;
                    }
                    Err(_) => dropped += 1,
                }
            }
            (ok, dropped, reconnects, bits)
        }));
    }

    let (mut ok, mut dropped, mut reconnects) = (0usize, 0usize, 0usize);
    let mut bits: Option<Vec<u32>> = None;
    for h in handles {
        let (o, d, r, b) = h.join().expect("tenant thread panicked");
        ok += o;
        dropped += d;
        reconnects += r;
        if bits.is_none() {
            bits = b;
        } else if let Some(got) = b {
            assert_eq!(bits.as_ref(), Some(&got), "bit drift between tenants");
        }
    }
    server.shutdown();
    let counters = server.join().expect("server panicked under chaos");

    // Connections are not sessions: the first connect per tenant is setup,
    // not chaos-induced.
    let point = RatePoint {
        rate_pct,
        spec,
        ok,
        dropped,
        reconnects: reconnects.saturating_sub(TENANTS),
        cancelled: counters.cancelled,
        malformed: counters.malformed,
    };
    (point, bits)
}

fn main() {
    println!(
        "chaos bench: {TENANTS} tenants x {REQUESTS_PER_TENANT} requests, {GRID:?} grid, \
         seeded connection faults"
    );

    // Rates are split across the three connection-fault kinds, roughly
    // 50% drops / 30% stalls / 20% garbles of the overall rate.
    let arms: [(f64, Option<&'static str>); 4] = [
        (0.0, None),
        (
            1.0,
            Some("conn_drop:0.005, conn_stall:0.003, byte_garble:0.002, seed=101"),
        ),
        (
            5.0,
            Some("conn_drop:0.025, conn_stall:0.015, byte_garble:0.01, seed=102"),
        ),
        (
            20.0,
            Some("conn_drop:0.1, conn_stall:0.06, byte_garble:0.04, seed=103"),
        ),
    ];

    let mut points = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    for (rate, spec) in arms {
        let (p, bits) = run_rate(rate, spec);
        // Surviving replies at every fault rate match the fault-free run.
        match (&reference, bits) {
            (None, b) => reference = b,
            (Some(want), Some(got)) => {
                assert_eq!(want, &got, "{rate}%: bits differ from fault-free run")
            }
            (Some(_), None) => {}
        }
        println!(
            "  {:>5.1}% faults: {:>3}/{} ok ({} dropped, {} reconnects)",
            p.rate_pct,
            p.ok,
            TENANTS * REQUESTS_PER_TENANT,
            p.dropped,
            p.reconnects,
        );
        points.push(p);
    }

    assert_eq!(
        points[0].ok,
        TENANTS * REQUESTS_PER_TENANT,
        "fault-free arm dropped requests"
    );

    let rates_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                r#"    {{"fault_rate_pct": {}, "spec": {}, "total": {}, "ok": {}, "dropped": {}, "reconnects": {}, "goodput": {:.4}, "server_cancelled": {}, "server_malformed": {}}}"#,
                p.rate_pct,
                p.spec
                    .map(|s| format!("\"{s}\""))
                    .unwrap_or_else(|| "null".into()),
                TENANTS * REQUESTS_PER_TENANT,
                p.ok,
                p.dropped,
                p.reconnects,
                p.ok as f64 / (TENANTS * REQUESTS_PER_TENANT) as f64,
                p.cancelled,
                p.malformed,
            )
        })
        .collect();
    let json = format!(
        r#"{{
  "benchmark": "chaos",
  "grid": [{}, {}, {}],
  "expr": "{EXPR}",
  "tenants": {TENANTS},
  "requests_per_tenant": {REQUESTS_PER_TENANT},
  "device": "Intel Xeon X5660 (modeled)",
  "surviving_replies_bit_exact": true,
  "rates": [
{}
  ]
}}
"#,
        GRID[0],
        GRID[1],
        GRID[2],
        rates_json.join(",\n"),
    );
    std::fs::write("BENCH_chaos.json", json).expect("write BENCH_chaos.json");
    println!("results written to BENCH_chaos.json");
}
