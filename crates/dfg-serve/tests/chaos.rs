//! Chaos acceptance: multi-tenant load under seeded connection faults.
//!
//! Four tenants push one hundred requests each while the server's
//! accepted sockets drop, stall, and garble under a seeded
//! [`dfg_ocl::FaultPlan`]. The bar:
//!
//! * **zero panics** — the server answers or cleanly closes, always;
//! * **bit-exactness** — every reply that survives the faults carries
//!   bits identical to a fault-free local engine run;
//! * **no leaks** — after the load stops and the idle TTL passes, every
//!   tenant session is evicted and device-byte accounting returns to
//!   zero;
//! * **bounded rejection** — an expired deadline is answered
//!   `deadline_exceeded` without waiting on execution.

use std::thread;
use std::time::{Duration, Instant};

use dfg_core::{Engine, FieldSet, Strategy};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, FaultPlan};
use dfg_serve::{Client, ClientError, ExecStrategy, RejectKind, Response, ServeConfig, Server};

const EXPR: &str = "vmag = sqrt(u*u + v*v + w*w)";
const GRID: [usize; 3] = [8, 8, 8];
const TENANTS: usize = 4;
const REQUESTS: usize = 100;

/// Reference bits from a fault-free, local, single-tenant run.
fn local_bits() -> Vec<u32> {
    let mesh = RectilinearMesh::unit_cube(GRID);
    let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let request = dfg_core::Request::source(EXPR, Strategy::Fusion);
    let (out, _) = engine.run(&request, &fields).unwrap();
    out[0].data.iter().map(|f| f.to_bits()).collect()
}

struct LoadOutcome {
    ok: usize,
    dropped: usize,
}

/// Drive `TENANTS × REQUESTS` derives against `addr`, reconnecting on
/// connection faults. Every surviving reply is asserted bit-identical to
/// `want`; everything else (I/O faults, garbled frames answered with
/// typed errors, rejections) counts as dropped.
fn run_load(addr: &str, want: &[u32]) -> LoadOutcome {
    let mut handles = Vec::new();
    for t in 0..TENANTS {
        let addr = addr.to_string();
        let want = want.to_vec();
        handles.push(thread::spawn(move || {
            let tenant = format!("tenant-{t}");
            let mut client: Option<Client> = None;
            let (mut ok, mut dropped) = (0usize, 0usize);
            for _ in 0..REQUESTS {
                let c = match &mut client {
                    Some(c) => c,
                    None => match Client::connect(&addr) {
                        Ok(c) => {
                            // A bounded read guard so a reply lost to a
                            // garbled id cannot hang the driver.
                            c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
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
                        // A garble can mutate the request into a *different
                        // but valid* request, which the server faithfully
                        // executes. The reply's echo exposes that: a
                        // mismatched expr/tenant/shape — or a missing
                        // payload when one was requested (a garbled "data"
                        // key) — is an integrity drop, not a correctness bug.
                        if reply.expr != EXPR
                            || reply.tenant != tenant
                            || reply.ncells != (GRID[0] * GRID[1] * GRID[2]) as u64
                            || reply.data_bits.is_none()
                        {
                            dropped += 1;
                            continue;
                        }
                        assert_eq!(
                            reply.data_bits.as_deref(),
                            Some(&want[..]),
                            "{tenant}: surviving reply is not bit-exact"
                        );
                        ok += 1;
                    }
                    Err(ClientError::Io(_)) => {
                        // Injected drop/stall-timeout: reconnect and move on.
                        client = None;
                        dropped += 1;
                    }
                    Err(_) => {
                        // A garbled frame answered with a typed error, or a
                        // typed rejection. The connection itself is fine.
                        dropped += 1;
                    }
                }
            }
            (ok, dropped)
        }));
    }
    let mut out = LoadOutcome { ok: 0, dropped: 0 };
    for h in handles {
        let (ok, dropped) = h.join().expect("tenant thread panicked");
        out.ok += ok;
        out.dropped += dropped;
    }
    out
}

fn chaos_config(faults: Option<FaultPlan>) -> ServeConfig {
    ServeConfig {
        conn_faults: faults,
        conn_stall: Duration::from_millis(5),
        idle_ttl: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    }
}

#[test]
fn chaos_load_is_bit_exact_and_leak_free() {
    let want = local_bits();

    // Fault-free baseline: nothing may drop.
    let server = Server::start("127.0.0.1:0", chaos_config(None)).unwrap();
    let out = run_load(&server.local_addr().to_string(), &want);
    assert_eq!(
        out.ok,
        TENANTS * REQUESTS,
        "fault-free run dropped requests"
    );
    assert_eq!(out.dropped, 0);
    server.shutdown();
    server.join().unwrap();

    // Faulted runs at increasing rates: drops are expected, panics and
    // bit-drift are not, and some work must still get through.
    for spec in [
        "conn_drop:0.005, conn_stall:0.003, byte_garble:0.002, seed=11",
        "conn_drop:0.025, conn_stall:0.015, byte_garble:0.01, seed=12",
        "conn_drop:0.1, conn_stall:0.06, byte_garble:0.04, seed=13",
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let server = Server::start("127.0.0.1:0", chaos_config(Some(plan))).unwrap();
        let addr = server.local_addr().to_string();
        let out = run_load(&addr, &want);
        assert_eq!(out.ok + out.dropped, TENANTS * REQUESTS);
        assert!(out.ok > 0, "no request survived `{spec}`");

        // Lifecycle: once the load stops and the idle TTL passes, every
        // tenant session is evicted and device accounting returns to zero.
        // (Stats requests do not create sessions, so polling is safe.)
        let deadline = Instant::now() + Duration::from_secs(10);
        let evicted = loop {
            // Faults also hit the stats connection; retry through them.
            let polled = Client::connect(&addr).ok().and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
                match c.stats() {
                    Ok(Response::Stats {
                        server: counters,
                        tenants,
                        ..
                    }) => Some((counters, tenants)),
                    _ => None,
                }
            });
            if let Some((counters, tenants)) = polled {
                if tenants.is_empty() {
                    break counters;
                }
            }
            assert!(
                Instant::now() < deadline,
                "`{spec}`: sessions still alive long after the idle TTL"
            );
            thread::sleep(Duration::from_millis(100));
        };
        assert!(
            evicted.evicted_idle >= TENANTS as u64,
            "`{spec}`: expected every tenant evicted, got {}",
            evicted.evicted_idle
        );

        server.shutdown();
        server.join().expect("server panicked under chaos");
    }
}

#[test]
fn expired_deadline_is_rejected_in_bounded_time() {
    // A long batch window guarantees the deadline (shorter than the
    // window) expires while the request is still queued.
    let config = ServeConfig {
        batch_window: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();

    let t0 = Instant::now();
    let err = c
        .derive_with_deadline(
            "hurry",
            EXPR,
            GRID,
            ExecStrategy::Fusion,
            true,
            Some(Duration::from_millis(20)),
        )
        .unwrap_err();
    match err {
        ClientError::Rejected { kind, .. } => assert_eq!(kind, RejectKind::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline rejection not bounded: {:?}",
        t0.elapsed()
    );
    assert_eq!(server.counters().rejected_deadline, 1);

    // The tenant's session was never created for the expired request…
    match c.stats().unwrap() {
        Response::Stats { tenants, .. } => assert!(tenants.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
    // …and an unexpired request still works.
    let reply = c
        .derive_with_deadline(
            "hurry",
            EXPR,
            GRID,
            ExecStrategy::Fusion,
            false,
            Some(Duration::from_secs(30)),
        )
        .unwrap();
    assert_eq!(reply.ncells, 512);

    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn server_default_deadline_applies_to_requests_without_one() {
    let config = ServeConfig {
        batch_window: Duration::from_millis(150),
        default_deadline: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();

    let err = c
        .derive("t", EXPR, GRID, ExecStrategy::Fusion, false)
        .unwrap_err();
    match err {
        ClientError::Rejected { kind, .. } => assert_eq!(kind, RejectKind::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other}"),
    }

    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn idle_ttl_evicts_sessions_and_releases_device_bytes() {
    let config = ServeConfig {
        idle_ttl: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();

    for t in ["a", "b"] {
        c.derive(t, EXPR, GRID, ExecStrategy::Fusion, false)
            .unwrap();
    }
    match c.stats().unwrap() {
        Response::Stats { tenants, .. } => {
            assert_eq!(tenants.len(), 2);
            assert!(
                tenants.iter().any(|t| t.in_use_bytes > 0),
                "expected resident device bytes before eviction"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Poll until the maintenance tick evicts both idle sessions.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.stats().unwrap() {
            Response::Stats {
                server: counters,
                tenants,
                ..
            } => {
                if tenants.is_empty() {
                    assert_eq!(counters.evicted_idle, 2);
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Instant::now() < deadline, "idle sessions never evicted");
        thread::sleep(Duration::from_millis(50));
    }

    // An evicted tenant is not banned — the next request rebuilds its
    // session from scratch.
    let reply = c
        .derive("a", EXPR, GRID, ExecStrategy::Fusion, false)
        .unwrap();
    assert_eq!(reply.compiles, 1, "fresh session should recompile");

    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn memory_pressure_watchdog_trims_and_evicts_lru() {
    // A 1-byte threshold: any resident session is over it, so the first
    // maintenance tick after the derive must trim and evict.
    let config = ServeConfig {
        memory_pressure_bytes: Some(1),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();

    c.derive("heavy", EXPR, GRID, ExecStrategy::Fusion, false)
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.stats().unwrap() {
            Response::Stats {
                server: counters,
                tenants,
                ..
            } => {
                if tenants.is_empty() {
                    assert!(counters.evicted_pressure >= 1);
                    break;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "pressure watchdog never evicted the session"
        );
        thread::sleep(Duration::from_millis(50));
    }

    c.shutdown().unwrap();
    server.join().unwrap();
}
