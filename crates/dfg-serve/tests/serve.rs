//! End-to-end serve tests: concurrent tenancy, quotas, coalescing,
//! admission control, clean shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use dfg_core::{Engine, EngineOptions, FieldSet, RecoveryPolicy, Strategy};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::DeviceProfile;
use dfg_serve::{Client, DeriveRequest, ExecStrategy, Request, Response, ServeConfig, Server};

const EXPR: &str = "vmag = sqrt(u*u + v*v + w*w)";
const GRID: [usize; 3] = [8, 8, 8];

/// Bits of a local, sequential, single-tenant engine run — the reference
/// the server must match exactly.
fn local_bits(expr: &str, grid: [usize; 3]) -> Vec<u32> {
    let mesh = RectilinearMesh::unit_cube(grid);
    let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    let request = dfg_core::Request::source(expr, Strategy::Fusion);
    let (out, _) = engine.run(&request, &fields).unwrap();
    out[0].data.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn concurrent_tenants_match_sequential_single_tenant_bits() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let want = local_bits(EXPR, GRID);

    let n_clients = 4;
    let m_cycles = 3;
    let mut handles = Vec::new();
    for t in 0..n_clients {
        let addr = addr.clone();
        let want = want.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let tenant = format!("tenant-{t}");
            for _ in 0..m_cycles {
                let reply = client
                    .derive(&tenant, EXPR, GRID, ExecStrategy::Fusion, true)
                    .unwrap();
                assert_eq!(
                    reply.data_bits.as_deref(),
                    Some(&want[..]),
                    "{tenant}: serve bits differ from local sequential run"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let counters = server.counters();
    assert_eq!(counters.ok, (n_clients * m_cycles) as u64);
    assert_eq!(counters.errors, 0);
    server.shutdown();
    server.join().unwrap();
}

/// One tenant, one session, two grids of the same cell count: the session
/// matches residents by name, size and generation, so each grid's field set
/// must carry generations of its own — every reply equals a local derive on
/// *its* grid, whichever grid the session saw last.
#[test]
fn one_tenant_on_two_grids_of_equal_cell_count_gets_each_grids_answer() {
    const Q: &str = "q = u*v + x - sqrt(w*w + y*y) * z";
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let grids = [[16, 16, 16], [32, 16, 8], [16, 16, 16], [8, 16, 32]];
    for grid in grids {
        let reply = client
            .derive("tenant", Q, grid, ExecStrategy::Fusion, true)
            .unwrap();
        assert_eq!(reply.ncells, 4096);
        assert_eq!(
            reply.data_bits.as_deref(),
            Some(&local_bits(Q, grid)[..]),
            "grid {grid:?}: reply differs from a local derive"
        );
    }
    assert_eq!(server.counters().errors, 0);
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn coalescing_reduces_compiles_and_preserves_bits() {
    let run = |coalesce: bool| {
        let config = ServeConfig {
            coalesce,
            batch_window: Duration::from_millis(50),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        // Pipeline one identical request per tenant so they land inside
        // one batch window.
        let n_tenants = 4;
        let mut ids = Vec::new();
        for t in 0..n_tenants {
            let id = client
                .send(Request::Derive(DeriveRequest {
                    id: 0,
                    tenant: format!("t{t}"),
                    expr: EXPR.into(),
                    grid: GRID,
                    strategy: ExecStrategy::Fusion,
                    data: true,
                    deadline_ms: None,
                }))
                .unwrap();
            ids.push(id);
        }
        let mut bits = Vec::new();
        let mut total_compiles = 0u64;
        let mut coalesced_replies = 0u64;
        for id in ids {
            match client.recv_for(id).unwrap() {
                Response::Ok(r) => {
                    bits.push(r.data_bits.expect("data requested"));
                    total_compiles += r.compiles;
                    if r.coalesced {
                        coalesced_replies += 1;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        client.shutdown().unwrap();
        server.join().unwrap();
        (bits, total_compiles, coalesced_replies)
    };

    let (bits_on, compiles_on, coalesced_on) = run(true);
    let (bits_off, compiles_off, coalesced_off) = run(false);

    assert_eq!(
        bits_on, bits_off,
        "coalesced output differs from uncoalesced"
    );
    let want = local_bits(EXPR, GRID);
    for b in &bits_on {
        assert_eq!(b, &want, "serve bits differ from local run");
    }
    assert!(
        compiles_on < compiles_off,
        "coalescing did not reduce compiles: {compiles_on} vs {compiles_off}"
    );
    assert_eq!(compiles_off, 4, "uncoalesced: one compile per tenant");
    assert!(coalesced_on > 0, "no request was actually coalesced");
    assert_eq!(coalesced_off, 0);
}

#[test]
fn commutative_variants_coalesce_via_canonical_hash() {
    // `u*u + v*v` and `v*v + u*u` parse to different node orders but the
    // same canonical post-optimization network, so the batcher must treat
    // them as one group and compile/execute once.
    let exprs = ["s = u*u + v*v", "s = v*v + u*u"];
    let config = ServeConfig {
        coalesce: true,
        batch_window: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let mut ids = Vec::new();
    for (t, expr) in exprs.iter().enumerate() {
        let id = client
            .send(Request::Derive(DeriveRequest {
                id: 0,
                tenant: format!("t{t}"),
                expr: (*expr).into(),
                grid: GRID,
                strategy: ExecStrategy::Fusion,
                data: true,
                deadline_ms: None,
            }))
            .unwrap();
        ids.push(id);
    }
    let mut bits = Vec::new();
    let mut compiles = 0u64;
    let mut coalesced = 0u64;
    for id in ids {
        match client.recv_for(id).unwrap() {
            Response::Ok(r) => {
                bits.push(r.data_bits.expect("data requested"));
                compiles += r.compiles;
                if r.coalesced {
                    coalesced += 1;
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    client.shutdown().unwrap();
    server.join().unwrap();

    assert_eq!(coalesced, 1, "the commutative variant did not coalesce");
    assert_eq!(compiles, 1, "expected one compile for both variants");
    // Both tenants get the leader's bits, which match a local run of either
    // spelling: float addition/multiplication are commutative bit-exactly.
    let want = local_bits(exprs[0], GRID);
    assert_eq!(bits[0], want);
    assert_eq!(bits[1], want);
    assert_eq!(local_bits(exprs[1], GRID), want);
}

#[test]
fn distinct_overlapping_expressions_compile_apart_and_match_unbatched() {
    // Four tenants, four *distinct* expressions sharing the `u*u+v*v+w*w`
    // subgraph, in one batch window. Coalescing shares only identical
    // (canonical-hash-equal) networks, so each expression compiles on its
    // own, and every tenant gets bits identical to an unbatched run of its
    // own expression.
    let exprs = [
        "vmag = sqrt(u*u + v*v + w*w)",
        "ke = 0.5 * (u*u + v*v + w*w)",
        "s = u*u + v*v + w*w",
        "sp = (u*u + v*v + w*w) + 1",
    ];
    let config = ServeConfig {
        coalesce: true,
        batch_window: Duration::from_millis(80),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let mut ids = Vec::new();
    for (t, expr) in exprs.iter().enumerate() {
        let id = client
            .send(Request::Derive(DeriveRequest {
                id: 0,
                tenant: format!("t{t}"),
                expr: (*expr).into(),
                grid: GRID,
                strategy: ExecStrategy::Fusion,
                data: true,
                deadline_ms: None,
            }))
            .unwrap();
        ids.push(id);
    }
    let mut bits = Vec::new();
    let mut compiles = 0u64;
    for id in ids {
        match client.recv_for(id).unwrap() {
            Response::Ok(r) => {
                bits.push(r.data_bits.expect("data requested"));
                compiles += r.compiles;
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    for (expr, got) in exprs.iter().zip(&bits) {
        assert_eq!(
            got,
            &local_bits(expr, GRID),
            "output for `{expr}` differs from unbatched run"
        );
    }
    assert_eq!(compiles, 4, "one compile per distinct expression");
    match client.stats().unwrap() {
        Response::Stats {
            server: counters, ..
        } => {
            assert_eq!(counters.ok, 4);
            assert_eq!(counters.coalesced, 0, "distinct expressions coalesced");
        }
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn quota_exceeded_is_typed_and_leaks_nothing() {
    let config = ServeConfig {
        options: EngineOptions {
            recovery: RecoveryPolicy::disabled(),
            ..EngineOptions::default()
        },
        quotas: vec![("tiny".to_string(), 64 * 1024)],
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    // 32^3 cells = 128 KiB per lane: cannot fit a 64 KiB quota.
    let err = client
        .derive("tiny", EXPR, [32, 32, 32], ExecStrategy::Fusion, false)
        .unwrap_err();
    assert!(
        err.to_string().contains("quota_exceeded"),
        "expected quota_exceeded, got: {err}"
    );

    match client.stats().unwrap() {
        Response::Stats {
            server: counters,
            tenants,
            ..
        } => {
            assert_eq!(counters.rejected_quota, 1);
            assert_eq!(counters.ok, 0);
            let tiny = tenants.iter().find(|t| t.tenant == "tiny").unwrap();
            assert_eq!(tiny.in_use_bytes, 0, "failed request leaked device bytes");
            assert_eq!(tiny.quota_bytes, 64 * 1024);
        }
        other => panic!("unexpected {other:?}"),
    }

    // The tenant still works for requests that fit its quota.
    let reply = client
        .derive("tiny", EXPR, [4, 4, 4], ExecStrategy::Fusion, true)
        .unwrap();
    assert_eq!(
        reply.data_bits.as_deref(),
        Some(&local_bits(EXPR, [4, 4, 4])[..])
    );

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn quota_pressure_degrades_gracefully_with_recovery_on() {
    let config = ServeConfig {
        quotas: vec![("tiny".to_string(), 64 * 1024)],
        ..ServeConfig::default() // resilient recovery by default
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let reply = client
        .derive("tiny", EXPR, [32, 32, 32], ExecStrategy::Fusion, false)
        .unwrap();
    assert!(reply.degraded, "expected a degraded completion under quota");
    assert_eq!(server.counters().degraded, 1);

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let config = ServeConfig {
        queue_capacity: 1,
        batch_window: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    let k = 8;
    let mut ids = Vec::new();
    for i in 0..k {
        ids.push(
            client
                .send(Request::Derive(DeriveRequest {
                    id: 0,
                    tenant: format!("t{i}"),
                    expr: EXPR.into(),
                    grid: GRID,
                    strategy: ExecStrategy::Fusion,
                    data: false,
                    deadline_ms: None,
                }))
                .unwrap(),
        );
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for id in ids {
        match client.recv_for(id).unwrap() {
            Response::Ok(_) => ok += 1,
            Response::Rejected { .. } => overloaded += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ok + overloaded, k);
    assert!(ok >= 1, "no request was admitted");
    assert!(overloaded >= 1, "queue bound never tripped");
    assert_eq!(server.counters().rejected_overload, overloaded as u64);

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn shutdown_drains_and_joins_cleanly() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client
        .derive("t", EXPR, GRID, ExecStrategy::Fusion, false)
        .unwrap();
    client.shutdown().unwrap();
    let counters = server.join().unwrap();
    assert_eq!(counters.ok, 1);

    // The socket no longer accepts work.
    assert!(
        Client::connect(&addr).is_err() || {
            let mut c = Client::connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn pipelined_fetch_and_nodata_replies_stay_matched_by_id() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let grid = [8, 8, 8];
    let exprs = [EXPR, "m = u*v", "m = u + w"];
    // Six requests in flight on one connection, payloads and bare replies
    // interleaved, two of them the same expression (they coalesce, and only
    // the member that asked gets the field).
    let sent: Vec<(u64, &str, bool)> = (0..6)
        .map(|k| {
            let (expr, data) = (exprs[k % 3], k % 2 == 0);
            let id = client
                .send(Request::Derive(DeriveRequest {
                    id: 0,
                    tenant: "pipe".into(),
                    expr: expr.into(),
                    grid,
                    strategy: ExecStrategy::Fusion,
                    data,
                    deadline_ms: None,
                }))
                .unwrap();
            (id, expr, data)
        })
        .collect();
    // Collected out of order: later ids first, so earlier replies (binary
    // frames among them) pass through the pending map.
    for &(id, expr, data) in sent.iter().rev() {
        match client.recv_for(id).unwrap() {
            Response::Ok(reply) => {
                assert_eq!((reply.id, reply.expr.as_str()), (id, expr));
                dfg_serve::verify_payload(&reply).unwrap();
                if data {
                    assert_eq!(reply.data_bits, Some(local_bits(expr, grid)), "id {id}");
                } else {
                    assert_eq!((reply.data_bits, reply.payload_sum), (None, None));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    client.shutdown().unwrap();
    let counters = server.join().unwrap();
    assert_eq!(counters.ok, 6);
    assert_eq!(counters.payload_bytes, 3 * 4 * 512, "three fetches of 8^3");
}

#[test]
fn a_fetch_reply_costs_its_field_plus_a_header_on_the_socket() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let grid = [16, 16, 16];
    let raw = 4 * 16 * 16 * 16;

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = Request::Derive(DeriveRequest {
        id: 1,
        tenant: "wire".into(),
        expr: EXPR.into(),
        grid,
        strategy: ExecStrategy::Fusion,
        data: true,
        deadline_ms: None,
    });
    sock.write_all(request.to_json_line().as_bytes()).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(
        header.contains(&format!("\"payload_bytes\":{raw}}}")),
        "{header:?}"
    );
    assert!(!header.contains("data_bits"), "{header:?}");
    let mut payload = vec![0u8; raw];
    reader.read_exact(&mut payload).unwrap();
    // Nothing trails the frame: the next bytes are the next reply.
    sock.write_all(Request::Ping { id: 2 }.to_json_line().as_bytes())
        .unwrap();
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    assert_eq!(pong, "{\"status\":\"pong\",\"id\":2}\n");

    let on_socket = header.len() + payload.len();
    assert!(
        on_socket as f64 <= 1.1 * raw as f64,
        "{on_socket} bytes on the socket for {raw} bytes of field"
    );
    let got: Vec<u32> = payload
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    assert_eq!(got, local_bits(EXPR, grid), "little-endian, field order");

    server.shutdown();
    drop((sock, reader));
    let counters = server.join().unwrap();
    assert_eq!(counters.payload_bytes, raw as u64);
}

#[test]
fn a_vector_result_is_sixteen_bytes_per_cell() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let expr = "g = grad3d(u, dims, x, y, z)";
    let reply = client
        .derive("vec", expr, [4, 4, 4], ExecStrategy::Fusion, true)
        .unwrap();
    assert_eq!(reply.ncells, 64);
    assert_eq!(reply.data_bits, Some(local_bits(expr, [4, 4, 4])));
    assert_eq!(reply.data_bits.unwrap().len(), 4 * 64, "four lanes a cell");
    client.shutdown().unwrap();
    let counters = server.join().unwrap();
    assert_eq!(counters.payload_bytes, 16 * 64);
}

/// A client walking through grids must not grow the server without bound:
/// the per-grid host field sets count against `memory_pressure_bytes`, and
/// the ones the current batch does not read are dropped (least recently
/// used first) before any tenant is evicted. A dropped grid is regenerated
/// on its next request under fresh generations, so a tenant whose residents
/// still hold the old arrays re-uploads and answers with the same bits.
#[test]
fn walking_through_grids_stays_under_the_memory_limit() {
    /// Every grid has 4096 cells, so every field set is the same 96 KiB.
    const SET_BYTES: u64 = 24 * 4096;
    const LIMIT: u64 = 640 * 1024;
    let config = ServeConfig {
        memory_pressure_bytes: Some(LIMIT),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let stats = |client: &mut Client| match client.stats().unwrap() {
        Response::Stats {
            server, tenants, ..
        } => (server, tenants),
        other => panic!("unexpected {other:?}"),
    };
    let uploads = |tenants: &[dfg_core::TenantStats]| {
        let pinned = tenants.iter().find(|t| t.tenant == "pinned").unwrap();
        (pinned.session.uploads, pinned.session.uploads_skipped)
    };

    // `pinned` derives on one grid, twice: the second finds its residents.
    let first = client
        .derive("pinned", EXPR, [16, 16, 16], ExecStrategy::Fusion, true)
        .unwrap();
    client
        .derive("pinned", EXPR, [16, 16, 16], ExecStrategy::Fusion, false)
        .unwrap();
    assert_eq!(uploads(&stats(&mut client).1), (3, 3));

    // `walker` visits twelve more grids: 13 × 96 KiB of field sets alone
    // would be twice the limit.
    let walk: [[usize; 3]; 12] = [
        [8, 32, 16],
        [32, 8, 16],
        [16, 8, 32],
        [8, 16, 32],
        [32, 16, 8],
        [16, 32, 8],
        [4, 32, 32],
        [32, 4, 32],
        [32, 32, 4],
        [64, 8, 8],
        [8, 64, 8],
        [8, 8, 64],
    ];
    for (visited, grid) in walk.iter().enumerate() {
        client
            .derive("walker", EXPR, *grid, ExecStrategy::Fusion, false)
            .unwrap();
        let (counters, tenants) = stats(&mut client);
        let cached = visited as u64 + 2 - counters.evicted_fields;
        let device: u64 = (tenants.iter())
            .map(|t| t.in_use_bytes + t.pooled_bytes)
            .sum();
        assert!(
            cached * SET_BYTES + device <= LIMIT,
            "{cached} field sets and {device} device bytes after grid {visited}"
        );
        assert_eq!(counters.evicted_pressure, 0, "field sets go before tenants");
        assert_eq!(tenants.len(), 2);
    }
    let (counters, _) = stats(&mut client);
    assert!(counters.evicted_fields >= 7, "{counters:?}");

    // `pinned`'s grid was the least recently read, so it went first; its
    // residents are of a generation no field set has any more.
    let again = client
        .derive("pinned", EXPR, [16, 16, 16], ExecStrategy::Fusion, true)
        .unwrap();
    assert_eq!(again.data_bits, first.data_bits);
    assert_eq!(
        again.data_bits.as_deref(),
        Some(&local_bits(EXPR, [16, 16, 16])[..])
    );
    assert_eq!(uploads(&stats(&mut client).1), (6, 3));

    client.shutdown().unwrap();
    server.join().unwrap();
}
