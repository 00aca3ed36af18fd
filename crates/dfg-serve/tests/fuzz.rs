//! Deterministic protocol fuzzing: the server must never panic on
//! arbitrary bytes — every frame is answered with a typed reply or the
//! connection is closed cleanly, and the server keeps serving well-formed
//! requests afterwards.
//!
//! The corpus is generated from a seeded xorshift PRNG, so a failure
//! reproduces exactly: re-run with the same seed and the same frames
//! arrive in the same order.
//!
//! The reply direction gets the same treatment from the other side: a
//! scripted in-test server sends the [`Client`] truncated, lying, oversized
//! and header-less binary frames, and stalls in the middle of good ones.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dfg_serve::protocol::{write_response, MAX_PAYLOAD_BYTES};
use dfg_serve::{
    Client, ClientError, DeriveReply, ExecStrategy, Request, Response, ServeConfig, Server,
};

/// Seeded xorshift64 — the same generator the fault plan uses, so fuzz
/// runs are reproducible without any external RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A valid derive frame to mutate from.
fn valid_frame(id: u64) -> String {
    format!(
        "{{\"op\":\"derive\",\"id\":{id},\"tenant\":\"fuzz\",\"expr\":\"m = u*v\",\
         \"grid\":[4,4,4],\"strategy\":\"fusion\",\"data\":false}}\n"
    )
}

/// Numbers that are not ids: casting any of them to `u64` would run the
/// request under an id the client never chose.
const HOSTILE_IDS: [&str; 7] = [
    "1e999",
    "-7",
    "-5",
    "0.5",
    "1.5",
    "18446744073709551616",
    "1e308",
];

/// The seeded corpus: raw garbage, invalid UTF-8, truncated JSON,
/// bit-flipped valid frames, huge/negative/non-finite numeric fields.
fn corpus(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = XorShift::new(seed);
    let mut frames: Vec<Vec<u8>> = Vec::new();

    // Raw byte garbage (often invalid UTF-8), newline-terminated.
    for _ in 0..8 {
        let len = (rng.next() % 200 + 1) as usize;
        let mut f: Vec<u8> = (0..len).map(|_| (rng.next() % 256) as u8).collect();
        f.retain(|&b| b != b'\n');
        f.push(b'\n');
        frames.push(f);
    }

    // Truncated valid JSON at a random cut, newline-terminated.
    for i in 0..8 {
        let full = valid_frame(i);
        let cut = (rng.next() as usize % (full.len() - 2)).max(1);
        let mut f = full.as_bytes()[..cut].to_vec();
        f.push(b'\n');
        frames.push(f);
    }

    // One random bit flipped somewhere in a valid frame.
    for i in 0..8 {
        let mut f = valid_frame(i).into_bytes();
        let pos = rng.next() as usize % (f.len() - 1);
        f[pos] ^= 1 << (rng.next() % 8);
        frames.push(f);
    }

    // Hostile numeric fields: ids and deadlines that are huge, negative,
    // fractional, or non-finite after parsing.
    for id_text in HOSTILE_IDS {
        frames.push(format!("{{\"op\":\"ping\",\"id\":{id_text}}}\n").into_bytes());
    }
    for deadline in ["1e999", "-3", "0.25", "null", "\"soon\""] {
        frames.push(
            format!(
                "{{\"op\":\"derive\",\"id\":9,\"tenant\":\"fuzz\",\"expr\":\"m = u*v\",\
                 \"grid\":[4,4,4],\"strategy\":\"fusion\",\"data\":false,\
                 \"deadline_ms\":{deadline}}}\n"
            )
            .into_bytes(),
        );
    }

    // Structurally valid JSON, protocol-invalid shapes.
    for line in [
        "{}",
        "[]",
        "null",
        "42",
        "\"derive\"",
        "{\"op\":\"derive\"}",
        "{\"op\":\"nope\",\"id\":1}",
        "{\"op\":\"derive\",\"id\":1,\"tenant\":\"t\",\"expr\":\"m = u*v\",\"grid\":[4,4],\"strategy\":\"fusion\",\"data\":false}",
        "{\"op\":\"derive\",\"id\":1,\"tenant\":\"t\",\"expr\":\"m = u*v\",\"grid\":[0,0,0],\"strategy\":\"warp\",\"data\":false}",
    ] {
        frames.push(format!("{line}\n").into_bytes());
    }

    frames
}

#[test]
fn garbage_frames_never_panic_the_server() {
    let config = ServeConfig {
        max_line_bytes: 4096,
        read_deadline: Some(Duration::from_millis(200)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    for frame in corpus(0x5eed) {
        let mut sock = TcpStream::connect(&addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if sock.write_all(&frame).is_err() {
            continue; // server closed first: acceptable, must not panic
        }
        let mut reader = BufReader::new(sock);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            // A typed reply: must be one JSON object mentioning a status.
            Ok(n) if n > 0 => assert!(
                line.contains("\"status\""),
                "reply to garbage is not a typed status line: {line:?}"
            ),
            // Clean close or reset: also acceptable.
            Ok(_) | Err(_) => {}
        }
    }

    // The server survived the whole corpus and still serves real work.
    let mut c = Client::connect(&addr).unwrap();
    c.ping().unwrap();
    let reply = c
        .derive(
            "post-fuzz",
            "m = u*v",
            [4, 4, 4],
            ExecStrategy::Fusion,
            true,
        )
        .unwrap();
    assert_eq!(reply.ncells, 64);
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn malformed_frames_echo_ids_and_do_not_poison_the_connection() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // Coherent enough to carry an id, but not a valid request.
    sock.write_all(b"{\"op\":\"derive\",\"id\":77,\"tenant\":42}\n")
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"status\":\"error\"") && line.contains("\"id\":77"),
        "malformed frame should get a typed error echoing id 77: {line:?}"
    );

    // Grids whose host fields (24 B per cell) exceed the payload cap are
    // refused before any is allocated, echoing their ids: 4·10¹⁵ cells, and
    // 2²⁸ cells (6 GiB of fields), whose 1 GiB reply alone would fit it.
    for (id, grid) in [(79, "[100000,100000,100000]"), (80, "[1024,1024,256]")] {
        let frame = format!(
            "{{\"op\":\"derive\",\"id\":{id},\"tenant\":\"t\",\"expr\":\"m = u\",\"grid\":{grid}}}\n"
        );
        sock.write_all(frame.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"status\":\"error\"") && line.contains(&format!("\"id\":{id}")),
            "an oversized grid should get a typed error echoing id {id}: {line:?}"
        );
    }

    // The same connection still serves a valid request afterwards.
    sock.write_all(valid_frame(78).as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"status\":\"ok\"") && line.contains("\"id\":78"),
        "connection poisoned after malformed frame: {line:?}"
    );
    assert_eq!(server.counters().malformed, 3, "every refusal is counted");

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn oversized_frames_are_rejected_without_buffering() {
    let config = ServeConfig {
        max_line_bytes: 1024,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A 64 KiB frame against a 1 KiB cap.
    let mut big = vec![b'x'; 64 * 1024];
    big.push(b'\n');
    sock.write_all(&big).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"status\":\"too_large\""),
        "expected typed too_large reject: {line:?}"
    );

    // The oversized frame was discarded through its newline: the next
    // frame parses normally.
    sock.write_all(valid_frame(5).as_bytes()).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"status\":\"ok\"") && line.contains("\"id\":5"),
        "stream desynchronized after oversized frame: {line:?}"
    );

    assert_eq!(server.counters().rejected_too_large, 1);
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn slow_loris_is_disconnected_but_idle_connections_live() {
    let config = ServeConfig {
        read_deadline: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // An idle connection (no frame started) outlives the read deadline.
    let mut idle = Client::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    idle.ping().expect("idle keep-alive connection was killed");

    // A trickling connection (frame started, never finished) is cut off.
    let mut loris = TcpStream::connect(&addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    loris.write_all(b"{\"op\":\"pi").unwrap();
    let t0 = Instant::now();
    let mut buf = [0u8; 16];
    // The server gives up on the half-frame and closes: read returns EOF
    // (or a reset) well before our own 5 s guard.
    let dead = matches!(loris.read(&mut buf), Ok(0) | Err(_));
    assert!(dead, "slow-loris connection was not torn down");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "teardown took too long: {:?}",
        t0.elapsed()
    );

    idle.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn ids_that_are_not_ids_are_refused_not_recast() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut line = String::new();
    for id in HOSTILE_IDS {
        for frame in [
            format!("{{\"op\":\"ping\",\"id\":{id}}}\n"),
            valid_frame(0).replace("\"id\":0", &format!("\"id\":{id}")),
        ] {
            sock.write_all(frame.as_bytes()).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains("\"status\":\"error\"") && line.contains("\"id\":0,"),
                "id {id} was answered as if it were one: {line:?}"
            );
        }
    }
    let counters = server.counters();
    assert_eq!(counters.ok, 0, "a request ran under a recast id");
    assert_eq!(counters.malformed, 2 * HOSTILE_IDS.len() as u64);
    server.shutdown();
    drop((sock, reader));
    server.join().unwrap();
}

/// One step of a scripted reply stream.
enum Step {
    Send(Vec<u8>),
    Stall(Duration),
}

/// Accept one connection, play `script` into it, then hold the socket open
/// until the client closes its end.
fn scripted_server(script: Vec<Step>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        for step in script {
            match step {
                Step::Send(bytes) => {
                    sock.write_all(&bytes).unwrap();
                }
                Step::Stall(d) => std::thread::sleep(d),
            }
        }
        let mut sink = Vec::new();
        let _ = sock.read_to_end(&mut sink);
    });
    (addr, handle)
}

fn ok_reply(id: u64, bits: Vec<u32>) -> Response {
    Response::Ok(DeriveReply {
        id,
        tenant: "t".into(),
        expr: "m = u".into(),
        ncells: bits.len() as u64,
        checksum: 0.0,
        device_ms: 0.0,
        wall_ms: 0.0,
        compiles: 0,
        coalesced: false,
        batch: 1,
        degraded: false,
        payload_sum: Some(dfg_ocl::integrity::checksum_bits(
            dfg_ocl::integrity::PAYLOAD_SUM_SEED,
            &bits,
        )),
        data_bits: Some(bits),
    })
}

/// `resp` as the one wire writer sends it, its `data_bits` the payload.
fn wire(resp: &Response) -> Vec<u8> {
    let field: Option<Vec<f32>> = match resp {
        Response::Ok(r) => r
            .data_bits
            .as_ref()
            .map(|bits| bits.iter().map(|&b| f32::from_bits(b)).collect()),
        _ => None,
    };
    let mut out = Vec::new();
    write_response(&mut out, resp, field.as_deref()).unwrap();
    out
}

/// Split a frame's bytes into its header line (no newline) and payload.
fn split_frame(frame: &[u8]) -> (String, &[u8]) {
    let newline = frame.iter().position(|&b| b == b'\n').unwrap();
    let header = String::from_utf8(frame[..newline].to_vec()).unwrap();
    (header, &frame[newline + 1..])
}

#[test]
fn a_reply_stalled_mid_frame_resumes_on_the_next_recv() {
    let bits: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let frame = wire(&ok_reply(1, bits.clone()));
    let (header, _) = split_frame(&frame);
    // Two replies, stalled once inside the header line and once inside the
    // payload, off a word boundary.
    let cuts = [header.len() / 2, header.len() + 1 + 4 * 333 + 2];
    let stall = Duration::from_millis(250);
    let mut script = Vec::new();
    for cut in cuts {
        script.push(Step::Send(frame[..cut].to_vec()));
        script.push(Step::Stall(stall));
        script.push(Step::Send(frame[cut..].to_vec()));
    }
    let (addr, handle) = scripted_server(script);

    let mut client = Client::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    for _ in cuts {
        let mut timeouts = 0;
        let reply = loop {
            match client.recv_for(1) {
                Ok(Response::Ok(reply)) => break reply,
                Err(ClientError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    timeouts += 1;
                    assert!(timeouts < 100, "the stalled reply never arrived");
                }
                other => panic!("a retried recv_for lost the frame: {other:?}"),
            }
        };
        assert!(timeouts >= 1, "the stall was not observed as a timeout");
        assert_eq!(reply.data_bits.as_deref(), Some(&bits[..]));
        dfg_serve::verify_payload(&reply).unwrap();
    }
    drop(client);
    handle.join().unwrap();
}

#[test]
fn broken_reply_frames_are_typed_client_errors() {
    let bits = vec![0x3F80_0000u32; 64];
    let frame = wire(&ok_reply(1, bits));
    let (header, payload) = split_frame(&frame);
    let with_header = |header: String, payload: &[u8]| {
        let mut bytes = header.into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(payload);
        bytes
    };
    let announced = "\"payload_bytes\":256";
    assert!(header.contains(announced));

    enum Want {
        UnexpectedEof,
        Framing(&'static str),
    }
    let cases: Vec<(&str, Vec<u8>, Want)> = vec![
        (
            "payload cut short, then the server goes away",
            frame[..frame.len() - 100].to_vec(),
            Want::UnexpectedEof,
        ),
        (
            "payload_bytes disagrees with ncells",
            with_header(header.replace(announced, "\"payload_bytes\":252"), payload),
            Want::Framing("payload_bytes 252"),
        ),
        (
            "payload_bytes over the cap",
            with_header(
                header
                    .replace(
                        announced,
                        &format!("\"payload_bytes\":{}", 4 * MAX_PAYLOAD_BYTES),
                    )
                    .replace("\"ncells\":64", &format!("\"ncells\":{MAX_PAYLOAD_BYTES}")),
                payload,
            ),
            Want::Framing("payload_bytes"),
        ),
        (
            "a payload with no header",
            [payload, &wire(&Response::Pong { id: 2 })[..]].concat(),
            Want::Framing(""),
        ),
    ];
    for (what, bytes, want) in cases {
        // The script ends with the server closing its end.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            sock.write_all(&bytes).unwrap();
        });
        let mut client = Client::connect(&addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match (client.recv(), want) {
            (Err(ClientError::Io(e)), Want::UnexpectedEof) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{what}")
            }
            (Err(ClientError::Framing(m)), Want::Framing(part)) => {
                assert!(m.contains(part), "{what}: {m}")
            }
            (other, _) => panic!("{what}: {other:?}"),
        }
        // Closed, not desynchronised: nothing after the break is parsed.
        match client.recv() {
            Err(ClientError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotConnected, "{what}")
            }
            other => panic!("{what}: the client read on after the break: {other:?}"),
        }
        assert!(client.send(Request::Ping { id: 0 }).is_err() || client.recv().is_err());
        server.join().unwrap();
    }
}
