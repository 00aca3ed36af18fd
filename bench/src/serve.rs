//! The two serve workloads (`serve_small`, `serve_payload`): an in-process
//! `dfg-serve` server and two closed-loop clients, one tenant each. One op
//! is one round — both tenants send, both wait for their reply — and the
//! arms take turns in blocks of one second.

use std::time::{Duration, Instant};

use dfg_core::{Engine, ExecReport, Field, FieldSet, Strategy, TenantStats};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::DeviceProfile;
use dfg_serve::{
    Client, DeriveReply, DeriveRequest, ExecStrategy, Request, Response, ServeConfig, Server,
    ServerCounters,
};
use dfg_trace::{span, Trace, Tracer};

use crate::check;
use crate::layers::{self, Values};
use crate::stats::{median, MIN_SAMPLES};
use crate::sys;
use crate::timed::{setup_continues, stretch_limit, Gate, Samples, Timed};
use crate::traced::{self, Traced};
use crate::workloads::{Config, Probe};

/// Scalar expressions of about equal cost over `u, v, w`; the seed decides
/// which tenant sends which.
const EXPRESSIONS: [&str; 4] = [
    "m = sqrt(u*u + v*v + w*w)",
    "m = sqrt(u*u + v*v) + w*w",
    "m = u*v + v*w + w*u",
    "m = (u + v)*(u + v) + w*w",
];

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// What one arm makes each of the two clients send.
pub struct Arm {
    pub name: &'static str,
    /// Index into the seeded expression order, per client.
    exprs: [usize; 2],
    /// Whether the reply carries the field (`data:true`).
    data: bool,
}

/// One serve workload: grid, arms (`[0]` primary) and the seeded
/// expression order.
pub struct Plan {
    pub grid: [usize; 3],
    pub arms: [Arm; 2],
    /// `EXPRESSIONS`, permuted by the seed.
    order: [&'static str; 4],
    /// Length of one arm's turn.
    pub block: Duration,
    /// Whether a round's time follows the machine's speed (and is reported
    /// at the nominal speed, see `sys::Sweep`). `serve_small` waits on the
    /// 2 ms batch-window timer: dividing a timer by the machine's speed
    /// would add the machine's noise, not remove it.
    pub scales: bool,
}

impl Plan {
    pub fn of(cfg: &Config) -> Option<Plan> {
        let (grid, arms) = match cfg.workload.as_str() {
            // Two tenants, two expressions: every request executes. Then
            // one expression from both: the batch window coalesces them.
            "serve_small" => (
                [16, 16, 16],
                [
                    Arm {
                        name: "distinct",
                        exprs: [0, 1],
                        data: false,
                    },
                    Arm {
                        name: "shared",
                        exprs: [2, 2],
                        data: false,
                    },
                ],
            ),
            // The same requests with and without the field in the reply, so
            // payload cost and execution cost cannot be confused.
            "serve_payload" => (
                if cfg.quick {
                    [24, 24, 24]
                } else {
                    [64, 64, 64]
                },
                [
                    Arm {
                        name: "fetch",
                        exprs: [0, 1],
                        data: true,
                    },
                    Arm {
                        name: "nodata",
                        exprs: [0, 1],
                        data: false,
                    },
                ],
            ),
            _ => return None,
        };
        // Fisher–Yates with a splitmix stream from the seed.
        let mut order = EXPRESSIONS;
        let mut state = cfg.seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        Some(Plan {
            grid,
            arms,
            order,
            block: Duration::from_secs_f64(if cfg.quick { 0.25 } else { 1.0 }),
            scales: cfg.workload == "serve_payload",
        })
    }

    pub fn expr(&self, arm: usize, client: usize) -> &'static str {
        self.order[self.arms[arm].exprs[client]]
    }

    pub fn arm_names(&self) -> Vec<&'static str> {
        self.arms.iter().map(|a| a.name).collect()
    }

    /// The host fields the server derives from: it always samples the
    /// paper's default workload on the requested grid.
    pub fn fields(&self) -> FieldSet {
        FieldSet::for_rt_mesh(
            &RectilinearMesh::unit_cube(self.grid),
            &RtWorkload::paper_default(),
        )
    }
}

/// What a local `Engine::derive` returns for each seeded expression: the
/// bits every reply's payload must equal and the sum a `data:false` reply
/// must carry.
pub struct Expected {
    by_expr: Vec<(&'static str, Field, f64)>,
}

impl Expected {
    pub fn compute(plan: &Plan, gate: &mut Gate) -> Expected {
        let fields = plan.fields();
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        let mut by_expr = Vec::new();
        for expr in plan.order {
            match engine.derive(expr, &fields, Strategy::Fusion) {
                Ok(ExecReport {
                    field: Some(field), ..
                }) => {
                    // The server's own summation order.
                    let sum = field.data.iter().map(|&v| f64::from(v)).sum();
                    by_expr.push((expr, field, sum));
                }
                Ok(_) => gate.fail(format!("local derive of `{expr}` returned no field")),
                Err(e) => gate.fail(format!("local derive of `{expr}`: {e}")),
            }
        }
        Expected { by_expr }
    }

    /// Why `reply` is not what a local derive of `expr` gives, if it isn't.
    fn mismatch(&self, expr: &str, reply: &DeriveReply) -> Option<String> {
        let (_, field, sum) = self.by_expr.iter().find(|(e, _, _)| *e == expr)?;
        if reply.checksum.to_bits() != sum.to_bits() {
            return Some(format!(
                "checksum {} differs from the local derive's {sum}",
                reply.checksum
            ));
        }
        let same = |got: &Vec<u32>| {
            got.iter()
                .copied()
                .eq(field.data.iter().map(|v| v.to_bits()))
        };
        match &reply.data_bits {
            Some(got) if !same(got) => Some("payload differs from the local derive".into()),
            _ => None,
        }
    }

    /// One digest over every expected payload, for `golden.json`.
    pub fn digest(&self) -> u64 {
        check::digest(self.by_expr.iter().map(|(_, field, _)| field))
    }
}

/// A running server with both clients connected.
pub struct Rig {
    server: Server,
    clients: Vec<Client>,
}

/// One round: both tenants' requests of one arm, sent together and both
/// answered. `ms` is the wall time from the first send to the last reply
/// parsed and payload-verified — one op of a serve workload.
pub struct Round {
    pub ms: f64,
    replies: Vec<Result<DeriveReply, String>>,
}

impl Rig {
    /// Everything a user pays before the first reply: start the server,
    /// connect both clients. The cold requests follow in [`Rig::cold`].
    pub fn start(tracer: Option<&Tracer>) -> Result<Rig, String> {
        let config = ServeConfig {
            tracer: tracer.cloned(),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", config).map_err(|e| format!("start: {e}"))?;
        let addr = server.local_addr().to_string();
        let clients = (0..TENANTS.len())
            .map(|_| Client::connect(&addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig { server, clients })
    }

    /// Closed loop, two clients, one generator thread: each connection has
    /// one request outstanding and the next round starts only when both
    /// replies are in. (Two generator threads decoding 2.9 MB replies next
    /// to the server's threads oversubscribe two cores, and the scheduler
    /// then decides the latency.)
    pub fn round(&mut self, plan: &Plan, arm: usize) -> Round {
        let t = Instant::now();
        let sent: Vec<Result<u64, String>> = self
            .clients
            .iter_mut()
            .enumerate()
            .map(|(idx, client)| {
                client
                    .send(Request::Derive(DeriveRequest {
                        id: 0,
                        tenant: TENANTS[idx].to_string(),
                        expr: plan.expr(arm, idx).to_string(),
                        grid: plan.grid,
                        strategy: ExecStrategy::Fusion,
                        data: plan.arms[arm].data,
                        deadline_ms: None,
                    }))
                    .map_err(|e| e.to_string())
            })
            .collect();
        let replies = self
            .clients
            .iter_mut()
            .zip(sent)
            .map(|(client, id)| match client.recv_for(id?) {
                Ok(Response::Ok(reply)) => dfg_serve::verify_payload(&reply)
                    .map(|()| reply)
                    .map_err(|e| e.to_string()),
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(e.to_string()),
            })
            .collect();
        Round {
            ms: t.elapsed().as_secs_f64() * 1e3,
            replies,
        }
    }

    /// The first round of every arm.
    pub fn cold(&mut self, plan: &Plan, expected: &Expected, gate: &mut Gate) {
        for arm in 0..plan.arms.len() {
            let round = self.round(plan, arm);
            Load::new(plan.arms.len()).take(plan, expected, arm, round, 1.0, gate);
        }
    }

    /// Rounds for `window`; the arm in turn is `turns[k % len]` during the
    /// k-th block, and every arm in `turns` gets at least `min_samples`
    /// rounds (the window stretches up to `stretch_limit`). Replies are compared with the local
    /// derive between rounds, outside the timed region.
    #[allow(clippy::too_many_arguments)]
    pub fn load(
        &mut self,
        plan: &Plan,
        expected: &Expected,
        turns: &[usize],
        window: Duration,
        min_samples: usize,
        mut sweep: Option<&mut sys::Sweep>,
        spans: Option<&Tracer>,
        gate: &mut Gate,
    ) -> Load {
        let mut load = Load::new(plan.arms.len());
        let started = Instant::now();
        let mut op_id = 0u64;
        // The machine's speed, taken again every 100 ms of load.
        let mut factor = 1.0;
        let mut swept: Option<Instant> = None;
        loop {
            let elapsed = started.elapsed();
            let short = turns
                .iter()
                .any(|&a| load.round_ms[a].raw.len() < min_samples);
            if load.peak_rss_mib.is_none() && !short {
                // After a fixed amount of work, whatever the machine's speed.
                load.peak_rss_mib = Some(sys::peak_rss_mib());
            }
            if (elapsed >= window && !short) || elapsed >= stretch_limit(window) {
                return load;
            }
            if let Some(sweep) = sweep.as_deref_mut() {
                if swept.is_none_or(|t| t.elapsed() >= Duration::from_millis(100)) {
                    let speed = sweep.ms();
                    load.sweep_ms.push(speed);
                    factor = sys::NOMINAL_SWEEP_MS / speed;
                    swept = Some(Instant::now());
                }
            }
            let block = (elapsed.as_secs_f64() / plan.block.as_secs_f64()) as usize;
            let arm = turns[block % turns.len()];
            op_id += 1;
            let op_span =
                spans.map(|t| span!(t, "bench.op", arm = plan.arms[arm].name, op = op_id));
            let round = self.round(plan, arm);
            drop(op_span);
            load.take(plan, expected, arm, round, factor, gate);
        }
    }

    /// Server counters and per-tenant session counters.
    pub fn stats(&mut self) -> Option<(ServerCounters, Vec<TenantStats>)> {
        match self.clients[0].stats() {
            Ok(Response::Stats {
                server, tenants, ..
            }) => Some((server, tenants)),
            _ => None,
        }
    }

    /// Drain and stop the server; waits for its threads.
    pub fn stop(self) {
        self.server.shutdown();
        drop(self.clients);
        // A panic on a server thread has already failed the requests it
        // was serving; nothing more to report from here.
        let _ = self.server.join();
    }
}

/// The samples of one load phase, per arm.
pub struct Load {
    pub round_ms: Vec<Samples>,
    /// `VmHWM` once every arm in turn had its minimum of rounds.
    pub peak_rss_mib: Option<f64>,
    pub sweep_ms: Vec<f64>,
    /// Server-side `wall_ms` and modeled `device_ms` of every reply.
    pub exec_ms: Vec<Vec<f64>>,
    pub device_ms: Vec<Vec<f64>>,
    pub replies: u64,
    pub coalesced: u64,
    /// The last reply of the primary arm, kept to time the wire format on.
    pub kept: Option<DeriveReply>,
}

impl Load {
    fn new(arms: usize) -> Load {
        Load {
            round_ms: vec![Samples::default(); arms],
            peak_rss_mib: None,
            sweep_ms: Vec::new(),
            exec_ms: vec![Vec::new(); arms],
            device_ms: vec![Vec::new(); arms],
            replies: 0,
            coalesced: 0,
            kept: None,
        }
    }

    /// Record one round and judge its replies against the local derive.
    fn take(
        &mut self,
        plan: &Plan,
        expected: &Expected,
        arm: usize,
        round: Round,
        factor: f64,
        gate: &mut Gate,
    ) {
        self.round_ms[arm].push(round.ms, factor);
        for (idx, reply) in round.replies.into_iter().enumerate() {
            gate.attempted += 1;
            let what = plan.arms[arm].name;
            match reply {
                Ok(reply) => {
                    self.replies += 1;
                    self.coalesced += u64::from(reply.coalesced);
                    self.exec_ms[arm].push(reply.wall_ms);
                    self.device_ms[arm].push(reply.device_ms);
                    if let Some(why) = expected.mismatch(plan.expr(arm, idx), &reply) {
                        gate.fail(format!("{what} client {idx}: {why}"));
                    }
                    if arm == 0 {
                        self.kept = Some(reply);
                    }
                }
                Err(e) => gate.fail(format!("{what} client {idx}: {e}")),
            }
        }
    }
}

/// Timed run of a serve workload.
pub fn run(cfg: &Config, plan: &Plan) -> Timed {
    let mut gate = Gate::default();
    let expected = Expected::compute(plan, &mut gate);
    let mut sweep = plan.scales.then(sys::Sweep::new);
    let mut setup_s = Samples::default();
    let mut rig: Option<Rig> = None;
    let setup_started = Instant::now();
    while setup_continues(setup_s.raw.len(), setup_started.elapsed()) {
        if let Some(old) = rig.take() {
            old.stop();
        }
        let factor = sweep.as_mut().map_or(1.0, sys::Sweep::factor);
        let t = Instant::now();
        match Rig::start(None) {
            Ok(mut fresh) => {
                fresh.cold(plan, &expected, &mut gate);
                setup_s.push(t.elapsed().as_secs_f64(), factor);
                rig = Some(fresh);
            }
            Err(e) => {
                gate.attempted += 1;
                gate.fail(e);
                break;
            }
        }
    }
    let mut arms: Vec<(&'static str, Samples)> = plan
        .arm_names()
        .into_iter()
        .map(|n| (n, Samples::default()))
        .collect();
    // No rounds to sample the canary in: five before the load, five after.
    let mut calib_ms: Vec<f64> = (0..5).map(|_| sys::calib_ms()).collect();
    let mut sweep_ms = Vec::new();
    let mut peak_rss_mib = None;
    if let Some(mut rig) = rig {
        let window = Duration::from_secs_f64(cfg.seconds);
        let load = rig.load(
            plan,
            &expected,
            &[0, 1],
            window,
            MIN_SAMPLES,
            sweep.as_mut(),
            None,
            &mut gate,
        );
        for (arm, samples) in load.round_ms.into_iter().enumerate() {
            arms[arm].1 = samples;
        }
        peak_rss_mib = load.peak_rss_mib;
        sweep_ms = load.sweep_ms;
        calib_ms.extend((0..5).map(|_| sys::calib_ms()));
        rig.stop();
    }
    gate.set_digest(expected.digest());
    gate.check_golden(cfg);
    let mut timed = Timed {
        setup_s,
        arms,
        gate,
        peak_rss_mib: peak_rss_mib.unwrap_or_else(sys::peak_rss_mib),
        calib_ms,
        sweep_ms,
    };
    timed.require_samples();
    timed
}

/// Traced run of a serve workload: a plain server and one with a tracer in
/// its `ServeConfig`, loaded in alternating blocks, arm by arm.
pub fn run_traced(cfg: &Config, plan: &Plan) -> Traced {
    let server_tracer = Tracer::new();
    // The generator's spans go to a tracer of their own: the server's
    // executor records on `server_tracer` at the same time, and one tracer
    // nests spans by open order, whatever the thread.
    let client_tracer = Tracer::new();
    let mut gate = Gate::default();
    let mut out = Values::new();
    let expected = Expected::compute(plan, &mut gate);
    let rigs = Rig::start(None).and_then(|p| Ok((p, Rig::start(Some(&server_tracer))?)));
    let (mut plain, mut traced) = match rigs {
        Ok(rigs) => rigs,
        Err(e) => {
            gate.attempted += 1;
            gate.fail(e);
            return Traced {
                values: traced::in_contract_order(out),
                gate,
            };
        }
    };
    plain.cold(plan, &expected, &mut gate);
    traced.cold(plan, &expected, &mut gate);

    let narms = plan.arms.len();
    let mut plain_ms = vec![Vec::new(); narms];
    let mut traced_ms = vec![Vec::new(); narms];
    let mut exec_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let mut device_ms = Vec::new();
    let mut kept = None;
    let (mut replies, mut coalesced) = (0u64, 0u64);
    let (mut faults, mut cpu_ms, mut primary_ops) = (0u64, 0.0f64, 0usize);
    for _ in 0..2 {
        for arm in 0..narms {
            calib_ms.push(sys::calib_ms());
            let (faults0, cpu0) = sys::faults_and_cpu_ms();
            let load = plain.load(
                plan,
                &expected,
                &[arm],
                plan.block,
                0,
                None,
                None,
                &mut gate,
            );
            if arm == 0 {
                let (faults1, cpu1) = sys::faults_and_cpu_ms();
                faults += faults1 - faults0;
                cpu_ms += cpu1 - cpu0;
                primary_ops += load.round_ms[0].raw.len();
                exec_ms.extend(&load.exec_ms[0]);
                device_ms.extend(&load.device_ms[0]);
                kept = load.kept.or(kept);
            }
            replies += load.replies;
            coalesced += load.coalesced;
            plain_ms[arm].extend(&load.round_ms[arm].raw);

            // Nothing else opens spans on the server's tracer while the
            // block runs, so all the executor records nests under this one.
            let block_span = span!(server_tracer, "bench.block", arm = plan.arms[arm].name);
            let load = traced.load(
                plan,
                &expected,
                &[arm],
                plan.block,
                0,
                None,
                Some(&client_tracer),
                &mut gate,
            );
            drop(block_span);
            traced_ms[arm].extend(&load.round_ms[arm].raw);
        }
    }
    let op_ms = median(&plain_ms[0]);
    out.push(("bench.calib_ms".into(), median(&calib_ms)));
    out.push((
        "bench.trace_overhead".into(),
        median(&traced_ms[0]) / op_ms - 1.0,
    ));
    let per_op = primary_ops.max(1) as f64;
    out.push(("bench.minflt_per_op".into(), faults as f64 / per_op));
    out.push(("bench.cpu_ms_per_op".into(), cpu_ms / per_op));
    for (arm, samples) in plain_ms.iter().enumerate() {
        out.push((format!("serve.{}_ms", plan.arms[arm].name), median(samples)));
    }

    if let Some(reply) = kept {
        let _s = span!(server_tracer, "bench.layer", layer = "serve");
        let response = Response::Ok(reply.clone());
        let line = response.to_json_line();
        let encode_ms = layers::time(9, Duration::ZERO, || response.to_json_line()) * 1e3;
        let decode_ms = layers::time(9, Duration::ZERO, || Response::parse(line.trim())) * 1e3;
        let verify_ms = layers::time(9, Duration::ZERO, || dfg_serve::verify_payload(&reply)) * 1e3;
        let server_ms = median(&exec_ms);
        out.push(("serve.exec_ms".into(), server_ms));
        out.push(("serve.encode_ms".into(), encode_ms));
        out.push(("serve.decode_ms".into(), decode_ms));
        out.push(("serve.verify_payload_ms".into(), verify_ms));
        // What is left of a round after both tenants' execution and wire
        // work: the batch window, queueing, socket transfer, hand-offs.
        let accounted = TENANTS.len() as f64 * (server_ms + encode_ms + decode_ms + verify_ms);
        out.push(("serve.queue_window_ms".into(), op_ms - accounted));
        out.push(("serve.reply_bytes".into(), line.len() as f64));
        out.push((
            "core.model_error".into(),
            server_ms / median(&device_ms).max(f64::MIN_POSITIVE),
        ));
    }
    out.push((
        "serve.coalesced_share".into(),
        coalesced as f64 / replies.max(1) as f64,
    ));
    if let Some((server, tenants)) = plain.stats() {
        let sum = |f: fn(&TenantStats) -> u64| tenants.iter().map(f).sum::<u64>() as f64;
        out.push(("serve.batches".into(), server.batches as f64));
        out.push((
            "serve.rejected".into(),
            (server.rejected_overload
                + server.rejected_quota
                + server.rejected_too_large
                + server.rejected_deadline) as f64,
        ));
        out.push(("serve.compiles".into(), sum(|t| t.session.codegen_compiles)));
        out.push((
            "core.uploads_skipped".into(),
            sum(|t| t.session.uploads_skipped),
        ));
        out.push((
            "core.codegen_cached".into(),
            sum(|t| t.session.codegen_cached),
        ));
        out.push(("core.pool_hits".into(), sum(|t| t.pool_hits)));
    }
    plain.stop();
    traced.stop();
    traced::core_split(
        &server_tracer.snapshot(),
        "bench.block",
        plan.arms[0].name,
        &mut out,
    );

    let fields = plan.fields();
    let probe = Probe {
        source: plan.expr(0, 0),
        outputs: None,
        fields: &fields,
        dims: plan.grid,
        reference: dfg_core::Workload::VelocityMagnitude,
    };
    layers::mesh(plan.grid, &server_tracer, &mut out);
    layers::front_end(&probe, &server_tracer, &mut out);
    let triad_gbs = traced::common_probes(
        cfg,
        fields.ncells(),
        op_ms,
        &server_tracer,
        &mut gate,
        &mut out,
    );
    layers::kernels(&probe, &server_tracer, op_ms, triad_gbs, &mut out);

    let merged = Trace::merge([(0, server_tracer.snapshot()), (1, client_tracer.snapshot())]);
    traced::write_chrome_trace(cfg, &merged, &mut gate);
    Traced {
        values: traced::in_contract_order(out),
        gate,
    }
}

/// The child's measurement for a serve workload: median primary-arm
/// latency over one block after the cold requests.
pub fn child_op_ms(plan: &Plan) -> Result<f64, String> {
    let mut gate = Gate::default();
    let expected = Expected::compute(plan, &mut gate);
    let mut rig = Rig::start(None)?;
    rig.cold(plan, &expected, &mut gate);
    let load = rig.load(plan, &expected, &[0], plan.block, 0, None, None, &mut gate);
    rig.stop();
    match gate.errors.first() {
        Some(e) => Err(e.clone()),
        None => Ok(median(&load.round_ms[0].raw)),
    }
}
