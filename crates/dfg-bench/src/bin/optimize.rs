//! Optimizer benchmark: what the multi-pass pipeline buys per strategy,
//! and what cross-request network fusion buys a serving batch.
//!
//! Two experiments:
//!
//! 1. **Engine ablation** — Q-criterion per strategy with the optimizer
//!    off vs. on (`OptLevel::Default`): kernel launches, device transfers,
//!    kernel compiles, and modeled device-seconds on the M2050 profile,
//!    plus a bit-identity check in Real mode (the default tier only
//!    applies IEEE-754-exact rewrites).
//! 2. **Cross-fusion ablation** — four tenants pipeline four *distinct*
//!    expressions sharing the `u*u+v*v+w*w` subgraph inside one serve
//!    batch window, with `cross_fusion` off vs. on; the merged arm must
//!    compile once for the whole batch and return per-tenant bits
//!    identical to the unbatched arm.
//!
//! Writes `BENCH_optimize.json`.

use std::time::Duration;

use dfg_bench::rt_fields;
use dfg_core::{Engine, EngineOptions, FieldSet, OptLevel, Strategy, Workload};
use dfg_ocl::{DeviceProfile, EventKind, ExecMode};
use dfg_serve::{Client, DeriveRequest, ExecStrategy, Request, Response, ServeConfig, Server};

const MODEL_DIMS: [usize; 3] = [64, 64, 64];
const REAL_DIMS: [usize; 3] = [12, 10, 8];
const SERVE_GRID: [usize; 3] = [16, 16, 16];

/// The four overlapping tenant expressions of the serving ablation.
const TENANT_EXPRS: [&str; 4] = [
    "vmag = sqrt(u*u + v*v + w*w)",
    "ke = 0.5 * (u*u + v*v + w*w)",
    "s = u*u + v*v + w*w",
    "sp = (u*u + v*v + w*w) + 1",
];

struct Row {
    strategy: Strategy,
    off: Counts,
    on: Counts,
    filters_before: usize,
    filters_after: usize,
}

struct Counts {
    writes: usize,
    reads: usize,
    kernels: usize,
    compiles: u64,
    device_seconds: f64,
}

fn engine_run(level: OptLevel, strategy: Strategy, fields: &FieldSet) -> (Counts, usize, usize) {
    let mut engine = Engine::with_options(
        DeviceProfile::nvidia_m2050(),
        EngineOptions {
            mode: ExecMode::Model,
            optimize: level,
            ..EngineOptions::default()
        },
    );
    let src = Workload::QCriterion.source();
    let report = engine.derive(src, fields, strategy).expect("model derive");
    let (writes, reads, kernels) = report.table2_row();
    let stats = engine.opt_stats(src).expect("program cached");
    (
        Counts {
            writes,
            reads,
            kernels,
            compiles: report.profile.count(EventKind::KernelCompile) as u64,
            device_seconds: report.device_seconds(),
        },
        stats.filters_before,
        stats.filters_after,
    )
}

/// Real-mode bit-identity: the default tier may not change a single bit.
fn assert_bit_identical() {
    let fields = rt_fields(REAL_DIMS);
    let src = Workload::QCriterion.source();
    for strategy in Strategy::ALL {
        let mut off = Engine::new(DeviceProfile::nvidia_m2050());
        let mut on = Engine::with_options(
            DeviceProfile::nvidia_m2050(),
            EngineOptions {
                optimize: OptLevel::Default,
                ..EngineOptions::default()
            },
        );
        let a = off.derive(src, &fields, strategy).expect("off");
        let b = on.derive(src, &fields, strategy).expect("on");
        let a: Vec<u32> = a.field.unwrap().data.iter().map(|f| f.to_bits()).collect();
        let b: Vec<u32> = b.field.unwrap().data.iter().map(|f| f.to_bits()).collect();
        assert_eq!(a, b, "{strategy}: optimized output changed bits");
    }
}

/// One serving arm; returns (sum of reply compiles, merged counter, bits
/// per tenant in request order).
fn serve_arm(cross_fusion: bool) -> (u64, u64, Vec<Vec<u32>>) {
    let config = ServeConfig {
        coalesce: true,
        cross_fusion,
        batch_window: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let mut ids = Vec::new();
    for (t, expr) in TENANT_EXPRS.iter().enumerate() {
        ids.push(
            client
                .send(Request::Derive(DeriveRequest {
                    id: 0,
                    tenant: format!("t{t}"),
                    expr: (*expr).into(),
                    grid: SERVE_GRID,
                    strategy: ExecStrategy::Fusion,
                    data: true,
                    deadline_ms: None,
                }))
                .expect("send"),
        );
    }
    let mut compiles = 0u64;
    let mut bits = Vec::new();
    for id in ids {
        match client.recv_for(id).expect("recv") {
            Response::Ok(r) => {
                compiles += r.compiles;
                bits.push(r.data_bits.expect("payload"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    let counters = server.join().expect("join");
    (compiles, counters.merged, bits)
}

fn main() {
    println!(
        "OPTIMIZER BENCHMARK: Q-criterion over {}x{}x{} cells (model, M2050), \
         optimizer off vs default",
        MODEL_DIMS[0], MODEL_DIMS[1], MODEL_DIMS[2]
    );
    println!();

    assert_bit_identical();

    let fields = rt_fields(MODEL_DIMS);
    let mut rows = Vec::new();
    for strategy in Strategy::ALL {
        let (off, fb, fa_off) = engine_run(OptLevel::Off, strategy, &fields);
        let (on, _, fa) = engine_run(OptLevel::Default, strategy, &fields);
        assert_eq!(fb, fa_off, "Off level must not touch the network");
        assert!(
            fa < fb,
            "{strategy}: optimizer eliminated no filters ({fa} vs {fb})"
        );
        assert!(
            on.kernels <= off.kernels && on.writes <= off.writes && on.reads <= off.reads,
            "{strategy}: optimization increased device events"
        );
        assert!(
            on.device_seconds <= off.device_seconds,
            "{strategy}: optimization increased modeled device time"
        );
        rows.push(Row {
            strategy,
            off,
            on,
            filters_before: fb,
            filters_after: fa,
        });
    }
    // Staged launches one kernel per filter: the drop must be strict there.
    let staged = rows
        .iter()
        .find(|r| r.strategy == Strategy::Staged)
        .expect("staged row");
    assert!(
        staged.on.kernels < staged.off.kernels,
        "staged kernel launches must strictly drop"
    );

    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>12} {:>14}",
        "strategy", "filters", "Dev-W off/on", "Dev-R off/on", "K-Exe off/on", "device s off/on"
    );
    for r in &rows {
        println!(
            "{:<10} {:>3} -> {:>2} {:>6}/{:<6} {:>6}/{:<6} {:>5}/{:<5} {:>7.4}/{:<7.4}",
            r.strategy.name(),
            r.filters_before,
            r.filters_after,
            r.off.writes,
            r.on.writes,
            r.off.reads,
            r.on.reads,
            r.off.kernels,
            r.on.kernels,
            r.off.device_seconds,
            r.on.device_seconds,
        );
    }

    println!();
    println!(
        "CROSS-FUSION ABLATION: 4 tenants, 4 distinct expressions sharing \
         u*u+v*v+w*w, one batch window ({}^3 grid, fusion)",
        SERVE_GRID[0]
    );
    let (compiles_off, merged_off, bits_off) = serve_arm(false);
    let (compiles_on, merged_on, bits_on) = serve_arm(true);
    assert_eq!(bits_on, bits_off, "merged outputs differ from unbatched");
    assert_eq!(merged_off, 0);
    assert_eq!(merged_on, 4, "all four requests should merge");
    assert_eq!(compiles_off, 4, "unmerged arm: one codegen per expression");
    assert_eq!(
        compiles_on, 1,
        "merged arm: one codegen for the whole batch"
    );
    println!(
        "  compiles: {compiles_off} unmerged -> {compiles_on} merged \
         ({merged_on} requests served by one multi-output network)"
    );

    let mut json = String::from("{\n  \"benchmark\": \"optimize\",\n");
    json.push_str(&format!(
        "  \"grid\": [{}, {}, {}],\n  \"workload\": \"q_crit\",\n  \
         \"device\": \"NVIDIA Tesla M2050 (modeled)\",\n  \"strategies\": {{\n",
        MODEL_DIMS[0], MODEL_DIMS[1], MODEL_DIMS[2]
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\n      \"filters\": {{\"off\": {}, \"on\": {}}},\n      \
             \"writes\": {{\"off\": {}, \"on\": {}}},\n      \
             \"reads\": {{\"off\": {}, \"on\": {}}},\n      \
             \"kernels\": {{\"off\": {}, \"on\": {}}},\n      \
             \"compiles\": {{\"off\": {}, \"on\": {}}},\n      \
             \"device_seconds\": {{\"off\": {:.6}, \"on\": {:.6}}}\n    }}{}\n",
            r.strategy.name(),
            r.filters_before,
            r.filters_after,
            r.off.writes,
            r.on.writes,
            r.off.reads,
            r.on.reads,
            r.off.kernels,
            r.on.kernels,
            r.off.compiles,
            r.on.compiles,
            r.off.device_seconds,
            r.on.device_seconds,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!(
        "  }},\n  \"cross_fusion\": {{\n    \"tenants\": {},\n    \
         \"grid\": [{}, {}, {}],\n    \
         \"compiles\": {{\"off\": {compiles_off}, \"on\": {compiles_on}}},\n    \
         \"merged_requests\": {merged_on},\n    \"bit_identical\": true\n  }}\n}}\n",
        TENANT_EXPRS.len(),
        SERVE_GRID[0],
        SERVE_GRID[1],
        SERVE_GRID[2],
    ));
    std::fs::write("BENCH_optimize.json", json).expect("write BENCH_optimize.json");
    println!();
    println!("results written to BENCH_optimize.json");
}
