//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and every per-layer metric with the
//! end-to-end metric and workload it is expected to move. `BENCHMARK.json`
//! is `perf contract`'s output; `tests/quick.rs` keeps the two equal.

use dfg_trace::json::{escape, number};

/// Length of one run's timed window, seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 18;

pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "vmag_128",
        why: "Under 1 flop/byte on 128^3: the kernel is half the op, so dfg-ocl copies, buffer zeroing and dfg-core field assembly show here and almost nowhere else; fusion currently loses to staged.",
    },
    WorkloadInfo {
        name: "qcrit_128",
        why: "The fused interpreter and gradient stencil are ~87% of the fusion op and copies under 5%; the staged arm (67 launches) weighs launch/alloc overhead and the primitive library instead.",
    },
    WorkloadInfo {
        name: "insitu_slab",
        why: "The same kernel and device layers driven through session state (residents, pool, kernel cache, two-root split) with dirty fields beside skipped uploads, at all three verification levels.",
    },
    WorkloadInfo {
        name: "serve_small",
        why: "16^3 requests where execution is a few per cent: the 2 ms batch window, queueing, framing and thread hand-offs are the request; distinct expressions execute, shared ones coalesce.",
    },
    WorkloadInfo {
        name: "serve_payload",
        why: "64^3 replies of ~2.9 MB JSON: encode, socket write, parse and payload checksum are the request; the nodata arm isolates execution so payload and kernel gains cannot be confused.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

/// All lower-is-better; every workload reports all four. The three time
/// metrics are medians of samples taken to the baseline machine's speed
/// (`sys::Sweep`); `timings` has the medians as measured beside them. The
/// bounds are what this sandbox can resolve: quiet runs of one build
/// spread 2–4 %, and for minutes at a time the whole machine runs 20–40 %
/// slower, of which the speed correction removes about half. 0.25 is the
/// most the contract allows.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        meaning: "what a user pays once: field set, engine/sessions (server, connections) and the first, cold call of every arm; rebuilt from scratch at least 5 times, median",
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        bound: 0.25,
        meaning: "median wall of the workload's primary operation, what its user waits for",
    },
    EndToEnd {
        name: "arms_ms",
        unit: "ms",
        bound: 0.25,
        meaning: "sum of the medians of all arms, primary included: the same layers used every other way",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        // Three times the spread of `qcrit_128`'s two 16 MiB-apart modes.
        bound: 0.16,
        meaning: "VmHWM after set-up and the first 15 rounds of the timed window",
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric a change to this number should move, or
    /// `none` for ceilings, canaries and views the timed run cannot see.
    pub moves: &'static str,
    /// The workloads on which it should (`all`, `-` with `none`).
    pub on: &'static str,
}

/// Arms that run through an engine or session, so have a `ProfileReport`.
const ENGINE_ARMS: [(&str, &str, bool); 8] = [
    // (arm, workloads that have it, whether it is a primary op)
    ("fusion", "vmag_128 qcrit_128", true),
    ("staged", "vmag_128 qcrit_128", false),
    ("roundtrip", "vmag_128", false),
    ("streamed", "qcrit_128", false),
    ("cycle", "insitu_slab", true),
    ("cycle_residents", "insitu_slab", false),
    ("cycle_full", "insitu_slab", false),
    ("oneshot", "insitu_slab", false),
];

const SERVE_ARMS: [(&str, &str, bool); 4] = [
    ("distinct", "serve_small", true),
    ("shared", "serve_small", false),
    ("fetch", "serve_payload", true),
    ("nodata", "serve_payload", false),
];

const KERNEL_WORKLOADS: &str = "qcrit_128 insitu_slab";

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = Vec::new();
    let mut add = |name: &str, unit, better, moves, on| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
            moves,
            on,
        })
    };
    add("bench.calib_ms", "ms", "lower", "none", "-");
    add("bench.memcpy_gbs", "GB/s", "higher", "none", "-");
    add("bench.triad_gbs", "GB/s", "higher", "none", "-");
    add("bench.trace_overhead", "ratio", "lower", "none", "-");
    add("bench.minflt_per_op", "count", "lower", "op_ms", "vmag_128");
    add("bench.cpu_ms_per_op", "ms", "lower", "op_ms", "all");
    add("bench.op_coldheap_ms", "ms", "lower", "none", "-");
    add("mesh.fieldgen_ms", "ms", "lower", "setup_s", "all");
    add("sim.step_ms", "ms", "lower", "none", "-");
    add("expr.compile_us", "us", "lower", "setup_s", "all");
    add("expr.nodes", "count", "lower", "setup_s", "all");
    add("dataflow.optimize_us", "us", "lower", "setup_s", "all");
    add("dataflow.schedule_us", "us", "lower", "setup_s", "all");
    add("dataflow.hash_us", "us", "lower", "op_ms", "serve_small");
    add("dataflow.filters", "count", "lower", "arms_ms", "qcrit_128");
    add("kernels.fuse_us", "us", "lower", "setup_s", "all");
    add("kernels.fused_ms", "ms", "lower", "op_ms", KERNEL_WORKLOADS);
    add(
        "kernels.fused_mcells_s",
        "Mcells/s",
        "higher",
        "op_ms",
        KERNEL_WORKLOADS,
    );
    add(
        "kernels.fused_gbs",
        "GB/s",
        "higher",
        "op_ms",
        KERNEL_WORKLOADS,
    );
    add(
        "kernels.fused_frac_triad",
        "ratio",
        "higher",
        "op_ms",
        KERNEL_WORKLOADS,
    );
    add(
        "kernels.fused_share",
        "ratio",
        "lower",
        "op_ms",
        KERNEL_WORKLOADS,
    );
    add(
        "kernels.prim_ew_gbs",
        "GB/s",
        "higher",
        "arms_ms",
        "qcrit_128",
    );
    add(
        "kernels.grad3d_mcells_s",
        "Mcells/s",
        "higher",
        "op_ms",
        KERNEL_WORKLOADS,
    );
    add("kernels.prim_sum_ms", "ms", "lower", "arms_ms", "qcrit_128");
    add("kernels.ref_ms", "ms", "lower", "none", "-");
    add(
        "kernels.fusion_x_ref",
        "ratio",
        "lower",
        "op_ms",
        "qcrit_128",
    );
    add("ocl.h2d_gbs", "GB/s", "higher", "op_ms", "vmag_128");
    add("ocl.d2h_gbs", "GB/s", "higher", "op_ms", "vmag_128");
    add("ocl.alloc_us", "us", "lower", "arms_ms", "qcrit_128");
    add("ocl.launch_us", "us", "lower", "arms_ms", "qcrit_128");
    add(
        "ocl.checksum_gbs",
        "GB/s",
        "higher",
        "arms_ms",
        "insitu_slab",
    );
    for (arm, on, primary) in ENGINE_ARMS {
        let time_metric = if primary { "op_ms" } else { "arms_ms" };
        for (what, unit, moves) in [
            ("h2d_count", "count", time_metric),
            ("d2h_count", "count", time_metric),
            ("kernel_count", "count", time_metric),
            ("h2d_bytes", "B", time_metric),
            ("d2h_bytes", "B", time_metric),
            ("high_water_bytes", "B", "peak_rss_mib"),
            ("model_ms", "ms", "none"),
        ] {
            let on = if moves == "none" { "-" } else { on };
            add(&format!("ocl.{what}.{arm}"), unit, "lower", moves, on);
        }
    }
    add("exec.threads", "count", "higher", "none", "-");
    add("exec.forkjoin_us", "us", "lower", "arms_ms", "qcrit_128");
    add("exec.op_mt_ms", "ms", "lower", "none", "-");
    add("exec.speedup", "ratio", "higher", "none", "-");
    for (arm, on, primary) in ENGINE_ARMS {
        let moves = if primary { "op_ms" } else { "arms_ms" };
        add(&format!("core.{arm}_ms"), "ms", "lower", moves, on);
    }
    add("core.upload_ms", "ms", "lower", "op_ms", "vmag_128");
    add("core.kernel_ms", "ms", "lower", "op_ms", KERNEL_WORKLOADS);
    add("core.download_ms", "ms", "lower", "op_ms", "vmag_128");
    add("core.self_ms", "ms", "lower", "op_ms", "vmag_128");
    add("core.model_error", "ratio", "lower", "none", "-");
    add(
        "core.session_saved_ms",
        "ms",
        "higher",
        "op_ms",
        "insitu_slab",
    );
    add(
        "core.verify_cost_ms",
        "ms",
        "lower",
        "arms_ms",
        "insitu_slab",
    );
    add(
        "core.uploads_skipped",
        "count",
        "higher",
        "op_ms",
        "insitu_slab",
    );
    add(
        "core.codegen_cached",
        "count",
        "higher",
        "op_ms",
        "insitu_slab",
    );
    add("core.pool_hits", "count", "higher", "op_ms", "insitu_slab");
    for (arm, on, primary) in SERVE_ARMS {
        let moves = if primary { "op_ms" } else { "arms_ms" };
        add(&format!("serve.{arm}_ms"), "ms", "lower", moves, on);
    }
    add("serve.exec_ms", "ms", "lower", "arms_ms", "serve_payload");
    add("serve.encode_ms", "ms", "lower", "op_ms", "serve_payload");
    add("serve.decode_ms", "ms", "lower", "op_ms", "serve_payload");
    add(
        "serve.verify_payload_ms",
        "ms",
        "lower",
        "op_ms",
        "serve_payload",
    );
    add(
        "serve.queue_window_ms",
        "ms",
        "lower",
        "op_ms",
        "serve_small",
    );
    add("serve.reply_bytes", "B", "lower", "op_ms", "serve_payload");
    add(
        "serve.coalesced_share",
        "ratio",
        "higher",
        "arms_ms",
        "serve_small",
    );
    add("serve.batches", "count", "higher", "arms_ms", "serve_small");
    add("serve.rejected", "count", "lower", "none", "-");
    add("serve.compiles", "count", "lower", "setup_s", "serve_small");
    add("trace.span_ns", "ns", "lower", "none", "-");
    v
}

/// The text of `BENCHMARK.json`.
pub fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name,
                m.unit,
                number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--config\", \"bench/.cargo/config.toml\", \"--manifest-path\", \"bench/Cargo.toml\", \
         \"--\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The contract as a reader wants it: what each metric means and which
/// end-to-end metric each per-layer metric is expected to move, and where.
pub fn explain() -> String {
    let mut text = String::from("end-to-end (lower is better)\nname\tunit\tbound\tmeaning\n");
    for m in &END_TO_END {
        text.push_str(&format!(
            "{}\t{}\t{}%\t{}\n",
            m.name,
            m.unit,
            m.bound * 100.0,
            m.meaning
        ));
    }
    text.push_str("\nper-layer\nname\tunit\tbetter\tshould move\ton\n");
    for m in per_layer() {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            m.name, m.unit, m.better, m.moves, m.on
        ));
    }
    text
}
