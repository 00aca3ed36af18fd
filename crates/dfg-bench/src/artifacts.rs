//! The paper's artifacts, each defined once: a function that computes an
//! [`Artifact`] — rows of typed cells, the verdicts against the paper, and
//! whether they held. [`Artifact::text`] is the one plain-text renderer
//! (what the per-artifact binary prints), [`Artifact::markdown`] the one
//! Markdown renderer (what `report` writes to REPORT.md); both read the
//! same rows.

use std::time::Duration;

use dfg_cluster::{run_distributed, Cluster, DistOptions, DistResult};
use dfg_core::{
    plan, EngineOptions, Exec, ExecReport, FieldSet, OptLevel, PlanOption, RecoveryPolicy, Request,
    Strategy, Workload,
};
use dfg_dataflow::{example_networks, memreq_units};
use dfg_expr::compile;
use dfg_mesh::{GridSpec, RectilinearMesh, RtWorkload, TABLE1_CATALOG};
use dfg_ocl::{DeviceProfile, EventKind, ExecMode, FaultPlan};

use crate::{
    gib, model_engine, stream_failed_fusion_cases, virtual_fields, Matrix, Series, Target,
};

/// One table cell. A number keeps its value; each renderer prints it at its
/// own precision (text: the binaries' four decimals of a second and three
/// of a GB; Markdown: REPORT.md's three and two).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Printed as is.
    Label(String),
    /// An integer; text groups thousands as the paper prints them.
    Count(u64),
    /// Modeled device seconds; `None` is a device out-of-memory failure.
    Seconds(Option<f64>),
    /// Device memory in GB; `None` is a device out-of-memory failure.
    Gb(Option<f64>),
}

impl Cell {
    fn label(s: impl ToString) -> Cell {
        Cell::Label(s.to_string())
    }

    fn render(&self, markdown: bool) -> String {
        match (self, markdown) {
            (Cell::Label(s), _) => s.clone(),
            (Cell::Count(n), true) => n.to_string(),
            (Cell::Count(n), false) => {
                let digits = n.to_string();
                let groups = digits.as_bytes().rchunks(3).rev();
                let groups: Vec<_> = groups.map(String::from_utf8_lossy).collect();
                groups.join(",")
            }
            (Cell::Seconds(Some(s)), true) => format!("{s:.3}"),
            (Cell::Seconds(Some(s)), false) => format!("{s:.4}"),
            (Cell::Gb(Some(gb)), true) => format!("{gb:.2}"),
            (Cell::Gb(Some(gb)), false) => format!("{gb:.3}"),
            (Cell::Seconds(None) | Cell::Gb(None), true) => "—".to_string(),
            (Cell::Seconds(None) | Cell::Gb(None), false) => "FAILED".to_string(),
        }
    }
}

/// A table of an artifact.
#[derive(Debug, Clone)]
pub struct Table {
    /// Sub-heading (Figures 5 and 6 have one table per expression).
    pub heading: Option<&'static str>,
    /// Column names.
    pub headers: Vec<String>,
    /// The rows; both renderers print exactly these.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    fn new(heading: Option<&'static str>, headers: &[&str], rows: Vec<Vec<Cell>>) -> Table {
        Table {
            heading,
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    /// Markdown, or plain text with the first column left-aligned and the
    /// others right-aligned, each as wide as its widest cell.
    fn render(&self, markdown: bool) -> String {
        let rendered = |row: &Vec<Cell>| row.iter().map(|c| c.render(markdown)).collect();
        let mut lines: Vec<Vec<String>> = vec![self.headers.clone()];
        lines.extend(self.rows.iter().map(rendered));
        let width = |col: usize| lines.iter().map(|l| l[col].chars().count()).max();
        let widths: Vec<usize> = (0..self.headers.len()).filter_map(width).collect();
        let line = |cells: &Vec<String>| {
            if markdown {
                return format!("| {} |\n", cells.join(" | "));
            }
            let mut out = format!("{:<w$}", cells[0], w = widths[0]);
            for (cell, w) in cells.iter().zip(&widths).skip(1) {
                out += &format!("  {cell:>w$}");
            }
            out.trim_end().to_string() + "\n"
        };
        let mut out: Vec<String> = lines.iter().map(line).collect();
        let rule = if markdown {
            format!("|{}", "---|".repeat(widths.len()))
        } else {
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        };
        out.insert(1, rule + "\n");
        out.concat()
    }
}

/// One table or figure of the paper, regenerated.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Section title.
    pub title: &'static str,
    /// The measured rows.
    pub tables: Vec<Table>,
    /// What the binary prints under the tables: context and every verdict
    /// against the paper.
    pub text_notes: String,
    /// The paragraph REPORT.md carries under the tables (may be empty).
    pub md_notes: String,
    /// Whether every check against the paper held.
    pub ok: bool,
}

impl Artifact {
    /// The plain-text renderer.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for table in &self.tables {
            let heading = table.heading.map(|h| format!("=== {h} ===\n"));
            out += &format!("\n{}{}", heading.unwrap_or_default(), table.render(false));
        }
        out + "\n" + &self.text_notes
    }

    /// The Markdown renderer.
    pub fn markdown(&self) -> String {
        let mut out = format!("## {}\n\n", self.title);
        for table in &self.tables {
            let heading = table.heading.map(|h| format!("### {h}\n\n"));
            out += &format!("{}{}\n", heading.unwrap_or_default(), table.render(true));
        }
        if !self.md_notes.is_empty() {
            out += &format!("{}\n\n", self.md_notes);
        }
        out
    }

    /// What a per-artifact binary does: print the text rendering and exit
    /// non-zero if a check against the paper failed.
    pub fn print_and_check(&self) {
        print!("{}", self.text());
        if !self.ok {
            std::process::exit(1);
        }
    }
}

/// Table I: the sub-grid catalog of the single-device evaluation.
pub fn table1() -> Artifact {
    let row = |g: &GridSpec| {
        let size = Cell::Label(g.data_size_display());
        vec![Cell::label(g), Cell::Count(g.ncells()), size]
    };
    let rows = TABLE1_CATALOG.iter().map(row).collect();
    Artifact {
        title: "Table I — evaluation grids",
        tables: vec![Table::new(None, &["grid", "cells", "data"], rows)],
        text_notes: "Sub-grids of the 3072^3 RT simulation time step used for the \
                     single-device evaluation.\n"
            .to_string(),
        md_notes: String::new(),
        ok: true,
    }
}

/// Table II: host-to-device transfers (Dev-W), device-to-host transfers
/// (Dev-R) and kernel executions (K-Exe) per expression × strategy, read
/// from the device-event profile and compared with the paper's counts.
pub fn table2() -> Artifact {
    let mut engine = model_engine(DeviceProfile::nvidia_m2050(), EngineOptions::default());
    // Event counts are size-independent; use the smallest catalog grid.
    let fields = FieldSet::virtual_rt(TABLE1_CATALOG[0].dims());
    let (mut rows, mut mismatches) = (Vec::new(), 0);
    for workload in Workload::ALL {
        for strategy in Strategy::ALL {
            let (_, report) = engine
                .run(&Request::source(workload.source(), strategy), &fields)
                .expect("model-mode run cannot fail on the smallest grid");
            let (measured, paper) = (report.table2_row(), workload.paper_table2(strategy));
            mismatches += usize::from(measured != paper);
            rows.push(vec![
                Cell::label(workload.table2_name()),
                Cell::label(strategy.name()),
                Cell::Count(measured.0 as u64),
                Cell::Count(measured.1 as u64),
                Cell::Count(measured.2 as u64),
                Cell::label(format!("{paper:?}")),
                Cell::label(if measured == paper { "✓" } else { "✗" }),
            ]);
        }
    }
    let headers = [
        "expression",
        "strategy",
        "Dev-W",
        "Dev-R",
        "K-Exe",
        "paper",
        "match",
    ];
    let (text_notes, md_notes) = match mismatches {
        0 => (
            "All 9 rows match the paper's Table II exactly.\n".to_string(),
            "**All nine rows match the paper exactly.**",
        ),
        n => (
            format!("{n} rows differ from the paper — investigate!\n"),
            "**MISMATCHES FOUND.**",
        ),
    };
    Artifact {
        title: "Table II — device events (measured vs paper)",
        tables: vec![Table::new(None, &headers, rows)],
        text_notes,
        md_notes: md_notes.to_string(),
        ok: mismatches == 0,
    }
}

/// Figure 2: peak problem-sized device arrays the example dataflow network
/// needs under each strategy.
pub fn fig2() -> Artifact {
    let spec = example_networks::fig2_example();
    let mut rows = Vec::new();
    let mut ok = true;
    for (strategy, paper) in Strategy::ALL.into_iter().zip([3, 4, 5]) {
        let req = memreq_units(&spec, strategy).expect("valid example network");
        ok &= req.units == paper;
        rows.push(vec![
            Cell::label(strategy.name()),
            Cell::Count(req.units),
            Cell::Count(paper),
        ]);
    }
    Artifact {
        title: "Figure 2 — example-network memory accounting",
        tables: vec![Table::new(
            None,
            &["strategy", "peak arrays", "paper"],
            rows,
        )],
        text_notes: format!(
            "{}.\n\nThe example network (two filters merging into a third):\n\n{}\n\
             Roundtrip holds intermediates on the host; staged must keep the first\n\
             filter's intermediate resident while the second executes; fusion needs\n\
             all four inputs plus the output simultaneously for its single kernel.\n",
            if ok {
                "All three strategies need exactly the paper's number of arrays"
            } else {
                "DIVERGED from the paper's Figure 2"
            },
            spec.to_script()
        ),
        md_notes: String::new(),
        ok,
    }
}

/// One table per expression with one row per catalog grid: the grid, then
/// the cells `row` computes.
fn tables_per_workload(
    headers: &[String],
    mut row: impl FnMut(Workload, GridSpec) -> Vec<Cell>,
) -> Vec<Table> {
    let mut table = |workload: Workload| Table {
        heading: Some(workload.table2_name()),
        headers: [vec!["grid".to_string()], headers.to_vec()].concat(),
        rows: TABLE1_CATALOG
            .iter()
            .map(|g| [vec![Cell::label(g)], row(workload, *g)].concat())
            .collect(),
    };
    Workload::ALL.into_iter().map(&mut table).collect()
}

/// Figure 5: modeled device seconds (host→device transfers + kernels +
/// device→host transfers, §IV-D.1) of every case of the matrix. Absolute
/// values are calibrated estimates — the shape (orderings, crossovers,
/// failures) is the reproduction target.
pub fn fig5(matrix: &Matrix) -> Artifact {
    let columns = || {
        Target::ALL
            .into_iter()
            .flat_map(|t| Series::ALL.map(|s| (t, s)))
    };
    let headers: Vec<String> = columns()
        .map(|(t, s)| format!("{}:{}", t.name(), s.name()))
        .collect();
    let seconds = |w, g| {
        let cell = |(t, s)| Cell::Seconds(matrix.get(w, s, t, g).seconds());
        columns().map(cell).collect()
    };
    let completed = |target| {
        let ok = |c: &&crate::Case| c.target == target && c.outcome.seconds().is_some();
        matrix.cases().iter().filter(ok).count()
    };
    // Summary statistics the paper reports in §V-A.
    let (gpu, cpu, cases) = (
        completed(Target::Gpu),
        completed(Target::Cpu),
        matrix.cases().len() / 2,
    );
    Artifact {
        title: "Figure 5 — runtime (modeled seconds)",
        tables: tables_per_workload(&headers, seconds),
        text_notes: format!(
            "GPU completed {gpu} of {cases} test cases ({:.0}%); paper: 106 of 144 (73%).\n\
             CPU completed all test cases: {} (paper: yes).\n",
            100.0 * gpu as f64 / cases as f64,
            if cpu == cases {
                "yes"
            } else {
                "NO — investigate"
            }
        ),
        md_notes: format!(
            "GPU completed **{gpu} of {cases}** test cases (paper: 106 of 144). \
             Dashes mark device out-of-memory failures."
        ),
        ok: (gpu, cpu, cases) == (106, 144, 144),
    }
}

/// Figure 6: maximum global device memory reserved for buffers during each
/// Figure 5 run, as the CPU measures it (the GPU's is identical wherever it
/// succeeds), and which series fail on the GPU.
pub fn fig6(matrix: &Matrix) -> Artifact {
    let usable = Target::Gpu.profile().global_mem_bytes;
    let headers: Vec<String> = Series::ALL
        .iter()
        .map(|s| s.name().to_string())
        .chain(["GPU failures".to_string()])
        .collect();
    let mut unexplained = String::new();
    let tables = tables_per_workload(&headers, |w, g| {
        let mut cells = Vec::new();
        let mut failed = Vec::new();
        for s in Series::ALL {
            let cpu = matrix.get(w, s, Target::Cpu, g).high_water();
            let gpu_failed = matrix.get(w, s, Target::Gpu, g).high_water().is_none();
            // §V-B: a GPU case fails exactly when its CPU-measured
            // footprint exceeds what the device can allocate.
            if cpu.map(|bytes| bytes > usable) != Some(gpu_failed) {
                unexplained += &format!(
                    "INCONSISTENT: {w}/{} {g}: CPU high-water {cpu:?} B, GPU failed={gpu_failed}\n",
                    s.name()
                );
            }
            if gpu_failed {
                failed.push(s.name());
            }
            cells.push(Cell::Gb(cpu.map(gib)));
        }
        cells.push(Cell::label(if failed.is_empty() {
            "none".to_string()
        } else {
            failed.join(", ")
        }));
        cells
    });
    Artifact {
        title: "Figure 6 — peak device memory (GB, CPU-measured)",
        tables,
        text_notes: format!(
            "NVIDIA M2050 nominal capacity (the paper's green line): 3.0 GB\n\
             Usable after ECC + driver reservation (the failure threshold): {:.2} GB\n\
             {unexplained}Memory requirements {} the GPU failure set (paper: \"memory \
             constraints were the cause of the failed GPU test cases\").\n",
            gib(usable),
            if unexplained.is_empty() {
                "exactly explain"
            } else {
                "DO NOT explain"
            }
        ),
        md_notes: String::new(),
        ok: unexplained.is_empty(),
    }
}

/// Figure 7: the paper's distributed Q-criterion run — 3072³ cells as 3072
/// sub-grids of 192×192×256 on 128 nodes × 2 GPUs, fusion — in model mode
/// (virtual buffers, modeled clocks).
pub fn fig7() -> Artifact {
    let cluster = Cluster::edge_128x2();
    let r = run_distributed(
        &RectilinearMesh::unit_cube([3072, 3072, 3072]),
        [16, 16, 12],
        &RtWorkload::paper_default(),
        &cluster,
        &DistOptions {
            workload: Workload::QCriterion,
            strategy: Strategy::Fusion,
            mode: ExecMode::Model,
            ..Default::default()
        },
    )
    .expect("model-mode distributed run");
    let (nodes, gpus, per_gpu) = (cluster.nodes, cluster.devices_per_node, r.blocks / r.ranks);
    let peak_gb = gib(r.max_high_water);
    Artifact {
        title: "Figure 7 — distributed run (paper topology, modeled)",
        tables: Vec::new(),
        text_notes: format!(
            "Full configuration (model mode): {} cells, {} sub-grids of 192x192x256,\n\
             {nodes} nodes x {gpus} GPUs = {} ranks, {per_gpu} sub-grids per GPU.\n\n\
             sub-grids processed:        {}\n\
             total kernel launches:      {}\n\
             per-device peak memory:     {peak_gb:.3} GB (M2050 capacity 3.0 GB)\n\
             modeled makespan:           {:.3} s  (max over ranks; mean {:.3} s)\n",
            r.global_dims.iter().map(|d| *d as u64).product::<u64>(),
            r.blocks,
            r.ranks,
            r.blocks,
            r.total_kernel_execs,
            r.makespan_seconds,
            r.rank_device_seconds.iter().sum::<f64>() / r.ranks as f64
        ),
        md_notes: format!(
            "3072³ cells, {} sub-grids over {} ranks ({nodes} nodes × {gpus} GPUs), {per_gpu} \
             sub-grids/GPU: {} fused kernel launches, {peak_gb:.3} GB peak per device, \
             modeled makespan {:.2} s.",
            r.blocks, r.ranks, r.total_kernel_execs, r.makespan_seconds
        ),
        ok: true,
    }
}

/// A modeled time in milliseconds, for the rows whose seconds would print
/// as zeros.
fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// A count or time before and after, as one cell.
fn arrow(before: impl std::fmt::Display, after: impl std::fmt::Display) -> Cell {
    Cell::label(format!("{before} → {after}"))
}

/// A ratio, as one cell.
fn times(ratio: f64) -> Cell {
    Cell::label(format!("{ratio:.2}×"))
}

/// The in-situ hot loop (§V): `w_mag` and `q_crit` of a 64³ grid, one fused
/// kernel per cycle for 20 cycles, as one-shot derives and through one
/// session. The solver moves `u`, `v`, `w` every cycle, never the
/// coordinates.
fn insitu_session() -> (Table, bool) {
    const CYCLES: usize = 20;
    let src = format!(
        "{}\nw_mag = norm(curl(u, v, w, dims, x, y, z))\n",
        Workload::QCriterion.source().trim_end()
    );
    let outputs = ["w_mag", "q_crit"];
    let request = Request::outputs(&src, &outputs, Strategy::Fusion);
    let mut fields = virtual_fields([64, 64, 64]);
    let mut cycles = |derive: &mut dyn FnMut(&FieldSet) -> ExecReport| {
        let (mut seconds, mut uploads, mut compiles) = (0.0, 0, 0);
        for _ in 0..CYCLES {
            for name in ["u", "v", "w"] {
                fields.touch(name);
            }
            let report = derive(&fields);
            seconds += report.device_seconds();
            uploads += report.profile.count(EventKind::HostToDevice) as u64;
            compiles += report.profile.count(EventKind::KernelCompile) as u64;
        }
        (seconds, uploads, compiles)
    };
    let mut engine = model_engine(Target::Gpu.profile(), EngineOptions::default());
    let one_shot = cycles(&mut |fields| {
        let derived = engine.run(&request, fields);
        derived.expect("one-shot derive").1
    });
    let mut session = engine.session();
    let cached = cycles(&mut |fields| {
        let derived = session.run(&request, fields);
        derived.expect("session derive").1
    });
    let pool_hits = session.pool_hits();
    let stats = session.end();
    let ok = one_shot.2 == CYCLES as u64
        && cached.2 == 1
        && stats.uploads_skipped == 76
        && stats.codegen_cached == CYCLES as u64 - 1
        && cached.0 < one_shot.0;
    let row = |arm: &str, (seconds, uploads, compiles): (f64, u64, u64), reuse: [u64; 3]| {
        let [skipped, cached, hits] = reuse;
        let mut row = vec![Cell::label(arm), Cell::Seconds(Some(seconds))];
        row.extend([uploads, skipped, compiles, cached, hits].map(Cell::Count));
        row.push(times(seconds / one_shot.0));
        row
    };
    let rows = vec![
        row("one-shot", one_shot, [0; 3]),
        row(
            "session",
            cached,
            [stats.uploads_skipped, stats.codegen_cached, pool_hits],
        ),
    ];
    let headers = [
        "arm",
        "device s",
        "uploads",
        "skipped",
        "compiles",
        "codegen cached",
        "pool hits",
        "vs one-shot",
    ];
    let heading = "In-situ session (§V): w_mag + q_crit, 64³, 20 cycles, fusion, M2050";
    (Table::new(Some(heading), &headers, rows), ok)
}

/// What the optimizer's default level (`OptLevel::Default`) does to the
/// Q-criterion at 64³ on the M2050, per strategy: filters, device events,
/// compiles and modeled device time, off → on.
fn optimizer() -> (Table, bool) {
    let fields = virtual_fields([64, 64, 64]);
    let src = Workload::QCriterion.source();
    let mut ok = true;
    let mut row = |strategy: Strategy| {
        let run = |optimize| {
            let mut engine = model_engine(
                Target::Gpu.profile(),
                EngineOptions {
                    optimize,
                    ..Default::default()
                },
            );
            let request = Request::source(src, strategy);
            let (_, report) = engine.run(&request, &fields).expect("model derive");
            let stats = engine.opt_stats(src).expect("program cached");
            let compiles = report.profile.count(EventKind::KernelCompile);
            (
                report.table2_row(),
                compiles,
                report.device_seconds(),
                stats,
            )
        };
        let (off, on) = (run(OptLevel::Off), run(OptLevel::Default));
        let ((w0, r0, k0), (w1, r1, k1)) = (off.0, on.0);
        let (filters, kept) = (on.3.filters_before, on.3.filters_after);
        ok &= off.3.filters_after == filters && kept < filters;
        ok &= w1 <= w0 && r1 <= r0 && k1 <= k0 && on.2 <= off.2;
        // Staged launches one kernel per filter: its drop is strict.
        ok &= strategy != Strategy::Staged || k1 < k0;
        vec![
            Cell::label(strategy.name()),
            arrow(filters, kept),
            arrow(w0, w1),
            arrow(r0, r1),
            arrow(k0, k1),
            arrow(off.1, on.1),
            arrow(ms(off.2), ms(on.2)),
        ]
    };
    let rows = Strategy::ALL.map(&mut row).to_vec();
    let headers = [
        "strategy",
        "filters",
        "Dev-W",
        "Dev-R",
        "K-Exe",
        "compiles",
        "device ms",
    ];
    let heading = "Optimizer (`OptLevel::Default`), off → on: Q-criterion, 64³, M2050";
    (Table::new(Some(heading), &headers, rows), ok)
}

/// The streamed fusion pipeline on the M2050: the largest Table I grid with
/// the slab depth set by the device budget, then 3072³ cells through a
/// 3 GB device. Returns the queue occupancies of the 3072³ run too.
fn streaming() -> (Table, Vec<f64>, bool) {
    const SWEEP: [usize; 3] = [192, 192, 3072];
    // One slab layer of the sweep grid: six inputs and the output, 4 B per
    // cell; each ring slot also holds three f32 of `dims`.
    const LAYER_BYTES: u64 = 7 * 4 * 192 * 192;
    let mut rows = Vec::new();
    // One row: the Q-criterion of `dims` streamed through `budget` bytes of
    // an M2050 with `memory` bytes. Whether the run kept to its budget and,
    // where its transfers outweigh its kernels, overlapped them.
    let mut stream = |what: String, dims, memory: u64, budget: Option<u64>| {
        let device = DeviceProfile {
            global_mem_bytes: memory,
            ..Target::Gpu.profile()
        };
        let mut engine = model_engine(device, EngineOptions::default());
        let fields = virtual_fields(dims);
        let request = Request::source(Workload::QCriterion.source(), Exec::Streamed(budget));
        let p = engine
            .run(&request, &fields)
            .expect("streamed run completes")
            .1
            .profile;
        let transfer = p.seconds(EventKind::HostToDevice) + p.seconds(EventKind::DeviceToHost);
        let kernel = p.seconds(EventKind::KernelExec);
        let (serial, makespan) = (p.device_seconds(), p.makespan_seconds());
        let budget = budget.unwrap_or(memory);
        rows.push(vec![
            Cell::label(what),
            Cell::Count(p.count(EventKind::KernelExec) as u64),
            Cell::Gb(Some(gib(budget))),
            Cell::Gb(Some(gib(p.high_water_bytes))),
            Cell::Seconds(Some(transfer)),
            Cell::Seconds(Some(kernel)),
            Cell::Seconds(Some(serial)),
            Cell::Seconds(Some(makespan)),
            Cell::Seconds(Some(p.overlap_hidden_seconds())),
            Cell::label(format!("{:.0}%", 100.0 * p.overlap_efficiency())),
        ]);
        let held = p.high_water_bytes <= budget && (transfer <= kernel || makespan < serial);
        (p, held)
    };
    let mut ok = true;
    for layers in [8, 16, 32, 64, 128] {
        // Two ring slots of `layers` interior layers and a halo layer on
        // each side: the deepest slab that fits is exactly `layers` deep.
        let budget = 2 * ((layers as u64 + 2) * LAYER_BYTES + 12);
        let memory = Target::Gpu.profile().global_mem_bytes;
        let what = format!("192×192×3072, {layers} layers");
        let (p, held) = stream(what, SWEEP, memory, Some(budget));
        ok &= held && p.count(EventKind::KernelExec) == SWEEP[2].div_ceil(layers);
    }
    let (headline, held) = stream("3072³ in 3 GB".to_string(), [3072; 3], 3 << 30, None);
    ok &= held && headline.count(EventKind::KernelExec) > 1;
    ok &= headline.makespan_seconds() < headline.device_seconds();
    let occupancy = headline.queues_used().into_iter();
    let occupancy = occupancy.map(|q| headline.queue_occupancy(q)).collect();
    let headers = [
        "grid, slab",
        "slabs",
        "budget GB",
        "peak GB",
        "transfer s",
        "kernel s",
        "serial s",
        "makespan s",
        "hidden s",
        "of transfer",
    ];
    let heading = "Streamed fusion (§VI): Q-criterion, M2050, slab depth set by the budget";
    (Table::new(Some(heading), &headers, rows), occupancy, ok)
}

/// The GPU fusion cases Figures 5/6 mark failed, re-run as streamed fusion.
fn streamed_failures() -> (Table, usize, usize) {
    let streamed = stream_failed_fusion_cases();
    let mut rows = Vec::new();
    for (workload, grid, result) in &streamed {
        let report = result.as_ref().ok();
        let profile = report.map(|r| &r.profile);
        rows.push(vec![
            Cell::label(workload.table2_name()),
            Cell::label(grid),
            Cell::Count(profile.map_or(0, |p| p.count(EventKind::KernelExec) as u64)),
            Cell::Gb(report.map(|r| gib(r.high_water_bytes()))),
            Cell::Seconds(profile.map(|p| p.makespan_seconds())),
        ]);
    }
    let recovered = streamed.iter().filter(|case| case.2.is_ok()).count();
    let headers = ["expression", "grid", "slabs", "peak GB", "makespan s"];
    let heading = "Failed GPU fusion cases of Figures 5/6, streamed";
    let table = Table::new(Some(heading), &headers, rows);
    (table, recovered, streamed.len())
}

/// Killed ranks of a distributed Q-criterion: 24×24×16 cells as 2×2×2 blocks
/// on 8 single-GPU nodes. Each dead rank's block moves to a survivor and its
/// faces are filled analytically, so the field stays the clean run's, bit
/// for bit. Real mode: a Model run exchanges no faces, so it fills none.
fn rank_loss() -> (Table, bool) {
    let cluster = Cluster {
        nodes: 8,
        devices_per_node: 1,
        profile: Target::Gpu.profile(),
    };
    let run = |kills: usize| {
        let options = DistOptions {
            workload: Workload::QCriterion,
            strategy: Strategy::Fusion,
            mode: ExecMode::Real,
            recovery: RecoveryPolicy::resilient(),
            fault_spec: (kills > 0).then(|| format!("rank_die@1x{kills}")),
            exchange_deadline: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let mesh = RectilinearMesh::unit_cube([24, 24, 16]);
        let rt = RtWorkload::paper_default();
        run_distributed(&mesh, [2, 2, 2], &rt, &cluster, &options).expect("run completes")
    };
    let runs = [0, 1, 2, 4].map(|kills| (kills, run(kills)));
    let bits = |r: &DistResult| {
        let field = r.field.as_ref().expect("real mode");
        field.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let (clean, clean_bits) = (runs[0].1.makespan_seconds, bits(&runs[0].1));
    let mut ok = true;
    let mut row = |(kills, r): &(usize, DistResult)| {
        let moved = r.redistributed_blocks.len();
        ok &= r.lost_ranks.len() == *kills && moved == *kills && r.makespan_seconds >= clean;
        ok &= bits(r) == clean_bits;
        vec![
            Cell::Count(*kills as u64),
            Cell::Count(r.lost_ranks.len() as u64),
            Cell::Count(moved as u64),
            Cell::Count(r.ghost_filled_faces as u64),
            Cell::label(ms(r.makespan_seconds)),
            times(r.makespan_seconds / clean),
        ]
    };
    let rows = runs.iter().map(&mut row).collect();
    let headers = [
        "killed",
        "lost",
        "redistributed",
        "ghost faces",
        "makespan ms",
        "vs clean",
    ];
    let heading = "Rank loss: Q-criterion, 24×24×16 as 2×2×2 blocks on 8 ranks, fusion, M2050";
    (Table::new(Some(heading), &headers, rows), ok)
}

/// Transient transfer faults at rising rates (seed 42) under the resilient
/// recovery policy: eight Q-criterion derives of 32³ on one M2050 engine.
/// Retries and fallbacks cost modeled time; they never save any.
fn transient_faults() -> (Table, bool) {
    let fields = virtual_fields([32, 32, 32]);
    let run = |rate: f64| {
        let mut engine = model_engine(
            Target::Gpu.profile(),
            EngineOptions {
                recovery: RecoveryPolicy::resilient(),
                ..Default::default()
            },
        );
        let plan = FaultPlan::parse(&format!("transfer:{rate},seed=42")).expect("valid spec");
        engine.set_fault_plan(plan);
        let (mut seconds, mut counts) = (0.0, [0u64; 3]);
        let src = Workload::QCriterion.source();
        for _ in 0..8 {
            let report = engine.run(&Request::source(src, Strategy::Fusion), &fields);
            let (_, report) = report.expect("derivation recovers");
            seconds += report.device_seconds();
            if let Some(r) = &report.recovery {
                let add = [r.retries.into(), r.fallbacks.into(), u64::from(r.degraded)];
                counts = [0, 1, 2].map(|i| counts[i] + add[i]);
            }
        }
        (seconds, counts)
    };
    let runs = [0.0, 0.02, 0.05, 0.10].map(|rate| (rate, run(rate)));
    let (clean, clean_counts) = runs[0].1;
    let mut ok = clean_counts == [0; 3];
    let mut row = |(rate, (seconds, counts)): &(f64, (f64, [u64; 3]))| {
        ok &= *seconds >= clean;
        let mut row = vec![
            Cell::label(rate),
            Cell::label(ms(*seconds)),
            times(seconds / clean),
        ];
        row.extend(counts.map(Cell::Count));
        row
    };
    let rows = runs.iter().map(&mut row).collect();
    let headers = [
        "fault rate",
        "device ms",
        "vs clean",
        "retries",
        "fallbacks",
        "degraded",
    ];
    let heading = "Transient transfer faults: 8 × Q-criterion, 32³, fusion, M2050, recovery on";
    (Table::new(Some(heading), &headers, rows), ok)
}

/// REPORT.md's closing section: the extensions beyond the paper's
/// evaluation — the in-situ session, the optimizer, streamed fusion, rank
/// loss and transient faults, each a table of counts and modeled seconds —
/// and the planner's ranking for the §V-D scenario.
pub fn extensions() -> Artifact {
    let (streamed, occupancy, streaming_ok) = streaming();
    let (failures, recovered, failed) = streamed_failures();
    let checked = [
        insitu_session(),
        optimizer(),
        (streamed, streaming_ok),
        (failures, recovered == failed),
        rank_loss(),
        transient_faults(),
    ];
    let ok = checked.iter().all(|(_, ok)| *ok);
    let spec = compile(Workload::QCriterion.source()).expect("workload compiles");
    let ranked = plan(&spec, 75_497_472, &Target::ALL.map(|t| t.profile())).expect("plan");
    let describe = |o: &PlanOption| {
        format!(
            "{}{} on {} ({:.2} s)",
            o.strategy.name(),
            if o.streamed { " (streamed)" } else { "" },
            Target::ALL[o.device_index].name(),
            o.seconds
        )
    };
    let ranking: Vec<String> = ranked.feasible.iter().map(describe).collect();
    let occupancy: Vec<String> = occupancy
        .iter()
        .map(|o| format!("{:.0}%", 100.0 * o))
        .collect();
    Artifact {
        title: "Extensions",
        tables: checked.into_iter().map(|(table, _)| table).collect(),
        text_notes: String::new(),
        md_notes: format!(
            "* **Streaming (§VI future work):** {recovered}/{failed} GPU fusion cases that \
             fail single-pass complete under z-slab streamed fusion. The 3072³ run keeps \
             its upload, kernel and download queues busy {} of its makespan.\n\
             * **Planner (§V-D automated):** Q-criterion at 75.5 M cells ranks: {}.",
            occupancy.join(" / "),
            ranking.join("; ")
        ),
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both renderers print every row they were given, cell for cell.
    fn assert_rendered_from_the_same_rows(artifact: &Artifact) {
        let (text, md) = (artifact.text(), artifact.markdown());
        for row in artifact.tables.iter().flat_map(|t| &t.rows) {
            let cells = |markdown| -> Vec<String> {
                let words = |c: &Cell| c.render(markdown).replace([' ', ','], "");
                row.iter().map(words).collect()
            };
            let squeezed = |line: &str| line.replace([' ', ','], "");
            let md_line = format!("|{}|", cells(true).join("|"));
            assert!(md.lines().any(|l| squeezed(l) == md_line), "{md_line}");
            let text_line = cells(false).concat();
            assert!(
                text.lines().any(|l| squeezed(l) == text_line),
                "{text_line}"
            );
        }
    }

    #[test]
    fn table2_matches_the_paper_in_all_nine_rows() {
        let t = table2();
        let rows = &t.tables[0].rows;
        assert_eq!(rows.len(), 9);
        let cases = Workload::ALL
            .into_iter()
            .flat_map(|w| Strategy::ALL.map(|s| (w, s)));
        for (row, (workload, strategy)) in rows.iter().zip(cases) {
            let (w, r, k) = workload.paper_table2(strategy);
            let counts = [w, r, k].map(|n| Cell::Count(n as u64));
            assert_eq!(row[0], Cell::label(workload.table2_name()));
            assert_eq!(row[1], Cell::label(strategy.name()));
            assert_eq!(row[2..5], counts);
        }
        assert!(t.ok);
        assert!(t.text().contains("All 9 rows match"));
        assert!(t.markdown().contains("All nine rows match"));
        assert_rendered_from_the_same_rows(&t);
    }

    #[test]
    fn fig2_needs_three_four_five_arrays() {
        let f = fig2();
        let units: Vec<&Cell> = f.tables[0].rows.iter().map(|r| &r[1]).collect();
        assert_eq!(units, [&Cell::Count(3), &Cell::Count(4), &Cell::Count(5)]);
        assert!(f.ok);
        assert_rendered_from_the_same_rows(&f);
        assert_rendered_from_the_same_rows(&table1());
    }

    #[test]
    fn fig5_and_fig6_verdicts_hold_on_the_full_matrix() {
        let matrix = Matrix::full();
        let rows = |a: &Artifact| -> Vec<Vec<Cell>> {
            a.tables.iter().flat_map(|t| t.rows.clone()).collect()
        };

        // Fig 5 (§V-A): the GPU completes 106 of 144 cases, the CPU all.
        let f5 = fig5(&matrix);
        let completed = |columns: std::ops::Range<usize>| {
            let done = |c: &&Cell| matches!(c, Cell::Seconds(Some(_)));
            let per_row = |r: &Vec<Cell>| r[columns.clone()].iter().filter(done).count();
            rows(&f5).iter().map(per_row).sum::<usize>()
        };
        assert_eq!(rows(&f5).len(), 36);
        assert_eq!((completed(1..5), completed(5..9)), (144, 106));
        assert!(f5.ok);
        assert!(f5.text().contains("GPU completed 106 of 144 test cases"));
        assert!(f5.text().contains("CPU completed all test cases: yes"));
        assert!(f5.markdown().contains("GPU completed **106 of 144**"));
        assert_eq!(f5.text().matches("FAILED").count(), 144 - 106);
        assert_eq!(f5.markdown().matches("| —").count(), 144 - 106);
        assert_rendered_from_the_same_rows(&f5);

        // Fig 6 (§V-B): a GPU case fails exactly when its CPU-measured
        // high-water mark exceeds the usable capacity.
        let f6 = fig6(&matrix);
        let usable_gb = gib(Target::Gpu.profile().global_mem_bytes);
        let mut gpu_failures = 0;
        for row in rows(&f6) {
            let Cell::Label(failed) = &row[5] else {
                panic!("the last column lists the GPU's failures");
            };
            for (series, cpu) in Series::ALL.iter().zip(&row[1..5]) {
                let Cell::Gb(Some(gb)) = cpu else {
                    panic!("the CPU completes every case");
                };
                let fails = failed.split(", ").any(|f| f == series.name());
                assert_eq!(*gb > usable_gb, fails, "{row:?}");
                gpu_failures += usize::from(fails);
            }
        }
        assert_eq!(gpu_failures, 144 - 106, "Fig 6 marks what Fig 5 fails");
        assert!(f6.ok);
        assert!(f6.text().contains("exactly explain"));
        assert_rendered_from_the_same_rows(&f6);
    }

    #[test]
    fn extensions_rows_carry_their_claims() {
        let ext = extensions();
        assert!(ext.ok);
        assert_rendered_from_the_same_rows(&ext);
        let rows = |heading: &str| {
            let table = ext
                .tables
                .iter()
                .find(|t| t.heading.unwrap().starts_with(heading));
            table.unwrap_or_else(|| panic!("{heading}")).rows.clone()
        };
        let count = |c: &Cell| match c {
            Cell::Count(n) => *n,
            other => panic!("{other:?} is not a count"),
        };
        let number = |c: &Cell| match c {
            Cell::Seconds(Some(x)) | Cell::Gb(Some(x)) => *x,
            Cell::Label(s) => s.trim_end_matches('×').parse().expect("a number"),
            other => panic!("{other:?} is not a number"),
        };
        let pair = |c: &Cell| match c {
            Cell::Label(s) => {
                let (a, b) = s.split_once(" → ").expect("before → after");
                (a.parse::<f64>().unwrap(), b.parse::<f64>().unwrap())
            }
            other => panic!("{other:?} is not a pair"),
        };

        // The session compiles once and uploads only what the solver moved.
        let session = rows("In-situ session");
        let (one_shot, cached) = (&session[0], &session[1]);
        assert_eq!(
            (count(&one_shot[4]), count(&cached[4])),
            (20, 1),
            "compiles"
        );
        assert_eq!(
            count(&cached[3]),
            76,
            "4 coordinate uploads × 19 cycles skipped"
        );
        assert_eq!(count(&cached[5]), 19, "codegen cache hits");
        assert!(number(&cached[1]) < number(&one_shot[1]), "modeled time");

        // The optimizer drops filters under every strategy, and staged, one
        // launch per filter, strictly drops launches.
        for row in rows("Optimizer") {
            let (before, after) = pair(&row[1]);
            assert!(after < before, "{row:?}: filters");
            let (before, after) = pair(&row[4]);
            assert!(after <= before, "{row:?}: K-Exe");
            if row[0] == Cell::label("staged") {
                assert!(after < before, "staged K-Exe");
            }
        }

        // Streaming keeps to its budget and overlaps transfer-bound slabs.
        for row in rows("Streamed fusion") {
            assert!(number(&row[3]) <= number(&row[2]), "{row:?}: peak");
            let transfer_bound = number(&row[4]) > number(&row[5]);
            assert!(
                !transfer_bound || number(&row[7]) < number(&row[6]),
                "{row:?}"
            );
        }
        assert_eq!(rows("Failed GPU fusion cases").len(), 6);
        assert!(ext.markdown().contains("6/6 GPU fusion cases"));

        // k killed ranks: k lost, k blocks redistributed, never faster.
        let ranks = rows("Rank loss");
        let clean = number(&ranks[0][4]);
        for row in &ranks {
            let killed = count(&row[0]);
            assert_eq!(
                (count(&row[1]), count(&row[2])),
                (killed, killed),
                "{row:?}"
            );
            assert!(number(&row[4]) >= clean, "{row:?}: makespan");
        }
    }
}
