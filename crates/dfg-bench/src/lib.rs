//! Shared harness for regenerating the paper's tables and figures.
//!
//! This library holds the evaluation matrix and, in [`artifacts`], the one
//! definition of every table and figure; the binaries in `src/bin/` print
//! them and `report` composes them into REPORT.md. Everything here reads
//! the modeled device clock and event counts, never the host's wall clock
//! (that is `bench/`'s job), so every artifact is a pure function of the
//! code. See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured results.

use dfg_core::{Engine, EngineError, EngineOptions, ExecReport, FieldSet, Strategy, Workload};
use dfg_mesh::{GridSpec, TABLE1_CATALOG};
use dfg_ocl::{DeviceProfile, ExecMode};

pub mod artifacts;
pub mod svg;

/// One plotted series of Figures 5 and 6: the three strategies plus the
/// hand-written reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Series {
    /// One of the framework's execution strategies.
    Strategy(Strategy),
    /// The hand-written reference kernel.
    Reference,
}

impl Series {
    /// The four series, in the paper's legend order.
    pub const ALL: [Series; 4] = [
        Series::Strategy(Strategy::Roundtrip),
        Series::Strategy(Strategy::Staged),
        Series::Strategy(Strategy::Fusion),
        Series::Reference,
    ];

    /// Label used in table output.
    pub fn name(&self) -> &'static str {
        match self {
            Series::Strategy(Strategy::Roundtrip) => "roundtrip",
            Series::Strategy(Strategy::Staged) => "staged",
            Series::Strategy(Strategy::Fusion) => "fusion",
            Series::Reference => "reference",
        }
    }
}

/// The two target devices of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Intel Xeon X5660 OpenCL CPU platform.
    Cpu,
    /// NVIDIA Tesla M2050.
    Gpu,
}

impl Target {
    /// Both targets.
    pub const ALL: [Target; 2] = [Target::Cpu, Target::Gpu];

    /// Device profile.
    pub fn profile(&self) -> DeviceProfile {
        match self {
            Target::Cpu => DeviceProfile::intel_x5660(),
            Target::Gpu => DeviceProfile::nvidia_m2050(),
        }
    }

    /// Label used in table output.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Cpu => "CPU",
            Target::Gpu => "GPU",
        }
    }
}

/// Outcome of one evaluation case.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed: modeled device seconds and the memory high-water mark.
    Ok {
        /// Modeled device runtime (transfers + kernels), seconds.
        seconds: f64,
        /// Peak device memory, bytes.
        high_water: u64,
    },
    /// Failed with device out-of-memory (the paper's gray series).
    OutOfMemory,
}

impl Outcome {
    /// Modeled device seconds, `None` for an out-of-memory failure.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Ok { seconds, .. } => Some(*seconds),
            Outcome::OutOfMemory => None,
        }
    }

    /// Peak device memory in bytes, `None` for an out-of-memory failure.
    pub fn high_water(&self) -> Option<u64> {
        match self {
            Outcome::Ok { high_water, .. } => Some(*high_water),
            Outcome::OutOfMemory => None,
        }
    }
}

/// One cell of the evaluation matrix.
#[derive(Debug, Clone)]
pub struct Case {
    /// Expression under test.
    pub workload: Workload,
    /// Strategy or reference kernel.
    pub series: Series,
    /// Target device.
    pub target: Target,
    /// Grid from the Table I catalog.
    pub grid: GridSpec,
    /// Result.
    pub outcome: Outcome,
}

/// A model-mode engine (paper-scale grids without paper-scale memory) with
/// `options` otherwise.
pub fn model_engine(profile: DeviceProfile, options: EngineOptions) -> Engine {
    let options = EngineOptions {
        mode: ExecMode::Model,
        ..options
    };
    Engine::with_options(profile, options)
}

/// Run one case in model mode.
pub fn run_case(workload: Workload, series: Series, target: Target, grid: GridSpec) -> Outcome {
    let mut engine = model_engine(target.profile(), EngineOptions::default());
    let fields = FieldSet::virtual_rt(grid.dims());
    let result = match series {
        Series::Strategy(strategy) => engine.derive(workload.source(), &fields, strategy),
        Series::Reference => engine.run_reference(workload, &fields),
    };
    match result {
        Ok(report) => Outcome::Ok {
            seconds: report.device_seconds(),
            high_water: report.high_water_bytes(),
        },
        Err(e) if e.is_out_of_memory() => Outcome::OutOfMemory,
        Err(e) => panic!("unexpected failure for {workload}/{}: {e}", series.name()),
    }
}

/// The evaluation matrix of Figures 5 and 6.
#[derive(Debug, Clone)]
pub struct Matrix {
    cases: Vec<Case>,
}

impl Matrix {
    /// Run the full matrix: 3 expressions × 4 series × 12 grids × 2 devices
    /// (the paper's 144 GPU test cases plus the always-successful 144 CPU
    /// cases).
    pub fn full() -> Self {
        let mut cases = Vec::new();
        for workload in Workload::ALL {
            for series in Series::ALL {
                for target in Target::ALL {
                    for grid in TABLE1_CATALOG {
                        let outcome = run_case(workload, series, target, grid);
                        cases.push(Case {
                            workload,
                            series,
                            target,
                            grid,
                            outcome,
                        });
                    }
                }
            }
        }
        Matrix { cases }
    }

    /// Every case, in run order.
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }

    /// The outcome of one case.
    pub fn get(
        &self,
        workload: Workload,
        series: Series,
        target: Target,
        grid: GridSpec,
    ) -> &Outcome {
        let case = self.cases.iter().find(|c| {
            c.workload == workload && c.series == series && c.target == target && c.grid == grid
        });
        &case.expect("the matrix holds every case").outcome
    }
}

/// Virtual (model-mode) RT fields with a real `dims` array, which slab
/// streaming reads to cut the grid.
pub fn virtual_fields(dims: [usize; 3]) -> FieldSet {
    let mut fields = FieldSet::virtual_rt(dims);
    fields.insert_small("dims", dims.map(|d| d as f32).to_vec());
    fields
}

/// Every expression × catalog grid whose single-pass fusion fails on the
/// M2050 (the paper's FAILED fusion cases), re-run under z-slab streamed
/// fusion — the paper's §VI future work.
pub fn stream_failed_fusion_cases() -> Vec<(Workload, GridSpec, Result<ExecReport, EngineError>)> {
    let mut out = Vec::new();
    for workload in Workload::ALL {
        for grid in TABLE1_CATALOG {
            let mut engine = model_engine(Target::Gpu.profile(), EngineOptions::default());
            let fields = virtual_fields(grid.dims());
            let src = workload.source();
            if engine.derive(src, &fields, Strategy::Fusion).is_err() {
                out.push((workload, grid, engine.derive_streamed(src, &fields, None)));
            }
        }
    }
    out
}

/// Bytes as GB (2³⁰ bytes), the unit of Figure 6.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Colors for the four series (matching a classic matplotlib cycle).
fn series_color(series: Series) -> &'static str {
    match series {
        Series::Strategy(Strategy::Roundtrip) => "#1f77b4",
        Series::Strategy(Strategy::Staged) => "#ff7f0e",
        Series::Strategy(Strategy::Fusion) => "#d62728",
        Series::Reference => "#2ca02c",
    }
}

/// Build the Figure 5 (runtime) or Figure 6 (memory) SVG charts from the
/// evaluation matrix: one chart per expression, both devices overlaid
/// (CPU dashed, GPU solid), failed GPU cases breaking the line — the gray
/// series of the paper.
pub fn figure_charts(matrix: &Matrix, memory: bool) -> Vec<(String, svg::SvgChart)> {
    let mut charts = Vec::new();
    for workload in Workload::ALL {
        let mut series = Vec::new();
        for target in Target::ALL {
            for s in Series::ALL {
                let points: Vec<Option<(f64, f64)>> = TABLE1_CATALOG
                    .iter()
                    .map(|grid| {
                        let outcome = matrix.get(workload, s, target, *grid);
                        let y = if memory {
                            outcome.high_water().map(gib)
                        } else {
                            outcome.seconds()
                        };
                        y.map(|y| (grid.ncells() as f64 / 1e6, y))
                    })
                    .collect();
                series.push(svg::SvgSeries {
                    label: format!("{} ({})", s.name(), target.name()),
                    color: series_color(s).to_string(),
                    dashed: target == Target::Cpu,
                    points,
                });
            }
        }
        let (what, unit) = if memory {
            ("device memory", "high-water GB")
        } else {
            ("runtime", "modeled seconds")
        };
        charts.push((
            format!(
                "fig{}_{}",
                if memory { 6 } else { 5 },
                workload.table2_name().to_lowercase().replace('-', "")
            ),
            svg::SvgChart {
                title: format!("{} — {what}", workload.table2_name()),
                x_label: "cells (millions)".into(),
                y_label: unit.into(),
                series,
                h_line: memory.then(|| (3.0, "M2050 3 GB".to_string())),
            },
        ));
    }
    charts
}

/// With `--svg <dir>` on the command line, also write Figure 5 (runtime) or
/// Figure 6 (memory) as SVG charts into `<dir>`.
pub fn write_svgs_if_asked(matrix: &Matrix, memory: bool) {
    let args: Vec<String> = std::env::args().collect();
    let Some(pos) = args.iter().position(|a| a == "--svg") else {
        return;
    };
    let dir = std::path::PathBuf::from(args.get(pos + 1).map(String::as_str).unwrap_or("."));
    std::fs::create_dir_all(&dir).expect("create svg output dir");
    for (name, chart) in figure_charts(matrix, memory) {
        let path = dir.join(format!("{name}.svg"));
        std::fs::write(&path, chart.render()).expect("write svg");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_case_runs() {
        let grid = TABLE1_CATALOG[0];
        let o = run_case(
            Workload::VelocityMagnitude,
            Series::Strategy(Strategy::Fusion),
            Target::Gpu,
            grid,
        );
        match o {
            Outcome::Ok {
                seconds,
                high_water,
            } => {
                assert!(seconds > 0.0);
                // 4 scalar arrays of 9.4M cells.
                assert_eq!(high_water, 4 * 4 * grid.ncells());
            }
            Outcome::OutOfMemory => panic!("small fusion case must fit"),
        }
    }

    #[test]
    fn gpu_fails_largest_staged_cases() {
        let grid = *TABLE1_CATALOG.last().unwrap();
        let o = run_case(
            Workload::QCriterion,
            Series::Strategy(Strategy::Staged),
            Target::Gpu,
            grid,
        );
        assert_eq!(o, Outcome::OutOfMemory);
        // The CPU always completes.
        let o = run_case(
            Workload::QCriterion,
            Series::Strategy(Strategy::Staged),
            Target::Cpu,
            grid,
        );
        assert!(matches!(o, Outcome::Ok { .. }));
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn charts_cover_all_expressions_and_break_on_failures() {
        let cases = Matrix::full();
        let charts = figure_charts(&cases, false);
        assert_eq!(charts.len(), 3);
        for (name, chart) in &charts {
            assert!(name.starts_with("fig5_"));
            assert_eq!(chart.series.len(), 8, "4 series x 2 devices");
            let svg = chart.render();
            assert!(svg.contains("</svg>"));
        }
        // Memory variant carries the 3 GB line.
        let charts = figure_charts(&cases, true);
        assert!(charts[0].1.h_line.is_some());
        // Q-Crit GPU staged breaks: it has None points.
        let qcrit = &charts[2].1;
        let gpu_staged = qcrit
            .series
            .iter()
            .find(|s| s.label == "staged (GPU)")
            .expect("series present");
        assert!(
            gpu_staged.points.iter().any(Option::is_none),
            "failures break the line"
        );
    }
}
