//! Regenerates Figure 5: single-device runtime for the three expressions ×
//! four series × twelve grids × two devices, on the virtual clock; exits
//! non-zero unless the GPU completes the paper's 106 of 144 cases and the
//! CPU all. With `--svg <dir>`, also renders the figure as SVG charts.

fn main() {
    let matrix = dfg_bench::Matrix::full();
    dfg_bench::write_svgs_if_asked(&matrix, false);
    dfg_bench::artifacts::fig5(&matrix).print_and_check();
}
