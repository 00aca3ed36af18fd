//! Regenerates Figure 6: maximum global device memory reserved for OpenCL
//! buffers during each Figure-5 run, against the M2050's 3 GB line; exits
//! non-zero unless memory exactly explains the GPU's failures. With
//! `--svg <dir>`, also renders the figure as SVG charts.

fn main() {
    let matrix = dfg_bench::Matrix::full();
    dfg_bench::write_svgs_if_asked(&matrix, true);
    dfg_bench::artifacts::fig6(&matrix).print_and_check();
}
