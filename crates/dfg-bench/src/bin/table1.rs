//! Regenerates Table I: the sub-grid catalog used for the single-device
//! evaluation.

fn main() {
    dfg_bench::artifacts::table1().print_and_check();
}
