//! Regenerates Figure 2: device global-memory constraints of the example
//! dataflow network under each execution strategy; exits non-zero if a
//! strategy diverges from the paper's count.

fn main() {
    dfg_bench::artifacts::fig2().print_and_check();
}
