//! Regenerates Table II: host-to-device transfers (Dev-W), device-to-host
//! transfers (Dev-R), and kernel executions (K-Exe) per expression ×
//! strategy, measured from the device-event profile and checked against
//! the paper's published counts; exits non-zero on a mismatch.

fn main() {
    dfg_bench::artifacts::table2().print_and_check();
}
