//! Executor benchmark (dfg-exec): what the persistent pool buys on
//! **kernel-launch latency**.
//!
//! Before `dfg-exec`, the vendored rayon shim spawned fresh OS threads
//! inside every `for_each`, so each kernel launch paid `clone(2)` + join.
//! This bench replays that design (scoped threads per launch) against the
//! production path (the shim's `par_chunks_mut`, which queues onto the
//! persistent pool) over many launches of a small elementwise kernel and
//! reports median latency.
//!
//! Writes `BENCH_exec.json`.

use rayon::prelude::*;
use std::time::Instant;

const LAUNCH_N: usize = 16 * 1024;
const LAUNCH_CHUNK: usize = 4 * 1024;
const LAUNCHES: usize = 400;

/// The small per-chunk kernel body both arms execute.
fn body(chunk: &mut [f32]) {
    for v in chunk {
        *v = v.mul_add(1.000_1, 0.5);
    }
}

/// One launch the way the pre-pool shim did it: split the chunk list
/// across freshly spawned scoped threads and join them all.
fn launch_spawning(data: &mut [f32], threads: usize) {
    let mut chunks: Vec<&mut [f32]> = data.chunks_mut(LAUNCH_CHUNK).collect();
    let per = chunks.len().div_ceil(threads.max(1));
    std::thread::scope(|s| {
        while !chunks.is_empty() {
            let take = per.min(chunks.len());
            let batch: Vec<&mut [f32]> = chunks.drain(..take).collect();
            s.spawn(move || {
                for chunk in batch {
                    body(chunk);
                }
            });
        }
    });
}

/// One launch the way every kernel does it today: the shim's
/// `par_chunks_mut` queues chunk tasks onto the persistent global pool.
fn launch_pooled(data: &mut [f32]) {
    data.par_chunks_mut(LAUNCH_CHUNK).for_each(body);
}

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median per-launch nanoseconds of `launch` over [`LAUNCHES`] repetitions.
fn time_launches(launch: &mut dyn FnMut(&mut [f32])) -> u64 {
    let mut data = vec![1.0f32; LAUNCH_N];
    for _ in 0..8 {
        launch(&mut data); // warm-up: page in, park workers predictably
    }
    let mut samples = Vec::with_capacity(LAUNCHES);
    for _ in 0..LAUNCHES {
        let started = Instant::now();
        launch(&mut data);
        samples.push(started.elapsed().as_nanos() as u64);
    }
    median_ns(samples)
}

/// Outputs must agree bit-for-bit between the two launch paths.
fn assert_launch_arms_agree(threads: usize) {
    let mut a = vec![1.0f32; LAUNCH_N];
    let mut b = vec![1.0f32; LAUNCH_N];
    launch_spawning(&mut a, threads);
    launch_pooled(&mut b);
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "spawn-per-launch and pooled launches must produce identical data"
    );
}

fn main() {
    // The executor comparison needs an actual worker set even when the
    // host (or its cgroup) reports a single core; respect an explicit
    // DFG_NUM_THREADS, otherwise pin two threads before first pool use.
    if std::env::var("DFG_NUM_THREADS")
        .map(|s| s.trim().is_empty())
        .unwrap_or(true)
    {
        std::env::set_var("DFG_NUM_THREADS", "2");
    }
    let threads = dfg_exec::global().num_threads();
    println!("EXECUTOR BENCHMARK: dfg-exec pool with {threads} threads");
    println!();

    assert_launch_arms_agree(threads);
    let spawn_ns = time_launches(&mut |data| launch_spawning(data, threads));
    let pool_ns = time_launches(&mut launch_pooled);
    let latency_speedup = spawn_ns as f64 / pool_ns as f64;
    println!(
        "launch latency ({LAUNCH_N} elements, {LAUNCH_CHUNK}-element chunks, median of {LAUNCHES}):"
    );
    println!("  spawn-per-launch {:>9.1} us", spawn_ns as f64 / 1e3);
    println!("  persistent pool  {:>9.1} us", pool_ns as f64 / 1e3);
    println!("  speedup          {latency_speedup:>9.2}x");
    println!();
    assert!(
        pool_ns < spawn_ns,
        "persistent pool must beat spawn-per-launch on launch latency"
    );

    let (executed, steals) = dfg_exec::global().stats();
    println!("pool stats: {executed} jobs run by workers, {steals} stolen");

    let json = format!(
        r#"{{
  "benchmark": "exec_pool",
  "threads": {threads},
  "launch_latency": {{
    "elements": {LAUNCH_N},
    "chunk": {LAUNCH_CHUNK},
    "launches": {LAUNCHES},
    "spawn_per_launch_median_ns": {spawn_ns},
    "pool_median_ns": {pool_ns},
    "speedup": {latency_speedup:.3}
  }},
  "pool_jobs_executed": {executed},
  "pool_jobs_stolen": {steals}
}}
"#
    );
    std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
    println!("results written to BENCH_exec.json");
}
