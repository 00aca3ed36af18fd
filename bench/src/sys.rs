//! Process-level measurement rules and readings: the one-thread and
//! steady-heap settings every timed run applies, `/proc` counters, and the
//! machine-speed and bandwidth ceilings taken in the same process.

use std::hint::black_box;
use std::time::Instant;

/// Pin the `dfg-exec` pool to one thread for the whole process. Must run
/// before anything touches the pool: `DFG_NUM_THREADS` is read once, at the
/// pool's lazy initialisation. A measurement child keeps the value its
/// parent chose for it (`nproc` for the thread-scaling child).
pub fn pin_threads(is_child: bool) -> usize {
    if !is_child {
        std::env::set_var("DFG_NUM_THREADS", "1");
    }
    dfg_exec::current_num_threads()
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keep freed memory in the process heap: no `mmap` for large blocks, no
/// trimming of the heap top. Without this, every 8 MiB array of a derive is
/// mapped, page-faulted in and unmapped again, and that kernel work (13 ms
/// of a 49 ms vmag derive, varying 47.7–51.8 ms run to run) would sit in
/// every end-to-end number. Returns whether glibc accepted all settings.
pub fn steady_heap() -> bool {
    // glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores tuning integers in the allocator's
    // global state and is documented as callable at any time; it is called
    // here at the top of `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_MAX, 0) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
            && mallopt(M_ARENA_MAX, 1) == 1
    }
}

/// Whether this process should keep glibc's default allocator settings
/// (the `bench.op_coldheap_ms` child).
pub fn cold_heap_requested() -> bool {
    std::env::var_os("DFG_PERF_COLD_HEAP").is_some()
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Cumulative minor page faults and CPU milliseconds (user + system, all
/// threads) of this process, from `/proc/self/stat`.
pub fn faults_and_cpu_ms() -> (u64, f64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0.0);
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // rest[0] is field 3 (state): minflt is field 10, utime 14, stime 15.
    let ticks = num(11) + num(12);
    // USER_HZ is 100 on every Linux ABI this runs on.
    (num(7), ticks as f64 * 10.0)
}

/// The machine-speed canary: a fixed dependent integer chain that touches
/// no memory, so its time moves only when the core itself runs slower
/// (frequency, a co-tenant on the sibling thread). Milliseconds.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    // Not affine, so the compiler cannot collapse the chain.
    for _ in 0..1_000_000u32 {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn triad(c: &mut [f32], a: &[f32], b: &[f32]) {
    for ((ci, ai), bi) in c.iter_mut().zip(black_box(a)).zip(black_box(b)) {
        *ci = ai + 3.0 * bi;
    }
    black_box(c);
}

/// One-thread copy and STREAM-triad bandwidth over `lanes`-element `f32`
/// arrays (the workload's own array size, so L3-resident whenever the
/// workload's arrays are), in GB/s: `(memcpy, triad)`. Best of `reps`.
pub fn bandwidth_gbs(lanes: usize, reps: usize) -> (f64, f64) {
    let a = vec![1.0f32; lanes];
    let b = vec![2.0f32; lanes];
    let mut c = vec![0.0f32; lanes];
    let bytes = (lanes * 4) as f64;
    let mut copy_best = f64::MAX;
    let mut triad_best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        c.copy_from_slice(black_box(&a));
        black_box(&mut c);
        copy_best = copy_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        triad(&mut c, &a, &b);
        triad_best = triad_best.min(t.elapsed().as_secs_f64());
    }
    // Copy moves 2 arrays, triad 3 (write-allocate traffic not counted).
    (
        2.0 * bytes / copy_best / 1e9,
        3.0 * bytes / triad_best / 1e9,
    )
}

/// What one [`Sweep`] takes on the machine the baseline was recorded on,
/// in milliseconds: the speed every time metric is reported at.
pub const NOMINAL_SWEEP_MS: f64 = 1.9;

/// The machine's speed at this moment: a STREAM triad over three 8 MiB
/// arrays (out of the 4 MiB L2, inside the L3), the same code every time.
///
/// The sandbox slows down for minutes at a time — neighbours on the host,
/// not this process: all arms and this sweep slow together while CPU steal
/// stays flat (README, "noise"). A time sample multiplied by
/// `NOMINAL_SWEEP_MS / sweep.ms()` of the same round reads what the op
/// takes at the baseline machine's speed; it is the only correction that
/// reaches a run lying wholly inside a slow spell.
pub struct Sweep {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Sweep {
    pub fn new() -> Sweep {
        const LANES: usize = 1 << 21;
        Sweep {
            a: vec![1.0; LANES],
            b: vec![2.0; LANES],
            c: vec![0.0; LANES],
        }
    }

    /// Median of three sweeps, milliseconds.
    pub fn ms(&mut self) -> f64 {
        let mut t = [0.0f64; 3];
        for slot in &mut t {
            let started = Instant::now();
            triad(&mut self.c, &self.a, &self.b);
            *slot = started.elapsed().as_secs_f64() * 1e3;
        }
        t.sort_by(f64::total_cmp);
        t[1]
    }

    /// The factor that takes a time measured now to the nominal speed.
    pub fn factor(&mut self) -> f64 {
        NOMINAL_SWEEP_MS / self.ms()
    }
}

/// Whether this binary was built with `bench/.cargo/config.toml`, which puts
/// every function on a 64-byte boundary (rustc's default is 16, so three
/// functions all land there by chance once in 64 builds). Without it the hot
/// loops' placement, and with it `qcrit_128`'s `op_ms` by 12 %, depends on
/// the directory the checkout was built in.
pub fn code_aligned() -> bool {
    let at = |f: *const ()| (f as usize).is_multiple_of(64);
    at(calib_ms as *const ()) && at(peak_rss_mib as *const ()) && at(rustc_version as *const ())
}

/// `rustc -V` of the toolchain on `PATH`, or `unknown`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Hardware threads the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
