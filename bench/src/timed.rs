//! The timed run: set-up rebuilt from scratch several times, then a fixed
//! window in which the arms take turns, with tracing off. Produces the four
//! end-to-end metrics and the `timings` of every arm.

use std::time::{Duration, Instant};

use dfg_core::Engine;
use dfg_ocl::DeviceProfile;

use crate::check;
use crate::stats::{self, Summary, MIN_SAMPLES};
use crate::sys;
use crate::workloads::{Bench, Config, Ran, DEFAULT_SEED};

/// Set-up is rebuilt at least this many times a run and `setup_s` is the
/// median; cheap set-ups (the serve workloads') repeat until
/// [`SETUP_BUDGET`] is spent, at most [`SETUP_REPS_MAX`] times.
pub const SETUP_REPS: usize = 5;
pub const SETUP_REPS_MAX: usize = 40;
pub const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Counts ops and failures, and holds the digest every op on the same
/// input state must reproduce.
#[derive(Default)]
pub struct Gate {
    expected: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Gate {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Record the outcome of one op on input state `state`; outside any
    /// timed region. Returns the outputs when the op succeeded.
    pub fn op(&mut self, what: &str, state: usize, ran: Result<Ran, String>) -> Option<Ran> {
        self.attempted += 1;
        let ran = match ran {
            Ok(ran) => ran,
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                return None;
            }
        };
        let digest = check::digest(&ran.fields);
        if self.expected.len() <= state {
            self.expected.resize(state + 1, None);
        }
        match self.expected[state] {
            None => self.expected[state] = Some(digest),
            Some(want) if want != digest => self.fail(format!(
                "{what}: output digest {digest:#018x} differs from the other arms' {want:#018x}"
            )),
            Some(_) => {}
        }
        Some(ran)
    }

    /// Install the digest of outputs checked elsewhere (the serve
    /// workloads compare every reply with a local derive themselves).
    pub fn set_digest(&mut self, digest: u64) {
        self.expected = vec![Some(digest)];
    }

    /// One digest over every input state seen, in state order.
    pub fn digest(&self) -> u64 {
        self.expected
            .iter()
            .fold(0u64, |acc, e| acc.rotate_left(1) ^ e.unwrap_or(0))
    }

    /// With the default seed the outputs must be the committed ones.
    pub fn check_golden(&mut self, cfg: &Config) {
        if cfg.seed != DEFAULT_SEED {
            return;
        }
        let key = golden_key(cfg);
        match check::golden(&key) {
            Some(want) if want == self.digest() => {}
            Some(want) => self.fail(format!(
                "{key}: digest {:#018x} differs from golden.json's {want:#018x}",
                self.digest()
            )),
            None => self.fail(format!(
                "{key}: no digest in golden.json (this run's is {:#018x})",
                self.digest()
            )),
        }
    }
}

pub fn golden_key(cfg: &Config) -> String {
    let suffix = if cfg.quick { ".quick" } else { "" };
    format!("{}{suffix}", cfg.workload)
}

/// Time samples as measured and as they read at the baseline machine's
/// speed (see [`sys::Sweep`]); a workload that waits on a timer rather
/// than on the machine keeps a factor of 1.
#[derive(Default, Clone)]
pub struct Samples {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * factor);
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.scaled)
    }

    fn to_json(&self) -> String {
        Summary::of(&self.scaled).to_json(Some(stats::median(&self.raw)))
    }
}

/// What a timed run measured.
pub struct Timed {
    /// Seconds of every set-up rebuild.
    pub setup_s: Samples,
    /// Milliseconds of every op, per arm; `[0]` is the primary op.
    pub arms: Vec<(&'static str, Samples)>,
    pub gate: Gate,
    pub peak_rss_mib: f64,
    /// The machine-speed canaries, sampled every round: the compute chain
    /// `compare` watches, and the sweep the samples were scaled by.
    pub calib_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
}

impl Timed {
    /// The four end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s.median()),
            ("op_ms", self.arms[0].1.median()),
            ("arms_ms", self.arms.iter().map(|(_, s)| s.median()).sum()),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
    }

    pub fn timings_json(&self) -> String {
        let mut parts: Vec<String> = self
            .arms
            .iter()
            .map(|(name, s)| format!("\"{name}\":{}", s.to_json()))
            .collect();
        parts.push(format!("\"setup_s\":{}", self.setup_s.to_json()));
        for (name, samples) in [("calib_ms", &self.calib_ms), ("sweep_ms", &self.sweep_ms)] {
            parts.push(format!("\"{name}\":{}", Summary::of(samples).to_json(None)));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// An arm the window could not sample often enough fails the run.
    pub fn require_samples(&mut self) {
        for (name, samples) in &self.arms {
            if samples.raw.len() < MIN_SAMPLES {
                self.gate.failed += 1;
                self.gate.errors.push(format!(
                    "arm {name}: {} samples, fewer than {MIN_SAMPLES}",
                    samples.raw.len()
                ));
            }
        }
    }
}

/// How far a window may stretch to give every arm its [`MIN_SAMPLES`]:
/// twice its length, and at least ten seconds (`--quick` windows are 1 s).
pub fn stretch_limit(window: Duration) -> Duration {
    (2 * window).max(Duration::from_secs(10))
}

/// Whether another set-up rebuild is due after `done` of them took `spent`.
pub fn setup_continues(done: usize, spent: Duration) -> bool {
    done < SETUP_REPS || (done < SETUP_REPS_MAX && spent < SETUP_BUDGET)
}

/// Timed run of an engine workload. `build` is everything a user pays once
/// before the first op; the first, cold call of every arm is part of
/// set-up too.
pub fn run<B: Bench>(cfg: &Config, build: impl Fn() -> B) -> Timed {
    let mut gate = Gate::default();
    let mut sweep = sys::Sweep::new();
    let mut setup_s = Samples::default();
    let mut bench: Option<B> = None;
    let setup_started = Instant::now();
    while setup_continues(setup_s.raw.len(), setup_started.elapsed()) {
        // Free the previous build first: set-up starts from scratch, and
        // two builds alive at once would double the peak.
        drop(bench.take());
        let factor = sweep.factor();
        let t = Instant::now();
        let mut b = build();
        let mut cold = Vec::with_capacity(b.arms().len());
        for arm in 0..b.arms().len() {
            b.prepare();
            cold.push((arm, b.state(), b.run(arm)));
        }
        setup_s.push(t.elapsed().as_secs_f64(), factor);
        for (arm, state, ran) in cold {
            gate.op(&format!("cold {}", b.arms()[arm]), state, ran);
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");

    let mut arms: Vec<(&'static str, Samples)> = bench
        .arms()
        .iter()
        .map(|n| (*n, Samples::default()))
        .collect();
    let (mut calib_ms, mut sweep_ms) = (Vec::new(), Vec::new());
    let mut peak_rss_mib = 0.0;
    let window = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    // Round-robin A,B,C,A,B,C… so drift hits all arms alike. A slow machine
    // gets a longer window rather than too few samples, up to a limit.
    loop {
        calib_ms.push(sys::calib_ms());
        let speed = sweep.ms();
        sweep_ms.push(speed);
        for (arm, (name, samples)) in arms.iter_mut().enumerate() {
            bench.prepare();
            let state = bench.state();
            let t = Instant::now();
            let ran = bench.run(arm);
            samples.push(
                t.elapsed().as_secs_f64() * 1e3,
                sys::NOMINAL_SWEEP_MS / speed,
            );
            gate.op(name, state, ran);
        }
        // The high-water mark after a fixed amount of work, so that it does
        // not depend on how many rounds the machine fitted in the window.
        if calib_ms.len() == MIN_SAMPLES {
            peak_rss_mib = sys::peak_rss_mib();
        }
        let elapsed = started.elapsed();
        let enough = calib_ms.len() >= MIN_SAMPLES;
        if (elapsed >= window && enough) || elapsed >= stretch_limit(window) {
            break;
        }
    }
    if peak_rss_mib == 0.0 {
        peak_rss_mib = sys::peak_rss_mib();
    }

    check_reference(&mut bench, &mut gate);
    gate.check_golden(cfg);
    let mut timed = Timed {
        setup_s,
        arms,
        gate,
        peak_rss_mib,
        calib_ms,
        sweep_ms,
    };
    timed.require_samples();
    timed
}

/// The primary op's last root must match the hand-written reference kernel
/// within the tolerance the repository states for it.
pub fn check_reference<B: Bench>(bench: &mut B, gate: &mut Gate) {
    bench.prepare();
    let state = bench.state();
    let ran = bench.run(0);
    let Some(ran) = gate.op("reference check", state, ran) else {
        return;
    };
    let probe = bench.probe();
    let reference = Engine::new(DeviceProfile::intel_x5660())
        .run_reference(probe.reference, probe.fields)
        .map_err(|e| e.to_string())
        .and_then(|r| r.field.ok_or_else(|| "no reference field".to_string()));
    let verdict = reference.and_then(|reference| {
        let got = ran.fields.last().ok_or("op returned no field")?;
        check::within_reference(&got.data, &reference.data)
    });
    if let Err(e) = verdict {
        gate.fail(format!("against {} reference: {e}", probe.reference));
    }
}
