//! Optimizer correctness matrix.
//!
//! Every optimization level must preserve what the engine computes: at
//! `Off`/`Cse`/`Default` the derived field is **bit-identical** to the
//! unoptimized run (the default tier only applies IEEE-754-exact rewrites);
//! at `Fast` the value-changing rewrites stay within 1 ulp on the paper's
//! vortex-detection workloads. CI's `opt-matrix` leg runs this suite under
//! `DFG_OPT_LEVEL` ∈ {off, default, fast} × `DFG_NUM_THREADS` ∈ {auto, 1}.

use dfg_core::{Field, FieldSet, OptLevel, Request, Strategy, Workload};
use dfg_ocl::ExecMode;

#[path = "../src/tests/harness.rs"]
mod harness;
use harness::{Config, Exec, Holder, Inputs, Program, EXECS};
use proptest::prelude::*;
use proptest::Strategy as _;

/// The fields of `source` under `exec` at `level`.
fn derive(level: OptLevel, exec: Exec, source: &str, inputs: &Inputs) -> harness::Run {
    let config = Config {
        opt: level,
        ..Config::new(exec)
    };
    harness::run(&config, Program::Source(source), inputs)
        .last(source)
        .clone()
}

fn bits(fields: &[Field]) -> Vec<u32> {
    fields
        .iter()
        .flat_map(|f| f.data.iter().map(|v| v.to_bits()))
        .collect()
}

/// Distance in representable floats, treating the f32 line as a monotonic
/// integer axis (the standard sign-magnitude → two's-complement mapping).
fn ulp_diff(a: u32, b: u32) -> u64 {
    fn monotonic(x: u32) -> i64 {
        if x & 0x8000_0000 != 0 {
            -((x & 0x7fff_ffff) as i64)
        } else {
            x as i64
        }
    }
    (monotonic(a) - monotonic(b)).unsigned_abs()
}

/// The level CI selected for this process, defaulting to `Default`.
fn env_level() -> OptLevel {
    match std::env::var("DFG_OPT_LEVEL") {
        Ok(s) if !s.trim().is_empty() => OptLevel::parse(s.trim())
            .unwrap_or_else(|| panic!("DFG_OPT_LEVEL must be off|cse|default|fast, got `{s}`")),
        _ => OptLevel::Default,
    }
}

/// All three workloads × all strategies (+ streamed) at the env-selected
/// level, against the unoptimized reference. Bit-identical through
/// `Default`; ≤ 1 ulp at `Fast`.
#[test]
fn env_level_agrees_with_unoptimized_reference() {
    let level = env_level();
    let inputs = Inputs::rt([6, 5, 4]);
    for workload in Workload::ALL {
        let src = workload.source();
        for exec in EXECS {
            let want = derive(OptLevel::Off, exec, src, &inputs).fields;
            let got = derive(level, exec, src, &inputs).fields;
            let what = format!("{workload}/{exec:?} at {}", level.name());
            if level < OptLevel::Fast {
                harness::same_bits(&want, &got, &what);
                continue;
            }
            for (i, (w, g)) in bits(&want).into_iter().zip(bits(&got)).enumerate() {
                assert!(
                    ulp_diff(w, g) <= 1,
                    "{what}: cell {i} differs by {} ulp ({} vs {})",
                    ulp_diff(w, g),
                    f32::from_bits(w),
                    f32::from_bits(g),
                );
            }
        }
    }
}

/// Model mode carries no data, but Model == Real (`harness`) for the
/// *optimized* network too — and optimization never increases launches or
/// modeled device time.
#[test]
fn model_mode_accounting_matches_real_and_never_regresses() {
    let level = env_level();
    let inputs = Inputs::rt([6, 5, 4]);
    for workload in Workload::ALL {
        let program = Program::Source(workload.source());
        for strategy in Strategy::ALL {
            let what = format!("{workload}/{strategy}");
            let run = |mode, opt| {
                let config = Config {
                    mode,
                    opt,
                    ..Config::new(strategy)
                };
                harness::run(&config, program, &inputs)
            };
            let model = run(ExecMode::Model, level);
            harness::model_matches_real(&run(ExecMode::Real, level), &model, &what);
            let off = run(ExecMode::Model, OptLevel::Off);
            let (w0, r0, k0) = off.last(&what).report.table2_row();
            let (w1, r1, k1) = model.last(&what).report.table2_row();
            assert!(
                w1 <= w0 && r1 <= r0 && k1 <= k0,
                "{what}: optimization increased device events: \
                 ({w1},{r1},{k1}) vs ({w0},{r0},{k0})"
            );
        }
    }
}

/// The `Fast` tier's value-changing rewrites: `sqrt(x)*sqrt(x) → x` fires
/// (strictly fewer kernels) and lands within 2 ulp of the unoptimized
/// two-rounding computation — while `Default` leaves the program alone.
#[test]
fn fast_tier_rewrites_sqrt_square_within_ulp_budget() {
    let src = "r = sqrt(u*u + v*v) * sqrt(u*u + v*v)";
    let inputs = Inputs::rt([8, 7, 6]);
    let staged = |level| derive(level, Exec::Staged, src, &inputs);
    let (r_off, r_def, r_fast) = (
        staged(OptLevel::Off),
        staged(OptLevel::Default),
        staged(OptLevel::Fast),
    );

    let (_, _, k_off) = r_off.report.table2_row();
    let (_, _, k_def) = r_def.report.table2_row();
    let (_, _, k_fast) = r_fast.report.table2_row();
    // Default CSEs the duplicated sqrt subtree but keeps the sqrt·sqrt.
    assert!(k_def < k_off, "CSE did not reduce launches");
    assert!(
        k_fast < k_def,
        "fast rewrite did not fire: {k_fast} vs {k_def}"
    );

    // Default stays bit-identical; Fast drops both roundings (sqrt then
    // multiply), each within half an ulp of exact.
    harness::same_bits(&r_off.fields, &r_def.fields, "default");
    let exact = derive(OptLevel::Fast, Exec::Staged, "r = u*u + v*v", &inputs);
    harness::same_bits(
        &exact.fields,
        &r_fast.fields,
        "fast tier should compute the algebraically simplified form",
    );
    for (w, g) in bits(&r_off.fields).into_iter().zip(bits(&r_fast.fields)) {
        assert!(
            ulp_diff(w, g) <= 2,
            "sqrt-square rewrite strayed beyond 2 ulp: {} vs {}",
            f32::from_bits(w),
            f32::from_bits(g)
        );
    }
}

/// `min`/`max` are order-sensitive on signed zeros (`min(-0.0, 0.0)` and
/// `min(0.0, -0.0)` may differ in the sign bit), so CSE must not sort their
/// operands the way it sorts `+`'s: on a field set of `±0.0` pairs every
/// bit-exact level returns the unoptimized bits under every strategy.
#[test]
fn min_max_keep_operand_order_on_signed_zeros() {
    // `a` numbers `u` before `v`, so sorting `min(v, u)` would swap it.
    let sources = ["a = u + v\nr = min(v, u)", "a = u + v\nr = max(v, u)"];
    let mut real = FieldSet::new(4);
    let (u, v) = (vec![-0.0, 0.0, -0.0, 1.0], vec![0.0, -0.0, -0.0, -1.0]);
    real.insert_scalar("u", u).unwrap();
    real.insert_scalar("v", v).unwrap();
    let inputs = Inputs {
        model: real.clone(),
        real,
    };
    for level in [OptLevel::Cse, OptLevel::Default] {
        for (src, strategy) in sources.iter().flat_map(|s| Strategy::ALL.map(|st| (s, st))) {
            let want = derive(OptLevel::Off, strategy.into(), src, &inputs).fields;
            let got = derive(level, strategy.into(), src, &inputs).fields;
            let what = format!("`{src}` under {strategy} at {}", level.name());
            harness::same_bits(&want, &got, &what);
        }
    }
}

/// Q-criterion regression (the issue's acceptance bar): at `Default` the
/// optimized network has strictly fewer filters, and fusion + staged launch
/// strictly fewer kernels/transfers, with bit-identical output.
#[test]
fn qcrit_optimized_strictly_drops_kernels_and_transfers() {
    let inputs = Inputs::rt([6, 5, 4]);
    let src = Workload::QCriterion.source();

    for strategy in [Strategy::Fusion, Strategy::Staged] {
        let a = derive(OptLevel::Off, strategy.into(), src, &inputs);
        let b = derive(OptLevel::Default, strategy.into(), src, &inputs);
        let (w0, r0, k0) = a.report.table2_row();
        let (w1, r1, k1) = b.report.table2_row();
        assert!(
            w1 <= w0 && r1 <= r0 && k1 <= k0,
            "{strategy}: device events regressed: ({w1},{r1},{k1}) vs ({w0},{r0},{k0})"
        );
        if strategy == Strategy::Staged {
            // Staged launches one kernel per filter: merging the duplicated
            // strain-rate terms must strictly drop launches.
            assert!(
                k1 < k0,
                "staged: optimized kernel launches did not drop: {k1} vs {k0}"
            );
        }
        harness::same_bits(&a.fields, &b.fields, &format!("{strategy}: output changed"));
    }

    let mut opt = Config {
        opt: OptLevel::Default,
        ..Config::new(Exec::Staged)
    }
    .engine();
    opt.run(&Request::source(src, Strategy::Staged), &inputs.real)
        .unwrap();
    // The filter-level drop, from the optimizer's own report.
    let stats = opt.opt_stats(src).expect("program cached");
    assert!(
        stats.filters_after < stats.filters_before,
        "optimizer report shows no filter elimination: {stats:?}"
    );
    assert!(
        stats.merged > 0,
        "q_crit has commutative duplicates to merge"
    );
}

/// Random well-behaved expressions (a finite-valued op set) over the
/// smooth velocity.
fn expression() -> impl proptest::Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
        Just("0.0".to_string()),
        Just("1.0".to_string()),
        Just("0.5".to_string()),
        Just("2.0".to_string()),
    ];
    let expr = leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("min({a}, {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("max({a}, {b})")),
            inner.clone().prop_map(|a| format!("(-{a})")),
            inner.prop_map(|a| format!("abs({a})")),
        ]
    });
    expr.prop_map(|e| format!("r = {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(harness::RANDOM_CASES))]

    /// A random expression at `OptLevel::Default` on every executor,
    /// one-shot and over a session, computes the bits of unoptimized
    /// roundtrip (see `harness::agrees_with_roundtrip`).
    #[test]
    fn default_level_bit_identical_on_random_networks(
        (source, axes) in (expression(), harness::random_axes())
    ) {
        let inputs = Inputs::rt([4, 4, 4]);
        let holders = [Holder::OneShot, axes.holder];
        let configs: Vec<Config> = EXECS
            .into_iter()
            .flat_map(|exec| holders.map(|holder| Config {
                exec,
                holder,
                opt: OptLevel::Default,
                ..axes.clone()
            }))
            .collect();
        harness::agrees_with_roundtrip(&configs, Program::Source(&source), &inputs);
    }
}
