//! Optimizer correctness matrix.
//!
//! Every optimization level must preserve what the engine computes: at
//! `Off`/`Cse`/`Default` the derived field is **bit-identical** to the
//! unoptimized run (the default tier only applies IEEE-754-exact rewrites);
//! at `Fast` the value-changing rewrites stay within 1 ulp on the paper's
//! vortex-detection workloads. CI's `opt-matrix` leg runs this suite under
//! `DFG_OPT_LEVEL` ∈ {off, default, fast} × `DFG_NUM_THREADS` ∈ {auto, 1}.

use dfg_core::{Engine, EngineOptions, FieldSet, OptLevel, Strategy, Workload};
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::{DeviceProfile, ExecMode};
use proptest::prelude::*;
use proptest::Strategy as _;

fn rt_fields(dims: [usize; 3]) -> FieldSet {
    let mesh = RectilinearMesh::unit_cube(dims);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default())
}

fn engine_at(mode: ExecMode, level: OptLevel) -> Engine {
    Engine::with_options(
        DeviceProfile::intel_x5660(),
        EngineOptions {
            mode,
            optimize: level,
            ..EngineOptions::default()
        },
    )
}

fn bits(report: &dfg_core::ExecReport) -> Vec<u32> {
    report
        .field
        .as_ref()
        .expect("real-mode derive returns data")
        .data
        .iter()
        .map(|f| f.to_bits())
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
    let fields = rt_fields([6, 5, 4]);
    let max_ulp = if level >= OptLevel::Fast { 1 } else { 0 };

    let mut reference = engine_at(ExecMode::Real, OptLevel::Off);
    let mut optimized = engine_at(ExecMode::Real, level);
    for workload in Workload::ALL {
        let src = workload.source();
        for strategy in Strategy::ALL {
            let want = bits(&reference.derive(src, &fields, strategy).unwrap());
            let got = bits(&optimized.derive(src, &fields, strategy).unwrap());
            assert_eq!(want.len(), got.len());
            for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
                assert!(
                    ulp_diff(w, g) <= max_ulp,
                    "{workload}/{strategy} at {}: cell {i} differs by {} ulp \
                     ({} vs {})",
                    level.name(),
                    ulp_diff(w, g),
                    f32::from_bits(w),
                    f32::from_bits(g),
                );
            }
        }
        // The fourth strategy: streamed (chunked staged under a budget).
        let want = bits(&reference.derive_streamed(src, &fields, None).unwrap());
        let got = bits(&optimized.derive_streamed(src, &fields, None).unwrap());
        for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
            assert!(
                ulp_diff(w, g) <= max_ulp,
                "{workload}/streamed at {}: cell {i} differs by {} ulp",
                level.name(),
                ulp_diff(w, g),
            );
        }
    }
}

/// Model mode carries no data, but its event accounting must match Real
/// mode exactly for the *optimized* network too — and optimization never
/// increases launches or modeled device time.
#[test]
fn model_mode_accounting_matches_real_and_never_regresses() {
    let level = env_level();
    let fields = rt_fields([6, 5, 4]);
    for workload in Workload::ALL {
        let src = workload.source();
        for strategy in Strategy::ALL {
            let real = engine_at(ExecMode::Real, level)
                .derive(src, &fields, strategy)
                .unwrap();
            let model = engine_at(ExecMode::Model, level)
                .derive(src, &fields, strategy)
                .unwrap();
            assert_eq!(
                real.table2_row(),
                model.table2_row(),
                "{workload}/{strategy}: Model event counts diverge from Real"
            );
            let off = engine_at(ExecMode::Model, OptLevel::Off)
                .derive(src, &fields, strategy)
                .unwrap();
            let (w0, r0, k0) = off.table2_row();
            let (w1, r1, k1) = model.table2_row();
            assert!(
                w1 <= w0 && r1 <= r0 && k1 <= k0,
                "{workload}/{strategy}: optimization increased device events: \
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
    let fields = rt_fields([8, 7, 6]);

    let mut off = engine_at(ExecMode::Real, OptLevel::Off);
    let mut default = engine_at(ExecMode::Real, OptLevel::Default);
    let mut fast = engine_at(ExecMode::Real, OptLevel::Fast);

    let r_off = off.derive(src, &fields, Strategy::Staged).unwrap();
    let r_def = default.derive(src, &fields, Strategy::Staged).unwrap();
    let r_fast = fast.derive(src, &fields, Strategy::Staged).unwrap();

    let (_, _, k_off) = r_off.table2_row();
    let (_, _, k_def) = r_def.table2_row();
    let (_, _, k_fast) = r_fast.table2_row();
    // Default CSEs the duplicated sqrt subtree but keeps the sqrt·sqrt.
    assert!(k_def < k_off, "CSE did not reduce launches");
    assert!(
        k_fast < k_def,
        "fast rewrite did not fire: {k_fast} vs {k_def}"
    );

    // Default stays bit-identical; Fast drops both roundings (sqrt then
    // multiply), each within half an ulp of exact.
    assert_eq!(bits(&r_off), bits(&r_def));
    let exact = fast
        .derive("r = u*u + v*v", &fields, Strategy::Staged)
        .unwrap();
    assert_eq!(
        bits(&r_fast),
        bits(&exact),
        "fast tier should compute the algebraically simplified form"
    );
    for (&w, &g) in bits(&r_off).iter().zip(&bits(&r_fast)) {
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
    let mut fields = FieldSet::new(4);
    let (u, v) = (vec![-0.0, 0.0, -0.0, 1.0], vec![0.0, -0.0, -0.0, -1.0]);
    fields.insert_scalar("u", u).unwrap();
    fields.insert_scalar("v", v).unwrap();

    let mut reference = engine_at(ExecMode::Real, OptLevel::Off);
    for level in [OptLevel::Cse, OptLevel::Default] {
        let mut optimized = engine_at(ExecMode::Real, level);
        for (src, strategy) in sources.iter().flat_map(|s| Strategy::ALL.map(|st| (s, st))) {
            let want = bits(&reference.derive(src, &fields, strategy).unwrap());
            let got = bits(&optimized.derive(src, &fields, strategy).unwrap());
            assert_eq!(want, got, "`{src}` under {strategy} at {}", level.name());
        }
    }
}

/// Q-criterion regression (the issue's acceptance bar): at `Default` the
/// optimized network has strictly fewer filters, and fusion + staged launch
/// strictly fewer kernels/transfers, with bit-identical output.
#[test]
fn qcrit_optimized_strictly_drops_kernels_and_transfers() {
    let fields = rt_fields([6, 5, 4]);
    let src = Workload::QCriterion.source();

    let mut off = engine_at(ExecMode::Real, OptLevel::Off);
    let mut opt = engine_at(ExecMode::Real, OptLevel::Default);

    for strategy in [Strategy::Fusion, Strategy::Staged] {
        let a = off.derive(src, &fields, strategy).unwrap();
        let b = opt.derive(src, &fields, strategy).unwrap();
        let (w0, r0, k0) = a.table2_row();
        let (w1, r1, k1) = b.table2_row();
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
        assert_eq!(bits(&a), bits(&b), "{strategy}: output changed");
    }

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

/// Random well-behaved expressions (finite-valued op set): the `Default`
/// level is bit-identical to unoptimized across every strategy, including
/// streamed execution.
fn arb_expr() -> impl proptest::Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
        Just("0.0".to_string()),
        Just("1.0".to_string()),
        Just("0.5".to_string()),
        Just("2.0".to_string()),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("min({a}, {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("max({a}, {b})")),
            inner.clone().prop_map(|a| format!("(-{a})")),
            inner.prop_map(|a| format!("abs({a})")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn default_level_bit_identical_on_random_networks(e in arb_expr()) {
        let src = format!("r = {e}");
        let fields = rt_fields([4, 4, 4]);
        let mut reference = engine_at(ExecMode::Real, OptLevel::Off);
        let mut optimized = engine_at(ExecMode::Real, OptLevel::Default);
        for strategy in Strategy::ALL {
            let want = bits(&reference.derive(&src, &fields, strategy).unwrap());
            let got = bits(&optimized.derive(&src, &fields, strategy).unwrap());
            prop_assert_eq!(&want, &got, "{} diverged on `{}`", strategy.name(), src);
        }
        let want = bits(&reference.derive_streamed(&src, &fields, None).unwrap());
        let got = bits(&optimized.derive_streamed(&src, &fields, None).unwrap());
        prop_assert_eq!(&want, &got, "streamed diverged on `{}`", src);
    }
}
