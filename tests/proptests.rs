//! Property-based tests over the full pipeline.
//!
//! The central property: for *any* well-formed expression program, all
//! three execution strategies produce bit-identical results to a simple
//! host-side interpreter of the dataflow network — parsing, lowering,
//! limited CSE, scheduling, kernel codegen and fusion never change the
//! computed arithmetic.

use proptest::prelude::*;

use dfg::core::{FieldSet, Workload};
use dfg::dataflow::{BinKind, FilterOp, NetworkSpec, NodeId, Schedule, UnKind};
use dfg::expr::{compile, parse, Expr};
use dfg::kernels::{gradient_at, Dims3};
// `dfg::prelude::Strategy` (the execution strategy enum) collides with
// proptest's `Strategy` trait, so import the prelude pieces explicitly and
// alias the enum.
use dfg::core::{Exec, Request, Strategy as ExecStrategy};
use dfg::prelude::{DeviceProfile, Engine, RectilinearMesh, RtWorkload};

// ---------------------------------------------------------------------------
// A trivially-simple reference interpreter for dataflow networks.
// ---------------------------------------------------------------------------

fn interpret(spec: &NetworkSpec, fields: &FieldSet) -> Vec<f32> {
    let sched = Schedule::new(spec).expect("valid network");
    let n = fields.ncells();
    let mut vals: Vec<Option<Vec<f32>>> = vec![None; spec.len()];
    let get = |vals: &Vec<Option<Vec<f32>>>, id: NodeId| -> Vec<f32> {
        vals[id.idx()].clone().expect("operand computed")
    };
    for &id in &sched.order {
        let node = spec.node(id);
        let ins: Vec<Vec<f32>> = node.inputs.iter().map(|&i| get(&vals, i)).collect();
        let out: Vec<f32> = match &node.op {
            FilterOp::Input { name, .. } => fields
                .get(name)
                .and_then(|f| f.data.as_deref().map(<[f32]>::to_vec))
                .expect("field provided"),
            FilterOp::Const(v) => vec![*v; n],
            FilterOp::Bin(BinKind::Add) => (0..n).map(|i| ins[0][i] + ins[1][i]).collect(),
            FilterOp::Bin(BinKind::Sub) => (0..n).map(|i| ins[0][i] - ins[1][i]).collect(),
            FilterOp::Bin(BinKind::Mul) => (0..n).map(|i| ins[0][i] * ins[1][i]).collect(),
            FilterOp::Bin(BinKind::Div) => (0..n).map(|i| ins[0][i] / ins[1][i]).collect(),
            FilterOp::Bin(BinKind::Min) => (0..n).map(|i| ins[0][i].min(ins[1][i])).collect(),
            FilterOp::Bin(BinKind::Max) => (0..n).map(|i| ins[0][i].max(ins[1][i])).collect(),
            FilterOp::Bin(BinKind::Lt) => {
                (0..n).map(|i| f32::from(ins[0][i] < ins[1][i])).collect()
            }
            FilterOp::Bin(BinKind::Gt) => {
                (0..n).map(|i| f32::from(ins[0][i] > ins[1][i])).collect()
            }
            FilterOp::Bin(BinKind::Le) => {
                (0..n).map(|i| f32::from(ins[0][i] <= ins[1][i])).collect()
            }
            FilterOp::Bin(BinKind::Ge) => {
                (0..n).map(|i| f32::from(ins[0][i] >= ins[1][i])).collect()
            }
            FilterOp::Bin(BinKind::Eq) => {
                (0..n).map(|i| f32::from(ins[0][i] == ins[1][i])).collect()
            }
            FilterOp::Bin(BinKind::Ne) => {
                (0..n).map(|i| f32::from(ins[0][i] != ins[1][i])).collect()
            }
            FilterOp::Select => (0..n)
                .map(|i| {
                    if ins[0][i] != 0.0 {
                        ins[1][i]
                    } else {
                        ins[2][i]
                    }
                })
                .collect(),
            FilterOp::Un(UnKind::Neg) => (0..n).map(|i| -ins[0][i]).collect(),
            FilterOp::Un(UnKind::Sqrt) => (0..n).map(|i| ins[0][i].sqrt()).collect(),
            FilterOp::Un(UnKind::Abs) => (0..n).map(|i| ins[0][i].abs()).collect(),
            FilterOp::Un(UnKind::Sin) => (0..n).map(|i| ins[0][i].sin()).collect(),
            FilterOp::Un(UnKind::Cos) => (0..n).map(|i| ins[0][i].cos()).collect(),
            FilterOp::Un(UnKind::Tan) => (0..n).map(|i| ins[0][i].tan()).collect(),
            FilterOp::Un(UnKind::Exp) => (0..n).map(|i| ins[0][i].exp()).collect(),
            FilterOp::Un(UnKind::Log) => (0..n).map(|i| ins[0][i].ln()).collect(),
            FilterOp::Bin(BinKind::Pow) => (0..n).map(|i| ins[0][i].powf(ins[1][i])).collect(),
            FilterOp::Bin(BinKind::Atan2) => (0..n).map(|i| ins[0][i].atan2(ins[1][i])).collect(),
            FilterOp::Bin(BinKind::And) => (0..n)
                .map(|i| f32::from(ins[0][i] != 0.0 && ins[1][i] != 0.0))
                .collect(),
            FilterOp::Bin(BinKind::Or) => (0..n)
                .map(|i| f32::from(ins[0][i] != 0.0 || ins[1][i] != 0.0))
                .collect(),
            FilterOp::Un(UnKind::Not) => (0..n).map(|i| f32::from(ins[0][i] == 0.0)).collect(),
            FilterOp::Compose3 => {
                let mut out = vec![0.0f32; 4 * n];
                for i in 0..n {
                    out[4 * i] = ins[0][i];
                    out[4 * i + 1] = ins[1][i];
                    out[4 * i + 2] = ins[2][i];
                }
                out
            }
            FilterOp::Decompose(c) => (0..n).map(|i| ins[0][4 * i + *c as usize]).collect(),
            FilterOp::Norm3 => (0..n)
                .map(|i| {
                    let v = &ins[0][4 * i..4 * i + 3];
                    (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()
                })
                .collect(),
            FilterOp::Dot3 => (0..n)
                .map(|i| {
                    let a = &ins[0][4 * i..4 * i + 3];
                    let b = &ins[1][4 * i..4 * i + 3];
                    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
                })
                .collect(),
            FilterOp::Cross3 => {
                let mut out = vec![0.0f32; 4 * n];
                for i in 0..n {
                    let a = &ins[0][4 * i..4 * i + 3];
                    let b = &ins[1][4 * i..4 * i + 3];
                    out[4 * i] = a[1] * b[2] - a[2] * b[1];
                    out[4 * i + 1] = a[2] * b[0] - a[0] * b[2];
                    out[4 * i + 2] = a[0] * b[1] - a[1] * b[0];
                }
                out
            }
            FilterOp::Grad3d => {
                let d = Dims3::from_buffer(&ins[1]);
                let mut out = vec![0.0f32; 4 * n];
                for i in 0..n {
                    let g = gradient_at(&ins[0], &ins[2], &ins[3], &ins[4], d, i);
                    out[4 * i..4 * i + 3].copy_from_slice(&g);
                }
                out
            }
        };
        vals[id.idx()] = Some(out);
    }
    vals[spec.result.idx()].take().expect("result computed")
}

// ---------------------------------------------------------------------------
// Random expression programs over the fields u, v, w (+ mesh coords).
// ---------------------------------------------------------------------------

fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
        (1i32..20).prop_map(|k| format!("{:.2}", k as f32 * 0.25)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("min({a}, {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("max({a}, {b})")),
            inner.clone().prop_map(|a| format!("-{a}")),
            inner.clone().prop_map(|a| format!("abs({a})")),
            inner.clone().prop_map(|a| format!("sqrt(abs({a}))")),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, a, b)| format!("(if (({c}) > 1) then (({a})) else (({b})))")),
        ]
    })
}

fn small_fields() -> FieldSet {
    // 343 cells: deliberately larger than the fused executor's 256-element
    // chunk so every property also exercises the chunk boundary.
    let mesh = RectilinearMesh::unit_cube([7, 7, 7]);
    FieldSet::for_rt_mesh(&mesh, &RtWorkload::new(42, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All strategies agree bit-for-bit with the reference interpreter on
    /// random expressions.
    #[test]
    fn strategies_match_interpreter(src in arb_expr()) {
        let program = format!("r = {src}");
        let spec = compile(&program).expect("generated programs are valid");
        let fields = small_fields();
        let expected = interpret(&spec, &fields);
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        for strategy in ExecStrategy::ALL {
            let got = engine
                .run(&Request::network(&spec, &[spec.result], strategy), &fields)
                .expect("execute")
                .0
                .remove(0)
                .data;
            prop_assert_eq!(got.len(), expected.len());
            for i in 0..got.len() {
                prop_assert!(
                    got[i].to_bits() == expected[i].to_bits(),
                    "{} differs at {}: {} vs {}",
                    strategy, i, got[i], expected[i]
                );
            }
        }
    }

    /// Pretty-printing a parsed expression reparses to the same AST.
    #[test]
    fn pretty_print_reparses(src in arb_expr()) {
        let program = format!("r = {src}");
        let parsed = parse(&program).expect("valid");
        let pretty = format!("r = {}", parsed.stmts[0].expr.pretty());
        let reparsed = parse(&pretty).expect("pretty output reparses");
        prop_assert_eq!(&parsed.stmts[0].expr, &reparsed.stmts[0].expr);
    }

    /// Multi-statement programs: splitting an expression across named
    /// statements never changes the result.
    #[test]
    fn statement_splitting_is_semantics_preserving(a in arb_expr(), b in arb_expr()) {
        let inline = format!("r = ({a}) * ({b}) + ({a})");
        let split = format!("t0 = {a}\nt1 = {b}\nr = t0 * t1 + t0");
        let fields = small_fields();
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        let x = engine
            .run(&Request::source(&inline, ExecStrategy::Fusion), &fields)
            .expect("inline")
            .0.remove(0).data;
        let y = engine
            .run(&Request::source(&split, ExecStrategy::Fusion), &fields)
            .expect("split")
            .0.remove(0).data;
        for i in 0..x.len() {
            // Named reuse evaluates `a` once where the inline form wrote it
            // twice — same value either way (identical subtree, identical
            // per-element arithmetic), so bits must match.
            prop_assert!(x[i].to_bits() == y[i].to_bits(), "at {}: {} vs {}", i, x[i], y[i]);
        }
    }

    /// Schedules respect dependency edges for arbitrary generated programs.
    #[test]
    fn schedule_topological_for_random_programs(src in arb_expr()) {
        let spec = compile(&format!("r = {src}")).expect("valid");
        let sched = Schedule::new(&spec).expect("schedulable");
        let mut pos = vec![usize::MAX; spec.len()];
        for (i, id) in sched.order.iter().enumerate() {
            pos[id.idx()] = i;
        }
        for &id in &sched.order {
            for &input in &spec.node(id).inputs {
                prop_assert!(pos[input.idx()] < pos[id.idx()]);
            }
        }
    }

    /// Device-memory predictions follow the Figure 2 accounting rules for
    /// arbitrary elementwise programs: fusion is *exactly* "every distinct
    /// input plus the output" (it can exceed staged — the point of the
    /// paper's Figure 2), and roundtrip never exceeds one kernel's widest
    /// footprint (per-port ports + output; ≤ 4 for elementwise ops).
    #[test]
    fn memreq_accounting_rules(src in arb_expr()) {
        use dfg::dataflow::{memreq_units, FilterOp};
        let spec = compile(&format!("r = {src}")).expect("valid");
        let rt = memreq_units(&spec, ExecStrategy::Roundtrip).expect("roundtrip").units;
        let fu = memreq_units(&spec, ExecStrategy::Fusion).expect("fusion").units;
        let distinct_inputs = spec
            .count_ops(|op| matches!(op, FilterOp::Input { small: false, .. })) as u64;
        prop_assert_eq!(fu, distinct_inputs + 1, "fusion = inputs + output");
        // select has 3 ports, so a roundtrip kernel holds at most 4 arrays
        // (and a kernel-free program like `r = u` holds none).
        prop_assert!(rt <= 4, "roundtrip peak {} > one-kernel footprint", rt);
        let has_compute = spec.count_ops(|op| !op.is_source()) > 0;
        prop_assert_eq!(rt >= 2, has_compute);
    }
}

// ---------------------------------------------------------------------------
// The three paper workloads against the interpreter (deterministic).
// ---------------------------------------------------------------------------

#[test]
fn paper_workloads_match_interpreter_bitwise() {
    let mesh = RectilinearMesh::unit_cube([7, 6, 5]);
    let fields = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    for workload in Workload::ALL {
        let spec = compile(workload.source()).expect("workload compiles");
        let expected = interpret(&spec, &fields);
        for strategy in ExecStrategy::ALL {
            let got = engine
                .run(&Request::network(&spec, &[spec.result], strategy), &fields)
                .expect("execute")
                .0
                .remove(0)
                .data;
            for i in 0..got.len() {
                assert_eq!(
                    got[i].to_bits(),
                    expected[i].to_bits(),
                    "{workload}/{strategy} at {i}: {} vs {}",
                    got[i],
                    expected[i]
                );
            }
        }
    }
}

#[test]
fn conditional_expression_matches_interpreter() {
    let spec = compile("r = if (u > 0.5) then (v * v) else (-w)").expect("valid");
    let fields = small_fields();
    let expected = interpret(&spec, &fields);
    let mut engine = Engine::new(DeviceProfile::intel_x5660());
    for strategy in ExecStrategy::ALL {
        let got = engine
            .run(&Request::network(&spec, &[spec.result], strategy), &fields)
            .expect("execute")
            .0
            .remove(0)
            .data;
        assert_eq!(got, expected, "{strategy}");
    }
}

#[test]
fn expr_ast_helper_types_exposed() {
    // The facade exposes the AST for host tooling.
    let p = parse("r = a + 2").expect("valid");
    match &p.stmts[0].expr {
        Expr::Binary(op, _, _) => assert_eq!(op.symbol(), "+"),
        other => panic!("unexpected AST {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed fusion is bit-identical to single-pass fusion for any
    /// chunking budget that admits at least one slab.
    #[test]
    fn streaming_bit_identical_for_any_budget(
        src in arb_expr(),
        budget_cells in 8usize..200,
    ) {
        let fields = small_fields(); // 7x7x7 = 343 cells
        let program = format!("r = {src}");
        let mut engine = Engine::new(DeviceProfile::intel_x5660());
        let fused = engine
            .run(&Request::source(&program, ExecStrategy::Fusion), &fields)
            .expect("fusion")
            .0
            .remove(0)
            .data;
        // Budget in bytes: enough for `budget_cells` cells of the fused
        // footprint (inputs + output ≤ 4 lanes for these programs).
        let budget = (4 * 4 * budget_cells) as u64;
        let streamed = engine.run(&Request::source(&program, Exec::Streamed(Some(budget))), &fields);
        match streamed {
            Ok((mut out, report)) => {
                prop_assert!(report.high_water_bytes() <= budget);
                let data = out.remove(0).data;
                for i in 0..fused.len() {
                    prop_assert!(
                        data[i].to_bits() == fused[i].to_bits(),
                        "at {}: {} vs {}", i, data[i], fused[i]
                    );
                }
            }
            Err(e) => {
                // Only acceptable failure: budget below one slab.
                prop_assert!(e.is_out_of_memory(), "unexpected error {}", e);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CSE level (value numbering with commutative canonicalization)
    /// never changes results: optimized and unoptimized networks agree
    /// bit-for-bit on random expressions over real field data.
    #[test]
    fn cse_level_preserves_results(src in arb_expr()) {
        use dfg::dataflow::{optimize, OptLevel};
        let spec = compile(&format!("r = {src}")).expect("valid");
        let out = optimize(&spec, &[spec.result], OptLevel::Cse).expect("valid");
        let (opt, stats) = (out.spec, out.stats);
        prop_assert!(opt.validate().is_ok());
        prop_assert!(opt.len() <= spec.len());
        prop_assert_eq!(stats.nodes_after + stats.merged,
            Schedule::new(&spec).expect("valid").len());
        let fields = small_fields();
        let a = interpret(&spec, &fields);
        let b = interpret(&opt, &fields);
        for i in 0..a.len() {
            prop_assert!(
                a[i].to_bits() == b[i].to_bits(),
                "at {}: {} vs {}", i, a[i], b[i]
            );
        }
    }
}
