use super::*;
use crate::FilterOp::{Bin, Un};
use crate::{BinKind, NetworkBuilder, Strategy, UnKind};

#[test]
fn merges_commutative_duplicates() {
    // a+b and b+a collapse; a-b and b-a do not.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let y = b.input("y");
    let s1 = b.binary(BinKind::Add, x, y);
    let s2 = b.binary(BinKind::Add, y, x);
    let d1 = b.binary(BinKind::Sub, x, y);
    let d2 = b.binary(BinKind::Sub, y, x);
    let m1 = b.binary(BinKind::Mul, s1, d1);
    let m2 = b.binary(BinKind::Mul, s2, d2);
    let out = b.binary(BinKind::Add, m1, m2);
    let spec = b.finish(out);
    let Optimized {
        spec: opt, stats, ..
    } = optimize(&spec, &[spec.result], OptLevel::Cse).unwrap();
    assert!(opt.validate().is_ok());
    // adds merged (s1==s2); subs kept; m1 != m2 (different sub inputs).
    assert_eq!(stats.merged, 1);
    assert_eq!(opt.len(), spec.len() - 1);
}

#[test]
fn chains_of_duplicates_collapse_transitively() {
    // (x*x) + (x*x) built twice: both mults merge, then both adds merge.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let m1 = b.binary(BinKind::Mul, x, x);
    let m2 = b.binary(BinKind::Mul, x, x);
    let a1 = b.binary(BinKind::Add, m1, m2);
    let m3 = b.binary(BinKind::Mul, x, x);
    let m4 = b.binary(BinKind::Mul, x, x);
    let a2 = b.binary(BinKind::Add, m3, m4);
    let out = b.binary(BinKind::Max, a1, a2);
    let spec = b.finish(out);
    let Optimized {
        spec: opt, stats, ..
    } = optimize(&spec, &[spec.result], OptLevel::Cse).unwrap();
    // x, one mult, one add, one max = 4 nodes.
    assert_eq!(opt.len(), 4);
    assert_eq!(stats.merged, 4);
    // max(a, a) stays a max with two identical ports — value numbering
    // does not fold idempotent ops (that is the rewrite pass's job, at
    // OptLevel::Default and above).
    assert!(matches!(opt.node(opt.result).op, Bin(BinKind::Max)));
    let full = optimize(&spec, &[spec.result], OptLevel::Default).unwrap();
    assert!(
        matches!(full.spec.node(full.roots[0]).op, Bin(BinKind::Add)),
        "max(a,a) folds to a at Default"
    );
}

#[test]
fn names_survive_merging() {
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let a1 = b.binary(BinKind::Add, x, x);
    b.name(a1, "first");
    let a2 = b.binary(BinKind::Add, x, x);
    b.name(a2, "second");
    let out = b.binary(BinKind::Mul, a1, a2);
    let spec = b.finish(out);
    let opt = optimize(&spec, &[spec.result], OptLevel::Cse).unwrap().spec;
    // The survivor keeps its first name.
    let add = opt
        .iter()
        .find(|(_, n)| matches!(n.op, Bin(BinKind::Add)))
        .expect("one add");
    assert_eq!(add.1.name.as_deref(), Some("first"));
    // The multi-root API still resolves both original bindings: the root
    // remap points each requested root at the shared survivor.
    let out = optimize(&spec, &[a1, a2], OptLevel::Cse).unwrap();
    assert_eq!(out.roots[0], out.roots[1], "both names map to the survivor");
}

#[test]
fn memory_requirements_never_increase() {
    let spec = crate::example_networks::velmag_example();
    for level in [OptLevel::Cse, OptLevel::Default, OptLevel::Fast] {
        let opt = optimize(&spec, &[spec.result], level).unwrap();
        for strategy in Strategy::ALL {
            let before = crate::memreq_units(&spec, strategy).unwrap().units;
            let after = crate::memreq_units(&opt.spec, strategy).unwrap().units;
            assert!(after <= before, "{level}/{strategy}: {before} -> {after}");
        }
    }
}

#[test]
fn off_level_is_identity() {
    let spec = crate::example_networks::velmag_example();
    let out = optimize(&spec, &[spec.result], OptLevel::Off).unwrap();
    assert_eq!(out.spec, spec);
    assert_eq!(out.roots, vec![spec.result]);
    assert_eq!(out.stats.passes, 0);
}

#[test]
fn constants_fold_across_filters() {
    // m = x * (2.0 - 1.0): folds to x at Default, in one optimize() call.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let c2 = b.constant(2.0);
    let c1 = b.constant(1.0);
    let d = b.binary(BinKind::Sub, c2, c1);
    let m = b.binary(BinKind::Mul, x, d);
    let spec = b.finish(m);
    let cse_only = optimize(&spec, &[spec.result], OptLevel::Cse).unwrap();
    assert!(cse_only.spec.len() > 1, "CSE alone does not fold");
    let opt = optimize(&spec, &[spec.result], OptLevel::Default).unwrap();
    assert_eq!(opt.spec.len(), 1, "folded to the bare input");
    assert!(matches!(
        opt.spec.node(opt.roots[0]).op,
        FilterOp::Input { .. }
    ));
    assert!(opt.stats.folded >= 1);
    assert!(opt.stats.rewritten >= 1);
}

#[test]
fn identity_rewrites_are_bit_exact_about_signed_zero() {
    // x + 0.0 must NOT be rewritten (x = -0.0 gives +0.0), but
    // x + (-0.0) and x - 0.0 must.
    let build = |op: BinKind, c: f32, swap: bool| {
        let mut b = NetworkBuilder::new();
        let x = b.input("x");
        let k = b.constant(c);
        let m = if swap {
            b.binary(op, k, x)
        } else {
            b.binary(op, x, k)
        };
        b.finish(m)
    };
    let opt_len = |spec: &NetworkSpec| {
        optimize(spec, &[spec.result], OptLevel::Default)
            .unwrap()
            .spec
            .len()
    };
    assert_eq!(opt_len(&build(BinKind::Add, 0.0, false)), 3, "x+0.0 kept");
    assert_eq!(opt_len(&build(BinKind::Add, -0.0, false)), 1, "x+(-0.0)");
    assert_eq!(opt_len(&build(BinKind::Add, -0.0, true)), 1, "(-0.0)+x");
    assert_eq!(opt_len(&build(BinKind::Sub, 0.0, false)), 1, "x-0.0");
    assert_eq!(
        opt_len(&build(BinKind::Sub, -0.0, false)),
        3,
        "x-(-0.0) kept"
    );
    assert_eq!(opt_len(&build(BinKind::Mul, 1.0, false)), 1, "x*1.0");
    assert_eq!(opt_len(&build(BinKind::Mul, 1.0, true)), 1, "1.0*x");
    assert_eq!(opt_len(&build(BinKind::Div, 1.0, false)), 1, "x/1.0");
    // x*0.0 is NOT folded (NaN/inf/-0.0 poison it).
    assert_eq!(opt_len(&build(BinKind::Mul, 0.0, false)), 3, "x*0.0 kept");
}

#[test]
fn select_dead_branch_elimination() {
    // select(1.0, a, b) keeps only a's subgraph.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let y = b.input("y");
    let c = b.constant(1.0);
    let a_branch = b.unary(UnKind::Sqrt, x);
    let b_branch = b.unary(UnKind::Exp, y);
    let s = b.select(c, a_branch, b_branch);
    let spec = b.finish(s);
    let opt = optimize(&spec, &[spec.result], OptLevel::Default).unwrap();
    assert!(matches!(opt.spec.node(opt.roots[0]).op, Un(UnKind::Sqrt)));
    assert_eq!(opt.spec.len(), 2, "x and sqrt only; y/exp/const dropped");
}

#[test]
fn fast_tier_applies_sqrt_square_rewrites() {
    // sqrt(x)^2 → x across two pipeline iterations.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let s = b.unary(UnKind::Sqrt, x);
    let two = b.constant(2.0);
    let p = b.binary(BinKind::Pow, s, two);
    let spec = b.finish(p);
    let default = optimize(&spec, &[spec.result], OptLevel::Default).unwrap();
    assert_eq!(default.spec.len(), spec.len(), "bit-exact tier keeps pow");
    let fast = optimize(&spec, &[spec.result], OptLevel::Fast).unwrap();
    assert_eq!(fast.spec.len(), 1, "sqrt(x)^2 → x");
    assert!(matches!(
        fast.spec.node(fast.roots[0]).op,
        FilterOp::Input { .. }
    ));

    // sqrt(x*x) → abs(x).
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let m = b.binary(BinKind::Mul, x, x);
    let r = b.unary(UnKind::Sqrt, m);
    let spec = b.finish(r);
    let fast = optimize(&spec, &[spec.result], OptLevel::Fast).unwrap();
    assert!(matches!(fast.spec.node(fast.roots[0]).op, Un(UnKind::Abs)));
}

#[test]
fn canonical_hash_is_commutative_order_insensitive() {
    let build = |flip: bool| {
        // u*u + v*v, with the two operand orders (and different node
        // numbering, since the builder numbers by first use).
        let mut b = NetworkBuilder::new();
        let (first, second) = if flip { ("v", "u") } else { ("u", "v") };
        let f = b.input(first);
        let s = b.input(second);
        let ff = b.binary(BinKind::Mul, f, f);
        let ss = b.binary(BinKind::Mul, s, s);
        let sum = b.binary(BinKind::Add, ff, ss);
        b.finish(sum)
    };
    assert_eq!(canonical_hash(&build(false)), canonical_hash(&build(true)));
    // Different structure still distinguishes.
    let mut b = NetworkBuilder::new();
    let u = b.input("u");
    let v = b.input("v");
    let d = b.binary(BinKind::Sub, u, v);
    let other = b.finish(d);
    assert_ne!(canonical_hash(&build(false)), canonical_hash(&other));
}

#[test]
fn optimizer_keeps_multi_output_roots_live() {
    // r = sqrt(x); dead = exp(y) shadowed…: roots pin what must survive.
    let mut b = NetworkBuilder::new();
    let x = b.input("x");
    let y = b.input("y");
    let r = b.unary(UnKind::Sqrt, x);
    b.name(r, "r");
    let side = b.unary(UnKind::Exp, y);
    b.name(side, "side");
    let spec = b.finish(r);
    // With both roots, the side output survives every level.
    for level in [OptLevel::Cse, OptLevel::Default, OptLevel::Fast] {
        let out = optimize(&spec, &[r, side], level).unwrap();
        assert!(matches!(out.spec.node(out.roots[1]).op, Un(UnKind::Exp)));
    }
    // With only the result root, the side branch is dead code.
    let out = optimize(&spec, &[r], OptLevel::Default).unwrap();
    assert_eq!(out.spec.len(), 2, "y/exp eliminated");
}

#[test]
fn optimized_schedules_free_every_non_root_exactly_once() {
    // The renumbered post-CSE network must still produce leak-free staged
    // execution: every reachable non-root node freed exactly once. Use a
    // duplicate-heavy network so CSE actually renumbers.
    let mut b = NetworkBuilder::new();
    let u = b.input("u");
    let v = b.input("v");
    let uu = b.binary(BinKind::Mul, u, u);
    let vv = b.binary(BinKind::Mul, v, v);
    let s1 = b.binary(BinKind::Add, uu, vv);
    let vv2 = b.binary(BinKind::Mul, v, v);
    let uu2 = b.binary(BinKind::Mul, u, u);
    let s2 = b.binary(BinKind::Add, vv2, uu2);
    let m = b.binary(BinKind::Max, s1, s2);
    let r = b.unary(UnKind::Sqrt, m);
    let spec = b.finish(r);
    for level in [OptLevel::Cse, OptLevel::Default, OptLevel::Fast] {
        let out = optimize(&spec, &[spec.result], level).unwrap();
        let sched = Schedule::for_roots(&out.spec, &out.roots).unwrap();
        let mut freed: Vec<NodeId> = sched.free_after.iter().flatten().copied().collect();
        freed.sort();
        let mut expected: Vec<NodeId> = sched
            .order
            .iter()
            .copied()
            .filter(|n| !out.roots.contains(n))
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(freed, expected, "{level}: free list mismatch");
    }
}

#[test]
fn opt_level_parse_round_trips() {
    for level in OptLevel::ALL {
        assert_eq!(OptLevel::parse(level.name()), Some(level));
    }
    assert_eq!(OptLevel::parse("on"), Some(OptLevel::Default));
    assert_eq!(OptLevel::parse("none"), Some(OptLevel::Off));
    assert_eq!(OptLevel::parse("bogus"), None);
    assert!(OptLevel::Off < OptLevel::Cse);
    assert!(OptLevel::Default < OptLevel::Fast);
}
