//! Small reference networks used by tests, documentation, and the Figure 2
//! benchmark harness.

use crate::op::{BinKind, FilterOp, UnKind};
use crate::{NetworkBuilder, NetworkSpec};

/// The example network of the paper's Figure 2: two independent binary
/// filters whose results merge in a third.
///
/// ```text
///   a   b     c   d
///    \ /       \ /
///    f1         f2
///      \       /
///       \     /
///        f3 -> out
/// ```
///
/// Device-memory accounting (problem-sized arrays): roundtrip 3, staged 4
/// (the `f1` intermediate must stay resident while `f2` executes), fusion 5
/// (all four inputs plus the output are resident for the single kernel).
pub fn fig2_example() -> NetworkSpec {
    let mut b = NetworkBuilder::new();
    let a = b.input("a");
    let bb = b.input("b");
    let c = b.input("c");
    let d = b.input("d");
    let f1 = b.binary(BinKind::Add, a, bb);
    let f2 = b.binary(BinKind::Mul, c, d);
    let f3 = b.binary(BinKind::Sub, f1, f2);
    b.name(f3, "out");
    b.finish(f3)
}

/// `v_mag = sqrt(u*u + v*v + w*w)` — Figure 3A, built directly through the
/// builder API.
pub fn velmag_example() -> NetworkSpec {
    let mut b = NetworkBuilder::new();
    let (u, v, w) = (b.input("u"), b.input("v"), b.input("w"));
    let m1 = b.binary(BinKind::Mul, u, u);
    let m2 = b.binary(BinKind::Mul, v, v);
    let m3 = b.binary(BinKind::Mul, w, w);
    let a1 = b.binary(BinKind::Add, m1, m2);
    let a2 = b.binary(BinKind::Add, a1, m3);
    let s = b.unary(UnKind::Sqrt, a2);
    b.name(s, "v_mag");
    b.finish(s)
}

/// `g_mag = norm(grad3d(u, dims, x, y, z))` — a minimal gradient network.
pub fn gradmag_example() -> NetworkSpec {
    let mut b = NetworkBuilder::new();
    let u = b.input("u");
    let dims = b.small_input("dims");
    let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
    let g = b.grad3d(u, dims, x, y, z);
    let n = b.unary(FilterOp::Norm3, g);
    b.name(n, "g_mag");
    b.finish(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn examples_validate() {
        assert!(fig2_example().validate().is_ok());
        assert!(velmag_example().validate().is_ok());
        assert!(gradmag_example().validate().is_ok());
    }

    #[test]
    fn velmag_has_six_filters() {
        let spec = velmag_example();
        assert_eq!(spec.count_ops(|op| !op.is_source()), 6);
    }
}
