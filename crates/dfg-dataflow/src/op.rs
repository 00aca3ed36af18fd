//! The operation table: filter operations, their static metadata and — for
//! the scalar primitives — their arithmetic.
//!
//! Each variant corresponds to one primitive from the shared building-block
//! library (§III-B.3), *"written once and shared by all execution
//! strategies"*. The metadata here (arity, result width, FLOP cost, name) is
//! the Rust analogue of the paper's *"minimal metadata to describe global
//! memory requirements and the return type"* attached to each OpenCL source
//! function.
//!
//! [`BinKind`] and [`UnKind`] are the single definition of a scalar
//! primitive: `eval` is the arithmetic the standalone kernels, the fused
//! executor and the constant folder all call, so "a folded network is
//! bit-identical to the device" holds because there is one function, not
//! because two copies are tested against each other. Adding a scalar
//! primitive is one enum row (variant, `ALL`, `name`, `flops`, `source_expr`)
//! and one `eval` arm in this file, plus a spelling in `dfg-expr`'s call
//! table if the expression language should reach it.

/// Number of input ports a filter exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arity(pub usize);

/// Result width of a filter, in scalar lanes.
///
/// Multi-valued results are represented with built-in OpenCL vector types in
/// the paper (`float4`); `Vec4` models that: a gradient occupies four scalar
/// lanes of global memory per element even though only three are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One `f32` per element.
    Scalar,
    /// One `float4` per element (e.g. `grad3d`, `cross`).
    Vec4,
    /// A negligible, non-problem-sized buffer (e.g. the `dims` triple).
    Small,
}

impl Width {
    /// Scalar-array units for device memory accounting (Figure 2 / Figure 6):
    /// a `Vec4` array costs four problem-sized scalar arrays; `Small` buffers
    /// are not problem-sized and count as zero units.
    pub fn units(self) -> u64 {
        match self {
            Width::Scalar => 1,
            Width::Vec4 => 4,
            Width::Small => 0,
        }
    }

    /// Bytes per mesh element occupied by a value of this width.
    pub fn bytes_per_elem(self) -> u64 {
        match self {
            Width::Scalar => 4,
            Width::Vec4 => 16,
            Width::Small => 0,
        }
    }
}

/// Scalar binary operations: one row here is the whole definition of the
/// primitive — the standalone kernel, the fused executor, the constant
/// folder, the generated source and the cost model all read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `a < b` as 1.0/0.0
    Lt,
    /// `a > b` as 1.0/0.0
    Gt,
    /// `a <= b` as 1.0/0.0
    Le,
    /// `a >= b` as 1.0/0.0
    Ge,
    /// `a == b` as 1.0/0.0
    Eq,
    /// `a != b` as 1.0/0.0
    Ne,
    /// `a^b`
    Pow,
    /// `atan2(a, b)`
    Atan2,
    /// logical AND (nonzero ⇒ true)
    And,
    /// logical OR
    Or,
}

impl BinKind {
    /// Every binary kind, in declaration order.
    pub const ALL: [BinKind; 16] = {
        use BinKind::*;
        [
            Add, Sub, Mul, Div, Min, Max, Lt, Gt, Le, Ge, Eq, Ne, Pow, Atan2, And, Or,
        ]
    };

    /// The one spelling of this kind: the standalone kernel's event label,
    /// the `dfg_<name>` building-block function and the dataflow filter's
    /// label (except Fig 4's `mult`, see [`FilterOp::kernel_name`]).
    pub fn name(self) -> &'static str {
        match self {
            BinKind::Add => "add",
            BinKind::Sub => "sub",
            BinKind::Mul => "mul",
            BinKind::Div => "div",
            BinKind::Min => "min",
            BinKind::Max => "max",
            BinKind::Lt => "lt",
            BinKind::Gt => "gt",
            BinKind::Le => "le",
            BinKind::Ge => "ge",
            BinKind::Eq => "eq",
            BinKind::Ne => "ne",
            BinKind::Pow => "pow",
            BinKind::Atan2 => "atan2",
            BinKind::And => "and",
            BinKind::Or => "or",
        }
    }

    /// Approximate floating-point operations per element, for the device
    /// performance model.
    pub fn flops(self) -> u64 {
        match self {
            BinKind::Pow | BinKind::Atan2 => 12,
            _ => 1,
        }
    }

    /// Whether swapping the operands leaves every result bit unchanged (for
    /// non-NaN inputs), so CSE may sort them. `Min`/`Max` are *not*:
    /// `min(-0.0, 0.0)` and `min(0.0, -0.0)` may differ in the sign bit.
    pub fn commutative(self) -> bool {
        use BinKind::*;
        matches!(self, Add | Mul | Eq | Ne | And | Or)
    }

    /// Apply the operation.
    #[inline]
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
            BinKind::Min => a.min(b),
            BinKind::Max => a.max(b),
            BinKind::Lt => f32::from(a < b),
            BinKind::Gt => f32::from(a > b),
            BinKind::Le => f32::from(a <= b),
            BinKind::Ge => f32::from(a >= b),
            BinKind::Eq => f32::from(a == b),
            BinKind::Ne => f32::from(a != b),
            BinKind::Pow => a.powf(b),
            BinKind::Atan2 => a.atan2(b),
            BinKind::And => f32::from(a != 0.0 && b != 0.0),
            BinKind::Or => f32::from(a != 0.0 || b != 0.0),
        }
    }

    /// C-style operator/function text for generated kernel source.
    pub fn source_expr(self, a: &str, b: &str) -> String {
        match self {
            BinKind::Add => format!("{a} + {b}"),
            BinKind::Sub => format!("{a} - {b}"),
            BinKind::Mul => format!("{a} * {b}"),
            BinKind::Div => format!("{a} / {b}"),
            BinKind::Min => format!("fmin({a}, {b})"),
            BinKind::Max => format!("fmax({a}, {b})"),
            BinKind::Lt => format!("({a} < {b}) ? 1.0f : 0.0f"),
            BinKind::Gt => format!("({a} > {b}) ? 1.0f : 0.0f"),
            BinKind::Le => format!("({a} <= {b}) ? 1.0f : 0.0f"),
            BinKind::Ge => format!("({a} >= {b}) ? 1.0f : 0.0f"),
            BinKind::Eq => format!("({a} == {b}) ? 1.0f : 0.0f"),
            BinKind::Ne => format!("({a} != {b}) ? 1.0f : 0.0f"),
            BinKind::Pow => format!("pow({a}, {b})"),
            BinKind::Atan2 => format!("atan2({a}, {b})"),
            BinKind::And => format!("({a} != 0.0f && {b} != 0.0f) ? 1.0f : 0.0f"),
            BinKind::Or => format!("({a} != 0.0f || {b} != 0.0f) ? 1.0f : 0.0f"),
        }
    }
}

/// Scalar unary operations, defined here once like [`BinKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    /// `-a`
    Neg,
    /// `sqrt(a)`
    Sqrt,
    /// `|a|`
    Abs,
    /// `sin(a)`
    Sin,
    /// `cos(a)`
    Cos,
    /// `tan(a)`
    Tan,
    /// `exp(a)`
    Exp,
    /// `ln(a)`
    Log,
    /// logical NOT
    Not,
}

impl UnKind {
    /// Every unary kind, in declaration order.
    pub const ALL: [UnKind; 9] = {
        use UnKind::*;
        [Neg, Sqrt, Abs, Sin, Cos, Tan, Exp, Log, Not]
    };

    /// The one spelling of this kind (see [`BinKind::name`]).
    pub fn name(self) -> &'static str {
        match self {
            UnKind::Neg => "neg",
            UnKind::Sqrt => "sqrt",
            UnKind::Abs => "abs",
            UnKind::Sin => "sin",
            UnKind::Cos => "cos",
            UnKind::Tan => "tan",
            UnKind::Exp => "exp",
            UnKind::Log => "log",
            UnKind::Not => "not",
        }
    }

    /// Approximate floating-point operations per element.
    pub fn flops(self) -> u64 {
        match self {
            UnKind::Neg | UnKind::Abs | UnKind::Not => 1,
            UnKind::Sqrt => 4,
            UnKind::Sin | UnKind::Cos | UnKind::Tan | UnKind::Exp | UnKind::Log => 8,
        }
    }

    /// Apply the operation.
    #[inline]
    pub fn eval(self, a: f32) -> f32 {
        match self {
            UnKind::Neg => -a,
            UnKind::Sqrt => a.sqrt(),
            UnKind::Abs => a.abs(),
            UnKind::Sin => a.sin(),
            UnKind::Cos => a.cos(),
            UnKind::Tan => a.tan(),
            UnKind::Exp => a.exp(),
            UnKind::Log => a.ln(),
            UnKind::Not => f32::from(a == 0.0),
        }
    }

    /// C-style source text.
    pub fn source_expr(self, a: &str) -> String {
        match self {
            UnKind::Neg => format!("-{a}"),
            UnKind::Sqrt => format!("sqrt({a})"),
            UnKind::Abs => format!("fabs({a})"),
            UnKind::Sin => format!("sin({a})"),
            UnKind::Cos => format!("cos({a})"),
            UnKind::Tan => format!("tan({a})"),
            UnKind::Exp => format!("exp({a})"),
            UnKind::Log => format!("log({a})"),
            UnKind::Not => format!("({a} == 0.0f) ? 1.0f : 0.0f"),
        }
    }
}

/// `select(c, a, b)`: `a` where the condition is nonzero, else `b` — the
/// arithmetic of [`FilterOp::Select`] for the standalone kernel, the fused
/// executor and the constant folder alike (which also picks the taken
/// *branch* of a constant-condition select with it, hence the generic).
#[inline]
pub fn select<T>(c: f32, a: T, b: T) -> T {
    if c != 0.0 {
        a
    } else {
        b
    }
}

/// A dataflow filter (or source) operation.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterOp {
    /// Source: a host-provided input field, identified by name.
    Input {
        /// Field name the host must bind.
        name: String,
        /// Marks non-problem-sized auxiliary inputs such as `dims`.
        small: bool,
    },
    /// Source: a scalar constant. Deduplicated during lowering ("common
    /// constants are reduced to single instances of source filters").
    Const(f32),
    /// Elementwise scalar binary operation.
    Bin(BinKind),
    /// Elementwise scalar unary operation.
    Un(UnKind),
    /// `select(cond, a, b)` — elementwise conditional, the dataflow form of
    /// the `if … then … else` expression from §I of the paper.
    Select,
    /// Pack three scalar fields into a `Vec4` vector field
    /// (the expression language's `vector(a, b, c)`).
    Compose3,
    /// Extract one component of a `Vec4` value (the parser's bracket
    /// syntax, e.g. `du[1]`; implemented at source level as `val.s1` in the
    /// fused kernel).
    Decompose(u8),
    /// 3D rectilinear-mesh field gradient. Inputs: `field, dims, x, y, z`.
    /// Produces a `Vec4` (∂f/∂x, ∂f/∂y, ∂f/∂z, 0).
    Grad3d,
    /// Euclidean norm of the first three lanes of a `Vec4`.
    Norm3,
    /// Dot product of the first three lanes of two `Vec4`s.
    Dot3,
    /// Cross product of the first three lanes of two `Vec4`s.
    Cross3,
}

impl From<BinKind> for FilterOp {
    fn from(k: BinKind) -> Self {
        FilterOp::Bin(k)
    }
}

impl From<UnKind> for FilterOp {
    fn from(k: UnKind) -> Self {
        FilterOp::Un(k)
    }
}

impl FilterOp {
    /// Number of input ports.
    pub fn arity(&self) -> Arity {
        use FilterOp::*;
        Arity(match self {
            Input { .. } | Const(_) => 0,
            Un(_) | Decompose(_) | Norm3 => 1,
            Bin(_) | Dot3 | Cross3 => 2,
            Select | Compose3 => 3,
            Grad3d => 5,
        })
    }

    /// Result width. `Input` nodes report their own width.
    pub fn width(&self) -> Width {
        use FilterOp::*;
        match self {
            Input { small: true, .. } => Width::Small,
            Grad3d | Cross3 | Compose3 => Width::Vec4,
            _ => Width::Scalar,
        }
    }

    /// Whether this node is a *source* (no computation of its own).
    pub fn is_source(&self) -> bool {
        matches!(self, FilterOp::Input { .. } | FilterOp::Const(_))
    }

    /// Approximate floating-point operations per mesh element, used by the
    /// device performance model — for the fused kernel and, through
    /// `Primitive::cost`, for every standalone kernel.
    pub fn flops_per_elem(&self) -> u64 {
        use FilterOp::*;
        match self {
            Input { .. } | Const(_) | Decompose(_) => 0,
            Bin(k) => k.flops(),
            Un(k) => k.flops(),
            Select | Compose3 => 1,
            Norm3 => 9,
            Dot3 => 5,
            Cross3 => 9,
            // Central differences along three axes with non-uniform spacing:
            // per axis 2 loads, 2 subs, 1 div; plus index arithmetic.
            Grad3d => 24,
        }
    }

    /// Stable kernel name used in generated source, profiling events and
    /// reports.
    pub fn kernel_name(&self) -> String {
        use FilterOp::*;
        match self {
            Input { name, .. } => format!("input_{name}"),
            Const(v) => format!("const_{v}"),
            // Fig 4 of the paper labels the multiply filter `mult`.
            Bin(BinKind::Mul) => "mult".into(),
            Bin(k) => k.name().into(),
            Un(k) => k.name().into(),
            Select => "select".into(),
            Compose3 => "vector".into(),
            Decompose(i) => format!("decompose_s{i}"),
            Grad3d => "grad3d".into(),
            Norm3 => "norm".into(),
            Dot3 => "dot".into(),
            Cross3 => "cross".into(),
        }
    }
}

impl std::fmt::Display for FilterOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.kernel_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ALL` lists every variant: the wildcard-free matches stop compiling
    /// when a variant is added, and once it is counted there the length and
    /// discriminant checks fail until `ALL` lists it too.
    #[test]
    fn all_is_exhaustive_and_names_are_unique() {
        let bin_variants = |k: BinKind| {
            use BinKind::*;
            match k {
                Add | Sub | Mul | Div | Min | Max | Lt | Gt | Le | Ge | Eq | Ne | Pow | Atan2
                | And | Or => 16,
            }
        };
        let un_variants = |k: UnKind| {
            use UnKind::*;
            match k {
                Neg | Sqrt | Abs | Sin | Cos | Tan | Exp | Log | Not => 9,
            }
        };
        for (i, k) in BinKind::ALL.into_iter().enumerate() {
            assert_eq!((k as usize, BinKind::ALL.len()), (i, bin_variants(k)));
        }
        for (i, k) in UnKind::ALL.into_iter().enumerate() {
            assert_eq!((k as usize, UnKind::ALL.len()), (i, un_variants(k)));
        }

        // `name` is what kernels are called, `kernel_name` what CSE keys on.
        let distinct = |mut v: Vec<String>| {
            let n = v.len();
            v.sort_unstable();
            v.dedup();
            v.len() == n
        };
        let non_scalar = ["select", "vector", "grad3d", "norm", "dot", "cross"].map(String::from);
        let bins = BinKind::ALL.iter().map(|k| k.name());
        let names = bins.chain(UnKind::ALL.iter().map(|k| k.name()));
        assert!(distinct(
            names.map(String::from).chain(non_scalar.clone()).collect()
        ));
        let labels = scalar_ops().map(|op| op.kernel_name());
        assert!(distinct(labels.chain(non_scalar).collect()));
    }

    fn scalar_ops() -> impl Iterator<Item = FilterOp> {
        let bins = BinKind::ALL.into_iter().map(FilterOp::from);
        bins.chain(UnKind::ALL.into_iter().map(FilterOp::from))
    }

    /// For every scalar kind, a node with `arity()` scalar inputs validates
    /// and yields `width()`; a vector on any port is a width error.
    #[test]
    fn arity_and_width_agree_with_validation_for_every_kind() {
        use crate::{NetworkBuilder, NetworkError};
        for op in scalar_ops() {
            let arity = op.arity().0;
            assert_eq!(op.width(), Width::Scalar, "{op}");
            for vector_port in [None].into_iter().chain((0..arity).map(Some)) {
                let mut b = NetworkBuilder::new();
                let u = b.input("u");
                let vec = b.compose3(u, u, u);
                let port = |p: usize| if Some(p) == vector_port { vec } else { u };
                let node = match arity {
                    1 => b.unary(op.clone(), port(0)),
                    _ => b.binary(op.clone(), port(0), port(1)),
                };
                let verdict = b.finish(node).validate();
                match vector_port {
                    None => assert_eq!(verdict, Ok(()), "{op}"),
                    Some(_) => assert!(
                        matches!(verdict, Err(NetworkError::WidthMismatch { .. })),
                        "{op} accepted a vector on port {vector_port:?}"
                    ),
                }
            }
        }
    }

    /// The `commutative` column is true — swapped operands give the same
    /// bits, signed zeros included (which is why `Min`/`Max` are not in it).
    #[test]
    fn commutative_kinds_commute_bit_for_bit() {
        let vals = [0.0f32, -0.0, 1.0, -2.5, f32::INFINITY, f32::MIN_POSITIVE];
        for k in BinKind::ALL.into_iter().filter(|k| k.commutative()) {
            for (a, b) in vals.iter().flat_map(|&a| vals.map(|b| (a, b))) {
                let (ab, ba) = (k.eval(a, b), k.eval(b, a));
                assert!(
                    ab.to_bits() == ba.to_bits() || ab.is_nan(),
                    "{k:?}({a}, {b})"
                );
            }
        }
        assert!(!BinKind::Min.commutative() && !BinKind::Max.commutative());
    }

    #[test]
    fn arity_matches_semantics() {
        assert_eq!(FilterOp::from(BinKind::Add).arity(), Arity(2));
        assert_eq!(FilterOp::from(UnKind::Sqrt).arity(), Arity(1));
        assert_eq!(FilterOp::Select.arity(), Arity(3));
        assert_eq!(FilterOp::Grad3d.arity(), Arity(5));
        assert_eq!(FilterOp::Const(1.0).arity(), Arity(0));
        assert_eq!(
            FilterOp::Input {
                name: "u".into(),
                small: false
            }
            .arity(),
            Arity(0)
        );
    }

    #[test]
    fn widths() {
        assert_eq!(FilterOp::Grad3d.width(), Width::Vec4);
        assert_eq!(FilterOp::Cross3.width(), Width::Vec4);
        assert_eq!(FilterOp::from(BinKind::Add).width(), Width::Scalar);
        assert_eq!(
            FilterOp::Input {
                name: "dims".into(),
                small: true
            }
            .width(),
            Width::Small
        );
        assert_eq!(Width::Vec4.units(), 4);
        assert_eq!(Width::Scalar.bytes_per_elem(), 4);
        assert_eq!(Width::Small.units(), 0);
    }

    #[test]
    fn sources_are_sources() {
        assert!(FilterOp::Const(0.5).is_source());
        assert!(FilterOp::Input {
            name: "u".into(),
            small: false
        }
        .is_source());
        assert!(!FilterOp::Decompose(1).is_source());
        assert!(!FilterOp::Grad3d.is_source());
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(FilterOp::from(BinKind::Mul).kernel_name(), "mult");
        assert_eq!(BinKind::Mul.name(), "mul");
        assert_eq!(FilterOp::from(BinKind::Eq).kernel_name(), "eq");
        assert_eq!(FilterOp::Decompose(2).kernel_name(), "decompose_s2");
        assert_eq!(FilterOp::Grad3d.kernel_name(), "grad3d");
    }
}
