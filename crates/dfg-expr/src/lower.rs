//! Lowering parsed programs to dataflow network specifications (§III-A).
//!
//! *"We traverse the parse tree to generate a dataflow network specification.
//! Filter invocations are given a generic name when encountered. Assignment
//! statements map generic names to those provided by user. … Using the list
//! of all filter invocations, common constants are reduced to single
//! instances of source filters. We also use a limited common sub-expression
//! elimination strategy to avoid computing unnecessary intermediate
//! results."*
//!
//! The limited CSE implemented here (via [`dfg_dataflow::NetworkBuilder`]):
//! constants are deduplicated by value, inputs by name, and `decompose`
//! filters by `(input, component)`. General filter invocations are *not*
//! merged and operands are not commuted — `0.5*(du[1]+dv[0])` and
//! `0.5*(dv[0]+du[1])` remain distinct filters, which is what yields the
//! paper's Table II kernel counts.

use std::collections::HashMap;

use dfg_dataflow::{BinKind, FilterOp, NetworkBuilder, NetworkError, NetworkSpec, NodeId, UnKind};

use crate::ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};

/// Errors produced while lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// A call to a function not in the primitive library.
    UnknownFunction {
        /// The unknown function name.
        name: String,
    },
    /// A call with the wrong number of arguments.
    WrongArity {
        /// Function name.
        name: String,
        /// Required argument count.
        expected: usize,
        /// Provided argument count.
        found: usize,
    },
    /// `grad3d`'s second argument must be an identifier naming the mesh
    /// dimension triple (e.g. `dims`).
    GradDimsNotIdent,
    /// The produced network failed validation (e.g. a width mismatch such as
    /// `sqrt` of a gradient).
    Invalid(NetworkError),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            LowerError::WrongArity {
                name,
                expected,
                found,
            } => write!(f, "`{name}` takes {expected} argument(s), found {found}"),
            LowerError::GradDimsNotIdent => {
                write!(f, "the second argument of `grad3d` must be an identifier")
            }
            LowerError::Invalid(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// The callable spellings of the one- and two-argument primitives: the
/// expression language's map from a function name to an operation of the
/// `dfg-dataflow` table, whose `arity()` is the argument count checked.
/// (Infix operators map through [`BinaryOp`]; `vector`, `grad3d`, `curl`
/// and `divergence` take their arguments specially, in `lower_call`.)
const CALLABLE_OPS: &[(&str, FilterOp)] = &[
    ("sqrt", FilterOp::Un(UnKind::Sqrt)),
    ("abs", FilterOp::Un(UnKind::Abs)),
    ("sin", FilterOp::Un(UnKind::Sin)),
    ("cos", FilterOp::Un(UnKind::Cos)),
    ("tan", FilterOp::Un(UnKind::Tan)),
    ("exp", FilterOp::Un(UnKind::Exp)),
    ("log", FilterOp::Un(UnKind::Log)),
    ("ln", FilterOp::Un(UnKind::Log)),
    ("not", FilterOp::Un(UnKind::Not)),
    ("min", FilterOp::Bin(BinKind::Min)),
    ("max", FilterOp::Bin(BinKind::Max)),
    ("pow", FilterOp::Bin(BinKind::Pow)),
    ("atan2", FilterOp::Bin(BinKind::Atan2)),
    ("and", FilterOp::Bin(BinKind::And)),
    ("or", FilterOp::Bin(BinKind::Or)),
    ("norm", FilterOp::Norm3),
    ("mag", FilterOp::Norm3),
    ("dot", FilterOp::Dot3),
    ("cross", FilterOp::Cross3),
];

struct Lowerer {
    builder: NetworkBuilder,
    env: HashMap<String, NodeId>,
}

impl Lowerer {
    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<NodeId, LowerError> {
        let node = self.lower_expr(&stmt.expr)?;
        self.builder.name(node, &stmt.name);
        self.env.insert(stmt.name.clone(), node);
        Ok(node)
    }

    fn lower_expr(&mut self, expr: &Expr) -> Result<NodeId, LowerError> {
        match expr {
            Expr::Num(n) => Ok(self.builder.constant(*n as f32)),
            Expr::Ident(name) => Ok(self.lower_ident(name)),
            Expr::Unary(UnaryOp::Neg, e) => {
                let a = self.lower_expr(e)?;
                Ok(self.builder.unary(UnKind::Neg, a))
            }
            Expr::Binary(op, a, b) => {
                let a = self.lower_expr(a)?;
                let b = self.lower_expr(b)?;
                let op = match op {
                    BinaryOp::Add => BinKind::Add,
                    BinaryOp::Sub => BinKind::Sub,
                    BinaryOp::Mul => BinKind::Mul,
                    BinaryOp::Div => BinKind::Div,
                    BinaryOp::Lt => BinKind::Lt,
                    BinaryOp::Gt => BinKind::Gt,
                    BinaryOp::Le => BinKind::Le,
                    BinaryOp::Ge => BinKind::Ge,
                    BinaryOp::Eq => BinKind::Eq,
                    BinaryOp::Ne => BinKind::Ne,
                };
                Ok(self.builder.binary(op, a, b))
            }
            Expr::Index(e, comp) => {
                let a = self.lower_expr(e)?;
                Ok(self.builder.decompose(a, *comp as u8))
            }
            Expr::If { cond, then, els } => {
                let c = self.lower_expr(cond)?;
                let t = self.lower_expr(then)?;
                let e = self.lower_expr(els)?;
                Ok(self.builder.select(c, t, e))
            }
            Expr::Call(name, args) => self.lower_call(name, args),
        }
    }

    fn lower_dims_arg(&mut self, arg: &Expr) -> Result<NodeId, LowerError> {
        match arg {
            Expr::Ident(d) => Ok(self.builder.small_input(d)),
            _ => Err(LowerError::GradDimsNotIdent),
        }
    }

    /// Shared expansion for `curl(f1, f2, f3, dims, x, y, z)` and
    /// `divergence(…)`: the three component gradients.
    fn lower_velocity_gradients(&mut self, args: &[Expr]) -> Result<[NodeId; 3], LowerError> {
        let f1 = self.lower_expr(&args[0])?;
        let f2 = self.lower_expr(&args[1])?;
        let f3 = self.lower_expr(&args[2])?;
        let dims = self.lower_dims_arg(&args[3])?;
        let x = self.lower_expr(&args[4])?;
        let y = self.lower_expr(&args[5])?;
        let z = self.lower_expr(&args[6])?;
        Ok([
            self.builder.grad3d(f1, dims, x, y, z),
            self.builder.grad3d(f2, dims, x, y, z),
            self.builder.grad3d(f3, dims, x, y, z),
        ])
    }

    fn lower_ident(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.env.get(name) {
            return id;
        }
        // Unknown names are host-provided input fields, as in the paper's
        // host interface: the host application supplies a NumPy array per
        // referenced field name.
        self.builder.input(name)
    }

    fn lower_call(&mut self, name: &str, args: &[Expr]) -> Result<NodeId, LowerError> {
        let check_arity = |expected: usize| -> Result<(), LowerError> {
            if args.len() != expected {
                Err(LowerError::WrongArity {
                    name: name.to_string(),
                    expected,
                    found: args.len(),
                })
            } else {
                Ok(())
            }
        };
        if let Some((_, op)) = CALLABLE_OPS.iter().find(|(spelling, _)| *spelling == name) {
            check_arity(op.arity().0)?;
            let a = self.lower_expr(&args[0])?;
            return Ok(match args.get(1) {
                None => self.builder.unary(op.clone(), a),
                Some(b) => {
                    let b = self.lower_expr(b)?;
                    self.builder.binary(op.clone(), a, b)
                }
            });
        }
        match name {
            "vector" => {
                check_arity(3)?;
                let a = self.lower_expr(&args[0])?;
                let b = self.lower_expr(&args[1])?;
                let c = self.lower_expr(&args[2])?;
                Ok(self.builder.compose3(a, b, c))
            }
            "grad3d" => {
                check_arity(5)?;
                let field = self.lower_expr(&args[0])?;
                let dims = self.lower_dims_arg(&args[1])?;
                let x = self.lower_expr(&args[2])?;
                let y = self.lower_expr(&args[3])?;
                let z = self.lower_expr(&args[4])?;
                Ok(self.builder.grad3d(field, dims, x, y, z))
            }
            // Compound (sugar) functions, expanded into the same primitive
            // networks a user could write by hand — VisIt's expression
            // language offers `curl` and `divergence` the same way.
            "curl" => {
                check_arity(7)?;
                let [du, dv, dw] = self.lower_velocity_gradients(args)?;
                // ∇×v per Equation 1 of the paper.
                let dw1 = self.builder.decompose(dw, 1);
                let dv2 = self.builder.decompose(dv, 2);
                let wx = self.builder.binary(BinKind::Sub, dw1, dv2);
                let du2 = self.builder.decompose(du, 2);
                let dw0 = self.builder.decompose(dw, 0);
                let wy = self.builder.binary(BinKind::Sub, du2, dw0);
                let dv0 = self.builder.decompose(dv, 0);
                let du1 = self.builder.decompose(du, 1);
                let wz = self.builder.binary(BinKind::Sub, dv0, du1);
                Ok(self.builder.compose3(wx, wy, wz))
            }
            "divergence" => {
                check_arity(7)?;
                let [du, dv, dw] = self.lower_velocity_gradients(args)?;
                let du0 = self.builder.decompose(du, 0);
                let dv1 = self.builder.decompose(dv, 1);
                let dw2 = self.builder.decompose(dw, 2);
                let s = self.builder.binary(BinKind::Add, du0, dv1);
                Ok(self.builder.binary(BinKind::Add, s, dw2))
            }
            _ => Err(LowerError::UnknownFunction {
                name: name.to_string(),
            }),
        }
    }
}

/// Lower a parsed program to a validated network specification. The last
/// statement's value is the network result.
pub fn lower(program: &Program) -> Result<NetworkSpec, LowerError> {
    let mut lw = Lowerer {
        builder: NetworkBuilder::new(),
        env: HashMap::new(),
    };
    let mut result = None;
    for stmt in &program.stmts {
        result = Some(lw.lower_stmt(stmt)?);
    }
    let spec = lw
        .builder
        .finish(result.expect("parser guarantees at least one statement"));
    spec.validate().map_err(LowerError::Invalid)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::workloads::{Q_CRITERION, VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE};
    use dfg_dataflow::FilterOp;

    fn compile(src: &str) -> NetworkSpec {
        lower(&parse(src).unwrap()).unwrap()
    }

    fn count_kind(spec: &NetworkSpec, pred: impl Fn(&FilterOp) -> bool) -> usize {
        spec.count_ops(pred)
    }

    fn count_scalar(spec: &NetworkSpec, kind: impl Into<FilterOp>) -> usize {
        let kind = kind.into();
        spec.count_ops(|op| *op == kind)
    }

    #[test]
    fn fig3a_velocity_magnitude_filter_counts() {
        let spec = compile(VELOCITY_MAGNITUDE);
        // 3 mults + 2 adds + 1 sqrt = 6 filters, 3 inputs, no constants.
        assert_eq!(count_kind(&spec, |op| !op.is_source()), 6);
        assert_eq!(
            count_kind(&spec, |op| matches!(op, FilterOp::Input { .. })),
            3
        );
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Const(_))), 0);
        assert_eq!(spec.node(spec.result).name.as_deref(), Some("v_mag"));
    }

    #[test]
    fn fig3b_vorticity_magnitude_filter_counts() {
        let spec = compile(VORTICITY_MAGNITUDE);
        let grads = count_kind(&spec, |op| matches!(op, FilterOp::Grad3d));
        let decomps = count_kind(&spec, |op| matches!(op, FilterOp::Decompose(_)));
        let other = count_kind(&spec, |op| {
            !op.is_source() && !matches!(op, FilterOp::Grad3d | FilterOp::Decompose(_))
        });
        assert_eq!(grads, 3);
        assert_eq!(decomps, 6);
        // 3 subs + 3 mults + 2 adds + 1 sqrt = 9.
        assert_eq!(other, 9);
        // Inputs: u,v,w,x,y,z + small dims.
        assert_eq!(
            count_kind(&spec, |op| matches!(op, FilterOp::Input { .. })),
            7
        );
    }

    #[test]
    fn fig3c_q_criterion_filter_counts() {
        // These counts are the basis of the paper's Table II row for Q-crit:
        // roundtrip executes the 57 non-decompose compute filters as kernels;
        // staged adds 9 decompose kernels and 1 constant-fill kernel => 67.
        let spec = compile(Q_CRITERION);
        let grads = count_kind(&spec, |op| matches!(op, FilterOp::Grad3d));
        let decomps = count_kind(&spec, |op| matches!(op, FilterOp::Decompose(_)));
        let consts = count_kind(&spec, |op| matches!(op, FilterOp::Const(_)));
        let compute = count_kind(&spec, |op| {
            !op.is_source() && !matches!(op, FilterOp::Decompose(_))
        });
        assert_eq!(grads, 3);
        assert_eq!(decomps, 9, "nine distinct velocity-gradient components");
        assert_eq!(consts, 1, "the shared 0.5 constant is deduplicated");
        assert_eq!(compute, 57, "57 device kernels under roundtrip");
    }

    #[test]
    fn assignment_names_are_reused_not_recomputed() {
        let spec = compile("a = u * u\nb = a + a\nc = a + b");
        // One mult, two adds: `a` lowered once.
        assert_eq!(count_scalar(&spec, BinKind::Mul), 1);
        assert_eq!(count_scalar(&spec, BinKind::Add), 2);
    }

    #[test]
    fn shadowing_rebinds_names() {
        let spec = compile("a = u + u\na = a * a\nr = a");
        // The second statement consumes the first `a`.
        assert_eq!(count_scalar(&spec, BinKind::Mul), 1);
        assert!(matches!(
            spec.node(spec.result).op,
            FilterOp::Bin(BinKind::Mul)
        ));
    }

    #[test]
    fn constants_are_shared() {
        let spec = compile("a = u * 0.5\nb = v * 0.5\nr = a + b");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Const(_))), 1);
    }

    #[test]
    fn conditional_lowered_to_select() {
        let spec = compile("a = if (u > 10) then (c * c) else (-c * c)");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Select)), 1);
        assert_eq!(count_scalar(&spec, BinKind::Gt), 1);
        assert_eq!(count_scalar(&spec, UnKind::Neg), 1);
    }

    #[test]
    fn unknown_function_is_rejected() {
        // The last three are table names of infix/prefix operators: the
        // call table is a list of spellings, not every operation's `name()`.
        for src in ["frobnicate(u)", "add(u, v)", "lt(u, v)", "neg(u)"] {
            let p = parse(&format!("a = {src}")).unwrap();
            assert!(
                matches!(lower(&p), Err(LowerError::UnknownFunction { .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn every_callable_spelling_lowers_to_its_op_at_its_arity() {
        for (spelling, op) in CALLABLE_OPS {
            let arity = op.arity().0;
            let arg = match op {
                FilterOp::Norm3 | FilterOp::Dot3 | FilterOp::Cross3 => "vector(u, v, w)",
                _ => "u",
            };
            let call = |n: usize| format!("r = {spelling}({})", vec![arg; n].join(", "));
            let spec = compile(&call(arity));
            assert_eq!(&spec.node(spec.result).op, op, "{spelling}");
            for wrong in (1..=arity + 1).filter(|&n| n != arity) {
                assert!(
                    matches!(
                        lower(&parse(&call(wrong)).unwrap()),
                        Err(LowerError::WrongArity { expected, found, .. })
                            if (expected, found) == (arity, wrong)
                    ),
                    "{spelling} with {wrong} argument(s)"
                );
            }
        }
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let p = parse("a = sqrt(u, v)").unwrap();
        assert!(matches!(
            lower(&p),
            Err(LowerError::WrongArity {
                expected: 1,
                found: 2,
                ..
            })
        ));
        let p = parse("a = grad3d(u)").unwrap();
        assert!(matches!(lower(&p), Err(LowerError::WrongArity { .. })));
    }

    #[test]
    fn grad_dims_must_be_ident() {
        let p = parse("a = grad3d(u, 3, x, y, z)").unwrap();
        assert!(matches!(lower(&p), Err(LowerError::GradDimsNotIdent)));
    }

    #[test]
    fn width_errors_surface_as_invalid() {
        let p = parse("a = sqrt(grad3d(u, dims, x, y, z))").unwrap();
        assert!(matches!(lower(&p), Err(LowerError::Invalid(_))));
    }

    #[test]
    fn math_functions_lower() {
        let spec = compile(
            "a = sin(u) + cos(v) * tan(w)\nb = exp(a) - log(abs(a) + 1)\nr = pow(b, 2) + atan2(u, v)",
        );
        assert!(spec.validate().is_ok());
        assert_eq!(count_scalar(&spec, UnKind::Sin), 1);
        assert_eq!(count_scalar(&spec, BinKind::Pow), 1);
        assert_eq!(count_scalar(&spec, BinKind::Atan2), 1);
    }

    #[test]
    fn vector_compose_lowers() {
        let spec = compile("r = norm(vector(u, v, w))");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Compose3)), 1);
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Norm3)), 1);
    }

    #[test]
    fn curl_sugar_expands_to_vorticity_network() {
        // norm(curl(...)) must build the same filter census as Figure 3B.
        let spec = compile("w_mag = norm(curl(u, v, w, dims, x, y, z))");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Grad3d)), 3);
        assert_eq!(
            count_kind(&spec, |op| matches!(op, FilterOp::Decompose(_))),
            6
        );
        assert_eq!(count_scalar(&spec, BinKind::Sub), 3);
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Compose3)), 1);
    }

    #[test]
    fn divergence_sugar_expands() {
        let spec = compile("d = divergence(u, v, w, dims, x, y, z)");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Grad3d)), 3);
        assert_eq!(
            count_kind(&spec, |op| matches!(op, FilterOp::Decompose(_))),
            3
        );
        assert_eq!(count_scalar(&spec, BinKind::Add), 2);
    }

    #[test]
    fn curl_checks_arity_and_dims() {
        let p = parse("r = curl(u, v, w)").unwrap();
        assert!(matches!(
            lower(&p),
            Err(LowerError::WrongArity { expected: 7, .. })
        ));
        let p = parse("r = curl(u, v, w, 3, x, y, z)").unwrap();
        assert!(matches!(lower(&p), Err(LowerError::GradDimsNotIdent)));
    }

    #[test]
    fn norm_of_gradient_is_valid() {
        let spec = compile("a = norm(grad3d(u, dims, x, y, z))");
        assert_eq!(count_kind(&spec, |op| matches!(op, FilterOp::Norm3)), 1);
    }
}
