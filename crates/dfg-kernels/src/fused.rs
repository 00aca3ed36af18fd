//! The dynamic fused-kernel generator (§III-C.3).
//!
//! *"A dynamic kernel generator employs kernel fusion to construct and
//! execute a single OpenCL kernel that implements all of the operations. …
//! the fused kernel stores the intermediate results computed using the
//! derived field primitives in local device registers."*
//!
//! [`fuse`] compiles a dataflow network into a [`FusedProgram`]: a linear
//! register program with
//!
//! * per-element function calls for simple primitives,
//! * direct access to device global-memory arrays for `grad3d`,
//! * source-level insertion of constants,
//! * `float4` registers for multi-valued results,
//! * source-level component selection for `decompose` (`val.s1`),
//!
//! — the five generator features the paper enumerates. Registers are
//! allocated with liveness-based reuse; exceeding [`MAX_REGS`] is reported
//! as [`FuseError::RegisterPressure`], the analogue of the paper's concern
//! that the generated kernel "avoid spilling results intended for local
//! registers into the global memory".
//!
//! [`FusedKernel`] executes the program as one device kernel launch; it also
//! renders the equivalent OpenCL C source ([`FusedProgram::generated_source`])
//! for inspection, as the paper's generator emits real OpenCL source.
//!
//! # Execution schedule
//!
//! The program says *what* is computed; how it is laid over the host's
//! cores and caches is the executor's business and no part of the program.
//! [`FusedKernel::new`] lowers the instructions once to the **step list**
//! the executor runs (see `Lowering`): a step is an instruction with its
//! registers resolved to where the values are — a bank row, the span of an
//! input array (a `LoadInput` is a binding, not a copy), a lane of a vector
//! value (likewise a `Decompose`), or the output plane itself (the step
//! that makes a root nothing else reads stores it, there is no final
//! copy) — and a `Mul` read only by one `Add` is that `Add`'s mul-add step,
//! the product rounded before the sum exactly as the two instructions
//! rounded it. No step changes a bit of any value.
//!
//! A launch is cut into tasks of [`dfg_exec::effective_chunk`] cells. A task
//! allocates one register **bank** — as many rows of `chunk_width(rows)`
//! lanes as the steps have values live at once, four consecutive rows
//! (`.s0`–`.s3`) per vector value below the scalar rows — and walks its
//! cells a chunk at a time, running each step as one slice loop: the match
//! on the step (and on its [`BinKind`]/[`UnKind`]) happens once per chunk,
//! outside the loop, and the loops are plain zips the compiler vectorizes.
//! The chunk width comes from the bank's footprint, so the rows every
//! step re-reads stay cache-resident beside the streamed inputs.
//!
//! Outputs are **planar**: root `o` of a multi-root program owns the lanes
//! `[lane_offset(o)·n, (lane_offset(o) + w(o))·n)` of the one output buffer
//! (a `Vec4` root keeps the per-cell `float4` layout inside its plane), so
//! the host splits a download into fields by contiguous range.

use std::collections::HashMap;

use dfg_dataflow::{
    select, BinKind, FilterOp, NetworkSpec, NodeId, Schedule, ScheduleError, UnKind, Width,
};
use dfg_ocl::{DeviceKernel, KernelArgs, KernelCost};
use rayon::prelude::*;

use crate::grad::{gradient_span, lanes3, Dims3};

/// Maximum registers the generator may allocate before it reports register
/// pressure.
pub const MAX_REGS: usize = 250;

/// Fusion failures.
#[derive(Debug, Clone, PartialEq)]
pub enum FuseError {
    /// The network is invalid or cyclic.
    Schedule(ScheduleError),
    /// `grad3d` applied to a *computed* value: a single per-element kernel
    /// cannot see neighbours of values that only exist in registers. (The
    /// staged strategy handles such networks by materializing the operand.)
    GradientOfComputedValue {
        /// The gradient node.
        node: NodeId,
    },
    /// More simultaneously-live intermediates than [`MAX_REGS`].
    RegisterPressure {
        /// Registers the program would need.
        needed: usize,
    },
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::Schedule(e) => write!(f, "cannot schedule network: {e}"),
            FuseError::GradientOfComputedValue { node } => write!(
                f,
                "cannot fuse: grad3d at {node} reads a computed value; \
                 use the staged strategy"
            ),
            FuseError::RegisterPressure { needed } => {
                write!(f, "fused kernel needs {needed} registers (max {MAX_REGS})")
            }
        }
    }
}

impl std::error::Error for FuseError {}

/// One global-memory input of the fused kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSlot {
    /// Field name the host must bind.
    pub name: String,
    /// Whether this is a small (non-problem-sized) buffer such as `dims`.
    pub small: bool,
}

/// Register index.
type Reg = u8;

/// One instruction of the fused program. Registers hold `float4`; scalar
/// values live in lane 0.
#[derive(Debug, Clone, PartialEq)]
enum RegOp {
    /// Load a scalar input element into a register.
    LoadInput { slot: u16, reg: Reg },
    /// Materialize a constant (source-level insertion).
    Const { value: f32, reg: Reg },
    /// Binary scalar op.
    Bin {
        op: BinKind,
        a: Reg,
        b: Reg,
        out: Reg,
    },
    /// Unary scalar op.
    Un { op: UnKind, a: Reg, out: Reg },
    /// Conditional select.
    Select { c: Reg, a: Reg, b: Reg, out: Reg },
    /// Pack three scalar registers into a vector register.
    Compose3 { a: Reg, b: Reg, c: Reg, out: Reg },
    /// Vector component extract (source-level `.sN`).
    Decompose { a: Reg, comp: u8, out: Reg },
    /// Gradient with direct global-memory access.
    Grad3d {
        field: u16,
        dims: u16,
        x: u16,
        y: u16,
        z: u16,
        out: Reg,
    },
    /// Norm of a vector register.
    Norm3 { a: Reg, out: Reg },
    /// Dot product of vector registers.
    Dot3 { a: Reg, b: Reg, out: Reg },
    /// Cross product of vector registers.
    Cross3 { a: Reg, b: Reg, out: Reg },
}

/// One output of a fused program.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSlot {
    reg: Reg,
    /// Value width of this output.
    pub width: Width,
    /// Plane offset of this output, in lanes per cell: the summed widths of
    /// the outputs before it. Over `n` cells the output's plane starts at
    /// lane `lane_offset * n` of the output buffer.
    pub lane_offset: usize,
    /// Display name (the root's assignment name, or `out<i>`).
    pub name: String,
}

/// A compiled fused kernel program.
///
/// Multi-output programs write all outputs into one buffer of
/// `n ·` [`FusedProgram::lanes_per_elem`] lanes, one contiguous plane per
/// output in requested order: output `o` occupies the `w(o) · n` lanes from
/// `lane_offset(o) · n` (see [`OutputSlot::lane_offset`]). A single-output
/// program's buffer therefore *is* its field, and the host splits a
/// multi-output download by range.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    ops: Vec<RegOp>,
    /// Total registers the program uses (scalar + vector banks).
    pub num_regs: usize,
    /// Scalar registers used.
    pub num_sregs: usize,
    /// Vector registers used.
    pub num_vregs: usize,
    /// Global-memory inputs, in binding order.
    pub inputs: Vec<InputSlot>,
    /// Width of the kernel's primary (first) output.
    pub output_width: Width,
    /// All outputs, in requested order.
    pub outputs: Vec<OutputSlot>,
    /// Output lanes per element (sum of output widths).
    pub lanes_per_elem: usize,
    /// Total floating-point operations per element (for the cost model).
    pub flops_per_elem: u64,
    /// Scalar-equivalent global-memory lanes read per element.
    pub read_lanes_per_elem: u64,
}

struct Fuser<'a> {
    spec: &'a NetworkSpec,
    ops: Vec<RegOp>,
    /// Input node -> slot index.
    slots: HashMap<NodeId, u16>,
    input_list: Vec<InputSlot>,
    /// Node -> register holding its value.
    reg_of: HashMap<NodeId, Reg>,
    /// Remaining register-reads per node (for register reuse).
    reg_uses_left: HashMap<NodeId, u32>,
    /// Scalar and vector registers are allocated independently (the
    /// generated source names them `rN` / `vN`, and the executor gives them
    /// separate rows of its bank).
    free_sregs: Vec<Reg>,
    next_sreg: usize,
    hw_sregs: usize,
    free_vregs: Vec<Reg>,
    next_vreg: usize,
    hw_vregs: usize,
}

impl<'a> Fuser<'a> {
    fn slot_for(&mut self, id: NodeId) -> u16 {
        if let Some(&s) = self.slots.get(&id) {
            return s;
        }
        let FilterOp::Input { name, small } = &self.spec.node(id).op else {
            unreachable!("slot_for on non-input")
        };
        let s = self.input_list.len() as u16;
        self.input_list.push(InputSlot {
            name: name.clone(),
            small: *small,
        });
        self.slots.insert(id, s);
        s
    }

    fn alloc_sreg(&mut self) -> Result<Reg, FuseError> {
        if let Some(r) = self.free_sregs.pop() {
            return Ok(r);
        }
        if self.next_sreg >= MAX_REGS {
            return Err(FuseError::RegisterPressure {
                needed: self.next_sreg + 1,
            });
        }
        let r = self.next_sreg as Reg;
        self.next_sreg += 1;
        self.hw_sregs = self.hw_sregs.max(self.next_sreg);
        Ok(r)
    }

    fn alloc_vreg(&mut self) -> Result<Reg, FuseError> {
        if let Some(r) = self.free_vregs.pop() {
            return Ok(r);
        }
        if self.next_vreg >= MAX_REGS {
            return Err(FuseError::RegisterPressure {
                needed: self.next_vreg + 1,
            });
        }
        let r = self.next_vreg as Reg;
        self.next_vreg += 1;
        self.hw_vregs = self.hw_vregs.max(self.next_vreg);
        Ok(r)
    }

    fn alloc_for(&mut self, width: Width) -> Result<Reg, FuseError> {
        match width {
            Width::Vec4 => self.alloc_vreg(),
            _ => self.alloc_sreg(),
        }
    }

    /// Register holding `id`'s value, loading inputs / materializing
    /// constants lazily at first use.
    fn reg_for(&mut self, id: NodeId) -> Result<Reg, FuseError> {
        if let Some(&r) = self.reg_of.get(&id) {
            return Ok(r);
        }
        match &self.spec.node(id).op {
            FilterOp::Input { .. } => {
                let slot = self.slot_for(id);
                let reg = self.alloc_sreg()?;
                self.ops.push(RegOp::LoadInput { slot, reg });
                self.reg_of.insert(id, reg);
                Ok(reg)
            }
            FilterOp::Const(v) => {
                let reg = self.alloc_sreg()?;
                self.ops.push(RegOp::Const { value: *v, reg });
                self.reg_of.insert(id, reg);
                Ok(reg)
            }
            other => unreachable!(
                "operand {id} ({other}) consumed before production — schedule violated"
            ),
        }
    }

    /// Consume one register-read of `id`, freeing its register (into the
    /// bank matching its width) when dead.
    fn consume(&mut self, id: NodeId) {
        let uses = self.reg_uses_left.get_mut(&id).expect("tracked operand");
        *uses -= 1;
        if *uses == 0 {
            if let Some(r) = self.reg_of.remove(&id) {
                if self.spec.width(id) == Width::Vec4 {
                    self.free_vregs.push(r);
                } else {
                    self.free_sregs.push(r);
                }
            }
        }
    }
}

/// Does `consumer_op` read its operands through registers? Gradient
/// operands are read directly from global memory instead.
fn is_register_read(consumer_op: &FilterOp) -> bool {
    !matches!(consumer_op, FilterOp::Grad3d)
}

/// Lanes one element of `width` occupies in an output plane.
fn lanes_of(width: Width) -> usize {
    match width {
        Width::Vec4 => 4,
        _ => 1,
    }
}

/// Compile a network into a fused single-kernel program producing the
/// network result.
pub fn fuse(spec: &NetworkSpec) -> Result<FusedProgram, FuseError> {
    fuse_roots(spec, &[spec.result])
}

/// Compile a network into one fused kernel producing every root in `roots`
/// (multi-output fusion: shared subexpressions are computed once).
pub fn fuse_roots(spec: &NetworkSpec, roots: &[NodeId]) -> Result<FusedProgram, FuseError> {
    let sched = Schedule::for_roots(spec, roots).map_err(FuseError::Schedule)?;

    // Count register reads per node (ports of non-gradient consumers), so
    // registers are freed after their last use. Every root gets a sentinel
    // use so its register survives to the store.
    let mut reg_uses: HashMap<NodeId, u32> = HashMap::new();
    for &id in &sched.order {
        let node = spec.node(id);
        if is_register_read(&node.op) {
            for &input in &node.inputs {
                *reg_uses.entry(input).or_insert(0) += 1;
            }
        }
    }
    for &root in roots {
        *reg_uses.entry(root).or_insert(0) += 1;
    }

    let mut fz = Fuser {
        spec,
        ops: Vec::new(),
        slots: HashMap::new(),
        input_list: Vec::new(),
        reg_of: HashMap::new(),
        reg_uses_left: reg_uses,
        free_sregs: Vec::new(),
        next_sreg: 0,
        hw_sregs: 0,
        free_vregs: Vec::new(),
        next_vreg: 0,
        hw_vregs: 0,
    };

    let mut flops: u64 = 0;
    let mut read_lanes: u64 = 0;

    for &id in &sched.order {
        let node = spec.node(id);
        flops += node.op.flops_per_elem();
        match &node.op {
            // Sources are handled lazily by reg_for / slot_for.
            FilterOp::Input { .. } | FilterOp::Const(_) => {}
            FilterOp::Grad3d => {
                // All five operands must be global arrays (host inputs).
                for &input in &node.inputs {
                    if !matches!(spec.node(input).op, FilterOp::Input { .. }) {
                        return Err(FuseError::GradientOfComputedValue { node: id });
                    }
                }
                let field = fz.slot_for(node.inputs[0]);
                let dims = fz.slot_for(node.inputs[1]);
                let x = fz.slot_for(node.inputs[2]);
                let y = fz.slot_for(node.inputs[3]);
                let z = fz.slot_for(node.inputs[4]);
                let out = fz.alloc_vreg()?;
                fz.ops.push(RegOp::Grad3d {
                    field,
                    dims,
                    x,
                    y,
                    z,
                    out,
                });
                fz.reg_of.insert(id, out);
                read_lanes += 12;
            }
            op => {
                let operands: Vec<Reg> = node
                    .inputs
                    .iter()
                    .map(|&i| fz.reg_for(i))
                    .collect::<Result<_, _>>()?;
                let out = fz.alloc_for(node.op.width())?;
                let (a, arg) = (operands[0], |port: usize| operands[port]);
                let regop = match *op {
                    FilterOp::Bin(op) => RegOp::Bin {
                        op,
                        a,
                        b: arg(1),
                        out,
                    },
                    FilterOp::Un(op) => RegOp::Un { op, a, out },
                    FilterOp::Select => RegOp::Select {
                        c: a,
                        a: arg(1),
                        b: arg(2),
                        out,
                    },
                    FilterOp::Compose3 => RegOp::Compose3 {
                        a,
                        b: arg(1),
                        c: arg(2),
                        out,
                    },
                    FilterOp::Decompose(comp) => RegOp::Decompose { a, comp, out },
                    FilterOp::Norm3 => RegOp::Norm3 { a, out },
                    FilterOp::Dot3 => RegOp::Dot3 { a, b: arg(1), out },
                    FilterOp::Cross3 => RegOp::Cross3 { a, b: arg(1), out },
                    FilterOp::Input { .. } | FilterOp::Const(_) | FilterOp::Grad3d => {
                        unreachable!("sources and gradients are handled above")
                    }
                };
                fz.ops.push(regop);
                fz.reg_of.insert(id, out);
                for &i in &node.inputs {
                    fz.consume(i);
                }
            }
        }
    }

    // Each scalar input slot is read once per element by its load.
    read_lanes += fz.input_list.iter().filter(|s| !s.small).count() as u64;

    // A root that is a bare source (`r = u`) emits no compute op;
    // materialize the source into a register for the final store.
    let mut outputs = Vec::with_capacity(roots.len());
    let mut lane_offset = 0usize;
    for (i, &root) in roots.iter().enumerate() {
        let reg = match fz.reg_of.get(&root) {
            Some(&r) => r,
            None => fz.reg_for(root)?,
        };
        let width = spec.width(root);
        let name = spec
            .node(root)
            .name
            .clone()
            .unwrap_or_else(|| format!("out{i}"));
        outputs.push(OutputSlot {
            reg,
            width,
            lane_offset,
            name,
        });
        lane_offset += lanes_of(width);
    }

    Ok(FusedProgram {
        ops: fz.ops,
        num_regs: fz.hw_sregs + fz.hw_vregs,
        num_sregs: fz.hw_sregs,
        num_vregs: fz.hw_vregs,
        inputs: fz.input_list,
        output_width: outputs[0].width,
        outputs,
        lanes_per_elem: lane_offset,
        flops_per_elem: flops,
        read_lanes_per_elem: read_lanes,
    })
}

impl FusedProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty (never true for valid networks).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Render the equivalent OpenCL C kernel source, in the spirit of the
    /// paper's dynamic kernel generator output.
    pub fn generated_source(&self, kernel_name: &str) -> String {
        let mut src = String::new();
        if self.ops.iter().any(|op| matches!(op, RegOp::Grad3d { .. })) {
            src.push_str(crate::primitives::GRAD3D_OPENCL_SOURCE);
            src.push_str("\n\n");
        }
        src.push_str(&format!("__kernel void {kernel_name}(\n"));
        for slot in &self.inputs {
            let ty = if slot.small { "int" } else { "float" };
            src.push_str(&format!("    __global const {ty} *{},\n", slot.name));
        }
        let single = self.outputs.len() == 1;
        for (i, out) in self.outputs.iter().enumerate() {
            let ty = if out.width == Width::Vec4 {
                "float4"
            } else {
                "float"
            };
            let name = if single {
                "out".to_string()
            } else {
                format!("out_{}", out.name)
            };
            let sep = if i + 1 == self.outputs.len() {
                ")"
            } else {
                ","
            };
            src.push_str(&format!("    __global {ty} *{name}{sep}\n"));
        }
        src.push_str("{\n    int idx = get_global_id(0);\n");
        // Declare each register once (the allocator reuses registers, so
        // per-assignment declarations would redeclare). Scalar assignments
        // use `rN`, vector assignments `vN` — distinct C variables even
        // when they share a register slot.
        let mut scalar_regs = std::collections::BTreeSet::new();
        let mut vector_regs = std::collections::BTreeSet::new();
        for op in &self.ops {
            match op {
                RegOp::LoadInput { reg, .. } | RegOp::Const { reg, .. } => {
                    scalar_regs.insert(*reg);
                }
                RegOp::Bin { out, .. }
                | RegOp::Un { out, .. }
                | RegOp::Select { out, .. }
                | RegOp::Decompose { out, .. }
                | RegOp::Norm3 { out, .. }
                | RegOp::Dot3 { out, .. } => {
                    scalar_regs.insert(*out);
                }
                RegOp::Grad3d { out, .. }
                | RegOp::Cross3 { out, .. }
                | RegOp::Compose3 { out, .. } => {
                    vector_regs.insert(*out);
                }
            }
        }
        for r in &scalar_regs {
            src.push_str(&format!("    float r{r};\n"));
        }
        for r in &vector_regs {
            src.push_str(&format!("    float4 v{r};\n"));
        }
        for op in &self.ops {
            let line = match op {
                RegOp::LoadInput { slot, reg } => {
                    format!("r{reg} = {}[idx];", self.inputs[*slot as usize].name)
                }
                RegOp::Const { value, reg } => format!("r{reg} = {value:?}f;"),
                RegOp::Bin { op, a, b, out } => format!(
                    "r{out} = {};",
                    op.source_expr(&format!("r{a}"), &format!("r{b}"))
                ),
                RegOp::Un { op, a, out } => {
                    format!("r{out} = {};", op.source_expr(&format!("r{a}")))
                }
                RegOp::Select { c, a, b, out } => {
                    format!("r{out} = (r{c} != 0.0f) ? r{a} : r{b};")
                }
                RegOp::Compose3 { a, b, c, out } => {
                    format!("v{out} = (float4)(r{a}, r{b}, r{c}, 0.0f);")
                }
                RegOp::Decompose { a, comp, out } => {
                    format!("r{out} = v{a}.s{comp};")
                }
                RegOp::Grad3d {
                    field,
                    dims,
                    x,
                    y,
                    z,
                    out,
                } => format!(
                    "v{out} = dfg_grad3d({}, {}, {}, {}, {}, idx);",
                    self.inputs[*field as usize].name,
                    self.inputs[*dims as usize].name,
                    self.inputs[*x as usize].name,
                    self.inputs[*y as usize].name,
                    self.inputs[*z as usize].name,
                ),
                RegOp::Norm3 { a, out } => {
                    format!("r{out} = sqrt(v{a}.s0*v{a}.s0 + v{a}.s1*v{a}.s1 + v{a}.s2*v{a}.s2);")
                }
                RegOp::Dot3 { a, b, out } => {
                    format!("r{out} = v{a}.s0*v{b}.s0 + v{a}.s1*v{b}.s1 + v{a}.s2*v{b}.s2;")
                }
                RegOp::Cross3 { a, b, out } => format!(
                    "v{out} = (float4)(v{a}.s1*v{b}.s2 - v{a}.s2*v{b}.s1, \
                     v{a}.s2*v{b}.s0 - v{a}.s0*v{b}.s2, \
                     v{a}.s0*v{b}.s1 - v{a}.s1*v{b}.s0, 0.0f);"
                ),
            };
            src.push_str("    ");
            src.push_str(&line);
            src.push('\n');
        }
        let single = self.outputs.len() == 1;
        for out in &self.outputs {
            let name = if single {
                "out".to_string()
            } else {
                format!("out_{}", out.name)
            };
            src.push_str(&format!("    {name}[idx] = r{};\n", out.reg));
        }
        src.push_str("}\n");
        src
    }
}

/// Where a step reads one row-shaped operand.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// A bank row.
    Row(usize),
    /// The chunk's span of a global input array: a load that is not a copy.
    Input(u16),
}

/// Where a step writes its row-shaped result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dst {
    /// A bank row.
    Row(usize),
    /// The chunk's span of the task's piece of an output plane: a store
    /// that is not a copy.
    Out(usize),
}

/// One step of the list the executor runs: a [`RegOp`] with its registers
/// resolved to where the values actually are. Vector values always live in
/// four consecutive bank rows, named by the first.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    Fill {
        value: f32,
        dst: Dst,
    },
    Copy {
        src: Src,
        dst: Dst,
    },
    Bin {
        op: BinKind,
        a: Src,
        b: Src,
        dst: Dst,
    },
    /// Two instructions in one pass: `outer(inner(a, b), c)` — or
    /// `outer(c, inner(a, b))` when the inner value was the outer's right
    /// operand — with the inner result rounded to `f32` before the outer
    /// operation exactly as the two instructions rounded it (`a*b + c` is
    /// never `f32::mul_add`). Both kinds are among [`CHAINED`].
    Chain {
        inner: BinKind,
        outer: BinKind,
        a: Src,
        b: Src,
        c: Src,
        inner_first: bool,
        dst: Dst,
    },
    Un {
        op: UnKind,
        a: Src,
        dst: Dst,
    },
    Select {
        c: Src,
        a: Src,
        b: Src,
        dst: Dst,
    },
    Compose3 {
        lanes: [Src; 3],
        out: usize,
    },
    Grad3d {
        field: u16,
        dims: u16,
        x: u16,
        y: u16,
        z: u16,
        out: usize,
    },
    Norm3 {
        a: usize,
        dst: Dst,
    },
    Dot3 {
        a: usize,
        b: usize,
        dst: Dst,
    },
    Cross3 {
        a: usize,
        b: usize,
        out: usize,
    },
    /// Interleave a vector value's rows into a `float4` output plane.
    StoreVec4 {
        a: usize,
        output: usize,
    },
}

/// The kinds a [`Step::Chain`] is made of: the one-cycle arithmetic whose
/// loops are bound by loads and stores, so that an intermediate row skipped
/// is time saved.
const CHAINED: [BinKind; 3] = [BinKind::Add, BinKind::Sub, BinKind::Mul];

/// One mention of a value in a [`Step`], as [`Step::visit`] reports it.
/// While a program is being lowered the numbers inside are value ids; the
/// last pass of the lowering rewrites them to bank rows.
enum Mention<'a> {
    Read(&'a mut Src),
    Write(&'a mut Dst),
    /// First of the four ids/rows of a vector value that is read.
    ReadVec(&'a mut usize),
    /// First of the four ids/rows of a vector value that is written.
    WriteVec(&'a mut usize),
}

impl Step {
    /// Call `f` on every value the step mentions, writes first.
    fn visit(&mut self, f: &mut dyn FnMut(Mention<'_>)) {
        use Mention::{Read, ReadVec, Write, WriteVec};
        match self {
            Step::Fill { dst, .. } => f(Write(dst)),
            Step::Copy { src, dst } => {
                f(Write(dst));
                f(Read(src));
            }
            Step::Bin { a, b, dst, .. } => {
                f(Write(dst));
                f(Read(a));
                f(Read(b));
            }
            Step::Chain { a, b, c, dst, .. } | Step::Select { c, a, b, dst } => {
                f(Write(dst));
                f(Read(a));
                f(Read(b));
                f(Read(c));
            }
            Step::Un { a, dst, .. } => {
                f(Write(dst));
                f(Read(a));
            }
            Step::Compose3 { lanes, out } => {
                f(WriteVec(out));
                lanes.iter_mut().for_each(|lane| f(Read(lane)));
            }
            Step::Grad3d { out, .. } => f(WriteVec(out)),
            Step::Norm3 { a, dst } => {
                f(Write(dst));
                f(ReadVec(a));
            }
            Step::Dot3 { a, b, dst } => {
                f(Write(dst));
                f(ReadVec(a));
                f(ReadVec(b));
            }
            Step::Cross3 { a, b, out } => {
                f(WriteVec(out));
                f(ReadVec(a));
                f(ReadVec(b));
            }
            Step::StoreVec4 { a, .. } => f(ReadVec(a)),
        }
    }
}

/// Lowers a [`FusedProgram`]'s instructions to the [`Step`] list. The
/// program stays the definition of *what* is computed — and of the
/// generated source, the cost model and the register counts; the steps say
/// where each value is read from and written to when the host's cores run
/// it, and no step changes a bit of any value.
///
/// The instructions are first read as single-assignment code: every write
/// of a register makes a new value with its own id (a vector value takes
/// four consecutive ids, one per lane), and a read resolves to the value
/// its register held *at that instruction* — so nothing below has to ask
/// whether a register was reallocated in between. Then:
///
/// * a `LoadInput` makes no value and no step: reads of its register
///   resolve to the input span itself; likewise a `Decompose` resolves to
///   the lane of the vector value it selects;
/// * a scalar root that no step reads is computed straight into its output
///   plane; any other root is copied there at the end;
/// * an `Add`, `Sub` or `Mul` whose result has exactly one reader, itself
///   one of those three, becomes part of that reader's [`Step::Chain`]
///   (a `Mul` read by an `Add`: the mul-add step);
/// * bank rows are handed out anew by liveness over the *steps* (a step's
///   destination is allocated before its operands are released, so it never
///   aliases one), vector values in aligned groups of four rows below the
///   scalar rows.
struct Lowering {
    steps: Vec<Step>,
    /// Ids handed out so far; `lanes[id]` is 4 for the first id of a vector
    /// value, 1 for a scalar value and 0 for a vector's other three ids.
    lanes: Vec<usize>,
    /// The step that makes each value (indexed by its first id).
    def: Vec<usize>,
}

impl Lowering {
    fn value(&mut self, lanes: usize) -> usize {
        let id = self.lanes.len();
        self.lanes.push(lanes);
        self.lanes.resize(id + lanes, 0);
        self.def.resize(id + lanes, self.steps.len());
        id
    }

    /// The first id of the value `id` belongs to.
    fn base(&self, id: usize) -> usize {
        (0..=id)
            .rev()
            .find(|&b| self.lanes[b] > 0)
            .expect("id 0 starts a value")
    }

    fn run(prog: &FusedProgram) -> (Vec<Step>, usize) {
        let mut lw = Lowering {
            steps: Vec::with_capacity(prog.ops.len()),
            lanes: Vec::new(),
            def: Vec::new(),
        };
        // What each register holds now.
        let mut sreg = Regs([None; MAX_REGS + 1]);
        let mut vreg = Regs([None; MAX_REGS + 1]);

        for op in &prog.ops {
            let step = match *op {
                RegOp::LoadInput { slot, reg } => {
                    sreg.set(reg, Src::Input(slot));
                    continue;
                }
                RegOp::Decompose { a, comp, out } => {
                    sreg.set(out, Src::Row(vreg.get(a) + comp as usize));
                    continue;
                }
                RegOp::Const { value, reg } => {
                    let dst = lw.scalar(&mut sreg, reg);
                    Step::Fill { value, dst }
                }
                RegOp::Bin { op, a, b, out } => {
                    let (a, b) = (sreg.get(a), sreg.get(b));
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Bin { op, a, b, dst }
                }
                RegOp::Un { op, a, out } => {
                    let a = sreg.get(a);
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Un { op, a, dst }
                }
                RegOp::Select { c, a, b, out } => {
                    let (c, a, b) = (sreg.get(c), sreg.get(a), sreg.get(b));
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Select { c, a, b, dst }
                }
                RegOp::Compose3 { a, b, c, out } => {
                    let lanes = [sreg.get(a), sreg.get(b), sreg.get(c)];
                    let out = lw.vector(&mut vreg, out);
                    Step::Compose3 { lanes, out }
                }
                RegOp::Grad3d {
                    field,
                    dims,
                    x,
                    y,
                    z,
                    out,
                } => {
                    let out = lw.vector(&mut vreg, out);
                    Step::Grad3d {
                        field,
                        dims,
                        x,
                        y,
                        z,
                        out,
                    }
                }
                RegOp::Norm3 { a, out } => {
                    let a = vreg.get(a);
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Norm3 { a, dst }
                }
                RegOp::Dot3 { a, b, out } => {
                    let (a, b) = (vreg.get(a), vreg.get(b));
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Dot3 { a, b, dst }
                }
                RegOp::Cross3 { a, b, out } => {
                    let (a, b) = (vreg.get(a), vreg.get(b));
                    let out = lw.vector(&mut vreg, out);
                    Step::Cross3 { a, b, out }
                }
            };
            lw.steps.push(step);
        }

        lw.store_outputs(prog, &sreg, &vreg);
        lw.fuse_chains();
        lw.allocate_rows()
    }

    /// A new scalar value, bound to `reg`; returns where its step writes.
    fn scalar(&mut self, regs: &mut Regs<Src>, reg: Reg) -> Dst {
        let id = self.value(1);
        regs.set(reg, Src::Row(id));
        Dst::Row(id)
    }

    /// A new vector value, bound to `reg`; returns its first id.
    fn vector(&mut self, regs: &mut Regs<usize>, reg: Reg) -> usize {
        let id = self.value(4);
        regs.set(reg, id);
        id
    }

    /// How many times the steps read each value (indexed by first id).
    fn reads(&mut self) -> Vec<usize> {
        let mut reads = vec![0; self.lanes.len()];
        let mut ids = Vec::new();
        for step in &mut self.steps {
            step.visit(&mut |m| match m {
                Mention::Read(Src::Row(id)) | Mention::ReadVec(id) => ids.push(*id),
                _ => {}
            });
        }
        for id in ids {
            reads[self.base(id)] += 1;
        }
        reads
    }

    /// Get every root into its output plane: a scalar value that no step
    /// reads and no other root shares is written there by the step that
    /// makes it; anything else — a value with readers, a bare input, a
    /// vector lane, two roots on one value — is copied (a `Vec4` root:
    /// interleaved) there at the end.
    fn store_outputs(&mut self, prog: &FusedProgram, sreg: &Regs<Src>, vreg: &Regs<usize>) {
        let reads = self.reads();
        let scalar_roots: Vec<Option<Src>> = prog
            .outputs
            .iter()
            .map(|slot| (slot.width != Width::Vec4).then(|| sreg.get(slot.reg)))
            .collect();
        for (o, slot) in prog.outputs.iter().enumerate() {
            let Some(src) = scalar_roots[o] else {
                let a = vreg.get(slot.reg);
                self.steps.push(Step::StoreVec4 { a, output: o });
                continue;
            };
            let alone = scalar_roots.iter().filter(|r| **r == Some(src)).count() == 1;
            match src {
                Src::Row(id) if self.lanes[id] == 1 && reads[id] == 0 && alone => {
                    self.steps[self.def[id]].visit(&mut |m| {
                        if let Mention::Write(dst) = m {
                            *dst = Dst::Out(o);
                        }
                    });
                }
                _ => self.steps.push(Step::Copy {
                    src,
                    dst: Dst::Out(o),
                }),
            }
        }
    }

    /// Make every [`CHAINED`] step one of whose operands is a value nothing
    /// else reads, made by a plain [`CHAINED`] step, compute that value
    /// itself, and drop the step that made it. A step takes over at most one
    /// operand (the left one first), and only from a step that has taken
    /// over none: chains are two instructions deep.
    fn fuse_chains(&mut self) {
        let reads = self.reads();
        let mut absorbed = vec![false; self.steps.len()];
        for k in 0..self.steps.len() {
            let Step::Bin {
                op: outer,
                a,
                b,
                dst,
            } = self.steps[k]
            else {
                continue;
            };
            if !CHAINED.contains(&outer) {
                continue;
            }
            let inner_of = |src: Src| match src {
                Src::Row(id) if self.lanes[id] == 1 && reads[id] == 1 => {
                    match self.steps[self.def[id]] {
                        Step::Bin { op, a, b, .. } if CHAINED.contains(&op) => {
                            Some((self.def[id], op, a, b))
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            let ((at, inner, ia, ib), c, inner_first) = match (inner_of(a), inner_of(b)) {
                (Some(found), _) => (found, b, true),
                (None, Some(found)) => (found, a, false),
                (None, None) => continue,
            };
            absorbed[at] = true;
            self.steps[k] = Step::Chain {
                inner,
                outer,
                a: ia,
                b: ib,
                c,
                inner_first,
                dst,
            };
        }
        let mut absorbed = absorbed.into_iter();
        self.steps
            .retain(|_| !absorbed.next().expect("one flag per step"));
    }

    /// Replace value ids by bank rows, reusing a row once the last step
    /// reading its value has run. Returns the steps and the rows they use.
    fn allocate_rows(mut self) -> (Vec<Step>, usize) {
        // Every value each step mentions (by first id), writes first.
        let mut mentions: Vec<Vec<(usize, bool)>> = vec![Vec::new(); self.steps.len()];
        for (k, step) in self.steps.iter_mut().enumerate() {
            step.visit(&mut |m| match m {
                Mention::Write(Dst::Row(id)) | Mention::WriteVec(id) => {
                    mentions[k].push((*id, true))
                }
                Mention::Read(Src::Row(id)) | Mention::ReadVec(id) => {
                    mentions[k].push((*id, false))
                }
                _ => {}
            });
        }
        let mut last = vec![0; self.lanes.len()];
        for (k, ids) in mentions.iter().enumerate() {
            for &(id, _) in ids {
                last[self.base(id)] = k;
            }
        }
        // Index of each value in its pool: groups of four rows for vector
        // values, single rows above them for scalar values.
        let mut index = vec![usize::MAX; self.lanes.len()];
        let mut pools = [Pool::default(), Pool::default()];
        for (k, ids) in mentions.iter().enumerate() {
            for &(id, write) in ids {
                if write {
                    index[id] = pools[usize::from(self.lanes[id] == 4)].take();
                }
            }
            for &(id, _) in ids {
                let value = self.base(id);
                if last[value] == k && index[value] != usize::MAX {
                    pools[usize::from(self.lanes[value] == 4)].give(index[value]);
                    last[value] = usize::MAX;
                }
            }
        }
        let [scalars, vectors] = pools;
        let mut steps = std::mem::take(&mut self.steps);
        let row = |id: usize| {
            let value = self.base(id);
            assert!(
                index[value] != usize::MAX,
                "fused step reads a value no step makes"
            );
            match self.lanes[value] {
                4 => 4 * index[value] + (id - value),
                _ => 4 * vectors.high_water + index[value],
            }
        };
        for step in &mut steps {
            step.visit(&mut |m| match m {
                Mention::Read(Src::Row(id))
                | Mention::Write(Dst::Row(id))
                | Mention::ReadVec(id)
                | Mention::WriteVec(id) => *id = row(*id),
                _ => {}
            });
        }
        (steps, 4 * vectors.high_water + scalars.high_water)
    }
}

/// What each register of one bank holds while a program is being lowered.
struct Regs<T>([Option<T>; MAX_REGS + 1]);

impl<T: Copy> Regs<T> {
    fn set(&mut self, reg: Reg, value: T) {
        self.0[reg as usize] = Some(value);
    }

    fn get(&self, reg: Reg) -> T {
        self.0[reg as usize].expect("fused program reads a register it never wrote")
    }
}

/// A free list over `0..high_water`.
#[derive(Default)]
struct Pool {
    free: Vec<usize>,
    high_water: usize,
}

impl Pool {
    fn take(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.high_water += 1;
            self.high_water - 1
        })
    }

    fn give(&mut self, index: usize) {
        self.free.push(index);
    }
}

/// The fused program as a launchable device kernel.
pub struct FusedKernel {
    /// The compiled program.
    pub program: FusedProgram,
    label: String,
    /// What [`FusedKernel::run`] executes: `program`'s instructions lowered
    /// once, here, instead of being re-read every chunk.
    steps: Vec<Step>,
    /// Bank rows the steps use.
    rows: usize,
}

impl FusedKernel {
    /// Wrap a program, labeling profiling events `fused_<label>`.
    pub fn new(program: FusedProgram, label: &str) -> Self {
        let (steps, rows) = Lowering::run(&program);
        FusedKernel {
            program,
            label: label.to_string(),
            steps,
            rows,
        }
    }
}

impl DeviceKernel for FusedKernel {
    fn name(&self) -> String {
        format!("fused_{}", self.label)
    }

    fn cost(&self, n: usize) -> KernelCost {
        let n = n as u64;
        KernelCost {
            bytes_read: 4 * self.program.read_lanes_per_elem * n,
            bytes_written: 4 * self.program.lanes_per_elem as u64 * n,
            flops: self.program.flops_per_elem * n,
        }
    }

    fn run(&self, args: KernelArgs<'_>) {
        let prog = &self.program;
        let (n, inputs) = (args.n, args.inputs);
        let width = chunk_width(self.rows);
        let task = dfg_exec::effective_chunk(n, PAR_CHUNK).next_multiple_of(width);

        // Cut every output plane at the task boundaries: task `t` owns piece
        // `t` of each plane.
        let mut tasks: Vec<Vec<&mut [f32]>> = Vec::new();
        tasks.resize_with(n.div_ceil(task), Vec::new);
        let mut rest = &mut args.output[..n * prog.lanes_per_elem];
        for slot in &prog.outputs {
            let lanes = lanes_of(slot.width);
            let (plane, tail) = rest.split_at_mut(lanes * n);
            rest = tail;
            for (pieces, piece) in tasks.iter_mut().zip(plane.chunks_mut(lanes * task)) {
                pieces.push(piece);
            }
        }

        tasks.par_chunks_mut(1).enumerate().for_each(|(t, pieces)| {
            let start = t * task;
            let cells = task.min(n - start);
            let mut chunk = Chunk {
                bank: vec![0.0; self.rows * width],
                width,
                pieces: &mut pieces[0],
                inputs,
                base: start,
                at: 0,
                len: 0,
            };
            for at in (0..cells).step_by(width) {
                (chunk.base, chunk.at, chunk.len) = (start + at, at, width.min(cells - at));
                for step in &self.steps {
                    chunk.run(step);
                }
            }
        });
    }
}

/// Minimum cells per parallel task; scaled up per launch by
/// [`dfg_exec::effective_chunk`] and rounded to whole chunks.
const PAR_CHUNK: usize = 8 * 1024;

/// Bytes of row scratch a chunk may keep live. Every instruction re-reads
/// rows the previous ones wrote, so the bank has to stay in the core's
/// private cache beside the input rows streaming through it.
const BANK_BYTES: usize = 64 * 1024;

/// Lanes per chunk for a bank (or any block of row scratch) of `rows` rows:
/// the largest power of two whose rows fit [`BANK_BYTES`], kept within
/// `[128, 1024]` — wide enough to amortize instruction dispatch and fill
/// vector loops, narrow enough to stay cache-resident. This is a schedule
/// parameter of the executors, not a property of any program.
pub(crate) fn chunk_width(rows: usize) -> usize {
    let fit = BANK_BYTES / (4 * rows.max(1));
    (fit.next_power_of_two() / 2).clamp(128, 1024)
}

/// One task's view of a launch while it walks its cells a chunk at a time:
/// the register bank (`rows` rows of `width` lanes in one allocation,
/// created once per task and reused for every chunk), the task's piece of
/// every output plane, the global inputs, and the current chunk — cells
/// `[base, base + len)` of the launch, `[at, at + len)` of the task.
struct Chunk<'a, 'p> {
    bank: Vec<f32>,
    width: usize,
    pieces: &'a mut [&'p mut [f32]],
    inputs: &'a [&'a [f32]],
    base: usize,
    at: usize,
    len: usize,
}

impl Chunk<'_, '_> {
    /// `dst` mutably beside the `srcs` shared, `len` lanes each. The
    /// register allocator never hands an instruction a live operand's
    /// register as its output (`alloc_for` runs before `consume`), and the
    /// lowering moves no read past a write of its register; this is where
    /// both are checked rather than assumed.
    ///
    /// # Panics
    /// Panics if an operand row is the destination row.
    #[inline]
    fn bind<const K: usize>(&mut self, dst: Dst, srcs: [Src; K]) -> (&mut [f32], [&[f32]; K]) {
        let (w, len, inputs) = (self.width, self.len, self.inputs);
        let span = self.base..self.base + len;
        match dst {
            Dst::Row(out) => {
                let (below, rest) = self.bank.split_at_mut(out * w);
                let (o, above) = rest.split_at_mut(w);
                let (below, above) = (&*below, &*above);
                let srcs = srcs.map(|src| match src {
                    Src::Input(slot) => &inputs[slot as usize][span.clone()],
                    Src::Row(r) => {
                        assert!(r != out, "fused instruction reads the row it writes");
                        if r < out {
                            &below[r * w..][..len]
                        } else {
                            &above[(r - out - 1) * w..][..len]
                        }
                    }
                });
                (&mut o[..len], srcs)
            }
            Dst::Out(o) => {
                let bank = &self.bank;
                let srcs = srcs.map(|src| match src {
                    Src::Input(slot) => &inputs[slot as usize][span.clone()],
                    Src::Row(r) => &bank[r * w..][..len],
                });
                (&mut self.pieces[o][self.at..self.at + len], srcs)
            }
        }
    }

    /// Zero lane 3 of the vector value at rows `out..out + 4`.
    fn clear_w(&mut self, out: usize) {
        self.bind(Dst::Row(out + 3), []).0.fill(0.0);
    }

    /// Run one step over the current chunk: the step (and its
    /// [`BinKind`]/[`UnKind`]) is matched here, once per chunk, and every
    /// arm is a plain slice loop the compiler vectorizes.
    fn run(&mut self, step: &Step) {
        match *step {
            Step::Fill { value, dst } => self.bind(dst, []).0.fill(value),
            Step::Copy { src, dst } => {
                let (o, [src]) = self.bind(dst, [src]);
                o.copy_from_slice(src);
            }
            Step::Bin { op, a, b, dst } => {
                let (o, [a, b]) = self.bind(dst, [a, b]);
                op.apply(o, a, b);
            }
            Step::Chain {
                inner,
                outer,
                a,
                b,
                c,
                inner_first,
                dst,
            } => {
                let (o, [a, b, c]) = self.bind(dst, [a, b, c]);
                let lanes = o.iter_mut().zip(a).zip(b).zip(c);
                // One loop per pair of kinds and operand order, each with
                // both operations inlined.
                macro_rules! per_pair {
                    ($($inner:ident $outer:ident)*) => {
                        match (inner, outer, inner_first) {
                            $((BinKind::$inner, BinKind::$outer, true) => {
                                for (((o, &a), &b), &c) in lanes {
                                    *o = BinKind::$outer.eval(BinKind::$inner.eval(a, b), c);
                                }
                            }
                            (BinKind::$inner, BinKind::$outer, false) => {
                                for (((o, &a), &b), &c) in lanes {
                                    *o = BinKind::$outer.eval(c, BinKind::$inner.eval(a, b));
                                }
                            })*
                            _ => unreachable!("the lowering chains only `CHAINED` kinds"),
                        }
                    };
                }
                per_pair!(Add Add  Add Sub  Add Mul  Sub Add  Sub Sub  Sub Mul  Mul Add  Mul Sub  Mul Mul);
            }
            Step::Un { op, a, dst } => {
                let (o, [a]) = self.bind(dst, [a]);
                op.apply(o, a);
            }
            Step::Select { c, a, b, dst } => {
                let (o, [c, a, b]) = self.bind(dst, [c, a, b]);
                for (t, o) in o.iter_mut().enumerate() {
                    *o = select(c[t], a[t], b[t]);
                }
            }
            Step::Compose3 { lanes, out } => {
                for (lane, src) in lanes.into_iter().enumerate() {
                    let (o, [src]) = self.bind(Dst::Row(out + lane), [src]);
                    o.copy_from_slice(src);
                }
                self.clear_w(out);
            }
            Step::Grad3d {
                field,
                dims,
                x,
                y,
                z,
                out,
            } => {
                let [f, dims, x, y, z] = [field, dims, x, y, z].map(|i| self.inputs[i as usize]);
                let d = Dims3::from_buffer(dims);
                let lanes = lanes3(&mut self.bank[out * self.width..], self.width, self.len);
                gradient_span(f, x, y, z, d, self.base, lanes);
                self.clear_w(out);
            }
            Step::Norm3 { a, dst } => {
                let (o, [x, y, z]) = self.bind(dst, [a, a + 1, a + 2].map(Src::Row));
                for (t, o) in o.iter_mut().enumerate() {
                    *o = (x[t] * x[t] + y[t] * y[t] + z[t] * z[t]).sqrt();
                }
            }
            Step::Dot3 { a, b, dst } => {
                let operands = [a, b, a + 1, b + 1, a + 2, b + 2].map(Src::Row);
                let (o, [a0, b0, a1, b1, a2, b2]) = self.bind(dst, operands);
                for (t, o) in o.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    acc += a0[t] * b0[t];
                    acc += a1[t] * b1[t];
                    acc += a2[t] * b2[t];
                    *o = acc;
                }
            }
            Step::Cross3 { a, b, out } => {
                // Lane `l` is `a.p * b.q - a.q * b.p` for the cyclic pair
                // `(p, q)` after `l`.
                for (lane, (p, q)) in [(1, 2), (2, 0), (0, 1)].into_iter().enumerate() {
                    let operands = [a + p, b + q, a + q, b + p].map(Src::Row);
                    let (o, [ap, bq, aq, bp]) = self.bind(Dst::Row(out + lane), operands);
                    for (t, o) in o.iter_mut().enumerate() {
                        *o = ap[t] * bq[t] - aq[t] * bp[t];
                    }
                }
                self.clear_w(out);
            }
            Step::StoreVec4 { a, output } => {
                let (w, at, len) = (self.width, self.at, self.len);
                let cells = &mut self.pieces[output][4 * at..4 * (at + len)];
                for lane in 0..4 {
                    let src = &self.bank[(a + lane) * w..][..len];
                    for (cell, x) in cells.chunks_exact_mut(4).zip(src) {
                        cell[lane] = *x;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_dataflow::{example_networks, NetworkBuilder};
    use dfg_ocl::{Context, DeviceProfile, ExecMode};

    fn run_fused(spec: &NetworkSpec, fields: &[(&str, Vec<f32>)], n: usize) -> Vec<f32> {
        let prog = fuse(spec).unwrap();
        let kernel = FusedKernel::new(prog, "test");
        let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let ids: Vec<_> = kernel
            .program
            .inputs
            .iter()
            .map(|slot| {
                let data = &fields
                    .iter()
                    .find(|(name, _)| *name == slot.name)
                    .unwrap_or_else(|| panic!("missing field {}", slot.name))
                    .1;
                let id = ctx.create_buffer(data.len()).unwrap();
                ctx.enqueue_write(id, data).unwrap();
                id
            })
            .collect();
        let out_lanes = if kernel.program.output_width == Width::Vec4 {
            4 * n
        } else {
            n
        };
        let out = ctx.create_buffer(out_lanes).unwrap();
        ctx.launch(&kernel, &ids, out, n).unwrap();
        ctx.enqueue_read(out).unwrap()
    }

    #[test]
    fn fused_velocity_magnitude_matches_formula() {
        let spec = example_networks::velmag_example();
        let u = vec![3.0f32, 1.0];
        let v = vec![4.0f32, 2.0];
        let w = vec![0.0f32, 2.0];
        let out = run_fused(&spec, &[("u", u), ("v", v), ("w", w)], 2);
        assert!((out[0] - 5.0).abs() < 1e-6);
        assert!((out[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn register_reuse_keeps_pressure_low() {
        let spec = example_networks::velmag_example();
        let prog = fuse(&spec).unwrap();
        // 3 loads + products + sums with reuse: must fit in a handful.
        assert!(prog.num_regs <= 6, "velmag needs {} regs", prog.num_regs);
        assert_eq!(prog.inputs.len(), 3);
    }

    #[test]
    fn constants_are_inlined_in_source() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let c = b.constant(0.5);
        let m = b.binary(BinKind::Mul, u, c);
        let spec = b.finish(m);
        let prog = fuse(&spec).unwrap();
        let src = prog.generated_source("k");
        assert!(src.contains("0.5f"), "constant not inlined:\n{src}");
        assert!(src.contains("__kernel void k("));
        assert!(src.contains("out[idx]"));
    }

    #[test]
    fn decompose_renders_vector_component_select() {
        let spec = example_networks::gradmag_example();
        let prog = fuse(&spec).unwrap();
        let src = prog.generated_source("gm");
        assert!(src.contains("dfg_grad3d("), "gradient call missing:\n{src}");
        assert!(src.contains("__global const int *dims"));
    }

    #[test]
    fn gradient_of_computed_value_is_rejected() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let uu = b.binary(BinKind::Mul, u, u);
        let dims = b.small_input("dims");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let g = b.grad3d(uu, dims, x, y, z);
        let n = b.unary(FilterOp::Norm3, g);
        let spec = b.finish(n);
        assert!(matches!(
            fuse(&spec),
            Err(FuseError::GradientOfComputedValue { .. })
        ));
    }

    #[test]
    fn register_pressure_is_reported() {
        // 300 products all live before a late reduction tree.
        let mut b = NetworkBuilder::new();
        let mut products = Vec::new();
        for i in 0..300 {
            let a = b.input(&format!("a{i}"));
            let p = b.binary(BinKind::Mul, a, a);
            products.push(p);
        }
        let mut acc = products[0];
        for &p in &products[1..] {
            acc = b.binary(BinKind::Add, acc, p);
        }
        let spec = b.finish(acc);
        // Depending on schedule order this either fuses with reuse or
        // reports pressure; with id-ordered scheduling all products precede
        // the adds, so pressure must be reported.
        match fuse(&spec) {
            Err(FuseError::RegisterPressure { needed }) => assert!(needed > MAX_REGS),
            Ok(prog) => panic!("expected pressure, fused with {} regs", prog.num_regs),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn fused_gradient_matches_standalone_primitive() {
        use crate::primitives::Primitive;
        use dfg_mesh::RectilinearMesh;
        let mesh = RectilinearMesh::unit_cube([5, 4, 3]);
        let (x, y, z) = mesh.coord_arrays();
        let f = mesh.sample(|x, y, z| (3.0 * x).sin() + y * z);
        let n = mesh.ncells();

        // Standalone grad + norm.
        let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let fid = ctx.create_buffer(n).unwrap();
        ctx.enqueue_write(fid, &f).unwrap();
        let dimsb = ctx.create_buffer(3).unwrap();
        ctx.enqueue_write(dimsb, &mesh.dims_buffer()).unwrap();
        let (xb, yb, zb) = (
            ctx.create_buffer(n).unwrap(),
            ctx.create_buffer(n).unwrap(),
            ctx.create_buffer(n).unwrap(),
        );
        ctx.enqueue_write(xb, &x).unwrap();
        ctx.enqueue_write(yb, &y).unwrap();
        ctx.enqueue_write(zb, &z).unwrap();
        let gout = ctx.create_buffer(4 * n).unwrap();
        ctx.launch(&Primitive::Grad3d, &[fid, dimsb, xb, yb, zb], gout, n)
            .unwrap();
        let nout = ctx.create_buffer(n).unwrap();
        ctx.launch(&Primitive::Norm3, &[gout], nout, n).unwrap();
        let staged_result = ctx.enqueue_read(nout).unwrap();

        // Fused gradmag.
        let spec = example_networks::gradmag_example();
        let fused_result = run_fused(
            &spec,
            &[
                ("u", f),
                ("dims", mesh.dims_buffer()),
                ("x", x),
                ("y", y),
                ("z", z),
            ],
            n,
        );
        for i in 0..n {
            assert!(
                (staged_result[i] - fused_result[i]).abs() < 1e-6,
                "mismatch at {i}: {} vs {}",
                staged_result[i],
                fused_result[i]
            );
        }
    }

    #[test]
    fn select_and_comparison_fuse() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let ten = b.constant(10.0);
        let cond = b.binary(BinKind::Gt, u, ten);
        let neg = b.unary(UnKind::Neg, u);
        let sel = b.select(cond, u, neg);
        let spec = b.finish(sel);
        let out = run_fused(&spec, &[("u", vec![5.0, 15.0])], 2);
        assert_eq!(out, vec![-5.0, 15.0]);
    }

    #[test]
    fn multi_output_fusion_shares_subexpressions() {
        use crate::fused::fuse_roots;
        // m = u*u; a = m+m; s = sqrt(m) : one kernel, three outputs, the
        // shared m computed once.
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let m = b.binary(BinKind::Mul, u, u);
        b.name(m, "m");
        let a = b.binary(BinKind::Add, m, m);
        b.name(a, "a");
        let sq = b.unary(UnKind::Sqrt, m);
        b.name(sq, "s");
        let spec = b.finish(a);
        let prog = fuse_roots(&spec, &[a, sq, m]).unwrap();
        assert_eq!(prog.outputs.len(), 3);
        assert_eq!(prog.lanes_per_elem, 3);
        // Only one multiply despite three consumers of m.
        assert_eq!(prog.len(), 4); // load u, mul, add, sqrt

        // Execute and check the planar layout: one plane per output.
        let kernel = FusedKernel::new(prog, "multi");
        let mut ctx = Context::new(DeviceProfile::intel_x5660(), ExecMode::Real);
        let uin = ctx.create_buffer(2).unwrap();
        ctx.enqueue_write(uin, &[3.0, 4.0]).unwrap();
        let out = ctx.create_buffer(2 * 3).unwrap();
        ctx.launch(&kernel, &[uin], out, 2).unwrap();
        let data = ctx.enqueue_read(out).unwrap();
        // Element 0: a=18, s=3, m=9 ; element 1: a=32, s=4, m=16.
        assert_eq!(data, vec![18.0, 32.0, 3.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn multi_output_source_names_outputs() {
        use crate::fused::fuse_roots;
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let s = b.unary(UnKind::Sqrt, u);
        b.name(s, "root");
        let a = b.unary(UnKind::Abs, u);
        b.name(a, "mag");
        let spec = b.finish(s);
        let prog = fuse_roots(&spec, &[s, a]).unwrap();
        let src = prog.generated_source("multi");
        assert!(src.contains("__global float *out_root,"), "{src}");
        assert!(src.contains("__global float *out_mag)"), "{src}");
        assert!(src.contains("out_root[idx]"));
        assert!(src.contains("out_mag[idx]"));
    }

    #[test]
    fn chunked_execution_crosses_chunk_boundaries_correctly() {
        // The interpreter walks a task chunk by chunk; verify values at and
        // across candidate chunk boundaries for an n that is a multiple of
        // no chunk width.
        let spec = example_networks::velmag_example();
        let n = 1000usize;
        let u: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let v: Vec<f32> = (0..n).map(|i| 1.0 + (i % 7) as f32).collect();
        let w: Vec<f32> = (0..n).map(|i| ((i * 13) % 11) as f32 - 5.0).collect();
        let out = run_fused(
            &spec,
            &[("u", u.clone()), ("v", v.clone()), ("w", w.clone())],
            n,
        );
        for i in [0usize, 1, 255, 256, 257, 511, 512, 767, 768, 999] {
            let expect = (u[i] * u[i] + v[i] * v[i] + w[i] * w[i]).sqrt();
            assert_eq!(
                out[i].to_bits(),
                expect.to_bits(),
                "element {i}: {} vs {expect}",
                out[i]
            );
        }
    }

    #[test]
    fn chunked_gradient_crosses_chunk_boundaries_correctly() {
        // Gradient reads neighbours with *global* indices: per-chunk
        // execution must not reset the element index (12x12x8 = 1152 cells
        // is more than one chunk).
        use dfg_mesh::RectilinearMesh;
        let mesh = RectilinearMesh::unit_cube([12, 12, 8]);
        let (x, y, z) = mesh.coord_arrays();
        let f = mesh.sample(|x, y, z| x * 2.0 + y * 3.0 - z);
        let n = mesh.ncells();
        let spec = example_networks::gradmag_example();
        let out = run_fused(
            &spec,
            &[
                ("u", f),
                ("dims", mesh.dims_buffer()),
                ("x", x),
                ("y", y),
                ("z", z),
            ],
            n,
        );
        // |grad| = sqrt(4 + 9 + 1) everywhere for a linear field.
        let expect = 14.0f32.sqrt();
        for (i, &val) in out.iter().enumerate() {
            assert!((val - expect).abs() < 1e-4, "cell {i}: {val} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "fused instruction reads the row it writes")]
    fn aliased_output_register_panics_instead_of_aliasing() {
        // `row0 = row0 + row0` is a step the lowering never emits (a
        // destination row is allocated before the operands' are released);
        // the executor must refuse it rather than hand out overlapping rows.
        let mut kernel = FusedKernel::new(
            fuse(&example_networks::velmag_example()).unwrap(),
            "aliased",
        );
        kernel.steps = vec![Step::Bin {
            op: BinKind::Add,
            a: Src::Row(0),
            b: Src::Row(0),
            dst: Dst::Row(0),
        }];
        let u = [1.0f32; 4];
        kernel.run(KernelArgs {
            inputs: &[&u, &u, &u],
            output: &mut [0.0; 4],
            n: 4,
        });
    }

    #[test]
    fn fig2_example_fuses_with_four_inputs() {
        let prog = fuse(&example_networks::fig2_example()).unwrap();
        assert_eq!(prog.inputs.len(), 4);
        assert_eq!(prog.output_width, Width::Scalar);
        assert_eq!(prog.len(), 7); // 4 loads + 3 ops
    }
}

/// The lowering against its hazards: every program here is run through the
/// step list and through the staged primitives, node by node, and the two
/// must agree bit for bit — over enough cells to cross chunk and task
/// boundaries.
#[cfg(test)]
mod lowering_tests {
    use super::*;
    use crate::primitives::Primitive;
    use dfg_dataflow::NetworkBuilder;
    use dfg_mesh::RectilinearMesh;

    /// 23 x 29 x 31 cells: more than two minimum tasks, a multiple of no
    /// chunk width.
    fn mesh_fields() -> (usize, HashMap<String, Vec<f32>>) {
        let mesh = RectilinearMesh::unit_cube([23, 29, 31]);
        let (x, y, z) = mesh.coord_arrays();
        let mut fields = HashMap::new();
        fields.insert("u".into(), mesh.sample(|x, y, z| (7.0 * x).sin() + y * z));
        fields.insert(
            "v".into(),
            mesh.sample(|x, y, z| x * x - (5.0 * y).cos() + z),
        );
        fields.insert("w".into(), mesh.sample(|x, y, z| (x + 2.0 * y) * (1.5 - z)));
        fields.insert("dims".into(), mesh.dims_buffer());
        fields.insert("x".into(), x);
        fields.insert("y".into(), y);
        fields.insert("z".into(), z);
        (mesh.ncells(), fields)
    }

    /// `roots` evaluated one primitive launch per node: what staged runs.
    fn staged(
        spec: &NetworkSpec,
        roots: &[NodeId],
        fields: &HashMap<String, Vec<f32>>,
        n: usize,
    ) -> Vec<Vec<f32>> {
        let sched = Schedule::for_roots(spec, roots).unwrap();
        let mut vals: HashMap<NodeId, Vec<f32>> = HashMap::new();
        for &id in &sched.order {
            let node = spec.node(id);
            let val = match &node.op {
                FilterOp::Input { name, .. } => fields[name].clone(),
                op => {
                    let inputs: Vec<&[f32]> = node.inputs.iter().map(|i| &vals[i][..]).collect();
                    let mut out = vec![0.0; lanes_of(op.width()) * n];
                    Primitive::from_filter_op(op).unwrap().run(KernelArgs {
                        inputs: &inputs,
                        output: &mut out,
                        n,
                    });
                    out
                }
            };
            vals.insert(id, val);
        }
        roots.iter().map(|root| vals[root].clone()).collect()
    }

    /// Fuse `roots`, run the lowered kernel, and hold every output plane
    /// against the staged evaluation. Returns the kernel for step checks.
    fn check(spec: &NetworkSpec, roots: &[NodeId]) -> FusedKernel {
        let (n, fields) = mesh_fields();
        let kernel = FusedKernel::new(fuse_roots(spec, roots).unwrap(), "lowered");
        let program = &kernel.program;
        let inputs: Vec<&[f32]> = program
            .inputs
            .iter()
            .map(|slot| &fields[&slot.name][..])
            .collect();
        let mut output = vec![f32::NAN; n * program.lanes_per_elem];
        kernel.run(KernelArgs {
            inputs: &inputs,
            output: &mut output,
            n,
        });
        let expected = staged(spec, roots, &fields, n);
        for (slot, want) in program.outputs.iter().zip(&expected) {
            let plane = &output[slot.lane_offset * n..][..want.len()];
            let differ = plane
                .iter()
                .zip(want)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            assert_eq!(differ, None, "output `{}` differs from staged", slot.name);
        }
        kernel
    }

    fn count(kernel: &FusedKernel, which: impl Fn(&Step) -> bool) -> usize {
        kernel.steps.iter().filter(|step| which(step)).count()
    }

    fn is_chain(step: &Step) -> bool {
        matches!(step, Step::Chain { .. })
    }

    fn is_mul_add(step: &Step) -> bool {
        matches!(
            step,
            Step::Chain {
                inner: BinKind::Mul,
                outer: BinKind::Add,
                ..
            }
        )
    }

    fn is_copy(step: &Step) -> bool {
        matches!(step, Step::Copy { .. })
    }

    #[test]
    fn velmag_lowers_to_four_steps_on_two_rows() {
        let spec = dfg_dataflow::example_networks::velmag_example();
        let kernel = check(&spec, &[spec.result]);
        // v*v, u*u + that, that + w*w, sqrt into the plane: no load, no
        // store, and the register program is what it was.
        assert_eq!(kernel.steps.len(), 4);
        assert_eq!(count(&kernel, is_mul_add), 2);
        assert_eq!(kernel.rows, 2);
        assert_eq!(kernel.program.len(), 9);
        assert_eq!(kernel.program.num_sregs, 4);
        assert!(matches!(
            kernel.steps.last(),
            Some(Step::Un {
                dst: Dst::Out(0),
                ..
            })
        ));
    }

    #[test]
    fn mul_operand_register_reallocated_before_the_add() {
        // Each square's operand dies at the `Mul`, so the fuser hands its
        // register to the very `Add` that consumes the product (and reloads
        // an input register between another `Mul` and its `Add`): the
        // carried product must still read the operand's value, not the
        // register's next tenant.
        let mut b = NetworkBuilder::new();
        let (u, v, w) = (b.input("u"), b.input("v"), b.input("w"));
        let s = b.binary(BinKind::Add, u, v);
        let d = b.binary(BinKind::Sub, v, w);
        let ss = b.binary(BinKind::Mul, s, s);
        let dd = b.binary(BinKind::Mul, d, d);
        let ww = b.binary(BinKind::Mul, w, w);
        let acc = b.binary(BinKind::Add, ss, dd);
        let acc = b.binary(BinKind::Add, acc, ww);
        let root = b.unary(UnKind::Sqrt, acc);
        let spec = b.finish(root);
        let kernel = check(&spec, &[root]);
        assert_eq!(count(&kernel, is_mul_add), 2);
        assert!(kernel.steps.iter().any(|step| matches!(
            step,
            Step::Chain {
                inner_first: false,
                ..
            }
        )));
    }

    #[test]
    fn product_with_two_readers_stays_a_mul() {
        let mut b = NetworkBuilder::new();
        let (u, v, w) = (b.input("u"), b.input("v"), b.input("w"));
        let p = b.binary(BinKind::Mul, u, v);
        let twice = b.binary(BinKind::Add, p, p);
        let q = b.binary(BinKind::Mul, v, w);
        let sum = b.binary(BinKind::Add, q, w);
        let both = b.binary(BinKind::Div, sum, q);
        let root = b.binary(BinKind::Sub, twice, both);
        let spec = b.finish(root);
        let kernel = check(&spec, &[root]);
        assert_eq!(count(&kernel, is_mul_add), 0);
        // `twice` has one reader, the final `Sub`: that pair does chain.
        assert_eq!(count(&kernel, is_chain), 1);
    }

    #[test]
    fn root_that_a_later_op_reads_is_copied_out() {
        // `m` is a root *and* an operand of the ops after it; `s` is a root
        // nothing reads. Only `s` can be computed in its plane.
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let m = b.binary(BinKind::Mul, u, v);
        b.name(m, "m");
        let a = b.binary(BinKind::Add, m, u);
        let s = b.unary(UnKind::Sqrt, a);
        b.name(s, "s");
        let spec = b.finish(s);
        let kernel = check(&spec, &[m, s]);
        assert_eq!(count(&kernel, is_copy), 1);
        assert_eq!(count(&kernel, is_mul_add), 0, "the product is a root");
        check(&spec, &[s, m]);
    }

    #[test]
    fn bare_input_root_is_one_copy() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let spec = b.finish(u);
        let kernel = check(&spec, &[u]);
        assert_eq!(kernel.steps.len(), 1);
        assert_eq!(kernel.rows, 0);
        assert!(matches!(
            kernel.steps[0],
            Step::Copy {
                src: Src::Input(0),
                dst: Dst::Out(0)
            }
        ));
        // Beside a computed root, and as a lane of a gradient.
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let dims = b.small_input("dims");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let g = b.grad3d(u, dims, x, y, z);
        let gy = b.decompose(g, 1);
        let r = b.binary(BinKind::Max, gy, v);
        let spec = b.finish(r);
        check(&spec, &[v, r, gy]);
    }

    #[test]
    fn two_roots_on_one_value_both_get_it() {
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let m = b.binary(BinKind::Mul, u, v);
        let r = b.binary(BinKind::Add, m, v);
        let spec = b.finish(r);
        let kernel = check(&spec, &[r, r]);
        assert_eq!(count(&kernel, is_copy), 2);
        assert_eq!(count(&kernel, is_mul_add), 1);
        // Two roots with one shared producer: the shared value takes a row.
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let m = b.binary(BinKind::Mul, u, v);
        let p = b.binary(BinKind::Add, m, u);
        let q = b.binary(BinKind::Sub, m, v);
        let spec = b.finish(p);
        let kernel = check(&spec, &[p, q]);
        assert_eq!(count(&kernel, is_copy), 0);
        assert_eq!(count(&kernel, is_mul_add), 0);
    }

    #[test]
    fn vec4_roots_keep_their_float4_planes() {
        let mut b = NetworkBuilder::new();
        let (u, v, w) = (b.input("u"), b.input("v"), b.input("w"));
        let dims = b.small_input("dims");
        let (x, y, z) = (b.input("x"), b.input("y"), b.input("z"));
        let gu = b.grad3d(u, dims, x, y, z);
        let gv = b.grad3d(v, dims, x, y, z);
        let cross = b.binary(FilterOp::Cross3, gu, gv);
        let dot = b.binary(FilterOp::Dot3, cross, gu);
        let packed = b.compose3(w, dot, u);
        let norm = b.unary(FilterOp::Norm3, packed);
        let spec = b.finish(norm);
        for roots in [
            vec![gu],
            vec![cross, norm],
            vec![norm, packed, gv],
            vec![packed, packed, dot],
        ] {
            check(&spec, &roots);
        }
    }

    #[test]
    fn select_and_constants_lower_like_any_value() {
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let half = b.constant(0.5);
        let cond = b.binary(BinKind::Gt, u, half);
        let scaled = b.binary(BinKind::Mul, half, v);
        let shifted = b.binary(BinKind::Add, scaled, half);
        let sel = b.select(cond, shifted, u);
        let spec = b.finish(sel);
        let kernel = check(&spec, &[sel, half]);
        assert_eq!(count(&kernel, is_mul_add), 1);
    }
}

#[cfg(test)]
mod golden_source_tests {
    use super::*;
    use dfg_dataflow::example_networks;

    /// The full generated source for velocity magnitude, pinned: codegen
    /// changes must be deliberate.
    #[test]
    fn velmag_generated_source_golden() {
        let prog = fuse(&example_networks::velmag_example()).unwrap();
        let expected = "\
__kernel void fused_v_mag(
    __global const float *u,
    __global const float *v,
    __global const float *w,
    __global float *out)
{
    int idx = get_global_id(0);
    float r0;
    float r1;
    float r2;
    float r3;
    r0 = u[idx];
    r1 = r0 * r0;
    r0 = v[idx];
    r2 = r0 * r0;
    r0 = w[idx];
    r3 = r0 * r0;
    r0 = r1 + r2;
    r2 = r0 + r3;
    r3 = sqrt(r2);
    out[idx] = r3;
}
";
        assert_eq!(prog.generated_source("fused_v_mag"), expected);
    }

    /// Generated source is valid-C-shaped: no register is declared twice
    /// and every statement line ends with a semicolon.
    #[test]
    fn generated_source_declares_registers_once() {
        for spec in [
            example_networks::velmag_example(),
            example_networks::gradmag_example(),
            example_networks::fig2_example(),
        ] {
            let src = fuse(&spec).unwrap().generated_source("k");
            // Only check the kernel body, not the grad3d helper function.
            let body = &src[src.find("__kernel").expect("kernel present")..];
            let mut seen = std::collections::HashSet::new();
            for line in body.lines() {
                let t = line.trim();
                if let Some(rest) = t
                    .strip_prefix("float ")
                    .or_else(|| t.strip_prefix("float4 "))
                {
                    // Declaration lines: "float rN;" / "float4 vN;" only.
                    if let Some(name) = rest.strip_suffix(';') {
                        assert!(
                            seen.insert(name.to_string()),
                            "register {name} declared twice:\n{src}"
                        );
                        assert!(!name.contains('='), "declaration with init: {t}");
                    }
                }
            }
            assert!(!seen.is_empty());
        }
    }
}
