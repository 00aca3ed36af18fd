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
//! A launch is cut into tasks of [`dfg_exec::effective_chunk`] cells. A task
//! allocates one register **bank** — `num_sregs + 4·num_vregs` rows of
//! `chunk_width(rows)` lanes, scalar rows first, then four rows (`.s0`–`.s3`)
//! per vector register — and walks its cells a chunk at a time, running
//! each instruction as one slice loop over a bank row: the match on the
//! instruction (and on its [`BinKind`]/[`UnKind`]) happens once per chunk,
//! outside the loop, and the loops are plain zips the compiler vectorizes.
//! The chunk width comes from the bank's footprint, so the rows every
//! instruction re-reads stay cache-resident beside the streamed inputs.
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

/// The fused program as a launchable device kernel.
pub struct FusedKernel {
    /// The compiled program.
    pub program: FusedProgram,
    label: String,
}

impl FusedKernel {
    /// Wrap a program, labeling profiling events `fused_<label>`.
    pub fn new(program: FusedProgram, label: &str) -> Self {
        FusedKernel {
            program,
            label: label.to_string(),
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
        let rows = prog.num_sregs + 4 * prog.num_vregs;
        let width = chunk_width(rows);
        let task = dfg_exec::effective_chunk(n, PAR_CHUNK).next_multiple_of(width);
        // Bank rows: scalar register `r`, then lane `l` of vector register `r`.
        let s = |r: Reg| r as usize;
        let v = |r: Reg, lane: usize| prog.num_sregs + 4 * r as usize + lane;

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
            let pieces = &mut pieces[0];
            let start = t * task;
            let cells = task.min(n - start);
            let mut bank = Bank::new(rows, width);
            for at in (0..cells).step_by(width) {
                let (base, len) = (start + at, width.min(cells - at));
                for op in &prog.ops {
                    match *op {
                        RegOp::LoadInput { slot, reg } => {
                            let src = &inputs[slot as usize][base..base + len];
                            bank.split(s(reg), [], len).0.copy_from_slice(src);
                        }
                        RegOp::Const { value, reg } => bank.split(s(reg), [], len).0.fill(value),
                        RegOp::Bin { op, a, b, out } => {
                            let (o, [a, b]) = bank.split(s(out), [s(a), s(b)], len);
                            op.apply(o, a, b);
                        }
                        RegOp::Un { op, a, out } => {
                            let (o, [a]) = bank.split(s(out), [s(a)], len);
                            op.apply(o, a);
                        }
                        RegOp::Select { c, a, b, out } => {
                            let (o, [c, a, b]) = bank.split(s(out), [s(c), s(a), s(b)], len);
                            for (t, o) in o.iter_mut().enumerate() {
                                *o = select(c[t], a[t], b[t]);
                            }
                        }
                        RegOp::Decompose { a, comp, out } => {
                            let (o, [a]) = bank.split(s(out), [v(a, comp as usize)], len);
                            o.copy_from_slice(a);
                        }
                        RegOp::Compose3 { a, b, c, out } => {
                            for (lane, src) in [a, b, c].into_iter().enumerate() {
                                let (o, [src]) = bank.split(v(out, lane), [s(src)], len);
                                o.copy_from_slice(src);
                            }
                            bank.split(v(out, 3), [], len).0.fill(0.0);
                        }
                        RegOp::Grad3d {
                            field,
                            dims,
                            x,
                            y,
                            z,
                            out,
                        } => {
                            let [f, dims, x, y, z] =
                                [field, dims, x, y, z].map(|i| inputs[i as usize]);
                            let d = Dims3::from_buffer(dims);
                            let lanes = lanes3(&mut bank.lanes[v(out, 0) * width..], width, len);
                            gradient_span(f, x, y, z, d, base, lanes);
                            bank.split(v(out, 3), [], len).0.fill(0.0);
                        }
                        RegOp::Norm3 { a, out } => {
                            let (o, [x, y, z]) =
                                bank.split(s(out), [v(a, 0), v(a, 1), v(a, 2)], len);
                            for (t, o) in o.iter_mut().enumerate() {
                                *o = (x[t] * x[t] + y[t] * y[t] + z[t] * z[t]).sqrt();
                            }
                        }
                        RegOp::Dot3 { a, b, out } => {
                            let operands = [v(a, 0), v(b, 0), v(a, 1), v(b, 1), v(a, 2), v(b, 2)];
                            let (o, [a0, b0, a1, b1, a2, b2]) = bank.split(s(out), operands, len);
                            for (t, o) in o.iter_mut().enumerate() {
                                let mut acc = 0.0f32;
                                acc += a0[t] * b0[t];
                                acc += a1[t] * b1[t];
                                acc += a2[t] * b2[t];
                                *o = acc;
                            }
                        }
                        RegOp::Cross3 { a, b, out } => {
                            // Lane `l` is `a.p * b.q - a.q * b.p` for the
                            // cyclic pair `(p, q)` after `l`.
                            for (lane, (p, q)) in [(1, 2), (2, 0), (0, 1)].into_iter().enumerate() {
                                let operands = [v(a, p), v(b, q), v(a, q), v(b, p)];
                                let (o, [ap, bq, aq, bp]) = bank.split(v(out, lane), operands, len);
                                for (t, o) in o.iter_mut().enumerate() {
                                    *o = ap[t] * bq[t] - aq[t] * bp[t];
                                }
                            }
                            bank.split(v(out, 3), [], len).0.fill(0.0);
                        }
                    }
                }

                // Store every output into this task's piece of its plane.
                for (slot, piece) in prog.outputs.iter().zip(pieces.iter_mut()) {
                    match slot.width {
                        Width::Vec4 => {
                            let cells = &mut piece[4 * at..4 * (at + len)];
                            for lane in 0..4 {
                                let src = bank.row(v(slot.reg, lane), len);
                                for (cell, x) in cells.chunks_exact_mut(4).zip(src) {
                                    cell[lane] = *x;
                                }
                            }
                        }
                        _ => piece[at..at + len].copy_from_slice(bank.row(s(slot.reg), len)),
                    }
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

/// One task's register bank: `rows` rows of `width` lanes in one
/// allocation, created once per task and reused for every chunk.
struct Bank {
    lanes: Vec<f32>,
    width: usize,
}

impl Bank {
    fn new(rows: usize, width: usize) -> Self {
        Bank {
            lanes: vec![0.0; rows * width],
            width,
        }
    }

    /// The first `len` lanes of row `r`.
    fn row(&self, r: usize, len: usize) -> &[f32] {
        &self.lanes[r * self.width..][..len]
    }

    /// Row `out` mutably beside the `operands` rows shared, `len` lanes
    /// each. The register allocator never hands an instruction a live
    /// operand's register as its output (`alloc_for` runs before
    /// `consume`); this is where that is checked rather than assumed.
    ///
    /// # Panics
    /// Panics if an operand row is the output row.
    #[inline]
    fn split<const K: usize>(
        &mut self,
        out: usize,
        operands: [usize; K],
        len: usize,
    ) -> (&mut [f32], [&[f32]; K]) {
        let w = self.width;
        let (below, rest) = self.lanes.split_at_mut(out * w);
        let (o, above) = rest.split_at_mut(w);
        let (below, above) = (&*below, &*above);
        let operands = operands.map(|r| {
            assert!(r != out, "fused instruction reads the row it writes");
            if r < out {
                &below[r * w..][..len]
            } else {
                &above[(r - out - 1) * w..][..len]
            }
        });
        (&mut o[..len], operands)
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
        // `r0 = r0 + r0` is a program the allocator never emits; the bank
        // must refuse it rather than hand out overlapping rows.
        let mut prog = fuse(&example_networks::velmag_example()).unwrap();
        prog.ops = vec![
            RegOp::LoadInput { slot: 0, reg: 0 },
            RegOp::Bin {
                op: BinKind::Add,
                a: 0,
                b: 0,
                out: 0,
            },
        ];
        let u = [1.0f32; 4];
        FusedKernel::new(prog, "aliased").run(KernelArgs {
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
