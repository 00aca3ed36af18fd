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
//! copy) — and every tree of `Add`/`Sub`/`Mul` instructions is cut into
//! **runs**: up to four of them in one pass over one running value that
//! stays in a register, each rounded exactly as its instruction rounded it
//! (see `Step::Run`). No step changes a bit of any value.
//!
//! A launch is cut into tasks of [`dfg_exec::effective_chunk`] cells. A task
//! allocates one register **bank** — as many rows of `chunk_width(rows)`
//! lanes as the steps have values live at once, consecutive rows for the
//! lanes of a vector value — and walks its
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
use std::sync::Arc;

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
    /// Gradient with direct global-memory access: the slots of `field`,
    /// `dims`, `x`, `y` and `z`.
    Grad3d { slots: [u16; 5], out: Reg },
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
    sregs: RegFile,
    vregs: RegFile,
}

/// One register file of the generated kernel: `used` registers so far, the
/// `free` ones among them holding dead values.
#[derive(Default)]
struct RegFile {
    free: Vec<Reg>,
    used: usize,
}

impl RegFile {
    fn alloc(&mut self) -> Result<Reg, FuseError> {
        if let Some(r) = self.free.pop() {
            return Ok(r);
        }
        if self.used >= MAX_REGS {
            return Err(FuseError::RegisterPressure {
                needed: self.used + 1,
            });
        }
        self.used += 1;
        Ok((self.used - 1) as Reg)
    }
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

    /// The register file values of `width` live in.
    fn regs(&mut self, width: Width) -> &mut RegFile {
        match width {
            Width::Vec4 => &mut self.vregs,
            _ => &mut self.sregs,
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
                let reg = self.sregs.alloc()?;
                self.ops.push(RegOp::LoadInput { slot, reg });
                self.reg_of.insert(id, reg);
                Ok(reg)
            }
            FilterOp::Const(v) => {
                let reg = self.sregs.alloc()?;
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
                self.regs(self.spec.width(id)).free.push(r);
            }
        }
    }
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

    // Count register reads per node (ports of non-gradient consumers: a
    // gradient reads its operands from global memory), so registers are
    // freed after their last use. Every root gets a sentinel use so its
    // register survives to the store.
    let mut reg_uses: HashMap<NodeId, u32> = HashMap::new();
    for &id in &sched.order {
        let node = spec.node(id);
        if node.op != FilterOp::Grad3d {
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
        sregs: RegFile::default(),
        vregs: RegFile::default(),
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
                let slots = [0, 1, 2, 3, 4].map(|port| fz.slot_for(node.inputs[port]));
                let out = fz.vregs.alloc()?;
                fz.ops.push(RegOp::Grad3d { slots, out });
                fz.reg_of.insert(id, out);
                read_lanes += 12;
            }
            op => {
                let operands: Vec<Reg> = node
                    .inputs
                    .iter()
                    .map(|&i| fz.reg_for(i))
                    .collect::<Result<_, _>>()?;
                let out = fz.regs(node.op.width()).alloc()?;
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
        let reg = fz.reg_for(root)?;
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
        num_regs: fz.sregs.used + fz.vregs.used,
        num_sregs: fz.sregs.used,
        num_vregs: fz.vregs.used,
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
        let out_name = |out: &OutputSlot| match self.outputs.len() {
            1 => "out".to_string(),
            _ => format!("out_{}", out.name),
        };
        let inputs = self.inputs.iter().map(|slot| {
            let ty = if slot.small { "int" } else { "float" };
            format!("    __global const {ty} *{}", slot.name)
        });
        let outputs = self.outputs.iter().map(|out| {
            let ty = if out.width == Width::Vec4 {
                "float4"
            } else {
                "float"
            };
            format!("    __global {ty} *{}", out_name(out))
        });
        let params: Vec<String> = inputs.chain(outputs).collect();
        src.push_str(&format!("{})\n", params.join(",\n")));
        src.push_str("{\n    int idx = get_global_id(0);\n");
        // Declare each register once (the allocator reuses registers, so
        // per-assignment declarations would redeclare, and numbers them
        // densely). Scalar assignments use `rN`, vector assignments `vN` —
        // distinct C variables even when they share a register slot.
        for r in 0..self.num_sregs {
            src.push_str(&format!("    float r{r};\n"));
        }
        for r in 0..self.num_vregs {
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
                RegOp::Grad3d { slots, out } => {
                    let arrays = slots.map(|slot| self.inputs[slot as usize].name.as_str());
                    format!("v{out} = dfg_grad3d({}, idx);", arrays.join(", "))
                }
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
        for out in &self.outputs {
            src.push_str(&format!("    {}[idx] = r{};\n", out_name(out), out.reg));
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
/// resolved to where the values actually are. A vector value lives in
/// consecutive bank rows, one per lane, named by the first.
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
    /// Up to [`MAX_LINKS`] instructions in one pass: a running value `v`
    /// starts as `start` and every [`Link`] replaces it, rounded to `f32` as
    /// its instruction rounded it (`v*x` then `+ y` is never `f32::mul_add`).
    /// The values in between are never stored.
    Run {
        start: Src,
        links: [Link; MAX_LINKS],
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
    Grad3d {
        slots: [u16; 5],
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

/// Links a [`Step::Run`] can hold.
const MAX_LINKS: usize = 4;

/// The instructions a [`Step::Run`] is made of.
const LINKED: [BinKind; 3] = [BinKind::Add, BinKind::Sub, BinKind::Mul];

/// One instruction of a [`Step::Run`]: its kind, and the row operand `x` and
/// the constant `k` of the kinds that read one.
type Link = (u8, Src, f32);

/// The kinds of link, as the const parameters of [`run_links`]: the kinds
/// whose loops are bound by loads and stores, so that an intermediate row
/// skipped is time saved. An operand order is kept only where it changes a
/// bit (`SUB`, `RSUB`).
const NONE: u8 = 0; // past the run's last instruction: `v`
const ADD: u8 = 1; // `v + x`
const SUB: u8 = 2; // `v - x`
const RSUB: u8 = 3; // `x - v`
const MUL: u8 = 4; // `v * x`
const SQ: u8 = 5; // `v * v`
const SCALE: u8 = 6; // `v * k`: a constant broadcast, not loaded from a filled row
const SQRT: u8 = 7; // `sqrt(v)`: the `Un` step that alone read the run

/// Whether a link of `kind` reads its row operand.
fn reads_row(kind: u8) -> bool {
    (ADD..=MUL).contains(&kind)
}

/// One mention of a value in a [`Step`], as [`Step::visit`] reports it.
/// While a program is being lowered the numbers inside are value ids; the
/// last pass of the lowering rewrites them to bank rows.
enum Mention<'a> {
    Read(&'a mut Src),
    Write(&'a mut Dst),
    /// First of the ids/rows of a vector value that is read.
    ReadVec(&'a mut usize),
    /// First of the ids/rows of a vector value that is written.
    WriteVec(&'a mut usize),
}

impl<'a> Mention<'a> {
    /// The id (or row) mentioned, unless it is an input span or an output
    /// plane, and whether it is written.
    fn row(self) -> Option<(&'a mut usize, bool)> {
        match self {
            Mention::Read(Src::Row(id)) | Mention::ReadVec(id) => Some((id, false)),
            Mention::Write(Dst::Row(id)) | Mention::WriteVec(id) => Some((id, true)),
            _ => None,
        }
    }
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
            Step::Run { start, links, dst } => {
                f(Write(dst));
                f(Read(start));
                let rows = links.iter_mut().filter(|link| reads_row(link.0));
                rows.for_each(|link| f(Read(&mut link.1)));
            }
            Step::Select { c, a, b, dst } => {
                f(Write(dst));
                f(Read(a));
                f(Read(b));
                f(Read(c));
            }
            Step::Un { a, dst, .. } => {
                f(Write(dst));
                f(Read(a));
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
/// * the `Add`, `Sub` and `Mul` steps become [`Step::Run`]s, cut so that as
///   few of their values as possible are stored (see `Lowering::cut_runs`);
/// * a vector value gets its fourth lane (zeroed every chunk) only if a step
///   reads it;
/// * bank rows are handed out anew by liveness over the *steps* (a step's
///   destination is allocated before its operands are released, so it never
///   aliases one), vector values in groups of four or three rows below the
///   scalar rows.
struct Lowering {
    steps: Vec<Step>,
    /// Ids handed out so far; `lanes[id]` is the rows the value at `id` takes:
    /// 4 for the first id of a vector value (3 once `cut_runs` finds lane 3
    /// unread), 1 for a scalar value, and 0 for a vector's other three ids.
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
        // What each register holds now (a program reads none it never wrote).
        let mut sreg: Regs<Src> = HashMap::new();
        let mut vreg: Regs<usize> = HashMap::new();

        for op in &prog.ops {
            let step = match *op {
                RegOp::LoadInput { slot, reg } => {
                    sreg.insert(reg, Src::Input(slot));
                    continue;
                }
                RegOp::Decompose { a, comp, out } => {
                    sreg.insert(out, Src::Row(vreg[&a] + comp as usize));
                    continue;
                }
                RegOp::Const { value, reg } => {
                    let dst = lw.scalar(&mut sreg, reg);
                    Step::Fill { value, dst }
                }
                RegOp::Bin { op, a, b, out } => {
                    let (a, b) = (sreg[&a], sreg[&b]);
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Bin { op, a, b, dst }
                }
                RegOp::Un { op, a, out } => {
                    let a = sreg[&a];
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Un { op, a, dst }
                }
                RegOp::Select { c, a, b, out } => {
                    let (c, a, b) = (sreg[&c], sreg[&a], sreg[&b]);
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Select { c, a, b, dst }
                }
                RegOp::Compose3 { a, b, c, out } => {
                    // One copy per lane; the first makes the vector value.
                    let [x, y, z] = [a, b, c].map(|lane| sreg[&lane]);
                    let out = lw.vector(&mut vreg, out);
                    let lane = |l: usize, src: Src| Step::Copy {
                        src,
                        dst: Dst::Row(out + l),
                    };
                    lw.steps.extend([lane(0, x), lane(1, y)]);
                    lane(2, z)
                }
                RegOp::Grad3d { slots, out } => {
                    let out = lw.vector(&mut vreg, out);
                    Step::Grad3d { slots, out }
                }
                RegOp::Norm3 { a, out } => {
                    let a = vreg[&a];
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Norm3 { a, dst }
                }
                RegOp::Dot3 { a, b, out } => {
                    let (a, b) = (vreg[&a], vreg[&b]);
                    let dst = lw.scalar(&mut sreg, out);
                    Step::Dot3 { a, b, dst }
                }
                RegOp::Cross3 { a, b, out } => {
                    let (a, b) = (vreg[&a], vreg[&b]);
                    let out = lw.vector(&mut vreg, out);
                    Step::Cross3 { a, b, out }
                }
            };
            lw.steps.push(step);
        }

        lw.store_outputs(prog, &sreg, &vreg);
        lw.cut_runs();
        lw.allocate_rows()
    }

    /// A new scalar value, bound to `reg`; returns where its step writes.
    fn scalar(&mut self, regs: &mut Regs<Src>, reg: Reg) -> Dst {
        let id = self.value(1);
        regs.insert(reg, Src::Row(id));
        Dst::Row(id)
    }

    /// A new vector value, bound to `reg`; returns its first id.
    fn vector(&mut self, regs: &mut Regs<usize>, reg: Reg) -> usize {
        let id = self.value(4);
        regs.insert(reg, id);
        id
    }

    /// How many times the steps read each id — a vector operand reads its
    /// first three, a `float4` output plane all four — and the last step that
    /// reads a scalar id.
    fn reads(&mut self) -> (Vec<usize>, Vec<usize>) {
        let mut reads = vec![0; self.lanes.len()];
        let mut reader = vec![0; self.lanes.len()];
        for (k, step) in self.steps.iter_mut().enumerate() {
            let lanes = 3 + usize::from(matches!(step, Step::StoreVec4 { .. }));
            step.visit(&mut |m| match m {
                Mention::Read(Src::Row(id)) => (reads[*id], reader[*id]) = (reads[*id] + 1, k),
                Mention::ReadVec(id) => reads[*id..*id + lanes].iter_mut().for_each(|r| *r += 1),
                _ => {}
            });
        }
        (reads, reader)
    }

    /// Get every root into its output plane: a scalar value that no step
    /// reads and no other root shares is written there by the step that
    /// makes it; anything else — a value with readers, a bare input, a
    /// vector lane, two roots on one value — is copied (a `Vec4` root:
    /// interleaved) there at the end.
    fn store_outputs(&mut self, prog: &FusedProgram, sreg: &Regs<Src>, vreg: &Regs<usize>) {
        let (reads, _) = self.reads();
        let scalar_roots: Vec<Option<Src>> = prog
            .outputs
            .iter()
            .map(|slot| (slot.width != Width::Vec4).then(|| sreg[&slot.reg]))
            .collect();
        for (o, slot) in prog.outputs.iter().enumerate() {
            let Some(src) = scalar_roots[o] else {
                let a = vreg[&slot.reg];
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

    /// Turn the `Add`/`Sub`/`Mul` steps into [`Step::Run`]s. A step can
    /// continue the run of an operand that nothing else reads (`x*x` reads it
    /// twice) and that such a step made; every other operand is loaded, and
    /// one that is a run of its own was stored first. Each step that continues
    /// a run therefore saves one store and one load, whichever operand it
    /// continues, and a shorter run leaves its readers more room: bottom-up,
    /// every step continues the shortest run it can, and the rows moved per
    /// cell are the fewest any cut into runs of [`MAX_LINKS`] moves. A
    /// constant factor is broadcast ([`SCALE`]) and its `Fill` dropped once
    /// nothing loads it. The fourth link can only be `+ x`, or the `sqrt` that
    /// alone reads the run (which takes that place in a shorter one): what
    /// keeps [`run_links`] under 700 instantiations.
    fn cut_runs(&mut self) {
        let (reads, reader) = self.reads();
        let n = self.steps.len();
        let node = |k: usize| match self.steps[k] {
            Step::Bin { op, a, b, dst } if LINKED.contains(&op) => Some((op, a, b, dst)),
            _ => None,
        };
        let constant = |src: Src| match src {
            Src::Row(id) => match self.steps[self.def[id]] {
                Step::Fill { value, .. } => Some((id, value)),
                _ => None,
            },
            Src::Input(_) => None,
        };

        // `len[k]`: links of the run step `k` ends; `via[k]`: the step before
        // it in that run.
        let (mut len, mut via) = (vec![1; n], vec![None; n]);
        for k in 0..n {
            let Some((op, a, b, _)) = node(k) else {
                continue;
            };
            let only_reader = |src: Src| match src {
                Src::Row(id) if reads[id] == usize::from(a == src) + usize::from(b == src) => {
                    node(self.def[id]).map(|_| self.def[id])
                }
                _ => None,
            };
            let fits = |c: &usize| match (a == b, len[*c] + 1 < MAX_LINKS) {
                (true, room) => room && op == BinKind::Mul,
                (false, room) => room || (len[*c] < MAX_LINKS && op == BinKind::Add),
            };
            let continued = [only_reader(a), only_reader(b)].into_iter().flatten();
            via[k] = continued.filter(fits).min_by_key(|&c| len[c]);
            len[k] += via[k].map_or(0, |c| len[c]);
        }

        let mut loads = reads.clone();
        let mut runs: Vec<Option<Step>> = vec![None; n];
        let mut inside = vec![false; n];
        for top in (0..n).rev() {
            let Some((.., mut dst)) = node(top).filter(|_| !inside[top]) else {
                continue;
            };
            let mut path = vec![top];
            while let Some(c) = via[path[path.len() - 1]] {
                inside[c] = true;
                path.push(c);
            }
            let (op, a, b, _) = node(path[path.len() - 1]).expect("runs are made of nodes");
            let start = match (op, constant(a)) {
                (BinKind::Mul, Some(_)) => b,
                _ => a,
            };
            let (mut v, mut links) = (start, [(NONE, start, 0.0); MAX_LINKS]);
            for (link, &at) in links.iter_mut().zip(path.iter().rev()) {
                let (op, a, b, made) = node(at).expect("runs are made of nodes");
                let (x, v_first) = if a == v { (b, true) } else { (a, false) };
                *link = match (op, constant(x)) {
                    (BinKind::Mul, _) if x == v => (SQ, x, 0.0),
                    (BinKind::Mul, Some((id, value))) => {
                        loads[id] -= 1;
                        (SCALE, x, value)
                    }
                    (BinKind::Mul, None) => (MUL, x, 0.0),
                    (BinKind::Add, _) => (ADD, x, 0.0),
                    _ if v_first => (SUB, x, 0.0),
                    _ => (RSUB, x, 0.0),
                };
                if let Dst::Row(id) = made {
                    v = Src::Row(id);
                }
            }
            if let (Dst::Row(id), NONE) = (dst, links[MAX_LINKS - 1].0) {
                if let Step::Un { op, dst: out, .. } = self.steps[reader[id]] {
                    if (op, reads[id]) == (UnKind::Sqrt, 1) {
                        (links[MAX_LINKS - 1].0, dst, inside[reader[id]]) = (SQRT, out, true);
                    }
                }
            }
            runs[top] = Some(Step::Run { start, links, dst });
        }

        for (at, mut step) in std::mem::take(&mut self.steps).into_iter().enumerate() {
            let unloaded = matches!(step, Step::Fill { dst: Dst::Row(id), .. } if loads[id] == 0);
            if inside[at] || unloaded {
                continue;
            }
            // The vector value this step makes, if it makes one.
            let mut made = None;
            step.visit(&mut |m| match m.row() {
                Some((&mut id, true)) if self.lanes[id] == 4 => made = Some(id),
                _ => {}
            });
            self.steps.push(runs[at].take().unwrap_or(step));
            match made {
                Some(out) if reads[out + 3] > 0 => self.steps.push(Step::Fill {
                    value: 0.0,
                    dst: Dst::Row(out + 3),
                }),
                Some(out) => self.lanes[out] = 3,
                None => {}
            }
        }
    }

    /// Replace value ids by bank rows: a value takes the first free rows when
    /// its step runs and gives them back after the last step that mentions
    /// it. Returns the steps and the rows they use.
    fn allocate_rows(mut self) -> (Vec<Step>, usize) {
        let mut steps = std::mem::take(&mut self.steps);
        let mut last = vec![0; self.lanes.len()];
        for (k, step) in steps.iter_mut().enumerate() {
            step.visit(&mut |m| {
                if let Some((id, _)) = m.row() {
                    last[self.base(*id)] = k;
                }
            });
        }
        // Which rows hold a live value, and the first row of each value.
        let mut busy: Vec<bool> = Vec::new();
        let mut row_of = vec![usize::MAX; self.lanes.len()];
        for (k, step) in steps.iter_mut().enumerate() {
            let mut mentioned = Vec::new();
            step.visit(&mut |m| {
                let Some((id, write)) = m.row() else {
                    return;
                };
                let (value, lanes) = (self.base(*id), self.lanes[*id]);
                // (Zeroing lane 3 writes into a value, it makes none.)
                if write && lanes > 0 {
                    let free = |at: &usize| !busy[*at..].iter().take(lanes).any(|&b| b);
                    let at = (0..=busy.len())
                        .find(free)
                        .expect("the rows past the last are free");
                    busy.resize(busy.len().max(at + lanes), false);
                    busy[at..at + lanes].fill(true);
                    row_of[value] = at;
                }
                assert!(
                    row_of[value] != usize::MAX,
                    "fused step reads a value no step makes"
                );
                mentioned.push(value);
                *id = row_of[value] + (*id - value);
            });
            for value in mentioned {
                if last[value] == k {
                    busy[row_of[value]..][..self.lanes[value]].fill(false);
                    last[value] = usize::MAX;
                }
            }
        }
        (steps, busy.len())
    }
}

/// What each register of one file holds while a program is being lowered.
type Regs<T> = HashMap<Reg, T>;

/// The fused program as a launchable device kernel.
#[derive(Clone)]
pub struct FusedKernel {
    /// The compiled program.
    pub program: FusedProgram,
    label: String,
    /// What [`FusedKernel::run`] executes: `program`'s instructions lowered
    /// once, in [`FusedKernel::new`], instead of being re-read every chunk.
    steps: Arc<[Step]>,
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
            steps: steps.into(),
            rows,
        }
    }

    /// The same kernel under another label. Nothing is lowered again: both
    /// kernels run one step list.
    pub fn relabeled(&self, label: &str) -> Self {
        FusedKernel {
            label: label.to_string(),
            ..self.clone()
        }
    }

    /// Whether `other` runs the very step list this kernel runs (one was
    /// [`FusedKernel::relabeled`] from the other), not an equal one.
    pub fn shares_steps_with(&self, other: &FusedKernel) -> bool {
        Arc::ptr_eq(&self.steps, &other.steps)
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
                for step in self.steps.iter() {
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

/// One link of kind `K` applied to the running value `v`.
#[inline(always)]
fn link<const K: u8>(v: f32, x: f32, k: f32) -> f32 {
    match K {
        ADD => v + x,
        SUB => v - x,
        RSUB => x - v,
        MUL => v * x,
        SQ => v * v,
        SCALE => v * k,
        SQRT => v.sqrt(),
        _ => v,
    }
}

/// A [`Step::Run`] over one chunk: four links of kinds known at compile time,
/// so the running value stays in a register and the loop vectorizes.
fn run_links<const K0: u8, const K1: u8, const K2: u8, const K3: u8>(
    o: &mut [f32],
    start: &[f32],
    x: [&[f32]; MAX_LINKS],
    k: [f32; MAX_LINKS],
) {
    let lanes = o
        .iter_mut()
        .zip(start)
        .zip(x[0])
        .zip(x[1])
        .zip(x[2])
        .zip(x[3]);
    for (((((o, &v), &x0), &x1), &x2), &x3) in lanes {
        let v = link::<K2>(link::<K1>(link::<K0>(v, x0, k[0]), x1, k[1]), x2, k[2]);
        *o = link::<K3>(v, x3, k[3]);
    }
}

/// Call the [`run_links`] of `$kinds`, one `match` per link and only on the
/// kinds `Lowering::cut_runs` puts there: a first link is not `NONE` (or
/// `RSUB`: the operands would be swapped), nothing but the fourth follows a
/// `NONE`, and the fourth is `NONE`, `ADD` or `SQRT` — 5 · (1 + 6 · (1 + 6))
/// · 3 = 645 instantiations.
macro_rules! with_kinds {
    ($kinds:ident[] $args:tt) => {
        with_kinds!(@link $kinds[0] [] $args: ADD SUB MUL SQ SCALE)
    };
    ($kinds:ident[$k0:ident] $args:tt) => {
        with_kinds!(@link $kinds[1] [$k0] $args: NONE ADD SUB RSUB MUL SQ SCALE)
    };
    ($kinds:ident[$k0:ident NONE] $args:tt) => {
        with_kinds!($kinds[$k0 NONE NONE] $args)
    };
    ($kinds:ident[$k0:ident $k1:ident] $args:tt) => {
        with_kinds!(@link $kinds[2] [$k0 $k1] $args: NONE ADD SUB RSUB MUL SQ SCALE)
    };
    ($kinds:ident[$k0:ident $k1:ident $k2:ident] $args:tt) => {
        with_kinds!(@link $kinds[3] [$k0 $k1 $k2] $args: NONE ADD SQRT)
    };
    ($kinds:ident[$k0:ident $k1:ident $k2:ident $k3:ident] $args:tt) => {
        run_links::<$k0, $k1, $k2, $k3> $args
    };
    (@link $kinds:ident[$at:literal] $chosen:tt $args:tt: $($kind:ident)*) => {
        match $kinds[$at] {
            $($kind => with_kinds!(@push $chosen $kind $kinds $args),)*
            _ => unreachable!("no run has this link here"),
        }
    };
    (@push [$($chosen:ident)*] $kind:ident $kinds:ident $args:tt) => {
        with_kinds!($kinds[$($chosen)* $kind] $args)
    };
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
    /// register as its output (it is allocated before they are consumed), and the
    /// lowering moves no read past a write of its register; this is where
    /// both are checked rather than assumed.
    ///
    /// # Panics
    /// Panics if an operand row is the destination row.
    #[inline]
    fn bind<const K: usize>(&mut self, dst: Dst, srcs: [Src; K]) -> (&mut [f32], [&[f32]; K]) {
        let (w, len, inputs) = (self.width, self.len, self.inputs);
        let span = self.base..self.base + len;
        // The bank below and above the destination (all of it, for a plane).
        let (below, o, above): (&[f32], &mut [f32], &[f32]) = match dst {
            Dst::Row(out) => {
                let (below, rest) = self.bank.split_at_mut(out * w);
                let (o, above) = rest.split_at_mut(w);
                (below, &mut o[..len], above)
            }
            Dst::Out(o) => (&self.bank, &mut self.pieces[o][self.at..][..len], &[]),
        };
        let srcs = srcs.map(|src| match src {
            Src::Input(slot) => &inputs[slot as usize][span.clone()],
            Src::Row(r) if r * w < below.len() => &below[r * w..][..len],
            Src::Row(r) => {
                let past = (r * w - below.len()).checked_sub(w);
                &above[past.expect("fused instruction reads the row it writes")..][..len]
            }
        });
        (o, srcs)
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
            Step::Run { start, links, dst } => {
                // A link that reads no row binds `start` again, unread.
                let [x0, x1, x2, x3] =
                    links.map(|(kind, x, _)| if reads_row(kind) { x } else { start });
                let (o, [s, x0, x1, x2, x3]) = self.bind(dst, [start, x0, x1, x2, x3]);
                let (kinds, k) = (links.map(|link| link.0), links.map(|link| link.2));
                with_kinds!(kinds[] (o, s, [x0, x1, x2, x3], k));
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
            Step::Grad3d { slots, out } => {
                let [f, dims, x, y, z] = slots.map(|slot| self.inputs[slot as usize]);
                let d = Dims3::from_buffer(dims);
                let lanes = lanes3(&mut self.bank[out * self.width..], self.width, self.len);
                gradient_span(f, x, y, z, d, self.base, lanes);
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
                    *o = a0[t] * b0[t] + a1[t] * b1[t] + a2[t] * b2[t];
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
        // `row0 = row0 / row0` is a step the lowering never emits (a
        // destination row is allocated before the operands' are released);
        // the executor must refuse it rather than hand out overlapping rows.
        let mut kernel = FusedKernel::new(
            fuse(&example_networks::velmag_example()).unwrap(),
            "aliased",
        );
        kernel.rows = 1;
        kernel.steps = Arc::new([Step::Bin {
            op: BinKind::Div,
            a: Src::Row(0),
            b: Src::Row(0),
            dst: Dst::Row(0),
        }]);
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
    use proptest::prelude::*;

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

    /// `roots` evaluated one primitive launch per node: what staged runs,
    /// in the host's layout (a `Vec4` root's planes interleaved into cells,
    /// as staged's download does).
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
        let planes = |root: &NodeId| lanes_of(spec.width(*root));
        (roots.iter())
            .map(|root| dfg_ocl::interleave(&vals[root], planes(root)))
            .collect()
    }

    /// [`check_on`] the mesh fields.
    fn check(spec: &NetworkSpec, roots: &[NodeId]) -> FusedKernel {
        let (n, fields) = mesh_fields();
        check_on(spec, roots, n, &fields)
    }

    /// Fuse `roots`, run the lowered kernel, and hold every output plane
    /// against the staged evaluation, bit for bit — except that a NaN
    /// matches any NaN: which of two NaN operands an instruction returns is
    /// the CPU's rule on the operand order the compiler chose, in either
    /// executor. Returns the kernel for step checks.
    fn check_on(
        spec: &NetworkSpec,
        roots: &[NodeId],
        n: usize,
        fields: &HashMap<String, Vec<f32>>,
    ) -> FusedKernel {
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
        let expected = staged(spec, roots, fields, n);
        for (slot, want) in program.outputs.iter().zip(&expected) {
            let plane = &output[slot.lane_offset * n..][..want.len()];
            let differ = plane
                .iter()
                .zip(want)
                .position(|(a, b)| a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()));
            assert_eq!(differ, None, "output `{}` differs from staged", slot.name);
        }
        kernel
    }

    /// Row passes (every step but the gradient stencils), bank rows, and row
    /// loads + stores per cell of a lowered kernel: each row operand a pass
    /// names is a load (three for a vector operand), each destination a
    /// store, and so is a `Fill`.
    fn traffic(kernel: &FusedKernel) -> (usize, usize, usize) {
        let mut steps = kernel.steps.to_vec();
        steps.retain(|step| !matches!(step, Step::Grad3d { .. }));
        let mut moved = 0;
        for step in &mut steps {
            step.visit(&mut |m| match m {
                Mention::Read(_) | Mention::Write(_) => moved += 1,
                Mention::ReadVec(_) | Mention::WriteVec(_) => moved += 3,
            });
        }
        (steps.len(), kernel.rows, moved)
    }

    /// The per-expression lowering table of docs/PERFORMANCE.md (CI prints
    /// it with `--nocapture`): what the cut is judged by is the last column.
    #[test]
    fn paper_expressions_lowering_table() {
        use dfg_expr::workloads::{Q_CRITERION, VELOCITY_MAGNITUDE, VORTICITY_MAGNITUDE};
        println!("| expression | row passes | bank rows | row loads + stores per cell |");
        println!("|---|---|---|---|");
        let rows = [
            ("vel_mag", VELOCITY_MAGNITUDE),
            ("vort_mag", VORTICITY_MAGNITUDE),
            ("q_crit", Q_CRITERION),
        ]
        .map(|(name, source)| {
            let spec = dfg_expr::compile(source).unwrap();
            let (passes, rows, moved) = traffic(&check(&spec, &[spec.result]));
            println!("| `{name}` | {passes} | {rows} | {moved} |");
            (passes, rows, moved)
        });
        // At the parent commit: (4, 2, 13), (7, 16, 25), (29, 26, 114).
        assert_eq!(rows, [(3, 2, 8), (3, 11, 11), (16, 13, 58)]);
    }

    fn copies(kernel: &FusedKernel) -> usize {
        let is_copy = |step: &&Step| matches!(step, Step::Copy { .. });
        kernel.steps.iter().filter(is_copy).count()
    }

    #[test]
    fn mul_operand_register_reallocated_before_the_add() {
        // Each square's operand dies at the `Mul`, so the fuser hands its
        // register to the very `Add` that consumes the product (and reloads
        // an input register between another `Mul` and its `Add`): a run
        // must still read the operand's value, not the register's next
        // tenant.
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
        check(&spec, &[root]);
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
        assert_eq!(copies(&kernel), 1);
        check(&spec, &[s, m]);
    }

    #[test]
    fn bare_input_root_is_one_copy() {
        let mut b = NetworkBuilder::new();
        let u = b.input("u");
        let spec = b.finish(u);
        let kernel = check(&spec, &[u]);
        assert_eq!(kernel.rows, 0);
        assert_eq!(
            kernel.steps[..],
            [Step::Copy {
                src: Src::Input(0),
                dst: Dst::Out(0)
            }]
        );
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
        assert_eq!(copies(&kernel), 2);
        // Two roots with one shared producer: the shared value takes a row.
        let mut b = NetworkBuilder::new();
        let (u, v) = (b.input("u"), b.input("v"));
        let m = b.binary(BinKind::Mul, u, v);
        let p = b.binary(BinKind::Add, m, u);
        let q = b.binary(BinKind::Sub, m, v);
        let spec = b.finish(p);
        let kernel = check(&spec, &[p, q]);
        assert_eq!(copies(&kernel), 0);
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
        // Lane 3 is zeroed only for a value something reads it from.
        let (gu_w, packed_w) = (b.decompose(gu, 3), b.decompose(packed, 3));
        let spec = b.finish(norm);
        for roots in [
            vec![gu],
            vec![cross, norm],
            vec![norm, packed, gv],
            vec![packed, packed, dot],
            vec![gu_w, norm, packed_w],
        ] {
            check(&spec, &roots);
        }
    }

    #[test]
    fn dot3_of_negative_zero_products_is_negative_zero() {
        // `dot` is `a0*b0 + a1*b1 + a2*b2` as the primitive computes it: a
        // sum seeded with `+0.0` would turn three `-0.0` products into `+0.0`.
        let mut b = NetworkBuilder::new();
        let (u, w) = (b.input("u"), b.input("w"));
        let (zero, one) = (b.constant(0.0), b.constant(1.0));
        let uu = b.binary(BinKind::Mul, u, u);
        let plus_zero = b.binary(BinKind::Mul, uu, zero);
        let minus_zero = b.unary(UnKind::Neg, plus_zero);
        let w_zero = b.binary(BinKind::Mul, w, zero);
        let unit = b.binary(BinKind::Add, w_zero, one);
        let zeros = b.compose3(minus_zero, minus_zero, minus_zero);
        let units = b.compose3(unit, unit, unit);
        let dot = b.binary(FilterOp::Dot3, zeros, units);
        let spec = b.finish(dot);
        check(&spec, &[dot]);
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
        check(&spec, &[sel, half]);
    }

    /// Values on which a changed rounding, operand order or sign shows.
    const PALETTE: [f32; 16] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40,
        -3.0e-42,
        f32::MIN_POSITIVE,
        f32::MAX,
        1.0,
        -1.0,
        0.5,
        -2.5,
        3.0e-20,
        -7.0e19,
        1.000_000_1,
        16_777_217.0,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `Add`/`Sub`/`Mul`/unary DAGs — shared subexpressions, values
        /// with several readers, `x*x`, constant factors, roots that are also
        /// operands, several roots on one value, bare inputs and constants as
        /// roots — over signed zeros, infinities and subnormals, at lengths
        /// that are multiples of no chunk width: the lowered kernel equals the
        /// staged evaluation bit for bit, at one thread and at the pool's
        /// default.
        #[test]
        fn random_dags_match_staged_bit_for_bit(
            nodes in prop::collection::vec((0u8..8, 0usize..1000, 0usize..1000), 1..16),
            roots in prop::collection::vec(0usize..1000, 1..4),
            picks in prop::collection::vec(0usize..16, 5..6),
            n in 1usize..20_000,
        ) {
            let mut b = NetworkBuilder::new();
            let mut fields = HashMap::new();
            let mut values = Vec::new();
            for (t, name) in ["a", "b", "c"].into_iter().enumerate() {
                let stride = 2 * picks[t] + 1;
                let field = (0..n).map(|i| PALETTE[(i * stride + picks[t + 1]) % 16]).collect();
                fields.insert(name.to_string(), field);
                values.push(b.input(name));
            }
            values.push(b.constant(PALETTE[picks[3]]));
            values.push(b.constant(PALETTE[picks[4]]));
            for (op, i, j) in nodes {
                let (x, y) = (values[i % values.len()], values[j % values.len()]);
                values.push(match op {
                    0 => b.binary(BinKind::Sub, x, y),
                    1 => b.binary(BinKind::Mul, x, y),
                    2 => b.binary(BinKind::Mul, x, x),
                    3 => b.unary(UnKind::Neg, x),
                    4 => b.unary(UnKind::Abs, x),
                    5 => b.unary(UnKind::Sqrt, x),
                    _ => b.binary(BinKind::Add, x, y),
                });
            }
            let roots: Vec<NodeId> = roots.iter().map(|r| values[r % values.len()]).collect();
            let spec = b.finish(roots[0]);
            check_on(&spec, &roots, n, &fields);
            dfg_exec::with_serial(|| check_on(&spec, &roots, n, &fields));
        }
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
