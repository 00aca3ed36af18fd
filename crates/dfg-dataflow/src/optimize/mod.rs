//! The network optimizer: a multi-pass pipeline over [`NetworkSpec`]s.
//!
//! The paper's front-end applies only a *limited* common-subexpression
//! elimination (constants, inputs, and decompose nodes — see
//! [`crate::NetworkBuilder`]). That limitation is observable: Figure 3C
//! contains `s_1 = 0.5*(du[1] + dv[0])` and `s_3 = 0.5*(dv[0] + du[1])`,
//! which are mathematically identical but stay distinct filters, and the
//! published Table II kernel counts (57 roundtrip / 67 staged for the
//! Q-criterion) include the duplicates.
//!
//! [`optimize`] goes further, in the spirit of transformation-based code
//! generation (Loo.py) and dataflow-graph optimization (DaCe):
//!
//! * **global CSE** ([`OptLevel::Cse`] and above): hash-consed value
//!   numbering with canonicalized operand order for commutative
//!   operations — IEEE-754 addition and multiplication are commutative
//!   bit-exactly for non-NaN values;
//! * **constant folding** ([`OptLevel::Default`] and above): filters whose
//!   inputs are all constants are evaluated at compile time using exactly
//!   the arithmetic the simulated device executes (see
//!   [`eval_scalar`]), so folded networks stay bit-identical;
//! * **bit-exact identity rewrites** ([`OptLevel::Default`] and above):
//!   `x*1 → x`, `x/1 → x`, `x-0 → x`, `x+(-0.0) → x` (note `x+0.0` is
//!   *not* an identity: `-0.0 + 0.0 == +0.0`), `neg(neg(x)) → x`,
//!   `min(x,x)/max(x,x) → x`, and dead-branch elimination for `select`
//!   with a constant condition;
//! * **fast-math rewrites** ([`OptLevel::Fast`] only): value-changing
//!   algebraic simplifications such as `sqrt(x)^2 → x` and
//!   `sqrt(x*x) → |x|`, within 1 ulp on well-conditioned data but *not*
//!   bit-exact (and observably different on negative/NaN edge cases);
//! * **dead-code elimination** (every level above `Off`): each pass
//!   rebuilds the network from its roots, dropping unreachable nodes —
//!   including statements shadowed by later rebindings.
//!
//! Passes run in a loop (fold → rewrite → CSE) until a fixpoint, so
//! cascades like `x*(2.0-1.0) → x*1.0 → x` resolve fully. Every pass
//! emits an `opt.*` trace span when a tracer is supplied
//! ([`optimize_traced`]), and the returned [`OptStats`] quantifies what
//! was eliminated.

use std::collections::HashMap;

use dfg_trace::{span, Tracer};

use crate::op::FilterOp;
use crate::schedule::{Schedule, ScheduleError};
use crate::spec::{FilterNode, NetworkSpec, NodeId};

mod cse;
mod fold;
mod rewrite;

pub use fold::eval_scalar;

/// How aggressively [`optimize`] transforms a network.
///
/// Ordered by aggressiveness: `Off < Cse < Default < Fast`. Levels up to
/// and including `Default` are **bit-exact** for non-NaN data; `Fast`
/// opts into value-changing rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No transformation at all. The network executes exactly as lowered,
    /// preserving the paper's Table II counts.
    Off,
    /// Global CSE only (value numbering with commutative
    /// canonicalization) plus dead-code elimination — the D2 ablation's
    /// "full CSE" level.
    Cse,
    /// CSE + constant folding + bit-exact identity rewrites + dead-branch
    /// elimination. Outputs are bit-identical to `Off` for non-NaN data.
    Default,
    /// Everything in `Default` plus value-changing fast-math rewrites
    /// (`sqrt(x)^2 → x`, `sqrt(x*x) → |x|`, `pow(x,2) → x*x`, …).
    Fast,
}

impl OptLevel {
    /// All levels, least to most aggressive.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::Off,
        OptLevel::Cse,
        OptLevel::Default,
        OptLevel::Fast,
    ];

    /// Lower-case name used on CLIs and in reports.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Off => "off",
            OptLevel::Cse => "cse",
            OptLevel::Default => "default",
            OptLevel::Fast => "fast",
        }
    }

    /// Parse a level name (`off|none`, `cse`, `default|on`, `fast`).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s {
            "off" | "none" => Some(OptLevel::Off),
            "cse" => Some(OptLevel::Cse),
            "default" | "on" => Some(OptLevel::Default),
            "fast" => Some(OptLevel::Fast),
            _ => None,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`optimize`] run eliminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// Level the pipeline ran at.
    pub level: OptLevel,
    /// Nodes before optimization (reachable or not).
    pub nodes_before: usize,
    /// Nodes in the optimized network (all reachable from the roots).
    pub nodes_after: usize,
    /// Compute filters (non-source nodes) reachable before optimization —
    /// the kernel launches a staged/roundtrip execution would perform.
    pub filters_before: usize,
    /// Compute filters after optimization.
    pub filters_after: usize,
    /// Duplicate filter invocations merged by value numbering.
    pub merged: usize,
    /// Constant-folding reductions (including dead `select` branches).
    pub folded: usize,
    /// Identity / fast-math rewrites applied.
    pub rewritten: usize,
    /// Pipeline iterations until fixpoint.
    pub passes: usize,
    /// Modeled per-cell bytes of intermediate storage eliminated (sum of
    /// removed filters' output widths).
    pub bytes_saved_per_cell: u64,
}

impl OptStats {
    /// A zeroed report for `level` over an untouched `spec`.
    fn unchanged(level: OptLevel, spec: &NetworkSpec, sched: &Schedule) -> OptStats {
        let filters = filter_count(spec, sched);
        OptStats {
            level,
            nodes_before: spec.len(),
            nodes_after: spec.len(),
            filters_before: filters,
            filters_after: filters,
            merged: 0,
            folded: 0,
            rewritten: 0,
            passes: 0,
            bytes_saved_per_cell: 0,
        }
    }

    /// Compute filters eliminated — the per-execution kernel-launch saving
    /// under the staged and roundtrip strategies.
    pub fn filters_eliminated(&self) -> usize {
        self.filters_before.saturating_sub(self.filters_after)
    }
}

/// Result of an [`optimize`] run: the rewritten network, the requested
/// roots remapped into it (same order, duplicates preserved), and what
/// the pipeline did.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The optimized network.
    pub spec: NetworkSpec,
    /// `roots[i]` is where the i-th requested root lives in `spec`.
    pub roots: Vec<NodeId>,
    /// What was eliminated.
    pub stats: OptStats,
}

fn filter_count(spec: &NetworkSpec, sched: &Schedule) -> usize {
    sched
        .order
        .iter()
        .filter(|&&id| !spec.node(id).op.is_source())
        .count()
}

fn intermediate_bytes(spec: &NetworkSpec, sched: &Schedule) -> u64 {
    sched
        .order
        .iter()
        .filter(|&&id| !spec.node(id).op.is_source())
        .map(|&id| spec.width(id).bytes_per_elem())
        .sum()
}

/// Run the optimizer pipeline at `level`, keeping every node in `roots`
/// live (multi-output derives pass the result plus each named binding).
///
/// Levels up to [`OptLevel::Default`] produce networks whose execution is
/// bit-identical to the input for non-NaN data on the simulated device
/// (which evaluates with the same host `f32` arithmetic the folder uses).
/// [`OptLevel::Off`] returns the spec untouched — not even dead code is
/// removed — so default-configured engines keep the paper's counts.
pub fn optimize(
    spec: &NetworkSpec,
    roots: &[NodeId],
    level: OptLevel,
) -> Result<Optimized, ScheduleError> {
    optimize_traced(spec, roots, level, None)
}

/// [`optimize`] with per-pass `opt.*` trace spans (`opt.fold`,
/// `opt.rewrite`, `opt.cse`, closed with their reduction counts) plus a
/// parent `opt.pipeline` span carrying the final [`OptStats`].
pub fn optimize_traced(
    spec: &NetworkSpec,
    roots: &[NodeId],
    level: OptLevel,
    tracer: Option<&Tracer>,
) -> Result<Optimized, ScheduleError> {
    let initial = Schedule::for_roots(spec, roots)?;
    if level == OptLevel::Off {
        return Ok(Optimized {
            spec: spec.clone(),
            roots: roots.to_vec(),
            stats: OptStats::unchanged(level, spec, &initial),
        });
    }
    let mut stats = OptStats::unchanged(level, spec, &initial);
    stats.filters_before = filter_count(spec, &initial);
    let bytes_before = intermediate_bytes(spec, &initial);

    let pipeline = span!(tracer, "opt.pipeline", level = level.name());
    let mut cur = spec.clone();
    let mut cur_roots = roots.to_vec();
    // Fixpoint loop; 8 iterations is far beyond what any cascade needs
    // (each extra iteration requires a pass to have newly enabled another).
    const MAX_PASSES: usize = 8;
    for _ in 0..MAX_PASSES {
        stats.passes += 1;
        let mut changed = false;
        if level >= OptLevel::Default {
            let g = span!(tracer, "opt.fold");
            let out = fold::run(&cur, &cur_roots)?;
            drop(g.meta("folded", out.changed as u64));
            stats.folded += out.changed;
            changed |= apply(&mut cur, &mut cur_roots, out);

            let fast = level >= OptLevel::Fast;
            let g = span!(tracer, "opt.rewrite", fast = fast);
            let out = rewrite::run(&cur, &cur_roots, fast)?;
            drop(g.meta("rewritten", out.changed as u64));
            stats.rewritten += out.changed;
            changed |= apply(&mut cur, &mut cur_roots, out);
        }
        {
            let g = span!(tracer, "opt.cse");
            let out = cse::run(&cur, &cur_roots)?;
            drop(g.meta("merged", out.changed as u64));
            stats.merged += out.changed;
            changed |= apply(&mut cur, &mut cur_roots, out);
        }
        if !changed {
            break;
        }
    }
    let final_sched = Schedule::for_roots(&cur, &cur_roots)?;
    stats.nodes_after = cur.len();
    stats.filters_after = filter_count(&cur, &final_sched);
    stats.bytes_saved_per_cell =
        bytes_before.saturating_sub(intermediate_bytes(&cur, &final_sched));
    drop(
        pipeline
            .meta("nodes_before", stats.nodes_before as u64)
            .meta("nodes_after", stats.nodes_after as u64)
            .meta("filters_eliminated", stats.filters_eliminated() as u64),
    );
    debug_assert!(cur.validate().is_ok(), "optimizer produced invalid network");
    Ok(Optimized {
        spec: cur,
        roots: cur_roots,
        stats,
    })
}

/// Replace the working spec/roots with a pass result; reports whether
/// anything observable changed (rewrites applied or nodes dropped).
fn apply(cur: &mut NetworkSpec, cur_roots: &mut Vec<NodeId>, out: PassOut) -> bool {
    let changed = out.changed > 0 || out.spec.nodes != cur.nodes || out.roots != *cur_roots;
    *cur = out.spec;
    *cur_roots = out.roots;
    changed
}

/// An order-insensitive structural hash of the subgraph feeding
/// `spec.result`: every node hashes as its operation plus its inputs'
/// hashes, with *sorted* input hashes for commutative operations. Two
/// expressions that differ only in commutative operand order (`u*u+v*v`
/// vs `v*v+u*u`) — or in node numbering, dead code, or binding names —
/// collide, and IEEE-754 `+`/`*` commutativity makes their executions
/// bit-identical for non-NaN data. This is the coalescing key `dfg-serve`
/// groups requests by.
pub fn canonical_hash(spec: &NetworkSpec) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut memo: Vec<Option<u64>> = vec![None; spec.len()];
    // Post-order walk with an explicit stack (expression chains from the
    // property tests can be deep).
    let mut stack: Vec<(NodeId, bool)> = vec![(spec.result, false)];
    while let Some((id, ready)) = stack.pop() {
        if memo[id.idx()].is_some() {
            continue;
        }
        let node = spec.node(id);
        if !ready {
            stack.push((id, true));
            for &input in &node.inputs {
                stack.push((input, false));
            }
            continue;
        }
        let mut children: Vec<u64> = node
            .inputs
            .iter()
            .map(|i| memo[i.idx()].expect("post-order"))
            .collect();
        if cse::is_commutative(&node.op) {
            children.sort_unstable();
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        cse::op_key(&node.op).hash(&mut h);
        children.hash(&mut h);
        memo[id.idx()] = Some(h.finish());
    }
    memo[spec.result.idx()].expect("result hashed")
}

/// Shared shape of one rebuild pass over a network: the rewritten spec,
/// the remapped roots, and how many reductions the pass performed.
pub(crate) struct PassOut {
    pub spec: NetworkSpec,
    pub roots: Vec<NodeId>,
    pub changed: usize,
}

/// Shared rebuild machinery for the passes: nodes are pushed in schedule
/// order, and aliasing a named node onto a survivor moves the name over
/// when the survivor is unnamed (first name wins otherwise; the engine
/// tracks renamed bindings through the returned root remap, so lookups
/// never break).
pub(crate) struct Rebuild {
    pub nodes: Vec<FilterNode>,
}

impl Rebuild {
    pub fn new(capacity: usize) -> Self {
        Rebuild {
            nodes: Vec::with_capacity(capacity),
        }
    }

    pub fn push(&mut self, op: FilterOp, inputs: Vec<NodeId>, name: Option<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(FilterNode { op, inputs, name });
        id
    }

    /// Point a (possibly named) node at an already-built survivor.
    pub fn alias(&mut self, name: Option<&str>, target: NodeId) -> NodeId {
        if let Some(n) = name {
            if self.nodes[target.idx()].name.is_none() {
                self.nodes[target.idx()].name = Some(n.to_string());
            }
        }
        target
    }

    /// Finish the rebuild: remap the roots and package the spec (result =
    /// remapped first root).
    pub fn finish(
        self,
        remap: &HashMap<NodeId, NodeId>,
        roots: &[NodeId],
        changed: usize,
    ) -> PassOut {
        let roots: Vec<NodeId> = roots.iter().map(|r| remap[r]).collect();
        PassOut {
            spec: NetworkSpec {
                nodes: self.nodes,
                result: roots[0],
            },
            roots,
            changed,
        }
    }
}

#[cfg(test)]
mod tests;
