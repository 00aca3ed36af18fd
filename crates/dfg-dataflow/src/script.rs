//! Script emission.
//!
//! §III-B.1: *"The process optionally creates a Python script that outlines
//! all API calls, which can be inspected by the user."* We emit the
//! equivalent Rust builder-API calls, which serve the same inspection and
//! replay purpose.

use crate::op::FilterOp;
use crate::spec::NetworkSpec;

impl NetworkSpec {
    /// Render this network as the sequence of [`crate::NetworkBuilder`] calls
    /// that would reconstruct it.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        out.push_str("let mut b = NetworkBuilder::new();\n");
        for (id, node) in self.iter() {
            let var = format!("n{}", id.0);
            let line = match &node.op {
                FilterOp::Input { name, small: false } => {
                    format!("let {var} = b.input(\"{name}\");")
                }
                FilterOp::Input { name, small: true } => {
                    format!("let {var} = b.small_input(\"{name}\");")
                }
                FilterOp::Const(v) => format!("let {var} = b.constant({v:?});"),
                FilterOp::Decompose(c) => {
                    format!("let {var} = b.decompose(n{}, {c});", node.inputs[0].0)
                }
                FilterOp::Grad3d => format!(
                    "let {var} = b.grad3d(n{}, n{}, n{}, n{}, n{});",
                    node.inputs[0].0,
                    node.inputs[1].0,
                    node.inputs[2].0,
                    node.inputs[3].0,
                    node.inputs[4].0
                ),
                FilterOp::Select => format!(
                    "let {var} = b.select(n{}, n{}, n{});",
                    node.inputs[0].0, node.inputs[1].0, node.inputs[2].0
                ),
                FilterOp::Compose3 => format!(
                    "let {var} = b.compose3(n{}, n{}, n{});",
                    node.inputs[0].0, node.inputs[1].0, node.inputs[2].0
                ),
                op if op.arity().0 == 1 => format!(
                    "let {var} = b.unary({}, n{});",
                    variant_name(op),
                    node.inputs[0].0
                ),
                op => format!(
                    "let {var} = b.binary({}, n{}, n{});",
                    variant_name(op),
                    node.inputs[0].0,
                    node.inputs[1].0
                ),
            };
            out.push_str(&line);
            if let Some(name) = &node.name {
                out.push_str(&format!(" // {name}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("let spec = b.finish(n{});\n", self.result.0));
        out
    }
}

/// The Rust expression `unary`/`binary` take for `op`.
fn variant_name(op: &FilterOp) -> String {
    match op {
        FilterOp::Bin(k) => format!("BinKind::{k:?}"),
        FilterOp::Un(k) => format!("UnKind::{k:?}"),
        other => format!("FilterOp::{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::example_networks;

    #[test]
    fn script_mentions_every_node() {
        let spec = example_networks::velmag_example();
        let script = spec.to_script();
        for i in 0..spec.len() {
            assert!(script.contains(&format!("n{i}")), "missing n{i}:\n{script}");
        }
        assert!(script.contains("b.finish("));
        assert!(script.contains("// v_mag"));
    }

    #[test]
    fn script_renders_gradients_and_decompose() {
        let spec = example_networks::gradmag_example();
        let script = spec.to_script();
        assert!(script.contains("b.grad3d("));
        assert!(script.contains("b.small_input(\"dims\")"));
    }
}
