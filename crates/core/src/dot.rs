//! Graphviz DOT rendering of SLP graphs.
//!
//! Used by the `dot` trace facet (the pass dumps graphs at the
//! pre-reorder, post-reorder and final stages, see [`crate::pass`]) and by
//! the `snslp-bench graphdump` diagnostic tool. The output is plain `dot` language:
//! pipe it through `dot -Tsvg` to visualize.

use std::fmt::Write as _;

use snslp_ir::printer::value_name;
use snslp_ir::Function;
use snslp_trace::DecisionId;

use crate::chain::Sign;
use crate::graph::{GatherKind, NodeKind, SlpGraph};

/// Renders `graph` as a DOT digraph named `title`. Vectorizable nodes are
/// boxes; gathers are red ovals annotated with their cause; edges point
/// from a node to its operand bundles, labelled with the operand index.
pub fn graph_to_dot(f: &Function, graph: &SlpGraph, title: &str) -> String {
    graph_to_dot_tagged(f, graph, title, None)
}

/// [`graph_to_dot`] with a decision anchor: every node label carries a
/// trailing `d=<decision>#n<i>` line, so a DOT dump can be joined back to
/// the remark, profiler span and report cost entry minted for the same
/// seed bundle.
pub fn graph_to_dot_tagged(
    f: &Function,
    graph: &SlpGraph,
    title: &str,
    decision: Option<&DecisionId>,
) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "digraph \"{}\" {{", escape(title));
    let _ = writeln!(
        out,
        "  label=\"{} (width {})\";",
        escape(title),
        graph.width
    );
    let _ = writeln!(out, "  node [fontname=\"monospace\"];");
    for (i, node) in graph.nodes.iter().enumerate() {
        let lanes: Vec<String> = node.scalars.iter().map(|&s| value_name(f, s)).collect();
        let (shape, color, kind) = node_style(&node.kind);
        let anchor = match decision {
            Some(id) => format!("\\nd={}#n{i}", escape(&id.render())),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "  n{i} [shape={shape}, color={color}, label=\"#{i} {}\\n[{}]{anchor}\"];",
            escape(&kind),
            escape(&lanes.join(", ")),
        );
    }
    for (i, node) in graph.nodes.iter().enumerate() {
        for (j, &op) in node.operands.iter().enumerate() {
            let _ = writeln!(out, "  n{i} -> n{op} [label=\"{j}\"];");
        }
    }
    out.push_str("}\n");
    out
}

/// `(shape, color, label)` for one node kind.
fn node_style(kind: &NodeKind) -> (&'static str, &'static str, String) {
    match kind {
        NodeKind::Vector => ("box", "black", "Vector".to_string()),
        NodeKind::Load => ("box", "blue", "Load".to_string()),
        NodeKind::LoadReversed => ("box", "blue", "LoadReversed".to_string()),
        NodeKind::Store => ("box", "blue", "Store".to_string()),
        NodeKind::Alt { ops } => {
            let ops: Vec<String> = ops.iter().map(|o| format!("{o:?}")).collect();
            ("box", "purple", format!("Alt[{}]", ops.join(",")))
        }
        NodeKind::Permute { mask } => ("box", "orange", format!("Permute{mask:?}")),
        NodeKind::Reduction(info) => (
            "box",
            "darkgreen",
            format!("Reduction({:?}, {} interior)", info.op, info.tree.len()),
        ),
        NodeKind::Super(info) => {
            let signs: Vec<String> = info
                .slot_signs
                .iter()
                .map(|slot| {
                    slot.iter()
                        .map(|s| match s {
                            Sign::Plus => '+',
                            Sign::Minus => '-',
                        })
                        .collect()
                })
                .collect();
            (
                "box3d",
                "darkgreen",
                format!(
                    "Super(size {}, slots {}, leaf {}, trunk {})",
                    info.size(),
                    signs.join("|"),
                    info.leaf_moves,
                    info.trunk_assisted_moves,
                ),
            )
        }
        NodeKind::Gather { kind, why } => {
            let kind = match kind {
                GatherKind::Constants => "consts",
                GatherKind::Splat => "splat",
                GatherKind::Generic => "generic",
            };
            ("oval", "red", format!("Gather({kind}: {})", why.code()))
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SlpConfig, SlpMode};
    use crate::ctx::BlockCtx;
    use crate::graph::build_graph;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    fn tiny() -> (Function, Vec<snslp_ir::InstId>) {
        let mut fb = FunctionBuilder::new(
            "t",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let b0 = fb.load(ScalarType::I64, b);
        let pb1 = fb.ptradd_const(b, 8);
        let b1 = fb.load(ScalarType::I64, pb1);
        let r0 = fb.add(b0, b0);
        let r1 = fb.add(b1, b1);
        let s0 = fb.store(a, r0);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        (fb.finish(), vec![s0, s1])
    }

    #[test]
    fn dot_output_is_well_formed() {
        let (f, seeds) = tiny();
        let ctx = BlockCtx::compute(&f, f.entry());
        let cfg = SlpConfig::new(SlpMode::Slp);
        let g = build_graph(&f, &ctx, &cfg, &seeds);
        let dot = graph_to_dot(&f, &g, "tiny/slp");
        assert!(dot.starts_with("digraph \"tiny/slp\" {"));
        assert!(dot.trim_end().ends_with('}'));
        // One DOT node per graph node, and the root is a Store box.
        for i in 0..g.nodes.len() {
            assert!(dot.contains(&format!("n{i} [")), "{dot}");
        }
        assert!(dot.contains("Store"));
        // Edges reference declared nodes only.
        assert!(dot.contains("n0 -> n"));
    }

    #[test]
    fn tagged_output_anchors_every_node_to_the_decision() {
        let (f, seeds) = tiny();
        let ctx = BlockCtx::compute(&f, f.entry());
        let cfg = SlpConfig::new(SlpMode::Slp);
        let g = build_graph(&f, &ctx, &cfg, &seeds);
        let id = DecisionId::new("t", "entry", 0, seeds[0].index() as u32);
        let dot = graph_to_dot_tagged(&f, &g, "tiny/slp", Some(&id));
        for i in 0..g.nodes.len() {
            assert!(
                dot.contains(&format!("d={}#n{i}", id.render())),
                "node {i} missing anchor in:\n{dot}"
            );
        }
        // The untagged form stays anchor-free.
        assert!(!graph_to_dot(&f, &g, "tiny/slp").contains("d=@"));
    }

    #[test]
    fn gather_nodes_carry_their_cause() {
        // Non-consecutive stores gather with a cause in the label.
        let (f, seeds) = tiny();
        let ctx = BlockCtx::compute(&f, f.entry());
        let cfg = SlpConfig::new(SlpMode::Slp);
        // Reverse the seed order: stores are consecutive in reverse, so
        // the bundle is non-consecutive forward → store gather.
        let rev: Vec<_> = seeds.iter().rev().copied().collect();
        let g = build_graph(&f, &ctx, &cfg, &rev);
        let dot = graph_to_dot(&f, &g, "rev");
        assert!(dot.contains("Gather("), "{dot}");
        assert!(dot.contains("non-consecutive-stores"), "{dot}");
    }
}
