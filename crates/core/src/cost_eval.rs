//! Graph cost evaluation (paper Fig. 1 step 4: "Estimate cost of graph").
//!
//! The cost of a graph is the sum over nodes of
//! `vector-cost − scalar-cost`, plus one extract per vectorized scalar
//! whose value is still needed outside the vector code. Negative totals
//! are savings; the pass vectorizes when `total < threshold` (usually 0).

use snslp_cost::{params, CostModel};
use snslp_ir::{Function, InstId, InstKind, Type};

use crate::chain::Sign;
use crate::ctx::BlockCtx;
use crate::graph::{GatherKind, Node, NodeKind, SlpGraph};

/// Itemized cost of one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Per-node deltas, indexed like `graph.nodes`.
    pub node_costs: Vec<i32>,
    /// Total extract cost for externally used vectorized scalars.
    pub extract_cost: i32,
    /// Sum of everything.
    pub total: i32,
}

/// Computes the cost of `graph`.
pub fn evaluate(
    f: &Function,
    ctx: &BlockCtx,
    graph: &SlpGraph,
    model: &CostModel,
) -> CostBreakdown {
    let width = graph.width;
    let node_costs: Vec<i32> = graph
        .nodes
        .iter()
        .map(|n| node_cost(f, n, width, model))
        .collect();

    // Extract costs: a vectorized scalar used by anything that is not
    // itself replaced by vector code needs one lane extract.
    let mut extract_cost = 0;
    for (&inst, &node) in graph.covered.iter() {
        if f.ty(inst) == Type::Void {
            continue; // stores produce no value
        }
        // Reduction roots produce a scalar directly (their node cost
        // already includes the lane-0 extract); interiors are single-use.
        if matches!(graph.nodes[node].kind, NodeKind::Reduction(_)) {
            continue;
        }
        let external = ctx
            .users_of(inst)
            .iter()
            .any(|u| !graph.covered.contains_key(u));
        // A value feeding a gather bundle is also external: the gather
        // builds a vector from *scalars*, so the lane must be extracted.
        let feeds_gather = graph
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Gather { .. }) && n.scalars.contains(&inst));
        if external || feeds_gather {
            extract_cost += model.extract_cost();
        }
    }

    let total: i32 = node_costs.iter().sum::<i32>() + extract_cost;
    CostBreakdown {
        node_costs,
        extract_cost,
        total,
    }
}

fn node_cost(f: &Function, node: &Node, width: u8, model: &CostModel) -> i32 {
    snslp_trace::bump(snslp_trace::Counter::CostModelQueries);
    let w = i32::from(width);
    match &node.kind {
        NodeKind::Gather {
            kind: GatherKind::Constants,
            ..
        } => 0,
        NodeKind::Gather {
            kind: GatherKind::Splat,
            ..
        } => {
            // Splatting a loaded value folds into a broadcast load
            // (`movddup`/`vbroadcasts*`); other splats pay one shuffle.
            if matches!(f.kind(node.scalars[0]), InstKind::Load { .. }) {
                0
            } else {
                params::SHUFFLE
            }
        }
        NodeKind::Gather {
            kind: GatherKind::Generic,
            ..
        } => model.gather_cost(width),
        NodeKind::Permute { .. } => params::SHUFFLE,
        NodeKind::Load => {
            let scalar: i32 = w * params::LOAD;
            params::LOAD - scalar
        }
        NodeKind::LoadReversed => {
            let scalar: i32 = w * params::LOAD;
            params::LOAD + params::SHUFFLE - scalar
        }
        NodeKind::Store => {
            let scalar: i32 = w * params::STORE;
            params::STORE - scalar
        }
        NodeKind::Vector => {
            let scalar: i32 = node.scalars.iter().map(|&s| model.compile_cost(f, s)).sum();
            let vec_cost = model.compile_cost_of(
                f,
                f.kind(node.scalars[0]),
                vector_ty(f, node.scalars[0], width),
            );
            vec_cost - scalar
        }
        NodeKind::Alt { ops } => {
            let scalar: i32 = node.scalars.iter().map(|&s| model.compile_cost(f, s)).sum();
            let kind = InstKind::BinaryLanewise {
                ops: ops.clone().into_boxed_slice(),
                lhs: node.scalars[0],
                rhs: node.scalars[0],
            };
            let vec_cost = model.compile_cost_of(f, &kind, vector_ty(f, node.scalars[0], width));
            vec_cost - scalar
        }
        NodeKind::Reduction(info) => {
            // Scalar side: the whole tree of (leaves−1) ops disappears.
            let scalar: i32 = info.tree.iter().map(|&t| model.compile_cost(f, t)).sum();
            // Vector side: combine the partial-sum groups, then log2(VF)
            // shuffle+op steps, one extract, and any leftover scalar ops.
            let op_cost = {
                let kind = InstKind::Binary {
                    op: info.op,
                    lhs: node.scalars[0],
                    rhs: node.scalars[0],
                };
                model.compile_cost_of(f, &kind, vector_ty(f, node.scalars[0], width))
            };
            let groups = node.operands.len() as i32;
            let log2 = (width as f64).log2() as i32;
            let mut vec_cost = (groups - 1) * op_cost;
            vec_cost += log2 * (params::SHUFFLE + op_cost);
            vec_cost += model.extract_cost();
            vec_cost += info.leftover.len() as i32 * op_cost;
            vec_cost - scalar
        }
        NodeKind::Super(info) => {
            // Scalar side: every trunk instruction is removed.
            let scalar: i32 = info
                .trunks
                .iter()
                .flatten()
                .map(|&t| model.compile_cost(f, t))
                .sum();
            // Vector side: one combining op per slot beyond the first,
            // plus a fix-up op when slot 0 is not all-plus.
            let vty = vector_ty(f, node.scalars[0], width);
            let mut vec_cost = 0;
            for (j, signs) in info.slot_signs.iter().enumerate() {
                let uniform = signs.iter().all(|&s| s == signs[0]);
                if j == 0 && signs.iter().all(|&s| s == Sign::Plus) {
                    continue; // slot 0 feeds through for free
                }
                // identity ∘ slot0 with sub/div (uniform) or addsub.
                let cost = if uniform {
                    let op = match signs[0] {
                        Sign::Plus => info.family.direct(),
                        Sign::Minus => info.family.inverse(),
                    };
                    model.compile_cost_of(
                        f,
                        &InstKind::Binary {
                            op,
                            lhs: node.scalars[0],
                            rhs: node.scalars[0],
                        },
                        vty,
                    )
                } else {
                    let ops: Vec<snslp_ir::BinOp> = signs
                        .iter()
                        .map(|s| match s {
                            Sign::Plus => info.family.direct(),
                            Sign::Minus => info.family.inverse(),
                        })
                        .collect();
                    model.compile_cost_of(
                        f,
                        &InstKind::BinaryLanewise {
                            ops: ops.into_boxed_slice(),
                            lhs: node.scalars[0],
                            rhs: node.scalars[0],
                        },
                        vty,
                    )
                };
                vec_cost += cost;
            }
            vec_cost - scalar
        }
    }
}

fn vector_ty(f: &Function, scalar: InstId, width: u8) -> Type {
    match f.ty(scalar) {
        Type::Scalar(st) => Type::vector(st, width),
        ty => ty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SlpConfig, SlpMode};
    use crate::graph::build_graph;
    use snslp_ir::{FunctionBuilder, InstId, Param, ScalarType};

    /// Paper Figure 2 kernel (see `graph::tests::fig2`).
    fn fig2() -> (Function, Vec<InstId>) {
        let mut fb = FunctionBuilder::new(
            "fig2",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("c"),
                Param::noalias_ptr("d"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let c = fb.func().param(2);
        let d = fb.func().param(3);
        let ld = |base: InstId, k: i64, fb: &mut FunctionBuilder| {
            let q = fb.ptradd_const(base, 8 * k);
            fb.load(ScalarType::I64, q)
        };
        let b0 = ld(b, 0, &mut fb);
        let c0 = ld(c, 0, &mut fb);
        let d1 = ld(d, 1, &mut fb);
        let t0 = fb.sub(b0, c0);
        let r0 = fb.add(t0, d1);
        let s0 = fb.store(a, r0);
        let d2 = ld(d, 2, &mut fb);
        let c1 = ld(c, 1, &mut fb);
        let b1 = ld(b, 1, &mut fb);
        let t1 = fb.sub(d2, c1);
        let r1 = fb.add(t1, b1);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        (fb.finish(), vec![s0, s1])
    }

    /// Paper Figure 3 kernel (see `supernode::tests::fig3`).
    fn fig3() -> (Function, Vec<InstId>) {
        let mut fb = FunctionBuilder::new(
            "fig3",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("c"),
                Param::noalias_ptr("d"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let c = fb.func().param(2);
        let d = fb.func().param(3);
        let ld = |base: InstId, k: i64, fb: &mut FunctionBuilder| {
            let q = fb.ptradd_const(base, 8 * k);
            fb.load(ScalarType::I64, q)
        };
        let b0 = ld(b, 0, &mut fb);
        let c0 = ld(c, 0, &mut fb);
        let d0 = ld(d, 0, &mut fb);
        let t0 = fb.sub(b0, c0);
        let r0 = fb.add(t0, d0);
        let s0 = fb.store(a, r0);
        let b1 = ld(b, 1, &mut fb);
        let d1 = ld(d, 1, &mut fb);
        let c1 = ld(c, 1, &mut fb);
        let t1 = fb.add(b1, d1);
        let r1 = fb.sub(t1, c1);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        (fb.finish(), vec![s0, s1])
    }

    fn cost_of(f: &Function, seeds: &[InstId], mode: SlpMode) -> i32 {
        let ctx = crate::ctx::BlockCtx::compute(f, f.entry());
        let cfg = SlpConfig::new(mode);
        let g = build_graph(f, &ctx, &cfg, seeds);
        evaluate(f, &ctx, &g, &cfg.model).total
    }

    #[test]
    fn fig2_slp_cost_is_zero() {
        // Paper §III-B: "The total cost is 0, which renders the whole SLP
        // graph non-profitable to vectorize."
        let (f, seeds) = fig2();
        assert_eq!(cost_of(&f, &seeds, SlpMode::Slp), 0);
        assert_eq!(cost_of(&f, &seeds, SlpMode::Lslp), 0);
    }

    #[test]
    fn fig2_snslp_cost_is_minus_six() {
        // Paper §III-B: "the total cost is now a profitable −6".
        let (f, seeds) = fig2();
        assert_eq!(cost_of(&f, &seeds, SlpMode::SnSlp), -6);
    }

    #[test]
    fn fig3_slp_cost_is_plus_four() {
        // Paper §III-C: "The total cost of SLP is +4 which is not
        // profitable for vectorization."
        let (f, seeds) = fig3();
        assert_eq!(cost_of(&f, &seeds, SlpMode::Slp), 4);
        assert_eq!(cost_of(&f, &seeds, SlpMode::Lslp), 4);
    }

    #[test]
    fn fig3_snslp_cost_is_minus_six() {
        // Paper §III-C: "The final cost of Super-Node SLP is −6".
        let (f, seeds) = fig3();
        assert_eq!(cost_of(&f, &seeds, SlpMode::SnSlp), -6);
    }

    #[test]
    fn external_use_charges_an_extract() {
        // Same as a trivially vectorizable kernel, but lane 0's sum is
        // also stored scalar elsewhere → one extract.
        let mut fb = FunctionBuilder::new(
            "t",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("e"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let e = fb.func().param(2);
        let b0 = fb.load(ScalarType::I64, b);
        let pb1 = fb.ptradd_const(b, 8);
        let b1 = fb.load(ScalarType::I64, pb1);
        let r0 = fb.add(b0, b0);
        let r1 = fb.add(b1, b1);
        let s0 = fb.store(a, r0);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.store(e, r0); // external scalar use of r0
        fb.ret(None);
        let f = fb.finish();
        let ctx = crate::ctx::BlockCtx::compute(&f, f.entry());
        let cfg = SlpConfig::new(SlpMode::Slp);
        let g = build_graph(&f, &ctx, &cfg, &[s0, s1]);
        let cb = evaluate(&f, &ctx, &g, &cfg.model);
        assert_eq!(cb.extract_cost, 1);
    }
}
