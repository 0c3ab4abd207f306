//! Vector code generation and block re-scheduling (paper Fig. 1 step 6:
//! "Schedule & Vectorize").
//!
//! Emission walks the SLP graph bottom-up, creating detached vector
//! instructions; the scheduler then rebuilds the block as a topological
//! order over SSA edges plus may-alias memory edges. Nothing is committed
//! until a valid schedule exists, so a scheduling failure (rare, but
//! possible when an extract would have to cross an aliasing memory
//! operation) leaves the function untouched.

use std::error::Error;
use std::fmt;

use snslp_ir::analysis::{may_alias, MemLoc};
use snslp_ir::FxHashMap;
use snslp_ir::{BinOp, BlockId, Constant, Function, InstId, InstKind, OpFamily, Type};

use crate::chain::Sign;
use crate::graph::{GatherKind, NodeId, NodeKind, SlpGraph};

/// Code generation failure; the function is left unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodegenError {
    /// The combined SSA + memory dependence graph has a cycle, so the
    /// bundles cannot be scheduled.
    SchedulingCycle,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::SchedulingCycle => {
                write!(f, "vector bundles cannot be scheduled (dependence cycle)")
            }
        }
    }
}

impl Error for CodegenError {}

/// Applies `graph` to `f`, replacing the covered scalar instructions of
/// `block` with vector code. Returns the instructions the emission
/// created (stable arena ids; some may have been unlinked again by
/// dead-code removal), so callers can attribute the surviving native
/// code back to this decision.
///
/// # Errors
///
/// [`CodegenError::SchedulingCycle`] if no valid instruction order exists;
/// the function is then left semantically unchanged (only unreferenced
/// detached arena slots may remain).
pub fn apply(
    f: &mut Function,
    block: BlockId,
    graph: &SlpGraph,
) -> Result<Vec<InstId>, CodegenError> {
    let _p = snslp_trace::ProfSpan::enter("codegen.emit");
    let positions: FxHashMap<InstId, usize> = f
        .block(block)
        .insts()
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();

    let mut em = Emitter {
        f,
        graph,
        positions: &positions,
        state: vec![EmitState::Todo; graph.nodes.len()],
        new_insts: Vec::new(),
        new_keys: Vec::new(),
        extracts: FxHashMap::default(),
        reduction_values: FxHashMap::default(),
    };
    em.emit_node(graph.root())?;

    // Extracts for externally used vectorized scalars; reduction roots
    // are replaced by their scalar result directly. A scalar is used
    // externally when an instruction outside the graph reads it.
    let mut external = vec![false; em.f.num_inst_slots()];
    for b in em.f.block_ids() {
        for &u in em.f.block(b).insts() {
            if !graph.covered.contains_key(&u) {
                em.f.kind(u)
                    .for_each_operand(|op| external[op.index()] = true);
            }
        }
    }
    let mut rauw: Vec<(InstId, InstId)> = Vec::new();
    for (&inst, _) in graph.covered.iter() {
        if em.f.ty(inst) == Type::Void {
            continue;
        }
        if external[inst.index()] {
            if let Some(&v) = em.reduction_values.get(&inst) {
                rauw.push((inst, v));
            } else {
                let x = em.resolve_scalar(inst)?;
                rauw.push((inst, x));
            }
        }
    }

    let new_insts = em.new_insts;
    let new_keys = em.new_keys;

    // Rewrite external uses *before* scheduling so SSA edges are accurate.
    for &(from, to) in &rauw {
        f.replace_all_uses(from, to);
    }

    schedule(f, block, graph, &new_insts, &new_keys)?;

    f.remove_dead_code();
    Ok(new_insts)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EmitState {
    Todo,
    InProgress,
    Done(InstId),
}

struct Emitter<'a> {
    f: &'a mut Function,
    graph: &'a SlpGraph,
    positions: &'a FxHashMap<InstId, usize>,
    state: Vec<EmitState>,
    new_insts: Vec<InstId>,
    /// Scheduling key (inherited block position) of each new instruction,
    /// in `new_insts` order.
    new_keys: Vec<usize>,
    extracts: FxHashMap<InstId, InstId>,
    /// Scalar results of reduction roots (replace the root directly).
    reduction_values: FxHashMap<InstId, InstId>,
}

impl Emitter<'_> {
    fn vector_ty(&self, scalar: InstId, width: u8) -> Type {
        match self.f.ty(scalar) {
            Type::Scalar(st) => Type::vector(st, width),
            ty => ty,
        }
    }

    fn create(&mut self, kind: InstKind, ty: Type, key: usize) -> InstId {
        let id = self.f.create_detached(kind, ty);
        self.new_insts.push(id);
        self.new_keys.push(key);
        id
    }

    /// Inherited scheduling key of a node: the latest block position of
    /// any scalar it covers (or of its element definitions, for gathers).
    fn node_key(&self, n: NodeId) -> usize {
        let node = &self.graph.nodes[n];
        let mut key = 0;
        let scan = |key: &mut usize, insts: &[InstId]| {
            for &i in insts {
                if let Some(&p) = self.positions.get(&i) {
                    *key = (*key).max(p);
                }
            }
        };
        match &node.kind {
            NodeKind::Super(info) => {
                for t in &info.trunks {
                    scan(&mut key, t);
                }
            }
            _ => scan(&mut key, &node.scalars),
        }
        key
    }

    /// The vector value a scalar lane contributes to, extracted back out.
    fn resolve_scalar(&mut self, s: InstId) -> Result<InstId, CodegenError> {
        if let Some((n, lane)) = self.graph.lane_of(s) {
            if let Some(&x) = self.extracts.get(&s) {
                return Ok(x);
            }
            let v = self.emit_node(n)?;
            let key = self.node_key(n);
            let x = self.create(
                InstKind::ExtractElement {
                    vector: v,
                    lane: lane as u8,
                },
                self.f.ty(s),
                key,
            );
            self.extracts.insert(s, x);
            Ok(x)
        } else {
            Ok(s)
        }
    }

    fn emit_node(&mut self, n: NodeId) -> Result<InstId, CodegenError> {
        match self.state[n] {
            EmitState::Done(id) => return Ok(id),
            EmitState::InProgress => return Err(CodegenError::SchedulingCycle),
            EmitState::Todo => self.state[n] = EmitState::InProgress,
        }
        let node = self.graph.nodes[n].clone();
        let width = self.graph.width;
        let key = self.node_key(n);
        let vty = self.vector_ty(node.scalars[0], width);

        let id = match &node.kind {
            NodeKind::Gather {
                kind: GatherKind::Splat,
                ..
            } => {
                let v = self.resolve_scalar(node.scalars[0])?;
                self.create(
                    InstKind::Splat {
                        value: v,
                        lanes: width,
                    },
                    vty,
                    key,
                )
            }
            NodeKind::Gather { .. } => {
                let mut elems = Vec::with_capacity(node.scalars.len());
                for &s in &node.scalars {
                    elems.push(self.resolve_scalar(s)?);
                }
                self.create(
                    InstKind::BuildVector {
                        elems: elems.into_boxed_slice(),
                    },
                    vty,
                    key,
                )
            }
            NodeKind::Load => {
                let ptr = match self.f.kind(node.scalars[0]) {
                    InstKind::Load { ptr } => *ptr,
                    _ => unreachable!(),
                };
                self.create(InstKind::Load { ptr }, vty, key)
            }
            NodeKind::Permute { mask } => {
                let src = self.emit_node(node.operands[0])?;
                self.create(
                    InstKind::Shuffle {
                        a: src,
                        b: src,
                        mask: mask.clone().into_boxed_slice(),
                    },
                    vty,
                    key,
                )
            }
            NodeKind::LoadReversed => {
                // The last lane holds the lowest address; load wide from
                // there and reverse the lanes.
                let last = *node.scalars.last().expect("non-empty bundle");
                let ptr = match self.f.kind(last) {
                    InstKind::Load { ptr } => *ptr,
                    _ => unreachable!(),
                };
                let v = self.create(InstKind::Load { ptr }, vty, key);
                let mask: Vec<u8> = (0..width).rev().collect();
                self.create(
                    InstKind::Shuffle {
                        a: v,
                        b: v,
                        mask: mask.into_boxed_slice(),
                    },
                    vty,
                    key,
                )
            }
            NodeKind::Store => {
                let value = self.emit_node(node.operands[0])?;
                let ptr = match self.f.kind(node.scalars[0]) {
                    InstKind::Store { ptr, .. } => *ptr,
                    _ => unreachable!(),
                };
                self.create(InstKind::Store { ptr, value }, Type::Void, key)
            }
            NodeKind::Vector => match self.f.kind(node.scalars[0]).clone() {
                InstKind::Binary { op, .. } => {
                    let l = self.emit_node(node.operands[0])?;
                    let r = self.emit_node(node.operands[1])?;
                    self.create(InstKind::Binary { op, lhs: l, rhs: r }, vty, key)
                }
                InstKind::Unary { op, .. } => {
                    let o = self.emit_node(node.operands[0])?;
                    self.create(InstKind::Unary { op, operand: o }, vty, key)
                }
                InstKind::Select { .. } => {
                    let c = self.emit_node(node.operands[0])?;
                    let t = self.emit_node(node.operands[1])?;
                    let e = self.emit_node(node.operands[2])?;
                    self.create(
                        InstKind::Select {
                            cond: c,
                            on_true: t,
                            on_false: e,
                        },
                        vty,
                        key,
                    )
                }
                InstKind::Cmp { pred, .. } => {
                    let l = self.emit_node(node.operands[0])?;
                    let r = self.emit_node(node.operands[1])?;
                    self.create(
                        InstKind::Cmp {
                            pred,
                            lhs: l,
                            rhs: r,
                        },
                        vty,
                        key,
                    )
                }
                InstKind::Cast { kind, .. } => {
                    let o = self.emit_node(node.operands[0])?;
                    self.create(InstKind::Cast { kind, operand: o }, vty, key)
                }
                k => unreachable!("unexpected Vector node payload {k:?}"),
            },
            NodeKind::Alt { ops } => {
                let l = self.emit_node(node.operands[0])?;
                let r = self.emit_node(node.operands[1])?;
                self.create(
                    InstKind::BinaryLanewise {
                        ops: ops.clone().into_boxed_slice(),
                        lhs: l,
                        rhs: r,
                    },
                    vty,
                    key,
                )
            }
            NodeKind::Super(info) => {
                let mut slot_vals = Vec::with_capacity(node.operands.len());
                for &op in &node.operands {
                    slot_vals.push(self.emit_node(op)?);
                }
                self.emit_super_combine(info.family, &info.slot_signs, &slot_vals, vty, key)
            }
            NodeKind::Reduction(info) => {
                // Combine the partial-sum groups, reduce horizontally
                // with log2(VF) shuffle+op rounds, extract lane 0, fold
                // in any leftover scalar leaves.
                let mut acc = self.emit_node(node.operands[0])?;
                for &group in &node.operands[1..] {
                    let v = self.emit_node(group)?;
                    acc = self.create(
                        InstKind::Binary {
                            op: info.op,
                            lhs: acc,
                            rhs: v,
                        },
                        vty,
                        key,
                    );
                }
                let mut offset = width / 2;
                while offset >= 1 {
                    let mask: Vec<u8> = (0..width).map(|i| (i + offset) % width).collect();
                    let sh = self.create(
                        InstKind::Shuffle {
                            a: acc,
                            b: acc,
                            mask: mask.into_boxed_slice(),
                        },
                        vty,
                        key,
                    );
                    acc = self.create(
                        InstKind::Binary {
                            op: info.op,
                            lhs: acc,
                            rhs: sh,
                        },
                        vty,
                        key,
                    );
                    offset /= 2;
                }
                let sty = self.f.ty(node.scalars[0]);
                let mut result = self.create(
                    InstKind::ExtractElement {
                        vector: acc,
                        lane: 0,
                    },
                    sty,
                    key,
                );
                for &left in &info.leftover {
                    let v = self.resolve_scalar(left)?;
                    result = self.create(
                        InstKind::Binary {
                            op: info.op,
                            lhs: result,
                            rhs: v,
                        },
                        sty,
                        key,
                    );
                }
                // The reduction's value replaces the scalar root.
                self.reduction_values.insert(node.scalars[0], result);
                result
            }
        };
        self.state[n] = EmitState::Done(id);
        Ok(id)
    }

    /// Combines slot vectors according to per-lane signs (Super-Node).
    fn emit_super_combine(
        &mut self,
        family: OpFamily,
        slot_signs: &[Vec<Sign>],
        slot_vals: &[InstId],
        vty: Type,
        key: usize,
    ) -> InstId {
        let ops_of = |signs: &[Sign]| -> Vec<BinOp> {
            signs
                .iter()
                .map(|s| match s {
                    Sign::Plus => family.direct(),
                    Sign::Minus => family.inverse(),
                })
                .collect()
        };
        let uniform = |signs: &[Sign]| signs.iter().all(|&s| s == signs[0]);

        let mut acc = {
            let signs = &slot_signs[0];
            if signs.iter().all(|&s| s == Sign::Plus) {
                slot_vals[0]
            } else {
                // Fold against the identity element: 0 for add/sub,
                // 1 for mul/div.
                let st = vty.elem_scalar().expect("numeric vector");
                let ident = match family {
                    OpFamily::AddSub => Constant::zero(st),
                    OpFamily::MulDiv => Constant::one(st),
                };
                let c = self.create(InstKind::Const(ident), Type::Scalar(st), key);
                let lanes = vty.as_vector().expect("vector").lanes;
                let identvec = self.create(InstKind::Splat { value: c, lanes }, vty, key);
                if uniform(signs) {
                    self.create(
                        InstKind::Binary {
                            op: family.inverse(),
                            lhs: identvec,
                            rhs: slot_vals[0],
                        },
                        vty,
                        key,
                    )
                } else {
                    self.create(
                        InstKind::BinaryLanewise {
                            ops: ops_of(signs).into_boxed_slice(),
                            lhs: identvec,
                            rhs: slot_vals[0],
                        },
                        vty,
                        key,
                    )
                }
            }
        };
        for (j, signs) in slot_signs.iter().enumerate().skip(1) {
            acc = if uniform(signs) {
                let op = match signs[0] {
                    Sign::Plus => family.direct(),
                    Sign::Minus => family.inverse(),
                };
                self.create(
                    InstKind::Binary {
                        op,
                        lhs: acc,
                        rhs: slot_vals[j],
                    },
                    vty,
                    key,
                )
            } else {
                self.create(
                    InstKind::BinaryLanewise {
                        ops: ops_of(signs).into_boxed_slice(),
                        lhs: acc,
                        rhs: slot_vals[j],
                    },
                    vty,
                    key,
                )
            };
        }
        acc
    }
}

/// Rebuilds the block: keeps phis first and the terminator last, drops
/// covered scalars, and topologically orders the rest over SSA and
/// may-alias memory edges.
///
/// Each edge list is built in a fixed insertion order (SSA edges by user,
/// then memory edges pair by pair), and Kahn's algorithm takes the first
/// ready item of smallest key. No heap: between equal keys (new
/// instructions that inherit one position) the tie-break is the ready
/// list's order after `swap_remove`, and that order is part of the
/// schedule.
fn schedule(
    f: &mut Function,
    block: BlockId,
    graph: &SlpGraph,
    new_insts: &[InstId],
    new_keys: &[usize],
) -> Result<(), CodegenError> {
    let old = f.block(block).insts();
    let terminator = *old.last().expect("non-empty block");
    let mut phis = Vec::new();
    let mut items: Vec<InstId> = Vec::with_capacity(old.len() + new_insts.len());
    // Scheduling keys: twice the block position for old instructions,
    // twice the inherited position plus one for new ones, so new
    // instructions sort after the old instruction at the same position.
    let mut keys: Vec<usize> = Vec::with_capacity(items.capacity());
    for (p, &id) in old.iter().enumerate() {
        if id == terminator {
            continue;
        }
        if matches!(f.kind(id), InstKind::Phi { .. }) {
            phis.push(id);
            continue;
        }
        if graph.covered.contains_key(&id) {
            continue; // replaced by vector code
        }
        items.push(id);
        keys.push(p * 2);
    }
    items.extend_from_slice(new_insts);
    keys.extend(new_keys.iter().map(|&p| p * 2 + 1));

    let n = items.len();
    let mut index = vec![u32::MAX; f.num_inst_slots()];
    for (i, &id) in items.iter().enumerate() {
        index[id.index()] = i as u32;
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg: Vec<usize> = vec![0; n];
    // Row `a` of `edge` has bit `b` set once the edge a -> b exists.
    let words = n.div_ceil(64);
    let mut edge = vec![0u64; n * words];
    let mut add_edge = |a: usize, b: usize| {
        let (word, bit) = (a * words + b / 64, 1u64 << (b % 64));
        if a != b && edge[word] & bit == 0 {
            edge[word] |= bit;
            succs[a].push(b);
            indeg[b] += 1;
        }
    };

    // SSA edges.
    for (i, &id) in items.iter().enumerate() {
        f.kind(id).for_each_operand(|op| {
            let j = index[op.index()];
            if j != u32::MAX {
                add_edge(j as usize, i);
            }
        });
    }
    // Memory edges between may-aliasing operations, ordered by key. Load
    // pairs are tested too: they never conflict, but their edges are part
    // of the lists the schedule is read from.
    let mem: Vec<(usize, MemLoc)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, &id)| MemLoc::of_inst(f, id).map(|loc| (i, loc)))
        .collect();
    for (ai, (a, la)) in mem.iter().enumerate() {
        for (b, lb) in &mem[ai + 1..] {
            if may_alias(f, la, lb) {
                if keys[*a] <= keys[*b] {
                    add_edge(*a, *b);
                } else {
                    add_edge(*b, *a);
                }
            }
        }
    }

    // Kahn's algorithm, picking the first smallest key for stability.
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = phis;
    let num_phis = order.len();
    order.reserve(n + 1);
    while !ready.is_empty() {
        let (pos, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| keys[i])
            .expect("non-empty");
        let i = ready.swap_remove(pos);
        order.push(items[i]);
        for s in std::mem::take(&mut succs[i]) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    if order.len() != num_phis + n {
        return Err(CodegenError::SchedulingCycle);
    }

    order.push(terminator);
    f.set_block_insts(block, order);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SlpConfig, SlpMode};
    use crate::ctx::BlockCtx;
    use crate::graph::build_graph;
    use snslp_cost::{CostModel, TargetDesc};
    use snslp_interp::{check_equivalent, ArgSpec};
    use snslp_ir::{FunctionBuilder, Param, ScalarType};

    /// a[i] = b[i] + c[i] for i in 0..2 (straight line).
    fn simple_add2() -> (Function, Vec<InstId>) {
        let mut fb = FunctionBuilder::new(
            "add2",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("c"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let c = fb.func().param(2);
        let mut seeds = Vec::new();
        for i in 0..2 {
            let pb = fb.ptradd_const(b, 8 * i);
            let pc = fb.ptradd_const(c, 8 * i);
            let pa = fb.ptradd_const(a, 8 * i);
            let x = fb.load(ScalarType::F64, pb);
            let y = fb.load(ScalarType::F64, pc);
            let s = fb.add(x, y);
            seeds.push(fb.store(pa, s));
        }
        fb.ret(None);
        (fb.finish(), seeds)
    }

    fn vectorize(f: &mut Function, seeds: &[InstId], mode: SlpMode) {
        let ctx = BlockCtx::compute(f, f.entry());
        let cfg = SlpConfig::new(mode);
        let g = build_graph(f, &ctx, &cfg, seeds);
        apply(f, f.entry(), &g).unwrap();
        snslp_ir::verify(f).unwrap();
    }

    #[test]
    fn vectorizes_simple_adds() {
        let (mut f, seeds) = simple_add2();
        let orig = f.clone();
        vectorize(&mut f, &seeds, SlpMode::Slp);
        // Vector load ×2, vector add, vector store replace 2×(2 loads +
        // add + store).
        let kinds: Vec<String> = f
            .block(f.entry())
            .insts()
            .iter()
            .map(|&i| format!("{:?}", std::mem::discriminant(f.kind(i))))
            .collect();
        let _ = kinds;
        let n_vec_loads = f
            .block(f.entry())
            .insts()
            .iter()
            .filter(|&&i| {
                matches!(f.kind(i), InstKind::Load { .. }) && f.ty(i).as_vector().is_some()
            })
            .count();
        assert_eq!(n_vec_loads, 2, "{f}");
        // Behaviour unchanged.
        let args = vec![
            ArgSpec::F64Array(vec![0.0; 2]),
            ArgSpec::F64Array(vec![1.5, -2.0]),
            ArgSpec::F64Array(vec![4.0, 8.0]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        check_equivalent(&orig, &f, &args, &model).unwrap();
    }

    #[test]
    fn fig3_snslp_codegen_is_correct() {
        // Build the Fig. 3 kernel, vectorize with SN-SLP, and compare
        // against the scalar original on concrete inputs.
        let build = || {
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
        };
        let (orig, _) = build();
        let (mut f, seeds) = build();
        vectorize(&mut f, &seeds, SlpMode::SnSlp);
        // All scalar adds/subs gone: only vector ops remain.
        let scalar_arith = f
            .block(f.entry())
            .insts()
            .iter()
            .filter(|&&i| {
                matches!(f.kind(i), InstKind::Binary { .. }) && f.ty(i).as_scalar().is_some()
            })
            .count();
        assert_eq!(scalar_arith, 0, "{f}");

        let args = vec![
            ArgSpec::I64Array(vec![0, 0]),
            ArgSpec::I64Array(vec![100, 200]),
            ArgSpec::I64Array(vec![7, 11]),
            ArgSpec::I64Array(vec![1000, 2000]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        check_equivalent(&orig, &f, &args, &model).unwrap();
        // Expected values: lane0 = 100-7+1000, lane1 = 200+2000-11.
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        assert_eq!(
            out.arrays[0],
            snslp_interp::ArrayData::I64(vec![1093, 2189])
        );
    }

    #[test]
    fn external_use_gets_extract() {
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
        fb.store(e, r0);
        fb.ret(None);
        let mut f = fb.finish();
        let orig = f.clone();
        vectorize(&mut f, &[s0, s1], SlpMode::Slp);
        let extracts = f
            .block(f.entry())
            .insts()
            .iter()
            .filter(|&&i| matches!(f.kind(i), InstKind::ExtractElement { .. }))
            .count();
        assert_eq!(extracts, 1, "{f}");
        let args = vec![
            ArgSpec::I64Array(vec![0, 0]),
            ArgSpec::I64Array(vec![21, 30]),
            ArgSpec::I64Array(vec![0]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        assert_eq!(out.arrays[2], snslp_interp::ArrayData::I64(vec![42]));
    }

    #[test]
    fn gather_of_mixed_scalars_uses_buildvector() {
        // Values: lane0 = x * k1, lane1 = y * k2 — constants gather.
        let mut fb = FunctionBuilder::new(
            "t",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let x = fb.load(ScalarType::F64, b);
        let pb1 = fb.ptradd_const(b, 8);
        let y = fb.load(ScalarType::F64, pb1);
        let k1 = fb.const_f64(2.0);
        let k2 = fb.const_f64(3.0);
        let r0 = fb.mul(x, k1);
        let r1 = fb.mul(y, k2);
        let s0 = fb.store(a, r0);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        let mut f = fb.finish();
        let orig = f.clone();
        vectorize(&mut f, &[s0, s1], SlpMode::Slp);
        let buildvecs = f
            .block(f.entry())
            .insts()
            .iter()
            .filter(|&&i| matches!(f.kind(i), InstKind::BuildVector { .. }))
            .count();
        assert_eq!(buildvecs, 1, "{f}");
        let args = vec![
            ArgSpec::F64Array(vec![0.0, 0.0]),
            ArgSpec::F64Array(vec![10.0, 10.0]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        assert_eq!(
            out.arrays[0],
            snslp_interp::ArrayData::F64(vec![20.0, 30.0])
        );
    }

    #[test]
    fn slot0_negative_sign_folds_against_identity() {
        // lane0: -b0 - c0 + d0  is not expressible without unary neg, so
        // build:  (d0 - b0) - c0  vs lane1:  (d1 - c1) - b1.
        // After reordering, some slot patterns force a minus slot 0 only
        // if the planner picks a minus anchor first; we instead verify
        // end-to-end semantics, whatever the plan.
        let build = || {
            let mut fb = FunctionBuilder::new(
                "t",
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
            let t0 = fb.sub(d0, b0);
            let r0 = fb.sub(t0, c0);
            let s0 = fb.store(a, r0);
            let b1 = ld(b, 1, &mut fb);
            let c1 = ld(c, 1, &mut fb);
            let d1 = ld(d, 1, &mut fb);
            let t1 = fb.sub(d1, c1);
            let r1 = fb.sub(t1, b1);
            let pa1 = fb.ptradd_const(a, 8);
            let s1 = fb.store(pa1, r1);
            fb.ret(None);
            (fb.finish(), vec![s0, s1])
        };
        let (orig, _) = build();
        let (mut f, seeds) = build();
        vectorize(&mut f, &seeds, SlpMode::SnSlp);
        let args = vec![
            ArgSpec::I64Array(vec![0, 0]),
            ArgSpec::I64Array(vec![5, 6]),
            ArgSpec::I64Array(vec![70, 80]),
            ArgSpec::I64Array(vec![1000, 1001]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        // lane0: 1000-5-70 = 925; lane1: 1001-80-6 = 915.
        assert_eq!(out.arrays[0], snslp_interp::ArrayData::I64(vec![925, 915]));
    }

    #[test]
    fn extract_is_reused_across_external_users() {
        // r0 has two external scalar users; only one extract is emitted.
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
        fb.store(e, r0);
        let pe1 = fb.ptradd_const(e, 8);
        let dbl = fb.add(r0, r0); // second external user
        fb.store(pe1, dbl);
        fb.ret(None);
        let mut f = fb.finish();
        let orig = f.clone();
        vectorize(&mut f, &[s0, s1], SlpMode::Slp);
        let extracts = f
            .block(f.entry())
            .insts()
            .iter()
            .filter(|&&i| matches!(f.kind(i), InstKind::ExtractElement { .. }))
            .count();
        assert_eq!(extracts, 1, "one extract serves both users: {f}");
        let args = vec![
            ArgSpec::I64Array(vec![0, 0]),
            ArgSpec::I64Array(vec![21, 30]),
            ArgSpec::I64Array(vec![0, 0]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        assert_eq!(out.arrays[2], snslp_interp::ArrayData::I64(vec![42, 84]));
    }

    #[test]
    fn scheduler_keeps_unrelated_memory_order() {
        // An unrelated store to a different noalias array sits between the
        // bundled stores; it must survive and stay correctly ordered.
        let mut fb = FunctionBuilder::new(
            "t",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::noalias_ptr("z"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let z = fb.func().param(2);
        let b0 = fb.load(ScalarType::I64, b);
        let pb1 = fb.ptradd_const(b, 8);
        let b1 = fb.load(ScalarType::I64, pb1);
        let r0 = fb.add(b0, b0);
        let r1 = fb.add(b1, b1);
        let s0 = fb.store(a, r0);
        let k = fb.const_i64(7);
        fb.store(z, k); // unrelated, between the seed stores
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        let mut f = fb.finish();
        let orig = f.clone();
        vectorize(&mut f, &[s0, s1], SlpMode::Slp);
        let args = vec![
            ArgSpec::I64Array(vec![0, 0]),
            ArgSpec::I64Array(vec![1, 2]),
            ArgSpec::I64Array(vec![0]),
        ];
        let model = CostModel::new(TargetDesc::sse2_like());
        let (out, _) = check_equivalent(&orig, &f, &args, &model).unwrap();
        assert_eq!(out.arrays[2], snslp_interp::ArrayData::I64(vec![7]));
    }
}
