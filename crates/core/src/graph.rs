//! The SLP graph: bundles of isomorphic scalars and their operand
//! relations (paper Fig. 1, step 3 — the part SN-SLP modifies).

use snslp_ir::FxHashMap;
use snslp_ir::{BinOp, Function, InstId, InstKind, OpFamily};

use crate::chain::{extract_chain, LaneChain, Sign};
use crate::config::{SlpConfig, SlpMode, MAX_DEPTH, MAX_SUPERNODE_LEAVES};
use crate::ctx::BlockCtx;
use crate::lookahead::score_pair_with;
use crate::score_cache::LruScoreCache;
use crate::supernode::{plan_supernode_cached, SuperNodePlan};

/// Index of a node within an [`SlpGraph`].
pub type NodeId = usize;

/// *How* a gather node is materialized (selects its cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherKind {
    /// All lanes are constants — materialized as a constant vector.
    Constants,
    /// All lanes are the same value — materialized as a splat.
    Splat,
    /// Arbitrary scalars — one insert per lane.
    Generic,
}

/// *Why* a bundle had to gather instead of vectorizing. Recorded on every
/// gather node so optimization remarks can report the dominant cause of a
/// missed vectorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GatherWhy {
    /// Recursion hit the configured depth limit.
    DepthLimit,
    /// Lanes have different types (or operand types disagree).
    TypeMismatch,
    /// A lane is not an instruction of the seed block (param, const,
    /// other-block value).
    NotInBlock,
    /// The same value appears in several lanes.
    DuplicateLanes,
    /// A lane is already claimed by another vector bundle (and the bundle
    /// is not a pure permutation of it).
    Claimed,
    /// Two lanes depend on each other.
    Dependence,
    /// Lanes mix opcodes that cannot form a Vector/Alt/Super bundle.
    OpcodeMismatch,
    /// The opcode itself is not vectorizable (call, ptradd, ...).
    UnsupportedOpcode,
    /// Loads are not consecutive in either lane order.
    NonConsecutiveLoads,
    /// Stores are not adjacent.
    NonConsecutiveStores,
    /// A may-aliasing memory operation sits between the bundled accesses.
    Aliasing,
}

impl GatherWhy {
    /// Stable kebab-case code used in trace records and remark details.
    pub fn code(self) -> &'static str {
        match self {
            GatherWhy::DepthLimit => "depth-limit",
            GatherWhy::TypeMismatch => "type-mismatch",
            GatherWhy::NotInBlock => "not-in-block",
            GatherWhy::DuplicateLanes => "duplicate-lanes",
            GatherWhy::Claimed => "claimed",
            GatherWhy::Dependence => "dependence",
            GatherWhy::OpcodeMismatch => "opcode-mismatch",
            GatherWhy::UnsupportedOpcode => "unsupported-opcode",
            GatherWhy::NonConsecutiveLoads => "non-consecutive-loads",
            GatherWhy::NonConsecutiveStores => "non-consecutive-stores",
            GatherWhy::Aliasing => "aliasing",
        }
    }

    /// Severity when selecting the *dominant* cause for a missed-remark:
    /// higher wins. Structural reasons (aliasing, unsupported opcodes,
    /// broken memory shapes) outrank benign leaf gathers (constants,
    /// values defined elsewhere) that appear in profitable graphs too.
    pub fn severity(self) -> u8 {
        match self {
            GatherWhy::Aliasing => 5,
            GatherWhy::UnsupportedOpcode => 4,
            GatherWhy::NonConsecutiveLoads | GatherWhy::NonConsecutiveStores => 3,
            GatherWhy::OpcodeMismatch => 2,
            GatherWhy::Dependence | GatherWhy::DuplicateLanes | GatherWhy::Claimed => 1,
            GatherWhy::DepthLimit | GatherWhy::TypeMismatch | GatherWhy::NotInBlock => 0,
        }
    }
}

/// What a node packs.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Isomorphic vectorizable bundle (same opcode: binary, unary, cmp,
    /// select).
    Vector,
    /// Consecutive loads → one vector load.
    Load,
    /// Loads consecutive in *reverse* lane order → one vector load plus a
    /// lane-reversing shuffle.
    LoadReversed,
    /// Adjacent stores → one vector store (always the graph root).
    Store,
    /// Alternating ops from one family across lanes, e.g. `[add, sub]`
    /// (vectorizable with the `addsub` penalty, paper Fig. 3(c)).
    Alt {
        /// Per-lane operators.
        ops: Vec<BinOp>,
    },
    /// A Multi-Node (LSLP) or Super-Node (SN-SLP): per-lane chains
    /// flattened and reordered; operand `j` is the slot-`j` bundle.
    Super(SuperInfo),
    /// A bundle that is a lane permutation of an already-vectorized
    /// bundle — one shuffle of that node's vector (operand 0).
    Permute {
        /// Output lane `i` is lane `mask[i]` of the source node.
        mask: Vec<u8>,
    },
    /// A horizontal reduction (paper §II-B's reduction-tree seeds): the
    /// operand bundles are the leaf groups; the vector partial sums are
    /// combined and reduced to one scalar with `log2(VF)` shuffles,
    /// replacing the scalar tree.
    Reduction(ReductionInfo),
    /// Non-vectorizable group, gathered from scalars.
    Gather {
        /// How the gather is materialized (drives the cost model).
        kind: GatherKind,
        /// Why the group could not be vectorized (drives remarks).
        why: GatherWhy,
    },
}

/// Super-Node payload retained for cost evaluation, code generation, and
/// the paper's node-size statistics.
#[derive(Debug, Clone)]
pub struct SuperInfo {
    /// Operator family.
    pub family: OpFamily,
    /// Per-lane trunk instructions (all are replaced by the vector code).
    pub trunks: Vec<Vec<InstId>>,
    /// Per-slot, per-lane signs: `slot_signs[j][lane]`.
    pub slot_signs: Vec<Vec<Sign>>,
    /// Placements achieved by plain leaf moves.
    pub leaf_moves: usize,
    /// Placements that required a trunk swap.
    pub trunk_assisted_moves: usize,
}

impl SuperInfo {
    /// The paper's node size (chain depth per lane).
    pub fn size(&self) -> u32 {
        self.trunks[0].len() as u32
    }
}

/// Payload of a horizontal-reduction root node.
#[derive(Debug, Clone)]
pub struct ReductionInfo {
    /// The reduction opcode.
    pub op: BinOp,
    /// Interior tree instructions (including the root), all replaced.
    pub tree: Vec<InstId>,
    /// Leaves that did not fit a full vector group and are reduced
    /// scalar-ly into the final value.
    pub leftover: Vec<InstId>,
}

/// One SLP graph node: a group of scalars considered for one vector
/// instruction.
#[derive(Debug, Clone)]
pub struct Node {
    /// Per-lane scalar values. For [`NodeKind::Super`] these are the lane
    /// *roots*; the full trunk is in [`SuperInfo::trunks`].
    pub scalars: Vec<InstId>,
    /// Node classification.
    pub kind: NodeKind,
    /// Operand nodes, in operand order.
    pub operands: Vec<NodeId>,
}

impl Node {
    /// Whether this node becomes a vector instruction (anything but a
    /// gather).
    pub fn is_vectorizable(&self) -> bool {
        !matches!(self.kind, NodeKind::Gather { .. })
    }
}

/// The SLP graph for one seed bundle.
#[derive(Debug, Clone)]
pub struct SlpGraph {
    /// All nodes; index 0 is the root (the seed bundle).
    pub nodes: Vec<Node>,
    /// Vector width (number of lanes).
    pub width: u8,
    /// Scalar instruction → node covering it as a vector lane (includes
    /// Super-Node trunk instructions).
    pub covered: FxHashMap<InstId, NodeId>,
}

impl SlpGraph {
    /// The root node id.
    pub fn root(&self) -> NodeId {
        0
    }

    /// Nodes that become vector instructions.
    pub fn num_vector_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_vectorizable()).count()
    }

    /// Gather nodes.
    pub fn num_gather_nodes(&self) -> usize {
        self.nodes.len() - self.num_vector_nodes()
    }

    /// Sizes (chain depths) of all Multi/Super-Nodes in the graph.
    pub fn super_node_sizes(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Super(info) => Some(info.size()),
                _ => None,
            })
            .collect()
    }

    /// The most severe cause among this graph's gather nodes, if any —
    /// the reason an optimization remark reports for a missed bundle.
    pub fn dominant_gather_why(&self) -> Option<GatherWhy> {
        self.nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Gather { why, .. } => Some(why),
                _ => None,
            })
            .max_by_key(|w| (w.severity(), *w))
    }

    /// The lane of `inst` within its covering node, if covered.
    pub fn lane_of(&self, inst: InstId) -> Option<(NodeId, usize)> {
        let &node = self.covered.get(&inst)?;
        match &self.nodes[node].kind {
            // Reduction roots produce a *scalar*, not a vector lane; code
            // generation substitutes the reduced value directly.
            NodeKind::Reduction(_) => None,
            NodeKind::Super(info) => {
                // Trunk instructions map to the lane whose trunk contains
                // them; the vector value represents the lane roots.
                info.trunks
                    .iter()
                    .position(|t| t.contains(&inst))
                    .map(|lane| (node, lane))
            }
            _ => self.nodes[node]
                .scalars
                .iter()
                .position(|&s| s == inst)
                .map(|lane| (node, lane)),
        }
    }
}

/// Builds the SLP graph for `seeds` (a bundle of adjacent stores).
pub fn build_graph(f: &Function, ctx: &BlockCtx, cfg: &SlpConfig, seeds: &[InstId]) -> SlpGraph {
    build_graph_cached(f, ctx, cfg, seeds, None)
}

/// [`build_graph`] with an optional memoized look-ahead score cache,
/// shared across the graphs the pass builds over one unchanged function
/// (mode fallbacks and half-width retries re-score the same pairs).
pub fn build_graph_cached(
    f: &Function,
    ctx: &BlockCtx,
    cfg: &SlpConfig,
    seeds: &[InstId],
    cache: Option<&LruScoreCache>,
) -> SlpGraph {
    let mut b = GraphBuilder {
        f,
        ctx,
        cfg,
        cache,
        nodes: Vec::new(),
        bundle_map: FxHashMap::default(),
        covered: FxHashMap::default(),
    };
    let root = b.build_bundle(seeds.to_vec(), 0);
    debug_assert_eq!(root, 0);
    SlpGraph {
        nodes: b.nodes,
        width: seeds.len() as u8,
        covered: b.covered,
    }
}

/// Builds the SLP graph for a horizontal-reduction seed: a
/// [`NodeKind::Reduction`] root whose operands are the leaf groups
/// (chunks of `width` leaves).
pub fn build_reduction_graph(
    f: &Function,
    ctx: &BlockCtx,
    cfg: &SlpConfig,
    seed: &crate::seeds::ReductionSeed,
    width: u8,
) -> SlpGraph {
    build_reduction_graph_cached(f, ctx, cfg, seed, width, None)
}

/// [`build_reduction_graph`] with an optional memoized look-ahead score
/// cache (see [`build_graph_cached`]).
pub fn build_reduction_graph_cached(
    f: &Function,
    ctx: &BlockCtx,
    cfg: &SlpConfig,
    seed: &crate::seeds::ReductionSeed,
    width: u8,
    cache: Option<&LruScoreCache>,
) -> SlpGraph {
    let mut b = GraphBuilder {
        f,
        ctx,
        cfg,
        cache,
        nodes: Vec::new(),
        bundle_map: FxHashMap::default(),
        covered: FxHashMap::default(),
    };
    let full_groups = seed.leaves.len() / width as usize;
    let leftover: Vec<InstId> = seed.leaves[full_groups * width as usize..].to_vec();
    let root = b.add_node(Node {
        scalars: vec![seed.root],
        kind: NodeKind::Reduction(ReductionInfo {
            op: seed.op,
            tree: seed.tree.clone(),
            leftover,
        }),
        operands: Vec::new(),
    });
    debug_assert_eq!(root, 0);
    // The tree is covered (replaced); map every interior instruction to
    // the root node.
    for &t in &seed.tree {
        b.covered.insert(t, root);
    }
    for chunk in seed.leaves.chunks_exact(width as usize) {
        let child = b.build_bundle(chunk.to_vec(), 1);
        b.nodes[root].operands.push(child);
    }
    SlpGraph {
        nodes: b.nodes,
        width,
        covered: b.covered,
    }
}

struct GraphBuilder<'a> {
    f: &'a Function,
    ctx: &'a BlockCtx,
    cfg: &'a SlpConfig,
    cache: Option<&'a LruScoreCache>,
    nodes: Vec<Node>,
    bundle_map: FxHashMap<Vec<InstId>, NodeId>,
    covered: FxHashMap<InstId, NodeId>,
}

impl GraphBuilder<'_> {
    fn add_node(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.bundle_map.insert(node.scalars.clone(), id);
        self.nodes.push(node);
        id
    }

    fn gather(&mut self, bundle: Vec<InstId>, why: GatherWhy) -> NodeId {
        let all_const = bundle
            .iter()
            .all(|&v| matches!(self.f.kind(v), InstKind::Const(_)));
        let all_same = bundle.iter().all(|&v| v == bundle[0]);
        let kind = if all_const {
            GatherKind::Constants
        } else if all_same {
            GatherKind::Splat
        } else {
            GatherKind::Generic
        };
        snslp_trace::bump(snslp_trace::Counter::GathersEmitted);
        snslp_trace::trace_event!(
            "graph.gather",
            "why" => why.code(),
            "width" => bundle.len(),
        );
        self.add_node(Node {
            scalars: bundle,
            kind: NodeKind::Gather { kind, why },
            operands: Vec::new(),
        })
    }

    fn mark_covered(&mut self, insts: &[InstId], node: NodeId) {
        for &i in insts {
            self.covered.insert(i, node);
        }
    }

    fn lookahead_depth(&self) -> u32 {
        // Vanilla SLP reorders commutative operands with opcode-level
        // matching only; LSLP and SN-SLP look deeper.
        match self.cfg.mode {
            SlpMode::Slp => 0,
            _ => self.cfg.lookahead_depth,
        }
    }

    /// The core recursion (paper Listing 1, `buildGraph`).
    fn build_bundle(&mut self, bundle: Vec<InstId>, depth: u32) -> NodeId {
        if let Some(&n) = self.bundle_map.get(&bundle) {
            return n;
        }
        snslp_trace::bump(snslp_trace::Counter::BundlesAttempted);
        if depth > MAX_DEPTH {
            return self.gather(bundle, GatherWhy::DepthLimit);
        }
        // Uniform type?
        let ty = self.f.ty(bundle[0]);
        if bundle.iter().any(|&v| self.f.ty(v) != ty) {
            return self.gather(bundle, GatherWhy::TypeMismatch);
        }
        // Every lane must be a distinct instruction of this block that is
        // not already claimed by another vector bundle.
        let all_block_insts = bundle.iter().all(|&v| self.ctx.in_block(v));
        let distinct = bundle
            .iter()
            .enumerate()
            .all(|(i, &v)| !bundle[..i].contains(&v));
        let unclaimed = bundle.iter().all(|&v| !self.covered.contains_key(&v));
        if !all_block_insts || !distinct || !unclaimed {
            // A bundle whose lanes permute an existing vector bundle is a
            // single shuffle, not a gather.
            if let Some(node) = self.try_permute(&bundle) {
                return node;
            }
            let why = if !all_block_insts {
                GatherWhy::NotInBlock
            } else if !distinct {
                GatherWhy::DuplicateLanes
            } else {
                GatherWhy::Claimed
            };
            return self.gather(bundle, why);
        }
        // Lanes must be mutually independent.
        for (i, &a) in bundle.iter().enumerate() {
            for &b in &bundle[..i] {
                if self.ctx.depends_on(self.f, a, b) || self.ctx.depends_on(self.f, b, a) {
                    return self.gather(bundle, GatherWhy::Dependence);
                }
            }
        }

        match self.f.kind(bundle[0]) {
            InstKind::Load { .. } => self.build_load_bundle(bundle),
            InstKind::Store { .. } => self.build_store_bundle(bundle, depth),
            InstKind::Binary { .. } => self.build_binary_bundle(bundle, depth),
            InstKind::Unary { op, .. } => {
                let op = *op;
                let same = bundle
                    .iter()
                    .all(|&v| matches!(self.f.kind(v), InstKind::Unary { op: o, .. } if *o == op));
                if !same {
                    return self.gather(bundle, GatherWhy::OpcodeMismatch);
                }
                let operands: Vec<InstId> = bundle
                    .iter()
                    .map(|&v| self.f.kind(v).operands()[0])
                    .collect();
                let node = self.add_node(Node {
                    scalars: bundle.clone(),
                    kind: NodeKind::Vector,
                    operands: Vec::new(),
                });
                self.mark_covered(&bundle, node);
                let opnode = self.build_bundle(operands, depth + 1);
                self.nodes[node].operands.push(opnode);
                node
            }
            InstKind::Cast { kind, .. } => {
                let kind = *kind;
                let same = bundle.iter().all(
                    |&v| matches!(self.f.kind(v), InstKind::Cast { kind: k, .. } if *k == kind),
                );
                if !same {
                    return self.gather(bundle, GatherWhy::OpcodeMismatch);
                }
                let operands: Vec<InstId> = bundle
                    .iter()
                    .map(|&v| self.f.kind(v).operands()[0])
                    .collect();
                let opty = self.f.ty(operands[0]);
                if operands.iter().any(|&v| self.f.ty(v) != opty) {
                    return self.gather(bundle, GatherWhy::TypeMismatch);
                }
                let node = self.add_node(Node {
                    scalars: bundle.clone(),
                    kind: NodeKind::Vector,
                    operands: Vec::new(),
                });
                self.mark_covered(&bundle, node);
                let o = self.build_bundle(operands, depth + 1);
                self.nodes[node].operands.push(o);
                node
            }
            InstKind::Select { .. } => {
                let same = bundle
                    .iter()
                    .all(|&v| matches!(self.f.kind(v), InstKind::Select { .. }));
                if !same {
                    return self.gather(bundle, GatherWhy::OpcodeMismatch);
                }
                // The per-lane conditions become an i32 mask vector (a
                // splat when all lanes share one condition).
                let field = |b: &Self, i: usize| -> Vec<InstId> {
                    bundle.iter().map(|&v| b.f.kind(v).operands()[i]).collect()
                };
                let conds = field(self, 0);
                let on_true = field(self, 1);
                let on_false = field(self, 2);
                let node = self.add_node(Node {
                    scalars: bundle.clone(),
                    kind: NodeKind::Vector,
                    operands: Vec::new(),
                });
                self.mark_covered(&bundle, node);
                let c = self.build_bundle(conds, depth + 1);
                let t = self.build_bundle(on_true, depth + 1);
                let e = self.build_bundle(on_false, depth + 1);
                self.nodes[node].operands.push(c);
                self.nodes[node].operands.push(t);
                self.nodes[node].operands.push(e);
                node
            }
            InstKind::Cmp { pred, .. } => {
                let pred = *pred;
                let same = bundle.iter().all(
                    |&v| matches!(self.f.kind(v), InstKind::Cmp { pred: p, .. } if *p == pred),
                );
                if !same {
                    return self.gather(bundle, GatherWhy::OpcodeMismatch);
                }
                // Operand types must agree across lanes (the uniform-type
                // check above only saw the i32 outputs).
                let lhs: Vec<InstId> = bundle
                    .iter()
                    .map(|&v| self.f.kind(v).operands()[0])
                    .collect();
                let rhs: Vec<InstId> = bundle
                    .iter()
                    .map(|&v| self.f.kind(v).operands()[1])
                    .collect();
                let opty = self.f.ty(lhs[0]);
                if lhs.iter().chain(&rhs).any(|&v| self.f.ty(v) != opty) {
                    return self.gather(bundle, GatherWhy::TypeMismatch);
                }
                let node = self.add_node(Node {
                    scalars: bundle.clone(),
                    kind: NodeKind::Vector,
                    operands: Vec::new(),
                });
                self.mark_covered(&bundle, node);
                let l = self.build_bundle(lhs, depth + 1);
                let r = self.build_bundle(rhs, depth + 1);
                self.nodes[node].operands.push(l);
                self.nodes[node].operands.push(r);
                node
            }
            _ => self.gather(bundle, GatherWhy::UnsupportedOpcode),
        }
    }

    fn build_load_bundle(&mut self, bundle: Vec<InstId>) -> NodeId {
        let all_loads = bundle
            .iter()
            .all(|&v| matches!(self.f.kind(v), InstKind::Load { .. }));
        if !all_loads {
            return self.gather(bundle, GatherWhy::OpcodeMismatch);
        }
        // Adjacent in lane order, or in exactly reversed lane order?
        let direction = |fwd: bool| -> bool {
            bundle.windows(2).all(|w| {
                let (a, b) = if fwd { (w[0], w[1]) } else { (w[1], w[0]) };
                match (self.ctx.memloc(a), self.ctx.memloc(b)) {
                    (Some(la), Some(lb)) => snslp_ir::is_consecutive(self.f, la, lb),
                    _ => false,
                }
            })
        };
        let kind = if direction(true) {
            NodeKind::Load
        } else if direction(false) {
            NodeKind::LoadReversed
        } else {
            return self.gather(bundle, GatherWhy::NonConsecutiveLoads);
        };
        // Collapsing the loads must not cross an aliasing store.
        let (lo, hi) = self.ctx.span(&bundle);
        for &l in &bundle {
            let loc = *self.ctx.memloc(l).expect("load has a memloc");
            if self.ctx.aliasing_store_within(self.f, lo, hi, &loc) {
                return self.gather(bundle, GatherWhy::Aliasing);
            }
        }
        let node = self.add_node(Node {
            scalars: bundle.clone(),
            kind,
            operands: Vec::new(),
        });
        self.mark_covered(&bundle, node);
        node
    }

    fn build_store_bundle(&mut self, bundle: Vec<InstId>, depth: u32) -> NodeId {
        // Seed collection guarantees adjacency; re-check for safety.
        for w in bundle.windows(2) {
            let (a, b) = (
                *self.ctx.memloc(w[0]).expect("store has a memloc"),
                *self.ctx.memloc(w[1]).expect("store has a memloc"),
            );
            if !snslp_ir::is_consecutive(self.f, &a, &b) {
                return self.gather(bundle, GatherWhy::NonConsecutiveStores);
            }
        }
        // Collapsing the stores must not cross an aliasing memory op.
        let (lo, hi) = self.ctx.span(&bundle);
        for &s in &bundle {
            let loc = *self.ctx.memloc(s).expect("store has a memloc");
            if self.ctx.aliasing_mem_within(self.f, lo, hi, &loc, &bundle) {
                return self.gather(bundle, GatherWhy::Aliasing);
            }
        }
        let values: Vec<InstId> = bundle
            .iter()
            .map(|&v| match self.f.kind(v) {
                InstKind::Store { value, .. } => *value,
                _ => unreachable!(),
            })
            .collect();
        let node = self.add_node(Node {
            scalars: bundle.clone(),
            kind: NodeKind::Store,
            operands: Vec::new(),
        });
        self.mark_covered(&bundle, node);
        let v = self.build_bundle(values, depth + 1);
        self.nodes[node].operands.push(v);
        node
    }

    fn build_binary_bundle(&mut self, bundle: Vec<InstId>, depth: u32) -> NodeId {
        let all_binary = bundle
            .iter()
            .all(|&v| matches!(self.f.kind(v), InstKind::Binary { .. }));
        if !all_binary {
            return self.gather(bundle, GatherWhy::OpcodeMismatch);
        }
        let ops: Vec<BinOp> = bundle
            .iter()
            .map(|&v| match self.f.kind(v) {
                InstKind::Binary { op, .. } => *op,
                _ => unreachable!("checked above"),
            })
            .collect();

        // 1. Try a Multi/Super-Node (paper Listing 1, line 12).
        if self.cfg.mode.flattens_chains() {
            if let Some(node) = self.try_build_super(&bundle, &ops, depth) {
                return node;
            }
        }

        let same_op = ops.iter().all(|&o| o == ops[0]);
        let family = ops[0].family().map(|(f, _)| f);
        let alt_family = family.filter(|&fam| {
            ops.iter()
                .all(|o| o.family().map(|(f2, _)| f2) == Some(fam))
        });

        if same_op {
            // 2. Plain isomorphic bundle with commutative reordering.
            let (lefts, rights) = self.reorder_operands(&bundle, &ops);
            let node = self.add_node(Node {
                scalars: bundle.clone(),
                kind: NodeKind::Vector,
                operands: Vec::new(),
            });
            self.mark_covered(&bundle, node);
            let l = self.build_bundle(lefts, depth + 1);
            let r = self.build_bundle(rights, depth + 1);
            self.nodes[node].operands.push(l);
            self.nodes[node].operands.push(r);
            node
        } else if alt_family.is_some() {
            // 3. Alternating family ops, e.g. [add, sub] (paper Fig. 3(c)).
            let (lefts, rights) = self.reorder_operands(&bundle, &ops);
            let node = self.add_node(Node {
                scalars: bundle.clone(),
                kind: NodeKind::Alt { ops },
                operands: Vec::new(),
            });
            self.mark_covered(&bundle, node);
            let l = self.build_bundle(lefts, depth + 1);
            let r = self.build_bundle(rights, depth + 1);
            self.nodes[node].operands.push(l);
            self.nodes[node].operands.push(r);
            node
        } else {
            self.gather(bundle, GatherWhy::OpcodeMismatch)
        }
    }

    /// If every lane of `bundle` is covered by the *same* vectorizable
    /// node and the bundle is a permutation of that node's lane values,
    /// emits a [`NodeKind::Permute`] referencing it.
    fn try_permute(&mut self, bundle: &[InstId]) -> Option<NodeId> {
        let &src = self.covered.get(&bundle[0])?;
        // Super nodes cover trunk instructions whose values are not the
        // node's lane values; only plain lane-value nodes are shuffleable.
        if matches!(self.nodes[src].kind, NodeKind::Super(_)) {
            return None;
        }
        let lanes = &self.nodes[src].scalars;
        if lanes.len() != bundle.len() {
            return None;
        }
        let mask: Option<Vec<u8>> = bundle
            .iter()
            .map(|v| lanes.iter().position(|s| s == v).map(|p| p as u8))
            .collect();
        let mask = mask?;
        Some(self.add_node(Node {
            scalars: bundle.to_vec(),
            kind: NodeKind::Permute { mask },
            operands: vec![src],
        }))
    }

    /// Per-lane commutative operand orientation: lane 0 stays natural;
    /// each later lane picks the orientation maximizing the pair score
    /// against the previous lane's chosen operands.
    fn reorder_operands(&self, bundle: &[InstId], ops: &[BinOp]) -> (Vec<InstId>, Vec<InstId>) {
        let depth = self.lookahead_depth();
        let mut lefts = Vec::with_capacity(bundle.len());
        let mut rights = Vec::with_capacity(bundle.len());
        for (lane, &inst) in bundle.iter().enumerate() {
            let o = self.f.kind(inst).operands();
            let (mut l, mut r) = (o[0], o[1]);
            if lane > 0 && ops[lane].is_commutative() {
                let pl = lefts[lane - 1];
                let pr = rights[lane - 1];
                let straight = score_pair_with(self.f, self.cache, pl, l, depth)
                    + score_pair_with(self.f, self.cache, pr, r, depth);
                let swapped = score_pair_with(self.f, self.cache, pl, r, depth)
                    + score_pair_with(self.f, self.cache, pr, l, depth);
                if swapped > straight {
                    std::mem::swap(&mut l, &mut r);
                }
            }
            lefts.push(l);
            rights.push(r);
        }
        (lefts, rights)
    }

    /// Attempts to form a Multi-Node (LSLP) or Super-Node (SN-SLP) from a
    /// bundle of family ops (paper Listing 1 `buildSuperNode`).
    ///
    /// When the fully-grown Super-Node chains are incompatible across
    /// lanes (unequal leaf counts), SN-SLP retries with Multi-Node growth
    /// rules (inverse ops terminate the trunk) so that it never loses an
    /// opportunity LSLP would have found — SN-SLP strictly generalizes
    /// LSLP.
    fn try_build_super(&mut self, bundle: &[InstId], ops: &[BinOp], depth: u32) -> Option<NodeId> {
        let mut variants: Vec<bool> = Vec::new();
        if self.cfg.mode.allows_inverse_ops() {
            variants.push(true);
        }
        variants.push(false);
        for allow_inverse in variants {
            if let Some(chains) = self.extract_compatible_chains(bundle, ops, allow_inverse) {
                return Some(self.commit_super(bundle, chains, depth));
            }
        }
        None
    }

    /// Extracts one chain per lane under the given growth rule; `None` if
    /// any lane fails or the lanes are incompatible.
    fn extract_compatible_chains(
        &self,
        bundle: &[InstId],
        ops: &[BinOp],
        allow_inverse: bool,
    ) -> Option<Vec<LaneChain>> {
        let (family, _) = ops[0].family()?;
        for op in ops {
            let (fam, dir) = op.family()?;
            if fam != family {
                return None;
            }
            if !allow_inverse && dir == snslp_ir::Direction::Inverse {
                return None;
            }
        }

        // Later lanes must not claim instructions already claimed by
        // earlier lanes' trunks.
        let mut claimed_trunks: Vec<InstId> = Vec::new();
        let mut chains: Vec<LaneChain> = Vec::with_capacity(bundle.len());
        for &root in bundle {
            let covered = &self.covered;
            let local = claimed_trunks.clone();
            let chain = extract_chain(
                self.f,
                self.ctx,
                root,
                allow_inverse,
                MAX_SUPERNODE_LEAVES,
                &move |i| covered.contains_key(&i) || local.contains(&i),
            )?;
            claimed_trunks.extend_from_slice(&chain.trunk);
            chains.push(chain);
        }

        // Compatibility (paper `areCompatible`): equal leaf counts and a
        // genuine chain (size ≥ 2) in every lane — a size-1 "chain" is
        // just a plain bundle and is handled by the normal path.
        let n_leaves = chains[0].leaves.len();
        if chains.iter().any(|c| c.leaves.len() != n_leaves) {
            return None;
        }
        if chains.iter().any(|c| c.size() < 2) {
            return None;
        }
        Some(chains)
    }

    /// Plans the reordering and creates the Super-Node and its operand
    /// slot bundles.
    fn commit_super(&mut self, bundle: &[InstId], chains: Vec<LaneChain>, depth: u32) -> NodeId {
        let plan: SuperNodePlan = plan_supernode_cached(
            self.f,
            chains,
            self.cfg.lookahead_depth,
            self.cfg.enable_trunk_reordering,
            self.cache,
        );

        let info = SuperInfo {
            family: plan.family,
            trunks: plan.chains.iter().map(|c| c.trunk.clone()).collect(),
            slot_signs: (0..plan.num_slots()).map(|j| plan.slot_signs(j)).collect(),
            leaf_moves: plan.leaf_moves,
            trunk_assisted_moves: plan.trunk_assisted_moves,
        };
        let node = self.add_node(Node {
            scalars: bundle.to_vec(),
            kind: NodeKind::Super(info),
            operands: Vec::new(),
        });
        // Cover *all* trunk instructions.
        for chain in &plan.chains {
            self.mark_covered(&chain.trunk, node);
        }
        for j in 0..plan.num_slots() {
            let slot = plan.slot_values(j);
            let child = self.build_bundle(slot, depth + 1);
            self.nodes[node].operands.push(child);
        }
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlpConfig;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    /// The paper's Figure 2-style kernel: two lanes, leaf reordering only.
    ///   A[0] = B[0] - C[0] + D[1];   (D and B leaves swapped in lane 1)
    ///   A[1] = D[2] - C[1] + B[1];
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
        // Lane 0: B[0] - C[0] + D[1]
        let b0 = ld(b, 0, &mut fb);
        let c0 = ld(c, 0, &mut fb);
        let d1 = ld(d, 1, &mut fb);
        let t0 = fb.sub(b0, c0);
        let r0 = fb.add(t0, d1);
        let s0 = fb.store(a, r0);
        // Lane 1: D[2] - C[1] + B[1]
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

    fn graph_for(f: &Function, seeds: &[InstId], mode: SlpMode) -> SlpGraph {
        let ctx = BlockCtx::compute(f, f.entry());
        let cfg = SlpConfig::new(mode);
        build_graph(f, &ctx, &cfg, seeds)
    }

    #[test]
    fn vanilla_slp_on_fig2_has_two_gathers() {
        let (f, seeds) = fig2();
        let g = graph_for(&f, &seeds, SlpMode::Slp);
        // store → add → {sub, gather}; sub → {gather, C-load}.
        let gathers = g.num_gather_nodes();
        assert_eq!(gathers, 2, "non-adjacent D/B leaf groups gather: {g:#?}");
        // The C loads vectorize; B/D groups do not.
        let loads = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Load))
            .count();
        assert_eq!(loads, 1);
        assert!(g.super_node_sizes().is_empty());
    }

    #[test]
    fn snslp_on_fig2_is_fully_vectorizable() {
        let (f, seeds) = fig2();
        let g = graph_for(&f, &seeds, SlpMode::SnSlp);
        assert_eq!(g.num_gather_nodes(), 0, "{g:#?}");
        let supers = g.super_node_sizes();
        assert_eq!(supers, vec![2], "one Super-Node of size 2");
        // Three vector-load slots.
        let loads = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Load))
            .count();
        assert_eq!(loads, 3);
    }

    #[test]
    fn lslp_cannot_flatten_across_subtraction() {
        let (f, seeds) = fig2();
        let g = graph_for(&f, &seeds, SlpMode::Lslp);
        // The roots are adds, but the chains stop at the subs (inverse
        // ops are not allowed in Multi-Nodes) — size-1 chains don't form
        // a Multi-Node.
        assert!(g.super_node_sizes().is_empty(), "{g:#?}");
        assert_eq!(g.num_gather_nodes(), 2);
    }

    #[test]
    fn covered_tracks_trunk_instructions() {
        let (f, seeds) = fig2();
        let g = graph_for(&f, &seeds, SlpMode::SnSlp);
        // 2 stores + 2 adds + 2 subs + 6 loads are covered.
        assert_eq!(g.covered.len(), 12);
        // lane_of resolves trunk members to their lane.
        for (&inst, _) in g.covered.iter() {
            assert!(g.lane_of(inst).is_some());
        }
    }

    #[test]
    fn splat_and_constant_gathers_classified() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let k = fb.const_f64(2.0);
        let m0 = fb.mul(x, k);
        let k2 = fb.const_f64(3.0);
        let p1 = fb.ptradd_const(p, 8);
        let x1 = fb.load(ScalarType::F64, p1);
        let m1 = fb.mul(x1, k2);
        let s0 = fb.store(p, m0);
        let s1 = fb.store(p1, m1);
        fb.ret(None);
        let f = fb.finish();
        let g = graph_for(&f, &[s0, s1], SlpMode::Slp);
        let has_const_gather = g.nodes.iter().any(|n| {
            matches!(
                n.kind,
                NodeKind::Gather {
                    kind: GatherKind::Constants,
                    ..
                }
            )
        });
        assert!(has_const_gather, "{g:#?}");
    }

    #[test]
    fn dependent_lanes_gather() {
        // store a[0] = x; store a[1] = x + a-load — lanes are fine, but
        // make lane1's value depend on lane0's value.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::I64, p);
        let y = fb.add(x, x);
        let z = fb.add(y, x); // z depends on y
        let s0 = fb.store(p, y);
        let p1 = fb.ptradd_const(p, 8);
        let s1 = fb.store(p1, z);
        fb.ret(None);
        let f = fb.finish();
        let g = graph_for(&f, &[s0, s1], SlpMode::Slp);
        // The value bundle {y, z} has z depending on y → gather.
        let root = &g.nodes[g.root()];
        assert!(matches!(root.kind, NodeKind::Store));
        let val = &g.nodes[root.operands[0]];
        assert!(
            matches!(val.kind, NodeKind::Gather { .. }),
            "dependent lanes must gather: {g:#?}"
        );
    }

    #[test]
    fn alt_bundle_forms_for_mixed_add_sub() {
        // lane0: x0 + y0 ; lane1: x1 - y1 (no chains: single ops).
        let mut fb = FunctionBuilder::new(
            "t",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("x"),
                Param::noalias_ptr("y"),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let x = fb.func().param(1);
        let y = fb.func().param(2);
        let x0 = fb.load(ScalarType::I64, x);
        let y0 = fb.load(ScalarType::I64, y);
        let r0 = fb.add(x0, y0);
        let px1 = fb.ptradd_const(x, 8);
        let py1 = fb.ptradd_const(y, 8);
        let x1 = fb.load(ScalarType::I64, px1);
        let y1 = fb.load(ScalarType::I64, py1);
        let r1 = fb.sub(x1, y1);
        let s0 = fb.store(a, r0);
        let pa1 = fb.ptradd_const(a, 8);
        let s1 = fb.store(pa1, r1);
        fb.ret(None);
        let f = fb.finish();
        // Vanilla SLP: no chain flattening → Alt node.
        let g = graph_for(&f, &[s0, s1], SlpMode::Slp);
        let alts = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Alt { .. }))
            .count();
        assert_eq!(alts, 1, "{g:#?}");
        assert_eq!(g.num_gather_nodes(), 0);
    }

    #[test]
    fn load_across_aliasing_store_gathers() {
        // load a[0]; store a[1] = ...; load a[1]; bundling the loads
        // would cross the store.
        let mut fb = FunctionBuilder::new(
            "t",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("o")],
            Type::Void,
        );
        let a = fb.func().param(0);
        let o = fb.func().param(1);
        let l0 = fb.load(ScalarType::I64, a);
        let pa1 = fb.ptradd_const(a, 8);
        let k = fb.const_i64(7);
        fb.store(pa1, k);
        let l1 = fb.load(ScalarType::I64, pa1);
        let r0 = fb.add(l0, l0);
        let r1 = fb.add(l1, l1);
        let s0 = fb.store(o, r0);
        let po1 = fb.ptradd_const(o, 8);
        let s1 = fb.store(po1, r1);
        fb.ret(None);
        let f = fb.finish();
        let g = graph_for(&f, &[s0, s1], SlpMode::Slp);
        let loads = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Load))
            .count();
        assert_eq!(loads, 0, "loads must gather, they cross a store: {g:#?}");
    }
}
