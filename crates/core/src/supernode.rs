//! Super-Node leaf and trunk reordering (paper §IV-C, Listings 2 and 3).
//!
//! Given one [`LaneChain`] per SIMD lane (all with the same leaf count),
//! the planner greedily assigns, slot by slot (root-first), one leaf per
//! lane to each operand position of the "fat" Super-Node, maximizing the
//! LSLP look-ahead score of each group.
//!
//! ## Legality model
//!
//! Each lane's leaf positions carry an APO label and a trunk-sign class
//! (see [`crate::chain`]). The paper's two legality rules translate to a
//! label-consumption scheme:
//!
//! * **leaf-only move** (§IV-C2): a leaf may occupy a position whose APO
//!   label equals the leaf's APO;
//! * **trunk-assisted move** (§IV-C3): trunk nodes of equal accumulated
//!   sign may swap, which permutes APO labels *within* a trunk-sign class
//!   (and never across classes — the Fig. 4(c) illegal case).
//!
//! Consequently a leaf is assignable to slot *j* of its lane iff the
//! class of position *j* still has an unconsumed label equal to the
//! leaf's APO. Because every lane's leaf multiset matches its label
//! multiset, the greedy assignment can never strand a slot.

use snslp_ir::{Function, InstId, OpFamily};

use crate::chain::{LaneChain, Sign};
use crate::lookahead::ScoreMemo;

/// One lane's contribution to one operand slot of the Super-Node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotChoice {
    /// The leaf value placed in this slot.
    pub value: InstId,
    /// The sign with which it enters the flattened expression (its APO).
    pub sign: Sign,
}

/// The planned Super-Node: reordered leaf groups plus statistics.
#[derive(Debug, Clone)]
pub struct SuperNodePlan {
    /// Operator family of the node.
    pub family: OpFamily,
    /// Per-lane chains (trunk instructions, used for replacement).
    pub chains: Vec<LaneChain>,
    /// Slot-major assignment: `slots[j][lane]`.
    pub slots: Vec<Vec<SlotChoice>>,
    /// Number of placements achieved by a plain leaf move.
    pub leaf_moves: usize,
    /// Number of placements that needed a trunk swap (label borrowed from
    /// a different position of the same class).
    pub trunk_assisted_moves: usize,
}

impl SuperNodePlan {
    /// Number of SIMD lanes.
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// Number of operand slots (= leaves per lane).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The per-lane signs of slot `j`.
    pub fn slot_signs(&self, j: usize) -> Vec<Sign> {
        self.slots[j].iter().map(|c| c.sign).collect()
    }

    /// The per-lane values of slot `j` (the bundle to vectorize).
    pub fn slot_values(&self, j: usize) -> Vec<InstId> {
        self.slots[j].iter().map(|c| c.value).collect()
    }

    /// The paper's node "size" (depth): trunk instructions per lane.
    pub fn size(&self) -> u32 {
        self.chains[0].size()
    }
}

/// Per-lane mutable state during planning.
struct LaneState {
    used: Vec<bool>,
    /// Remaining APO labels per class: [class][label] → count,
    /// indexed Plus=0 / Minus=1.
    labels: [[u32; 2]; 2],
}

fn idx(s: Sign) -> usize {
    match s {
        Sign::Plus => 0,
        Sign::Minus => 1,
    }
}

impl LaneState {
    fn new(chain: &LaneChain) -> Self {
        let mut labels = [[0u32; 2]; 2];
        for l in &chain.leaves {
            labels[idx(l.class)][idx(l.apo)] += 1;
        }
        LaneState {
            used: vec![false; chain.leaves.len()],
            labels,
        }
    }

    /// Whether a leaf with APO `apo` can be placed at a position of class
    /// `class` (some unconsumed label of that class matches).
    fn legal(&self, class: Sign, apo: Sign) -> bool {
        self.labels[idx(class)][idx(apo)] > 0
    }

    fn consume(&mut self, class: Sign, apo: Sign) {
        debug_assert!(self.legal(class, apo));
        self.labels[idx(class)][idx(apo)] -= 1;
    }
}

/// Plans the reordered Super-Node for `chains`, scoring candidate leaf
/// groups through `memo` (leaf grouping scores every candidate leaf
/// against every slot anchor, so it re-requests the same pairs heavily).
/// `allow_trunk_swaps = false` restricts legality to leaf-only moves (the
/// §IV-C2 rule alone — the ablation of §IV-C3's trunk movement).
///
/// # Panics
///
/// Panics if `chains` is empty or the lanes have differing leaf counts
/// (the caller checks compatibility first, paper Listing 1 `areCompatible`).
pub fn plan_supernode(
    f: &Function,
    chains: Vec<LaneChain>,
    lookahead_depth: u32,
    allow_trunk_swaps: bool,
    memo: &ScoreMemo,
) -> SuperNodePlan {
    assert!(!chains.is_empty(), "need at least one lane");
    let n_slots = chains[0].leaves.len();
    assert!(
        chains.iter().all(|c| c.leaves.len() == n_slots),
        "lanes must have equal leaf counts"
    );
    let family = chains[0].family;
    let width = chains.len();

    let mut states: Vec<LaneState> = chains.iter().map(LaneState::new).collect();
    let mut slots: Vec<Vec<SlotChoice>> = Vec::with_capacity(n_slots);
    let mut leaf_moves = 0usize;
    let mut trunk_assisted = 0usize;

    // Legality of placing a leaf at slot `op_i` of `lane`: with trunk
    // swaps, any unconsumed label of the slot's trunk-sign class may be
    // borrowed (§IV-C3); leaf-only, the leaf's APO must equal the slot's
    // own original label (§IV-C2).
    let slot_legal = |states: &[LaneState], lane: usize, op_i: usize, apo: Sign| -> bool {
        if allow_trunk_swaps {
            states[lane].legal(chains[lane].leaves[op_i].class, apo)
        } else {
            chains[lane].leaves[op_i].apo == apo
        }
    };

    // Slots are visited root-first: the leaves of each chain are already
    // sorted by depth, so slot j's class in lane L is chains[L].leaves[j]
    // .class and its original APO label is .apo.
    for op_i in 0..n_slots {
        // Try every legal lane-0 leaf as the group's anchor (Listing 2
        // line ~10) and keep the best-scoring group.
        let mut best: Option<(Vec<usize>, i32)> = None;
        for anchor in 0..n_slots {
            if states[0].used[anchor] {
                continue;
            }
            if !slot_legal(&states, 0, op_i, chains[0].leaves[anchor].apo) {
                continue;
            }
            // Greedily extend to the other lanes (Listing 3).
            let mut group = vec![anchor];
            let mut score = 0i32;
            let mut ok = true;
            for lane in 1..width {
                let prev_val = chains[lane - 1].leaves[group[lane - 1]].value;
                let mut best_leaf: Option<(usize, i32)> = None;
                for (li, leaf) in chains[lane].leaves.iter().enumerate() {
                    if states[lane].used[li] || !slot_legal(&states, lane, op_i, leaf.apo) {
                        continue;
                    }
                    let s = memo.score(f, prev_val, leaf.value, lookahead_depth);
                    if best_leaf.map(|(_, bs)| s > bs).unwrap_or(true) {
                        best_leaf = Some((li, s));
                    }
                }
                match best_leaf {
                    Some((li, s)) => {
                        group.push(li);
                        score += s;
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && best.as_ref().map(|(_, bs)| score > *bs).unwrap_or(true) {
                best = Some((group, score));
            }
        }

        let (group, _) = best.expect("a legal candidate always exists (label invariant)");
        let mut slot = Vec::with_capacity(width);
        for (lane, &leaf_idx) in group.iter().enumerate() {
            let leaf = chains[lane].leaves[leaf_idx];
            let pos = &chains[lane].leaves[op_i];
            states[lane].used[leaf_idx] = true;
            states[lane].consume(pos.class, leaf.apo);
            if leaf.apo == pos.apo {
                leaf_moves += 1;
                snslp_trace::bump(snslp_trace::Counter::LeafMoves);
            } else {
                trunk_assisted += 1;
                snslp_trace::bump(snslp_trace::Counter::TrunkAssistedMoves);
            }
            slot.push(SlotChoice {
                value: leaf.value,
                sign: leaf.apo,
            });
        }
        slots.push(slot);
    }

    SuperNodePlan {
        family,
        chains,
        slots,
        leaf_moves,
        trunk_assisted_moves: trunk_assisted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::extract_chain;
    use crate::ctx::BlockCtx;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    /// Builds the paper's Figure 3 kernel (one unrolled iteration pair):
    /// `A[0] = B[0] - C[0] + D[0];  A[1] = B[1] + D[1] - C[1]`.
    /// Returns the function and the two lane roots.
    fn fig3() -> (Function, InstId, InstId) {
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
        // Lane 0
        let b0 = fb.load(ScalarType::I64, b);
        let c0 = fb.load(ScalarType::I64, c);
        let d0 = fb.load(ScalarType::I64, d);
        let t0 = fb.sub(b0, c0);
        let r0 = fb.add(t0, d0);
        fb.store(a, r0);
        // Lane 1
        let pb1 = fb.ptradd_const(b, 8);
        let pc1 = fb.ptradd_const(c, 8);
        let pd1 = fb.ptradd_const(d, 8);
        let pa1 = fb.ptradd_const(a, 8);
        let b1 = fb.load(ScalarType::I64, pb1);
        let d1 = fb.load(ScalarType::I64, pd1);
        let c1 = fb.load(ScalarType::I64, pc1);
        let t1 = fb.add(b1, d1);
        let r1 = fb.sub(t1, c1);
        fb.store(pa1, r1);
        fb.ret(None);
        (fb.finish(), r0, r1)
    }

    fn chains_of(f: &Function, roots: &[InstId]) -> Vec<LaneChain> {
        let ctx = BlockCtx::compute(f, f.entry());
        roots
            .iter()
            .map(|&r| extract_chain(f, &ctx, r, true, 32, &|_| false).unwrap())
            .collect()
    }

    #[test]
    fn fig3_groups_become_isomorphic() {
        let (f, r0, r1) = fig3();
        let chains = chains_of(&f, &[r0, r1]);
        assert_eq!(chains[0].leaves.len(), 3);
        assert_eq!(chains[1].leaves.len(), 3);
        let plan = plan_supernode(&f, chains, 2, true, &ScoreMemo::default());
        assert_eq!(plan.num_slots(), 3);
        // Every slot must pair leaves from the same array: consecutive
        // loads score highest, so the planner aligns B with B, C with C,
        // D with D — and each slot's signs agree across lanes.
        for j in 0..3 {
            let signs = plan.slot_signs(j);
            assert_eq!(
                signs[0], signs[1],
                "slot {j} should have matching signs after reordering"
            );
        }
        // Exactly one slot is negative (the C slot).
        let negatives = (0..3)
            .filter(|&j| plan.slot_signs(j)[0] == Sign::Minus)
            .count();
        assert_eq!(negatives, 1);
        // Lane 1 needed a trunk-assisted move (paper §III-C).
        assert!(
            plan.trunk_assisted_moves > 0,
            "Fig. 3 requires trunk reordering; stats: leaf={}, trunk={}",
            plan.leaf_moves,
            plan.trunk_assisted_moves
        );
    }

    #[test]
    fn signs_preserve_apo_multiset_per_lane() {
        let (f, r0, r1) = fig3();
        let chains = chains_of(&f, &[r0, r1]);
        let orig: Vec<Vec<Sign>> = chains
            .iter()
            .map(|c| {
                let mut v: Vec<Sign> = c.leaves.iter().map(|l| l.apo).collect();
                v.sort_by_key(|s| idx(*s));
                v
            })
            .collect();
        let plan = plan_supernode(&f, chains, 2, true, &ScoreMemo::default());
        for (lane, want) in orig.iter().enumerate() {
            let mut got: Vec<Sign> = (0..plan.num_slots())
                .map(|j| plan.slots[j][lane].sign)
                .collect();
            got.sort_by_key(|s| idx(*s));
            assert_eq!(&got, want, "lane {lane} APO multiset must survive");
        }
    }

    #[test]
    fn class_restriction_blocks_cross_class_moves() {
        // Lane with a nested RHS subtree:  r = a - (b + c).
        // Classes: a is class +, b and c class -.  A second lane shaped
        // (a' - b') - c' has all classes +.  Leaf counts match (3 vs 3),
        // so a Super-Node forms, but lane 0's class-minus labels {-,-}
        // can only be consumed by minus-APO leaves — which is consistent;
        // the key check is the planner respects per-class availability.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let at = |k: i64, fb: &mut FunctionBuilder| {
            let q = fb.ptradd_const(p, 8 * k);
            fb.load(ScalarType::I64, q)
        };
        let a = at(0, &mut fb);
        let b = at(1, &mut fb);
        let c = at(2, &mut fb);
        let inner = fb.add(b, c);
        let r0 = fb.sub(a, inner);
        fb.store(p, r0);
        let a2 = at(8, &mut fb);
        let b2 = at(9, &mut fb);
        let c2 = at(10, &mut fb);
        let t2 = fb.sub(a2, b2);
        let r1 = fb.sub(t2, c2);
        let q = fb.ptradd_const(p, 8);
        fb.store(q, r1);
        fb.ret(None);
        let f = fb.finish();
        let chains = chains_of(&f, &[r0, r1]);
        let plan = plan_supernode(&f, chains.clone(), 2, true, &ScoreMemo::default());
        // Lane 0: slot 0 (root class +) must receive the only plus-APO
        // leaf in class + — which is `a` (b and c live in class -).
        assert_eq!(plan.slots[0][0].value, a);
        assert_eq!(plan.slots[0][0].sign, Sign::Plus);
        // The two minus leaves of lane 0 fill the remaining slots.
        let lane0_rest: Vec<InstId> = (1..3).map(|j| plan.slots[j][0].value).collect();
        assert!(lane0_rest.contains(&b) && lane0_rest.contains(&c));
    }

    #[test]
    fn lslp_multinode_has_trivial_legality() {
        // All-add chains: every leaf is +/+, any permutation legal, and
        // the planner groups consecutive loads together.
        let mut fb = FunctionBuilder::new(
            "t",
            vec![Param::noalias_ptr("x"), Param::noalias_ptr("y")],
            Type::Void,
        );
        let x = fb.func().param(0);
        let y = fb.func().param(1);
        let ld = |base: InstId, k: i64, fb: &mut FunctionBuilder| {
            let q = fb.ptradd_const(base, 8 * k);
            fb.load(ScalarType::I64, q)
        };
        // lane0: x0 + y0 + x1 ; lane1: y1 + x2 ... deliberately scrambled
        let x0 = ld(x, 0, &mut fb);
        let y0 = ld(y, 0, &mut fb);
        let x1 = ld(x, 1, &mut fb);
        let s = fb.add(x0, y0);
        let r0 = fb.add(s, x1);
        fb.store(x, r0);
        let y1 = ld(y, 1, &mut fb);
        let x2 = ld(x, 2, &mut fb);
        let x3 = ld(x, 3, &mut fb);
        let s2 = fb.add(y1, x2);
        let r1 = fb.add(s2, x3);
        let q = fb.ptradd_const(x, 8);
        fb.store(q, r1);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        let chains: Vec<LaneChain> = [r0, r1]
            .iter()
            .map(|&r| extract_chain(&f, &ctx, r, false, 32, &|_| false).unwrap())
            .collect();
        let plan = plan_supernode(&f, chains, 2, true, &ScoreMemo::default());
        assert_eq!(
            plan.trunk_assisted_moves, 0,
            "all-plus labels: no swaps needed"
        );
        // y0 is grouped with y1 (consecutive), and x-loads pair up too.
        let has_y_slot = (0..3).any(|j| {
            let vals = plan.slot_values(j);
            vals == vec![y0, y1]
        });
        assert!(has_y_slot, "look-ahead should pair the y loads");
    }

    #[test]
    fn leaf_only_planner_respects_original_slot_labels() {
        // With trunk swaps disabled, every slot must receive a leaf whose
        // APO equals the slot's own original label.
        let (f, r0, r1) = fig3();
        let chains = chains_of(&f, &[r0, r1]);
        let plan = plan_supernode(&f, chains.clone(), 2, false, &ScoreMemo::default());
        assert_eq!(plan.trunk_assisted_moves, 0);
        for (lane, chain) in chains.iter().enumerate() {
            for j in 0..plan.num_slots() {
                assert_eq!(
                    plan.slots[j][lane].sign, chain.leaves[j].apo,
                    "lane {lane} slot {j}"
                );
            }
        }
    }
}
