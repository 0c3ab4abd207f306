//! Functions: arenas of instructions organized into basic blocks.

use std::collections::HashMap;

use crate::inst::{BlockId, InstId, InstKind};
use crate::types::Type;

/// A function parameter declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name (without the `%` sigil).
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Whether the pointer is guaranteed not to alias any other `noalias`
    /// pointer parameter (the C `restrict` qualifier). Only meaningful for
    /// `ptr` parameters.
    pub noalias: bool,
}

impl Param {
    /// Creates a parameter without `noalias`.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Param {
            name: name.into(),
            ty,
            noalias: false,
        }
    }

    /// Creates a `noalias ptr` parameter.
    pub fn noalias_ptr(name: impl Into<String>) -> Self {
        Param {
            name: name.into(),
            ty: Type::Ptr,
            noalias: true,
        }
    }
}

/// One instruction slot in the arena.
#[derive(Debug, Clone)]
pub struct InstData {
    /// What the instruction does.
    pub kind: InstKind,
    /// The type of the value it produces (`Void` for effects).
    pub ty: Type,
}

/// A basic block: an ordered list of instruction ids.
#[derive(Debug, Clone, Default)]
pub struct BlockData {
    /// Block label (without the `bb` prefix when auto-generated).
    pub name: String,
    insts: Vec<InstId>,
}

impl BlockData {
    /// The instructions of the block in execution order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }
}

/// A function: parameters, an instruction arena, and basic blocks.
///
/// Instructions are stored in a flat arena indexed by [`InstId`]; function
/// parameters occupy the first arena slots as [`InstKind::Param`] entries,
/// so every operand is uniformly an [`InstId`]. Removal unlinks an
/// instruction from its block but keeps the arena slot (tombstone), which
/// keeps ids stable during transformation passes.
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    params: Vec<Param>,
    param_ids: Vec<InstId>,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    ret_ty: Type,
    /// Whether floating-point reassociation is allowed (the paper compiles
    /// with `-ffast-math`; forming FP Super-Nodes requires this).
    pub fast_math: bool,
}

impl Function {
    /// Creates an empty function with one (entry) block named `entry`.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Self {
        let mut f = Function {
            name: name.into(),
            params: Vec::new(),
            param_ids: Vec::new(),
            insts: Vec::new(),
            blocks: Vec::new(),
            ret_ty,
            fast_math: false,
        };
        for (i, p) in params.iter().enumerate() {
            let id = InstId(f.insts.len() as u32);
            f.insts.push(InstData {
                kind: InstKind::Param(i as u32),
                ty: p.ty,
            });
            f.param_ids.push(id);
        }
        f.params = params;
        f.add_block("entry");
        f
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared return type.
    pub fn ret_ty(&self) -> Type {
        self.ret_ty
    }

    /// The parameter declarations.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// The arena ids of the parameters, in declaration order.
    pub fn param_ids(&self) -> &[InstId] {
        &self.param_ids
    }

    /// The arena id of the `i`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> InstId {
        self.param_ids[i]
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Appends a new empty block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
        });
        id
    }

    /// Ids of all blocks in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Data of a block.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a block of this function.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Total number of arena slots (including parameters and tombstones).
    pub fn num_inst_slots(&self) -> usize {
        self.insts.len()
    }

    /// Data of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid arena id.
    pub fn inst(&self, id: InstId) -> &InstData {
        &self.insts[id.index()]
    }

    /// Shorthand for `self.inst(id).kind`.
    pub fn kind(&self, id: InstId) -> &InstKind {
        &self.insts[id.index()].kind
    }

    /// Shorthand for `self.inst(id).ty`.
    pub fn ty(&self, id: InstId) -> Type {
        self.insts[id.index()].ty
    }

    /// Mutable access to an instruction's kind. Use with care: the caller
    /// is responsible for keeping types consistent.
    pub fn kind_mut(&mut self, id: InstId) -> &mut InstKind {
        &mut self.insts[id.index()].kind
    }

    /// Appends an instruction to the end of `block`.
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind, ty: Type) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { kind, ty });
        self.blocks[block.index()].insts.push(id);
        id
    }

    /// Inserts an instruction into `block` before position `pos` (an index
    /// into the block's instruction list).
    ///
    /// # Panics
    ///
    /// Panics if `pos > block.len()`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, kind: InstKind, ty: Type) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { kind, ty });
        self.blocks[block.index()].insts.insert(pos, id);
        id
    }

    /// Creates an arena slot without placing it into any block. Used by
    /// passes that build instructions first and schedule them later.
    pub fn create_detached(&mut self, kind: InstKind, ty: Type) -> InstId {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(InstData { kind, ty });
        id
    }

    /// Replaces the instruction list of `block` wholesale. Used by the
    /// vectorizer's scheduler when it rebuilds a block.
    pub fn set_block_insts(&mut self, block: BlockId, insts: Vec<InstId>) {
        self.blocks[block.index()].insts = insts;
    }

    /// Overwrites a reserved arena slot and appends it to `block`. Used by
    /// the parser to resolve forward references (a slot is reserved when a
    /// name is first used, and defined when its definition is reached).
    pub fn define_slot(&mut self, id: InstId, block: BlockId, kind: InstKind, ty: Type) {
        self.insts[id.index()] = InstData { kind, ty };
        self.blocks[block.index()].insts.push(id);
    }

    /// Renames a block.
    pub fn set_block_name(&mut self, block: BlockId, name: impl Into<String>) {
        self.blocks[block.index()].name = name.into();
    }

    /// Unlinks `id` from `block` (the arena slot becomes a tombstone).
    ///
    /// Returns `true` if the instruction was present.
    pub fn unlink_inst(&mut self, block: BlockId, id: InstId) -> bool {
        let insts = &mut self.blocks[block.index()].insts;
        if let Some(pos) = insts.iter().position(|&i| i == id) {
            insts.remove(pos);
            true
        } else {
            false
        }
    }

    /// The block containing `id`, or `None` for parameters, detached
    /// instructions, and tombstones.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.block_ids()
            .find(|&b| self.blocks[b.index()].insts.contains(&id))
    }

    /// Map from instruction id to `(block, index-in-block)` for all linked
    /// instructions. O(instructions); compute once per pass.
    pub fn positions(&self) -> HashMap<InstId, (BlockId, usize)> {
        let mut map = HashMap::new();
        for b in self.block_ids() {
            for (i, &id) in self.blocks[b.index()].insts.iter().enumerate() {
                map.insert(id, (b, i));
            }
        }
        map
    }

    /// Rewrites every use of `from` to `to` across all linked instructions.
    /// Detached instructions and tombstones are left untouched (codegen
    /// relies on this while unscheduled vector instructions exist).
    pub fn replace_all_uses(&mut self, from: InstId, to: InstId) {
        let insts = &mut self.insts;
        for b in &self.blocks {
            for &id in &b.insts {
                insts[id.index()].kind.for_each_operand_mut(|o| {
                    if *o == from {
                        *o = to;
                    }
                });
            }
        }
    }

    /// Number of uses of each arena slot by linked instructions.
    pub fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.insts.len()];
        for b in &self.blocks {
            for &id in &b.insts {
                self.insts[id.index()]
                    .kind
                    .for_each_operand(|op| counts[op.index()] += 1);
            }
        }
        counts
    }

    /// Predecessor blocks of every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            if let Some(&term) = self.blocks[b.index()].insts.last() {
                for s in self.insts[term.index()].kind.successors() {
                    preds[s.index()].push(b);
                }
            }
        }
        preds
    }

    /// Removes linked instructions that are transitively dead (no uses, no
    /// side effects). A single worklist pass over the use counts finds the
    /// full closure — equivalent to iterating block sweeps to a fixed
    /// point, but O(instructions + edges) instead of O(passes × n²).
    /// Returns the number of instructions removed from blocks.
    pub fn remove_dead_code(&mut self) -> usize {
        let slots = self.insts.len();
        let mut counts = self.use_counts();
        let mut linked = vec![false; slots];
        for b in &self.blocks {
            for &id in &b.insts {
                linked[id.index()] = true;
            }
        }
        let mut dead = vec![false; slots];
        let mut work: Vec<InstId> = Vec::new();
        for b in &self.blocks {
            for &id in &b.insts {
                if counts[id.index()] == 0 && !self.insts[id.index()].kind.has_side_effects() {
                    dead[id.index()] = true;
                    work.push(id);
                }
            }
        }
        let mut removed = 0usize;
        while let Some(id) = work.pop() {
            removed += 1;
            let insts = &self.insts;
            let counts = &mut counts;
            let dead = &mut dead;
            let linked = &linked;
            let work_ref = &mut work;
            insts[id.index()].kind.for_each_operand(|op| {
                let i = op.index();
                counts[i] -= 1;
                if counts[i] == 0 && linked[i] && !dead[i] && !insts[i].kind.has_side_effects() {
                    dead[i] = true;
                    work_ref.push(op);
                }
            });
        }
        if removed > 0 {
            for b in &mut self.blocks {
                b.insts.retain(|id| !dead[id.index()]);
            }
        }
        removed
    }

    /// Total number of instructions linked into blocks.
    pub fn num_linked_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Constant};
    use crate::types::ScalarType;

    fn sample() -> Function {
        // f(x: i64) { entry: c = const 1; s = add x, c; ret s }
        let mut f = Function::new(
            "sample",
            vec![Param::new("x", Type::scalar(ScalarType::I64))],
            Type::scalar(ScalarType::I64),
        );
        let entry = f.entry();
        let c = f.append_inst(
            entry,
            InstKind::Const(Constant::I64(1)),
            Type::scalar(ScalarType::I64),
        );
        let x = f.param(0);
        let s = f.append_inst(
            entry,
            InstKind::Binary {
                op: BinOp::Add,
                lhs: x,
                rhs: c,
            },
            Type::scalar(ScalarType::I64),
        );
        f.append_inst(entry, InstKind::Ret { value: Some(s) }, Type::Void);
        f
    }

    #[test]
    fn params_are_arena_slots() {
        let f = sample();
        let x = f.param(0);
        assert_eq!(*f.kind(x), InstKind::Param(0));
        assert_eq!(f.ty(x), Type::scalar(ScalarType::I64));
        assert!(f.block_of(x).is_none());
    }

    #[test]
    fn use_counts_and_users() {
        let f = sample();
        let counts = f.use_counts();
        let x = f.param(0);
        assert_eq!(counts[x.index()], 1);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = sample();
        let entry = f.entry();
        let c2 = f.append_inst(
            entry,
            InstKind::Const(Constant::I64(2)),
            Type::scalar(ScalarType::I64),
        );
        let x = f.param(0);
        f.replace_all_uses(x, c2);
        assert_eq!(f.use_counts()[x.index()], 0);
        assert!(f.use_counts()[c2.index()] >= 1);
    }

    #[test]
    fn dead_code_removal() {
        let mut f = sample();
        let entry = f.entry();
        // An unused constant is dead; the terminator is not.
        f.insert_inst(
            entry,
            0,
            InstKind::Const(Constant::I64(99)),
            Type::scalar(ScalarType::I64),
        );
        let before = f.num_linked_insts();
        let removed = f.remove_dead_code();
        assert_eq!(removed, 1);
        assert_eq!(f.num_linked_insts(), before - 1);
    }

    #[test]
    fn dead_code_removal_is_transitive() {
        let mut f = Function::new("t", vec![], Type::Void);
        let entry = f.entry();
        let ty = Type::scalar(ScalarType::I32);
        let a = f.append_inst(entry, InstKind::Const(Constant::I32(1)), ty);
        let b = f.append_inst(entry, InstKind::Const(Constant::I32(2)), ty);
        let _sum = f.append_inst(
            entry,
            InstKind::Binary {
                op: BinOp::Add,
                lhs: a,
                rhs: b,
            },
            ty,
        );
        f.append_inst(entry, InstKind::Ret { value: None }, Type::Void);
        // sum is dead, and removing it makes a and b dead too.
        assert_eq!(f.remove_dead_code(), 3);
        assert_eq!(f.num_linked_insts(), 1);
    }

    #[test]
    fn unlink_makes_tombstone() {
        let mut f = sample();
        let entry = f.entry();
        let id = f.block(entry).insts()[0];
        let slots_before = f.num_inst_slots();
        assert!(f.unlink_inst(entry, id));
        assert!(!f.unlink_inst(entry, id));
        assert_eq!(f.num_inst_slots(), slots_before, "arena slot survives");
        assert!(f.block_of(id).is_none());
    }

    #[test]
    fn predecessors_of_diamond() {
        let mut f = Function::new(
            "d",
            vec![Param::new("c", Type::scalar(ScalarType::I32))],
            Type::Void,
        );
        let entry = f.entry();
        let then_b = f.add_block("then");
        let else_b = f.add_block("else");
        let join = f.add_block("join");
        let c = f.param(0);
        f.append_inst(
            entry,
            InstKind::Branch {
                cond: c,
                on_true: then_b,
                on_false: else_b,
            },
            Type::Void,
        );
        f.append_inst(then_b, InstKind::Jump { target: join }, Type::Void);
        f.append_inst(else_b, InstKind::Jump { target: join }, Type::Void);
        f.append_inst(join, InstKind::Ret { value: None }, Type::Void);
        let preds = f.predecessors();
        assert_eq!(preds[join.index()], vec![then_b, else_b]);
        assert_eq!(preds[entry.index()], Vec::<BlockId>::new());
    }
}
