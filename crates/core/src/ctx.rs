//! Per-block analysis context shared by graph construction, cost
//! evaluation, and code generation.
//!
//! The context is computed once per block (and reused across the seed
//! loop while the IR is unchanged), so everything the hot queries touch
//! is precomputed into dense, index-based structures:
//!
//! - **positions** are a dense `Vec<u32>` indexed by arena id (sentinel
//!   `u32::MAX` = not in this block), so `pos`/`in_block` — the hottest
//!   queries in the pass — never hash;
//! - **users** are a CSR (offsets + data) layout over the arena instead
//!   of one `Vec` allocation per instruction;
//! - **dependence** queries are answered from a transitive-reachability
//!   bitset (one row of block-position bits per instruction), built in a
//!   single forward pass; `depends_on` is then two array reads and a bit
//!   test instead of a DFS;
//! - **aliasing** range queries binary-search a position-sorted memory-op
//!   index, answering in O(log n + k) for k memory ops in the range
//!   instead of rescanning every memory op of the block.
//!
//! The scan-based dependence query survives as
//! [`BlockCtx::depends_on_scan`]: it is the fallback for IR that is not
//! def-before-use ordered within the block, and the reference the
//! property tests compare the bitset against. The aliasing queries'
//! linear-scan references live with those tests.

use snslp_ir::analysis::{may_alias, MemLoc};
use snslp_ir::{BlockId, Function, InstId, InstKind};

/// Sentinel position for "not an instruction of this block".
const NOT_IN_BLOCK: u32 = u32::MAX;

/// One entry of the position-sorted memory-op index.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    /// Position of the operation inside the block.
    pos: u32,
    /// The load or store instruction.
    id: InstId,
    /// Whether the operation is a store.
    is_store: bool,
    /// Its decomposed memory location.
    loc: MemLoc,
}

/// Cached per-block facts: instruction positions, use counts, users,
/// memory locations, transitive-dependence reachability, and a sorted
/// memory-op interval index.
#[derive(Debug)]
pub struct BlockCtx {
    /// The block under analysis.
    pub block: BlockId,
    /// Dense arena-indexed position map (`NOT_IN_BLOCK` sentinel).
    pos: Vec<u32>,
    /// Function-wide users in CSR layout: the users of arena slot `i` are
    /// `user_data[user_offsets[i] as usize..user_offsets[i + 1] as usize]`.
    user_offsets: Vec<u32>,
    user_data: Vec<InstId>,
    /// Function-wide use counts.
    use_counts: Vec<u32>,
    /// Memory locations of the block's loads and stores, arena-indexed.
    memlocs: Vec<Option<MemLoc>>,
    /// The block's memory operations sorted by position.
    mem_ops: Vec<MemOp>,
    /// Transitive in-block reachability: row `i` (at `reach[i * words..]`)
    /// has bit `j` set iff the instruction at position `i` transitively
    /// depends on the instruction at position `j` through use-def edges
    /// within the block. `None` when the block is not def-before-use
    /// ordered (forward references), in which case queries fall back to
    /// the DFS scan.
    reach: Option<Vec<u64>>,
    /// Words per reachability row.
    reach_words: usize,
}

impl BlockCtx {
    /// Computes the context for `block` of `f`.
    pub fn compute(f: &Function, block: BlockId) -> Self {
        let _p = snslp_trace::ProfSpan::enter("ctx.compute");
        let slots = f.num_inst_slots();
        let insts = f.block(block).insts();
        let n = insts.len();

        let mut pos = vec![NOT_IN_BLOCK; slots];
        let mut memlocs = vec![None; slots];
        let mut mem_ops = Vec::new();
        for (i, &id) in insts.iter().enumerate() {
            pos[id.index()] = i as u32;
            if let Some(loc) = MemLoc::of_inst(f, id) {
                memlocs[id.index()] = Some(loc);
                mem_ops.push(MemOp {
                    pos: i as u32,
                    id,
                    is_store: matches!(f.kind(id), InstKind::Store { .. }),
                    loc,
                });
            }
        }
        // Block order is position order, so the index is already sorted.
        debug_assert!(mem_ops.windows(2).all(|w| w[0].pos < w[1].pos));

        // Users and use counts in one operand sweep: count, prefix-sum,
        // fill (classic CSR construction).
        let mut use_counts = vec![0u32; slots];
        for b in f.block_ids() {
            for &id in f.block(b).insts() {
                f.kind(id)
                    .for_each_operand(|op| use_counts[op.index()] += 1);
            }
        }
        let mut user_offsets = vec![0u32; slots + 1];
        for i in 0..slots {
            user_offsets[i + 1] = user_offsets[i] + use_counts[i];
        }
        let mut cursor = user_offsets.clone();
        let mut user_data = vec![InstId(0); user_offsets[slots] as usize];
        for b in f.block_ids() {
            for &id in f.block(b).insts() {
                f.kind(id).for_each_operand(|op| {
                    user_data[cursor[op.index()] as usize] = id;
                    cursor[op.index()] += 1;
                });
            }
        }

        // Transitive reachability over in-block use-def edges. Valid in
        // one forward pass when every in-block operand is defined at an
        // earlier position; a forward reference voids the index.
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut ordered = true;
        'build: for (i, &id) in insts.iter().enumerate() {
            let mut ops_ok = true;
            f.kind(id).for_each_operand(|op| {
                let j = pos[op.index()];
                if j != NOT_IN_BLOCK && j as usize >= i {
                    ops_ok = false;
                }
            });
            if !ops_ok {
                ordered = false;
                break 'build;
            }
            let (done, row) = reach.split_at_mut(i * words);
            let row = &mut row[..words];
            f.kind(id).for_each_operand(|op| {
                let j = pos[op.index()];
                if j != NOT_IN_BLOCK {
                    let j = j as usize;
                    for (w, &src) in row.iter_mut().zip(&done[j * words..(j + 1) * words]) {
                        *w |= src;
                    }
                    row[j / 64] |= 1u64 << (j % 64);
                }
            });
        }

        BlockCtx {
            block,
            pos,
            user_offsets,
            user_data,
            use_counts,
            memlocs,
            mem_ops,
            reach: ordered.then_some(reach),
            reach_words: words,
        }
    }

    /// Whether `id` is an instruction of this block.
    #[inline]
    pub fn in_block(&self, id: InstId) -> bool {
        self.pos[id.index()] != NOT_IN_BLOCK
    }

    /// Position of `id` inside the block, if it is a block instruction.
    #[inline]
    pub fn pos_of(&self, id: InstId) -> Option<usize> {
        let p = self.pos[id.index()];
        (p != NOT_IN_BLOCK).then_some(p as usize)
    }

    /// Number of uses of `id` (function-wide).
    #[inline]
    pub fn use_count(&self, id: InstId) -> u32 {
        self.use_counts[id.index()]
    }

    /// Users of `id` (function-wide).
    #[inline]
    pub fn users_of(&self, id: InstId) -> &[InstId] {
        let i = id.index();
        &self.user_data[self.user_offsets[i] as usize..self.user_offsets[i + 1] as usize]
    }

    /// Memory location of `id`, if it is a load or store of this block.
    #[inline]
    pub fn memloc(&self, id: InstId) -> Option<&MemLoc> {
        self.memlocs[id.index()].as_ref()
    }

    /// Whether `a` (transitively) depends on `b` through use-def edges
    /// within this block. Used to reject bundles whose lanes depend on
    /// each other. Answered from the reachability bitset when both values
    /// are block instructions; otherwise (or when the block has forward
    /// references) via [`BlockCtx::depends_on_scan`].
    pub fn depends_on(&self, f: &Function, a: InstId, b: InstId) -> bool {
        if a == b {
            return true;
        }
        if let Some(reach) = &self.reach {
            let (pa, pb) = (self.pos[a.index()], self.pos[b.index()]);
            if pa != NOT_IN_BLOCK && pb != NOT_IN_BLOCK {
                let (i, j) = (pa as usize, pb as usize);
                return reach[i * self.reach_words + j / 64] & (1u64 << (j % 64)) != 0;
            }
            if pa == NOT_IN_BLOCK {
                // The scan would test `a`'s direct operands and then
                // traverse only its in-block operands; without any, the
                // direct test is the whole answer (the common case:
                // constants and other out-of-block bundle lanes).
                let mut direct = false;
                let mut has_in_block_op = false;
                f.kind(a).for_each_operand(|op| {
                    direct |= op == b;
                    has_in_block_op |= self.in_block(op);
                });
                if direct {
                    return true;
                }
                if !has_in_block_op {
                    return false;
                }
            } else {
                // `a` is a block instruction but `b` is not: `a` depends
                // on `b` iff `b` is a direct operand of `a` or of any
                // instruction in `a`'s in-block reachability cone — the
                // exact set the scan visits, read off the bitset row.
                let mut found = false;
                f.kind(a).for_each_operand(|op| found |= op == b);
                if found {
                    return true;
                }
                let insts = f.block(self.block).insts();
                let row = &reach[pa as usize * self.reach_words..][..self.reach_words];
                for (w, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        f.kind(insts[j]).for_each_operand(|op| found |= op == b);
                        if found {
                            return true;
                        }
                    }
                }
                return false;
            }
        }
        self.depends_on_scan(f, a, b)
    }

    /// Reference implementation of [`BlockCtx::depends_on`]: an explicit
    /// DFS over use-def edges with a dense visited map (the historical
    /// `Vec::contains` visited scan was O(n²) on deep chains).
    pub fn depends_on_scan(&self, f: &Function, a: InstId, b: InstId) -> bool {
        if a == b {
            return true;
        }
        let mut stack = vec![a];
        let mut seen = vec![false; f.num_inst_slots()];
        seen[a.index()] = true;
        let mut found = false;
        while let Some(cur) = stack.pop() {
            f.kind(cur).for_each_operand(|op| {
                if op == b {
                    found = true;
                }
                if self.in_block(op) && !seen[op.index()] {
                    seen[op.index()] = true;
                    stack.push(op);
                }
            });
            if found {
                return true;
            }
        }
        false
    }

    /// The memory ops with positions strictly inside `(lo, hi)`.
    #[inline]
    fn mem_ops_between(&self, lo: usize, hi: usize) -> &[MemOp] {
        let start = self.mem_ops.partition_point(|m| m.pos as usize <= lo);
        let end = self.mem_ops.partition_point(|m| (m.pos as usize) < hi);
        &self.mem_ops[start..end.max(start)]
    }

    /// Whether any *store* with a position strictly inside `(lo, hi)` may
    /// alias `loc`. Used to check that a bundle of loads spanning
    /// positions `lo..=hi` can be collapsed into one vector load.
    pub fn aliasing_store_within(&self, f: &Function, lo: usize, hi: usize, loc: &MemLoc) -> bool {
        self.mem_ops_between(lo, hi)
            .iter()
            .any(|m| m.is_store && may_alias(f, loc, &m.loc))
    }

    /// Whether any memory operation *not in `exclude`* with a position
    /// strictly inside `(lo, hi)` may alias `loc`. Used for store bundles.
    pub fn aliasing_mem_within(
        &self,
        f: &Function,
        lo: usize,
        hi: usize,
        loc: &MemLoc,
        exclude: &[InstId],
    ) -> bool {
        let _p = snslp_trace::ProfSpan::enter("ctx.aliasing_mem_within");
        self.mem_ops_between(lo, hi)
            .iter()
            .any(|m| !exclude.contains(&m.id) && may_alias(f, loc, &m.loc))
    }

    /// The position span `(min, max)` of a bundle of block instructions.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is empty or contains non-block values.
    pub fn span(&self, bundle: &[InstId]) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0;
        for &id in bundle {
            let p = self.pos[id.index()];
            assert!(p != NOT_IN_BLOCK, "span of non-block value {id:?}");
            lo = lo.min(p as usize);
            hi = hi.max(p as usize);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    /// Reference for [`BlockCtx::aliasing_store_within`]: a linear scan
    /// over every memory op of the block.
    fn aliasing_store_within_scan(
        ctx: &BlockCtx,
        f: &Function,
        lo: usize,
        hi: usize,
        loc: &MemLoc,
    ) -> bool {
        ctx.mem_ops.iter().any(|m| {
            let p = m.pos as usize;
            m.is_store && p > lo && p < hi && may_alias(f, loc, &m.loc)
        })
    }

    /// Reference for [`BlockCtx::aliasing_mem_within`]: a linear scan over
    /// every memory op of the block.
    fn aliasing_mem_within_scan(
        ctx: &BlockCtx,
        f: &Function,
        lo: usize,
        hi: usize,
        loc: &MemLoc,
        exclude: &[InstId],
    ) -> bool {
        ctx.mem_ops.iter().any(|m| {
            let p = m.pos as usize;
            !exclude.contains(&m.id) && p > lo && p < hi && may_alias(f, loc, &m.loc)
        })
    }

    #[test]
    fn depends_on_tracks_transitive_deps() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let a = fb.load(ScalarType::F64, p);
        let b = fb.add(a, a);
        let c = fb.mul(b, a);
        fb.store(p, c);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        assert!(ctx.reach.is_some(), "builder IR is def-before-use");
        assert!(ctx.depends_on(&f, c, a));
        assert!(ctx.depends_on(&f, b, a));
        assert!(!ctx.depends_on(&f, a, b));
        assert!(ctx.depends_on(&f, a, a));
    }

    #[test]
    fn indexed_depends_on_matches_scan() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let mut vals = vec![fb.load(ScalarType::F64, p)];
        for i in 1..12 {
            let prev = vals[i - 1];
            let other = vals[i / 2];
            vals.push(fb.add(prev, other));
        }
        fb.store(p, *vals.last().unwrap());
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    ctx.depends_on(&f, a, b),
                    ctx.depends_on_scan(&f, a, b),
                    "bitset vs DFS disagree on ({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn depends_on_out_of_block_operand() {
        // b (the dependence target) is a parameter, not a block
        // instruction: the bitset cannot answer, the scan must.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let a = fb.load(ScalarType::F64, p);
        let s = fb.add(a, a);
        fb.store(p, s);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        assert!(ctx.depends_on(&f, s, p), "s uses p through the load");
        assert_eq!(ctx.depends_on(&f, s, p), ctx.depends_on_scan(&f, s, p));
    }

    #[test]
    fn aliasing_store_detection() {
        // load a[0]; store a[1]; load a[1] — collapsing the two loads
        // would move the second load across the store it aliases.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("a")], Type::Void);
        let a = fb.func().param(0);
        let l0 = fb.load(ScalarType::F64, a);
        let p1 = fb.ptradd_const(a, 8);
        fb.store(p1, l0);
        let l1 = fb.load(ScalarType::F64, p1);
        fb.store(a, l1);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        let (lo, hi) = ctx.span(&[l0, l1]);
        let loc1 = *ctx.memloc(l1).unwrap();
        assert!(ctx.aliasing_store_within(&f, lo, hi, &loc1));
        assert_eq!(
            ctx.aliasing_store_within(&f, lo, hi, &loc1),
            aliasing_store_within_scan(&ctx, &f, lo, hi, &loc1)
        );
        // The first load's location (a[0]) is not touched by the store.
        let loc0 = *ctx.memloc(l0).unwrap();
        assert!(!ctx.aliasing_store_within(&f, lo, hi, &loc0));
        assert_eq!(
            ctx.aliasing_store_within(&f, lo, hi, &loc0),
            aliasing_store_within_scan(&ctx, &f, lo, hi, &loc0)
        );
    }

    #[test]
    fn indexed_aliasing_matches_scan_on_all_ranges() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("a")], Type::Void);
        let a = fb.func().param(0);
        let mut prev = None;
        for i in 0..6 {
            let p = fb.ptradd_const(a, 8 * i);
            let l = fb.load(ScalarType::F64, p);
            if let Some(v) = prev {
                let s = fb.add(l, v);
                fb.store(p, s);
            }
            prev = Some(l);
        }
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        let n = f.block(f.entry()).insts().len();
        let locs: Vec<MemLoc> = ctx.mem_ops.iter().map(|m| m.loc).collect();
        let ids: Vec<InstId> = ctx.mem_ops.iter().map(|m| m.id).collect();
        for lo in 0..n {
            for hi in lo..n {
                for loc in &locs {
                    assert_eq!(
                        ctx.aliasing_store_within(&f, lo, hi, loc),
                        aliasing_store_within_scan(&ctx, &f, lo, hi, loc),
                        "store query ({lo}, {hi})"
                    );
                    assert_eq!(
                        ctx.aliasing_mem_within(&f, lo, hi, loc, &ids[..2]),
                        aliasing_mem_within_scan(&ctx, &f, lo, hi, loc, &ids[..2]),
                        "mem query ({lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn use_counts_and_users() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let a = fb.load(ScalarType::F64, p);
        let b = fb.add(a, a);
        fb.store(p, b);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        assert_eq!(ctx.use_count(a), 2);
        assert_eq!(ctx.users_of(b).len(), 1);
        assert_eq!(ctx.users_of(a), &[b, b]);
    }
}
