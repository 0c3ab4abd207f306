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
//!   bitset (one row of block-position bits per instruction). In a loop
//!   body the header phis read values defined later in the block, so the
//!   rows are the least fixpoint of the use-def edges: one forward pass
//!   when every in-block operand comes earlier, repeated passes until no
//!   row grows otherwise. `depends_on` never walks the IR;
//! - **aliasing** range queries binary-search a position-sorted memory-op
//!   index, answering in O(log n + k) for k memory ops in the range
//!   instead of rescanning every memory op of the block;
//! - **look-ahead scores** are memoized in a [`ScoreMemo`] that lives
//!   exactly as long as the context, so a rewrite, which forces a new
//!   context, also retires every score computed over the old body.
//!
//! The dependence and aliasing queries' DFS and linear-scan references
//! live with the tests that compare them against the indexes.

use snslp_ir::analysis::{may_alias, MemLoc};
use snslp_ir::{BlockId, Function, InstId, InstKind};

use crate::lookahead::ScoreMemo;

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
/// memory locations, transitive-dependence reachability, a sorted
/// memory-op interval index, and the look-ahead score memo. Valid only
/// while the function body is unchanged.
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
    /// has bit `j` set iff the instruction at position `i` reaches the
    /// instruction at position `j` through one or more use-def edges
    /// within the block, phi operands included.
    reach: Vec<u64>,
    /// Words per reachability row.
    reach_words: usize,
    /// Look-ahead scores computed over this body.
    memo: ScoreMemo,
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

        // Transitive reachability over in-block use-def edges: the least
        // fixpoint of row(i) = ⋃ over in-block operands j of ({j} ∪ row(j)).
        // When every operand comes earlier, one forward pass reaches it;
        // a later operand (a loop phi's back edge) needs passes until no
        // row grows.
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        loop {
            let mut forward_ref = false;
            let mut grew = false;
            for (i, &id) in insts.iter().enumerate() {
                f.kind(id).for_each_operand(|op| {
                    let j = pos[op.index()];
                    if j == NOT_IN_BLOCK {
                        return;
                    }
                    let j = j as usize;
                    forward_ref |= j >= i;
                    for w in 0..words {
                        let mut bits = reach[j * words + w];
                        if w == j / 64 {
                            bits |= 1u64 << (j % 64);
                        }
                        let row = &mut reach[i * words + w];
                        grew |= bits & !*row != 0;
                        *row |= bits;
                    }
                });
            }
            if !forward_ref || !grew {
                break;
            }
        }

        BlockCtx {
            block,
            pos,
            user_offsets,
            user_data,
            use_counts,
            memlocs,
            mem_ops,
            reach,
            reach_words: words,
            memo: ScoreMemo::default(),
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

    /// The look-ahead score memo for this body.
    #[inline]
    pub fn memo(&self) -> &ScoreMemo {
        &self.memo
    }

    /// Whether `a` (transitively) depends on `b` through use-def edges
    /// within this block: whether `b` is an operand of `a` or of an
    /// in-block instruction `a` reaches through in-block operands. Used
    /// to reject bundles whose lanes depend on each other.
    pub fn depends_on(&self, f: &Function, a: InstId, b: InstId) -> bool {
        if a == b {
            return true;
        }
        if let Some(i) = self.pos_of(a) {
            return self.reaches(f, i, b);
        }
        // `a` lies outside the block (a constant, a parameter, another
        // block's value), so its cone is its in-block operands' cones.
        let mut found = false;
        f.kind(a).for_each_operand(|op| {
            found = found || op == b || self.pos_of(op).is_some_and(|j| self.reaches(f, j, b));
        });
        found
    }

    /// Whether the instruction at position `i` depends on `b`, read off
    /// its reachability row.
    fn reaches(&self, f: &Function, i: usize, b: InstId) -> bool {
        let row = &self.reach[i * self.reach_words..][..self.reach_words];
        if let Some(j) = self.pos_of(b) {
            return row[j / 64] & (1u64 << (j % 64)) != 0;
        }
        // `b` lies outside the block: it must be a direct operand of the
        // instruction or of one it reaches.
        let insts = f.block(self.block).insts();
        let uses_b = |id: InstId| {
            let mut used = false;
            f.kind(id).for_each_operand(|op| used |= op == b);
            used
        };
        let mut found = uses_b(insts[i]);
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 && !found {
                found = uses_b(insts[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        found
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

    /// Reference for [`BlockCtx::depends_on`]: a DFS over use-def edges
    /// from `a`, through in-block operands only, that looks for `b` among
    /// the operands of every instruction it visits.
    fn depends_on_scan(ctx: &BlockCtx, f: &Function, a: InstId, b: InstId) -> bool {
        if a == b {
            return true;
        }
        let mut stack = vec![a];
        let mut seen = vec![false; f.num_inst_slots()];
        seen[a.index()] = true;
        while let Some(cur) = stack.pop() {
            for op in f.kind(cur).operands() {
                if op == b {
                    return true;
                }
                if ctx.in_block(op) && !seen[op.index()] {
                    seen[op.index()] = true;
                    stack.push(op);
                }
            }
        }
        false
    }

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
                    depends_on_scan(&ctx, &f, a, b),
                    "bitset vs DFS disagree on ({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn depends_on_out_of_block_operand() {
        // b (the dependence target) is a parameter, not a block
        // instruction: it is found among the operands of the row.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let a = fb.load(ScalarType::F64, p);
        let s = fb.add(a, a);
        fb.store(p, s);
        fb.ret(None);
        let f = fb.finish();
        let ctx = BlockCtx::compute(&f, f.entry());
        assert!(ctx.depends_on(&f, s, p), "s uses p through the load");
        assert_eq!(ctx.depends_on(&f, s, p), depends_on_scan(&ctx, &f, s, p));
    }

    #[test]
    fn loop_body_index_matches_scan() {
        // The header phi reads `inext`, defined later in its own block, so
        // the rows need the back edge: a single forward pass misses it.
        let mut fb = FunctionBuilder::new(
            "loopy",
            vec![
                Param::noalias_ptr("a"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let n = fb.func().param(1);
        let mut sum = None;
        fb.counted_loop(n, |fb, i| {
            let eight = fb.const_i64(8);
            let off = fb.mul(i, eight);
            let p = fb.ptradd(a, off);
            let v = fb.load(ScalarType::F64, p);
            let s = fb.add(v, v);
            fb.store(p, s);
            sum = Some(s);
        });
        // Out of the loop block, with operands in it.
        let after = fb.add(sum.unwrap(), sum.unwrap());
        fb.store(a, after);
        fb.ret(None);
        let f = fb.finish();
        let header = f.block_ids().nth(1).unwrap();
        let insts = f.block(header).insts().to_vec();
        let phi = insts[0];
        let ctx = BlockCtx::compute(&f, header);
        let incoming = f.kind(phi).operands();
        let (zero, inext) = (incoming[0], incoming[1]);
        assert!(!ctx.in_block(zero) && ctx.in_block(inext));
        // The index holds the cycle: the phi reaches `inext` over the back
        // edge, and through it itself.
        let row_has =
            |i: usize, j: usize| ctx.reach[i * ctx.reach_words + j / 64] >> (j % 64) & 1 != 0;
        let (pp, pn) = (ctx.pos_of(phi).unwrap(), ctx.pos_of(inext).unwrap());
        assert!(pn > pp && row_has(pp, pn) && row_has(pp, pp) && row_has(pn, pp));
        assert!(ctx.depends_on(&f, inext, zero), "through the back edge");
        assert!(ctx.depends_on(&f, after, phi), "out-of-block user");
        assert!(!ctx.depends_on(&f, phi, a));
        let mut vals = insts.clone();
        vals.extend([a, n, zero, after]);
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    ctx.depends_on(&f, x, y),
                    depends_on_scan(&ctx, &f, x, y),
                    "bitset vs DFS disagree on ({x:?}, {y:?})"
                );
            }
        }
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
