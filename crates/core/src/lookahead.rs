//! The look-ahead operand-scoring heuristic of LSLP, reused by SN-SLP's
//! `build_group` (paper §IV-C4, Listing 3 line ~30).
//!
//! Given two candidate scalar values that would occupy the same operand
//! position of adjacent lanes, the score estimates how profitable it is to
//! pack them together, recursively peeking `depth` levels into their
//! use-def subtrees.
//!
//! The score of `(a, b, depth)` is pure in the function body, and the
//! pass asks for the same pairs many times: operand reordering re-walks
//! shared subtrees, Super-Node leaf grouping scores every candidate leaf
//! against every slot anchor, and mode fallbacks and half-width retries
//! rebuild graphs over the same values. [`ScoreMemo`] remembers every
//! score computed over one unchanged body. Each
//! [`BlockCtx`](crate::ctx::BlockCtx) owns one, and the pass rebuilds the
//! context after every rewrite, so the memo never outlives the body its
//! scores describe and holds no more entries than the scores computed
//! since. [`score_pair`] is the memo-free reference.

use std::cell::{Cell, RefCell};

use snslp_ir::analysis::{is_consecutive, MemLoc};
use snslp_ir::{Function, FxHashMap, InstId, InstKind};

thread_local! {
    /// Set while a score request is on the stack, so the profiler span
    /// covers only the outermost request of each recursion.
    static IN_SCORE: Cell<bool> = const { Cell::new(false) };
}

/// RAII pair: the profiler span for a top-level score request plus the
/// recursion flag reset. `None` when profiling is off or when already
/// inside a score recursion.
struct TopScoreSpan {
    _span: snslp_trace::ProfSpan,
}

impl Drop for TopScoreSpan {
    fn drop(&mut self) {
        IN_SCORE.with(|c| c.set(false));
    }
}

fn top_level_score_span() -> Option<TopScoreSpan> {
    if !snslp_trace::prof::profiling() || IN_SCORE.with(|c| c.replace(true)) {
        return None;
    }
    Some(TopScoreSpan {
        _span: snslp_trace::ProfSpan::enter("lookahead.score_pair"),
    })
}

/// Score constants, mirroring LLVM's `LookAheadHeuristics`.
pub mod score {
    /// Identical values (splat candidates).
    pub const SPLAT: i32 = 5;
    /// Loads from adjacent addresses, in lane order.
    pub const CONSECUTIVE_LOADS: i32 = 4;
    /// Loads from adjacent addresses, reversed.
    pub const REVERSED_LOADS: i32 = 3;
    /// Same non-load opcode.
    pub const SAME_OPCODE: i32 = 3;
    /// Both constants (any values).
    pub const CONSTANTS: i32 = 2;
    /// Loads from the same base but not adjacent.
    pub const SAME_BASE_LOADS: i32 = 2;
    /// Values of the same kind that cannot be packed cheaply.
    pub const GENERIC: i32 = 1;
    /// Nothing in common.
    pub const FAIL: i32 = 0;
}

/// Memo of `(a, b, depth) → score` over one unchanged function body.
///
/// Interior mutability lets scoring call sites keep holding `&Function`
/// and pass the memo by shared reference through the recursion.
#[derive(Debug, Default)]
pub struct ScoreMemo(RefCell<FxHashMap<(InstId, InstId, u32), i32>>);

impl ScoreMemo {
    /// Scores packing `a` with `b` like [`score_pair`], memoizing the
    /// score of every request, top-level or recursive. Each request
    /// counts one `LookaheadScoreEvals` plus exactly one of
    /// `LookaheadCacheHits` / `LookaheadCacheMisses` (the fuzz oracle
    /// checks `hits + misses == evals` over a pass run).
    pub fn score(&self, f: &Function, a: InstId, b: InstId, depth: u32) -> i32 {
        score_with(f, Some(self), a, b, depth)
    }
}

/// Scores packing `a` (lane *i*) with `b` (lane *i+1*), looking `depth`
/// levels down the use-def chains. Memo-free: every call, the recursive
/// ones included, recomputes from the IR. The pass scores through a
/// [`ScoreMemo`]; this is the reference the tests compare it against.
pub fn score_pair(f: &Function, a: InstId, b: InstId, depth: u32) -> i32 {
    score_with(f, None, a, b, depth)
}

fn score_with(f: &Function, memo: Option<&ScoreMemo>, a: InstId, b: InstId, depth: u32) -> i32 {
    // Profile top-level score requests only: recursive calls re-enter this
    // function, and one span per recursion step would swamp the trace.
    let _p = top_level_score_span();
    snslp_trace::bump(snslp_trace::Counter::LookaheadScoreEvals);
    let Some(m) = memo else {
        return compute_score_pair(f, None, a, b, depth);
    };
    // The borrow ends before the recursion below re-enters the memo.
    let hit = m.0.borrow().get(&(a, b, depth)).copied();
    if let Some(s) = hit {
        snslp_trace::bump(snslp_trace::Counter::LookaheadCacheHits);
        return s;
    }
    snslp_trace::bump(snslp_trace::Counter::LookaheadCacheMisses);
    let s = compute_score_pair(f, memo, a, b, depth);
    m.0.borrow_mut().insert((a, b, depth), s);
    s
}

fn compute_score_pair(
    f: &Function,
    memo: Option<&ScoreMemo>,
    a: InstId,
    b: InstId,
    depth: u32,
) -> i32 {
    if a == b {
        return score::SPLAT;
    }
    let (ka, kb) = (f.kind(a), f.kind(b));
    match (ka, kb) {
        (InstKind::Load { .. }, InstKind::Load { .. }) => {
            if f.ty(a) != f.ty(b) {
                return score::FAIL;
            }
            let (la, lb) = (
                MemLoc::of_inst(f, a).expect("load"),
                MemLoc::of_inst(f, b).expect("load"),
            );
            if is_consecutive(f, &la, &lb) {
                score::CONSECUTIVE_LOADS
            } else if is_consecutive(f, &lb, &la) {
                score::REVERSED_LOADS
            } else if la.addr.root == lb.addr.root {
                score::SAME_BASE_LOADS
            } else {
                score::GENERIC
            }
        }
        (InstKind::Const(_), InstKind::Const(_)) => score::CONSTANTS,
        (InstKind::Binary { op: opa, .. }, InstKind::Binary { op: opb, .. }) => {
            if f.ty(a) != f.ty(b) {
                return score::FAIL;
            }
            if opa != opb {
                return score::GENERIC;
            }
            let mut s = score::SAME_OPCODE;
            if depth > 0 {
                s += best_operand_match(f, memo, a, b, depth - 1);
            }
            s
        }
        (InstKind::Unary { op: opa, .. }, InstKind::Unary { op: opb, .. }) => {
            if opa != opb || f.ty(a) != f.ty(b) {
                return score::GENERIC;
            }
            let mut s = score::SAME_OPCODE;
            if depth > 0 {
                s += best_operand_match(f, memo, a, b, depth - 1);
            }
            s
        }
        _ => {
            if std::mem::discriminant(ka) == std::mem::discriminant(kb) {
                score::GENERIC
            } else {
                score::FAIL
            }
        }
    }
}

/// Sum of the best pairwise operand scores of two same-opcode
/// instructions, trying the swapped pairing too when the op commutes.
fn best_operand_match(
    f: &Function,
    memo: Option<&ScoreMemo>,
    a: InstId,
    b: InstId,
    depth: u32,
) -> i32 {
    let oa = f.kind(a).operands();
    let ob = f.kind(b).operands();
    if oa.len() != ob.len() || oa.is_empty() {
        return 0;
    }
    let straight: i32 = oa
        .iter()
        .zip(&ob)
        .map(|(&x, &y)| score_with(f, memo, x, y, depth))
        .sum();
    let commutes = match f.kind(a) {
        InstKind::Binary { op, .. } => op.is_commutative(),
        _ => false,
    };
    if commutes && oa.len() == 2 {
        let crossed =
            score_with(f, memo, oa[0], ob[1], depth) + score_with(f, memo, oa[1], ob[0], depth);
        straight.max(crossed)
    } else {
        straight
    }
}

/// Total score of a whole candidate group: the sum of adjacent-lane pair
/// scores (paper Listing 2, line 14).
pub fn score_group(f: &Function, group: &[InstId], depth: u32) -> i32 {
    group
        .windows(2)
        .map(|w| score_pair(f, w[0], w[1], depth))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    /// b[0], b[1], c[0], const, const — plus adds over them.
    struct Fixture {
        f: Function,
        b0: InstId,
        b1: InstId,
        c0: InstId,
        k1: InstId,
        k2: InstId,
        add_bb: InstId,
        add_bc: InstId,
    }

    fn fixture() -> Fixture {
        let mut fb = FunctionBuilder::new(
            "t",
            vec![Param::noalias_ptr("b"), Param::noalias_ptr("c")],
            Type::Void,
        );
        let b = fb.func().param(0);
        let c = fb.func().param(1);
        let b0 = fb.load(ScalarType::F64, b);
        let pb1 = fb.ptradd_const(b, 8);
        let b1 = fb.load(ScalarType::F64, pb1);
        let c0 = fb.load(ScalarType::F64, c);
        let k1 = fb.const_f64(1.0);
        let k2 = fb.const_f64(2.0);
        let add_bb = fb.add(b0, b1);
        let add_bc = fb.add(b0, c0);
        let s = fb.add(add_bb, add_bc);
        let t = fb.add(k1, k2);
        let u = fb.add(s, t);
        fb.store(b, u);
        fb.ret(None);
        Fixture {
            f: fb.finish(),
            b0,
            b1,
            c0,
            k1,
            k2,
            add_bb,
            add_bc,
        }
    }

    #[test]
    fn consecutive_loads_beat_everything() {
        let fx = fixture();
        let s_consec = score_pair(&fx.f, fx.b0, fx.b1, 2);
        let s_rev = score_pair(&fx.f, fx.b1, fx.b0, 2);
        let s_diff = score_pair(&fx.f, fx.b0, fx.c0, 2);
        assert_eq!(s_consec, score::CONSECUTIVE_LOADS);
        assert_eq!(s_rev, score::REVERSED_LOADS);
        assert_eq!(s_diff, score::GENERIC);
        assert!(s_consec > s_rev && s_rev > s_diff);
    }

    #[test]
    fn splat_scores_highest() {
        let fx = fixture();
        assert_eq!(score_pair(&fx.f, fx.b0, fx.b0, 2), score::SPLAT);
    }

    #[test]
    fn constants_pack() {
        let fx = fixture();
        assert_eq!(score_pair(&fx.f, fx.k1, fx.k2, 2), score::CONSTANTS);
    }

    #[test]
    fn lookahead_sees_through_adds() {
        let fx = fixture();
        // add(b0,b1) vs add(b0,c0): same opcode + recursive operand match.
        let s = score_pair(&fx.f, fx.add_bb, fx.add_bc, 2);
        assert!(s > score::SAME_OPCODE, "recursion adds operand score: {s}");
        // Depth 0 sees only the opcode.
        let s0 = score_pair(&fx.f, fx.add_bb, fx.add_bc, 0);
        assert_eq!(s0, score::SAME_OPCODE);
    }

    #[test]
    fn mismatched_kinds_fail() {
        let fx = fixture();
        assert_eq!(score_pair(&fx.f, fx.b0, fx.k1, 2), score::FAIL);
    }

    #[test]
    fn group_score_sums_adjacent_pairs() {
        let fx = fixture();
        let g = score_group(&fx.f, &[fx.b0, fx.b1, fx.c0], 2);
        assert_eq!(
            g,
            score_pair(&fx.f, fx.b0, fx.b1, 2) + score_pair(&fx.f, fx.b1, fx.c0, 2)
        );
    }

    #[test]
    fn cached_scores_match_uncached() {
        let fx = fixture();
        let memo = ScoreMemo::default();
        let all = [fx.b0, fx.b1, fx.c0, fx.k1, fx.k2, fx.add_bb, fx.add_bc];
        for depth in 0..4 {
            for &a in &all {
                for &b in &all {
                    let plain = score_pair(&fx.f, a, b, depth);
                    // Twice: first fills the memo, second hits it.
                    assert_eq!(memo.score(&fx.f, a, b, depth), plain);
                    assert_eq!(memo.score(&fx.f, a, b, depth), plain);
                }
            }
        }
    }

    #[test]
    fn cache_accounting_covers_every_eval() {
        use snslp_trace::{Counter, MetricsSnapshot};
        let fx = fixture();
        let memo = ScoreMemo::default();
        let before = MetricsSnapshot::current();
        memo.score(&fx.f, fx.add_bb, fx.add_bc, 3);
        // Re-scoring the same pair must be all hits.
        memo.score(&fx.f, fx.add_bb, fx.add_bc, 3);
        let d = MetricsSnapshot::current().delta_since(&before);
        let evals = d.get(Counter::LookaheadScoreEvals);
        let hits = d.get(Counter::LookaheadCacheHits);
        let misses = d.get(Counter::LookaheadCacheMisses);
        assert!(evals > 0);
        assert_eq!(hits + misses, evals, "every request is a hit or a miss");
        assert!(hits > 0, "repeated subtree scoring must hit the memo");
        assert_eq!(
            memo.0.borrow().len() as u64,
            misses,
            "one memo entry per miss"
        );
    }
}
