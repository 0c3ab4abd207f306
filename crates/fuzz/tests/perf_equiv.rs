//! Property tests for the compile-time fast paths: every memoized or
//! indexed query must agree with its straightforward reference
//! implementation on realistic IR.
//!
//! Inputs are (a) every checked-in `.snir` fixture of the core test
//! suite, and (b) 1,000 deterministic cases from the fuzz generator —
//! the same distribution the differential oracle runs, so the fast
//! paths are exercised on exactly the IR shapes the pass sees.
//!
//! Three query families are compared per block:
//! * `LruScoreCache`-memoized look-ahead scores vs uncached
//!   [`score_pair`](snslp_core::lookahead::score_pair) (pairs at depths
//!   0..=3, each asked twice so the second ask is a pure cache hit);
//! * bitset [`BlockCtx::depends_on`] vs the DFS
//!   [`BlockCtx::depends_on_scan`];
//! * interval-indexed [`BlockCtx::aliasing_store_within`] /
//!   [`BlockCtx::aliasing_mem_within`] vs the linear scans below, built
//!   from public API only, over `(lo, hi)` position windows.
//!
//! The small fixtures are swept exhaustively. Generated blocks can reach
//! several hundred instructions, where exhaustive pair × window × depth
//! enumeration is quartic — there the sweeps sample deterministically
//! (fixed stride, no randomness) so all 1,000 cases stay affordable
//! while every case still contributes hundreds of checked queries.

use snslp_core::ctx::BlockCtx;
use snslp_core::lookahead::{score_pair, score_pair_with};
use snslp_core::LruScoreCache;
use snslp_fuzz::generate;
use snslp_ir::analysis::{may_alias, MemLoc};
use snslp_ir::{parse_function_str, Function, InstId, InstKind};

const FUZZ_SEED: u64 = 0x9E9E;
const FUZZ_CASES: u64 = 1000;
const DEPTHS: std::ops::RangeInclusive<u32> = 0..=3;

/// Per-block sampling caps for the generated-case run.
const MAX_SCORE_INSTS: usize = 24;
const MAX_DEP_INSTS: usize = 24;
const MAX_ALIAS_ANCHORS: usize = 16;
const MAX_ALIAS_LOCS: usize = 8;

/// Deterministic stride sample of at most `cap` elements, always
/// including the first and (via stride arithmetic) spread to the end.
fn sample<T: Copy>(items: &[T], cap: usize) -> Vec<T> {
    if items.len() <= cap {
        return items.to_vec();
    }
    let stride = items.len().div_ceil(cap);
    items.iter().copied().step_by(stride).collect()
}

/// One memory op of a block as the linear-scan references see it:
/// position, instruction and location.
type MemOp = (usize, InstId, MemLoc);

/// The block's memory ops in block order.
fn mem_ops(ctx: &BlockCtx, f: &Function, insts: &[InstId]) -> Vec<MemOp> {
    insts
        .iter()
        .filter_map(|&id| Some((ctx.pos_of(id)?, id, MemLoc::of_inst(f, id)?)))
        .collect()
}

/// Reference for [`BlockCtx::aliasing_store_within`]: whether any store
/// strictly inside `(lo, hi)` may alias `loc`.
fn aliasing_store_within_scan(
    f: &Function,
    mem: &[MemOp],
    lo: usize,
    hi: usize,
    loc: &MemLoc,
) -> bool {
    mem.iter().any(|&(p, id, m)| {
        matches!(f.kind(id), InstKind::Store { .. }) && p > lo && p < hi && may_alias(f, loc, &m)
    })
}

/// Reference for [`BlockCtx::aliasing_mem_within`]: whether any memory op
/// not in `exclude` strictly inside `(lo, hi)` may alias `loc`.
fn aliasing_mem_within_scan(
    f: &Function,
    mem: &[MemOp],
    lo: usize,
    hi: usize,
    loc: &MemLoc,
    exclude: &[InstId],
) -> bool {
    mem.iter()
        .any(|&(p, id, m)| !exclude.contains(&id) && p > lo && p < hi && may_alias(f, loc, &m))
}

/// All checked-in `.snir` fixtures (the core filecheck corpus).
fn fixtures() -> Vec<(String, Function)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/tests/snir");
    let mut files = Vec::new();
    collect(&root, &mut files);
    assert!(!files.is_empty(), "no .snir fixtures under {root:?}");
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).unwrap();
            // Fixtures may carry `; CHECK` comment directives; the parser
            // skips comments.
            let f = parse_function_str(&src)
                .unwrap_or_else(|e| panic!("fixture {p:?} does not parse: {e}"));
            (p.display().to_string(), f)
        })
        .collect()
}

fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().map(|e| e == "snir").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// Checks every fast-path query against its reference on one function.
///
/// `exhaustive` sweeps every pair, depth, and alias window (affordable on
/// the handful of small fixtures); the generated-case run stride-samples
/// instructions for scoring and dependence and anchors alias windows at a
/// sample of memory-op positions — the only places the answer can
/// change — to stay affordable over 1,000 cases.
fn check_function(label: &str, f: &Function, exhaustive: bool) {
    let cache = LruScoreCache::default();
    for block in f.block_ids() {
        let ctx = BlockCtx::compute(f, block);
        let insts = f.block(block).insts().to_vec();

        // Memoized look-ahead scores: ask twice, so pass 2 is all hits.
        let score_insts = if exhaustive {
            insts.clone()
        } else {
            sample(&insts, MAX_SCORE_INSTS)
        };
        for _ in 0..2 {
            for &a in &score_insts {
                for &b in &score_insts {
                    for depth in DEPTHS {
                        let reference = score_pair(f, a, b, depth);
                        let memoized = score_pair_with(f, Some(&cache), a, b, depth);
                        assert_eq!(
                            memoized, reference,
                            "{label}: score({a:?}, {b:?}, {depth}) diverged"
                        );
                    }
                }
            }
        }

        // Dependence: indexed bitset vs DFS scan. The samples are offset
        // by one so `a` and `b` rarely coincide, and adjacent positions
        // (direct def-use edges) are still covered.
        let dep_insts = if exhaustive {
            insts.clone()
        } else {
            sample(&insts, MAX_DEP_INSTS)
        };
        for (i, &a) in dep_insts.iter().enumerate() {
            for &b in dep_insts.iter().skip(i / 2) {
                assert_eq!(
                    ctx.depends_on(f, a, b),
                    ctx.depends_on_scan(f, a, b),
                    "{label}: depends_on({a:?}, {b:?}) diverged"
                );
                assert_eq!(
                    ctx.depends_on(f, b, a),
                    ctx.depends_on_scan(f, b, a),
                    "{label}: depends_on({b:?}, {a:?}) diverged"
                );
            }
        }

        // Aliasing: indexed interval queries vs linear scans, for every
        // memory location in the block over every position window.
        let mem_insts: Vec<_> = insts
            .iter()
            .copied()
            .filter(|&id| MemLoc::of_inst(f, id).is_some())
            .collect();
        let locs: Vec<MemLoc> = sample(
            &mem_insts,
            if exhaustive {
                usize::MAX
            } else {
                MAX_ALIAS_LOCS
            },
        )
        .iter()
        .filter_map(|&id| MemLoc::of_inst(f, id))
        .collect();
        let mem = mem_ops(&ctx, f, &insts);
        let n = insts.len();
        let windows: Vec<usize> = if exhaustive {
            (0..n).collect()
        } else {
            let mut anchors: Vec<usize> = sample(&mem_insts, MAX_ALIAS_ANCHORS)
                .iter()
                .flat_map(|&id| {
                    let p = ctx.pos_of(id).unwrap();
                    // One position either side of the op: boundary cases
                    // of the strict `p > lo && p < hi` window.
                    [p.saturating_sub(1), p, (p + 1).min(n.saturating_sub(1))]
                })
                .chain([0, n.saturating_sub(1)])
                .collect();
            anchors.sort_unstable();
            anchors.dedup();
            anchors
        };
        for loc in &locs {
            for &lo in &windows {
                for &hi in windows.iter().filter(|&&hi| hi >= lo) {
                    assert_eq!(
                        ctx.aliasing_store_within(f, lo, hi, loc),
                        aliasing_store_within_scan(f, &mem, lo, hi, loc),
                        "{label}: aliasing_store_within({lo}, {hi}) diverged"
                    );
                    // Both with nothing excluded and with the block's
                    // memory ops excluded (the store-bundle use case).
                    for exclude in [&mem_insts[..0], &mem_insts[..]] {
                        assert_eq!(
                            ctx.aliasing_mem_within(f, lo, hi, loc, exclude),
                            aliasing_mem_within_scan(f, &mem, lo, hi, loc, exclude),
                            "{label}: aliasing_mem_within({lo}, {hi}) diverged"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fast_paths_match_references_on_fixtures() {
    for (path, f) in fixtures() {
        check_function(&path, &f, true);
    }
}

#[test]
fn fast_paths_match_references_on_generated_cases() {
    for i in 0..FUZZ_CASES {
        let case = generate(FUZZ_SEED, i);
        check_function(&format!("case {i}"), &case.function, false);
    }
}
