//! Memory analyses used by the vectorizer: address decomposition,
//! adjacency, and a conservative alias test.

use crate::function::Function;
use crate::inst::{BinOp, Constant, InstId, InstKind};

/// An address decomposed into `root + constant byte offset`.
///
/// `root` is the first value in the `ptradd` chain whose offset is not a
/// compile-time constant (often a per-iteration base pointer, or a
/// `noalias` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrExpr {
    /// The non-constant part of the address.
    pub root: InstId,
    /// Accumulated constant byte offset.
    pub offset: i64,
}

/// Decomposes a pointer value into [`AddrExpr`] by folding constant
/// `ptradd` offsets (including `add`/`sub`-of-constant offset expressions).
pub fn decompose_address(f: &Function, ptr: InstId) -> AddrExpr {
    let mut root = ptr;
    let mut offset: i64 = 0;
    loop {
        match f.kind(root) {
            InstKind::PtrAdd { ptr, offset: off } => match const_i64(f, *off) {
                Some(c) => {
                    offset = offset.wrapping_add(c);
                    root = *ptr;
                }
                None => {
                    // `p + (x + c)` decomposes as `(p + x) + c`; keep the
                    // dynamic part in the root by looking through a
                    // trailing constant addend.
                    match split_const_addend(f, *off) {
                        Some((_, c)) => {
                            offset = offset.wrapping_add(c);
                            // The root becomes this ptradd minus its constant
                            // part; since that value does not exist as an
                            // instruction we conservatively stop here and
                            // use a *symbolic* key instead: the pair
                            // (base, dynamic offset value) is what matters.
                            return AddrExpr {
                                root: symbolic_root(f, root),
                                offset,
                            };
                        }
                        None => return AddrExpr { root, offset },
                    }
                }
            },
            _ => return AddrExpr { root, offset },
        }
    }
}

/// For `ptradd(p, x ± c)` returns the instruction itself as root; two
/// textually identical ptradds are distinct roots unless CSE merged them.
fn symbolic_root(_f: &Function, ptr: InstId) -> InstId {
    ptr
}

/// If `v` computes `x + c` or `x - c` with `c` constant, returns `(x, ±c)`.
fn split_const_addend(f: &Function, v: InstId) -> Option<(InstId, i64)> {
    match f.kind(v) {
        InstKind::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => {
            if let Some(c) = const_i64(f, *rhs) {
                Some((*lhs, c))
            } else {
                const_i64(f, *lhs).map(|c| (*rhs, c))
            }
        }
        InstKind::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
        } => const_i64(f, *rhs).map(|c| (*lhs, -c)),
        _ => None,
    }
}

/// The constant `i64` value of `v`, if it is one.
pub fn const_i64(f: &Function, v: InstId) -> Option<i64> {
    match f.kind(v) {
        InstKind::Const(Constant::I64(c)) => Some(*c),
        InstKind::Const(Constant::I32(c)) => Some(i64::from(*c)),
        _ => None,
    }
}

/// Walks through every `ptradd` to the ultimate base of an address.
pub fn ultimate_base(f: &Function, ptr: InstId) -> InstId {
    let mut cur = ptr;
    loop {
        match f.kind(cur) {
            InstKind::PtrAdd { ptr, .. } => cur = *ptr,
            _ => return cur,
        }
    }
}

/// Whether `ptr` is (rooted at) a `noalias` function parameter.
pub fn noalias_param_base(f: &Function, ptr: InstId) -> Option<InstId> {
    let base = ultimate_base(f, ptr);
    if let InstKind::Param(i) = f.kind(base) {
        if f.params()[*i as usize].noalias {
            return Some(base);
        }
    }
    None
}

/// A memory access: decomposed address plus access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoc {
    /// Decomposed address.
    pub addr: AddrExpr,
    /// Ultimate base pointer (through all `ptradd`s).
    pub base: InstId,
    /// Access size in bytes.
    pub size: u32,
}

impl MemLoc {
    /// Builds the location accessed by a load or store instruction.
    ///
    /// Returns `None` if `id` is not a memory instruction.
    pub fn of_inst(f: &Function, id: InstId) -> Option<MemLoc> {
        let (ptr, ty) = match f.kind(id) {
            InstKind::Load { ptr } => (*ptr, f.ty(id)),
            InstKind::Store { ptr, value } => (*ptr, f.ty(*value)),
            _ => return None,
        };
        Some(MemLoc {
            addr: decompose_address(f, ptr),
            base: ultimate_base(f, ptr),
            size: ty.size_bytes(),
        })
    }
}

/// Conservative may-alias test between two memory locations.
///
/// Two accesses with the same decomposed root do not alias iff their
/// constant ranges are disjoint. Accesses rooted at *distinct* `noalias`
/// parameters never alias. Everything else may alias.
///
/// The `noalias` test reads each location's `base`: the decomposed root
/// lies on the same `ptradd` chain, so it has the same ultimate base, and
/// starting from `base` skips walking that chain again.
pub fn may_alias(f: &Function, a: &MemLoc, b: &MemLoc) -> bool {
    if a.addr.root == b.addr.root {
        let (ao, bo) = (a.addr.offset, b.addr.offset);
        let disjoint = ao + i64::from(a.size) <= bo || bo + i64::from(b.size) <= ao;
        return !disjoint;
    }
    let na = noalias_param_base(f, a.base);
    let nb = noalias_param_base(f, b.base);
    !matches!((na, nb), (Some(pa), Some(pb)) if pa != pb)
}

/// Whether the access of `b` starts exactly where the access of `a` ends
/// (i.e. they are adjacent in memory, `a` first).
pub fn is_consecutive(f: &Function, a: &MemLoc, b: &MemLoc) -> bool {
    let _ = f;
    a.addr.root == b.addr.root && a.addr.offset + i64::from(a.size) == b.addr.offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Param;
    use crate::types::{ScalarType, Type};

    /// Builds: loads from a[0], a[8], b[0], and a[8] via a dynamic base.
    fn setup() -> (Function, Vec<InstId>) {
        let mut fb = FunctionBuilder::new(
            "t",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::new("i", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let i = fb.func().param(2);
        let l0 = fb.load(ScalarType::F64, a);
        let p8 = fb.ptradd_const(a, 8);
        let l1 = fb.load(ScalarType::F64, p8);
        let l2 = fb.load(ScalarType::F64, b);
        let eight = fb.const_i64(8);
        let dyn_off = fb.mul(i, eight);
        let pd = fb.ptradd(a, dyn_off);
        let pd8 = fb.ptradd_const(pd, 8);
        let l3 = fb.load(ScalarType::F64, pd);
        let l4 = fb.load(ScalarType::F64, pd8);
        fb.ret(None);
        (fb.finish(), vec![l0, l1, l2, l3, l4])
    }

    #[test]
    fn decompose_folds_constants() {
        let (f, loads) = setup();
        let m0 = MemLoc::of_inst(&f, loads[0]).unwrap();
        let m1 = MemLoc::of_inst(&f, loads[1]).unwrap();
        assert_eq!(m0.addr.root, m1.addr.root);
        assert_eq!(m0.addr.offset, 0);
        assert_eq!(m1.addr.offset, 8);
    }

    #[test]
    fn consecutive_detection() {
        let (f, loads) = setup();
        let m0 = MemLoc::of_inst(&f, loads[0]).unwrap();
        let m1 = MemLoc::of_inst(&f, loads[1]).unwrap();
        let m2 = MemLoc::of_inst(&f, loads[2]).unwrap();
        assert!(is_consecutive(&f, &m0, &m1));
        assert!(!is_consecutive(&f, &m1, &m0));
        assert!(!is_consecutive(&f, &m0, &m2));
    }

    #[test]
    fn consecutive_through_dynamic_base() {
        let (f, loads) = setup();
        let m3 = MemLoc::of_inst(&f, loads[3]).unwrap();
        let m4 = MemLoc::of_inst(&f, loads[4]).unwrap();
        assert_eq!(m3.addr.root, m4.addr.root);
        assert!(is_consecutive(&f, &m3, &m4));
    }

    #[test]
    fn alias_same_root_disjoint() {
        let (f, loads) = setup();
        let m0 = MemLoc::of_inst(&f, loads[0]).unwrap();
        let m1 = MemLoc::of_inst(&f, loads[1]).unwrap();
        assert!(!may_alias(&f, &m0, &m1));
        assert!(may_alias(&f, &m0, &m0));
    }

    #[test]
    fn alias_distinct_noalias_params() {
        let (f, loads) = setup();
        let m0 = MemLoc::of_inst(&f, loads[0]).unwrap();
        let m2 = MemLoc::of_inst(&f, loads[2]).unwrap();
        assert!(!may_alias(&f, &m0, &m2));
    }

    #[test]
    fn alias_dynamic_vs_constant_same_base() {
        let (f, loads) = setup();
        // a[0] vs a[8i]: different roots, same noalias param → may alias.
        let m0 = MemLoc::of_inst(&f, loads[0]).unwrap();
        let m3 = MemLoc::of_inst(&f, loads[3]).unwrap();
        assert!(may_alias(&f, &m0, &m3));
    }

    #[test]
    fn ultimate_base_walks_chains() {
        let (f, loads) = setup();
        let m4 = MemLoc::of_inst(&f, loads[4]).unwrap();
        assert_eq!(m4.base, f.param(0));
    }
}
