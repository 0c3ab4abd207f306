//! Ergonomic construction of IR functions.
//!
//! # Examples
//!
//! ```
//! use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};
//!
//! // a[0] = b[0] + b[1]
//! let mut fb = FunctionBuilder::new(
//!     "sum2",
//!     vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
//!     Type::Void,
//! );
//! let (a, b) = (fb.func().param(0), fb.func().param(1));
//! let b0 = fb.load(ScalarType::F64, b);
//! let p1 = fb.ptradd_const(b, 8);
//! let b1 = fb.load(ScalarType::F64, p1);
//! let s = fb.add(b0, b1);
//! fb.store(a, s);
//! fb.ret(None);
//! let func = fb.finish();
//! assert_eq!(func.name(), "sum2");
//! ```

use crate::function::{Function, Param};
use crate::inst::{BinOp, BlockId, CastKind, CmpPred, Constant, InstId, InstKind, UnOp};
use crate::types::{ScalarType, Type, VectorType};

/// Builds a [`Function`] incrementally, tracking a current insertion block.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
}

impl FunctionBuilder {
    /// Starts building a function; the insertion point is the entry block.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ret_ty: Type) -> Self {
        let func = Function::new(name, params, ret_ty);
        let cur = func.entry();
        FunctionBuilder { func, cur }
    }

    /// Enables fast-math on the function (allows FP reassociation, which
    /// the vectorizer requires to form floating-point Super-Nodes).
    pub fn set_fast_math(&mut self, enabled: bool) -> &mut Self {
        self.func.fast_math = enabled;
        self
    }

    /// The function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Finishes and returns the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Creates a new block (does not switch to it).
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Moves the insertion point to `block`.
    pub fn switch_to(&mut self, block: BlockId) -> &mut Self {
        self.cur = block;
        self
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    fn emit(&mut self, kind: InstKind, ty: Type) -> InstId {
        self.func.append_inst(self.cur, kind, ty)
    }

    /// Emits a scalar constant.
    pub fn constant(&mut self, c: Constant) -> InstId {
        let ty = Type::Scalar(c.scalar_type());
        self.emit(InstKind::Const(c), ty)
    }

    /// Emits an `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> InstId {
        self.constant(Constant::I64(v))
    }

    /// Emits an `f32` constant.
    pub fn const_f32(&mut self, v: f32) -> InstId {
        self.constant(Constant::F32(v))
    }

    /// Emits an `f64` constant.
    pub fn const_f64(&mut self, v: f64) -> InstId {
        self.constant(Constant::F64(v))
    }

    /// Emits `lhs op rhs`; the result type is the type of `lhs`.
    pub fn binary(&mut self, op: BinOp, lhs: InstId, rhs: InstId) -> InstId {
        let ty = self.func.ty(lhs);
        self.emit(InstKind::Binary { op, lhs, rhs }, ty)
    }

    /// Emits an addition.
    pub fn add(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binary(BinOp::Add, lhs, rhs)
    }

    /// Emits a subtraction.
    pub fn sub(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binary(BinOp::Sub, lhs, rhs)
    }

    /// Emits a multiplication.
    pub fn mul(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binary(BinOp::Mul, lhs, rhs)
    }

    /// Emits a division.
    pub fn div(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binary(BinOp::Div, lhs, rhs)
    }

    /// Emits a vector instruction applying `ops[i]` on lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `lhs` is not a vector or `ops.len()` mismatches the lanes.
    pub fn binary_lanewise(&mut self, ops: Vec<BinOp>, lhs: InstId, rhs: InstId) -> InstId {
        let ty = self.func.ty(lhs);
        let vt = ty.as_vector().expect("binary_lanewise needs vectors");
        assert_eq!(ops.len(), vt.lanes as usize, "one op per lane");
        self.emit(
            InstKind::BinaryLanewise {
                ops: ops.into_boxed_slice(),
                lhs,
                rhs,
            },
            ty,
        )
    }

    /// Emits `op operand`.
    pub fn unary(&mut self, op: UnOp, operand: InstId) -> InstId {
        let ty = self.func.ty(operand);
        self.emit(InstKind::Unary { op, operand }, ty)
    }

    /// Emits a negation.
    pub fn neg(&mut self, operand: InstId) -> InstId {
        self.unary(UnOp::Neg, operand)
    }

    /// Emits a type conversion to scalar type `to` (lane-wise on
    /// vectors, preserving the lane count).
    pub fn cast(&mut self, kind: CastKind, to: ScalarType, operand: InstId) -> InstId {
        let ty = match self.func.ty(operand) {
            Type::Vector(v) => Type::vector(to, v.lanes),
            _ => Type::Scalar(to),
        };
        self.emit(InstKind::Cast { kind, operand }, ty)
    }

    /// Emits a comparison; scalar compares produce `i32`, vector compares a
    /// same-width `i32` vector mask.
    pub fn cmp(&mut self, pred: CmpPred, lhs: InstId, rhs: InstId) -> InstId {
        let ty = match self.func.ty(lhs) {
            Type::Vector(v) => Type::vector(ScalarType::I32, v.lanes),
            _ => Type::scalar(ScalarType::I32),
        };
        self.emit(InstKind::Cmp { pred, lhs, rhs }, ty)
    }

    /// Emits a select.
    pub fn select(&mut self, cond: InstId, on_true: InstId, on_false: InstId) -> InstId {
        let ty = self.func.ty(on_true);
        self.emit(
            InstKind::Select {
                cond,
                on_true,
                on_false,
            },
            ty,
        )
    }

    /// Emits a scalar load of type `ty` from `ptr`.
    pub fn load(&mut self, ty: ScalarType, ptr: InstId) -> InstId {
        self.emit(InstKind::Load { ptr }, Type::Scalar(ty))
    }

    /// Emits a vector load of type `vt` from `ptr`.
    pub fn load_vector(&mut self, vt: VectorType, ptr: InstId) -> InstId {
        self.emit(InstKind::Load { ptr }, Type::Vector(vt))
    }

    /// Emits a store of `value` to `ptr`.
    pub fn store(&mut self, ptr: InstId, value: InstId) -> InstId {
        self.emit(InstKind::Store { ptr, value }, Type::Void)
    }

    /// Emits `ptr + offset` where `offset` is an `i64` value.
    pub fn ptradd(&mut self, ptr: InstId, offset: InstId) -> InstId {
        self.emit(InstKind::PtrAdd { ptr, offset }, Type::Ptr)
    }

    /// Emits `ptr + constant-bytes`, materializing the offset constant.
    pub fn ptradd_const(&mut self, ptr: InstId, offset: i64) -> InstId {
        let off = self.const_i64(offset);
        self.ptradd(ptr, off)
    }

    /// Emits a splat of `value` across `lanes` lanes.
    pub fn splat(&mut self, value: InstId, lanes: u8) -> InstId {
        let st = self
            .func
            .ty(value)
            .as_scalar()
            .expect("splat needs a scalar");
        self.emit(InstKind::Splat { value, lanes }, Type::vector(st, lanes))
    }

    /// Emits a build-vector from scalar elements.
    ///
    /// # Panics
    ///
    /// Panics if `elems` has fewer than 2 elements or mixed element types.
    pub fn build_vector(&mut self, elems: Vec<InstId>) -> InstId {
        assert!(elems.len() >= 2, "vectors need at least 2 lanes");
        let st = self
            .func
            .ty(elems[0])
            .as_scalar()
            .expect("build_vector needs scalars");
        for &e in &elems[1..] {
            assert_eq!(self.func.ty(e), Type::Scalar(st), "mixed element types");
        }
        let lanes = elems.len() as u8;
        self.emit(
            InstKind::BuildVector {
                elems: elems.into_boxed_slice(),
            },
            Type::vector(st, lanes),
        )
    }

    /// Emits an element extract.
    pub fn extract(&mut self, vector: InstId, lane: u8) -> InstId {
        let vt = self
            .func
            .ty(vector)
            .as_vector()
            .expect("extract needs a vector");
        assert!(lane < vt.lanes, "lane out of range");
        self.emit(
            InstKind::ExtractElement { vector, lane },
            Type::Scalar(vt.elem),
        )
    }

    /// Emits an element insert.
    pub fn insert(&mut self, vector: InstId, value: InstId, lane: u8) -> InstId {
        let ty = self.func.ty(vector);
        self.emit(
            InstKind::InsertElement {
                vector,
                value,
                lane,
            },
            ty,
        )
    }

    /// Emits a shuffle of `a` and `b` with the given mask.
    pub fn shuffle(&mut self, a: InstId, b: InstId, mask: Vec<u8>) -> InstId {
        let vt = self.func.ty(a).as_vector().expect("shuffle needs vectors");
        let lanes = mask.len() as u8;
        self.emit(
            InstKind::Shuffle {
                a,
                b,
                mask: mask.into_boxed_slice(),
            },
            Type::vector(vt.elem, lanes),
        )
    }

    /// Emits an (initially empty) phi of type `ty`; add edges with
    /// [`FunctionBuilder::add_phi_incoming`].
    pub fn phi(&mut self, ty: Type) -> InstId {
        self.emit(
            InstKind::Phi {
                incoming: Vec::new(),
            },
            ty,
        )
    }

    /// Adds an incoming edge to a phi created by [`FunctionBuilder::phi`].
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction.
    pub fn add_phi_incoming(&mut self, phi: InstId, block: BlockId, value: InstId) {
        match self.func.kind_mut(phi) {
            InstKind::Phi { incoming } => incoming.push((block, value)),
            _ => panic!("not a phi"),
        }
    }

    /// Emits an unconditional jump.
    pub fn jump(&mut self, target: BlockId) -> InstId {
        self.emit(InstKind::Jump { target }, Type::Void)
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, cond: InstId, on_true: BlockId, on_false: BlockId) -> InstId {
        self.emit(
            InstKind::Branch {
                cond,
                on_true,
                on_false,
            },
            Type::Void,
        )
    }

    /// Emits a return.
    pub fn ret(&mut self, value: Option<InstId>) -> InstId {
        self.emit(InstKind::Ret { value }, Type::Void)
    }

    /// Convenience: builds a canonical counted loop
    /// `for i in 0..n { body(i) }`.
    ///
    /// Calls `body(&mut builder, i)` with the insertion point inside the
    /// loop body; after this returns, the insertion point is the exit
    /// block. `n` must be an `i64` value available in the current block.
    pub fn counted_loop(&mut self, n: InstId, body: impl FnOnce(&mut Self, InstId)) {
        let preheader = self.cur;
        let header = self.create_block("loop");
        let exit = self.create_block("exit");

        let zero = self.const_i64(0);
        self.jump(header);

        self.switch_to(header);
        let i = self.phi(Type::scalar(ScalarType::I64));
        self.add_phi_incoming(i, preheader, zero);

        body(self, i);
        // The body may have moved the insertion point (e.g. nested loops);
        // the latch is wherever it ended.
        let one = self.const_i64(1);
        let inext = self.add(i, one);
        let latch = self.cur;
        self.add_phi_incoming(i, latch, inext);
        let cont = self.cmp(CmpPred::Lt, inext, n);
        self.branch(cont, header, exit);

        self.switch_to(exit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_straight_line() {
        let mut fb = FunctionBuilder::new(
            "f",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let x = fb.load(ScalarType::F64, b);
        let y = fb.load(ScalarType::F64, a);
        let s = fb.sub(x, y);
        fb.store(a, s);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(f.num_linked_insts(), 5);
        assert_eq!(f.ty(s), Type::scalar(ScalarType::F64));
    }

    #[test]
    fn build_counted_loop() {
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
        fb.counted_loop(n, |fb, i| {
            let eight = fb.const_i64(8);
            let off = fb.mul(i, eight);
            let p = fb.ptradd(a, off);
            let v = fb.load(ScalarType::F64, p);
            let s = fb.add(v, v);
            fb.store(p, s);
        });
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(f.num_blocks(), 3);
        // Loop header has a phi with two incoming edges.
        let header = BlockId(1);
        let phi = f.block(header).insts()[0];
        match f.kind(phi) {
            InstKind::Phi { incoming } => assert_eq!(incoming.len(), 2),
            k => panic!("expected phi, got {k:?}"),
        }
    }

    #[test]
    fn vector_builders_type_correctly() {
        let mut fb = FunctionBuilder::new("v", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F32, p);
        let v = fb.splat(x, 4);
        assert_eq!(fb.func().ty(v), Type::vector(ScalarType::F32, 4));
        let e = fb.extract(v, 3);
        assert_eq!(fb.func().ty(e), Type::scalar(ScalarType::F32));
        let bv = fb.build_vector(vec![x, e]);
        assert_eq!(fb.func().ty(bv), Type::vector(ScalarType::F32, 2));
        let sh = fb.shuffle(bv, bv, vec![1, 0]);
        assert_eq!(fb.func().ty(sh), Type::vector(ScalarType::F32, 2));
        let lw = fb.binary_lanewise(vec![BinOp::Add, BinOp::Sub], bv, sh);
        assert_eq!(fb.func().ty(lw), Type::vector(ScalarType::F32, 2));
    }

    #[test]
    #[should_panic(expected = "one op per lane")]
    fn lanewise_arity_checked() {
        let mut fb = FunctionBuilder::new("v", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F32, p);
        let v = fb.splat(x, 4);
        let _ = fb.binary_lanewise(vec![BinOp::Add], v, v);
    }
}
