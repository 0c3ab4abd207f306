//! The instruction cost model.
//!
//! Two views of cost are provided:
//!
//! * **compile-time cost** ([`CostModel::compile_cost`]) — the static
//!   estimate the SLP vectorizer uses for profitability, in the paper's
//!   units (a vectorizable node of width 2 saves 1, a gather of 2 scalars
//!   costs 2, an alternating add/sub node costs +1 relative to scalar);
//! * **execution cost** ([`CostModel::exec_cost`]) — the per-dynamic-
//!   instruction cycle estimate used by the interpreter. It deliberately
//!   differs from the compile-time view in a few places (e.g. `addsub`
//!   executes in one cycle even though the static model is conservative),
//!   reproducing the paper's observation (§V-A) that the static cost model
//!   is not a perfect predictor of real performance.

use snslp_ir::{BinOp, Function, InstId, InstKind, UnOp};

use crate::target::TargetDesc;

/// The compile-time view's unit costs, calibrated so the worked
/// examples of the paper hold exactly:
/// Fig. 2: (L)SLP graph cost 0, SN-SLP graph cost -6.
/// Fig. 3: (L)SLP graph cost +4, SN-SLP graph cost -6.
pub mod params {
    /// Cost of a simple scalar or vector ALU op.
    pub const BINOP: i32 = 1;
    /// Cost of a division (scalar or vector).
    pub const DIV: i32 = 8;
    /// Cost of a square root.
    pub const SQRT: i32 = 8;
    /// Cost of a load (scalar or full-width vector).
    pub const LOAD: i32 = 1;
    /// Cost of a store (scalar or full-width vector).
    pub const STORE: i32 = 1;
    /// Cost of inserting one scalar into a vector lane.
    pub const INSERT: i32 = 1;
    /// Cost of extracting one scalar from a vector lane.
    pub const EXTRACT: i32 = 1;
    /// Cost of a shuffle/splat.
    pub const SHUFFLE: i32 = 1;
    /// Extra cost of a lane-alternating binary op over a plain one when
    /// the target supports it natively.
    pub const ALTOP_PENALTY: i32 = 2;
    /// Extra cost when it must be emulated (two ops + blend).
    pub const ALTOP_EMULATION_PENALTY: i32 = 3;
}

/// The cost model of one target.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    target: TargetDesc,
}

impl CostModel {
    /// Creates the cost model for `target`.
    pub fn new(target: TargetDesc) -> Self {
        CostModel { target }
    }

    /// The target description.
    pub fn target(&self) -> &TargetDesc {
        &self.target
    }

    fn binop_cost(&self, op: BinOp) -> i32 {
        match op {
            BinOp::Div | BinOp::Rem => params::DIV,
            _ => params::BINOP,
        }
    }

    /// Whether a lane-wise op pattern maps onto the target's `addsub`
    /// instruction family (add/sub lanes only).
    fn lanewise_is_native(&self, ops: &[BinOp]) -> bool {
        self.target.has_lanewise_altop() && ops.iter().all(|o| matches!(o, BinOp::Add | BinOp::Sub))
    }

    /// Compile-time cost of one instruction (scalar or vector).
    ///
    /// Used by the vectorizer to price both the scalar code it removes and
    /// the vector code it inserts.
    pub fn compile_cost(&self, f: &Function, id: InstId) -> i32 {
        self.compile_cost_of(f.kind(id))
    }

    /// Compile-time cost of a hypothetical instruction of kind `kind` (the
    /// instruction need not exist yet). The cost depends on the kind
    /// alone, not on the type or the lane count.
    pub fn compile_cost_of(&self, kind: &InstKind) -> i32 {
        match kind {
            InstKind::Param(_) | InstKind::Const(_) => 0,
            InstKind::Binary { op, .. } => self.binop_cost(*op),
            InstKind::BinaryLanewise { ops, .. } => {
                let worst = ops
                    .iter()
                    .map(|&o| self.binop_cost(o))
                    .max()
                    .unwrap_or(params::BINOP);
                // The x86 `addsub` family only covers add/sub lanes;
                // other alternating ops are emulated (two ops + blend).
                if self.lanewise_is_native(ops) {
                    worst + params::ALTOP_PENALTY
                } else {
                    worst + params::ALTOP_EMULATION_PENALTY
                }
            }
            InstKind::Unary { op, .. } => match op {
                UnOp::Sqrt => params::SQRT,
                _ => params::BINOP,
            },
            InstKind::Cast { .. } => params::BINOP,
            InstKind::Cmp { .. } | InstKind::Select { .. } => params::BINOP,
            InstKind::Load { .. } => params::LOAD,
            InstKind::Store { .. } => params::STORE,
            InstKind::PtrAdd { .. } => 0,
            InstKind::Splat { .. } => params::SHUFFLE,
            InstKind::BuildVector { elems } => params::INSERT * elems.len() as i32,
            InstKind::ExtractElement { .. } => params::EXTRACT,
            InstKind::InsertElement { .. } => params::INSERT,
            InstKind::Shuffle { .. } => params::SHUFFLE,
            InstKind::Phi { .. } => 0,
            InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. } => 0,
        }
    }

    /// Cost of gathering `lanes` scalars into a vector (a non-vectorizable
    /// SLP node): one insert per lane.
    pub fn gather_cost(&self, lanes: u8) -> i32 {
        params::INSERT * i32::from(lanes)
    }

    /// Cost of extracting a lane for an external (scalar) user of a
    /// vectorized value.
    pub fn extract_cost(&self) -> i32 {
        params::EXTRACT
    }

    /// Execution (cycle) cost of one dynamic instruction. Used by the
    /// interpreter's cycle accounting.
    pub fn exec_cost(&self, f: &Function, id: InstId) -> u64 {
        let kind = f.kind(id);
        match kind {
            InstKind::Param(_) | InstKind::Const(_) | InstKind::Phi { .. } => 0,
            InstKind::Binary { op, .. } => match op {
                BinOp::Div | BinOp::Rem => 8,
                _ => 1,
            },
            // Real hardware executes addsub at plain-op cost, but a
            // lane-wise op containing divisions pays the divider latency;
            // non-native patterns pay a blend overhead.
            InstKind::BinaryLanewise { ops, .. } => {
                let worst = ops
                    .iter()
                    .map(|&o| match o {
                        BinOp::Div | BinOp::Rem => 8,
                        _ => 1,
                    })
                    .max()
                    .unwrap_or(1);
                worst + if self.lanewise_is_native(ops) { 0 } else { 2 }
            }
            InstKind::Unary { op, .. } => match op {
                UnOp::Sqrt => 12,
                _ => 1,
            },
            InstKind::Cast { .. } => 1,
            InstKind::Cmp { .. } | InstKind::Select { .. } => 1,
            InstKind::Load { .. } => 3,
            InstKind::Store { .. } => 3,
            InstKind::PtrAdd { .. } => 0,
            InstKind::Splat { .. } => 1,
            InstKind::BuildVector { elems } => elems.len() as u64,
            InstKind::ExtractElement { .. } => 1,
            InstKind::InsertElement { .. } => 1,
            InstKind::Shuffle { .. } => 1,
            InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    fn model() -> CostModel {
        CostModel::new(TargetDesc::sse2_like())
    }

    #[test]
    fn paper_unit_calibration_vectorizable_node() {
        // A vectorizable group of 2 adds: vector cost 1, scalar cost 2,
        // node delta = -1 (the paper's per-node saving in Figs. 2/3).
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let s = fb.add(x, x);
        let v = fb.splat(x, 2);
        let vs = fb.add(v, v);
        fb.store(p, s);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        assert_eq!(m.compile_cost(&f, s), params::BINOP);
        assert_eq!(params::BINOP, 1);
        // delta = vec - scalar = 1 - 2 = -1
        assert_eq!(m.compile_cost(&f, vs) - 2 * m.compile_cost(&f, s), -1);
    }

    #[test]
    fn paper_unit_calibration_gather() {
        // A gather of 2 scalars costs +2 (paper Fig. 2).
        assert_eq!(model().gather_cost(2), 2);
        assert_eq!(model().gather_cost(4), 4);
    }

    #[test]
    fn paper_unit_calibration_altop_node() {
        // An alternating [add,sub] node of width 2: vector cost 3,
        // scalar cost 2, node delta = +1 (paper Fig. 3).
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let v = fb.splat(x, 2);
        let a = fb.binary_lanewise(vec![BinOp::Add, BinOp::Sub], v, v);
        fb.store(p, a);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        assert_eq!(m.compile_cost(&f, a), 3);
        assert_eq!(m.compile_cost(&f, a) - 2 * params::BINOP, 1);
    }

    #[test]
    fn altop_costs_more_without_hw_support() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let v = fb.splat(x, 2);
        let a = fb.binary_lanewise(vec![BinOp::Add, BinOp::Sub], v, v);
        fb.store(p, a);
        fb.ret(None);
        let f = fb.finish();
        let hw = CostModel::new(TargetDesc::sse2_like());
        let sw = CostModel::new(TargetDesc::no_altop_128());
        assert!(sw.compile_cost(&f, a) > hw.compile_cost(&f, a));
    }

    #[test]
    fn div_is_expensive_in_both_views() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let d = fb.div(x, x);
        let s = fb.add(x, x);
        fb.store(p, d);
        fb.store(p, s);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        assert!(m.compile_cost(&f, d) > m.compile_cost(&f, s));
        assert!(m.exec_cost(&f, d) > m.exec_cost(&f, s));
    }

    #[test]
    fn ptradd_and_consts_are_free() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let q = fb.ptradd_const(p, 8);
        let x = fb.load(ScalarType::F64, q);
        fb.store(q, x);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        assert_eq!(m.compile_cost(&f, q), 0);
        assert_eq!(m.exec_cost(&f, q), 0);
    }

    #[test]
    fn build_vector_prices_per_lane() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F32, p);
        let bv = fb.build_vector(vec![x, x, x, x]);
        fb.store(p, bv);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(model().compile_cost(&f, bv), 4);
    }

    #[test]
    fn muldiv_lanewise_is_never_native() {
        // x86 has addsubps/addsubpd but no mul/div alternating op: even on
        // an altop-capable target the mul/div pattern pays emulation.
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let v = fb.splat(x, 2);
        let a = fb.binary_lanewise(vec![BinOp::Mul, BinOp::Div], v, v);
        fb.store(p, a);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        // worst op (div 8) + emulation penalty (3)
        assert_eq!(m.compile_cost(&f, a), 11);
        // exec: div latency 8 + blend 2
        assert_eq!(m.exec_cost(&f, a), 10);
    }

    #[test]
    fn addsub_lanewise_executes_at_unit_cost_with_hw() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::F64, p);
        let v = fb.splat(x, 2);
        let a = fb.binary_lanewise(vec![BinOp::Add, BinOp::Sub], v, v);
        fb.store(p, a);
        fb.ret(None);
        let f = fb.finish();
        assert_eq!(CostModel::new(TargetDesc::sse2_like()).exec_cost(&f, a), 1);
        assert_eq!(
            CostModel::new(TargetDesc::no_altop_128()).exec_cost(&f, a),
            3
        );
    }

    #[test]
    fn cast_costs_are_modest() {
        let mut fb = FunctionBuilder::new("t", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::I32, p);
        let c = fb.cast(snslp_ir::CastKind::Sitofp, ScalarType::F32, x);
        fb.store(p, c);
        fb.ret(None);
        let f = fb.finish();
        let m = model();
        assert_eq!(m.compile_cost(&f, c), params::BINOP);
        assert_eq!(m.exec_cost(&f, c), 1);
    }
}
