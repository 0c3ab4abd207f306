//! The IR interpreter: executes a function over a [`Memory`], counting
//! dynamic instructions and cost-model cycles.

use std::error::Error;
use std::fmt;

use snslp_cost::CostModel;
use snslp_ir::{Function, InstId, InstKind, Type};

use crate::memory::Memory;
use crate::profile::DynProfile;
use crate::value::{apply_binop, apply_binop_lanewise, apply_cast, apply_cmp, apply_unop, Value};

/// A well-defined runtime trap: a deterministic outcome of executing
/// verifier-clean IR on particular inputs. Traps are *comparable* across
/// differential runs (trap-vs-trap), unlike the malformed-IR errors on
/// [`ExecError`], which indicate a bug in whatever produced the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Memory access outside any allocation.
    OutOfBounds(u64),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The dynamic instruction budget was exhausted.
    FuelExhausted,
}

impl Trap {
    /// Stable trap-kind label, ignoring any address payload. Differential
    /// oracles compare traps by kind because a vectorized function may
    /// legitimately fault at a different lane address than the scalar one.
    pub fn kind(self) -> &'static str {
        match self {
            Trap::OutOfBounds(_) => "out_of_bounds",
            Trap::DivisionByZero => "division_by_zero",
            Trap::FuelExhausted => "fuel_exhausted",
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfBounds(a) => write!(f, "out-of-bounds memory access at {a:#x}"),
            Trap::DivisionByZero => write!(f, "integer division by zero"),
            Trap::FuelExhausted => write!(f, "dynamic instruction budget exhausted"),
        }
    }
}

/// Errors raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A well-defined runtime trap (see [`Trap`]).
    Trap(Trap),
    /// A value had the wrong runtime type (indicates malformed IR).
    TypeMismatch(String),
    /// An operand was read before being defined (malformed IR).
    UndefinedValue(InstId),
    /// Wrong number or type of arguments supplied to [`run`].
    BadArguments(String),
}

impl ExecError {
    /// The trap, if this error is a well-defined runtime trap rather than
    /// a malformed-IR/argument error.
    pub fn as_trap(&self) -> Option<Trap> {
        match self {
            ExecError::Trap(t) => Some(*t),
            _ => None,
        }
    }
}

impl From<Trap> for ExecError {
    fn from(t: Trap) -> Self {
        ExecError::Trap(t)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Trap(t) => t.fmt(f),
            ExecError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            ExecError::UndefinedValue(v) => write!(f, "use of undefined value {v}"),
            ExecError::BadArguments(m) => write!(f, "bad arguments: {m}"),
        }
    }
}

impl Error for ExecError {}

/// Execution limits and switches.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Maximum number of dynamic instructions (guards against infinite
    /// loops in malformed inputs).
    pub fuel: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { fuel: 100_000_000 }
    }
}

/// The result of interpreting a function.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Name of the executed function. The interpreter runs one function
    /// per call, so this keys dynamic profiles per function when results
    /// from several functions are aggregated (e.g. by `snslp-bench report`).
    pub function: String,
    /// The returned value, if the function returns one.
    pub ret: Option<Value>,
    /// Simulated cycles per the cost model's execution view.
    pub cycles: u64,
    /// Number of dynamic instructions executed.
    pub dyn_insts: u64,
    /// Dynamic execution profile: the same work broken down by opcode
    /// class, scalar vs vector, lane usage, packing overhead, and memory
    /// traffic. `profile.total_ops() == dyn_insts` and
    /// `profile.total_cycles() == cycles` always hold.
    pub profile: DynProfile,
}

/// Interprets `f` with the given arguments against `mem`.
///
/// Arguments must match the function's parameters: `Value::Ptr` for `ptr`
/// parameters, matching scalars otherwise.
///
/// # Errors
///
/// Returns [`ExecError`] on malformed IR, memory faults, integer division
/// by zero, argument mismatch, or fuel exhaustion.
pub fn run(
    f: &Function,
    args: &[Value],
    mem: &mut Memory,
    model: &CostModel,
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    if args.len() != f.params().len() {
        return Err(ExecError::BadArguments(format!(
            "expected {} arguments, got {}",
            f.params().len(),
            args.len()
        )));
    }
    let mut values: Vec<Option<Value>> = vec![None; f.num_inst_slots()];
    for (i, a) in args.iter().enumerate() {
        let want = f.params()[i].ty;
        let ok = match (want, a) {
            (Type::Ptr, Value::Ptr(_)) => true,
            (Type::Scalar(st), v) => v.scalar_type() == Some(st),
            _ => false,
        };
        if !ok {
            return Err(ExecError::BadArguments(format!(
                "argument {i} has wrong type for {want}"
            )));
        }
        values[f.param(i).index()] = Some(a.clone());
    }

    let mut cycles: u64 = 0;
    let mut dyn_insts: u64 = 0;
    let mut profile = DynProfile::new();
    let mut fuel = opts.fuel;
    let mut block = f.entry();
    let mut prev_block: Option<snslp_ir::BlockId> = None;

    'blocks: loop {
        // Phase 1: evaluate all phis of the block atomically.
        let insts = f.block(block).insts();
        let mut phi_values: Vec<(InstId, Value)> = Vec::new();
        for &id in insts {
            match f.kind(id) {
                InstKind::Phi { incoming } => {
                    let pred = prev_block
                        .ok_or_else(|| ExecError::TypeMismatch("phi in entry block".into()))?;
                    let (_, v) = incoming.iter().find(|(b, _)| *b == pred).ok_or_else(|| {
                        ExecError::TypeMismatch(format!("phi {id} has no edge from {pred}"))
                    })?;
                    let val = values[v.index()]
                        .clone()
                        .ok_or(ExecError::UndefinedValue(*v))?;
                    phi_values.push((id, val));
                }
                _ => break,
            }
        }
        for (id, v) in phi_values {
            values[id.index()] = Some(v);
        }

        // Phase 2: execute the rest.
        for &id in insts {
            let kind = f.kind(id);
            if matches!(kind, InstKind::Phi { .. }) {
                continue;
            }
            if fuel == 0 {
                return Err(Trap::FuelExhausted.into());
            }
            fuel -= 1;
            dyn_insts += 1;
            let cost = model.exec_cost(f, id);
            cycles += cost;
            profile.record(f, id, cost);

            let get = |v: &InstId| -> Result<Value, ExecError> {
                values[v.index()]
                    .clone()
                    .ok_or(ExecError::UndefinedValue(*v))
            };

            let result: Option<Value> = match kind {
                InstKind::Param(_) | InstKind::Phi { .. } => unreachable!(),
                InstKind::Const(c) => Some(Value::of_const(*c)),
                InstKind::Binary { op, lhs, rhs } => {
                    Some(apply_binop(*op, &get(lhs)?, &get(rhs)?)?)
                }
                InstKind::BinaryLanewise { ops, lhs, rhs } => {
                    Some(apply_binop_lanewise(ops, &get(lhs)?, &get(rhs)?)?)
                }
                InstKind::Unary { op, operand } => Some(apply_unop(*op, &get(operand)?)?),
                InstKind::Cast { kind, operand } => {
                    let to = f
                        .ty(id)
                        .elem_scalar()
                        .ok_or_else(|| ExecError::TypeMismatch("cast to non-numeric".into()))?;
                    Some(apply_cast(*kind, to, &get(operand)?)?)
                }
                InstKind::Cmp { pred, lhs, rhs } => Some(apply_cmp(*pred, &get(lhs)?, &get(rhs)?)?),
                InstKind::Select {
                    cond,
                    on_true,
                    on_false,
                } => match get(cond)? {
                    // A vector i32 mask selects lane-wise.
                    Value::Vector(mask) => {
                        let t = get(on_true)?;
                        let e = get(on_false)?;
                        let (tl, el) = (t.lanes()?, e.lanes()?);
                        if mask.len() != tl.len() || mask.len() != el.len() {
                            return Err(ExecError::TypeMismatch(
                                "select mask width mismatch".into(),
                            ));
                        }
                        let lanes: Result<Vec<Value>, ExecError> = mask
                            .iter()
                            .zip(tl.iter().zip(el))
                            .map(|(m, (tv, ev))| {
                                Ok(if m.is_truthy()? {
                                    tv.clone()
                                } else {
                                    ev.clone()
                                })
                            })
                            .collect();
                        Some(Value::Vector(lanes?))
                    }
                    c => {
                        if c.is_truthy()? {
                            Some(get(on_true)?)
                        } else {
                            Some(get(on_false)?)
                        }
                    }
                },
                InstKind::Load { ptr } => {
                    let addr = get(ptr)?.as_ptr()?;
                    Some(mem.load(f.ty(id), addr)?)
                }
                InstKind::Store { ptr, value } => {
                    let addr = get(ptr)?.as_ptr()?;
                    mem.store(&get(value)?, addr)?;
                    None
                }
                InstKind::PtrAdd { ptr, offset } => {
                    let base = get(ptr)?.as_ptr()?;
                    let off = get(offset)?.as_i64()?;
                    Some(Value::Ptr(base.wrapping_add(off as u64)))
                }
                InstKind::Splat { value, lanes } => {
                    let v = get(value)?;
                    Some(Value::Vector(vec![v; *lanes as usize]))
                }
                InstKind::BuildVector { elems } => {
                    let lanes: Result<Vec<Value>, ExecError> = elems.iter().map(&get).collect();
                    Some(Value::Vector(lanes?))
                }
                InstKind::ExtractElement { vector, lane } => {
                    let v = get(vector)?;
                    let lanes = v.lanes()?;
                    Some(
                        lanes
                            .get(*lane as usize)
                            .cloned()
                            .ok_or_else(|| ExecError::TypeMismatch("lane out of range".into()))?,
                    )
                }
                InstKind::InsertElement {
                    vector,
                    value,
                    lane,
                } => {
                    let v = get(vector)?;
                    let mut lanes = v.lanes()?.to_vec();
                    let slot = lanes
                        .get_mut(*lane as usize)
                        .ok_or_else(|| ExecError::TypeMismatch("lane out of range".into()))?;
                    *slot = get(value)?;
                    Some(Value::Vector(lanes))
                }
                InstKind::Shuffle { a, b, mask } => {
                    let va = get(a)?;
                    let vb = get(b)?;
                    let (la, lb) = (va.lanes()?, vb.lanes()?);
                    let n = la.len();
                    let lanes: Result<Vec<Value>, ExecError> = mask
                        .iter()
                        .map(|&m| {
                            let m = m as usize;
                            if m < n {
                                Ok(la[m].clone())
                            } else if m - n < lb.len() {
                                Ok(lb[m - n].clone())
                            } else {
                                Err(ExecError::TypeMismatch("shuffle index out of range".into()))
                            }
                        })
                        .collect();
                    Some(Value::Vector(lanes?))
                }
                InstKind::Jump { target } => {
                    prev_block = Some(block);
                    block = *target;
                    continue 'blocks;
                }
                InstKind::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    prev_block = Some(block);
                    block = if get(cond)?.is_truthy()? {
                        *on_true
                    } else {
                        *on_false
                    };
                    continue 'blocks;
                }
                InstKind::Ret { value } => {
                    let ret = match value {
                        Some(v) => Some(get(v)?),
                        None => None,
                    };
                    return Ok(ExecResult {
                        function: f.name().to_string(),
                        ret,
                        cycles,
                        dyn_insts,
                        profile,
                    });
                }
            };
            values[id.index()] = result;
        }
        // A verifier-clean block always ends in a terminator; reaching here
        // means malformed IR.
        return Err(ExecError::TypeMismatch(format!(
            "block {block} fell through without a terminator"
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_cost::TargetDesc;
    use snslp_ir::{FunctionBuilder, Param, ScalarType};

    fn model() -> CostModel {
        CostModel::new(TargetDesc::sse2_like())
    }

    #[test]
    fn run_straight_line_store() {
        // a[0] = b[0] + b[1]
        let mut fb = FunctionBuilder::new(
            "sum2",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
            Type::Void,
        );
        let (a, b) = (fb.func().param(0), fb.func().param(1));
        let b0 = fb.load(ScalarType::F64, b);
        let p1 = fb.ptradd_const(b, 8);
        let b1 = fb.load(ScalarType::F64, p1);
        let s = fb.add(b0, b1);
        fb.store(a, s);
        fb.ret(None);
        let f = fb.finish();

        let mut mem = Memory::new();
        let bb = mem.alloc_slice_f64(&[3.0, 4.0]);
        let aa = mem.alloc_slice_f64(&[0.0]);
        let r = run(
            &f,
            &[Value::Ptr(aa), Value::Ptr(bb)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(mem.read_slice_f64(aa, 1), vec![7.0]);
        assert!(r.cycles > 0);
        assert_eq!(r.ret, None);
    }

    #[test]
    fn run_counted_loop() {
        // for i in 0..n: a[i] *= 2
        let mut fb = FunctionBuilder::new(
            "dbl",
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
            let two = fb.const_f64(2.0);
            let s = fb.mul(v, two);
            fb.store(p, s);
        });
        fb.ret(None);
        let f = fb.finish();
        snslp_ir::verify(&f).unwrap();

        let mut mem = Memory::new();
        let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let aa = mem.alloc_slice_f64(&data);
        run(
            &f,
            &[Value::Ptr(aa), Value::I64(10)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(
            mem.read_slice_f64(aa, 10),
            (0..10).map(|i| 2.0 * i as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn returns_value() {
        let mut fb = FunctionBuilder::new("k", vec![], Type::scalar(ScalarType::I64));
        let c = fb.const_i64(41);
        let one = fb.const_i64(1);
        let s = fb.add(c, one);
        fb.ret(Some(s));
        let f = fb.finish();
        let mut mem = Memory::new();
        let r = run(&f, &[], &mut mem, &model(), &ExecOptions::default()).unwrap();
        assert_eq!(r.ret, Some(Value::I64(42)));
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let mut fb = FunctionBuilder::new("inf", vec![], Type::Void);
        let body = fb.create_block("body");
        fb.jump(body);
        fb.switch_to(body);
        fb.jump(body);
        let f = fb.finish();
        let mut mem = Memory::new();
        let e = run(&f, &[], &mut mem, &model(), &ExecOptions { fuel: 1000 }).unwrap_err();
        assert_eq!(e, ExecError::Trap(Trap::FuelExhausted));
        assert_eq!(e.as_trap(), Some(Trap::FuelExhausted));
    }

    #[test]
    fn bad_argument_count_and_type() {
        let mut fb = FunctionBuilder::new(
            "f",
            vec![Param::new("x", Type::scalar(ScalarType::I64))],
            Type::Void,
        );
        fb.ret(None);
        let f = fb.finish();
        let mut mem = Memory::new();
        assert!(matches!(
            run(&f, &[], &mut mem, &model(), &ExecOptions::default()),
            Err(ExecError::BadArguments(_))
        ));
        assert!(matches!(
            run(
                &f,
                &[Value::F64(1.0)],
                &mut mem,
                &model(),
                &ExecOptions::default()
            ),
            Err(ExecError::BadArguments(_))
        ));
    }

    #[test]
    fn vector_instructions_execute() {
        let mut fb = FunctionBuilder::new("v", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let vt = snslp_ir::VectorType::new(ScalarType::F64, 2);
        let v = fb.load_vector(vt, p);
        let sh = fb.shuffle(v, v, vec![1, 0]);
        let r = fb.binary_lanewise(vec![snslp_ir::BinOp::Add, snslp_ir::BinOp::Sub], v, sh);
        let q = fb.ptradd_const(p, 16);
        fb.store(q, r);
        fb.ret(None);
        let f = fb.finish();
        snslp_ir::verify(&f).unwrap();

        let mut mem = Memory::new();
        let base = mem.alloc_slice_f64(&[10.0, 3.0, 0.0, 0.0]);
        run(
            &f,
            &[Value::Ptr(base)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        // lane0: 10 + 3 = 13; lane1: 3 - 10 = -7
        assert_eq!(mem.read_slice_f64(base + 16, 2), vec![13.0, -7.0]);
    }

    #[test]
    fn profile_buckets_sum_to_totals() {
        // Same shape as `vector_instructions_execute`: one vector load,
        // a shuffle, a lanewise op, address math, and a vector store.
        let mut fb = FunctionBuilder::new("v", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let vt = snslp_ir::VectorType::new(ScalarType::F64, 2);
        let v = fb.load_vector(vt, p);
        let sh = fb.shuffle(v, v, vec![1, 0]);
        let r = fb.binary_lanewise(vec![snslp_ir::BinOp::Add, snslp_ir::BinOp::Sub], v, sh);
        let q = fb.ptradd_const(p, 16);
        fb.store(q, r);
        fb.ret(None);
        let f = fb.finish();

        let mut mem = Memory::new();
        let base = mem.alloc_slice_f64(&[10.0, 3.0, 0.0, 0.0]);
        let res = run(
            &f,
            &[Value::Ptr(base)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        let prof = &res.profile;
        assert_eq!(prof.total_ops(), res.dyn_insts);
        assert_eq!(prof.total_cycles(), res.cycles);
        assert_eq!(prof.loads, 1);
        assert_eq!(prof.stores, 1);
        // One f64x2 load + one f64x2 store = 16 bytes each way.
        assert_eq!(prof.bytes_loaded, 16);
        assert_eq!(prof.bytes_stored, 16);
        assert_eq!(prof.shuffles, 1);
        // Vector ops: load, shuffle, lanewise, store — all 2-lane.
        assert_eq!(prof.vector_ops, 4);
        assert_eq!(prof.lanes_hist[2], 4);
        assert_eq!(prof.mean_lanes(), Some(2.0));
        assert_eq!(prof.gathers, 0);
    }

    #[test]
    fn scalar_function_profiles_zero_vector_ops() {
        let mut fb = FunctionBuilder::new("d", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::I64, p);
        let c = fb.const_i64(3);
        let q = fb.div(x, c);
        fb.store(p, q);
        fb.ret(None);
        let f = fb.finish();
        let mut mem = Memory::new();
        let base = mem.alloc_slice_i64(&[9]);
        let res = run(
            &f,
            &[Value::Ptr(base)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        let prof = &res.profile;
        assert_eq!(prof.vector_ops, 0);
        assert_eq!(prof.scalar_ops, res.dyn_insts);
        assert_eq!(prof.ops_of(crate::profile::OpClass::DivRem), 1);
        assert_eq!(prof.cycles_of(crate::profile::OpClass::DivRem), 8);
        assert_eq!(prof.mean_lanes(), None);
        assert_eq!(prof.packing_ops(), 0);
        assert_eq!(prof.mem_ops(), 2);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ExecError::Trap(Trap::OutOfBounds(0x40))
            .to_string()
            .contains("0x40"));
        assert!(ExecError::Trap(Trap::DivisionByZero)
            .to_string()
            .contains("division"));
        assert!(ExecError::Trap(Trap::FuelExhausted)
            .to_string()
            .contains("budget"));
        assert_eq!(Trap::OutOfBounds(0x40).kind(), "out_of_bounds");
        assert_eq!(Trap::DivisionByZero.kind(), "division_by_zero");
        assert_eq!(Trap::FuelExhausted.kind(), "fuel_exhausted");
        assert!(ExecError::BadArguments("x".into())
            .to_string()
            .contains("x"));
        assert!(ExecError::UndefinedValue(snslp_ir::InstId(3))
            .to_string()
            .contains("%3"));
    }

    #[test]
    fn vector_mask_select_executes() {
        let mut fb = FunctionBuilder::new("v", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let vt = snslp_ir::VectorType::new(ScalarType::I64, 2);
        let a = fb.load_vector(vt, p);
        let q = fb.ptradd_const(p, 16);
        let b = fb.load_vector(vt, q);
        let m = fb.cmp(snslp_ir::CmpPred::Gt, a, b);
        let r = fb.select(m, a, b);
        let o = fb.ptradd_const(p, 32);
        fb.store(o, r);
        fb.ret(None);
        let f = fb.finish();
        snslp_ir::verify(&f).unwrap();
        let mut mem = Memory::new();
        let base = mem.alloc_slice_i64(&[5, -7, 3, 12, 0, 0]);
        run(
            &f,
            &[Value::Ptr(base)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(mem.read_slice_i64(base + 32, 2), vec![5, 12]);
    }

    #[test]
    fn int_div_by_zero_aborts_execution() {
        let mut fb = FunctionBuilder::new("d", vec![Param::noalias_ptr("p")], Type::Void);
        let p = fb.func().param(0);
        let x = fb.load(ScalarType::I64, p);
        let z = fb.const_i64(0);
        let q = fb.div(x, z);
        fb.store(p, q);
        fb.ret(None);
        let f = fb.finish();
        let mut mem = Memory::new();
        let base = mem.alloc_slice_i64(&[9]);
        let e = run(
            &f,
            &[Value::Ptr(base)],
            &mut mem,
            &model(),
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(e, ExecError::Trap(Trap::DivisionByZero));
        // Memory untouched.
        assert_eq!(mem.read_slice_i64(base, 1), vec![9]);
    }
}
