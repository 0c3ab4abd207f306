//! Block-local register allocation against the interpreter: register
//! pressure past both register files, helper calls that clobber every
//! allocatable register, and slot-form readers of values that are still
//! dirty in a register. Each function runs through `check_backends`, so
//! a stale slot or a lost register shows as a bit-level divergence.

use snslp_cost::CostModel;
use snslp_interp::{ArgSpec, ExecOptions};
use snslp_ir::{BinOp, CastKind, Function, FunctionBuilder, Param, ScalarType, Type};
use snslp_jit::{check_backends, compile, native_supported, BackendDiff};

fn assert_agree(f: &Function, args: &[ArgSpec]) {
    match check_backends(f, args, &CostModel::default(), &ExecOptions::default()) {
        Ok(BackendDiff::Agreed) => {}
        Ok(BackendDiff::NotCovered { reason }) => {
            assert!(!native_supported(), "`{}` not covered: {reason}", f.name());
        }
        Err(div) => panic!("`{}` diverged: {div}", f.name()),
    }
}

/// The dump lines defining the values that `f`'s lowering wrote back to
/// make room (each evicting line lists them as `[spill %a %b]`).
fn spilled_defs(f: &Function) -> Vec<String> {
    let c = compile(f).expect("lowers");
    let spilled: Vec<String> = c
        .dump()
        .lines()
        .filter_map(|l| l.split_once("[spill ")?.1.split_once(']'))
        .flat_map(|(ids, _)| ids.split(' ').map(|id| format!("  {id} ")))
        .collect();
    c.dump()
        .lines()
        .filter(|l| spilled.iter().any(|id| l.starts_with(id.as_str())))
        .map(str::to_string)
        .collect()
}

/// 20 `f64` loads through 20 addresses defined ten at a time, each ten
/// used in reverse order, then summed last-loaded first: more live
/// block-local values than the 6 GPRs and the 8 xmm registers hold.
fn pressure() -> Function {
    let mut fb = FunctionBuilder::new(
        "pressure",
        vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
        Type::Void,
    );
    let a = fb.func().param(0);
    let out = fb.func().param(1);
    let mut xs = Vec::new();
    for half in [0..10, 10..20] {
        let ptrs: Vec<_> = half.map(|i| fb.ptradd_const(a, 8 * i)).collect();
        xs.extend(ptrs.iter().rev().map(|&p| fb.load(ScalarType::F64, p)));
    }
    let mut acc = xs[19];
    for &x in xs[..19].iter().rev() {
        acc = fb.add(acc, x);
    }
    fb.store(out, acc);
    fb.ret(None);
    fb.finish()
}

#[test]
fn more_live_values_than_registers_spill_and_agree() {
    let f = pressure();
    let spills = spilled_defs(&f);
    assert!(
        spills.iter().any(|l| l.contains(" load f64 ")),
        "no xmm value was evicted:\n{}",
        spills.join("\n")
    );
    assert!(
        spills.iter().any(|l| l.contains(" ptradd ")),
        "no GPR value was evicted:\n{}",
        spills.join("\n")
    );
    let data: Vec<f64> = (0..20).map(|i| 1.0 / f64::from(i + 3) - 0.1).collect();
    assert_agree(&f, &[ArgSpec::F64Array(data), ArgSpec::F64Array(vec![0.0])]);
}

/// `x` and `y` loaded, `s = x + y` and an address defined, then a float
/// `op` (a helper call), then `s`, `x` and the address used again.
fn around_a_call(op: BinOp, st: ScalarType) -> Function {
    let mut fb = FunctionBuilder::new(
        "call",
        vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
        Type::Void,
    );
    let a = fb.func().param(0);
    let out = fb.func().param(1);
    let sz = i64::from(st.size_bytes());
    let x = fb.load(st, a);
    let p1 = fb.ptradd_const(a, sz);
    let y = fb.load(st, p1);
    let s = fb.add(x, y);
    let q = fb.ptradd_const(out, sz);
    let m = fb.binary(op, x, y);
    let t = fb.mul(s, m);
    fb.store(out, t);
    let u = fb.sub(x, m);
    fb.store(q, u);
    fb.ret(None);
    fb.finish()
}

#[test]
fn values_live_across_helper_calls_agree() {
    for st in [ScalarType::F32, ScalarType::F64] {
        for op in [BinOp::Min, BinOp::Max, BinOp::Rem] {
            let f = around_a_call(op, st);
            for (x, y) in [(1.5, -2.25), (7.0, 3.0), (f64::NAN, 1.0), (-0.0, 0.0)] {
                let args = match st {
                    ScalarType::F32 => vec![
                        ArgSpec::F32Array(vec![x as f32, y as f32]),
                        ArgSpec::F32Array(vec![0.0; 2]),
                    ],
                    _ => vec![
                        ArgSpec::F64Array(vec![x, y]),
                        ArgSpec::F64Array(vec![0.0; 2]),
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }
}

/// An `i64` computed in a GPR and never stored, then read by a 16-byte
/// splat, a 32-byte splat, a build-vector and a cast (slot forms) and
/// by a store (register form).
fn dirty_sources() -> Function {
    let mut fb = FunctionBuilder::new(
        "dirty",
        vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
        Type::Void,
    );
    let a = fb.func().param(0);
    let out = fb.func().param(1);
    let k = fb.load(ScalarType::I64, a);
    let k2 = fb.add(k, k);
    let v2 = fb.splat(k2, 2);
    let v4 = fb.splat(k2, 4);
    let bv = fb.build_vector(vec![k, k2]);
    let d = fb.cast(CastKind::Sitofp, ScalarType::F64, k2);
    fb.store(out, v2);
    let q = fb.ptradd_const(out, 16);
    fb.store(q, v4);
    let q = fb.ptradd_const(out, 48);
    fb.store(q, bv);
    let q = fb.ptradd_const(out, 64);
    fb.store(q, d);
    let q = fb.ptradd_const(out, 72);
    fb.store(q, k2);
    fb.ret(None);
    fb.finish()
}

#[test]
fn slot_readers_of_dirty_registers_agree() {
    let f = dirty_sources();
    let dump = compile(&f).expect("lowers").dump().to_string();
    assert!(dump.contains(" splat x2 = broadcast packed "), "{dump}");
    for k in [21, -1, i64::MIN / 3] {
        assert_agree(
            &f,
            &[ArgSpec::I64Array(vec![k]), ArgSpec::I64Array(vec![0; 10])],
        );
    }
}
