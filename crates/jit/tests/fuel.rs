//! Fuel exhaustion at every budget: for each fuel value from 0 to one
//! past the run's `dyn_insts`, the native backend must trap (or return)
//! exactly where the interpreter does, with the same final memory image
//! and, when both return, the same remaining fuel. A single budget only
//! probes one instruction of one block; the sweep probes every one of
//! them, the terminators and the stores just before them included.

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{materialize_args, run, ArgSpec, ExecOptions};
use snslp_ir::{CmpPred, Function, FunctionBuilder, Param, ScalarType, Type};
use snslp_jit::{check_backends, native_supported, BackendDiff};

/// Runs `check_backends` at every budget in `0..=dyn_insts + 1` and
/// returns `dyn_insts`.
fn sweep(what: &str, f: &Function, args: &[ArgSpec]) -> u64 {
    let model = CostModel::default();
    let (mut mem, values) = materialize_args(args);
    let full = run(f, &values, &mut mem, &model, &ExecOptions::default())
        .unwrap_or_else(|e| panic!("{what}: interpreter failed: {e}"));
    let total = full.dyn_insts;
    for fuel in 0..=total + 1 {
        match check_backends(f, args, &model, &ExecOptions { fuel }) {
            Ok(BackendDiff::Agreed) => {}
            Ok(BackendDiff::NotCovered { reason }) => {
                assert!(!native_supported(), "{what}: not covered: {reason}");
            }
            Err(div) => panic!("{what} at fuel {fuel} of {total}: {div}"),
        }
    }
    total
}

/// `out[i] = a[i] < 0 ? -a[i] : 2 * a[i]` over `n` elements, summed into
/// `*total`: a loop of four blocks whose branch goes both ways, with a
/// store before every terminator but the header's and a phi at the join.
fn branchy_loop() -> Function {
    let mut fb = FunctionBuilder::new(
        "branchy",
        vec![
            Param::noalias_ptr("a"),
            Param::noalias_ptr("out"),
            Param::noalias_ptr("total"),
            Param::new("n", Type::scalar(ScalarType::I64)),
        ],
        Type::scalar(ScalarType::I64),
    );
    let a = fb.func().param(0);
    let out = fb.func().param(1);
    let total = fb.func().param(2);
    let n = fb.func().param(3);
    fb.counted_loop(n, |fb, i| {
        let neg = fb.create_block("neg");
        let pos = fb.create_block("pos");
        let join = fb.create_block("join");
        let eight = fb.const_i64(8);
        let off = fb.mul(i, eight);
        let p = fb.ptradd(a, off);
        let x = fb.load(ScalarType::I64, p);
        let q = fb.ptradd(out, off);
        fb.store(q, x);
        let zero = fb.const_i64(0);
        let c = fb.cmp(CmpPred::Lt, x, zero);
        fb.branch(c, neg, pos);

        fb.switch_to(neg);
        let y_neg = fb.sub(zero, x);
        fb.store(q, y_neg);
        fb.jump(join);

        fb.switch_to(pos);
        let two = fb.const_i64(2);
        let y_pos = fb.mul(x, two);
        fb.store(q, y_pos);
        fb.jump(join);

        fb.switch_to(join);
        let y = fb.phi(Type::scalar(ScalarType::I64));
        fb.add_phi_incoming(y, neg, y_neg);
        fb.add_phi_incoming(y, pos, y_pos);
        let acc = fb.load(ScalarType::I64, total);
        let sum = fb.add(acc, y);
        fb.store(total, sum);
    });
    let t = fb.load(ScalarType::I64, total);
    fb.ret(Some(t));
    fb.finish()
}

#[test]
fn every_budget_traps_where_the_interpreter_does_in_a_branchy_loop() {
    let f = branchy_loop();
    let data = vec![3, -4, 5, -6, 0, 7, -1];
    let args = vec![
        ArgSpec::I64Array(data.clone()),
        ArgSpec::I64Array(vec![0; data.len()]),
        ArgSpec::I64Array(vec![0]),
        ArgSpec::I64(data.len() as i64),
    ];
    let total = sweep("branchy", &f, &args);
    assert!(total > 100, "only {total} instructions executed");
}

#[test]
fn every_budget_traps_where_the_interpreter_does_in_registry_kernels() {
    for name in ["sphinx_norm", "motiv_trunk"] {
        let kernel = snslp_kernels::registry()
            .into_iter()
            .find(|k| k.name == name)
            .unwrap_or_else(|| panic!("no kernel `{name}`"));
        let args = kernel.args(3);
        let mut o3 = kernel.build();
        optimize_o3(&mut o3);
        sweep(&format!("{name} [o3]"), &o3, &args);
        let mut sn = kernel.build();
        run_slp(&mut sn, &SlpConfig::new(SlpMode::SnSlp));
        sweep(&format!("{name} [snslp]"), &sn, &args);
    }
}
