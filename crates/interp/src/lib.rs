//! # snslp-interp
//!
//! Reference interpreter for the SN-SLP IR: flat bounds-checked
//! [`Memory`], dynamic [`Value`]s, an executor with cost-model cycle
//! accounting ([`run`]), and differential-testing helpers ([`diff`])
//! used to validate that vectorization preserves semantics.
//!
//! # Examples
//!
//! ```
//! use snslp_cost::{CostModel, TargetDesc};
//! use snslp_interp::{run, ExecOptions, Memory, Value};
//! use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};
//!
//! // a[0] = a[0] + a[1]
//! let mut fb = FunctionBuilder::new("f", vec![Param::noalias_ptr("a")], Type::Void);
//! let a = fb.func().param(0);
//! let x = fb.load(ScalarType::F64, a);
//! let p = fb.ptradd_const(a, 8);
//! let y = fb.load(ScalarType::F64, p);
//! let s = fb.add(x, y);
//! fb.store(a, s);
//! fb.ret(None);
//! let f = fb.finish();
//!
//! let mut mem = Memory::new();
//! let base = mem.alloc_slice_f64(&[1.0, 2.0]);
//! let model = CostModel::new(TargetDesc::sse2_like());
//! run(&f, &[Value::Ptr(base)], &mut mem, &model, &ExecOptions::default())?;
//! assert_eq!(mem.read_slice_f64(base, 1), vec![3.0]);
//! # Ok::<(), snslp_interp::ExecError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod exec;
pub mod memory;
pub mod profile;
pub mod value;

pub use diff::{
    check_equivalent, materialize_args, module_inputs, outcomes_match, parse_inputs_line,
    run_with_args, ArgSpec, ArrayData, RunOutcome,
};
pub use exec::{run, ExecError, ExecOptions, ExecResult, Trap};
pub use memory::Memory;
pub use profile::{classify, DynProfile, OpClass};
pub use value::Value;
