//! Backend differential checking: interpreter vs native JIT.
//!
//! Unlike the interpreter's own [`snslp_interp::check_equivalent`] — which
//! compares an *original* against a *transformed* function and therefore
//! tolerates fast-math reassociation noise — both backends here execute
//! the **same** function, so every observable must agree **bit-exactly**:
//! the returned value's bit pattern, the trap kind, the remaining fuel
//! (observable only on a normal return), and the entire final memory
//! image.

use std::collections::BTreeMap;

use snslp_cost::CostModel;
use snslp_interp::{materialize_args, run, ArgSpec, ExecOptions, Memory, Value};
use snslp_ir::Function;
use snslp_trace::DecisionId;

use crate::hot::HotProfile;
use crate::lower::LowerOptions;
use crate::JitError;

/// Outcome of a backend differential run that did not diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendDiff {
    /// The JIT declined the function (unsupported construct or platform);
    /// nothing was compared and the interpreter remains authoritative.
    NotCovered {
        /// Why the native backend was not exercised.
        reason: String,
    },
    /// Both backends ran and every observable matched bit-exactly.
    Agreed,
}

fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I32(x), Value::I32(y)) => x == y,
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Ptr(x), Value::Ptr(y)) => x == y,
        (Value::Vector(x), Value::Vector(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| bits_eq(u, v))
        }
        _ => false,
    }
}

fn memories_eq(a: &Memory, b: &Memory) -> Result<(), String> {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    if sa.len() != sb.len() {
        return Err(format!(
            "memory sizes differ: interp {} vs jit {}",
            sa.len(),
            sb.len()
        ));
    }
    if let Some(i) = (0..sa.len()).find(|&i| sa[i] != sb[i]) {
        return Err(format!(
            "memory differs at byte {i:#x}: interp {:#04x} vs jit {:#04x}",
            sa[i], sb[i]
        ));
    }
    Ok(())
}

/// Runs `f` under both backends on identical inputs and compares every
/// observable bit-exactly.
///
/// # Errors
///
/// Returns a description of the first divergence between the two
/// backends. A function the JIT declines is **not** a divergence — that
/// is the documented fallback contract and reports as
/// [`BackendDiff::NotCovered`].
pub fn check_backends(
    f: &Function,
    args: &[ArgSpec],
    model: &CostModel,
    opts: &ExecOptions,
) -> Result<BackendDiff, String> {
    let compiled = match crate::compile(f) {
        Ok(c) => c,
        Err(JitError::Unsupported { reason }) => return Ok(BackendDiff::NotCovered { reason }),
        Err(JitError::Platform(reason)) => return Ok(BackendDiff::NotCovered { reason }),
    };
    let native = match compiled.finalize() {
        Ok(n) => n,
        Err(e) => {
            return Ok(BackendDiff::NotCovered {
                reason: e.to_string(),
            })
        }
    };

    let (mut mem_interp, values) = materialize_args(args);
    let (mut mem_jit, _) = materialize_args(args);

    let interp = run(f, &values, &mut mem_interp, model, opts);
    let jit = native.invoke(&values, &mut mem_jit, opts);

    match (interp, jit) {
        (Ok(ir), Ok(jr)) => {
            match (&ir.ret, &jr.ret) {
                (None, None) => {}
                (Some(x), Some(y)) if bits_eq(x, y) => {}
                (x, y) => {
                    return Err(format!("return values differ: interp {x:?} vs jit {y:?}"));
                }
            }
            let interp_fuel_left = opts.fuel - ir.dyn_insts;
            if interp_fuel_left != jr.fuel_remaining {
                return Err(format!(
                    "fuel accounting differs: interp leaves {interp_fuel_left}, jit leaves {}",
                    jr.fuel_remaining
                ));
            }
            memories_eq(&mem_interp, &mem_jit)?;
            Ok(BackendDiff::Agreed)
        }
        (Err(ei), Err(ej)) => match (ei.as_trap(), ej.as_trap()) {
            (Some(ti), Some(tj)) if ti.kind() == tj.kind() => {
                memories_eq(&mem_interp, &mem_jit)?;
                Ok(BackendDiff::Agreed)
            }
            // Both rejected the inputs / IR before running (e.g. bad
            // argument count): equally failing is agreement.
            (None, None) => Ok(BackendDiff::Agreed),
            _ => Err(format!("errors differ: interp `{ei}` vs jit `{ej}`")),
        },
        (Ok(ir), Err(ej)) => Err(format!(
            "interp returned {:?} but jit failed with `{ej}`",
            ir.ret
        )),
        (Err(ei), Ok(jr)) => Err(format!(
            "interp failed with `{ei}` but jit returned {:?}",
            jr.ret
        )),
    }
}

/// Runs `f` natively in instrumented-hotness mode and checks the exact
/// reconciliation invariant: per-opcode-class native execution counts
/// equal the interpreter's [`DynProfile`](snslp_interp::DynProfile)
/// per-class op counts for the same inputs, and the native total equals
/// the interpreter's `dyn_insts`. `decisions` labels the profile's PC
/// ranges with the vectorization decisions that emitted them.
///
/// Returns `Ok(None)` when the invariant is vacuous: the JIT declines
/// the function, the platform has no native execution, or the run traps
/// (a trap aborts mid-block, so block-entry counters legitimately
/// overcount the aborted block's tail; only status-OK activations
/// reconcile exactly).
///
/// # Errors
///
/// Returns a description of the first class whose native and
/// interpreted counts disagree — a lowering that duplicated, dropped,
/// or misclassified an instruction.
pub fn check_hotness(
    f: &Function,
    args: &[ArgSpec],
    model: &CostModel,
    opts: &ExecOptions,
    decisions: BTreeMap<u32, DecisionId>,
) -> Result<Option<HotProfile>, String> {
    let lopts = LowerOptions {
        instrument: true,
        decisions,
    };
    let compiled = match crate::compile_with(f, &lopts) {
        Ok(c) => c,
        Err(JitError::Unsupported { .. }) | Err(JitError::Platform(_)) => return Ok(None),
    };
    let native = match compiled.finalize() {
        Ok(n) => n,
        Err(_) => return Ok(None),
    };

    let (mut mem_jit, values) = materialize_args(args);
    let jit = native.invoke(&values, &mut mem_jit, opts);
    let Ok(jr) = jit else {
        return Ok(None);
    };
    let counts = jr
        .block_counts
        .as_deref()
        .ok_or("instrumented invoke returned no block counters")?;
    let prof = HotProfile::from_counts(f.name(), native.pc_map(), counts);

    let (mut mem_interp, values) = materialize_args(args);
    let interp = run(f, &values, &mut mem_interp, model, opts)
        .map_err(|e| format!("interpreter failed where instrumented jit succeeded: {e}"))?;
    prof.reconcile(&interp.profile)
        .map_err(|e| format!("hotness does not reconcile with DynProfile: {e}"))?;
    if prof.total_ops() != interp.dyn_insts {
        return Err(format!(
            "native executed {} ops total, interpreter counted dyn_insts={}",
            prof.total_ops(),
            interp.dyn_insts
        ));
    }
    Ok(Some(prof))
}
