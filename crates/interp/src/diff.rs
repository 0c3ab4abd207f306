//! Differential testing: run two versions of a function (e.g. scalar
//! original vs vectorized) on identical inputs and compare all observable
//! effects.
//!
//! Because the vectorizer reassociates floating-point expressions under
//! fast-math (exactly as `-ffast-math` allows the paper's LLVM
//! implementation to), float results are compared with a small relative
//! tolerance rather than bit-exactly.

use snslp_cost::CostModel;
use snslp_ir::Function;

use crate::exec::{run, ExecError, ExecOptions, ExecResult};
use crate::memory::Memory;
use crate::value::Value;

/// Describes one argument for [`run_with_args`]: either an array that is
/// materialized in memory and passed as a pointer, or a plain scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// An `f64` array passed by pointer.
    F64Array(Vec<f64>),
    /// An `f32` array passed by pointer.
    F32Array(Vec<f32>),
    /// An `i32` array passed by pointer.
    I32Array(Vec<i32>),
    /// An `i64` array passed by pointer.
    I64Array(Vec<i64>),
    /// A scalar `i64`.
    I64(i64),
    /// A scalar `i32`.
    I32(i32),
    /// A scalar `f64`.
    F64(f64),
    /// A scalar `f32`.
    F32(f32),
}

/// Array contents read back after execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    /// `f64` contents.
    F64(Vec<f64>),
    /// `f32` contents.
    F32(Vec<f32>),
    /// `i32` contents.
    I32(Vec<i32>),
    /// `i64` contents.
    I64(Vec<i64>),
}

/// Result of [`run_with_args`]: the execution result plus the final
/// contents of every array argument (in argument order).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Interpreter result (return value, cycles, dynamic instructions).
    pub exec: ExecResult,
    /// Final contents of each array argument.
    pub arrays: Vec<ArrayData>,
}

/// Parses the `INPUTS:` dialect shared by the `.snir` filecheck fixtures
/// and `snslpc --run`: whitespace-separated tokens, `ty[v,v,...]` for
/// arrays and `ty:v` for scalars, where `ty` is one of `i64`, `i32`,
/// `f64`, `f32` (e.g. `f64[1.5,2.5] i64:3`).
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn parse_inputs_line(spec: &str) -> Result<Vec<ArgSpec>, String> {
    fn scalar<T: std::str::FromStr>(v: &str, tok: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("bad number in input token `{tok}`"))
    }
    fn nums<T: std::str::FromStr>(items: &str, tok: &str) -> Result<Vec<T>, String> {
        items
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("bad number `{v}` in input token `{tok}`"))
            })
            .collect()
    }
    spec.split_whitespace()
        .map(|tok| {
            if let Some((ty, rest)) = tok.split_once('[') {
                let items = rest.trim_end_matches(']');
                match ty {
                    "i64" => Ok(ArgSpec::I64Array(nums(items, tok)?)),
                    "i32" => Ok(ArgSpec::I32Array(nums(items, tok)?)),
                    "f64" => Ok(ArgSpec::F64Array(nums(items, tok)?)),
                    "f32" => Ok(ArgSpec::F32Array(nums(items, tok)?)),
                    other => Err(format!("unknown input array type `{other}`")),
                }
            } else if let Some((ty, v)) = tok.split_once(':') {
                match ty {
                    "i64" => Ok(ArgSpec::I64(scalar(v, tok)?)),
                    "i32" => Ok(ArgSpec::I32(scalar(v, tok)?)),
                    "f64" => Ok(ArgSpec::F64(scalar(v, tok)?)),
                    "f32" => Ok(ArgSpec::F32(scalar(v, tok)?)),
                    other => Err(format!("unknown input scalar type `{other}`")),
                }
            } else {
                Err(format!("bad input token `{tok}`"))
            }
        })
        .collect()
}

/// The arguments `f` runs on in a module whose text is `source`: the
/// module's first `; INPUTS:` comment line, or no arguments when `f`
/// takes none.
///
/// # Errors
///
/// A malformed `; INPUTS:` line, or a missing one when `f` takes
/// parameters.
pub fn module_inputs(source: &str, f: &Function) -> Result<Vec<ArgSpec>, String> {
    let line = source.lines().find_map(|l| {
        l.trim()
            .strip_prefix(';')
            .map(str::trim)
            .and_then(|c| c.strip_prefix("INPUTS:"))
    });
    match line {
        Some(spec) => parse_inputs_line(spec).map_err(|e| format!("bad INPUTS line: {e}")),
        None if f.params().is_empty() => Ok(Vec::new()),
        None => Err(format!(
            "@{} takes {} parameters but the module has no `; INPUTS:` line",
            f.name(),
            f.params().len()
        )),
    }
}

/// Materializes `args` in a fresh memory: arrays are allocated in
/// argument order and passed as [`Value::Ptr`]s, scalars by value. Doing
/// it twice with the same specs yields byte-identical layouts, which is
/// what lets two executions' whole memory images be compared.
pub fn materialize_args(args: &[ArgSpec]) -> (Memory, Vec<Value>) {
    let mut mem = Memory::new();
    let values = args
        .iter()
        .map(|a| match a {
            ArgSpec::F64Array(d) => Value::Ptr(mem.alloc_slice_f64(d)),
            ArgSpec::F32Array(d) => Value::Ptr(mem.alloc_slice_f32(d)),
            ArgSpec::I32Array(d) => Value::Ptr(mem.alloc_slice_i32(d)),
            ArgSpec::I64Array(d) => Value::Ptr(mem.alloc_slice_i64(d)),
            ArgSpec::I64(v) => Value::I64(*v),
            ArgSpec::I32(v) => Value::I32(*v),
            ArgSpec::F64(v) => Value::F64(*v),
            ArgSpec::F32(v) => Value::F32(*v),
        })
        .collect();
    (mem, values)
}

/// Materializes `args` in a fresh memory, runs `f`, and reads the arrays
/// back.
///
/// # Errors
///
/// Propagates any [`ExecError`] from the interpreter.
pub fn run_with_args(
    f: &Function,
    args: &[ArgSpec],
    model: &CostModel,
    opts: &ExecOptions,
) -> Result<RunOutcome, ExecError> {
    let (mut mem, values) = materialize_args(args);
    let exec = run(f, &values, &mut mem, model, opts)?;
    let arrays = args
        .iter()
        .zip(&values)
        .filter_map(|(spec, value)| {
            let &Value::Ptr(base) = value else {
                return None;
            };
            Some(match spec {
                ArgSpec::F64Array(d) => ArrayData::F64(mem.read_slice_f64(base, d.len())),
                ArgSpec::F32Array(d) => ArrayData::F32(mem.read_slice_f32(base, d.len())),
                ArgSpec::I32Array(d) => ArrayData::I32(mem.read_slice_i32(base, d.len())),
                ArgSpec::I64Array(d) => ArrayData::I64(mem.read_slice_i64(base, d.len())),
                _ => unreachable!("only arrays are passed by pointer"),
            })
        })
        .collect();
    Ok(RunOutcome { exec, arrays })
}

fn f64_close(a: f64, b: f64, rel: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_nan() && b.is_nan() {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel * scale
}

/// Compares two outcomes; returns a description of the first mismatch.
///
/// Floats are compared with relative tolerance `1e-9` (`f64`) / `1e-4`
/// (`f32`); integers exactly.
pub fn outcomes_match(a: &RunOutcome, b: &RunOutcome) -> Result<(), String> {
    match (&a.exec.ret, &b.exec.ret) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            let ok = match (x, y) {
                (Value::F64(p), Value::F64(q)) => f64_close(*p, *q, 1e-9),
                (Value::F32(p), Value::F32(q)) => f64_close(f64::from(*p), f64::from(*q), 1e-4),
                _ => x == y,
            };
            if !ok {
                return Err(format!("return values differ: {x} vs {y}"));
            }
        }
        (x, y) => return Err(format!("return presence differs: {x:?} vs {y:?}")),
    }
    if a.arrays.len() != b.arrays.len() {
        return Err("different number of array arguments".into());
    }
    for (i, (x, y)) in a.arrays.iter().zip(&b.arrays).enumerate() {
        let ok = match (x, y) {
            (ArrayData::F64(p), ArrayData::F64(q)) => {
                p.len() == q.len() && p.iter().zip(q).all(|(&u, &v)| f64_close(u, v, 1e-9))
            }
            (ArrayData::F32(p), ArrayData::F32(q)) => {
                p.len() == q.len()
                    && p.iter()
                        .zip(q)
                        .all(|(&u, &v)| f64_close(f64::from(u), f64::from(v), 1e-4))
            }
            (x, y) => x == y,
        };
        if !ok {
            return Err(format!(
                "array argument {i} differs:\n  a = {x:?}\n  b = {y:?}"
            ));
        }
    }
    Ok(())
}

/// Runs `original` and `transformed` on the same inputs and checks they
/// behave identically. Returns both outcomes (for cycle comparisons).
///
/// # Errors
///
/// Returns a description if either execution fails or the results differ.
pub fn check_equivalent(
    original: &Function,
    transformed: &Function,
    args: &[ArgSpec],
    model: &CostModel,
) -> Result<(RunOutcome, RunOutcome), String> {
    let opts = ExecOptions::default();
    let a =
        run_with_args(original, args, model, &opts).map_err(|e| format!("original failed: {e}"))?;
    let b = run_with_args(transformed, args, model, &opts)
        .map_err(|e| format!("transformed failed: {e}"))?;
    outcomes_match(&a, &b)?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_cost::TargetDesc;
    use snslp_ir::{FunctionBuilder, Param, ScalarType, Type};

    fn model() -> CostModel {
        CostModel::new(TargetDesc::sse2_like())
    }

    fn scale_fn(factor: f64) -> Function {
        let mut fb = FunctionBuilder::new(
            "scale",
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
            let c = fb.const_f64(factor);
            let s = fb.mul(v, c);
            fb.store(p, s);
        });
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn inputs_line_round_trips() {
        let args = parse_inputs_line("i64[0,0] f64[1.5,2.5] i64:3 f32:0.5 i32[7] i32:-2").unwrap();
        assert_eq!(
            args,
            vec![
                ArgSpec::I64Array(vec![0, 0]),
                ArgSpec::F64Array(vec![1.5, 2.5]),
                ArgSpec::I64(3),
                ArgSpec::F32(0.5),
                ArgSpec::I32Array(vec![7]),
                ArgSpec::I32(-2),
            ]
        );
        assert!(parse_inputs_line("u8[1]").is_err());
        assert!(parse_inputs_line("i64:x").is_err());
        assert!(parse_inputs_line("naked").is_err());
        assert!(parse_inputs_line("i64[1,zap]").is_err());
        assert!(parse_inputs_line("").unwrap().is_empty());
    }

    #[test]
    fn identical_functions_match() {
        let f = scale_fn(3.0);
        let g = scale_fn(3.0);
        let data: Vec<f64> = (0..16).map(|i| i as f64 * 0.25).collect();
        let args = vec![ArgSpec::F64Array(data), ArgSpec::I64(16)];
        check_equivalent(&f, &g, &args, &model()).unwrap();
    }

    #[test]
    fn different_functions_mismatch() {
        let f = scale_fn(3.0);
        let g = scale_fn(4.0);
        let data: Vec<f64> = (1..9).map(|i| i as f64).collect();
        let args = vec![ArgSpec::F64Array(data), ArgSpec::I64(8)];
        let err = check_equivalent(&f, &g, &args, &model()).unwrap_err();
        assert!(err.contains("array argument 0 differs"));
    }

    #[test]
    fn tolerance_accepts_reassociation_noise() {
        let a = RunOutcome {
            exec: crate::exec::ExecResult {
                function: "t".to_string(),
                ret: Some(Value::F64(0.1 + 0.2)),
                cycles: 0,
                dyn_insts: 0,
                profile: Default::default(),
            },
            arrays: vec![],
        };
        let b = RunOutcome {
            exec: crate::exec::ExecResult {
                function: "t".to_string(),
                ret: Some(Value::F64(0.3)),
                cycles: 99,
                dyn_insts: 5,
                profile: Default::default(),
            },
            arrays: vec![],
        };
        outcomes_match(&a, &b).unwrap();
    }

    #[test]
    fn integer_arrays_compared_exactly() {
        let a = RunOutcome {
            exec: crate::exec::ExecResult {
                function: "t".to_string(),
                ret: None,
                cycles: 0,
                dyn_insts: 0,
                profile: Default::default(),
            },
            arrays: vec![ArrayData::I64(vec![1, 2, 3])],
        };
        let mut b = a.clone();
        outcomes_match(&a, &b).unwrap();
        if let ArrayData::I64(v) = &mut b.arrays[0] {
            v[2] = 4;
        }
        assert!(outcomes_match(&a, &b).is_err());
    }
}
