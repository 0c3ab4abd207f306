//! # snslp-jit
//!
//! Native x86-64 backend: executes committed SN-SLP IR as real SSE2
//! machine code instead of interpreting it, giving the bench harness a
//! wall-clock axis to calibrate the simulated cost model against.
//!
//! The backend is deliberately small and fully self-contained — a
//! hand-rolled assembler ([`asm`]), a slot-based lowering pass
//! ([`lower`]), raw `mmap`/`mprotect` executable memory ([`exec_mem`])
//! and a C-ABI runtime contract ([`runtime`]). There is no external
//! assembler, linker, or crates.io dependency.
//!
//! ## Fallback contract
//!
//! [`compile`] is all-or-nothing per function: either every instruction
//! lowers and the produced code is bit-compatible with the interpreter
//! (same traps, same fuel accounting, same float semantics), or the
//! function is rejected with [`JitError::Unsupported`] and the caller
//! runs the interpreter instead. There is no partial native execution.
//! The [`differential`] module checks that contract by running both
//! backends on identical inputs and comparing every observable
//! bit-exactly.
//!
//! ## Example
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
//! let compiled = snslp_jit::compile(&f).expect("scalar f64 code lowers");
//! assert!(compiled.stats().code_bytes > 0);
//! // Native execution only on x86-64 Linux; lowering works everywhere.
//! if snslp_jit::native_supported() {
//!     let native = compiled.finalize().unwrap();
//!     let mut mem = Memory::new();
//!     let base = mem.alloc_slice_f64(&[1.0, 2.0]);
//!     native
//!         .invoke(&[Value::Ptr(base)], &mut mem, &ExecOptions::default())
//!         .unwrap();
//!     assert_eq!(mem.read_slice_f64(base, 1), vec![3.0]);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod differential;
pub mod exec_mem;
pub mod hot;
pub mod lower;
pub mod pcmap;
pub mod perf;
pub mod runtime;
pub mod sampler;

use std::fmt;
use std::str::FromStr;

use snslp_interp::{ExecError, ExecOptions, Memory, Trap, Value};
use snslp_ir::{Function, InstId, ScalarType, Type};
use snslp_trace::{add, bump, Counter, DecisionId, ReasonCode, Remark, Span};

use exec_mem::ExecMem;
use runtime::{status, JitCtx, RET_BUF_BYTES};

pub use differential::{check_backends, check_hotness, BackendDiff};
pub use hot::{HotMode, HotProfile, InstHot, StubHot};
pub use lower::{LowerError, LowerOptions};
pub use pcmap::{PcKind, PcMap, PcRange};
/// Re-exported for callers that rebuild a run's inputs for repeated
/// native invocations.
pub use snslp_interp::materialize_args;

/// Which engine executes committed IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The reference interpreter (always available).
    #[default]
    Interp,
    /// The native x86-64 JIT, falling back per function to the
    /// interpreter on [`JitError::Unsupported`].
    Jit,
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(Backend::Interp),
            "jit" => Ok(Backend::Jit),
            other => Err(format!(
                "unknown backend `{other}` (expected `interp` or `jit`)"
            )),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Interp => "interp",
            Backend::Jit => "jit",
        })
    }
}

/// Why native compilation or execution was declined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// The function contains a construct the lowering pass does not
    /// handle. This is the *expected* per-function fallback path.
    Unsupported {
        /// Which construct, e.g. `unsupported cast fptosi`.
        reason: String,
    },
    /// The host cannot execute the emitted code (non-x86-64, non-Linux,
    /// or `mmap`/`mprotect` refused).
    Platform(String),
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Unsupported { reason } => write!(f, "unsupported by jit: {reason}"),
            JitError::Platform(reason) => write!(f, "native execution unavailable: {reason}"),
        }
    }
}

impl std::error::Error for JitError {}

/// Per-function code-size statistics from a successful compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitStats {
    /// Bytes of machine code emitted.
    pub code_bytes: usize,
    /// IR instructions lowered (excluding phis, which lower to edge
    /// moves on the jump sites).
    pub ops_lowered: usize,
}

/// Whether this host can execute JIT-compiled code natively.
///
/// Lowering ([`compile`]) works on every platform — only
/// [`CompiledFunction::finalize`] needs x86-64 Linux.
pub fn native_supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// A remark explaining why `function` fell back to the interpreter.
/// Emitted by [`compile`] on the remarks facet; exposed so drivers can
/// also attach it to their own reports.
///
/// Instruction-anchored failures carry the first unsupported opcode and
/// its `InstId` in the site/inst/detail fields, so `NotCovered` causes
/// are greppable from the remark stream alone; pre-flight shape
/// rejections stay anchored to the entry block.
pub fn fallback_remark(function: &Function, err: &LowerError) -> Remark {
    let entry = &function.block(function.entry()).name;
    let (block, inst) = match err.inst {
        Some(i) => {
            let id = InstId(i);
            let block = function
                .block_ids()
                .find(|&b| function.block(b).insts().contains(&id))
                .map(|b| function.block(b).name.clone())
                .unwrap_or_else(|| entry.clone());
            (block, i)
        }
        None => (entry.clone(), 0),
    };
    Remark {
        pass: "jit".to_string(),
        function: format!("@{}", function.name()),
        block: block.clone(),
        site: format!("%{inst}"),
        inst,
        decision: DecisionId::new(function.name(), &block, 0, inst),
        seed_kind: "function".to_string(),
        width: 0,
        vectorized: false,
        reason: ReasonCode::JitFallback,
        cost: None,
        detail: err.to_string(),
    }
}

/// Lowers `f` to x86-64 SSE2 machine code.
///
/// Pure code generation: works on every host platform and never maps
/// executable memory (that is [`CompiledFunction::finalize`]). Bumps the
/// `jit_bytes_emitted` / `jit_ops_lowered` metrics on success and
/// `jit_fallbacks` (plus a [`ReasonCode::JitFallback`] remark) on
/// rejection.
///
/// # Errors
///
/// [`JitError::Unsupported`] when any instruction fails to lower; in
/// that case nothing was emitted and the caller should interpret.
pub fn compile(f: &Function) -> Result<CompiledFunction, JitError> {
    compile_with(f, &LowerOptions::default())
}

/// [`compile`] under explicit [`LowerOptions`]: hotness instrumentation
/// and decision labels for the PC→IR map.
///
/// # Errors
///
/// Same contract as [`compile`].
pub fn compile_with(f: &Function, opts: &LowerOptions) -> Result<CompiledFunction, JitError> {
    let span = Span::enter("jit.compile");
    span.note("function", f.name());
    match lower::lower_with(f, opts) {
        Ok(lowered) => {
            add(Counter::JitBytesEmitted, lowered.code.len() as u64);
            add(Counter::JitOpsLowered, lowered.ops_lowered as u64);
            span.note("bytes", lowered.code.len() as u64);
            span.note("ops", lowered.ops_lowered as u64);
            Ok(CompiledFunction {
                name: f.name().to_string(),
                param_tys: f.params().iter().map(|p| p.ty).collect(),
                ret_ty: f.ret_ty(),
                stats: JitStats {
                    code_bytes: lowered.code.len(),
                    ops_lowered: lowered.ops_lowered,
                },
                code: lowered.code,
                dump: lowered.dump,
                pc_map: lowered.pc_map,
                num_blocks: lowered.num_blocks,
                instrumented: lowered.instrumented,
            })
        }
        Err(err) => {
            bump(Counter::JitFallbacks);
            let reason = err.to_string();
            span.note("fallback", reason.as_str());
            fallback_remark(f, &err).emit();
            Err(JitError::Unsupported { reason })
        }
    }
}

/// Machine code for one function, not yet mapped executable.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    name: String,
    param_tys: Vec<Type>,
    ret_ty: Type,
    code: Vec<u8>,
    dump: String,
    stats: JitStats,
    pc_map: PcMap,
    num_blocks: usize,
    instrumented: bool,
}

impl CompiledFunction {
    /// Name of the source function.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw emitted machine code.
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Deterministic, byte-stable disassembly-style text dump of the
    /// lowering (no absolute addresses), suitable for golden tests.
    pub fn dump(&self) -> &str {
        &self.dump
    }

    /// Code-size statistics.
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// The PC→IR map partitioning [`Self::code`] exactly.
    pub fn pc_map(&self) -> &PcMap {
        &self.pc_map
    }

    /// Number of basic blocks (and instrumented counter slots).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Whether the code was lowered with hotness instrumentation.
    pub fn instrumented(&self) -> bool {
        self.instrumented
    }

    /// Maps the code into executable memory.
    ///
    /// # Errors
    ///
    /// [`JitError::Platform`] off x86-64 Linux or when the kernel
    /// refuses the mapping.
    pub fn finalize(self) -> Result<JitFunction, JitError> {
        let mem = ExecMem::new(&self.code).map_err(|e| JitError::Platform(e.0))?;
        Ok(JitFunction {
            name: self.name,
            param_tys: self.param_tys,
            ret_ty: self.ret_ty,
            stats: self.stats,
            pc_map: self.pc_map,
            num_blocks: self.num_blocks,
            instrumented: self.instrumented,
            mem,
        })
    }
}

/// Result of one native invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeRun {
    /// The returned value, if the function returns one. Decoded from
    /// the runtime return buffer with the same byte layout the
    /// interpreter uses for memory, so bit patterns match exactly.
    pub ret: Option<Value>,
    /// Fuel left after execution; `opts.fuel - fuel_remaining` is the
    /// dynamic instruction count, matching the interpreter's
    /// `dyn_insts`.
    pub fuel_remaining: u64,
    /// Per-block execution counters from an instrumented activation
    /// (`None` when the function was not lowered with instrumentation).
    pub block_counts: Option<Vec<u64>>,
}

/// An executable, mapped function. Create via
/// [`CompiledFunction::finalize`].
#[derive(Debug)]
pub struct JitFunction {
    name: String,
    param_tys: Vec<Type>,
    ret_ty: Type,
    stats: JitStats,
    pc_map: PcMap,
    num_blocks: usize,
    instrumented: bool,
    mem: ExecMem,
}

impl JitFunction {
    /// Name of the source function.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Code-size statistics carried over from compilation.
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// The PC→IR map carried over from compilation.
    pub fn pc_map(&self) -> &PcMap {
        &self.pc_map
    }

    /// Number of basic blocks (and instrumented counter slots).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Whether the code bumps per-block hotness counters.
    pub fn instrumented(&self) -> bool {
        self.instrumented
    }

    /// Host address of the first code byte — the base sampled RIPs and
    /// `perf` map entries are resolved against.
    pub fn code_base(&self) -> u64 {
        self.mem.entry() as u64
    }

    /// Mapped code size in bytes.
    pub fn code_len(&self) -> usize {
        self.stats.code_bytes
    }

    /// The mapped machine-code bytes — what the `perf` export records.
    pub fn code(&self) -> &[u8] {
        // The region is mapped readable+executable and lives as long as
        // `self.mem`; reading it back is safe.
        unsafe { std::slice::from_raw_parts(self.mem.entry(), self.stats.code_bytes) }
    }

    /// Packs `v` into the `u64` argument-array slot the prologue
    /// expects. 4-byte types occupy the low 32 bits (the prologue
    /// spills exactly the low 4 bytes for them).
    fn pack_arg(v: &Value) -> u64 {
        match v {
            Value::I32(x) => (i64::from(*x)) as u64,
            Value::I64(x) => *x as u64,
            Value::F32(x) => u64::from(x.to_bits()),
            Value::F64(x) => x.to_bits(),
            Value::Ptr(p) => *p,
            Value::Vector(_) => unreachable!("vector params rejected at compile time"),
        }
    }

    /// Executes the function natively against `mem`.
    ///
    /// Argument validation, trap kinds, and fuel accounting mirror
    /// [`snslp_interp::run`] exactly, so callers can swap backends
    /// without changing error handling.
    ///
    /// # Errors
    ///
    /// `BadArguments` on arity/type mismatch (same messages as the
    /// interpreter) and `Trap` for out-of-bounds accesses, division by
    /// zero, and fuel exhaustion.
    pub fn invoke(
        &self,
        args: &[Value],
        mem: &mut Memory,
        opts: &ExecOptions,
    ) -> Result<NativeRun, ExecError> {
        if args.len() != self.param_tys.len() {
            return Err(ExecError::BadArguments(format!(
                "expected {} arguments, got {}",
                self.param_tys.len(),
                args.len()
            )));
        }
        let mut packed = Vec::with_capacity(args.len());
        for (i, (v, want)) in args.iter().zip(&self.param_tys).enumerate() {
            let ok = match (want, v) {
                (Type::Ptr, Value::Ptr(_)) => true,
                (Type::Scalar(st), v) => v.scalar_type() == Some(*st),
                _ => false,
            };
            if !ok {
                return Err(ExecError::BadArguments(format!(
                    "argument {i} has wrong type for {want}"
                )));
            }
            packed.push(Self::pack_arg(v));
        }

        // Instrumented code bumps `hot_counts[block]` on every block
        // entry; give it one zeroed slot per block. The buffer outlives
        // the call and is returned with the run.
        let mut counters = if self.instrumented {
            vec![0u64; self.num_blocks]
        } else {
            Vec::new()
        };
        let bytes = mem.as_mut_slice();
        let mut ctx = JitCtx {
            mem_base: bytes.as_mut_ptr(),
            mem_size: bytes.len() as u64,
            fuel: opts.fuel,
            trap_addr: 0,
            ret: [0; RET_BUF_BYTES],
            hot_counts: if self.instrumented {
                counters.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
        };
        // SAFETY: `entry` points at code emitted by `lower::lower` for a
        // function whose params match `param_tys` (validated above). The
        // code only dereferences `ctx`, the packed argument array,
        // `mem_base[0..mem_size)` after its own bounds checks, and (when
        // instrumented) the `num_blocks`-slot counter buffer; `bytes` and
        // `counters` stay borrowed for the whole call.
        let status = unsafe {
            let entry: extern "C" fn(*mut JitCtx, *const u64) -> i64 =
                std::mem::transmute(self.mem.entry());
            entry(&mut ctx, packed.as_ptr())
        };
        match status {
            status::OK => Ok(NativeRun {
                ret: self.decode_ret(&ctx.ret),
                fuel_remaining: ctx.fuel,
                block_counts: self.instrumented.then_some(counters),
            }),
            status::OOB => Err(Trap::OutOfBounds(ctx.trap_addr).into()),
            status::DIV_ZERO => Err(Trap::DivisionByZero.into()),
            status::FUEL => Err(Trap::FuelExhausted.into()),
            other => Err(ExecError::BadArguments(format!(
                "jit returned unknown status {other}"
            ))),
        }
    }

    /// Decodes the return buffer into a [`Value`] per the declared
    /// return type. Lane layout matches guest memory (packed,
    /// little-endian), which is exactly how `Ret` stored it.
    fn decode_ret(&self, buf: &[u8; RET_BUF_BYTES]) -> Option<Value> {
        fn scalar(st: ScalarType, b: &[u8]) -> Value {
            match st {
                ScalarType::I32 => Value::I32(i32::from_le_bytes(b[..4].try_into().unwrap())),
                ScalarType::I64 => Value::I64(i64::from_le_bytes(b[..8].try_into().unwrap())),
                ScalarType::F32 => Value::F32(f32::from_le_bytes(b[..4].try_into().unwrap())),
                ScalarType::F64 => Value::F64(f64::from_le_bytes(b[..8].try_into().unwrap())),
            }
        }
        match self.ret_ty {
            Type::Void => None,
            Type::Scalar(st) => Some(scalar(st, buf)),
            Type::Ptr => Some(Value::Ptr(u64::from_le_bytes(buf[..8].try_into().unwrap()))),
            Type::Vector(vt) => {
                let step = vt.elem.size_bytes() as usize;
                Some(Value::Vector(
                    (0..vt.lanes as usize)
                        .map(|i| scalar(vt.elem, &buf[i * step..]))
                        .collect(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_cost::{CostModel, TargetDesc};
    use snslp_interp::ArgSpec;
    use snslp_ir::{
        BinOp, CastKind, CmpPred, FunctionBuilder, Param, ScalarType, Type, UnOp, VectorType,
    };

    fn model() -> CostModel {
        CostModel::new(TargetDesc::sse2_like())
    }

    fn assert_agree(f: &snslp_ir::Function, args: &[ArgSpec]) {
        let opts = ExecOptions::default();
        match check_backends(f, args, &model(), &opts) {
            Ok(BackendDiff::Agreed) => {}
            Ok(BackendDiff::NotCovered { reason }) => {
                if native_supported() {
                    panic!("`{}` unexpectedly not covered: {reason}", f.name());
                }
            }
            Err(div) => panic!("`{}` diverged: {div}", f.name()),
        }
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("interp".parse::<Backend>().unwrap(), Backend::Interp);
        assert_eq!("jit".parse::<Backend>().unwrap(), Backend::Jit);
        assert!("sse".parse::<Backend>().is_err());
        assert_eq!(Backend::Jit.to_string(), "jit");
        assert_eq!(Backend::default(), Backend::Interp);
    }

    #[test]
    fn compile_produces_code_and_dump_portably() {
        let mut fb = FunctionBuilder::new("axpy1", vec![Param::noalias_ptr("a")], Type::Void);
        let a = fb.func().param(0);
        let x = fb.load(ScalarType::F64, a);
        let y = fb.mul(x, x);
        fb.store(a, y);
        fb.ret(None);
        let f = fb.finish();

        let c = compile(&f).expect("lowers");
        assert!(c.stats().code_bytes > 0);
        assert!(c.stats().ops_lowered >= 4);
        assert_eq!(c.code().len(), c.stats().code_bytes);
        assert!(c.dump().starts_with("jit `axpy1` isa=sse2"));
        assert!(c.dump().ends_with(&format!(
            "end: code={}B ops={}\n",
            c.stats().code_bytes,
            c.stats().ops_lowered
        )));
    }

    #[test]
    fn compile_bumps_metrics_and_fallback_emits_remark() {
        use snslp_trace::MetricsSnapshot;

        let mut fb = FunctionBuilder::new("m", vec![Param::noalias_ptr("a")], Type::Void);
        let a = fb.func().param(0);
        let x = fb.load(ScalarType::F64, a);
        fb.store(a, x);
        fb.ret(None);
        let f = fb.finish();

        let before = MetricsSnapshot::current();
        compile(&f).expect("lowers");
        let delta = MetricsSnapshot::current().delta_since(&before);
        assert!(delta.get(Counter::JitBytesEmitted) > 0);
        assert!(delta.get(Counter::JitOpsLowered) >= 3);
        assert_eq!(delta.get(Counter::JitFallbacks), 0);

        // fptosi is deliberately unsupported: it must fall back, bump the
        // counter, and emit a `jit-fallback` remark on the remarks facet.
        let mut fb = FunctionBuilder::new(
            "fb",
            vec![Param::new("x", Type::scalar(ScalarType::F64))],
            Type::scalar(ScalarType::I64),
        );
        let x = fb.func().param(0);
        let i = fb.cast(CastKind::Fptosi, ScalarType::I64, x);
        fb.ret(Some(i));
        let f = fb.finish();

        let before = MetricsSnapshot::current();
        let lines = snslp_trace::capture(snslp_trace::Facet::Remarks as u32, || {
            let err = compile(&f).unwrap_err();
            assert!(matches!(err, JitError::Unsupported { .. }));
        });
        let delta = MetricsSnapshot::current().delta_since(&before);
        assert_eq!(delta.get(Counter::JitFallbacks), 1);
        assert!(
            lines.iter().any(|l| l.contains("reason=jit-fallback")),
            "no fallback remark in {lines:?}"
        );
    }

    #[test]
    fn invoke_validates_arguments_like_the_interpreter() {
        if !native_supported() {
            return;
        }
        let mut fb = FunctionBuilder::new(
            "want_i64",
            vec![Param::new("n", Type::scalar(ScalarType::I64))],
            Type::scalar(ScalarType::I64),
        );
        let n = fb.func().param(0);
        fb.ret(Some(n));
        let f = fb.finish();
        let native = compile(&f).unwrap().finalize().unwrap();
        let mut mem = Memory::new();
        let opts = ExecOptions::default();

        let err = native.invoke(&[], &mut mem, &opts).unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(ref m) if m.contains("expected 1")));
        let err = native
            .invoke(&[Value::F64(1.0)], &mut mem, &opts)
            .unwrap_err();
        assert!(matches!(err, ExecError::BadArguments(ref m) if m.contains("argument 0")));
        let run = native.invoke(&[Value::I64(-5)], &mut mem, &opts).unwrap();
        assert_eq!(run.ret, Some(Value::I64(-5)));
    }

    #[test]
    fn scalar_int_arithmetic_matches_interpreter() {
        // One store per op keeps every intermediate observable in memory.
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Min,
            BinOp::Max,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
        ];
        for st in [ScalarType::I32, ScalarType::I64] {
            let mut fb = FunctionBuilder::new(
                "intops",
                vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
                Type::Void,
            );
            let a = fb.func().param(0);
            let out = fb.func().param(1);
            let sz = i64::from(st.size_bytes());
            let x = fb.load(st, a);
            let p1 = fb.ptradd_const(a, sz);
            let y = fb.load(st, p1);
            for (i, op) in ops.iter().enumerate() {
                let r = fb.binary(*op, x, y);
                let q = fb.ptradd_const(out, sz * i as i64);
                fb.store(q, r);
            }
            fb.ret(None);
            let f = fb.finish();
            let pairs: [(i64, i64); 6] = [
                (7, 3),
                (-7, 3),
                (-1, 64),
                (i64::from(i32::MIN), -1),
                (i64::MIN, -1),
                (0, -9),
            ];
            for (x, y) in pairs {
                let args = match st {
                    ScalarType::I32 => vec![
                        ArgSpec::I32Array(vec![x as i32, y as i32]),
                        ArgSpec::I32Array(vec![0; ops.len()]),
                    ],
                    _ => vec![
                        ArgSpec::I64Array(vec![x, y]),
                        ArgSpec::I64Array(vec![0; ops.len()]),
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn division_by_zero_traps_identically() {
        let mut fb = FunctionBuilder::new(
            "divz",
            vec![
                Param::new("x", Type::scalar(ScalarType::I64)),
                Param::new("y", Type::scalar(ScalarType::I64)),
            ],
            Type::scalar(ScalarType::I64),
        );
        let x = fb.func().param(0);
        let y = fb.func().param(1);
        let d = fb.binary(BinOp::Div, x, y);
        fb.ret(Some(d));
        let f = fb.finish();
        assert_agree(&f, &[ArgSpec::I64(10), ArgSpec::I64(0)]);
        assert_agree(&f, &[ArgSpec::I64(i64::MIN), ArgSpec::I64(-1)]);
        assert_agree(&f, &[ArgSpec::I64(10), ArgSpec::I64(3)]);
    }

    #[test]
    fn scalar_float_ops_match_bit_exactly() {
        for st in [ScalarType::F32, ScalarType::F64] {
            let mut fb = FunctionBuilder::new(
                "fops",
                vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
                Type::Void,
            );
            let a = fb.func().param(0);
            let out = fb.func().param(1);
            let sz = i64::from(st.size_bytes());
            let x = fb.load(st, a);
            let p1 = fb.ptradd_const(a, sz);
            let y = fb.load(st, p1);
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Min,
                BinOp::Max,
                BinOp::Rem,
            ];
            for (i, op) in ops.iter().enumerate() {
                let r = fb.binary(*op, x, y);
                let q = fb.ptradd_const(out, sz * i as i64);
                fb.store(q, r);
            }
            let neg = fb.unary(UnOp::Neg, x);
            let abs = fb.unary(UnOp::Abs, y);
            let sqrt = fb.unary(UnOp::Sqrt, x);
            for (i, v) in [neg, abs, sqrt].into_iter().enumerate() {
                let q = fb.ptradd_const(out, sz * (ops.len() + i) as i64);
                fb.store(q, v);
            }
            fb.ret(None);
            let f = fb.finish();
            let cases: [(f64, f64); 6] = [
                (1.5, -2.25),
                (0.0, -0.0),
                (f64::NAN, 1.0),
                (1.0, f64::NAN),
                (f64::INFINITY, -3.0),
                (-4.0, 0.0),
            ];
            for (x, y) in cases {
                let args = match st {
                    ScalarType::F32 => vec![
                        ArgSpec::F32Array(vec![x as f32, y as f32]),
                        ArgSpec::F32Array(vec![0.0; 10]),
                    ],
                    _ => vec![
                        ArgSpec::F64Array(vec![x, y]),
                        ArgSpec::F64Array(vec![0.0; 10]),
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn comparisons_and_select_match() {
        for st in [ScalarType::I64, ScalarType::F64] {
            let mut fb = FunctionBuilder::new(
                "cmps",
                vec![Param::noalias_ptr("a"), Param::noalias_ptr("out")],
                Type::Void,
            );
            let a = fb.func().param(0);
            let out = fb.func().param(1);
            let x = fb.load(st, a);
            let p1 = fb.ptradd_const(a, 8);
            let y = fb.load(st, p1);
            let preds = [
                CmpPred::Eq,
                CmpPred::Ne,
                CmpPred::Lt,
                CmpPred::Le,
                CmpPred::Gt,
                CmpPred::Ge,
            ];
            for (i, pred) in preds.iter().enumerate() {
                let c = fb.cmp(*pred, x, y);
                let sel = fb.select(c, x, y);
                let q = fb.ptradd_const(out, 4 * i as i64);
                fb.store(q, c);
                let q2 = fb.ptradd_const(out, 32 + 8 * i as i64);
                fb.store(q2, sel);
            }
            fb.ret(None);
            let f = fb.finish();
            let cases: [(f64, f64); 4] = [(1.0, 2.0), (2.0, 2.0), (f64::NAN, 2.0), (-1.0, -7.0)];
            for (x, y) in cases {
                let args = match st {
                    ScalarType::I64 => vec![
                        ArgSpec::I64Array(vec![x as i64, y as i64]),
                        ArgSpec::I64Array(vec![0; 16]),
                    ],
                    _ => vec![
                        ArgSpec::F64Array(vec![x, y]),
                        ArgSpec::F64Array(vec![0.0; 16]),
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn casts_match_including_double_rounding() {
        let mut fb = FunctionBuilder::new(
            "casts",
            vec![Param::noalias_ptr("n"), Param::noalias_ptr("out")],
            Type::Void,
        );
        let np = fb.func().param(0);
        let out = fb.func().param(1);
        let n = fb.load(ScalarType::I64, np);
        let d = fb.cast(CastKind::Sitofp, ScalarType::F64, n);
        let s = fb.cast(CastKind::Sitofp, ScalarType::F32, n);
        let w = fb.cast(CastKind::Fpext, ScalarType::F64, s);
        let t = fb.cast(CastKind::Fptrunc, ScalarType::F32, d);
        let n32 = fb.cast(CastKind::Trunc, ScalarType::I32, n);
        let n64 = fb.cast(CastKind::Sext, ScalarType::I64, n32);
        fb.store(out, d);
        let q = fb.ptradd_const(out, 8);
        fb.store(q, w);
        let q = fb.ptradd_const(out, 16);
        fb.store(q, t);
        let q = fb.ptradd_const(out, 24);
        fb.store(q, n64);
        fb.ret(None);
        let f = fb.finish();
        // 1<<53 + 1 and (1<<24)+1 exercise rounding in both widths.
        for n in [0, -1, 42, (1 << 53) + 1, (1 << 24) + 1, i64::MIN] {
            assert_agree(
                &f,
                &[ArgSpec::I64Array(vec![n]), ArgSpec::F64Array(vec![0.0; 4])],
            );
        }
    }

    #[test]
    fn loops_phis_and_fuel_match() {
        // out[0] += a[i] over n elements, returning the total: exercises
        // phis, branches, and fuel accounting.
        let mut fb = FunctionBuilder::new(
            "sum",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("out"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::scalar(ScalarType::F64),
        );
        let a = fb.func().param(0);
        let out = fb.func().param(1);
        let n = fb.func().param(2);
        fb.counted_loop(n, |fb, i| {
            let eight = fb.const_i64(8);
            let off = fb.mul(i, eight);
            let p = fb.ptradd(a, off);
            let x = fb.load(ScalarType::F64, p);
            let acc = fb.load(ScalarType::F64, out);
            let s = fb.add(acc, x);
            fb.store(out, s);
        });
        let total = fb.load(ScalarType::F64, out);
        fb.ret(Some(total));
        let f = fb.finish();

        let data: Vec<f64> = (0..37).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let args = |d: Vec<f64>| {
            vec![
                ArgSpec::F64Array(d),
                ArgSpec::F64Array(vec![0.0]),
                ArgSpec::I64(37),
            ]
        };
        assert_agree(&f, &args(data.clone()));

        // Tight fuel: both backends must trap FuelExhausted at the same
        // instruction, leaving identical memory.
        let opts = ExecOptions { fuel: 25 };
        match check_backends(&f, &args(data), &model(), &opts) {
            Ok(BackendDiff::Agreed) => {}
            Ok(BackendDiff::NotCovered { reason }) => {
                assert!(!native_supported(), "not covered: {reason}");
            }
            Err(div) => panic!("fuel divergence: {div}"),
        }
    }

    #[test]
    fn out_of_bounds_traps_identically() {
        let mut fb = FunctionBuilder::new(
            "oob",
            vec![
                Param::noalias_ptr("a"),
                Param::new("i", Type::scalar(ScalarType::I64)),
            ],
            Type::scalar(ScalarType::F64),
        );
        let a = fb.func().param(0);
        let i = fb.func().param(1);
        let eight = fb.const_i64(8);
        let off = fb.mul(i, eight);
        let p = fb.ptradd(a, off);
        let x = fb.load(ScalarType::F64, p);
        fb.ret(Some(x));
        let f = fb.finish();
        for i in [0i64, 3, 4, 1 << 40, -1] {
            assert_agree(&f, &[ArgSpec::F64Array(vec![1.0; 4]), ArgSpec::I64(i)]);
        }
    }

    #[test]
    fn vector_ops_match_including_packed_path() {
        // b[0..2] = a[0..2] * a[2..4] + splat(k), then a shuffled copy —
        // covers the packed SSE path, splat, buildvector, shuffle,
        // extract/insert.
        let mut fb = FunctionBuilder::new(
            "vec",
            vec![
                Param::noalias_ptr("a"),
                Param::noalias_ptr("b"),
                Param::new("k", Type::scalar(ScalarType::F64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let k = fb.func().param(2);
        let vt = VectorType {
            elem: ScalarType::F64,
            lanes: 2,
        };
        let lo = fb.load_vector(vt, a);
        let p2 = fb.ptradd_const(a, 16);
        let hi = fb.load_vector(vt, p2);
        let prod = fb.mul(lo, hi);
        let ks = fb.splat(k, 2);
        let sum = fb.add(prod, ks);
        fb.store(b, sum);
        let shuf = fb.shuffle(lo, hi, vec![3, 0]);
        let e0 = fb.extract(prod, 1);
        let e1 = fb.extract(sum, 0);
        let bv = fb.build_vector(vec![e0, e1]);
        let ins = fb.insert(shuf, e0, 0);
        let q = fb.ptradd_const(b, 16);
        fb.store(q, ins);
        let q2 = fb.ptradd_const(b, 32);
        fb.store(q2, bv);
        fb.ret(None);
        let f = fb.finish();
        assert_agree(
            &f,
            &[
                ArgSpec::F64Array(vec![1.5, -2.0, 3.0, 0.25]),
                ArgSpec::F64Array(vec![0.0; 6]),
                ArgSpec::F64(10.0),
            ],
        );
    }

    /// A function over noalias pointers `a`, `b`, `c` and `out` that
    /// stores each value `body` returns to its own 16-byte row of `out`,
    /// so every result is observable in memory.
    fn rows_fn(
        name: &str,
        body: impl FnOnce(&mut FunctionBuilder, [InstId; 3]) -> Vec<InstId>,
    ) -> snslp_ir::Function {
        let params = ["a", "b", "c", "out"].map(Param::noalias_ptr).to_vec();
        let mut fb = FunctionBuilder::new(name, params, Type::Void);
        let ins = [0, 1, 2].map(|i| fb.func().param(i));
        let out = fb.func().param(3);
        let vals = body(&mut fb, ins);
        for (i, v) in vals.into_iter().enumerate() {
            let q = fb.ptradd_const(out, 16 * i as i64);
            fb.store(q, v);
        }
        fb.ret(None);
        fb.finish()
    }

    /// Asserts that every dump line of each instruction in `insts`
    /// (`binary.add i32x4`, `select f64x2`, ...) is the packed strategy.
    fn assert_packed(f: &snslp_ir::Function, insts: &[String]) {
        let c = compile(f).expect("lowers");
        for inst in insts {
            let lines: Vec<&str> = c
                .dump()
                .lines()
                .filter(|l| l.contains(&format!(" {inst} = ")))
                .collect();
            assert!(!lines.is_empty(), "no `{inst}` line in\n{}", c.dump());
            for line in lines {
                assert!(line.contains(" = packed x"), "not packed: {line}");
            }
        }
    }

    #[test]
    fn packed_int_binops_wrap_like_the_interpreter() {
        let ops = [BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor];
        for st in [ScalarType::I32, ScalarType::I64] {
            let vt = VectorType::new(st, 16 / st.size_bytes() as u8);
            let f = rows_fn("intvec", |fb, [a, b, _]| {
                let (x, y) = (fb.load_vector(vt, a), fb.load_vector(vt, b));
                ops.iter().map(|&op| fb.binary(op, x, y)).collect()
            });
            assert_packed(&f, &ops.map(|op| format!("binary.{op} {vt}")));
            // Over the rotations every edge value meets every other one
            // in some lane (of both i64x2 halves): MIN - 1, MAX + 1 and
            // MIN - MAX wrap.
            let vals = [i64::MIN, i64::MAX, -1, 0];
            for (s, r) in (0..4).flat_map(|r| [(0, r), (2, r)]) {
                let x: Vec<i64> = (0..4).map(|k| vals[(k + s) % 4]).collect();
                let y: Vec<i64> = (0..4).map(|k| vals[(k + s + r) % 4]).collect();
                let args = match st {
                    ScalarType::I32 => {
                        let narrow = |v: &[i64]| {
                            v.iter()
                                .map(|&n| n.clamp(i32::MIN.into(), i32::MAX.into()) as i32)
                                .collect()
                        };
                        vec![
                            ArgSpec::I32Array(narrow(&x)),
                            ArgSpec::I32Array(narrow(&y)),
                            ArgSpec::I32Array(vec![0; 4]),
                            ArgSpec::I32Array(vec![0; 4 * ops.len()]),
                        ]
                    }
                    _ => vec![
                        ArgSpec::I64Array(x),
                        ArgSpec::I64Array(y),
                        ArgSpec::I64Array(vec![0; 2]),
                        ArgSpec::I64Array(vec![0; 2 * ops.len()]),
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn packed_sitofp_rounds_like_the_interpreter() {
        let vt = VectorType::new(ScalarType::I32, 4);
        let f = rows_fn("cvt", |fb, [a, _, _]| {
            let x = fb.load_vector(vt, a);
            vec![fb.cast(CastKind::Sitofp, ScalarType::F32, x)]
        });
        assert_packed(&f, &["cast.sitofp i32x4->f32x4".to_string()]);
        // ±(2^24 + 1) and the i32 extremes are not representable in f32
        // and round to nearest-even.
        let big = (1 << 24) + 1;
        for lanes in [[0, -1, big, -big], [i32::MIN, i32::MAX, big + 2, 1]] {
            assert_agree(
                &f,
                &[
                    ArgSpec::I32Array(lanes.to_vec()),
                    ArgSpec::I32Array(vec![0; 4]),
                    ArgSpec::I32Array(vec![0; 4]),
                    ArgSpec::F32Array(vec![0.0; 4]),
                ],
            );
        }
    }

    #[test]
    fn packed_float_cmp_matches_on_nan_zeros_and_infinities() {
        let preds = [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Lt,
            CmpPred::Le,
            CmpPred::Gt,
            CmpPred::Ge,
        ];
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let pairs = [
            (nan, 1.0),
            (1.0, nan),
            (nan, nan),
            (0.0, -0.0),
            (-0.0, 0.0),
            (inf, -inf),
            (-inf, inf),
            (inf, inf),
            (2.0, 2.0),
            (1.0, 2.0),
            (2.0, 1.0),
            (-inf, -inf),
        ];
        for st in [ScalarType::F32, ScalarType::F64] {
            let lanes = 16 / st.size_bytes() as usize;
            let vt = VectorType::new(st, lanes as u8);
            let f = rows_fn("fcmp", |fb, [a, b, _]| {
                let (x, y) = (fb.load_vector(vt, a), fb.load_vector(vt, b));
                preds.iter().map(|&p| fb.cmp(p, x, y)).collect()
            });
            assert_packed(&f, &preds.map(|p| format!("cmp.{p} {vt}")));
            for chunk in pairs.chunks(lanes) {
                let (x, y): (Vec<f64>, Vec<f64>) = chunk.iter().copied().unzip();
                let out = ArgSpec::I32Array(vec![-7; 4 * preds.len()]);
                let args = match st {
                    ScalarType::F32 => {
                        let narrow = |v: Vec<f64>| v.into_iter().map(|d| d as f32).collect();
                        vec![
                            ArgSpec::F32Array(narrow(x)),
                            ArgSpec::F32Array(narrow(y)),
                            ArgSpec::F32Array(vec![0.0; 4]),
                            out,
                        ]
                    }
                    _ => vec![
                        ArgSpec::F64Array(x),
                        ArgSpec::F64Array(y),
                        ArgSpec::F64Array(vec![0.0; 2]),
                        out,
                    ],
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn packed_select_passes_arm_bits_through() {
        // Every non-zero mask lane is true, not only 1.
        let masks = [0, 1, -1, 2, i32::MIN, 0, 2, -1];
        let payload_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let arms = [payload_nan, -0.0, 1.5, -f64::NAN, 0.0, f64::INFINITY];
        for st in [ScalarType::F32, ScalarType::F64, ScalarType::I64] {
            let lanes = 16 / st.size_bytes() as usize;
            let (vt, mt) = (
                VectorType::new(st, lanes as u8),
                VectorType::new(ScalarType::I32, lanes as u8),
            );
            let f = rows_fn("vsel", |fb, [m, t, e]| {
                let mask = fb.load_vector(mt, m);
                let (x, y) = (fb.load_vector(vt, t), fb.load_vector(vt, e));
                vec![fb.select(mask, x, y), fb.select(mask, y, x)]
            });
            assert_packed(&f, &[format!("select {vt}")]);
            for (i, mask) in masks.chunks(lanes).enumerate() {
                let t: Vec<f64> = (0..lanes).map(|k| arms[(i + k) % arms.len()]).collect();
                let e: Vec<f64> = (0..lanes).map(|k| arms[(i + k + 3) % arms.len()]).collect();
                let mask = ArgSpec::I32Array(mask.to_vec());
                let args = match st {
                    ScalarType::F32 => {
                        let narrow = |v: Vec<f64>| v.into_iter().map(|d| d as f32).collect();
                        vec![
                            mask,
                            ArgSpec::F32Array(narrow(t)),
                            ArgSpec::F32Array(narrow(e)),
                            ArgSpec::F32Array(vec![0.0; 8]),
                        ]
                    }
                    ScalarType::F64 => vec![
                        mask,
                        ArgSpec::F64Array(t),
                        ArgSpec::F64Array(e),
                        ArgSpec::F64Array(vec![0.0; 4]),
                    ],
                    _ => {
                        let bits =
                            |v: Vec<f64>| v.into_iter().map(|d| d.to_bits() as i64).collect();
                        vec![
                            mask,
                            ArgSpec::I64Array(bits(t)),
                            ArgSpec::I64Array(bits(e)),
                            ArgSpec::I64Array(vec![0; 4]),
                        ]
                    }
                };
                assert_agree(&f, &args);
            }
        }
    }

    #[test]
    fn lanewise_super_node_ops_match() {
        // BinaryLanewise with mixed add/sub is exactly what SN-SLP commits
        // for operator/inverse sequences.
        let mut fb = FunctionBuilder::new(
            "sn",
            vec![Param::noalias_ptr("a"), Param::noalias_ptr("b")],
            Type::Void,
        );
        let a = fb.func().param(0);
        let b = fb.func().param(1);
        let vt = VectorType {
            elem: ScalarType::F64,
            lanes: 2,
        };
        let x = fb.load_vector(vt, a);
        let p2 = fb.ptradd_const(a, 16);
        let y = fb.load_vector(vt, p2);
        let mixed = fb.binary_lanewise(vec![BinOp::Add, BinOp::Sub], x, y);
        fb.store(b, mixed);
        fb.ret(None);
        let f = fb.finish();
        assert_agree(
            &f,
            &[
                ArgSpec::F64Array(vec![1.0, 2.0, 0.5, 0.25]),
                ArgSpec::F64Array(vec![0.0; 2]),
            ],
        );
    }

    #[test]
    fn fptosi_reports_unsupported() {
        let mut fb = FunctionBuilder::new(
            "trunc",
            vec![Param::new("x", Type::scalar(ScalarType::F64))],
            Type::scalar(ScalarType::I64),
        );
        let x = fb.func().param(0);
        let i = fb.cast(CastKind::Fptosi, ScalarType::I64, x);
        fb.ret(Some(i));
        let f = fb.finish();
        match compile(&f) {
            Err(JitError::Unsupported { reason }) => {
                assert!(reason.contains("fptosi"), "reason: {reason}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // The differential checker treats this as NotCovered, not a
        // divergence.
        let diff = check_backends(&f, &[ArgSpec::F64(1.5)], &model(), &ExecOptions::default());
        assert!(matches!(diff, Ok(BackendDiff::NotCovered { .. })));
    }
}
