//! The kernels phase: the 12 Table I kernels, each compiled under O3 and
//! under SN-SLP, lowered by the JIT, mapped, and called natively.
//!
//! Every native call is checked against the interpreter run of the
//! *unoptimized* kernel, and the first compile of each kernel and mode in
//! a run is also checked bit-exactly against the interpreter running the
//! same compiled IR. A JIT fallback is a failure.

use std::time::Instant;

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_fuzz::Rng;
use snslp_interp::{
    outcomes_match, run_with_args, ArgSpec, ArrayData, DynProfile, ExecOptions, ExecResult, Memory,
    RunOutcome, Value,
};
use snslp_ir::Function;
use snslp_jit::{check_backends, materialize_args, BackendDiff, JitFunction, NativeRun};
use snslp_kernels::Kernel;

use crate::stats::{geomean, Fastest};
use crate::{derive_seed, Metric, Split, Tally};

/// Loop iterations of every kernel call: 15–70 µs of native work per call
/// on a 2-core x86-64 host.
pub const ITERS: usize = 2048;

/// Timed native calls per compiled kernel.
pub const CALLS: usize = 8;

/// The two configurations, by index: the scalar O3 baseline and SN-SLP.
const MODES: [&str; 2] = ["o3", "snslp"];

const SALT: u64 = 0x4B45_524E;

/// The kernel/mode order of each sweep of one round.
pub fn plan(seed: u64, round: usize, sweeps: usize) -> Vec<Vec<(usize, usize)>> {
    let n = snslp_kernels::registry().len();
    let mut rng = Rng::for_case(derive_seed(seed, SALT), round as u64);
    (0..sweeps)
        .map(|_| {
            let mut order: Vec<(usize, usize)> = (0..n).flat_map(|k| [(k, 0), (k, 1)]).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            order
        })
        .collect()
}

struct Case {
    kernel: Kernel,
    args: Vec<ArgSpec>,
    /// Interpreter outcome of the unoptimized kernel: the reference every
    /// native result must match.
    reference: RunOutcome,
}

/// First-compile facts of one kernel and mode: exact counts.
#[derive(Debug, Clone, Copy, Default)]
struct FirstCompile {
    code_bytes: u64,
    ops_lowered: u64,
    fallback: bool,
    dyn_insts: u64,
}

/// Fastest times of one kernel (nanoseconds).
#[derive(Debug, Default, Clone, Copy)]
struct Times {
    /// Native call time per mode.
    run: [Fastest; 2],
    /// SN-SLP source to executable: pass + JIT lower + map.
    compile: Fastest,
    /// SN-SLP JIT lowering (traced rounds).
    lower: Fastest,
    /// SN-SLP mapping into executable memory (traced rounds).
    map: Fastest,
}

/// Samples and counts of the kernels phase across a run.
pub struct KernelBench {
    cases: Vec<Case>,
    model: CostModel,
    exec: ExecOptions,
    first: Vec<[Option<FirstCompile>; 2]>,
    times: Split<Vec<Times>>,
}

impl KernelBench {
    /// Builds every kernel's inputs and interprets the unoptimized kernel
    /// once for its reference outcome.
    ///
    /// # Errors
    ///
    /// A kernel the interpreter cannot run.
    pub fn new() -> Result<KernelBench, String> {
        let model = CostModel::default();
        let exec = ExecOptions::default();
        let cases = snslp_kernels::registry()
            .into_iter()
            .map(|kernel| {
                let args = kernel.args(ITERS);
                let reference = run_with_args(&kernel.build(), &args, &model, &exec)
                    .map_err(|e| format!("{}: reference run failed: {e}", kernel.name))?;
                Ok(Case {
                    kernel,
                    args,
                    reference,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let n = cases.len();
        Ok(KernelBench {
            cases,
            model,
            exec,
            first: vec![[None; 2]; n],
            times: Split {
                plain: vec![Times::default(); n],
                traced: vec![Times::default(); n],
            },
        })
    }

    /// Runs one round's sweeps.
    pub fn run_round(&mut self, plan: &[Vec<(usize, usize)>], traced: bool, tally: &mut Tally) {
        for sweep in plan {
            for &(k, mode) in sweep {
                self.compile_and_call(k, mode, traced, tally);
            }
        }
    }

    fn compile_and_call(&mut self, k: usize, mode: usize, traced: bool, tally: &mut Tally) {
        let case = &self.cases[k];
        let name = case.kernel.name;
        let mut f = case.kernel.build();
        let t0 = Instant::now();
        if mode == 0 {
            optimize_o3(&mut f);
        } else {
            run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        }
        let t1 = traced.then(Instant::now);
        let lowered = snslp_jit::compile(&f);
        let t2 = traced.then(Instant::now);
        let native = lowered.and_then(|c| c.finalize());
        let t3 = Instant::now();

        if self.first[k][mode].is_none() {
            let first = self.check_first(&f, k, native.as_ref().ok());
            self.first[k][mode] = Some(first.0);
            if !tally.record(
                first
                    .1
                    .map_err(|e| format!("{name} [{}]: {e}", MODES[mode])),
            ) {
                return;
            }
        } else if !tally.record(
            native
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("{name} [{}]: JIT fallback: {e}", MODES[mode])),
        ) {
            return;
        }
        let Ok(native) = native else { return };

        let times = &mut self.times.pick(traced)[k];
        if mode == 1 {
            times.compile.add((t3 - t0).as_nanos() as f64);
            if let (Some(t1), Some(t2)) = (t1, t2) {
                times.lower.add((t2 - t1).as_nanos() as f64);
                times.map.add((t3 - t2).as_nanos() as f64);
            }
        }
        for _ in 0..CALLS {
            let (mut mem, values) = materialize_args(&case.args);
            let t = Instant::now();
            let out = native.invoke(&values, &mut mem, &self.exec);
            let ns = t.elapsed().as_nanos() as f64;
            let checked = out.map_err(|e| e.to_string()).and_then(|run| {
                let outcome = native_outcome(&native, &case.args, &values, &mem, run, &self.exec);
                outcomes_match(&case.reference, &outcome)
            });
            if tally.record(checked.map_err(|e| format!("{name} [{}] native: {e}", MODES[mode]))) {
                times.run[mode].add(ns);
            }
        }
    }

    /// The checks and counts of a kernel's first compile in one mode:
    /// native agrees bit-exactly with the interpreter on the compiled IR,
    /// and that interpreter run matches the unoptimized reference.
    fn check_first(
        &self,
        f: &Function,
        k: usize,
        native: Option<&JitFunction>,
    ) -> (FirstCompile, Result<(), String>) {
        let case = &self.cases[k];
        let mut first = FirstCompile::default();
        let Some(native) = native else {
            first.fallback = true;
            return (first, Err("JIT fallback".to_string()));
        };
        first.code_bytes = native.stats().code_bytes as u64;
        first.ops_lowered = native.stats().ops_lowered as u64;
        let checked = (|| {
            match check_backends(f, &case.args, &self.model, &self.exec)? {
                BackendDiff::Agreed => {}
                BackendDiff::NotCovered { reason } => {
                    return Err(format!("backend check not covered: {reason}"))
                }
            }
            let out = run_with_args(f, &case.args, &self.model, &self.exec)
                .map_err(|e| format!("interpreting the compiled IR failed: {e}"))?;
            first.dyn_insts = out.exec.dyn_insts;
            outcomes_match(&case.reference, &out)
        })();
        (first, checked)
    }

    /// Geomean over kernels of a per-kernel value, and the samples
    /// behind it.
    fn geo(
        times: &[Times],
        value: impl Fn(&Times) -> f64,
        samples: impl Fn(&Times) -> usize,
    ) -> (f64, usize) {
        let values: Vec<f64> = times.iter().map(value).collect();
        (geomean(&values), times.iter().map(samples).sum())
    }

    /// `run_us_geomean`, `speedup_geomean` and `compile_us_geomean`:
    /// geomeans over kernels of each kernel's fastest time.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let t = &self.times.plain;
        let metric = |name, unit, (value, samples)| Metric::new(name, unit, value, samples);
        vec![
            metric(
                "run_us_geomean",
                "us",
                Self::geo(t, |x| x.run[1].value / 1e3, |x| x.run[1].samples),
            ),
            metric(
                "speedup_geomean",
                "x",
                Self::geo(
                    t,
                    |x| x.run[0].value / x.run[1].value,
                    |x| x.run[0].samples + x.run[1].samples,
                ),
            ),
            metric(
                "compile_us_geomean",
                "us",
                Self::geo(t, |x| x.compile.value / 1e3, |x| x.compile.samples),
            ),
        ]
    }

    /// The `jit.*` and `interp.*` layer metrics.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = &self.times.traced;
        let firsts: Vec<FirstCompile> = self.first.iter().flatten().flatten().copied().collect();
        let total = |f: fn(&FirstCompile) -> u64| firsts.iter().map(f).sum::<u64>() as f64;
        let dyn_insts = |mode: usize| {
            self.first
                .iter()
                .filter_map(|m| m[mode])
                .map(|f| f.dyn_insts)
                .sum::<u64>() as f64
        };
        let (lower, n) = Self::geo(t, |x| x.lower.value / 1e3, |x| x.lower.samples);
        let (map, _) = Self::geo(t, |x| x.map.value / 1e3, |x| x.map.samples);
        let mut out = vec![
            Metric::new("jit.lower_us", "us", lower, n),
            Metric::new("jit.map_us", "us", map, n),
            Metric::new("jit.code_bytes", "bytes", total(|f| f.code_bytes), 1),
            Metric::new("jit.ops_lowered", "count", total(|f| f.ops_lowered), 1),
            Metric::new(
                "jit.fallbacks",
                "count",
                total(|f| u64::from(f.fallback)),
                1,
            ),
        ];
        for (case, times) in self.cases.iter().zip(t) {
            for (mode, label) in MODES.iter().enumerate() {
                out.push(Metric::new(
                    format!("jit.run_us.{}.{label}", case.kernel.name),
                    "us",
                    times.run[mode].value / 1e3,
                    times.run[mode].samples,
                ));
            }
        }
        out.push(Metric::new("interp.dyn_insts_o3", "count", dyn_insts(0), 1));
        out.push(Metric::new(
            "interp.dyn_insts_snslp",
            "count",
            dyn_insts(1),
            1,
        ));
        out
    }

    /// Traced over untraced `compile_us_geomean`: the traced rounds'
    /// extra clock reads around JIT lowering.
    pub fn overhead(&self) -> Metric {
        let g = |t: &[Times]| Self::geo(t, |x| x.compile.value, |x| x.compile.samples);
        let (traced, n) = g(&self.times.traced);
        let (plain, m) = g(&self.times.plain);
        Metric::new("trace.overhead_ratio.kernels", "x", traced / plain, n + m)
    }

    /// Exact counts: code size, lowered ops, fallbacks and interpreted
    /// dynamic instructions of every kernel's first compile per mode.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (case, modes) in self.cases.iter().zip(&self.first) {
            for (label, first) in MODES.iter().zip(modes) {
                let Some(f) = first else { continue };
                let key = |what: &str| format!("kernels.{}.{label}.{what}", case.kernel.name);
                out.push((key("code_bytes"), f.code_bytes));
                out.push((key("ops_lowered"), f.ops_lowered));
                out.push((key("fallback"), u64::from(f.fallback)));
                out.push((key("dyn_insts"), f.dyn_insts));
            }
        }
        out
    }
}

/// A native run in the interpreter's outcome form, so [`outcomes_match`]
/// can compare it with the reference: return value, dynamic instruction
/// count from the fuel, and every array argument read back.
fn native_outcome(
    native: &JitFunction,
    args: &[ArgSpec],
    values: &[Value],
    mem: &Memory,
    run: NativeRun,
    exec: &ExecOptions,
) -> RunOutcome {
    let arrays = args
        .iter()
        .zip(values)
        .filter_map(|(spec, value)| {
            let Value::Ptr(base) = *value else {
                return None;
            };
            Some(match spec {
                ArgSpec::F64Array(d) => ArrayData::F64(mem.read_slice_f64(base, d.len())),
                ArgSpec::F32Array(d) => ArrayData::F32(mem.read_slice_f32(base, d.len())),
                ArgSpec::I32Array(d) => ArrayData::I32(mem.read_slice_i32(base, d.len())),
                ArgSpec::I64Array(d) => ArrayData::I64(mem.read_slice_i64(base, d.len())),
                _ => return None,
            })
        })
        .collect();
    RunOutcome {
        exec: ExecResult {
            function: native.name().to_string(),
            ret: run.ret,
            cycles: 0,
            dyn_insts: exec.fuel - run.fuel_remaining,
            profile: DynProfile::default(),
        },
        arrays,
    }
}
