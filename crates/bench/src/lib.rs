//! # snslp-bench
//!
//! The measurement harness that regenerates every table and figure of the
//! SN-SLP paper's evaluation (§V). `snslp-bench figures` prints the series;
//! the `compile_time` bench under `benches/` measures wall-clock compile
//! time (`BENCH_compile_time.json` is a snapshot of its report).
//!
//! All performance numbers are *simulated cycles* from the cost model's
//! execution view (see `snslp-cost`); compile times are wall-clock over
//! the actual pass implementation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
pub mod dynstats;
pub mod hot;
pub mod json;
pub mod report;
pub mod servebench;
pub mod stats;
pub mod tracecheck;

use std::time::{Duration, Instant};

use snslp_core::{optimize_o3, run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{run_with_args, ArgSpec, DynProfile, ExecOptions};
use snslp_ir::Function;
use snslp_kernels::{Benchmark, Kernel};
use snslp_trace::{Counter, MetricsSnapshot};

use report::{CompileTimeReport, KernelTiming, Timing};

/// The three compiler configurations of the evaluation (§V): `O3` is all
/// vectorizers disabled.
pub const MODES: [Option<SlpMode>; 3] = [None, Some(SlpMode::Lslp), Some(SlpMode::SnSlp)];

/// All four pipelines, in the order of every report that covers them
/// (dynstats, hot, compile-time): the evaluation modes of [`MODES`] plus
/// vanilla SLP, so the dynstats report can show where plain SLP falls
/// back to gathers. Each report labels a pipeline with [`pipeline_code`].
pub const DYN_MODES: [Option<SlpMode>; 4] = [
    None,
    Some(SlpMode::Slp),
    Some(SlpMode::Lslp),
    Some(SlpMode::SnSlp),
];

/// A pipeline's report label: `o3`, or the mode's [`SlpMode::code`].
pub fn pipeline_code(mode: Option<SlpMode>) -> &'static str {
    mode.map_or("o3", SlpMode::code)
}

/// Label for a configuration.
pub fn mode_label(mode: Option<SlpMode>) -> &'static str {
    match mode {
        None => "O3",
        Some(m) => m.label(),
    }
}

/// Per-configuration measurement of one kernel.
#[derive(Debug, Clone)]
pub struct ModeResult {
    /// Configuration (`None` = O3 baseline).
    pub mode: Option<SlpMode>,
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub dyn_insts: u64,
    /// Pass report (`None` for O3).
    pub report: Option<FunctionReport>,
    /// Wall-clock compile time (cleanup + vectorizer).
    pub compile_time: Duration,
    /// Dynamic execution profile of the measured run.
    pub profile: DynProfile,
    /// Measured native wall-clock time of one run under the x86-64 JIT
    /// backend (minimum over [`WALL_REPEATS`] invocations), or `None`
    /// when the JIT declined the function or the platform has no native
    /// backend. The simulated `cycles` stay the headline number; this is
    /// the third calibration axis.
    pub wall_ns: Option<u64>,
    /// Measured native wall time split per opcode class
    /// ([`snslp_interp::OpClass::ALL`] order), apportioned by executed
    /// native code bytes from an exact instrumented-hotness run. `None`
    /// whenever `wall_ns` is — both need the native backend.
    pub class_ns: Option<[u64; 5]>,
}

/// All configurations of one kernel.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel descriptor.
    pub kernel: Kernel,
    /// One result per entry of [`MODES`].
    pub results: Vec<ModeResult>,
}

impl KernelRow {
    /// Result for a given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the mode was not measured.
    pub fn result(&self, mode: Option<SlpMode>) -> &ModeResult {
        self.results
            .iter()
            .find(|r| r.mode == mode)
            .expect("all MODES measured")
    }

    /// Speedup of `mode` over the O3 baseline (simulated cycles).
    pub fn speedup(&self, mode: Option<SlpMode>) -> f64 {
        self.result(None).cycles as f64 / self.result(mode).cycles as f64
    }
}

/// Timed native invocations per function; the minimum is reported, which
/// is the standard estimator for the noise-free wall time of a
/// deterministic computation.
pub const WALL_REPEATS: usize = 15;

/// Measures the native wall-clock time of one run of `f` on `args` under
/// the x86-64 JIT backend: compile once, then the minimum of
/// [`WALL_REPEATS`] timed invocations, each on freshly materialized
/// memory (identical layout to the interpreter run).
///
/// Returns `None` when the JIT declines the function, the platform has
/// no native backend, or execution traps — in all of those cases the
/// simulated-cycle axis remains the only number for this function.
pub fn native_wall_ns(f: &Function, args: &[ArgSpec]) -> Option<u64> {
    let native = snslp_jit::compile(f).ok()?.finalize().ok()?;
    let opts = ExecOptions::default();
    let mut best: Option<u64> = None;
    for _ in 0..WALL_REPEATS {
        let (mut mem, values) = snslp_jit::materialize_args(args);
        let start = Instant::now();
        let out = native.invoke(&values, &mut mem, &opts);
        let ns = start.elapsed().as_nanos() as u64;
        out.ok()?;
        best = Some(best.map_or(ns, |b| b.min(ns)));
    }
    best
}

/// Compiles `f` under `mode` (in place) and returns the pass report and
/// compile time.
pub fn compile(f: &mut Function, mode: Option<SlpMode>) -> (Option<FunctionReport>, Duration) {
    match mode {
        None => {
            let t = optimize_o3(f);
            (None, t)
        }
        Some(m) => {
            let report = run_slp(f, &SlpConfig::new(m));
            let t = report.elapsed;
            (Some(report), t)
        }
    }
}

/// Runs one kernel under every configuration, on `iters` iterations.
///
/// # Panics
///
/// Panics if compilation or interpretation fails — both indicate a bug in
/// the reproduction, not in inputs.
pub fn measure_kernel(kernel: &Kernel, iters: usize) -> KernelRow {
    measure_kernel_modes(kernel, iters, &MODES)
}

/// [`measure_kernel`] over an explicit set of configurations (the
/// dynstats report measures all four of [`DYN_MODES`]).
///
/// # Panics
///
/// Panics if compilation or interpretation fails.
pub fn measure_kernel_modes(kernel: &Kernel, iters: usize, modes: &[Option<SlpMode>]) -> KernelRow {
    let model = CostModel::default();
    let args = kernel.args(iters);
    let results = modes
        .iter()
        .map(|&mode| {
            let mut f = kernel.build();
            let (report, compile_time) = compile(&mut f, mode);
            let out = run_with_args(&f, &args, &model, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", kernel.name, mode_label(mode)));
            let wall_ns = native_wall_ns(&f, &args);
            // Exact instrumented hotness: reconciles against the
            // interpreter's profile on every measured row (a mismatch is
            // a lowering bug) and apportions the measured wall time onto
            // opcode classes by executed native bytes.
            let decisions = report.as_ref().map(hot::decision_map).unwrap_or_default();
            let native = hot::native_hot(&f, &args, decisions);
            if let Some(h) = &native {
                h.reconcile(&out.exec.profile).unwrap_or_else(|e| {
                    panic!(
                        "{} [{}]: native hotness does not reconcile: {e}",
                        kernel.name,
                        mode_label(mode)
                    )
                });
            }
            let class_ns = match (&native, wall_ns) {
                (Some(h), Some(w)) => Some(hot::class_ns_split(h, w)),
                _ => None,
            };
            ModeResult {
                mode,
                cycles: out.exec.cycles,
                dyn_insts: out.exec.dyn_insts,
                report,
                compile_time,
                profile: out.exec.profile,
                wall_ns,
                class_ns,
            }
        })
        .collect();
    KernelRow {
        kernel: kernel.clone(),
        results,
    }
}

/// Per-configuration measurement of one whole-benchmark composite.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Benchmark descriptor.
    pub bench: Benchmark,
    /// One result per entry of [`MODES`] (cycles summed over all
    /// functions of the composite; reports merged).
    pub results: Vec<ModeResult>,
}

impl BenchRow {
    /// Result for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the mode was not measured.
    pub fn result(&self, mode: Option<SlpMode>) -> &ModeResult {
        self.results
            .iter()
            .find(|r| r.mode == mode)
            .expect("all MODES measured")
    }

    /// Speedup of `mode` over O3.
    pub fn speedup(&self, mode: Option<SlpMode>) -> f64 {
        self.result(None).cycles as f64 / self.result(mode).cycles as f64
    }

    /// Fraction of O3 cycles spent in the kernel function (dilution).
    pub fn kernel_share(&self) -> f64 {
        let model = CostModel::default();
        let fns = self.bench.functions();
        let mut kernel_cycles = 0u64;
        let mut total = 0u64;
        for (i, (mut f, args)) in fns.into_iter().enumerate() {
            optimize_o3(&mut f);
            let out =
                run_with_args(&f, &args, &model, &ExecOptions::default()).expect("composite runs");
            if i == 0 {
                kernel_cycles = out.exec.cycles;
            }
            total += out.exec.cycles;
        }
        kernel_cycles as f64 / total as f64
    }
}

/// Runs a whole-benchmark composite under every configuration.
///
/// # Panics
///
/// Panics if compilation or interpretation fails.
pub fn measure_benchmark(bench: &Benchmark) -> BenchRow {
    let model = CostModel::default();
    let results = MODES
        .iter()
        .map(|&mode| {
            let mut cycles = 0u64;
            let mut dyn_insts = 0u64;
            let mut compile_time = Duration::ZERO;
            let mut merged: Option<FunctionReport> = None;
            let mut profile = DynProfile::new();
            // Composite wall time is the sum over member functions; any
            // member the JIT declines voids the whole composite's wall
            // number (a partial sum would not be comparable).
            let mut wall_ns: Option<u64> = Some(0);
            for (mut f, args) in bench.functions() {
                let (report, t) = compile(&mut f, mode);
                compile_time += t;
                if let Some(r) = report {
                    match &mut merged {
                        None => merged = Some(r),
                        Some(m) => m.merge(r),
                    }
                }
                let out =
                    run_with_args(&f, &args, &model, &ExecOptions::default()).unwrap_or_else(|e| {
                        panic!("{} [{}] {}: {e}", bench.name, mode_label(mode), f.name())
                    });
                cycles += out.exec.cycles;
                dyn_insts += out.exec.dyn_insts;
                profile.merge(&out.exec.profile);
                wall_ns = match (wall_ns, native_wall_ns(&f, &args)) {
                    (Some(acc), Some(w)) => Some(acc + w),
                    _ => None,
                };
            }
            ModeResult {
                mode,
                cycles,
                dyn_insts,
                report: merged,
                compile_time,
                profile,
                wall_ns,
                // Composite rows keep only the aggregate wall number; the
                // per-class split is a per-function measurement.
                class_ns: None,
            }
        })
        .collect();
    BenchRow {
        bench: bench.clone(),
        results,
    }
}

/// Mean and sample standard deviation of `samples`, in their own unit.
fn mean_sd(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

/// Times one pipeline over fresh builds of a kernel: `warmup` discarded
/// runs, then `runs` timed ones. Microseconds.
pub fn time_pipeline(kernel: &Kernel, mode: Option<SlpMode>, warmup: usize, runs: usize) -> Timing {
    for _ in 0..warmup {
        let mut f = kernel.build();
        compile(&mut f, mode);
        std::hint::black_box(&f);
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut f = kernel.build();
        let start = Instant::now();
        compile(&mut f, mode);
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&f);
    }
    let (mean_us, sd_us) = mean_sd(&samples);
    let min_us = samples.iter().copied().fold(f64::INFINITY, f64::min);
    Timing {
        mean_us,
        sd_us,
        min_us,
    }
}

/// Look-ahead score cache hit rate of one SN-SLP compile of the kernel
/// (`hits / (hits + misses)`), from the thread-local metrics registry.
fn snslp_cache_hit_rate(kernel: &Kernel) -> Option<f64> {
    let before = MetricsSnapshot::current();
    let mut f = kernel.build();
    run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
    let delta = MetricsSnapshot::current().delta_since(&before);
    let hits = delta.get(Counter::LookaheadCacheHits) as f64;
    let misses = delta.get(Counter::LookaheadCacheMisses) as f64;
    if hits + misses == 0.0 {
        None
    } else {
        Some(hits / (hits + misses))
    }
}

/// Measures compile time of every registry kernel under every pipeline
/// of [`DYN_MODES`], producing the machine-readable report the
/// `compile_time` bench emits and `snslp-bench check compile` re-measures.
pub fn measure_compile_times(warmup: usize, runs: usize) -> CompileTimeReport {
    let kernels = snslp_kernels::registry()
        .iter()
        .map(|kernel| KernelTiming {
            name: kernel.name.to_string(),
            modes: DYN_MODES
                .iter()
                .map(|&mode| {
                    let timing = time_pipeline(kernel, mode, warmup, runs);
                    (pipeline_code(mode).to_string(), timing)
                })
                .collect(),
            cache_hit_rate: snslp_cache_hit_rate(kernel),
        })
        .collect();
    CompileTimeReport {
        timed_runs: runs,
        kernels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snslp_kernels::kernel_by_name;

    #[test]
    fn measure_kernel_produces_all_modes() {
        let k = kernel_by_name("motiv_trunk").unwrap();
        let row = measure_kernel(&k, 8);
        assert_eq!(row.results.len(), 3);
        assert!(row.speedup(Some(SlpMode::SnSlp)) > 1.0);
        // LSLP does not vectorize the motivating kernels: same cycles as O3.
        assert!((row.speedup(Some(SlpMode::Lslp)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn benchmark_measurement_is_diluted() {
        let mut b = snslp_kernels::benchmarks()[0].clone();
        b.kernel_iters = 8;
        b.neutral_iters = 64;
        let row = measure_benchmark(&b);
        let s = row.speedup(Some(SlpMode::SnSlp));
        let k = measure_kernel(&b.kernel, 8).speedup(Some(SlpMode::SnSlp));
        assert!(s > 1.0 && s < k, "diluted {s} vs kernel {k}");
    }

    #[test]
    fn time_pipeline_returns_sane_stats() {
        let k = kernel_by_name("motiv_leaf").unwrap();
        let Timing {
            mean_us: mean,
            sd_us: stdev,
            ..
        } = time_pipeline(&k, Some(SlpMode::SnSlp), 1, 3);
        assert!(mean > 0.0);
        assert!(stdev >= 0.0);
    }
}
