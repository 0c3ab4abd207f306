//! # snslp-bench
//!
//! The measurement harness that regenerates every table and figure of the
//! SN-SLP paper's evaluation (§V). `snslp-bench figures` prints the series.
//!
//! All performance numbers are *simulated cycles* from the cost model's
//! execution view (see `snslp-cost`); Fig. 11's compile times are
//! wall-clock over the actual pass implementation. Native wall-clock time
//! is measured by the separate `perfbench` package, not here.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
pub mod dynstats;
pub mod hot;
pub mod json;
pub mod tracecheck;

use std::time::{Duration, Instant};

use snslp_core::{optimize_o3, run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{run_with_args, DynProfile, ExecOptions};
use snslp_ir::{Function, Module};
use snslp_kernels::{Benchmark, Kernel};

/// The three compiler configurations of the evaluation (§V): `O3` is all
/// vectorizers disabled.
pub const MODES: [Option<SlpMode>; 3] = [None, Some(SlpMode::Lslp), Some(SlpMode::SnSlp)];

/// All four pipelines, in the order of every report that covers them
/// (dynstats, hot): the evaluation modes of [`MODES`] plus
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

/// One module holding the scalar IR of every registry kernel — the corpus
/// `snslp-bench stats emit-corpus` writes for `snslpc`-based smoke runs.
pub fn kernel_corpus_module() -> Module {
    let mut module = Module::new("kernel_corpus");
    for kernel in snslp_kernels::registry() {
        module.add_function(kernel.build());
    }
    module
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
            // Exact instrumented hotness: reconciles against the
            // interpreter's profile on every measured row (a mismatch is
            // a lowering bug).
            let decisions = report.as_ref().map(hot::decision_map).unwrap_or_default();
            if let Some(h) = hot::native_hot(&f, &args, decisions) {
                h.reconcile(&out.exec.profile).unwrap_or_else(|e| {
                    panic!(
                        "{} [{}]: native hotness does not reconcile: {e}",
                        kernel.name,
                        mode_label(mode)
                    )
                });
            }
            ModeResult {
                mode,
                cycles: out.exec.cycles,
                dyn_insts: out.exec.dyn_insts,
                report,
                compile_time,
                profile: out.exec.profile,
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
            }
            ModeResult {
                mode,
                cycles,
                dyn_insts,
                report: merged,
                compile_time,
                profile,
            }
        })
        .collect();
    BenchRow {
        bench: bench.clone(),
        results,
    }
}

/// Statistics of a timing series, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean over the timed runs.
    pub mean_us: f64,
    /// Sample standard deviation.
    pub sd_us: f64,
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
    Timing { mean_us, sd_us }
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
        } = time_pipeline(&k, Some(SlpMode::SnSlp), 1, 3);
        assert!(mean > 0.0);
        assert!(stdev >= 0.0);
    }
}
