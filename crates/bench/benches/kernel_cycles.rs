//! Bench for the paper's Fig. 5: executing each kernel (on the reference
//! interpreter) compiled under O3 versus SN-SLP.
//!
//! Wall time here tracks the dynamic instruction count of the compiled
//! code, so the O3→SN-SLP ratio mirrors the simulated-cycle speedups the
//! `snslp-bench figures` reports.
//!
//! Plain `fn main()` harness (no external bench framework) so the
//! workspace builds offline; run with `cargo bench --bench kernel_cycles`.

use std::time::Instant;

use snslp_bench::compile;
use snslp_core::SlpMode;
use snslp_cost::CostModel;
use snslp_interp::{run_with_args, ExecOptions};
use snslp_kernels::registry;

const BENCH_ITERS: usize = 256;
const WARMUP_RUNS: usize = 3;
const TIMED_RUNS: usize = 20;

/// Mean and sample standard deviation of per-run times, in microseconds.
fn stats(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = if samples.len() > 1 {
        samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    (mean, var.sqrt())
}

fn main() {
    // Cargo passes `--bench` (and possibly filter args) to the harness;
    // this simple harness runs everything regardless.
    let model = CostModel::default();
    let opts = ExecOptions::default();
    println!("kernel_cycles: {TIMED_RUNS} timed runs per entry, mean ± sd (µs)");
    println!(
        "{:<24} {:>16} {:>16} {:>8}",
        "kernel", "o3", "sn-slp", "ratio"
    );
    for kernel in registry() {
        let args = kernel.args(BENCH_ITERS);
        let mut means = Vec::with_capacity(2);
        for mode in [None, Some(SlpMode::SnSlp)] {
            let mut f = kernel.build();
            compile(&mut f, mode);
            for _ in 0..WARMUP_RUNS {
                run_with_args(&f, &args, &model, &opts).expect("kernel runs");
            }
            let mut samples = Vec::with_capacity(TIMED_RUNS);
            for _ in 0..TIMED_RUNS {
                let start = Instant::now();
                let out = run_with_args(&f, &args, &model, &opts).expect("kernel runs");
                samples.push(start.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(&out);
            }
            means.push(stats(&samples));
        }
        let (o3_mean, o3_sd) = means[0];
        let (sn_mean, sn_sd) = means[1];
        println!(
            "{:<24} {:>16} {:>16} {:>8.2}",
            kernel.name,
            format!("{o3_mean:.1}±{o3_sd:.1}"),
            format!("{sn_mean:.1}±{sn_sd:.1}"),
            o3_mean / sn_mean
        );
    }
}
