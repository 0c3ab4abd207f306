//! Whole-registry backend differential: every Table I kernel, under
//! every pipeline (`o3`, `slp`, `lslp`, `snslp`), must execute
//! identically under the interpreter and the native x86-64 JIT — return
//! bits, fuel, and the entire final memory image. This is the tier-1
//! equality gate behind `--backend=jit`: the CI `jit-smoke` job runs
//! exactly this test.
//!
//! On hosts without the native backend the differential reports
//! `NotCovered` and the test degrades to checking that the fallback
//! contract holds (no divergence is ever reported).
//!
//! A second test pins instruction selection for the same registry: no
//! vector op in any kernel's SN-SLP code is lowered per lane.

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::ExecOptions;
use snslp_jit::{check_backends, compile, native_supported, BackendDiff};

const DYN_MODES: [Option<SlpMode>; 4] = [
    None,
    Some(SlpMode::Slp),
    Some(SlpMode::Lslp),
    Some(SlpMode::SnSlp),
];

fn label(mode: Option<SlpMode>) -> &'static str {
    match mode {
        None => "o3",
        Some(m) => m.label(),
    }
}

#[test]
fn every_kernel_agrees_under_every_pipeline() {
    let model = CostModel::default();
    let opts = ExecOptions::default();
    let kernels = snslp_kernels::registry();
    assert!(kernels.len() >= 12, "registry shrank to {}", kernels.len());
    let mut agreed = 0usize;
    for kernel in &kernels {
        // Modest iteration count: the differential compares whole memory
        // images, and loop-carried behavior shows up within a few trips.
        let iters = kernel.default_iters.min(32);
        let args = kernel.args(iters);
        for &mode in &DYN_MODES {
            let mut f = kernel.build();
            match mode {
                None => {
                    optimize_o3(&mut f);
                }
                Some(m) => {
                    run_slp(&mut f, &SlpConfig::new(m));
                }
            }
            let diff = check_backends(&f, &args, &model, &opts)
                .unwrap_or_else(|d| panic!("{} [{}] diverged: {d}", kernel.name, label(mode)));
            match diff {
                BackendDiff::Agreed => agreed += 1,
                BackendDiff::NotCovered { reason } => {
                    // On a native host every registry kernel must be
                    // JIT-covered — a regression in lowering coverage is
                    // an error, not a silent fallback.
                    assert!(
                        !native_supported(),
                        "{} [{}] fell back on a native host: {reason}",
                        kernel.name,
                        label(mode)
                    );
                }
            }
        }
    }
    if native_supported() {
        assert_eq!(agreed, kernels.len() * DYN_MODES.len());
    }
}

#[test]
fn snslp_vector_ops_all_lower_packed() {
    // SN-SLP's cost model prices a vector op as one packed instruction;
    // every vector op it emits for the registry must lower that way, not
    // lane by lane. Lowering is pure, so this holds on every host.
    let mut per_lane = Vec::new();
    for kernel in snslp_kernels::registry() {
        let mut f = kernel.build();
        run_slp(&mut f, &SlpConfig::new(SlpMode::SnSlp));
        let c = compile(&f).unwrap_or_else(|e| panic!("{} [snslp] must lower: {e}", kernel.name));
        per_lane.extend(
            c.dump()
                .lines()
                .filter(|l| l.contains("per-lane"))
                .map(|l| format!("{}:{l}", kernel.name)),
        );
    }
    assert!(
        per_lane.is_empty(),
        "SN-SLP listings still lower per lane:\n{}",
        per_lane.join("\n")
    );
}
