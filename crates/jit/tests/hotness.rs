//! Exact hotness reconciliation over the whole kernel registry: every
//! Table I kernel, compiled under `slp`, `lslp`, and `snslp` (plus the
//! scalar `o3` baseline), must produce instrumented native per-class
//! execution counts that equal the interpreter's `DynProfile` — the
//! invariant [`check_hotness`] enforces. CI also drives it through
//! `snslp-bench check hot`.
//!
//! On hosts without the native backend every row reports `None` and the
//! test degrades to checking that the skip contract holds.

use std::collections::BTreeMap;

use snslp_core::{optimize_o3, run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::ExecOptions;
use snslp_jit::{check_hotness, native_supported};

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
fn every_kernel_reconciles_under_every_pipeline() {
    let model = CostModel::default();
    let opts = ExecOptions::default();
    let kernels = snslp_kernels::registry();
    assert!(kernels.len() >= 12, "registry shrank to {}", kernels.len());
    let mut reconciled = 0usize;
    for kernel in &kernels {
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
            let prof = check_hotness(&f, &args, &model, &opts, BTreeMap::new())
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", kernel.name, label(mode)));
            match prof {
                Some(prof) => {
                    reconciled += 1;
                    assert!(
                        prof.total_ops() > 0,
                        "{} [{}] executed nothing",
                        kernel.name,
                        label(mode)
                    );
                }
                None => assert!(
                    !native_supported(),
                    "{} [{}] fell back on a native host",
                    kernel.name,
                    label(mode)
                ),
            }
        }
    }
    if native_supported() {
        assert_eq!(reconciled, kernels.len() * DYN_MODES.len());
    }
}
