//! PC-map partition property over generated programs: 1,000 fuzz cases
//! (the oracle's deterministic generator), each lowered plain and
//! instrumented under every pipeline, must yield a [`PcMap`] that
//! covers the emitted bytes exactly once. On native hosts the
//! instrumented lowering is additionally executed and its per-class
//! totals reconciled against the interpreter's `DynProfile` via
//! [`check_hotness`] — the same invariant the continuous fuzz oracle
//! enforces per case.

use std::collections::BTreeMap;

use snslp_core::{run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::ExecOptions;
use snslp_jit::{check_hotness, compile_with, JitError, LowerOptions};

const SEED: u64 = 0x5eed_90b5;
const CASES: u64 = 1_000;

fn validate_both_lowerings(what: &str, f: &snslp_ir::Function) {
    for instrument in [false, true] {
        let opts = LowerOptions {
            instrument,
            decisions: BTreeMap::new(),
        };
        let compiled = match compile_with(f, &opts) {
            Ok(c) => c,
            Err(JitError::Unsupported { .. }) => return,
            Err(JitError::Platform(e)) => panic!("{what}: platform error: {e}"),
        };
        compiled
            .pc_map()
            .validate(compiled.code().len())
            .unwrap_or_else(|e| {
                panic!("{what}: pc map partition violated (instrument={instrument}): {e}")
            });
    }
}

#[test]
fn generated_programs_partition_and_reconcile() {
    let model = CostModel::default();
    let exec = ExecOptions::default();
    for i in 0..CASES {
        let case = snslp_fuzz::generate(SEED, i);
        validate_both_lowerings(&format!("case {SEED:#x}/{i}"), &case.function);

        let mut v = case.function.clone();
        run_slp(&mut v, &SlpConfig::new(SlpMode::SnSlp));
        validate_both_lowerings(&format!("case {SEED:#x}/{i} (snslp)"), &v);

        // Exact-hotness reconciliation: instrumented native per-class
        // counts must equal the interpreter's. Declines return Ok(None)
        // and are fine; an Err is a real counter bug.
        for (label, f) in [("scalar", &case.function), ("snslp", &v)] {
            check_hotness(f, &case.args, &model, &exec, BTreeMap::new())
                .unwrap_or_else(|e| panic!("case {SEED:#x}/{i} ({label}): hotness diverged: {e}"));
        }
    }
}
