//! Throughput of the differential fuzzing loop: cases checked per
//! second, split into generation alone and the full
//! generate → O3 → three-mode vectorize → execute → compare cycle.
//!
//! This bounds how large a CI smoke batch can be: the fixed-seed
//! `fuzz-smoke` job runs 2000 cases, so end-to-end throughput directly
//! prices that job.
//!
//! Plain `fn main()` harness (no external bench framework) so the
//! workspace builds offline; run with `cargo bench --bench fuzz_throughput`.

use std::time::Instant;

use snslp_cost::CostModel;
use snslp_fuzz::{check_case, generate, ALL_MODES};

const SEED: u64 = 0xBE_BE;
const GEN_CASES: u64 = 2000;
const CHECK_CASES: u64 = 400;

fn main() {
    let start = Instant::now();
    let mut insts = 0usize;
    for i in 0..GEN_CASES {
        let case = generate(SEED, i);
        insts += case.function.num_linked_insts();
        std::hint::black_box(&case);
    }
    let gen_s = start.elapsed().as_secs_f64();
    println!(
        "generate:       {GEN_CASES} cases in {gen_s:.3}s ({:.0} cases/s, {:.0} insts/case)",
        GEN_CASES as f64 / gen_s,
        insts as f64 / GEN_CASES as f64
    );

    let model = CostModel::default();
    let start = Instant::now();
    let mut divergences = 0u64;
    for i in 0..CHECK_CASES {
        let case = generate(SEED, i);
        if check_case(&case, &model, &ALL_MODES).is_err() {
            divergences += 1;
        }
    }
    let check_s = start.elapsed().as_secs_f64();
    println!(
        "check (3 modes): {CHECK_CASES} cases in {check_s:.3}s ({:.0} cases/s)",
        CHECK_CASES as f64 / check_s
    );
    assert_eq!(divergences, 0, "fuzz bench found real divergences");
}
