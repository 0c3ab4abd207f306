//! Golden-file tests for the dynamic execution profiles.
//!
//! The simulated-cycle pipeline is fully deterministic, so the rendered
//! per-mode dynamic profile of a kernel is a stable artifact: any change
//! to the interpreter's accounting, the cost model's execution view, or
//! the vectorizer's output shape must show up as a byte-for-byte diff
//! here. Regenerate after an intentional change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-bench --test dynstats_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use snslp_bench::{measure_kernel_modes, pipeline_code, DYN_MODES};
use snslp_core::SlpMode;
use snslp_kernels::kernel_by_name;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.dynstats"))
}

/// Compares `actual` against the golden file (or rewrites it under
/// `SNSLP_BLESS=1`).
fn compare_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    assert_eq!(
        actual, expected,
        "dynamic profile for `{name}` diverged from {path:?}; \
         rerun with SNSLP_BLESS=1 if intentional"
    );
}

/// Renders one kernel's per-mode dynamic profiles, few iterations so the
/// golden stays readable but the loop structure still dominates.
fn render_kernel(name: &str, iters: usize) -> String {
    let kernel = kernel_by_name(name).expect("registered kernel");
    let row = measure_kernel_modes(&kernel, iters, &DYN_MODES);
    let mut out = String::new();
    let _ = writeln!(out, "kernel {name} ({iters} iterations)");
    for &mode in &DYN_MODES {
        let label = pipeline_code(mode);
        let r = row.result(mode);
        let _ = writeln!(
            out,
            "-- {label}: {} cycles, {} vectorized graphs --",
            r.cycles,
            r.report
                .as_ref()
                .map(|rep| rep.vectorized_graphs())
                .unwrap_or(0)
        );
        out.push_str(&r.profile.render());
    }
    out
}

#[test]
fn motivating_kernel_profiles_are_stable() {
    // Fig. 1 kernel: only SN-SLP commits a rewrite. The golden shows SLP
    // and LSLP executing the exact scalar profile of O3 while SN-SLP runs
    // full-lane vectors with zero runtime gathers.
    compare_golden("motiv_leaf", &render_kernel("motiv_leaf", 4));
}

#[test]
fn povray_kernel_profiles_are_stable() {
    compare_golden("povray_shade", &render_kernel("povray_shade", 4));
}

#[test]
fn snslp_packs_full_lanes_where_slp_gathers() {
    let kernel = kernel_by_name("motiv_leaf").unwrap();
    let row = measure_kernel_modes(&kernel, 4, &DYN_MODES);

    // Vanilla SLP builds a graph for the seed but the operands only pack
    // as gather nodes, leaving the cost at threshold — so it keeps scalar
    // code and its *dynamic* profile shows no vector work at all.
    let slp = row.result(Some(SlpMode::Slp));
    let slp_report = slp.report.as_ref().unwrap();
    assert_eq!(slp_report.vectorized_graphs(), 0);
    assert!(
        slp_report.graphs.iter().any(|g| g.num_gather_nodes > 0),
        "vanilla SLP should have fallen back to gather nodes: {:?}",
        slp_report.graphs
    );
    assert_eq!(slp.profile.vector_ops, 0);
    assert_eq!(slp.profile.gathers, 0);
    assert_eq!(slp.profile, row.result(None).profile, "SLP == scalar O3");

    // SN-SLP commutes through the super-node instead: every vector op it
    // executes runs at the full native width and no runtime gathers or
    // element inserts remain.
    let sn = &row.result(Some(SlpMode::SnSlp)).profile;
    assert!(sn.vector_ops > 0);
    assert_eq!(sn.gathers, 0);
    assert_eq!(sn.inserts, 0);
    assert_eq!(kernel.elem, "i64", "64-bit elements -> 2 native lanes");
    let width = snslp_cost::TargetDesc::default().register_bits() / 64;
    assert_eq!(sn.mean_lanes(), Some(width as f64), "full-lane packing");
}
