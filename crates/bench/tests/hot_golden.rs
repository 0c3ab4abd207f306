//! Golden `snslp-hot/v1` artifacts for the two Table I flagship
//! kernels. Instrumented hotness is exact — per-block counters under a
//! deterministic activation count — so the full JSON document is a
//! byte-stable artifact: any change to lowering (PC ranges), the
//! counter placement, or the artifact schema must show up as a
//! byte-for-byte diff here. Regenerate after an intentional change
//! with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test -p snslp-bench --test hot_golden
//! ```
//!
//! Measuring requires executing native code, so on hosts without the
//! native backend the tests skip (the goldens are blessed on x86-64
//! Linux, where CI's `hot-smoke` job runs them).

use std::path::PathBuf;

use snslp_bench::hot::{decision_map, HotDoc, HotEntry};
use snslp_bench::{compile, pipeline_code, DYN_MODES};
use snslp_cost::CostModel;
use snslp_interp::ExecOptions;
use snslp_jit::{check_hotness, HotMode};
use snslp_kernels::kernel_by_name;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.hot.json"))
}

/// Builds the kernel's instrumented hot document across all four
/// pipelines at a small pinned iteration count.
fn render_kernel(name: &str, iters: usize) -> String {
    let kernel = kernel_by_name(name).expect("registered kernel");
    let args = kernel.args(iters);
    let mut entries = Vec::new();
    for &mode in &DYN_MODES {
        let label = pipeline_code(mode);
        let mut f = kernel.build();
        let (report, _) = compile(&mut f, mode);
        let decisions = report.as_ref().map(decision_map).unwrap_or_default();
        let model = CostModel::default();
        match check_hotness(&f, &args, &model, &ExecOptions::default(), decisions) {
            Ok(Some(profile)) => entries.push(HotEntry {
                kernel: kernel.name.to_string(),
                label: label.to_string(),
                dyn_insts: profile.total_ops(),
                profile,
            }),
            Ok(None) => panic!("{name}/{label}: jit declined a flagship kernel"),
            Err(e) => panic!("{name}/{label}: hotness reconciliation failed: {e}"),
        }
    }
    HotDoc {
        mode: HotMode::Instrumented,
        entries,
    }
    .to_json()
}

fn compare_golden(name: &str, iters: usize) {
    if !snslp_jit::native_supported() {
        eprintln!("skipping {name} hot golden: native backend unavailable");
        return;
    }
    let actual = render_kernel(name, iters);
    // The golden must stay a valid, strictly-readable artifact.
    let doc = HotDoc::from_json(&actual)
        .unwrap_or_else(|e| panic!("{name}: rendered artifact fails its own reader: {e}"));
    assert_eq!(doc.entries.len(), DYN_MODES.len());

    let path = golden_path(name);
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with SNSLP_BLESS=1"));
    assert_eq!(
        actual, expected,
        "hot artifact for `{name}` diverged from {path:?}; \
         rerun with SNSLP_BLESS=1 if intentional"
    );
}

#[test]
fn motivating_kernel_hot_artifact_is_stable() {
    compare_golden("motiv_leaf", 4);
}

#[test]
fn povray_kernel_hot_artifact_is_stable() {
    compare_golden("povray_shade", 4);
}
