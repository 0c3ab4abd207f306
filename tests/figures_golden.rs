//! Golden test for `snslp-bench figures all ablation widths`, the command
//! whose output is checked in as `results/figures_output.txt`. Every line
//! of it is deterministic except Fig. 11's per-kernel compile-time rows
//! and the whole-run `stage.*` timers, which the comparison skips.
//! Regenerate after an intentional change with:
//!
//! ```text
//! SNSLP_BLESS=1 cargo test --test figures_golden
//! ```
//!
//! The `jit_*` counters come from native runs, so on hosts without the
//! native backend the test skips.

use std::path::PathBuf;
use std::process::Command;

/// The lines a rerun must reproduce, numbered from 1.
fn deterministic_lines(text: &str) -> Vec<(usize, &str)> {
    let kernels: Vec<&str> = snslp::kernels::registry().iter().map(|k| k.name).collect();
    let mut in_fig11 = false;
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("== ") {
            in_fig11 = line.starts_with("== Fig. 11");
        }
        let first = line.split_whitespace().next().unwrap_or("");
        let fig11_row = in_fig11 && kernels.contains(&first);
        if !fig11_row && !first.starts_with("stage.") {
            lines.push((i + 1, line));
        }
    }
    lines
}

#[test]
fn figures_output_matches_the_checked_in_run() {
    if !snslp::jit::native_supported() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_snslp-bench"))
        .args(["figures", "all", "ablation", "widths"])
        .env_remove("SNSLP_TRACE")
        .output()
        .expect("snslp-bench runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("UTF-8 output");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/figures_output.txt");
    if std::env::var_os("SNSLP_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("checked-in figures output");
    let (actual, expected) = (deterministic_lines(&actual), deterministic_lines(&expected));
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(
            a.1, e.1,
            "output line {} differs from {path:?} line {}; \
             rerun with SNSLP_BLESS=1 if intentional",
            a.0, e.0
        );
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "output and {path:?} differ in length; rerun with SNSLP_BLESS=1 if intentional"
    );
}
