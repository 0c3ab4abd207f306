//! A FileCheck-style harness over `.snir` fixtures: each file under
//! `tests/snir/` is parsed, compiled under the modes its directives name,
//! and checked against the expectations embedded in its comments.
//!
//! Directives (in `;`-comments anywhere in the file):
//!
//! ```text
//! ; RUN: slp lslp snslp            — modes to compile under
//! ; CHECK[snslp]: vectorized=1     — number of vectorized graphs
//! ; CHECK[snslp]: supernodes=2     — aggregate Super-Node size
//! ; CHECK[snslp]: contains=f64x2   — substring of the output IR
//! ; CHECK[lslp]:  not-contains=f64x2
//! ```
//!
//! Every compiled output is additionally verified and — when the fixture
//! has a `; INPUTS:` line of typed arrays — differentially executed
//! against the scalar original.

use std::collections::HashMap;
use std::path::PathBuf;

use snslp_core::{run_slp, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_interp::{check_equivalent, ArgSpec};
use snslp_ir::parse_function_str;

#[derive(Debug, Clone, PartialEq)]
enum Check {
    Vectorized(usize),
    Supernodes(u64),
    Contains(String),
    NotContains(String),
}

#[derive(Debug, Default)]
struct Fixture {
    runs: Vec<SlpMode>,
    checks: HashMap<&'static str, Vec<Check>>,
    inputs: Vec<ArgSpec>,
}

fn parse_fixture(text: &str) -> Fixture {
    let mut fx = Fixture::default();
    for line in text.lines() {
        let Some(comment) = line.trim().strip_prefix(';') else {
            continue;
        };
        let comment = comment.trim();
        if let Some(modes) = comment.strip_prefix("RUN:") {
            fx.runs = modes
                .split_whitespace()
                .map(|m| m.parse().unwrap_or_else(|e| panic!("fixture: {e}")))
                .collect();
        } else if let Some(rest) = comment.strip_prefix("CHECK[") {
            let (mode, check) = rest.split_once("]:").expect("CHECK[mode]: …");
            let key = mode
                .trim()
                .parse::<SlpMode>()
                .unwrap_or_else(|e| panic!("fixture: {e}"))
                .code();
            let check = check.trim();
            let parsed = if let Some(n) = check.strip_prefix("vectorized=") {
                Check::Vectorized(n.trim().parse().unwrap())
            } else if let Some(n) = check.strip_prefix("supernodes=") {
                Check::Supernodes(n.trim().parse().unwrap())
            } else if let Some(s) = check.strip_prefix("contains=") {
                Check::Contains(s.to_string())
            } else if let Some(s) = check.strip_prefix("not-contains=") {
                Check::NotContains(s.to_string())
            } else {
                panic!("unknown CHECK directive `{check}`");
            };
            fx.checks.entry(key).or_default().push(parsed);
        } else if let Some(spec) = comment.strip_prefix("INPUTS:") {
            fx.inputs = snslp_interp::parse_inputs_line(spec)
                .unwrap_or_else(|e| panic!("bad INPUTS line: {e}"));
        }
    }
    assert!(!fx.runs.is_empty(), "fixture has no RUN line");
    fx
}

fn run_fixture(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let fx = parse_fixture(&text);
    let name = path.file_name().unwrap().to_string_lossy();
    let orig = parse_function_str(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
    snslp_ir::verify(&orig).unwrap_or_else(|e| panic!("{name}: invalid fixture IR: {e}"));

    for &mode in &fx.runs {
        let mut f = orig.clone();
        let report = run_slp(&mut f, &SlpConfig::new(mode).with_verification());
        let out = f.to_string();
        for check in fx.checks.get(mode.code()).into_iter().flatten() {
            match check {
                Check::Vectorized(n) => assert_eq!(
                    report.vectorized_graphs(),
                    *n,
                    "{name} [{mode:?}]: vectorized graphs\n{out}"
                ),
                Check::Supernodes(n) => assert_eq!(
                    report.aggregate_super_node_size(),
                    *n,
                    "{name} [{mode:?}]: aggregate Super-Node size\n{out}"
                ),
                Check::Contains(s) => {
                    assert!(out.contains(s), "{name} [{mode:?}]: missing `{s}`\n{out}")
                }
                Check::NotContains(s) => {
                    assert!(!out.contains(s), "{name} [{mode:?}]: found `{s}`\n{out}")
                }
            }
        }
        if !fx.inputs.is_empty() {
            check_equivalent(&orig, &f, &fx.inputs, &CostModel::default())
                .unwrap_or_else(|e| panic!("{name} [{mode:?}]: behaviour changed: {e}"));
        }
    }
}

fn collect_snir(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_snir(&path, out);
        } else if path.extension().map(|e| e == "snir").unwrap_or(false) {
            out.push(path);
        }
    }
}

#[test]
fn all_snir_fixtures() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snir");
    let mut paths = Vec::new();
    collect_snir(&dir, &mut paths);
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures found in {dir:?}");
    for p in paths {
        run_fixture(&p);
    }
}
