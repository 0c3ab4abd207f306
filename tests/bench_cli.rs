//! The `snslp-bench` command-line contract: exit 0 ok, 1 a gate or diff
//! failed, 2 usage error, 3 an artifact could not be read or parsed
//! (the message names its path).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn snslp_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snslp-bench"))
        .args(args)
        .output()
        .expect("snslp-bench runs")
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snslp-bench-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn usage_errors_exit_2() {
    let cases: [&[&str]; 10] = [
        &["nosuch"],
        &["report", "collect", "--bogus"],
        &["report", "collect", "--out"],
        &["stats", "collect"],
        &["stats", "diff"],
        &["figures", "nosuch"],
        &["figures", "--iters", "abc"],
        &["serve"],
        &["check", "compile"],
        &["check", "serve"],
    ];
    for args in cases {
        let out = snslp_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: snslp-bench"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_missing_or_truncated_artifact_exits_3_and_names_its_path() {
    let dir = scratch("artifact");
    let missing = dir.join("missing.json");
    let truncated = dir.join("truncated.json");
    let baseline = std::fs::read_to_string(repo_path("BENCH_dyn.json")).expect("baseline");
    std::fs::write(&truncated, &baseline[..baseline.len() / 2]).expect("write truncated copy");
    for (command, path) in [("report validate", &missing), ("check dyn", &truncated)] {
        let mut args: Vec<&str> = command.split(' ').collect();
        args.push(path.to_str().expect("UTF-8 path"));
        let out = snslp_bench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{command}: {stderr}");
        assert!(
            stderr.contains(&*path.to_string_lossy()),
            "{command}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn report_diff_is_clean_against_itself_and_fails_on_a_bumped_counter() {
    let dir = scratch("report");
    let base = dir.join("base.json");
    let bumped = dir.join("bumped.json");
    let fixture = repo_path("crates/core/tests/snir/fig3_trunk_reorder.snir");
    let out = snslp_bench(&[
        "report",
        "collect",
        "--out",
        base.to_str().expect("UTF-8 path"),
        fixture.to_str().expect("UTF-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&base).expect("collected report");
    // Prefixing a digit bumps the first function's counter.
    let counter = "\"bundles_attempted\": ";
    assert!(text.contains(counter), "{text}");
    std::fs::write(&bumped, text.replacen(counter, &format!("{counter}1"), 1))
        .expect("write bumped copy");

    let diff = |new: &Path| {
        snslp_bench(&[
            "report",
            "diff",
            base.to_str().expect("UTF-8 path"),
            new.to_str().expect("UTF-8 path"),
        ])
    };
    let same = diff(&base);
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    let changed = diff(&bumped);
    let stdout = String::from_utf8_lossy(&changed.stdout);
    assert_eq!(changed.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("bundles_attempted"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `snslpc --stats` prints to stderr only; the `--stats=FILE` document is
/// gone, so the form with a value is a usage error.
#[test]
fn snslpc_stats_takes_no_file() {
    let fixture = repo_path("crates/core/tests/snir/fig3_trunk_reorder.snir");
    let fixture = fixture.to_str().expect("UTF-8 path");
    let snslpc = |flag: &str| {
        Command::new(env!("CARGO_BIN_EXE_snslpc"))
            .args([flag, fixture])
            .output()
            .expect("snslpc runs")
    };
    let with_file = snslpc("--stats=x.json");
    assert_eq!(with_file.status.code(), Some(2));
    let plain = snslpc("--stats");
    let stderr = String::from_utf8_lossy(&plain.stderr);
    assert!(plain.status.success(), "{stderr}");
    assert!(stderr.contains("vectorized"), "{stderr}");
}
