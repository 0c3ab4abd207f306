//! Offline differential fuzzer CLI.
//!
//! ```text
//! snslp-fuzz run --seed 0xC60 --count 2000 --mode all [--reduce] \
//!     [--corpus DIR] [--max-findings K]
//! snslp-fuzz gen --seed 0xC60 --index 7
//! ```
//!
//! `run` generates `count` cases from `seed`, differentially checks each
//! one (scalar O3 and every requested vectorizer mode against the raw
//! original on identical inputs), and exits 1 if any divergence is
//! found; `gen` prints a single generated case for inspection. Usage
//! errors exit 2. Fully offline and deterministic.

use std::path::PathBuf;
use std::process::ExitCode;

use snslp_core::SlpMode;
use snslp_fuzz::{generate, inputs_line, run_fuzz, FuzzConfig, ALL_MODES};

fn usage() -> ExitCode {
    eprintln!(
        "usage: snslp-fuzz run --seed N --count M [--mode all|slp|lslp|snslp] \
         [--reduce] [--corpus DIR] [--max-findings K]\n       \
         snslp-fuzz gen --seed N --index I"
    );
    ExitCode::from(2)
}

/// Parses `N` or `0xN`.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_modes(s: &str) -> Option<Vec<SlpMode>> {
    match s {
        "all" => Some(ALL_MODES.to_vec()),
        _ => s.parse().ok().map(|m| vec![m]),
    }
}

fn main() -> ExitCode {
    if let Err(e) = snslp_trace::init_from_env() {
        eprintln!("snslp-fuzz: bad SNSLP_TRACE spec: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };

    let mut seed = 0xC60u64;
    let mut count = 1000u64;
    let mut index = 0u64;
    let mut modes = ALL_MODES.to_vec();
    let mut do_reduce = false;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut max_findings = 8usize;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--seed" => match value(&mut i).as_deref().and_then(parse_u64) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--count" => match value(&mut i).as_deref().and_then(parse_u64) {
                Some(v) => count = v,
                None => return usage(),
            },
            "--index" => match value(&mut i).as_deref().and_then(parse_u64) {
                Some(v) => index = v,
                None => return usage(),
            },
            "--mode" => match value(&mut i).as_deref().and_then(parse_modes) {
                Some(v) => modes = v,
                None => return usage(),
            },
            "--max-findings" => match value(&mut i).as_deref().and_then(parse_u64) {
                Some(v) => max_findings = v as usize,
                None => return usage(),
            },
            "--corpus" => match value(&mut i) {
                Some(v) => corpus_dir = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--reduce" => do_reduce = true,
            _ => return usage(),
        }
        i += 1;
    }

    match command.as_str() {
        "gen" => {
            let case = generate(seed, index);
            println!("; seed={seed:#x} index={index}");
            println!("; INPUTS: {}", inputs_line(&case.args));
            print!("{}", case.function);
            ExitCode::SUCCESS
        }
        "run" => {
            let cfg = FuzzConfig {
                seed,
                count,
                modes,
                reduce: do_reduce,
                corpus_dir,
                max_findings,
                ..FuzzConfig::new(seed, count)
            };
            let report = run_fuzz(&cfg);
            for finding in &report.findings {
                eprintln!("FAIL: {}", finding.divergence);
                if let Some(p) = &finding.fixture {
                    eprintln!("  reproducer: {}", p.display());
                }
                if let Some(p) = &finding.reduced_fixture {
                    let detail = finding
                        .reduce_stats
                        .as_ref()
                        .map(|s| format!(" ({} -> {} insts)", s.insts_before, s.insts_after))
                        .unwrap_or_default();
                    eprintln!("  minimized:  {}{detail}", p.display());
                }
                if finding.fixture.is_none() {
                    eprintln!("--- failing function ---\n{}", finding.divergence.function);
                }
            }
            println!("{}", report.summary());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
