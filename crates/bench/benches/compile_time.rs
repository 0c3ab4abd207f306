//! Bench for the paper's Fig. 11: wall-clock compilation time of each
//! kernel under O3 (cleanup only), SLP, LSLP, and SN-SLP.
//!
//! The paper's claim: "Super-Node SLP does not introduce any significant
//! compilation-time overhead" — compare the `LSLP` and `SN-SLP` columns.
//!
//! Plain `fn main()` harness (no external bench framework) so the
//! workspace builds offline; run with `cargo bench --bench compile_time`.
//!
//! Pass `--report <path>` to also emit the machine-readable JSON report
//! (schema `snslp-bench-compile-time/v1`). The checked-in
//! `BENCH_compile_time.json` at the repository root is a snapshot of this
//! output and the baseline CI's `snslp-bench check compile` compares
//! against.
//!
//! Pass `--profile <path>` to also write a Chrome-trace/Perfetto profile
//! of the measured compilations (spans from the `snslp-prof` layer) —
//! handy for seeing *where* a compile-time regression lives.

use snslp_bench::measure_compile_times;

const WARMUP_RUNS: usize = 3;
const TIMED_RUNS: usize = 20;

fn main() {
    if let Err(e) = snslp_trace::init_from_env() {
        eprintln!("compile_time: {e}");
        std::process::exit(2);
    }
    // Cargo passes `--bench` (and possibly filter args) to the harness;
    // only `--report <path>` and `--profile <path>` are meaningful here.
    let mut args = std::env::args().skip(1);
    let mut report_path = None;
    let mut profile_path = None;
    while let Some(arg) = args.next() {
        if arg == "--report" {
            report_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--report needs a path");
                std::process::exit(2);
            }));
        } else if arg == "--profile" {
            profile_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--profile needs a path");
                std::process::exit(2);
            }));
        }
    }
    if profile_path.is_some() {
        snslp_trace::set_facets(snslp_trace::facets() | snslp_trace::Facet::Prof as u32);
    }

    let report = measure_compile_times(WARMUP_RUNS, TIMED_RUNS);

    println!("compile_time: {TIMED_RUNS} timed runs per entry, mean ± sd (µs)");
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>14} {:>6}",
        "kernel", "o3", "slp", "lslp", "sn-slp", "cache"
    );
    for k in &report.kernels {
        let cell = |label: &str| {
            let t = k.mode(label).expect("all pipelines measured");
            format!("{:.1}±{:.1}", t.mean_us, t.sd_us)
        };
        let cache = match k.cache_hit_rate {
            Some(r) => format!("{:.0}%", 100.0 * r),
            None => "-".to_string(),
        };
        println!(
            "{:<24} {:>14} {:>14} {:>14} {:>14} {:>6}",
            k.name,
            cell("o3"),
            cell("slp"),
            cell("lslp"),
            cell("snslp"),
            cache
        );
    }

    if let Some(path) = report_path {
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        println!("report written to {path}");
    }
    if let Some(path) = profile_path {
        let profile = snslp_trace::prof::take_profile();
        std::fs::write(&path, profile.to_chrome_json()).unwrap_or_else(|e| {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        });
        println!("profile written to {path}");
    }
}
