//! `perfbench` — the SN-SLP benchmark harness.
//!
//! Usage:
//!   `perfbench --workload kernels|compile|serve --seed N --seconds S --trace 0|1`
//!
//! Prints one human-readable line per metric (value, unit, sample count)
//! and, as the last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones plus the blocking-step breakdowns on standard error. The daemon
//! under test is the `snslpd` built next to this executable.

use std::process::ExitCode;

use perfbench::{Options, Workload};
use snslp_bench::json::Json;

const USAGE: &str =
    "usage: perfbench --workload kernels|compile|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let snslpd = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .with_file_name("snslpd");
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        snslpd,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&opts);
    let _ = std::fs::remove_dir(perfbench::serve::SOCKET_DIR);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    for failure in &report.tally.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    for b in &report.breakdowns {
        eprintln!(
            "perfbench: breakdown {} ({:.3} us per operation):",
            b.name, b.whole_us
        );
        for (part, us) in &b.parts {
            eprintln!("  + {part:<22} {us:>12.3} us");
        }
        match b.check() {
            Ok(()) => eprintln!("  = {:.3} us: sums to the whole", b.sum_us()),
            Err(e) => eprintln!("  BROKEN: {e}"),
        }
    }
    let metrics = report.metrics(opts.trace);
    println!(
        "# workload {} seed {} trace {}: {} operations, {} failed",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.tally.attempted,
        report.tally.failed
    );
    for m in metrics {
        println!(
            "{:<34} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let num = |v: f64| Json::Num(if v.is_finite() { v } else { 0.0 });
    let doc = Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(report.correct(opts.trace)),
        ),
        ("attempted".to_string(), num(report.tally.attempted as f64)),
        ("failed".to_string(), num(report.tally.failed as f64)),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".to_string(), num(m.value)),
                                ("unit".to_string(), Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.render_compact());
    ExitCode::SUCCESS
}
