//! Machine-readable bench reports: the schema for the compile-time
//! benchmark trajectory file `BENCH_compile_time.json` checked in at the
//! repository root.
//!
//! The checked-in file is the baseline `snslp-bench check compile` compares
//! fresh measurements against in CI: a kernel
//! whose fresh SN-SLP mean exceeds `REGRESSION_FACTOR` times the
//! baseline mean fails the job.

use crate::json::{obj, read_text, round3, Json};

/// The schema tag every compile-time report carries; bump on breaking
/// format changes.
pub const COMPILE_TIME_SCHEMA: &str = "snslp-bench-compile-time/v1";

/// A fresh per-kernel mean may exceed the checked-in baseline by up to
/// this factor before `snslp-bench check compile` fails. Generous on purpose: CI
/// machines are noisy, and the job exists to catch algorithmic
/// regressions (quadratic blowups), not jitter.
pub const REGRESSION_FACTOR: f64 = 2.0;

// ---------------------------------------------------------------------
// Compile-time report schema.
// ---------------------------------------------------------------------

/// Statistics of a timing series, microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Mean over the timed runs.
    pub mean_us: f64,
    /// Sample standard deviation.
    pub sd_us: f64,
    /// Fastest run. The regression gate compares minima: the minimum is
    /// a stable lower bound on the true cost (scheduler blips only ever
    /// inflate samples), so it stays meaningful on noisy CI hosts where
    /// the mean of a 40µs kernel can swing well past 2x.
    pub min_us: f64,
}

/// One kernel's row of the compile-time report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Kernel name (registry name).
    pub name: String,
    /// One timing per pipeline: `("o3" | "slp" | "lslp" | "snslp", t)`.
    pub modes: Vec<(String, Timing)>,
    /// Look-ahead score cache hit rate under SN-SLP
    /// (`hits / (hits + misses)`), `None` when no scores were requested.
    pub cache_hit_rate: Option<f64>,
}

impl KernelTiming {
    /// Timing for a pipeline label.
    pub fn mode(&self, label: &str) -> Option<Timing> {
        self.modes.iter().find(|(l, _)| l == label).map(|&(_, t)| t)
    }
}

/// The whole compile-time report: the benchmark trajectory point that is
/// checked in and that CI re-measures against.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileTimeReport {
    /// Number of timed runs behind every mean.
    pub timed_runs: usize,
    /// One row per kernel, registry order.
    pub kernels: Vec<KernelTiming>,
}

impl CompileTimeReport {
    /// Renders the report as pretty JSON.
    pub fn to_json(&self) -> String {
        let kernels = self
            .kernels
            .iter()
            .map(|k| {
                let modes = k.modes.iter().map(|(label, t)| {
                    let timing = obj([
                        ("mean_us", round3(t.mean_us).into()),
                        ("sd_us", round3(t.sd_us).into()),
                        ("min_us", round3(t.min_us).into()),
                    ]);
                    (label.as_str(), timing)
                });
                obj([
                    ("name", k.name.as_str().into()),
                    ("modes", obj(modes)),
                    ("cache_hit_rate", k.cache_hit_rate.map(round3).into()),
                ])
            })
            .collect();
        obj([
            ("schema", COMPILE_TIME_SCHEMA.into()),
            ("timed_runs", self.timed_runs.into()),
            ("kernels", Json::Arr(kernels)),
        ])
        .render()
    }

    /// Parses and validates a report document.
    pub fn from_json(text: &str) -> Result<CompileTimeReport, String> {
        let report = read_text(text, COMPILE_TIME_SCHEMA, |o| {
            Ok(CompileTimeReport {
                timed_runs: o.usize("timed_runs")?,
                kernels: o.objs("kernels", |row| {
                    Ok(KernelTiming {
                        name: row.str("name")?.to_string(),
                        modes: row.obj("modes", |m| {
                            m.each(|m, label| {
                                m.obj(label, |t| {
                                    Ok(Timing {
                                        mean_us: t.f64("mean_us")?,
                                        sd_us: t.f64("sd_us")?,
                                        min_us: t.f64("min_us")?,
                                    })
                                })
                            })
                        })?,
                        cache_hit_rate: row.opt_f64("cache_hit_rate")?,
                    })
                })?,
            })
        })?;
        for k in &report.kernels {
            let name = &k.name;
            for (label, t) in &k.modes {
                if !(t.mean_us > 0.0 && t.sd_us >= 0.0) {
                    return Err(format!("kernel {name}/{label}: implausible timing"));
                }
                if !(t.min_us > 0.0 && t.min_us <= t.mean_us + 1e-9) {
                    return Err(format!("kernel {name}/{label}: implausible min_us"));
                }
            }
            if let Some(r) = k.cache_hit_rate.filter(|r| !(0.0..=1.0).contains(r)) {
                return Err(format!("kernel {name}: cache_hit_rate {r} out of range"));
            }
        }
        if report.kernels.is_empty() {
            return Err("report has no kernels".to_string());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileTimeReport {
        CompileTimeReport {
            timed_runs: 20,
            kernels: vec![KernelTiming {
                name: "milc_su3".to_string(),
                modes: vec![
                    (
                        "o3".to_string(),
                        Timing {
                            mean_us: 91.25,
                            sd_us: 2.0,
                            min_us: 88.5,
                        },
                    ),
                    (
                        "snslp".to_string(),
                        Timing {
                            mean_us: 120.5,
                            sd_us: 4.125,
                            min_us: 112.0,
                        },
                    ),
                ],
                cache_hit_rate: Some(0.75),
            }],
        }
    }

    #[test]
    fn report_round_trips() {
        let r = sample();
        let text = r.to_json();
        let back = CompileTimeReport::from_json(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(CompileTimeReport::from_json("{").is_err());
        assert!(CompileTimeReport::from_json("{}").is_err());
        assert!(CompileTimeReport::from_json(r#"{"schema": "other/v9"}"#).is_err());
        // Negative timing is implausible.
        let bad = sample().to_json().replace("91.25", "-1.0");
        assert!(CompileTimeReport::from_json(&bad).is_err());
    }
}
