//! Summary statistics over timing samples, and the peak-memory probe.

use snslp_trace::hist::percentile;

/// Nearest-rank percentile `p` (0–100) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 50.0)
}

/// Geometric mean; NaN when empty or when any value is not positive, so a
/// missing kernel can never pass as a plausible number.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The fastest of repeated measurements of the same work.
///
/// Other tenants of a shared host slow the machine for seconds at a time,
/// by up to 1.7× on the 2-core host this benchmark was tuned on, and a
/// whole run can fall into such a stretch. They only ever add time, and
/// short unslowed moments occur even inside slowed stretches, so the
/// fastest of a run's repeats reads the unslowed machine.
#[derive(Debug, Clone, Copy)]
pub struct Fastest {
    /// The smallest value seen; infinite before the first.
    pub value: f64,
    /// Measurements seen.
    pub samples: usize,
}

impl Default for Fastest {
    fn default() -> Self {
        Fastest {
            value: f64::INFINITY,
            samples: 0,
        }
    }
}

impl Fastest {
    /// Adds one measurement.
    pub fn add(&mut self, v: f64) {
        self.value = self.value.min(v);
        self.samples += 1;
    }
}

/// Nearest-rank percentile `p` of the items' fastest values, and the
/// measurements behind them. Items never measured are left out (their
/// failures are counted elsewhere).
pub fn fastest_quantile(items: &[Fastest], p: f64) -> (f64, usize) {
    let values: Vec<f64> = items
        .iter()
        .filter(|f| f.samples > 0)
        .map(|f| f.value)
        .collect();
    (quantile(&values, p), items.iter().map(|f| f.samples).sum())
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB. `pid` is a
/// number or `self`.
///
/// # Errors
///
/// The process is gone or its status file has no `VmHWM` line.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
