//! Corpus-wide pass statistics: aggregation, a versioned JSON schema
//! (`snslp-stats/v1`), and run-to-run diffing.
//!
//! In the spirit of LLVM's `-stats` plus its `compare_stats` utility: one
//! [`FunctionStats`] row per compiled function — pass counters, per-stage
//! wall time, and remark-reason histogram straight off the
//! [`FunctionReport`] — aggregated into a [`StatsReport`] for a whole
//! corpus, serialized with the same hand-rolled [`Json`] the bench
//! reports use, and diffed by [`diff`] into counter deltas, remark-reason
//! churn, and gated stage-time regressions.
//!
//! Everything except stage times is deterministic for a fixed corpus and
//! mode, so `diff` between two honest runs of the same build reports
//! nothing: counters compare exactly, and stage-time rows only fire past
//! both a ratio gate and an absolute floor (see [`DiffGates`]).

use std::collections::BTreeMap;

use snslp_core::pass::FunctionReport;
use snslp_core::{run_slp, SlpConfig, SlpMode};
use snslp_ir::Module;
use snslp_trace::{Counter, Stage};

use crate::json::{obj, read_text, round3, Json, View};

/// Schema identifier embedded in every stats file.
pub const STATS_SCHEMA: &str = "snslp-stats/v1";

/// Aggregated statistics for one function of a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionStats {
    /// Corpus unit the function came from (kernel name or file stem).
    pub unit: String,
    /// Function name.
    pub function: String,
    /// Seed-bundle graphs attempted.
    pub graphs: u64,
    /// Graphs actually vectorized.
    pub vectorized: u64,
    /// Every [`Counter`] of the metrics registry, in `Counter::ALL` order.
    pub counters: Vec<(String, u64)>,
    /// Per-stage wall time in microseconds, in `Stage::ALL` order.
    pub stage_us: Vec<(String, f64)>,
    /// Remark-reason histogram (`reason code -> count`), sorted by code.
    pub reasons: Vec<(String, u64)>,
}

impl FunctionStats {
    /// Distills one [`FunctionReport`] into a stats row.
    pub fn from_report(unit: &str, report: &FunctionReport) -> FunctionStats {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), report.metrics.get(c)))
            .collect();
        let stage_us = Stage::ALL
            .iter()
            .map(|&s| {
                (
                    s.name().to_string(),
                    report.metrics.stage_nanos(s) as f64 / 1e3,
                )
            })
            .collect();
        let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
        for remark in &report.remarks {
            *reasons.entry(remark.reason.code().to_string()).or_insert(0) += 1;
        }
        FunctionStats {
            unit: unit.to_string(),
            function: report.function.clone(),
            graphs: report.graphs.len() as u64,
            vectorized: report.vectorized_graphs() as u64,
            counters,
            stage_us,
            reasons: reasons.into_iter().collect(),
        }
    }

    /// `unit/@function`, the row key used by [`diff`].
    pub fn key(&self) -> String {
        format!("{}/@{}", self.unit, self.function)
    }

    fn to_json(&self) -> Json {
        let counts = |m: &[(String, u64)]| obj(m.iter().map(|(k, v)| (k.as_str(), (*v).into())));
        obj([
            ("unit", self.unit.as_str().into()),
            ("function", self.function.as_str().into()),
            ("graphs", self.graphs.into()),
            ("vectorized", self.vectorized.into()),
            ("counters", counts(&self.counters)),
            (
                "stage_us",
                obj(self
                    .stage_us
                    .iter()
                    .map(|(k, v)| (k.as_str(), round3(*v).into()))),
            ),
            ("reasons", counts(&self.reasons)),
        ])
    }

    fn from_json(o: &mut View) -> Result<FunctionStats, String> {
        Ok(FunctionStats {
            unit: o.str("unit")?.to_string(),
            function: o.str("function")?.to_string(),
            graphs: o.u64("graphs")?,
            vectorized: o.u64("vectorized")?,
            counters: o.obj("counters", |m| m.each(View::u64))?,
            stage_us: o.obj("stage_us", |m| m.each(View::f64))?,
            reasons: o.obj("reasons", |m| m.each(View::u64))?,
        })
    }
}

/// A whole corpus run: mode plus one row per function, in corpus order.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Vectorizer mode label the corpus ran under (e.g. `snslp`).
    pub mode: String,
    /// One row per compiled function.
    pub functions: Vec<FunctionStats>,
}

impl StatsReport {
    /// Assembles a report from `(unit, report)` pairs.
    pub fn from_reports<'a, I>(mode: &str, reports: I) -> StatsReport
    where
        I: IntoIterator<Item = (&'a str, &'a FunctionReport)>,
    {
        StatsReport {
            mode: mode.to_string(),
            functions: reports
                .into_iter()
                .map(|(unit, r)| FunctionStats::from_report(unit, r))
                .collect(),
        }
    }

    /// Serializes to the `snslp-stats/v1` JSON document.
    pub fn to_json(&self) -> String {
        obj([
            ("schema", STATS_SCHEMA.into()),
            ("mode", self.mode.as_str().into()),
            (
                "functions",
                Json::Arr(self.functions.iter().map(FunctionStats::to_json).collect()),
            ),
        ])
        .render()
    }

    /// Parses a `snslp-stats/v1` document.
    pub fn from_json(text: &str) -> Result<StatsReport, String> {
        read_text(text, STATS_SCHEMA, |o| {
            Ok(StatsReport {
                mode: o.str("mode")?.to_string(),
                functions: o.objs("functions", FunctionStats::from_json)?,
            })
        })
    }

    /// Human summary: totals across the corpus, one line per counter.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        let (mut graphs, mut vectorized) = (0u64, 0u64);
        for f in &self.functions {
            graphs += f.graphs;
            vectorized += f.vectorized;
            for (name, v) in &f.counters {
                if !totals.contains_key(name.as_str()) {
                    order.push(name);
                }
                *totals.entry(name).or_insert(0) += v;
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "snslp-stats [{}]: {} functions, {vectorized}/{graphs} graphs vectorized",
            self.mode,
            self.functions.len()
        );
        for name in order {
            let _ = writeln!(out, "  {:<24} {}", name, totals[name]);
        }
        out
    }
}

/// Runs every kernel of the evaluation registry under `mode` and returns
/// one stats row per kernel function. The default corpus of
/// `snslp-bench stats collect`.
pub fn collect_kernel_stats(mode: SlpMode) -> StatsReport {
    let cfg = SlpConfig::new(mode);
    let pairs: Vec<(String, FunctionReport)> = snslp_kernels::registry()
        .iter()
        .map(|kernel| {
            let mut f = kernel.build();
            (kernel.name.to_string(), run_slp(&mut f, &cfg))
        })
        .collect();
    StatsReport::from_reports(
        mode.code(),
        pairs.iter().map(|(unit, r)| (unit.as_str(), r)),
    )
}

/// One module holding the scalar IR of every registry kernel — the corpus
/// `snslp-bench stats emit-corpus` writes for `snslpc`-based smoke runs.
pub fn kernel_corpus_module() -> Module {
    let mut module = Module::new("kernel_corpus");
    for kernel in snslp_kernels::registry() {
        module.add_function(kernel.build());
    }
    module
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// Thresholds separating noise from regressions in [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffGates {
    /// A stage time must grow by more than this factor...
    pub stage_ratio: f64,
    /// ...*and* by more than this many microseconds to count. The floor
    /// keeps two honest runs of a small corpus from flagging scheduler
    /// jitter on sub-millisecond stages.
    pub stage_floor_us: f64,
}

impl Default for DiffGates {
    fn default() -> Self {
        // Mirror the `check compile` gate (2x) with a 500us
        // absolute floor.
        DiffGates {
            stage_ratio: 2.0,
            stage_floor_us: 500.0,
        }
    }
}

/// One changed value: a counter, reason count, or stage time of one
/// function.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// `unit/@function` the change is in.
    pub key: String,
    /// Which counter / reason / stage changed.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// New value.
    pub new: f64,
}

impl DeltaRow {
    /// Absolute change (sort key for the top-N table).
    pub fn magnitude(&self) -> f64 {
        (self.new - self.base).abs()
    }

    /// `new / base`, with 0/0 = 1 and x/0 = infinity.
    pub fn ratio(&self) -> f64 {
        if self.base == 0.0 {
            if self.new == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.base
        }
    }
}

/// Result of diffing two stats reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsDiff {
    /// Function keys present in the baseline but not the new run.
    pub missing: Vec<String>,
    /// Function keys present in the new run but not the baseline.
    pub added: Vec<String>,
    /// Changed deterministic values (counters, graphs, vectorized),
    /// sorted by descending magnitude.
    pub counter_deltas: Vec<DeltaRow>,
    /// Changed remark-reason counts, sorted by descending magnitude.
    pub reason_churn: Vec<DeltaRow>,
    /// Stage times past both [`DiffGates`] thresholds, sorted by
    /// descending magnitude.
    pub stage_regressions: Vec<DeltaRow>,
}

impl StatsDiff {
    /// Anything to report?
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty()
            || !self.added.is_empty()
            || !self.counter_deltas.is_empty()
            || !self.reason_churn.is_empty()
            || !self.stage_regressions.is_empty()
    }

    /// Renders the diff as a top-N table per section (all rows when
    /// `top_n` is 0). Empty string when nothing changed.
    pub fn render(&self, top_n: usize) -> String {
        use std::fmt::Write as _;
        if !self.has_regressions() {
            return String::new();
        }
        let mut out = String::new();
        for key in &self.missing {
            let _ = writeln!(out, "missing from new run: {key}");
        }
        for key in &self.added {
            let _ = writeln!(out, "added in new run: {key}");
        }
        let section = |out: &mut String, title: &str, rows: &[DeltaRow], unit: &str| {
            if rows.is_empty() {
                return;
            }
            let shown = if top_n == 0 {
                rows.len()
            } else {
                rows.len().min(top_n)
            };
            let _ = writeln!(out, "{title} (top {shown} of {}):", rows.len());
            let _ = writeln!(
                out,
                "  {:<44} {:>14} {:>14} {:>8}",
                "function / name", "base", "new", "ratio"
            );
            for row in &rows[..shown] {
                let ratio = row.ratio();
                let ratio = if ratio.is_finite() {
                    format!("{ratio:.2}x")
                } else {
                    "inf".to_string()
                };
                let _ = writeln!(
                    out,
                    "  {:<44} {:>14} {:>14} {:>8}",
                    format!("{} {}", row.key, row.name),
                    format!("{}{unit}", trim_num(row.base)),
                    format!("{}{unit}", trim_num(row.new)),
                    ratio,
                );
            }
        };
        section(&mut out, "counter deltas", &self.counter_deltas, "");
        section(&mut out, "remark-reason churn", &self.reason_churn, "");
        section(
            &mut out,
            "stage-time regressions",
            &self.stage_regressions,
            "us",
        );
        out
    }
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Diffs two corpus runs. Deterministic values (counters, graph counts,
/// remark reasons) report every change; stage times only past `gates`.
pub fn diff(base: &StatsReport, new: &StatsReport, gates: DiffGates) -> StatsDiff {
    let base_by_key: BTreeMap<String, &FunctionStats> =
        base.functions.iter().map(|f| (f.key(), f)).collect();
    let new_by_key: BTreeMap<String, &FunctionStats> =
        new.functions.iter().map(|f| (f.key(), f)).collect();

    let mut out = StatsDiff::default();
    for key in base_by_key.keys() {
        if !new_by_key.contains_key(key) {
            out.missing.push(key.clone());
        }
    }
    for key in new_by_key.keys() {
        if !base_by_key.contains_key(key) {
            out.added.push(key.clone());
        }
    }

    for (key, b) in &base_by_key {
        let Some(n) = new_by_key.get(key) else {
            continue;
        };
        let mut push_exact = |name: &str, bv: f64, nv: f64| {
            if bv != nv {
                out.counter_deltas.push(DeltaRow {
                    key: key.clone(),
                    name: name.to_string(),
                    base: bv,
                    new: nv,
                });
            }
        };
        push_exact("graphs", b.graphs as f64, n.graphs as f64);
        push_exact("vectorized", b.vectorized as f64, n.vectorized as f64);
        let b_counters: BTreeMap<&str, u64> =
            b.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let n_counters: BTreeMap<&str, u64> =
            n.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for name in b_counters.keys().chain(n_counters.keys()) {
            let bv = b_counters.get(name).copied().unwrap_or(0) as f64;
            let nv = n_counters.get(name).copied().unwrap_or(0) as f64;
            push_exact(name, bv, nv);
        }

        let b_reasons: BTreeMap<&str, u64> =
            b.reasons.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let n_reasons: BTreeMap<&str, u64> =
            n.reasons.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for name in b_reasons.keys().chain(n_reasons.keys()) {
            let bv = b_reasons.get(name).copied().unwrap_or(0) as f64;
            let nv = n_reasons.get(name).copied().unwrap_or(0) as f64;
            if bv != nv {
                out.reason_churn.push(DeltaRow {
                    key: key.clone(),
                    name: name.to_string(),
                    base: bv,
                    new: nv,
                });
            }
        }

        let b_stages: BTreeMap<&str, f64> =
            b.stage_us.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (name, &nv) in n.stage_us.iter().map(|(k, v)| (k.as_str(), v)) {
            let bv = b_stages.get(name).copied().unwrap_or(0.0);
            let grew_past_ratio = nv > bv * gates.stage_ratio;
            let grew_past_floor = nv - bv > gates.stage_floor_us;
            if grew_past_ratio && grew_past_floor {
                out.stage_regressions.push(DeltaRow {
                    key: key.clone(),
                    name: name.to_string(),
                    base: bv,
                    new: nv,
                });
            }
        }
    }

    // Dedup rows produced twice by the chained key iteration above.
    for rows in [
        &mut out.counter_deltas,
        &mut out.reason_churn,
        &mut out.stage_regressions,
    ] {
        rows.sort_by(|a, b| (&a.key, &a.name).cmp(&(&b.key, &b.name)));
        rows.dedup();
        rows.sort_by(|a, b| {
            b.magnitude()
                .partial_cmp(&a.magnitude())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (&a.key, &a.name).cmp(&(&b.key, &b.name)))
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(unit: &str, func: &str, hits: u64, misses: u64) -> FunctionStats {
        FunctionStats {
            unit: unit.to_string(),
            function: func.to_string(),
            graphs: 2,
            vectorized: 1,
            counters: vec![
                ("lookahead_cache_hits".to_string(), hits),
                ("lookahead_cache_misses".to_string(), misses),
            ],
            stage_us: vec![("graph_build".to_string(), 120.0)],
            reasons: vec![("profitable".to_string(), 1)],
        }
    }

    fn report(funcs: Vec<FunctionStats>) -> StatsReport {
        StatsReport {
            mode: "snslp".to_string(),
            functions: funcs,
        }
    }

    #[test]
    fn json_round_trip() {
        let r = report(vec![stats("k1", "f1", 10, 4), stats("k2", "f2", 0, 9)]);
        let parsed = StatsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = StatsReport::from_json("{\"schema\": \"nope/v9\"}").unwrap_err();
        assert!(err.contains("nope/v9"), "{err}");
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = report(vec![stats("k1", "f1", 10, 4)]);
        let mut b = a.clone();
        // Stage-time jitter below the gates must not fire.
        b.functions[0].stage_us[0].1 = 170.0;
        let d = diff(&a, &b, DiffGates::default());
        assert!(!d.has_regressions(), "{d:?}");
        assert!(d.render(10).is_empty());
    }

    #[test]
    fn counter_delta_is_surfaced_and_ranked() {
        let a = report(vec![stats("k1", "f1", 10, 4), stats("k2", "f2", 100, 5)]);
        // Injected regression: cache disabled in the new run — every hit
        // becomes a miss.
        let b = report(vec![stats("k1", "f1", 0, 14), stats("k2", "f2", 0, 105)]);
        let d = diff(&a, &b, DiffGates::default());
        assert!(d.has_regressions());
        assert_eq!(d.counter_deltas.len(), 4);
        // Largest magnitude first: f2's 100-hit swing.
        assert_eq!(d.counter_deltas[0].key, "k2/@f2");
        assert_eq!(d.counter_deltas[0].name, "lookahead_cache_hits");
        assert_eq!(d.counter_deltas[0].base, 100.0);
        assert_eq!(d.counter_deltas[0].new, 0.0);
        let table = d.render(3);
        assert!(table.contains("counter deltas"), "{table}");
        assert!(table.contains("k2/@f2 lookahead_cache_hits"), "{table}");
    }

    #[test]
    fn stage_regression_needs_both_gates() {
        let a = report(vec![stats("k1", "f1", 1, 1)]);
        // 10x growth but only +1.08ms-0.12ms... base 120us -> 1800us:
        // ratio 15x, delta 1680us — past both gates.
        let mut b = a.clone();
        b.functions[0].stage_us[0].1 = 1800.0;
        let d = diff(&a, &b, DiffGates::default());
        assert_eq!(d.stage_regressions.len(), 1);
        // Big ratio, small absolute delta: gated out.
        let mut c = a.clone();
        c.functions[0].stage_us[0].1 = 500.0;
        assert!(!diff(&a, &c, DiffGates::default()).has_regressions());
        // Big absolute delta, small ratio: gated out.
        let mut base_big = a.clone();
        base_big.functions[0].stage_us[0].1 = 10_000.0;
        let mut new_big = a.clone();
        new_big.functions[0].stage_us[0].1 = 11_000.0;
        assert!(!diff(&base_big, &new_big, DiffGates::default()).has_regressions());
    }

    #[test]
    fn missing_and_added_functions_are_reported() {
        let a = report(vec![stats("k1", "f1", 1, 1)]);
        let b = report(vec![stats("k2", "f2", 1, 1)]);
        let d = diff(&a, &b, DiffGates::default());
        assert_eq!(d.missing, vec!["k1/@f1".to_string()]);
        assert_eq!(d.added, vec!["k2/@f2".to_string()]);
        assert!(d.has_regressions());
    }
}
