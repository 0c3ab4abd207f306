//! # snslp-fuzz
//!
//! Offline differential fuzzing for the SN-SLP pipeline: a deterministic
//! typed-IR [generator](gen), an execution [oracle](oracle) that runs
//! every module through the scalar O3 pipeline and through the
//! vectorizer at each mode on identical inputs, and a ddmin-style
//! [reducer](reduce) that shrinks failures to minimal re-parseable
//! reproducers for the [corpus](corpus).
//!
//! Everything is reproducible from a single CLI seed (the crate carries
//! its own [PRNG](rng)) and runs fully offline — no external crates, no
//! network, no wall-clock dependence.
//!
//! # Examples
//!
//! ```
//! use snslp_fuzz::{run_fuzz, FuzzConfig};
//!
//! let report = run_fuzz(&FuzzConfig::new(0xC60, 25));
//! assert!(report.is_clean());
//! assert_eq!(report.cases, 25);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod rng;

use std::path::PathBuf;

use snslp_core::SlpMode;
use snslp_cost::CostModel;
use snslp_trace::{MetricsSnapshot, Span};

pub use corpus::{fixture_name, inputs_line, render_fixture, write_fixture};
pub use gen::{generate, Case};
pub use oracle::{check_case, compare, execute, CaseOutcome, Divergence, Outcome};
pub use reduce::{reduce, ReduceStats};
pub use rng::Rng;

/// All three vectorizer modes, in ascending power.
pub const ALL_MODES: [SlpMode; 3] = [SlpMode::Slp, SlpMode::Lslp, SlpMode::SnSlp];

/// Configuration for one fuzzing batch.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Batch seed; together with a case index it determines a case.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub count: u64,
    /// Modes to differentiate against the scalar baseline.
    pub modes: Vec<SlpMode>,
    /// Shrink each failing case to a minimal reproducer.
    pub reduce: bool,
    /// Directory to write reproducer fixtures into (raw and, with
    /// [`FuzzConfig::reduce`], minimized).
    pub corpus_dir: Option<PathBuf>,
    /// Cost model shared by the pass and the interpreter.
    pub model: CostModel,
    /// Stop after this many divergences (a miscompile that fires on many
    /// cases would otherwise flood the corpus).
    pub max_findings: usize,
}

impl FuzzConfig {
    /// A default configuration: all modes, no reduction, no corpus.
    pub fn new(seed: u64, count: u64) -> Self {
        FuzzConfig {
            seed,
            count,
            modes: ALL_MODES.to_vec(),
            reduce: false,
            corpus_dir: None,
            model: CostModel::default(),
            max_findings: 8,
        }
    }
}

/// One divergence plus the artifacts produced for it.
#[derive(Debug)]
pub struct Finding {
    /// The divergence as reported by the oracle.
    pub divergence: Divergence,
    /// Where the raw reproducer was written, when a corpus is configured.
    pub fixture: Option<PathBuf>,
    /// Where the minimized reproducer was written.
    pub reduced_fixture: Option<PathBuf>,
    /// Reduction statistics, when reduction ran.
    pub reduce_stats: Option<ReduceStats>,
}

/// Result of a fuzzing batch.
#[derive(Debug)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: u64,
    /// Cases whose baseline execution trapped (traps are compared as
    /// outcomes, not skipped).
    pub trapped_cases: u64,
    /// Total graphs vectorized per mode, across all clean cases.
    pub vectorized_per_mode: Vec<(SlpMode, u64)>,
    /// Pass metrics accumulated over the whole batch (delta).
    pub metrics: MetricsSnapshot,
    /// Divergences found, with their artifacts.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// `true` when no divergence was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Multi-line human-readable summary (used verbatim by the CLI).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cases: {} ({} trapped in baseline)",
            self.cases, self.trapped_cases
        );
        for (mode, v) in &self.vectorized_per_mode {
            let _ = writeln!(s, "vectorized[{}]: {v} graphs", mode.code());
        }
        let _ = writeln!(s, "metrics delta: {}", self.metrics.machine());
        let _ = write!(s, "divergences: {}", self.findings.len());
        s
    }
}

/// Runs one fuzzing batch: generate, differentially check, and (when
/// configured) reduce and persist every failing case.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let span = Span::enter("fuzz.batch");
    span.note("seed", cfg.seed as i64);
    span.note("count", cfg.count as i64);
    let before = MetricsSnapshot::current();

    let mut vectorized_per_mode: Vec<(SlpMode, u64)> = cfg.modes.iter().map(|&m| (m, 0)).collect();
    let mut findings = Vec::new();
    let mut trapped_cases = 0u64;
    let mut cases = 0u64;

    for index in 0..cfg.count {
        cases += 1;
        let case = gen::generate(cfg.seed, index);
        match oracle::check_case(&case, &cfg.model, &cfg.modes) {
            Ok(outcome) => {
                if outcome.baseline_trap.is_some() {
                    trapped_cases += 1;
                }
                for (slot, rep) in vectorized_per_mode.iter_mut().zip(&outcome.reports) {
                    slot.1 += rep.vectorized_graphs() as u64;
                }
            }
            Err(divergence) => {
                snslp_trace::trace_event!(
                    "fuzz.divergence",
                    "stage" => divergence.stage.as_str(),
                    "index" => index as i64,
                );
                findings.push(persist_finding(cfg, &case, *divergence));
                if findings.len() >= cfg.max_findings {
                    break;
                }
            }
        }
    }

    FuzzReport {
        cases,
        trapped_cases,
        vectorized_per_mode,
        metrics: MetricsSnapshot::current().delta_since(&before),
        findings,
    }
}

/// Writes corpus artifacts for one divergence and optionally reduces it.
fn persist_finding(cfg: &FuzzConfig, case: &Case, divergence: Divergence) -> Finding {
    // Only non-trapping cases get an `INPUTS:` line: the filecheck
    // harness treats a trapping original run as a test error.
    let runs_clean = |c: &Case| {
        matches!(
            oracle::execute(&c.function, &c.args, &cfg.model),
            Ok(Outcome::Ran(_))
        )
    };
    let fixture = cfg
        .corpus_dir
        .as_ref()
        .and_then(|dir| write_fixture(dir, case, Some(&divergence), runs_clean(case), false).ok());
    let (reduced_fixture, reduce_stats) = if cfg.reduce {
        let (min, stats) = reduce::reduce(case, |c| {
            oracle::check_case(c, &cfg.model, &cfg.modes).is_err()
        });
        let path = cfg.corpus_dir.as_ref().and_then(|dir| {
            write_fixture(dir, &min, Some(&divergence), runs_clean(&min), true).ok()
        });
        (path, Some(stats))
    } else {
        (None, None)
    };
    Finding {
        divergence,
        fixture,
        reduced_fixture,
        reduce_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_batch_reports_aggregates() {
        let report = run_fuzz(&FuzzConfig::new(0xC60, 60));
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert_eq!(report.cases, 60);
        assert_eq!(report.vectorized_per_mode.len(), 3);
        // The generator is biased toward vectorizable shapes; a batch of
        // 60 where nothing vectorizes would mean the bias is broken.
        let total: u64 = report.vectorized_per_mode.iter().map(|(_, v)| v).sum();
        assert!(total > 0, "no graphs vectorized in the whole batch");
        let summary = report.summary();
        assert!(summary.contains("divergences: 0"));
    }

    #[test]
    fn batches_are_reproducible() {
        let a = run_fuzz(&FuzzConfig::new(9, 40));
        let b = run_fuzz(&FuzzConfig::new(9, 40));
        assert_eq!(a.trapped_cases, b.trapped_cases);
        assert_eq!(a.vectorized_per_mode, b.vectorized_per_mode);
    }
}
