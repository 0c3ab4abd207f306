//! End-to-end and per-layer benchmark of the SN-SLP toolchain.
//!
//! A run is a sequence of *rounds*. Every round exercises the three
//! paths a user of this repository waits on, each driven through the
//! crates' public functions:
//!
//! * **kernels** ([`kernels`]): the 12 Table I kernels compiled under O3
//!   and SN-SLP, lowered by the JIT and run natively;
//! * **compile** ([`compile`]): the `snslpc` path — seeded fuzz modules
//!   parsed and vectorized, no JIT;
//! * **serve** ([`serve`]): a fresh `snslpd` daemon answering two
//!   closed-loop clients that send `new`, `edit` and `repeat` requests.
//!
//! The workload names one of the three as the major phase: it gets
//! [`MAJOR`] times the work of the other two in every round. All three
//! run in every round so that every metric is measured on every
//! workload, and a change to one layer that costs another shows up
//! there. Rounds repeat until the requested seconds are used up.
//!
//! Every round replays the same seeded inputs (the kernels in a freshly
//! shuffled order, against a fresh daemon), so each kernel, module and
//! request is measured once per round, and its time is the fastest of its
//! replays ([`stats::Fastest`]). Percentiles and geomeans are taken over
//! the items' fastest times: they follow the inputs, not the moments in
//! which other tenants of a shared host slowed the machine.
//!
//! Input generation and daemon start-up are untimed and reported as
//! `setup_s`, the median over the run's rounds. Every output is checked
//! outside the timed regions; a failed check counts against `ok_ratio`.
//! A traced run (`--trace 1`) reports the per-layer metrics instead of
//! the end-to-end ones: its even rounds collect layer timings and counts,
//! its odd rounds do not, and the ratio between the two is the tracing
//! overhead.

use std::path::PathBuf;
use std::time::Instant;

use snslp_fuzz::rng::splitmix64;

pub mod compile;
pub mod kernels;
pub mod serve;
pub mod stats;

/// The three workloads, one per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Most work in native kernel execution.
    Kernels,
    /// Most work in parsing and vectorizing fuzz modules.
    Compile,
    /// Most work in `snslpd` requests.
    Serve,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Kernels, Workload::Compile, Workload::Serve];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::Compile => "compile",
            Workload::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much more work the workload's own phase does per round than each
/// of the other two.
pub const MAJOR: usize = 2;

/// Rounds a run makes at least, so `setup_s` is a median of several
/// set-ups and a traced run has both traced and untraced rounds.
pub const MIN_ROUNDS: usize = 3;

/// Work per round in each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quotas {
    /// Shuffled passes over all 12 kernels × {O3, SN-SLP}.
    pub kernel_sweeps: usize,
    /// Fuzz modules compiled.
    pub modules: usize,
    /// Requests each of the two clients sends; a multiple of 5.
    pub requests_per_client: usize,
}

impl Quotas {
    /// Base work of a minor phase; the major phase does [`MAJOR`] times
    /// as much. The kernels are few and fixed, so a few sweeps give each
    /// kernel hundreds of timed calls per run; fuzz modules and requests
    /// differ from each other, so their percentiles need many of them.
    pub const BASE: Quotas = Quotas {
        kernel_sweeps: 4,
        modules: 150,
        requests_per_client: 150,
    };

    /// The quotas of `workload`'s rounds.
    pub fn for_workload(workload: Workload) -> Quotas {
        let scale = |w: Workload| if w == workload { MAJOR } else { 1 };
        Quotas {
            kernel_sweeps: Self::BASE.kernel_sweeps * scale(Workload::Kernels),
            modules: Self::BASE.modules * scale(Workload::Compile),
            requests_per_client: Self::BASE.requests_per_client * scale(Workload::Serve),
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which phase gets the major share of each round.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Rounds repeat until this much wall time has passed.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `snslpd` executable to start for the serve phase.
    pub snslpd: PathBuf,
}

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: compiles, native calls, module compiles and
    /// request attempts.
    pub attempted: u64,
    /// Operations that failed, diverged or were refused.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 20 {
                    self.failures.push(e);
                }
                false
            }
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Samples kept apart by whether their round was traced.
#[derive(Debug, Default)]
pub struct Split<T> {
    /// Untraced rounds: the end-to-end numbers.
    pub plain: T,
    /// Traced rounds: the per-layer numbers.
    pub traced: T,
}

impl<T> Split<T> {
    /// The side a round's samples go to.
    pub fn pick(&mut self, traced: bool) -> &mut T {
        if traced {
            &mut self.traced
        } else {
            &mut self.plain
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind the value (1 for a count or a total).
    pub samples: usize,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// A blocking-step breakdown of a traced run: the parts must be
/// non-negative and add up to the separately measured whole.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// What is broken down.
    pub name: &'static str,
    /// The measured whole, µs per operation.
    pub whole_us: f64,
    /// `(part, µs per operation)`.
    pub parts: Vec<(&'static str, f64)>,
}

impl Breakdown {
    /// The parts' sum.
    pub fn sum_us(&self) -> f64 {
        self.parts.iter().map(|&(_, v)| v).sum()
    }

    /// Checks that the parts are non-negative and sum to the whole
    /// within a millionth.
    ///
    /// # Errors
    ///
    /// Describes the first violated condition.
    pub fn check(&self) -> Result<(), String> {
        if let Some((part, v)) = self.parts.iter().find(|&&(_, v)| v.is_nan() || v < 0.0) {
            return Err(format!("{}: part {part} is {v} us", self.name));
        }
        let sum = self.sum_us();
        if (sum - self.whole_us).abs() > 1e-6 * self.whole_us.abs().max(1.0) {
            return Err(format!(
                "{}: parts sum to {sum} us, the whole is {} us",
                self.name, self.whole_us
            ));
        }
        Ok(())
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The end-to-end metrics (untraced rounds).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced rounds; empty in an untraced run).
    pub per_layer: Vec<Metric>,
    /// Counts that must repeat exactly for the same seed and workload.
    pub counts: Vec<(String, u64)>,
    /// Blocking-step breakdowns (traced runs only).
    pub breakdowns: Vec<Breakdown>,
}

impl Report {
    /// The metrics the run prints: per-layer when traced, else end-to-end.
    pub fn metrics(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Whether every output check and breakdown passed and every printed
    /// value is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.tally.failed == 0
            && self.breakdowns.iter().all(|b| b.check().is_ok())
            && self.metrics(trace).iter().all(|m| m.value.is_finite())
    }
}

/// An independent seed for one use of the run seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Runs the benchmark.
///
/// # Errors
///
/// Set-up failures the run cannot continue after: the daemon does not
/// start or its telemetry cannot be read. Failed outputs are not errors;
/// they are counted in the report's tally.
pub fn run(opts: &Options) -> Result<Report, String> {
    let q = Quotas::for_workload(opts.workload);
    let mut tally = Tally::default();
    let mut kernel_bench = kernels::KernelBench::new()?;
    let mut compile_bench = compile::CompileBench::default();
    let mut serve_bench = serve::ServeBench::default();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        if round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let traced = opts.trace && round.is_multiple_of(2);
        let counted = round == 0;

        let t = Instant::now();
        let kernel_plan = kernels::plan(opts.seed, round, q.kernel_sweeps);
        let modules = compile::inputs(opts.seed, q.modules);
        let scripts = serve::scripts(opts.seed, q.requests_per_client)?;
        let mut setup = t.elapsed();

        let t = Instant::now();
        kernel_bench.run_round(&kernel_plan, traced, &mut tally);
        let kernels_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        compile_bench.run_round(&modules, traced, counted, &mut tally);
        drop(modules);
        let compile_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let daemon = serve::Daemon::start(&opts.snslpd)?;
        setup += t.elapsed();
        let t = Instant::now();
        serve_bench.run_round(&daemon, &scripts, traced, counted, &mut tally)?;
        serve_bench.note_daemon_rss(daemon.peak_rss_mb()?);
        drop(daemon);
        let serve_s = t.elapsed().as_secs_f64();

        eprintln!(
            "perfbench: round {round}{}: setup {:.3} s, kernels {kernels_s:.3} s, \
             compile {compile_s:.3} s, serve {serve_s:.3} s",
            if traced { " (traced)" } else { "" },
            setup.as_secs_f64(),
        );
        setup_s.push(setup.as_secs_f64());
        round += 1;
    }

    let peak_rss_mb = match opts.workload {
        Workload::Serve => serve_bench.peak_daemon_rss_mb(),
        Workload::Kernels | Workload::Compile => stats::peak_rss_mb("self")?,
    };
    let ok_ratio = stats::ratio(
        (tally.attempted - tally.failed) as f64,
        tally.attempted as f64,
    );
    let mut end_to_end = vec![
        Metric::new("setup_s", "s", stats::median(&setup_s), setup_s.len()),
        Metric::new("ok_ratio", "ratio", ok_ratio, tally.attempted as usize),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, 1),
    ];
    end_to_end.extend(kernel_bench.end_to_end());
    end_to_end.extend(compile_bench.end_to_end());

    let mut per_layer = Vec::new();
    let mut breakdowns = Vec::new();
    if opts.trace {
        per_layer.extend(compile_bench.per_layer());
        per_layer.extend(kernel_bench.per_layer());
        per_layer.extend(serve_bench.per_layer());
        per_layer.extend([
            kernel_bench.overhead(),
            compile_bench.overhead(),
            serve_bench.overhead(),
        ]);
        breakdowns.push(compile_bench.breakdown());
        breakdowns.push(serve_bench.breakdown());
    }

    let mut counts = kernel_bench.counts();
    counts.extend(compile_bench.counts());
    counts.extend(serve_bench.counts());
    Ok(Report {
        tally,
        end_to_end,
        per_layer,
        counts,
        breakdowns,
    })
}
