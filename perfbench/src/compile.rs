//! The compile phase: the `snslpc` path without the server. Seeded fuzz
//! modules of 12 functions, printed to text, are parsed and vectorized
//! under SN-SLP; there is no JIT. The driver runs on one thread, so a
//! module's time is the compiler's own work and not how the host
//! schedules two threads.
//!
//! Every compiled function must pass the verifier and behave like its
//! scalar source on the fuzz case's own arguments (the fuzz oracle's
//! `execute`/`compare`). Rounds replay the same modules; a replay must
//! print exactly the IR the oracle passed.

use std::time::Instant;

use snslp_core::{run_slp_module_with_threads, FunctionReport, SlpConfig, SlpMode};
use snslp_cost::CostModel;
use snslp_fuzz::{compare, execute, generate, Case};
use snslp_ir::{parse_module, stable_text_hash, verify, Function, Module};
use snslp_trace::{Counter, Stage};

use crate::stats::{fastest_quantile, ratio, Fastest};
use crate::{derive_seed, Breakdown, Metric, Split, Tally};

/// Functions per module, the shape the `snslpd` load generator sends.
pub const FUNCTIONS_PER_MODULE: usize = 12;

const SALT: u64 = 0x434F_4D50;

/// One input module: its text and the fuzz cases it was printed from.
pub struct Input {
    /// `.snir` module text.
    pub text: String,
    /// The scalar sources and their arguments, in module order.
    pub cases: Vec<Case>,
}

/// Prints one module of fresh fuzz functions starting at `first_index`.
fn module(fuzz_seed: u64, first_index: u64) -> Input {
    let cases: Vec<Case> = (0..FUNCTIONS_PER_MODULE as u64)
        .map(|k| generate(fuzz_seed, first_index + k))
        .collect();
    let text = cases.iter().map(|c| format!("{}\n", c.function)).collect();
    Input { text, cases }
}

/// The run's modules: every round compiles the same ones.
pub fn inputs(seed: u64, modules: usize) -> Vec<Input> {
    let fuzz_seed = derive_seed(seed, SALT);
    (0..modules)
        .map(|m| module(fuzz_seed, (m * FUNCTIONS_PER_MODULE) as u64))
        .collect()
}

/// The five stage timers of the pass, in pipeline order.
const STAGES: [(Stage, &str); 5] = [
    (Stage::Cleanup, "ir.cleanup_us"),
    (Stage::Seeds, "core.seeds_us"),
    (Stage::GraphBuild, "core.graph_us"),
    (Stage::CostEval, "core.cost_us"),
    (Stage::Codegen, "core.codegen_us"),
];

/// The pass counters reported as exact counts.
const COUNTERS: [(Counter, &str); 7] = [
    (Counter::BundlesAttempted, "core.bundles_attempted"),
    (Counter::GraphsVectorized, "core.graphs_vectorized"),
    (Counter::LookaheadScoreEvals, "core.lookahead_evals"),
    (Counter::GathersEmitted, "core.gathers_emitted"),
    (Counter::LeafMoves, "core.leaf_moves"),
    (Counter::TrunkAssistedMoves, "core.trunk_moves"),
    (Counter::CostModelQueries, "cost.queries"),
];

/// Per-module layer times of a traced round (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    bytes: u64,
    parse: f64,
    driver: f64,
    /// Sum over functions of `run_slp`'s own elapsed time.
    pass: f64,
    stages: [f64; 5],
}

impl Layers {
    /// The blocking steps of one module, in order: they add up to
    /// `parse + driver` by construction.
    fn steps(&self) -> [(&'static str, f64); 8] {
        let s = &self.stages;
        [
            ("ir.parse_us", self.parse),
            (STAGES[0].1, s[0]),
            (STAGES[1].1, s[1]),
            (STAGES[2].1, s[2]),
            (STAGES[3].1, s[3]),
            (STAGES[4].1, s[4]),
            ("core.unattributed_us", self.pass - s.iter().sum::<f64>()),
            ("core.driver_us", self.driver - self.pass),
        ]
    }
}

/// Samples and counts of the compile phase across a run.
#[derive(Debug, Default)]
pub struct CompileBench {
    /// Per module, its fastest latency, parse through vectorize (ms).
    latency_ms: Split<Vec<Fastest>>,
    /// Per module, the hash of its compiled text once the oracle passed
    /// it: later replays must print the same text.
    verified: Vec<Option<u128>>,
    layers: Vec<Layers>,
    /// Exact counts over round 0's modules.
    counts: Vec<(String, u64)>,
}

impl CompileBench {
    /// Compiles one round's modules.
    pub fn run_round(&mut self, modules: &[Input], traced: bool, counted: bool, tally: &mut Tally) {
        let cfg = SlpConfig::new(SlpMode::SnSlp);
        let model = CostModel::default();
        let mut totals = Totals::default();
        let best = self.latency_ms.pick(traced);
        best.resize(best.len().max(modules.len()), Fastest::default());
        self.verified
            .resize(self.verified.len().max(modules.len()), None);
        for (m, input) in modules.iter().enumerate() {
            let t0 = Instant::now();
            let parsed = parse_module(&input.text);
            let t1 = traced.then(Instant::now);
            let (module, reports) = match parsed {
                Ok(mut module) => {
                    let reports = run_slp_module_with_threads(&mut module, &cfg, 1);
                    (module, reports)
                }
                Err(e) => {
                    tally.record(Err(format!("compile: parse failed: {e}")));
                    continue;
                }
            };
            let t2 = Instant::now();
            let printed = stable_text_hash(&module_text(&module));
            let checked = match self.verified[m] {
                Some(hash) if hash == printed => Ok(()),
                Some(_) => Err("compile: a replay printed different IR".to_string()),
                None => check(input, &module, &model),
            };
            if !tally.record(checked) {
                continue;
            }
            self.verified[m] = Some(printed);
            self.latency_ms.pick(traced)[m].add((t2 - t0).as_secs_f64() * 1e3);
            if let Some(t1) = t1 {
                self.layers.push(layers(input, &reports, t0, t1, t2));
            }
            if counted {
                totals.add(input, &module, &reports);
            }
        }
        if counted {
            self.counts = totals.into_counts();
        }
    }

    /// `compile_ms_p50` over the modules' fastest latencies, and
    /// `functions_per_s` at those latencies.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let l = &self.latency_ms.plain;
        let (p50, n) = fastest_quantile(l, 50.0);
        let compiled: Vec<f64> = l
            .iter()
            .filter(|f| f.samples > 0)
            .map(|f| f.value)
            .collect();
        let busy_s = compiled.iter().sum::<f64>() / 1e3;
        vec![
            Metric::new("compile_ms_p50", "ms", p50, n),
            Metric::new(
                "functions_per_s",
                "1/s",
                ratio((compiled.len() * FUNCTIONS_PER_MODULE) as f64, busy_s),
                n,
            ),
        ]
    }

    /// Mean over the traced module compiles of each blocking step (µs).
    fn mean_steps(&self) -> Vec<(&'static str, f64)> {
        let n = self.layers.len() as f64;
        let mut sums = [0.0; 8];
        for l in &self.layers {
            for (sum, (_, v)) in sums.iter_mut().zip(l.steps()) {
                *sum += v;
            }
        }
        Layers::default()
            .steps()
            .iter()
            .zip(sums)
            .map(|(&(name, _), sum)| (name, ratio(sum, n) / 1e3))
            .collect()
    }

    /// The `ir.*`, `core.*` and `cost.*` layer metrics: per-module means
    /// of traced rounds for times, round 0 totals for counts.
    pub fn per_layer(&self) -> Vec<Metric> {
        let n = self.layers.len();
        let bytes: u64 = self.layers.iter().map(|l| l.bytes).sum();
        let parse_s: f64 = self.layers.iter().map(|l| l.parse).sum::<f64>() / 1e9;
        let count = |name: &str| {
            self.counts
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |&(_, v)| v as f64)
        };
        // The tail of module compile times moved by up to 11% between
        // runs of different seeds, too close to the 25% bound for an
        // end-to-end metric; it is reported here.
        let (p90, samples) = fastest_quantile(&self.latency_ms.traced, 90.0);
        let mut out = vec![Metric::new("compile_ms_p90", "ms", p90, samples)];
        out.extend(
            self.mean_steps()
                .into_iter()
                .map(|(name, us)| Metric::new(name, "us", us, n)),
        );
        out.push(Metric::new(
            "ir.parse_mb_per_s",
            "MB/s",
            ratio(bytes as f64 / 1e6, parse_s),
            n,
        ));
        for name in ["ir.insts_in", "ir.insts_out"] {
            out.push(Metric::new(name, "count", count(name), 1));
        }
        for (_, name) in COUNTERS {
            out.push(Metric::new(name, "count", count(name), 1));
        }
        out.push(Metric::new(
            "core.vectorized_ratio",
            "ratio",
            ratio(
                count("core.graphs_vectorized"),
                count("core.bundles_attempted"),
            ),
            1,
        ));
        out.push(Metric::new(
            "core.lookahead_hit_ratio",
            "ratio",
            ratio(
                count("core.lookahead_hits"),
                count("core.lookahead_hits") + count("core.lookahead_misses"),
            ),
            1,
        ));
        out
    }

    /// Per module: parse + the five stages + the pass's unattributed time
    /// + the driver's time outside the pass = the measured compile time.
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            name: "compile",
            whole_us: ratio(
                self.layers.iter().map(|l| l.parse + l.driver).sum(),
                self.layers.len() as f64,
            ) / 1e3,
            parts: self.mean_steps(),
        }
    }

    /// Traced over untraced `compile_ms_p50`: the traced rounds' extra
    /// clock read and metrics bookkeeping.
    pub fn overhead(&self) -> Metric {
        let (traced, n) = fastest_quantile(&self.latency_ms.traced, 50.0);
        let (plain, m) = fastest_quantile(&self.latency_ms.plain, 50.0);
        Metric::new("trace.overhead_ratio.compile", "x", traced / plain, n + m)
    }

    /// Exact counts over round 0's modules.
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.counts.clone()
    }
}

fn module_text(module: &Module) -> String {
    module
        .functions()
        .iter()
        .map(|f| format!("{f}\n"))
        .collect()
}

/// Verifies every compiled function and compares it with its scalar
/// source on the case's own arguments.
fn check(input: &Input, module: &Module, model: &CostModel) -> Result<(), String> {
    let compiled = module.functions();
    if compiled.len() != input.cases.len() {
        return Err(format!(
            "compile: {} functions in, {} out",
            input.cases.len(),
            compiled.len()
        ));
    }
    for (case, f) in input.cases.iter().zip(compiled) {
        let fail = |e: String| format!("compile: @{}: {e}", f.name());
        verify(f).map_err(|e| fail(format!("verifier: {e}")))?;
        let want = execute(&case.function, &case.args, model).map_err(fail)?;
        let got = execute(f, &case.args, model).map_err(fail)?;
        compare(&want, &got).map_err(fail)?;
    }
    Ok(())
}

fn layers(
    input: &Input,
    reports: &[FunctionReport],
    t0: Instant,
    t1: Instant,
    t2: Instant,
) -> Layers {
    let mut stages = [0.0; 5];
    for r in reports {
        for (i, (stage, _)) in STAGES.iter().enumerate() {
            stages[i] += r.metrics.stage_nanos(*stage) as f64;
        }
    }
    Layers {
        bytes: input.text.len() as u64,
        parse: (t1 - t0).as_nanos() as f64,
        driver: (t2 - t1).as_nanos() as f64,
        pass: reports.iter().map(|r| r.elapsed.as_nanos() as f64).sum(),
        stages,
    }
}

fn num_insts(f: &Function) -> u64 {
    f.block_ids().map(|b| f.block(b).insts().len() as u64).sum()
}

/// Exact counts accumulated over one round's modules.
#[derive(Debug, Default)]
struct Totals {
    insts_in: u64,
    insts_out: u64,
    counters: [u64; COUNTERS.len()],
    lookahead_hits: u64,
    lookahead_misses: u64,
}

impl Totals {
    fn add(&mut self, input: &Input, module: &Module, reports: &[FunctionReport]) {
        self.insts_in += input
            .cases
            .iter()
            .map(|c| num_insts(&c.function))
            .sum::<u64>();
        self.insts_out += module.functions().iter().map(num_insts).sum::<u64>();
        for r in reports {
            for (i, (counter, _)) in COUNTERS.iter().enumerate() {
                self.counters[i] += r.metrics.get(*counter);
            }
            self.lookahead_hits += r.metrics.get(Counter::LookaheadCacheHits);
            self.lookahead_misses += r.metrics.get(Counter::LookaheadCacheMisses);
        }
    }

    fn into_counts(self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("ir.insts_in".to_string(), self.insts_in),
            ("ir.insts_out".to_string(), self.insts_out),
            ("core.lookahead_hits".to_string(), self.lookahead_hits),
            ("core.lookahead_misses".to_string(), self.lookahead_misses),
        ];
        for ((_, name), v) in COUNTERS.iter().zip(self.counters) {
            out.push((name.to_string(), v));
        }
        out
    }
}
